"""Distance-exact label embeddings for rooted taxonomies.

Each parent's children are encoded as the vertices of a regular simplex
placed in a coordinate block reserved for that parent, and every child
vector is its parent's vector plus the simplex offset.  Sibling blocks of
distinct parents are disjoint, so offsets across parents are orthogonal.
With the geometric per-layer scaling used here, Euclidean distances
between embedded points reproduce the tree dissimilarity of
:mod:`labeltree.dissimilarity` exactly, in dimension ``n_leaf - 1``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .dissimilarity import (
    DEFAULT_DECAY,
    ConsistencyReport,
    WeightSchedule,
    _Audit,
    _check_tree,
    _level_scales,
    _meets_decay_bound,
    _audit,
    _dissimilarity_rows,
    _row_blocks,
    _row_pass,
    _whole,
)
from .hierarchy import Tree

__all__ = [
    "simplex",
    "EmbeddingTable",
    "embed_tree",
    "verify_isometry",
    "embedded_consistency_check",
    "write_matrix_csv",
    "table_to_json_dict",
    "write_json",
]


def _simplex_centered(count: int, c: float) -> np.ndarray:
    """``count`` points in ``R**(count-1)`` with equal pairwise distance ``c``.

    Grown one dimension at a time: the first two points sit at ``-c/2`` and
    ``+c/2`` on the first axis, and each further point is the centroid of
    the previous ones lifted along a fresh axis to restore distance ``c``.
    The result is centered, so all points share the norm
    ``c * sqrt((count-1) / (2*count))``.
    """
    dim = count - 1
    xi = np.zeros((count, dim))
    xi[0, 0] = -c / 2.0
    xi[1, 0] = c / 2.0
    for m in range(2, count):
        centroid = xi[:m, : m - 1].mean(axis=0)
        d = np.linalg.norm(centroid - xi[m - 1, : m - 1])
        xi[m, : m - 1] = centroid
        xi[m, m - 1] = np.sqrt(c * c - d * d)
    return xi - xi.mean(axis=0)


def simplex(
    count: int,
    norm: float,
    offset: int = 0,
    ambient: int | None = None,
) -> np.ndarray:
    """Vertices of a regular simplex with common norm ``norm``.

    Returns a ``(count, ambient)`` array whose rows are supported on the
    ``count - 1`` coordinates starting at ``offset``.  All rows have norm
    ``norm``, all pairwise distances equal ``norm * sqrt(2*count/(count-1))``,
    all pairwise angles have cosine ``-1/(count-1)``, and the centroid is
    the origin.

    Raises
    ------
    ValueError
        If ``count < 2``, ``norm`` is not positive and finite, or the ambient
        dimension cannot hold the block.
    """
    if count < 2:
        raise ValueError(f"a simplex needs at least 2 points, got {count}")
    if not 0.0 < norm < np.inf:
        raise ValueError(f"norm must be positive and finite, got {norm}")
    if offset < 0:
        raise ValueError(f"offset must be nonnegative, got {offset}")
    if ambient is None:
        ambient = offset + count - 1
    if ambient < offset + count - 1:
        raise ValueError(
            f"ambient dimension {ambient} cannot hold {count - 1} coordinates "
            f"at offset {offset}"
        )
    centered = _simplex_centered(count, 1.0)
    radius = np.sqrt((count - 1.0) / (2.0 * count))  # norm of the unit-c simplex
    out = np.zeros((count, ambient))
    out[:, offset : offset + count - 1] = centered * (norm / radius)
    return out


@dataclass(frozen=True)
class EmbeddingTable:
    """Embedded points for every non-root node of a tree.

    ``tree``, ``base_norm`` and ``decay`` fix every point: they are the whole
    state, which equality and the hash compare.  :attr:`sibling_blocks` is the
    stored form; :attr:`sibling_runs`, :attr:`node_matrix`, :attr:`vectors`,
    :attr:`block_layout` and :attr:`layer_dims` are views of it, each built on
    first use.

    Attributes
    ----------
    tree:
        The embedded taxonomy.
    base_norm:
        Norm of the root's child vectors.
    decay:
        Per-layer shrink ratio of the sibling-offset norms.
    layer_norms:
        ``layer_norms[m-1]`` is the offset norm used for children of
        layer-``m`` parents.
    """

    tree: Tree
    base_norm: float
    decay: float
    layer_norms: tuple[float, ...] = field(init=False, compare=False)

    def __post_init__(self):
        norms = _level_scales(self.tree.depth, self.base_norm, self.decay, "base norm")
        object.__setattr__(self, "layer_norms", norms)
        self.sibling_blocks  # built now, so a layer norm that underflows raises here

    @property
    def dimension(self) -> int:
        """Ambient dimension, always ``tree.n_leaf - 1``."""
        return self.tree.n_leaf - 1

    @cached_property
    def sibling_blocks(self) -> Mapping[int, tuple[int, np.ndarray]]:
        """Parent's order index to its block start and its children's offsets there.

        Parents take ``fanout - 1`` coordinates each, in node order.  The
        offsets, rows in document order, are the read-only simplex of the
        layer's norm, one array per (fan-out, layer).  Siblings agree bit for
        bit off their parent's block, so descent compares them on it alone.
        """
        parents = np.flatnonzero(self.tree.node_fanouts)
        fanouts = self.tree.node_fanouts[parents]
        starts = (np.cumsum(fanouts - 1) - (fanouts - 1)).tolist()
        layers = self.tree.node_layers[parents].tolist()
        stacks, out = {}, {}
        for P, start, n, m in zip(parents.tolist(), starts, fanouts.tolist(), layers):
            if (n, m) not in stacks:
                stacks[n, m] = simplex(n, self.layer_norms[m - 1])
                stacks[n, m].setflags(write=False)
            out[P] = (start, stacks[n, m])
        return MappingProxyType(out)

    @cached_property
    def sibling_runs(self) -> tuple[tuple[np.ndarray, slice, slice, np.ndarray], ...]:
        """Runs of consecutive parents that share a stack, in node order.

        Each run is ``(parents, kids, block, stack)``: the parents' order
        indices, the slice of their children's rows, the slice of their
        blocks' coordinates and the :attr:`sibling_blocks` stack they share.
        Parents of one run have one fan-out ``f``, so ``kids`` is ``k`` groups
        of ``f`` rows and ``block`` ``k`` groups of ``f - 1`` coordinates,
        parent by parent.
        """
        first, runs = self.tree.first_children.tolist(), []
        blocks = self.sibling_blocks.items()
        for _, run in groupby(blocks, key=lambda item: id(item[1][1])):
            run = list(run)
            (P, (start, stack)), k = run[0], len(run)
            (f, d), parents = stack.shape, np.array([R for R, _ in run], dtype=np.intp)
            parents.setflags(write=False)
            kids, block = slice(first[P], first[P] + k * f), slice(start, start + k * d)
            runs.append((parents, kids, block, stack))
        return tuple(runs)

    @cached_property
    def node_matrix(self) -> np.ndarray:
        """Read-only ``(q + 1, dimension)`` node vectors by order index.

        The root's row is zero; a child's is its parent's plus its offset.
        """
        M = np.zeros((self.tree.q + 1, self.dimension))
        first = self.tree.first_children.tolist()
        for P, (start, stack) in self.sibling_blocks.items():
            kids = slice(first[P], first[P] + len(stack))
            M[kids] = M[P]
            M[kids, start : start + stack.shape[1]] = stack
        M.setflags(write=False)
        return M

    @cached_property
    def vectors(self) -> Mapping[str, np.ndarray]:
        """Node id to its read-only row of :attr:`node_matrix`."""
        return MappingProxyType(dict(zip(self.tree.node_order, self.node_matrix[1:])))

    @cached_property
    def block_layout(self) -> Mapping[str, tuple[int, int]]:
        """Non-leaf node id to the half-open coordinate range of its block."""
        blocks, nodes = self.sibling_blocks.items(), self.tree.nodes
        return MappingProxyType({nodes[P]: (a, a + s.shape[1]) for P, (a, s) in blocks})

    @cached_property
    def layer_dims(self) -> Mapping[int, int]:
        """Coordinates in use down to each layer; the deepest is :attr:`dimension`."""
        blocks, layers = self.sibling_blocks.items(), self.tree.node_layers.tolist()
        return MappingProxyType({layers[P] + 1: a + s.shape[1] for P, (a, s) in blocks})

    def vector(self, node: str) -> np.ndarray:
        return self.vectors[node]

    def offset(self, node: str) -> np.ndarray:
        """Sibling-simplex offset of ``node`` relative to its parent."""
        parent = self.tree.parent(node)
        if parent is None:
            raise ValueError("the root has no embedded offset")
        if parent == self.tree.root:
            return self.vectors[node]
        return self.vectors[node] - self.vectors[parent]

    def distance(self, a: str, b: str) -> float:
        return float(np.linalg.norm(self.vectors[a] - self.vectors[b]))

    def matrix(self) -> np.ndarray:
        """(dimension, q) matrix; columns follow the tree's node order."""
        return np.ascontiguousarray(self.node_matrix[1:].T)

    def distance_matrix(self) -> np.ndarray:
        """(q, q) Euclidean distances between embedded points, node order.

        Built a row block at a time by the row function the certificate
        uses, so the result is the one q-by-q array made.
        """
        return _whole(self.tree.q, _distance_rows(self))


def _distance_rows(table: EmbeddingTable):
    """``fill(rows, out)``: rows ``rows`` of :meth:`~EmbeddingTable.distance_matrix`.

    ``|a|^2 + |b|^2 - 2<a, b>`` is finished in place in ``out``, which first
    takes the product ``pts[rows] @ pts.T``, read from the node matrix in
    place.  A row's bits depend on the block it is made in, as BLAS
    kernels round a product by its shape, but not on where the block's
    memory lies.
    """
    pts = table.node_matrix[1:]
    # Each squared norm is accumulated left to right, as np.sum does over
    # a column-major copy; over C-ordered or one-row data it sums pairwise.
    # A block's last column is copied out, so no block outlives its turn.
    sq = np.empty(len(pts))
    for r in _row_blocks(*pts.shape):
        sq[r] = np.square(pts[r]).cumsum(axis=1)[:, -1]

    def fill(rows: slice, out: np.ndarray) -> np.ndarray:
        gram = np.matmul(pts[rows], pts.T, out=out)
        gram *= 2.0
        np.subtract(np.add.outer(sq[rows], sq), gram, out=gram)
        k = np.arange(len(gram))
        gram[k, k + rows.start] = 0.0
        np.maximum(gram, 0.0, out=gram)
        return np.sqrt(gram, out=gram)

    return fill


def embed_tree(
    tree: Tree, base_norm: float = 1.0, decay: float = DEFAULT_DECAY
) -> EmbeddingTable:
    """Embed every non-root node of ``tree`` into ``R**(n_leaf - 1)``.

    The root's children form a simplex of norm ``base_norm`` on the first
    coordinates.  For each deeper layer, every non-leaf parent (taken in
    node order) gets a fresh coordinate block holding its children's
    simplex offsets, scaled down by ``1/decay`` per layer, and each child
    vector is the parent vector plus its offset.
    """
    return EmbeddingTable(tree, base_norm, decay)


def verify_isometry(
    tree: Tree, schedule: WeightSchedule, table: EmbeddingTable
) -> float:
    """Largest gap between the tree dissimilarity and embedded distances.

    Embedded distances are compared after scaling by the ratio of the
    schedule's base weight to the table's base norm; when the two match,
    the mapping is an exact isometry and the returned value is at
    floating-point noise level.

    Raises
    ------
    ValueError
        If the schedule or the table was built for another tree, or the two
        disagree on the decay.
    """
    _check_schedule(tree, schedule, table)
    lca, ratio = tree.lca_layer_matrix(), schedule.base_weight / table.base_norm
    fills = _dissimilarity_rows(tree, schedule, lca), _distance_rows(table)
    blocks = _certificate_rows(lca, *fills)
    return _largest([_isometry_error(ratio, target, dist) for _, _, target, dist in blocks])


def _check_schedule(tree: Tree, schedule: WeightSchedule, table: EmbeddingTable):
    _check_tree(tree, "embedding table", table)
    if schedule.decay != table.decay:
        raise ValueError(
            f"schedule decay {schedule.decay} != embedding decay {table.decay}"
        )


def _certificate_rows(
    lca: np.ndarray, target_fill, dist_fill
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """``(rows, lca rows, dissimilarity rows, distance rows)`` for each row block.

    ``target_fill`` and ``dist_fill`` are :func:`_dissimilarity_rows` and
    :func:`_distance_rows`.  Each array is a view of a buffer the next
    block overwrites.
    """
    targets, dists = _row_pass(lca, target_fill), _row_pass(lca, dist_fill)
    for (rows, target, lca_rows), (_, dist, _) in zip(targets, dists):
        yield rows, lca_rows, target, dist


def _isometry_error(ratio: float, target: np.ndarray, dist: np.ndarray) -> np.float64:
    """``max |target - ratio * dist|`` over rows of both; a NaN anywhere is the result."""
    gap = dist * ratio
    gap -= target  # the negated difference, bit for bit; its magnitude agrees
    return np.max(np.abs(gap, out=gap))


def _largest(maxima: list) -> float:
    """The largest of the row blocks' maxima, NaN if one is NaN."""
    return float(np.max(maxima))  # not Python's max, which can drop a NaN


def embedded_consistency_check(
    table: EmbeddingTable, tol: float = 1e-10
) -> ConsistencyReport:
    """Consistency audit of the embedded points under Euclidean distance.

    Mirrors :func:`labeltree.dissimilarity.consistency_check`; clean
    whenever the decay meets the certification threshold.  The distances
    are made and audited a row block at a time.
    """
    lca, fill = table.tree.lca_layer_matrix(), _distance_rows(table)
    bound_met = _meets_decay_bound(table.decay)
    return _audit(table.tree, tol, bound_met, lambda: _row_pass(lca, fill))


def _certify(
    tree: Tree, schedule: WeightSchedule, table: EmbeddingTable
) -> tuple[float, ConsistencyReport, ConsistencyReport]:
    """:func:`verify_isometry`, :func:`consistency_check` and
    :func:`embedded_consistency_check` at their defaults, in one pass.

    Each row block of the dissimilarity and distance matrices is made
    once, by the row functions those three use, and feeds the isometry
    error and both audits before the next block is made.  No q-by-q float
    array is held: beside the node matrix and the int8 LCA layer matrix
    there are only row blocks.  A pass is made again only to locate the
    witnesses of a monotonicity violation.
    """
    _check_schedule(tree, schedule, table)
    lca, ratio = tree.lca_layer_matrix(), schedule.base_weight / table.base_norm
    target_fill, dist_fill = _dissimilarity_rows(tree, schedule, lca), _distance_rows(table)
    tree_audit, point_audit, maxima = _Audit(tree, 1e-10), _Audit(tree, 1e-10), []
    for rows, lca_rows, target, dist in _certificate_rows(lca, target_fill, dist_fill):
        maxima.append(_isometry_error(ratio, target, dist))
        tree_audit.add(rows, target, lca_rows)
        point_audit.add(rows, dist, lca_rows)
    return (
        _largest(maxima),
        tree_audit.report(schedule.meets_decay_bound, lambda: _row_pass(lca, target_fill)),
        point_audit.report(
            _meets_decay_bound(table.decay), lambda: _row_pass(lca, dist_fill)
        ),
    )


def _distinct_texts(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct float bit patterns of ``values`` and ``fmt`` of each.

    An embedding holds few distinct values, since every block is one
    simplex pattern times a layer scale, so formatting each once and
    looking entries up by their bits writes the same text as formatting
    every entry.  Keys are bits, not values, so ``-0.0`` keeps its own
    text; zero is always a key.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    keys = np.unique(np.append(bits[bits != 0], 0))
    texts = np.array([fmt(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return keys, texts


def _nonzero_cells(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D array, row-major, found in its memory order.

    ``np.nonzero`` walks a transposed view entry by entry; a flat scan of
    the memory, then a stable sort of the few hits by row, is cheaper.
    """
    n_rows, n_cols = a.shape
    if a.flags.f_contiguous and not a.flags.c_contiguous:
        cols, rows = np.divmod(np.flatnonzero(a.T != 0), n_rows)
        by_row = np.argsort(rows, kind="stable")
        return rows[by_row], cols[by_row]
    return np.divmod(np.flatnonzero(a != 0), n_cols)


def _row_texts(mat: np.ndarray, fmt, sep: str) -> Iterator[str]:
    """``sep.join`` of the ``fmt`` text of each entry, row by row of ``mat``.

    A node's vector is zero off the blocks of its path, so nearly every
    entry is zero.  Only the nonzero entries are looked up, by their bits
    in :func:`_distinct_texts`; each run of zeros between them is one
    repeated string.  Zero is tested by bits, so ``-0.0`` keeps its own
    text.  ``mat`` may be any float64 view; no copy of it is made.
    """
    n_rows, n_cols = mat.shape
    bits = mat.view(np.int64)
    rows, cols = _nonzero_cells(bits)
    nonzero = bits[rows, cols]
    keys, texts = _distinct_texts(nonzero.view(np.float64), fmt)
    counts = np.bincount(rows, minlength=n_rows)
    ends = np.cumsum(counts)
    starts, filled = ends - counts, counts > 0
    before = np.empty_like(cols)  # the column of the previous nonzero entry
    before[1:] = cols[:-1]
    before[starts[filled]] = -1
    last = np.full(n_rows, -1)
    last[filled] = cols[ends[filled] - 1]
    # the zero runs: one before each nonzero entry, then one ending each row
    runs, which = np.unique(
        np.concatenate([cols - before - 1, n_cols - 1 - last]), return_inverse=True
    )
    # A row is sep.join of its pieces: each nonzero entry after its run,
    # then the row's last run.  A run of k zeros is sep.join of k zero
    # texts, and an empty run is left out.  Codes index runs, then texts.
    unit = sep + texts[np.searchsorted(keys, 0)]
    zeros = [(unit * k)[len(sep) :] for k in runs.tolist()]
    table = np.array([*zeros, *texts], dtype=object)
    n = len(cols)
    lead = 2 * starts + np.arange(n_rows)  # each row's first piece
    run_at = np.concatenate([2 * np.arange(n) + rows, lead + 2 * counts])
    code = np.empty(2 * n + n_rows, dtype=np.intp)
    code[run_at] = which
    code[run_at[:n] + 1] = len(runs) + np.searchsorted(keys, nonzero)
    kept = np.ones(len(code), dtype=bool)
    kept[run_at] = runs[which] > 0
    pieces = table[code[kept]].tolist()
    bounds = (np.cumsum(kept) - kept)[lead].tolist()  # kept pieces before each row
    for a, b in zip(bounds, [*bounds[1:], len(pieces)]):
        yield sep.join(pieces[a:b])


def write_matrix_csv(table: EmbeddingTable, path) -> None:
    """Write the embedding as CSV: one row per coordinate, node-order columns.

    The header goes through :mod:`csv`, which quotes node ids as needed;
    coordinate rows are written as the same text, one ``repr`` per float,
    rendered by :func:`_row_texts` from a transposed view of the node matrix.
    """
    rows = _row_texts(table.node_matrix[1:].T, repr, ",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["coordinate", *table.tree.node_order])
        for i, row in enumerate(rows, start=1):
            fh.write(f"{i},")
            fh.write(row)
            fh.write("\r\n")


def table_to_json_dict(table: EmbeddingTable) -> dict:
    """JSON-ready view of the table; vector keys follow node order."""
    return {
        "base_norm": table.base_norm,
        "decay": table.decay,
        "dimension": table.dimension,
        "vectors": {
            node: [float(v) for v in table.vectors[node]]
            for node in table.tree.node_order
        },
    }


def _json_list(items: list[str], level: int) -> str:
    """Formatted items as ``json.dump(..., indent=2)`` lays out their list.

    ``level`` is the list's nesting depth in the document.
    """
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * level}]"


def _json_float_list(values: np.ndarray, level: int) -> str:
    """A float array as ``json.dump(..., indent=2)`` lays out its list.

    :mod:`json` writes finite floats with ``float.__repr__``, so the text
    is the same without the pure-Python encoder's per-item cost.
    """
    values = np.asarray(values, dtype=float)
    fmt = repr if np.isfinite(values).all() else json.dumps
    return _json_list(list(map(fmt, values.tolist())), level)


def write_json(table: EmbeddingTable, path) -> None:
    """Write :func:`table_to_json_dict` as ``json.dump(..., indent=2)`` does.

    Written one node at a time, so the file is never held as one string;
    each vector is rendered by :func:`_row_texts`, its floats as :mod:`json`
    formats them.
    """
    inner = "\n" + "  " * 3  # the indent of a vector's items
    rows = _row_texts(table.node_matrix[1:], json.dumps, "," + inner)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key in ("base_norm", "decay", "dimension"):
            fh.write(f'  "{key}": {json.dumps(getattr(table, key))},\n')
        fh.write('  "vectors": {')
        sep = "\n"
        for node, row in zip(table.tree.node_order, rows):
            fh.write(f"{sep}    {json.dumps(node)}: [{inner}")
            fh.write(row)
            fh.write("\n    ]")
            sep = ",\n"
        fh.write("\n  }\n}\n")
