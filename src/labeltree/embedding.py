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


def simplex(count: int, norm: float) -> np.ndarray:
    """Vertices of a regular simplex with common norm ``norm``.

    Returns a ``(count, count - 1)`` array.  All rows have norm ``norm``,
    all pairwise distances equal ``norm * sqrt(2*count/(count-1))``, all
    pairwise angles have cosine ``-1/(count-1)``, and the centroid is the
    origin.

    Raises
    ------
    ValueError
        If ``count < 2`` or ``norm`` is not positive and finite.
    """
    if count < 2:
        raise ValueError(f"a simplex needs at least 2 points, got {count}")
    if not 0.0 < norm < np.inf:
        raise ValueError(f"norm must be positive and finite, got {norm}")
    radius = np.sqrt((count - 1.0) / (2.0 * count))  # norm of the unit-c simplex
    return _simplex_centered(count, 1.0) * (norm / radius)


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

    def offset(self, node: str) -> np.ndarray:
        """Sibling-simplex offset of ``node`` relative to its parent."""
        parent = self.tree.parent(node)
        if parent is None:
            raise ValueError("the root has no embedded offset")
        if parent == self.tree.root:
            return self.vectors[node]
        return self.vectors[node] - self.vectors[parent]

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
    """``fill(rows, out, lca)``: rows ``rows`` of :meth:`~EmbeddingTable.distance_matrix`.

    ``lca``, the block's LCA layers in a certificate pass, is not read.
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

    def fill(rows: slice, out: np.ndarray, lca) -> np.ndarray:
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
    ratio = schedule.base_weight / table.base_norm
    blocks = _row_pass(tree, _dissimilarity_rows(tree, schedule), _distance_rows(table))
    return _largest([_isometry_error(ratio, target, dist) for _, _, target, dist in blocks])


def _check_schedule(tree: Tree, schedule: WeightSchedule, table: EmbeddingTable):
    _check_tree(tree, "embedding table", table)
    if schedule.decay != table.decay:
        raise ValueError(
            f"schedule decay {schedule.decay} != embedding decay {table.decay}"
        )


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
    tree, fill = table.tree, _distance_rows(table)
    bound_met = _meets_decay_bound(table.decay)
    return _audit(tree, tol, bound_met, lambda: _row_pass(tree, fill))


def _certify(
    tree: Tree, schedule: WeightSchedule, table: EmbeddingTable
) -> tuple[float, ConsistencyReport, ConsistencyReport]:
    """:func:`verify_isometry`, :func:`consistency_check` and
    :func:`embedded_consistency_check` at their defaults, in one pass.

    Each row block of the LCA layer, dissimilarity and distance matrices
    is made once, by the row functions those three use, and feeds the
    isometry error and both audits before the next block is made.  No
    q-by-q array is held: beside the node matrix there are only row
    blocks.  A pass is made again only to locate the witnesses of a
    monotonicity violation.
    """
    _check_schedule(tree, schedule, table)
    ratio = schedule.base_weight / table.base_norm
    target_fill, dist_fill = _dissimilarity_rows(tree, schedule), _distance_rows(table)
    tree_audit, point_audit, maxima = _Audit(tree, 1e-10), _Audit(tree, 1e-10), []
    for rows, lca, target, dist in _row_pass(tree, target_fill, dist_fill):
        maxima.append(_isometry_error(ratio, target, dist))
        tree_audit.add(rows, lca, target)
        point_audit.add(rows, lca, dist)
    return (
        _largest(maxima),
        tree_audit.report(schedule.meets_decay_bound, lambda: _row_pass(tree, target_fill)),
        point_audit.report(
            _meets_decay_bound(table.decay), lambda: _row_pass(tree, dist_fill)
        ),
    )


def _stack_texts(table: EmbeddingTable, fmt) -> dict[int, list[list[str]]]:
    """``fmt`` of every entry of each distinct stack, keyed by the stack's id.

    Parents of one (fan-out, layer) share a stack, so an entry is formatted
    once for all of them.
    """
    stacks = {id(s): s for _, s in table.sibling_blocks.values()}
    return {key: [[fmt(v) for v in row] for row in s.tolist()] for key, s in stacks.items()}


def _repeat(text: str, n: int, sep: str) -> str:
    """``sep.join`` of ``n`` copies of ``text``; empty when ``n`` is 0."""
    return ((sep + text) * n)[len(sep) :]


def _joined(pieces, sep: str) -> str:
    """``sep.join`` of the nonempty ``pieces``."""
    return sep.join([p for p in pieces if p])


def _node_rows(table: EmbeddingTable, fmt, sep: str) -> Iterator[str]:
    """Each node's vector as ``sep.join`` of the ``fmt`` of its entries, node order.

    A node's vector is the offset rows of its path, each on the block of
    the path node's parent, and zero elsewhere.  Blocks are laid out in
    node order, so a path's blocks come in increasing column order.
    """
    tree, blocks, zero = table.tree, table.sibling_blocks, fmt(0.0)
    rows = {key: [sep.join(r) for r in t] for key, t in _stack_texts(table, fmt).items()}
    parents, first = tree.node_parents.tolist(), tree.first_children.tolist()
    for path in tree.node_ancestors.tolist():
        pieces, end = [], 0
        for c in path[1:]:
            if c < 0:
                break
            P = parents[c]
            start, stack = blocks[P]
            pieces += [_repeat(zero, start - end, sep), rows[id(stack)][c - first[P]]]
            end = start + stack.shape[1]
        pieces.append(_repeat(zero, table.dimension - end, sep))
        yield _joined(pieces, sep)


def _coordinate_rows(table: EmbeddingTable, fmt, sep: str) -> Iterator[str]:
    """Each coordinate's row over the nodes as ``sep.join`` of the ``fmt`` of its entries.

    Coordinate ``k`` of parent ``P``'s block holds ``stack[j, k]`` on the
    subtree of ``P``'s child ``j`` and zero elsewhere.  In node order the
    subtrees' nodes on one layer are one range of order indices, child by
    child, and the nodes a layer down are those between the first children
    of the range's ends.  So every row of the block is the same runs: per
    layer, a zero run, then a run of each child's entry.
    """
    tree, zero = table.tree, fmt(0.0)
    texts = _stack_texts(table, fmt)
    first = [*tree.first_children.tolist(), tree.q + 1]
    for P, (_, stack) in table.sibling_blocks.items():
        # child j's nodes on a layer are order indices bounds[j]:bounds[j + 1]
        bounds, end, layers = list(range(first[P], first[P] + len(stack) + 1)), 1, []
        while bounds[0] < bounds[-1]:
            counts = [b - a for a, b in zip(bounds, bounds[1:])]
            layers.append((_repeat(zero, bounds[0] - end, sep), counts))
            end, bounds = bounds[-1], [first[i] for i in bounds]
        tail = _repeat(zero, tree.q + 1 - end, sep)
        for column in zip(*texts[id(stack)]):
            pieces = []
            for gap, counts in layers:
                pieces.append(gap)
                pieces += [_repeat(t, n, sep) for t, n in zip(column, counts)]
            pieces.append(tail)
            yield _joined(pieces, sep)


def write_matrix_csv(table: EmbeddingTable, path) -> None:
    """Write the embedding as CSV: one row per coordinate, node-order columns.

    The header goes through :mod:`csv`, which quotes node ids as needed;
    coordinate rows are written as the same text, one ``repr`` per float,
    rendered by :func:`_coordinate_rows` from the stacks.
    """
    rows = _coordinate_rows(table, repr, ",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["coordinate", *table.tree.node_order])
        for i, row in enumerate(rows, start=1):
            fh.write(f"{i},")
            fh.write(row)
            fh.write("\r\n")


def write_json(table: EmbeddingTable, path) -> None:
    """Write the table as ``json.dump(..., indent=2)`` writes its JSON view.

    The view holds ``base_norm``, ``decay``, ``dimension`` and ``vectors``,
    each node id's vector as a list of floats in node order.  Written one
    node at a time, so the file is never held as one string; each vector
    is rendered by :func:`_node_rows` from the stacks, its floats as
    :mod:`json` formats them.
    """
    inner = "\n" + "  " * 3  # the indent of a vector's items
    rows = _node_rows(table, json.dumps, "," + inner)
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
