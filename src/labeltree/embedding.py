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
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .dissimilarity import (
    DECAY_SQUARED_BOUND,
    DEFAULT_DECAY,
    ConsistencyReport,
    WeightSchedule,
    consistency_report_from_matrix,
    dissimilarity_matrix,
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

    Attributes
    ----------
    tree:
        The embedded taxonomy.
    base_norm:
        Norm of the root's child vectors.
    decay:
        Per-layer shrink ratio of the sibling-offset norms.
    dimension:
        Ambient dimension, always ``tree.n_leaf - 1``.
    vectors:
        Node id to read-only vector of length ``dimension``.
    layer_norms:
        ``layer_norms[m-1]`` is the offset norm used for children of
        layer-``m`` parents.
    block_layout:
        Non-leaf node id to the half-open coordinate range ``(start, stop)``
        reserved for its children's simplex block.
    layer_dims:
        Highest coordinate in use after processing each layer, keyed by
        layer; the deepest entry equals ``dimension``.
    """

    tree: Tree
    base_norm: float
    decay: float
    dimension: int
    vectors: Mapping[str, np.ndarray]
    layer_norms: tuple[float, ...]
    block_layout: Mapping[str, tuple[int, int]]
    layer_dims: Mapping[int, int]

    def __post_init__(self):
        for v in self.vectors.values():
            v.setflags(write=False)
        object.__setattr__(self, "vectors", MappingProxyType(dict(self.vectors)))
        object.__setattr__(
            self, "block_layout", MappingProxyType(dict(self.block_layout))
        )
        object.__setattr__(self, "layer_dims", MappingProxyType(dict(self.layer_dims)))

    def vector(self, node: str) -> np.ndarray:
        return self.vectors[node]

    @cached_property
    def sibling_blocks(self) -> Mapping[str, tuple[int, np.ndarray]]:
        """Non-leaf node id to its block start and its children's offsets there.

        Read-only ``(fanout, width)`` stacks, rows in document order; siblings'
        vectors agree bit for bit outside their parent's block.
        """
        out = {}
        for parent, (start, stop) in self.block_layout.items():
            kids = self.tree.children(parent)
            out[parent] = (start, np.stack([self.vectors[c][start:stop] for c in kids]))
            out[parent][1].setflags(write=False)
        return MappingProxyType(out)

    def sibling_terms(self, code: int) -> list[tuple[int, np.ndarray, int]]:
        """The parent's :attr:`sibling_blocks` entry and the own child's row
        ``j``, as ``(start, stack, j)``, per layer of leaf ``code``'s path.
        """
        path = self.tree.leaf_paths[code]
        rows = self.tree.index_tuple(path[-1])[1:]
        return [(*self.sibling_blocks[p], j - 1) for p, j in zip(path, rows)]

    @cached_property
    def sibling_differences(self) -> np.ndarray:
        """Read-only ``(n_leaf, dimension)`` matrix over leaf codes.

        Row ``c`` is ``sum_layers sum_siblings (xi_sibling - xi_true)``
        along leaf ``c``'s path, the label term of the linear closed forms.
        Each layer adds its siblings one at a time, in document order, on its
        parent's block: the full-width terms are exactly zero elsewhere.
        Every trainer reads its rows from here.
        """
        out = np.zeros((self.tree.n_leaf, self.dimension))
        for code, u in enumerate(out):
            for start, stack, j in self.sibling_terms(code):
                for row in stack:
                    u[start : start + stack.shape[1]] += row - stack[j]
        out.setflags(write=False)
        return out

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
        return np.column_stack([self.vectors[n] for n in self.tree.node_order])

    def distance_matrix(self) -> np.ndarray:
        """(q, q) Euclidean distances between embedded points, node order."""
        pts = self.matrix().T
        sq = np.sum(pts**2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
        np.fill_diagonal(d2, 0.0)
        return np.sqrt(np.maximum(d2, 0.0))


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
    if not 1.0 < decay < np.inf:
        raise ValueError(f"decay must exceed 1 and be finite, got {decay}")
    if not 0.0 < base_norm < np.inf:
        raise ValueError(f"base norm must be positive and finite, got {base_norm}")

    k = tree.depth
    dim = tree.n_leaf - 1
    layer_norms = tuple(base_norm / decay**i for i in range(k - 1))
    vectors: dict[str, np.ndarray] = {}
    block_layout: dict[str, tuple[int, int]] = {}
    layer_dims: dict[int, int] = {}

    root_kids = tree.children(tree.root)
    block = simplex(len(root_kids), layer_norms[0], offset=0, ambient=dim)
    for row, child in zip(block, root_kids):
        vectors[child] = row
    block_layout[tree.root] = (0, len(root_kids) - 1)
    cursor = len(root_kids) - 1
    layer_dims[2] = cursor

    for m in range(3, k + 1):
        parents = [n for n in tree.nodes_at_layer(m - 1) if not tree.is_leaf(n)]
        for parent in parents:
            kids = tree.children(parent)
            width = len(kids) - 1
            offsets = simplex(
                len(kids), layer_norms[m - 2], offset=cursor, ambient=dim
            )
            for row, child in zip(offsets, kids):
                vectors[child] = vectors[parent] + row
            block_layout[parent] = (cursor, cursor + width)
            cursor += width
        layer_dims[m] = cursor

    return EmbeddingTable(
        tree=tree,
        base_norm=base_norm,
        decay=decay,
        dimension=dim,
        vectors=vectors,
        layer_norms=layer_norms,
        block_layout=block_layout,
        layer_dims=layer_dims,
    )


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
        If the schedule and table disagree on the tree or the decay.
    """
    if table.tree != tree:
        raise ValueError("embedding table was built for a different tree")
    if schedule.decay != table.decay:
        raise ValueError(
            f"schedule decay {schedule.decay} != embedding decay {table.decay}"
        )
    if len(schedule.level_weights) != tree.depth - 1:
        raise ValueError("schedule was built for a different tree depth")
    ratio = schedule.level_weights[0] / table.layer_norms[0]
    target = dissimilarity_matrix(tree, schedule)
    actual = ratio * table.distance_matrix()
    return float(np.max(np.abs(target - actual)))


def embedded_consistency_check(
    table: EmbeddingTable, tol: float = 1e-10
) -> ConsistencyReport:
    """Consistency audit of the embedded points under Euclidean distance.

    Mirrors :func:`labeltree.dissimilarity.consistency_check`; clean
    whenever the decay meets the certification threshold.
    """
    return consistency_report_from_matrix(
        table.tree,
        table.distance_matrix(),
        tol=tol,
        decay_bound_met=table.decay**2 >= DECAY_SQUARED_BOUND,
    )


def write_matrix_csv(table: EmbeddingTable, path) -> None:
    """Write the embedding as CSV: one row per coordinate, node-order columns.

    The header goes through :mod:`csv`, which quotes node ids as needed;
    coordinate rows are written as the same text, one ``repr`` per float.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["coordinate", *table.tree.node_order])
        for i, row in enumerate(table.matrix().tolist(), start=1):
            fh.write(f"{i},{','.join(map(repr, row))}\r\n")


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


def _json_float_list(values: np.ndarray, level: int) -> str:
    """A float array as ``json.dump(..., indent=2)`` lays out its list.

    ``level`` is the list's nesting depth in the document.  :mod:`json`
    writes finite floats with ``float.__repr__``, so the text is the same
    without the pure-Python encoder's per-item cost.
    """
    values = np.asarray(values, dtype=float)
    if not values.size:
        return "[]"
    fmt = repr if np.isfinite(values).all() else json.dumps
    inner = "\n" + "  " * (level + 1)
    return f"[{inner}{(',' + inner).join(map(fmt, values.tolist()))}\n{'  ' * level}]"


def write_json(table: EmbeddingTable, path) -> None:
    """Write :func:`table_to_json_dict` as ``json.dump(..., indent=2)`` does.

    Written one node at a time, so the file is never held as one string.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key in ("base_norm", "decay", "dimension"):
            fh.write(f'  "{key}": {json.dumps(getattr(table, key))},\n')
        fh.write('  "vectors": {')
        sep = "\n"
        for node in table.tree.node_order:
            vec = _json_float_list(table.vectors[node], 2)
            fh.write(f"{sep}    {json.dumps(node)}: {vec}")
            sep = ",\n"
        fh.write("\n  }\n}\n")
