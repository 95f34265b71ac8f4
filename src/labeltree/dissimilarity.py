"""Tree dissimilarities built from per-layer and per-parent edge weights.

Every parent-child edge out of layer ``m`` carries a weight that decays
geometrically with depth, and every pair of siblings is connected by an
edge whose weight depends only on the parent.  The dissimilarity between
two nodes is the root of the summed squared edge weights along the
fewest-hop path in that augmented graph, which has the closed form
implemented by :func:`dissimilarity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hierarchy import Tree

__all__ = [
    "DEFAULT_DECAY",
    "DECAY_SQUARED_BOUND",
    "WeightSchedule",
    "build_schedule",
    "dissimilarity",
    "dissimilarity_matrix",
    "consistency_check",
    "consistency_report_from_matrix",
    "ConsistencyReport",
    "MonotonicityViolation",
    "SymmetryViolation",
]

DEFAULT_DECAY = math.sqrt(5.0)

# Smallest squared decay for which the monotonicity and symmetry
# properties of the dissimilarity are guaranteed on every tree.
DECAY_SQUARED_BOUND = 2.0 * math.sqrt(2.0) + 2.0

# Entries in one row block of a q-by-q pass's temporaries (1 MiB of floats).
_BLOCK_FLOATS = 2**17


def _row_blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive slices of ``_BLOCK_FLOATS // width`` rows, one row at least."""
    step = max(1, _BLOCK_FLOATS // width)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


@dataclass(frozen=True)
class WeightSchedule:
    """Edge weights of the augmented tree graph.

    ``tree``, ``base_weight`` (the root-to-child edge weight) and ``decay``
    (the per-layer shrink ratio, above 1) fix every weight, derived once at
    construction: they are the whole state, which equality and the hash compare.

    Attributes
    ----------
    level_weights:
        ``level_weights[m-1]`` weighs the edge from a parent at layer ``m`` to
        a child, for ``m = 1 .. depth-1``; each entry is the previous over ``decay``.
    sibling_weights:
        Read-only ``(q + 1,)`` weight of the edge between two children of each
        node, by order index, 0 at a leaf: ``w * sqrt(2N/(N-1))`` for ``N``
        children and level weight ``w``.  It lies in the admissible ``(w, 2w]``
        and is the unique choice that makes the embedding of
        :mod:`labeltree.embedding` distance-exact.
    """

    tree: Tree
    base_weight: float = 1.0
    decay: float = DEFAULT_DECAY
    level_weights: tuple[float, ...] = field(init=False, compare=False)
    sibling_weights: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tree = self.tree
        levels = _level_scales(tree.depth, self.base_weight, self.decay, "base weight")
        P = np.flatnonzero(tree.node_fanouts)
        n, psi = tree.node_fanouts[P], np.zeros(tree.q + 1)
        psi[P] = np.take(levels, tree.node_layers[P] - 1) * np.sqrt(2.0 * n / (n - 1.0))
        psi.setflags(write=False)
        object.__setattr__(self, "level_weights", levels)
        object.__setattr__(self, "sibling_weights", psi)

    @cached_property
    def sibling_weight(self) -> Mapping[str, float]:
        """Parent id to its entry of :attr:`sibling_weights`, in node order."""
        pairs = zip(self.tree.nodes, self.sibling_weights.tolist())
        return MappingProxyType({node: s for node, s in pairs if s})

    def parent_edge(self, parent_layer: int) -> float:
        """Weight of the edge from a parent at ``parent_layer`` to a child."""
        return self.level_weights[parent_layer - 1]

    @property
    def meets_decay_bound(self) -> bool:
        """Whether ``decay**2`` reaches the certification threshold."""
        return _meets_decay_bound(self.decay)


def _meets_decay_bound(decay: float) -> bool:
    return decay**2 >= DECAY_SQUARED_BOUND


def _level_scales(
    depth: int, base: float, decay: float, what: str
) -> tuple[float, ...]:
    """``base / decay**i`` for parent layer ``i + 1``; ``what`` names ``base``."""
    if not 1.0 < decay < math.inf:
        raise ValueError(f"decay must exceed 1 and be finite, got {decay}")
    if not 0.0 < base < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {base}")
    return tuple(base / decay**i for i in range(depth - 1))


def _check_tree(tree: Tree, what: str, built) -> None:
    if built.tree != tree:
        raise ValueError(f"{what} was built for a different tree")


def build_schedule(
    tree: Tree, base_weight: float = 1.0, decay: float = DEFAULT_DECAY
) -> WeightSchedule:
    """The geometric weight schedule of ``tree``: see :class:`WeightSchedule`."""
    return WeightSchedule(tree, base_weight, decay)


def dissimilarity(tree: Tree, schedule: WeightSchedule, a: str, b: str) -> float:
    """Closed-form dissimilarity between two non-root nodes.

    With ``t`` the latest-common-ancestor layer, ``m`` and ``l`` the node
    layers, and ``w_i`` the level weights:

    * one node ancestral to the other (``t == min(m, l)``):
      ``sqrt(sum_{i=t}^{max(m,l)-1} w_i**2)``;
    * otherwise: ``sqrt(s**2 + sum_{i<m} w_i**2 + sum_{i<l} w_i**2
      - 2*sum_{i<=t} w_i**2)`` where ``s`` is the sibling weight of the
      common ancestor at layer ``t``.

    Symmetric, and zero exactly for ``a == b``; raises for another tree's schedule.
    """
    _check_tree(tree, "weight schedule", schedule)
    for node in (a, b):
        if node == tree.root:
            raise ValueError("dissimilarity is not defined for the root")
    m, l = tree.layer(a), tree.layer(b)
    t = tree.lca_layer(a, b)
    w2 = [w * w for w in schedule.level_weights]
    if t == min(m, l):
        return math.sqrt(sum(w2[t - 1 : max(m, l) - 1]))
    anc = tree.node_ancestors[tree.order_index(a) - 1, t - 1]
    s = float(schedule.sibling_weights[anc])
    return math.sqrt(s * s + sum(w2[: m - 1]) + sum(w2[: l - 1]) - 2 * sum(w2[:t]))


def dissimilarity_matrix(
    tree: Tree, schedule: WeightSchedule, *, _lca: np.ndarray | None = None
) -> np.ndarray:
    """(q, q) matrix of pairwise dissimilarities in node order.

    Vectorized evaluation of the same closed form as :func:`dissimilarity`, to
    floating-point accuracy, and like it raises for another tree's schedule.
    ``_lca`` is the tree's :meth:`~Tree.lca_layer_matrix`, for internal callers
    that already hold it.

    The non-ancestral form is evaluated for every pair: its per-node terms
    are summed on the ``(q, depth)`` ancestor table, copied into the result
    by each pair's LCA layer and finished there in place, a row block at a
    time under one boolean mask a layer, with no q-by-q float temporary.
    The pairs of a node and one of its proper ancestors, read off the
    ancestor matrix (``q * depth`` entries, not a q-by-q mask), are then
    overwritten with the ancestral form.  Per entry, the operations and
    their order, and so every bit, are those of the closed form written
    out in one expression.
    """
    _check_tree(tree, "weight schedule", schedule)
    lca = tree.lca_layer_matrix() if _lca is None else _lca
    q, layers = tree.q, tree.node_layers[1:]

    w2 = np.array([w * w for w in schedule.level_weights])
    # cum[t] = sum of squared level weights for layers 1..t; one padding
    # entry because cum[lca] is evaluated (then overwritten) on the
    # diagonal, where lca can equal the tree depth.
    cum = np.concatenate([[0.0], np.cumsum(w2), [np.sum(w2)]])
    below = cum[layers - 1]  # squared weight summed above each node's layer

    # s**2 + cum[m-1] + cum[l-1] - 2*cum[t], with s the sibling weight of
    # the pair's common ancestor.  The first two terms depend on a node and
    # the layer t only, so they are summed on the (q, depth) ancestor table
    # and then copied by each pair's t, which never reaches the -1
    # entries below a node's own layer.
    head = schedule.sibling_weights[tree.node_ancestors]
    head *= head
    head += below[:, None]
    out = np.empty((q, q))
    for rows in _row_blocks(q, q):  # each layer's mask serves both masked passes
        block, masks = out[rows], [lca[rows] == t for t in range(1, tree.depth + 1)]
        for t, mask in enumerate(masks):
            np.copyto(block, head[rows, t, None], where=mask)
        block += below
        for t, mask in enumerate(masks, start=1):
            np.subtract(block, 2 * cum[t], out=block, where=mask)
        np.maximum(block, 0.0, out=block)

    # One node ancestral to the other: cum[max(m,l)-1] - cum[t-1], with t
    # the ancestor's layer.  Only those pairs are rewritten, read off the
    # ancestor matrix: column c of a layer-m node's row holds its ancestor
    # at layer c + 1, a non-root proper ancestor for 0 < c < m - 1.  The
    # diagonal, where t is the node's own layer, is zeroed below.
    c = np.arange(tree.depth)
    desc, col = np.nonzero((c > 0) & (c < layers[:, None] - 1))
    anc = tree.node_ancestors[desc, col] - 1
    sq_anc = cum[layers[desc] - 1] - cum[col]
    out[anc, desc] = sq_anc
    out[desc, anc] = sq_anc
    np.sqrt(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass(frozen=True)
class MonotonicityViolation:
    """A shallower-ancestor pair failed to be strictly more dissimilar."""

    pair_low: tuple[str, str]
    lca_low: int
    value_low: float
    pair_high: tuple[str, str]
    lca_high: int
    value_high: float


@dataclass(frozen=True)
class SymmetryViolation:
    """Two equal-configuration pairs got different dissimilarities."""

    anchor: str
    other_layer: int
    lca: int
    node_a: str
    value_a: float
    node_b: str
    value_b: float


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the exhaustive pairwise consistency checks.

    ``monotonicity_violations`` hold witness pairs where a pair with a
    shallower common ancestor was not strictly more dissimilar than a pair
    with a deeper one.  ``symmetry_violations`` hold witnesses where pairs
    sharing an anchor node, a common-ancestor layer, and the partner's
    layer disagreed beyond tolerance.  Detection is complete; the lists
    are representative witnesses, at least one per failure mode.
    """

    n_pairs: int
    tolerance: float
    decay_bound_met: bool
    monotonicity_violations: tuple[MonotonicityViolation, ...] = field(
        default_factory=tuple
    )
    symmetry_violations: tuple[SymmetryViolation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.monotonicity_violations and not self.symmetry_violations

    def summary(self) -> str:
        lines = [
            f"pairs checked: {self.n_pairs}",
            f"decay threshold met: {'yes' if self.decay_bound_met else 'no'}",
            f"monotonicity violations: {len(self.monotonicity_violations)}",
            f"symmetry violations: {len(self.symmetry_violations)}",
            f"result: {'ok' if self.ok else 'VIOLATIONS FOUND'}",
        ]
        for v in self.monotonicity_violations:
            lines.append(
                f"  monotonicity: {v.pair_low} (ancestor layer {v.lca_low}, "
                f"value {v.value_low:.12g}) <= {v.pair_high} (ancestor layer "
                f"{v.lca_high}, value {v.value_high:.12g})"
            )
        for v in self.symmetry_violations:
            lines.append(
                f"  symmetry: anchor {v.anchor!r}, partners at layer "
                f"{v.other_layer} with ancestor layer {v.lca}: "
                f"{v.node_a!r} -> {v.value_a:.12g} vs {v.node_b!r} -> "
                f"{v.value_b:.12g}"
            )
        return "\n".join(lines)


def consistency_report_from_matrix(
    tree: Tree,
    dist: np.ndarray,
    tol: float = 1e-10,
    decay_bound_met: bool = True,
    *,
    _lca: np.ndarray | None = None,
) -> ConsistencyReport:
    """Run both consistency checks against a precomputed distance matrix.

    Shared by :func:`consistency_check` (tree dissimilarity) and the
    embedded-point check in :mod:`labeltree.embedding`.  ``_lca`` is as
    in :func:`dissimilarity_matrix`; ``tol`` must be non-negative.  Each
    group of pairs is a boolean mask and its extremes are ``where=``
    reductions, so no pair list and no float copy of ``dist`` is made; a
    witness is the first member at an extreme, as a scan finds it.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    lca = tree.lca_layer_matrix() if _lca is None else _lca
    order, q, layers = tree.node_order, tree.q, tree.node_layers[1:]

    # Monotonicity: grouped by ancestor layer, every value in a
    # shallower-ancestor group must strictly exceed every value in any
    # deeper-ancestor group; comparing adjacent group extremes is enough.
    # Group t holds the upper-triangle pairs meeting at layer t; none is
    # empty, since every layer above the leaves holds a parent.
    upper = np.arange(q)[:, None] < np.arange(q)
    extremes = []
    for t in range(1, tree.depth):
        member = lca == t
        member &= upper
        low = np.min(dist, where=member, initial=np.inf)
        extremes.append((t, low, np.max(dist, where=member, initial=-np.inf)))

    def first_pair(t, value):
        return divmod(int(np.argmax((lca == t) & upper & (dist == value))), q)

    mono: list[MonotonicityViolation] = []
    for (t_low, low, _), (t_high, _, high) in zip(extremes, extremes[1:]):
        if low <= high:
            k_min, k_max = first_pair(t_low, low), first_pair(t_high, high)
            mono.append(
                MonotonicityViolation(
                    pair_low=(order[k_min[0]], order[k_min[1]]),
                    lca_low=t_low,
                    value_low=float(dist[k_min]),
                    pair_high=(order[k_max[0]], order[k_max[1]]),
                    lca_high=t_high,
                    value_high=float(dist[k_max]),
                )
            )

    # Symmetry: for a fixed anchor, partners at one layer sharing the
    # common-ancestor layer must all sit at the same dissimilarity.  Node
    # order is sorted by layer, so partner layer m is a column slice, a
    # view, and each anchor's extremes in a group are masked row
    # reductions.  At t = m the only node is the anchor's ancestor at m
    # (or itself), never a group, so t stops below m, where no anchor is
    # its own partner.  A row of under two members spans 0, NaN or -inf.
    found = []
    for m in range(2, tree.depth + 1):
        a, b = np.searchsorted(layers, [m, m + 1]).tolist()
        part, part_lca = dist[:, a:b], lca[:, a:b]
        for t in range(1, m):
            member = part_lca == t
            lo = np.min(part, axis=1, where=member, initial=np.inf)
            hi = np.max(part, axis=1, where=member, initial=-np.inf)
            rows = np.flatnonzero(hi - lo > tol)
            member, vals = member[rows], part[rows]
            first = np.argmax(member, axis=1) + a
            k_min = np.argmax(member & (vals == lo[rows, None]), axis=1) + a
            k_max = np.argmax(member & (vals == hi[rows, None]), axis=1) + a
            for i, j0, j_min, j_max in zip(
                rows.tolist(), first.tolist(), k_min.tolist(), k_max.tolist()
            ):
                found.append((i, j0, m, t, j_min, j_max))
    # anchors in node order, then each anchor's groups by first partner
    found.sort()
    sym = [
        SymmetryViolation(
            anchor=order[i],
            other_layer=other_layer,
            lca=t,
            node_a=order[a],
            value_a=float(dist[i, a]),
            node_b=order[b],
            value_b=float(dist[i, b]),
        )
        for i, _, other_layer, t, a, b in found
    ]

    return ConsistencyReport(
        n_pairs=q * (q - 1) // 2,
        tolerance=tol,
        decay_bound_met=decay_bound_met,
        monotonicity_violations=tuple(mono),
        symmetry_violations=tuple(sym),
    )


def consistency_check(
    tree: Tree, schedule: WeightSchedule, tol: float = 1e-10
) -> ConsistencyReport:
    """Exhaustively audit the dissimilarity for the two tree properties.

    Monotonicity: a pair meeting at a shallower layer is strictly more
    dissimilar than a pair meeting deeper.  Symmetry: pairs that share the
    anchor node, the partner layer, and the common-ancestor layer have
    equal dissimilarities (within ``tol``).  Both hold whenever
    ``schedule.meets_decay_bound`` is true.
    """
    lca = tree.lca_layer_matrix()
    return consistency_report_from_matrix(
        tree,
        dissimilarity_matrix(tree, schedule, _lca=lca),
        tol,
        schedule.meets_decay_bound,
        _lca=lca,
    )
