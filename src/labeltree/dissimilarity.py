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


@dataclass(frozen=True)
class WeightSchedule:
    """Edge weights of the augmented tree graph.

    Attributes
    ----------
    level_weights:
        ``level_weights[m-1]`` is the weight of the edge between a parent
        at layer ``m`` and any of its children, for ``m = 1 .. depth-1``.
        Consecutive entries decay by ``1/decay``.
    decay:
        Geometric decay ratio, strictly greater than 1.
    sibling_weight:
        Weight of the edge between any two children of a given parent,
        keyed by parent id.  Chosen so every sibling pair under a parent
        with ``N`` children sits at distance ``w * sqrt(2N/(N-1))`` where
        ``w`` is the parent's level weight; this is the unique choice that
        makes the embedding of :mod:`labeltree.embedding` distance-exact.
    """

    level_weights: tuple[float, ...]
    decay: float
    sibling_weight: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(
            self, "sibling_weight", MappingProxyType(dict(self.sibling_weight))
        )

    def parent_edge(self, parent_layer: int) -> float:
        """Weight of the edge from a parent at ``parent_layer`` to a child."""
        return self.level_weights[parent_layer - 1]

    @property
    def meets_decay_bound(self) -> bool:
        """Whether ``decay**2`` reaches the certification threshold."""
        return self.decay**2 >= DECAY_SQUARED_BOUND


def build_schedule(
    tree: Tree, base_weight: float = 1.0, decay: float = DEFAULT_DECAY
) -> WeightSchedule:
    """Construct the geometric weight schedule for ``tree``.

    ``base_weight`` is the root-to-child edge weight; each deeper level
    shrinks by ``1/decay``.  Sibling weights are set per parent to
    ``level_weight * sqrt(2N/(N-1))`` for ``N`` children, which always
    lands in the admissible interval ``(w, 2w]``.
    """
    if not 1.0 < decay < math.inf:
        raise ValueError(f"decay must exceed 1 and be finite, got {decay}")
    if not 0.0 < base_weight < math.inf:
        raise ValueError(f"base weight must be positive and finite, got {base_weight}")
    levels = tuple(base_weight / decay**i for i in range(tree.depth - 1))
    sibling = {}
    for node in tree.nodes:
        kids = tree.children(node)
        if kids:
            n = len(kids)
            sibling[node] = levels[tree.layer(node) - 1] * math.sqrt(
                2.0 * n / (n - 1.0)
            )
    return WeightSchedule(levels, decay, sibling)


def dissimilarity(tree: Tree, schedule: WeightSchedule, a: str, b: str) -> float:
    """Closed-form dissimilarity between two non-root nodes.

    With ``t`` the latest-common-ancestor layer, ``m`` and ``l`` the node
    layers, and ``w_i`` the level weights:

    * one node ancestral to the other (``t == min(m, l)``):
      ``sqrt(sum_{i=t}^{max(m,l)-1} w_i**2)``;
    * otherwise: ``sqrt(s**2 + sum_{i<m} w_i**2 + sum_{i<l} w_i**2
      - 2*sum_{i<=t} w_i**2)`` where ``s`` is the sibling weight of the
      common ancestor at layer ``t``.

    Symmetric, and zero exactly for ``a == b``.
    """
    for node in (a, b):
        if node == tree.root:
            raise ValueError("dissimilarity is not defined for the root")
    m, l = tree.layer(a), tree.layer(b)
    t = tree.lca_layer(a, b)
    w2 = [w * w for w in schedule.level_weights]
    if t == min(m, l):
        return math.sqrt(sum(w2[t - 1 : max(m, l) - 1]))
    anc = tree.ancestor_at_layer(a, t)
    s = schedule.sibling_weight[anc]
    return math.sqrt(s * s + sum(w2[: m - 1]) + sum(w2[: l - 1]) - 2 * sum(w2[:t]))


def dissimilarity_matrix(
    tree: Tree, schedule: WeightSchedule, *, _lca: np.ndarray | None = None
) -> np.ndarray:
    """(q, q) matrix of pairwise dissimilarities in node order.

    Vectorized evaluation of the same closed form as
    :func:`dissimilarity`; the two agree to floating-point accuracy.
    ``_lca`` is the tree's :meth:`~Tree.lca_layer_matrix`, for internal
    callers that already hold it.

    Each q-by-q temporary is updated in place and released after its last
    use; the operations and their order, and so every bit, are those of
    the closed form written out in one expression.
    """
    lca = tree.lca_layer_matrix() if _lca is None else _lca
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])

    w2 = np.array([w * w for w in schedule.level_weights])
    # cum[t] = sum of squared level weights for layers 1..t; one padding
    # entry because cum[lca] is evaluated (then masked) on the diagonal,
    # where lca can equal the tree depth.
    cum = np.concatenate([[0.0], np.cumsum(w2), [np.sum(w2)]])
    below = cum[layers - 1]  # squared weight summed above each node's layer

    # Sibling weight of the common ancestor at layer lca (root included).
    psi = np.zeros(q + 1)
    for i, node in enumerate(order):
        if not tree.is_leaf(node):
            psi[i] = schedule.sibling_weight[node]
    psi[-1] = schedule.sibling_weight[tree.root]
    # Node-order position of each pair's common ancestor; the root's
    # order index 0 becomes -1, so psi[-1] resolves to the root.
    lca_above = lca - 1
    anc_idx = tree.node_ancestors[np.arange(q)[:, None], lca_above]
    anc_idx -= 1
    out = psi[anc_idx]
    del anc_idx
    # s**2 + cum[m-1] + cum[l-1] - 2*cum[t]
    np.multiply(out, out, out=out)
    out += below[:, None]
    out += below[None, :]
    twice = cum[lca]
    twice *= 2
    out -= twice
    del twice
    np.maximum(out, 0.0, out=out)

    # One node ancestral to the other: cum[max(m,l)-1] - cum[t-1].
    ancestral = lca == np.minimum(layers[:, None], layers[None, :])
    hi = np.maximum(layers[:, None], layers[None, :])
    hi -= 1
    sq_anc = cum[hi]
    del hi
    sq_anc -= cum[lca_above]
    del lca_above
    np.copyto(out, sq_anc, where=ancestral)
    del sq_anc, ancestral

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
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])

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
