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
    if decay <= 1.0:
        raise ValueError(f"decay must exceed 1, got {decay}")
    if base_weight <= 0.0:
        raise ValueError(f"base weight must be positive, got {base_weight}")
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


def dissimilarity_matrix(tree: Tree, schedule: WeightSchedule) -> np.ndarray:
    """(q, q) matrix of pairwise dissimilarities in node order.

    Vectorized evaluation of the same closed form as
    :func:`dissimilarity`; the two agree to floating-point accuracy.
    """
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])
    lca = tree.lca_layer_matrix()

    w2 = np.array([w * w for w in schedule.level_weights])
    # cum[t] = sum of squared level weights for layers 1..t; one padding
    # entry because cum[lca] is evaluated (then masked) on the diagonal,
    # where lca can equal the tree depth.
    cum = np.concatenate([[0.0], np.cumsum(w2), [np.sum(w2)]])

    lo = np.minimum(layers[:, None], layers[None, :])
    hi = np.maximum(layers[:, None], layers[None, :])
    ancestral = lca == lo
    sq_anc = cum[hi - 1] - cum[lca - 1]

    # Sibling weight of the common ancestor at layer lca (root included).
    psi = np.zeros(q + 1)
    for i, node in enumerate(order):
        if not tree.is_leaf(node):
            psi[i] = schedule.sibling_weight[node]
    psi[-1] = schedule.sibling_weight[tree.root]
    # Node-order position of each pair's common ancestor; the root's
    # order index 0 becomes -1, so psi[-1] resolves to the root.
    anc_idx = tree.node_ancestors[np.arange(q)[:, None], lca - 1] - 1
    sib = psi[anc_idx]
    sq_cross = sib**2 + cum[layers[:, None] - 1] + cum[layers[None, :] - 1] - 2 * cum[lca]

    out = np.sqrt(np.where(ancestral, sq_anc, np.maximum(sq_cross, 0.0)))
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
) -> ConsistencyReport:
    """Run both consistency checks against a precomputed distance matrix.

    Shared by :func:`consistency_check` (tree dissimilarity) and the
    embedded-point check in :mod:`labeltree.embedding`.
    """
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])
    lca = tree.lca_layer_matrix()
    iu, ju = np.triu_indices(q, k=1)
    values = dist[iu, ju]
    pair_lca = lca[iu, ju]
    n_pairs = len(values)

    # Monotonicity: grouped by ancestor layer, every value in a
    # shallower-ancestor group must strictly exceed every value in any
    # deeper-ancestor group; comparing adjacent group extremes is enough.
    mono: list[MonotonicityViolation] = []
    groups = sorted(set(pair_lca.tolist()))
    extremes = {}
    for t in groups:
        mask = pair_lca == t
        vals = values[mask]
        idx = np.flatnonzero(mask)
        extremes[t] = (
            idx[int(np.argmin(vals))],
            idx[int(np.argmax(vals))],
        )
    for t_low, t_high in zip(groups, groups[1:]):
        k_min = extremes[t_low][0]
        k_max = extremes[t_high][1]
        if values[k_min] <= values[k_max]:
            mono.append(
                MonotonicityViolation(
                    pair_low=(order[iu[k_min]], order[ju[k_min]]),
                    lca_low=int(t_low),
                    value_low=float(values[k_min]),
                    pair_high=(order[iu[k_max]], order[ju[k_max]]),
                    lca_high=int(t_high),
                    value_high=float(values[k_max]),
                )
            )

    # Symmetry: for a fixed anchor, partners at one layer sharing the
    # common-ancestor layer must all sit at the same dissimilarity.  Each
    # (partner layer, ancestor layer) group is a mask over the matrix, and
    # each anchor's extremes in it are masked row reductions; argmin and
    # argmax return first occurrences, as a scan in node order does.
    found = []
    for other_layer in np.unique(layers).tolist():
        cols = np.flatnonzero(layers == other_layer)
        part = dist[:, cols]
        part_lca = lca[:, cols]
        part_lca[cols, np.arange(cols.size)] = 0  # a node is not its own partner
        for t in range(1, other_layer + 1):
            member = part_lca == t
            rows = np.flatnonzero(np.count_nonzero(member, axis=1) >= 2)
            member, vals = member[rows], part[rows]
            lo = np.where(member, vals, np.inf)
            hi = np.where(member, vals, -np.inf)
            k_min, k_max = np.argmin(lo, axis=1), np.argmax(hi, axis=1)
            pick = np.arange(rows.size)
            bad = hi[pick, k_max] - lo[pick, k_min] > tol
            first = np.argmax(member[bad], axis=1)
            for i, j0, a, b in zip(
                rows[bad].tolist(),
                cols[first].tolist(),
                cols[k_min[bad]].tolist(),
                cols[k_max[bad]].tolist(),
            ):
                found.append((i, j0, other_layer, t, a, b))
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
        n_pairs=n_pairs,
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
    dist = dissimilarity_matrix(tree, schedule)
    return consistency_report_from_matrix(
        tree, dist, tol=tol, decay_bound_met=schedule.meets_decay_bound
    )
