"""Tree dissimilarities built from per-layer and per-parent edge weights.

Every parent-child edge out of layer ``m`` carries a weight that decays
geometrically with depth, and every pair of siblings is connected by an
edge whose weight depends only on the parent.  The dissimilarity between
two nodes is the root of the summed squared edge weights along the
fewest-hop path in that augmented graph, which has the closed form
implemented by :func:`dissimilarity_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .hierarchy import Tree

__all__ = [
    "DEFAULT_DECAY",
    "DECAY_SQUARED_BOUND",
    "WeightSchedule",
    "build_schedule",
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

# Entries in one row block of a q-by-q pass (1 MiB of floats).
_BLOCK_FLOATS = 2**17


def _row_blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive slices of ``_BLOCK_FLOATS // width`` rows, one row at least."""
    step = max(1, _BLOCK_FLOATS // width)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


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


def _dissimilarity_rows(tree: Tree, schedule: WeightSchedule):
    """``fill(rows, out, lca)``: rows ``rows`` of :func:`dissimilarity_matrix`, into ``out``.

    ``lca`` is the block's :meth:`~Tree.lca_layers`; raises for another
    tree's schedule.  The non-ancestral form is evaluated for every pair:
    its per-node terms are summed on the ``(q, depth)`` ancestor table,
    copied into the block by each pair's LCA layer and finished there in
    place, under one boolean mask a layer.  The block's pairs of a node and
    one of its proper ancestors, read off the ancestor matrix (``q * depth``
    entries, not a q-by-q mask), are then overwritten with the ancestral
    form.  Per entry, the operations and their order, and so every bit, are
    those of the closed form written out in one expression, whatever the
    block.
    """
    _check_tree(tree, "weight schedule", schedule)
    layers, depths = tree.node_layers[1:], range(1, tree.depth + 1)

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

    # One node ancestral to the other: cum[max(m,l)-1] - cum[t-1], with t
    # the ancestor's layer.  Column c of a layer-m node's row of the
    # ancestor matrix holds its ancestor at layer c + 1, a non-root proper
    # ancestor for 0 < c < m - 1.  Each pair is kept in both orders,
    # sorted by row, so a block's pairs are one slice.  The diagonal, where
    # t is the node's own layer, is zeroed last.
    c = np.arange(tree.depth)
    desc, col = np.nonzero((c > 0) & (c < layers[:, None] - 1))
    anc = tree.node_ancestors[desc, col] - 1
    sq_anc = cum[layers[desc] - 1] - cum[col]
    pair_rows, pair_cols = np.concatenate([anc, desc]), np.concatenate([desc, anc])
    by_row = np.argsort(pair_rows, kind="stable")
    pair_rows, pair_cols = pair_rows[by_row], pair_cols[by_row]
    pair_sq = np.concatenate([sq_anc, sq_anc])[by_row]

    def fill(rows: slice, out: np.ndarray, lca: np.ndarray) -> np.ndarray:
        masks = [lca == t for t in depths]  # each serves both masked passes
        for t, mask in enumerate(masks):
            np.copyto(out, head[rows, t, None], where=mask)
        out += below
        for t, mask in enumerate(masks, start=1):
            np.subtract(out, 2 * cum[t], out=out, where=mask)
        np.maximum(out, 0.0, out=out)
        a, b = np.searchsorted(pair_rows, [rows.start, rows.stop])
        out[pair_rows[a:b] - rows.start, pair_cols[a:b]] = pair_sq[a:b]
        np.sqrt(out, out=out)
        k = np.arange(len(out))
        out[k, k + rows.start] = 0.0
        return out

    return fill


def _row_pass(tree: Tree, *fills) -> Iterator[tuple]:
    """``(rows, lca, *(fill(rows, out, lca) for fill in fills))`` for each row block.

    A block's ``lca`` is its :meth:`~Tree.lca_layers`, made once for every
    fill and consumer.  Each fill's ``out`` is a view of its own buffer that
    every block reuses, so a block is overwritten by the next: a consumer
    is done with it before it asks for another.
    """
    q = tree.q
    blocks = _row_blocks(q, q)
    buffers = [np.empty((blocks[0].stop, q)) for _ in fills]
    for rows in blocks:
        lca, n = tree.lca_layers(rows), rows.stop - rows.start
        yield rows, lca, *[fill(rows, out[:n], lca) for fill, out in zip(fills, buffers)]


def _whole(q: int, fill, tree: Tree | None = None) -> np.ndarray:
    """The (q, q) matrix whose rows ``fill(rows, out, lca)`` writes, a row block at a time.

    ``lca`` is the block's :meth:`~Tree.lca_layers` of ``tree``, or None
    without a tree.
    """
    out = np.empty((q, q))
    for rows in _row_blocks(q, q):
        fill(rows, out[rows], None if tree is None else tree.lca_layers(rows))
    return out


def dissimilarity_matrix(tree: Tree, schedule: WeightSchedule) -> np.ndarray:
    """(q, q) matrix of pairwise dissimilarities in node order.

    With ``t`` a pair's latest-common-ancestor layer, ``m`` and ``l`` the node
    layers, and ``w_i`` the level weights, the closed form is:

    * one node ancestral to the other (``t == min(m, l)``):
      ``sqrt(sum_{i=t}^{max(m,l)-1} w_i**2)``;
    * otherwise: ``sqrt(s**2 + sum_{i<m} w_i**2 + sum_{i<l} w_i**2
      - 2*sum_{i<=t} w_i**2)`` where ``s`` is the sibling weight of the
      common ancestor at layer ``t``.

    Zero exactly on the diagonal; raises for another tree's schedule.
    Built a row block at a time by the row function the certificate uses,
    with no q-by-q temporary.
    """
    return _whole(tree.q, _dissimilarity_rows(tree, schedule), tree)


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


class _Audit:
    """Both consistency audits of a distance matrix, fed its row blocks in order.

    :meth:`add` keeps partial reductions of each block.  Monotonicity
    groups pairs by ancestor layer: every value in a shallower-ancestor
    group must strictly exceed every value in any deeper-ancestor group,
    so comparing adjacent group extremes is enough.  Group t holds the
    upper-triangle pairs meeting at layer t; none is empty, since every
    layer above the leaves holds a parent.  A block adds its minimum and
    maximum of each group, and :meth:`report` reduces them with
    ``np.min``/``np.max``, so a NaN still reaches the extremes.  Symmetry
    compares an anchor's partners at one layer that share the
    common-ancestor layer, which is one row, so each block finds its own
    violations and their witnesses.  Each group is a boolean mask and its
    extremes are ``where=`` reductions, so no pair list and no float copy
    is made; a witness is the first member at an extreme, row-major.
    """

    def __init__(self, tree: Tree, tol: float):
        if not tol >= 0:
            raise ValueError(f"tolerance must be non-negative, got {tol}")
        self.tree, self.tol = tree, tol
        # node order is sorted by layer, so partner layer m is a column slice
        layers = tree.node_layers[1:]
        self.spans = [
            (m, *np.searchsorted(layers, [m, m + 1]).tolist())
            for m in range(2, tree.depth + 1)
        ]
        self.lows: list[list] = []
        self.highs: list[list] = []
        self.found: list[tuple] = []

    def _upper(self, rows: slice) -> np.ndarray:
        return np.arange(rows.start, rows.stop)[:, None] < np.arange(self.tree.q)

    def add(self, rows: slice, lca: np.ndarray, dist: np.ndarray) -> None:
        """Reduce rows ``rows`` of the LCA layer and distance matrices."""
        upper, lows, highs = self._upper(rows), [], []
        for t in range(1, self.tree.depth):
            member = lca == t
            member &= upper
            lows.append(np.min(dist, where=member, initial=np.inf))
            highs.append(np.max(dist, where=member, initial=-np.inf))
        self.lows.append(lows)
        self.highs.append(highs)

        # Each anchor's extremes in a group are masked row reductions over
        # the partner layer's columns, a view.  At t = m the only node is
        # the anchor's ancestor at m (or itself), never a group, so t stops
        # below m, where no anchor is its own partner.  A row of under two
        # members spans 0, NaN or -inf.
        for m, a, b in self.spans:
            part, part_lca = dist[:, a:b], lca[:, a:b]
            for t in range(1, m):
                member = part_lca == t
                lo = np.min(part, axis=1, where=member, initial=np.inf)
                hi = np.max(part, axis=1, where=member, initial=-np.inf)
                flagged = np.flatnonzero(hi - lo > self.tol)
                member, vals = member[flagged], part[flagged]
                first = np.argmax(member, axis=1) + a
                k_min = np.argmax(member & (vals == lo[flagged, None]), axis=1) + a
                k_max = np.argmax(member & (vals == hi[flagged, None]), axis=1) + a
                for i, j0, j_min, j_max in zip(
                    flagged.tolist(), first.tolist(), k_min.tolist(), k_max.tolist()
                ):
                    values = float(dist[i, j_min]), float(dist[i, j_max])
                    self.found.append((rows.start + i, j0, m, t, j_min, j_max, *values))

    def _first_pairs(self, wanted: set, blocks) -> dict:
        """Each ``(t, value)`` of ``wanted`` to its first pair in group t at ``value``.

        ``blocks()`` passes over the row blocks again, as far as the last
        witness; each is ``(i, j, dist[i, j])``.
        """
        q, out = self.tree.q, {}
        for rows, lca, dist in blocks() if wanted else ():
            upper = self._upper(rows)
            for t, value in wanted - out.keys():
                at = (lca == t) & upper & (dist == value)
                if at.any():
                    i, j = divmod(int(np.argmax(at)), q)
                    out[t, value] = (rows.start + i, j, float(dist[i, j]))
            if len(out) == len(wanted):
                break
        return out

    def report(self, decay_bound_met: bool, blocks) -> ConsistencyReport:
        """The audits' report once every block is added.

        ``blocks()`` makes a fresh pass of ``(rows, lca rows, dist rows)``;
        it runs only if a monotonicity violation needs its witnesses.
        """
        order, q = self.tree.node_order, self.tree.q
        lows, highs = np.min(self.lows, axis=0), np.max(self.highs, axis=0)
        flagged = [
            (t, lows[t - 1], t + 1, highs[t])
            for t in range(1, self.tree.depth - 1)
            if lows[t - 1] <= highs[t]
        ]
        wanted = {key for t, low, u, high in flagged for key in ((t, low), (u, high))}
        at = self._first_pairs(wanted, blocks)
        mono = []
        for t_low, low, t_high, high in flagged:
            (i, j, value_low), (k, l, value_high) = at[t_low, low], at[t_high, high]
            mono.append(
                MonotonicityViolation(
                    pair_low=(order[i], order[j]),
                    lca_low=t_low,
                    value_low=value_low,
                    pair_high=(order[k], order[l]),
                    lca_high=t_high,
                    value_high=value_high,
                )
            )
        # anchors in node order, then each anchor's groups by first partner
        self.found.sort(key=lambda f: f[:2])
        sym = [
            SymmetryViolation(
                anchor=order[i],
                other_layer=other_layer,
                lca=t,
                node_a=order[a],
                value_a=value_a,
                node_b=order[b],
                value_b=value_b,
            )
            for i, _, other_layer, t, a, b, value_a, value_b in self.found
        ]
        return ConsistencyReport(
            n_pairs=q * (q - 1) // 2,
            tolerance=self.tol,
            decay_bound_met=decay_bound_met,
            monotonicity_violations=tuple(mono),
            symmetry_violations=tuple(sym),
        )


def _audit(tree: Tree, tol: float, decay_bound_met: bool, blocks) -> ConsistencyReport:
    """Both audits over the row blocks of ``blocks()``, a fresh pass per call."""
    audit = _Audit(tree, tol)
    for block in blocks():
        audit.add(*block)
    return audit.report(decay_bound_met, blocks)


def consistency_report_from_matrix(
    tree: Tree,
    dist: np.ndarray,
    tol: float = 1e-10,
    decay_bound_met: bool = True,
) -> ConsistencyReport:
    """Run both consistency checks against a precomputed distance matrix.

    The audit of :func:`consistency_check` and of the embedded points in
    :mod:`labeltree.embedding`, over row-block views of ``dist``, each with
    its :meth:`~Tree.lca_layers`; ``tol`` must be non-negative.
    """

    def blocks():
        for rows in _row_blocks(tree.q, tree.q):
            yield rows, tree.lca_layers(rows), dist[rows]

    return _audit(tree, tol, decay_bound_met, blocks)


def consistency_check(
    tree: Tree, schedule: WeightSchedule, tol: float = 1e-10
) -> ConsistencyReport:
    """Exhaustively audit the dissimilarity for the two tree properties.

    Monotonicity: a pair meeting at a shallower layer is strictly more
    dissimilar than a pair meeting deeper.  Symmetry: pairs that share the
    anchor node, the partner layer, and the common-ancestor layer have
    equal dissimilarities (within ``tol``).  Both hold whenever
    ``schedule.meets_decay_bound`` is true.  The dissimilarities are made
    and audited a row block at a time.
    """
    fill = _dissimilarity_rows(tree, schedule)
    return _audit(tree, tol, schedule.meets_decay_bound, lambda: _row_pass(tree, fill))
