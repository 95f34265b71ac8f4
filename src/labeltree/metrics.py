"""Evaluation measures for paired true/predicted taxonomy paths.

All functions take a sequence of ``(true_path, predicted_path)`` pairs,
where each path is the full root-to-leaf node sequence.  The root carries
no information (it is on every path) and is excluded from all set-based
measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hierarchy import Tree

__all__ = [
    "EvaluationReport",
    "symmetric_loss",
    "hierarchical_loss",
    "h_fmeasure",
    "evaluate",
]

Pair = tuple[tuple[str, ...], tuple[str, ...]]


def _check_pairs(pairs: Sequence[Pair]) -> None:
    if not pairs:
        raise ValueError("no evaluation pairs given")


def symmetric_loss(pairs: Sequence[Pair]) -> float:
    """Mean symmetric-difference size of the two paths' non-root node sets."""
    _check_pairs(pairs)
    total = 0
    for true, pred in pairs:
        total += len(set(true[1:]) ^ set(pred[1:]))
    return total / len(pairs)


def _pair_codes(pairs: Sequence[Pair], tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    _check_pairs(pairs)
    true, pred = zip(*pairs)
    return (
        tree.leaf_codes_of(true, "true path of pair"),
        tree.leaf_codes_of(pred, "predicted path of pair"),
    )


def hierarchical_loss(
    pairs: Sequence[Pair], tree: Tree, weighting: str = "sib"
) -> float:
    """Depth-discounted loss charging only the first point of divergence.

    Each path maps to a binary indicator over the tree's node order; the
    first position where the two indicators disagree is charged its node
    coefficient, and later positions are ignored (their prefix already
    mismatches).  Coefficients:

    * ``"sib"``: the root has weight 1 and each node divides its parent's
      weight by the parent's child count, so mistakes high in the tree
      cost more and sibling weights sum to the parent's.
    * ``"sub"``: subtree size (node plus offspring) over the number of
      non-root nodes.
    """
    if weighting not in ("sib", "sub"):
        raise ValueError(f"weighting must be 'sib' or 'sub', got {weighting!r}")
    return getattr(evaluate(pairs, tree), f"l_h_{weighting}")


def h_fmeasure(pairs: Sequence[Pair], tree: Tree) -> tuple[float, float, float]:
    """Hierarchical precision, recall, and F-measure.

    Each path is augmented with all ancestors of its nodes (a no-op for
    full root-to-leaf paths, root excluded); precision and recall pool the
    intersection sizes over samples against the predicted and true
    augmented sizes respectively.
    """
    report = evaluate(pairs, tree)
    return report.hp, report.hr, report.hf


@dataclass
class EvaluationReport:
    """All measures for one set of prediction pairs."""

    l01: float
    l_delta: float
    l_h_sib: float
    l_h_sub: float
    hp: float
    hr: float
    hf: float
    n_te: int
    wall_time_seconds: float = 0.0

    _FIELDS = (
        ("l01", "zero-one loss"),
        ("l_delta", "symmetric loss"),
        ("l_h_sib", "hierarchical loss (sibling weights)"),
        ("l_h_sub", "hierarchical loss (subtree weights)"),
        ("hp", "hierarchical precision"),
        ("hr", "hierarchical recall"),
        ("hf", "hierarchical F-measure"),
    )

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {name: getattr(self, name) for name, _ in self._FIELDS}
        out["n_te"] = self.n_te
        if include_timing:
            out["wall_time_seconds"] = self.wall_time_seconds
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2) + "\n"

    def to_text(self, include_timing: bool = True) -> str:
        rows = [(label, f"{getattr(self, name):.6f}") for name, label in self._FIELDS]
        rows.append(("samples", str(self.n_te)))
        if include_timing:
            rows.append(("wall time (s)", f"{self.wall_time_seconds:.3f}"))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows) + "\n"


def _node_coefficients(tree: Tree) -> np.ndarray:
    """``(q + 1, 2)`` sibling and subtree weights of every node by order index.

    Layer by layer from the tree's shape arrays: a node's sibling weight
    is its parent's divided by the parent's child count, and its subtree
    weight the size of its subtree over ``q``.  The root's row is never
    read: no divergence is charged to it.
    """
    up = tree.node_parents
    sib = np.ones(tree.q + 1)
    for t in range(2, tree.depth + 1):
        nodes = np.flatnonzero(tree.node_layers == t)
        sib[nodes] = sib[up[nodes]] / tree.node_fanouts[up[nodes]]
    return np.column_stack([sib, tree.subtree_sizes / tree.q])


def evaluate(
    pairs: Sequence[Pair], tree: Tree, wall_time_seconds: float = 0.0
) -> EvaluationReport:
    """Compute every measure on the given pairs.

    Every path must be a full root-to-leaf path of ``tree``; otherwise
    :class:`~labeltree.hierarchy.PathError` (a ``ValueError``) names the
    first bad pair.  Each pair is mapped to leaf codes, and every measure
    follows from the two non-root path lengths and the layer of the
    deepest common ancestor.
    """
    true, pred = _pair_codes(pairs, tree)
    a, b = tree.leaf_ancestors[true], tree.leaf_ancestors[pred]
    t_len, p_len = (a > 0).sum(axis=1), (b > 0).sum(axis=1)
    wrong = np.flatnonzero(true != pred)
    # an exact pair shares its whole path; distinct leaves first differ in
    # the column numbered by their LCA layer
    lca = t_len + 1
    lca[wrong] = np.argmin(a[wrong] == b[wrong], axis=1)
    # node order is breadth-first, so the first diverging node in that
    # order is the earlier of the two nodes just below the common ancestor
    first = np.minimum(a[wrong, lca[wrong]], b[wrong, lca[wrong]])
    h_sib, h_sub = _node_coefficients(tree)[first].sum(axis=0)
    n, shared = len(pairs), int((lca - 1).sum())
    hp, hr = shared / int(p_len.sum()), shared / int(t_len.sum())
    return EvaluationReport(
        l01=len(wrong) / n,
        l_delta=(int((t_len + p_len).sum()) - 2 * shared) / n,
        l_h_sib=float(h_sib) / n,
        l_h_sub=float(h_sub) / n,
        hp=hp,
        hr=hr,
        hf=2.0 * hp * hr / (hp + hr) if hp + hr > 0 else 0.0,
        n_te=n,
        wall_time_seconds=wall_time_seconds,
    )
