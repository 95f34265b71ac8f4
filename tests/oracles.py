"""Reference implementations over string node ids, kept as test oracles.

These are the per-sample and per-pair loops the library ran before it
moved to integer leaf codes.  The property tests in ``test_oracles.py``
check the fast paths against them on random trees.
"""

from __future__ import annotations

import numpy as np

from labeltree.classifier import (
    LinearModel,
    adaptive_weights,
    predict_paths,
    train_linear,
)
from labeltree.metrics import symmetric_loss, zero_one_loss


def descend(table, F) -> list[tuple[str, ...]]:
    """Top-down paths for every row of ``F``; ties pick the first child."""
    tree = table.tree
    n = F.shape[0]
    paths: list[list[str]] = [[tree.root] for _ in range(n)]
    child_mats: dict[str, np.ndarray] = {}
    groups: dict[str, np.ndarray] = {tree.root: np.arange(n)}
    while groups:
        nxt: dict[str, list[np.ndarray]] = {}
        for node, idx in groups.items():
            kids = tree.children(node)
            mat = child_mats.get(node)
            if mat is None:
                mat = np.stack([table.vector(c) for c in kids])
                child_mats[node] = mat
            choice = np.argmax(F[idx] @ mat.T, axis=1)
            for j, child in enumerate(kids):
                sub = idx[choice == j]
                if sub.size == 0:
                    continue
                for i in sub:
                    paths[i].append(child)
                if not tree.is_leaf(child):
                    nxt.setdefault(child, []).append(sub)
        groups = {node: np.concatenate(parts) for node, parts in nxt.items()}
    return [tuple(p) for p in paths]


def label_coefficients(table, dataset) -> np.ndarray:
    """(n, dimension) summed ``xi_sibling - xi_true`` over each label's path."""
    tree = dataset.tree
    per_leaf: dict[str, np.ndarray] = {}
    for leaf in set(dataset.labels):
        u = np.zeros(table.dimension)
        path = tree.path_of_leaf(leaf)
        for parent, node in zip(path, path[1:]):
            for sib in tree.children(parent):
                if sib != node:
                    u += table.vector(sib) - table.vector(node)
        per_leaf[leaf] = u
    return np.stack([per_leaf[label] for label in dataset.labels])


def train_weighted_linear(dataset, table, gamma, lam=1.0, fit_intercept=True):
    """Base linear fit, adaptive weights, then the weighted closed form."""
    base = train_linear(dataset, table, fit_intercept=fit_intercept)
    w = adaptive_weights(base, dataset.X, gamma)
    U = label_coefficients(table, dataset)
    Xa = np.hstack([np.ones((dataset.n, 1)), dataset.X])
    B = (w[:, None] * U).T @ Xa / dataset.n
    if not fit_intercept:
        B[:, 0] = 0.0
    return LinearModel(
        coef=-B / (2.0 * lam), table=table, loss="weighted-linear", gamma=gamma
    )


def select_gamma(train, val, table, grid, fit_intercept: bool = True):
    """One weighted-linear fit per gamma; ties resolve to the smaller gamma."""
    truth = val.paths()
    best = None
    for gamma in sorted(grid):
        model = train_weighted_linear(
            train, table, gamma=gamma, fit_intercept=fit_intercept
        )
        pred = predict_paths(model, val.X)
        err = float(np.mean([p != t for p, t in zip(pred, truth)]))
        if best is None or err < best[0]:
            best = (err, gamma, model)
    return best[1], best[2]


def per_sample_risk(model, dataset, fn) -> np.ndarray:
    """Surrogate ``fn`` of each own-minus-sibling score gap, summed per sample."""
    table, tree = model.table, dataset.tree
    F = model.score_matrix(dataset.X)
    out = np.zeros(dataset.n)
    for i, label in enumerate(dataset.labels):
        path = tree.path_of_leaf(label)
        total = 0.0
        for parent, node in zip(path, path[1:]):
            own = float(F[i] @ table.vector(node))
            for sib in tree.children(parent):
                if sib != node:
                    total += float(fn(own - float(F[i] @ table.vector(sib))))
        out[i] = total
    return out


def hierarchical_loss(pairs, tree, weighting: str = "sib") -> float:
    if weighting == "sib":
        coef = {}
        for node in tree.node_order:
            parent = tree.parent(node)
            parent_coef = 1.0 if parent == tree.root else coef[parent]
            coef[node] = parent_coef / len(tree.children(parent))
    else:
        coef = {node: tree.subtree_size(node) / tree.q for node in tree.node_order}
    total = 0.0
    for true, pred in pairs:
        true_idx = {tree.order_index(node) for node in true[1:]}
        pred_idx = {tree.order_index(node) for node in pred[1:]}
        diverging = true_idx ^ pred_idx
        if diverging:
            total += coef[tree.node_order[min(diverging) - 1]]
    return total / len(pairs)


def h_fmeasure(pairs) -> tuple[float, float, float]:
    inter = pred_size = true_size = 0
    for true, pred in pairs:
        true_set, pred_set = set(true[1:]), set(pred[1:])
        inter += len(true_set & pred_set)
        pred_size += len(pred_set)
        true_size += len(true_set)
    hp = inter / pred_size if pred_size else 0.0
    hr = inter / true_size if true_size else 0.0
    hf = 2.0 * hp * hr / (hp + hr) if hp + hr > 0 else 0.0
    return hp, hr, hf


def evaluate(pairs, tree) -> dict[str, float]:
    hp, hr, hf = h_fmeasure(pairs)
    return {
        "l01": zero_one_loss(pairs),
        "l_delta": symmetric_loss(pairs),
        "l_h_sib": hierarchical_loss(pairs, tree, "sib"),
        "l_h_sub": hierarchical_loss(pairs, tree, "sub"),
        "hp": hp,
        "hr": hr,
        "hf": hf,
    }
