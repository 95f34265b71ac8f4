"""Reference implementations over string node ids, kept as test oracles.

These are the per-sample and per-pair loops the library ran before it
moved to integer leaf codes, the hinge rows as full-width differences of
sibling vectors before siblings were compared on their parent's block
only, the per-model descent over a score matrix ``X~ A^T`` and the
per-model validation loop of hyperparameter selection that ran before
descent read child coefficients ``C = O A``, a whole tuning pass at a
time, the subgradient hinge solver that ran before the dual solver, the
accelerated projected-gradient dual solver that ran before the
interior-point method, with its steps in closed form and from each
stack's spectral norm, the interior-point solver one lambda at a time,
scored through the full node-by-sample scatter, before the grid was
fitted in lockstep and scored per parent, the
population direction as a per-path loop over string offsets before it
became the linear closed form from subtree sums, the
certificate as it ran before the node
ancestor matrix and the vectorised symmetry audit, the hierarchical
losses' node weights as a per-node loop, the embedding as a cursor
walk that filled every view at once, before the sibling offset stacks
became the table's stored form, the embedded distance
matrix as one expression, the weight schedule's sibling weights as a
per-parent formula keyed by node id, the exports as the ``csv`` and ``json``
modules wrote them, one ``repr`` per entry, before streaming, and the
dataset CSV as ``csv`` read it, one ``float()`` per cell, before rows went
through ``np.loadtxt``, and the truth labels as ``csv`` read them, before
the label-only read, the tree's id-keyed accessors over the
dicts it kept beside its arrays, before they read the arrays, and the
adaptive weights from norms of the ``(n, dimension)`` score matrix,
before they were read from the coefficients' Gram, and ``embed``'s
certificate over the whole dissimilarity and distance matrices, with
the audits' groups as whole-matrix masks and the distances from one
product, before it went a row block at a time.  The property
tests in ``test_oracles.py`` check the fast paths against them on random
trees.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np

from labeltree.classifier import (
    HINGE_TOL,
    MODEL_FORMAT,
    ConvergenceWarning,
    LinearModel,
    _augment,
    _check_dataset,
    _check_iterations,
    _check_positive,
    _coefs_from_nodes,
    _sibling_pairs,
    _sibling_scale,
    predict_paths,
    train_linear,
)
from labeltree.dissimilarity import (
    DECAY_SQUARED_BOUND,
    DEFAULT_DECAY,
    ConsistencyReport,
    MonotonicityViolation,
    SymmetryViolation,
)
from labeltree.dual import STEP_FRACTION, _grams_by_child
from labeltree.embedding import simplex, table_to_json_dict
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


def descend_blocks(table, F) -> np.ndarray:
    """Leaf codes of the per-block walk over one model's score matrix ``F``.

    Groups rows by their current node, each group costing one product of
    its scores on the node's block with the node's stack; exact ties pick
    the first child.
    """
    tree = table.tree
    first, fanout = tree.first_children.tolist(), tree.node_fanouts.tolist()
    out = np.empty(F.shape[0], dtype=np.intp)
    groups = [(0, np.arange(F.shape[0]))]
    while groups:
        nxt = []
        for node, idx in groups:
            start, stack = table.sibling_blocks[node]
            choice = np.argmax(F[idx, start : start + stack.shape[1]] @ stack.T, axis=1)
            for j in range(fanout[node]):
                child, sub = first[node] + j, idx[choice == j]
                if not fanout[child]:
                    out[sub] = child
                elif sub.size:
                    nxt.append((child, sub))
        groups = nxt
    return (np.cumsum(tree.node_fanouts == 0) - 1)[out]


def select(name, fits, val, grid):
    """``(value, model)`` of ``fits`` with the least validation zero-one loss.

    Scores and descends each model on its own; strict improvements only,
    so ties resolve to the earlier, smaller value.
    """
    if not len(grid):
        raise ValueError(f"{name} grid is empty")
    if len(grid) == 1:
        return next(iter(fits))
    best = Xa = None
    for value, model in fits:
        if Xa is None:
            Xa = _augment(model._features(val.X))
        codes = descend_blocks(model.table, Xa @ model.coef.T)
        err = float(np.mean(codes != val.codes))
        if best is None or err < best[0]:
            best = (err, value, model)
    return best[1], best[2]


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


def population_direction(path_probs, table) -> np.ndarray:
    """Sum over paths and layers of probability x fan-out x the node's offset."""
    tree = table.tree
    v = np.zeros(table.dimension)
    for path, prob in path_probs.items():
        for parent, node in zip(path, path[1:]):
            v += prob * len(tree.children(parent)) * table.offset(node)
    return v


def hinge_terms(table, codes) -> tuple[np.ndarray, np.ndarray]:
    """Full-width ``xi_true - xi_sibling`` rows per distinct code, and their owners."""
    tree = table.tree
    rows, owners = [], []
    for code in np.unique(codes).tolist():
        path = tree.leaf_paths[code]
        for parent, node in zip(path, path[1:]):
            for sib in tree.children(parent):
                if sib != node:
                    rows.append(table.vector(node) - table.vector(sib))
                    owners.append(code)
    D = np.stack(rows)
    return D, np.array(owners)[:, None] == codes


def dual_steps(table, Xa, codes, lam) -> np.ndarray:
    """Hinge dual step ``1 / L_P`` per parent from the spectral norm of its gaps.

    ``D_{P,0}`` holds the first child's gaps against its siblings; on a
    regular simplex every child's gap matrix has its norm.
    """
    ancestors = table.tree.leaf_ancestors[codes]
    layers = table.tree.node_layers.tolist()
    steps = np.zeros(len(layers))
    for P, (_, stack) in table.sibling_blocks.items():
        rows = Xa[ancestors[:, layers[P] - 1] == P]
        if not len(rows):
            continue
        x2 = np.linalg.norm(rows, 2) ** 2
        d2 = np.linalg.norm(stack[0] - stack[1:], 2) ** 2
        steps[P] = 2.0 * lam / (x2 * d2) if x2 > 0.0 else np.inf
    return steps


def fista_steps(table, Xa, codes, lam) -> np.ndarray:
    """Step ``1 / L_P`` of each parent's block of the hinge dual, by order index.

    ``L_P = |X~_P|_2**2 * max_j |D_{P,j}|_2**2 / (2 * lam)`` bounds the
    curvature of the block: ``X~_P`` holds the rows whose paths cross
    ``P`` and ``D_{P,j}`` the gaps of child ``j`` against its siblings.
    On a regular simplex every ``D D^T`` is ``kappa_P (I + J)``
    (``classifier._sibling_scale``), whose largest eigenvalue is
    ``kappa_P f_P``.  A block with all-zero rows has constant zero margins,
    so its dual is linear and its infinite step lands on the bound at once.
    """
    tree, steps = table.tree, np.zeros(table.tree.q + 1)
    ancestors, layers = tree.leaf_ancestors[codes], tree.node_layers.tolist()
    parents = np.flatnonzero(tree.node_fanouts)
    kappa = _sibling_scale(table)[tree.first_children[parents]]
    for P, d2 in zip(parents.tolist(), (kappa * tree.node_fanouts[parents]).tolist()):
        rows = Xa[ancestors[:, layers[P] - 1] == P]
        if not len(rows):
            continue
        x2 = np.linalg.norm(rows, 2) ** 2
        steps[P] = 2.0 * lam / (x2 * d2) if x2 > 0.0 else np.inf
    return steps


def train_hinge_fista(
    dataset, table, lam: float, max_iter: int = 5000, fit_intercept: bool = True
) -> LinearModel:
    """The hinge dual by accelerated projected gradient, certified like ``train_hinge``.

    FISTA over the box ``0 <= alpha <= 1/n``, each pair stepping by
    ``1 / L_P`` of its parent's block (:func:`fista_steps`) and restarting
    whenever the momentum points downhill, from ``alpha = 0``.  It stops on
    the same ``HINGE_TOL`` duality gap, keeps the same ``history`` and
    warns the same way when ``max_iter`` runs out first.
    """
    _check_positive("lam", lam)
    _check_dataset(table, dataset)
    n, nodes = dataset.n, table.tree.q + 1
    Xa = _augment(dataset.X)
    if not fit_intercept:
        Xa[:, 0] = 0.0
    sample, parent, true, sib = _sibling_pairs(table.tree, dataset.codes)
    score_true, score_sib = sample * nodes + true, sample * nodes + sib
    scatter = np.concatenate([true * n + sample, sib * n + sample])
    step = fista_steps(table, Xa, dataset.codes, lam)[parent]
    kappa = _sibling_scale(table)[:, None] / (2.0 * lam)

    def solve(alpha):
        W = np.bincount(scatter, np.concatenate([alpha, -alpha]), nodes * n)
        G = W.reshape(nodes, n) @ Xa
        C = kappa * G
        N = Xa @ C.T
        return G, float(np.vdot(G, C)) / (2.0 * lam), N.take(score_true) - N.take(score_sib)

    alpha = y = margins = y_margins = np.zeros(len(sample))
    best_G = np.zeros((nodes, Xa.shape[1]))
    best = len(sample) / n  # every slack is 1 at A = 0
    tol, best_dual, t = HINGE_TOL * best, 0.0, 1.0
    history = [best]
    for _ in range(max_iter):
        nxt = np.minimum(np.maximum(y + step * (1.0 - y_margins), 0.0), 1.0 / n)
        G, sq, m = solve(nxt)
        primal = float(np.maximum(1.0 - m, 0.0).sum()) / n + lam * sq
        if primal < best:
            best, best_G = primal, G
        best_dual = max(best_dual, float(nxt.sum()) - lam * sq)
        history.append(best)
        if best - best_dual <= tol:
            break
        if np.dot(y - nxt, nxt - alpha) > 0.0:
            t, y, y_margins = 1.0, nxt, m
        else:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta, t = (t - 1.0) / t_next, t_next
            y, y_margins = nxt + beta * (nxt - alpha), m + beta * (m - margins)
        alpha, margins = nxt, m
    else:
        warnings.warn(
            f"hinge solver hit the {max_iter}-iteration budget; duality gap "
            f"{best - best_dual:.3g} above tolerance {tol:.3g}, "
            f"objective {best:.8g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    A = _coefs_from_nodes(table, best_G) / (2.0 * lam)
    return LinearModel(A, table, "hinge", lam=lam, history=np.array(history))


def ip_pair_space(X, t, s, fanout, scale):
    """Newton solver of a parent block in pair space, ``K_P + diag(sig)``.

    ``K_P = scale * (U U^T) o (X~ X~^T)`` over the block's pairs, ``U`` the
    child indicator of the true node minus that of the sibling: on a regular
    simplex two gaps meet as ``kappa_P (u_k . u_l)``.  The pairs are sample
    major, ``fanout - 1`` a sample, so the feature Gram scales ``K_P`` as a
    broadcast over a 4-D view.  Only the diagonal changes between iterations.
    """
    U = np.eye(fanout)[t] - np.eye(fanout)[s]
    K = U @ U.T
    n = len(X)
    K.reshape(n, fanout - 1, n, fanout - 1)[...] *= (scale * (X @ X.T))[:, None, :, None]
    diag = K.diagonal().copy()

    def factor(sig):
        np.fill_diagonal(K, diag + sig)
        return lambda r: np.linalg.solve(K, r)

    return factor


def ip_coef_space(X, t, stack, lam):
    """Newton solver of a parent block in coefficient space, by Woodbury.

    The block's pairs have rows ``Z_k = d_k (x) x~_k`` with ``d_k`` the gap
    ``stack[t] - stack[s]`` of the sample's true child ``t`` against the
    sibling ``s`` on the block's coordinates, so ``Q_P = Z Z^T / 2 lam`` and
    ``(Q_P + S)^-1 r = S^-1 (r - Z y)`` with ``(2 lam I + Z^T S^-1 Z) y =
    Z^T S^-1 r``, ``(f - 1)(p + 1)`` square.  ``Z`` itself is never formed:
    a sample's pairs share ``x~``, so the matrix is ``sum_i M_i (x) x~_i
    x~_i^T`` with ``M_i = sum_s d d^T / sig``, built one block row at a
    time.  With many samples a child, it is cheaper to sum ``x~ x~^T / sig``
    over the samples of each (true child, sibling) first, in one Gram per
    true child, and mix the ``f (f - 1)`` Grams by ``d d^T`` in one product.
    """
    n, w = X.shape
    f, d = stack.shape
    others = np.arange(d) + (np.arange(d) >= np.arange(f)[:, None])  # siblings of each child
    gaps = stack[:, None, :] - stack[others]  # (true child, sibling, coordinate)
    D3 = gaps[t]
    grouped = _grams_by_child(n, f)
    if grouped:
        order = np.argsort(t, kind="stable")
        bounds = np.searchsorted(t[order], np.arange(f + 1)).tolist()
        Xs, mix = X[order], np.einsum("tsa,tsb->tsab", gaps, gaps).reshape(f * d, d * d)

    def factor(sig):
        inv = 1.0 / sig.reshape(n, d)
        H = np.empty((d * w, d * w))
        if grouped:
            I, grams = inv[order], np.empty((f, d * w, w))
            for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                rows = (I[lo:hi, :, None] * Xs[lo:hi, None, :]).reshape(hi - lo, d * w)
                grams[c] = rows.T @ Xs[lo:hi]
            H4 = (mix.T @ grams.reshape(f * d, w * w)).reshape(d, d, w, w)
            H.reshape(d, w, d, w)[...] = H4.transpose(0, 2, 1, 3)
        else:
            M, rows = np.einsum("is,isa,isb->iab", inv, D3, D3), np.empty((n, d, w))
            for a in range(d):
                np.multiply(M[:, a, :, None], X[:, None, :], out=rows)
                np.dot(X.T, rows.reshape(n, d * w), out=H[a * w : (a + 1) * w])
        H.flat[:: d * w + 1] += 2.0 * lam

        def apply(r):
            v = r.reshape(n, d) * inv
            y = np.linalg.solve(H, (np.einsum("is,isa->ia", v, D3).T @ X).ravel())
            zy = np.einsum("isa,ia->is", D3, X @ y.reshape(d, w).T)
            return (v - zy * inv).ravel()

        return apply

    return factor


def ip_newton_blocks(table, Xa, sample, parent, true, sib, lam):
    """``(slice, factor)`` per parent block of the hinge dual's Newton matrix.

    The pairs are grouped by parent, so a block is a slice of them.
    ``factor(sig)`` takes the block's barrier diagonal and returns a solve
    of ``(Q_P + diag(sig)) x = r``, in pair space (:func:`ip_pair_space`) or
    coefficient space (:func:`ip_coef_space`), whichever is smaller.
    """
    tree, kappa = table.tree, _sibling_scale(table)
    cuts = (np.flatnonzero(np.diff(parent)) + 1).tolist()
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, len(parent)]):
        P = int(parent[lo])
        first, f = int(tree.first_children[P]), int(tree.node_fanouts[P])
        X, t, s = Xa[sample[lo : hi : f - 1]], true[lo:hi] - first, sib[lo:hi] - first
        if hi - lo <= (f - 1) * X.shape[1]:
            factor = ip_pair_space(X, t, s, f, kappa[first] / (2.0 * lam))
        else:
            factor = ip_coef_space(X, t[:: f - 1], table.sibling_blocks[P][1], lam)
        blocks.append((slice(lo, hi), factor))
    return blocks


def ip_boundary_step(alpha, s, z, w, da, dz, dw) -> float:
    """Largest ``t`` keeping ``alpha``, ``s = u - alpha``, ``z`` and ``w`` nonnegative."""
    x, dx = np.concatenate([alpha, s, z, w]), np.concatenate([da, -da, dz, dw])
    neg = dx < 0.0
    return float(np.min(-x[neg] / dx[neg], initial=np.inf))


def ip_mehrotra_direction(blocks, alpha, s, z, w, g, floor):
    """Predictor-corrector direction ``(d alpha, d z, d w)`` of the box QP.

    ``alpha`` lies strictly inside ``0 < alpha < u`` with slack ``s = u - alpha``;
    ``z`` and ``w`` are the multipliers of its lower and upper bounds and ``g``
    is the gradient ``Q alpha - 1``.  The affine predictor aims at ``mu = 0``;
    the corrector adds its second-order term and a centring target
    ``sigma mu``, ``sigma = (mu_aff / mu)**3`` (Mehrotra), kept at or above
    ``floor``.  ``floor=None`` drops the centring target.  Both steps solve
    the Newton matrix ``Q + diag(z / alpha + w / s)``, set up once per
    block (:func:`ip_newton_blocks`).
    """
    za, ws = z / alpha, w / s
    solvers = [(sl, factor(za[sl] + ws[sl])) for sl, factor in blocks]

    def newton(r):
        out = np.empty_like(r)
        for sl, solve in solvers:
            out[sl] = solve(r[sl])
        return out

    da = newton(-g)
    dz, dw = -z - za * da, -w + ws * da
    target = 0.0
    if floor is not None:
        t = min(1.0, ip_boundary_step(alpha, s, z, w, da, dz, dw))
        mu = (alpha @ z + s @ w) / (2 * len(alpha))
        mu_aff = ((alpha + t * da) @ (z + t * dz) + (s - t * da) @ (w + t * dw)) / (2 * len(alpha))
        target = max((mu_aff / mu) ** 3 * mu, floor)
    cz, cw = (target - da * dz) / alpha, (target + da * dw) / s
    dc = newton(cz - cw - g)
    return dc, cz - z - za * dc, cw - w + ws * dc


def train_hinge_ip(
    dataset, table, lam: float, max_iter: int = 100, fit_intercept: bool = True
) -> LinearModel:
    """The hinge dual by the interior-point method, one lambda at a time.

    ``classifier.train_hinge`` as it ran before the lambda grid was fitted in
    lockstep: the same probe at ``alpha = 1/n``, Mehrotra steps, stopping rule,
    final clipped step, ``history`` and warning, with every Newton block set
    up and solved for this lambda alone (:func:`ip_newton_blocks`), and the
    margins scored from the node-by-sample scatter ``W`` and the full
    ``(n, q + 1)`` score matrix ``N = X~ C^T``.
    """
    _check_positive("lam", lam)
    _check_iterations(max_iter)
    _check_dataset(table, dataset)
    n, nodes = dataset.n, table.tree.q + 1
    Xa = _augment(dataset.X)
    if not fit_intercept:
        Xa[:, 0] = 0.0
    pairs = _sibling_pairs(table.tree, dataset.codes)
    order = np.argsort(pairs[1], kind="stable")  # each parent's pairs form a slice
    sample, parent, true, sib = (a[order] for a in pairs)
    score_true, score_sib = sample * nodes + true, sample * nodes + sib
    scatter = np.concatenate([true * n + sample, sib * n + sample])
    kappa = _sibling_scale(table)[:, None] / (2.0 * lam)
    best = len(sample) / n  # every slack is 1 at A = 0
    best_G, best_dual, tol = np.zeros((nodes, Xa.shape[1])), 0.0, HINGE_TOL * best
    history = [best]

    def score(alpha):
        """Pair margins at the dual point ``alpha``, scoring its primal and dual values."""
        nonlocal best, best_G, best_dual
        W = np.bincount(scatter, np.concatenate([alpha, -alpha]), nodes * n)
        G = W.reshape(nodes, n) @ Xa
        C = kappa * G
        N = Xa @ C.T
        sq = float(np.vdot(G, C)) / (2.0 * lam)  # |A|**2
        margins = N.take(score_true) - N.take(score_sib)
        primal = float(np.maximum(1.0 - margins, 0.0).sum()) / n + lam * sq
        if primal < best:
            best, best_G = primal, G
        best_dual = max(best_dual, float(alpha.sum()) - lam * sq)
        return margins

    u = 1.0 / n
    floor = 0.05 * tol / (2 * len(sample))  # a centring target whose gap is well inside tol
    alpha = np.full(len(sample), u)
    stop = f"the {max_iter}-iteration budget"
    for it in range(max_iter):
        if it == 1:  # margins are linear in alpha, so the box centre's are halved
            blocks = ip_newton_blocks(table, Xa, sample, parent, true, sib, lam)
            alpha, m = alpha / 2.0, m / 2.0
            root = np.sqrt((m - 1.0) ** 2 + 4.0)  # multipliers with z - w = m - 1, z w = 1
            z, w = (root + m - 1.0) / 2.0, (root - m + 1.0) / 2.0
        if it:
            s = u - alpha
            try:
                da, dz, dw = ip_mehrotra_direction(blocks, alpha, s, z, w, m - 1.0, floor)
            except np.linalg.LinAlgError:
                stop = "a numerically singular Newton matrix"
                break
            t = min(1.0, STEP_FRACTION * ip_boundary_step(alpha, s, z, w, da, dz, dw))
            alpha, z, w = alpha + t * da, z + t * dz, w + t * dw
        m = score(alpha)
        history.append(best)
        if best - best_dual <= tol:
            stop = None
            break
    if stop is None and it:
        try:
            da = ip_mehrotra_direction(blocks, alpha, u - alpha, z, w, m - 1.0, None)[0]
        except np.linalg.LinAlgError:
            pass  # the certified iterate stands
        else:
            score(np.minimum(np.maximum(alpha + da, 0.0), u))
            history[-1] = best
    if stop:
        warnings.warn(
            f"hinge solver hit {stop}; duality gap "
            f"{best - best_dual:.3g} above tolerance {tol:.3g}, "
            f"objective {best:.8g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    A = _coefs_from_nodes(table, best_G) / (2.0 * lam)
    return LinearModel(A, table, "hinge", lam=lam, history=np.array(history))


SUBGRADIENT_TOL = 1e-8  # relative objective gain the subgradient solver counts as progress
SUBGRADIENT_PATIENCE = 50  # iterations without progress before it stops


def train_hinge_subgradient(
    dataset,
    table,
    lam: float,
    max_iter: int = 5000,
    fit_intercept: bool = True,
) -> LinearModel:
    """Hinge-surrogate trainer by full-batch subgradient descent.

    Deterministic: starts from zero and takes constant steps
    ``1 / (L + 2 * lam * n)`` where ``L`` is the mean over samples of
    ``|x~| * sum_terms |xi_true - xi_sibling|``, a data-driven bound on the
    data-term subgradient scale.  The incumbent best iterate is tracked
    and returned, so the recorded objective history is non-increasing.
    Stops once the incumbent objective improves by less than
    ``SUBGRADIENT_TOL`` (relatively) for ``SUBGRADIENT_PATIENCE``
    consecutive iterations; hitting ``max_iter`` first raises
    :class:`ConvergenceWarning` with the final objective.

    ``fit_intercept=False`` pins the intercept column to zero (projected
    subgradient on that subspace).
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    _check_dataset(table, dataset)
    Xa = _augment(dataset.X)
    D, mask = hinge_terms(table, dataset.codes)
    n = dataset.n

    row_norm = np.linalg.norm(Xa, axis=1)
    diff_scale = mask.T @ np.linalg.norm(D, axis=1)
    L = float(np.mean(row_norm * diff_scale))
    step = 1.0 / (L + 2.0 * lam * n)

    A = best_A = np.zeros((table.dimension, Xa.shape[1]))
    best_obj = float(mask.sum()) / n  # every slack is 1 at A = 0
    history = [best_obj]
    stalled = 0
    for _ in range(max_iter):
        margins = D @ A @ Xa.T
        slack = 1.0 - margins
        active = mask & (slack > 0.0)
        obj = float(slack[active].sum()) / n + lam * float(np.sum(A * A))
        grad = 2.0 * lam * A - D.T @ (active.astype(float) @ Xa) / n
        if not fit_intercept:
            grad[:, 0] = 0.0
        if obj < best_obj:
            gain = (best_obj - obj) / max(1.0, abs(best_obj))
            best_obj = obj
            best_A = A.copy()
            stalled = 0 if gain > SUBGRADIENT_TOL else stalled + 1
        else:
            stalled += 1
        history.append(best_obj)
        if stalled >= SUBGRADIENT_PATIENCE:
            break
        A = A - step * grad
    else:
        warnings.warn(
            f"hinge solver hit the {max_iter}-iteration budget; "
            f"final objective {best_obj:.8g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return LinearModel(
        coef=best_A, table=table, loss="hinge", lam=lam, history=np.array(history)
    )


def adaptive_weights(model, X, gamma):
    """``1 / (1 + |f(x)|**gamma)`` from the norms of the score matrix ``X~ A^T``."""
    return 1.0 / (1.0 + np.linalg.norm(model.score_matrix(X), axis=1) ** gamma)


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


def hierarchical_losses(pairs, tree) -> tuple[float, float]:
    """``l_h_sib`` and ``l_h_sub`` with node weights from a per-node loop.

    The weights as ``evaluate`` built them before it read the ancestor
    matrix, summed over the first diverging node of each wrong pair in
    pair order, so the sums round as ``evaluate``'s do.
    """
    sib = {tree.root: 1.0}
    for node in tree.node_order:
        parent = tree.parent(node)
        sib[node] = sib[parent] / len(tree.children(parent))
    coef = np.array([(sib[v], tree.subtree_size(v) / tree.q) for v in tree.nodes])
    first = []
    for true, pred in pairs:
        true_idx = {tree.order_index(node) for node in true[1:]}
        pred_idx = {tree.order_index(node) for node in pred[1:]}
        if true_idx != pred_idx:
            first.append(min(true_idx ^ pred_idx))
    h_sib, h_sub = coef[np.array(first, dtype=np.intp)].sum(axis=0)
    return float(h_sib) / len(pairs), float(h_sub) / len(pairs)


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


# -- the embedding before the offset stacks --------------------------------


def embed_tree(tree, base_norm=1.0, decay=DEFAULT_DECAY) -> SimpleNamespace:
    """Every view of the table from one cursor walk over the parents.

    Each parent in node order takes a fresh block at the cursor; its
    children's rows are its own row plus a full-width simplex there, and
    its stack is the copy of those rows on its block.
    """
    dim = tree.n_leaf - 1
    layer_norms = tuple(base_norm / decay**i for i in range(tree.depth - 1))
    M = np.zeros((tree.q + 1, dim))
    block_layout, layer_dims, sibling_blocks = {}, {}, {}
    nodes, layers = tree.nodes, tree.node_layers.tolist()
    first, fanouts = tree.first_children.tolist(), tree.node_fanouts.tolist()
    cursor = 0
    for P in np.flatnonzero(tree.node_fanouts).tolist():
        count, m = fanouts[P], layers[P]
        offsets = simplex(count, layer_norms[m - 1], offset=cursor, ambient=dim)
        kids = slice(first[P], first[P] + count)
        M[kids] = M[P] + offsets
        block_layout[nodes[P]] = (cursor, cursor + count - 1)
        sibling_blocks[P] = (cursor, M[kids, cursor : cursor + count - 1].copy())
        cursor += count - 1
        layer_dims[m + 1] = cursor
    return SimpleNamespace(
        node_matrix=M,
        layer_norms=layer_norms,
        block_layout=block_layout,
        layer_dims=layer_dims,
        sibling_blocks=sibling_blocks,
    )


# -- the tree's accessors over dicts by node id ----------------------------


class DictTree:
    """``Tree``'s id-keyed accessors over its ordered children, parents and
    index tuples by node id, as it stored them beside its arrays."""

    def __init__(self, root, children):
        self.root = root
        self._children = {parent: tuple(kids) for parent, kids in children.items()}
        self._parent = {c: p for p, kids in self._children.items() for c in kids}
        self._index_tuple = {root: (1,)}
        order, frontier = [], [root]
        while frontier:
            nxt = []
            for node in frontier:
                for j, child in enumerate(self._children.get(node, ()), start=1):
                    self._index_tuple[child] = self._index_tuple[node] + (j,)
                    nxt.append(child)
            order.extend(nxt)
            frontier = nxt
        self.nodes = (root, *order)

    def __eq__(self, other):
        return self.root == other.root and self._children == other._children

    def __hash__(self):
        return hash((self.root, tuple(sorted(self._children.items()))))

    def _require(self, node):
        if node not in self._index_tuple:
            raise KeyError(node)

    def children(self, node):
        self._require(node)
        return self._children.get(node, ())

    def parent(self, node):
        self._require(node)
        return self._parent.get(node)

    def is_leaf(self, node):
        self._require(node)
        return node not in self._children

    def index_tuple(self, node):
        return self._index_tuple[node]

    def lca_layer(self, a, b):
        t = 0
        for x, y in zip(self._index_tuple[a], self._index_tuple[b]):
            if x != y:
                break
            t += 1
        return t

    def ancestor_at_layer(self, node, t):
        m = len(self._index_tuple[node])
        if not 1 <= t <= m:
            raise ValueError(f"layer {t} out of range for node {node!r} at layer {m}")
        for _ in range(m - t):
            node = self._parent[node]
        return node

    def document(self):
        lines = []
        for node in self.nodes:
            kids = self._children.get(node)
            if kids:
                lines.append(f"{node}: {' '.join(kids)}")
        return "\n".join(lines) + "\n"


# -- the certificate before the node ancestor matrix ----------------------


def lca_layer_matrix(tree) -> np.ndarray:
    """(q, q) LCA layers from index tuples padded with per-node sentinels."""
    q, k = tree.q, tree.depth
    padded = np.zeros((q, k), dtype=np.int64)
    for i, node in enumerate(tree.node_order):
        tup = tree.index_tuple(node)
        padded[i, : len(tup)] = tup
        padded[i, len(tup) :] = -(i + 1)
    eq = padded[:, None, :] == padded[None, :, :]
    prefix = np.cumprod(eq, axis=2).sum(axis=2)
    layers = np.array([tree.layer(n) for n in tree.node_order])
    return np.minimum(prefix, np.minimum(layers[:, None], layers[None, :]))


def leaf_ancestors(tree) -> np.ndarray:
    """(n_leaf, depth) order indices along each leaf's path, -1 padded."""
    out = np.full((tree.n_leaf, tree.depth), -1, dtype=np.intp)
    for code, path in enumerate(tree.leaf_paths):
        out[code, : len(path)] = [tree.order_index(n) for n in path]
    return out


def schedule_weights(tree, base_weight, decay) -> tuple[list, dict[str, float]]:
    """Level weights and each parent's sibling weight by node id.

    A parent at layer ``m`` with ``n`` children gets ``levels[m-1] *
    sqrt(2n/(n-1))``, one parent at a time in node order, root first.
    """
    levels = [base_weight / decay**i for i in range(tree.depth - 1)]
    sibling = {}
    for node in tree.nodes:
        n = len(tree.children(node))
        if n:
            w = levels[tree.layer(node) - 1]
            sibling[node] = w * math.sqrt(2.0 * n / (n - 1.0))
    return levels, sibling


def dissimilarity_matrix(tree, schedule) -> np.ndarray:
    """Closed-form dissimilarities with a per-node ancestor walk.

    The weights come from :func:`schedule_weights` for the schedule's base
    weight and decay, not from the schedule itself.
    """
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])
    lca = lca_layer_matrix(tree)
    levels, sibling = schedule_weights(tree, schedule.base_weight, schedule.decay)
    w2 = np.array([w * w for w in levels])
    cum = np.concatenate([[0.0], np.cumsum(w2), [np.sum(w2)]])
    lo = np.minimum(layers[:, None], layers[None, :])
    hi = np.maximum(layers[:, None], layers[None, :])
    ancestral = lca == lo
    sq_anc = cum[hi - 1] - cum[lca - 1]
    psi = np.zeros(q + 1)
    for i, node in enumerate(order):
        if not tree.is_leaf(node):
            psi[i] = sibling[node]
    psi[-1] = sibling[tree.root]
    pos = {node: i for i, node in enumerate(order)}
    anc_pos = np.full((q, tree.depth + 1), -1, dtype=np.int64)
    for i, node in enumerate(order):
        cur = node
        while cur != tree.root:
            anc_pos[i, tree.layer(cur)] = pos[cur]
            cur = tree.parent(cur)
    sib = psi[anc_pos[np.arange(q)[:, None], lca]]
    sq_cross = sib**2 + cum[layers[:, None] - 1] + cum[layers[None, :] - 1] - 2 * cum[lca]
    out = np.sqrt(np.where(ancestral, sq_anc, np.maximum(sq_cross, 0.0)))
    np.fill_diagonal(out, 0.0)
    return out


def consistency_report_from_matrix(tree, dist, tol=1e-10, decay_bound_met=True):
    """Both audits, the symmetry one as a scan of every anchor's row."""
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])
    lca = lca_layer_matrix(tree)
    iu, ju = np.triu_indices(q, k=1)
    values = dist[iu, ju]
    pair_lca = lca[iu, ju]

    mono = []
    groups = sorted(set(pair_lca.tolist()))
    extremes = {}
    for t in groups:
        mask = pair_lca == t
        vals = values[mask]
        idx = np.flatnonzero(mask)
        extremes[t] = (idx[int(np.argmin(vals))], idx[int(np.argmax(vals))])
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

    sym = []
    for i in range(q):
        row = dist[i]
        keys = {}
        for j in range(q):
            if j == i:
                continue
            keys.setdefault((layers[j], lca[i, j]), []).append(j)
        for (other_layer, t), js in keys.items():
            if len(js) < 2:
                continue
            vals = row[js]
            j_min, j_max = js[int(np.argmin(vals))], js[int(np.argmax(vals))]
            if row[j_max] - row[j_min] > tol:
                sym.append(
                    SymmetryViolation(
                        anchor=order[i],
                        other_layer=int(other_layer),
                        lca=int(t),
                        node_a=order[j_min],
                        value_a=float(row[j_min]),
                        node_b=order[j_max],
                        value_b=float(row[j_max]),
                    )
                )

    return ConsistencyReport(
        n_pairs=len(values),
        tolerance=tol,
        decay_bound_met=decay_bound_met,
        monotonicity_violations=tuple(mono),
        symmetry_violations=tuple(sym),
    )


def distance_matrix(table, gram=None) -> np.ndarray:
    """Embedded distances as one expression, before the in-place updates.

    ``gram`` is the product of the node vectors with themselves, which
    rounds by the shape of the products that make it; by default it is
    the one whole product ``pts @ pts.T``.
    """
    pts = table.matrix().T
    sq = np.sum(pts**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T if gram is None else gram)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def masked_audit(tree, dist, tol=1e-10, decay_bound_met=True) -> ConsistencyReport:
    """Both audits over the whole matrix, each group one q-by-q boolean mask.

    Groups' extremes are ``where=`` reductions and a witness is the first
    member at an extreme, found by an ``argmax`` over the whole matrix.
    """
    lca = tree.lca_layer_matrix()
    order, q, layers = tree.node_order, tree.q, tree.node_layers[1:]

    upper = np.arange(q)[:, None] < np.arange(q)
    extremes = []
    for t in range(1, tree.depth):
        member = lca == t
        member &= upper
        low = np.min(dist, where=member, initial=np.inf)
        extremes.append((t, low, np.max(dist, where=member, initial=-np.inf)))

    def first_pair(t, value):
        return divmod(int(np.argmax((lca == t) & upper & (dist == value))), q)

    mono = []
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


def certify(tree, schedule, table):
    """``embed``'s certificate from the whole dissimilarity and distance matrices.

    The isometry error is one ``max`` over the whole gap, and both audits
    are :func:`masked_audit` at the default tolerance.
    """
    target, dist = dissimilarity_matrix(tree, schedule), distance_matrix(table)
    max_err = float(np.max(np.abs(dist * (schedule.base_weight / table.base_norm) - target)))
    return (
        max_err,
        masked_audit(tree, target, decay_bound_met=schedule.meets_decay_bound),
        masked_audit(tree, dist, decay_bound_met=table.decay**2 >= DECAY_SQUARED_BOUND),
    )


# -- exports before streaming ---------------------------------------------


def write_matrix_csv(table, path) -> None:
    mat = table.matrix()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coordinate", *table.tree.node_order])
        for i, row in enumerate(mat, start=1):
            writer.writerow([i, *[repr(float(v)) for v in row]])


def write_json(table, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json_dict(table), fh, indent=2)
        fh.write("\n")


def write_dataset_csv(dataset, path) -> None:
    """One ``repr`` per numpy scalar, before rows went through ``tolist``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j + 1}" for j in range(dataset.p)] + ["label"])
        for row, label in zip(dataset.X, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


def read_feature_csv(path):
    """One ``csv`` record and one ``float()`` per cell, before ``np.loadtxt``."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        has_label = header and header[-1] == "label"
        n_feat = len(header) - (1 if has_label else 0)
        rows, labels = [], []
        for record in reader:
            if not record:
                continue
            if len(record) != len(header):
                raise ValueError(
                    f"{path}: row with {len(record)} fields, expected {len(header)}"
                )
            rows.append([float(v) for v in record[:n_feat]])
            if has_label:
                labels.append(record[-1])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    X = np.array(rows, dtype=float).reshape(len(rows), n_feat)
    return X, tuple(labels) if has_label else None


def read_truth(path, tree):
    """``csv`` records, before a label became a row's text after its last comma."""
    leaf_codes = tree.leaf_codes
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header[:2] == ["index", "path"]:
            raise AssertionError("the oracle reads labeled datasets only")
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: neither a predictions file nor a labeled CSV")
        codes = []
        for record in reader:
            if not record:
                continue
            if len(record) != len(header):
                raise ValueError(
                    f"{path}: row with {len(record)} fields, expected "
                    f"{len(header)}, on line {reader.line_num}"
                )
            code = leaf_codes.get(record[-1])
            if code is None:
                raise ValueError(
                    f"{path}: row {len(codes)} on line {reader.line_num}: label "
                    f"{record[-1]!r} is not a leaf of the tree"
                )
            codes.append(code)
    if not codes:
        raise ValueError(f"{path}: no data rows")
    return [tree.leaf_paths[c] for c in codes]


def save_model(model, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "tree_sha256": model.tree.sha256(),
        "base_norm": model.table.base_norm,
        "decay": model.table.decay,
        "loss": model.loss,
        "gamma": model.gamma,
        "lambda": model.lam,
        "dimension": model.table.dimension,
        "n_features": model.n_features,
        "coef": [float(v) for v in model.coef.ravel(order="C")],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
