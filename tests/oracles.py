"""Reference implementations over string node ids, kept as test oracles.

These are the per-sample and per-pair loops the library ran before it
moved to integer leaf codes, the hinge rows as full-width differences of
sibling vectors before siblings were compared on their parent's block
only, the subgradient hinge solver that ran before the dual solver, the
certificate as it ran before the node
ancestor matrix and the vectorised symmetry audit, the hierarchical
losses' node weights as a per-node loop, the embedded distance
matrix as one expression, the exports as the ``csv`` and ``json``
modules wrote them, one ``repr`` per entry, before streaming, and the
dataset CSV as ``csv`` read it, one ``float()`` per cell, before rows went
through ``np.loadtxt``.  The property
tests in ``test_oracles.py`` check the fast paths against them on random
trees.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np

from labeltree.classifier import (
    MODEL_FORMAT,
    ConvergenceWarning,
    LinearModel,
    _augment,
    _check_dataset,
    adaptive_weights,
    predict_paths,
    train_linear,
)
from labeltree.dissimilarity import (
    ConsistencyReport,
    MonotonicityViolation,
    SymmetryViolation,
)
from labeltree.embedding import table_to_json_dict
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


def dissimilarity_matrix(tree, schedule) -> np.ndarray:
    """Closed-form dissimilarities with a per-node ancestor walk."""
    order = tree.node_order
    q = len(order)
    layers = np.array([tree.layer(n) for n in order])
    lca = lca_layer_matrix(tree)
    w2 = np.array([w * w for w in schedule.level_weights])
    cum = np.concatenate([[0.0], np.cumsum(w2), [np.sum(w2)]])
    lo = np.minimum(layers[:, None], layers[None, :])
    hi = np.maximum(layers[:, None], layers[None, :])
    ancestral = lca == lo
    sq_anc = cum[hi - 1] - cum[lca - 1]
    psi = np.zeros(q + 1)
    for i, node in enumerate(order):
        if not tree.is_leaf(node):
            psi[i] = schedule.sibling_weight[node]
    psi[-1] = schedule.sibling_weight[tree.root]
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


def distance_matrix(table) -> np.ndarray:
    """Embedded distances as one expression, before the in-place updates."""
    pts = table.matrix().T
    sq = np.sum(pts**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


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
