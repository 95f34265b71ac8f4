"""Top-down linear classifiers over embedded taxonomy labels.

A model is a coefficient matrix ``A`` mapping an augmented feature vector
``(1, x)`` to a point ``f(x)`` in the embedding space.  Prediction walks
the tree from the root, at each layer descending into the child whose
embedded point has the largest inner product with ``f(x)`` (equivalently,
the nearest one, since siblings share a norm), comparing siblings on their
parent's block only (:attr:`EmbeddingTable.sibling_blocks`), so exact ties
go to the first child.

Training minimizes a per-layer surrogate over sibling gaps
``<f(x), xi_true> - <f(x), xi_sibling>``.  The hinge surrogate is solved
through its box-constrained dual by accelerated projected gradient until a
duality gap certifies the objective.  Under the linear surrogate ``u -> -u``
(optionally with per-sample weights) the ridge-penalized minimizer is that
dual's coefficient map at a fixed dual point, so both trainers share it.
Every loss reads one list of sibling gaps, :func:`_sibling_pairs`, against
:attr:`EmbeddingTable.node_matrix`: a gap is ``N[i, true] - N[i, sibling]``
of the node scores ``N = X~ (V A)^T``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .embedding import EmbeddingTable, _json_float_list, embed_tree
from .hierarchy import Tree

__all__ = [
    "LabeledDataset",
    "LinearModel",
    "ConvergenceWarning",
    "decision_values",
    "predict_topdown",
    "predict_paths",
    "hierarchy_margin",
    "per_sample_risk",
    "surrogate_risk",
    "train_linear",
    "adaptive_weights",
    "train_weighted_linear",
    "train_hinge",
    "hinge_objective",
    "population_direction",
    "save_model",
    "load_model",
]


class ConvergenceWarning(UserWarning):
    """The hinge solver ran out of iterations before certifying its gap."""


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1) if X.size else X.reshape(1, 0)
    return X


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((X.shape[0], 1)), X])


@dataclass
class LabeledDataset:
    """Feature matrix plus leaf labels tied to a taxonomy.

    ``X`` has one row per sample, zero columns for intercept-only models;
    ``labels`` are leaf ids of ``tree`` and ``codes`` their leaf codes.
    """

    X: np.ndarray
    labels: tuple[str, ...]
    tree: Tree
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.X = _as_matrix(self.X)
        self.labels = tuple(self.labels)
        if self.X.shape[0] != len(self.labels):
            raise ValueError(
                f"{self.X.shape[0]} feature rows but {len(self.labels)} labels"
            )
        if self.X.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features contain NaN or infinity")
        leaf_codes = self.tree.leaf_codes
        try:
            self.codes = np.array([leaf_codes[label] for label in self.labels])
        except KeyError as exc:
            label = exc.args[0]
            raise ValueError(f"label {label!r} is not a leaf of the tree") from None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def paths(self) -> list[tuple[str, ...]]:
        leaf_paths = self.tree.leaf_paths
        return [leaf_paths[c] for c in self.codes.tolist()]


@dataclass
class LinearModel:
    """Linear decision function tied to an embedding table.

    ``coef`` has shape ``(dimension, p + 1)``; its first column multiplies
    the constant-1 augmented coordinate.
    """

    coef: np.ndarray
    table: EmbeddingTable
    loss: str
    gamma: float | None = None
    lam: float | None = None
    history: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other: object) -> bool:
        # defined here, so the class keeps ``__hash__ = None``: models are mutable
        if not isinstance(other, LinearModel):
            return NotImplemented
        return (self.table, self.loss, self.gamma, self.lam) == (
            other.table,
            other.loss,
            other.gamma,
            other.lam,
        ) and np.array_equal(self.coef, other.coef)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        if self.coef.ndim != 2:
            raise ValueError("coefficient matrix must be 2-D")
        if self.coef.shape[0] != self.table.dimension:
            raise ValueError(
                f"coefficient rows {self.coef.shape[0]} != embedding "
                f"dimension {self.table.dimension}"
            )

    @property
    def tree(self) -> Tree:
        return self.table.tree

    @property
    def n_features(self) -> int:
        return self.coef.shape[1] - 1

    def scores(self, x) -> np.ndarray:
        """Embedded image ``f(x)`` of a single raw feature vector."""
        x = self._features(np.reshape(x, -1))[0]
        return self.coef @ np.concatenate([[1.0], x])

    def score_matrix(self, X) -> np.ndarray:
        """(n, dimension) embedded images of a feature matrix."""
        return _augment(self._features(X)) @ self.coef.T

    def _features(self, X) -> np.ndarray:
        """``X`` as a float matrix, checked for its width and finite entries."""
        X = _as_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"feature row {bad[0]} contains NaN or infinity")
        return X


def decision_values(
    model: LinearModel, x, candidates: Sequence[str]
) -> np.ndarray:
    """Inner products of ``f(x)`` with the candidates' embedded points."""
    f = model.scores(x)
    return np.array([float(f @ model.table.vector(c)) for c in candidates])


def _descend(table: EmbeddingTable, F: np.ndarray) -> np.ndarray:
    """Leaf code the top-down walk reaches for every row of the scores ``F``.

    Walks all rows layer by layer, grouping them by their current node so
    each group costs one small product on that node's block.  Exact ties
    pick the first child in document order, whatever the rest of the batch.
    """
    tree = table.tree
    leaf_codes = tree.leaf_codes
    out = np.empty(F.shape[0], dtype=np.intp)
    groups = [(tree.root, np.arange(F.shape[0]))]
    while groups:
        nxt = []
        for node, idx in groups:
            start, stack = table.sibling_blocks[node]
            choice = np.argmax(F[idx, start : start + stack.shape[1]] @ stack.T, axis=1)
            for j, child in enumerate(tree.children(node)):
                sub = idx[choice == j]
                if child in leaf_codes:
                    out[sub] = leaf_codes[child]
                elif sub.size:
                    nxt.append((child, sub))
        groups = nxt
    return out


def predict_topdown(model: LinearModel, x) -> tuple[str, ...]:
    """Full root-to-leaf path predicted for one feature vector."""
    return predict_paths(model, np.reshape(x, (1, -1)))[0]


def predict_codes(model: LinearModel, X) -> np.ndarray:
    """Predicted leaf codes (positions in ``tree.leaves``) for every row."""
    return _descend(model.table, model.score_matrix(X))


def predict_paths(model: LinearModel, X) -> list[tuple[str, ...]]:
    """Predicted paths for every row of a feature matrix."""
    leaf_paths = model.tree.leaf_paths
    return [leaf_paths[c] for c in predict_codes(model, X).tolist()]


def hierarchy_margin(model: LinearModel, x, path: Sequence[str]) -> float:
    """Smallest inner-product gap defending ``path`` against its siblings.

    Minimum over the path's layers of ``<f(x), xi_true> - <f(x), xi_sib>``
    across all siblings of the path node at that layer.  Positive exactly
    when the top-down walk recovers the path with room to spare.
    """
    pairs = _sibling_pairs(model.tree, model.tree.leaf_codes_of([path]))
    x = model._features(np.reshape(x, -1))
    return float(np.min(_margins(model.coef, model.table, _augment(x), pairs)))


_LOSSES = {
    "linear": lambda u: -u,
    "hinge": lambda u: np.maximum(1.0 - u, 0.0),
}


def per_sample_risk(
    model: LinearModel, dataset: LabeledDataset, loss: str = "linear"
) -> np.ndarray:
    """Per-sample surrogate loss, summed over layers and sibling gaps."""
    if loss not in _LOSSES:
        raise ValueError(f"loss must be one of {sorted(_LOSSES)}, got {loss!r}")
    _check_dataset(model.table, dataset)
    pairs = _sibling_pairs(model.tree, dataset.codes)
    Xa = _augment(model._features(dataset.X))
    losses = _LOSSES[loss](_margins(model.coef, model.table, Xa, pairs))
    return np.bincount(pairs[0], losses, dataset.n)


def surrogate_risk(
    model: LinearModel, dataset: LabeledDataset, loss: str = "linear"
) -> float:
    """Mean surrogate loss over the dataset."""
    return float(np.mean(per_sample_risk(model, dataset, loss)))


def _check_dataset(table: EmbeddingTable, dataset: LabeledDataset) -> None:
    """Reject a dataset on another tree, or whose features turned non-finite."""
    if table.tree != dataset.tree:
        raise ValueError("dataset and embedding table use different trees")
    if not np.all(np.isfinite(dataset.X)):
        raise ValueError("features contain NaN or infinity")


def _check_positive(name: str, *values) -> None:
    """Reject the first of ``values`` that is not positive and finite."""
    for value in values:
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _linear_fitter(
    dataset: LabeledDataset, table: EmbeddingTable, fit_intercept: bool
):
    """Closed-form fitter ``(w, lam, **meta) -> LinearModel`` for sample weights ``w``.

    The weighted linear objective's minimizer is the hinge dual's
    coefficient map (:func:`_coefficients`) at the fixed dual point
    ``alpha = w_i / n`` on every pair of every sample.  Samples of one leaf
    share its pairs, so the map runs on the per-leaf sums of ``w x~ / n``
    with ``alpha = 1`` on the distinct leaves' pairs.
    """
    _check_dataset(table, dataset)
    order = np.argsort(dataset.codes, kind="stable")
    leaves, starts = np.unique(dataset.codes[order], return_index=True)
    Xa = _augment(dataset.X[order])
    if not fit_intercept:
        Xa[:, 0] = 0.0
    leaf, _, true, sib = _sibling_pairs(table.tree, leaves)
    m, ones = len(leaves), np.ones(len(leaf))
    scatter = np.concatenate([true * m + leaf, sib * m + leaf])

    def fit(w, lam, **meta):
        sums = np.add.reduceat((w[order] / dataset.n)[:, None] * Xa, starts)
        coef = _coefficients(table.node_matrix, scatter, ones, sums, lam)
        return LinearModel(coef=coef, table=table, **meta)

    return fit


def train_linear(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    lam: float = 1.0,
    fit_intercept: bool = True,
) -> LinearModel:
    """Closed-form trainer under the linear surrogate ``u -> -u``.

    The ridge-penalized objective is linear in ``A`` plus ``lam * |A|_F**2``,
    so the minimizer is ``A = B / (2 * lam)`` with ``B`` the mean of
    ``(xi_true - xi_sibling) x~^T`` over samples, layers, and siblings.
    ``B`` is formed from the per-leaf feature sums, scattered to nodes
    through the distinct leaves' sibling pairs (:func:`_sibling_pairs`)
    and mapped through :attr:`EmbeddingTable.node_matrix`; descent reads
    :attr:`EmbeddingTable.sibling_blocks`.  ``lam`` rescales ``A`` without
    changing any predicted path.

    With ``fit_intercept=False`` the intercept column of ``X~`` is zeroed,
    which pins the intercept column of ``A`` to zero; because the objective
    separates per column, the result is exactly the constrained minimizer.
    At small sample sizes the free intercept is a pure-noise direction
    under label-balanced designs, so the synthetic benchmarks disable it.
    """
    _check_positive("lam", lam)
    fit = _linear_fitter(dataset, table, fit_intercept)
    return fit(np.ones(dataset.n), lam, loss="linear")


def adaptive_weights(
    model: LinearModel, X, gamma: float | Sequence[float]
) -> np.ndarray:
    """Per-sample weights ``1 / (1 + |f(x)|**gamma)`` in ``(0, 1]``.

    Samples the base linear model maps far from the origin (typically easy
    or outlying ones) are down-weighted; ``gamma`` sharpens the cutoff.
    A sequence of ``gamma`` values, all checked before ``model`` scores
    ``X``, gives one row of weights per value from one scoring pass; each
    row is the power of the norms by that scalar, so it equals the
    one-value result bit for bit.
    """
    scalar = np.ndim(gamma) == 0
    gammas = (gamma,) if scalar else tuple(gamma)
    _check_positive("gamma", *gammas)
    norms = np.linalg.norm(model.score_matrix(X), axis=1)
    rows = [1.0 / (1.0 + norms**g) for g in gammas]
    return rows[0] if scalar else np.array(rows).reshape(len(rows), len(norms))


def train_weighted_linear(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    gamma: float,
    lam: float = 1.0,
    fit_intercept: bool = True,
) -> LinearModel:
    """Two-stage weighted variant of :func:`train_linear`.

    Fits the plain linear model, converts its score norms into adaptive
    weights, and redoes the closed form with per-sample weights.  Constant
    weights reproduce a positively rescaled :func:`train_linear` model,
    hence identical predictions.
    """
    return next(weighted_linear_fits(dataset, table, (gamma,), lam, fit_intercept))[1]


def weighted_linear_fits(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    gammas: Sequence[float],
    lam: float = 1.0,
    fit_intercept: bool = True,
):
    """Yield ``(gamma, weighted-linear model)`` for each of ``gammas``.

    ``lam`` and every gamma are checked before the first fit.  All models
    share one base fit, the :func:`train_linear` model, one scoring pass
    of it on the training features (:func:`adaptive_weights` of the whole
    grid), and one list of sibling pairs over the distinct leaves, so each
    gamma costs its per-leaf sums of ``w x~ / n`` and their scatter to
    nodes mapped through :attr:`EmbeddingTable.node_matrix` (descent reads
    :attr:`EmbeddingTable.sibling_blocks`).
    """
    gammas = tuple(gammas)
    _check_positive("lam", lam)
    _check_positive("gamma", *gammas)
    fit = _linear_fitter(dataset, table, fit_intercept)
    base = fit(np.ones(dataset.n), 1.0, loss="linear")
    weights = np.atleast_2d(adaptive_weights(base, dataset.X, gammas))
    for gamma, w in zip(gammas, weights):
        yield gamma, fit(w, lam, loss="weighted-linear", gamma=gamma)


def _sibling_pairs(
    tree: Tree, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample, parent, true node and sibling of every sibling gap of the samples.

    The package's one list of sibling gaps: one entry per (sample, sibling)
    pair on every layer of the sample's path, samples in order, layers top
    down and siblings in document order; nodes are :meth:`Tree.order_index`
    values.  Siblings are consecutive in node order, so the padded child
    table is each node's first child plus ``0 .. fanout - 1``.
    """
    ancestors = tree.node_ancestors
    up = ancestors[np.arange(tree.q), (ancestors >= 0).sum(axis=1) - 2]
    fanout = np.bincount(up, minlength=tree.q + 1)
    slots = np.arange(fanout.max())
    kids = np.searchsorted(up, np.arange(tree.q + 1))[:, None] + 1 + slots
    kids[slots >= fanout[:, None]] = -1
    path = tree.leaf_ancestors[codes]
    # Past a leaf's own layer the parent is -1, and kids[-1] is the row of
    # the last node in order, a leaf, so such layers contribute no pairs.
    parent, node = path[:, :-1], path[:, 1:]
    sibs = kids[parent]
    sample, layer, slot = np.nonzero((sibs >= 0) & (sibs != node[..., None]))
    return sample, parent[sample, layer], node[sample, layer], sibs[sample, layer, slot]


def _coefficients(V, scatter, alpha, rows, lam) -> np.ndarray:
    """The hinge dual's coefficient map ``(1 / 2 lam) V^T (W rows)`` at ``alpha``.

    ``W`` is the signed ``(nodes, len(rows))`` scatter of ``alpha``: each
    pair adds its ``alpha`` at its true node and subtracts it at its
    sibling, in its owner's column; ``scatter`` holds those flat indices,
    the ``+`` terms first.
    """
    nodes, m = len(V), len(rows)
    W = np.bincount(scatter, np.concatenate([alpha, -alpha]), nodes * m)
    return V.T @ (W.reshape(nodes, m) @ rows) / (2.0 * lam)


def _margins(A, table: EmbeddingTable, Xa, pairs) -> np.ndarray:
    """Gap ``N[i, true] - N[i, sib]`` of each pair; ``N = X~ (V A)^T`` scores nodes."""
    sample, _, true, sib = pairs
    N = Xa @ (table.node_matrix @ A).T
    return N[sample, true] - N[sample, sib]


def _primal(A: np.ndarray, margins: np.ndarray, n: int, lam: float) -> float:
    """Hinge objective at ``A`` from the margins of its ``n`` samples' gaps."""
    return float(np.maximum(1.0 - margins, 0.0).sum()) / n + lam * float(np.vdot(A, A))


def hinge_objective(
    A: np.ndarray, dataset: LabeledDataset, table: EmbeddingTable, lam: float
) -> float:
    """Ridge-penalized mean hinge surrogate at coefficient matrix ``A``."""
    pairs = _sibling_pairs(table.tree, dataset.codes)
    return _primal(A, _margins(A, table, _augment(dataset.X), pairs), dataset.n, lam)


def _dual_steps(
    table: EmbeddingTable, Xa: np.ndarray, codes: np.ndarray, lam: float
) -> np.ndarray:
    """Step ``1 / L_P`` of each parent's block of the hinge dual, by order index.

    ``L_P = |X~_P|_2**2 * max_j |D_{P,j}|_2**2 / (2 * lam)`` bounds the
    curvature of the block: ``X~_P`` holds the rows whose paths cross
    ``P`` and ``D_{P,j}`` the gaps of child ``j`` against its siblings;
    the children form a regular simplex, so every ``D_{P,j}`` has the
    norm of the first child's.
    A block with all-zero rows has constant zero margins, so its dual is
    linear and its infinite step lands on the bound at once.
    """
    tree = table.tree
    ancestors = tree.leaf_ancestors[codes]
    steps = np.zeros(tree.q + 1)
    for parent, (_, stack) in table.sibling_blocks.items():
        P = tree.order_index(parent)
        rows = Xa[ancestors[:, tree.layer(parent) - 1] == P]
        if not len(rows):
            continue
        x2 = np.linalg.norm(rows, 2) ** 2
        d2 = np.linalg.norm(stack[0] - stack[1:], 2) ** 2
        steps[P] = 2.0 * lam / (x2 * d2) if x2 > 0.0 else np.inf
    return steps


HINGE_TOL = 1e-6  # duality gap train_hinge certifies, relative to the objective at A = 0


def train_hinge(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    lam: float,
    max_iter: int = 5000,
    fit_intercept: bool = True,
) -> LinearModel:
    """Hinge-surrogate trainer, certified to a relative duality gap.

    Solves the box-constrained dual: one variable ``0 <= alpha <= 1/n``
    per (sample, sibling) pair, and
    ``A = (1 / 2 lam) sum alpha (xi_true - xi_sibling) x~^T``.  Margins
    come from node scores ``N = X~ (V A)^T`` (``V`` the
    :attr:`EmbeddingTable.node_matrix`) as ``N[i, true] - N[i, sibling]``
    over the pairs of :func:`_sibling_pairs`, and ``A`` from a signed
    node-by-sample scatter of ``alpha`` (:func:`_coefficients`), so no
    pair-by-sample matrix is formed.  Gaps of
    different parents live on disjoint coordinate blocks, so the dual
    separates by parent and each pair steps by ``1 / L_P`` of its own
    block (:func:`_dual_steps`) in one accelerated projected-gradient loop
    (FISTA, restarted whenever the momentum points downhill).

    Stops once the best primal objective is within ``HINGE_TOL`` times
    the objective at ``A = 0`` (the mean number of gaps per sample) of
    the best dual value, which bounds its distance to the optimum.  The
    best primal iterate is returned, and ``history`` holds the incumbent
    primal objective at ``A = 0`` and after each iteration, so it is
    non-increasing.  Reaching ``max_iter`` with the gap still above
    tolerance raises :class:`ConvergenceWarning` with the gap.
    Deterministic: starts from ``alpha = 0``.

    ``fit_intercept=False`` zeroes the intercept column of ``X~``, which
    pins the intercept column of ``A`` to zero.
    """
    _check_positive("lam", lam)
    _check_dataset(table, dataset)
    n = dataset.n
    Xa = _augment(dataset.X)
    if not fit_intercept:
        Xa[:, 0] = 0.0
    V = table.node_matrix
    sample, parent, true, sib = _sibling_pairs(table.tree, dataset.codes)
    nodes = len(V)
    score_true, score_sib = sample * nodes + true, sample * nodes + sib
    scatter = np.concatenate([true * n + sample, sib * n + sample])
    step = _dual_steps(table, Xa, dataset.codes, lam)[parent]

    def solve(alpha):
        """Coefficients and pair margins at the dual point ``alpha``."""
        A = _coefficients(V, scatter, alpha, Xa, lam)
        N = Xa @ (V @ A).T
        return A, N.take(score_true) - N.take(score_sib)

    alpha = y = margins = y_margins = np.zeros(len(sample))
    best_A = np.zeros((table.dimension, Xa.shape[1]))
    best = len(sample) / n  # every slack is 1 at A = 0
    tol, best_dual, t = HINGE_TOL * best, 0.0, 1.0
    history = [best]
    for _ in range(max_iter):
        nxt = np.minimum(np.maximum(y + step * (1.0 - y_margins), 0.0), 1.0 / n)
        A, m = solve(nxt)
        primal = _primal(A, m, n, lam)
        if primal < best:
            best, best_A = primal, A
        best_dual = max(best_dual, float(nxt.sum()) - lam * float(np.vdot(A, A)))
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
    return LinearModel(
        coef=best_A, table=table, loss="hinge", lam=lam, history=np.array(history)
    )


def population_direction(
    path_probs: Mapping[tuple[str, ...], float], table: EmbeddingTable
) -> np.ndarray:
    """Population-optimal score direction under the linear surrogate.

    For a conditional path distribution, sums over paths and layers the
    sibling offsets weighted by the path probability and the sibling-block
    size.  A zero-feature model carrying this vector as its intercept
    column predicts the per-layer conditional argmax path; used as a test
    oracle for the trainers.
    """
    tree = table.tree
    probs = dict(path_probs)
    total = 0.0
    for path, prob in probs.items():
        if not 0.0 <= prob < np.inf:
            raise ValueError(f"invalid probability {prob} for path {path!r}")
        if not tree.is_path(path):
            raise ValueError(f"{path!r} is not a root-to-leaf path of the tree")
        total += prob
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"path probabilities sum to {total}, expected 1")
    v = np.zeros(table.dimension)
    for path, prob in probs.items():
        for parent, node in zip(path, path[1:]):
            v += prob * len(tree.children(parent)) * table.offset(node)
    return v


MODEL_FORMAT = "labeltree-linear-model/1"
_MODEL_KEYS = (
    "tree_sha256", "base_norm", "decay", "loss", "gamma", "lambda",
    "dimension", "n_features", "coef",
)


def save_model(model: LinearModel, path) -> None:
    """Serialize a model to JSON; floats round-trip exactly.

    The text is what ``json.dump(doc, fh, indent=2)`` writes, with the
    ``coef`` list laid out by the same helper as the embedding export.
    """
    head = {
        "format": MODEL_FORMAT,
        "tree_sha256": model.tree.sha256(),
        "base_norm": model.table.base_norm,
        "decay": model.table.decay,
        "loss": model.loss,
        "gamma": model.gamma,
        "lambda": model.lam,
        "dimension": model.table.dimension,
        "n_features": model.n_features,
    }
    coef = _json_float_list(model.coef.ravel(order="C"), 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in head.items():
            fh.write(f"  {json.dumps(key)}: {json.dumps(value)},\n")
        fh.write(f'  "coef": {coef}\n}}\n')


def load_model(path, tree: Tree) -> LinearModel:
    """Load a model saved by :func:`save_model` and bind it to ``tree``.

    The tree must hash to the value recorded at save time; the embedding
    is rebuilt from the stored parameters, so predictions reproduce the
    original model's bit for bit.  A file that is not such a model, of
    another tree, or with coefficients that are not all finite raises a
    :class:`ValueError` naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model file holds a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: unrecognized model format {doc.get('format')!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ValueError(f"{path}: model file lacks {', '.join(missing)}")
    if doc["tree_sha256"] != tree.sha256():
        raise ValueError(f"{path}: model was trained on a different tree")
    try:
        table = embed_tree(tree, base_norm=doc["base_norm"], decay=doc["decay"])
        width = doc["n_features"] + 1
        coef = np.array(doc["coef"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if doc["dimension"] != table.dimension or coef.size != table.dimension * width:
        raise ValueError(
            f"{path}: coefficients are {doc['dimension']} x {width} in "
            f"{coef.size} entries, expected {table.dimension} x {width}"
        )
    coef = coef.reshape(table.dimension, width)
    if not np.all(np.isfinite(coef)):
        raise ValueError(f"{path}: model coefficients contain NaN or infinity")
    return LinearModel(
        coef=coef,
        table=table,
        loss=doc["loss"],
        gamma=doc["gamma"],
        lam=doc["lambda"],
    )
