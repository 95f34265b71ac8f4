"""Top-down linear classifiers over embedded taxonomy labels.

A model is a coefficient matrix ``A`` mapping an augmented feature vector
``(1, x)`` to a point ``f(x)`` in the embedding space.  Prediction walks
the tree from the root, at each layer descending into the child whose
embedded point has the largest inner product with ``f(x)`` (equivalently,
the smallest Euclidean distance, since siblings share a norm), comparing
siblings on their parent's block only, so exact ties go to the first child.

Training minimizes a per-layer surrogate over sibling gaps
``<f(x), xi_true> - <f(x), xi_sibling>``.  Under the linear surrogate
``u -> -u`` (optionally with per-sample weights) the ridge-penalized
minimizer has a closed form; the hinge surrogate is solved by full-batch
subgradient descent.
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
    """The iterative solver stopped at its iteration budget."""


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
    history: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape[0]}"
            )
        return self.coef @ np.concatenate([[1.0], x])

    def score_matrix(self, X) -> np.ndarray:
        """(n, dimension) embedded images of a feature matrix."""
        X = _as_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"feature row {bad[0]} contains NaN or infinity")
        return _augment(X) @ self.coef.T


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
    D, _ = _hinge_terms(model.table, model.tree.leaf_codes_of([path]))
    return float(np.min(D @ model.scores(x)))


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
    _check_compatible(model.table, dataset)
    D, mask = _hinge_terms(model.table, dataset.codes)
    gaps = D @ model.score_matrix(dataset.X).T
    return np.where(mask, _LOSSES[loss](gaps), 0.0).sum(axis=0)


def surrogate_risk(
    model: LinearModel, dataset: LabeledDataset, loss: str = "linear"
) -> float:
    """Mean surrogate loss over the dataset."""
    return float(np.mean(per_sample_risk(model, dataset, loss)))


def _check_compatible(table: EmbeddingTable, dataset: LabeledDataset) -> None:
    if table.tree != dataset.tree:
        raise ValueError("dataset and embedding table use different trees")


def _closed_form(table, U, Xa, lam, fit_intercept, **meta) -> LinearModel:
    """Model ``-B / (2 * lam)``, ``B`` the mean of ``U[i] Xa[i]^T``."""
    B = U.T @ Xa / Xa.shape[0]
    if not fit_intercept:
        B[:, 0] = 0.0
    return LinearModel(coef=-B / (2.0 * lam), table=table, **meta)


def train_linear(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    lam: float = 1.0,
    fit_intercept: bool = True,
) -> LinearModel:
    """Closed-form trainer under the linear surrogate ``u -> -u``.

    The ridge-penalized objective is linear in ``A`` plus ``lam * |A|_F**2``,
    so the minimizer is ``A = -B / (2 * lam)`` with ``B`` the mean of
    ``(xi_sibling - xi_true) x~^T`` over samples, layers, and siblings.
    ``lam`` rescales ``A`` without changing any predicted path.

    With ``fit_intercept=False`` the intercept column is pinned to zero;
    because the objective separates per column, the result is exactly the
    constrained minimizer.  At small sample sizes the free intercept is a
    pure-noise direction under label-balanced designs, so the synthetic
    benchmarks disable it.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    _check_compatible(table, dataset)
    if not np.all(np.isfinite(dataset.X)):
        raise ValueError("features contain NaN or infinity")
    Xa, U = _augment(dataset.X), table.sibling_differences[dataset.codes]
    return _closed_form(table, U, Xa, lam, fit_intercept, loss="linear")


def adaptive_weights(model: LinearModel, X, gamma: float) -> np.ndarray:
    """Per-sample weights ``1 / (1 + |f(x)|**gamma)`` in ``(0, 1]``.

    Samples the base linear model maps far from the origin (typically easy
    or outlying ones) are down-weighted; ``gamma`` sharpens the cutoff.
    """
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return 1.0 / (1.0 + np.linalg.norm(model.score_matrix(X), axis=1) ** gamma)


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

    All models share one base fit, so each gamma costs its weights and
    one product.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    base = train_linear(dataset, table, fit_intercept=fit_intercept)
    U = table.sibling_differences[dataset.codes]
    Xa = _augment(dataset.X)
    for gamma in gammas:
        w = adaptive_weights(base, dataset.X, gamma)
        yield gamma, _closed_form(
            table, w[:, None] * U, Xa, lam, fit_intercept,
            loss="weighted-linear", gamma=gamma,
        )


def _hinge_terms(
    table: EmbeddingTable, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Difference stack and ownership mask of the samples' sibling gaps.

    Returns a ``(terms, dimension)`` stack of ``xi_true - xi_sibling``
    rows, one block per distinct leaf code in ``codes``, and a boolean
    ``(terms, n)`` mask marking which samples carry each row.
    """
    rows, owners = [], []
    for code in np.unique(codes).tolist():
        for start, stack, j in table.sibling_terms(code):
            D = np.zeros((len(stack) - 1, table.dimension))
            D[:, start : start + stack.shape[1]] = stack[j] - np.delete(stack, j, 0)
            rows.append(D)
            owners += [code] * len(D)
    return np.concatenate(rows), np.array(owners)[:, None] == codes


def hinge_objective(
    A: np.ndarray, dataset: LabeledDataset, table: EmbeddingTable, lam: float
) -> float:
    """Ridge-penalized mean hinge surrogate at coefficient matrix ``A``."""
    D, mask = _hinge_terms(table, dataset.codes)
    margins = D @ A @ _augment(dataset.X).T
    slack = np.where(mask, np.maximum(1.0 - margins, 0.0), 0.0)
    return float(slack.sum()) / dataset.n + lam * float(np.sum(A * A))


def train_hinge(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    lam: float,
    max_iter: int = 5000,
    tol: float = 1e-8,
    patience: int = 50,
    fit_intercept: bool = True,
) -> LinearModel:
    """Hinge-surrogate trainer by full-batch subgradient descent.

    Deterministic: starts from zero and takes constant steps
    ``1 / (L + 2 * lam * n)`` where ``L`` is the mean over samples of
    ``|x~| * sum_terms |xi_true - xi_sibling|``, a data-driven bound on the
    data-term subgradient scale.  The incumbent best iterate is tracked
    and returned, so the recorded objective history is non-increasing.
    Stops once the incumbent objective improves by less than ``tol``
    (relatively) for ``patience`` consecutive iterations; hitting
    ``max_iter`` first raises :class:`ConvergenceWarning` with the final
    objective.

    ``fit_intercept=False`` pins the intercept column to zero (projected
    subgradient on that subspace).
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    _check_compatible(table, dataset)
    Xa = _augment(dataset.X)
    D, mask = _hinge_terms(table, dataset.codes)
    n = dataset.n

    row_norm = np.linalg.norm(Xa, axis=1)
    diff_scale = mask.T @ np.linalg.norm(D, axis=1)
    L = float(np.mean(row_norm * diff_scale))
    step = 1.0 / (L + 2.0 * lam * n)

    A = np.zeros((table.dimension, Xa.shape[1]))
    best_A = A.copy()
    best_obj = hinge_objective(A, dataset, table, lam)
    history = [best_obj]
    stalled = 0
    converged = False
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
            stalled = 0 if gain > tol else stalled + 1
        else:
            stalled += 1
        history.append(best_obj)
        if stalled >= patience:
            converged = True
            break
        A = A - step * grad
    if not converged:
        warnings.warn(
            f"hinge solver hit the {max_iter}-iteration budget; "
            f"final objective {best_obj:.8g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return LinearModel(
        coef=best_A,
        table=table,
        loss="hinge",
        lam=lam,
        history=np.array(history),
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
    original model's bit for bit.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unrecognized model format {doc.get('format')!r}")
    if doc["tree_sha256"] != tree.sha256():
        raise ValueError("model was trained on a different tree")
    table = embed_tree(tree, base_norm=doc["base_norm"], decay=doc["decay"])
    coef = np.array(doc["coef"], dtype=float).reshape(
        doc["dimension"], doc["n_features"] + 1
    )
    return LinearModel(
        coef=coef,
        table=table,
        loss=doc["loss"],
        gamma=doc["gamma"],
        lam=doc["lambda"],
    )
