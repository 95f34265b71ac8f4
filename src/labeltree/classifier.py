"""Top-down linear classifiers over embedded taxonomy labels.

A model is a coefficient matrix ``A`` mapping an augmented feature vector
``(1, x)`` to a point ``f(x)`` in the embedding space.  Prediction walks
the tree from the root, at each layer descending into the child whose
embedded point has the largest inner product with ``f(x)`` (equivalently,
the nearest one, since siblings share a norm).  Siblings share their
parent's vector, so the walk compares their offsets only, through the
child coefficients ``C = O A`` (:func:`_child_coefs`): child ``j`` scores
``x~ . C_j``, and a parent's rows of ``C`` are its offset stack
(:attr:`EmbeddingTable.sibling_blocks`) times its block of ``A``, formed
as the walk reaches it.  A zero block of ``A`` scores every child exactly
0, so exact ties go to the first child.  Tuning (:func:`select_gamma`,
:func:`select_lambda`) scores each validation row on its true path only
(:func:`_validation_errors`).

Training minimizes a per-layer surrogate over sibling gaps
``<f(x), xi_true> - <f(x), xi_sibling>``, listed once by
:func:`_sibling_pairs`: a gap is ``N[i, true] - N[i, sibling]`` of the
offset scores ``N = X~ C^T``.  Both trainers form node rows ``B`` and take
``A = O^T B / 2 lam`` (:func:`_coefs_from_nodes`), one batched product per
run of parents sharing a stack (:attr:`EmbeddingTable.sibling_runs`).  The
linear surrogate ``u -> -u`` (optionally with per-sample weights) has a
closed form from subtree sums (:func:`_closed_form`).  The hinge surrogate
is solved through its box-constrained dual by a primal-dual interior-point
method (Mehrotra predictor-corrector, :mod:`labeltree.dual`), whose Newton
matrix is solved parent block by parent block, a whole lambda grid in
lockstep (:func:`hinge_fits`), until a duality gap certifies each fit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from .dual import HINGE_TOL, _packs, lockstep
from .embedding import EmbeddingTable, embed_tree
from .hierarchy import Tree

__all__ = [
    "LabeledDataset",
    "LinearModel",
    "ConvergenceWarning",
    "predict_topdown",
    "predict_paths",
    "per_sample_risk",
    "train_linear",
    "adaptive_weights",
    "train_weighted_linear",
    "train_hinge",
    "hinge_fits",
    "select_gamma",
    "select_lambda",
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


class LabeledDataset:
    """Feature matrix plus leaf labels tied to a taxonomy.

    ``X`` has one row per sample, zero columns for intercept-only models;
    ``labels`` are leaf ids of ``tree``, stored as their leaf ``codes``.
    """

    def __init__(self, X: np.ndarray, labels: Sequence[str], tree: Tree):
        X, labels = _as_matrix(X), tuple(labels)
        if X.shape[0] != len(labels):
            raise ValueError(f"{X.shape[0]} feature rows but {len(labels)} labels")
        if X.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain NaN or infinity")
        leaf_codes = tree.leaf_codes
        try:
            codes = np.array([leaf_codes[label] for label in labels])
        except KeyError as exc:
            label = exc.args[0]
            raise ValueError(f"label {label!r} is not a leaf of the tree") from None
        self.X, self.codes, self.tree = X, codes, tree

    @classmethod
    def _of_codes(cls, X: np.ndarray, codes: np.ndarray, tree: Tree) -> "LabeledDataset":
        """A dataset of the leaves of ``codes``.

        Unchecked: ``X`` must be a finite float matrix with one row per code,
        as the public constructor would leave it, and ``codes`` int64.
        """
        data = cls.__new__(cls)
        data.X, data.codes, data.tree = X, codes, tree
        return data

    def _rows(self, rows: slice) -> "LabeledDataset":
        """The samples of ``rows``, as views of this dataset's arrays."""
        return self._of_codes(self.X[rows], self.codes[rows], self.tree)

    def __eq__(self, other: object) -> bool:
        # leaves ``__hash__ = None``: datasets are mutable
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.tree == other.tree
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.X, other.X)
        )

    @property
    def labels(self) -> tuple[str, ...]:
        """Leaf id of each sample."""
        leaves = self.tree.leaves
        return tuple([leaves[c] for c in self.codes.tolist()])

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
            other.table, other.loss, other.gamma, other.lam
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


def _child_coefs(table: EmbeddingTable, A: np.ndarray) -> np.ndarray:
    """Child coefficients ``C = O A``, ``(q + 1, w)`` rows by order index.

    ``O`` holds each node's offset from its parent, so two siblings' score
    gap ``<A x~, v_j - v_k>`` is ``x~ . (C_j - C_k)``.  A parent's children
    are consecutive rows and their offsets live on its block, so a run of
    parents sharing a stack costs one batched product of the stack with
    their blocks of ``A``.  A zero block of ``A`` gives exactly zero rows.
    """
    w = A.shape[1]
    C = np.zeros((table.tree.q + 1, w))  # the root's row stays zero
    for parents, kids, block, stack in table.sibling_runs:
        k, (f, d) = len(parents), stack.shape
        np.matmul(stack, A[block].reshape(k, d, w), out=C[kids].reshape(k, f, w))
    return C


def _coefs_from_nodes(table: EmbeddingTable, B: np.ndarray) -> np.ndarray:
    """``A = O^T B``, the transpose of :func:`_child_coefs`; ``B[0]`` is not read."""
    w = B.shape[1]
    A = np.empty((table.dimension, w))
    for parents, kids, block, stack in table.sibling_runs:
        k, (f, d) = len(parents), stack.shape
        np.matmul(stack.T, B[kids].reshape(k, f, w), out=A[block].reshape(k, d, w))
    return A


def _closed_form(table: EmbeddingTable, leaves, sums: np.ndarray) -> np.ndarray:
    """``O^T (f T)``, ``T`` the subtree sums of ``sums`` on leaf codes ``leaves``.

    ``f`` is each node's parent's fan-out.  Reversed, the runs reach every
    child before its parent; a run scales its children once it has summed them.
    """
    B = np.zeros((table.tree.q + 1, sums.shape[1]))
    B[np.flatnonzero(table.tree.node_fanouts == 0)[leaves]] = sums
    for parents, kids, _, stack in reversed(table.sibling_runs):
        B[parents] = B[kids].reshape(len(parents), len(stack), B.shape[1]).sum(axis=1)
        B[kids] *= len(stack)
    return _coefs_from_nodes(table, B)


def _descend(table: EmbeddingTable, Xa: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Leaf codes ``(n,)`` the top-down walk reaches under coefficients ``A``.

    Row ``i`` moves to the child ``j`` maximizing ``Xa[i] . C_j`` of the
    child coefficients ``C = O A`` (:func:`_child_coefs`), one product a
    node; exact ties pick the first child.  A leaf's code is its rank
    among the leaves in node order.
    """
    tree = table.tree
    first, fanout = tree.first_children.tolist(), tree.node_fanouts.tolist()
    out = np.empty(len(Xa), dtype=np.intp)
    groups = [(0, np.arange(len(Xa)))]
    while groups:
        nxt = []
        for node, rows in groups:
            start, stack = table.sibling_blocks[node]
            C = stack @ A[start : start + fanout[node] - 1]
            choice = np.argmax((Xa[rows] if node else Xa) @ C.T, axis=1)
            for j in range(fanout[node]):
                child, sub = first[node] + j, rows[choice == j]
                if not fanout[child]:
                    out[sub] = child
                elif sub.size:
                    nxt.append((child, sub))
        groups = nxt
    return (np.cumsum(tree.node_fanouts == 0) - 1)[out]


def _validation_errors(
    table: EmbeddingTable, Xa: np.ndarray, codes: np.ndarray, A: np.ndarray
) -> np.ndarray:
    """Zero-one loss ``(G,)`` of each model in ``A`` on rows ``Xa`` of leaves ``codes``.

    A row is right exactly when each node on its true path picks its true
    child.  Sorted by true path, a node's rows are one run, scored against
    every model's child coefficients, ``_grid_batch(rows fanout)`` models a
    product; a node every row reaches reads ``Xa`` in place.  Ties go as in
    :func:`_descend`: each loss is its descent's, bit for bit.
    """
    path = table.tree.leaf_ancestors[codes]
    order, first = np.lexsort(path.T[::-1]), table.tree.first_children
    n, G = len(Xa), len(A)
    wrong = np.zeros((n, G), dtype=bool)
    for t, node in enumerate(path[order].T[:-1]):
        cuts = np.flatnonzero(np.diff(node, prepend=-2, append=-2)).tolist()
        for a, b in zip(cuts, cuts[1:]):
            if path[order[a], t + 1] < 0:  # rows at or past their leaf
                continue
            rows = order[a:b] if b - a < n else slice(None)
            start, stack = table.sibling_blocks[node[a]]
            f = len(stack)
            C = (stack @ A[:, start : start + f - 1]).reshape(G * f, -1)
            X, true = Xa[rows], path[rows, t + 1, None] - first[node[a]]
            step = _grid_batch((b - a) * f)
            for g in range(0, G, step):
                S = (X @ C[g * f : (g + step) * f].T).reshape(b - a, -1, f)
                pick = S[..., 1] > S[..., 0] if f == 2 else S.argmax(axis=2)
                wrong[rows, g : g + step] |= pick != true
    return wrong.mean(axis=0)


def predict_topdown(model: LinearModel, x) -> tuple[str, ...]:
    """Full root-to-leaf path predicted for one feature vector."""
    return predict_paths(model, np.reshape(x, (1, -1)))[0]


def predict_codes(model: LinearModel, X) -> np.ndarray:
    """Predicted leaf codes (positions in ``tree.leaves``) for every row.

    :func:`_descend`: it holds the augmented features and one node's
    child coefficients at a time, never an ``(n, dimension)`` score matrix.
    """
    return _descend(model.table, _augment(model._features(X)), model.coef)


def predict_paths(model: LinearModel, X) -> list[tuple[str, ...]]:
    """Predicted paths for every row of a feature matrix."""
    leaf_paths = model.tree.leaf_paths
    return [leaf_paths[c] for c in predict_codes(model, X).tolist()]


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
    sample, _, true, sib = _sibling_pairs(model.tree, dataset.codes)
    # each gap is N[i, true] - N[i, sib] of the offset scores N = X~ C^T
    N = _augment(model._features(dataset.X)) @ _child_coefs(model.table, model.coef).T
    return np.bincount(sample, _LOSSES[loss](N[sample, true] - N[sample, sib]), dataset.n)


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


_GRID_FLOATS = 2**16  # floats of a chunk's node rows, a pass's coefs or scores
_LEAF_SLACK = 1.25  # padded rows of the leaf-sum layout, at most this times the samples


def _grid_batch(floats: int) -> int:
    """Tuning-grid models a batch takes at ``floats`` floats each (at least 1)."""
    return max(1, _GRID_FLOATS // floats)


def _linear_fitter(dataset: LabeledDataset, table: EmbeddingTable, fit_intercept: bool):
    """Closed-form fitter ``(W, lam) -> (G, dimension, p + 1)``, one model a row of ``W``.

    The weighted linear objective's minimizer is ``A = O^T B / 2 lam``
    with ``B[v] = f_P T[v]`` (:func:`_closed_form`): ``T[v]`` sums ``w x~ / n``
    over the samples under ``v`` and ``f_P`` is the fan-out of its parent.
    A sample's gaps at ``P`` put ``(f_P - 1) x~`` at its node and ``-x~`` at
    each sibling, which adds ``-T[P]`` to every child's row; stacks are
    centred, so that share maps to zero and no pair list is needed.

    The samples are laid out once, by leaf and padded with zero rows:
    leaves of similar sample counts share one ``(L, m, p + 1)`` array,
    packed by :func:`labeltree.dual._packs` so the padding adds at most
    a quarter to the rows.  A pack's per-leaf sums for every row of ``W``
    are one ``einsum`` with the ``(G, L, m)`` layout of ``W``, and all
    ``G (p + 1)`` columns one :func:`_closed_form`.  The ``einsum`` adds
    a leaf's samples in one order whatever ``G`` is, where a batched
    ``matmul`` would not, so a row's sums do not depend on the others.
    """
    _check_dataset(table, dataset)
    n, order = dataset.n, np.argsort(dataset.codes, kind="stable")
    leaves, starts, counts = np.unique(dataset.codes[order], return_index=True, return_counts=True)
    sorted_rows, sizes = np.append(order, n), counts.tolist()  # row n pads
    runs = _packs(range(len(sizes)), sizes.__getitem__, _LEAF_SLACK)
    packs = []
    for run in runs:
        slots = np.arange(sizes[run[-1]])
        rows = sorted_rows[np.where(slots < counts[run, None], starts[run, None] + slots, n)]
        X, real = np.zeros((*rows.shape, dataset.p + 1)), rows < n
        X[real, 0] = fit_intercept
        X[real, 1:] = dataset.X[rows[real]]
        packs.append((rows, X))
    leaves = leaves[np.concatenate(runs)]

    def fit(W, lam):
        W, sums, a = W / n, np.empty((len(leaves), len(W), dataset.p + 1)), 0
        for rows, X in packs:  # a padding slot clips to the last weight, times a zero row
            Wp = np.take(W, rows, axis=1, mode="clip")
            np.einsum("glm,lmp->lgp", Wp, X, out=sums[a : a + len(rows)])
            a += len(rows)
        A = _closed_form(table, leaves, sums.reshape(len(leaves), -1))
        return np.ascontiguousarray(A.reshape(len(A), len(W), -1).swapaxes(0, 1)) / (2.0 * lam)

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
    ``B`` comes from per-leaf feature sums (:func:`_linear_fitter`, every
    weight 1).  ``lam`` rescales ``A`` without changing any predicted path.

    With ``fit_intercept=False`` the intercept column of ``X~`` is zeroed,
    which pins the intercept column of ``A`` to zero; because the objective
    separates per column, the result is exactly the constrained minimizer.
    At small sample sizes the free intercept is a pure-noise direction
    under label-balanced designs, so the synthetic benchmarks disable it.
    """
    _check_positive("lam", lam)
    coef = _linear_fitter(dataset, table, fit_intercept)(np.ones((1, dataset.n)), lam)[0]
    return LinearModel(coef, table, "linear")


def adaptive_weights(
    model: LinearModel, X, gamma: float | Sequence[float]
) -> np.ndarray:
    """Per-sample weights ``1 / (1 + |f(x)|**gamma)`` in ``(0, 1]``.

    Samples the base linear model maps far from the origin (typically easy
    or outlying ones) are down-weighted; ``gamma`` sharpens the cutoff.
    ``|f(x)|**2 = x~^T M x~`` is read from the ``(p + 1)**2`` Gram ``M =
    A^T A``, never from an ``(n, dimension)`` score matrix, and clamped
    at 0 against rounding before its square root; ``x~ = (1, x)`` is not
    formed, so the pass holds one feature-sized temporary.  A sequence
    of ``gamma`` values, all checked before ``X``, gives one row of
    weights per value from one pass over ``X``; each row is the power of
    the norms by that scalar, so it equals the one-value result bit for
    bit.
    """
    scalar = np.ndim(gamma) == 0
    gammas = (gamma,) if scalar else tuple(gamma)
    _check_positive("gamma", *gammas)
    X, M = model._features(X), model.coef.T @ model.coef
    squares = X @ M[1:, 1:]
    squares *= X
    squares = squares.sum(axis=1) + (2.0 * (X @ M[1:, 0]) + M[0, 0])
    norms = np.sqrt(np.maximum(squares, 0.0))
    rows = np.empty((len(gammas), len(norms)))
    for row, g in zip(rows, gammas):
        row[:] = 1.0 / (1.0 + norms**g)
    return rows[0] if scalar else rows


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
    share the base fit, the :func:`train_linear` model, one pass of its
    Gram over the features (:func:`adaptive_weights` of the whole grid)
    and one padded layout of the samples by leaf (:func:`_linear_fitter`).
    A chunk of ``_grid_batch((q + 1) (p + 1))`` gammas, sized by the node
    rows its :func:`_closed_form` holds, costs one leaf-sum ``einsum`` a
    pack and one :func:`_closed_form`.  A gamma's leaf sums do not depend
    on its chunk, so its model equals its one-gamma fit bit for bit
    wherever the closed form's batched products round a column alike at
    every width (README: not at every ``p`` under fan-out 2).
    """
    gammas = tuple(gammas)
    _check_positive("lam", lam)
    _check_positive("gamma", *gammas)
    fit = _linear_fitter(dataset, table, fit_intercept)
    base = LinearModel(fit(np.ones((1, dataset.n)), 1.0)[0], table, "linear")
    weights = np.atleast_2d(adaptive_weights(base, dataset.X, gammas))
    del base  # the fits need only its weights
    size = _grid_batch((table.tree.q + 1) * (dataset.p + 1))
    for i in range(0, len(gammas), size):
        for gamma, coef in zip(gammas[i : i + size], fit(weights[i : i + size], lam)):
            yield gamma, LinearModel(coef, table, "weighted-linear", gamma=gamma)


def _sibling_pairs(
    tree: Tree, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample, parent, true node and sibling of every sibling gap of the samples.

    The package's one list of sibling gaps: one entry per (sample, sibling)
    pair on every layer of the sample's path, samples in order, layers top
    down and siblings in document order; nodes are order indices
    (positions in :attr:`Tree.nodes`).  Siblings are consecutive in node
    order, so the padded child table is each node's first child plus
    ``0 .. fanout - 1``.
    """
    fanout = tree.node_fanouts
    slots = np.arange(fanout.max())
    kids = tree.first_children[:, None] + slots
    kids[slots >= fanout[:, None]] = -1
    path = tree.leaf_ancestors[codes]
    # Past a leaf's own layer the parent is -1, and kids[-1] is the row of
    # the last node in order, a leaf, so such layers contribute no pairs.
    parent, node = path[:, :-1], path[:, 1:]
    sibs = kids[parent]
    sample, layer, slot = np.nonzero((sibs >= 0) & (sibs != node[..., None]))
    return sample, parent[sample, layer], node[sample, layer], sibs[sample, layer, slot]


def _sibling_scale(table: EmbeddingTable) -> np.ndarray:
    """``kappa_P = r_P**2 f_P / (f_P - 1)`` of each node's parent ``P`` (root: 0).

    ``P``'s stack is a centred regular simplex of norm ``r_P``, so its Gram is
    ``kappa_P (I - J / f_P)`` and ``O O^T G = kappa * G`` for node rows ``G``
    that sum to zero over every sibling block.
    """
    parents, layers = table.tree.node_parents[1:], table.tree.node_layers[1:]
    f, r = table.tree.node_fanouts[parents], np.array(table.layer_norms)[layers - 2]
    return np.concatenate([[0.0], r * r * f / (f - 1)])


def _check_iterations(max_iter) -> None:
    """Reject an iteration budget that is not an integer of at least 1."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def hinge_fits(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    lams: Sequence[float],
    max_iter: int = 100,
    fit_intercept: bool = True,
):
    """Yield ``(lam, hinge model)`` for each of ``lams``, in ascending order.

    The grid counterpart of :func:`train_hinge`, its one-point call; each
    model is the fit :func:`train_hinge` describes.  Every lambda,
    ``max_iter`` and the dataset are checked before the first fit.

    The grid is fitted in lockstep (:func:`labeltree.dual.lockstep`).
    The sibling pairs, ``X~`` and each parent block's Newton structure
    (pair-space pattern or gap rows) are built once.  Each round takes one
    interior-point step of every lambda still running: small parent blocks
    are packed, a pack's Newton systems for all those lambdas one stacked
    ``np.linalg.solve``; larger blocks are solved one lambda at a time, so
    the grid holds one lambda's large matrices at a time.  A lambda that
    certifies takes its final clipped step in the next round and leaves;
    ``history``, the ``max_iter`` budget, the singular-matrix exit and the
    :class:`ConvergenceWarning`, naming the lambda, are per lambda.
    Margins are formed parent by parent (``Q alpha`` of a pack, ``X~_P
    C_P^T`` of a large parent ``P``), never as an ``(n, q + 1)`` matrix.
    A zero intercept column (``fit_intercept=False``) is left out of
    every product.
    """
    lams = sorted(lams)
    _check_positive("lam", *lams)
    _check_iterations(max_iter)
    _check_dataset(table, dataset)
    if not lams:
        return
    Xa = _augment(dataset.X)
    if not fit_intercept:
        Xa[:, 0] = 0.0
    # a zero intercept column adds nothing to any product, so the solver drops it
    cols = slice(1, None) if not fit_intercept and dataset.p else slice(None)
    nodes, history, stops, best, gaps, tol = lockstep(
        table, Xa[:, cols], _sibling_pairs(table.tree, dataset.codes), _sibling_scale(table),
        lams, max_iter,
    )
    for r, lam in enumerate(lams):
        if stops[r]:
            warnings.warn(
                f"hinge solver at lambda={float(lam)!r} hit {stops[r]}; duality gap "
                f"{gaps[r]:.3g} above tolerance {tol:.3g}, objective {best[r]:.8g}",
                ConvergenceWarning,
                stacklevel=2,
            )
        G = np.zeros((table.tree.q + 1, dataset.p + 1))
        G[:, cols] = nodes(r)
        A = _coefs_from_nodes(table, G) / (2.0 * lam)
        yield lam, LinearModel(A, table, "hinge", lam=lam, history=np.array(history[r]))


def train_hinge(
    dataset: LabeledDataset,
    table: EmbeddingTable,
    lam: float,
    max_iter: int = 100,
    fit_intercept: bool = True,
) -> LinearModel:
    """Hinge-surrogate trainer, certified to a relative duality gap.

    The one-point :func:`hinge_fits`.  Solves the box-constrained dual:
    one variable ``0 <= alpha <= u = 1/n`` per (sample, sibling) pair, and
    ``A = O^T G / 2 lam`` with ``G`` the node rows of ``alpha``: a pair puts
    ``+-alpha x~`` on two siblings, so ``G`` sums to zero over every
    sibling block and ``C = O A`` is ``kappa * G / 2 lam``
    (:func:`_sibling_scale`).  The dual is the QP ``min alpha^T Q alpha /
    2 - sum(alpha)``, whose gradient is the margins of the pairs of
    :func:`_sibling_pairs` minus 1, and ``|A|**2 = alpha^T Q alpha / 2
    lam``; gaps of different parents live on disjoint coordinate blocks,
    so ``Q`` is block-diagonal by parent and the margins are formed
    parent by parent.  ``A`` is formed once, at the end.

    The first iteration probes ``alpha = u``, the optimum once ``lam`` is
    large.  The others are Mehrotra predictor-corrector steps of a
    primal-dual interior-point method started at the box centre, each
    going ``STEP_FRACTION`` of the way to the boundary; their number
    barely grows as ``lam`` shrinks.  Each solves the Newton matrix ``Q +
    diag(sig)`` block by block, in pair space or coefficient space,
    whichever is smaller (:mod:`labeltree.dual`).

    Stops once the best primal objective is within ``HINGE_TOL`` times
    the objective at ``A = 0`` (the mean number of gaps per sample) of
    the best dual value, which bounds its distance to the optimum.  The
    iterates approach the optimum from inside the box, so a certified one
    takes one more step, without centring and clipped onto the box, which
    is scored like an iterate: at small ``lam`` it brings the coefficients
    several times closer to the optimum's.  The best primal point is
    returned, and ``history`` holds the incumbent primal objective at
    ``A = 0`` and after each iteration, so it is non-increasing.  Running
    out of ``max_iter`` iterations (an integer of at least 1, else
    :class:`ValueError`), or meeting a numerically singular Newton matrix,
    with the gap still above tolerance raises :class:`ConvergenceWarning`
    naming ``lam`` and giving the gap.  Deterministic.

    ``fit_intercept=False`` zeroes the intercept column of ``X~``, which
    pins the intercept column of ``A`` to zero.
    """
    return next(hinge_fits(dataset, table, (lam,), max_iter, fit_intercept))[1]


def _select(
    name: str, table, fits, val: LabeledDataset | None, grid
) -> tuple[float, LinearModel]:
    """Pick the ``(value, model)`` of ``fits`` minimizing validation zero-one loss.

    ``fits`` yields one pair per value of ``grid`` in ascending order, and
    only strict improvements move the incumbent, so ties resolve to the
    smaller value.  A one-point grid needs no validation set; any other is
    checked to be labeled on ``table``'s tree before the first fit.  The
    validation features are checked and augmented once, for the first
    model; every model of the grid shares their width and ``table``.

    Fits are drawn in passes of ``max(n_val // dim, _grid_batch(dim (p +
    1)))`` models, so a pass's stack of ``(dim, p + 1)`` coefficient
    matrices is no larger than the validation features or than
    ``classifier._GRID_FLOATS`` floats.  Each pass costs one
    :func:`_validation_errors`, on the rows' true paths; only the incumbent
    outlives it.
    """
    if not len(grid):
        raise ValueError(f"{name} grid is empty")
    if len(grid) == 1:
        return next(iter(fits))
    if val is None:
        raise ValueError(f"{name} selection needs a validation set")
    _check_dataset(table, val)
    size = max(val.n // table.dimension, _grid_batch(table.dimension * (val.p + 1)))
    fits = iter(fits)
    best = Xa = None
    while batch := list(islice(fits, size)):
        if Xa is None:
            Xa = _augment(batch[0][1]._features(val.X))
        A = np.stack([model.coef for _, model in batch])
        errs = _validation_errors(table, Xa, val.codes, A)
        i = int(np.argmin(errs))  # the first of equal errors: the smaller value
        if best is None or errs[i] < best[0]:
            best = (errs[i], *batch[i])
        del A, batch  # only the incumbent outlives its pass
    return best[1], best[2]


def select_gamma(
    train, val, table, grid, fit_intercept: bool = True
) -> tuple[float, LinearModel]:
    """Pick the weighted-linear gamma minimizing validation zero-one loss.

    All grid points share one base linear fit; ties resolve to the
    smaller gamma.  The fits come in chunks (:func:`weighted_linear_fits`)
    and scored in passes on the true paths (:func:`_select`): all 41 in
    one chunk and one pass on design 1, 13 chunks of three gammas and one
    of two in passes of 21 and 20 on design 2.
    """
    fits = weighted_linear_fits(
        train, table, sorted(grid), fit_intercept=fit_intercept
    )
    return _select("gamma", table, fits, val, grid)


def select_lambda(
    train, val, table, grid, max_iter: int = 100, fit_intercept: bool = True
) -> tuple[float, LinearModel]:
    """Pick the hinge lambda minimizing validation zero-one loss (ties: smaller).

    Every lambda, and ``max_iter`` (an integer of at least 1), is checked
    before the first fit.  The grid is fitted in lockstep by
    :func:`hinge_fits`.
    """
    _check_iterations(max_iter)
    _check_positive("lam", *grid)
    fits = hinge_fits(train, table, grid, max_iter=max_iter, fit_intercept=fit_intercept)
    return _select("lambda", table, fits, val, grid)


def population_direction(
    path_probs: Mapping[tuple[str, ...], float], table: EmbeddingTable
) -> np.ndarray:
    """Population-optimal score direction under the linear surrogate.

    For a conditional path distribution, sums over paths and layers the
    sibling offsets weighted by the path probability and the sibling-block
    size.  A zero-feature model carrying this vector as its intercept
    column predicts the per-layer conditional argmax path: the linear
    closed form with the probabilities as per-leaf sums (:func:`_closed_form`).
    """
    probs = dict(path_probs)
    for path, prob in probs.items():
        if not 0.0 <= prob < np.inf:
            raise ValueError(f"invalid probability {prob} for path {path!r}")
    codes, total = table.tree.leaf_codes_of(probs), sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"path probabilities sum to {total}, expected 1")
    return _closed_form(table, codes, np.reshape([*probs.values()], (-1, 1)))[:, 0]


MODEL_FORMAT = "labeltree-linear-model/1"
MODEL_LOSSES = ("linear", "weighted-linear", "hinge")  # the trainers' ``loss`` values
_MODEL_KEYS = (
    "tree_sha256", "base_norm", "decay", "loss", "gamma", "lambda",
    "dimension", "n_features", "coef",
)
_COEF_CHUNK = 2**13  # coefficients save_model renders at once


def save_model(model: LinearModel, path) -> None:
    """Serialize a model to JSON; floats round-trip exactly.

    The text is what ``json.dump(doc, fh, indent=2)`` writes.  The ``coef``
    list is written in chunks of a fixed number of floats, so its text is
    never held whole; a chunk of finite floats is formatted by ``repr``,
    which is how :mod:`json` formats them, without its per-item cost.
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
    coef, sep = model.coef.ravel(order="C"), ",\n    "
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key, value in head.items():
            fh.write(f"  {json.dumps(key)}: {json.dumps(value)},\n")
        fh.write('  "coef": [')
        for a in range(0, coef.size, _COEF_CHUNK):
            chunk = coef[a : a + _COEF_CHUNK]
            fmt = repr if np.isfinite(chunk).all() else json.dumps
            fh.write((sep if a else sep[1:]) + sep.join(map(fmt, chunk.tolist())))
        fh.write("\n  ]\n}\n" if coef.size else "]\n}\n")


def load_model(path, tree: Tree) -> LinearModel:
    """Load a model saved by :func:`save_model` and bind it to ``tree``.

    The tree must hash to the value recorded at save time; the embedding
    is rebuilt from the stored parameters, so predictions reproduce the
    original model's bit for bit.  A file that is not such a model, of
    another tree, or with coefficients that are not all finite raises a
    :class:`ValueError` naming the file, as does a ``coef`` that is not a
    list of JSON numbers (the first other entry is named), a ``dimension`` or
    ``n_features`` that is not a JSON integer of at least 0, a ``base_norm``
    or ``decay`` that is not a JSON number, a ``loss`` other than those of
    ``MODEL_LOSSES``, or a ``gamma`` or ``lambda`` that is neither null nor
    a finite number.
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
    # json.load gives bool for true/false, which int and float would admit
    for key in ("dimension", "n_features"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise ValueError(f"{path}: {key} must be an integer >= 0, got {doc[key]!r}")
    for key in ("base_norm", "decay"):
        if type(doc[key]) not in (int, float):
            raise ValueError(f"{path}: {key} must be a number, got {doc[key]!r}")
    if doc["loss"] not in MODEL_LOSSES:
        raise ValueError(
            f"{path}: loss must be one of {', '.join(MODEL_LOSSES)}, got {doc['loss']!r}"
        )
    for key in ("gamma", "lambda"):
        value = doc[key]
        finite = type(value) is int or (type(value) is float and np.isfinite(value))
        if value is not None and not finite:
            raise ValueError(f"{path}: {key} must be null or finite, got {value!r}")
    coef = doc["coef"]
    if type(coef) is not list:
        raise ValueError(f"{path}: coef must be a list of numbers")
    if not set(map(type, coef)) <= {int, float}:
        i = next(i for i, v in enumerate(coef) if type(v) not in (int, float))
        raise ValueError(f"{path}: coef[{i}] must be a number, got {coef[i]!r}")
    try:
        table = embed_tree(tree, base_norm=doc["base_norm"], decay=doc["decay"])
        coef = np.array(coef, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    width = doc["n_features"] + 1
    if doc["dimension"] != table.dimension or coef.size != table.dimension * width:
        raise ValueError(
            f"{path}: coefficients are {doc['dimension']} x {width} in "
            f"{coef.size} entries, expected {table.dimension} x {width}"
        )
    coef = coef.reshape(table.dimension, width)
    if not np.all(np.isfinite(coef)):
        raise ValueError(f"{path}: model coefficients contain NaN or infinity")
    return LinearModel(coef, table, doc["loss"], doc["gamma"], doc["lambda"])
