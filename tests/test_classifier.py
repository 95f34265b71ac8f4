import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import oracles
from conftest import REFERENCE_DOC, fanout10_tree, random_tree, traced_peak
from labeltree.classifier import (
    HINGE_TOL,
    ConvergenceWarning,
    LabeledDataset,
    LinearModel,
    adaptive_weights,
    hinge_fits,
    load_model,
    per_sample_risk,
    population_direction,
    predict_codes,
    predict_paths,
    predict_topdown,
    save_model,
    train_hinge,
    train_linear,
    train_weighted_linear,
    weighted_linear_fits,
)
from labeltree import classifier
from labeltree.cli import (
    HINGE_LAMBDA_GRID,
    TUNING_GRID,
    run_benchmark,
    select_gamma,
    select_lambda,
)
from labeltree.embedding import embed_tree, write_json, write_matrix_csv
from labeltree.hierarchy import parse_tree


@pytest.fixture(scope="module")
def ref(reference_tree):
    return embed_tree(reference_tree)


@pytest.fixture(scope="module")
def two(two_leaf_tree):
    return embed_tree(two_leaf_tree)


def random_dataset(table, n, p, rng):
    tree = table.tree
    labels = tuple(tree.leaves[i] for i in rng.integers(0, tree.n_leaf, size=n))
    return LabeledDataset(rng.normal(size=(n, p)), labels, tree)


def decision_values(model, x, candidates) -> np.ndarray:
    """Inner products of ``f(x)`` with the candidates' embedded points."""
    f = model.score_matrix(np.reshape(x, (1, -1)))[0]
    return np.array([float(f @ model.table.vectors[c]) for c in candidates])


def path_margin(model, x, path) -> float:
    """Smallest decision-value gap of each node of ``path`` over its siblings."""
    gaps = []
    for parent, node in zip(path, path[1:]):
        kids = model.tree.children(parent)
        values = dict(zip(kids, decision_values(model, x, kids)))
        gaps += [values[node] - values[sib] for sib in kids if sib != node]
    return min(gaps)


def linear_risk_objective(A_flat, dataset, table, lam, weights=None):
    """Ridge-penalized mean linear surrogate, for the generic minimizer."""
    K = table.dimension
    A = A_flat.reshape(K, dataset.p + 1)
    model = LinearModel(A, table, "linear")
    losses = per_sample_risk(model, dataset, "linear")
    if weights is not None:
        losses = weights * losses
    return float(np.mean(losses)) + lam * float(np.sum(A * A))


class TestDataset:
    def test_label_must_be_leaf(self, reference_tree):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((1, 2)), ("feline",), reference_tree)

    def test_nan_rejected(self, reference_tree):
        X = np.zeros((2, 2))
        X[0, 1] = np.nan
        with pytest.raises(ValueError):
            LabeledDataset(X, ("kestrel", "osprey"), reference_tree)

    def test_length_mismatch(self, reference_tree):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), ("kestrel",), reference_tree)

    def test_intercept_only_allowed(self, two_leaf_tree):
        ds = LabeledDataset(np.zeros((1, 0)), ("left",), two_leaf_tree)
        assert ds.p == 0

    def test_holds_codes_and_reads_labels_from_them(self, reference_tree):
        labels = ["kestrel", "panther", "kestrel", "eurasian_lynx"]
        ds = LabeledDataset(np.zeros((4, 2)), labels, reference_tree)
        assert vars(ds).keys() == {"X", "codes", "tree"}
        assert ds.codes.tolist() == [1, 0, 1, 5]
        assert ds.labels == tuple(labels)
        with pytest.raises(AttributeError):
            ds.labels = ("osprey",) * 4

    def test_value_equality(self, reference_tree):
        X = np.random.default_rng(0).normal(size=(5, 3))
        labels = ["kestrel", "osprey", "panther", "harrier", "osprey"]
        ds = LabeledDataset(X, labels, reference_tree)
        assert ds == LabeledDataset(X.copy(), tuple(labels), parse_tree(REFERENCE_DOC))
        moved = X.copy()
        moved[4, 2] += 1e-12
        assert ds != LabeledDataset(moved, labels, reference_tree)
        assert ds != LabeledDataset(X, labels[:4] + ["kestrel"], reference_tree)
        assert ds != LabeledDataset(X[:4], labels[:4], reference_tree)
        other = parse_tree(REFERENCE_DOC.replace("kestrel harrier", "harrier kestrel"))
        assert ds != LabeledDataset(X, labels, other)
        assert ds != SimpleNamespace(X=X, codes=ds.codes, tree=reference_tree)
        assert ds.__eq__("kestrel") is NotImplemented
        with pytest.raises(TypeError):
            hash(ds)


class TestDecisionValues:
    """Decision values ``<f(x), v_c>``, the scores descent compares."""

    def test_zero_model(self, ref):
        model = LinearModel(np.zeros((5, 3)), ref, "linear")
        values = decision_values(model, [0.5, -1.0], ["feline", "raptor"])
        np.testing.assert_array_equal(values, [0.0, 0.0])

    def test_two_leaf_inner_products(self, two):
        model = LinearModel(np.array([[-1.0]]), two, "linear")
        values = decision_values(model, [], ["left", "right"])
        np.testing.assert_allclose(values, [1.0, -1.0])

    def test_dimension_mismatch(self, ref):
        model = LinearModel(np.zeros((5, 3)), ref, "linear")
        with pytest.raises(ValueError, match="expected 2 features, got 3"):
            predict_topdown(model, [1.0, 2.0, 3.0])

    def test_argmax_equals_distance_argmin(self, ref, reference_tree):
        # equal sibling norms make the inner-product rule a distance rule,
        # so descent takes the nearest child at every layer
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.normal(size=5)
            model = LinearModel(f.reshape(-1, 1), ref, "linear")
            for parent in ("animal", "feline", "raptor", "lynx"):
                kids = reference_tree.children(parent)
                scores = decision_values(model, [], kids)
                dists = [np.linalg.norm(f - ref.vectors[c]) for c in kids]
                assert int(np.argmax(scores)) == int(np.argmin(dists))
            path = predict_topdown(model, [])
            for parent, node in zip(path, path[1:]):
                kids = reference_tree.children(parent)
                dists = [np.linalg.norm(f - ref.vectors[c]) for c in kids]
                assert kids[int(np.argmin(dists))] == node


class TestPredictTopdown:
    def test_embedded_leaf_predicts_own_path(self, ref, reference_tree):
        for leaf in reference_tree.leaves:
            model = LinearModel(ref.vectors[leaf].reshape(-1, 1), ref, "linear")
            assert predict_topdown(model, []) == reference_tree.path_of_leaf(leaf)

    def test_zero_scores_take_leftmost_path(self, ref):
        model = LinearModel(np.zeros((5, 1)), ref, "linear")
        assert predict_topdown(model, []) == (
            "animal",
            "feline",
            "lynx",
            "iberian_lynx",
        )

    def test_batch_matches_single(self, ref):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.normal(size=(5, 4)), ref, "linear")
        X = rng.normal(size=(30, 3))
        batch = predict_paths(model, X)
        assert batch == [predict_topdown(model, x) for x in X]

    def test_feature_count_checked(self, ref):
        model = LinearModel(np.zeros((5, 3)), ref, "linear")
        with pytest.raises(ValueError):
            predict_topdown(model, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_single_row_rejected(self, ref, bad):
        model = LinearModel(np.ones((5, 3)), ref, "linear")
        with pytest.raises(ValueError, match="NaN or infinity"):
            predict_topdown(model, [0.5, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, ref, bad):
        model = LinearModel(np.zeros((5, 3)), ref, "linear")
        X = np.zeros((4, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="row 2"):
            predict_paths(model, X)
        with pytest.raises(ValueError, match="row 2"):
            model.score_matrix(X)


class TestHierarchyMargin:
    """The smallest own-minus-sibling gap along a path, against descent and the risk."""

    def test_zero_model_zero_margin(self, ref, reference_tree):
        model = LinearModel(np.zeros((5, 1)), ref, "linear")
        path = reference_tree.path_of_leaf("kestrel")
        assert path_margin(model, [], path) == 0.0

    def test_positive_iff_predicted(self, ref, reference_tree):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = LinearModel(rng.normal(size=(5, 1)), ref, "linear")
            predicted = predict_topdown(model, [])
            for leaf in reference_tree.leaves:
                path = reference_tree.path_of_leaf(leaf)
                margin = path_margin(model, [], path)
                if margin > 0:
                    assert predicted == path
                elif margin < 0:
                    assert predicted != path

    def test_two_layer_reduction(self, reference_tree):
        # depth-2 tree: the linear risk sums the multicategory inner-product gaps
        tree = parse_tree("r: a b c\n")
        table = embed_tree(tree)
        rng = np.random.default_rng(1)
        f = rng.normal(size=2)
        model = LinearModel(f.reshape(-1, 1), table, "linear")
        own = float(f @ table.vectors["a"])
        gaps = [own - float(f @ table.vectors[s]) for s in ("b", "c")]
        assert path_margin(model, [], ("r", "a")) == pytest.approx(min(gaps))
        ds = LabeledDataset(np.zeros((1, 0)), ("a",), tree)
        assert per_sample_risk(model, ds, "linear")[0] == pytest.approx(-sum(gaps))


class TestSurrogateRisk:
    def test_zero_model_linear(self, ref, reference_tree):
        rng = np.random.default_rng(2)
        ds = random_dataset(ref, 12, 3, rng)
        model = LinearModel(np.zeros((5, 4)), ref, "linear")
        assert per_sample_risk(model, ds, "linear").tolist() == [0.0] * ds.n

    def test_zero_model_hinge_counts_terms(self, ref, reference_tree):
        ds = LabeledDataset(
            np.zeros((2, 1)), ("iberian_lynx", "kestrel"), reference_tree
        )
        model = LinearModel(np.zeros((5, 2)), ref, "linear")
        # both paths carry three sibling gaps: 1+1+1 and 1+2
        assert per_sample_risk(model, ds, "hinge").tolist() == pytest.approx([3.0, 3.0])

    def test_single_sample_linear_value(self, two, two_leaf_tree):
        ds = LabeledDataset(np.zeros((1, 0)), ("left",), two_leaf_tree)
        model = LinearModel(np.array([[-1.0]]), two, "linear")
        assert per_sample_risk(model, ds, "linear").tolist() == pytest.approx([-2.0])

    def test_unknown_loss(self, two, two_leaf_tree):
        ds = LabeledDataset(np.zeros((1, 0)), ("left",), two_leaf_tree)
        model = LinearModel(np.array([[0.0]]), two, "linear")
        with pytest.raises(ValueError):
            per_sample_risk(model, ds, "exponential")

    def test_per_sample_risk_memory_linear_in_samples(self):
        # 1000 leaves (fan-out 10, four layers): 300 samples over ~260
        # distinct codes must not meet every code's sibling rows at once
        tree = fanout10_tree()
        table = embed_tree(tree)
        rng = np.random.default_rng(6)
        n = 300
        labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=n)]
        ds = LabeledDataset(rng.normal(size=(n, 5)), labels, tree)
        model = LinearModel(rng.normal(size=(table.dimension, 6)), table, "linear")
        per_sample_risk(model, ds, "hinge")  # builds the cached block table
        scores_bytes = n * table.dimension * 8
        for loss in ("linear", "hinge"):
            tracemalloc.start()
            try:
                per_sample_risk(model, ds, loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * scores_bytes, (loss, peak)


class TestTrainLinear:
    def test_two_leaf_intercept_only(self, two, two_leaf_tree):
        ds = LabeledDataset(np.zeros((1, 0)), ("left",), two_leaf_tree)
        model = train_linear(ds, two)
        np.testing.assert_allclose(model.coef, [[-1.0]])
        assert predict_topdown(model, []) == ("root", "left")

    def test_lambda_does_not_change_predictions(self, ref):
        rng = np.random.default_rng(11)
        ds = random_dataset(ref, 25, 4, rng)
        probe = rng.normal(size=(40, 4))
        reference = None
        for lam in (0.1, 1.0, 10.0):
            model = train_linear(ds, ref, lam=lam)
            paths = predict_paths(model, probe)
            if reference is None:
                reference = paths
            else:
                assert paths == reference

    def test_matches_generic_minimizer(self, ref):
        rng = np.random.default_rng(21)
        ds = random_dataset(ref, 20, 3, rng)
        model = train_linear(ds, ref)
        x0 = np.zeros(model.coef.size)
        res = optimize.minimize(
            linear_risk_objective,
            x0,
            args=(ds, ref, 1.0),
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
        )
        oracle = res.x.reshape(model.coef.shape)
        assert np.linalg.norm(model.coef - oracle) < 1e-6

    def test_gradient_vanishes_at_solution(self, ref):
        rng = np.random.default_rng(22)
        ds = random_dataset(ref, 15, 2, rng)
        model = train_linear(ds, ref)
        flat = model.coef.ravel()
        grad = optimize.approx_fprime(
            flat, linear_risk_objective, 1e-7, ds, ref, 1.0
        )
        scale = max(1.0, float(np.linalg.norm(flat)))
        assert np.linalg.norm(grad) / scale < 1e-5

    def test_no_intercept_pins_first_column(self, ref):
        rng = np.random.default_rng(23)
        ds = random_dataset(ref, 10, 3, rng)
        model = train_linear(ds, ref, fit_intercept=False)
        assert np.all(model.coef[:, 0] == 0.0)
        # remaining columns agree with the unconstrained fit
        full = train_linear(ds, ref)
        np.testing.assert_array_equal(model.coef[:, 1:], full.coef[:, 1:])

    def test_bad_lambda(self, ref):
        rng = np.random.default_rng(24)
        ds = random_dataset(ref, 5, 2, rng)
        with pytest.raises(ValueError):
            train_linear(ds, ref, lam=0.0)

    def test_table_tree_mismatch(self, two, reference_tree):
        ds = LabeledDataset(np.zeros((1, 1)), ("kestrel",), reference_tree)
        with pytest.raises(ValueError):
            train_linear(ds, two)


class TestAdaptiveWeights:
    def test_zero_norm_gives_one(self, two, two_leaf_tree):
        model = LinearModel(np.zeros((1, 1)), two, "linear")
        w = adaptive_weights(model, np.zeros((3, 0)), gamma=2.0)
        np.testing.assert_array_equal(w, [1.0, 1.0, 1.0])

    def test_unit_norm_gives_half_any_gamma(self, two):
        model = LinearModel(np.array([[1.0]]), two, "linear")
        for gamma in (0.3, 1.0, 7.0):
            w = adaptive_weights(model, np.zeros((1, 0)), gamma=gamma)
            np.testing.assert_allclose(w, [0.5])

    def test_large_gamma_suppresses_large_norms(self, two):
        model = LinearModel(np.array([[2.0]]), two, "linear")
        w = adaptive_weights(model, np.zeros((1, 0)), gamma=50.0)
        assert w[0] < 1e-10

    def test_gamma_positive(self, two):
        model = LinearModel(np.array([[1.0]]), two, "linear")
        with pytest.raises(ValueError):
            adaptive_weights(model, np.zeros((1, 0)), gamma=0.0)


    def test_grid_gives_one_row_per_gamma(self, two):
        model = LinearModel(np.array([[2.0]]), two, "linear")
        w = adaptive_weights(model, np.zeros((3, 0)), (1.0, 2.0))
        np.testing.assert_array_equal(w, [[1 / 3] * 3, [0.2] * 3])
        assert adaptive_weights(model, np.zeros((3, 0)), ()).shape == (0, 3)

    def test_grid_checked_before_scoring(self, two, monkeypatch):
        model = LinearModel(np.array([[1.0]]), two, "linear")
        scored = []
        monkeypatch.setattr(LinearModel, "_features", lambda self, X: scored.append(X))
        with pytest.raises(ValueError, match="gamma must be positive and finite, got nan"):
            adaptive_weights(model, np.zeros((1, 0)), (1.0, np.nan))
        assert scored == []

    def test_negative_rounding_under_the_square_root_gives_one(self, two):
        # A x~ = -0.54 + 0.36 * 1.5000000000000002 is 0 up to rounding, and
        # x~^T (A^T A) x~ = M00 + 2 x M10 + x M11 x rounds below 0:
        # clamped, the norm is 0
        model = LinearModel(np.array([[-0.54, 0.36]]), two, "linear")
        X = np.array([[1.5000000000000002]])
        M, x = model.coef.T @ model.coef, X[0, 0]
        assert x * M[1, 1] * x + (2.0 * (x * M[1, 0]) + M[0, 0]) < 0.0
        w = adaptive_weights(model, X, (0.5, 1.0, 2.0))
        np.testing.assert_array_equal(w, [[1.0], [1.0], [1.0]])


class TestWeightedLinearGrid:
    def test_base_model_scores_training_data_once_per_grid(self, ref, monkeypatch):
        ds = random_dataset(ref, 12, 3, np.random.default_rng(34))
        features = LinearModel._features
        scored = []

        def spy(model, X):
            scored.append(X)
            return features(model, X)

        monkeypatch.setattr(LinearModel, "_features", spy)
        fits = list(weighted_linear_fits(ds, ref, (0.5, 1.0, 2.0, 4.0)))
        assert [g for g, _ in fits] == [0.5, 1.0, 2.0, 4.0]
        assert len(scored) == 1 and scored[0] is ds.X

    def test_every_gamma_checked_before_the_first_fit(self, ref, monkeypatch):
        ds = random_dataset(ref, 12, 3, np.random.default_rng(35))
        import labeltree.classifier as clf

        fitted = []
        monkeypatch.setattr(clf, "_linear_fitter", lambda *args: fitted.append(args))
        with pytest.raises(ValueError, match="gamma must be positive and finite, got nan"):
            next(weighted_linear_fits(ds, ref, (1.0, 2.0, np.nan)))
        assert fitted == []


class TestTrainWeightedLinear:
    def test_degenerate_base_equals_plain(self, two, two_leaf_tree):
        # two identical samples with opposite labels zero out the base fit,
        # so all weights are one and both closed forms coincide
        ds = LabeledDataset(np.zeros((2, 1)), ("left", "right"), two_leaf_tree)
        base = train_linear(ds, two)
        assert np.all(base.coef == 0.0)
        weighted = train_weighted_linear(ds, two, gamma=2.0)
        np.testing.assert_array_equal(weighted.coef, base.coef)

    def test_constant_weights_scale_coefficients(self, ref, reference_tree):
        # identical feature rows give every sample the same weight, so the
        # weighted fit is a positive rescaling with unchanged predictions;
        # label counts are deliberately asymmetric to avoid exact ties
        X = np.tile([[0.4, -0.2]], (6, 1))
        labels = ("kestrel", "osprey", "panther", "kestrel", "harrier", "kestrel")
        ds = LabeledDataset(X, labels, reference_tree)
        plain = train_linear(ds, ref)
        weighted = train_weighted_linear(ds, ref, gamma=3.0)
        norms = np.linalg.norm(plain.score_matrix(X), axis=1)
        w = 1.0 / (1.0 + norms**3.0)
        np.testing.assert_allclose(weighted.coef, w[0] * plain.coef, atol=1e-12)
        probe = np.random.default_rng(1).normal(size=(20, 2))
        assert predict_paths(weighted, probe) == predict_paths(plain, probe)

    def test_matches_generic_minimizer_with_fixed_weights(self, ref):
        rng = np.random.default_rng(31)
        ds = random_dataset(ref, 18, 3, rng)
        gamma = 1.7
        model = train_weighted_linear(ds, ref, gamma=gamma)
        base = train_linear(ds, ref)
        w = adaptive_weights(base, ds.X, gamma)
        res = optimize.minimize(
            linear_risk_objective,
            np.zeros(model.coef.size),
            args=(ds, ref, 1.0, w),
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
        )
        oracle = res.x.reshape(model.coef.shape)
        assert np.linalg.norm(model.coef - oracle) < 1e-6

    def test_metadata(self, ref):
        ds = random_dataset(ref, 8, 2, np.random.default_rng(32))
        model = train_weighted_linear(ds, ref, gamma=0.5)
        assert model.loss == "weighted-linear"
        assert model.gamma == 0.5

    def test_unit_weights_reproduce_plain_fit_exactly(self, ref, monkeypatch):
        ds = random_dataset(ref, 14, 3, np.random.default_rng(33))
        import labeltree.classifier as clf

        monkeypatch.setattr(
            clf, "adaptive_weights", lambda model, X, gamma: np.ones(len(X))
        )
        forced = clf.train_weighted_linear(ds, ref, gamma=2.0)
        plain = train_linear(ds, ref)
        np.testing.assert_array_equal(forced.coef, plain.coef)


def fit_tuning_grid(ds, table):
    """Every weighted-linear fit of the tuning grid, each dropped for the next."""
    for _ in weighted_linear_fits(ds, table, TUNING_GRID):
        pass


def separable_two_leaf(two_leaf_tree, n=16, gap=4.0, rng=None):
    rng = rng or np.random.default_rng(0)
    X = np.concatenate(
        [
            rng.normal(-gap / 2, 0.25, size=(n // 2, 1)),
            rng.normal(gap / 2, 0.25, size=(n // 2, 1)),
        ]
    )
    labels = ("left",) * (n // 2) + ("right",) * (n // 2)
    return LabeledDataset(X, labels, two_leaf_tree)


class TestTrainHinge:
    def test_separable_perfect_training_fit(self, two, two_leaf_tree):
        ds = separable_two_leaf(two_leaf_tree)
        model = train_hinge(ds, two, lam=0.01)
        assert predict_paths(model, ds.X) == ds.paths()

    def test_history_monotone(self, two, two_leaf_tree):
        ds = separable_two_leaf(two_leaf_tree)
        model = train_hinge(ds, two, lam=0.5)
        assert np.all(np.diff(model.history) <= 0.0)

    def test_huge_lambda_shrinks_to_zero(self, ref):
        ds = random_dataset(ref, 10, 2, np.random.default_rng(41))
        model = train_hinge(ds, ref, lam=1e7)
        assert np.max(np.abs(model.coef)) < 1e-4
        # at zero coefficients the objective is the mean number of gaps
        zero_obj = per_sample_risk(
            LinearModel(np.zeros_like(model.coef), ref, "hinge"), ds, "hinge"
        ).mean()
        assert oracles.hinge_objective(model.coef, ds, ref, 1e7) == pytest.approx(
            zero_obj, rel=1e-3
        )

    def test_beats_linear_candidate(self, ref):
        ds = random_dataset(ref, 20, 3, np.random.default_rng(42))
        lam = 1.0
        hinge = train_hinge(ds, ref, lam=lam)
        linear = train_linear(ds, ref)
        assert oracles.hinge_objective(hinge.coef, ds, ref, lam) <= oracles.hinge_objective(
            linear.coef, ds, ref, lam
        )

    def test_no_worse_than_random_candidates(self, ref):
        ds = random_dataset(ref, 15, 2, np.random.default_rng(43))
        lam = 0.5
        model = train_hinge(ds, ref, lam=lam)
        achieved = oracles.hinge_objective(model.coef, ds, ref, lam)
        rng = np.random.default_rng(44)
        for _ in range(25):
            other = rng.normal(scale=0.5, size=model.coef.shape)
            assert achieved <= oracles.hinge_objective(other, ds, ref, lam) + 1e-9

    def test_deterministic(self, ref):
        ds = random_dataset(ref, 12, 2, np.random.default_rng(45))
        a = train_hinge(ds, ref, lam=0.3)
        b = train_hinge(ds, ref, lam=0.3)
        np.testing.assert_array_equal(a.coef, b.coef)

    def test_budget_warning(self, two, two_leaf_tree):
        ds = separable_two_leaf(two_leaf_tree)
        with pytest.warns(ConvergenceWarning):
            train_hinge(ds, two, lam=0.01, max_iter=3)

    def test_no_intercept(self, ref):
        ds = random_dataset(ref, 10, 2, np.random.default_rng(46))
        model = train_hinge(ds, ref, lam=0.5, fit_intercept=False)
        assert np.all(model.coef[:, 0] == 0.0)


class TestHingeObjectiveChecks:
    """The hinge objective's inputs, checked where the package takes them."""

    def test_dataset_on_another_tree_rejected(self):
        # two 4-leaf trees share their leaf names, so the labels fit both
        table = embed_tree(parse_tree("r: a b\na: w x\nb: y z\n"))
        ds = LabeledDataset(np.ones((4, 1)), "wxyz", parse_tree("r: w x y z\n"))
        model = LinearModel(np.ones((3, 2)), table, "hinge")
        with pytest.raises(ValueError, match="different trees"):
            per_sample_risk(model, ds, "hinge")
        with pytest.raises(ValueError, match="different trees"):
            train_hinge(ds, table, 1.0)

    @pytest.mark.parametrize("lam", [-0.5, 0.0, np.nan, np.inf])
    def test_bad_lambda_rejected(self, ref, lam):
        ds = random_dataset(ref, 6, 2, np.random.default_rng(47))
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            train_hinge(ds, ref, lam)

    def test_extra_coefficient_rows_rejected(self, ref):
        with pytest.raises(ValueError, match="coefficient rows"):
            LinearModel(np.zeros((ref.dimension + 1, 3)), ref, "hinge")

    def test_wrong_feature_width_rejected(self, ref):
        ds = random_dataset(ref, 6, 2, np.random.default_rng(49))
        model = LinearModel(np.zeros((ref.dimension, 4)), ref, "hinge")
        with pytest.raises(ValueError, match="expected 3 features, got 2"):
            per_sample_risk(model, ds, "hinge")


def box_dual(ds, table, lam, fit_intercept):
    """The hinge dual over the oracle's full-width gap rows, one variable a pair.

    Returns the number of pairs and functions for ``A(alpha)``, the primal
    objective at ``A``, the dual objective and its negation with gradient.
    """
    D, mask = oracles.hinge_terms(table, ds.codes)
    term, sample = np.nonzero(mask)
    d = D[term]
    x = np.hstack([np.ones((ds.n, 1)), ds.X])[sample]
    if not fit_intercept:
        x[:, 0] = 0.0

    def coef(alpha):
        return (alpha[:, None] * d).T @ x / (2.0 * lam)

    def margins(A):
        return np.einsum("pk,kj,pj->p", d, A, x)

    def primal(A):
        slack = np.maximum(1.0 - margins(A), 0.0)
        return float(slack.sum()) / ds.n + lam * float(np.sum(A * A))

    def dual(alpha):
        A = coef(alpha)
        return float(alpha.sum()) - lam * float(np.sum(A * A))

    def neg_dual(alpha):
        return -dual(alpha), margins(coef(alpha)) - 1.0

    return len(term), coef, primal, dual, neg_dual


class TestHingeCertificate:
    """The returned model against an independent solve of the box-constrained dual."""

    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("lam", [0.05, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_generic_dual_solve(self, seed, lam, fit_intercept):
        rng = np.random.default_rng(seed)
        table = embed_tree(random_tree(rng, max_depth=3))
        ds = random_dataset(table, 8, 2, rng)
        pairs, coef, primal, dual, neg_dual = box_dual(ds, table, lam, fit_intercept)
        res = optimize.minimize(
            neg_dual,
            np.zeros(pairs),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0 / ds.n)] * pairs,
            options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12},
        )
        alpha = np.clip(res.x, 0.0, 1.0 / ds.n)
        tol = HINGE_TOL * pairs / ds.n  # the objective at A = 0 is pairs / n

        model = train_hinge(ds, table, lam, fit_intercept=fit_intercept)
        achieved = oracles.hinge_objective(model.coef, ds, table, lam)
        assert achieved == pytest.approx(primal(model.coef), rel=1e-12)
        assert achieved >= dual(alpha) - 1e-12  # weak duality
        assert achieved <= primal(coef(alpha)) + tol

    def test_budget_warning_reports_gap(self, two, two_leaf_tree):
        ds = separable_two_leaf(two_leaf_tree)
        with pytest.warns(ConvergenceWarning, match="duality gap"):
            model = train_hinge(ds, two, lam=0.01, max_iter=3)
        assert len(model.history) == 4

    def test_grid_warnings_name_their_lambda(self, two, two_leaf_tree):
        ds = separable_two_leaf(two_leaf_tree)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            fits = dict(hinge_fits(ds, two, (0.01, 1e7, 0.001), max_iter=3))
        named = sorted(str(w.message).split()[3] for w in caught)
        assert named == ["lambda=0.001", "lambda=0.01"]
        assert len(fits[1e7].history) == 2  # certified at the probe


def random_tree_dataset(seed):
    """A ``conftest.random_tree`` draw, 120 uniform labels and 7 standard-normal features."""
    rng = np.random.default_rng(seed)
    table = embed_tree(random_tree(rng))
    return random_dataset(table, 120, 7, rng), table


class TestInteriorPoint:
    """Certification and Newton-iteration counts of the interior-point hinge solver."""

    @pytest.mark.parametrize("seed", range(100, 106))
    def test_default_grid_certifies_on_random_trees(self, seed):
        # 12-27 leaves; accelerated projected gradient ran out of its
        # 5000-iteration budget at lam = 0.001 on three of these trees
        ds, table = random_tree_dataset(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            for lam in HINGE_LAMBDA_GRID:
                train_hinge(ds, table, lam)

    def test_design1_default_grid_takes_at_most_30_iterations(self, monkeypatch):
        # accelerated projected gradient took up to ~1000 at lam = 0.001
        counts = []

        def counting(train, table, lams, **kwargs):
            for lam, model in hinge_fits(train, table, lams, **kwargs):
                counts.append((lam, len(model.history) - 1))
                yield lam, model

        monkeypatch.setattr(classifier, "hinge_fits", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            run_benchmark(example=1, reps=3, seed=3, losses=("hinge",))
        assert len(counts) == 3 * len(HINGE_LAMBDA_GRID)
        assert max(count for _, count in counts) <= 30, counts
        # the first iteration's probe, alpha = 1/n, is already optimal here
        assert all(count == 1 for lam, count in counts if lam >= 10.0), counts

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "5", None])
    def test_bad_budget_rejected_before_any_fit(self, ref, max_iter, monkeypatch):
        ds = random_dataset(ref, 6, 2, np.random.default_rng(64))
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            train_hinge(ds, ref, lam=1.0, max_iter=max_iter)

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking max_iter")

        monkeypatch.setattr(classifier, "hinge_fits", no_fit)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            select_lambda(ds, ds, ref, (1.0, 10.0), max_iter=max_iter)

    def test_singular_newton_matrix_ends_the_fit_with_a_warning(self, ref, monkeypatch):
        ds = random_dataset(ref, 20, 3, np.random.default_rng(66))

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.warns(ConvergenceWarning, match="numerically singular Newton matrix"):
            model = train_hinge(ds, ref, lam=0.01)
        assert len(model.history) == 2  # A = 0 and the probe at alpha = 1/n

    def test_numpy_integer_budget_accepted(self, ref):
        ds = random_dataset(ref, 6, 2, np.random.default_rng(65))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model = train_hinge(ds, ref, lam=1.0, max_iter=np.int64(2))
        assert len(model.history) <= 3


@pytest.mark.parametrize("value", [np.nan, np.inf])
class TestNonFiniteHyperparameters:
    """NaN and +inf slip past an ``x <= 0`` test; every trainer rejects them."""

    def test_train_linear(self, ref, value):
        ds = random_dataset(ref, 5, 2, np.random.default_rng(61))
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            train_linear(ds, ref, lam=value)

    def test_weighted_linear_fits(self, ref, value):
        ds = random_dataset(ref, 5, 2, np.random.default_rng(62))
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            next(weighted_linear_fits(ds, ref, (1.0,), lam=value))

    def test_train_hinge(self, ref, value):
        ds = random_dataset(ref, 5, 2, np.random.default_rng(63))
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            train_hinge(ds, ref, lam=value, max_iter=10)

    def test_adaptive_weights(self, two, value):
        model = LinearModel(np.array([[1.0]]), two, "linear")
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            adaptive_weights(model, np.zeros((1, 0)), gamma=value)

    @pytest.mark.parametrize("select, name", [(select_gamma, "gamma"), (select_lambda, "lam")])
    def test_selectors_check_the_grid_before_the_validation_set(
        self, ref, value, select, name
    ):
        ds = random_dataset(ref, 5, 2, np.random.default_rng(64))
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            select(ds, None, ref, (1.0, value))


class TestPopulationDirection:
    def test_point_mass_recovers_each_path(self, ref, reference_tree):
        for leaf in reference_tree.leaves:
            path = reference_tree.path_of_leaf(leaf)
            v = population_direction({path: 1.0}, ref)
            model = LinearModel(v.reshape(-1, 1), ref, "linear")
            assert predict_topdown(model, []) == path

    def test_uniform_on_symmetric_tree_vanishes(self):
        tree = parse_tree("r: a b\na: a1 a2\nb: b1 b2\n")
        table = embed_tree(tree)
        probs = {tree.path_of_leaf(l): 0.25 for l in tree.leaves}
        v = population_direction(probs, table)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_two_leaf_direction(self, two, two_leaf_tree):
        probs = {("root", "left"): 0.7, ("root", "right"): 0.3}
        v = population_direction(probs, two)
        np.testing.assert_allclose(v, (0.7 - 0.3) * 2.0 * two.vectors["left"])
        model = LinearModel(v.reshape(-1, 1), two, "linear")
        assert predict_topdown(model, []) == ("root", "left")

    def test_invalid_probabilities(self, ref, reference_tree):
        path = reference_tree.path_of_leaf("kestrel")
        with pytest.raises(ValueError):
            population_direction({path: 0.5}, ref)
        with pytest.raises(ValueError):
            population_direction({path: -0.2, ("x",): 1.2}, ref)
        with pytest.raises(ValueError):
            population_direction({("animal", "feline"): 1.0}, ref)

    def test_nan_probability_rejected(self, ref, reference_tree):
        # NaN fails ``prob < 0`` and makes ``abs(total - 1) > tol`` false, so
        # only a range test on each probability catches it
        path = reference_tree.path_of_leaf("kestrel")
        with pytest.raises(ValueError, match="invalid probability nan"):
            population_direction({path: np.nan}, ref)


class TestModelEquality:
    def model(self, doc="r: a b c\na: a1 a2\n", coef=None, **kwargs):
        table = embed_tree(parse_tree(doc))
        if coef is None:
            coef = np.arange(table.dimension * 3.0).reshape(table.dimension, 3)
        kwargs.setdefault("loss", "linear")
        return LinearModel(coef, table, **kwargs)

    def test_equal_models(self):
        a, b = self.model(gamma=0.5), self.model(gamma=0.5)
        assert a == b and not a != b
        # history records how a fit got there, not the model
        b.history = np.ones(3)
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            {"doc": "r: a b c\nb: b1 b2\n"},
            {"coef": np.zeros((3, 3))},
            {"loss": "hinge"},
            {"gamma": 1.0},
            {"lam": 0.1},
        ],
    )
    def test_unequal_models(self, change):
        a, b = self.model(), self.model(**change)
        assert a != b and not a == b
        assert a != "a model"

    def test_models_are_unhashable(self):
        # a model is mutable, so equal models could not keep equal hashes
        with pytest.raises(TypeError):
            hash(self.model())


class TestPersistence:
    def test_round_trip_bit_exact(self, ref, reference_tree, tmp_path):
        rng = np.random.default_rng(51)
        ds = random_dataset(ref, 20, 3, rng)
        model = train_weighted_linear(ds, ref, gamma=2.5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, reference_tree)
        np.testing.assert_array_equal(loaded.coef, model.coef)
        assert loaded.loss == "weighted-linear"
        assert loaded.gamma == 2.5
        probe = rng.normal(size=(25, 3))
        assert predict_paths(loaded, probe) == predict_paths(model, probe)

    def test_prediction_never_builds_the_node_matrix(self, ref, reference_tree, tmp_path):
        rng = np.random.default_rng(52)
        path = tmp_path / "model.json"
        save_model(train_linear(random_dataset(ref, 20, 3, rng), ref), path)
        loaded = load_model(path, reference_tree)
        predict_paths(loaded, rng.normal(size=(25, 3)))
        assert "node_matrix" not in loaded.table.__dict__

    def test_margins_never_build_the_node_matrix(self, reference_tree):
        table = embed_tree(reference_tree)
        rng = np.random.default_rng(53)
        ds = random_dataset(table, 20, 3, rng)
        model = LinearModel(rng.normal(size=(table.dimension, 4)), table, "linear")
        per_sample_risk(model, ds, "hinge")
        train_linear(ds, table)
        list(weighted_linear_fits(ds, table, (0.5, 2.0)))
        train_hinge(ds, table, lam=0.5)
        paths = [reference_tree.path_of_leaf(leaf) for leaf in reference_tree.leaves]
        population_direction(dict.fromkeys(paths, 1.0 / len(paths)), table)
        assert "node_matrix" not in table.__dict__

    def test_exports_never_build_the_node_matrix(self, tmp_path):
        table = embed_tree(fanout10_tree())
        write_matrix_csv(table, tmp_path / "embedding.csv")
        write_json(table, tmp_path / "embedding.json")
        assert "node_matrix" not in table.__dict__

    def test_linear_training_memory_within_the_array_size_rule(self):
        # a dense (q + 1) x dimension node matrix alone would take 1111 x 999
        # floats, and a node-by-leaf scatter as many again
        tree = fanout10_tree()
        table = embed_tree(tree)
        rng = np.random.default_rng(55)
        n, p = 3000, 95
        labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=n)]
        ds = LabeledDataset(rng.normal(size=(n, p)), labels, tree)
        train_linear(ds, table)  # builds the table's cached runs
        bound = 3 * max(n * (p + 1), (tree.q + 1) * (p + 1)) * 8
        peak = traced_peak(lambda: train_linear(ds, table))
        assert peak < bound, peak
        peak = traced_peak(lambda: fit_tuning_grid(ds, table))
        assert peak < bound, peak
        assert "node_matrix" not in table.__dict__

    def test_weighted_grid_memory_within_the_array_size_rule_on_skewed_labels(self):
        # one leaf holds 90% of the rows: padding every leaf to its count
        # would take 1000 times the features
        tree = fanout10_tree()
        table = embed_tree(tree)
        rng = np.random.default_rng(56)
        n, p = 3000, 95
        codes = np.where(rng.random(n) < 0.9, 7, rng.integers(0, tree.n_leaf, size=n))
        ds = LabeledDataset(rng.normal(size=(n, p)), [tree.leaves[c] for c in codes], tree)
        train_linear(ds, table)  # builds the table's cached runs
        peak = traced_peak(lambda: fit_tuning_grid(ds, table))
        assert peak < 3 * max(n * (p + 1), (tree.q + 1) * (p + 1)) * 8, peak

    def test_hinge_training_memory_below_one_node_square(self):
        # a (q + 1)^2 node-by-node matrix alone would take 1111^2 floats
        tree = fanout10_tree()
        table = embed_tree(tree)
        rng = np.random.default_rng(56)
        n, p = 100, 95
        labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=n)]
        ds = LabeledDataset(rng.normal(size=(n, p)), labels, tree)

        def fit():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                train_hinge(ds, table, lam=0.1, max_iter=5)

        fit()  # builds the table's cached runs
        peak = traced_peak(fit)
        assert peak < (tree.q + 1) ** 2 * 8, peak
        assert "node_matrix" not in table.__dict__

    def test_hinge_grid_memory_below_one_node_square(self):
        # the six-lambda grid holds one lambda's large Newton matrices at a time
        tree = fanout10_tree()
        table = embed_tree(tree)
        rng = np.random.default_rng(56)
        n, p = 100, 95
        labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=n)]
        ds = LabeledDataset(rng.normal(size=(n, p)), labels, tree)

        def fit():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                list(hinge_fits(ds, table, HINGE_LAMBDA_GRID, max_iter=5))

        fit()  # builds the table's cached runs
        peak = traced_peak(fit)
        assert peak < (tree.q + 1) ** 2 * 8, peak

    def test_prediction_memory_within_the_array_size_rule(self):
        # the (n, dimension) score matrix would take 3000 x 999 floats
        tree = fanout10_tree()
        table = embed_tree(tree)
        rng = np.random.default_rng(54)
        n, p = 3000, 95
        model = LinearModel(rng.normal(size=(table.dimension, p + 1)), table, "linear")
        X = rng.normal(size=(n, p))
        predict_codes(model, X[:10])  # builds the tree's cached arrays
        peak = traced_peak(lambda: predict_codes(model, X))
        assert peak < 2 * max(n * (p + 1), (tree.q + 1) * (p + 1)) * 8, peak
        assert "node_matrix" not in table.__dict__

    def test_saving_a_model_traces_under_two_mib(self, tmp_path):
        # the (999, 96) coefficients' text is 2.7 MB; written in chunks, it
        # is never held whole
        tree = fanout10_tree()
        table = embed_tree(tree)
        coef = np.random.default_rng(57).normal(size=(table.dimension, 96))
        model = LinearModel(coef, table, "linear")
        peak = traced_peak(lambda: save_model(model, tmp_path / "model.json"))
        assert load_model(tmp_path / "model.json", tree) == model
        assert peak < 2 * 2**20, peak

    def test_wrong_tree_rejected(self, ref, two_leaf_tree, tmp_path):
        model = LinearModel(np.zeros((5, 2)), ref, "linear")
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ValueError):
            load_model(path, two_leaf_tree)

    def test_unknown_format_rejected(self, reference_tree, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path, reference_tree)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, tmp_path, bad):
        tree = parse_tree("r: a b c\na: a1 a2\n")
        coef = np.zeros((3, 2))
        coef[1, 1] = bad
        path = tmp_path / "model.json"
        save_model(LinearModel(coef, embed_tree(tree), "linear"), path)
        with pytest.raises(ValueError, match="model.json.*NaN or infinity"):
            load_model(path, tree)

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5], {"a": 1}])
    def test_coefficient_that_is_not_a_number_rejected(self, tmp_path, bad):
        # np.array(..., dtype=float) would read true as 1.0 and "0.5" as 0.5
        tree = parse_tree("r: a b c\na: a1 a2\n")
        path = tmp_path / "model.json"
        save_model(LinearModel(np.zeros((3, 2)), embed_tree(tree), "linear"), path)
        doc = json.loads(path.read_text())
        doc["coef"][4] = bad
        doc["coef"][5] = "first bad entry is index 4"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"model\.json: coef\[4\] must be a number"):
            load_model(path, tree)

    @pytest.mark.parametrize("coef", [0.5, "0.5", {"0": 0.5}, None])
    def test_coefficients_that_are_not_a_list_rejected(self, tmp_path, coef):
        tree = parse_tree("r: a b\n")
        path = tmp_path / "model.json"
        save_model(LinearModel(np.zeros((1, 1)), embed_tree(tree), "linear"), path)
        doc = json.loads(path.read_text())
        doc["coef"] = coef
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"model\.json: coef must be a list"):
            load_model(path, tree)

    def test_integer_coefficients_load_as_floats(self, tmp_path):
        tree = parse_tree("r: a b\n")
        path = tmp_path / "model.json"
        save_model(LinearModel(np.zeros((1, 2)), embed_tree(tree), "linear"), path)
        doc = json.loads(path.read_text())
        doc["coef"] = [1, -2]
        path.write_text(json.dumps(doc))
        coef = load_model(path, tree).coef
        assert coef.dtype == float and coef.tolist() == [[1.0, -2.0]]

    def test_integer_coefficient_beyond_float_range_rejected(self, tmp_path):
        tree = parse_tree("r: a b\n")
        path = tmp_path / "model.json"
        save_model(LinearModel(np.zeros((1, 2)), embed_tree(tree), "linear"), path)
        text = path.read_text().replace("0.0", "1" + "0" * 400, 1)
        path.write_text(text)
        with pytest.raises(ValueError, match=r"model\.json"):
            load_model(path, tree)

    def test_non_object_rejected(self, reference_tree, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="model.json"):
            load_model(path, reference_tree)


class TestScaleInvariance:
    def test_positive_rescaling_preserves_paths(self, ref):
        rng = np.random.default_rng(61)
        for _ in range(10):
            model = LinearModel(rng.normal(size=(5, 4)), ref, "linear")
            X = rng.normal(size=(15, 3))
            base = predict_paths(model, X)
            for kappa in (1e-3, 0.7, 42.0):
                scaled = LinearModel(kappa * model.coef, ref, "linear")
                assert predict_paths(scaled, X) == base
