import tracemalloc

import numpy as np
import pytest
from scipy import optimize

import oracles
from conftest import random_tree
from labeltree.classifier import (
    HINGE_TOL,
    ConvergenceWarning,
    LabeledDataset,
    LinearModel,
    adaptive_weights,
    decision_values,
    hierarchy_margin,
    hinge_objective,
    load_model,
    per_sample_risk,
    population_direction,
    predict_paths,
    predict_topdown,
    save_model,
    surrogate_risk,
    train_hinge,
    train_linear,
    train_weighted_linear,
    weighted_linear_fits,
)
from labeltree.embedding import embed_tree
from labeltree.hierarchy import Tree, parse_tree


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


class TestDecisionValues:
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
        with pytest.raises(ValueError):
            decision_values(model, [1.0, 2.0, 3.0], ["feline"])

    def test_argmax_equals_distance_argmin(self, ref, reference_tree):
        # equal sibling norms make the inner-product rule a distance rule
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.normal(size=5)
            model = LinearModel(f.reshape(-1, 1), ref, "linear")
            for parent in ("animal", "feline", "raptor", "lynx"):
                kids = reference_tree.children(parent)
                scores = decision_values(model, [], kids)
                dists = [np.linalg.norm(f - ref.vector(c)) for c in kids]
                assert int(np.argmax(scores)) == int(np.argmin(dists))


class TestPredictTopdown:
    def test_embedded_leaf_predicts_own_path(self, ref, reference_tree):
        for leaf in reference_tree.leaves:
            model = LinearModel(ref.vector(leaf).reshape(-1, 1), ref, "linear")
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
    def test_non_finite_single_row_rejected(self, ref, reference_tree, bad):
        # the single-row path behind decision_values and hierarchy_margin
        model = LinearModel(np.ones((5, 3)), ref, "linear")
        path = reference_tree.path_of_leaf("kestrel")
        for call in (
            model.scores,
            lambda x: decision_values(model, x, ["feline"]),
            lambda x: hierarchy_margin(model, x, path),
        ):
            with pytest.raises(ValueError, match="NaN or infinity"):
                call([0.5, bad])

    def test_single_row_scores_keep_their_expression(self, ref):
        coef = np.random.default_rng(4).normal(size=(5, 3))
        model = LinearModel(coef, ref, "linear")
        x = np.array([0.3, -1.7])
        np.testing.assert_array_equal(
            model.scores(x), coef @ np.concatenate([[1.0], x])
        )

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
    def test_zero_model_zero_margin(self, ref, reference_tree):
        model = LinearModel(np.zeros((5, 1)), ref, "linear")
        path = reference_tree.path_of_leaf("kestrel")
        assert hierarchy_margin(model, [], path) == 0.0

    def test_positive_iff_predicted(self, ref, reference_tree):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = LinearModel(rng.normal(size=(5, 1)), ref, "linear")
            predicted = predict_topdown(model, [])
            for leaf in reference_tree.leaves:
                path = reference_tree.path_of_leaf(leaf)
                margin = hierarchy_margin(model, [], path)
                if margin > 0:
                    assert predicted == path
                elif margin < 0:
                    assert predicted != path

    def test_two_layer_reduction(self, reference_tree):
        # depth-2 tree: the margin is the multicategory inner-product gap
        tree = parse_tree("r: a b c\n")
        table = embed_tree(tree)
        rng = np.random.default_rng(1)
        f = rng.normal(size=2)
        model = LinearModel(f.reshape(-1, 1), table, "linear")
        own = float(f @ table.vector("a"))
        expected = min(own - float(f @ table.vector(s)) for s in ("b", "c"))
        assert hierarchy_margin(model, [], ("r", "a")) == pytest.approx(expected)

    def test_invalid_path(self, ref):
        model = LinearModel(np.zeros((5, 1)), ref, "linear")
        with pytest.raises(ValueError):
            hierarchy_margin(model, [], ("animal", "feline"))


class TestSurrogateRisk:
    def test_zero_model_linear(self, ref, reference_tree):
        rng = np.random.default_rng(2)
        ds = random_dataset(ref, 12, 3, rng)
        model = LinearModel(np.zeros((5, 4)), ref, "linear")
        assert surrogate_risk(model, ds, "linear") == 0.0

    def test_zero_model_hinge_counts_terms(self, ref, reference_tree):
        ds = LabeledDataset(
            np.zeros((2, 1)), ("iberian_lynx", "kestrel"), reference_tree
        )
        model = LinearModel(np.zeros((5, 2)), ref, "linear")
        # both paths carry three sibling gaps: 1+1+1 and 1+2
        assert surrogate_risk(model, ds, "hinge") == pytest.approx(3.0)

    def test_single_sample_linear_value(self, two, two_leaf_tree):
        ds = LabeledDataset(np.zeros((1, 0)), ("left",), two_leaf_tree)
        model = LinearModel(np.array([[-1.0]]), two, "linear")
        assert surrogate_risk(model, ds, "linear") == pytest.approx(-2.0)

    def test_unknown_loss(self, two, two_leaf_tree):
        ds = LabeledDataset(np.zeros((1, 0)), ("left",), two_leaf_tree)
        model = LinearModel(np.array([[0.0]]), two, "linear")
        with pytest.raises(ValueError):
            surrogate_risk(model, ds, "exponential")

    def test_per_sample_risk_memory_linear_in_samples(self):
        # 1000 leaves (fan-out 10, four layers): 300 samples over ~260
        # distinct codes must not meet every code's sibling rows at once
        children, frontier = {}, ["r"]
        for _ in range(3):
            for node in frontier:
                children[node] = [f"{node}.{j}" for j in range(10)]
            frontier = [kid for node in frontier for kid in children[node]]
        tree = Tree("r", children)
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
        zero_obj = surrogate_risk(
            LinearModel(np.zeros_like(model.coef), ref, "hinge"), ds, "hinge"
        )
        assert hinge_objective(model.coef, ds, ref, 1e7) == pytest.approx(
            zero_obj, rel=1e-3
        )

    def test_beats_linear_candidate(self, ref):
        ds = random_dataset(ref, 20, 3, np.random.default_rng(42))
        lam = 1.0
        hinge = train_hinge(ds, ref, lam=lam)
        linear = train_linear(ds, ref)
        assert hinge_objective(hinge.coef, ds, ref, lam) <= hinge_objective(
            linear.coef, ds, ref, lam
        )

    def test_no_worse_than_random_candidates(self, ref):
        ds = random_dataset(ref, 15, 2, np.random.default_rng(43))
        lam = 0.5
        model = train_hinge(ds, ref, lam=lam)
        achieved = hinge_objective(model.coef, ds, ref, lam)
        rng = np.random.default_rng(44)
        for _ in range(25):
            other = rng.normal(scale=0.5, size=model.coef.shape)
            assert achieved <= hinge_objective(other, ds, ref, lam) + 1e-9

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
        achieved = hinge_objective(model.coef, ds, table, lam)
        assert achieved == pytest.approx(primal(model.coef), rel=1e-12)
        assert achieved >= dual(alpha) - 1e-12  # weak duality
        assert achieved <= primal(coef(alpha)) + tol

    def test_budget_warning_reports_gap(self, two, two_leaf_tree):
        ds = separable_two_leaf(two_leaf_tree)
        with pytest.warns(ConvergenceWarning, match="duality gap"):
            model = train_hinge(ds, two, lam=0.01, max_iter=3)
        assert len(model.history) == 4


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
        np.testing.assert_allclose(v, (0.7 - 0.3) * 2.0 * two.vector("left"))
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
