"""Fast paths against the reference implementations on random trees.

``conftest.random_tree`` draws trees with unbalanced leaf depths, so
paths of different lengths meet in every check.
"""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_tree
from labeltree.classifier import (
    HINGE_TOL,
    ConvergenceWarning,
    LabeledDataset,
    LinearModel,
    _descend,
    _sibling_pairs,
    adaptive_weights,
    hierarchy_margin,
    hinge_objective,
    per_sample_risk,
    predict_paths,
    predict_topdown,
    save_model,
    train_hinge,
    train_linear,
    train_weighted_linear,
    weighted_linear_fits,
)
from labeltree.cli import TUNING_GRID, select_gamma
from labeltree.datagen import read_feature_csv, write_dataset_csv
from labeltree.dissimilarity import (
    DECAY_SQUARED_BOUND,
    build_schedule,
    consistency_check,
    consistency_report_from_matrix,
    dissimilarity_matrix,
)
from labeltree.embedding import (
    embed_tree,
    embedded_consistency_check,
    write_json,
    write_matrix_csv,
)
from labeltree.hierarchy import Tree
from labeltree.metrics import evaluate, h_fmeasure, hierarchical_loss

seeds = st.integers(0, 100_000)

# A draw of the descent test on which a full-width walk took a later child
# at a zeroed parent block (row 37 took the third child of n28).
PINNED_TIE_SEED = 419


def random_dataset(tree, rng, n, p=3):
    """Labels drawn uniformly over leaves, features around per-leaf means."""
    means = rng.normal(size=(tree.n_leaf, p))
    codes = rng.integers(0, tree.n_leaf, size=n)
    X = means[codes] + rng.normal(scale=0.7, size=(n, p))
    return LabeledDataset(X, tuple(tree.leaves[c] for c in codes), tree)


def leftmost_path(tree):
    path = [tree.root]
    while tree.children(path[-1]):
        path.append(tree.children(path[-1])[0])
    return tuple(path)


# Closed forms sum per leaf, then scatter to nodes through the sibling
# pairs, so their coefficients match the per-sample oracle to rounding only.
COEF_RTOL = 1e-12


def assert_coef_close(got, want):
    """Coefficients within ``COEF_RTOL`` of the largest one."""
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    assert float(np.max(np.abs(got - want))) <= COEF_RTOL * scale


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_linear_fit_within_1e12_of_oracle_label_coefficients(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, n=25)
    U = oracles.label_coefficients(table, ds)
    fit_intercept = bool(rng.integers(2))
    B = U.T @ np.hstack([np.ones((ds.n, 1)), ds.X]) / ds.n
    if not fit_intercept:
        B[:, 0] = 0.0
    model = train_linear(ds, table, lam=0.5, fit_intercept=fit_intercept)
    assert_coef_close(model.coef, -B / (2.0 * 0.5))
    if not fit_intercept:
        assert np.all(model.coef[:, 0] == 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_sibling_pairs_equal_oracle_hinge_rows_bitwise(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree, decay=float(rng.uniform(1.5, 3.0)))
    V, nodes = table.node_matrix, tree.nodes
    for codes in (
        rng.integers(0, tree.n_leaf, size=tree.n_leaf + 5),  # repeats every time
        np.array([rng.integers(tree.n_leaf)]),
        np.arange(tree.n_leaf),
    ):
        sample, parent, true, sib = _sibling_pairs(tree, codes)
        want_D, want_mask = oracles.hinge_terms(table, codes)
        assert sample.size == want_mask.sum()
        assert np.all(np.diff(sample) >= 0)
        for p, t, s in zip(parent.tolist(), true.tolist(), sib.tolist()):
            assert tree.parent(nodes[t]) == tree.parent(nodes[s]) == nodes[p]
        rows = V[true] - V[sib]
        for i in range(len(codes)):
            # the sample's pairs are exactly the oracle rows it owns, in order
            np.testing.assert_array_equal(rows[sample == i], want_D[want_mask[:, i]])


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
@example(seed=PINNED_TIE_SEED)
def test_descent_equals_oracle_and_ties_take_first_child(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    n = 40
    F = rng.normal(size=(n, table.dimension))
    # Zeroing a parent's coordinate block ties all of its children, so those
    # rows must take the first child.  The oracle compares at full width,
    # where the rounding of the shared parent term can break such a tie, so
    # it is the reference only for rows whose path crosses no zeroed block.
    for start, stop in table.block_layout.values():
        F[rng.random(n) < 0.3, start:stop] = 0.0
    F[0] = 0.0
    expected = oracles.descend(table, F)
    got = _descend(table, F)
    for i, path in enumerate(tree.leaf_paths[c] for c in got.tolist()):
        tied = False
        for parent, child in zip(path, path[1:]):
            start, stop = table.block_layout[parent]
            if not F[i, start:stop].any():
                tied = True
                assert child == tree.children(parent)[0], (i, parent)
        if not tied:
            assert path == expected[i], i
        assert _descend(table, F[i : i + 1])[0] == got[i], i
    assert tree.leaf_paths[got[0]] == expected[0] == leftmost_path(tree)

    zero = LinearModel(np.zeros((table.dimension, 1)), table, "linear")
    assert predict_paths(zero, np.zeros((3, 0))) == [leftmost_path(tree)] * 3


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_select_gamma_same_gamma_and_fits_within_1e12_of_oracle(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    train, val = random_dataset(tree, rng, 30), random_dataset(tree, rng, 30)
    grid = tuple(rng.choice([0.05, 0.3, 1.0, 2.5, 8.0, 30.0], size=4))
    fit_intercept = bool(rng.integers(2))

    gamma, model = select_gamma(train, val, table, grid, fit_intercept=fit_intercept)
    want_gamma, want = oracles.select_gamma(train, val, table, grid, fit_intercept)
    assert gamma == want_gamma
    assert_coef_close(model.coef, want.coef)
    for g, fitted in weighted_linear_fits(
        train, table, grid, lam=0.7, fit_intercept=fit_intercept
    ):
        direct = oracles.train_weighted_linear(
            train, table, gamma=g, lam=0.7, fit_intercept=fit_intercept
        )
        assert_coef_close(fitted.coef, direct.coef)
        assert (fitted.loss, fitted.gamma) == (direct.loss, direct.gamma)
    single = train_weighted_linear(train, table, gamma=grid[0], lam=0.7)
    assert_coef_close(
        single.coef,
        oracles.train_weighted_linear(train, table, gamma=grid[0], lam=0.7).coef,
    )


# The default grid plus the exponents NumPy raises by a fast path.
GRID_WITH_FAST_POWERS = TUNING_GRID + (0.5, 2.0)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_grid_fits_equal_one_gamma_fits_bitwise(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, 30)
    lam, fit_intercept = float(rng.choice([0.3, 1.0])), bool(rng.integers(2))

    fits = weighted_linear_fits(ds, table, GRID_WITH_FAST_POWERS, lam, fit_intercept)
    for gamma, (g, fitted) in zip(GRID_WITH_FAST_POWERS, fits, strict=True):
        single = train_weighted_linear(ds, table, gamma, lam, fit_intercept)
        assert g == gamma == fitted.gamma
        assert np.array_equal(fitted.coef, single.coef)
    base = train_linear(ds, table, fit_intercept=fit_intercept)
    rows = adaptive_weights(base, ds.X, GRID_WITH_FAST_POWERS)
    for gamma, row in zip(GRID_WITH_FAST_POWERS, rows, strict=True):
        assert np.array_equal(row, adaptive_weights(base, ds.X, gamma))


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_per_sample_risk_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, 25)
    model = LinearModel(rng.normal(size=(table.dimension, 4)), table, "linear")
    fns = {"linear": lambda u: -u, "hinge": lambda u: max(1.0 - u, 0.0)}
    for loss, fn in fns.items():
        np.testing.assert_allclose(
            per_sample_risk(model, ds, loss),
            oracles.per_sample_risk(model, ds, fn),
            rtol=1e-12,
            atol=1e-12,
        )
    D, mask = oracles.hinge_terms(table, ds.codes)
    gaps = model.score_matrix(ds.X) @ D.T
    for i, (x, path) in enumerate(zip(ds.X, ds.paths())):
        margin = hierarchy_margin(model, x, path)
        want = np.min(gaps[i, mask[:, i]])
        assert margin == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert (margin > 0) == (predict_topdown(model, x) == path), i


@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_train_hinge_no_worse_than_subgradient_oracle(seed, lam, fit_intercept):
    """The certified solve is at most the oracle's objective plus the gap tolerance."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=4)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, 30)
    # Nearly separable draws at lam=0.01 take up to ~4k iterations to
    # certify, so the budget leaves room: the comparison needs a certified fit.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        model = train_hinge(
            ds, table, lam, max_iter=20_000, fit_intercept=fit_intercept
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        oracle = oracles.train_hinge_subgradient(
            ds, table, lam, fit_intercept=fit_intercept
        )
    zero_obj = model.history[0]
    assert zero_obj == oracle.history[0]  # mean number of gaps per sample
    achieved = hinge_objective(model.coef, ds, table, lam)
    assert achieved == pytest.approx(model.history[-1], rel=1e-12)
    assert achieved <= hinge_objective(oracle.coef, ds, table, lam) + HINGE_TOL * zero_obj


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_evaluate_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    leaf_paths = [tree.path_of_leaf(leaf) for leaf in tree.leaves]
    a = rng.integers(0, tree.n_leaf, size=30)
    b = np.where(rng.random(30) < 0.3, a, rng.integers(0, tree.n_leaf, size=30))
    pairs = [(leaf_paths[i], leaf_paths[j]) for i, j in zip(a, b)]

    got = evaluate(pairs, tree).to_dict(include_timing=False)
    want = oracles.evaluate(pairs, tree)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=0, abs=1e-12), name
    for weighting in ("sib", "sub"):
        assert hierarchical_loss(pairs, tree, weighting) == pytest.approx(
            oracles.hierarchical_loss(pairs, tree, weighting), rel=0, abs=1e-12
        )
    assert h_fmeasure(pairs, tree) == pytest.approx(
        oracles.h_fmeasure(pairs), rel=0, abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_hierarchical_losses_equal_per_node_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    leaf_paths = tree.leaf_paths
    a = rng.integers(0, tree.n_leaf, size=40)
    b = np.where(rng.random(40) < 0.3, a, rng.integers(0, tree.n_leaf, size=40))
    pairs = [(leaf_paths[i], leaf_paths[j]) for i, j in zip(a, b)]
    report = evaluate(pairs, tree)
    assert (report.l_h_sib, report.l_h_sub) == oracles.hierarchical_losses(pairs, tree)


# Decays below and above the certification threshold, so that the draws
# meet monotonicity violations as well as clean trees.
DECAYS = (1.1, 1.3, 1.6, 2.0, math.sqrt(5.0))
assert min(DECAYS) ** 2 < DECAY_SQUARED_BOUND < max(DECAYS) ** 2


def assert_same_report(got, want):
    assert got == want
    assert got.summary() == want.summary()


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_ancestor_and_lca_matrices_equal_oracle(seed):
    tree = random_tree(np.random.default_rng(seed))
    lca, want = tree.lca_layer_matrix(), oracles.lca_layer_matrix(tree)
    assert lca.dtype == want.dtype
    np.testing.assert_array_equal(lca, want)
    want = oracles.leaf_ancestors(tree)
    assert tree.leaf_ancestors.dtype == want.dtype
    np.testing.assert_array_equal(tree.leaf_ancestors, want)
    assert not tree.leaf_ancestors.flags.writeable
    assert not tree.node_ancestors.flags.writeable


@settings(max_examples=40, deadline=None)
@given(seed=seeds, decay=st.sampled_from(DECAYS))
def test_certificate_equals_oracle(seed, decay):
    tree = random_tree(np.random.default_rng(seed))
    schedule = build_schedule(tree, base_weight=1.5, decay=decay)
    dist = oracles.dissimilarity_matrix(tree, schedule)
    np.testing.assert_array_equal(dissimilarity_matrix(tree, schedule), dist)
    assert_same_report(
        consistency_check(tree, schedule),
        oracles.consistency_report_from_matrix(
            tree, dist, decay_bound_met=schedule.meets_decay_bound
        ),
    )
    table = embed_tree(tree, base_norm=1.5, decay=decay)
    assert_same_report(
        embedded_consistency_check(table, tol=1e-12),
        oracles.consistency_report_from_matrix(
            tree,
            table.distance_matrix(),
            tol=1e-12,
            decay_bound_met=decay**2 >= DECAY_SQUARED_BOUND,
        ),
    )


def perturbed_distances(tree, rng):
    """Dissimilarities with coarse noise, so partners tie or disagree."""
    dist = dissimilarity_matrix(tree, build_schedule(tree, decay=1.3))
    return dist + np.round(rng.normal(scale=1e-9, size=dist.shape), 9)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_symmetry_audit_equals_oracle_on_perturbed_distances(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    dist = perturbed_distances(tree, rng)
    if rng.random() < 0.5:
        # infinite anchors, infinite partners and NaN pairs
        q = tree.q
        dist[rng.integers(0, q)] = np.inf
        dist[:, rng.integers(0, q)] = -np.inf
        dist[rng.integers(0, q, 3), rng.integers(0, q, 3)] = np.nan
    assert_same_report(
        consistency_report_from_matrix(tree, dist),
        oracles.consistency_report_from_matrix(tree, dist),
    )


@pytest.mark.parametrize("fill", [np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_witnesses_of_an_infinite_group_are_its_members(reference_tree, fill):
    # +inf fills the shallowest ancestor group and one pair of the next,
    # -inf the next group and one pair of the shallowest: each extreme is
    # then infinite and every member attains it
    tree = reference_tree
    lca = tree.lca_layer_matrix()
    dist = dissimilarity_matrix(tree, build_schedule(tree))
    whole, one = (1, 2) if fill > 0 else (2, 1)
    dist[lca == whole] = fill
    i, j = np.argwhere(np.triu(lca == one, k=1))[-1]
    dist[i, j] = dist[j, i] = fill
    report = consistency_report_from_matrix(tree, dist)
    assert_same_report(report, oracles.consistency_report_from_matrix(tree, dist))
    assert report.monotonicity_violations and report.symmetry_violations
    pos = {node: k for k, node in enumerate(tree.node_order)}
    for v in report.monotonicity_violations:
        for (a, b), t in ((v.pair_low, v.lca_low), (v.pair_high, v.lca_high)):
            assert pos[a] < pos[b] and lca[pos[a], pos[b]] == t
    for v in report.symmetry_violations:
        for node in (v.node_a, v.node_b):
            assert node != v.anchor and tree.layer(node) == v.other_layer
            assert lca[pos[v.anchor], pos[node]] == v.lca


def test_oracle_draws_meet_both_kinds_of_violation():
    mono = sym = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        for decay in DECAYS:
            report = consistency_check(tree, build_schedule(tree, decay=decay))
            mono += len(report.monotonicity_violations)
        sym += len(
            consistency_report_from_matrix(
                tree, perturbed_distances(tree, rng)
            ).symmetry_violations
        )
    assert mono > 0 and sym > 0


def assert_same_exports(tmp, table):
    for name, write, oracle_write in (
        ("e.csv", write_matrix_csv, oracles.write_matrix_csv),
        ("e.json", write_json, oracles.write_json),
    ):
        write(table, tmp / f"got-{name}")
        oracle_write(table, tmp / f"want-{name}")
        assert (tmp / f"got-{name}").read_bytes() == (tmp / f"want-{name}").read_bytes()


@settings(max_examples=25, deadline=None)
@given(seed=seeds, decay=st.sampled_from(DECAYS))
def test_exports_equal_oracle_bytes(tmp_path_factory, seed, decay):
    rng = np.random.default_rng(seed)
    base_norm = float(rng.uniform(0.1, 10))
    table = embed_tree(random_tree(rng), base_norm=base_norm, decay=decay)
    assert_same_exports(tmp_path_factory.mktemp("exports"), table)


def test_exports_quote_and_escape_node_ids_as_before(tmp_path):
    tree = Tree(
        "root, top",
        {
            "root, top": ["a,b", 'say "hi"', "caf\u00e9"],
            "caf\u00e9": ["\u00fcn\u00ef", "two\nlines", "tab\tback\\slash"],
        },
    )
    assert_same_exports(tmp_path, embed_tree(tree))


# Entries whose text or bits a value-keyed lookup would get wrong: a
# negative zero, the smallest subnormal and its negative, and values that
# repeat across rows.
SPECIAL_VALUES = (-0.0, 5e-324, -5e-324, 0.1, -0.1, 1e100, 2.0 / 3.0)


def hand_built_table(rng, finite=True):
    """A table whose node matrix mixes drawn values with special ones."""
    table = embed_tree(random_tree(rng))
    M = rng.choice(SPECIAL_VALUES, size=table.node_matrix.shape)
    M[rng.random(M.shape) < 0.5] = 0.0
    M[0] = 0.0  # the root's row
    M[1:, 0] = rng.normal(size=table.tree.q)
    if not finite:
        M[1, -1], M[-1, 0], M[-1, -1] = np.nan, np.inf, -np.inf
    M[1, 0], M[2, 0] = -0.0, 5e-324
    return dataclasses.replace(table, node_matrix=M)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_distance_matrix_equals_oracle_bits(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree, base_norm=float(rng.uniform(0.1, 10)))
    assert same_bits(table.distance_matrix(), oracles.distance_matrix(table))
    table = hand_built_table(rng)
    assert same_bits(table.distance_matrix(), oracles.distance_matrix(table))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, finite=st.booleans())
def test_exports_of_special_values_equal_oracle_bytes(tmp_path_factory, seed, finite):
    rng = np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("special")
    assert_same_exports(tmp, hand_built_table(rng, finite))
    rows = (tmp / "got-e.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].split(",")[1:3] == ["-0.0", "5e-324"]


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_dataset_csv_equals_oracle_bytes(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    tree = Tree("r", {"r": ["a,b", 'say "hi"', "two\nlines", "plain"]})
    n, p = int(rng.integers(1, 30)), int(rng.integers(0, 6))
    X = rng.normal(scale=10.0 ** rng.integers(-8, 8), size=(n, p))
    X[rng.random(X.shape) < 0.2] = rng.choice(SPECIAL_VALUES)
    labels = tuple(rng.choice(tree.leaves, size=n).tolist())
    dataset = LabeledDataset(X, labels, tree)
    tmp = tmp_path_factory.mktemp("dataset")
    write_dataset_csv(dataset, tmp / "got.csv")
    oracles.write_dataset_csv(dataset, tmp / "want.csv")
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


# Labels that need quoting, a comment character and non-ASCII text, and
# cells beyond SPECIAL_VALUES: a subnormal, the infinities and nan.
CSV_LABELS = (
    "a,b", 'say "hi"', "two\nlines", "crlf\r\nlabel", "#tag", "naïve ✓", "plain"
)
CSV_CELLS = SPECIAL_VALUES + (2.5e-310, math.inf, -math.inf, math.nan)


def csv_with_blank_lines(data, path, rng):
    """Write the rows of ``data`` one at a time, with blank lines between."""
    one = path.with_suffix(".row")
    X, labels, parts = data.X, data.labels, []
    for i in range(len(labels)):
        row = SimpleNamespace(X=X[i : i + 1], labels=labels[i : i + 1], p=data.p)
        write_dataset_csv(row, one)
        header, text = one.read_bytes().decode("utf-8").split("\r\n", 1)
        parts.append(text + "".join(rng.choice(["", "\r\n", "\n"], size=2)))
    path.write_bytes((header + "\r\n" + "".join(parts)).encode("utf-8"))


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_read_feature_csv_equals_oracle(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    n = 1 if rng.random() < 0.2 else int(rng.integers(1, 30))
    p = int(rng.integers(0, 6))
    X = rng.normal(scale=10.0 ** rng.integers(-8, 8), size=(n, p))
    special = rng.random(X.shape) < 0.3
    X[special] = rng.choice(CSV_CELLS, size=int(special.sum()))
    # LabeledDataset rejects non-finite features, which a feature CSV may hold
    labels = tuple(rng.choice(CSV_LABELS, size=n).tolist())
    data = SimpleNamespace(X=X, labels=labels, p=p)
    tmp = tmp_path_factory.mktemp("read")
    files = [tmp / "new.csv", tmp / "old.csv", tmp / "blank.csv"]
    write_dataset_csv(data, files[0])
    oracles.write_dataset_csv(data, files[1])
    csv_with_blank_lines(data, files[2], rng)
    for path in files:
        got_X, got_labels = read_feature_csv(path)
        want_X, want_labels = oracles.read_feature_csv(path)
        assert got_X.shape == want_X.shape == (n, p)
        assert np.array_equal(got_X.view(np.int64), want_X.view(np.int64))
        assert np.array_equal(got_X, X, equal_nan=True)
        assert got_labels == want_labels == data.labels


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_save_model_equals_json_dump_bytes(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree, decay=float(rng.uniform(1.5, 3.0)))
    coef = rng.normal(scale=10.0 ** rng.integers(-5, 5), size=(table.dimension, 4))
    if rng.random() < 0.3:
        # json writes non-finite floats as NaN and Infinity, not as repr
        coef[0, 0], coef[-1, -1] = np.nan, -np.inf
    gamma = None if rng.random() < 0.5 else float(rng.uniform(0, 10))
    model = LinearModel(coef, table, "weighted-linear", gamma=gamma, lam=0.25)
    tmp = tmp_path_factory.mktemp("model")
    save_model(model, tmp / "got.json")
    oracles.save_model(model, tmp / "want.json")
    assert (tmp / "got.json").read_bytes() == (tmp / "want.json").read_bytes()
