"""Fast paths against the reference implementations on random trees.

``conftest.random_tree`` draws trees with unbalanced leaf depths, so
paths of different lengths meet in every check.
"""

import contextlib
import hashlib
import itertools
import math
import warnings
from types import MappingProxyType, SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import labeltree.classifier as clf
import labeltree.datagen
import labeltree.dissimilarity
import labeltree.embedding
import oracles
from conftest import REFERENCE_DOC, fanout10_tree, random_children, random_tree, traced_peak
from labeltree.classifier import (
    HINGE_TOL,
    ConvergenceWarning,
    LabeledDataset,
    LinearModel,
    _augment,
    _child_coefs,
    _coefs_from_nodes,
    _descend,
    _select,
    _sibling_pairs,
    _sibling_scale,
    _validation_errors,
    adaptive_weights,
    hinge_fits,
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
from labeltree.cli import (
    EXAMPLE_DEFAULTS,
    HINGE_LAMBDA_GRID,
    TUNING_GRID,
    _rep_seed,
    read_truth,
    select_gamma,
    select_lambda,
)
from labeltree.datagen import (
    SyntheticSpec,
    example1_tree,
    example2_tree,
    generate,
    read_feature_csv,
    split_indices,
    write_dataset_csv,
)
from labeltree.dissimilarity import (
    DECAY_SQUARED_BOUND,
    _row_blocks,
    build_schedule,
    consistency_check,
    consistency_report_from_matrix,
    dissimilarity_matrix,
)
from labeltree.dual import _grams_by_child, _hinge_blocks, _hinge_packs
from labeltree.embedding import (
    _certify,
    _isometry_error,
    _largest,
    embed_tree,
    embedded_consistency_check,
    verify_isometry,
    write_json,
    write_matrix_csv,
)
from labeltree.hierarchy import Tree, parse_tree
from labeltree.metrics import evaluate, h_fmeasure, hierarchical_loss

seeds = st.integers(0, 100_000)

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
def test_population_direction_within_1e12_of_oracle(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree, decay=float(rng.uniform(1.5, 3.0)))
    leaves = rng.permutation(tree.n_leaf)[: int(rng.integers(1, tree.n_leaf + 1))]
    probs = dict(zip((tree.leaf_paths[c] for c in leaves), rng.dirichlet(np.ones(len(leaves)))))
    want = oracles.population_direction(probs, table)
    assert_coef_close(population_direction(probs, table), want)


def assert_newton_blocks_solve_dense(tree, ds, lam, rng, fit_intercept=True):
    """Each Newton solver's solves of the dense ``(Q + diag(sig)) x = r`` on its pairs.

    Two lambdas are solved as one stack, then each alone, as a grid's
    stacked and one-at-a-time solvers are.
    """
    table = embed_tree(tree, decay=float(rng.uniform(1.3, 2.7)))
    Xa = np.hstack([np.ones((ds.n, 1)), ds.X])
    if not fit_intercept:
        Xa[:, 0] = 0.0
    pairs = _sibling_pairs(tree, ds.codes)
    sample, parent, true, sib = (a[np.argsort(pairs[1], kind="stable")] for a in pairs)
    lams = np.array([lam, lam * 10.0 ** rng.uniform(-2.0, 2.0)])
    sig = 10.0 ** rng.uniform(-4.0, 4.0, size=(2, len(sample)))
    r = rng.normal(size=(2, len(sample)))
    V = table.node_matrix
    blocks = _hinge_blocks(table, Xa, sample, parent, true, sib, _sibling_scale(table))
    packs, order = _hinge_packs(table, Xa, blocks)
    assert np.array_equal(np.sort(order), np.arange(len(sample)))
    for pack in packs:
        at, solver = order[pack.pairs], pack.solver
        D = V[true[at]] - V[sib[at]]  # full-width gaps: other parents' pairs are orthogonal
        Z = (D[:, :, None] * Xa[sample[at]][:, None, :]).reshape(len(D), -1)
        for rows in ([0, 1], [0], [1]):
            failed = np.zeros(len(rows), dtype=bool)
            got = solver.factor(lams[rows], sig[rows][:, at])(r[rows][:, at], failed)
            assert not failed.any()
            for x, row in zip(got, rows):
                M = Z @ Z.T / (2.0 * lams[row]) + np.diag(sig[row, at])
                # backward error: the residual against the dense matrix, at rounding scale
                residual = np.abs(M @ x - r[row, at]).max()
                bound = 1e-10 * np.abs(M).sum(axis=1).max() * np.abs(x).max()
                assert residual <= bound, residual


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_newton_blocks_solve_the_dense_newton_matrix(seed):
    # small blocks solve in pair space, larger ones in coefficient space
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=4)
    ds = random_dataset(tree, rng, int(rng.integers(1, 60)), p=int(rng.integers(0, 4)))
    lam = float(10.0 ** rng.uniform(-3, 2))
    assert_newton_blocks_solve_dense(tree, ds, lam, rng, rng.random() < 0.7)


def test_newton_block_from_per_child_grams_solves_the_dense_newton_matrix():
    tree = Tree("r", {"r": list("abcdefg"), "a": ["a1", "a2"], "b": ["b1", "b2", "b3"]})
    assert _grams_by_child(600, 7) and not _grams_by_child(200, 7)
    rng = np.random.default_rng(5)
    for n in (200, 600):  # the root block's matrix built per sample, then per child
        ds = random_dataset(tree, rng, n, p=2)
        assert_newton_blocks_solve_dense(tree, ds, 0.01, rng, n == 600)


def test_large_blocks_get_solvers_of_their_own():
    # 15 features: with 12 samples the root's 72 pairs solve in pair space,
    # with 40 samples its 240 pairs in coefficient space, of order 96;
    # either is too large to stack
    tree = Tree("r", {"r": list("abcdefg"), "a": ["a1", "a2"], "b": ["b1", "b2", "b3"]})
    rng = np.random.default_rng(6)
    for n, kind in ((12, "_PairSpace"), (40, "_CoefSpace")):
        ds = random_dataset(tree, rng, n, p=15)
        Xa = np.hstack([np.ones((ds.n, 1)), ds.X])
        pairs = _sibling_pairs(tree, ds.codes)
        sample, parent, true, sib = (a[np.argsort(pairs[1], kind="stable")] for a in pairs)
        table = embed_tree(tree)
        blocks = _hinge_blocks(table, Xa, sample, parent, true, sib, _sibling_scale(table))
        packs = _hinge_packs(table, Xa, blocks)[0]
        assert [type(p.solver).__name__ for p in packs if not p.stacked] == [kind]
        assert_newton_blocks_solve_dense(tree, ds, 0.1, rng)


@pytest.mark.parametrize("decay", [1.3, 2.0, 2.7])
@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_sibling_scale_and_dual_steps_match_the_offset_products(decay, seed):
    # node rows centred over every sibling block, as the hinge dual's are
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree, decay=decay)
    G = rng.normal(size=(tree.q + 1, 4))
    for P in np.flatnonzero(tree.node_fanouts).tolist():
        kids = slice(tree.first_children[P], tree.first_children[P] + tree.node_fanouts[P])
        G[kids] -= G[kids].mean(axis=0)
    want = _child_coefs(table, _coefs_from_nodes(table, G))
    np.testing.assert_allclose(_sibling_scale(table)[:, None] * G, want, rtol=0, atol=1e-12)
    ds = random_dataset(tree, rng, n=int(rng.integers(1, 30)))
    Xa = np.hstack([np.ones((ds.n, 1)), ds.X])
    if rng.random() < 0.5:
        Xa[:, 0] = 0.0  # no intercept
    if rng.random() < 0.3:
        Xa[ds.codes == ds.codes[0]] = 0.0  # a parent may see zero rows only
    lam = float(rng.uniform(0.01, 10.0))
    want = oracles.dual_steps(table, Xa, ds.codes, lam)
    np.testing.assert_allclose(oracles.fista_steps(table, Xa, ds.codes, lam), want, rtol=1e-12)


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
def test_descent_equals_oracle_and_ties_take_first_child(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    n, p, G = 40, 3, int(rng.integers(1, 6))
    X = rng.normal(size=(n, p))
    Xa = np.hstack([np.ones((n, 1)), X])
    Xa[0] = 0.0  # every score of row 0 is zero: the leftmost path
    A = rng.normal(size=(G, table.dimension, p + 1))
    # Zeroing a parent's block of A gives its children exactly zero child
    # coefficients, so every row that reaches it must take the first child.
    blocks = list(table.block_layout.items())
    zeroed = rng.random((G, len(blocks))) < 0.3
    for g, b in zip(*np.nonzero(zeroed)):
        start, stop = blocks[b][1]
        A[g, start:stop] = 0.0
    got = np.stack([_descend(table, Xa, a) for a in A])
    assert got.shape == (G, n) and got.dtype == np.intp

    for g in range(G):
        cut = {blocks[b][0] for b in np.flatnonzero(zeroed[g])}
        for i, path in enumerate(tree.leaf_paths[c] for c in got[g].tolist()):
            for parent, child in zip(path, path[1:]):
                if parent in cut:
                    assert child == tree.children(parent)[0], (g, i, parent)
        assert tree.leaf_paths[got[g, 0]] == leftmost_path(tree)
        # the per-block walk over X~ A^T, and the full-width walk over the
        # embedded points, agree with it away from ties and near-ties
        model = LinearModel(A[g], table, "linear")
        want = oracles.descend_blocks(table, Xa @ A[g].T)
        full = oracles.descend(table, Xa @ A[g].T)
        near = near_tie_rows(model, X)
        for i in range(1, n):
            if i not in near:
                assert got[g, i] == want[i], (g, i)
                assert tree.leaf_paths[want[i]] == full[i], (g, i)
        assert np.array_equal(predict_codes(model, X[1:]), got[g, 1:])
        # a row walks alone as it walks with the others
        for i in range(n):
            assert _descend(table, Xa[i : i + 1], A[g]).tolist() == [got[g, i]], (g, i)
    # any split of the models into passes scores the descents' errors, bit for bit
    codes = rng.integers(0, tree.n_leaf, size=n)
    cuts = sorted(set(rng.integers(0, G + 1, size=3).tolist()) | {0, G})
    parts = [_validation_errors(table, Xa, codes, A[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == np.mean(got != codes, axis=1).tobytes()

    # each parent's stack is its children's rows of the node matrix on its block
    first, fanouts = tree.first_children, tree.node_fanouts
    assert set(table.sibling_blocks) == set(np.flatnonzero(fanouts).tolist())
    for P, (start, stack) in table.sibling_blocks.items():
        stop = table.block_layout[tree.nodes[P]][1]
        want = table.node_matrix[first[P] : first[P] + fanouts[P], start:stop]
        assert stack.tobytes() == want.tobytes() and stack.shape == want.shape
        assert stack.flags.c_contiguous and not stack.flags.writeable
    # C = O A: each node's offset from its parent times A
    offsets = table.node_matrix - table.node_matrix[np.maximum(tree.node_parents, 0)]
    for a, cut in zip(A, zeroed):
        C = _child_coefs(table, a)
        np.testing.assert_allclose(C, offsets @ a, rtol=0, atol=1e-12 * np.abs(a).max())
        for b in np.flatnonzero(cut):
            P = tree.nodes.index(blocks[b][0])
            assert not C[first[P] : first[P] + fanouts[P]].any()
    # and its transpose, A = O^T B, from node rows
    B = rng.normal(size=(tree.q + 1, p + 1))
    np.testing.assert_allclose(
        _coefs_from_nodes(table, B), offsets.T @ B, rtol=0, atol=1e-12 * np.abs(B).max()
    )

    zero = LinearModel(np.zeros((table.dimension, 1)), table, "linear")
    assert predict_paths(zero, np.zeros((3, 0))) == [leftmost_path(tree)] * 3


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_grid_descent_where_models_part_ways_equals_one_model_descents(seed):
    """Mixed fan-outs, parents reached by part of a pass, exact two-child ties."""
    rng = np.random.default_rng(seed)
    while True:  # fan-outs 2 and 3-4 below the root, 2 on the leftmost path
        tree = random_tree(rng)
        first, fanouts = tree.first_children, tree.node_fanouts
        left = [tree.nodes.index(v) for v in leftmost_path(tree)[1:]]
        inner = set(fanouts[1:].tolist()) - {0, 2}
        kids = range(first[0] + 1, first[0] + fanouts[0])
        c = next((k for k in kids if fanouts[k]), None)  # an internal later root child
        if 2 in fanouts[left] and inner and c is not None:
            break
    table = embed_tree(tree)
    n, p, G = 60, 3, int(rng.integers(3, 7))
    X = rng.normal(size=(n, p))
    Xa = np.hstack([np.ones((n, 1)), X])
    Xa[0] = 0.0  # every score of row 0 is zero: the leftmost path
    A = rng.normal(size=(G, table.dimension, p + 1))
    # The last model's zero scores tie everywhere: it takes the leftmost
    # path.  The one before sends every row but row 0 to root child c and
    # then ties below it, so c meets only part of the pass.
    A[-2:] = 0.0
    start, stack = table.sibling_blocks[0]
    A[-2, start : start + fanouts[0] - 1, 0] = stack[c - first[0]]
    zeroed = {}  # model -> parents whose zero block ties every child
    for g in range(G - 2):
        zeroed[g] = [P for P in table.sibling_blocks if P and rng.random() < 0.4]
    for g, parents in zeroed.items():
        for P in parents:
            start = table.sibling_blocks[P][0]
            A[g, start : start + fanouts[P] - 1] = 0.0
    zeroed[G - 1] = zeroed[G - 2] = [P for P in table.sibling_blocks if P]
    got = np.stack([_descend(table, Xa, a) for a in A])

    for g in range(G):
        model = LinearModel(A[g], table, "linear")
        assert np.array_equal(predict_codes(model, X[1:]), got[g, 1:])
        # scored on each model's own leaves, or another's, the pass's errors
        # are the descents' mismatches, bit for bit
        want = np.mean(got != got[g], axis=1)
        assert want[g] == 0.0
        assert _validation_errors(table, Xa, got[g], A).tobytes() == want.tobytes()
    ancestors = tree.leaf_ancestors[got]  # (G, n, depth) order indices
    for g, parents in zeroed.items():
        for P in parents:  # every row reaching a zeroed block takes the first child
            i, t = np.nonzero(ancestors[g] == P)
            assert np.all(ancestors[g][i, t + 1] == first[P]), (g, P)
    assert np.all(ancestors[-1] == ancestors[-1, :1])  # the leftmost path
    assert np.all(ancestors[:, 0] == ancestors[-1, 0])
    assert np.all(ancestors[-2, 1:, 1] == c) and not np.any(ancestors[-1] == c)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_validation_errors_equal_each_models_prediction_errors_for_any_passes(seed):
    """Mixed fan-outs and leaf depths, exact ties, models parting ways, missing leaves."""
    rng = np.random.default_rng(seed)
    while True:  # fan-outs 2 and 3-4, leaves on several layers, an internal later root child
        tree = random_tree(rng)
        first, fanouts = tree.first_children, tree.node_fanouts
        kids = range(first[0] + 1, first[0] + fanouts[0])
        c = next((k for k in kids if fanouts[k]), None)
        depths = {len(path) for path in tree.leaf_paths}
        if 2 in fanouts and fanouts.max() > 2 and len(depths) > 1 and c:
            break
    table = embed_tree(tree)
    p, fit_intercept = int(rng.integers(1, 5)), bool(rng.integers(2))
    n = 1 if rng.random() < 0.25 else int(rng.integers(2, 80))
    seen = rng.choice(tree.n_leaf, size=int(rng.integers(1, tree.n_leaf)), replace=False)
    codes = rng.choice(seen, size=n)  # some leaves have no validation row
    X = rng.normal(size=(n, p))
    if n > 1:
        X[rng.integers(n)] = 0.0  # every score zero: the leftmost path
    A = rng.normal(size=(int(rng.integers(2, 6)), table.dimension, p + 1))
    if not fit_intercept:
        A[..., 0] = 0.0
    for a in A:  # zero blocks tie every child, at two-child and larger parents
        for P, (start, stack) in table.sibling_blocks.items():
            if rng.random() < 0.3:
                a[start : start + len(stack) - 1] = 0.0
    # a model that ties everywhere, and one that sends every row to root
    # child c and ties below it, so the models part ways at the root
    part = np.zeros((2, table.dimension, p + 1))
    start, stack = table.sibling_blocks[0]
    part[0, start : start + fanouts[0] - 1, 0] = stack[c - first[0]]
    train = random_dataset(tree, rng, 20, p)
    fits = weighted_linear_fits(train, table, (0.3, 3.0), fit_intercept=fit_intercept)
    A = np.concatenate([A, part, [model.coef for _, model in fits]])
    A = A[rng.permutation(len(A))]
    Xa, G = _augment(X), len(A)
    Xa_before, codes_before = Xa.copy(), codes.copy()

    models = [LinearModel(a, table, "linear") for a in A]
    want = np.array([np.mean(predict_codes(model, X) != codes) for model in models])
    for floats in (clf._GRID_FLOATS, 1, int(rng.integers(1, 4 * (p + 1) * n + 2))):
        with mock.patch.object(clf, "_GRID_FLOATS", floats):  # model blocks of a node
            cuts = sorted(set(rng.integers(0, G + 1, size=3).tolist()) | {0, G})
            got = [_validation_errors(table, Xa, codes, A[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(got).tobytes() == want.tobytes(), (floats, cuts)
    assert np.array_equal(Xa, Xa_before) and np.array_equal(codes, codes_before)


# Sibling scores this close, relative to the largest either could reach,
# may order differently under fits that agree to COEF_RTOL only.
TIE_RTOL = 1e-9


def near_tie_rows(model, X) -> set[int]:
    """Rows whose descent meets a parent with its top two children near a tie."""
    table, F = model.table, model.score_matrix(X)
    rows = set()
    for i, path in enumerate(predict_paths(model, X)):
        for parent in path[:-1]:
            start, stack = table.sibling_blocks[table.tree.nodes.index(parent)]
            s = np.sort(F[i, start : start + stack.shape[1]] @ stack.T)
            bound = np.linalg.norm(F[i]) * np.linalg.norm(stack[0])
            if s[-1] - s[-2] <= TIE_RTOL * bound:
                rows.add(i)
    return rows


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
@example(seed=923)  # near-ties move the oracle's choice from 1.0 to 30.0
@example(seed=2126)  # one validation row on a near-tie at gamma = 2.5
def test_select_gamma_same_gamma_and_fits_within_1e12_of_oracle(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    train, val = random_dataset(tree, rng, 30), random_dataset(tree, rng, 30)
    grid = tuple(rng.choice([0.05, 0.3, 1.0, 2.5, 8.0, 30.0], size=4))
    fit_intercept = bool(rng.integers(2))

    gamma, model = select_gamma(train, val, table, grid, fit_intercept=fit_intercept)
    want_gamma, want = oracles.select_gamma(train, val, table, grid, fit_intercept)
    if gamma != want_gamma:
        # The choices may part only where a fit and its oracle predict a
        # validation row differently, and only on rows at a near-tie.
        parted = False
        for g, fitted in weighted_linear_fits(
            train, table, sorted(grid), fit_intercept=fit_intercept
        ):
            direct = oracles.train_weighted_linear(
                train, table, gamma=g, fit_intercept=fit_intercept
            )
            got, ref = predict_paths(fitted, val.X), predict_paths(direct, val.X)
            differ = {i for i, (a, b) in enumerate(zip(got, ref)) if a != b}
            assert differ <= near_tie_rows(fitted, val.X) | near_tie_rows(direct, val.X)
            parted |= bool(differ)
        assert parted
        want = oracles.train_weighted_linear(
            train, table, gamma=gamma, fit_intercept=fit_intercept
        )
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


def protocol_split(example, seed):
    """Training and validation blocks of a replication as ``run_benchmark`` draws them."""
    defaults = EXAMPLE_DEFAULTS[example]
    spec = SyntheticSpec(
        example=example,
        n_total=4 * defaults["n"],
        seed=_rep_seed(seed, 0),
        k=defaults["k"],
        p=defaults["p"],
        noise_rate=defaults["noise"],
    )
    tree, data = generate(spec)
    tr, va, _ = split_indices(data.n)
    train, val = (
        LabeledDataset(data.X[i], [data.labels[j] for j in i], tree) for i in (tr, va)
    )
    return train, val, embed_tree(tree)


@pytest.mark.parametrize("example, seed", [(1, 1000), (1, 2001), (2, 1000), (2, 3001)])
def test_selection_equals_per_model_oracle_on_protocol_seeds(example, seed):
    train, val, table = protocol_split(example, seed)
    gamma, model = select_gamma(train, val, table, TUNING_GRID, fit_intercept=False)
    fits = weighted_linear_fits(train, table, TUNING_GRID, fit_intercept=False)
    want_gamma, want = oracles.select("gamma", fits, val, TUNING_GRID)
    assert gamma == want_gamma and model.gamma == gamma
    assert np.array_equal(model.coef, want.coef)
    if example == 1:
        grid = HINGE_LAMBDA_GRID
        lam, model = select_lambda(train, val, table, grid, fit_intercept=False)
        fits = ((v, train_hinge(train, table, v, fit_intercept=False)) for v in grid)
        want_lam, want = oracles.select("lambda", fits, val, grid)
        assert lam == want_lam and model.lam == lam
        assert np.array_equal(model.coef, want.coef)


def test_select_gamma_memory_within_two_validation_matrices_of_oracle():
    train, val, table = protocol_split(2, 1000)
    select_gamma(train, val, table, TUNING_GRID[:2], fit_intercept=False)  # warm caches
    peak = traced_peak(
        lambda: select_gamma(train, val, table, TUNING_GRID, fit_intercept=False)
    )
    fits = lambda: weighted_linear_fits(train, table, TUNING_GRID, fit_intercept=False)
    want = traced_peak(lambda: oracles.select("gamma", fits(), val, TUNING_GRID))
    assert peak <= want + 2 * val.n * (val.p + 1) * 8, (peak, want)


def test_selection_ties_resolve_to_the_smallest_value_across_passes(reference_tree):
    table = embed_tree(reference_tree)
    rng = np.random.default_rng(8)
    val = random_dataset(reference_tree, rng, 25)
    base = rng.normal(size=(table.dimension, 4))
    grid = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    # power-of-two rescalings scale every score exactly, so every
    # validation error ties
    models = [LinearModel(base * 2.0**k, table, "linear") for k in range(len(grid))]
    value, model = _select("gamma", table, zip(grid, models), val, grid)
    assert value == 0.1 and model is models[0]
    want_value, want = oracles.select("gamma", zip(grid, models), val, grid)
    assert (want_value, want) == (value, model)


def test_selection_ties_resolve_to_the_smallest_value_across_small_floor_passes(
    reference_tree, monkeypatch
):
    """With the size floor patched down, the ties of the test above span passes."""
    monkeypatch.setattr(clf, "_GRID_FLOATS", 1)
    passes, score = [], clf._validation_errors

    def spy(table, Xa, codes, A):
        passes.append(len(A))
        return score(table, Xa, codes, A)

    monkeypatch.setattr(clf, "_validation_errors", spy)
    table = embed_tree(reference_tree)
    rng = np.random.default_rng(8)
    # passes of n_val // dimension = 2 models
    val = random_dataset(reference_tree, rng, 2 * table.dimension + 1)
    base = rng.normal(size=(table.dimension, 4))
    grid = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    models = [LinearModel(base * 2.0**k, table, "linear") for k in range(len(grid))]
    value, model = _select("gamma", table, zip(grid, models), val, grid)
    assert passes == [2, 2, 2, 1]
    assert value == 0.1 and model is models[0]


def closed_form_widths(monkeypatch):
    """Column counts of every ``_closed_form`` call from now on."""
    widths, closed_form = [], clf._closed_form

    def spy(table, leaves, sums):
        widths.append(sums.shape[1])
        return closed_form(table, leaves, sums)

    monkeypatch.setattr(clf, "_closed_form", spy)
    return widths


@pytest.mark.parametrize("chunk, seed", [(1, 0), (2, 1), (3, 2), (3, 3)])
def test_grid_chunks_equal_one_gamma_fits_bitwise(chunk, seed, monkeypatch):
    """Chunks of 1, 2 and 3 gammas (7 = 3 + 3 + 1) fit each gamma as it fits alone."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, 30)
    grid = (0.1, 0.5, 1.0, 2.0, 3.3, 10.0, 40.0)
    fit_intercept = bool(seed % 2)
    monkeypatch.setattr(clf, "_GRID_FLOATS", chunk * (tree.q + 1) * (ds.p + 1))
    widths = closed_form_widths(monkeypatch)
    fits = list(weighted_linear_fits(ds, table, grid, 0.3, fit_intercept))
    sizes = [chunk] * (len(grid) // chunk) + [len(grid) % chunk] * (len(grid) % chunk > 0)
    assert widths == [ds.p + 1] + [size * (ds.p + 1) for size in sizes]
    for gamma, (g, fitted) in zip(grid, fits, strict=True):
        single = train_weighted_linear(ds, table, gamma, 0.3, fit_intercept)
        assert g == gamma == fitted.gamma
        assert fitted.coef.flags.c_contiguous
        assert np.array_equal(fitted.coef, single.coef)


@pytest.mark.parametrize("example, passes, chunk", [(1, [41], 41), (2, [21, 20], 3)])
def test_grid_batches_take_the_whole_small_grid_and_leave_large_ones(
    example, passes, chunk, monkeypatch
):
    """Design 1 selects gamma in one chunk and one pass; design 2 in chunks of 3 gammas."""
    train, val, table = protocol_split(example, 1000)
    assert val.n == {1: 50, 2: 2000}[example]
    scored, score = [], clf._validation_errors

    def spy(table, Xa, codes, A):
        scored.append(len(A))
        return score(table, Xa, codes, A)

    monkeypatch.setattr(clf, "_validation_errors", spy)
    widths = closed_form_widths(monkeypatch)
    select_gamma(train, val, table, TUNING_GRID, fit_intercept=False)
    assert scored == passes
    # the base fit, then 1 chunk of 41 gammas or 13 chunks of 3 and one of 2
    sizes = [chunk] * (41 // chunk) + [41 % chunk] * (41 % chunk > 0)
    assert widths == [train.p + 1] + [size * (train.p + 1) for size in sizes]


@pytest.mark.parametrize("case", ["design 1", "design 2", 0, 1, 2, 3])
def test_selection_pass_stack_within_validation_features_or_grid_floats(
    case, monkeypatch
):
    """A pass's stack holds at most ``max(n_val (p + 1), _GRID_FLOATS)`` floats."""
    if isinstance(case, str):
        train, val, table = protocol_split(int(case[-1]), 1000)
        fits = weighted_linear_fits(train, table, TUNING_GRID, fit_intercept=False)
        grid = TUNING_GRID
    else:  # a random grid floor, and at least dimension validation rows
        rng = np.random.default_rng(case)
        tree = random_tree(rng)
        table = embed_tree(tree)
        p = int(rng.integers(1, 6))
        val = random_dataset(tree, rng, int(rng.integers(1, 6)) * table.dimension, p)
        width = table.dimension * (p + 1)
        monkeypatch.setattr(clf, "_GRID_FLOATS", int(rng.integers(1, 4 * width)))
        grid = tuple(range(1, 30))
        coefs = rng.normal(size=(len(grid), table.dimension, p + 1))
        fits = ((v, LinearModel(c, table, "linear")) for v, c in zip(grid, coefs))
    floats, score = [], clf._validation_errors

    def spy(table, Xa, codes, A):
        floats.append(A.size)
        return score(table, Xa, codes, A)

    monkeypatch.setattr(clf, "_validation_errors", spy)
    _select("gamma", table, fits, val, grid)
    assert sum(floats) == len(grid) * table.dimension * (val.p + 1)
    assert max(floats) <= max(val.n * (val.p + 1), clf._GRID_FLOATS), floats


def test_select_gamma_memory_on_design_1_within_one_grid_batch_of_oracle():
    train, val, table = protocol_split(1, 1000)
    select_gamma(train, val, table, TUNING_GRID[:2], fit_intercept=False)  # warm caches
    peak = traced_peak(
        lambda: select_gamma(train, val, table, TUNING_GRID, fit_intercept=False)
    )
    fits = lambda: weighted_linear_fits(train, table, TUNING_GRID, fit_intercept=False)
    want = traced_peak(lambda: oracles.select("gamma", fits(), val, TUNING_GRID))
    bound = want + clf._GRID_FLOATS * 8 + 2 * val.n * (val.p + 1) * 8
    assert peak <= bound, (peak, want)


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


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_adaptive_weights_gram_form_within_1e14_of_score_norms(seed):
    """The weights read ``|A x~|**2`` from the Gram ``A^T A``, not from ``X~ A^T``.

    At gamma = 2 a weight ``1 / (1 + |A x~|**2)`` depends on the squared
    norm alone, the quantity the Gram form computes; another gamma would
    scale a small norm's relative rounding by ``gamma / 2``.
    """
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, int(rng.integers(1, 60)), int(rng.integers(0, 5)))
    for fit_intercept in (True, False):
        base = train_linear(ds, table, fit_intercept=fit_intercept)
        got, want = adaptive_weights(base, ds.X, 2.0), oracles.adaptive_weights(base, ds.X, 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    zero = LinearModel(np.zeros_like(base.coef), table, "linear")
    assert np.all(adaptive_weights(zero, ds.X, (0.05, 1.0, 2.0, 30.0)) == 1.0)


@pytest.mark.parametrize("gamma", [0.05, 30.0])
def test_adaptive_weights_gram_form_within_1e12_of_score_norms_away_from_2(gamma):
    """The Gram form at gammas far from 2, over seeds 0-299 and both intercepts.

    A weight ``1 / (1 + r**gamma)`` passes the squared norm's relative
    rounding on scaled by ``gamma / 2``, which grows as the norm shrinks
    against ``|A| |x~|``.  The worst relative gaps over these seeds are
    3.7e-13 at gamma = 0.05 and 3.6e-14 at gamma = 30.
    """
    for seed in range(300):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        table = embed_tree(tree)
        ds = random_dataset(tree, rng, int(rng.integers(1, 60)), int(rng.integers(0, 5)))
        for fit_intercept in (True, False):
            base = train_linear(ds, table, fit_intercept=fit_intercept)
            got, want = adaptive_weights(base, ds.X, gamma), oracles.adaptive_weights(base, ds.X, gamma)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"seed {seed}")


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
    linear = per_sample_risk(model, ds, "linear")
    for i, (x, path) in enumerate(zip(ds.X, ds.paths())):
        want = gaps[i, mask[:, i]]
        assert linear[i] == pytest.approx(-want.sum(), rel=1e-12, abs=1e-12)
        assert (want.min() > 0) == (predict_topdown(model, x) == path), i


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
    # The budget leaves room: the comparison needs a certified fit.
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
    achieved = oracles.hinge_objective(model.coef, ds, table, lam)
    assert achieved == pytest.approx(model.history[-1], rel=1e-12)
    bound = oracles.hinge_objective(oracle.coef, ds, table, lam) + HINGE_TOL * zero_obj
    assert achieved <= bound


@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("lam", [1e-3, 1e-2, 1.0, 100.0])
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_train_hinge_no_worse_than_fista_oracle(seed, lam, fit_intercept):
    """Both dual solvers certify; the interior point is within the gap tolerance of FISTA."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=4)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, 30)
    pairs = len(_sibling_pairs(tree, ds.codes)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        model = train_hinge(ds, table, lam, fit_intercept=fit_intercept)
        # nearly separable draws at lam = 0.001 take FISTA up to ~6k iterations
        oracle = oracles.train_hinge_fista(
            ds, table, lam, max_iter=100_000, fit_intercept=fit_intercept
        )
    assert model.history[0] == oracle.history[0] == pairs / ds.n
    achieved = oracles.hinge_objective(model.coef, ds, table, lam)
    assert achieved == pytest.approx(model.history[-1], rel=1e-12)
    bound = oracles.hinge_objective(oracle.coef, ds, table, lam) + HINGE_TOL * pairs / ds.n
    assert achieved <= bound


# Largest coefficient difference between a lockstep grid fit and the
# one-lambda-at-a-time oracle, relative to the oracle's largest
# coefficient; 3.0e-10 was the worst of 900 fits (150 draws of these
# tests' kind, six lambdas each).
GRID_COEF_RTOL = 1e-8
GRID_LAMS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("max_iter", [3, 6, 100])
@pytest.mark.parametrize(
    "seed, n, p", [(41, 60, 3), (42, 90, 7), (43, 30, 0), (44, 80, 24), (46, 24, 24)]
)
def test_hinge_grid_matches_the_per_lambda_oracle(seed, n, p, max_iter, fit_intercept):
    """Each lambda of a lockstep grid fit takes the oracle's path.

    Fan-outs are mixed; lambda = 10 and 100 mostly certify at the probe,
    and a small ``max_iter`` leaves the small lambdas uncertified.  With
    24 features, large blocks are solved one lambda at a time: in
    coefficient space at 80 samples, in pair space at 24.
    """
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=4)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, n, p=p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        fits = list(hinge_fits(ds, table, GRID_LAMS[::-1], max_iter, fit_intercept))
    assert [lam for lam, _ in fits] == list(GRID_LAMS)
    warned = {float(str(w.message).split("lambda=")[1].split(" ")[0]) for w in caught}
    for lam, model in fits:
        with warnings.catch_warnings(record=True) as oracle_warned:
            warnings.simplefilter("always", ConvergenceWarning)
            oracle = oracles.train_hinge_ip(ds, table, lam, max_iter, fit_intercept)
        assert len(model.history) == len(oracle.history), lam
        assert (lam in warned) == bool(oracle_warned), lam
        tol = HINGE_TOL * oracle.history[0]
        assert abs(model.history[-1] - oracle.history[-1]) <= tol
        assert oracles.hinge_objective(model.coef, ds, table, lam) == pytest.approx(
            model.history[-1], rel=1e-12
        )
        scale = np.abs(oracle.coef).max()
        assert np.abs(model.coef - oracle.coef).max() <= GRID_COEF_RTOL * scale, lam


@pytest.mark.parametrize("lam", [0.001, 1.0, 100.0])
def test_train_hinge_is_the_one_point_grid(lam):
    rng = np.random.default_rng(45)
    tree = random_tree(rng, max_depth=4)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, 50, p=4)
    model = train_hinge(ds, table, lam)
    ((got_lam, fitted),) = hinge_fits(ds, table, (lam,))
    assert got_lam == lam
    assert np.array_equal(model.coef, fitted.coef)
    assert np.array_equal(model.history, fitted.history)


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
def test_ancestor_and_lca_matrices_equal_oracle(seed, reference_tree, two_leaf_tree):
    tree = random_tree(np.random.default_rng(seed))
    lca, want = tree.lca_layer_matrix(), oracles.lca_layer_matrix(tree)
    assert lca.dtype == np.int8  # entries never exceed the depth
    np.testing.assert_array_equal(lca, want)
    for n in (1, 7, 118):
        for a in range(0, tree.q, n):
            rows = slice(a, min(a + n, tree.q))
            block = tree.lca_layers(rows)
            assert block.dtype == np.int8
            np.testing.assert_array_equal(block, want[rows])
    want = oracles.leaf_ancestors(tree)
    assert tree.leaf_ancestors.dtype == want.dtype
    np.testing.assert_array_equal(tree.leaf_ancestors, want)
    assert not tree.leaf_ancestors.flags.writeable
    assert not tree.node_ancestors.flags.writeable
    # the shape arrays agree with the string API, node by node
    for t in (tree, reference_tree, two_leaf_tree):
        layers, parents, fanouts = t.node_layers, t.node_parents, t.node_fanouts
        first, sizes, nodes = t.first_children, t.subtree_sizes, t.nodes
        for arr in (layers, parents, fanouts, first, sizes):
            assert arr.shape == (t.q + 1,) and not arr.flags.writeable
        want = oracles.dict_tree(t)
        for i, node in enumerate(nodes):
            parent = t.parent(node)
            assert parents[i] == (-1 if parent is None else nodes.index(parent))
            kids = range(first[i], first[i] + fanouts[i])
            assert tuple(nodes[k] for k in kids) == t.children(node)
            assert layers[i] == t.layer(node) == want.layer(node)
            assert sizes[i] == want.subtree_size(node) == 1 + sum(sizes[k] for k in kids)


def outcome(call, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_tree_accessors_equal_dict_oracle(seed):
    rng = np.random.default_rng(seed)
    children = random_children(rng)
    tree, want = Tree("n0", children), oracles.DictTree("n0", children)
    assert tree.nodes == want.nodes
    for node in (*tree.nodes, "unknown"):
        for name in ("children", "parent", "is_leaf"):
            got = outcome(getattr(tree, name), node)
            assert got == outcome(getattr(want, name), node) and type(got) is not np.bool_
    # the integer arrays against the oracle's index tuples, ancestors and LCAs
    first, nodes = tree.first_children, tree.nodes
    lca = tree.lca_layer_matrix()
    for i, node in enumerate(tree.node_order, start=1):
        m = tree.node_layers[i]
        assert m == want.layer(node)
        line = tree.node_ancestors[i - 1, :m]
        assert (1, *(line[1:] - first[line[:-1]] + 1).tolist()) == want.index_tuple(node)
        ancestors = [want.ancestor_at_layer(node, t) for t in range(1, m + 1)]
        assert [nodes[k] for k in line] == ancestors
        assert (tree.node_ancestors[i - 1, m:] == -1).all()
        assert tree.subtree_sizes[i] == want.subtree_size(node)
    for (i, a), (j, b) in itertools.product(enumerate(tree.node_order), repeat=2):
        assert lca[i, j] == want.lca_layer(a, b)
    doc = want.document().encode("utf-8")
    assert tree.document().encode("utf-8") == doc
    assert tree.sha256() == hashlib.sha256(doc).hexdigest()
    # equality against a reparse and against two siblings of one parent swapped
    again = parse_tree(tree.document())
    parent = list(children)[int(rng.integers(len(children)))]
    kids = children[parent]
    i, j = rng.choice(len(kids), size=2, replace=False)
    kids[i], kids[j] = kids[j], kids[i]
    swapped, want_swapped = Tree("n0", children), oracles.DictTree("n0", children)
    assert again == tree and hash(again) == hash(tree)
    assert (tree == swapped) == (want == want_swapped) is False
    assert (tree != swapped) is True


def test_tree_equality_compares_parents_beyond_node_order():
    # both trees list r, a, b, c, d; only the parent of c and d differs
    t1, t2 = parse_tree("r: a b\na: c d\n"), parse_tree("r: a b\nb: c d\n")
    want1 = oracles.DictTree("r", {"r": ["a", "b"], "a": ["c", "d"]})
    want2 = oracles.DictTree("r", {"r": ["a", "b"], "b": ["c", "d"]})
    assert t1.nodes == t2.nodes
    assert (t1 == t2) == (want1 == want2) is False


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


@pytest.mark.parametrize("decay", [1.3, 2.0, 2.7, math.sqrt(5.0)])
@settings(max_examples=25, deadline=None)
@given(seed=seeds, base_weight=st.sampled_from([1.0, 2.0, 3.0]))
def test_schedule_equals_per_parent_formula_bitwise(decay, seed, base_weight):
    tree = random_tree(np.random.default_rng(seed))
    schedule = build_schedule(tree, base_weight, decay)
    levels, sibling = oracles.schedule_weights(tree, base_weight, decay)
    assert schedule.level_weights == tuple(levels)
    by_index = np.array([sibling.get(node, 0.0) for node in tree.nodes])
    assert same_bits(schedule.sibling_weights, by_index)
    want = oracles.dissimilarity_matrix(tree, schedule)
    for blocks in row_block_sizes(tree.q):
        with blocks:
            assert same_bits(dissimilarity_matrix(tree, schedule), want)


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
    """A table whose node matrix mixes drawn values with special ones.

    The matrix goes in the table's cached slot, so every view read after it,
    ``vectors`` included, is built from it.
    """
    table = embed_tree(random_tree(rng))
    M = rng.choice(SPECIAL_VALUES, size=table.node_matrix.shape)
    M[rng.random(M.shape) < 0.5] = 0.0
    M[0] = 0.0  # the root's row
    M[1:, 0] = rng.normal(size=table.tree.q)
    if not finite:
        M[1, -1], M[-1, 0], M[-1, -1] = np.nan, np.inf, -np.inf
    M[1, 0], M[2, 0] = -0.0, 5e-324
    M.setflags(write=False)
    table.__dict__["node_matrix"] = M
    return table


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def row_block_sizes(q, *rows):
    """Contexts for the default row blocks of a q-wide pass, then blocks of
    each of ``rows`` rows; by default one row a block, two rows (the last
    block ragged for odd ``q``) and ``q - 1`` rows then a one-row block."""
    sizes = [
        mock.patch.object(labeltree.dissimilarity, "_BLOCK_FLOATS", n * q)
        for n in rows or (1, 2, q - 1)
    ]
    return [contextlib.nullcontext(), *sizes]


def gram_by_blocks(table):
    """The node vectors' product as the row blocks of a q-wide pass make it."""
    pts, q = table.node_matrix[1:], table.tree.q
    return np.concatenate([pts[rows] @ pts.T for rows in _row_blocks(q, q)])


def assert_views_equal_cursor_walk(tree, base_norm, decay):
    """Every view of the table is the reference walk's, bit for bit."""
    table = embed_tree(tree, base_norm=base_norm, decay=decay)
    want = oracles.embed_tree(tree, base_norm=base_norm, decay=decay)
    assert table.layer_norms == want.layer_norms
    assert list(table.sibling_blocks) == list(want.sibling_blocks)
    for P, (start, stack) in table.sibling_blocks.items():
        assert start == want.sibling_blocks[P][0]
        assert same_bits(stack, want.sibling_blocks[P][1])
        assert stack.flags.c_contiguous and not stack.flags.writeable
    # one shared stack per distinct (fan-out, layer)
    fanouts, layers = tree.node_fanouts, tree.node_layers
    kinds = {(fanouts[P], layers[P]) for P in table.sibling_blocks}
    assert len({id(s) for _, s in table.sibling_blocks.values()}) == len(kinds)
    assert "node_matrix" not in table.__dict__
    assert same_bits(table.node_matrix, want.node_matrix)
    assert not table.node_matrix.flags.writeable
    assert list(table.block_layout.items()) == list(want.block_layout.items())
    assert list(table.layer_dims.items()) == list(want.layer_dims.items())
    assert {type(v) for span in table.block_layout.values() for v in span} == {int}
    for node, row in zip(tree.node_order, table.node_matrix[1:]):
        vec = table.vectors[node]
        assert same_bits(vec, row) and np.shares_memory(vec, table.node_matrix)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    decay=st.sampled_from(DECAYS + (2.7,)),
    base_norm=st.sampled_from((1.0, 0.37)) | st.floats(0.1, 10.0),
)
def test_table_views_equal_cursor_walk_bitwise(seed, decay, base_norm):
    tree = random_tree(np.random.default_rng(seed))
    assert_views_equal_cursor_walk(tree, base_norm, decay)


@pytest.mark.parametrize(
    "make_tree",
    [lambda: example1_tree(3), lambda: example1_tree(5), example2_tree, fanout10_tree],
    ids=["design1-k3", "design1-k5", "design2", "ten-ary"],
)
def test_design_table_views_equal_cursor_walk_bitwise(make_tree):
    tree = make_tree()
    for decay in (1.3, 2.0, 2.7, math.sqrt(5.0)):
        for base_norm in (1.0, 0.37):
            assert_views_equal_cursor_walk(tree, base_norm, decay)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_distance_matrix_equals_oracle_bits(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    base_norm = float(rng.uniform(0.1, 10))
    table = embed_tree(tree, base_norm=base_norm)
    # the one-product oracle rounds its products otherwise, in the last bits
    whole = oracles.distance_matrix(table)
    for blocks in row_block_sizes(tree.q):
        with blocks:
            got = table.distance_matrix()
            assert same_bits(got, oracles.distance_matrix(table, gram_by_blocks(table)))
            assert np.max(np.abs(got - whole)) <= 1e-14 * base_norm
    table = hand_built_table(rng)
    for blocks in row_block_sizes(table.tree.q):
        with blocks:
            want = oracles.distance_matrix(table, gram_by_blocks(table))
            assert same_bits(table.distance_matrix(), want)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_isometry_error_is_the_one_shot_max_and_keeps_nan_and_inf(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    ratio = float(rng.uniform(0.1, 10))
    target = dissimilarity_matrix(tree, build_schedule(tree, base_weight=ratio))
    dist = embed_tree(tree).distance_matrix()
    dist += rng.normal(scale=10.0 ** rng.integers(-16, -2), size=dist.shape)
    q = tree.q
    # a random cell, and one in the last row, which is in the last block
    cells = [tuple(rng.integers(0, q, 2)), (q - 1, int(rng.integers(0, q)))]
    one_shot = np.max(np.abs(dist * ratio - target))

    def by_blocks(target, dist):
        return _largest([_isometry_error(ratio, target[r], dist[r]) for r in _row_blocks(q, q)])

    for blocks in row_block_sizes(q):
        with blocks:
            assert by_blocks(target, dist) == one_shot
            for cell, which, value in itertools.product(
                cells, ("target", "dist"), (np.nan, np.inf, -np.inf)
            ):
                got = {"target": target.copy(), "dist": dist.copy()}
                got[which][cell] = value
                err = by_blocks(got["target"], got["dist"])
                assert math.isnan(err) if np.isnan(value) else err == np.inf


def assert_same_verdicts_but_ties(got, want, rel=1e-14):
    """The same violated groups in both reports, so the same ``ok`` and counts.

    The exception is a tie within ``rel``: monotonicity is strict, so two
    groups whose extremes are equal in exact arithmetic are told apart by
    the last bits of the products.  At decay 2 some trees have such ties
    (seeds 58 and 103 at one row a block).
    """
    assert got.tolerance == want.tolerance
    mono = [{(v.lca_low, v.lca_high): v for v in r.monotonicity_violations} for r in (got, want)]
    for key in mono[0].keys() ^ mono[1].keys():
        v = mono[0].get(key) or mono[1][key]
        assert v.value_high - v.value_low <= rel * abs(v.value_high), v
    sym = [{(v.anchor, v.other_layer, v.lca): v for v in r.symmetry_violations} for r in (got, want)]
    for key in sym[0].keys() ^ sym[1].keys():
        v = sym[0].get(key) or sym[1][key]
        assert abs(v.value_b - v.value_a - got.tolerance) <= rel * abs(v.value_b), v


@settings(max_examples=25, deadline=None)
@given(seed=seeds, decay=st.sampled_from(DECAYS))
@example(seed=58, decay=2.0)
@example(seed=103, decay=2.0)
def test_certificate_rows_equal_whole_matrix_oracle(seed, decay):
    """``_certify`` at the default blocks and at one and seven rows a block.

    Decays below the bound break monotonicity, so both reports locate
    witnesses in a second pass.  The dissimilarities keep every bit.  The
    distances' products round by their blocks' shape, so the point report
    is held to the oracle's verdicts, and bit for bit to the whole-matrix
    audit of the same rows.
    """
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    base = float(rng.uniform(0.5, 2.0))
    schedule, table = build_schedule(tree, base, decay), embed_tree(tree, base, decay)
    want_err, want_tree, want_point = oracles.certify(tree, schedule, table)
    bound_met = decay**2 >= DECAY_SQUARED_BOUND
    for blocks in row_block_sizes(tree.q, 1, 7):
        with blocks:
            max_err, tree_report, point_report = _certify(tree, schedule, table)
            assert_same_report(tree_report, want_tree)
            assert_same_verdicts_but_ties(point_report, want_point)
            assert abs(max_err - want_err) <= 1e-14
            # the public functions are calls of the same row functions
            target, dist = dissimilarity_matrix(tree, schedule), table.distance_matrix()
            assert verify_isometry(tree, schedule, table) == max_err
            assert float(np.max(np.abs(dist - target))) == max_err  # ratio 1
            assert_same_report(consistency_check(tree, schedule), tree_report)
            assert_same_report(embedded_consistency_check(table), point_report)
            assert_same_report(oracles.masked_audit(tree, dist, 1e-10, bound_met), point_report)
            assert_same_report(
                consistency_report_from_matrix(tree, dist, decay_bound_met=bound_met),
                point_report,
            )


def test_certificate_rows_meet_monotonicity_witnesses():
    # the draws above reach the second pass: at decay 1.1 every one of
    # these trees breaks monotonicity in both reports
    for seed in range(5):
        tree = random_tree(np.random.default_rng(seed))
        schedule, table = build_schedule(tree, decay=1.1), embed_tree(tree, decay=1.1)
        for blocks in row_block_sizes(tree.q, 1, 7):
            with blocks:
                _, tree_report, point_report = _certify(tree, schedule, table)
                assert tree_report.monotonicity_violations
                assert point_report.monotonicity_violations


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows_of", ["_dissimilarity_rows", "_distance_rows"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_rows_reach_the_isometry_error(monkeypatch, rows_of, value):
    tree = random_tree(np.random.default_rng(3))
    schedule, table, q = build_schedule(tree), embed_tree(tree), tree.q
    make = getattr(labeltree.embedding, rows_of)
    # a cell of a middle row, and one of the last row, in the last block
    for i, j in ((q // 2, 1), (q - 1, 0)):

        def poisoned(*args, i=i, j=j):
            fill = make(*args)

            def poisoned_fill(rows, out, lca):
                fill(rows, out, lca)
                if rows.start <= i < rows.stop:
                    out[i - rows.start, j] = value
                return out

            return poisoned_fill

        monkeypatch.setattr(labeltree.embedding, rows_of, poisoned)
        for blocks in row_block_sizes(q, 1, 7):
            with blocks:
                for err in (verify_isometry(tree, schedule, table), _certify(tree, schedule, table)[0]):
                    assert math.isnan(err) if np.isnan(value) else err == np.inf


def with_stacks(table, stacks):
    """``table`` with ``stacks[P]`` as parent ``P``'s stack, read-only.

    The stacks go in the table's cached slot before any view of them is
    built, so the node matrix the dense oracles read is built from them.
    """
    assert "node_matrix" not in table.__dict__
    for stack in stacks.values():
        stack.setflags(write=False)
    blocks = {P: (start, stacks[P]) for P, (start, _) in table.sibling_blocks.items()}
    table.__dict__["sibling_blocks"] = MappingProxyType(blocks)
    return table


def special_stacks_table(rng, finite=True):
    """A table whose stacks mix drawn values with :data:`SPECIAL_VALUES`.

    Parents of one fan-out and parity share a stack.  Unless ``finite``,
    the last parent's stack holds NaN and both infinities; the first two
    nodes' first coordinates are ``-0.0`` and ``5e-324``.
    """
    table = embed_tree(random_tree(rng))
    shared, stacks = {}, {}
    for P, (_, stack) in table.sibling_blocks.items():
        if (len(stack), P % 2) not in shared:
            S = rng.choice(SPECIAL_VALUES, size=stack.shape)
            S[rng.random(S.shape) < 0.5] = 0.0
            S[:, 0] = rng.normal(size=len(S))
            shared[len(stack), P % 2] = S
        stacks[P] = shared[len(stack), P % 2]
    if not finite:
        last = stacks[max(stacks)]
        last[0, -1], last[-1, 0], last[-1, -1] = np.nan, np.inf, -np.inf
    stacks[0][0, 0], stacks[0][1, 0] = -0.0, 5e-324
    return with_stacks(table, stacks)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, finite=st.booleans())
def test_exports_of_special_values_equal_oracle_bytes(tmp_path_factory, seed, finite):
    rng = np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("special")
    assert_same_exports(tmp, special_stacks_table(rng, finite))
    rows = (tmp / "got-e.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].split(",")[1:3] == ["-0.0", "5e-324"]


# Nonzero by bits, so none of them is a zero run: a negative zero, a
# subnormal of each sign, a normal value and a value with a long repr.
RUN_VALUES = (-0.0, 1e-310, -5e-324, 0.1, 2.0 / 3.0)


def zero_run_rows(rng, shape, start=0):
    """Rows of every zero-run shape the exports render, in turn.

    With ``k`` the row index plus ``start``, mod 6: no zeros; all zeros; a
    leading run; a trailing run; one entry between two runs; ``-0.0`` and
    ``0.0`` in alternation, so a negative zero sits between zero runs.
    """
    n_rows, n_cols = shape
    P = rng.choice(RUN_VALUES, size=shape)
    half = n_cols // 2
    for r in range(n_rows):
        k = (start + r) % 6
        if k == 1:
            P[r] = 0.0
        elif k == 2:
            P[r, : max(half, 1)] = 0.0
        elif k == 3:
            P[r, half + 1 :] = 0.0
        elif k == 4:
            P[r] = 0.0
            P[r, half] = rng.choice(RUN_VALUES)
        elif k == 5:
            P[r] = np.where(np.arange(n_cols) % 2, 0.0, -0.0)
    return P


def zero_run_table(tree, rng, by_coordinate):
    """A table whose stacks' rows, or columns, are :func:`zero_run_rows`.

    A node's row is its path's stack rows between zero runs, and a
    coordinate's row is a stack column spread over the children's
    subtrees.  The shapes run on from one parent's stack to the next, so
    all six occur even where every stack has fewer than six rows.
    """
    table, stacks, start = embed_tree(tree), {}, 0
    for P, (_, stack) in table.sibling_blocks.items():
        if by_coordinate:
            stacks[P] = np.ascontiguousarray(zero_run_rows(rng, stack.T.shape, start).T)
        else:
            stacks[P] = zero_run_rows(rng, stack.shape, start)
        start += stack.shape[by_coordinate]
    return with_stacks(table, stacks)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, by_coordinate=st.booleans())
def test_exports_of_zero_runs_equal_oracle_bytes(tmp_path_factory, seed, by_coordinate):
    rng = np.random.default_rng(seed)
    table = zero_run_table(random_tree(rng), rng, by_coordinate)
    assert_same_exports(tmp_path_factory.mktemp("runs"), table)


@pytest.mark.parametrize("by_coordinate", [False, True])
def test_exports_of_one_coordinate_equal_oracle_bytes(tmp_path, two_leaf_tree, by_coordinate):
    assert_same_exports(tmp_path, embed_tree(two_leaf_tree, base_norm=0.37))
    table = zero_run_table(two_leaf_tree, np.random.default_rng(5), by_coordinate)
    assert table.dimension == 1
    assert_same_exports(tmp_path, table)


# A comb: the path to e, f and g crosses every block, so their rows have
# a block at coordinate 0, path blocks with no zero between them and no
# zero run after the last coordinate's entry; b's row ends in a zero run.
COMB_DOC = "r: a b\na: c d\nc: e f g\n"


@pytest.mark.parametrize("by_coordinate", [False, True])
def test_exports_of_path_blocks_equal_oracle_bytes(tmp_path, by_coordinate):
    tree = parse_tree(COMB_DOC)
    table = embed_tree(tree)
    M, b, e = table.node_matrix, tree.nodes.index("b"), tree.nodes.index("e")
    assert [a for a, _ in table.sibling_blocks.values()] == [0, 1, 2]
    assert np.all(M[e] != 0)
    assert M[b, 0] != 0 and not np.any(M[b, 1:])
    assert_same_exports(tmp_path, table)
    for seed in range(6):
        table = zero_run_table(tree, np.random.default_rng(seed), by_coordinate)
        assert_same_exports(tmp_path, table)


def test_exports_of_fanout10_tree_equal_oracle_bytes(tmp_path):
    assert_same_exports(tmp_path, embed_tree(fanout10_tree()))


def ragged_trees():
    """The reference taxonomy (leaves on layers 3 and 4), then the first
    four random trees of seeds 0, 1, ... with leaves on three layers or more."""
    yield parse_tree(REFERENCE_DOC)
    drawn = (random_tree(np.random.default_rng(s), max_depth=6) for s in range(100))
    yield from itertools.islice(
        (t for t in drawn if len(set(t.node_layers[t.node_fanouts == 0])) > 2), 4
    )


@pytest.mark.parametrize("tree", ragged_trees(), ids=lambda tree: str(tree.q))
def test_dissimilarity_of_ragged_trees_equals_oracle_bits(tree):
    # leaves on several layers, so an ancestral pair's layers differ by one
    # or more and the ancestral correction crosses several layers
    leaf_layers = tree.node_layers[tree.node_fanouts == 0]
    assert len(set(leaf_layers)) > 1
    lca, layers = tree.lca_layer_matrix(), tree.node_layers[1:]
    anc, desc = np.nonzero((lca == layers[:, None]) & (layers[:, None] < layers))
    assert len(np.unique(layers[desc] - layers[anc])) > 1
    for decay in DECAYS:
        schedule = build_schedule(tree, base_weight=1.5, decay=decay)
        want = oracles.dissimilarity_matrix(tree, schedule)
        for blocks in row_block_sizes(tree.q):
            with blocks:
                assert same_bits(dissimilarity_matrix(tree, schedule), want)


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


@pytest.mark.parametrize("rows", [1, 7, 8])
@pytest.mark.parametrize("p", [0, 3])
def test_dataset_csv_chunks_equal_oracle_bytes(tmp_path, rows, p):
    # 24 rows in chunks of one row, of seven (a ragged last chunk) and of
    # eight (no partial chunk); non-finite cells need a plain namespace
    rng = np.random.default_rng(1000 * rows + p)
    X, labels = rng.choice(CSV_CELLS, size=(24, p)), rng.choice(CSV_LABELS, size=24)
    data = SimpleNamespace(X=X, labels=tuple(labels.tolist()), p=p)
    with mock.patch.object(labeltree.datagen, "_CSV_CHUNK_FLOATS", rows * max(p, 1)):
        write_dataset_csv(data, tmp_path / "got.csv")
    oracles.write_dataset_csv(data, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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


# Leaves whose labels need quoting, plain ones with a space and a '#', and
# two whose raw text is a quoted cell or a row's end: read as raw text,
# the cells '"q"' and 'cr' before a CRLF would wrongly name them.
TRUTH_TREE = Tree("r", {"r": ["in", *CSV_LABELS, '"q"', "cr\r"], "in": ["x1", "x2 sp"]})
PLAIN_LABELS = ("plain", "x1", "x2 sp", "#tag")


def truth_outcome(read, path):
    """What ``read(path, TRUTH_TREE)`` returns, or the text of its ``ValueError``."""
    try:
        return read(path, TRUTH_TREE)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "f1,f2,label\n0.5,1.0,plain\n2,3,x2 sp\n",  # LF only
        "f1,label\n0.5,#tag",  # no final newline
        "f1,label\n\n0.5,plain\n\n\n1,naïve ✓\n\n",  # blank lines
        "f1,label\r\n0.5,plain\r\n\r\n1,x1\r\n",  # CRLF
        "f1,label\r0.5,plain\r1,x1\r",  # CR only
        "f1,label\r\n1,cr\r\n",  # the label is 'cr', not the leaf 'cr\r'
        'f1,label\n0.5,x1\n1,"q"\n',  # the label is 'q', not the leaf '"q"'
        'f1,label\n0.5,"a,b"\n1,"say ""hi"""\n2,plain\n',  # quoted commas and quotes
        # quoted line breaks
        'f1,label\n"0\n5","two\nlines"\n1,"crlf\r\nlabel"\n2,nope\n',
        '"f1",label\n0.5,plain\n',  # quoted header
        "label\nplain\nx1\n",  # labels only
        'label\n"a,b"\n',
        "f1,f2,label\n0.5,1.0,plain\n0.5,plain\n",  # short row
        "f1,label\n0.5,plain\n0.5,1,plain\n",  # long row
        "f1,label\n\n0.5,plain\n1,nope\n",  # unknown label
        "f1,label\n0.5,plain \n",  # a trailing space is part of the label
        "f1,label\n0.5,a,b\n",  # an unquoted comma splits the label
        "f1,label\n",
        "f1,label\n\n\n",
        "f1,f2\n0.5,1.0\n",
        "",
    ],
)
def test_read_truth_equals_csv_oracle(tmp_path, text):
    path = tmp_path / "truth.csv"
    path.write_bytes(text.encode("utf-8"))
    want = truth_outcome(oracles.read_truth, path)
    assert truth_outcome(read_truth, path) == want


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_read_truth_of_random_files_equals_csv_oracle(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(1, 12)), int(rng.integers(0, 4))
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    quoted = rng.random() < 0.3  # else every label is plain text
    lines = [",".join([*(f"f{j + 1}" for j in range(p)), "label"])]
    for _ in range(n):
        label = str(rng.choice(TRUTH_TREE.leaves if quoted else PLAIN_LABELS))
        if rng.random() < 0.05:
            label = "nope"
        if set(label) & set(',"\r\n'):
            label = '"' + label.replace('"', '""') + '"'
        width = max(p + int(rng.choice([-1, 1])), 0) if rng.random() < 0.1 else p
        cells = [repr(float(v)) for v in rng.normal(size=width)]
        lines.append(",".join([*cells, label]) + end * int(rng.integers(1, 3)))
    path = tmp_path_factory.mktemp("truth") / "truth.csv"
    path.write_bytes((lines[0] + end + "".join(lines[1:])).encode("utf-8"))
    assert truth_outcome(read_truth, path) == truth_outcome(oracles.read_truth, path)


def test_read_truth_reads_only_the_header_with_csv(tmp_path, monkeypatch):
    import labeltree.cli as cli

    records, reader = [], cli.csv.reader

    def counting(lines):
        for record in reader(lines):
            records.append(record)
            yield record

    monkeypatch.setattr(cli.csv, "reader", counting)
    path = tmp_path / "truth.csv"
    path.write_text("f1,label\n0.5,plain\n\n1,x2 sp\n", encoding="utf-8")
    assert read_truth(path, TRUTH_TREE) == [("r", "plain"), ("r", "in", "x2 sp")]
    assert records == [["f1", "label"]]


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


@pytest.mark.parametrize("chunk", [1, 7, 5])
@pytest.mark.parametrize("last", [None, math.nan, -math.inf])
def test_save_model_chunks_equal_json_dump_bytes(tmp_path, reference_tree, chunk, last):
    # 20 coefficients in chunks of one, of seven (a ragged last chunk) and
    # of five (no partial chunk); a non-finite value only in the last one
    table = embed_tree(reference_tree)
    coef = np.random.default_rng(chunk).normal(size=(table.dimension, 4))
    if last is not None:
        coef[-1, -1] = last
    one = embed_tree(Tree("r", {"r": ["a", "b"]}))
    models = [
        LinearModel(coef, table, "linear"),
        LinearModel(np.array([[0.5 if last is None else last]]), one, "linear"),
    ]
    for i, model in enumerate(models):
        with mock.patch.object(clf, "_COEF_CHUNK", chunk):
            save_model(model, tmp_path / f"got{i}.json")
        oracles.save_model(model, tmp_path / f"want{i}.json")
        got = (tmp_path / f"got{i}.json").read_bytes()
        assert got == (tmp_path / f"want{i}.json").read_bytes()
