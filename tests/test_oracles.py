"""Leaf-code fast paths against the string-id oracles on random trees.

``conftest.random_tree`` draws trees with unbalanced leaf depths, so
paths of different lengths meet in every check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_tree
from labeltree.classifier import (
    LabeledDataset,
    LinearModel,
    _descend,
    per_sample_risk,
    predict_paths,
    train_linear,
    train_weighted_linear,
    weighted_linear_fits,
)
from labeltree.cli import select_gamma
from labeltree.embedding import embed_tree
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


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_sibling_differences_equal_oracle_bitwise(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    ds = random_dataset(tree, rng, n=25)
    U = oracles.label_coefficients(table, ds)
    np.testing.assert_array_equal(table.sibling_differences[ds.codes], U)
    fit_intercept = bool(rng.integers(2))
    B = U.T @ np.hstack([np.ones((ds.n, 1)), ds.X]) / ds.n
    if not fit_intercept:
        B[:, 0] = 0.0
    model = train_linear(ds, table, lam=0.5, fit_intercept=fit_intercept)
    np.testing.assert_array_equal(model.coef, -B / (2.0 * 0.5))


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_descent_equals_oracle_including_ties(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    n = 40
    F = rng.normal(size=(n, table.dimension))
    # Zeroing a parent's coordinate block gives all of its children the
    # same score bit for bit, so those rows must take the first child.
    for start, stop in table.block_layout.values():
        F[rng.random(n) < 0.3, start:stop] = 0.0
    F[0] = 0.0
    expected = oracles.descend(table, F)
    assert [tree.leaf_paths[c] for c in _descend(table, F)] == expected
    assert expected[0] == leftmost_path(tree)

    zero = LinearModel(np.zeros((table.dimension, 1)), table, "linear")
    assert predict_paths(zero, np.zeros((3, 0))) == [leftmost_path(tree)] * 3


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_select_gamma_equals_per_gamma_fits(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    table = embed_tree(tree)
    train, val = random_dataset(tree, rng, 30), random_dataset(tree, rng, 30)
    grid = tuple(rng.choice([0.05, 0.3, 1.0, 2.5, 8.0, 30.0], size=4))
    fit_intercept = bool(rng.integers(2))

    gamma, model = select_gamma(train, val, table, grid, fit_intercept=fit_intercept)
    want_gamma, want = oracles.select_gamma(train, val, table, grid, fit_intercept)
    assert gamma == want_gamma
    np.testing.assert_array_equal(model.coef, want.coef)
    for g, fitted in weighted_linear_fits(
        train, table, grid, lam=0.7, fit_intercept=fit_intercept
    ):
        direct = oracles.train_weighted_linear(
            train, table, gamma=g, lam=0.7, fit_intercept=fit_intercept
        )
        np.testing.assert_array_equal(fitted.coef, direct.coef)
        assert (fitted.loss, fitted.gamma) == (direct.loss, direct.gamma)
    single = train_weighted_linear(train, table, gamma=grid[0], lam=0.7)
    np.testing.assert_array_equal(
        single.coef,
        oracles.train_weighted_linear(train, table, gamma=grid[0], lam=0.7).coef,
    )


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
