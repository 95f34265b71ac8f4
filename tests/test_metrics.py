import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeltree.metrics import (
    evaluate,
    h_fmeasure,
    hierarchical_loss,
    symmetric_loss,
)

from conftest import random_tree


@pytest.fixture(scope="module")
def paths(reference_tree):
    return {leaf: reference_tree.path_of_leaf(leaf) for leaf in reference_tree.leaves}


class TestZeroOne:
    """The zero-one loss, as ``evaluate`` reports it."""

    def test_all_correct(self, paths, reference_tree):
        pairs = [(p, p) for p in paths.values()]
        assert evaluate(pairs, reference_tree).l01 == 0.0

    def test_all_wrong(self, paths, reference_tree):
        pairs = [(paths["kestrel"], paths["osprey"])] * 3
        assert evaluate(pairs, reference_tree).l01 == 1.0

    def test_one_of_four(self, paths, reference_tree):
        p = paths["iberian_lynx"]
        pairs = [(p, p)] * 3 + [(p, paths["kestrel"])]
        assert evaluate(pairs, reference_tree).l01 == 0.25

    def test_empty_rejected(self, reference_tree):
        with pytest.raises(ValueError):
            evaluate([], reference_tree)


class TestSymmetric:
    def test_identical(self, paths):
        assert symmetric_loss([(paths["osprey"], paths["osprey"])]) == 0.0

    def test_cross_branch_pair(self, paths):
        # deep leaf vs the fan leaf: {feline,lynx,iberian} vs {raptor,kestrel}
        assert symmetric_loss([(paths["iberian_lynx"], paths["kestrel"])]) == 5.0

    def test_leaf_sibling_pair(self, paths):
        assert symmetric_loss([(paths["iberian_lynx"], paths["eurasian_lynx"])]) == 2.0

    def test_lower_bounds_against_zero_one(self, reference_tree):
        rng = np.random.default_rng(0)
        leaves = reference_tree.leaves
        for _ in range(200):
            a, b = rng.choice(len(leaves), size=2)
            pa = reference_tree.path_of_leaf(leaves[a])
            pb = reference_tree.path_of_leaf(leaves[b])
            delta = symmetric_loss([(pa, pb)])
            if len(pa) == len(pb):
                assert delta >= 2.0 * (pa != pb)
            elif pa != pb:
                assert delta >= 1.0


class TestHierarchical:
    def test_sibling_weighting_cross_branch(self, reference_tree, paths):
        pair = [(paths["iberian_lynx"], paths["kestrel"])]
        # first diverging node in the global order is the layer-2 node,
        # weight 1/2 under two root children
        assert hierarchical_loss(pair, reference_tree, "sib") == pytest.approx(0.5)

    def test_subtree_weighting_cross_branch(self, reference_tree, paths):
        pair = [(paths["iberian_lynx"], paths["kestrel"])]
        assert hierarchical_loss(pair, reference_tree, "sub") == pytest.approx(5 / 9)

    def test_zero_when_equal(self, reference_tree, paths):
        pair = [(paths["osprey"], paths["osprey"])]
        assert hierarchical_loss(pair, reference_tree, "sib") == 0.0
        assert hierarchical_loss(pair, reference_tree, "sub") == 0.0

    def test_leaf_level_divergence(self, reference_tree, paths):
        pair = [(paths["iberian_lynx"], paths["eurasian_lynx"])]
        # diverges at the deepest pair of siblings: 1/(2*2*2)
        assert hierarchical_loss(pair, reference_tree, "sib") == pytest.approx(1 / 8)

    def test_sibling_contribution_bounded_by_one(self, reference_tree):
        rng = np.random.default_rng(1)
        leaves = reference_tree.leaves
        for _ in range(100):
            a, b = rng.choice(len(leaves), size=2)
            pair = [
                (
                    reference_tree.path_of_leaf(leaves[a]),
                    reference_tree.path_of_leaf(leaves[b]),
                )
            ]
            assert 0.0 <= hierarchical_loss(pair, reference_tree, "sib") <= 1.0

    def test_bad_weighting(self, reference_tree, paths):
        with pytest.raises(ValueError):
            hierarchical_loss([(paths["kestrel"], paths["kestrel"])], reference_tree, "abs")

    def test_foreign_node_rejected(self, reference_tree, paths):
        with pytest.raises(KeyError):
            hierarchical_loss(
                [(("animal", "dragon"), paths["kestrel"])], reference_tree, "sib"
            )


class TestHFMeasure:
    def test_identical(self, reference_tree, paths):
        hp, hr, hf = h_fmeasure([(p, p) for p in paths.values()], reference_tree)
        assert hp == hr == hf == 1.0

    def test_leaf_sibling_pair(self, reference_tree, paths):
        hp, hr, hf = h_fmeasure(
            [(paths["iberian_lynx"], paths["eurasian_lynx"])], reference_tree
        )
        assert hp == pytest.approx(2 / 3)
        assert hr == pytest.approx(2 / 3)
        assert hf == pytest.approx(2 / 3)

    def test_disjoint_branches(self, reference_tree, paths):
        hp, hr, hf = h_fmeasure([(paths["panther"], paths["osprey"])], reference_tree)
        assert hf == 0.0

    def test_harmonic_mean_identity(self, reference_tree, paths):
        pairs = [
            (paths["iberian_lynx"], paths["kestrel"]),
            (paths["kestrel"], paths["kestrel"]),
            (paths["panther"], paths["iberian_lynx"]),
        ]
        hp, hr, hf = h_fmeasure(pairs, reference_tree)
        assert hf == pytest.approx(2 * hp * hr / (hp + hr))

    def test_unknown_node(self, reference_tree, paths):
        with pytest.raises(ValueError):
            h_fmeasure([(("animal", "dragon"), paths["kestrel"])], reference_tree)


class TestEvaluate:
    def test_all_zero_iff_exact(self, reference_tree, paths):
        exact = [(p, p) for p in paths.values()]
        report = evaluate(exact, reference_tree)
        assert report.l01 == report.l_delta == report.l_h_sib == report.l_h_sub == 0.0
        assert report.hf == 1.0
        mixed = exact + [(paths["kestrel"], paths["osprey"])]
        report = evaluate(mixed, reference_tree)
        assert report.l01 > 0 and report.l_delta > 0
        assert report.hf < 1.0

    def test_sample_order_invariance(self, reference_tree, paths):
        pairs = [
            (paths["iberian_lynx"], paths["kestrel"]),
            (paths["kestrel"], paths["kestrel"]),
            (paths["panther"], paths["harrier"]),
            (paths["osprey"], paths["eurasian_lynx"]),
        ]
        base = evaluate(pairs, reference_tree)
        rng = np.random.default_rng(9)
        for _ in range(5):
            perm = [pairs[i] for i in rng.permutation(len(pairs))]
            other = evaluate(perm, reference_tree)
            assert other.to_dict(include_timing=False) == base.to_dict(
                include_timing=False
            )

    def test_serialization(self, reference_tree, paths):
        report = evaluate([(paths["kestrel"], paths["osprey"])], reference_tree, 1.25)
        doc = json.loads(report.to_json())
        assert doc["wall_time_seconds"] == 1.25
        assert "wall_time_seconds" not in json.loads(report.to_json(False))
        text = report.to_text()
        assert "zero-one loss" in text and "1.000000" in text

    @pytest.mark.parametrize(
        "bad",
        [
            ("animal", "feline", "kestrel"),  # kestrel sits under raptor
            ("animal", "feline"),  # stops at an inner node
            ("animal", "raptor", "dragon"),  # unknown id
            ("raptor", "kestrel"),  # no root
            (),
        ],
    )
    def test_invalid_paths_rejected(self, reference_tree, paths, bad):
        good = (paths["kestrel"], paths["kestrel"])
        for pairs in ([good, (paths["osprey"], bad)], [good, (bad, paths["osprey"])]):
            with pytest.raises(ValueError, match="pair 1"):
                evaluate(pairs, reference_tree)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_random_tree_zero_iff_exact(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        leaves = tree.leaves
        idx = rng.integers(0, len(leaves), size=10)
        pairs = [
            (tree.path_of_leaf(leaves[i]), tree.path_of_leaf(leaves[i])) for i in idx
        ]
        report = evaluate(pairs, tree)
        assert report.l01 == 0.0 and report.hf == 1.0
