import dataclasses
import math
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeltree.dissimilarity import (
    DECAY_SQUARED_BOUND,
    WeightSchedule,
    build_schedule,
    consistency_check,
    consistency_report_from_matrix,
    dissimilarity,
    dissimilarity_matrix,
)
from labeltree.embedding import _certify, embed_tree, verify_isometry
from labeltree.hierarchy import Tree, parse_tree

from conftest import REFERENCE_DOC, fanout10_tree, random_tree, traced_peak

S5 = math.sqrt(5.0)


def shortest_path_dissimilarity(tree, schedule, a, b):
    """Independent oracle: fewest-hop path in the augmented graph.

    Builds the graph explicitly (parent-child edges weighted by level,
    sibling edges weighted per parent), finds a fewest-edge path by
    breadth-first search, and accumulates the squared edge weights.
    """
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in tree.nodes}
    for parent in tree.nodes:
        kids = tree.children(parent)
        if not kids:
            continue
        w = schedule.parent_edge(tree.layer(parent))
        s = schedule.sibling_weight[parent]
        for child in kids:
            adj[parent].append((child, w))
            adj[child].append((parent, w))
        for i, c1 in enumerate(kids):
            for c2 in kids[i + 1 :]:
                adj[c1].append((c2, s))
                adj[c2].append((c1, s))

    prev: dict[str, tuple[str, float] | None] = {a: None}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            break
        for nxt, w in adj[node]:
            if nxt not in prev:
                prev[nxt] = (node, w)
                queue.append(nxt)
    total = 0.0
    node = b
    while prev[node] is not None:
        node, w = prev[node]
        total += w * w
    return math.sqrt(total)


class TestSchedule:
    def test_reference_schedule(self, reference_tree):
        sched = build_schedule(reference_tree, 1.0, S5)
        assert sched.sibling_weight["animal"] == pytest.approx(2.0, abs=1e-12)
        assert sched.level_weights[1] == pytest.approx(1 / S5, abs=1e-12)
        assert sched.level_weights[2] == pytest.approx(0.2, abs=1e-12)

    def test_two_children_hit_upper_bound(self, two_leaf_tree):
        sched = build_schedule(two_leaf_tree, 3.0, 2.0)
        assert sched.sibling_weight["root"] == pytest.approx(6.0, abs=1e-12)

    def test_many_children_limit(self):
        children = {"r": [f"c{i}" for i in range(200)]}
        sched = build_schedule(Tree("r", children), 1.0, S5)
        assert sched.sibling_weight["r"] == pytest.approx(math.sqrt(2), rel=1e-2)

    def test_decay_must_exceed_one(self, reference_tree):
        with pytest.raises(ValueError):
            build_schedule(reference_tree, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_schedule(reference_tree, 1.0, 0.5)

    def test_bad_base_weight(self, reference_tree):
        with pytest.raises(ValueError):
            build_schedule(reference_tree, 0.0)

    @pytest.mark.parametrize("param", ["decay", "base_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, reference_tree, param, value):
        with pytest.raises(ValueError, match="finite"):
            build_schedule(reference_tree, **{param: value})

    def test_state_is_tree_base_weight_and_decay(self, reference_tree, two_leaf_tree):
        init = [f.name for f in dataclasses.fields(WeightSchedule) if f.init]
        assert init == ["tree", "base_weight", "decay"]
        sched = build_schedule(reference_tree, 2.0, 3.0)
        same = WeightSchedule(parse_tree(REFERENCE_DOC), 2.0, 3.0)
        assert sched == same and hash(sched) == hash(same)
        assert len({sched, same, build_schedule(reference_tree, 2.0, 3.0)}) == 1
        for other in (
            build_schedule(reference_tree, 2.0, 2.9),
            build_schedule(reference_tree, 1.5, 3.0),
            build_schedule(two_leaf_tree, 2.0, 3.0),
        ):
            assert sched != other
        assert WeightSchedule(reference_tree) == build_schedule(reference_tree)

    def test_sibling_weights_read_only_by_order_index(self, reference_tree):
        sched = build_schedule(reference_tree)
        psi = sched.sibling_weights
        assert psi.shape == (reference_tree.q + 1,) and not psi.flags.writeable
        with pytest.raises(ValueError):
            psi[0] = 1.0
        by_id = [sched.sibling_weight.get(node, 0.0) for node in reference_tree.nodes]
        assert psi.tolist() == by_id
        assert list(sched.sibling_weight) == ["animal", "feline", "raptor", "lynx"]
        with pytest.raises(TypeError):
            sched.sibling_weight["animal"] = 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sibling_weights_in_admissible_interval(self, seed):
        tree = random_tree(np.random.default_rng(seed))
        sched = build_schedule(tree)
        for i in range(1, len(sched.level_weights)):
            assert sched.level_weights[i] == pytest.approx(
                sched.level_weights[i - 1] / sched.decay, rel=1e-12
            )
        for parent, s in sched.sibling_weight.items():
            w = sched.parent_edge(tree.layer(parent))
            assert w < s <= 2 * w + 1e-12


class TestScheduleOfAnotherTree:
    """A schedule built for another tree of the same depth is rejected."""

    TREE, OTHER = "r: a b\na: x y\n", "r: a b\na: x y z\n"

    @pytest.mark.parametrize(
        "entry",
        [
            "dissimilarity",
            "dissimilarity_matrix",
            "consistency_check",
            "verify_isometry",
            "_certify",
        ],
    )
    def test_rejected(self, entry):
        tree, other = parse_tree(self.TREE), parse_tree(self.OTHER)
        sched, table = build_schedule(other), embed_tree(tree)
        assert other.depth == tree.depth
        calls = {
            "dissimilarity": lambda: dissimilarity(tree, sched, "x", "y"),
            "dissimilarity_matrix": lambda: dissimilarity_matrix(tree, sched),
            "consistency_check": lambda: consistency_check(tree, sched),
            "verify_isometry": lambda: verify_isometry(tree, sched, table),
            "_certify": lambda: _certify(tree, sched, table),
        }
        with pytest.raises(ValueError, match="schedule was built for a different tree"):
            calls[entry]()


# printed pairwise distances of the reference taxonomy (node-order indexing)
REFERENCE_DISTANCES = {
    ("feline", "raptor"): 2.0,
    ("feline", "lynx"): S5 / 5,
    ("feline", "panther"): S5 / 5,
    ("feline", "kestrel"): math.sqrt(105) / 5,
    ("feline", "harrier"): math.sqrt(105) / 5,
    ("feline", "osprey"): math.sqrt(105) / 5,
    ("feline", "iberian_lynx"): math.sqrt(6) / 5,
    ("feline", "eurasian_lynx"): math.sqrt(6) / 5,
    ("raptor", "lynx"): math.sqrt(105) / 5,
    ("raptor", "panther"): math.sqrt(105) / 5,
    ("raptor", "kestrel"): S5 / 5,
    ("raptor", "harrier"): S5 / 5,
    ("raptor", "osprey"): S5 / 5,
    ("raptor", "iberian_lynx"): math.sqrt(106) / 5,
    ("raptor", "eurasian_lynx"): math.sqrt(106) / 5,
    ("lynx", "panther"): 2 * S5 / 5,
    ("lynx", "kestrel"): math.sqrt(110) / 5,
    ("lynx", "harrier"): math.sqrt(110) / 5,
    ("lynx", "osprey"): math.sqrt(110) / 5,
    ("lynx", "iberian_lynx"): 0.2,
    ("lynx", "eurasian_lynx"): 0.2,
    ("panther", "kestrel"): math.sqrt(110) / 5,
    ("panther", "harrier"): math.sqrt(110) / 5,
    ("panther", "osprey"): math.sqrt(110) / 5,
    ("panther", "iberian_lynx"): math.sqrt(21) / 5,
    ("panther", "eurasian_lynx"): math.sqrt(21) / 5,
    ("kestrel", "harrier"): math.sqrt(15) / 5,
    ("kestrel", "osprey"): math.sqrt(15) / 5,
    ("harrier", "osprey"): math.sqrt(15) / 5,
    ("kestrel", "iberian_lynx"): math.sqrt(111) / 5,
    ("kestrel", "eurasian_lynx"): math.sqrt(111) / 5,
    ("harrier", "iberian_lynx"): math.sqrt(111) / 5,
    ("harrier", "eurasian_lynx"): math.sqrt(111) / 5,
    ("osprey", "iberian_lynx"): math.sqrt(111) / 5,
    ("osprey", "eurasian_lynx"): math.sqrt(111) / 5,
    ("iberian_lynx", "eurasian_lynx"): 0.4,
}


class TestDissimilarity:
    def test_cross_branch_deep_pair(self, reference_tree):
        sched = build_schedule(reference_tree)
        # crosses at the root: sqrt(psi^2 + 2*w2^2 + w3^2)
        assert dissimilarity(
            reference_tree, sched, "iberian_lynx", "kestrel"
        ) == pytest.approx(math.sqrt(111) / 5, abs=1e-12)

    def test_self_dissimilarity_zero(self, reference_tree):
        sched = build_schedule(reference_tree)
        for node in reference_tree.node_order:
            assert dissimilarity(reference_tree, sched, node, node) == 0.0

    def test_parent_child_distance(self, reference_tree):
        sched = build_schedule(reference_tree)
        assert dissimilarity(reference_tree, sched, "feline", "lynx") == pytest.approx(
            S5 / 5, abs=1e-12
        )

    def test_full_reference_table(self, reference_tree):
        sched = build_schedule(reference_tree)
        for (a, b), expected in REFERENCE_DISTANCES.items():
            got = dissimilarity(reference_tree, sched, a, b)
            assert got == pytest.approx(expected, abs=1e-12), (a, b)
            assert dissimilarity(reference_tree, sched, b, a) == got

    def test_root_rejected(self, reference_tree):
        sched = build_schedule(reference_tree)
        with pytest.raises(ValueError):
            dissimilarity(reference_tree, sched, "animal", "feline")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matrix_matches_scalar(self, seed):
        tree = random_tree(np.random.default_rng(seed))
        sched = build_schedule(tree)
        M = dissimilarity_matrix(tree, sched)
        order = tree.node_order
        rng = np.random.default_rng(seed + 7)
        idx = rng.integers(0, tree.q, size=min(25, tree.q))
        for i in idx:
            for j in idx:
                assert M[i, j] == pytest.approx(
                    dissimilarity(tree, sched, order[i], order[j]), abs=1e-12
                )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_shortest_path_oracle(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        sched = build_schedule(tree)
        picks = rng.choice(tree.q, size=min(8, tree.q), replace=False)
        nodes = [tree.node_order[i] for i in picks]
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                closed = dissimilarity(tree, sched, a, b)
                oracle = shortest_path_dissimilarity(tree, sched, a, b)
                assert closed == pytest.approx(oracle, abs=1e-12)


class TestConsistency:
    def test_reference_certifies(self, reference_tree):
        report = consistency_check(reference_tree, build_schedule(reference_tree))
        assert report.ok
        assert report.decay_bound_met
        assert report.n_pairs == 36

    def test_shallower_ancestor_more_dissimilar(self, reference_tree):
        sched = build_schedule(reference_tree)
        top = dissimilarity(reference_tree, sched, "feline", "raptor")
        deep = dissimilarity(reference_tree, sched, "lynx", "panther")
        assert top == pytest.approx(2.0, abs=1e-12)
        assert deep == pytest.approx(2 * S5 / 5, abs=1e-12)
        assert top > deep

    def test_two_leaf_vacuous(self, two_leaf_tree):
        report = consistency_check(two_leaf_tree, build_schedule(two_leaf_tree))
        assert report.ok
        assert report.n_pairs == 1

    def test_small_decay_detected(self):
        # full binary tree of depth 4; decay below the certification bound
        lines, queue, counter = [], ["r"], 0
        for _ in range(3):
            nxt = []
            for node in queue:
                kids = [f"x{counter}", f"x{counter + 1}"]
                counter += 2
                lines.append(f"{node}: {' '.join(kids)}")
                nxt.extend(kids)
            queue = nxt
        tree = parse_tree("\n".join(lines))
        sched = build_schedule(tree, decay=1.05)
        assert sched.decay**2 < DECAY_SQUARED_BOUND
        report = consistency_check(tree, sched)
        assert not report.decay_bound_met
        assert not report.ok
        assert report.monotonicity_violations
        assert "VIOLATIONS" in report.summary()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_trees_certify_at_default_decay(self, seed):
        tree = random_tree(np.random.default_rng(seed))
        report = consistency_check(tree, build_schedule(tree))
        assert report.ok, report.summary()

    def test_negative_tolerance_rejected(self, reference_tree):
        dist = dissimilarity_matrix(reference_tree, build_schedule(reference_tree))
        with pytest.raises(ValueError, match="tolerance"):
            consistency_report_from_matrix(reference_tree, dist, tol=-1e-10)

    def test_audit_traces_less_than_one_float_matrix(self):
        # complete 10-ary taxonomy, four layers with the root: q = 1110
        children, frontier = {}, ["r"]
        for _ in range(3):
            for node in frontier:
                children[node] = [f"{node}.{j}" for j in range(10)]
            frontier = [kid for node in frontier for kid in children[node]]
        tree = Tree("r", children)
        dist, lca = embed_tree(tree).distance_matrix(), tree.lca_layer_matrix()
        tracemalloc.start()
        try:
            report = consistency_report_from_matrix(tree, dist, _lca=lca)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 8 * tree.q**2, peak

    def test_dissimilarity_matrix_traces_less_than_one_and_a_half_float_matrices(self):
        # the result, and row blocks in place of a q-by-q float lookup
        tree = fanout10_tree()
        sched, lca = build_schedule(tree), tree.lca_layer_matrix()
        peak = traced_peak(lambda: dissimilarity_matrix(tree, sched, _lca=lca))
        assert peak < 1.5 * 8 * tree.q**2, peak

    def test_certificate_traces_below_nodes_plus_one_float_matrix(self):
        # the node matrix, built on first use here, the int8 LCA layer
        # matrix and row blocks; no room for a q-by-q float array
        tree = fanout10_tree()
        sched, table = build_schedule(tree), embed_tree(tree)
        certified = []
        peak = traced_peak(lambda: certified.append(_certify(tree, sched, table)))
        [(max_err, tree_report, point_report)] = certified
        assert max_err < 1e-12 and tree_report.ok and point_report.ok
        assert peak < table.node_matrix.nbytes + 8 * tree.q**2, peak


def test_submodule_is_not_shadowed_by_a_function():
    import labeltree
    import labeltree.dissimilarity as module

    assert labeltree.dissimilarity is sys.modules["labeltree.dissimilarity"] is module
    assert module.dissimilarity is dissimilarity
