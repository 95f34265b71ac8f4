import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeltree.dissimilarity import build_schedule
from labeltree.embedding import (
    EmbeddingTable,
    embed_tree,
    embedded_consistency_check,
    simplex,
    verify_isometry,
    write_matrix_csv,
)
from labeltree.embedding import _simplex_centered
from labeltree.hierarchy import parse_tree

import oracles
from conftest import random_tree
from test_dissimilarity import REFERENCE_DISTANCES

S5, S6, S10, S15 = (math.sqrt(v) for v in (5.0, 6.0, 10.0, 15.0))

# known closed-form embedding of the reference taxonomy (rows=coordinates,
# columns in node order) at unit base norm and decay sqrt(5)
REFERENCE_MATRIX = np.array(
    [
        [-1, 1, -1, -1, 1, 1, 1, -1, -1],
        [0, 0, -S5 / 5, S5 / 5, 0, 0, 0, -S5 / 5, -S5 / 5],
        [0, 0, 0, 0, -S15 / 10, S15 / 10, 0, 0, 0],
        [0, 0, 0, 0, -S5 / 10, -S5 / 10, S5 / 5, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -0.2, 0.2],
    ]
)

# six equidistant unit-norm points in five dimensions
SIX_POINT_MATRIX = np.array(
    [
        [-S15 / 5, -S5 / 5, -S10 / 10, -S6 / 10, -0.2],
        [S15 / 5, -S5 / 5, -S10 / 10, -S6 / 10, -0.2],
        [0, 2 * S5 / 5, -S10 / 10, -S6 / 10, -0.2],
        [0, 0, 3 * S10 / 10, -S6 / 10, -0.2],
        [0, 0, 0, 2 * S6 / 5, -0.2],
        [0, 0, 0, 0, 1.0],
    ]
)


def distance(table, a, b) -> float:
    """Entry of ``table.distance_matrix()`` for two node ids."""
    order = table.tree.node_order
    return float(table.distance_matrix()[order.index(a), order.index(b)])


class TestSimplex:
    def test_two_points(self):
        np.testing.assert_allclose(simplex(2, 1.0), [[-1.0], [1.0]], atol=1e-15)

    def test_three_points(self):
        expected = [
            [-S15 / 10, -S5 / 10],
            [S15 / 10, -S5 / 10],
            [0, S5 / 5],
        ]
        np.testing.assert_allclose(simplex(3, 1 / S5), expected, atol=1e-12)

    def test_six_points_golden(self):
        np.testing.assert_allclose(simplex(6, 1.0), SIX_POINT_MATRIX, atol=1e-12)

    def test_six_points_equidistant(self):
        pts = simplex(6, 1.0)
        for a, b in combinations(pts, 2):
            assert np.linalg.norm(a - b) == pytest.approx(2 * S15 / 5, abs=1e-12)

    @pytest.mark.parametrize("count", range(2, 10))
    def test_geometry(self, count):
        norm = 0.7
        pts = simplex(count, norm)
        assert pts.shape == (count, count - 1)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), norm, atol=1e-10)
        np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=1e-12)
        target = norm * math.sqrt(2 * count / (count - 1))
        for a, b in combinations(pts, 2):
            assert np.linalg.norm(a - b) == pytest.approx(target, abs=1e-10)
            cos = float(a @ b) / norm**2
            assert cos == pytest.approx(-1 / (count - 1), abs=1e-10)

    @pytest.mark.parametrize("count", range(2, 9))
    def test_pre_scaling_geometry(self, count):
        c = 1.3
        pts = _simplex_centered(count, c)
        for a, b in combinations(pts, 2):
            assert np.linalg.norm(a - b) == pytest.approx(c, abs=1e-10)
        radius = c * math.sqrt((count - 1) / (2 * count))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), radius, atol=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            simplex(1, 1.0)
        with pytest.raises(ValueError):
            simplex(3, 0.0)

    @pytest.mark.parametrize("norm", [math.nan, math.inf])
    def test_non_finite_norm_rejected(self, norm):
        with pytest.raises(ValueError, match="positive and finite"):
            simplex(3, norm)


class TestEquality:
    DOC = "r: a b c\na: a1 a2\n"

    def test_tables_of_one_tree_are_equal(self):
        a, b = embed_tree(parse_tree(self.DOC)), embed_tree(parse_tree(self.DOC))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "doc, kwargs",
        [
            ("r: a b c\nb: b1 b2\n", {}),
            (DOC, {"base_norm": 2.0}),
            (DOC, {"decay": 3.0}),
        ],
    )
    def test_tables_differ_by_tree_norm_or_decay(self, doc, kwargs):
        a, b = embed_tree(parse_tree(self.DOC)), embed_tree(parse_tree(doc), **kwargs)
        assert a != b and not a == b
        assert a != "a table"


class TestEmbedTree:
    def test_reference_matrix(self, reference_tree):
        table = embed_tree(reference_tree)
        np.testing.assert_allclose(table.matrix(), REFERENCE_MATRIX, atol=1e-12)
        assert table.dimension == 5

    def test_two_leaf(self, two_leaf_tree):
        table = embed_tree(two_leaf_tree)
        assert table.dimension == 1
        np.testing.assert_allclose(table.matrix(), [[-1.0, 1.0]], atol=1e-15)

    def test_parent_to_deep_leaf_distance(self, reference_tree):
        table = embed_tree(reference_tree)
        assert distance(table, "lynx", "iberian_lynx") == pytest.approx(0.2, abs=1e-12)

    def test_reference_distance_table(self, reference_tree):
        table = embed_tree(reference_tree)
        for (a, b), expected in REFERENCE_DISTANCES.items():
            assert distance(table, a, b) == pytest.approx(expected, abs=1e-12)

    def test_offset_composition(self, reference_tree):
        table = embed_tree(reference_tree)
        for node in reference_tree.node_order:
            parent = reference_tree.parent(node)
            base = (
                np.zeros(table.dimension)
                if parent == reference_tree.root
                else table.vectors[parent]
            )
            np.testing.assert_array_equal(
                table.vectors[node], base + table.offset(node)
            )

    def test_block_layout_disjoint_and_orthogonal(self, reference_tree):
        table = embed_tree(reference_tree)
        spans = sorted(table.block_layout.values())
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        # offsets of children of distinct parents never share support
        parents = list(table.block_layout)
        for p1, p2 in combinations(parents, 2):
            for c1 in reference_tree.children(p1):
                for c2 in reference_tree.children(p2):
                    assert float(table.offset(c1) @ table.offset(c2)) == 0.0

    def test_zero_coordinates_above_layer_dim(self, reference_tree):
        table = embed_tree(reference_tree)
        for node in reference_tree.node_order:
            used = table.layer_dims[reference_tree.layer(node)]
            assert np.all(table.vectors[node][used:] == 0.0)

    def test_sibling_norms_equal(self, reference_tree):
        table = embed_tree(reference_tree)
        for parent in table.block_layout:
            norms = [
                np.linalg.norm(table.vectors[c])
                for c in reference_tree.children(parent)
            ]
            np.testing.assert_allclose(norms, norms[0], atol=1e-12)

    def test_vectors_read_only(self, reference_tree):
        table = embed_tree(reference_tree)
        with pytest.raises(ValueError):
            table.vectors["feline"][0] = 9.0

    def test_bad_params(self, reference_tree):
        with pytest.raises(ValueError):
            embed_tree(reference_tree, decay=1.0)
        with pytest.raises(ValueError):
            embed_tree(reference_tree, base_norm=-1.0)

    def test_table_rejects_bad_params_at_construction(self, reference_tree):
        with pytest.raises(ValueError, match="decay must exceed 1 and be finite"):
            EmbeddingTable(reference_tree, base_norm=1.0, decay=1.0)
        with pytest.raises(ValueError, match="base norm must be positive and finite"):
            EmbeddingTable(reference_tree, base_norm=math.nan, decay=2.0)
        # the layer-3 norm underflows to zero, which no simplex can take
        with pytest.raises(ValueError, match="norm must be positive and finite, got 0.0"):
            EmbeddingTable(reference_tree, base_norm=1e-300, decay=1e100)

    @pytest.mark.parametrize("param", ["decay", "base_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, two_leaf_tree, param, value):
        # a two-leaf tree has one layer, so an infinite decay shrinks no norm
        with pytest.raises(ValueError, match="finite"):
            embed_tree(two_leaf_tree, **{param: value})

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_dimension_equals_leaves_minus_one(self, seed):
        tree = random_tree(np.random.default_rng(seed))
        table = embed_tree(tree)
        assert table.dimension == tree.n_leaf - 1
        assert table.layer_dims[tree.depth] == tree.n_leaf - 1


class TestIsometry:
    def test_reference_exact(self, reference_tree):
        table = embed_tree(reference_tree)
        sched = build_schedule(reference_tree)
        assert verify_isometry(reference_tree, sched, table) < 1e-10

    def test_scaled_ratio(self, reference_tree):
        table = embed_tree(reference_tree, base_norm=1.0)
        sched = build_schedule(reference_tree, base_weight=2.0)
        # dissimilarities equal twice the embedded distances
        assert verify_isometry(reference_tree, sched, table) < 1e-10
        assert math.sqrt(111) / 5 * 2 == pytest.approx(
            2 * distance(table, "iberian_lynx", "kestrel"), abs=1e-12
        )

    def test_sibling_pair_equals_sibling_weight(self, reference_tree):
        table = embed_tree(reference_tree)
        sched = build_schedule(reference_tree)
        assert distance(table, "kestrel", "harrier") == pytest.approx(
            sched.sibling_weights[reference_tree.nodes.index("raptor")], abs=1e-12
        )

    def test_decay_mismatch_rejected(self, reference_tree):
        table = embed_tree(reference_tree, decay=2.0)
        sched = build_schedule(reference_tree, decay=3.0)
        with pytest.raises(ValueError):
            verify_isometry(reference_tree, sched, table)

    def test_tree_mismatch_rejected(self, reference_tree, two_leaf_tree):
        table = embed_tree(two_leaf_tree)
        sched = build_schedule(reference_tree)
        with pytest.raises(ValueError):
            verify_isometry(reference_tree, sched, table)


class TestEmbeddedConsistency:
    def test_reference_values(self, reference_tree):
        table = embed_tree(reference_tree)
        assert distance(table, "feline", "raptor") == pytest.approx(2.0, abs=1e-12)
        assert distance(table, "lynx", "panther") == pytest.approx(
            2 * S5 / 5, abs=1e-12
        )
        assert distance(table, "panther", "kestrel") == pytest.approx(
            math.sqrt(110) / 5, abs=1e-12
        )
        report = embedded_consistency_check(table)
        assert report.ok
        assert report.decay_bound_met

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_trees_certify(self, seed):
        table = embed_tree(random_tree(np.random.default_rng(seed)))
        assert embedded_consistency_check(table).ok


class TestExport:
    def test_csv_shape_and_determinism(self, reference_tree, tmp_path):
        table = embed_tree(reference_tree)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(table, p1)
        write_matrix_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "coordinate," + ",".join(reference_tree.node_order)
        assert len(lines) == 1 + table.dimension
        # values round-trip exactly through the text form
        cell = lines[2].split(",")[3]
        assert float(cell) == table.vectors["lynx"][1]

    def test_json_view(self, reference_tree):
        table = embed_tree(reference_tree)
        doc = oracles.table_to_json_dict(table)
        assert list(doc["vectors"]) == list(reference_tree.node_order)
        assert doc["dimension"] == 5
        parsed = json.loads(json.dumps(doc))
        np.testing.assert_array_equal(
            np.array(parsed["vectors"]["kestrel"]), table.vectors["kestrel"]
        )
