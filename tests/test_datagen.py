import math

import numpy as np
import pytest

import oracles
from labeltree.datagen import (
    SyntheticSpec,
    example1_tree,
    example2_tree,
    gen_example1,
    gen_example2,
    generate,
    read_dataset_csv,
    read_feature_csv,
    split_indices,
    write_dataset_csv,
    write_tree,
)
from labeltree.embedding import embed_tree
from labeltree.hierarchy import load_tree


class TestTrees:
    def test_example1_depth3(self):
        tree = example1_tree(3)
        assert tree.q == 12
        assert tree.n_leaf == 8
        assert tree.depth == 3
        # ids are node-order positions, root is "0"
        assert tree.children("0") == ("1", "2", "3", "4")
        assert tree.children("1") == ("5", "6")
        assert all(tree.order_index(n) == int(n) for n in tree.node_order)

    def test_example1_depth4(self):
        tree = example1_tree(4)
        assert tree.q == 28
        assert tree.n_leaf == 16

    def test_example2_shape(self):
        tree = example2_tree()
        assert tree.depth == 5
        assert tree.q == 180
        assert tree.n_leaf == 96
        assert len(tree.nodes_at_layer(2)) == 12
        assert len(tree.nodes_at_layer(3)) == 24
        assert len(tree.nodes_at_layer(4)) == 48
        assert len(tree.nodes_at_layer(5)) == 96
        assert tree.n_leaf - 1 == 95


class TestSpecValidation:
    def test_bad_example(self):
        with pytest.raises(ValueError):
            SyntheticSpec(example=3, n_total=10, seed=0)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            SyntheticSpec(example=1, n_total=10, seed=0, noise_rate=1.0)

    def test_feature_dim_too_small(self):
        spec = SyntheticSpec(example=1, n_total=10, seed=0, k=3, p=5)
        with pytest.raises(ValueError):
            gen_example1(spec)

    def test_example2_fixed_dim(self):
        spec = SyntheticSpec(example=2, n_total=10, seed=0, p=40)
        with pytest.raises(ValueError):
            gen_example2(spec)

    def test_wrong_generator(self):
        with pytest.raises(ValueError):
            gen_example2(SyntheticSpec(example=1, n_total=10, seed=0))


class TestExample1:
    def test_mean_layout_worked_example(self):
        # the path 0 -> 1 -> 5 puts 1 at coordinate 1 and 1/2 at coordinate 5
        spec = SyntheticSpec(example=1, n_total=6000, seed=13, k=3, p=15)
        tree, ds = gen_example1(spec)
        leaf = tree.children("1")[0]
        assert leaf == "5"
        rows = np.array([label == leaf for label in ds.labels])
        emp = ds.X[rows].mean(axis=0)
        expected = np.zeros(15)
        expected[0] = 1.0
        expected[4] = 0.5
        tol = 3.0 * math.sqrt(0.1 / rows.sum())
        assert np.max(np.abs(emp - expected)) < tol

    def test_class_conditional_means(self):
        spec = SyntheticSpec(example=1, n_total=10_000, seed=4, k=3, p=15)
        tree, ds = gen_example1(spec)
        labels = np.array(ds.labels)
        for leaf in tree.leaves:
            mask = labels == leaf
            expected = np.zeros(15)
            path = tree.path_of_leaf(leaf)
            for m, node in enumerate(path[1:], start=2):
                expected[tree.order_index(node) - 1] = 1.0 / (m - 1)
            # 4.5 sigma: the max runs over 15 coords x 8 classes
            tol = 4.5 * math.sqrt(0.1 / mask.sum())
            assert np.max(np.abs(ds.X[mask].mean(axis=0) - expected)) < tol

    def test_label_marginal_uniform(self):
        spec = SyntheticSpec(example=1, n_total=10_000, seed=8, k=3, p=15)
        tree, ds = gen_example1(spec)
        counts = np.array([ds.labels.count(l) for l in tree.leaves])
        expected = spec.n_total / tree.n_leaf
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 24.3  # 0.999 quantile at 7 degrees of freedom

    def test_determinism(self):
        spec = SyntheticSpec(example=1, n_total=300, seed=77, k=3, p=15, noise_rate=0.2)
        t1, d1 = gen_example1(spec)
        t2, d2 = gen_example1(spec)
        assert t1 == t2
        np.testing.assert_array_equal(d1.X, d2.X)
        assert d1.labels == d2.labels

    def test_noise_touches_bounded_subset(self):
        clean = SyntheticSpec(example=1, n_total=400, seed=5, k=3, p=15)
        noisy = SyntheticSpec(example=1, n_total=400, seed=5, k=3, p=15, noise_rate=0.2)
        _, d0 = gen_example1(clean)
        _, d1 = gen_example1(noisy)
        # features share the stream; only labels of the selected 80 differ
        np.testing.assert_array_equal(d0.X, d1.X)
        flips = sum(a != b for a, b in zip(d0.labels, d1.labels))
        assert 0 < flips <= 80

    def test_depth4_default_dim(self):
        spec = SyntheticSpec(example=1, n_total=40, seed=1, k=4)
        tree, ds = gen_example1(spec)
        assert ds.p == 30
        assert tree.q == 28


class TestExample2:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(example=2, n_total=500, seed=3)
        tree, ds = gen_example2(spec)
        assert ds.X.shape == (500, 95)
        tree2, ds2 = gen_example2(spec)
        np.testing.assert_array_equal(ds.X, ds2.X)
        assert ds.labels == ds2.labels

    def test_class_conditional_means_near_embedding(self):
        spec = SyntheticSpec(example=2, n_total=20_000, seed=6)
        tree, ds = gen_example2(spec)
        table = embed_tree(tree)
        labels = np.array(ds.labels)
        worst = 0.0
        for leaf in tree.leaves[:10]:
            mask = labels == leaf
            emp = ds.X[mask].mean(axis=0)
            # 4.5 sigma: the max runs over 95 coords x 10 classes
            tol = 4.5 * math.sqrt(0.1 / mask.sum())
            worst = max(worst, float(np.max(np.abs(emp - table.vector(leaf)))))
            assert worst < tol

    def test_generate_dispatch(self):
        tree, ds = generate(SyntheticSpec(example=2, n_total=10, seed=0))
        assert tree.n_leaf == 96 and ds.n == 10

    def test_noise_selection_size(self):
        # 96 classes make redraw coincidences rare: the flip count sits at
        # or just under the selected count
        clean = SyntheticSpec(example=2, n_total=400, seed=5)
        noisy = SyntheticSpec(example=2, n_total=400, seed=5, noise_rate=0.25)
        _, d0 = gen_example2(clean)
        _, d1 = gen_example2(noisy)
        flips = sum(a != b for a, b in zip(d0.labels, d1.labels))
        assert 94 <= flips <= 100


class TestSplitAndCsv:
    def test_split_ratio(self):
        tr, va, te = split_indices(200)
        assert (len(tr), len(va), len(te)) == (50, 50, 100)
        assert np.array_equal(np.sort(np.concatenate([tr, va, te])), np.arange(200))

    def test_csv_round_trip(self, tmp_path):
        spec = SyntheticSpec(example=1, n_total=30, seed=2, k=3, p=15)
        tree, ds = gen_example1(spec)
        data_path = tmp_path / "data.csv"
        tree_path = tmp_path / "tree.txt"
        write_dataset_csv(ds, data_path)
        write_tree(tree, tree_path)
        tree_back = load_tree(tree_path)
        assert tree_back == tree
        ds_back = read_dataset_csv(data_path, tree_back)
        np.testing.assert_array_equal(ds_back.X, ds.X)
        assert ds_back.labels == ds.labels

    def test_csv_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            read_dataset_csv(p, example1_tree(3))
        p.write_text("f1,f2\n")
        with pytest.raises(ValueError):
            read_dataset_csv(p, example1_tree(3))
        p.write_text("f1,label\n0.5,zzz\n")
        with pytest.raises(ValueError, match=f"^{p}: label 'zzz' is not a leaf"):
            read_dataset_csv(p, example1_tree(3))

    def test_unlabeled_csv_equals_oracle(self, tmp_path):
        p = tmp_path / "features.csv"
        p.write_bytes(b"f1,f2\r\n1.5,-0.0\r\n\r\n1e-310, -inf \n\nnan,+2.\n")
        X, labels = read_feature_csv(p)
        want, _ = oracles.read_feature_csv(p)
        assert labels is None and X.shape == (3, 2)
        assert np.array_equal(X.view(np.int64), want.view(np.int64))
