import math

import numpy as np
import pytest

import labeltree.datagen
import oracles
from conftest import fanout10_tree, traced_peak
from labeltree.classifier import LabeledDataset
from labeltree.datagen import (
    NOISE_STD,
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
        assert all(tree.nodes.index(n) == int(n) for n in tree.node_order)

    def test_example1_depth4(self):
        tree = example1_tree(4)
        assert tree.q == 28
        assert tree.n_leaf == 16

    def test_example2_shape(self):
        tree = example2_tree()
        assert tree.depth == 5
        assert tree.q == 180
        assert tree.n_leaf == 96
        assert np.bincount(tree.node_layers).tolist() == [0, 1, 12, 24, 48, 96]
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
                expected[tree.nodes.index(node) - 1] = 1.0 / (m - 1)
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
            worst = max(worst, float(np.max(np.abs(emp - table.vectors[leaf]))))
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


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(example=1, n_total=700, seed=8, k=4),
        SyntheticSpec(example=2, n_total=700, seed=8, noise_rate=0.1),
    ],
    ids=["design1", "design2"],
)
@pytest.mark.parametrize("chunk", [None, 1, 665])  # floats; 1 is a row a chunk
def test_noise_drawn_in_place_keeps_every_bit(monkeypatch, spec, chunk):
    # the sum written out, from a twin of the generator the draws come from
    sample, wants = labeltree.datagen._sample, []

    def spy(tree, means, spec):
        rng = np.random.default_rng(spec.seed)
        leaves = rng.integers(0, tree.n_leaf, size=spec.n_total)
        draws = rng.standard_normal((spec.n_total, means.shape[1]))
        wants.append(means[leaves] + NOISE_STD * draws)
        return sample(tree, means, spec)

    monkeypatch.setattr(labeltree.datagen, "_sample", spy)
    if chunk is not None:
        monkeypatch.setattr(labeltree.datagen, "_MEANS_CHUNK_FLOATS", chunk)
    _, ds = generate(spec)
    assert ds.X.tobytes() == wants[0].tobytes()


def test_example2_traces_little_beyond_its_features():
    # drawn, scaled and shifted in place: no second 8000 x 95 array
    spec = SyntheticSpec(example=2, n_total=8000, seed=4)
    peak = traced_peak(lambda: gen_example2(spec))
    _, ds = gen_example2(spec)
    assert peak < 1.5 * ds.X.nbytes, (peak, ds.X.nbytes)


def assert_same_dataset(got, want):
    assert got == want
    assert got.tree == want.tree and got.labels == want.labels
    for a, b in ((got.X, want.X), (got.codes, want.codes)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKnownCodes:
    """Generated datasets and split views skip the label lookup, not its result."""

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(example=1, n_total=200, seed=4, noise_rate=0.2),
            SyntheticSpec(example=1, n_total=120, seed=8, k=4),
            SyntheticSpec(example=2, n_total=400, seed=5, noise_rate=0.25),
        ],
    )
    def test_generated_dataset_equals_checked_construction(self, spec):
        tree, ds = generate(spec)
        assert_same_dataset(ds, LabeledDataset(ds.X, ds.labels, tree))
        for i in split_indices(ds.n):
            rows = slice(i[0], i[-1] + 1)
            view = ds._rows(rows)
            assert np.shares_memory(view.X, ds.X)
            assert_same_dataset(view, LabeledDataset(ds.X[rows], ds.labels[rows], tree))


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

    def test_csv_write_traces_under_two_mib(self, tmp_path):
        # 3000 x 95 rows are 5.8 MB of text; written in chunks, they are
        # never held whole
        tree = fanout10_tree()
        rng = np.random.default_rng(58)
        labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=3000)]
        ds = LabeledDataset(rng.normal(size=(3000, 95)), labels, tree)
        path = tmp_path / "data.csv"
        peak = traced_peak(lambda: write_dataset_csv(ds, path))
        assert read_dataset_csv(path, tree) == ds
        assert peak < 2 * 2**20, peak

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
