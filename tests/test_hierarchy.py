import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeltree.hierarchy import (
    CycleError,
    DuplicateNodeError,
    MultipleRootsError,
    PathError,
    SingleChildError,
    TaxonomyError,
    UnknownParentError,
    parse_tree,
)

from conftest import REFERENCE_DOC, fanout10_tree, random_tree, traced_peak
from oracles import dict_tree


class TestParsing:
    def test_reference_shape(self, reference_tree):
        t = reference_tree
        assert t.depth == 4
        assert t.n_leaf == 6
        assert t.q == 9
        assert t.root == "animal"
        assert t.node_order == (
            "feline",
            "raptor",
            "lynx",
            "panther",
            "kestrel",
            "harrier",
            "osprey",
            "iberian_lynx",
            "eurasian_lynx",
        )
        assert t.leaves == (
            "panther",
            "kestrel",
            "harrier",
            "osprey",
            "iberian_lynx",
            "eurasian_lynx",
        )

    def test_two_leaf_tree(self, two_leaf_tree):
        assert two_leaf_tree.depth == 2
        assert two_leaf_tree.q == 2
        assert two_leaf_tree.leaves == ("left", "right")

    def test_comments_and_blank_lines_ignored(self, reference_tree):
        doc = "\n# header\n\n" + REFERENCE_DOC + "\n\n# trailer\n"
        assert parse_tree(doc) == reference_tree

    def test_reparse_is_stable(self, reference_tree):
        again = parse_tree(REFERENCE_DOC)
        assert again.node_order == reference_tree.node_order
        assert again == reference_tree

    def test_document_round_trip(self, reference_tree):
        assert parse_tree(reference_tree.document()) == reference_tree

    def test_single_child_rejected(self):
        with pytest.raises(SingleChildError):
            parse_tree("root: only\n")

    def test_childless_line_rejected(self):
        with pytest.raises(SingleChildError):
            parse_tree("root: a b\na:\n")

    def test_duplicate_child(self):
        with pytest.raises(DuplicateNodeError, match="line 2"):
            parse_tree("root: a b\nc: a d\nb: c e\n")

    def test_duplicate_parent_line(self):
        with pytest.raises(DuplicateNodeError):
            parse_tree("root: a b\nroot: c d\n")

    def test_cycle(self):
        with pytest.raises(CycleError):
            parse_tree("a: b c\nb: a d\n")

    def test_self_loop(self):
        with pytest.raises(CycleError):
            parse_tree("a: a b\n")

    def test_multiple_roots(self):
        with pytest.raises(MultipleRootsError, match="'d'"):
            parse_tree("a: b c\nd: e f\n")

    def test_unknown_parent(self):
        # 'a' sits above the declared root 'b'
        with pytest.raises(UnknownParentError, match="line 2"):
            parse_tree("b: c d\na: b e\n")

    def test_missing_colon(self):
        with pytest.raises(TaxonomyError, match="line 1"):
            parse_tree("root a b\n")

    def test_empty_document(self):
        with pytest.raises(TaxonomyError):
            parse_tree("# nothing here\n")


def lca_layer(tree, a, b) -> int:
    """Entry of ``tree.lca_layer_matrix()`` for two non-root node ids."""
    i, j = tree.node_order.index(a), tree.node_order.index(b)
    return int(tree.lca_layer_matrix()[i, j])


class TestAncestry:
    def test_lca_layer_reference_values(self, reference_tree):
        t = reference_tree
        # the deep leaf and the three-way fan only meet at the root
        assert lca_layer(t, "iberian_lynx", "kestrel") == 1
        assert lca_layer(t, "feline", "lynx") == 2
        assert lca_layer(t, "feline", "osprey") == 1

    def test_lca_layer_identity(self, reference_tree):
        lca = reference_tree.lca_layer_matrix()
        assert np.diagonal(lca).tolist() == reference_tree.node_layers[1:].tolist()
        for node in reference_tree.node_order:
            assert lca_layer(reference_tree, node, node) == reference_tree.layer(node)

    def test_lca_layer_matrix_traces_the_result_and_one_boolean_square(self):
        # one (q, q) int8 result and one reused (q, q) boolean buffer; the
        # slack holds a ufunc's iteration buffers, not a second q-by-q array
        tree = fanout10_tree()
        peak = traced_peak(tree.lca_layer_matrix)
        assert tree.lca_layer_matrix().dtype == np.int8
        assert peak < 2 * tree.q**2 + 2**18, peak

    @pytest.mark.parametrize("n", [1, 7, 118])
    def test_lca_layers_traces_the_block_and_one_boolean_block(self, n):
        # (n, q) int8 rows and one reused (n, q) boolean block, with the
        # same slack for a ufunc's iteration buffers as the whole matrix
        tree = fanout10_tree()
        for rows in (slice(0, n), slice(tree.q - n, tree.q)):
            peak = traced_peak(lambda: tree.lca_layers(rows))
            assert peak < 2 * n * tree.q + 2**18, peak

    def test_path_of_leaf(self, reference_tree, two_leaf_tree):
        assert reference_tree.path_of_leaf("kestrel") == ("animal", "raptor", "kestrel")
        assert reference_tree.path_of_leaf("iberian_lynx") == (
            "animal",
            "feline",
            "lynx",
            "iberian_lynx",
        )
        assert len(reference_tree.path_of_leaf("eurasian_lynx")) == 4
        assert two_leaf_tree.path_of_leaf("left") == ("root", "left")

    def test_path_of_non_leaf_rejected(self, reference_tree):
        with pytest.raises(ValueError):
            reference_tree.path_of_leaf("feline")

    def test_is_path(self, reference_tree):
        assert reference_tree.is_path(("animal", "raptor", "kestrel"))
        assert not reference_tree.is_path(("animal", "raptor"))
        assert not reference_tree.is_path(("animal", "feline", "kestrel"))
        assert not reference_tree.is_path(())
        # unhashable or non-string nodes are not paths, wherever they sit
        assert not reference_tree.is_path(("animal", "raptor", ["kestrel"]))
        assert not reference_tree.is_path((["animal"], "raptor", "kestrel"))
        assert not reference_tree.is_path(("animal", "raptor", 3))

    def test_leaf_codes_of_names_the_first_bad_path(self, reference_tree):
        t = reference_tree
        good = [t.leaf_paths[c] for c in (2, 0, 2)]
        assert t.leaf_codes_of(good).tolist() == [2, 0, 2]
        assert t.leaf_codes_of(list(p) for p in good).dtype == np.intp
        assert t.leaf_codes_of([]).shape == (0,)
        for bad in [("animal", "raptor"), ("animal", "raptor", ["kestrel"]), (1, 2)]:
            paths = iter([good[0], bad, good[1], ("animal",)])
            with pytest.raises(PathError) as info:
                t.leaf_codes_of(paths, "true path of pair")
            assert str(info.value) == (
                f"true path of pair 1 {tuple(bad)!r} is not a root-to-leaf path of the tree"
            )

    def test_ancestor_at_layer(self, reference_tree):
        t = reference_tree
        row = t.node_ancestors[t.node_order.index("iberian_lynx")]
        assert [t.nodes[k] for k in row] == ["animal", "feline", "lynx", "iberian_lynx"]
        row = t.node_ancestors[t.node_order.index("feline")]
        assert row.tolist() == [0, 1, -1, -1]  # nothing below its own layer

    def test_subtree_size(self, reference_tree):
        sizes = dict(zip(reference_tree.nodes, reference_tree.subtree_sizes.tolist()))
        assert sizes["feline"] == 5
        assert sizes["animal"] == 10
        assert sizes["osprey"] == 1

    def test_order_index(self, reference_tree):
        # the arrays are by position in ``nodes``: the root 0, then node order
        t = reference_tree
        assert t.nodes[0] == "animal" and t.node_parents[0] == -1
        assert t.node_ancestors[-1].tolist() == [0, 1, 3, 9]  # eurasian_lynx
        assert [t.nodes[k] for k in (1, 9)] == ["feline", "eurasian_lynx"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lca_layer_properties(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    picks = rng.choice(len(tree.node_order), size=min(12, tree.q), replace=False)
    lca, ancestors, layers = tree.lca_layer_matrix(), tree.node_ancestors, tree.node_layers[1:]
    for a in picks:
        for b in picks:
            t = lca[a, b]
            assert t == lca[b, a]
            assert 1 <= t <= min(layers[a], layers[b])
            # the pair shares its ancestor at layer t, and not one layer deeper
            assert ancestors[a, t - 1] == ancestors[b, t - 1]
            if t < min(layers[a], layers[b]):
                assert ancestors[a, t] != ancestors[b, t]
            # one is the other's ancestor exactly when t is the shallower's layer
            shallow = a if layers[a] <= layers[b] else b
            assert (t == layers[shallow]) == (ancestors[a, t - 1] == shallow + 1)


def walks_root_to_leaf(tree, seq) -> bool:
    """Structural oracle of ``Tree.is_path``: root, parent-child steps, a leaf."""
    return (
        bool(seq)
        and all(isinstance(v, str) and v in tree for v in seq)
        and seq[0] == tree.root
        and all(tree.parent(b) == a for a, b in zip(seq, seq[1:]))
        and tree.is_leaf(seq[-1])
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_path_lookups_equal_structural_oracle(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    nodes, seqs = tree.nodes, list(tree.leaf_paths)
    for path in tree.leaf_paths:
        seqs += [path[:-1], path + path[-1:], path[::-1], list(path)]
        k = int(rng.integers(len(path)))
        seqs.append(path[:k] + (nodes[rng.integers(len(nodes))],) + path[k + 1 :])
        seqs.append(path[:k] + ([path[k]],) + path[k + 1 :])
        seqs.append(path[:k] + (tree.nodes.index(path[k]),) + path[k + 1 :])
    seqs += [(), (tree.root,)]
    for i, seq in enumerate(seqs):
        want = walks_root_to_leaf(tree, seq)
        assert tree.is_path(seq) == want, seq
        if want:
            assert tree.leaf_codes_of([seq]).tolist() == [tree.leaf_codes[seq[-1]]]
        else:
            prefix = [tree.leaf_paths[j % tree.n_leaf] for j in range(i % 5)]
            with pytest.raises(PathError, match=f"^path {len(prefix)} "):
                tree.leaf_codes_of([*prefix, seq, tree.leaf_paths[0]])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_structural_invariants(seed):
    tree = random_tree(np.random.default_rng(seed))
    assert tree.q == len(tree.node_order)
    per_layer = np.bincount(tree.node_layers, minlength=tree.depth + 1)
    assert per_layer[1] == 1 and per_layer[2:].sum() == tree.q and per_layer[2:].all()
    assert tree.n_leaf == sum(1 for n in tree.node_order if tree.is_leaf(n))
    # node order: layers ascend, and within a layer document order is kept
    layers = [tree.layer(n) for n in tree.node_order]
    assert layers == sorted(layers)
    # matrix lca agrees with the dict oracle's
    M, want = tree.lca_layer_matrix(), dict_tree(tree)
    order = tree.node_order
    idx = np.random.default_rng(seed + 1).integers(0, tree.q, size=min(40, tree.q))
    for i in idx:
        for j in idx:
            assert M[i, j] == want.lca_layer(order[i], order[j])
