"""Rooted class taxonomies: parsing, validation, node ordering, and ancestry.

A taxonomy is a rooted tree in which every non-leaf node has at least two
children.  Layers are 1-based with the root at layer 1.  Children keep the
order in which the source document lists them, and the global node order is
breadth-first: layer by layer from the top, left to right within a layer.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from types import MappingProxyType

import numpy as np

__all__ = [
    "Tree",
    "parse_tree",
    "load_tree",
    "TaxonomyError",
    "DuplicateNodeError",
    "SingleChildError",
    "CycleError",
    "MultipleRootsError",
    "UnknownParentError",
    "PathError",
]


class TaxonomyError(ValueError):
    """A taxonomy document or tree structure is invalid."""


class DuplicateNodeError(TaxonomyError):
    """A node id is declared or attached more than once."""


class SingleChildError(TaxonomyError):
    """A non-leaf node has fewer than two children."""


class CycleError(TaxonomyError):
    """The parent/child relation contains a cycle."""


class MultipleRootsError(TaxonomyError):
    """More than one node has no parent."""


class UnknownParentError(TaxonomyError):
    """A line declares children under a node that is not part of the tree."""


class PathError(ValueError, KeyError):
    """A node sequence is not a full root-to-leaf path of the tree.

    Also a :class:`KeyError`, as a lookup of an unknown node id raises.
    """

    __str__ = ValueError.__str__  # KeyError's would quote the message


class Tree:
    """Immutable rooted taxonomy.

    Parameters
    ----------
    root:
        Id of the root node.
    children:
        Mapping from each non-leaf node id to its ordered child ids.  Ids
        that appear only as children are the leaves.

    Notes
    -----
    Construction validates the standing structural assumptions: a single
    root, at least two children per non-leaf node, one parent per node, and
    acyclicity.  Instances are immutable afterwards and safe to share
    across threads.

    A tree stores its node ids once, in :attr:`nodes`, plus integer arrays
    by *order index*, a node's position in :attr:`nodes`
    (:attr:`node_ancestors`, :attr:`node_parents`, :attr:`node_fanouts`,
    :attr:`first_children` and the rest); the id-keyed accessors read
    those arrays.  Leaves also carry integer *leaf
    codes*, their positions in :attr:`leaves`; :attr:`leaf_paths` and
    :attr:`leaf_ancestors` are indexed by code, so hot loops work on
    integer arrays and node ids are needed only at the file and CLI
    boundary.  :attr:`leaf_ancestors` is the leaf rows of the one node
    ancestor matrix, :attr:`node_ancestors`.
    """

    __slots__ = (
        "_nodes",
        "_order_pos",
        "_leaves",
        "_leaf_code",
        "_leaf_paths",
        "_path_code",
        "_node_ancestors",
        "_leaf_ancestors",
        "_node_layers",
        "_node_parents",
        "_node_fanouts",
        "_first_children",
        "_subtree_sizes",
    )

    def __init__(self, root: str, children: Mapping[str, Iterable[str]]):
        children = {parent: tuple(kids) for parent, kids in children.items()}
        if not root or not isinstance(root, str):
            raise TaxonomyError("root id must be a non-empty string")
        if root not in children:
            raise SingleChildError(f"root {root!r} has no children")

        parent_of: dict[str, str] = {}
        for parent, kids in children.items():
            if len(kids) < 2:
                raise SingleChildError(
                    f"node {parent!r} has {len(kids)} child(ren); "
                    "non-leaf nodes need at least two"
                )
            for child in kids:
                if not child:
                    raise TaxonomyError(f"node {parent!r} lists an empty child id")
                if child == parent:
                    raise CycleError(f"node {parent!r} lists itself as a child")
                if child in parent_of:
                    raise DuplicateNodeError(
                        f"node {child!r} is attached to both "
                        f"{parent_of[child]!r} and {parent!r}"
                    )
                parent_of[child] = parent
        if root in parent_of:
            raise CycleError(f"root {root!r} appears as a child")
        for parent in children:
            if parent != root and parent not in parent_of:
                raise UnknownParentError(
                    f"node {parent!r} declares children but is not attached "
                    "to the tree"
                )

        # Breadth-first sweep assigns the global node order and each node's
        # lineage: the order indices from the root down to it.
        nodes, lineage = [root], [(0,)]
        for i, node in enumerate(nodes):  # the sweep appends as it goes
            for child in children.get(node, ()):
                lineage.append(lineage[i] + (len(nodes),))
                nodes.append(child)
        self._order_pos = {node: i for i, node in enumerate(nodes)}
        unreachable = set(children) - self._order_pos.keys()
        if unreachable:
            raise CycleError(
                "nodes not reachable from the root (cycle among "
                f"{sorted(unreachable)!r})"
            )

        self._nodes: tuple[str, ...] = tuple(nodes)
        self._leaves: tuple[str, ...] = tuple(
            node for node in nodes if node not in children
        )
        depth = len(lineage[-1])

        self._leaf_code = {leaf: i for i, leaf in enumerate(self._leaves)}
        self._leaf_paths: tuple[tuple[str, ...], ...] = tuple(
            tuple(nodes[k] for k in lineage[self._order_pos[leaf]])
            for leaf in self._leaves
        )
        self._path_code = {path: i for i, path in enumerate(self._leaf_paths)}
        ancestors = np.array(
            [line + (-1,) * (depth - len(line)) for line in lineage[1:]],
            dtype=np.intp,
        )
        # The shape by order index, root first.  Every row of the ancestor
        # matrix holds the root and the node itself; the root has no row.
        layers = np.append(1, (ancestors >= 0).sum(axis=1))
        parents = np.append(-1, ancestors[np.arange(self.q), layers[1:] - 2])
        fanouts = np.bincount(parents[1:], minlength=1 + self.q)
        first = np.cumsum(fanouts) - fanouts + 1
        sizes = np.bincount(ancestors[ancestors >= 0], minlength=1 + self.q)
        sizes[0] += 1
        leaf_rows = ancestors[fanouts[1:] == 0]
        for arr in (ancestors, leaf_rows, layers, parents, fanouts, first, sizes):
            arr.setflags(write=False)
        self._node_ancestors, self._leaf_ancestors = ancestors, leaf_rows
        self._node_layers, self._node_parents = layers, parents
        self._node_fanouts, self._first_children = fanouts, first
        self._subtree_sizes = sizes

    # -- basic accessors ---------------------------------------------------

    @property
    def root(self) -> str:
        return self._nodes[0]

    @property
    def depth(self) -> int:
        """Number of layers (root is layer 1)."""
        return int(self._node_layers[-1])

    @property
    def node_order(self) -> tuple[str, ...]:
        """Non-root nodes sorted by layer, left to right within a layer."""
        return self._nodes[1:]

    @property
    def q(self) -> int:
        """Number of non-root nodes."""
        return len(self._nodes) - 1

    @property
    def leaves(self) -> tuple[str, ...]:
        return self._leaves

    @property
    def n_leaf(self) -> int:
        return len(self._leaves)

    @property
    def nodes(self) -> tuple[str, ...]:
        """All nodes, root first, then in node order."""
        return self._nodes

    @property
    def leaf_codes(self) -> Mapping[str, int]:
        """Leaf id to its code, the leaf's position in :attr:`leaves`."""
        return MappingProxyType(self._leaf_code)

    @property
    def leaf_paths(self) -> tuple[tuple[str, ...], ...]:
        """Root-to-leaf path of each leaf code, root included."""
        return self._leaf_paths

    @property
    def node_ancestors(self) -> np.ndarray:
        """Read-only ``(q, depth)`` ancestor matrix over node order.

        Entry ``[i, t-1]`` is the order index of the ancestor at
        layer ``t`` of the node at position ``i`` of :attr:`node_order` (0
        for the root, the node itself at its own layer) and ``-1`` below the
        node's own layer.
        """
        return self._node_ancestors

    @property
    def leaf_ancestors(self) -> np.ndarray:
        """Read-only ``(n_leaf, depth)`` ancestor matrix over leaf codes.

        The leaf rows of :attr:`node_ancestors`: entry ``[c, t-1]`` is the
        order index of leaf ``c``'s ancestor at layer ``t``.  Two distinct
        leaves first differ in the column of their LCA layer.
        """
        return self._leaf_ancestors

    @property
    def node_layers(self) -> np.ndarray:
        """Read-only layer of each node by order index, 1 at the root."""
        return self._node_layers

    @property
    def node_parents(self) -> np.ndarray:
        """Read-only order index of each node's parent, -1 at the root."""
        return self._node_parents

    @property
    def node_fanouts(self) -> np.ndarray:
        """Read-only child count of each node by order index, 0 at a leaf."""
        return self._node_fanouts

    @property
    def first_children(self) -> np.ndarray:
        """Read-only order index of each node's first child.

        Children of ``P`` are ``first_children[P] + range(node_fanouts[P])``;
        at a leaf, the entry is where the next parent's children start.
        """
        return self._first_children

    @property
    def subtree_sizes(self) -> np.ndarray:
        """Read-only size of each node's subtree, itself included, by order index."""
        return self._subtree_sizes

    def __contains__(self, node: str) -> bool:
        return node in self._order_pos

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        # equal node order and parents: the same root and ordered children
        return self._nodes == other._nodes and np.array_equal(
            self._node_parents, other._node_parents
        )

    def __hash__(self) -> int:
        return hash(self._nodes)

    def children(self, node: str) -> tuple[str, ...]:
        i = self._order_pos[node]
        first = self._first_children[i]
        return self._nodes[first : first + self._node_fanouts[i]]

    def parent(self, node: str) -> str | None:
        up = self._node_parents[self._order_pos[node]]
        return None if up < 0 else self._nodes[up]

    def layer(self, node: str) -> int:
        return int(self._node_layers[self._order_pos[node]])

    def is_leaf(self, node: str) -> bool:
        return not self._node_fanouts[self._order_pos[node]]

    # -- ancestry ----------------------------------------------------------

    def path_of_leaf(self, leaf: str) -> tuple[str, ...]:
        """Root-to-leaf path, root included."""
        code = self._leaf_code.get(leaf)
        if code is None:
            self._order_pos[leaf]  # an unknown id raises KeyError
            raise ValueError(f"node {leaf!r} is not a leaf")
        return self._leaf_paths[code]

    def leaf_codes_of(
        self, paths: Iterable[Iterable[str]], what: str = "path"
    ) -> np.ndarray:
        """Leaf code of each full root-to-leaf path in ``paths``.

        Raises :class:`PathError` for the first sequence that is not a full
        root-to-leaf path of this tree, naming it as ``what`` and its
        position.
        """
        seqs = list(map(tuple, paths))
        try:
            return np.array(list(map(self._path_code.__getitem__, seqs)), dtype=np.intp)
        except (KeyError, TypeError):  # not a leaf path, or an unhashable node
            i = next(i for i, seq in enumerate(seqs) if not self.is_path(seq))
        raise PathError(f"{what} {i} {seqs[i]!r} is not a root-to-leaf path of the tree")

    def is_path(self, path: Iterable[str]) -> bool:
        """True when ``path`` is a full root-to-leaf path of this tree."""
        seq = tuple(path)
        try:
            return seq in self._path_code
        except TypeError:  # an unhashable node
            return False

    def lca_layers(self, rows: slice) -> np.ndarray:
        """(len(rows), q) layer of the latest (deepest) common ancestor of
        each node in ``rows`` with every node, node order.

        Counts the layers at which two nodes share an ancestor, one column
        of :attr:`node_ancestors` at a time into one reused boolean block;
        a node with itself gives its layer.  Entries take the smallest
        signed type holding ``±depth``, int8 to 127 layers.
        """
        ancestors = self._node_ancestors
        block = ancestors[rows]
        out = np.zeros((len(block), self.q), dtype=np.min_scalar_type(-1 - self.depth))
        same = np.empty(out.shape, dtype=bool)
        for mine, col in zip(block.T, ancestors.T):
            np.equal(mine[:, None], col[None, :], out=same)
            same[mine < 0] = False  # no ancestor at this layer
            out += same
        return out

    def lca_layer_matrix(self) -> np.ndarray:
        """(q, q) :meth:`lca_layers` of every node; the diagonal is ``layer(x)``."""
        return self.lca_layers(slice(0, self.q))

    # -- serialization -----------------------------------------------------

    def document(self) -> str:
        """Canonical adjacency document (parseable by :func:`parse_tree`)."""
        nodes, first = self._nodes, self._first_children.tolist()
        lines = [
            f"{nodes[i]}: {' '.join(nodes[first[i] : first[i] + f])}"
            for i, f in enumerate(self._node_fanouts.tolist())
            if f
        ]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.document().encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"Tree(root={self.root!r}, depth={self.depth}, "
            f"nodes={1 + self.q}, leaves={self.n_leaf})"
        )


def parse_tree(text: str) -> Tree:
    """Parse an adjacency taxonomy document.

    One line per non-leaf node, ``parent_id: child_id child_id ...``; the
    first line's parent is the root.  Blank lines and lines starting with
    ``#`` are ignored.  Leaf nodes appear only as children.

    Raises a :class:`TaxonomyError` subclass naming the offending line for
    duplicate ids, nodes with fewer than two children, cycles, multiple
    roots, and references to unknown parents.
    """
    declared: dict[str, tuple[int, tuple[str, ...]]] = {}
    child_line: dict[str, int] = {}
    root: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parent, sep, rest = line.partition(":")
        if not sep:
            raise TaxonomyError(f"line {lineno}: expected 'parent: child ...'")
        parent = parent.strip()
        kids = tuple(rest.split())
        if not parent:
            raise TaxonomyError(f"line {lineno}: empty parent id")
        if parent in declared:
            raise DuplicateNodeError(
                f"line {lineno}: node {parent!r} already declared on line "
                f"{declared[parent][0]}"
            )
        if len(kids) < 2:
            raise SingleChildError(
                f"line {lineno}: node {parent!r} has {len(kids)} child(ren); "
                "non-leaf nodes need at least two"
            )
        for child in kids:
            if child == parent:
                raise CycleError(f"line {lineno}: node {parent!r} is its own child")
            if child in child_line:
                raise DuplicateNodeError(
                    f"line {lineno}: node {child!r} already attached on line "
                    f"{child_line[child]}"
                )
        for child in kids:
            child_line[child] = lineno
        declared[parent] = (lineno, kids)
        if root is None:
            root = parent
    if root is None:
        raise TaxonomyError("document declares no nodes")

    tops = [p for p in declared if p not in child_line]
    if not tops:
        raise CycleError("every declared node has a parent; the document cycles")
    if len(tops) > 1:
        raise MultipleRootsError(
            "multiple roots: " + ", ".join(repr(t) for t in tops)
        )
    if tops != [root]:
        lineno = declared[tops[0]][0]
        raise UnknownParentError(
            f"line {lineno}: node {tops[0]!r} is not attached under the "
            f"declared root {root!r}"
        )

    return Tree(root, {p: kids for p, (_, kids) in declared.items()})


def load_tree(path) -> Tree:
    """Read and parse a taxonomy document from ``path`` (UTF-8)."""
    with open(path, encoding="utf-8") as fh:
        return parse_tree(fh.read())
