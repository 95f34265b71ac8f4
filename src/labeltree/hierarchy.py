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

    Leaves also carry integer *leaf codes*, their positions in
    :attr:`leaves`; :attr:`leaf_paths` and :attr:`leaf_ancestors` are
    indexed by code, so hot loops work on integer arrays and node ids are
    needed only at the file and CLI boundary.  :attr:`leaf_ancestors` is
    the leaf rows of the one node ancestor matrix, :attr:`node_ancestors`.
    """

    __slots__ = (
        "_root",
        "_children",
        "_parent",
        "_layer",
        "_index_tuple",
        "_node_order",
        "_order_pos",
        "_leaves",
        "_depth",
        "_subtree_size",
        "_leaf_code",
        "_leaf_paths",
        "_node_ancestors",
        "_leaf_ancestors",
    )

    def __init__(self, root: str, children: Mapping[str, Iterable[str]]):
        self._root = root
        self._children: dict[str, tuple[str, ...]] = {
            parent: tuple(kids) for parent, kids in children.items()
        }
        if not root or not isinstance(root, str):
            raise TaxonomyError("root id must be a non-empty string")
        if root not in self._children:
            raise SingleChildError(f"root {root!r} has no children")

        self._parent: dict[str, str] = {}
        for parent, kids in self._children.items():
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
                if child in self._parent:
                    raise DuplicateNodeError(
                        f"node {child!r} is attached to both "
                        f"{self._parent[child]!r} and {parent!r}"
                    )
                self._parent[child] = parent
        if root in self._parent:
            raise CycleError(f"root {root!r} appears as a child")
        for parent in self._children:
            if parent != root and parent not in self._parent:
                raise UnknownParentError(
                    f"node {parent!r} declares children but is not attached "
                    "to the tree"
                )

        # Breadth-first sweep assigns layers and the global node order.
        self._layer: dict[str, int] = {root: 1}
        self._index_tuple: dict[str, tuple[int, ...]] = {root: (1,)}
        order: list[str] = []
        frontier = [root]
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for j, child in enumerate(self._children.get(node, ()), start=1):
                    self._layer[child] = self._layer[node] + 1
                    self._index_tuple[child] = self._index_tuple[node] + (j,)
                    nxt.append(child)
            order.extend(nxt)
            frontier = nxt
        unreachable = set(self._children) - set(self._layer)
        if unreachable:
            raise CycleError(
                "nodes not reachable from the root (cycle among "
                f"{sorted(unreachable)!r})"
            )

        self._node_order: tuple[str, ...] = tuple(order)
        self._order_pos: dict[str, int] = {
            node: i + 1 for i, node in enumerate(order)
        }
        self._leaves: tuple[str, ...] = tuple(
            node for node in order if node not in self._children
        )
        self._depth = max(self._layer.values())

        self._subtree_size: dict[str, int] = {}
        for node in reversed(order):
            self._subtree_size[node] = 1 + sum(
                self._subtree_size[c] for c in self._children.get(node, ())
            )
        self._subtree_size[root] = 1 + sum(
            self._subtree_size[c] for c in self._children[root]
        )

        self._leaf_code = {leaf: i for i, leaf in enumerate(self._leaves)}
        # Order indices from the root down to each node; parents precede
        # their children in node order.
        lineage = {root: (0,)}
        for i, node in enumerate(order, start=1):
            lineage[node] = lineage[self._parent[node]] + (i,)
        nodes = (root, *order)
        self._leaf_paths: tuple[tuple[str, ...], ...] = tuple(
            tuple(nodes[k] for k in lineage[leaf]) for leaf in self._leaves
        )
        ancestors = np.array(
            [lineage[n] + (-1,) * (self._depth - len(lineage[n])) for n in order],
            dtype=np.intp,
        )
        ancestors.setflags(write=False)
        self._node_ancestors = ancestors
        self._leaf_ancestors = ancestors[[self._order_pos[n] - 1 for n in self._leaves]]
        self._leaf_ancestors.setflags(write=False)

    # -- basic accessors ---------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    @property
    def depth(self) -> int:
        """Number of layers (root is layer 1)."""
        return self._depth

    @property
    def node_order(self) -> tuple[str, ...]:
        """Non-root nodes sorted by layer, left to right within a layer."""
        return self._node_order

    @property
    def q(self) -> int:
        """Number of non-root nodes."""
        return len(self._node_order)

    @property
    def leaves(self) -> tuple[str, ...]:
        return self._leaves

    @property
    def n_leaf(self) -> int:
        return len(self._leaves)

    @property
    def nodes(self) -> tuple[str, ...]:
        """All nodes, root first, then in node order."""
        return (self._root,) + self._node_order

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

        Entry ``[i, t-1]`` is the :meth:`order_index` of the ancestor at
        layer ``t`` of the node at position ``i`` of :attr:`node_order` (0
        for the root, the node itself at its own layer) and ``-1`` below the
        node's own layer.
        """
        return self._node_ancestors

    @property
    def leaf_ancestors(self) -> np.ndarray:
        """Read-only ``(n_leaf, depth)`` ancestor matrix over leaf codes.

        The leaf rows of :attr:`node_ancestors`: entry ``[c, t-1]`` is the
        :meth:`order_index` of leaf ``c``'s ancestor at layer ``t``.  Two
        distinct leaves first differ in column ``lca_layer(a, b)``.
        """
        return self._leaf_ancestors

    def __contains__(self, node: str) -> bool:
        return node in self._layer

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._root == other._root and self._children == other._children

    def __hash__(self) -> int:
        return hash((self._root, tuple(sorted(self._children.items()))))

    def children(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return self._children.get(node, ())

    def parent(self, node: str) -> str | None:
        self._require(node)
        return self._parent.get(node)

    def layer(self, node: str) -> int:
        return self._layer[node]

    def is_leaf(self, node: str) -> bool:
        self._require(node)
        return node not in self._children

    def index_tuple(self, node: str) -> tuple[int, ...]:
        """Position-derived index path (1, j2, ..., jm), 1-based per layer."""
        return self._index_tuple[node]

    def order_index(self, node: str) -> int:
        """1-based position in node order; the root maps to 0."""
        if node == self._root:
            return 0
        self._require(node)
        return self._order_pos[node]

    def nodes_at_layer(self, m: int) -> tuple[str, ...]:
        if m == 1:
            return (self._root,)
        return tuple(n for n in self._node_order if self._layer[n] == m)

    def subtree_size(self, node: str) -> int:
        """Number of nodes in the subtree rooted at ``node``, itself included."""
        self._require(node)
        return self._subtree_size[node]

    # -- ancestry ----------------------------------------------------------

    def ancestor_at_layer(self, node: str, t: int) -> str:
        """Ancestor of ``node`` at layer ``t`` (a node is its own ancestor)."""
        self._require(node)
        if not 1 <= t <= self._layer[node]:
            raise ValueError(
                f"layer {t} out of range for node {node!r} at layer "
                f"{self._layer[node]}"
            )
        while self._layer[node] > t:
            node = self._parent[node]
        return node

    def path_of_leaf(self, leaf: str) -> tuple[str, ...]:
        """Root-to-leaf path, root included."""
        code = self._leaf_code.get(leaf)
        if code is None:
            self._require(leaf)
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
        codes = []
        for i, path in enumerate(paths):
            path = tuple(path)
            if not self.is_path(path):
                raise PathError(
                    f"{what} {i} {path!r} is not a root-to-leaf path of the tree"
                )
            codes.append(self._leaf_code[path[-1]])
        return np.array(codes, dtype=np.intp)

    def is_path(self, path: Iterable[str]) -> bool:
        """True when ``path`` is a full root-to-leaf path of this tree."""
        seq = tuple(path)
        code = self._leaf_code.get(seq[-1]) if seq else None
        return code is not None and self._leaf_paths[code] == seq

    def lca_layer(self, a: str, b: str) -> int:
        """Layer of the latest (deepest) common ancestor of two nodes.

        Computed as the longest common prefix of the position-derived index
        tuples, so ``lca_layer(x, x)`` equals ``layer(x)`` and any pair that
        only meets at the root gives 1.
        """
        ta, tb = self._index_tuple[a], self._index_tuple[b]
        t = 0
        for x, y in zip(ta, tb):
            if x != y:
                break
            t += 1
        return t

    def lca_layer_matrix(self) -> np.ndarray:
        """(q, q) matrix of ``lca_layer`` over non-root nodes in node order.

        Counts the layers at which two nodes share an ancestor, one column
        of :attr:`node_ancestors` at a time; the diagonal is ``layer(x)``.
        """
        q = self.q
        out = np.zeros((q, q), dtype=np.int64)
        for col in self._node_ancestors.T:
            out += (col[:, None] == col[None, :]) & (col >= 0)[:, None]
        return out

    # -- serialization -----------------------------------------------------

    def document(self) -> str:
        """Canonical adjacency document (parseable by :func:`parse_tree`)."""
        lines = []
        for node in self.nodes:
            kids = self._children.get(node)
            if kids:
                lines.append(f"{node}: {' '.join(kids)}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.document().encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"Tree(root={self._root!r}, depth={self._depth}, "
            f"nodes={1 + self.q}, leaves={self.n_leaf})"
        )

    def _require(self, node: str) -> None:
        if node not in self._layer:
            raise KeyError(node)


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
