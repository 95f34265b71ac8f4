import tracemalloc

import numpy as np
import pytest

from labeltree.hierarchy import Tree, parse_tree

# Four-layer reference taxonomy: the root has two subtrees, the first
# binary down to layer 4, the second with a three-way fan at layer 3.
REFERENCE_DOC = """\
# reference taxonomy
animal: feline raptor
feline: lynx panther
raptor: kestrel harrier osprey
lynx: iberian_lynx eurasian_lynx
"""

TWO_LEAF_DOC = "root: left right\n"


@pytest.fixture(scope="session")
def reference_tree() -> Tree:
    return parse_tree(REFERENCE_DOC)


@pytest.fixture(scope="session")
def two_leaf_tree() -> Tree:
    return parse_tree(TWO_LEAF_DOC)


def random_tree(rng: np.random.Generator, max_depth: int = 5) -> Tree:
    """Random taxonomy with depth <= max_depth and 2-4 children per node."""
    return Tree("n0", random_children(rng, max_depth))


def random_children(rng: np.random.Generator, max_depth: int = 5) -> dict[str, list[str]]:
    """The children mapping of :func:`random_tree`, rooted at ``n0``."""
    depth = int(rng.integers(2, max_depth + 1))
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"n{counter}"

    children: dict[str, list[str]] = {}
    frontier = [("n0", 1)]
    while frontier:
        node, layer = frontier.pop(0)
        kids = [fresh() for _ in range(int(rng.integers(2, 5)))]
        children[node] = kids
        for kid in kids:
            if layer + 1 < depth and rng.random() < 0.6:
                frontier.append((kid, layer + 1))
    return children


def fanout10_tree() -> Tree:
    """1000 leaves: fan-out 10 on four layers, the root included."""
    children, frontier = {}, ["r"]
    for _ in range(3):
        for node in frontier:
            children[node] = [f"{node}.{j}" for j in range(10)]
        frontier = [kid for node in frontier for kid in children[node]]
    return Tree("r", children)


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
