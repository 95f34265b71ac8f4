"""Seeded synthetic benchmarks over fixed taxonomy shapes.

Two designs are provided:

* design 1: a tree with four second-layer nodes and binary branching
  below, features drawn around sparse means that indicate the label path
  (coordinate ``j`` set to ``1/(m-1)`` when the path's layer-``m`` node
  sits at position ``j`` of the node order), with optional uniform label
  noise;
* design 2: a five-layer tree with twelve second-layer nodes and binary
  branching below (180 non-root nodes, 96 leaves), features drawn around
  the leaf's embedded point.

Sampling uses numpy's ``default_rng`` (PCG64 stream, ziggurat normals), so
one seed fully determines a dataset; bit-exact reproducibility is
promised within a single numpy build.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .classifier import LabeledDataset
from .embedding import embed_tree
from .hierarchy import Tree

__all__ = [
    "SyntheticSpec",
    "example1_tree",
    "example2_tree",
    "gen_example1",
    "gen_example2",
    "generate",
    "split_indices",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_tree",
]

NOISE_STD = math.sqrt(0.1)
EXAMPLE2_FEATURES = 95


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset.

    ``example`` selects the design (1 or 2).  ``k`` (design 1 only) is the
    tree depth; ``p`` the feature count (design 1 needs ``p >= q``, design
    2 fixes ``p = 95``; ``None`` picks the design default).  ``noise_rate``
    is the fraction of samples whose label is resampled uniformly over all
    paths (the redraw may repeat the original label).
    """

    example: int
    n_total: int
    seed: int
    k: int = 3
    p: int | None = None
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.example not in (1, 2):
            raise ValueError(f"example must be 1 or 2, got {self.example}")
        if self.n_total < 1:
            raise ValueError("n_total must be positive")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if self.example == 1 and self.k < 2:
            raise ValueError(f"tree depth must be at least 2, got {self.k}")


def _indexed_tree(second_layer: int, depth: int) -> Tree:
    """Tree whose node ids are their own node-order indices ("0" = root)."""
    children: dict[str, list[str]] = {}
    counter = 1
    frontier = []
    kids = [str(counter + i) for i in range(second_layer)]
    counter += second_layer
    children["0"] = kids
    frontier = kids
    for _ in range(depth - 2):
        nxt = []
        for node in frontier:
            pair = [str(counter), str(counter + 1)]
            counter += 2
            children[node] = pair
            nxt.extend(pair)
        frontier = nxt
    return Tree("0", children)


def example1_tree(k: int = 3) -> Tree:
    """Design-1 tree: four second-layer nodes, binary branching, depth ``k``."""
    return _indexed_tree(4, k)


def example2_tree() -> Tree:
    """Design-2 tree: twelve second-layer nodes, binary branching, depth 5."""
    return _indexed_tree(12, 5)


def _default_p(example: int, k: int, q: int) -> int:
    if example == 2:
        return EXAMPLE2_FEATURES
    if k == 3:
        return 15
    if k == 4:
        return 30
    return q


def _draw_paths(tree: Tree, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, tree.n_leaf, size=n)


def _apply_label_noise(
    tree: Tree, leaf_idx: np.ndarray, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Resample labels of ``round(rate * n)`` samples uniformly over paths."""
    n_noisy = round(rate * len(leaf_idx))
    if n_noisy == 0:
        return leaf_idx
    chosen = rng.choice(len(leaf_idx), size=n_noisy, replace=False)
    out = leaf_idx.copy()
    out[chosen] = rng.integers(0, tree.n_leaf, size=n_noisy)
    return out


def gen_example1(spec: SyntheticSpec) -> tuple[Tree, LabeledDataset]:
    """Sparse-indicator-mean Gaussian design with optional label noise."""
    if spec.example != 1:
        raise ValueError("spec.example must be 1")
    tree = example1_tree(spec.k)
    p = spec.p if spec.p is not None else _default_p(1, spec.k, tree.q)
    if p < tree.q:
        raise ValueError(
            f"feature dimension {p} is smaller than the {tree.q} non-root nodes"
        )
    rng = np.random.default_rng(spec.seed)
    leaf_idx = _draw_paths(tree, spec.n_total, rng)

    # mean matrix indexed by leaf: coordinate (order index - 1) of the
    # path's layer-m node carries 1/(m-1)
    means = np.zeros((tree.n_leaf, p))
    for li, leaf in enumerate(tree.leaves):
        path = tree.path_of_leaf(leaf)
        for m, node in enumerate(path[1:], start=2):
            means[li, tree.order_index(node) - 1] = 1.0 / (m - 1)

    X = means[leaf_idx] + NOISE_STD * rng.standard_normal((spec.n_total, p))
    leaf_idx = _apply_label_noise(tree, leaf_idx, spec.noise_rate, rng)
    labels = tuple(tree.leaves[i] for i in leaf_idx)
    return tree, LabeledDataset(X=X, labels=labels, tree=tree)


def gen_example2(spec: SyntheticSpec) -> tuple[Tree, LabeledDataset]:
    """Embedded-mean Gaussian design on the fixed five-layer tree."""
    if spec.example != 2:
        raise ValueError("spec.example must be 2")
    tree = example2_tree()
    if spec.p is not None and spec.p != EXAMPLE2_FEATURES:
        raise ValueError(
            f"design 2 fixes the feature dimension to {EXAMPLE2_FEATURES}"
        )
    table = embed_tree(tree)
    rng = np.random.default_rng(spec.seed)
    leaf_idx = _draw_paths(tree, spec.n_total, rng)
    means = np.stack([table.vector(leaf) for leaf in tree.leaves])
    X = means[leaf_idx] + NOISE_STD * rng.standard_normal(
        (spec.n_total, EXAMPLE2_FEATURES)
    )
    leaf_idx = _apply_label_noise(tree, leaf_idx, spec.noise_rate, rng)
    labels = tuple(tree.leaves[i] for i in leaf_idx)
    return tree, LabeledDataset(X=X, labels=labels, tree=tree)


def generate(spec: SyntheticSpec) -> tuple[Tree, LabeledDataset]:
    return gen_example1(spec) if spec.example == 1 else gen_example2(spec)


def split_indices(
    n_total: int, ratios: tuple[int, int, int] = (1, 1, 2)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous train/validation/test index blocks in the given ratio.

    Samples are exchangeable by construction, so contiguous blocks are a
    valid random split and keep the protocol deterministic.
    """
    total = sum(ratios)
    n_train = n_total * ratios[0] // total
    n_val = n_total * ratios[1] // total
    idx = np.arange(n_total)
    return (
        idx[:n_train],
        idx[n_train : n_train + n_val],
        idx[n_train + n_val :],
    )


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    """Write features and labels as CSV: columns ``f1..fp`` then ``label``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j + 1}" for j in range(dataset.p)] + ["label"])
        for row, label in zip(dataset.X.tolist(), dataset.labels):
            writer.writerow([*map(repr, row), label])


def read_dataset_csv(path, tree: Tree) -> LabeledDataset:
    """Read a dataset written by :func:`write_dataset_csv`."""
    X, labels = read_feature_csv(path)
    if labels is None:
        raise ValueError(f"{path}: no 'label' column")
    return LabeledDataset(X=X, labels=labels, tree=tree)


def read_feature_csv(path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a feature CSV; the trailing ``label`` column is optional."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        has_label = header and header[-1] == "label"
        n_feat = len(header) - (1 if has_label else 0)
        rows, labels = [], []
        for record in reader:
            if not record:
                continue
            if len(record) != len(header):
                raise ValueError(
                    f"{path}: row with {len(record)} fields, expected {len(header)}"
                )
            rows.append([float(v) for v in record[:n_feat]])
            if has_label:
                labels.append(record[-1])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    X = np.array(rows, dtype=float).reshape(len(rows), n_feat)
    return X, tuple(labels) if has_label else None


def write_tree(tree: Tree, path) -> None:
    """Write the canonical taxonomy document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tree.document())
