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
import io
import math
import re
import warnings
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


def _default_p(k: int, q: int) -> int:
    if k == 3:
        return 15
    if k == 4:
        return 30
    return q


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


# features of a chunk of rows that _sample adds the leaf means to at once
_MEANS_CHUNK_FLOATS = 2**14


def _sample(tree: Tree, means: np.ndarray, spec: SyntheticSpec) -> tuple[Tree, LabeledDataset]:
    """Uniform leaves, Gaussian features around the leaf means, then label noise.

    ``means`` is by leaf code.  The features are ``means[leaves] +
    NOISE_STD * rng.standard_normal(...)`` made in place: the draws fill
    the result, which is scaled and then takes the means a chunk of rows at
    a time, so no second array of its size is made.  Addition commutes, so
    every bit is that of the sum written out.
    """
    rng = np.random.default_rng(spec.seed)
    leaf_idx = rng.integers(0, tree.n_leaf, size=spec.n_total)
    X = rng.standard_normal((spec.n_total, means.shape[1]))
    X *= NOISE_STD
    step = max(1, _MEANS_CHUNK_FLOATS // means.shape[1])
    for a in range(0, spec.n_total, step):
        X[a : a + step] += means[leaf_idx[a : a + step]]
    leaf_idx = _apply_label_noise(tree, leaf_idx, spec.noise_rate, rng)
    return tree, LabeledDataset._of_codes(X, leaf_idx, tree)


def gen_example1(spec: SyntheticSpec) -> tuple[Tree, LabeledDataset]:
    """Sparse-indicator-mean Gaussian design with optional label noise."""
    if spec.example != 1:
        raise ValueError("spec.example must be 1")
    tree = example1_tree(spec.k)
    p = spec.p if spec.p is not None else _default_p(spec.k, tree.q)
    if p < tree.q:
        raise ValueError(
            f"feature dimension {p} is smaller than the {tree.q} non-root nodes"
        )
    # mean matrix indexed by leaf: coordinate (order index - 1) of the
    # path's layer-m node carries 1/(m-1)
    below_root = tree.leaf_ancestors[:, 1:]
    leaf, col = np.nonzero(below_root > 0)
    means = np.zeros((tree.n_leaf, p))
    means[leaf, below_root[leaf, col] - 1] = 1.0 / (col + 1)
    return _sample(tree, means, spec)


def gen_example2(spec: SyntheticSpec) -> tuple[Tree, LabeledDataset]:
    """Embedded-mean Gaussian design on the fixed five-layer tree."""
    if spec.example != 2:
        raise ValueError("spec.example must be 2")
    tree = example2_tree()
    if spec.p is not None and spec.p != EXAMPLE2_FEATURES:
        raise ValueError(
            f"design 2 fixes the feature dimension to {EXAMPLE2_FEATURES}"
        )
    means = embed_tree(tree).node_matrix[tree.node_fanouts == 0]  # in leaf-code order
    return _sample(tree, means, spec)


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


# features a chunk of rows holds while write_dataset_csv renders it
_CSV_CHUNK_FLOATS = 2**14


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    """Write features and labels as CSV: columns ``f1..fp`` then ``label``.

    A row is the ``repr`` of its floats joined by commas, then its label's
    cell as ``csv.writer`` quotes it; each distinct label is quoted once.
    Rows are rendered and written in chunks of a fixed number of floats,
    so the file's text is never held whole.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)

    def row_text(fields) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()

    X, labels, p = dataset.X, dataset.labels, dataset.p
    # a leading empty field quotes the label as the last field of a row
    # with features and writes the comma before it
    lead = [""] if p else []
    cells = {label: row_text([*lead, label]) for label in dict.fromkeys(labels)}
    header = row_text([f"f{j + 1}" for j in range(p)] + ["label"])
    step = max(1, _CSV_CHUNK_FLOATS // max(p, 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for a in range(0, len(labels), step):
            rows = zip(X[a : a + step].tolist(), labels[a : a + step])
            fh.write(
                "".join([",".join(map(repr, row)) + cells[label] for row, label in rows])
            )


def read_dataset_csv(path, tree: Tree) -> LabeledDataset:
    """Read a dataset written by :func:`write_dataset_csv`."""
    X, labels = read_feature_csv(path)
    if labels is None:
        raise ValueError(f"{path}: no 'label' column")
    try:
        return LabeledDataset(X=X, labels=labels, tree=tree)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# How np.loadtxt names a cell it cannot read: by 0-based data row and
# 1-based column; blank lines are not counted.
_BAD_CELL = re.compile(r"could not convert .* at row (\d+), column (\d+)\.$", re.S)


def read_feature_csv(path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a feature CSV; the trailing ``label`` column is optional.

    The header goes through ``csv`` and the rows through :func:`_read_rows`.
    Every error names the file; a bad row is named by its line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        rows = _read_rows(path, fh, header, float)
    X = np.ascontiguousarray(rows["x"])
    return X, tuple(rows["label"].tolist()) if "label" in rows.dtype.names else None


def _read_rows(path, fh, header: list[str], cell, leaf_codes=None) -> np.ndarray:
    """Parse the rows after ``header`` in ``fh`` by one ``np.loadtxt`` call.

    Field ``x`` holds the feature cells as ``cell`` (``"U1"`` counts them
    without parsing a number) and ``label`` the trailing label column,
    each label a key of ``leaf_codes`` when that is given.  Quoted cells
    read as ``csv.reader`` reads them; the first bad row raises.
    """
    has_label = bool(header) and header[-1] == "label"
    fields = [("x", cell, (len(header) - has_label,))]
    if has_label:
        fields.append(("label", object))
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            rows = np.loadtxt(
                fh,
                dtype=fields,
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=1,
            )
    except ValueError as exc:
        raise ValueError(_row_error(path, fh, header, str(exc), leaf_codes)) from None
    if len(rows) == 0:
        raise ValueError(f"{path}: no data rows")
    if leaf_codes is not None and not leaf_codes.keys() >= set(rows["label"].tolist()):
        raise ValueError(_row_error(path, fh, header, "unknown label", leaf_codes))
    return rows


def _row_error(path, fh, header: list[str], message: str, leaf_codes=None) -> str:
    """Name the first bad row of ``fh`` by its line, in one ``csv`` pass:
    a wrong field count, a label not in ``leaf_codes`` (if given), or the
    cell that ``np.loadtxt``'s error ``message`` names."""
    cell = _BAD_CELL.search(message)
    bad = int(cell[1]) if cell else -1
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    for row, record in enumerate(filter(None, reader)):
        if len(record) != len(header):
            return (
                f"{path}: row with {len(record)} fields, expected {len(header)}, "
                f"on line {reader.line_num}"
            )
        if leaf_codes is not None and record[-1] not in leaf_codes:
            return (
                f"{path}: row {row} on line {reader.line_num}: label "
                f"{record[-1]!r} is not a leaf of the tree"
            )
        if row == bad:
            col = int(cell[2]) - 1
            return (
                f"{path}: row {row} on line {reader.line_num}, column "
                f"{header[col]!r}: {record[col]!r} is not a number"
            )
    return f"{path}: {message}"


def write_tree(tree: Tree, path) -> None:
    """Write the canonical taxonomy document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tree.document())
