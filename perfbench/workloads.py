"""The benchmark's workloads: inputs from a seed, a fixed unit of work, output checks.

Every workload is a closed loop in one process: a unit of work starts
when the previous one has returned.  A workload's fixed work for a seed
is split into ``blocks`` units; a run cycles through them, so each block
is repeated across the whole run, and every repeat must reproduce the
outputs of the block's first, checked, run.

``protocol_d1`` and ``protocol_d2`` replay the paper's two synthetic
protocols through ``labeltree.cli.run_benchmark``, one call per block,
each with its own seed derived from the run's; an operation is one
(replication, loss) fit.  ``cli_pipeline`` writes a labeled CSV and runs
``embed``, ``train``, ``predict`` and ``evaluate`` through
``labeltree.cli.main`` over a 1000-leaf taxonomy, one step per block;
an operation is the write or one command.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from spans import replaced

# Modules are looked up, never bound by ``import ... as``: the package
# re-exports a function named ``dissimilarity`` over its submodule, and the
# traced run swaps module attributes, which callers must see.
cli = importlib.import_module("labeltree.cli")
classifier = importlib.import_module("labeltree.classifier")
datagen = importlib.import_module("labeltree.datagen")
hierarchy = importlib.import_module("labeltree.hierarchy")

# Zero-one losses are means of 0/1 values: two correct counts of the same
# pairs agree to rounding, far below this.
L01_TOLERANCE = 1e-12
ISOMETRY_LIMIT = 1e-10


def _raised(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc()


class Protocol:
    """``cli.run_benchmark`` at a design's defaults: ``blocks`` calls of ``reps`` replications.

    Block ``b`` of seed ``s`` runs with seed ``s * BLOCK_SEED_STRIDE + b``,
    so the blocks draw different data and together replicate the
    protocol ``blocks * reps`` times.
    """

    BLOCK_SEED_STRIDE = 1000

    def __init__(self, example: int, losses: tuple[str, ...], reps: int, blocks: int):
        self.example = example
        self.losses = losses
        self.reps = reps
        self.blocks = blocks
        self.names = tuple(f"block{b}" for b in range(blocks))
        self.ops = reps * len(losses)
        self.seeds: list[int] = []
        self.references: dict[int, object] = {}
        self._pair_checks: list[tuple[int, float]] = []

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seeds = [seed * self.BLOCK_SEED_STRIDE + b for b in range(self.blocks)]

    def unit(self, block: int):
        """Run one block; returns its ``BenchmarkResult``, or None if it raised."""
        try:
            result = cli.run_benchmark(
                example=self.example, reps=self.reps, seed=self.seeds[block], losses=self.losses
            )
        except Exception:
            _raised("run_benchmark")
            result = None
        return result

    def first_unit(self, block: int):
        """The block's reference run: also checks every pair handed to ``evaluate``."""
        self._pair_checks = []

        def checking(evaluate):
            def wrapper(pairs, tree, *args, **kwargs):
                invalid = sum(not tree.is_path(pred) for _, pred in pairs)
                recount = sum(true != pred for true, pred in pairs) / len(pairs)
                self._pair_checks.append((invalid, recount))
                return evaluate(pairs, tree, *args, **kwargs)

            return wrapper

        with replaced({("labeltree.metrics", "evaluate"): checking}):
            return self.unit(block)

    def check(self, result, block: int, first: bool) -> tuple[int, float]:
        """Failed operations and mean test zero-one loss of one block run.

        An operation is one (replication, loss) fit.  The block's first run
        is checked against the pairs ``evaluate`` saw; later runs must
        reproduce its metric arrays exactly.
        """
        if first:
            self.references[block] = result
        reference = self.references.get(block)
        if result is None or reference is None:
            return self.ops, math.nan
        checks = self._pair_checks if len(self._pair_checks) == self.ops else None
        failed = 0
        for li, loss in enumerate(self.losses):
            got = result.metrics[loss]
            for rep in range(self.reps):
                values = {m: float(v[rep]) for m, v in got.items()}
                ok = all(map(math.isfinite, values.values())) and 0.0 <= values["l01"] <= 1.0
                if first:
                    invalid, recount = checks[rep * len(self.losses) + li] if checks else (1, 0.0)
                    ok = ok and not invalid and abs(recount - values["l01"]) <= L01_TOLERANCE
                else:
                    ref = reference.metrics[loss]
                    ok = ok and values == {m: float(v[rep]) for m, v in ref.items()}
                failed += not ok
        l01 = float(np.mean([result.metrics[loss]["l01"] for loss in self.losses]))
        return failed, l01


def taxonomy(fanout: int, depth: int) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Complete ``fanout``-ary taxonomy with ``depth`` layers, root included.

    Node ids are ``n<layer>_<position>``; returns the child lists and the
    parent map the harness uses for its own checks.
    """
    children: dict[str, list[str]] = {}
    parent: dict[str, str] = {}
    frontier = ["root"]
    for layer in range(2, depth + 1):
        nxt = []
        for node in frontier:
            kids = [f"n{layer}_{len(nxt) + j}" for j in range(fanout)]
            children[node] = kids
            parent.update((kid, node) for kid in kids)
            nxt.extend(kids)
        frontier = nxt
    return children, parent


class CliPipeline:
    """Write a labeled CSV, then ``embed``, ``train``, ``predict``, ``evaluate``.

    The taxonomy has 1000 leaves (fan-out 10, four layers with the root),
    ten times the design-2 tree.  Leaf means in feature space are built
    top-down: each node adds a Gaussian step to its parent's mean whose
    scale halves per layer, so siblings are closer than cousins.
    """

    FANOUT = 10
    DEPTH = 4
    ROWS = 3000
    FEATURES = 95
    NOISE = 0.05
    OPS = ("write", "embed", "train", "predict", "evaluate")

    def __init__(self):
        self.blocks = len(self.OPS)
        self.names = self.OPS
        self.ops = 1
        self.reference: dict[str, str] | None = None
        self.codes: dict[str, int | None] = {}

    def prepare(self, seed: int, workdir: Path) -> None:
        children, self.parent = taxonomy(self.FANOUT, self.DEPTH)
        self.tree = hierarchy.Tree("root", children)
        rng = np.random.default_rng(seed)
        means = {"root": np.zeros(self.FEATURES)}
        for node in self.tree.node_order:
            step = rng.standard_normal(self.FEATURES) * 0.5 ** self.tree.layer(node)
            means[node] = means[self.parent[node]] + step
        leaves = self.tree.leaves
        leaf_means = np.stack([means[leaf] for leaf in leaves])
        idx = rng.integers(0, len(leaves), size=self.ROWS)
        X = leaf_means[idx] + self.NOISE * rng.standard_normal((self.ROWS, self.FEATURES))
        labels = [leaves[i] for i in idx]
        self.data = classifier.LabeledDataset(X, labels, self.tree)
        self.truth = [self._path(leaf) for leaf in labels]

        tree_file = str(workdir / "tree.txt")
        datagen.write_tree(self.tree, tree_file)
        self.files = {
            "data": workdir / "data.csv",
            "emb": workdir / "emb",
            "model": workdir / "model.json",
            "pred": workdir / "pred.csv",
            "report": workdir / "report",
        }
        f = {k: str(v) for k, v in self.files.items()}
        self.argv = {
            "embed": ["embed", "--tree", tree_file, "--out", f["emb"]],
            "train": ["train", "--tree", tree_file, "--data", f["data"], "--loss",
                      "linear", "--out", f["model"]],
            "predict": ["predict", "--tree", tree_file, "--model", f["model"],
                        "--data", f["data"], "--out", f["pred"]],
            "evaluate": ["evaluate", "--tree", tree_file, "--pred", f["pred"],
                         "--truth", f["data"], "--out", f["report"]],
        }
        emb, report = self.files["emb"], self.files["report"]
        self.outputs = {
            "write": [self.files["data"]],
            "embed": [emb / "embedding.csv", emb / "embedding.json",
                      emb / "certificate.json", emb / "consistency.txt"],
            "train": [self.files["model"]],
            "predict": [self.files["pred"]],
            "evaluate": [report / "report.json", report / "report.txt"],
        }

    def _path(self, leaf: str) -> tuple[str, ...]:
        path = [leaf]
        while path[-1] != "root":
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))

    def _run(self, op: str):
        if op == "write":
            datagen.write_dataset_csv(self.data, str(self.files["data"]))
            return 0
        return cli.main(self.argv[op])

    def unit(self, block: int):
        """Run one step of the pipeline; returns its exit code, or None if it raised."""
        op = self.OPS[block]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self._run(op)
        except Exception:
            _raised(op)
            return None

    first_unit = unit

    def check(self, code, block: int, first: bool) -> tuple[int, float | None]:
        """Failed operations and zero-one loss of one step.

        A step fails when it raises or returns non-zero.  The last step
        also checks every output of the pipeline, counts each earlier step
        whose outputs are wrong, and clears them; only it returns a loss.
        """
        self.codes[self.OPS[block]] = code
        if block < self.blocks - 1:
            return int(code != 0), None
        exited = {op for op, c in self.codes.items() if c != 0}
        self.codes = {}
        bad = set()
        hashes = {}
        for op, paths in self.outputs.items():
            for path in paths:
                try:
                    hashes[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
                except OSError:
                    bad.add(op)
        if first:
            self.reference = hashes
        for op, paths in self.outputs.items():
            if any(hashes.get(str(p)) != self.reference.get(str(p)) for p in paths):
                bad.add(op)

        l01 = math.nan
        try:
            cert = json.loads((self.files["emb"] / "certificate.json").read_text())
            if not (
                cert["decay_bound_met"]
                and cert["dissimilarity_consistent"]
                and cert["embedding_consistent"]
                and cert["max_isometry_error"] <= ISOMETRY_LIMIT
            ):
                bad.add("embed")
        except (OSError, ValueError, KeyError):
            bad.add("embed")
        try:
            with open(self.files["pred"], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            pred = [tuple(row[1].split("/")) for row in rows]
            if len(pred) != len(self.truth) or not all(map(self.tree.is_path, pred)):
                bad.add("predict")
            recount = sum(t != p for t, p in zip(self.truth, pred)) / len(self.truth)
            report = json.loads((self.files["report"] / "report.json").read_text())
            l01 = report["l01"]
            if abs(recount - l01) > L01_TOLERANCE:
                bad.add("evaluate")
        except (OSError, ValueError, KeyError, IndexError):
            bad.update(("predict", "evaluate"))

        for paths in self.outputs.values():
            for path in paths:
                path.unlink(missing_ok=True)
        return int(code != 0) + len(bad - exited), l01


WORKLOADS = {
    # Many tiny fits; the hinge solver dominates.  24 replications.
    "protocol_d1": lambda: Protocol(1, ("linear", "wlinear", "hinge"), reps=3, blocks=8),
    # Per-sample Python in tuning, descent and evaluation; no hinge, no files.
    "protocol_d2": lambda: Protocol(2, ("linear", "wlinear"), reps=1, blocks=2),
    # File I/O, the q^2 certificate and one large prediction batch.
    "cli_pipeline": CliPipeline,
}
