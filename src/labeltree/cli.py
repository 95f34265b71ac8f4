"""Command-line front end: embed, train, predict, evaluate, simulate, benchmark.

Every command is deterministic given its arguments and seed, and all
output files are byte-identical across reruns; volatile information such
as wall-clock timing goes to stdout only.  Errors exit with code 2 and a
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifier import (
    LabeledDataset,
    LinearModel,
    load_model,
    predict_paths,
    save_model,
    select_gamma,
    select_lambda,
    train_linear,
)
from .datagen import (
    SyntheticSpec,
    _read_rows,
    generate,
    read_dataset_csv,
    read_feature_csv,
    split_indices,
    write_dataset_csv,
    write_tree,
)
from .dissimilarity import DEFAULT_DECAY, build_schedule
from .embedding import _certify, embed_tree, write_json, write_matrix_csv
from .hierarchy import TaxonomyError, Tree, load_tree
from .metrics import evaluate

__all__ = ["main", "run_benchmark", "BenchmarkResult", "TUNING_GRID"]

PATH_SEP = "/"
METRIC_NAMES = ("l01", "l_delta", "l_h_sib", "l_h_sub", "hf")

# 41 logarithmic grid points spanning 0.01 .. 100.
TUNING_GRID = tuple(10.0 ** (i / 10.0) for i in range(-20, 21))

# Coarser default for the iterative hinge solver; override via --lambda-grid.
HINGE_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

EXAMPLE_DEFAULTS = {
    1: {"k": 3, "p": None, "n": 50, "noise": 0.2},
    2: {"k": 5, "p": None, "n": 2000, "noise": 0.0},
}


# -- shared file helpers -------------------------------------------------


def _check_ids(nodes) -> None:
    """Reject the first node id that contains the path separator."""
    for node in nodes:
        if PATH_SEP in node:
            raise ValueError(f"node id {node!r} contains {PATH_SEP!r}; cannot serialize paths")


def _load_tree(path) -> Tree:
    """:func:`load_tree`, then :func:`_check_ids` on every node id.

    ``train``, ``predict`` and ``evaluate`` load their tree here.  Predicted
    paths are slash-joined, so a model of a tree with ``/`` in an id could
    never predict; such a tree is refused before any other file is read.
    """
    tree = load_tree(path)
    _check_ids(tree.nodes)
    return tree


def write_predictions(paths: Sequence[tuple[str, ...]], out_path) -> None:
    """Write predicted paths as CSV rows ``index, slash/joined/path``.

    A node id that contains the separator raises ``ValueError`` before
    ``out_path`` is opened, so an existing file is left as it was.
    """
    paths = list(paths)
    _check_ids(node for path in dict.fromkeys(paths) for node in path)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "path"])
        for i, path in enumerate(paths):
            writer.writerow([i, PATH_SEP.join(path)])


def read_predictions(path, tree: Tree) -> list[tuple[str, ...]]:
    """Read predicted paths written by :func:`write_predictions`.

    Every path must be a root-to-leaf path of ``tree``; the first that is
    not raises a ``ValueError`` naming the file, the row and its line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header != ["index", "path"]:
            raise ValueError(f"{path}: expected an 'index,path' header")
        out = []
        for record in reader:
            if not record:
                continue
            if len(record) != 2:
                what = "has no path" if len(record) < 2 else "has more than two fields"
                raise ValueError(
                    f"{path}: row {record!r} on line {reader.line_num} {what}"
                )
            pred = tuple(record[1].split(PATH_SEP))
            if not tree.is_path(pred):
                raise ValueError(
                    f"{path}: row {record!r} on line {reader.line_num} "
                    f"(pair {len(out)}) is not a root-to-leaf path of the tree"
                )
            out.append(pred)
    if not out:
        raise ValueError(f"{path}: no predictions")
    return out


def read_truth(path, tree: Tree) -> list[tuple[str, ...]]:
    """Read true paths from a predictions-format or labeled-dataset CSV.

    A labeled dataset goes through the row parser of
    :func:`read_feature_csv` with its feature cells counted but not
    parsed, so they need not be numbers.  The first bad row, a wrong
    field count or a label that is not a leaf, raises a ``ValueError``
    naming the file, the row and its line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header == ["index", "path"]:
            return read_predictions(path, tree)
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: neither a predictions file nor a labeled CSV")
        leaf_codes = tree.leaf_codes
        labels = _read_rows(path, fh, header, "U1", leaf_codes)["label"].tolist()
    leaf_paths = tree.leaf_paths
    return [leaf_paths[leaf_codes[label]] for label in labels]


def _parse_grid(text: str | None, fallback: Sequence[float]) -> tuple[float, ...]:
    if text is None:
        return tuple(fallback)
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("empty tuning grid")
    return values


# -- hyperparameter selection --------------------------------------------


def fit(
    loss: str,
    train: LabeledDataset,
    val: LabeledDataset | None,
    table,
    gamma_grid: Sequence[float] = TUNING_GRID,
    lambda_grid: Sequence[float] = HINGE_LAMBDA_GRID,
    fit_intercept: bool = True,
) -> tuple[LinearModel, dict]:
    """Train one loss, tuning on ``val`` where the loss has a parameter.

    ``val`` may be ``None`` when the parameter's grid has a single point.
    """
    if loss == "linear":
        return train_linear(train, table, fit_intercept=fit_intercept), {}
    if loss == "wlinear":
        gamma, model = select_gamma(
            train, val, table, gamma_grid, fit_intercept=fit_intercept
        )
        return model, {"gamma": gamma}
    if loss == "hinge":
        lam, model = select_lambda(
            train, val, table, lambda_grid, fit_intercept=fit_intercept
        )
        return model, {"lambda": lam}
    raise ValueError(f"unknown loss {loss!r}")


# -- benchmark protocol ---------------------------------------------------


@dataclass
class BenchmarkResult:
    """Per-replication metrics and timings of one benchmark run."""

    example: int
    reps: int
    losses: tuple[str, ...]
    metrics: dict[str, dict[str, np.ndarray]]  # loss -> metric -> (reps,)
    timings: dict[str, np.ndarray]  # loss -> (reps,)
    params: dict

    def mean(self, loss: str, metric: str) -> float:
        return float(np.mean(self.metrics[loss][metric]))

    def stderr(self, loss: str, metric: str) -> float:
        values = self.metrics[loss][metric]
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1) / np.sqrt(len(values)))

    def to_csv_text(self) -> str:
        lines = ["loss,metric,mean,se"]
        for loss in self.losses:
            for metric in METRIC_NAMES:
                lines.append(
                    f"{loss},{metric},{self.mean(loss, metric)!r},"
                    f"{self.stderr(loss, metric)!r}"
                )
        return "\n".join(lines) + "\n"

    def to_table_text(self) -> str:
        header = f"{'loss':<10}" + "".join(f"{m:>18}" for m in METRIC_NAMES)
        lines = [
            f"benchmark example {self.example}, {self.reps} replication(s)",
            header,
            "-" * len(header),
        ]
        for loss in self.losses:
            cells = "".join(
                f"{self.mean(loss, m):>11.4f}±{self.stderr(loss, m):<6.4f}"
                for m in METRIC_NAMES
            )
            lines.append(f"{loss:<10}{cells}")
        return "\n".join(lines) + "\n"

    def timing_text(self) -> str:
        lines = ["mean train+validate+test seconds per replication:"]
        for loss in self.losses:
            lines.append(f"  {loss:<10} {float(np.mean(self.timings[loss])):.3f}")
        return "\n".join(lines) + "\n"


def _rep_seed(master: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=master, spawn_key=(rep,)).generate_state(1)[0])


def _synthetic_spec(example: int, n_total: int, seed: int, k, p, noise) -> SyntheticSpec:
    """The spec of design ``example``, with ``EXAMPLE_DEFAULTS`` for each ``None``.

    Design 2's tree has depth 5 only, so any other ``k`` raises ``ValueError``.
    """
    defaults = EXAMPLE_DEFAULTS[example]
    if example == 2 and k not in (None, defaults["k"]):
        raise ValueError(f"example 2 has tree depth k={defaults['k']}, got k={k!r}")
    return SyntheticSpec(
        example=example,
        n_total=n_total,
        seed=seed,
        k=defaults["k"] if k is None else k,
        p=defaults["p"] if p is None else p,
        noise_rate=defaults["noise"] if noise is None else noise,
    )


def run_benchmark(
    example: int,
    reps: int,
    seed: int,
    losses: Sequence[str] = ("linear", "wlinear"),
    k: int | None = None,
    p: int | None = None,
    n: int | None = None,
    noise: float | None = None,
    gamma_grid: Sequence[float] = TUNING_GRID,
    lambda_grid: Sequence[float] = HINGE_LAMBDA_GRID,
    fit_intercept: bool = False,
) -> BenchmarkResult:
    """Replicate generate -> split 1:1:2 -> train each loss -> evaluate.

    ``n`` is the training-block size; each replication draws ``4n``
    samples and splits them into train/validation/test blocks of sizes
    ``n``/``n``/``2n``.  Replication seeds derive deterministically from
    the master seed.  Both designs have label-balanced, zero-mean class
    structure, so the protocol trains without a free intercept; pass
    ``fit_intercept=True`` to add one.  An example other than 1 or 2, a
    design-2 ``k`` other than 5, ``reps < 1`` or an empty, repeated or
    unknown loss raises ``ValueError`` before any replication runs.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if not losses or len(set(losses)) < len(losses):
        raise ValueError(f"losses must be distinct and at least one, got {losses!r}")
    for loss in losses:
        if loss not in ("linear", "wlinear", "hinge"):
            raise ValueError(f"unknown loss {loss!r}")
    if example not in EXAMPLE_DEFAULTS:
        raise ValueError(f"example must be 1 or 2, got {example!r}")
    n = EXAMPLE_DEFAULTS[example]["n"] if n is None else n
    spec = _synthetic_spec(example, 4 * n, seed, k, p, noise)

    metrics: dict[str, dict[str, list[float]]] = {
        loss: {m: [] for m in METRIC_NAMES} for loss in losses
    }
    timings: dict[str, list[float]] = {loss: [] for loss in losses}
    table = None
    for rep in range(reps):
        tree, data = generate(replace(spec, seed=_rep_seed(seed, rep)))
        if table is None:
            table = embed_tree(tree)
        train, val, test = (  # views: the blocks are contiguous
            data._rows(slice(i[0], i[-1] + 1)) for i in split_indices(data.n)
        )
        true_paths = test.paths()
        for loss in losses:
            t0 = time.perf_counter()
            model, _ = fit(
                loss,
                train,
                val,
                table,
                gamma_grid=gamma_grid,
                lambda_grid=lambda_grid,
                fit_intercept=fit_intercept,
            )
            pred = predict_paths(model, test.X)
            report = evaluate(
                list(zip(true_paths, pred)), tree, time.perf_counter() - t0
            )
            for m in METRIC_NAMES:
                metrics[loss][m].append(getattr(report, m))
            timings[loss].append(report.wall_time_seconds)

    return BenchmarkResult(
        example=example,
        reps=reps,
        losses=tuple(losses),
        metrics={
            loss: {m: np.array(v) for m, v in per.items()}
            for loss, per in metrics.items()
        },
        timings={loss: np.array(v) for loss, v in timings.items()},
        params={"k": tree.depth, "p": data.p, "n": n, "noise": spec.noise_rate, "seed": seed},
    )


# -- commands --------------------------------------------------------------


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_embed(args) -> int:
    tree = load_tree(args.tree)
    table = embed_tree(tree, base_norm=args.t1, decay=args.delta)
    schedule = build_schedule(tree, base_weight=args.t1, decay=args.delta)
    max_err, tree_report, point_report = _certify(tree, schedule, table)

    out = _out_dir(args)
    write_matrix_csv(table, out / "embedding.csv")
    write_json(table, out / "embedding.json")
    certificate = {
        "base_norm": args.t1,
        "decay": args.delta,
        "dimension": table.dimension,
        "max_isometry_error": max_err,
        "decay_bound_met": tree_report.decay_bound_met,
        "dissimilarity_consistent": tree_report.ok,
        "embedding_consistent": point_report.ok,
    }
    with open(out / "certificate.json", "w", encoding="utf-8") as fh:
        json.dump(certificate, fh, indent=2)
        fh.write("\n")
    with open(out / "consistency.txt", "w", encoding="utf-8") as fh:
        fh.write("tree dissimilarity:\n" + tree_report.summary() + "\n\n")
        fh.write("embedded points:\n" + point_report.summary() + "\n")
    print(
        f"embedded {tree.q} nodes into dimension {table.dimension}; "
        f"max isometry error {max_err:.3e}; consistency "
        f"{'ok' if tree_report.ok and point_report.ok else 'VIOLATED'}"
    )
    return 0


def cmd_train(args) -> int:
    tree = _load_tree(args.tree)
    data = read_dataset_csv(args.data, tree)
    table = embed_tree(tree, base_norm=args.t1, decay=args.delta)
    gamma_grid = _parse_grid(args.gamma_grid, TUNING_GRID)
    lambda_grid = _parse_grid(args.lambda_grid, HINGE_LAMBDA_GRID)

    t0 = time.perf_counter()
    fit_intercept = not args.no_intercept
    needs_val = (args.loss == "wlinear" and len(gamma_grid) > 1) or (
        args.loss == "hinge" and len(lambda_grid) > 1
    )
    if needs_val and not args.val_data:
        # no validation file: select on the front half against the back
        # half, then refit on all of the data with the selected parameter
        half = data.n // 2
        if half < 1 or data.n - half < 1:
            raise ValueError("too few samples to split for validation")
        train, val = data._rows(slice(None, half)), data._rows(slice(half, None))
        _, chosen = fit(
            args.loss, train, val, table, gamma_grid, lambda_grid,
            fit_intercept=fit_intercept,
        )
        model, _ = fit(
            args.loss,
            data,
            None,
            table,
            gamma_grid=(chosen.get("gamma", 1.0),),
            lambda_grid=(chosen.get("lambda", 1.0),),
            fit_intercept=fit_intercept,
        )
    else:
        # a validation file selects among fits on all of the data, so the
        # selected fit is the model; no second fit repeats it
        val = read_dataset_csv(args.val_data, tree) if needs_val else None
        if val is not None and val.p != data.p:
            raise ValueError(
                f"{args.val_data}: expected {data.p} features as in {args.data}, "
                f"got {val.p}"
            )
        model, chosen = fit(
            args.loss, data, val, table, gamma_grid, lambda_grid,
            fit_intercept=fit_intercept,
        )
    elapsed = time.perf_counter() - t0
    save_model(model, args.out)
    hyper = ", ".join(f"{k}={v:g}" for k, v in chosen.items()) or "none"
    print(
        f"trained loss={args.loss} on {data.n} samples "
        f"(hyperparameters: {hyper}) in {elapsed:.3f}s -> {args.out}"
    )
    return 0


def cmd_predict(args) -> int:
    tree = _load_tree(args.tree)
    model = load_model(args.model, tree)
    X, _ = read_feature_csv(args.data)
    t0 = time.perf_counter()
    try:  # the features' width and finiteness are checked first
        paths = predict_paths(model, X)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    elapsed = time.perf_counter() - t0
    write_predictions(paths, args.out)
    print(f"predicted {len(paths)} paths in {elapsed:.3f}s -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    tree = _load_tree(args.tree)
    pred = read_predictions(args.pred, tree)
    truth = read_truth(args.truth, tree)
    if len(pred) != len(truth):
        raise ValueError(
            f"{args.pred} has {len(pred)} predictions but {args.truth} has "
            f"{len(truth)} true paths"
        )
    t0 = time.perf_counter()
    report = evaluate(list(zip(truth, pred)), tree)
    elapsed = time.perf_counter() - t0
    report.wall_time_seconds = elapsed
    out = _out_dir(args)
    # timing is volatile and stays out of the files so reruns are
    # byte-identical; it is printed below instead
    if args.format in ("json", "both"):
        (out / "report.json").write_text(
            report.to_json(include_timing=False), encoding="utf-8"
        )
    if args.format in ("text", "both"):
        (out / "report.txt").write_text(
            report.to_text(include_timing=False), encoding="utf-8"
        )
    sys.stdout.write(report.to_text(include_timing=True))
    return 0


def cmd_simulate(args) -> int:
    spec = _synthetic_spec(args.example, args.n_total, args.seed, args.k, args.p, args.noise)
    tree, data = generate(spec)
    out = _out_dir(args)
    write_tree(tree, out / "tree.txt")
    write_dataset_csv(data, out / "data.csv")
    print(
        f"simulated example {args.example}: {data.n} samples, "
        f"{data.p} features, {tree.n_leaf} classes -> {out}"
    )
    return 0


def cmd_benchmark(args) -> int:
    losses = tuple(v.strip() for v in args.losses.split(",") if v.strip())
    result = run_benchmark(
        example=args.example,
        reps=args.reps,
        seed=args.seed,
        losses=losses,
        k=args.k,
        p=args.p,
        n=args.n,
        noise=args.noise,
        gamma_grid=_parse_grid(args.gamma_grid, TUNING_GRID),
        lambda_grid=_parse_grid(args.lambda_grid, HINGE_LAMBDA_GRID),
        fit_intercept=args.intercept,
    )
    out = _out_dir(args)
    if args.format in ("csv", "both"):
        (out / "results.csv").write_text(result.to_csv_text(), encoding="utf-8")
    if args.format in ("text", "both"):
        (out / "results.txt").write_text(result.to_table_text(), encoding="utf-8")
    sys.stdout.write(result.to_table_text())
    sys.stdout.write(result.timing_text())
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labeltree",
        description=(
            "Hierarchical classification toolkit: exact taxonomy embeddings, "
            "top-down linear classifiers, and hierarchical evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a taxonomy and certify it")
    p.add_argument("--tree", required=True, help="taxonomy document")
    p.add_argument("--t1", type=float, default=1.0, help="norm of layer-2 vectors")
    p.add_argument("--delta", type=float, default=DEFAULT_DECAY, help="per-layer decay")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train a classifier on a labeled CSV")
    p.add_argument("--tree", required=True)
    p.add_argument("--data", required=True, help="labeled dataset CSV")
    p.add_argument("--loss", choices=("linear", "wlinear", "hinge"), default="linear")
    p.add_argument("--val-data", help="labeled CSV used for hyperparameter selection")
    p.add_argument("--gamma-grid", help="comma-separated gamma grid")
    p.add_argument("--lambda-grid", help="comma-separated lambda grid")
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=DEFAULT_DECAY)
    p.add_argument(
        "--no-intercept",
        action="store_true",
        help="pin the intercept column to zero",
    )
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict paths for a feature CSV")
    p.add_argument("--tree", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against the truth")
    p.add_argument("--tree", required=True)
    p.add_argument("--pred", required=True, help="predictions CSV")
    p.add_argument("--truth", required=True, help="predictions CSV or labeled CSV")
    p.add_argument("--format", choices=("json", "text", "both"), default="both")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-total", type=int, default=200, help="total samples")
    p.add_argument("--k", type=int, help="tree depth (example 1; default 3)")
    p.add_argument("--p", type=int, help="feature dimension (example 1)")
    p.add_argument(
        "--noise", type=float, help="label noise rate (default 0.2 / 0.0 per example)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="replicate the synthetic protocol")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--losses", default="linear,wlinear")
    p.add_argument("--n", type=int, help="training-block size (default per example)")
    p.add_argument("--k", type=int, help="tree depth (example 1)")
    p.add_argument("--p", type=int, help="feature dimension (example 1)")
    p.add_argument("--noise", type=float, help="label noise rate")
    p.add_argument("--gamma-grid", help="comma-separated gamma grid")
    p.add_argument("--lambda-grid", help="comma-separated lambda grid")
    p.add_argument(
        "--intercept",
        action="store_true",
        help="train with a free intercept (the protocol default is without)",
    )
    p.add_argument("--format", choices=("csv", "text", "both"), default="both")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TaxonomyError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
