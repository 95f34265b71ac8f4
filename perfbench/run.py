"""labeltree benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload protocol_d1 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; unit
times are scaled to the host's speed, measured by a fixed speed loop
beside every unit.  ``--trace 1`` alternates untraced cycles with cycles
traced from outside the package (see ``spans.py``) and reports per-layer
self times, exact counters and the tracing overhead.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the run record (seed, versions, BLAS threads, CPU
calibration, every unit's time and speed loops) is written to
``.perfbench_out/`` and printed on the line before it.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails before it measures anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"

# One BLAS thread: at most nproc on any box, the same l01 as two threads on
# a 2-core box, and no competing threads on a shared host.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 11
MIN_CYCLES = 3  # in an untraced run, the reference included
MIN_TRACED_CYCLES = 2  # of each kind, untraced and traced, in a traced run
CALIBRATION_LOOPS = 8
# The host's speed next to each unit: a speed loop after every unit, once
# per SPEED_LOOP_EVERY_S of the unit's time.  wall_s is scaled to a host on
# which the loop takes SPEED_LOOP_S (about the 2-core baseline VM).
SPEED_LOOP_ITERATIONS = 30_000
SPEED_LOOP_PRODUCTS = 5
SPEED_LOOP_EVERY_S = 0.5
SPEED_LOOP_S = 0.03
COVERAGE_TOLERANCE = 0.10

COMMANDS = ("embed", "train", "predict", "evaluate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import labeltree, build the inputs and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def calibrate() -> dict:
    """The speed loop, repeated; host drift shows as a change between runs."""
    wall, cpu = perf_counter(), process_time()
    for _ in range(CALIBRATION_LOOPS):
        speed_loop()
    return {"wall_s": perf_counter() - wall, "cpu_s": process_time() - cpu}


def speed_loop() -> float:
    """Seconds of a fixed mix of interpreter and numpy work: the host's speed now."""
    import numpy as np

    start = perf_counter()
    acc = 0.0
    for i in range(SPEED_LOOP_ITERATIONS):
        acc += len(repr(i * 0.5)) + i % 7
    x = np.arange(200_000, dtype=np.float64).reshape(2000, 100) % 7.0
    for _ in range(SPEED_LOOP_PRODUCTS):
        acc += float(np.sort(x @ x[:100].T, axis=1)[:, -1].sum())
    return perf_counter() - start


def blas_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(),
    }


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_probe(args) -> float:
    """Seconds from spawning a fresh process to its inputs being built.

    The probe prints the system-wide monotonic clock once labeltree is
    imported and the inputs exist, so its exit and the wait for it are
    not counted.
    """
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    start = clock_gettime(CLOCK_MONOTONIC)
    done = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1]) - start


def measure(workload, trace: bool, seconds: float, probe=None):
    """Whole cycles through the workload's blocks until ``seconds`` is spent.

    A cycle runs every block once; together they are the workload's fixed
    unit of work.  The first cycle is the checked reference, and every
    later run of a block must reproduce its outputs.  A traced run
    alternates untraced and traced cycles so both see the same host
    conditions.  Each unit records the speed loops run on either side of
    it.  ``probe``, if given, is called between units, each time until
    its sample count keeps pace with the elapsed share of ``seconds``, so
    its ``SETUP_PROBES`` samples spread over the run instead of sharing
    one moment of the host.
    """
    import spans

    blocks = workload.blocks
    units, setup, l01 = [], [], []
    attempted = failed = 0
    start = perf_counter()
    before = [speed_loop()]
    while True:
        cycle, block = divmod(len(units), blocks)
        first = cycle == 0
        traced = trace and cycle % 2 == 1
        rec = spans.Recorder()
        with spans.installed(rec) if traced else contextlib.nullcontext():
            t0 = perf_counter()
            with rec.root():
                raw = workload.first_unit(block) if first else workload.unit(block)
            seconds_unit = perf_counter() - t0
        after = [speed_loop() for _ in range(max(1, round(seconds_unit / SPEED_LOOP_EVERY_S)))]
        unit_failed, unit_l01 = workload.check(raw, block, first=first)
        if first and unit_l01 is not None:
            l01.append(unit_l01)
        failed += unit_failed
        attempted += workload.ops
        unit = {
            "cycle": cycle,
            "block": block,
            "name": workload.names[block],
            "traced": traced,
            "seconds": seconds_unit,
            "speed_loop_s": before + after,
            "failed": unit_failed,
        }
        before = after
        if traced:
            unit["self"] = dict(rec.self_times())
            unit["counts"] = {name: rec.counts.get(name, 0) for name in spans.COUNTERS}
            unit["values"] = dict(rec.values)
            unit["spans"] = rec.spans
        units.append(unit)
        if probe:
            elapsed = min(1.0, (perf_counter() - start) / seconds)
            while len(setup) < math.ceil(SETUP_PROBES * elapsed):
                setup.append(probe())

        if block < blocks - 1:
            continue
        # Stop before a cycle that would not end in time.
        whole = cycles(units)
        upcoming = trace and (cycle + 1) % 2 == 1
        if len(whole) >= (2 * MIN_TRACED_CYCLES if trace else MIN_CYCLES):
            typical = statistics.median(c["seconds"] for c in whole if c["traced"] == upcoming)
            if perf_counter() - start + typical > seconds:
                break
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return units, attempted, failed, statistics.fmean(l01), setup


def cycles(units) -> list[dict]:
    """A run's cycles: summed seconds, self times and counters of their units."""
    out: dict[int, dict] = {}
    for u in units:
        c = out.setdefault(u["cycle"], {"traced": u["traced"], "seconds": 0.0, "self": {}, "counts": {}})
        c["seconds"] += u["seconds"]
        for key in ("self", "counts"):
            for name, value in u.get(key, {}).items():
                c[key][name] = c[key].get(name, 0) + value
    return list(out.values())


def end_to_end(units, setup, l01):
    """wall_s from host-scaled unit times; setup_s is the quickest probe, unscaled.

    Start-up is process creation, file reads and imports, which the speed
    loop does not track; its noise only adds time, so the minimum is the
    steadiest figure.
    """
    return {
        "setup_s": (min(setup), "s"),
        "wall_s": (fixed_work([u for u in units if not u["traced"]], scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "l01": (l01, "ratio"),
    }


def scaled(unit) -> float:
    """A unit's seconds on a host whose speed loop takes ``SPEED_LOOP_S``."""
    return unit["seconds"] * SPEED_LOOP_S / statistics.median(unit["speed_loop_s"])


def fixed_work(units, seconds=lambda unit: unit["seconds"]) -> float:
    """Time of the workload's fixed work: the sum over blocks of their median unit time."""
    blocks = sorted({u["block"] for u in units})
    return sum(statistics.median(seconds(u) for u in units if u["block"] == b) for b in blocks)


def per_layer(units):
    """Per-layer metrics of a traced run, each a median over its traced cycles."""
    import spans

    untraced = [u for u in units if not u["traced"]]
    traced_units = [u for u in units if u["traced"]]
    traced = [c for c in cycles(units) if c["traced"]]
    untraced_cycles = [c for c in cycles(units) if not c["traced"]]
    metrics = {}
    for label in spans.SPAN_LABELS:
        metrics[label] = (statistics.median(c["self"].get(label, 0.0) for c in traced), "s")
    counts = traced[0]["counts"]
    for name in spans.COUNTERS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (counts[name], unit)
    hinge = counts["classifier.hinge_fits"]
    converged = (hinge - counts["classifier.hinge_budget_hits"]) / hinge if hinge else 0.0
    metrics["classifier.hinge_converged_ratio"] = (converged, "ratio")
    metrics["embedding.max_isometry_error"] = (
        max(u["values"].get("embedding.max_isometry_error", 0.0) for u in traced_units),
        "value",
    )
    for command in COMMANDS:
        seconds = [u["seconds"] for u in untraced if u["name"] == command]
        metrics[f"{command}_s"] = (statistics.median(seconds) if seconds else 0.0, "s")
    traced_wall = statistics.median(c["seconds"] for c in traced)
    untraced_wall = statistics.median(c["seconds"] for c in untraced_cycles)
    residual = [c["self"].get(spans.ROOT_LABEL, 0.0) for c in traced]
    coverage = [
        (sum(c["self"].values()) - r) / c["seconds"] for c, r in zip(traced, residual)
    ]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.residual_s"] = (statistics.median(residual), "s")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    return metrics


def trace_consistent(units) -> list[str]:
    """Problems with the traced units: counters that differ, or layers that miss time.

    A block's counters must repeat exactly in every traced cycle.  Layer
    self times cover a unit when, without the harness residual (the root
    span's self time), they add up to at least 90% of its wall time.
    """
    import spans

    traced = [u for u in units if u["traced"]]
    problems = []
    reference = {}
    for u in traced:
        counts = reference.setdefault(u["block"], u["counts"])
        if u["counts"] != counts:
            problems.append(f"counters of block {u['block']} differ: {u['counts']} != {counts}")
    for u in traced:
        layers = sum(u["self"].values()) - u["self"].get(spans.ROOT_LABEL, 0.0)
        if layers < (1.0 - COVERAGE_TOLERANCE) * u["seconds"]:
            problems.append(f"layer self times cover {layers:.4f}s of a {u['seconds']:.4f}s unit")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "labeltree" / "__init__.py").is_file():
        print(f"perfbench: no labeltree sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np

    import labeltree
    from workloads import WORKLOADS

    # Budget hits are counted in traced units; printed, they only flood stderr.
    warnings.simplefilter("ignore", labeltree.ConvergenceWarning)
    if Path(labeltree.__file__).resolve().parent != SRC / "labeltree":
        print(f"perfbench: labeltree imported from {labeltree.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, workdir)
        if args.setup_probe:
            print(clock_gettime(CLOCK_MONOTONIC))
            return 0
        calibration_before = calibrate()
        probe = None if args.trace else (lambda: setup_probe(args))
        units, attempted, failed, l01, setup = measure(
            workload, bool(args.trace), args.seconds, probe
        )
        calibration_after = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    problems = trace_consistent(units) if args.trace else []
    metrics = per_layer(units) if args.trace else end_to_end(units, setup, l01)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(np),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_before": calibration_before,
        "calibration_after": calibration_after,
        "setup_samples_s": setup,
        "units": len(units),
        "unit_seconds": [u["seconds"] for u in units],
        "unit_speed_loop_s": [u["speed_loop_s"] for u in units],
        "measured_wall_s": fixed_work([u for u in units if not u["traced"]]),
        "error_rate": failed / attempted,
        "problems": problems,
    }
    result = {
        "correct": failed == 0 and not problems and not math.isnan(l01),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUTDIR.mkdir(exist_ok=True)
    out = OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result, "units": units}) + "\n")

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16{'d' if isinstance(value, int) else '.6g'}} {unit}")
    if not args.trace:
        print(f"{'measured_wall_s':40s} {record['measured_wall_s']:>16.6g} s")
        for command in COMMANDS:
            seconds = [u["seconds"] for u in units if u["name"] == command]
            if seconds:
                print(f"{command + '_s':40s} {statistics.median(seconds):>16.6g} s")
        print(f"{'error_rate':40s} {record['error_rate']:>16.6g} ratio")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
