"""Run every workload over several seeds and summarise, for a baseline or a comparison.

    python3 perfbench/collect.py --seeds 1-10 --out baseline.json

For each workload of ``BENCHMARK.json``, for its ``run_seconds``: one
untraced run per seed, then one traced run on the
first seed.  The summary gives, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``; the traced run gives the per-layer breakdown.
Runs go one after another, never in parallel, so they do not compete for
the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, check=True, timeout=600, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("record "))


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result, record = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "record": record})
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
            }
        traced, traced_record = run(workload, args.seeds[0], seconds, 1)
        print(workload, "traced", json.dumps(traced), flush=True)
        summary["workloads"][workload] = {
            "end_to_end": metrics,
            "all_correct": all(r["result"]["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "measured_wall_s": [r["record"]["measured_wall_s"] for r in runs],
            "calibration_s": [
                [r["record"]["calibration_before"]["wall_s"], r["record"]["calibration_after"]["wall_s"]]
                for r in runs
            ],
            "traced": {
                "seed": args.seeds[0],
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
            "record": {k: runs[0]["record"][k] for k in ("python", "numpy", "blas", "blas_threads_runtime", "nproc")},
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for workload, w in summary["workloads"].items():
        for name, m in w["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {m['median']:.6g} {m['unit']} spread {m['spread']:.4f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
