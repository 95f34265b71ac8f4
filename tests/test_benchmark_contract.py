"""What the benchmark harness in ``perfbench/`` needs of the package.

``perfbench/spans.py`` wraps package functions by module and name and two
``Tree`` methods on the class, and ``perfbench/workloads.py`` checks every
``(true, predicted)`` pair that ``run_benchmark`` hands to
``metrics.evaluate``.  A rename, or a change in those calls, fails every
benchmark operation; these tests fail first.  They read the harness and
change nothing in it.
"""

import contextlib
import importlib
import sys
import types
from pathlib import Path

import pytest

from labeltree.cli import HINGE_LAMBDA_GRID, TUNING_GRID, run_benchmark
from labeltree.hierarchy import Tree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

pytestmark = pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ directory")


@pytest.fixture(scope="module")
def harness():
    """The harness's ``spans`` and ``workloads`` modules, imported as it imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("spans", "workloads"):
            sys.modules.pop(name, None)


def test_every_traced_target_is_a_function_of_its_module(harness):
    spans, _ = harness
    for module, attr, _, _ in spans.TARGETS:
        assert module.startswith("labeltree.")
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_tree_methods_are_plain_functions_on_the_class(harness):
    spans, _ = harness
    for method, _ in spans.METHOD_SPANS + spans.METHOD_COUNTS:
        assert isinstance(Tree.__dict__.get(method), types.FunctionType), method


def test_run_benchmark_hands_evaluate_string_path_pairs_once_per_fit(harness, tmp_path):
    spans, workloads = harness
    losses, calls = ("linear", "wlinear"), []

    def recording(evaluate):
        def wrapper(pairs, tree, *args, **kwargs):
            calls.append((pairs, tree))
            return evaluate(pairs, tree, *args, **kwargs)

        return wrapper

    with spans.replaced({("labeltree.metrics", "evaluate"): recording}):
        run_benchmark(example=1, reps=2, seed=3, losses=losses)
    assert len(calls) == 2 * len(losses)
    for pairs, tree in calls:
        assert type(pairs) is list and len(pairs) == 100  # the 2n-row test block
        for true, pred in pairs:
            assert type(true) is tuple and type(pred) is tuple
            assert all(type(node) is str for node in (*true, *pred))
            assert tree.is_path(true) and tree.is_path(pred)
    # the harness's own check of a block's first run finds no failed operation
    protocol = workloads.Protocol(example=1, losses=losses, reps=2, blocks=1)
    protocol.prepare(3, tmp_path)
    failed, l01 = protocol.check(protocol.first_unit(0), 0, first=True)
    assert failed == 0 and 0.0 <= l01 <= 1.0


def test_traced_protocol_records_one_selection_span_per_tuned_loss(harness):
    spans, _ = harness
    rec = spans.Recorder()
    with spans.installed(rec):
        run_benchmark(example=1, reps=1, seed=3, losses=("wlinear", "hinge"))
    assert [label for label, *_ in rec.spans].count("cli.select_self_s") == 2
    assert rec.counts["cli.grid_points"] == len(TUNING_GRID) + len(HINGE_LAMBDA_GRID)


def test_traced_cli_pipeline_cycles_pass_the_harness_checks(harness, tmp_path):
    # One untraced reference cycle, then two traced ones, as a traced run
    # alternates them, each unit under its own recorder.  A hooked call
    # whose positional arguments a hook can no longer read fails its step,
    # an output that tracing changes fails the last step's check, and a
    # block's counters must repeat exactly in every traced cycle.
    spans, workloads = harness
    pipeline = workloads.CliPipeline()
    pipeline.prepare(1, tmp_path)
    counts = []
    for cycle in range(3):
        for block, name in enumerate(pipeline.names):
            rec = spans.Recorder()
            with spans.installed(rec) if cycle else contextlib.nullcontext():
                code = (pipeline.unit if cycle else pipeline.first_unit)(block)
            assert code == 0, (cycle, name)
            assert pipeline.check(code, block, first=cycle == 0)[0] == 0, (cycle, name)
            if cycle:
                counts.append({counter: rec.counts[counter] for counter in spans.COUNTERS})
    blocks = len(pipeline.names)
    assert counts[:blocks] == counts[blocks:]
    # the hooks that read a positional argument saw one in their block
    by_name = dict(zip(pipeline.names, counts))
    assert by_name["write"]["datagen.csv_write_bytes"] > 0
    assert by_name["embed"]["embedding.export_bytes"] > 0
    assert by_name["train"]["datagen.csv_read_bytes"] > 0
    assert by_name["predict"]["classifier.predict_rows"] == pipeline.ROWS
    assert by_name["evaluate"]["metrics.pairs"] == pipeline.ROWS
