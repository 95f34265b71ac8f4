"""Outside-in tracing of labeltree for the benchmark's traced run.

Wrappers are installed around public functions of labeltree's modules
from outside the package; nothing inside the package changes.  Each
wrapped call records a span ``[label, start, end, parent]`` in memory,
and some calls add to exact counters.  The label of a span is the
per-layer metric its self time feeds.

Three traps shape the installation:

* ``import labeltree.dissimilarity as m`` binds the *function*
  ``dissimilarity``, which the package re-exports over the submodule
  attribute, so modules are looked up with :func:`importlib.import_module`;
* ``cli`` and the package ``__init__`` bind names with ``from .x import f``,
  so every labeltree namespace that holds the original object gets the
  wrapper;
* ``Tree.path_of_leaf`` and ``Tree.lca_layer_matrix`` are methods and are
  replaced on the class.

Everything is restored when :func:`installed` exits, so untraced
iterations run the program untouched.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import warnings
from collections import Counter
from time import perf_counter

ROOT_LABEL = "harness"


def _call(rec, fn, args, kwargs):
    return fn(*args, **kwargs)


def _counting(name):
    def hook(rec, fn, args, kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return hook


def _hinge_fit(rec, fn, args, kwargs):
    warning = importlib.import_module("labeltree.classifier").ConvergenceWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", warning)
        model = fn(*args, **kwargs)
    rec.counts["classifier.fits"] += 1
    rec.counts["classifier.hinge_fits"] += 1
    rec.counts["classifier.hinge_iterations"] += len(model.history) - 1
    rec.counts["classifier.hinge_budget_hits"] += sum(
        issubclass(w.category, warning) for w in caught
    )
    return model


def _file_bytes(name, arg_index, calls=None):
    """Add the size of the file named by positional ``arg_index``."""

    def hook(rec, fn, args, kwargs):
        result = fn(*args, **kwargs)
        rec.counts[name] += os.path.getsize(args[arg_index])
        if calls:
            rec.counts[calls] += 1
        return result

    return hook


def _rows(name, arg_index):
    def hook(rec, fn, args, kwargs):
        rec.counts[name] += len(args[arg_index])
        return fn(*args, **kwargs)

    return hook


def _isometry(rec, fn, args, kwargs):
    err = fn(*args, **kwargs)
    key = "embedding.max_isometry_error"
    rec.values[key] = max(rec.values.get(key, 0.0), err)
    return err


# (module, function, span label, hook).  Labels name the metric that the
# summed self time of their spans feeds.
TARGETS = (
    ("labeltree.hierarchy", "parse_tree", "hierarchy.parse_s", _call),
    ("labeltree.hierarchy", "load_tree", "hierarchy.parse_s", _call),
    ("labeltree.dissimilarity", "dissimilarity_matrix", "dissimilarity.matrix_s", _call),
    (
        "labeltree.dissimilarity",
        "consistency_report_from_matrix",
        "dissimilarity.audit_s",
        _call,
    ),
    (
        "labeltree.embedding",
        "embed_tree",
        "embedding.embed_tree_s",
        _counting("embedding.embed_tree_calls"),
    ),
    ("labeltree.embedding", "verify_isometry", "embedding.verify_s", _isometry),
    (
        "labeltree.embedding",
        "write_matrix_csv",
        "embedding.export_s",
        _file_bytes("embedding.export_bytes", 1),
    ),
    (
        "labeltree.embedding",
        "write_json",
        "embedding.export_s",
        _file_bytes("embedding.export_bytes", 1),
    ),
    ("labeltree.classifier", "train_linear", "classifier.train_linear_s", _counting("classifier.fits")),
    (
        "labeltree.classifier",
        "train_weighted_linear",
        "classifier.train_wlinear_s",
        _counting("classifier.fits"),
    ),
    ("labeltree.classifier", "train_hinge", "classifier.train_hinge_s", _hinge_fit),
    (
        "labeltree.classifier",
        "predict_paths",
        "classifier.predict_s",
        _rows("classifier.predict_rows", 1),
    ),
    ("labeltree.classifier", "save_model", "classifier.model_io_s", _call),
    ("labeltree.classifier", "load_model", "classifier.model_io_s", _call),
    ("labeltree.metrics", "evaluate", "metrics.evaluate_s", _rows("metrics.pairs", 0)),
    ("labeltree.datagen", "generate", "datagen.generate_s", _call),
    (
        "labeltree.datagen",
        "write_dataset_csv",
        "datagen.csv_write_s",
        _file_bytes("datagen.csv_write_bytes", 1),
    ),
    # read_dataset_csv reads through read_feature_csv, so only the inner
    # call counts the file.
    (
        "labeltree.datagen",
        "read_feature_csv",
        "datagen.csv_read_s",
        _file_bytes("datagen.csv_read_bytes", 0, calls="datagen.csv_read_calls"),
    ),
    ("labeltree.datagen", "read_dataset_csv", "datagen.csv_read_s", _call),
    ("labeltree.cli", "select_gamma", "cli.select_self_s", _rows("cli.grid_points", 3)),
    ("labeltree.cli", "select_lambda", "cli.select_self_s", _rows("cli.grid_points", 3)),
    ("labeltree.cli", "run_benchmark", "cli.protocol_self_s", _call),
    ("labeltree.cli", "write_predictions", "cli.predictions_io_s", _call),
    ("labeltree.cli", "read_predictions", "cli.predictions_io_s", _call),
    ("labeltree.cli", "read_truth", "cli.predictions_io_s", _call),
    ("labeltree.cli", "cmd_embed", "cli.command_self_s", _call),
    ("labeltree.cli", "cmd_train", "cli.command_self_s", _call),
    ("labeltree.cli", "cmd_predict", "cli.command_self_s", _call),
    ("labeltree.cli", "cmd_evaluate", "cli.command_self_s", _call),
)

# Tree.path_of_leaf runs ~10^5 times per design-2 replication, so it is
# counted but not spanned; a span there would cost more than the call.
METHOD_SPANS = (("lca_layer_matrix", "hierarchy.lca_matrix_s"),)
METHOD_COUNTS = (("path_of_leaf", "hierarchy.path_of_leaf_calls"),)

COUNTERS = (
    "hierarchy.path_of_leaf_calls",
    "embedding.embed_tree_calls",
    "embedding.export_bytes",
    "classifier.fits",
    "classifier.hinge_fits",
    "classifier.hinge_iterations",
    "classifier.hinge_budget_hits",
    "classifier.predict_rows",
    "metrics.pairs",
    "datagen.csv_write_bytes",
    "datagen.csv_read_bytes",
    "datagen.csv_read_calls",
    "cli.grid_points",
)
SPAN_LABELS = tuple(dict.fromkeys([t[2] for t in TARGETS] + [m[1] for m in METHOD_SPANS]))


class Recorder:
    """Spans and exact counters of one traced unit of work."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, label, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return hook(self, fn, args, kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """Span covering the whole unit; its self time is the harness residual."""
        record = [ROOT_LABEL, 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> Counter:
        """Per-label self time: span duration minus its direct children's."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (label, start, end, _), child in zip(self.spans, covered):
            out[label] += (end - start) - child
        return out


def _labeltree_namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "labeltree" or name.startswith("labeltree.")
    ]


@contextlib.contextmanager
def replaced(replacements):
    """Swap ``(module, function) -> factory(original)`` in every labeltree namespace."""
    namespaces = _labeltree_namespaces()
    saved = []
    try:
        for (module_name, attr), factory in replacements.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = factory(original)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        saved.append((ns, name, original))
                        setattr(ns, name, wrapper)
        yield
    finally:
        for ns, name, original in reversed(saved):
            setattr(ns, name, original)


@contextlib.contextmanager
def installed(rec: Recorder):
    """Trace every target into ``rec`` while the block runs."""
    tree_cls = importlib.import_module("labeltree.hierarchy").Tree
    replacements = {
        (module, attr): (lambda fn, label=label, hook=hook: rec.wrap(label, fn, hook))
        for module, attr, label, hook in TARGETS
    }
    saved = []
    try:
        for method, label in METHOD_SPANS:
            original = tree_cls.__dict__[method]
            saved.append((method, original))
            setattr(tree_cls, method, rec.wrap(label, original, _call))
        for method, counter in METHOD_COUNTS:
            original = tree_cls.__dict__[method]
            saved.append((method, original))
            setattr(tree_cls, method, _counted_method(rec.counts, counter, original))
        with replaced(replacements):
            yield rec
    finally:
        for method, original in reversed(saved):
            setattr(tree_cls, method, original)


def _counted_method(counts, name, fn):
    def wrapper(self, *args):
        counts[name] += 1
        return fn(self, *args)

    return wrapper
