"""The package's public surface: module ``__all__`` lists and ``labeltree``'s exports.

A public name stays where a package module, a CLI command, the benchmark,
the acceptance suite or the README's library example reads it.
"""

import importlib
import pkgutil
import sys
import types

import pytest

import labeltree

MODULES = sorted(info.name for info in pkgutil.iter_modules(labeltree.__path__))

# Public functions and accessors that only their own unit tests read; the
# pairwise ``dissimilarity``, ``hinge_objective`` and ``table_to_json_dict``
# live on in ``tests/oracles.py`` as references.
REMOVED = {
    "classifier": ("decision_values", "hierarchy_margin", "surrogate_risk", "hinge_objective"),
    "classifier.LinearModel": ("scores",),
    "dissimilarity": ("dissimilarity",),
    "dissimilarity.WeightSchedule": ("sibling_weight", "parent_edge"),
    "embedding": ("table_to_json_dict",),
    "embedding.EmbeddingTable": ("vector", "distance"),
    "hierarchy.Tree": (
        "index_tuple",
        "ancestor_at_layer",
        "nodes_at_layer",
        "lca_layer",
        "order_index",
        "subtree_size",
    ),
    "metrics": ("zero_one_loss",),
}


def module(name: str) -> types.ModuleType:
    return importlib.import_module(f"labeltree.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = module(name)
    missing = [entry for entry in getattr(mod, "__all__", ()) if not hasattr(mod, entry)]
    assert not missing


def test_package_exports_only_module_all_entries():
    exported = {entry for name in MODULES for entry in getattr(module(name), "__all__", ())}
    public = {
        key
        for key, value in vars(labeltree).items()
        if not key.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= exported, sorted(public - exported)


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_names_stay_removed(owner):
    name, _, cls = owner.partition(".")
    target = getattr(module(name), cls) if cls else module(name)
    for attr in REMOVED[owner]:
        assert not hasattr(target, attr), (owner, attr)
        # the package attribute ``dissimilarity`` is the submodule
        assert getattr(labeltree, attr, None) in (None, sys.modules.get(f"labeltree.{attr}"))
