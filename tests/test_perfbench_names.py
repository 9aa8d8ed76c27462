"""The names ``perfbench/layers.py`` patches must exist in ``src/``.

A traced benchmark run replaces each listed entry point with a timing
wrapper, so renaming or moving one breaks ``perfbench/run.py --trace 1``.
This test loads the layer table by path (``perfbench/`` is not a package)
and resolves every name, so such a move fails here too.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


@pytest.mark.parametrize(
    "module_name, attr",
    [(module, attr) for _bucket, _count, module, attr in layers.ENTRY_POINTS],
    ids=[f"{module}:{attr}"
         for _bucket, _count, module, attr in layers.ENTRY_POINTS])
def test_entry_point_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize("name", layers.STORE_CALLS)
def test_store_call_resolves(name):
    assert callable(_resolve("repro.store.artifacts", f"ArtifactStore.{name}"))
