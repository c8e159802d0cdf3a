"""The benchmark's tracer finds every package name it wraps.

``perfbench/run.py --trace 1`` wraps functions and methods by name from
outside the package; a name that is renamed or deleted fails the traced
run. Here each set of wrappers is installed on a ``Tracer`` and then
uninstalled, which must leave the package as it was.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` imported as a module; ``sys.path`` is restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """Every module global and class attribute of the package, by owner and name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "pauseseg":
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__.startswith("pauseseg"):
                for attr, raw in vars(value).items():
                    out[name, key, attr] = raw
    return out


@pytest.mark.parametrize("install", ["trace_unit", "trace_probes"])
def test_tracer_wraps_existing_names_and_uninstalls(bench, install):
    before = package_bindings()
    tracer = bench.spans.Tracer()
    try:
        getattr(bench, install)(tracer)
        during = package_bindings()
    finally:
        tracer.uninstall()
    assert during.keys() == before.keys()
    assert any(during[k] is not before[k] for k in before)
    after = package_bindings()
    assert all(after[k] is before[k] for k in before)
