"""The public surface resolves, and so does everything the benchmark reaches.

Each module's ``__all__`` and every name ``gradedshift/__init__.py``
re-exports must exist.  The benchmark in ``perfbench/`` is read, never
imported or changed: the ``(module, function)`` pairs its traced run wraps
(``spans.py::TARGETS``) and the package attributes its workloads call
(``workloads.py``) must exist too, so a deletion that would break the
benchmark or leave a stale export fails here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gradedshift

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(gradedshift.__path__) if m.name != "__main__")


def _module(name: str):
    return importlib.import_module(f"gradedshift.{name}")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = _module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_exports_resolve():
    tree = _parse(Path(gradedshift.__file__))
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert exports
    for module, name in exports:
        assert hasattr(gradedshift, name), name
        # a re-export is part of its module's own public list
        assert name in _module(module).__all__, (module, name)


def test_traced_benchmark_targets_resolve():
    (targets,) = [
        ast.literal_eval(node.value)
        for node in _parse(PERFBENCH / "spans.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert targets
    missing = [(mod, attr) for mod, attr, _ in targets if not hasattr(_module(mod), attr)]
    assert missing == []


def test_benchmark_workload_calls_resolve():
    # workloads.py binds the package as ``gs`` and its CLI module as ``cli``
    bound = {"gs": gradedshift, "cli": _module("cli")}
    calls = {
        (node.value.id, node.attr)
        for node in ast.walk(_parse(PERFBENCH / "workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }
    assert calls
    assert sorted((name, attr) for name, attr in calls if not hasattr(bound[name], attr)) == []


def test_cold_memos_clears_every_memo(request):
    # every functools cache bound at module level anywhere in the package
    memos = {v for name in MODULES for v in vars(_module(name)).values() if hasattr(v, "cache_clear")}
    gradedshift.polydisc_basis((gradedshift.hardy(),), 2)
    gradedshift.ball_basis(gradedshift.drury_arveson(2), 2)
    gradedshift.gamma_coeffs(2, 2)
    gradedshift.MultiplierSymbol(1, 1, {(1,): [[1.0]]})
    _module("purity")._realization_plan(gradedshift.PolydiscDomain((gradedshift.hardy(),)), 1, 2)
    cli = _module("cli")
    cli._validator("config.schema.json")
    cli._parser()
    # a memo not warmed above fails here: warm it, so the check below bites
    assert [m.__wrapped__.__qualname__ for m in memos if not m.cache_info().currsize] == []
    request.getfixturevalue("cold_memos")
    assert [m.__wrapped__.__qualname__ for m in memos if m.cache_info().currsize] == []
