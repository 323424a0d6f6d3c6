"""The library surface that code outside ``src/`` relies on.

The benchmark's tracer (``perfbench/spans.py``) wraps library functions by
name and fails a traced run on a missing target; this test fails the same
way, so a pinned function that is moved or renamed shows up in the ordinary
test run.  The tracer's own lookup (``spans._resolve``) decides what
resolves.  The names that the benchmark's scripts import from the library
(``from crysred... import`` lines in ``perfbench/*.py``, read with ``ast``)
must resolve too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import crysred

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = sorted({target for table in (spans.LAYERS, spans.COUNTED)
                  for targets in table.values() for target in targets})


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_resolves(target):
    importlib.import_module(target.split(":")[0])
    value = spans._resolve(target)[2]
    assert callable(value), target


def test_span_tables_are_read():
    # an empty parameter list would skip the check above, not fail it
    assert TARGETS


def _perfbench_imports():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "crysred":
                names.update((node.module, alias.name) for alias in node.names)
    return sorted(names)


PERFBENCH_IMPORTS = _perfbench_imports()


@pytest.mark.parametrize("module, name", PERFBENCH_IMPORTS)
def test_perfbench_import_resolves(module, name):
    # ``from module import name`` binds an attribute or a submodule
    found = importlib.import_module(module)
    assert hasattr(found, name) or importlib.util.find_spec(f"{module}.{name}"), (module, name)


def test_perfbench_imports_are_read():
    assert ("crysred.witness", "_validate") in PERFBENCH_IMPORTS


@pytest.mark.parametrize("name", crysred.__all__)
def test_exported_name_resolves(name):
    assert getattr(crysred, name, None) is not None, name
