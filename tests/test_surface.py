"""The library surface that code outside ``src/`` relies on.

The benchmark's tracer (``perfbench/spans.py``) wraps library functions by
name and fails a traced run on a missing target; this test fails the same
way, so a pinned function that is moved or renamed shows up in the ordinary
test run.  The tracer's own lookup (``spans._resolve``) decides what
resolves.  The names that the benchmark's scripts import from the library
(``from crysred... import`` lines in ``perfbench/*.py``, read with ``ast``)
must resolve too.  And every function, class and method of the package has
a reader in the package, unless it is exported, named by the benchmark's
scripts or a dunder: a helper left behind by a refactor fails here.
"""

import ast
import importlib
import importlib.util
import re
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


SRC = Path(crysred.__file__).resolve().parent


def _unreferenced_definitions(exempt: str) -> list[str]:
    """Functions, classes and methods of ``src/crysred`` whose name is read
    nowhere in the package outside their own definition (as a name or an
    attribute), less the exported names, the names that the text ``exempt``
    mentions and the dunders."""
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path.name, node.lineno))
    return sorted(
        name for name, file, lineno, end in defs
        if not (name.startswith("__") and name.endswith("__")) and name not in crysred.__all__
        and not re.search(rf"\b{re.escape(name)}\b", exempt)
        and not any(use == name and (f != file or not lineno <= line <= end)
                    for use, f, line in uses))


def test_no_dead_code():
    # a definition with no caller in src/ is exported, a benchmark target
    # (named in perfbench/*.py) or gone
    perfbench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    assert _unreferenced_definitions(perfbench) == []


def test_dead_code_guard_sees_the_benchmark_only_names():
    # without the exemption the guard flags exactly what only perfbench reads
    assert _unreferenced_definitions("") == ["SubquotientModule", "intersect", "val_lb"]
