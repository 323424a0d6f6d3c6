"""The library surface that code outside ``src/`` relies on.

The benchmark's tracer (``perfbench/spans.py``) wraps library functions by
name and fails a traced run on a missing target; this test fails the same
way, so a pinned function that is moved or renamed shows up in the ordinary
test run.  The tracer's own lookup (``spans._resolve``) decides what
resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import crysred

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


@pytest.mark.parametrize("name", crysred.__all__)
def test_exported_name_resolves(name):
    assert getattr(crysred, name, None) is not None, name
