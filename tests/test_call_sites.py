"""The benchmark tracer wraps qqsystems names by (module, attribute).

Tracer.installed looks each name up outside its worker's error handling,
so a renamed or deleted name would fail every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _call_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CALL_SITES


@pytest.mark.parametrize("module, attr, name", _call_sites())
def test_call_site_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))
