"""Every name the benchmark's traced run wraps must exist.

``perfbench/spans.py`` looks each traced name up with ``getattr`` when
``run.py --trace 1`` starts; a deleted or renamed function would crash that
run, so the lookup is checked here.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, path",
                         [(module, path) for module, path, _, _ in spans.TRACED],
                         ids=lambda x: x)
def test_traced_name_resolves(module, path):
    owner, attr = spans._resolve(module, path)
    assert hasattr(owner, attr)  # a function, a method or a property
