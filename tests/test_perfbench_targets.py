"""The traced benchmark (perfbench/spans.py) wraps lrcdec functions by name.

The traced run and perfbench's own tests sit outside Tier-1, so these
checks fail here when a rename leaves a name in TARGETS behind.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.TARGETS


def test_span_targets_resolve(monkeypatch):
    targets = _span_targets(monkeypatch)
    assert targets
    for mod_name, path, *_ in targets:
        owner = importlib.import_module(mod_name)
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            # the tracer reads the class's own dict, as it patches the class
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{mod_name}.{path}"
        assert callable(getattr(owner, attr)), f"{mod_name}.{path}"


def test_field_mul_is_countable():
    from lrcdec.galois import Field

    assert callable(vars(Field)["mul"])
