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


def test_list_decoder_runs_the_wrapped_steps(monkeypatch):
    # the traced run learns what list_decode_lrc does only through the
    # functions TARGETS wraps: one local gs_list_decode per repair set, one
    # shorten_received and one shortened gs_list_decode per shortened
    # decode, and the membership tests
    from lrcdec import DecodeConfig, Field, construct_tamo_barg, list_decode_lrc
    from lrcdec.grs import GrsCode
    from lrcdec.lrc import LrcCode

    calls = []

    def counted(cls, attr, tag):
        fn = vars(cls)[attr]

        def wrapper(self, *args, **kwargs):
            calls.append(tag(self))
            return fn(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counted(GrsCode, "gs_list_decode", lambda code: "local" if code.n == 5 else "short")
    counted(GrsCode, "shorten_received", lambda code: "shorten")
    counted(LrcCode, "is_codeword", lambda code: "member")
    code = construct_tamo_barg(Field(16), 15, 6, 3, 3)
    word = list(code.encode([3, 1, 4, 1, 5, 9]))
    word[0] ^= 1
    word[7] ^= 2
    out = list_decode_lrc(code, word, DecodeConfig(t_l=1, t_g=5))
    assert out.shortened_decodes >= 2
    assert calls.count("local") == 3
    assert calls.count("short") == calls.count("shorten") == out.shortened_decodes
    assert calls.count("member") >= 1
