"""Smoke tests of the benchmark, a few ops per workload.

    python3 -m pytest -q perfbench

They sit outside the tests/ directory that pytest collects by default, so
the Tier-1 suite does not run them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.prepare_process()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match():
    from workloads import WORKLOADS

    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    # exact_prob's first op is the one that raises; 1 s also times two that succeed
    seconds = "1" if workload == "exact_prob" else "0.3"
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", seconds,
                          "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_known_failure_is_counted():
    # failure_prob_exact(2000, 1000, 1, 2, 1000) raises RecursionError at
    # the seed commit; it is the first of the three ops a 1 s run times.
    proc = bench("--workload", "exact_prob", "--seed", "0", "--seconds", "1")
    res = result_of(proc)
    failed = 1 if "raised RecursionError" in proc.stdout else 0
    assert (res["attempted"], res["failed"]) == (3, failed)
    assert res["metrics"]["ops_ok_frac"]["value"] == pytest.approx(1 - failed / 3)


def test_speed_factor_window():
    from speed import REFERENCE_S, WINDOW, SpeedMeter

    meter = SpeedMeter()
    meter.samples = [REFERENCE_S] * WINDOW + [2 * REFERENCE_S] * (3 * WINDOW)
    assert meter.factor(0, 0) == 1  # no samples inside: the first WINDOW
    assert meter.factor(WINDOW // 4, WINDOW // 2) == 1  # widened to WINDOW
    assert meter.factor(WINDOW, 4 * WINDOW) == 2  # every sample inside
    assert meter.factor(4 * WINDOW, 4 * WINDOW) == 2  # at the end: the last WINDOW


def test_probes_leave_latency():
    import time

    from speed import SpeedMeter

    meter = SpeedMeter()
    with meter.sampling():
        t0 = time.perf_counter()
        while meter.mark() < 3:
            pass
        t1 = time.perf_counter()
    inside = meter.probe_time(0, t0, t1)
    assert sum(meter.samples[:3]) <= inside < t1 - t0


def test_same_seed_same_inputs():
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        state = wl.setup()
        a = [wl.make_input(state, wl.checker(state, 5), i) for i in range(3)]
        b = [wl.make_input(state, wl.checker(state, 5), i) for i in range(3)]
        assert repr(a) == repr(b)


def lrcdec_functions():
    """Every function and class attribute that an lrcdec module binds."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "lrcdec" and not mod_name.startswith("lrcdec."):
            continue
        for attr, value in vars(mod).items():
            found[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("lrcdec"):
                for name, member in vars(value).items():
                    found[(mod_name, attr, name)] = member
    return found


def test_untraced_run_leaves_lrcdec_unwrapped(monkeypatch):
    import lrcdec  # noqa: F401
    from workloads import WORKLOADS

    before = lrcdec_functions()
    seen = []

    def unchanged():
        now = lrcdec_functions()
        return all(now[key] is value for key, value in before.items())

    for name, wl in WORKLOADS.items():
        call = wl.call

        def checking_call(state, inp, call=call):
            seen.append(unchanged())
            return call(state, inp)

        monkeypatch.setattr(wl, "call", checking_call)
        monkeypatch.setattr(run, "probe_setup", lambda name: (1.0, 1.0))
        run.end_to_end(Namespace(workload=name, seed=0, seconds=0.05, trace=0))
    assert seen and all(seen)
    assert unchanged()


def test_traced_run_restores_lrcdec():
    import lrcdec  # noqa: F401

    before = lrcdec_functions()
    metrics = run.traced(Namespace(workload="lrc15_list", seed=0, seconds=0.1, trace=1))[0]
    assert metrics["grs.gs_local_calls"][0] == 3  # one local decode per repair set
    now = lrcdec_functions()
    assert all(now[key] is value for key, value in before.items())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lrc15_list", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
