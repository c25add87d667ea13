"""Run one benchmark workload against lrcdec and print its metrics.

    python3 perfbench/run.py --workload lrc15_list --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports lrcdec from ./src.  The
workload runs in this one process as a closed loop with a single caller:
the next op starts after the previous one returned and was checked.  Only
the time inside the call into lrcdec is measured.  A run makes exactly
ceil(seconds * nominal rate) ops, which take about --seconds at the
nominal rate, so every run of one --seconds makes the same ops and the
same failures.  Every output is checked (workloads.py).  Timing metrics
are scaled to a reference machine speed measured during the run (speed.py).

With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (spans.py): for half of --seconds, every op runs once
untraced and once traced, so the difference is the tracing overhead.
Per-layer times are not scaled.
Lines before the last start with '#' and record the environment, sample
counts and check results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import WINDOW, SpeedMeter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 3  # cold set-ups per run; setup_s is their median
# The keys of workloads.WORKLOADS, named here so that the first set-up of a
# run is the one that imports lrcdec.
WORKLOAD_NAMES = ("lrc15_list", "lrc63_list", "mk_burst", "exact_prob")


def prepare_process():
    """One CPU, single-threaded numeric libraries, lrcdec imported from the checkout.

    The process stays on the last CPU it may use, because vCPUs can run at
    different speeds and a migrating process would time a varying mix.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def timed_setup(name):
    """(workload, program state, set-up seconds, the same scaled to the reference speed).

    Set-up is importing lrcdec and building the state, timed and scaled
    like an op (speed.py).
    """
    import numpy  # noqa: F401  (not part of the program's set-up)

    meter = SpeedMeter()
    meter.burst(WINDOW // 2)
    with meter.sampling():
        lo = meter.mark()
        t0 = time.perf_counter()
        import lrcdec  # noqa: F401

        t1 = time.perf_counter()
        from workloads import WORKLOADS

        wl = WORKLOADS[name]
        t2 = time.perf_counter()
        state = wl.setup()
        t3 = time.perf_counter()
        hi = meter.mark()
    meter.burst(WINDOW // 2)
    seconds = (t1 - t0) + (t3 - t2) - meter.probe_time(lo, t0, t1) - meter.probe_time(lo, t2, t3)
    return wl, state, seconds, seconds / meter.factor(lo, hi)


def probe_setup(name) -> tuple[float, float]:
    """One timed set-up in a fresh process, so lrcdec's caches start empty."""
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"run.prepare_process(); print(repr(run.timed_setup({name!r})[2:]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=170
    )
    raw, scaled = out.stdout.strip().splitlines()[-1].strip("()").split(",")
    return float(raw), float(scaled)


class Tally:
    """Latencies, speed marks and outcomes of the ops of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.marks: list[tuple[int, int]] = []  # probe samples taken during each op
        self.failed = 0
        self.wrong_outputs = 0
        self.notes: dict[str, int] = {}
        self.decodes = 0
        self.decode_fails = 0

    def add(self, latency, marks, outcome, note):
        self.latencies.append(latency)
        self.marks.append(marks)
        if outcome is None or not outcome.ok:
            self.failed += 1
            self.notes[note] = self.notes.get(note, 0) + 1
            self.wrong_outputs += outcome is not None
        if outcome is not None and outcome.decode:
            self.decodes += 1
            self.decode_fails += outcome.decode_failed


def op_count(wl, seconds) -> int:
    """Ops in a run of the given length: as many as take that long at the nominal rate."""
    return max(1, math.ceil(seconds * wl.nominal_rate))


def run_op(wl, state, chk, i, tally, meter=None, scope=None):
    """Make, time and check op i; with a meter, take its probes out of the latency."""
    inp = wl.make_input(state, chk, i)
    outcome, note = None, ""
    lo = meter.mark() if meter else 0
    t0 = time.perf_counter()
    try:
        if scope is None:
            out = wl.call(state, inp)
        else:
            with scope(i):
                out = wl.call(state, inp)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        t1 = time.perf_counter()
        note = f"raised {type(exc).__name__}"
    else:
        t1 = time.perf_counter()
        outcome = wl.check(chk, i, inp, out)
        note = outcome.note
    latency, hi = t1 - t0, lo
    if meter:
        hi = meter.mark()
        latency -= meter.probe_time(lo, t0, t1)
    tally.add(latency, (lo, hi), outcome, note)


def environment(lrcdec_kernels) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": lrcdec_kernels.BACKEND,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
    }


def latency_stats(lat):
    """(ops per second, p50, p90) of a list of latencies in seconds."""
    if len(lat) > 1:
        p50, p90 = (statistics.quantiles(lat, n=10, method="inclusive")[i] for i in (4, 8))
    else:
        p50 = p90 = lat[0]
    return len(lat) / sum(lat), p50, p90


def end_to_end(args):
    wl, state, first_raw, first = timed_setup(args.workload)
    probes = [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    setups = [first] + [scaled for _, scaled in probes]
    chk = wl.checker(state, args.seed)
    tally, meter = Tally(), SpeedMeter()
    meter.burst(WINDOW // 2)
    count = op_count(wl, args.seconds)
    with meter.sampling():
        for i in range(count):
            run_op(wl, state, chk, i, tally, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    final_ok, final_note = wl.final_checks(chk, count)
    lat = [t / meter.factor(lo, hi) for t, (lo, hi) in zip(tally.latencies, tally.marks)]
    rate, p50, p90 = latency_stats(lat)
    raw_rate, raw_p50, raw_p90 = latency_stats(tally.latencies)
    decode_fail = tally.decode_fails / tally.decodes if tally.decodes else 0.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (1000 * p50, "ms"),
        "op_ms_p90": (1000 * p90, "ms"),
        "ops_ok_frac": (1 - tally.failed / count, "ratio"),
        "decode_ok_frac": (1 - decode_fail, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = [
        f"setup samples (s, scaled): {setups}; unscaled: {[first_raw] + [r for r, _ in probes]}",
        f"ops: {count} ({sum(tally.latencies):.3f} s unscaled);"
        f" latency samples above p90: {count - math.ceil(0.9 * count)}",
        f"speed factor: median {meter.factor():.4f} over {len(meter.samples)} probes;"
        f" unscaled ops_per_s {raw_rate:.4f}, op_ms_p50 {1000 * raw_p50:.4f},"
        f" op_ms_p90 {1000 * raw_p90:.4f}",
        f"ops_failed_frac: {tally.failed / count} ({tally.failed} of {count});"
        f" failures: {tally.notes}",
        f"decode_fail_frac: {decode_fail} ({tally.decode_fails} of {tally.decodes} decodes)",
        final_note,
    ]
    correct = final_ok and tally.wrong_outputs == 0
    return metrics, info, correct, count, tally.failed


def traced(args):
    """Per-layer metrics; each op runs untraced and traced, in alternating order.

    Pairing the two runs of one input cancels the machine's speed drift
    from the tracing overhead.
    """
    import lrcdec  # noqa: F401
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    with tracer.installed():
        tracer.op = "setup"
        state = wl.setup()
        tracer.op = None
    plain, replay = Tally(), Tally()
    plain_chk, chk = wl.checker(state, args.seed), wl.checker(state, args.seed)
    count = op_count(wl, args.seconds / 2)
    for i in range(count):
        for traced_run in (i % 2, 1 - i % 2):
            if traced_run:
                with tracer.installed():
                    run_op(wl, state, chk, i, replay, scope=tracer.op_scope)
            else:
                run_op(wl, state, plain_chk, i, plain)
    final_ok, final_note = wl.final_checks(chk, count)
    metrics = layer_metrics(tracer, list(range(count)), wl.local_length)
    extra = sum(replay.latencies) - sum(plain.latencies)
    metrics["trace.overhead_ms"] = (1000 * extra / count, "ms")
    info = [
        f"traced ops: {count}, each also run untraced",
        f"tracing overhead: {extra:.3f} s over {sum(plain.latencies):.3f} s untraced",
        f"spans recorded: {len(tracer.spans)}",
        final_note,
    ]
    correct = final_ok and plain.wrong_outputs == 0 and replay.wrong_outputs == 0
    return metrics, info, correct, 2 * count, plain.failed + replay.failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "lrcdec" / "__init__.py").is_file():
        print(f"error: no lrcdec sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    prepare_process()
    run = traced if args.trace else end_to_end
    metrics, info, correct, attempted, failed = run(args)
    from lrcdec import _kernels

    print(f"# environment: {json.dumps(environment(_kernels))}")
    print(f"# workload: {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for line in info:
        print(f"# {line}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
