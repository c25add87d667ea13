"""Record the reference results that the benchmark's checks compare against.

    python3 perfbench/record.py exact_prob
    python3 perfbench/record.py lrc15_list --seeds 0:200

Run it from the root of a checkout at the commit whose outputs are the
reference.  For exact_prob it stores every Fraction the workload asks
for; for an LRC workload it stores, per seed, the digest of the lists
returned by the first digest_ops ops.  The result is merged into
perfbench/expected/<workload>.json.
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=("lrc15_list", "lrc63_list", "exact_prob"))
    p.add_argument("--seeds", default="0:10", help="half-open range lo:hi of seeds")
    args = p.parse_args(argv)
    run.prepare_process()
    from workloads import EXPECTED_DIR, WORKLOADS, load_expected

    wl = WORKLOADS[args.workload]
    state = wl.setup()
    record = load_expected(args.workload)
    if args.workload == "exact_prob":
        import lrcdec

        values = record.setdefault("values", {})
        for op in state[1:]:  # state[0] is the op that raises at the seed commit
            values[",".join(map(str, op))] = str(lrcdec.failure_prob_exact(*op))
    else:
        lo, hi = (int(v) for v in args.seeds.split(":"))
        record["digest_ops"] = wl.digest_ops
        digests = record.setdefault("digests", {})
        for seed in range(lo, hi):
            chk = wl.checker(state, seed)
            tally = run.Tally()
            for i in range(wl.digest_ops):
                run.run_op(wl, state, chk, i, tally)
            if tally.failed:
                raise SystemExit(f"seed {seed}: {tally.notes}")
            digests[str(seed)] = chk["digest"].hexdigest()
            print(seed, digests[str(seed)], flush=True)
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
