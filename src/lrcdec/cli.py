"""Command-line front end: radii/probability tables, seeded simulations,
curve data, code generation, and single-shot decoding.

Exit codes: 0 success, 1 decode failure in single-shot mode, 2
configuration error.  All randomness in ``simulate`` and ``gen-code
random-pmds`` is driven by --seed; trial i uses the independent stream
seeded by (seed, i), so results do not depend on the order of trials.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import linalg
from .galois import Field
from .grs import GrsCode
from .interleaved import BurstError, InterleavedWord, mk_decode
from .listdec import (
    BudgetExceeded,
    DecodeConfig,
    default_t_g,
    list_decode_lrc,
    success_prob_grs,
    unique_decode_probabilistic,
)
from .lrc import LrcCode, construct_tamo_barg
from .pmds import PmdsCode, failure_prob_exact, random_pmds, union_bound_failure
from .radii import (
    CodeShape,
    compute_report,
    normalized_radius,
)

RADII_COLUMNS = [
    "n", "k", "r", "rho", "q", "n_l", "d",
    "tau_j_local", "tau_j", "tau_g", "refined_t_g",
    "tau_irs_l2", "tau_g_interleaved_l2",
]

TABLE1_ROWS = [
    (1023, 99, 3, 9, 1024),
    (1023, 99, 3, 9, 4096),
    (1023, 99, 3, 9, 8192),
    (1023, 120, 4, 8, 1024),
    (1023, 120, 4, 8, 4096),
    (1023, 120, 4, 8, 8192),
    (1023, 220, 5, 7, 1024),
    (1023, 220, 5, 7, 4096),
    (1023, 220, 5, 7, 8196),
    (500, 99, 33, 68, 512),
    (500, 99, 33, 68, 1024),
    (500, 99, 33, 68, 2048),
    (63, 16, 8, 14, 64),
    (63, 16, 8, 14, 128),
    (63, 16, 8, 14, 256),
]

TABLE2_ROWS = [
    (15, 6, 3, 3),
    (30, 16, 4, 3),
    (30, 15, 3, 3),
    (63, 16, 8, 14),
    (63, 40, 5, 3),
    (500, 99, 33, 68),
]

PMDS_SETS = {
    "1": (45, 16, 8, 8),
    "2": (70, 24, 8, 3),
    "3": (196, 156, 26, 3),
}


def _fmt(x) -> str:
    """6 significant digits, '.' decimal, no locale; exact values verbatim."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, (str, Fraction)):
        return str(x)
    return f"{float(x):.6g}"


def _write(args, text: str):
    """Write text to --output, or to stdout when it is not given."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, header, rows):
    out = io.StringIO()
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    else:
        payload = [dict(zip(header, row)) for row in rows]
        json.dump(payload, out, indent=2, default=_fmt)
        out.write("\n")
    _write(args, out.getvalue())


def _parse_shape(text: str) -> tuple[int, ...]:
    parts = [int(v) for v in text.replace(",", " ").split()]
    if len(parts) not in (4, 5):
        raise ValueError("shape must be 'n k r rho [q]'")
    return tuple(parts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_radii(args) -> int:
    rows = []
    for text in args.shape:
        vals = _parse_shape(text)
        q = vals[4] if len(vals) == 5 else None
        try:
            rep = compute_report(CodeShape(*vals[:4], q=q))
            d = rep.as_dict()
            rows.append([d[c] for c in RADII_COLUMNS])
        except ValueError as exc:
            rows.append(list(vals[:4]) + [q, "", f"error: {exc}"] + [""] * 6)
            print(f"warning: shape {text!r}: {exc}", file=sys.stderr)
    _emit_rows(args, RADII_COLUMNS, rows)
    return 0


def cmd_tables(args) -> int:
    if args.table == "1":
        header = ["n", "k", "r", "rho", "q", "n_l", "d",
                  "tau_j_local", "tau_j", "tau_g", "refined_t_g", "success_prob",
                  "one_minus_success_prob"]
        rows = []
        for n, k, r, rho, q in TABLE1_ROWS:
            s = CodeShape(n, k, r, rho, q=q)
            rep = compute_report(s)
            t_l = rep.t_local
            bar = rep.refined_t_g
            pr = success_prob_grs(s, q, t_l, bar)
            rows.append([n, k, r, rho, q, s.n_l, s.d,
                         rep.tau_j_local, rep.tau_j, rep.tau_g, bar, float(pr),
                         float(1 - pr)])
        _emit_rows(args, header, rows)
    elif args.table == "2":
        header = ["n", "k", "r", "rho", "n_l", "d", "rate_global", "rate_local",
                  "tau_j_local", "tau_j", "tau_g", "refined_t_g",
                  "tau_irs_l2", "tau_g_interleaved_l2"]
        rows = []
        for n, k, r, rho in TABLE2_ROWS:
            s = CodeShape(n, k, r, rho)
            rep = compute_report(s)
            rows.append([n, k, r, rho, s.n_l, s.d, k / n, r / s.n_l,
                         rep.tau_j_local, rep.tau_j, rep.tau_g, rep.refined_t_g,
                         rep.tau_irs_l2, rep.tau_g_interleaved_l2])
        _emit_rows(args, header, rows)
    else:
        header = ["set", "n", "k", "r", "rho", "t", "failure_prob", "failure_prob_exact"]
        rows = []
        for label, (n, k, r, rho) in PMDS_SETS.items():
            d = CodeShape(n, k, r, rho).d
            for t in range(d - 1, n - k):
                p = failure_prob_exact(n, k, r, rho, t)
                rows.append([label, n, k, r, rho, t, float(p), str(p)])
        _emit_rows(args, header, rows)
    return 0


def cmd_pmds_prob(args) -> int:
    lo, hi = (int(v) for v in args.t_range.split(":"))
    header = ["n", "k", "r", "rho", "t", "exact", "exact_rational", "union_bound"]
    rows = []
    bound = float(union_bound_failure(args.n, args.k, args.r, args.rho)) if args.bound else None
    for t in range(lo, hi + 1):
        exact = failure_prob_exact(args.n, args.k, args.r, args.rho, t)
        rows.append([
            args.n, args.k, args.r, args.rho, t, float(exact), str(exact),
            bound if t == args.n - args.k - 1 else None,
        ])
    _emit_rows(args, header, rows)
    return 0


def cmd_curves(args) -> int:
    betas = [float(b) for b in args.beta]
    header = ["beta", "d_over_n", "tau_over_n"]
    rows = []
    for beta in betas:
        last = 1.0 / beta
        for i in range(args.grid + 1):
            delta = i / args.grid
            if delta > last:
                break
            rows.append([beta, delta, normalized_radius(beta, delta)])
        else:
            continue
        if rows[-1][1] != last:
            rows.append([beta, last, normalized_radius(beta, last)])
    _emit_rows(args, header, rows)
    return 0


def _load_lrc(path: str) -> LrcCode:
    with open(path) as fh:
        return LrcCode.from_json(json.load(fh))


def _load_pmds(path: str) -> PmdsCode:
    with open(path) as fh:
        obj = json.load(fh)
    field = Field.from_json(obj["field"])
    return PmdsCode(
        field,
        np.asarray(obj["generator"], dtype=np.int64),
        np.asarray(obj["parity"], dtype=np.int64),
        tuple(tuple(s) for s in obj["repair_sets"]),
        obj["n"], obj["k"], obj["r"], obj["rho"],
        verified=obj.get("verified", False),
    )


def cmd_gen_code(args) -> int:
    try:
        if args.kind == "tamo-barg":
            code = construct_tamo_barg(Field(args.q), args.n, args.k, args.r, args.rho)
            obj = code.to_json()
        else:
            code = random_pmds(args.q, args.n, args.k, args.r, args.rho, seed=args.seed)
            obj = {
                "field": code.field.to_json(),
                "generator": code.generator.tolist(),
                "parity": code.parity.tolist(),
                "repair_sets": [list(s) for s in code.repair_sets],
                "n": code.n, "k": code.k, "r": code.r, "rho": code.rho,
                "verified": code.verified,
            }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_decode(args) -> int:
    code = _load_lrc(args.code)
    with open(args.received) as fh:
        received = tuple(int(tok, 16) for tok in fh.read().split())
    cfg = DecodeConfig(t_l=args.tl, t_g=args.tg, budget=args.budget)
    if args.mode == "list":
        try:
            res = list_decode_lrc(code, received, cfg)
        except BudgetExceeded as exc:
            res = exc.partial
        out = {
            "list": [list(cw) for cw in res.codewords],
            "stats": {
                "local_list_sizes": res.local_list_sizes,
                "combinations_explored": res.combinations_explored,
                "shortened_decodes": res.shortened_decodes,
                "complete": res.complete,
            },
        }
        print(json.dumps(out, indent=2))
        return 0 if res.codewords else 1
    cw = unique_decode_probabilistic(code, received, cfg)
    print(json.dumps({"codeword": None if cw is None else list(cw)}))
    return 0 if cw is not None else 1


def _binomial_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% normal-approximation interval for a success rate."""
    p = successes / trials
    half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _simulate_lrc(code: LrcCode, kind: str, weights, trials, seed, cfg: DecodeConfig):
    per_weight = []
    q = code.field.q
    for w in weights:
        ok = budget_hits = 0
        for i in range(trials):
            rng = _trial_rng(seed, w * trials + i)
            msg = rng.integers(0, q, size=code.k).tolist()
            cw = code.encode(msg)
            pos = rng.choice(code.n, size=w, replace=False)
            word = list(cw)
            for p in pos:
                word[p] = code.field.add(word[p], int(rng.integers(1, q)))
            word = tuple(word)
            if kind == "lrc-list":
                try:
                    res = list_decode_lrc(code, word, cfg)
                    ok += cw in res.codewords
                except BudgetExceeded:
                    budget_hits += 1
            else:
                got = unique_decode_probabilistic(code, word, cfg)
                ok += got == cw
        lo, hi = _binomial_interval(ok, trials)
        per_weight.append({
            "weight": w, "trials": trials, "successes": ok,
            "rate": ok / trials, "ci95": [lo, hi],
            "budget_exceeded": budget_hits,
        })
    return per_weight


def _simulate_mk(code: PmdsCode, ell, weights, trials, seed):
    per_weight = []
    field = code.field
    q = field.q
    for w in weights:
        ok = 0
        for i in range(trials):
            rng = _trial_rng(seed, w * trials + i)
            msg = rng.integers(0, q, size=(ell, code.k), dtype=np.int64)
            cw = linalg.matmul(msg, code.generator, field)
            support = sorted(rng.choice(code.n, size=w, replace=False).tolist())
            vals = rng.integers(0, q, size=(ell, w), dtype=np.int64)
            for j in range(w):
                while not vals[:, j].any():
                    vals[:, j] = rng.integers(0, q, size=ell)
            err = BurstError(tuple(support), vals).to_matrix(ell, code.n)
            rec = linalg.sub(cw, err, field)
            res = mk_decode(field, code.parity, InterleavedWord(field, rec))
            ok += res is not None and np.array_equal(res[0].matrix, cw)
        lo, hi = _binomial_interval(ok, trials)
        per_weight.append({
            "weight": w, "trials": trials, "successes": ok,
            "rate": ok / trials, "ci95": [lo, hi],
        })
    return per_weight


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials = {args.trials} is below the limit 1")
    weights = [int(w) for w in args.weights.split(",")] if args.weights else None
    if args.kind == "mk":
        code = _load_pmds(args.code)
        if weights is None:
            weights = list(range(0, code.n - code.k))
        per_weight = _simulate_mk(code, args.ell, weights, args.trials, args.seed)
    else:
        code = _load_lrc(args.code)
        t_l = args.tl if args.tl is not None else code.local_code(0).gs_max_radius()
        t_g = args.tg if args.tg is not None else default_t_g(code, t_l)
        cfg = DecodeConfig(t_l=t_l, t_g=t_g, budget=args.budget)
        if weights is None:
            weights = list(range(0, t_g + 1))
        per_weight = _simulate_lrc(code, args.kind, weights, args.trials, args.seed, cfg)
    out = {"kind": args.kind, "seed": args.seed, "trials": args.trials,
           "per_weight": per_weight}
    _write(args, json.dumps(out, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lrcdec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("radii", help="decoding radii for parameter shapes")
    sp.add_argument("shape", nargs="*", help="'n k r rho [q]' tuples")
    _add_output(sp)
    sp.set_defaults(func=cmd_radii)

    sp = sub.add_parser("tables", help="reproduce the reference tables")
    sp.add_argument("table", choices=["1", "2", "pmds"])
    _add_output(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("pmds-prob", help="exact decoding-failure probabilities")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--rho", type=int, required=True)
    sp.add_argument("--t-range", required=True, help="lo:hi inclusive")
    sp.add_argument("--bound", action="store_true",
                    help="include the union bound at t = n-k-1")
    _add_output(sp)
    sp.set_defaults(func=cmd_pmds_prob)

    sp = sub.add_parser("curves", help="normalized radius curve samples")
    sp.add_argument("--beta", nargs="+", default=["1", "1.5", "2", "3"])
    sp.add_argument("--grid", type=int, default=100)
    _add_output(sp)
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("gen-code", help="emit a code descriptor JSON")
    sp.add_argument("kind", choices=["tamo-barg", "random-pmds"])
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--rho", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", "-o")
    sp.set_defaults(func=cmd_gen_code)

    sp = sub.add_parser("decode", help="decode one received word")
    sp.add_argument("--code", required=True, help="LRC descriptor JSON file")
    sp.add_argument("--received", required=True,
                    help="file of whitespace-separated hex symbols")
    sp.add_argument("--tl", type=int, required=True)
    sp.add_argument("--tg", type=int, required=True)
    sp.add_argument("--mode", choices=["list", "unique"], default="list")
    sp.add_argument("--budget", type=int, default=10**6)
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", help="seeded Monte-Carlo decoding trials")
    sp.add_argument("kind", choices=["lrc-list", "lrc-unique", "mk"])
    sp.add_argument("--code", required=True, help="code descriptor JSON file")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", help="comma-separated error weights")
    sp.add_argument("--tl", type=int)
    sp.add_argument("--tg", type=int)
    sp.add_argument("--ell", type=int, default=8, help="interleaving degree (mk)")
    sp.add_argument("--budget", type=int, default=10**6)
    sp.add_argument("--output", "-o")
    sp.set_defaults(func=cmd_simulate)

    return p


def _add_output(sp):
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--output", "-o")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
