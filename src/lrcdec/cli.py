"""Command-line front end: radii/probability tables, seeded simulations,
curve data, code generation, and single-shot decoding.

Exit codes: 0 success, 1 decode failure in single-shot mode, 2
configuration error.  All randomness in ``simulate`` and ``gen-code
random-pmds`` is driven by --seed; trial i at error weight w uses the
independent stream seeded by (seed, w * trials + i), so results do not
depend on the order of trials or weights.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import linalg
from ._kernels import add
from .galois import Field
from .grs import gs_max_radius
from .interleaved import InterleavedWord, mk_decode
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
    _in_range,
    compute_report,
    normalized_radius,
)

RADII_COLUMNS = [
    "n", "k", "r", "rho", "q", "n_l", "d",
    "tau_j_local", "tau_j", "tau_g", "refined_t_g",
    "tau_irs_l2", "tau_g_interleaved_l2",
]

TABLE1_COLUMNS = RADII_COLUMNS[:11] + ["success_prob", "one_minus_success_prob"]

TABLE2_COLUMNS = [
    "n", "k", "r", "rho", "n_l", "d", "rate_global", "rate_local",
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


def _number(token: str, name: str, convert=int, kind="an integer"):
    """convert(token), or a ValueError naming the input that holds token."""
    try:
        return convert(token)
    except ValueError:
        raise ValueError(f"{name} value {token!r} is not {kind}") from None


def _parse_shape(text: str) -> tuple[int, ...]:
    parts = [_number(v, f"shape {text!r}") for v in text.replace(",", " ").split()]
    if len(parts) not in (4, 5):
        raise ValueError("shape must be 'n k r rho [q]'")
    return tuple(parts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _report_row(shape: CodeShape, columns, q=None, extra=lambda shape, q, report: {}) -> list:
    """The columns of shape's radius report, its rates and the field size
    label q, by name, with a table's own columns from extra(shape, q,
    report) added first."""
    report = dataclasses.asdict(compute_report(shape))
    report.update(q=q, rate_global=shape.k / shape.n, rate_local=shape.r / shape.n_l)
    report.update(extra(shape, q, report))
    return [report[c] for c in columns]


def _success_columns(shape: CodeShape, q: int, report: dict) -> dict:
    pr = success_prob_grs(shape, q, report["t_local"], report["refined_t_g"])
    return {"success_prob": float(pr), "one_minus_success_prob": float(1 - pr)}


def cmd_radii(args) -> int:
    rows = []
    for text in args.shape:
        vals = _parse_shape(text)
        q = vals[4] if len(vals) == 5 else None
        try:
            shape = CodeShape(*vals[:4])
            if q is not None:
                _in_range("q", q, 2)
            rows.append(_report_row(shape, RADII_COLUMNS, q))
        except ValueError as exc:
            rows.append(list(vals[:4]) + [q, "", f"error: {exc}"] + [""] * 6)
            print(f"warning: shape {text!r}: {exc}", file=sys.stderr)
    _emit_rows(args, RADII_COLUMNS, rows)
    return 0


def cmd_tables(args) -> int:
    if args.table == "1":
        rows = [_report_row(CodeShape(*v[:4]), TABLE1_COLUMNS, v[4], _success_columns)
                for v in TABLE1_ROWS]
        _emit_rows(args, TABLE1_COLUMNS, rows)
    elif args.table == "2":
        rows = [_report_row(CodeShape(*v), TABLE2_COLUMNS) for v in TABLE2_ROWS]
        _emit_rows(args, TABLE2_COLUMNS, rows)
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
    try:
        lo, hi = (int(v) for v in args.t_range.split(":"))
    except ValueError:
        raise ValueError(f"--t-range = {args.t_range} is not of the form lo:hi") from None
    if lo > hi:
        raise ValueError(f"--t-range = {args.t_range} is not of the form lo:hi with lo <= hi")
    CodeShape(args.n, args.k, args.r, args.rho)  # ValueError for a shape with no LRC
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
    _in_range("--grid", args.grid, 1)
    header = ["beta", "d_over_n", "tau_over_n"]
    rows = []
    for beta in args.beta:
        # delta = 0 lies in every valid beta's domain, and refuses the others
        rows.append([beta, 0.0, normalized_radius(beta, 0.0)])
        last = 1.0 / beta
        # the multiples of 1/grid up to 1/beta, then 1/beta itself
        deltas = [i / args.grid for i in range(1, args.grid + 1) if i / args.grid <= last]
        if deltas[-1:] != [last]:
            deltas.append(last)
        rows += [[beta, delta, normalized_radius(beta, delta)] for delta in deltas]
    _emit_rows(args, header, rows)
    return 0


def _load(path: str, family):
    """The code descriptor in a JSON file, read by family.from_json;
    ValueError naming a key of the family that the descriptor lacks."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return family.from_json(obj)
    except KeyError as exc:
        name = family.__name__
        raise ValueError(f"{path} is not a {name} descriptor: key {exc} is missing") from None


def cmd_gen_code(args) -> int:
    if args.kind == "tamo-barg":
        code = construct_tamo_barg(Field(args.q), args.n, args.k, args.r, args.rho)
    else:
        code = random_pmds(args.q, args.n, args.k, args.r, args.rho, seed=args.seed)
    _write(args, json.dumps(code.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_decode(args) -> int:
    code = _load(args.code, LrcCode)
    with open(args.received) as fh:
        received = tuple(_number(tok, f"--received file {args.received}",
                                 functools.partial(int, base=16), "a hex symbol")
                         for tok in fh.read().split())
    cfg = DecodeConfig(t_l=args.tl, t_g=args.tg, budget=args.budget)
    if args.mode == "list":
        try:
            res = list_decode_lrc(code, received, cfg)
        except BudgetExceeded as exc:
            res = exc.partial
        stats = dataclasses.asdict(res)
        print(json.dumps({"list": stats.pop("codewords"), "stats": stats}, indent=2))
        return 0 if res.codewords else 1
    cw = unique_decode_probabilistic(code, received, cfg)
    print(json.dumps({"codeword": None if cw is None else list(cw)}))
    return 0 if cw is not None else 1


def _binomial_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% normal-approximation interval for a success rate."""
    p = successes / trials
    half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def _simulate(trial, weights, trials: int, seed: int, budget_column: bool) -> list[dict]:
    """One row per error weight w of trial(rng, w) over the streams
    (seed, w * trials + i): True is a success, False a failure and None a
    decode that ran out of its search budget."""
    per_weight = []
    for w in weights:
        outcomes = [trial(np.random.default_rng([seed, w * trials + i]), w) for i in range(trials)]
        ok = outcomes.count(True)
        row = {"weight": w, "trials": trials, "successes": ok,
               "rate": ok / trials, "ci95": list(_binomial_interval(ok, trials))}
        if budget_column:
            row["budget_exceeded"] = outcomes.count(None)
        per_weight.append(row)
    return per_weight


def _lrc_trial(code: LrcCode, kind: str, cfg: DecodeConfig, rng, w: int):
    """A random codeword with w random nonzero errors, list or unique decoded."""
    q = code.field.q
    cw = code.encode(rng.integers(0, q, size=code.k))
    word = np.array(cw)
    pos = rng.choice(code.n, size=w, replace=False)
    word[pos] = add(word[pos], rng.integers(1, q, size=w), code.field)
    if kind == "lrc-unique":
        return unique_decode_probabilistic(code, word, cfg) == cw
    try:
        return cw in list_decode_lrc(code, word, cfg).codewords
    except BudgetExceeded:
        return None


def _mk_trial(code: PmdsCode, ell: int, rng, w: int):
    """A random ell-interleaved codeword with a burst of w random nonzero
    columns, located by mk_decode."""
    field, q = code.field, code.field.q
    msg = rng.integers(0, q, size=(ell, code.k), dtype=np.int64)
    cw = linalg.matmul(msg, code.generator, field)
    support = sorted(rng.choice(code.n, size=w, replace=False).tolist())
    vals = rng.integers(0, q, size=(ell, w), dtype=np.int64)
    for j in range(w):
        while not vals[:, j].any():
            vals[:, j] = rng.integers(0, q, size=ell)
    err = np.zeros((ell, code.n), dtype=np.int64)
    err[:, support] = vals
    res = mk_decode(field, code.parity, InterleavedWord(field, linalg.sub(cw, err, field)))
    return res is not None and np.array_equal(res[0].matrix, cw)


def cmd_simulate(args) -> int:
    _in_range("--trials", args.trials, 1)
    weights = None
    if args.weights:
        weights = [_number(w, "--weights") for w in args.weights.split(",")]
    if args.kind == "mk":
        _in_range("--ell", args.ell, 1)
        code = _load(args.code, PmdsCode)
        if weights is None:
            weights = list(range(0, code.n - code.k))
        trial = functools.partial(_mk_trial, code, args.ell)
    else:
        code = _load(args.code, LrcCode)
        t_l = args.tl if args.tl is not None else gs_max_radius(code.shape.n_l, code.r)
        t_g = args.tg if args.tg is not None else default_t_g(code, t_l)
        if weights is None:
            weights = list(range(0, t_g + 1))
        cfg = DecodeConfig(t_l=t_l, t_g=t_g, budget=args.budget)
        trial = functools.partial(_lrc_trial, code, args.kind, cfg)
    for w in weights:
        _in_range("--weights value", w, 0, code.n, "n = {}")
    per_weight = _simulate(trial, weights, args.trials, args.seed, args.kind != "mk")
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

    sp = sub.add_parser("radii", help="alphabet-independent decoding radii of parameter shapes")
    sp.add_argument("shape", nargs="*",
                    help="'n k r rho [q]' tuples; q is only echoed, the radii do not use it")
    _add_output(sp)
    sp.set_defaults(func=cmd_radii)

    sp = sub.add_parser("tables", help="reproduce the reference tables")
    sp.add_argument("table", choices=["1", "2", "pmds"])
    _add_output(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("pmds-prob", help="exact decoding-failure probabilities")
    _add_shape(sp, "n", "k", "r", "rho")
    sp.add_argument("--t-range", required=True, help="lo:hi inclusive")
    sp.add_argument("--bound", action="store_true",
                    help="include the union bound at t = n-k-1")
    _add_output(sp)
    sp.set_defaults(func=cmd_pmds_prob)

    sp = sub.add_parser("curves", help="normalized radius curve samples")
    sp.add_argument("--beta", nargs="+", type=float, default=[1.0, 1.5, 2.0, 3.0])
    sp.add_argument("--grid", type=int, default=100)
    _add_output(sp)
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("gen-code", help="emit a code descriptor JSON")
    sp.add_argument("kind", choices=["tamo-barg", "random-pmds"])
    _add_shape(sp, "q", "n", "k", "r", "rho")
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


def _add_shape(sp, *names):
    for name in names:
        sp.add_argument(f"--{name}", type=int, required=True)


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
