"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Reference values are frozen from independent oracles
(exhaustive enumeration, brute-force spheres) or from the published
tables they reproduce."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lrcdec import (
    DecodeConfig,
    Field,
    GrsCode,
    construct_tamo_barg,
    list_decode_lrc,
    mk_decode,
    random_pmds,
    verify_pmds,
)
from lrcdec import linalg
from lrcdec.interleaved import InterleavedWord, excess_criterion
from lrcdec.listdec import success_prob_grs
from lrcdec.pmds import failure_prob_exact, rank_full_fraction, s_mu_size, union_bound_failure
from lrcdec.radii import (
    CodeShape,
    h_decreasing,
    interleaved_lrc_radius,
    irs_radius,
    johnson_errors,
    johnson_radius,
    list_size_bounds,
    lrc_list_radius,
    refined_error_count,
    sigma_exact,
)

GF16 = Field(16)


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0


def report(criterion: str, timer: Timer, limit: float | None = None):
    line = f"PASS {criterion} ({timer.seconds:.2f}s"
    if limit is not None:
        line += f" < {limit:g}s limit"
        assert timer.seconds < limit, f"{criterion}: {timer.seconds:.2f}s over limit {limit}s"
    print(line + ")")


@pytest.fixture(scope="module")
def tb():
    return construct_tamo_barg(GF16, 15, 6, 3, 3)


@pytest.fixture(scope="module")
def tb_codebook(tb):
    """All 16^6 codewords, column-major: row j of the (15, 16^6) uint8
    matrix holds coordinate j of every codeword, message m = sum_i m_i 16^i
    at column m.  Encoded with a local multiplication table, independent of
    the decoder path: coordinate j is the XOR over i of m_i g_ij, one
    broadcast over the digits m_5, ..., m_0 (axis 5 - i holds m_i)."""
    mul = np.zeros((16, 16), dtype=np.uint8)
    for a in range(16):
        for b in range(16):
            mul[a, b] = GF16.mul(a, b)
    gen = np.array(
        [tb.encode([1 if i == j else 0 for i in range(6)]) for j in range(6)],
        dtype=np.uint8,
    )
    book = np.zeros((15, 16**6), dtype=np.uint8)
    for j in range(15):
        col = np.zeros((1,) * 6, dtype=np.uint8)
        for i in range(6):
            col = col ^ mul[:, gen[i, j]].reshape([16 if a == 5 - i else 1 for a in range(6)])
        book[j] = col.ravel()
    return book


def sphere(book, word, radius):
    """The codewords of the column-major book within radius of word, in
    message order: a scan that adds one coordinate's mismatches at a time
    and drops a codeword once it passes radius."""
    rows, miss = None, np.zeros(book.shape[1], dtype=np.uint8)
    for j, s in enumerate(word):
        miss += (book[j] if rows is None else book[j, rows]) != s
        if j >= radius:
            keep = np.flatnonzero(miss <= radius)
            rows, miss = keep if rows is None else rows[keep], miss[keep]
    return book[:, rows].T


def corrupt(rng, field, word, weight):
    pos = rng.choice(len(word), size=weight, replace=False)
    w = list(word)
    for p in pos:
        w[p] = field.add(w[p], int(rng.integers(1, field.q)))
    return tuple(w)


# -- criterion 1 -------------------------------------------------------------------

TABLE2 = [
    # n, k, r, rho, tau_j_local, tau_j, tau_g, refined_t_g, tau_irs_l2, tau_g_l2
    (15, 6, 3, 3, 1.84, 4.75, 4.9, 5, 5.98, 6.09),
    (30, 16, 4, 3, 1.76, 4.9, 5.27, 5, 6.35, 6.66),
    (30, 15, 3, 3, 1.84, 4.31, 4.9, 5, 5.6, 6.09),
    (63, 16, 8, 14, 8.88, 21.0, 22.19, 24, 26.31, 27.26),
    (63, 40, 5, 3, 1.71, 5.22, 5.69, 5, 6.86, 7.27),
    (500, 99, 33, 68, 43.43, 159.41, 171.17, 175, 200.33, 209.73),
]


def test_criterion_1_radius_table():
    with Timer() as tm:
        for n, k, r, rho, e_jl, e_j, e_g, e_bar, e_i2, e_g2 in TABLE2:
            s = CodeShape(n, k, r, rho)
            t_l = johnson_errors(s.n_l, s.rho)
            assert abs(johnson_radius(s.n_l, s.rho) - e_jl) <= 0.01
            assert abs(johnson_radius(n, s.d) - e_j) <= 0.01
            assert abs(lrc_list_radius(s) - e_g) <= 0.01
            assert refined_error_count(s, t_l) == e_bar
            assert abs(irs_radius(n, s.d, 2) - e_i2) <= 0.01
            assert abs(interleaved_lrc_radius(s, 2) - e_g2) <= 0.01
    report("criterion 1: radius table, 6 rows x 6 columns to +-0.01", tm, limit=1.0)


# -- criterion 2 -------------------------------------------------------------------

# Table 1 prints a row in one of two ways.  A string is the success
# probability P rounded to five decimals.  An integer e is the lower bound
# P >= 1 - 10^e, with 10^e the tightest such power of ten:
# 10^(e-1) < 1 - P <= 10^e.  The q=8196 row is copied from the reference
# table as it stands (most likely a typo for 8192).
TABLE1 = [
    (1023, 99, 3, 9, 1024, "0.95973"),
    (1023, 99, 3, 9, 4096, "0.99744"),
    (1023, 99, 3, 9, 8192, "0.99936"),
    (1023, 120, 4, 8, 1024, "0.95974"),
    (1023, 120, 4, 8, 4096, "0.99744"),
    (1023, 120, 4, 8, 8192, "0.99936"),
    (1023, 220, 5, 7, 1024, "0.97108"),
    (1023, 220, 5, 7, 4096, "0.99817"),
    (1023, 220, 5, 7, 8196, "0.99954"),
    (500, 99, 33, 68, 512, -35),
    (500, 99, 33, 68, 1024, -42),
    (500, 99, 33, 68, 2048, -50),
    (63, 16, 8, 14, 64, "0.99938"),
    (63, 16, 8, 14, 128, "0.99998"),
    (63, 16, 8, 14, 256, -6),
]


def _log10(x: Fraction) -> float:
    """log10 of a positive Fraction, without underflow for tiny values."""
    return math.log10(x.numerator) - math.log10(x.denominator)


def _bound_exponent(x: Fraction) -> int:
    """Smallest integer e with x <= 10^e, i.e. 10^(e-1) < x <= 10^e (exact input)."""
    assert x > 0
    e = math.floor(_log10(x))
    while Fraction(10) ** e < x:
        e += 1
    while Fraction(10) ** (e - 1) >= x:
        e -= 1
    return e


def test_bound_exponent_edges():
    tiny = Fraction(1, 10**80)
    assert _bound_exponent(Fraction(1, 10**35)) == -35
    assert _bound_exponent(Fraction(1, 10**35) + tiny) == -34
    assert _bound_exponent(Fraction(1, 10**36) + tiny) == -35


def test_criterion_2_success_probability_table():
    with Timer() as tm:
        for n, k, r, rho, q, expected in TABLE1:
            s = CodeShape(n, k, r, rho)
            t_l = johnson_errors(s.n_l, s.rho)
            bar = refined_error_count(s, t_l)
            pr = success_prob_grs(s, q, t_l, bar)
            row = (n, k, r, rho, q)
            if isinstance(expected, str):
                assert f"{float(pr):.5f}" == expected, f"{row}: P = {float(pr):.7f}, table {expected}"
            else:
                miss = 1 - pr
                e = _bound_exponent(miss)
                assert e == expected, (
                    f"{row}: 1 - P = {float(miss):.4g} (log10 {_log10(miss):.2f}), "
                    f"table prints P >= 1 - 10^{expected}"
                )
    report("criterion 2: success-probability table, 15 rows on displayed digits", tm, limit=10.0)


# -- criterion 3 -------------------------------------------------------------------

PMDS_TABLES = {
    (45, 16, 8, 8): {28: "9.87e-02", 27: "3.61e-02", 26: "1.10e-02", 25: "2.73e-03",
                     24: "5.13e-04", 23: "6.55e-05", 22: "4.27e-06"},
    (70, 24, 8, 3): {45: "1.68e-03", 44: "9.38e-05", 43: "1.25e-08", 42: "4.03e-10"},
    (196, 156, 26, 3): {39: "7.62e-02", 38: "1.11e-02", 37: "3.49e-04", 36: "2.71e-05",
                        35: "2.76e-07", 34: "1.50e-08", 33: "2.13e-11", 32: "9.31e-13",
                        31: "1.73e-17", 30: "6.56e-19"},
}


def test_criterion_3_exact_failure_probabilities():
    with Timer() as tm:
        for (n, k, r, rho), rows in PMDS_TABLES.items():
            d = CodeShape(n, k, r, rho).d
            for t, expected in rows.items():
                got = failure_prob_exact(n, k, r, rho, t)
                assert f"{float(got):.2e}" == expected, (n, t, float(got))
            assert failure_prob_exact(n, k, r, rho, d - 2) == 0
            assert failure_prob_exact(n, k, r, rho, n - k) == 1
    report("criterion 3: exact failure probabilities, 3 parameter sets to 3 digits", tm, limit=10.0)


# -- criterion 4 -------------------------------------------------------------------

def test_criterion_4_union_bound_checkpoints():
    with Timer() as tm:
        assert f"{float(union_bound_failure(70, 24, 8, 3)):.2e}" == "1.68e-03"
        assert f"{float(union_bound_failure(196, 156, 26, 3)):.2e}" == "7.71e-02"
    report("criterion 4: union-bound checkpoints to 3 significant digits", tm)


# -- criterion 5 -------------------------------------------------------------------

def test_criterion_5_combinatorial_success_fraction():
    with Timer() as tm:
        good = s_mu_size(15, 8, 4, 2, 9)
        assert Fraction(good, math.comb(15, 9)) == Fraction(125, 143)
        repair = [tuple(range(i * 5, (i + 1) * 5)) for i in range(3)]
        oracle = sum(
            1
            for subset in itertools.combinations(range(15), 9)
            if all(sum(1 for x in subset if x in set(rs)) <= 4 for rs in repair)
        )
        assert oracle == good == 4375
    report("criterion 5: success fraction 125/143 equals exhaustive count over 5005 supports", tm)


# -- criterion 6 -------------------------------------------------------------------

def test_criterion_6_dp_equals_oracle():
    shapes = [(12, 4, 2, 2), (12, 6, 2, 2), (10, 4, 2, 4), (14, 6, 3, 5)]
    with Timer() as tm:
        for (n, k, r, rho) in shapes:
            code = random_pmds(2**10, n, k, r, rho, seed=1)  # shape is realizable
            rs = code.repair_sets
            assert verify_pmds(code.field, code.generator, rs, r, rho)
            for t in range(n + 1):
                bad = sum(
                    1
                    for e in itertools.combinations(range(n), t)
                    if not excess_criterion(rs, n, k, r, e)
                )
                assert failure_prob_exact(n, k, r, rho, t) == Fraction(bad, math.comb(n, t))
    report("criterion 6: DP equals exhaustive classification on 4 shapes, all t", tm, limit=60.0)


# -- criterion 7 -------------------------------------------------------------------

def test_criterion_7_list_decoder_end_to_end(tb, tb_codebook):
    cfg = DecodeConfig(t_l=1, t_g=5)
    with Timer() as tm:
        for weight in range(6):
            for i in range(1000):
                rng = np.random.default_rng([7000 + weight, i])
                cw = tb.encode(rng.integers(0, 16, size=6).tolist())
                w = corrupt(rng, GF16, cw, weight)
                out = list_decode_lrc(tb, w, cfg)
                assert cw in out.codewords, (weight, i)
        # full list equality against the exhaustive sphere for 20 trials
        for i in range(20):
            rng = np.random.default_rng([7100, i])
            cw = tb.encode(rng.integers(0, 16, size=6).tolist())
            w = corrupt(rng, GF16, cw, 5)
            got = list_decode_lrc(tb, w, cfg).codewords
            assert got == sorted(map(tuple, sphere(tb_codebook, w, 5).tolist())), i
    report("criterion 7: 6000 containment trials + 20 exhaustive-sphere equalities", tm, limit=300.0)


# -- criterion 8 -------------------------------------------------------------------

def test_criterion_8_mk_decoder():
    with Timer() as tm:
        code = random_pmds(2**10, 12, 4, 2, 2, seed=1)
        field = code.field
        q, ell = 1024, 8

        def run(weight, index):
            rng = np.random.default_rng([8000 + weight, index])
            msg = rng.integers(0, q, size=(ell, 4), dtype=np.int64)
            cw = linalg.matmul(msg, code.generator, field)
            support = sorted(rng.choice(12, size=weight, replace=False).tolist())
            vals = rng.integers(0, q, size=(ell, weight), dtype=np.int64)
            for j in range(weight):
                while not vals[:, j].any():
                    vals[:, j] = rng.integers(0, q, size=ell)
            e = np.zeros((ell, 12), dtype=np.int64)
            e[:, support] = vals
            res = mk_decode(field, code.parity, InterleavedWord(field, cw ^ e))
            return res is not None and np.array_equal(res[0].matrix, cw)

        for weight in range(6):  # t <= 5: always recovered
            assert all(run(weight, i) for i in range(1000 // 6 + 1))
        trials, ok = 1000, 0
        for i in range(trials):
            ok += run(7, i)
        p = float((1 - failure_prob_exact(12, 4, 2, 2, 7)) * rank_full_fraction(q, ell, 7))
        sigma3 = 3 * math.sqrt(p * (1 - p) / trials)
        assert abs(ok / trials - p) <= sigma3, (ok / trials, p, sigma3)
    report("criterion 8: interleaved burst decoding, exact for t<=5, 3-sigma at t=7", tm)


# -- criterion 9 -------------------------------------------------------------------

def test_criterion_9_gs_completeness():
    with Timer() as tm:
        gf8 = Field(8)
        code = GrsCode(gf8, list(range(1, 8)), [1] * 7, 2)
        book = [code.encode([a, b]) for a in range(8) for b in range(8)]
        for i in range(50):
            rng = np.random.default_rng([9000, i])
            w = tuple(int(x) for x in rng.integers(0, 8, size=7))
            got = code.gs_list_decode(w, 3)
            sphere = sorted(
                c for c in book if sum(1 for x, y in zip(c, w) if x != y) <= 3
            )
            assert got == sphere, i
    report("criterion 9: list decoder equals sphere enumeration, 50 received words", tm)


# -- criterion 10 ------------------------------------------------------------------

def test_criterion_10_radius_monotone_in_length():
    with Timer() as tm:
        assert h_decreasing(35, 1, None, range(35, 201), tol=1e-12)
        assert h_decreasing(8, 2, 16, range(9, 201), tol=1e-12)
        assert h_decreasing(9, 1, 1024, range(10, 201), tol=1e-12)
    report("criterion 10: normalized radius non-increasing in n, 3 parameter sets", tm)


# -- criterion 11 ------------------------------------------------------------------

def test_criterion_11_improved_list_bound():
    with Timer() as tm:
        rng = np.random.default_rng(11)
        checked = strict = 0
        while checked < 50:
            r = int(rng.integers(1, 6))
            rho = int(rng.integers(2, 7))
            mu = int(rng.integers(2, 7))
            n_l = r + rho - 1
            n = mu * n_l
            k = r * int(rng.integers(1, mu + 1))
            try:
                shape = CodeShape(n, k, r, rho)
            except ValueError:
                continue
            if shape.d < rho or shape.n - math.ceil(sigma_exact(shape)) * n_l <= shape.d:
                continue
            basic, improved = list_size_bounds(shape)
            if basic is None or improved is None:
                continue
            checked += 1
            assert improved <= basic
            if math.ceil(sigma_exact(shape)) >= 1 and improved < basic:
                strict += 1
        assert strict >= 1
    report("criterion 11: improved list bound never worse on 50 shapes, strict at least once", tm)
