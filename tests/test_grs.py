import itertools
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from lrcdec import Field, GrsCode, construct_tamo_barg, grs, linalg
from lrcdec._kernels import _vec_mul, add, add_reduce, matmul, powers, sub
from lrcdec.grs import _rr_roots, gs_max_radius, gs_parameters
from lrcdec.interleaved import excess_criterion, is_t1_independent, sk1_sufficient


@pytest.fixture(scope="module")
def code_7_3(gf8):
    return GrsCode(gf8, list(range(1, 8)), [1] * 7, 3)


@pytest.fixture(scope="module")
def code_7_2(gf8):
    return GrsCode(gf8, list(range(1, 8)), [1] * 7, 2)


@pytest.fixture(scope="module")
def book_7_2(code_7_2):
    return [code_7_2.encode([a, b]) for a in range(8) for b in range(8)]


def hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def corrupt(rnd, field, word, positions):
    w = list(word)
    for p in positions:
        w[p] = field.add(w[p], rnd.randrange(1, field.q))
    return tuple(w)


def horner(field, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def encode_oracle(code, coeffs):
    """nu_i f(alpha_i) by scalar Horner."""
    F = code.field
    return tuple(F.mul(v, horner(F, coeffs, a)) for a, v in zip(code.locators, code.multipliers))


def gauss_jordan_inverse(code, positions):
    """G_m[:, pos]^-1, G_m the generator's first m = len(pos) rows, by a
    Gauss-Jordan reduction of [G_m[:, pos] | I] to [I | G_m[:, pos]^-1]."""
    pos, m = list(positions), len(positions)
    aug = np.concatenate((code.generator[:m, pos], np.eye(m, dtype=np.int64)), axis=1)
    red, rank, _ = linalg.rref(aug, code.field)
    assert rank == m
    return red[:, m:]


def agree_on(code, word, positions):
    """(f, c): the message f of degree < m = len(positions) <= k whose
    codeword c agrees with word there, through gauss_jordan_inverse."""
    pos, F = list(positions), code.field
    f = linalg.matmul(np.asarray(word)[pos][None], gauss_jordan_inverse(code, pos), F)
    return f[0], linalg.matmul(f, code.generator[: len(pos)], F)[0]


def reduce_poly(field, coeffs, subset):
    """Repeated f |-> (f - f(beta)) / (x - beta) on coefficient lists, by
    synthetic division: the quotient of f by x - beta ignores f's constant."""
    f = list(coeffs)
    for beta in subset:
        quot = [0] * max(len(f) - 1, 0)
        acc = 0
        for i in range(len(f) - 1, 0, -1):
            acc = field.add(field.mul(acc, beta), f[i])
            quot[i - 1] = acc
        f = quot
    return f


def all_ints(words):
    return all(type(s) is int for w in words for s in w)


# -- construction ---------------------------------------------------------------

def test_invalid_parameters(gf8):
    with pytest.raises(ValueError):
        GrsCode(gf8, [1, 1, 2], [1, 1, 1], 2)  # repeated locator
    with pytest.raises(ValueError):
        GrsCode(gf8, [1, 2, 3], [1, 0, 1], 2)  # zero multiplier
    with pytest.raises(ValueError):
        GrsCode(gf8, [1, 2, 3], [1, 1, 1], 4)  # k > n


def test_dimension_outside_zero_to_n_names_the_limit(gf8):
    with pytest.raises(ValueError, match=r"^k = 4 exceeds the limit n = 3$"):
        GrsCode(gf8, [1, 2, 3], [1, 1, 1], 4)
    with pytest.raises(ValueError, match=r"^k = -1 is below the limit 0$"):
        GrsCode(gf8, [1, 2, 3], [1, 1, 1], -1)


# -- encoding -------------------------------------------------------------------

def test_encode_zero_and_one(code_7_3, gf8):
    assert code_7_3.encode([0, 0, 0]) == (0,) * 7
    assert code_7_3.encode([1]) == (1,) * 7


def test_encode_refuses_a_message_that_is_not_one_axis(gf8):
    # [[1]] used to encode on a k = 1 code, [[1, 2]] to raise numpy's
    # broadcast error and 5 a TypeError, none naming the message
    code = GrsCode(gf8, range(1, 8), [1] * 7, 1)
    for message, has in (([[1]], r"shape \(1, 1\)"), ([[1, 2]], r"shape \(1, 2\)"), (5, r"shape \(\)")):
        with pytest.raises(ValueError, match=rf"^message has {has}, need one axis of size = \d$"):
            code.encode(message)
    assert code.encode([5]) == code.encode(np.array([5])) == (5,) * 7


def test_encode_degree_too_large(code_7_3, gf8):
    with pytest.raises(ValueError, match="degree 3 >= k = 3"):
        code_7_3.encode([1, 2, 3, 4])
    assert code_7_3.encode([1, 2, 3, 0, 0]) == code_7_3.encode([1, 2, 3])


def test_random_codeword_weight_at_least_d(code_7_3):
    rnd = random.Random(0)
    d = code_7_3.d
    for _ in range(100):
        msg = [rnd.randrange(8) for _ in range(3)]
        cw = code_7_3.encode(msg)
        w = sum(1 for s in cw if s)
        assert w == 0 or w >= d


def test_is_codeword(code_7_2, book_7_2, gf8, grs_membership):
    rnd = random.Random(1)
    books = set(book_7_2)
    in_code = grs_membership(code_7_2)
    cw = code_7_2.encode([3, 4])
    assert in_code(cw)
    bad = list(cw)
    bad[2] = gf8.add(bad[2], 1)
    assert not in_code(tuple(bad))
    for _ in range(100):
        w = tuple(rnd.randrange(8) for _ in range(7))
        assert in_code(w) == (w in books)


def test_is_codeword_zero_code_and_wrong_length(code_7_2, gf8, grs_membership):
    zero = GrsCode(gf8, list(range(1, 8)), [3] * 7, 0)
    in_zero, in_code = grs_membership(zero), grs_membership(code_7_2)
    assert zero.encode([]) == (0,) * 7
    assert in_zero((0,) * 7)
    for i in range(7):
        w = [0] * 7
        w[i] = 5
        assert not in_zero(tuple(w))
    cw = code_7_2.encode([3, 4])
    assert not in_code(cw[:-1])
    assert not in_code(cw + (0,))
    assert not in_zero((0,) * 6)


# -- unique decoding: GS at the BMD radius t0 = floor((d - 1) / 2) = 2 ----------

def test_bmd_no_errors(code_7_3):
    cw = code_7_3.encode([1, 2, 3])
    assert code_7_3.gs_list_decode(cw, 2) == [cw]


def test_bmd_two_errors(code_7_3, gf8):
    rnd = random.Random(2)
    for _ in range(50):
        cw = code_7_3.encode([rnd.randrange(8) for _ in range(3)])
        w = corrupt(rnd, gf8, cw, rnd.sample(range(7), 2))
        assert code_7_3.gs_list_decode(w, 2) == [cw]


def test_bmd_three_errors_never_lies(code_7_3, gf8):
    # beyond the radius: an empty list or the one codeword within the
    # radius, verified against sphere enumeration of the full codebook
    book = [
        code_7_3.encode([a, b, c])
        for a in range(8) for b in range(8) for c in range(8)
    ]
    rnd = random.Random(3)
    for _ in range(100):
        cw = book[rnd.randrange(len(book))]
        w = corrupt(rnd, gf8, cw, rnd.sample(range(7), 3))
        res = code_7_3.gs_list_decode(w, 2)
        assert len(res) <= 1
        assert res == [c for c in book if hamming(c, w) <= 2]


# -- list decoding ---------------------------------------------------------------

def test_gs_radius_zero(code_7_2):
    cw = code_7_2.encode([1, 5])
    assert code_7_2.gs_list_decode(cw, 0) == [cw]
    w = list(cw)
    w[0] ^= 1
    assert code_7_2.gs_list_decode(tuple(w), 0) == []


def test_gs_matches_sphere_enumeration(code_7_2, book_7_2):
    rnd = random.Random(42)
    for _ in range(50):
        w = tuple(rnd.randrange(8) for _ in range(7))
        got = code_7_2.gs_list_decode(w, 3)
        expected = sorted(c for c in book_7_2 if hamming(c, w) <= 3)
        assert got == expected


def test_gs_containment_15_3(gf16):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 3)
    assert gs_max_radius(code.n, code.k) == 9
    rnd = random.Random(7)
    for _ in range(10):
        cw = code.encode([rnd.randrange(16) for _ in range(3)])
        w = corrupt(rnd, gf16, cw, rnd.sample(range(15), 7))
        assert cw in code.gs_list_decode(w, 9)


def test_gs_beyond_guarantee_raises(code_7_2):
    with pytest.raises(ValueError):
        code_7_2.gs_list_decode((0,) * 7, 5)


def test_gs_radius_below_zero_names_the_limit(code_7_2):
    with pytest.raises(ValueError, match=r"^t = -1 is below the limit 0$"):
        code_7_2.gs_list_decode((0,) * 7, -1)


def test_gs_agrees_with_bmd(code_7_3, gf8):
    # at t0 = floor((d - 1) / 2) the list is the t0-sphere of the full
    # 512-word codebook: uniform words and codewords hit by 1..3 errors
    book = sorted(
        code_7_3.encode([a, b, c]) for a in range(8) for b in range(8) for c in range(8)
    )
    t0 = (code_7_3.d - 1) // 2
    rnd = random.Random(8)
    for i in range(80):
        if i % 2:
            w = tuple(rnd.randrange(8) for _ in range(7))
        else:
            w = corrupt(rnd, gf8, rnd.choice(book), rnd.sample(range(7), 1 + i % 3))
        assert code_7_3.gs_list_decode(w, t0) == [c for c in book if hamming(c, w) <= t0]


def test_gs_nontrivial_multipliers(gf16):
    rnd = random.Random(9)
    code = GrsCode(gf16, list(range(1, 11)), [rnd.randrange(1, 16) for _ in range(10)], 3)
    cw = code.encode([1, 2, 3])
    w = corrupt(rnd, gf16, cw, rnd.sample(range(10), 5))
    assert cw in code.gs_list_decode(w, 5)


def test_gs_dimension_one_matches_sphere_enumeration(gf8):
    code = GrsCode(gf8, list(range(1, 8)), [3] * 7, 1)
    book = [code.encode([a]) for a in range(8)]
    rnd = random.Random(14)
    for _ in range(50):
        w = tuple(rnd.choice([0, 1, 3, code.encode([5])[0]]) for _ in range(7))
        for t in range(gs_max_radius(code.n, code.k) + 1):
            assert code.gs_list_decode(w, t) == sorted(c for c in book if hamming(c, w) <= t)


def test_gs_prime_field_matches_sphere_enumeration():
    for q, n, k, t in [(11, 10, 2, 6), (13, 12, 4, 5)]:
        field = Field(q)
        rnd = random.Random(q)
        code = GrsCode(field, list(range(n)), [rnd.randrange(1, q) for _ in range(n)], k)
        msgs = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64)
        book = linalg.matmul(msgs, code.generator, field)
        for trial in range(12):
            cw = book[rnd.randrange(len(book))]
            w = corrupt(rnd, field, cw.tolist(), rnd.sample(range(n), t - trial % 3))
            near = book[(book != np.array(w)).sum(axis=1) <= t]
            assert code.gs_list_decode(w, t) == sorted(map(tuple, near.tolist()))


# -- Koetter interpolation against the dense interpolation system -----------------

def dense_system(code, ys, t, s, ly):
    """Every multiplicity constraint as one row over the monomials x^dx y^dy
    of weighted degree <= wdeg, and the (dy, dx) of each column."""
    F = code.field
    wdeg = s * (code.n - t) - 1
    cols = [(dy, dx) for dy in range(ly + 1) for dx in range(wdeg - dy * (code.k - 1) + 1)]
    rows = [
        [
            F.mul(
                math.comb(dx, a) * math.comb(dy, b) % F.p,
                F.mul(F.pow(x0, dx - a), F.pow(y0, dy - b)),
            )
            if dx >= a and dy >= b
            else 0
            for dy, dx in cols
        ]
        for x0, y0 in zip(code.locators, ys)
        for a in range(s)
        for b in range(s - a)
    ]
    return np.array(rows, dtype=np.int64), cols


def q_array(q_coeffs):
    """Q as coefficient lists, one per power of y, zero-padded into the
    (ly + 1, width) array that _rr_roots takes."""
    q = np.zeros((len(q_coeffs), max(map(len, q_coeffs))), dtype=np.int64)
    for dy, p in enumerate(q_coeffs):
        q[dy, : len(p)] = p
    return q


def dense_list(code, word, t):
    """The GS list from a null vector of the dense system."""
    s, ly = gs_parameters(code.n, code.k, t)
    m, cols = dense_system(code, code._normalize(word), t, s, ly)
    sol = linalg.right_nullspace(m, code.field)[0]
    q_coeffs = [[0] * sum(1 for c in cols if c[0] == dy) for dy in range(ly + 1)]
    for (dy, dx), v in zip(cols, sol):
        q_coeffs[dy][dx] = int(v)
    words = (code.encode(f) for f in _rr_roots(q_array(q_coeffs), code.k, code.field))
    return sorted({c for c in words if hamming(c, word) <= t})


def seeded_words(code, t, count, seed):
    """Codewords hit by t - 1, t and t + 1 errors, and uniform words."""
    F, n = code.field, code.n
    rnd = random.Random(seed)
    for i in range(count):
        if i % 4 == 3:
            yield tuple(rnd.randrange(F.q) for _ in range(n))
        else:
            cw = code.encode([rnd.randrange(F.q) for _ in range(code.k)])
            yield corrupt(rnd, F, cw, rnd.sample(range(n), max(0, min(n, t - 1 + i % 4))))


KOETTER_CASES = [  # (q, n, k, t): s = 1, 4, 3, 2, 2, 2, 2
    (16, 15, 3, 5),
    (16, 15, 3, 9),
    (32, 21, 8, 8),
    (64, 42, 8, 22),
    (64, 63, 16, 29),
    (13, 12, 4, 5),
    (11, 10, 2, 6),
]


def reencode_oracle(code, ys, R=None):
    """(f_R, ys - f_R(alpha)): f_R of degree < k through the values on the
    positions R (default: the first k), by a Vandermonde solve and scalar
    Horner."""
    F, k = code.field, code.k
    R = list(range(k)) if R is None else list(R)
    vander = np.array([[F.pow(code.locators[i], j) for j in range(k)] for i in R])
    f_r = linalg.solve(vander, np.asarray(ys)[R][:, None], F)[:, 0].tolist()
    return f_r, np.array([F.sub(y, horner(F, f_r, a)) for a, y in zip(code.locators, ys)])


def reencode(code, word, plan):
    """(f_R, word - c_R): the re-encoding on the plan's R that
    gs_list_decode hands to _gs_interpolate."""
    word = np.asarray(word, dtype=np.int64)
    f_r, c_r = agree_on(code, word, plan.inside)
    return f_r, sub(word, c_r, code.field)


@pytest.mark.parametrize("q, n, k, t", KOETTER_CASES)
def test_koetter_q_is_annihilated_by_dense_system(q, n, k, t):
    # Q interpolates the re-encoded word at all n points, the first k
    # (where it is 0) included
    field = Field(q)
    code = GrsCode(field, list(range(1, n + 1)), [1] * n, k)
    s, ly = gs_parameters(code.n, code.k, t)
    wdeg = s * (n - t) - 1
    plan = code._gs_plan(t)
    for word in seeded_words(code, t, 4, seed=n + t):
        f_r, ys = reencode_oracle(code, code._normalize(word))
        got_f_r, residual = reencode(code, word, plan)
        q = code._gs_interpolate(plan, residual)
        assert got_f_r.tolist() == f_r
        assert not ys[:k].any()
        # row dy holds x^0 .. x^(wdeg - dy (k-1)), zero past it
        assert q.shape == (ly + 1, wdeg + 1) and q.dtype == np.int64
        assert not any(q[dy, wdeg - dy * (k - 1) + 1 :].any() for dy in range(ly + 1))
        m, cols = dense_system(code, ys, t, s, ly)
        vec = np.array([q[dy, dx] for dy, dx in cols], dtype=np.int64)
        assert vec.any()
        assert not linalg.matmul(m, vec[:, None], field).any()


@pytest.mark.parametrize("q, n, k, t", KOETTER_CASES)
def test_gs_lists_match_dense_nullspace(q, n, k, t):
    field = Field(q)
    rnd = random.Random(q + n)
    code = GrsCode(field, list(range(1, n + 1)), [rnd.randrange(1, q) for _ in range(n)], k)
    for word in seeded_words(code, t, 8, seed=q * n + t):
        assert code.gs_list_decode(word, t) == dense_list(code, word, t)


def undersized_plan(code, monkeypatch):
    """The plan at t = 9 of the [15, 3] code built with s = 1, ly = 2 in
    place of the derived pair: s = 1 at t = 9 leaves 12 unknowns for 15
    constraints, so a word far from the code has no interpolant of
    weighted degree <= 5, and Koetter's invariant check fires."""
    monkeypatch.setattr(grs, "gs_parameters", lambda n, k, t: (1, 2))
    return code._gs_plan(9)


def test_koetter_error_names_values(gf16, monkeypatch):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 3)
    plan = undersized_plan(code, monkeypatch)
    rnd = random.Random(5)
    w = tuple(rnd.randrange(16) for _ in range(15))
    with pytest.raises(
        RuntimeError,
        match=r"GRS \[n = 15, k = 3\] at radius t = 9, multiplicity s = 1: "
        r"Koetter interpolation reached weighted degree \d+ > wdeg = 5",
    ):
        code._gs_interpolate(plan, reencode(code, w, plan)[1])


def test_koetter_error_names_plan_size_and_cost(gf16, monkeypatch):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 3)
    plan = undersized_plan(code, monkeypatch)
    rnd = random.Random(5)
    w = tuple(rnd.randrange(16) for _ in range(15))
    with pytest.raises(
        RuntimeError,
        match=r"wdeg = 5 \(GS plan: 91 re-encoding sets, covers t = 9; s = 1, ly = 2, "
        r"M = 12 unknowns, C = 12 constraints on 12 of 15 points, 432 cell-ops\)",
    ):
        code._gs_interpolate(plan, reencode(code, w, plan)[1])


# -- Koetter on the plan against the per-constraint interpolation -----------------

def koetter_reference(code, ys, t, s, ly, reencoded, R=None):
    """Koetter's interpolation on the dy-major monomial columns, with every
    discrepancy recomputed over all columns per constraint and every row
    operation over all columns.

    Without re-encoding it starts from the rows y^j and runs over all n
    points.  With it, ys must be 0 on the positions R (default: the first
    k): it starts from v^((s-j)+) y^j, v the product of x - alpha over R,
    each by scalar products, and runs over the other n - k points in code
    order."""
    F = code.field
    n, k = code.n, code.k
    wdeg = s * (n - t) - 1
    lens = wdeg + 1 - np.arange(ly + 1) * (k - 1)
    col_dy = np.repeat(np.arange(ly + 1), lens)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    col_dx = np.arange(col_dy.size) - starts[col_dy]
    block_start = col_dx == 0
    polys = np.zeros((ly + 1, col_dy.size), dtype=np.int64)
    R = (range(k) if R is None else R) if reencoded else ()
    points = [i for i in range(n) if i not in R]
    v = [1]
    for i in R:
        v = poly_mul_y(F, [v], [[F.neg(code.locators[i]), 1]])[0]
    wdegs = []
    for j in range(ly + 1):
        e = max(s - j, 0) if reencoded else 0
        wdegs.append(e * k + j * (k - 1))
        if wdegs[j] <= wdeg:
            start = [1]
            for _ in range(e):
                start = poly_mul_y(F, [start], [v])[0]
            polys[j, starts[j] : starts[j] + len(start)] = start
    bs, as_ = np.array([(b, a) for b in range(s) for a in range(s - b)]).T
    xbin = np.array([[math.comb(d, a) % F.p for d in range(wdeg + 1)] for a in range(s)])
    ybin = np.array([[math.comb(d, b) % F.p for d in range(ly + 1)] for b in range(s)])
    xshift = np.maximum(np.arange(wdeg + 1) - np.arange(s)[:, None], 0)
    yshift = np.maximum(np.arange(ly + 1) - np.arange(s)[:, None], 0)
    xpows = powers(np.array(code.locators), wdeg + 1, F).T
    ypows = powers(np.asarray(ys), ly + 1, F).T
    for i in points:
        x0, xpow, ypow = code.locators[i], xpows[i], ypows[i]
        xrows = _vec_mul(xbin, xpow[xshift], F)
        yrows = _vec_mul(ybin, ypow[yshift], F)
        hasse = _vec_mul(yrows[bs][:, col_dy], xrows[as_][:, col_dx], F)
        for row in hasse:
            disc = add_reduce(_vec_mul(polys, row, F), 1, F).tolist()
            hit = [j for j, v in enumerate(disc) if v and wdegs[j] <= wdeg]
            if not hit:
                continue
            piv = min(hit, key=wdegs.__getitem__)
            rest = [j for j in hit if j != piv]
            p = polys[piv]
            if rest:
                coef = _vec_mul(np.array([disc[j] for j in rest]), F.inv(disc[piv]), F)
                polys[rest] = sub(polys[rest], _vec_mul(coef[:, None], p, F), F)
            shifted = np.concatenate(([0], p[:-1]))
            shifted[block_start] = 0
            polys[piv] = sub(shifted, _vec_mul(p, x0, F), F)
            wdegs[piv] += 1
    best = min(range(ly + 1), key=wdegs.__getitem__)
    assert wdegs[best] <= wdeg
    return [blk.tolist() for blk in np.split(polys[best], starts[1:])]


# (q, n, k, t, first locator, words): s = 6, 1, 3, 1, 3, 1, 6, 2 past
# KOETTER_CASES; the last two codes have the locator 0
DIFFERENTIAL_CASES = [(q, n, k, t, 1, 4) for q, n, k, t in KOETTER_CASES] + [
    (64, 42, 8, 24, 1, 3),
    (64, 42, 8, 20, 1, 6),
    (64, 21, 8, 8, 1, 6),
    (16, 10, 3, 4, 1, 6),
    (16, 10, 3, 5, 1, 6),
    (16, 5, 3, 1, 1, 6),
    (16, 16, 3, 10, 0, 4),
    (13, 13, 3, 7, 0, 4),
]


# (q, locators, k, t): k = n and k = n - 1 (t = 0), the locator 0 last, so
# past the first k positions, in GF(16) and GF(13), and a shuffled GF(11)
# code with 0 among the first k
REENCODING_EDGE_CASES = [
    (16, tuple(range(1, 7)), 6, 0),
    (16, tuple(range(1, 8)), 6, 0),
    (16, tuple(range(1, 10)) + (0,), 3, 4),
    (11, (5, 2, 9, 0, 1, 3, 4, 6, 7, 8, 10), 4, 5),
    (13, tuple(range(1, 13)) + (0,), 4, 6),
]


# the DIFFERENTIAL_CASES codes, then the REENCODING_EDGE_CASES codes with the
# locator 0
KOETTER_REFERENCE_CASES = [
    pytest.param(
        q, tuple(range(first, first + n)), k, t, count, id=f"{q}-{n}-{k}-{t}-{first}-{count}"
    )
    for q, n, k, t, first, count in DIFFERENTIAL_CASES
] + [
    pytest.param(q, loc, k, t, 6, id=f"{q}-{loc[0]}..{loc[-1]}-{k}-{t}")
    for q, loc, k, t in REENCODING_EDGE_CASES
    if 0 in loc
]


@pytest.mark.parametrize("q, locators, k, t, count", KOETTER_REFERENCE_CASES)
def test_koetter_matches_per_constraint_reference(q, locators, k, t, count):
    # R is the first k positions, except that a locator 0 past them is
    # moved in, in place of the k-th: no point outside R has x0 = 0
    field = Field(q)
    n = len(locators)
    code = GrsCode(field, locators, [1] * n, k)
    s, ly = gs_parameters(code.n, code.k, t)
    R = list(range(k))
    if 0 in locators and locators.index(0) >= k:
        R[-1] = locators.index(0)
    plan = code._gs_plan(t)
    assert sorted(plan.inside.tolist()) == sorted(R)
    for word in seeded_words(code, t, count, seed=n + t):
        f_r, ys = reencode_oracle(code, code._normalize(word), R)
        got_f_r, residual = reencode(code, word, plan)
        q = code._gs_interpolate(plan, residual)
        assert got_f_r.tolist() == f_r
        want = q_array(koetter_reference(code, ys, t, s, ly, reencoded=True, R=R))
        assert q.shape == want.shape and np.array_equal(q, want)


def unreencoded_list(code, word, t):
    """The GS list without re-encoding: the reference Koetter interpolation
    over all n points from the rows y^j, root finding and the distance
    filter."""
    s, ly = gs_parameters(code.n, code.k, t)
    q_coeffs = koetter_reference(code, code._normalize(word), t, s, ly, reencoded=False)
    words = (code.encode(f) for f in _rr_roots(q_array(q_coeffs), code.k, code.field))
    return sorted({c for c in words if hamming(c, word) <= t})


LIST_CASES = [
    (q, tuple(range(first, first + n)), k, t, count)
    for q, n, k, t, first, count in DIFFERENTIAL_CASES
] + [case + (6,) for case in REENCODING_EDGE_CASES]


@pytest.mark.parametrize(
    "q, locators, k, t, count",
    LIST_CASES,
    ids=[f"{q}-{loc[0]}..{loc[-1]}-{k}-{t}" for q, loc, k, t, _ in LIST_CASES],
)
def test_gs_lists_match_unreencoded_reference(q, locators, k, t, count):
    field = Field(q)
    n = len(locators)
    rnd = random.Random(q * n + k)
    code = GrsCode(field, locators, [rnd.randrange(1, q) for _ in range(n)], k)
    for word in seeded_words(code, t, count, seed=q + n + t):
        assert code.gs_list_decode(word, t) == unreencoded_list(code, word, t)


def test_gs_plan_reports_size_and_cost():
    code = GrsCode(Field(64), list(range(1, 43)), [1] * 42, 8)
    plan = code._gs_plan(24)
    assert (plan.t, plan.s, plan.ly, plan.unknowns, plan.constraints) == (24, 6, 15, 888, 714)
    assert plan.points == 34
    assert plan.cell_ops == 10_144_512
    assert plan.describe() == (
        "GS plan: 2 re-encoding sets, does not cover t = 24, 46 settle-only sets; s = 6, "
        "ly = 15, M = 888 unknowns, C = 714 constraints on 34 of 42 points, 10144512 cell-ops"
    )
    # the size and cost are worked out when the plan is built, Koetter's
    # arrays on its first interpolation
    assert "koetter" not in vars(plan)
    # every plan describes itself, k <= 1 ones too, with its family's size
    # and whether it covers t
    assert GrsCode(Field(16), range(1, 11), [1] * 10, 3)._gs_plan(4).describe() == (
        "GS plan: 20 re-encoding sets, covers t = 4; s = 1, ly = 2, M = 12 unknowns, "
        "C = 7 constraints on 7 of 10 points, 252 cell-ops"
    )
    assert GrsCode(Field(16), range(1, 8), [1] * 7, 1)._gs_plan(2).describe() == (
        "GS plan: 3 re-encoding sets, covers t = 2, no interpolation below k = 2"
    )


def test_gs_plan_is_built_once_per_radius_and_read_only(gf16, monkeypatch):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 3)
    word_a, word_b = seeded_words(code, 5, 2, seed=11)
    code.gs_list_decode(word_a, 5)
    plan = code._gs_plan(5)
    decoded = code.gs_list_decode(word_b, 5)
    assert code._gs_plan(5) is plan
    assert decoded == GrsCode(gf16, list(range(1, 16)), [1] * 15, 3).gs_list_decode(word_b, 5)
    code.gs_list_decode(word_a, 9)
    # the pair (s, ly) is derived when the plan is built: a patched
    # gs_parameters moves no kept plan, and a new code's plan at t = 5
    # takes the pair (2, 9) in place of the derived (1, 4) and interpolates
    monkeypatch.setattr(grs, "gs_parameters", lambda n, k, t: (2, 9))
    assert code._gs_plan(5) is plan and (plan.t, plan.s, plan.ly) == (5, 1, 4)
    other = GrsCode(gf16, list(range(1, 16)), [1] * 15, 3)
    wide = other._gs_plan(5)
    assert (wide.t, wide.s, wide.ly) == (5, 2, 9)
    assert other._gs_interpolate(wide, reencode(other, word_b, wide)[1]).shape == (10, 20)
    assert sorted(code._gs_plans) == [5, 9]
    for plan in [*code._gs_plans.values(), wide]:
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        tables = [v for v in vars(plan.koetter).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 6 and len(tables) >= 10
        assert not any(a.flags.writeable for a in arrays + tables)


def test_gs_parameters_run_once_per_radius(gf16, monkeypatch):
    # the plan derives (s, ly) when it is built, and the code keeps it by t
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 3)
    words = list(seeded_words(code, 5, 8, seed=3))
    calls = []
    derive = grs.gs_parameters
    monkeypatch.setattr(grs, "gs_parameters", lambda *args: calls.append(args) or derive(*args))
    code.gs_list_decode(words[0], 5)
    assert calls
    calls.clear()
    for word in words:
        code.gs_list_decode(word, 5)
    assert calls == []
    code.gs_list_decode(words[0], 4)
    code.gs_list_decode(words[1], 4)
    assert calls == [(15, 3, 4)]  # the patch does count the derivations


# -- the re-encoding certificate: e + t < d settles the list -----------------------

# (q, locators, k): codes over GF(8) and GF(16), and one over GF(13) whose
# locator 0 comes last, so the plan moves it into R
CERTIFICATE_CODES = [
    (8, tuple(range(1, 8)), 3),
    (16, tuple(range(1, 11)), 3),
    (13, tuple(range(1, 13)) + (0,), 3),
]


def certificate_code(q, locators, k):
    """The code, with seeded multipliers, and its whole codebook."""
    field = Field(q)
    rnd = random.Random(q * len(locators))
    code = GrsCode(field, locators, [rnd.randrange(1, q) for _ in locators], k)
    msgs = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64)
    return code, linalg.matmul(msgs, code.generator, field)


def sphere(book, word, t):
    return sorted(map(tuple, book[(book != np.array(word)).sum(axis=1) <= t].tolist()))


def complement(code, positions):
    return [i for i in range(code.n) if i not in positions]


def settles(code, word, t):
    """Whether some member R' of the plan's family has e' + t < d, e' the
    distance from the word to c_R'."""
    return any(
        hamming(agree_on(code, word, member)[1].tolist(), word) + t < code.d
        for member in code._gs_plan(t).family
    )


class Interpolated(Exception):
    pass


def refuse_interpolation(*args):
    raise Interpolated


@pytest.mark.parametrize("q, locators, k", CERTIFICATE_CODES)
def test_gs_certificate_matches_sphere_enumeration(q, locators, k, monkeypatch):
    # every radius, every error weight 0..t, with the errors all outside R,
    # all inside R (as many as fit) and split between the two, and all
    # outside each other member R' of the family; errors off a member with
    # w + t < d are settled by it, without interpolation
    code, book = certificate_code(q, locators, k)
    rnd = random.Random(q + k)
    settled = decodes = 0
    for t in range(gs_max_radius(code.n, code.k) + 1):
        family = code._gs_plan(t).family
        inside, outside = list(family[0]), complement(code, family[0])
        for w in range(t + 1):
            placements = [
                rnd.sample(inside, a) + rnd.sample(outside, w - a)
                for a in sorted({0, min(w, k), min(w // 2, k)})
            ] + [rnd.sample(complement(code, member), w) for member in family[1:]]
            for pos in placements:
                cw = book[rnd.randrange(len(book))].tolist()
                word = corrupt(rnd, code.field, cw, pos)
                settled += settles(code, word, t)
                decodes += 1
                want = sphere(book, word, t)
                assert code.gs_list_decode(word, t) == want
                if w + t < code.d and any(not set(pos) & set(m) for m in family):
                    with monkeypatch.context() as patch:
                        patch.setattr(GrsCode, "_gs_interpolate", refuse_interpolation)
                        assert code.gs_list_decode(word, t) == want
    assert 0 < settled < decodes


def boundary_word(rnd, code, cw, t):
    """cw hit by d - t errors outside R, among them one in every other
    member R' of the family, drawn until no member has e' + t < d.  Only
    for a plan that does not cover t: d - t errors cannot meet every member
    of a cover when d - t <= t, so the draws are capped."""
    family = code._gs_plan(t).family
    outside = complement(code, family[0])
    for _ in range(1000):
        pos = rnd.sample(outside, code.d - t)
        word = corrupt(rnd, code.field, cw, pos)
        if all(set(pos) & set(m) for m in family[1:]) and not settles(code, word, t):
            return word
    raise AssertionError(f"no boundary word for {code} at t = {t} in 1000 draws")


@pytest.mark.parametrize("q, locators, k", CERTIFICATE_CODES)
def test_gs_certificate_boundary(q, locators, k, monkeypatch):
    # errors outside R only, so c_R is the sent codeword at distance e:
    # e + t = d - 1 is settled without interpolation, to [c] if e <= t and
    # to [] if not.  At e + t = d no member need settle: where the plan
    # covers t its list is the members' codewords within t, without
    # interpolation, and elsewhere the errors also hit every other member,
    # so no member settles and the word is interpolated.  Every radius of
    # these codes takes a cover; with the equal-parts family refused
    # (COVER_MAX_CELLS = 0), only t = 1 and the t with (t + 1) k <= n do
    interpolate = GrsCode._gs_interpolate
    for cells in (grs.COVER_MAX_CELLS, 0):
        monkeypatch.setattr(grs, "COVER_MAX_CELLS", cells)
        monkeypatch.setattr(GrsCode, "_gs_interpolate", interpolate)
        code, book = certificate_code(q, locators, k)
        rnd = random.Random(q)
        outcomes = set()
        covered = set()
        reach = gs_max_radius(code.n, code.k)
        for t in range(1, reach + 1):
            plan = code._gs_plan(t)
            outside = complement(code, plan.family[0])
            cw = book[rnd.randrange(len(book))].tolist()
            for e in (code.d - 1 - t, code.d - t):
                if e + t < code.d or plan.covers:
                    word = corrupt(rnd, code.field, cw, rnd.sample(outside, e))
                else:
                    word = boundary_word(rnd, code, cw, t)
                want = sphere(book, word, t)
                monkeypatch.setattr(GrsCode, "_gs_interpolate", refuse_interpolation)
                if e + t < code.d:
                    assert code.gs_list_decode(word, t) == want == ([tuple(cw)] if e <= t else [])
                    outcomes.add(len(want))
                elif plan.covers:
                    assert code.gs_list_decode(word, t) == want
                    covered.add(t)
                else:
                    with pytest.raises(Interpolated):
                        code.gs_list_decode(word, t)
                    monkeypatch.setattr(GrsCode, "_gs_interpolate", interpolate)
                    assert code.gs_list_decode(word, t) == want
        assert outcomes == {0, 1}
        blocks = {t for t in range(1, reach + 1) if t == 1 or (t + 1) * k <= code.n}
        assert covered == (set(range(1, reach + 1)) if cells else blocks)


def covers(code, family, t):
    """Whether every set of at most t positions misses some member, by
    enumerating the t-sets (a subset of one that misses a member misses it
    too)."""
    return all(
        any(not set(ts) & set(m) for m in family)
        for ts in itertools.combinations(range(code.n), min(t, code.n))
    )


# (q, locators, k, the block family covers t = 1): the certificate codes,
# [5,3] codes, k = n and k = n - 1 ([3,2] members share no position, so
# they cover t = 1 although 2t >= d), and [7,5] codes, whose members share
# a position
FAMILY_CODES = [code + (True,) for code in CERTIFICATE_CODES] + [
    (16, tuple(range(1, 6)), 3, True),
    (16, tuple(range(5)), 3, True),
    (8, tuple(range(1, 7)), 6, False),
    (8, tuple(range(1, 7)), 5, False),
    (8, (1, 2, 3), 2, True),
    (8, tuple(range(1, 8)), 5, False),
    (8, tuple(range(1, 7)) + (0,), 5, False),
]


def equal_parts(order, k, t):
    """All k-subsets of each of the p near-equal parts of order (larger
    parts first), for the largest p whose parts hold at most
    sum min(n_i, k - 1) < n - t positions of an (n - t)-set that has
    fewer than k in every part."""
    n = len(order)
    for p in range(n, 0, -1):
        sizes = [n // p + (i < n % p) for i in range(p)]
        if sum(min(size, k - 1) for size in sizes) < n - t:
            break
    bounds = np.cumsum([0] + sizes)
    return tuple(
        tuple(sorted(m))
        for a, b in zip(bounds, bounds[1:])
        for m in itertools.combinations(order[a:b], k)
    )


@pytest.mark.parametrize("q, locators, k, covers_1", FAMILY_CODES)
def test_gs_family_shape_and_closure_rule(q, locators, k, covers_1):
    # R first, then t + 1 disjoint k-sets along the plan's order when
    # (t + 1) k <= n; else, at t = 1, the at most two distinct complements
    # of a block of n - k consecutive positions, when no position is common
    # to the three; else the equal-parts family, small enough on every code
    # here.  Every plan covers, and covers agrees with enumerating the t-sets
    code = GrsCode(Field(q), locators, [1] * len(locators), k)
    n = code.n
    order = np.concatenate((code._gs_plan(0).inside, code._gs_plan(0).outside)).tolist()
    for t in range(gs_max_radius(code.n, code.k) + 1):
        plan = code._gs_plan(t)
        family = plan.family
        assert family[0] == tuple(sorted(plan.inside.tolist()))
        if (t + 1) * k <= n:
            assert family == tuple(tuple(sorted(order[i * k : (i + 1) * k])) for i in range(t + 1))
        elif t == 1 and covers_1:
            assert len(set(family)) == len(family) <= 3
            for member in family[1:]:
                block = complement(code, member)
                assert list(member) == sorted(member) and len(member) == k
                assert block == list(range(block[0], block[0] + n - k))
        else:
            assert family == equal_parts(order, k, t)
            assert len(family) * k * n <= grs.COVER_MAX_CELLS
        assert plan.covers == covers(code, family, t)
        assert plan.covers


@pytest.mark.parametrize("q, locators, k, closed", FAMILY_CODES)
def test_gs_closure_matches_sphere_without_interpolation(q, locators, k, closed, monkeypatch):
    # wherever the family closes (t = 0, and t = 1 when 2 < d and the
    # members share no position), the certificate and the closure settle
    # every word: codewords hit by at most t errors, and uniform words, most
    # of them with no codeword within t; at t = 1 some words are settled by
    # no member, so the closure returns their empty list
    code, book = certificate_code(q, locators, k)
    monkeypatch.setattr(GrsCode, "_gs_interpolate", refuse_interpolation)
    rnd = random.Random(q * k)
    for t in (0, 1) if closed else (0,):
        unsettled = 0
        for i in range(60):
            if i % 2:
                word = tuple(rnd.randrange(q) for _ in range(code.n))
            else:
                cw = book[rnd.randrange(len(book))].tolist()
                word = corrupt(rnd, code.field, cw, rnd.sample(range(code.n), i // 2 % (t + 1)))
            unsettled += not settles(code, word, t)
            assert code.gs_list_decode(word, t) == sphere(book, word, t)
        assert (unsettled > 0) == (t == 1)


def test_gs_family_covers_exactly_where_enumeration_does():
    # every code over GF(8) with n <= 7 locators (with locator 0 absent,
    # and last, so the plan moves it into R), every k in 0..n and every
    # reachable t: the members are distinct sorted k-sets, R first for
    # k >= 1, and covers agrees with enumerating the t-sets
    for n in range(1, 8):
        for locators in (tuple(range(1, n + 1)), tuple(range(1, n)) + (0,)):
            for k in range(n + 1):
                code = GrsCode(Field(8), locators, [1] * n, k)
                for t in range(gs_max_radius(n, k) + 1):
                    plan = code._gs_plan(t)
                    family = plan.family
                    assert len(set(family)) == len(family)
                    for member in family:
                        assert list(member) == sorted(set(member)) and len(member) == k
                        assert set(member) <= set(range(n))
                    if k:
                        assert family[0] == tuple(sorted(plan.inside.tolist()))
                    assert plan.covers == covers(code, family, t)


def test_gs_equal_parts_cover_exactly_where_enumeration_does():
    # every code over GF(16) with n <= 12 locators (with locator 0 absent,
    # and last, so the plan moves it into R), every k >= 2 and every
    # reachable t with (t + 1) k > n: a plan takes exactly the equal-parts
    # family of its order, R first, which covers t by enumeration, or the
    # block family, which covers t exactly where enumeration says so, and
    # only where the equal-parts family would cost more than the bound
    taken = set()
    for n in range(3, 13):
        for locators in (tuple(range(1, n + 1)), tuple(range(1, n)) + (0,)):
            for k in range(2, n):
                code = GrsCode(Field(16), locators, [1] * n, k)
                start = code._gs_plan(0)
                order = np.concatenate((start.inside, start.outside)).tolist()
                for t in range(gs_max_radius(n, k) + 1):
                    plan, parts = code._gs_plan(t), equal_parts(order, k, t)
                    if (t + 1) * k <= n:
                        continue
                    assert plan.covers == covers(code, plan.family, t)
                    if plan.family == parts:
                        taken.add((n, k, t))
                        assert plan.covers and len(parts) * k * n <= grs.COVER_MAX_CELLS
                        assert parts[0] == tuple(sorted(plan.inside.tolist()))
                    else:
                        assert len(plan.family) <= 3
                        assert plan.covers or len(parts) * k * n > grs.COVER_MAX_CELLS
    assert {(10, 3, 4), (10, 3, 5), (12, 4, 5), (9, 3, 3), (12, 2, 8)} <= taken
    assert len(taken) > 40


def interpolated_list(code, word, t):
    """The GS list by interpolation alone: Koetter on the plan's R, the
    Roth-Ruckenstein roots, the map back f' + f_R and the distance filter."""
    plan = code._gs_plan(t)
    f_r, residual = reencode(code, word, plan)
    roots = _rr_roots(code._gs_interpolate(plan, residual), code.k, code.field)
    words = (code.encode(add(f, f_r, code.field).tolist()) for f in roots)
    return sorted({c for c in words if hamming(c, word) <= t})


def planted_pair(rnd, code, t):
    """A word within t of two codewords c and c + z, z of weight d: the
    codeword that is 0 on k - 1 positions and 1 on one more; the word takes
    z's values on t of its d positions."""
    c = np.array(code.encode([rnd.randrange(code.field.q) for _ in range(code.k)]))
    unit = np.zeros(code.n, dtype=np.int64)
    at = rnd.sample(range(code.n), code.k)
    unit[at[-1]] = 1
    z = agree_on(code, unit, at)[1]
    assert np.count_nonzero(z) == code.d
    word = c.copy()
    hit = rnd.sample(np.flatnonzero(z).tolist(), t)
    word[hit] = add(word[hit], z[hit], code.field)
    pair = {tuple(c.tolist()), tuple(add(c, z, code.field).tolist())}
    return tuple(word.tolist()), sorted(pair)


@pytest.mark.parametrize(
    "n, k, t, members",
    [(10, 3, 4, 20), (10, 3, 5, 20), (12, 4, 5, 30), (14, 5, 5, 42)],
    ids=["10-3-4", "10-3-5", "12-4-5", "14-5-5"],
)
def test_gs_equal_parts_lists_match_interpolation(n, k, t, members, monkeypatch):
    # the shapes that take an equal-parts cover in the benchmark and in
    # Tier-1's Table-2 decodes: with interpolation refused, gs_list_decode
    # equals the interpolation path on seeded words (codewords hit by t - 1,
    # t and t + 1 errors, uniform words) and on planted pairs, whose list
    # holds both codewords
    field = Field(16)
    rnd = random.Random(n * k + t)
    code = GrsCode(field, list(range(1, n + 1)), [rnd.randrange(1, 16) for _ in range(n)], k)
    plan = code._gs_plan(t)
    assert plan.covers and len(plan.family) == members
    assert plan.family[0] == tuple(sorted(plan.inside.tolist()))
    words = list(seeded_words(code, t, 24, seed=n + t))
    pairs = [planted_pair(rnd, code, t) for _ in range(6)]
    want = [interpolated_list(code, w, t) for w in words + [w for w, _ in pairs]]
    monkeypatch.setattr(GrsCode, "_gs_interpolate", refuse_interpolation)
    assert [code.gs_list_decode(w, t) for w in words + [w for w, _ in pairs]] == want
    assert all(set(pair) <= set(got) for (_, pair), got in zip(pairs, want[len(words) :]))
    assert any(len(got) == 1 for got in want) and any(not got for got in want)


# -- settle-only members: the plans that do not cover t ------------------------------

def settle_code(name):
    """GRS codes whose plans do not cover their radius: the local [21,8]
    code and the [42,8] code shortened at repair set 0 of the
    (63,16,8,14) Tamo-Barg code over GF(64), which the lrc63_list
    benchmark decodes, and the [24,16] code shortened at repair set 0 of
    the (30,16,4,3) one over GF(31)."""
    q, n, k, r, rho = {"21-8": (64, 63, 16, 8, 14), "42-8": (64, 63, 16, 8, 14),
                       "24-16": (31, 30, 16, 4, 3)}[name]
    lrc = construct_tamo_barg(Field(q), n, k, r, rho)
    return lrc.local_groups[0][0] if name == "21-8" else lrc.supercode.shorten(lrc.repair_sets[0])


@pytest.mark.parametrize(
    "name, radii", [("21-8", [8]), ("42-8", range(16, 25)), ("24-16", range(2, 5))]
)
def test_gs_settle_block_lists_match_interpolation(name, radii):
    # with interpolation allowed, gs_list_decode equals the interpolation
    # path on codewords hit by 0 .. t + 1 errors and on planted pairs: a word
    # is settled by a member, often a settle-only one, or interpolated.  The
    # [24,16] code stops at t = 4: at t = 5 interpolation is out of reach
    code = settle_code(name)
    F, rnd = code.field, random.Random(code.n * code.k)
    paths, by_settle_only = {"settled": 0, "covered": 0, "interpolated": 0}, 0
    for t in radii:
        plan = code._gs_plan(t)
        assert not plan.covers and plan.settle_only > 0
        words = [
            corrupt(rnd, F, code.encode([rnd.randrange(F.q) for _ in range(code.k)]),
                    rnd.sample(range(code.n), w))
            for w in range(t + 2)
        ]
        pairs = [planted_pair(rnd, code, t) for _ in range(2)]
        for word in words + [w for w, _ in pairs]:
            settled = paths["settled"]
            got = code.gs_list_decode(word, t, paths)
            assert got == interpolated_list(code, word, t)
            by_settle_only += paths["settled"] > settled and not settles(code, word, t)
        # a planted pair is listed whole where both its codewords lie within t
        for word, pair in pairs:
            assert set(pair) <= set(code.gs_list_decode(word, t)) or code.d - t > t
    assert paths["settled"] and paths["interpolated"] and not paths["covered"]
    assert by_settle_only


@pytest.mark.parametrize("name, radii", [("21-8", [8]), ("42-8", [16, 20]), ("24-16", [2, 4])])
def test_staged_settle_matches_all_members(name, radii, monkeypatch):
    # _gs_near multiplies a plan that does not cover slice by slice and
    # drops a row after its first settling slice: on seeded words, as one
    # batch, every member up to that slice has the c_R' and distance of an
    # all-members product, the members past it are not multiplied (0 and
    # n), and the lists and paths equal those decoded from the all-members
    # product.  A codeword settles on member 0, in the first slice alone
    code = settle_code(name)
    F, rnd = code.field, random.Random(code.n + code.k)
    for t in radii:
        plan = code._gs_plan(t)
        assert not plan.covers and plan.stops[0] == len(plan.family) and len(plan.stops) > 2
        words = np.array([
            corrupt(rnd, F, code.encode([rnd.randrange(F.q) for _ in range(code.k)]),
                    rnd.sample(range(code.n), w))
            for w in range(t + 2) for _ in range(2)
        ] + [planted_pair(rnd, code, t)[0]])
        every = linalg.matmul(words[:, plan.members].swapaxes(0, 1), plan.projections, F)
        every_dists = (every != words).sum(axis=2)
        cands, dists = code._gs_near(words, t)
        seen = set()
        for i, word in enumerate(words):
            settles = every_dists[:, i] < code.d - t
            stop = next((s for s in plan.stops if settles[:s].any()), len(plan.members))
            seen.add("none" if not settles.any() else "first" if stop == plan.stops[0] else "later")
            assert np.array_equal(cands[:stop, i], every[:stop, i])
            assert np.array_equal(dists[:stop, i], every_dists[:stop, i])
            assert not cands[stop:, i].any() and (dists[stop:, i] == code.n).all()
            staged, full = dict.fromkeys(("settled", "covered", "interpolated"), 0), {}
            full.update(staged)
            got = code.gs_list_decode(word, t, staged, (cands[:, i], dists[:, i]))
            assert got == code.gs_list_decode(word, t, full, (every[:, i], every_dists[:, i]))
            assert staged == full and got == code.gs_list_decode(word, t)
        # words settled in the first slice, in a later one, and not at all
        assert seen == {"first", "later", "none"}
        cw, shapes = code.encode([rnd.randrange(F.q) for _ in range(code.k)]), []
        monkeypatch.setattr(grs, "matmul", lambda a, b, f: shapes.append(b.shape) or matmul(a, b, f))
        assert code.gs_list_decode(cw, t) == [cw]
        assert shapes == [(plan.stops[0], code.k, code.n)]
        # a batch of codewords, all settled in the first slice, gets that
        # slice's own arrays, and so does every batch at a covering plan,
        # which has one slice
        brnd = random.Random(code.n * t)
        batch = np.array([code.encode([brnd.randrange(F.q) for _ in range(code.k)])
                          for _ in range(3)])
        cover = code._gs_plan(code.n // code.k - 1)
        assert cover.covers and cover.stops == (len(cover.members),)
        for p in (plan, cover):
            shapes.clear()
            cands, dists = code._gs_near(batch, p.t)
            assert shapes == [(p.stops[0], code.k, code.n)]
            assert cands.shape == (p.stops[0], 3, code.n) and dists.shape == (p.stops[0], 3)
            assert np.array_equal(cands[0], batch) and not dists[0].any()
        monkeypatch.undo()


def test_gs_near_takes_one_product_per_slice_over_every_live_row(monkeypatch):
    # the rows of a slice are not split, however many cells the product
    # holds: 40 random words at t = 8 on the [21, 8] settle block, none of
    # them settled, go through every slice in one product each, and the
    # last slice holds 40 x 35 x 8 x 21 cells
    code = settle_code("21-8")
    plan, rng = code._gs_plan(8), np.random.default_rng(8)
    words = rng.integers(0, code.field.q, size=(40, code.n))
    shapes = []
    monkeypatch.setattr(grs, "matmul", lambda a, b, f: shapes.append(a.shape) or matmul(a, b, f))
    cands, dists = code._gs_near(words, 8)
    assert (dists >= code.d - 8).all()
    sizes = np.diff((0, *plan.stops)).tolist()
    assert shapes == [(size, len(words), code.k) for size in sizes] and sizes[-1] == 35


def test_gs_settle_block_decodes_past_the_interpolation_reach(monkeypatch):
    # the [24,16] code at t = 5 takes s = 76, 1.6e11 cell-ops: no word of it
    # can be interpolated.  A codeword hit by e <= 2 errors is the only
    # codeword within 5 (e + 5 < d = 9), listed without interpolation when
    # some member is error-free: for every error position and pair of
    # positions, every single error and more than three quarters of the
    # pairs are settled, where the family alone settles fewer than a third
    code = settle_code("24-16")
    assert code._gs_plan(5).cell_ops > 10**11
    monkeypatch.setattr(GrsCode, "_gs_interpolate", refuse_interpolation)
    rnd = random.Random(5)
    cw = code.encode([rnd.randrange(31) for _ in range(code.k)])
    for w in (0, 1, 2):
        settled = by_family = 0
        patterns = list(itertools.combinations(range(code.n), w))
        for pos in patterns:
            word = corrupt(rnd, code.field, cw, pos)
            by_family += settles(code, word, 5)
            try:
                assert code.gs_list_decode(word, 5) == [cw]
                settled += 1
            except Interpolated:
                pass
        assert settled == len(patterns) if w < 2 else 4 * settled > 3 * len(patterns)
        assert by_family == len(patterns) if w < 2 else 3 * by_family < len(patterns)


@pytest.mark.parametrize(
    "q, n, k", [(2, 2, 1), (2, 2, 2), (16, 15, 5), (64, 40, 9), (31, 30, 7), (3001, 60, 12)]
)
def test_stacked_projections_match_kept_inverses(q, n, k):
    # the closed form gives P_S = G_m[:, S]^-1 G_m, G_m the first m = |S|
    # rows of G, equal to the Gauss-Jordan inverse times G_m, for seeded S
    # of every size m <= k (50 of size k), on codes with locator 0 and
    # seeded multipliers; the stack is read-only.  The code shortened at S
    # has the multipliers nu v_S(alpha) off S that re-encoding nu x^m on S
    # by that inverse gives (v_S = x^m - f_S)
    field, rnd = Field(q), random.Random(q * n)
    locators = [0] + rnd.sample(range(1, q), n - 1)
    rnd.shuffle(locators)
    code = GrsCode(field, locators, [rnd.randrange(1, q) for _ in range(n)], k)
    alpha, nu = np.array(code.locators), np.array(code.multipliers)
    for m in range(k + 1):
        sets = [sorted(rnd.sample(range(n), m)) for _ in range(50 if m == k else 6)]
        got = code._projections(np.array(sets, dtype=np.int64).reshape(len(sets), m))
        assert got.shape == (len(sets), m, n) and not got.flags.writeable
        gen = code.generator[:m]
        xm = _vec_mul(nu, powers(alpha, m + 1, field)[m], field)
        for pos, proj in zip(sets, got):
            want = linalg.matmul(gauss_jordan_inverse(code, pos), gen, field)
            assert np.array_equal(proj, want), (m, pos)
            assert np.array_equal(proj[:, pos], np.eye(m, dtype=np.int64))
            v_s = sub(xm, linalg.matmul(xm[pos][None], want, field)[0], field)
            short, rest = code.shorten(pos), [i for i in range(n) if i not in pos]
            assert short.multipliers == tuple(v_s[rest].tolist()), (m, pos)
            assert short.locators == tuple(alpha[rest].tolist()) and short.k == k - m


def test_settle_block_is_built_once_per_code(monkeypatch):
    # every plan of the [42,8] code that does not cover shares one settle
    # block, members and projections, built by one _projections call,
    # read-only; a covering plan builds its own
    code = settle_code("42-8")
    calls = []
    project = GrsCode._projections
    monkeypatch.setattr(GrsCode, "_projections", lambda *a: calls.append(a) or project(*a))
    plans = [code._gs_plan(t) for t in range(16, 25)]
    assert len(calls) == 1
    assert all(p.members is plans[0].members and p.projections is plans[0].projections
               for p in plans)
    assert not plans[0].members.flags.writeable and not plans[0].projections.flags.writeable
    assert code._gs_plan(3).covers and len(calls) == 2


def test_gs_settle_members_follow_the_family():
    # every code over GF(16) with n <= 12 locators (locator 0 absent, and
    # last) and k >= 2, every reachable t, and the settle codes: the members
    # are distinct sorted k-sets that begin with the unchanged family; the
    # settle-only ones follow a family that does not cover t, within
    # COVER_MAX_CELLS cells in all
    codes = [settle_code(name) for name in ("21-8", "42-8", "24-16")]
    for n in range(3, 13):
        for locators in (tuple(range(1, n + 1)), tuple(range(1, n)) + (0,)):
            codes += [GrsCode(Field(16), locators, [1] * n, k) for k in range(2, n)]
    settled = 0
    for code in codes:
        n, k = code.n, code.k
        for t in range(gs_max_radius(n, k) + 1):
            plan = code._gs_plan(t)
            members = [tuple(m) for m in plan.members.tolist()]
            assert members[: len(plan.family)] == list(plan.family)
            assert len(set(members)) == len(members) == len(plan.family) + plan.settle_only
            assert all(list(m) == sorted(set(m)) and set(m) <= set(range(n)) for m in members)
            assert all(len(m) == k for m in members)
            if plan.settle_only:
                settled += 1
                assert not plan.covers and len(members) * k * n <= grs.COVER_MAX_CELLS
            else:
                assert plan.covers or (len(plan.family) + 1) * k * n > grs.COVER_MAX_CELLS
    assert settled > 20


def test_gs_settle_members_do_not_hang_on_the_hash_seed():
    # the settle-only sets come from a fixed rule: two processes with
    # different hash seeds build the same members
    script = (
        "from test_grs import settle_code\n"
        "print([settle_code(n)._gs_plan(t).members.tolist()"
        " for n, t in (('21-8', 8), ('42-8', 20), ('24-16', 3))])"
    )
    tests_dir = str(pathlib.Path(__file__).resolve().parent)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            cwd=tests_dir, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join([src, tests_dir])},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1] and outs[0].startswith("[[[")


def test_lrc15_covering_plans_keep_their_members(tb_15_6):
    # the plans of the [15,6,3,3] list decode all cover: the [5,3] local
    # codes at t = 1 and the [10,3] shortened codes at t = 0..5 keep their
    # members, the family alone: t + 1 disjoint k-sets along the plan's
    # order, the block family at t = 1 of [5,3] and the equal-parts family
    # past them
    codes = [(local, [1]) for local, _, _ in tb_15_6.local_groups] + [
        (tb_15_6.supercode.shorten(rs), range(6)) for rs in tb_15_6.repair_sets
    ]
    for code, radii in codes:
        start = code._gs_plan(0)
        order = np.concatenate((start.inside, start.outside)).tolist()
        for t in radii:
            plan = code._gs_plan(t)
            k = code.k
            assert plan.covers and plan.settle_only == 0
            assert plan.members.tolist() == [list(m) for m in plan.family]
            if (t + 1) * k <= code.n:
                want = tuple(tuple(sorted(order[i * k : (i + 1) * k])) for i in range(t + 1))
            elif code.n == 5:
                blocks = [complement(code, range(s, s + 2)) for s in (0, 2)]
                want = tuple(dict.fromkeys([tuple(sorted(plan.inside.tolist()))] + [
                    tuple(b) for b in blocks]))
            else:
                want = equal_parts(order, k, t)
            assert plan.family == want


@pytest.mark.parametrize(
    "q, locators, k, radii",
    [(8, tuple(range(1, 8)), 0, range(8)), (8, tuple(range(1, 8)), 1, range(7)),
     (16, tuple(range(1, 11)), 3, range(3))],
)
def test_gs_cover_matches_sphere_without_interpolation(q, locators, k, radii, monkeypatch):
    # (t + 1) k <= n, so every plan here takes t + 1 disjoint k-sets, which
    # cover t: with interpolation refused, every decode of a codeword hit
    # by at most t errors, or of a uniform word, equals the sphere.  At the
    # largest t some words are settled by no member and the cover gives
    # their list; on [10,3] at t = 2 those words were interpolated before
    # the cover rule
    code, book = certificate_code(q, locators, k)
    monkeypatch.setattr(GrsCode, "_gs_interpolate", refuse_interpolation)
    rnd = random.Random(q + k)
    for t in radii:
        assert code._gs_plan(t).covers
        unsettled = 0
        for i in range(40):
            if i % 2:
                word = tuple(rnd.randrange(q) for _ in range(code.n))
            else:
                cw = book[rnd.randrange(len(book))].tolist()
                word = corrupt(rnd, code.field, cw, rnd.sample(range(code.n), i // 2 % (t + 1)))
            unsettled += not settles(code, word, t)
            assert code.gs_list_decode(word, t) == sphere(book, word, t)
        assert unsettled > 0 or t < max(radii)


@pytest.mark.parametrize("symbol", [16, -1])
def test_gs_rejects_symbols_outside_the_field(gf16, symbol):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 5)
    word = [0] * 15
    word[6] = symbol
    message = rf"symbol -?0x{abs(symbol):x} at position 6 is not in GF\(16\)"
    with pytest.raises(ValueError, match=message):
        code.gs_list_decode(word, 3)


@pytest.mark.parametrize("symbol", [16, -1])
def test_shorten_received_rejects_symbols_outside_the_field(gf16, symbol):
    # the whole word is checked, and the position named, whether the symbol
    # lies on S or off it
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 5)
    word = [0] * 15
    word[2] = symbol
    message = rf"symbol -?0x{abs(symbol):x} at position 2 is not in GF\(16\)"
    for positions in ([0, 2, 4], [0, 1, 4]):
        with pytest.raises(ValueError, match=message):
            code.shorten_received(word, positions)


@pytest.mark.parametrize(
    "entry, word, message",
    [
        ("shorten_received", [0] * 18, r"received word has 18 symbols, need n = 15"),
        ("shorten_received", [0] * 10, r"received word has 10 symbols, need n = 15"),
        ("unshorten", [0] * 12, r"shortened codeword has 12 symbols, need n - \|S\| = 13"),
        ("unshorten", [0] * 14, r"shortened codeword has 14 symbols, need n - \|S\| = 13"),
        ("gs_list_decode", [0] * 14, r"received word has 14 symbols, need n = 15"),
        ("gs_list_decode", [[0, 0]] * 15, r"received word has shape \(15, 2\), need n = 15"),
    ],
    ids=["shorten-18", "shorten-10", "unshorten-12", "unshorten-14", "gs-14", "gs-15x2"],
)
def test_grs_entries_refuse_words_of_the_wrong_shape(gf16, entry, word, message):
    # [15,5] over GF(16), S = {0, 1}: a received word needs n = 15 symbols
    # in one axis, a shortened codeword n - |S| = 13
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 5)
    _, _, c_s = code.shorten_received([0] * 15, [0, 1])
    call = {
        "shorten_received": lambda: code.shorten_received(word, [0, 1]),
        "unshorten": lambda: code.unshorten([0, 1], c_s, word),
        "gs_list_decode": lambda: code.gs_list_decode(word, 3),
    }[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_shorten_received_reads_positions_once_and_unshorten_maps_rows(gf16):
    # positions may be a one-shot iterable, in any order; unshorten maps a
    # stack of shortened codewords back as it maps each one
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 5)
    rng = np.random.default_rng(5)
    word = rng.integers(0, 16, size=15)
    short, sw, c_s = code.shorten_received(word, (i for i in (4, 0, 2)))
    want_short, want_sw, want_c_s = code.shorten_received(word, [0, 2, 4])
    assert short is want_short and np.array_equal(sw, want_sw) and np.array_equal(c_s, want_c_s)
    cws = [short.encode(rng.integers(0, 16, size=2).tolist()) for _ in range(3)]
    rows = code.unshorten([0, 2, 4], c_s, cws)
    assert rows.shape == (3, 15)
    for row, cw in zip(rows.tolist(), cws):
        assert row == code.unshorten((i for i in (2, 4, 0)), c_s, cw).tolist()
        assert code.encode(agree_on(code, row, range(5))[0]) == tuple(row)
    with pytest.raises(ValueError, match=r"shortened codeword has shape \(2, 11\), need n - \|S\| = 12"):
        code.unshorten([0, 2, 4], c_s, [[0] * 11] * 2)
    with pytest.raises(ValueError, match=r"symbol 0x10 at position \(1, 3\) is not in GF\(16\)"):
        code.unshorten([0, 2, 4], c_s, [[0] * 12, [0, 0, 0, 16] + [0] * 8])


@pytest.mark.parametrize(
    "positions, message",
    [([0, 0, 1], r"^position = 0 repeats$"),
     ([0, 12], r"^position = 12 exceeds the limit n - 1 = 9$"),
     ([-1, 2], r"^position = -1 is below the limit 0$")],
    ids=["positions0", "positions1", "positions2"],
)
def test_agree_on_and_shorten_reject_repeated_or_outside_positions(gf16, positions, message):
    # a repeated position used to give a c that disagrees with the word
    # there, and position 12 an IndexError; neither is kept.  The name
    # keeps the re-encoding entry these checks first guarded
    code = GrsCode(gf16, list(range(1, 11)), [1] * 10, 4)
    word = np.array([0, 1] + [0] * 8)
    with pytest.raises(ValueError, match=message):
        code.shorten_received(word, positions)
    with pytest.raises(ValueError, match=message):
        code.shorten(positions)
    assert not code._shortened
    assert code.shorten_received(word, [0, 1])[2][:2].tolist() == [0, 1]


def _position_entries(field):
    """A [15, 8] code and every entry that reads positions, by name, each
    with the n its positions lie below: 15 for the shortening entries, 6
    for the support classifiers (the parity's columns, the sets' positions)."""
    code = GrsCode(field, list(range(1, 16)), [1] * 15, 8)
    word, c_s = np.zeros(15, dtype=np.int64), np.zeros(15, dtype=np.int64)
    parity = np.random.default_rng(2).integers(0, 16, size=(3, 6))
    sets = [[0, 1, 2], [3, 4, 5]]
    return code, {
        "shorten": (lambda pos: code.shorten(pos), 15),
        "shorten_received": (lambda pos: code.shorten_received(word, pos), 15),
        "unshorten": (lambda pos: code.unshorten(pos, c_s, [0] * 13), 15),
        "is_t1_independent": (lambda pos: is_t1_independent(field, parity, pos), 6),
        "excess_criterion": (lambda pos: excess_criterion(sets, 6, 2, 1, pos), 6),
        "sk1_sufficient": (lambda pos: sk1_sufficient(sets, 2, 1, pos), 6),
    }


@pytest.mark.parametrize(
    "position", [2.7, Fraction(2), True, np.float64(2.0)], ids=["float", "Fraction", "bool", "float64"]
)
def test_position_entries_refuse_non_integers(gf16, position):
    # a float position used to be truncated: shorten([2.7, 0.2]) shortened
    # at (0, 2) and kept that code; now every entry that reads positions
    # names the first non-integer, and nothing is kept
    code, calls = _position_entries(gf16)
    message = rf"position = {re.escape(repr(position))} is not an integer"
    for name, (call, _) in calls.items():
        with pytest.raises(ValueError, match=message):
            call([3, position])
        assert not code._shortened, name
    for name, (call, _) in calls.items():  # numpy integers are integers
        call([np.int64(3), 0])
    assert list(code._shortened) == [(0, 3)]


@pytest.mark.parametrize("case", ["negative", "numpy-negative", "repeat", "n", "far-past-n"])
def test_position_entries_refuse_positions_outside_range_or_repeated(gf16, case):
    # is_t1_independent used to read -1 as the last column and raise an
    # IndexError at n, and the pmds criteria answered for all of these; now
    # each entry refuses the position by name, value and limit, nothing is kept
    code, calls = _position_entries(gf16)
    for name, (call, n) in calls.items():
        positions, message = {
            "negative": ([3, -1], "position = -1 is below the limit 0"),
            "numpy-negative": ([3, np.int64(-2)], "position = -2 is below the limit 0"),
            "repeat": ([3, 0, 3], "position = 3 repeats"),
            "n": ([0, n], f"position = {n} exceeds the limit n - 1 = {n - 1}"),
            "far-past-n": ([99, 1], f"position = 99 exceeds the limit n - 1 = {n - 1}"),
        }[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(positions)
        assert not code._shortened, name
    for name, (call, n) in calls.items():  # both limits are positions
        call([n - 1, 0])
    assert list(code._shortened) == [(0, 14)]


@pytest.mark.parametrize("symbol", [16, -1])
@pytest.mark.parametrize("role", ["locator", "multiplier"])
def test_grs_rejects_locators_and_multipliers_outside_the_field(gf16, symbol, role):
    locators, multipliers = list(range(1, 11)), [1] * 10
    (locators if role == "locator" else multipliers)[3] = symbol
    message = rf"symbol -?0x{abs(symbol):x} at position 3 is not in GF\(16\)"
    with pytest.raises(ValueError, match=message):
        GrsCode(gf16, locators, multipliers, 4)


# -- Roth-Ruckenstein root finding against the scalar recursion ---------------------

def scalar_rr_roots(q_coeffs, k, field):
    """The y-roots of degree < k of Q by the coefficient-list recursion:
    strip the common power of x, find the roots of Q(0, y) by trial, and
    substitute Q(x, x y + gamma) one scalar product at a time."""
    results = []

    def trim(p):
        i = len(p)
        while i and p[i - 1] == 0:
            i -= 1
        return p[:i]

    def strip_x(q):
        shift = min((next(i for i, c in enumerate(p) if c) for p in q if any(p)), default=0)
        return [p[shift:] if any(p) else [] for p in q]

    def subs(q, gamma):
        ly = len(q) - 1
        out = [[0] * (max(len(p) for p in q) + ly + 1) for _ in range(ly + 1)]
        for i in range(ly + 1):
            for j in range(i, ly + 1):
                coef = field.mul(math.comb(j, i) % field.p, field.pow(gamma, j - i))
                for e, c in enumerate(q[j]):
                    out[i][e + i] = field.add(out[i][e + i], field.mul(coef, c))
        return [trim(p) for p in out]

    def recurse(q, prefix):
        q = strip_x(q)
        uni = [p[0] if p else 0 for p in q]
        for gamma in range(field.q):
            if horner(field, uni, gamma):
                continue
            if len(prefix) + 1 == k:
                results.append(prefix + [gamma])
            else:
                recurse(subs(q, gamma), prefix + [gamma])

    recurse([list(p) for p in q_coeffs], [])
    return results


def poly_mul_y(field, q, factor):
    """Product of Q and a bivariate factor, both as lists of x-coefficient
    lists indexed by the power of y."""
    out = [[0] * (max(map(len, q)) + max(map(len, factor)) - 1)
           for _ in range(len(q) + len(factor) - 1)]
    for i, p in enumerate(q):
        for j, f in enumerate(factor):
            for a, c in enumerate(p):
                for b, e in enumerate(f):
                    out[i + j][a + b] = field.add(out[i + j][a + b], field.mul(c, e))
    return out


def rr_cases(field, k, seed):
    """(name, Q) pairs: products of y - f_i(x) times a random factor, a
    random Q, a repeated root, a power of y - f(x) whose substitution is
    divisible by a high power of x, and the zero polynomial."""
    rnd = random.Random(seed)

    def rand_poly(deg):
        return [rnd.randrange(field.q) for _ in range(deg + 1)]

    def linear(f):  # y - f(x)
        return [[field.neg(c) for c in f], [1]]

    fs = [rand_poly(k - 1) for _ in range(3)]
    prod = [[1]]
    for f in fs:
        prod = poly_mul_y(field, prod, linear(f))
    yield "product", poly_mul_y(field, prod, [rand_poly(2), rand_poly(1)])
    yield "random", [rand_poly(rnd.randrange(1, 6)) for _ in range(4)]
    yield "repeated", poly_mul_y(field, poly_mul_y(field, linear(fs[0]), linear(fs[0])), linear(fs[1]))
    power = [[1]]
    for _ in range(3):
        power = poly_mul_y(field, power, linear(fs[2]))
    yield "power", power
    yield "zero", [[0, 0], [0]]


@pytest.mark.parametrize("q", [16, 64, 13])
def test_rr_roots_match_scalar_recursion(q):
    field = Field(q)
    for k in (1, 2, 3):
        for name, q_coeffs in rr_cases(field, k, seed=q * 10 + k):
            if name == "zero" and k == 3 and q == 64:
                continue  # 64^3 roots
            roots = _rr_roots(q_array(q_coeffs), k, field)
            assert roots.dtype == np.int64 and roots.shape[1:] == (k,)
            got = roots.tolist()
            assert got == scalar_rr_roots(q_coeffs, k, field), (name, k)
            assert got == sorted(got)
            if name == "zero":
                assert len(got) == q**k
            if name in ("product", "repeated", "power"):
                assert got  # every planted f_i of degree < k is a root


# -- shortening ------------------------------------------------------------------

def test_reduce_poly_constant(gf16):
    assert not any(reduce_poly(gf16, [5], [3]))


def test_reduce_poly_x_squared(gf16):
    assert reduce_poly(gf16, [0, 0, 1], [1]) == [1, 1]


def test_reduce_poly_identity(gf16):
    rnd = random.Random(10)
    for _ in range(20):
        f = [rnd.randrange(16) for _ in range(6)]
        beta = rnd.randrange(1, 16)
        fb = reduce_poly(gf16, f, [beta])
        for _ in range(20):
            x = rnd.randrange(16)
            lhs = gf16.add(gf16.mul(horner(gf16, fb, x), gf16.sub(x, beta)), horner(gf16, f, beta))
            assert lhs == horner(gf16, f, x)


def test_shorten_parameters(gf16):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 8)
    short = code.shorten(range(5))
    assert (short.n, short.k, short.d) == (10, 3, 8)
    assert code.shorten([]) == code
    with pytest.raises(ValueError):
        code.shorten(range(9))


def test_shorten_membership(gf16, grs_membership):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 8)
    subset = code.locators[2:7]
    short = code.shorten(range(2, 7))
    in_short = grs_membership(short)
    rnd = random.Random(11)
    for _ in range(100):
        fs = reduce_poly(gf16, [rnd.randrange(16) for _ in range(8)], subset)
        assert in_short(encode_oracle(short, fs))


def test_shorten_is_kept_per_locator_set(gf16):
    code = GrsCode(gf16, list(range(1, 16)), [3] * 15, 8)
    short = code.shorten(range(5))
    assert code.shorten(reversed(range(5))) is short
    assert code.shorten(range(1, 6)) is not short
    with pytest.raises(ValueError, match="^position = 1 repeats$"):
        code.shorten((1, 1))
    fresh = GrsCode(gf16, list(range(6, 16)), shortened_multipliers(code, code.locators[:5]), 3)
    assert fresh == short
    for word in seeded_words(code, 4, 6, seed=13):
        got, sw, _ = code.shorten_received(word, range(5))
        assert got is short
        assert short.gs_list_decode(sw, 4) == fresh.gs_list_decode(sw, 4)
    assert list(short._gs_plans) == [4]
    for plan in short._gs_plans.values():
        for name in ("init", "row_wdegs", "xpows", "xinv"):
            assert not getattr(plan.koetter, name).flags.writeable


def test_shorten_keeps_one_projection_per_position_set(gf16, grs_membership):
    # grs eliminates nothing: plans and shortenings re-encode in closed form
    assert not {"rref", "linalg"} & set(vars(grs))
    code = GrsCode(gf16, list(range(1, 16)), [3] * 15, 8)
    for t in (3, 4):
        for word in seeded_words(code, t, 4, seed=t):
            code.gs_list_decode(word, t)
    # two GS plans share one family, R and the complements of the blocks
    # 0..6 and 7..13, and one settle block
    family = (tuple(range(8)), tuple(range(7, 15)), tuple(range(7)) + (14,))
    assert [plan.family for plan in code._gs_plans.values()] == [family] * 2
    assert not code._shortened
    word = np.array(next(seeded_words(code, 6, 1, seed=5)))
    for pos in ([4, 0, 9], [], list(range(15))[::2]):
        c_s = code.shorten_received(word, pos)[2]
        msg, cw = agree_on(code, word, sorted(pos))
        assert c_s.tolist() == cw.tolist() and all(c_s[i] == word[i] for i in pos)
        assert tuple(c_s.tolist()) == encode_oracle(code, msg.tolist())
        assert grs_membership(code)(c_s)
    # one shortening per position set, built once whatever the order
    code.shorten([9, 4, 0])
    assert list(code._shortened) == [(0, 4, 9), (), tuple(range(0, 15, 2))]
    assert all(not proj.flags.writeable for *_, proj in code._shortened.values())
    with pytest.raises(ValueError, match=r"^\|S\| = 9 exceeds the limit k = 8$"):
        code.shorten(range(9))


def test_shorten_composes(gf8):
    # locator i is position i; past positions 0 and 1, locator 3 is position 1
    code = GrsCode(gf8, list(range(8)), [1] * 8, 4)
    once = code.shorten((0, 1, 3))
    twice = code.shorten((0, 1)).shorten((1,))
    assert once.locators == twice.locators == (2, 4, 5, 6, 7)
    assert once.k == twice.k == 1
    book_once = {once.encode([a]) for a in range(8)}
    book_twice = {twice.encode([a]) for a in range(8)}
    assert book_once == book_twice


def shortened_multipliers(code, subset):
    """nu_i v_S(alpha_i) off S, v_S = prod over S of (x - beta), by scalar products."""
    F = code.field
    out = []
    for a, v in zip(code.locators, code.multipliers):
        if a not in subset:
            for beta in subset:
                v = F.mul(v, F.sub(a, beta))
            out.append(v)
    return out


def map_back(code, subset, c_s, short_cw):
    """c_S plus the shortened codeword with zeros put in at S, by scalar sums."""
    F = code.field
    rest = iter(short_cw)
    return tuple(
        c if a in subset else F.add(c, next(rest)) for a, c in zip(code.locators, c_s.tolist())
    )


def check_shorten_received(code, coeffs, err, positions, membership):
    """shorten_received on the codeword of coeffs plus err (0 on S) against
    the scalar oracles, which take the locators at S: the shortened word is
    encode_oracle of the shortened code at reduce_poly(coeffs, S) plus err
    off S; c_S agrees with the word on S and is a codeword; that shortened
    codeword maps back to the sent one.  Returns (shortened code, shortened
    word, c_S, sent codeword)."""
    F = code.field
    subset = [code.locators[i] for i in positions]
    cw = encode_oracle(code, coeffs)
    word = [F.add(c, e) for c, e in zip(cw, err)]
    short, sw, c_s = code.shorten_received(word, positions)
    assert sw.dtype == np.int64 and sw.shape == (short.n,)
    short_cw = encode_oracle(short, reduce_poly(F, coeffs, subset))
    off = [e for a, e in zip(code.locators, err) if a not in subset]
    assert sw.tolist() == [F.add(c, e) for c, e in zip(short_cw, off)]
    on = [i for i, a in enumerate(code.locators) if a in subset]
    assert [c_s[i] for i in on] == [word[i] for i in on]
    assert membership(code)(c_s)
    assert map_back(code, subset, c_s, short_cw) == cw
    assert tuple(code.unshorten(positions, c_s, short_cw).tolist()) == cw
    return short, sw, c_s, cw


def test_shorten_received_zero_error(gf16, grs_membership):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 8)
    subset = code.locators[:5]
    short, sw, c_s, cw = check_shorten_received(
        code, [1, 2, 3, 4, 5, 6, 7, 8], [0] * 15, range(5), grs_membership
    )
    assert grs_membership(short)(sw)
    assert all_ints([cw, map_back(code, subset, c_s, sw.tolist())])


def test_shorten_received_single_error(gf16, grs_membership):
    # an error outside the shortened positions stays exactly itself
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 8)
    subset = code.locators[:5]
    err = [0] * 15
    err[9] = 7
    short, sw, c_s, cw = check_shorten_received(
        code, [3, 1, 4, 1, 5, 9, 2, 6], err, range(5), grs_membership
    )
    short_cws = short.gs_list_decode(sw, (short.d - 1) // 2)
    assert len(short_cws) == 1
    assert map_back(code, subset, c_s, short_cws[0]) == cw
    assert all_ints([err] + short_cws)


def test_shorten_decode_lift_roundtrip(gf16, grs_membership):
    code = GrsCode(gf16, list(range(1, 16)), [1] * 15, 8)
    rnd = random.Random(12)
    subset = code.locators[:5]
    for _ in range(25):
        err = [0] * 15
        for i in rnd.sample(range(5, 15), 3):
            err[i] = rnd.randrange(1, 16)
        coeffs = [rnd.randrange(16) for _ in range(8)]
        short, sw, c_s, cw = check_shorten_received(code, coeffs, err, range(5), grs_membership)
        res = short.gs_list_decode(sw, (short.d - 1) // 2)
        assert len(res) == 1
        assert map_back(code, subset, c_s, res[0]) == cw


def _array_core_code(name):
    rnd = random.Random(name)
    if name == "gf8-locator0":
        return GrsCode(Field(8), list(range(8)), [rnd.randrange(1, 8) for _ in range(8)], 3)
    if name == "gf16-15-8":
        return GrsCode(Field(16), list(range(1, 16)), [rnd.randrange(1, 16) for _ in range(15)], 8)
    if name == "gf64-63-29":
        return construct_tamo_barg(Field(64), 63, 16, 8, 14).supercode
    return GrsCode(Field(13), list(range(12)), [rnd.randrange(1, 13) for _ in range(12)], 4)


ARRAY_CORE_CODES = ["gf8-locator0", "gf16-15-8", "gf64-63-29", "gf13-12-4"]


@pytest.mark.parametrize("name", ARRAY_CORE_CODES)
def test_array_core_matches_scalar_oracles(name, grs_membership):
    """encode and shorten_received against Horner, the coefficient-list
    reduce_poly and scalar sums."""
    code = _array_core_code(name)
    F, n, k = code.field, code.n, code.k
    rnd = random.Random(n * k)
    for trial in range(12):
        coeffs = [rnd.randrange(F.q) for _ in range(k - trial % 2)]
        assert code.encode(coeffs) == encode_oracle(code, coeffs)
        positions = rnd.sample(range(n), rnd.randrange(k + 1))
        subset = [code.locators[i] for i in positions]
        err = [0] * n
        for i in rnd.sample([i for i in range(n) if i not in positions], 3):
            err[i] = rnd.randrange(1, F.q)
        short, sw, c_s, cw = check_shorten_received(code, coeffs, err, positions, grs_membership)
        assert short.multipliers == tuple(shortened_multipliers(code, subset))
        assert all_ints([cw, short.locators, short.multipliers, code.locators, code.multipliers])


def reference_shorten_received(code, word, subset):
    """Shortening as it was done before it became re-encoding, in scalar
    steps: per beta in subset, the values y = word / nu at the other
    remaining positions become (y - y_beta) / (alpha - beta), and the lift
    factor there takes a factor alpha - beta.  Returns the code on the
    remaining locators with the same multipliers and dimension k - |S|, the
    shortened values y, the remaining positions and their lift factors."""
    F = code.field
    ys = [F.mul(w, F.inv(v)) for w, v in zip(word, code.multipliers)]
    lift = [1] * code.n
    kept = list(range(code.n))
    for beta in subset:
        bi = code.locators.index(beta)
        kept.remove(bi)
        for i in kept:
            diff = F.sub(code.locators[i], beta)
            ys[i] = F.mul(F.sub(ys[i], ys[bi]), F.inv(diff))
            lift[i] = F.mul(lift[i], diff)
    locators = [code.locators[i] for i in kept]
    ref = GrsCode(F, locators, [code.multipliers[i] for i in kept], code.k - len(subset))
    return ref, [ys[i] for i in kept], kept, [lift[i] for i in kept]


def reference_decode_and_lift(code, word, subset, t):
    """Decode the reference shortened word at radius t, lift each error back
    and subtract it from the word."""
    F = code.field
    ref, ys, kept, lift = reference_shorten_received(code, word, subset)
    short_word = [F.mul(y, v) for y, v in zip(ys, ref.multipliers)]
    out = set()
    for cand in ref.gs_list_decode(short_word, t):
        full_err = [0] * code.n
        for i, a, b, f in zip(kept, short_word, cand, lift):
            full_err[i] = F.mul(F.sub(a, b), f)
        out.add(tuple(F.sub(w, e) for w, e in zip(word, full_err)))
    return out


@pytest.mark.parametrize("name", ARRAY_CORE_CODES)
def test_shortening_matches_per_beta_reference(name):
    """Against the per-beta reference, for random S of every size 0..k:
    equal normalized shortened values, and every decoded candidate maps
    back to the full word that reference decode-and-lift gives."""
    code = _array_core_code(name)
    F, n, k = code.field, code.n, code.k
    rnd = random.Random(f"reference {name}")
    for size in range(k + 1):
        positions = rnd.sample(range(n), size)
        subset = [code.locators[i] for i in positions]
        short = code.shorten(positions)
        t = min(gs_max_radius(short.n, short.k), (short.d - 1) // 2 + 1)
        cw = code.encode([rnd.randrange(F.q) for _ in range(k)])
        off = [i for i in range(n) if i not in positions]
        word = corrupt(rnd, F, cw, rnd.sample(off, min(t, len(off))))
        short, sw, c_s = code.shorten_received(word, positions)
        _, ys, _, _ = reference_shorten_received(code, word, subset)
        assert [F.mul(y, F.inv(v)) for y, v in zip(sw, short.multipliers)] == ys
        got = {
            tuple(code.unshorten(positions, c_s, c).tolist())
            for c in short.gs_list_decode(sw, t)
        }
        assert got == reference_decode_and_lift(code, word, subset, t)
        assert cw in got


# -- MDS property -----------------------------------------------------------------

def test_mds_every_k_positions_determine(code_7_3):
    g = code_7_3.generator
    for cols in itertools.combinations(range(7), 3):
        assert linalg.rank(g[:, list(cols)], code_7_3.field) == 3


def test_generator_is_stored_read_only(code_7_3):
    g = code_7_3.generator
    with pytest.raises(ValueError):
        g[0, 0] = 5


def test_gs_parameters_error_names_shape():
    # GRS [120, 30] over GF(128): the Johnson closed form gives 61, but no
    # multiplicity below 256 makes the interpolation system solvable there,
    # so the decoder's radius is 60 (not decoded here: s = 15 is slow)
    code = GrsCode(Field(128), list(range(1, 121)), [1] * 120, 30)
    assert gs_max_radius(code.n, code.k) == 60
    assert gs_parameters(120, 30, 61) is None
    assert gs_parameters(120, 30, 60) == (15, 31)
    with pytest.raises(
        ValueError, match=r"^t = 61 exceeds the limit 60, the radius of the \[120, 30\] GRS decode$"
    ):
        code.gs_list_decode((0,) * 120, 61)


def johnson_closed_form(n, k):
    return n - 1 - math.isqrt(n * (k - 1))


def unknowns_by_sum(n, k, t, s):
    """The monomials of (1, k-1)-weighted degree <= s (n - t) - 1, one
    y-degree at a time."""
    wdeg = s * (n - t) - 1
    return sum(wdeg + 1 - j * (k - 1) for j in range(wdeg // (k - 1) + 1))


def test_gs_max_radius_is_reachable_on_every_shape():
    # all 8,128 GRS shapes with 2 <= k <= n <= 128: gs_max_radius has a
    # plan, the radius above it has none or is past the Johnson bound, and
    # its s is the least whose per-y-degree monomial count beats the
    # constraints
    below = []
    for n in range(2, 129):
        for k in range(2, n + 1):
            t, johnson = gs_max_radius(n, k), johnson_closed_form(n, k)
            assert 0 <= t <= johnson
            s, ly = gs_parameters(n, k, t)
            assert ly == (s * (n - t) - 1) // (k - 1)
            assert unknowns_by_sum(n, k, t, s) > n * s * (s + 1) // 2
            for s_low in range(1, s):
                assert unknowns_by_sum(n, k, t, s_low) <= n * s_low * (s_low + 1) // 2
            if t < johnson:
                assert gs_parameters(n, k, t + 1) is None
                below.append((n, k, t))
    assert len(below) == 242
    assert {(42, 21, 12), (120, 30, 60)} <= set(below)
    assert all(t == johnson_closed_form(n, k) - 1 for n, k, t in below)
    assert gs_max_radius(10, 1) == 9 and gs_max_radius(10, 0) == 10
