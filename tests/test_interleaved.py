import itertools
import math
import re

import numpy as np
import pytest

from lrcdec import Field, mk_decode, InterleavedWord
from lrcdec import linalg
from lrcdec._kernels import add
from lrcdec.interleaved import (
    excess_criterion,
    is_t1_independent,
    sk1_sufficient,
)
from lrcdec.pmds import failure_prob_exact, rank_full_fraction


SETS = [[0, 1, 2], [3, 4, 5]]  # two repair sets of size 3 on 6 positions


def encode_rows(code, rng, ell):
    msg = rng.integers(0, code.field.q, size=(ell, code.k), dtype=np.int64)
    return linalg.matmul(msg, code.generator, code.field)


def burst(rng, q, ell, support):
    """(support, values): ell x len(support) random values, no zero column."""
    vals = rng.integers(0, q, size=(ell, len(support)), dtype=np.int64)
    for j in range(len(support)):
        while not vals[:, j].any():
            vals[:, j] = rng.integers(0, q, size=ell)
    return support, vals


def to_extension_field(matrix, q):
    """Oracle: column-wise bijection GF(q)^ell -> [0, q^ell), digits base q.

    Preserves burst weight: a column is nonzero iff its image is.
    """
    m = np.asarray(matrix)
    out = []
    for j in range(m.shape[1]):
        v = 0
        for i in range(m.shape[0] - 1, -1, -1):
            v = v * q + int(m[i, j])
        out.append(v)
    return tuple(out)


def from_extension_field(symbols, ell, q):
    out = np.zeros((ell, len(symbols)), dtype=np.int64)
    for j, v in enumerate(symbols):
        for i in range(ell):
            out[i, j] = v % q
            v //= q
    return out


def add_burst(field, cw, err):
    support, vals = err
    e = np.zeros_like(cw)
    e[:, list(support)] = vals
    assert field.p == 2
    return cw ^ e


def test_mk_no_errors(pmds_12_4):
    rng = np.random.default_rng(0)
    cw = encode_rows(pmds_12_4, rng, 8)
    res = mk_decode(pmds_12_4.field, pmds_12_4.parity, InterleavedWord(pmds_12_4.field, cw))
    assert res is not None
    out, support = res
    assert np.array_equal(out.matrix, cw) and support == ()


def _mk_decode_rank_then_solve(field, parity, received):
    """Oracle: mk_decode with the erasure step as a rank test of H_E and
    then a separate solve of H_E X = S, as the decoder once was."""
    H = np.ascontiguousarray(parity, dtype=np.int64)
    R = received.matrix
    nk, n = H.shape
    syndrome = linalg.matmul(H, R.T, field)
    aug = np.concatenate([syndrome, np.eye(nk, dtype=np.int64)], axis=1)
    red, _, piv = linalg.rref(aug, field)
    rank_s = sum(1 for c in piv if c < syndrome.shape[1])
    zeta = nk - rank_s
    if zeta == 0:
        return None
    ph = linalg.matmul(red[:, syndrome.shape[1]:], H, field)
    support = tuple(np.flatnonzero(~ph[nk - zeta:, :].any(axis=0)).tolist())
    if len(support) != rank_s:
        return None
    h_sub = H[:, list(support)]
    if linalg.rank(h_sub, field) != len(support):
        return None
    x = linalg.solve(h_sub, syndrome, field)
    if x is None:
        return None
    err = np.zeros((received.ell, n), dtype=np.int64)
    err[:, list(support)] = x.T
    cw = linalg.sub(R, err, field)
    if linalg.matmul(H, cw.T, field).any():
        return None
    return InterleavedWord(field, cw), support


def _same_decode(got, want):
    if got is None or want is None:
        return got is None and want is None
    return np.array_equal(got[0].matrix, want[0].matrix) and got[1] == want[1]


def test_mk_decode_matches_rank_then_solve(pmds_12_4):
    code = pmds_12_4
    F = code.field
    nones = 0
    for t in range(code.n - code.k + 2):
        for i in range(20):
            rng = np.random.default_rng([43, t, i])
            ell = 8 if i % 2 else 3  # ell = 3 < t leaves the error rank-deficient
            cw = encode_rows(code, rng, ell)
            support = sorted(rng.choice(code.n, size=t, replace=False).tolist())
            w = InterleavedWord(F, add_burst(F, cw, burst(rng, F.q, ell, support)))
            want = _mk_decode_rank_then_solve(F, code.parity, w)
            assert _same_decode(mk_decode(F, code.parity, w), want), (t, i)
            nones += want is None
    assert nones > 0
    # a parity check whose columns 0 and 1 are parallel: the syndrome space
    # span(e1, e2 + e3) holds exactly those two columns, so H_E has rank 1
    H = np.array([[1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)
    w = InterleavedWord(F, np.array([[1, 0, 0, 0], [0, 0, 1, 1]]))
    assert _mk_decode_rank_then_solve(F, H, w) is None
    assert mk_decode(F, H, w) is None


def _parity_and_codewords(field, rng, n, nk, ell):
    """A random full-rank nk x n parity check and ell codewords of its code."""
    while True:
        H = rng.integers(0, field.q, size=(nk, n), dtype=np.int64)
        if linalg.rank(H, field) == nk:
            break
    basis = linalg.right_nullspace(H, field)
    return H, linalg.matmul(rng.integers(0, field.q, size=(ell, n - nk)), basis, field)


@pytest.mark.parametrize("q", [16, 64, 31])
def test_mk_decode_matches_rank_then_solve_off_the_benchmark_field(q):
    # random [10, 5] parity checks over small fields: column dependencies
    # are common, so supports fail the (t+1)-independence test; bursts of
    # weight 0..n - k + 1 with ell = 1 and 3 (ell < t: rank-deficient
    # errors) and 8 (ell >= nk: full-rank syndromes, rank S = nk)
    F = Field(q)
    n, nk = 10, 5
    seen = {"none": 0, "decoded": 0, "full_rank_syndrome": 0, "deficient": 0}
    for ell in (1, 3, 8):
        for t in range(nk + 2):
            for i in range(4):
                rng = np.random.default_rng([q, ell, t, i])
                H, cw = _parity_and_codewords(F, rng, n, nk, ell)
                support = sorted(rng.choice(n, size=t, replace=False).tolist())
                _, vals = burst(rng, q, ell, support)
                err = np.zeros_like(cw)
                err[:, support] = vals
                w = InterleavedWord(F, add(cw, err, F))
                want = _mk_decode_rank_then_solve(F, H, w)
                assert _same_decode(mk_decode(F, H, w), want), (ell, t, i)
                seen["none" if want is None else "decoded"] += 1
                rank_s = linalg.rank(linalg.matmul(H, w.matrix.T, F), F)
                seen["full_rank_syndrome"] += rank_s == nk
                seen["deficient"] += 0 < rank_s < t
    assert all(seen.values()), seen
    # the parallel-columns parity check of the GF(1024) test
    H = np.array([[1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)
    w = InterleavedWord(F, np.array([[1, 0, 0, 0], [0, 0, 1, 1]]))
    assert _mk_decode_rank_then_solve(F, H, w) is None
    assert mk_decode(F, H, w) is None


def test_mk_rejects_symbols_outside_the_field(pmds_12_4):
    rng = np.random.default_rng(2)
    cw = encode_rows(pmds_12_4, rng, 8)
    cw[3, 5] = 1024
    message = r"symbol 0x400 at position \(3, 5\) is not in GF\(1024\)"
    with pytest.raises(ValueError, match=message):
        mk_decode(pmds_12_4.field, pmds_12_4.parity, InterleavedWord(pmds_12_4.field, cw))


@pytest.mark.parametrize(
    "shape", [(12,), (8, 11), (8, 13), (2, 8, 12)], ids=["1-d", "8x11", "8x13", "3-d"]
)
def test_mk_rejects_a_received_word_of_the_wrong_shape(pmds_12_4, shape):
    # a 1-D word used to raise IndexError, and an 8 x 11 one a matmul shape
    # mismatch that named neither the word nor n
    word = InterleavedWord(pmds_12_4.field, np.zeros(shape, dtype=np.int64))
    message = (
        rf"received word has shape {re.escape(str(shape))}, need an ell x n matrix "
        r"with n = 12, the parity's column count"
    )
    with pytest.raises(ValueError, match=message):
        mk_decode(pmds_12_4.field, pmds_12_4.parity, word)


def test_mk_garbage_fails_parity(pmds_12_4):
    rng = np.random.default_rng(1)
    noise = rng.integers(0, 1024, size=(8, 12), dtype=np.int64)
    res = mk_decode(pmds_12_4.field, pmds_12_4.parity, InterleavedWord(pmds_12_4.field, noise))
    if res is not None:  # only acceptable if the noise truly decodes
        assert not linalg.matmul(pmds_12_4.parity, res[0].matrix.T, pmds_12_4.field).any()


def test_mk_full_rank_up_to_d_minus_2(pmds_12_4):
    code = pmds_12_4
    d = code.d
    for i in range(200):
        rng = np.random.default_rng([17, i])
        t = int(rng.integers(0, d - 1))  # up to d - 2
        cw = encode_rows(code, rng, 8)
        support = sorted(rng.choice(12, size=t, replace=False).tolist())
        w = add_burst(code.field, cw, burst(rng, 1024, 8, support))
        res = mk_decode(code.field, code.parity, InterleavedWord(code.field, w))
        assert res is not None
        assert np.array_equal(res[0].matrix, cw)
        assert res[1] == tuple(support)


def test_mk_at_n_minus_k_minus_1_matches_support_class(pmds_12_4):
    code = pmds_12_4
    t = code.n - code.k - 1
    hits = miss = 0
    for i in range(300):
        rng = np.random.default_rng([23, i])
        cw = encode_rows(code, rng, 8)
        support = sorted(rng.choice(12, size=t, replace=False).tolist())
        w = add_burst(code.field, cw, burst(rng, 1024, 8, support))
        res = mk_decode(code.field, code.parity, InterleavedWord(code.field, w))
        good = is_t1_independent(code.field, code.parity, support)
        if good:
            assert res is not None and np.array_equal(res[0].matrix, cw)
            hits += 1
        else:
            # violated hypothesis: failure or (detected) miscorrection
            if res is not None:
                assert not linalg.matmul(
                    code.parity, res[0].matrix.T, code.field
                ).any()
            miss += 1
    assert hits > 0 and miss > 0


def _t1_independent_full_rref(field, parity, support):
    """Oracle: is_t1_independent by a full reduction of [H_E | H_rest]."""
    support = sorted(support)
    t, n = len(support), parity.shape[1]
    rest = [j for j in range(n) if j not in support]
    red, _, piv = linalg.rref(np.concatenate([parity[:, support], parity[:, rest]], axis=1), field)
    return sum(1 for c in piv if c < t) == t and bool(red[t:, t:].any(axis=0).all())


def test_t1_independent_matches_full_rref(pmds_12_4):
    # every support of at most n - k positions: 3,797 on the [12, 4] code,
    # whose H_E are of full rank up to t = 7, and 638 on a [10, 5] check
    # over GF(16) with parallel columns 0 and 1, so H_E can be rank-deficient
    # with rows to spare below
    gf16 = Field(16)
    parity = np.random.default_rng(8).integers(0, 16, size=(5, 10), dtype=np.int64)
    parity[:, 1] = [gf16.mul(3, int(x)) for x in parity[:, 0]]
    for field, H, count in [(pmds_12_4.field, pmds_12_4.parity, 3797), (gf16, parity, 638)]:
        nk, n = H.shape
        answers = []
        for t in range(nk + 1):
            for support in itertools.combinations(range(n), t):
                got = is_t1_independent(field, H, support)
                assert got == _t1_independent_full_rref(field, H, support), support
                answers.append(got)
        assert len(answers) == count and 0 < sum(answers) < len(answers)


def test_t1_independent_extremes(pmds_12_4):
    code = pmds_12_4
    d, n, k = code.d, code.n, code.k
    rng = np.random.default_rng(3)
    for t in range(0, d - 1):
        support = sorted(rng.choice(n, size=t, replace=False).tolist())
        assert is_t1_independent(code.field, code.parity, support)
    for t in range(n - k, n - k + 2):
        support = sorted(rng.choice(n, size=t, replace=False).tolist())
        assert not is_t1_independent(code.field, code.parity, support)


def test_excess_criterion_equals_rank_test(pmds_12_4):
    # exhaustive over all supports of the boundary sizes
    code = pmds_12_4
    for t in (code.d - 1, code.n - code.k - 1):
        for support in itertools.combinations(range(code.n), t):
            lhs = excess_criterion(code.repair_sets, code.n, code.k, code.r, support)
            rhs = is_t1_independent(code.field, code.parity, support)
            assert lhs == rhs, (t, support)


def test_excess_criterion_fraction_matches_dp(pmds_12_4):
    code = pmds_12_4
    t = 7
    bad = sum(
        1
        for support in itertools.combinations(range(code.n), t)
        if not excess_criterion(code.repair_sets, code.n, code.k, code.r, support)
    )
    from fractions import Fraction

    assert failure_prob_exact(code.n, code.k, code.r, code.rho, t) == Fraction(
        bad, math.comb(code.n, t)
    )


def test_sk1_sufficient_cases(pmds_12_4):
    code = pmds_12_4
    # concentrated complement: all of one repair set plus spillover
    support = tuple(range(3, 12))  # complement = repair set 0 entirely
    assert not sk1_sufficient(code.repair_sets, code.k, code.r, support)
    # spread complement
    support2 = (0, 3, 6, 9)
    assert sk1_sufficient(code.repair_sets, code.k, code.r, support2)
    # implication: sk1 sufficient -> (t+1)-independent (never the converse)
    rng = np.random.default_rng(9)
    for _ in range(300):
        t = int(rng.integers(0, code.n - code.k))
        support = tuple(sorted(rng.choice(code.n, size=t, replace=False).tolist()))
        if sk1_sufficient(code.repair_sets, code.k, code.r, support):
            assert is_t1_independent(code.field, code.parity, support)


@pytest.mark.parametrize(
    "call, message",
    [
        # not a partition: the excess was counted on the sets as given
        (lambda: excess_criterion([[0, 1], [1, 2]], 12, 4, 2, [0, 1]),
         r"repair sets must partition range\(12\) into sets of size r \+ rho - 1 = 6"),
        (lambda: excess_criterion([[0, 1, 2], [3, 4]], 5, 2, 1, [0]),
         r"repair sets must partition range\(5\) into sets of size r \+ rho - 1 = 2"),
        (lambda: excess_criterion(SETS, 6, 4.5, 1, [0, 1]), r"k = 4\.5 is not an integer"),
        (lambda: excess_criterion(SETS, 6, 7, 1, [0, 1]), r"k = 7 exceeds the limit n = 6"),
        (lambda: excess_criterion(SETS, 6, 2, -2, [0, 1]), r"r = -2 is below the limit 0"),
        (lambda: excess_criterion(SETS, 6, 2, 4, [0, 1]), r"r = 4 exceeds the limit n_l = 3"),
        (lambda: excess_criterion(SETS, 6.0, 2, 1, [0, 1]), r"n = 6\.0 is not an integer"),
        (lambda: sk1_sufficient(SETS, -4, 2, [0, 1]), r"k = -4 is below the limit 0"),
        (lambda: sk1_sufficient(SETS, 2, 1.5, [0, 1]), r"r = 1\.5 is not an integer"),
        (lambda: sk1_sufficient([[0, 1], [1, 2]], 2, 1, [0]),
         r"repair sets must partition range\(4\) into sets of size r \+ rho - 1 = 2"),
    ],
    ids=["excess-overlap", "excess-unequal", "excess-k-4.5", "excess-k-over-n", "excess-r-minus-2",
         "excess-r-over-n_l", "excess-n-6.0", "sk1-k-minus-4", "sk1-r-1.5", "sk1-overlap"],
)
def test_support_classifiers_refuse_a_bad_shape_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_support_classifiers_read_their_shape_at_the_limits():
    # k = 0 and k = n, r = 0 and r = n_l are shapes, and numpy sizes are read
    assert excess_criterion(SETS, 6, 0, 0, [0])
    assert not excess_criterion(SETS, np.int64(6), 6, 3, [0])
    assert sk1_sufficient(SETS, np.int64(0), 3, []) and not sk1_sufficient(SETS, 6, 0, [])


def test_extension_field_roundtrip():
    rng = np.random.default_rng(4)
    m = rng.integers(0, 16, size=(3, 10), dtype=np.int64)
    syms = to_extension_field(m, 16)
    assert len(syms) == 10
    back = from_extension_field(syms, 3, 16)
    assert np.array_equal(m, back)
    # weight preserved
    nz_cols = int(m.any(axis=0).sum())
    assert sum(1 for s in syms if s) == nz_cols
    # zero matrix maps to zero vector
    assert to_extension_field(np.zeros((3, 5), dtype=np.int64), 16) == (0,) * 5


def test_mk_empirical_rate_matches_formula(pmds_12_4):
    code = pmds_12_4
    t, ell, q = 7, 8, 1024
    trials, ok = 400, 0
    for i in range(trials):
        rng = np.random.default_rng([31, i])
        cw = encode_rows(code, rng, ell)
        support = sorted(rng.choice(12, size=t, replace=False).tolist())
        w = add_burst(code.field, cw, burst(rng, q, ell, support))
        res = mk_decode(code.field, code.parity, InterleavedWord(code.field, w))
        ok += res is not None and np.array_equal(res[0].matrix, cw)
    p = float(
        (1 - failure_prob_exact(12, 4, 2, 2, t)) * rank_full_fraction(q, ell, t)
    )
    sigma3 = 3 * math.sqrt(p * (1 - p) / trials)
    assert abs(ok / trials - p) <= sigma3
