import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lrcdec import Field, random_pmds, verify_pmds
from lrcdec import linalg, pmds
from lrcdec.grs import GrsCode
from lrcdec.interleaved import excess_criterion
from lrcdec.pmds import (
    _information_sets,
    asymptotic_predicates,
    complement_count_closed_form,
    failure_prob_exact,
    mk_success_prob,
    rank_full_fraction,
    s_mu_size,
    sk1_bound,
    union_bound_failure,
)


# -- verification -------------------------------------------------------------------

def test_mds_code_is_pmds_with_one_repair_set():
    f = Field(16)
    code = GrsCode(f, list(range(7)), [1] * 7, 3)
    g = code.generator
    # one repair set, locality r = k = 3, rho = d = 5
    assert verify_pmds(f, g, [tuple(range(7))], 3, 5)


def test_repeated_column_fails():
    f = Field(1024)
    g = np.array([[1, 1, 2, 3, 5, 8], [0, 0, 1, 4, 7, 2]], dtype=np.int64)
    assert not verify_pmds(f, g, [(0, 1, 2), (3, 4, 5)], 2, 2)
    # the same column in two repair sets: locals are MDS, one minor is not
    g = np.array([[1, 0, 1, 1, 1, 2], [0, 1, 3, 0, 5, 7]], dtype=np.int64)
    assert all(linalg.rank(g[:, list(c)], f) == 2 for c in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert not verify_pmds(f, g, [(0, 1, 2), (3, 4, 5)], 2, 2)


def test_random_pmds_double_checked(pmds_12_4):
    code = pmds_12_4
    assert verify_pmds(code.field, code.generator, code.repair_sets, code.r, code.rho)
    # independently re-verify one random puncturing by minimum distance
    rnd = random.Random(0)
    removed = [rnd.choice(rs) for rs in code.repair_sets]
    kept = [j for j in range(code.n) if j not in removed]
    punct = code.generator[:, kept]
    # punctured [8, 4] must be MDS: enumerate a random sample of messages
    f = code.field
    n2, k2 = punct.shape[1], code.k
    min_w = n2
    for _ in range(2000):
        msg = np.array([[rnd.randrange(f.q) for _ in range(k2)]], dtype=np.int64)
        if not msg.any():
            continue
        w = int((linalg.matmul(msg, punct, f) != 0).sum())
        min_w = min(min_w, w)
    assert min_w >= n2 - k2 + 1  # sampling cannot beat the MDS distance


def test_random_pmds_deterministic():
    a = random_pmds(2**10, 12, 4, 2, 2, seed=7)
    b = random_pmds(2**10, 12, 4, 2, 2, seed=7)
    assert np.array_equal(a.generator, b.generator)
    c = random_pmds(2**10, 12, 4, 2, 2, seed=8)
    assert not np.array_equal(a.generator, c.generator)


def test_random_pmds_tiny_field_fails():
    with pytest.raises(ValueError, match=r"^q = 2 is below the limit n_l = r \+ rho - 1 = 3$"):
        random_pmds(2, 12, 4, 2, 2, seed=0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((16, 12, 4, 2, 1), r"^rho = 1 is below the limit 2$"),
        ((1024, 12, 0, 2, 2), r"^r = 2 exceeds the limit k = 0$"),
        ((1024, 12, 9, 2, 2), r"^d = 0 is below the limit 1$"),  # k > mu * r = 8
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        "args0-rho = 1 must be at least 2",
        r"args1-r = 2 must lie in \[1, k = 0\]",
        "args2-d = 0 must be at least 1",
    ],
)
def test_random_pmds_refuses_shapes_before_drawing(args, message):
    # refused before the first draw: a larger field cannot help these shapes
    with pytest.raises(ValueError, match=message):
        random_pmds(*args, seed=0)


def _is_mds_by_minors(field, basis, k):
    n = basis.shape[1]
    return all(
        linalg.rank(basis[:, list(cols)], field) == k
        for cols in itertools.combinations(range(n), k)
    )


def _verify_by_puncturing(field, g, repair_sets, r, rho):
    """Oracle: the definition, one pattern at a time.  Every local restriction
    is an MDS code of rank r, and every puncturing of rho - 1 positions per
    repair set leaves an MDS code of rank k."""
    k, n = g.shape
    for rs in repair_sets:
        red, rank, _ = linalg.rref(g[:, list(rs)], field)
        if rank != r or not _is_mds_by_minors(field, red[:r, :], r):
            return False
    for pat in itertools.product(*[itertools.combinations(rs, rho - 1) for rs in repair_sets]):
        removed = set(itertools.chain.from_iterable(pat))
        punctured = g[:, [j for j in range(n) if j not in removed]]
        if linalg.rank(punctured, field) != k or not _is_mds_by_minors(field, punctured, k):
            return False
    return True


def _repair_sets(n, r, rho):
    n_l = r + rho - 1
    return [tuple(range(i * n_l, (i + 1) * n_l)) for i in range(n // n_l)]


def _mixing_draw(field, n, k, r, rho, rng):
    """A random k x (mu r) mixing of block-diagonal [n_l, r] GRS generators,
    as random_pmds draws it."""
    n_l = r + rho - 1
    g_loc = GrsCode(field, list(range(n_l)), [1] * n_l, r).generator
    block = np.zeros((n // n_l * r, n), dtype=np.int64)
    for i in range(n // n_l):
        block[i * r : (i + 1) * r, i * n_l : (i + 1) * n_l] = g_loc
    mix = rng.integers(0, field.q, size=(k, block.shape[0]), dtype=np.int64)
    return linalg.matmul(mix, block, field)


DIFF_SHAPES = [(6, 3, 2, 2), (9, 4, 2, 2), (12, 4, 2, 2), (12, 5, 3, 2), (12, 3, 2, 3)]


def test_verify_matches_puncturing_oracle():
    verdicts = Counter()
    for (n, k, r, rho) in DIFF_SHAPES:
        sets = _repair_sets(n, r, rho)
        for q in (8, 16, 32, 64):
            field = Field(q)
            rng = np.random.default_rng([q, n, k, r, rho])
            draws = [_mixing_draw(field, n, k, r, rho, rng) for _ in range(8)]
            draws += [rng.integers(0, q, size=(k, n), dtype=np.int64) for _ in range(2)]
            for g in draws:
                want = _verify_by_puncturing(field, g, sets, r, rho)
                assert verify_pmds(field, g, sets, r, rho) == want, (n, k, r, rho, q)
                verdicts[want] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 100, verdicts


def test_verify_fails_when_mu_r_below_k():
    # k = 5 > mu r = 4: each local restriction is a valid [3, 2] MDS code,
    # but no 5-subset meets both repair sets in at most 2 positions
    field = Field(64)
    sets = _repair_sets(6, 2, 2)
    g = _mixing_draw(field, 6, 5, 2, 2, np.random.default_rng(0))
    assert [linalg.rank(g[:, list(rs)], field) for rs in sets] == [2, 2]
    assert s_mu_size(6, 5, 2, 2, 5) == 0
    assert not _verify_by_puncturing(field, g, sets, 2, 2)
    assert not verify_pmds(field, g, sets, 2, 2)


def test_verify_one_repair_set_is_whole_code_mds():
    rng = np.random.default_rng(3)
    seen = Counter()
    for q in (8, 16):
        field = Field(q)
        for _ in range(30):
            g = rng.integers(0, q, size=(3, 6), dtype=np.int64)
            want = _is_mds_by_minors(field, g, 3)
            assert verify_pmds(field, g, [tuple(range(6))], 3, 4) == want
            seen[want] += 1
    assert seen[True] and seen[False]


def test_descriptor_carries_no_verified_flag(pmds_12_4):
    # the PMDS property is verify_pmds's to check, not a descriptor's to state
    obj = pmds_12_4.to_json()
    assert "verified" not in obj
    loaded = pmds.PmdsCode.from_json({**obj, "verified": True})
    assert loaded.to_json() == obj and not hasattr(loaded, "verified")


def _zero_row(rows, i):
    rows[i] = [0] * len(rows[i])


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda obj: obj["generator"].pop(), r"k x n generator .* got \(3, 12\) and \(8, 12\)"),
        (lambda obj: obj["parity"].pop(), r"\(n - k\) x n parity .* got \(4, 12\) and \(7, 12\)"),
        (lambda obj: obj.update(parity=[[0] * 12] * 8), r"rank 0, need n - k = 8"),
        (lambda obj: _zero_row(obj["parity"], 5), r"rank 7, need n - k = 8"),
        (lambda obj: obj["repair_sets"][1].__setitem__(0, 0), r"partition range\(12\)"),
        (lambda obj: obj.update(repair_sets=[list(range(6)), list(range(6, 12))]),
         r"partition range\(12\) into sets of size r \+ rho - 1 = 3"),
        # r + rho - 1 = 3 still matches the repair sets, so only the shape
        # check refuses these
        (lambda obj: obj.update(r=5, rho=-1), r"^r = 5 exceeds the limit k = 4$"),
        (lambda obj: obj.update(r=3, rho=1), r"^rho = 1 is below the limit 2$"),
    ],
    ids=["generator-rows", "parity-rows", "parity-zero", "parity-rank-7", "overlap", "size-6",
         "r-5-rho-minus-1", "r-3-rho-1"],
)
def test_from_json_rejects_malformed_descriptors(pmds_12_4, tamper, message):
    obj = pmds_12_4.to_json()
    assert pmds.PmdsCode.from_json(obj).to_json() == obj
    tamper(obj)
    with pytest.raises(ValueError, match=message):
        pmds.PmdsCode.from_json(obj)


def test_verify_rejects_non_partition():
    field = Field(16)
    g = np.ones((2, 6), dtype=np.int64)
    with pytest.raises(ValueError, match=r"partition range\(6\) into sets of size r \+ rho - 1 = 3"):
        verify_pmds(field, g, [(0, 1, 2), (2, 3, 4)], 2, 2)


@pytest.mark.parametrize(
    "n, k, r, rho", DIFF_SHAPES + [(15, 8, 4, 2), (12, 6, 2, 2), (14, 6, 3, 5), (8, 0, 2, 3)]
)
def test_information_sets_enumerated_once(n, k, r, rho):
    sets = _repair_sets(n, r, rho)
    got = list(_information_sets(sets, k, r))
    assert len(got) == len(set(got)) == s_mu_size(n, k, r, rho, k)
    want = {
        c
        for c in itertools.combinations(range(n), k)
        if all(len(set(c) & set(rs)) <= r for rs in sets)
    }
    assert set(got) == want


def test_verify_ranks_each_information_set_once(monkeypatch, pmds_12_4):
    calls = []
    rank = linalg.rank

    def counting(a, field):
        calls.append(np.shape(a))
        return rank(a, field)

    monkeypatch.setattr(linalg, "rank", counting)
    code = pmds_12_4
    assert verify_pmds(code.field, code.generator, code.repair_sets, 2, 2)
    assert calls == [(4, 4, 3), (459, 4, 4)]


def test_verify_budget_is_counted_before_ranking(monkeypatch, pmds_12_4):
    def no_rank(*_):
        raise AssertionError("ranked before the budget check")

    monkeypatch.setattr(linalg, "rank", no_rank)
    monkeypatch.setattr(pmds, "_RANK_BUDGET", 462)
    code = pmds_12_4
    with pytest.raises(RuntimeError, match="needs 463 rank tests, over the limit of 462"):
        verify_pmds(code.field, code.generator, code.repair_sets, 2, 2)


def _sha(a):
    a = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


# sha256 of (shape, int64 bytes) of generator and parity, recorded with the
# puncture-pattern verifier; the accepted draw is the 19th, 15th, 9th, 38th,
# 27th and 1st, so every verdict along those draws is pinned.
RANDOM_PMDS_PINS = [
    ((64, 12, 4, 2, 2, 1), "e9d486f945f47652c3a0995ae1fbd01c21941a05fce56e14d59941e62b3bc3d7",
     "466bdb263b43ce410a48309261cf3314a86e942e74f5c7b9690175da48d37a58"),
    ((64, 12, 4, 2, 2, 2), "31b4c84001189644bb87db18eb1a3e78242b098b02068cf7eb56dac0dfe395cf",
     "daae42f67517861460f0041efcb390f4f506b5ca6370986f04e32a553e4236a6"),
    ((64, 12, 4, 2, 2, 3), "00647b7425d9587528eb88efdfc501585a5358032a7d683f5d8bebfe64f45415",
     "2987ccae36ac0709d57a824a78bdf16c01bb97ba089259c96cfb57ae1f49b0c7"),
    ((16, 12, 6, 2, 2, 1), "cc896c8a6af62bd7bc2beb2ded93fc935b49f39caf9851c1669fb1f7c92ccae1",
     "c2ac8f1af5bb02404a322ebb2374df4242cf9672bea08f50680c152265be0cbb"),
    ((16, 12, 6, 2, 2, 2), "0ca5836c12de2f68c23692a3cb2c8e7018af465bf0422374b4a77ac50ba8236d",
     "8fa4a676119dc9f4ef42d6d5302603399ec58c5e46bfae62f2fb3cadce5edbe2"),
    ((1024, 12, 4, 2, 2, 1), "bcd8ae5ee91628cd5e65f84708c81844586988ea2d791750b77c3d88d7a86005",
     "f950518b11dc212fa724ce2f35ec2d14725daca13389b3aee7ad5a3a44628e29"),
]


@pytest.mark.parametrize("args, gen_sha, parity_sha", RANDOM_PMDS_PINS)
def test_random_pmds_pinned(args, gen_sha, parity_sha):
    q, n, k, r, rho, seed = args
    code = random_pmds(q, n, k, r, rho, seed=seed)
    assert (_sha(code.generator), _sha(code.parity)) == (gen_sha, parity_sha)


def test_random_pmds_pinned_rejection():
    # all 50 draws for this seed are rejected
    with pytest.raises(ValueError, match="no PMDS instance found in 50 tries; use a larger field than 16"):
        random_pmds(16, 12, 6, 2, 2, seed=3)


# -- counting ----------------------------------------------------------------------

def test_s_mu_15_8_4_2():
    # exhaustively verified good-set count
    assert s_mu_size(15, 8, 4, 2, 9) == 4375
    assert complement_count_closed_form(15, 8, 4) == 630
    assert math.comb(15, 9) - complement_count_closed_form(15, 8, 4) == 4375
    assert Fraction(4375, math.comb(15, 9)) == Fraction(125, 143)


def test_s_mu_exhaustive():
    rs = [tuple(range(i * 5, (i + 1) * 5)) for i in range(3)]
    count = sum(
        1
        for subset in itertools.combinations(range(15), 9)
        if all(sum(1 for x in subset if x in set(r)) <= 4 for r in rs)
    )
    assert count == s_mu_size(15, 8, 4, 2, 9)


def test_s_mu_no_constraint():
    # r = n_l: every subset qualifies
    assert s_mu_size(12, 4, 3, 1, 5) == math.comb(12, 5)


def test_closed_form_matches_dp_complement():
    for (n, k, r) in [(15, 8, 4), (12, 4, 2), (18, 10, 5), (20, 9, 3)]:
        if n % (r + 1):
            continue
        alt = complement_count_closed_form(n, k, r)
        good = s_mu_size(n, k, r, 2, k + 1)
        assert math.comb(n, k + 1) - good == alt


def test_rank_full_fraction():
    # brute force: all 2^6 binary 3x2 matrices, 42 have rank 2
    count = 0
    for bits in range(64):
        m = np.array([[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(3)])
        count += np.linalg.matrix_rank(m.astype(float)) == 2
    assert count == 42
    assert rank_full_fraction(2, 3, 2) == Fraction(42, 64)
    assert rank_full_fraction(16, 5, 0) == 1
    assert rank_full_fraction(7, 1, 1) == Fraction(6, 7)
    assert rank_full_fraction(16, 2, 3) == 0


# -- bounds ------------------------------------------------------------------------

def test_sk1_bound_rho2_collapse():
    n, k, r = 15, 8, 4
    expected = 1 - n * ((k + 1) / n) ** (r + 1)
    assert sk1_bound(n, k, r, 2) == pytest.approx(expected)


def test_sk1_bound_is_lower_bound():
    for (n, k, r, rho) in [(15, 8, 4, 2), (45, 16, 8, 8), (70, 24, 8, 3)]:
        exact_good = 1 - failure_prob_exact(n, k, r, rho, n - k - 1)
        assert float(exact_good) >= sk1_bound(n, k, r, rho) - 1e-12


def test_union_bound_checkpoints():
    ub2 = float(union_bound_failure(70, 24, 8, 3))
    ub3 = float(union_bound_failure(196, 156, 26, 3))
    assert f"{ub2:.2e}" == "1.68e-03"
    assert f"{ub3:.2e}" == "7.71e-02"


def test_union_bound_dominates_exact():
    for (n, k, r, rho) in [(70, 24, 8, 3), (196, 156, 26, 3), (45, 16, 8, 8)]:
        exact = failure_prob_exact(n, k, r, rho, n - k - 1)
        assert exact <= union_bound_failure(n, k, r, rho)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sk1_bound(30, 10, 3, 1), r"^rho = 1 is below the limit 2$"),
        (lambda: sk1_bound(0, 10, 3, 2), r"^k = 10 exceeds the limit n = 0$"),
        (lambda: sk1_bound(0, 0, 3, 2), r"^n = 0 is below the limit 1$"),
        (lambda: sk1_bound(30, 10.0, 3, 2), r"^k = 10\.0 is not an integer$"),
        (lambda: asymptotic_predicates(0, 10, 3, 2, 2, 2),
         r"^k = 10 exceeds the limit n = 0$"),
        (lambda: asymptotic_predicates(30, 10, 3, 1, 2, 2), r"^rho = 1 is below the limit 2$"),
        (lambda: complement_count_closed_form(15, 8, -1), r"^r = -1 is below the limit 0$"),
        (lambda: complement_count_closed_form(15, 8, 3),
         r"^repair-set size n_l = r \+ rho - 1 = 4 must divide n = 15$"),
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        "<lambda>-^rho = 1 must be at least 2$0",
        r"<lambda>-^dimension k = 10 must be in \[0, n = 0\]$0",
        "<lambda>-^length n = 0 must be at least 1$",
        r"<lambda>-^k = 10\.0 is not an integer$",
        r"<lambda>-^dimension k = 10 must be in \[0, n = 0\]$1",
        "<lambda>-^rho = 1 must be at least 2$1",
        "<lambda>-^locality r = -1 must be at least 0$",
        r"<lambda>-^repair-set size n_l = r \+ rho - 1 = 4 must divide n = 15$",
    ],
)
def test_bound_helpers_refuse_bad_arguments(call, message):
    # each used to raise math.comb's unnamed error or divide by zero
    with pytest.raises(ValueError, match=message):
        call()


def test_asymptotic_predicates():
    rate, growth = asymptotic_predicates(196, 156, 26, 3, c1=1.05, c2=1.1)
    assert isinstance(rate, bool) and isinstance(growth, bool)
    # low-rate code with large locality satisfies both for c1 = 2:
    # C(10,1)^(-1/9) = 0.774 > 2*25/70 and r+1 = 9 >= 1.4*log2(70)
    assert asymptotic_predicates(70, 24, 8, 3, c1=2.0, c2=1.4) == (True, True)
    with pytest.raises(ValueError, match=r"^c1 = 1\.0 is at or below the limit 1$"):
        asymptotic_predicates(70, 24, 8, 3, c1=1.0, c2=2.0)
    with pytest.raises(ValueError, match=r"^c2 = 0\.5 is at or below the limit 1$"):
        asymptotic_predicates(70, 24, 8, 3, c1=2.0, c2=0.5)


# -- exact failure probability -------------------------------------------------------

PAPER_SETS = {
    (45, 16, 8, 8): {28: "9.87e-02", 25: "2.73e-03", 22: "4.27e-06"},
    (70, 24, 8, 3): {45: "1.68e-03", 42: "4.03e-10"},
    (196, 156, 26, 3): {39: "7.62e-02", 30: "6.56e-19"},
}


def test_failure_prob_reference_values():
    for (n, k, r, rho), table in PAPER_SETS.items():
        for t, expected in table.items():
            assert f"{float(failure_prob_exact(n, k, r, rho, t)):.2e}" == expected


def test_failure_prob_support_edges():
    for (n, k, r, rho) in PAPER_SETS:
        d = n - k + 1 - (math.ceil(k / r) - 1) * (rho - 1)
        assert failure_prob_exact(n, k, r, rho, d - 2) == 0
        assert failure_prob_exact(n, k, r, rho, 0) == 0
        assert failure_prob_exact(n, k, r, rho, n - k) == 1
        assert failure_prob_exact(n, k, r, rho, n) == 1


def test_failure_prob_monotone_in_t():
    n, k, r, rho = 45, 16, 8, 8
    vals = [failure_prob_exact(n, k, r, rho, t) for t in range(0, n + 1)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_dp_matches_exhaustive_classification():
    shapes = [(12, 4, 2, 2), (12, 6, 2, 2), (10, 4, 2, 4), (14, 6, 3, 5)]
    for (n, k, r, rho) in shapes:
        n_l = r + rho - 1
        rs = [tuple(range(i * n_l, (i + 1) * n_l)) for i in range(n // n_l)]
        for t in range(n + 1):
            bad = sum(
                1
                for e in itertools.combinations(range(n), t)
                if not excess_criterion(rs, n, k, r, e)
            )
            assert failure_prob_exact(n, k, r, rho, t) == Fraction(bad, math.comb(n, t))


def test_memoization_order_independent():
    # querying in different orders returns identical exact values
    args = (45, 16, 8, 8)
    forward = [failure_prob_exact(*args, t) for t in range(20, 30)]
    backward = [failure_prob_exact(*args, t) for t in reversed(range(20, 30))]
    assert forward == list(reversed(backward))


@pytest.mark.parametrize(
    "func, args, message",
    [
        (failure_prob_exact, (30, 10, 3, 2, 31), r"^t = 31 exceeds the limit n = 30$"),
        (failure_prob_exact, (30, 10, 3, 2, -1), r"^t = -1 is below the limit 0$"),
        (failure_prob_exact, (30, 10, 3, 2, 5), r"n_l = r \+ rho - 1 = 4 must divide n = 30"),
        (failure_prob_exact, (30, 10, 1, 0, 5), r"^n_l = r \+ rho - 1 = 0 is below the limit 1$"),
        (failure_prob_exact, (30, 10, -1, 3, 5), r"^r = -1 is below the limit 0$"),
        (s_mu_size, (30, 10, 3, 2, 5), r"n_l = r \+ rho - 1 = 4 must divide n = 30"),
        (union_bound_failure, (10, 4, 2, 2), r"n_l = r \+ rho - 1 = 3 must divide n = 10"),
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        r"failure_prob_exact-args0-error weight t = 31 must be in \[0, n = 30\]",
        r"failure_prob_exact-args1-error weight t = -1 must be in \[0, n = 30\]",
        r"failure_prob_exact-args2-n_l = r \+ rho - 1 = 4 must divide n = 30",
        r"failure_prob_exact-args3-n_l = r \+ rho - 1 = 0 must be at least 1",
        "failure_prob_exact-args4-locality r = -1 must be at least 0",
        r"s_mu_size-args5-n_l = r \+ rho - 1 = 4 must divide n = 30",
        r"union_bound_failure-args6-n_l = r \+ rho - 1 = 3 must divide n = 10",
    ],
)
def test_pmds_counts_reject_bad_shapes(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


@pytest.mark.parametrize(
    "func, args, message",
    [
        (failure_prob_exact, (30, 40, 3, 3, 5), r"^k = 40 exceeds the limit n = 30$"),
        (failure_prob_exact, (30, -5, 3, 3, 5), r"^k = -5 is below the limit 0$"),
        (failure_prob_exact, (30, 10, 3, 3, 5.0), r"^t = 5\.0 is not an integer$"),
        (failure_prob_exact, (30, 10, 3, True, 5), r"^rho = True is not an integer$"),
        (failure_prob_exact, (30, 10, 3, 0, 5), r"^rho = 0 is below the limit 1$"),
        (s_mu_size, (15, 8, 4, 2, 2.5), r"^size = 2\.5 is not an integer$"),
        (s_mu_size, (15, 16, 4, 2, 5), r"^k = 16 exceeds the limit n = 15$"),
        (union_bound_failure, (15, 15, 4, 2), r"^k = 15 exceeds the limit n - 1 = 14$"),
        (union_bound_failure, (15.0, 8, 4, 2), r"^n = 15\.0 is not an integer$"),
        (rank_full_fraction, (0, 3, 2), r"^q = 0 is below the limit 2$"),
        (rank_full_fraction, (2, 3, -1), r"^t = -1 is below the limit 0$"),
        (rank_full_fraction, (2, -1, 0), r"^ell = -1 is below the limit 0$"),
        (rank_full_fraction, (2.0, 3, 1), r"^q = 2\.0 is not an integer$"),
        (mk_success_prob, (15, 8, 4, 2, 6, 16, -1), r"^ell = -1 is below the limit 0$"),
        (mk_success_prob, (15, 8, 4, 2, 6, 1, 8), r"^q = 1 is below the limit 2$"),
        (mk_success_prob, (15, 8, 4, 2, 16, 16, 8), r"^t = 16 exceeds the limit n = 15$"),
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        r"failure_prob_exact-args0-^dimension k = 40 must be in \[0, n = 30\]$",
        r"failure_prob_exact-args1-^dimension k = -5 must be in \[0, n = 30\]$",
        r"failure_prob_exact-args2-^t = 5\.0 is not an integer$",
        "failure_prob_exact-args3-^rho = True is not an integer$",
        "failure_prob_exact-args4-^rho = 0 must be at least 1$",
        r"s_mu_size-args5-^size = 2\.5 is not an integer$",
        r"s_mu_size-args6-^dimension k = 16 must be in \[0, n = 15\]$",
        r"union_bound_failure-args7-^dimension k = 15 must be in \[0, n - 1 = 14\]$",
        r"union_bound_failure-args8-^n = 15\.0 is not an integer$",
        "rank_full_fraction-args9-^field size q = 0 must be at least 2$",
        "rank_full_fraction-args10-^t = -1 must be at least 0$",
        "rank_full_fraction-args11-^ell = -1 must be at least 0$",
        r"rank_full_fraction-args12-^field size q = 2\.0 is not an integer$",
        "mk_success_prob-args13-^ell = -1 must be at least 0$",
        "mk_success_prob-args14-^field size q = 1 must be at least 2$",
        r"mk_success_prob-args15-^error weight t = 16 must be in \[0, n = 15\]$",
    ],
)
def test_pmds_counts_reject_bad_arguments(monkeypatch, func, args, message):
    # refused before any generating-function power is built
    def no_power(*a):
        raise AssertionError("_power called before the arguments were checked")

    monkeypatch.setattr(pmds, "_power", no_power)
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_pmds_counts_take_numpy_integers():
    # numpy integers are read as ints, not left to overflow in the counts
    args = (300, 240, 12, 4, 30)
    assert failure_prob_exact(*map(np.int64, args)) == failure_prob_exact(*args)
    assert s_mu_size(*map(np.int64, (300, 240, 12, 4, 200))) == s_mu_size(300, 240, 12, 4, 200)
    assert rank_full_fraction(*map(np.int64, (2**13, 8, 6))) == rank_full_fraction(2**13, 8, 6)


def test_s_mu_size_out_of_range_sizes():
    assert s_mu_size(15, 8, 4, 2, -1) == 0
    assert s_mu_size(15, 8, 4, 2, 16) == 0


def test_failure_prob_many_repair_sets():
    # mu = 1000 repair sets of size 2; every weight-1000 support fails
    assert failure_prob_exact(2000, 1000, 1, 2, 1000) == 1


def _kept_count_classes(r, rho, mu):
    """Weight of every kept-count vector (w_1..w_mu) in [0, n_l]^mu, binned
    by (kept positions, total excess, beta)."""
    n_l = r + rho - 1
    classes = Counter()
    for ws in itertools.product(range(n_l + 1), repeat=mu):
        beta = int(any(0 < w <= r for w in ws))
        excess = sum(max(0, w - r) for w in ws)
        classes[sum(ws), excess, beta] += math.prod(math.comb(n_l, w) for w in ws)
    return classes


def test_failure_prob_matches_kept_count_enumeration():
    rng = random.Random(4)
    seen = set()
    for _ in range(40):
        r, rho = rng.randint(1, 6), rng.randint(1, 5)
        n_l = r + rho - 1
        mu = rng.randint(1, 5)
        while (n_l + 1) ** mu > 5000:
            mu -= 1
        n = mu * n_l
        classes = _kept_count_classes(r, rho, mu)
        for k in (rng.randint(0, n), rng.randint(0, min(r, n))):
            cases = {"rho=1": rho == 1, "k<r": k < r, "k>mu*r": k > mu * r}
            seen |= {case for case, hit in cases.items() if hit}
            for t in range(n + 1):
                bad = sum(
                    weight
                    for (kept, excess, beta), weight in classes.items()
                    if kept == n - t and excess > n - k - t - beta
                )
                assert failure_prob_exact(n, k, r, rho, t) == Fraction(
                    bad, math.comb(n, t)
                ), (n, k, r, rho, t)
    assert seen == {"rho=1", "k<r", "k>mu*r"}


def _every_j(n, k, r, rho, t):
    """failure_prob_exact as it was before its [lo, hi) window: every j in
    [0, min(mu, theta)] builds G^j to z^theta and B^(mu-j) to y^(r mu - k - 1)."""
    mu = n // (r + rho - 1)
    n_l = r + rho - 1
    theta = n - k - t
    c = r * mu - (n - t)
    deficit = [math.comb(n_l, r - d) for d in range(r + 1)]
    excess = [0] + [math.comb(n_l, w) for w in range(r + 1, n_l + 1)]
    good = 0
    for j in range(min(mu, theta) + 1):
        g = pmds._power(excess, j, theta)
        b = pmds._power(deficit, mu - j, r * mu - k - 1)
        part = sum(g[s] * b[c + s] for s in range(max(0, -c), theta))
        if r * j == k:
            part += g[theta]
        good += math.comb(mu, j) * part
    total = math.comb(n, t)
    return Fraction(total - good, total)


def test_failure_prob_matches_every_j_loop():
    # the benchmark's shapes at every t, W3's shape at a few, and seeded
    # small shapes that reach each edge of the window
    cases = [(*shape, t) for shape in ((45, 16, 8, 8), (70, 24, 8, 3), (196, 156, 26, 3),
                                       (300, 240, 12, 4)) for t in range(shape[0] + 1)]
    cases += [(1023, 900, 30, 4, t) for t in (0, 36, 60, 100, 122, 123, 124)]
    rng = random.Random(34)
    seen = set()
    for _ in range(60):
        r, rho = rng.randint(0, 5), rng.randint(1, 5)
        while r + rho - 1 < 1:
            rho += 1
        n_l, mu = r + rho - 1, rng.randint(1, 5)
        n = mu * n_l
        for k in {rng.randint(0, n), r * mu, 0}:
            hits = {"r mu = k": r * mu == k, "c < 0": r * mu < n, "rho = 1": rho == 1,
                    "r = 0": r == 0, "k = 0": k == 0, "k > mu r": k > mu * r}
            seen |= {case for case, hit in hits.items() if hit}
            cases += [(n, k, r, rho, t) for t in range(n + 1)]
    assert seen == {"r mu = k", "c < 0", "rho = 1", "r = 0", "k = 0", "k > mu r"}
    for case in cases:
        assert failure_prob_exact(*case) == _every_j(*case), case


def test_failure_prob_powers_only_live_terms(monkeypatch):
    # on (300, 240, 12, 4), r mu = k leaves every inner window empty; only
    # the edge term [z^theta] G^20 (j = mu) remains, and only for theta >= 20
    calls = []
    real = pmds._power
    monkeypatch.setattr(pmds, "_power", lambda *a: calls.append(a[1]) or real(*a))
    for t in range(301):
        calls.clear()
        failure_prob_exact(300, 240, 12, 4, t)
        assert calls == ([20] if t <= 40 else []), t


def test_failure_prob_w3_digest():
    # sha256 of str(Fraction) as computed by the earlier recursive DP
    val = failure_prob_exact(1023, 900, 30, 4, 100)
    assert hashlib.sha256(str(val).encode()).hexdigest() == (
        "ac2d0c99c483bcb89534a6e3a1af32891158edc0a5a11f3a9b86961eae0dd603"
    )


def test_mk_success_prob_endpoint():
    val = mk_success_prob(15, 8, 4, 2, 6, q=2**13, ell=8)
    assert abs(float(val) - 125 / 143) < 1e-6
    # t <= d - 2 with enormous field: success approaches 1
    assert float(mk_success_prob(15, 8, 4, 2, 4, q=2**13, ell=8)) > 0.999
