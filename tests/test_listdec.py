import copy
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lrcdec import (
    DecodeConfig,
    BudgetExceeded,
    Field,
    GrsCode,
    LrcCode,
    construct_tamo_barg,
    linalg,
    list_decode_lrc,
    listdec,
    unique_decode_probabilistic,
)
from lrcdec.grs import gs_parameters
from lrcdec.listdec import (
    DecodingList,
    _decode_shortened,
    _local_stage,
    _shortening_size,
    _validate_cfg,
    default_t_g,
    interleaved_success_prob,
    pe_tilde,
    success_prob_general,
    success_prob_grs,
)
from lrcdec.radii import CodeShape, johnson_errors, list_size_bounds, refined_error_count

CFG = DecodeConfig(t_l=1, t_g=5)


def corrupt(rng, field, word, weight):
    pos = rng.choice(len(word), size=weight, replace=False)
    w = list(word)
    for p in pos:
        w[p] = field.add(w[p], int(rng.integers(1, field.q)))
    return tuple(w)


# -- list decoder ------------------------------------------------------------------

def test_zero_error_list_is_exact(tb_15_6):
    cw = tb_15_6.encode([1, 2, 3, 4, 5, 6])
    out = list_decode_lrc(tb_15_6, cw, CFG)
    assert out.codewords == [cw]
    assert out.complete
    unique = unique_decode_probabilistic(tb_15_6, cw, CFG)
    local = tb_15_6.local_groups[0][0].gs_list_decode([cw[i] for i in tb_15_6.repair_sets[0]], 1)
    assert all(type(s) is int for w in [cw, unique] + out.codewords + local for s in w)


def test_weight5_containment_seeded(tb_15_6):
    for i in range(100):
        rng = np.random.default_rng([2024, i])
        msg = rng.integers(0, 16, size=6).tolist()
        cw = tb_15_6.encode(msg)
        w = corrupt(rng, tb_15_6.field, cw, 5)
        out = list_decode_lrc(tb_15_6, w, CFG)
        assert cw in out.codewords
        assert all(
            sum(1 for a, b in zip(c, w) if a != b) <= 5 and tb_15_6.is_codeword(c)
            for c in out.codewords
        )


@pytest.fixture(scope="module")
def tb_63_16():
    return construct_tamo_barg(Field(64), 63, 16, 8, 14)


@pytest.mark.parametrize("seed", range(4))
def test_planted_pair_beyond_johnson_is_listed(tb_63_16, seed):
    # f = (x^n_l - beta_0^n_l) h(x), h of degree r - 1 = 7 vanishing at 7
    # locators of repair set 1, uses only the monomials x^i and x^(n_l + i),
    # i < r, so it is a codeword; it vanishes on repair set 0 and at those
    # 7 locators, weight 63 - 28 = d = 35.  The word takes c2 = c1 + f on 18
    # positions of f's support and 6 errors off it: at distance 24 from c1
    # and 23 from c2, both past the Johnson radius and within t_g = 24
    code, F = tb_63_16, tb_63_16.field
    n_l, loc = code.shape.n_l, code.supercode.locators
    rng = np.random.default_rng([63, seed])
    beta = F.pow(loc[code.repair_sets[0][0]], n_l)
    gammas = [loc[i] for i in rng.choice(code.repair_sets[1], size=7, replace=False)]
    scale = int(rng.integers(1, 64))

    def f_at(x):
        v = F.mul(scale, F.sub(F.pow(x, n_l), beta))
        for g in gammas:
            v = F.mul(v, F.sub(x, g))
        return v

    f = [f_at(x) for x in loc]
    support = [i for i in range(code.n) if f[i]]
    assert len(support) == code.d == 35 and code.is_codeword(f)
    c1 = code.encode(rng.integers(0, 64, size=code.k).tolist())
    c2 = tuple(F.add(a, b) for a, b in zip(c1, f))
    word = list(c1)
    for i in rng.choice(support, size=18, replace=False):
        word[i] = c2[i]
    off = [i for i in range(code.n) if not f[i]]
    for i in rng.choice(off, size=6, replace=False):
        word[i] = F.add(word[i], int(rng.integers(1, 64)))
    dist = [sum(a != b for a, b in zip(c, word)) for c in (c1, c2)]
    assert dist == [24, 23] and min(dist) > johnson_errors(code.n, code.d, F.q)
    cfg = DecodeConfig(t_l=8, t_g=24)
    out = list_decode_lrc(code, word, cfg)
    assert c1 in out.codewords and c2 in out.codewords
    assert all(
        sum(a != b for a, b in zip(c, word)) <= 24 and code.is_codeword(c) for c in out.codewords
    )
    assert len(out.codewords) <= list_size_bounds(code.shape, 8, 64)[1] == 167
    assert unique_decode_probabilistic(code, word, cfg) in (None, c1, c2)


def test_low_weight_words_decode_without_interpolation(tb_63_16, monkeypatch):
    # codewords hit by w <= 10 errors spread over the three repair sets, at
    # most 4 in each: every local [21, 8] decode at t_l = 8 and every
    # shortened [42, 8] decode at t_g - chi is settled by an error-free
    # member of its plan, so nothing interpolates and the sent codeword is
    # listed
    code = tb_63_16
    cfg = DecodeConfig(t_l=8, t_g=24)

    def guarded(self, *args):
        raise AssertionError(f"a [{self.n}, {self.k}] decode interpolated")

    monkeypatch.setattr(GrsCode, "_gs_interpolate", guarded)
    for w in range(11):
        rng = np.random.default_rng([63, w])
        cw = code.encode(rng.integers(0, 64, size=code.k).tolist())
        word = list(cw)
        for j, rs in enumerate(code.repair_sets):
            for i in rng.choice(rs, size=(w + 2 - j) // 3, replace=False):
                word[i] = code.field.add(word[i], int(rng.integers(1, 64)))
        assert sum(a != b for a, b in zip(cw, word)) == w
        out = list_decode_lrc(code, word, cfg)
        assert cw in out.codewords
        assert out.local_gs_paths == {"settled": 3, "covered": 0, "interpolated": 0}
        assert out.shortened_gs_paths == {
            "settled": out.shortened_decodes, "covered": 0, "interpolated": 0
        }
        assert unique_decode_probabilistic(code, word, cfg) == cw


def test_list_size_within_bounds(tb_15_6):
    shape = CodeShape(15, 6, 3, 3)
    basic, improved = list_size_bounds(shape, t_l=1)
    rng = np.random.default_rng(7)
    for _ in range(50):
        cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
        w = corrupt(rng, tb_15_6.field, cw, int(rng.integers(0, 6)))
        out = list_decode_lrc(tb_15_6, w, CFG)
        assert len(out.codewords) <= improved <= basic


def test_cfg_validation(tb_15_6):
    with pytest.raises(ValueError):
        list_decode_lrc(tb_15_6, (0,) * 15, DecodeConfig(t_l=2, t_g=5))
    with pytest.raises(ValueError):
        list_decode_lrc(tb_15_6, (0,) * 15, DecodeConfig(t_l=1, t_g=6))
    for cfg, name in ((DecodeConfig(t_l=-1, t_g=5), "t_l"), (DecodeConfig(t_l=1, t_g=-2), "t_g")):
        msg = rf"{name} = -\d+ is below the limit 0"
        with pytest.raises(ValueError, match=msg):
            list_decode_lrc(tb_15_6, (0,) * 15, cfg)
        with pytest.raises(ValueError, match=msg):
            unique_decode_probabilistic(tb_15_6, (0,) * 15, cfg)
    with pytest.raises(ValueError, match=r"t_l = -1 is below the limit 0"):
        default_t_g(tb_15_6, -1)
    assert default_t_g(tb_15_6, 0) >= 0


FLOAT_CONFIGS = {
    "t_l = 1.0": DecodeConfig(t_l=1.0, t_g=5),
    "t_g = 5.0": DecodeConfig(1, 5.0),
    "budget = 2.5": DecodeConfig(1, 5, budget=2.5),
}


@pytest.mark.parametrize(
    "entry, value",
    [("gs_list_decode", "t = 3.0"), ("default_t_g", "t_l = 1.0"),
     *((entry, value) for entry in ("list", "unique") for value in FLOAT_CONFIGS)],
    ids=["gs_list_decode", "default_t_g",
         *(f"{entry}-{value.split()[0]}" for entry in ("list", "unique") for value in FLOAT_CONFIGS)],
)
def test_radii_and_budget_must_be_integers(tb_15_6, entry, value):
    # a float t used to decode as its integer, die with TypeError, or run
    cfg = FLOAT_CONFIGS.get(value)
    word = (0,) * 15
    calls = {
        "gs_list_decode": lambda: GrsCode(tb_15_6.field, range(1, 16), [1] * 15, 5).gs_list_decode(
            word, 3.0),
        "default_t_g": lambda: default_t_g(tb_15_6, 1.0),
        "list": lambda: list_decode_lrc(tb_15_6, word, cfg),
        "unique": lambda: unique_decode_probabilistic(tb_15_6, word, cfg),
    }
    with pytest.raises(ValueError, match=rf"^{value} is not an integer$"):
        calls[entry]()


def test_received_word_is_checked(tb_15_6):
    for decode in (list_decode_lrc, unique_decode_probabilistic):
        with pytest.raises(ValueError, match=r"received word has 14 symbols, need n = 15"):
            decode(tb_15_6, (0,) * 14, CFG)
        for bad, text in ((16, "0x10"), (-1, "-0x1")):
            word = (0,) * 3 + (bad,) + (0,) * 11
            msg = rf"symbol {text} at position 3 is not in GF\(16\)"
            with pytest.raises(ValueError, match=msg):
                decode(tb_15_6, word, CFG)


def test_budget_exceeded_carries_partial(tb_15_6):
    # this word takes two shortened decodes; a budget below 1 is refused
    rng = np.random.default_rng(4)
    cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
    w = corrupt(rng, tb_15_6.field, cw, 5)
    with pytest.raises(
        BudgetExceeded,
        match=r"budget 1 exceeded: 2 shortened decodes, 2 combinations explored",
    ) as exc:
        list_decode_lrc(tb_15_6, w, DecodeConfig(t_l=1, t_g=5, budget=1))
    assert exc.value.partial.complete is False
    assert exc.value.partial.shortened_decodes >= 1
    for decode in (list_decode_lrc, unique_decode_probabilistic):
        with pytest.raises(ValueError, match=r"budget = 0 is below the limit 1"):
            decode(tb_15_6, w, DecodeConfig(t_l=1, t_g=5, budget=0))


def test_unique_decoder_cleans_to_the_nearest_local_entry(monkeypatch):
    # the unique decoder cleans each chosen repair set to the nearest entry
    # of its local list, lists[j][0].  On the [15, 3] code with r = 1 and
    # rho = 3 at (t_l, t_g) = (2, 8) it shortens 3 of the 5 repair sets, and
    # a local [3, 1] decode at radius 2 often lists more than one entry, so
    # a pick other than the nearest one shows on seeded weight-t_g words
    code = construct_tamo_barg(Field(16), 15, 3, 1, 3)
    cfg = DecodeConfig(t_l=2, t_g=8)
    assert _shortening_size(code, cfg) == 3
    stages, calls = [], []
    monkeypatch.setattr(listdec, "_local_stage", lambda *a: stages.append(_local_stage(*a)) or stages[-1])
    monkeypatch.setattr(listdec, "_decode_shortened", lambda *a: calls.append(a[2:4]) or _decode_shortened(*a))
    rng = np.random.default_rng(36)
    several = 0
    for _ in range(20):
        stages.clear()
        calls.clear()
        cw = code.encode(rng.integers(0, 16, size=3).tolist())
        unique_decode_probabilistic(code, corrupt(rng, code.field, cw, cfg.t_g), cfg)
        (_, lists, order), = stages
        if len(order) < 3:
            assert calls == []
            continue
        (chosen, picks), = calls
        assert list(picks) == [lists[j][0] for j in chosen]
        several += any(len(lists[j]) > 1 for j in chosen)
    assert several >= 10


def test_decoders_build_no_code_shape(tb_15_6, monkeypatch):
    # the code carries its shape; decoding and validation only read it
    built = []
    post_init = CodeShape.__post_init__
    monkeypatch.setattr(CodeShape, "__post_init__", lambda s: built.append(s) or post_init(s))
    rng = np.random.default_rng(5)
    cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
    w = corrupt(rng, tb_15_6.field, cw, 4)
    assert cw in list_decode_lrc(tb_15_6, w, CFG).codewords
    assert unique_decode_probabilistic(tb_15_6, w, CFG) == cw
    assert default_t_g(tb_15_6, 1) == 5
    assert built == []
    CodeShape(15, 6, 3, 3)
    assert len(built) == 1  # the patch does count constructions


def test_inner_steps_check_no_symbols(tb_15_6, monkeypatch):
    # a word's symbols are checked at the public entry it comes in by; the
    # inner steps, _shorten per position set and _gs_near per batch of GS
    # decodes, take them checked
    depth, calls, checks = [0], [], []
    check_symbols = Field.check_symbols

    def counted(name, step):
        def wrapped(self, *args):
            calls.append(name)
            depth[0] += 1
            try:
                return step(self, *args)
            finally:
                depth[0] -= 1

        return wrapped

    def counted_check(self, word, n=None, name="received word", *args):
        if name == "received word":  # not the locators of a new shortened code
            checks.append(depth[0])
        return check_symbols(self, word, n, name, *args)

    for name in ("_shorten", "_gs_near"):
        monkeypatch.setattr(GrsCode, name, counted(name, getattr(GrsCode, name)))
    monkeypatch.setattr(Field, "check_symbols", counted_check)
    rng = np.random.default_rng(7)
    cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
    assert cw in list_decode_lrc(tb_15_6, corrupt(rng, tb_15_6.field, cw, 5), CFG).codewords
    assert set(calls) == {"_shorten", "_gs_near"} and checks and not any(checks)


def test_global_only_path(tb_15_6):
    # t_g // (t_l + 1) = 4 >= mu = 3, so no repair set is shortened away and
    # the whole received word goes to the global decoder
    cfg = DecodeConfig(t_l=0, t_g=4)
    for i in range(40):
        rng = np.random.default_rng([31, i])
        cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
        w = corrupt(rng, tb_15_6.field, cw, i % 5)
        out = list_decode_lrc(tb_15_6, w, cfg)
        assert out.codewords == [cw]
        assert out.combinations_explored == out.shortened_decodes == 1
        assert out.complete
        assert unique_decode_probabilistic(tb_15_6, w, cfg) == cw


def test_global_decode_drops_supercode_words_outside_the_lrc(tb_15_6):
    # with no repair set shortened away the supercode decode lists supercode
    # codewords; those with a coefficient at a degree outside the support
    # (here x^3 and x^4) are not in the LRC, and the parity test drops them
    cfg, sup = DecodeConfig(t_l=0, t_g=4), tb_15_6.supercode
    for i in range(10):
        rng = np.random.default_rng([34, i])
        coeffs = rng.integers(0, 16, size=8).tolist()
        coeffs[3] = int(rng.integers(1, 16))
        c = sup.encode(coeffs)
        w = corrupt(rng, tb_15_6.field, c, i % 5)
        assert sup.gs_list_decode(w, 4) == [c] and not tb_15_6.is_codeword(c)
        assert list_decode_lrc(tb_15_6, w, cfg).codewords == []
        assert unique_decode_probabilistic(tb_15_6, w, cfg) is None


def test_stats_populated(tb_15_6):
    cw = tb_15_6.encode([0, 1, 2, 3, 4, 5])
    out = list_decode_lrc(tb_15_6, cw, CFG)
    assert out.local_list_sizes == [1, 1, 1]
    assert out.shortened_decodes >= 1
    # every GS decode is counted once, by its path: the repair sets of a
    # codeword are settled by R, and so are the shortened words
    assert out.local_gs_paths == {"settled": 3, "covered": 0, "interpolated": 0}
    assert out.shortened_gs_paths == {
        "settled": out.shortened_decodes, "covered": 0, "interpolated": 0
    }


def test_known_codewords_skip_the_membership_test(tb_15_6, monkeypatch):
    # each of the three shortened decodes of a codeword lists it again; the
    # list decoder passes what it found so far, so only the first is tested
    cw, tested = tb_15_6.encode([0, 1, 2, 3, 4, 5]), []
    is_codeword = LrcCode.is_codeword
    monkeypatch.setattr(LrcCode, "is_codeword", lambda self, w: tested.append(w) or is_codeword(self, w))
    out = list_decode_lrc(tb_15_6, cw, CFG)
    assert out.codewords == [cw] and out.shortened_decodes == 3
    assert [tuple(w.tolist()) for w in tested] == [cw]
    # the unique decoder has no earlier list, so its one decode tests it
    assert unique_decode_probabilistic(tb_15_6, cw, CFG) == cw and len(tested) == 2


def own_local_codes(code):
    """Each repair set's own GrsCode, from that set's locators and multipliers."""
    sup = code.supercode
    return [
        GrsCode(code.field, [sup.locators[i] for i in idx], [sup.multipliers[i] for i in idx], code.r)
        for idx in code.repair_sets
    ]


def mixed_15_6():
    """(15,6,3,3) over GF(16) with the supercode multiplier at position 1
    changed: repair set 0 spans a local code of its own, sets 1 and 2 share
    one."""
    obj = construct_tamo_barg(Field(16), 15, 6, 3, 3).to_json()
    obj["multipliers"][1] = 7
    return LrcCode.from_json(obj)


# (code, t_l, t_g, distinct local codes)
DIFFERENTIAL_CODES = {
    "15-6": (lambda: construct_tamo_barg(Field(16), 15, 6, 3, 3), 1, 5, 1),
    "63-16": (lambda: construct_tamo_barg(Field(64), 63, 16, 8, 14), 8, 24, 1),
    "30-16": (lambda: construct_tamo_barg(Field(31), 30, 16, 4, 3), 1, 5, 1),
    "15-6-mixed": (mixed_15_6, 1, 5, 2),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_CODES)
def test_grouped_local_stage_matches_own_local_codes(name):
    # the local stage decodes the sets of one local code together; decoding
    # each set with its own GrsCode must give the same lists, and a copy of
    # the code that keeps one group per set the same decoder outputs
    make, t_l, t_g, distinct = DIFFERENTIAL_CODES[name]
    code, cfg = make(), DecodeConfig(t_l, t_g)
    own = own_local_codes(code)
    assert len(code.local_groups) == distinct
    ungrouped = copy.copy(code)
    ungrouped.local_groups = tuple((c, [j], code._sets[[j]]) for j, c in enumerate(own))
    rng = np.random.default_rng([31, code.n, distinct])
    for weight in range(t_g + 1):
        cw = code.encode(rng.integers(0, code.field.q, size=code.k).tolist())
        word = np.array(corrupt(rng, code.field, cw, weight))
        result = DecodingList()
        lists = _local_stage(code, word, cfg, result)[1]
        assert sum(result.local_gs_paths.values()) == code.shape.mu
        for j, (local, idx) in enumerate(zip(own, code.repair_sets)):
            w = word[list(idx)]
            want = [(int((np.array(c) != w).sum()), c) for c in local.gs_list_decode(w, t_l)]
            assert lists[j] == sorted(want), (name, weight, j)
        got = list_decode_lrc(code, word, cfg)
        assert cw in got.codewords
        assert got == list_decode_lrc(ungrouped, word, cfg), (name, weight)
        unique = unique_decode_probabilistic(code, word, cfg)
        assert unique == unique_decode_probabilistic(ungrouped, word, cfg), (name, weight)


# (q, n, k, r, rho) of the Table-2 rows that list-decode in milliseconds, with
# whether the default t_g is past the Johnson count of the whole code
TABLE2_DECODED_ROWS = [
    (31, 30, 16, 4, 3, True),
    (31, 30, 15, 3, 3, True),
    (64, 63, 40, 5, 3, False),
]


@pytest.mark.parametrize("q, n, k, r, rho, gain", TABLE2_DECODED_ROWS)
def test_table2_rows_list_decode_at_default_radius(q, n, k, r, rho, gain):
    field = Field(q)
    code = construct_tamo_barg(field, n, k, r, rho)
    t_g = default_t_g(code, 1)
    johnson = johnson_errors(n, code.d)
    assert t_g > johnson if gain else t_g == johnson
    cfg = DecodeConfig(t_l=1, t_g=t_g)
    for i in range(3):
        rng = np.random.default_rng([q, n, k, i])
        cw = code.encode(rng.integers(0, q, size=k).tolist())
        w = corrupt(rng, field, cw, t_g)
        out = list_decode_lrc(code, w, cfg)
        assert cw in out.codewords
        assert out.complete
        for c in out.codewords:
            assert sum(a != b for a, b in zip(c, w)) <= t_g and code.is_codeword(c)


# -- shortened decode at the supercode dimension and the validated radius ------------

# (q, n, k, r, rho, t_l, refined t_g) of every Tamo-Barg code over GF(8) and
# GF(16) whose validated config chooses more repair-set positions than the
# supercode dimension: the shortened code is the zero code
ZERO_DIMENSION_TRIPLES = [
    (8, 7, 1, 1, 7, 6, 6), (8, 7, 2, 2, 6, 4, 4), (8, 7, 3, 3, 5, 3, 3),
    (8, 7, 4, 4, 4, 2, 2), (8, 7, 5, 5, 3, 1, 1), (8, 7, 6, 6, 2, 1, 1),
    (16, 3, 1, 1, 3, 2, 2), (16, 3, 2, 2, 2, 1, 1), (16, 5, 1, 1, 5, 4, 4),
    (16, 5, 2, 2, 4, 2, 2), (16, 5, 3, 3, 3, 1, 1), (16, 5, 4, 4, 2, 1, 1),
    (16, 15, 1, 1, 3, 2, 14), (16, 15, 2, 1, 3, 2, 11), (16, 15, 3, 1, 3, 2, 8),
    (16, 15, 4, 1, 3, 2, 5), (16, 15, 5, 1, 3, 2, 2), (16, 15, 6, 2, 2, 1, 5),
    (16, 15, 8, 2, 2, 1, 3), (16, 15, 10, 2, 2, 1, 1), (16, 15, 1, 1, 5, 4, 14),
    (16, 15, 2, 1, 5, 4, 9), (16, 15, 3, 1, 5, 4, 4), (16, 15, 6, 2, 4, 2, 2),
    (16, 15, 9, 3, 3, 1, 1), (16, 15, 12, 4, 2, 1, 1), (16, 15, 1, 1, 15, 14, 14),
    (16, 15, 2, 2, 14, 11, 11), (16, 15, 3, 3, 13, 9, 9), (16, 15, 4, 4, 12, 8, 8),
    (16, 15, 5, 5, 11, 7, 7), (16, 15, 6, 6, 10, 6, 6), (16, 15, 7, 7, 9, 5, 5),
    (16, 15, 8, 8, 8, 4, 4), (16, 15, 9, 9, 7, 4, 4), (16, 15, 10, 10, 6, 3, 3),
    (16, 15, 11, 11, 5, 2, 2), (16, 15, 12, 12, 4, 2, 2), (16, 15, 13, 13, 3, 1, 1),
    (16, 15, 14, 14, 2, 1, 1),
]


def tamo_barg_configs(qs):
    """(q, n, k, r, rho, t_l, refined t_g) of every constructible Tamo-Barg
    shape over GF(q), n | q - 1, at every t_l up to the local Johnson
    radius (for n <= 128 the closed form n_l - 1 - isqrt(n_l (r - 1)))."""
    for q in qs:
        for n in range(2, q):
            for n_l in range(2, n + 1):
                if (q - 1) % n or n % n_l:
                    continue
                for r in range(1, n_l):
                    for k in range(r, n + 1, r):
                        if (r - 1) + (k // r - 1) * n_l + 1 > n:
                            continue  # the supercode would be longer than n
                        shape = CodeShape(n, k, r, n_l - r + 1)
                        for t_l in range(johnson_errors(n_l, n_l - r + 1) + 1):
                            t_g = refined_error_count(shape, t_l, None)
                            yield q, n, k, r, n_l - r + 1, t_l, t_g


@pytest.mark.parametrize("q, n, k, r, rho, t_l, t_g", ZERO_DIMENSION_TRIPLES)
def test_zero_dimension_shortening_decodes_zero_word(q, n, k, r, rho, t_l, t_g):
    code = construct_tamo_barg(Field(q), n, k, r, rho)
    cfg = DecodeConfig(t_l, t_g)
    s_short = _shortening_size(code, cfg)
    assert s_short * code.shape.n_l > code.supercode.k
    # clean the first s_short repair sets to the zero local codeword
    zero, picks = (0,) * n, [(0, (0,) * code.shape.n_l)] * s_short
    assert _decode_shortened(code, zero, range(s_short), picks, cfg, DecodingList()) == [zero]
    local = code.local_groups[0][0]
    if local.k == 1 or gs_parameters(local.n, local.k, t_l)[0] <= 12:
        # (the local [15, 9] decode at t_l = 4 needs s = 33: tens of seconds)
        assert zero in list_decode_lrc(code, zero, cfg).codewords


def test_zero_dimension_shortening_matches_sphere_enumeration():
    rng = np.random.default_rng(35)
    small = [c for c in ZERO_DIMENSION_TRIPLES if c[0] ** c[2] <= 4096]
    assert len(small) == 18
    for q, n, k, r, rho, t_l, t_g in small:
        field = Field(q)
        code = construct_tamo_barg(field, n, k, r, rho)
        msgs = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64)
        book = linalg.matmul(msgs, code.generator, field)
        for weight in (t_g, t_g + 1, n):
            cw = book[rng.integers(len(book))].tolist()
            w = corrupt(rng, field, cw, min(weight, n))
            near = book[(book != np.array(w)).sum(axis=1) <= t_g]
            assert list_decode_lrc(code, w, DecodeConfig(t_l, t_g)).codewords == sorted(
                map(tuple, near.tolist())
            )


def test_refined_radius_within_shortened_gs_radius_seeded_scan():
    # every config is accepted: no refined t_g reaches past the radius of
    # the shortened GRS decode, zero-dimension shortenings included
    configs = list(tamo_barg_configs((8, 16, 32, 64)))
    assert len(configs) == 3337
    sample = random.Random(2019).sample(configs, 40) + ZERO_DIMENSION_TRIPLES[::4]
    for q, n, k, r, rho, t_l, t_g in sample:
        code = construct_tamo_barg(Field(q), n, k, r, rho)
        _validate_cfg(code, DecodeConfig(t_l, t_g))
        with pytest.raises(ValueError, match=rf"^t_g = {t_g + 1} exceeds the limit {t_g}, the refined error count for t_l = {t_l}$"):
            _validate_cfg(code, DecodeConfig(t_l, t_g + 1))


def test_validation_rejects_radius_past_shortened_decode(tb_15_6):
    # the same code in a supercode of dimension 12: shortening one repair set
    # leaves a [10, 7] GRS code, whose GS radius is 2 < t_g = 5
    obj = tb_15_6.to_json()
    obj["supercode_k"] = 12
    wide = LrcCode.from_json(obj)
    with pytest.raises(
        ValueError, match=r"^t_g = 5 exceeds the limit 2, the radius of the shortened \[10, 7\] GRS decode$"
    ):
        list_decode_lrc(wide, (0,) * 15, CFG)
    with pytest.raises(ValueError, match=r"t_g = 5 exceeds the limit 2, the radius"):
        unique_decode_probabilistic(wide, (0,) * 15, CFG)
    assert list_decode_lrc(wide, (0,) * 15, DecodeConfig(t_l=1, t_g=2)).codewords == [(0,) * 15]


# (t_l, refined t_g, the radius past gs_max_radius, its decode) of Tamo-Barg
# [63, 49, 49, 15] over GF(64), a single repair set: the only configs of
# tamo_barg_configs((8, 16, 32, 64)) that validation rejects.  The Johnson
# closed form allows 8 on the [63, 49] decodes, but no multiplicity s <= 255
# reaches it, so gs_max_radius(63, 49) is 7
UNREACHABLE_CONFIGS = [
    (4, 8, "t_g", "shortened"),
    (5, 8, "t_g", "shortened"),
    (6, 8, "t_g", "shortened"),
    (7, 8, "t_g", "shortened"),
    (8, 8, "t_l", "local"),
]


@pytest.fixture(scope="module")
def tb_63_49():
    return construct_tamo_barg(Field(64), 63, 49, 49, 15)


@pytest.mark.parametrize("t_l, t_g, name, role", UNREACHABLE_CONFIGS)
def test_validation_rejects_radius_no_multiplicity_reaches(tb_63_49, t_l, t_g, name, role):
    assert refined_error_count(tb_63_49.shape, t_l, None) == t_g
    cfg = DecodeConfig(t_l, t_g)
    msg = rf"^{name} = 8 exceeds the limit 7, the radius of the {role} \[63, 49\] GRS decode$"
    with pytest.raises(ValueError, match=msg):
        list_decode_lrc(tb_63_49, (0,) * 63, cfg)
    with pytest.raises(ValueError, match=msg):
        unique_decode_probabilistic(tb_63_49, (0,) * 63, cfg)
    if t_l < 8:
        # one radius less is reachable
        _validate_cfg(tb_63_49, DecodeConfig(t_l, t_g - 1))


# -- probabilistic unique decoder ----------------------------------------------------

def test_unique_zero_errors(tb_15_6):
    cw = tb_15_6.encode([9, 8, 7, 6, 5, 4])
    assert unique_decode_probabilistic(tb_15_6, cw, CFG) == cw


def test_unique_success_rate_meets_bound(tb_15_6):
    shape = CodeShape(15, 6, 3, 3)
    bound = float(success_prob_grs(shape, 16, 1, 5))
    trials, ok = 400, 0
    for i in range(trials):
        rng = np.random.default_rng([99, i])
        cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
        w = corrupt(rng, tb_15_6.field, cw, 5)
        ok += unique_decode_probabilistic(tb_15_6, w, CFG) == cw
    rate = ok / trials
    sigma3 = 3 * math.sqrt(max(bound * (1 - bound), 1e-9) / trials)
    assert rate >= bound - sigma3


def _largest_tail_count(trials: int, p: Fraction, alpha: Fraction) -> int:
    """The largest f with P(X >= f) >= alpha for X ~ Binomial(trials, p), exact."""
    tail = Fraction(0)
    for f in range(trials, -1, -1):
        tail += math.comb(trials, f) * p**f * (1 - p) ** (trials - f)
        if tail >= alpha:
            return f


@pytest.mark.parametrize(
    "q, n, k, r, rho, t_l, t_g, bound",
    [(31, 10, 2, 2, 4, 2, 6, 0.331), (61, 12, 3, 3, 4, 2, 7, 0.434)],
)
def test_unique_failures_within_the_bound_at_alpha(q, n, k, r, rho, t_l, t_g, bound):
    # the error model of success_prob_grs: t_g errors at a uniform position
    # set with uniform nonzero values.  P lies well inside (0, 1), so the
    # failure count is checked against the exact binomial tail under 1 - P
    # at alpha = 1e-6, and some word must have a local list of two or more
    code = construct_tamo_barg(Field(q), n, k, r, rho)
    cfg = DecodeConfig(t_l, t_g)
    p_ok = success_prob_grs(code.shape, q, t_l, t_g)
    assert float(p_ok) == pytest.approx(bound, abs=5e-4)
    trials, failures, several = 400, 0, 0
    for i in range(trials):
        rng = np.random.default_rng([37, n, i])
        cw = code.encode(rng.integers(0, q, size=k).tolist())
        w = corrupt(rng, code.field, cw, t_g)
        failures += unique_decode_probabilistic(code, w, cfg) != cw
        several += max(list_decode_lrc(code, w, cfg).local_list_sizes) >= 2
    assert failures <= _largest_tail_count(trials, 1 - p_ok, Fraction(1, 10**6))
    assert several > 0


def test_unique_consistent_with_list(tb_15_6):
    # when the unique decoder returns the transmitted word, the list contains it
    for i in range(60):
        rng = np.random.default_rng([5, i])
        cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
        w = corrupt(rng, tb_15_6.field, cw, int(rng.integers(0, 6)))
        got = unique_decode_probabilistic(tb_15_6, w, CFG)
        if got == cw:
            assert cw in list_decode_lrc(tb_15_6, w, CFG).codewords


def test_local_decodes_never_interpolate(tb_15_6, monkeypatch):
    # t_l = 1 on the [5, 3] local codes, whose members share no position:
    # the family covers t_l, so every local list is settled or covered; the
    # shortened [10, 3] decodes at t = 4 and 5 take an equal-parts cover of
    # 20 members, so no decode of either shape interpolates
    shortened = 0

    def guarded(self, *args):
        raise AssertionError(f"a [{self.n}, {self.k}] decode interpolated")

    monkeypatch.setattr(GrsCode, "_gs_interpolate", guarded)
    for i in range(120):
        rng = np.random.default_rng([24, i])
        cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
        w = corrupt(rng, tb_15_6.field, cw, i % 6)
        got = list_decode_lrc(tb_15_6, w, CFG)
        assert cw in got.codewords
        shortened += got.shortened_decodes
        unique_decode_probabilistic(tb_15_6, w, CFG)
    assert shortened > 120


def test_unique_rate_monotone_in_weight(tb_15_6):
    trials = 300
    rates = []
    for weight in range(6):
        ok = 0
        for i in range(trials):
            rng = np.random.default_rng([11, weight, i])
            cw = tb_15_6.encode(rng.integers(0, 16, size=6).tolist())
            w = corrupt(rng, tb_15_6.field, cw, weight)
            ok += unique_decode_probabilistic(tb_15_6, w, CFG) == cw
        rates.append(ok / trials)
    noise = 3 * math.sqrt(0.25 / trials)
    assert all(b <= a + noise for a, b in zip(rates, rates[1:]))


def test_adversarial_local_miscorrection(tb_15_6, gf16):
    # plant a second local codeword within t_l of the corrupted repair set:
    # the decoder may fail or miscorrect but never crashes, and the forced
    # choice can only confuse the planted repair set
    cw = tb_15_6.encode([1, 0, 0, 0, 0, 0])
    other = tb_15_6.encode([1, 0, 2, 0, 0, 0])  # differs inside repair sets
    local0 = tb_15_6.repair_sets[0]
    diff = [i for i in local0 if cw[i] != other[i]]
    assert len(diff) >= 3
    w = list(cw)
    for i in diff[:-1]:  # move within distance 1 of the wrong local word
        w[i] = other[i]
    got = unique_decode_probabilistic(tb_15_6, tuple(w), CFG)
    assert got is None or tb_15_6.is_codeword(got)


# -- probability formulas ---------------------------------------------------------

def test_pe_tilde_single_term():
    assert pe_tilde(10, 5, 16, 0) == Fraction(1, 15**4)


def test_pe_tilde_exactness_small():
    # n=4, d=3, q=4, t=2: 1/3^2 * (1 + 3*4 + 9*6)
    assert pe_tilde(4, 3, 4, 2) == Fraction(1 + 12 + 54, 9)


def test_pe_tilde_radius_exceeds_length():
    with pytest.raises(ValueError):
        pe_tilde(5, 3, 16, 6)


def test_success_prob_general_trivial():
    assert success_prob_general(3, 5, 1, 0.0, 1.0, 1.0) == 1.0
    # p_e = 0 leaves only the uniqueness factors
    assert success_prob_general(3, 5, 1, 0.0, 0.9, 0.8) == pytest.approx(0.9 * 0.8)


def test_success_prob_grs_is_the_clamped_product():
    # the oracle is the product as stated: (1 - pe_l)^mu (1 - pe_g), each
    # factor clamped at 0; rows where P = 0 are included
    zeros = 0
    for q in (2, 4, 16, 64, 1024):
        for shape in (CodeShape(15, 6, 3, 3), CodeShape(4, 2, 2, 3), CodeShape(30, 16, 4, 3),
                      CodeShape(12, 3, 3, 4), CodeShape(63, 16, 8, 14)):
            for t_l in range(min(shape.n_l, 3) + 1):
                for bar in range(t_l + 1, min(shape.n, 3 * (t_l + 1)) + 1):
                    pe_l = pe_tilde(shape.n_l, shape.rho, q, t_l)
                    n_short = (bar // (t_l + 1)) * shape.n_l
                    if bar > n_short or bar // (t_l + 1) > shape.mu:
                        continue
                    pe_g = pe_tilde(n_short, shape.d, q, bar)
                    want = max(1 - pe_l, Fraction(0)) ** shape.mu * max(1 - pe_g, Fraction(0))
                    got = success_prob_grs(shape, q, t_l, bar)
                    assert type(got) is Fraction and got == want, (q, shape, t_l, bar)
                    zeros += want == 0
    assert zeros > 0


def test_general_matches_grs_instantiation():
    # at q = 16 the global factor 1 - p_glob = -0.185 is clamped at 0; at
    # q = 32 every factor is positive and the product is the plain one
    shape = CodeShape(15, 6, 3, 3)
    t_l, bar = 1, 5
    for q in (16, 32):
        p_loc = pe_tilde(shape.n_l, shape.rho, q, t_l)
        n_short = (bar // (t_l + 1)) * shape.n_l
        p_glob = pe_tilde(n_short, shape.d, q, bar)
        f = bar // (t_l + 1)
        lhs = (1 - p_loc) ** f * (1 - p_loc) ** (shape.mu - f) * max(1 - p_glob, 0)
        assert lhs == success_prob_grs(shape, q, t_l, bar)
        assert float(lhs) == pytest.approx(success_prob_general(
            shape.mu, bar, t_l, float(p_loc), float(1 - p_loc), float(max(1 - p_glob, 0))
        ))


@pytest.mark.parametrize(
    "shape, t_l, bar, unclamped",
    [(CodeShape(4, 2, 2, 3), 2, 3, 344.05), (CodeShape(4, 1, 1, 2), 1, 2, 1.0515),
     (CodeShape(15, 6, 3, 3), 1, 5, -0.05362)],
)
def test_success_bounds_clamp_negative_factors(shape, t_l, bar, unclamped):
    # each factor 1 - pe_tilde is clamped at 0, so a negative factor, even
    # under an even power, gives 0 and not a value outside [0, 1]
    local = 1 - pe_tilde(shape.n_l, shape.rho, 16, t_l)
    glob = 1 - pe_tilde((bar // (t_l + 1)) * shape.n_l, shape.d, 16, bar)
    assert float(local**shape.mu * glob) == pytest.approx(unclamped, rel=1e-3)
    assert success_prob_grs(shape, 16, t_l, bar) == 0
    assert success_prob_general(shape.mu, bar, t_l, 1.5, 1.0, 1.0) == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: success_prob_general(3, 5, 1, -0.1, 1.0, 1.0), r"^p_e = -0\.1 is below the limit 0$"),
        (lambda: success_prob_general(3, 5, 1, 0.1, 1.1, 1.0),
         r"^p_local_unique = 1\.1 exceeds the limit 1$"),
        (lambda: success_prob_general(3, 5, 1, 0.1, 1.0, math.nan),
         r"^p_global_unique = nan is below the limit 0$"),
        (lambda: interleaved_success_prob(CodeShape(15, 6, 3, 3), 1, 16, 1, 5, -0.5, 1.0),
         r"^pr_uds_local = -0\.5 is below the limit 0$"),
        (lambda: interleaved_success_prob(CodeShape(15, 6, 3, 3), 1, 16, 1, 5, 1.0, 2.0),
         r"^pr_uds_global = 2\.0 exceeds the limit 1$"),
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        r"<lambda>-^p_e = -0\.1 must be at least 0$",
        r"<lambda>-^p_local_unique = 1\.1 must be in \[0, 1\]$",
        r"<lambda>-^p_global_unique = nan must be in \[0, 1\]$",
        r"<lambda>-^pr_uds_local = -0\.5 must be in \[0, 1\]$",
        r"<lambda>-^pr_uds_global = 2\.0 must be in \[0, 1\]$",
    ],
)
def test_success_bounds_refuse_probabilities_outside_unit_interval(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pe_tilde(10, 8, 1, 5), r"^q = 1 is below the limit 2$"),
        (lambda: pe_tilde(10, 8, 16, -1), r"^t = -1 is below the limit 0$"),
        (lambda: pe_tilde(10, 8, 16, 1.5), r"^t = 1\.5 is not an integer$"),
        (lambda: pe_tilde(10, 0, 16, 1), r"^d = 0 is below the limit 1$"),
        (lambda: success_prob_grs(CodeShape(15, 6, 3, 3), 1, 1, 5), r"^q = 1 is below the limit 2$"),
        (lambda: success_prob_grs(CodeShape(15, 6, 3, 3), 16, -1, 5),
         r"^t_l = -1 is below the limit 0$"),
        (lambda: success_prob_grs(CodeShape(15, 6, 3, 3), 16, 0, 5),
         r"^bar_t_g // \(t_l \+ 1\) = 5 exceeds the limit mu = 3$"),
        (lambda: interleaved_success_prob(CodeShape(15, 6, 3, 3), 0, 16, 1, 5, 1.0, 1.0),
         r"^ell = 0 is below the limit 1$"),
        (lambda: interleaved_success_prob(CodeShape(15, 6, 3, 3), 1, 16, 1, 2.0, 1.0, 1.0),
         r"^t_g = 2\.0 is not an integer$"),
        (lambda: success_prob_general(3, 5, -1, 0.1, 1.0, 1.0), r"^t_l = -1 is below the limit 0$"),
        (lambda: success_prob_general(1, 5, 1, 0.1, 0.0, 1.0),
         r"^t_g // \(t_l \+ 1\) = 2 exceeds the limit mu = 1$"),
    ],
    # fixed ids keep each case's name stable across rewordings of its message
    ids=[
        "<lambda>-^q = 1 is below the limit 2$0",
        "<lambda>-^t = -1 is below the limit 0$",
        r"<lambda>-^t = 1\.5 is not an integer$",
        "<lambda>-^d = 0 is below the limit 1$",
        "<lambda>-^q = 1 is below the limit 2$1",
        "<lambda>-^t_l = -1 is below the limit 0$0",
        r"<lambda>-^bar_t_g // \(t_l \+ 1\) = 5 exceeds mu = 3$",
        "<lambda>-^ell = 0 is below the limit 1$",
        r"<lambda>-^t_g = 2\.0 is not an integer$",
        "<lambda>-^t_l = -1 is below the limit 0$1",
        r"<lambda>-^t_g // \(t_l \+ 1\) = 2 exceeds mu = 1$",
    ],
)
def test_success_bounds_refuse_bad_arguments(call, message):
    # each used to divide by zero, raise a TypeError or return 0 for t < 0
    with pytest.raises(ValueError, match=message):
        call()


def test_success_prob_grs_needs_a_shortened_repair_set():
    # floor(bar_t_g / (t_l + 1)) = 0 shortens no repair set away; the error
    # names the arguments, not the internal shortened length 0
    shape = CodeShape(15, 6, 3, 3)
    for t_l, bar in ((2, 2), (1, 1), (1, 0), (0, 0)):
        message = rf"^bar_t_g = {bar} is below the limit t_l \+ 1 = {t_l + 1}$"
        with pytest.raises(ValueError, match=message):
            success_prob_grs(shape, 16, t_l, bar)
    assert isinstance(success_prob_grs(shape, 16, 2, 3), Fraction)  # at the limit it evaluates


def test_success_prob_grs_increases_with_q():
    shape = CodeShape(63, 16, 8, 14)
    vals = [success_prob_grs(shape, q, 8, 24) for q in (64, 128, 256)]
    assert vals[0] < vals[1] < vals[2]


def test_interleaved_success_prob():
    shape = CodeShape(15, 6, 3, 3)
    # all component probabilities 1: only the miscorrection factor remains
    only_first = interleaved_success_prob(shape, 2, 16, 1, 5, 1.0, 1.0)
    assert only_first == pytest.approx(float((1 - pe_tilde(5, 3, 16**2, 1)) ** 2))
    # t_l = 2: 1 - pe_tilde(5, 3, 16, 2) = -9.34 is clamped at 0, not squared
    assert interleaved_success_prob(shape, 1, 16, 2, 6, 1.0, 1.0) == 0.0
    # exponent bookkeeping: factors account for all mu repair sets
    f = 5 // 2
    assert f + (shape.mu - f) == shape.mu


@pytest.mark.parametrize("t_l, message", [(-1, r"t_l = -1 is below the limit 0"),
                                          (1.5, r"t_l = 1\.5 is not an integer")])
def test_interleaved_success_prob_names_t_l(t_l, message):
    # pe_tilde, which takes t_l as its t, is formed only from a checked t_l
    with pytest.raises(ValueError, match=f"^{message}$"):
        interleaved_success_prob(CodeShape(15, 6, 3, 3), 1, 16, t_l, 5, 1.0, 1.0)


def test_interleaved_matches_single_degree_form():
    # q = 32: at q = 16 the global uniqueness factor 1 - pe_tilde is -0.185,
    # not a probability, and interleaved_success_prob refuses it
    shape = CodeShape(15, 6, 3, 3)
    q, t_l, t_g = 32, 1, 5
    p_loc_unique = float(1 - pe_tilde(shape.n_l, shape.rho, q, t_l))
    p_glob = float(1 - pe_tilde((t_g // (t_l + 1)) * shape.n_l, shape.d, q, t_g))
    got = interleaved_success_prob(shape, 1, q, t_l, t_g, p_loc_unique, p_glob)
    ref = success_prob_general(
        shape.mu, t_g, t_l, float(pe_tilde(shape.n_l, shape.rho, q, t_l)),
        p_loc_unique, p_glob,
    )
    assert got == pytest.approx(ref)
