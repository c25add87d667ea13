import random
import re

import numpy as np
import pytest

from lrcdec import (
    DecodeConfig,
    Field,
    PmdsCode,
    construct_tamo_barg,
    list_decode_lrc,
    optimal_distance,
    verify_pmds,
)
from lrcdec.galois import lagrange_interpolate
from lrcdec.lrc import LrcCode
from lrcdec.radii import CodeShape
from test_listdec import tamo_barg_configs


def test_optimal_distance_values():
    assert optimal_distance(63, 16, 8, 14) == 35
    assert optimal_distance(15, 6, 3, 3) == 8
    # r = k: MDS, no locality penalty
    assert optimal_distance(20, 5, 5, 4) == 16


def test_construct_basic(tb_15_6):
    code = tb_15_6
    assert code.d == 8
    assert code.supercode.k == 8
    assert code.shape.mu == 3 and code.shape.n_l == 5
    assert code.encode([0] * 6) == (0,) * 15


def test_constructor_divisibility_errors(gf16):
    with pytest.raises(ValueError):
        construct_tamo_barg(gf16, 15, 5, 3, 3)  # r does not divide k
    with pytest.raises(ValueError):
        construct_tamo_barg(gf16, 10, 6, 3, 3)  # n_l does not divide n
    with pytest.raises(ValueError):
        construct_tamo_barg(Field(32), 15, 6, 3, 3)  # n does not divide q-1


def _scalar_locators(field, n, k, r, rho):
    """The Tamo-Barg points by the scalar product loop: coset j of the
    order-n_l subgroup <h> is g_n^j h^i for i in range(n_l), g_n of order n."""
    shape = CodeShape(n, k, r, rho)
    gn = field.pow(field.generator(), (field.q - 1) // n)
    h = field.pow(gn, shape.mu)
    locators = []
    for j in range(shape.mu):
        beta = field.pow(gn, j)
        for _ in range(shape.n_l):
            locators.append(beta)
            beta = field.mul(beta, h)
    return tuple(locators)


@pytest.mark.parametrize("q, n, k, r, rho", [
    (16, 15, 6, 3, 3), (64, 63, 16, 8, 14), (31, 30, 16, 4, 3), (61, 60, 8, 4, 3),
    (13, 12, 4, 2, 2), (1024, 33, 9, 9, 3), (256, 255, 10, 5, 13), (64, 21, 4, 2, 6),
    (16, 5, 2, 2, 4), (3001, 500, 99, 33, 68),
])
def test_tamo_barg_locators_match_the_scalar_power_loop(q, n, k, r, rho):
    field = Field(q)
    code = construct_tamo_barg(field, n, k, r, rho)
    assert code.supercode.locators == _scalar_locators(field, n, k, r, rho)


def test_local_restrictions_are_local_codewords(tb_15_6, grs_membership):
    rnd = random.Random(0)
    in_local = {j: grs_membership(local) for local, sets, _ in tb_15_6.local_groups for j in sets}
    for _ in range(100):
        msg = [rnd.randrange(16) for _ in range(6)]
        cw = tb_15_6.encode(msg)
        for j, idx in enumerate(tb_15_6.repair_sets):
            assert in_local[j](tuple(cw[i] for i in idx))


def test_restriction_partition_recovers_word(tb_15_6):
    cw = tb_15_6.encode([1, 2, 3, 4, 5, 6])
    rebuilt = [None] * 15
    for idx in tb_15_6.repair_sets:
        for pos, sym in zip(idx, [cw[i] for i in idx]):
            rebuilt[pos] = sym
    assert tuple(rebuilt) == cw


def test_generator_rows_of_supercode(tb_15_6):
    sup = tb_15_6.supercode.generator
    assert (tb_15_6.generator == sup[list(tb_15_6.degrees)]).all()
    assert not tb_15_6.generator.flags.writeable


def test_subcode_of_supercode(tb_15_6, grs_membership):
    rnd = random.Random(1)
    in_supercode = grs_membership(tb_15_6.supercode)
    for _ in range(100):
        cw = tb_15_6.encode([rnd.randrange(16) for _ in range(6)])
        assert in_supercode(cw)
        assert tb_15_6.is_codeword(cw)


def test_membership_rejects_supercode_non_members(tb_15_6, gf16, grs_membership):
    # a supercode word using a forbidden monomial is not an LRC word
    w = tb_15_6.supercode.encode([0, 0, 0, 1])  # x^3, degree 3 not in the support
    assert grs_membership(tb_15_6.supercode)(w)
    assert not tb_15_6.is_codeword(w)


def test_local_distance_exhaustive(tb_15_6):
    # one repair set, all 16^3 local codewords: minimum nonzero weight is rho = 3
    local = tb_15_6.local_groups[0][0]
    weights = set()
    for a in range(16):
        for b in range(16):
            for c in range(16):
                w = sum(1 for s in local.encode([a, b, c]) if s)
                if w:
                    weights.add(w)
    assert min(weights) == 3


def test_global_distance_sandwich(tb_15_6, gf16):
    # random-sampling lower bound on the minimum weight
    rnd = random.Random(2)
    min_w = 15
    for _ in range(3000):
        msg = [rnd.randrange(16) for _ in range(6)]
        if all(m == 0 for m in msg):
            continue
        w = sum(1 for s in tb_15_6.encode(msg) if s)
        min_w = min(min_w, w)
    assert min_w >= tb_15_6.d == 8
    # the bound is met with equality: a polynomial vanishing on one whole
    # repair-set coset and two further locators has weight exactly 8
    F = gf16
    coset0 = [tb_15_6.supercode.locators[i] for i in tb_15_6.repair_sets[0]]
    c = F.pow(coset0[0], 5)
    f = [F.neg(c), 0, 0, 0, 0, 1]  # x^5 - c
    for root in (tb_15_6.supercode.locators[5], tb_15_6.supercode.locators[10]):
        # times (x - root), coefficients lowest degree first
        f = [F.sub(lower, F.mul(root, same)) for same, lower in zip(f + [0], [0] + f)]
    w = tb_15_6.supercode.encode(f)
    assert tb_15_6.is_codeword(w)
    assert sum(1 for s in w if s) == 8


def test_message_layout(tb_15_6, gf16):
    # symbol (i, j) -> coefficient of x^(i + 5 j), row-major message order
    msg = [0] * 6
    msg[1] = 7  # i = 0, j = 1 -> degree 5
    assert tb_15_6.encode(msg) == tb_15_6.supercode.encode([0, 0, 0, 0, 0, 7])
    rnd = random.Random(3)
    msg = [rnd.randrange(16) for _ in range(6)]
    coeffs = [0] * 8
    for (i, j), sym in zip([(i, j) for i in range(3) for j in range(2)], msg):
        coeffs[i + 5 * j] = sym
    assert tb_15_6.encode(msg) == tb_15_6.supercode.encode(coeffs)
    with pytest.raises(ValueError, match="message has 5 symbols, need k = 6"):
        tb_15_6.encode(msg[:5])


def test_json_roundtrip(tb_15_6):
    code = LrcCode.from_json(tb_15_6.to_json())
    msg = [3, 1, 4, 1, 5, 9]
    assert code.encode(msg) == tb_15_6.encode(msg)


def test_validation_rejects_broken_partition(tb_15_6):
    obj = tb_15_6.to_json()
    obj["repair_sets"] = [list(range(5)), list(range(5, 10)), list(range(9, 14))]
    with pytest.raises(ValueError):
        LrcCode.from_json(obj)


@pytest.mark.parametrize("d", [6, 9])
def test_from_json_rejects_a_distance_other_than_the_shapes(tb_15_6, d):
    obj = tb_15_6.to_json()
    assert obj["d"] == 8
    obj["d"] = d
    with pytest.raises(ValueError, match=rf"^descriptor d = {d} differs from the shape's d = 8$"):
        LrcCode.from_json(obj)


@pytest.mark.parametrize(
    "sets",
    [[range(5), range(5, 10), range(9, 14)], [range(3), range(3, 9), range(9, 15)]],
    ids=["overlap", "sizes"],
)
def test_malformed_partition_has_one_message(tb_15_6, sets):
    # the LRC descriptor, a PMDS descriptor of the same code and verify_pmds
    # all reject the repair sets through the one partition check
    sets = [list(s) for s in sets]
    lrc_obj = dict(tb_15_6.to_json(), repair_sets=sets)
    pmds_obj = PmdsCode(tb_15_6.field, tb_15_6.generator, tb_15_6.parity,
                        tb_15_6.repair_sets, 15, 6, 3, 3).to_json()
    assert PmdsCode.from_json(pmds_obj).repair_sets == tb_15_6.repair_sets
    pmds_obj["repair_sets"] = sets
    messages = []
    for call in (lambda: LrcCode.from_json(lrc_obj), lambda: PmdsCode.from_json(pmds_obj),
                 lambda: verify_pmds(tb_15_6.field, tb_15_6.generator, sets, 3, 3)):
        with pytest.raises(ValueError) as info:
            call()
        messages.append(str(info.value))
    assert messages == ["repair sets must partition range(15) into sets of size r + rho - 1 = 5"] * 3


@pytest.mark.parametrize("symbol", [-1, 16])
def test_encode_and_membership_check_field_symbols(tb_15_6, symbol):
    # -1 used to encode to (15,) * 15 and pass as a codeword; 16 raised IndexError
    pattern = rf"symbol -?0x{abs(symbol):x} at position 2 is not in GF\(16\)"
    with pytest.raises(ValueError, match=pattern):
        tb_15_6.encode([0, 0, symbol, 0, 0, 0])
    with pytest.raises(ValueError, match=pattern):
        tb_15_6.supercode.encode([0, 0, symbol])
    with pytest.raises(ValueError, match=pattern.replace("position 2", "position 0")):
        tb_15_6.is_codeword([symbol] * 15)
    with pytest.raises(ValueError, match=pattern):
        tb_15_6.is_codeword([0, 0, symbol] + [0] * 12)
    assert tb_15_6.is_codeword([0] * 15)


@pytest.mark.parametrize("word", [[0] * 14, [0] * 16, [[0] * 15] * 2], ids=["14", "16", "2x15"])
def test_is_codeword_refuses_a_word_of_the_wrong_shape(tb_15_6, word):
    # it used to answer False, where the decoders refuse the word
    with pytest.raises(ValueError, match=r"^received word has .+, need n = 15$"):
        tb_15_6.is_codeword(word)


@pytest.mark.parametrize(
    "key, value, message",
    [("k", 6.0, "k = 6.0"), ("r", 3.0, "r = 3.0"), ("rho", 3.0, "rho = 3.0"),
     ("supercode_k", 8.0, "k = 8.0"), ("repair_sets", None, "repair-set position = 0.0"),
     ("degrees", None, "degree = 0.0"), ("k", True, "k = True")],
)
def test_descriptor_integer_fields_must_be_integers(tb_15_6, key, value, message):
    # these loaded, and simulate then died with a TypeError or IndexError;
    # None stands for the field's own entries as floats
    obj = tb_15_6.to_json()
    obj[key] = value if value is not None else np.array(obj[key], dtype=float).tolist()
    with pytest.raises(ValueError, match=rf"^{message} is not an integer$"):
        LrcCode.from_json(obj)


@pytest.mark.parametrize(
    "degrees, message",
    [([0, 5, 1, 6, 2, -1], "degree = -1 is below the limit 0"),
     ([0, 5, 1, 6, 2, 8], "degree = 8 exceeds the limit supercode_k - 1 = 7"),
     ([0, 5, 1, 6, 2, 0], "degree = 0 repeats"),
     ([0, 5, 1, 6, 2], "len(degrees) = 5 is below the limit 6"),
     ([0, 5, 1, 6, 2, 7, 3], "len(degrees) = 7 exceeds the limit k = 6")],
    ids=["negative", "supercode_k", "repeat", "k-1", "k+1"],
)
def test_degree_support_is_k_distinct_degrees_below_supercode_k(tb_15_6, degrees, message):
    # degree -1 used to load and read the supercode's last generator row;
    # the other refusals named neither the value nor the limit
    obj = tb_15_6.to_json()
    assert obj["degrees"] == [0, 5, 1, 6, 2, 7] and obj["supercode_k"] == 8
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LrcCode.from_json(dict(obj, degrees=degrees))
    # the degrees stay in message layout order, not sorted
    assert LrcCode.from_json(obj).degrees == (0, 5, 1, 6, 2, 7)


def test_a_bool_shape_value_is_not_an_integer():
    # r = True read as 1 and gave a shape with repair sets of size 3
    with pytest.raises(ValueError, match=r"^r = True is not an integer$"):
        CodeShape(15, 6, True, 3)


def test_validation_rejects_wrong_local_structure(tb_15_6):
    # shuffling coordinates across repair sets breaks the local GRS property
    obj = tb_15_6.to_json()
    rs = [list(s) for s in tb_15_6.repair_sets]
    rs[0][0], rs[1][0] = rs[1][0], rs[0][0]
    obj["repair_sets"] = rs
    with pytest.raises(ValueError):
        LrcCode.from_json(obj)


def test_validation_rejects_monomial_outside_local_code(tb_15_6):
    # x^3 restricted to a repair set of 5 points is not in the local [5, 3]
    # code spanned by 1, x, x^2 there
    obj = tb_15_6.to_json()
    obj["degrees"] = [0, 5, 1, 6, 2, 3]
    with pytest.raises(ValueError, match="leaves the local code"):
        LrcCode.from_json(obj)


def test_validation_reports_local_dimension(tb_15_6):
    # on a repair set x^5 and x^10 are multiples of 1, and x^11 of x, so
    # the restriction stays inside the local code but has rank 2
    obj = tb_15_6.to_json()
    obj["supercode_k"] = 12
    obj["degrees"] = [0, 5, 10, 1, 6, 11]
    with pytest.raises(ValueError, match=r"^local code 0 has dimension 2, expected 3$"):
        LrcCode.from_json(obj)


def test_validation_names_the_failing_repair_set(tb_15_6):
    # swapping a position between repair sets 1 and 2 breaks both; the
    # smaller j is named, though set 1 now spans a local code of its own
    obj = tb_15_6.to_json()
    rs = [list(s) for s in tb_15_6.repair_sets]
    rs[1][0], rs[2][0] = rs[2][0], rs[1][0]
    obj["repair_sets"] = rs
    with pytest.raises(ValueError, match="^restriction to repair set 1 leaves the local code$"):
        LrcCode.from_json(obj)


# every Table-2 row but the GF(3001) one, the [63, 49] code, and every
# shape over GF(8) and GF(16)
SHARING_ROWS = [(31, 30, 16, 4, 3), (31, 30, 15, 3, 3), (64, 63, 16, 8, 14),
                (64, 63, 40, 5, 3), (64, 63, 49, 49, 15)] + sorted(
    {config[:5] for config in tamo_barg_configs((8, 16))})


def test_tamo_barg_repair_sets_share_one_local_code():
    # f(beta_j x) ranges over the polynomials of degree < r as f does, so
    # every coset's local code is the same [n_l, r] RS code
    assert len(SHARING_ROWS) == 5 + 48
    for q, n, k, r, rho in SHARING_ROWS:
        code = construct_tamo_barg(Field(q), n, k, r, rho)
        (local, sets, positions), = code.local_groups
        assert (local.n, local.k) == (code.shape.n_l, code.r)
        assert sets == list(range(code.shape.mu))
        assert positions.tolist() == [list(s) for s in code.repair_sets]


def test_one_local_plan_and_settle_block_per_code():
    code = construct_tamo_barg(Field(64), 63, 16, 8, 14)
    rng = np.random.default_rng(16)
    cw = np.array(code.encode(rng.integers(0, 64, size=16).tolist()))
    word = cw.copy()
    word[rng.choice(63, size=20, replace=False)] ^= rng.integers(1, 64, size=20)
    assert tuple(cw.tolist()) in list_decode_lrc(code, word, DecodeConfig(8, 24)).codewords
    codes = [local for local, _, _ in code.local_groups]
    plans = {id(p) for c in codes for p in c._gs_plans.values()}
    blocks = {id(c._settle[1]) for c in codes if c._settle is not None}
    assert len(plans) == len(blocks) == 1


def _member_by_interpolation(code, word):
    """Oracle: the interpolant of word / nu uses only support monomials."""
    sup = code.supercode
    F = code.field
    pts = [(a, F.mul(w, F.inv(v))) for a, w, v in zip(sup.locators, word, sup.multipliers)]
    f = lagrange_interpolate(F, pts)
    return all(c == 0 or i in code.degrees for i, c in enumerate(f))


@pytest.mark.parametrize("k", [6, 9])
def test_membership_matches_interpolation_oracle(gf16, k):
    code = construct_tamo_barg(gf16, 15, k, 3, 3)
    rnd = random.Random(k)
    forbidden = [d for d in range(code.supercode.k) if d not in code.degrees]
    words = []
    for _ in range(40):
        words.append(tuple(rnd.randrange(16) for _ in range(15)))
        words.append(code.encode([rnd.randrange(16) for _ in range(k)]))
        coeffs = [0] * code.supercode.k
        for d in code.degrees:
            coeffs[d] = rnd.randrange(16)
        coeffs[rnd.choice(forbidden)] = rnd.randrange(1, 16)
        words.append(code.supercode.encode(coeffs))
    verdicts = [code.is_codeword(w) for w in words]
    assert verdicts == [_member_by_interpolation(code, w) for w in words]
    assert verdicts.count(True) == 40  # exactly the LRC words
