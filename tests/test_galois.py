import numpy as np
import pytest

from lrcdec import linalg
from lrcdec.galois import (
    Field,
    _factor_prime_power,
    _is_irreducible,
    default_modulus,
    lagrange_interpolate,
)
from lrcdec.grs import GrsCode
from lrcdec.interleaved import InterleavedWord, mk_decode
from lrcdec.listdec import DecodeConfig, list_decode_lrc, unique_decode_probabilistic
from lrcdec.pmds import PmdsCode


def test_gf16_inverse_definition(gf16):
    for a in range(1, 16):
        assert gf16.mul(a, gf16.inv(a)) == 1


def test_gf16_generator_power():
    # modulus x^4 + x + 1: g = x, so g^4 = x + 1
    f = Field(16, modulus=19)
    assert f.pow(2, 4) == 3


def test_gf5_addition():
    f = Field(5)
    assert f.add(3, 4) == 2


def test_default_moduli_are_smallest_irreducible():
    assert default_modulus(2, 2) == 0b111
    assert default_modulus(2, 3) == 0b1011
    assert default_modulus(2, 4) == 0b10011
    assert default_modulus(2, 8) == 0b100011011


RECORDED_MODULI = [2, 7, 11, 19, 37, 67, 131, 283, 515, 1033, 2053, 4105, 8219,
                   16417, 32771, 65579, 131081, 262153, 524327, 1048585]


def test_default_moduli_recorded():
    assert [default_modulus(2, m) for m in range(1, 21)] == RECORDED_MODULI


def _gf2_rem(a, b):
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def test_irreducibility_matches_trial_division():
    # every polynomial of degree 2..10; f is reducible iff some g of degree
    # 1..deg(f)/2 divides it
    checked = 0
    for f in range(1 << 2, 1 << 11):
        half = (f.bit_length() - 1) // 2
        oracle = all(_gf2_rem(f, g) for g in range(2, 1 << (half + 1)))
        assert _is_irreducible(f) == oracle, f
        checked += 1
    assert checked == 2044


def test_reducible_modulus_rejected():
    for q, modulus in [
        (16, 0b10001),  # x^4 + 1 = (x+1)^4
        (8, 9),  # x^3 + 1 = (x+1)(x^2+x+1)
        (64, 69),  # x^6 + x^2 + 1 = (x^3+x+1)^2
        (64, 121),  # x^6 + x^5 + x^4 + x^3 + 1 = (x^2+x+1)(x^4+x+1)
    ]:
        with pytest.raises(ValueError, match="reducible"):
            Field(q, modulus=modulus)


@pytest.mark.parametrize(
    "modulus, message",
    [
        # -19 has bit_length 5, so it passed as monic of degree 4, and the
        # irreducibility test never returned: b >>= 1 stays at -1
        (-19, r"modulus = -19 is below the limit 16"),
        (19.0, r"modulus = 19\.0 is not an integer"),
        (3, r"modulus = 3 is below the limit 16"),
        (40, r"modulus = 40 exceeds the limit 2\^\(m\+1\) - 1 = 31"),
    ],
    ids=["minus-19", "float-19", "degree-1", "degree-5"],
)
def test_modulus_outside_degree_m_names_the_limit(modulus, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Field(16, modulus)


def test_modulus_may_be_a_numpy_integer():
    field = Field(16, np.int64(19))
    assert field == Field(16, 19) and type(field.modulus) is int


def test_division_by_zero():
    f = Field(16)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_serialization_roundtrip():
    for q in (2, 5, 8, 16, 1024):
        f = Field(q)
        assert Field.from_json(f.to_json()) == f


@pytest.mark.parametrize("q", [2, 5, 13, 8, 16, 64])
def test_field_axioms_randomized(q):
    import random

    f = Field(q)
    rnd = random.Random(q)
    for _ in range(1000):
        a, b, c = (rnd.randrange(q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
        if b:
            assert f.mul(f.mul(a, f.inv(b)), b) == a


def test_gf16_mul_matches_raw():
    """The table product is the table-free one on every pair, over GF(16)
    and the prime fields."""
    for q in (16, 2, 3, 5, 7, 13, 251):
        f = Field(q)
        for a in range(q):
            assert [f.mul(a, b) for b in range(q)] == [f._mul_raw(a, b) for b in range(q)], (q, a)


def _horner(field, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def test_interpolate_single_point(gf16):
    assert lagrange_interpolate(gf16, [(3, 7)]) == (7,)


def test_interpolate_roundtrip(gf16):
    import random

    rnd = random.Random(0)
    for i in range(50):
        field = gf16 if i % 2 else Field(13)
        k = rnd.randrange(1, 8)
        coeffs = [rnd.randrange(field.q) for _ in range(k)]
        pts = [(x, _horner(field, coeffs, x)) for x in range(8)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        f = lagrange_interpolate(field, pts)
        assert f == tuple(coeffs)
        assert all(type(c) is int for c in f)


def test_interpolate_duplicate_abscissa(gf16):
    with pytest.raises(ValueError):
        lagrange_interpolate(gf16, [(1, 2), (1, 3)])


def test_error_poly_interpolation_hits_error_values(gf16):
    # single error at position j: the interpolant through the error vector
    # evaluates back to it everywhere
    locs = list(range(1, 16))
    e = [0] * 15
    e[4] = 9
    f = lagrange_interpolate(gf16, list(zip(locs, e)))
    assert [_horner(gf16, f, a) for a in locs] == e


@pytest.mark.parametrize(
    "q, message",
    [(1, r"q = 1 is below the limit 2"), (2**20 + 1, r"q = 1048577 exceeds the limit 2\^20 = 1048576"),
     (4.0, r"q = 4\.0 is not an integer")],
)
def test_field_order_outside_its_range_names_the_limit(q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Field(q)


def test_field_order_may_be_a_numpy_integer():
    # Field(np.int64(16)) used to raise AttributeError on q.bit_length()
    field = Field(np.int64(16))
    assert field == Field(16) and type(field.q) is int


def test_odd_extension_field_arithmetic():
    """Odd-characteristic extension fields have no arithmetic: Field(q) refuses them."""
    for q in (9, 25, 27):
        with pytest.raises(ValueError, match="power of 2 or a prime"):
            Field(q)


def test_field_orders_are_the_primes_and_powers_of_two():
    # prime factors by trial division here, independent of Field's own
    for q in range(2, 300):
        primes = {p for p in range(2, q + 1) if q % p == 0 and all(p % f for f in range(2, p))}
        if len(primes) > 1:
            with pytest.raises(ValueError, match=f"{q} is not a prime power"):
                Field(q)
        elif primes in ({2}, {q}):
            assert (Field(q).p, Field(q).q) == (min(primes), q)
        else:
            with pytest.raises(ValueError, match="power of 2 or a prime"):
                Field(q)


def test_factor_prime_power_gives_the_exponent():
    # checked against a trial division of its own
    for m in range(1, 21):
        assert _factor_prime_power(2**m) == (2, m)
    for q in range(2, 300):
        if all(q % f for f in range(2, q)):
            assert _factor_prime_power(q) == (q, 1)
    for q in (6, 12, 2 * 3**5):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            _factor_prime_power(q)



def _retype(word, bad, at):
    """word as nested lists, with every symbol cast to the type of bad and
    bad at position at; as Python ints for bad = None."""
    out = np.array(word, dtype=np.int64).astype(object)
    if bad is not None:
        out = np.vectorize(type(bad), otypes=[object])(out)
        out[at] = bad
    return out.tolist()


@pytest.fixture(scope="module")
def symbol_inputs(tb_15_6, pmds_12_4):
    """Valid inputs of every public entry that takes symbols."""
    grs = GrsCode(tb_15_6.field, list(range(1, 16)), [1] * 15, 5)
    cw = grs.encode([1, 2, 3, 4, 5])
    _, short_w, c_s = grs.shorten_received(cw, [0, 1])
    mk_cw = linalg.matmul(np.arange(32).reshape(8, 4), pmds_12_4.generator, pmds_12_4.field)
    return dict(grs=grs, cw=cw, short_w=short_w, c_s=c_s, lrc=tb_15_6, pmds=pmds_12_4,
                lrc_cw=tb_15_6.encode([3, 1, 4, 1, 5, 9]), mk_cw=mk_cw,
                cfg=DecodeConfig(t_l=1, t_g=5))


# entry -> (the name its error gives the input, call(inputs, bad)), each
# call given a valid input with its symbols retyped and bad at one position
SYMBOL_ENTRIES = {
    "GrsCode": ("locators", lambda x, bad: GrsCode(
        x["grs"].field, _retype(range(1, 16), bad, 2), [1] * 15, 5)),
    "GrsCode.encode": ("message", lambda x, bad: x["grs"].encode(_retype([0, 1, 2], bad, 1))),
    "gs_list_decode": ("received word", lambda x, bad: x["grs"].gs_list_decode(
        _retype(x["cw"], bad, 2), 3)),
    "shorten_received": ("received word", lambda x, bad: x["grs"].shorten_received(
        _retype(x["cw"], bad, 2), [0, 1])),
    "unshorten": ("shortened codeword", lambda x, bad: x["grs"].unshorten(
        [0, 1], x["c_s"], _retype(x["short_w"], bad, 2))),
    "LrcCode.encode": ("message", lambda x, bad: x["lrc"].encode(
        _retype([3, 1, 4, 1, 5, 9], bad, 2))),
    "is_codeword": ("received word", lambda x, bad: x["lrc"].is_codeword(
        _retype(x["lrc_cw"], bad, 2))),
    "list_decode_lrc": ("received word", lambda x, bad: list_decode_lrc(
        x["lrc"], _retype(x["lrc_cw"], bad, 2), x["cfg"])),
    "unique_decode_probabilistic": ("received word", lambda x, bad: unique_decode_probabilistic(
        x["lrc"], _retype(x["lrc_cw"], bad, 2), x["cfg"])),
    "mk_decode": ("received word", lambda x, bad: mk_decode(
        x["pmds"].field, x["pmds"].parity,
        InterleavedWord(x["pmds"].field, _retype(x["mk_cw"], bad, (3, 5))))),
    "PmdsCode.from_json": ("generator", lambda x, bad: PmdsCode.from_json(dict(
        x["pmds"].to_json(), generator=_retype(x["pmds"].generator, bad, (1, 2))))),
}


@pytest.mark.parametrize("bad", [3.0, "3", True, 2**64], ids=["float", "str", "bool", "2^64"])
@pytest.mark.parametrize("entry", list(SYMBOL_ENTRIES))
def test_every_symbol_entry_refuses_non_integers(symbol_inputs, entry, bad):
    # each entry used to cast with int64: 3.0 and "3" read as 3, True as 1,
    # and 2^64 raised OverflowError; Field.check_symbols now refuses the type
    name, call = SYMBOL_ENTRIES[entry]
    with pytest.raises(ValueError, match=rf"^{name} holds \S+ values, need int64 symbols of GF"):
        call(symbol_inputs, bad)


def test_a_bool_among_ints_is_the_symbol_one(symbol_inputs):
    # check_symbols tests the dtype: numpy reads the mixed list as int64, so
    # True there is 1, as in Python; a word of bools alone is refused
    grs = symbol_inputs["grs"]
    assert grs.gs_list_decode([True] + [0] * 14, 3) == grs.gs_list_decode([1] + [0] * 14, 3)
    with pytest.raises(ValueError, match=r"^received word holds bool values"):
        grs.gs_list_decode(np.array([True] + [False] * 14), 3)


def test_valid_inputs_of_the_symbol_entries_pass(symbol_inputs):
    # the same inputs as Python ints are accepted, so the refusals above
    # are about the type alone
    for _, call in SYMBOL_ENTRIES.values():
        call(symbol_inputs, None)


@pytest.mark.parametrize(
    "call, symbol",
    [("inv", (-1,)), ("inv", (16,)), ("mul", (-1, 1)), ("mul", (1, 16)), ("mul", (3, -2)),
     ("pow", (-3, 2)), ("pow", (16, -1)), ("pow", (-1, 0))],
)
def test_scalar_ops_refuse_symbols_outside_the_field(gf16, call, symbol):
    # the tables would read a negative symbol from their end, and one past
    # q would raise a bare IndexError; each call names the symbol and q
    bad = next(a for a in symbol[:2 if call == "mul" else 1] if not 0 <= a < 16)
    with pytest.raises(ValueError, match=rf"symbol {bad:#x} is not in GF\(16\)"):
        getattr(gf16, call)(*symbol)
    with pytest.raises(ZeroDivisionError):
        gf16.inv(0)
    # the ends of the range still pass
    assert gf16.mul(15, gf16.inv(15)) == 1 and gf16.mul(0, 15) == 0
    assert gf16.pow(15, -1) == gf16.inv(15) and gf16.pow(0, 0) == 1
