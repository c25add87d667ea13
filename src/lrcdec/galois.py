"""Finite-field arithmetic GF(q), q a power of 2 or a prime.

Field elements are plain Python ints in ``[0, q)``.  For q = 2^m the
integer is the bit vector of the element's coefficients (lowest degree
bit first); for q = p prime it is the residue mod p.  Every field
multiplies, inverts and raises to powers through its log/antilog
tables, whose zero sentinel makes ``exp[log[a] + log[b]]`` the product
of any a and b; only addition differs by characteristic (xor or mod p).
The default modulus of GF(2^m) is found by a search over GF(2)[x],
whose polynomials are bit masks too: a Rabin irreducibility test built
on one multiply-mod and one gcd.  There is no polynomial type:
``lagrange_interpolate`` returns a coefficient tuple.
``Field.check_symbols`` is the one gate of every word or symbol matrix
that enters the package: its type, its length and its range.

Fields are immutable after construction and safe to share across
threads; all operations are pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from ._kernels import powers

_MAX_ORDER = 1 << 20


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# GF(2)[x] on bit masks (bit i is the coefficient of x^i), used by the
# modulus search and by the table-free product of GF(2^m).
# ---------------------------------------------------------------------------

def _gf2_mulmod(a: int, b: int, mod: int) -> int:
    """a * b mod mod, for a of lower degree than mod."""
    top = 1 << (mod.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return r


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        a, b = b, a
    return a


def _is_irreducible(f: int) -> bool:
    """Rabin test: x^(2^m) == x mod f, and gcd(x^(2^(m/s)) - x, f) = 1."""
    m = f.bit_length() - 1
    if m < 2:
        return m == 1
    frob = [0b10]  # x^(2^e) mod f for e = 0..m
    for _ in range(m):
        frob.append(_gf2_mulmod(frob[-1], frob[-1], f))
    if frob[m] != 0b10:
        return False
    return all(_gf2_gcd(frob[m // s] ^ 0b10, f) == 1 for s in _prime_factors(m))


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> int:
    """Smallest monic irreducible of degree m over GF(2), bit-encoded.

    "Smallest" orders polynomials by their integer encoding, which makes
    the default reproducible across implementations.  Prime fields
    (m = 1) get p, which their arithmetic never reads.
    """
    if m == 1:
        return p
    if p != 2:
        raise ValueError(f"no extension fields of characteristic {p}; need p = 2")
    for v in range(1 << m, 2 << m):
        if _is_irreducible(v):
            return v
    raise RuntimeError(f"no irreducible of degree {m} over GF(2)")


class Field:
    """The finite field GF(q) with q = 2^m or q prime, q <= 2^20.

    Parameters
    ----------
    q : int
        Field order, a power of 2 or a prime.
    modulus : int, optional
        Bit-encoded monic irreducible of degree m over GF(2).  Defaults
        to the smallest such polynomial.

    The log/antilog tables exist both as Python lists (scalar arithmetic)
    and as int64 arrays ``exp_table``/``log_table`` (the numpy kernels),
    for every field.  ``log[0] = 2q`` and ``exp`` is the antilog table
    twice over, zero-padded to length 4q + 1, so ``exp[log[a] + log[b]]``
    is a*b for every a and b.
    """

    def __init__(self, q: int, modulus: int | None = None):
        if q < 2 or q > _MAX_ORDER:
            raise ValueError(f"field order must be in [2, 2^20], got {q}")
        p, m = _factor_prime_power(q)
        if p != 2 and m > 1:
            raise ValueError(
                f"field order {q} = {p}^{m} is not supported: it must be a power of 2 or a prime"
            )
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = default_modulus(p, m)
        if m > 1:
            if modulus.bit_length() - 1 != m:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(modulus):
                raise ValueError(f"modulus {modulus} is reducible over GF(2)")
        self.modulus = modulus
        # every attribute is set here, in one order, so that instances share
        # one dict layout; adding one later slows scalar mul/add
        self._exp, self._log = self._build_tables()
        self.exp_table = np.asarray(self._exp, dtype=np.int64)
        self.log_table = np.asarray(self._log, dtype=np.int64)

    # -- construction helpers ---------------------------------------------

    def _build_tables(self) -> tuple[list[int], list[int]]:
        q = self.q
        g = self.generator()
        exp = [0] * (4 * q + 1)
        log = [2 * q] * q
        v = 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = v
            log[v] = i
            v = self._mul_raw(v, g)
        return exp, log

    def generator(self) -> int:
        """Smallest generator of the multiplicative group."""
        order = self.q - 1
        if order == 1:
            return 1
        factors = _prime_factors(order)
        for g in range(2, self.q):
            if all(self._pow_raw(g, order // f) != 1 for f in factors):
                return g
        raise RuntimeError("no generator found")  # unreachable for a field

    # -- raw arithmetic (no tables), for building them ----------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.p == 2:
            return _gf2_mulmod(a, b, self.modulus)
        return (a * b) % self.p

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    # -- public scalar operations -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return (-a) % self.p

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def check_symbols(self, word, n=None, name="received word", need="n") -> np.ndarray:
        """word as an int64 array: the one check of a word entering the package.
        ValueError naming the word (name) unless numpy reads it as integers (not
        float, bool, str, or object: ints past 64 bits); for n given, naming its
        shape and the length it needs (need = n) unless it is n symbols in one
        axis; naming the first symbol outside this field, its position and q."""
        raw = np.asarray(word)
        if raw.dtype.kind not in "iu" and raw.size:
            raise ValueError(f"{name} holds {raw.dtype} values, need int64 symbols of GF({self.q})")
        if n is not None and raw.shape != (n,):
            has = f"{raw.size} symbols" if raw.ndim == 1 else f"shape {raw.shape}"
            raise ValueError(f"{name} has {has}, need {need} = {n}")
        arr = raw.astype(np.int64, copy=False)
        # read as uint64 a negative symbol is at least 2^63, so one maximum
        # tests both ends
        wide = arr.view(np.uint64)
        if arr.size and wide.max() >= self.q:
            pos = tuple(np.argwhere(wide >= self.q)[0].tolist())
            where = pos[0] if len(pos) == 1 else pos
            raise ValueError(f"symbol {raw[pos]:#x} at position {where} is not in GF({self.q})")
        return arr

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": self.modulus}

    @classmethod
    def from_json(cls, obj: dict) -> "Field":
        return cls(obj["p"] ** obj["m"], modulus=obj["modulus"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"Field(GF({self.p}))"
        return f"Field(GF({self.p}^{self.m}), modulus={self.modulus})"


@lru_cache(maxsize=None)
def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            m = 0
            v = q
            while v % p == 0:
                v //= p
                m += 1
            if v != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    return q, 1  # no p <= sqrt(q) divides q >= 2 (checked by Field), so q is prime


def lagrange_interpolate(field: Field, points: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Coefficients of the unique polynomial of degree < len(points) through
    the given points, lowest degree first, trimmed of trailing zeros.

    Solves the Vandermonde system.  Raises ValueError on duplicate abscissae.
    """
    xs = field.check_symbols([x for x, _ in points], name="abscissae")
    if len(set(xs.tolist())) != len(xs):
        raise ValueError("interpolation abscissae must be pairwise distinct")
    ys = field.check_symbols([y for _, y in points], name="ordinates")
    coeffs = linalg.solve(powers(xs, len(xs), field).T, ys[:, None], field)[:, 0]
    return tuple(np.trim_zeros(coeffs, "b").tolist())
