"""Finite-field arithmetic GF(q), q a power of 2 or a prime.

Field elements are plain Python ints in ``[0, q)``.  For q = 2^m the
integer is the bit vector of the element's coefficients (lowest degree
bit first); for q = p prime it is the residue mod p.  Every field
multiplies, inverts and raises to powers through one int64 pair of
log/antilog tables, read by the scalar methods and by the numpy kernels
alike, whose zero sentinel makes ``exp[log[a] + log[b]]`` the product of
any a and b; only addition differs by characteristic (xor or mod p).
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

from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from ._kernels import powers
from .radii import _in_range

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
        Bit-encoded monic irreducible of degree m over GF(2), an integer
        in [2^m, 2^(m+1) - 1].  Defaults to the smallest such polynomial.

    The log/antilog tables are one int64 pair, ``exp_table``/``log_table``,
    which the scalar methods and the numpy kernels both read.
    ``log[0] = 2q`` and ``exp`` is the antilog table twice over,
    zero-padded to length 4q + 1, so ``exp[log[a] + log[b]]`` is a*b for
    every a and b.
    """

    def __init__(self, q: int, modulus: int | None = None):
        q = _in_range("q", q, 2, _MAX_ORDER, "2^20 = {}")
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
            # monic of degree m: bit m set, no higher bit
            modulus = _in_range("modulus", modulus, 1 << m, (2 << m) - 1, "2^(m+1) - 1 = {}")
            if not _is_irreducible(modulus):
                raise ValueError(f"modulus {modulus} is reducible over GF(2)")
        self.modulus = modulus
        self.exp_table, self.log_table = self._build_tables()

    # -- construction helpers ---------------------------------------------

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q
        g = self.generator()
        exp = [0] * (4 * q + 1)
        log = [2 * q] * q
        v = 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = v
            log[v] = i
            v = self._mul_raw(v, g)
        return np.asarray(exp, dtype=np.int64), np.asarray(log, dtype=np.int64)

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
        if not (0 <= a < self.q and 0 <= b < self.q):
            self._refuse(b if 0 <= a < self.q else a)
        return int(self.exp_table[self.log_table[a] + self.log_table[b]])

    def inv(self, a: int) -> int:
        # one comparison on the way through; 0 and the symbols outside
        # the field are told apart only when it fails
        if not 0 < a < self.q:
            if a == 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            self._refuse(a)
        return int(self.exp_table[(self.q - 1) - self.log_table[a]])

    def pow(self, a: int, e: int) -> int:
        if not 0 <= a < self.q:
            self._refuse(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return int(self.exp_table[int(self.log_table[a]) * e % (self.q - 1)])

    def _refuse(self, a):
        """The ValueError of a scalar symbol outside [0, q), naming it and q."""
        raise ValueError(f"symbol {a:#x} is not in GF({self.q})")

    def check_symbols(self, word, n=None, name="received word", need="n") -> np.ndarray:
        """word as an int64 array: the one check of a word entering the package.
        ValueError naming the word (name) unless numpy reads it as integers (not
        float, bool, str, or object: ints past 64 bits); for n given, naming its
        shape and the length it needs (need = n) unless it is n symbols in one
        axis; naming the first symbol outside this field, its position and q.
        The test is by dtype: numpy reads bools mixed with ints as int64, so True
        there is the symbol 1, as in Python; only an all-bool word is refused, as
        refusing the mix would take a scan of every element of every sequence."""
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
        if arr.size and np.maximum.reduce(wide, axis=None) >= self.q:
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
    """(p, m) with q = p^m, for q >= 2 (checked by Field)."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    return p, next(m for m in range(1, q.bit_length() + 1) if p**m == q)


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
