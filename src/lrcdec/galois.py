"""Finite-field arithmetic GF(q), q a power of 2 or a prime, and
univariate polynomials.

Field elements are plain Python ints in ``[0, q)``.  For q = 2^m the
integer is the bit vector of the element's coefficients (lowest degree
bit first).  Multiplication uses log/antilog tables for characteristic 2,
whose zero sentinel makes ``exp[log[a] + log[b]]`` the product of any a
and b, and plain modular arithmetic for prime fields.  The default
modulus of GF(2^m) is found by a search over GF(2)[x], whose polynomials
are bit masks too: a Rabin irreducibility test built on one multiply-mod
and one gcd.

Fields are immutable after construction and safe to share across
threads; all operations are pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")  # degree of the zero polynomial

_MAX_ORDER = 1 << 20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for f in range(2, math.isqrt(n) + 1):
        if n % f == 0:
            return False
    return True


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

    For q = 2^m the log/antilog tables exist both as Python lists (scalar
    arithmetic) and as int64 arrays ``exp_table``/``log_table`` (the
    numpy kernels); for a prime field all four are None.  ``log[0] = 2q``
    and ``exp`` is the antilog table twice over, zero-padded to length
    4q + 1, so ``exp[log[a] + log[b]]`` is a*b for every a and b.
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
        self._exp, self._log = self._build_tables() if p == 2 else (None, None)
        self.exp_table = None if self._exp is None else np.asarray(self._exp, dtype=np.int64)
        self.log_table = None if self._log is None else np.asarray(self._log, dtype=np.int64)

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

    # -- raw arithmetic (no tables) ----------------------------------------

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
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        return self._pow_raw(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        return self._pow_raw(a, e)

    def embed_int(self, n: int) -> int:
        """Image of the integer n under Z -> GF(p) < GF(p^m)."""
        return n % self.p

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
    if not _is_prime(q):
        raise ValueError(f"{q} is not a prime power")
    return q, 1


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial over a Field, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -inf.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        self.field = field
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = F.add(out[i], v)
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder; deg(remainder) < deg(divisor)."""
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = F.inv(other.coeffs[-1])
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                f = F.mul(c, inv_lead)
                quot[i - d] = f
                for j, oj in enumerate(other.coeffs):
                    rem[i - d + j] = F.sub(rem[i - d + j], F.mul(f, oj))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.scale(self.field.inv(a.coeffs[-1]))

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            ci = self.coeffs[i]
            # formal derivative: coefficient i * c_i with i reduced mod p
            out.append(F.mul(F.embed_int(i), ci) if F.p != 2 else (ci if i % 2 else 0))
        return Poly(F, out)

    def eval(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc


def lagrange_interpolate(field: Field, points: Sequence[tuple[int, int]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Raises ValueError on duplicate abscissae.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be pairwise distinct")
    F = field
    result = Poly.zero(F)
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        num = Poly.one(F)
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = num * Poly(F, (F.neg(xj), 1))
            denom = F.mul(denom, F.sub(xi, xj))
        result = result + num.scale(F.div(yi, denom))
    return result
