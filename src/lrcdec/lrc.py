"""Locally repairable codes as subcodes of GRS codes.

An LrcCode is a GRS supercode together with a partition of the
coordinates into repair sets, a message dimension k, and the monomial
support of its evaluation polynomials.  The constructor builds the
multiplicative-coset family: evaluation points are the order-n subgroup
of GF(q)*, repair sets are cosets of its order-(r + rho - 1) subgroup,
and messages are encoded as f(x) = sum_i f_i(x^(r+rho-1)) x^i.

The k x n generator of an LrcCode is the rows of the supercode's
generator at its support degrees, and encoding goes through it.
Membership is a zero syndrome under the parity-check matrix ``parity``
(a basis of the generator's right null space), and the locality is
checked by two stacked rank tests over the repair sets: each restricted
generator has rank r and spans the local [r + rho - 1, r] GRS code, which
is kept in ``local_codes``.

The shape (n, k, r, rho) is ``shape``, a radii.CodeShape built once per
code: it owns n_l, mu and d, and radii._partition checks the repair sets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import linalg
from .galois import Field
from .grs import GrsCode
from .radii import CodeShape, _partition


class LrcCode:
    """[n, k, r, rho] locally repairable subcode of a GRS code."""

    def __init__(
        self,
        supercode: GrsCode,
        k: int,
        r: int,
        rho: int,
        repair_sets: Sequence[Sequence[int]],
        degrees: Sequence[int],
    ):
        self.supercode = supercode
        self.field = supercode.field
        self.shape = CodeShape(supercode.n, k, r, rho)
        self.k, self.r, self.rho, self.d = k, r, rho, self.shape.d
        self.repair_sets = _partition(repair_sets, supercode.n, self.shape.n_l)
        self.degrees = tuple(degrees)  # message layout order
        if len(set(self.degrees)) != len(self.degrees):
            raise ValueError("degree support must not repeat")
        if len(self.degrees) != k:
            raise ValueError("degree support size must equal k")
        if max(self.degrees) >= supercode.k:
            raise ValueError("degree support exceeds the supercode dimension")
        self.generator = supercode.generator_matrix()[list(self.degrees)]
        self.generator.flags.writeable = False
        self.local_codes = tuple(
            GrsCode(
                self.field,
                [supercode.locators[i] for i in idx],
                [supercode.multipliers[i] for i in idx],
                r,
            )
            for idx in self.repair_sets
        )
        self._check_local_structure()
        self.parity = linalg.right_nullspace(self.generator, self.field)

    @property
    def n(self) -> int:
        return self.supercode.n

    def __repr__(self):
        return (
            f"LrcCode([{self.n},{self.k},{self.r},{self.rho}] over"
            f" GF({self.field.q}), d={self.d})"
        )

    def _check_local_structure(self):
        """Each restriction must be the [n_l, r, rho] GRS code on its locators.

        The restricted generator must have rank r, and stacking the local
        code's generator under it must leave the rank at r.  Both tests run
        as one stacked rank over the mu repair sets; the smallest failing j
        is reported, the local-code test first.
        """
        F = self.field
        blocks = np.moveaxis(self.generator[:, self.repair_sets], 1, 0)
        local = np.stack([c.generator_matrix() for c in self.local_codes])
        joint = linalg.rank(np.concatenate([blocks, local], axis=1), F)
        ranks = linalg.rank(blocks, F)
        for j in range(self.shape.mu):
            if joint[j] != self.r:
                raise ValueError(f"restriction to repair set {j} leaves the local code")
            if ranks[j] != self.r:
                raise ValueError(
                    f"local code {j} has dimension {ranks[j]}, expected {self.r}"
                )

    # -- encoding ----------------------------------------------------------------

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """Codeword of the message; ValueError for a message of the wrong
        length or with a symbol outside the field."""
        if len(message) != self.k:
            raise ValueError(f"message must have {self.k} symbols")
        msg = self.field.check_symbols(message)
        return tuple(linalg.matmul(msg[None], self.generator, self.field)[0].tolist())

    def is_codeword(self, word) -> bool:
        """Zero syndrome; False for a word of the wrong length or with a
        symbol outside the field."""
        if len(word) != self.n:
            return False
        try:
            word = self.field.check_symbols(word)
        except ValueError:
            return False
        return not linalg.matmul(self.parity, word[:, None], self.field).any()

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "locators": list(self.supercode.locators),
            "multipliers": list(self.supercode.multipliers),
            "supercode_k": self.supercode.k,
            "k": self.k,
            "r": self.r,
            "rho": self.rho,
            "repair_sets": [list(s) for s in self.repair_sets],
            "degrees": list(self.degrees),
            "d": self.d,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LrcCode":
        """The code of a descriptor; ValueError for one the constructor
        rejects and for a "d" other than the shape's distance."""
        field = Field.from_json(obj["field"])
        sup = GrsCode(field, obj["locators"], obj["multipliers"], obj["supercode_k"])
        code = cls(sup, obj["k"], obj["r"], obj["rho"], obj["repair_sets"], obj["degrees"])
        if obj.get("d", code.d) != code.d:
            raise ValueError(f"descriptor d = {obj['d']} differs from the shape's d = {code.d}")
        return code


def construct_tamo_barg(field: Field, n: int, k: int, r: int, rho: int) -> LrcCode:
    """Distance-optimal LRC on multiplicative cosets.

    Requires a valid CodeShape(n, k, r, rho), r | k, and n | q - 1.
    Messages are laid out row-major: symbol (i, j) is coefficient j of
    f_i, i.e. the coefficient of x^(i + j(r + rho - 1)).
    """
    shape = CodeShape(n, k, r, rho)
    if k % r != 0:
        raise ValueError(f"locality r = {r} must divide k = {k}")
    if (field.q - 1) % n != 0:
        raise ValueError(f"n = {n} must divide q - 1 = {field.q - 1}")

    n_l, mu = shape.n_l, shape.mu
    g = field.generator()
    gn = field.pow(g, (field.q - 1) // n)  # order n
    h = field.pow(gn, mu)  # order n_l
    locators = []
    for j in range(mu):
        rep = field.pow(gn, j)
        beta = rep
        for _ in range(n_l):
            locators.append(beta)
            beta = field.mul(beta, h)
    repair_sets = [list(range(j * n_l, (j + 1) * n_l)) for j in range(mu)]
    degrees = [i + j * n_l for i in range(r) for j in range(k // r)]
    k_sup = max(degrees) + 1
    supercode = GrsCode(field, locators, [1] * n, k_sup)
    return LrcCode(supercode, k, r, rho, repair_sets, degrees)
