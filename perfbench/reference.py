"""Reference arithmetic over GF(2^m) that shares no code with lrcdec.

The benchmark checks decoder outputs with these tables and matrices, so a
defect in lrcdec's field, linear algebra or decoders cannot hide itself
in its own check.  Only the field's modulus is read from lrcdec.
"""

from __future__ import annotations

import numpy as np


def mul_table(q: int, modulus: int) -> np.ndarray:
    """Full q x q multiplication table of GF(q), q = 2^m, for the given modulus.

    The modulus is the bit mask of the monic irreducible, top bit included.
    """
    m = q.bit_length() - 1
    if q != 1 << m or modulus >> m != 1:
        raise ValueError(f"need q = 2^m and a degree-m modulus, got q={q}, modulus={modulus}")
    a = np.arange(q, dtype=np.int64)[:, None].repeat(q, axis=1)
    b = np.arange(q, dtype=np.int64)[None, :].repeat(q, axis=0)
    out = np.zeros((q, q), dtype=np.int64)
    for bit in range(m):
        out ^= np.where((b >> bit) & 1, a, 0)
        a = a << 1
        a ^= np.where(a & q, modulus, 0)
    return out


class Gf2m:
    """GF(2^m) matrices as int64 arrays, multiplied through a full table."""

    def __init__(self, q: int, modulus: int):
        self.q = q
        self.mul = mul_table(q, modulus)
        if not (self.mul[1] == np.arange(q)).all():
            raise ValueError("multiplication table has no identity")
        self.inv = np.zeros(q, dtype=np.int64)
        rows, cols = np.nonzero(self.mul == 1)
        self.inv[rows] = cols
        if len(rows) != q - 1:
            raise ValueError(f"modulus {modulus} is reducible: not every element is invertible")

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = self.mul[a[:, :, None], b[None, :, :]]
        return np.bitwise_xor.reduce(prod, axis=1)

    def power(self, x: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = int(self.mul[out, x])
        return out

    def nullspace(self, a: np.ndarray) -> np.ndarray:
        """Rows form a basis of {v : a @ v = 0}, by Gauss-Jordan elimination."""
        m = np.array(a, dtype=np.int64)
        rows, cols = m.shape
        pivots = []
        r = 0
        for c in range(cols):
            nz = np.nonzero(m[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            m[[r, p]] = m[[p, r]]
            m[r] = self.mul[self.inv[m[r, c]], m[r]]
            for i in range(rows):
                if i != r and m[i, c]:
                    m[i] ^= self.mul[m[i, c], m[r]]
            pivots.append(c)
            r += 1
            if r == rows:
                break
        free = [c for c in range(cols) if c not in pivots]
        basis = np.zeros((len(free), cols), dtype=np.int64)
        for i, f in enumerate(free):
            basis[i, f] = 1
            for row, pc in enumerate(pivots):
                basis[i, pc] = m[row, f]  # characteristic 2: -x = x
        return basis
