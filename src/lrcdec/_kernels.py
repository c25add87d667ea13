"""Finite-field linear-algebra kernels in numpy.

Matrices are ``np.int64`` arrays of canonical field elements.  The
kernels take the Field itself.  In every field, multiplication,
inversion and powers are gathers from the field's int64 exp/log tables,
zero included (see Field).  Addition is xor in characteristic 2; in a
prime field a sum or difference of canonical elements is reduced
without a division, by adding p back where it fell below 0.  ``matmul``
is the one field matrix product: encoding, syndromes and the root
finder's substitution all go through it.  The eliminations, ``rref`` and
``rank``, live in ``linalg`` and use the elementwise ops here.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only implementation; recorded by the benchmark harness


def _vec_mul(a, b, field):
    """Elementwise product of broadcastable int64 arrays."""
    return field.exp_table[field.log_table[a] + field.log_table[b]]


def _vec_inv(a, field):
    """Elementwise inverse of an int64 array of nonzero elements."""
    return field.exp_table[(field.q - 1) - field.log_table[a]]


def scale(a, c, field):
    """a times the integers c mod p, elements of the prime field (broadcastable)."""
    if field.p == 2:
        return a * c  # c is 0 or 1
    return a * c % field.p


def add(a, b, field):
    """Elementwise sum a + b of broadcastable int64 arrays."""
    if field.p == 2:
        return a ^ b
    # a + b - p lies in [-p, p); d >> 63 is -1 (all ones) exactly where d < 0
    d = a + b - field.p
    return d + (field.p & (d >> 63))


def sub(a, b, field):
    """Elementwise difference a - b of broadcastable int64 arrays."""
    if field.p == 2:
        return a ^ b
    d = a - b  # in (-p, p)
    return d + (field.p & (d >> 63))


def add_reduce(a, axis, field):
    """Field sum of an int64 array along one axis."""
    if field.p == 2:
        return np.bitwise_xor.reduce(a, axis=axis)
    return a.sum(axis=axis) % field.p


def add_reduceat(a, starts, field):
    """Field sums of an int64 array over the segments of its last axis that
    begin at starts (increasing, every segment nonempty)."""
    if field.p == 2:
        return np.bitwise_xor.reduceat(a, starts, axis=-1)
    return np.add.reduceat(a, starts, axis=-1) % field.p


def powers(x, count, field):
    """(count, len(x)) array whose row i is x^i elementwise, with 0^0 = 1."""
    x = np.asarray(x, dtype=np.int64)
    # x^i = exp[i log x mod (q - 1)]; row 0 is 1 for x = 0 too
    order = field.q - 1
    out = field.exp_table[np.arange(count)[:, None] * (field.log_table[x] % order) % order]
    out[1:, x == 0] = 0
    return out


def matmul(A: np.ndarray, B: np.ndarray, field) -> np.ndarray:
    """Field product A @ B, with leading batch axes broadcast: every
    A[..., i, l] B[..., l, j] in one product, then one field sum over l.
    Allocates the m l n products at once."""
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    return add_reduce(_vec_mul(A[..., :, :, None], B[..., None, :, :], field), -2, field)
