"""Matrix operations over a Field, on the numpy kernels' elementwise ops.

All functions take int64 numpy arrays of canonical field elements.  The
two eliminations, ``rref`` and the stacked ``rank``, live here only; both
work on a copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from ._kernels import _vec_inv, _vec_mul, sub

if TYPE_CHECKING:
    from .galois import Field


def rref(a: np.ndarray, field: Field, cols: int | None = None):
    """Reduced row echelon form, pivoting on the first nonzero row per
    column, so R is canonical; only the first cols columns (default: all)
    take pivots, the rest are reduced by them.  Returns (R, rank, pivot_cols)."""
    m = np.array(a, dtype=np.int64)
    rows = m.shape[0]
    piv_cols = np.full(rows, -1, dtype=np.int64)
    r = 0
    for c in range(m.shape[1] if cols is None else cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        pv = int(m[r, c])
        if pv != 1:
            m[r, c:] = _vec_mul(m[r, c:], field.inv(pv), field)
        factors = m[:, c, None].copy()
        factors[r] = 0
        m[:, c:] = sub(m[:, c:], _vec_mul(factors, m[None, r, c:], field), field)
        piv_cols[r] = c
        r += 1
    return m, r, piv_cols[:r]


def rank(a: np.ndarray, field: Field) -> int | np.ndarray:
    """Rank of a matrix, or the int64 array of ranks of a (batch, rows, cols) stack.

    Forward elimination, one column over the whole stack at a time (a
    single matrix is a stack of one): every matrix takes its first nonzero
    entry at or below its own pivot row, swaps it up and clears the
    entries under it.
    """
    m = np.array(a, dtype=np.int64)
    if m.ndim == 2:
        m = m[None]
    batch, rows, cols = m.shape
    ranks = np.zeros(batch, dtype=np.int64)
    every = np.arange(batch)
    row_ids = np.arange(rows)
    for c in range(cols):
        below = row_ids[None, :] >= ranks[:, None]
        cand = (m[:, :, c] != 0) & below
        has = cand.any(axis=1)
        if not has.any():
            continue
        top = np.minimum(ranks, rows - 1)  # full-rank matrices swap a row with itself
        piv = np.where(has, cand.argmax(axis=1), top)
        pivot_rows = m[every, piv, c:]
        m[every, piv, c:] = m[every, top, c:]
        m[every, top, c:] = pivot_rows
        pv = np.where(has, pivot_rows[:, 0], 1)
        pivot_rows = _vec_mul(pivot_rows, _vec_inv(pv, field)[:, None], field)
        factors = np.where(below & has[:, None], m[:, :, c], 0)
        factors[every, top] = 0
        prod = _vec_mul(factors[:, :, None], pivot_rows[:, None, :], field)
        m[:, :, c:] = sub(m[:, :, c:], prod, field)
        ranks += has
        if (ranks == rows).all():
            break
    return int(ranks[0]) if np.ndim(a) == 2 else ranks


def matmul(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """Field product a @ b (leading batch axes broadcast), by the kernel.

    A function of its own, so that wrapping linalg.matmul, as a traced
    run does, leaves the GRS encodes and root-finder substitutions, which
    call the kernel, unwrapped.
    """
    return _kernels.matmul(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), field)


def solve(a: np.ndarray, b: np.ndarray, field: Field):
    """Solve a @ X = b.  Returns X or None if the system is inconsistent.

    When the solution is not unique, free variables are set to zero.
    """
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    red, rk, piv = rref(np.concatenate([a, np.asarray(b, dtype=np.int64)], axis=1), field, ncols)
    if red[rk:, ncols:].any():
        return None
    x = np.zeros((ncols, red.shape[1] - ncols), dtype=np.int64)
    x[piv] = red[:rk, ncols:]
    return x


def right_nullspace(a: np.ndarray, field: Field) -> np.ndarray:
    """Rows form a basis of {v : a @ v = 0}."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    red, rk, piv = rref(a, field)
    piv_set = set(int(c) for c in piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = sub(0, red[:rk, free].T, field)
    return basis
