"""Matrix operations over a Field, backed by the numpy kernels.

All functions take int64 numpy arrays of canonical field elements (use
``as_matrix`` to convert nested sequences).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from ._kernels import sub

if TYPE_CHECKING:
    from .galois import Field


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return a


def rref(a: np.ndarray, field: Field):
    """Reduced row echelon form (copy).  Returns (R, rank, pivot_cols)."""
    m = np.array(a, dtype=np.int64)
    rank, piv = _kernels.rref(m, field)
    return m, rank, piv


def rank(a: np.ndarray, field: Field) -> int | np.ndarray:
    """Rank of a matrix, or the int64 array of ranks of a (batch, rows, cols) stack.

    Both go to the one batched elimination; a single matrix is a stack of one.
    """
    m = np.array(a, dtype=np.int64)
    if m.ndim == 3:
        return _kernels.rank_stack(m, field)
    return int(_kernels.rank_stack(m[None], field)[0])


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
    a = as_matrix(a)
    b = as_matrix(b)
    ncols = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    red, rk, piv = rref(aug, field)
    if any(pc >= ncols for pc in piv):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for row, pc in enumerate(piv):
        x[pc, :] = red[row, ncols:]
    return x


def right_nullspace(a: np.ndarray, field: Field) -> np.ndarray:
    """Rows form a basis of {v : a @ v = 0}."""
    a = as_matrix(a)
    ncols = a.shape[1]
    red, rk, piv = rref(a, field)
    piv_set = set(int(c) for c in piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = sub(0, red[:rk, free].T, field)
    return basis
