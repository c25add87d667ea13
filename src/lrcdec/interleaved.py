"""Interleaved codes, burst errors, and the Metzner-Kapturowski decoder.

An interleaved word stacks ell codewords of one constituent code; a burst
error corrupts a set of columns.  The decoder reduces [S | H], S the nk x ell
syndrome, on its syndrome columns to [[R_S, T1 H], [0, T2 H]]: T2 spans the
left kernel of S, which annihilates the error too, so the zero columns of
T2 H mark the support E.  As T2 H_E = 0, the t x t block T1 H_E is invertible
iff H_E has full column rank; T1 H_E X = R_S then gives the error.  It
succeeds whenever E is (t+1)-independent and the error has full column rank.
The support classifiers below take E through radii._positions, and the
combinatorial ones their repair sets through radii._partition and k and r
through radii._in_range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .galois import Field
from .radii import _in_range, _partition, _positions


@dataclass(frozen=True)
class InterleavedWord:
    """ell x n matrix over GF(q); rows are words of the constituent code.
    The matrix is kept as given; mk_decode checks it (Field.check_symbols)."""

    field: Field
    matrix: np.ndarray

    @property
    def ell(self) -> int:
        return np.shape(self.matrix)[0]


def mk_decode(field: Field, parity: np.ndarray, received: InterleavedWord):
    """Recover (codeword matrix, error support) from a bursty received word.

    Exact whenever the support is (t+1)-independent and the error has full
    column rank.  [S | H] is reduced on its ell syndrome columns, its zero
    rows' H part gives the support E, and the t x t block T1 H_E solves for
    the error (module docstring); any violated hypothesis surfaces as None.
    A returned matrix always has zero syndrome: the error it removes solves
    H_E X = S.  A received word or parity that Field.check_symbols refuses,
    and a received word other than an ell x n matrix, n the parity's column
    count, raise ValueError.
    """
    H = field.check_symbols(parity, name="parity")
    nk, n = H.shape
    R = field.check_symbols(received.matrix)
    if R.ndim != 2 or R.shape[1] != n:
        raise ValueError(f"received word has shape {R.shape}, need an ell x n matrix "
                         f"with n = {n}, the parity's column count")
    syndrome = linalg.matmul(H, R.T, field)
    ell = len(R)
    red, rho, _ = linalg.rref(np.concatenate([syndrome, H], axis=1), field, ell)
    support = tuple(np.flatnonzero(~red[rho:, ell:].any(axis=0)).tolist())
    if rho == nk or len(support) != rho:
        return None
    sol, rank, _ = linalg.rref(red[:rho, [ell + j for j in support] + list(range(ell))], field, rho)
    if rank != rho:
        return None
    err = np.zeros_like(R)
    err[:, list(support)] = sol[:, rho:].T
    return InterleavedWord(field, linalg.sub(R, err, field)), support


# ---------------------------------------------------------------------------
# support classification
# ---------------------------------------------------------------------------

def is_t1_independent(field: Field, parity: np.ndarray, support) -> bool:
    """True iff appending any column outside the support raises the rank to
    t+1: [H_E | H_rest], reduced on H_E, has t pivots and no zero column below."""
    H = field.check_symbols(parity, name="parity")
    support = list(_positions(support, H.shape[1]))
    t = len(support)
    rest = [j for j in range(H.shape[1]) if j not in support]
    red, rank, _ = linalg.rref(H[:, support + rest], field, t)
    return rank == t and bool(red[t:, t:].any(axis=0).all())


def _support_shape(repair_sets, n: int, k: int, r: int):
    """(repair sets, k, r) of a support classifier: the sets as tuples if
    they partition range(n) into equal sets (_partition), k in [0, n] and
    r in [0, n_l] as ints (_in_range); else ValueError."""
    n_l = n // max(len(repair_sets), 1)
    sets = _partition(repair_sets, n, n_l)
    return sets, _in_range("k", k, 0, n, "n = {}"), _in_range("r", r, 0, n_l, "n_l = {}")


def excess_criterion(repair_sets: Sequence[Sequence[int]], n: int, k: int, r: int, support) -> bool:
    """Combinatorial (t+1)-independence test for PMDS codes.

    Counts the error-free positions per repair set; the excess over r,
    summed, must stay within n - k - t (minus one when some repair set
    retains between 1 and r error-free positions).  ValueError for an n
    that is not an integer >= 0, and for repair sets, k or r that
    _support_shape refuses.
    """
    n = _in_range("n", n, 0)
    repair_sets, k, r = _support_shape(repair_sets, n, k, r)
    e = set(_positions(support, n))
    t = len(e)
    ts = [sum(1 for i in rs if i not in e) for rs in repair_sets]
    overall = sum(max(0, ti - r) for ti in ts)
    if any(0 < ti <= r for ti in ts):
        return overall <= n - k - t - 1
    return overall <= n - k - t


def sk1_sufficient(repair_sets: Sequence[Sequence[int]], k: int, r: int, support) -> bool:
    """Sufficient condition: the complement contains a set of size k+1
    meeting every repair set in at most r positions (greedy count).
    ValueError for repair sets, k or r that _support_shape refuses, n the
    number of positions the sets hold."""
    n = sum(map(len, repair_sets))
    repair_sets, k, r = _support_shape(repair_sets, n, k, r)
    e = set(_positions(support, n))
    total = sum(min(sum(1 for i in rs if i not in e), r) for rs in repair_sets)
    return total >= k + 1

