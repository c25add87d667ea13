"""Interleaved codes, burst errors, and the Metzner-Kapturowski decoder.

An interleaved word stacks ell codewords of one constituent code; a
burst error corrupts a set of columns.  The decoder locates the corrupted
columns purely linear-algebraically: the combinations of parity-check
rows that annihilate the syndrome (the null space of its transpose) also
annihilate the error, so their common zero columns mark the support.  It
succeeds whenever the support is (t+1)-independent and the error matrix
has full column rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .galois import Field


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

    Exact whenever the support is (t+1)-independent and the error has
    full column rank.  Any violated hypothesis surfaces as None (support
    size mismatch or an unsolvable erasure system).  A returned matrix
    always has zero syndrome: the error it removes solves H_E X = S.
    A received word or parity that Field.check_symbols refuses, and a
    received word other than an ell x n matrix, n the parity's column
    count, raise ValueError.
    """
    H = field.check_symbols(parity, name="parity")
    nk, n = H.shape
    R = field.check_symbols(received.matrix)
    if R.ndim != 2 or R.shape[1] != n:
        raise ValueError(f"received word has shape {R.shape}, need an ell x n matrix "
                         f"with n = {n}, the parity's column count")
    syndrome = linalg.matmul(H, R.T, field)
    q_rows = linalg.matmul(linalg.right_nullspace(syndrome.T, field), H, field)
    support = tuple(np.flatnonzero(~q_rows.any(axis=0)).tolist())
    if not len(q_rows) or len(support) != nk - len(q_rows):
        return None
    # one elimination of [H_E | S]: pivots 0..t-1 exactly iff H_E has full
    # column rank (the complement holds an information set) and H_E X = S
    # is consistent; then X = red[:t, t:] solves it, so H (R - E)^T = S - S
    # = 0 and the codeword needs no parity check
    t = len(support)
    red, _, piv = linalg.rref(np.concatenate([H[:, list(support)], syndrome], axis=1), field)
    if piv.tolist() != list(range(t)):
        return None
    err = np.zeros_like(R)
    err[:, list(support)] = red[:t, t:].T
    return InterleavedWord(field, linalg.sub(R, err, field)), support


# ---------------------------------------------------------------------------
# support classification
# ---------------------------------------------------------------------------

def is_t1_independent(field: Field, parity: np.ndarray, support) -> bool:
    """True iff appending any column outside the support raises the rank to t+1."""
    support = sorted(int(i) for i in support)
    H = field.check_symbols(parity, name="parity")
    n = H.shape[1]
    t = len(support)
    rest = [j for j in range(n) if j not in set(support)]
    reordered = np.concatenate([H[:, support], H[:, rest]], axis=1)
    red, rk, piv = linalg.rref(reordered, field)
    if sum(1 for c in piv if c < t) != t:
        return False  # support columns are already dependent
    return bool(red[t:, t:].any(axis=0).all())


def excess_criterion(repair_sets: Sequence[Sequence[int]], n: int, k: int, r: int, support) -> bool:
    """Combinatorial (t+1)-independence test for PMDS codes.

    Counts the error-free positions per repair set; the excess over r,
    summed, must stay within n - k - t (minus one when some repair set
    retains between 1 and r error-free positions).
    """
    e = set(int(i) for i in support)
    t = len(e)
    ts = [sum(1 for i in rs if i not in e) for rs in repair_sets]
    overall = sum(max(0, ti - r) for ti in ts)
    if any(0 < ti <= r for ti in ts):
        return overall <= n - k - t - 1
    return overall <= n - k - t


def sk1_sufficient(repair_sets: Sequence[Sequence[int]], k: int, r: int, support) -> bool:
    """Sufficient condition: the complement contains a set of size k+1
    meeting every repair set in at most r positions (greedy count)."""
    e = set(int(i) for i in support)
    total = sum(min(sum(1 for i in rs if i not in e), r) for rs in repair_sets)
    return total >= k + 1

