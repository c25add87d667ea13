"""Generalized Reed-Solomon codes.

Every code builds its k x n generator once (row i is nu * alpha^i) and
keeps it read-only; messages, words and candidate lists are int64
arrays, and a codeword is one product of the message coefficients with
the generator.  Guruswami-Sudan list decoding interpolates by Koetter's
iterative algorithm on the packed monomial layout: the candidates are the
rows of one array whose columns are exactly the monomials x^dx y^dy of
(1, k-1)-weighted degree <= wdeg, dy-major.  The Roth-Ruckenstein
recursion then finds the y-roots with Q as an array, each substitution
Q(x, x y + gamma) one array product, and each level's roots from one
Horner pass over the whole field.  Decoder-side shortening divides out
one known position at a time, (y - y_beta) / (alpha - beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from ._kernels import _vec_inv, _vec_mul, add_reduce, powers, sub
from .galois import Field


def encode_rows(msgs, generator, field) -> np.ndarray:
    """msgs @ generator, for one message (k,) or a stack of them (m, k)."""
    return add_reduce(_vec_mul(msgs[..., None], generator, field), -2, field)


def gs_max_radius(n: int, k: int) -> int:
    """Largest radius with a list-decoding guarantee, n - 1 - floor(sqrt(n(k-1)))."""
    if k == 0:
        return n
    return n - 1 - math.isqrt(n * (k - 1))


class GrsCode:
    """[n, k] generalized Reed-Solomon code.

    Codewords are (nu_0 f(alpha_0), ..., nu_{n-1} f(alpha_{n-1})) for all
    message polynomials f of degree < k, given by their coefficients,
    lowest degree first.  Locators must be pairwise distinct and
    multipliers nonzero; minimum distance is n - k + 1.  Dimension 0 (the
    zero code) is allowed as the degenerate endpoint of shortening.
    """

    def __init__(self, field: Field, locators: Sequence[int], multipliers: Sequence[int], k: int):
        n = len(locators)
        if len(set(locators)) != n:
            raise ValueError("locators must be pairwise distinct")
        if len(multipliers) != n:
            raise ValueError("need one multiplier per locator")
        if any(v == 0 for v in multipliers):
            raise ValueError("multipliers must be nonzero")
        if not 0 <= k <= n <= field.q:
            raise ValueError(f"need 0 <= k <= n <= q, got k={k}, n={n}, q={field.q}")
        self.field = field
        self.locators = tuple(int(a) for a in locators)
        self.multipliers = tuple(int(v) for v in multipliers)
        self.k = k
        self._loc_index = {a: i for i, a in enumerate(self.locators)}
        self._alpha = np.array(self.locators, dtype=np.int64)
        self._nu = np.array(self.multipliers, dtype=np.int64)
        self._nu_inv = _vec_inv(self._nu, field)
        self._generator = _vec_mul(self._nu, powers(self._alpha, k, field), field)
        self._generator.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.locators)

    @property
    def d(self) -> int:
        return self.n - self.k + 1

    def __repr__(self):
        return f"GrsCode([{self.n},{self.k},{self.d}] over GF({self.field.q}))"

    def __eq__(self, other):
        return (
            isinstance(other, GrsCode)
            and self.field == other.field
            and self.locators == other.locators
            and self.multipliers == other.multipliers
            and self.k == other.k
        )

    # -- encoding / membership ------------------------------------------------

    def encode(self, coeffs) -> tuple[int, ...]:
        """Codeword of the message polynomial with these coefficients, lowest
        degree first; a shorter sequence is zero-padded."""
        c = np.zeros(max(self.k, len(coeffs)), dtype=np.int64)
        c[: len(coeffs)] = coeffs
        if c[self.k :].any():
            raise ValueError(f"message degree {np.flatnonzero(c)[-1]} >= k = {self.k}")
        return tuple(encode_rows(c[: self.k], self._generator, self.field).tolist())

    def _normalize(self, word) -> np.ndarray:
        """Divide out the column multipliers: values of the message polynomial."""
        return _vec_mul(np.asarray(word, dtype=np.int64), self._nu_inv, self.field)

    def is_codeword(self, word) -> bool:
        return len(word) == self.n and linalg.in_nullspace(
            linalg.right_nullspace(self._generator, self.field), word, self.field
        )

    def generator_matrix(self) -> np.ndarray:
        """The stored k x n generator (read-only)."""
        return self._generator

    # -- list decoding ---------------------------------------------------------

    def gs_max_radius(self) -> int:
        return gs_max_radius(self.n, self.k)

    def gs_list_decode(self, word, t: int) -> list[tuple[int, ...]]:
        """All codewords within Hamming distance t of word.

        Complete for t inside the guarantee region; raises ValueError
        beyond it.  Koetter interpolation of a bivariate Q(x, y) with the
        smallest sufficient multiplicity, then Roth-Ruckenstein root
        finding of its y-roots f(x) of degree < k, then a distance filter.
        """
        if len(word) != self.n:
            raise ValueError("word length mismatch")
        if t < 0:
            raise ValueError("radius must be nonnegative")
        if t > self.gs_max_radius():
            raise ValueError(
                f"radius {t} exceeds the guarantee radius {self.gs_max_radius()}"
            )
        F = self.field
        word = np.asarray(word, dtype=np.int64)
        if self.k == 0:
            return [(0,) * self.n] if np.count_nonzero(word) <= t else []
        ys = self._normalize(word)
        if self.k == 1:
            # constants: a candidate agrees with ys somewhere, as t < n
            cands = np.unique(ys)[:, None]
        else:
            s, ly = self._gs_parameters(t)
            q_coeffs = self._gs_interpolate(ys, t, s, ly)
            cands = np.array(_rr_roots(q_coeffs, self.k, F), dtype=np.int64).reshape(-1, self.k)
        words = encode_rows(cands, self._generator, F)
        near = words[np.count_nonzero(words != word, axis=1) <= t]
        return sorted(set(map(tuple, near.tolist())))

    def _gs_parameters(self, t: int) -> tuple[int, int]:
        """Smallest multiplicity s (and y-degree) that guarantees radius t."""
        n, k = self.n, self.k
        max_s = 255
        for s in range(1, max_s + 1):
            wdeg = s * (n - t) - 1
            if wdeg < 0:
                continue
            ly = wdeg // (k - 1)
            unknowns = sum(wdeg + 1 - j * (k - 1) for j in range(ly + 1))
            constraints = n * s * (s + 1) // 2
            if unknowns > constraints:
                return s, ly
        raise RuntimeError(
            f"GRS [n = {n}, k = {k}]: no multiplicity s <= {max_s} reaches radius t = {t}"
        )

    def _gs_interpolate(self, ys, t, s, ly):
        """Q of least (1, k-1)-weighted degree with multiplicity s at every
        (locator, y) point, by Koetter's iterative interpolation.

        Candidates Q_j = y^j (j <= ly) are the rows of one (ly + 1, M)
        array whose columns are the M monomials x^dx y^dy with
        dx + dy (k-1) <= wdeg, dy-major: the unknowns of the dense
        interpolation system.  Per Hasse constraint D_{a,b} Q(x0, y0) = 0,
        gathered into the same columns, the violating candidate of least
        weighted degree clears it from the others, then takes a factor
        x - x0; x Q shifts each dy block by one column.  Returns
        coefficient lists of length wdeg - dy (k-1) + 1.
        """
        F = self.field
        n, k = self.n, self.k
        wdeg = s * (n - t) - 1
        lens = wdeg + 1 - np.arange(ly + 1) * (k - 1)
        col_dy = np.repeat(np.arange(ly + 1), lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        col_dx = np.arange(col_dy.size) - starts[col_dy]
        # x Q: column c takes column c - 1, except at a block start; the
        # coefficient leaving a block end belongs to a candidate past the
        # bound, which is never used again
        block_start = col_dx == 0
        polys = np.zeros((ly + 1, col_dy.size), dtype=np.int64)
        polys[np.arange(ly + 1), starts] = 1
        wdegs = [j * (k - 1) for j in range(ly + 1)]
        # b outer, a inner: D_{a,b} of (x - x0) Q is D_{a-1,b} Q at x0, so
        # the constraints imposed so far survive the (x - x0) step
        bs, as_ = np.array([(b, a) for b in range(s) for a in range(s - b)]).T
        xbin = np.array([[math.comb(d, a) % F.p for d in range(wdeg + 1)] for a in range(s)])
        ybin = np.array([[math.comb(d, b) % F.p for d in range(ly + 1)] for b in range(s)])
        xshift = np.maximum(np.arange(wdeg + 1) - np.arange(s)[:, None], 0)
        yshift = np.maximum(np.arange(ly + 1) - np.arange(s)[:, None], 0)
        xpows = powers(self._alpha, wdeg + 1, F).T
        ypows = powers(ys, ly + 1, F).T
        for x0, xpow, ypow in zip(self.locators, xpows, ypows):
            # row [a, dx] is C(dx, a) x0^(dx - a), row [b, dy] is C(dy, b) y0^(dy - b)
            xrows = _vec_mul(xbin, xpow[xshift], F)
            yrows = _vec_mul(ybin, ypow[yshift], F)
            hasse = _vec_mul(yrows[bs][:, col_dy], xrows[as_][:, col_dx], F)
            for row in hasse:
                disc = add_reduce(_vec_mul(polys, row, F), 1, F).tolist()
                # a candidate past the bound is never returned, and it never
                # feeds one within the bound, so it drops out
                hit = [j for j, v in enumerate(disc) if v and wdegs[j] <= wdeg]
                if not hit:
                    continue
                piv = min(hit, key=wdegs.__getitem__)
                rest = [j for j in hit if j != piv]
                p = polys[piv]
                if rest:
                    coef = _vec_mul(np.array([disc[j] for j in rest]), F.inv(disc[piv]), F)
                    polys[rest] = sub(polys[rest], _vec_mul(coef[:, None], p, F), F)
                shifted = np.concatenate(([0], p[:-1]))
                shifted[block_start] = 0
                polys[piv] = sub(shifted, _vec_mul(p, x0, F), F)
                wdegs[piv] += 1
        best = min(range(ly + 1), key=wdegs.__getitem__)
        if wdegs[best] > wdeg:
            raise RuntimeError(
                f"GRS [n = {n}, k = {k}] at radius t = {t}, multiplicity s = {s}: "
                f"Koetter interpolation reached weighted degree {wdegs[best]} > wdeg = {wdeg}"
            )
        return [blk.tolist() for blk in np.split(polys[best], starts[1:])]

    # -- shortening --------------------------------------------------------------

    def shorten(self, subset) -> "GrsCode":
        """Code realizing the shortening at the given locator values.

        The result is the [n - |S|, k - |S|, d] code on the remaining
        locators and multipliers.
        """
        subset = tuple(subset)
        if len(subset) > self.k:
            raise ValueError(f"can shorten at most k = {self.k} positions")
        for beta in subset:
            if beta not in self._loc_index:
                raise ValueError(f"{beta} is not a locator of this code")
        drop = set(subset)
        keep = [i for i in range(self.n) if self.locators[i] not in drop]
        return GrsCode(
            self.field,
            [self.locators[i] for i in keep],
            [self.multipliers[i] for i in keep],
            self.k - len(subset),
        )

    def shorten_received(self, word, subset):
        """Map a received word to the shortened code, treating subset as error-free.

        Positions at the locators in subset must carry the agreed codeword
        symbols.  Per beta in subset, the values y = word / nu at the other
        remaining positions become (y - y_beta) / (alpha - beta): f becomes
        (f(x) - f(beta)) / (x - beta), and an error is divided by
        alpha - beta.  Returns (shortened word, ShortenContext); decoding the
        shortened word and lifting the error reproduces the original error.
        """
        subset = tuple(subset)
        F = self.field
        code = self.shorten(subset)
        vals = self._normalize(word)
        lift = np.ones(self.n, dtype=np.int64)
        rest = np.ones(self.n, dtype=bool)
        for beta in subset:
            bi = self._loc_index[beta]
            rest[bi] = False
            diff = sub(self._alpha[rest], beta, F)
            vals[rest] = _vec_mul(sub(vals[rest], vals[bi], F), _vec_inv(diff, F), F)
            lift[rest] = _vec_mul(lift[rest], diff, F)
        short_word = _vec_mul(vals[rest], self._nu[rest], F)
        kept = tuple(np.flatnonzero(rest).tolist())
        return tuple(short_word.tolist()), ShortenContext(self, code, kept, lift[rest])


@dataclass(frozen=True, eq=False)
class ShortenContext:
    """Bookkeeping to lift a shortened error vector back to full length.

    lift[j] is the product of alpha - beta over the shortened locators
    beta at position kept[j]: the factor that shortening divided the
    error there by.
    """

    parent: GrsCode
    code: GrsCode
    kept: tuple[int, ...]
    lift: np.ndarray

    def lift_error(self, short_error) -> tuple[int, ...]:
        full = np.zeros(self.parent.n, dtype=np.int64)
        full[list(self.kept)] = _vec_mul(
            np.asarray(short_error, dtype=np.int64), self.lift, self.parent.field
        )
        return tuple(full.tolist())


def _rr_roots(q_coeffs: list[list[int]], k: int, field: Field) -> list[list[int]]:
    """All y-roots of degree < k of Q(x, y) (Roth-Ruckenstein recursion).

    Q travels as an (ly + 1, width) int64 array, row dy holding the
    x-coefficients of y^dy.  The substitution Q(x, x y + gamma) is one
    array product: T[i, j] = C(j, i) gamma^(j - i) times Q, then row i
    shifts right by i.  The roots gamma of each level's Q(0, y) come from
    one Horner pass over all q field elements, in increasing order.
    """
    rows = len(q_coeffs)
    width = max(1, *(len(p) for p in q_coeffs))
    q0 = np.zeros((rows, width), dtype=np.int64)
    for dy, p in enumerate(q_coeffs):
        q0[dy, : len(p)] = p
    idx = np.arange(rows)
    binom = np.array([[math.comb(j, i) % field.p for j in range(rows)] for i in range(rows)])
    gap = np.maximum(idx[None, :] - idx[:, None], 0)  # j - i where C(j, i) != 0
    xs = np.arange(field.q, dtype=np.int64)
    results: list[list[int]] = []

    def roots(uni):
        # Horner over every field element at once, in increasing order,
        # from the leading nonzero coefficient down
        while uni and not uni[-1]:
            uni.pop()
        acc = np.zeros(field.q, dtype=np.int64)
        for c in reversed(uni):
            acc = sub(_vec_mul(acc, xs, field), field.neg(c), field)
        return np.flatnonzero(acc == 0).tolist()

    def subs(q, gamma):
        # Q(x, x y + gamma), collected by powers of y
        tmat = _vec_mul(binom, powers([gamma], rows, field)[gap, 0], field)
        prod = add_reduce(_vec_mul(tmat[:, :, None], q[None, :, :], field), 1, field)
        out = np.zeros((rows, q.shape[1] + rows - 1), dtype=np.int64)
        out[idx[:, None], idx[:, None] + np.arange(q.shape[1])] = prod
        return out

    def recurse(q, prefix):
        # divide by the largest common power of x, and drop zero columns
        # past the last nonzero one
        nz = np.flatnonzero(q.any(axis=0))
        if nz.size:
            q = q[:, nz[0] : nz[-1] + 1]
        for gamma in roots(q[:, 0].tolist()):
            nxt = prefix + [gamma]
            if len(nxt) == k:
                results.append(nxt)
            else:
                recurse(subs(q, gamma), nxt)

    recurse(q0, [])
    return results
