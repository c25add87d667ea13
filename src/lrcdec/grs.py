"""Generalized Reed-Solomon codes.

Encoding, unique (bounded minimum distance) decoding, erasure decoding,
Guruswami-Sudan list decoding, and decoder-side shortening through the
polynomial reduction map f |-> (f(x) - f(beta)) / (x - beta).
Guruswami-Sudan interpolates by Koetter's iterative algorithm, then finds
the y-roots by the Roth-Ruckenstein recursion over the whole field at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from ._kernels import _vec_mul, sub
from .galois import Field, Poly, lagrange_interpolate


def gs_max_radius(n: int, k: int) -> int:
    """Largest radius with a list-decoding guarantee, n - 1 - floor(sqrt(n(k-1)))."""
    if k == 0:
        return n
    return n - 1 - math.isqrt(n * (k - 1))


class GrsCode:
    """[n, k] generalized Reed-Solomon code.

    Codewords are (nu_0 f(alpha_0), ..., nu_{n-1} f(alpha_{n-1})) for all
    message polynomials f of degree < k.  Locators must be pairwise
    distinct and multipliers nonzero; minimum distance is n - k + 1.
    Dimension 0 (the zero code) is allowed as the degenerate endpoint of
    shortening.
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

    def encode(self, message) -> tuple[int, ...]:
        """Evaluate a message polynomial (or coefficient sequence) of degree < k."""
        f = message if isinstance(message, Poly) else Poly(self.field, message)
        if f.degree >= self.k:
            raise ValueError(f"message degree {f.degree} >= k = {self.k}")
        F = self.field
        return tuple(
            F.mul(v, f.eval(a)) for a, v in zip(self.locators, self.multipliers)
        )

    def _normalize(self, word) -> list[int]:
        """Divide out the column multipliers: values of the message polynomial."""
        F = self.field
        return [F.div(w, v) for w, v in zip(word, self.multipliers)]

    def is_codeword(self, word) -> bool:
        return len(word) == self.n and linalg.in_nullspace(
            self.parity_check_matrix(), word, self.field
        )

    def generator_matrix(self) -> np.ndarray:
        F = self.field
        g = np.zeros((self.k, self.n), dtype=np.int64)
        for i in range(self.k):
            for j, (a, v) in enumerate(zip(self.locators, self.multipliers)):
                g[i, j] = F.mul(v, F.pow(a, i))
        return g

    def parity_check_matrix(self) -> np.ndarray:
        return linalg.right_nullspace(self.generator_matrix(), self.field)

    # -- unique decoding --------------------------------------------------------

    def bmd_decode(self, word):
        """Bounded-minimum-distance decoding up to floor((d-1)/2) errors.

        Solves the key equation E(x) y_i = N(x) at all locators for an
        error locator E and numerator N (Berlekamp-Welch).  Returns
        (codeword, error_vector) or None if no codeword lies within the
        radius.
        """
        if len(word) != self.n:
            raise ValueError("word length mismatch")
        if self.k == 0:
            zero = (0,) * self.n
            t0 = (self.n - 1) // 2
            if sum(1 for w in word if w) <= t0:
                return zero, tuple(word)
            return None
        F = self.field
        t0 = (self.d - 1) // 2
        ys = self._normalize(word)
        n, k = self.n, self.k
        ncols = (t0 + 1) + (k + t0)
        m = np.zeros((n, ncols), dtype=np.int64)
        for i, (a, y) in enumerate(zip(self.locators, ys)):
            pw = 1
            for j in range(t0 + 1):
                m[i, j] = F.mul(y, pw)
                pw = F.mul(pw, a)
            pw = 1
            for j in range(k + t0):
                m[i, t0 + 1 + j] = F.neg(pw)
                pw = F.mul(pw, a)
        basis = linalg.right_nullspace(m, F)
        if basis.shape[0] == 0:
            return None
        sol = basis[0]
        e_poly = Poly(F, [int(c) for c in sol[: t0 + 1]])
        n_poly = Poly(F, [int(c) for c in sol[t0 + 1 :]])
        if e_poly.is_zero():
            return None
        f, rem = n_poly.divmod(e_poly)
        if not rem.is_zero() or f.degree >= k:
            return None
        cw = self.encode(f)
        err = tuple(F.sub(w, c) for w, c in zip(word, cw))
        if sum(1 for e in err if e) > t0:
            return None
        return cw, err

    def erasure_decode(self, word, erased):
        """Recover the codeword agreeing with word outside the erased index set.

        Raises ValueError if more than n - k positions are erased (the
        solution is no longer unique); returns None if the surviving
        symbols are inconsistent with the code.
        """
        erased = set(erased)
        if len(erased) > self.n - self.k:
            raise ValueError(
                f"{len(erased)} erasures exceed the unique-recovery limit {self.n - self.k}"
            )
        F = self.field
        kept = [i for i in range(self.n) if i not in erased]
        pts = [(self.locators[i], F.div(word[i], self.multipliers[i])) for i in kept]
        f = lagrange_interpolate(F, pts[: self.k])
        if f.degree >= self.k:
            return None
        for a, y in pts[self.k :]:
            if f.eval(a) != y:
                return None
        return self.encode(f)

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
        n, k = self.n, self.k
        if k == 0:
            zero = (0,) * n
            return [zero] if sum(1 for w in word if w) <= t else []
        ys = self._normalize(word)
        if k == 1:
            # constants: a candidate must agree on at least n - t positions
            return sorted(self.encode(Poly(F, (c,))) for c in set(ys) if ys.count(c) >= n - t)

        s, ly = self._gs_parameters(t)
        q_coeffs = self._gs_interpolate(ys, t, s, ly)
        cands = _rr_roots(q_coeffs, k, F)
        out = set()
        for coeffs in cands:
            f = Poly(F, coeffs)
            cw = self.encode(f)
            dist = sum(1 for a, b in zip(cw, word) if a != b)
            if dist <= t:
                out.add(cw)
        return sorted(out)

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

        Candidates Q_j = y^j (j <= ly) form one [j, dy, dx] array.  Per
        Hasse constraint D_{a,b} Q(x0, y0) = 0, the violating candidate of
        least weighted degree clears it from the others, then takes a
        factor x - x0.  Returns coefficient lists of length wdeg - dy (k-1) + 1.
        """
        F = self.field
        n, k = self.n, self.k
        wdeg = s * (n - t) - 1
        width = wdeg + 2  # room for one (x - x0) step past the bound
        polys = np.zeros((ly + 1, ly + 1, width), dtype=np.int64)
        polys[np.arange(ly + 1), np.arange(ly + 1), 0] = 1
        wdegs = np.arange(ly + 1) * (k - 1)
        # b outer, a inner: D_{a,b} of (x - x0) Q is D_{a-1,b} Q at x0, so
        # the constraints imposed so far survive the (x - x0) step
        bs, as_ = np.array([(b, a) for b in range(s) for a in range(s - b)]).T
        xbin = np.array([[math.comb(d, a) % F.p for d in range(width)] for a in range(s)])
        ybin = np.array([[math.comb(d, b) % F.p for d in range(ly + 1)] for b in range(s)])
        xshift = np.maximum(np.arange(width) - np.arange(s)[:, None], 0)
        yshift = np.maximum(np.arange(ly + 1) - np.arange(s)[:, None], 0)
        for x0, y0 in zip(self.locators, ys):
            xpow = np.array([F.pow(x0, e) for e in range(width)])
            ypow = np.array([F.pow(y0, e) for e in range(ly + 1)])
            # row [a, dx] is C(dx, a) x0^(dx - a), row [b, dy] is C(dy, b) y0^(dy - b)
            xrows = _vec_mul(xbin, xpow[xshift], F)
            yrows = _vec_mul(ybin, ypow[yshift], F)
            hasse = _vec_mul(yrows[bs, :, None], xrows[as_, None, :], F)
            for row in hasse:
                prod = _vec_mul(polys, row, F).reshape(ly + 1, -1)
                if F.p == 2:
                    disc = np.bitwise_xor.reduce(prod, axis=1)
                else:
                    disc = prod.sum(axis=1) % F.p
                # a candidate past the bound is never returned, and it never
                # feeds one within the bound, so it drops out
                disc[wdegs > wdeg] = 0
                hit = disc.nonzero()[0]
                if hit.size == 0:
                    continue
                piv = hit[wdegs[hit].argmin()]
                rest = hit[hit != piv]
                coef = _vec_mul(disc[rest], F.inv(int(disc[piv])), F)
                polys[rest] = sub(polys[rest], _vec_mul(coef[:, None, None], polys[piv], F), F)
                # the last column of a candidate within the bound is zero
                shifted = np.roll(polys[piv], 1, axis=1)
                polys[piv] = sub(shifted, _vec_mul(polys[piv], x0, F), F)
                wdegs[piv] += 1
        best = int(np.argmin(wdegs))
        if wdegs[best] > wdeg:
            raise RuntimeError(
                f"GRS [n = {n}, k = {k}] at radius t = {t}, multiplicity s = {s}: "
                f"Koetter interpolation reached weighted degree {wdegs[best]} > wdeg = {wdeg}"
            )
        return [polys[best, dy, : wdeg - dy * (k - 1) + 1].tolist() for dy in range(ly + 1)]

    # -- shortening --------------------------------------------------------------

    def reduce_poly(self, f: Poly, subset) -> Poly:
        """Repeated application of f |-> (f - f(beta)) / (x - beta) over subset."""
        F = self.field
        for beta in subset:
            shifted = f - Poly(F, (f.eval(beta),))
            f, rem = shifted.divmod(Poly(F, (F.neg(beta), 1)))
            assert rem.is_zero()
        return f

    def shorten(self, subset) -> "GrsCode":
        """Code realizing the shortening at the given locator values.

        The result is the [n - |S|, k - |S|, d] code whose codewords are
        the reduced polynomials evaluated at the remaining locators.
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
        symbols.  Returns (shortened word, ShortenContext); decoding the
        shortened word and lifting the error reproduces the original error.
        """
        subset = tuple(subset)
        F = self.field
        code = self.shorten(subset)
        vals = self._normalize(word)
        locs = list(self.locators)
        for beta in subset:
            bi = locs.index(beta)
            gb = vals[bi]
            del locs[bi], vals[bi]
            vals = [F.div(F.sub(v, gb), F.sub(a, beta)) for a, v in zip(locs, vals)]
        short_word = tuple(
            F.mul(v, nu) for v, nu in zip(vals, code.multipliers)
        )
        keep = [i for i in range(self.n) if self.locators[i] not in set(subset)]
        return short_word, ShortenContext(self, code, subset, tuple(keep))


@dataclass(frozen=True)
class ShortenContext:
    """Bookkeeping to lift a shortened error vector back to full length."""

    parent: GrsCode
    code: GrsCode
    subset: tuple[int, ...]
    kept: tuple[int, ...]

    def lift_error(self, short_error) -> tuple[int, ...]:
        F = self.parent.field
        full = [0] * self.parent.n
        for j, i in enumerate(self.kept):
            e = short_error[j]
            if e:
                a = self.parent.locators[i]
                prod = 1
                for beta in self.subset:
                    prod = F.mul(prod, F.sub(a, beta))
                full[i] = F.mul(e, prod)
        return tuple(full)


def _rr_roots(q_coeffs: list[list[int]], k: int, field: Field) -> list[list[int]]:
    """All y-roots of degree < k of Q(x, y) (Roth-Ruckenstein recursion)."""
    results: list[list[int]] = []

    def strip_x(q):
        # divide all coefficient polynomials by the largest common power of x
        shift = None
        for poly in q:
            for i, c in enumerate(poly):
                if c:
                    shift = i if shift is None else min(shift, i)
                    break
        if shift:
            q = [poly[shift:] if any(poly) else [] for poly in q]
        return q

    def subs(q, gamma):
        # Q(x, x*y + gamma), collected by powers of y
        ly = len(q) - 1
        out = [[0] * (max(len(p) for p in q) + ly + 1) for _ in range(ly + 1)]
        for i in range(ly + 1):
            for j in range(i, ly + 1):
                cb = math.comb(j, i) % field.p
                if cb == 0:
                    continue
                coef = field.mul(field.embed_int(cb), field.pow(gamma, j - i))
                if coef == 0:
                    continue
                for e, c in enumerate(q[j]):
                    if c:
                        out[i][e + i] = field.add(out[i][e + i], field.mul(coef, c))
        return [list(_trim(p)) for p in out]

    def _trim(p):
        i = len(p)
        while i and p[i - 1] == 0:
            i -= 1
        return p[:i]

    xs = np.arange(field.q, dtype=np.int64)

    def roots(coeffs):
        # Horner over every field element at once, in increasing order
        acc = np.zeros(field.q, dtype=np.int64)
        for c in reversed(coeffs):
            acc = sub(_vec_mul(acc, xs, field), field.neg(c), field)
        return np.flatnonzero(acc == 0).tolist()

    def recurse(q, prefix):
        q = strip_x(q)
        uni = [p[0] if p else 0 for p in q]
        for gamma in roots(uni):
            nxt = prefix + [gamma]
            if len(nxt) == k:
                results.append(nxt)
            else:
                recurse(subs(q, gamma), nxt)

    recurse([list(p) for p in q_coeffs], [])
    return results
