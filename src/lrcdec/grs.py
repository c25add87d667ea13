"""Generalized Reed-Solomon codes.

Every code builds its k x n generator once (row i is nu * alpha^i) and
keeps it read-only; messages, words and candidate lists are int64
arrays.  A codeword is one field matrix product (``_kernels.matmul``) of
the message coefficients with the generator, and the list decoder
encodes all its candidates in one such product.  Guruswami-Sudan list
decoding settles, else covers, else interpolates, on the k-position sets
(GsPlan.members) of the code's plan for radius t: its family
(GsPlan.family), then, where the family does not cover t, settle-only
sets.  Every k positions of a GRS code fix a codeword, so a member R'
gives c_R', the word on R' times P_R' = G[:, R']^-1 G, at distance e'
from the word.  Settle: if
e' + t < d, any codeword c within t of the word has d(c, c_R') <= t + e'
< d, so c = c_R', and the list is [c_R'] if e' <= t, else empty.  Cover:
if every set of at most t positions misses some member (the family
covers t), the errors of a codeword c within t miss some R', where c
agrees with the word, so c = c_R', and the list is the members' c_R'
within t (information-set decoding, Prange).  t + 1 pairwise disjoint
k-sets cover t by pigeonhole, and the plan takes them whenever
(t + 1) k <= n.  Else all k-subsets of each of p parts of sizes n_i
cover t when sum min(n_i, k - 1) < n - t: an (n - t)-set with fewer than
k positions in every part holds at most that many, so its error-free
positions hold a member (a covering design, Gordon-Kuperberg-Patashnik),
and the plan takes them when the stacked product of all c_R' costs at
most COVER_MAX_CELLS cells (members k n).  Where the family does not
cover t, settle-only sets fill that budget: they prove no cover, but a
word hit by few errors has an error-free one, which settles it
(information-set decoding again).  They come from a fixed rule, the
plan's order permuted by i -> (g i + shift) mod n over the units g of
Z_n and cut into disjoint k-sets (_settle_sets), and neither they nor
the family they follow depend on t, so a code builds this settle block
once and every plan of it that does not cover shares it.  All P_R' of a
plan come from one Gauss-Jordan pass over the stack of copies of G
(GrsCode._projections), with no pivot search: the leading minors of
G[:, R'] are nu-scaled Vandermonde determinants.  Interpolate: otherwise
the word is re-encoded on R, the first member (Koetter-Vardy): the word
minus c_R is 0 on R, where the multiplicity-s constraints say exactly
that Q_j is divisible by v^(s-j), v = prod over R of (x - alpha), so
Koetter's iterative interpolation starts from the rows v^(s-j) y^j and
runs only over the n - k points outside R, none of them at x = 0; the
roots f' of Q map back to the candidates f' + f_R.  Interpolation runs
on a GsPlan, which the code builds once per radius t and keeps: s and ly
from gs_parameters when the plan is built, and Koetter's arrays, all
else but the received values, on its first interpolation.  A word is
checked once, by Field.check_symbols at the public entry it comes in by
(its type, its length and its symbols), and taken as checked inside.  The
candidates are the rows of one array whose first columns carry each
candidate's Hasse discrepancies at the current point and whose other
columns are exactly the monomials x^dx y^dy of (1, k-1)-weighted
degree <= wdeg, in weighted-degree order, so a row operation touches
only the pivot's support.  The Roth-Ruckenstein recursion then finds
the y-roots of Q, one (ly + 1, wdeg + 1) array, as the rows of one
array, each substitution Q(x, x y + gamma) one matrix product, and each
level's roots from one Horner pass over the whole field.  Shortening at
positions S is the same re-encoding, on S (``_agree_on``, by a
``linalg.rref``), into the code with multipliers nu v_S(alpha).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from ._kernels import _vec_inv, _vec_mul, add, add_reduce, add_reduceat, matmul, powers, scale, sub
from .galois import Field
from .linalg import rref
from .radii import _integer


GS_MAX_MULTIPLICITY = 255
# the most cells (members k n) of a cover's stacked product: measured, a cover
# of that size still decodes far faster than the cheapest interpolation
COVER_MAX_CELLS = 2**14


def gs_parameters(n: int, k: int, t: int) -> tuple[int, int] | None:
    """Smallest multiplicity s <= GS_MAX_MULTIPLICITY, with its y-degree ly,
    that guarantees radius t for an [n, k] code, k >= 2; None if there is
    none.  Reachability is monotone: a radius below a reachable one is
    reachable."""
    for s in range(1, GS_MAX_MULTIPLICITY + 1):
        wdeg = s * (n - t) - 1
        if wdeg < 0:
            continue
        ly = wdeg // (k - 1)
        # the monomials x^dx y^dy with dx + dy (k-1) <= wdeg, dy <= ly
        unknowns = (ly + 1) * (wdeg + 1) - (k - 1) * ly * (ly + 1) // 2
        if unknowns > n * s * (s + 1) // 2:
            return s, ly
    return None


@functools.cache
def gs_max_radius(n: int, k: int) -> int:
    """Largest radius the GS decoder reaches on an [n, k] code: for k >= 2
    the largest t <= n - 1 - floor(sqrt(n(k-1))) (the Johnson bound) that
    gs_parameters reaches, n - k for k <= 1.  Computed once per (n, k)."""
    if k <= 1:
        return n - k
    t = n - 1 - math.isqrt(n * (k - 1))
    while gs_parameters(n, k, t) is None:
        t -= 1
    return t


def check_radius(name: str, t: int, n: int, k: int, role: str = ""):
    """ValueError unless t is an integer and 0 <= t <= gs_max_radius(n, k),
    naming the radius (name = t) and the decode it is for (role, then [n, k])."""
    _integer(name, t)
    if t < 0:
        raise ValueError(f"{name} = {t} is below the limit 0")
    reach = gs_max_radius(n, k)
    if t > reach:
        decode = f"{role} [{n}, {k}]".lstrip()
        raise ValueError(f"{name} = {t} exceeds the radius {reach} of the {decode} GRS decode")


class GrsCode:
    """[n, k] generalized Reed-Solomon code.

    Codewords are (nu_0 f(alpha_0), ..., nu_{n-1} f(alpha_{n-1})) for all
    message polynomials f of degree < k, given by their coefficients,
    lowest degree first.  Locators (pairwise distinct) and multipliers
    (nonzero) are n symbols of the field each (Field.check_symbols), and k
    is an integer; minimum distance is n - k + 1.  Dimension 0 (the zero
    code) is allowed as the degenerate endpoint of shortening.
    """

    def __init__(self, field: Field, locators: Sequence[int], multipliers: Sequence[int], k: int):
        self._alpha = field.check_symbols(locators, len(locators), "locators").copy()
        self._nu = field.check_symbols(multipliers, len(locators), "multipliers").copy()
        self.locators, self.multipliers = tuple(self._alpha.tolist()), tuple(self._nu.tolist())
        _integer("k", k)
        if len(set(self.locators)) != self.n:
            raise ValueError("locators must be pairwise distinct")
        if not self._nu.all():
            raise ValueError("multipliers must be nonzero")
        if not 0 <= k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k = {k}, n = {self.n}")
        self.field, self.k = field, k
        self._nu_inv = _vec_inv(self._nu, field)
        self._generator = _vec_mul(self._nu, powers(self._alpha, k, field), field)
        self._generator.flags.writeable = False
        self._gs_plans: dict[int, GsPlan] = {}
        self._shortened: dict[tuple[int, ...], GrsCode] = {}
        self._agree_inv: dict[tuple[int, ...], np.ndarray] = {}
        self._settle: tuple[np.ndarray, np.ndarray] | None = None

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

    # -- encoding -----------------------------------------------------------------

    def encode(self, coeffs) -> tuple[int, ...]:
        """Codeword of the message polynomial with these coefficients, lowest
        degree first; a shorter sequence is zero-padded.  ValueError for a
        degree of k or more and for a symbol outside the field."""
        c = np.zeros(max(self.k, len(coeffs)), dtype=np.int64)
        c[: len(coeffs)] = self.field.check_symbols(coeffs, name="message")
        if c[self.k :].any():
            raise ValueError(f"message degree {np.flatnonzero(c)[-1]} >= k = {self.k}")
        return tuple(matmul(c[None, : self.k], self._generator, self.field)[0].tolist())

    def _normalize(self, word) -> np.ndarray:
        """Divide out the column multipliers: values of the message polynomial."""
        return _vec_mul(np.asarray(word), self._nu_inv, self.field)

    def generator_matrix(self) -> np.ndarray:
        """The stored k x n generator (read-only)."""
        return self._generator

    def _agree_inverse(self, positions) -> tuple[list[int], np.ndarray]:
        """(pos, inv): the positions sorted, and the inverse of the
        generator's first m = len(pos) <= k rows at those columns, kept
        read-only on this code, one per position set.  ValueError for more
        than k positions, a repeated position or one outside range(n)."""
        pos = sorted(int(i) for i in positions)
        m = len(pos)
        inv = self._agree_inv.get(tuple(pos))
        if inv is None:
            # only valid position sets are ever kept, so a hit needs no check
            if m > self.k:
                raise ValueError(f"at most k = {self.k} positions fix a codeword, got {m}")
            if len(set(pos)) != m or not all(0 <= i < self.n for i in pos):
                raise ValueError(f"need pairwise distinct positions in range({self.n}), got {pos}")
            # [G_m,pos | I] reduces to [I | G_m,pos^-1]
            aug = np.concatenate((self._generator[:m, pos], np.eye(m, dtype=np.int64)), axis=1)
            inv = self._agree_inv[tuple(pos)] = rref(aug, self.field)[0][:, m:]
            inv.flags.writeable = False
        return pos, inv

    def _projections(self, members: np.ndarray) -> np.ndarray:
        """The stacked P_R' = G[:, R']^-1 G, (members, k, n) and read-only,
        for the rows R' of members, distinct positions each: one
        Gauss-Jordan pass over the stack of copies of G, column R'_j
        cleared by row j in every copy at once, which leaves G[:, R']^-1 G.
        No pivot is searched for: the leading j x j minor of G[:, R'] is a
        nu-scaled Vandermonde determinant on distinct locators (0^0 = 1),
        so the j-th pivot, a ratio of two such minors, is never 0."""
        F, every = self.field, np.arange(len(members))
        p = np.repeat(self._generator[None], len(members), axis=0)
        for j in range(self.k):
            col = members[:, j]
            row = _vec_mul(p[:, j], _vec_inv(p[every, j, col], F)[:, None], F)
            # row j clears itself to 0, then takes the scaled row
            p = sub(p, _vec_mul(p[every, :, col][:, :, None], row[:, None, :], F), F)
            p[:, j] = row
        p.flags.writeable = False
        return p

    def _agree_on(self, word: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
        """(f, c): the message f of degree < m = len(positions) <= k whose
        codeword c agrees with word there (_agree_inverse); word is an
        int64 array whose symbols the caller has checked."""
        pos, inv = self._agree_inverse(positions)
        msg = matmul(word[pos][None], inv, self.field)
        return msg[0], matmul(msg, self._generator[: len(pos)], self.field)[0]

    # -- list decoding ---------------------------------------------------------

    def gs_list_decode(self, word, t: int, paths: dict | None = None) -> list[tuple[int, ...]]:
        """All codewords within Hamming distance t of word.

        Complete for every t up to gs_max_radius(n, k); ValueError beyond
        it and below 0, and for a word Field.check_symbols refuses (not
        integers, not n symbols in one axis, a symbol outside the field),
        checked here, once.  One path for every plan: one gather of the
        word on all members R' of the plan (GsPlan.members: its family,
        then any settle-only sets), one product with the stacked
        projections P_R' = G[:, R']^-1 G (GsPlan.projections) gives every
        c_R', and one count their distances e' (see the module docstring).
        A member with e' + t < d settles the list; else, if the family
        covers t (GsPlan.covers), the list is the members' c_R' within t.
        Otherwise Koetter interpolation of a bivariate Q(x, y)
        through word - c_R, c_R from the first member R, on the code's plan
        for t, which holds the smallest sufficient multiplicity (see GsPlan
        and _gs_interpolate), then Roth-Ruckenstein root finding of its
        y-roots f'(x) of degree < k, then the map back: f = f' + f_R
        encodes to f' G + c_R, one product, then a distance filter.
        paths, if given, is a dict whose count of the path taken,
        "settled", "covered" or "interpolated", goes up by one.
        """
        F = self.field
        word = F.check_symbols(word, self.n)
        check_radius("t", t, self.n, self.k)
        plan = self._gs_plan(t)
        # every member's c_R' in one product: the word on R' times P_R'
        words = matmul(word[plan.members][:, None], plan.projections, F)[:, 0]
        dist = np.count_nonzero(words != word, axis=1)
        settled = np.flatnonzero(dist + t < self.d)
        path = "settled" if settled.size else "covered" if plan.covers else "interpolated"
        if paths is not None:
            paths[path] += 1
        if settled.size:
            return [tuple(words[settled[0]].tolist())] if dist[settled[0]] <= t else []
        if not plan.covers:
            q = self._gs_interpolate(plan, sub(word, words[0], F))
            words = add(matmul(_rr_roots(q, self.k, F), self._generator, F), words[0], F)
            dist = np.count_nonzero(words != word, axis=1)
        return sorted(set(map(tuple, words[dist <= t].tolist())))

    def _gs_plan(self, t: int) -> "GsPlan":
        """The code's GS plan for radius t, built on first use."""
        if t not in self._gs_plans:
            self._gs_plans[t] = GsPlan(self, t)
        return self._gs_plans[t]

    def _gs_interpolate(self, plan: "GsPlan", residual):
        """Interpolate the word re-encoded on R: returns Q.

        residual is word - c_R, c_R the codeword that agrees with the word
        on R (_agree_on on the plan's inside), so it is 0 on R; plan is
        this code's plan for the radius t, with its s and ly.  R is the
        first k positions, except that a locator 0 is always taken in (see
        GsPlan), so every point outside R has x0 != 0.  Q has least
        (1, k-1)-weighted degree and multiplicity s at every point
        (alpha_i, residual_i / nu_i), by Koetter's iterative interpolation
        on the plan.  The residual is 0 on R, where multiplicity s means
        that Q_j is divisible by v^(s-j), v = prod over R of (x - alpha):
        the start rows v^((s-j)+) y^j meet those constraints, so only the
        n - k points outside R are interpolated.
        A y-root f' of Q within distance t of the residual is f - f_R for
        a codeword f within distance t of the word.

        Candidates Q_j (j <= ly) are the rows of one array (see GsPlan):
        nc = s(s+1)/2 discrepancy columns, a zero column, then the M
        monomials of weighted degree <= wdeg in weighted-degree order; a
        start row past wdeg drops out at once.  At each point outside R
        one factorised pass fills every candidate's
        discrepancies D_{a,b} Q_j(x0, y0): an x-side Hasse sum within each
        y-degree, then a y-side one.  The x side is one field product, by
        x0^dx, as C(dx, a) x0^(dx-a) = C(dx, a) x0^dx x0^-a with the
        binomial in the prime field and x0^-a moved to the y side.  Per
        constraint, in (b, a) order, the violating candidate of least
        weighted degree clears its column from the others over its support
        only, then takes a factor x - x0: one gather through the x-shift
        source index, which also moves the discrepancy D_{a-1,b} to
        D_{a,b}, as D_{a,b}((x - x0) Q)(x0, y0) = D_{a-1,b} Q(x0, y0).  The row
        operations keep the discrepancy columns up to date.  Q is returned
        as one (ly + 1, wdeg + 1) array, row dy the x-coefficients of y^dy.
        """
        F, s, ly, wdeg, kt = self.field, plan.s, plan.ly, plan.wdeg, plan.koetter
        ys = self._normalize(residual)[plan.outside]
        nc, end, src = kt.nc, kt.end.tolist(), kt.x_source
        polys = kt.init.copy()
        wdegs = kt.row_wdegs.tolist()
        # row [i, c, 0] is the y-side row of constraint c at the i-th point
        # outside R, times x0^-a_c there
        ybs = _vec_mul(kt.ybin, powers(ys, ly + 1, F).T[:, kt.yshift], F)
        ybs = _vec_mul(ybs, kt.xinv[:, :, None], F)[:, :, None]
        w = np.empty((s, ly + 1, ly + 1), dtype=np.int64)
        for x0, xpow, yb in zip(plan.x_outside.tolist(), kt.xpows, ybs):
            # w[a, j, dy] = x0^a sum_dx C(dx, a) x0^(dx - a) Q_j[dx, dy]: one
            # field product by x0^dx, then the binomials, prime-field integers
            r = _vec_mul(polys[:, kt.dy_major], xpow[kt.col_dx], F)
            for a, xb in enumerate(kt.xbin):
                w[a] = add_reduceat(scale(r, xb, F), kt.starts, F)
            polys[:, :nc] = add_reduce(_vec_mul(w[kt.cons_a], yb, F), 2, F).T
            x0_row = kt.monomials * x0  # x0 on the monomial columns, 0 before them
            for c in range(nc):
                col = polys[:, c]
                disc = col.tolist()
                # a candidate past the bound is never returned, and it never
                # feeds one within the bound, so it drops out
                hit = [j for j, v in enumerate(disc) if v and wdegs[j] <= wdeg]
                if not hit:
                    continue
                piv = min(hit, key=wdegs.__getitem__)
                e = end[wdegs[piv]]
                if len(hit) > 1:
                    # one slice over all rows: rows with a zero discrepancy
                    # and the pivot take coefficient 0, and a row past the
                    # bound may change, as it is never used again
                    coef = _vec_mul(col, F.inv(disc[piv]), F)
                    coef[piv] = 0
                    p = polys[piv, :e]
                    polys[:, :e] = sub(polys[:, :e], _vec_mul(coef[:, None], p, F), F)
                wdegs[piv] += 1
                # past wdeg, the coefficients that leave the bound are dropped
                e = end[min(wdegs[piv], wdeg)]
                polys[piv, :e] = sub(
                    polys[piv, src[:e]], _vec_mul(polys[piv, :e], x0_row[:e], F), F
                )
        best = min(range(ly + 1), key=wdegs.__getitem__)
        if wdegs[best] > wdeg:
            raise RuntimeError(
                f"GRS [n = {self.n}, k = {self.k}] at radius t = {plan.t}, multiplicity s = {s}: "
                f"Koetter interpolation reached weighted degree {wdegs[best]} > wdeg = {wdeg} "
                f"({plan.describe()})"
            )
        q = np.zeros((ly + 1, wdeg + 1), dtype=np.int64)
        q[kt.col_dy, kt.col_dx] = polys[best, kt.dy_major]
        return q

    # -- shortening --------------------------------------------------------------

    def shorten(self, positions) -> "GrsCode":
        """Code realizing the shortening at the positions S.

        Every message is f_S + v_S g, v_S = prod over S of (x - alpha), so
        the result is the [n - |S|, k - |S|, d] code of the g on the other
        locators, with multipliers nu v_S(alpha).  It is kept in a dict on
        this code, one per position set, so a shortened code and its GS
        plans are built once; the LRC list decoder asks for one per
        combination of repair sets it visits, which bounds the dict.
        ValueError for positions _agree_on rejects.
        """
        pos = tuple(sorted(int(i) for i in positions))
        if pos not in self._shortened:
            # v_S = x^m - f, f of degree < m agreeing with x^m on S: re-encode
            # nu x^m; _agree_on checks the positions, so only valid ones are kept
            F, m = self.field, len(pos)
            xm = _vec_mul(self._nu, powers(self._alpha, m + 1, F)[m], F)
            nu = sub(xm, self._agree_on(xm, pos)[1], F)
            rest = self._rest(pos)
            self._shortened[pos] = GrsCode(F, self._alpha[rest], nu[rest], self.k - m)
        return self._shortened[pos]

    def shorten_received(self, word, positions):
        """Map a word to the code shortened at the positions S, taking its
        symbols there as correct: returns (shortened code, word - c_S off S
        as a tuple, c_S), c_S the codeword that agrees with the word on S
        (_agree_on).  unshorten maps a shortened codeword back.  ValueError
        for a word Field.check_symbols refuses (not integers, not n
        symbols in one axis, a symbol outside the field) and for positions
        _agree_on rejects."""
        word = self.field.check_symbols(word, self.n)
        pos = tuple(positions)
        code, rest = self.shorten(pos), self._rest(pos)
        _, c_s = self._agree_on(word, pos)
        short_word = sub(word[rest], c_s[rest], self.field)
        return code, tuple(short_word.tolist()), c_s

    def unshorten(self, positions, c_s, short_cw) -> np.ndarray:
        """c_S plus a codeword of the code shortened at the positions S, with
        zeros put in at S: the full-length codeword it stands for; c_S is
        taken as shorten_received returned it.  ValueError for a shortened
        codeword that Field.check_symbols refuses as n - |S| symbols of
        the field."""
        full, rest = np.array(c_s), self._rest(positions)
        short_cw = self.field.check_symbols(short_cw, rest.size, "shortened codeword", "n - |S|")
        full[rest] = add(full[rest], short_cw, self.field)
        return full

    def _rest(self, positions) -> np.ndarray:
        """The positions of this code outside the given ones."""
        return np.delete(np.arange(self.n), list(positions))


class GsPlan:
    """One code's GS plan at one radius t; every array is read-only.  It
    holds the k-position sets that gs_list_decode settles or covers on,
    their projections and, for k >= 2, the multiplicity s and y-degree ly,
    gs_parameters(n, k, t), worked out here once, so the plan is keyed by
    t alone; what else Koetter interpolation needs except the received
    values (koetter, a _KoetterArrays) is built on the plan's first
    interpolation, as most plans never interpolate.

    Re-encoding on R, the code's first k positions, except that a
    locator 0 is moved into R (a stable sort on alpha != 0): inside holds
    the positions in R, outside the n - k others in code order, and
    x_inside and x_outside the locators there, none of those outside 0.
    R is the first member, so the codeword that agrees with the word on R
    is the first c_R'.

    The family of k-position sets that gs_list_decode settles or covers
    on, each a sorted tuple, R first; covers says that every set of at
    most t positions misses some member.  When (t + 1) k <= n the members
    are t + 1 pairwise disjoint k-sets taken along the order that gives
    R, and they cover t by pigeonhole: at most t positions cannot meet
    all of them.  That holds for every k <= 1 code (for k = 0 the family
    is the one empty member), whose plan stops there: there is no
    interpolation below k = 2.  Otherwise the block family is R and the
    complements of the first two of the ceil(n/(n-k)) blocks of n - k
    consecutive positions, the last block ending at n - 1, so block i
    starts at min(i (n-k), k); a repeat is dropped.  It covers t = 1
    exactly when no position is common to all members, and never t >= 2:
    the pair {0, n-1} meets R (which holds position 0 for k >= 2), the
    complement of block 0 (which holds n - 1) and that of block 1 (which
    holds 0).  Where it does not cover, the equal-parts family (see the
    module docstring) takes its place if members k n <= COVER_MAX_CELLS:
    order split by np.array_split (larger parts first) into the largest
    number of parts that covers t, and all k-subsets of each part in
    itertools.combinations order, so R comes first; one part always
    covers, as t < d.  There is no knob.

    members is the family as a (members, k) array, followed, where the
    family does not cover t, by settle_only sets (_settle_sets) up to
    COVER_MAX_CELLS cells in all.  That family is the block family for
    every such t, so the code builds these members and their projections
    once, its settle block, and every plan of it that does not cover
    shares them.  projections is the stacked P_R' = G[:, R']^-1 G,
    (members, k, n), so the word on R' times P_R' is c_R', from one
    stacked elimination (GrsCode._projections).

    Size and cost: s, ly, the unknowns M, the constraints
    C = (n - k) s(s+1)/2 that Koetter imposes on the points outside R,
    and the cell-ops C (ly+1) M of the row operations without the support
    bound.
    """

    def __init__(self, code: GrsCode, t: int):
        F, n, k = code.field, code.n, code.k
        self.field, self.t, self.n, self.k, self.points = F, t, n, k, n - k
        # a locator 0 sorts first, so it lands in R and no point outside R
        # has x0 = 0
        order = np.argsort(code._alpha != 0, kind="stable")
        order.flags.writeable = False
        self.inside, self.outside = inside, outside = order[:k], order[k:]
        self.covers = (t + 1) * k <= n
        if self.covers:
            family = [order[i * k : (i + 1) * k] for i in range(t + 1)]
        else:
            family = [inside] + [np.r_[:start, start + n - k : n] for start in (0, min(n - k, k))]
            self.covers = t == 1 and not set.intersection(*(set(m.tolist()) for m in family))
            for p in range(n, 0, -1):  # p = 1 covers, as t < d
                size, big = divmod(n, p)  # big parts of size + 1, then p - big of size
                if big * min(size + 1, k - 1) + (p - big) * min(size, k - 1) < n - t:
                    break
            parts = np.array_split(order, p)
            cells = k * n * sum(math.comb(part.size, k) for part in parts)
            if not self.covers and cells <= COVER_MAX_CELLS:
                family = [m for part in parts for m in itertools.combinations(part.tolist(), k)]
                self.covers = True
        self.family = tuple(dict.fromkeys(tuple(sorted(map(int, m))) for m in family))
        if self.covers:
            self.members = np.array(self.family, dtype=np.int64).reshape(len(self.family), k)
            self.members.flags.writeable = False
            self.projections = code._projections(self.members)
        else:
            # a plan that does not cover t takes the block family, whatever t
            # is, so one settle block serves every such plan of the code
            if code._settle is None:
                members = np.array([*self.family, *_settle_sets(order, self.family, k)])
                members.flags.writeable = False
                code._settle = members, code._projections(members)
            self.members, self.projections = code._settle
        self.settle_only = len(self.members) - len(self.family)
        self.x_inside, self.x_outside = code._alpha[inside], code._alpha[outside]
        self.x_inside.flags.writeable = self.x_outside.flags.writeable = False
        if k <= 1:
            return
        s, ly = gs_parameters(n, k, t)
        self.s, self.ly = s, ly
        self.wdeg = wdeg = s * (n - t) - 1
        # the monomials x^dx y^dy with dx + dy (k-1) <= wdeg, dy <= ly
        self.unknowns = (ly + 1) * (wdeg + 1) - (k - 1) * ly * (ly + 1) // 2
        self.constraints = (n - k) * s * (s + 1) // 2
        self.cell_ops = self.constraints * self.unknowns * (ly + 1)

    @functools.cached_property
    def koetter(self) -> "_KoetterArrays":
        """Koetter's arrays (see _KoetterArrays), built on the plan's first
        interpolation."""
        return _KoetterArrays(self)

    def describe(self) -> str:
        cover = f"covers t = {self.t}"
        if not self.covers:
            cover = f"does not cover t = {self.t}, {self.settle_only} settle-only sets"
        family = f"GS plan: {len(self.family)} re-encoding sets, {cover}"
        if self.k <= 1:
            return f"{family}, no interpolation below k = 2"
        return (
            f"{family}; s = {self.s}, ly = {self.ly}, M = {self.unknowns} unknowns, "
            f"C = {self.constraints} constraints on {self.points} of {self.n} points, "
            f"{self.cell_ops} cell-ops"
        )


class _KoetterArrays:
    """What Koetter interpolation on one plan needs except the received
    values, every array read-only.

    Candidate-array columns: nc = s(s+1)/2 discrepancy columns, one per
    Hasse constraint (a, b) in (b, a) order, then one zero column, then
    the M monomials x^dx y^dy with dx + dy (k-1) <= wdeg, sorted by
    weighted degree, ties by dy.  end[w] is the number of columns before
    the first monomial of weighted degree > w, so columns [0, end[w])
    hold the discrepancies and the whole support of a candidate of
    weighted degree w.  dy_major lists the column of each monomial in
    dy-major order (dx fastest), whose y-degree blocks begin at starts;
    col_dy and col_dx are the monomials' degrees in that order.
    x_source is the column each column takes under Q -> x Q: a monomial
    takes x^(dx-1) y^dy, a discrepancy column (a, b) takes (a-1, b), and
    dx = 0 and a = 0 take the zero column.

    The start rows init are v^((s-j)+) y^j, v = prod over R of
    (x - alpha), of weighted degree row_wdegs[j] = k (s-j)+ + j (k-1); a
    row past wdeg is left zero, as it never takes part.  The x-side arrays
    cover the points outside R only.
    """

    def __init__(self, plan: GsPlan):
        F, k, s, ly, wdeg = plan.field, plan.k, plan.s, plan.ly, plan.wdeg
        k1 = k - 1
        lens = wdeg + 1 - np.arange(ly + 1) * k1
        col_dy = np.repeat(np.arange(ly + 1), lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        col_dx = np.arange(col_dy.size) - starts[col_dy]
        m = plan.unknowns
        # b outer, a inner: D_{a,b} of (x - x0) Q is D_{a-1,b} Q at x0, the
        # constraint just before, so those imposed so far survive the step
        cons_b, cons_a = np.array([(b, a) for b in range(s) for a in range(s - b)]).T
        self.nc = nc = cons_a.size
        off = nc + 1
        # column of each monomial, dy-major, in the weighted-degree order
        weights = col_dx + col_dy * k1
        dy_major = np.empty(m, dtype=np.int64)
        dy_major[np.lexsort((col_dy, weights))] = off + np.arange(m)
        x_source = np.full(off + m, nc)
        x_source[:nc] = np.where(cons_a > 0, np.arange(nc) - 1, nc)
        x_source[dy_major[1:]] = np.where(col_dx[1:] > 0, dy_major[:-1], nc)
        self.starts, self.col_dy, self.col_dx, self.dy_major = starts, col_dy, col_dx, dy_major
        self.end = off + np.searchsorted(np.sort(weights), np.arange(wdeg + 1), side="right")
        self.x_source = x_source
        self.monomials = (np.arange(off + m) >= off).astype(np.int64)
        # start rows v^e y^j, e = (s-j)+, written into the dy = j block
        vpow = [np.ones(1, dtype=np.int64)]
        for _ in range(s):
            v = vpow[-1]
            for a in plan.x_inside:
                v = sub(np.append(0, v), np.append(_vec_mul(v, a, F), 0), F)  # (x - a) v
            vpow.append(v)
        e = np.maximum(s - np.arange(ly + 1), 0)
        self.row_wdegs = e * k + np.arange(ly + 1) * k1
        self.init = np.zeros((ly + 1, off + m), dtype=np.int64)
        for j in np.flatnonzero(self.row_wdegs <= wdeg):
            self.init[j, dy_major[starts[j] + np.arange(e[j] * k + 1)]] = vpow[e[j]]
        # x side: C(dx, a) mod p per dy-major column, the x-powers outside R
        # and x^-a_c per constraint; y-side row [c, dy] is
        # C(dy, b_c) y0^(dy - b_c) once y0's powers are gathered by yshift
        self.cons_a = cons_a
        xbin = np.array([[math.comb(d, a) % F.p for d in range(wdeg + 1)] for a in range(s)])
        self.xbin = xbin[:, col_dx]
        self.xpows = powers(plan.x_outside, wdeg + 1, F).T
        self.xinv = powers(_vec_inv(plan.x_outside, F), s, F).T[:, cons_a]
        self.ybin = np.array([[math.comb(d, b) % F.p for d in range(ly + 1)] for b in cons_b])
        self.yshift = np.maximum(np.arange(ly + 1) - cons_b[:, None], 0)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False


def _settle_sets(order: np.ndarray, family: tuple, k: int) -> list[tuple[int, ...]]:
    """The settle-only k-sets that follow a family that does not cover its
    t, as many as keep the members within COVER_MAX_CELLS cells (members
    k n): order permuted by i -> (g i + shift) mod n, for shift = 0, 1, ...
    and within each shift every unit g of Z_n in increasing order, each
    permutation cut into floor(n/k) disjoint k-sets, each sorted; a set
    already taken is skipped.  A fixed rule, with no search: a code gives
    the same sets in every process."""
    n = order.size
    room = COVER_MAX_CELLS // (k * n) - len(family)
    taken, sets = set(family), []
    units = np.array([g for g in range(1, n) if math.gcd(g, n) == 1])
    for shift in range(n):
        perms = order[(units[:, None] * np.arange(n // k * k) + shift) % n]
        for m in np.sort(perms.reshape(-1, k), axis=1).tolist():
            if len(sets) >= room:
                return sets
            if tuple(m) not in taken:
                taken.add(tuple(m))
                sets.append(tuple(m))
    return sets


def _rr_roots(q: np.ndarray, k: int, field: Field) -> np.ndarray:
    """All y-roots of degree < k of Q(x, y) (Roth-Ruckenstein recursion), in
    increasing order, as the rows of an (m, k) int64 array.

    Q is an (ly + 1, width) int64 array, row dy holding the
    x-coefficients of y^dy.  The substitution Q(x, x y + gamma) is one
    array product: T[i, j] = C(j, i) gamma^(j - i) times Q, then row i
    shifts right by i.  The roots gamma of each level's Q(0, y) come from
    one Horner pass over all q field elements, in increasing order.
    """
    rows = q.shape[0]
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
            acc = add(_vec_mul(acc, xs, field), c, field)
        return np.flatnonzero(acc == 0).tolist()

    def subs(q, gamma):
        # Q(x, x y + gamma), collected by powers of y
        tmat = _vec_mul(binom, powers([gamma], rows, field)[gap, 0], field)
        prod = matmul(tmat, q, field)
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

    recurse(q, [])
    return np.array(results, dtype=np.int64).reshape(-1, k)
