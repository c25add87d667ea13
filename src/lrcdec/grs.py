"""Generalized Reed-Solomon codes.

Every code builds its k x n generator once (row i is nu * alpha^i), the
read-only ``generator``; messages, words and candidate lists are int64
arrays.  A codeword is one field matrix product (``_kernels.matmul``) of
the message coefficients with the generator, and the list decoder
encodes all its candidates in one such product.  Guruswami-Sudan list
decoding settles, else covers, else interpolates, on the k-position sets
of the code's plan for radius t: GsPlan states that rule, its families
and why it is complete.  Re-encoding needs no elimination: the codeword
that agrees with a word on m <= k positions R' is the word there times
P_R', whose row i is the nu-scaled Lagrange basis polynomial of R'_i
(the barycentric form, Berrut-Trefethen), built in the log domain
(GrsCode._projections).  Interpolation is Koetter's, on the word
re-encoded on the plan's first member R (_gs_interpolate), and the
y-roots of Q come from the Roth-Ruckenstein recursion (_rr_roots).
Shortening at positions S is the same re-encoding, on S, into the code
with multipliers nu v_S(alpha), v_S = prod over S of (x - alpha)
(GrsCode._shorten), S through radii._positions.  A word is checked
once, by Field.check_symbols at the public entry it comes in by (its
type, its length and its symbols), and taken as checked inside.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from ._kernels import _vec_inv, _vec_mul, add, add_reduce, add_reduceat, matmul, powers, scale, sub
from .galois import Field
from .radii import _in_range, _positions


GS_MAX_MULTIPLICITY = 255
# the most cells (members k n) of a plan's member block, read once by GsPlan:
# measured, a cover of that size still decodes far faster than the cheapest
# interpolation
COVER_MAX_CELLS = 2**14
# gs_max_radius(n, k) as radii._in_range names it; args: role ("local " or ""), n, k
RADIUS_LIMIT = "{}, the radius of the {}[{}, {}] GRS decode"


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


class GrsCode:
    """[n, k] generalized Reed-Solomon code.

    Codewords are (nu_0 f(alpha_0), ..., nu_{n-1} f(alpha_{n-1})) for all
    message polynomials f of degree < k, given by their coefficients,
    lowest degree first.  Locators (pairwise distinct) and multipliers
    (nonzero) are n symbols of the field each (Field.check_symbols), and k
    is an integer in [0, n]; minimum distance is n - k + 1.  Dimension 0 (the zero
    code) is allowed as the degenerate endpoint of shortening.
    """

    def __init__(self, field: Field, locators: Sequence[int], multipliers: Sequence[int], k: int):
        self._alpha = field.check_symbols(locators, len(locators), "locators").copy()
        self._nu = field.check_symbols(multipliers, len(locators), "multipliers").copy()
        self.locators, self.multipliers = tuple(self._alpha.tolist()), tuple(self._nu.tolist())
        self.n = len(self.locators)
        _in_range("k", k, 0, self.n, "n = {}")
        if len(set(self.locators)) != self.n:
            raise ValueError("locators must be pairwise distinct")
        if not self._nu.all():
            raise ValueError("multipliers must be nonzero")
        self.field, self.k = field, k
        self._nu_inv = _vec_inv(self._nu, field)
        self.generator = _vec_mul(self._nu, powers(self._alpha, k, field), field)
        self.generator.flags.writeable = False
        self._gs_plans: dict[int, GsPlan] = {}
        self._shortened: dict[tuple[int, ...], tuple] = {}  # see _shorten
        self._settle: tuple[np.ndarray, np.ndarray] | None = None

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
        degree of k or more and for a message Field.check_symbols refuses
        (not integers, not one axis of symbols, a symbol outside the field)."""
        raw = np.asarray(coeffs)
        msg = self.field.check_symbols(raw, raw.size, "message", "one axis of size")
        c = np.zeros(max(self.k, msg.size), dtype=np.int64)
        c[: msg.size] = msg
        if c[self.k :].any():
            raise ValueError(f"message degree {np.flatnonzero(c)[-1]} >= k = {self.k}")
        return tuple(matmul(c[None, : self.k], self.generator, self.field)[0].tolist())

    def _normalize(self, word) -> np.ndarray:
        """Divide out the column multipliers: values of the message polynomial."""
        return _vec_mul(np.asarray(word), self._nu_inv, self.field)

    def _projections(self, members: np.ndarray) -> np.ndarray:
        """The stacked P_R', (members, m, n) and read-only, for the rows R'
        of members, m <= k distinct positions each: the word on R' times
        P_R' is the codeword of degree < m that agrees with it there (for
        m = k, P_R' = G[:, R']^-1 G).  Closed form, with no elimination:
        P_R'[i, x] = nu_x / nu_R'_i * prod over j != i of
        (alpha_x - alpha_R'_j) / (alpha_R'_i - alpha_R'_j), the identity on
        R'.  In the log domain, in every field: gathers of the logs of
        alpha_x - alpha_R'_j and alpha_R'_i - alpha_R'_j, sums mod q - 1
        and one exp gather, in O(members m n) memory; the term j = i of
        the second sum is log 0 = 2q, which is taken back out."""
        F, logs, (count, m) = self.field, self.field.log_table, members.shape
        at = self._alpha[members]
        logd = logs[sub(self._alpha, at[:, :, None], F)]
        den = logs[sub(at[:, :, None], at[:, None, :], F)].sum(axis=2) - 2 * F.q
        den += logs[self._nu[members]]
        num = logd.sum(axis=1) + logs[self._nu]
        p = F.exp_table[(num[:, None, :] - logd - den[:, :, None]) % (F.q - 1)]
        p[np.arange(count)[:, None], :, members] = np.eye(m, dtype=np.int64)
        p.flags.writeable = False
        return p

    # -- list decoding ---------------------------------------------------------

    def gs_list_decode(self, word, t: int, paths: dict | None = None, near=None) -> list[tuple]:
        """All codewords within Hamming distance t of word, by the rule of
        the code's plan for t (GsPlan): the first member R' whose c_R' has
        e' + t < d settles the list; else a plan that covers t lists the
        members' c_R' within t; else Q interpolates the word re-encoded on
        R (_gs_interpolate), and each y-root f' of Q maps back to
        f' G + c_R, one product, then a distance filter.

        Complete for every t up to gs_max_radius(n, k); ValueError beyond
        it and below 0, and for a word Field.check_symbols refuses (not
        integers, not n symbols in one axis, a symbol outside the field),
        checked here, once.  near, if given, is this word's column of
        _gs_near at t, so a caller with many words takes all their c_R' in
        one product per slice; word and t, checked for _gs_near, are not
        checked again.  paths, if given, is a dict whose count of the path
        taken, "settled", "covered" or "interpolated", goes up by one.
        """
        F = self.field
        if near is None:
            word = F.check_symbols(word, self.n)
            _in_range("t", t, 0, gs_max_radius(self.n, self.k), RADIUS_LIMIT, "", self.n, self.k)
            cands, dists = self._gs_near(word[None], t)
            near = cands[:, 0], dists[:, 0]
        plan, (words, dist) = self._gs_plan(t), near
        settles = dist < self.d - t
        first = settles.argmax()
        path = "settled" if settles[first] else "covered" if plan.covers else "interpolated"
        if paths is not None:
            paths[path] += 1
        if settles[first]:
            return [tuple(words[first].tolist())] if dist[first] <= t else []
        if not plan.covers:
            q = self._gs_interpolate(plan, sub(word, words[0], F))
            words = add(matmul(_rr_roots(q, self.k, F), self.generator, F), words[0], F)
            dist = np.count_nonzero(words != word, axis=1)
        return sorted(set(map(tuple, words[dist <= t].tolist())))

    def _gs_near(self, words: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(cands, dists): cands[:, i] the c_R' of the members of the plan
        for t, row i of words (checked int64 symbols) on R' times P_R', and
        dists[:, i] their distances to it, slice by slice (GsPlan.stops),
        one product per slice over every live row: rows x members x k x n
        cells.  A row leaves after the first slice in which a member
        settles it, so the members past that slice are not multiplied for
        it: their cands are 0 and their dists n.  A covering plan has one
        slice.  When the first slice decides every row, its own arrays are
        returned, with only that slice's members."""
        F, plan = self.field, self._gs_plan(t)
        count, live, lo, cands = len(plan.members), slice(None), 0, None
        for hi in plan.stops:
            at = words[live][:, plan.members[lo:hi]].swapaxes(0, 1)
            c = matmul(at, plan.projections[lo:hi], F)
            e = (c != words[live]).sum(axis=2)
            left = (e >= self.d - t).all(axis=0)
            if cands is None:
                if hi == count or not left.any():
                    return c, e
                cands = np.zeros((count, *words.shape), dtype=np.int64)
                dists = np.full(cands.shape[:2], self.n)
                live = np.arange(len(words))
            cands[lo:hi, live], dists[lo:hi, live] = c, e
            live, lo = live[left], hi
            if not live.size:
                break
        return cands, dists

    def _gs_plan(self, t: int) -> "GsPlan":
        """The code's GS plan for radius t, built on first use."""
        if t not in self._gs_plans:
            self._gs_plans[t] = GsPlan(self, t)
        return self._gs_plans[t]

    def _gs_interpolate(self, plan: "GsPlan", residual):
        """Interpolate the word re-encoded on R: returns Q.

        residual is word - c_R, c_R the codeword that agrees with the word
        on R (the first member's c_R', see gs_list_decode), so it is 0 on
        R; plan is this code's plan for the radius t, with its s and ly.
        R is the first k positions, except that a locator 0 is always
        taken in (see GsPlan), so every point outside R has x0 != 0.  Q has least
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
        """Code realizing the shortening at the positions S (_shorten)."""
        return self._shorten(positions)[0]

    def _shorten(self, positions) -> tuple:
        """(code, pos, rest, proj), kept per position set S: messages are
        f_S + v_S g, v_S = prod over S of (x - alpha), so code is the
        [n - |S|, k - |S|, d] code of the g on rest, the positions outside
        S, with multipliers nu v_S(alpha); a word on pos, S sorted, times
        proj = P_S (_projections) is c_S.  ValueError for positions that
        _positions refuses and more than k of them; none of those is kept."""
        key = _positions(positions, self.n)
        kept = self._shortened.get(key)
        if kept is None:
            F, pos, m = self.field, list(key), _in_range("|S|", len(key), None, self.k, "k = {}")
            proj = self._projections(np.array(pos, dtype=np.int64).reshape(1, m))[0]
            rest = np.delete(np.arange(self.n), pos)
            rest.flags.writeable = False
            logv = F.log_table[sub(self._alpha[rest], self._alpha[pos][:, None], F)].sum(axis=0)
            nu = F.exp_table[(F.log_table[self._nu[rest]] + logv) % (F.q - 1)]
            code = GrsCode(F, self._alpha[rest], nu, self.k - m)
            kept = self._shortened[key] = code, pos, rest, proj
        return kept

    def shorten_received(self, word, positions):
        """Map a word to the code shortened at the positions S, taking its
        symbols there as correct: returns (shortened code, word - c_S off S,
        c_S), both int64 arrays, c_S the codeword that agrees with the word
        on S (_shorten).  unshorten maps shortened codewords back.
        ValueError for a word Field.check_symbols refuses (not integers,
        not n symbols in one axis, a symbol outside the field) and for
        positions _shorten rejects."""
        word = self.field.check_symbols(word, self.n)
        code, pos, rest, proj = self._shorten(positions)
        c_s = matmul(word[pos][None], proj, self.field)[0]
        return code, sub(word[rest], c_s[rest], self.field), c_s

    def unshorten(self, positions, c_s, short_cws) -> np.ndarray:
        """c_S plus codewords of the code shortened at the positions S, with
        zeros put in at S: the full-length codewords they stand for, one
        per row of short_cws (one shortened codeword, or a sequence of
        them); c_S is taken as shorten_received returned it.  ValueError
        for shortened codewords that Field.check_symbols refuses, or not
        n - |S| symbols each."""
        rest = self._shorten(positions)[2]
        cws = np.asarray(short_cws)
        rows = cws.ndim == 2 and cws.shape[1] == rest.size
        need = None if rows else rest.size
        cws = self.field.check_symbols(cws, need, "shortened codeword", "n - |S|")
        full = np.asarray(c_s)[None].repeat(len(cws) if rows else 1, axis=0)
        full[:, rest] = add(full[:, rest], cws, self.field)
        return full if rows else full[0]


class GsPlan:
    """One code's GS plan at one radius t, and the rule gs_list_decode
    follows on it; every array is read-only.

    The rule.  Every k positions of a GRS code fix a codeword, so a member
    R' (a k-position set) gives c_R', the word on R' times P_R'
    (GrsCode._projections), at distance e' from the word.  Settle: if
    e' + t < d, any codeword c within t of the word has d(c, c_R') <= t +
    e' < d, so c = c_R', and the list is [c_R'] if e' <= t, else empty.
    Cover: if every set of at most t positions misses some member
    (covers), the errors of a codeword c within t miss some R', where c
    agrees with the word, so c = c_R', and the list is the members' c_R'
    within t (information-set decoding, Prange).  Interpolate: otherwise
    Q interpolates the word re-encoded on R, the first member, with
    multiplicity s and y-degree ly, gs_parameters(n, k, t), worked out
    here once (for k >= 2), so the plan is keyed by t alone; the rest
    Koetter needs except the received values (koetter, a _KoetterArrays)
    is built on the plan's first interpolation, as most plans never
    interpolate.

    R is the code's first k positions, except that a locator 0 is moved
    into R (a stable sort on alpha != 0): inside holds the positions in
    R, outside the n - k others in code order, and x_inside and x_outside
    the locators there, none of those outside 0.

    The family, each member a sorted tuple, R first.  When (t + 1) k <= n
    it is t + 1 pairwise disjoint k-sets taken along the order that gives
    R, and they cover t by pigeonhole.  That holds for every k <= 1 code
    (for k = 0 the one empty member), whose plan stops there: there is no
    interpolation below k = 2.  Otherwise the block family is R and the
    complements of the first two of the ceil(n/(n-k)) blocks of n - k
    consecutive positions, the last block ending at n - 1, so block i
    starts at min(i (n-k), k); a repeat is dropped.  It covers t = 1
    exactly when no position is common to all members, and never t >= 2:
    the pair {0, n-1} meets R (which holds position 0 for k >= 2), the
    complement of block 0 (which holds n - 1) and that of block 1 (which
    holds 0).  Where it does not cover, the equal-parts family takes its
    place if members k n <= COVER_MAX_CELLS: order split by
    np.array_split (larger parts first) into the largest number p of
    parts, of sizes n_i, with sum min(n_i, k - 1) < n - t, that is
    p = (n - t - 1) // (k - 1) (k >= 2 here), and all k-subsets of
    each part in itertools.combinations order, so R comes first.  An
    (n - t)-set with fewer than k positions in every part holds at most
    that sum, so the error-free positions hold a member (a covering
    design, Gordon-Kuperberg-Patashnik); one part always covers, as
    t < d.  There is no knob.

    members is the family as a (members, k) array, and projections the
    stacked P_R', (members, k, n).  Where the family does not cover t,
    settle_only sets (_settle_sets) follow it up to COVER_MAX_CELLS cells
    in all: they prove no cover, but a word hit by few errors has an
    error-free one, which settles it.  That family is the block family
    for every such t, so the code builds these members and their
    projections once, its settle block, and every plan of it that does
    not cover shares them.  stops ends the slices in which _gs_near
    multiplies the members, so a word settled early skips the rest: the
    family, then slices that double in size.  A covering plan has one
    slice, as its list needs every c_R'.

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
            blocks = [[*range(start), *range(start + n - k, n)] for start in (0, min(n - k, k))]
            family = [inside.tolist(), *blocks]
            self.covers = t == 1 and not set.intersection(*map(set, family))
            # the most members within COVER_MAX_CELLS cells (k >= 2 here)
            budget = COVER_MAX_CELLS // (k * n)
            # parts of k - 1 or more positions sum to p (k - 1), smaller ones to n
            parts = np.array_split(order, (n - t - 1) // (k - 1))
            if not self.covers and sum(math.comb(part.size, k) for part in parts) <= budget:
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
                settle = _settle_sets(order, self.family, k, budget - len(self.family))
                members = np.array([*self.family, *settle])
                members.flags.writeable = False
                code._settle = members, code._projections(members)
            self.members, self.projections = code._settle
        count, f = len(self.members), len(self.family)
        self.settle_only = count - f
        self.stops = (count,) if self.covers else tuple(
            sorted({min(f * (2**j - 1), count) for j in range(1, count.bit_length() + 1)})
        )
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


def _settle_sets(order: np.ndarray, family: tuple, k: int, room: int) -> list[tuple[int, ...]]:
    """At most room settle-only k-sets to follow a family that does not
    cover its t: order permuted by i -> (g i + shift) mod n, for shift = 0, 1, ...
    and within each shift every unit g of Z_n in increasing order, each
    permutation cut into floor(n/k) disjoint k-sets, each sorted; a set
    already taken is skipped.  A fixed rule, with no search: a code gives
    the same sets in every process."""
    n = order.size
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
