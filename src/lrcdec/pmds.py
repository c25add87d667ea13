"""Partial MDS (maximally recoverable) codes and decoding-failure analysis.

Covers exhaustive verification of the PMDS property, randomized
construction over large fields, counting of index sets compatible with
the locality structure, and the exact probability that a random error
support defeats the interleaved support-locating decoder, counted in
big-integer arithmetic from per-repair-set generating functions.

A code whose local restrictions have rank r is PMDS exactly when every
k-subset of positions meeting each repair set in at most r of them is an
information set (Blaum-Hafner-Hetzler 2013; Gopalan-Huang-Jenkins-
Yekhanin 2014).  There are s_mu_size(n, k, r, rho, k) such subsets, and
verify_pmds ranks each k x k minor once, in stacked batches.

The shape rules live in radii: random_pmds and PmdsCode.from_json check
their shape with CodeShape, the counts theirs with _repair_shape and the
range gate _in_range (they allow rho = 1 and k > mu r), and _partition
checks the repair sets of a descriptor or of verify_pmds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg
from .galois import Field
from .grs import GrsCode
from .radii import CodeShape, _below, _in_range, _partition, _repair_shape, optimal_distance


@dataclass
class PmdsCode:
    """Generator/parity pair with a repair-set partition; locals are MDS."""

    field: Field
    generator: np.ndarray
    parity: np.ndarray
    repair_sets: tuple[tuple[int, ...], ...]
    n: int
    k: int
    r: int
    rho: int

    @property
    def d(self) -> int:
        return optimal_distance(self.n, self.k, self.r, self.rho)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "generator": self.generator.tolist(),
            "parity": self.parity.tolist(),
            "repair_sets": [list(s) for s in self.repair_sets],
            "n": self.n, "k": self.k, "r": self.r, "rho": self.rho,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PmdsCode":
        """The code of a descriptor; ValueError for a generator or parity
        that Field.check_symbols refuses or of the wrong shape, a parity
        that does not annihilate the generator or has rank below n - k, and
        a shape or repair sets that CodeShape or _partition rejects.  The
        PMDS property is not checked here: verify_pmds checks it."""
        field = Field.from_json(obj["field"])
        gen = field.check_symbols(obj["generator"], name="generator")
        parity = field.check_symbols(obj["parity"], name="parity")
        n, k, r, rho = obj["n"], obj["k"], obj["r"], obj["rho"]
        shape = CodeShape(n, k, r, rho)
        if gen.shape != (k, n) or parity.shape != (n - k, n):
            raise ValueError(
                f"need a k x n generator and an (n - k) x n parity for n = {n}, k = {k}, "
                f"got {gen.shape} and {parity.shape}"
            )
        if linalg.matmul(gen, parity.T, field).any():
            raise ValueError("the parity-check matrix does not annihilate the generator")
        if (rk := linalg.rank(parity, field)) != n - k:
            raise ValueError(f"the parity-check matrix has rank {rk}, need n - k = {n - k}")
        sets = _partition(obj["repair_sets"], n, shape.n_l)
        return cls(field, gen, parity, sets, n, k, r, rho)


def _information_sets(repair_sets, k: int, r: int):
    """Yield each k-subset of positions that meets every repair set in at
    most r of them, as a tuple, without repeats."""
    if k == 0:
        yield ()
        return
    for i, rs in enumerate(repair_sets):
        if r * (len(repair_sets) - i) < k:
            return
        for w in range(1, min(r, k) + 1):
            for head in itertools.combinations(rs, w):
                for tail in _information_sets(repair_sets[i + 1 :], k - w, r):
                    yield head + tail


_RANK_BUDGET = 2_000_000  # rank tests per verify_pmds call, and matrix cells per stacked rank


def verify_pmds(
    field: Field,
    generator: np.ndarray,
    repair_sets: Sequence[Sequence[int]],
    r: int,
    rho: int,
) -> bool:
    """Exhaustive check of the maximal-recoverability property.

    The code is PMDS when every local restriction is an [r+rho-1, r, rho]
    MDS code and every puncturing of rho-1 positions per repair set leaves
    an MDS code of dimension k.  Given local rank r, that holds exactly
    when every k-subset meeting each repair set in at most r positions is
    an information set: such a subset is the k columns of some punctured
    code, and it contains any r columns of one repair set once mu r >= k.
    There are s_mu_size(n, k, r, rho, k) of them, so the check is mu local
    ranks and that many k x k minors, each ranked once in stacked chunks
    that stop at the first chunk with a singular minor.  mu r < k leaves
    no information set and returns False.

    The repair sets must partition range(n) into sets of size r+rho-1.
    Raises RuntimeError when the number of rank tests exceeds _RANK_BUDGET.
    """
    g = field.check_symbols(generator, name="generator")
    k, n = g.shape
    sets = _partition(repair_sets, n, r + rho - 1)
    minors = s_mu_size(n, k, r, rho, k)
    tests = len(sets) + minors
    if tests > _RANK_BUDGET:
        raise RuntimeError(
            f"exhaustive PMDS check needs {tests} rank tests, over the limit of {_RANK_BUDGET}"
        )
    if minors == 0:
        return False
    if (linalg.rank(np.moveaxis(g[:, sets], 1, 0), field) != r).any():
        return False
    chunk = max(1, _RANK_BUDGET // max(1, k * k))
    subsets = _information_sets(sets, k, r)
    while block := list(itertools.islice(subsets, chunk)):
        if (linalg.rank(np.moveaxis(g[:, block], 1, 0), field) != k).any():
            return False
    return True


_MAX_TRIES = 50  # random mixing matrices drawn by random_pmds


def random_pmds(q: int, n: int, k: int, r: int, rho: int, seed: int) -> PmdsCode:
    """Random PMDS code: fixed GRS local codes, random global combination.

    Draws the k x (mu*r) mixing matrix uniformly until the exhaustive
    verification passes.  Deterministic in the seed.  Raises ValueError
    after _MAX_TRIES draws (try a larger field), for q < n_l, and for a
    shape that CodeShape refuses; its d >= 1 holds only when k <= mu * r.
    """
    shape = CodeShape(n, k, r, rho)
    mu, n_l = shape.mu, shape.n_l
    field = Field(q)
    _in_range("q", q, n_l, None, "n_l = r + rho - 1 = {}")
    g_loc = GrsCode(field, list(range(n_l)), [1] * n_l, r).generator
    block = np.zeros((mu * r, n), dtype=np.int64)
    for i in range(mu):
        block[i * r : (i + 1) * r, i * n_l : (i + 1) * n_l] = g_loc
    repair_sets = tuple(
        tuple(range(i * n_l, (i + 1) * n_l)) for i in range(mu)
    )
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        mix = rng.integers(0, q, size=(k, mu * r), dtype=np.int64)
        gen = linalg.matmul(mix, block, field)
        if verify_pmds(field, gen, repair_sets, r, rho):
            parity = linalg.right_nullspace(gen, field)
            return PmdsCode(field, gen, parity, repair_sets, n, k, r, rho)
    raise ValueError(
        f"no PMDS instance found in {_MAX_TRIES} tries; use a larger field than {q}"
    )


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _power(poly: Sequence[int], m: int, deg: int) -> list[int]:
    """Coefficients 0..deg of poly(x)^m, by J. C. P. Miller's recurrence.

    With a the coefficients of poly from its lowest nonzero one on, P = a^m
    satisfies a P' = m a' P, so i a_0 p_i = sum_{j>=1} a_j p_{i-j} ((m+1) j - i)
    gives each coefficient from the ones below it, exactly, in
    O(deg * len(poly)) integer steps and without forming lower powers.
    """
    out = [0] * (deg + 1)
    v = next((i for i, c in enumerate(poly) if c), len(poly))
    a = list(poly[v:]) or [0]  # the zero polynomial: 0^0 = 1, 0^m = 0
    if v * m > deg:
        return out
    p = [a[0] ** m]
    for i in range(1, min(deg - v * m, (len(a) - 1) * m) + 1):
        acc = sum(a[j] * p[i - j] * ((m + 1) * j - i) for j in range(1, min(i, len(a) - 1) + 1))
        p.append(acc // (i * a[0]))
    out[v * m : v * m + len(p)] = p
    return out


def s_mu_size(n: int, k: int, r: int, rho: int, size: int) -> int:
    """Number of cardinality-`size` subsets meeting every repair set in <= r
    positions: [x^size] A(x)^mu with A(x) = sum_{w<=r} C(n_l, w) x^w.
    ValueError for k outside [0, n] and n, r, rho that _repair_shape refuses."""
    _in_range("k", k, 0, n, "n = {}")
    n, r, rho, mu = _repair_shape(n, r, rho)
    size = _in_range("size", size)
    if size < 0:
        return 0
    return _power([math.comb(r + rho - 1, w) for w in range(r + 1)], mu, size)[size]


def complement_count_closed_form(n: int, k: int, r: int) -> int:
    """Alternating sum counting the (k+1)-subsets that swallow a whole
    repair set, for local distance 2 (repair sets of size r+1); ValueError
    for k outside [0, n] and n, r that _repair_shape refuses with rho = 2."""
    k = _in_range("k", k, 0, n, "n = {}")
    n, r, *_ = _repair_shape(n, r, 2)
    total = 0
    for j in range(1, (k + 1) // (r + 1) + 1):
        term = math.comb(n // (r + 1), j) * math.comb(n - j * (r + 1), k + 1 - j * (r + 1))
        total += term if j % 2 == 1 else -term
    return total


def rank_full_fraction(q: int, ell: int, t: int) -> Fraction:
    """Fraction of ell x t matrices over GF(q) with full column rank t;
    ValueError for a non-integer, q < 2, ell < 0 or t < 0."""
    q, ell, t = _in_range("q", q, 2), _in_range("ell", ell, 0), _in_range("t", t, 0)
    if t > ell:
        return Fraction(0)
    num = 1
    for j in range(t):
        num *= q**ell - q**j
    return Fraction(num, q ** (t * ell))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _xi_shape(n: int, k: int, r: int, rho: int) -> tuple[int, int, int, int]:
    """(n, k, r, C(r+rho-1, xi)) as ints, after sk1_bound's checks in order."""
    k = _in_range("k", k, 0, n, "n = {}")
    n, r, rho, _ = _repair_shape(n, r, rho)
    _in_range("n", n, 1)
    _in_range("rho", rho, 2)
    xi = min(rho - 2, (r + rho - 1) // 2)
    return n, k, r, math.comb(r + rho - 1, xi)


def sk1_bound(n: int, k: int, r: int, rho: int) -> float:
    """Closed-form lower bound on the good-set fraction |S_(k+1)| / C(n, k+1):

    1 - n * C(r+rho-1, xi) * ((k+1)/n)^(r+1), xi = min(rho-2, floor((r+rho-1)/2)).
    ValueError for k outside [0, n], n, r, rho that _repair_shape refuses,
    and n < 1 or rho < 2, which (k+1)/n and xi need.
    """
    n, k, r, choose = _xi_shape(n, k, r, rho)
    return float(1 - Fraction(n) * choose * Fraction(k + 1, n) ** (r + 1))


def union_bound_failure(n: int, k: int, r: int, rho: int) -> Fraction:
    """Union bound on the failure fraction at weight n-k-1: the relative
    number of (k+1)-sets overloading at least one repair set; ValueError for
    k outside [0, n - 1] and n, r, rho that _repair_shape refuses."""
    k = _in_range("k", k, 0, n - 1, "n - 1 = {}")
    n, r, rho, mu = _repair_shape(n, r, rho)
    n_l = r + rho - 1
    bad = 0
    for j in range(r + 1, n_l + 1):
        bad += math.comb(n_l, j) * math.comb(n - n_l, k + 1 - j)
    return Fraction(mu * bad, math.comb(n, k + 1))


def asymptotic_predicates(
    n: int, k: int, r: int, rho: int, c1: float, c2: float
) -> tuple[bool, bool]:
    """The two conditions under which the good-set fraction tends to 1:

    a rate condition C(r+rho-1, xi)^(-1/(r+1)) > c1 (k+1)/n and a growth
    condition r+1 >= c2 log2(n) / log2(c1).  ValueError for arguments
    sk1_bound refuses and for constants that do not exceed 1.
    """
    n, k, r, choose = _xi_shape(n, k, r, rho)
    for name, c in (("c1", c1), ("c2", c2)):
        if c <= 1:
            raise _below(name, c, 1, strict=True)
    cond_rate = choose ** (-1.0 / (r + 1)) > c1 * (k + 1) / n
    cond_growth = r + 1 >= c2 * math.log2(n) / math.log2(c1)
    return cond_rate, cond_growth


# ---------------------------------------------------------------------------
# exact failure probability
# ---------------------------------------------------------------------------

def failure_prob_exact(n: int, k: int, r: int, rho: int, t: int) -> Fraction:
    """Probability that a uniform weight-t support defeats the decoder.

    The tau = n - t error-free positions fall w_i into repair set i, with
    weight prod_i C(n_l, w_i).  A support fails when the total excess
    sum_i max(0, w_i - r) exceeds theta - beta, where theta = n - k - t
    and beta = 1 when some set keeps 1..r positions.

    Two per-set generating functions give a closed count.  A set with
    excess e = w - r >= 1 adds C(n_l, w) z^e to G(z); one without adds
    C(n_l, w) y^(r-w) to B(y), marking its deficit r - w.  With j excess
    sets of total excess s, the other mu - j sets have total deficit
    c + s, c = r mu - tau.  A support succeeds when s < theta, or when
    s = theta and beta = 0, i.e. the other sets are empty (r j = k):

      good = sum_j C(mu, j) (sum_{s < theta} [z^s] G^j [y^(c+s)] B^(mu-j)
                             + [r j = k] [z^theta] G^j),

    and the result is 1 - good / C(n, t).  [z^s] G^j = 0 for s < j and
    [y^(c+s)] B^(mu-j) = 0 unless 0 <= c + s <= r (mu - j), so s runs over
    [lo, hi), lo = max(j, -c), hi = min(theta, r (mu - j) - c + 1).  Only a
    live j costs powers, cut at the window's top: lo < hi or r j = k.
    ValueError for k or t outside [0, n] and n, r, rho that _repair_shape refuses.
    """
    k, t = _in_range("k", k, 0, n, "n = {}"), _in_range("t", t, 0, n, "n = {}")
    n, r, rho, mu = _repair_shape(n, r, rho)
    n_l = r + rho - 1
    theta = n - k - t
    c = r * mu - (n - t)
    deficit = [math.comb(n_l, r - d) for d in range(r + 1)]
    excess = [0] + [math.comb(n_l, w) for w in range(r + 1, n_l + 1)]
    good = 0
    for j in range(min(mu, theta) + 1):
        lo, hi = max(j, -c), min(theta, r * (mu - j) - c + 1)
        edge = r * j == k
        if lo < hi or edge:
            g = _power(excess, j, theta if edge else hi - 1)
            b = _power(deficit, mu - j, c + hi - 1) if lo < hi else ()
            part = sum(g[s] * b[c + s] for s in range(lo, hi))
            good += math.comb(mu, j) * (part + (g[theta] if edge else 0))
    total = math.comb(n, t)
    return Fraction(total - good, total)


def mk_success_prob(n: int, k: int, r: int, rho: int, t: int, q: int, ell: int) -> Fraction:
    """Success probability of the support-locating decoder on a uniform
    weight-t burst with uniform values: (good supports) x (full rank).
    ValueError, before any generating-function power, for arguments either
    factor refuses (t against n first: it bounds the full-rank product)."""
    _in_range("t", t, 0, n, "n = {}")
    return rank_full_fraction(q, ell, t) * (1 - failure_prob_exact(n, k, r, rho, t))
