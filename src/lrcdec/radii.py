"""Decoding radii, list-size bounds, and gain criteria for LRCs.

This module owns the shape of an LRC: CodeShape (n, k, r, rho) derives
the repair-set size n_l = r + rho - 1, the number of repair sets
mu = n / n_l and the optimal distance d, and _num_repair_sets and
_partition are the one check of n_l | n and of a repair-set partition
that the code modules call.  It imports nothing else from the package.

The number of correctable errors at a real radius tau is the largest
integer t < tau.  ``q=None`` selects the alphabet-independent case
(theta = 1); a finite q uses theta = 1 - 1/q.  Each such tau is the
Johnson radius, or d/rho times the local one, and usually irrational, so
the float radius only starts a scan: every integer threshold is decided
by _below_johnson, one test in integers, and is exact by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

__all__ = [
    "optimal_distance",
    "CodeShape",
    "RadiusReport",
    "johnson_radius",
    "johnson_errors",
    "johnson_list_bound",
    "sigma_exact",
    "lrc_list_radius",
    "refined_error_count",
    "list_size_bounds",
    "gain_criteria",
    "normalized_radius",
    "irs_radius",
    "interleaved_lrc_radius",
    "interleaved_error_count",
    "h_decreasing",
    "generalized_weight",
    "erasure_list_size",
    "compute_report",
]


def _theta(q) -> tuple[int, int]:
    """theta = 1 - 1/q as (q - 1, q), and as (1, 1) for q = None or inf."""
    if q is None or q == math.inf:
        return 1, 1
    if q < 2:
        raise ValueError("field size must be at least 2")
    return q - 1, q


def optimal_distance(n: int, k: int, r: int, rho: int) -> int:
    """Singleton-like distance bound for an [n, k] code with (r, rho) locality."""
    if r > k or rho < 2:
        raise ValueError("need r <= k and rho >= 2")
    return n - k + 1 - (math.ceil(k / r) - 1) * (rho - 1)


def _num_repair_sets(n: int, r: int, rho: int) -> int:
    """mu = n / n_l for repair sets of size n_l = r + rho - 1."""
    n_l = r + rho - 1
    if n_l < 1:
        raise ValueError(f"repair-set size n_l = r + rho - 1 = {n_l} must be at least 1")
    if n % n_l:
        raise ValueError(f"repair-set size n_l = r + rho - 1 = {n_l} must divide n = {n}")
    return n // n_l


def _integer(name: str, *values) -> None:
    """ValueError naming the first value that is not an integer; a bool is not."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} = {v!r} is not an integer")


def _partition(repair_sets, n: int, n_l: int) -> tuple[tuple[int, ...], ...]:
    """The repair sets as tuples, if they partition range(n) into sets of size n_l."""
    sets = tuple(tuple(rs) for rs in repair_sets)
    _integer("repair-set position", *(i for rs in sets for i in rs))
    if sorted(i for rs in sets for i in rs) != list(range(n)) or any(
        len(rs) != n_l for rs in sets
    ):
        raise ValueError(
            f"repair sets must partition range({n}) into sets of size r + rho - 1 = {n_l}"
        )
    return sets


@dataclass(frozen=True)
class CodeShape:
    """Parameter tuple of an LRC; no concrete code is required."""

    n: int
    k: int
    r: int
    rho: int
    d: int = field(init=False)  # the optimal LRC distance

    def __post_init__(self):
        for name in ("n", "k", "r", "rho"):
            _integer(name, getattr(self, name))
        if self.k > self.n:
            raise ValueError(f"k = {self.k} exceeds n = {self.n}")
        if not 1 <= self.r <= self.k:
            raise ValueError(f"r = {self.r} must lie in [1, k = {self.k}]")
        if self.rho < 2:
            raise ValueError(f"rho = {self.rho} must be at least 2")
        _num_repair_sets(self.n, self.r, self.rho)
        object.__setattr__(self, "d", optimal_distance(self.n, self.k, self.r, self.rho))
        if self.d < 1:
            raise ValueError(f"d = {self.d} must be at least 1")

    @property
    def n_l(self) -> int:
        return self.r + self.rho - 1

    @property
    def mu(self) -> int:
        return self.n // self.n_l


# ---------------------------------------------------------------------------
# Johnson radius
# ---------------------------------------------------------------------------

def johnson_radius(n: int, d: int, q=None) -> float:
    """theta*n*(1 - sqrt(1 - d/(n*theta))); requires d <= n*theta."""
    num, den = _theta(q)
    if d < 0:
        raise ValueError("distance must be nonnegative")
    if d * den > n * num:
        raise ValueError(f"d = {d} exceeds n*theta = {n * num / den:g}")
    thf = num / den
    return thf * n * (1.0 - math.sqrt(1.0 - d / (n * thf)))


def _below_johnson(a: int, b: int, n: int, d: int, q) -> bool:
    """a/b < the Johnson radius T - sqrt(T(T - d)), T = theta*n, for b > 0:
    T - a/b > 0 and (T - a/b)^2 > T(T - d), multiplied by (den*b)^2."""
    num, den = _theta(q)
    x = num * n * b - a * den
    return x > 0 and x * x > b * b * num * n * (num * n - d * den)


def _largest_below(tau: float, below) -> int:
    """Largest integer t with below(t), where below(t) holds exactly when
    t < the real radius that the float tau approximates."""
    t = math.ceil(tau) + 1
    while not below(t):
        t -= 1
    return t


def johnson_errors(n: int, d: int, q=None) -> int:
    """Largest integer t strictly below the Johnson radius."""
    return _largest_below(johnson_radius(n, d, q), lambda t: _below_johnson(t, 1, n, d, q))


def johnson_list_bound(n: int, d: int, q, t: int) -> Fraction | None:
    """List-size bound theta*d*n / (t^2 - theta*n*(2t - d)) at integer radius t.

    Returns None when the denominator is not strictly positive (the bound
    carries no information at or beyond the Johnson radius).
    """
    num, den = _theta(q)
    denom = den * t * t - num * n * (2 * t - d)
    if denom <= 0:
        return None
    return Fraction(num * d * n, denom)


# ---------------------------------------------------------------------------
# LRC radii
# ---------------------------------------------------------------------------

def sigma_exact(shape: CodeShape) -> Fraction:
    """sigma at the operating point, where tau_g / tau_l = d / rho exactly."""
    return max(Fraction(0), Fraction(shape.mu) - Fraction(shape.d, shape.rho))


def lrc_list_radius(shape: CodeShape, q=None) -> float:
    """Global list-decoding radius exploiting locality.

    (d / rho) times the local Johnson radius whenever that guarantees at
    least one locally decodable repair set; the plain Johnson radius of
    the code otherwise.
    """
    if shape.mu * shape.rho > shape.d:  # sigma_exact(shape) > 0
        tau_jl = johnson_radius(shape.n_l, shape.rho, q)
        return shape.d / shape.rho * tau_jl
    return johnson_radius(shape.n, shape.d, q)


def _lrc_errors(shape: CodeShape, q=None, xi: int = 0) -> int:
    """Largest integer t < lrc_list_radius - xi*(rho - tau_Jl): when
    mu * rho > d, rho(t + xi*rho)/(d + xi*rho) < tau_Jl; else t < tau_J."""
    rho, d = shape.rho, shape.d
    if shape.mu * rho <= d:
        return johnson_errors(shape.n, d, q)
    tau_jl = johnson_radius(shape.n_l, rho, q)
    return _largest_below(
        d / rho * tau_jl - xi * (rho - tau_jl),
        lambda t: _below_johnson(rho * (t + xi * rho), d + xi * rho, shape.n_l, rho, q),
    )


def refined_error_count(shape: CodeShape, t_l: int, q=None) -> int:
    """Largest t with t^2 + theta * floor(t/(t_l+1)) * n_l * (d - 2t) > 0.

    Starts from the closed-form error count.  If it holds there, scans up
    to the last success before the first failure, capped at n; otherwise
    scans down to the first success, or 0 when no t >= 1 holds.
    """
    num, den = _theta(q)
    n_l, d = shape.n_l, shape.d

    def holds(t: int) -> bool:
        # theta = num / den, multiplied through by den > 0: integers only
        return den * t * t + num * (t // (t_l + 1)) * n_l * (d - 2 * t) > 0

    t = max(_lrc_errors(shape, q), 1)
    if not holds(t):
        while t > 0 and not holds(t):
            t -= 1
        return t
    while t + 1 <= shape.n and holds(t + 1):
        t += 1
    return t


def gain_criteria(shape: CodeShape, q=None) -> tuple[bool, bool]:
    """(radius exceeds Johnson, local radius large enough to help).

    The first test is mu * rho > d.  The second, tau_Jl / n_l > tau_J / n,
    holds exactly when rho / n_l > d / n, since the normalized Johnson
    radius theta(1 - sqrt(1 - delta/theta)) increases in delta = d/n.
    ValueError where either radius is undefined for q.
    """
    johnson_radius(shape.n_l, shape.rho, q)
    johnson_radius(shape.n, shape.d, q)
    return shape.mu * shape.rho > shape.d, shape.rho * shape.n > shape.d * shape.n_l


def normalized_radius(beta: float, delta: float, q=None) -> float:
    """Normalized radius (1/beta)*theta*(1 - sqrt(1 - beta*delta/theta)).

    beta is the ratio of normalized local to global distance; delta = d/n.
    Valid for a finite beta >= 1 while beta * delta <= theta (up to the
    Singleton crossing).
    """
    th = float(Fraction(*_theta(q)))
    if not 1 <= beta < math.inf:
        raise ValueError(f"beta = {beta:g} must be finite and at least 1")
    x = beta * delta / th
    if x > 1 + 1e-12:
        raise ValueError(f"beta*delta/theta = {x:g} is past the domain boundary 1")
    x = min(x, 1.0)
    return th / beta * (1.0 - math.sqrt(1.0 - x))


# ---------------------------------------------------------------------------
# list-size bounds
# ---------------------------------------------------------------------------

def list_size_bounds(
    shape: CodeShape, t_l: int | None = None, q=None
) -> tuple[int | None, int | None]:
    """Worst-case list bounds (basic, first-order improved).

    Basic: C(mu, ceil(sigma)) * L_local^ceil(sigma) * L_global(tau_g).
    Improved: the global factor may be evaluated at radius
    tau_g - xi*(rho - tau_Jl) for the worst xi <= ceil(sigma), which is
    never larger.  Returns None where a component bound is unbounded.
    """
    scl = math.ceil(sigma_exact(shape))
    johnson_radius(shape.n_l, shape.rho, q)  # ValueError when rho > n_l * theta
    if t_l is None:
        t_l = johnson_errors(shape.n_l, shape.rho, q)
    if scl == 0:
        t_j = johnson_errors(shape.n, shape.d, q)
        lb = johnson_list_bound(shape.n, shape.d, q, t_j)
        v = None if lb is None else math.floor(lb)
        return v, v
    n_short = shape.n - scl * shape.n_l
    l_loc = johnson_list_bound(shape.n_l, shape.rho, q, t_l)
    if l_loc is None:
        return None, None

    def global_bound(xi: int) -> Fraction | None:
        t = _lrc_errors(shape, q, xi)
        if t < 0:
            return Fraction(0)
        if n_short <= shape.d:
            return Fraction(1)
        return johnson_list_bound(n_short, shape.d, q, t)

    bounds = [global_bound(xi) for xi in range(scl + 1)]
    if bounds[0] is None:
        return None, None
    choose = math.comb(shape.mu, scl)
    basic = math.floor(choose * l_loc**scl * bounds[0])
    if None in bounds:
        return basic, None
    return basic, math.floor(choose * max(l_loc**xi * g for xi, g in enumerate(bounds)))


# ---------------------------------------------------------------------------
# interleaved radii
# ---------------------------------------------------------------------------

def irs_radius(n: int, d: int, ell: int) -> float:
    """Maximal burst radius of interleaved RS decoders, n(1 - ((n-d)/n)^(ell/(ell+1)))."""
    if ell < 1:
        raise ValueError("interleaving degree must be at least 1")
    return n * (1.0 - ((n - d) / n) ** (ell / (ell + 1.0)))


def interleaved_lrc_radius(shape: CodeShape, ell: int) -> float:
    """Radius of the local-global strategy with interleaved component decoders.

    Equals (d / rho) times the local interleaved radius when locality
    helps (mu * rho > d), i.e. the real solution of the shortened-length
    fixed point; the plain interleaved radius of the code otherwise.
    """
    if shape.mu * shape.rho > shape.d:
        return shape.d / shape.rho * irs_radius(shape.n_l, shape.rho, ell)
    return irs_radius(shape.n, shape.d, ell)


def interleaved_error_count(shape: CodeShape, ell: int) -> int:
    """Largest t with (N - t)^(ell+1) > N (N - d)^ell, N = n - ceil(sigma)*n_l.

    Exact integer arithmetic; ceil(sigma) comes from the rational
    operating point sigma = mu - d/rho.
    """
    scl = math.ceil(sigma_exact(shape))
    nn = shape.n - scl * shape.n_l
    d = shape.d
    if nn <= 0:
        return 0
    if nn <= d:
        return nn - 1
    t = 0
    while t + 1 < nn and (nn - (t + 1)) ** (ell + 1) > nn * (nn - d) ** ell:
        t += 1
    return t


def h_decreasing(d: int, ell: int, q, n_values: Sequence[int], tol: float = 1e-12) -> bool:
    """Check that theta*n*(1 - (1 - d/(n theta))^(ell/(ell+1))) never increases.

    All n in n_values must satisfy n >= d / theta.
    """
    th = float(Fraction(*_theta(q)))
    ns = sorted(n_values)
    if ns and ns[0] < d / th:
        raise ValueError(f"grid starts below d/theta = {d / th:g}")

    def h(n):
        return th * n * (1.0 - (1.0 - d / (n * th)) ** (ell / (ell + 1.0)))

    vals = [h(n) for n in ns]
    return all(b <= a + tol for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# erasure list decoding
# ---------------------------------------------------------------------------

def generalized_weight(n: int, k: int, r: int, i: int) -> int:
    """i-th generalized Hamming weight bound of an (r, 2)-locality code.

    Attained with equality by distance-optimal codes.
    """
    if not 1 <= i <= k:
        raise ValueError(f"need 1 <= i <= k, got i = {i}")
    return n - k - math.ceil((k - i + 1) / r) + i + 1


def erasure_list_size(n: int, k: int, r: int, q: int, t: int) -> int:
    """Smallest worst-case list size when recovering t erasures.

    q^j for the least j with d_(j+1) > t; requires t < n.
    """
    if not 0 <= t < n:
        raise ValueError("erasure count must be in [0, n)")
    for j in range(k):
        if generalized_weight(n, k, r, j + 1) > t:
            return q**j
    raise RuntimeError("unreachable: d_k = n > t")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class RadiusReport:
    """The radii that the radius tables print for one shape."""

    n: int
    k: int
    r: int
    rho: int
    n_l: int
    d: int
    tau_j_local: float
    t_local: int
    tau_j: float
    tau_g: float
    refined_t_g: int
    tau_irs_l2: float
    tau_g_interleaved_l2: float


def compute_report(shape: CodeShape) -> RadiusReport:
    """The radii of shape in the alphabet-independent convention (theta = 1)
    of the comparison tables: they do not depend on the field size."""
    t_l = johnson_errors(shape.n_l, shape.rho)
    return RadiusReport(
        n=shape.n,
        k=shape.k,
        r=shape.r,
        rho=shape.rho,
        n_l=shape.n_l,
        d=shape.d,
        tau_j_local=johnson_radius(shape.n_l, shape.rho),
        t_local=t_l,
        tau_j=johnson_radius(shape.n, shape.d),
        tau_g=lrc_list_radius(shape),
        refined_t_g=refined_error_count(shape, t_l),
        tau_irs_l2=irs_radius(shape.n, shape.d, 2),
        tau_g_interleaved_l2=interleaved_lrc_radius(shape, 2),
    )
