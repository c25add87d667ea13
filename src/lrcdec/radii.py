"""Decoding radii, list-size bounds, and gain criteria for LRCs.

This module owns the shape of an LRC: CodeShape (n, k, r, rho) derives
the repair-set size n_l = r + rho - 1, the number of repair sets
mu = n / n_l and the optimal distance d, and _repair_shape and
_partition are the one check of n_l | n and of a repair-set partition
that the code modules call.  _in_range is the one range gate of an
integer argument, and _below and _exceeds word every refusal of a value
past its limit.  _positions is the one gate of a position set, each
caller passing its own n.  It imports nothing else from the package.

The number of correctable errors at a real radius tau is the largest
integer t < tau.  ``q=None`` selects the alphabet-independent case
(theta = 1); a finite q uses theta = 1 - 1/q.  Each such tau is the
Johnson radius, or d/rho times the local one, and usually irrational, so
the float radius only starts a scan: every integer threshold is decided
by _below_johnson, one test in integers, and is exact by construction.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
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
    """theta = 1 - 1/q as (q - 1, q) for an integer q >= 2 (_in_range), and
    as (1, 1) for q = None or inf."""
    if q is None or q == math.inf:
        return 1, 1
    q = _in_range("q", q, 2)
    return q - 1, q


def optimal_distance(n: int, k: int, r: int, rho: int) -> int:
    """Singleton-like distance bound for an [n, k] code with (r, rho) locality."""
    _in_range("r", r, None, k, "k = {}")
    _in_range("rho", rho, 2)
    return n - k + 1 - (math.ceil(k / r) - 1) * (rho - 1)


def _repair_shape(n: int, r: int, rho: int) -> tuple[int, int, int, int]:
    """(n, r, rho, mu) as ints (numpy integers overflow in the counts), mu =
    n / n_l for repair sets of size n_l = r + rho - 1; ValueError unless n,
    r and rho are integers, r >= 0, n_l >= 1, n_l divides n and rho >= 1."""
    n, rho, r = _in_range("n", n), _in_range("rho", rho), _in_range("r", r, 0)
    n_l = _in_range("n_l = r + rho - 1", r + rho - 1, 1)
    if n % n_l:
        raise ValueError(f"repair-set size n_l = r + rho - 1 = {n_l} must divide n = {n}")
    _in_range("rho", rho, 1)
    return n, r, rho, n // n_l


def _integer(name: str, *values) -> None:
    """ValueError naming the first value that is not an integer; a bool is not."""
    for v in values:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ValueError(f"{name} = {v!r} is not an integer")


def _below(name: str, value, limit, strict: bool = False) -> ValueError:
    """The refusal of name = value under its lower limit (the limit's value
    or its text), or, strict, at or under a limit it has to stay above."""
    return ValueError(f"{name} = {value} is {'at or ' * strict}below the limit {limit}")


def _exceeds(name: str, value, limit) -> ValueError:
    """The refusal of name = value over its upper limit (its value or text)."""
    return ValueError(f"{name} = {value} exceeds the limit {limit}")


def _in_range(name: str, value, low=None, high=None, of: str = "{}", *args) -> int:
    """The range gate of every integer argument: value as an int if it is an
    integer (_integer) in [low, high], None for no limit; else ValueError
    naming it and the limit it leaves (_below, _exceeds), which reads
    of.format(limit, *args), formatted on refusal only.  of names high, or
    low where high is None: "n = {}" reads "the limit n = 15"."""
    if type(value) is not int:
        _integer(name, value)
        value = int(value)
    if low is not None and value < low:
        raise _below(name, value, (of if high is None else "{}").format(low, *args))
    if high is not None and value > high:
        raise _exceeds(name, value, of.format(high, *args))
    return value


def _positions(values, n: int, name: str = "position", of: str = "n - 1 = {}") -> tuple[int, ...]:
    """The gate of every position set: values as a sorted tuple of distinct
    ints in range(n); else ValueError naming the first entry that is not an
    integer (_integer), else the first outside [0, n - 1] (_in_range, of
    naming n - 1), else the smallest that repeats."""
    values = tuple(values)
    try:
        key = tuple(sorted(set(map(operator.index, values))))
        if len(key) == len(values) and bool not in map(type, values):
            if not key or (key[0] >= 0 and key[-1] < n):
                return key
    except TypeError:  # not an integer
        pass
    _integer(name, *values)
    for v in values:
        _in_range(name, v, 0, n - 1, of)
    key = sorted(map(int, values))
    raise ValueError(f"{name} = {next(a for a, b in zip(key, key[1:]) if a == b)} repeats")


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
        _integer("n", self.n)
        _in_range("k", self.k, None, self.n, "n = {}")
        _in_range("r", self.r, 1, self.k, "k = {}")
        _in_range("rho", self.rho, 2)
        _repair_shape(self.n, self.r, self.rho)
        object.__setattr__(self, "d", optimal_distance(self.n, self.k, self.r, self.rho))
        _in_range("d", self.d, 1)

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
    """theta*n*(1 - sqrt(1 - d/(n*theta))); requires integers n >= 1 and
    0 <= d <= n*theta."""
    num, den = _theta(q)
    n, d = _in_range("n", n, 1), _in_range("d", d, 0)
    if d * den > n * num:
        raise _exceeds("d", d, f"n*theta = {n * num / den:g}")
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
    carries no information at or beyond the Johnson radius) and when
    t > theta*n: the denominator is positive again above its upper root
    theta*n + sqrt(theta*n(theta*n - d)), but the Johnson argument needs
    t <= theta*n.  Requires integers n >= 1, 0 <= d <= n and t >= 0; d
    may exceed n*theta, the Plotkin range.
    """
    num, den = _theta(q)
    n, d, t = _in_range("n", n, 1), _in_range("d", d, 0, n, "n = {}"), _in_range("t", t, 0)
    denom = den * t * t - num * n * (2 * t - d)
    if denom <= 0 or t * den > num * n:
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


@functools.cache
def refined_error_count(shape: CodeShape, t_l: int, q=None) -> int:
    """Last t of the run of t with t^2 + theta * floor(t/(t_l+1)) * n_l * (d - 2t) > 0
    that contains, or lies nearest below, the closed-form error count.

    Not the largest such t, as the inequality is not monotone in t:
    CodeShape(6, 3, 1, 2) at t_l = 1 gives 1, yet t = 3 holds and t = 2
    does not.  Starts from the closed-form error count.  If it holds
    there, scans up to the last success before the first failure, capped
    at n; otherwise scans down to the first success, or 0 when no t >= 1
    holds.  t_l is an integer >= 0.
    """
    num, den = _theta(q)
    n_l, d, t_l = shape.n_l, shape.d, _in_range("t_l", t_l, 0)

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
    Valid for a finite beta >= 1 and delta >= 0 while beta * delta <= theta
    (up to the Singleton crossing).
    """
    th = float(Fraction(*_theta(q)))
    if not beta >= 1:  # nan included
        raise _below("beta", f"{beta:g}", 1)
    if beta == math.inf:
        raise _exceeds("beta", beta, f"{sys.float_info.max:g}")
    if not delta >= 0:  # nan included
        raise _below("delta", f"{delta:g}", 0)
    x = beta * delta / th
    if x > 1 + 1e-12:
        raise _exceeds("beta*delta/theta", f"{x:g}", 1)
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
    A given t_l is an integer >= 0.
    """
    scl = math.ceil(sigma_exact(shape))
    johnson_radius(shape.n_l, shape.rho, q)  # ValueError when rho > n_l * theta
    t_l = johnson_errors(shape.n_l, shape.rho, q) if t_l is None else _in_range("t_l", t_l, 0)
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
    """Maximal burst radius of interleaved RS decoders, n(1 - ((n-d)/n)^(ell/(ell+1))),
    for integers ell >= 1, n >= 1 and d in [0, n]."""
    _in_range("ell", ell, 1)
    n = _in_range("n", n, 1)
    d = _in_range("d", d, 0, n, "n = {}")
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
    _in_range("ell", ell, 1)
    scl = math.ceil(sigma_exact(shape))
    nn = shape.n - scl * shape.n_l
    d = shape.d
    if nn <= 0:
        return 0
    if nn <= d:
        return nn - 1
    return _largest_below(  # the test holds exactly when t < irs_radius(N, d, ell)
        irs_radius(nn, d, ell), lambda t: (nn - t) ** (ell + 1) > nn * (nn - d) ** ell
    )


def h_decreasing(d: int, ell: int, q, n_values: Sequence[int], tol: float = 1e-12) -> bool:
    """Check that theta*n*(1 - (1 - d/(n theta))^(ell/(ell+1))) never increases.

    All n in n_values must satisfy n >= d / theta, d must be an integer
    >= 0 and ell an integer >= 1.
    """
    _in_range("ell", ell, 1)
    d = _in_range("d", d, 0)
    th = float(Fraction(*_theta(q)))
    ns = sorted(n_values)
    if ns and ns[0] < d / th:
        raise _below("n", ns[0], f"d/theta = {d / th:g}")

    def h(n):
        return th * n * (1.0 - (1.0 - d / (n * th)) ** (ell / (ell + 1.0)))

    vals = [h(n) for n in ns]
    return all(b <= a + tol for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# erasure list decoding
# ---------------------------------------------------------------------------

def generalized_weight(n: int, k: int, r: int, i: int) -> int:
    """i-th generalized Hamming weight bound of an (r, 2)-locality code.

    Attained with equality by distance-optimal codes.  Requires an integer
    i in [1, k].
    """
    _in_range("i", i, 1, k, "k = {}")
    return n - k - math.ceil((k - i + 1) / r) + i + 1


def erasure_list_size(n: int, k: int, r: int, q: int, t: int) -> int:
    """Smallest worst-case list size when recovering t erasures.

    q^j for the least j with d_(j+1) > t; requires an integer t in [0, n).
    """
    _in_range("t", t, 0, n - 1, "n - 1 = {}")
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
