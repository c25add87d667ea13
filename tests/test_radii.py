import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lrcdec import radii
from lrcdec.radii import (
    CodeShape,
    compute_report,
    erasure_list_size,
    gain_criteria,
    generalized_weight,
    h_decreasing,
    interleaved_error_count,
    interleaved_lrc_radius,
    irs_radius,
    johnson_errors,
    johnson_list_bound,
    johnson_radius,
    list_size_bounds,
    lrc_list_radius,
    normalized_radius,
    optimal_distance,
    refined_error_count,
    sigma_exact,
)

SHAPE_63 = CodeShape(63, 16, 8, 14)
SHAPE_15 = CodeShape(15, 6, 3, 3)
SHAPE_500 = CodeShape(500, 99, 33, 68)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(n=15, k=16, r=3, rho=3), "k = 16"),
        (dict(n=15, k=6, r=0, rho=3), "r = 0"),
        (dict(n=15, k=2, r=3, rho=3), "r = 3"),
        (dict(n=6, k=6, r=1, rho=0), "rho = 0"),
        (dict(n=6, k=5, r=2, rho=2), "d = 0"),  # k = mu * r + 1
        (dict(n=6, k=6, r=1, rho=2), "d = -4"),
        (dict(n=10, k=4, r=2, rho=2), r"n_l = r \+ rho - 1 = 3 must divide n = 10"),
    ],
)
def test_code_shape_rejects_out_of_range(kwargs, name):
    with pytest.raises(ValueError, match=name):
        CodeShape(**kwargs)


def test_radii_loads_without_the_package():
    # radii owns the shape rules that lrc and pmds import, so it imports
    # nothing from lrcdec: loaded from its file, with no parent package, in
    # a fresh interpreter, it runs and leaves no lrcdec module behind
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('radii_alone', {radii.__file__!r})\n"
        "module = sys.modules['radii_alone'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "assert module.CodeShape(15, 6, 3, 3).d == 8\n"
        "print(sorted(m for m in sys.modules if m.startswith('lrcdec')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": ""})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("module", ["lrcdec", "lrcdec.radii", "lrcdec.listdec"])
def test_exported_names_resolve(module):
    # a deleted function must not leave its name behind in __all__
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_johnson_example_63():
    assert abs(johnson_radius(63, 35) - 21.0) < 1e-9
    assert johnson_errors(63, 35) == 20
    assert math.floor(johnson_list_bound(63, 35, None, 20)) == 2205 // 85 == 25


def test_johnson_zero_distance():
    assert johnson_radius(10, 0) == 0.0
    assert johnson_errors(10, 0) == -1


def test_johnson_errors_at_integer_radii():
    # tau_J(9, 5) = 9 - sqrt(36) = 3 and tau_J(9, 8) = 9 - sqrt(9) = 6
    assert johnson_errors(9, 5) == 2
    assert johnson_errors(9, 8) == 5


@pytest.mark.parametrize(
    "shape, t_g, bounds",
    [
        # tau_g = (8/8) tau_J(9, 8) = 6; the float radius is 5.999999999999998
        (CodeShape(18, 4, 2, 8), 5, (211, 54)),
        # tau_g = (5/5) tau_J(9, 5) = 3; the float radius is 3.0000000000000004
        (CodeShape(18, 10, 5, 5), 2, (23, 6)),
    ],
)
def test_lrc_thresholds_at_integer_radii(shape, t_g, bounds):
    assert radii._lrc_errors(shape) == t_g
    assert list_size_bounds(shape) == bounds


def test_johnson_domain_error():
    with pytest.raises(ValueError):
        johnson_radius(10, 6, 2)  # d > n/2 for the binary alphabet


def test_johnson_q_dependence():
    # the q-ary radius exceeds its alphabet-independent (q -> inf) limit
    assert johnson_radius(63, 35, 64) > johnson_radius(63, 35, None)


def test_sigma_examples():
    assert sigma_exact(CodeShape(9, 4, 2, 2)) == Fraction(1, 2)  # mu = 3, d / rho = 5/2
    assert sigma_exact(CodeShape(12, 4, 2, 2)) == 0  # d / rho = mu = 4
    assert sigma_exact(CodeShape(12, 3, 3, 2)) == 0  # d / rho = 5 > mu = 3 clamps at 0
    assert sigma_exact(SHAPE_500) == 5 - Fraction(268, 68)
    assert math.ceil(sigma_exact(SHAPE_500)) == 2


def test_lrc_radius_examples():
    assert lrc_list_radius(SHAPE_63) == pytest.approx(22.19, abs=0.01)
    assert lrc_list_radius(SHAPE_15) == pytest.approx(4.9, abs=0.01)
    # boundary mu * rho = d: falls back to the Johnson radius
    boundary = CodeShape(12, 4, 2, 2)
    assert lrc_list_radius(boundary) == pytest.approx(johnson_radius(12, 8), abs=1e-12)


def test_refined_error_count_examples():
    assert refined_error_count(SHAPE_63, 8) == 24
    assert refined_error_count(SHAPE_15, 1) == 5
    assert refined_error_count(SHAPE_500, 43) == 175
    # the closed-form start 9 fails: 81 + 4 * 5 * (13 - 18) = -19; 8 holds
    assert refined_error_count(CodeShape(15, 3, 3, 3), 1) == 8
    # not the largest t that holds, as the inequality is not monotone in t:
    # the run from the start ends at 1, as t = 2 fails (4 - 4 = 0), yet
    # t = 3 holds (9 - 8 > 0)
    shape = CodeShape(6, 3, 1, 2)
    assert refined_error_count(shape, 1) == 1
    assert [_refined_holds(shape, 1, None, t) for t in (1, 2, 3)] == [True, False, True]


def _refined_holds(shape, t_l, q, t):
    th = Fraction(1) if q is None else Fraction(q - 1, q)
    return t * t + th * (t // (t_l + 1)) * shape.n_l * (shape.d - 2 * t) > 0


def test_refined_count_satisfies_its_inequality_scan():
    # seeded shapes with n <= 60: the count holds, or is 0 when no t >= 1 does
    rnd = random.Random(60)
    checked = 0
    while checked < 1500:
        r, rho = rnd.randrange(1, 10), rnd.randrange(2, 12)
        n_l = r + rho - 1
        if n_l > 60:
            continue
        n = n_l * rnd.randrange(1, 60 // n_l + 1)
        q = rnd.choice([None, 2, 16, 64, 256])
        try:
            shape = CodeShape(n, rnd.randrange(r, n + 1), r, rho)
            t_l = rnd.randrange(0, n_l)
            t = refined_error_count(shape, t_l, q)
        except ValueError:
            continue
        checked += 1
        if t > 0:
            assert _refined_holds(shape, t_l, q, t), (shape, t_l, q, t)
        else:
            assert not any(_refined_holds(shape, t_l, q, u) for u in range(1, n + 1))


def _snap(tau):
    """ceil(tau - 1) of a float radius, with float noise within 1e-9 of an
    integer snapped to it."""
    near = round(tau)
    return near - 1 if abs(tau - near) < 1e-9 else math.ceil(tau - 1)


def _fraction_refined_error_count(shape, t_l, q=None):
    """refined_error_count as computed in Fraction arithmetic, the local
    radius decided by ceil(sigma_exact) > 0, the Johnson radius checked
    as a Fraction and its integer part taken by _snap."""
    th = Fraction(1) if q is None else Fraction(q - 1, q)

    def radius(n, d):
        if Fraction(d) > n * th:
            raise ValueError(f"d = {d} exceeds n*theta")
        return float(th) * n * (1.0 - math.sqrt(1.0 - d / (n * float(th))))

    if math.ceil(max(Fraction(0), Fraction(shape.mu) - Fraction(shape.d, shape.rho))) > 0:
        tau = shape.d / shape.rho * radius(shape.n_l, shape.rho)
    else:
        tau = radius(shape.n, shape.d)

    def holds(t):
        return Fraction(t * t) + th * (t // (t_l + 1)) * shape.n_l * (shape.d - 2 * t) > 0

    t = max(_snap(tau), 1)
    if not holds(t):
        while t > 0 and not holds(t):
            t -= 1
        return t
    while t + 1 <= shape.n and holds(t + 1):
        t += 1
    return t


def test_refined_count_matches_fraction_arithmetic():
    # seeded shapes with n_l <= 40, mu <= 12: the same count, or ValueError from both
    rnd = random.Random(110)
    outcomes = set()
    for _ in range(12000):
        r, rho, mu = rnd.randrange(1, 30), rnd.randrange(2, 30), rnd.randrange(1, 13)
        n_l = r + rho - 1
        if n_l > 40:
            continue
        try:
            shape = CodeShape(n_l * mu, rnd.randrange(r, n_l * mu + 1), r, rho)
        except ValueError:
            continue
        t_l = rnd.randrange(0, 6)
        q = rnd.choice([None, 16, 64, 256, 512, 1024, 4096, 8196])
        try:
            want = _fraction_refined_error_count(shape, t_l, q)
        except ValueError:
            with pytest.raises(ValueError):
                refined_error_count(shape, t_l, q)
            outcomes.add("error")
            continue
        assert refined_error_count(shape, t_l, q) == want, (shape, t_l, q)
        outcomes.add(shape.mu * shape.rho > shape.d)
    assert outcomes == {True, False, "error"}


def test_refined_count_at_least_closed_form():
    for shape in (SHAPE_15, SHAPE_63, SHAPE_500,
                  CodeShape(30, 16, 4, 3), CodeShape(30, 15, 3, 3), CodeShape(63, 40, 5, 3)):
        t_l = johnson_errors(shape.n_l, shape.rho)
        t_g = radii._lrc_errors(shape)
        assert refined_error_count(shape, t_l) >= t_g


def test_list_bounds_500():
    basic, improved = list_size_bounds(SHAPE_500)
    assert basic == pytest.approx(2.2e6, rel=0.05)  # two significant figures
    assert improved <= basic
    bound = johnson_list_bound(500, 268, None, johnson_errors(500, 268))
    assert math.floor(bound) == pytest.approx(476, abs=1)


def test_list_bounds_sigma_zero_reduction():
    shape = CodeShape(12, 4, 2, 2)  # mu * rho = d = 8
    assert sigma_exact(shape) == 0
    basic, improved = list_size_bounds(shape)
    assert basic == improved == math.floor(johnson_list_bound(12, 8, None, johnson_errors(12, 8)))


def _random_gain_shapes(rnd, count):
    shapes = []
    while len(shapes) < count:
        r = rnd.randrange(1, 6)
        rho = rnd.randrange(2, 7)
        n_l = r + rho - 1
        mu = rnd.randrange(2, 7)
        n = mu * n_l
        k = r * rnd.randrange(1, mu + 1)
        try:
            shape = CodeShape(n, k, r, rho)
        except ValueError:
            continue
        if shape.d < rho or shape.d < 1 or shape.d > n:
            continue
        shapes.append(shape)
    return shapes


def test_improved_bound_never_worse_sweep():
    rnd = random.Random(123)
    strict = 0
    checked = 0
    for shape in _random_gain_shapes(rnd, 200):
        if shape.n - math.ceil(sigma_exact(shape)) * shape.n_l <= shape.d:
            continue
        basic, improved = list_size_bounds(shape)
        if basic is None or improved is None:
            continue
        checked += 1
        assert improved <= basic
        if math.ceil(sigma_exact(shape)) >= 1 and improved < basic:
            strict += 1
    assert checked >= 50
    assert strict >= 1


def test_gain_criteria():
    assert gain_criteria(SHAPE_63) == (True, True)
    # mu * rho = d boundary: no gain
    boundary = CodeShape(12, 4, 2, 2)
    assert gain_criteria(boundary)[0] is False
    # binary alphabet: the local radius needs rho = 3 <= 5/2, the global
    # one d = 6 <= 8/2
    with pytest.raises(ValueError, match=r"^d = 3 exceeds the limit n\*theta = 2\.5$"):
        gain_criteria(SHAPE_15, q=2)
    with pytest.raises(ValueError, match=r"^d = 6 exceeds the limit n\*theta = 4$"):
        gain_criteria(CodeShape(8, 3, 3, 2), q=2)


@pytest.mark.parametrize(
    "shape, q",
    [(CodeShape(9, 8, 8, 2), None), (CodeShape(12, 2, 2, 11), None), (CodeShape(6, 4, 4, 3), 16),
     (CodeShape(12, 5, 4, 3), 16), (CodeShape(11, 4, 4, 8), 64)],
)
def test_gain_criteria_local_test_is_strict_at_ties(shape, q):
    # rho / n_l = d / n: the local and global Johnson radii are equal
    # fractions of their lengths, so the local radius does not exceed it
    assert shape.rho * shape.n == shape.d * shape.n_l
    assert gain_criteria(shape, q)[1] is False


def test_gain_criteria_local_test_matches_the_radii():
    rnd = random.Random(17)
    for shape in _random_gain_shapes(rnd, 100):
        for q in (None, 16, 64):
            if shape.rho * shape.n == shape.d * shape.n_l:
                continue
            try:
                ratio = (johnson_radius(shape.n_l, shape.rho, q) / shape.n_l
                         - johnson_radius(shape.n, shape.d, q) / shape.n)
            except ValueError:
                with pytest.raises(ValueError):
                    gain_criteria(shape, q)
                continue
            assert gain_criteria(shape, q)[1] == (ratio > 0), (shape, q)


def test_gain_iff_per_corollary_sweep():
    rnd = random.Random(5)
    for shape in _random_gain_shapes(rnd, 100):
        gain = lrc_list_radius(shape) > johnson_radius(shape.n, shape.d) + 1e-12
        assert gain == (shape.mu * shape.rho > shape.d)


def test_normalized_radius():
    # beta = 1 reduces to the Johnson curve
    assert normalized_radius(1, 0.5) == pytest.approx(1 - math.sqrt(0.5))
    assert normalized_radius(2, 0.4) == pytest.approx(0.5 * (1 - math.sqrt(0.2)))
    # at beta * delta = 1 the curve meets the Singleton line at 1/beta
    assert normalized_radius(2, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        normalized_radius(2, 0.6)
    for beta, message in ((0.5, "is below the limit 1"), (math.nan, "is below the limit 1"),
                          (math.inf, r"exceeds the limit 1\.79769e\+308")):
        with pytest.raises(ValueError, match=f"^beta = {beta:g} {message}$"):
            normalized_radius(beta, 0.0)


def test_interleaved_radii_examples():
    assert irs_radius(15, 8, 2) == pytest.approx(5.98, abs=0.01)
    assert interleaved_lrc_radius(SHAPE_15, 2) == pytest.approx(6.09, abs=0.01)
    # degree-1 interleaving is the alphabet-independent Johnson radius
    assert irs_radius(15, 8, 1) == pytest.approx(johnson_radius(15, 8))


def test_interleaved_closed_form_matches_fixed_point():
    # the degree-2 closed form d (2 - rho/n_l) / (z^(4/3) + z^(2/3) + 1),
    # z = 1 - rho/n_l, where locality helps (mu * rho > d)
    for shape in (SHAPE_15, SHAPE_63, SHAPE_500,
                  CodeShape(30, 16, 4, 3), CodeShape(63, 40, 5, 3)):
        z = 1 - shape.rho / shape.n_l
        closed = shape.d * (2 - shape.rho / shape.n_l) / (z ** (4 / 3) + z ** (2 / 3) + 1)
        assert interleaved_lrc_radius(shape, 2) == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("shape", [CodeShape(6, 2, 2, 2), CodeShape(12, 3, 3, 2),
                                   CodeShape(8, 2, 2, 3)])
def test_report_interleaved_radius_falls_back_without_locality_gain(shape):
    # mu * rho <= d: the local-global strategy gains nothing, so the
    # degree-2 column is the plain interleaved radius of the code
    assert shape.mu * shape.rho <= shape.d
    rep = compute_report(shape)
    assert rep.tau_g_interleaved_l2 == rep.tau_irs_l2 == irs_radius(shape.n, shape.d, 2)


def test_interleaved_error_count():
    t = interleaved_error_count(SHAPE_15, 2)
    # largest integer below the degree-2 radius of the shortened [10, ., 8] code
    nn = 15 - 1 * 5
    assert (nn - t) ** 3 > nn * (nn - 8) ** 2
    assert (nn - t - 1) ** 3 <= nn * (nn - 8) ** 2


def test_h_monotone_cases():
    assert h_decreasing(35, 1, None, range(35, 201))
    assert h_decreasing(8, 2, 16, range(9, 101))
    assert h_decreasing(9, 1, 1024, range(10, 101))
    with pytest.raises(ValueError):
        h_decreasing(35, 1, None, range(30, 100))


@pytest.mark.parametrize(
    "call, message",
    [
        # each of these named neither the value nor the limit
        (lambda: johnson_radius(10, 4, 1), r"q = 1 is below the limit 2"),
        (lambda: optimal_distance(15, 6, 7, 3), r"r = 7 exceeds the limit k = 6"),
        (lambda: optimal_distance(15, 6, 3, 1), r"rho = 1 is below the limit 2"),
        (lambda: johnson_radius(10, -1), r"d = -1 is below the limit 0"),
        (lambda: irs_radius(15, 8, 0), r"ell = 0 is below the limit 1"),
        (lambda: erasure_list_size(15, 8, 4, 16, 15), r"t = 15 exceeds the limit n - 1 = 14"),
        (lambda: erasure_list_size(15, 8, 4, 16, -1), r"t = -1 is below the limit 0"),
        (lambda: generalized_weight(15, 8, 4, 0), r"i = 0 is below the limit 1"),
        (lambda: generalized_weight(15, 8, 4, 9), r"i = 9 exceeds the limit k = 8"),
        (lambda: h_decreasing(35, 1, None, range(30, 100)), r"n = 30 is below the limit d/theta = 35"),
        # ell < 1 used to give 0 and True here, while interleaved_lrc_radius refused it
        (lambda: interleaved_error_count(SHAPE_15, 0), r"ell = 0 is below the limit 1"),
        (lambda: interleaved_error_count(SHAPE_15, -1), r"ell = -1 is below the limit 1"),
        (lambda: h_decreasing(3, 0, 16, [10, 11]), r"ell = 0 is below the limit 1"),
        # non-integer counts used to be evaluated
        (lambda: irs_radius(10, 3, 1.5), r"ell = 1\.5 is not an integer"),
        (lambda: interleaved_lrc_radius(SHAPE_15, 1.5), r"ell = 1\.5 is not an integer"),
        (lambda: interleaved_error_count(SHAPE_15, 2.0), r"ell = 2\.0 is not an integer"),
        (lambda: h_decreasing(3, 1.5, 16, [10, 11]), r"ell = 1\.5 is not an integer"),
        (lambda: generalized_weight(15, 8, 4, 1.5), r"i = 1\.5 is not an integer"),
        (lambda: erasure_list_size(15, 8, 4, 16, 2.5), r"t = 2\.5 is not an integer"),
        (lambda: optimal_distance(15, 6, 1.5, 3), r"r = 1\.5 is not an integer"),
        (lambda: optimal_distance(15, 6, 3, 2.5), r"rho = 2\.5 is not an integer"),
        # q = 2.5 and nan passed _theta's q < 2 test
        (lambda: johnson_errors(10, 3, 2.5), r"q = 2\.5 is not an integer"),
        (lambda: gain_criteria(SHAPE_15, math.nan), r"q = nan is not an integer"),
        (lambda: lrc_list_radius(SHAPE_15, math.nan), r"q = nan is not an integer"),
        (lambda: refined_error_count(SHAPE_15, 1, math.nan), r"q = nan is not an integer"),
        (lambda: johnson_list_bound(10, 3, 2.5, 2), r"q = 2\.5 is not an integer"),
        # the sizes of the Johnson functions were not read at all
        (lambda: johnson_radius(0, 0), r"n = 0 is below the limit 1"),
        (lambda: johnson_radius(10.5, 3), r"n = 10\.5 is not an integer"),
        (lambda: johnson_radius(10, 3.5), r"d = 3\.5 is not an integer"),
        (lambda: johnson_errors(0, 0), r"n = 0 is below the limit 1"),
        (lambda: johnson_list_bound(-10, 3, None, 2), r"n = -10 is below the limit 1"),
        (lambda: johnson_list_bound(10, -3, None, 2), r"d = -3 is below the limit 0"),
        (lambda: johnson_list_bound(10, 3, None, -2), r"t = -2 is below the limit 0"),
        (lambda: johnson_list_bound(10, 3, None, 3.5), r"t = 3\.5 is not an integer"),
        (lambda: list_size_bounds(SHAPE_15, t_l=-1), r"t_l = -1 is below the limit 0"),
        # delta < 0 and nan gave a radius
        (lambda: normalized_radius(2.0, -0.5), r"delta = -0\.5 is below the limit 0"),
        (lambda: normalized_radius(2.0, math.nan), r"delta = nan is below the limit 0"),
        # a complex radius, a ZeroDivisionError and a negative radius
        (lambda: irs_radius(10, 12, 2), r"d = 12 exceeds the limit n = 10"),
        (lambda: irs_radius(0, 0, 2), r"n = 0 is below the limit 1"),
        (lambda: irs_radius(10, -3, 2), r"d = -3 is below the limit 0"),
        (lambda: irs_radius(10.0, 3, 2), r"n = 10\.0 is not an integer"),
        # t_l was not read: a ZeroDivisionError, and a count at t_l = 1.5
        (lambda: refined_error_count(SHAPE_15, -2), r"t_l = -2 is below the limit 0"),
        (lambda: refined_error_count(SHAPE_15, 1.5), r"t_l = 1\.5 is not an integer"),
        # a distance past the length gave a bound, and a negative one True
        (lambda: johnson_list_bound(10, 30, None, 2), r"d = 30 exceeds the limit n = 10"),
        (lambda: johnson_list_bound(10, 11, 2, 2), r"d = 11 exceeds the limit n = 10"),
        (lambda: h_decreasing(-4, 1, None, [1, 2]), r"d = -4 is below the limit 0"),
        (lambda: h_decreasing(2.5, 1, None, [3, 4]), r"d = 2\.5 is not an integer"),
    ],
)
def test_range_refusals_name_the_parameter_value_and_limit(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_radius_sizes_at_their_limits_are_read():
    assert johnson_radius(1, 0) == 0.0 and johnson_radius(10, 0, math.inf) == 0.0
    assert johnson_list_bound(10, 0, None, 0) is None
    assert irs_radius(10, 0, 2) == 0.0 and irs_radius(10, 10, 2) == 10.0
    assert normalized_radius(2.0, 0.0) == 0.0


def test_generalized_weights():
    assert generalized_weight(15, 8, 4, 1) == 7
    assert generalized_weight(15, 8, 4, 8) == 15  # d_k = n
    with pytest.raises(ValueError):
        generalized_weight(15, 8, 4, 0)


def test_erasure_list_size():
    # MDS code: r = k, so t = n - k + delta erasures give exactly q^delta
    n, k, q = 12, 5, 16
    for delta in range(0, 5):
        assert erasure_list_size(n, k, k, q, n - k + delta) == q**delta
    # unique recovery while t < d_1
    assert erasure_list_size(15, 8, 4, 16, 6) == 1


def _interleaved_scan(shape, ell):
    """interleaved_error_count by a linear scan from t = 0 up to N - 1."""
    scl = math.ceil(sigma_exact(shape))
    nn, d = shape.n - scl * shape.n_l, shape.d
    if nn <= 0:
        return 0
    if nn <= d:
        return nn - 1
    t = 0
    while t + 1 < nn and (nn - (t + 1)) ** (ell + 1) > nn * (nn - d) ** ell:
        t += 1
    return t


def test_interleaved_error_count_matches_the_linear_scan():
    # 600 seeded random valid shapes with n <= 259, at ell in {1, 2, 3, 8}
    rnd = random.Random(39)
    checked = 0
    while checked < 600:
        n = rnd.randrange(2, 260)
        n_l = rnd.choice([m for m in range(2, n + 1) if n % m == 0])
        rho = rnd.randrange(2, n_l + 1)
        r = n_l - rho + 1
        try:
            shape = CodeShape(n, rnd.randrange(r, n + 1), r, rho)
        except ValueError:
            continue
        for ell in (1, 2, 3, 8):
            assert interleaved_error_count(shape, ell) == _interleaved_scan(shape, ell), (shape, ell)
        checked += 1


def test_johnson_list_bound_reads_d_up_to_n():
    # d in (n*theta, n] is the Plotkin range: the bound holds, with a
    # positive denominator at every t
    assert johnson_list_bound(10, 10, None, 2) == Fraction(25, 16)
    assert johnson_list_bound(10, 9, 2, 2) == Fraction(45, 29)
    assert h_decreasing(0, 1, None, [1, 2])


def test_johnson_list_bound_stops_at_theta_n():
    # the denominator t^2 - theta n (2t - d) is positive again above its
    # upper root, but the Johnson argument needs t <= theta n: every binary
    # word lies within 10 of any centre of length 10
    assert johnson_list_bound(10, 1, 2, 10) is None
    assert johnson_list_bound(6, 5, 2, 4) is None
    # t = theta n itself keeps its value, in the Plotkin range too
    assert johnson_list_bound(10, 6, 2, 5) == 6
    # list_size_bounds of CodeShape(12,6,4,3) at q = 2 took (6, 5, 2, 4)
    assert list_size_bounds(CodeShape(12, 6, 4, 3), q=2) == (None, None)


def test_report_table_row():
    rep = compute_report(SHAPE_63)
    assert rep.refined_t_g == 24
    assert rep.tau_g == pytest.approx(22.19, abs=0.01)
    assert (rep.n_l, rep.d, rep.t_local) == (21, 35, 8)
