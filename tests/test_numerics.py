"""Adaptive quadrature and Brent root finding."""

import math

import numpy as np
import pytest

from delaylab.errors import PreconditionError, QuadratureError, RootFindError
from delaylab.numerics import cumulative, find_root, integrate, linspace


def bisect60(f, lo, hi):
    """Plain 60-step bisection, used as an independent oracle."""
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_polynomial_integrals_exact():
    r = integrate(lambda x: x, 0.0, 1.0)
    assert abs(r.value - 0.5) <= 1e-15
    assert r.evaluations >= 15
    r = integrate(lambda x: x, -1.0, 0.0)
    assert abs(r.value + 0.5) <= 1e-15


def test_exponential_integral():
    r = integrate(math.exp, 0.0, 1.0)
    assert abs(r.value - (math.e - 1.0)) <= 1e-13
    # on success the estimate honors the requested tolerance
    assert r.abs_error_estimate <= max(1e-14, 1e-12 * abs(r.value)) + 1e-13


def test_orientation_is_exact_negation():
    fwd = integrate(math.exp, 0.0, 1.0)
    rev = integrate(math.exp, 1.0, 0.0)
    assert rev.value == -fwd.value
    assert rev.evaluations == fwd.evaluations
    assert rev.abs_error_estimate == fwd.abs_error_estimate


def test_empty_interval():
    r = integrate(math.exp, 0.7, 0.7)
    assert r.value == 0.0 and r.evaluations == 0


def test_additivity_at_random_split_points():
    rng = np.random.default_rng(424242)
    h = lambda x: math.exp(-x * x) * math.cos(3.0 * x)
    a, b = -1.0, 2.0
    whole = integrate(h, a, b)
    for _ in range(20):
        c = float(rng.uniform(a + 1e-3, b - 1e-3))
        left = integrate(h, a, c)
        right = integrate(h, c, b)
        budget = 10.0 * (whole.abs_error_estimate + left.abs_error_estimate
                         + right.abs_error_estimate)
        assert abs(whole.value - (left.value + right.value)) <= budget


def test_cumulative_is_the_running_panel_sum():
    h = lambda x: math.exp(-x * x) * math.cos(3.0 * x)
    xs = linspace(-1.5, 2.0, 41) + [2.0, 2.5]   # a repeated node too
    got = cumulative(h, xs)
    want = [0.0]
    for a, b in zip(xs, xs[1:]):
        want.append(want[-1] + integrate(h, a, b).value)
    assert got == want
    assert abs(got[-1] - integrate(h, -1.5, 2.5).value) <= 1e-12
    assert cumulative(h, [0.5]) == [0.0]
    # a descending grid accumulates signed panels
    assert cumulative(h, xs[::-1])[-1] == pytest.approx(-got[-1], abs=1e-12)


def test_sharp_peak_converges():
    r = integrate(lambda x: 1.0 / math.sqrt(x + 1e-6), 0.0, 1.0,
                  rel_tol=1e-10)
    exact = 2.0 * (math.sqrt(1.0 + 1e-6) - math.sqrt(1e-6))
    assert abs(r.value - exact) <= 1e-9 * exact


def test_non_finite_integrand_reported():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: float("nan") if x > 0.5 else 1.0, 0.0, 1.0)
    assert "non-finite" in str(info.value)


def test_interval_budget_exhaustion_names_worst_subinterval():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: math.sin(40.0 * x), 0.0, 10.0,
                  rel_tol=1e-12, max_intervals=4)
    assert "worst subinterval" in str(info.value)


def test_integrate_preconditions():
    with pytest.raises(PreconditionError):
        integrate(math.exp, 0.0, math.inf)
    with pytest.raises(PreconditionError):
        integrate(math.exp, 0.0, 1.0, rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(PreconditionError):
        integrate(math.exp, 0.0, 1.0, rel_tol=-1e-3)


def test_find_root_sqrt2():
    root = find_root(lambda s: s * s - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-12
    assert abs(root * root - 2.0) <= 1e-11  # residual bound


def test_find_root_linear_and_endpoints():
    assert abs(find_root(lambda s: s, -1.0, 1.0)) <= 1e-12
    assert find_root(lambda s: s - 0.25, 0.25, 1.0) == 0.25  # exact at endpoint


def test_find_root_matches_bisection_oracle():
    # positive root of s^2/2 + s^3/3 = 1/12
    F = lambda s: 0.5 * s * s + s ** 3 / 3.0 - 1.0 / 12.0
    oracle = bisect60(F, 0.2, 0.6)
    root = find_root(F, 0.2, 0.6)
    assert abs(root - oracle) <= 1e-12


def test_find_root_random_monotone_cubics():
    rng = np.random.default_rng(777)
    for _ in range(20):
        p = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(-5.0, 5.0))
        F = lambda s: s ** 3 + p * s + q
        if F(-3.0) >= 0.0 or F(3.0) <= 0.0:
            continue
        root = find_root(F, -3.0, 3.0)
        oracle = bisect60(F, -3.0, 3.0)
        assert abs(root - oracle) <= 1e-10


def test_find_root_errors():
    with pytest.raises(RootFindError) as info:
        find_root(lambda s: s * s + 1.0, -1.0, 1.0)
    assert "no sign change" in str(info.value)
    with pytest.raises(PreconditionError):
        find_root(lambda s: s, -1.0, 1.0, tol=0.0)
    with pytest.raises(PreconditionError):
        find_root(lambda s: s, -math.inf, 1.0)
