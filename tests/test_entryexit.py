"""Entry-exit relation of the limiting slow drift."""

import numpy as np
import pytest

from delaylab.entryexit import _inv_f, _slow_ratio, slow_curves, solve_exit
from delaylab.errors import (DelayLabError, NoExitInWindowError,
                             PreconditionError)
from delaylab.model import get_model, model_from_expressions
from delaylab.numerics import integrate


def bisect60(f, lo, hi):
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


def test_linear_model_closed_form():
    sol = solve_exit(get_model("linear"), -1.0)
    assert abs(sol.x1 - 1.0) <= 1e-8
    assert abs(sol.zeta0 - 0.5) <= 1e-10
    assert abs(sol.tau1 - 2.0) <= 1e-10
    assert abs(sol.dx1_dx0 + 1.0) <= 1e-10
    assert abs(sol.residual) <= 1e-10
    assert sol.evaluations >= 45


def test_scaled_model_closed_form():
    # doubling f halves both the delay exponent and the travel time
    sol = solve_exit(get_model("scaled"), -1.0)
    assert abs(sol.x1 - 1.0) <= 1e-8
    assert abs(sol.zeta0 - 0.25) <= 1e-10
    assert abs(sol.tau1 - 1.0) <= 1e-10


def test_quadratic_model_against_bisection_oracle():
    m = get_model("quadratic")
    sol = solve_exit(m, -0.5)
    # F(s) = s^2/2 + s^3/3 must equal the inflow 1/12
    oracle = bisect60(lambda s: 0.5 * s * s + s ** 3 / 3.0 - 1.0 / 12.0,
                      0.2, 0.6)
    assert abs(sol.x1 - oracle) <= 1e-8
    assert abs(sol.zeta0 - 1.0 / 12.0) <= 1e-10
    assert abs(sol.tau1 - (sol.x1 + 0.5)) <= 1e-10
    expected_slope = (-0.25) / (sol.x1 + sol.x1 ** 2)
    assert abs(sol.dx1_dx0 - expected_slope) <= 1e-10


def test_matching_identity_at_turning_point():
    rng = np.random.default_rng(91)
    ranges = {"linear": (-1.45, -0.05), "scaled": (-1.45, -0.05),
              "quadratic": (-0.79, -0.05)}
    for name, (lo, hi) in ranges.items():
        m = get_model(name)
        for _ in range(10):
            x0 = float(rng.uniform(lo, hi))
            sol = solve_exit(m, x0)
            # inflow up to the turning point equals the outflow after it
            zm = -integrate(_slow_ratio(m), x0, 0.0).value
            zp = integrate(_slow_ratio(m), 0.0, sol.x1).value
            assert abs(zm - zp) <= 1e-10
            # slow time to the turning point, forward and carried back
            tm = integrate(_inv_f(m), x0, 0.0).value
            tp = sol.tau1 - integrate(_inv_f(m), 0.0, sol.x1).value
            assert abs(tm - tp) <= 1e-10


def test_slow_curves_shape_and_monotonicity():
    m = get_model("linear")
    sol = solve_exit(m, -1.0)
    curves = slow_curves(m, -1.0, sol.x1, sol.tau1, n=201)
    mid = 100  # grid point at the turning point
    assert abs(curves.x[mid]) <= 1e-12
    assert abs(curves.zeta_minus[mid] - 0.5) <= 1e-10
    assert abs(curves.zeta_minus[0]) <= 1e-12
    assert abs(curves.zeta_minus[-1]) <= 1e-10
    # inflow rises up to the turning point, then unwinds
    assert np.all(np.diff(curves.zeta_minus[:mid + 1]) > 0.0)
    assert np.all(np.diff(curves.zeta_minus[mid:]) < 0.0)
    assert curves.tau_minus[0] == 0.0
    assert abs(curves.tau_minus[-1] - 2.0) <= 1e-10
    assert abs(curves.tau_plus[-1] - sol.tau1) <= 1e-12


def test_slow_curves_match_when_exit_is_true():
    for name, x0 in (("linear", -1.0), ("quadratic", -0.5)):
        m = get_model(name)
        sol = solve_exit(m, x0)
        curves = slow_curves(m, x0, sol.x1, sol.tau1, n=101)
        assert np.max(np.abs(np.asarray(curves.zeta_minus)
                             - curves.zeta_plus)) <= 1e-9
        assert np.max(np.abs(np.asarray(curves.tau_minus)
                             - curves.tau_plus)) <= 1e-9


def test_exit_derivative_matches_finite_differences():
    cases = (("linear", -1.0), ("scaled", -0.7), ("quadratic", -0.5))
    for name, x0 in cases:
        m = get_model(name)
        sol = solve_exit(m, x0)
        h = 1e-5
        fd = (solve_exit(m, x0 + h).x1 - solve_exit(m, x0 - h).x1) / (2.0 * h)
        assert abs(sol.dx1_dx0 - fd) <= 1e-6


def test_no_exit_inside_narrow_window():
    m = model_from_expressions("narrow", "1", "x", (-1.2, 0.5))
    with pytest.raises(NoExitInWindowError) as info:
        solve_exit(m, -1.0)
    assert "short by" in str(info.value)


def test_solve_exit_preconditions():
    m = get_model("linear")
    with pytest.raises(PreconditionError):
        solve_exit(m, 0.3)
    with pytest.raises(PreconditionError):
        solve_exit(m, -2.0)
    with pytest.raises(PreconditionError):
        solve_exit(m, 0.0)


def test_sign_violation_is_reported():
    m = model_from_expressions("flipped", "1", "-x", (-1.5, 1.5))
    with pytest.raises(DelayLabError) as info:
        solve_exit(m, -1.0)
    assert "sign hypotheses" in str(info.value)


def test_slow_curves_preconditions():
    m = get_model("linear")
    with pytest.raises(PreconditionError):
        slow_curves(m, -1.0, 1.0, 2.0, n=1)
    with pytest.raises(PreconditionError):
        slow_curves(m, -1.0, 2.0, 3.0)  # x1_hat beyond the window
    with pytest.raises(PreconditionError):
        slow_curves(m, 0.5, 1.0, 0.5)  # x0 not negative
