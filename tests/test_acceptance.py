"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; every test below is one
criterion (criterion 5 is split into its two clauses), so the verbose
report reads as the acceptance checklist.  Each test also prints a
``criterion N: PASS/FAIL`` line with the measured numbers.

Criterion 5a runs its sweep on a z-coupled model (f = 1, g = x + z/2),
not on a builtin.  For a builtin the loss rate g does not depend on z,
so in the log chart zeta = eps*log(1/z) the flow is dzeta/dx = -g/f with
no eps in it: for the linear model zeta(x) = eps*log(1/z0) + (x0^2 -
x^2)/2, which returns to its section at x = -x0 for every eps.  The
finite-eps exit then equals the limiting exit identically, and the only
"error" left is event-location roundoff (~4e-14, flat) with no halving
law to see.  Coupling g to z gives the exit a first-order law in eps.
See README for the analysis.
"""

import math
import time

import numpy as np
import pytest

from delaylab.cli import main as cli_main
from delaylab.entryexit import solve_exit
from delaylab.errors import ZUnderflowError
from delaylab.experiment import derivative_probe, manifold_closeness, run_sweep
from delaylab.expr import parse
from delaylab.geometry import transversality_det
from delaylab.integrate import Section, integrate_xz, integrate_zeta, min_z_exponent
from delaylab.model import (InitialData, builtin_names, get_model,
                            model_from_expressions)
from delaylab.numerics import find_root, integrate as quad

DYADIC = [0.2, 0.1, 0.05, 0.025]


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def bisect60(func, lo, hi):
    flo = func(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (func(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def dyadic_sweep():
    m = get_model("linear")
    t0 = time.perf_counter()
    rep = run_sweep(m, -1.0, 0.1, DYADIC)
    elapsed = time.perf_counter() - t0
    return m, rep, elapsed


@pytest.fixture(scope="module")
def zcoupled_sweep():
    m = model_from_expressions("zcoupled", "1", "x + 0.5*z", (-1.5, 1.5))
    return run_sweep(m, -1.0, 0.1, DYADIC)


def test_criterion_01_linear_exit():
    sol = solve_exit(get_model("linear"), -1.0)
    ok = (abs(sol.x1 - 1.0) <= 1e-8 and abs(sol.zeta0 - 0.5) <= 1e-10
          and abs(sol.tau1 - 2.0) <= 1e-10)
    assert report(1, ok, f"x1={sol.x1!r} zeta0={sol.zeta0!r} "
                         f"tau1={sol.tau1!r}")


def test_criterion_02_quadratic_exit_vs_bisection_oracle():
    sol = solve_exit(get_model("quadratic"), -0.5)
    oracle = bisect60(lambda s: s * s / 2.0 + s ** 3 / 3.0 - 1.0 / 12.0,
                      0.2, 0.6)
    ok = abs(sol.x1 - oracle) <= 1e-8 and abs(sol.zeta0 - 1.0 / 12.0) <= 1e-10
    assert report(2, ok, f"x1={sol.x1!r} oracle={oracle!r} "
                         f"zeta0={sol.zeta0!r}")


def test_criterion_03_min_z_exponent_dyadic_sweep(dyadic_sweep):
    _, rep, elapsed = dyadic_sweep
    errs = [abs(r.minz_exponent - 0.5) for r in rep.records]
    rich = rep.richardson_minz
    ok = (all(a > b for a, b in zip(errs, errs[1:]))
          and rich is not None and abs(rich - 0.5) <= 1e-2
          and elapsed < 10.0)
    assert report(3, ok, f"errors={['%.4f' % e for e in errs]} "
                         f"richardson={rich!r} elapsed={elapsed:.2f}s")


def test_criterion_04_hausdorff_convergence(dyadic_sweep):
    _, rep, _ = dyadic_sweep
    hs = [r.hausdorff for r in rep.records]
    ok = all(a > b for a, b in zip(hs, hs[1:])) and hs[-1] < 0.05
    assert report(4, ok, f"hausdorff={['%.4f' % h for h in hs]}")


def test_criterion_05a_exit_error_halving_ratio(zcoupled_sweep):
    # g depends on z, so x1(eps) = x1 + c*eps + O(eps^2) with c != 0 and
    # the same limiting exit x1 = 1; a builtin exit point is eps-independent
    # (see the module docstring) and its errors are roundoff with no law.
    rep = zcoupled_sweep
    errs = [abs(r.exit_x - rep.reference.x1) for r in rep.records]
    ratios = [b / a if a > 0.0 else math.inf for a, b in zip(errs, errs[1:])]
    ok = (all(a > b for a, b in zip(errs, errs[1:]))
          and all(0.25 < r < 0.8 for r in ratios))
    assert report("5a", ok, f"errors={['%.2e' % e for e in errs]} "
                            f"ratios={['%.2f' % r for r in ratios]}")


def test_criterion_05b_derivative_probe():
    m = get_model("linear")
    p = derivative_probe(m, -1.0, 0.1, 0.01)
    p_h = derivative_probe(m, -1.0, 0.1, 0.01, h=p.step / 2.0)
    p_e = derivative_probe(m, -1.0, 0.1, 0.005)
    ok = (abs(p.value + 1.0) <= 0.05
          and abs(p_h.value - p.value) <= 0.05 * abs(p.value)
          and abs(p_e.value - p.value) <= 0.05 * abs(p.value))
    assert report("5b", ok, f"probe={p.value!r} half_h={p_h.value!r} "
                            f"half_eps={p_e.value!r}")


def test_criterion_06_deep_eps_needs_log_chart():
    m = get_model("linear")
    data = InitialData(x0=-1.0, z0=0.1, eps=1e-4)
    stop = Section(var="z", value=0.1, direction=+1, require_x_positive=True)
    traj = integrate_zeta(m, data, stop)
    peak = min_z_exponent(traj)
    with pytest.raises(ZUnderflowError) as info:
        integrate_xz(m, data, stop)
    ok = 0.49 < peak < 0.51 and "integrate_zeta" in str(info.value)
    assert report(6, ok, f"max_zeta={peak!r} xz_chart_error="
                         f"{type(info.value).__name__}")


def test_criterion_07_transversality_determinant():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    all_negative = True
    for name in builtin_names():
        m = get_model(name)
        x0 = -0.5 if name == "quadratic" else -1.0
        sol = solve_exit(m, x0)
        lo, hi = m.window[0] + 0.05, sol.x1 - 0.05
        for x_hat in rng.uniform(lo, hi, size=20):
            det = transversality_det(m, float(x_hat), sol.x1)
            closed = -m.f(float(x_hat), 0.0, 0.0) * m.g(sol.x1, 0.0, 0.0)
            worst = max(worst, abs(det - closed))
            all_negative = all_negative and det < 0.0
    ok = worst <= 1e-12 and all_negative
    assert report(7, ok, f"max|det-closed_form|={worst:.2e} "
                         f"all_negative={all_negative}")


def test_criterion_08_manifold_gap_shrinks():
    m = get_model("linear")
    sups = [manifold_closeness(m, -1.0, 0.1, e, delta=0.1).sup
            for e in DYADIC]
    ok = all(a > b for a, b in zip(sups, sups[1:]))
    assert report(8, ok, f"sup_gap={['%.4f' % s for s in sups]}")


def test_criterion_09_chart_agreement():
    m = get_model("linear")
    stop = Section(var="z", value=0.1, direction=+1, require_x_positive=True)
    worst = 0.0
    for eps in (0.2, 0.1):
        data = InitialData(x0=-1.0, z0=0.1, eps=eps)
        a = integrate_zeta(m, data, stop).x[-1]
        b = integrate_xz(m, data, stop).x[-1]
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-6
    assert report(9, ok, f"max_chart_disagreement={worst:.2e}")


def test_criterion_10_kernels_and_cli_exit_codes(tmp_path, capsys):
    # quadrature orientation and additivity
    fwd = quad(math.exp, 0.0, 2.0)
    rev = quad(math.exp, 2.0, 0.0)
    a = quad(math.exp, 0.0, 0.7)
    b = quad(math.exp, 0.7, 2.0)
    quad_ok = (rev.value == -fwd.value
               and abs(a.value + b.value - fwd.value) <= 1e-12)
    # root-finder residual
    root = find_root(lambda s: s * s - 2.0, 1.0, 2.0)
    root_ok = abs(root * root - 2.0) <= 1e-11
    # parser round-trip through the printable source form
    e1 = parse("1 + x*x/2 - z^2 + eps")
    e2 = parse(e1.source)
    rng = np.random.default_rng(424242)
    pts = rng.uniform(-2.0, 2.0, size=(25, 3))
    parse_ok = all(e1(*map(float, p)) == e2(*map(float, p)) for p in pts)
    # CLI exit codes: usage 64, no exit in window 2, model error 1, ok 0
    od = str(tmp_path)
    codes = (
        cli_main(["sweep", "--model", "linear", "--x0", "-1", "--z0", "0.1",
                  "--eps", ",", "--out-dir", od]),
        cli_main(["exit", "--f", "1", "--g", "x", "--window", "-1.2", "0.5",
                  "--x0", "-1", "--out-dir", od]),
        cli_main(["exit", "--model", "unknown", "--x0", "-1",
                  "--out-dir", od]),
        cli_main(["exit", "--model", "linear", "--x0", "-1",
                  "--out-dir", od]),
    )
    capsys.readouterr()
    cli_ok = codes == (64, 2, 1, 0)
    ok = quad_ok and root_ok and parse_ok and cli_ok
    assert report(10, ok, f"quad={quad_ok} root={root_ok} "
                          f"parser={parse_ok} cli_codes={codes}")
