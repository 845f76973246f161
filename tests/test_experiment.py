"""Sweeps, derivative probes and manifold-closeness measurements."""

import math

import numpy as np
import pytest

from delaylab.errors import DelayLabError, PreconditionError
from delaylab.experiment import (_interp, derivative_probe,
                                 manifold_closeness, run_sweep)
from delaylab.model import Model, get_model

EPS_SET = [0.2, 0.1, 0.05]


@pytest.fixture(scope="module")
def linear_sweep():
    m = get_model("linear")
    report = run_sweep(m, -1.0, 0.1, EPS_SET)
    return m, report


def test_sweep_structure(linear_sweep):
    _, report = linear_sweep
    assert report.model_name == "linear"
    assert [r.eps for r in report.records] == EPS_SET
    assert report.failures == ()
    assert abs(report.reference.x1 - 1.0) <= 1e-8
    errs = report.errors_against_reference()
    assert sorted(errs) == ["d_exit_dx0", "exit_x", "minz_exponent", "tau_exit"]
    for pairs in errs.values():
        assert [e for e, _ in pairs] == EPS_SET


def test_sweep_minz_convergence(linear_sweep):
    _, report = linear_sweep
    errs = [err for _, err in report.errors_against_reference()["minz_exponent"]]
    # the delay exponent overshoots zeta0 by eps*log(1/z0); errors shrink
    for e, r in zip(EPS_SET, report.records):
        assert abs(r.minz_exponent - (0.5 + e * math.log(10.0))) <= 1e-6
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert abs(report.rates["minz_exponent"] - 1.0) <= 0.05
    assert report.richardson_minz is not None
    assert abs(report.richardson_minz - 0.5) <= 1e-2


def test_sweep_exit_and_slow_time(linear_sweep):
    # the builtin family has a z-independent loss rate, so the measured
    # exit and slow exit time reproduce the limiting values at every eps
    _, report = linear_sweep
    for r in report.records:
        assert abs(r.exit_x - report.reference.x1) <= 1e-6
        assert abs(r.tau_exit - report.reference.tau1) <= 1e-6
        assert abs(r.d_exit_dx0 + 1.0) <= 1e-6


def test_sweep_hausdorff_decreases(linear_sweep):
    _, report = linear_sweep
    hs = [r.hausdorff for r in report.records]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    assert hs[-1] < 0.15


def test_sweep_single_eps_has_no_fits():
    report = run_sweep(get_model("linear"), -1.0, 0.1, [0.1])
    assert len(report.records) == 1
    assert report.rates == {}
    assert report.richardson_minz is None


def test_sweep_validation():
    m = get_model("linear")
    with pytest.raises(PreconditionError):
        run_sweep(m, -1.0, 0.1, [])
    with pytest.raises(PreconditionError):
        run_sweep(m, -1.0, 0.1, [0.1, 0.2])  # ascending
    with pytest.raises(PreconditionError):
        run_sweep(m, -1.0, 0.1, [0.1, 0.1])  # not strictly descending
    with pytest.raises(PreconditionError):
        run_sweep(m, -1.0, 0.1, [0.1, -0.05])
    with pytest.raises(PreconditionError):
        run_sweep(m, -1.0, 0.1, [0.1], probe_step=2.0)


def test_sweep_records_partial_failures():
    flaky = Model("flaky", lambda x, z, eps: 1.0,
                  lambda x, z, eps: float("nan") if eps == 0.05 else x,
                  window=(-1.5, 1.5))
    report = run_sweep(flaky, -1.0, 0.1, [0.1, 0.05])
    assert [r.eps for r in report.records] == [0.1]
    assert len(report.failures) == 1
    assert report.failures[0].eps == 0.05
    assert "non-finite" in report.failures[0].error


def test_sweep_raises_when_every_eps_fails():
    broken = Model("broken", lambda x, z, eps: 1.0,
                   lambda x, z, eps: x if eps == 0.0 else float("nan"),
                   window=(-1.5, 1.5))
    with pytest.raises(DelayLabError) as info:
        run_sweep(broken, -1.0, 0.1, [0.1, 0.05])
    assert "every eps" in str(info.value)


def test_derivative_probe_linear():
    m = get_model("linear")
    p = derivative_probe(m, -1.0, 0.1, 0.01)
    assert p.step == pytest.approx(1e-4)
    assert abs(p.value + 1.0) <= 0.05
    assert abs(p.value + 1.0) <= 1e-6  # exact for the z-independent family
    assert p.uncertainty <= 1e-6


def test_derivative_probe_stability_under_halving():
    m = get_model("linear")
    p1 = derivative_probe(m, -1.0, 0.1, 0.01)
    p2 = derivative_probe(m, -1.0, 0.1, 0.005)  # halve eps
    assert abs(p2.value - p1.value) <= 0.05 * abs(p1.value)

    q = get_model("quadratic")
    ph = derivative_probe(q, -0.5, 0.1, 0.01, h=1e-3)
    ph2 = derivative_probe(q, -0.5, 0.1, 0.01, h=5e-4)  # halve the step
    assert abs(ph2.value - ph.value) <= ph.uncertainty
    # closed form: ratio of slow slopes at entry and exit
    assert abs(ph.value + 0.49994) <= 0.1


def test_derivative_probe_step_guard():
    m = get_model("quadratic")
    with pytest.raises(PreconditionError):
        derivative_probe(m, -0.5, 0.1, 0.05, h=0.3)


def test_manifold_closeness_linear():
    m = get_model("linear")
    prof = manifold_closeness(m, -1.0, 0.2, 0.05, delta=0.1, n=257)
    assert prof.sup < 0.1
    # with a z-independent loss rate the whole profile is offset by the
    # constant entry exponent eps*log(1/z0)
    assert abs(prof.sup - 0.05 * math.log(5.0)) <= 1e-5
    assert float(np.ptp(prof.gap)) <= 1e-5
    assert prof.x[0] == pytest.approx(-1.0 + 0.1)
    assert len(prof.x) == 257


def test_interp_matches_numpy():
    rng = np.random.default_rng(1618)
    xp = np.cumsum(rng.uniform(0.01, 0.2, 60))
    xp[20] = xp[19]   # a repeated abscissa
    fp = rng.normal(size=60)
    xs = np.concatenate([rng.uniform(xp[0] - 0.3, xp[-1] + 0.3, 500), xp])
    got = [_interp(float(x), list(xp), list(fp)) for x in xs]
    assert got == list(np.interp(xs, xp, fp))


def test_manifold_closeness_shrinks_with_eps():
    m = get_model("linear")
    sups = [manifold_closeness(m, -1.0, 0.2, e, delta=0.1, n=129).sup
            for e in (0.05, 0.025, 0.01, 0.001)]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.01


def test_manifold_closeness_delta_guard():
    m = get_model("linear")
    with pytest.raises(PreconditionError):
        manifold_closeness(m, -1.0, 0.2, 0.05, delta=0.25)
    with pytest.raises(PreconditionError):
        manifold_closeness(m, -1.0, 0.2, 0.05, delta=0.0)
    with pytest.raises(PreconditionError):
        manifold_closeness(m, -1.0, 0.2, 0.05, delta=0.1, n=1)


def test_result_records_are_immutable(linear_sweep):
    from delaylab.integrate import Section, integrate_zeta
    from delaylab.model import InitialData

    m, report = linear_sweep
    traj = integrate_zeta(m, InitialData(x0=-1.0, z0=0.1, eps=0.1),
                          Section("z", 0.1, +1, require_x_positive=True))
    for record, field in ((traj, "eps"), (traj, "x"),
                          (report.records[0], "exit_x"),
                          (report.reference, "x1")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
