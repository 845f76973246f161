"""Trajectory integration in the raw and logarithmic charts."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaylab.entryexit import solve_exit
from delaylab.errors import (IntegrationError, MaxStepsExceededError,
                             PreconditionError, StepSizeUnderflowError,
                             ZUnderflowError)
from delaylab.integrate import (Controls, Section, Trajectory, integrate_xz,
                                integrate_zeta, min_z_exponent)
from delaylab.model import InitialData, Model, get_model, model_from_expressions
from delaylab.output import write_trajectory_csv

TIGHT = Controls(rel_tol=1e-12, abs_tol=1e-14)


def make_traj(tau, state, eps=0.1, chart="zeta"):
    tau = np.asarray(tau, dtype=float)
    state = np.asarray(state, dtype=float)
    return Trajectory(chart=chart, eps=eps, t=tau / eps if eps else tau,
                      tau=tau, x=np.zeros_like(tau), state=state,
                      n_steps=len(tau) - 1, n_rejected=0, evaluations=0)


def test_section_validation():
    with pytest.raises(PreconditionError):
        Section("y", 0.1)
    with pytest.raises(PreconditionError):
        Section("z", 0.0)
    with pytest.raises(PreconditionError):
        Section("z", -0.1)
    with pytest.raises(PreconditionError):
        Section("x", 0.1, direction=2)
    with pytest.raises(PreconditionError):
        Section("zeta", math.inf)


def test_trajectory_z_flushes_underflow_and_names_overflow():
    z = make_traj([0.0, 1.0], [0.5, 0.5], eps=0.1).z()
    assert z == pytest.approx([math.exp(-5.0)] * 2)
    # 0.5/1e-4 = 5000 > 745
    assert make_traj([0.0, 1.0], [0.5, 0.5], eps=1e-4).z() == [0.0, 0.0]
    # -0.1/1e-4 = -1000: exp(1000) overflows
    with pytest.raises(IntegrationError, match="overflows"):
        make_traj([0.0, 1.0], [0.5, -0.1], eps=1e-4).z()


def test_frozen_drift_keeps_x_constant():
    m = get_model("linear")
    traj = integrate_xz(m, InitialData(-1.0, 0.1, 0.0),
                        Section("z", 0.01, direction=-1))
    assert np.max(np.abs(np.asarray(traj.x) + 1.0)) <= 1e-14
    assert np.all(np.asarray(traj.tau) == 0.0)
    # z' = -z at x = -1, so z hits 0.01 at t = ln 10
    assert abs(traj.t[-1] - math.log(10.0)) <= 1e-7

    tight = integrate_xz(m, InitialData(-1.0, 0.1, 0.0),
                         Section("z", 0.01, direction=-1), TIGHT)
    assert abs(tight.t[-1] - math.log(10.0)) <= 1e-9


def test_pure_exponential_decay_is_exact():
    m = model_from_expressions("decay", "1", "-1", (-1.5, 1.5))
    z0 = 0.5
    target = z0 * math.exp(-5.0)
    traj = integrate_xz(m, InitialData(-1.0, z0, 0.0),
                        Section("z", target, direction=-1), TIGHT)
    assert abs(traj.t[-1] - 5.0) <= 1e-9
    assert abs(traj.state[-1] - target) <= 1e-12


def test_log_chart_delay_exponent_moderate_eps():
    m = get_model("linear")
    eps, z0 = 0.1, 0.1
    traj = integrate_zeta(m, InitialData(-1.0, z0, eps),
                          Section("z", z0, direction=1, require_x_positive=True))
    peak = min_z_exponent(traj)
    expected = 0.5 + eps * math.log(1.0 / z0)
    assert abs(peak - expected) <= 1e-6
    assert abs(peak - 0.7303) <= 0.15


def test_log_chart_survives_tiny_eps():
    m = get_model("linear")
    eps, z0 = 1e-4, 0.1
    traj = integrate_zeta(m, InitialData(-1.0, z0, eps),
                          Section("z", z0, direction=1, require_x_positive=True))
    peak = min_z_exponent(traj)
    assert 0.49 < peak < 0.51
    # deep in the delay the represented z is exactly 0
    assert np.min(traj.z()) == 0.0
    assert traj.zeta() is traj.state


def test_raw_chart_underflows_at_tiny_eps():
    m = get_model("linear")
    with pytest.raises(ZUnderflowError) as info:
        integrate_xz(m, InitialData(-1.0, 0.1, 1e-4),
                     Section("z", 0.1, direction=1, require_x_positive=True))
    assert "integrate_zeta" in str(info.value)


def test_zeta_section_exit_matches_slow_drift():
    m = get_model("quadratic")
    eps, x0, z0 = 0.05, -0.5, 0.1
    stop = Section("zeta", eps * math.log(1.0 / z0), direction=-1,
                   require_x_positive=True)
    traj = integrate_zeta(m, InitialData(x0, z0, eps), stop)
    sol = solve_exit(m, x0)
    exit_x = traj.x[-1]
    assert abs(exit_x - 0.3661) <= 0.05
    assert abs(exit_x - sol.x1) <= 1e-6


def test_charts_agree_on_exit_point():
    m = get_model("linear")
    z0 = 0.1
    for eps in (0.2, 0.1):
        stop = Section("z", z0, direction=1, require_x_positive=True)
        raw = integrate_xz(m, InitialData(-1.0, z0, eps), stop, TIGHT)
        log = integrate_zeta(m, InitialData(-1.0, z0, eps), stop, TIGHT)
        assert abs(raw.x[-1] - log.x[-1]) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 1.5), beta=st.floats(-0.5, 0.5),
       x0=st.floats(-1.0, -0.4))
def test_both_charts_exit_at_the_closed_form_root(a, beta, x0):
    # f = 1, g = a x + b x^2 has no z in it, so the return to z = z0
    # happens at the x1 > 0 with a (x1^2 - x0^2)/2 + b (x1^3 - x0^3)/3 = 0
    # for every eps.  Dividing out x1 - x0 leaves A x1^2 + B x1 + x0 B = 0
    # with A = b/3 and B = a/2 + b x0/3 > 0, solved in its stable form.
    b = beta * a
    big_b = a / 2.0 + b * x0 / 3.0
    x1 = -2.0 * x0 * big_b / (big_b + math.sqrt(big_b * (a / 2.0 - b * x0)))
    assume(x1 < 1.4)
    m = model_from_expressions("poly", "1", f"{a!r}*x + {b!r}*x^2",
                               (-1.5, 1.5))
    stop = Section("z", 0.1, direction=1, require_x_positive=True)
    # z dips as low as about 1e-10 in the (x, z) chart: control its error
    # relatively, not against an absolute floor near that size
    relative = Controls(rel_tol=1e-12, abs_tol=1e-18)
    for integrator in (integrate_xz, integrate_zeta):
        traj = integrator(m, InitialData(x0, 0.1, 0.05), stop, relative)
        assert abs(traj.x[-1] - x1) <= 1e-8, integrator.__name__


def test_z_and_zeta_sections_are_equivalent():
    m = get_model("linear")
    eps, z0 = 0.1, 0.1
    by_z = integrate_zeta(m, InitialData(-1.0, z0, eps),
                          Section("z", z0, direction=1, require_x_positive=True))
    by_zeta = integrate_zeta(m, InitialData(-1.0, z0, eps),
                             Section("zeta", eps * math.log(1.0 / z0),
                                     direction=-1, require_x_positive=True))
    assert abs(by_z.x[-1] - by_zeta.x[-1]) <= 1e-9
    assert abs(by_z.tau[-1] - by_zeta.tau[-1]) <= 1e-9


def test_time_bookkeeping_and_ordering():
    m = get_model("linear")
    eps = 0.1
    traj = integrate_zeta(m, InitialData(-1.0, 0.1, eps),
                          Section("z", 0.1, direction=1, require_x_positive=True))
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.max(np.abs(np.asarray(traj.tau) - eps * np.asarray(traj.t))) <= 1e-12 * max(1.0, traj.t[-1])
    raw = integrate_xz(m, InitialData(-1.0, 0.1, eps),
                       Section("z", 0.1, direction=1, require_x_positive=True))
    assert np.all(np.diff(raw.t) > 0.0)
    assert np.max(np.abs(np.asarray(raw.tau) - eps * np.asarray(raw.t))) <= 1e-12 * max(1.0, raw.t[-1])


def test_event_state_honors_section_value(tmp_path):
    # the last sample is the located stop: it sits on the section, and
    # the CSV flags it and no other row; both charts, all three sections
    m = get_model("linear")
    sections = (Section("z", 0.1, direction=1, require_x_positive=True),
                Section("zeta", 0.1 * math.log(1.0 / 0.1), direction=-1,
                        require_x_positive=True),
                Section("x", 0.5, direction=1))
    path = tmp_path / "traj.csv"
    for integrator in (integrate_xz, integrate_zeta):
        for stop in sections:
            traj = integrator(m, InitialData(-1.0, 0.1, 0.1), stop)
            on_stop = {"x": traj.x[-1], "z": traj.z()[-1],
                       "zeta": traj.zeta()[-1]}[stop.var]
            assert abs(on_stop - stop.value) <= 1e-9, (integrator, stop)
            write_trajectory_csv(str(path), traj)
            flags = [line.rsplit(",", 1)[1]
                     for line in path.read_text().splitlines()[1:]]
            assert flags == ["0"] * (len(traj.t) - 1) + ["1"], (integrator, stop)


def test_direction_and_x_positive_filters():
    m = get_model("linear")
    eps, z0 = 0.1, 0.2
    z_mid = 0.05  # crossed downward at x < 0, upward at x > 0
    down = integrate_zeta(m, InitialData(-1.0, z0, eps),
                          Section("z", z_mid, direction=-1))
    assert down.x[-1] < 0.0
    up = integrate_zeta(m, InitialData(-1.0, z0, eps),
                        Section("z", z_mid, direction=1))
    assert up.x[-1] > 0.0
    first = integrate_zeta(m, InitialData(-1.0, z0, eps),
                           Section("z", z_mid, direction=0))
    assert first.x[-1] < 0.0
    guarded = integrate_zeta(m, InitialData(-1.0, z0, eps),
                             Section("z", z_mid, direction=0,
                                     require_x_positive=True))
    assert guarded.x[-1] > 0.0


def test_min_z_exponent_quadratic_sharpening():
    traj = make_traj([0.0, 1.0, 2.0], [0.1, 0.5, 0.1])
    assert min_z_exponent(traj) == pytest.approx(0.5, abs=1e-15)


def test_min_z_exponent_monotone_returns_endpoint():
    traj = make_traj([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert min_z_exponent(traj) == 0.3
    traj = make_traj([0.0, 1.0, 2.0], [0.3, 0.2, 0.1])
    assert min_z_exponent(traj) == 0.3


def test_min_z_exponent_preconditions():
    traj = make_traj([0.0, 1.0], [0.1, 0.2])
    with pytest.raises(PreconditionError):
        min_z_exponent(traj)
    raw = make_traj([0.0, 1.0, 2.0], [0.1, 0.2, 0.3], chart="xz")
    with pytest.raises(PreconditionError):
        min_z_exponent(raw)


def test_exit_converges_with_tolerance_on_z_dependent_model():
    # with z-feedback in g the exit genuinely depends on the tolerance;
    # errors against a tight reference run must shrink with rel_tol
    m = model_from_expressions("zdep", "1", "x + 0.5*z", (-1.5, 1.5))
    d = InitialData(-1.0, 0.5, 0.1)
    stop = Section("z", 0.5, direction=1, require_x_positive=True)
    ref = integrate_zeta(m, d, stop,
                         Controls(rel_tol=1e-11, abs_tol=1e-13)).x[-1]
    errs = []
    for rel in (1e-4, 1e-6, 1e-8):
        tr = integrate_zeta(m, d, stop,
                            Controls(rel_tol=rel, abs_tol=rel * 1e-3))
        errs.append(abs(tr.x[-1] - ref))
    assert errs[0] <= 1e-4
    assert errs[2] <= 1e-6
    assert errs[0] > errs[1] > errs[2]


def test_max_steps_budget():
    m = get_model("linear")
    with pytest.raises(MaxStepsExceededError):
        integrate_zeta(m, InitialData(-1.0, 0.1, 0.1),
                       Section("z", 0.1, direction=1, require_x_positive=True),
                       Controls(max_steps=5))


def test_controls_validation():
    bad = (
        dict(sample_dt=0.0), dict(sample_dt=-0.1), dict(sample_dt=math.inf),
        dict(rel_tol=-1.0), dict(abs_tol=math.nan),
        dict(rel_tol=0.0, abs_tol=0.0), dict(max_steps=0),
        dict(initial_step=0.0), dict(max_step=-1.0),
    )
    for kwargs in bad:
        with pytest.raises(PreconditionError):
            Controls(**kwargs)
    assert Controls(rel_tol=0.0, abs_tol=1e-12).rel_tol == 0.0


def test_step_size_underflow_at_discontinuity():
    # the error controller can never accept a step across a large jump
    # in g, so the step size collapses to the floor and is reported
    jump = Model("jump", lambda x, z, eps: 1.0,
                 lambda x, z, eps: x if x < -0.5 else x + 1e8,
                 window=(-1.5, 1.5))
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate_zeta(jump, InitialData(-1.0, 0.1, 0.1),
                       Section("z", 0.1, direction=1, require_x_positive=True))
    assert "step size underflow" in str(info.value)


def test_window_escape_is_reported():
    m = get_model("linear")
    with pytest.raises(IntegrationError) as info:
        integrate_zeta(m, InitialData(-1.0, 0.9, 0.5),
                       Section("z", 1e-6, direction=-1))
    assert "window" in str(info.value)


def test_chart_preconditions():
    m = get_model("linear")
    with pytest.raises(PreconditionError):
        integrate_zeta(m, InitialData(-1.0, 0.1, 0.0), Section("z", 0.05))
    with pytest.raises(PreconditionError):
        integrate_xz(m, InitialData(-1.0, 0.1, 0.0), Section("zeta", 0.1))
    with pytest.raises(PreconditionError):
        integrate_xz(m, InitialData(-2.0, 0.1, 0.1), Section("z", 0.05))
    with pytest.raises(PreconditionError):
        integrate_xz(m, InitialData(-1.0, 1.5, 0.1), Section("z", 0.05))


def test_runs_are_deterministic():
    m = get_model("linear")
    d = InitialData(-1.0, 0.1, 0.05)
    stop = Section("z", 0.1, direction=1, require_x_positive=True)
    a = integrate_zeta(m, d, stop)
    b = integrate_zeta(m, d, stop)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.state, b.state)
    assert a.n_steps == b.n_steps and a.evaluations == b.evaluations
