"""Trajectory integration in the two charts.

``integrate_xz`` advances the raw planar system in fast time t:

    dx/dt = eps * f(x, z, eps)
    dz/dt = g(x, z, eps) * z

It is the honest chart but z underflows once the delay exponent
exceeds roughly 745 * eps, so runs at small eps must use
``integrate_zeta``, which advances the logarithmic chart
zeta = eps * log(1/z) in slow time tau:

    dx/dtau    = f(x, exp(-zeta/eps), eps)
    dzeta/dtau = -g(x, exp(-zeta/eps), eps)

with exp(-zeta/eps) flushed to exactly 0 once zeta/eps > 745.  The
stepper is an embedded Dormand-Prince 5(4) pair with proportional
step control, run on the plain float pair (x, z) or (x, zeta); stop
sections are located by bisecting the cubic Hermite dense output of
the accepted step down to ``EVENT_TIME_TOL``; the located crossing is
the last sample of the returned trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (IntegrationError, MaxStepsExceededError, PreconditionError,
                     StepSizeUnderflowError, ZUnderflowError)
from .model import InitialData, Model
from .numerics import linspace

Z_FLOOR = 1e-300     # the (x, z) chart is declared dead below this
EXP_FLOOR = 745.0    # exp(-u) is exactly 0 in double precision past this
EVENT_TIME_TOL = 1e-12   # bisection width of a located stop, in chart time


@dataclass(frozen=True)
class Section:
    """A stop section: one coordinate pinned to a value.

    ``var`` is 'z', 'zeta' or 'x'; ``direction`` +1 stops on crossings
    where the coordinate increases through the value, -1 where it
    decreases, 0 on any crossing.  ``require_x_positive`` restricts to
    crossings right of the turning point.
    """

    var: str
    value: float
    direction: int = 0
    require_x_positive: bool = False

    def __post_init__(self):
        if self.var not in ("z", "zeta", "x"):
            raise PreconditionError(f"section variable must be z, zeta or x, got {self.var!r}")
        if not math.isfinite(self.value):
            raise PreconditionError("section value must be finite")
        if self.var == "z" and self.value <= 0.0:
            raise PreconditionError(f"a z-section needs a positive value, got {self.value}")
        if self.direction not in (-1, 0, 1):
            raise PreconditionError(f"direction must be -1, 0 or +1, got {self.direction}")


@dataclass(frozen=True)
class Controls:
    """Integrator controls; None means a chart-dependent default.

    Out-of-range values raise ``PreconditionError`` on construction.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 10_000_000
    initial_step: float | None = None   # default 1e-4 * characteristic time
    max_step: float | None = None
    sample_dt: float | None = None      # dense-output spacing (xz default: off)

    def __post_init__(self):
        tols = (self.rel_tol, self.abs_tol)
        if (not all(math.isfinite(v) and v >= 0.0 for v in tols)
                or tols == (0.0, 0.0)):
            raise PreconditionError(
                f"rel_tol and abs_tol must be finite and >= 0, not both 0; "
                f"got rel_tol={self.rel_tol}, abs_tol={self.abs_tol}"
            )
        if self.max_steps < 1:
            raise PreconditionError(f"max_steps must be >= 1, got {self.max_steps}")
        for name in ("initial_step", "max_step", "sample_dt"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise PreconditionError(f"{name} must be finite and > 0, got {value}")


class Trajectory(NamedTuple):
    """Sampled trajectory in one chart.

    ``state`` holds z in the 'xz' chart and zeta in the 'zeta' chart.
    ``t`` is fast time and ``tau = eps * t`` slow time in both charts.
    The sample fields are tuples of floats; the last sample is the
    located stop.  ``zeta()``, ``z()`` and ``xz_points()`` convert to
    lists, or return ``state`` itself where it already holds the
    coordinate.
    """

    chart: str
    eps: float
    t: tuple[float, ...]
    tau: tuple[float, ...]
    x: tuple[float, ...]
    state: tuple[float, ...]
    n_steps: int
    n_rejected: int
    evaluations: int

    def zeta(self) -> Sequence[float]:
        if self.chart == "zeta":
            return self.state
        # zeta = eps * log(1/z); identically 0 in the frozen-drift limit
        if self.eps == 0.0:
            return [0.0] * len(self.state)
        eps = self.eps
        return [eps * math.log(1.0 / z) for z in self.state]

    def z(self) -> Sequence[float]:
        """z values with unrepresentable entries flushed to exactly 0.

        Raises ``IntegrationError`` where z overflows a double.
        """
        if self.chart == "xz":
            return self.state
        eps = self.eps
        try:
            return [math.exp(-u) if u <= EXP_FLOOR else 0.0
                    for u in (zeta / eps for zeta in self.state)]
        except OverflowError:
            raise IntegrationError(
                f"z = exp({-min(self.state) / eps:.6g}) overflows double "
                "precision"
            ) from None

    def xz_points(self) -> list[tuple[float, float]]:
        return list(zip(self.x, self.z()))


# Dormand-Prince 5(4) tableau.  _B is the order-5 propagated weight row
# (FSAL: the 7th stage sits at the step end), _E the difference against
# the embedded order-4 row used for the error estimate.  The charts are
# autonomous, so the stage nodes c_i never enter.
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
      11.0 / 84.0)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _hermite(theta: float, h: float, y0, y1, f0, f1) -> tuple[float, float]:
    """Cubic Hermite interpolant of the (x, state) pair on one step."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    a = h10 * h
    b = h11 * h
    return (h00 * y0[0] + a * f0[0] + h01 * y1[0] + b * f1[0],
            h00 * y0[1] + a * f0[1] + h01 * y1[1] + b * f1[1])


def _ratio(e: float, scale: float) -> float:
    """e / scale with IEEE semantics at scale = 0 (abs_tol = 0 on a
    coordinate that is exactly 0 at both ends of the step)."""
    if scale == 0.0:
        return math.nan if e == 0.0 else math.inf
    return e / scale


def _run_engine(rhs, y0: tuple[float, float], event_fn, direction: int,
                guard_x_positive: bool, state_guard, controls: Controls,
                h0: float, h_max: float, dense_dt: float | None,
                underflow_remedy: str):
    """Shared adaptive DP5(4) loop on the float pair (x, state).

    ``rhs(x, s)`` returns the pair of derivatives, ``event_fn(x, s)``
    the scalar section residual, and ``state_guard(t, x, s)`` may raise
    on invalid states after each accepted step.  Time starts at 0.  The
    loop ends at the first admissible crossing, which becomes the last
    sample, or raises when a budget or validity guard trips.  Returns
    the time, x and state sample lists and the counts of accepted
    steps, rejected steps and right-hand-side evaluations.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A
    b1, b2, b3, b4, b5, b6 = _B
    e1, e2, e3, e4, e5, e6, e7 = _E
    abs_tol, rel_tol = controls.abs_tol, controls.rel_tol
    isfinite = math.isfinite

    t = 0.0
    x, s = y0
    k1x, k1s = rhs(x, s)
    n_steps = n_rejected = 0
    evals = 1
    if not (isfinite(k1x) and isfinite(k1s)):
        raise IntegrationError(f"non-finite derivative at t={t:.17g}")

    ts: list[float] = []
    xs: list[float] = []
    ss: list[float] = []     # z or zeta, matching the chart
    ts_append, xs_append, ss_append = ts.append, xs.append, ss.append
    ts_append(t)
    xs_append(x)
    ss_append(s)
    e_prev = event_fn(x, s)

    h = min(h0, h_max)
    next_dense = t + dense_dt if dense_dt is not None else None

    while True:
        if n_steps >= controls.max_steps:
            raise MaxStepsExceededError(
                f"no stop section reached within {controls.max_steps} steps "
                f"(t={t:.17g})"
            )
        h = min(h, h_max)
        if h <= 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.17g}" + underflow_remedy
            )

        k2x, k2s = rhs(x + h * (a21 * k1x), s + h * (a21 * k1s))
        k3x, k3s = rhs(x + h * (a31 * k1x + a32 * k2x),
                       s + h * (a31 * k1s + a32 * k2s))
        k4x, k4s = rhs(x + h * (a41 * k1x + a42 * k2x + a43 * k3x),
                       s + h * (a41 * k1s + a42 * k2s + a43 * k3s))
        k5x, k5s = rhs(x + h * (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x),
                       s + h * (a51 * k1s + a52 * k2s + a53 * k3s + a54 * k4s))
        k6x, k6s = rhs(x + h * (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x
                                + a65 * k5x),
                       s + h * (a61 * k1s + a62 * k2s + a63 * k3s + a64 * k4s
                                + a65 * k5s))
        xn = x + h * (b1 * k1x + b2 * k2x + b3 * k3x + b4 * k4x + b5 * k5x
                      + b6 * k6x)
        sn = s + h * (b1 * k1s + b2 * k2s + b3 * k3s + b4 * k4s + b5 * k5s
                      + b6 * k6s)
        k7x, k7s = rhs(xn, sn)
        evals += 6
        if not (isfinite(xn) and isfinite(sn)
                and isfinite(k2x) and isfinite(k2s) and isfinite(k3x)
                and isfinite(k3s) and isfinite(k4x) and isfinite(k4s)
                and isfinite(k5x) and isfinite(k5s) and isfinite(k6x)
                and isfinite(k6s) and isfinite(k7x) and isfinite(k7s)):
            raise IntegrationError(
                f"non-finite state or derivative inside step at t={t:.17g}"
            )

        ex = h * (e1 * k1x + e2 * k2x + e3 * k3x + e4 * k4x + e5 * k5x
                  + e6 * k6x + e7 * k7x)
        es = h * (e1 * k1s + e2 * k2s + e3 * k3s + e4 * k4s + e5 * k5s
                  + e6 * k6s + e7 * k7s)
        rx = _ratio(ex, abs_tol + rel_tol * max(abs(x), abs(xn)))
        rs = _ratio(es, abs_tol + rel_tol * max(abs(s), abs(sn)))
        err_norm = math.sqrt((rx * rx + rs * rs) / 2.0)

        if err_norm > 1.0:
            n_rejected += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue

        # accepted
        n_steps += 1
        y, y_new = (x, s), (xn, sn)
        f_cur, f_new = (k1x, k1s), (k7x, k7s)
        t_new = t + h

        t_star = None
        e_new = event_fn(xn, sn)
        crossed = False
        if e_prev != 0.0:
            if e_prev < 0.0 <= e_new and direction >= 0:
                crossed = True
            elif e_prev > 0.0 >= e_new and direction <= 0:
                crossed = True
        if crossed:
            lo, hi = 0.0, 1.0
            w_lo = e_prev
            # bisect the Hermite interpolant down to the time tolerance
            while (hi - lo) * h > EVENT_TIME_TOL:
                mid = 0.5 * (lo + hi)
                w_mid = event_fn(*_hermite(mid, h, y, y_new, f_cur, f_new))
                if w_mid == 0.0:
                    lo = hi = mid
                    break
                if (w_lo < 0.0) == (w_mid < 0.0):
                    lo, w_lo = mid, w_mid
                else:
                    hi = mid
            theta = 0.5 * (lo + hi)
            y_star = _hermite(theta, h, y, y_new, f_cur, f_new)
            if (not guard_x_positive) or y_star[0] > 0.0:
                t_star = t + theta * h

        t_end = t_new if t_star is None else t_star
        if next_dense is not None:
            dense_end = t_end - 1e-15 * max(1.0, abs(t_end))
            while next_dense < dense_end:
                x_d, s_d = _hermite((next_dense - t) / h, h, y, y_new,
                                    f_cur, f_new)
                ts_append(next_dense)
                xs_append(x_d)
                ss_append(s_d)
                next_dense += dense_dt

        if t_star is not None:
            ts_append(t_star)
            xs_append(y_star[0])
            ss_append(y_star[1])
            return ts, xs, ss, n_steps, n_rejected, evals

        ts_append(t_new)
        xs_append(xn)
        ss_append(sn)
        state_guard(t_new, xn, sn)

        t = t_new
        x, s = xn, sn
        k1x, k1s = k7x, k7s
        e_prev = e_new
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h *= factor


def _to_trajectory(chart: str, eps: float, ts, xs, ss, n_steps: int,
                   n_rejected: int, evals: int) -> Trajectory:
    """Package an engine run; its times ``ts`` are fast time t in the
    'xz' chart and slow time tau in the 'zeta' chart."""
    if chart == "xz":
        t = tuple(ts)
        tau = tuple(eps * v for v in t)
    else:
        tau = tuple(ts)
        t = tuple(v / eps for v in tau)
    return Trajectory(chart=chart, eps=eps, t=t, tau=tau, x=tuple(xs),
                      state=tuple(ss), n_steps=n_steps, n_rejected=n_rejected,
                      evaluations=evals)


def _validate_start(m: Model, d: InitialData):
    x_min, x_max = m.window
    if not (x_min < d.x0 < x_max):
        raise PreconditionError(
            f"x0 must lie inside the window ({x_min}, {x_max}), got {d.x0}"
        )
    if d.z0 > m.z_cap:
        raise PreconditionError(f"z0={d.z0} exceeds z_cap={m.z_cap}")


def _window_guard(m: Model):
    x_min, x_max = m.window

    def guard(t: float, x: float, s: float):
        if not (x_min <= x <= x_max):
            raise IntegrationError(
                f"x={x:.17g} left the validity window [{x_min}, {x_max}] "
                f"before any stop section fired (t={t:.17g})"
            )
    return guard


def integrate_xz(m: Model, d: InitialData, stop: Section,
                 controls: Controls = Controls()) -> Trajectory:
    """Advance the raw (x, z) chart in fast time until ``stop`` fires.

    Raises ``ZUnderflowError`` once z drops below 1e-300; runs deep
    into the delay regime belong in ``integrate_zeta``.
    """
    _validate_start(m, d)
    eps = d.eps
    if stop.var == "zeta" and eps == 0.0:
        raise PreconditionError("a zeta-section is undefined at eps = 0")

    g_max = max(abs(m.g(x, 0.0, 0.0)) for x in linspace(*m.window, 65))
    t_char = 1.0 / max(g_max, 1e-6)
    h0 = controls.initial_step if controls.initial_step is not None else 1e-4 * t_char
    h_max = controls.max_step if controls.max_step is not None else t_char
    f, g = m.f, m.g

    def rhs(x: float, z: float) -> tuple[float, float]:
        return eps * f(x, z, eps), g(x, z, eps) * z

    window_guard = _window_guard(m)

    def guard(t: float, x: float, z: float):
        if z <= Z_FLOOR:
            raise ZUnderflowError(
                f"z={z:.6g} underflowed below {Z_FLOOR:g} at t={t:.17g}; "
                "integrate in the logarithmic chart (integrate_zeta) instead"
            )
        window_guard(t, x, z)

    c = stop.value
    if stop.var == "z":
        def event(x: float, z: float) -> float:
            return z - c
    elif stop.var == "x":
        def event(x: float, z: float) -> float:
            return x - c
    else:  # zeta section expressed through z
        def event(x: float, z: float) -> float:
            return eps * math.log(1.0 / z) - c

    remedy = ("; z decays exponentially fast in this chart, consider the "
              "logarithmic chart (integrate_zeta)")
    return _to_trajectory("xz", eps, *_run_engine(
        rhs, (d.x0, d.z0), event, stop.direction, stop.require_x_positive,
        guard, controls, h0, h_max, controls.sample_dt, remedy))


def integrate_zeta(m: Model, d: InitialData, stop: Section,
                   controls: Controls = Controls()) -> Trajectory:
    """Advance the logarithmic chart in slow time until ``stop`` fires.

    The initial condition is zeta = eps * log(1/z0); z-sections are
    translated into zeta-sections (with the crossing direction
    flipped, since zeta falls when z rises).
    """
    _validate_start(m, d)
    eps = d.eps
    if eps <= 0.0:
        raise PreconditionError(
            f"the logarithmic chart needs eps > 0, got {eps}"
        )
    zeta_init = eps * math.log(1.0 / d.z0)

    f_min = min(m.f(x, 0.0, 0.0) for x in linspace(*m.window, 65))
    if not (f_min > 0.0):
        raise PreconditionError(
            f"f must be positive on the window (grid minimum {f_min:.6g})"
        )
    x_min, x_max = m.window
    t_char = (x_max - x_min) / f_min
    h0 = controls.initial_step if controls.initial_step is not None else 1e-4 * t_char
    h_max = controls.max_step if controls.max_step is not None else t_char / 8.0
    dense_dt = controls.sample_dt if controls.sample_dt is not None else t_char / 1000.0

    # Trial stages may wander below the cap exponent (z > z_cap), where
    # the model promises nothing and exp(-zeta/eps) can overflow; clamp
    # to z_cap there so the step is rejected on error, not by overflow.
    # The clamped and true right-hand sides agree wherever z <= z_cap.
    u_cap = math.log(1.0 / m.z_cap)
    z_cap = m.z_cap
    f, g, exp = m.f, m.g, math.exp

    def rhs(x: float, zeta: float) -> tuple[float, float]:
        u = zeta / eps
        if u > EXP_FLOOR:
            z = 0.0
        elif u < u_cap:
            z = z_cap
        else:
            z = exp(-u)
        return f(x, z, eps), -g(x, z, eps)

    if stop.var == "z":
        c = eps * math.log(1.0 / stop.value)
        direction = -stop.direction
    else:
        c = stop.value
        direction = stop.direction
    if stop.var == "x":
        def event(x: float, zeta: float) -> float:
            return x - c
    else:
        def event(x: float, zeta: float) -> float:
            return zeta - c

    return _to_trajectory("zeta", eps, *_run_engine(
        rhs, (d.x0, zeta_init), event, direction, stop.require_x_positive,
        _window_guard(m), controls, h0, h_max, dense_dt, ""))


def min_z_exponent(traj: Trajectory) -> float:
    """Largest zeta along a logarithmic-chart trajectory.

    Equals eps * log(1 / min z).  The discrete maximum is sharpened by
    the peak of the quadratic through the three samples around it; a
    maximum at either end (monotone run) is returned as-is.
    """
    if traj.chart != "zeta":
        raise PreconditionError("min_z_exponent needs a zeta-chart trajectory")
    n = len(traj.state)
    if n < 3:
        raise PreconditionError(
            f"need at least 3 samples to locate the maximum, got {n}"
        )
    i = max(range(n), key=traj.state.__getitem__)
    if i == 0 or i == n - 1:
        return traj.state[i]
    t0, t1, t2 = traj.tau[i - 1:i + 2]
    v0, v1, v2 = traj.state[i - 1:i + 2]
    d1 = (v1 - v0) / (t1 - t0)
    d2 = (v2 - v1) / (t2 - t1)
    curv = (d2 - d1) / (t2 - t0)
    if curv >= 0.0:
        return v1
    t_peak = 0.5 * (t0 + t1) - d1 / (2.0 * curv)
    if not (t0 <= t_peak <= t2):
        return v1
    return v0 + d1 * (t_peak - t0) + curv * (t_peak - t0) * (t_peak - t1)
