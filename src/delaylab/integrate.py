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
step control; stop sections are located by bisecting the cubic
Hermite dense output of the accepted step down to a time tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IntegrationError, MaxStepsExceededError, PreconditionError,
                     StepSizeUnderflowError, ZUnderflowError)
from .model import InitialData, Model

Z_FLOOR = 1e-300     # the (x, z) chart is declared dead below this
EXP_FLOOR = 745.0    # exp(-u) is exactly 0 in double precision past this


def z_of_zeta(zeta: float, eps: float) -> float:
    """Map the logarithmic coordinate back to z, flushing underflow to 0."""
    u = zeta / eps
    if u > EXP_FLOOR:
        return 0.0
    if u < -709.0:
        raise IntegrationError(
            f"z = exp({-u:.6g}) overflows double precision"
        )
    return math.exp(-u)


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
    sample_dt: float | None = None      # dense-output spacing (zeta chart)
    event_time_tol: float = 1e-12

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
        if not (self.event_time_tol > 0.0):
            raise PreconditionError(
                f"event_time_tol must be > 0, got {self.event_time_tol}")


@dataclass(frozen=True)
class Event:
    index: int        # sample index of the located crossing
    t: float
    tau: float
    x: float
    state: float      # z or zeta, matching the chart
    section: Section


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory in one chart.

    ``state`` holds z in the 'xz' chart and zeta in the 'zeta' chart.
    ``t`` is fast time and ``tau = eps * t`` slow time in both charts.
    ``error_estimate`` accumulates the per-step embedded error (a crude
    global-error proxy) and ``event_flags`` marks located crossings.
    """

    chart: str
    eps: float
    t: np.ndarray
    tau: np.ndarray
    x: np.ndarray
    state: np.ndarray
    event_flags: np.ndarray
    events: tuple[Event, ...]
    n_steps: int
    n_rejected: int
    error_estimate: float
    evaluations: int

    def zeta(self) -> np.ndarray:
        if self.chart == "zeta":
            return self.state
        # zeta = eps * log(1/z); identically 0 in the frozen-drift limit
        if self.eps == 0.0:
            return np.zeros_like(self.state)
        return self.eps * np.log(1.0 / self.state)

    def z(self) -> np.ndarray:
        """z values with unrepresentable entries flushed to exactly 0."""
        if self.chart == "xz":
            return self.state
        u = self.state / self.eps
        out = np.zeros_like(u)
        ok = u <= EXP_FLOOR
        out[ok] = np.exp(-u[ok])
        return out

    def xz_points(self) -> np.ndarray:
        return np.column_stack([self.x, self.z()])


# Dormand-Prince 5(4) tableau.  _B is the order-5 propagated weight row
# (FSAL: the 7th stage sits at the step end), _E the difference against
# the embedded order-4 row used for the error estimate.
_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _hermite(theta: float, h: float, y0, y1, f0, f1):
    """Cubic Hermite interpolant on one accepted step."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * y0 + (h10 * h) * f0 + h01 * y1 + (h11 * h) * f1


class _EngineResult:
    __slots__ = ("ts", "ys", "flags", "events", "n_steps", "n_rejected",
                 "err_accum", "evals")

    def __init__(self):
        self.ts: list[float] = []
        self.ys: list[np.ndarray] = []
        self.flags: list[bool] = []
        self.events: list[tuple[int, float, np.ndarray]] = []
        self.n_steps = 0
        self.n_rejected = 0
        self.err_accum = 0.0
        self.evals = 0


def _run_engine(rhs, t0: float, y0: np.ndarray, event_fn, direction: int,
                guard_x_positive: bool, state_guard, controls: Controls,
                h0: float, h_max: float, dense_dt: float | None,
                underflow_remedy: str) -> _EngineResult:
    """Shared adaptive DP5(4) loop.

    ``event_fn(y)`` is the scalar section residual (None for no stop);
    ``state_guard(t, y)`` may raise on invalid states after each
    accepted step.  The loop ends at the first admissible crossing or
    raises when a budget or validity guard trips.
    """
    res = _EngineResult()
    t = float(t0)
    y = np.array(y0, dtype=float)
    f_cur = rhs(t, y)
    res.evals += 1
    if not np.all(np.isfinite(f_cur)):
        raise IntegrationError(f"non-finite derivative at t={t:.17g}")

    res.ts.append(t)
    res.ys.append(y.copy())
    res.flags.append(False)
    e_prev = float(event_fn(y)) if event_fn is not None else 0.0

    h = min(h0, h_max)
    next_dense = t + dense_dt if dense_dt is not None else None
    k = [np.empty_like(y) for _ in range(7)]

    while True:
        if res.n_steps >= controls.max_steps:
            raise MaxStepsExceededError(
                f"no stop section reached within {controls.max_steps} steps "
                f"(t={t:.17g})"
            )
        h = min(h, h_max)
        if h <= 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.17g}" + underflow_remedy
            )

        k[0] = f_cur
        failed = False
        for s in range(1, 6):
            ys = y + h * sum(_A[s - 1][j] * k[j] for j in range(s))
            k[s] = rhs(t + _C[s] * h, ys)
        y_new = y + h * sum(_A[5][j] * k[j] for j in range(6))
        k[6] = rhs(t + h, y_new)
        res.evals += 6
        if not (np.all(np.isfinite(y_new)) and all(np.all(np.isfinite(ki)) for ki in k)):
            raise IntegrationError(
                f"non-finite state or derivative inside step at t={t:.17g}"
            )

        err_vec = h * sum(_E[j] * k[j] for j in range(7))
        scale = controls.abs_tol + controls.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err_norm > 1.0:
            res.n_rejected += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue

        # accepted
        res.n_steps += 1
        res.err_accum += float(np.max(np.abs(err_vec)))
        f_new = k[6]
        t_new = t + h

        stop_at = None  # (t_star, y_star)
        e_new = e_prev
        if event_fn is not None:
            e_new = float(event_fn(y_new))
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
                while (hi - lo) * h > controls.event_time_tol:
                    mid = 0.5 * (lo + hi)
                    y_mid = _hermite(mid, h, y, y_new, f_cur, f_new)
                    w_mid = float(event_fn(y_mid))
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
                    stop_at = (t + theta * h, y_star)

        if stop_at is not None:
            t_star, y_star = stop_at
            if next_dense is not None:
                while next_dense < t_star - 1e-15 * max(1.0, abs(t_star)):
                    theta_d = (next_dense - t) / h
                    y_d = _hermite(theta_d, h, y, y_new, f_cur, f_new)
                    res.ts.append(next_dense)
                    res.ys.append(y_d)
                    res.flags.append(False)
                    next_dense += dense_dt
            res.ts.append(t_star)
            res.ys.append(np.array(y_star, dtype=float))
            res.flags.append(True)
            res.events.append((len(res.ts) - 1, t_star, np.array(y_star)))
            return res

        if next_dense is not None:
            while next_dense < t_new - 1e-15 * max(1.0, abs(t_new)):
                theta_d = (next_dense - t) / h
                y_d = _hermite(theta_d, h, y, y_new, f_cur, f_new)
                res.ts.append(next_dense)
                res.ys.append(y_d)
                res.flags.append(False)
                next_dense += dense_dt

        res.ts.append(t_new)
        res.ys.append(y_new.copy())
        res.flags.append(False)

        state_guard(t_new, y_new)

        t = t_new
        y = y_new
        f_cur = f_new
        e_prev = e_new
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h *= factor


def _grid_extrema(m: Model, n: int = 65):
    """min f and max |g| over the window at z = 0, eps = 0."""
    xs = np.linspace(m.window[0], m.window[1], n)
    f_min = min(m.f(float(x), 0.0, 0.0) for x in xs)
    g_max = max(abs(m.g(float(x), 0.0, 0.0)) for x in xs)
    return f_min, g_max


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

    def guard(t: float, y: np.ndarray):
        if not (x_min <= y[0] <= x_max):
            raise IntegrationError(
                f"x={y[0]:.17g} left the validity window [{x_min}, {x_max}] "
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

    _, g_max = _grid_extrema(m)
    t_char = 1.0 / max(g_max, 1e-6)
    h0 = controls.initial_step if controls.initial_step is not None else 1e-4 * t_char
    h_max = controls.max_step if controls.max_step is not None else t_char

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x, z = float(y[0]), float(y[1])
        return np.array((eps * m.f(x, z, eps), m.g(x, z, eps) * z))

    window_guard = _window_guard(m)

    def guard(t: float, y: np.ndarray):
        if y[1] <= Z_FLOOR:
            raise ZUnderflowError(
                f"z={y[1]:.6g} underflowed below {Z_FLOOR:g} at t={t:.17g}; "
                "integrate in the logarithmic chart (integrate_zeta) instead"
            )
        window_guard(t, y)

    if stop.var == "z":
        c = stop.value

        def event(y: np.ndarray) -> float:
            return float(y[1]) - c
        direction = stop.direction
    elif stop.var == "x":
        c = stop.value

        def event(y: np.ndarray) -> float:
            return float(y[0]) - c
        direction = stop.direction
    else:  # zeta section expressed through z
        c = stop.value

        def event(y: np.ndarray) -> float:
            return eps * math.log(1.0 / float(y[1])) - c
        direction = stop.direction

    remedy = ("; z decays exponentially fast in this chart, consider the "
              "logarithmic chart (integrate_zeta)")
    res = _run_engine(rhs, 0.0, np.array((d.x0, d.z0)), event, direction,
                      stop.require_x_positive, guard, controls, h0, h_max,
                      controls.sample_dt, remedy)

    ts = np.array(res.ts)
    ys = np.array(res.ys)
    events = tuple(
        Event(index=i, t=tv, tau=eps * tv, x=float(yv[0]), state=float(yv[1]),
              section=stop)
        for i, tv, yv in res.events
    )
    return Trajectory(chart="xz", eps=eps, t=ts, tau=eps * ts,
                      x=ys[:, 0], state=ys[:, 1],
                      event_flags=np.array(res.flags, dtype=bool),
                      events=events, n_steps=res.n_steps,
                      n_rejected=res.n_rejected,
                      error_estimate=res.err_accum, evaluations=res.evals)


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

    f_min, _ = _grid_extrema(m)
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

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        x, zeta = float(y[0]), float(y[1])
        u = zeta / eps
        if u > EXP_FLOOR:
            z = 0.0
        elif u < u_cap:
            z = m.z_cap
        else:
            z = math.exp(-u)
        return np.array((m.f(x, z, eps), -m.g(x, z, eps)))

    guard = _window_guard(m)

    if stop.var == "z":
        c = eps * math.log(1.0 / stop.value)
        direction = -stop.direction

        def event(y: np.ndarray) -> float:
            return float(y[1]) - c
    elif stop.var == "zeta":
        c = stop.value
        direction = stop.direction

        def event(y: np.ndarray) -> float:
            return float(y[1]) - c
    else:  # x section
        c = stop.value
        direction = stop.direction

        def event(y: np.ndarray) -> float:
            return float(y[0]) - c

    res = _run_engine(rhs, 0.0, np.array((d.x0, zeta_init)), event, direction,
                      stop.require_x_positive, guard, controls, h0, h_max,
                      dense_dt, "")

    taus = np.array(res.ts)
    ys = np.array(res.ys)
    events = tuple(
        Event(index=i, t=tv / eps, tau=tv, x=float(yv[0]), state=float(yv[1]),
              section=stop)
        for i, tv, yv in res.events
    )
    return Trajectory(chart="zeta", eps=eps, t=taus / eps, tau=taus,
                      x=ys[:, 0], state=ys[:, 1],
                      event_flags=np.array(res.flags, dtype=bool),
                      events=events, n_steps=res.n_steps,
                      n_rejected=res.n_rejected,
                      error_estimate=res.err_accum, evaluations=res.evals)


def min_z_exponent(traj: Trajectory, eps: float) -> float:
    """Largest zeta along a logarithmic-chart trajectory.

    Equals eps * log(1 / min z).  The discrete maximum is sharpened by
    the peak of the quadratic through the three samples around it; a
    maximum at either end (monotone run) is returned as-is.
    """
    if traj.chart != "zeta":
        raise PreconditionError("min_z_exponent needs a zeta-chart trajectory")
    if eps != traj.eps:
        raise PreconditionError(
            f"eps={eps} does not match the trajectory's eps={traj.eps}"
        )
    n = len(traj.state)
    if n < 3:
        raise PreconditionError(
            f"need at least 3 samples to locate the maximum, got {n}"
        )
    i = int(np.argmax(traj.state))
    if i == 0 or i == n - 1:
        return float(traj.state[i])
    t0, t1, t2 = (float(traj.tau[j]) for j in (i - 1, i, i + 1))
    v0, v1, v2 = (float(traj.state[j]) for j in (i - 1, i, i + 1))
    d1 = (v1 - v0) / (t1 - t0)
    d2 = (v2 - v1) / (t2 - t1)
    curv = (d2 - d1) / (t2 - t0)
    if curv >= 0.0:
        return v1
    t_peak = 0.5 * (t0 + t1) - d1 / (2.0 * curv)
    if not (t0 <= t_peak <= t2):
        return v1
    return float(v0 + d1 * (t_peak - t0) + curv * (t_peak - t0) * (t_peak - t1))
