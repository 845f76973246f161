"""Finite-eps experiments against the eps = 0 predictions.

``run_sweep`` integrates one delayed-loss cycle per eps in the
logarithmic chart, measures the delay exponent, the exit point, the
exit slow time, the exact planar Hausdorff distance to the
three-segment singular cycle and a finite-difference probe of
d(exit)/d(entry), then fits empirical convergence rates against the
eps = 0 reference values.  The eps values run one after another.

``manifold_closeness`` measures how far a finite-eps trajectory sits
above the attracting slow profile in the logarithmic chart.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import replace
from typing import NamedTuple, Sequence

from .entryexit import EntryExitSolution, _slow_ratio, solve_exit
from .errors import DelayLabError, PreconditionError
from .geometry import cycle_distance
from .integrate import Controls, Section, integrate_zeta, min_z_exponent
from .model import InitialData, Model
from .numerics import cumulative, linspace

#: quantities measured per eps and their eps = 0 reference attribute
_QUANTITIES = (
    ("minz_exponent", "zeta0"),
    ("exit_x", "x1"),
    ("tau_exit", "tau1"),
    ("d_exit_dx0", "dx1_dx0"),
)


class SweepRecord(NamedTuple):
    """Measurements for a single eps (wall time is informational only)."""

    eps: float
    minz_exponent: float
    exit_x: float
    tau_exit: float
    hausdorff: float
    d_exit_dx0: float
    wall_time_s: float


class SweepFailure(NamedTuple):
    eps: float
    error: str


class SweepReport(NamedTuple):
    model_name: str
    x0: float
    z0: float
    eps: tuple[float, ...]
    records: tuple[SweepRecord, ...]
    failures: tuple[SweepFailure, ...]
    reference: EntryExitSolution
    rates: dict[str, float]
    richardson_minz: float | None

    def errors_against_reference(self) -> dict[str, list[tuple[float, float]]]:
        """Per quantity, the (eps, |measured - reference|) pairs."""
        return _errors(self.records, self.reference)


def _errors(records: Sequence[SweepRecord], sol: EntryExitSolution
            ) -> dict[str, list[tuple[float, float]]]:
    return {quantity: [(r.eps, abs(getattr(r, quantity) - getattr(sol, ref)))
                       for r in records]
            for quantity, ref in _QUANTITIES}


def run_sweep(m: Model, x0: float, z0: float, eps_list: list[float],
              controls: Controls | None = None,
              probe_step: float | None = None) -> SweepReport:
    """Measure one cycle per eps and fit convergence rates.

    ``eps_list`` must be positive and strictly descending.  A failure
    at one eps is recorded and the sweep continues; only an all-eps
    failure raises.  The Hausdorff distance of each trajectory to the
    singular cycle through (x0, z0) and (x1, z0) is exact
    (``cycle_distance``); the cycle is never sampled.
    """
    if not eps_list:
        raise PreconditionError("eps list must be nonempty")
    for e in eps_list:
        if not (math.isfinite(e) and e > 0.0):
            raise PreconditionError(f"every eps must be positive and finite, got {e}")
    for a, b in zip(eps_list, eps_list[1:]):
        if not (a > b):
            raise PreconditionError(
                f"eps values must be strictly descending, got {a} before {b}"
            )
    if controls is None:
        controls = Controls()

    sol = solve_exit(m, x0)
    stop = Section(var="z", value=z0, direction=+1, require_x_positive=True)
    h_probe = probe_step if probe_step is not None else 1e-4 * abs(x0)
    if not (0.0 < h_probe < abs(x0)):
        raise PreconditionError(
            f"probe step must lie in (0, |x0|), got {h_probe}"
        )

    def one(eps: float) -> SweepRecord:
        t_begin = time.perf_counter()
        traj = integrate_zeta(m, InitialData(x0=x0, z0=z0, eps=eps),
                              stop, controls)
        hd = cycle_distance(traj.xz_points(), sol.x0, sol.x1, z0)
        probe = _central(m, x0, z0, eps, h_probe, controls)
        return SweepRecord(eps=eps, minz_exponent=min_z_exponent(traj),
                           exit_x=traj.x[-1], tau_exit=traj.tau[-1],
                           hausdorff=hd, d_exit_dx0=probe,
                           wall_time_s=time.perf_counter() - t_begin)

    records: list[SweepRecord] = []
    failures: list[SweepFailure] = []
    for eps in eps_list:
        try:
            records.append(one(eps))
        except DelayLabError as exc:
            failures.append(SweepFailure(
                eps=eps, error=f"{type(exc).__name__}: {exc}"))
    if not records:
        detail = "; ".join(f"eps={f.eps:g}: {f.error}" for f in failures)
        raise DelayLabError(f"every eps in the sweep failed ({detail})")

    rates: dict[str, float] = {}
    for quantity, pts in _errors(records, sol).items():
        pts = [(e, err) for e, err in pts if err > 0.0]
        if len(pts) >= 2:
            rates[quantity] = _slope([math.log(e) for e, _ in pts],
                                     [math.log(err) for _, err in pts])

    richardson = None
    if len(records) >= 2:
        e_large, e_small = records[-2].eps, records[-1].eps
        if abs(e_large - 2.0 * e_small) <= 1e-9 * e_large:
            richardson = (2.0 * records[-1].minz_exponent
                          - records[-2].minz_exponent)

    return SweepReport(model_name=m.name, x0=x0, z0=z0,
                       eps=tuple(eps_list), records=tuple(records),
                       failures=tuple(failures), reference=sol, rates=rates,
                       richardson_minz=richardson)


def _exit_x(m: Model, x_start: float, z0: float, eps: float,
            controls: Controls) -> float:
    """Exit x of the cycle from (x_start, z0): the first upward crossing
    of z = z0 right of the turning point.  Only the exit is read, so the
    run keeps no dense samples."""
    traj = integrate_zeta(
        m, InitialData(x0=x_start, z0=z0, eps=eps),
        Section(var="z", value=z0, direction=+1, require_x_positive=True),
        replace(controls, sample_dt=1e9))
    return traj.x[-1]


def _central(m: Model, x0: float, z0: float, eps: float, h: float,
             controls: Controls) -> float:
    """Central difference of the exit x over the entry x0 at step h."""
    return (_exit_x(m, x0 + h, z0, eps, controls)
            - _exit_x(m, x0 - h, z0, eps, controls)) / (2.0 * h)


def _slope(u: list[float], v: list[float]) -> float:
    """Least-squares slope of the line through the points (u_i, v_i)."""
    u_mean = sum(u) / len(u)
    v_mean = sum(v) / len(v)
    du = [a - u_mean for a in u]
    return (sum(a * (b - v_mean) for a, b in zip(du, v))
            / sum(a * a for a in du))


class ProbeResult(NamedTuple):
    """Central-difference estimate of d(exit_x)/d(x0) at finite eps.

    ``uncertainty`` is the change of the estimate when the step is
    doubled — a plain numerical-differentiation error gauge.
    """

    value: float
    uncertainty: float
    step: float
    eps: float


def derivative_probe(m: Model, x0: float, z0: float, eps: float,
                     h: float | None = None,
                     controls: Controls | None = None) -> ProbeResult:
    """Finite-difference probe of the return map's x0-derivative.

    Measures exit_x at x0 +- h and x0 +- 2h through full cycles and
    returns the central difference at step h together with its
    step-doubling uncertainty.  The default step is 1e-4 * |x0|.
    """
    if controls is None:
        controls = Controls()
    if h is None:
        h = 1e-4 * abs(x0)
    if not (0.0 < 2.0 * h < abs(x0)):
        raise PreconditionError(
            f"probe step must satisfy 0 < 2h < |x0|, got h={h}"
        )
    p_h = _central(m, x0, z0, eps, h, controls)
    p_2h = _central(m, x0, z0, eps, 2.0 * h, controls)
    return ProbeResult(value=p_h, uncertainty=abs(p_h - p_2h), step=h,
                       eps=eps)


class GapProfile(NamedTuple):
    """Gap |zeta_traj - zeta_minus| between a finite-eps trajectory and
    the attracting slow profile, sampled over x in [x0+delta, x1-delta]."""

    eps: float
    delta: float
    x: list[float]
    gap: list[float]
    sup: float


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """Piecewise-linear interpolant of (xp, fp) at x for increasing xp.

    fp[j] at a node, slope * (x - xp[j]) + fp[j] inside a panel, and
    fp's end values outside [xp[0], xp[-1]].
    """
    if x >= xp[-1]:
        return fp[-1]
    j = bisect.bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]


def manifold_closeness(m: Model, x0: float, z0: float, eps: float,
                       delta: float, n: int = 512,
                       controls: Controls | None = None) -> GapProfile:
    """Measure |zeta_traj(x) - zeta_minus(x)| on [x0+delta, x1-delta].

    The trajectory starts at (x0, z0); the margin delta keeps the
    comparison away from the fibers at both ends, and must stay below
    a quarter of the room the patch margin leaves at either end.  The
    gap is of size eps * log(1/z0) plus an O(eps) drift.
    """
    if n < 2:
        raise PreconditionError(f"need n >= 2 sample points, got {n}")
    if controls is None:
        controls = Controls()
    sol = solve_exit(m, x0)
    margin = min(-x0, sol.x1) / 8.0   # default patch half-width
    delta_cap = min((-x0 - margin) / 4.0, (sol.x1 - margin) / 4.0)
    if not (0.0 < delta < delta_cap):
        raise PreconditionError(
            f"delta must lie in (0, {delta_cap:.6g}), got {delta}"
        )
    x_stop = sol.x1 - delta

    stop = Section(var="x", value=x_stop, direction=+1)
    traj = integrate_zeta(m, InitialData(x0=x0, z0=z0, eps=eps), stop,
                          controls)

    xs = linspace(x0 + delta, x_stop, n)
    # zeta_minus anchored at x0, accumulated panel by panel
    inflow = cumulative(_slow_ratio(m), [x0, *xs])
    gap = [abs(_interp(x, traj.x, traj.state) + g)
           for x, g in zip(xs, inflow[1:])]
    return GapProfile(eps=eps, delta=delta, x=xs, gap=gap, sup=max(gap))
