"""Entry-exit map of the limiting slow drift.

The exit point x1 paired with an entry point x0 < 0 is the unique
positive root of

    F(s) = integral of g(x,0,0)/f(x,0,0) over [x0, s],

the delay exponent zeta0 is the inflow accumulated left of the
turning point, and tau1 is the slow travel time from x0 to x1.  The
module also samples the slow-manifold coordinate curves
zeta_minus/tau_minus (carried from the entry side) and
zeta_plus/tau_plus (carried back from a candidate exit point).
"""

from __future__ import annotations

from typing import NamedTuple

from . import numerics
from .errors import DelayLabError, NoExitInWindowError, PreconditionError
from .model import Model


class EntryExitSolution(NamedTuple):
    x0: float
    x1: float
    zeta0: float
    tau1: float
    dx1_dx0: float
    residual: float      # F(x1) after root finding
    evaluations: int     # total integrand evaluations spent


def _slow_ratio(m: Model):
    def h(x: float) -> float:
        return m.g(x, 0.0, 0.0) / m.f(x, 0.0, 0.0)
    return h


def _inv_f(m: Model):
    def h(x: float) -> float:
        return 1.0 / m.f(x, 0.0, 0.0)
    return h


def solve_exit(m: Model, x0: float) -> EntryExitSolution:
    """Solve the entry-exit relation for the exit point paired with x0.

    The root bracket starts at the turning point and expands
    geometrically toward the right window edge; if the accumulated
    integral is still negative at x_max the exit lies outside the
    window and ``NoExitInWindowError`` is raised.
    """
    x_min, x_max = m.window
    if not (x_min < x0 < 0.0):
        raise PreconditionError(
            f"x0 must lie in ({x_min}, 0), got {x0}"
        )

    ratio = _slow_ratio(m)
    q0 = numerics.integrate(ratio, x0, 0.0)
    evals = q0.evaluations
    zeta0 = -q0.value
    if not (zeta0 > 0.0):
        raise DelayLabError(
            f"accumulated inflow is not positive (zeta0={zeta0:.6g}); "
            "the sign hypotheses fail on this window"
        )

    def F(s: float) -> float:
        nonlocal evals
        q = numerics.integrate(ratio, 0.0, s)
        evals += q.evaluations
        return q.value - zeta0

    lo = 0.0
    hi = x_max / 256.0
    while True:
        f_hi = F(hi)
        if f_hi >= 0.0:
            break
        if hi >= x_max:
            raise NoExitInWindowError(
                f"no exit point in (0, {x_max:.17g}]: the outflow integral is "
                f"still short by {-f_hi:.6g} at the window edge"
            )
        lo = hi
        hi = min(2.0 * hi, x_max)

    if f_hi == 0.0:
        x1 = hi
    else:
        x1 = numerics.find_root(F, lo, hi)
    residual = F(x1)

    q1 = numerics.integrate(_inv_f(m), x0, x1)
    evals += q1.evaluations
    tau1 = q1.value

    g1 = m.g(x1, 0.0, 0.0)
    if not (g1 > 0.0):
        raise DelayLabError(
            f"exit point x1={x1:.17g} does not lie past the turning point "
            f"(g(x1,0,0)={g1:.6g})"
        )
    dx1_dx0 = ratio(x0) / (g1 / m.f(x1, 0.0, 0.0))

    return EntryExitSolution(x0=float(x0), x1=float(x1), zeta0=float(zeta0),
                             tau1=float(tau1), dx1_dx0=float(dx1_dx0),
                             residual=float(residual), evaluations=evals)


class SlowCurves(NamedTuple):
    """Coordinate curves of the limiting slow flow sampled on a grid."""

    x: list[float]
    zeta_minus: list[float]
    tau_minus: list[float]
    zeta_plus: list[float]
    tau_plus: list[float]


def slow_curves(m: Model, x0: float, x1_hat: float, tau1: float,
                n: int = 512) -> SlowCurves:
    """Sample zeta/tau curves on a uniform grid from x0 to x1_hat.

    Panel-wise cumulative quadrature keeps the samples additive; the
    plus curves are carried back from (x1_hat, tau1).
    """
    if n < 2:
        raise PreconditionError(f"n must be at least 2, got {n}")
    x_min, x_max = m.window
    if not (x_min <= x0 < 0.0 < x1_hat <= x_max):
        raise PreconditionError(
            f"need x_min <= x0 < 0 < x1_hat <= x_max, got x0={x0}, x1_hat={x1_hat}"
        )
    xs = numerics.linspace(x0, x1_hat, n)
    G = numerics.cumulative(_slow_ratio(m), xs)
    T = numerics.cumulative(_inv_f(m), xs)
    g_end, t_end = G[-1], T[-1]
    return SlowCurves(x=xs, zeta_minus=[-g for g in G], tau_minus=T,
                      zeta_plus=[g_end - g for g in G],
                      tau_plus=[tau1 - (t_end - t) for t in T])
