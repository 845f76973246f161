"""Scalar quadrature and root finding used by the slow-drift computations.

``integrate`` is a globally adaptive quadrature built on a 15-point
Kronrod rule with its embedded 7-point Gauss companion: the Kronrod
value is the estimate, |K15 - G7| the per-interval error, and the
interval with the largest error is bisected until the accumulated
estimate meets the requested tolerance.  ``find_root`` is the classic
Brent bracketing scheme: inverse-quadratic/secant steps with a
bisection fallback, so convergence is superlinear but termination is
guaranteed.  ``cumulative`` chains ``integrate`` panel by panel into
the running integrals the slow-curve and geometry samplers need.
``linspace`` is the evenly spaced grid they and the sign checks sample
on.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Sequence

from .errors import PreconditionError, QuadratureError, RootFindError

_EPS = 2.220446049250313e-16

# 15-point Kronrod abscissae on [-1, 1] (symmetric; center last) and
# weights, with the embedded 7-point Gauss weights.  The odd-indexed
# abscissae are the Gauss-7 nodes.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.022935322010529225, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472783,
)
_WG = (
    0.12948496616886969, 0.2797053914892767, 0.3818300505051189,
    0.41795918367346939,
)


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced points from lo to hi inclusive.

    The same floats as ``numpy.linspace(lo, hi, n)`` for a nonzero
    step: point i is i * ((hi - lo) / (n - 1)) + lo and the last is hi.
    """
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


class QuadResult(NamedTuple):
    value: float
    abs_error_estimate: float
    evaluations: int


def _panel(h: Callable[[float], float], a: float, b: float):
    """One Kronrod/Gauss panel on [a, b]: (value, raw error, resabs)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def sample(x: float) -> float:
        v = h(x)
        if not math.isfinite(v):
            raise QuadratureError(
                f"integrand returned non-finite value at x={x:.17g}"
            )
        return v

    fc = sample(center)
    k15 = _WGK[7] * fc
    g7 = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    for j in range(7):
        dx = half * _XGK[j]
        f1 = sample(center - dx)
        f2 = sample(center + dx)
        k15 += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            g7 += _WG[(j - 1) // 2] * (f1 + f2)
    value = half * k15
    err = abs(half * (k15 - g7))
    return value, err, abs(half) * resabs


def integrate(h: Callable[[float], float], a: float, b: float,
              rel_tol: float = 1e-12, abs_tol: float = 1e-14,
              max_intervals: int = 2 ** 14) -> QuadResult:
    """Adaptive quadrature of ``h`` over [a, b].

    Orientation is handled by sign flip, so ``integrate(h, b, a)`` is
    exactly the negation of ``integrate(h, a, b)``.  On success the
    reported error estimate meets max(abs_tol, rel_tol*|value|) up to
    a roundoff floor proportional to the integral of |h|.  Failure to
    converge within ``max_intervals`` subintervals raises
    ``QuadratureError`` naming the worst subinterval.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError("integration bounds must be finite")
    if rel_tol < 0.0 or abs_tol < 0.0 or (rel_tol == 0.0 and abs_tol == 0.0):
        raise PreconditionError("tolerances must be nonnegative, not both zero")
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    if a > b:
        r = integrate(h, b, a, rel_tol, abs_tol, max_intervals)
        return QuadResult(-r.value, r.abs_error_estimate, r.evaluations)

    value, err, resabs = _panel(h, a, b)
    evals = 15
    total_value = value
    total_err = err
    total_resabs = resabs
    heap = [(-err, 0, a, b, value, resabs)]
    seq = 1

    while True:
        tol = max(abs_tol, rel_tol * abs(total_value), 100.0 * _EPS * total_resabs)
        if total_err <= tol:
            break
        if len(heap) >= max_intervals:
            werr, _, wa, wb, _, _ = heap[0]
            raise QuadratureError(
                f"quadrature did not converge after {len(heap)} subintervals; "
                f"worst subinterval [{wa:.17g}, {wb:.17g}] with error estimate "
                f"{-werr:.6g}"
            )
        neg_err, _, ia, ib, ival, ires = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if mid == ia or mid == ib:
            raise QuadratureError(
                f"subinterval [{ia:.17g}, {ib:.17g}] cannot be split further "
                f"(error estimate {-neg_err:.6g})"
            )
        v1, e1, r1 = _panel(h, ia, mid)
        v2, e2, r2 = _panel(h, mid, ib)
        evals += 30
        total_value += (v1 + v2) - ival
        total_err += (e1 + e2) - (-neg_err)
        total_resabs += (r1 + r2) - ires
        heapq.heappush(heap, (-e1, seq, ia, mid, v1, r1))
        heapq.heappush(heap, (-e2, seq + 1, mid, ib, v2, r2))
        seq += 2

    # Re-sum panel values for the final answer; incremental updates are
    # only used to steer the subdivision.
    total_value = math.fsum(item[4] for item in heap)
    estimate = max(total_err, 25.0 * _EPS * total_resabs)
    return QuadResult(total_value, estimate, evals)


def cumulative(h: Callable[[float], float], xs: Sequence[float]) -> list[float]:
    """Running integrals of ``h`` from xs[0] to each xs[i].

    Entry 0 is 0.0 and entry i adds ``integrate(h, xs[i-1], xs[i])`` to
    entry i - 1, so the samples are additive panel by panel.
    """
    total = 0.0
    out = [total]
    for a, b in zip(xs, xs[1:]):
        total += integrate(h, a, b).value
        out.append(total)
    return out


def find_root(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-12, max_iter: int = 200) -> float:
    """Brent's method on a sign-changing bracket [a, b].

    Inverse quadratic interpolation and secant steps give superlinear
    local convergence; whenever a candidate step misbehaves the method
    falls back to bisection, so the bracket shrinks on every
    iteration.  Raises ``RootFindError`` if f(a) and f(b) have the
    same sign or the iteration budget is spent.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError("bracket endpoints must be finite")
    if tol <= 0.0:
        raise PreconditionError(f"tol must be positive, got {tol}")
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise RootFindError(
            f"no sign change on bracket: F({a:.17g})={fa:.6g}, "
            f"F({b:.17g})={fb:.6g}"
        )

    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant step
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = f(b)
    raise RootFindError(f"no convergence within {max_iter} iterations")
