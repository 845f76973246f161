"""Singular-limit geometry: the candidate cycle, invariant-manifold
patches along the slow segments, and the transversality certificate.

Everything here lives at eps = 0.  Points carry the coordinates
(x, z, zeta, tau): planar position, delay exponent and slow time.
The candidate cycle is the concatenation

    gamma1: the entry fiber x = x0, z from z0 down to 0
    gamma0: the slow segment z = 0, x from x0 to x1, carrying the
            delay-exponent profile zeta(x) and slow time tau(x)
    gamma2: the exit fiber x = x1, z from 0 back up to z0

Manifold patches are ruled surfaces in (x, zeta, tau) over the
attracting (left-anchored) and repelling (right-anchored) ends of the
slow segment; their transversal intersection along the slow segment
is certified by a 3x3 determinant of tangent vectors.

In the (x, z) plane the cycle is exactly three line segments, so
``cycle_distance`` gives the Hausdorff distance from a point set to it
in closed form, without sampling the cycle.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

from .entryexit import EntryExitSolution, _inv_f, _slow_ratio, slow_curves
from .errors import PreconditionError
from .model import Model
from .numerics import cumulative, linspace

#: a sampled curve: one tuple of coordinates per sample
Rows = tuple[tuple[float, ...], ...]


class SingularConfiguration(NamedTuple):
    """The concatenated candidate cycle at eps = 0.

    Each piece holds n (x, z, zeta, tau) rows.
    """

    x0: float
    x1: float
    z0: float
    tau1: float
    gamma1: Rows
    gamma0: Rows
    gamma2: Rows

    def pieces(self) -> tuple[Rows, Rows, Rows]:
        return (self.gamma1, self.gamma0, self.gamma2)


def build_configuration(m: Model, sol: EntryExitSolution, z0: float,
                        n: int = 513) -> SingularConfiguration:
    """Sample the candidate cycle through (x0, z0).

    The fibers are sampled uniformly in z; the slow segment carries the
    delay-exponent profile zeta(x) (zero at both ends by the exit
    condition) and the slow-time profile tau(x) from 0 to tau1.  The
    fibers are instantaneous in slow time, so the entry fiber sits at
    tau = 0 and the exit fiber at tau = tau1; both sit at zeta = 0
    because the delay exponent vanishes for any fixed positive z.
    """
    if z0 <= 0.0:
        raise PreconditionError(f"z0 must be positive, got {z0}")
    if z0 > m.z_cap:
        raise PreconditionError(f"z0={z0} exceeds z_cap={m.z_cap}")
    if n < 2:
        raise PreconditionError(f"need at least 2 samples per piece, got {n}")

    x0, x1, tau1 = sol.x0, sol.x1, sol.tau1
    curves = slow_curves(m, x0, x1, tau1, n=n)
    gamma1 = tuple((x0, z, 0.0, 0.0) for z in linspace(z0, 0.0, n))
    gamma0 = tuple((x, 0.0, zeta, tau) for x, zeta, tau
                   in zip(curves.x, curves.zeta_minus, curves.tau_minus))
    gamma2 = tuple((x1, z, 0.0, tau1) for z in linspace(0.0, z0, n))
    return SingularConfiguration(x0=x0, x1=x1, z0=z0, tau1=tau1,
                                 gamma1=gamma1, gamma0=gamma0, gamma2=gamma2)


class ManifoldPatch(NamedTuple):
    """A ruled surface in (x, zeta, tau).

    ``points[i][j]`` is the (x, zeta, tau) sample at base parameter
    ``param1[i]`` (position along the slow flow) and ruling parameter
    ``param2[j]``.
    """

    name: str
    param1: tuple[float, ...]
    param2: tuple[float, ...]
    points: tuple[Rows, ...]


def build_manifolds(m: Model, x0: float, x1: float, delta: float,
                    n: int = 65, n2: int | None = None
                    ) -> tuple[ManifoldPatch, ManifoldPatch]:
    """Attracting and repelling patches over the slow segment.

    Both patches are sampled over x in [x0, x1].  The attracting one
    is the slow-flow cylinder anchored at the entry point: its rulings
    shift the entry profile in slow time by tau_hat0 in [-delta,
    delta] (ruling tangent (0, 0, 1)).  The repelling one collects
    backward profiles anchored at shifted exit points x1_hat in
    [x1 - delta, x1 + delta], all arriving at slow time tau1; its
    ruling tangent is proportional to (0, g(x1), -1).  Both contain
    the slow segment of the candidate cycle on their center ruling,
    and the rulings together with the flow direction span all of
    (x, zeta, tau) exactly when ``transversality_det`` is nonzero.

    ``delta`` must stay below half the smaller of |x0| and x1, and
    x1 + delta must stay inside the window.
    """
    x_min, x_max = m.window
    if not (x_min < x0 < 0.0 < x1 < x_max):
        raise PreconditionError(
            f"need x_min < x0 < 0 < x1 < x_max, got x0={x0}, x1={x1}, "
            f"window=({x_min}, {x_max})"
        )
    bound = 0.5 * min(-x0, x1)
    if not (0.0 < delta < bound):
        raise PreconditionError(
            f"delta must lie in (0, {bound:.6g}), got {delta}"
        )
    if x1 + delta > x_max:
        raise PreconditionError(
            f"x1 + delta = {x1 + delta:.6g} leaves the window "
            f"[{x_min}, {x_max}]"
        )
    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    if n2 is None:
        n2 = n if n % 2 == 1 else n + 1
    if n2 < 3 or n2 % 2 == 0:
        raise PreconditionError(f"n2 must be odd and >= 3, got {n2}")

    xs = linspace(x0, x1, n)
    x_exit = linspace(x1 - delta, x1 + delta, n2)
    x_exit[n2 // 2] = x1

    # cumulative g/f and 1/f over the merged grid; x0 is its first
    # point, so both vanish there
    union = sorted(set(xs + x_exit))
    big_g = cumulative(_slow_ratio(m), union)
    big_t = cumulative(_inv_f(m), union)
    index = {x: i for i, x in enumerate(union)}
    g_xs = [big_g[index[x]] for x in xs]
    t_xs = [big_t[index[x]] for x in xs]
    tau1 = big_t[index[x1]]

    # --- attracting patch: time-shifted copies of the entry profile --
    shifts = linspace(-delta, delta, n2)
    shifts[n2 // 2] = 0.0
    left = ManifoldPatch(
        name="attracting", param1=tuple(xs), param2=tuple(shifts),
        points=tuple(tuple((x, -g, t + s) for s in shifts)
                     for x, g, t in zip(xs, g_xs, t_xs)))

    # --- repelling patch: backward profiles from shifted exit points --
    ends = [(big_g[index[xe]], big_t[index[xe]]) for xe in x_exit]
    right = ManifoldPatch(
        name="repelling", param1=tuple(xs), param2=tuple(x_exit),
        points=tuple(tuple((x, ge - g, tau1 - (te - t)) for ge, te in ends)
                     for x, g, t in zip(xs, g_xs, t_xs)))
    return left, right


def transversality_det(m: Model, x_hat: float, x1: float) -> float:
    """Determinant certifying transversal intersection at base point x_hat.

    Rows: the flow direction (f, -g, 1) at x_hat, the attracting
    ruling direction (0, 0, 1), and the repelling ruling direction
    (0, g(x1), -1).  Expanding along the first column gives the closed
    form -f(x_hat) * g(x1): negative wherever f > 0 and g(x1) > 0, so
    a strictly negative value certifies the crossing.
    """
    return -m.f(x_hat, 0.0, 0.0) * m.g(x1, 0.0, 0.0)


def _pairs(points) -> list[tuple[float, float]]:
    """``points`` as a list of float (x, z) pairs; it must be nonempty."""
    try:
        pairs = [(float(x), float(z)) for x, z in points]
    except (TypeError, ValueError):
        pairs = []
    if not pairs:
        raise PreconditionError(
            "points must be a nonempty sequence of (x, z) pairs")
    return pairs


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two planar point sets.

    Both inputs are nonempty sequences of (x, z) pairs, such as (n, 2)
    arrays.  Each nearest-point search walks outward from the query's
    place in the other set sorted by x and stops once dx*dx alone
    reaches the best squared distance, so the result is the brute-force
    value exactly.
    """
    a, b = _pairs(a), _pairs(b)

    def directed(p: list[tuple[float, float]],
                 q: list[tuple[float, float]]) -> float:
        q = sorted(q)
        qx = [x for x, _ in q]
        worst = 0.0
        for px, pz in p:
            best = math.inf
            k = bisect.bisect_left(qx, px)
            for side in (range(k, len(q)), range(k - 1, -1, -1)):
                for i in side:
                    x, z = q[i]
                    dx = px - x
                    d2 = dx * dx
                    if d2 >= best:
                        break
                    dz = pz - z
                    d2 += dz * dz
                    if d2 < best:
                        best = d2
            if best > worst:
                worst = best
        return math.sqrt(worst)

    return max(directed(a, b), directed(b, a))


def _farthest_on_segment(a: list[float], b: list[float],
                         length: float) -> float:
    """max over t in [0, length] of min_p sqrt((t - a_p)^2 + b_p^2).

    ``a`` holds the points' positions along the segment and ``b`` their
    offsets across it.  The squared distance is t^2 plus the lower
    envelope of the lines c_p - 2 a_p t with c_p = a_p^2 + b_p^2, which
    the convex-hull trick builds in decreasing slope order.  t^2 plus
    one line is convex, so the max over each envelope piece sits at
    t = 0, t = length or a breakpoint inside; only those are evaluated,
    each by its direct distance to the point owning the piece.
    """
    c = [p * p + q * q for p, q in zip(a, b)]
    # decreasing slope -2a; among equal slopes the smallest c sorts
    # first, and equal (a, c) keep their input order
    lines = sorted(zip(a, c, range(len(a))))
    hull: list[tuple[float, float, int]] = []
    for line in lines:
        if hull and hull[-1][0] == line[0]:
            continue
        aj, cj, _ = line
        while len(hull) >= 2:
            (ai, ci, _), (ak, ck, _) = hull[-2], hull[-1]
            # k is hidden once line j meets line i no later than k does
            if (cj - ci) * (ak - ai) > (ck - ci) * (aj - ai):
                break
            hull.pop()
        hull.append(line)

    breaks = [(c2 - c1) / (2.0 * (a2 - a1))
              for (a1, c1, _), (a2, c2, _) in zip(hull, hull[1:])]
    bisect_left, hypot = bisect.bisect_left, math.hypot
    far = 0.0
    for t in [0.0, length] + [t for t in breaks if 0.0 < t < length]:
        a_own, _, own = hull[bisect_left(breaks, t)]
        d = hypot(t - a_own, b[own])
        if d > far:
            far = d
    return far


def cycle_distance(points, x0: float, x1: float, z0: float) -> float:
    """Exact symmetric Hausdorff distance from a planar point set to the
    singular cycle in the (x, z) plane.

    The cycle is the union of the three segments {x0} x [0, z0],
    [x0, x1] x {0} and {x1} x [0, z0]; ``points`` is a nonempty
    sequence of (x, z) pairs, such as an (n, 2) array.  Points to
    cycle is the closed-form distance to the nearest segment; cycle to
    points is a lower-envelope sweep along each segment.
    """
    pairs = _pairs(points)
    if not (z0 > 0.0):
        raise PreconditionError(f"z0 must be positive, got {z0}")
    if not (x0 < x1):
        raise PreconditionError(f"need x0 < x1, got x0={x0}, x1={x1}")

    worst = 0.0   # largest squared distance to the nearest segment
    for x, z in pairs:
        dz = z - (0.0 if z < 0.0 else z0 if z > z0 else z)
        dz2 = dz * dz
        d2 = (x - x0) * (x - x0) + dz2
        dx = x - (x0 if x < x0 else x1 if x > x1 else x)
        e2 = dx * dx + z * z
        if e2 < d2:
            d2 = e2
        e2 = (x - x1) * (x - x1) + dz2
        if e2 < d2:
            d2 = e2
        if d2 > worst:
            worst = d2
    xs = [x for x, _ in pairs]
    zs = [z for _, z in pairs]
    dx0 = [x - x0 for x in xs]
    from_cycle = max(_farthest_on_segment(zs, dx0, z0),
                     _farthest_on_segment(dx0, zs, x1 - x0),
                     _farthest_on_segment(zs, [x - x1 for x in xs], z0))
    return max(math.sqrt(worst), from_cycle)
