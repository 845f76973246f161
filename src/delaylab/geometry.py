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

from .entryexit import EntryExitSolution, slow_curves
from .errors import PreconditionError
from .model import Model
from .numerics import integrate


class SingularConfiguration(NamedTuple):
    """The concatenated candidate cycle at eps = 0.

    Each piece is an (n, 4) array with columns x, z, zeta, tau.
    """

    x0: float
    x1: float
    z0: float
    tau1: float
    gamma1: np.ndarray
    gamma0: np.ndarray
    gamma2: np.ndarray

    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    import numpy as np

    if z0 <= 0.0:
        raise PreconditionError(f"z0 must be positive, got {z0}")
    if z0 > m.z_cap:
        raise PreconditionError(f"z0={z0} exceeds z_cap={m.z_cap}")
    if n < 2:
        raise PreconditionError(f"need at least 2 samples per piece, got {n}")

    x0, x1, tau1 = sol.x0, sol.x1, sol.tau1

    z_down = np.linspace(z0, 0.0, n)
    gamma1 = np.column_stack([
        np.full(n, x0), z_down, np.zeros(n), np.zeros(n),
    ])

    curves = slow_curves(m, x0, x1, n=n, tau1=tau1)
    gamma0 = np.column_stack([
        curves.x, np.zeros(n), curves.zeta_minus, curves.tau_minus,
    ])

    z_up = np.linspace(0.0, z0, n)
    gamma2 = np.column_stack([
        np.full(n, x1), z_up, np.zeros(n), np.full(n, tau1),
    ])

    return SingularConfiguration(x0=x0, x1=x1, z0=z0, tau1=tau1,
                                 gamma1=gamma1, gamma0=gamma0, gamma2=gamma2)


class ManifoldPatch(NamedTuple):
    """A ruled surface in (x, zeta, tau).

    ``points[i, j]`` is the (x, zeta, tau) sample at base parameter
    ``param1[i]`` (position along the slow flow) and ruling parameter
    ``param2[j]``; ``tangent1`` holds the flow direction (f, -g, 1)
    and ``tangent2`` the ruling direction at each sample.
    """

    name: str
    param1: np.ndarray
    param2: np.ndarray
    points: np.ndarray    # (n1, n2, 3)
    tangent1: np.ndarray  # (n1, n2, 3)
    tangent2: np.ndarray  # (n1, n2, 3)

    def center_ruling(self) -> np.ndarray:
        """The (n1, 3) curve at the middle ruling parameter."""
        return self.points[:, self.points.shape[1] // 2, :]

    def slice_at(self, j: int) -> np.ndarray:
        """The (n1, 3) curve at ruling index j."""
        return self.points[:, j, :]


def _cumulative_on(m: Model, grid: np.ndarray):
    """Cumulative integrals of g/f and 1/f over consecutive grid panels.

    Returns (G, T, lookup) where G[i] = integral of g/f from grid[0]
    to grid[i] (and T likewise for 1/f) and lookup(x) fetches the
    value at a grid point by exact match.
    """
    import numpy as np

    def ratio(x: float) -> float:
        return m.g(x, 0.0, 0.0) / m.f(x, 0.0, 0.0)

    def inv_f(x: float) -> float:
        return 1.0 / m.f(x, 0.0, 0.0)

    big_g = np.zeros(len(grid))
    big_t = np.zeros(len(grid))
    for i in range(1, len(grid)):
        a, b = float(grid[i - 1]), float(grid[i])
        big_g[i] = big_g[i - 1] + integrate(ratio, a, b).value
        big_t[i] = big_t[i - 1] + integrate(inv_f, a, b).value

    def lookup(arr: np.ndarray, x: float) -> float:
        i = int(np.searchsorted(grid, x))
        if i >= len(grid) or grid[i] != x:
            raise PreconditionError(f"x={x!r} is not a grid point")
        return float(arr[i])

    return big_g, big_t, lookup


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
    import numpy as np

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

    xs = np.linspace(x0, x1, n)
    x_exit = np.linspace(x1 - delta, x1 + delta, n2)
    x_exit[n2 // 2] = x1

    union = np.unique(np.concatenate([xs, x_exit]))
    big_g, big_t, look = _cumulative_on(m, union)
    g_xs = np.array([look(big_g, float(x)) for x in xs])
    t_xs = np.array([look(big_t, float(x)) for x in xs])
    g0, t0 = look(big_g, x0), look(big_t, x0)
    tau1 = look(big_t, x1) - t0

    flow = np.empty((n, 3))
    for i, xv in enumerate(xs):
        flow[i] = (m.f(float(xv), 0.0, 0.0), -m.g(float(xv), 0.0, 0.0), 1.0)

    # --- attracting patch: time-shifted copies of the entry profile --
    shifts = np.linspace(-delta, delta, n2)
    shifts[n2 // 2] = 0.0
    zeta_l = -(g_xs - g0)
    tau_l = t_xs - t0
    pts_l = np.empty((n, n2, 3))
    tan1_l = np.empty_like(pts_l)
    tan2_l = np.empty_like(pts_l)
    for j, s in enumerate(shifts):
        pts_l[:, j, 0] = xs
        pts_l[:, j, 1] = zeta_l
        pts_l[:, j, 2] = tau_l + s
        tan1_l[:, j] = flow
        tan2_l[:, j] = (0.0, 0.0, 1.0)

    left = ManifoldPatch(name="attracting", param1=xs.copy(),
                         param2=shifts, points=pts_l,
                         tangent1=tan1_l, tangent2=tan2_l)

    # --- repelling patch: backward profiles from shifted exit points --
    g1 = m.g(x1, 0.0, 0.0)
    pts_r = np.empty((n, n2, 3))
    tan1_r = np.empty_like(pts_r)
    tan2_r = np.empty_like(pts_r)
    for j, xe in enumerate(x_exit):
        ge = look(big_g, float(xe))
        te = look(big_t, float(xe))
        pts_r[:, j, 0] = xs
        pts_r[:, j, 1] = ge - g_xs
        pts_r[:, j, 2] = tau1 - (te - t_xs)
        tan1_r[:, j] = flow
        tan2_r[:, j] = (0.0, g1, -1.0)

    right = ManifoldPatch(name="repelling", param1=xs.copy(),
                          param2=x_exit.copy(), points=pts_r,
                          tangent1=tan1_r, tangent2=tan2_r)
    return left, right


def transversality_det(m: Model, x_hat: float, x1: float) -> float:
    """Determinant certifying transversal intersection at base point x_hat.

    Rows: the flow direction (f, -g, 1) at x_hat, the attracting
    ruling direction (0, 0, 1), and the repelling ruling direction
    (0, g(x1), -1).  Expanding along the first column gives the closed
    form -f(x_hat) * g(x1): negative wherever f > 0 and g(x1) > 0, so
    a strictly negative value certifies the crossing.
    """
    import numpy as np

    f_hat = m.f(x_hat, 0.0, 0.0)
    g_hat = m.g(x_hat, 0.0, 0.0)
    g1 = m.g(x1, 0.0, 0.0)
    rows = np.array([
        (f_hat, -g_hat, 1.0),
        (0.0, 0.0, 1.0),
        (0.0, g1, -1.0),
    ])
    return float(np.linalg.det(rows))


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two planar point sets.

    Brute force in chunks; both inputs are (n, 2) arrays.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or b.ndim != 2 or b.shape[1] != 2:
        raise PreconditionError("point sets must be (n, 2) arrays")
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("point sets must be nonempty")

    def directed(p: np.ndarray, q: np.ndarray) -> float:
        worst = 0.0
        for i in range(0, len(p), 256):
            pi = p[i:i + 256]
            best = np.full(len(pi), math.inf)
            for j in range(0, len(q), 2048):
                qj = q[j:j + 2048]
                d2 = ((pi[:, None, :] - qj[None, :, :]) ** 2).sum(axis=2)
                best = np.minimum(best, d2.min(axis=1))
            worst = max(worst, float(best.max()))
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
    try:
        pairs = [(float(x), float(z)) for x, z in points]
    except (TypeError, ValueError):
        pairs = []
    if not pairs:
        raise PreconditionError(
            "points must be a nonempty sequence of (x, z) pairs")
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
