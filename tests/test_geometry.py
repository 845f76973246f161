"""Candidate cycle, manifold patches, transversality, Hausdorff distance."""

import math
import typing

import numpy as np
import pytest

from delaylab.entryexit import SlowCurves, solve_exit
from delaylab.errors import PreconditionError
from delaylab.experiment import GapProfile
from delaylab.geometry import (ManifoldPatch, SingularConfiguration,
                               build_configuration, build_manifolds,
                               cycle_distance, hausdorff_distance,
                               transversality_det)
from delaylab.integrate import Section, integrate_zeta
from delaylab.model import InitialData, get_model, model_from_expressions


def test_configuration_pieces_linear():
    m = get_model("linear")
    sol = solve_exit(m, -1.0)
    cfg = build_configuration(m, sol, 0.1, n=257)
    g1, g0, g2 = (np.asarray(piece) for piece in cfg.pieces())
    assert g1.shape == g0.shape == g2.shape == (257, 4)

    # entry fiber: frozen x and slow time, z descending to 0
    assert np.all(g1[:, 0] == -1.0)
    assert g1[0, 1] == 0.1 and g1[-1, 1] == 0.0
    assert np.all(g1[:, 2] == 0.0) and np.all(g1[:, 3] == 0.0)

    # slow segment: delay exponent peaks at the turning point, zero at ends
    mid = 128
    assert abs(g0[mid, 0]) <= 1e-12
    assert abs(g0[mid, 2] - 0.5) <= 1e-10
    assert abs(g0[0, 2]) <= 1e-12 and abs(g0[-1, 2]) <= 1e-10
    assert g0[0, 3] == 0.0 and abs(g0[-1, 3] - 2.0) <= 1e-10
    assert np.all(g0[:, 1] == 0.0)

    # exit fiber: frozen at (x1, tau1), z ascending back to z0
    assert np.all(g2[:, 0] == sol.x1)
    assert g2[0, 1] == 0.0 and g2[-1, 1] == 0.1
    assert np.all(g2[:, 3] == sol.tau1)

    # the pieces chain up in the (x, z) plane
    assert np.allclose(g1[-1, :2], g0[0, :2], atol=1e-12)
    assert np.allclose(g0[-1, :2], g2[0, :2], atol=1e-12)


def test_configuration_preconditions():
    m = get_model("linear")
    sol = solve_exit(m, -1.0)
    with pytest.raises(PreconditionError):
        build_configuration(m, sol, 0.0)
    with pytest.raises(PreconditionError):
        build_configuration(m, sol, 1.5)  # above z_cap
    with pytest.raises(PreconditionError):
        build_configuration(m, sol, 0.1, n=1)


def test_manifold_centers_contain_slow_segment():
    for name, x0, delta in (("linear", -1.0, 0.25), ("quadratic", -0.5, 0.1)):
        m = get_model(name)
        sol = solve_exit(m, x0)
        cfg = build_configuration(m, sol, 0.1, n=65)
        left, right = build_manifolds(m, x0, sol.x1, delta, n=65)
        gamma0 = np.asarray(cfg.gamma0)[:, [0, 2, 3]]  # (x, zeta, tau)
        mid = len(left.param2) // 2   # the center ruling
        left_center = np.asarray(left.points)[:, mid, :]
        right_center = np.asarray(right.points)[:, mid, :]
        assert np.max(np.abs(left_center - gamma0)) <= 1e-10
        assert np.max(np.abs(right_center - gamma0)) <= 1e-10
        assert np.max(np.abs(left_center - right_center)) <= 1e-10


def test_manifold_shapes_and_tangents_linear():
    m = get_model("linear")
    sol = solve_exit(m, -1.0)
    left, right = build_manifolds(m, -1.0, sol.x1, 0.25, n=33)
    assert np.asarray(left.points).shape == (33, 33, 3)
    assert np.asarray(right.points).shape == (33, 33, 3)

    for patch in (left, right):
        assert np.all(np.isfinite(patch.points))

    # rulings of the attracting patch are slow-time translates
    points = np.asarray(left.points)
    base = points[:, points.shape[1] // 2, :]
    for j, s in enumerate(left.param2):
        sl = points[:, j, :]
        assert np.max(np.abs(sl[:, :2] - base[:, :2])) == 0.0
        assert np.max(np.abs(sl[:, 2] - (base[:, 2] + s))) <= 1e-15

    # repelling profiles through exit points right of x1 sit higher
    end = np.asarray(right.points)[-1, :, 1]  # zeta at x = x1 across rulings
    assert np.all(np.diff(end) > 0.0)


def test_manifold_preconditions():
    m = get_model("linear")
    sol = solve_exit(m, -1.0)
    with pytest.raises(PreconditionError):
        build_manifolds(m, -1.0, sol.x1, 0.5)   # delta at the bound
    with pytest.raises(PreconditionError):
        build_manifolds(m, -1.0, sol.x1, 0.9)
    with pytest.raises(PreconditionError):
        build_manifolds(m, -1.0, sol.x1, 0.0)
    with pytest.raises(PreconditionError):
        build_manifolds(m, -1.0, sol.x1, 0.25, n=2)
    with pytest.raises(PreconditionError):
        build_manifolds(m, -1.0, sol.x1, 0.25, n=33, n2=4)  # even ruling count
    with pytest.raises(PreconditionError):
        build_manifolds(m, 0.5, sol.x1, 0.1)  # x0 not negative

    tight = model_from_expressions("tight", "1", "x", (-1.5, 1.1))
    sol_t = solve_exit(tight, -1.0)
    with pytest.raises(PreconditionError):
        build_manifolds(tight, -1.0, sol_t.x1, 0.25)  # x1 + delta leaves window


def test_transversality_closed_form():
    rng = np.random.default_rng(2718)
    for name, x0 in (("linear", -1.0), ("scaled", -1.0), ("quadratic", -0.5)):
        m = get_model(name)
        sol = solve_exit(m, x0)
        g1 = m.g(sol.x1, 0.0, 0.0)
        f_min = min(m.f(float(x), 0.0, 0.0)
                    for x in np.linspace(x0, sol.x1, 65))
        for _ in range(20):
            x_hat = float(rng.uniform(x0, sol.x1))
            det = transversality_det(m, x_hat, sol.x1)
            closed = -m.f(x_hat, 0.0, 0.0) * g1
            assert abs(det - closed) <= 1e-12
            assert det < 0.0
            assert abs(det) >= f_min * g1 - 1e-12


def test_transversality_reference_values():
    m = get_model("linear")
    assert abs(transversality_det(m, -0.3, 1.0) + 1.0) <= 1e-12
    s = get_model("scaled")
    assert abs(transversality_det(s, -0.3, 1.0) + 2.0) <= 1e-12


def test_hausdorff_basic_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert hausdorff_distance(a, b) == 5.0
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert hausdorff_distance(sq, sq) == 0.0
    shifted = sq + np.array([0.3, 0.4])
    assert abs(hausdorff_distance(sq, shifted) - 0.5) <= 1e-15


def brute_hausdorff(a, b):
    """All-pairs numpy oracle with the same dx*dx + dz*dz arithmetic."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return max(math.sqrt(d2.min(axis=1).max()),
               math.sqrt(d2.min(axis=0).max()))


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(5150)
    a = rng.normal(size=(40, 2))
    b = rng.normal(size=(60, 2)) + 0.5
    c = rng.normal(size=(25, 2)) - 0.25
    hab = hausdorff_distance(a, b)
    assert hab == hausdorff_distance(b, a)
    hac = hausdorff_distance(a, c)
    hbc = hausdorff_distance(b, c)
    assert hac <= hab + hbc + 1e-12
    # the pruned search equals brute force exactly, ties in x included
    d = np.round(rng.normal(size=(50, 2)), 1)
    for p, q in ((a, b), (a, c), (b, c), (a, d), (d, c)):
        assert hausdorff_distance(p, q) == brute_hausdorff(p, q)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 1.0)
        p = scale * rng.normal(size=(int(rng.integers(1, 30)), 2))
        q = scale * rng.normal(size=(int(rng.integers(1, 30)), 2))
        assert hausdorff_distance(p, q) == brute_hausdorff(p, q)


def test_record_type_hints_resolve():
    # the records annotate plain float containers, no numpy names
    for record in (SlowCurves, GapProfile, SingularConfiguration,
                   ManifoldPatch):
        assert set(typing.get_type_hints(record)) == set(record._fields)


def test_hausdorff_preconditions():
    good = np.zeros((3, 2))
    with pytest.raises(PreconditionError):
        hausdorff_distance(good, np.zeros((0, 2)))
    with pytest.raises(PreconditionError):
        hausdorff_distance(good, np.zeros((3, 3)))
    with pytest.raises(PreconditionError):
        hausdorff_distance(np.zeros(3), good)


def sampled_cycle(x0, x1, z0, n):
    """The three cycle segments, n evenly spaced samples each."""
    fiber = np.linspace(0.0, z0, n)
    return np.vstack([
        np.column_stack([np.full(n, x0), fiber]),
        np.column_stack([np.linspace(x0, x1, n), np.zeros(n)]),
        np.column_stack([np.full(n, x1), fiber]),
    ])


def assert_matches_sampled(points, x0, x1, z0, n=1001):
    # |d_H(P, C) - d_H(P, S)| <= d_H(C, S) = h/2 for the sampled cycle S
    h = max(z0, x1 - x0) / (n - 1)
    exact = cycle_distance(points, x0, x1, z0)
    sampled = hausdorff_distance(points, sampled_cycle(x0, x1, z0, n))
    assert abs(exact - sampled) <= 0.5 * h, (exact, sampled, h)


def test_cycle_distance_vertices_closed_form():
    # every vertex lies on the cycle; the cycle point farthest from them
    # is (0, 0), an interior breakpoint of the slow segment's envelope
    vertices = np.array([(-1.0, 0.1), (-1.0, 0.0), (1.0, 0.0), (1.0, 0.1)])
    assert cycle_distance(vertices, -1.0, 1.0, 0.1) == 1.0


def test_cycle_distance_against_sampled_cycle_random_sets():
    rng = np.random.default_rng(7919)
    for _ in range(200):
        x0 = rng.uniform(-2.0, -0.1)
        x1 = rng.uniform(0.1, 2.0)
        z0 = rng.uniform(0.01, 1.0)
        n = int(rng.integers(1, 30))
        points = np.column_stack([
            rng.uniform(x0 - 0.5, x1 + 0.5, n),
            rng.uniform(-0.3, z0 + 0.3, n),
        ])
        assert_matches_sampled(points, x0, x1, z0)


def test_cycle_distance_against_sampled_cycle_trajectory():
    m = get_model("linear")
    sol = solve_exit(m, -1.0)
    traj = integrate_zeta(m, InitialData(-1.0, 0.1, 0.05),
                          Section("z", 0.1, direction=1,
                                  require_x_positive=True))
    assert_matches_sampled(traj.xz_points(), sol.x0, sol.x1, 0.1, n=4001)


def test_cycle_distance_preconditions():
    good = np.zeros((3, 2))
    for points in (np.zeros(3), np.zeros((3, 3)), np.zeros((0, 2))):
        with pytest.raises(PreconditionError):
            cycle_distance(points, -1.0, 1.0, 0.1)
    for x0, x1, z0 in ((-1.0, 1.0, 0.0), (-1.0, 1.0, -0.1),
                       (1.0, 1.0, 0.1), (1.0, -1.0, 0.1)):
        with pytest.raises(PreconditionError):
            cycle_distance(good, x0, x1, z0)
