"""Planar slow-fast models and their standing sign hypotheses.

A model is the pair of evaluators (f, g) for the system

    dx/dt = eps * f(x, z, eps)
    dz/dt = g(x, z, eps) * z

together with an x-window containing the turning point x = 0 and a
cap on meaningful z values.  The hypotheses that every experiment
relies on are: f(x, 0, 0) > 0 on the window, g(x, 0, 0) < 0 left of
the turning point and > 0 right of it.  ``check_hypotheses`` verifies
them on a grid; construction itself stays cheap and unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import expr as _expr
from .errors import ModelLookupError, PreconditionError
from .numerics import linspace

Evaluator = Callable[[float, float, float], float]

# g(0,0,0) = 0 is permitted, so sign checks skip a tiny neighborhood
# of the turning point.
SIGN_EXCLUSION_RADIUS = 1e-9
# samples of z on [0, z0] in the attracting-entry check
ENTRY_GRID_N = 256


@dataclass(frozen=True)
class Model:
    """Right-hand side of the planar system plus its validity window."""

    name: str
    f: Evaluator
    g: Evaluator
    window: tuple[float, float]
    z_cap: float = 1.0
    f_text: str = "<native>"
    g_text: str = "<native>"

    def __post_init__(self):
        x_min, x_max = self.window
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise PreconditionError("window bounds must be finite")
        if not (x_min < 0.0 < x_max):
            raise PreconditionError(
                f"window must contain the turning point: need x_min < 0 < x_max, "
                f"got [{x_min}, {x_max}]"
            )
        if not (math.isfinite(self.z_cap) and self.z_cap > 0.0):
            raise PreconditionError(f"z_cap must be positive, got {self.z_cap}")

    def describe(self) -> str:
        x_min, x_max = self.window
        return (
            f"model={self.name} f={self.f_text} g={self.g_text} "
            f"window=[{x_min:.17g},{x_max:.17g}] z_cap={self.z_cap:.17g}"
        )


@dataclass(frozen=True)
class InitialData:
    """Starting point (x0, z0) and the time-scale ratio eps."""

    x0: float
    z0: float
    eps: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x0, self.z0, self.eps)):
            raise PreconditionError("initial data must be finite")
        if self.z0 <= 0.0:
            raise PreconditionError(f"z0 must be positive, got {self.z0}")
        if self.eps < 0.0:
            raise PreconditionError(f"eps must be nonnegative, got {self.eps}")


class HypothesisCheck(NamedTuple):
    name: str
    passed: bool
    # first violating point as (coordinate, evaluated value), or None
    first_violation: tuple[float, float] | None = None


class HypothesisReport(NamedTuple):
    model: str
    grid_n: int
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            if c.passed:
                lines.append(f"PASS {c.name}")
            else:
                coord, value = c.first_violation
                lines.append(
                    f"FAIL {c.name}: first violation at {coord:.17g} "
                    f"(value {value:.17g})"
                )
        return "\n".join(lines)


def check_hypotheses(m: Model, grid_n: int = 1024) -> HypothesisReport:
    """Grid check of the standing sign conditions at z = 0, eps = 0."""
    if grid_n < 16:
        raise PreconditionError(f"grid_n must be at least 16, got {grid_n}")
    x_min, x_max = m.window
    xs = linspace(x_min, x_max, grid_n)

    def first_bad(points, predicate, evaluator):
        for x in points:
            v = evaluator(x)
            if not predicate(v):
                return (x, float(v))
        return None

    f_bad = first_bad(xs, lambda v: v > 0.0, lambda x: m.f(x, 0.0, 0.0))
    left = [x for x in xs if x < -SIGN_EXCLUSION_RADIUS]
    right = [x for x in xs if x > SIGN_EXCLUSION_RADIUS]
    g_left_bad = first_bad(left, lambda v: v < 0.0, lambda x: m.g(x, 0.0, 0.0))
    g_right_bad = first_bad(right, lambda v: v > 0.0, lambda x: m.g(x, 0.0, 0.0))

    checks = (
        HypothesisCheck("f(x,0,0) > 0 on the window", f_bad is None, f_bad),
        HypothesisCheck("g(x,0,0) < 0 left of the turning point",
                        g_left_bad is None, g_left_bad),
        HypothesisCheck("g(x,0,0) > 0 right of the turning point",
                        g_right_bad is None, g_right_bad),
    )
    return HypothesisReport(m.name, grid_n, checks)


def validate_initial(m: Model, d: InitialData) -> HypothesisReport:
    """Check g(x0, z, 0) < 0 for z sampled on [0, z0] (entry is attracting)."""
    x_min, x_max = m.window
    if not (x_min < d.x0 < x_max):
        raise PreconditionError(
            f"x0 must lie inside the window ({x_min}, {x_max}), got {d.x0}"
        )
    if d.x0 >= 0.0:
        raise PreconditionError(f"x0 must be negative, got {d.x0}")
    if d.z0 > m.z_cap:
        raise PreconditionError(f"z0={d.z0} exceeds z_cap={m.z_cap}")
    bad = None
    for z in linspace(0.0, d.z0, ENTRY_GRID_N):
        v = m.g(d.x0, z, 0.0)
        if not v < 0.0:
            bad = (z, float(v))
            break
    check = HypothesisCheck("g(x0, z, 0) < 0 on [0, z0]", bad is None, bad)
    return HypothesisReport(m.name, ENTRY_GRID_N, (check,))


def _linear() -> Model:
    return Model("linear", lambda x, z, eps: 1.0, lambda x, z, eps: x,
                 window=(-1.5, 1.5), z_cap=1.0, f_text="1", g_text="x")


def _scaled() -> Model:
    return Model("scaled", lambda x, z, eps: 2.0, lambda x, z, eps: x,
                 window=(-1.5, 1.5), z_cap=1.0, f_text="2", g_text="x")


def _quadratic() -> Model:
    return Model("quadratic", lambda x, z, eps: 1.0,
                 lambda x, z, eps: x + x * x,
                 window=(-0.8, 0.8), z_cap=1.0, f_text="1", g_text="x + x^2")


_BUILTINS: dict[str, Callable[[], Model]] = {
    "linear": _linear,
    "scaled": _scaled,
    "quadratic": _quadratic,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def get_model(name: str) -> Model:
    """Look up a builtin model; unknown names list the alternatives."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ModelLookupError(
            f"unknown model '{name}'; available: {', '.join(builtin_names())}"
        ) from None


def model_from_expressions(name: str, f_text: str, g_text: str,
                           window: tuple[float, float],
                           z_cap: float = 1.0) -> Model:
    """Build a model from expression text in x, z, eps.

    ``f`` and ``g`` are the expressions' compiled closures.
    """
    f = _expr.parse(f_text).fn
    g = _expr.parse(g_text).fn
    return Model(name, f, g, (float(window[0]), float(window[1])),
                 z_cap=float(z_cap), f_text=f_text, g_text=g_text)
