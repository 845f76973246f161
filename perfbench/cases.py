"""Seeded case generation for the two benchmark workloads.

A case is one ``delaylab`` command line (argv without ``--out-dir``)
with its expected exit code, plus the model and entry data the oracles
need.  Everything is drawn from one ``random.Random``
seeded with the workload name and ``--seed``, so a seed fixes the whole
case sequence.  No two cases of a run share their inputs: every draw is
continuous and repeated argv are redrawn.

Cases come in rounds.  A round holds one case of every kind the workload
mixes, so each run measures the same mix whatever its length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SWEEP_EPS = "0.2,0.1,0.05,0.025"
CUSTOM_WINDOW = (-1.5, 1.5)

# Builtin models as the benchmark knows them: constant f, g = x + b x^2.
BUILTINS = {
    "linear": {"f0": 1.0, "b": 0.0, "window": (-1.5, 1.5)},
    "scaled": {"f0": 2.0, "b": 0.0, "window": (-1.5, 1.5)},
    "quadratic": {"f0": 1.0, "b": 1.0, "window": (-0.8, 0.8)},
}


@dataclass(frozen=True)
class ModelSpec:
    """A model as argv plus the closed-form pieces the oracles use.

    Every model here has ``g(x, 0, 0) = x + b x^2`` and, at z = 0, an f
    bounded by ``f_lo <= f <= f_hi`` on the window.  Custom models carry
    their coefficients so the oracle evaluates them with its own code.
    """

    label: str
    argv: tuple[str, ...]
    window: tuple[float, float]
    b: float
    f_lo: float
    f_hi: float
    family: str = "builtin"          # builtin, zf (f = 1 + a z), sinf
    coef: dict = field(default_factory=dict)

    def f(self, x: float, z: float) -> float:
        if self.family == "builtin":
            return BUILTINS[self.label]["f0"]
        if self.family == "zf":
            return 1.0 + self.coef["a"] * z
        return 1.0 + self.coef["a"] * math.sin(x)

    def g(self, x: float, z: float) -> float:
        return x + self.b * x * x + self.coef.get("c", 0.0) * z

    @property
    def f_constant(self) -> bool:
        return self.f_lo == self.f_hi


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect_rc: int


@dataclass(frozen=True)
class Case:
    """One timed ``cli.main`` call and what the oracles need to check it."""

    workload: str
    kind: str                   # latency class, e.g. "sweep:linear"
    model: ModelSpec
    x0: float
    z0: float | None
    eps: float | None
    chart: str | None
    command: Command


def _num(v: float, digits: int) -> str:
    return f"{v:.{digits}f}"


def _builtin(name: str) -> ModelSpec:
    spec = BUILTINS[name]
    return ModelSpec(label=name, argv=("--model", name),
                     window=spec["window"], b=spec["b"],
                     f_lo=spec["f0"], f_hi=spec["f0"])


def _custom(family: str, a: str, b: str, c: str) -> ModelSpec:
    if family == "zf":
        f_text = f"1 + {a}*z"
        f_lo = f_hi = 1.0
    else:
        f_text = f"1 + {a}*sin(x)"
        # |sin x| <= sin(1.5) on the window, sin is monotone there
        s = math.sin(CUSTOM_WINDOW[1])
        f_lo, f_hi = 1.0 - float(a) * s, 1.0 + float(a) * s
    g_text = f"x + {b}*x^2 + {c}*z"
    lo, hi = CUSTOM_WINDOW
    return ModelSpec(label="custom", family=family,
                     argv=("--f", f_text, "--g", g_text,
                           "--window", _num(lo, 1), _num(hi, 1)),
                     window=CUSTOM_WINDOW, b=float(b), f_lo=f_lo, f_hi=f_hi,
                     coef={"a": float(a), "c": float(c)})


def poly_exit(x0: float, b: float, scale: float = 1.0) -> float:
    """Positive s with s^2/2 + b s^3/3 = scale * (x0^2/2 + b x0^3/3).

    With constant f this is the exit point; with f between f_lo and f_hi
    and scale = f_hi / f_lo it bounds the exit point from above.
    """
    target = scale * (0.5 * x0 * x0 + b * x0 ** 3 / 3.0)

    def p(s):
        return 0.5 * s * s + b * s ** 3 / 3.0 - target

    lo, hi = 0.0, 1.0
    while p(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def admissible(m: ModelSpec, x0: float, z0: float) -> bool:
    """The standing hypotheses, decided in closed form.

    f > 0 on the window; g(x, 0, 0) = x (1 + b x) changes sign only at
    0, i.e. 1 + b x > 0 on the window; the entry is attracting,
    g(x0, z, 0) < 0 on [0, z0]; and the exit point plus the default
    geometry margin min(|x0|, x1)/8 stays inside the window.
    """
    lo, hi = m.window
    if not (m.f_lo > 0.0 and lo < x0 < 0.0 and 0.0 < z0 <= 1.0):
        return False
    if not (1.0 + m.b * lo > 0.0 and 1.0 + m.b * hi > 0.0):
        return False
    if x0 * (1.0 + m.b * x0) + max(m.coef.get("c", 0.0), 0.0) * z0 >= 0.0:
        return False
    x1_max = poly_exit(x0, m.b, m.f_hi / m.f_lo)
    return x1_max + min(-x0, x1_max) / 8.0 < hi


class _Drawer:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set[tuple[str, ...]] = set()

    def uniform(self, lo: float, hi: float, digits: int) -> str:
        return _num(self.rng.uniform(lo, hi), digits)

    def model_and_entry(self, kind: str, family: str):
        """Draw (model, x0 text, z0 text) until the hypotheses hold."""
        while True:
            if kind == "custom":
                m = _custom(family, self.uniform(0.1, 0.3, 3),
                            self.uniform(0.2, 0.4, 3),
                            self.uniform(0.1, 0.3, 3))
                x0 = self.uniform(-1.05, -0.95, 4)
            else:
                m = _builtin(kind)
                span = (-1.05, -0.95) if kind != "quadratic" else (-0.55, -0.45)
                x0 = self.uniform(*span, 4)
            z0 = self.uniform(0.08, 0.12, 4)
            if admissible(m, float(x0), float(z0)):
                return m, x0, z0

    def unique(self, command: Command) -> bool:
        if command.argv in self.seen:
            return False
        self.seen.add(command.argv)
        return True


def sweep_round(d: _Drawer) -> list[Case]:
    out = []
    for kind in ("linear", "scaled", "quadratic", "custom"):
        while True:
            m, x0, z0 = d.model_and_entry(kind, "zf")
            cmd = Command(("sweep",) + m.argv + ("--x0", x0, "--z0", z0,
                                                 "--eps", SWEEP_EPS), 0)
            if d.unique(cmd):
                break
        out.append(Case("sweep", f"sweep:{kind}", m, float(x0), float(z0),
                        None, None, cmd))
    return out


# (model kind, chart, eps, expected exit code).  The (x, z) chart at
# eps = 1e-4 underflows by design and must exit 1.
SIMULATE_ROUND = (
    ("custom", "zeta", "0.05", 0),
    ("custom", "zeta", "1e-4", 0),
    ("custom", "xz", "0.05", 0),
    ("custom", "xz", "1e-4", 1),
    ("custom", "zeta", "0.05", 0),
    ("linear", "zeta", "0.05", 0),
    ("quadratic", "zeta", "1e-4", 0),
)


def simulate_round(d: _Drawer) -> list[Case]:
    out = []
    for kind, chart, eps, rc in SIMULATE_ROUND:
        while True:
            m, x0, z0 = d.model_and_entry(kind, "sinf")
            cmd = Command(("simulate",) + m.argv + (
                "--x0", x0, "--z0", z0, "--eps", eps, "--chart", chart), rc)
            if d.unique(cmd):
                break
        out.append(Case("simulate", f"simulate:{kind}:{chart}:{eps}", m,
                        float(x0), float(z0), float(eps), chart, cmd))
    return out


ROUNDS = {"sweep": sweep_round, "simulate": simulate_round}


def rounds(workload: str, seed: int):
    """Endless deterministic sequence of rounds for one workload."""
    d = _Drawer(workload, seed)
    make = ROUNDS[workload]
    while True:
        yield make(d)
