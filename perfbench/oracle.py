"""Independent answers and outcome checks for the benchmark cases.

The oracles never call delaylab.  Builtins (and custom models with
constant f at z = 0) use closed forms: with ``f = f0`` and
``g(x, 0, 0) = x + b x^2``,

    zeta0 = (x0^2/2 + b x0^3/3) / f0,   tau1 = (x1 - x0) / f0,

and x1 is the positive root of ``s^2/2 + b s^3/3 = x0^2/2 + b x0^3/3``.
Other custom models use scipy ``quad``/``brentq``.  Finite-eps exit
points come from ``solve_ivp`` (DOP853) in the logarithmic chart, except
for models whose g does not depend on z, where the exit point is x1.

Tolerances are the package's documented promises (README and test
suite): exit point x1 to 1e-8, zeta0 and tau1 to 1e-10, and finite-eps
exit points to 1e-6, the stated agreement between the two charts.
"""

from __future__ import annotations

import math

from cases import Case, ModelSpec, poly_exit

TOL_X1 = 1e-8
TOL_SLOW = 1e-10
TOL_EXIT = 1e-6
EXP_FLOOR = 745.0


class Oracle:
    """Memoised reference values for one model and entry point."""

    def __init__(self, case: Case):
        self.case = case
        self.m: ModelSpec = case.model
        self._limit = None

    def limit(self) -> tuple[float, float, float]:
        """(x1, zeta0, tau1) of the eps = 0 exit problem."""
        if self._limit is None:
            self._limit = (self._closed_limit() if self.m.f_constant
                           else self._quad_limit())
        return self._limit

    def _closed_limit(self):
        m, x0 = self.m, self.case.x0
        f0 = m.f_lo
        x1 = poly_exit(x0, m.b)
        zeta0 = (0.5 * x0 * x0 + m.b * x0 ** 3 / 3.0) / f0
        return x1, zeta0, (x1 - x0) / f0

    def _quad_limit(self):
        from scipy.integrate import quad
        from scipy.optimize import brentq

        m, x0 = self.m, self.case.x0

        def q(h, a, b):
            return quad(h, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]

        def ratio(x):
            return m.g(x, 0.0) / m.f(x, 0.0)

        zeta0 = -q(ratio, x0, 0.0)
        x1 = brentq(lambda s: q(ratio, 0.0, s) - zeta0, 1e-6, m.window[1],
                    xtol=1e-15)
        tau1 = q(lambda x: 1.0 / m.f(x, 0.0), x0, x1)
        return x1, zeta0, tau1

    def finite_exit(self, eps: float) -> tuple[float, float]:
        """(x, tau) where the trajectory from (x0, z0) returns to z = z0."""
        if self.m.family == "builtin":   # g does not depend on z
            x1, _, tau1 = self.limit()
            return x1, tau1
        return self._dop853_exit(eps)

    def _dop853_exit(self, eps: float) -> tuple[float, float]:
        """Exit point from DOP853 in three phases.

        z matters only while zeta is within about 40 eps of its entry
        value, where the right-hand side changes on the slow-time scale
        eps.  The step is capped at eps there, at both ends, and free in
        between: error control alone can step over the sharp return.
        """
        import numpy as np
        from scipy.integrate import solve_ivp

        m, z0 = self.m, self.case.z0
        zeta_in = eps * math.log(1.0 / z0)

        def rhs(_tau, y):
            # trial stages may overshoot far above z0; z <= 1 (the
            # z_cap) keeps exp finite and is exact along the solution
            u = y[1] / eps
            z = 0.0 if u > EXP_FLOOR else math.exp(-max(u, 0.0))
            return np.array((m.f(y[0], z), -m.g(y[0], z)))

        def crossing(level, direction):
            def event(_tau, y):
                return y[1] - level
            event.terminal = True
            event.direction = direction
            return event

        near = zeta_in + 40.0 * eps
        back = crossing(zeta_in, -1)
        phases = (([crossing(near, +1), back], eps),
                  ([crossing(near, -1), back], math.inf),
                  ([back], eps))
        _, _, tau1 = self.limit()
        tau, y = 0.0, (self.case.x0, zeta_in)
        for events, max_step in phases:
            sol = solve_ivp(rhs, (tau, tau + 4.0 * tau1), y, method="DOP853",
                            rtol=1e-12, atol=1e-14, events=events,
                            max_step=max_step)
            hit = next((i for i, t in enumerate(sol.t_events) if t.size), None)
            if hit is None:
                break
            tau, y = float(sol.t_events[hit][0]), sol.y_events[hit][0]
            if events[hit] is back:
                return float(y[0]), tau
        raise RuntimeError("oracle trajectory never returned to z0")


def _close(errors: list, label: str, got, want: float, tol: float) -> float:
    """Append a message unless |got - want| <= tol; return the error."""
    try:
        err = abs(float(got) - want)
    except (TypeError, ValueError):
        errors.append(f"{label}: not a number ({got!r})")
        return math.inf
    if not err <= tol:
        errors.append(f"{label}: {got!r} vs oracle {want!r} (|err| {err:.3g} > {tol:g})")
    return err


def check(case: Case, outcome: dict) -> tuple[list[str], float]:
    """Compare one case's recorded outcome with the oracles.

    ``outcome`` is what the runner extracted from the exit codes,
    stdout and files.  Returns the failure messages and the worst
    finite-eps exit error seen (0.0 when the case has none).
    """
    errors: list[str] = []
    cmd, rc = case.command, outcome["rc"]
    if rc != cmd.expect_rc:
        return [f"{cmd.argv[0]}: exit code {rc}, expected {cmd.expect_rc}"], 0.0
    oracle = Oracle(case)
    return errors, CHECKS[case.workload](case, outcome, oracle, errors)


def _check_limit(errors, values: dict, oracle: Oracle, prefix: str):
    x1, zeta0, tau1 = oracle.limit()
    _close(errors, f"{prefix}x1", values.get("x1"), x1, TOL_X1)
    if "zeta0" in values:
        _close(errors, f"{prefix}zeta0", values["zeta0"], zeta0, TOL_SLOW)
    _close(errors, f"{prefix}tau1", values.get("tau1"), tau1, TOL_SLOW)


def _check_sweep(case, out, oracle, errors) -> float:
    report = out["sweep"]
    _check_limit(errors, report["reference"], oracle, "reference.")
    if report["failures"]:
        errors.append(f"sweep failures: {report['failures']}")
    eps_seen = [r["eps"] for r in report["records"]]
    if eps_seen != [0.2, 0.1, 0.05, 0.025]:
        errors.append(f"sweep records cover eps {eps_seen}")
    if out["csv_rows"] != len(report["records"]):
        errors.append(f"sweep.csv has {out['csv_rows']} rows")
    worst = 0.0
    for r in report["records"]:
        x_ref, tau_ref = oracle.finite_exit(r["eps"])
        worst = max(worst, _close(errors, f"exit_x[eps={r['eps']}]",
                                  r["exit_x"], x_ref, TOL_EXIT))
        _close(errors, f"tau_exit[eps={r['eps']}]", r["tau_exit"], tau_ref,
               TOL_EXIT)
    return worst


def _check_simulate(case, out, oracle, errors) -> float:
    if case.command.expect_rc == 1:
        if "underflow" not in out["stderr"]:
            errors.append(f"expected a z-underflow error, got {out['stderr']!r}")
        return 0.0
    last = out["last_row"]
    if last.get("event") != "1":
        errors.append(f"last trajectory row is not the stop event: {last}")
        return 0.0
    x_ref, _ = oracle.finite_exit(case.eps)
    worst = _close(errors, "exit x", last["x"], x_ref, TOL_EXIT)
    if case.chart == "xz":
        _close(errors, "exit z", last["z"], case.z0, TOL_EXIT)
    return worst


CHECKS = {"sweep": _check_sweep, "simulate": _check_simulate}
