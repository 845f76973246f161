"""Per-layer tracing of delaylab from outside the package.

``Tracer.install`` replaces each hooked public function with a wrapper
in every loaded ``delaylab`` module that holds a reference to it (the
package imports names with ``from .numerics import integrate`` and the
like), and ``Tracer.uninstall`` puts the originals back.  A hooked name
that no longer exists is skipped, so its metrics are absent rather than
the run failing.

Each wrapper records a span: its duration, and its self time, which is
the duration minus the time of the child spans it encloses.  Spans are
folded into per-name totals as they close, since a custom-model sweep
makes millions of expression evaluations.  A re-entrant call to the same
function (``numerics.integrate`` calls itself to flip reversed bounds)
is folded into the outer span.  Counts are read from return values where
the API gives them.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.failed: dict[str, int] = defaultdict(int)
        self.ok_self_s: dict[str, float] = defaultdict(float)  # calls that returned
        self.counts: dict[str, float] = defaultdict(float)
        self.hooked: set[str] = set()
        self._stack: list[list] = []        # [name, start, child seconds]
        self._patches: list[tuple] = []
        self._sweep_mark: tuple[int, int] | None = None

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            if name is None:
                return self._after(after, fn(*args, **kwargs), args, kwargs)
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if ok:
                    self.ok_self_s[name] += duration - frame[2]
                else:
                    self.failed[name] += 1
                if stack:
                    stack[-1][2] += duration
            if after is None:
                return result
            begin = perf_counter()
            result = self._after(after, result, args, kwargs)
            if stack:
                # the parent's self time excludes the hook's work too
                stack[-1][2] += perf_counter() - begin
            return result
        return wrapper

    def _after(self, after, result, args, kwargs):
        if after is None:
            return result
        try:
            return after(self, result, args, kwargs)
        except (AttributeError, TypeError, KeyError, OSError):
            return result   # the value changed shape: no count

    def _count_calls(self, fn, key: str):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "delaylab" or n.startswith("delaylab.")]
        for module_name, attr, name, before, after in HOOKS:
            home = sys.modules.get(f"delaylab.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            self.hooked.add(f"{module_name}.{attr}")
            wrapper = self._wrap(name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------
    def metrics(self, n_cases: int, total_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: totals are given per case."""
        c, s, k, hooked = self.calls, self.self_s, self.counts, self.hooked
        out: dict[str, tuple[float, str]] = {}

        def per_case(metric, value, unit):
            out[metric] = (value / n_cases, unit + "/case")

        def ratio(metric, num, den, unit, scale=1.0):
            out[metric] = (scale * num / den if den else 0.0, unit)

        if "cli.main" in hooked:
            per_case("cli.calls", c["cli"], "count")
            per_case("cli.self_s", s["cli"], "s")
        if "expr.evaluate" in hooked:
            per_case("expr.evaluate.calls", c["expr.evaluate"], "count")
            per_case("expr.evaluate.self_s", s["expr.evaluate"], "s")
            ratio("expr.evaluate.us_per_call", s["expr.evaluate"],
                  c["expr.evaluate"], "us", 1e6)
            ratio("expr.evaluate.share", s["expr.evaluate"], total_s, "ratio")
        if "model.get_model" in hooked or "model.model_from_expressions" in hooked:
            per_case("model.f_evals", k["model.f_evals"], "count")
            per_case("model.g_evals", k["model.g_evals"], "count")
        if "numerics.integrate" in hooked:
            per_case("numerics.quad.calls", c["numerics.quad"], "count")
            per_case("numerics.quad.evals", k["numerics.quad.evals"], "count")
            ratio("numerics.quad.evals_per_call", k["numerics.quad.evals"],
                  c["numerics.quad"], "count")
            per_case("numerics.quad.self_s", s["numerics.quad"], "s")
        if "numerics.find_root" in hooked:
            per_case("numerics.root.calls", c["numerics.root"], "count")
            per_case("numerics.root.self_s", s["numerics.root"], "s")
        if "entryexit.solve_exit" in hooked:
            per_case("entryexit.solve_exit.calls", c["entryexit.solve_exit"], "count")
            per_case("entryexit.solve_exit.evals",
                     k["entryexit.solve_exit.evals"], "count")
            per_case("entryexit.solve_exit.self_s", s["entryexit.solve_exit"], "s")
        if "entryexit.slow_curves" in hooked:
            per_case("entryexit.slow_curves.calls", c["entryexit.slow_curves"], "count")
            per_case("entryexit.slow_curves.points",
                     k["entryexit.slow_curves.points"], "count")
            per_case("entryexit.slow_curves.self_s", s["entryexit.slow_curves"], "s")
        if hooked & {"integrate.integrate_xz", "integrate.integrate_zeta"}:
            steps, rejected = k["integrate.steps"], k["integrate.rejected"]
            per_case("integrate.calls", c["integrate"], "count")
            per_case("integrate.steps", steps, "count")
            per_case("integrate.rejected", rejected, "count")
            ratio("integrate.accept_ratio", steps, steps + rejected, "ratio")
            per_case("integrate.evals", k["integrate.evals"], "count")
            per_case("integrate.samples", k["integrate.samples"], "count")
            per_case("integrate.failed", self.failed["integrate"], "count")
            per_case("integrate.self_s", s["integrate"], "s")
            # a failed integration returns no counts, so its time is left out
            ratio("integrate.us_per_eval", self.ok_self_s["integrate"],
                  k["integrate.evals"], "us", 1e6)
        if "geometry.build_configuration" in hooked:
            per_case("geometry.configuration.calls",
                     c["geometry.configuration"], "count")
            per_case("geometry.configuration.points",
                     k["geometry.configuration.points"], "count")
            per_case("geometry.configuration.self_s",
                     s["geometry.configuration"], "s")
        if "geometry.hausdorff_distance" in hooked:
            per_case("geometry.hausdorff.calls", c["geometry.hausdorff"], "count")
            per_case("geometry.hausdorff.pairs",
                     k["geometry.hausdorff.pairs"], "count")
            per_case("geometry.hausdorff.self_s", s["geometry.hausdorff"], "s")
        if "experiment.run_sweep" in hooked:
            eps = k["experiment.eps_attempted"]
            per_case("experiment.sweep.self_s", s["experiment.sweep"], "s")
            per_case("experiment.sweep.eps_done", k["experiment.eps_done"], "count")
            per_case("experiment.sweep.eps_failed",
                     k["experiment.eps_failed"], "count")
            ratio("experiment.integrations_per_eps",
                  k["experiment.integrations"], eps, "count")
            ratio("experiment.configurations_per_eps",
                  k["experiment.configurations"], eps, "count")
        if hooked & {"output.write_csv", "output.write_json"}:
            per_case("output.files", c["output"], "count")
            per_case("output.rows", k["output.rows"], "count")
            per_case("output.bytes", k["output.bytes"], "B")
            per_case("output.self_s", s["output"], "s")
        return out


# -- hooks: (tracer, args, kwargs) -> (args, kwargs) before the call, and
#    (tracer, result, args, kwargs) -> result after it ---------------------

def _count_model(t: Tracer, m, args, kwargs):
    return dataclasses.replace(m, f=t._count_calls(m.f, "model.f_evals"),
                               g=t._count_calls(m.g, "model.g_evals"))


def _quad(t: Tracer, r, args, kwargs):
    t.counts["numerics.quad.evals"] += r.evaluations
    return r


def _solve_exit(t: Tracer, sol, args, kwargs):
    t.counts["entryexit.solve_exit.evals"] += sol.evaluations
    return sol


def _slow_curves(t: Tracer, curves, args, kwargs):
    t.counts["entryexit.slow_curves.points"] += len(curves.x)
    return curves


def _trajectory(t: Tracer, traj, args, kwargs):
    k = t.counts
    k["integrate.steps"] += traj.n_steps
    k["integrate.rejected"] += traj.n_rejected
    k["integrate.evals"] += traj.evaluations
    # rows = initial point + accepted steps (the last one replaced by
    # the located event) + dense-output samples
    k["integrate.samples"] += len(traj.t) - traj.n_steps - 1
    return traj


def _configuration(t: Tracer, config, args, kwargs):
    t.counts["geometry.configuration.points"] += sum(
        len(p) for p in config.pieces())
    return config


def _hausdorff(t: Tracer, value, args, kwargs):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    t.counts["geometry.hausdorff.pairs"] += 2 * len(a) * len(b)
    return value


def _sweep_begin(t: Tracer, args, kwargs):
    t._sweep_mark = (t.calls["integrate"], t.calls["geometry.configuration"])
    return args, kwargs


def _sweep_end(t: Tracer, report, args, kwargs):
    k = t.counts
    integrations, configurations = t._sweep_mark
    k["experiment.integrations"] += t.calls["integrate"] - integrations
    k["experiment.configurations"] += (t.calls["geometry.configuration"]
                                       - configurations)
    k["experiment.eps_attempted"] += len(report.records) + len(report.failures)
    k["experiment.eps_done"] += len(report.records)
    k["experiment.eps_failed"] += len(report.failures)
    return report


def _count_rows(t: Tracer, args, kwargs):
    def counted(rows):
        for row in rows:
            t.counts["output.rows"] += 1
            yield row
    if len(args) > 2:
        args = args[:2] + (counted(args[2]),) + args[3:]
    elif "rows" in kwargs:
        kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
    return args, kwargs


def _file_bytes(t: Tracer, result, args, kwargs):
    t.counts["output.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return result


HOOKS = (
    # module, public name, span name (None: no span), before, after
    ("cli", "main", "cli", None, None),
    ("expr", "evaluate", "expr.evaluate", None, None),
    ("model", "get_model", None, None, _count_model),
    ("model", "model_from_expressions", None, None, _count_model),
    ("numerics", "integrate", "numerics.quad", None, _quad),
    ("numerics", "find_root", "numerics.root", None, None),
    ("entryexit", "solve_exit", "entryexit.solve_exit", None, _solve_exit),
    ("entryexit", "slow_curves", "entryexit.slow_curves", None, _slow_curves),
    ("integrate", "integrate_xz", "integrate", None, _trajectory),
    ("integrate", "integrate_zeta", "integrate", None, _trajectory),
    ("geometry", "build_configuration", "geometry.configuration", None,
     _configuration),
    ("geometry", "hausdorff_distance", "geometry.hausdorff", None, _hausdorff),
    ("experiment", "run_sweep", "experiment.sweep", _sweep_begin, _sweep_end),
    ("output", "write_csv", "output", _count_rows, _file_bytes),
    ("output", "write_json", "output", None, _file_bytes),
)
