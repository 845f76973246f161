"""Deterministic plot-ready output: CSV and JSON writers.

All floats are written with 17 significant digits (round-trip exact
for doubles), '.' as the decimal mark, ',' as the CSV separator and
LF line endings, so reruns and parallel runs produce byte-identical
files.  Wall-clock timings never enter serialized output.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Sequence

from ._version import VERSION

if TYPE_CHECKING:
    from .entryexit import EntryExitSolution, SlowCurves
    from .experiment import SweepReport
    from .geometry import ManifoldPatch, SingularConfiguration
    from .integrate import Trajectory
    from .model import Model


def fmt(v: float) -> str:
    """Round-trip-exact decimal form of a double."""
    return f"{float(v):.17g}"


# Row templates, one per writer: "%.17g" is fmt()'s form, applied to a
# whole row at once.  "%.0s" consumes a cell and prints nothing.
_G3, _G5, _G6 = (",".join(["%.17g"] * n) + "\n" for n in (3, 5, 6))
_PIECE = "%s,%.17g,%.17g,%.17g,%.17g\n"
_TRAJ = "%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
_TRAJ_BLANK_Z = "%.17g,%.17g,%.17g,%.0s,%.17g,%d\n"


def _param(v) -> str:
    """A header param: str as it is, int in decimal, anything else by fmt."""
    return v if isinstance(v, str) else str(v) if type(v) is int else fmt(v)


def header_line(command: str, m: Model, params: dict) -> str:
    """The one-line run-metadata comment put at the top of CSV files."""
    parts = [f"delaylab {VERSION}", command, f"model={m.name}"]
    parts += [f"{k}={_param(v)}" for k, v in params.items()]
    return "# " + " | ".join(parts)


def write_csv(path: str, names: Sequence[str], rows: Iterable[str],
              header_lines: Sequence[str] = ()) -> None:
    """Write ``header_lines``, the column names and ``rows``: the data
    lines, each formatted by its writer's row template, LF-terminated."""
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(rows)


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def model_meta(m: Model) -> dict:
    return {
        "name": m.name,
        "f": m.f_text,
        "g": m.g_text,
        "window": [m.window[0], m.window[1]],
        "z_cap": m.z_cap,
    }


def make_meta(command: str, m: Model, params: dict | None = None) -> dict:
    meta = {"tool": "delaylab", "version": VERSION, "command": command,
            "model": model_meta(m)}
    if params:
        meta["params"] = params
    return meta


def exit_solution_to_dict(sol: EntryExitSolution, meta: dict) -> dict:
    return {
        "meta": meta,
        "x0": sol.x0,
        "x1": sol.x1,
        "zeta0": sol.zeta0,
        "tau1": sol.tau1,
        "dx1_dx0": sol.dx1_dx0,
        "residual": sol.residual,
        "evaluations": sol.evaluations,
    }


def write_curves_csv(path: str, curves: SlowCurves,
                     header_lines: Sequence[str] = ()) -> None:
    names = ("x", "zeta_minus", "tau_minus", "zeta_plus", "tau_plus")
    rows = zip(curves.x, curves.zeta_minus, curves.tau_minus,
               curves.zeta_plus, curves.tau_plus)
    write_csv(path, names, map(_G5.__mod__, rows), header_lines)


def write_trajectory_csv(path: str, traj: Trajectory,
                         header_lines: Sequence[str] = ()) -> None:
    """Columns t, tau, x, z, zeta, event.

    In the logarithmic chart the z cell is left blank where z is not
    representable as a double (``traj.z()`` flushed it to 0); in the
    raw chart zeta is eps * log(1/z), identically 0 in the frozen-drift
    limit eps = 0.  ``event`` is 1 on the last row, the located stop.
    """
    names = ("t", "tau", "x", "z", "zeta", "event")
    events = [0] * (len(traj.t) - 1) + [1]
    rows = zip(traj.t, traj.tau, traj.x, traj.z(), traj.zeta(), events)
    if traj.chart == "zeta":
        lines = ((_TRAJ_BLANK_Z if r[3] == 0.0 else _TRAJ) % r for r in rows)
    else:
        lines = map(_TRAJ.__mod__, rows)
    write_csv(path, names, lines, header_lines)


def sweep_report_to_dict(report: SweepReport, meta: dict) -> dict:
    """JSON form of a sweep; deliberately excludes wall-clock times."""
    return {
        "meta": meta,
        "model": report.model_name,
        "x0": report.x0,
        "z0": report.z0,
        "eps": list(report.eps),
        "reference": {
            "x1": report.reference.x1,
            "zeta0": report.reference.zeta0,
            "tau1": report.reference.tau1,
            "dx1_dx0": report.reference.dx1_dx0,
        },
        "records": [
            {
                "eps": r.eps,
                "minz_exponent": r.minz_exponent,
                "exit_x": r.exit_x,
                "tau_exit": r.tau_exit,
                "hausdorff": r.hausdorff,
                "d_exit_dx0": r.d_exit_dx0,
            }
            for r in report.records
        ],
        "failures": [
            {"eps": f.eps, "error": f.error} for f in report.failures
        ],
        "rates": dict(report.rates),
        "richardson_minz": report.richardson_minz,
    }


def write_sweep_csv(path: str, report: SweepReport,
                    header_lines: Sequence[str] = ()) -> None:
    names = ("eps", "minz_exponent", "exit_x", "tau_exit", "hausdorff",
             "d_exit_dx0")
    rows = (_G6 % (r.eps, r.minz_exponent, r.exit_x, r.tau_exit,
                   r.hausdorff, r.d_exit_dx0) for r in report.records)
    write_csv(path, names, rows, header_lines)


def write_configuration_csv(path: str, config: SingularConfiguration,
                            header_lines: Sequence[str] = ()) -> None:
    names = ("piece", "x", "z", "zeta", "tau")
    rows = (_PIECE % (label, *row)
            for label, piece in zip(("gamma1", "gamma0", "gamma2"),
                                    config.pieces())
            for row in piece)
    write_csv(path, names, rows, header_lines)


def write_gamma0_csv(path: str, config: SingularConfiguration,
                     header_lines: Sequence[str] = ()) -> None:
    names = ("x", "zeta", "tau")
    rows = (_G3 % (r[0], r[2], r[3]) for r in config.gamma0)
    write_csv(path, names, rows, header_lines)


def write_manifold_csv(path: str, patch: ManifoldPatch,
                       header_lines: Sequence[str] = ()) -> None:
    names = ("param1", "param2", "x", "zeta", "tau")
    rows = (_G5 % (p1, p2, *pt) for p1, row in zip(patch.param1, patch.points)
            for p2, pt in zip(patch.param2, row))
    write_csv(path, names, rows, header_lines)
