"""Command-line interface.

Subcommands:

    exit      solve the eps = 0 exit problem for an entry point
    simulate  integrate one trajectory and write it as CSV
    sweep     run the delayed-loss measurement over a list of eps
    geometry  emit the candidate cycle and manifold patches as CSV
    check     verify the sign hypotheses on a model

Exit codes: 0 success, 1 domain failure, 2 no exit point inside the
window, 64 usage error.  All file output is plot-ready CSV/JSON with
round-trip-exact floats; nothing is rendered here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import VERSION
from .errors import (DelayLabError, NoExitInWindowError, PreconditionError,
                     UsageError)
from .expr import ExpressionError
from .model import (InitialData, Model, builtin_names, check_hypotheses,
                    get_model, model_from_expressions, validate_initial)
from . import output

# The numerical modules are imported by the commands that use them, so
# a process loads only what its command needs.
_DEFAULT_WINDOW = (-1.5, 1.5)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_model_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", help="builtin model name "
                    f"({', '.join(builtin_names())})")
    sp.add_argument("--f", dest="f_expr", metavar="EXPR",
                    help="drift expression in x, z, eps (custom model)")
    sp.add_argument("--g", dest="g_expr", metavar="EXPR",
                    help="loss-rate expression in x, z, eps (custom model)")
    sp.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                    help="validity window for a custom model")
    sp.add_argument("--z-cap", dest="z_cap", type=float,
                    help="largest admissible z0 (custom model, default 1)")
    sp.add_argument("--config", metavar="PATH",
                    help="JSON file with defaults; flags win")
    sp.add_argument("--out-dir", dest="out_dir", metavar="DIR",
                    help="output directory (default: $DELAYLAB_OUT or '.')")


# integrator controls on simulate and sweep: Controls field -> type
_CONTROLS = {"rel_tol": float, "abs_tol": float, "max_steps": int,
             "initial_step": float, "max_step": float, "sample_dt": float}


def _add_controls_args(sp: argparse.ArgumentParser) -> None:
    for name, kind in _CONTROLS.items():
        sp.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)


def _exit_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x0", type=float, help="entry point (negative)")
    sp.add_argument("--curves-csv", dest="curves_csv", metavar="NAME",
                    help="also write the slow accumulation curves as CSV")
    sp.add_argument("--curves-n", dest="curves_n", type=int, default=512)


def _simulate_args(sp: argparse.ArgumentParser) -> None:
    _add_controls_args(sp)
    sp.add_argument("--x0", type=float)
    sp.add_argument("--z0", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--chart", choices=("zeta", "xz"),
                    help="integration chart (default: zeta when eps > 0)")
    sp.add_argument("--stop-z", dest="stop_z", type=float,
                    help="stop on z crossing this value")
    sp.add_argument("--stop-zeta", dest="stop_zeta", type=float,
                    help="stop on zeta crossing this value (eps > 0)")
    sp.add_argument("--stop-x", dest="stop_x", type=float,
                    help="stop on x crossing this value")
    sp.add_argument("--stop-direction", dest="stop_direction",
                    choices=("up", "down", "any"), default="any")
    sp.add_argument("--stop-x-positive", dest="stop_x_positive",
                    action="store_true",
                    help="only accept crossings with x > 0")
    sp.add_argument("--traj-csv", dest="traj_csv", default="trajectory.csv")


def _sweep_args(sp: argparse.ArgumentParser) -> None:
    _add_controls_args(sp)
    sp.add_argument("--x0", type=float)
    sp.add_argument("--z0", type=float)
    sp.add_argument("--eps", help="comma-separated eps list, e.g. 0.2,0.1")
    sp.add_argument("--probe-step", dest="probe_step", type=float,
                    help="finite-difference step for d(exit)/d(entry)")
    sp.add_argument("--formats", default="csv,json",
                    help="comma subset of csv,json (default both)")


def _geometry_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x0", type=float)
    sp.add_argument("--z0", type=float)
    sp.add_argument("--delta", type=float,
                    help="patch margin (default min(|x0|, x1)/8)")
    sp.add_argument("--n", type=int, default=65)
    sp.add_argument("--n2", type=int)
    sp.add_argument("--config-n", dest="config_n", type=int, default=513,
                    help="samples per cycle piece")


def _check_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=1024)


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser with the subparser that ``command`` names, or
    with every subparser when it names none (help, usage errors)."""
    p = _Parser(prog="delaylab",
                description="numerical laboratory for bifurcation delay in "
                            "planar slow-fast systems")
    p.add_argument("--version", action="version",
                   version=f"delaylab {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            sp = sub.add_parser(name, help=help_text)
            _add_model_args(sp)
            add_args(sp)
    return p


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _merged(args, cfg: dict, name: str, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return cfg.get(name, default)


def _number(value, name: str, kind=float):
    """``kind(value)`` for a flag or ``--config`` value; a value that
    does not convert is a usage error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{name} must be a number, got {value!r}") from None


def _float_arg(args, cfg: dict, name: str) -> float:
    """A required number from the flag ``--name`` or the config."""
    value = _merged(args, cfg, name)
    if value is None:
        raise UsageError(f"missing required option --{name.replace('_', '-')}")
    return _number(value, name)


def _resolve_model(args, cfg: dict) -> Model:
    name = _merged(args, cfg, "model")
    f_expr = _merged(args, cfg, "f_expr", cfg.get("f"))
    g_expr = _merged(args, cfg, "g_expr", cfg.get("g"))
    if name is not None and (f_expr is not None or g_expr is not None):
        raise UsageError("give either --model or --f/--g, not both")
    if name is not None:
        return get_model(name)
    if f_expr is None and g_expr is None:
        raise UsageError("no model: give --model NAME or --f EXPR --g EXPR")
    if f_expr is None or g_expr is None:
        raise UsageError("a custom model needs both --f and --g")
    window = _merged(args, cfg, "window", _DEFAULT_WINDOW)
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise UsageError(f"window must be two numbers LO HI, got {window!r}")
    window = (_number(window[0], "window"), _number(window[1], "window"))
    z_cap = _number(_merged(args, cfg, "z_cap", 1.0), "z_cap")
    try:
        return model_from_expressions("custom", f_expr, g_expr, window,
                                      z_cap=z_cap)
    except ExpressionError as exc:
        # a malformed expression on the command line is a usage problem
        raise UsageError(str(exc)) from exc


def _resolve_out_dir(args, cfg: dict) -> str:
    # --out-dir, else $DELAYLAB_OUT, else the config's out_dir, else '.'
    out = next(v for v in (args.out_dir, os.environ.get("DELAYLAB_OUT"),
                           cfg.get("out_dir"), ".") if v is not None)
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_controls(args, cfg: dict):
    from .integrate import Controls

    kwargs = {}
    for name, kind in _CONTROLS.items():
        value = _merged(args, cfg, name)
        if value is not None:
            kwargs[name] = _number(value, name, kind)
    try:
        return Controls(**kwargs)
    except PreconditionError as exc:
        raise UsageError(str(exc)) from exc


def _attracting(m: Model, data: InitialData) -> InitialData:
    """``data``, once ``validate_initial`` passes on it (exit 1 if not)."""
    report = validate_initial(m, data)
    if not report.passed:
        raise PreconditionError(report.summary())
    return data


def _cmd_exit(args, cfg: dict) -> int:
    from .entryexit import slow_curves, solve_exit

    m = _resolve_model(args, cfg)
    out_dir = _resolve_out_dir(args, cfg)
    x0 = _float_arg(args, cfg, "x0")
    sol = solve_exit(m, x0)
    for name in ("x1", "zeta0", "tau1", "dx1_dx0", "residual"):
        print(f"{name} = {output.fmt(getattr(sol, name))}")
    meta = output.make_meta("exit", m, {"x0": x0})
    path = os.path.join(out_dir, "exit.json")
    output.write_json(path, output.exit_solution_to_dict(sol, meta))
    print(f"wrote {path}")
    if args.curves_csv is not None:
        curves = slow_curves(m, x0, sol.x1, sol.tau1, n=args.curves_n)
        cpath = os.path.join(out_dir, args.curves_csv)
        header = output.header_line("exit", m, {"x0": x0, "x1": sol.x1})
        output.write_curves_csv(cpath, curves, [header])
        print(f"wrote {cpath}")
    return 0


def _cmd_simulate(args, cfg: dict) -> int:
    from .integrate import Section, integrate_xz, integrate_zeta

    m = _resolve_model(args, cfg)
    out_dir = _resolve_out_dir(args, cfg)
    controls = _resolve_controls(args, cfg)
    x0 = _float_arg(args, cfg, "x0")
    z0 = _float_arg(args, cfg, "z0")
    eps = _float_arg(args, cfg, "eps")

    chart = _merged(args, cfg, "chart")
    if chart is None:
        chart = "zeta" if eps > 0.0 else "xz"
    if chart not in ("zeta", "xz"):
        raise UsageError(f"chart must be zeta or xz, got {chart!r}")
    if chart == "zeta" and eps == 0.0:
        raise UsageError("the zeta chart needs eps > 0; use --chart xz")

    stops = [(v, s) for v, s in (("z", args.stop_z),
                                 ("zeta", args.stop_zeta),
                                 ("x", args.stop_x)) if s is not None]
    if len(stops) > 1:
        raise UsageError("give at most one of --stop-z/--stop-zeta/--stop-x")
    direction = {"up": +1, "down": -1, "any": 0}[args.stop_direction]
    if stops:
        var, value = stops[0]
        stop = Section(var=var, value=float(value), direction=direction,
                       require_x_positive=args.stop_x_positive)
    elif eps == 0.0:
        # the return section z=z0 never fires with x frozen; default to
        # three decades of fast decay instead
        stop = Section(var="z", value=z0 * 1e-3, direction=-1)
    else:
        stop = Section(var="z", value=z0, direction=+1,
                       require_x_positive=True)

    data = _attracting(m, InitialData(x0=x0, z0=z0, eps=eps))
    integrator = integrate_zeta if chart == "zeta" else integrate_xz
    traj = integrator(m, data, stop, controls)

    print(f"chart={traj.chart} eps={output.fmt(eps)} steps={traj.n_steps} "
          f"rejected={traj.n_rejected} evaluations={traj.evaluations}")
    state_name = "zeta" if traj.chart == "zeta" else "z"
    fmt = output.fmt
    print(f"stop: t={fmt(traj.t[-1])} tau={fmt(traj.tau[-1])} "
          f"x={fmt(traj.x[-1])} {state_name}={fmt(traj.state[-1])}")
    header = output.header_line("simulate", m, {
        "x0": x0, "z0": z0, "eps": eps, "chart": chart,
        "stop": f"{stop.var}:{output.fmt(stop.value)}:{stop.direction:+d}",
    })
    path = os.path.join(out_dir, args.traj_csv)
    output.write_trajectory_csv(path, traj, [header])
    print(f"wrote {path}")
    return 0


def _parse_eps_list(raw) -> list[float]:
    if raw is None:
        raise UsageError("missing required option --eps")
    if isinstance(raw, (list, tuple)):
        values = [_number(v, "eps") for v in raw]
    else:
        parts = [p.strip() for p in str(raw).split(",") if p.strip()]
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise UsageError(f"bad --eps list: {exc}") from exc
    if not values:
        raise UsageError("--eps list is empty")
    return sorted(set(values), reverse=True)


def _cmd_sweep(args, cfg: dict) -> int:
    from .experiment import run_sweep

    m = _resolve_model(args, cfg)
    out_dir = _resolve_out_dir(args, cfg)
    controls = _resolve_controls(args, cfg)
    x0 = _float_arg(args, cfg, "x0")
    z0 = _float_arg(args, cfg, "z0")
    eps_list = _parse_eps_list(_merged(args, cfg, "eps"))
    formats = {p.strip() for p in str(_merged(args, cfg, "formats",
                                              args.formats)).split(",")
               if p.strip()}
    unknown = formats - {"csv", "json"}
    if unknown or not formats:
        raise UsageError("--formats must be a comma subset of csv,json")

    _attracting(m, InitialData(x0=x0, z0=z0, eps=0.0))
    report = run_sweep(m, x0, z0, eps_list, controls=controls,
                       probe_step=args.probe_step)

    fmt = output.fmt
    for r in report.records:
        print(f"eps={fmt(r.eps)}: minz_exponent={fmt(r.minz_exponent)} "
              f"exit_x={fmt(r.exit_x)} tau_exit={fmt(r.tau_exit)} "
              f"hausdorff={fmt(r.hausdorff)} d_exit_dx0={fmt(r.d_exit_dx0)}")
    for f in report.failures:
        print(f"eps={fmt(f.eps)}: FAILED ({f.error})")
    for name, rate in report.rates.items():
        print(f"rate[{name}] = {fmt(rate)}")
    if report.richardson_minz is not None:
        print(f"richardson_minz = {fmt(report.richardson_minz)}")

    params = {"x0": x0, "z0": z0, "eps": ",".join(map(fmt, eps_list))}
    meta = output.make_meta("sweep", m, params)
    if "json" in formats:
        jpath = os.path.join(out_dir, "sweep.json")
        output.write_json(jpath, output.sweep_report_to_dict(report, meta))
        print(f"wrote {jpath}")
    if "csv" in formats:
        cpath = os.path.join(out_dir, "sweep.csv")
        header = output.header_line("sweep", m, params)
        output.write_sweep_csv(cpath, report, [header])
        print(f"wrote {cpath}")
    return 0


def _cmd_geometry(args, cfg: dict) -> int:
    from .entryexit import solve_exit
    from .geometry import (build_configuration, build_manifolds,
                           transversality_det)

    m = _resolve_model(args, cfg)
    out_dir = _resolve_out_dir(args, cfg)
    x0 = _float_arg(args, cfg, "x0")
    z0 = _float_arg(args, cfg, "z0")
    _attracting(m, InitialData(x0=x0, z0=z0, eps=0.0))
    sol = solve_exit(m, x0)
    delta = _merged(args, cfg, "delta")
    if delta is None:
        delta = min(-x0, sol.x1) / 8.0
    delta = _number(delta, "delta")

    config = build_configuration(m, sol, z0, n=args.config_n)
    left, right = build_manifolds(m, x0, sol.x1, delta, n=args.n,
                                  n2=args.n2)

    dets = [transversality_det(m, x0 + i * (sol.x1 - x0) / 100, sol.x1)
            for i in range(101)]
    print(f"x1 = {output.fmt(sol.x1)}")
    print(f"tau1 = {output.fmt(sol.tau1)}")
    print(f"delta = {output.fmt(delta)}")
    print(f"transversality det along gamma0 [{output.fmt(x0)}, "
          f"{output.fmt(sol.x1)}]: min={output.fmt(min(dets))} "
          f"max={output.fmt(max(dets))}")

    params = {"x0": x0, "z0": z0, "delta": delta}
    header = [output.header_line("geometry", m, params)]
    for name, writer, data in (
            ("gamma0.csv", output.write_gamma0_csv, config),
            ("configuration.csv", output.write_configuration_csv, config),
            ("manifold_left.csv", output.write_manifold_csv, left),
            ("manifold_right.csv", output.write_manifold_csv, right)):
        path = os.path.join(out_dir, name)
        writer(path, data, header)
        print(f"wrote {path}")
    return 0


def _cmd_check(args, cfg: dict) -> int:
    m = _resolve_model(args, cfg)
    report = check_hypotheses(m, grid_n=args.grid_n)
    print(m.describe())
    print(report.summary())
    return 0 if report.passed else 1


_COMMANDS = {
    "exit": ("solve the eps = 0 exit problem", _exit_args, _cmd_exit),
    "simulate": ("integrate one trajectory", _simulate_args, _cmd_simulate),
    "sweep": ("delayed-loss measurement over eps", _sweep_args, _cmd_sweep),
    "geometry": ("emit cycle and manifold patches", _geometry_args,
                 _cmd_geometry),
    "check": ("verify sign hypotheses on a model", _check_args, _cmd_check),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(getattr(args, "config", None))
        return _COMMANDS[args.command][2](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except NoExitInWindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DelayLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
