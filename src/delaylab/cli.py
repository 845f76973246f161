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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_ALL = "exit simulate sweep geometry check"
_REQUIRED = object()  # default of an option that has none


class _Opt:
    """The flag ``--dest`` (``_`` as ``-``) and config key ``dest`` on each
    of the space-separated ``commands``; ``type`` converts the value (bool:
    a switch), and ``kw`` holds further add_argument keywords."""

    def __init__(self, dest, commands, type=str, default=None, help=None,
                 kw=None):
        self.dest, self.commands, self.type = dest, commands, type
        self.default, self.help, self.kw = default, help, kw or {}


def _eps_list(raw) -> list[float]:
    """The sweep's eps values, largest first, from a comma-separated
    string or a config list."""
    parts = raw if isinstance(raw, (list, tuple)) else [
        p for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise UsageError("--eps list is empty")
    return sorted({_scalar(float, v, "eps") for v in parts}, reverse=True)


# Per command, the options in the order of its --help.
_OPTIONS = (
    _Opt("model", _ALL, help="builtin model name "
         f"({', '.join(builtin_names())})"),
    _Opt("f", _ALL, help="drift expression in x, z, eps (custom model)",
         kw=dict(metavar="EXPR")),
    _Opt("g", _ALL, help="loss-rate expression in x, z, eps (custom model)",
         kw=dict(metavar="EXPR")),
    _Opt("window", _ALL, float, (-1.5, 1.5), "validity window for a "
         "custom model", dict(nargs=2, metavar=("LO", "HI"))),
    _Opt("z_cap", _ALL, float, 1.0,
         "largest admissible z0 (custom model, default 1)"),
    _Opt("config", _ALL, help="JSON file with defaults; flags win",
         kw=dict(metavar="PATH")),
    _Opt("out_dir", _ALL, str, ".", "output directory (default: "
         "$DELAYLAB_OUT or '.')", dict(metavar="DIR")),
    _Opt("x0", "exit", float, _REQUIRED, "entry point (negative)"),
    _Opt("curves_csv", "exit", help="also write the slow accumulation "
         "curves as CSV", kw=dict(metavar="NAME")),
    _Opt("curves_n", "exit", int, 512),
    # the integrator controls: the fields of integrate.Controls
    *(_Opt(name, "simulate sweep", kind) for name, kind in (
        ("rel_tol", float), ("abs_tol", float), ("max_steps", int),
        ("initial_step", float), ("max_step", float), ("sample_dt", float))),
    _Opt("x0", "simulate sweep geometry", float, _REQUIRED),
    _Opt("z0", "simulate sweep geometry", float, _REQUIRED),
    _Opt("eps", "simulate", float, _REQUIRED),
    _Opt("eps", "sweep", _eps_list, _REQUIRED,
         "comma-separated eps list, e.g. 0.2,0.1"),
    _Opt("chart", "simulate", help="integration chart (default: zeta when "
         "eps > 0)", kw=dict(choices=("zeta", "xz"))),
    _Opt("stop_z", "simulate", float, help="stop on z crossing this value"),
    _Opt("stop_zeta", "simulate", float,
         help="stop on zeta crossing this value (eps > 0)"),
    _Opt("stop_x", "simulate", float, help="stop on x crossing this value"),
    _Opt("stop_direction", "simulate", str, "any",
         kw=dict(choices=("up", "down", "any"))),
    _Opt("stop_x_positive", "simulate", bool, False,
         "only accept crossings with x > 0"),
    _Opt("traj_csv", "simulate", str, "trajectory.csv"),
    _Opt("probe_step", "sweep", float,
         help="finite-difference step for d(exit)/d(entry)"),
    _Opt("formats", "sweep", str, "csv,json",
         "comma subset of csv,json (default both)"),
    _Opt("delta", "geometry", float,
         help="patch margin (default min(|x0|, x1)/8)"),
    _Opt("n", "geometry", int, 65),
    _Opt("n2", "geometry", int),
    _Opt("config_n", "geometry", int, 513, "samples per cycle piece"),
    _Opt("grid_n", "check", int, 1024),
)


def _arguments() -> dict[str, list[tuple[_Opt, str, dict]]]:
    """Per command, its options with their add_argument flag and
    keywords; each defaults to None, so that a flag not given shows."""
    table = {name: [] for name in _ALL.split()}
    for o in _OPTIONS:
        kw = dict(dest=o.dest, help=o.help, **o.kw,
                  **({"action": "store_true", "default": None}
                     if o.type is bool else
                     {"type": o.type} if o.type in (float, int) else {}))
        for name in o.commands.split():
            table[name].append((o, "--" + o.dest.replace("_", "-"), kw))
    return table


_ARGUMENTS = _arguments()
# config keys: every option but --config itself; two older names of f, g
_KEYS = {o.dest for o in _OPTIONS} - {"config"}
_ALIASES = {"f_expr": "f", "g_expr": "g"}
_KINDS = {float: "a number", int: "an integer", str: "a string",
          bool: "true or false", _eps_list: "a list of numbers"}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser with the subparser that ``command`` names, or
    with every subparser when it names none (help, usage errors)."""
    p = _Parser(prog="delaylab",
                description="numerical laboratory for bifurcation delay in "
                            "planar slow-fast systems")
    p.add_argument("--version", action="version",
                   version=f"delaylab {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            sp = sub.add_parser(name, help=help_text)
            for _, flag, kw in _ARGUMENTS[name]:
                sp.add_argument(flag, **kw)
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
    cfg = {_ALIASES.get(k, k): v for k, v in cfg.items()}
    unknown = sorted(cfg.keys() - _KEYS)
    if unknown:
        raise UsageError(f"unknown key(s) in config {path}: "
                         + ", ".join(unknown))
    return cfg


def _scalar(kind, value, name: str):
    """``value`` as ``kind``, from argv or a config: a number never from a
    JSON boolean, an int never from a fraction, a switch only from one."""
    if kind is bool or kind is str:
        ok = isinstance(value, kind)
    else:
        ok = not isinstance(value, bool) and not (
            kind is int and isinstance(value, float)
            and not value.is_integer())
    if ok:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def _resolve(args, cfg: dict) -> argparse.Namespace:
    """Every option of ``args.command``: its flag if given (for ``out_dir``
    then ``$DELAYLAB_OUT``), else its config key, else its default;
    a given value is converted once, by ``_scalar``."""
    if args.out_dir is None:
        args.out_dir = os.environ.get("DELAYLAB_OUT")
    opts = argparse.Namespace()
    for o, flag, _ in _ARGUMENTS[args.command]:
        value = getattr(args, o.dest)
        if value is None:
            value = cfg.get(o.dest)
        if value is None:
            if o.default is _REQUIRED:
                raise UsageError(f"missing required option {flag}")
            value = o.default
        elif o.kw.get("nargs") == 2:
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise UsageError(
                    f"{o.dest} must be two numbers LO HI, got {value!r}")
            value = tuple(_scalar(o.type, v, o.dest) for v in value)
        else:
            value = _scalar(o.type, value, o.dest)
            choices = o.kw.get("choices", (value,))
            if value not in choices:
                raise UsageError(f"{o.dest} must be one of "
                                 f"{', '.join(choices)}, got {value!r}")
        setattr(opts, o.dest, value)
    return opts


def _resolve_model(opts) -> Model:
    if opts.model is not None and (opts.f is not None or opts.g is not None):
        raise UsageError("give either --model or --f/--g, not both")
    if opts.model is not None:
        return get_model(opts.model)
    if opts.f is None and opts.g is None:
        raise UsageError("no model: give --model NAME or --f EXPR --g EXPR")
    if opts.f is None or opts.g is None:
        raise UsageError("a custom model needs both --f and --g")
    try:
        return model_from_expressions("custom", opts.f, opts.g, opts.window,
                                      z_cap=opts.z_cap)
    except ExpressionError as exc:
        # a malformed expression on the command line is a usage problem
        raise UsageError(str(exc)) from exc


def _resolve_out_dir(opts) -> str:
    os.makedirs(opts.out_dir, exist_ok=True)
    return opts.out_dir


def _resolve_controls(opts):
    from .integrate import Controls

    values = {k: getattr(opts, k) for k in Controls.__dataclass_fields__}
    try:
        return Controls(**{k: v for k, v in values.items() if v is not None})
    except PreconditionError as exc:
        raise UsageError(str(exc)) from exc


def _attracting(m: Model, data: InitialData) -> InitialData:
    """``data``, once ``validate_initial`` passes on it (exit 1 if not)."""
    report = validate_initial(m, data)
    if not report.passed:
        raise PreconditionError(report.summary())
    return data


def _cmd_exit(opts) -> int:
    from .entryexit import slow_curves, solve_exit

    m = _resolve_model(opts)
    out_dir = _resolve_out_dir(opts)
    sol = solve_exit(m, opts.x0)
    for name in ("x1", "zeta0", "tau1", "dx1_dx0", "residual"):
        print(f"{name} = {output.fmt(getattr(sol, name))}")
    meta = output.make_meta("exit", m, {"x0": opts.x0})
    path = os.path.join(out_dir, "exit.json")
    output.write_json(path, output.exit_solution_to_dict(sol, meta))
    print(f"wrote {path}")
    if opts.curves_csv is not None:
        curves = slow_curves(m, opts.x0, sol.x1, sol.tau1, n=opts.curves_n)
        cpath = os.path.join(out_dir, opts.curves_csv)
        header = output.header_line("exit", m, {"x0": opts.x0, "x1": sol.x1})
        output.write_curves_csv(cpath, curves, [header])
        print(f"wrote {cpath}")
    return 0


def _cmd_simulate(opts) -> int:
    from .integrate import Section, integrate_xz, integrate_zeta

    m = _resolve_model(opts)
    out_dir = _resolve_out_dir(opts)
    controls = _resolve_controls(opts)
    x0, z0, eps = opts.x0, opts.z0, opts.eps

    chart = opts.chart or ("zeta" if eps > 0.0 else "xz")
    if chart == "zeta" and eps == 0.0:
        raise UsageError("the zeta chart needs eps > 0; use --chart xz")

    stops = [(v, s) for v, s in (("z", opts.stop_z),
                                 ("zeta", opts.stop_zeta),
                                 ("x", opts.stop_x)) if s is not None]
    if len(stops) > 1:
        raise UsageError("give at most one of --stop-z/--stop-zeta/--stop-x")
    direction = {"up": +1, "down": -1, "any": 0}[opts.stop_direction]
    if stops:
        var, value = stops[0]
        stop = Section(var=var, value=value, direction=direction,
                       require_x_positive=opts.stop_x_positive)
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
    path = os.path.join(out_dir, opts.traj_csv)
    output.write_trajectory_csv(path, traj, [header])
    print(f"wrote {path}")
    return 0


def _cmd_sweep(opts) -> int:
    from .experiment import run_sweep

    m = _resolve_model(opts)
    out_dir = _resolve_out_dir(opts)
    controls = _resolve_controls(opts)
    x0, z0, eps_list = opts.x0, opts.z0, opts.eps
    formats = {p.strip() for p in opts.formats.split(",") if p.strip()}
    unknown = formats - {"csv", "json"}
    if unknown or not formats:
        raise UsageError("--formats must be a comma subset of csv,json")

    _attracting(m, InitialData(x0=x0, z0=z0, eps=0.0))
    report = run_sweep(m, x0, z0, eps_list, controls=controls,
                       probe_step=opts.probe_step)

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


def _cmd_geometry(opts) -> int:
    from .entryexit import solve_exit
    from .geometry import (build_configuration, build_manifolds,
                           transversality_det)

    m = _resolve_model(opts)
    out_dir = _resolve_out_dir(opts)
    x0, z0 = opts.x0, opts.z0
    _attracting(m, InitialData(x0=x0, z0=z0, eps=0.0))
    sol = solve_exit(m, x0)
    delta = opts.delta
    if delta is None:
        delta = min(-x0, sol.x1) / 8.0

    config = build_configuration(m, sol, z0, n=opts.config_n)
    left, right = build_manifolds(m, x0, sol.x1, delta, n=opts.n,
                                  n2=opts.n2)

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


def _cmd_check(opts) -> int:
    m = _resolve_model(opts)
    report = check_hypotheses(m, grid_n=opts.grid_n)
    print(m.describe())
    print(report.summary())
    return 0 if report.passed else 1


_COMMANDS = {
    "exit": ("solve the eps = 0 exit problem", _cmd_exit),
    "simulate": ("integrate one trajectory", _cmd_simulate),
    "sweep": ("delayed-loss measurement over eps", _cmd_sweep),
    "geometry": ("emit cycle and manifold patches", _cmd_geometry),
    "check": ("verify sign hypotheses on a model", _cmd_check),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        return _COMMANDS[args.command][1](_resolve(args, cfg))
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
