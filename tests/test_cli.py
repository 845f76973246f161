"""End-to-end command line tests driven through cli.main."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from delaylab.cli import _OPTIONS, build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_values(out):
    """Collect `name = number` lines printed by the exit command."""
    vals = {}
    for line in out.splitlines():
        if " = " in line:
            name, _, raw = line.partition(" = ")
            try:
                vals[name.strip()] = float(raw)
            except ValueError:
                pass
    return vals


def read_csv_rows(path):
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    data = list(csv.DictReader(rows[1:], fieldnames=header))
    return comments, header, data


def bisect60(func, lo, hi):
    flo = func(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (func(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_exit_linear(capsys, tmp_path):
    rc, out, _ = run(capsys, "exit", "--model", "linear", "--x0", "-1",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    vals = parse_values(out)
    assert abs(vals["x1"] - 1.0) <= 1e-8
    assert abs(vals["zeta0"] - 0.5) <= 1e-10
    assert abs(vals["tau1"] - 2.0) <= 1e-10
    assert abs(vals["dx1_dx0"] + 1.0) <= 1e-10
    assert abs(vals["residual"]) <= 1e-10
    payload = json.loads((tmp_path / "exit.json").read_text())
    assert payload["meta"]["command"] == "exit"
    assert abs(payload["x1"] - 1.0) <= 1e-8
    assert payload["evaluations"] > 0


def test_exit_custom_expressions_and_curves(capsys, tmp_path):
    rc, out, _ = run(capsys, "exit", "--f", "1", "--g", "x + x^2",
                     "--window", "-0.8", "0.8", "--x0", "-0.5",
                     "--curves-csv", "curves.csv", "--curves-n", "64",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    oracle = bisect60(lambda s: s * s / 2.0 + s ** 3 / 3.0 - 1.0 / 12.0,
                      0.2, 0.6)
    assert abs(parse_values(out)["x1"] - oracle) <= 1e-8
    comments, header, data = read_csv_rows(tmp_path / "curves.csv")
    assert comments and comments[0].startswith("# delaylab")
    assert header == ["x", "zeta_minus", "tau_minus", "zeta_plus", "tau_plus"]
    assert len(data) == 64


def test_exit_error_codes(capsys, tmp_path):
    od = str(tmp_path)
    # entry point on the wrong side of the turning point
    rc, _, err = run(capsys, "exit", "--model", "linear", "--x0", "0.5",
                     "--out-dir", od)
    assert rc == 1 and "error:" in err
    # window too short for the slow segment to balance the loss
    rc, _, err = run(capsys, "exit", "--f", "1", "--g", "x",
                     "--window", "-1.2", "0.5", "--x0", "-1",
                     "--out-dir", od)
    assert rc == 2 and "short by" in err
    # unknown builtin lists the alternatives
    rc, _, err = run(capsys, "exit", "--model", "cubic", "--x0", "-1",
                     "--out-dir", od)
    assert rc == 1 and "linear" in err


def test_usage_errors_exit_64(capsys, tmp_path):
    od = str(tmp_path)
    cases = (
        ("exit", "--model", "linear"),                        # missing --x0
        ("exit", "--x0", "-1"),                               # no model
        ("exit", "--model", "linear", "--f", "1", "--g", "x",
         "--x0", "-1"),                                       # both styles
        ("exit", "--f", "2x", "--g", "x", "--x0", "-1"),      # bad syntax
        ("exit", "--f", "1", "--x0", "-1"),                   # --g missing
        ("simulate", "--model", "linear", "--x0", "-1", "--z0", "0.1",
         "--eps", "0.05", "--sample-dt", "0"),                # zero spacing
        ("simulate", "--model", "linear", "--x0", "-1", "--z0", "0.1",
         "--eps", "0.05", "--rel-tol", "-1"),                 # tolerance < 0
    )
    # --config values that are not numbers (or not a pair, for window)
    configs = (
        ("simulate", {"rel_tol": "abc"}),
        ("simulate", {"max_steps": "many"}),
        ("exit", {"x0": "abc"}),
        ("simulate", {"z0": [0.1]}),
        ("sweep", {"eps": [0.1, "x"]}),
        ("simulate", {"eps": [0.1]}),
        ("check", {"window": [-1.0, "x"]}),
        ("check", {"window": 1.5}),
        ("check", {"z_cap": "big"}),
        ("simulate", {"chart": "polar"}),
        ("simulate", {"x0": True}),
        ("simulate", {"max_steps": 2.5}),
        ("simulate", {"stop_x_positive": 1}),
        ("simulate", {"stop_x_positive": "true"}),
    )
    base = {"simulate": {"x0": -1, "z0": 0.1, "eps": 0.05},
            "sweep": {"x0": -1, "z0": 0.1, "eps": [0.2, 0.1]},
            "exit": {"x0": -1}, "check": {}}
    for i, (command, bad) in enumerate(configs):
        path = tmp_path / f"cfg{i}.json"
        model = {"f": "1", "g": "x"} if "window" in bad or "z_cap" in bad \
            else {"model": "linear"}
        path.write_text(json.dumps({**model, **base[command], **bad}))
        cases += ((command, "--config", str(path)),)
    for argv in cases:
        out_dir = ("--out-dir", od) if argv[0] != "check" else ()
        rc, _, err = run(capsys, *argv, *out_dir)
        assert rc == 64, argv
        assert "usage error" in err, argv
    rc = main([])  # no command at all
    capsys.readouterr()
    assert rc == 64


def test_simulate_default_stop(capsys, tmp_path):
    rc, out, _ = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0.05",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    assert "chart=zeta" in out
    assert "stop:" in out
    comments, header, data = read_csv_rows(tmp_path / "trajectory.csv")
    assert comments[0].startswith("# delaylab")
    assert header == ["t", "tau", "x", "z", "zeta", "event"]
    last = data[-1]
    assert last["event"] == "1"
    assert abs(float(last["x"]) - 1.0) <= 1e-6
    assert abs(float(last["z"]) - 0.1) <= 1e-6


def test_simulate_eps_zero_uses_xz_chart(capsys, tmp_path):
    rc, out, _ = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    assert "chart=xz" in out
    stop_line = next(l for l in out.splitlines() if l.startswith("stop:"))
    fields = dict(p.split("=") for p in stop_line.split()[1:])
    # default stop: three decades of fast decay with x frozen
    assert abs(float(fields["t"]) - math.log(1000.0)) <= 1e-6
    assert abs(float(fields["x"]) + 1.0) <= 1e-12
    assert abs(float(fields["z"]) - 1e-4) <= 1e-12
    # the zeta chart is undefined at eps = 0
    rc, _, err = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0", "--chart", "zeta",
                     "--out-dir", str(tmp_path))
    assert rc == 64 and "--chart xz" in err


def test_simulate_deep_eps_needs_zeta_chart(capsys, tmp_path):
    rc, out, _ = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "1e-4",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    _, _, data = read_csv_rows(tmp_path / "trajectory.csv")
    assert any(row["z"] == "" for row in data)  # below double precision
    rc, _, err = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "1e-4", "--chart", "xz",
                     "--out-dir", str(tmp_path))
    assert rc == 1 and "integrate_zeta" in err


def test_simulate_stop_flags(capsys, tmp_path):
    od = str(tmp_path)
    rc, _, err = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0.1", "--stop-z", "0.5",
                     "--stop-x", "0", "--out-dir", od)
    assert rc == 64 and "at most one" in err
    rc, out, _ = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0.1", "--stop-zeta", "0.4",
                     "--stop-direction", "up", "--out-dir", od)
    assert rc == 0
    stop_line = next(l for l in out.splitlines() if l.startswith("stop:"))
    fields = dict(p.split("=") for p in stop_line.split()[1:])
    assert abs(float(fields["zeta"]) - 0.4) <= 1e-9



def test_simulate_rejects_non_attracting_entry(capsys, tmp_path):
    # g(-1, z, 0) = -1 + 12 z turns positive below z0 = 0.1
    rc, out, err = run(capsys, "simulate", "--f", "1", "--g", "x + 12*z",
                       "--x0", "-1", "--z0", "0.1", "--eps", "0.05",
                       "--stop-x", "0.5", "--out-dir", str(tmp_path))
    assert rc == 1 and out == ""
    assert err.startswith("error: FAIL g(x0, z, 0) < 0 on [0, z0]")
    assert not (tmp_path / "trajectory.csv").exists()


def test_sweep_and_geometry_reject_non_attracting_entry(capsys, tmp_path):
    # the entry check of simulate, before any file is written
    for command, extra in (("sweep", ("--eps", "0.1,0.05")),
                           ("geometry", ())):
        rc, out, err = run(capsys, command, "--f", "1", "--g", "x + 12*z",
                           "--x0", "-1", "--z0", "0.1", *extra,
                           "--out-dir", str(tmp_path))
        assert rc == 1 and out == "", command
        assert err.startswith("error: FAIL g(x0, z, 0) < 0 on [0, z0]: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_parser_builds_only_the_named_subparser(capsys, monkeypatch):
    every = "{exit,simulate,sweep,geometry,check}"
    assert every in build_parser().format_usage()
    assert every in build_parser("bogus").format_usage()
    assert "{sweep}" in build_parser("sweep").format_usage()
    # main() without argv reads sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["delaylab", "check", "--model",
                                      "linear"])
    assert main() == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["delaylab", "bogus"])
    assert main() == 64
    assert "choose from 'exit', 'simulate'" in capsys.readouterr().err


def test_simulate_z_overflow_exits_1(capsys, tmp_path):
    # past x = 1 the log chart reaches zeta/eps = -958: z = e^958
    rc, _, err = run(capsys, "simulate", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "5e-4", "--stop-x", "1.4",
                     "--out-dir", str(tmp_path))
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: z = exp(")
    assert "overflows" in err
    assert not (tmp_path / "trajectory.csv").exists()

def test_sweep_cli_outputs(capsys, tmp_path):
    rc, out, _ = run(capsys, "sweep", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0.1,0.05",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    assert "richardson_minz" in out
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["meta"]["command"] == "sweep"
    assert [r["eps"] for r in payload["records"]] == [0.1, 0.05]
    assert all("wall_time_s" not in r for r in payload["records"])
    assert abs(payload["richardson_minz"] - 0.5) <= 1e-2
    comments, header, data = read_csv_rows(tmp_path / "sweep.csv")
    assert header[0] == "eps" and len(data) == 2


def test_sweep_reruns_write_identical_files(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("sweep", "--model", "linear", "--x0", "-1", "--z0", "0.1",
            "--eps", "0.1,0.05")
    assert run(capsys, *args, "--out-dir", str(a))[0] == 0
    assert run(capsys, *args, "--out-dir", str(b))[0] == 0
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_formats_and_eps_validation(capsys, tmp_path):
    od = str(tmp_path)
    rc, _, _ = run(capsys, "sweep", "--model", "linear", "--x0", "-1",
                   "--z0", "0.1", "--eps", "0.1", "--formats", "json",
                   "--out-dir", od)
    assert rc == 0
    assert (tmp_path / "sweep.json").exists()
    assert not (tmp_path / "sweep.csv").exists()
    rc, _, err = run(capsys, "sweep", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", "0.1", "--formats", "yaml",
                     "--out-dir", od)
    assert rc == 64 and "formats" in err
    rc, _, err = run(capsys, "sweep", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--eps", ",", "--out-dir", od)
    assert rc == 64 and "empty" in err


def test_out_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DELAYLAB_OUT", str(tmp_path))
    rc, _, _ = run(capsys, "exit", "--model", "linear", "--x0", "-1")
    assert rc == 0
    assert (tmp_path / "exit.json").exists()


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "linear", "x0": -1.0, "z0": 0.1,
                               "eps": 0.1, "out_dir": str(tmp_path)}))
    rc, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert rc == 0 and (tmp_path / "trajectory.csv").exists()
    # a flag wins over the config value
    rc, out, _ = run(capsys, "exit", "--config", str(cfg), "--x0", "-0.5")
    assert rc == 0
    assert abs(parse_values(out)["x1"] - 0.5) <= 1e-8
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    rc, _, err = run(capsys, "exit", "--config", str(bad), "--x0", "-1")
    assert rc == 64 and "JSON object" in err
    rc, _, err = run(capsys, "exit", "--config", str(tmp_path / "nope.json"),
                     "--x0", "-1")
    assert rc == 64


# per option, the argv after its flag and the same value as a config value
_OPTION_VALUES = {
    "model": (("scaled",), "scaled"),
    "f": (("1 + 0.1*z",), "1 + 0.1*z"),
    "g": (("x + 0.3*z",), "x + 0.3*z"),
    "window": (("-1.2", "1.2"), [-1.2, 1.2]),
    "z_cap": (("0.5",), 0.5),
    "out_dir": (("sub",), "sub"),
    "x0": (("-0.8",), -0.8),
    "curves_csv": (("k.csv",), "k.csv"),
    "curves_n": (("33",), 33),
    "rel_tol": (("1e-6",), 1e-6),
    "abs_tol": (("1e-9",), 1e-9),
    "max_steps": (("500",), 500),
    "initial_step": (("0.01",), 0.01),
    "max_step": (("0.05",), 0.05),
    "sample_dt": (("0.05",), 0.05),
    "z0": (("0.2",), 0.2),
    "eps": (("0.1",), 0.1),
    ("sweep", "eps"): (("0.2,0.1",), [0.2, 0.1]),
    "chart": (("xz",), "xz"),
    "stop_z": (("0.5",), 0.5),
    "stop_zeta": (("0.3",), 0.3),
    "stop_x": (("0.5",), 0.5),
    "stop_direction": (("up",), "up"),
    "stop_x_positive": ((), True),
    "traj_csv": (("t.csv",), "t.csv"),
    "probe_step": (("1e-3",), 1e-3),
    "formats": (("json",), "json"),
    "delta": (("0.1",), 0.1),
    "n": (("17",), 17),
    "n2": (("5",), 5),
    "config_n": (("33",), 33),
    "grid_n": (("128",), 128),
}
_OPTION_BASE = {
    "exit": {"x0": -1, "curves_csv": "c.csv"},
    "simulate": {"x0": -1, "z0": 0.1, "eps": 0.2},
    "sweep": {"x0": -1, "z0": 0.1, "eps": [0.2]},
    "geometry": {"x0": -1, "z0": 0.1, "n": 9, "config_n": 17},
    "check": {"grid_n": 64},
}
# options that only show with another one set
_OPTION_NEEDS = {"stop_direction": {"stop_x": 0.5},
                 "stop_x_positive": {"stop_z": 0.05}}


def test_every_option_reads_alike_from_flag_and_config(capsys, tmp_path,
                                                       monkeypatch):
    # each option on each command that takes it, once as its flag and
    # once as its config key over the same config: the same exit code,
    # output and files
    monkeypatch.delenv("DELAYLAB_OUT", raising=False)
    custom = {"f": "1", "g": "x + 0.5*z"}
    for i, o in enumerate(_OPTIONS):
        if o.dest == "config":
            continue
        for command in o.commands.split():
            words, value = (_OPTION_VALUES.get((command, o.dest))
                            or _OPTION_VALUES[o.dest])
            base = {**({"model": "linear"} if o.dest == "model" else custom),
                    **_OPTION_BASE[command], **_OPTION_NEEDS.get(o.dest, {})}
            base.pop(o.dest, None)
            flag = ("--" + o.dest.replace("_", "-"), *words)
            runs = []
            for j, (argv, cfg) in enumerate(((flag, base),
                                             ((), {**base, o.dest: value}))):
                run_dir = tmp_path / f"{i}-{command}-{j}"
                run_dir.mkdir()
                monkeypatch.chdir(run_dir)
                path = tmp_path / f"{i}-{command}-{j}.json"
                path.write_text(json.dumps(cfg))
                rc, out, err = run(capsys, command, "--config", str(path),
                                   *argv)
                files = {str(p.relative_to(run_dir)): p.read_bytes()
                         for p in run_dir.rglob("*") if p.is_file()}
                runs.append((rc, out, err, files))
            assert runs[0] == runs[1], (command, o.dest)
            assert runs[0][0] == 0, (command, o.dest, runs[0][2])
            if o.dest == "formats":
                assert set(runs[1][3]) == {"sweep.json"}


def test_config_keys_of_no_command_are_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # keys that only other commands read are ignored
    cfg.write_text(json.dumps({"model": "linear", "eps": [0.1],
                               "traj_csv": "t.csv", "formats": "json"}))
    assert run(capsys, "check", "--config", str(cfg))[0] == 0
    cfg.write_text(json.dumps({"f_expr": "1", "g_expr": "x"}))
    assert run(capsys, "check", "--config", str(cfg))[0] == 0
    cfg.write_text(json.dumps({"model": "linear", "reltol": 1e-3}))
    rc, out, err = run(capsys, "check", "--config", str(cfg))
    assert rc == 64 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "reltol" in err


def test_geometry_cli(capsys, tmp_path):
    rc, out, _ = run(capsys, "geometry", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--n", "17", "--config-n", "65",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    assert "transversality det" in out
    assert "min=-1.0000" in out and "max=-1.0000" in out
    for name in ("gamma0.csv", "configuration.csv", "manifold_left.csv",
                 "manifold_right.csv"):
        assert (tmp_path / name).exists(), name
    _, header, data = read_csv_rows(tmp_path / "gamma0.csv")
    assert header == ["x", "zeta", "tau"]
    assert len(data) == 65
    _, header, data = read_csv_rows(tmp_path / "configuration.csv")
    assert header == ["piece", "x", "z", "zeta", "tau"]
    assert {row["piece"] for row in data} == {"gamma1", "gamma0", "gamma2"}
    rc, _, err = run(capsys, "geometry", "--model", "linear", "--x0", "-1",
                     "--z0", "0.1", "--delta", "0.9",
                     "--out-dir", str(tmp_path))
    assert rc == 1 and "delta" in err


def test_check_cli(capsys, tmp_path):
    rc, out, _ = run(capsys, "check", "--model", "linear", "--grid-n", "64")
    assert rc == 0 and "PASS" in out
    rc, out, _ = run(capsys, "check", "--f", "-1", "--g", "x",
                     "--window", "-1.5", "1.5", "--grid-n", "64")
    assert rc == 1 and "FAIL" in out


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(code: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_float_paths_never_import_numpy(tmp_path):
    # every command, the geometry builders and the slow curves included,
    # runs on plain floats
    code = """
import sys
from delaylab.cli import main
od = ["--out-dir", "."]
model = ["--f", "1 + 0.1*z", "--g", "x + 0.5*z"]
start = ["--x0", "-1", "--z0", "0.1"]
runs = (
    ["simulate", *model, *start, "--eps", "0.05", "--chart", "zeta", *od],
    ["simulate", *model, *start, "--eps", "0.05", "--chart", "xz", *od],
    ["sweep", "--model", "linear", *start, "--eps", "0.2,0.1", *od],
    ["exit", "--model", "linear", "--x0", "-1", *od],
    ["exit", "--model", "linear", "--x0", "-1", "--curves-csv", "c.csv", *od],
    ["check", "--model", "linear"],
    ["geometry", "--model", "linear", *start, "--n", "9", "--config-n", "17",
     *od],
)
for argv in runs:
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
print("OK")
"""
    assert _run_python(code, tmp_path).splitlines()[-1] == "OK"
    assert (tmp_path / "c.csv").exists()
    assert (tmp_path / "manifold_right.csv").exists()


def test_startup_loads_only_what_the_command_uses(tmp_path):
    # `import delaylab` loads no numerical module, the parser needs none,
    # and each command imports only the modules it runs
    code = """
import sys

def loaded():
    return {m for m in sys.modules if m.startswith("delaylab")}

import delaylab
assert loaded() == {"delaylab", "delaylab._version"}, loaded()
from delaylab.cli import build_parser, main
build_parser()
numeric = {"delaylab." + m for m in
           ("integrate", "entryexit", "experiment", "geometry")}
assert not loaded() & numeric, loaded()
assert main(["simulate", "--model", "linear", "--x0", "-1", "--z0", "0.1",
             "--eps", "0.1", "--out-dir", "."]) == 0
assert "delaylab.integrate" in loaded()
assert not loaded() & (numeric - {"delaylab.integrate"}), loaded()
print("OK")
"""
    assert _run_python(code, tmp_path).splitlines()[-1] == "OK"
    code = """
import delaylab
names = dir(delaylab)
for name in delaylab.__all__:
    assert getattr(delaylab, name) is not None, name
    assert name in names, name
assert delaylab.quad is delaylab.numerics.integrate
try:
    delaylab.no_such_name
except AttributeError:
    print("OK")
"""
    assert _run_python(code, tmp_path).splitlines()[-1] == "OK"
