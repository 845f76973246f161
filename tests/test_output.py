"""Serialization: round-trip floats, stable headers, no timings."""

import json
import math

import numpy as np

from delaylab import output
from delaylab._version import VERSION
from delaylab.entryexit import slow_curves, solve_exit
from delaylab.experiment import SweepRecord, run_sweep
from delaylab.geometry import build_configuration, build_manifolds
from delaylab.integrate import (Section, Trajectory, integrate_xz,
                                integrate_zeta)
from delaylab.model import InitialData, get_model


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(20260816)
    samples = list(rng.uniform(-1e3, 1e3, size=50))
    samples += [0.0, -0.0, 1e-300, -1e300, 0.1 + 0.2, math.pi,
                5e-324, 1.7976931348623157e308]
    for v in samples:
        assert float(output.fmt(v)) == float(v)


def test_header_line_composition():
    m = get_model("linear")
    line = output.header_line("sweep", m, {"x0": -1.0, "jobs": 4})
    assert line.startswith("# delaylab ")
    assert " | sweep | model=linear | x0=-1 | jobs=4" in line
    # pinned: str as it is, int in decimal, anything else by fmt()
    line = output.header_line("simulate", m, {
        "chart": "zeta", "n": 65, "big": 10 ** 20, "x0": -1.0, "z0": 0.1,
        "eps": 5e-324, "neg": -0.0, "huge": 1e308, "flag": True})
    assert line == ("# delaylab " + VERSION + " | simulate | "
                    "model=linear | chart=zeta | n=65 | "
                    "big=100000000000000000000 | x0=-1 | "
                    "z0=0.10000000000000001 | eps=4.9406564584124654e-324 | "
                    "neg=-0 | huge=1e+308 | flag=1")


def test_sweep_json_excludes_wall_time(tmp_path):
    m = get_model("linear")
    report = run_sweep(m, -1.0, 0.1, [0.1])
    assert report.records[0].wall_time_s >= 0.0
    payload = output.sweep_report_to_dict(report, output.make_meta("sweep", m))
    text = json.dumps(payload)
    assert "wall_time" not in text
    path = tmp_path / "sweep.json"
    output.write_json(str(path), payload)
    again = json.loads(path.read_text())
    assert again == payload
    assert path.read_text().endswith("\n")


def _tiny_traj(chart, eps, state):
    t = np.array([0.0, 1.0, 2.0])
    return Trajectory(chart=chart, eps=eps, t=t, tau=eps * t,
                      x=np.array([-1.0, -0.5, 0.0]), state=np.asarray(state),
                      n_steps=2, n_rejected=0, evaluations=10)


def test_trajectory_csv_blanks_unrepresentable_z(tmp_path):
    # zeta/eps > 745 means z underflows double precision: leave the cell empty
    traj = _tiny_traj("zeta", 0.001, [0.3, 0.8, 0.3])
    path = tmp_path / "traj.csv"
    output.write_trajectory_csv(str(path), traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,tau,x,z,zeta,event"
    cells = [line.split(",") for line in lines[1:]]
    assert cells[0][3] != "" and cells[2][3] != ""
    assert cells[1][3] == ""
    assert float(cells[1][4]) == 0.8


def test_trajectory_csv_zeta_column_at_eps_zero(tmp_path):
    traj = _tiny_traj("xz", 0.0, [0.5, 0.25, 0.125])
    path = tmp_path / "traj.csv"
    output.write_trajectory_csv(str(path), traj)
    lines = path.read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[4]) == 0.0  # no slow time scale at eps = 0
        assert cells[3] != ""


# Byte pins: every CSV writer against a formatter that follows the
# per-cell rules the writers are held to: str as it is, int in
# decimal, anything else as fmt() (17 significant digits).
SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
           3.0, -2.0, 1e16, 0.1 + 0.2, math.pi)


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(int(v))
    return f"{float(v):.17g}"


def _expected(names, rows, header_lines=()):
    lines = list(header_lines) + [",".join(names)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def _trajectory_rows(traj):
    last = len(traj.t) - 1
    return [(t, tau, x, "" if traj.chart == "zeta" and z == 0.0 else z,
             zeta, int(i == last))
            for i, (t, tau, x, z, zeta) in enumerate(zip(
                traj.t, traj.tau, traj.x, traj.z(), traj.zeta()))]


def _special_traj(chart, eps, state):
    n = len(state)
    return Trajectory(chart=chart, eps=eps, t=SPECIAL[:n],
                      tau=SPECIAL[1:n + 1], x=SPECIAL[-n:], state=state,
                      n_steps=n - 1, n_rejected=0, evaluations=7 * n)


def _written(tmp_path, writer, data, header):
    path = tmp_path / "out.csv"
    writer(str(path), data, header)
    return path.read_bytes()


def test_trajectory_csv_bytes_in_both_charts(tmp_path):
    m = get_model("linear")
    header = [output.header_line("simulate", m, {"x0": -1.0})]
    zeta_stop = Section(var="z", value=0.1, direction=+1,
                        require_x_positive=True)
    runs = [
        # deep delay: the log chart flushes z to 0 on most rows
        integrate_zeta(m, InitialData(-1.0, 0.1, 1e-4), zeta_stop),
        integrate_zeta(m, InitialData(-1.0, 0.1, 0.05), zeta_stop),
        integrate_xz(m, InitialData(-1.0, 0.1, 0.0),
                     Section(var="z", value=1e-4, direction=-1)),
        _special_traj("zeta", 1e-3, (0.3, 0.8, -0.0, 5e-324, 0.7451, 0.745)),
        _special_traj("xz", 0.0, (5e-324, 0.0, -0.0, 1e308, 3.0, 0.1)),
    ]
    assert sum(row[3] == "" for row in _trajectory_rows(runs[0])) > 10
    for traj in runs:
        names = ("t", "tau", "x", "z", "zeta", "event")
        assert (_written(tmp_path, output.write_trajectory_csv, traj, header)
                == _expected(names, _trajectory_rows(traj), header))


def test_curves_sweep_and_geometry_csv_bytes(tmp_path):
    m = get_model("linear")
    header = [output.header_line("geometry", m, {"x0": -1.0, "n": 9})]
    sol = solve_exit(m, -1.0)
    curves = slow_curves(m, -1.0, sol.x1, sol.tau1, n=9)
    curves = curves._replace(**{k: list(v) + list(SPECIAL)
                                for k, v in curves._asdict().items()})
    report = run_sweep(m, -1.0, 0.1, [0.1])
    records = report.records + tuple(
        SweepRecord(*SPECIAL[i:i + 6], wall_time_s=1.0)
        for i in range(len(SPECIAL) - 5))
    report = report._replace(records=records)
    config = build_configuration(m, sol, 0.1, n=9)
    special_rows = tuple(zip(SPECIAL, SPECIAL[1:], SPECIAL[2:], SPECIAL[3:]))
    config = config._replace(gamma0=config.gamma0 + special_rows,
                             gamma2=special_rows)
    left, right = build_manifolds(m, -1.0, sol.x1, 0.125, n=5, n2=3)
    special = left._replace(
        param1=SPECIAL[:4], param2=SPECIAL[4:7],
        points=tuple(tuple((a, b, a - b) for b in SPECIAL[4:7])
                     for a in SPECIAL[:4]))

    cases = [
        (output.write_curves_csv, curves,
         ("x", "zeta_minus", "tau_minus", "zeta_plus", "tau_plus"),
         list(zip(*curves))),
        (output.write_sweep_csv, report,
         ("eps", "minz_exponent", "exit_x", "tau_exit", "hausdorff",
          "d_exit_dx0"),
         [r[:6] for r in records]),
        (output.write_configuration_csv, config,
         ("piece", "x", "z", "zeta", "tau"),
         [(label, *row) for label, piece in
          zip(("gamma1", "gamma0", "gamma2"), config.pieces())
          for row in piece]),
        (output.write_gamma0_csv, config, ("x", "zeta", "tau"),
         [(r[0], r[2], r[3]) for r in config.gamma0]),
    ]
    for patch in (left, right, special):
        cases.append((output.write_manifold_csv, patch,
                      ("param1", "param2", "x", "zeta", "tau"),
                      [(p1, p2, *pt)
                       for p1, row in zip(patch.param1, patch.points)
                       for p2, pt in zip(patch.param2, row)]))
    for writer, data, names, rows in cases:
        assert (_written(tmp_path, writer, data, header)
                == _expected(names, rows, header)), writer.__name__
