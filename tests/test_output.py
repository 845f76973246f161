"""Serialization: round-trip floats, stable headers, no timings."""

import json
import math

import numpy as np

from delaylab import output
from delaylab.experiment import run_sweep
from delaylab.integrate import Trajectory
from delaylab.model import get_model


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
