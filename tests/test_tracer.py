"""The benchmark tracer (perfbench/tracer.py) still fits the package.

The tracer hooks public functions by name and reads trajectory and
result fields; a renamed hook or a dropped field would otherwise only
show up as a bad traced benchmark run.
"""

import importlib
import importlib.util
import math
import pkgutil
from pathlib import Path

import delaylab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_every_name_and_reports_finite_metrics(tmp_path):
    for info in pkgutil.iter_modules(delaylab.__path__):
        if info.name != "__main__":
            importlib.import_module(f"delaylab.{info.name}")
    from delaylab import cli

    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        out = str(tmp_path)
        assert cli.main(["simulate", "--f", "1 + 0.1*z", "--g", "x + 0.5*z",
                         "--window", "-1.5", "1.5", "--x0", "-1", "--z0",
                         "0.1", "--eps", "0.1", "--out-dir", out]) == 0
        assert cli.main(["sweep", "--model", "linear", "--x0", "-1", "--z0",
                         "0.1", "--eps", "0.2,0.1", "--out-dir", out]) == 0
    finally:
        tracer.uninstall()

    names = {f"{module}.{attr}" for module, attr, *_ in tracer_module.HOOKS}
    assert names <= tracer.hooked, names - tracer.hooked
    metrics = tracer.metrics(2, 1.0)
    assert metrics
    bad = {k: v for k, (v, _unit) in metrics.items() if not math.isfinite(v)}
    assert not bad, bad
    # the tracer skips a count whose field is gone; these read every
    # Trajectory field it uses (t, n_steps, n_rejected, evaluations)
    for name in ("integrate.steps", "integrate.evals", "integrate.samples"):
        assert metrics[name][0] > 0, name
    # output.rows counts the rows argument of output.write_csv, and
    # output.bytes the files it and write_json leave behind
    data_rows = sum(
        sum(not line.startswith("#") for line in
            (tmp_path / name).read_text().splitlines()) - 1
        for name in ("trajectory.csv", "sweep.csv"))
    assert data_rows > 2
    assert 2 * metrics["output.rows"][0] == data_rows
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert 2 * metrics["output.bytes"][0] == written
    assert 2 * metrics["output.files"][0] == 3
