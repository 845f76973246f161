"""delaylab benchmark: seeded CLI workloads timed in one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Workloads (see ``cases.py`` and ``BASELINE.json``): ``sweep`` and
``simulate``.  One client calls ``delaylab.cli.main`` in a closed loop,
single-threaded, with a fresh output directory per case.  Cases come in
rounds that hold one case of every kind in the workload; whole rounds
run until ``--seconds`` of wall time have passed.  A case's latency
covers its ``cli.main`` call only: clearing its output directory,
reading its outputs back and the oracle checks happen outside it.
``setup_s`` is the median time of eleven fresh interpreters importing
``delaylab.cli`` and building its parser.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
untraced loop for 40 % of ``--seconds``, then replays the same cases
with every layer wrapped by ``tracer.Tracer`` (slower by the tracing
overhead, so that the whole run still lasts about ``--seconds``),
prints the per-layer metrics and the tracing overhead, and counts a
case as failed when its traced outputs are not byte-identical to its
untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CASE_DIR = WORK / f"case-{os.getpid()}"
SETUP_REPEATS = 11
TRACE_LOOP_SHARE = 0.4   # of --seconds, untraced, in a --trace 1 run
MIN_CASES = 11          # a tail percentile needs ten samples beyond it
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = ("import time; t = time.perf_counter(); import delaylab.cli as c; "
              "c.build_parser(); print(repr(time.perf_counter() - t))")
# Distinct from every generated case (z0 and x0 lie outside their ranges).
WARMUP = (("sweep", "--model", "linear", "--x0", "-0.7", "--z0", "0.3",
           "--eps", "0.2"),
          ("simulate", "--model", "linear", "--x0", "-0.7", "--z0", "0.3",
           "--eps", "0.3"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_time() -> float:
    """Seconds a fresh interpreter takes to import the CLI and build
    its parser."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- running cases -----------------------------------------------------

def _csv_lines(path: Path) -> list[str]:
    """Header and data lines of a CSV file, without comment lines."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def extract(case, rc, stderr: str) -> dict:
    """Read what the checks need from the case's outputs."""
    out = {"rc": rc, "stderr": stderr}
    d = CASE_DIR
    if case.workload == "sweep" and rc == 0:
        report = json.loads((d / "sweep.json").read_text())
        out["sweep"] = report
        out["csv_rows"] = len(_csv_lines(d / "sweep.csv")) - 1
    elif case.workload == "simulate" and rc == 0:
        lines = _csv_lines(d / "trajectory.csv")
        out["last_row"] = dict(zip(lines[0].split(","), lines[-1].split(",")))
    return out


def digest(stdout: str, stderr: str) -> str:
    """Hash of everything the case wrote: streams and files."""
    h = hashlib.sha256()
    for text in (stdout, stderr):
        h.update(text.encode())
        h.update(b"\0")
    for path in sorted(CASE_DIR.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    def __init__(self, cli):
        self.cli = cli

    def call(self, argv, out_dir: str):
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                rc = self.cli.main(list(argv) + ["--out-dir", out_dir])
            except Exception:   # a crash is a failed case, not a failed run
                rc = "crash: " + traceback.format_exc(limit=3)
        return rc, so.getvalue(), se.getvalue()

    def run(self, case):
        """Run one case: (latency seconds, outcome dict, output digest)."""
        shutil.rmtree(CASE_DIR, ignore_errors=True)
        CASE_DIR.mkdir(parents=True)
        start = time.perf_counter()
        rc, stdout, stderr = self.call(case.command.argv, str(CASE_DIR))
        latency = time.perf_counter() - start
        try:
            outcome = extract(case, rc, stderr)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = {"rc": rc, "error": f"unreadable output: {exc!r}"}
        return latency, outcome, digest(stdout, stderr)

    def warm_up(self):
        shutil.rmtree(CASE_DIR, ignore_errors=True)
        CASE_DIR.mkdir(parents=True)
        for argv in WARMUP:
            self.call(argv, str(CASE_DIR))


def timed_loop(runner, case_rounds, seconds: float):
    """Run whole rounds until ``seconds`` of wall time have passed.

    The bound is wall time, not the sum of the latencies, so that a run
    lasts as long whatever the cases write.  The set-up samples are
    spread over the run, between rounds, so that they meet the same
    machine as the cases do.
    """
    executed, latencies, outcomes, digests, setup = [], [], [], [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds \
            or len(latencies) < MIN_CASES:
        if (len(setup) < SETUP_REPEATS
                and elapsed >= len(setup) * seconds / SETUP_REPEATS):
            setup.append(setup_time())
        for case in next(case_rounds):
            latency, outcome, dig = runner.run(case)
            executed.append(case)
            latencies.append(latency)
            outcomes.append(outcome)
            digests.append(dig)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time())
    return executed, latencies, outcomes, digests, setup


# -- metrics -----------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - 11
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def environment() -> dict:
    import numpy
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": cpus,
            "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delaylab" / "cli.py").is_file():
        print(f"error: no delaylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases
    import oracle
    from delaylab import cli

    setup_time()    # warm-up: leaves the bytecode cache behind
    runner = Runner(cli)
    runner.warm_up()
    # Keep what the benchmark itself has loaded out of the collector's
    # way, as a fresh CLI process would have it.
    gc.collect()
    gc.freeze()
    loop_s = args.seconds * (TRACE_LOOP_SHARE if args.trace else 1.0)
    executed, latencies, outcomes, digests, setup = timed_loop(
        runner, cases.rounds(args.workload, args.seed), loop_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(executed)
    timed_s = sum(latencies)

    mismatched = set()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = [runner.run(case) for case in executed]
        finally:
            tracer.uninstall()
        traced_s = sum(t[0] for t in traced)
        mismatched = {i for i, t in enumerate(traced) if t[2] != digests[i]}

    failures = {}
    exit_err_max = 0.0
    for i, (case, outcome) in enumerate(zip(executed, outcomes)):
        if "error" in outcome:
            errors, worst = [outcome["error"]], 0.0
        else:
            try:
                errors, worst = oracle.check(case, outcome)
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                errors, worst = [f"no oracle answer: {exc!r}"], 0.0
        if i in mismatched:
            errors.append("traced outputs differ from untraced outputs")
        exit_err_max = max(exit_err_max, worst)
        if errors:
            failures[i] = errors

    tail_ms, tail_pct, beyond = tail(latencies)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (n / timed_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cases={n} timed_s={timed_s:.3f} loop=closed clients=1")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"latency_tail_ms is p{tail_pct:.1f}: {beyond} of {n} samples beyond it")
    print(f"failed_ratio = {len(failures) / n:.6g} ratio ({len(failures)}/{n})")
    by_kind: dict[str, list[float]] = {}
    for case, lat in zip(executed, latencies):
        by_kind.setdefault(case.kind, []).append(lat)
    for kind, lats in by_kind.items():
        print(f"  {kind}: n={len(lats)} median_ms={1e3 * statistics.median(lats):.2f}")
    for i, errors in sorted(failures.items())[:10]:
        print(f"FAILED case {i} ({executed[i].kind}): " + "; ".join(errors[:3]))

    if args.trace:
        per_layer = tracer.metrics(n, traced_s)
        per_layer["integrate.exit_err_max"] = (exit_err_max, "1")
        per_layer["trace.overhead_cases_per_s"] = (n / timed_s - n / traced_s, "1/s")
        per_layer["trace.overhead_ratio"] = (traced_s / timed_s - 1.0, "ratio")
        print(f"traced replay: {n / traced_s:.6g} cases/s against "
              f"{n / timed_s:.6g} untraced; {len(mismatched)} cases with "
              "differing outputs")
        for name, (value, unit) in per_layer.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = per_layer
    else:
        metrics = e2e

    shutil.rmtree(CASE_DIR, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
