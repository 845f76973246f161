"""Byte-for-byte comparison of two delaylab source trees on fixed commands.

Runs every command in ``COMMANDS`` and ``USAGE`` as
``python -m delaylab`` once against each ``--src`` tree (the directory
that holds the ``delaylab`` package), each run in its own temporary
directory, which ``COMMANDS`` also get as ``--out-dir``.  Every run
sees ``COLUMNS=80``, so that help text wraps the same on any terminal.
The directory path is masked in stdout, stderr and the written files;
then stdout, stderr, the exit code and every written file are
compared.  One line per
command says SAME or DIFF, naming the parts that differ; the exit
status is 1 on any DIFF.

    python3 tools/same_outputs.py --src ../parent/src --src src

The commands are ones whose output must not change under a refactor.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

START = ("--x0", "-1", "--z0", "0.1")
SWEEP_EPS = ("--eps", "0.2,0.1,0.05,0.025")
SIN_F = ("--f", "1 + 0.2*sin(x)", "--g", "x + 0.3*z")
Z_COUPLED = ("--f", "1", "--g", "x + 0.5*z")
COMMANDS = (
    ("exit", "--model", "linear", "--x0", "-1", "--curves-csv", "curves.csv"),
    ("exit", "--model", "quadratic", "--x0", "-0.5",
     "--curves-csv", "curves.csv", "--curves-n", "77"),
    ("exit", *SIN_F, "--x0", "-1", "--curves-csv", "curves.csv"),
    ("geometry", "--model", "linear", *START),
    ("geometry", "--model", "quadratic", "--x0", "-0.5", "--z0", "0.1",
     "--n", "17", "--config-n", "65"),
    ("geometry", *SIN_F, *START),
    ("sweep", "--model", "linear", *START, *SWEEP_EPS),
    ("sweep", *Z_COUPLED, *START, *SWEEP_EPS),
    ("simulate", "--model", "linear", *START, "--eps", "0.05"),
    ("simulate", "--model", "linear", *START, "--eps", "1e-4"),
    ("simulate", "--model", "linear", *START, "--eps", "1e-4",
     "--chart", "xz"),
    ("simulate", "--f", "1 + 0.1*z", "--g", "x + 0.5*z", *START,
     "--eps", "0.05"),
    ("check", "--model", "linear"),
    # every other option of the CLI's option table, each set by flag
    ("exit", *Z_COUPLED, "--window", "-1.2", "1.2", "--z-cap", "0.5",
     "--x0", "-1"),
    ("geometry", "--model", "linear", *START, "--delta", "0.1",
     "--n", "17", "--n2", "5", "--config-n", "33"),
    ("sweep", *Z_COUPLED, *START, "--eps", "0.2,0.1", "--probe-step", "1e-3",
     "--formats", "json"),
    ("simulate", "--model", "linear", *START, "--eps", "0.1",
     "--stop-x", "0.5", "--stop-direction", "up", "--traj-csv", "t.csv"),
    ("simulate", "--model", "linear", *START, "--eps", "0.1",
     "--stop-z", "0.05", "--stop-x-positive"),
    ("simulate", *Z_COUPLED, *START, "--eps", "0.1", "--stop-zeta", "0.3",
     "--rel-tol", "1e-6", "--abs-tol", "1e-9", "--max-steps", "5000",
     "--initial-step", "0.01", "--max-step", "0.05", "--sample-dt", "0.05"),
    ("sweep", *SIN_F, *START, "--eps", "0.2,0.1", "--rel-tol", "1e-7",
     "--abs-tol", "1e-10", "--max-steps", "100000", "--initial-step", "0.01",
     "--max-step", "0.2", "--sample-dt", "0.1"),
    ("check", "--f", "2", "--g", "x + x^2/2", "--window", "-1", "1",
     "--z-cap", "0.5", "--grid-n", "64"),
)
# Help, version and usage errors, run without --out-dir.
USAGE = (
    ("--help",),
    *((name, "--help")
      for name in ("exit", "simulate", "sweep", "geometry", "check")),
    ("--version",),
    (),
    ("bogus",),
    ("--model", "linear", "check"),
    ("simulate", "--chart", "bogus"),
)
MASK = b"<OUT>"


def _run(src: Path, argv: tuple[str, ...],
         out_dir: bool) -> dict[str, bytes]:
    """stdout, stderr, exit code and written files of one run, masked."""
    env = {k: v for k, v in os.environ.items() if k != "DELAYLAB_OUT"}
    env["PYTHONPATH"] = str(src)
    env["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run(
            [sys.executable, "-m", "delaylab", *argv,
             *(("--out-dir", out) if out_dir else ())],
            cwd=out, env=env, capture_output=True, timeout=300)
        parts = {"stdout": done.stdout, "stderr": done.stderr,
                 "exit code": str(done.returncode).encode()}
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                parts[str(path.relative_to(out))] = path.read_bytes()
        mask = out.encode()
        return {k: v.replace(mask, MASK) for k, v in parts.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", required=True, metavar="DIR",
                   help="source tree holding the delaylab package; give two")
    args = p.parse_args(argv)
    if len(args.src) != 2:
        p.error("give --src exactly twice")
    a, b = (Path(s).resolve() for s in args.src)
    any_diff = False
    runs = [(c, True) for c in COMMANDS] + [(c, False) for c in USAGE]
    for command, out_dir in runs:
        ra, rb = _run(a, command, out_dir), _run(b, command, out_dir)
        differ = [k for k in sorted(set(ra) | set(rb)) if ra.get(k) != rb.get(k)]
        label = shlex.join(command) or "(no arguments)"
        if differ:
            any_diff = True
            print(f"DIFF  {label}: {', '.join(differ)}")
        else:
            print(f"SAME  {label}: {', '.join(ra)}")
    return 1 if any_diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
