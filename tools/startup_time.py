"""Start-up cost of delaylab in fresh interpreters.

Prints, as JSON, the median over ``--repeats`` runs of

* ``import_parser_s``: the time a fresh interpreter takes to import
  ``delaylab.cli`` and build its parser, measured inside the child;
* ``commands_s``: the wall time of ``python -m delaylab <cmd>`` on fixed
  arguments for ``simulate``, ``sweep``, ``exit``, ``exit --curves-csv``,
  ``check`` and ``geometry``;

and ``interpreter_s``, the wall time of a bare ``python -c pass``.

Each ``--src`` names a source tree (the directory that holds the
``delaylab`` package); give it twice to time two versions in
alternation, one repeat of each in turn.  Command output goes to a
temporary directory.

    python3 tools/startup_time.py --src src --src ../parent/src --repeats 9
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT_CODE = ("import time; t = time.perf_counter(); import delaylab.cli as c; "
               "c.build_parser(); print(repr(time.perf_counter() - t))")
START = ("--model", "linear", "--x0", "-1", "--z0", "0.1")
COMMANDS = {
    "simulate": ("simulate", *START, "--eps", "0.05"),
    "sweep": ("sweep", *START, "--eps", "0.2,0.1,0.05,0.025"),
    "exit": ("exit", "--model", "linear", "--x0", "-1"),
    "exit --curves-csv": ("exit", "--model", "linear", "--x0", "-1",
                          "--curves-csv", "curves.csv"),
    "check": ("check", "--model", "linear"),
    "geometry": ("geometry", *START),
}


def _run(argv, env, cwd) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return wall, done.stdout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", metavar="DIR",
                   help="source tree holding the delaylab package "
                        "(repeatable; default: src next to this script)")
    p.add_argument("--repeats", type=int, default=9)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    srcs = args.src or [str(Path(__file__).resolve().parent.parent / "src")]
    srcs = [str(Path(s).resolve()) for s in srcs]
    for src in srcs:
        if not (Path(src) / "delaylab" / "cli.py").is_file():
            p.error(f"no delaylab package under {src}")

    py = sys.executable
    interpreter = []
    samples = {src: {"import_parser_s": [],
                     **{cmd: [] for cmd in COMMANDS}} for src in srcs}
    with tempfile.TemporaryDirectory() as work:
        for i in range(args.repeats):
            interpreter.append(_run([py, "-c", "pass"], None, work)[0])
            # rotate the order so that no tree always runs first
            for src in srcs[i % len(srcs):] + srcs[:i % len(srcs)]:
                env = dict(os.environ, PYTHONPATH=src)
                out = _run([py, "-c", IMPORT_CODE], env, work)[1]
                samples[src]["import_parser_s"].append(float(out.split()[-1]))
                for cmd, cmd_argv in COMMANDS.items():
                    wall, _ = _run([py, "-m", "delaylab", *cmd_argv,
                                    "--out-dir", work], env, work)
                    samples[src][cmd].append(wall)

    report = {"python": sys.version.split()[0], "repeats": args.repeats,
              "interpreter_s": statistics.median(interpreter)}
    for src, s in samples.items():
        report[src] = {
            "import_parser_s": statistics.median(s["import_parser_s"]),
            "commands_s": {cmd: statistics.median(s[cmd])
                           for cmd in COMMANDS},
        }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
