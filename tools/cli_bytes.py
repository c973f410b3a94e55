"""Print what a fixed list of svrisk commands writes, for byte diffs.

    python3 tools/cli_bytes.py [--src DIR] > out.txt

Runs each command of ``COMMANDS`` in a fresh interpreter with the svrisk
under ``--src`` (default: this checkout's ``src``) and prints, per
command, a ``$ svrisk ...`` line, its stdout, its stderr lines prefixed
with ``! `` and its exit code.  The commands run in a temporary directory
holding ``data.csv``, a seeded ``y,x1,...,x40`` table (80 rows) for
``estimate``; tables go to stdout (``-o -``).  Diffing the output of two
checkouts shows every byte a change moves:

    python3 tools/cli_bytes.py --src ../parent/src > a.txt
    python3 tools/cli_bytes.py > b.txt
    diff a.txt b.txt

The CSV ``# command`` line echoes the arguments, so it matches too.  The
list covers every subcommand, Gaussian and Student-t noise, the
infeasible and eps = 0 paths and every figure preset, on grids short
enough that the whole list runs in about 25 s on 2 cores.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

T3 = "--noise mixture --dof 3"
COMMANDS = [
    "delta-star --eps 0.5",
    f"delta-star --eps 0.5 {T3}",
    "delta-star --eps 1 --noise mixture --dof 10",
    "delta-star --eps 0",
    f"delta-star --eps 0 {T3}",
    "delta-star --eps 20",
    "delta-star --eps 3 --noise mixture --dof 2.1",
    f"risk hsvr --delta 0.95 --eps 1 {T3}",
    "risk hsvr --delta 1.5 --eps 1",
    "risk hsvr --delta 10 --eps 1",
    "risk hsvr --delta 2 --eps 0.6 --sigma 0.001",
    f"risk ssvr --delta 3.8 --eps 0.8 --cost 3.2 {T3}",
    "risk ssvr --delta 2 --eps 0.6 --cost 2.4",
    "risk ssvr --delta 2 --eps 0.6 --cost 100",
    "risk ssvr --delta 2 --eps 0.6 --cost 100 --sigma 0.001",
    f"tune hsvr --delta 5 {T3}",
    "tune hsvr --delta 2",
    "tune hsvr --delta 2 --noise mixture --dof 10",
    "tune hsvr --delta 0.5",
    "tune ssvr --delta 2",
    f"tune ssvr --delta 2 {T3}",
    "solve hsvr --delta 0.5 --eps 0.2 --sigma 0.3 --p 40 --seed 3",
    f"solve ssvr --delta 2 --eps 0.6 --cost 2.4 --p 60 --seed 1 {T3}",
    "solve ridge --delta 2 --sigma 0.5 --p 50 --seed 1",
    "estimate data.csv",
    'sweep ssvr --swept cost --grid "1 2" --delta 2 --eps 0.6 --p 60 --trials 2 -o -',
    'sweep hsvr --swept delta --grid "0.5 1 1.3 1.7 2" --eps 1 --p 100 --trials 3 -o -',
    'sweep ssvr --swept cost --grid "0.5 2.4 100" --delta 2 --eps 0.6 --p 100 --trials 3 -o -',
    "figure 1 -o -",
    'figure 1 --grid "0.5 1" -o -',
    "figure 1 --grid 0.5 --p 50 -o -",
    "figure 2 --grid 0.5 --p 100 --trials 3 -o -",
    'figure 3a --grid "0.1 0.3 0.5 0.7" --p 60 --trials 2 -o -',
    'figure 3b --grid "0.2 0.5 0.8" --p 60 --trials 2 -o -',
    'figure 4 --grid "1 2" -o -',
    'figure 5a --grid "0.2 0.6" --p 60 --trials 2 -o -',
    'figure 5b --grid "0.5 100" --p 60 --trials 2 -o -',
    'figure 6 --grid "1 2" -o -',
    "figure 7a --grid 2.2 --p 60 --trials 2 -o -",
    "figure 7b --grid 1.8 --p 60 --trials 2 -o -",
]


def write_table(path, p=40, n=80, seed=3):
    """A seeded y,x1,...,xp table drawn here with numpy, not by the svrisk
    under test, so both checkouts of a diff read the same bytes."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) / np.sqrt(p)
    y = x @ rng.standard_normal(p) + 0.5 * rng.standard_normal(n)
    header = "y," + ",".join(f"x{i}" for i in range(1, p + 1))
    np.savetxt(path, np.column_stack([y, x]), delimiter=",", header=header, comments="")


def run(src, command, cwd):
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "svrisk.cli", *shlex.split(command)],
                         capture_output=True, text=True, env=env, cwd=cwd)
    err = "".join(f"! {line}\n" for line in out.stderr.splitlines())
    return f"$ svrisk {command}\n{out.stdout}{err}exit {out.returncode}\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    with tempfile.TemporaryDirectory() as cwd:
        write_table(Path(cwd) / "data.csv")
        for command in COMMANDS:
            sys.stdout.write(run(src, command, cwd))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
