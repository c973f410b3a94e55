"""The benchmark harness's set-up code runs against this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_setup_code_runs_against_src():
    # every benchmark run first times SETUP_CODE in a fresh interpreter
    # (import, one mixture hinge_sq_mean, one small soft fit), so a public
    # name it calls that the package drops fails every run
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    out = subprocess.run([sys.executable, "-c", run.SETUP_CODE, str(ROOT / "src")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
