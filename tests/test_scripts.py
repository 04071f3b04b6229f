"""Every script under scripts/ starts: an API change that breaks a script's
imports or its argument parser fails here, not on the script's next run.
The experiment scripts also run their whole body once at a tiny size."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda path: path.name
)
def test_help_exits_zero(script):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, str(script), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_toy_overfit_reports_each_stage_of_each_shape():
    out = run_script("toy_overfit.py", "--epochs", "1", "--shapes", "2", "--points", "64")
    rows = out.split("per-stage CD x1000 on the training shapes (viewpoint (1,1,1)):\n")[1]
    # printed by the loop that split, completed and scored each shape inline;
    # the cube row re-frozen when the fused conv's forward became per-centre
    # and per-reference products
    assert rows.splitlines() == [
        "  sphere     1203.661  1348.347  1466.211  1565.900",
        "  cube       2802.114  2053.268  1770.038  1818.970",
    ]


def test_run_ablations_tabulates_each_variant():
    out = run_script(
        "run_ablations.py", "--epochs", "1", "--shapes", "2", "--points", "64",
        "--variants", "baseline,edge-conv",
    )
    header, *rows = out.splitlines()
    assert header.split() == ["variant", "cd_x1000", "minutes"]
    assert [row.split()[0] for row in rows] == ["baseline", "edge-conv"]
    for row in rows:
        _, cd, minutes = row.split()
        assert float(cd) > 0.0 and float(minutes) >= 0.0
