"""The demo scripts run to completion, and the package exports resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaysim

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("relay_rate_models.py", []),
    ("distance_sweep.py", ["--trials", "20"]),
    ("reliability_cdf.py", ["--trials", "20"]),
])
def test_demo_exits_zero(tmp_path, script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_export_resolves():
    for name in relaysim.__all__:
        assert hasattr(relaysim, name), name
