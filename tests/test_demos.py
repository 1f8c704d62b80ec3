"""The demo scripts and README's Library example run to completion, and
the package exports resolve."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relaysim

ROOT = Path(__file__).resolve().parents[1]


def _python(args, cwd):
    """The finished run of python on args in cwd, with src on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script,args", [
    ("relay_rate_models.py", []),
    ("distance_sweep.py", ["--trials", "20"]),
    ("reliability_cdf.py", ["--trials", "20"]),
])
def test_demo_exits_zero(tmp_path, script, args):
    done = _python([str(ROOT / "demos" / script), *args], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs(tmp_path):
    (code,) = re.findall(r"^```python\n(.*?)^```$",
                         (ROOT / "README.md").read_text(), re.M | re.S)
    done = _python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr


def test_every_export_resolves():
    # and is named in README.md or a demo, else it is a dead export
    text = "".join(path.read_text() for path in [
        ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))])
    for name in relaysim.__all__:
        assert hasattr(relaysim, name), name
        assert re.search(rf"\b{name}\b", text), \
            f"neither README.md nor a demo names {name}"
