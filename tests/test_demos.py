"""The demo scripts and README's Library and Command line examples run
to completion, and the package exports resolve."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relaysim
from relaysim import cli

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


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    # each line of the first block under "## Command line", run in-process
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(cli.dump_config(cli.Settings()))
    for line in block.replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "relaysim"
        assert cli.main(argv) == 0, line
    sweep = "strategy,distance_m,mean_se,p10_se,p50_se,p90_se\n"
    for name, header in [("sweep.csv", sweep), ("blocked.csv", sweep),
                         ("cdf.csv", "strategy,spectral_efficiency,cdf\n")]:
        assert (tmp_path / name).read_text().startswith(header), name


def test_every_export_resolves():
    # and is named in README.md or a demo, else it is a dead export
    text = "".join(path.read_text() for path in [
        ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))])
    for name in relaysim.__all__:
        assert hasattr(relaysim, name), name
        assert re.search(rf"\b{name}\b", text), \
            f"neither README.md nor a demo names {name}"
