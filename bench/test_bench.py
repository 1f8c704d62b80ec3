"""Tests of the benchmark itself.

Each workload passes its output check at a tiny size, corrupted CSVs are
counted as failed operations, the result line follows BENCHMARK.json, and
the benchmark refuses to run without the relaysim source.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import calibration
import check
import run
from spans import Tracer

run.import_relaysim()

import relaysim.cli  # noqa: E402  (needs the source path set above)

REFERENCE = check.load_reference()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 20


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cal():
    with calibration.Calibrator(2) as cal:
        yield cal


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_passes_at_tiny_size(name, cal):
    w = run.WORKLOADS[name]
    op = run.run_op(w, 3, run.Checker(w, REFERENCE), cal, trials=TINY)
    assert op.ok, op.problems
    assert op.rows == (TINY if w.mode == "cdf" else 1) \
        * len(run.STRATEGIES) * len(w.distances())
    assert op.trial_points == TINY * len(w.distances())
    assert len(op.sha256) == 64


def _drop_row(text: str) -> str:
    lines = text.split("\n")
    del lines[5]
    return "\n".join(lines)


def _shift_mean(text: str) -> str:
    """Move the first row's mean to twice the tolerance above reference."""
    lines = text.split("\n")
    fields = lines[1].split(",")
    table = REFERENCE["sweep"]
    mean, std = table["points"][fields[0]][fields[1]]
    n = run.WORKLOADS["sweep_w1"].trials
    tol = check.Z * std * math.sqrt(1 / n + 1 / table["trials"])
    fields[2] = f"{mean + 2 * tol:.6f}"
    lines[1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("corrupt", [_drop_row, _shift_mean])
def test_corrupted_output_counts_as_failed(corrupt, monkeypatch, capsys):
    original = relaysim.cli.format_sweep_csv
    monkeypatch.setattr(relaysim.cli, "format_sweep_csv",
                        lambda results: corrupt(original(results)))
    assert run.main(["--workload", "sweep_w1", "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    meta, result = map(json.loads,
                       capsys.readouterr().out.strip().splitlines()[-2:])
    # The memory operation runs in a fresh interpreter, out of the
    # patch's reach; every operation in this process must fail.
    in_process = [op for op in meta["ops"] if op["peak_mib"] is None]
    assert len(in_process) >= 2
    assert not any(op["ok"] for op in in_process)
    assert result["failed"] == len(in_process)
    assert result["correct"] is False


def test_cdf_check_rejects_dropped_row_and_shifted_mean():
    w = run.WORKLOADS["cdf_w1"]
    out = run.WORK / "test_cdf.csv"
    run.WORK.mkdir(exist_ok=True)
    try:
        assert relaysim.cli.main(w.argv(5, out, trials=TINY)) == 0
        text = out.read_text()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    checker = run.Checker(w, REFERENCE)
    assert checker(text, TINY) == []
    assert any("rows" in p for p in checker(_drop_row(text), TINY))
    # Scale one strategy's samples: order is kept, only the mean moves.
    lines = text.split("\n")
    first = lines[1].split(",")[0]
    shifted = [
        f"{f[0]},{float(f[1]) * 3 + 10:.6f},{f[2]}" if f[0] == first
        else line
        for line, f in ((line, line.split(",")) for line in lines[1:-1])]
    shifted_text = "\n".join([lines[0], *shifted, ""])
    assert any("mean SE" in p for p in checker(shifted_text, TINY))


def test_calibration_waits_for_its_helpers():
    with calibration.Calibrator(2) as cal:
        helpers = list(cal._helpers)
        assert cal.slowdown(1) > 0
        assert cal.slowdown(2) > 0
        with pytest.raises(ValueError):
            cal.slowdown(3)
    assert [h.returncode for h in helpers] == [0, 0]


def test_memory_operation_is_checked_and_measured():
    w = run.WORKLOADS["cdf_w1"]
    tiny = run.Workload("tiny", "cdf", trials=TINY, workers=1,
                        config=w.config, memory_trials=TINY)
    try:
        op = run.memory_op(tiny, 5, run.Checker(w, REFERENCE))
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    assert op.ok, op.problems
    assert op.rows == TINY * len(run.STRATEGIES)
    assert op.peak_mib > 0


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: sum(range(20000)))
    parent = tracer.wrap("parent", lambda: child() + child())
    parent()
    assert tracer.calls("child") == 2
    assert tracer.total("child") > 0
    assert tracer.self_time("parent") == pytest.approx(
        tracer.total("parent") - tracer.total("child"))


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table


@pytest.mark.parametrize("trace,table", [("0", run.END_TO_END),
                                         ("1", run.PER_LAYER)])
def test_result_line_follows_contract(trace, table):
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sweep_w1",
         "--seed", "7", "--seconds", "1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert not run.WORK.exists()


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sweep_w1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
