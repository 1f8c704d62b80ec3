"""relaysim benchmark: one workload, driven through `relaysim.cli.main`.

    python3 bench/run.py --workload sweep_w1 --seed 1 --seconds 25 --trace 0

Every operation is one `main(argv)` call on a fixed-size input whose
simulator seed is drawn from --seed; its CSV is checked (check.py) and
counted as failed if main raises, returns nonzero, or the check fails.
Operations repeat until --seconds have passed; an untraced run then makes
one more, at user size in a fresh interpreter, for the memory metric.
The last line of stdout is the result JSON; the line before it records
run metadata, each operation (seed, timings, CSV sha256) and, when
traced, the span table.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run
that wraps the library's public functions where their callers look them
up and reports per-layer metrics; see README.md for what each one means.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, time

import calibration
import check
from spans import Tracer, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STRATEGIES = ("direct", "af_single", "df_single", "af_beamform2",
              "df_beamform2", "twoway_af", "twoway_df", "direct_exchange",
              "uni_af_exchange", "uni_df_exchange")

END_TO_END = {
    "trials_per_s": "1/s",
    "cpu_us_per_trial": "us",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "scenario.stream_us": "us",
    "scenario.sample_us": "us",
    "scenario.draws_per_trial": "count",
    "scenario.interferers_per_trial": "count",
    "propagation.link_set_us": "us",
    "propagation.cochannel_ratio": "ratio",
    "strategies.eval_us": "us",
    "strategies.evals": "count",
    "montecarlo.trial_overhead_us": "us",
    "montecarlo.aggregate_us": "us",
    "montecarlo.pools_started": "count",
    "montecarlo.pool_start_ms": "ms",
    "cli.resolve_ms": "ms",
    "cli.format_us_per_row": "us",
    "cli.rows": "count",
    "cli.bytes_out": "bytes",
    "cli.write_ms": "ms",
    "trace.trials_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# Pairs of fresh interpreters started to time set-up; the first pair only
# warms the bytecode cache, which users do not pay for on every run.
SETUP_PROBES = 11


@dataclass(frozen=True)
class Workload:
    """A fixed-size `relaysim` invocation; README.md says why each exists."""

    name: str
    mode: str
    trials: int
    workers: int
    lstep: float = 10.0        # sweep grid 10..100 m
    distance_m: float = 70.0   # cdf mode
    config: str | None = None  # config file in this directory
    memory_trials: int = 1000  # per point, in the memory operation

    def distances(self) -> list[float]:
        if self.mode == "cdf":
            return [self.distance_m]
        return [10.0 + k * self.lstep
                for k in range(round(90.0 / self.lstep) + 1)]

    def argv(self, seed: int, out: Path, trials: int | None = None,
             workers: int | None = None) -> list[str]:
        argv = ["--mode", self.mode, "--seed", str(seed),
                "--trials", str(trials or self.trials),
                "--workers", str(workers or self.workers),
                "--strategies", ",".join(STRATEGIES), "--out", str(out)]
        if self.mode == "sweep":
            argv += ["--lmin", "10", "--lmax", "100",
                     "--lstep", f"{self.lstep:g}"]
        else:
            argv += ["--distance", f"{self.distance_m:g}"]
        if self.config:
            argv += ["--config", str(BENCH / self.config)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("sweep_w1", "sweep", trials=50, workers=1),
    Workload("cdf_w1", "cdf", trials=400, workers=1, config="cdf_w1.conf",
             memory_trials=10_000),
    Workload("fine_sweep_w2", "sweep", trials=50, workers=2, lstep=2.0,
             memory_trials=200),
)}


@dataclass
class Op:
    seed: int
    trial_points: int
    wall_s: float
    cpu_s: float
    slowdown: float  # host slowdown just before the call (calibration.py)
    traced: bool
    problems: list[str]
    sha256: str = ""
    rows: int = 0
    bytes: int = 0
    peak_mib: float | None = None  # set on the memory operation only

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        return {"seed": self.seed, "traced": self.traced,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "slowdown": self.slowdown,
                "sha256": self.sha256, "rows": self.rows,
                "bytes": self.bytes, "ok": self.ok,
                "peak_mib": self.peak_mib, "problems": self.problems[:5]}


def import_relaysim():
    """Import relaysim from this checkout's source tree, or exit 1."""
    if not (SRC / "relaysim" / "cli.py").is_file():
        sys.exit(f"bench: no relaysim source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import relaysim.cli
    return relaysim


def _cpu_s() -> float:
    """User + system CPU of this process and the children it waited for."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Checker:
    """Checks each operation's CSV (check.py) and keeps running sums of
    the means of passing operations for the pooled test."""

    def __init__(self, w: Workload, reference: dict) -> None:
        self.w = w
        self.reference = reference
        self.sums: dict[tuple[str, str], float] = defaultdict(float)
        self.trials = 0

    def __call__(self, text: str, trials: int) -> list[str]:
        if self.w.mode == "sweep":
            problems, means = check.check_sweep(
                text, list(STRATEGIES), self.w.distances(), trials,
                self.reference)
        else:
            problems, means = check.check_cdf(
                text, list(STRATEGIES), self.w.distance_m, trials,
                self.reference)
        if not problems:
            for key, mean in means.items():
                self.sums[key] += mean * trials
            self.trials += trials
        return problems

    def pooled_problems(self) -> list[str]:
        """The same test on the mean over all passing operations. It is
        about sqrt(operations) times tighter, so it catches a small bias
        that one operation would hide."""
        if not self.trials:
            return []
        means = {key: s / self.trials for key, s in self.sums.items()}
        return check.compare_means(means, self.trials,
                                   self.reference[self.w.mode])


def run_op(w: Workload, seed: int, checker: Checker,
           cal: calibration.Calibrator, *, trials: int | None = None,
           workers: int | None = None, traced: bool = False) -> Op:
    """One checked `relaysim.cli.main` call; only the call itself is timed."""
    import relaysim.cli
    trials = trials or w.trials
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{w.name}.csv"
    argv = w.argv(seed, out, trials, workers)
    slowdown = cal.slowdown(workers or w.workers)
    cpu0, t0 = _cpu_s(), perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            rc = relaysim.cli.main(argv)
        problem = None if rc == 0 else f"main returned {rc}"
    except Exception:
        traceback.print_exc()
        problem = "main raised"
    wall, cpu = perf_counter() - t0, _cpu_s() - cpu0
    op = Op(seed, trials * len(w.distances()), wall, cpu, slowdown, traced,
            [problem] if problem else [])
    return check_output(op, w, out, checker, trials)


def check_output(op: Op, w: Workload, out: Path, checker: Checker,
                 trials: int) -> Op:
    """Reads, digests, checks and removes the CSV of a successful call."""
    if op.ok:
        try:
            data = out.read_bytes()
            out.unlink()
        except OSError as exc:
            op.problems = [f"cannot read output: {exc}"]
        else:
            op.sha256 = hashlib.sha256(data).hexdigest()
            op.bytes = len(data)
            text = data.decode("utf-8", errors="replace")
            op.rows = text.count("\n") - 1
            op.problems = checker(text, trials)
    for p in op.problems[:5]:
        print(f"bench: {w.name} seed {op.seed}: {p}", file=sys.stderr)
    return op


def rates(ops: list[Op], calibrated: bool = True) -> list[float]:
    """Trial-points per second of each passing operation, by default at
    the reference host speed (calibration.py)."""
    return [op.trial_points / op.wall_s * (op.slowdown if calibrated else 1)
            for op in ops if op.ok]


def memory_op(w: Workload, seed: int, checker: Checker) -> Op:
    """One checked, untimed operation with about 10**4 trial-points, the
    size users run, in a fresh interpreter (memory_probe.py). It reports
    how far the operation raised the peak RSS above the peak after
    imports and set-up.

    It runs at workers 1. Pool workers are forked copies of the parent:
    their peaks cannot be added to it, and their peak above the parent's
    mostly counts pages of the parent they happen to touch again.
    Its wall time is recorded but feeds no timing metric, so the host
    speed is not calibrated out of it (slowdown 1, CPU 0).
    """
    trials = w.memory_trials
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{w.name}.memory.csv"
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "memory_probe.py"),
             *w.argv(seed, out, trials, workers=1)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
            capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        probe, problem = {}, "memory probe timed out"
    else:
        sys.stderr.write(done.stderr)
        try:
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            problem = (None if probe["rc"] == 0
                       else f"main returned {probe['rc']}")
        except (IndexError, ValueError, KeyError):
            probe = {}
            problem = f"memory probe exited with {done.returncode}"
    op = Op(seed, trials * len(w.distances()), probe.get("wall_s", 0.0),
            0.0, 1.0, False, [problem] if problem else [],
            peak_mib=probe.get("peak_kib", 0) / 1024.0)
    return check_output(op, w, out, checker, trials)


def setup_seconds(w: Workload, seed: int) -> list[float]:
    """Fresh interpreter to settings resolved, once per probe, calibrated.

    Each probe is paired with a fresh interpreter that only imports numpy.
    Both are process start-up and imports, so the pair slows together
    when the host does; the ratio, times the numpy-only time of a quiet
    host, is what relaysim adds on top of its own start-up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    full = [sys.executable, str(BENCH / "setup_probe.py"),
            *w.argv(seed, WORK / "unused.csv")]
    bare = [sys.executable, "-c", "import time, numpy; print(repr(time.time()))"]
    samples = []
    for _ in range(SETUP_PROBES):
        pair = []
        for argv in (bare, full):
            start = time()
            done = subprocess.run(argv, env=env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=60, check=True)
            pair.append(float(done.stdout.strip().splitlines()[-1]) - start)
        samples.append(pair[1] / pair[0] * calibration.NUMPY_START_S)
    return samples[1:]


def pool_start_ms(reps: int = 5) -> float:
    """run_point at the smallest parallel size (trials = 2 * workers),
    workers 2 minus workers 1, medians over reps."""
    try:
        from relaysim.montecarlo import run_point
        from relaysim.scenario import ScenarioConfig
    except ImportError:
        return 0.0  # layer removed
    config = ScenarioConfig()
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(reps):
        for workers in (2, 1):
            t0 = perf_counter()
            run_point(config, 4, workers=workers)
            times[workers].append(perf_counter() - t0)
    return (statistics.median(times[2]) - statistics.median(times[1])) * 1e3


class SampleCounts:
    """Exact counts taken from each ScenarioSample the engine draws."""

    def __init__(self) -> None:
        self.trials = self.interferers = self.cochannel = self.draws = 0

    def __call__(self, s) -> None:
        if not all(hasattr(s, a) for a in
                   ("interferers", "channel_index", "relay_positions",
                    "fading")):
            return  # a sample of another shape: count nothing
        n = len(s.interferers)
        self.trials += 1
        self.interferers += n
        self.cochannel += sum(i.channel_index == s.channel_index
                              for i in s.interferers)
        # Variates in contract order: channel, (x, y) per relay, count,
        # (x, y, channel) per interferer, two normals per distinct fading
        # gain (payload gains are stored once per direction).
        self.draws += (2 + 2 * len(s.relay_positions) + 3 * n
                       + 2 * len(set(s.fading.values())))


def layer_targets(tracer: Tracer, counts: SampleCounts) -> list:
    """Each public function, patched where its caller looks it up."""
    from relaysim import cli, montecarlo, scenario

    def span(name, on_result=None):
        return lambda fn: tracer.wrap(name, fn, on_result)

    return [
        (scenario, "trial_stream", span("scenario.trial_stream")),
        (montecarlo, "sample_positions",
         span("scenario.sample_positions", counts)),
        (montecarlo, "build_link_set", span("propagation.build_link_set")),
        (montecarlo, "evaluate_strategy",
         span("strategies.evaluate_strategy")),
        (montecarlo, "run_point", span("montecarlo.run_point")),
        (montecarlo, "SummaryStats.from_samples", span("montecarlo.aggregate")),
        (montecarlo, "EmpiricalCdf.from_samples", span("montecarlo.aggregate")),
        (cli, "resolve_settings", span("cli.resolve_settings")),
        (cli, "run", span("cli.run")),
        (cli, "format_sweep_csv", span("cli.format")),
        (cli, "format_cdf_csv", span("cli.format")),
        (cli, "main", span("cli.main")),
    ]


def pools_per_op(w: Workload, seed: int, checker: Checker,
                 cal: calibration.Calibrator) -> tuple[Op, int]:
    """One operation at the workload's own worker count, counting pools."""
    from relaysim import montecarlo
    started = [0]

    def counting(executor):
        def start(*args, **kwargs):
            started[0] += 1
            return executor(*args, **kwargs)
        return start

    with patched([(montecarlo, "ProcessPoolExecutor", counting)]):
        op = run_op(w, seed, checker, cal)
    return op, started[0]


def traced_run(w: Workload, seeds: random.Random, seconds: float,
               checker: Checker, cal: calibration.Calibrator,
               ) -> tuple[list[Op], dict, dict]:
    """Per-layer metrics. Spans recorded in forked workers would be lost,
    so layers are traced at workers 1; untraced operations at workers 1
    alternate with traced ones to give the tracing overhead."""
    deadline = perf_counter() + seconds
    first, pools = pools_per_op(w, seeds.randrange(2**32), checker, cal)
    ops = [first]
    pool_ms = pool_start_ms()
    tracer, counts = Tracer(), SampleCounts()
    missing: list[str] = []
    ratios = []  # calibrated traced over untraced time, same input, adjacent
    while perf_counter() < deadline or not any(op.traced for op in ops):
        seed = seeds.randrange(2**32)
        plain = run_op(w, seed, checker, cal, workers=1)
        with patched(layer_targets(tracer, counts)) as missing:
            traced_op = run_op(w, seed, checker, cal, workers=1,
                               traced=True)
        ops += [plain, traced_op]
        if plain.ok and traced_op.ok:
            ratios.append((traced_op.wall_s / traced_op.slowdown)
                          / (plain.wall_s / plain.slowdown))

    traced = [op for op in ops if op.traced and op.ok]
    n = max(len(traced), 1)
    per_trial = 1e6 / max(sum(op.trial_points for op in traced), 1)
    per_op = 1e3 / n
    rows = max(sum(op.rows for op in traced), 1)
    traced_rates = rates([op for op in ops if op.traced]) or [0.0]
    metrics = {
        "scenario.stream_us":
            tracer.self_time("scenario.trial_stream") * per_trial,
        "scenario.sample_us":
            tracer.self_time("scenario.sample_positions") * per_trial,
        "scenario.draws_per_trial": counts.draws / max(counts.trials, 1),
        "scenario.interferers_per_trial":
            counts.interferers / max(counts.trials, 1),
        "propagation.link_set_us":
            tracer.total("propagation.build_link_set") * per_trial,
        "propagation.cochannel_ratio":
            counts.cochannel / max(counts.interferers, 1),
        "strategies.eval_us":
            tracer.total("strategies.evaluate_strategy") * per_trial,
        "strategies.evals":
            tracer.calls("strategies.evaluate_strategy") * per_trial / 1e6,
        "montecarlo.trial_overhead_us":
            tracer.self_time("montecarlo.run_point") * per_trial,
        "montecarlo.aggregate_us":
            tracer.total("montecarlo.aggregate", outermost=True) * per_trial,
        "montecarlo.pools_started": float(pools),
        "montecarlo.pool_start_ms": pool_ms,
        "cli.resolve_ms": tracer.total("cli.resolve_settings") * per_op,
        "cli.format_us_per_row": tracer.total("cli.format") * 1e6 / rows,
        "cli.rows": rows / n,
        "cli.bytes_out": sum(op.bytes for op in traced) / n,
        "cli.write_ms":
            (tracer.total("cli.main") - tracer.total("cli.run")) * per_op,
        "trace.trials_per_s": statistics.median(traced_rates),
        "trace.overhead_pct":
            (statistics.median(ratios) - 1.0) * 100 if ratios else 0.0,
    }
    extra = {"traced_workers": 1, "missing_layers": missing,
             "spans": tracer.rows()}
    return ops, metrics, extra


def untraced_run(w: Workload, seeds: random.Random, seconds: float,
                 checker: Checker, cal: calibration.Calibrator,
                 ) -> tuple[list[Op], dict, dict]:
    """End-to-end metrics; the first operation warms caches, untimed."""
    ops = [run_op(w, seeds.randrange(2**32), checker, cal)]
    timed: list[Op] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not timed:
        timed.append(run_op(w, seeds.randrange(2**32), checker, cal))
    ops += timed
    setup = setup_seconds(w, seeds.randrange(2**32))
    memory = memory_op(w, seeds.randrange(2**32), checker)
    ops.append(memory)
    ok = [op for op in timed if op.ok] or timed
    cpu = [op.cpu_s / op.slowdown * 1e6 / op.trial_points for op in ok]
    metrics = {
        "trials_per_s": statistics.median(rates(timed) or [0.0]),
        "cpu_us_per_trial": statistics.median(cpu),
        "peak_rss_mib": memory.peak_mib,
        "setup_s": statistics.median(setup),
    }
    raw = {"trials_per_s": statistics.median(rates(timed, False) or [0.0]),
           "cpu_us_per_trial": statistics.median(
               op.cpu_s * 1e6 / op.trial_points for op in ok),
           "slowdown": statistics.median(op.slowdown for op in ok)}
    return ops, metrics, {"setup_samples_s": setup, "uncalibrated": raw}


def git_commit() -> str | None:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def rng_contract() -> str:
    """The per-trial stream contract, confirmed against the library."""
    import numpy as np
    v1 = ("v1: PCG64(SeedSequence(entropy=master_seed, "
          "spawn_key=(trial_index,))) per trial")
    try:
        from relaysim.scenario import trial_stream
    except ImportError:
        return "unknown: relaysim.scenario.trial_stream is absent"
    ss = np.random.SeedSequence(entropy=2012, spawn_key=(7,))
    expected = np.random.Generator(np.random.PCG64(ss)).random(4)
    if (trial_stream(2012, 7).random(4) == expected).all():
        return v1
    return "unknown: trial_stream differs from v1"


def metadata(w: Workload, args, relaysim) -> dict:
    import numpy as np
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mode": w.mode, "trials_per_point": w.trials,
        "distances": len(w.distances()), "workers": w.workers,
        "strategies": len(STRATEGIES), "python": platform.python_version(),
        "numpy": np.__version__, "relaysim": relaysim.__version__,
        "git_commit": git_commit(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "rng_contract": rng_contract(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    seeds = random.Random(args.seed)
    # Calibration helpers start before relaysim is imported (calibration.py).
    with calibration.Calibrator(w.workers) as cal:
        relaysim = import_relaysim()
        checker = Checker(w, check.load_reference())
        try:
            run = traced_run if args.trace else untraced_run
            ops, metrics, extra = run(w, seeds, args.seconds, checker, cal)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    pooled = checker.pooled_problems()
    for problem in pooled:
        print(f"bench: {w.name} pooled: {problem}", file=sys.stderr)
    failed = sum(not op.ok for op in ops)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"meta": metadata(w, args, relaysim), **extra,
                      "pooled_problems": pooled,
                      "ops": [op.record() for op in ops]}))
    print(json.dumps({
        "correct": failed == 0 and not pooled,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
