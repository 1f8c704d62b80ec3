import dataclasses
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaysim import cli, montecarlo
from relaysim.cli import (
    Settings,
    dump_config,
    format_cdf_csv,
    format_sweep_csv,
    main,
    parse_config_file,
    resolve_settings,
)
from relaysim.montecarlo import SummaryStats
from relaysim.scenario import ScenarioConfig
from relaysim.strategies import ALL_STRATEGIES, StrategyKind


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigFile:
    def test_empty_input_keeps_defaults(self, tmp_path):
        path = _write(tmp_path, "# nothing but comments\n\n")
        settings, _ = resolve_settings(["--config", path])
        assert settings.tx_power_dbm == 0.0
        assert settings.antenna_gain_db == 2.5
        assert settings.noise_power_dbm == -110.0
        assert settings.path_loss_coeff_db_per_decade == 28.0
        assert settings.interferer_power_dbm == 3.0
        assert (settings.interferer_min, settings.interferer_max) == (1, 3)

    def test_unknown_key_reports_line(self, tmp_path):
        path = _write(tmp_path, "trials = 10\nbogus_key = 1\n")
        with pytest.raises(ValueError, match=r":2: unknown key 'bogus_key'"):
            parse_config_file(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = _write(tmp_path, "trials = not_a_number\n")
        with pytest.raises(ValueError, match=r":1: bad value"):
            parse_config_file(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = _write(tmp_path, "trials\n")
        with pytest.raises(ValueError, match=r":1: expected"):
            parse_config_file(path)

    def test_comments_and_whitespace(self, tmp_path):
        path = _write(tmp_path, "  trials = 42   # inline comment\n")
        assert parse_config_file(path) == {"trials": 42}

    def test_utf8_bom_is_skipped(self, tmp_path):
        # some Windows editors start a UTF-8 file with a byte order mark
        text = "trials = 5\nseed = 3\n"
        plain = _write(tmp_path, text)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config_file(str(bom)) == parse_config_file(plain) \
            == {"trials": 5, "seed": 3}

    def test_boolean_words(self, tmp_path):
        path = _write(tmp_path, "blocked_direct = no\n")
        assert parse_config_file(path) == {"blocked_direct": False}
        path = _write(tmp_path, "trials = 5\nblocked_direct = maybe\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: bad value for blocked_direct: not a boolean")):
            parse_config_file(path)

    def test_invalid_distance_names_invariant(self, tmp_path):
        path = _write(tmp_path, "distance_m = -5\n")
        with pytest.raises(ValueError, match="distance_m"):
            resolve_settings(["--config", path, "--mode", "cdf"])

    def test_flag_overrides_file(self, tmp_path):
        path = _write(tmp_path, "trials = 10000\nseed = 9\n")
        settings, _ = resolve_settings(
            ["--config", path, "--trials", "100"])
        assert settings.trials == 100
        assert settings.seed == 9

    def test_strategy_list_parsing(self, tmp_path):
        path = _write(tmp_path, "strategies = direct, af_single\n")
        settings, _ = resolve_settings(["--config", path])
        assert settings.strategies == (StrategyKind.DIRECT,
                                       StrategyKind.AF_SINGLE)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_settings(["--strategies", "direct,warp_drive"])


class TestValidation:
    """File and flag values are checked alike, each with one diagnostic."""

    def test_bad_mode_in_file_reports_line(self, tmp_path):
        path = _write(tmp_path, "trials = 5\nmode = foo\n")
        with pytest.raises(ValueError, match=r":2: bad value for mode"):
            resolve_settings(["--config", path])

    def test_duplicate_key_reports_second_line(self, tmp_path):
        path = _write(tmp_path, "trials = 5\nseed = 3\ntrials = 7\n")
        with pytest.raises(ValueError, match=r":3: duplicate key 'trials'$"):
            resolve_settings(["--config", path])

    def test_duplicate_strategy_rejected(self):
        with pytest.raises(ValueError, match="duplicate strategy"):
            resolve_settings(["--strategies", "direct,direct"])

    @pytest.mark.parametrize("flag,key,mode", [
        ("--distance", "distance_m", "cdf"), ("--lmin", "lmin", "sweep"),
        ("--lmax", "lmax", "sweep"), ("--lstep", "lstep", "sweep")])
    def test_flag_of_other_mode_rejected(self, tmp_path, capsys, flag, key,
                                         mode):
        other = "sweep" if mode == "cdf" else "cdf"
        out = tmp_path / "out.csv"
        assert main(["--mode", other, flag, "40", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"relaysim: error: {flag} applies to {mode} mode only\n"
        assert not out.exists()
        # the config-file key stays accepted: --dump-config writes them all
        path = _write(tmp_path, f"{key} = 40\n")
        settings, _ = resolve_settings(["--config", path, "--mode", other])
        assert getattr(settings, key) == 40.0

    @pytest.mark.parametrize("flag,value", [("--lmin", "nan"),
                                            ("--lmax", "inf")])
    def test_nonfinite_grid_bound_named(self, flag, value):
        with pytest.raises(ValueError, match=f"{flag[2:]} must be finite"):
            resolve_settings([flag, value])

    def test_bad_flag_value_names_setting(self):
        with pytest.raises(ValueError, match="bad value for trials"):
            resolve_settings(["--trials", "abc"])

    def test_bad_seed_names_seed(self):
        with pytest.raises(ValueError, match="^seed must fit in 64"):
            resolve_settings(["--seed", "-1"])

    def test_bad_interferer_counts_name_keys(self, tmp_path):
        path = _write(tmp_path, "interferer_min = 5\ninterferer_max = 2\n")
        with pytest.raises(ValueError,
                           match="^interferer_min and interferer_max must"):
            resolve_settings(["--config", path])

    def test_nonpositive_lmin_named(self):
        with pytest.raises(ValueError, match="^lmin must be positive"):
            resolve_settings(["--lmin", "-5"])

    def test_bandwidth_key_removed(self, tmp_path):
        path = _write(tmp_path, "bandwidth_hz = 2e6\n")
        with pytest.raises(ValueError, match="unknown key 'bandwidth_hz'"):
            parse_config_file(path)

    @pytest.mark.parametrize("argv", [["--lstep", "1e-320"],
                                      ["--lmax", "1e6", "--lstep", "1e-3"]])
    def test_sweep_grid_too_fine_names_lstep(self, argv):
        with pytest.raises(ValueError, match="lstep .* sweep points"):
            resolve_settings(argv)

    def test_sub_resolution_lstep_named(self):
        # few enough points for the size check, but they round together
        with pytest.raises(ValueError, match="^lstep 1e-10 is too fine for "
                                           "the sweep grid, whose points"):
            resolve_settings(["--lmin", "10", "--lmax", "10.000001",
                              "--lstep", "1e-10"])

    def test_sweep_grid_does_not_accumulate(self):
        grid = Settings(lmin=0.1, lstep=3.3, lmax=16500.1).sweep_distances()
        assert len(grid) == 5001
        assert grid[-1] == 16500.1


class TestSettingsSurface:
    """The settable values: deriving keys and flags from the settings
    table must not drop or add one."""

    KEYS = {"distance_m", "tx_power_dbm", "interferer_power_dbm",
            "antenna_gain_db", "noise_power_dbm",
            "path_loss_coeff_db_per_decade", "blocked_direct",
            "interferer_min", "interferer_max", "seed", "mode", "lmin",
            "lmax", "lstep", "trials", "strategies", "workers", "out"}
    FLAGS = {"--distance", "--blocked-direct", "--seed", "--mode", "--lmin",
             "--lmax", "--lstep", "--trials", "--strategies", "--workers",
             "--out"}

    def test_config_keys(self):
        keys = [line.partition(" = ")[0]
                for line in dump_config(Settings()).splitlines()]
        assert len(keys) == len(self.KEYS) == 18
        assert set(keys) == self.KEYS

    def test_flags(self):
        options = {s for action in cli._build_parser()._actions
                   for s in action.option_strings}
        assert len(self.FLAGS) == 11
        assert options == self.FLAGS | {"-h", "--help", "--config",
                                        "--dump-config"}

    def test_parser_reuse_carries_nothing_over(self):
        first, _ = resolve_settings(["--trials", "7", "--seed", "3",
                                     "--mode", "cdf", "--distance", "40"])
        assert (first.trials, first.seed, first.mode, first.distance_m) \
            == (7, 3, "cdf", 40.0)
        assert resolve_settings([]) == (Settings(), False)
        assert cli._build_parser() is cli._build_parser()

    def test_every_scenario_field_is_a_key(self):
        assert {f.name for f in dataclasses.fields(ScenarioConfig)} \
            <= self.KEYS


class TestDumpConfig:
    def test_round_trip(self, tmp_path):
        settings, _ = resolve_settings(
            ["--mode", "cdf", "--distance", "42.5", "--trials", "7",
             "--seed", "3", "--blocked-direct",
             "--strategies", "direct,twoway_af"])
        path = _write(tmp_path, dump_config(settings), "dumped.cfg")
        reparsed, _ = resolve_settings(["--config", path])
        assert reparsed == settings

    def test_dump_flag_prints_and_exits_zero(self, tmp_path, capsys,
                                             monkeypatch):
        # it prints the settings and stops: no run, no file written
        monkeypatch.chdir(tmp_path)
        argv = ["--dump-config", "--trials", "5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == dump_config(resolve_settings(argv)[0])
        assert "trials = 5" in out
        assert "noise_power_dbm = -110.0" in out
        assert "\nblocked_direct = false\n" in out
        assert list(tmp_path.iterdir()) == []

    def test_dump_flag_echoes_a_count_the_run_rejects(self, tmp_path, capsys,
                                                      monkeypatch):
        # trials and workers are checked when the run starts
        monkeypatch.chdir(tmp_path)
        assert main(["--dump-config", "--trials", "0"]) == 0
        assert "\ntrials = 0\n" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_numpy_float_dumped_as_number(self):
        # str, not repr: numpy 2 reprs a float64 as np.float64(10.0)
        assert "\nlmin = 10.0\n" in dump_config(Settings(lmin=np.float64(10)))

    @pytest.mark.parametrize("name", ["run#1.csv", "x.csv "])
    def test_value_without_file_form(self, tmp_path, capsys, name):
        # '#' starts a comment and parsing strips edge spaces, so such a
        # value cannot be dumped; a run with it still works
        out = tmp_path / name
        assert main(["--out", str(out), "--dump-config"]) == 1
        assert capsys.readouterr() == ("", (
            f"relaysim: error: cannot dump out = {str(out)!r}: a config "
            "value holds no '#', line break or edge space\n"))
        assert main(["--out", str(out), "--trials", "1",
                     "--strategies", "direct"]) == 0
        assert out.read_text().startswith("strategy,distance_m,")


class TestRunModes:
    def test_sweep_csv_shape(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        rc = main(["--mode", "sweep", "--lmin", "20", "--lmax", "40",
                   "--lstep", "20", "--trials", "3",
                   "--strategies", "direct", "--out", out])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "strategy,distance_m,mean_se,p10_se,p50_se,p90_se"
        assert len(lines) == 3  # header + 2 distances
        assert lines[1].startswith("direct,20,")

    def test_sweep_single_trial_two_lines(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rc = main(["--mode", "sweep", "--lmin", "30", "--lmax", "30",
                   "--lstep", "10", "--trials", "1",
                   "--strategies", "df_single", "--out", out])
        assert rc == 0
        assert len(Path(out).read_text().splitlines()) == 2

    def test_cdf_csv_shape(self, tmp_path, capsys):
        out = str(tmp_path / "cdf.csv")
        rc = main(["--mode", "cdf", "--distance", "70", "--trials", "10",
                   "--strategies", "direct,af_single", "--out", out])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "strategy,spectral_efficiency,cdf"
        assert len(lines) == 1 + 2 * 10  # header + n rows per strategy
        assert lines[1].startswith("af_single,")  # sorted by strategy name
        assert lines[-1].endswith("1.000000")

    def test_same_seed_identical_checksum(self, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            rc = main(["--mode", "cdf", "--trials", "25", "--seed", "11",
                       "--strategies", "direct,twoway_df", "--out", out])
            assert rc == 0
            digests.append(hashlib.sha256(Path(out).read_bytes())
                           .hexdigest())
        assert digests[0] == digests[1]

    def test_blocked_direct_zero_rates(self, tmp_path):
        out = str(tmp_path / "cdf.csv")
        rc = main(["--mode", "cdf", "--trials", "5", "--blocked-direct",
                   "--strategies", "direct", "--out", out])
        assert rc == 0
        rows = Path(out).read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "0.000000" for row in rows)


def _cdf_rows(cdfs) -> str:
    """The cdf CSV as one f-string per row, in the CSV's order."""
    rows = ["strategy,spectral_efficiency,cdf\n"]
    for kind in sorted(cdfs, key=lambda k: k.value):
        samples = cdfs[kind].tolist()
        n = len(samples)
        rows += [f"{kind.value},{v:.6f},{i / n:.6f}\n"
                 for i, v in enumerate(samples, start=1)]
    return "".join(rows)


def _sweep_rows(results) -> str:
    """The sweep CSV as one f-string per row, in the CSV's order."""
    lines = ["strategy,distance_m,mean_se,p10_se,p50_se,p90_se"]
    for kind, d in sorted(results, key=lambda kd: (kd[0].value, kd[1])):
        s = results[(kind, d)]
        lines.append(f"{kind.value},{d:g},{s.mean:.6f},{s.p10:.6f},"
                     f"{s.p50:.6f},{s.p90:.6f}")
    return "\n".join(lines) + "\n"


def _assert_same_rows(got: str, want: str) -> None:
    """Equal texts, else a failure naming the first row that differs:
    pytest's diff of two whole CSVs would take minutes to build."""
    if got == want:
        return
    for row, (g, w) in enumerate(itertools.zip_longest(
            got.splitlines(True), want.splitlines(True))):
        assert g == w, f"row {row}: {g!r} != {w!r}"


class TestCsvFormat:
    """The formatters give the bytes of the per-row f-strings."""

    # one row short of, at, and one and two rows past a chunk boundary;
    # 1024 is a multiple of 128, so every 16th i / n is an exact tie, and
    # two strategies of it share a write
    SIZES = (1, 1024, cli.CDF_ROWS_PER_WRITE - 1, cli.CDF_ROWS_PER_WRITE,
             cli.CDF_ROWS_PER_WRITE + 1, 2 * cli.CDF_ROWS_PER_WRITE + 1)
    # the exact ties at the sixth decimal are the odd multiples of 1/128;
    # a value one ulp off one may still make x * 1e6 land on the tie
    TIES = np.array([1, 3, 255, 1537, 127_999]) / 128
    TIE_SIDES = [*TIES, *np.nextafter(TIES, 0), *np.nextafter(TIES, np.inf),
                 # twoway_df at seed 3, 2 m, no interferers, 10k trials
                 12.653440499999164]
    # values the digit words cannot print: a write holding one is made
    # by `%`. 999.9999996 is below 1000 but prints as 1000.000000, and
    # 999.9999995 lies just below a tie that x * 1e6 rounds onto.
    UNPRINTABLE = [math.inf, -0.0, 999.9999995, 999.9999996, 1000.0,
                   12345.678901]

    @hypothesis.settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from(SIZES), count=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.floats(0.0, 1e6)
                          | st.sampled_from(TIE_SIDES + UNPRINTABLE),
                          max_size=8))
    @hypothesis.example(n=1024, count=3, seed=1, extra=TIE_SIDES)
    @hypothesis.example(n=cli.CDF_ROWS_PER_WRITE + 1, count=2, seed=2,
                        extra=UNPRINTABLE + TIE_SIDES)
    @hypothesis.example(n=1, count=3, seed=3, extra=[-0.0])
    @hypothesis.example(n=cli.CDF_ROWS_PER_WRITE - 1, count=1, seed=4,
                        extra=[999.9999995, 999.9999996])
    def test_cdf_matches_row_formula(self, n, count, seed, extra):
        rng = np.random.default_rng(seed)
        cdfs = {}
        for kind in ALL_STRATEGIES[:count]:
            values = rng.uniform(0.0, 30.0, n)
            pick = rng.integers(0, 4, n)
            # near and exact ties at the sixth decimal, and zeros
            values[pick == 1] = np.round(values[pick == 1], 6) + 0.5e-6
            values[pick == 2] = (2 * rng.integers(
                0, 3840, (pick == 2).sum()) + 1) / 128
            values[pick == 3] = 0.0
            values[:len(extra)] = extra[:n]
            cdfs[kind] = np.sort(values)
        fh = io.StringIO()
        format_cdf_csv(cdfs, fh)
        _assert_same_rows(fh.getvalue(), _cdf_rows(cdfs))

    def test_cdf_engine_values_reach_the_percent_fallback(self):
        # rates of 1000 bits/s/Hz or more round to q >= 1e9, which only
        # the whole-write `%` path prints
        config = ScenarioConfig(seed=1, tx_power_dbm=2995,
                                interferer_power_dbm=-math.inf)
        cdfs = montecarlo.run_cdf(config, 3000, (
            StrategyKind.DIRECT, StrategyKind.DIRECT_EXCHANGE,
            StrategyKind.DF_SINGLE))
        assert sum(int((v >= 1000).sum()) for v in cdfs.values()) > 0
        fh = io.StringIO()
        format_cdf_csv(cdfs, fh)
        _assert_same_rows(fh.getvalue(), _cdf_rows(cdfs))

    @staticmethod
    def _assert_chunked_writes(n, count, chunks):
        rng = np.random.default_rng(2012)
        cdfs = {kind: np.sort(rng.uniform(0.0, 30.0, n))
                for kind in ALL_STRATEGIES[:count]}
        writes = []
        fh = io.StringIO()
        fh.write = writes.append
        format_cdf_csv(cdfs, fh)
        assert writes[0] == "strategy,spectral_efficiency,cdf\n"
        assert all(0 < text.count("\n") <= cli.CDF_ROWS_PER_WRITE
                   for text in writes[1:])
        assert len(writes) == 1 + chunks
        _assert_same_rows("".join(writes), _cdf_rows(cdfs))

    def test_cdf_writes_at_most_a_chunk_of_rows(self):
        # three strategies of two whole chunks and one row each
        self._assert_chunked_writes(2 * cli.CDF_ROWS_PER_WRITE + 1, 3, 3 * 3)

    def test_cdf_stacks_short_strategies_into_a_write(self):
        # ten short strategies, as many per write as fit
        self._assert_chunked_writes(cli.CDF_ROWS_PER_WRITE // 5, 10, 2)

    @hypothesis.settings(max_examples=50, deadline=None)
    @given(kinds=st.lists(st.sampled_from(ALL_STRATEGIES), min_size=1,
                          unique=True),
           stats=st.lists(st.floats(0.0, 1e3)
                          # near ties at the sixth decimal
                          | st.integers(0, 10**9 - 1).map(
                              lambda q: (q + 0.5) / 1e6)
                          | st.sampled_from(TIE_SIDES + UNPRINTABLE),
                          min_size=4, max_size=40))
    @hypothesis.example(kinds=list(ALL_STRATEGIES), stats=TIE_SIDES)
    @hypothesis.example(kinds=list(ALL_STRATEGIES[:2]),
                        stats=TIE_SIDES + UNPRINTABLE)
    def test_sweep_matches_row_formula(self, kinds, stats):
        # 1e6 m is printed in exponent form by g
        distances = (0.001, 12.5, 99.999999999, 1e6)
        table = np.resize(stats, (len(distances), len(kinds), 4))
        results = {(kind, d): SummaryStats(*table[i, k].tolist())
                   for i, d in enumerate(distances)
                   for k, kind in enumerate(kinds)}
        _assert_same_rows(format_sweep_csv((distances, tuple(kinds), table)),
                          _sweep_rows(results))

    @pytest.mark.parametrize("case,workers", [
        ("sweep_tail", "1"), ("sweep_tail", "2"), ("sweep_cochannel", "1")])
    def test_sweep_csv_is_the_rows_of_run_sweep(self, tmp_path, monkeypatch,
                                                case, workers):
        # the CLI's statistics and run_sweep's come from one aggregation
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        argv = _GOLDEN[case][0] + ["--workers", workers]
        if case in _GOLDEN_CONFIG:
            argv += ["--config", _write(tmp_path, _GOLDEN_CONFIG[case])]
        self._assert_sweep_rows(tmp_path, argv)

    def test_sweep_engine_values_reach_the_percent_fallback(self, tmp_path):
        # the cdf fallback test's config: statistics of 1000 bits/s/Hz or
        # more have no digit words, so the whole sweep is one `%` call
        path = _write(tmp_path, "tx_power_dbm = 2995\n"
                                "interferer_power_dbm = -inf\n")
        results = self._assert_sweep_rows(tmp_path, [
            "--config", path, "--seed", "1", "--trials", "300",
            "--lmin", "70", "--lmax", "70",
            "--strategies", "direct,direct_exchange,df_single"])
        assert max(s.p90 for s in results.values()) >= 1000

    @staticmethod
    def _assert_sweep_rows(tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        settings, _ = resolve_settings(argv)
        results = montecarlo.run_sweep(
            settings, settings.sweep_distances(), settings.trials,
            settings.strategies, settings.workers)
        _assert_same_rows(out.read_text(), _sweep_rows(results))
        return results


class TestFailureModes:
    def test_invalid_flag_value_exits_nonzero(self, capsys):
        rc = main(["--mode", "sweep", "--lstep", "-1", "--trials", "1"])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_unwritable_path_exits_nonzero(self, tmp_path, capsys,
                                           monkeypatch):
        # the output is created before the run, so the engine never starts
        calls = []

        def record(*args):
            calls.append(args)

        monkeypatch.setattr(cli, "_sweep_stats", record)
        monkeypatch.setattr(cli, "run_cdf", record)
        out = tmp_path / "missing" / "x.csv"
        for mode in ("sweep", "cdf"):
            assert main(["--mode", mode, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"relaysim: error: cannot write {out}: ")
            assert err.count("\n") == 1
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_file_left_behind(self, tmp_path):
        target_dir = tmp_path / "outdir"
        target_dir.mkdir()
        rc = main(["--mode", "cdf", "--trials", "2",
                   "--strategies", "direct",
                   "--out", str(target_dir / "sub" / "x.csv")])
        assert rc != 0
        assert list(target_dir.iterdir()) == []

    @pytest.mark.parametrize("error", [
        OSError("pool could not start"),
        MemoryError("Unable to allocate 745. GiB for an array")],
        ids=lambda e: type(e).__name__)
    def test_run_error_is_one_line(self, tmp_path, capsys, monkeypatch,
                                   error):
        # the raise is stubbed: a real huge allocation may succeed under
        # memory overcommit and fill the host's memory
        def sweep_stats(*args):
            raise error

        monkeypatch.setattr(cli, "_sweep_stats", sweep_stats)
        assert main(["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"relaysim: error: {error}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tx_power_dbm,workers",
                             [(4000, "1"), (2000, "1"), (4000, "2")])
    def test_overflowing_sinrs_fail(self, tmp_path, capsys, monkeypatch,
                                    tx_power_dbm, workers):
        # a finite power whose mW, SINRs or rates overflow: one line, exit
        # 1, no partial CSV and, under warnings as errors, no warning
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        path = _write(tmp_path, f"tx_power_dbm = {tx_power_dbm}\n")
        out = tmp_path / "x.csv"
        assert main(["--config", path, "--mode", "cdf", "--trials", "600",
                     "--workers", workers, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("relaysim: error: SINRs out of floating-point "
                              "range (overflow encountered in ")
        assert err.endswith("); check the powers in dBm\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_config_file_path(self, capsys):
        rc = main(["--config", "/no/such/file.cfg"])
        assert rc != 0
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_file_not_utf8_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"trials = 5\n# caf\xe9\n")
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"relaysim: error: cannot read config file "
                              f"{path}: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--trials"], "argument --trials: expected one argument"),
        (["--trials", "0"], "trials must be >= 1"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--strategies", ","], "bad value for strategies: empty strategy "
                                "list"),
        (["--lmin", "50", "--lmax", "20"], "lmin must not exceed lmax"),
        (["--lstep", "0"], "lstep must be positive"),
        (["--lstep", "-1"], "lstep must be positive")],
        ids=["unknown-flag", "missing-value", "zero-trials", "zero-workers",
             "empty-strategies", "lmin-above-lmax", "zero-lstep",
             "negative-lstep"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, monkeypatch,
                                     argv, message):
        # a zero count fails in the run, whose temp output is then deleted
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"relaysim: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point_exit_status(self):
        # `python -m relaysim`: a usage error exits 1 with one line, -h 0
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "relaysim", *args],
                                  capture_output=True, text=True, env=env)

        bogus = run("--bogus")
        assert (bogus.returncode, bogus.stdout, bogus.stderr) == (
            1, "", "relaysim: error: unrecognized arguments: --bogus\n")
        usage = run("-h")
        assert (usage.returncode, usage.stderr) == (0, "")
        assert usage.stdout.startswith("usage: relaysim ")


# sha256 of the CSV each run writes. These pin the output bytes of the
# RNG contract (scenario.RNG_CONTRACT, v3); they change only with a
# deliberate contract change.
_GOLDEN = {
    "sweep": (["--mode", "sweep", "--trials", "200", "--seed", "1"],
              "38700ceb15dfa39d5c6e74ddfb089aef6c4e5acd8faa0461e1a2942fb39e2043"),
    "cdf": (["--mode", "cdf", "--trials", "500", "--seed", "1"],
            "6e13e06bab7cc1ed2232fff788806c0e22b9e4139d71bfc701dfa41b86a4a3bd"),
    "config": (["--mode", "cdf", "--distance", "40", "--blocked-direct",
                "--trials", "300", "--seed", "2"],
               "b4a71755359dd20e26dcd70b6545e4af92c17dfbbdbd67f28fa40a99754b0ff8"),
    # more trials than CDF_ROWS_PER_WRITE: each strategy takes three chunks
    "cdf_chunks": (["--mode", "cdf", "--distance", "70", "--trials", "4500",
                    "--seed", "5"],
                   "ffa649b359c017eecf3109d7975d15cfa42f7a239f9f5d670b5782005e86b15c"),
    # n = 1024: the i / n of every odd multiple of 1/128 is an exact tie
    # at the sixth decimal, which %.6f rounds half to even
    "cdf_ties": (["--mode", "cdf", "--trials", "1024", "--seed", "1"],
                 "c984ca663e1a3b42c8384a6791eb18bb5ab8c95e87a2e266cf77afa5289f2374"),
    # 46 points of 50 trials, placed 10 distances per call, among 4-12
    # interferers: some trials sum two co-channel terms
    "sweep_cochannel": (["--mode", "sweep", "--trials", "50", "--lstep", "2",
                         "--seed", "3"],
                        "1439f3cde119680d4c1dff687f79f75e2e3107c22c84b6f832d8efd61a50c42a"),
    # 4 points of 600 trials: two whole blocks and an 88-trial last block
    "sweep_tail": (["--mode", "sweep", "--trials", "600", "--lstep", "30",
                    "--seed", "7"],
                   "58e361be29ad0e6c785802d13fbd72c510bece3d117cd6f3972962e93a5d2f67"),
}
# config-file text of the cases that read one
_GOLDEN_CONFIG = {
    "config": "interferer_min = 0\ninterferer_max = 6\ntx_power_dbm = 3\n"
              "path_loss_coeff_db_per_decade = 30\n",
    "sweep_cochannel": "interferer_min = 4\ninterferer_max = 12\n",
}


# at two CPUs only the cases of more than ROWS trials start a pool, so the
# 2-worker digests cover the pooled path as well as the serial one
_POOLED = {"cdf_chunks", "cdf_ties", "sweep_tail"}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_digest(tmp_path, monkeypatch, case, workers):
    argv, digest = _GOLDEN[case]
    if case in _GOLDEN_CONFIG:
        argv = argv + ["--config", _write(tmp_path, _GOLDEN_CONFIG[case])]
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    started, real_pool = [], montecarlo.ProcessPoolExecutor

    def counting_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting_pool)
    out = tmp_path / "out.csv"
    assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert started == ([2] if workers == "2" and case in _POOLED else [])
