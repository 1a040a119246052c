import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from kslab import fields
from kslab.checkpoint import atomic_open, load_checkpoint
from kslab.cli import (
    EXIT_BLOWUP,
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    TRACE_COLUMNS,
    _CliRecorder,
    _write_trace_csv,
    main,
)
from kslab.config import ConfigError, ExperimentConfig, SweepSpec, parse_kv_text
from kslab.presets import build_initial
from kslab.solver import FunctionalSample, _builtin_sample, suggest_dt

FAST_CONFIG = """
# small deterministic run
grid.d=1
grid.n_axis=128
grid.box_len=40
params.chi=1.0
params.tau=1.0
params.lambda=0.0
params.mu=1.0
init.preset=gaussian_bump
init.amplitude=1.0
init.width=2.5
init.M=8.0
run.dt=0.005
run.t_end=0.4
run.monitor_every=10
run.dealias=on
monitor.k=3
monitor.R=2.0
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return path


class TestConfigParsing:
    def test_round_trip_keys(self):
        kv = parse_kv_text(FAST_CONFIG)
        cfg = ExperimentConfig.from_mapping(kv)
        assert cfg.d == 1
        assert cfg.n_axis == 128
        assert cfg.mu == 1.0
        assert cfg.dt == 0.005
        assert cfg.dealias is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"grid.points": "64"})

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("grid.d 2")

    def test_nonpositive_dt_rejected(self):
        kv = parse_kv_text(FAST_CONFIG)
        kv["run.dt"] = "-0.1"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(kv)

    def test_auto_values(self):
        kv = parse_kv_text(FAST_CONFIG)
        kv["run.dt"] = "auto"
        kv["run.blowup_cap"] = "auto"
        cfg = ExperimentConfig.from_mapping(kv)
        assert cfg.dt is None
        assert cfg.blowup_cap is None

    def test_oversized_truncation_rejected(self):
        kv = parse_kv_text(FAST_CONFIG)
        kv["init.M"] = "15.0"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(kv)

    def test_sweep_spec_requires_values(self):
        with pytest.raises(ConfigError):
            SweepSpec(parameter="mu", values=())
        with pytest.raises(ConfigError):
            SweepSpec(parameter="tau", values=(1.0,))


class TestRunCommand:
    def test_artifacts_and_exit_code(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(fast_config), "--out", str(out)])
        assert code == EXIT_OK
        for artifact in ("trace.csv", "residuals.csv", "final.kslb", "summary.json", "calibration.json"):
            assert (out / artifact).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert summary["verdicts"]["mass_ledger_per_step"]

    def test_trace_schema_and_finite_rows(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(fast_config), "--out", str(out)])
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        for line in lines[1:]:
            values = [float(tok) for tok in line.split(",")]
            assert len(values) == len(TRACE_COLUMNS)
            assert all(math.isfinite(v) for v in values)

    def test_rerun_byte_identical(self, fast_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", "--config", str(fast_config), "--out", str(out_a)])
        main(["run", "--config", str(fast_config), "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_checkpoint_readable(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(fast_config), "--out", str(out)])
        state = load_checkpoint(out / "final.kslb")
        assert state.t == pytest.approx(0.4)
        assert state.n.grid.n_axis == 128

    def test_blowup_exit_code(self, tmp_path):
        # Forced trigger: pure growth with a cap barely above the initial gauge.
        cfg = tmp_path / "blow.cfg"
        text = FAST_CONFIG.replace("params.lambda=0.0", "params.lambda=1.0")
        text = text.replace("params.mu=1.0", "params.mu=0.0")
        cfg.write_text(text + "run.blowup_cap=1.7\nrun.t_end=2.0\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_BLOWUP

    def test_invalid_config_is_usage_error_without_artifacts(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + "run.dt=-1\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["params.mu=nan", "run.t_end=inf", "params.lambda=inf", "params.chi=inf"]
    )
    def test_non_finite_value_is_usage_error_without_artifacts(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + line + "\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_vanishing_auto_dt_exits_numerical(self, tmp_path):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(FAST_CONFIG + "run.dt=auto\nparams.mu=1e308\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("line", ["params.lambda=1e308", "init.width=1e308", "monitor.k=100"])
    def test_arithmetic_overflow_exits_numerical(self, tmp_path, capsys, line):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FAST_CONFIG + line + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "OverflowError" in capsys.readouterr().err

    def test_assert_mode_needs_prior_calibration(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(fast_config), "--out", str(out), "--mode", "assert"])
        assert code == EXIT_USAGE
        assert not (out / "trace.csv").exists()

    def test_calibrate_then_assert(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(fast_config), "--out", str(out)]) == EXIT_OK
        code = main(["run", "--config", str(fast_config), "--out", str(out), "--mode", "assert"])
        assert code == EXIT_OK


class TestAtomicWrites:
    def _trace(self, rows):
        full = {name: 1.0 for name in TRACE_COLUMNS[1:]}
        # The last sample lacks its columns, so the write fails after the
        # header and the first rows are out.
        return [FunctionalSample(t=float(i), values=full) for i in range(rows)] + [
            FunctionalSample(t=float(rows), values={})
        ]

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(KeyError):
            _write_trace_csv(tmp_path / "trace.csv", self._trace(3))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("previous\n")
        with pytest.raises(KeyError):
            _write_trace_csv(path, self._trace(3))
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_binary_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "final.kslb"
        with pytest.raises(OSError, match="disk full"):
            with atomic_open(path, "wb") as fh:
                fh.write(b"KSLB1 half a state")
                raise OSError("disk full")
        assert list(tmp_path.iterdir()) == []

    def test_run_leaves_only_its_artifacts(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(fast_config), "--out", str(out)])
        assert sorted(p.name for p in out.iterdir()) == [
            "calibration.json", "final.kslb", "residuals.csv", "summary.json", "trace.csv"
        ]


class TestSampleCost:
    def test_one_gradient_per_sampled_state(self, monkeypatch):
        # The run loop's own sample, the CLI monitors and the next dt all need
        # |grad c| of the same state; it must be formed once.
        cfg = ExperimentConfig(n_axis=64).validate()
        params = cfg.params()
        state = build_initial(
            cfg.grid(), cfg.preset, cfg.amplitude, cfg.effective_width(), cfg.effective_M()
        )
        recorder = _CliRecorder(cfg)
        original = fields.gradient
        calls = []

        def counted(f):
            calls.append(f)
            return original(f)

        for name, module in list(sys.modules.items()):
            if name.startswith("kslab") and getattr(module, "gradient", None) is original:
                monkeypatch.setattr(module, "gradient", counted)
        _builtin_sample(state, params)
        recorder(state)
        suggest_dt(state, params)
        assert len(calls) == 1


class TestSweepCommand:
    def test_row_count_matches_values(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(fast_config),
                "--out", str(out),
                "--param", "mu",
                "--values", "0.5,1.0,2.0",
            ]
        )
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per value
        header = lines[0].split(",")
        assert header == ["value", "status", "sup_linf_n", "bounded", "mu_zero_reference"]

    def test_all_1d_runs_bounded(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        main(
            [
                "sweep",
                "--config", str(fast_config),
                "--out", str(out),
                "--param", "mu",
                "--values", "0.5,1.0",
            ]
        )
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            value, status, sup, bounded, _ = line.split(",")
            assert status == "completed"
            assert float(sup) < 10.0

    def test_empty_values_usage_error(self, fast_config, tmp_path):
        code = main(
            [
                "sweep",
                "--config", str(fast_config),
                "--out", str(tmp_path / "s"),
                "--param", "mu",
                "--values", "",
            ]
        )
        assert code == EXIT_USAGE

    def test_parallel_workers(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(fast_config),
                "--out", str(out),
                "--param", "chi",
                "--values", "0.5,1.0",
                "--workers", "2",
            ]
        )
        assert code == EXIT_OK
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_workers_env_fallback(self, monkeypatch, fast_config, tmp_path):
        monkeypatch.setenv("KSLB_WORKERS", "2")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config", str(fast_config),
                "--out", str(out),
                "--param", "mu",
                "--values", "1.0",
            ]
        )
        assert code == EXIT_OK
        assert (out / "sweep.csv").exists()


class TestMconvCommand:
    def test_compact_data_identical_across_truncations(self, tmp_path):
        # The bump is supported well inside the smallest truncation, so all
        # runs coincide and every pairwise difference vanishes.
        cfg = tmp_path / "m.cfg"
        cfg.write_text(FAST_CONFIG.replace("init.width=2.5", "init.width=1.0"))
        out = tmp_path / "mconv"
        code = main(["mconv", "--config", str(cfg), "--out", str(out), "--M", "6,7,8"])
        assert code == EXIT_OK
        rows = (out / "mconv.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            _, _, dn, dc = row.split(",")
            assert float(dn) <= 1e-10
            assert float(dc) <= 1e-10

    def test_truncation_differences_shrink(self, tmp_path):
        # A wide profile feels the truncation; differences shrink as M grows.
        cfg = tmp_path / "m.cfg"
        cfg.write_text(FAST_CONFIG.replace("init.width=2.5", "init.width=4.0"))
        out = tmp_path / "mconv"
        main(["mconv", "--config", str(cfg), "--out", str(out), "--M", "4,6,8"])
        rows = (out / "mconv.csv").read_text().splitlines()[1:]
        diffs = [float(r.split(",")[2]) for r in rows]
        assert diffs[1] < diffs[0]

    def test_oversized_truncation_usage_error(self, fast_config, tmp_path):
        code = main(
            ["mconv", "--config", str(fast_config), "--out", str(tmp_path / "m"), "--M", "5,15"]
        )
        assert code == EXIT_USAGE

    def test_single_truncation_degenerate(self, fast_config, tmp_path):
        out = tmp_path / "m"
        code = main(["mconv", "--config", str(fast_config), "--out", str(out), "--M", "6"])
        assert code == EXIT_OK
        assert len((out / "mconv.csv").read_text().splitlines()) == 1


class TestCheckCommand:
    def test_fields_suite_passes(self, capsys):
        assert main(["check", "fields"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_unknown_suite_usage_error(self):
        assert main(["check", "nonsense"]) == EXIT_USAGE


class TestReportCommand:
    def test_long_table_from_run(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(fast_config), "--out", str(out)])
        assert main(["report", "--out", str(out)]) == EXIT_OK
        lines = (out / "report_long.csv").read_text().splitlines()
        assert lines[0] == "source,key,name,value"
        assert len(lines) > 10

    def test_empty_directory_usage_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == EXIT_USAGE
