import functools
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslab import cli, config, fields, monitors, solver
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
from kslab.config import CONFIG_KEYS, ConfigError, ExperimentConfig, SweepSpec, parse_kv_text
from kslab.monitors import TraceRecorder, mu_zero_estimate, run_verdicts
from kslab.presets import build_initial
from kslab.solver import FunctionalSample, _builtin_sample, run, suggest_dt

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
monitor.k=3
monitor.R=2.0
"""

# The benchmark's 2D sweep rows: random_smooth data of amplitude 20 on 128^2,
# auto dt to t = 10 (mu = 1 here).
SWEEP2D_CONFIG = (
    "grid.d=2\ngrid.n_axis=128\ngrid.box_len=40\n"
    "params.chi=1.0\nparams.tau=1.0\nparams.lambda=0.0\nparams.mu=1.0\n"
    "init.preset=random_smooth\ninit.amplitude=20.0\n"
    "run.dt=auto\nrun.t_end=10.0\nrun.monitor_every=10\n"
    "monitor.k=3\nmonitor.centers=max+lattice\n"
)


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return path


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root`` with the bytes of each file (None for a directory)."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")
    }


class TestConfigParsing:
    def test_round_trip_keys(self):
        kv = parse_kv_text(FAST_CONFIG)
        cfg = ExperimentConfig.from_mapping(kv)
        assert cfg.d == 1
        assert cfg.n_axis == 128
        assert cfg.mu == 1.0
        assert cfg.dt == 0.005

    def test_unknown_key_rejected(self):
        # run.dealias is gone: products are always dealiased.
        for kv in ({"grid.points": "64"}, {"run.dealias": "on"}):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_mapping(kv)

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
        cfg = ExperimentConfig.from_mapping(kv)
        assert cfg.dt is None

    def test_documented_examples_list_every_key_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        ini = readme.split("```ini\n", 1)[1].split("```", 1)[0].splitlines()
        example = [line for line in config.__doc__.splitlines() if line.startswith("    ")]
        for lines in (ini, example):
            assert [line.split("=", 1)[0].strip() for line in lines] == list(CONFIG_KEYS)

    def test_oversized_truncation_rejected(self):
        kv = parse_kv_text(FAST_CONFIG)
        kv["init.M"] = "15.0"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(kv)

    def test_grid_larger_than_memory_rejected(self):
        # 8 TiB per field: refused by validation before any array is allocated.
        kv = parse_kv_text(FAST_CONFIG)
        kv.update({"grid.d": "2", "grid.n_axis": "1048576"})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"grid\.n_axis"):
                ExperimentConfig.from_mapping(kv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"d": 2.0}, "grid.d must be an integer"),
            ({"n_axis": 64.0}, "grid.n_axis must be an integer"),
            ({"seed": 1.5, "preset": "random_smooth"}, "init.seed must be an integer"),
            ({"seed": True}, "init.seed must be an integer"),
            ({"monitor_k": 3.5}, "monitor.k must be an integer"),
            ({"amplitude": math.inf}, "init.amplitude must be finite"),
            ({"width": math.inf}, "init.width must be positive and finite"),
        ],
    )
    def test_library_rejects_what_the_file_rejects(self, change, message):
        # The config file's converters never produce these; a library caller
        # used to get a TypeError or an overflow from the run instead.
        with pytest.raises(ConfigError) as rejected:
            ExperimentConfig(**{"n_axis": 64, **change})
        assert str(rejected.value) == message

    def test_lattice_only_centers_rejected(self, tmp_path, capsys):
        # One center rule: the lattice plus the argmax of n.
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text(FAST_CONFIG + "monitor.centers=lattice\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "monitor.centers" in capsys.readouterr().err
        assert not out.exists()

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
        for artifact in ("trace.csv", "residuals.csv", "final.kslb", "summary.json"):
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
        # Forced trigger: pure growth crosses 1000x the initial gauge at t = 3.9.
        cfg = tmp_path / "blow.cfg"
        text = FAST_CONFIG.replace("params.lambda=0.0", "params.lambda=1.0")
        text = text.replace("params.mu=1.0", "params.mu=0.0")
        cfg.write_text(text + "run.t_end=5.0\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_BLOWUP

    def test_blowup_exits_2_though_verdicts_fail(self, tmp_path, capsys):
        # The forced blow-up above also fails four verdicts; the status decides.
        cfg = tmp_path / "blow.cfg"
        text = FAST_CONFIG.replace("params.lambda=0.0", "params.lambda=1.0")
        text = text.replace("params.mu=1.0", "params.mu=0.0")
        cfg.write_text(text + "run.t_end=5.0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "blowup_suspected"
        assert not summary["verdicts"]["bounded_trend"]
        assert not summary["verdicts"]["nonnegativity_n"]
        assert "FAIL bounded_trend" in capsys.readouterr().out

    def test_overflowing_initial_data_is_numerical_failure_without_artifacts(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FAST_CONFIG + "init.amplitude=1e308\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert "initial continuation gauge" in err
        assert "blowup_cap" not in err

    def test_overflowing_random_modes_are_numerical_failure_without_artifacts(
        self, tmp_path, capsys
    ):
        # random_smooth scales its modes to the amplitude while it samples the
        # data, before the run starts: that overflow is a numerical failure too.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FAST_CONFIG + "init.preset=random_smooth\ninit.amplitude=1e308\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "numerical error: FloatingPointError: overflow encountered in multiply\n"

    def test_default_run_samples_the_initial_state_once(self, tmp_path, monkeypatch):
        times = []
        original = solver._builtin_sample

        def counted(state):
            times.append(state.t)
            return original(state)

        monkeypatch.setattr(solver, "_builtin_sample", counted)
        assert main(["run", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert times.count(0.0) == 1

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

    @pytest.mark.parametrize(
        "lines,key",
        [
            ("monitor.k=2", "monitor.k"),
            ("monitor.R=0.5", "monitor.R"),
            ("grid.n_axis=16\nmonitor.R=4", "monitor.R"),  # h = 2.5: R < 2h
            ("monitor.R=10", "monitor.R"),  # 2R = box_len/2
            ("run.blowup_cap=5", "'run.blowup_cap'"),  # removed: the run derives its cap
        ],
    )
    def test_monitor_settings_are_usage_errors_without_artifacts(
        self, tmp_path, capsys, lines, key
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_value_error_after_validation_is_not_a_usage_error(
        self, fast_config, tmp_path, monkeypatch
    ):
        def faulty(self, state):
            raise ValueError("fault inside a monitor")

        monkeypatch.setattr(_CliRecorder, "__call__", faulty)
        with pytest.raises(ValueError, match="fault inside a monitor"):
            main(["run", "--config", str(fast_config), "--out", str(tmp_path / "out")])

    def test_vanishing_auto_dt_exits_numerical(self, tmp_path):
        # The transport cap is ~1e-51.  chi = 1e308 would overflow earlier,
        # in the mu_0 assembly, and never reach the step.
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(FAST_CONFIG + "run.dt=auto\nparams.chi=1e50\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("line", ["params.lambda=1e308", "init.width=1e308", "monitor.k=100"])
    def test_arithmetic_overflow_exits_numerical(self, tmp_path, capsys, line):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FAST_CONFIG + line + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "OverflowError" in capsys.readouterr().err

    def test_failing_verdict_exits_4_after_writing_its_artifacts(self, tmp_path, capsys):
        # The benchmark's 2D sweep row at mu = 0.1 completes at 128^2 but
        # undershoots to min_n = -0.090.
        cfg = tmp_path / "undershoot.cfg"
        cfg.write_text(SWEEP2D_CONFIG.replace("params.mu=1.0", "params.mu=0.1"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == EXIT_INVARIANT
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert not summary["verdicts"]["nonnegativity_n"]
        assert "FAIL nonnegativity_n" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == [
            "final.kslb", "residuals.csv", "summary.json", "trace.csv"
        ]


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
            "final.kslb", "residuals.csv", "summary.json", "trace.csv"
        ]


class TestVerdictParity:
    def test_library_checks_reproduce_run_residuals(self, fast_config, tmp_path):
        # The library recorder and checks, with no CLI code in between, must
        # give the residuals.csv rows and the verdicts of `kslab run`.
        out = tmp_path / "out"
        assert main(["run", "--config", str(fast_config), "--out", str(out)]) == EXIT_OK
        cfg = ExperimentConfig.from_file(fast_config)
        params, grid = cfg.params(), cfg.grid()
        recorder = TraceRecorder(params, grid, k=cfg.monitor_k, R=cfg.monitor_R)
        initial = build_initial(
            grid, cfg.preset, cfg.amplitude, cfg.effective_width(), cfg.effective_M(), seed=cfg.seed
        )
        result = run(initial, params, cfg.run_config(), monitors=recorder)

        reports = recorder.check(result.trace)
        assert [r.name for r in reports] == [
            "mass_ledger", "chem_energy", "chem_gradient_energy",
            "uloc_combined", "linf_reconstruction", "z_sup_cap",
        ]
        lines = ["t,name,margin,calibration"]
        for r in reports:
            const = "" if r.constant is None else f"{r.constant:.17g}"
            lines += [f"{t:.17g},{r.name},{m:.17g},{const}" for t, m in zip(r.times, r.margins)]
        assert "\n".join(lines) + "\n" == (out / "residuals.csv").read_text()
        summary = json.loads((out / "summary.json").read_text())
        verdicts, slope = run_verdicts(result, params)
        verdicts.update((r.name, r.passed) for r in reports if r.tolerance is not None)
        assert summary["verdicts"] == verdicts
        assert summary["trend_slope_second_half"] == slope

    def test_readme_verdict_table_lists_every_summary_verdict(self, fast_config, tmp_path):
        # 1D with k = 3 > d and tau = 1, mu > d chi / 4: every verdict applies.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Verdicts\n", 1)[1].split("\n### ", 1)[0]
        rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
        names = [row[1].strip().strip("`") for row in rows if "measurement" not in row[5]]
        measured = [row[1].strip().strip("`") for row in rows if "measurement" in row[5]]
        out = tmp_path / "out"
        assert main(["run", "--config", str(fast_config), "--out", str(out)]) == EXIT_OK
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        assert sorted(names) == sorted(verdicts)
        assert measured == ["uloc_combined", "linf_reconstruction"]


    def test_readme_verdicts_snippet_runs(self):
        # The library snippet of README's "Verdicts" section, after a small
        # 1D preamble that gives it params, grid and initial.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Verdicts\n", 1)[1].split("\n### ", 1)[0]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        grid = fields.make_grid(1, 128, 40.0)
        scope = {
            "grid": grid,
            "params": solver.Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1),
            "initial": build_initial(grid, "gaussian_bump", 1.0, 2.5, M=8.0),
        }
        exec(snippet, scope)
        assert len(scope["reports"]) == 6
        assert sorted(scope["verdicts"]) == [
            "bounded_trend", "chem_energy", "chem_gradient_energy", "mass_ledger",
            "mass_ledger_per_step", "nonnegativity_c", "nonnegativity_n", "z_sup_cap",
        ]
        assert all(scope["verdicts"].values())

    def test_readme_coupled_snippet_runs(self):
        # The library snippet of README's "Coupled inequalities" section, with
        # the preamble of the Verdicts snippet; tau = 1 and mu > d chi / 4, so
        # z_residual applies.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Coupled inequalities\n", 1)[1].split("\n## ", 1)[0]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        grid = fields.make_grid(1, 128, 40.0)
        scope = {
            "grid": grid,
            "params": solver.Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1),
            "initial": build_initial(grid, "gaussian_bump", 1.0, 2.5, M=8.0),
        }
        exec(snippet, scope)
        assert [r.name for r in scope["reports"]] == [
            "density_power", "gradient_power", "mixed_first", "mixed_order_2"
        ]
        # Measurements: each carries its fitted constant and no verdict.
        for r in scope["reports"]:
            assert r.tolerance is None and math.isfinite(r.constant)
        assert scope["worst"] <= monitors.COMPARISON_TOL


class TestVerdictsCanFail:
    """Every verdict of a default 2D `kslab run` fails when one value it reads is wrong.

    Each entry names the recorded value changed at the last sample (or, for
    the per-step ledger, in the run's result) and how.
    """

    BREAKS = {
        "mass_ledger": ("l1_n", lambda v: 1.01 * v),
        "chem_energy": ("l2sq_c", lambda v: 10.0 * v),
        "chem_gradient_energy": ("l2sq_gradc", lambda v: 100.0 * v),
        "z_sup_cap": ("z_max", lambda v: 10.0 * v),
        "mass_ledger_per_step": ("mass_ledger_rel_max", lambda v: 1e-9),
        "nonnegativity_n": ("min_n", lambda v: -1.0),
        "nonnegativity_c": ("min_c", lambda v: -1.0),
        "bounded_trend": ("linf_n", lambda v: 10.0 * v),
    }

    @pytest.fixture(scope="class")
    def default_run(self):
        cfg = ExperimentConfig(monitor_every=1)  # the defaults, sampled at every step
        assert (cfg.d, cfg.tau, cfg.chi) == (2, 1.0, 1.0) and cfg.mu > cfg.d * cfg.chi / 4
        recorder = _CliRecorder(cfg)
        result = run(cli._initial(cfg), cfg.params(), cfg.run_config(), monitors=recorder)
        return recorder, result, cfg.params()

    @staticmethod
    def verdicts(recorder, result, params) -> dict[str, bool]:
        verdicts = cli._residual_reports(recorder, result)[1]
        verdicts.update(run_verdicts(result, params)[0])
        return verdicts

    def test_the_run_passes_every_verdict_and_the_measurements_give_none(self, default_run):
        verdicts = self.verdicts(*default_run)
        assert sorted(verdicts) == sorted(self.BREAKS)
        assert all(verdicts.values())

    @pytest.mark.parametrize("verdict", sorted(BREAKS))
    def test_a_wrong_value_fails_its_verdict(self, default_run, verdict):
        recorder, result, params = default_run
        key, change = self.BREAKS[verdict]
        if key == "mass_ledger_rel_max":
            result = replace(result, mass_ledger_rel_max=change(result.mass_ledger_rel_max))
        else:
            last = result.trace[-1]
            wrong = FunctionalSample(last.t, {**last.values, key: change(last.values[key])})
            result = replace(result, trace=result.trace[:-1] + [wrong])
        assert not self.verdicts(recorder, result, params)[verdict]


def test_no_calibration_is_left_but_the_residuals_header():
    # One mode: a fitted constant is a measurement in residuals.csv, and
    # nothing carries it from one run to the next.  The file's last column
    # keeps its name, so the file keeps its bytes.
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        found = [line.strip() for line in path.read_text().splitlines() if "calibrat" in line.lower()]
        header = ['fh.write("t,name,margin,calibration\\n")'] if path.name == "cli.py" else []
        assert found == header, path.name


class TestSampleCost:
    def test_one_gradient_per_sampled_state(self, monkeypatch):
        # The run loop's own sample, the CLI monitors and the next dt all need
        # |grad c| of the same state; it must be formed once.
        cfg = ExperimentConfig(n_axis=64)
        params = cfg.params()
        state = build_initial(
            cfg.grid(), cfg.preset, cfg.amplitude, cfg.effective_width(), cfg.effective_M()
        )
        recorder = _CliRecorder(cfg)
        calls = []

        def counting(original):
            def counted(f):
                calls.append(f)
                return original(f)

            return counted

        # Either forms |grad c|: a call of `gradient`, or an evaluation of
        # the cached `grad_abs`, which takes no `gradient` call.
        original = fields.gradient
        for name, module in list(sys.modules.items()):
            if name.startswith("kslab") and getattr(module, "gradient", None) is original:
                monkeypatch.setattr(module, "gradient", counting(original))
        grad_abs = functools.cached_property(counting(fields.ScalarField.grad_abs.func))
        grad_abs.__set_name__(fields.ScalarField, "grad_abs")
        monkeypatch.setattr(fields.ScalarField, "grad_abs", grad_abs)
        _builtin_sample(state)
        recorder(state)
        suggest_dt(state, params)
        assert len(calls) == 1


class TestArgumentErrors:
    # argparse's own exit code 2 would read as "blow-up suspected".
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--bogus"],
            ["sweep", "--param", "tau", "--values", "1"],
            ["sweep", "--param", "mu", "--values", "1", "--workers", "x"],
            ["sweep", "--param", "mu", "--values", "1", "--workers", "0"],
            ["sweep", "--param", "mu", "--values", "1", "--workers", "-3"],
            # `kslab run` has one mode, so no command takes --mode.
            ["run", "--mode", "assert"],
            ["sweep", "--param", "mu", "--values", "1", "--mode", "calibrate"],
            # The truncation study is `sweep --param init.M`; `mconv` is no command.
            ["mconv", "--M", "6", "--mode", "assert"],
            ["mconv", "--M", "6", "--workers", "2"],
            ["mconv", "--M", "6"],
            # The property suites are tier-1 tests; `check` is no command.
            ["check", "all"],
        ],
    )
    def test_usage_error_exits_64_without_artifacts(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    # Every row is validated before anything is written: the first row of
    # each case is valid on its own.
    @pytest.mark.parametrize(
        "lines,argv,key",
        [
            ("", ["sweep", "--param", "grid.n_axis", "--values", "64,64.5"], "grid.n_axis"),
            ("", ["sweep", "--param", "init.preset", "--values", "1"], "init.preset"),
            ("", ["sweep", "--param", "monitor.centers", "--values", "1"], "monitor.centers"),
        ],
    )
    def test_sweep_config_error_exits_64_without_artifacts(
        self, lines, argv, key, tmp_path, capsys
    ):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage:" in capsys.readouterr().out


class TestInputPaths:
    # An unreadable --config, or an --out that a file blocks, is a usage error
    # caught before anything is simulated or written.
    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["sweep", "--param", "mu", "--values", "1"],
            ["sweep", "--param", "init.M", "--values", "6"],
        ],
        ids=["run", "sweep", "mconv"],
    )
    @pytest.mark.parametrize(
        "config,out",
        [("missing.cfg", "out"), (".", "out"), ("fast.cfg", "fast.cfg"), ("fast.cfg", "fast.cfg/out")],
        ids=["missing-config", "config-is-a-directory", "out-is-a-file", "out-under-a-file"],
    )
    def test_unusable_path_exits_64_and_writes_nothing(
        self, fast_config, tmp_path, capsys, argv, config, out
    ):
        before = tree(tmp_path)
        code = main(argv + ["--config", str(tmp_path / config), "--out", str(tmp_path / out)])
        assert code == EXIT_USAGE
        assert tree(tmp_path) == before
        blocking = tmp_path / (config if out == "out" else out)
        assert str(blocking) in capsys.readouterr().err

    def test_binary_config_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"grid.d=\xff\xfe\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"{cfg}: not a text file" in capsys.readouterr().err
        assert not out.exists()


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

    def test_damped_2d_rows_stay_nonnegative(self, tmp_path):
        # The damped rows of the benchmark's 2D sweep.
        cfg = tmp_path / "sweep2d.cfg"
        cfg.write_text(SWEEP2D_CONFIG)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--seed", "1",
                "--param", "mu", "--values", "1,10"]
        assert main(argv) == EXIT_OK
        for value in ("1", "10"):
            summary = json.loads((out / f"mu_{value}" / "summary.json").read_text())
            assert summary["status"] == "completed"
            assert summary["verdicts"]["nonnegativity_n"]
            assert summary["verdicts"]["nonnegativity_c"]
            assert summary["mass_ledger_rel_max"] <= 1e-10

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

    @pytest.mark.parametrize("values", ["1,1.0", "0.5,2,0.50000001"])
    def test_values_sharing_a_row_directory_are_usage_errors(
        self, fast_config, tmp_path, values, capsys
    ):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", "mu", "--values", values, "--workers", "2"]
        assert main(argv) == EXIT_USAGE
        assert "distinct row directories" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "workers,values,cpus,pool",
        [
            (100000, "1", 2, None),  # one row: the serial loop, no pool
            (100000, "0.5,1", 2, 2),
            (2, "0.5,1,2", 4, 2),
            (8, "0.5,1", 4, 2),
            (4, "0.5,1,2", 1, None),
        ],
    )
    def test_pool_size_is_bounded_by_rows_and_cpus(
        self, fast_config, tmp_path, monkeypatch, workers, values, cpus, pool
    ):
        made = []

        class InProcessPool:
            """Records the pool it is asked for and maps in this process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        argv = ["sweep", "--config", str(fast_config), "--out", str(tmp_path / "sweep"),
                "--param", "mu", "--values", values, "--workers", str(workers)]
        assert main(argv) == EXIT_OK
        assert made == ([] if pool is None else [pool])

    def test_cpus_counts_this_process_affinity(self, monkeypatch):
        # The pool's cap is the CPUs this process may run on, not the host's.
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert cli._cpus() == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._cpus() == 8
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._cpus() == 1

    def test_any_config_key_sets_its_rows(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", "grid.n_axis", "--values", "64,128"]
        assert main(argv) == EXIT_OK
        for n in (64, 128):
            assert load_checkpoint(out / f"grid.n_axis_{n}" / "final.kslb").grid.n_axis == n
        base = ExperimentConfig.from_file(fast_config)
        assert SweepSpec("params.lambda", (0.1,), base).configs() == [replace(base, lam=0.1)]
        seeds = SweepSpec("init.seed", (3.0, 7.0), base).configs()
        assert seeds == [replace(base, seed=3), replace(base, seed=7)]
        assert all(type(cfg.seed) is int for cfg in seeds)

    def test_mu_zero_reference_per_row(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", "chi", "--values", "0.5,2"]
        assert main(argv) == EXIT_OK
        base = ExperimentConfig.from_file(fast_config)
        expected = [
            mu_zero_estimate(base.monitor_k, replace(base, chi=chi).params()).mu0
            for chi in (0.5, 2.0)
        ]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[4]) for row in rows] == expected
        assert expected[0] != expected[1]

    def test_failed_row_is_recorded_and_the_sweep_goes_on(self, fast_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", "init.amplitude", "--values", "1,1e308"]
        assert main(argv) == EXIT_OK
        base = ExperimentConfig.from_file(fast_config)
        mu0 = cli._fmt(mu_zero_estimate(base.monitor_k, base.params()).mu0)
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("1,completed,")
        assert rows[1] == f"1e+308,error,nan,0,{mu0}"
        printed = capsys.readouterr().out
        assert "init.amplitude_1: status: completed" in printed
        assert ("init.amplitude_1e+308: FloatingPointError: "
                "the initial continuation gauge is not finite") in printed

    def test_a_row_whose_random_modes_overflow_is_recorded(self, tmp_path, capsys):
        cfg = tmp_path / "random.cfg"
        cfg.write_text(FAST_CONFIG + "init.preset=random_smooth\n")
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--out", str(out),
                "--param", "init.amplitude", "--values", "1,1e308"]
        assert main(argv) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("1,completed,")
        assert rows[1].startswith("1e+308,error,nan,0,")
        captured = capsys.readouterr()
        assert "init.amplitude_1e+308: FloatingPointError: overflow encountered" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "param,values",
        [
            ("params.lambda", "0.5,1e308"),
            ("params.chi", "1,1e300"),
            ("params.tau", "1,1e-300"),
            ("monitor.k", "3,200"),
        ],
    )
    def test_a_row_whose_mu_zero_overflows_reads_nan(self, fast_config, tmp_path, capsys, param, values):
        # The row fails in its run, and the assembly of its mu_0 reference
        # overflows too: the sweep still writes its table and exits 0.
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", param, "--values", values]
        assert main(argv) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[1] == "completed"
        assert rows[1] == f"{cli._fmt(float(values.split(',')[1]))},error,nan,0,nan"
        first = f"{param}_{float(values.split(',')[0]):g}: status: completed"
        assert first in capsys.readouterr().out.splitlines()

    def test_a_file_at_a_row_path_exits_64_and_writes_nothing(
        self, fast_config, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "mu_1").write_text("not a row\n")
        before = tree(tmp_path)
        monkeypatch.setattr(cli, "cmd_run", lambda cfg, out: pytest.fail("a row was simulated"))
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", "mu", "--values", "0.5,1"]
        assert main(argv) == EXIT_USAGE
        assert tree(tmp_path) == before
        assert "['mu_1']" in capsys.readouterr().err

    def test_a_fault_of_the_program_in_a_row_propagates(self, fast_config, tmp_path, monkeypatch):
        # Only an arithmetic failure becomes an error row; any other exception
        # is a fault of the program and ends the sweep.
        def faulty(cfg, out):
            raise KeyError("a fault")

        monkeypatch.setattr(cli, "cmd_run", faulty)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(fast_config), "--out", str(out),
                "--param", "mu", "--values", "0.5,1", "--workers", "1"]
        with pytest.raises(KeyError, match="a fault"):
            main(argv)
        assert not (out / "sweep.csv").exists()

    def test_a_row_failing_a_verdict_leaves_the_sweep_exit_0(self, tmp_path, capsys):
        # The mu = 0.1 row completes but fails nonnegativity_n, so its own
        # `kslab run` would exit 4; the sweep records it and exits 0.
        cfg = tmp_path / "sweep2d.cfg"
        cfg.write_text(SWEEP2D_CONFIG)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--seed", "1",
                "--param", "mu", "--values", "0.1,1"]
        assert main(argv) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [(float(row.split(",")[0]), row.split(",")[1]) for row in rows] == [
            (0.1, "completed"), (1.0, "completed")
        ]
        assert not json.loads((out / "mu_0.1" / "summary.json").read_text())["verdicts"][
            "nonnegativity_n"
        ]
        printed = capsys.readouterr().out.splitlines()
        assert "mu_0.1: FAIL nonnegativity_n" in printed
        assert "mu_1: PASS nonnegativity_n" in printed

    def test_parallel_stdout_is_labelled_in_row_order(self, fast_config, tmp_path, capsys):
        printed = []
        for attempt in range(2):
            argv = ["sweep", "--config", str(fast_config), "--out", str(tmp_path / str(attempt)),
                    "--param", "mu", "--values", "0.5,1,2", "--workers", "2"]
            assert main(argv) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        rows = ["mu_0.5", "mu_1", "mu_2"]
        labels = [line.split(": ", 1)[0] for line in printed[0].splitlines()]
        assert labels == sorted(labels, key=rows.index)
        verdicts = [line for line in printed[0].splitlines() if "PASS" in line or "FAIL" in line]
        assert len(verdicts) >= 3 and all(line.split(": ", 1)[0] in rows for line in verdicts)
        for row in rows:
            assert f"{row}: status: completed" in printed[0].splitlines()


def mconv(cfg: Path, out: Path, values: str, *flags: str) -> int:
    """The truncation study: a sweep over init.M, which also writes mconv.csv."""
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--param", "init.M", "--values", values]
    return main(argv + list(flags))


class TestMconvSweep:
    def test_compact_data_identical_across_truncations(self, tmp_path):
        # The bump is supported well inside the smallest truncation, so all
        # runs coincide and every pairwise difference vanishes.
        cfg = tmp_path / "m.cfg"
        cfg.write_text(FAST_CONFIG.replace("init.width=2.5", "init.width=1.0"))
        out = tmp_path / "mconv"
        code = mconv(cfg, out, "6,7,8")
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
        mconv(cfg, out, "4,6,8")
        rows = (out / "mconv.csv").read_text().splitlines()[1:]
        diffs = [float(r.split(",")[2]) for r in rows]
        assert diffs[1] < diffs[0]

    def test_oversized_truncation_usage_error(self, fast_config, tmp_path):
        code = mconv(fast_config, tmp_path / "m", "5,15")
        assert code == EXIT_USAGE

    def test_workers_write_the_same_bytes(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(FAST_CONFIG.replace("init.width=2.5", "init.width=4.0"))
        one, two = tmp_path / "one", tmp_path / "two"
        assert mconv(cfg, one, "4,6,8") == EXIT_OK
        assert mconv(cfg, two, "4,6,8", "--workers", "2") == EXIT_OK
        assert (one / "mconv.csv").read_bytes() == (two / "mconv.csv").read_bytes()

    def test_rows_stopped_at_different_times_not_compared(self, tmp_path, capsys):
        # An undamped collapse: the M = 4 row reports blow-up at t = 0.264
        # while M = 0.3 runs to t_end, so their finals are no truncation pair.
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            "grid.d=2\ngrid.n_axis=64\ngrid.box_len=20\nparams.chi=1\nparams.tau=1\n"
            "params.lambda=0\nparams.mu=0\ninit.preset=gaussian_bump\ninit.amplitude=20\n"
            "init.width=0.8\nrun.t_end=0.5\n"
        )
        out = tmp_path / "m"
        assert mconv(cfg, out, "0.3,4") == EXIT_OK
        statuses = [line.split(",")[1] for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert statuses == ["completed", "blowup_suspected"]
        assert (out / "mconv.csv").read_text().splitlines()[1:] == ["0.29999999999999999,4,nan,nan"]
        assert "M 0.3 vs 4: not compared, final t=0.5 vs t=0.264" in capsys.readouterr().out

    def test_single_truncation_degenerate(self, fast_config, tmp_path):
        out = tmp_path / "m"
        code = mconv(fast_config, out, "6")
        assert code == EXIT_OK
        assert len((out / "mconv.csv").read_text().splitlines()) == 1


class TestReportCommand:
    def test_long_table_from_run(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(fast_config), "--out", str(out)])
        assert main(["report", "--out", str(out)]) == EXIT_OK
        lines = (out / "report_long.csv").read_text().splitlines()
        assert lines[0] == "source,key,name,value"
        assert len(lines) > 10

    def test_long_table_from_sweep(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(fast_config), "--out", str(out),
              "--param", "mu", "--values", "0.5,1.0"])
        assert main(["report", "--out", str(out)]) == EXIT_OK
        lines = (out / "report_long.csv").read_text().splitlines()
        assert lines[0] == "source,key,name,value"
        names = ("status", "sup_linf_n", "bounded", "mu_zero_reference")
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:3] for row in rows] == [
            ["sweep", value, name] for value in ("0.5", "1") for name in names
        ]
        assert [row[3] for row in rows if row[2] == "status"] == ["completed", "completed"]

    def test_empty_directory_usage_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "name,content,message",
        [
            ("trace.csv", b"", "has no header"),
            ("residuals.csv", b"t,name,margin,calibration\n0,mass_ledger\n", "line 2 has 2 fields"),
            ("sweep.csv", b"value,status\n\xff,\xfe\n", "cannot be read as text"),
            ("trace.csv", None, "cannot be read as text"),
        ],
        ids=["empty-trace", "ragged-residuals", "binary-sweep", "trace-is-a-directory"],
    )
    def test_csv_that_is_no_table_exits_64_naming_it(self, tmp_path, capsys, name, content, message):
        path = tmp_path / name
        path.mkdir() if content is None else path.write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"{tmp_path / name} {message}" in capsys.readouterr().err
        assert not (tmp_path / "report_long.csv").exists()
