"""Tests for configuration parsing, the CLI commands, and exit codes."""

import importlib.util
import json
import re
import resource
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import torusns as tn
from torusns.inequality_lab import CSV_COLUMNS, EnergyLedger
from torusns.runner_cli import (
    ConfigError,
    RunConfig,
    _sweep_points,
    cmd_constants,
    cmd_run,
    cmd_signcheck,
    cmd_sweep,
    cmd_verify,
    main,
    parse_config,
)

FAST_RUN = """
n = 16
delta = 0.01
stride = 8
"""


def _main_run(tmp_path, name, config_text, *flags):
    """`main` on a config file holding `config_text`; returns the output directory."""
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(config_text)
    out = tmp_path / name
    assert main(["--config", str(cfg_path), "--out", str(out), *flags, "run"]) == 0
    return out


def _zero_ledger_text(rows: int) -> str:
    """CSV text of a valid ledger: `rows` rows at tau = 0, 1, ..., all else 0."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(["0", str(tau)] + ["0"] * 17) for tau in range(rows)]
    return "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-finite constant {name}")


def _read_report(path) -> dict:
    """A report.json, parsed as strict JSON: NaN and Infinity are errors."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _recorded_threads(out) -> int:
    return parse_config(_read_report(out / "report.json")["config_text"]).threads


class TestConfigParsing:
    def test_partial_config_gets_defaults(self):
        config = parse_config("alpha = 0.0625\nn = 32\n")
        assert config.alpha == 0.0625
        assert config.n == 32
        assert config.delta == 0.01
        assert config.horizon == 1.0

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("alpha = 0.2\n")

    def test_empty_config_is_all_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines(self):
        config = parse_config("# a comment\n\nseed = 5  # trailing\n")
        assert config.seed == 5

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n = 16\nwibble = 3\n")

    def test_repeated_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: repeated option 'n'"):
            parse_config("n = 32\nn = 16\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("n = sixteen\n")

    def test_roundtrip_through_text(self):
        config = parse_config("alpha = 0.09375\nsweep_delta = 0.005, 0.01\n")
        assert parse_config(config.as_text()) == config

    def test_every_field_roundtrips(self):
        config = RunConfig(
            n=16,
            box_length=3.0,
            horizon=2.0,
            alpha=0.03125,
            delta=0.02,
            initial_kind="taylor_green",
            seed=7,
            init_k_max=2.0,
            c_cfl=0.5,
            t_min=0.01,
            stride=3,
            epsilon=0.2,
            decay_tol=0.1,
            out_dir="elsewhere",
            inject_corruption="trilinear_flip",
            threads=2,
            sweep_alpha=(0.03125, 0.09375),
            sweep_delta=(0.005, 0.02),
            sweep_n=(16, 24),
        )
        defaults = RunConfig()
        for f in fields(RunConfig):
            assert getattr(config, f.name) != getattr(defaults, f.name), f.name
        assert parse_config(config.as_text()) == config

    def test_sweep_axis_parsing(self):
        config = parse_config("sweep_n = 16, 32\nsweep_delta = 0.005, 0.01, 0.02\n")
        assert config.sweep_n == (16, 32)
        assert config.sweep_delta == (0.005, 0.01, 0.02)

    def test_corruption_kind_validated(self):
        with pytest.raises(ConfigError):
            parse_config("inject_corruption = gremlins\n")

    def test_sweep_point_count(self):
        config = parse_config("sweep_n = 16, 32\nsweep_delta = 0.005, 0.01, 0.02\n")
        assert len(list(_sweep_points(config))) == 6


class TestSigncheckCommand:
    def test_default_alphas_pass(self, capsys):
        assert cmd_signcheck([1.0 / 16.0]) == 0
        assert "alpha=0.0625" in capsys.readouterr().out

    def test_alpha_list(self):
        assert cmd_signcheck([1 / 32, 1 / 16, 3 / 32, 0.124]) == 0

    def test_invalid_alpha(self):
        assert cmd_signcheck([0.13]) == 1


class TestConstantsCommand:
    def test_table(self, capsys):
        assert cmd_constants([1.0 / 16.0]) == 0
        out = capsys.readouterr().out
        assert "C(alpha,4)" in out

    def test_invalid_alpha(self):
        assert cmd_constants([0.5]) == 1


class TestRunCommand:
    def test_small_run_exit_zero(self, tmp_path):
        config = parse_config(FAST_RUN)
        code = cmd_run(replace(config, out_dir=str(tmp_path / "out")))
        assert code == 0
        ledger_path = tmp_path / "out" / "ledger.csv"
        report_path = tmp_path / "out" / "report.json"
        assert ledger_path.exists() and report_path.exists()
        ledger = EnergyLedger.read_csv(ledger_path)
        assert ledger.to_csv_text() == ledger_path.read_text()
        bundle = _read_report(report_path)
        assert bundle["schema"] == 1
        assert {r["inequality_id"] for r in bundle["reports"]} >= {"l2_energy"}
        report_keys = {
            "inequality_id", "status", "max_residual", "tolerance", "certificate", "tau_range",
            "details",
        }
        assert all(set(r) == report_keys for r in bundle["reports"])
        quoted = {"decided_by", "worst_row", "worst_tau"}
        assert all(quoted <= set(r["details"]) for r in bundle["reports"])
        (split,) = [r for r in bundle["reports"] if r["inequality_id"] == "split_energy_decay"]
        assert split["certificate"] == 0.0 and split["details"]["smallness_threshold"] is None
        assert bundle["certificates"]
        certificate_keys = {"inequality_id", "value", "n", "delta"}
        assert all(set(c) == certificate_keys for c in bundle["certificates"])

    def test_report_records_the_u_column_audit(self, tmp_path):
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(tmp_path))) == 0
        audit = _read_report(tmp_path / "report.json")["u_column_audit"]
        assert set(audit) == {"row", "t", "worst_gap", "column"}
        assert audit["row"] == 0 and audit["t"] == 0.0
        assert 0.0 <= audit["worst_gap"] <= 1e-12
        assert audit["column"] in tn.ns_dynamics.U_COLUMNS + (None,)

    def test_report_records_peak_rss(self, tmp_path):
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(tmp_path))) == 0
        recorded = _read_report(tmp_path / "report.json")["peak_rss_mb"]
        assert 0.0 < recorded <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def test_corruption_fixture_exit_two(self, tmp_path):
        config = parse_config(FAST_RUN + "inject_corruption = energy_bump\n")
        assert cmd_run(replace(config, out_dir=str(tmp_path / "bad"))) == 2

    def test_unwritable_output_exit_four(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(blocker))) == 4

    def test_numerical_abort_exit_three(self, tmp_path, monkeypatch):
        def bad_initial(config, grid=None):
            g = tn.make_grid(config.n, config.box_length)
            band = np.zeros((3,) + g.band.k_sq.shape, dtype=complex)
            band[0, 1, 0, 0] = np.nan
            return tn.TrajectoryState(g, band, 0.0, 0, 0.0)

        monkeypatch.setattr(tn.ns_dynamics, "make_initial_data", bad_initial)
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(tmp_path / "nan"))) == 3

    def test_route_disagreement_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tn.ns_dynamics, "route_gap", lambda a, b: 1e-8)
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(tmp_path / "gap"))) == 2
        assert "invalid ledger: route disagreement" in capsys.readouterr().err

    def test_invalid_row_exit_two(self, tmp_path, monkeypatch, capsys):
        real_route = tn.ns_dynamics.w_functionals_scaling_route

        def negative_h1(*args, **kwargs):
            return replace(real_route(*args, **kwargs), w_h1_sq=-1.0)

        monkeypatch.setattr(tn.ns_dynamics, "w_functionals_scaling_route", negative_h1)
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(tmp_path / "neg"))) == 2
        err = capsys.readouterr().err
        assert "[torusns] invalid ledger: " in err and "negative squared norm w_h1_sq" in err

    def test_two_row_ledger_exit_two(self, tmp_path, capsys):
        # row 0 and the final row only: too few for the differenced checks
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text("n = 16\nhorizon = 0.03\nstride = 100000\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "run"]) == 2
        assert "[torusns] invalid ledger: ledger has 2 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_run_resolves_and_records_worker_count(self, tmp_path, monkeypatch):
        seen = []
        real_run = tn.ns_dynamics.run

        def spy(*args, **kwargs):
            seen.append(scipy.fft.get_workers())
            return real_run(*args, **kwargs)

        monkeypatch.setattr(tn.ns_dynamics, "run", spy)
        out = tmp_path / "threads"
        assert cmd_run(replace(parse_config(FAST_RUN + "threads = 2\n"), out_dir=str(out))) == 0
        assert seen == [2]
        assert _recorded_threads(out) == 2
        assert scipy.fft.get_workers() == 1


class TestVerifyCommand:
    def test_verify_written_ledger(self, tmp_path):
        config = parse_config(FAST_RUN)
        assert cmd_run(replace(config, out_dir=str(tmp_path))) == 0
        assert cmd_verify(str(tmp_path / "ledger.csv"), config) == 0

    def test_missing_ledger_exit_four(self, tmp_path):
        config = parse_config(FAST_RUN)
        assert cmd_verify(str(tmp_path / "nope.csv"), config) == 4

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("a,b,c\n1,2,3\n", "unexpected ledger header"),
            (
                "\n".join(
                    [",".join(CSV_COLUMNS)]
                    + [",".join(["0", tau] + ["0"] * 16 + ["1e-08"]) for tau in "012"]
                ),
                "route disagreement",
            ),
            (_zero_ledger_text(2), "ledger has 2 rows"),
        ],
        ids=["header", "route_gap", "two_rows"],
    )
    def test_invalid_ledger_exit_one(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.csv"
        path.write_text(text + "\n")
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[torusns] invalid ledger: " in err and reason in err

    def test_undecodable_ledger_exit_one(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(_zero_ledger_text(3).encode("ascii") + b"\xff\n")
        assert main(["verify", str(path)]) == 1
        assert "[torusns] invalid ledger: ledger file is not ASCII" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-2", "nan"])
    def test_bad_decay_tol_exit_one(self, tmp_path, capsys, value):
        ledger_path = tmp_path / "ledger.csv"
        ledger_path.write_text(_zero_ledger_text(3))
        cfg_path = tmp_path / "tol.cfg"
        cfg_path.write_text(f"decay_tol = {value}\n")
        assert main(["--config", str(cfg_path), "verify", str(ledger_path)]) == 1
        assert "[torusns] config error: decay_tol must be nonnegative" in capsys.readouterr().err

    def test_envelope_only_h1_failure(self, tmp_path, capsys, h1_envelope_only_ledger):
        # the raw h1 inequality holds on every row; the line quotes the envelope
        path = tmp_path / "ledger.csv"
        h1_envelope_only_ledger.write_csv(path)
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert "[torusns] h1_gradient: violated (" in out
        lines = re.findall(r"(\w+): (\w+) \(residual=(\S+), tol=([^,)]+)", out)
        assert len(lines) == 6
        for check, status, residual, tol in lines:
            fired = status in ("violated", "inconclusive")
            assert fired == (float(residual) > float(tol)), check

    @pytest.fixture(scope="class")
    def short_table(self):
        """The table of the n = 16, horizon = 0.05 ledger."""
        return tn.run(tn.SimulationConfig(n=16, horizon=0.05)).table.copy()

    @staticmethod
    def _verify_table(path, table) -> int:
        lines = [",".join(CSV_COLUMNS)] + [",".join(f"{v:.17g}" for v in row) for row in table]
        path.write_text("\n".join(lines) + "\n")
        return main(["verify", str(path)])

    @pytest.mark.parametrize("column", ["t", "u_l2sq", "low_sup", "route_gap"])
    def test_negative_entry_exit_one(self, tmp_path, capsys, short_table, column):
        # a time, a norm or a gap is never negative
        table = short_table.copy()
        table[:, CSV_COLUMNS.index(column)] = -1.0
        assert self._verify_table(tmp_path / "neg.csv", table) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"[torusns] invalid ledger: negative entries in column {column}"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning reaches stderr
    @pytest.mark.parametrize(
        "case, code",
        [("huge_tau", 1), ("huge_values", 2), ("tiny_values", 0)],
    )
    def test_extreme_values_exit_without_warnings(self, tmp_path, capsys, short_table, case, code):
        # tau = 1e300 is no -ln(T - t) of a double; values scaled by 1e300
        # overflow the split-energy check, which cannot decide; values
        # scaled by 1e-300 keep their verdicts
        table = short_table.copy()
        values = slice(CSV_COLUMNS.index("u_l2sq"), CSV_COLUMNS.index("lap_coupling") + 1)
        if case == "huge_tau":
            table[:, 1] = 1e300 * np.arange(1, len(table) + 1)
        else:
            table[:, values] *= 1e300 if case == "huge_values" else 1e-300
        assert self._verify_table(tmp_path / "extreme.csv", table) == code
        captured = capsys.readouterr()
        if case == "huge_tau":
            assert captured.err.splitlines() == [
                "[torusns] invalid ledger: tau outside [-709.783, 744.44], the values of"
                " -ln(T - t) for a positive finite T - t"
            ]
        else:
            assert captured.err == ""
            assert len(re.findall(r"\[torusns\] \w+: ", captured.out)) == 6
        if case == "huge_values":
            assert "split_energy_decay: inconclusive (residual=inf, tol=inf" in captured.out


class TestSweepCommand:
    def test_empty_axes_rejected(self):
        assert cmd_sweep(RunConfig()) == 1

    def test_two_point_sweep(self, tmp_path):
        config = parse_config(FAST_RUN + "sweep_delta = 0.005, 0.01\n")
        code = cmd_sweep(replace(config, out_dir=str(tmp_path)))
        assert code == 0
        assert (tmp_path / "certificates.csv").exists()
        subdirs = [p.name for p in tmp_path.iterdir() if p.is_dir()]
        assert len(subdirs) == 2

    def test_close_axis_values_get_their_own_directories(self, tmp_path):
        # equal to six significant digits: each point still keeps its files
        config = parse_config(FAST_RUN + "sweep_alpha = 0.0625, 0.06250001\n")
        assert cmd_sweep(replace(config, out_dir=str(tmp_path))) == 0
        points = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert points == ["alpha0.06250001_delta0.01_n16", "alpha0.0625_delta0.01_n16"]
        reports = [_read_report(tmp_path / p / "report.json") for p in points]
        alphas = {parse_config(r["config_text"]).alpha for r in reports}
        assert alphas == {0.0625, 0.06250001}
        assert len((tmp_path / "certificates.csv").read_text().splitlines()) == 7

    def test_point_records_its_own_out_dir(self, tmp_path):
        config = parse_config(FAST_RUN + "sweep_delta = 0.01\n")
        assert cmd_sweep(replace(config, out_dir=str(tmp_path))) == 0
        (point,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        report = _read_report(point / "report.json")
        assert parse_config(report["config_text"]).out_dir == str(point)

    def test_failed_points_report_no_stale_certificates(self, tmp_path, monkeypatch):
        # a second sweep into the same directory whose points all abort must
        # not list the certificates the first sweep left on disk
        config = parse_config(FAST_RUN + "sweep_delta = 0.01\n")
        table = tmp_path / "certificates.csv"
        assert cmd_sweep(replace(config, out_dir=str(tmp_path))) == 0
        assert len(table.read_text().splitlines()) > 1

        def nan_initial(config, grid=None):
            g = tn.make_grid(config.n, config.box_length)
            band = np.full((3,) + g.band.k_sq.shape, np.nan, dtype=complex)
            return tn.TrajectoryState(g, band, 0.0, 0, 0.0)

        monkeypatch.setattr(tn.ns_dynamics, "make_initial_data", nan_initial)
        assert cmd_sweep(replace(config, out_dir=str(tmp_path))) == 3
        assert table.read_text().splitlines() == ["inequality_id,alpha,delta,n,value"]


def test_import_leaves_unused_scipy_modules_unloaded():
    src = Path(tn.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import torusns; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.ndimage'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_names_the_benchmark_reads_exist():
    # perfbench's child.py and spans.py reach these by name: a traced run
    # reads the profile cache, a state's u_hat.grid after every cfl_dt and
    # the ledger through EnergyLedger, and counts steps, rows and transforms
    # by these function names
    from torusns import multiplier_bank, ns_dynamics, runner_cli, similarity_frame, spectral_core

    named = {
        runner_cli: ("main",),
        ns_dynamics: ("run", "step", "cfl_dt"),
        spectral_core: ("to_physical", "to_spectral", "norms"),
        similarity_frame: (
            "w_functionals_scaling_route",
            "w_functionals_multiplier_route",
            "route_gap",
        ),
    }
    for module, names in named.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for name in ("read_csv", "validate", "column", "__len__", "write_csv"):
        assert callable(getattr(tn.EnergyLedger, name, None)), f"EnergyLedger.{name}"
    assert isinstance(multiplier_bank._profile_cache, dict)
    grid = tn.make_grid(16)
    state = tn.make_initial_data(tn.SimulationConfig(n=16), grid)
    assert state.u_hat.grid is grid


def test_traced_benchmark_run_passes_its_checks(tmp_path, monkeypatch):
    # the benchmark's traced run of ledger32, through perfbench/run.py's own
    # runner: a run path without a transform, or without a name perfbench
    # reads, fails here rather than only in the benchmark
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends perfbench/
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    result = bench.run_once(bench.WORKLOADS["ledger32"], 0, tmp_path / "run", True, 300.0)
    assert result["traced"] and result["problems"] == []
    bench.layer_metrics(result)


class TestMainEntry:
    def test_signcheck_subcommand(self):
        assert main(["signcheck", "0.0625"]) == 0

    def test_constants_subcommand(self):
        assert main(["constants", "0.03125"]) == 0

    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(FAST_RUN)
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "run"])
        assert code == 0

    def test_strict_flag_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(FAST_RUN)
        code = main(["--config", str(cfg_path), "--strict", "--out", str(tmp_path / "s"), "run"])
        assert code == 0

    def test_bad_stride_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "stride.cfg"
        cfg_path.write_text("stride = 0\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path), "run"]) == 1
        assert "[torusns] config error: output stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--bogus", "run"], [], ["signcheck", "x"], ["--stride", "4", "run"]],
        ids=["unknown_flag", "missing_command", "bad_value", "stride_flag"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        # exit 2 is for verdicts, so a bad command line does not exit as argparse would
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("[torusns] usage error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: torusns" in capsys.readouterr().out

    def test_bad_config_exit_one(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("alpha = 0.9\n")
        assert main(["--config", str(cfg_path), "run"]) == 1

    @pytest.mark.parametrize(
        "axis", ["sweep_n = 7", "sweep_delta = -1", "sweep_n = 8, 16", "sweep_n = 16, 16"],
        ids=["odd_n", "negative_delta", "n8_loses_initial_modes", "repeated_n"],
    )
    def test_bad_sweep_point_exit_one(self, tmp_path, capsys, axis):
        # every sweep point is checked when the config is built, before any runs
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(FAST_RUN + axis + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 1
        assert "[torusns] config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "init_k_max = 0.5",
            "init_k_max = nan",
            "init_k_max = -1",
            "delta = nan",
            "delta = inf",
            "delta = 0",
            "delta = 0\ninitial_kind = taylor_green",
        ],
        ids=[
            "k_below_lowest_mode",
            "k_nan",
            "k_negative",
            "delta_nan",
            "delta_inf",
            "delta_zero",
            "taylor_green_delta_zero",
        ],
    )
    def test_bad_initial_data_exit_one(self, tmp_path, capsys, line):
        # random_low_mode with no mode |k| <= init_k_max, or data of norm 0,
        # would certify the zero field
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(f"n = 16\nhorizon = 0.03\nstride = 1\n{line}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "run"]) == 1
        assert "[torusns] config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning reaches stderr
    @pytest.mark.parametrize("horizon", ["1e300", "1e-300"])
    def test_extreme_horizon_exit_two(self, tmp_path, capsys, horizon):
        # a power of s = T - t, or the w-box's cell volume, overflows a
        # float: the row holds inf and fails validation, not OverflowError,
        # and the inf and nan arithmetic of the row warns of nothing
        cfg_path = tmp_path / "horizon.cfg"
        cfg_path.write_text(f"n = 16\nhorizon = {horizon}\nstride = 1\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("[torusns] invalid ledger: row at t=0.0: non-finite functional")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning reaches stderr
    @pytest.mark.parametrize(
        "delta, code, message",
        [
            ("1e300", 3, "numerical abort: non-finite velocity at t=0.0"),
            ("1e150", 2, "invalid ledger: row at t=0.0: non-finite functional low_l4"),
        ],
        ids=["speed_overflows", "row_overflows"],
    )
    def test_huge_delta_exit_on_one_line(self, tmp_path, capsys, delta, code, message):
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(f"n = 8\ninit_k_max = 1\ndelta = {delta}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"[torusns] {message}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning reaches stderr
    @pytest.mark.parametrize(
        "line, code, message",
        [
            ("box_length = 1e300", 1, "config error: box length 1e+300 at n=8 gives a volume"),
            ("box_length = 1e-300", 1, "config error: box length 1e-300 at n=8 gives a volume"),
            ("box_length = inf", 1, "config error: box length inf at n=8 gives a volume"),
            ("t_min = 1e-300", 1, "config error: t_min 1e-300 is below the resolution"),
            ("t_min = nan", 1, "config error: line 4: t_min must lie in (0, horizon), got nan"),
            ("c_cfl = 5e-324", 3, "numerical abort: step size bound underflows to 0.0 at t=0.0"),
        ],
        ids=["box_huge", "box_tiny", "box_inf", "t_min_below_resolution", "t_min_nan",
             "dt_underflows"],
    )
    def test_extreme_run_config_exits_on_one_line(self, tmp_path, capsys, line, code, message):
        # each raised a traceback: OverflowError or ZeroDivisionError from the
        # box's volume or max_wavenumber**2, the clock's ValueError at t = T
        # (horizon - t_min == horizon), and step's ValueError for dt = 0; a
        # NaN t_min, SimulationConfig's "unset" value, ran with the default
        cfg_path = tmp_path / "extreme.cfg"
        cfg_path.write_text(f"n = 8\nhorizon = 0.05\ninitial_kind = taylor_green\n{line}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"[torusns] {message}")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_turning_non_finite_mid_run_exits_three(self, tmp_path, capsys, monkeypatch):
        # the state's max_speed, which cfl_dt reads before the next step, is
        # the run's one check for a non-finite state
        stepped = tn.ns_dynamics.step

        def spoiled(state, dt):
            new = stepped(state, dt)
            if new.step_index == 2:
                new.band[0, 1, 0, 0] = np.nan
            return new

        monkeypatch.setattr(tn.ns_dynamics, "step", spoiled)
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text("n = 8\nhorizon = 0.05\ninitial_kind = taylor_green\nstride = 1\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        pattern = r"\[torusns\] numerical abort: non-finite velocity at t=\S+ \(step 2\)"
        assert re.fullmatch(pattern, err[0])
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_hermitian_state_fails_the_u_column_audit(self, tmp_path, capsys, monkeypatch):
        # the plane m3 = 0 is its own mirror image: a band that is not
        # Hermitian there holds power that its full spectrum does not, so the
        # first row's u columns disagree with norms, and the run says which
        initial = tn.ns_dynamics.make_initial_data

        def skewed(config, grid):
            state = initial(config, grid)
            band = state.band.copy()
            band[0, 1, 0, 0] += 1j * np.max(np.abs(band))
            return tn.ns_dynamics.TrajectoryState(grid, band, 0.0, 0, 0.0)

        monkeypatch.setattr(tn.ns_dynamics, "make_initial_data", skewed)
        cfg_path = tmp_path / "skew.cfg"
        cfg_path.write_text(FAST_RUN)
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("[torusns] invalid ledger: row at t=0.0: column u_l2sq is ")
        assert not out.exists()

    def test_taylor_green_ignores_init_k_max(self, tmp_path, capsys):
        # the default init_k_max = 4 does not survive dealiasing at n = 8, but
        # the vortex's modes +-1 do
        cfg_path = tmp_path / "tg8.cfg"
        cfg_path.write_text("n = 8\ninitial_kind = taylor_green\nhorizon = 0.05\nstride = 1\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(re.findall(r"\[torusns\] \w+: ", captured.out)) == 6

    def test_three_row_ledger_violates_no_differenced_check(self, tmp_path, capsys):
        # three points fix a parabola, so differencing_tolerance has no
        # truncation budget: the differenced checks are inconclusive there
        cfg_path = tmp_path / "three.cfg"
        cfg_path.write_text("n = 8\ninit_k_max = 1\nhorizon = 0.05\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == 2
        assert len(EnergyLedger.read_csv(out / "ledger.csv")) == 3
        captured = capsys.readouterr().out
        for check in ("l2_energy", "h1_gradient", "h2_laplacian"):
            assert f"[torusns] {check}: inconclusive (" in captured
        reports = _read_report(out / "report.json")["reports"]
        assert all(
            r["details"]["decided_by"].endswith("_without_truncation_budget") for r in reports[:3]
        )

    @pytest.mark.parametrize("kind", ["random_low_mode", "taylor_green"])
    def test_negative_seed_exit_one(self, tmp_path, capsys, kind):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(f"n = 16\nseed = -1\ninitial_kind = {kind}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "run"]) == 1
        assert "[torusns] config error: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_config_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "binary.cfg"
        cfg_path.write_bytes(b"n = 16\n\xff\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "run"]) == 1
        assert "[torusns] config error: config file is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("key", ["epsilon", "decay_tol"])
    def test_infinite_tolerance_exit_one(self, tmp_path, capsys, key, command):
        # an infinite tolerance passes its check on any ledger and writes Infinity
        ledger_path = tmp_path / "ledger.csv"
        ledger_path.write_text(_zero_ledger_text(3))
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(f"{FAST_RUN}{key} = inf\n")
        out = tmp_path / "o"
        args = [str(ledger_path)] if command == "verify" else []
        assert main(["--config", str(cfg_path), "--out", str(out), command, *args]) == 1
        err = capsys.readouterr().err
        assert f"[torusns] config error: {key} must be nonnegative and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", [16, 32])
    def test_taylor_green_short_horizon_exits_on_its_verdicts(self, tmp_path, capsys, n):
        # built from its eight modes, the vortex is exactly divergence-free,
        # so its roundoff-only high part reads alike on both routes
        cfg_path = tmp_path / "tg.cfg"
        cfg_path.write_text(f"n = {n}\ninitial_kind = taylor_green\nhorizon = 0.05\nstride = 1\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"]) == 2
        captured = capsys.readouterr()
        assert "invalid ledger" not in captured.err
        verdicts = [line for line in captured.out.splitlines() if re.match(r"\[torusns\] \w+: ", line)]
        assert len(verdicts) == 6
        (audit,) = [
            r for r in _read_report(out / "report.json")["reports"]
            if r["inequality_id"] == "two_route_audit"
        ]
        assert audit["status"] == "holds" and audit["max_residual"] <= 1e-14

    def test_check_switch_is_unknown_option(self, tmp_path, capsys):
        cfg_path = tmp_path / "switch.cfg"
        cfg_path.write_text(FAST_RUN + "check_decay = false\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "run"]) == 1
        assert "unknown option 'check_decay'" in capsys.readouterr().err

    def test_strict_key_is_unknown_option(self, tmp_path, capsys):
        # --strict is the one input besides threads that sets the worker count
        cfg_path = tmp_path / "strict.cfg"
        cfg_path.write_text(FAST_RUN + "strict = true\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "run"]) == 1
        assert "unknown option 'strict'" in capsys.readouterr().err

    def test_environment_sets_no_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUSNS_THREADS", "2")
        out = _main_run(tmp_path, "env", FAST_RUN)
        assert _recorded_threads(out) == 1

    def test_strict_config_records_one_thread(self, tmp_path):
        out = _main_run(tmp_path, "strict", FAST_RUN + "threads = 4\n", "--strict")
        assert _recorded_threads(out) == 1

    def test_ledger_does_not_depend_on_worker_count(self, tmp_path):
        threaded = _main_run(tmp_path, "threaded", FAST_RUN + "threads = 2\n")
        strict = _main_run(tmp_path, "strict", FAST_RUN, "--strict")
        assert _recorded_threads(threaded) == 2 and _recorded_threads(strict) == 1
        assert (threaded / "ledger.csv").read_bytes() == (strict / "ledger.csv").read_bytes()
