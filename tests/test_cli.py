import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bmc import (
    ChannelParams,
    ConfigError,
    InvalidParameterError,
    InvalidTimeError,
    capacity_point,
    optimal_nbar,
)
from bmc import cli, lindblad
from bmc.capacity import theta_at_nbar
from bmc.cli import (
    EXIT_NO_OPTIMUM,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION_FAILED,
    SweepSpec,
    load_config,
    preset_spec,
    print_validation_table,
    resolve,
    run_validation,
    sweep_rows,
)

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
REF = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    return header, rows


def resolve_argv(*argv):
    return resolve(cli.build_parser().parse_args([str(a) for a in argv]))


class TestParseConfig:
    def test_parameter_file(self, tmp_path):
        conf = tmp_path / "params.conf"
        conf.write_text("# reference point\ngamma = 0.1\nbeta = 0.01\nn_bar = 5\n")
        params = resolve_argv("optimal", "--config", conf)["params"]
        assert params == ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)

    def test_sweep_file(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(
            "swept = n_bar\nlo = 1\nhi = 10\nsteps = 5\nt_grid = 0.5, 1\ngamma = 0.2\n"
        )
        values = resolve_argv("sweep", "--config", conf, "--out", tmp_path / "o.csv")
        assert values["swept"] == "n_bar"
        assert values["steps"] == 5
        assert values["t_grid"] == (0.5, 1.0)
        assert values["params"].gamma == 0.2

    def test_validation_error_names_key(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("gamma = -1\n")
        with pytest.raises(ConfigError, match="gamma"):
            resolve_argv("optimal", "--config", conf)

    def test_unknown_key_reports_line(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("gamma = 0.1\nwavelength = 7\n")
        with pytest.raises(ConfigError, match=r"c\.conf:2.*wavelength"):
            load_config(conf)

    def test_unparseable_value_names_key(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("beta = fast\n")
        with pytest.raises(ConfigError, match="beta"):
            load_config(conf)

    def test_duplicate_key_rejected(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("gamma = 0.1\ngamma = 0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(conf)

    def test_empty_file_gives_reference_defaults(self, tmp_path):
        conf = tmp_path / "empty.conf"
        conf.write_text("\n")
        params = resolve_argv("optimal", "--config", conf)["params"]
        assert params == ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)


class TestResolve:
    def test_precedence_key_by_key(self, tmp_path):
        # preset < config < flags; keys nobody sets keep the reference value
        conf = tmp_path / "c.conf"
        conf.write_text("steps = 3\ngamma = 0.3\nn_bar = 2\n")
        values = resolve_argv(
            "sweep", "--preset", "fig1", "--config", conf, "--gamma", "0.2", "--out", "o.csv"
        )
        assert (values["swept"], values["lo"], values["hi"]) == ("n_bar", 1.0, 10.0)
        assert values["steps"] == 3
        assert values["params"] == ChannelParams(gamma=0.2, beta_rate=0.01, n_bar=2.0)

    def test_config_dim_reaches_validate(self, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text("dim = 5\n")
        argv = ["validate", "--config", str(conf), "--etas", "2", "--times", "0.5"]
        assert cli.main(argv) == EXIT_VALIDATION_FAILED
        assert "at dim=5;" in capsys.readouterr().err
        assert cli.main(argv + ["--dim", "40"]) == EXIT_OK

    def test_config_time_reaches_optimal(self, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text("t = 1e-6\n")
        assert cli.main(["optimal", "--config", str(conf)]) == EXIT_NO_OPTIMUM
        assert "at t=1e-06" in capsys.readouterr().out
        assert cli.main(["optimal", "--config", str(conf), "--t", "1"]) == EXIT_OK
        result = optimal_nbar(REF, 1.0)
        assert f"{result.n_bar_opt:.9g}" in capsys.readouterr().out


class TestSweep:
    def test_rows_match_capacity_points(self):
        spec = preset_spec("fig1")
        rows = sweep_rows(spec)
        assert len(rows) == spec.steps * len(spec.t_grid)
        value, point = rows[7]
        params = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=value)
        assert point == capacity_point(params, point.t)

    def test_csv_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main(["sweep", "--preset", "fig2", "--out", str(first)]) == EXIT_OK
        assert cli.main(["sweep", "--preset", "fig2", "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3"])
    def test_matches_golden(self, preset, tmp_path):
        out = tmp_path / f"{preset}.csv"
        assert cli.main(["sweep", "--preset", preset, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()

    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "fig1.csv"
        cli.main(["sweep", "--preset", "fig1", "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["swept_value", "t", "chi_bits", "avg_fidelity", "theta"]
        assert len(rows) == 40
        for _, _, chi, fbar, th in rows:
            assert chi >= 0.0
            assert 0.0 < fbar <= 1.0
            # %.12e keeps 13 significant digits, so the round trip is ~1e-12 rel
            assert th == pytest.approx(chi * fbar, rel=1e-11)

    def test_capacity_monotone_in_swept_value(self, tmp_path):
        # fig1: chi strictly increasing in n_bar at each fixed t; fig2/fig3:
        # strictly decreasing in the noise and decay rates
        for preset, increasing in (("fig1", True), ("fig2", False), ("fig3", False)):
            out = tmp_path / f"{preset}.csv"
            cli.main(["sweep", "--preset", preset, "--out", str(out)])
            _, rows = read_csv(out)
            by_t = {}
            for value, t, chi, _, _ in rows:
                by_t.setdefault(t, []).append((value, chi))
            for series in by_t.values():
                chis = [chi for _, chi in sorted(series)]
                if increasing:
                    assert all(b > a for a, b in zip(chis, chis[1:]))
                else:
                    assert all(b < a for a, b in zip(chis, chis[1:]))

    def test_plot_script_emitted_and_compiles(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--preset", "fig1", "--out", str(out), "--plot"])
        script = tmp_path / "sweep_plot.py"
        assert script.exists()
        compile(script.read_text(), str(script), "exec")
        assert "matplotlib" in script.read_text()
        assert "sweep.csv" in script.read_text()

    def test_swept_time_axis(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(
            ["sweep", "--swept", "t", "--lo", "0.5", "--hi", "5", "--steps", "4",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [r[1] for r in rows]

    def test_flags_override_config(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text("swept = n_bar\nlo = 1\nhi = 10\nsteps = 4\ngamma = 0.3\n")
        out = tmp_path / "o.csv"
        code = cli.main(
            ["sweep", "--config", str(conf), "--steps", "2", "--t-grid", "1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 2
        params = ChannelParams(gamma=0.3, beta_rate=0.01, n_bar=1.0)
        assert rows[0][2] == pytest.approx(capacity_point(params, 1.0).chi, rel=1e-12)

    def test_missing_definition_is_usage_error(self, tmp_path):
        code = cli.main(["sweep", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_invalid_range_is_usage_error(self, tmp_path):
        code = cli.main(
            ["sweep", "--swept", "n_bar", "--lo", "5", "--hi", "1", "--steps", "3",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE


class TestValidate:
    def test_default_grid_passes(self, capsys):
        # the shipped default grid at dim 50 is the flagship oracle run
        assert cli.main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "validation PASSED" in out
        assert out.count(" ok") == 20  # 4 amplitudes x 5 times

    def test_small_grid_passes(self, capsys):
        code = cli.main(
            ["validate", "--etas", "0,0.5", "--times", "0.1,0.5", "--dim", "30"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "validation PASSED" in out
        assert "worst trace distance" in out

    def test_report_structure(self):
        params = ChannelParams(gamma=0.1, beta_rate=0.01)
        report = run_validation(params, etas=(0.0, 0.5), times=(0.0, 0.1), dim=30)
        assert report.passed
        assert len(report.grid) == len(report.trace_distances) == 4
        # t=0 compares the input against itself
        origin = report.grid.index((0.0, 0.0))
        assert report.trace_distances[origin] < 1e-12

    def test_worst_line_names_the_largest_deviations(self, capsys):
        report = cli.ValidationReport(
            grid=((0j, 0.5), (1 + 1j, 2.0), (0.5 + 0j, 5.0)),
            trace_distances=(1e-9, 3e-9, 2e-9),
            entropy_gaps=(4e-9, 1e-9, 2e-9),
            point_passed=(True, True, True),
        )
        print_validation_table(report)
        worst = capsys.readouterr().out.splitlines()[-2]
        assert worst == (
            "worst trace distance 3.000e-09 at (eta=1+1j, t=2); "
            "worst entropy gap 4.000e-09 at (eta=0, t=0.5)"
        )

    def test_truncation_error_suggests_dim(self, capsys):
        code = cli.main(["validate", "--etas", "2", "--times", "0.5", "--dim", "5"])
        assert code == EXIT_VALIDATION_FAILED
        err = capsys.readouterr().err
        assert "suggest dim" in err

    def test_integrator_giving_up_fails_with_code_2(self, monkeypatch, capsys):
        # a budget too small for one step stands in for a stiff channel
        monkeypatch.setattr(lindblad, "MAX_RHS_EVALS", 6)
        code = cli.main(["validate", "--etas", "0", "--times", "1", "--dim", "20"])
        assert code == EXIT_VALIDATION_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "gave up after 6 right-hand-side evaluations short of t=1 " in captured.err

    def test_squeezed_reservoir_rejected(self, capsys):
        code = cli.main(["validate", "--m-re", "0.2", "--etas", "0", "--times", "0.1"])
        assert code == EXIT_USAGE
        assert "m_squeeze" in capsys.readouterr().err

    def test_impossible_threshold_fails_with_code_2(self, capsys):
        code = cli.main(
            ["validate", "--etas", "0.5", "--times", "0.5", "--dim", "30",
             "--trace-tol", "1e-30"]
        )
        assert code == EXIT_VALIDATION_FAILED
        assert "validation FAILED" in capsys.readouterr().out

    def test_validation_thresholds_definition_of_passed(self):
        params = ChannelParams(gamma=0.1, beta_rate=0.01)
        report = run_validation(
            params, etas=(0.5,), times=(0.5,), dim=30, trace_tol=1e-30
        )
        assert not report.passed
        assert all(d > 1e-30 for d in report.trace_distances)

    def test_table_rows_use_the_report_tolerances(self, capsys):
        # a tolerance passed to run_validation also decides each row's status
        report = run_validation(REF, etas=(0.5,), times=(1, 5), dim=30, trace_tol=1e-12)
        print_validation_table(report)
        lines = capsys.readouterr().out.splitlines()
        statuses = [line.split()[-1] for line in lines[1:3]]
        assert statuses == ["ok" if ok else "FAIL" for ok in report.point_passed]
        assert "FAIL" in statuses
        assert lines[-1] == "validation FAILED"


class TestSharedParser:
    def test_sequence_matches_fresh_parser(self, tmp_path, capsys, monkeypatch):
        # main parses with one parser built at import; a run must not leak
        # into the next, so each command reads as it does on a new parser
        commands = [
            ["optimal", "--t", "1"],
            ["sweep", "--out", str(tmp_path / "x.csv")],
            ["validate", "--times", "0.5", "--dim", "30"],
        ]

        def run(argv):
            code = cli.main(argv)
            return (code, *capsys.readouterr())

        shared = [run(argv) for argv in commands]
        fresh = []
        for argv in commands:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(run(argv))
        assert [r[0] for r in shared] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert shared == fresh


class TestOptimal:
    def test_prints_result_matching_library(self, capsys):
        code = cli.main(["optimal", "--t", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        result = optimal_nbar(ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0), 1.0)
        assert f"{result.n_bar_opt:.9g}" in out
        assert "criterion residual" in out
        assert "maximum confirmed" in out

    def test_no_interior_optimum_exit_code(self, capsys):
        code = cli.main(["optimal", "--t", "1e-6"])
        assert code == EXIT_NO_OPTIMUM
        assert "no interior optimum" in capsys.readouterr().out

    def test_curve_contains_interior_maximum(self, tmp_path):
        out = tmp_path / "theta.csv"
        code = cli.main(["optimal", "--t", "1", "--curve", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["n_bar", "theta"]
        params = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)
        n_opt = optimal_nbar(params, 1.0).n_bar_opt
        theta_opt = theta_at_nbar(params, 1.0, n_opt)
        below = max(r for r in rows if r[0] < n_opt)
        above = min(r for r in rows if r[0] > n_opt)
        assert theta_opt >= below[1]
        assert theta_opt >= above[1]

    def test_curve_matches_golden(self, tmp_path):
        # byte for byte, and point for point the theta_at_nbar value
        out = tmp_path / "theta.csv"
        assert cli.main(["optimal", "--t", "1", "--curve", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "theta_t1.csv").read_bytes()
        params = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)
        pointwise = "".join(
            f"{n:.12e},{theta_at_nbar(params, 1.0, float(n)):.12e}\n"
            for n in np.geomspace(1e-2, 1000.0, 200)
        )
        assert out.read_text() == "n_bar,theta\n" + pointwise

    def test_curve_without_out_is_usage_error(self):
        assert cli.main(["optimal", "--t", "1", "--curve"]) == EXIT_USAGE

    def test_missing_time_is_usage_error(self):
        assert cli.main(["optimal"]) == EXIT_USAGE

    def test_time_from_config(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("t = 1\ngamma = 0.1\nbeta = 0.01\n")
        assert cli.main(["optimal", "--config", str(conf)]) == EXIT_OK
        assert "n_bar_opt" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimal", "--t", "soon"])
        assert exc.value.code == EXIT_USAGE

    def test_unreadable_config(self, tmp_path):
        code = cli.main(["optimal", "--t", "1", "--config", str(tmp_path / "nope.conf")])
        assert code == EXIT_USAGE


class TestMisuse:
    @pytest.mark.parametrize("eta", ["nan", "inf", "1+nanj"])
    def test_nonfinite_eta_is_usage_error(self, eta, capsys):
        code = cli.main(["validate", "--etas", eta, "--times", "0.5"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--m-re", "--m-im"])
    def test_nonfinite_squeezing_is_usage_error(self, flag, tmp_path):
        out = tmp_path / "x.csv"
        code = cli.main(["sweep", "--preset", "fig1", flag, "nan", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--trace-tol", "--entropy-tol"])
    def test_bad_tolerance_is_usage_error(self, flag, tol, capsys):
        code = cli.main(["validate", "--etas", "0", "--times", "0.5", "--dim", "10", flag, tol])
        assert code == EXIT_USAGE
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("kwarg", ["trace_tol", "entropy_tol"])
    def test_run_validation_rejects_bad_tolerance(self, kwarg):
        with pytest.raises(InvalidParameterError, match=kwarg):
            run_validation(REF, etas=(0.0,), times=(0.5,), dim=10, **{kwarg: math.nan})

    @pytest.mark.parametrize("flag", ["--etas", "--times"])
    def test_empty_validation_grid_is_usage_error(self, flag):
        assert cli.main(["validate", flag, ""]) == EXIT_USAGE

    @pytest.mark.parametrize("bound", ["--lo=nan", "--hi=inf", "--lo=-inf"])
    def test_nonfinite_sweep_range_is_usage_error(self, bound, tmp_path, capsys):
        argv = ["sweep", "--swept", "t", "--lo", "0.5", "--hi", "5", "--steps", "3"]
        argv += [bound, "--out", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_sweep_spec_rejects_nonfinite_range(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            SweepSpec("t", 0.5, math.inf, 3, REF)

    def test_empty_time_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        code = cli.main(["sweep", "--preset", "fig1", "--t-grid", "", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        with pytest.raises(InvalidTimeError, match="t_grid"):
            SweepSpec("n_bar", 1.0, 2.0, 3, REF, t_grid=())

    def test_out_without_curve_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "theta.csv"
        assert cli.main(["optimal", "--t", "1", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().out == ""


def readme_block(lang):
    """The first fenced `lang` block of README's "Command line" section."""
    section = README.read_text().split("## Command line", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_documented_commands_run(self, tmp_path):
        commands = [
            shlex.split(line, comments=True)[1:]
            for line in readme_block("sh").replace("\\\n", " ").splitlines()
            if line.startswith("bmc ")
        ]
        assert len(commands) >= 5
        for argv in commands:
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / Path(argv[i]).name)
            assert cli.main(argv) == EXIT_OK, shlex.join(argv)

    def test_config_example_lists_every_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(readme_block("ini"))
        assert set(load_config(conf)) == set(cli._CONVERTERS)
