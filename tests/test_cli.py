import contextlib
import functools
import inspect
import io
import math
import shlex
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmc import (
    ChannelParams,
    ConfigError,
    DensityMatrix,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidTimeError,
    NotAStateError,
    capacity_point,
    evolve_coherent_analytic,
    optimal_nbar,
    von_neumann_entropy,
)
from bmc import analytic, cli, fock, lindblad
from bmc.capacity import theta_at_nbar
from bmc.cli import (
    EXIT_NO_OPTIMUM,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION_FAILED,
    SweepSpec,
    load_config,
    print_validation_table,
    resolve,
    run_validation,
    sweep_rows,
    sweep_spec,
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
        spec = sweep_spec(resolve_argv("sweep", "--preset", "fig1", "--out", "unused.csv"))
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


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--preset", "fig1", "--t-grid=-0,1"], ["validate", "--etas=-0", "--times=-0,1"]],
    ids=["sweep", "validate"],
)
def test_a_negative_zero_is_written_as_zero(argv, tmp_path, capsys):
    outputs = []
    for spelling in (argv, [arg.replace("-0", "0") for arg in argv]):
        out = tmp_path / "sweep.csv"
        extra = ["--out", str(out)] if argv[0] == "sweep" else []
        assert cli.main(spelling + extra) == EXIT_OK
        written = out.read_bytes() if extra else b""
        outputs.append((capsys.readouterr().out, written))
    assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("k", [-200, -100, -60, 40, 100, 200])
    def test_the_grid_depends_on_gamma_t_and_beta_over_gamma_only(self, k):
        # scaling the rates by 2^k and the times by 2^-k is exact in floating
        # point; the step floor (1e-14 of max(1, t)) raised StiffnessError at
        # t = 0 for k >= 40, and the stationary test (d1 < 1e-8, which has
        # units of 1/time) changed the numbers for k <= -60
        base = run_validation(ChannelParams(gamma=0.1, beta_rate=0.01))
        c = 2.0**k
        scaled = run_validation(
            ChannelParams(gamma=0.1 * c, beta_rate=0.01 * c),
            times=[t / c for t in cli.DEFAULT_TIMES],
        )
        assert scaled.trace_distances == base.trace_distances
        assert scaled.entropy_gaps == base.entropy_gaps

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

    def test_integrated_non_state_fails_with_code_2(self, monkeypatch, capsys):
        def not_a_state(*args, **kwargs):
            raise NotAStateError("trace deviates from 1 by 1.000e-03 > 1.0e-09")

        monkeypatch.setattr(lindblad, "evolve_trajectory", not_a_state)
        code = cli.main(["validate", "--etas", "0", "--times", "1", "--dim", "20"])
        assert code == EXIT_VALIDATION_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "integration failed: trace deviates from 1 by 1.000e-03 > 1.0e-09\n"

    def test_impossible_threshold_fails_with_code_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TRACE_DISTANCE_THRESHOLD", 1e-30)
        code = cli.main(["validate", "--etas", "0.5", "--times", "0.5", "--dim", "30"])
        assert code == EXIT_VALIDATION_FAILED
        assert "validation FAILED" in capsys.readouterr().out

    def test_validation_thresholds_definition_of_passed(self, monkeypatch):
        monkeypatch.setattr(cli, "TRACE_DISTANCE_THRESHOLD", 1e-30)
        params = ChannelParams(gamma=0.1, beta_rate=0.01)
        report = run_validation(params, etas=(0.5,), times=(0.5,), dim=30)
        assert not report.passed
        assert all(d > 1e-30 for d in report.trace_distances)

    def test_the_entropy_gate_decides_too(self, monkeypatch):
        monkeypatch.setattr(cli, "ENTROPY_GAP_THRESHOLD", 1e-30)
        report = run_validation(REF, etas=(0.5,), times=(0.5,), dim=30)
        assert not report.passed
        assert all(g > 1e-30 for g in report.entropy_gaps)
        assert max(report.trace_distances) <= cli.TRACE_DISTANCE_THRESHOLD

    def test_table_rows_use_the_report_thresholds(self, monkeypatch, capsys):
        # the threshold run_validation reads also decides each row's status
        monkeypatch.setattr(cli, "TRACE_DISTANCE_THRESHOLD", 1e-12)
        report = run_validation(REF, etas=(0.5,), times=(1, 5), dim=30)
        print_validation_table(report)
        lines = capsys.readouterr().out.splitlines()
        statuses = [line.split()[-1] for line in lines[1:3]]
        assert statuses == ["ok" if ok else "FAIL" for ok in report.point_passed]
        assert "FAIL" in statuses
        assert lines[-1] == "validation FAILED"


class TestValidateEigensolves:
    # eigvalsh calls of `bmc validate` on its default grid: a trace distance
    # for each of the 20 points, and the spectra of the 15 integrated states
    # of the 3 displaced coherent inputs (the vacuum's stay diagonal). The
    # closed-form states and the rank-one inputs carry their spectra, so a
    # faster run must come from less work here, not from a faster solver.
    EIGENSOLVES = 35

    @staticmethod
    def _counted(monkeypatch):
        solve = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(1) or solve(mat))
        return calls

    def test_default_grid_count_is_unchanged(self, monkeypatch, capsys):
        calls = self._counted(monkeypatch)
        assert cli.main(["validate"]) == EXIT_OK
        assert "validation PASSED" in capsys.readouterr().out
        assert len(calls) == self.EIGENSOLVES

    @pytest.mark.parametrize("eta", cli.DEFAULT_ETAS)
    @pytest.mark.parametrize("t", cli.DEFAULT_TIMES)
    def test_closed_form_entropy_makes_none(self, monkeypatch, eta, t):
        calls = self._counted(monkeypatch)
        state = evolve_coherent_analytic(eta, REF, t)
        von_neumann_entropy(analytic.to_density_matrix(state, cli.DEFAULT_DIM))
        assert calls == []


def test_validation_forms_no_entries(monkeypatch):
    # the trace distances compare cores in matched frames and the entropies
    # read spectra: no complex entries Q C Q+ are formed on the default grid
    formed = []
    form = DensityMatrix.entries.func
    counted = functools.cached_property(lambda rho: formed.append(rho.dim) or form(rho))
    counted.__set_name__(DensityMatrix, "entries")
    monkeypatch.setattr(DensityMatrix, "entries", counted)
    report = run_validation(REF)
    assert all(report.point_passed)
    assert formed == []
    fock.thermal_state(0.1, 12).entries  # the wrapper counts a read
    assert formed == [12]


def test_hermiticity_is_measured_once_per_state(monkeypatch):
    # validate and the spectrum read one `_herm_dev` per state, so each
    # integrated state takes one d x d pass, not two (84 passes before)
    shapes = []
    measure = fock._asymmetry
    monkeypatch.setattr(fock, "_asymmetry", lambda mat: shapes.append(mat.shape) or measure(mat))
    report = run_validation(REF)
    assert all(report.point_passed)
    assert len(shapes) <= 69
    # a diagonal core keeps its O(dim) check: no d x d pass
    shapes.clear()
    DensityMatrix(np.diag([0.2, 0.5, 0.3])).spectrum
    assert shapes == [(3,)]


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
        assert "second-order" not in out

    def test_flat_optimum_is_confirmed(self, capsys):
        # Theta is flat below a double's rounding over n_bar_opt (1 +- 1e-3)
        code = cli.main([
            "optimal", "--t", "8.600572606781432", "--gamma", "5.659692641087864",
            "--beta", "0.2962347357754979", "--search-max", "2.2416793739682336e+127",
        ])
        assert code == EXIT_OK
        assert "n_bar_opt          = " in capsys.readouterr().out

    def test_no_interior_optimum_exit_code(self, capsys):
        code = cli.main(["optimal", "--t", "1e-6"])
        assert code == EXIT_NO_OPTIMUM
        assert "no interior optimum" in capsys.readouterr().out

    def test_a_dead_channel_is_not_called_growing(self, capsys):
        # gamma t = 800: e^{-gamma t} underflows to 0.0, so theta is 0.0 at
        # every n_bar; it was said to keep growing with the signal
        params = ChannelParams(gamma=0.1, beta_rate=0.01)
        assert theta_at_nbar(params, 8000.0, 1.0) == theta_at_nbar(params, 8000.0, 1000.0) == 0.0
        code = cli.main(["optimal", "--t", "8000"])
        assert code == EXIT_NO_OPTIMUM
        assert capsys.readouterr().out == (
            "no interior optimum: no signal reaches the output at t=8000 "
            "(theta is 0 for every n_bar in (0, 1000])\n"
        )

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--preset", "fig1", "--out", "out.csv"],
            ["validate", "--etas", "0", "--times", "0.1", "--dim", "10"],
            ["optimal", "--t", "1", "--curve", "--out", "out.csv"],
        ],
        ids=["sweep", "validate", "optimal"],
    )
    def test_squeezing_setting_is_usage_error(self, argv, source, tmp_path, capsys):
        # the command line has no reservoir squeezing: a leftover one is refused
        argv = [str(tmp_path / a) if a == "out.csv" else a for a in argv]
        if source == "flag":
            argv += ["--m-re", "0.2"]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text("gamma = 0.1\nm_re = 0.2\n")
            argv += ["--config", str(conf)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses an unknown flag
            code = exc.code
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("--m-re" if source == "flag" else "unknown key 'm_re'") in captured.err
        assert list(tmp_path.glob("*.csv")) == []

    # The 1e-6 gates are not settings: no flag and no keyword sets them.
    @pytest.mark.parametrize("flag", ["--trace-tol", "--entropy-tol"])
    def test_no_flag_sets_a_gate(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["validate", flag, "1e-3"])
        assert info.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err

    def test_no_keyword_sets_a_gate(self):
        assert list(inspect.signature(run_validation).parameters) == ["params", "etas", "times", "dim"]

    @pytest.mark.parametrize("dim", [30.9, "30"])
    def test_run_validation_rejects_a_non_integer_dimension(self, dim):
        # 30.9 used to run silently at d = 30, and "30" was accepted
        with pytest.raises(InvalidDimensionError, match="integer >= 2"):
            run_validation(REF, etas=(0.0,), times=(0.5,), dim=dim)

    @pytest.mark.parametrize(
        "grid, error",
        [
            ({"etas": ("1+1j",)}, InvalidParameterError),
            ({"etas": (True,)}, InvalidParameterError),
            ({"times": ("0.5",)}, InvalidTimeError),
            ({"times": (0.5 + 0j,)}, InvalidTimeError),
        ],
        ids=["eta-str", "eta-bool", "time-str", "time-complex"],
    )
    def test_run_validation_rejects_a_mistyped_grid(self, grid, error):
        # complex() and float() used to parse "1+1j" and "0.5", and it ran
        with pytest.raises(error, match="must be a"):
            run_validation(REF, **{"etas": (0.0,), "times": (0.5,), "dim": 10, **grid})

    def test_negative_time_is_usage_error_before_any_truncation_check(self, capsys):
        # the grid's times are read before its inputs are built: at dim 10 the
        # default input |1+1j> is truncated, which used to be reported instead
        assert cli.main(["validate", "--times", "-1", "--dim", "10"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "time must be finite and >= 0, got -1.0" in captured.err

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

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("lo", "0", InvalidParameterError),
            ("hi", True, InvalidParameterError),
            ("steps", 3.0, InvalidParameterError),
            ("steps", True, InvalidParameterError),
            ("t_grid", ("1",), InvalidTimeError),
        ],
    )
    def test_sweep_spec_rejects_a_mistyped_field(self, field, value, error):
        # steps=3.0 used to build and then fail in sweep_rows with a bare
        # TypeError, as lo="0" did at once
        fields = {"swept": "n_bar", "lo": 1.0, "hi": 2.0, "steps": 3, "fixed": REF}
        with pytest.raises(error, match=f"{field} .*must be a"):
            SweepSpec(**{**fields, field: value})

    def test_sweep_spec_accepts_ints_and_numpy_reals(self):
        spec = SweepSpec("n_bar", np.int64(1), 2, np.int64(3), REF, t_grid=(np.float32(1), 5))
        assert (spec.lo, spec.hi, spec.t_grid) == (1.0, 2.0, (1.0, 5.0))
        assert len(sweep_rows(spec)) == 3 * 2

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

    @pytest.mark.parametrize(
        "argv",
        [["validate", "--nbar", "3"], ["optimal", "--t", "1", "--nbar", "3"]],
        ids=["validate", "optimal"],
    )
    def test_nbar_is_a_sweep_flag(self, argv, capsys):
        # neither command reads n_bar, so the flag is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --nbar 3" in captured.err


# Flag values a user might type by mistake, and doubles across the whole range.
_HOSTILE_VALUE = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "-1", "0", "-0", "5e-324", "1e-300", "1.7e308", "1e309",
         "", "x", "1,2", "1e-3", "0.1", "1", "20"]
    ),
    st.floats(5e-324, 1.7e308).map(repr),
    st.floats(-323.0, 308.0).map(lambda e: repr(10.0**e)),
)


@st.composite
def _hostile_command(draw):
    # each value is left out, ordinary or hostile, so every command also
    # reaches its success and failure exits
    value = st.one_of(st.floats(1e-2, 20.0).map(repr), _HOSTILE_VALUE)

    def flag(name, values=value):
        drawn = draw(st.one_of(st.none(), values))
        return [] if drawn is None else [f"--{name}={drawn}"]

    command = draw(st.sampled_from(["sweep", "validate", "optimal"]))
    argv = [command, *flag("gamma"), *flag("beta")]
    if command == "sweep":
        argv += [
            f"--swept={draw(st.sampled_from(cli._SWEPT_CHOICES))}",
            *flag("nbar"),
            *flag("lo"),
            *flag("hi"),
            f"--steps={draw(st.integers(-2, 50))}",
            *flag("t-grid", st.lists(value, max_size=3).map(",".join)),
        ]
    elif command == "validate":
        # one eta and one time; --dim stays small, each step of a
        # trajectory evaluates the O(dim^2) generator six times
        argv += ["--etas=0.5", "--times=1", f"--dim={draw(st.integers(-1, 40))}"]
    else:
        argv += [*flag("t"), *flag("search-max")]
    return argv


class TestHostileInput:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(argv=_hostile_command())
    def test_exit_code_without_traceback(self, argv):
        # a low work budget keeps stiff channels short: they exit with code 2
        out, err = io.StringIO(), io.StringIO()
        with (
            tempfile.TemporaryDirectory() as workdir,
            mock.patch.object(lindblad, "MAX_RHS_EVALS", 300),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            if argv[0] == "sweep":
                argv = [*argv, f"--out={workdir}/sweep.csv"]
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the value
                code = exc.code
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION_FAILED, EXIT_NO_OPTIMUM), argv
        assert "Traceback" not in err.getvalue()


def readme_block(lang, section="Command line"):
    """The first fenced `lang` block of a README section."""
    section = README.read_text().split(f"## {section}\n", 1)[1]
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

    def test_library_example_runs(self):
        exec(compile(readme_block("python", "Library example"), "README.md", "exec"), {})
