"""Self-test of the benchmark: reference values, checks, tracer and smoke run.

    python3 -m pytest perfbench -q

Every check must accept bmc's real output and reject the same output with
one number perturbed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

G, B, T = 0.1, 0.01, 1.0


@pytest.fixture
def workdir():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        yield Path(tmp)


# --- reference values ----------------------------------------------------------


def test_g_matches_mpmath_over_the_whole_range():
    # The textbook form cancels about log10(x) digits at large x.
    mpmath.mp.dps = 400
    for x in np.geomspace(1e-300, 1e300, 121):
        xm = mpmath.mpf(float(x))
        exact = ((1 + xm) * mpmath.log1p(xm) - xm * mpmath.log(xm)) / mpmath.log(2)
        assert abs(ref.g(float(x)) - float(exact)) <= 1e-15 * float(exact)
    assert ref.g(0.0) == 0.0


def test_dtheta_matches_a_high_precision_derivative():
    mpmath.mp.dps = 40

    def theta_mp(n):
        bt = (B / G) * (1 - mpmath.exp(-G * T))
        gm = lambda x: (1 + x) * mpmath.log(1 + x, 2) - x * mpmath.log(x, 2)  # noqa: E731
        chi = gm(bt + n * mpmath.exp(-G * T)) - gm(bt)
        return chi / (1 + bt + n * (mpmath.exp(-G * T / 2) - 1) ** 2)

    for n in (0.1, 1.0, 5.0, 200.0):
        exact = float(mpmath.diff(theta_mp, mpmath.mpf(n)))
        assert ref.dtheta_dnbar(G, B, n, T) == pytest.approx(exact, rel=1e-12)


def test_moment_laws_start_at_the_input_and_relax_to_the_reservoir():
    eta = 0.7 - 1.1j
    assert ref.mean_photons(G, B, eta, 0.0) == pytest.approx(abs(eta) ** 2)
    assert ref.field_amplitude(G, eta, 0.0) == eta
    assert ref.mean_photons(G, B, eta, 1e4) == pytest.approx(B / G)
    assert abs(ref.field_amplitude(G, eta, 1e4)) < 1e-200


# --- checks reject perturbed results --------------------------------------------


def _validate_stdout(status="ok", last="validation PASSED", rows=20):
    lines = [f"{'eta':>12}  {'t [s]':>8}  trace_dist  entropy_gap  status"]
    lines += [f"         0.5         1   1.000e-10   1.000e-10  {status}"] * rows
    return "\n".join(lines + ["worst trace distance ...", last]) + "\n"


def test_validate_check():
    assert W.check_validate_output(0, _validate_stdout(), 20) == []
    assert W.check_validate_output(2, _validate_stdout(), 20)
    assert W.check_validate_output(0, _validate_stdout(last="validation FAILED"), 20)
    assert W.check_validate_output(0, _validate_stdout(status="FAIL"), 20)
    assert W.check_validate_output(0, _validate_stdout(rows=19), 20)


def test_moment_check():
    eta = 1.2 + 0.4j
    exact = [(t, ref.mean_photons(G, B, eta, t), ref.field_amplitude(G, eta, t)) for t in (0.5, 20)]
    assert W.check_moments(G, B, eta, exact) == []
    t, n, a = exact[1]
    assert W.check_moments(G, B, eta, [exact[0], (t, n * (1 + 1e-6), a)])
    assert W.check_moments(G, B, eta, [exact[0], (t, n, a * (1 + 1e-6j))])


def test_holevo_check():
    n_bar = 1.5
    chi = ref.chi(G, B, n_bar, T)
    entropies = [ref.g(ref.beta_t(G, B, T))] * 16
    assert W.check_holevo(G, B, T, n_bar, chi, entropies) == []
    assert W.check_holevo(G, B, T, n_bar, chi + 1e-7, entropies)
    assert W.check_holevo(G, B, T, n_bar, chi, entropies[:-1] + [entropies[0] + 1e-8])


def _sweep_csv(swept, values, t_grid, perturb=None):
    rows = [W.CSV_HEADER]
    for v in values:
        for t in t_grid or (v,):
            p = {"gamma": G, "beta": B, "n_bar": 5.0}
            if swept != "t":
                p["beta" if swept == "beta_rate" else swept] = v
            fields = [v, t, ref.chi(p["gamma"], p["beta"], p["n_bar"], t),
                      ref.avg_fidelity(p["gamma"], p["beta"], p["n_bar"], t),
                      ref.theta(p["gamma"], p["beta"], p["n_bar"], t)]
            rows.append(",".join(f"{x:.12e}" for x in fields))
    if perturb is not None:
        line, column, factor = perturb
        fields = rows[line].split(",")
        fields[column] = f"{float(fields[column]) * factor:.12e}"
        rows[line] = ",".join(fields)
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("name", sorted(W.PRESETS))
def test_sweep_check(name):
    swept, lo, hi, steps = W.PRESETS[name]
    values = np.linspace(lo, hi, steps)
    args = (swept, lo, hi, steps, W.PRESET_T_GRID, G, B, 5.0)
    assert W.check_sweep_csv(_sweep_csv(swept, values, W.PRESET_T_GRID), *args) == []
    for column in (2, 3, 4):
        bad = _sweep_csv(swept, values, W.PRESET_T_GRID, perturb=(7, column, 1 + 1e-7))
        assert W.check_sweep_csv(bad, *args)
    assert W.check_sweep_csv(_sweep_csv(swept, values[:-1], W.PRESET_T_GRID), *args)
    assert W.check_sweep_csv(_sweep_csv(swept, values[::-1], W.PRESET_T_GRID), *args)


def test_time_sweep_check():
    values = np.linspace(0.1, 12.0, 40)
    args = ("t", 0.1, 12.0, 40, (), G, B, 5.0)
    assert W.check_sweep_csv(_sweep_csv("t", values, ()), *args) == []
    assert W.check_sweep_csv(_sweep_csv("t", values, (), perturb=(40, 1, 1 + 1e-7)), *args)


def test_theta_curve_check():
    grid = np.geomspace(1e-2, 1000.0, W.CURVE_POINTS)
    lines = ["n_bar,theta"] + [f"{n:.12e},{ref.theta(G, B, n, T):.12e}" for n in grid]
    assert W.check_theta_curve("\n".join(lines), G, B, T) == []
    n, theta = lines[100].split(",")
    lines[100] = f"{n},{float(theta) * (1 + 1e-7):.12e}"
    assert W.check_theta_curve("\n".join(lines), G, B, T)
    assert W.check_theta_curve("\n".join(lines[:-1]), G, B, T)


def test_optimum_check():
    n_opt = brentq(lambda n: ref.dtheta_dnbar(G, B, n, T), 1.0, 100.0, xtol=1e-14)
    theta_opt = ref.theta(G, B, n_opt, T)
    assert W.check_optimum(n_opt, theta_opt, G, B, T) == []
    assert W.check_optimum(n_opt * 1.01, ref.theta(G, B, n_opt * 1.01, T), G, B, T)
    assert W.check_optimum(n_opt * 0.99, ref.theta(G, B, n_opt * 0.99, T), G, B, T)
    assert W.check_optimum(n_opt, theta_opt * (1 + 1e-6), G, B, T)


# --- the workloads' own checks on real bmc output --------------------------------


def test_holevo_workload_rejects_a_perturbed_op(workdir):
    workload = W.HolevoQuadrature(7, workdir)
    result = workload.op()
    assert workload.check(result) == []
    chi, entropies = result[2]
    assert workload.check(result[:2] + [(chi + 1e-7, entropies)] + result[3:])
    assert workload.check(result[:2] + [(chi, [s + 1e-8 for s in entropies])] + result[3:])


def test_design_workload_rejects_a_perturbed_op(workdir):
    workload = W.DesignSweep(7, workdir)
    result = workload.op()
    assert workload.check(result) == []
    for name in ("fig2.csv", "config.csv", "theta.csv"):
        path = workdir / name
        good = path.read_text()
        lines = good.splitlines()
        fields = lines[5].split(",")
        fields[-1] = f"{float(fields[-1]) * (1 + 1e-7):.12e}"
        path.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
        assert workload.check(result), name
        path.write_text(good)
    stdout = result[-1][1]
    n_opt = W._OPT_LINE.search(stdout).group(1)
    shifted = stdout.replace(n_opt, repr(float(n_opt) * 1.01))
    assert workload.check(result[:-1] + [(0, shifted)])
    assert workload.check(result[:-1] + [(3, stdout)])


def test_oracle_workload_accepts_real_output(workdir):
    workload = W.OracleValidate(7, workdir)
    assert workload.check(workload.op()) == []
    assert workload.final_check() == []


# --- tracer ----------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_computes_self_time():
    from bmc import capacity, cli, lindblad

    original = capacity.capacity_point
    tracer = tracing.Tracer(("capacity.capacity_point", "capacity.g_entropy"))
    tracer.install()
    try:
        assert cli.capacity_point is capacity.capacity_point is not original
        tracer.next_op()
        cli.capacity_point(lindblad.ChannelParams(gamma=G, beta_rate=B, n_bar=5.0), T)
    finally:
        tracer.uninstall()
    assert cli.capacity_point is capacity.capacity_point is original
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["capacity.capacity_point.calls"] == 1
    assert metrics["capacity.g_entropy.calls"] == 2
    spans = tracer.arrays()
    total = (spans["end_ns"][0] - spans["start_ns"][0]) / 1e6
    summed = metrics["capacity.capacity_point.self_ms"] + metrics["capacity.g_entropy.self_ms"]
    assert summed == pytest.approx(total, rel=1e-9)
    assert metrics["capacity.self_ms"] == pytest.approx(total, rel=1e-9)


# --- runner ----------------------------------------------------------------------


class _AlwaysWrong:
    """A workload whose every output fails its check."""

    def op(self):
        return 1.0

    def check(self, result):
        return ["wrong output"]


def test_runner_reports_a_run_in_which_every_op_failed():
    loop = worker.timed_loop(_AlwaysWrong(), math.inf, 3)
    assert loop["attempted"] == 3 and loop["failed"] == 3 and loop["latencies_ms"] == []
    report = {"run": loop, "warm_up_problems": [], "final_problems": [], "max_rss_kb": 51200}
    result = run.end_to_end_result("design_sweep", report, [0.5, 0.4, 0.6])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 3)
    assert result["metrics"]["setup_s"]["value"] == 0.5
    assert "op_p50_ms" not in result["metrics"]
    json.loads(json.dumps(result, allow_nan=False))

    traced = {
        "untraced": loop, "traced": loop, "warm_up_problems": [], "final_problems": [],
        "layers": {"cli.main.calls": 1.0}, "probes": {"lindblad.evolve.d50_ms": 60.0},
    }
    result = run.traced_result(traced)
    assert result["correct"] is False and result["failed"] == 6
    assert "trace.overhead_ms" not in result["metrics"]
    json.loads(json.dumps(result, allow_nan=False))


# --- whole benchmark ---------------------------------------------------------------


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke PASSED"


def test_short_run_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "design_sweep",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_fails_without_the_bmc_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
