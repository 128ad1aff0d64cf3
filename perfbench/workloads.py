"""The three benchmark workloads and the checks of their outputs.

Each workload draws its inputs from the seed once, in its constructor, and
then repeats one op that is the same batch of work every time. `op` is the
timed call into bmc; `check` compares an op's output against the reference
values of `reference.py` and returns a list of problems (empty when the
output is right). `final_check` runs once per run, after the timed loop.

The check functions at module level take plain data, so the self-test can
feed them perturbed results without running bmc.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from pathlib import Path

import numpy as np
from numpy.polynomial.laguerre import laggauss

import reference as ref
from bmc import analytic, cli, fock, lindblad

# Agreement demanded between bmc's output and the reference values.
REL_TOL = 1e-9
ABS_TOL = 1e-12
HOLEVO_TOL = 1e-8  # numeric chi vs closed form, bits
ENTROPY_TOL = 1e-9  # node entropy vs g(beta(t)), bits
MOMENT_TOL = 1e-7  # integrated moments vs the moment laws
STATIONARITY_TOL = 1e-6  # |dTheta/dn_bar| n_bar / Theta at the reported optimum

VALIDATE_TIMES = (0.1, 0.5, 1.0, 5.0, 20.0)  # `bmc validate` default grid
PRESET_T_GRID = (0.5, 1.0, 2.0, 5.0)
PRESETS = {  # swept parameter, lo, hi, steps of `bmc sweep --preset`
    "fig1": ("n_bar", 1.0, 10.0, 10),
    "fig2": ("beta_rate", 0.01, 0.1, 10),
    "fig3": ("gamma", 0.1, 0.5, 5),
}
CSV_HEADER = "swept_value,t,chi_bits,avg_fidelity,theta"
CURVE_POINTS = 200
CONFIG_STEPS = 40  # steps of the `swept = t` config sweep


def _jitter(rng: random.Random, centre: float, rel: float) -> float:
    return centre * (1.0 + rng.uniform(-rel, rel))


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= ABS_TOL + REL_TOL * abs(expected)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _complex_arg(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


# --- checks -------------------------------------------------------------------


def check_validate_output(code: int, stdout: str, n_points: int) -> list[str]:
    """`bmc validate` must exit 0, print one `ok` row per grid point and PASS."""
    problems = []
    if code != 0:
        problems.append(f"validate exited {code}")
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "validation PASSED":
        problems.append("validate did not print 'validation PASSED'")
    ok_rows = sum(1 for line in lines if line.endswith("  ok"))
    if ok_rows != n_points:
        problems.append(f"validate printed {ok_rows} ok rows, expected {n_points}")
    return problems


def check_moments(gamma, beta, eta, samples) -> list[str]:
    """Integrated <n>(t) and <a>(t) against the moment laws.

    `samples` holds (t, <n>, <a>) triples measured on the integrated states.
    """
    problems = []
    for t, n_mean, a_mean in samples:
        n_ref = ref.mean_photons(gamma, beta, eta, t)
        a_ref = ref.field_amplitude(gamma, eta, t)
        if abs(n_mean - n_ref) > MOMENT_TOL * max(1.0, n_ref):
            problems.append(f"<n>({t:g}) of |{eta:.4g}> is {n_mean!r}, expected {n_ref!r}")
        if abs(a_mean - a_ref) > MOMENT_TOL * max(1.0, abs(a_ref)):
            problems.append(f"<a>({t:g}) of |{eta:.4g}> is {a_mean!r}, expected {a_ref!r}")
    return problems


def check_holevo(gamma, beta, t, n_bar, chi_numeric, node_entropies) -> list[str]:
    """Numeric Holevo chi and every node's entropy against the closed forms."""
    problems = []
    chi_ref = ref.chi(gamma, beta, n_bar, t)
    if not abs(chi_numeric - chi_ref) <= HOLEVO_TOL:
        problems.append(f"chi(n_bar={n_bar:.6g}) is {chi_numeric!r}, expected {chi_ref!r}")
    g_ref = ref.g(ref.beta_t(gamma, beta, t))
    worst = max(abs(s - g_ref) for s in node_entropies)
    if not worst <= ENTROPY_TOL:
        problems.append(f"a node entropy is off g(beta(t)) = {g_ref!r} by {worst:.3e}")
    return problems


def check_sweep_csv(text, swept, lo, hi, steps, t_grid, gamma, beta, n_bar) -> list[str]:
    """Every row of a sweep CSV against the reference chi, F_bar and Theta."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["sweep CSV header is missing or wrong"]
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    times = (None,) if swept == "t" else t_grid
    expected = [
        (lo + i * (hi - lo) / (steps - 1), t) for i in range(steps) for t in times
    ]
    if len(rows) != len(expected):
        return [f"sweep CSV has {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for (value, t, chi, fbar, theta), (want_value, want_t) in zip(rows, expected):
        want_t = value if want_t is None else want_t
        if not (_close(value, want_value) and _close(t, want_t)):
            problems.append(f"sweep row at ({value!r}, {t!r}) is out of order")
            continue
        p = {"gamma": gamma, "beta": beta, "n_bar": n_bar}
        if swept != "t":
            p["beta" if swept == "beta_rate" else swept] = value
        want = (
            ref.chi(p["gamma"], p["beta"], p["n_bar"], t),
            ref.avg_fidelity(p["gamma"], p["beta"], p["n_bar"], t),
            ref.theta(p["gamma"], p["beta"], p["n_bar"], t),
        )
        if not all(_close(got, w) for got, w in zip((chi, fbar, theta), want)):
            problems.append(
                f"{swept}={value:.6g}, t={t:g}: got (chi, F, Theta) = "
                f"{(chi, fbar, theta)}, expected {want}"
            )
    return problems


def check_theta_curve(text, gamma, beta, t) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "n_bar,theta":
        return ["theta curve header is missing or wrong"]
    if len(lines) != CURVE_POINTS + 1:
        return [f"theta curve has {len(lines) - 1} rows, expected {CURVE_POINTS}"]
    problems = []
    for line in lines[1:]:
        n_bar, theta = (float(x) for x in line.split(","))
        want = ref.theta(gamma, beta, n_bar, t)
        if not _close(theta, want):
            problems.append(f"theta({n_bar:.6g}) is {theta!r}, expected {want!r}")
    return problems


def check_optimum(n_opt, theta_opt, gamma, beta, t) -> list[str]:
    """The reported optimum must be a stationary maximum of the reference Theta."""
    problems = []
    theta_ref = ref.theta(gamma, beta, n_opt, t)
    if not abs(theta_opt - theta_ref) <= 1e-8 * theta_ref:
        problems.append(f"theta(n_bar_opt) is {theta_opt!r}, expected {theta_ref!r}")
    for side in (1.0 - 1e-3, 1.0 + 1e-3):
        if ref.theta(gamma, beta, n_opt * side, t) > theta_ref:
            problems.append(f"Theta at {side} n_bar_opt exceeds Theta(n_bar_opt={n_opt!r})")
    slope = ref.dtheta_dnbar(gamma, beta, n_opt, t) * n_opt / theta_ref
    if not abs(slope) <= STATIONARITY_TOL:
        problems.append(f"dTheta/dn_bar at n_bar_opt={n_opt!r} is not 0 (relative {slope:.3e})")
    return problems


# --- workloads ----------------------------------------------------------------


class OracleValidate:
    """One `bmc validate` of a seeded channel and seeded amplitudes per op."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.gamma = _jitter(rng, 0.1, 0.05)
        self.beta = self.gamma * _jitter(rng, 0.1, 0.1)
        # One amplitude per magnitude stratum, so every seed costs the same.
        self.etas = tuple(
            complex(_jitter(rng, r, 0.05) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            for r in (0.5, 1.0, 1.5, 2.0)
        )
        self.argv = [
            "validate",
            "--dim", str(cli.DEFAULT_DIM),
            "--gamma", repr(self.gamma),
            "--beta", repr(self.beta),
            "--etas=" + ",".join(_complex_arg(e) for e in self.etas),
        ]

    def op(self):
        return _run_cli(self.argv)

    def check(self, result) -> list[str]:
        code, stdout = result
        return check_validate_output(code, stdout, len(self.etas) * len(VALIDATE_TIMES))

    def final_check(self) -> list[str]:
        params = lindblad.ChannelParams(gamma=self.gamma, beta_rate=self.beta)
        problems = []
        for eta in self.etas:
            rho0 = fock.projector(fock.coherent_state(eta, cli.DEFAULT_DIM))
            samples = []
            for t, state in lindblad.evolve_trajectory(rho0, params, VALIDATE_TIMES):
                rho = state.entries
                levels = np.arange(rho.shape[0])
                n_mean = float(np.real(np.diagonal(rho)) @ levels)
                a_mean = complex(np.sqrt(levels[1:]) @ np.diagonal(rho, offset=-1))
                samples.append((t, n_mean, a_mean))
            problems += check_moments(self.gamma, self.beta, eta, samples)
        return problems


class HolevoQuadrature:
    """Holevo chi of the Gaussian coherent ensemble from explicit states.

    An op evaluates four ensembles, one near the middle of each quarter of
    n_bar in [1, 2], each from 16 Gauss-Laguerre nodes over |eta|^2 with
    seeded phases. The dimensions grow with n_bar, so n_bar is only jittered
    within its quarter: every seed then costs about the same.
    """

    NODES = 16
    STRATA = 4

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.gamma = _jitter(rng, 0.1, 0.05)
        self.beta = _jitter(rng, 0.01, 0.1)
        self.t = _jitter(rng, 1.0, 0.1)
        self.params = lindblad.ChannelParams(gamma=self.gamma, beta_rate=self.beta)
        nodes, weights = laggauss(self.NODES)
        self.weights = weights / weights.sum()
        self.ensembles = []
        for j in range(self.STRATA):
            n_bar = 1.0 + (j + 0.5 + rng.uniform(-0.1, 0.1)) / self.STRATA
            etas = [
                math.sqrt(n_bar * u) * complex(math.cos(phi), math.sin(phi))
                for u, phi in zip(nodes, (rng.uniform(0.0, 2.0 * math.pi) for _ in nodes))
            ]
            self.ensembles.append((n_bar, etas))

    def _chi(self, etas):
        states = [analytic.evolve_coherent_analytic(eta, self.params, self.t) for eta in etas]
        dims = [analytic.suggested_dim(s) for s in states]
        mixture = np.zeros(max(dims))
        entropies = []
        for w, state, dim in zip(self.weights, states, dims):
            rho = analytic.to_density_matrix(state, dim)
            entropies.append(fock.von_neumann_entropy(rho))
            # Phase averaging a displaced thermal state keeps its diagonal.
            mixture[:dim] += w * np.real(np.diagonal(rho.entries))
        s_mix = fock.von_neumann_entropy(fock.DensityMatrix(np.diag(mixture)))
        return s_mix - float(self.weights @ entropies), entropies

    def op(self):
        return [self._chi(etas) for _, etas in self.ensembles]

    def check(self, result) -> list[str]:
        problems = []
        for (n_bar, _), (chi, entropies) in zip(self.ensembles, result):
            problems += check_holevo(self.gamma, self.beta, self.t, n_bar, chi, entropies)
        return problems

    def final_check(self) -> list[str]:
        return []


_OPT_LINE = re.compile(r"^n_bar_opt\s*=\s*(\S+)$", re.M)
_THETA_LINE = re.compile(r"^theta\(n_bar_opt\)\s*=\s*(\S+) bits$", re.M)


class DesignSweep:
    """The closed-form design path through the CLI, five commands per op."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.gamma = _jitter(rng, 0.1, 0.1)
        self.beta = _jitter(rng, 0.01, 0.1)
        self.n_bar = _jitter(rng, 5.0, 0.1)
        self.t_opt = _jitter(rng, 1.0, 0.2)
        flags = ["--gamma", repr(self.gamma), "--beta", repr(self.beta), "--nbar", repr(self.n_bar)]
        self.commands = [
            ["sweep", "--preset", name, "--out", str(workdir / f"{name}.csv"), *flags]
            for name in PRESETS
        ]
        self.config = {
            "gamma": _jitter(rng, 0.1, 0.1),
            "beta": _jitter(rng, 0.01, 0.1),
            "n_bar": _jitter(rng, 5.0, 0.1),
            "lo": rng.uniform(0.05, 0.2),
            "hi": rng.uniform(5.0, 20.0),
        }
        config_path = workdir / "sweep.conf"
        config_path.write_text(
            f"swept = t\nsteps = {CONFIG_STEPS}\n"
            + "".join(f"{key} = {value!r}\n" for key, value in self.config.items())
        )
        self.commands.append(
            ["sweep", "--config", str(config_path), "--out", str(workdir / "config.csv")]
        )
        self.commands.append(
            ["optimal", "--t", repr(self.t_opt), "--gamma", repr(self.gamma),
             "--beta", repr(self.beta), "--curve", "--out", str(workdir / "theta.csv")]
        )

    def op(self):
        return [_run_cli(argv) for argv in self.commands]

    def check(self, result) -> list[str]:
        problems = [
            f"`bmc {' '.join(argv[:3])}` exited {code}"
            for argv, (code, _) in zip(self.commands, result)
            if code != 0
        ]
        if problems:
            return problems
        fixed = (self.gamma, self.beta, self.n_bar)
        for name, (swept, lo, hi, steps) in PRESETS.items():
            text = (self.workdir / f"{name}.csv").read_text()
            problems += check_sweep_csv(text, swept, lo, hi, steps, PRESET_T_GRID, *fixed)
        c = self.config
        text = (self.workdir / "config.csv").read_text()
        problems += check_sweep_csv(
            text, "t", c["lo"], c["hi"], CONFIG_STEPS, (), c["gamma"], c["beta"], c["n_bar"]
        )
        text = (self.workdir / "theta.csv").read_text()
        problems += check_theta_curve(text, self.gamma, self.beta, self.t_opt)
        stdout = result[-1][1]
        n_opt, theta_opt = _OPT_LINE.search(stdout), _THETA_LINE.search(stdout)
        if n_opt is None or theta_opt is None:
            return problems + ["optimal printed no n_bar_opt or theta line"]
        problems += check_optimum(
            float(n_opt.group(1)), float(theta_opt.group(1)), self.gamma, self.beta, self.t_opt
        )
        return problems

    def final_check(self) -> list[str]:
        return []


WORKLOADS = {
    "oracle_validate": OracleValidate,
    "holevo_quadrature": HolevoQuadrature,
    "design_sweep": DesignSweep,
}
