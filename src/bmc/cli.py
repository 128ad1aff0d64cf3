"""Command-line front end.

Subcommands:
  sweep     capacity/fidelity parameter sweeps written as deterministic CSV,
            with ready-made presets fig1/fig2/fig3 and optional plot script
  validate  closed-form output states cross-checked against the numerical
            integrator over a grid of inputs and times
  optimal   search for the signal strength that maximizes the
            fidelity-capacity product

Exit codes: 0 success, 1 usage or configuration error, 2 validation failed
(including insufficient truncation and an integrator that gives up on a stiff
channel), 3 no interior optimum.

Every setting resolves key by key in rising precedence: reference values,
the sweep preset, the `--config` file, then flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analytic, capacity, fock, lindblad
from .capacity import DEFAULT_SEARCH_MAX, capacity_point, theta_curve
from .errors import (
    ConfigError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidTimeError,
    NotAStateError,
    StiffnessError,
    TruncationError,
)
from .lindblad import ChannelParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION_FAILED = 2
EXIT_NO_OPTIMUM = 3

DEFAULT_DIM = 50
DEFAULT_T_GRID = (0.5, 1.0, 2.0, 5.0)
DEFAULT_ETAS = (0j, 0.5 + 0j, 1.0 + 0j, 1.0 + 1.0j)
DEFAULT_TIMES = (0.1, 0.5, 1.0, 5.0, 20.0)
TRACE_DISTANCE_THRESHOLD = 1e-6
ENTROPY_GAP_THRESHOLD = 1e-6

CSV_HEADER = "swept_value,t,chi_bits,avg_fidelity,theta"
# Rows of the `optimal --curve` CSV, log-spaced in n_bar from 1e-2 to search_max.
THETA_CURVE_POINTS = 200

_SWEPT_CHOICES = ("n_bar", "beta_rate", "gamma", "t")
_SWEEP_KEYS = ("swept", "lo", "hi", "steps", "t_grid")

# Channel parameters used when neither a preset, the config file nor a flag sets them.
_REFERENCE = {"gamma": 0.1, "beta": 0.01, "n_bar": 5.0}

# Shipped figure sweeps over the reference channel parameters.
_PRESETS = {
    "fig1": {"swept": "n_bar", "lo": 1.0, "hi": 10.0, "steps": 10},
    "fig2": {"swept": "beta_rate", "lo": 0.01, "hi": 0.1, "steps": 10},
    "fig3": {"swept": "gamma", "lo": 0.1, "hi": 0.5, "steps": 5},
}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter with its range plus fixed values for the rest."""

    swept: str
    lo: float
    hi: float
    steps: int
    fixed: ChannelParams
    t_grid: tuple[float, ...] = DEFAULT_T_GRID

    def __post_init__(self):
        if self.swept not in _SWEPT_CHOICES:
            raise InvalidParameterError(
                f"swept must be one of {_SWEPT_CHOICES}, got {self.swept!r}"
            )
        for name in ("lo", "hi"):
            object.__setattr__(self, name, fock._check_real(getattr(self, name), name))
        if not self.lo < self.hi:
            raise InvalidParameterError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        steps = self.steps
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
            raise InvalidParameterError(f"steps must be an integer >= 2, got {steps!r}")
        grid = tuple(fock._check_time(t, "t_grid values") for t in self.t_grid)
        object.__setattr__(self, "t_grid", grid)
        if self.swept != "t":
            if not self.t_grid:
                raise InvalidTimeError("t_grid needs at least one time")
            # Endpoint construction exercises the full parameter validation.
            replace(self.fixed, **{self.swept: self.lo})
            replace(self.fixed, **{self.swept: self.hi})


def preset_spec(name: str) -> SweepSpec:
    """Shipped figure presets over the reference channel parameters."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return SweepSpec(fixed=_params(_REFERENCE), **_PRESETS[name])


def sweep_rows(spec: SweepSpec) -> list[tuple[float, capacity.CapacityPoint]]:
    """Evaluate the sweep, ordered by (swept value, t)."""
    values = np.linspace(spec.lo, spec.hi, spec.steps)
    rows = []
    if spec.swept == "t":
        for v in values:
            rows.append((float(v), capacity_point(spec.fixed, float(v))))
    else:
        for v in values:
            params = replace(spec.fixed, **{spec.swept: float(v)})
            for t in spec.t_grid:
                rows.append((float(v), capacity_point(params, t)))
    return rows


def write_sweep_csv(rows, out_path) -> Path:
    out_path = Path(out_path)
    with open(out_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for value, point in rows:
            fh.write(
                f"{value:.12e},{point.t:.12e},{point.chi:.12e},"
                f"{point.avg_fidelity:.12e},{point.theta:.12e}\n"
            )
    return out_path


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot the capacity sweep stored in {csv_name} (self-contained)."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).resolve().parent / "{csv_name}"
by_t = defaultdict(list)
with open(csv_path) as fh:
    for row in csv.DictReader(fh):
        by_t[float(row["t"])].append(
            (float(row["swept_value"]), float(row["chi_bits"]),
             float(row["avg_fidelity"]), float(row["theta"]))
        )

fig, axes = plt.subplots(3, 1, sharex=True, figsize=(7, 9))
labels = ("capacity [bits]", "average fidelity", "fidelity x capacity")
for t in sorted(by_t):
    rows = sorted(by_t[t])
    xs = [r[0] for r in rows]
    for ax, col in zip(axes, (1, 2, 3)):
        ax.plot(xs, [r[col] for r in rows], marker="o", label=f"t = {{t:g}} s")
for ax, label in zip(axes, labels):
    ax.set_ylabel(label)
    ax.grid(True, alpha=0.3)
axes[0].legend()
axes[-1].set_xlabel("swept value")
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=150, bbox_inches="tight")
print(f"wrote {{out}}")
'''


def write_plot_script(csv_path) -> Path:
    csv_path = Path(csv_path)
    script_path = csv_path.with_name(csv_path.stem + "_plot.py")
    script_path.write_text(_PLOT_TEMPLATE.format(csv_name=csv_path.name))
    return script_path


@dataclass(frozen=True)
class ValidationReport:
    """Analytic-vs-integrator comparison over a grid of (eta, t) points."""

    grid: tuple[tuple[complex, float], ...]
    trace_distances: tuple[float, ...]
    entropy_gaps: tuple[float, ...]
    # Per point: trace distance and entropy gap both within tolerance.
    point_passed: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.point_passed)


def run_validation(
    params: ChannelParams,
    etas=DEFAULT_ETAS,
    times=DEFAULT_TIMES,
    dim: int | None = None,
    trace_tol: float = TRACE_DISTANCE_THRESHOLD,
    entropy_tol: float = ENTROPY_GAP_THRESHOLD,
) -> ValidationReport:
    """Compare integrated against closed-form output states on a grid.

    For every input amplitude the trajectory is integrated once and sampled
    at all requested times; each sample is compared by trace distance to the
    closed-form displaced thermal state, and its eigenvalue entropy to the
    closed-form entropy of the thermal occupation.
    """
    dim = DEFAULT_DIM if dim is None else fock._check_dim(dim)
    etas = tuple(fock._check_amplitude(e) for e in etas)
    times = tuple(fock._check_time(t) for t in times)
    if not etas or not times:
        raise InvalidParameterError("validation needs at least one eta and one time")
    trace_tol = fock._check_real(trace_tol, "trace_tol")
    entropy_tol = fock._check_real(entropy_tol, "entropy_tol")
    for eta in etas:
        fock._check_truncation("input |{0}>", eta, 0.0, dim, TruncationError)
    inputs = [fock._coherent_projector(eta, dim) for eta in etas]

    ordered_times = sorted(set(times))
    exact_entropy = {t: capacity.g_entropy(analytic.beta_t(params, t)) for t in ordered_times}
    grid: list[tuple[complex, float]] = []
    tds: list[float] = []
    gaps: list[float] = []
    for eta, rho0 in zip(etas, inputs):
        trajectory = dict(lindblad.evolve_trajectory(rho0, params, ordered_times))
        for t in times:
            numeric = trajectory[t]
            exact = analytic.to_density_matrix(
                analytic.evolve_coherent_analytic(eta, params, t), dim
            )
            grid.append((eta, t))
            tds.append(fock.trace_distance(numeric, exact))
            gaps.append(abs(fock.von_neumann_entropy(numeric) - exact_entropy[t]))

    return ValidationReport(
        grid=tuple(grid),
        trace_distances=tuple(tds),
        entropy_gaps=tuple(gaps),
        point_passed=tuple(d <= trace_tol and g <= entropy_tol for d, g in zip(tds, gaps)),
    )


def print_validation_table(report: ValidationReport) -> None:
    print(f"{'eta':>12}  {'t [s]':>8}  {'trace_dist':>12}  {'entropy_gap':>12}  status")
    rows = zip(report.grid, report.trace_distances, report.entropy_gaps, report.point_passed)
    for (eta, t), td, gap, ok in rows:
        print(
            f"{_format_complex(eta):>12}  {t:>8g}  {td:>12.3e}  {gap:>12.3e}  "
            f"{'ok' if ok else 'FAIL'}"
        )
    tds, gaps = report.trace_distances, report.entropy_gaps
    i_td = max(range(len(tds)), key=tds.__getitem__)
    i_gap = max(range(len(gaps)), key=gaps.__getitem__)
    (eta_td, t_td), (eta_gap, t_gap) = report.grid[i_td], report.grid[i_gap]
    print(
        f"worst trace distance {tds[i_td]:.3e} at "
        f"(eta={_format_complex(eta_td)}, t={t_td:g}); "
        f"worst entropy gap {gaps[i_gap]:.3e} at "
        f"(eta={_format_complex(eta_gap)}, t={t_gap:g})"
    )
    print("validation PASSED" if report.passed else "validation FAILED")


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}j"


def write_theta_curve(params: ChannelParams, t: float, search_max: float, out_path) -> Path:
    """Emit THETA_CURVE_POINTS log-spaced n_bar,theta rows as CSV."""
    out_path = Path(out_path)
    grid = np.geomspace(1e-2, search_max, THETA_CURVE_POINTS)
    with open(out_path, "w", newline="\n") as fh:
        fh.write("n_bar,theta\n")
        for n, value in zip(grid, theta_curve(params, t, grid)):
            fh.write(f"{n:.12e},{value:.12e}\n")
    return out_path


# --- settings: config files, flags and their precedence ----------------------


def float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated floats; empty items are skipped."""
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def complex_list(raw: str) -> tuple[complex, ...]:
    """Comma-separated complex numbers such as `0,1+1j`; empty items are skipped."""
    return tuple(complex(tok.strip()) for tok in raw.split(",") if tok.strip())


# Every config key with its converter; a flag that sets a key uses the same one.
_CONVERTERS = {
    **dict.fromkeys(("gamma", "beta", "n_bar", "t", "lo", "hi"), float),
    **dict.fromkeys(("dim", "steps"), int),
    "swept": str,
    "t_grid": float_list,
}


def load_config(path) -> dict:
    """Parse a `key = value` config file into a typed mapping."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{path}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONVERTERS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = _CONVERTERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None
    return values


def _params(values: dict) -> ChannelParams:
    try:
        return ChannelParams(gamma=values["gamma"], beta_rate=values["beta"], n_bar=values["n_bar"])
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from None


def resolve(args: argparse.Namespace) -> dict:
    """Every setting of one parsed command line, keyed by config key.

    Reference values < preset < config file < flags, key by key; a flag left
    unset (None) overrides nothing. The validated channel parameters are
    added under "params".
    """
    values = dict(_REFERENCE)
    if getattr(args, "preset", None) is not None:
        values.update(_PRESETS[args.preset])
    if args.config is not None:
        values.update(load_config(args.config))
    values.update((key, val) for key, val in vars(args).items() if val is not None)
    values["params"] = _params(values)
    return values


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit with code 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _config_flag(parser, flag: str, key: str, help: str) -> None:
    parser.add_argument(flag, dest=key, type=_CONVERTERS[key], help=help)


def _add_param_flags(parser):
    _config_flag(parser, "--gamma", "gamma", "decay rate in 1/s")
    _config_flag(parser, "--beta", "beta", "thermal noise rate in 1/s")
    parser.add_argument("--config", type=Path, help="key = value configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bmc",
        description="Capacity and fidelity of a lossy bosonic Markov channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--preset", choices=tuple(_PRESETS))
    p_sweep.add_argument("--swept", choices=_SWEPT_CHOICES)
    _config_flag(p_sweep, "--lo", "lo", "first swept value")
    _config_flag(p_sweep, "--hi", "hi", "last swept value")
    _config_flag(p_sweep, "--steps", "steps", "number of swept values")
    _config_flag(p_sweep, "--t-grid", "t_grid", "comma-separated times in s")
    p_sweep.add_argument("--out", type=Path, required=True, help="output CSV path")
    p_sweep.add_argument("--plot", action="store_true", help="emit a sibling plot script")
    _config_flag(p_sweep, "--nbar", "n_bar", "mean input photon number")
    _add_param_flags(p_sweep)

    p_val = sub.add_parser("validate", help="integrator-vs-closed-form check")
    p_val.add_argument(
        "--etas", type=complex_list, default=DEFAULT_ETAS, help="comma-separated input amplitudes"
    )
    p_val.add_argument(
        "--times", type=float_list, default=DEFAULT_TIMES, help="comma-separated times in s"
    )
    _config_flag(p_val, "--dim", "dim", f"Fock truncation dimension (default {DEFAULT_DIM})")
    p_val.add_argument(
        "--trace-tol", type=float, default=TRACE_DISTANCE_THRESHOLD, help="default %(default)g"
    )
    p_val.add_argument(
        "--entropy-tol", type=float, default=ENTROPY_GAP_THRESHOLD, help="default %(default)g"
    )
    _add_param_flags(p_val)

    p_opt = sub.add_parser("optimal", help="signal strength maximizing theta")
    _config_flag(p_opt, "--t", "t", "channel time in s (required, > 0)")
    p_opt.add_argument(
        "--search-max", type=float, default=DEFAULT_SEARCH_MAX, help="default %(default)g"
    )
    p_opt.add_argument("--curve", action="store_true", help="emit n_bar,theta CSV to --out")
    p_opt.add_argument("--out", type=Path, help="curve CSV path (with --curve)")
    _add_param_flags(p_opt)

    return parser


# Built once: constructing it costs more than parsing a command line with it.
_PARSER = build_parser()


def _run_sweep(args) -> int:
    values = resolve(args)
    missing = [k for k in ("swept", "lo", "hi", "steps") if k not in values]
    if missing:
        raise ConfigError(
            f"sweep definition missing {', '.join(missing)}: "
            "give --preset, a config sweep definition, or --swept/--lo/--hi/--steps"
        )
    spec = SweepSpec(fixed=values["params"], **{k: values[k] for k in _SWEEP_KEYS if k in values})
    path = write_sweep_csv(sweep_rows(spec), args.out)
    if args.plot:
        write_plot_script(path)
    print(f"wrote {path}")
    return EXIT_OK


def _run_validate(args) -> int:
    values = resolve(args)
    try:
        report = run_validation(
            values["params"],
            etas=values["etas"],
            times=values["times"],
            dim=values.get("dim"),
            trace_tol=values["trace_tol"],
            entropy_tol=values["entropy_tol"],
        )
    except TruncationError as exc:
        print(f"truncation insufficient: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILED
    except (StiffnessError, NotAStateError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILED
    print_validation_table(report)
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def _run_optimal(args) -> int:
    values = resolve(args)
    if "t" not in values:
        raise ConfigError("optimal needs --t (or a config t value)")
    if args.curve != (args.out is not None):
        raise ConfigError("--curve and --out go together: --curve writes the CSV that --out names")
    params, t, search_max = values["params"], values["t"], values["search_max"]
    result = capacity.optimal_nbar(params, t, search_max)
    if not result.interior_optimum:
        print(
            f"no interior optimum: theta is monotone in n_bar over (0, {search_max:g}] "
            f"at t={t:g} (it keeps growing with the signal)"
        )
        return EXIT_NO_OPTIMUM
    print(f"n_bar_opt          = {result.n_bar_opt:.9g}")
    print(f"theta(n_bar_opt)   = {result.theta_at_opt:.9g} bits")
    print(f"criterion residual = {result.criterion_residual:.9g}")
    if args.curve:
        path = write_theta_curve(params, t, search_max, args.out)
        print(f"theta curve written to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {"sweep": _run_sweep, "validate": _run_validate, "optimal": _run_optimal}
    try:
        return handlers[args.command](args)
    except (
        ConfigError,
        InvalidParameterError,
        InvalidTimeError,
        InvalidDimensionError,
        OSError,
    ) as exc:
        print(f"bmc {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
