"""Master-equation propagation of a damped bosonic mode in a thermal reservoir.

The generator is applied as shifted-slice multiply-adds on rho, O(d^2) per
evaluation (the superoperator is never materialized), and integrated in the
interaction picture, so there is no free-Hamiltonian commutator term. The
adaptive Dormand-Prince 5(4) stepper is the default; a fixed-step classical
RK4 is kept for deterministic fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidTimeError,
    StiffnessError,
    TruncationError,
)
from .fock import DensityMatrix

# Trace drift beyond this level means the representation lost physical weight.
TRACE_DRIFT_LIMIT = 1e-6
# The truncated generator conserves trace, so heating past the cutoff shows
# only as population piling up in the top level; beyond this it is too much.
CUTOFF_POPULATION_LIMIT = 1e-10

# Output-state invariant tolerances (looser than the constructors').
_EVOLVE_HERM_TOL = 1e-10
_EVOLVE_TRACE_TOL = 1e-8
_EVOLVE_PSD_TOL = 1e-8


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of the channel.

    gamma      -- field decay rate (1/s), strictly positive.
    beta_rate  -- thermal noise rate (1/s); the reservoir mean occupation is
                  beta_rate / gamma.
    m_squeeze  -- reservoir squeezing parameter, bounded by the physicality
                  condition |M|^2 <= N(N+1).
    n_bar      -- mean photon number of the input ensemble (dimensionless).
    """

    gamma: float
    beta_rate: float = 0.0
    m_squeeze: complex = 0j
    n_bar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "beta_rate", float(self.beta_rate))
        object.__setattr__(self, "m_squeeze", complex(self.m_squeeze))
        object.__setattr__(self, "n_bar", float(self.n_bar))
        if not math.isfinite(self.gamma) or self.gamma <= 0.0:
            raise InvalidParameterError(f"gamma must be > 0, got {self.gamma}")
        if not math.isfinite(self.beta_rate) or self.beta_rate < 0.0:
            raise InvalidParameterError(f"beta must be >= 0, got {self.beta_rate}")
        if not math.isfinite(self.n_bar) or self.n_bar < 0.0:
            raise InvalidParameterError(f"n_bar must be >= 0, got {self.n_bar}")
        n_res = self.beta_rate / self.gamma
        bound = n_res * (n_res + 1.0)
        if not abs(self.m_squeeze) ** 2 <= bound + 1e-12 * max(1.0, bound):
            raise InvalidParameterError(
                f"m_squeeze violates |M|^2 <= N(N+1): |{self.m_squeeze}|^2 > {bound:.6g}"
            )

    @property
    def reservoir_photons(self) -> float:
        """Mean occupation N of the reservoir mode."""
        return self.beta_rate / self.gamma


@dataclass(frozen=True)
class IntegratorOptions:
    """Step-control settings for `evolve`.

    method "rk45" is the adaptive Dormand-Prince pair; "rk4" takes fixed
    steps of size max_step (which must then be finite).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = math.inf
    method: str = "rk45"

    def __post_init__(self):
        if not self.rel_tol > 0.0 or not self.abs_tol > 0.0:
            raise InvalidParameterError("integrator tolerances must be positive")
        if not self.max_step > 0.0:
            raise InvalidParameterError(f"max_step must be > 0, got {self.max_step}")
        if self.method not in ("rk45", "rk4"):
            raise InvalidParameterError(f"unknown integrator method {self.method!r}")
        if self.method == "rk4" and not math.isfinite(self.max_step):
            raise InvalidParameterError("fixed-step rk4 needs a finite max_step")


def _generator(dim: int, params: ChannelParams):
    """Return f(rho) = d(rho)/dt on the dim-level truncated Fock space.

    a and a^dagger are single off-diagonals, so every term of the generator
    scales shifted slices of rho and one evaluation costs O(dim^2):
    (a rho a^dagger)_mn = sqrt((m+1)(n+1)) rho_{m+1,n+1},
    (a^dagger rho a)_mn = sqrt(mn) rho_{m-1,n-1}, and the squeezing terms
    are shifts by one or two. The anticommutator pieces form a drift A with
    A rho + rho A; its diagonal uses the truncated a a^dagger =
    diag(1, ..., dim-1, 0), whose zero last entry keeps the trace conserved.
    """
    gamma = params.gamma
    n_res = params.reservoir_photons
    m = params.m_squeeze
    levels = np.arange(dim, dtype=float)
    anti_number = levels + 1.0
    anti_number[-1] = 0.0
    diag = (-0.5 * gamma) * ((n_res + 1.0) * levels + n_res * anti_number)
    drift_sum = diag[:, None] + diag[None, :]
    root = np.sqrt(levels[1:])  # root[k] = sqrt(k + 1)
    weights = root[:, None] * root[None, :]  # sqrt((k+1)(l+1))
    loss = (gamma * (n_res + 1.0)) * weights
    gain = (gamma * n_res) * weights
    # Off-diagonal drift -gamma/2 (M a^dagger^2 + M* a^2) and squeezed sandwiches.
    pair = (-0.5 * gamma * m) * np.sqrt(levels[1:-1] * levels[2:])
    sandwich = (gamma * m) * weights

    def f(rho: np.ndarray) -> np.ndarray:
        out = drift_sum * rho
        out[:-1, :-1] += loss * rho[1:, 1:]
        if n_res != 0.0:
            out[1:, 1:] += gain * rho[:-1, :-1]
        if m != 0:
            out[2:, :] += pair[:, None] * rho[:-2, :]
            out[:-2, :] += pair.conj()[:, None] * rho[2:, :]
            out[:, :-2] += rho[:, 2:] * pair[None, :]
            out[:, 2:] += rho[:, :-2] * pair.conj()[None, :]
            out[1:, :-1] += sandwich * rho[:-1, 1:]
            out[:-1, 1:] += sandwich.conj() * rho[1:, :-1]
        return out

    return f


def lindblad_rhs(rho: DensityMatrix, params: ChannelParams) -> DensityMatrix:
    """Right-hand side d(rho)/dt of the reservoir master equation.

    The result is traceless (exactly, by cyclicity of the truncated trace)
    and Hermitian for Hermitian input; it is a derivative, not a state.
    """
    return DensityMatrix(_generator(rho.dim, params)(rho.entries))


# Dormand-Prince 5(4) tableau (the propagated solution is 5th order).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _error_ratio(err, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _check_trace(y: np.ndarray, t: float) -> None:
    drift = abs(np.trace(y) - 1.0)
    if not drift <= TRACE_DRIFT_LIMIT:
        raise TruncationError(
            f"trace drifted by {drift:.3e} at t={t:.6g}; "
            "the truncation dimension is insufficient for this evolution"
        )


def _check_cutoff(y: np.ndarray, t: float) -> None:
    top = y[-1, -1].real
    if not top <= CUTOFF_POPULATION_LIMIT:
        raise TruncationError(
            f"population {top:.3e} in the top Fock level {y.shape[0] - 1} "
            f"at t={t:.6g}; the truncation dimension is insufficient for this evolution"
        )


def _hermitize(y: np.ndarray) -> np.ndarray:
    return 0.5 * (y + y.conj().T)


def _integrate_rk45(f, y, t0, t1, opts):
    span = t1 - t0
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    k1 = f(y)
    # Initial step from the size of the state and its derivative.
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k1 / scale) ** 2)))
    h = 1e-6 * span if (d0 < 1e-8 or d1 < 1e-8) else 0.01 * d0 / d1
    h = min(h, span, opts.max_step)
    t = t0
    while t < t1:
        if h < 1e-14 * max(1.0, abs(t1)):
            raise StiffnessError(
                f"step size underflow at t={t:.6g} (h={h:.3e}); problem too stiff"
            )
        h_try = min(h, opts.max_step)
        final = h_try >= t1 - t
        if final:
            h_try = t1 - t
        ks = [k1]
        for row in _DP_A:
            stage = y + h_try * sum(c * k for c, k in zip(row, ks))
            ks.append(f(stage))
        y_new = y + h_try * sum(b * k for b, k in zip(_DP_B, ks) if b != 0.0)
        k7 = f(y_new)
        ks.append(k7)
        err = h_try * sum(e * k for e, k in zip(_DP_E, ks) if e != 0.0)
        ratio = _error_ratio(err, y, y_new, rel_tol, abs_tol)
        if math.isfinite(ratio) and ratio <= 1.0:
            t = t1 if final else t + h_try
            y = _hermitize(y_new)
            _check_trace(y, t)
            k1 = k7  # first-same-as-last reuse
            factor = _MAX_FACTOR if ratio == 0.0 else _SAFETY * ratio ** -0.2
        else:
            # Step rejected: y and k1 stay valid, only h shrinks.
            factor = _MIN_FACTOR if not math.isfinite(ratio) else _SAFETY * ratio ** -0.2
        h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return y


def _integrate_rk4(f, y, t0, t1, opts):
    span = t1 - t0
    n_steps = max(1, math.ceil(span / opts.max_step))
    h = span / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = _hermitize(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        t += h
        _check_trace(y, t)
    return y


def evolve_trajectory(
    rho0: DensityMatrix,
    params: ChannelParams,
    times,
    opts: IntegratorOptions | None = None,
) -> list[tuple[float, DensityMatrix]]:
    """Propagate rho0 and return the state at each requested time.

    `times` must be finite, nonnegative and nondecreasing; a single
    integration covers all of them. Every returned state is checked against
    the trajectory invariants (trace, Hermiticity, positivity) and, when the
    reservoir feeds photons, against population building up at the cutoff.
    """
    opts = opts if opts is not None else IntegratorOptions()
    times = [float(t) for t in times]
    if not times:
        raise InvalidTimeError("no sample times given")
    previous = 0.0
    for t in times:
        if not math.isfinite(t) or t < 0.0:
            raise InvalidTimeError(f"sample times must be finite and >= 0, got {t}")
        if t < previous:
            raise InvalidTimeError("sample times must be nondecreasing")
        previous = t

    rho0.validate(herm_tol=_EVOLVE_HERM_TOL, trace_tol=math.inf, psd_tol=_EVOLVE_PSD_TOL)
    y = np.array(rho0.entries, dtype=complex)
    _check_trace(y, 0.0)

    f = _generator(rho0.dim, params)
    feeds_photons = params.beta_rate > 0.0 or params.m_squeeze != 0
    stepper = _integrate_rk45 if opts.method == "rk45" else _integrate_rk4
    out: list[tuple[float, DensityMatrix]] = []
    t_now = 0.0
    for t in times:
        if t == 0.0:
            out.append((0.0, rho0))
            continue
        if t > t_now:
            y = stepper(f, y, t_now, t, opts)
            t_now = t
        if feeds_photons:
            _check_cutoff(y, t)
        state = DensityMatrix(y.copy()).validate(
            herm_tol=_EVOLVE_HERM_TOL,
            trace_tol=_EVOLVE_TRACE_TOL,
            psd_tol=_EVOLVE_PSD_TOL,
        )
        out.append((t, state))
    return out


def evolve(
    rho0: DensityMatrix,
    params: ChannelParams,
    t: float,
    opts: IntegratorOptions | None = None,
) -> DensityMatrix:
    """State of the channel output at time t for the input rho0."""
    return evolve_trajectory(rho0, params, [t], opts)[-1][1]
