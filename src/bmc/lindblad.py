"""Master-equation propagation of a damped bosonic mode in a thermal reservoir.

The generator is applied as shifted-slice multiply-adds on rho, O(d^2) per
evaluation (the superoperator is never materialized), and integrated in the
interaction picture, so there is no free-Hamiltonian commutator term.
`evolve_trajectory` integrates once from t = 0 through every sample time in
one adaptive Dormand-Prince 5(4) loop at fixed tolerances, which counts its
right-hand-side evaluations and checks every accepted step in place.
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
from .fock import DensityMatrix, _displaced_thermal_dim, mean_photon_number

# Trace drift beyond this level means the representation lost physical weight.
TRACE_DRIFT_LIMIT = 1e-6
# Right-hand-side evaluations one `evolve_trajectory` may spend: about ten
# times the most any test or benchmark run needs (3643, a coherent input
# relaxed to t = 30/gamma at dim 40). Past it the step size is
# stability-limited and the run would take minutes, so StiffnessError ends it.
MAX_RHS_EVALS = 40_000
# Step-control tolerances: relative and absolute error allowed per entry.
_REL_TOL = 1e-9
_ABS_TOL = 1e-11
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
        if not math.isfinite(n_res):
            raise InvalidParameterError(
                f"reservoir occupation beta/gamma = {self.beta_rate}/{self.gamma} is not finite"
            )
        bound = n_res * (n_res + 1.0)
        if not abs(self.m_squeeze) ** 2 <= bound + 1e-12 * max(1.0, bound):
            raise InvalidParameterError(
                f"m_squeeze violates |M|^2 <= N(N+1): |{self.m_squeeze}|^2 > {bound:.6g}"
            )

    @property
    def reservoir_photons(self) -> float:
        """Mean occupation N of the reservoir mode."""
        return self.beta_rate / self.gamma


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


def _error_ratio(err, y_old, y_new):
    scale = _ABS_TOL + _REL_TOL * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _check_trace(y: np.ndarray, t: float) -> None:
    drift = abs(np.trace(y) - 1.0)
    if not drift <= TRACE_DRIFT_LIMIT:
        raise TruncationError(
            f"trace drifted by {drift:.3e} at t={t:.6g}; "
            "the truncation dimension is insufficient for this evolution"
        )


def _check_cutoff(
    y: np.ndarray, t: float, t_end: float, rho0: DensityMatrix, params: ChannelParams
) -> None:
    top = y[-1, -1].real
    if not top <= CUTOFF_POPULATION_LIMIT:
        # <n>_s = <n>_0 e^{-gamma s} + N (1 - e^{-gamma s}) exactly, for every M;
        # it is monotone in s, so its largest value on [t, t_end] is at an end.
        n0, n_res = mean_photon_number(rho0), params.reservoir_photons
        mean = max(
            n0 * math.exp(-params.gamma * s) - n_res * math.expm1(-params.gamma * s)
            for s in (t, t_end)
        )
        needed = _displaced_thermal_dim(0.0, mean)
        raise TruncationError(
            f"population {top:.3e} in the top Fock level {y.shape[0] - 1} "
            f"at t={t:.6g}; the truncation dimension is insufficient for this evolution "
            f"to t={t_end:.6g}; suggest dim >= {needed}"
        )


def evolve_trajectory(
    rho0: DensityMatrix, params: ChannelParams, times
) -> list[tuple[float, DensityMatrix]]:
    """Propagate rho0 and return the state at each requested time.

    `times` must be finite, nonnegative and nondecreasing; one integration
    from t = 0 passes through all of them, t = 0 returns rho0 itself and a
    repeated time returns the same state again. A step that would pass the
    next sample time is shortened to end on it; the step size and the
    first-same-as-last k1 carry on past every sample time. Every accepted
    step is checked for trace drift and, when the reservoir feeds photons,
    for population building up at the cutoff; every returned state against
    the invariant triple. A run that needs more than MAX_RHS_EVALS
    right-hand-side evaluations raises StiffnessError.
    """
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
    states = {0.0: rho0}
    stops = sorted(set(times) - {0.0})
    if not stops:
        return [(t, rho0) for t in times]

    f = _generator(rho0.dim, params)
    feeds_photons = params.beta_rate > 0.0 or params.m_squeeze != 0
    k1 = f(y)
    evals = 1
    # Initial step from the size of the state and its derivative.
    scale = _ABS_TOL + _REL_TOL * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k1 / scale) ** 2)))
    h = 1e-6 * stops[0] if (d0 < 1e-8 or d1 < 1e-8) else 0.01 * d0 / d1
    t = 0.0
    for t_stop in stops:
        while t < t_stop:
            if h < 1e-14 * max(1.0, t_stop):
                raise StiffnessError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}); problem too stiff"
                )
            if evals + 6 > MAX_RHS_EVALS:
                raise StiffnessError(
                    f"gave up after {MAX_RHS_EVALS} right-hand-side evaluations short of "
                    f"t={t_stop:.6g} (gamma={params.gamma:.6g}, dim={rho0.dim}); stability "
                    "holds the step size down, the problem is too stiff for this integrator"
                )
            final = h >= t_stop - t
            h_try = t_stop - t if final else h
            ks = [k1]
            for row in _DP_A:
                stage = y + h_try * sum(c * k for c, k in zip(row, ks))
                ks.append(f(stage))
            y_new = y + h_try * sum(b * k for b, k in zip(_DP_B, ks) if b != 0.0)
            k7 = f(y_new)
            evals += 6
            ks.append(k7)
            err = h_try * sum(e * k for e, k in zip(_DP_E, ks) if e != 0.0)
            ratio = _error_ratio(err, y, y_new)
            if math.isfinite(ratio) and ratio <= 1.0:
                t = t_stop if final else t + h_try
                y = 0.5 * (y_new + y_new.conj().T)
                _check_trace(y, t)
                if feeds_photons:
                    _check_cutoff(y, t, times[-1], rho0, params)
                k1 = k7  # first-same-as-last reuse
                factor = _MAX_FACTOR if ratio == 0.0 else _SAFETY * ratio ** -0.2
            else:
                # Step rejected: y and k1 stay valid, only h shrinks.
                factor = _MIN_FACTOR if not math.isfinite(ratio) else _SAFETY * ratio ** -0.2
            h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        states[t_stop] = DensityMatrix(y).validate(
            herm_tol=_EVOLVE_HERM_TOL,
            trace_tol=_EVOLVE_TRACE_TOL,
            psd_tol=_EVOLVE_PSD_TOL,
        )
    return [(t, states[t]) for t in times]


def evolve(rho0: DensityMatrix, params: ChannelParams, t: float) -> DensityMatrix:
    """State of the channel output at time t for the input rho0."""
    return evolve_trajectory(rho0, params, [t])[-1][1]
