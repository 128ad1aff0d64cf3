"""Closed-form channel action on coherent inputs.

A coherent input stays a displaced thermal state under the thermal-loss
channel, so the exact output is captured by two numbers: the damped
displacement and the accumulated thermal occupation. This module computes
those numbers, the Gaussian-ensemble average, and the conversion back to an
explicit truncated density matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import InvalidParameterError, InvalidTimeError, TruncationWarning
from . import fock
from .fock import DensityMatrix
from .lindblad import ChannelParams


@dataclass(frozen=True)
class GaussianChannelState:
    """Displaced thermal state: D(displacement) thermal(thermal_photons) D+."""

    displacement: complex
    thermal_photons: float

    def __post_init__(self):
        object.__setattr__(self, "displacement", fock._check_amplitude(self.displacement))
        object.__setattr__(self, "thermal_photons", float(self.thermal_photons))
        if not math.isfinite(self.thermal_photons) or self.thermal_photons < 0.0:
            raise InvalidParameterError(
                f"thermal occupation must be >= 0, got {self.thermal_photons}"
            )

    def mean_photons(self) -> float:
        return abs(self.displacement) ** 2 + self.thermal_photons

    def photon_variance(self) -> float:
        d_sq = abs(self.displacement) ** 2
        n_th = self.thermal_photons
        return d_sq * (2.0 * n_th + 1.0) + n_th * (n_th + 1.0)


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise InvalidTimeError(f"time must be finite and >= 0, got {t}")
    return t


def beta_t(params: ChannelParams, t: float) -> float:
    """Accumulated thermal occupation (beta/gamma)(1 - e^{-gamma t})."""
    t = _check_time(t)
    return (params.beta_rate / params.gamma) * -math.expm1(-params.gamma * t)


def f_factor(params: ChannelParams, t: float) -> float:
    """Damping factor e^{-gamma t / 2} / (1 + beta(t))."""
    t = _check_time(t)
    return math.exp(-0.5 * params.gamma * t) / (1.0 + beta_t(params, t))


def evolve_coherent_analytic(
    eta: complex, params: ChannelParams, t: float
) -> GaussianChannelState:
    """Exact channel output for the coherent input |eta>.

    The field amplitude damps at half the energy decay rate while the
    reservoir feeds in beta(t) thermal photons.
    """
    t = _check_time(t)
    return GaussianChannelState(
        displacement=complex(eta) * math.exp(-0.5 * params.gamma * t),
        thermal_photons=beta_t(params, t),
    )


def ensemble_average_state(params: ChannelParams, t: float) -> GaussianChannelState:
    """Channel output averaged over the Gaussian ensemble of mean n_bar.

    The average has no displacement and thermal occupation
    beta(t) + n_bar e^{-gamma t}.
    """
    t = _check_time(t)
    return GaussianChannelState(
        displacement=0j,
        thermal_photons=beta_t(params, t) + params.n_bar * math.exp(-params.gamma * t),
    )


def suggested_dim(state: GaussianChannelState) -> int:
    """Truncation dimension adequate for both moments and the thermal tail."""
    return fock._displaced_thermal_dim(state.displacement, state.thermal_photons)


def to_density_matrix(state: GaussianChannelState, dim: int) -> DensityMatrix:
    """Explicit truncated matrix D(d) thermal(n_th) D+(d), renormalized."""
    needed = suggested_dim(state)
    if dim < needed:
        warnings.warn(
            f"dim={dim} is below the suggested {needed} for displacement "
            f"{state.displacement} with {state.thermal_photons:.4g} thermal photons",
            TruncationWarning,
            stacklevel=2,
        )
    return fock.displaced_thermal_state(state.displacement, state.thermal_photons, dim)
