"""Closed-form channel action on coherent inputs.

A coherent input stays a displaced thermal state under the thermal-loss
channel, so the exact output is captured by two numbers: the damped
displacement and the accumulated thermal occupation. This module computes
those numbers, a truncation dimension for them, and the conversion back to
an explicit truncated density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fock
from .fock import DensityMatrix, _check_time
from .lindblad import ChannelParams


@dataclass(frozen=True)
class GaussianChannelState:
    """Displaced thermal state: D(displacement) thermal(thermal_photons) D+."""

    displacement: complex
    thermal_photons: float

    def __post_init__(self):
        object.__setattr__(self, "displacement", fock._check_amplitude(self.displacement))
        thermal = fock._check_real(self.thermal_photons, "thermal occupation")
        object.__setattr__(self, "thermal_photons", thermal)


def beta_t(params: ChannelParams, t: float) -> float:
    """Accumulated thermal occupation (beta/gamma)(1 - e^{-gamma t})."""
    t = _check_time(t)
    return (params.beta_rate / params.gamma) * -math.expm1(-params.gamma * t)


def evolve_coherent_analytic(
    eta: complex, params: ChannelParams, t: float
) -> GaussianChannelState:
    """Exact channel output for the coherent input |eta>.

    The field amplitude damps at half the energy decay rate while the
    reservoir feeds in beta(t) thermal photons.
    """
    t = _check_time(t)
    return GaussianChannelState(
        displacement=fock._check_amplitude(eta) * math.exp(-0.5 * params.gamma * t),
        thermal_photons=beta_t(params, t),
    )


def suggested_dim(state: GaussianChannelState) -> int:
    """The smallest dimension at which the O(1) bound on the weight the state
    puts past it is at most 1e-9 (`fock._tail_dim`); the state built there
    makes no truncation report."""
    x = abs(state.displacement) ** 2
    return fock._tail_dim(x, state.thermal_photons, fock._TAIL_WEIGHT)


def to_density_matrix(state: GaussianChannelState, dim: int) -> DensityMatrix:
    """Explicit truncated matrix D(d) thermal(n_th) D+(d), renormalized; its
    one truncation report is `fock.displaced_thermal_state`'s."""
    return fock.displaced_thermal_state(state.displacement, state.thermal_photons, dim)
