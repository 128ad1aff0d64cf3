"""Capacity and fidelity of a lossy bosonic Markov channel.

The closed-form channel action (displaced thermal outputs, ensemble
averages, capacity, fidelity and their tradeoff) lives alongside a
truncated Fock-space master-equation integrator that independently
cross-checks every closed form.
"""

from .analytic import (
    GaussianChannelState,
    beta_t,
    evolve_coherent_analytic,
    to_density_matrix,
)
from .capacity import (
    CapacityPoint,
    OptimalSignalResult,
    average_fidelity,
    capacity_point,
    channel_capacity,
    criterion_residual,
    fidelity_analytic,
    g_entropy,
    optimal_nbar,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidTimeError,
    NotAStateError,
    StiffnessError,
    TruncationError,
    TruncationWarning,
)
from .fock import (
    DensityMatrix,
    StateVector,
    coherent_state,
    displacement_operator,
    fidelity_with_coherent,
    field_amplitude,
    mean_photon_number,
    number_state,
    projector,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from .lindblad import (
    ChannelParams,
    evolve,
    evolve_trajectory,
    lindblad_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityPoint",
    "ChannelParams",
    "ConfigError",
    "DensityMatrix",
    "DimensionMismatchError",
    "GaussianChannelState",
    "InvalidDimensionError",
    "InvalidParameterError",
    "InvalidTimeError",
    "NotAStateError",
    "OptimalSignalResult",
    "StateVector",
    "StiffnessError",
    "TruncationError",
    "TruncationWarning",
    "average_fidelity",
    "beta_t",
    "capacity_point",
    "channel_capacity",
    "coherent_state",
    "criterion_residual",
    "displacement_operator",
    "evolve",
    "evolve_coherent_analytic",
    "evolve_trajectory",
    "fidelity_analytic",
    "fidelity_with_coherent",
    "field_amplitude",
    "g_entropy",
    "lindblad_rhs",
    "mean_photon_number",
    "number_state",
    "optimal_nbar",
    "projector",
    "thermal_state",
    "to_density_matrix",
    "trace_distance",
    "von_neumann_entropy",
]
