"""One argument contract for every public number and amplitude.

A real argument is read by `fock._check_real`, and a time by `_check_time`:
an int, float or numpy real gives the number its float gives, and a str,
bool, complex, NaN, +-inf or negative value (zero as well where the argument
must be positive) raises `InvalidParameterError`, or `InvalidTimeError` for a
time. An amplitude is read by `fock._check_amplitude`.
"""

import math

import numpy as np
import pytest

from bmc import (
    ChannelParams,
    GaussianChannelState,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidTimeError,
    capacity_point,
    criterion_residual,
    evolve_coherent_analytic,
    g_entropy,
    number_state,
    optimal_nbar,
    thermal_state,
)
from bmc import analytic, cli, fock
from bmc.capacity import theta_curve

REF = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)

# name: (call of the argument under test, its error, whether it must be > 0)
REAL_SITES = {
    "ChannelParams.gamma": (lambda v: ChannelParams(v), InvalidParameterError, True),
    "ChannelParams.beta_rate": (
        lambda v: ChannelParams(0.1, beta_rate=v), InvalidParameterError, False
    ),
    "ChannelParams.n_bar": (lambda v: ChannelParams(0.1, n_bar=v), InvalidParameterError, False),
    "GaussianChannelState.thermal_photons": (
        lambda v: GaussianChannelState(0.5, v), InvalidParameterError, False
    ),
    "g_entropy": (g_entropy, InvalidParameterError, False),
    "theta_curve.n_bar": (lambda v: theta_curve(REF, 1.0, (1.0, v)), InvalidParameterError, False),
    "criterion_residual.n_bar": (
        lambda v: criterion_residual(v, REF, 1.0), InvalidParameterError, True
    ),
    "criterion_residual.t": (lambda v: criterion_residual(1.0, REF, v), InvalidTimeError, True),
    "optimal_nbar.t": (lambda v: optimal_nbar(REF, v), InvalidTimeError, True),
    "optimal_nbar.search_max": (
        lambda v: optimal_nbar(REF, 1.0, search_max=v), InvalidParameterError, True
    ),
    "capacity_point.t": (lambda v: capacity_point(REF, v), InvalidTimeError, False),
    "displaced_thermal_state.n_th": (
        lambda v: fock.displaced_thermal_state(0.5, v, 60).entries.tolist(),
        InvalidParameterError,
        False,
    ),
    "suggested_dim.mean": (lambda v: fock.suggested_dim(v, 1.0), InvalidParameterError, False),
    "suggested_dim.variance": (
        lambda v: fock.suggested_dim(1.0, v), InvalidParameterError, False
    ),
    "thermal_tail_dim": (fock.thermal_tail_dim, InvalidParameterError, False),
    "run_validation.times": (
        lambda v: cli.run_validation(REF, etas=(0.5,), times=(v,), dim=20), InvalidTimeError, False
    ),
    "run_validation.trace_tol": (
        lambda v: cli.run_validation(REF, etas=(0.0,), times=(0.5,), dim=20, trace_tol=v),
        InvalidParameterError,
        False,
    ),
    "run_validation.entropy_tol": (
        lambda v: cli.run_validation(REF, etas=(0.0,), times=(0.5,), dim=20, entropy_tol=v),
        InvalidParameterError,
        False,
    ),
    "SweepSpec.lo": (
        lambda v: cli.SweepSpec("n_bar", v, 10.0, 3, REF), InvalidParameterError, False
    ),
    "SweepSpec.hi": (
        lambda v: cli.SweepSpec("n_bar", 0.0, v, 3, REF), InvalidParameterError, False
    ),
    "SweepSpec.lo-swept-t": (
        lambda v: cli.SweepSpec("t", v, 10.0, 3, REF), InvalidParameterError, False
    ),
}

# 10**400 is an int beyond the largest double
BAD_REALS = ["1", True, 1 + 0j, math.nan, math.inf, -math.inf, -1, 10**400]


def _bad_cases():
    for name, (call, error, positive) in REAL_SITES.items():
        for value in BAD_REALS + [0.0] * positive:
            yield pytest.param(call, error, value, id=f"{name}-{value!r:.8}")


@pytest.mark.parametrize("call, error, value", _bad_cases())
def test_a_bad_real_raises_the_typed_error(call, error, value):
    with pytest.raises(error, match="must be a real number|must be finite"):
        call(value)


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0)], ids=repr)
@pytest.mark.parametrize("call", [site[0] for site in REAL_SITES.values()], ids=list(REAL_SITES))
def test_ints_and_numpy_reals_give_the_float_result(call, value):
    assert repr(call(value)) == repr(call(2.0))


NON_POSITIVE_REAL_SITES = {
    name: site[0] for name, site in REAL_SITES.items() if not site[2]
}


@pytest.mark.parametrize("value", [-0.0, np.float64(-0.0), np.float32(-0.0)], ids=repr)
@pytest.mark.parametrize(
    "call", NON_POSITIVE_REAL_SITES.values(), ids=list(NON_POSITIVE_REAL_SITES)
)
def test_a_negative_zero_real_gives_the_zero_result(call, value):
    # -0.0 once came back signed and was written as -0 in reports and CSVs
    assert _outcome(call, value) == _outcome(call, 0.0)


def _outcome(call, value):
    """repr of the result, or the error raised (`SweepSpec.hi` refuses 0 either way)."""
    try:
        return repr(call(value))
    except InvalidParameterError as error:
        return repr(error)


RHO = thermal_state(0.2, 20)

AMPLITUDE_SITES = {
    "evolve_coherent_analytic": lambda v: evolve_coherent_analytic(v, REF, 1.0),
    "GaussianChannelState.displacement": lambda v: GaussianChannelState(v, 0.1),
    "displacement_operator": lambda v: fock.displacement_operator(v, 20).tolist(),
    "displaced_thermal_state.alpha": lambda v: fock.displaced_thermal_state(
        v, 0.1, 20
    ).entries.tolist(),
    "fidelity_with_coherent": lambda v: fock.fidelity_with_coherent(RHO, v),
}


@pytest.mark.parametrize(
    "value", ["1", True, None, math.nan, complex(0.5, math.inf), 1e200], ids=repr
)
@pytest.mark.parametrize("call", AMPLITUDE_SITES.values(), ids=list(AMPLITUDE_SITES))
def test_a_bad_amplitude_raises_the_typed_error(call, value):
    # 1e200 is finite, but its |eta|^2 is not
    with pytest.raises(InvalidParameterError, match="must be a number|must be finite"):
        call(value)


@pytest.mark.parametrize(
    "value", [1, np.int64(1), np.float32(1.0), np.complex64(1.0), 1.0], ids=repr
)
@pytest.mark.parametrize("call", AMPLITUDE_SITES.values(), ids=list(AMPLITUDE_SITES))
def test_every_number_type_gives_the_complex_result(call, value):
    assert repr(call(value)) == repr(call(1.0 + 0j))


@pytest.mark.parametrize(
    "value", [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0), np.float64(-0.0)], ids=repr
)
@pytest.mark.parametrize("call", AMPLITUDE_SITES.values(), ids=list(AMPLITUDE_SITES))
def test_a_negative_zero_amplitude_gives_the_zero_result(call, value):
    assert _outcome(call, value) == _outcome(call, 0.0)


@pytest.mark.parametrize(
    "n", [True, False, 1.0, 1.5, "1", 1 + 0j, -1, 5, np.float64(1.0)], ids=repr
)
def test_number_state_rejects_an_index_that_is_not_a_level(n):
    # a bool used to index as a mask: number_state(True, 5) was [1, 1, 1, 1, 1]
    with pytest.raises(InvalidDimensionError, match="number state index"):
        number_state(n, 5)


@pytest.mark.parametrize("n", [0, 4, np.int64(4), np.int32(2)], ids=repr)
def test_number_state_puts_one_at_its_index(n):
    amplitudes = number_state(n, 5).amplitudes
    assert amplitudes.tolist() == [1.0 if k == n else 0.0 for k in range(5)]


@pytest.mark.parametrize("dim", ["30", 30.0, np.float64(30.0), True, None, 1], ids=repr)
def test_to_density_matrix_rejects_a_dimension_that_is_not_a_level_count(dim):
    # the string once reached `dim < suggested_dim` and raised a bare TypeError
    with pytest.raises(InvalidDimensionError, match="truncation dimension"):
        analytic.to_density_matrix(GaussianChannelState(1, 0.1), dim)
