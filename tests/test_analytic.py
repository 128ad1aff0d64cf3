import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmc import (
    ChannelParams,
    GaussianChannelState,
    InvalidParameterError,
    InvalidTimeError,
    TruncationWarning,
    beta_t,
    coherent_state,
    evolve,
    evolve_coherent_analytic,
    field_amplitude,
    g_entropy,
    mean_photon_number,
    number_state,
    projector,
    to_density_matrix,
    trace_distance,
    von_neumann_entropy,
)
from bmc import analytic, capacity, fock
from oracles import (
    complex_sandwich_state,
    ensemble_average_state,
    expm_displacement,
    gauss_laguerre_ensemble_average,
    monte_carlo_ensemble_average,
)

REF = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)

# Frozen from direct evaluation of the defining expressions.
BETA_AT_REF = 0.009516258196404042  # 0.1 (1 - e^{-0.1})
ENSEMBLE_NTH_AT_REF = 4.533703348376202  # beta(1) + 5 e^{-0.1}


class TestBetaT:
    def test_zero_time(self):
        assert beta_t(REF, 0.0) == 0.0

    def test_long_time_limit(self):
        assert beta_t(REF, 1e6 / REF.gamma) == pytest.approx(
            REF.beta_rate / REF.gamma, abs=1e-12
        )

    def test_reference_value(self):
        assert beta_t(REF, 1.0) == pytest.approx(0.1 * -math.expm1(-0.1), rel=1e-14)
        assert beta_t(REF, 1.0) == pytest.approx(BETA_AT_REF, rel=1e-14)

    def test_monotone_nondecreasing(self):
        values = [beta_t(REF, t) for t in np.linspace(0.0, 50.0, 200)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidTimeError):
            beta_t(REF, -0.1)


class TestEvolveCoherentAnalytic:
    def test_identity_at_zero_time(self):
        state = evolve_coherent_analytic(1.0, REF, 0.0)
        assert state.displacement == 1.0 + 0j
        assert state.thermal_photons == 0.0

    def test_reference_point(self):
        state = evolve_coherent_analytic(1.0, REF, 1.0)
        assert state.displacement == pytest.approx(math.exp(-0.05), rel=1e-14)
        assert state.thermal_photons == pytest.approx(BETA_AT_REF, rel=1e-14)

    def test_vacuum_input_thermalizes(self):
        for t in (0.3, 2.0, 10.0):
            state = evolve_coherent_analytic(0.0, REF, t)
            assert state.displacement == 0j
            assert state.thermal_photons == pytest.approx(beta_t(REF, t), rel=1e-15)

    def test_cross_check_against_integrator(self):
        dim = 40
        out = evolve(projector(coherent_state(1.0, dim)), REF, 1.0)
        exact = to_density_matrix(evolve_coherent_analytic(1.0, REF, 1.0), dim)
        assert trace_distance(out, exact) < 1e-6


class TestEnsembleAverageState:
    def test_no_signal_matches_vacuum_input(self):
        quiet = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=0.0)
        assert ensemble_average_state(quiet, 2.0) == evolve_coherent_analytic(
            0.0, quiet, 2.0
        )

    def test_zero_time_is_input_thermal(self):
        state = ensemble_average_state(REF, 0.0)
        assert state.displacement == 0j
        assert state.thermal_photons == REF.n_bar

    def test_reference_value(self):
        state = ensemble_average_state(REF, 1.0)
        assert state.thermal_photons == pytest.approx(ENSEMBLE_NTH_AT_REF, rel=1e-14)


class TestToDensityMatrix:
    def test_vacuum(self):
        mat = to_density_matrix(GaussianChannelState(0.0, 0.0), 20)
        assert np.array_equal(mat.entries, projector(number_state(0, 20)).entries)

    def test_displaced_vacuum_is_coherent_projector(self):
        alpha = 0.8 + 0.2j
        dim = 40
        built = to_density_matrix(GaussianChannelState(alpha, 0.0), dim)
        assert trace_distance(built, projector(coherent_state(alpha, dim))) < 1e-8

    def test_mean_photon_number(self):
        built = to_density_matrix(GaussianChannelState(1.0, 0.5), 60)
        assert mean_photon_number(built) == pytest.approx(1.5, abs=1e-7)

    def test_moment_round_trip(self):
        state = GaussianChannelState(0.8 - 0.3j, 0.4)
        built = to_density_matrix(state, 70)
        assert field_amplitude(built) == pytest.approx(state.displacement, abs=1e-8)
        recovered_thermal = mean_photon_number(built) - abs(field_amplitude(built)) ** 2
        assert recovered_thermal == pytest.approx(state.thermal_photons, abs=1e-7)

    def test_invariant_triple(self):
        to_density_matrix(GaussianChannelState(1.2 + 0.4j, 0.8), 80).validate()

    def test_validates_a_displaced_state_once(self, monkeypatch):
        validate = fock.DensityMatrix.validate
        calls = []
        monkeypatch.setattr(
            fock.DensityMatrix, "validate", lambda rho, **kw: calls.append(1) or validate(rho, **kw)
        )
        to_density_matrix(GaussianChannelState(1.2 + 0.4j, 0.8), 80)
        assert len(calls) == 1

    def test_warns_below_suggested_dim(self):
        state = GaussianChannelState(3.0, 0.5)
        with pytest.warns(TruncationWarning):
            to_density_matrix(state, 12)

    def test_warns_where_each_component_report_is_silent(self):
        # The thermal tail (1.3e-13) and the displacement's Poisson loss
        # (9.6e-7) each stay below COHERENT_LOSS_TOL, yet the state puts
        # 1.05e-3 of its weight beyond level 26: that weight is the one report,
        # from `displaced_thermal_state` and `to_density_matrix` alike.
        wide = fock.displaced_thermal_state(3.0, 0.5, 400)
        assert float(np.sum(np.diagonal(wide._core)[27:])) > 1e-3
        message = (
            "thermal state with 0.5 photons displaced by (3+0j) loses weight 1.053e-03 "
            "at dim=27; suggest dim >= 46"
        )
        for build in (
            lambda: fock.displaced_thermal_state(3.0, 0.5, 27),
            lambda: to_density_matrix(GaussianChannelState(3.0, 0.5), 27),
        ):
            with pytest.warns(TruncationWarning) as record:
                build()
            assert [str(w.message) for w in record] == [message]

    @staticmethod
    def _expm_sandwich(state, dim):
        # D thermal D+ with D from the matrix exponential, renormalized
        shift = expm_displacement(state.displacement, dim)
        mat = shift @ fock.thermal_state(state.thermal_photons, dim).entries @ shift.conj().T
        return fock.DensityMatrix(mat / mat.trace().real)

    def test_matches_expm_sandwich_on_validate_grid(self):
        # `bmc validate` defaults: reference channel, dim 50
        params = ChannelParams(gamma=0.1, beta_rate=0.01)
        for eta in (0.0, 0.5, 1.0, 1 + 1j):
            for t in (0.1, 0.5, 1.0, 5.0, 20.0):
                state = evolve_coherent_analytic(eta, params, t)
                dist = trace_distance(to_density_matrix(state, 50), self._expm_sandwich(state, 50))
                assert dist <= 1e-12, (eta, t, dist)

    def test_matches_expm_sandwich_on_quadrature_nodes(self):
        # 16 Gauss-Laguerre radial nodes with random phases, n_bar in [1, 2]
        rng = np.random.default_rng(5)
        nodes, _ = np.polynomial.laguerre.laggauss(16)
        for n_bar in (1.0, 1.5, 2.0):
            for u in nodes:
                eta = math.sqrt(n_bar * u) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                state = evolve_coherent_analytic(eta, REF, 1.0)
                dim = analytic.suggested_dim(state)
                dist = trace_distance(to_density_matrix(state, dim), self._expm_sandwich(state, dim))
                assert dist <= 1e-12, (n_bar, u, dist)

    @pytest.mark.parametrize("dim", [20, 50, 175, 274, 400])
    def test_matches_complex_sandwich(self, dim):
        # the real parity-block state against the complex-arithmetic product;
        # a cold core (most thermal weights negligible) and a warm one
        radius = 0.25 * math.sqrt(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for n_th in (0.0095, 1.0):
                for phase in (0.4, -2.2):
                    state = GaussianChannelState(radius * cmath.exp(1j * phase), n_th)
                    dist = trace_distance(
                        to_density_matrix(state, dim), complex_sandwich_state(state, dim)
                    )
                    assert dist <= 1e-13, (n_th, phase, dist)

    def test_negative_thermal_rejected(self):
        with pytest.raises(InvalidParameterError):
            GaussianChannelState(0.0, -0.1)


class TestEntropyIdentity:
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0 + 1.0j])
    @pytest.mark.parametrize("t", [0.5, 5.0])
    def test_output_entropy_is_g_of_beta(self, eta, t):
        dim = 50
        built = to_density_matrix(evolve_coherent_analytic(eta, REF, t), dim)
        assert abs(von_neumann_entropy(built) - g_entropy(beta_t(REF, t))) < 1e-7


class TestEnsembleConsistency:
    def test_gauss_laguerre_radial_average(self):
        quad, dim = gauss_laguerre_ensemble_average(REF, 1.0, n_nodes=64)
        closed = to_density_matrix(ensemble_average_state(REF, 1.0), dim)
        assert trace_distance(quad, closed) < 1e-6

    def test_diagonal_shortcut_equals_explicit_phase_average(self):
        # the angular integral in the radial-quadrature oracle uses the fact
        # that phase averaging dephases to the diagonal; check it explicitly
        dim = 26
        state = evolve_coherent_analytic(1.3, REF, 0.8)
        base = analytic.to_density_matrix(state, dim).entries
        n_phases = 2 * dim + 1
        acc = np.zeros((dim, dim), dtype=complex)
        for k in range(n_phases):
            phase = np.exp(1j * 2.0 * math.pi * k / n_phases * np.arange(dim))
            acc += (phase[:, None] * base * phase.conj()[None, :]) / n_phases
        assert np.max(np.abs(acc - np.diag(np.diag(base)))) < 1e-15

    def test_monte_carlo_average(self):
        # sampling noise allows ~2e-2 at 1e4 samples (measured 1.83e-2 for
        # this seed); this is a statistical smoke check, the quadrature
        # version above carries the accuracy requirement
        mc, dim = monte_carlo_ensemble_average(REF, 1.0, n_samples=10_000, seed=20240817)
        closed = to_density_matrix(ensemble_average_state(REF, 1.0), dim)
        assert trace_distance(mc, closed) < 3e-2


class TestSuggestedDim:
    def test_covers_moments_and_tail(self):
        state = GaussianChannelState(2.0, 3.0)
        dim = analytic.suggested_dim(state)
        d_sq, n_th = abs(state.displacement) ** 2, state.thermal_photons
        mean, variance = d_sq + n_th, d_sq * (2.0 * n_th + 1.0) + n_th * (n_th + 1.0)
        assert dim >= mean + 8.0 * math.sqrt(variance + 1.0) + 10.0
        assert dim >= analytic.suggested_dim(GaussianChannelState(0.0, n_th))


def _finite(value) -> bool:
    if isinstance(value, fock.DensityMatrix):
        return bool(np.all(np.isfinite(value.entries)))
    if isinstance(value, fock.StateVector):
        return bool(np.all(np.isfinite(value.amplitudes))) and math.isfinite(value.truncation_loss)
    return math.isfinite(value)


class TestFiniteOrTypedError:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.floats(), re=st.floats(), im=st.floats())
    @example(n=1e16, re=0.0, im=0.0)  # n / (1 + n) rounds to 1
    @example(n=0.5, re=math.nan, im=0.0)
    @example(n=0.0, re=1e200, im=0.0)  # |eta|^2 overflows
    @example(n=math.inf, re=0.0, im=0.0)
    @example(n=math.nan, re=0.0, im=0.0)
    def test_truncation_helpers_and_closed_forms(self, n, re, im):
        eta = complex(re, im)
        calls = (
            lambda: analytic.suggested_dim(GaussianChannelState(0.0, n)),
            lambda: fock.thermal_state(n, 10),
            lambda: coherent_state(eta, 20),
            lambda: analytic.suggested_dim(GaussianChannelState(eta, n)),
            lambda: to_density_matrix(GaussianChannelState(eta, n), 20),
            lambda: capacity.fidelity_analytic(eta, REF, 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for call in calls:
                try:
                    value = call()
                except Exception as exc:
                    assert type(exc).__module__ == "bmc.errors", repr(exc)
                else:
                    assert _finite(value), value
