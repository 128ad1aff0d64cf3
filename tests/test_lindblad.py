import math
import time
import warnings

import numpy as np
import pytest

from bmc import (
    ChannelParams,
    DensityMatrix,
    InvalidParameterError,
    InvalidTimeError,
    StiffnessError,
    TruncationError,
    beta_t,
    coherent_state,
    evolve,
    evolve_coherent_analytic,
    evolve_trajectory,
    g_entropy,
    lindblad_rhs,
    mean_photon_number,
    number_state,
    projector,
    suggested_dim,
    thermal_state,
    thermal_tail_dim,
    to_density_matrix,
    trace_distance,
    von_neumann_entropy,
)
from bmc import lindblad
from bmc.fock import _coherent_amplitudes
from oracles import dense_lindblad_rhs, ladder_operators

REF = ChannelParams(gamma=0.1, beta_rate=0.01)


class TestChannelParams:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InvalidParameterError, match="gamma"):
            ChannelParams(gamma=0.0)
        with pytest.raises(InvalidParameterError, match="gamma"):
            ChannelParams(gamma=-1.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(InvalidParameterError, match="beta"):
            ChannelParams(gamma=0.1, beta_rate=-0.01)
        with pytest.raises(InvalidParameterError, match="n_bar"):
            ChannelParams(gamma=0.1, n_bar=-1.0)

    def test_squeezing_physicality_bound(self):
        # N = 0.1 -> |M|^2 <= 0.11, so |M| <= 0.3317
        ChannelParams(gamma=0.1, beta_rate=0.01, m_squeeze=0.3)
        with pytest.raises(InvalidParameterError, match="m_squeeze"):
            ChannelParams(gamma=0.1, beta_rate=0.01, m_squeeze=0.4)

    @pytest.mark.parametrize("m", [math.nan, complex(0.1, math.nan), math.inf])
    def test_nonfinite_squeezing_rejected(self, m):
        with pytest.raises(InvalidParameterError, match="m_squeeze"):
            ChannelParams(gamma=0.1, beta_rate=0.01, m_squeeze=m)

    def test_rejects_a_non_finite_reservoir_occupation(self):
        # beta/gamma overflows to inf, which beta(t), Theta and evolve turn into nan
        with pytest.raises(InvalidParameterError, match="beta/gamma"):
            ChannelParams(gamma=1e-300, beta_rate=1e10)

    def test_reservoir_photons(self):
        assert REF.reservoir_photons == pytest.approx(0.1, rel=1e-12)


class TestRhs:
    def test_vacuum_is_steady_for_pure_loss(self):
        params = ChannelParams(gamma=0.1)
        drho = lindblad_rhs(projector(number_state(0, 20)), params)
        assert np.max(np.abs(drho.entries)) < 1e-14

    def test_thermal_reservoir_state_is_steady(self):
        drho = lindblad_rhs(thermal_state(REF.reservoir_photons, 40), REF)
        assert np.max(np.abs(drho.entries)) < 1e-15

    def test_single_photon_decay_rates(self):
        params = ChannelParams(gamma=0.1)
        drho = lindblad_rhs(projector(number_state(1, 10)), params)
        assert drho.entries[0, 0].real == pytest.approx(params.gamma, abs=1e-14)
        assert drho.entries[1, 1].real == pytest.approx(-params.gamma, abs=1e-14)

    def test_traceless_and_hermitian(self):
        rho = projector(coherent_state(0.8 + 0.3j, 30))
        drho = lindblad_rhs(rho, REF)
        assert abs(np.trace(drho.entries)) < 1e-12
        assert np.max(np.abs(drho.entries - drho.entries.conj().T)) < 1e-14


GENERATOR_PARAMS = [
    ChannelParams(gamma=0.3),
    ChannelParams(gamma=0.3, beta_rate=0.2),
    ChannelParams(gamma=0.3, beta_rate=0.2, m_squeeze=0.5 - 0.4j),
]


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return x + x.conj().T


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5, 50])
    @pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=["loss", "thermal", "squeezed"])
    def test_matches_dense_products(self, dim, params):
        x = _random_hermitian(dim, dim)
        reference = dense_lindblad_rhs(x, params)
        got = lindblad_rhs(DensityMatrix(x), params).entries
        assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("dim", [2, 3, 5, 50])
    @pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=["loss", "thermal", "squeezed"])
    def test_traceless_and_hermitian(self, dim, params):
        x = _random_hermitian(dim, 100 + dim)
        drho = lindblad_rhs(DensityMatrix(x), params).entries
        scale = np.max(np.abs(drho))
        assert abs(np.trace(drho)) <= 1e-13 * scale
        assert np.max(np.abs(drho - drho.conj().T)) <= 1e-15 * scale


class TestEvolve:
    def test_zero_time_returns_input(self):
        rho0 = projector(coherent_state(1.0, 30))
        assert evolve(rho0, REF, 0.0) is rho0

    def test_matches_analytic_output(self):
        dim = 40
        rho0 = projector(coherent_state(1.0, dim))
        out = evolve(rho0, REF, 1.0)
        exact = to_density_matrix(evolve_coherent_analytic(1.0, REF, 1.0), dim)
        assert trace_distance(out, exact) < 1e-6

    def test_steady_state_reached_from_undisplaced_inputs(self):
        dim = 40
        target = thermal_state(REF.reservoir_photons, dim)
        horizon = 10.0 / REF.gamma
        for rho0 in (
            projector(number_state(0, dim)),
            thermal_state(0.3, dim),
        ):
            assert trace_distance(evolve(rho0, REF, horizon), target) < 1e-5
        # excitations decay as e^{-gamma t}: needs a longer horizon
        out = evolve(projector(number_state(1, dim)), REF, 15.0 / REF.gamma)
        assert trace_distance(out, target) < 1e-5

    def test_steady_state_reached_from_coherent_input(self):
        # the displacement decays as e^{-gamma t / 2}
        dim = 40
        target = thermal_state(REF.reservoir_photons, dim)
        out = evolve(projector(coherent_state(1.0, dim)), REF, 30.0 / REF.gamma)
        assert trace_distance(out, target) < 1e-5

    def test_semigroup_property(self):
        rho0 = projector(coherent_state(1.0 + 0.5j, 36))
        split = evolve(evolve(rho0, REF, 0.4), REF, 0.6)
        direct = evolve(rho0, REF, 1.0)
        assert trace_distance(split, direct) < 1e-7

    def test_entropy_matches_thermal_formula(self):
        dim = 40
        rho0 = projector(coherent_state(0.5, dim))
        for t in (0.5, 2.0):
            out = evolve(rho0, REF, t)
            assert abs(von_neumann_entropy(out) - g_entropy(beta_t(REF, t))) < 1e-6

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidTimeError):
            evolve(projector(number_state(0, 10)), REF, -1.0)


class TestTrajectory:
    def test_samples_align_with_single_shots(self):
        dim = 30
        rho0 = projector(coherent_state(0.7, dim))
        times = [0.0, 0.3, 1.0, 2.5]
        traj = evolve_trajectory(rho0, REF, times)
        assert [t for t, _ in traj] == times
        assert traj[0][1] is rho0
        for t, state in traj[1:]:
            assert trace_distance(state, evolve(rho0, REF, t)) < 1e-9

    def test_invariants_along_trajectory(self):
        rho0 = projector(coherent_state(1.0, 36))
        for _, state in evolve_trajectory(rho0, REF, [0.2, 0.7, 1.5, 4.0, 12.0]):
            assert abs(state.trace() - 1.0) < 1e-8
            assert np.max(np.abs(state.entries - state.entries.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(state.entries)[0] > -1e-8

    def test_zero_and_repeated_times(self):
        rho0 = projector(coherent_state(0.7, 30))
        traj = evolve_trajectory(rho0, REF, [0.0, 0.5, 0.5, 2.0])
        assert [t for t, _ in traj] == [0.0, 0.5, 0.5, 2.0]
        assert traj[0][1] is rho0
        assert np.array_equal(traj[1][1].entries, traj[2][1].entries)
        assert trace_distance(traj[1][1], traj[3][1]) > 1e-3

    def test_rejects_decreasing_times(self):
        rho0 = projector(number_state(0, 10))
        with pytest.raises(InvalidTimeError):
            evolve_trajectory(rho0, REF, [1.0, 0.5])


class TestSqueezedReservoir:
    def test_second_moments_from_vacuum(self):
        # independently derived moment dynamics for this generator:
        # <a+a>(t) = N (1 - e^{-gamma t}), <a^2>(t) = -M (1 - e^{-gamma t})
        params = ChannelParams(gamma=0.2, beta_rate=0.06, m_squeeze=0.25 + 0.1j)
        dim = 30
        a, _ = ladder_operators(dim)
        vac = projector(number_state(0, dim))
        for t in (0.5, 2.0, 10.0):
            out = evolve(vac, params, t)
            grow = -math.expm1(-params.gamma * t)
            assert mean_photon_number(out) == pytest.approx(
                params.reservoir_photons * grow, abs=1e-9
            )
            a_sq = complex(np.trace(out.entries @ a @ a))
            assert a_sq == pytest.approx(-params.m_squeeze * grow, abs=1e-9)

    def test_squeezed_evolution_stays_physical(self):
        params = ChannelParams(gamma=0.2, beta_rate=0.06, m_squeeze=0.2)
        out = evolve(projector(number_state(0, 30)), params, 5.0)
        out.validate(herm_tol=1e-10, trace_tol=1e-8, psd_tol=1e-8)


class TestFailureModes:
    def test_hostile_rhs_underflows_step_size(self, monkeypatch):
        # a non-smooth right-hand side defeats the error estimator
        rng = np.random.default_rng(3)

        def hostile(_y):
            return rng.standard_normal((4, 4)) * 1e6

        monkeypatch.setattr(lindblad, "_generator", lambda dim, params: hostile)
        with pytest.raises(StiffnessError, match="step size underflow"):
            evolve(DensityMatrix(np.eye(4) / 4.0), REF, 1.0)

    def test_trace_deficient_input_raises_truncation_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            amps, _ = _coherent_amplitudes(2.0, 5)
        leaky = DensityMatrix(np.outer(amps, amps.conj()))  # trace well below 1
        with pytest.raises(TruncationError, match="trace drifted"):
            evolve(leaky, REF, 1.0)

    def test_heating_past_cutoff_raises_truncation_error(self):
        # exact <n>(5) = 99.3, far beyond what 20 levels can hold
        params = ChannelParams(gamma=1.0, beta_rate=100.0)
        with pytest.raises(TruncationError, match="top Fock level 19"):
            evolve(projector(number_state(0, 20)), params, 5.0)

    def test_cutoff_error_suggests_a_dimension(self):
        # the exact mean at t = 5 is 100 (1 - e^{-5}) = 99.33 photons, whose
        # thermal tail needs 2069 levels; the error is raised at the first
        # step that crosses the cutoff limit, long before t = 5
        params = ChannelParams(gamma=1.0, beta_rate=100.0)
        mean = 100.0 * -math.expm1(-5.0)
        needed = max(suggested_dim(mean, mean * (mean + 1.0)), thermal_tail_dim(mean))
        assert needed == 2069
        started = time.perf_counter()
        with pytest.raises(TruncationError, match=r"to t=5; suggest dim >= 2069$"):
            evolve(projector(number_state(0, 20)), params, 5.0)
        assert time.perf_counter() - started < 30.0

    def test_stiff_case_exhausts_the_work_budget(self):
        # stability-limited RK45: about 90 000 evaluations per 0.1 s of channel
        # time here, so t = 1 used to run for minutes without an error
        rho0 = projector(coherent_state(1.0, 30))
        params = ChannelParams(gamma=1e4, beta_rate=1e3)
        started = time.perf_counter()
        with pytest.raises(StiffnessError, match=r"short of t=1 \(gamma=10000, dim=30\)"):
            evolve(rho0, params, 1.0)
        assert time.perf_counter() - started < 30.0

    def test_work_budget_counts_every_evaluation(self, monkeypatch):
        rho0 = projector(number_state(1, 12))
        generator = lindblad._generator
        evals = 0

        def counting_generator(dim, params):
            rhs = generator(dim, params)

            def f(rho):
                nonlocal evals
                evals += 1
                return rhs(rho)

            return f

        monkeypatch.setattr(lindblad, "_generator", counting_generator)
        evolve(rho0, REF, 1.0)
        needed = evals
        monkeypatch.setattr(lindblad, "MAX_RHS_EVALS", needed)
        evolve(rho0, REF, 1.0)
        monkeypatch.setattr(lindblad, "MAX_RHS_EVALS", needed - 1)
        with pytest.raises(StiffnessError, match=f"{needed - 1} right-hand-side evaluations"):
            evolve(rho0, REF, 1.0)

    def test_trace_drift_caught_during_stepping(self, monkeypatch):
        # y' = y is smooth, so the steps are accepted, but its trace grows
        # as e^t; the check after the first step (to t = 0.01) stops it
        monkeypatch.setattr(lindblad, "_generator", lambda dim, params: lambda y: y)
        with pytest.raises(TruncationError, match=r"trace drifted by \S+ at t=0\.01;"):
            evolve(DensityMatrix(np.eye(4) / 4.0), REF, 1.0)
