import functools
import logging
import math
from fractions import Fraction
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmc import (
    ChannelParams,
    DensityMatrix,
    InvalidParameterError,
    InvalidTimeError,
    NotAStateError,
    StiffnessError,
    TruncationError,
    TruncationWarning,
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
from bmc import cli, fock, lindblad
from bmc.fock import _coherent_amplitudes, _coherent_projector
from oracles import (
    dense_lindblad_rhs,
    dormand_prince_linear_step,
    flat_shift_generator,
    ladder_operators,
)

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

    def test_rejects_a_non_finite_reservoir_occupation(self):
        # beta/gamma overflows to inf, which beta(t), Theta and evolve turn into nan
        with pytest.raises(InvalidParameterError, match="beta/gamma"):
            ChannelParams(gamma=1e-300, beta_rate=1e10)

    @pytest.mark.parametrize("value", ["0.1", True, 0.1 + 0j])
    @pytest.mark.parametrize("field", ["gamma", "beta_rate", "n_bar"])
    def test_rejects_a_field_that_is_not_a_real_number(self, field, value):
        # float() used to read "0.1" as 0.1 and True as 1.0
        with pytest.raises(InvalidParameterError, match=f"{field} must be a real number"):
            ChannelParams(**{"gamma": 0.1, field: value})

    def test_accepts_ints_and_numpy_reals(self):
        params = ChannelParams(np.float32(0.5), beta_rate=np.int64(1), n_bar=2)
        assert (params.gamma, params.beta_rate, params.n_bar) == (0.5, 1.0, 2.0)
        assert all(type(v) is float for v in (params.gamma, params.beta_rate, params.n_bar))

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
]


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return x + x.conj().T


def _counted(rho0, params, times):
    """`evolve_trajectory` and the number of right-hand-side evaluations it made."""
    generator = lindblad._generator
    evals = 0

    def counting_generator(dim, params):
        rhs = generator(dim, params)

        def f(rho):
            nonlocal evals
            evals += 1
            return rhs(rho)

        return f

    with mock.patch.object(lindblad, "_generator", counting_generator):
        trajectory = evolve_trajectory(rho0, params, times)
    return trajectory, evals


def _random_mixed_state(dim, seed, support=6):
    # supported on the lowest levels, so it does not touch the cutoff
    rho = np.zeros((dim, dim), dtype=complex)
    x = _random_hermitian(support, seed)
    rho[:support, :support] = x @ x
    return DensityMatrix(rho / np.trace(rho).real)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5, 50])
    @pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=["loss", "thermal"])
    def test_matches_dense_products(self, dim, params):
        x = _random_hermitian(dim, dim)
        reference = dense_lindblad_rhs(x, params)
        got = lindblad_rhs(DensityMatrix(x), params).entries
        assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("dim", [2, 3, 5, 50])
    @pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=["loss", "thermal"])
    def test_traceless_and_hermitian(self, dim, params):
        x = _random_hermitian(dim, 100 + dim)
        drho = lindblad_rhs(DensityMatrix(x), params).entries
        scale = np.max(np.abs(drho))
        assert abs(np.trace(drho)) <= 1e-13 * scale
        assert np.max(np.abs(drho - drho.conj().T)) <= 1e-15 * scale


class TestExactHermiticity:
    """The integrator steps the upper bands of the core, symmetrized once
    before the first step; the band generator gives the same bits as the
    full-matrix one, and a core unpacked from its upper bands is exactly
    Hermitian."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 50, 101])
    @pytest.mark.parametrize("beta_rate", [0.0, 0.2, 3.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_band_generator_matches_the_flat_shift_bit_for_bit(self, dim, beta_rate, dtype):
        y = _random_hermitian(dim, 200 + dim)
        if dtype is float:
            y = y.real.copy()
        assert np.array_equal(y, y.conj().T)
        params = ChannelParams(gamma=0.3, beta_rate=beta_rate)
        packed = lindblad._pack(y)
        assert packed.dtype == y.dtype
        got = lindblad._generator(dim, params)(packed)
        assert np.array_equal(got, lindblad._pack(flat_shift_generator(dim, params)(y)))
        unpacked = lindblad._unpack(packed, dim)
        assert np.array_equal(unpacked, y)
        assert np.array_equal(unpacked, unpacked.conj().T)

    @pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=["loss", "thermal"])
    def test_returned_cores_are_exactly_hermitian(self, params):
        rho0 = _random_mixed_state(40, 7)
        assert not np.array_equal(rho0._core, rho0._core.conj().T)
        for _, state in evolve_trajectory(rho0, params, [0.3, 1.0, 4.0]):
            assert np.array_equal(state._core, state._core.conj().T)


class TestFlatShift:
    """The loss and gain terms shift each band by one entry; their weights
    vanish where such a shift would reach into the next band. At dim = 7,
    (3, 6) ends band 3 and (6, 3) ends band 3 of the transpose. Each input is
    a Hermitian pair, z at the entry and z* at its mirror, so the stencil is
    the union of both entries' stencils."""

    @pytest.mark.parametrize("entry", [(3, 6), (0, 6), (6, 0), (6, 3)])
    @pytest.mark.parametrize("params", GENERATOR_PARAMS, ids=["loss", "thermal"])
    def test_last_row_and_column_stay_in_their_stencil(self, entry, params):
        dim = 7
        j, k = entry
        x = np.zeros((dim, dim), dtype=complex)
        x[j, k] = 0.7 - 0.2j
        x[k, j] = 0.7 + 0.2j
        got = lindblad_rhs(DensityMatrix(x), params).entries
        stencil = np.zeros((dim, dim), dtype=bool)
        for m, n in [(j, k), (k, j)]:
            for dm, dn in [(0, 0), (-1, -1), (1, 1)]:
                if 0 <= m + dm < dim and 0 <= n + dn < dim:
                    stencil[m + dm, n + dn] = True
        assert np.all(got[~stencil] == 0.0)
        reference = dense_lindblad_rhs(x, params)
        assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))


def _term_scale(x, params):
    """The dense generator's terms summed in modulus, entry by entry: the
    size of d(rho)/dt were none of its terms to cancel."""
    a, adag = ladder_operators(x.shape[0])
    gamma, n_res = params.gamma, params.reservoir_photons
    drift = (0.5 * gamma) * ((n_res + 1.0) * (adag @ a) + n_res * (a @ adag))
    r = np.abs(x)
    return drift @ r + r @ drift + gamma * ((n_res + 1.0) * (a @ r @ adag) + n_res * (adag @ r @ a))


class TestRhsPath:
    """`lindblad_rhs` is the integrator's first derivative: the band generator
    on the packed core, unpacked in the state's frame."""

    @staticmethod
    def _framed_states(alpha, n_th, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return (
                thermal_state(n_th, dim),
                fock.displaced_thermal_state(alpha, n_th, dim),
                _coherent_projector(alpha, dim),
            )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        alpha=st.complex_numbers(max_magnitude=4.0),
        n_th=st.floats(0.0, 2.0),
        dim=st.integers(2, 40),
        gamma=st.floats(0.01, 2.0),
        beta_rate=st.floats(0.0, 1.0),
    )
    def test_framed_inputs_match_the_dense_products(self, alpha, n_th, dim, gamma, beta_rate):
        # Near the steady state the terms cancel, so the difference is bounded
        # by 1e-14 of the largest sum of their moduli (8.3e-16 is the worst seen
        # over 1800 random cases), not of the largest entry of the result.
        params = ChannelParams(gamma=gamma, beta_rate=beta_rate)
        for rho in self._framed_states(alpha, n_th, dim):
            reference = dense_lindblad_rhs(rho.entries, params)
            got = lindblad_rhs(rho, params).entries
            scale = np.max(_term_scale(rho.entries, params))
            assert np.max(np.abs(got - reference)) <= 1e-14 * scale

    def test_the_result_keeps_the_frame_and_a_real_core(self):
        framed = fock.displaced_thermal_state(0.8 + 0.3j, 0.2, 30)
        for rho in (framed, thermal_state(0.2, 30), _coherent_projector(-1.1j, 30)):
            drho = lindblad_rhs(rho, REF)
            assert drho._alpha == rho._alpha
            assert drho._core.dtype == np.float64
            assert np.array_equal(drho._core, drho._core.T)
        plain = projector(coherent_state(0.8 + 0.3j, 30))
        drho = lindblad_rhs(plain, REF)
        assert drho._alpha == 0 and drho._core.dtype == np.complex128

    def test_it_refuses_what_evolve_refuses(self):
        mat = np.array(projector(coherent_state(0.5, 20)).entries)
        mat[0, 1] += 5e-11
        lindblad_rhs(DensityMatrix(mat), REF)
        evolve(DensityMatrix(mat), REF, 0.5)
        mat[0, 1] += 1e-9 - 5e-11
        for step in (lindblad_rhs, lambda rho, params: evolve(rho, params, 0.5)):
            with pytest.raises(NotAStateError, match=r"not Hermitian: max deviation 1\.000e-09"):
                step(DensityMatrix(mat), REF)

    def test_forms_no_entries(self, monkeypatch):
        formed = []
        form = DensityMatrix.entries.func
        counted = functools.cached_property(lambda rho: formed.append(rho.dim) or form(rho))
        counted.__set_name__(DensityMatrix, "entries")
        monkeypatch.setattr(DensityMatrix, "entries", counted)
        for rho in (*self._framed_states(1.0 - 0.5j, 0.1, 30), projector(coherent_state(0.5j, 30))):
            lindblad_rhs(rho, REF)
        assert formed == []


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

    def test_second_moments_from_vacuum(self):
        # independently derived moment dynamics for this generator:
        # <a+a>(t) = N (1 - e^{-gamma t}), <a^2>(t) = 0
        params = ChannelParams(gamma=0.2, beta_rate=0.06)
        dim = 30
        a, _ = ladder_operators(dim)
        vac = projector(number_state(0, dim))
        for t in (0.5, 2.0, 10.0):
            out = evolve(vac, params, t)
            grow = -math.expm1(-params.gamma * t)
            assert mean_photon_number(out) == pytest.approx(
                params.reservoir_photons * grow, abs=1e-9
            )
            assert complex(np.trace(out.entries @ a @ a)) == pytest.approx(0.0, abs=1e-9)


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

    @pytest.mark.parametrize("times", [[1e-12], [1e-97, 1.0]])
    def test_stationary_input_reaches_tiny_times(self, times):
        # the vacuum does not move under pure loss; its first step used to be
        # 1e-6 of the first sample time, below the step-underflow limit here
        rho0 = projector(number_state(0, 10))
        for _, state in evolve_trajectory(rho0, ChannelParams(gamma=1.0), times):
            assert np.array_equal(state.entries, rho0.entries)

    def test_tiny_first_sample_time_keeps_the_step_size(self):
        # the landing step on t = 1e-20 used to set the next step to 5e-20,
        # below the step-underflow limit
        rho0 = projector(coherent_state(0.7, 30))
        traj = evolve_trajectory(rho0, REF, [1e-20, 1.0])
        assert trace_distance(traj[1][1], evolve(rho0, REF, 1.0)) < 1e-9

    @pytest.mark.parametrize("route", ["real", "complex"])
    def test_samples_do_not_alias_the_step_buffer(self, route):
        # stepping on to t = 2 must leave the state returned for t = 0.5 as it was
        eta = 0.8 + 0.3j
        if route == "real":
            rho0 = _coherent_projector(eta, 30)
        else:
            rho0 = projector(coherent_state(eta, 30))
        early = evolve_trajectory(rho0, REF, [0.5, 2.0])[0][1]
        alone = evolve_trajectory(rho0, REF, [0.5])[0][1]
        assert np.array_equal(early.entries, alone.entries)
        assert not early.entries.flags.writeable
        if route == "real":
            assert np.array_equal(early._core, alone._core)
            assert not early._core.flags.writeable
        else:
            assert early._core is early.entries

    def test_rejects_decreasing_times(self):
        rho0 = projector(number_state(0, 10))
        with pytest.raises(InvalidTimeError):
            evolve_trajectory(rho0, REF, [1.0, 0.5])

    @pytest.mark.parametrize("times", [1.0, np.float64(1.0), np.array(1.0), None], ids=repr)
    def test_rejects_a_single_time(self, times):
        # a float used to raise "'float' object is not iterable"
        with pytest.raises(InvalidTimeError, match="sequence of times"):
            evolve_trajectory(projector(number_state(0, 10)), REF, times)

    @pytest.mark.parametrize("t", ["1", True, 1 + 0j])
    def test_rejects_a_time_that_is_not_a_real_number(self, t):
        # float() used to read "1" as 1.0 and True as 1.0
        with pytest.raises(InvalidTimeError, match="real number"):
            evolve_trajectory(projector(number_state(0, 10)), REF, [t])


class TestFailureModes:
    def test_hostile_rhs_underflows_step_size(self, monkeypatch):
        # a non-smooth right-hand side defeats the error estimator
        rng = np.random.default_rng(3)

        def hostile(y):
            return rng.standard_normal(y.shape) * 1e6

        monkeypatch.setattr(lindblad, "_generator", lambda dim, params: hostile)
        with pytest.raises(StiffnessError, match="step size underflow"):
            evolve(DensityMatrix(np.eye(4) / 4.0), REF, 1.0)

    def test_trace_deficient_input_raises_truncation_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            amps = _coherent_amplitudes(2.0, 5)
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
        _, needed = _counted(rho0, REF, [1.0])
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


class TestRealRoute:
    """An input built in a displacement's frame steps its real core."""

    # Up to gamma t = 2 with N <= 0.3 at d = 30 the step size is set by
    # accuracy, and the routes take the same steps. With a warmer reservoir
    # (N >= 0.4 past gamma t = 1.5) it can reach its stability limit; see the
    # stability-limited test below. The corners run whatever the seed.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @example(gamma=1.0, n_res=0.3, radius=2.0, phi=0.7, gamma_times=[2.0])
    @example(gamma=0.05, n_res=0.0, radius=2.0, phi=4.0, gamma_times=[0.5, 2.0])
    @given(
        gamma=st.floats(0.05, 2.0),
        n_res=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
        radius=st.floats(0.0, 2.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        gamma_times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    )
    def test_matches_the_complex_route(self, gamma, n_res, radius, phi, gamma_times):
        dim = 30
        params = ChannelParams(gamma=gamma, beta_rate=gamma * n_res)
        eta = radius * complex(math.cos(phi), math.sin(phi))
        times = sorted(g / gamma for g in gamma_times)
        real_input = _coherent_projector(eta, dim)
        real, real_evals = _counted(real_input, params, times)
        plain, plain_evals = _counted(projector(coherent_state(eta, dim)), params, times)
        assert real_evals == plain_evals
        for (t, state), (_, reference) in zip(real, plain):
            assert state._core.dtype == np.float64
            assert reference._core is reference.entries
            assert trace_distance(state, reference) <= 1e-12

    def test_stability_limited_run_agrees_to_the_tolerance(self):
        # With a warm reservoir (N = 0.5) the step size can reach the
        # stability limit at d = 30: by gamma t = 4.7, and for the vacuum
        # already by gamma t = 2. There the controller follows round-off.
        # The vacuum's core and entries are the same real numbers, so both
        # routes do the same arithmetic (361 evaluations in 56 accepted and 4
        # rejected steps each). The displaced input's core and entries differ
        # by round-off, and so does the work (real against complex: 877
        # evaluations in 138 accepted and 8 rejected steps against 859 in 138
        # and 5); the states agree only to the integration tolerance.
        params = ChannelParams(gamma=1.0, beta_rate=0.5)
        dim = 30
        for eta, t in ((0.92 * complex(math.cos(0.4), math.sin(0.4)), 4.74), (0j, 2.0)):
            real, real_evals = _counted(_coherent_projector(eta, dim), params, [t])
            plain, plain_evals = _counted(projector(coherent_state(eta, dim)), params, [t])
            exact = to_density_matrix(evolve_coherent_analytic(eta, params, t), dim)
            if eta == 0:
                assert real_evals == plain_evals
                assert np.array_equal(real[0][1].entries, plain[0][1].entries)
            assert trace_distance(real[0][1], plain[0][1]) <= 1e-9
            assert trace_distance(real[0][1], exact) <= 1e-9

    def test_outputs_keep_the_input_phases(self):
        rho0 = _coherent_projector(1.0 - 0.5j, 30)
        for _, state in evolve_trajectory(rho0, REF, [0.5, 3.0]):
            assert state._alpha == rho0._alpha
            assert state._core.dtype == np.float64
            assert not state._core.flags.writeable

    @pytest.mark.parametrize(
        "make_input",
        [
            lambda dim: projector(number_state(2, dim)),
            lambda dim: _random_mixed_state(dim, 7),
            lambda dim: projector(coherent_state(0.6 + 0.3j, dim)),
        ],
        ids=["number", "random-mixed", "plain-projector"],
    )
    def test_other_inputs_take_the_complex_route(self, make_input, caplog):
        caplog.set_level(logging.DEBUG, logger="bmc")
        for _, state in evolve_trajectory(make_input(20), REF, [0.5, 2.0]):
            assert state._core is state.entries
        assert "complex route" in caplog.records[-1].getMessage()


class TestLandingStep:
    # Right-hand-side evaluations of the `bmc validate` default grid, keyed
    # by eta, when the step after a landing step grew from the shortened one.
    BEFORE = {0j: 199, 0.5 + 0j: 211, 1.0 + 0j: 247, 1.0 + 1.0j: 295}

    def test_validate_grid_gets_no_dearer(self):
        times = sorted(set(cli.DEFAULT_TIMES))
        evals = {}
        for eta in cli.DEFAULT_ETAS:
            rho0 = _coherent_projector(eta, cli.DEFAULT_DIM)
            evals[eta] = _counted(rho0, REF, times)[1]
        assert evals[0.5 + 0j] < self.BEFORE[0.5 + 0j]
        for eta, before in self.BEFORE.items():
            assert evals[eta] <= before, (eta, evals[eta])


class TestValidateGridWork:
    # Route, right-hand-side evaluations, accepted and rejected steps of the
    # `bmc validate` default grid, keyed by eta, from the DEBUG record. A
    # faster step loop must do exactly this work.
    WORK = {
        0j: ("real", 169, 28, 0),
        0.5 + 0j: ("real", 193, 32, 0),
        1.0 + 0j: ("real", 247, 41, 0),
        1.0 + 1.0j: ("real", 295, 49, 0),
    }

    def test_work_is_unchanged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bmc")
        times = sorted(set(cli.DEFAULT_TIMES))
        for eta in cli.DEFAULT_ETAS:
            evolve_trajectory(_coherent_projector(eta, cli.DEFAULT_DIM), REF, times)
        work = {}
        for eta, record in zip(cli.DEFAULT_ETAS, caplog.records):
            route, dim, evals, accepted, rejected = record.args
            assert dim == cli.DEFAULT_DIM
            work[eta] = (route, evals, accepted, rejected)
        assert work == self.WORK


class TestLargerDimensionWork:
    # |1.5> relaxed to t = 20 on the reference channel, past the validate
    # grid's d = 50: route, right-hand-side evaluations, accepted and rejected
    # steps from the DEBUG record.
    @pytest.mark.parametrize(
        "dim, work", [(100, ("real", 319, 50, 3)), (200, ("real", 301, 47, 3))]
    )
    def test_work_is_unchanged(self, dim, work, caplog):
        caplog.set_level(logging.DEBUG, logger="bmc")
        evolve(_coherent_projector(1.5, dim), REF, 20.0)
        (record,) = caplog.records
        assert record.args == (work[0], dim, *work[1:])


class TestStabilityPolynomial:
    def test_step_coefficients_follow_from_the_tableau(self):
        step, error, error_new = dormand_prince_linear_step()
        # fifth-order Taylor polynomial of e^z, then the tableau's own z^6 term
        assert step[:6] == [1 / Fraction(math.factorial(k)) for k in range(6)]
        assert error[0] == 0
        assert tuple(map(float, step[1:])) == lindblad._DP_R
        assert tuple(map(float, error[1:])) == lindblad._DP_E
        # the step subtracts (h/40) f(y1)
        assert error_new == Fraction(-1, 40)


class TestDiagnostics:
    def test_one_debug_record_per_trajectory(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bmc")
        rho0 = _coherent_projector(0.5, 30)
        _, evals = _counted(rho0, REF, [0.1, 1.0, 5.0])
        _counted(projector(number_state(1, 12)), REF, [1.0])
        real, plain = caplog.records
        assert (real.name, real.levelno) == ("bmc", logging.DEBUG)
        assert real.getMessage().startswith(
            f"evolve_trajectory: real route, dim 30, {evals} right-hand-side evaluations, "
        )
        accepted, rejected = real.args[-2:]
        assert (evals - 1) == 6 * (accepted + rejected)
        assert plain.getMessage().startswith("evolve_trajectory: complex route, dim 12, ")
        assert logging.getLogger("bmc").handlers == []

    def test_silent_at_the_default_level(self, caplog):
        evolve(_coherent_projector(0.5, 20), REF, 1.0)
        assert not [r for r in caplog.records if r.name == "bmc"]


class TestFiniteOrTypedError:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(1e-3, 1e4),
        n_res=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
        eta=st.complex_numbers(max_magnitude=5.0),
        dim=st.integers(4, 24),
        gamma_times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3),
        real_input=st.booleans(),
    )
    def test_evolve_trajectory(self, gamma, n_res, eta, dim, gamma_times, real_input):
        # a low work budget keeps stiff draws short: they must end in StiffnessError
        params = ChannelParams(gamma=gamma, beta_rate=gamma * n_res)
        times = sorted(g / gamma for g in gamma_times)
        with warnings.catch_warnings(), mock.patch.object(lindblad, "MAX_RHS_EVALS", 300):
            warnings.simplefilter("ignore", TruncationWarning)
            try:
                if real_input:
                    rho0 = _coherent_projector(eta, dim)
                else:
                    rho0 = projector(coherent_state(eta, dim))
                trajectory = evolve_trajectory(rho0, params, times)
            except Exception as exc:
                assert type(exc).__module__ == "bmc.errors", repr(exc)
            else:
                for _, state in trajectory:
                    assert np.all(np.isfinite(state.entries))
