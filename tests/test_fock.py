import functools
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmc
from bmc import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    NotAStateError,
    StateVector,
    TruncationWarning,
    coherent_state,
    displacement_operator,
    fidelity_with_coherent,
    field_amplitude,
    g_entropy,
    mean_photon_number,
    number_state,
    projector,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from bmc import analytic, fock
from oracles import expm_displacement, ladder_operators, thermal_entropy_by_summation


class TestLadderOperators:
    def test_dim2_exact(self):
        a, adag = ladder_operators(2)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag, a.conj().T)

    def test_matrix_element_sqrt2(self):
        a, _ = ladder_operators(3)
        assert a[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 5, 17])
    def test_commutator_identity_up_to_edge(self, dim):
        a, adag = ladder_operators(dim)
        comm = a @ adag - adag @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)  # truncation edge
        assert np.max(np.abs(comm - expected)) < 1e-12

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidDimensionError):
            ladder_operators(1)
        with pytest.raises(InvalidDimensionError):
            ladder_operators(0)

    def test_cached_and_immutable(self):
        a1, _ = ladder_operators(7)
        a2, _ = ladder_operators(7)
        assert a1 is a2
        assert not a1.flags.writeable


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(0, 10)
        expected = np.zeros(10)
        expected[0] = 1.0
        assert np.array_equal(state.amplitudes, expected)
        assert state.truncation_loss == 0.0

    def test_mean_photon_number_by_summation(self):
        # oracle: sum_n n |c_n|^2 must equal |eta|^2
        state = coherent_state(1.0, 30)
        mean = np.sum(np.arange(30) * np.abs(state.amplitudes) ** 2)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_normalization_by_summation(self):
        state = coherent_state(2.0, 40)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_truncation_warning_and_loss(self):
        with pytest.warns(TruncationWarning):
            state = coherent_state(2.0, 5)
        # direct summation of the exact coefficients
        direct = 1.0 - sum(
            math.exp(-4.0) * 4.0**n / math.factorial(n) for n in range(5)
        )
        assert state.truncation_loss == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "eta, dim",
        [(0.1, 2), (0.5, 5), (1 + 1j, 10), (2.0, 20), (3 - 4j, 50), (7.0, 100),
         (10j, 175), (20.0, 400), (26.0, 700), (31.6, 1300),
         # past |eta|^2 ~ 1416 e^{-x/2} is subnormal, past ~ 1420 e^{-x/2} x^n / n!
         # overflows a double, past ~ 1490 e^{-x/2} underflows, and a loss of 1
         # stays 1 far beyond all three
         (math.sqrt(1416.0), 1700), (math.sqrt(1450), 1300), (math.sqrt(1450), 1500),
         (math.sqrt(2000), 3000), (1e3, 50)],
    )
    def test_loss_is_the_poisson_tail(self, eta, dim):
        # Poisson law p_n of mean |eta|^2, its weight beyond dim-1 and the
        # amplitudes sqrt(p_n) e^{i n phi}, all in 50 digits
        with mpmath.workdps(50):
            x = mpmath.mpf(abs(eta)) ** 2
            phi = mpmath.arg(mpmath.mpc(eta))
            mass = [mpmath.exp(-x) * x**n / mpmath.factorial(n) for n in range(dim)]
            tail = 1 - mpmath.fsum(mass)
            exact = np.array([complex(mpmath.sqrt(p) * mpmath.expj(n * phi)) for n, p in enumerate(mass)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            state = coherent_state(eta, dim)
        amps, loss = state.amplitudes, state.truncation_loss
        assert abs(loss - float(tail)) <= 1e-14
        assert np.max(np.abs(amps - exact)) <= 1e-15
        assert abs(float(np.sum(np.abs(amps) ** 2)) + loss - 1.0) <= 1e-15
        # one Poisson mass gives the amplitudes, the fidelity's as well, and
        # the loss, which is the truncation report's own weight
        x = abs(complex(eta)) ** 2
        phases = fock._displacement_phases(complex(eta), dim)
        assert np.array_equal(amps, np.sqrt(fock._poisson_mass(x, dim)) * phases)
        assert np.array_equal(fock._coherent_amplitudes(eta, dim), amps)
        assert loss == fock._tail_weight(x, dim)

    @pytest.mark.parametrize("eta, dim", [(0, 10), (0.5, 20), (1 + 1j, 30), (-2j, 40), (3.0, 12)])
    def test_projector_builder_matches_the_plain_projector(self, eta, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            plain = projector(coherent_state(eta, dim))
        rho = fock._coherent_projector(eta, dim)
        assert np.max(np.abs(rho.entries - plain.entries)) <= 1e-15
        assert rho._alpha == complex(eta)
        assert rho._core.dtype == np.float64 and np.array_equal(rho._core, rho._core.T)
        assert not rho._core.flags.writeable

    def test_projector_builder_rejects_bad_input(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            fock._coherent_projector(math.nan, 10)
        with pytest.raises(InvalidDimensionError):
            fock._coherent_projector(0.5, 1)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, complex(0.5, math.nan), -math.inf])
    def test_nonfinite_amplitude_rejected(self, eta):
        # max(0.0, nan) is 0.0, so a NaN amplitude would otherwise report no loss
        with pytest.raises(InvalidParameterError, match="finite"):
            coherent_state(eta, 10)
        with pytest.raises(InvalidParameterError, match="finite"):
            fock.displaced_thermal_state(eta, 0.1, 10)


class TestDisplacementOperator:
    def test_zero_is_identity(self):
        assert np.array_equal(displacement_operator(0, 8), np.eye(8))

    def test_displaced_vacuum_is_coherent(self):
        dim = 45
        alpha = 0.7 + 0.3j
        shifted = displacement_operator(alpha, dim) @ number_state(0, dim).amplitudes
        expected = coherent_state(alpha, dim).amplitudes
        lower = slice(0, (2 * dim) // 3)
        assert np.max(np.abs(shifted[lower] - expected[lower])) < 1e-8

    def test_inverse_displacement(self):
        dim = 40
        alpha = 1.1 - 0.4j
        product = displacement_operator(alpha, dim) @ displacement_operator(-alpha, dim)
        lower = slice(0, (2 * dim) // 3)
        assert np.max(np.abs(product[lower, lower] - np.eye(dim)[lower, lower])) < 1e-8

    def test_unitary_on_full_truncated_space(self):
        # anti-Hermitian generator: expm is unitary on the whole block
        dim = 30
        d = displacement_operator(0.9 + 0.2j, dim)
        assert np.max(np.abs(d @ d.conj().T - np.eye(dim))) < 1e-12

    @pytest.mark.parametrize("dim", [2, 20, 100, 274, 400])
    def test_matches_matrix_exponential(self, dim):
        # the eigenbasis form is the same truncated unitary expm computes;
        # the moduli keep the truncation loss below the warning level
        radius = 0.9 if dim == 2 else 0.25 * math.sqrt(dim)
        moduli = (radius, 0.3 * radius) if dim <= 100 else (radius,)  # expm is slow at large d
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for phase in (0.0, 0.5 * math.pi, 2.9, -2.2):
                for modulus in moduli:
                    alpha = modulus * complex(math.cos(phase), math.sin(phase))
                    err = np.max(np.abs(displacement_operator(alpha, dim) - expm_displacement(alpha, dim)))
                    assert err <= 1e-12, (alpha, err)

    def test_eigenbasis_is_hermite_roots(self):
        # Golub-Welsch: the truncated sqrt(2) x has the roots of H_d as sqrt(2) x_k,
        # and the singular values of the odd<-even block are its positive eigenvalues
        for dim in (2, 3, 9, 60):
            left, sigma, right = fock._parity_basis(dim)
            roots, _ = np.polynomial.hermite.hermgauss(dim)
            positive = np.sort(roots)[dim - dim // 2 :]
            assert sigma.shape == (dim // 2,)
            assert np.max(np.abs(np.sort(sigma) - math.sqrt(2.0) * positive)) < 1e-12
            assert np.max(np.abs(left.T @ left - np.eye(dim // 2))) < 1e-12
            assert np.max(np.abs(right.T @ right - np.eye(dim - dim // 2))) < 1e-12

    def test_eigenbasis_cached_and_immutable(self):
        first = fock._parity_basis(7)
        assert fock._parity_basis(7) is first
        assert not any(arr.flags.writeable for arr in first)
        # every call hands back its own matrix, built from the shared basis
        alpha = 0.4 - 0.3j
        displacement_operator(alpha, 7)[:] = 0.0
        assert np.max(np.abs(displacement_operator(alpha, 7) - expm_displacement(alpha, 7))) < 1e-12

    def test_concurrent_displacements_share_one_basis(self):
        dim = 97
        fock._parity_basis.cache_clear()
        results = [None] * 16
        barrier = threading.Barrier(len(results))

        def fetch(i):
            barrier.wait()
            results[i] = displacement_operator(0.8 + 0.1j * i, dim)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, mat in enumerate(results):
            assert np.max(np.abs(mat - expm_displacement(0.8 + 0.1j * i, dim))) < 1e-12
        assert fock._parity_basis.cache_info().currsize == 1

    @pytest.mark.parametrize("dim", [2, 3, 20, 51, 100, 274, 400])
    def test_real_block_matches_matrix_exponential(self, dim):
        # O(r) = exp(r (a+ - a)) is real orthogonal; its parity blocks are
        # built from the SVD of the odd<-even block alone
        radii = (0.3, 1.7, 0.25 * math.sqrt(dim))
        if dim <= 100:
            radii += (3.0,)
        for r in radii:
            built = fock._real_displacement(r, dim, dim)
            assert built.dtype == np.float64
            err = np.max(np.abs(built - expm_displacement(r, dim)))
            assert err <= 1e-12, (r, err)
            assert np.max(np.abs(built.T @ built - np.eye(dim))) <= 1e-13, r


class TestDisplacedThermalState:
    def test_matches_sandwich_with_displacement_operator(self):
        dim = 40
        alpha = -0.6 + 0.9j
        shift = displacement_operator(alpha, dim)
        expected = shift @ thermal_state(0.7, dim).entries @ shift.conj().T
        built = fock.displaced_thermal_state(alpha, 0.7, dim)
        assert np.max(np.abs(built.entries - expected / np.trace(expected).real)) < 1e-14

    def test_zero_displacement_is_the_thermal_state(self):
        levels = np.arange(80)
        for n_th in (0.0, 0.3, 4.0):
            weights = n_th**levels / (1.0 + n_th) ** (levels + 1)
            built = fock.displaced_thermal_state(0, n_th, 80).entries
            assert np.array_equal(built, np.diag(np.diagonal(built))), n_th
            assert np.allclose(np.diagonal(built), weights / weights.sum(), rtol=1e-13, atol=0)
            assert np.array_equal(built, thermal_state(n_th, 80).entries), n_th

    def test_warns_when_truncated(self):
        with pytest.warns(TruncationWarning, match=r"^thermal state with 0\.1 photons displaced by"):
            fock.displaced_thermal_state(3.0, 0.1, 12)


class TestThermalState:
    def test_zero_occupation_is_vacuum(self):
        rho = thermal_state(0.0, 20)
        assert np.array_equal(rho.entries, projector(number_state(0, 20)).entries)

    def test_geometric_weights(self):
        rho = thermal_state(1.0, 60)
        assert rho.entries[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert rho.entries[1, 1].real == pytest.approx(0.25, abs=1e-12)

    def test_mean_occupation_by_summation(self):
        rho = thermal_state(0.5, 60)
        direct = np.sum(np.arange(60) * np.real(np.diag(rho.entries)))
        assert direct == pytest.approx(0.5, abs=1e-9)
        assert mean_photon_number(rho) == pytest.approx(0.5, abs=1e-9)

    def test_negative_occupation_rejected(self):
        with pytest.raises(InvalidParameterError):
            thermal_state(-0.1, 20)

    @pytest.mark.parametrize("n_th", [0.0, 0.3, 1.0, 4.0])
    def test_invariant_triple(self, n_th):
        thermal_state(n_th, 80).validate()

    def test_warns_when_the_tail_is_truncated(self):
        # r^dim = (5/6)^10 = 0.16 of the weight is dropped; the mean reads 3.07.
        # (5/6)^80 = 4.6e-7 meets half the tolerance.
        with pytest.warns(TruncationWarning, match=r"suggest dim >= 80$"):
            rho = thermal_state(5.0, 10)
        assert mean_photon_number(rho) == pytest.approx(3.07, abs=0.01)

    @pytest.mark.parametrize("n_th", [0.0, 0.3, 4.0])
    def test_a_thermal_state_is_a_real_core(self, n_th):
        # its spectrum is bit-equal to the diagonal shortcut of the complex
        # state given by the same weights
        rho = thermal_state(n_th, 120)
        assert rho._core.dtype == np.float64 and rho._alpha == 0
        given = DensityMatrix(rho._core)
        assert np.array_equal(rho.spectrum, given.spectrum)
        assert not rho.spectrum.flags.writeable
        assert np.array_equal(rho.entries, given.entries)
        assert von_neumann_entropy(rho) == von_neumann_entropy(given)

    def test_a_huge_occupation_suggests_a_finite_dimension(self):
        # the photon-number variance n (n + 1) overflows past about 1.3e154
        # photons and used to raise about a variance no caller gave; the
        # suggested dimension, -log(5e-7) n = 14.5 n, is still a double
        with pytest.warns(TruncationWarning) as record:
            thermal_state(1e200, 10)
        (warning,) = record
        needed = int(re.search(r"suggest dim >= (\d+)$", str(warning.message)).group(1))
        assert needed == math.ceil(-math.log(0.5 * fock.COHERENT_LOSS_TOL) / math.log1p(1e-200))
        assert math.isfinite(float(needed))


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = projector(coherent_state(0.8, 40))
        assert von_neumann_entropy(rho) < 1e-9

    @pytest.mark.parametrize(
        "build",
        [
            lambda: thermal_state(0, 5),
            lambda: fock._coherent_projector(1 + 1j, 20),
            lambda: projector(number_state(0, 5)),
        ],
        ids=["vacuum", "coherent_projector", "number_state_projector"],
    )
    def test_pure_state_entropy_is_a_positive_zero(self, build):
        # -sum(1 log2 1) is -0.0, which prints as -0
        entropy = von_neumann_entropy(build())
        assert math.copysign(1.0, entropy) == 1.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        re=st.floats(-2.0, 2.0),
        im=st.floats(-2.0, 2.0),
        framed=st.booleans(),
    )
    # eigenvalues rounded above 1 gave -9.6e-16 (the first three) and -6.4e-16 bits
    @example(re=-0.631141575765397, im=0.929137500973796, framed=False)
    @example(re=-1.374996046345663, im=0.39509305510893244, framed=False)
    @example(re=1.4334699403980649, im=0.23599825548660097, framed=False)
    @example(re=0.3983699672639724, im=-0.562823337417525, framed=True)
    def test_a_pure_state_entropy_is_never_negative(self, re, im, framed):
        eta = complex(re, im)
        rho = fock._coherent_projector(eta, 30) if framed else projector(coherent_state(eta, 30))
        entropy = von_neumann_entropy(rho)
        assert math.copysign(1.0, entropy) == 1.0
        assert entropy < 1e-9

    @pytest.mark.parametrize(
        "build",
        [
            lambda: thermal_state(0.7, 40),
            lambda: fock.displaced_thermal_state(1.5 - 0.5j, 0.05, 40),
            lambda: bmc.evolve(
                projector(coherent_state(1 + 1j, 30)),
                bmc.ChannelParams(gamma=0.1, beta_rate=0.01),
                0.1,
            ),
            lambda: DensityMatrix(np.eye(4) / 4.0),
        ],
        ids=["thermal", "displaced_thermal", "evolved_coherent", "maximally_mixed"],
    )
    def test_a_mixed_state_entropy_sums_every_eigenvalue_as_it_is(self, build):
        rho = build()
        evals = rho.spectrum[rho.spectrum > 1e-14]
        assert von_neumann_entropy(rho) == 0.0 - float(np.sum(evals * np.log2(evals)))

    def test_thermal_unit_occupation_two_bits(self):
        # oracle: g(1) = 2 log2(2) - 1 log2(1) = 2, and direct -sum p log2 p
        rho = thermal_state(1.0, 60)
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-8)
        assert von_neumann_entropy(rho) == pytest.approx(
            thermal_entropy_by_summation(1.0), abs=1e-8
        )

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_negative_eigenvalue_rejected(self):
        rho = DensityMatrix(np.diag([1.001, -0.001]))
        with pytest.raises(NotAStateError):
            von_neumann_entropy(rho)

    def test_displacement_invariance(self):
        rho = thermal_state(0.8, 64)
        d = displacement_operator(1.1 - 0.4j, 64)
        rotated = DensityMatrix(d @ rho.entries @ d.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-7

    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 2.0, 5.0])
    def test_thermal_entropy_matches_g(self, x):
        # thermal tail (x / (1 + x))^dim <= 1e-11, so the truncation cannot bias the check
        dim = max(60, math.ceil(math.log(1e-11) / math.log(x / (1.0 + x))))
        assert von_neumann_entropy(thermal_state(x, dim)) == pytest.approx(
            g_entropy(x), abs=1e-8
        )


class TestFidelityWithCoherent:
    def test_self_overlap(self):
        eta = 0.9 - 0.2j
        rho = projector(coherent_state(eta, 40))
        assert fidelity_with_coherent(rho, eta) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_against_unit_amplitude(self):
        rho = projector(number_state(0, 40))
        assert fidelity_with_coherent(rho, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_thermal_at_origin(self):
        # oracle: <0|rho|0> is the first diagonal entry, 1/(1+n_th)
        rho = thermal_state(0.5, 60)
        assert fidelity_with_coherent(rho, 0.0) == pytest.approx(
            rho.entries[0, 0].real, abs=1e-12
        )
        assert fidelity_with_coherent(rho, 0.0) == pytest.approx(1 / 1.5, abs=1e-9)

    def test_matched_displaced_thermal(self):
        # riding along with the displacement leaves the thermal core overlap
        dim = 60
        eta = 0.7 - 0.2j
        n_th = 0.3
        d = displacement_operator(eta, dim)
        rho = DensityMatrix(d @ thermal_state(n_th, dim).entries @ d.conj().T)
        assert fidelity_with_coherent(rho, eta) == pytest.approx(
            1.0 / (1.0 + n_th), abs=1e-8
        )


class TestTraceDistance:
    def test_identical_states(self):
        rho = thermal_state(0.4, 30)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        r0 = projector(number_state(0, 10))
        r1 = projector(number_state(1, 10))
        assert trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        r1 = projector(number_state(0, 40))
        r2 = thermal_state(0.1, 40)
        r3 = thermal_state(0.05, 40)
        d12 = trace_distance(r1, r2)
        assert 0.0 < d12 < 1.0
        assert d12 == pytest.approx(trace_distance(r2, r1), abs=1e-15)
        assert d12 <= trace_distance(r1, r3) + trace_distance(r3, r2) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(thermal_state(0.1, 10), thermal_state(0.1, 12))
        with pytest.raises(DimensionMismatchError):
            trace_distance(fock._coherent_projector(0.5, 10), fock._coherent_projector(0.5, 12))

    @staticmethod
    def _solver_dtypes(monkeypatch):
        solve = np.linalg.eigvalsh
        dtypes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: dtypes.append(mat.dtype) or solve(mat))
        return dtypes

    @pytest.mark.parametrize(
        "eta, shrink, n_th",
        [(0.9 - 1.3j, 0.93, 0.01), (2j, 0.5, 0.2), (-1.5, 0.1, 0.05), (1.1 * np.exp(2.1j), 0.7, 0.0)],
    )
    def test_shared_phases_take_the_real_route(self, monkeypatch, eta, shrink, n_th):
        # a coherent input and a closed-form output along the same direction:
        # their phases agree up to round-off
        dim = 40
        rho1 = fock._coherent_projector(eta, dim)
        rho2 = fock.displaced_thermal_state(eta * shrink, n_th, dim)
        mismatch = float(np.max(np.abs(
            fock._displacement_phases(rho1._alpha, dim) - fock._displacement_phases(rho2._alpha, dim)
        )))
        assert mismatch <= 4.0 * np.finfo(float).eps * dim
        expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho1.entries - rho2.entries)))
        dtypes = self._solver_dtypes(monkeypatch)
        assert abs(trace_distance(rho1, rho2) - expected) <= mismatch + 1e-14
        assert dtypes == [np.float64]

    def test_different_phases_take_the_complex_route(self, monkeypatch):
        # pure coherent states: 1 - |<a|b>|^2 = 1 - exp(-|a - b|^2)
        rho1 = fock._coherent_projector(1.0 + 0.2j, 30)
        rho2 = fock._coherent_projector(1.0 - 0.2j, 30)
        dtypes = self._solver_dtypes(monkeypatch)
        assert trace_distance(rho1, rho2) == pytest.approx(
            math.sqrt(-math.expm1(-0.16)), abs=1e-12
        )
        assert dtypes == [np.complex128]

    def test_states_without_a_real_part_take_the_complex_route(self, monkeypatch):
        rho = fock._coherent_projector(0.8 - 0.6j, 30)
        plain = projector(coherent_state(0.8 - 0.6j, 30))
        dtypes = self._solver_dtypes(monkeypatch)
        assert trace_distance(rho, plain) <= 1e-15
        assert trace_distance(thermal_state(0.2, 30), rho) > 0.5
        assert dtypes == [np.complex128, np.complex128]


    @staticmethod
    def _mismatched_pair(alpha1, alpha2, n_th, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return fock.displaced_thermal_state(alpha1, n_th, dim), fock._coherent_projector(alpha2, dim)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        r1=st.floats(0.1, 4.0),
        r2=st.floats(0.1, 4.0),
        phi1=st.floats(-math.pi, math.pi),
        turn=st.floats(0.01, 2.0 * math.pi - 0.01),
        n_th=st.floats(0.0, 2.0),
        dim=st.integers(2, 40),
    )
    def test_mismatched_frames_agree_with_the_entries(self, r1, r2, phi1, turn, n_th, dim):
        # the difference is read in the first frame, C1 - outer(delta, delta*) C2
        rho1, rho2 = self._mismatched_pair(
            r1 * np.exp(1j * phi1), r2 * np.exp(1j * (phi1 + turn)), n_th, dim
        )
        expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho1.entries - rho2.entries)))
        assert abs(trace_distance(rho1, rho2) - expected) <= 1e-14
        assert abs(trace_distance(rho2, rho1) - expected) <= 1e-14

    def test_mismatched_frames_form_no_entries(self, monkeypatch):
        formed = []
        form = DensityMatrix.entries.func
        counted = functools.cached_property(lambda rho: formed.append(rho.dim) or form(rho))
        counted.__set_name__(DensityMatrix, "entries")
        monkeypatch.setattr(DensityMatrix, "entries", counted)
        rho1, rho2 = self._mismatched_pair(1.0 + 0.2j, 1.0 - 0.2j, 0.1, 30)
        plain = projector(coherent_state(0.8 - 0.6j, 30))
        assert trace_distance(rho1, rho2) > 0.1
        assert trace_distance(rho2, plain) > 0.1
        assert formed == []

    @pytest.mark.parametrize(
        "build",
        [
            # two states given by their entries: their identity frames match, so
            # the cores are compared; half the trace norm is 0.25, one triangle 0.0
            lambda: (DensityMatrix([[0.5, 0.5], [0.0, 0.5]]), DensityMatrix(np.eye(2) / 2)),
            # framed states in one frame, one with an asymmetric core
            lambda: (
                DensityMatrix._framed(np.exp(0.7j), [[0.5, 1e-9], [0.0, 0.5]]),
                DensityMatrix._framed(np.exp(0.7j), np.eye(2) / 2),
            ),
            # frames that do not match: the entries are compared
            lambda: (DensityMatrix([[0.5, 0.5], [0.0, 0.5]]), fock._coherent_projector(0.5j, 2)),
        ],
        ids=["identity-frames", "one-frame", "different-frames"],
    )
    def test_a_non_hermitian_difference_is_refused(self, build):
        # the solver reads one triangle, so it would see a Hermitian matrix
        rho1, rho2 = build()
        with pytest.raises(NotAStateError, match="non-Hermitian difference"):
            trace_distance(rho1, rho2)

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    def test_identity_frames_compare_cores_bit_for_bit(self, eta):
        # a state given by its entries against one framed by eta >= 0, whose
        # phases are all 1: C1 - C2 equals the entries' difference bit for bit
        dim = 20
        plain = projector(coherent_state(eta, dim))
        framed = fock._coherent_projector(eta, dim)
        thermal = thermal_state(0.3, dim)
        for rho1, rho2 in [(plain, framed), (thermal, plain), (framed, thermal)]:
            expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho1.entries - rho2.entries)))
            assert trace_distance(rho1, rho2) == expected


class TestDensityMatrixType:
    def test_entries_read_only(self):
        rho = thermal_state(0.2, 12)
        assert not rho.entries.flags.writeable
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_non_square_rejected(self):
        with pytest.raises(InvalidDimensionError):
            DensityMatrix(np.zeros((3, 4)))

    def test_validate_flags_non_hermitian(self):
        mat = np.eye(3, dtype=complex) / 3.0
        mat[0, 1] = 1e-3
        with pytest.raises(NotAStateError):
            DensityMatrix(mat).validate()

    def test_validate_flags_bad_trace(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(3) / 2.0).validate()

    def test_validate_flags_a_negative_eigenvalue(self):
        with pytest.raises(NotAStateError, match="not positive semidefinite"):
            DensityMatrix(np.diag([1.001, -0.001])).validate()

    def test_validate_flags_a_negative_eigenvalue_of_a_framed_core(self):
        # the core is Hermitian with unit trace, and its determinant -2.5e-7
        # is its negative eigenvalue to first order
        rho = DensityMatrix._framed(0.7j, [[0.5005, 0.5], [0.5, 0.4995]])
        with pytest.raises(NotAStateError, match="not positive semidefinite"):
            rho.validate()

    def test_entropy_of_a_nan_state_is_refused_where_it_enters(self):
        # a NaN eigenvalue fails every comparison, so the entropy would read -0.0
        with pytest.raises(NotAStateError, match="NaN or infinite entry"):
            von_neumann_entropy(DensityMatrix(np.diag([np.nan, 1.0])))

    def test_trace_distance_to_a_nan_state_is_refused_where_it_enters(self):
        # eigvalsh of the difference would read 0.0 here
        with pytest.raises(NotAStateError, match="NaN or infinite entry"):
            trace_distance(DensityMatrix(np.diag([np.nan, 1.0])), DensityMatrix(np.eye(2) / 2))

    def test_projector_of_a_nan_vector_is_refused_where_it_enters(self):
        # the projector would be all NaN, with only a RuntimeWarning
        with pytest.raises(NotAStateError, match="NaN or infinite amplitude"):
            projector(StateVector(np.array([np.nan, 1.0])))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.nan), complex(0.5, np.inf)])
    def test_every_non_finite_value_is_refused(self, bad):
        with pytest.raises(NotAStateError, match="NaN or infinite"):
            DensityMatrix(np.array([[0.5, bad], [0.0, 0.5]]))
        with pytest.raises(NotAStateError, match="NaN or infinite"):
            StateVector(np.array([1.0, bad]))

    def test_constructor_outputs_pass_validation(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            eta = complex(rng.normal(), rng.normal()) * 0.7
            projector(coherent_state(eta, 40)).validate()


class TestSpectrum:
    def test_validate_and_entropy_share_one_eigensolve(self, monkeypatch):
        solve = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(1) or solve(mat))
        rho = projector(coherent_state(0.8 + 0.2j, 30))
        rho.validate()
        assert von_neumann_entropy(rho) < 1e-9
        assert len(calls) == 1
        assert rho.spectrum is rho.spectrum
        assert not rho.spectrum.flags.writeable
        assert np.array_equal(rho.spectrum, solve(rho.entries))

    @pytest.mark.parametrize(
        "entries, deviation",
        [
            (np.diag([0.5 + 0.3j, 0.5]), r"6\.000e-01"),
            ([[0.5, 0.2 + 0.1j], [0.2 + 0.1j, 0.5]], r"2\.000e-01"),
        ],
        ids=["diagonal", "off-diagonal"],
    )
    def test_the_spectrum_refuses_a_non_hermitian_core(self, entries, deviation):
        # both were read as Hermitian: the real diagonal gave 1.0 bit, one
        # triangle 0.850 bits
        with pytest.raises(NotAStateError, match=f"non-Hermitian matrix: max deviation {deviation}"):
            von_neumann_entropy(DensityMatrix(entries))

    def test_the_spectrum_reads_any_core_evolve_accepts(self):
        # a deviation of 5e-11 passes `evolve`'s Hermiticity check, so its
        # spectrum is read as well; one just past the spectrum's tier is
        # refused by `evolve` and `lindblad_rhs` alike
        too_far = np.array(projector(coherent_state(0.5, 20)).entries)
        too_far[0, 1] += 2.0 * fock._SPECTRUM_HERM_TOL
        params = bmc.ChannelParams(gamma=0.1, beta_rate=0.01)
        refused = r"not Hermitian: max deviation 2\.000e-10 > 1\.0e-10"
        with pytest.raises(NotAStateError, match=refused):
            bmc.evolve(DensityMatrix(too_far), params, 0.5)
        with pytest.raises(NotAStateError, match=refused):
            bmc.lindblad_rhs(DensityMatrix(too_far), params)
        mat = np.array(projector(coherent_state(0.5, 20)).entries)
        mat[0, 1] += 5e-11
        rho = DensityMatrix(mat)
        assert von_neumann_entropy(rho) < 1e-9
        out = bmc.evolve(rho, params, 0.5)
        assert von_neumann_entropy(out) > 0.0

    @pytest.mark.parametrize(
        "diagonal",
        [
            np.diag(thermal_state(0.7, 40).entries),
            np.array([0.5, 0.1, 0.4, 0.0]),
            np.array([0.25, 1e-17, 0.75]) + 1e-11j,
            np.array([1.001, -0.001]),
        ],
    )
    def test_diagonal_fast_path_equals_eigvalsh(self, monkeypatch, diagonal):
        solve = np.linalg.eigvalsh
        mat = np.diag(diagonal)
        expected = solve(mat)

        def no_solver(_):
            raise AssertionError("an exactly diagonal matrix reached the solver")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
        assert np.array_equal(DensityMatrix(mat).spectrum, expected)

    @pytest.mark.parametrize("dim", [20, 175, 400])
    def test_displaced_thermal_state_makes_no_eigensolve(self, monkeypatch, dim):
        def no_solver(_):
            raise AssertionError("a displaced thermal state reached the solver")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", no_solver)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                alpha = 0.3 * math.sqrt(dim) * np.exp(2.5j)
                rho = fock.displaced_thermal_state(alpha, 0.4, dim)
            rho.validate()
            von_neumann_entropy(rho)
        assert np.max(np.abs(rho.spectrum - np.linalg.eigvalsh(rho.entries))) <= 1e-13

    @pytest.mark.parametrize("eta, dim", [(0, 10), (0.5, 20), (1 + 1j, 30), (-2j, 40), (3.0, 60)])
    def test_coherent_projector_makes_no_eigensolve(self, monkeypatch, eta, dim):
        def no_solver(_):
            raise AssertionError("a coherent projector reached the solver")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", no_solver)
            rho = fock._coherent_projector(eta, dim)
            rho.validate()
            von_neumann_entropy(rho)
        assert not rho.spectrum.flags.writeable
        assert np.count_nonzero(rho.spectrum[:-1]) == 0
        assert np.max(np.abs(rho.spectrum - np.linalg.eigvalsh(rho._core))) <= 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        r=st.floats(1e-3, 7.0),
        phi=st.floats(-math.pi, math.pi),
        # small occupations drop every level past a few dozen
        n_th=st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 2.0)),
        dim=st.integers(2, 400),
    )
    @example(r=7.0, phi=0.3, n_th=0.0, dim=400)
    @example(r=2.0, phi=-2.0, n_th=0.3, dim=300)
    @example(r=0.5, phi=1.0, n_th=2.0, dim=2)
    def test_constructed_spectrum_is_the_eigenvalues_of_the_core(self, r, phi, n_th, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            rho = fock.displaced_thermal_state(r * np.exp(1j * phi), n_th, dim)
        spectrum = rho.spectrum
        assert spectrum.shape == (dim,)
        assert not spectrum.flags.writeable
        assert np.all(np.diff(spectrum) >= 0.0)
        evals = np.linalg.eigvalsh(rho._core)
        assert np.max(np.abs(spectrum - evals)) <= 1e-13
        kept = evals[evals > 1e-14]
        entropy = float(-np.sum(kept * np.log2(kept)))
        assert von_neumann_entropy(rho) == pytest.approx(entropy, abs=1e-12)

    def test_phased_real_parts_agree_and_stay_read_only(self):
        rng = np.random.default_rng(11)
        real = rng.standard_normal((6, 6))
        real = real + real.T
        alpha = 0.8 * np.exp(2.2j)
        phases = fock._displacement_phases(alpha, 6)
        rho = DensityMatrix._framed(alpha, real)
        assert np.array_equal(rho.entries, real * np.outer(phases, phases.conj()))
        assert not rho._core.flags.writeable and not rho.entries.flags.writeable
        # the state takes the caller's array, with no copy, and locks it
        assert rho._core is real and not real.flags.writeable

    def test_framed_entries_are_formed_on_first_read(self):
        rng = np.random.default_rng(5)
        real = rng.standard_normal((7, 7))
        real = real + real.T
        rho = DensityMatrix._framed(1.3 * np.exp(-0.4j), real)
        phases = fock._displacement_phases(rho._alpha, 7)
        assert "entries" not in vars(rho)
        entries = rho.entries
        assert np.array_equal(entries, rho._core * np.outer(phases, phases.conj()))
        assert not entries.flags.writeable
        assert rho.entries is entries

    def test_a_spectrum_passed_to_framed_is_the_one_read(self, monkeypatch):
        solve = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(1) or solve(mat))
        # the core's own eigenvalues are 0 and 1; the passed ones are read instead
        core = np.full((2, 2), 0.5)
        spectrum = np.array([0.25, 0.75])
        rho = DensityMatrix._framed(0.3 - 0.4j, core, spectrum)
        assert rho.spectrum is spectrum and not spectrum.flags.writeable
        assert rho.validate() is rho
        assert von_neumann_entropy(rho) == pytest.approx(
            -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75), abs=1e-15
        )
        negative = DensityMatrix._framed(0.3 - 0.4j, core, np.array([-0.1, 1.1]))
        with pytest.raises(NotAStateError, match=r"min eigenvalue -1\.000e-01"):
            negative.validate()
        assert calls == []

    def test_with_core_keeps_the_frame(self):
        # a state given by its entries; a thermal state's core is real
        rho = DensityMatrix(thermal_state(0.1, 8).entries)
        assert rho._core is rho.entries and rho._alpha == 0
        moved = rho._with_core(np.diag(np.arange(8.0)))
        assert moved._alpha == 0 and moved.entries.dtype == np.complex128
        framed = fock._coherent_projector(0.5 - 0.5j, 8)
        real = np.array(framed._core)
        again = framed._with_core(real)
        assert np.array_equal(again.entries, framed.entries) and again._alpha == framed._alpha
        assert again._core is real and not real.flags.writeable  # taken, not copied

    def test_phased_real_state_with_asymmetric_real_part_is_not_hermitian(self):
        real = np.diag([0.5, 0.3, 0.2])
        real[0, 1] = 1e-9
        rho = DensityMatrix._framed(np.exp(0.7j), real)
        with pytest.raises(NotAStateError, match=r"not Hermitian: max deviation 1\.000e-09"):
            rho.validate()

    def test_off_diagonal_entry_takes_the_solver(self):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = mat[1, 0] = 0.5
        assert np.allclose(DensityMatrix(mat).spectrum, [0.0, 1.0], atol=1e-15)


class TestFieldAmplitude:
    def test_coherent_amplitude_recovered(self):
        eta = 0.6 + 0.4j
        rho = projector(coherent_state(eta, 40))
        assert field_amplitude(rho) == pytest.approx(eta, abs=1e-9)

    def test_thermal_has_no_field(self):
        assert field_amplitude(thermal_state(0.7, 40)) == pytest.approx(0.0, abs=1e-15)


class TestReadersReadTheCore:
    """`mean_photon_number`, `field_amplitude` and `fidelity_with_coherent`
    read a state's core and phases, never its complex entries."""

    @staticmethod
    def _states(alpha, n_th, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            framed = fock.displaced_thermal_state(alpha, n_th, dim)
            given = DensityMatrix(fock.displaced_thermal_state(alpha, n_th, dim).entries)
            projected = fock._coherent_projector(alpha, dim)
            thermal = thermal_state(n_th, dim)
        return framed, projected, thermal, given

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        alpha=st.complex_numbers(max_magnitude=4.0),
        eta=st.complex_numbers(max_magnitude=4.0),
        n_th=st.floats(0.0, 2.0),
        dim=st.integers(2, 40),
    )
    def test_readers_agree_with_the_entries_and_form_none(self, alpha, eta, n_th, dim):
        states = self._states(alpha, n_th, dim)
        entries = DensityMatrix.__dict__["entries"]
        formed = []

        def counted(rho):
            formed.append(rho.dim)
            return entries.func(rho)

        counting = functools.cached_property(counted)
        counting.__set_name__(DensityMatrix, "entries")
        with mock.patch.object(DensityMatrix, "entries", counting), warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            read = [
                (mean_photon_number(rho), field_amplitude(rho), fidelity_with_coherent(rho, eta))
                for rho in states
            ]
        assert formed == []
        # Each reader sums terms that may cancel, so it is compared to 1e-15
        # of the sum of their moduli, which is the value where none cancel;
        # `tiny` admits the coarser rounding of subnormal values.
        amps = fock._coherent_amplitudes(eta, dim)
        levels, tiny = np.arange(dim), 1e-300
        for rho, (mean, field, fidelity) in zip(states, read):
            mat = rho.entries
            diag = np.real(np.diagonal(mat))
            assert abs(mean - diag @ levels) <= 1e-15 * (np.abs(diag) @ levels) + tiny
            terms = np.sqrt(levels[1:]) * np.diagonal(mat, offset=-1)
            assert abs(field - np.sum(terms)) <= 1e-15 * np.sum(np.abs(terms)) + tiny
            value = complex(np.vdot(amps, mat @ amps)).real
            scale = np.abs(amps) @ np.abs(mat) @ np.abs(amps)
            assert abs(fidelity - value) <= 1e-15 * scale + tiny


class TestTruncationReport:
    @pytest.mark.parametrize(
        "build, messages",
        [
            (
                lambda: displacement_operator(3.0, 10),
                ["displacement by (3+0j) loses weight 4.126e-01 at dim=10; suggest dim >= 30"],
            ),
            (
                lambda: fidelity_with_coherent(thermal_state(0.1, 20), 4.0),
                ["fidelity with |4.0> loses weight 1.878e-01 at dim=20; suggest dim >= 42"],
            ),
            (
                lambda: thermal_state(0.5, 10),
                ["thermal state with 0.5 photons loses weight 1.694e-05 at dim=10; "
                 "suggest dim >= 14"],
            ),
            # one report, on the weight the displaced state itself loses
            (
                lambda: fock.displaced_thermal_state(3.0, 0.5, 10),
                [
                    "thermal state with 0.5 photons displaced by (3+0j) loses weight "
                    "4.578e-01 at dim=10; suggest dim >= 46",
                ],
            ),
        ],
        ids=["displacement_operator", "fidelity_with_coherent", "thermal_state",
             "displaced_thermal_state"],
    )
    def test_one_message_shape(self, build, messages):
        with pytest.warns(TruncationWarning) as record:
            build()
        assert [str(w.message) for w in record] == messages

    def test_reports_a_loss_above_the_tolerance_only(self, monkeypatch):
        # the bound lets every weight through, and the weight is set by hand
        weight = [fock.COHERENT_LOSS_TOL]
        monkeypatch.setattr(fock, "_poisson_tail_bound", lambda x, dim, n_th: 1.0)
        monkeypatch.setattr(fock, "_tail_weight", lambda x, dim, n_th: weight[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            fock._check_truncation("state", 0.0, 0.0, 10)
        weight[0] = math.nextafter(fock.COHERENT_LOSS_TOL, 1.0)
        with pytest.warns(TruncationWarning, match="state loses weight"):
            fock._check_truncation("state", 0.0, 0.0, 10)
        with pytest.raises(ValueError, match=r"^state loses weight 1\.000e-06 at dim=10; suggest"):
            fock._check_truncation("state", 0.0, 0.0, 10, ValueError)

    def test_the_label_is_formatted_only_when_the_report_fires(self):
        class Unformattable(complex):
            def __format__(self, spec):
                raise AssertionError("a label no report uses was formatted")

        # |0.5> loses 1e-14 at 10 levels, a thermal state with 0.5 photons 1.7e-5
        fock._check_truncation("state {0}", Unformattable(0.5), 0.0, 10)
        with pytest.warns(TruncationWarning, match=r"^state with 0\.5 photons loses weight"):
            fock._check_truncation("state with {1:.4g} photons", 0.0, 0.5, 10)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: coherent_state(3.0, 10),
            lambda: displacement_operator(3.0, 10),
            lambda: fock.displaced_thermal_state(3.0, 0.5, 10),
            lambda: thermal_state(5.0, 10),
            lambda: fidelity_with_coherent(thermal_state(0.1, 20), 4.0),
            lambda: analytic.to_density_matrix(analytic.GaussianChannelState(3.0, 0.5), 10),
        ],
        ids=[
            "coherent_state",
            "displacement_operator",
            "displaced_thermal_state",
            "thermal_state",
            "fidelity_with_coherent",
            "to_density_matrix",
        ],
    )
    def test_warnings_point_at_the_caller(self, build):
        with pytest.warns(TruncationWarning) as record:
            build()
        assert [w.filename for w in record] == [__file__] * len(record)


def _thermal_rule(n_th):
    # the smallest dim >= 2 with r^dim <= 1e-9, r = n_th / (1 + n_th)
    return max(2, math.ceil(-math.log(1e-9) / math.log1p(1 / n_th))) if n_th else 2


class TestTruncationHelpers:
    def test_suggested_dim_bounds_a_thermal_tail(self):
        n_th = 2.0
        dim = analytic.suggested_dim(analytic.GaussianChannelState(0, n_th))
        ratio = n_th / (1.0 + n_th)
        assert ratio**dim <= 1e-9 < ratio ** (dim - 2)

    @pytest.mark.parametrize("n_th", [0.0, 0.3, 2.0, 1e3, 1e8, 1e15, 1e40, 1e100, 1e150])
    @pytest.mark.parametrize("alpha", [0, 0.5, 3.0 - 4.0j, 1e6, 1e20, 1e70j])
    def test_suggested_dim_across_scales(self, alpha, n_th):
        # the smallest dim whose bound on the lost weight is at most 1e-9; a
        # typed error where the bound's terms, up to 5 dim (1 + n_th) (1 + x),
        # leave float range before it gets there
        x = abs(alpha) ** 2
        state = analytic.GaussianChannelState(alpha, n_th)
        if (1.0 + x) * (1.0 + n_th) * (x + n_th) > 1e305:
            with pytest.raises(InvalidParameterError, match="within float range"):
                analytic.suggested_dim(state)
            return
        dim = analytic.suggested_dim(state)
        if not x:
            assert dim == _thermal_rule(n_th)
        else:
            bound = functools.partial(fock._poisson_tail_bound, x, n_th=n_th)
            assert bound(dim) <= 1e-9 < bound(dim - 1)

    @pytest.mark.parametrize(
        "alpha, n_th, finite",
        [(0, 1e155, True), (0, 1e200, True), (0, 1e308, False), (2.0, 1e250, False),
         (1e100, 1e160, False), (1e150, 1e10, False), (1.0, 1.34e154, False),
         (1e154, 1e308, False)],
    )
    def test_suggested_dim_past_the_variance_overflow(self, alpha, n_th, finite):
        # the photon-number variance overflows past about 1.3e154 photons; a
        # thermal state's dimension stays a closed form while it is a double,
        # and a displaced state's bound has left float range
        state = analytic.GaussianChannelState(alpha, n_th)
        if finite:
            dim = analytic.suggested_dim(state)
            assert dim == _thermal_rule(n_th) and math.isfinite(float(dim))
        else:
            with pytest.raises(InvalidParameterError, match="within float range"):
                analytic.suggested_dim(state)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is a test-only reference
    env = dict(os.environ, PYTHONPATH=str(Path(bmc.__file__).resolve().parents[1]))
    code = "import bmc, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_module_emits_no_warnings_for_adequate_dims():
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        coherent_state(1.0, 40)
        displacement_operator(0.5, 40)
        fidelity_with_coherent(thermal_state(0.2, 40), 0.5)
