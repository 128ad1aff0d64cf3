import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import bmc
from bmc import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    NotAStateError,
    TruncationWarning,
    coherent_state,
    coherent_truncation_loss,
    displacement_operator,
    fidelity_with_coherent,
    field_amplitude,
    g_entropy,
    mean_photon_number,
    number_state,
    projector,
    suggested_dim,
    thermal_state,
    thermal_tail_dim,
    trace_distance,
    von_neumann_entropy,
)
from bmc import fock
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
        assert coherent_truncation_loss(2.0, 5) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "eta, dim",
        [(0.1, 2), (0.5, 5), (1 + 1j, 10), (2.0, 20), (3 - 4j, 50), (7.0, 100),
         (10j, 175), (20.0, 400), (26.0, 700), (31.6, 1300)],
    )
    def test_loss_is_the_poisson_tail(self, eta, dim):
        # weight beyond dim-1 of a Poisson law of mean |eta|^2, in 50 digits
        with mpmath.workdps(50):
            x = mpmath.mpf(abs(eta)) ** 2
            tail = 1 - mpmath.exp(-x) * mpmath.fsum(x**n / mpmath.factorial(n) for n in range(dim))
        assert abs(coherent_truncation_loss(eta, dim) - float(tail)) <= 1e-14

    @pytest.mark.parametrize("eta", [math.nan, math.inf, complex(0.5, math.nan), -math.inf])
    def test_nonfinite_amplitude_rejected(self, eta):
        # max(0.0, nan) is 0.0, so a NaN amplitude would otherwise report no loss
        with pytest.raises(InvalidParameterError, match="finite"):
            coherent_truncation_loss(eta, 10)
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
            built = fock._real_displacement(r, dim)
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
        with pytest.warns(TruncationWarning, match="displacement by"):
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
        # r^dim = (5/6)^10 = 0.16 of the weight is dropped; the mean reads 3.07
        with pytest.warns(TruncationWarning, match=f"suggest dim >= {thermal_tail_dim(5.0)}"):
            rho = thermal_state(5.0, 10)
        assert mean_photon_number(rho) == pytest.approx(3.07, abs=0.01)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = projector(coherent_state(0.8, 40))
        assert von_neumann_entropy(rho) < 1e-9

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
        "diagonal",
        [
            np.diag(thermal_state(0.7, 40).entries),
            np.array([0.5, 0.1, 0.4, 0.0]),
            np.array([0.25, 1e-17, 0.75]) + 1e-3j,
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
    def test_phased_real_state_solves_its_real_part_once(self, monkeypatch, dim):
        solve = np.linalg.eigvalsh
        arguments = []
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda mat: arguments.append(mat) or solve(mat)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            alpha = 0.3 * math.sqrt(dim) * np.exp(2.5j)
            rho = fock.displaced_thermal_state(alpha, 0.4, dim)
        rho.validate()
        von_neumann_entropy(rho)
        assert len(arguments) == 1
        assert arguments[0].dtype == np.float64
        assert np.max(np.abs(rho.spectrum - solve(rho.entries))) <= 1e-13

    def test_phased_real_parts_agree_and_stay_read_only(self):
        rng = np.random.default_rng(11)
        real = rng.standard_normal((6, 6))
        real = real + real.T
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, 6))
        rho = DensityMatrix._from_phased_real(phases, real)
        assert np.array_equal(rho.entries, real * np.outer(phases, phases.conj()))
        assert not rho._real.flags.writeable and not rho.entries.flags.writeable
        real[0, 0] = 99.0  # the caller's array is copied
        assert rho._real[0, 0] != 99.0
        with pytest.raises(InvalidParameterError, match="unit modulus"):
            DensityMatrix._from_phased_real(1.01 * phases, real)

    def test_phased_real_state_with_asymmetric_real_part_is_not_hermitian(self):
        real = np.diag([0.5, 0.3, 0.2])
        real[0, 1] = 1e-9
        rho = DensityMatrix._from_phased_real(np.exp(1j * np.array([0.0, 0.7, 1.4])), real)
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


class TestTruncationHelpers:
    def test_suggested_dim_floor(self):
        assert suggested_dim(0.0, 0.0) == 18
        assert suggested_dim(4.0, 4.0) >= 4 + 8 * math.sqrt(5.0) + 10

    def test_thermal_tail_dim_bounds_tail(self):
        n_th = 2.0
        dim = thermal_tail_dim(n_th)
        ratio = n_th / (1.0 + n_th)
        assert ratio**dim <= 1e-9 < ratio ** (dim - 2)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            suggested_dim(-1.0, 0.0)


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
