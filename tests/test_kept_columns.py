"""A displaced thermal state from the displacement columns its weights keep.

`fock.displaced_thermal_state` builds only the first K columns of the real
displacement O(r), the ones whose thermal weight is kept, so a state costs
O(d^2 K) rather than O(d^3). Its truncation report forms the weight the state
loses only when an O(1) Chernoff bound cannot show that the loss is below the
tolerance. These tests pin both: the kept columns are those of the full
matrix, the screen never silences a report, and on the node set of a Holevo
quadrature no weight is formed and 16 columns are built per node.
"""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.laguerre import laggauss

from bmc import (
    ChannelParams,
    TruncationError,
    TruncationWarning,
    analytic,
    cli,
    coherent_state,
    coherent_truncation_loss,
    displacement_operator,
    fock,
    lindblad,
)
from bmc.fock import COHERENT_LOSS_TOL

REF = ChannelParams(gamma=0.1, beta_rate=0.01)


class _Integrated(Exception):
    """Raised in place of integrating a trajectory."""


class TestKeptColumns:
    @pytest.mark.parametrize("dim", [2, 3, 20, 51, 174])
    @pytest.mark.parametrize("r", [0.3, 1.7, 4.0])
    def test_kept_columns_are_the_first_columns_of_the_full_matrix(self, dim, r):
        full = fock._real_displacement(r, dim, dim)
        for cols in sorted({1, 2, dim}):
            kept = fock._real_displacement(r, dim, cols)
            assert kept.shape == (dim, cols) and kept.dtype == np.float64
            assert np.max(np.abs(kept - full[:, :cols])) <= 1e-15, cols
            assert np.max(np.abs(kept.T @ kept - np.eye(cols))) <= 1e-14, cols

    def test_the_state_is_built_from_the_kept_columns(self):
        # R = O_K diag(w_K) O_K^T over its trace, with K the weights above
        # eps^2 of the first: within round-off of the full product, and its
        # spectrum bit-equal to the sorted, zero-padded kept weights
        alpha, n_th, dim = 1.2 - 0.7j, 0.4, 60
        rho = fock.displaced_thermal_state(alpha, n_th, dim)
        ratio = n_th / (1.0 + n_th)
        weights = (1.0 / (1.0 + n_th)) * ratio ** np.arange(dim)
        weights /= weights.sum()
        kept = weights > fock._NEGLIGIBLE_WEIGHT * weights.max()
        assert 1 < np.count_nonzero(kept) < dim
        full = fock._real_displacement(abs(alpha), dim, dim)
        real = (full * np.where(kept, weights, 0.0)) @ full.T
        assert np.max(np.abs(rho._core - real / np.trace(real))) <= 1e-15
        columns = fock._real_displacement(abs(alpha), dim, np.count_nonzero(kept))
        trace = np.trace((columns * weights[kept]) @ columns.T)
        assert np.array_equal(rho.spectrum, np.sort(np.where(kept, weights / trace, 0.0)))

    @pytest.mark.parametrize("alpha", [1e-200, -1e-200j, 5e-324])
    def test_an_amplitude_whose_square_underflows_builds_a_state(self, alpha):
        # |alpha|^2 is 0 while alpha is not: the screen leaves it to the exact sum
        assert abs(alpha) ** 2 == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            rho = fock.displaced_thermal_state(alpha, 0.3, 20)
            shift = displacement_operator(alpha, 20)
        assert rho.validate() is rho
        assert np.max(np.abs(shift - np.eye(20))) <= 1e-14


class TestDisplacementScreen:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 150),
        share=st.floats(0.0, 2.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_the_screen_silences_no_report(self, dim, share, phase):
        # |alpha|^2 = share * dim spans both sides of the tolerance at every dim
        alpha = math.sqrt(share * dim) * complex(math.cos(phase), math.sin(phase))
        loss = coherent_truncation_loss(alpha, dim)
        # the bound is on the exact tail; the summed loss carries about dim * eps
        assert fock._poisson_tail_bound(abs(alpha) ** 2, dim) >= loss - dim * np.finfo(float).eps
        fires = loss > COHERENT_LOSS_TOL
        report = (
            f" loses weight {loss:.3e} at dim={dim}; "
            f"suggest dim >= {fock._displaced_thermal_dim(alpha, 0.0)}"
        )
        vacuum = fock.thermal_state(0.0, dim)
        built = {}
        for label, build in (
            (f"displacement by {complex(alpha)}", lambda: displacement_operator(alpha, dim)),
            (
                f"displacement by {complex(alpha)}",
                lambda: fock.displaced_thermal_state(alpha, 0.0, dim),
            ),
            (f"coherent state |{alpha}>", lambda: coherent_state(alpha, dim)),
            (f"fidelity with |{alpha}>", lambda: fock.fidelity_with_coherent(vacuum, alpha)),
        ):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always", TruncationWarning)
                built[label] = build()
            fired = [str(w.message) for w in record if w.category is TruncationWarning]
            assert fired == ([label + report] if fires else [])
        # the state carries the weight its report names
        assert built[f"coherent state |{alpha}>"].truncation_loss == loss
        # the oracle's input check raises where the builders warn; past it the
        # trajectory would be integrated, which is left out here
        with mock.patch.object(lindblad, "evolve_trajectory", side_effect=_Integrated):
            with pytest.raises(TruncationError if fires else _Integrated) as info:
                cli.run_validation(REF, etas=(alpha,), times=(1.0,), dim=dim)
        if fires:
            assert str(info.value) == f"input |{complex(alpha)}>" + report

    @pytest.mark.parametrize("dim", [2, 3, 5, 10, 30, 60])
    @pytest.mark.parametrize("share", [1e-300, 1e-6, 0.1, 0.5, 0.9, 0.999])
    def test_the_bound_is_at_least_the_exact_tail(self, dim, share):
        x = share * dim
        with mpmath.workdps(50):
            mx = mpmath.mpf(x)
            mass = (mpmath.exp(-mx) * mx**n / mpmath.factorial(n) for n in range(dim))
            tail = 1 - mpmath.fsum(mass)
        assert fock._poisson_tail_bound(x, dim) >= float(tail)

    @pytest.mark.parametrize("x, dim", [(0.0, 10), (10.0, 10), (25.0, 10), (math.inf, 10)])
    def test_outside_its_range_the_bound_is_one(self, x, dim):
        assert fock._poisson_tail_bound(x, dim) == 1.0

    def test_the_exact_weight_is_formed_only_past_half_the_tolerance(self, monkeypatch):
        bound, weight, formed = [0.5 * COHERENT_LOSS_TOL], [2.0 * COHERENT_LOSS_TOL], []
        monkeypatch.setattr(fock, "_poisson_tail_bound", lambda x, dim, n_th: bound[0])
        monkeypatch.setattr(
            fock, "_tail_weight", lambda x, dim, n_th: formed.append(dim) or weight[0]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            fock._check_truncation("state", 0.0, 0.0, 10)
        assert formed == []
        bound[0] = math.nextafter(0.5 * COHERENT_LOSS_TOL, 1.0)
        with pytest.warns(TruncationWarning, match=r"^state loses weight 2\.000e-06 at dim=10"):
            fock._check_truncation("state", 0.0, 0.0, 10)
        assert formed == [10]
        # the exact weight, not the bound, decides
        bound[0], weight[0] = 1.0, COHERENT_LOSS_TOL
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            fock._check_truncation("state", 0.0, 0.0, 10)


def test_holevo_quadrature_nodes_sum_no_poisson_mass_and_keep_16_columns(monkeypatch):
    # The node set of the Holevo quadrature: the reference channel at t = 1,
    # 16 Gauss-Laguerre nodes over |eta|^2 for n_bar in each quarter of [1, 2].
    # The bound clears every state, so no exact weight is formed either.
    params = ChannelParams(gamma=0.1, beta_rate=0.01)
    nodes, _ = laggauss(16)
    rng = np.random.default_rng(1)
    masses, columns, formed = [], [], []
    poisson_mass, real_displacement = fock._poisson_mass, fock._real_displacement
    displaced_thermal_loss = fock._displaced_thermal_loss
    monkeypatch.setattr(
        fock, "_poisson_mass", lambda x, dim: masses.append(dim) or poisson_mass(x, dim)
    )
    monkeypatch.setattr(
        fock, "_displaced_thermal_loss",
        lambda x, n_th, dim: formed.append(dim) or displaced_thermal_loss(x, n_th, dim),
    )
    monkeypatch.setattr(
        fock, "_real_displacement",
        lambda r, dim, cols: columns.append(cols) or real_displacement(r, dim, cols),
    )
    dims = []
    for n_bar in (1.125, 1.375, 1.625, 1.875):
        for u in nodes:
            eta = math.sqrt(n_bar * u) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            state = analytic.evolve_coherent_analytic(eta, params, 1.0)
            dims.append(analytic.suggested_dim(state))
            analytic.to_density_matrix(state, dims[-1])
    assert masses == [] and formed == []
    assert columns == [16] * 64
    assert min(dims) < 25 and max(dims) > 150
