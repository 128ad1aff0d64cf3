"""One truncation rule for a built state: the weight the state itself loses.

`fock.displaced_thermal_state`, thermal states included, makes one truncation
report. It compares the weight D(alpha) thermal(n_th) D+(alpha) puts at
n >= dim with COHERENT_LOSS_TOL, and forms that weight only when its O(1)
Chernoff bound does not already clear it. `analytic.to_density_matrix` adds
no report of its own. These tests pin the rule against a 50-digit mpmath
tail, the bound against the same tail, and the cases where the old
per-component reports and the old moment heuristic disagreed with it.
"""

import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmc import TruncationWarning, analytic, fock
from bmc.fock import COHERENT_LOSS_TOL

EPS = np.finfo(float).eps


def mp_tail(x: float, n_th: float, dim: int) -> float:
    """Weight at n >= dim of D(alpha) thermal(n_th) D+(alpha), x = |alpha|^2,
    to 50 digits: P(n) = e^{-x / (1 + n_th)} q_n / (1 + n_th) with
    q_n = r^n L_n(-x / (n_th r)), summed past dim while the terms matter, or
    one minus the head where r >= 0.9 and the tail is large."""
    with mpmath.workdps(50):
        x, n = mpmath.mpf(x), mpmath.mpf(n_th)
        r, c = n / (1 + n), x / (1 + n) ** 2
        prefactor = mpmath.exp(-x / (1 + n)) / (1 + n)
        head = tail = prev = 0
        q, k = mpmath.mpf(1), 0
        while k < dim or (r < 0.9 and (k < x + n + 10 or q > 1e-45 * tail)):
            if k < dim:
                head += q
            else:
                tail += q
            prev, q, k = q, ((r * (2 * k + 1) + c) * q - r * r * k * prev) / (k + 1), k + 1
        return float(prefactor * tail if r < 0.9 else 1 - prefactor * head)


def _reports(build) -> list[str]:
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", TruncationWarning)
        build()
    return [str(w.message) for w in record if w.category is TruncationWarning]


class TestOneRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        modulus=st.floats(0.0, 6.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        n_th=st.floats(0.0, 5.0),
        dim=st.integers(2, 80),
    )
    @example(modulus=3.0, phase=0.0, n_th=0.5, dim=27)
    @example(modulus=0.0, phase=0.0, n_th=5.0, dim=70)
    @example(modulus=5.0, phase=0.0, n_th=0.0, dim=50)
    def test_warns_once_exactly_where_the_state_loses_weight(self, modulus, phase, n_th, dim):
        alpha = modulus * complex(math.cos(phase), math.sin(phase))
        tail = mp_tail(abs(alpha) ** 2, n_th, dim)
        fired = _reports(lambda: fock.displaced_thermal_state(alpha, n_th, dim))
        if abs(tail - COHERENT_LOSS_TOL) <= dim * EPS:
            return  # within the rounding of the formed weight
        if tail <= COHERENT_LOSS_TOL:
            assert fired == []
            return
        assert len(fired) == 1
        named = float(re.search(r"loses weight (\S+) at dim=", fired[0]).group(1))
        assert abs(named - tail) <= 5e-4 * tail  # the weight to 4 printed digits
        label = (
            f"thermal state with {n_th:.4g} photons" if not alpha
            else f"displacement by {alpha}" if not n_th
            else f"thermal state with {n_th:.4g} photons displaced by {alpha}"
        )
        assert fired[0].startswith(f"{label} loses weight ")
        # the dimension rule at half the tolerance, checked by TestDimensionRule
        suggested = fock._tail_dim(abs(alpha) ** 2, n_th, 0.5 * COHERENT_LOSS_TOL)
        assert fired[0].endswith(f" at dim={dim}; suggest dim >= {suggested}")

    @pytest.mark.parametrize("n_th", [1e-300, 1e-6, 0.1, 0.5, 2.0, 5.0, 1e300])
    @pytest.mark.parametrize("dim", [2, 3, 10, 30, 60])
    @pytest.mark.parametrize("share", [0.0, 1e-300, 1e-6, 0.1, 0.5, 0.9])
    def test_the_bound_is_at_least_the_exact_tail(self, n_th, dim, share):
        x = share * dim
        assert fock._poisson_tail_bound(x, dim, n_th) >= mp_tail(x, n_th, dim)

    @pytest.mark.parametrize(
        "alpha, n_th, dim, weight",
        # the four cases checked against a 50-digit sum when the rule was set
        [(3, 0.5, 27, 1.05283e-3), (2, 1, 20, 3.04221e-3), (1 + 1j, 2, 35, 5.50523e-5),
         (3, 0.5, 41, 6.16048e-7)],
    )
    def test_the_formed_weight_is_the_tail(self, alpha, n_th, dim, weight):
        x = abs(alpha) ** 2
        assert fock._displaced_thermal_loss(x, n_th, dim) == pytest.approx(weight, rel=1e-5)
        assert fock._displaced_thermal_loss(x, n_th, dim) == pytest.approx(
            mp_tail(x, n_th, dim), rel=1e-9
        )

    @pytest.mark.parametrize(
        "alpha, n_th, dim",
        # the moment heuristic asked for 56, 76 and 114 levels here, but the
        # exact tails are 5.8e-8, 2.1e-9 and 1.2e-8
        [(3.0, 0.5, 45), (5.0, 0.0, 60), (0.0, 5.0, 100)],
    )
    def test_silent_where_nothing_reportable_is_lost(self, alpha, n_th, dim):
        assert mp_tail(abs(alpha) ** 2, n_th, dim) < COHERENT_LOSS_TOL
        state = analytic.GaussianChannelState(alpha, n_th)
        assert _reports(lambda: analytic.to_density_matrix(state, dim)) == []
        assert _reports(lambda: fock.displaced_thermal_state(alpha, n_th, dim)) == []

    def test_one_decision_per_state(self, monkeypatch):
        checks = []
        check = fock._check_truncation
        monkeypatch.setattr(
            fock, "_check_truncation", lambda *a, **kw: checks.append(a[0]) or check(*a, **kw)
        )
        for alpha, n_th in [(0.0, 0.7), (1.5, 0.0), (1.5 - 0.5j, 0.7)]:
            analytic.to_density_matrix(analytic.GaussianChannelState(alpha, n_th), 60)
        assert len(checks) == 3


def _bound(x: float, n_th: float, dim: int) -> float:
    # the O(1) bound `fock._tail_dim` meets: the thermal tail r^dim itself at x = 0
    return (n_th / (1.0 + n_th)) ** dim if not x else fock._poisson_tail_bound(x, dim, n_th)


class TestDimensionRule:
    # Every truncation dimension bmc suggests is the smallest d >= 2 at which
    # the state's O(1) bound on the weight it loses meets a tolerance:
    # `analytic.suggested_dim` at 1e-9, a report at COHERENT_LOSS_TOL / 2.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        modulus=st.floats(0.0, 12.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        n_th=st.floats(0.0, 100.0),
        tol=st.sampled_from([5e-7, 1e-9, 1e-10]),
    )
    # the moment rule once suggested 116, 247, 661 and 1990 levels here, at
    # which the state itself warned
    @example(modulus=3.0, phase=0.0, n_th=5.0, tol=1e-9)
    @example(modulus=5.0, phase=0.0, n_th=10.0, tol=1e-9)
    @example(modulus=8.0, phase=0.0, n_th=30.0, tol=1e-9)
    @example(modulus=12.0, phase=0.0, n_th=95.52, tol=1e-9)
    @example(modulus=0.0, phase=0.0, n_th=0.0, tol=1e-9)
    def test_the_smallest_dim_whose_bound_meets_the_tolerance(self, modulus, phase, n_th, tol):
        alpha = modulus * complex(math.cos(phase), math.sin(phase))
        x = abs(alpha) ** 2
        dim = fock._tail_dim(x, n_th, tol)
        assert mp_tail(x, n_th, dim) <= tol
        assert dim == 2 or _bound(x, n_th, dim - 1) > tol
        if tol != fock._TAIL_WEIGHT:
            return
        state = analytic.GaussianChannelState(alpha, n_th)
        assert analytic.suggested_dim(state) == dim
        if dim <= 400:
            build = functools.partial(analytic.to_density_matrix, state)
        else:
            # the same one decision (`test_one_decision_per_state`) without
            # building a state that takes up to seconds
            build = functools.partial(fock._check_truncation, "state", alpha, n_th)
        assert _reports(lambda: build(dim)) == []

    @pytest.mark.parametrize(
        "alpha, n_th, suggested, quiet",
        [(3.0, 5.0, 152, 197), (5.0, 10.0, 319, 409), (8.0, 30.0, 897, 1155),
         (12.0, 95.52, 2611, 3392)],
    )
    def test_a_report_suggests_a_silent_dim(self, alpha, n_th, suggested, quiet):
        state = analytic.GaussianChannelState(alpha, n_th)
        assert analytic.suggested_dim(state) == quiet
        (report,) = _reports(lambda: fock._check_truncation("state", alpha, n_th, 10))
        assert report.endswith(f" at dim=10; suggest dim >= {suggested}")
        assert mp_tail(alpha**2, n_th, suggested) <= 0.5 * COHERENT_LOSS_TOL
        assert _reports(lambda: fock._check_truncation("state", alpha, n_th, suggested)) == []

    def test_suggested_dim_at_zero_displacement_is_the_thermal_rule(self):
        for n_th in (0.0, 1e-300, 0.3, 2.0, 5.0, 99.33, 1e8, 1e16, 1e200):
            expected = 2 if not n_th else max(2, math.ceil(-math.log(1e-9) / math.log1p(1 / n_th)))
            dim = analytic.suggested_dim(analytic.GaussianChannelState(0, n_th))
            assert dim == fock._tail_dim(0.0, n_th, 1e-9) == expected

    @pytest.mark.parametrize(
        "x, n_th",
        # z - 1 is below eps here, so the bound forms w = z - 1 without z
        [(1.0, 5.6e14), (1.0, 2.25e15), (9.0, 2.8e14), (1.0, 1e16), (1e100, 1.0)],
    )
    def test_large_inputs_get_a_finite_dim(self, x, n_th):
        dim = fock._tail_dim(x, n_th, 1e-9)
        assert x + n_th < dim < math.inf
        assert fock._poisson_tail_bound(x, dim, n_th) <= 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        modulus=st.floats(0.0, 12.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        n_th=st.floats(0.0, 100.0),
    )
    @example(modulus=3.0, phase=0.0, n_th=5.0)
    @example(modulus=12.0, phase=0.0, n_th=95.52)
    def test_no_report_fires_at_its_own_suggestion(self, modulus, phase, n_th):
        alpha = modulus * complex(math.cos(phase), math.sin(phase))
        fired = _reports(lambda: fock._check_truncation("state", alpha, n_th, 1))
        if not fired:
            return  # nothing reportable beyond the vacuum
        suggested = int(re.search(r"suggest dim >= (\d+)$", fired[0]).group(1))
        assert _reports(lambda: fock._check_truncation("state", alpha, n_th, suggested)) == []
