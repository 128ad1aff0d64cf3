"""One truncation rule for a built state: the weight the state itself loses.

`fock.displaced_thermal_state`, thermal states included, makes one truncation
report. It compares the weight D(alpha) thermal(n_th) D+(alpha) puts at
n >= dim with COHERENT_LOSS_TOL, and forms that weight only when its O(1)
Chernoff bound does not already clear it. `analytic.to_density_matrix` adds
no report of its own. These tests pin the rule against a 50-digit mpmath
tail, the bound against the same tail, and the cases where the old
per-component reports and the old moment heuristic disagreed with it.
"""

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
        assert fired[0].endswith(
            f" at dim={dim}; suggest dim >= {fock._displaced_thermal_dim(alpha, n_th)}"
        )

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
