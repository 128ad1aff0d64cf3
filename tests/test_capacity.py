import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmc
from bmc import (
    CapacityPoint,
    ChannelParams,
    GaussianChannelState,
    InvalidParameterError,
    InvalidTimeError,
    average_fidelity,
    beta_t,
    capacity_point,
    channel_capacity,
    criterion_residual,
    ensemble_average_state,
    evolve_coherent_analytic,
    fidelity_analytic,
    fidelity_with_coherent,
    g_entropy,
    optimal_nbar,
    thermal_state,
    to_density_matrix,
    von_neumann_entropy,
)
from bmc import analytic, capacity
from bmc.capacity import OptimalSignalResult, theta_at_nbar, theta_curve
from oracles import gauss_laguerre_scalar_average, golden_section_maximize

REF = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)

# Frozen from direct evaluation: 6 log2 6 - 5 log2 5.
G_OF_FIVE = 3.900134529890126


def mp_chi(bt, delta):
    """g(bt + delta) - g(bt) in bits, at the working mpmath precision."""
    bt, delta = mpmath.mpf(bt), mpmath.mpf(delta)

    def g(x):
        return (1 + x) * mpmath.log1p(x) - (x * mpmath.log(x) if x > 0 else 0)

    return (g(bt + delta) - g(bt)) / mpmath.log(2)


def mp_theta_slope(params, t, n_bar):
    """Theta and dTheta/dn_bar = F_bar (e^{-gamma t} g'(b) - a' F_bar chi) at n_bar.

    b = beta(t) + delta with delta = n_bar e^{-gamma t}; enough digits are
    carried that b resolves delta.
    """
    gamma, n_bar, t = mpmath.mpf(params.gamma), mpmath.mpf(n_bar), mpmath.mpf(t)
    bt = params.beta_rate / gamma * -mpmath.expm1(-gamma * t)
    delta = n_bar * mpmath.exp(-gamma * t)
    extra = int(max(0, mpmath.log10(bt / delta))) if bt > 0 else 0
    with mpmath.workdps(50 + extra):
        decay = mpmath.exp(-gamma * t)
        bt = params.beta_rate / gamma * -mpmath.expm1(-gamma * t)
        damping = mpmath.expm1(-gamma * t / 2) ** 2
        fbar = 1 / (1 + bt + n_bar * damping)
        b = bt + n_bar * decay
        chi = mp_chi(bt, n_bar * decay)
        slope = fbar * (decay * mpmath.log1p(1 / b) / mpmath.log(2) - damping * fbar * chi)
        return fbar * chi, slope


def mp_dtheta(params, t, n_bar):
    return mp_theta_slope(params, t, n_bar)[1]


def criterion_sides(n_bar, params, t):
    """LHS and RHS of the paper's optimality criterion, as printed."""
    bt = beta_t(params, t)
    a = (math.exp(0.5 * params.gamma * t) - 1.0) ** 2
    b = bt + n_bar * math.exp(-params.gamma * t)
    xlog2x = bt * math.log2(bt) if bt > 0.0 else 0.0
    lhs = a * (1.0 + bt) * math.log2(1.0 + bt) - a * xlog2x
    rhs = (a * bt - (1.0 + bt)) * math.log2(b) - (a - 1.0) * (1.0 + bt) * math.log2(1.0 + b)
    return lhs, rhs


class TestGEntropy:
    def test_zero(self):
        assert g_entropy(0.0) == 0.0

    def test_unit_occupation(self):
        assert g_entropy(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_five(self):
        direct = 6.0 * math.log2(6.0) - 5.0 * math.log2(5.0)
        assert g_entropy(5.0) == pytest.approx(direct, rel=1e-14)
        assert g_entropy(5.0) == pytest.approx(G_OF_FIVE, rel=1e-14)

    def test_matches_eigenvalue_entropy_of_thermal_state(self):
        # thermal tail (5/6)^dim <= 1e-12, so the truncation cannot bias the check
        dim = max(60, math.ceil(math.log(1e-12) / math.log(5.0 / 6.0)))
        assert von_neumann_entropy(thermal_state(5.0, dim)) == pytest.approx(
            g_entropy(5.0), abs=1e-8
        )

    def test_strictly_increasing_and_concave(self):
        xs = np.linspace(0.0, 12.0, 60)
        gs = [g_entropy(x) for x in xs]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        mids = [g_entropy(0.5 * (x1 + x2)) for x1, x2 in zip(xs, xs[2:])]
        assert all(m >= 0.5 * (g1 + g2) for m, g1, g2 in zip(mids, gs, gs[2:]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            g_entropy(-0.1)

    def test_matches_mpmath_over_full_range(self):
        # the direct form cancels ~log10(x) digits at large x, so the
        # reference carries enough digits to resolve it at x = 1e300
        xs = list(np.geomspace(1e-300, 1e300, 241)) + [0.5, 1.0, 1.0 + 1e-12, 2.0, 1e8]
        with mpmath.workdps(360):
            for x in xs:
                xm = mpmath.mpf(float(x))
                exact = ((1 + xm) * mpmath.log(1 + xm) - xm * mpmath.log(xm)) / mpmath.log(2)
                assert abs(g_entropy(x) - exact) <= 1e-14 * exact, x


class TestChannelCapacity:
    def test_zero_time_equals_g_of_nbar(self):
        assert channel_capacity(REF, 0.0) == pytest.approx(g_entropy(5.0), abs=1e-12)

    def test_long_time_vanishes(self):
        chi = channel_capacity(REF, 1e6 / REF.gamma)
        assert 0.0 <= chi <= 1e-9

    def test_reference_point_formula(self):
        b = beta_t(REF, 1.0)
        expected = g_entropy(b + 5.0 * math.exp(-0.1)) - g_entropy(b)
        assert channel_capacity(REF, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_matches_eigenvalue_entropy_difference(self):
        # oracle: entropies from matrix eigendecompositions of the explicit
        # mixture and single-output states
        t = 1.0
        mixture = ensemble_average_state(REF, t)
        single = evolve_coherent_analytic(math.sqrt(REF.n_bar), REF, t)
        dim = max(analytic.suggested_dim(mixture), analytic.suggested_dim(single))
        s_mix = von_neumann_entropy(to_density_matrix(mixture, dim))
        s_single = von_neumann_entropy(to_density_matrix(single, dim))
        assert channel_capacity(REF, t) == pytest.approx(s_mix - s_single, abs=1e-6)

    def test_strictly_increasing_in_nbar(self):
        chis = [
            channel_capacity(replace(REF, n_bar=float(n)), 1.0) for n in range(1, 11)
        ]
        assert all(b > a for a, b in zip(chis, chis[1:]))

    def test_strictly_decreasing_in_time(self):
        chis = [channel_capacity(REF, t) for t in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(b < a for a, b in zip(chis, chis[1:]))

    def test_matches_mpmath_where_decay_is_normal(self):
        # the signal delta = n_bar e^{-gamma t} runs from 1e-15 beta(t), where
        # g(beta(t) + delta) - g(beta(t)) cancels almost every digit, to far above it
        cases = []
        for gamma in (1e-3, 0.1, 2.0, 10.0):
            for beta in (0.0, 1e-4, 0.01, 1.0, 100.0):
                for t in (1e-3, 0.5, 20.0, 700.0 / gamma):
                    params = ChannelParams(gamma=gamma, beta_rate=beta)
                    bt, decay = beta_t(params, t), math.exp(-gamma * t)
                    signals = [1e-12, 1e-3, 1.0, 1e3, 1e9]
                    if bt > 0.0:
                        signals += [r * bt for r in (1e-15, 1e-9, 1e-3, 0.5, 0.999, 1.0, 2.0, 1e5)]
                    cases += [(params, t, d / decay) for d in signals if d / decay <= 1e300]
        with mpmath.workdps(120):
            for params, t, n_bar in cases:
                exact = mp_chi(beta_t(params, t), n_bar * math.exp(-params.gamma * t))
                chi = channel_capacity(replace(params, n_bar=n_bar), t)
                assert abs(chi - exact) <= 1e-13 * exact, (params, t, n_bar)

    def test_decreasing_in_beta_and_gamma(self):
        betas = np.linspace(0.01, 0.1, 10)
        chis_b = [
            channel_capacity(replace(REF, beta_rate=float(b)), 1.0) for b in betas
        ]
        assert all(b < a for a, b in zip(chis_b, chis_b[1:]))
        gammas = np.linspace(0.1, 0.5, 5)
        chis_g = [channel_capacity(replace(REF, gamma=float(g)), 1.0) for g in gammas]
        assert all(b < a for a, b in zip(chis_g, chis_g[1:]))


class TestFidelity:
    def test_unity_at_zero_time(self):
        for eta in (0.0, 1.0, 2.0 - 1.0j):
            assert fidelity_analytic(eta, REF, 0.0) == 1.0

    def test_origin_amplitude(self):
        for t in (0.5, 1.0, 5.0):
            assert fidelity_analytic(0.0, REF, t) == pytest.approx(
                1.0 / (1.0 + beta_t(REF, t)), rel=1e-14
            )

    def test_matches_matrix_element(self):
        dim = 50
        eta = 1.0
        built = to_density_matrix(evolve_coherent_analytic(eta, REF, 1.0), dim)
        assert fidelity_analytic(eta, REF, 1.0) == pytest.approx(
            fidelity_with_coherent(built, eta), abs=1e-7
        )

    def test_average_fidelity_boundary_values(self):
        assert average_fidelity(REF, 0.0) == 1.0
        quiet = replace(REF, n_bar=0.0)
        for t in (0.5, 2.0):
            assert average_fidelity(quiet, t) == pytest.approx(
                fidelity_analytic(0.0, quiet, t), rel=1e-14
            )

    def test_average_fidelity_matches_quadrature(self):
        for t in (0.5, 1.0, 3.0):
            quad = gauss_laguerre_scalar_average(
                lambda r: fidelity_analytic(r, REF, t), REF.n_bar
            )
            assert average_fidelity(REF, t) == pytest.approx(quad, abs=1e-8)

    def test_average_fidelity_strictly_decreasing_in_nbar(self):
        fbars = [average_fidelity(replace(REF, n_bar=float(n)), 1.0) for n in range(11)]
        assert all(b < a for a, b in zip(fbars, fbars[1:]))

    @pytest.mark.parametrize("beta_rate", [0.0, 0.5])
    @pytest.mark.parametrize("gamma_t", [1e-9, 1e-6, 1e-4, 1e-2, 1.0])
    def test_small_decay_matches_mpmath(self, gamma_t, beta_rate):
        # a' = (e^{-gamma t / 2} - 1)^2 cancels at small gamma t unless
        # formed with expm1; a large signal makes a' n_bar of order one
        params = ChannelParams(gamma=1.0, beta_rate=beta_rate, n_bar=1e12)
        eta = 2.0 / gamma_t
        with mpmath.workdps(50):
            damping = mpmath.expm1(-mpmath.mpf(gamma_t) / 2) ** 2
            b = 1 + beta_rate * -mpmath.expm1(-mpmath.mpf(gamma_t))
            exact_fbar = 1 / (b + mpmath.mpf(1e12) * damping)
            exact_f = mpmath.exp(-damping * mpmath.mpf(eta) ** 2 / b) / b
        assert abs(average_fidelity(params, gamma_t) - exact_fbar) <= 1e-14 * exact_fbar
        assert abs(fidelity_analytic(eta, params, gamma_t) - exact_f) <= 1e-14 * exact_f


class TestTheta:
    def test_zero_signal_gives_zero(self):
        assert capacity_point(replace(REF, n_bar=0.0), 1.0).theta == 0.0

    def test_zero_time_equals_g(self):
        assert capacity_point(REF, 0.0).theta == pytest.approx(g_entropy(REF.n_bar), abs=1e-12)

    def test_equals_product(self):
        val = capacity_point(REF, 1.0).theta
        assert abs(val - average_fidelity(REF, 1.0) * channel_capacity(REF, 1.0)) < 1e-12

    def test_vanishes_for_huge_signal(self):
        # capacity grows like log n_bar while fidelity decays like 1/n_bar
        assert theta_at_nbar(REF, 1.0, 1e6) < 0.01


class TestCapacityPoint:
    def test_fields_consistent(self):
        point = capacity_point(REF, 1.0)
        assert point.chi >= 0.0
        assert 0.0 < point.avg_fidelity <= 1.0
        assert point.theta == pytest.approx(point.chi * point.avg_fidelity, abs=1e-15)

    def test_astronomical_signal_returns(self):
        point = capacity_point(replace(REF, n_bar=1e300), 1.0)
        assert point.chi == pytest.approx(g_entropy(1e300 * math.exp(-0.1)), rel=1e-3)
        assert 0.0 < point.avg_fidelity < 1e-290

    def test_rejects_inconsistent_product(self):
        with pytest.raises(InvalidParameterError):
            CapacityPoint(t=1.0, chi=1.0, avg_fidelity=0.5, theta=0.7)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(1e-3, 10.0),
        beta=st.one_of(st.just(0.0), st.floats(1e-4, 100.0)),
        n_bar=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
        gamma_t=st.floats(0.0, 700.0),
    )
    def test_bounds_and_monotone_in_signal(self, gamma, beta, n_bar, gamma_t):
        params = ChannelParams(gamma=gamma, beta_rate=beta, n_bar=n_bar)
        t = gamma_t / gamma
        point = capacity_point(params, t)
        assert math.isfinite(point.chi) and point.chi >= 0.0
        assert 0.0 < point.avg_fidelity <= 1.0
        assert point.theta == point.avg_fidelity * point.chi
        # a stronger signal carries no less information and is copied no better
        doubled = capacity_point(replace(params, n_bar=2.0 * n_bar), t)
        assert doubled.chi >= point.chi
        assert doubled.avg_fidelity <= point.avg_fidelity


class TestOptimalSignal:
    def test_dual_optimizers_agree(self):
        result = optimal_nbar(REF, 1.0)
        assert result.interior_optimum
        golden_x, _ = golden_section_maximize(
            lambda n: theta_at_nbar(REF, 1.0, n), 1e-6, 1000.0
        )
        assert abs(golden_x - result.n_bar_opt) / result.n_bar_opt < 1e-6

    def test_local_maximum(self):
        result = optimal_nbar(REF, 1.0)
        delta = 1e-3 * result.n_bar_opt
        assert theta_at_nbar(REF, 1.0, result.n_bar_opt + delta) <= result.theta_at_opt
        assert theta_at_nbar(REF, 1.0, result.n_bar_opt - delta) <= result.theta_at_opt

    def test_no_interior_optimum_at_tiny_time(self):
        result = optimal_nbar(REF, 1e-6)
        assert not result.interior_optimum
        assert math.isnan(result.n_bar_opt)
        # theta is monotone increasing there
        values = [theta_at_nbar(REF, 1e-6, n) for n in (1.0, 10.0, 100.0)]
        assert values[0] < values[1] < values[2]

    def test_requires_positive_time(self):
        with pytest.raises(InvalidTimeError):
            optimal_nbar(REF, 0.0)

    @pytest.mark.parametrize(
        "params, t, search_max",
        [(REF, t, 1000.0) for t in (0.5, 1.0, 2.0, 5.0, 20.0)]
        + [(ChannelParams(gamma=0.1, beta_rate=0.1), 100.0, 1000.0)]
        # optima with a' n_bar >> 1 + beta(t), where Theta is flat to far
        # below a double and the unfactored slope loses every digit
        + [
            (ChannelParams(gamma=10.0, beta_rate=40.0), 17.5, 1e300),
            (ChannelParams(gamma=1.0, beta_rate=1.0), 100.0, 1e100),
            (ChannelParams(gamma=0.1, beta_rate=0.01), 1000.0, 1e200),
        ],
    )
    def test_within_1e11_of_the_exact_root(self, params, t, search_max):
        # the exact slope changes sign across n_bar_opt (1 -+ 1e-11)
        result = optimal_nbar(params, t, search_max)
        assert result.interior_optimum
        n = result.n_bar_opt
        assert mp_dtheta(params, t, n * (1.0 - 1e-11)) > 0
        assert mp_dtheta(params, t, n * (1.0 + 1e-11)) < 0

    def test_no_false_optimum_where_theta_keeps_rising(self):
        # the signal stays ~1e-15 of beta(t) here, so a cancelling capacity
        # once produced a spurious interior optimum near n_bar = 3.79
        params = ChannelParams(gamma=2.0, beta_rate=0.001)
        assert not optimal_nbar(params, 20.0).interior_optimum
        values = [theta_at_nbar(params, 20.0, n) for n in (1.0, 3.79, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(mp_dtheta(params, 20.0, n) > 0 for n in (1e-6, 1.0, 3.79, 1000.0))

    @pytest.mark.parametrize("t, search_max", [(800.0, 1000.0), (700.0, 1e-300)])
    def test_no_output_signal_is_no_optimum(self, t, search_max):
        # without reservoir photons and with the signal decayed below the
        # smallest double, Theta is 0 over the whole range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimal_nbar(ChannelParams(gamma=1.0), t, search_max)
        assert not result.interior_optimum

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(1e-3, 10.0),
        beta=st.one_of(st.just(0.0), st.floats(1e-4, 100.0)),
        gamma_t=st.floats(1e-3, 700.0),
        search_max=st.floats(1e-2, 1e6),
    )
    def test_optimum_or_monotone_verdict(self, gamma, beta, gamma_t, search_max):
        params = ChannelParams(gamma=gamma, beta_rate=beta)
        t = gamma_t / gamma
        result = optimal_nbar(params, t, search_max)
        if not result.interior_optimum:
            assert mp_dtheta(params, t, search_max) >= 0
            return
        n = result.n_bar_opt
        assert 0.0 < n < search_max
        theta_opt = theta_at_nbar(params, t, n)
        assert abs(mp_dtheta(params, t, n)) * n / theta_opt <= 1e-9
        assert theta_at_nbar(params, t, n * (1.0 + 1e-3)) <= theta_opt
        assert theta_at_nbar(params, t, n * (1.0 - 1e-3)) <= theta_opt

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        gamma=st.floats(1e-3, 10.0),
        beta=st.one_of(st.just(0.0), st.floats(1e-4, 100.0)),
        gamma_t=st.floats(1e-3, 700.0),
        search_max=st.floats(1e-2, 1e300),
    )
    def test_stationary_for_any_search_max(self, gamma, beta, gamma_t, search_max):
        # an optimum at n_bar ~ 1e17 or beyond sits where Theta is flat to
        # far below a double's resolution over +-1e-3, so only stationarity
        # is checked here; and a sign change closer to search_max than that
        # tolerance cannot be told from one at search_max
        params = ChannelParams(gamma=gamma, beta_rate=beta)
        t = gamma_t / gamma
        result = optimal_nbar(params, t, search_max)
        n = result.n_bar_opt if result.interior_optimum else search_max
        assert 0.0 < n <= search_max
        theta_n, slope = mp_theta_slope(params, t, n)
        if result.interior_optimum:
            assert abs(slope) * n <= 1e-9 * theta_n
        else:
            assert slope * n >= -1e-9 * theta_n

    def test_corrected_criterion_vanishes_at_optimum(self):
        # LHS + RHS = (dTheta/dn_bar) / (F_bar^2 e^{-gamma t}): the printed
        # criterion with its right side's sign corrected
        interior = 0
        for gamma in (0.01, 0.1, 0.5):
            for beta in (0.001, 0.01, 0.1, 1.0):
                for t in (0.5, 1.0, 2.0, 5.0, 20.0):
                    params = ChannelParams(gamma=gamma, beta_rate=beta)
                    result = optimal_nbar(params, t)
                    if not result.interior_optimum:
                        continue
                    interior += 1
                    lhs, rhs = criterion_sides(result.n_bar_opt, params, t)
                    assert abs(lhs + rhs) <= 1e-9 * max(abs(lhs), abs(rhs)), (gamma, beta, t)
        assert interior >= 30

    @pytest.mark.parametrize("search_max", [math.inf, math.nan])
    def test_nonfinite_search_max_rejected(self, search_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="search_max"):
                optimal_nbar(REF, 1.0, search_max=search_max)

    def test_residual_reported_matches_sign_flip_identity(self):
        # the algebraic criterion's right side carries a flipped sign
        # relative to d(theta)/d(n_bar) = 0, so the residual at the true
        # optimum equals 2 a g(beta(t)); frozen after numeric verification
        result = optimal_nbar(REF, 1.0)
        a = (math.exp(0.05) - 1.0) ** 2
        assert result.criterion_residual == pytest.approx(
            2.0 * a * g_entropy(beta_t(REF, 1.0)), abs=1e-9
        )


    def test_second_order_confirmed_where_theta_is_flat_below_rounding(self):
        # Theta(n_bar_opt (1 +- 1e-3)) lies 4.8e-17 (relative) below the
        # optimum here, under its double rounding, so the slope's sign on
        # either side confirms the maximum
        params = ChannelParams(gamma=5.659692641087864, beta_rate=0.2962347357754979)
        t = 8.600572606781432
        result = optimal_nbar(params, t, 2.2416793739682336e127)
        assert result.interior_optimum
        n = result.n_bar_opt
        assert mp_dtheta(params, t, n * (1.0 - 1e-11)) > 0
        assert mp_dtheta(params, t, n * (1.0 + 1e-11)) < 0

    def test_optimum_kept_where_printed_residual_overflows(self):
        # the printed criterion grows like e^{gamma t}; the optimum does not
        params = ChannelParams(gamma=0.001, beta_rate=25.0)
        t = 697000.0
        result = optimal_nbar(params, t, 1e200)
        assert result.interior_optimum
        assert math.isnan(result.criterion_residual)
        assert result.n_bar_opt == pytest.approx(7.945e155, rel=1e-3)
        theta_n, slope = mp_theta_slope(params, t, result.n_bar_opt)
        assert result.theta_at_opt == pytest.approx(float(theta_n), rel=1e-12)
        assert abs(slope) * result.n_bar_opt <= 1e-9 * theta_n
        with pytest.raises(InvalidParameterError, match="finite"):
            criterion_residual(result.n_bar_opt, params, t)


class TestCriterionResidual:
    def test_distinct_nbar_values_differ(self):
        r1 = criterion_residual(1.0, REF, 1.0)
        r5 = criterion_residual(5.0, REF, 1.0)
        assert r1 != r5

    def test_finite_in_lossless_reservoir_limit(self):
        quiet = ChannelParams(gamma=0.1, beta_rate=0.0, n_bar=5.0)
        assert math.isfinite(criterion_residual(5.0, quiet, 1.0))

    def test_overflow_raises_typed_error(self):
        # a = (e^{gamma t / 2} - 1)^2 is beyond a double at gamma t = 2000
        with pytest.raises(InvalidParameterError, match="finite"):
            criterion_residual(1.0, ChannelParams(gamma=10.0, beta_rate=0.1), 200.0)

    def test_requires_positive_arguments(self):
        with pytest.raises(InvalidParameterError):
            criterion_residual(0.0, REF, 1.0)
        with pytest.raises(InvalidTimeError):
            criterion_residual(1.0, REF, 0.0)


# Every closed form, as a call with channel params and time.
CLOSED_FORMS = {
    "beta_t": beta_t,
    "evolve_coherent_analytic": lambda p, t: evolve_coherent_analytic(1 + 1j, p, t),
    "ensemble_average_state": ensemble_average_state,
    "channel_capacity": channel_capacity,
    "average_fidelity": average_fidelity,
    "fidelity_analytic": lambda p, t: fidelity_analytic(1 + 1j, p, t),
    "theta_at_nbar": lambda p, t: theta_at_nbar(p, t, 2.0),
    "theta_curve": lambda p, t: capacity.theta_curve(p, t, (0.5, 2.0, 8.0)),
    "capacity_point": capacity_point,
    "optimal_nbar": optimal_nbar,
    "criterion_residual": lambda p, t: criterion_residual(2.0, p, t),
}

# Each closed form at REF and t = 1.5, pinned to the values it has always had.
PINNED_VALUES = {
    "beta_t": 0.013929202357494222,
    "evolve_coherent_analytic": GaussianChannelState(
        0.9277434863285529 + 0.9277434863285529j, 0.013929202357494222
    ),
    "ensemble_average_state": GaussianChannelState(0j, 4.317469084482783),
    "channel_capacity": 3.6022530893192584,
    "average_fidelity": 0.9615068231589841,
    "fidelity_analytic": 0.97615720052737,
    "theta_at_nbar": 2.425740394517113,
    "theta_curve": [1.1606754490694613, 2.425740394517113, 4.000126809099048],
    "capacity_point": CapacityPoint(1.5, 3.6022530893192584, 0.9615068231589841, 3.463590924125996),
    "optimal_nbar": OptimalSignalResult(
        51.35560320992573, 5.31900598316051, 0.001287420667255554, True
    ),
    "criterion_residual": -0.6561395284305657,
}


class TestUnsqueezedReservoirOnly:
    """The closed forms of the unsqueezed channel keep their pinned values."""

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_unsqueezed_values_unchanged(self, name):
        assert CLOSED_FORMS[name](REF, 1.5) == PINNED_VALUES[name]


def test_helpers_stay_out_of_the_package_namespace():
    # perfbench traces capacity.theta_at_nbar by module attribute
    assert "theta_at_nbar" not in bmc.__all__ and not hasattr(bmc, "theta_at_nbar")
    assert callable(capacity.theta_at_nbar)


# Positive doubles from the smallest subnormal to near the largest double,
# uniformly in the exponent as well as in hypothesis's own float draws.
_EXTREME = st.one_of(
    st.floats(5e-324, 1.7e308),
    st.floats(-323.0, 308.0).map(lambda e: 10.0**e),
)


class TestFiniteOrTypedError:
    """Every closed form returns finite values or raises a bmc.errors exception."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        gamma=_EXTREME,
        beta=st.one_of(st.just(0.0), _EXTREME),
        n_bar=st.one_of(st.just(0.0), _EXTREME),
        t=_EXTREME,
        search_max=_EXTREME,
    )
    def test_over_the_whole_double_range(self, gamma, beta, n_bar, t, search_max):
        calls = {
            "capacity_point": lambda params: capacity_point(params, t),
            "theta_curve": lambda params: theta_curve(params, t, (n_bar, search_max)),
            "optimal_nbar": lambda params: optimal_nbar(params, t, search_max),
        }
        for name, call in calls.items():
            try:
                result = call(ChannelParams(gamma=gamma, beta_rate=beta, n_bar=n_bar))
            except Exception as exc:
                assert type(exc).__module__ == "bmc.errors", (name, repr(exc))
                continue
            if name == "capacity_point":
                values = [result.t, result.chi, result.avg_fidelity, result.theta]
            elif name == "theta_curve":
                values = result
            elif result.interior_optimum:
                # the printed criterion may be beyond a double (documented NaN)
                values = [result.n_bar_opt, result.theta_at_opt]
                assert math.isfinite(result.criterion_residual) or math.isnan(
                    result.criterion_residual
                )
            else:
                # no interior optimum: every numeric field is NaN
                assert all(
                    math.isnan(v)
                    for v in (result.n_bar_opt, result.theta_at_opt, result.criterion_residual)
                )
                values = []
            assert all(math.isfinite(v) for v in values), (name, values)
