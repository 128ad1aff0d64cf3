"""Information-theoretic figures of merit for the channel.

All entropies and capacities are in bits. The capacity of the channel under
the Gaussian coherent-state ensemble is the difference of two thermal
entropies, g(beta(t) + n_bar e^{-gamma t}) - g(beta(t)); the transmission
fidelity and the capacity-fidelity product Theta quantify the tradeoff
against signal strength, whose stationary point defines the optimal n_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import _check_time, beta_t
from .errors import InvalidParameterError, InvalidTimeError
from .lindblad import ChannelParams

_LN2 = math.log(2.0)

DEFAULT_SEARCH_MAX = 1000.0


def _xlog2(x: float) -> float:
    # x log2 x with the continuity convention 0 log 0 = 0.
    return 0.0 if x <= 0.0 else x * math.log(x) / _LN2


def g_entropy(x: float) -> float:
    """Entropy in bits of a thermal state with mean occupation x.

    g(x) = (1 + x) log2(1 + x) - x log2 x, with g(0) = 0 by continuity.
    For x > 1 it is evaluated as log2(1 + x) + x log2(1 + 1/x), which
    avoids the cancellation of the two large terms.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise InvalidParameterError(f"mean occupation must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x > 1.0:
        return (math.log1p(x) + x * math.log1p(1.0 / x)) / _LN2
    return (1.0 + x) * math.log1p(x) / _LN2 - _xlog2(x)


def channel_capacity(params: ChannelParams, t: float) -> float:
    """Capacity in bits at time t, as the subtracted-entropy form.

    chi = g(beta(t) + n_bar e^{-gamma t}) - g(beta(t)). The subtracted form
    avoids the cancellation the expanded four-term expression suffers at
    small beta(t).
    """
    t = _check_time(t)
    b = beta_t(params, t)
    return g_entropy(b + params.n_bar * math.exp(-params.gamma * t)) - g_entropy(b)


def fidelity_analytic(eta: complex, params: ChannelParams, t: float) -> float:
    """Input-output overlap <eta| output |eta> for a coherent input."""
    t = _check_time(t)
    b = beta_t(params, t)
    damping = (math.exp(-0.5 * params.gamma * t) - 1.0) ** 2
    return math.exp(-damping * abs(complex(eta)) ** 2 / (1.0 + b)) / (1.0 + b)


def average_fidelity(params: ChannelParams, t: float) -> float:
    """Fidelity averaged over the Gaussian input ensemble of mean n_bar.

    Equals 1 / (1 + beta(t) + n_bar (e^{-gamma t / 2} - 1)^2).
    """
    t = _check_time(t)
    damping = (math.exp(-0.5 * params.gamma * t) - 1.0) ** 2
    return 1.0 / (1.0 + beta_t(params, t) + params.n_bar * damping)


def theta(params: ChannelParams, t: float) -> float:
    """Fidelity-capacity product average_fidelity * channel_capacity."""
    return average_fidelity(params, t) * channel_capacity(params, t)


def theta_at_nbar(params: ChannelParams, t: float, n_bar: float) -> float:
    """Theta with the ensemble mean replaced by n_bar."""
    return theta(replace(params, n_bar=float(n_bar)), t)


@dataclass(frozen=True)
class CapacityPoint:
    """One (time, capacity, fidelity, product) record of a sweep."""

    t: float
    chi: float
    avg_fidelity: float
    theta: float

    def __post_init__(self):
        if self.chi < 0.0:
            raise InvalidParameterError(f"capacity must be >= 0, got {self.chi}")
        if not 0.0 < self.avg_fidelity <= 1.0:
            raise InvalidParameterError(
                f"average fidelity must be in (0, 1], got {self.avg_fidelity}"
            )
        if abs(self.theta - self.chi * self.avg_fidelity) > 1e-12:
            raise InvalidParameterError("theta must equal chi * avg_fidelity")


def capacity_point(params: ChannelParams, t: float) -> CapacityPoint:
    """Evaluate capacity, average fidelity and their product at time t."""
    chi = channel_capacity(params, t)
    fbar = average_fidelity(params, t)
    return CapacityPoint(t=float(t), chi=chi, avg_fidelity=fbar, theta=chi * fbar)


@dataclass(frozen=True)
class OptimalSignalResult:
    """Stationary point of Theta over the input signal strength.

    When no interior maximum exists in the searched range,
    `interior_optimum` is False and the numeric fields are NaN.
    """

    n_bar_opt: float
    theta_at_opt: float
    criterion_residual: float
    second_order_ok: bool
    interior_optimum: bool = True


def criterion_residual(n_bar: float, params: ChannelParams, t: float) -> float:
    """Left minus right side of the algebraic optimality criterion.

    With a = (e^{gamma t / 2} - 1)^2 and b = beta(t) + n_bar e^{-gamma t}:
    LHS = a (1 + beta(t)) log2(1 + beta(t)) - a beta(t) log2 beta(t) and
    RHS = (a beta(t) - (1 + beta(t))) log2 b - (a - 1)(1 + beta(t)) log2(1 + b),
    with the 0 log 0 = 0 convention. The residual is reported as-is; the
    optimal-signal search trusts the numeric derivative of Theta instead, so
    the residual is not asserted to vanish at the optimum.
    """
    n_bar = float(n_bar)
    t = float(t)
    if n_bar <= 0.0:
        raise InvalidParameterError(f"n_bar must be > 0, got {n_bar}")
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTimeError(f"time must be finite and > 0, got {t}")
    bt = beta_t(params, t)
    a = (math.exp(0.5 * params.gamma * t) - 1.0) ** 2
    b = bt + n_bar * math.exp(-params.gamma * t)
    lhs = a * (1.0 + bt) * math.log1p(bt) / _LN2 - a * _xlog2(bt)
    rhs = (a * bt - (1.0 + bt)) * math.log(b) / _LN2 - (a - 1.0) * (
        1.0 + bt
    ) * math.log1p(b) / _LN2
    return lhs - rhs


def optimal_nbar(
    params: ChannelParams, t: float, search_max: float = DEFAULT_SEARCH_MAX
) -> OptimalSignalResult:
    """Maximize Theta over the input signal strength n_bar in (0, search_max].

    The maximizer is located by bracketing a sign change of the central
    difference d(Theta)/d(n_bar) on a log-spaced grid and bisecting it; the
    algebraic-criterion residual and a two-sided second-order check are
    evaluated at the result. Absence of a sign change is flagged, not raised.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTimeError(f"optimal signal search needs t > 0, got {t}")
    search_max = float(search_max)
    if not math.isfinite(search_max) or search_max <= 0.0:
        raise InvalidParameterError(f"search_max must be finite and > 0, got {search_max}")

    def value(n):
        return theta_at_nbar(params, t, n)

    def derivative(n):
        h = 1e-6 * max(1.0, n)
        return (value(n + h) - value(n - h)) / (2.0 * h)

    grid = np.geomspace(1e-4, search_max, 160)
    signs = [derivative(n) for n in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if signs[i] > 0.0 >= signs[i + 1]:
            bracket = (float(grid[i]), float(grid[i + 1]))
            break
    if bracket is None:
        return OptimalSignalResult(
            n_bar_opt=math.nan,
            theta_at_opt=math.nan,
            criterion_residual=math.nan,
            second_order_ok=False,
            interior_optimum=False,
        )

    lo, hi = bracket
    d_lo = derivative(lo)
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        d_mid = derivative(mid)
        if (d_lo > 0.0) == (d_mid > 0.0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    n_opt = 0.5 * (lo + hi)
    theta_opt = value(n_opt)
    delta = 1e-3 * n_opt
    second_order_ok = (
        value(n_opt + delta) <= theta_opt and value(n_opt - delta) <= theta_opt
    )
    return OptimalSignalResult(
        n_bar_opt=n_opt,
        theta_at_opt=theta_opt,
        criterion_residual=criterion_residual(n_opt, params, t),
        second_order_ok=second_order_ok,
    )
