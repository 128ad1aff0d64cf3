"""Information-theoretic figures of merit for the channel.

All entropies and capacities are in bits. The capacity of the channel under
the Gaussian coherent-state ensemble is the difference of two thermal
entropies, g(beta(t) + n_bar e^{-gamma t}) - g(beta(t)); the transmission
fidelity and the capacity-fidelity product Theta quantify the tradeoff
against signal strength, whose stationary point defines the optimal n_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import _check_time, beta_t
from .errors import InvalidParameterError, InvalidTimeError
from .fock import _check_amplitude
from .lindblad import ChannelParams

_LN2 = math.log(2.0)
_EPS = math.ulp(1.0)

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


def _g_prime(x: float) -> float:
    """dg/dx = log2((1 + x) / x) for x > 0."""
    if x >= 1.0:
        return math.log1p(1.0 / x) / _LN2
    return (math.log1p(x) - math.log(x)) / _LN2


def _log1pmx(x: float) -> float:
    """log(1 + x) - x for x > -1, without the cancellation at small |x|."""
    if abs(x) > 0.1:
        return math.log1p(x) - x
    # log1p(x) = 2 atanh(s) with s = x / (2 + x), and 2 s - x = -x s
    s = x / (2.0 + x)
    s2 = s * s
    odd = 1 / 3 + s2 * (1 / 5 + s2 * (1 / 7 + s2 * (1 / 9 + s2 * (
        1 / 11 + s2 * (1 / 13 + s2 / 15)))))
    return 2.0 * s * s2 * odd - x * s


def _tangent_gap(bt: float, delta: float) -> float:
    """g(b) - g(bt) - delta g'(b) >= 0 with b = bt + delta, in bits.

    For delta < bt it is formed as log1pmx(u) + bt log1pmx(-v) + delta v (in
    nats), u = delta / (1 + bt), v = delta / (b (1 + bt)), which keeps full
    relative precision however small delta is against bt.
    """
    b = bt + delta
    if delta >= bt:
        return g_entropy(b) - g_entropy(bt) - delta * _g_prime(b)
    u = delta / (1.0 + bt)
    v = (delta / b) / (1.0 + bt)
    return (_log1pmx(u) + bt * _log1pmx(-v) + delta * v) / _LN2


def _channel_terms(params: ChannelParams, t: float) -> tuple[float, float, float]:
    """beta(t), the decay e^{-gamma t} and a' = (e^{-gamma t / 2} - 1)^2.

    a' is formed with expm1, which keeps its relative precision at small
    gamma t, where e^{-gamma t / 2} - 1 cancels.
    """
    t = _check_time(t)
    return beta_t(params, t), math.exp(-params.gamma * t), math.expm1(-0.5 * params.gamma * t) ** 2


def _chi(bt: float, delta: float) -> float:
    # g(bt + delta) - g(bt), or delta g'(b) plus the tangent gap where it cancels
    if delta < bt:
        return _tangent_gap(bt, delta) + delta * _g_prime(bt + delta)
    return g_entropy(bt + delta) - g_entropy(bt)


def channel_capacity(params: ChannelParams, t: float) -> float:
    """Capacity in bits at time t, as the subtracted-entropy form.

    chi = g(beta(t) + delta) - g(beta(t)) with delta = n_bar e^{-gamma t}. The
    subtracted form avoids the cancellation the expanded four-term expression
    suffers at small beta(t). The difference itself cancels when
    delta < beta(t); there chi is formed as delta g'(b) plus the tangent gap,
    both without cancellation.
    """
    bt, decay, _ = _channel_terms(params, t)
    return _chi(bt, params.n_bar * decay)


def fidelity_analytic(eta: complex, params: ChannelParams, t: float) -> float:
    """Input-output overlap <eta| output |eta> for a coherent input."""
    eta = _check_amplitude(eta)
    b, _, damping = _channel_terms(params, t)
    return math.exp(-damping * abs(eta) ** 2 / (1.0 + b)) / (1.0 + b)


def average_fidelity(params: ChannelParams, t: float) -> float:
    """Fidelity averaged over the Gaussian input ensemble of mean n_bar.

    Equals 1 / (1 + beta(t) + n_bar (e^{-gamma t / 2} - 1)^2).
    """
    bt, _, damping = _channel_terms(params, t)
    return 1.0 / (1.0 + bt + params.n_bar * damping)


def theta(params: ChannelParams, t: float) -> float:
    """Fidelity-capacity product average_fidelity * channel_capacity."""
    return theta_at_nbar(params, t, params.n_bar)


def theta_at_nbar(params: ChannelParams, t: float, n_bar: float) -> float:
    """Theta with the ensemble mean replaced by n_bar."""
    return theta_curve(params, t, (n_bar,))[0]


def theta_curve(params: ChannelParams, t: float, n_bars) -> list[float]:
    """Theta at each ensemble mean in n_bars (params.n_bar is not used).

    The channel terms are formed once for the whole curve; each value is
    average_fidelity * channel_capacity at that ensemble mean.
    """
    bt, decay, damping = _channel_terms(params, t)
    values = []
    for n_bar in map(float, n_bars):
        if not math.isfinite(n_bar) or n_bar < 0.0:
            raise InvalidParameterError(f"n_bar must be >= 0, got {n_bar}")
        values.append((1.0 / (1.0 + bt + n_bar * damping)) * _chi(bt, n_bar * decay))
    return values


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
    `interior_optimum` is False and the numeric fields are NaN. At an interior
    optimum `criterion_residual` is NaN when the paper's printed criterion is
    not a finite double there (its terms grow like e^{gamma t}, so past
    gamma t of about 700); the optimum itself is still exact.
    """

    n_bar_opt: float
    theta_at_opt: float
    criterion_residual: float
    second_order_ok: bool
    interior_optimum: bool = True


def criterion_residual(n_bar: float, params: ChannelParams, t: float) -> float:
    """Left minus right side of the paper's optimality criterion, as printed.

    With a = (e^{gamma t / 2} - 1)^2 and b = beta(t) + n_bar e^{-gamma t}:
    LHS = a (1 + beta(t)) log2(1 + beta(t)) - a beta(t) log2 beta(t) and
    RHS = (a beta(t) - (1 + beta(t))) log2 b - (a - 1)(1 + beta(t)) log2(1 + b),
    with the 0 log 0 = 0 convention. The printed right side carries a flipped
    sign: LHS + RHS = (dTheta/dn_bar) / (F_bar^2 e^{-gamma t}), so the corrected
    criterion LHS + RHS = 0 is the stationarity condition that `optimal_nbar`
    solves (in its factored form), while LHS - RHS = 2 a g(beta(t)) at the
    optimum. Raises InvalidParameterError when the residual is not a finite
    double (a overflows beyond gamma t of about 1419, or b underflows to 0).
    """
    n_bar = float(n_bar)
    t = float(t)
    if n_bar <= 0.0:
        raise InvalidParameterError(f"n_bar must be > 0, got {n_bar}")
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTimeError(f"time must be finite and > 0, got {t}")
    bt = beta_t(params, t)
    b = bt + n_bar * math.exp(-params.gamma * t)
    try:
        a = math.expm1(0.5 * params.gamma * t) ** 2
        lhs = a * (1.0 + bt) * math.log1p(bt) / _LN2 - a * _xlog2(bt)
        rhs = (a * bt - (1.0 + bt)) * math.log(b) / _LN2 - (a - 1.0) * (
            1.0 + bt
        ) * math.log1p(b) / _LN2
        residual = lhs - rhs
    except (OverflowError, ValueError):  # a beyond a double, or b = 0
        residual = math.nan
    if not math.isfinite(residual):
        raise InvalidParameterError(
            f"criterion residual is not a finite double at gamma t = "
            f"{params.gamma * t:g}, n_bar = {n_bar:g}"
        )
    return residual


def _theta_slope(log_n: float, bt: float, decay: float, damping: float) -> tuple[float, float]:
    """s = dTheta/dn_bar / F_bar^2 at n_bar = e^{log_n}, exactly, and ds/dlog_n.

    bt = beta(t), decay = e^{-gamma t}, damping = a' = (e^{-gamma t / 2} - 1)^2,
    delta = n_bar decay and b = bt + delta. F_bar' = -a' F_bar^2 and
    chi' = decay g'(b) give dTheta/dn_bar = F_bar (decay g'(b) - a' F_bar chi);
    with chi = delta g'(b) + gap and 1 - a' n_bar F_bar = (1 + bt) F_bar this is
    F_bar^2 s, s = (1 + bt) decay g'(b) - a' gap, whose two terms no longer
    cancel to leading order when a' n_bar >> 1 + bt. As g'' < 0 and
    d gap / d delta = -delta g''(b) > 0, s is strictly decreasing.
    """
    delta = math.exp(log_n) * decay
    b = bt + delta
    slope = (1.0 + bt) * decay * _g_prime(b) - damping * _tangent_gap(bt, delta)
    # delta (1 + bt) decay g''(b) + a' delta^2 g''(b), with g''(b) = -1 / (b (1 + b) ln 2)
    dslope = -(delta / b) * ((1.0 + bt) * decay + damping * delta) / ((1.0 + b) * _LN2)
    return slope, dslope


def _slope_root(lo: float, hi: float, args: tuple) -> float:
    """The log n_bar in (lo, hi) where the decreasing `_theta_slope` vanishes.

    The slope is positive at lo and negative at hi. Newton steps on its
    closed-form derivative are taken while they stay inside the shrinking
    bracket and at most halve the previous step; otherwise the bracket is
    bisected. It stops once the Newton step or the bracket is below a
    double's resolution of log n_bar.
    """
    u, last_step = hi, hi - lo
    while True:
        slope, dslope = _theta_slope(u, *args)
        if slope > 0.0:
            lo = u
        elif slope < 0.0:
            hi = u
        else:
            return u
        step = slope / dslope if dslope < 0.0 else math.inf
        resolution = _EPS * max(1.0, abs(u))
        if abs(step) <= resolution:
            return u - step
        if hi - lo <= resolution:
            return u
        if lo < u - step < hi and abs(step) <= 0.5 * abs(last_step):
            u, last_step = u - step, step
        else:
            last_step = 0.5 * (hi - lo)
            u = lo + last_step


def optimal_nbar(
    params: ChannelParams, t: float, search_max: float = DEFAULT_SEARCH_MAX
) -> OptimalSignalResult:
    """Maximize Theta over the input signal strength n_bar in (0, search_max].

    Theta = chi / (1 + beta(t) + a' n_bar) is a concave function over a
    positive affine one, hence quasiconcave in n_bar, and its slope is
    positive as n_bar -> 0+ (chi(0) = 0, chi'(0) > 0); in closed form
    dTheta/dn_bar = F_bar^2 s with s strictly decreasing (`_theta_slope`).
    So there is no interior maximum exactly when s >= 0 at search_max
    (flagged, not raised), and otherwise one bracketed root of s on
    (0+, search_max] locates it. The paper's printed-criterion residual and a
    two-sided second-order check are evaluated at the result; where the
    residual outgrows a double (an optimum at gamma t near 700 or beyond) it
    is reported as NaN and the optimum is still returned.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTimeError(f"optimal signal search needs t > 0, got {t}")
    search_max = float(search_max)
    if not math.isfinite(search_max) or search_max <= 0.0:
        raise InvalidParameterError(f"search_max must be finite and > 0, got {search_max}")

    slope_args = _channel_terms(params, t)
    bt, decay, _ = slope_args
    log_max = math.log(search_max)
    # Nothing reaching the output (beta(t) = 0 and the signal decayed below
    # the smallest double) leaves Theta = 0 throughout.
    if bt + search_max * decay == 0.0 or _theta_slope(log_max, *slope_args)[0] >= 0.0:
        return OptimalSignalResult(
            n_bar_opt=math.nan,
            theta_at_opt=math.nan,
            criterion_residual=math.nan,
            second_order_ok=False,
            interior_optimum=False,
        )

    # The root is sought in log n_bar, which search_max may span by hundreds
    # of decades. Its lower end, 0+, is the smallest signal whose output is a
    # positive double; the slope there is positive (and finite when beta(t) = 0).
    log_lo = math.log(math.ulp(0.0) / decay)
    n_opt = min(math.exp(_slope_root(log_lo, log_max, slope_args)), search_max)
    theta_opt = theta_at_nbar(params, t, n_opt)
    delta = 1e-3 * n_opt
    second_order_ok = (
        theta_at_nbar(params, t, n_opt + delta) <= theta_opt
        and theta_at_nbar(params, t, n_opt - delta) <= theta_opt
    )
    try:
        residual = criterion_residual(n_opt, params, t)
    except InvalidParameterError:  # the printed criterion is beyond a double here
        residual = math.nan
    return OptimalSignalResult(
        n_bar_opt=n_opt,
        theta_at_opt=theta_opt,
        criterion_residual=residual,
        second_order_ok=second_order_ok,
    )
