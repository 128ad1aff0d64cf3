"""Reference values for the benchmark's output checks, written from the paper.

Nothing here imports bmc: every check compares bmc's output against these
formulas, so a fault in bmc cannot hide behind a shared helper.

Conventions (all entropies and capacities in bits):
  beta(t)  = (beta/gamma)(1 - e^{-gamma t})
  g(x)     = (1 + x) log2(1 + x) - x log2 x
  chi      = g(beta(t) + n_bar e^{-gamma t}) - g(beta(t))
  F_bar    = 1 / (1 + beta(t) + n_bar a'),  a' = (e^{-gamma t / 2} - 1)^2
  Theta    = F_bar chi
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)


def g(x: float) -> float:
    """Thermal entropy g(x) in bits, in a form that keeps full precision.

    For x > 0, g(x) = log2(1 + x) + x log2(1 + 1/x); both terms are formed
    with log1p, so neither the large-x cancellation of the textbook form nor
    a small-x loss occurs.
    """
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"g needs a finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (math.log1p(x) + x * math.log1p(1.0 / x)) / _LN2


def g_prime(x: float) -> float:
    """dg/dx = log2((1 + x) / x)."""
    return math.log1p(1.0 / x) / _LN2


def beta_t(gamma: float, beta: float, t: float) -> float:
    """Thermal photons accumulated by time t."""
    return (beta / gamma) * -math.expm1(-gamma * t)


def damping(gamma: float, t: float) -> float:
    """a' = (e^{-gamma t / 2} - 1)^2, the fidelity loss per signal photon."""
    return math.expm1(-0.5 * gamma * t) ** 2


def chi(gamma: float, beta: float, n_bar: float, t: float) -> float:
    bt = beta_t(gamma, beta, t)
    return g(bt + n_bar * math.exp(-gamma * t)) - g(bt)


def avg_fidelity(gamma: float, beta: float, n_bar: float, t: float) -> float:
    return 1.0 / (1.0 + beta_t(gamma, beta, t) + n_bar * damping(gamma, t))


def theta(gamma: float, beta: float, n_bar: float, t: float) -> float:
    return avg_fidelity(gamma, beta, n_bar, t) * chi(gamma, beta, n_bar, t)


def dtheta_dnbar(gamma: float, beta: float, n_bar: float, t: float) -> float:
    """Exact dTheta/dn_bar = F_bar' chi + F_bar chi'.

    F_bar' = -a' F_bar^2 and chi' = e^{-gamma t} log2((1 + b) / b) with
    b = beta(t) + n_bar e^{-gamma t}.
    """
    fbar = avg_fidelity(gamma, beta, n_bar, t)
    decay = math.exp(-gamma * t)
    b = beta_t(gamma, beta, t) + n_bar * decay
    return -damping(gamma, t) * fbar**2 * chi(gamma, beta, n_bar, t) + fbar * decay * g_prime(b)


def mean_photons(gamma: float, beta: float, eta: complex, t: float) -> float:
    """<n>(t) = |eta|^2 e^{-gamma t} + N (1 - e^{-gamma t}), N = beta / gamma."""
    return abs(eta) ** 2 * math.exp(-gamma * t) + beta_t(gamma, beta, t)


def field_amplitude(gamma: float, eta: complex, t: float) -> complex:
    """<a>(t) = eta e^{-gamma t / 2}."""
    return complex(eta) * math.exp(-0.5 * gamma * t)
