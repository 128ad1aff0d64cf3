"""Layer probes: one call of a layer at fixed sizes, timed from outside.

They run in the traced run only, with tracing removed, at the reference
channel gamma = 0.1, beta = 0.01. Each figure is the median over a few
calls, so one probe reads as the cost of one call.
"""

from __future__ import annotations

import statistics
import time

from bmc import analytic, fock, lindblad

REFERENCE = lindblad.ChannelParams(gamma=0.1, beta_rate=0.01)
PROBE_ETA = 1 + 1j


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_probes() -> dict[str, float]:
    out = {}
    for dim, rhs_repeats, evolve_repeats in ((50, 51, 5), (100, 21, 3), (200, 11, 1)):
        rho = fock.projector(fock.coherent_state(PROBE_ETA, dim))
        lindblad.lindblad_rhs(rho, REFERENCE)  # fills the per-dimension operator cache
        out[f"lindblad.lindblad_rhs.d{dim}_us"] = 1e6 * _median_seconds(
            lambda: lindblad.lindblad_rhs(rho, REFERENCE), rhs_repeats
        )
        out[f"lindblad.evolve.d{dim}_ms"] = 1e3 * _median_seconds(
            lambda: lindblad.evolve(rho, REFERENCE, 20.0), evolve_repeats
        )
    displaced = analytic.evolve_coherent_analytic(PROBE_ETA, REFERENCE, 1.0)
    for dim, repeats in ((100, 11), (200, 5), (400, 3)):
        out[f"analytic.to_density_matrix.d{dim}_ms"] = 1e3 * _median_seconds(
            lambda: analytic.to_density_matrix(displaced, dim), repeats
        )
    return out
