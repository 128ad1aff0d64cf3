"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run pytest with -s or
-rA to see them) and then asserts, so a red run still reports every line.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bmc import (
    ChannelParams,
    average_fidelity,
    beta_t,
    channel_capacity,
    coherent_state,
    ensemble_average_state,
    evolve,
    evolve_coherent_analytic,
    evolve_trajectory,
    g_entropy,
    optimal_nbar,
    projector,
    theta_at_nbar,
    to_density_matrix,
    trace_distance,
    von_neumann_entropy,
)
from bmc import analytic, cli
from oracles import gauss_laguerre_ensemble_average, golden_section_maximize

REF = ChannelParams(gamma=0.1, beta_rate=0.01, n_bar=5.0)
ETAS = (0.0 + 0.0j, 0.5 + 0.0j, 1.0 + 0.0j, 1.0 + 1.0j)
GRID_TIMES = (0.1, 0.5, 1.0, 5.0, 20.0)
EXTRA_TIMES = (0.25, 2.0, 10.0)  # extra samples for the invariant sweep
DIM = 50


def report(number, passed, detail):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def evolved_grid():
    """Integrated trajectories for every input amplitude of the oracle grid."""
    sample_times = sorted(set(GRID_TIMES) | set(EXTRA_TIMES))
    start = time.time()
    trajectories = {
        eta: evolve_trajectory(projector(coherent_state(eta, DIM)), REF, sample_times)
        for eta in ETAS
    }
    return trajectories, time.time() - start


def test_criterion_1_oracle_equivalence(evolved_grid):
    trajectories, elapsed = evolved_grid
    worst = -1.0
    worst_at = None
    for eta, trajectory in trajectories.items():
        states = dict(trajectory)
        for t in GRID_TIMES:
            exact = to_density_matrix(evolve_coherent_analytic(eta, REF, t), DIM)
            dist = trace_distance(states[t], exact)
            if dist > worst:
                worst, worst_at = dist, (eta, t)
    passed = worst <= 1e-6
    assert report(
        1,
        passed,
        f"integrator vs closed form: worst trace distance {worst:.3e} at "
        f"(eta={worst_at[0]}, t={worst_at[1]}) <= 1e-6; grid integrated in "
        f"{elapsed:.1f} s",
    )


def test_criterion_2_entropy_identity(evolved_grid):
    trajectories, _ = evolved_grid
    worst_gap = -1.0
    worst_spread = -1.0
    for t in GRID_TIMES:
        expected = g_entropy(beta_t(REF, t))
        entropies = [
            von_neumann_entropy(dict(trajectories[eta])[t]) for eta in ETAS
        ]
        worst_gap = max(worst_gap, max(abs(s - expected) for s in entropies))
        worst_spread = max(worst_spread, max(entropies) - min(entropies))
    passed = worst_gap <= 1e-6 and worst_spread <= 1e-7
    assert report(
        2,
        passed,
        f"evolved-state entropy vs (1+b)log2(1+b) - b log2 b: worst gap "
        f"{worst_gap:.3e} <= 1e-6, worst spread across eta {worst_spread:.3e} <= 1e-7",
    )


def test_criterion_3_capacity_consistency():
    start = time.time()
    worst = -1.0
    worst_at = None
    count = 0
    for n_bar in range(1, 11):
        for beta in np.linspace(0.01, 0.1, 10):
            for gamma in np.linspace(0.1, 0.5, 5):
                params = ChannelParams(
                    gamma=float(gamma), beta_rate=float(beta), n_bar=float(n_bar)
                )
                for t in (0.5, 1.0, 2.0, 5.0):
                    mixture = ensemble_average_state(params, t)
                    single = evolve_coherent_analytic(0.0, params, t)
                    dim = analytic.suggested_dim(mixture)
                    eigen_route = von_neumann_entropy(
                        to_density_matrix(mixture, dim)
                    ) - von_neumann_entropy(to_density_matrix(single, dim))
                    gap = abs(channel_capacity(params, t) - eigen_route)
                    count += 1
                    if gap > worst:
                        worst, worst_at = gap, (n_bar, float(beta), float(gamma), t)
    elapsed = time.time() - start
    passed = worst <= 1e-6 and elapsed < 120.0
    assert report(
        3,
        passed,
        f"subtracted-g capacity vs eigendecomposition route over {count} grid "
        f"points: worst gap {worst:.3e} bits <= 1e-6 at {worst_at}; {elapsed:.1f} s",
    )


def test_criterion_4_boundary_values():
    checks = []
    for n_bar in (1.0, 5.0, 10.0):
        params = replace(REF, n_bar=n_bar)
        checks.append(abs(channel_capacity(params, 0.0) - g_entropy(n_bar)) <= 1e-12)
    late = channel_capacity(REF, 1e6 / REF.gamma)
    checks.append(0.0 <= late <= 1e-9)
    checks.append(average_fidelity(REF, 0.0) == 1.0)
    passed = all(checks)
    assert report(
        4,
        passed,
        f"chi(0) = g(n_bar) to 1e-12, chi(1e6/gamma) = {late:.3e} <= 1e-9, "
        f"avg fidelity(0) = 1 exactly",
    )


def test_criterion_5_figure_monotonicity():
    ok = True
    detail = []
    for preset, direction in (("fig1", "+"), ("fig2", "-"), ("fig3", "-")):
        rows = cli.sweep_rows(cli.preset_spec(preset))
        by_t = {}
        for value, point in rows:
            by_t.setdefault(point.t, []).append((value, point.chi))
        for t, series in by_t.items():
            chis = [chi for _, chi in sorted(series)]
            diffs = [b - a for a, b in zip(chis, chis[1:])]
            if direction == "+":
                ok &= all(d > 0 for d in diffs)
            else:
                ok &= all(d < 0 for d in diffs)
        detail.append(f"{preset}: chi strictly {'increasing' if direction == '+' else 'decreasing'}")
    # average fidelity strictly decreasing in n_bar at fixed t > 0
    fid_rows = cli.sweep_rows(cli.preset_spec("fig1"))
    by_t = {}
    for value, point in fid_rows:
        by_t.setdefault(point.t, []).append((value, point.avg_fidelity))
    for series in by_t.values():
        fbars = [f for _, f in sorted(series)]
        ok &= all(b < a for a, b in zip(fbars, fbars[1:]))
    assert report(5, ok, "; ".join(detail) + "; avg fidelity strictly decreasing in n_bar")


def test_criterion_6_ensemble_average_quadrature():
    quad, dim = gauss_laguerre_ensemble_average(REF, 1.0, n_nodes=64)
    closed = to_density_matrix(ensemble_average_state(REF, 1.0), dim)
    dist = trace_distance(quad, closed)
    passed = dist <= 1e-6
    assert report(
        6,
        passed,
        f"64-node radial quadrature vs closed-form thermal mixture: trace "
        f"distance {dist:.3e} <= 1e-6 at dim={dim}",
    )


def test_criterion_7_optimal_signal():
    result = optimal_nbar(REF, 1.0)
    golden_x, _ = golden_section_maximize(
        lambda n: theta_at_nbar(REF, 1.0, n), 1e-6, 1000.0
    )
    rel = abs(golden_x - result.n_bar_opt) / result.n_bar_opt
    delta = 1e-3 * result.n_bar_opt
    neighbors_ok = (
        theta_at_nbar(REF, 1.0, result.n_bar_opt + delta) <= result.theta_at_opt
        and theta_at_nbar(REF, 1.0, result.n_bar_opt - delta) <= result.theta_at_opt
    )
    passed = result.interior_optimum and rel <= 1e-6 and neighbors_ok
    assert report(
        7,
        passed,
        f"exact-derivative root n_opt={result.n_bar_opt:.6f} vs golden section "
        f"{golden_x:.6f} (rel diff {rel:.2e} <= 1e-6); neighbors below maximum; "
        f"criterion residual {result.criterion_residual:.6e} (reported, "
        f"not asserted)",
    )


def test_criterion_8_structural_invariants(evolved_grid):
    trajectories, _ = evolved_grid
    worst_trace = -1.0
    worst_herm = -1.0
    worst_eig = math.inf
    for trajectory in trajectories.values():
        for t, state in trajectory:
            if t == 0.0:
                continue
            worst_trace = max(worst_trace, abs(state.trace() - 1.0))
            worst_herm = max(
                worst_herm,
                float(np.max(np.abs(state.entries - state.entries.conj().T))),
            )
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(state.entries)[0]))
    worst_semigroup = -1.0
    for eta in ETAS:
        rho0 = projector(coherent_state(eta, DIM))
        split = evolve(evolve(rho0, REF, 0.4), REF, 0.6)
        direct = evolve(rho0, REF, 1.0)
        worst_semigroup = max(worst_semigroup, trace_distance(split, direct))
    passed = (
        worst_trace <= 1e-8
        and worst_herm <= 1e-10
        and worst_eig >= -1e-8
        and worst_semigroup <= 1e-7
    )
    assert report(
        8,
        passed,
        f"along trajectories: |trace-1| <= {worst_trace:.2e} (<=1e-8), "
        f"hermiticity <= {worst_herm:.2e} (<=1e-10), min eigenvalue "
        f">= {worst_eig:.2e} (>=-1e-8); semigroup split 0.4+0.6 vs 1.0: "
        f"trace distance <= {worst_semigroup:.2e} (<=1e-7)",
    )
