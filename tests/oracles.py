"""Independent numerical oracles shared by several test modules.

These deliberately avoid the closed forms they are used to check: ensemble
averages are rebuilt from per-input output states by quadrature or sampling,
and entropies by direct summation over distributions.
"""

import functools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import expm

from bmc import DensityMatrix, InvalidDimensionError, InvalidParameterError, analytic, fock


def gauss_laguerre_ensemble_average(params, t, n_nodes=64, weight_cutoff=1e-16):
    """Radial Gauss-Laguerre average of per-input output states over the
    Gaussian ensemble p(eta) = (1/pi n_bar) exp(-|eta|^2 / n_bar).

    Substituting u = |eta|^2 / n_bar turns the radial integral into
    int_0^inf e^{-u} h(u) du; the angular integral is exact because phase
    averaging a displaced state keeps only the diagonal. Returns the averaged
    state and the dimension used.
    """
    nodes, weights = laggauss(n_nodes)
    keep = weights > weight_cutoff
    radial = [
        analytic.evolve_coherent_analytic(math.sqrt(params.n_bar * u), params, t)
        for u in nodes[keep]
    ]
    mixture = analytic.ensemble_average_state(params, t)
    dim = max(
        max(analytic.suggested_dim(s) for s in radial),
        analytic.suggested_dim(mixture),
    )
    acc = np.zeros((dim, dim), dtype=complex)
    for w, state in zip(weights[keep], radial):
        mat = analytic.to_density_matrix(state, dim).entries
        acc += w * np.diag(np.diag(mat))
    acc /= weights[keep].sum()
    return DensityMatrix(acc), dim


def gauss_laguerre_scalar_average(fn, n_bar, n_nodes=64):
    """Radial Gauss-Laguerre average of a function of |eta| over the Gaussian
    ensemble of mean n_bar; fn receives the real amplitude |eta|."""
    nodes, weights = laggauss(n_nodes)
    return float(sum(w * fn(math.sqrt(n_bar * u)) for u, w in zip(nodes, weights)))


def coherent_amplitude_rows(alphas, dim):
    """Row i holds the Fock amplitudes of |alphas[i]> (not renormalized)."""
    alphas = np.asarray(alphas, dtype=complex)
    factors = np.ones((alphas.size, dim), dtype=complex)
    factors[:, 1:] = alphas[:, None] / np.sqrt(np.arange(1, dim))[None, :]
    return np.cumprod(factors, axis=1) * np.exp(-0.5 * np.abs(alphas) ** 2)[:, None]


def monte_carlo_ensemble_average(params, t, n_samples, seed):
    """Sampled ensemble average of channel outputs.

    Draws eta from the Gaussian input ensemble, damps it to the output
    displacement, adds the output's thermal fluctuations (thermal states are
    Gaussian mixtures of coherent states), and averages the resulting
    coherent projectors.
    """
    rng = np.random.default_rng(seed)
    eta = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)) * math.sqrt(
        params.n_bar / 2.0
    )
    displaced = eta * math.exp(-0.5 * params.gamma * t)
    n_th = analytic.beta_t(params, t)
    alpha = displaced + (
        rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    ) * math.sqrt(n_th / 2.0)
    peak = float(np.max(np.abs(alpha)) ** 2)
    dim = max(
        fock.suggested_dim(peak, peak),
        analytic.suggested_dim(analytic.ensemble_average_state(params, t)),
    )
    rows = coherent_amplitude_rows(alpha, dim)
    acc = (rows.T @ rows.conj()) / n_samples
    acc /= np.trace(acc).real
    return DensityMatrix(acc), dim


def thermal_entropy_by_summation(n_th, n_terms=4000):
    """Entropy in bits of the geometric photon-number distribution, by direct
    summation of -p log2 p (independent of any matrix eigendecomposition)."""
    if n_th == 0.0:
        return 0.0
    ratio = n_th / (1.0 + n_th)
    n = np.arange(n_terms)
    p = (1.0 / (1.0 + n_th)) * ratio**n
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@functools.lru_cache(maxsize=None)
def ladder_operators(dim):
    """Annihilation and creation matrices with <n-1|a|n> = sqrt(n).

    Cached per dimension; the returned arrays are read-only and shared.
    """
    if not isinstance(dim, int) or dim < 2:
        raise InvalidDimensionError(f"truncation dimension must be an integer >= 2, got {dim!r}")
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    adag = a.conj().T.copy()
    a.setflags(write=False)
    adag.setflags(write=False)
    return a, adag


def expm_displacement(alpha, dim):
    """exp(alpha a^dag - alpha* a) by scaling-and-squaring of the truncated
    generator. Reference for the eigenbasis form in `bmc.fock`."""
    a, adag = ladder_operators(dim)
    alpha = complex(alpha)
    return expm(alpha * adag - alpha.conjugate() * a)


def complex_sandwich_state(state, dim):
    """D(alpha) thermal D(alpha)^dag in complex arithmetic, renormalized.

    D = Q V diag(e^{i r lambda}) V^T Q^dag with (lambda, V) the eigenpairs of
    the truncated sqrt(2) x (off-diagonals sqrt(1)..sqrt(dim-1)) and
    Q = diag((-i e^{i phi})^n) for alpha = r e^{i phi}; the state is the one
    product (D w) D^dag from the thermal weights w. Reference for the real
    parity-block build behind `bmc.analytic.to_density_matrix`."""
    alpha = complex(state.displacement)
    off = np.sqrt(np.arange(1, dim))
    evals, evecs = np.linalg.eigh(np.diag(off, k=1) + np.diag(off, k=-1))
    basis = evecs * ((-1j * alpha / abs(alpha)) ** np.arange(dim))[:, None]
    shift = (basis * np.exp(1j * abs(alpha) * evals)) @ basis.conj().T
    weights = np.diagonal(fock.thermal_state(state.thermal_photons, dim).entries).real
    mat = (shift * weights) @ shift.conj().T
    return DensityMatrix(mat / mat.trace().real)


def dense_lindblad_rhs(rho, params):
    """Master-equation right-hand side as dense products of the truncated
    ladder matrices: A rho + rho A plus the two sandwich terms, with the
    Hermitian drift A = -gamma/2 ((N+1) a^dag a + N a a^dag).
    Reference for the shifted multiply-add generator in `bmc.lindblad`."""
    rho = np.asarray(rho, dtype=complex)
    a, adag = ladder_operators(rho.shape[0])
    gamma = params.gamma
    n_res = params.reservoir_photons
    drift = (-0.5 * gamma) * ((n_res + 1.0) * (adag @ a) + n_res * (a @ adag))
    return (
        drift @ rho
        + rho @ drift
        + (gamma * (n_res + 1.0)) * (a @ rho @ adag)
        + (gamma * n_res) * (adag @ rho @ a)
    )


def flat_shift_generator(dim, params):
    """Return f(rho) = d(rho)/dt on the full dim x dim matrix, as shifted
    multiply-adds on the flattened rho.

    rho_{m+1,n+1} sits dim + 1 entries after rho_mn, and the loss and gain
    weights have a zero last row and column, so a shift that would wrap into
    the next row adds nothing. Reference for the band generator in
    `bmc.lindblad`, which must give the same bits on the upper bands.
    """
    gamma = params.gamma
    n_res = params.reservoir_photons
    levels = np.arange(dim, dtype=float)
    anti_number = levels + 1.0
    anti_number[-1] = 0.0
    diag = (-0.5 * gamma) * ((n_res + 1.0) * levels + n_res * anti_number)
    drift_sum = (diag[:, None] + diag[None, :]).ravel()
    root = np.append(np.sqrt(levels[1:]), 0.0)  # root[k] = sqrt(k + 1), then 0
    weights = np.outer(root, root)  # sqrt((k+1)(l+1)), zero last row and column
    shift = dim + 1
    loss = ((gamma * (n_res + 1.0)) * weights).ravel()[:-shift]
    gain = ((gamma * n_res) * weights).ravel()[:-shift]

    def f(rho: np.ndarray) -> np.ndarray:
        flat = rho.reshape(-1)
        out = drift_sum * flat
        out[:-shift] += loss * flat[shift:]
        if n_res != 0.0:
            out[shift:] += gain * flat[:-shift]
        return out.reshape(dim, dim)

    return f


# Classical Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl.
# Math. 6, 19 (1980)) in exact fractions. Row i of DP_A weighs the stages
# before stage i + 1; DP_B weighs the first six stages into the fifth-order
# solution, and DP_E all seven into the error estimate, the seventh stage
# being f at that solution.
DP_A = tuple(
    tuple(map(Fraction, row))
    for row in (
        ("1/5",),
        ("3/40", "9/40"),
        ("44/45", "-56/15", "32/9"),
        ("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
        ("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
    )
)
DP_B = tuple(map(Fraction, ("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84")))
DP_E = tuple(
    map(Fraction, ("71/57600", "0", "-71/16695", "71/1920", "-17253/339200", "22/525", "-1/40"))
)


def dormand_prince_linear_step():
    """The tableau's step on a linear y' = L y, in exact arithmetic.

    Returns (R, E, e_new): with z = hL, the step is y1 = sum_k R[k] z^k y and
    its error estimate sum_k E[k] z^k y + e_new z y1. Each stage h k_i is a
    polynomial in z applied to y, held as its list of coefficients.
    """

    def axpy(a, x, y):
        n = max(len(x), len(y))
        x, y = x + [Fraction(0)] * (n - len(x)), y + [Fraction(0)] * (n - len(y))
        return [a * xi + yi for xi, yi in zip(x, y)]

    stages = [[Fraction(0), Fraction(1)]]  # h k1 = z y
    for row in DP_A:
        arg = [Fraction(1)]
        for a, stage in zip(row, stages):
            arg = axpy(a, stage, arg)
        stages.append([Fraction(0)] + arg)  # h k_i = z (y + sum_j a_ij h k_j)
    step = [Fraction(1)]
    for b, stage in zip(DP_B, stages):
        step = axpy(b, stage, step)
    error = [Fraction(0)]
    for e, stage in zip(DP_E[:6], stages):
        error = axpy(e, stage, error)
    return step, error, DP_E[6]


def golden_section_maximize(
    fn, lo: float, hi: float, rel_tol: float = 1e-10, max_iter: int = 500
) -> tuple[float, float]:
    """Golden-section maximization of a unimodal scalar function on [lo, hi].

    Returns (argmax, max). The optimizer-independent cross-check for
    `bmc.optimal_nbar`.
    """
    if not lo < hi:
        raise InvalidParameterError(f"need lo < hi, got [{lo}, {hi}]")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(1.0, abs(lo) + abs(hi)):
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    x_best = 0.5 * (lo + hi)
    return x_best, fn(x_best)
