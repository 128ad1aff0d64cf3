"""Truncated Fock-space linear algebra for a single bosonic mode.

Everything lives on the space spanned by the number states |0>..|dim-1>.
The module provides the canonical states (number, coherent, thermal,
displaced) and the displacement operator, the base-2 von Neumann entropy,
and the state-comparison metrics used by the integrator and the test suites.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    NotAStateError,
    TruncationWarning,
)

# Default tolerances for the density-matrix invariant triple.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9

# Coherent-state truncation losses above this level trigger a warning.
COHERENT_LOSS_TOL = 1e-6

# Eigenvalues at or below this level contribute nothing to the entropy.
_ENTROPY_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator on a truncated Fock space.

    Immutable after construction; `validate` checks the invariant triple
    (Hermiticity, unit trace, positivity) at configurable tolerances.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InvalidDimensionError(
                f"density matrix must be square, got shape {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, computed once per state; read-only.

        An exactly diagonal matrix (thermal and mixed states) skips the
        solver. `validate` and `von_neumann_entropy` both read this.
        """
        diagonal = np.diagonal(self.entries)
        if np.count_nonzero(self.entries) == np.count_nonzero(diagonal):
            evals = np.sort(diagonal.real)
        else:
            evals = np.linalg.eigvalsh(self.entries)
        evals.setflags(write=False)
        return evals

    def validate(
        self,
        *,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
        psd_tol: float = POSITIVITY_TOL,
    ) -> "DensityMatrix":
        """Check the invariant triple; return self or raise NotAStateError."""
        herm_dev = float(np.max(np.abs(self.entries - self.entries.conj().T)))
        if not herm_dev <= herm_tol:
            raise NotAStateError(
                f"not Hermitian: max deviation {herm_dev:.3e} > {herm_tol:.1e}"
            )
        trace_dev = abs(self.trace() - 1.0)
        if not trace_dev <= trace_tol:
            raise NotAStateError(
                f"trace deviates from 1 by {trace_dev:.3e} > {trace_tol:.1e}"
            )
        min_eig = float(self.spectrum[0])
        if not min_eig >= -psd_tol:
            raise NotAStateError(
                f"not positive semidefinite: min eigenvalue {min_eig:.3e} < -{psd_tol:.1e}"
            )
        return self


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on a truncated Fock space.

    `truncation_loss` reports the probability weight lost to truncation by
    the constructor (zero for states that fit exactly).
    """

    amplitudes: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.shape[0] < 1:
            raise InvalidDimensionError(
                f"state vector must be one-dimensional, got shape {vec.shape}"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_dim(dim) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 2:
        raise InvalidDimensionError(f"truncation dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def number_state(n: int, dim: int) -> StateVector:
    """Number state |n> on the truncated space."""
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise InvalidDimensionError(f"number state index {n} outside 0..{dim - 1}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return StateVector(vec)


def _coherent_amplitudes(eta: complex, dim: int) -> tuple[np.ndarray, float]:
    # Stable recurrence c_n = c_{n-1} * eta / sqrt(n) starting from the
    # vacuum overlap, instead of eta**n / sqrt(n!) which overflows early.
    eta = complex(eta)
    if not (math.isfinite(eta.real) and math.isfinite(eta.imag)):
        raise InvalidParameterError(f"coherent amplitude must be finite, got {eta}")
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(eta) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * eta / math.sqrt(n)
    loss = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    return c, loss


def coherent_truncation_loss(eta: complex, dim: int) -> float:
    """Probability weight of |eta> lost beyond the first `dim` levels."""
    return _coherent_amplitudes(complex(eta), _check_dim(dim))[1]


def coherent_state(eta: complex, dim: int) -> StateVector:
    """Coherent state |eta> with amplitudes e^{-|eta|^2/2} eta^n / sqrt(n!).

    The amplitudes are not renormalized after truncation; the lost weight is
    reported on the returned state and a TruncationWarning is emitted when it
    exceeds COHERENT_LOSS_TOL.
    """
    dim = _check_dim(dim)
    amps, loss = _coherent_amplitudes(eta, dim)
    if loss > COHERENT_LOSS_TOL:
        warnings.warn(
            f"coherent state |{eta}> loses weight {loss:.3e} at dim={dim}; "
            f"suggest dim >= {suggested_dim(abs(eta) ** 2, abs(eta) ** 2)}",
            TruncationWarning,
            stacklevel=2,
        )
    return StateVector(amps, truncation_loss=loss)


# Bounded because one basis holds dim^2 doubles (1.3 MB at dim = 400); a
# quadrature over a few dozen nodes needs one dimension per node.
@functools.lru_cache(maxsize=128)
def _hermite_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lambda, V) of the real tridiagonal S with off-diagonals
    sqrt(1)..sqrt(dim-1), the truncated sqrt(2) x; read-only and shared.

    Its eigenvalues are sqrt(2) times the roots of the Hermite polynomial
    H_dim (Golub & Welsch, Math. Comp. 23, 221 (1969)).
    """
    off = np.sqrt(np.arange(1, dim))
    evals, evecs = np.linalg.eigh(np.diag(off, k=1) + np.diag(off, k=-1))
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """Displacement matrix exp(alpha a+ - alpha* a) on the truncated space.

    With alpha = r e^{i phi} the generator is i r Q S Q+, where
    Q = diag((-i e^{i phi})^n) and S is the truncated sqrt(2) x, so the
    exponential is Q V diag(e^{i r lambda}) V^T Q+ from the cached
    eigenbasis of S. It is exact and unitary on the truncated space, the
    same matrix a matrix exponential of the truncated generator gives.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    loss = coherent_truncation_loss(alpha, dim)
    if loss > COHERENT_LOSS_TOL:
        warnings.warn(
            f"displacement by {alpha} is truncated (loss {loss:.3e}) at dim={dim}",
            TruncationWarning,
            stacklevel=2,
        )
    evals, evecs = _hermite_eigenbasis(dim)
    r = abs(alpha)
    basis = evecs * ((-1j * alpha / r) ** np.arange(dim))[:, None]
    return (basis * np.exp(1j * r * evals)) @ basis.conj().T


def projector(state: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| / <psi|psi>."""
    norm_sq = float(np.sum(np.abs(state.amplitudes) ** 2))
    if norm_sq <= 0.0:
        raise NotAStateError("cannot project a zero state vector")
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()) / norm_sq)


def thermal_state(n_th: float, dim: int) -> DensityMatrix:
    """Thermal state with mean occupation n_th, renormalized after truncation.

    Diagonal weights n_th^n / (1 + n_th)^{n+1}; choose `dim` so the truncated
    tail is negligible (see thermal_tail_dim).
    """
    dim = _check_dim(dim)
    n_th = float(n_th)
    if not math.isfinite(n_th) or n_th < 0.0:
        raise InvalidParameterError(f"thermal occupation must be >= 0, got {n_th}")
    if n_th == 0.0:
        return projector(number_state(0, dim))
    ratio = n_th / (1.0 + n_th)
    weights = (1.0 / (1.0 + n_th)) * ratio ** np.arange(dim)
    weights /= weights.sum()
    return DensityMatrix(np.diag(weights.astype(complex))).validate()


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 entropy -sum(lambda log2 lambda) over the eigenvalues of rho.

    Eigenvalues below the clipping floor are treated as exact zeros; an
    eigenvalue below -POSITIVITY_TOL means the input is not a state.
    """
    evals = rho.spectrum
    if float(evals[0]) < -POSITIVITY_TOL:
        raise NotAStateError(
            f"entropy of a non-positive matrix (min eigenvalue {evals[0]:.3e})"
        )
    evals = evals[evals > _ENTROPY_FLOOR]
    return float(-np.sum(evals * np.log2(evals)))


def fidelity_with_coherent(rho: DensityMatrix, eta: complex) -> float:
    """Overlap <eta| rho |eta> as a real number.

    The imaginary part of the raw matrix element must vanish to 1e-10; a
    larger value means rho is not Hermitian enough to be a state.
    """
    amps, loss = _coherent_amplitudes(complex(eta), rho.dim)
    if loss > COHERENT_LOSS_TOL:
        warnings.warn(
            f"fidelity with |{eta}> is truncated (loss {loss:.3e}) at dim={rho.dim}",
            TruncationWarning,
            stacklevel=2,
        )
    value = complex(np.vdot(amps, rho.entries @ amps))
    if abs(value.imag) > 1e-10:
        raise NotAStateError(
            f"coherent-state overlap has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of rho1 - rho2."""
    if rho1.dim != rho2.dim:
        raise DimensionMismatchError(
            f"trace distance between dim {rho1.dim} and dim {rho2.dim} states"
        )
    evals = np.linalg.eigvalsh(rho1.entries - rho2.entries)
    return float(0.5 * np.sum(np.abs(evals)))


def mean_photon_number(rho: DensityMatrix) -> float:
    """Expectation of the number operator, Tr(rho a+ a)."""
    return float(np.real(np.diagonal(rho.entries)) @ np.arange(rho.dim))


def field_amplitude(rho: DensityMatrix) -> complex:
    """Expectation of the annihilation operator, Tr(rho a)."""
    sub = np.diagonal(rho.entries, offset=-1)
    return complex(np.sum(np.sqrt(np.arange(1, rho.dim)) * sub))


def suggested_dim(mean_photons: float, variance: float) -> int:
    """Truncation heuristic: dim >= mean + 8 sqrt(variance + 1) + 10."""
    if mean_photons < 0 or variance < 0:
        raise InvalidParameterError("photon-number moments must be >= 0")
    return max(2, math.ceil(mean_photons + 8.0 * math.sqrt(variance + 1.0) + 10.0))


def thermal_tail_dim(n_th: float, tail: float = 1e-9) -> int:
    """Smallest dim whose truncated thermal tail weight is at most `tail`."""
    if n_th < 0:
        raise InvalidParameterError(f"thermal occupation must be >= 0, got {n_th}")
    if not 0.0 < tail < 1.0:
        raise InvalidParameterError(f"tail weight must be in (0, 1), got {tail}")
    if n_th == 0.0:
        return 2
    return max(2, math.ceil(math.log(tail) / math.log(n_th / (1.0 + n_th))))
