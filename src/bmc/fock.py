"""Truncated Fock-space linear algebra for a single bosonic mode.

Everything lives on the space spanned by the number states |0>..|dim-1>.
The module provides the canonical states (number, coherent, thermal,
displaced) and the displacement operator, the base-2 von Neumann entropy,
and the state-comparison metrics used by the integrator and the test suites.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

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

# Thermal weights below this fraction of the largest are left out of a
# displaced thermal state (see `displaced_thermal_state`).
_NEGLIGIBLE_WEIGHT = np.finfo(float).eps ** 2

# Eigenvalues at or below this level contribute nothing to the entropy.
_ENTROPY_FLOOR = 1e-14

# Thermal tail weight `thermal_tail_dim` leaves beyond the cutoff.
_TAIL_WEIGHT = 1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator on a truncated Fock space.

    Immutable after construction; `validate` checks the invariant triple
    (Hermiticity, unit trace, positivity) at configurable tolerances.
    """

    entries: np.ndarray
    # Real symmetric R with entries = Q R Q+ for a diagonal unitary Q, when
    # the state was built that way (see `_from_phased_real`); else None.
    _real: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InvalidDimensionError(
                f"density matrix must be square, got shape {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def _from_phased_real(cls, phases: np.ndarray, real: np.ndarray) -> "DensityMatrix":
        """The matrix Q R Q+ with Q = diag(phases) unitary and R real.

        `entries` is formed here from (phases, R), so the two cannot
        disagree, and `spectrum` diagonalizes the read-only R, which has
        the same eigenvalues because Q is unitary.
        """
        phases = np.asarray(phases, dtype=complex)
        if not np.all(np.abs(np.abs(phases) - 1.0) <= 1e-12):
            raise InvalidParameterError("phases of a diagonal unitary must have unit modulus")
        real = np.array(real, dtype=float)
        rho = cls(real * np.outer(phases, phases.conj()))
        real.setflags(write=False)
        object.__setattr__(rho, "_real", real)
        return rho

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, computed once per state; read-only.

        An exactly diagonal matrix (thermal and mixed states) skips the
        solver, and a state built from (phases, R) diagonalizes the real R.
        `validate` and `von_neumann_entropy` both read this.
        """
        mat = self.entries if self._real is None else self._real
        diagonal = np.diagonal(mat)
        if np.count_nonzero(mat) == np.count_nonzero(diagonal):
            evals = np.sort(diagonal.real)
        else:
            evals = np.linalg.eigvalsh(mat)
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
        # Q R Q+ with Q diagonal unitary deviates from Hermitian exactly as R
        # from symmetric, element by element, so a (phases, R) state checks R.
        mat = self.entries if self._real is None else self._real
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
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


def _check_amplitude(eta) -> complex:
    # |eta|^2 is checked as well: one that overflows would make every
    # Poisson weight NaN and the truncation loss a silent zero.
    eta = complex(eta)
    if not math.isfinite(eta.real * eta.real + eta.imag * eta.imag):
        raise InvalidParameterError(
            f"coherent amplitude must be finite, with a finite |eta|^2, got {eta}"
        )
    return eta


def _lost_weight(eta: complex, dim: int) -> float:
    # One minus the Poisson mass e^{-x} x^n / n! (x = |eta|^2) of the kept
    # levels, as one running product; splitting e^{-x} into two halves keeps
    # the partial products finite up to x ~ 1400, where the amplitudes'
    # own e^{-x/2} underflows.
    x = abs(eta) ** 2
    half = math.exp(-0.5 * x)
    steps = np.empty(dim)
    steps[0] = half
    steps[1:] = x / np.arange(1, dim)
    return max(0.0, 1.0 - half * float(np.sum(np.cumprod(steps))))


def _coherent_amplitudes(eta: complex, dim: int) -> tuple[np.ndarray, float]:
    # Stable recurrence c_n = c_{n-1} * eta / sqrt(n) starting from the
    # vacuum overlap, instead of eta**n / sqrt(n!) which overflows early.
    eta = _check_amplitude(eta)
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(eta) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * eta / math.sqrt(n)
    return c, _lost_weight(eta, dim)


def coherent_truncation_loss(eta: complex, dim: int) -> float:
    """Probability weight of |eta> lost beyond the first `dim` levels."""
    return _lost_weight(_check_amplitude(eta), _check_dim(dim))


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
            f"suggest dim >= {_displaced_thermal_dim(eta, 0.0)}",
            TruncationWarning,
            stacklevel=2,
        )
    return StateVector(amps, truncation_loss=loss)


# Bounded because one basis holds about dim^2 / 2 doubles (0.64 MB at
# dim = 400); a quadrature over a few dozen nodes needs one dimension per node.
@functools.lru_cache(maxsize=128)
def _parity_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD (U, sigma, W) of the odd<-even block B of the real generator
    a+ - a on `dim` levels; read-only and shared.

    B is bidiagonal, B[j, j] = sqrt(2j+1) and B[j, j+1] = -sqrt(2j+2), and
    B = U diag(sigma) W^T with U square of order dim // 2 and W square of
    order dim - dim // 2. sigma holds the positive eigenvalues of the
    truncated sqrt(2) x, which are sqrt(2) times the positive roots of the
    Hermite polynomial H_dim (Golub & Welsch, Math. Comp. 23, 221 (1969)).
    """
    odd = dim // 2
    block = np.zeros((odd, dim - odd))
    j = np.arange(odd)
    block[j, j] = np.sqrt(2.0 * j + 1.0)
    upper = j[: (dim - 1) // 2]
    block[upper, upper + 1] = -np.sqrt(2.0 * upper + 2.0)
    left, sigma, right_t = np.linalg.svd(block)
    right = right_t.T
    for arr in (left, sigma, right):
        arr.setflags(write=False)
    return left, sigma, right


def _real_displacement(r: float, dim: int) -> np.ndarray:
    """O(r) = exp(r (a+ - a)) on the truncated space: real orthogonal.

    The generator only links even and odd levels, so O splits into parity
    blocks from the SVD of its odd<-even block B: W cos(r sigma) W^T on the
    even levels (cos padded with a 1 when dim is odd), U cos(r sigma) U^T on
    the odd ones, L = U sin(r sigma) W[:, :dim // 2]^T (odd rows, even
    columns) and -L^T.
    """
    left, sigma, right = _parity_basis(dim)
    odd = dim // 2
    cos = np.cos(r * sigma)
    lower = (left * np.sin(r * sigma)) @ right[:, :odd].T
    out = np.empty((dim, dim))
    out[0::2, 0::2] = (right * np.append(cos, np.ones(dim - 2 * odd))) @ right.T
    out[1::2, 1::2] = (left * cos) @ left.T
    out[1::2, 0::2] = lower
    out[0::2, 1::2] = -lower.T
    return out


def _displacement_phases(alpha: complex, dim: int) -> np.ndarray:
    """Diagonal of Q' = diag(e^{i phi n}) for alpha = r e^{i phi}."""
    return np.exp(1j * cmath.phase(alpha) * np.arange(dim))


def _warn_if_truncated(alpha: complex, dim: int) -> None:
    loss = coherent_truncation_loss(alpha, dim)
    if loss > COHERENT_LOSS_TOL:
        warnings.warn(
            f"displacement by {alpha} is truncated (loss {loss:.3e}) at dim={dim}",
            TruncationWarning,
            stacklevel=3,
        )


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """Displacement matrix exp(alpha a+ - alpha* a) on the truncated space.

    With alpha = r e^{i phi} the generator is r Q' (a+ - a) Q'+ with
    Q' = diag(e^{i phi n}), so the matrix is Q' O(r) Q'+ with the real
    orthogonal O(r) = exp(r (a+ - a)) built in parity blocks. It is exact
    and unitary on the truncated space, the same matrix a matrix
    exponential of the truncated generator gives.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    _warn_if_truncated(alpha, dim)
    phases = _displacement_phases(alpha, dim)
    return _real_displacement(abs(alpha), dim) * np.outer(phases, phases.conj())


def projector(state: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| / <psi|psi>."""
    norm_sq = float(np.sum(np.abs(state.amplitudes) ** 2))
    if norm_sq <= 0.0:
        raise NotAStateError("cannot project a zero state vector")
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()) / norm_sq)


def displaced_thermal_state(alpha: complex, n_th: float, dim: int) -> DensityMatrix:
    """D(alpha) thermal(n_th) D+(alpha), renormalized after truncation; validated.

    The thermal weights w_n = n_th^n / (1 + n_th)^{n+1} are formed once; a
    TruncationWarning is emitted when their dropped tail, or the weight the
    displacement moves past the cutoff, exceeds COHERENT_LOSS_TOL. At
    alpha = 0 the state is diagonal. Otherwise diag(w) commutes with Q', so
    the state is Q' R Q'+ with the real symmetric R = O(r) diag(w) O(r)^T,
    built and, through `DensityMatrix.spectrum`, diagonalized in real
    arithmetic.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    n_th = float(n_th)
    if not math.isfinite(n_th) or n_th < 0.0:
        raise InvalidParameterError(f"thermal occupation must be >= 0, got {n_th}")
    ratio = n_th / (1.0 + n_th)
    tail = ratio**dim
    if tail > COHERENT_LOSS_TOL:
        warnings.warn(
            f"thermal state with {n_th:.4g} photons loses weight {tail:.3e} at "
            f"dim={dim}; suggest dim >= {thermal_tail_dim(n_th)}",
            TruncationWarning,
            stacklevel=2,
        )
    weights = (1.0 / (1.0 + n_th)) * ratio ** np.arange(dim)
    weights /= weights.sum()
    if alpha == 0:
        return DensityMatrix(np.diag(weights)).validate()
    _warn_if_truncated(alpha, dim)
    # Levels below eps^2 of the largest weight move no entry or eigenvalue
    # beyond rounding; leaving them out also keeps subnormal products, and
    # their slow arithmetic, out of the matrix product.
    kept = weights > _NEGLIGIBLE_WEIGHT * weights.max()
    columns = _real_displacement(abs(alpha), dim)[:, kept]
    real = (columns * weights[kept]) @ columns.T
    real /= np.trace(real)
    return DensityMatrix._from_phased_real(_displacement_phases(alpha, dim), real).validate()


def thermal_state(n_th: float, dim: int) -> DensityMatrix:
    """Thermal state with mean occupation n_th, renormalized after truncation.

    Diagonal weights n_th^n / (1 + n_th)^{n+1}, the undisplaced case of
    `displaced_thermal_state`; a TruncationWarning suggests `thermal_tail_dim`
    when the dropped tail exceeds COHERENT_LOSS_TOL.
    """
    return displaced_thermal_state(0, n_th, dim)


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
    if not (0.0 <= mean_photons < math.inf and 0.0 <= variance < math.inf):
        raise InvalidParameterError(
            f"photon-number moments must be finite and >= 0, got mean {mean_photons}, "
            f"variance {variance}"
        )
    return max(2, math.ceil(mean_photons + 8.0 * math.sqrt(variance + 1.0) + 10.0))


def thermal_tail_dim(n_th: float) -> int:
    """Smallest dim whose truncated thermal tail weight is at most 1e-9."""
    if not 0.0 <= n_th < math.inf:
        raise InvalidParameterError(f"thermal occupation must be finite and >= 0, got {n_th}")
    if n_th == 0.0:
        return 2
    # (n / (1 + n))^dim <= tail; log1p(1 / n) stays nonzero where n / (1 + n) rounds to 1.
    dim = -math.log(_TAIL_WEIGHT) / math.log1p(1.0 / n_th)
    if not math.isfinite(dim):
        raise InvalidParameterError(
            f"a thermal state with {n_th} photons needs a dimension beyond float range"
        )
    return max(2, math.ceil(dim))


def _displaced_thermal_dim(alpha: complex, n_th: float) -> int:
    """Truncation dimension for D(alpha) thermal(n_th) D+(alpha).

    The larger of `suggested_dim` for its photon-number mean |alpha|^2 + n_th
    and variance |alpha|^2 (2 n_th + 1) + n_th (n_th + 1), and of
    `thermal_tail_dim(n_th)`. Coherent states have n_th = 0, undisplaced
    thermal states alpha = 0.
    """
    alpha_sq = abs(alpha) ** 2
    return max(
        suggested_dim(alpha_sq + n_th, alpha_sq * (2.0 * n_th + 1.0) + n_th * (n_th + 1.0)),
        thermal_tail_dim(n_th),
    )
