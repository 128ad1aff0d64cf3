"""Truncated Fock-space linear algebra for a single bosonic mode.

Everything lives on the space spanned by the number states |0>..|dim-1>.
The module provides the canonical states (number, coherent, thermal,
displaced) and the displacement operator, the base-2 von Neumann entropy,
and the state-comparison metrics used by the integrator and the test suites.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidTimeError,
    NotAStateError,
    TruncationWarning,
)

# Default tolerances for the density-matrix invariant triple.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9

# The reading tier: the deviation from Hermitian up to which a spectrum, or a
# trace distance (twice it, for a difference of two states), is read, and the
# negative eigenvalue up to which an entropy is. The integrator checks its
# input and outputs at this tier, so every state it accepts or returns can be read.
_SPECTRUM_HERM_TOL = 1e-10
_SPECTRUM_PSD_TOL = 1e-8

# Truncation losses above this level are reported (`_check_truncation`).
COHERENT_LOSS_TOL = 1e-6

# Thermal weights below this fraction of the largest are left out of a
# displaced thermal state (see `displaced_thermal_state`).
_NEGLIGIBLE_WEIGHT = np.finfo(float).eps ** 2

# Eigenvalues at or below this level contribute nothing to the entropy.
_ENTROPY_FLOOR = 1e-14

# Weight `analytic.suggested_dim` leaves beyond the cutoff.
_TAIL_WEIGHT = 1e-9

# Per-level phase mismatch up to which `trace_distance` compares two states
# kept in a frame by their real cores: the closed-form output phases carry
# up to about dim * eps of round-off against those of the coherent input.
_PHASE_MATCH_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Density operator on a truncated Fock space, kept as a frame and a core.

    The state is Q C Q+ with Q = diag(q_n) the phases of a displacement by
    `_alpha` (`_displacement_phases`) and C the read-only core `_core`: the
    real R of a state built in that frame (`_framed`), or the complex entries
    of a state given by them, whose frame is the identity (`_alpha` = 0).
    Immutable after construction; `validate` checks the invariant triple
    (Hermiticity, unit trace, positivity) at configurable tolerances.
    """

    _alpha: complex
    _core: np.ndarray

    def __init__(self, entries: np.ndarray):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InvalidDimensionError(
                f"density matrix must be square, got shape {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise NotAStateError("density matrix has a NaN or infinite entry")
        mat.setflags(write=False)
        object.__setattr__(self, "_alpha", 0j)
        object.__setattr__(self, "_core", mat)

    @classmethod
    def _framed(cls, alpha: complex, core: np.ndarray, spectrum=None) -> "DensityMatrix":
        """The state Q C Q+ around `core`, which keeps its dtype and is taken
        over, made read-only and not copied, in the frame Q = diag(e^{i phi n})
        of a displacement by alpha = r e^{i phi}. A builder that knows the
        spectrum passes it, and it is kept, read-only, as `spectrum`.
        """
        rho = cls.__new__(cls)
        core = np.asarray(core)
        core.setflags(write=False)
        object.__setattr__(rho, "_alpha", complex(alpha))
        object.__setattr__(rho, "_core", core)
        if spectrum is not None:
            spectrum.setflags(write=False)
            vars(rho)["spectrum"] = spectrum  # where the cached property keeps it
        return rho

    def _with_core(self, core: np.ndarray) -> "DensityMatrix":
        """The state around `core`, which it takes (`_framed`), in this state's frame."""
        return DensityMatrix._framed(self._alpha, core)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The matrix Q C Q+, read-only, formed on first read: a complex core
        in the identity frame is its own entries, any other is outer(q, q*) C."""
        core = self._core
        if not self._alpha and np.iscomplexobj(core):
            return core
        phases = _displacement_phases(self._alpha, self.dim)
        out = np.outer(phases, phases.conj())
        out *= core
        out.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return self._core.shape[0]

    def trace(self) -> complex:
        # Q is diagonal and unitary: the diagonal of Q C Q+ is that of C
        return complex(np.trace(self._core))

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, computed once per state; read-only.

        A state built with its spectrum (`_framed`) carries it; otherwise an
        exactly diagonal core (thermal and mixed states) skips the solver, and
        any other core, which has the state's eigenvalues because Q is
        unitary, is diagonalized. Both read the core as Hermitian, so one
        further from it than `_SPECTRUM_HERM_TOL` (an O(dim) check of a
        diagonal, `_herm_dev` otherwise) raises NotAStateError. `validate`
        and `von_neumann_entropy` read this.
        """
        mat = self._core
        diagonal = np.diagonal(mat)
        if np.count_nonzero(mat) == np.count_nonzero(diagonal):
            herm_dev = _asymmetry(diagonal)  # d - d* = 2i Im d on the diagonal
            evals = np.sort(diagonal.real)
        else:
            herm_dev = self._herm_dev
            evals = np.linalg.eigvalsh(mat)
        if not herm_dev <= _SPECTRUM_HERM_TOL:
            raise NotAStateError(
                f"spectrum of a non-Hermitian matrix: max deviation {herm_dev:.3e}"
            )
        evals.setflags(write=False)
        return evals

    @functools.cached_property
    def _herm_dev(self) -> float:
        """max |C - C+|, measured once: Q C Q+ with Q diagonal unitary
        deviates from Hermitian exactly as C, entry by entry."""
        return _asymmetry(self._core)

    def _check_hermitian(self, herm_tol: float) -> None:
        if not self._herm_dev <= herm_tol:
            raise NotAStateError(
                f"not Hermitian: max deviation {self._herm_dev:.3e} > {herm_tol:.1e}"
            )

    def validate(
        self,
        *,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
        psd_tol: float = POSITIVITY_TOL,
    ) -> "DensityMatrix":
        """Check the invariant triple, Hermiticity by the state's one `_herm_dev`;
        return self or raise NotAStateError."""
        self._check_hermitian(herm_tol)
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


def _asymmetry(mat: np.ndarray) -> float:
    """max |M - M+| over the entries. A real deviation takes its modulus in
    place: past about 128 KB (d ~ 128) each d x d temporary comes from fresh
    pages, which cost more than the check."""
    dev = mat - mat.conj().T
    dev = np.abs(dev) if np.iscomplexobj(dev) else np.abs(dev, out=dev)
    return float(dev.max())


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
        if not np.isfinite(vec).all():
            raise NotAStateError("state vector has a NaN or infinite amplitude")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def _check_dim(dim) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 2:
        raise InvalidDimensionError(f"truncation dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def number_state(n: int, dim: int) -> StateVector:
    """Number state |n> on the truncated space."""
    dim = _check_dim(dim)
    # a bool would index as a mask
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n < dim:
        raise InvalidDimensionError(
            f"number state index must be an integer in 0..{dim - 1}, got {n!r}"
        )
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return StateVector(vec)


def _check_real(
    value, what: str, error: type[ValueError] = InvalidParameterError, *, positive: bool = False
) -> float:
    """value as a finite float >= 0 (a -0.0 as 0.0), or > 0 when `positive` is set.

    The one reader of a real argument in bmc: every one is a rate,
    occupation, time, tolerance or bound, so none may be negative. Ints and
    numpy reals are accepted; a str, bool, complex, NaN, +-inf or negative
    value (zero as well when `positive`) raises `error`, naming `what`.
    """
    # A float in range returns at once, and a numpy float after one
    # conversion: the abstract-class check below costs about 1 us, and a
    # `design_sweep` op makes about 1500 of these checks.
    x = value if type(value) is float else float(value) if isinstance(value, float) else math.nan
    if 0.0 < x < math.inf or (x == 0.0 and not positive):
        return x + 0.0  # -0.0 reads as 0.0
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the largest double
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):
        raise error(f"{what} must be finite and {'> 0' if positive else '>= 0'}, got {x}")
    return x + 0.0


def _check_time(t, what: str = "time", *, positive: bool = False) -> float:
    return _check_real(t, what, InvalidTimeError, positive=positive)


def _check_amplitude(eta, what: str = "coherent amplitude") -> complex:
    if isinstance(eta, bool) or not isinstance(eta, numbers.Complex):
        raise InvalidParameterError(f"{what} must be a number, got {eta!r}")
    # |eta|^2 is checked as well: one that overflows would make every
    # Poisson weight NaN and the truncation loss a silent zero.
    eta = complex(eta) + 0j  # a signed zero part reads as 0.0
    if not math.isfinite(eta.real * eta.real + eta.imag * eta.imag):
        raise InvalidParameterError(f"{what} must be finite, with a finite |eta|^2, got {eta}")
    return eta


# log n! - log(sqrt(2 pi n) (n/e)^n) for n = 1..15, short of which the
# Stirling series in `_poisson_mass` is not exact to a double.
_STIRLING_SMALL = np.log(
    [math.factorial(n) / n**n * math.exp(n) / math.sqrt(2.0 * math.pi * n) for n in range(1, 16)]
)


def _poisson_mass(x: float, dim: int) -> np.ndarray:
    # p_n = e^{-x} x^n / n! for n = 0..dim-1: p_0 = e^{-x}, and for n >= 1 Loader's
    # saddle-point log form log p_n = -log sqrt(2 pi n) - s(n) - n (u - log1p(u)),
    # u = (x - n) / n, s(n) the Stirling correction: its terms stay O(1) near the
    # mode, so no weight overflows, underflows early or loses eps x log x.
    n = np.arange(1.0, dim)
    u = (x - n) / n
    r = 1.0 / (n * n)
    s = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / n
    s[:15] = _STIRLING_SMALL[: dim - 1]
    mass = np.empty(dim)
    mass[0] = math.exp(-x)
    with np.errstate(divide="ignore"):  # x = 0: log1p(-1) = -inf, weight 0
        mass[1:] = np.exp(-(0.5 * np.log(2.0 * math.pi * n) + s + n * (u - np.log1p(u))))
    return mass


def _poisson_tail_bound(x: float, dim: int, n_th: float = 0.0) -> float:
    """Chernoff bound G(z) z^{-dim} on the weight D(alpha) thermal(n_th) D+(alpha),
    x = |alpha|^2, puts at n >= dim, with G(z) = e^{x w / u} / u, w = z - 1 and
    u = 1 - n_th w the photon number's generating function, 1 < z < 1 + 1 / n_th.

    z is its minimizer: w is the smaller root of (dim + 1) m^2 w^2 - B w
    + dim - m - x = 0, m = n_th and B = m (2 dim + 1 - m) + x (z = dim / x,
    e^{-x} (e x / dim)^dim at n_th = 0). Over the denominator B plus the root
    of the discriminant, w and u have numerators that are sums of positive
    terms, so nothing cancels, however large n_th, and x w / u is formed
    without w, which overflows as x underflows. The bound is 1, which bounds
    any weight, where x + n_th >= dim or it is no double below 1, so
    `_check_truncation`, which screens `_tail_weight` by it, forms the weight
    of x = 0 at n_th = 0.
    """
    if not 0.0 < x + n_th < dim:
        return 1.0
    p = n_th * (1.0 + n_th)
    root = math.hypot(p + x, 2.0 * math.sqrt(dim * x) * math.sqrt(p))
    den = n_th * (2 * dim + 1 - n_th) + x + root
    gap = 2.0 * (dim - n_th - x)  # w = gap / den
    num = p + x * (1.0 + 2.0 * n_th) + root  # u = num / den
    log_bound = x * gap / num + math.log(den / num) - dim * math.log1p(gap / den)
    return math.exp(log_bound) if log_bound < 0.0 else 1.0


def _displaced_thermal_loss(x: float, n_th: float, dim: int) -> float:
    """Weight D(alpha) thermal(n_th) D+(alpha), x = |alpha|^2, puts at n >= dim:
    P(n) = e^{-x / (1 + n_th)} q_n / (1 + n_th), q_n = r^n L_n(-x / (n_th r)) the
    dominant, so stably stepped, solution of (n + 1) q_{n+1} = (r (2n + 1) + c) q_n
    - r^2 n q_{n-1}, r = n_th / (1 + n_th), c = x / (1 + n_th)^2. Exact powers of
    2 keep the running sum in [1/2, 1), so no term overflows."""
    ratio = n_th / (1.0 + n_th)
    c = x / (1.0 + n_th) / (1.0 + n_th)
    prev, q, total, exponent = 0.0, 1.0, 1.0, 0
    for n in range(1, dim):
        prev, q = q, ((ratio * (2 * n - 1) + c) * q - ratio * ratio * (n - 1) * prev) / n
        total, scale = math.frexp(total + q)
        prev, q, exponent = math.ldexp(prev, -scale), math.ldexp(q, -scale), exponent + scale
    log_kept = math.log(total) + exponent * math.log(2.0) - x / (1.0 + n_th) - math.log1p(n_th)
    return max(0.0, -math.expm1(log_kept))


def _tail_weight(x: float, dim: int, n_th: float = 0.0) -> float:
    """Weight D(alpha) thermal(n_th) D+(alpha), x = |alpha|^2, puts at n >= dim:
    the thermal tail r^dim, r = n_th / (1 + n_th), at x = 0, the Poisson tail
    of x at n_th = 0, and `_displaced_thermal_loss` otherwise."""
    if not x:
        return (n_th / (1.0 + n_th)) ** dim
    if not n_th:
        return _poisson_loss(_poisson_mass(x, dim))
    return _displaced_thermal_loss(x, n_th, dim)


def _poisson_loss(mass: np.ndarray) -> float:
    # 1 - sum p_n: the weight a Poisson law puts at n >= len(mass), from its first weights p_n
    return max(0.0, float(1.0 - mass[0] - np.sum(mass[1:])))


def _reported_loss(x: float, dim: int, n_th: float) -> float | None:
    """The weight `_tail_weight` > COHERENT_LOSS_TOL that D(alpha) thermal(n_th)
    D+(alpha), x = |alpha|^2, loses at `dim` levels, or None where it loses less.

    The weight is formed only where its O(1) bound `_poisson_tail_bound`
    exceeds half the tolerance. That half covers the rounding of the formed
    weight (about dim * eps), so the screen silences no report the weight
    alone would fire.
    """
    for estimate, share in ((_poisson_tail_bound, 0.5), (_tail_weight, 1.0)):
        loss = estimate(x, dim, n_th)
        if not loss > share * COHERENT_LOSS_TOL:
            return None
    return loss


def _tail_dim(x: float, n_th: float, tol: float) -> int:
    """The smallest dim >= 2 at which the O(1) bound on the weight D(alpha)
    thermal(n_th) D+(alpha), x = |alpha|^2, puts at n >= dim is at most `tol`.

    At x = 0 the bound is that weight itself, r^dim with r = n_th / (1 + n_th),
    met from dim = -log(tol) / log1p(1 / n_th) on. Otherwise it is
    `_poisson_tail_bound`, which is 1 up to x + n_th and falls past it: dim
    doubles from there until the bound meets `tol`, and the last step is
    bisected. Where no dim within float range meets it, or the bound's terms
    leave float range first, InvalidParameterError.
    """
    if not x:
        # log1p(1 / n) stays nonzero where n / (1 + n) rounds to 1.
        dim = -math.log(tol) / math.log1p(1.0 / n_th) if n_th else 2.0
        if dim < math.inf:
            return max(2, math.ceil(dim))
    else:
        # 5 dim (1 + n_th) (1 + x) exceeds each sum and product the bound forms
        # past x + n_th, so below `top` levels every one of them is a double.
        top = sys.float_info.max / (5.0 * (1.0 + n_th) * (1.0 + x))
        low = max(1, math.floor(min(x + n_th, top)))  # the bound is 1 up to x + n_th
        high = low + 1
        while high < top and _poisson_tail_bound(x, high, n_th) > tol:
            low, high = high, 2 * high
        if high < top:
            while high - low > 1:  # the bound exceeds tol at low and meets it at high
                mid = (low + high) // 2
                low, high = (mid, high) if _poisson_tail_bound(x, mid, n_th) > tol else (low, mid)
            return high
    raise InvalidParameterError(
        f"D(alpha) thermal({n_th}) D+(alpha) with |alpha|^2 = {x} "
        f"cannot be bounded to {tol:.3g} within float range"
    )


def _check_truncation(
    what: str, alpha: complex, n_th: float, dim: int, error: type | None = None
) -> None:
    """The one truncation report in bmc: raise `error`, or else warn with a
    TruncationWarning, when the state D(alpha) thermal(n_th) D+(alpha) loses
    weight `_reported_loss` at `dim` levels, naming it
    `what.format(alpha, n_th)` and suggesting the dimension at which the
    state's bound meets half the tolerance (`_tail_dim`), where the screen of
    `_reported_loss` clears it. The label and the suggestion are formed only
    when the report fires.
    """
    x = abs(complex(alpha)) ** 2  # alpha may be the caller's own number, as its label names it
    loss = _reported_loss(x, dim, n_th)
    if loss is None:
        return
    message = (
        f"{what.format(alpha, n_th)} loses weight {loss:.3e} at dim={dim}; "
        f"suggest dim >= {_tail_dim(x, n_th, 0.5 * COHERENT_LOSS_TOL)}"
    )
    if error is not None:
        raise error(message)
    # The warning points at the first caller outside bmc, however deep the
    # call (the `skip_file_prefixes` of `warnings.warn` needs Python 3.12).
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith("bmc."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, TruncationWarning, stacklevel=level)


def _coherent_amplitudes(eta: complex, dim: int) -> np.ndarray:
    # c_n = sqrt(p_n) e^{i n phi} for eta = |eta| e^{i phi}
    eta = _check_amplitude(eta)
    return np.sqrt(_poisson_mass(abs(eta) ** 2, dim)) * _displacement_phases(eta, dim)


def _coherent_projector(eta: complex, dim: int) -> DensityMatrix:
    # |eta><eta| / <eta|eta> as (phases, outer(r, r) / sum p) with r = sqrt p;
    # not validated, and its truncation is the caller's to report. The core
    # has rank one, so its spectrum is passed in, with no eigensolve: dim - 1
    # zeros and r.r / sum p.
    eta, dim = _check_amplitude(eta), _check_dim(dim)
    mass = _poisson_mass(abs(eta) ** 2, dim)
    root = np.sqrt(mass)
    total = np.sum(mass)
    spectrum = np.zeros(dim)
    spectrum[-1] = (root @ root) / total
    return DensityMatrix._framed(eta, np.outer(root, root) / total, spectrum)


def coherent_state(eta: complex, dim: int) -> StateVector:
    """Coherent state |eta> with amplitudes e^{-|eta|^2/2} eta^n / sqrt(n!).

    The amplitudes are not renormalized after truncation; the lost weight is
    reported on the returned state, and a TruncationWarning suggesting a
    dimension is emitted when it exceeds COHERENT_LOSS_TOL. One Poisson mass
    gives both the amplitudes sqrt(p_n) e^{i n phi} and that weight.
    """
    dim = _check_dim(dim)
    amplitude = _check_amplitude(eta)
    _check_truncation("coherent state |{0}>", eta, 0.0, dim)
    mass = _poisson_mass(abs(amplitude) ** 2, dim)
    amps = np.sqrt(mass) * _displacement_phases(amplitude, dim)
    return StateVector(amps, truncation_loss=_poisson_loss(mass))


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


def _real_displacement(r: float, dim: int, cols: int) -> np.ndarray:
    """The first `cols` columns of O(r) = exp(r (a+ - a)) on the truncated
    space, which is real orthogonal; O(dim^2 cols) work.

    The generator only links even and odd levels: with the SVD
    B = U diag(sigma) W^T of its odd<-even block, W on the even levels and U
    on the odd ones form a basis in which it pairs even mode k with odd
    mode k at frequency sigma_k (an even mode left over when dim is odd is
    still). So O = V T V^T, with V that basis and T the rotation by
    r sigma_k of each pair. Column j of V^T is row j of W or U; only the
    kept ones are rotated, and one product per parity maps them back.
    """
    left, sigma, right = _parity_basis(dim)
    odd = dim // 2
    cos, sin = np.cos(r * sigma)[:, None], np.sin(r * sigma)[:, None]
    even, odd_cols = right[: (cols + 1) // 2].T, left[: cols // 2].T
    head = np.zeros((dim - odd, cols))  # even-mode parts of the kept columns
    head[:, 0::2] = even
    head[:odd, 0::2] *= cos
    head[:odd, 1::2] = -sin * odd_cols
    tail = np.empty((odd, cols))  # odd-mode parts
    tail[:, 0::2] = sin * even[:odd]
    tail[:, 1::2] = cos * odd_cols
    out = np.empty((dim, cols))
    out[0::2] = right @ head
    out[1::2] = left @ tail
    return out


def _displacement_phases(alpha: complex, dim: int) -> np.ndarray:
    """Diagonal of Q' = diag(e^{i phi n}) for alpha = r e^{i phi}.

    The powers of alpha / r by cumulative product, rescaled to unit modulus:
    exact on the axes, where exp(i phi n) carries the rounding of phi n
    (3.7e-14 at alpha = 10i, n < 175).
    """
    steps = np.full(dim, alpha / abs(alpha) if alpha else 1.0, dtype=complex)
    steps[0] = 1.0
    powers = np.cumprod(steps)
    return powers / np.abs(powers)


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """Displacement matrix exp(alpha a+ - alpha* a) on the truncated space.

    With alpha = r e^{i phi} the generator is r Q' (a+ - a) Q'+ with
    Q' = diag(e^{i phi n}), so the matrix is Q' O(r) Q'+ with the real
    orthogonal O(r) = exp(r (a+ - a)) built in parity blocks. It is exact
    and unitary on the truncated space, the same matrix a matrix
    exponential of the truncated generator gives.
    """
    dim = _check_dim(dim)
    alpha = _check_amplitude(alpha, "displacement")
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    _check_truncation("displacement by {0}", alpha, 0.0, dim)
    phases = _displacement_phases(alpha, dim)
    return _real_displacement(abs(alpha), dim, dim) * np.outer(phases, phases.conj())


def projector(state: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| / <psi|psi>."""
    norm_sq = float(np.sum(np.abs(state.amplitudes) ** 2))
    if norm_sq <= 0.0:
        raise NotAStateError("cannot project a zero state vector")
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()) / norm_sq)


def displaced_thermal_state(alpha: complex, n_th: float, dim: int) -> DensityMatrix:
    """D(alpha) thermal(n_th) D+(alpha), renormalized after truncation; validated.

    One TruncationWarning is emitted when the weight the state itself puts
    at n >= dim exceeds COHERENT_LOSS_TOL, naming it and suggesting a
    dimension at which it is silent (`_tail_dim`); that weight is formed only
    where its O(1) Chernoff bound does not clear it (`_check_truncation`).

    The thermal weights w_n = n_th^n / (1 + n_th)^{n+1} are formed once. At
    alpha = 0 the state is the real diagonal core diag(w). Otherwise
    diag(w) commutes with Q', so the state is Q' R Q'+ with the real
    symmetric R = O(r) diag(w) O(r)^T, built in real arithmetic and divided
    by its trace. Only the K weights above eps^2 of the first are kept, so
    only the first K columns of O(r) are built and R costs O(dim^2 K), not
    O(dim^3); K stays small while n_th does (16 at n_th = 0.0107, for any
    dim). O(r) is orthogonal, so the state's `spectrum` is passed in, with no
    eigensolve: the kept weights over that trace and a zero for each dropped
    level. `validate` checks Hermiticity and the trace on R; its positivity
    check reads that spectrum, which is sound because O diag(w) O^T with
    w >= 0 is positive semidefinite by construction.
    """
    dim = _check_dim(dim)
    alpha = _check_amplitude(alpha, "displacement")
    n_th = _check_real(n_th, "thermal occupation")
    if not alpha:
        what = "thermal state with {1:.4g} photons"
    elif not n_th:
        what = "displacement by {0}"
    else:
        what = "thermal state with {1:.4g} photons displaced by {0}"
    _check_truncation(what, alpha, n_th, dim)
    weights = (1.0 / (1.0 + n_th)) * (n_th / (1.0 + n_th)) ** np.arange(dim)
    weights /= weights.sum()
    if alpha == 0:
        return DensityMatrix._framed(0, np.diag(weights), np.sort(weights)).validate()
    # The weights fall with n, and those below eps^2 of the first move no
    # entry or eigenvalue beyond rounding, so only the first `kept` columns
    # of O(r) are built; leaving the rest out also keeps subnormal products,
    # and their slow arithmetic, out of the matrix product.
    kept = int(np.count_nonzero(weights > _NEGLIGIBLE_WEIGHT * weights[0]))
    columns = _real_displacement(abs(alpha), dim, kept)
    real = (columns * weights[:kept]) @ columns.T
    trace = np.trace(real)
    real /= trace
    spectrum = np.concatenate((np.zeros(dim - kept), weights[kept - 1 :: -1] / trace))
    return DensityMatrix._framed(alpha, real, spectrum).validate()


def thermal_state(n_th: float, dim: int) -> DensityMatrix:
    """Thermal state with mean occupation n_th, renormalized after truncation:
    `displaced_thermal_state` at alpha = 0, with its truncation report."""
    return displaced_thermal_state(0, n_th, dim)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 entropy -sum(lambda log2 lambda) over the eigenvalues of rho.

    Eigenvalues below the clipping floor are treated as exact zeros, and
    those rounded above 1 (a pure state's) as 1, whose positive lambda log2
    lambda would make the entropy negative; an eigenvalue below
    -_SPECTRUM_PSD_TOL means the input is not a state.
    """
    evals = rho.spectrum
    if float(evals[0]) < -_SPECTRUM_PSD_TOL:
        raise NotAStateError(
            f"entropy of a non-positive matrix (min eigenvalue {evals[0]:.3e})"
        )
    evals = np.minimum(evals[evals > _ENTROPY_FLOOR], 1.0)
    return 0.0 - float(np.sum(evals * np.log2(evals)))  # a pure state gives 0.0, not -0.0


def fidelity_with_coherent(rho: DensityMatrix, eta: complex) -> float:
    """Overlap <eta| rho |eta> as a real number.

    The imaginary part of the raw matrix element must vanish to 1e-10; a
    larger value means rho is not Hermitian enough to be a state.
    """
    amps = _coherent_amplitudes(eta, rho.dim)
    _check_truncation("fidelity with |{0}>", eta, 0.0, rho.dim)
    # <eta| Q C Q+ |eta> = v+ C v with v = Q+ |eta>
    vec = _displacement_phases(rho._alpha, rho.dim).conj() * amps
    value = complex(np.vdot(vec, rho._core @ vec))
    if abs(value.imag) > 1e-10:
        raise NotAStateError(
            f"coherent-state overlap has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of rho1 - rho2.

    The difference is read in the first state's frame Q1: it has the
    eigenvalues, and entry by entry the deviation from Hermitian, of
    Q1+ (rho1 - rho2) Q1 = C1 - outer(delta, delta*) C2, delta = q1* q2 for
    the frames' phases q1, q2. Where these agree to within dim * _PHASE_MATCH_TOL
    (two identity frames always do) delta is read as 1, off the exact value by
    at most max |q1_n - q2_n| (||C2||_1 = 1 for a state), the order of the
    round-off of a complex difference. The solver reads one triangle, so a
    difference not Hermitian to 2 * _SPECTRUM_HERM_TOL raises NotAStateError.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatchError(
            f"trace distance between dim {rho1.dim} and dim {rho2.dim} states"
        )
    q1, q2 = (_displacement_phases(rho._alpha, rho.dim) for rho in (rho1, rho2))
    matched = np.max(np.abs(q1 - q2)) <= _PHASE_MATCH_TOL * rho1.dim
    delta = q1.conj() * q2
    diff = rho1._core - (rho2._core if matched else np.outer(delta, delta.conj()) * rho2._core)
    herm_dev = _asymmetry(diff)
    if not herm_dev <= 2.0 * _SPECTRUM_HERM_TOL:
        raise NotAStateError(
            f"trace distance of a non-Hermitian difference: max deviation {herm_dev:.3e}"
        )
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def mean_photon_number(rho: DensityMatrix) -> float:
    """Expectation of the number operator, Tr(rho a+ a).

    Read from the core: Q is diagonal and unitary, so the diagonal of
    Q C Q+ is that of C.
    """
    return float(np.real(np.diagonal(rho._core)) @ np.arange(rho.dim))


def field_amplitude(rho: DensityMatrix) -> complex:
    """Expectation of the annihilation operator, Tr(rho a).

    Read from the core: with Q = diag(e^{i phi n}) the first subdiagonal of
    Q C Q+ is e^{i phi} times that of C.
    """
    sub = np.diagonal(rho._core, offset=-1)
    step = _displacement_phases(rho._alpha, 2)[1]
    return complex(step * np.sum(np.sqrt(np.arange(1, rho.dim)) * sub))
