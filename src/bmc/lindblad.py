"""Master-equation propagation of a damped bosonic mode in a thermal reservoir.

The generator maps each band rho_{m,m+k} of a density matrix to itself, and
band -k is the conjugate of band k, so it acts only on the d(d+1)/2 entries
of the bands k >= 0 of a state's core, stored one band after another
(`_bands`, `_pack`), as three shifted multiply-adds: O(d^2) per evaluation,
in the interaction picture (no free-Hamiltonian commutator term). That one
generator path gives `lindblad_rhs` and every derivative `evolve_trajectory`
takes, in its one adaptive Dormand-Prince 5(4) loop through all sample times.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidTimeError,
    StiffnessError,
    TruncationError,
)
from .fock import (
    DensityMatrix, _check_real, _check_time, _displaced_thermal_dim, mean_photon_number
)

_log = logging.getLogger("bmc")

# Trace drift beyond this level means the representation lost physical weight.
TRACE_DRIFT_LIMIT = 1e-6
# Right-hand-side evaluations one `evolve_trajectory` may spend: about ten
# times the most any test or benchmark run needs (3643, a coherent input
# relaxed to t = 30/gamma at dim 40). Past it the step size is
# stability-limited and the run would take minutes, so StiffnessError ends it.
MAX_RHS_EVALS = 40_000
# Step-control tolerances: relative and absolute error allowed per entry.
_REL_TOL = 1e-9
_ABS_TOL = 1e-11
# The truncated generator conserves trace, so heating past the cutoff shows
# only as population piling up in the top level; beyond this it is too much.
CUTOFF_POPULATION_LIMIT = 1e-10

# Output-state invariant tolerances (looser than the constructors').
_EVOLVE_HERM_TOL = 1e-10
_EVOLVE_TRACE_TOL = 1e-8
_EVOLVE_PSD_TOL = 1e-8


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of the channel: a damped mode in an unsqueezed
    thermal reservoir (the thermal attenuator). Every field after gamma is
    keyword-only.

    gamma      -- field decay rate (1/s), strictly positive.
    beta_rate  -- thermal noise rate (1/s); the reservoir mean occupation is
                  beta_rate / gamma.
    n_bar      -- mean photon number of the input ensemble (dimensionless).
    """

    gamma: float
    _: KW_ONLY
    beta_rate: float = 0.0
    n_bar: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "beta_rate", "n_bar"):
            value = _check_real(getattr(self, name), name, positive=name == "gamma")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.beta_rate / self.gamma):
            raise InvalidParameterError(
                f"reservoir occupation beta/gamma = {self.beta_rate}/{self.gamma} is not finite"
            )

    @property
    def reservoir_photons(self) -> float:
        """Mean occupation N of the reservoir mode."""
        return self.beta_rate / self.gamma


# Bounded because the two index arrays take about 8 dim^2 bytes (1.3 MB at
# dim = 400).
@functools.lru_cache(maxsize=16)
def _bands(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices, in a dim x dim matrix, of each upper-band entry (m, m + k)
    band after band, and of its mirror (m + k, m); read-only.

    Band k holds (m, m + k) for m = 0 .. dim - k - 1, so it starts at offset
    k dim - k (k - 1) / 2, and band 0, the diagonal, fills the first dim.
    Flat indices gather and scatter about four times faster than (row,
    column) pairs.
    """
    rows = np.concatenate([np.arange(dim - k) for k in range(dim)])
    cols = rows + np.repeat(np.arange(dim), np.arange(dim, 0, -1))
    upper, mirror = rows * dim + cols, cols * dim + rows
    upper.setflags(write=False)
    mirror.setflags(write=False)
    return upper, mirror


def _pack(mat: np.ndarray) -> np.ndarray:
    """The upper bands of (mat + mat+)/2, each entry formed as in that matrix."""
    upper, mirror = _bands(mat.shape[0])
    flat = mat.reshape(-1)
    y = flat[upper] + flat[mirror].conj()
    y *= 0.5
    return y


def _unpack(bands: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian dim x dim matrix with upper bands `bands`."""
    upper, mirror = _bands(dim)
    out = np.empty(dim * dim, dtype=bands.dtype)
    out[mirror] = bands.conj()
    out[upper] = bands
    return out.reshape(dim, dim)


def _generator(dim: int, params: ChannelParams):
    """Return f(y) = d(rho)/dt on the upper bands y of rho (`_bands`), on the
    dim-level truncated Fock space.

    a and a^dagger are single off-diagonals, so every term of the generator
    scales shifted entries of rho and one evaluation costs O(dim^2):
    (a rho a^dagger)_mn = sqrt((m+1)(n+1)) rho_{m+1,n+1} and
    (a^dagger rho a)_mn = sqrt(mn) rho_{m-1,n-1}. The anticommutator pieces
    form a diagonal drift A with A rho + rho A; it uses the truncated
    a a^dagger = diag(1, ..., dim-1, 0), whose zero last entry keeps the
    trace conserved.

    rho_{m+1,n+1} is the entry after rho_mn in its band, so the drift, loss
    and gain terms are contiguous multiply-adds on y. The loss weight
    sqrt((m+1)(n+1)) is zero at each band's last entry, where n = dim - 1;
    the gain into an entry takes the same product from the entry before it,
    zero at each band's first entry. So no shift reaches into the next band.
    The drift sums and weights are gathered from their full-matrix arrays,
    so f gives the bits a full-matrix generator gives on the upper bands.
    The coefficients are real, so f keeps a real y real.
    """
    gamma = params.gamma
    n_res = params.reservoir_photons
    levels = np.arange(dim, dtype=float)
    anti_number = levels + 1.0
    anti_number[-1] = 0.0
    diag = (-0.5 * gamma) * ((n_res + 1.0) * levels + n_res * anti_number)
    upper = _bands(dim)[0]
    drift_sum = (diag[:, None] + diag[None, :]).reshape(-1)[upper]
    root = np.append(np.sqrt(levels[1:]), 0.0)  # root[k] = sqrt(k + 1), then 0
    weights = np.outer(root, root).reshape(-1)[upper]  # zero at each band's last entry
    loss = ((gamma * (n_res + 1.0)) * weights)[:-1]
    gain = ((gamma * n_res) * weights)[:-1]

    def f(y: np.ndarray) -> np.ndarray:
        out = drift_sum * y
        out[:-1] += loss * y[1:]
        if n_res != 0.0:
            out[1:] += gain * y[:-1]
        return out

    return f


def lindblad_rhs(rho: DensityMatrix, params: ChannelParams) -> DensityMatrix:
    """Right-hand side d(rho)/dt of the reservoir master equation, in rho's frame:
    `evolve_trajectory`'s first k1, unpacked into an exactly Hermitian core
    (real for a real core). A core further than _EVOLVE_HERM_TOL from
    Hermitian, the integrator's bound on its input, raises NotAStateError.
    The result is traceless (exactly, by cyclicity of the truncated trace);
    it is a derivative, not a state.
    """
    rho._check_hermitian(_EVOLVE_HERM_TOL)
    return rho._with_core(_unpack(_generator(rho.dim, params)(_pack(rho._core)), rho.dim))


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 19 (1980)) on a linear L, from its tableau:
# with p_k = (hL)^k y a step is y1 = y + sum_k R_k p_k, its error sum_k E_k p_k - (h/40) L y1.
_DP_R = (1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600)
_DP_E = (1 / 40, 1 / 40, 1 / 80, 1 / 240, 7 / 30000, 1 / 1875)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _rms(q: np.ndarray, dim: int) -> float:
    """RMS over the dim x dim Hermitian matrix with nonnegative upper bands q:
    band 0 counted once, every other band twice."""
    diagonal, upper = q[:dim], q[dim:]
    return math.sqrt((float(diagonal @ diagonal) + 2.0 * float(upper @ upper)) / (dim * dim))


def _error_ratio(err, y_old, y_new, dim):
    """RMS over the matrix of |err| / (ABS_TOL + REL_TOL max(|y_old|, |y_new|))."""
    scale = np.abs(y_old)
    np.maximum(scale, np.abs(y_new), out=scale)
    scale *= _REL_TOL
    scale += _ABS_TOL
    # |err| / scale, not |err / scale|: a complex / float division rounds
    # differently, and the real and complex routes must take the same steps.
    q = np.abs(err)
    q /= scale
    return _rms(q, dim)


def _check_trace(y: np.ndarray, dim: int, t: float) -> None:
    drift = abs(np.sum(y[:dim]) - 1.0)
    if not drift <= TRACE_DRIFT_LIMIT:
        raise TruncationError(
            f"trace drifted by {drift:.3e} at t={t:.6g}; "
            "the truncation dimension is insufficient for this evolution"
        )


def _check_cutoff(
    y: np.ndarray, t: float, t_end: float, rho0: DensityMatrix, params: ChannelParams
) -> None:
    top = y[rho0.dim - 1].real
    if not top <= CUTOFF_POPULATION_LIMIT:
        # <n>_s = <n>_0 e^{-gamma s} + N (1 - e^{-gamma s}) exactly;
        # it is monotone in s, so its largest value on [t, t_end] is at an end.
        n0, n_res = mean_photon_number(rho0), params.reservoir_photons
        mean = max(
            n0 * math.exp(-params.gamma * s) - n_res * math.expm1(-params.gamma * s)
            for s in (t, t_end)
        )
        needed = _displaced_thermal_dim(0.0, mean)
        raise TruncationError(
            f"population {top:.3e} in the top Fock level {rho0.dim - 1} "
            f"at t={t:.6g}; the truncation dimension is insufficient for this evolution "
            f"to t={t_end:.6g}; suggest dim >= {needed}"
        )


def evolve_trajectory(
    rho0: DensityMatrix, params: ChannelParams, times
) -> list[tuple[float, DensityMatrix]]:
    """Propagate rho0 and return the state at each requested time.

    `times` must be a sequence of finite, nonnegative and nondecreasing
    times (a single number raises InvalidTimeError); one integration
    from t = 0 passes through all of them, t = 0 returns rho0 itself and a
    repeated time returns the same state again. A step that would pass the
    next sample time is shortened to end on it; the step size (the larger of
    the one proposed before the shortening and the one after the landing
    step) and the first-same-as-last k1 carry on past every sample time.
    Every accepted step is checked for trace drift and, when the reservoir
    feeds photons, for population building up at the cutoff; every returned
    state against the invariant triple. A run that needs more than
    MAX_RHS_EVALS right-hand-side evaluations raises StiffnessError.

    A step of size h is y1 = R(hL) y with the stability polynomial
    R(z) = sum_{k<=5} z^k/k! + z^6/600, made from h k1 and five more
    right-hand-side evaluations; a sixth gives L y1, the next k1.

    The generator has real coefficients and commutes with the diagonal
    unitary Q of a state's frame, so the integrator steps the core C of
    rho0 = Q C Q+ and every output is the same Q around C_t. A state built
    in a displacement's frame (a displaced thermal state, or a coherent input
    of `bmc validate`) has a real core and so steps in real arithmetic; any
    other state's core is its entries. The error ratio is the same as for
    the entries, since |(Q E Q+)_mn| = |E_mn|.
    The integrator steps the upper bands of (C + C+)/2 (`_pack`), and each
    sample time unpacks them into a core that is exactly Hermitian by
    construction. The error ratio and the initial step's sizes are RMS
    values over the whole matrix, each band k > 0 weighted twice for band
    -k; the trace is band 0's sum and the cutoff population band 0's last
    entry.
    Returned states hold read-only copies, never views of the step buffer.
    Each integrated trajectory logs its route, right-hand-side evaluations
    and accepted and rejected steps at DEBUG on the "bmc" logger.
    """
    try:
        times = list(times)
    except TypeError:
        raise InvalidTimeError(
            f"sample times must be a sequence of times, got {times!r}"
        ) from None
    times = [_check_time(t, "sample times") for t in times]
    if not times:
        raise InvalidTimeError("no sample times given")
    if any(later < t for t, later in zip(times, times[1:])):
        raise InvalidTimeError("sample times must be nondecreasing")

    rho0.validate(herm_tol=_EVOLVE_HERM_TOL, trace_tol=math.inf, psd_tol=_EVOLVE_PSD_TOL)
    dim = rho0.dim
    y = _pack(rho0._core)
    _check_trace(y, dim, 0.0)
    states = {0.0: rho0}
    stops = sorted(set(times) - {0.0})
    if not stops:
        return [(t, rho0) for t in times]

    f = _generator(dim, params)
    feeds_photons = params.beta_rate > 0.0
    k1 = f(y)
    evals, accepted, rejected = 1, 0, 0
    # Initial step from the size of the state and its derivative; a state that
    # does not move tries one step to the last sample time.
    scale = _ABS_TOL + _REL_TOL * np.abs(y)
    d0 = _rms(np.abs(y) / scale, dim)
    d1 = _rms(np.abs(k1) / scale, dim)
    h = stops[-1] if (d0 < 1e-8 or d1 < 1e-8) else 0.01 * d0 / d1
    t = 0.0
    for t_stop in stops:
        while t < t_stop:
            # A step that lands on a tiny sample time is no underflow.
            if h < 1e-14 * max(1.0, t_stop) and h < t_stop - t:
                raise StiffnessError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}); problem too stiff"
                )
            if evals + 6 > MAX_RHS_EVALS:
                raise StiffnessError(
                    f"gave up after {MAX_RHS_EVALS} right-hand-side evaluations short of "
                    f"t={t_stop:.6g} (gamma={params.gamma:.6g}, dim={dim}); stability "
                    "holds the step size down, the problem is too stiff for this integrator"
                )
            final = h >= t_stop - t
            h_try = t_stop - t if final else h
            p = h_try * k1  # p = (hL)^k y, k = 1 .. 6
            y_new, err = y + p, _DP_E[0] * p
            for r, e in zip(_DP_R[1:], _DP_E[1:]):
                p = h_try * f(p)
                y_new += r * p
                err += e * p
            k_new = f(y_new)
            evals += 6
            ratio = _error_ratio(err - (h_try / 40) * k_new, y, y_new, dim)
            ok = math.isfinite(ratio) and ratio <= 1.0
            if ok:
                accepted += 1
                t = t_stop if final else t + h_try
                y = y_new
                _check_trace(y, dim, t)
                if feeds_photons:
                    _check_cutoff(y, t, times[-1], rho0, params)
                k1 = k_new  # first-same-as-last reuse
                factor = _MAX_FACTOR if ratio == 0.0 else _SAFETY * ratio ** -0.2
            else:
                # Step rejected: y and k1 stay valid, only h shrinks.
                rejected += 1
                factor = _MIN_FACTOR if not math.isfinite(ratio) else _SAFETY * ratio ** -0.2
            h_next = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            # An accepted step shortened to land on t_stop keeps the size
            # proposed before the shortening, when that is larger.
            h = max(h, h_next) if ok and h_try < h else h_next
        states[t_stop] = rho0._with_core(_unpack(y, dim)).validate(
            herm_tol=_EVOLVE_HERM_TOL,
            trace_tol=_EVOLVE_TRACE_TOL,
            psd_tol=_EVOLVE_PSD_TOL,
        )
    _log.debug(
        "evolve_trajectory: %s route, dim %d, %d right-hand-side evaluations, "
        "%d accepted and %d rejected steps",
        "complex" if np.iscomplexobj(y) else "real", dim, evals, accepted, rejected,
    )
    return [(t, states[t]) for t in times]


def evolve(rho0: DensityMatrix, params: ChannelParams, t: float) -> DensityMatrix:
    """State of the channel output at time t for the input rho0."""
    return evolve_trajectory(rho0, params, [t])[-1][1]
