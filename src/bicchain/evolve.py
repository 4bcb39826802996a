"""Direct numerical time evolution of the truncated chain.

Propagates the initial state on the sparse truncated Hamiltonian with a
Chebyshev expansion of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys.
81, 3967 (1984)).  With the spectrum enclosed in [b - a, b + a] and
H' = (H - b)/a,

    exp(-iHt) psi0 = exp(-ibt) sum_k (2 - delta_k0) (-i)^k J_k(at) T_k(H') psi0.

One three-term recurrence v_k = T_k(H') psi0 runs up to the order K whose
Bessel tail bound at t_max is below ``abs_tol``.  It keeps only the moments
the observables need, as in the kernel polynomial method (Weisse et al.,
Rev. Mod. Phys. 78, 275 (2006)): <psi0|v_k>, the components of v_k on |d>
and |1>, and <v_k|v_k>.  Each sample is then a contraction of these moments
with a Bessel table J_k(at), built by Miller's downward recurrence.  The
norm of the represented state follows exactly from the moments through the
Toeplitz-plus-Hankel Gram identity T_j T_k = (T_{j+k} + T_{|j-k|})/2.

The model is the semi-infinite chain, and [b - a, b + a] encloses its
spectrum (:func:`bicchain.model.spectral_bounds`).  A matrix element
<i|H^n|j> with i, j in {|d>, |1>, |2>} differs between the chain truncated
at site N and the semi-infinite one only through paths that reach site
N + 1 and come back, which takes n >= 2N - 2 steps.  A series of order
K < 2N - 2 on a state supported there is therefore the semi-infinite
chain's series, at any occupation of the last site.  ``auto_sites`` picks
the smallest such chain, and an explicit chain that is too short gets a
truncation warning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import fft, sparse
from scipy.linalg.lapack import dtbtrs

from .model import (InvalidParameterError, ModelParams, NumericalError, StateVector,
                    hamiltonian, spectral_bounds)

#: refuse direct evolution beyond this chain size
MAX_SITES = 10 ** 6

#: refuse direct evolution beyond this spectral half-width times t_max,
#: which is about the Chebyshev order K; an auto-sized chain has about K/2
#: sites, so it meets MAX_SITES at about the same t_max
MAX_PHASE = 2 * MAX_SITES

#: samples per block are chosen so that one block's zero-padded Bessel
#: table holds at most this many float64 words, or one sample when a single
#: row is longer (a working set of about 2 MB)
BLOCK_WORDS = 1 << 15


class IntegratorError(NumericalError):
    """The propagator failed; carries the time it reached."""

    def __init__(self, message: str, t_reached: float) -> None:
        super().__init__(f"{message} (time reached: {t_reached:g})")
        self.t_reached = t_reached


@dataclass(frozen=True)
class EvolveOptions:
    """Configuration of one evolution run.

    ``n_sites="auto"`` resolves through :func:`auto_sites` to the shortest
    chain on which the expansion is that of the semi-infinite chain.  The
    sample grid is uniform by default; ``grid="log"`` prepends t = 0 to a
    geometric grid starting at :func:`log_grid_start` for log-log figures
    spanning several decades.

    ``abs_tol`` bounds the norm of the dropped part of the Chebyshev series:
    the expansion order is the smallest K with 2 sum_{k>K} |J_k(a t_max)|
    below it.  ``rel_tol`` is validated and caps ``abs_tol``; it sets nothing
    else.
    """

    t_max: float
    n_samples: int = 2001
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    n_sites: int | str = "auto"
    grid: str = "linear"

    def __post_init__(self) -> None:
        if not (self.t_max > 0 and np.isfinite(self.t_max)):
            raise InvalidParameterError(f"t_max must be positive, got {self.t_max}")
        if self.n_samples < 2:
            raise InvalidParameterError(f"n_samples must be >= 2, got {self.n_samples}")
        if not (0 < self.rel_tol <= 1e-6):
            raise InvalidParameterError(
                f"rel_tol must be in (0, 1e-6], got {self.rel_tol}")
        if not (0 < self.abs_tol <= self.rel_tol):
            raise InvalidParameterError(
                f"abs_tol must be in (0, rel_tol], got {self.abs_tol}")
        if self.grid not in ("linear", "log"):
            raise InvalidParameterError(f"grid must be 'linear' or 'log', got {self.grid!r}")
        if isinstance(self.n_sites, str):
            if self.n_sites != "auto":
                raise InvalidParameterError(f"n_sites must be an integer or 'auto', got {self.n_sites!r}")
        elif self.n_sites < 3:
            raise InvalidParameterError(f"n_sites must be >= 3, got {self.n_sites}")

    def resolved_sites(self, params: ModelParams) -> int:
        if self.n_sites != "auto":
            return int(self.n_sites)
        return auto_sites(_expansion(params, self.t_max, self.abs_tol)[2])

    def times(self) -> np.ndarray:
        if self.grid == "linear":
            return np.linspace(0.0, self.t_max, self.n_samples)
        ts = np.geomspace(log_grid_start(self.t_max), self.t_max, self.n_samples - 1)
        return np.concatenate(([0.0], ts))


def log_grid_start(t_max: float) -> float:
    """First positive time of a log grid ending at t_max: max(1e-4 t_max, 0.01),
    or 1e-4 t_max when t_max is below 0.01, so the grid never passes t_max."""
    return max(1e-4 * t_max, 1e-2) if t_max >= 1e-2 else 1e-4 * t_max


@dataclass(frozen=True)
class AmplitudeSeries:
    """Sampled evolution observables of one run."""

    times: np.ndarray
    overlap: np.ndarray
    amp_d: np.ndarray
    amp_1: np.ndarray
    norm: np.ndarray
    n_sites: int
    params: ModelParams
    options: EvolveOptions
    light_cone_margin: int = 0
    truncation_warning: bool = False
    warnings: tuple = field(default=())
    cheb_terms: int = 0
    spectral_center: float = 0.0
    spectral_half_width: float = 0.0


@dataclass(frozen=True)
class ProbabilitySeries:
    """Sampled (t, value) probability series."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape:
            raise InvalidParameterError("times and values must have matching shapes")


def auto_sites(order: int) -> int:
    """Shortest chain N = max(3, K//2 + 2) on which a series of order K is
    exact for the semi-infinite chain, that is K < 2N - 2."""
    n = max(3, order // 2 + 2)
    if n > MAX_SITES:
        raise InvalidParameterError(
            f"a Chebyshev order of {order} needs {n} chain sites (> {MAX_SITES}); "
            "use the semi-analytic quadrature routes instead of direct evolution")
    return n


@functools.lru_cache(maxsize=64)
def _expansion(params: ModelParams, t_max: float, abs_tol: float) -> tuple[float, float, int]:
    """Center b, half-width a and order K of the Chebyshev series to t_max;
    cached, because sizing the initial state and evolving it both need them."""
    center, half_width = spectral_bounds(params)
    if not half_width * t_max <= MAX_PHASE:
        raise InvalidParameterError(
            f"t_max = {t_max:g} times the spectral half-width {half_width:.3g} "
            f"exceeds {MAX_PHASE}, beyond the reach of direct evolution; "
            "use the semi-analytic quadrature routes")
    return center, half_width, chebyshev_order(half_width * t_max, abs_tol)


def _miller_start(x: np.ndarray) -> np.ndarray:
    """Seed order of Miller's recurrence, above which J_k(x) is below ~1e-18.

    Past the turning point J_k(x) ~ (2/x)^(1/3) Ai(z) at k = x + z (x/2)^(1/3),
    and Ai(15) ~ 2e-18.  For x < 1 the bound |J_k(x)| <= (x/2)^k gives the
    order where (x/2)^(k+1) < 1e-20 when that is lower, which keeps the
    unnormalised recurrence finite at tiny x.
    """
    start = np.ceil(x + 12.0 * np.cbrt(x)) + 12.0
    small = np.ceil(46.1 / np.log(2.0 / np.clip(x, 1e-300, 1.0))) - 1.0
    return np.where(x < 1.0, np.minimum(start, small), start).astype(int)


def bessel_table(x: np.ndarray, k_max: int) -> np.ndarray:
    """J_k(x) for k = 0..k_max at each x >= 0, shape (len(x), k_max + 1).

    Miller's downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, seeded at
    :func:`_miller_start` and normalised by J_0 + 2 sum_k J_{2k} = 1.  The
    recurrences of all x run as one unit-diagonal banded back-substitution,
    one block of rows per x.  Orders above a seed are returned as zero.
    """
    x = np.asarray(x, dtype=float)
    seeds = _miller_start(x)
    rows = int(seeds.max()) + 1
    two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=seeds > 0)
    # upper band storage of row j: v_j - (2(j+1)/x) v_{j+1} + v_{j+2} = [j == seed]
    band = np.ones((len(x), rows, 3))
    band[:, :2, 0] = 0.0
    np.multiply(-two_over_x[:, None], np.arange(rows), out=band[:, :, 1])
    band[:, 0, 1] = 0.0
    rhs = np.zeros((len(x), rows))
    rhs[np.arange(len(x)), seeds] = 1.0
    sol, _ = dtbtrs(band.reshape(-1, 3).T, rhs.reshape(-1, 1), diag="U", overwrite_b=1)
    sol = sol.reshape(len(x), rows)
    scale = sol[:, 0] + 2.0 * sol[:, 2::2].sum(axis=1)
    table = np.zeros((len(x), k_max + 1))
    kept = min(rows, k_max + 1)
    np.divide(sol[:, :kept], scale[:, None], out=table[:, :kept])
    return table


def chebyshev_order(x_max: float, abs_tol: float) -> int:
    """Smallest K with Bessel tail bound 2 sum_{k>K} |J_k(x_max)| < abs_tol.

    For k > x the terms |J_k(x)| grow with x, so the bound at x_max = a t_max
    covers every earlier sample.  A tolerance below the table's resolution
    returns the seed order of the table.
    """
    x = np.array([x_max])
    j = np.abs(bessel_table(x, int(_miller_start(x)[0]))[0])
    tail = 2.0 * (np.cumsum(j[::-1])[::-1] - j)
    below = np.flatnonzero(tail < abs_tol)
    return int(below[0]) if len(below) else len(j) - 1


def _moments(h2: sparse.csr_matrix, psi0: np.ndarray, order: int):
    """Moments of v_k = T_k(H') psi0 for k <= order, with h2 = 2H'.

    Returns <psi0|v_k>, the components (v_k[0], v_k[1]) and <v_k|v_k>.
    """
    overlaps = np.empty(order + 1, dtype=psi0.dtype)
    sites = np.empty((order + 1, 2), dtype=psi0.dtype)
    norms_sq = np.empty(order + 1)
    v_prev, v = psi0, psi0
    for k in range(order + 1):
        overlaps[k] = np.vdot(psi0, v)
        sites[k] = v[:2]
        norms_sq[k] = np.vdot(v, v).real
        if k == 0:
            v = 0.5 * (h2 @ v)
        elif k < order:
            v_next = h2 @ v
            v_next -= v_prev
            v_prev, v = v, v_next
    return overlaps, sites, norms_sq


def _gram_weights(norms_sq: np.ndarray, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights that turn R = rfft(a, n_fft) into ||sum_k c_k v_k||^2.

    With c_k = (-i)^k a_k and the autocorrelation moments
    m_n = <psi0|T_n(H')|psi0>, the Gram identity gives
    ||sum c_k v_k||^2 = 1/2 sum_jk a_j a_k Re[(-i)^(k-j)] (m_{j+k} + m_{|j-k|}).
    Re[(-i)^(k-j)] vanishes for odd k - j and equals (-1)^j Re[(-i)^(j+k)],
    so only the even moments m_{2k} = 2<v_k|v_k> - m_0 enter.  The Toeplitz
    part is then a weighted autocorrelation of a, and the Hankel part a
    weighted convolution of (-1)^j a_j with a, whose transform is that of a
    shifted by n_fft/2.  Returns (w_abs, w_cross) with
    norm^2 = (R.view(float) ** 2) @ w_abs + X.view(float) @ w_cross, where
    X = R conj(R[::-1]).
    """
    order = len(norms_sq) - 1
    hankel = np.zeros(n_fft)
    signs = np.where(np.arange(order + 1) % 2, -1.0, 1.0)
    hankel[:2 * order + 1:2] = signs * (2.0 * norms_sq - norms_sq[0])
    toeplitz = np.zeros(n_fft)
    toeplitz[:order + 1] = hankel[:order + 1]
    toeplitz[n_fft - order:] = hankel[order:0:-1]
    # Parseval over the half spectrum, times the identity's 1/2
    half = np.full(n_fft // 2 + 1, 1.0 / n_fft)
    half[0] = half[-1] = 0.5 / n_fft
    w_abs = np.repeat(half * fft.rfft(toeplitz).real, 2)
    w_cross = (half[:, None] * fft.rfft(hankel)[:, None].view(float)).ravel()
    return w_abs, w_cross


def evolve(params: ModelParams, initial: StateVector, opts: EvolveOptions) -> AmplitudeSeries:
    """Evolve ``initial`` on the truncated chain and sample observables.

    Records <psi_init|psi(t)>, psi_d(t), psi_1(t) and ||psi(t)|| on the
    option grid, all from one Chebyshev recurrence of order ``cheb_terms``
    (see the module docstring).  ``norm`` is the exact norm of the
    represented state, not an error bound.  Samples are contracted in
    blocks of about ``BLOCK_WORDS`` padded table entries, so memory stays
    O(n_sites + K) beyond the outputs.  ``light_cone_margin`` = 2N - 2 - K;
    for a state on {|d>, |1>, |2>} the samples are those of the
    semi-infinite chain when it is positive, which auto-sized chains always
    are.  Otherwise a truncation warning is attached to the output (the run
    is not aborted).  A non-finite recurrence raises :class:`IntegratorError`.
    """
    n = opts.resolved_sites(params)
    if initial.n_sites != n:
        raise InvalidParameterError(
            f"initial state has {initial.n_sites} sites but the run resolves to {n}; "
            "construct the state after resolving n_sites")
    psi0 = initial.to_array()
    if not psi0.imag.any():
        psi0 = psi0.real  # H is real: a real state keeps the recurrence real
    times = opts.times()
    center, half_width, order = _expansion(params, opts.t_max, opts.abs_tol)
    h_sparse = hamiltonian(params, n).to_sparse()
    h2 = (2.0 / half_width) * (h_sparse - center * sparse.identity(n + 1, format="csr"))
    overlaps, sites, norms_sq = _moments(h2, psi0, order)
    if not np.all(np.isfinite(norms_sq)):
        raise IntegratorError("Chebyshev recurrence produced non-finite moments", 0.0)

    weights = np.column_stack([overlaps, sites]).astype(complex)
    weights *= np.array([1.0, -1j, -1.0, 1j])[np.arange(order + 1) % 4, None]
    n_fft = 2 * fft.next_fast_len(order + 1, real=True)
    w_abs, w_cross = _gram_weights(norms_sq, n_fft)
    samples = np.empty((len(times), 3), dtype=complex)
    norm_sq = np.empty(len(times))
    block = max(1, BLOCK_WORDS // n_fft)
    for lo in range(0, len(times), block):
        coeffs = bessel_table(half_width * times[lo:lo + block], order)
        coeffs[:, 1:] *= 2.0
        samples[lo:lo + block] = (coeffs @ weights.view(float)).view(complex)
        spec = fft.rfft(coeffs, n=n_fft, axis=1)
        cross = spec * np.conj(spec[:, ::-1])
        norm_sq[lo:lo + block] = (spec.view(float) ** 2) @ w_abs + cross.view(float) @ w_cross
    samples *= np.exp(-1j * center * times)[:, None]

    margin = 2 * n - 2 - order
    warn = margin <= 0
    messages = ()
    if warn:
        messages = (
            f"Chebyshev order {order} reaches the wall of the {n}-site chain "
            f"(light-cone margin {margin}); the samples may differ from the "
            "semi-infinite chain's",)
    return AmplitudeSeries(
        times=times, overlap=samples[:, 0], amp_d=samples[:, 1], amp_1=samples[:, 2],
        norm=np.sqrt(norm_sq), n_sites=n, params=params, options=opts,
        light_cone_margin=margin, truncation_warning=warn, warnings=messages,
        cheb_terms=order, spectral_center=center, spectral_half_width=half_width)


def survival(series: AmplitudeSeries) -> ProbabilitySeries:
    """Survival probability |<psi_init|psi(t)>|^2."""
    return ProbabilitySeries(times=series.times, values=np.abs(series.overlap) ** 2)


def nonescape(series: AmplitudeSeries) -> ProbabilitySeries:
    """Non-escape probability |psi_1(t)|^2 + |psi_d(t)|^2.

    Equals the survival probability identically when eps_d = 0 and the
    initial state is the BIC-orthogonal state, because the BIC component of
    the {|d>, |1>} sector is conserved at zero.
    """
    return ProbabilitySeries(
        times=series.times,
        values=np.abs(series.amp_1) ** 2 + np.abs(series.amp_d) ** 2)
