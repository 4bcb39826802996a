"""Direct numerical time evolution of the truncated chain.

Propagates the initial state on the truncated chain with a Chebyshev
expansion of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)).  With the spectrum enclosed in [b - a, b + a] and
H' = (H - b)/a,

    exp(-iHt) psi0 = exp(-ibt) sum_k (2 - delta_k0) (-i)^k J_k(at) T_k(H') psi0.

One three-term recurrence v_k = T_k(H') psi0 runs up to the order K whose
Bessel tail bound at t_max is below ``abs_tol``.  One loop (:func:`_moments`)
applies 2H', whose entries :func:`_stencil` gives, as a tridiagonal stencil
and reads the moments, and v_k is kept only on the first (support + k)
entries that it can reach.  The recurrence keeps only the
moments the observables need, as in the kernel polynomial method (Weisse
et al., Rev. Mod. Phys. 78, 275 (2006)): <psi0|v_k>, the components of v_k
on |d> and |1>, and <v_k|v_k>.  Each sample is then a contraction of these
moments with a Bessel table J_k(at), built by Miller's downward recurrence
(three numpy calls per order, on coefficient rows computed a block of
orders at a time) and kept in the recurrence's own buffer: row k holds J_k
at every sample of a block, so the samples are read from one buffer with
no transposed copy.  The norm of the represented state follows exactly from the moments
through the Toeplitz-plus-Hankel Gram identity
T_j T_k = (T_{j+k} + T_{|j-k|})/2, evaluated with numpy's real FFT down
the table's columns.  A sample's column is zero past its Miller seed, so
its transform takes only the leading rows that cover the seed, rounded up
to a power of two, at its own shorter FFT length (:func:`_norm_runs`); on
a log grid most columns are far shorter than K.
The module needs numpy alone.
:func:`bessel_j01` gives J_0 and J_1 alone to the quadrature routes: the
table's first two rows below x = 25 and Hankel's expansion above.

The model is the semi-infinite chain, and [b - a, b + a] encloses its
spectrum (:func:`bicchain.model.spectral_bounds`).  A matrix element
<i|H^n|j> with i, j in {|d>, |1>, |2>} differs between the chain truncated
at site N and the semi-infinite one only through paths that reach site
N + 1 and come back, which takes n >= 2N - 2 steps.  A series of order
K < 2N - 2 on a state supported there is therefore the semi-infinite
chain's series, at any occupation of the last site.  ``auto_sites`` picks
the smallest such chain, and an explicit chain that is too short gets a
truncation warning.  Callers build a state on its support (3 sites for the
paper's states); :func:`evolve` alone sizes the chain and pads the state.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import (InvalidParameterError, ModelParams, NumericalError, StateVector,
                    spectral_bounds)

#: refuse direct evolution beyond this chain size
MAX_SITES = 10 ** 6

#: refuse direct evolution beyond this spectral half-width times t_max,
#: which is about the Chebyshev order K; an auto-sized chain has about K/2
#: sites, so it meets MAX_SITES at about the same t_max
MAX_PHASE = 2 * MAX_SITES

#: samples per block are chosen so that one block's zero-padded Bessel
#: table holds at most this many float64 words, or one sample when a single
#: sample's padded column is longer (a working set of about 2 MB)
BLOCK_WORDS = 1 << 15

#: a run of Bessel-table rows gets its own, shorter norm transform only when
#: that saves at least this many padded float64 words; one more weight set
#: and transform call cost about as much as transforming 4096 words
RUN_WORDS = 1 << 12

#: orders per row block of Miller's (k + 1) 2/x coefficients, one outer
#: product per block
MILLER_BLOCK = 64

#: samples per Miller recurrence are chosen so that its table holds about
#: this many float64 words (4 MB); one row step then spans hundreds of
#: samples, which the FFT blocks above slice
MILLER_WORDS = 1 << 19


class IntegratorError(NumericalError):
    """The propagator failed; carries the time it reached."""

    def __init__(self, message: str, t_reached: float) -> None:
        super().__init__(f"{message} (time reached: {t_reached:g})")
        self.t_reached = t_reached


@dataclass(frozen=True)
class EvolveOptions:
    """Configuration of one evolution run.

    ``n_sites="auto"`` runs the shortest chain on which the expansion is
    that of the semi-infinite chain (:func:`auto_sites`); an integer, at most
    ``MAX_SITES``, fixes the chain, which then bounds the initial state's
    sites.  The sample grid is uniform by default; ``grid="log"`` prepends
    t = 0 to a geometric grid starting at :func:`log_grid_start` for log-log
    figures spanning several decades.

    ``abs_tol``, in (0, 1e-6], is the one accuracy setting: it bounds the
    norm of the dropped part of the Chebyshev series, whose order is the
    smallest K with 2 sum_{k>K} |J_k(a t_max)| below it.

    ``n_samples`` and an integer ``n_sites`` must be integers in the sense
    of ``operator.index`` (numpy integers pass and are stored as int); a
    float, even an integral one, raises :class:`InvalidParameterError`.
    """

    t_max: float
    n_samples: int = 2001
    abs_tol: float = 1e-13
    n_sites: int | str = "auto"
    grid: str = "linear"

    def __post_init__(self) -> None:
        if not (self.t_max > 0 and np.isfinite(self.t_max)):
            raise InvalidParameterError(f"t_max must be positive, got {self.t_max}")
        object.__setattr__(self, "n_samples", _count("n_samples", self.n_samples, 2))
        if not (0 < self.abs_tol <= 1e-6):
            raise InvalidParameterError(f"abs_tol must be in (0, 1e-6], got {self.abs_tol}")
        if self.grid not in ("linear", "log"):
            raise InvalidParameterError(f"grid must be 'linear' or 'log', got {self.grid!r}")
        if self.grid == "log":
            log_grid_start(self.t_max)  # refuses a t_max whose grid cannot start
        if isinstance(self.n_sites, str):
            if self.n_sites != "auto":
                raise InvalidParameterError(f"n_sites must be an integer or 'auto', got {self.n_sites!r}")
        else:
            object.__setattr__(self, "n_sites", _count("n_sites", self.n_sites, 3))
            if self.n_sites > MAX_SITES:
                raise InvalidParameterError(
                    f"n_sites must be <= {MAX_SITES} for direct evolution, got {self.n_sites}; "
                    "use the semi-analytic quadrature routes instead")

    def times(self) -> np.ndarray:
        if self.grid == "linear":
            return np.linspace(0.0, self.t_max, self.n_samples)
        ts = np.geomspace(log_grid_start(self.t_max), self.t_max, self.n_samples - 1)
        return np.concatenate(([0.0], ts))


def _count(name: str, value, least: int) -> int:
    """``value``, an integer by ``operator.index``, as an int of at least ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {count}")
    return count


def log_grid_start(t_max: float) -> float:
    """First positive time of a log grid ending at t_max: max(1e-4 t_max, 0.01),
    or 1e-4 t_max when t_max is below 0.01, so the grid never passes t_max.

    A t_max so small that 1e-4 t_max rounds to 0 (below about 5e-320) has no
    such time and raises :class:`InvalidParameterError`.
    """
    if t_max >= 1e-2:
        return max(1e-4 * t_max, 1e-2)
    if not 1e-4 * t_max > 0.0:
        raise InvalidParameterError(
            f"t_max = {t_max:g} is too small for a log grid: its first time "
            "1e-4 t_max rounds to 0")
    return 1e-4 * t_max


@dataclass(frozen=True)
class AmplitudeSeries:
    """Sampled evolution observables of one run; the truncation warning
    follows from ``light_cone_margin`` (see :func:`evolve`)."""

    times: np.ndarray
    overlap: np.ndarray
    amp_d: np.ndarray
    amp_1: np.ndarray
    norm: np.ndarray
    n_sites: int
    params: ModelParams
    options: EvolveOptions
    light_cone_margin: int
    cheb_terms: int
    spectral_center: float
    spectral_half_width: float

    @property
    def truncation_warning(self) -> bool:
        return self.light_cone_margin <= 0

    @property
    def warnings(self) -> tuple[str, ...]:
        if not self.truncation_warning:
            return ()
        return (f"Chebyshev order {self.cheb_terms} reaches the wall of the "
                f"{self.n_sites}-site chain (light-cone margin {self.light_cone_margin}); "
                "the samples may differ from the semi-infinite chain's",)


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
    cached for repeated runs in one process, such as figS3's four panels."""
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


def bessel_table(x: np.ndarray, seeds: np.ndarray, k_max: int) -> np.ndarray:
    """J_k(x) for k = 0..k_max at each x >= 0, shape (k_max + 1, len(x)).

    Miller's downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, seeded with
    1 at each x's own order in ``seeds`` (:func:`_miller_start` of x) and
    normalised by J_0 + 2 sum_k J_{2k} = 1.  One loop runs down over k with
    the samples as the vector axis, so row k holds J_k; the rows are those
    of the recurrence's own buffer, normalised in place.  Orders above a seed
    are returned as zero.  The coefficients c_k = (k + 1) 2/x of MILLER_BLOCK
    orders come from one outer product, and each order then takes three
    numpy calls: c_k row[k + 1] into one scratch row, row[k] += it and
    row[k] -= row[k + 2], where row[k] held the seed's 1 or 0.
    """
    x = np.asarray(x, dtype=float)
    rows = int(seeds.max()) + 1
    two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=seeds > 0)
    # the two rows above the top seed, and any up to k_max, stay zero
    sol = np.zeros((max(rows + 2, k_max + 1), len(x)))
    sol[seeds, np.arange(len(x))] = 1.0
    row = list(sol)
    tmp = np.empty(len(x))
    multiply = np.multiply  # looked up once, not per order
    for top in range(rows, 0, -MILLER_BLOCK):
        # (k + 1) 2/x for the block's orders k = top - 1 down to bottom
        bottom = max(top - MILLER_BLOCK, 0)
        coef = multiply.outer(np.arange(top, bottom, -1.0), two_over_x)
        for k, c in zip(range(top - 1, bottom - 1, -1), coef):
            multiply(c, row[k + 1], out=tmp)
            row[k] += tmp
            row[k] -= row[k + 2]
    scale = sol[0] + 2.0 * sol[2:rows:2].sum(axis=0)
    kept = sol[:min(rows, k_max + 1)]
    np.divide(kept, scale, out=kept)
    return sol[:k_max + 1]


#: |x| below which :func:`bessel_j01` takes J_0 and J_1 from
#: :func:`bessel_table`, and at or above which from Hankel's expansion
HANKEL_SEAM = 25.0


def _hankel_coefficients(nu: int, n_terms: int) -> np.ndarray:
    """(-1)^(k//2) a_k(nu) for k < n_terms, where
    a_k(nu) = prod_{j <= k} (4 nu^2 - (2j - 1)^2)/(8j) (DLMF 10.17.1)."""
    j = np.arange(1, n_terms)
    a = np.concatenate(([1.0], np.cumprod((4.0 * nu * nu - (2.0 * j - 1.0) ** 2) / (8.0 * j))))
    return np.where(np.arange(n_terms) % 4 < 2, a, -a)


#: signed Hankel coefficients of orders 0 and 1; at x = HANKEL_SEAM the
#: 40th term is below 1e-20 of the first
_HANKEL = {nu: _hankel_coefficients(nu, 40) for nu in (0, 1)}


def hankel_pq(nu: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_nu(x) and Q_nu(x) of Hankel's expansion (DLMF 10.17.3), x >= HANKEL_SEAM,

        J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w),  w = x - (nu/2 + 1/4) pi,

    with P = sum_m (-1)^m a_2m x^-2m and Q = sum_m (-1)^m a_2m+1 x^-(2m+1).
    The series stop before the first term below 1e-17 at the smallest x;
    for real x the remainder is below that first neglected term (DLMF
    10.17(iii)), so x at the seam takes 20 terms and x = 1000 takes 6.
    """
    c = _HANKEL[nu]
    x = np.asarray(x, dtype=float)
    x_min = float(x.min()) if x.size else math.inf
    bounds = np.cumprod(np.abs(c[1:] / c[:-1]) / x_min)
    n_terms = max(2, 1 + int(np.argmax(bounds < 1e-17)))
    terms, u = c[:n_terms], 1.0 / (x * x)
    return np.polyval(terms[0::2][::-1], u), np.polyval(terms[1::2][::-1], u) / x


def bessel_j01(x) -> tuple[np.ndarray, np.ndarray]:
    """J_0(x) and J_1(x) at each real x, to within about 1e-15 absolute.

    Below |x| = HANKEL_SEAM they are rows 0 and 1 of :func:`bessel_table`
    (in blocks of about MILLER_WORDS table words), at and above it Hankel's
    expansion (:func:`hankel_pq`) with cos and sin of x itself, so no
    rounded x - pi/4 enters.  J_0 is even and J_1 odd in x.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    j0, j1 = np.empty_like(ax), np.empty_like(ax)
    below = ax < HANKEL_SEAM
    low = np.flatnonzero(below)
    step = MILLER_WORDS // 128  # a table of at most 76 rows below the seam
    for lo in range(0, len(low), step):
        idx = low[lo:lo + step]
        table = bessel_table(ax[idx], _miller_start(ax[idx]), 1)
        j0[idx], j1[idx] = table[0], table[1]
    high = ~below  # and NaN
    if high.any():
        xh = ax[high]
        c, s = np.cos(xh), np.sin(xh)
        amp = 1.0 / np.sqrt(math.pi * xh)
        p, q = hankel_pq(0, xh)
        j0[high] = amp * (p * (c + s) - q * (s - c))
        p, q = hankel_pq(1, xh)
        j1[high] = amp * (p * (s - c) + q * (s + c))
    j1 = np.where(x.ravel() < 0, -j1, j1)
    return j0.reshape(x.shape), j1.reshape(x.shape)


def chebyshev_order(x_max: float, abs_tol: float) -> int:
    """Smallest K with Bessel tail bound 2 sum_{k>K} |J_k(x_max)| < abs_tol.

    For k > x the terms |J_k(x)| grow with x, so the bound at x_max = a t_max
    covers every earlier sample.  A tolerance below the table's resolution
    returns the seed order of the table.
    """
    x = np.array([x_max])
    seeds = _miller_start(x)
    j = np.abs(bessel_table(x, seeds, int(seeds[0]))[:, 0])
    tail = 2.0 * (np.cumsum(j[::-1])[::-1] - j)
    below = np.flatnonzero(tail < abs_tol)
    return int(below[0]) if len(below) else len(j) - 1


@functools.cache
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, a fast real FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest 2^a p35 >= n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _stencil(params: ModelParams, center: float,
             half_width: float) -> tuple[float, float, float, float]:
    """(bond, diag, d_diag, d_bond): the entries of 2H' = (2/a)(H - b).

    The chain's bonds and on-site entries are ``bond`` and ``diag``; the
    rows of |d> (eps_d, and -g to |2>), |1> (no bond to |d>) and |2> (the
    -g bond) take ``d_diag`` and ``d_bond`` in place of the chain's.
    """
    c = 2.0 / half_width
    return -c, -c * center, c * (params.eps_d - center), c * params.g


def _moments(stencil: tuple[float, float, float, float], n_rows: int, psi0: np.ndarray,
             order: int):
    """Moments of v_k = T_k(H') psi0 for k <= order on the n_rows-entry chain,
    with 2H' from the entries ``stencil`` (:func:`_stencil`).

    v_k lives on the first (support + k) entries, at most n_rows, where the
    support runs to psi0's last nonzero entry (at least |2>), and carries one
    trailing zero.  Each step applies 2H' as one real correlation with the
    bond stencil, which is symmetric and so gives its convolution, over the
    (re, im) pairs of a complex vector; the trailing zero keeps every entry
    in the correlation's interior, where it sums three products in column
    order as a CSR product does.  The rows of |d>, |1> and |2> are then
    written from Python numbers: v_k's entries on the support, read once per
    order, give them and the step's (v_k[0], v_k[1]).  Last, the new
    trailing zero (or the amplitude beyond the wall) is set.
    Returns <psi0|v_k>, the components (v_k[0], v_k[1]) and <v_k|v_k>.
    """
    bond, diag, d_diag, d_bond = stencil
    support = max(3, int(np.flatnonzero(psi0)[-1]) + 1)
    psi0 = np.append(psi0[:support], 0.0)
    dtype = psi0.dtype
    pairs = dtype == complex  # correlate a complex v as its (re, im) pairs
    kernel = np.array([bond, 0.0, diag, 0.0, bond] if pairs else [bond, diag, bond])
    overlaps = np.empty(order + 1, dtype=dtype)
    norms_sq = np.empty(order + 1)
    head = []  # (v_k[0], v_k[1]) for every k, flat
    v_prev = v = psi0
    prev = size = reach = support + 1  # len(v_prev), len(v), len(psi0)
    vdot, correlate = np.vdot, np.correlate  # looked up once, not per order
    for k in range(order + 1):
        first = v[:reach]
        overlaps[k] = vdot(psi0, first)
        norms_sq[k] = vdot(v, v).real
        row = first.tolist()
        head += row[:2]
        if k == order:
            break
        v0, v1, v2, v3 = row[:4]
        stop = size + 2 if size < n_rows else n_rows + 2
        if pairs:
            v_next = correlate(v.view(float), kernel, "full").view(complex)[1:stop]
        else:
            v_next = correlate(v, kernel, "full")[1:stop]
        v_next[0] = d_diag * v0 - d_bond * v2
        v_next[1] = diag * v1 + bond * v2
        v_next[2] = -d_bond * v0 + bond * v1 + diag * v2 + bond * v3
        v_next[-1] = 0.0  # the new trailing zero, or the amplitude beyond the wall
        if k:
            v_next[:prev] -= v_prev
        else:
            v_next *= 0.5
        v_prev, v, prev, size = v, v_next, size, stop - 1
    return overlaps, np.fromiter(head, dtype, len(head)).reshape(-1, 2), norms_sq


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
    w_abs = np.repeat(half * np.fft.rfft(toeplitz).real, 2)
    w_cross = (half[:, None] * np.fft.rfft(hankel)[:, None].view(float)).ravel()
    return w_abs, w_cross


def _norm_runs(seeds: np.ndarray, order: int) -> list[list[int]]:
    """[rows, n_fft, start, stop] of the runs of columns (samples) of
    ``bessel_table(x, seeds, order)``, x ascending, that share one norm
    transform.

    A column is zero past its Miller seed, so the Gram identity holds on
    any leading rows that cover the seed.  The seed's count is rounded up to
    a power of two (at most order + 1), which keeps the distinct lengths,
    and so the weight sets, logarithmic in the order; the seed rises with
    x, so each length's columns form one run.  Going down from the longest, a
    run whose own transform would save fewer than RUN_WORDS padded words
    joins the longer run above it.
    """
    lengths = np.minimum(1 << np.frexp(seeds)[1], order + 1)
    starts = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist()]
    values = lengths[starts].tolist()
    runs: list[list[int]] = []
    for length, start, stop in zip(values[::-1], starts[::-1], [len(seeds), *starts[:0:-1]]):
        n_fft = 2 * _next_fast_len(length)
        if runs and (stop - start) * (runs[-1][1] - n_fft) < RUN_WORDS:
            runs[-1][2] = start
        else:
            runs.append([length, n_fft, start, stop])
    return runs


def evolve(params: ModelParams, initial: StateVector, opts: EvolveOptions) -> AmplitudeSeries:
    """Evolve ``initial`` on the truncated chain and sample observables.

    The chain has ``opts.n_sites`` sites, or ``auto_sites(cheb_terms)``
    under "auto"; a state on fewer sites is padded with zeros, and one on
    more raises :class:`InvalidParameterError`.  Records <psi_init|psi(t)>,
    psi_d(t), psi_1(t) and ||psi(t)|| on the option grid, all from one
    Chebyshev recurrence of order ``cheb_terms``, the lowest whose Bessel
    tail at t_max is below ``opts.abs_tol`` (see the module docstring).
    ``norm`` is the exact norm of the represented state, not an error bound.
    Bessel tables are built for blocks of samples of about ``MILLER_WORDS``
    entries, one buffer per block with a row per order, and the samples and
    norms are read from its rows and columns in place: the norm transforms
    take its columns in blocks of about ``BLOCK_WORDS`` padded entries, so
    memory stays O(n_sites + K) beyond the outputs.
    ``light_cone_margin`` = 2N - 2 - K; for a state on {|d>, |1>, |2>} the
    samples are those of the semi-infinite chain when it is positive, which
    auto-sized chains always are.  Otherwise the output's
    ``truncation_warning`` is set and ``warnings`` holds the message (the
    run is not aborted).  A non-finite
    recurrence raises :class:`IntegratorError`.
    """
    center, half_width, order = _expansion(params, opts.t_max, opts.abs_tol)
    n = auto_sites(order) if opts.n_sites == "auto" else opts.n_sites
    if initial.n_sites > n:
        raise InvalidParameterError(
            f"initial state has {initial.n_sites} sites, more than the {n}-site chain")
    psi0 = np.pad(initial.to_array(), (0, n - initial.n_sites))
    if not psi0.imag.any():
        psi0 = psi0.real  # H is real: a real state keeps the recurrence real
    times = opts.times()
    overlaps, sites, norms_sq = _moments(_stencil(params, center, half_width), n + 1, psi0, order)
    if not np.all(np.isfinite(norms_sq)):
        raise IntegratorError("Chebyshev recurrence produced non-finite moments", 0.0)

    weights = np.column_stack([overlaps, sites]).astype(complex)
    weights *= np.array([1.0, -1j, -1.0, 1j])[np.arange(order + 1) % 4, None]
    samples = np.empty((len(times), 3), dtype=complex)
    norm_sq = np.empty(len(times))
    block = max(1, BLOCK_WORDS // (2 * _next_fast_len(order + 1)))
    wide = block * max(1, MILLER_WORDS // (block * (order + 1)))
    x = half_width * times
    seeds = _miller_start(x)
    runs = _norm_runs(seeds, order)
    gram = [_gram_weights(norms_sq[:length], n_fft) for length, n_fft, _, _ in runs]
    for lo in range(0, len(times), wide):
        hi = min(lo + wide, len(times))
        coeffs = bessel_table(x[lo:hi], seeds[lo:hi], order)
        coeffs[1:] *= 2.0
        samples[lo:hi] = (coeffs.T @ weights.view(float)).view(complex)
        for (length, n_fft, start, stop), (w_abs, w_cross) in zip(runs, gram):
            step = max(1, BLOCK_WORDS // n_fft)
            for at in range(max(start, lo), min(stop, hi), step):
                end = min(at + step, stop, hi)
                # one row per sample, as the weights contract it
                spec = np.empty((end - at, n_fft // 2 + 1), dtype=complex)
                np.fft.rfft(coeffs[:length, at - lo:end - lo], n=n_fft, axis=0, out=spec.T)
                cross = spec * np.conj(spec[:, ::-1])
                norm_sq[at:end] = (spec.view(float) ** 2) @ w_abs + cross.view(float) @ w_cross
    samples *= np.exp(-1j * center * times)[:, None]

    return AmplitudeSeries(
        times=times, overlap=samples[:, 0], amp_d=samples[:, 1], amp_1=samples[:, 2],
        norm=np.sqrt(norm_sq), n_sites=n, params=params, options=opts,
        light_cone_margin=2 * n - 2 - order, cheb_terms=order,
        spectral_center=center, spectral_half_width=half_width)


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
