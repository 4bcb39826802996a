"""Semi-analytic and closed-form survival amplitudes.

Routes to the survival amplitude of the BIC-orthogonal states:

* ``a_w_cut`` -- the branch-cut contour of the generalized w-state
  resolvent N_w^2 (C0 + Q G_dd), from the chain Dyson algebra, reduced to a
  real integral over k in [0, pi] (z = -2 cos k) of the jump times
  e^{2 i t cos k}; works for any detuning.  By Jacobi-Anger the integral is
  SUM_n i^n eps_n J_n(2t) m_n, and the Chebyshev moments m_n of the jump are
  sums of residues in closed form, geometric sequences in the poles of the
  resolvent (``spectrum.partial_fractions``) plus low-order terms from
  s = 0 (``_cut_moments``); one Bessel table per block of times carries
  J_n(2t).  At eps_d = 0 the cut carries the full norm for g <= 1 and 1/g^2
  for g > 1 (the bound-state pair takes the rest).  ``a_br_quadrature`` is
  this route for the perp state (w = 0, eps_d = 0) at couplings whose
  z_g^2 is finite.
* ``a_w_poles`` -- the bound-state poles that the cut leaves out, at any
  detuning (``spectrum.first_sheet_poles``); the two sum to the amplitude.
* ``bessel_exact_grid`` -- the exact Bessel-function representation
  obtained by fraction decomposition: A_br = -(1/2g)(I(+z_g) - I(-z_g)) with

      I(+/- z_g) = e^{∓ i z_g t} [∓ g - i INT_0^t e^{+/- i z_g tau}
                                           J_1(2 tau)/tau d tau],

  the integrable tau -> 0 limit J_1(2 tau)/tau -> 1 handled analytically.
  The tail integral is a GL30 sum over a uniform grid of panels
  12/(z_g + 2) wide (1.91 periods of the fastest phase e^{i(z_g + 2) tau}),
  accumulated by one cumulative sum, plus, for each time, the integral of
  its panel's interpolant from the panel's edge to the time, formed from
  the same 30 node values.  Above the Hankel seam
  (2 tau >= 25) a panel takes J_1 from Hankel's expansion and factors its
  phases into one exp per panel times fixed node factors; below it one
  Miller table serves the panels' nodes.
* ``a_w_rays`` -- band-edge ray deformation of the cut contour (eps_d = 0),
  exact for t >= ~1 at O(1) cost; the route of choice deep in the far zone.
  In x = sqrt(u) each ray is a Laplace transform of the t-independent jump.
  One 1725-node composite rule in x, built at import from the GL15 and GL30
  rules (GL15 on [0, 1e-16], GL30 on panels doubling from 1e-16 up to
  ``RAY_X_MAX``), carries the jump, evaluated once per call; a block of
  times then costs one real exp per (time, node) in the block's window,
  where x^2 t lies between 2^-10 and 44, and one real matmul.  The nodes
  below the window add their jumps through five prefix moments (the Taylor
  series of e^{-x^2 t}), and those above it are negligible.

Array blocks hold at most ``BLOCK_NODES`` quadrature nodes, and the cut's
Bessel tables about ``evolve.MILLER_WORDS`` entries, so memory stays flat
however long the time grid.  sigma_1 is ``spectrum.sigma1``.  The module
needs numpy alone: the GL15/GL30 rules of the Bessel tail and the rays are
computed at import by Newton's method on the Legendre recurrence
(``_gauss_legendre``), and J_0 and J_1 (``early_approx``) from
``evolve.bessel_j01``, which is Miller's recurrence (``evolve.bessel_table``)
below x = 25 and Hankel's expansion (DLMF 10.17) above it; the Bessel tail
takes J_1 from the same two.

Closed-form approximations:

* early-time two-edge form with the virtual-Rabi term (``early_approx``),
* near-zone 1/t law (``near_zone_amp`` / ``near_zone_prob``),
* far-zone 1/t^3 law (``far_zone_prob``),
* bound-state pair term (``bound_term``),
* resonance-pole exponential prefactors (``res_pole_perp`` / ``res_pole_1d``),
* w = 1 decoherence laws (``w_far_zone`` / ``w_near_zone_g1``).

``LAWS`` maps each tag name (``"EarlyBessel"``, ...) to its law, validity
window and precondition; ``LAWS[tag].curve(params, ts)`` gives values and
window mask.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .evolve import HANKEL_SEAM, MILLER_WORDS, _miller_start, bessel_j01, bessel_table, hankel_pq
from .model import ConfigError, InvalidParameterError, ModelParams
from .spectrum import (SheetTag, Timescales, _chain_split, first_sheet_poles,
                       partial_fractions, resonance_expansion, sigma1, timescales, w_norm_sq,
                       z_gap)


class DomainError(ConfigError):
    """Argument outside the mathematical domain of a closed-form law."""


class DivergenceError(ConfigError):
    """Closed form diverges at these parameters; a different law applies."""


def _legendre(x: np.ndarray, n: int) -> np.ndarray:
    """P_0 .. P_n at each x, as the rows of an (n + 1, len(x)) array, by the
    three-term recurrence P_{k+1} = x P_k + k/(k + 1) (x P_k - P_{k-1}),
    which is exact at x = +/-1."""
    p = np.empty((n + 1, len(x)))
    p[0], p[1] = 1.0, x
    xp = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, p[k], out=xp)
        np.subtract(xp, p[k - 1], out=p[k + 1])
        p[k + 1] *= k / (k + 1)
        p[k + 1] += xp
    return p


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nodes are the roots of P_n by Newton's method from Tricomi's
    estimates -cos(pi (k - 1/4)/(n + 1/2)), with P_n and P_{n-1} from the
    recurrence and P_n' = n (x P_n - P_{n-1})/(x^2 - 1); they come out within
    an ulp of the roots.  The weights are 2/((1 - x^2) P_n'(x)^2) in the
    Christoffel form 2/SUM_{j<n} (2j + 1) P_j(x)^2, a sum of positive terms
    that loses no digits to cancellation.  Everything is double; the weights
    land within about 30 ulp of the exact weights at the same nodes and the
    rule integrates x^m, m < 2n, to 7e-16 (cf. Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652).
    """
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p = _legendre(x, n)
        step = p[n] * (x - 1.0) * (x + 1.0) / (n * (x * p[n] - p[n - 1]))
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # symmetric, and 0 exactly at the middle of an odd rule
    p = _legendre(x, n - 1)
    w = 2.0 / np.sum((2.0 * np.arange(n) + 1.0)[:, None] * p * p, axis=0)
    return x, 0.5 * (w + w[::-1])


_GL15 = _gauss_legendre(15)
_GL30 = _gauss_legendre(30)

#: Quadrature nodes evaluated per array block: 170 GL30 panels or the
#: windows of 18 ray times.  About 80 KB per complex temporary, so the
#: temporaries of a block stay in cache and a long grid does not raise the
#: peak memory.
BLOCK_NODES = 5120


def _partial_panel_rule() -> np.ndarray:
    """Partial-panel rule of the Bessel tail (spectral integration, Greengard
    1991): row n < 29 the Legendre coefficients c_{n+1} of the GL30 nodes'
    Lagrange basis over 2n + 3, row 29 the GL30 weights.

    Since INT_{-1}^x P_n = (P_{n+1} - P_{n-1})/(2n + 1) for n >= 1, which
    vanishes at both ends, the row [P_2 - P_0, ..., P_30 - P_28, (1 + x)/2]
    at x times this matrix integrates the interpolant of 30 node values from
    -1 to x: zero at x = -1 and exactly the GL30 weights at x = 1, so partial
    and full panels share one set of node values.  The coefficients are the
    inverse of the Legendre-Vandermonde matrix V (P_n at the nodes, from
    ``_legendre``).  Discrete orthogonality, (n + 1/2) w_k P_n(x_k), is exact
    for the Gauss rule but gives it in double only to about 5e-15, and one
    Newton step C (2 - V C) refines it to about 1e-15.  The weights in row
    29 stand in for the refined 2 c_0, which differs from them by up to
    about 30 ulp.
    """
    x, w = _GL30
    v = _legendre(x, 29).T
    c = v.T * w * (np.arange(30) + 0.5)[:, None]
    c = c @ (2.0 * np.eye(30) - v @ c)
    return np.vstack((c[1:] / (2.0 * np.arange(1, 30) + 1.0)[:, None], w))


_GL30_PARTIAL = _partial_panel_rule()

#: Times whose partial panels are formed together: their gathered node
#: values hold 4 BLOCK_NODES complex entries.
PARTIAL_TIMES = 4 * BLOCK_NODES // 30

#: Cap on the Bessel tail's panels, stated in time so that the refused
#: (g, t_max) do not depend on the panel width: ``bessel_exact_grid``
#: refuses t_max / min(1, 10/z_g) > MAX_PANELS.  With panels 12/(z_g + 2)
#: wide an accepted grid takes at most MAX_PANELS of them (at z_g = 10; a
#: third of that as g -> 1).  At the cap a grid of 4000 times takes about
#: 0.4 s and 45 MB of process memory on a 2-vCPU x86 host; fig2c, the
#: longest figure grid, takes 10002 panels.
MAX_PANELS = 250_000

def _check_times(t) -> None:
    bad = np.asarray(t, dtype=float)[~np.isfinite(t)]
    if bad.size:
        raise InvalidParameterError(f"time t must be finite, got t = {bad.flat[0]}")


def _positive_times(t, refusal: str) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    _check_times(t)
    if np.any(t <= 0):
        raise DomainError(refusal)
    return t


def a_br_quadrature(t, g: float):
    """Branch-cut contribution to the survival amplitude at eps_d = 0.

    The perp state is the w = 0 state, so this returns ``a_w_cut(t,
    ModelParams(g), 0.0)``: a time or an ascending grid of times >= 0.  For
    g > 1 the cut carries 1/g^2 of the norm at t = 0 and ``bound_term`` the
    rest.  It refuses a g whose z_g^2 = (g + 1/g)^2 overflows with
    :class:`InvalidParameterError`; down to that g (about 1e-154) the roots
    +/- 1/g of P and their c_j stay in double's range.
    """
    zg, _ = z_gap(g)
    # a finite 2 z_g^2 keeps g^2 and 1/g^2 finite; otherwise the partial
    # fractions under- or overflow
    if not math.isfinite(2.0 * zg * zg):
        raise InvalidParameterError(
            f"branch-cut quadrature needs a finite z_g^2 = (g + 1/g)^2, got g = {g}")
    return a_w_cut(t, ModelParams(g=g), 0.0)


def bound_term(t, g: float):
    """Combined bound-state pair contribution ((g^2-1)/g^2) cos(z_g t); 0 for g <= 1."""
    zg, _ = z_gap(g)
    t = np.asarray(t, dtype=float)
    _check_times(t)
    if g <= 1.0:
        return np.zeros(t.shape)[()]
    return (g * g - 1.0) / (g * g) * np.cos(zg * t)


def _panel_width(zg: float) -> float:
    """Bessel-tail panel width 12/(z_g + 2): 12 radians, 1.91 periods, of the
    integrand's fastest phase e^{i(z_g + 2) tau}, which a GL30 panel and the
    interpolant of its node values resolve to rounding."""
    return 12.0 / (zg + 2.0)


def _panel_index(ts: np.ndarray, width: float) -> np.ndarray:
    """Index j, as a float, of the panel [j h, (j + 1) h) that holds each time."""
    j = np.floor(ts / width)
    j -= j * width > ts
    return j


def bessel_panels(t_max: float, g: float) -> tuple[float, int]:
    """(width, count) of the GL30 panels that ``bessel_exact_grid`` evaluates
    for a grid that ends at t_max (0 < g <= 1): the full panels below t_max
    and the one that holds it."""
    width = _panel_width(z_gap(g)[0])
    return width, int(_panel_index(np.array([t_max]), width)[0]) + 1


def _partial_weights(x: np.ndarray) -> np.ndarray:
    """(time, node) weights that integrate the interpolant of a GL30 panel's
    node values from -1 to each x in [-1, 1] (``_partial_panel_rule``)."""
    p = _legendre(x, 30)
    p[:29] = p[2:] - p[:29]
    p[29] = 0.5 * (1.0 + x)
    return p[:30].T @ _GL30_PARTIAL


def _tail_integrand(tau: np.ndarray, zg: float) -> np.ndarray:
    """J_1(2 tau)/tau e^{i z_g tau} at the nodes of panels that reach below the
    Hankel seam (2 tau below 25 plus two panel widths, at most 31), J_1 from
    one Miller table (``evolve.bessel_table``) over all of them."""
    x = 2.0 * tau.ravel()
    j1 = bessel_table(x, _miller_start(x), 1)[1].reshape(tau.shape)
    out = np.ones_like(tau)
    m = tau > 1e-12  # J_1(2 tau)/tau -> 1
    out[m] = j1[m] / tau[m]
    return out * np.exp(1j * zg * tau)


def _low_panels(p_hi: int, width: float, zg: float, j: np.ndarray, sums: np.ndarray):
    """GL30 sums of e^{i z_g tau} J_1(2 tau)/tau over the panels [p h, (p + 1) h],
    p < p_hi, into ``sums``: the panels that reach below the Hankel seam,
    where J_1 is evaluated at each node.

    Yields, per block of panels, their node values times h/2, the row of
    each time of the block's panels (on the ascending panel indices ``j``)
    and the end of those times.
    """
    xg, wg = _GL30
    step = max(BLOCK_NODES // len(xg), 1)
    for lo in range(0, p_hi, step):
        a = np.arange(lo, min(lo + step, p_hi)) * width
        b = a + width
        half = 0.5 * (b - a)
        f = _tail_integrand(half[:, None] * xg + 0.5 * (a + b)[:, None], zg)
        sums[lo:lo + len(a)] = half * (f @ wg)
        t_lo, t_hi = np.searchsorted(j, (lo, lo + len(a)))
        if t_lo < t_hi:
            yield half[:, None] * f, j[t_lo:t_hi] - lo, t_hi


def _hankel_panels(p_lo: int, p_hi: int, width: float, zg: float, j: np.ndarray,
                   sums: np.ndarray):
    """GL30 sums of e^{i z_g tau} J_1(2 tau)/tau over the panels [p h, (p + 1) h],
    p_lo <= p < p_hi, all at or above the Hankel seam 2 tau = HANKEL_SEAM,
    into ``sums``; yields as ``_low_panels`` does, for the panels that hold
    times only.

    There J_1(2 tau)/tau = Re[(P + iQ) e^{i(2 tau - 3 pi/4)}]/(sqrt(pi) tau^{3/2}),
    so the integrand is (P +/- iQ) e^{-/+ 3 pi i/4}/(2 sqrt(pi) tau^{3/2}) times
    e^{i z_g tau} e^{+/- 2 i tau}.  At the nodes p h + h s_n of panel p each
    phase is its value at p h times a node factor that every panel shares,
    so a panel costs two exps (e^{i z_g p h} and e^{2 i p h}) instead of one
    per node; P and Q are :func:`evolve.hankel_pq`.  The node values of a
    panel that holds times come from the same P, Q and node factors.
    """
    xg, w = _GL30
    s = 0.5 * (xg + 1.0)
    base = (0.25 * width / math.sqrt(math.pi)) * w * np.exp(1j * zg * width * s)
    plus = base * np.exp(2j * width * s - 0.75j * math.pi)
    minus = base * np.exp(-2j * width * s + 0.75j * math.pi)
    node_up, node_down = plus / w, minus / w  # h/2 times the node factors
    # real and imaginary parts as columns, so P and Q meet them in real matmuls
    factors = np.column_stack((plus.real, plus.imag, minus.real, minus.imag))
    step = max(BLOCK_NODES // len(xg), 1)
    for lo in range(p_lo, p_hi, step):
        edges = np.arange(lo, min(lo + step, p_hi)) * width
        tau = edges[:, None] + width * s
        p, q = hankel_pq(1, 2.0 * tau)
        scale = tau ** -1.5
        p *= scale
        q *= scale
        pf, qf = p @ factors, q @ factors
        # (P + iQ) . plus and (P - iQ) . minus
        up = (pf[:, 0] - qf[:, 1]) + 1j * (pf[:, 1] + qf[:, 0])
        down = (pf[:, 2] + qf[:, 3]) + 1j * (pf[:, 3] - qf[:, 2])
        turn = np.exp(2j * edges)
        phase = np.exp(1j * zg * edges)
        sums[lo:lo + len(edges)] = phase * (turn * up + np.conj(turn) * down)
        t_lo, t_hi = np.searchsorted(j, (lo, lo + len(edges)))
        if t_lo == t_hi:
            continue
        # runs of equal panel indices on the ascending grid: a row per panel
        # that holds times
        held = j[t_lo:t_hi]
        new = np.concatenate(([True], held[1:] != held[:-1]))
        k = held[new] - lo
        u = (phase * turn)[k, None] * node_up
        d = (phase * np.conj(turn))[k, None] * node_down
        # (P + iQ) u + (P - iQ) d at each node of those panels
        yield p[k] * (u + d) + q[k] * (1j * (u - d)), np.cumsum(new) - 1, t_hi


def _bessel_tail(ts: np.ndarray, zg: float) -> np.ndarray:
    """INT_0^t e^{i z_g tau} J_1(2 tau)/tau d tau at each time of an ascending grid.

    Full panels [p h, (p + 1) h] of width h = ``_panel_width(zg)`` are summed
    by GL30 and accumulated by one ``cumsum``; each time t then adds its
    partial panel from its grid edge j h <= t to t itself, so every time is
    integrated to exactly t.  The integrand is evaluated once at the GL30
    nodes of each panel up to the last time's, and a partial panel
    integrates the interpolant of its panel's node values
    (``_partial_weights``), so a time costs one row of Legendre values and
    one 30-term dot product.  Panels that reach below the Hankel seam
    evaluate J_1 at each node (``_low_panels``), those above it factor their
    phases (``_hankel_panels``).  The node values of panels that hold times
    are gathered until PARTIAL_TIMES times are due, so memory stays flat.
    """
    width = _panel_width(zg)
    j = _panel_index(ts, width)
    x = 2.0 * (ts - j * width) / width - 1.0  # each time's place in its panel
    j = j.astype(int)
    n_full = int(j[-1])
    # the last time's panel is partial; its full sum is not used
    sums = np.empty(n_full + 1, dtype=complex)
    out = np.empty(len(ts), dtype=complex)
    seam = min(math.ceil(0.5 * HANKEL_SEAM / width), n_full + 1)
    blocks = itertools.chain(_low_panels(seam, width, zg, j, sums),
                             _hankel_panels(seam, n_full + 1, width, zg, j, sums))
    rows, index, t_lo, n_rows = [], [], 0, 0
    for block_rows, block_index, t_hi in blocks:
        rows.append(block_rows)
        index.append(block_index + n_rows)
        n_rows += len(block_rows)
        if t_hi - t_lo >= PARTIAL_TIMES or t_hi == len(ts):
            values, row = np.concatenate(rows), np.concatenate(index)
            for lo in range(t_lo, t_hi, PARTIAL_TIMES):
                hi = min(lo + PARTIAL_TIMES, t_hi)
                out[lo:hi] = np.einsum("ij,ij->i", values[row[lo - t_lo:hi - t_lo]],
                                       _partial_weights(x[lo:hi]))
            rows, index, t_lo, n_rows = [], [], t_hi, 0
    cum = np.concatenate(([0j], np.cumsum(sums[:n_full])))
    return cum[j] + out


def check_bessel_span(t_max: float, g: float) -> None:
    """Refuse a Bessel grid to t_max > MAX_PANELS min(1, 10/z_g), before any work."""
    cap_width = min(1.0, 10.0 / z_gap(g)[0])
    # a product, not t_max / cap_width: z_g = inf (g below about 1e-308) gives a width of 0
    if t_max > MAX_PANELS * cap_width:
        raise InvalidParameterError(
            f"Bessel representation at g = {g:g} up to t = {t_max:g} exceeds the cap on "
            f"its quadrature panels, t <= {MAX_PANELS} min(1, 10/z_g) = "
            f"{MAX_PANELS * cap_width:g}; use a_br_quadrature")


def bessel_exact_grid(ts: np.ndarray, g: float) -> np.ndarray:
    """Exact Bessel-representation A_br on an ascending time grid (0 < g <= 1).

    Evaluates the tail integral incrementally, so a grid costs the panels up
    to its largest time plus one row of Legendre values and one 30-term dot
    product per time; a grid that needs more than ``MAX_PANELS`` panels
    (small g at long times) is refused.  A_br is real at eps_d = 0; the real
    value is returned as complex for interface parity with the quadrature
    route.
    """
    if not (0 < g <= 1.0):
        raise InvalidParameterError(f"Bessel representation requires 0 < g <= 1, got {g}")
    ts = np.asarray(ts, dtype=float)
    _check_times(ts)
    if ts.ndim != 1 or len(ts) == 0 or np.any(np.diff(ts) < 0) or ts[0] < 0:
        raise InvalidParameterError("ts must be a non-empty ascending grid of times >= 0")
    check_bessel_span(ts[-1], g)
    zg, _ = z_gap(g)
    tail = _bessel_tail(ts, zg)
    i_plus = np.exp(-1j * zg * ts) * (-g - 1j * tail)
    # I(-z_g) = -conj(I(+z_g)), so A_br = -(1/2g)(I(+) - I(-)) = -Re I(+)/g
    return (-np.real(i_plus) / g).astype(complex)


def early_approx(t, g: float):
    """Short/intermediate-time two-edge approximation, valid t << T_Delta,

        (1/g) [(g-1) cos(z_g t) + cos(Delta_g t) J_0(2t) - sin(Delta_g t) J_1(2t)].
    """
    if not (0 < g <= 1.0):
        raise InvalidParameterError(f"early-time form requires 0 < g <= 1, got {g}")
    t = np.asarray(t, dtype=float)
    _check_times(t)
    zg, dg = z_gap(g)
    j0, j1 = bessel_j01(2.0 * t)
    out = (1.0 / g) * ((g - 1.0) * np.cos(zg * t) + np.cos(dg * t) * j0 - np.sin(dg * t) * j1)
    return out + 0j


def near_zone_amp(t, g: float):
    """Near-zone amplitude cos(2t - pi/4)/(g sqrt(pi t)) - ((1-g)/g) cos 2t.

    Intended for T_Z << t << T_Delta.  The second term is the virtual Rabi
    oscillation; its envelope (1-g)/g is constant while the first decays.
    """
    if not (0 < g <= 1.0):
        raise InvalidParameterError(f"near-zone form requires 0 < g <= 1, got {g}")
    t = _positive_times(t, "near-zone amplitude diverges at t = 0 (1/sqrt(t))")
    return (np.cos(2.0 * t - math.pi / 4.0) / (g * np.sqrt(math.pi * t))
            - ((1.0 - g) / g) * np.cos(2.0 * t)) + 0j


def near_zone_prob(t, g: float):
    """Early near-zone survival probability cos^2(2t - pi/4)/(pi g^2 t)."""
    if not (0 < g <= 1.0):
        raise InvalidParameterError(f"near-zone form requires 0 < g <= 1, got {g}")
    t = _positive_times(t, "near-zone probability diverges at t = 0 (1/t)")
    return np.cos(2.0 * t - math.pi / 4.0) ** 2 / (math.pi * g * g * t)


def far_zone_coefficient(g: float) -> float:
    """Coefficient C in the far-zone law P(t) ~ C cos^2(2t - 3pi/4)/t^3."""
    if not (0 < g < 1.0):
        raise DivergenceError(
            "far-zone law requires 0 < g < 1 (gap Delta_g > 0); at g = 1 the "
            "near-zone 1/t law describes the asymptotics instead")
    zg, dg = z_gap(g)
    return (1.0 + g * g) ** 2 / (math.pi * g ** 4 * dg * dg * (2.0 + zg) ** 2)


def far_zone_prob(t, g: float):
    """Far-zone survival probability, valid t >> T_Delta (0 < g < 1)."""
    coef = far_zone_coefficient(g)
    t = _positive_times(t, "far-zone probability requires t > 0")
    return coef * np.cos(2.0 * t - 3.0 * math.pi / 4.0) ** 2 / t ** 3


def res_pole_perp(params: ModelParams) -> tuple[float, float]:
    """(amplitude, rate) of the resonance-pole exponential in P_perp.

    amplitude = g^4 eps_d^4 / (1+g^2)^8: both the O(eps_d) and O(eps_d^2)
    contributions cancel for the BIC-orthogonal state, leaving a fourth-order
    prefactor; rate = Gamma from the resonance expansion.
    """
    g = params.g
    amp = g ** 4 * params.eps_d ** 4 / (1.0 + g * g) ** 8
    return amp, resonance_expansion(params).gamma


def res_pole_1d(params: ModelParams) -> tuple[float, float]:
    """(amplitude, rate) of the resonance-pole exponential in P_1d.

    Only the lowest order cancels here: amplitude = g^2 eps_d^2 / (1+g^2)^4.
    """
    g = params.g
    amp = g * g * params.eps_d ** 2 / (1.0 + g * g) ** 4
    return amp, resonance_expansion(params).gamma


def _boundary_value(z, sig, g: float, eps_d: float, w: float):
    """C0 + Q G_dd of the w-state resolvent at z, given sigma_1 there.

    Sigma = g^2 z sigma_1^2, so G_dd = 1/(z - eps_d - Sigma).
    """
    background, coupling = _chain_split(sig, g, w)
    return background + coupling * (1.0 / (z - eps_d - g * g * z * sig * sig))


#: Orders n below which a cut moment m_n is formed both from the poles and
#: from F's Taylor series at sigma = 0, keeping the form with the smaller
#: terms (``_cut_moments``)
TAYLOR_ORDERS = 8


def _taylor_at_zero(params: ModelParams, w: float, n: int) -> np.ndarray:
    """f_0 .. f_{n-1}, the Taylor coefficients of F(sigma) = C0 - sigma Q_w/P at
    sigma = 0, by series division: P(0) = -1, so no coefficient is divided by
    a small number.  C0, Q_w (``spectrum._chain_split``) and P
    (``spectrum._band_poly``) enter as ascending coefficient arrays."""
    g2 = params.g * params.g
    chain = np.convolve([1.0, -w], [1.0, -w])  # (1 - w sigma)^2
    c0 = np.zeros(n + 4)
    c0[1:4] = chain + [w * w, 0.0, 0.0]  # sigma (1 - w sigma)^2 + w^2 sigma
    top = np.zeros(n + 8)
    top[1:8] = g2 * np.convolve([1.0, 0.0, 2.0, 0.0, 1.0], chain)  # sigma Q_w
    den = [-1.0, params.eps_d, g2 - 1.0, 0.0, g2]
    f = np.zeros(n)
    for k in range(n):
        f[k] = (top[k] - sum(den[i] * f[k - i] for i in range(1, min(k, 4) + 1))) / den[0]
    return c0[:n] - f


def _cut_moments(params: ModelParams, w: float, n_max: int) -> np.ndarray:
    """m_n = INT_0^pi h(k) cos nk dk for n = 0 .. n_max, h the integrand of ``a_w_cut``.

    On the band sigma_1 = -s with s = e^{ik}, and h(k) = K(s) + K(1/s) with
    K(s) = (N_w^2/2 pi)(s - 1/s) F(-s) and F = C0 - sigma Q_w/P
    = a0 + a1 sigma + SUM_j c_j/(sigma - sigma_j) (``partial_fractions``).  So
    m_n = pi SUM_{|s|<1} Res[K(s) (s^{n-1} + s^{-n-1})].  Each root sigma_j
    of P puts one pole in the unit disk, q_j = -sigma_j where |sigma_j| < 1 (a
    bound state, a pole of K(s)) and q_j = -1/sigma_j else (free, a pole of
    K(1/s)), which adds the geometric sequence W_j q_j^n with
    W_j = -(N_w^2/2) c_j (q_j^2 - 1) q_j^{-2} (bound) or q_j^0 (free).  The
    rest sits at s = 0: K(0) = 1/(2 pi), and the Laurent coefficients of
    (1/s - s) F(-1/s) there, l = (a1 - SUM c_j, a0, -a1) at n = 0, 1, 2:

        m_n = delta_n0/2 + SUM_j W_j q_j^n + (N_w^2/2) l_n.          (poles)

    A root on |sigma| = 1, a threshold, has q^2 = 1 and so W = 0; the BIC pair
    of eps_d = 0 is not among the poles.  Where two roots nearly meet, P' -> 0
    makes W_j and W_k huge and opposite; as c_j carries the root difference
    sigma_j - sigma_k as a factor, the same double in both, the pair's sum
    loses only what rounding of the two terms costs.

    The free terms and l_n are minus the residues of K(s) s^{-n-1} outside
    the disk and at infinity.  The same sum, taken as the residues inside the
    disk, is the bound states' W_b q_b^{-n} plus the Taylor coefficient of K
    at 0, from F's Taylor coefficients f_k at sigma = 0 (``_taylor_at_zero``,
    f_{-1} = 0):

        m_n = delta_n0/2 + SUM_b W_b (q_b^n + q_b^{-n})
              + (N_w^2/2) (-1)^{n+1} (f_{n-1} - f_{n+1}).             (Taylor)

    At small g the free poles q = -/+ g crowd s = 0: their terms and l_n grow
    like 1/g^4 while m_n stays of order 1, and the Taylor form sums them
    without cancellation.  At large g the bound states' q_b^{-n} grow instead.
    Below TAYLOR_ORDERS each m_n takes the form whose terms are smaller in
    magnitude; above it the pole form, whose terms decay.
    """
    nw2 = w_norm_sq(params.g, w)
    (a0, a1), poles = partial_fractions(params, w)
    sig, c = (np.array(v, dtype=complex) for v in zip(*poles))
    bound = np.abs(sig) < 1.0
    q = np.where(bound, -sig, -1.0 / sig)
    weight = -0.5 * nw2 * c * (q * q - 1.0)
    weight[bound] /= q[bound] ** 2
    n = np.arange(max(n_max + 1, TAYLOR_ORDERS))
    powers = q[:, None] ** n
    free = weight[~bound, None] * powers[~bound]
    laurent = np.zeros(len(n), dtype=complex)
    laurent_size = np.zeros(len(n))
    laurent[:3] = 0.5 * nw2 * np.array([a1 - c.sum(), a0, -a1])
    laurent_size[:3] = 0.5 * nw2 * np.array([abs(a1) + np.abs(c).sum(), abs(a0), abs(a1)])
    out = np.sum(free, axis=0) + laurent
    size = np.sum(np.abs(free), axis=0) + laurent_size

    low = slice(TAYLOR_ORDERS)
    f = np.concatenate(([0.0], _taylor_at_zero(params, w, TAYLOR_ORDERS + 1)))  # f[i] = f_{i-1}
    taylor = 0.5 * nw2 * np.where(n[low] % 2, 1.0, -1.0) * (f[:-2] - f[2:])
    inverse = weight[bound, None] / powers[bound, low]
    taylor_size = np.abs(taylor) + np.sum(np.abs(inverse), axis=0)
    pick = ~(size[low] <= taylor_size)
    out[low][pick] = (taylor + np.sum(inverse, axis=0))[pick]

    out += np.sum(weight[bound, None] * powers[bound], axis=0)
    out[0] += 0.5
    return out.real[:n_max + 1]


def a_w_cut(t, params: ModelParams, w: float):
    """Survival amplitude of the w-state from the branch-cut contour.

    Reduces the counter-clockwise contour around the band to the jump of
    N_w^2 (C0 + Q G_dd) across the cut, INT_0^pi h(k) e^{2 i t cos k} dk.
    By Jacobi-Anger that is SUM_n i^n eps_n J_n(2t) m_n (eps_0 = 1, else 2),
    where the Chebyshev moments m_n of h are sums of residues in closed form
    (``_cut_moments``), exact to rounding at every detuning, the quasi-BIC
    and the band-edge thresholds included.  J_n(2t) comes from Miller's
    recurrence (``evolve.bessel_table``) up to the order where it falls below
    1e-18, about 2t + 12 (2t)^{1/3} (``evolve._miller_start``), in blocks of
    about MILLER_WORDS table entries, so a time costs O(t) and a long grid
    keeps memory flat.  Bound-state poles are not included: ``a_w_poles``
    adds them.  ``t`` is a time or an ascending grid of times >= 0.  Where P's
    roots or their c_j are out of double's reach (``partial_fractions``: g
    below about 1e-22 to 1e-153 depending on eps_d, as for ``a_w_poles``; at
    eps_d = 0 below about 1e-154 for w = 0, or 1e-77 for w = 1) it raises
    :class:`RootFindError`.
    """
    ts = np.asarray(t, dtype=float)
    _check_times(ts)
    if np.any(ts < 0):
        raise InvalidParameterError(
            f"time t must be non-negative, got t = {ts[ts < 0].flat[0]}")
    grid = np.atleast_1d(ts)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) < 0):
        raise InvalidParameterError("t must be a time or a non-empty ascending grid of times")
    x = 2.0 * grid
    seeds = _miller_start(x)
    n_max = int(seeds.max())
    moments = _cut_moments(params, w, n_max)
    n = np.arange(n_max + 1)
    # i^n eps_n m_n; J_n(2t) is real, so even n give the real part, odd n the imaginary
    signed = np.where(n > 0, 2.0, 1.0) * np.where(n % 4 < 2, 1.0, -1.0) * moments
    parts = np.zeros((2, n_max + 1))
    parts[0, 0::2], parts[1, 1::2] = signed[0::2], signed[1::2]
    out = np.empty(len(grid), dtype=complex)
    step = max(MILLER_WORDS // (n_max + 3), 1)
    for lo in range(0, len(grid), step):
        re, im = parts @ bessel_table(x[lo:lo + step], seeds[lo:lo + step], n_max)
        out[lo:lo + step] = re + 1j * im
    return out if ts.ndim else complex(out[0])


def a_w_poles(t, params: ModelParams, w: float):
    """Bound-state part of the w-state survival amplitude, which ``a_w_cut`` leaves out.

    SUM_j r_j exp(-i z_j t) over ``spectrum.first_sheet_poles``, continuous
    through every threshold.  ``t`` is a time or an array of times.
    """
    ts = np.asarray(t, dtype=float)
    _check_times(ts)
    out = np.zeros(ts.shape, dtype=complex)
    for z, residue in first_sheet_poles(params, w):
        out += residue * np.exp(-1j * z * ts)
    return out if ts.ndim else complex(out)


#: Times the ray rule is built for: from RAY_T_MIN, where e^{-x^2 t} at
#: RAY_X_MAX is below 1e-19, to RAY_T_MAX, where 1/sqrt(t) = 1e-10 still
#: lies six decades above the first panel edge 1e-16.
RAY_T_MIN, RAY_T_MAX = 0.5, 1e20

#: upper end of the ray variable x = sqrt(u), where e^{-x^2 RAY_T_MIN} < 1e-19
RAY_X_MAX = 9.5

#: Panel edges of the rays' rule in x: 0, then 1e-16 doubling up to
#: RAY_X_MAX.  The weight 2 x e^{-x^2 t} peaks at x = 1/sqrt(2t), and as
#: g -> 1 the virtual bound state nears the band edge, where the jump varies
#: on the scale x ~ sqrt(Delta_g); geometric panels resolve both at every
#: t and g.  [0, 1e-16] adds about 1e-16 at most to either integral, so
#: GL15 suffices there.
_RAY_EDGES = [0.0] + [1e-16 * 2.0 ** k for k in range(57)] + [RAY_X_MAX]
_RAY_PANELS = [(a, b, _GL15 if b <= 1e-16 else _GL30) for a, b in zip(_RAY_EDGES, _RAY_EDGES[1:])]
#: nodes and weights of the rays' composite Gauss rule on [0, RAY_X_MAX]
_RAY_X = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b, (x, _) in _RAY_PANELS])
_RAY_W = np.concatenate([0.5 * (b - a) * w for a, b, (_, w) in _RAY_PANELS])

#: Below x^2 t = RAY_SERIES_MAX the rays take e^{-x^2 t} from its Taylor
#: series to RAY_MOMENTS terms, through prefix moments of the jumps.
RAY_SERIES_MAX, RAY_MOMENTS = 2.0 ** -10, 5


def a_w_rays(t, params: ModelParams, w: float):
    """Survival amplitude (eps_d = 0) from band-edge ray deformation.

    The cut integral is deformed onto the two rays z = -/+2 - i u descending
    from the band edges into the lower half-plane, where the integrand
    decays like e^{-ut}; the substitution u = x^2 absorbs the edge
    square-root and makes each ray a Laplace transform,
    INT_0^RAY_X_MAX D(-/+2 - i x^2) 2 x e^{-x^2 t} dx.  The jump D does not
    depend on t, so it is evaluated once per call on the composite Gauss
    rule in x (``_RAY_X``), and a block of times then costs one real exp per
    (time, node) of the block's window and one real matmul.  Exact (no
    poles are crossed at eps_d = 0); the rule keeps it within 1e-13 of the
    Bessel route for 0.05 <= g <= 1, g -> 1 included, and within 2e-13 of
    the cut for |w| <= 2 and 0.05 <= g <= 3, at O(1) cost per time, which
    makes it the far-zone route of choice.  ``t`` is a time or a 1-D array
    of times in [RAY_T_MIN, RAY_T_MAX]; others raise :class:`DomainError`.
    """
    if params.eps_d != 0.0:
        raise InvalidParameterError(
            "ray deformation crosses the detuned resonance pole; "
            "it is restricted to eps_d = 0 (use a_w_cut for eps_d != 0)")
    g = params.g
    nw2 = w_norm_sq(g, w)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise InvalidParameterError(
            f"t must be a time or a 1-D array of times, got shape {ts.shape}")
    _check_times(ts)
    if np.any(ts < RAY_T_MIN):
        raise DomainError("ray deformation is intended for t >= ~1; "
                          f"got t = {ts[ts < RAY_T_MIN][0]} < {RAY_T_MIN:g}")
    if np.any(ts > RAY_T_MAX):
        raise DomainError(f"the ray rule resolves t <= {RAY_T_MAX:g}; "
                          f"got t = {ts[ts > RAY_T_MAX][0]}")
    x2 = _RAY_X * _RAY_X
    weights = _RAY_W * 2.0 * _RAY_X

    def weighted_jump(z: np.ndarray) -> np.ndarray:
        # the second sheet continues the from-above value; its reciprocal is
        # the first-sheet value below the cut
        sig_above = sigma1(z, SheetTag.Second)
        return weights * (_boundary_value(z, 1.0 / sig_above, g, 0.0, w)
                          - _boundary_value(z, sig_above, g, 0.0, w))

    # the t-independent part of each ray integral, once per call
    lower, upper = weighted_jump(-2.0 - 1j * x2), weighted_jump(2.0 - 1j * x2)
    jumps = np.column_stack((lower.real, lower.imag, upper.real, upper.imag))
    # In each block of times, a node with x^2 t < 2^-10 at every time adds
    # its jump through the prefix moments M_m = SUM_{i<a} D_i x_i^{2m}, as
    # SUM_m (-t)^m/m! M_m for m <= 4 (truncation below y^5/5! <= 7.5e-18 of
    # the jumps, y = x^2 t), and a node with x^2 t > 44 at every time, where
    # e^{-x^2 t} < 1e-19, is dropped.  A time's exp window, x from
    # 2^-5/sqrt(t) to 6.7/sqrt(t), meets at most 9 of the doubling panels.
    orders = np.arange(RAY_MOMENTS)
    moments = np.zeros((RAY_MOMENTS, len(x2) + 1, 4))
    np.cumsum((x2 ** orders[:, None])[:, :, None] * jumps, axis=1, out=moments[:, 1:])
    taylor = np.array([(-1.0) ** m / math.factorial(m) for m in orders])
    sums = np.empty((len(ts), 4))
    step = max(BLOCK_NODES // (9 * 30), 1)
    for lo in range(0, len(ts), step):
        block = ts[lo:lo + step]
        a, b = np.searchsorted(x2, (RAY_SERIES_MAX / block.max(), 44.0 / block.min()))
        series = taylor * block[:, None] ** orders
        sums[lo:lo + step] = np.exp(-block[:, None] * x2[a:b]) @ jumps[a:b] + series @ moments[:, a]
    out = (nw2 / (2j * math.pi)) * (
        -1j * np.exp(2j * ts) * (sums[:, 0] + 1j * sums[:, 1])
        + 1j * np.exp(-2j * ts) * (sums[:, 2] + 1j * sums[:, 3]))
    return out if np.ndim(t) else complex(out[0])


def w_far_zone_coefficient(g: float) -> float:
    """Coefficient of the w = 1 far-zone law P_w(t) ~ C_w cos^2(...)/t^3 envelope."""
    if not (0 < g < 1.0):
        raise DivergenceError(
            "w = 1 far-zone law requires 0 < g < 1; at g = 1 the 16/(9 pi t) "
            "near-zone law applies")
    zg, dg = z_gap(g)
    return ((2.0 + g * zg) ** 4
            / (4.0 * math.pi * g ** 4 * (2.0 + g * g) ** 2 * (2.0 + zg) ** 2 * dg * dg))


def w_far_zone(t, g: float):
    """w = 1 far-zone survival probability envelope (0 < g < 1, t >> T_Delta).

    The upper band edge enters with relative weight ((2 - g z_g)/(2 + g z_g))^2,
    tiny near g = 1, so the two-edge oscillations are almost fully damped and
    the law is a smooth power law.
    """
    coef = w_far_zone_coefficient(g)
    t = _positive_times(t, "far-zone probability requires t > 0")
    return coef / t ** 3


def w_near_zone_g1(t):
    """w = 1, g = 1 asymptotic near-zone law P_w(t) = 16/(9 pi t)."""
    t = _positive_times(t, "near-zone probability requires t > 0")
    return 16.0 / (9.0 * math.pi * t)


class Law(NamedTuple):
    """A law on the probability scale (amplitude laws squared), its validity
    window [lo, hi] from the :class:`Timescales`, and, for a law that does not
    check its own domain, a predicate on g with its refusal.  ``prob`` calls
    the law by its module-level name, so the name is looked up at each call."""

    prob: Callable[[np.ndarray, ModelParams], np.ndarray]
    window: Callable[[Timescales], tuple[float, float]]
    requires: tuple[Callable[[float], bool], str] | None = None

    def curve(self, params: ModelParams, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, in_window) on a positive time grid."""
        if self.requires is not None and not self.requires[0](params.g):
            raise InvalidParameterError(self.requires[1])
        lo, hi = self.window(timescales(params.g))
        return np.asarray(self.prob(ts, params), dtype=float), (ts >= lo) & (ts <= hi)


def _pole_decay(pole: tuple[float, float], ts: np.ndarray) -> np.ndarray:
    amp, rate = pole
    return amp * np.exp(-rate * ts)


LAWS: dict[str, Law] = {
    "EarlyBessel": Law(lambda ts, p: np.abs(early_approx(ts, p.g)) ** 2,
                       lambda s: (-math.inf, s.t_br)),
    "NearZoneAmp": Law(lambda ts, p: np.abs(near_zone_amp(ts, p.g)) ** 2,
                       lambda s: (s.t_zeno, s.t_br)),
    "NearZoneEarlyProb": Law(lambda ts, p: near_zone_prob(ts, p.g),
                             lambda s: (s.t_zeno, s.t_br)),
    "FarZoneProb": Law(lambda ts, p: far_zone_prob(ts, p.g),
                       lambda s: (5.0 * s.t_delta, math.inf)),
    # libm pow, as for a Python float ** 2; numpy's ** 2 is x * x (last bit differs)
    "BoundTerm": Law(
        lambda ts, p: np.float_power(bound_term(ts, p.g), 2), lambda s: (-math.inf, math.inf),
        (lambda g: g > 1.0, "BoundTerm requires g > 1 (no bound states otherwise)")),
    "ResPolePerp": Law(lambda ts, p: _pole_decay(res_pole_perp(p), ts),
                       lambda s: (-math.inf, math.inf)),
    "ResPole1d": Law(lambda ts, p: _pole_decay(res_pole_1d(p), ts),
                     lambda s: (-math.inf, math.inf)),
    "WFarZone": Law(lambda ts, p: w_far_zone(ts, p.g), lambda s: (5.0 * s.t_delta, math.inf)),
    "WNearZoneG1": Law(
        lambda ts, p: w_near_zone_g1(ts), lambda s: (s.t_zeno, math.inf),
        (lambda g: g == 1.0, "WNearZoneG1 is the g = 1 law; got g != 1")),
}
