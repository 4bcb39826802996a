"""Semi-analytic and closed-form survival amplitudes.

Routes to the survival amplitude of the BIC-orthogonal states:

* ``a_w_cut`` -- the branch-cut contour of the generalized w-state
  resolvent N_w^2 (C0 + Q G_dd), from the chain Dyson algebra, reduced to a
  real integral over k in [0, pi] (z = -2 cos k); works for any detuning.
  One call takes a whole ascending time grid: the adaptive Gauss rule runs
  on two-period pieces of exp(2 i t_max cos k), bisects level by level
  until every time's summed error estimate meets the tolerance, evaluates
  the t-independent jump once per node and carries the times as an array
  axis (``_cut_integral``).  The discontinuity sign is pinned by
  the t = 0 sum rule: at eps_d = 0 the cut carries the full norm for
  g <= 1 and 1/g^2 for g > 1 (the bound-state pair takes the rest).
  ``a_br_quadrature`` is this route for the perp state (w = 0, eps_d = 0)
  at couplings whose z_g^2 is finite.
* ``bessel_exact_grid`` -- the exact Bessel-function representation
  obtained by fraction decomposition: A_br = -(1/2g)(I(+z_g) - I(-z_g)) with

      I(+/- z_g) = e^{∓ i z_g t} [∓ g - i INT_0^t e^{+/- i z_g tau}
                                           J_1(2 tau)/tau d tau],

  the integrable tau -> 0 limit J_1(2 tau)/tau -> 1 handled analytically.
  The tail integral is a GL30 sum over a uniform grid of panels
  min(1, 10/z_g) wide, accumulated by one cumulative sum, plus, for each
  time, the integral of its panel's interpolant from the panel's edge to
  the time, formed from the same 30 node values.  Above the Hankel seam
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
  where e^{-x^2 t} is neither 1 nor negligible, and one real matmul.

Array blocks hold at most ``BLOCK_NODES`` quadrature nodes (for the cut,
phase exps), so memory stays flat however long the time grid.  sigma_1 is
``spectrum.sigma1``.  The module needs numpy alone: the GL15/GL30 rules
of the cut, the Bessel tail and the rays come from numpy, and J_0 and J_1
(``early_approx``) from ``evolve.bessel_j01``, which is Miller's
recurrence (``evolve.bessel_table``) below x = 25 and Hankel's expansion
(DLMF 10.17) above it; the Bessel tail takes J_1 from the same two.

Closed-form approximations:

* early-time two-edge form with the virtual-Rabi term (``early_approx``),
* near-zone 1/t law (``near_zone_amp`` / ``near_zone_prob``),
* far-zone 1/t^3 law (``far_zone_prob``),
* bound-state pair term (``bound_term``),
* resonance-pole exponential prefactors (``res_pole_perp`` / ``res_pole_1d``),
* w = 1 decoherence laws (``w_far_zone`` / ``w_near_zone_g1``).

``LAWS`` maps each ``ApproximationTag`` to its law, validity window and
precondition; ``LAWS[tag].curve(params, ts)`` gives values and window mask.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import legvander

from .evolve import HANKEL_SEAM, _miller_start, bessel_j01, bessel_table, hankel_pq
from .model import ConfigError, InvalidParameterError, ModelParams, NumericalError
from .spectrum import (SheetTag, Timescales, _chain_split, resonance_expansion, sigma1,
                       timescales, w_norm_sq, z_gap)


class QuadratureError(NumericalError):
    """Oscillatory quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, error_estimate: float) -> None:
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


class DomainError(ConfigError):
    """Argument outside the mathematical domain of a closed-form law."""


class DivergenceError(ConfigError):
    """Closed form diverges at these parameters; a different law applies."""


class ApproximationTag(enum.Enum):
    EarlyBessel = "EarlyBessel"
    NearZoneAmp = "NearZoneAmp"
    NearZoneEarlyProb = "NearZoneEarlyProb"
    FarZoneProb = "FarZoneProb"
    BoundTerm = "BoundTerm"
    ResPolePerp = "ResPolePerp"
    ResPole1d = "ResPole1d"
    WFarZone = "WFarZone"
    WNearZoneG1 = "WNearZoneG1"


_GL15 = np.polynomial.legendre.leggauss(15)
_GL30 = np.polynomial.legendre.leggauss(30)

#: Nodes of the adaptive cut rule on [-1, 1]: GL30 then GL15, evaluated
#: together; row 0 of the weights forms GL30 and row 1 GL15.
_GL_NODES = np.concatenate((_GL30[0], _GL15[0]))
_GL_WEIGHTS = np.zeros((2, len(_GL_NODES)))
_GL_WEIGHTS[0, :30], _GL_WEIGHTS[1, 30:] = _GL30[1], _GL15[1]

#: Quadrature nodes evaluated per array block: 170 GL30 panels, 113 cut
#: intervals or the windows of 5 ray times; cut phase exps, twice as many.
#: About 80 KB per complex temporary, so the temporaries of a block stay in
#: cache and a long grid does not raise the peak memory.
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
    inverse of the Legendre-Vandermonde matrix V: discrete orthogonality,
    (n + 1/2) w_k P_n(x_k), gives it only to about 2e-14, since numpy's GL30
    weights are up to 1400 ulp off the exact ones, and one Newton step
    C (2 - V C) refines it to rounding.  The weights in row 29 stand in for
    the exact 2 c_0, which differs from them by up to 2.4e-15.
    """
    x, w = _GL30
    v = legvander(x, 29)
    c = v.T * w * (np.arange(30) + 0.5)[:, None]
    c = c @ (2.0 * np.eye(30) - v @ c)
    return np.vstack((c[1:] / (2.0 * np.arange(1, 30) + 1.0)[:, None], w))


_GL30_PARTIAL = _partial_panel_rule()

#: Times whose partial panels are formed together: their gathered node
#: values hold 4 BLOCK_NODES complex entries.
PARTIAL_TIMES = 4 * BLOCK_NODES // 30

#: Stride of the cut rule's phase on an evenly spaced grid: the phase at
#: t_{j + r}, j a multiple of the stride, is the exact exp at t_j times the
#: exact exp at the offset r dt, so one exp per node serves stride times.
PHASE_STRIDE = 16

#: Bisection depth at which an adaptive cut interval is accepted as is.
MAX_DEPTH = 28

#: Bessel-tail panels (t_max / ``_panel_width``) above which
#: ``bessel_exact_grid`` refuses a grid, that is t_max above 2.5e5 min(1, 10/z_g).
#: At the cap a grid of 2 to 4000 times takes about 0.3 s and 45 MB of process
#: memory on a 2-vCPU x86 host; fig2c, the longest figure grid, needs 3e4 panels.
MAX_PANELS = 250_000

#: Open cut intervals at which the quadrature gives up (about 8 MB per
#: interval array); a tolerance that round-off cannot meet would otherwise
#: double the open set at every level.
MAX_OPEN = 1 << 20


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


def _phase_stride(ts: np.ndarray) -> tuple[int, float]:
    """(M, dt): M = PHASE_STRIDE on an evenly spaced grid of step dt (every time
    within 4 ulp of t_0 + j dt), else M = 1 with no offsets."""
    if len(ts) < 2:
        return 1, 0.0
    dt = (ts[-1] - ts[0]) / (len(ts) - 1)
    off_grid = np.max(np.abs(ts - (ts[0] + dt * np.arange(len(ts)))))
    return (PHASE_STRIDE, dt) if off_grid <= 4.0 * np.spacing(ts[-1]) else (1, 0.0)


def _rule_sums(weighted: np.ndarray, c2: np.ndarray, ts: np.ndarray, stride: int,
               dt: float) -> np.ndarray:
    """(interval, rule, time) sums of weighted * exp(i c2 t) over the nodes.

    ``weighted`` is (interval, rule, node) and ``c2`` = 2 cos k is (interval,
    node).  The phase at t_{j + r}, j a multiple of ``stride``, is the exact
    exp at t_j times the exact exp at the offset r dt.  The offset factors
    are folded into the weights, so one matmul with the exps at every
    stride-th time forms every sum, and no (node, time) phase array is
    built.  A block of exps holds at most 2 BLOCK_NODES entries.
    """
    n_i, n_r, n_n = weighted.shape
    offsets = np.exp(1j * c2[:, None, :] * (dt * np.arange(stride))[:, None])
    mixed = (weighted[:, :, None, :] * offsets[:, None]).reshape(n_i, n_r * stride, n_n)
    base = ts[::stride]
    q_block = max(2 * BLOCK_NODES // (n_i * n_n), 1)
    out = np.empty((n_i, n_r, len(base), stride), dtype=complex)
    for q in range(0, len(base), q_block):
        phase = np.exp(1j * c2[..., None] * base[q:q + q_block])
        sums = (mixed @ phase).reshape(n_i, n_r, stride, -1)
        out[:, :, q:q + q_block] = sums.transpose(0, 1, 3, 2)
    return out.reshape(n_i, n_r, -1)[..., :len(ts)]


def _cut_integral(h, ts: np.ndarray, abs_tol: float) -> np.ndarray:
    """INT_0^pi h(k) exp(2 i t cos k) dk at every time of an ascending grid ts.

    The phase 2 t_max cos k is split at multiples of 4 pi, so each piece
    holds at most two oscillations at every t <= t_max; each piece starts
    as an open interval with an equal share of ``abs_tol``.  Level by level,
    h is evaluated once per node of every open interval, on the GL30 and
    GL15 nodes together, and a matmul with the phase exp(2 i t cos k) forms
    both rules at every time.  After a level, once the error estimates
    |GL30 - GL15| of the accepted and the still-open intervals sum to at
    most ``abs_tol`` at every time, the open intervals are accepted with
    their GL30 values and the rule stops (QUADPACK's global acceptance
    test, Piessens et al. 1983).  Otherwise an interval whose estimate
    max_t |GL30 - GL15| is below its share, or that has been bisected
    MAX_DEPTH times, is accepted with its GL30 values, and the others are
    bisected, each half with half the share.  A non-finite error estimate
    raises at once, since bisection cannot repair it; a time whose accepted
    error estimates sum to more than ``abs_tol`` raises after the last
    level.

    On an evenly spaced grid a node costs one complex exp per PHASE_STRIDE
    times (``_rule_sums``); other grids, and a single time, use a stride of
    1.  No (node, time) phase array is built, a block of exps or of folded
    weights holds at most about 2 BLOCK_NODES entries, and accepted
    intervals are summed block by block, so memory stays flat in the number
    of times.
    """
    t_max = float(ts[-1])
    # k = pi/2 (z = 0) is always an interval boundary: quadrature nodes are
    # strictly interior, so the removable BIC-point 0/0 of the w-state
    # integrand at eps_d = 0 is never sampled
    pts = [0.0, 0.5 * math.pi, math.pi]
    if t_max > 0:
        j_max = int(math.floor(t_max / (2.0 * math.pi)))
        for j in range(-j_max, j_max + 1):
            c = 2.0 * j * math.pi / t_max
            if -1.0 < c < 1.0:
                pts.append(math.acos(c))
    edges = np.unique(np.asarray(pts))
    a, b = edges[:-1], edges[1:]
    tol = np.full(len(a), abs_tol / len(a))

    n_t, n_nodes = len(ts), len(_GL_NODES)
    stride, dt = _phase_stride(ts)
    # intervals whose exps at every stride-th time, and whose weights times
    # the offset exps, fill one block of 2 BLOCK_NODES (at least one); and a
    # multiple of them per evaluation of h
    per_interval = n_nodes * max(-(-n_t // stride), len(_GL_WEIGHTS) * stride)
    i_block = max(2 * BLOCK_NODES // per_interval, 1)
    h_block = i_block * max(BLOCK_NODES // (n_nodes * i_block), 1)

    total = np.zeros(n_t, dtype=complex)
    err_total = np.zeros(n_t)
    for depth in range(MAX_DEPTH + 1):
        done = np.empty(len(a), dtype=bool)
        sum_open = np.zeros(n_t, dtype=complex)
        err_open = np.zeros(n_t)
        for lo in range(0, len(a), h_block):
            a_h, b_h = a[lo:lo + h_block], b[lo:lo + h_block]
            half = 0.5 * (b_h - a_h)
            k = half[:, None] * _GL_NODES + 0.5 * (a_h + b_h)[:, None]
            weighted = half[:, None, None] * _GL_WEIGHTS * h(k)[:, None, :]
            c2 = 2.0 * np.cos(k)
            for i in range(lo, lo + len(half), i_block):
                block = slice(i - lo, i - lo + i_block)
                sums = _rule_sums(weighted[block], c2[block], ts, stride, dt)
                err = np.abs(sums[:, 0] - sums[:, 1])
                if not np.all(np.isfinite(err)):
                    raise QuadratureError("branch-cut quadrature hit a non-finite error estimate",
                                          float(err[~np.isfinite(err)][0]))
                ok = (np.max(err, axis=1) < tol[i:i + i_block]) | (depth == MAX_DEPTH)
                done[i:i + len(ok)] = ok
                total += np.sum(sums[ok, 0], axis=0)
                err_total += np.sum(err[ok], axis=0)
                sum_open += np.sum(sums[~ok, 0], axis=0)
                err_open += np.sum(err[~ok], axis=0)
        if done.all() or np.all(err_total + err_open <= abs_tol):
            total += sum_open
            err_total += err_open
            break
        a, b, tol = a[~done], b[~done], tol[~done]
        if 2 * len(a) > MAX_OPEN:
            raise QuadratureError(
                f"branch-cut quadrature did not converge ({len(a)} intervals open "
                f"after {depth + 1} levels)", float(np.max(err_total + err_open)))
        mid = 0.5 * (a + b)
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        tol = np.repeat(0.5 * tol, 2)
    worst = int(np.argmax(err_total))
    if err_total[worst] > abs_tol:
        raise QuadratureError(f"branch-cut quadrature did not converge at t = {ts[worst]:g}",
                              float(err_total[worst]))
    return total


def a_br_quadrature(t, g: float, abs_tol: float = 1e-9):
    """Branch-cut contribution to the survival amplitude at eps_d = 0.

    The perp state is the w = 0 state, so this returns ``a_w_cut(t,
    ModelParams(g), 0.0, abs_tol)``: a time or an ascending grid of times
    >= 0, on the one all-times cut rule.  For g > 1 the cut carries 1/g^2
    of the norm at t = 0 and ``bound_term`` the rest.  Unlike ``a_w_cut``,
    it refuses a g whose z_g^2 = (g + 1/g)^2 overflows with
    :class:`InvalidParameterError`: at g = 1e-170 it raises, where
    ``a_w_cut`` returns the g -> 0 limit J_1(2t)/t (0.5767 at t = 1).
    """
    zg, _ = z_gap(g)
    # a finite 2 z_g^2 keeps g^2 and 1/g^2 finite; otherwise the integrand
    # under- or overflows
    if not math.isfinite(2.0 * zg * zg):
        raise InvalidParameterError(
            f"branch-cut quadrature needs a finite z_g^2 = (g + 1/g)^2, got g = {g}")
    return a_w_cut(t, ModelParams(g=g), 0.0, abs_tol)


def bound_term(t, g: float):
    """Combined bound-state pair contribution ((g^2-1)/g^2) cos(z_g t); 0 for g <= 1."""
    zg, _ = z_gap(g)
    t = np.asarray(t, dtype=float)
    _check_times(t)
    if g <= 1.0:
        return np.zeros(t.shape)[()]
    return (g * g - 1.0) / (g * g) * np.cos(zg * t)


def _panel_width(zg: float) -> float:
    """Bessel-tail panel width min(1, 10/z_g): under two periods (at most
    1.91) of the integrand's fastest phase e^{i(z_g + 2) tau}."""
    return min(1.0, 10.0 / zg)


def _partial_weights(x: np.ndarray) -> np.ndarray:
    """(time, node) weights that integrate the interpolant of a GL30 panel's
    node values from -1 to each x in [-1, 1] (``_partial_panel_rule``).

    P_0 .. P_30 at x come from the three-term recurrence, run on the rows of
    a (degree, time) array.
    """
    p = np.empty((31, len(x)))
    p[0], p[1] = 1.0, x
    xp = np.empty_like(x)
    for n in range(1, 30):
        # P_{n+1} = x P_n + n/(n + 1) (x P_n - P_{n-1}), exact at x = +/-1
        np.multiply(x, p[n], out=xp)
        np.subtract(xp, p[n - 1], out=p[n + 1])
        p[n + 1] *= n / (n + 1)
        p[n + 1] += xp
    p[:29] = p[2:] - p[:29]
    p[29] = 0.5 * (1.0 + x)
    return p[:30].T @ _GL30_PARTIAL


def _tail_integrand(tau: np.ndarray, zg: float) -> np.ndarray:
    """J_1(2 tau)/tau e^{i z_g tau} at the nodes of panels that reach below the
    Hankel seam (2 tau < 27), J_1 from one Miller table (``evolve.bessel_table``)
    over all of them."""
    x = 2.0 * tau.ravel()
    j1 = bessel_table(x, _miller_start(x), 1)[:, 1].reshape(tau.shape)
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
    j = np.floor(ts / width)
    j -= j * width > ts
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
    zg, _ = z_gap(g)
    if ts[-1] / _panel_width(zg) > MAX_PANELS:
        raise InvalidParameterError(
            f"Bessel representation at g = {g:g} up to t = {ts[-1]:g} needs more than "
            f"{MAX_PANELS} quadrature panels; use a_br_quadrature")
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


def _jump(z, sig_below, sig_above, g: float, eps_d: float, w: float):
    """Below-minus-above jump of C0 + Q G_dd, given sigma_1 on either side.

    Sigma = g^2 z sigma_1^2 on either side, so G_dd = 1/(z - eps_d - Sigma).
    """

    def side(sig):
        background, coupling = _chain_split(sig, g, w)
        g_dd = 1.0 / (z - eps_d - g * g * z * sig * sig)
        return background + coupling * g_dd

    return side(sig_below) - side(sig_above)


def _disc_on_cut(k: np.ndarray, g: float, eps_d: float, w: float) -> np.ndarray:
    """Below-minus-above jump of the w-state resolvent across the band.

    On the cut z = -2 cos k the boundary values of sigma_1 are -e^{+/- i k}
    (above/below).
    """
    return _jump(-2.0 * np.cos(k), -np.exp(-1j * k), -np.exp(1j * k), g, eps_d, w)


def a_w_cut(t, params: ModelParams, w: float, abs_tol: float = 1e-9):
    """Survival amplitude of the w-state from the branch-cut contour.

    Reduces the counter-clockwise contour around the band to the jump of
    N_w^2 (sigma_1 + Q G_dd) across the cut and integrates over k in
    [0, pi].  Valid for any detuning; bound-state poles are not included
    and must be added by the caller when present.  ``t`` is a time or an
    ascending grid of times >= 0; one call integrates every time at once
    (``_cut_integral``), each to a summed error estimate of at most
    ``abs_tol``, which must be finite and positive.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0):
        raise InvalidParameterError(f"abs_tol must be finite and positive, got {abs_tol}")
    ts = np.asarray(t, dtype=float)
    _check_times(ts)
    if np.any(ts < 0):
        raise InvalidParameterError(
            f"time t must be non-negative, got t = {ts[ts < 0].flat[0]}")
    grid = np.atleast_1d(ts)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) < 0):
        raise InvalidParameterError("t must be a time or a non-empty ascending grid of times")
    g, eps_d = params.g, params.eps_d
    nw2 = w_norm_sq(g, w)

    def h(k: np.ndarray) -> np.ndarray:
        return (nw2 / (2j * math.pi)) * 2.0 * np.sin(k) * _disc_on_cut(k, g, eps_d, w)

    out = _cut_integral(h, grid, abs_tol)
    return out if ts.ndim else complex(out[0])


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
        return weights * _jump(z, 1.0 / sig_above, sig_above, g, 0.0, w)

    # the t-independent part of each ray integral, once per call
    lower, upper = weighted_jump(-2.0 - 1j * x2), weighted_jump(2.0 - 1j * x2)
    jumps = np.column_stack((lower.real, lower.imag, upper.real, upper.imag))
    # e^{-x^2 t} is exactly 1 where x^2 t < 2^-54 and below 1e-19 where
    # x^2 t > 44: in each block of times the nodes below that window add
    # their jumps as one prefix sum, and the nodes above it are dropped.  A
    # time's window, x from 2^-27/sqrt(t) to 6.7/sqrt(t), meets at most 31
    # of the doubling panels.
    below = np.concatenate((np.zeros((1, 4)), np.cumsum(jumps, axis=0)))
    sums = np.empty((len(ts), 4))
    step = max(BLOCK_NODES // (31 * 30), 1)
    for lo in range(0, len(ts), step):
        block = ts[lo:lo + step]
        a, b = np.searchsorted(x2, (2.0 ** -54 / block.max(), 44.0 / block.min()))
        sums[lo:lo + step] = np.exp(-block[:, None] * x2[a:b]) @ jumps[a:b] + below[a]
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


LAWS: dict[ApproximationTag, Law] = {
    ApproximationTag.EarlyBessel: Law(lambda ts, p: np.abs(early_approx(ts, p.g)) ** 2,
                                      lambda s: (-math.inf, s.t_br)),
    ApproximationTag.NearZoneAmp: Law(lambda ts, p: np.abs(near_zone_amp(ts, p.g)) ** 2,
                                      lambda s: (s.t_zeno, s.t_br)),
    ApproximationTag.NearZoneEarlyProb: Law(lambda ts, p: near_zone_prob(ts, p.g),
                                            lambda s: (s.t_zeno, s.t_br)),
    ApproximationTag.FarZoneProb: Law(lambda ts, p: far_zone_prob(ts, p.g),
                                      lambda s: (5.0 * s.t_delta, math.inf)),
    # libm pow, as for a Python float ** 2; numpy's ** 2 is x * x (last bit differs)
    ApproximationTag.BoundTerm: Law(
        lambda ts, p: np.float_power(bound_term(ts, p.g), 2), lambda s: (-math.inf, math.inf),
        (lambda g: g > 1.0, "BoundTerm requires g > 1 (no bound states otherwise)")),
    ApproximationTag.ResPolePerp: Law(lambda ts, p: _pole_decay(res_pole_perp(p), ts),
                                      lambda s: (-math.inf, math.inf)),
    ApproximationTag.ResPole1d: Law(lambda ts, p: _pole_decay(res_pole_1d(p), ts),
                                    lambda s: (-math.inf, math.inf)),
    ApproximationTag.WFarZone: Law(lambda ts, p: w_far_zone(ts, p.g),
                                   lambda s: (5.0 * s.t_delta, math.inf)),
    ApproximationTag.WNearZoneG1: Law(
        lambda ts, p: w_near_zone_g1(ts), lambda s: (s.t_zeno, math.inf),
        (lambda g: g == 1.0, "WNearZoneG1 is the g = 1 law; got g != 1")),
}
