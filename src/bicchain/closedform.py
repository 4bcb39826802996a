"""Semi-analytic and closed-form survival amplitudes.

Routes to the survival amplitude of the BIC-orthogonal state at eps_d = 0:

* ``a_br_quadrature`` -- the branch-cut contour reduced to a real integral
  over k in [0, pi] (z = -2 cos k) and evaluated by adaptive Gauss
  quadrature on half-period pieces of the oscillatory factor exp(2it cos k).
  The adaptive rule bisects level by level: each level evaluates GL15 and
  GL30 on all intervals still open as one array computation.  The
  discontinuity sign is pinned by the t = 0 sum rule: the cut carries the
  full norm for g <= 1 and 1/g^2 for g > 1 (the bound-state pair takes the
  rest).
* ``bessel_exact`` -- the exact Bessel-function representation obtained by
  fraction decomposition: A_br = -(1/2g)(I(+z_g) - I(-z_g)) with

      I(+/- z_g) = e^{∓ i z_g t} [∓ g - i INT_0^t e^{+/- i z_g tau}
                                           J_1(2 tau)/tau d tau],

  the integrable tau -> 0 limit J_1(2 tau)/tau -> 1 handled analytically.
  The tail integral is a GL30 sum over panels min(0.25, 2.5/z_g) wide,
  evaluated in array blocks and accumulated by one cumulative sum.
* ``a_w_cut`` -- the same contour reduction for the generalized w-state
  resolvent N_w^2 (C0 + Q G_dd) from the chain Dyson algebra; works for any
  detuning.
* ``a_w_rays`` -- band-edge ray deformation of the cut contour (eps_d = 0),
  exact for t >= ~1 at O(1) cost; the route of choice deep in the far zone.
  A 320-node rule is evaluated for a block of times at once.

Array blocks hold at most ``BLOCK_NODES`` quadrature nodes, so memory stays
flat however long the time grid.  sigma_1 is ``spectrum.sigma1``.

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
import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import j0, j1, roots_legendre

from .model import ConfigError, InvalidParameterError, ModelParams, NumericalError
from .spectrum import (SheetTag, Timescales, resolvent_dd, resonance_expansion, sigma1,
                       timescales, z_gap)


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


_GL15 = roots_legendre(15)
_GL30 = roots_legendre(30)

#: Quadrature nodes evaluated per array block: 170 GL30 panels or 16 ray
#: times.  About 80 KB per complex temporary, so the temporaries of a block
#: stay in cache (on a 2-vCPU x86 host, 25 ray times per block ran 1.5x
#: slower than 16) and a long grid does not raise the peak memory.
BLOCK_NODES = 5120

#: Bisection depth at which an adaptive cut interval is accepted as is.
MAX_DEPTH = 28

#: GL30 panels of the Bessel tail above which ``bessel_exact_grid`` refuses
#: a grid.  At the cap a grid takes about 60 MB and 3.5 s on a 2-vCPU x86
#: host; fig2c, the longest figure grid, needs 1.2e5 panels.
MAX_PANELS = 1_000_000

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
    if np.any(t <= 0):
        raise DomainError(refusal)
    return t


def _gauss_panels(f, a: np.ndarray, b: np.ndarray, rule) -> np.ndarray:
    """Gauss sums of f over the panels [a_i, b_i], in blocks of BLOCK_NODES nodes."""
    x, w = rule
    out = np.empty(len(a), dtype=complex)
    step = max(BLOCK_NODES // len(x), 1)
    for lo in range(0, len(a), step):
        hi = lo + step
        half = 0.5 * (b[lo:hi] - a[lo:hi])
        nodes = half[:, None] * x + 0.5 * (a[lo:hi] + b[lo:hi])[:, None]
        out[lo:hi] = half * (f(nodes) @ w)
    return out


def _cut_integral(h, t: float, abs_tol: float) -> complex:
    """INT_0^pi h(k) exp(2 i t cos k) dk with half-period splitting.

    The phase 2 t cos k is split at multiples of pi so each piece holds at
    most half an oscillation; each piece starts as an open interval with an
    equal share of ``abs_tol``.  Level by level, GL15 and GL30 run once over
    every open interval: one whose error estimate |GL30 - GL15| is below its
    tolerance, or that has been bisected MAX_DEPTH times, is accepted with
    its GL30 value; the others are bisected, each half with half the
    tolerance.  These are the intervals a depth-first adaptive recursion
    accepts.  A non-finite error estimate raises at once, since bisection
    cannot repair it.
    """
    # k = pi/2 (z = 0) is always an interval boundary: quadrature nodes are
    # strictly interior, so the removable BIC-point 0/0 of the w-state
    # integrand at eps_d = 0 is never sampled
    pts = [0.0, 0.5 * math.pi, math.pi]
    if t > 0:
        j_max = int(math.floor(2.0 * t / math.pi))
        for j in range(-j_max, j_max + 1):
            c = 0.5 * j * math.pi / t
            if -1.0 < c < 1.0:
                pts.append(math.acos(c))
    edges = np.unique(np.asarray(pts))
    a, b = edges[:-1], edges[1:]
    tol = np.full(len(a), abs_tol / len(a))

    def f(k: np.ndarray) -> np.ndarray:
        return h(k) * np.exp(2j * t * np.cos(k))

    total = 0.0 + 0.0j
    err_total = 0.0
    for depth in range(MAX_DEPTH + 1):
        fine = _gauss_panels(f, a, b, _GL30)
        err = np.abs(fine - _gauss_panels(f, a, b, _GL15))
        if not np.all(np.isfinite(err)):
            raise QuadratureError("branch-cut quadrature hit a non-finite error estimate",
                                  float(err[~np.isfinite(err)][0]))
        done = (err < tol) | (depth == MAX_DEPTH)
        total += complex(np.sum(fine[done]))
        err_total += float(np.sum(err[done]))
        if done.all():
            break
        a, b, tol = a[~done], b[~done], tol[~done]
        if 2 * len(a) > MAX_OPEN:
            raise QuadratureError(
                f"branch-cut quadrature did not converge ({len(a)} intervals open "
                f"after {depth + 1} levels)", err_total + float(np.sum(err[~done])))
        mid = 0.5 * (a + b)
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        tol = np.repeat(0.5 * tol, 2)
    if err_total > abs_tol:
        raise QuadratureError("branch-cut quadrature did not converge", err_total)
    return total


def a_br_quadrature(t: float, g: float, abs_tol: float = 1e-9) -> complex:
    """Branch-cut contribution to the survival amplitude, by quadrature.

    A_br(t) = (2 (1+g^2) / (pi g^2)) INT_0^pi e^{2 i t cos k}
              sin^2 k / (z_g^2 - 4 cos^2 k) dk.

    At g = 1 the endpoint zeros of the denominator cancel against sin^2 k,
    so no principal value is ever needed.  Practical for t <= ~500.
    """
    zg, _ = z_gap(g)
    _check_times(t)
    if t < 0:
        raise InvalidParameterError(f"time must be non-negative, got {t}")
    # a finite 2 z_g^2 keeps g^2, 1/g^2 and so pref finite; otherwise the
    # integrand underflows or the tolerance abs_tol / pref is zero
    if not math.isfinite(2.0 * zg * zg):
        raise InvalidParameterError(
            f"branch-cut quadrature needs a finite z_g^2 = (g + 1/g)^2, got g = {g}")
    pref = 2.0 * (1.0 + g * g) / (math.pi * g * g)

    def h(k: np.ndarray) -> np.ndarray:
        sk = np.sin(k)
        return sk * sk / (zg * zg - 4.0 * np.cos(k) ** 2)

    return pref * _cut_integral(h, float(t), abs_tol / pref)


def bound_term(t, g: float):
    """Combined bound-state pair contribution ((g^2-1)/g^2) cos(z_g t); 0 for g <= 1."""
    zg, _ = z_gap(g)
    t = np.asarray(t, dtype=float)
    if g <= 1.0:
        return np.zeros(t.shape)[()]
    return (g * g - 1.0) / (g * g) * np.cos(zg * t)


def _panel_width(zg: float) -> float:
    """Bessel-tail panel width: at most 0.4 periods of e^{i z_g tau}."""
    return min(0.25, 2.5 / zg)


def _bessel_tail(ts: np.ndarray, zg: float) -> np.ndarray:
    """Cumulative INT_0^t e^{i z_g tau} J_1(2 tau)/tau d tau on an ascending grid.

    The panels are a ``_panel_width(zg)`` grid merged with the requested
    times.  Their GL30 sums are evaluated as array blocks (``_gauss_panels``)
    and one ``cumsum`` accumulates them from left to right.
    """

    def f(tau: np.ndarray) -> np.ndarray:
        out = np.ones_like(tau)
        m = tau > 1e-12
        out[m] = j1(2.0 * tau[m]) / tau[m]
        return out * np.exp(1j * zg * tau)

    t_max = float(ts[-1])
    width = _panel_width(zg)
    grid = np.round(np.arange(0.0, t_max + 1.2 * width, width), 12)
    edges = np.union1d(grid, np.round(ts, 12))
    panels = _gauss_panels(f, edges[:-1], edges[1:], _GL30)
    cum = np.concatenate(([0j], np.cumsum(panels)))
    return cum[np.searchsorted(edges, np.round(ts, 12))]


def bessel_exact_grid(ts: np.ndarray, g: float) -> np.ndarray:
    """Exact Bessel-representation A_br on an ascending time grid (0 < g <= 1).

    Evaluates the tail integral incrementally, so a dense grid costs no more
    than its largest time; a grid that needs more than ``MAX_PANELS`` panels
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


def bessel_exact(t: float, g: float) -> complex:
    """Exact Bessel-representation A_br at a single time (0 < g <= 1)."""
    return complex(bessel_exact_grid(np.array([float(t)]), g)[0])


def early_approx(t, g: float, reduced: bool = False):
    """Short/intermediate-time two-edge approximation, valid t << T_Delta.

    Default is the sharper form
        (1/g) [(g-1) cos(z_g t) + cos(Delta_g t) J_0(2t) - sin(Delta_g t) J_1(2t)];
    with ``reduced=True`` the simpler (1/g) J_0(2t) - ((1-g)/g) cos 2t.
    """
    if not (0 < g <= 1.0):
        raise InvalidParameterError(f"early-time form requires 0 < g <= 1, got {g}")
    t = np.asarray(t, dtype=float)
    zg, dg = z_gap(g)
    if reduced:
        out = (1.0 / g) * j0(2.0 * t) - ((1.0 - g) / g) * np.cos(2.0 * t)
    else:
        out = (1.0 / g) * ((g - 1.0) * np.cos(zg * t)
                           + np.cos(dg * t) * j0(2.0 * t)
                           - np.sin(dg * t) * j1(2.0 * t))
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


def q_of_z(z: complex, g: float, w: float, sheet: SheetTag = SheetTag.First) -> complex:
    """Compact chain polynomial Q(z) of the w-state resolvent at eps_d = 0.

    Q = g^2 + sigma_1^2 (2g^2 - 2g^2 w z + g^2 sigma_1^2 - 2 w z + w^2 z^2);
    for w = 1 this collapses to (1+g^2) z (z-2) sigma_1^2.  Together with a
    bare sigma_1 chain term it reproduces the resolvent diagonal exactly at
    eps_d = 0 (it absorbs a (z - Sigma) multiple of the chain background);
    the detuning-safe split is :func:`a_w_resolvent`.
    """
    sig = sigma1(z, sheet)
    sig2 = sig * sig
    z = complex(z)
    return g * g + sig2 * (2.0 * g * g - 2.0 * g * g * w * z
                           + g * g * sig2 - 2.0 * w * z + w * w * z * z)


def _chain_split(sig, g: float, w: float):
    """(background, coupling) of the w-state resolvent for any detuning.

    Dyson algebra on the bare-chain edge Green function (G0_11 = sigma_1,
    G0_12 = -sigma_1^2, G0_22 = sigma_1 + sigma_1^3) gives

        <psi_w| G |psi_w> / N_w^2 = C0 + Q G_dd,
        C0 = sigma_1 (1 - w sigma_1)^2 + w^2 sigma_1,
        Q  = g^2 (1 + sigma_1^2)^2 (1 - w sigma_1)^2,

    with every eps_d dependence confined to G_dd.
    """
    one = 1.0 - w * sig
    background = sig * one * one + w * w * sig
    coupling = g * g * (1.0 + sig * sig) ** 2 * one * one
    return background, coupling


def w_norm_sq(g: float, w: float) -> float:
    """Normalization N_w^2 = 1/(1 + g^2 + w^2) of the generalized state."""
    return 1.0 / (1.0 + g * g + w * w)


def a_w_resolvent(z: complex, params: ModelParams, w: float,
                  sheet: SheetTag = SheetTag.First) -> complex:
    """Diagonal resolvent element of the generalized BIC-orthogonal state.

    Evaluates N_w^2 (C0(z) + Q(z) G_dd(z)) from the chain Dyson algebra,
    exact for any detuning; at eps_d = 0 this equals the compact form
    N_w^2 (sigma_1 + q_of_z G_dd) identically.  Tends to 1/z at large |z|
    by normalization.
    """
    sig = sigma1(z, sheet)
    background, coupling = _chain_split(sig, params.g, w)
    return w_norm_sq(params.g, w) * (
        background + coupling * resolvent_dd(z, params, sheet))


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


def a_w_cut(t: float, params: ModelParams, w: float, abs_tol: float = 1e-9) -> complex:
    """Survival amplitude of the w-state from the branch-cut contour.

    Reduces the counter-clockwise contour around the band to the jump of
    N_w^2 (sigma_1 + Q G_dd) across the cut and integrates over k in
    [0, pi].  Valid for any detuning; bound-state poles (g > 1) are not
    included and must be added by the caller when present.
    """
    _check_times(t)
    g, eps_d = params.g, params.eps_d
    nw2 = w_norm_sq(g, w)

    def h(k: np.ndarray) -> np.ndarray:
        return (nw2 / (2j * math.pi)) * 2.0 * np.sin(k) * _disc_on_cut(k, g, eps_d, w)

    return _cut_integral(h, float(t), abs_tol)


_GL_RAY = roots_legendre(320)

#: upper end of the ray variable v = sqrt(u t), where e^{-v^2} < 1e-43
RAY_V_MAX = 10.0


def a_w_rays(t, params: ModelParams, w: float):
    """Survival amplitude (eps_d = 0) from band-edge ray deformation.

    The cut integral is deformed onto the two rays descending from z = -/+2
    into the lower half-plane, where the integrand decays like e^{-ut}; the
    substitution u = v^2/t absorbs the edge square-root.  Exact (no poles
    are crossed at eps_d = 0); accurate to ~1e-10 for t >= 1 at O(1) cost
    per time, which makes it the far-zone route of choice.  Accepts an
    array of times.
    """
    if params.eps_d != 0.0:
        raise InvalidParameterError(
            "ray deformation crosses the detuned resonance pole; "
            "it is restricted to eps_d = 0 (use a_w_cut for eps_d != 0)")
    g = params.g
    nw2 = w_norm_sq(g, w)
    x, wts = _GL_RAY
    v = 0.5 * RAY_V_MAX * (x + 1.0)
    weights = 0.5 * RAY_V_MAX * wts * 2.0 * v * np.exp(-v * v)

    def disc_lower(z: np.ndarray) -> np.ndarray:
        sig_below = sigma1(z)
        # 1/sig_below continues the from-above value
        return _jump(z, sig_below, 1.0 / sig_below, g, 0.0, w)

    ts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(ts)
    if np.any(ts < 0.5):
        raise DomainError("ray deformation is intended for t >= ~1; got t < 0.5")
    out = np.empty(ts.shape, dtype=complex)
    step = max(BLOCK_NODES // len(v), 1)
    for lo in range(0, len(ts), step):
        tb = ts[lo:lo + step]
        u = v * v / tb[:, None]
        lower = disc_lower(-2.0 - 1j * u) @ weights
        upper = disc_lower(2.0 - 1j * u) @ weights
        out[lo:lo + step] = (nw2 / (2j * math.pi)) * (
            -1j * np.exp(2j * tb) * lower / tb
            + 1j * np.exp(-2j * tb) * upper / tb)
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
