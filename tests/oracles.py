"""Test oracles: independent or compact forms that only the tests evaluate.

The self-energy quadrature is independent of the package.  The other
oracles are built on its run-path pieces (``self_energy``, ``sigma1``,
``_chain_split``, ``w_norm_sq`` and ``bessel_exact_grid``), so a test that
checks them against the CSR solve, the large-z limit or an identity checks
those pieces too; the impurity resolvent ``resolvent_dd`` and its
``NearPoleError`` are among them.  ``sheet_of`` is the spectrum's former
rule for the sheet of a real root: the sheet of the smaller residual.
The v-rule ray oracle takes sigma_1 from principal
square roots instead of ``sigma1`` and integrates on a rule of its own; the
plain-exp ray oracle shares the package's rule, takes the same jump as the
v-rule unless asked for the package's, and forms each time's sums by a
plain exp at every node.  The GL30 Bessel tail takes J_1 from
``bessel_j01`` at every node of the package's panel grid.
The sample-major Bessel table and the per-step moment recurrence are the
direct route's former forms, which the current ones must match bit for bit.
"""

import math

import numpy as np
from scipy.integrate import quad

from bicchain.closedform import (_GL15, _GL30, _RAY_W, _RAY_X, _boundary_value, _panel_width,
                                 bessel_exact_grid)
from bicchain.evolve import bessel_j01
from bicchain.model import ModelParams, NumericalError, check_coupling
from bicchain.spectrum import SheetTag, _chain_split, self_energy, sigma1, w_norm_sq


class NearPoleError(NumericalError):
    """Resolvent evaluated closer than 1e-13 to one of its poles."""

    def __init__(self, z: complex) -> None:
        super().__init__(f"resolvent evaluated within 1e-13 of a pole at z = {z}")
        self.z = complex(z)


def resolvent_dd(z: complex, params: ModelParams,
                 sheet: SheetTag = SheetTag.First) -> complex:
    """Impurity diagonal of the resolvent, 1/(z - eps_d - Sigma(z))."""
    denom = complex(z) - params.eps_d - self_energy(z, params.g, sheet)
    if abs(denom) < 1e-13:
        raise NearPoleError(z)
    return 1.0 / denom


def sheet_of(z: complex, params: ModelParams) -> SheetTag:
    """The sheet on which |z - eps_d - Sigma(z)| is smaller.

    For real roots outside the band, where Sigma is real on both sheets and
    a root solves at most one of them; a tie, both residuals rounding to one
    value, goes to the second sheet.
    """
    first, second = (abs(z - params.eps_d - self_energy(z, params.g, sheet))
                     for sheet in (SheetTag.First, SheetTag.Second))
    return SheetTag.First if first < second else SheetTag.Second


def self_energy_quadrature(z: complex, g: float) -> complex:
    """First-sheet Sigma(z) by direct quadrature of g^2 |V_k|^2 / (z - E_k).

    Independent oracle for the closed form; V_k = -sqrt(2/pi) sin 2k and
    E_k = -2 cos k.  Requires z off the band [-2, 2].
    """
    check_coupling(g)
    z = complex(z)

    def integrand(k: float) -> complex:
        return (2.0 / math.pi) * math.sin(2.0 * k) ** 2 / (z + 2.0 * math.cos(k))

    re, _ = quad(lambda k: integrand(k).real, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda k: integrand(k).imag, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    return g * g * (re + 1j * im)


def q_of_z(z: complex, g: float, w: float) -> complex:
    """Compact chain polynomial Q(z) of the w-state resolvent at eps_d = 0,
    on the first sheet.

    Q = g^2 + sigma_1^2 (2g^2 - 2g^2 w z + g^2 sigma_1^2 - 2 w z + w^2 z^2);
    for w = 1 this collapses to (1+g^2) z (z-2) sigma_1^2.  Together with a
    bare sigma_1 chain term it reproduces the resolvent diagonal exactly at
    eps_d = 0 (it absorbs a (z - Sigma) multiple of the chain background);
    the detuning-safe split is :func:`a_w_resolvent`.
    """
    sig = sigma1(z)
    sig2 = sig * sig
    z = complex(z)
    return g * g + sig2 * (2.0 * g * g - 2.0 * g * g * w * z
                           + g * g * sig2 - 2.0 * w * z + w * w * z * z)


def a_w_resolvent(z: complex, params: ModelParams, w: float) -> complex:
    """First-sheet diagonal resolvent element of the generalized
    BIC-orthogonal state.

    Evaluates N_w^2 (C0(z) + Q(z) G_dd(z)) from the chain Dyson algebra,
    exact for any detuning; at eps_d = 0 this equals the compact form
    N_w^2 (sigma_1 + q_of_z G_dd) identically.  Tends to 1/z at large |z|
    by normalization.
    """
    background, coupling = _chain_split(sigma1(z), params.g, w)
    return w_norm_sq(params.g, w) * (background + coupling * resolvent_dd(z, params))


def bessel_exact(t: float, g: float) -> complex:
    """Exact Bessel-representation A_br at a single time (0 < g <= 1)."""
    return complex(bessel_exact_grid(np.array([float(t)]), g)[0])


def ray_jump(z: np.ndarray, g: float, w: float) -> np.ndarray:
    """Below-minus-above jump of C0 + Q G_dd at eps_d = 0 on the rays below
    the band edges, with the first-sheet sigma_1 below the cut written as
    (z - sqrt(z - 2) sqrt(z + 2))/2 and its reciprocal above."""
    s = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
    sig_below = (z - s) / 2.0
    out = 0j * z
    for sig, sign in ((sig_below, -1.0), (1.0 / sig_below, +1.0)):
        background, coupling = _chain_split(sig, g, w)
        g_dd = 1.0 / (z - g * g * z * sig * sig)
        out -= sign * (background + coupling * g_dd)
    return out


#: Panel edges of the v-rule: 0, each decade from 1e-11 to 0.1, 0.3, 1 and
#: 6.5 (where e^{-v^2} < 5e-19); GL15 up to 1e-6 and GL30 above.
_V_EDGES = [0.0] + [10.0 ** k for k in range(-11, 0)] + [0.3, 1.0, 6.5]
_V_PANELS = [(a, b, _GL15 if b <= 1e-6 else _GL30) for a, b in zip(_V_EDGES, _V_EDGES[1:])]
_V = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b, (x, _) in _V_PANELS])
_V_W = np.concatenate([0.5 * (b - a) * w for a, b, (_, w) in _V_PANELS])


def a_w_rays_v_rule(t: float, g: float, w: float) -> complex:
    """Ray-deformation amplitude (eps_d = 0) at one time, on a 330-node
    composite rule in v = sqrt(u t).

    Independent oracle for ``a_w_rays``: its nodes move with t (u = v^2/t),
    where the package's rule in x = sqrt(u) is fixed, and each ray integral
    is INT_0^6.5 D(-/+2 - i v^2/t) 2 v e^{-v^2} dv / t.
    """
    weights = _V_W * 2.0 * _V * np.exp(-_V * _V)
    u = _V * _V / t
    lower = np.dot(weights, ray_jump(-2.0 - 1j * u, g, w))
    upper = np.dot(weights, ray_jump(2.0 - 1j * u, g, w))
    return complex((w_norm_sq(g, w) / (2j * math.pi)) * (
        -1j * np.exp(2j * t) * lower / t + 1j * np.exp(-2j * t) * upper / t))


def a_w_rays_plain_exp(ts, g: float, w: float,
                       package_jump: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Ray-deformation amplitude (eps_d = 0) on the package's rule in x, one
    time at a time: e^{-x^2 t} from ``np.exp`` at every node and each ray sum
    correctly rounded (``math.fsum``), with no exp window, prefix moments or
    blocking.

    The jump is ``ray_jump`` (sigma_1 from principal square roots), or with
    ``package_jump`` the package's own (``sigma1`` on the second sheet and
    the difference of ``closedform._boundary_value`` on either side), which
    leaves only the package's way of forming each time's sums to differ.
    Also returns each time's scale N_w^2/(2 pi) SUM e^{-x^2 t} (|D_-| +
    |D_+|), the size of the terms that the ray sums add up: a double
    evaluation of the sums can miss them by a few ulp of it.
    """
    x2 = _RAY_X * _RAY_X
    weights = _RAY_W * 2.0 * _RAY_X

    def weighted_jump(z: np.ndarray) -> np.ndarray:
        if not package_jump:
            return weights * ray_jump(z, g, w)
        sig_above = sigma1(z, SheetTag.Second)
        return weights * (_boundary_value(z, 1.0 / sig_above, g, 0.0, w)
                          - _boundary_value(z, sig_above, g, 0.0, w))

    lower, upper = weighted_jump(-2.0 - 1j * x2), weighted_jump(2.0 - 1j * x2)
    c = w_norm_sq(g, w) / (2.0 * math.pi)
    amps, scales = [], []
    for t in ts:
        kernel = np.exp(-t * x2)
        lo, lo_im, up, up_im = (math.fsum(kernel * part)
                                for part in (lower.real, lower.imag, upper.real, upper.imag))
        amps.append(c * (-np.exp(2j * t) * (lo + 1j * lo_im) + np.exp(-2j * t) * (up + 1j * up_im)))
        scales.append(c * (np.dot(kernel, np.abs(lower)) + np.dot(kernel, np.abs(upper))))
    return np.array(amps), np.array(scales)


def bessel_tail_gl30(ts: np.ndarray, zg: float) -> np.ndarray:
    """INT_0^t e^{i z_g tau} J_1(2 tau)/tau d tau at each time of an ascending
    grid, by the tail's former route: GL30 sums over the panels of width
    ``_panel_width(zg)``, accumulated, plus one GL30 panel per time from its
    panel edge to the time itself, with J_1 from ``bessel_j01`` at every
    node.  No interpolation, Hankel phase factoring or blocking."""
    x, w = _GL30
    width = _panel_width(zg)
    j = np.floor(ts / width)
    j -= j * width > ts

    def gl30(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        half = 0.5 * (b - a)
        tau = half[:, None] * x + 0.5 * (a + b)[:, None]
        _, j1 = bessel_j01(2.0 * tau)
        f = np.where(tau > 1e-12, j1 / np.maximum(tau, 1e-12), 1.0)  # J_1(2 tau)/tau -> 1
        return half * ((f * np.exp(1j * zg * tau)) @ w)

    edges = np.arange(int(j[-1]) + 1) * width
    cum = np.concatenate(([0j], np.cumsum(gl30(edges[:-1], edges[1:]))))
    return cum[j.astype(int)] + gl30(j * width, ts)


def bessel_table_sample_major(x: np.ndarray, seeds: np.ndarray, k_max: int) -> np.ndarray:
    """J_k(x) for k = 0..k_max at each x >= 0, shape (len(x), k_max + 1): the
    former ``evolve.bessel_table``, which ran the same Miller recurrence and
    normalised it into a second, transposed array."""
    x = np.asarray(x, dtype=float)
    rows = int(seeds.max()) + 1
    two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=seeds > 0)
    sol = np.zeros((rows + 2, len(x)))
    sol[seeds, np.arange(len(x))] = 1.0
    row = list(sol)
    for k in range(rows - 1, -1, -1):
        row[k] += (k + 1) * two_over_x * row[k + 1]
        row[k] -= row[k + 2]
    scale = sol[0] + 2.0 * sol[2:rows:2].sum(axis=0)
    table = np.zeros((len(x), k_max + 1))
    kept = min(rows, k_max + 1)
    np.divide(sol[:kept].T, scale[:, None], out=table[:, :kept])
    return table


def moments_per_step(params: ModelParams, center: float, half_width: float, n_rows: int,
                     psi0: np.ndarray, order: int):
    """<psi0|v_k>, (v_k[0], v_k[1]) and <v_k|v_k> for k <= order by the
    former recurrence step: the stencil picks its kernel by dtype at every
    step and writes the |d>, |1> and |2> rows from numpy scalars, and each
    step stores (v_k[0], v_k[1]) on its own."""
    c = 2.0 / half_width
    kernel = np.array([-c, -c * center, -c])
    kernels = {np.dtype(float): kernel, np.dtype(complex): np.insert(kernel, [1, 2], 0.0)}
    d_diag, d_bond = c * (params.eps_d - center), c * params.g

    def h2(v: np.ndarray) -> np.ndarray:
        full = np.convolve(v.view(float), kernels[v.dtype]).view(v.dtype)
        out = full[1:min(len(v), n_rows) + 2]
        out[0] = d_diag * v[0] - d_bond * v[2]
        out[1] = kernel[1] * v[1] + kernel[2] * v[2]
        out[2] = -d_bond * v[0] + kernel[0] * v[1] + kernel[1] * v[2] + kernel[2] * v[3]
        out[-1] = 0.0
        return out

    overlaps = np.empty(order + 1, dtype=psi0.dtype)
    sites = np.empty((order + 1, 2), dtype=psi0.dtype)
    norms_sq = np.empty(order + 1)
    support = max(3, int(np.flatnonzero(psi0)[-1]) + 1)
    psi0 = np.append(psi0[:support], 0.0)
    v_prev, v = psi0, psi0
    for k in range(order + 1):
        overlaps[k] = np.vdot(psi0, v[:support + 1])
        sites[k] = v[:2]
        norms_sq[k] = np.vdot(v, v).real
        if k == 0:
            v = 0.5 * h2(v)
        elif k < order:
            v_next = h2(v)
            v_next[:len(v_prev)] -= v_prev
            v_prev, v = v, v_next
    return overlaps, sites, norms_sq
