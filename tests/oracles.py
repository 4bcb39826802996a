"""Test oracles: independent or compact forms that only the tests evaluate.

The self-energy quadrature is independent of the package.  The other
oracles are built on its run-path pieces (``sigma1``, ``_chain_split``,
``resolvent_dd``, ``w_norm_sq`` and ``bessel_exact_grid``), so a test that
checks them against the CSR solve, the large-z limit or an identity checks
those pieces too.  The ray oracles take sigma_1 from principal square roots
instead of ``sigma1`` and integrate on a rule of their own.  The GL30 Bessel
tail takes J_1 from ``bessel_j01`` at every node of the package's panel grid.
"""

import math

import numpy as np
from scipy.integrate import quad

from bicchain.closedform import _GL15, _GL30, _panel_width, bessel_exact_grid
from bicchain.evolve import bessel_j01
from bicchain.model import ModelParams, check_coupling
from bicchain.spectrum import _chain_split, resolvent_dd, sigma1, w_norm_sq


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
