"""Test oracles: independent or compact forms that only the tests evaluate.

The self-energy quadrature is independent of the package.  The other
oracles are built on its run-path pieces (``sigma1``, ``_chain_split``,
``resolvent_dd``, ``w_norm_sq`` and ``bessel_exact_grid``), so a test that
checks them against the CSR solve, the large-z limit or an identity checks
those pieces too.
"""

import math

import numpy as np
from scipy.integrate import quad

from bicchain.closedform import bessel_exact_grid
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
