"""Analytic structure of the chain-impurity resolvent.

The impurity self-energy on the first Riemann sheet is

    Sigma(z) = (z g^2 / 2) [z^2 - 2 - z sqrt(z^2 - 4)],

with sqrt(z^2 - 4) = sqrt(z - 2) sqrt(z + 2) built from principal square
roots.  That choice puts the branch cut exactly on the band [-2, 2] and
gives the physical decay Sigma -> g^2/z at large |z|.  It is written once,
in :func:`sqrt_band`; :func:`sigma1` and :func:`self_energy` build on it, all
three take arrays, and every other module goes through them.  The second
sheet flips the sign of the square-root term; it continues the first sheet
through the cut (retarded boundary value from above equals the second-sheet
value from below).

Discrete solutions of z - eps_d - Sigma(z) = 0:

* eps_d = 0: a bound state in continuum (BIC) at z = 0, plus a symmetric
  pair at z = +/- z_g with z_g = g + 1/g -- bound states (first sheet) for
  g > 1, virtual bound states (second sheet) for g < 1, degenerate with the
  band edges exactly at g = 1.
* eps_d != 0: the BIC turns into a resonance / anti-resonance pair on the
  second sheet with z_res ~ eps_d/(1+g^2) - i g^2 eps_d^2/(1+g^2)^3 to
  leading orders, plus the surviving real pair.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .model import InvalidParameterError, ModelParams


class BranchPointError(ValueError):
    """Evaluation exactly at a band edge z = +/-2 without requesting the limit."""


class NearPoleError(ValueError):
    """Resolvent evaluated closer than 1e-13 to one of its poles."""

    def __init__(self, z: complex) -> None:
        super().__init__(f"resolvent evaluated within 1e-13 of a pole at z = {z}")
        self.z = complex(z)


class RootFindError(RuntimeError):
    """Root search failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: complex) -> None:
        super().__init__(f"{message} (last iterate {last_iterate})")
        self.last_iterate = complex(last_iterate)


class SheetTag(enum.Enum):
    First = "First"
    Second = "Second"


class StateKind(enum.Enum):
    BIC = "BIC"
    Bound = "Bound"
    VirtualBound = "VirtualBound"
    Resonance = "Resonance"
    AntiResonance = "AntiResonance"


@dataclass(frozen=True)
class DiscreteState:
    """One solved pole of the resolvent, classified."""

    z: complex
    sheet: SheetTag
    kind: StateKind
    k: complex
    residue_weight: complex
    band_edge: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "re_z": float(self.z.real),
            "im_z": float(self.z.imag),
            "sheet": self.sheet.value,
            "kind": self.kind.value,
            "re_k": float(self.k.real),
            "im_k": float(self.k.imag),
        }
        if self.band_edge:
            out["band_edge"] = True
        return out


@dataclass(frozen=True)
class Timescales:
    """Characteristic times of the decay, units 1/J.

    t_delta, t_vr and t_br only characterize the non-exponential zones of
    the decaying regime g <= 1; for g > 1 they are reported as NaN.  At
    g = 1 the gap closes and t_delta is +inf.
    """

    t_zeno: float
    t_delta: float
    t_vr: float
    t_br: float
    delta_g: float
    zeno_c: float

    def to_json_dict(self) -> dict:
        return {
            "t_zeno": self.t_zeno,
            "t_delta": self.t_delta,
            "t_vr": self.t_vr,
            "t_br": self.t_br,
            "delta_g": self.delta_g,
            "zeno_c": self.zeno_c,
        }


@dataclass(frozen=True)
class ResonancePole:
    """Small-detuning expansion of the resonance: z ~ e_res - i gamma/2."""

    e_res: float
    gamma: float


def _band_input(z, what: str, branch_point_limit: bool):
    """z as a Python complex (scalar) or a complex array, refused at z = +/-2."""
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
    if not branch_point_limit and np.logical_or(z == 2.0, z == -2.0).any():
        edge = 2.0 if np.any(z == 2.0) else -2.0
        raise BranchPointError(
            f"{what} evaluated exactly at the branch point z = {edge:g}; "
            "pass branch_point_limit=True for the limit value")
    return z


def sqrt_band(z):
    """sqrt(z^2 - 4) with the cut on [-2, 2]; behaves like z at large |z|.

    The one definition of the branch; 0 at z = +/-2.  Takes a scalar (and
    returns a Python complex) or an array, as do sigma1 and self_energy.
    """
    z = _band_input(z, "sqrt_band", branch_point_limit=True)
    root = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
    return complex(root) if isinstance(z, complex) else root


def sigma1(z, sheet: SheetTag = SheetTag.First, *, branch_point_limit: bool = False):
    """Chain edge resolvent factor sigma_1(z) = (z - sqrt(z^2-4))/2.

    Satisfies sigma_1 + 1/sigma_1 = z and |sigma_1| <= 1 on the first sheet;
    the second sheet takes the reciprocal root.  Relates to the self-energy
    through Sigma(z) = g^2 z sigma_1(z)^2.  The limit z/2 at z = +/-2 needs
    branch_point_limit, as in :func:`self_energy`.
    """
    z = _band_input(z, "sigma_1", branch_point_limit)
    val = (z - sqrt_band(z)) / 2.0
    if sheet is SheetTag.Second:
        return 1.0 / val
    return val


def _check_g(g: float) -> None:
    if not (g > 0 and np.isfinite(g)):
        raise InvalidParameterError(f"coupling g must be positive and finite, got {g}")


def self_energy(z, g: float, sheet: SheetTag = SheetTag.First,
                *, branch_point_limit: bool = False):
    """Impurity self-energy Sigma(z) on the requested Riemann sheet.

    At the branch points z = +/-2 both sheets share the limit
    z g^2 (z^2 - 2)/2, returned only when branch_point_limit is set;
    otherwise a BranchPointError is raised.
    """
    _check_g(g)
    z = _band_input(z, "Sigma", branch_point_limit)
    root = z * sqrt_band(z)
    if sheet is SheetTag.First:
        return 0.5 * z * g * g * (z * z - 2.0 - root)
    return 0.5 * z * g * g * (z * z - 2.0 + root)


def self_energy_quadrature(z: complex, g: float) -> complex:
    """First-sheet Sigma(z) by direct quadrature of g^2 |V_k|^2 / (z - E_k).

    Independent oracle for the closed form; V_k = -sqrt(2/pi) sin 2k and
    E_k = -2 cos k.  Requires z off the band [-2, 2].
    """
    _check_g(g)
    z = complex(z)

    def integrand(k: float) -> complex:
        return (2.0 / math.pi) * math.sin(2.0 * k) ** 2 / (z + 2.0 * math.cos(k))

    re, _ = quad(lambda k: integrand(k).real, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda k: integrand(k).imag, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    return g * g * (re + 1j * im)


def _self_energy_derivative(z: complex, g: float, sheet: SheetTag) -> complex:
    """d Sigma/dz away from the branch points."""
    z = complex(z)
    s = sqrt_band(z)
    sign = -1.0 if sheet is SheetTag.First else 1.0
    bracket = z * z - 2.0 + sign * z * s
    dbracket = 2.0 * z + sign * (s + z * z / s)
    return 0.5 * g * g * (bracket + z * dbracket)


def resolvent_dd(z: complex, params: ModelParams,
                 sheet: SheetTag = SheetTag.First) -> complex:
    """Impurity diagonal of the resolvent, 1/(z - eps_d - Sigma(z))."""
    denom = complex(z) - params.eps_d - self_energy(z, params.g, sheet)
    if abs(denom) < 1e-13:
        raise NearPoleError(z)
    return 1.0 / denom


def z_gap(g: float) -> tuple[float, float]:
    """(z_g, delta_g): the symmetric pair energy g + 1/g and its band gap."""
    _check_g(g)
    zg = g + 1.0 / g
    return zg, zg - 2.0


def timescales(g: float) -> Timescales:
    """Characteristic timescales of the decay for coupling g."""
    _check_g(g)
    delta_g = (1.0 - g) ** 2 / g
    zeno_c = (g + g * g + g ** 3 - 1.0) / (g * g)
    if g > 1.0:
        t_delta = t_vr = t_br = math.nan
    elif g == 1.0:
        t_delta = t_vr = t_br = math.inf
    else:
        t_delta = 1.0 / delta_g
        t_vr = t_delta / (100.0 * math.pi * g)
        t_br = 0.1 * t_delta
    return Timescales(t_zeno=1.0, t_delta=t_delta, t_vr=t_vr, t_br=t_br,
                      delta_g=delta_g, zeno_c=zeno_c)


def resonance_expansion(params: ModelParams) -> ResonancePole:
    """Leading small-eps_d expansion of the second-sheet resonance pole."""
    g = params.g
    denom = 1.0 + g * g
    e_res = params.eps_d / denom
    gamma = 2.0 * g * g * params.eps_d ** 2 / denom ** 3
    return ResonancePole(e_res=e_res, gamma=gamma)


def wavevector(z: complex, g: float, kind: StateKind) -> complex:
    """Complex wavevector with -2 cos k = z for a discrete solution.

    The two roots w = e^{ik} of w^2 + z w + 1 = 0 are reciprocal.  Bound
    states take the localized branch (|w| < 1, Im k > 0); virtual bound
    states, resonances and anti-resonances the anti-localized one.  Re k is
    normalized into [0, 2 pi).
    """
    _check_g(g)
    z = complex(z)
    if kind is StateKind.BIC:
        return complex(math.pi / 2.0)
    s = sqrt_band(z)
    w1, w2 = (-z + s) / 2.0, (-z - s) / 2.0
    w_loc, w_anti = (w1, w2) if abs(w1) <= abs(w2) else (w2, w1)
    w_sel = w_loc if kind is StateKind.Bound else w_anti
    k = -1j * cmath.log(w_sel)
    if k.real < -1e-15:
        k += 2.0 * math.pi
    return k


def _perp_residue(z: complex, g: float, sheet: SheetTag) -> complex:
    """Residue of <psi_perp |(z-H)^-1| psi_perp> at a simple pole z.

    Uses the chain algebra value Q_0 = g^2 (1 + sigma1^2)^2 for the w = 0
    state, with sigma1 on the matching sheet, and Res[G_dd] = 1/(1 - Sigma').
    """
    sig = sigma1(z, sheet)
    q0 = g * g * (1.0 + sig * sig) ** 2
    dsig = _self_energy_derivative(z, g, sheet)
    return q0 / ((1.0 + g * g) * (1.0 - dsig))


def _band_edge_state(z_sign: float, g: float) -> DiscreteState:
    # degenerate g = 1 solutions at the band edges; k = pi (upper), 0 (lower)
    z = complex(2.0 * z_sign)
    return DiscreteState(z=z, sheet=SheetTag.Second,
                         kind=StateKind.VirtualBound,
                         k=wavevector(z, g, StateKind.VirtualBound),
                         residue_weight=0j, band_edge=True)


def _polish_real_root(z0: float, params: ModelParams, sheet: SheetTag) -> float:
    z = z0
    for _ in range(60):
        f = z - params.eps_d - self_energy(z, params.g, sheet).real
        df = 1.0 - _self_energy_derivative(z, params.g, sheet).real
        step = f / df
        z -= step
        if abs(step) < 1e-14 * max(abs(z), 1.0):
            break
    if abs(z - params.eps_d - self_energy(z, params.g, sheet)) > 1e-10:
        raise RootFindError("real-axis Newton polish did not reach residual 1e-10", z)
    return z


def _scan_real_roots(params: ModelParams, sheet: SheetTag) -> list[float]:
    """Bracketed sign-change scan on both real segments |z| > 2."""
    roots: list[float] = []
    z_max = abs(params.eps_d) + params.g + 1.0 / params.g + 6.0

    def f(z):
        return z - params.eps_d - self_energy(z, params.g, sheet).real

    for lo, hi in ((2.0 + 1e-9, z_max), (-z_max, -2.0 - 1e-9)):
        grid = np.linspace(lo, hi, 2001)
        vals = f(grid)
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in sign_change:
            z_b = brentq(f, grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16)
            roots.append(_polish_real_root(z_b, params, sheet))
    return roots


def _newton_complex(z0: complex, params: ModelParams,
                    sheet: SheetTag = SheetTag.Second) -> complex:
    """Damped Newton iteration for a complex root of z - eps_d - Sigma."""
    z = complex(z0)
    f = z - params.eps_d - self_energy(z, params.g, sheet)
    for _ in range(200):
        df = 1.0 - _self_energy_derivative(z, params.g, sheet)
        step = f / df
        lam = 1.0
        for _ in range(30):
            z_new = z - lam * step
            f_new = z_new - params.eps_d - self_energy(z_new, params.g, sheet)
            if abs(f_new) < abs(f):
                z, f = z_new, f_new
                break
            lam *= 0.5
        else:
            raise RootFindError("damped Newton stalled", z)
        if abs(f) < 1e-13:
            return z
    raise RootFindError("complex Newton did not converge", z)


def discrete_spectrum(params: ModelParams) -> list[DiscreteState]:
    """All solutions of z - eps_d - Sigma(z) = 0 on both sheets, classified.

    Returned sorted by real part (BIC/resonance between the symmetric pair).
    Every state satisfies |z - eps_d - Sigma(z)| < 1e-10 on its sheet and
    -2 cos k = z to 1e-12.
    """
    g = params.g
    states: list[DiscreteState] = []

    if params.eps_d == 0.0:
        states.append(DiscreteState(z=0j, sheet=SheetTag.First, kind=StateKind.BIC,
                                    k=complex(math.pi / 2.0), residue_weight=0j))
        if g == 1.0:
            states.append(_band_edge_state(+1.0, g))
            states.append(_band_edge_state(-1.0, g))
        else:
            zg = g + 1.0 / g
            sheet = SheetTag.First if g > 1.0 else SheetTag.Second
            kind = StateKind.Bound if g > 1.0 else StateKind.VirtualBound
            for z_val, k_val in ((zg, math.pi + 1j * math.log(g)),
                                 (-zg, 1j * math.log(g))):
                z_pol = _polish_real_root(z_val, params, sheet)
                states.append(DiscreteState(
                    z=complex(z_pol), sheet=sheet, kind=kind, k=complex(k_val),
                    residue_weight=_perp_residue(complex(z_pol), g, sheet)))
    else:
        for sheet in (SheetTag.First, SheetTag.Second):
            for z_r in _scan_real_roots(params, sheet):
                loc = sheet is SheetTag.First
                kind = StateKind.Bound if loc else StateKind.VirtualBound
                states.append(DiscreteState(
                    z=complex(z_r), sheet=sheet, kind=kind,
                    k=wavevector(z_r, g, kind),
                    residue_weight=_perp_residue(complex(z_r), g, sheet)))
        exp = resonance_expansion(params)
        seed = exp.e_res - 0.5j * exp.gamma
        z_res = _newton_complex(seed, params, SheetTag.Second)
        if z_res.imag < 0:
            res, antires = z_res, z_res.conjugate()
        else:
            res, antires = z_res.conjugate(), z_res
        for z_c, kind in ((res, StateKind.Resonance), (antires, StateKind.AntiResonance)):
            states.append(DiscreteState(
                z=z_c, sheet=SheetTag.Second, kind=kind, k=wavevector(z_c, g, kind),
                residue_weight=_perp_residue(z_c, g, SheetTag.Second)))

    for st in states:
        if abs(-2.0 * cmath.cos(st.k) - st.z) > 1e-12:
            raise RootFindError("dispersion consistency -2 cos k = z violated", st.z)
    return sorted(states, key=lambda s: (round(s.z.real, 12), round(s.z.imag, 12)))


def spectrum_report(params: ModelParams) -> dict:
    """JSON-ready spectrum document: params, classified states, timescales."""
    return {
        "params": params.to_dict(),
        "states": [s.to_json_dict() for s in discrete_spectrum(params)],
        "timescales": timescales(params.g).to_json_dict(),
    }
