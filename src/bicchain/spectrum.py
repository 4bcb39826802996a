"""Analytic structure of the chain-impurity resolvent.

Everything here derives from one band root, sigma_1, the root of
sigma_1 + 1/sigma_1 = z (:func:`sigma1`).  With s = sqrt(z^2 - 4) =
sqrt(z - 2) sqrt(z + 2) from principal square roots (:func:`sqrt_band`),
which puts the cut exactly on the band [-2, 2] and behaves like z at large
|z|, sigma_1 is 2/(z + s) on the first sheet (|sigma_1| <= 1) and the
reciprocal (z + s)/2 on the second; neither form cancels, as |z + s| >= 2.
From it come the self-energy Sigma = g^2 z sigma_1^2 (-> g^2/z on the first
sheet), the wavevector e^{ik} = -sigma_1 of a discrete state
and, through :func:`_chain_split`, the residues.  sqrt_band, sigma1 and
self_energy take a scalar (returned as a Python complex) or an array, on the
same numpy square roots.  At the band edges z = +/-2 the root is exactly 0,
so the formulas themselves give the limits sigma_1 = z/2 and
Sigma = z g^2 (z^2 - 2)/2 on both sheets.  The second sheet
continues the first through the cut (retarded boundary value from above
equals the second-sheet value from below).

Discrete solutions of z - eps_d - Sigma(z) = 0:

* eps_d = 0: a bound state in continuum (BIC) at z = 0, plus a symmetric
  pair at z = +/- z_g with z_g = g + 1/g -- bound states (first sheet) for
  g > 1, virtual bound states (second sheet) for g < 1, degenerate with the
  band edges exactly at g = 1.
* eps_d != 0: the BIC turns into a resonance / anti-resonance pair on the
  second sheet with z_res ~ eps_d/(1+g^2) - i g^2 eps_d^2/(1+g^2)^3 to
  leading orders, plus the surviving real pair.  There is one bound state
  above (below) the band iff 2 g^2 > 2 - eps_d (2 + eps_d); the other real
  roots are virtual bound states.

Method: with z = sigma + 1/sigma, sigma being sigma_1 on the state's sheet,
z - eps_d - Sigma(z) = -P(sigma)/sigma exactly on both sheets, with
P(sigma) = g^2 sigma^4 + (g^2 - 1) sigma^2 + eps_d sigma - 1.  Nothing is
squared, so P's four roots are exactly the solutions, and |sigma| < 1 is the
first sheet; P's constant term is -1, so no root sits at 0.  They are the
eigenvalues of P's companion matrix, each polished by at most 6 Newton steps
on P (:func:`_band_roots`, the one root stage, which :func:`partial_fractions`
shares).  A real root is a bound state iff |sigma| < 1, else a virtual bound
state; on a threshold 2 g^2 = 2 -/+ eps_d (|P(+/-1)| < 1e-10) the real root
nearest +/-1 is the band-edge state.  The complex pair is the resonance pair
on the second sheet, since the first-sheet resolvent is analytic off the real
axis; it stays a pair when Im z_res is below rounding.  At eps_d = 0,
P = (g^2 sigma^2 - 1)(sigma^2 + 1): +/- i is the BIC and +/- 1/g the pair at
+/- z_g.  Each state takes k = -i log(-sigma) and the perp residue
N_0^2 Q_0(sigma) Res[G_dd] with Res[G_dd] = -(sigma^2 - 1)/(sigma P'(sigma)),
with no square root.  Every state meets the residual bound 1e-10 at its
reported z (where sigma + 1/sigma misses it, after one Newton step in z) and
the dispersion check -2 cos k = z to 1e-12.  A root closer to a band edge
than the residual bound can resolve in double precision raises
:class:`RootFindError`; on the threshold itself the state is the band-edge
state.  That happens within about 1e-5 max(1, g)^4 of a threshold in eps_d
(1e-5 at g <= 1, 2e-4 at g = 2, 0.04 at g = 7).  Couplings outside
``SPECTRUM_G_RANGE`` and detunings beyond ``SPECTRUM_EPS_MAX`` are refused.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (InvalidParameterError, ModelParams, NumericalError, check_coupling,
                    inverse_w_norm_sq)


class RootFindError(NumericalError):
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
        out = {"re_z": float(self.z.real), "im_z": float(self.z.imag), "sheet": self.sheet.value,
               "kind": self.kind.value, "re_k": float(self.k.real), "im_k": float(self.k.imag)}
        return {**out, "band_edge": True} if self.band_edge else out


@dataclass(frozen=True)
class Timescales:
    """Characteristic times of the decay, units 1/J.

    t_delta, t_vr and t_br only characterize the non-exponential zones of
    the decaying regime g <= 1; for g > 1 they are reported as NaN.  At
    g = 1 the gap closes and t_delta is +inf.  JSON has neither NaN nor
    inf, so :meth:`to_json_dict` writes such an undefined timescale as null.
    """

    t_zeno: float
    t_delta: float
    t_vr: float
    t_br: float
    delta_g: float
    zeno_c: float

    def to_json_dict(self) -> dict:
        # the fields, in order; floats need no deep copy
        return {key: value if math.isfinite(value) else None for key, value in vars(self).items()}


@dataclass(frozen=True)
class ResonancePole:
    """Small-detuning expansion of the resonance: z ~ e_res - i gamma/2."""

    e_res: float
    gamma: float


def _band_input(z):
    """z as a Python complex (a number or 0-d input) or else a complex array."""
    if isinstance(z, (complex, float, int)):  # Python numbers skip numpy's scalar calls
        return complex(z)
    return complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)


def sqrt_band(z):
    """sqrt(z^2 - 4) = sqrt(z - 2) sqrt(z + 2) from numpy's principal roots.

    The one definition of the branch: the cut lies on [-2, 2], the root is 0
    at z = +/-2 and behaves like z at large |z|.  Takes a scalar (and returns
    a Python complex) or an array, as do sigma1 and self_energy.
    """
    z = _band_input(z)
    root = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
    return complex(root) if isinstance(z, complex) else root


def sigma1(z, sheet: SheetTag = SheetTag.First):
    """Chain edge resolvent factor: the root of sigma_1 + 1/sigma_1 = z.

    2/(z + sqrt(z^2-4)) on the first sheet, where |sigma_1| <= 1, and the
    reciprocal (z + sqrt(z^2-4))/2 on the second; neither form cancels.
    At z = +/-2 both give the limit z/2.
    """
    z = _band_input(z)
    wide = z + sqrt_band(z)
    return wide / 2.0 if sheet is SheetTag.Second else 2.0 / wide


def self_energy(z, g: float, sheet: SheetTag = SheetTag.First):
    """Impurity self-energy Sigma(z) = g^2 z sigma_1(z)^2 on the requested sheet.

    At the branch points z = +/-2 both sheets give the limit z g^2 (z^2 - 2)/2.
    """
    check_coupling(g)
    z = _band_input(z)
    sig = sigma1(z, sheet)
    return g * g * z * sig * sig


def z_gap(g: float) -> tuple[float, float]:
    """(z_g, delta_g): the symmetric pair energy g + 1/g and its band gap
    z_g - 2, formed as (1 - g) ((1 - g)/g), which does not cancel near g = 1
    and overflows only where g + 1/g does."""
    check_coupling(g)
    return g + 1.0 / g, (1.0 - g) * ((1.0 - g) / g)


def timescales(g: float) -> Timescales:
    """Characteristic timescales of the decay for coupling g.

    A g for which g^3 overflows (from about 5.6e102) or g^2 underflows to 0
    (below about 1.5e-162) is refused with :class:`InvalidParameterError`.
    """
    _, delta_g = z_gap(g)
    try:
        zeno_c = (g + g * g + g ** 3 - 1.0) / (g * g)
    except ArithmeticError as exc:
        raise InvalidParameterError(
            f"coupling g = {g:g} has no representable timescales: g^3 overflows or "
            "g^2 underflows to 0") from exc
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


def _wavenumber(sig: complex) -> complex:
    """k = -i log(-sigma_1), with Re k normalized into [0, 2 pi)."""
    k = -1j * cmath.log(-sig)
    if k.real < -1e-15:
        k += 2.0 * math.pi
    return k


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
    """Normalization N_w^2 = 1/(1 + g^2 + w^2) of the generalized state.

    Every w-state route goes through here or through ``model.w_state``, so
    a w that is not finite, or whose square overflows, is refused
    (``InvalidParameterError``) by both, before any quadrature.
    """
    return 1.0 / inverse_w_norm_sq(g, w)


def _band_edge_state(z_sign: float) -> DiscreteState:
    # a solution on a band edge (g = 1 at eps_d = 0, or a threshold), where
    # sigma_1 = z/2 = z_sign; k = pi (upper), 0 (lower)
    return DiscreteState(z=complex(2.0 * z_sign), sheet=SheetTag.Second,
                         kind=StateKind.VirtualBound, k=_wavenumber(complex(z_sign)),
                         residue_weight=0j, band_edge=True)


def _band_poly(sig, g2: float, eps_d: float):
    """P(sigma) = g^2 sigma^4 + (g^2 - 1) sigma^2 + eps_d sigma - 1 and P'(sigma)."""
    s2 = sig * sig
    return ((g2 * s2 + (g2 - 1.0)) * s2 + eps_d * sig - 1.0,
            (4.0 * g2 * s2 + 2.0 * (g2 - 1.0)) * sig + eps_d)


def _band_root(sig, g2: float, eps_d: float):
    """(sigma, Res[G_dd]) at a root sigma of P, polished by at most 6 Newton steps
    on P, each taken only if it lowers |P| (near a double root a step can throw
    sigma far off).  The residue of G_dd is 1/f'(z) = -(sigma^2 - 1)/(sigma P'(sigma))."""
    p, dp = _band_poly(sig, g2, eps_d)
    for _ in range(6):
        new = sig - p / dp
        p_new, dp_new = _band_poly(new, g2, eps_d)
        if not abs(p_new) < abs(p):
            break
        sig, p, dp = new, p_new, dp_new
    return sig, (1.0 - sig * sig) / (sig * dp)


def _band_roots(g: float, eps_d: float) -> tuple[list[tuple[float, float]],
                                                 tuple[complex, complex] | None]:
    """The roots of P as (sigma, Res[G_dd]) from :func:`_band_root`: the real ones,
    nearest |sigma| = 1 first, and the complex pair's root with Im sigma < 0, or None.
    At eps_d = 0 the pair is the BIC pair +/- i, which no caller takes further:
    its root comes as the eigenvalue, unpolished, with the residue None."""
    g2 = g * g
    # the eigenvalues of P's companion matrix, as numpy.roots takes them
    roots = np.linalg.eigvals(np.array([[0.0, (1.0 - g2) / g2, -eps_d / g2, 1.0 / g2],
                                        [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                        [0.0, 0.0, 1.0, 0.0]])).tolist()
    real = sorted((r.real for r in roots if r.imag == 0.0), key=lambda r: abs(abs(r) - 1.0))
    pair = next((r for r in roots if r.imag < 0.0), None)
    if pair is not None:
        pair = _band_root(pair, g2, eps_d) if eps_d != 0.0 else (pair, None)
    return [_band_root(x, g2, eps_d) for x in real], pair


def partial_fractions(params: ModelParams,
                      w: float) -> tuple[tuple[float, float], list[tuple[complex, complex]]]:
    """F(sigma) = C0(sigma) - sigma Q_w(sigma)/P(sigma), the w-state resolvent over
    N_w^2 in sigma, as a0 + a1 sigma + SUM_j c_j/(sigma - sigma_j): ((a0, a1),
    [(sigma_j, c_j)]).

    The cubic and quadratic terms of C0 cancel against those of sigma Q_w/P, so
    the polynomial part poly_3 is linear: a1 = -w^2/g^2 and
    a0 = (w^2 eps_d + 2 w (1 + g^2))/g^2.  The sigma_j are the roots of P from
    :func:`_band_roots` and c_j = -sigma_j Q_w(sigma_j)/P'(sigma_j) with P'(sigma_j)
    taken as g^2 PROD_{l != j} (sigma_j - sigma_l), so c_j (sigma_j - sigma_k)
    stays accurate where two roots nearly meet.  At eps_d = 0, P = (g^2 sigma^2 - 1)
    (sigma^2 + 1): the roots +/- 1/g are exact, with c = -(1 + sigma^2)
    (1 - w sigma)^2/2, and the BIC pair +/- i, whose c vanishes with Q_w's
    double zero, is left out; so small couplings, whose companion matrix
    overflows, still resolve there.  Where the roots or the c_j are out of
    double's reach it raises :class:`RootFindError`.
    """
    g, eps_d = params.g, params.eps_d
    g2 = g * g
    try:
        poly = ((w * w * eps_d + 2.0 * w * (1.0 + g2)) / g2, -w * w / g2)
        if eps_d == 0.0:
            poles = []
            for sig in (1.0 / g, -1.0 / g):
                one = 1.0 - w * sig
                poles.append((complex(sig), complex(-(1.0 + sig * sig) * one * one / 2.0)))
        else:
            real, pair = _band_roots(g, eps_d)
            roots = [complex(sig) for sig, _ in real]
            if pair is not None:
                roots += [pair[0], pair[0].conjugate()]
            poles = []
            for j, sig in enumerate(roots):
                slope = g2
                for other in roots[:j] + roots[j + 1:]:
                    slope *= sig - other
                poles.append((sig, -sig * _chain_split(sig, g, w)[1] / slope))
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # extreme g: overflow, lost roots
        raise RootFindError(f"roots of P not resolvable at g = {g:g}", 0j) from exc
    if not (all(map(math.isfinite, poly))
            and all(cmath.isfinite(sig) and cmath.isfinite(c) for sig, c in poles)):
        raise RootFindError(f"partial fractions of the resolvent not resolvable at g = {g:g}", 0j)
    return poly, poles


def first_sheet_poles(params: ModelParams, w: float) -> list[tuple[float, float]]:
    """(z, residue) at each bound state from :func:`partial_fractions`: z = sigma + 1/sigma
    at a real root |sigma| < 1 of P and N_w^2 Re(c) (1 - 1/sigma^2), which is
    N_w^2 Q_w Res[G_dd] (F is real on the real axis; Im c is rounding).
    Unchecked: the residue carries 1 - sigma^2, so it falls to 0 at a threshold."""
    nw2 = w_norm_sq(params.g, w)
    return [(sig.real + 1.0 / sig.real, nw2 * c.real * (1.0 - 1.0 / (sig.real * sig.real)))
            for sig, c in partial_fractions(params, w)[1] if sig.imag == 0.0 and abs(sig) < 1.0]


def _pole_state(sig, r_dd, params: ModelParams, sheet: SheetTag,
                kind: StateKind) -> DiscreteState:
    """The state at a root sigma of P: z = sigma + 1/sigma, e^{ik} = -sigma, and the
    perp residue N_0^2 Q_0(sigma) Res[G_dd].

    z must meet the residual bound |z - eps_d - Sigma(z)| < 1e-10 on its sheet.
    Where sigma + 1/sigma misses it, z takes one Newton step in z, whose 1/f'(z)
    is Res[G_dd]: z carries a rounding error of about 1e-16 |sigma| that
    f' ~ g^2 amplifies (the resonance pair at large g).  Near a double root,
    where f' ~ 0, the step would amplify the residual's own rounding instead,
    so it is taken only where needed.
    """
    def residual(z: complex) -> tuple[complex, complex]:
        if kind is StateKind.Resonance:  # Im z below rounding may take either sign
            z = complex(z.real, -abs(z.imag))
        return z, z - params.eps_d - self_energy(z, params.g, sheet)

    z, f = residual(complex(sig + 1.0 / sig))
    if abs(f) > 1e-10:
        z, f = residual(z - f * r_dd)
    if abs(f) > 1e-10:
        raise RootFindError("state misses the residual bound 1e-10 on its sheet", z)
    return DiscreteState(z=z, sheet=sheet, kind=kind, k=_wavenumber(sig),
                         residue_weight=complex(w_norm_sq(params.g, 0.0)
                                                * _chain_split(sig, params.g, 0.0)[1] * r_dd))


def _band_root_states(params: ModelParams) -> list[DiscreteState]:
    """Classified states from the roots of :func:`_band_roots` (see the module docstring).

    A real root is a bound state (first sheet) iff |sigma| < 1, else a virtual
    bound state.  Where the detuning sits on a threshold 2 g^2 = 2 -/+ eps_d,
    the real root nearest sigma = +/-1 is the band-edge state.  The complex
    pair is the resonance pair on the second sheet, the root with Im sigma < 0
    the resonance (Im z has the sign of Im sigma where |sigma| > 1), written as
    exact conjugates, so Im z below rounding keeps both kinds; the
    anti-resonance's residual is the conjugate of the resonance's (Schwarz
    reflection).  At eps_d = 0 the pair is +/- i, the BIC.
    """
    g, eps_d = params.g, params.eps_d
    g2 = g * g
    real, pair = _band_roots(g, eps_d)
    # the band edges that solve the equation to 1e-10 (the edge residual is
    # |P(+/-1)|), and at eps_d = 0 both where z_g = g + 1/g rounds to 2 (g within
    # about 1.5e-8 of 1), which the edge residual alone finds only within 2.5e-11
    edges = [e for e in (2.0, -2.0)
             if abs(e - eps_d - e * g2) < 1e-10 or (eps_d == 0.0 and z_gap(g)[0] == 2.0)]
    states = []
    for sig, r_dd in real:
        edge = math.copysign(2.0, sig)
        if edge in edges:
            edges.remove(edge)
            states.append(_band_edge_state(edge / 2.0))
        elif abs(sig) < 1.0:
            states.append(_pole_state(sig, r_dd, params, SheetTag.First, StateKind.Bound))
        else:
            states.append(_pole_state(sig, r_dd, params, SheetTag.Second, StateKind.VirtualBound))
    if pair is not None and eps_d == 0.0:
        states.append(DiscreteState(z=0j, sheet=SheetTag.First, kind=StateKind.BIC,
                                    k=complex(math.pi / 2.0), residue_weight=0j))
    elif pair is not None:
        sig, r_dd = pair
        res = _pole_state(sig, r_dd, params, SheetTag.Second, StateKind.Resonance)
        states += [res, DiscreteState(z=res.z.conjugate(), sheet=SheetTag.Second,
                                      kind=StateKind.AntiResonance, k=_wavenumber(sig.conjugate()),
                                      residue_weight=res.residue_weight.conjugate())]
    return states


#: couplings g that :func:`discrete_spectrum` accepts.  Outside them a state
#: lies near |z| = g + 1/g > 1000, where one ulp of z is above 1.1e-13; at
#: |z| of about 2000 (g >= 1964 or g <= 5e-4) correct states failed the
#: absolute 1e-12 dispersion check.  Every g in the range passed at eps_d = 0
#: and |eps_d| in [0.01, 1.5] (3000 log-spaced g per eps_d).
SPECTRUM_G_RANGE = (1e-3, 1e3)

#: largest |eps_d| that :func:`discrete_spectrum` accepts.  Beyond it the
#: states lie near |z| ~ |eps_d| > 1000, where (as for SPECTRUM_G_RANGE) correct
#: states failed the absolute 1e-12 dispersion check, from |eps_d| of about 2170.
#: Up to 1000 every point outside the documented threshold band passed: 140,000
#: random (g, eps_d) with g log-uniform over SPECTRUM_G_RANGE (20,000 of them at
#: g >= 550) and |eps_d| log-uniform in [100, 1000], 802 log-spaced g at each of
#: 22 eps_d with |eps_d| in [100, 1000], and 58,072 points within 1e-14..0.1
#: (relative, in g) of the curve where the far-detuned pair meets the real axis
#: (a double root), at |eps_d| in [2.5, 1000].
SPECTRUM_EPS_MAX = 1000.0


def discrete_spectrum(params: ModelParams) -> list[DiscreteState]:
    """All solutions of z - eps_d - Sigma(z) = 0 on both sheets, classified.

    Returned sorted by real part (BIC/resonance between the symmetric pair).
    Every state satisfies |z - eps_d - Sigma(z)| < 1e-10 on its sheet and
    -2 cos k = z to 1e-12.  A coupling outside ``SPECTRUM_G_RANGE`` or a
    detuning beyond ``SPECTRUM_EPS_MAX`` is refused with
    :class:`InvalidParameterError`.
    """
    g = params.g
    lo, hi = SPECTRUM_G_RANGE
    if not lo <= g <= hi:
        raise InvalidParameterError(
            f"the spectrum resolves couplings {lo:g} <= g <= {hi:g}, got g = {g:g}: "
            f"beyond them a state lies near |z| = g + 1/g > {hi:g}, where z itself "
            "rounds by nearly the 1e-12 of the dispersion check -2 cos k = z")
    if not abs(params.eps_d) <= SPECTRUM_EPS_MAX:
        raise InvalidParameterError(
            f"the spectrum resolves detunings |eps_d| <= {SPECTRUM_EPS_MAX:g}, "
            f"got eps_d = {params.eps_d:g}")
    try:
        states = _band_root_states(params)
    except ArithmeticError as exc:  # P'(sigma) = 0: an exact double root
        raise RootFindError(f"spectrum polynomial root not resolvable ({exc})", 0j) from exc
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
