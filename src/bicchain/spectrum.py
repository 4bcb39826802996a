"""Analytic structure of the chain-impurity resolvent.

Everything here derives from one band root, sigma_1, the root of
sigma_1 + 1/sigma_1 = z (:func:`sigma1`).  With s = sqrt(z^2 - 4) =
sqrt(z - 2) sqrt(z + 2) from principal square roots (:func:`sqrt_band`),
which puts the cut exactly on the band [-2, 2] and behaves like z at large
|z|, sigma_1 is 2/(z + s) on the first sheet (|sigma_1| <= 1) and the
reciprocal (z + s)/2 on the second; neither form cancels, as |z + s| >= 2.
From it come the self-energy Sigma = g^2 z sigma_1^2 (-> g^2/z on the first
sheet), its derivative, the wavevector e^{ik} = -sigma_1 of a discrete state
and, through :func:`_chain_split`, the residues; sqrt_band, sigma1 and
self_energy take arrays.  The second sheet continues the first through the
cut (retarded boundary value from above equals the second-sheet value from
below).

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

Method at eps_d != 0: squaring the equation gives one quartic whose four
roots hold every solution on both sheets (:func:`_quartic_roots`).  Each
real root is assigned the sheet on which it has the smaller residual and is
polished there by Newton's method.  The resonance pair is the conjugate
pair among the roots, so it stays a pair when Im z_res is below rounding;
it is polished on the second sheet, since the first-sheet resolvent is
analytic off the real axis.  The polished roots keep the residual bound
1e-10 and the dispersion check -2 cos k = z to 1e-12.  A root closer to a
band edge than the residual bound can resolve in double precision (within
about 1e-5 of a threshold in eps_d) raises :class:`RootFindError`; on the
threshold itself the state is the band-edge state.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import (ConfigError, InvalidParameterError, ModelParams, NumericalError,
                    check_coupling, inverse_w_norm_sq)


class BranchPointError(ConfigError):
    """Evaluation exactly at a band edge z = +/-2 without requesting the limit."""


class NearPoleError(NumericalError):
    """Resolvent evaluated closer than 1e-13 to one of its poles."""

    def __init__(self, z: complex) -> None:
        super().__init__(f"resolvent evaluated within 1e-13 of a pole at z = {z}")
        self.z = complex(z)


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
        return asdict(self)


@dataclass(frozen=True)
class ResonancePole:
    """Small-detuning expansion of the resonance: z ~ e_res - i gamma/2."""

    e_res: float
    gamma: float


def _band_input(z, what: str, branch_point_limit: bool):
    """z as a Python complex (scalar) or a complex array, refused at z = +/-2."""
    if type(z) is not complex:  # not yet converted: sigma1 and self_energy pass z on
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
    """Chain edge resolvent factor: the root of sigma_1 + 1/sigma_1 = z.

    2/(z + sqrt(z^2-4)) on the first sheet, where |sigma_1| <= 1, and the
    reciprocal (z + sqrt(z^2-4))/2 on the second; neither form cancels.
    The limit z/2 at z = +/-2 needs branch_point_limit, as in
    :func:`self_energy`.
    """
    z = _band_input(z, "sigma_1", branch_point_limit)
    wide = z + sqrt_band(z)
    return wide / 2.0 if sheet is SheetTag.Second else 2.0 / wide


def self_energy(z, g: float, sheet: SheetTag = SheetTag.First,
                *, branch_point_limit: bool = False):
    """Impurity self-energy Sigma(z) = g^2 z sigma_1(z)^2 on the requested sheet.

    At the branch points z = +/-2 both sheets share the limit
    z g^2 (z^2 - 2)/2, returned only when branch_point_limit is set;
    otherwise a BranchPointError is raised.
    """
    check_coupling(g)
    z = _band_input(z, "Sigma", branch_point_limit)
    sig = sigma1(z, sheet, branch_point_limit=True)
    return g * g * z * sig * sig


def self_energy_quadrature(z: complex, g: float) -> complex:
    """First-sheet Sigma(z) by direct quadrature of g^2 |V_k|^2 / (z - E_k).

    Independent oracle for the closed form; V_k = -sqrt(2/pi) sin 2k and
    E_k = -2 cos k.  Requires z off the band [-2, 2].
    """
    from scipy.integrate import quad  # test oracle only: keeps scipy.integrate off import

    check_coupling(g)
    z = complex(z)

    def integrand(k: float) -> complex:
        return (2.0 / math.pi) * math.sin(2.0 * k) ** 2 / (z + 2.0 * math.cos(k))

    re, _ = quad(lambda k: integrand(k).real, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda k: integrand(k).imag, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    return g * g * (re + 1j * im)


def _self_energy_derivative(z: complex, g: float, sheet: SheetTag) -> complex:
    """d Sigma/dz = g^2 sigma_1^2 (1 - 2z/s) away from the branch points.

    d sigma_1/dz = -sigma_1/s with s = +sqrt(z^2-4) on the first sheet and
    -sqrt(z^2-4) on the second.
    """
    sig = sigma1(z, sheet)
    s = sqrt_band(z) if sheet is SheetTag.First else -sqrt_band(z)
    return g * g * sig * sig * (1.0 - 2.0 * z / s)


def resolvent_dd(z: complex, params: ModelParams,
                 sheet: SheetTag = SheetTag.First) -> complex:
    """Impurity diagonal of the resolvent, 1/(z - eps_d - Sigma(z))."""
    denom = complex(z) - params.eps_d - self_energy(z, params.g, sheet)
    if abs(denom) < 1e-13:
        raise NearPoleError(z)
    return 1.0 / denom


def z_gap(g: float) -> tuple[float, float]:
    """(z_g, delta_g): the symmetric pair energy g + 1/g and its band gap."""
    check_coupling(g)
    zg = g + 1.0 / g
    return zg, zg - 2.0


def timescales(g: float) -> Timescales:
    """Characteristic timescales of the decay for coupling g."""
    check_coupling(g)
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

    e^{ik} = -sigma_1(z): bound states take the first sheet (|e^{ik}| < 1,
    Im k > 0); virtual bound states, resonances and anti-resonances the
    second.  A band-edge state z = +/-2 has k = pi or 0.  Re k is
    normalized into [0, 2 pi).
    """
    check_coupling(g)
    if kind is StateKind.BIC:
        return complex(math.pi / 2.0)
    sheet = SheetTag.First if kind is StateKind.Bound else SheetTag.Second
    k = -1j * cmath.log(-sigma1(z, sheet, branch_point_limit=True))
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


def _perp_residue(z: complex, g: float, sheet: SheetTag) -> complex:
    """Residue of <psi_perp |(z-H)^-1| psi_perp> at a simple pole z.

    The perp state is the w = 0 state, so this is N_0^2 Q_0 Res[G_dd] with
    Q_0 from :func:`_chain_split` on the pole's sheet and
    Res[G_dd] = 1/(1 - Sigma').
    """
    _, q0 = _chain_split(sigma1(z, sheet), g, 0.0)
    return w_norm_sq(g, 0.0) * q0 / (1.0 - _self_energy_derivative(z, g, sheet))


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
        if abs(z) <= 2.0:
            raise RootFindError("real-axis Newton polish reached the band", z)
        if abs(step) < 1e-14 * max(abs(z), 1.0):
            break
    if abs(z - params.eps_d - self_energy(z, params.g, sheet)) > 1e-10:
        raise RootFindError("real-axis Newton polish did not reach residual 1e-10", z)
    return z


def _newton_complex(z0: complex, params: ModelParams) -> complex:
    """Damped Newton iteration for a second-sheet complex root of z - eps_d - Sigma."""
    sheet = SheetTag.Second
    z = complex(z0)
    f = z - params.eps_d - self_energy(z, params.g, sheet)
    for _ in range(200):
        df = 1.0 - _self_energy_derivative(z, params.g, sheet)
        step = f / df
        lam = 1.0
        for _ in range(30):
            z_new = z - lam * step
            f_new = z_new - params.eps_d - self_energy(z_new, params.g, sheet)
            # a seed already at the tolerance may not improve in rounding
            if abs(f_new) < abs(f) or abs(f_new) < 1e-13:
                z, f = z_new, f_new
                break
            lam *= 0.5
        else:
            raise RootFindError("damped Newton stalled", z)
        if abs(f) < 1e-13:
            return z
    raise RootFindError("complex Newton did not converge", z)


def _quartic_roots(params: ModelParams) -> np.ndarray:
    """The four roots of the polynomial that z - eps_d - Sigma(z) squares to.

    Moving the root term of Sigma to one side and squaring cancels z^6:

        -g^2 z^4 + g^2 eps_d z^3 + (1+g^2)^2 z^2 - 2(1+g^2) eps_d z + eps_d^2 = 0,

    so every solution on either sheet is a root.  numpy's companion-matrix
    eigenvalues return real roots with a zero imaginary part and complex
    roots as exact conjugates.
    """
    g2, eps = params.g * params.g, params.eps_d
    a = 1.0 + g2
    coeffs = np.array([-g2, g2 * eps, a * a, -2.0 * a * eps, eps * eps])
    if not np.isfinite(coeffs).all():
        raise InvalidParameterError(
            f"spectrum quartic overflows at g = {params.g}, eps_d = {eps}")
    with np.errstate(all="ignore"):
        normalized = coeffs[1:] / coeffs[0]
    if not np.isfinite(normalized).all():
        raise RootFindError(f"spectrum quartic degenerates at g = {params.g}", eps)
    return np.roots(coeffs)


def _sheet_of(z: complex, params: ModelParams) -> SheetTag:
    """The sheet on which |z - eps_d - Sigma(z)| is smaller.

    Only real roots outside the band come here, where Sigma is real on both
    sheets and a root solves at most one of them; a tie, both residuals
    rounding to one value, goes to the second sheet.
    """
    first, second = (abs(z - params.eps_d - self_energy(z, params.g, sheet))
                     for sheet in (SheetTag.First, SheetTag.Second))
    return SheetTag.First if first < second else SheetTag.Second


def _classified_state(z: complex, g: float, sheet: SheetTag,
                      kind: StateKind) -> DiscreteState:
    """The state at a polished root, with its wavevector and perp residue."""
    try:
        return DiscreteState(z=z, sheet=sheet, kind=kind, k=wavevector(z, g, kind),
                             residue_weight=_perp_residue(z, g, sheet))
    except (ArithmeticError, ValueError) as exc:
        # far from the band sigma_1^2 over- or underflows
        raise RootFindError(f"state not resolvable in double precision ({exc})", z) from exc


def _detuned_states(params: ModelParams) -> list[DiscreteState]:
    """Classified states at eps_d != 0 from the roots of the quartic.

    The resonance pair is the conjugate pair among the roots.  A real root
    inside the band solves neither sheet (Sigma is complex there), so real
    roots inside it are that pair split onto the axis by rounding, which
    happens when Im z_res ~ eps_d^2 is below the roots' accuracy; the two
    innermost are then the pair.  When all four roots are real and outside
    the band (far detuning at small g), the pair has met the real axis and
    there is no resonance.  The other real roots are bound or virtual bound
    states on the sheet where they solve the equation, or band-edge states
    where the detuning sits on a threshold 2 g^2 = 2 -/+ eps_d.
    """
    g = params.g
    roots = _quartic_roots(params)
    pair = roots[roots.imag != 0.0]
    real = roots[roots.imag == 0.0].real
    real = real[np.argsort(np.abs(real))]
    if len(pair) == 0 and abs(real[0]) < 2.0:
        pair, real = real[:2].mean(keepdims=True), real[2:]
    if len(real) < 2:
        raise RootFindError("spectrum quartic has fewer than two real roots", roots[0])

    states: list[DiscreteState] = []
    for x in real:
        edge = math.copysign(2.0, x)
        if abs(edge - params.eps_d - self_energy(edge, g, branch_point_limit=True)) < 1e-10:
            states.append(_band_edge_state(edge / 2.0, g))
            continue
        if abs(x) <= 2.0:
            raise RootFindError("real root inside the band", x)
        sheet = _sheet_of(complex(x), params)
        z_r = _polish_real_root(float(x), params, sheet)
        kind = StateKind.Bound if sheet is SheetTag.First else StateKind.VirtualBound
        states.append(_classified_state(complex(z_r), g, sheet, kind))
    if len(pair):
        z_res = _newton_complex(complex(pair[0]), params)
        res = z_res if z_res.imag < 0 else z_res.conjugate()
        for z, kind in ((res, StateKind.Resonance), (res.conjugate(), StateKind.AntiResonance)):
            states.append(_classified_state(z, g, SheetTag.Second, kind))
    return states


#: couplings g that :func:`discrete_spectrum` accepts.  Outside them a state
#: lies near |z| = g + 1/g > 1000, where one ulp of z is above 1.1e-13; at
#: |z| of about 2000 (g >= 1964 or g <= 5e-4) correct states failed the
#: absolute 1e-12 dispersion check.  Every g in the range passed at eps_d = 0
#: and |eps_d| in [0.01, 1.5] (3000 log-spaced g per eps_d).
SPECTRUM_G_RANGE = (1e-3, 1e3)


def discrete_spectrum(params: ModelParams) -> list[DiscreteState]:
    """All solutions of z - eps_d - Sigma(z) = 0 on both sheets, classified.

    Returned sorted by real part (BIC/resonance between the symmetric pair).
    Every state satisfies |z - eps_d - Sigma(z)| < 1e-10 on its sheet and
    -2 cos k = z to 1e-12.  A coupling outside ``SPECTRUM_G_RANGE`` is
    refused with :class:`InvalidParameterError`.
    """
    g = params.g
    lo, hi = SPECTRUM_G_RANGE
    if not lo <= g <= hi:
        raise InvalidParameterError(
            f"the spectrum resolves couplings {lo:g} <= g <= {hi:g}, got g = {g:g}: "
            f"beyond them a state lies near |z| = g + 1/g > {hi:g}, where z itself "
            "rounds by nearly the 1e-12 of the dispersion check -2 cos k = z")
    states: list[DiscreteState] = []

    if params.eps_d == 0.0:
        states.append(DiscreteState(z=0j, sheet=SheetTag.First, kind=StateKind.BIC,
                                    k=complex(math.pi / 2.0), residue_weight=0j))
        zg = g + 1.0 / g
        if zg == 2.0:
            # g = 1, or within about 1.5e-8 of it, where g + 1/g rounds to 2
            states.append(_band_edge_state(+1.0, g))
            states.append(_band_edge_state(-1.0, g))
        else:
            sheet = SheetTag.First if g > 1.0 else SheetTag.Second
            kind = StateKind.Bound if g > 1.0 else StateKind.VirtualBound
            for z_val in (zg, -zg):
                z_pol = _polish_real_root(z_val, params, sheet)
                states.append(_classified_state(complex(z_pol), g, sheet, kind))
    else:
        states = _detuned_states(params)

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
