import cmath
import inspect
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from bicchain import closedform, spectrum
from bicchain.model import InvalidParameterError, ModelParams, hamiltonian
from bicchain.spectrum import (RootFindError, SheetTag, StateKind, discrete_spectrum,
                               resonance_expansion, self_energy, sigma1, spectrum_report,
                               sqrt_band, timescales, z_gap)
from oracles import NearPoleError, resolvent_dd, self_energy_quadrature, sheet_of

FIRST, SECOND = SheetTag.First, SheetTag.Second

SHEETS = st.sampled_from([FIRST, SECOND])
COUPLINGS = st.floats(0.05, 30.0)
#: points off the real axis, where both sheets are analytic
OFF_AXIS = st.builds(complex, st.floats(-6.0, 6.0),
                     st.floats(1e-6, 6.0) | st.floats(-6.0, -1e-6))
#: real points off the band [-2, 2]
OFF_BAND = st.floats(-50.0, 50.0).filter(lambda x: abs(x) > 2.0)


def test_self_energy_vanishes_at_origin():
    for g in (0.3, 0.9, 1.4):
        assert self_energy(1e-14 + 1e-14j, g, FIRST) == pytest.approx(0, abs=1e-12)


def test_self_energy_closed_form_value():
    # Sigma(3, g=1) = 1.5 (7 - 3 sqrt 5); quadrature oracle agrees
    val = self_energy(3.0, 1.0, FIRST)
    assert val == pytest.approx(1.5 * (7 - 3 * math.sqrt(5)), abs=1e-14)
    assert val == pytest.approx(0.437694101250946, abs=1e-12)
    assert abs(val - self_energy_quadrature(3.0, 1.0)) < 1e-9


def test_self_energy_large_z_asymptotics():
    # g^2 (1/z + 2/z^3 + 5/z^5 + ...) at z = 100, which mpmath and the
    # quadrature oracle agree on to 1e-17
    val = self_energy(100.0, 1.0, FIRST)
    assert val == pytest.approx(0.01000200050014004, abs=1e-12)
    assert abs(val - self_energy_quadrature(100.0, 1.0)) < 1e-9
    for g in (0.5, 0.9, 1.3):
        for z in (1000.0, -1000.0, 1000j):
            assert abs(z * self_energy(z, g, FIRST) - g * g) < 1e-3


@pytest.mark.parametrize("z", [1e3, -1e3, 1e4])
def test_self_energy_matches_the_large_z_series(z):
    # Sigma = g^2 (1/z + 2/z^3 + 5/z^5 + 14/z^7 + ...) (Catalan numbers); the
    # first-sheet root must not cancel between z^2 and z sqrt(z^2 - 4)
    series = float(sum(Fraction(c) / Fraction(z) ** (2 * n + 1)
                       for n, c in enumerate((1, 2, 5, 14, 42))))
    val = self_energy(z, 1.0, FIRST)
    assert val.imag == 0.0
    assert abs(val.real - series) <= 1e-15 * abs(series)


def test_self_energy_quadrature_oracle_random_points():
    rng = np.random.default_rng(20240811)
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.choice([-1, 1]) * rng.uniform(0.1, 3))
        g = rng.uniform(0.2, 1.5)
        assert abs(self_energy(z, g, FIRST) - self_energy_quadrature(z, g)) < 1e-9


def test_sheet_continuity_across_cut():
    eta = 1e-6
    for e in (-1.7, -0.4, 0.3, 1.9):
        for g in (0.7, 1.0, 1.2):
            d = self_energy(e + 1j * eta, g, FIRST) - self_energy(e - 1j * eta, g, SECOND)
            assert abs(d) < 1e-4


def test_self_energy_is_odd():
    for z in (2.5, 3.0 + 0.4j, -0.3 + 1j):
        assert self_energy(-z, 0.8, FIRST) == pytest.approx(-self_energy(z, 0.8, FIRST), abs=1e-13)


def test_branch_point_handling():
    # the root is exactly 0 at z = +/-2, so the formulas give sigma_1 = z/2 and
    # Sigma = z g^2 (z^2 - 2)/2 there, on either sheet
    for edge in (2.0, -2.0):
        assert sqrt_band(edge) == 0.0
        for sheet in (FIRST, SECOND):
            assert sigma1(edge, sheet) == edge / 2.0
            assert self_energy(edge, 0.9, sheet) == edge * 0.81 * (edge * edge - 2.0) / 2.0
    assert self_energy(2.0, 0.9, FIRST) == pytest.approx(2.0 * 0.81, abs=1e-14)


def test_schwarz_reflection_of_resolvent():
    params = ModelParams(g=0.8, eps_d=0.1)
    for z in (1.5 + 0.8j, -2.5 + 0.3j):
        a = resolvent_dd(np.conj(z), params, FIRST)
        b = np.conj(resolvent_dd(z, params, FIRST))
        assert a == pytest.approx(b, abs=1e-13)


def test_resolvent_pole_at_bic():
    params = ModelParams(g=0.9, eps_d=0.0)
    assert abs(resolvent_dd(1e-6j, params, FIRST)) > 1e5
    assert resolvent_dd(3.0, ModelParams(g=1.0), FIRST) == pytest.approx(
        1.0 / (3.0 - 0.437694101250946), abs=1e-12)
    with pytest.raises(NearPoleError):
        resolvent_dd(1e-14j, params, FIRST)


def test_resolvent_against_truncated_matrix():
    # <d|(z - H_N)^{-1}|d> converges to the closed form for complex z
    params = ModelParams(g=0.9, eps_d=0.15)
    n = 400
    h = hamiltonian(params, n).to_sparse().tocsc()
    eye = sparse.identity(n + 1, format="csc")
    rng = np.random.default_rng(7)
    for _ in range(4):
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.4, 1.5))
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = 1.0
        direct = spsolve(z * eye - h, rhs)[0]
        assert abs(direct - resolvent_dd(z, params, FIRST)) < 1e-8


def test_z_gap_values():
    assert z_gap(1.0) == (2.0, 0.0)
    zg, dg = z_gap(0.98)
    assert zg == pytest.approx(2.0004081632653061, abs=1e-12)
    assert dg == pytest.approx(4.0816326530612e-4, rel=1e-9)
    # around g = 0.38 the near zone is squeezed out: T_Delta ~ 1
    assert 1.0 / z_gap(0.38)[1] == pytest.approx(0.988, abs=2e-3)
    for g in np.linspace(0.05, 2.0, 40):
        assert z_gap(g)[0] >= 2.0
    assert z_gap(1.0)[0] == 2.0


def test_timescales():
    ts = timescales(0.98)
    assert ts.t_vr == pytest.approx(7.96, abs=0.05)  # paper quotes ~8.0
    assert ts.t_delta == pytest.approx(2450.0, rel=1e-9)
    assert ts.t_br == pytest.approx(245.0, rel=1e-9)
    ts1 = timescales(1.0)
    assert ts1.zeno_c == 2.0
    assert math.isinf(ts1.t_delta)
    ts_big = timescales(1.3)
    assert math.isnan(ts_big.t_delta) and math.isnan(ts_big.t_vr)
    assert ts_big.zeno_c == pytest.approx((1.3 + 1.69 + 2.197 - 1) / 1.69, rel=1e-12)


def test_resonance_expansion_values():
    bic_limit = resonance_expansion(ModelParams(g=0.9, eps_d=0.0))
    assert bic_limit.e_res == 0.0 and bic_limit.gamma == 0.0
    pole = resonance_expansion(ModelParams(g=0.9, eps_d=0.2))
    assert pole.e_res == pytest.approx(0.1104972375690608, abs=1e-12)
    assert pole.gamma == pytest.approx(2 * 0.81 * 0.04 / 1.81 ** 3, abs=1e-15)
    assert pole.gamma == pytest.approx(0.0109280, abs=1e-6)


def test_wavevector_examples():
    bound = discrete_spectrum(ModelParams(g=1.1))[-1]  # the bound state at z = g + 1/g
    assert bound.kind is StateKind.Bound
    assert bound.k == pytest.approx(math.pi + 1j * math.log(1.1), abs=1e-12)
    virtual = discrete_spectrum(ModelParams(g=0.9))[0]  # the virtual state at -(g + 1/g)
    assert virtual.kind is StateKind.VirtualBound
    assert virtual.k == pytest.approx(1j * math.log(0.9), abs=1e-12)
    assert virtual.k.imag < 0


@pytest.mark.parametrize("g", [0.7, 1.3])
def test_wavevector_dispersion_consistency(g):
    for st in discrete_spectrum(ModelParams(g=g)):
        assert abs(-2 * cmath.cos(st.k) - st.z) < 1e-12


def test_discrete_spectrum_bound_regime():
    states = discrete_spectrum(ModelParams(g=1.1, eps_d=0.0))
    kinds = [s.kind for s in states]
    assert kinds == [StateKind.Bound, StateKind.BIC, StateKind.Bound]
    zg = 1.1 + 1 / 1.1
    assert states[0].z == pytest.approx(-zg, abs=1e-12)
    assert states[2].z == pytest.approx(zg, abs=1e-12)
    assert states[2].z.real == pytest.approx(2.0090909090909, abs=1e-10)
    assert all(s.sheet is FIRST for s in states)


def test_discrete_spectrum_virtual_regime():
    states = discrete_spectrum(ModelParams(g=0.9, eps_d=0.0))
    kinds = [s.kind for s in states]
    assert kinds == [StateKind.VirtualBound, StateKind.BIC, StateKind.VirtualBound]
    assert states[2].z.real == pytest.approx(2.0111111111111, abs=1e-10)
    assert states[0].sheet is SECOND and states[2].sheet is SECOND
    assert states[0].k.imag < 0 and states[2].k.imag < 0


def test_discrete_spectrum_band_edge_degeneracy():
    states = discrete_spectrum(ModelParams(g=1.0, eps_d=0.0))
    edge = [s for s in states if s.band_edge]
    assert len(edge) == 2
    assert {s.z for s in edge} == {2.0 + 0j, -2.0 + 0j}
    assert {s.k for s in edge} == {complex(math.pi), 0j}
    assert all(s.kind is StateKind.VirtualBound for s in edge)


def test_discrete_spectrum_detuned():
    params = ModelParams(g=0.9, eps_d=0.2)
    states = discrete_spectrum(params)
    res = [s for s in states if s.kind is StateKind.Resonance]
    anti = [s for s in states if s.kind is StateKind.AntiResonance]
    assert len(res) == 1 and len(anti) == 1
    # frozen root from an independent damped Newton solve in z (residual < 1e-13)
    assert res[0].z == pytest.approx(0.11025744084748 - 0.0054633305982869j, abs=1e-10)
    assert res[0].z.imag < 0 < anti[0].z.imag
    assert anti[0].z == pytest.approx(res[0].z.conjugate(), abs=1e-13)
    # leading-order expansion agreement
    exp = resonance_expansion(params)
    assert res[0].z.real == pytest.approx(exp.e_res, abs=5e-4)
    assert res[0].z.imag == pytest.approx(-exp.gamma / 2, abs=5e-5)


@pytest.mark.parametrize("eps_d", [0.01, 0.05])
def test_resonance_expansion_order(eps_d):
    # |e_res - Re z_res| = O(eps_d^3)
    params = ModelParams(g=0.9, eps_d=eps_d)
    res = [s for s in discrete_spectrum(params) if s.kind is StateKind.Resonance][0]
    diff = abs(resonance_expansion(params).e_res - res.z.real)
    assert diff < 0.1 * eps_d ** 3


def test_bic_pair_is_not_polished(monkeypatch):
    # at eps_d = 0 the pair is the BIC pair +/- i, which no state or pole
    # takes further: only the real roots +/- 1/g are polished
    polish = spectrum._band_root
    calls = []

    def spy(sig, g2, eps_d):
        calls.append(sig)
        return polish(sig, g2, eps_d)

    monkeypatch.setattr(spectrum, "_band_root", spy)
    states = discrete_spectrum(ModelParams(g=0.9, eps_d=0.0))
    assert [s.kind for s in states].count(StateKind.BIC) == 1
    assert len(calls) == 2 and all(isinstance(sig, float) for sig in calls)
    assert sorted(abs(sig) for sig in calls) == pytest.approx([1 / 0.9] * 2, rel=1e-15)
    # a detuned pair is still polished
    calls.clear()
    discrete_spectrum(ModelParams(g=0.9, eps_d=0.2))
    assert any(isinstance(sig, complex) for sig in calls)


def test_bic_disappears_under_detuning():
    states = discrete_spectrum(ModelParams(g=0.9, eps_d=1e-3))
    assert not any(s.kind is StateKind.BIC for s in states)
    res = [s for s in states if s.kind is StateKind.Resonance]
    assert len(res) == 1 and res[0].z.imag < 0


def test_root_residuals():
    for g in (0.4, 0.9, 1.0, 1.6):
        for eps_d in (0.0, 0.2):
            for st in discrete_spectrum(ModelParams(g=g, eps_d=eps_d)):
                sigma = self_energy(st.z, g, st.sheet)
                assert abs(st.z - eps_d - sigma) < 1e-10


def test_bound_state_residues_match_pole_term():
    # residue of the perp resolvent at each bound state is (g^2-1)/(2g^2)
    for g in (1.2, 5.0, 30.0):
        states = discrete_spectrum(ModelParams(g=g))
        assert sum(st.kind is StateKind.Bound for st in states) == 2
        for st in states:
            if st.kind is StateKind.Bound:
                assert st.residue_weight == pytest.approx((g * g - 1) / (2 * g * g), abs=1e-12)
            if st.kind is StateKind.BIC:
                assert st.residue_weight == 0


def _residues_at_exact_roots(g, eps_d):
    """(k, N_0^2 Q_0(sigma) Res[G_dd]) at the 50-digit roots sigma = -e^{ik} of P.

    Matched by k, which tells the resonance pair apart even where its Im z
    rounds to 0."""
    mpmath.mp.dps = 50
    g2, eps = mpmath.mpf(g) ** 2, mpmath.mpf(eps_d)
    out = []
    for sig in mpmath.polyroots([g2, 0, g2 - 1, eps, -1], maxsteps=200, extraprec=200):
        dp = 4 * g2 * sig ** 3 + 2 * (g2 - 1) * sig + eps
        residue = g2 * (1 + sig * sig) ** 2 * (1 - sig * sig) / (sig * dp) / (1 + g2)
        k = complex(-1j * mpmath.log(-sig))
        out.append((k + 2.0 * math.pi if k.real < 0.0 else k, complex(residue)))
    return out


@pytest.mark.parametrize("g, eps_d, bound", [
    (0.9, 0.2, 1e-13), (1.3, -0.7, 1e-13), (0.1, 2.5, 1e-13), (5.0, 40.0, 1e-13),
    (0.5, -300.0, 1e-13),
    # the pair's Q_0 = g^2 (1 + sigma^2)^2 cancels near sigma = +/-i, by about
    # 1e-16/|z_res| = 6e-8 at z_res = 1.7e-9; 1/(1 - Sigma') at the polished z
    # is 5.2e-7 off for the anti-resonance here
    (27.49727761118915, 1.2825862165077613e-06, 1e-7),
])
def test_residue_weight_matches_the_exact_root(g, eps_d, bound):
    exact = _residues_at_exact_roots(g, eps_d)
    for s in discrete_spectrum(ModelParams(g=g, eps_d=eps_d)):
        _, residue = min(exact, key=lambda kr: abs(kr[0] - s.k))
        assert abs(s.residue_weight - residue) <= bound * abs(residue)


@pytest.mark.parametrize("g", [5.0, 7.498, 10.0, 30.0, 100.0])
def test_strong_coupling_pair_is_the_exact_root(g):
    # z = +/-(g + 1/g) to rounding, far from the band where |z| ~ g
    exact = Fraction(g) + 1 / Fraction(g)
    pair = sorted((s.z for s in discrete_spectrum(ModelParams(g=g))
                   if s.kind is StateKind.Bound), key=lambda z: z.real)
    assert len(pair) == 2 and all(z.imag == 0.0 for z in pair)
    for z, sign in zip(pair, (-1, 1)):
        assert abs(Fraction(z.real) - sign * exact) <= 4 * math.ulp(float(exact))


def test_resonance_pair_is_on_the_second_sheet():
    # the first-sheet resolvent has no complex poles; at this point the pair
    # lies within rounding of the real axis in z, where the two sheets'
    # residuals differ only in rounding and the first is smaller
    states = discrete_spectrum(ModelParams(g=19.359375, eps_d=1e-6))
    pair = [s for s in states if s.kind in (StateKind.Resonance, StateKind.AntiResonance)]
    assert len(pair) == 2 and all(s.sheet is SECOND for s in pair)


def test_spectrum_report_fields():
    report = spectrum_report(ModelParams(g=0.9, eps_d=0.2))
    assert set(report) == {"params", "states", "timescales"}
    assert report["params"] == {"g": 0.9, "eps_d": 0.2, "j_hop": 1.0}
    for entry in report["states"]:
        assert {"re_z", "im_z", "sheet", "kind", "re_k", "im_k"} <= set(entry)
    assert set(report["timescales"]) == {"t_zeno", "t_delta", "t_vr", "t_br",
                                         "delta_g", "zeno_c"}


# ---------------------------------------------------------------------------
# one band root, scalar and array calls


def test_sigma1_is_defined_once():
    # closedform takes the one band root, sqrt_band, from spectrum and defines
    # no band root of its own: the rays' jump is formed from sqrt(z^2 - 4)
    assert closedform.sqrt_band is spectrum.sqrt_band
    assert not any(hasattr(closedform, name) for name in ("sigma1", "SheetTag", "_chain_split"))
    assert not re.search(r"(np|cmath|math)\.sqrt\(z|sigma1\(", inspect.getsource(closedform))


@given(z=OFF_AXIS, g=COUPLINGS, sheet=SHEETS)
def test_property_schwarz_reflection(z, g, sheet):
    assert self_energy(z.conjugate(), g, sheet) == self_energy(z, g, sheet).conjugate()


@given(z=OFF_AXIS, g=COUPLINGS, sheet=SHEETS)
def test_property_self_energy_is_odd(z, g, sheet):
    assert self_energy(-z, g, sheet) == -self_energy(z, g, sheet)


@given(z=OFF_AXIS | OFF_BAND, sheet=SHEETS)
def test_property_sigma1_inverts_the_band_map(z, sheet):
    sig = sigma1(z, sheet)
    assert abs(sig + 1.0 / sig - z) <= 1e-14 * (1.0 + abs(z)) ** 2


@given(xs=st.lists(OFF_BAND, min_size=1, max_size=40), g=COUPLINGS, sheet=SHEETS)
def test_property_array_call_is_bitwise_on_real_axis(xs, g, sheet):
    xs = np.array(xs)
    assert np.array_equal(sqrt_band(xs), [sqrt_band(x) for x in xs])
    assert np.array_equal(sigma1(xs, sheet), [sigma1(x, sheet) for x in xs])
    assert np.array_equal(self_energy(xs, g, sheet), [self_energy(x, g, sheet) for x in xs])


@given(zs=st.lists(OFF_AXIS, min_size=1, max_size=40), g=COUPLINGS, sheet=SHEETS)
def test_property_array_call_matches_scalar_calls(zs, g, sheet):
    # numpy multiplies complex arrays with fused multiply-adds, so an array
    # result may differ from the scalar one in its last bits; each result is
    # held to 1e-15 of the magnitudes it sums
    zs = np.array(zs)
    roots = np.array([sqrt_band(z) for z in zs])
    assert np.all(np.abs(sqrt_band(zs) - roots) <= 1e-15 * np.abs(roots))
    sig = np.array([sigma1(z, sheet) for z in zs])
    scale = 0.5 * (np.abs(zs) + np.abs(roots)) * (np.abs(sig) ** 2 if sheet is SECOND else 1.0)
    assert np.all(np.abs(sigma1(zs, sheet) - sig) <= 1e-15 * scale)
    sigma = np.array([self_energy(z, g, sheet) for z in zs])
    scale = 0.5 * np.abs(zs) * g * g * (np.abs(zs) ** 2 + 2.0 + np.abs(zs * roots))
    assert np.all(np.abs(self_energy(zs, g, sheet) - sigma) <= 1e-15 * scale)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _numpy_band(z, g, sheet):
    """sqrt_band, sigma_1 and Sigma at a Python complex z from numpy's square roots."""
    root = complex(np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
    wide = z + root
    sig = wide / 2.0 if sheet is SECOND else 2.0 / wide
    return root, sig, g * g * z * sig * sig


#: complex z with |Re z|, |Im z| <= 1e6, on the lines Re z = +/-2 too, and
#: imaginary parts small enough to give a root a subnormal part
ANY_Z = st.builds(complex, st.floats(-1e6, 1e6) | st.sampled_from([2.0, -2.0]),
                  st.floats(-1e6, 1e6) | st.floats(-1e-305, 1e-305))


@settings(max_examples=300)
@given(z=ANY_Z, g=COUPLINGS, sheet=SHEETS)
def test_property_scalar_calls_equal_the_numpy_formula(z, g, sheet):
    # numpy's roots, bit for bit, on a scalar as on an array
    root, sig, sigma = _numpy_band(z, g, sheet)
    assert _bits(sqrt_band(z)) == _bits(root)
    assert _bits(sigma1(z, sheet)) == _bits(sig)
    assert _bits(self_energy(z, g, sheet)) == _bits(sigma)


def test_sqrt_band_takes_numpys_roots_on_re_z_2_and_at_subnormal_im_z():
    # pinned where cmath's roots round differently: cmath.sqrt(1j) is 1 ulp
    # below numpy's in its imaginary part, and z - 2 = 1j at z = 2 + 1j
    assert cmath.sqrt(1j) != complex(np.sqrt(1j))
    assert sqrt_band(2 + 1j) == complex(1.2496210676876534, 1.6004851804402411)
    assert sqrt_band(-2 + 1j) == complex(-1.2496210676876534, 1.6004851804402411)
    assert sqrt_band(2 + 1j) == complex(np.sqrt(1j) * np.sqrt(4 + 1j))
    # and where a root has a subnormal part: cmath's real part here is 1.1e-322
    z = complex(2.4346790964764716e-14, -8.59747351107418e-309)
    assert sqrt_band(z) == complex(1e-322, -2.0)


@given(zs=st.lists(OFF_AXIS, min_size=1, max_size=10), at=st.integers(0, 10),
       edge=st.sampled_from([2.0, -2.0]), g=COUPLINGS, sheet=SHEETS)
def test_property_branch_point_guard_is_elementwise(zs, at, edge, g, sheet):
    # the band edge anywhere in an array takes the formula limits, as a scalar
    # does, and leaves the other elements as a call without it gives them
    sigma_limit = edge * g * g * (edge * edge - 2.0) / 2.0
    assert sigma1(edge, sheet) == edge / 2.0
    assert self_energy(edge, g, sheet) == sigma_limit
    at = min(at, len(zs))
    others = np.array(zs)
    zs = np.insert(others, at, edge)
    sig, sigma = sigma1(zs, sheet), self_energy(zs, g, sheet)
    assert sig[at] == edge / 2.0
    assert sigma[at] == sigma_limit
    assert np.array_equal(np.delete(sig, at), sigma1(others, sheet))
    assert np.array_equal(np.delete(sigma, at), self_energy(others, g, sheet))


# ---------------------------------------------------------------------------
# detuned spectrum: roots of the squared quartic in z and of P in sigma


def _quartic(z, g, eps_d):
    """The polynomial every detuned solution is a root of, and its terms' size."""
    a = 1.0 + g * g
    terms = (-g * g * z ** 4, g * g * eps_d * z ** 3, a * a * z ** 2,
             -2.0 * a * eps_d * z, eps_d * eps_d)
    return sum(terms), sum(abs(t) for t in terms)


def _band_poly(sig, g, eps_d):
    """P(sigma) = g^2 sigma^4 + (g^2 - 1) sigma^2 + eps_d sigma - 1, and its terms' size."""
    terms = (g * g * sig ** 4, (g * g - 1.0) * sig ** 2, eps_d * sig, -1.0)
    return sum(terms), sum(abs(t) for t in terms)


def _expected_kinds(g, eps_d):
    # a real root leaves the band edge onto the first sheet (a bound state)
    # above the band iff 2 g^2 > 2 - eps_d, below it iff 2 g^2 > 2 + eps_d
    n_bound = int(2.0 * g * g > 2.0 - eps_d) + int(2.0 * g * g > 2.0 + eps_d)
    return sorted([("Resonance", "Second"), ("AntiResonance", "Second")]
                  + [("Bound", "First")] * n_bound
                  + [("VirtualBound", "Second")] * (2 - n_bound))


@given(g=st.floats(0.3, 30.0), size=st.floats(1e-6, 0.5), sign=st.sampled_from([1.0, -1.0]))
def test_property_detuned_states_are_quartic_roots_on_their_sheet(g, size, sign):
    eps_d = sign * size
    assume(min(abs(2.0 * g * g - 2.0 + eps_d), abs(2.0 * g * g - 2.0 - eps_d)) > 1e-3)
    states = discrete_spectrum(ModelParams(g=g, eps_d=eps_d))
    assert len(states) == 4
    assert sorted((s.kind.value, s.sheet.value) for s in states) == _expected_kinds(g, eps_d)
    for s in states:
        value, scale = _quartic(s.z, g, eps_d)
        assert abs(value) <= 1e-12 * scale
        assert abs(s.z - eps_d - self_energy(s.z, g, s.sheet)) < 1e-10
        # sigma = -e^{ik} is a root of P, inside the unit circle iff on the first sheet
        value, scale = _band_poly(-cmath.exp(1j * s.k), g, eps_d)
        assert abs(value) <= 1e-12 * scale
        assert (abs(cmath.exp(1j * s.k)) < 1.0) == (s.sheet is FIRST)


def test_detuned_spectrum_at_tiny_detuning():
    # Im z_res ~ g^2 eps_d^2 falls below rounding, then underflows; the pair
    # stays a conjugate pair, in the order resonance, anti-resonance.  At the
    # last point Im z = Im sigma (1 - 1/|sigma|^2) cancels to 0 in sigma + 1/sigma
    for g, eps_d in ((0.9, 1e-8), (0.9, -1e-8), (0.9, 1e-300), (0.9, 5e-324),
                     (11.494199879250813, 1.9549002336350113e-06)):
        states = discrete_spectrum(ModelParams(g=g, eps_d=eps_d))
        outer = StateKind.Bound if g > 1.0 else StateKind.VirtualBound
        assert [s.kind for s in states] == [outer, StateKind.Resonance,
                                            StateKind.AntiResonance, outer]
        res, anti = states[1], states[2]
        assert res.z == anti.z.conjugate()
        assert res.z.real == pytest.approx(eps_d / (1.0 + g * g), rel=1e-12)
        assert res.z.imag <= 0.0 <= anti.z.imag


def test_detuned_spectrum_on_a_threshold_has_a_band_edge_state():
    eps_d = 2.0 - 2.0 * 0.9 ** 2
    states = discrete_spectrum(ModelParams(g=0.9, eps_d=eps_d))
    edge = [s for s in states if s.band_edge]
    assert len(states) == 4 and len(edge) == 1
    assert edge[0].z == 2.0 and edge[0].kind is StateKind.VirtualBound


def test_far_detuning_at_weak_coupling_has_no_resonance():
    # the pair has met the real axis above the band: four real roots, each
    # reported once, one on the first sheet.  Within about 4 g^4 of a
    # threshold at small g it has met the axis next to the band edge: four
    # virtual bound states, two of them at z = -2.000514 and -2 - 1.4e-12
    # (sigma = -1.0229, -1.0000012)
    for g, eps_d, kinds in [
            (0.1, 2.5, [(StateKind.VirtualBound, SECOND), (StateKind.Bound, FIRST),
                        (StateKind.VirtualBound, SECOND), (StateKind.VirtualBound, SECOND)]),
            (0.07422422084963132, -1.9889815042753196, [(StateKind.VirtualBound, SECOND)] * 4)]:
        states = discrete_spectrum(ModelParams(g=g, eps_d=eps_d))
        assert [(s.kind, s.sheet) for s in states] == kinds
        for s in states:
            assert s.z.imag == 0.0
            assert abs(s.z - eps_d - self_energy(s.z, g, s.sheet)) < 1e-10


@pytest.mark.parametrize("g", [1e-200, 4.9e-4, np.nextafter(1e-3, 0.0), np.nextafter(1e3, 2e3),
                               1964.0, 1e200])
def test_spectrum_refuses_couplings_beyond_its_resolution(g):
    # a state near |z| = g + 1/g ~ 2000 fails the absolute 1e-12 dispersion
    # check; such g are refused up front, and the message names the range
    for eps_d in (0.0, 0.3):
        with pytest.raises(InvalidParameterError, match=r"0\.001 <= g <= 1000"):
            discrete_spectrum(ModelParams(g=g, eps_d=eps_d))


@given(log_g=st.floats(-3.0, 3.0),
       eps_d=st.one_of(st.just(0.0), st.floats(0.01, 1.5), st.floats(-1.5, -0.01)))
def test_property_spectrum_resolves_every_accepted_coupling(log_g, eps_d):
    # including both ends of the accepted range
    g = min(max(10.0 ** log_g, spectrum.SPECTRUM_G_RANGE[0]), spectrum.SPECTRUM_G_RANGE[1])
    assume(min(abs(2.0 * g * g - 2.0 + eps_d), abs(2.0 * g * g - 2.0 - eps_d)) > 1e-3)
    for s in discrete_spectrum(ModelParams(g=g, eps_d=eps_d)):
        assert abs(-2.0 * cmath.cos(s.k) - s.z) <= 1e-12


#: |eps_d| on both sides of the accepted domain's edge, and 0
DETUNINGS = (st.just(0.0)
             | st.builds(lambda u, sign: sign * 10.0 ** u, st.floats(-12.0, 3.5),
                         st.sampled_from([1.0, -1.0]))
             | st.sampled_from([spectrum.SPECTRUM_EPS_MAX, -spectrum.SPECTRUM_EPS_MAX,
                                np.nextafter(spectrum.SPECTRUM_EPS_MAX, np.inf)]))


@given(log_g=st.floats(-3.0, 3.0), eps_d=DETUNINGS)
def test_property_spectrum_over_the_whole_accepted_domain(log_g, eps_d):
    # every accepted (g, eps_d) is resolved and every other is refused up
    # front (exit 2), never exit 3.  Excluded: the documented exit-3 band
    # near a threshold 2 g^2 = 2 -/+ eps_d, where a real root is closer to
    # the band edge than the residual bound resolves; it is about
    # 1e-5 max(1, g)^4 wide in eps_d (0.036 at g = 7) and excluded here at
    # 3e-5 max(1, g)^4.
    lo, hi = spectrum.SPECTRUM_G_RANGE
    g = min(max(10.0 ** log_g, lo), hi)
    params = ModelParams(g=g, eps_d=eps_d)
    if abs(eps_d) > spectrum.SPECTRUM_EPS_MAX:
        with pytest.raises(InvalidParameterError, match=r"\|eps_d\| <= 1000,"):
            discrete_spectrum(params)
        return
    assume(min(abs(2.0 * g * g - 2.0 + eps_d), abs(2.0 * g * g - 2.0 - eps_d))
           > 3e-5 * max(1.0, g) ** 4)
    assert len(discrete_spectrum(params)) == (3 if eps_d == 0.0 else 4)


SIGNS = st.sampled_from([1.0, -1.0])


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


def _near_threshold(g: float, side: float, offset: float, sign: float) -> tuple[float, float]:
    return g, side * (2.0 - 2.0 * g * g) + sign * offset


#: (g, eps_d): g log-uniform over the accepted couplings with |eps_d| in
#: [1e-6, 1000], or g up to sqrt(501) (a threshold within |eps_d| <= 1000) with
#: eps_d within 1e-12..0.1 of a threshold 2 g^2 = 2 -/+ eps_d
REAL_ROOT_POINTS = (
    st.tuples(_log_uniform(-3.0, 3.0), st.builds(float.__mul__, SIGNS, _log_uniform(-6.0, 3.0)))
    | st.builds(_near_threshold, _log_uniform(-3.0, math.log10(501.0) / 2.0), SIGNS,
                _log_uniform(-12.0, -1.0), SIGNS))


@settings(max_examples=300)
@given(point=REAL_ROOT_POINTS)
def test_property_real_root_sheet_matches_the_residual_rule(point):
    # the sheet read off sigma_1 (|x - eps_d| < g^2 |x| on the first) is the
    # one on which the root has the smaller residual.  A draw that raises
    # RootFindError is skipped; it must lie in the documented exit-3 band
    # near a threshold (see the property above), since a root polished on
    # the wrong sheet fails there too
    g, eps_d = point
    assume(abs(eps_d) <= spectrum.SPECTRUM_EPS_MAX)
    params = ModelParams(g=g, eps_d=eps_d)
    try:
        states = discrete_spectrum(params)
    except RootFindError:
        assert (min(abs(2.0 * g * g - 2.0 + eps_d), abs(2.0 * g * g - 2.0 - eps_d))
                <= 3e-5 * max(1.0, g) ** 4)
        reject()
    for s in states:
        if s.kind in (StateKind.Bound, StateKind.VirtualBound) and not s.band_edge:
            assert s.sheet is sheet_of(s.z, params)


# ---------------------------------------------------------------------------
# partial fractions of the w-state resolvent

@pytest.mark.parametrize("g, eps_d, w", [
    (0.9, 0.2, 0.0), (0.9, 0.0, 1.0), (1.3, 0.4, -2.0), (0.37, -6.1e-5, 0.5),
    (0.3, 1.819999683772234, 0.0), (0.0153376, 25.1129, 1.0), (3.0, -2.9, 2.0)])
def test_partial_fractions_rebuild_the_resolvent(g, eps_d, w):
    # F(sigma) = C0 - sigma Q_w/P against a0 + a1 sigma + SUM_j c_j/(sigma - sigma_j),
    # in 40-digit arithmetic on the same roots and coefficients; the BIC pair
    # of eps_d = 0 is left out, as its c vanishes
    (a0, a1), poles = spectrum.partial_fractions(ModelParams(g=g, eps_d=eps_d), w)
    assert len(poles) == (2 if eps_d == 0.0 else 4)
    with mpmath.workdps(40):
        g_, e_, w_ = mpmath.mpf(g), mpmath.mpf(eps_d), mpmath.mpf(w)
        for sig in (mpmath.mpc(0.3, 0.7), mpmath.mpc(-1.7, 0.2), mpmath.mpc(4.0, -2.5)):
            one = 1 - w_ * sig
            q_w = g_ ** 2 * (1 + sig ** 2) ** 2 * one ** 2
            p = g_ ** 2 * sig ** 4 + (g_ ** 2 - 1) * sig ** 2 + e_ * sig - 1
            direct = sig * one ** 2 + w_ ** 2 * sig - sig * q_w / p
            rebuilt = a0 + a1 * sig + sum(c / (sig - s) for s, c in poles)
            scale = abs(a0) + abs(a1 * sig) + sum(abs(c / (sig - s)) for s, c in poles)
            assert abs(direct - rebuilt) <= 1e-14 * scale


@given(g=st.floats(0.05, 5.0), eps_d=st.floats(-3.0, 3.0))
@example(g=1.3, eps_d=0.4)
@example(g=2.0, eps_d=0.0)
@example(g=0.9, eps_d=0.38 + 1e-3)
def test_property_first_sheet_poles_are_the_bound_states(g, eps_d):
    # the residue from the partial fractions, N_0^2 c (1 - 1/sigma^2), and the
    # spectrum's N_0^2 Q_0 Res[G_dd] are one quantity; outside the threshold
    # band (1e-5 max(1, g)^4 wide in eps_d) both list the same bound states
    assume(min(abs(2.0 * g * g - 2.0 + eps_d), abs(2.0 * g * g - 2.0 - eps_d))
           > 1e-4 * max(1.0, g) ** 4)
    params = ModelParams(g=g, eps_d=eps_d)
    bound = sorted((s.z.real, s.residue_weight) for s in discrete_spectrum(params)
                   if s.kind is StateKind.Bound)
    poles = sorted(spectrum.first_sheet_poles(params, 0.0))
    assert len(poles) == len(bound)
    for (z, residue), (z_b, weight) in zip(poles, bound):
        assert abs(z - z_b) <= 1e-14
        assert abs(residue - weight) <= 1e-14


def test_partial_fractions_at_small_coupling():
    # at eps_d = 0 the roots +/- 1/g are exact, where the companion matrix of
    # P overflows (g = 1e-150) and the spectrum's root stage cannot run
    (a0, a1), poles = spectrum.partial_fractions(ModelParams(g=1e-150), 0.0)
    assert (a0, a1) == (0.0, -0.0)
    assert [s for s, _ in poles] == [1e150, -1e150]
    assert all(c == pytest.approx(-0.5e300, rel=1e-15) for _, c in poles)
    with pytest.raises(RootFindError, match="roots of P not resolvable"):
        spectrum.partial_fractions(ModelParams(g=1e-160, eps_d=3.0), 0.0)
    # at w = 1 the c_j, about w^2/(2 g^4), overflow from g of about 1e-77
    with pytest.raises(RootFindError, match="partial fractions"):
        spectrum.partial_fractions(ModelParams(g=1e-100), 1.0)
