import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import quad
from scipy.special import j1, roots_legendre
from scipy.sparse.linalg import spsolve

from bicchain import closedform, spectrum
from bicchain.closedform import (LAWS, DivergenceError, DomainError, Law, a_br_quadrature,
                                 a_w_cut, a_w_poles, a_w_rays, bessel_exact_grid, bound_term,
                                 early_approx, far_zone_coefficient, far_zone_prob, near_zone_amp,
                                 near_zone_prob, res_pole_1d, res_pole_perp, w_far_zone,
                                 w_far_zone_coefficient, w_near_zone_g1, w_norm_sq)
from bicchain.evolve import EvolveOptions, evolve
from bicchain.model import InvalidParameterError, ModelParams, hamiltonian, perp_state, w_state
from bicchain.spectrum import (RootFindError, SheetTag, StateKind, discrete_spectrum, sigma1,
                               timescales, z_gap)
import oracles
from oracles import (QuadratureError, a_w_cut_adaptive, a_w_rays_plain_exp, a_w_rays_v_rule,
                     a_w_resolvent, bessel_exact, bessel_tail_gl30, q_of_z, resolvent_dd)

# ---------------------------------------------------------------------------
# branch-cut quadrature

def test_abr_sum_rule_no_poles():
    # for g <= 1 the cut carries the full initial norm
    for g in (0.7, 0.9, 0.98, 1.0):
        assert a_br_quadrature(0.0, g) == pytest.approx(1.0, abs=1e-10)


def test_abr_sum_rule_with_bound_states():
    # for g > 1 the cut carries 1 - (g^2-1)/g^2 = 1/g^2
    assert a_br_quadrature(0.0, 1.1) == pytest.approx(1 / 1.21, abs=1e-10)
    assert a_br_quadrature(0.0, 1.1) == pytest.approx(0.826446, abs=1e-6)


def test_abr_reduces_to_bessel_j0_at_transition():
    from scipy.special import j0
    for t in (0.5, 7.3, 31.0):
        assert a_br_quadrature(t, 1.0) == pytest.approx(j0(2 * t), abs=1e-9)


def test_abr_real_at_zero_detuning():
    # equal weights from the two band edges make A real
    for t in (3.0, 17.0, 42.0):
        assert abs(a_br_quadrature(t, 0.85).imag) < 1e-8


# ---------------------------------------------------------------------------
# bound-state term

def test_bound_term_values():
    assert bound_term(0.0, 1.1) == pytest.approx(0.173554, abs=1e-6)
    assert bound_term(5.0, 1.0) == 0.0
    assert bound_term(5.0, 0.9) == 0.0
    zg, _ = z_gap(1.1)
    period = 2 * math.pi / zg
    assert period == pytest.approx(3.1274, abs=1e-4)
    assert bound_term(7.7 + period, 1.1) == pytest.approx(bound_term(7.7, 1.1), abs=1e-12)


# ---------------------------------------------------------------------------
# exact Bessel representation

def test_bessel_exact_at_zero():
    for g in (0.6, 0.9, 1.0):
        assert bessel_exact(0.0, g) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("g", [0.7, 0.9, 1.0])
def test_bessel_matches_quadrature(g):
    for t in (0.8, 10.0, 27.5):
        assert abs(bessel_exact(t, g) - a_br_quadrature(t, g)) < 1e-7


def test_bessel_grid_matches_scalar():
    ts = np.array([0.0, 1.3, 8.0, 21.7])
    grid = bessel_exact_grid(ts, 0.9)
    for t, val in zip(ts, grid):
        assert abs(val - bessel_exact(t, 0.9)) < 1e-12


def test_bessel_requires_decaying_regime():
    from bicchain.model import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        bessel_exact(1.0, 1.1)


def test_bound_term_takes_arrays():
    ts = np.linspace(0.0, 40.0, 17)
    assert np.array_equal(bound_term(ts, 1.1), [bound_term(t, 1.1) for t in ts])
    assert np.array_equal(bound_term(ts.reshape(1, -1), 0.9), np.zeros((1, 17)))


@pytest.mark.parametrize("g", [0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
def test_pole_sum_at_eps_d_0_is_the_bound_term(g):
    # at eps_d = 0 the first-sheet poles are the pair at +/- z_g for g > 1,
    # each of weight (g^2 - 1)/(2 g^2), and there are none for g <= 1
    ts = np.linspace(0.0, 50.0, 201)
    poles = a_w_poles(ts, ModelParams(g=g), 0.0)
    assert np.max(np.abs(poles - bound_term(ts, g))) <= 1e-15
    if g <= 1.0:
        assert not np.any(poles)


@pytest.mark.parametrize("g", [1e-170, 1e-160, 1e100])
def test_pole_sum_refuses_couplings_beyond_the_root_stage(g):
    # g^2 underflows, 1/g^2 overflows, or the roots +/- 1/g are lost to rounding
    with pytest.raises(RootFindError, match="roots of P"):
        a_w_poles(1.0, ModelParams(g=g, eps_d=3.0), 0.0)


@pytest.mark.parametrize("w", [0.0, 1.5])
def test_pole_sum_is_continuous_through_a_threshold(w):
    # a bound state that has just left the band edge z = 2 (threshold
    # 2 g^2 = 2 - eps_d) carries a weight of the order of its distance
    ts = np.linspace(0.0, 50.0, 101)
    for d in (1e-3, 1e-6, 1e-9, 1e-12, 0.0, -1e-12):
        poles = a_w_poles(ts, ModelParams(g=0.9, eps_d=0.38 + d), w)
        assert np.max(np.abs(poles)) <= max(d, 0.0)


@pytest.mark.parametrize("g", [0.003, 0.001])
def test_bessel_grid_small_g_matches_quadrature(g):
    # z_g = g + 1/g is 333 or 1000 here: the panels must narrow to follow
    # e^{i z_g tau}, which 0.25-wide panels cannot
    ts = np.linspace(0.0, 10.0, 41)
    ref = a_br_quadrature(ts, g)
    assert np.max(np.abs(bessel_exact_grid(ts, g) - ref)) <= 1e-9


def test_bessel_grid_refuses_beyond_panel_cap():
    with pytest.raises(InvalidParameterError, match="a_br_quadrature") as info:
        bessel_exact_grid(np.array([1.0, 3e3]), 1e-6)
    assert "g = 1e-06" in str(info.value) and "t = 3000" in str(info.value)
    # the same time span at a coupling that needs few panels still runs
    assert np.all(np.isfinite(bessel_exact_grid(np.array([1.0, 3e3]), 0.5)))
    # where z_g = g + 1/g overflows the cap width is 0: refused, with no
    # division by zero on the way
    with pytest.raises(InvalidParameterError, match="quadrature panels"):
        bessel_exact_grid(np.array([0.0, 1.0]), 5e-324)


@pytest.mark.parametrize("g", [1e-6, 1e-3, 0.05, 0.3])
def test_bessel_grid_refusal_boundary(monkeypatch, g):
    # t_max / min(1, 10/z_g) > 2.5e5 is t_max / min(0.25, 2.5/z_g) > 1e6
    # exactly (a factor of 4 scales without rounding): the same (g, t) as
    # with 1e6 panels a quarter as wide
    monkeypatch.setattr(closedform, "_bessel_tail", lambda ts, zg: np.zeros(len(ts)))
    zg, _ = z_gap(g)
    edge = 1e6 * min(0.25, 2.5 / zg)
    for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 2.0 * edge):
        refused = t / min(0.25, 2.5 / zg) > 1e6
        if refused:
            with pytest.raises(InvalidParameterError, match="quadrature panels"):
                bessel_exact_grid(np.array([0.0, t]), g)
        else:
            bessel_exact_grid(np.array([0.0, t]), g)


# ---------------------------------------------------------------------------
# early-time approximation

def test_early_approx_normalization():
    for g in (0.5, 0.9, 1.0):
        assert early_approx(0.0, g) == pytest.approx(1.0, abs=1e-14)


def test_early_approx_tracks_exact_in_window():
    # t << T_Delta = 90 for g = 0.9
    for t in (1.0, 3.0, 5.0):
        assert abs(early_approx(t, 0.9) - bessel_exact(t, 0.9)) < 0.01


def test_early_approx_breakdown_near_t_br():
    # relative peak deviation crosses 10% around T_br = 9 for g = 0.9
    # (measured: 9.4% at the t=6.8 peak, 13.0% at t=8.4, 16.9% at t=10.0)
    ts = np.arange(0.5, 14.0, 0.005)
    exact = np.abs(bessel_exact_grid(ts, 0.9)) ** 2
    approx = np.abs(early_approx(ts, 0.9)) ** 2
    peaks = [i for i in range(1, len(ts) - 1)
             if exact[i] >= exact[i - 1] and exact[i] >= exact[i + 1]]
    devs = {ts[i]: abs(approx[i] - exact[i]) / exact[i] for i in peaks}
    early = [d for t, d in devs.items() if t <= 5.5]
    late = [d for t, d in devs.items() if t >= 8.0]
    assert max(early) < 0.10
    assert max(late) > 0.10


def test_validity_window_invariant():
    # |early_approx - bessel_exact| stays at the 1e-2 scale for t <= 0.05 T_Delta;
    # measured maxima: 6.5e-4 (g=0.98, window [0, 122.5]) and 1.033e-2 (g=0.9,
    # window [0, 4.5], i.e. 3% above the nominal 1e-2 target)
    hi = 0.05 * timescales(0.98).t_delta
    ts = np.linspace(0.1, hi, 240)
    diff = np.abs(early_approx(ts, 0.98) - bessel_exact_grid(ts, 0.98))
    assert np.max(diff) < 1e-2
    hi = 0.05 * timescales(0.9).t_delta
    ts = np.linspace(0.1, hi, 120)
    diff = np.abs(early_approx(ts, 0.9) - bessel_exact_grid(ts, 0.9))
    assert np.max(diff) < 1.1e-2


# ---------------------------------------------------------------------------
# law table

def test_law_table_has_one_entry_per_tag():
    assert all(isinstance(law, Law) for law in LAWS.values())


LAW_NAMES = {
    "EarlyBessel": ("early_approx", 0.9),
    "NearZoneAmp": ("near_zone_amp", 0.9),
    "NearZoneEarlyProb": ("near_zone_prob", 0.9),
    "FarZoneProb": ("far_zone_prob", 0.9),
    "BoundTerm": ("bound_term", 1.3),
    "ResPolePerp": ("res_pole_perp", 0.9),
    "ResPole1d": ("res_pole_1d", 0.9),
    "WFarZone": ("w_far_zone", 0.9),
    "WNearZoneG1": ("w_near_zone_g1", 1.0),
}


@pytest.mark.parametrize("tag", list(LAWS))
def test_law_table_calls_each_law_by_its_module_name(monkeypatch, tag):
    # wrappers installed on the module attribute (as a tracer does) must see the call
    name, g = LAW_NAMES[tag]
    calls = []

    def stub(*args):
        calls.append(args)
        return (0.5, 0.0) if name.startswith("res_pole") else np.full(3, 0.5)

    monkeypatch.setattr(closedform, name, stub)
    values, window = LAWS[tag].curve(ModelParams(g=g, eps_d=0.1), np.array([1.0, 2.0, 3.0]))
    assert len(calls) == 1
    assert np.all(values == 0.5) or np.all(values == 0.25)
    assert window.shape == (3,) and window.dtype == bool


@pytest.mark.parametrize("tag, g, message", [
    ("BoundTerm", 1.0, "requires g > 1"),
    ("WNearZoneG1", 0.9, "g = 1 law"),
])
def test_law_table_preconditions(tag, g, message):
    with pytest.raises(InvalidParameterError, match=message):
        LAWS[tag].curve(ModelParams(g=g), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# near/far-zone laws

def test_near_zone_values():
    val = near_zone_prob(100.0, 1.0)
    # peak envelope 1/(pi t) at t = 100
    t_pk = 100.0 + (math.pi / 4 - math.fmod(200.0, math.pi)) / 2
    assert near_zone_prob(t_pk, 1.0) == pytest.approx(1 / (math.pi * t_pk), rel=1e-12)
    assert 1 / (100 * math.pi) == pytest.approx(3.1831e-3, abs=1e-7)
    assert val <= 1 / (math.pi * 100.0) + 1e-15


def test_near_zone_domain_error():
    with pytest.raises(DomainError):
        near_zone_prob(0.0, 0.9)
    with pytest.raises(DomainError):
        near_zone_amp(np.array([0.5, 0.0]), 0.9)


def test_near_zone_maxima_phase():
    # cos^2 maxima at 2t - pi/4 = 0 mod pi; the 1/t envelope shifts the
    # product maximum by only -1/(4t)
    for m in (3, 10, 25):
        t_nom = (m * math.pi + math.pi / 4) / 2
        ts = np.linspace(t_nom - 0.5, t_nom + 0.5, 2001)
        vals = near_zone_prob(ts, 0.9)
        t_found = ts[np.argmax(vals)]
        assert abs(t_found - t_nom) < 0.5 / t_nom


def test_virtual_rabi_envelope_crossing():
    # the two-term effective phase when the envelopes reach ratio 1/2
    g = 0.98
    t_half = timescales(g).t_delta / (4 * math.pi * g)
    e1 = 1.0 / (g * math.sqrt(math.pi * t_half))
    e2 = (1.0 - g) / g
    assert e2 / e1 == pytest.approx(0.5, rel=1e-12)
    phi = math.atan2(e1 * math.sin(math.pi / 4), e1 * math.cos(math.pi / 4) - e2)
    assert phi == pytest.approx(math.atan(math.sqrt(2) / (math.sqrt(2) - 1)), abs=1e-12)
    assert phi == pytest.approx(0.4093 * math.pi, abs=2e-4)
    assert math.pi / 4 < phi < 3 * math.pi / 4


def test_virtual_rabi_ten_percent_at_t_vr():
    # at t = T_VR the second-term envelope is ~10% of the first's
    for g in (0.9, 0.98):
        scales = timescales(g)
        ratio = ((1 - g) / g) / (1 / (g * math.sqrt(math.pi * scales.t_vr)))
        assert 0.1 / 1.5 < ratio < 0.1 * 1.5


def test_far_zone_coefficient_value():
    coef = far_zone_coefficient(0.7)
    assert coef == pytest.approx(10.445, abs=2e-3)
    assert coef == pytest.approx(10.44, abs=0.01)


def test_far_zone_phase_shift_against_near_zone():
    # cos^2 maxima at 2t - 3pi/4 = 0 mod pi, i.e. shifted pi/2 from the
    # near zone; 1/t^3 envelope shift is only -3/(4t)
    for m in (20, 81):
        t_nom = (m * math.pi + 3 * math.pi / 4) / 2
        ts = np.linspace(t_nom - 0.5, t_nom + 0.5, 2001)
        vals = far_zone_prob(ts, 0.7)
        t_found = ts[np.argmax(vals)]
        assert abs(t_found - t_nom) < 1.0 / t_nom
        # the shift from the near-zone peak family is pi/4 in t (phase pi/2)
        t_near = (m * math.pi + math.pi / 4) / 2
        assert t_nom - t_near == pytest.approx(math.pi / 4, abs=1e-12)


def test_far_zone_diverges_at_transition():
    with pytest.raises(DivergenceError):
        far_zone_prob(50.0, 1.0)


def test_far_zone_matches_quadrature():
    # T_Delta(0.7) = 7.8; compare envelopes deep in the far zone
    g = 0.7
    t_pk = (280 * math.pi + 3 * math.pi / 4) / 2  # ~ 440, = 56 T_Delta
    num = abs(a_w_rays(t_pk, ModelParams(g=g), 0.0)) ** 2
    assert num == pytest.approx(far_zone_prob(t_pk, g), rel=0.05)
    # at t ~ 100 (13 T_Delta) agreement is within the looser 15%
    t_pk = (63 * math.pi + 3 * math.pi / 4) / 2
    num = abs(a_br_quadrature(t_pk, g)) ** 2
    assert num == pytest.approx(far_zone_prob(t_pk, g), rel=0.15)


# ---------------------------------------------------------------------------
# resonance-pole prefactors

def test_res_pole_values():
    params = ModelParams(g=0.9, eps_d=0.2)
    amp_perp, rate_perp = res_pole_perp(params)
    amp_1d, rate_1d = res_pole_1d(params)
    assert amp_perp == pytest.approx(9.11e-6, rel=0.01)
    assert amp_1d == pytest.approx(0.00302, rel=0.01)
    assert rate_perp == rate_1d == pytest.approx(0.0109280, abs=1e-6)
    assert res_pole_perp(ModelParams(g=0.9)) == (0.0, 0.0)
    assert res_pole_1d(ModelParams(g=0.9)) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# sigma1 / Q algebra

def test_sigma1_value_and_identity():
    assert sigma1(3.0) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-14)
    z = 2.5 + 0.3j
    s = sigma1(z)
    assert s + 1 / s == pytest.approx(z, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        assert abs(sigma1(z)) <= 1.0 + 1e-12


def test_sigma1_self_energy_relation():
    # Sigma(z) = g^2 z sigma1(z)^2, numerically confirmed at random points
    from bicchain.spectrum import self_energy
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = complex(rng.uniform(-3.5, 3.5), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        g = rng.uniform(0.3, 1.4)
        lhs = self_energy(z, g, SheetTag.First)
        rhs = g * g * z * sigma1(z) ** 2
        assert abs(lhs - rhs) < 1e-10


def test_compact_form_identity_at_zero_detuning():
    # N_w^2 (sigma_1 + Q G_dd) == a_w_resolvent exactly when eps_d = 0
    params = ModelParams(g=0.9)
    rng = np.random.default_rng(17)
    for w in (0.0, 0.5, 1.0, 2.0):
        for _ in range(5):
            z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.3, 1.5))
            compact = w_norm_sq(0.9, w) * (
                sigma1(z) + q_of_z(z, 0.9, w) * resolvent_dd(z, params))
            assert abs(compact - a_w_resolvent(z, params, w)) < 1e-12


def test_q_simplification_at_w1():
    # Q(z) = (1+g^2) z (z-2) sigma1^2 for w = 1
    g = 0.9
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        q_general = q_of_z(z, g, 1.0)
        q_simple = (1 + g * g) * z * (z - 2) * sigma1(z) ** 2
        assert abs(q_general - q_simple) < 1e-10


def test_w_resolvent_large_z_normalization():
    # leading 1/z coefficient is exactly 1 (unit norm); next order is <H>/z^2
    params = ModelParams(g=0.9)
    for w in (0.0, 1.0, 2.0):
        for z in (4000.0, -3000.0 + 500j):
            val = a_w_resolvent(z, params, w)
            assert abs(val - 1.0 / z) < 10.0 / abs(z) ** 2


@pytest.mark.parametrize("w", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("eps_d", [0.0, 0.2])
def test_w_resolvent_against_truncated_matrix(w, eps_d):
    params = ModelParams(g=0.9, eps_d=eps_d)
    n = 400
    h = hamiltonian(params, n).to_sparse().tocsc()
    eye = sparse.identity(n + 1, format="csc")
    psi = w_state(params.g, w, n).to_array()
    rng = np.random.default_rng(13)
    for _ in range(3):
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.4, 1.5))
        direct = np.vdot(psi, spsolve(z * eye - h, psi))
        assert abs(direct - a_w_resolvent(z, params, w)) < 1e-8


# ---------------------------------------------------------------------------
# w-state time amplitudes

def test_a_w_cut_reduces_to_abr_at_w0():
    # the perp-state cut integral in its own form, (2 (1+g^2) / (pi g^2))
    # INT_0^pi e^{2 i t cos k} sin^2 k / (z_g^2 - 4 cos^2 k) dk
    g = 0.9
    zg, _ = z_gap(g)
    pref = 2.0 * (1.0 + g * g) / (math.pi * g * g)

    def h(k):
        return pref * np.sin(k) ** 2 / (zg * zg - 4.0 * np.cos(k) ** 2)

    ts = np.array([0.0, 3.0, 10.0])
    ref = oracles._cut_integral(h, ts, 1e-12)
    assert np.max(np.abs(a_w_cut(ts, ModelParams(g=g), 0.0) - ref)) < 1e-9


def test_a_w_cut_normalization():
    for w in (0.5, 1.0, 2.0):
        assert a_w_cut(0.0, ModelParams(g=0.9), w) == pytest.approx(1.0, abs=1e-9)


def test_a_w_rays_matches_cut():
    for g, w in ((0.9, 1.0), (0.7, 0.0), (1.0, 1.0), (1.1, 0.0)):
        params = ModelParams(g=g)
        for t in (5.0, 20.0, 60.0):
            assert abs(a_w_rays(t, params, w) - a_w_cut(t, params, w)) < 1e-8


def test_a_w_rays_rejects_detuning():
    from bicchain.model import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        a_w_rays(10.0, ModelParams(g=0.9, eps_d=0.1), 0.0)


def test_w_far_zone_values():
    # suppressed upper-edge weight at g = 0.9: ((2 - g z_g)/(2 + g z_g))^2
    g = 0.9
    gzg = g * (g + 1 / g)
    ratio = ((2 - gzg) / (2 + gzg)) ** 2
    assert ratio == pytest.approx(2.49e-3, rel=0.01)
    assert w_far_zone_coefficient(0.7) == pytest.approx(28.15, abs=0.01)
    with pytest.raises(DivergenceError):
        w_far_zone(100.0, 1.0)


def test_w_near_zone_g1_value():
    assert w_near_zone_g1(100.0) == pytest.approx(16 / (900 * math.pi), rel=1e-12)
    assert w_near_zone_g1(100.0) == pytest.approx(5.659e-3, abs=2e-6)


def test_w_far_zone_matches_contour():
    # ray-contour value vs the closed far-zone law at g = 0.7, t ~ 60
    g = 0.7
    t_pk = 60.05  # near a peak; law is smooth (single dominant edge)
    num = abs(a_w_rays(t_pk, ModelParams(g=g), 1.0)) ** 2
    assert num == pytest.approx(w_far_zone(t_pk, g), rel=0.15)


def test_w_norm_sq():
    assert w_norm_sq(0.9, 1.0) == pytest.approx(1 / 2.81, rel=1e-12)


def test_three_way_agreement_invariant():
    # ODE-free part: quadrature vs Bessel on [0, 50], poles added for g > 1
    ts = np.linspace(0.0, 50.0, 101)
    for g in (0.7, 0.9, 1.0):
        bes = bessel_exact_grid(ts, g)
        quad = a_br_quadrature(ts, g)
        assert np.max(np.abs(bes - quad)) < 1e-7


# ---------------------------------------------------------------------------
# batched quadrature kernels against loop references
#
# The references evaluate one panel, interval or time per Python call, as the
# kernels did before they were batched.  Batching changes only the order of
# floating-point sums, so 1e-14 absolute is the tolerance.

_GL = {n: roots_legendre(n) for n in (15, 30)}


def _gauss_ref(f, a, b, n):
    x, w = _GL[n]
    return 0.5 * (b - a) * complex(np.dot(w, f(0.5 * (b - a) * x + 0.5 * (a + b))))


def _bessel_tail_oracle(ts, zg):
    """INT_0^t e^{i z_g tau} J_1(2 tau)/tau d tau by QUADPACK's QAWO (scipy
    ``quad`` with a cos/sin weight) on pieces at most 0.5 long, with scipy's
    J_1: no panel grid, node set or Bessel code of the package.  At g = 0.5
    it agrees with mpmath (25 digits) to 4e-16 at t = 0.45, 13.3 and 60."""

    def j1_over_tau(tau):
        return j1(2.0 * tau) / tau if tau > 0 else 1.0

    out, total, prev = np.zeros(len(ts), dtype=complex), 0j, 0.0
    for i, t in enumerate(ts):
        edges = np.linspace(prev, t, int(np.ceil((t - prev) / 0.5)) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            total += complex(*(quad(j1_over_tau, a, b, weight=weight, wvar=zg, epsabs=1e-15,
                                    epsrel=1e-13, limit=200)[0] for weight in ("cos", "sin")))
        out[i], prev = total, t
    return out


def _adaptive_gauss_ref(f, a, b, tol, depth=0):
    fine = _gauss_ref(f, a, b, 30)
    err = abs(fine - _gauss_ref(f, a, b, 15))
    if err < tol or depth >= 28:
        return fine, err
    mid = 0.5 * (a + b)
    left, e1 = _adaptive_gauss_ref(f, a, mid, 0.5 * tol, depth + 1)
    right, e2 = _adaptive_gauss_ref(f, mid, b, 0.5 * tol, depth + 1)
    return left + right, e1 + e2


def _cut_integral_ref(h, t, abs_tol):
    pts = [0.0, 0.5 * math.pi, math.pi]
    j_max = int(math.floor(2.0 * t / math.pi))
    for j in range(-j_max, j_max + 1) if t > 0 else ():
        c = 0.5 * j * math.pi / t
        if -1.0 < c < 1.0:
            pts.append(math.acos(c))
    edges = np.unique(np.asarray(pts))
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = _adaptive_gauss_ref(lambda k: h(k) * np.exp(2j * t * np.cos(k)),
                                     a, b, abs_tol / (len(edges) - 1))
        total += val
    return total


@pytest.mark.parametrize("g", [0.3, 0.5, 0.98, 1.0])
def test_bessel_tail_matches_quadrature_oracle(g):
    # times off the unit panel grid (1/3, 0.41, 12.49999, 13.0000001) and on
    # it (1, 12, 13), on both sides of the Hankel seam 2 tau = 25; > 1 block
    # of panels.  Rounding each time to 12 digits put up to 4.2e-13 here.
    ts = np.sort(np.concatenate(([0.0, 0.1, 1 / 3, 0.41, 1.0, 12.0, 12.49999, 13.0, 13.0000001],
                                 np.geomspace(0.3, 120.0, 60))))
    zg, _ = z_gap(g)
    tail = closedform._bessel_tail(ts, zg)
    assert np.max(np.abs(tail - _bessel_tail_oracle(ts, zg))) <= 1e-14
    # three times in 25-digit arithmetic: t = 0.45033, where the rounding did
    # most harm, and t = 40.1 and 97.3 in panels beyond the seam, whose node
    # values come from Hankel's expansion; Gauss-Legendre on pieces at most 2
    # wide (1.8 periods of e^{i(z_g + 2) tau}), summed in 25 digits
    mpmath.mp.dps = 25
    ts = [0.45033, 40.1, 97.3]
    edges = np.union1d(np.arange(0.0, ts[-1], 2.0), ts)
    pieces = [mpmath.quad(lambda x: mpmath.expj(zg * x) * mpmath.besselj(1, 2 * x) / x,
                          [a, b], method="gauss-legendre") for a, b in zip(edges[:-1], edges[1:])]
    exact = [complex(mpmath.fsum(pieces[:i])) for i in np.searchsorted(edges, ts)]
    tail = closedform._bessel_tail(np.array([0.1, *ts]), zg)[1:]
    assert np.max(np.abs(tail - exact)) <= 1e-15


def _tail_grid(g, t_max, n, seed):
    """Ascending grid to t_max: n random times, five panel edges, the Hankel
    seam 2 tau = 25 at and just off it, a repeated time, t = 0 and t_max."""
    width = closedform._panel_width(z_gap(g)[0])
    rng = np.random.default_rng(seed)
    ts = np.concatenate((rng.uniform(0.0, t_max, n),
                         width * rng.integers(0, int(t_max / width) + 1, 5),
                         [0.0, 12.49999, 12.5, 13.0000001, 13.0000001, t_max]))
    return np.sort(ts[ts <= t_max])


@given(g=st.floats(0.05, 1.0), t_max=st.floats(0.5, 3000.0), n=st.integers(1, 1500),
       seed=st.integers(0, 2 ** 32 - 1))
@example(g=0.05, t_max=3000.0, n=1500, seed=0)
@example(g=1.0, t_max=12.5, n=1500, seed=1)
@example(g=0.1, t_max=20.0, n=1400, seed=2)
def test_property_bessel_tail_matches_gl30_oracle(g, t_max, n, seed):
    # the partial panels from their panels' node values against a GL30 panel
    # per time; the examples put more than PARTIAL_TIMES times in one call
    zg, _ = z_gap(g)
    ts = _tail_grid(g, t_max, n, seed)
    tail = closedform._bessel_tail(ts, zg)
    assert np.max(np.abs(tail - bessel_tail_gl30(ts, zg))) <= 2e-15


def test_partial_rule_ends_in_the_panel_weights_and_integrates_monomials():
    # (time, node) weights: a time's basis row times the panel rule
    x, w = closedform._PANEL_NODES, closedform._PANEL_WEIGHTS
    basis = closedform._partial_basis(np.array([-1.0, 1.0])).T
    assert np.all(basis[0] == 0.0)
    ends = basis @ closedform._PANEL_RULE
    assert np.all(ends[0] == 0.0)
    assert np.all(np.abs(ends[1] - w) <= np.spacing(w))
    # the interpolant of x^m, m < 30, is x^m itself
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, 400)
    beta = closedform._partial_basis(xs).T @ closedform._PANEL_RULE
    for m in range(30):
        exact = (xs ** (m + 1) - (-1.0) ** (m + 1)) / (m + 1)
        assert np.max(np.abs(beta @ x ** m - exact)) <= 1e-15


def test_panel_rule_is_fejers_first_rule_on_chebyshev_points():
    # nodes -cos(theta_j), theta_j = pi (j + 1/2)/30, within a spacing of
    # their 40-digit values; weights (2/30)[1 - 2 SUM_{k<=15} cos(2k theta_j)/(4k^2 - 1)]
    x, w = closedform._PANEL_NODES, closedform._PANEL_WEIGHTS
    mpmath.mp.dps = 40
    for j, xj in enumerate(x):
        exact = -mpmath.cos(mpmath.pi * (j + mpmath.mpf(1) / 2) / 30)
        assert abs(mpmath.mpf(float(xj)) - exact) <= np.spacing(abs(xj))
    theta = math.pi * (np.arange(30) + 0.5) / 30
    k = np.arange(1, 16)[:, None]
    series = np.sum(np.cos(2.0 * k * theta) / (4.0 * k * k - 1.0), axis=0)
    fejer = (2.0 / 30.0) * (1.0 - 2.0 * series)
    assert np.max(np.abs(w - fejer)) <= 1e-16


@pytest.mark.parametrize("n", [15, 30])
def test_gauss_rules_are_exact_to_rounding(n):
    # the nodes are the roots of P_n to rounding: the 40-digit Newton step
    # P_n/P_n' from each node is at most one ulp; the weights lie within
    # 64 ulp of the 40-digit 2/((1 - x^2) P_n'(x)^2) at the same nodes
    x, w = closedform._gauss_legendre(15) if n == 15 else closedform._GL30
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    mpmath.mp.dps = 40
    for xk, wk in zip(x, w):
        xm = mpmath.mpf(float(xk))
        p_n = mpmath.legendre(n, xm)
        dp = n * (xm * p_n - mpmath.legendre(n - 1, xm)) / (xm * xm - 1)
        assert abs(p_n / dp) <= np.spacing(abs(xk))
        assert abs(wk - float(2 / ((1 - xm * xm) * dp * dp))) <= 64 * np.spacing(wk)


@pytest.mark.parametrize("n", [15, 30])
def test_gauss_rules_integrate_monomials(n):
    # x^m, m < 2n, over [-1, 1]; the products are summed exactly rounded, so
    # what is left is the rule's own error
    x, w = closedform._gauss_legendre(15) if n == 15 else closedform._GL30
    for m in range(2 * n):
        full = (1.0 - (-1.0) ** (m + 1)) / (m + 1)
        assert abs(math.fsum(w * x ** m) - full) <= 1e-15


@pytest.mark.parametrize("g, t_max", [(0.98, 3000.0), (0.005, 200.0)])
def test_bessel_tail_evaluates_blocks_of_nodes(monkeypatch, g, t_max):
    # a 10^5-time grid: no node evaluation, Miller table or Hankel series,
    # holds more than BLOCK_NODES nodes, and no block of partial panels
    # gathers more than 4 BLOCK_NODES panel coefficients; at g = 0.005 the
    # 211 panels below the seam take two blocks
    sizes = {"bessel_table": [], "hankel_pq": [], "_partial_basis": []}

    def spy(name, arg):
        real = getattr(closedform, name)

        def wrapped(*args):
            sizes[name].append(np.size(args[arg]))
            return real(*args)
        monkeypatch.setattr(closedform, name, wrapped)

    spy("bessel_table", 0)
    spy("hankel_pq", 1)
    spy("_partial_basis", 0)
    ts = np.linspace(0.0, t_max, 100_000)
    assert np.all(np.isfinite(bessel_exact_grid(ts, g)))
    assert all(sizes.values())
    assert max(sizes["bessel_table"] + sizes["hankel_pq"]) <= closedform.BLOCK_NODES
    assert 30 * max(sizes["_partial_basis"]) <= 4 * closedform.BLOCK_NODES
    assert sum(sizes["_partial_basis"]) == len(ts)


def test_ray_rule_tiles_and_integrates_the_edge_moments():
    # the panels cover [0, RAY_X_MAX] end to end, and the nodes ascend inside it
    panels = closedform._RAY_PANELS
    assert panels[0][0] == 0.0 and panels[-1][1] == closedform.RAY_X_MAX
    assert all(b == a_next for (_, b), (a_next, _) in zip(panels[:-1], panels[1:]))
    x, w = closedform._RAY_X, closedform._RAY_W
    assert len(x) == 30 * len(panels)
    assert np.all(np.diff(x) > 0) and x[0] > 0 and x[-1] < closedform.RAY_X_MAX
    assert np.all(w > 0)
    # INT_0^X 2 x^(2m+1) e^{-x^2 t} dx is the lower incomplete gamma(m + 1, X^2 t)
    # over t^(m + 1): the Laplace kernel at every scale 1/sqrt(t) the rule serves
    xmax2 = closedform.RAY_X_MAX ** 2
    for t in (0.5, 1.0, 7.3, 100.0, 3000.0, 1e6, 1e10, closedform.RAY_T_MAX):
        kernel = w * 2.0 * x * np.exp(-x * x * t)
        for m in range(11):
            moment = np.sum(kernel * x ** (2 * m))
            exact = float(mpmath.gammainc(m + 1, 0, xmax2 * t) / mpmath.mpf(t) ** (m + 1))
            assert moment == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("g", [0.5, 0.98, 1.0])
def test_rays_match_per_time_loop(g):
    ts = np.geomspace(1.0, 2000.0, 70)  # one block of times; the long-grid test takes many
    for w in (0.0, 1.0):
        ref, _ = a_w_rays_plain_exp(ts, g, w)
        assert np.max(np.abs(a_w_rays(ts, ModelParams(g=g), w) - ref)) <= 1e-14


def test_rays_match_per_time_loop_on_a_long_log_grid():
    # 2400 log-spaced times: many blocks of times in one call, each of them
    # with the exp window of its own smallest and largest time
    ts = np.geomspace(0.5, 3000.0, 2400)
    for g, w in ((0.98, 0.0), (0.5, 1.0)):
        ref, _ = a_w_rays_plain_exp(ts, g, w)
        assert np.max(np.abs(a_w_rays(ts, ModelParams(g=g), w) - ref)) <= 1e-14


@pytest.mark.parametrize("g", [0.5, 0.98, 1.0])
def test_rays_window_matches_full_rule_on_unsorted_times(g):
    # blocks of unsorted times out to RAY_T_MAX: each block's window of live
    # nodes spans its smallest and largest time
    ts = np.array([1.0, 1e20, 3.0, 1e6, 1.5, 2000.0, 1e12, 1.0, 40.0, 1e3, 7.0, 2.5e15])
    for w in (0.0, 1.0):
        ref, _ = a_w_rays_plain_exp(ts, g, w)
        assert np.max(np.abs(a_w_rays(ts, ModelParams(g=g), w) - ref)) <= 1e-14


@given(g=st.floats(0.05, 3.0), w=st.floats(-2.0, 2.0),
       log_t=st.floats(math.log(0.5), math.log(closedform.RAY_T_MAX)))
@example(g=0.05, w=-2.0, log_t=math.log(0.5))
@example(g=3.0, w=2.0, log_t=math.log(0.5))
@example(g=1.0, w=0.0, log_t=math.log(closedform.RAY_T_MAX))
def test_property_rays_match_plain_exp_oracle(g, w, log_t):
    # The exp window, the prefix moments below it (a truncated Taylor series
    # of e^{-x^2 t}) and the blocking against a plain exp at every node, on
    # the same rule and jump, with exactly rounded sums: within 4 ulp of the
    # scale N_w^2/(2 pi) SUM e^{-x^2 t} (|D_-| + |D_+|) of the terms summed.
    # Where the scale is O(1) that is 1e-15; at small g and t near 0.5 the
    # terms reach 30 times the amplitude (scale 29 at g = 0.05, w = -2,
    # t = 0.5), and the rounding of the ray sums alone moves it by 1e-15.
    t = float(np.clip(math.exp(log_t), closedform.RAY_T_MIN, closedform.RAY_T_MAX))
    ref, scale = a_w_rays_plain_exp([t], g, w, package_jump=True)
    assert abs(a_w_rays(t, ModelParams(g=g), w) - ref[0]) <= 4.0 * np.finfo(float).eps * scale[0]


@given(g=st.floats(0.05, 3.0), w=st.floats(-2.0, 2.0), t=st.floats(0.5, 3000.0))
@example(g=0.05, w=-2.0, t=0.5)
@example(g=3.0, w=2.0, t=3000.0)
@example(g=1.0, w=1.0, t=0.5)
def test_property_rays_match_v_rule_oracle(g, w, t):
    # the rule in x = sqrt(u), fixed, against the rule in v = sqrt(u t), which
    # moves with t
    assert abs(a_w_rays(t, ModelParams(g=g), w) - a_w_rays_v_rule(t, g, w)) <= 2e-13


@pytest.mark.parametrize("g", [0.05, 0.5, 0.98, 1.0 - 1e-12, 1.0, 1.5, 3.0])
def test_rays_match_v_rule_oracle_to_the_largest_time(g):
    # Near a band edge the oracle's jump is the difference of two nearly
    # equal sides, so it loses digits as the weight e^{-x^2 t} moves to
    # x ~ 1/sqrt(t): relative to the amplitude the two routes agree to about
    # 1.6e-14 sqrt(t).  The package's jump is in closed form (``_ray_jump``)
    # and loses none (``test_rays_match_mpmath_to_the_largest_time``).
    ts = np.geomspace(3e3, closedform.RAY_T_MAX, 40)
    for w in (-2.0, 0.0, 1.0, 2.0):
        ref = np.array([a_w_rays_v_rule(t, g, w) for t in ts])
        rel = np.abs(a_w_rays(ts, ModelParams(g=g), w) - ref) / np.abs(ref)
        assert np.max(rel / np.sqrt(ts)) <= 1e-13


@pytest.mark.parametrize("edge", [-2.0, 2.0])
@pytest.mark.parametrize("g", [0.5, 1.0])
@pytest.mark.parametrize("w", [0.0, 2.0])
def test_ray_jump_matches_mpmath_next_to_the_band_edge(edge, g, w):
    # the two sides of the cut differ by O(x) at z = edge - i x^2, so their
    # difference in double lost about 1e-16/x^2 relative (8.1e-9 at x = 1e-8)
    for x in (1e-2, 1e-5, 1e-8):
        ref = oracles.ray_jump_mp(edge, x, g, w)
        assert abs(closedform._ray_jump(edge, x * x, g, w) - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("g", [0.5, 1.0])
@pytest.mark.parametrize("w", [0.0, 2.0])
def test_rays_match_mpmath_to_the_largest_time(g, w):
    # At large t the rays weigh the jump at x ~ 1/sqrt(t), next to the band
    # edge; with the jump in closed form the amplitude keeps its relative
    # accuracy out to RAY_T_MAX (the difference of the two sides missed by
    # 2.3e-6 at t = 1e20)
    ts = np.array([1e4, 1e8, 1e12, 1e16, 1e20])
    rays = a_w_rays(ts, ModelParams(g=g), w)
    for t, amp in zip(ts, rays):
        ref = oracles.a_w_rays_mp(t, g, w)
        assert abs(amp - ref) <= 1e-14 * abs(ref)


def test_rays_refuse_times_outside_the_rule():
    params = ModelParams(g=0.9)
    assert np.all(np.isfinite(a_w_rays(np.array([0.5, closedform.RAY_T_MAX]), params, 1.0)))
    for bad in (0.3, np.array([1.0, 0.49, 0.2])):
        with pytest.raises(DomainError, match=r"got t = 0\.(3|49) < 0\.5"):
            a_w_rays(bad, params, 1.0)
    above = float(np.nextafter(closedform.RAY_T_MAX, math.inf))
    for bad in (above, np.array([1.0, above, 1e30])):
        with pytest.raises(DomainError, match=re.escape(f"t <= 1e+20; got t = {above!r}")):
            a_w_rays(bad, params, 1.0)


@pytest.mark.parametrize("g, eps_d, w", [(0.5, 0.0, 0.0), (0.9, 0.2, 1.0), (0.98, -0.3, 2.0),
                                         (1.0, 0.0, 1.0), (1.1, 0.5, -1.0)])
def test_cut_integral_matches_recursive_adaptive_gauss(g, eps_d, w):
    nw2 = w_norm_sq(g, w)

    def h(k):
        above = oracles._boundary_value(-2.0 * np.cos(k), -np.exp(1j * k), g, eps_d, w)
        return (nw2 / (2j * math.pi)) * 2.0 * np.sin(k) * (np.conj(above) - above)

    for t in (0.0, 2.5, 40.0):
        for tol in (1e-9, 1e-12):
            batched = oracles._cut_integral(h, np.array([t]), tol)[0]
            assert abs(batched - _cut_integral_ref(h, t, tol)) <= 1e-14


def test_cut_integral_raises_on_non_finite_integrand():
    with pytest.raises(QuadratureError, match="non-finite"):
        oracles._cut_integral(lambda k: np.where(k > 1.0, np.nan, 1.0), np.array([3.0]), 1e-9)


def test_cut_integral_bounds_open_intervals(monkeypatch):
    # a zero tolerance is never met: the open set must stop doubling
    monkeypatch.setattr(oracles, "MAX_OPEN", 64)
    with pytest.raises(QuadratureError, match="intervals open"):
        oracles._cut_integral(lambda k: np.cos(k) ** 2, np.array([1.0]), 0.0)


@pytest.mark.parametrize("g, eps_d, t_max, n, most", [(0.9, 0.0, 50.0, 101, 16),
                                                      (0.7, 0.0, 80.0, 81, 26)])
def test_cut_integral_work_at_compare_shapes(monkeypatch, g, eps_d, t_max, n, most):
    # two-oscillation pieces and the global stop; half-period pieces, each
    # accepted on its own share of abs_tol, evaluate 64 and 102 intervals here
    evaluated = []
    rule_sums = oracles._rule_sums

    def spy(weighted, *args):
        evaluated.append(len(weighted))
        return rule_sums(weighted, *args)

    monkeypatch.setattr(oracles, "_rule_sums", spy)
    a_w_cut_adaptive(np.linspace(0.0, t_max, n), ModelParams(g=g, eps_d=eps_d), 0.0, 1e-9)
    assert sum(evaluated) <= most


def test_cut_evaluates_one_boundary_value_per_node(monkeypatch):
    # the value below the band is the conjugate of the one above, so each
    # evaluated interval evaluates one boundary value at each of its 45 GL30
    # and GL15 nodes
    evaluated, nodes = [], []
    rule_sums, boundary_value = oracles._rule_sums, oracles._boundary_value

    def spy_sums(weighted, *args):
        evaluated.append(len(weighted))
        return rule_sums(weighted, *args)

    def spy_value(z, sig, *args):
        nodes.append(np.size(sig))
        return boundary_value(z, sig, *args)

    monkeypatch.setattr(oracles, "_rule_sums", spy_sums)
    monkeypatch.setattr(oracles, "_boundary_value", spy_value)
    a_w_cut_adaptive(np.linspace(0.0, 40.0, 51), ModelParams(g=0.9, eps_d=0.2), 0.0, 1e-9)
    assert sum(evaluated) > 0
    assert sum(nodes) == 45 * sum(evaluated)


@given(g=st.floats(0.05, 3.0), eps_d=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       w=st.floats(-3.0, 3.0),
       k=st.lists(st.floats(1e-300, math.pi, exclude_max=True), min_size=1, max_size=20))
@example(g=0.9, eps_d=0.0, w=1.0, k=[1e-300, 0.5 * math.pi - 1e-3, math.pi - 1e-16])
@example(g=1.3, eps_d=0.4, w=-3.0, k=[0.5 * math.pi, 1.0, 3.0])
@example(g=0.5, eps_d=0.0, w=-0.625, k=[1.011585280309123e-09, 9.06731574987707e-05])
def test_property_boundary_value_below_the_band_is_the_conjugate_above(g, eps_d, w, k):
    # z = -2 cos k is real and so are g, eps_d and w: the cut's one-sided
    # evaluation rests on this holding bit for bit.  Only the sign of an
    # exact zero may differ: an imaginary part that cancels to x - x is +0
    # on either side (g = 0.5, w = -0.625 near the band edge), and the cut
    # adds such a zero into nonzero sums.  At eps_d = 0 the BIC point
    # k = pi/2 is removable and never sampled by the cut; nor are the
    # subnormal k below 1e-300, where 1/(z - eps_d - Sigma) overflows at g = 1.
    k = np.array(k)
    if eps_d == 0.0:
        k = k[np.abs(k - 0.5 * math.pi) > 1e-3]
    z = -2.0 * np.cos(k)
    above = oracles._boundary_value(z, -np.exp(1j * k), g, eps_d, w)
    below = oracles._boundary_value(z, -np.exp(-1j * k), g, eps_d, w)
    # finite doubles that compare equal are the same bits, zeros aside
    assert np.all(np.isfinite(above)) and np.array_equal(below, np.conj(above))


@pytest.mark.parametrize("ts", [np.geomspace(0.5, 3000.0, 80)[::8], np.array([1387.87])],
                         ids=["geomspace", "single"])
def test_tight_cut_meets_its_tolerance_at_long_times(ts):
    # abs_tol split evenly over the pieces left each a share below the
    # round-off of its own GL30 - GL15 at t_max = 1387.87: the grid raised
    # QuadratureError with a summed estimate of 2.8e-14, the single time took
    # 35 s.  The moment route meets the rays there too.
    params = ModelParams(g=0.7)
    rays = a_w_rays(ts, params, -2.0)
    assert np.max(np.abs(a_w_cut_adaptive(ts, params, -2.0, 1e-13) - rays)) <= 2e-13
    assert np.max(np.abs(a_w_cut(ts, params, -2.0) - rays)) <= 2e-13


# ---------------------------------------------------------------------------
# input validation at the boundary

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_routes_reject_non_finite_times(bad):
    params = ModelParams(g=0.9)
    calls = [lambda: a_br_quadrature(bad, 0.9),
             lambda: a_w_cut(bad, params, 1.0),
             lambda: a_w_rays(bad, params, 1.0),
             lambda: a_w_rays(np.array([1.0, bad]), params, 1.0),
             lambda: bessel_exact_grid(np.array([1.0, bad]), 0.9)]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="time t"):
            call()


@pytest.mark.parametrize("law", [
    lambda t: early_approx(t, 0.9), lambda t: near_zone_amp(t, 0.9),
    lambda t: near_zone_prob(t, 0.9), lambda t: far_zone_prob(t, 0.9),
    lambda t: w_far_zone(t, 0.9), w_near_zone_g1, lambda t: bound_term(t, 1.1),
], ids=["early_approx", "near_zone_amp", "near_zone_prob", "far_zone_prob", "w_far_zone",
        "w_near_zone_g1", "bound_term"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_laws_reject_non_finite_times(law, bad):
    # as the quadrature routes do, instead of returning nan (or 0 at inf)
    for t in (bad, np.array([1.0, bad])):
        with pytest.raises(InvalidParameterError, match="time t"):
            law(t)


def test_rays_take_a_time_or_a_1d_array_of_times():
    params = ModelParams(g=0.9)
    ts = np.array([1.0, 2.0, 3.0])
    assert isinstance(a_w_rays(2.0, params, 1.0), complex)
    assert a_w_rays(np.array([2.0]), params, 1.0).shape == (1,)
    assert a_w_rays(np.array([]), params, 1.0).shape == (0,)
    for bad in (ts.reshape(1, 3), np.ones((2, 1, 3))):
        with pytest.raises(InvalidParameterError, match="1-D array of times"):
            a_w_rays(bad, params, 1.0)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 1e200])
def test_w_routes_reject_unrepresentable_w(w):
    # refused at the boundary (exit 2), as w_state does, not returned as NaN
    # or failed inside the quadrature (exit 3)
    params = ModelParams(g=0.9)
    for call in (lambda: a_w_rays(2.0, params, w), lambda: a_w_cut(2.0, params, w),
                 lambda: w_norm_sq(0.9, w), lambda: w_state(0.9, w, 3)):
        with pytest.raises(InvalidParameterError, match=r"\bw\b"):
            call()


@pytest.mark.parametrize("bad", [-5.0, -1e-300, np.array([-1.0, 0.0, 2.0]),
                                 np.array([0.0, 1.0, -3.0])])
def test_cut_routes_reject_negative_times(bad):
    # A(-t) = conj A(t) would come back silently, as if the time were valid
    for call in (lambda: a_br_quadrature(bad, 0.9), lambda: a_w_cut(bad, ModelParams(g=0.9), 0.0)):
        with pytest.raises(InvalidParameterError, match="non-negative"):
            call()


@pytest.mark.parametrize("bad", [np.array([2.0, 1.0]), np.array([[1.0, 2.0]]), np.array([])])
def test_cut_routes_reject_malformed_grids(bad):
    with pytest.raises(InvalidParameterError, match="ascending grid"):
        a_w_cut(bad, ModelParams(g=0.9), 0.0)


@pytest.mark.parametrize("g", [1e-160, 1e-300, 1e155])
def test_abr_rejects_unrepresentable_coupling(g):
    # z_g^2 = (g + 1/g)^2 overflows: the integrand or its tolerance vanishes
    with pytest.raises(InvalidParameterError, match="z_g"):
        a_br_quadrature(0.0, g)


# ---------------------------------------------------------------------------
# property tests

@given(t=st.floats(1.0, 60.0), g=st.floats(0.3, 1.0), w=st.floats(-2.0, 2.0))
def test_property_cut_matches_rays(t, g, w):
    params = ModelParams(g=g)
    assert abs(a_w_cut(t, params, w) - a_w_rays(t, params, w)) <= 1e-8


@given(g=st.floats(0.05, 3.0), w=st.floats(-2.0, 2.0), t=st.floats(0.5, 3000.0))
@example(g=0.05, w=-2.0, t=0.5)
@example(g=0.05, w=-2.0, t=60.0)
@example(g=0.05, w=-2.0, t=3000.0)
def test_property_tight_cut_matches_rays(g, w, t):
    params = ModelParams(g=g)
    assert abs(a_w_cut(t, params, w) - a_w_rays(t, params, w)) <= 2e-13


def test_rays_near_band_edge_virtual_state():
    # the virtual bound state sits Delta_g = (1 - g)^2/g = 1e-8 below the band
    # edge, so the jump in x varies on the scale sqrt(Delta_g) = 1e-4
    ts = np.array([1.0, 10.0, 60.0])
    err = np.abs(a_w_rays(ts, ModelParams(g=0.9999), 0.0) - bessel_exact_grid(ts, 0.9999))
    assert np.max(err) <= 1e-13


@given(g=st.floats(0.05, 1.0), t_max=st.floats(0.5, 3000.0), n=st.integers(1, 20),
       seed=st.integers(0, 2 ** 32 - 1))
@example(g=1.0 - 1e-3, t_max=1.0, n=1, seed=0)
@example(g=1.0 - 1e-6, t_max=3000.0, n=20, seed=1)
@example(g=1.0 - 1e-9, t_max=50.0, n=5, seed=2)
@example(g=1.0 - 1e-12, t_max=700.0, n=8, seed=3)
@example(g=1.0 - 1e-15, t_max=3000.0, n=3, seed=4)
def test_property_rays_match_bessel(g, t_max, n, seed):
    ts = np.sort(np.append(np.random.default_rng(seed).uniform(0.5, t_max, n), t_max))
    err = np.abs(a_w_rays(ts, ModelParams(g=g), 0.0) - bessel_exact_grid(ts, g))
    assert np.max(err) <= 1e-12


@given(g=st.floats(1e-150, 3.0))
def test_property_abr_sum_rule(g):
    assert abs(a_br_quadrature(0.0, g) + bound_term(0.0, g) - 1.0) <= 1e-12


@given(g=st.floats(0.2, 1.0), t_max=st.floats(0.5, 200.0), n=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_bessel_matches_cut(g, t_max, n, seed):
    # random times fall off the panel grid; floor(t_max) is on it
    ts = np.sort(np.append(np.random.default_rng(seed).uniform(0.0, t_max, n),
                           math.floor(t_max)))
    cut = a_br_quadrature(ts, g)
    assert np.max(np.abs(bessel_exact_grid(ts, g) - cut)) <= 1e-12


@given(g=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))
def test_property_bessel_sum_rule(g):
    assert abs(bessel_exact_grid(np.array([0.0]), g)[0] - 1.0) <= 1e-12


@given(g=st.floats(0.01, 3.0),
       eps_d=st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
       w=st.floats(-2.0, 2.0))
def test_property_w_cut_sum_rule(g, eps_d, w):
    # without a Bound state (2 g^2 <= 2 - |eps_d|) the cut carries the whole norm
    params = ModelParams(g=g, eps_d=eps_d)
    if 2.0 * g * g <= 2.0 - abs(eps_d):
        assert not any(s.kind is StateKind.Bound for s in discrete_spectrum(params))
        assert abs(a_w_cut(0.0, params, w) - 1.0) <= 1e-12


@given(g=st.floats(0.05, 3.0),
       eps_d=st.one_of(st.just(0.0), st.floats(0.01, 1.5), st.floats(-1.5, -0.01)),
       w=st.floats(-2.0, 2.0), t_max=st.floats(0.1, 600.0), n=st.integers(2, 40),
       even=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# two grids that were hard for the former adaptive rule: a level with more
# intervals open than one block held, and bisection 21 levels deep near the
# quasi-BIC edge of the sampled window
@example(g=0.0625, eps_d=0.015625, w=0.0, t_max=600.0, n=3, even=False, seed=0)
@example(g=0.0625, eps_d=0.015625, w=0.0, t_max=1.0, n=3, even=False, seed=0)
def test_property_w_cut_grid_matches_per_time(g, eps_d, w, t_max, n, even, seed):
    # A grid call contracts the moments with one Bessel table per block of
    # times, up to the block's largest seed order; a per-time call stops at
    # the time's own seed.  The orders above a seed are zero, so the two
    # differ only in the rounding of the table's normalization and sums.
    if even:
        ts = np.linspace(0.0, t_max, n)
    else:
        ts = np.sort(np.random.default_rng(seed).uniform(0.0, t_max, n))
    params = ModelParams(g=g, eps_d=eps_d)
    per_time = np.array([a_w_cut(t, params, w) for t in ts])
    assert np.max(np.abs(a_w_cut(ts, params, w) - per_time)) <= 1e-13


def test_w_cut_sum_rule_near_quasi_bic():
    # the resonance of width ~ g^2 eps_d^2 fell between the nodes of the
    # adaptive rule, which lost its weight ~ g^2 eps_d^2 / (1+g^2)^4: 3.1e-10
    # here; the moment route carries it as a geometric sequence
    params = ModelParams(g=0.37, eps_d=-6.1e-5)
    assert abs(a_w_cut(0.0, params, 0.0) - 1.0) <= 1e-12


def test_w_cut_sum_rule_next_to_a_threshold():
    # 3.2e-7 below the threshold 2 g^2 = 2 - eps_d there is no bound state,
    # so the cut carries the whole norm; the adaptive rule's error estimate
    # was fooled here and missed by 8.0e-7 at abs_tol = 1e-9
    params = ModelParams(g=0.3, eps_d=1.819999683772234)
    assert abs(a_w_cut(0.0, params, 0.0) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# the cut's moment route against the adaptive oracle, and its four cases

@given(g=st.floats(0.05, 3.0),
       eps_d=st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01)),
       w=st.floats(-2.0, 2.0), t_max=st.floats(0.5, 60.0), n=st.integers(1, 20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_cut_matches_adaptive_oracle(g, eps_d, w, t_max, n, seed):
    # Two independent routes to one integral: closed-form moments contracted
    # with the Bessel table, and adaptive Gauss on the jump.  The quasi-BIC
    # window 0 < |eps_d| < 0.01 and the bands within 0.01 of a threshold
    # 2 g^2 = 2 -/+ eps_d are left out, where the oracle itself misses.  Over
    # 2500 random points of this domain the two met to 2.1e-15.
    assume(min(abs(2.0 * g * g - 2.0 + eps_d), abs(2.0 * g * g - 2.0 - eps_d)) > 0.01)
    ts = np.sort(np.append(np.random.default_rng(seed).uniform(0.0, t_max, n), t_max))
    params = ModelParams(g=g, eps_d=eps_d)
    assert np.max(np.abs(a_w_cut(ts, params, w) - a_w_cut_adaptive(ts, params, w, 1e-13))) <= 1e-14


@pytest.mark.parametrize("w", [2.0, -2.0])
def test_cut_low_moments_from_the_taylor_series_at_zero(w):
    # At g = 0.05 the free poles q = -/+ g crowd s = 0, and the pole form's
    # low moments add terms near w^2/(2 g^4) ~ 3e5 that cancel to order 1.
    # F's Taylor coefficients at 0 come by series division, exactly (against
    # 40-digit arithmetic), and the low moments taken from them meet the
    # oracle; the moments from a small contour about s = 0 missed by 3-5e-11.
    g = 0.05
    params = ModelParams(g=g)
    f = closedform._taylor_at_zero(params, w, 10)
    with mpmath.workdps(40):
        def big_f(sig):
            one = 1 - w * sig
            p = g ** 2 * sig ** 4 + (g ** 2 - 1) * sig ** 2 - 1
            return sig * one ** 2 + w ** 2 * sig - sig * g ** 2 * (1 + sig ** 2) ** 2 * one ** 2 / p
        exact = mpmath.taylor(big_f, 0, 9)
    assert np.max(np.abs(f - np.array(exact, dtype=float)) / (1.0 + np.abs(f))) <= 1e-15
    ts = np.linspace(0.0, 60.0, 121)
    assert np.max(np.abs(a_w_cut(ts, params, w) - a_w_cut_adaptive(ts, params, w, 1e-13))) <= 1e-14


# near a double root of P: where the far-detuned pair meets the real axis,
# sigma near 37.6 and 0.057 apart; and 1e-6 in eps_d from the double root
# sigma = 1.5, g^2 = 5/69.75, eps_d = 1.817204..., where two roots lie 0.012 apart
@pytest.mark.parametrize("g, eps_d, bound", [(0.0153376, 25.1129, 1e-14),
                                             (0.26773977630083295, 1.817203301075269, 1e-12)])
def test_cut_near_a_double_root(g, eps_d, bound):
    # P' -> 0 makes the pair's c_j huge and opposite.  P'(sigma_j) is taken as
    # g^2 PROD (sigma_j - sigma_l), so both c_j carry the same double
    # sigma_j - sigma_k and their terms cancel to rounding; from P's own
    # derivative the route missed the oracle by 5.7e-14 and 1.0e-9 here.
    params = ModelParams(g=g, eps_d=eps_d)
    roots = sorted(s.real for s, _ in spectrum.partial_fractions(params, 0.0)[1])
    assert min(np.diff(roots)) < 0.1
    ts = np.linspace(0.0, 60.0, 121)
    oracle = a_w_cut_adaptive(ts, params, 0.0, 1e-13)
    assert np.max(np.abs(a_w_cut(ts, params, 0.0) - oracle)) <= bound


@pytest.mark.parametrize("g, eps_d", [(1.0, 0.0), (0.9, 2.0 - 2.0 * 0.9 ** 2),
                                      (0.9, 0.3800000562341324), (0.9, 0.0)])
def test_cut_roots_on_the_unit_circle_carry_no_weight(g, eps_d):
    # A root of P on |sigma| = 1 (a threshold, or g = 1 at eps_d = 0) has
    # q^2 = 1, so its geometric sequence has weight 0; the BIC pair +/- i of
    # eps_d = 0 is not among the poles.  At (0.9, 0.3800000562341324) the root
    # sits about 1e-16 from the band edge.  The cut plus the poles keeps its
    # t = 0 sum rule and meets the direct route.
    params = ModelParams(g=g, eps_d=eps_d)
    sigmas = [s for s, _ in spectrum.partial_fractions(params, 0.0)[1]]
    if g != 1.0 and eps_d == 0.0:
        assert len(sigmas) == 2
    else:
        assert min(abs(abs(s) - 1.0) for s in sigmas) <= 2e-8
    assert abs(a_w_cut(0.0, params, 0.0) + a_w_poles(0.0, params, 0.0) - 1.0) <= 1e-15
    series = evolve(params, perp_state(g, 2), EvolveOptions(t_max=30.0, n_samples=61))
    route = a_w_cut(series.times, params, 0.0) + a_w_poles(series.times, params, 0.0)
    assert np.max(np.abs(series.overlap - route)) <= 1e-12


@pytest.mark.parametrize("g", [1e-8, 1e-100, 1e-150])
def test_cut_at_small_coupling(g):
    # where the companion matrix of P overflows (g = 1e-100, 1e-150 at eps_d
    # = 0) the roots +/- 1/g are exact, and the Taylor form sums s = 0 with
    # the poles q = -/+ g that crowd it; the cut meets its g -> 0 limit
    # J_1(2t)/t to O(g^2)
    ts = np.linspace(0.0, 30.0, 61)
    limit = np.where(ts > 0, j1(2.0 * ts) / np.maximum(ts, 1e-300), 1.0)
    assert np.max(np.abs(a_br_quadrature(ts, g) - limit)) <= 1e-15
    assert a_br_quadrature(0.0, g) == 1.0
