import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.special import jv

from bicchain.closedform import a_br_quadrature, bessel_exact_grid, bound_term
from bicchain.evolve import (MAX_SITES, EvolveOptions, IntegratorError, ProbabilitySeries,
                             auto_sites, bessel_table, chebyshev_order, evolve, nonescape,
                             survival)
from bicchain.model import (InvalidParameterError, ModelParams, StateVector,
                            bic_state, hamiltonian, perp_state, spectral_bounds,
                            w_state)

# few, fixed examples keep the suite fast and repeatable
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def test_auto_sites_formula():
    # the shortest chain with K < 2N - 2
    assert [auto_sites(k) for k in (0, 1, 2, 3, 4, 5)] == [3, 3, 3, 3, 4, 4]
    assert auto_sites(2120) == 1062
    for k in range(3, 200):
        n = auto_sites(k)
        assert k < 2 * n - 2 and not k < 2 * (n - 1) - 2


def test_auto_sites_from_the_expansion():
    # fig2b: g = 1, t_max = 1000 expands to order 2120 on 1062 sites
    params = ModelParams(g=1.0)
    opts = EvolveOptions(t_max=1000.0, n_samples=2, grid="log")
    assert opts.resolved_sites(params) == 1062
    assert EvolveOptions(t_max=5.0, n_sites=7).resolved_sites(params) == 7


def test_auto_sites_refusal():
    with pytest.raises(InvalidParameterError, match="quadrature"):
        auto_sites(2 * MAX_SITES)
    with pytest.raises(InvalidParameterError, match="quadrature"):
        EvolveOptions(t_max=1e6).resolved_sites(ModelParams(g=1.3))


def test_options_validation():
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=-1.0)
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, n_samples=1)
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, rel_tol=1e-5)  # contract caps at 1e-6
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, rel_tol=1e-8, abs_tol=1e-7)
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, grid="cubic")


def test_log_grid_starts_at_zero():
    opts = EvolveOptions(t_max=100.0, n_samples=11, grid="log")
    ts = opts.times()
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == pytest.approx(100.0)


def test_sites_mismatch_error():
    opts = EvolveOptions(t_max=5.0)
    with pytest.raises(InvalidParameterError, match="resolves to"):
        evolve(ModelParams(g=0.9), perp_state(0.9, 10), opts)


def test_bic_is_stationary():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts = EvolveOptions(t_max=100.0, n_samples=201)
    series = evolve(params, bic_state(0.9, opts.resolved_sites(params)), opts)
    p = survival(series).values
    assert np.max(np.abs(p - 1.0)) < 1e-8


def test_bare_chain_propagator_oracle():
    # oracle: method-of-images propagator of the semi-infinite chain,
    # <1|e^{-iHt}|1> = J_0(2t) + J_2(2t), itself validated against exact
    # diagonalization of a small chain
    t = 5.0
    oracle = jv(0, 2 * t) + jv(2, 2 * t)
    n_small = 60
    h_small = np.zeros((n_small, n_small))
    for i in range(n_small - 1):
        h_small[i, i + 1] = h_small[i + 1, i] = -1.0
    u = expm(-1j * t * h_small)
    assert abs(u[0, 0] - oracle) < 1e-12

    # decouple the impurity (g -> 0 limit) and evolve |1> with the package
    params = ModelParams(g=1e-8)
    opts = EvolveOptions(t_max=t, n_samples=11)
    n = opts.resolved_sites(params)
    chain = np.zeros(n, dtype=complex)
    chain[0] = 1.0
    state = StateVector(amp_d=0j, amp_chain=chain, n_sites=n)
    series = evolve(params, state, opts)
    assert abs(series.overlap[-1] - oracle) < 1e-8


def test_unitarity_and_truncation_safety():
    params = ModelParams(g=0.98, eps_d=0.0)
    opts = EvolveOptions(t_max=200.0, n_samples=401)
    series = evolve(params, perp_state(0.98, opts.resolved_sites(params)), opts)
    assert np.max(np.abs(series.norm - 1.0)) < 1e-9
    assert series.light_cone_margin in (1, 2)
    assert not series.truncation_warning and series.warnings == ()


def test_truncation_warning_on_small_chain():
    params = ModelParams(g=0.9)
    opts = EvolveOptions(t_max=40.0, n_samples=81, n_sites=12)
    series = evolve(params, perp_state(0.9, 12), opts)
    assert series.truncation_warning
    assert series.light_cone_margin == 2 * 12 - 2 - series.cheb_terms <= 0
    assert any("light-cone margin" in w for w in series.warnings)


def test_matches_branch_cut_quadrature():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts = EvolveOptions(t_max=20.0, n_samples=41)
    series = evolve(params, perp_state(0.9, opts.resolved_sites(params)), opts)
    for t, a in zip(series.times, series.overlap):
        assert abs(a - a_br_quadrature(t, 0.9)) < 1e-8
    # equal band-edge weights at eps_d = 0 make the amplitude real
    assert np.max(np.abs(series.overlap.imag)) < 1e-8


def test_matches_pole_plus_cut_for_bound_regime():
    params = ModelParams(g=1.1, eps_d=0.0)
    opts = EvolveOptions(t_max=15.0, n_samples=31)
    series = evolve(params, perp_state(1.1, opts.resolved_sites(params)), opts)
    for t, a in zip(series.times, series.overlap):
        ref = a_br_quadrature(t, 1.1) + bound_term(t, 1.1)
        assert abs(a - ref) < 1e-8


def test_grid_refinement_stability():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts1 = EvolveOptions(t_max=100.0, n_samples=501)
    opts2 = EvolveOptions(t_max=100.0, n_samples=1001,
                          rel_tol=0.5e-11, abs_tol=0.5e-13)
    # the tighter tolerance takes more terms, and so a longer chain
    p1 = survival(evolve(params, perp_state(0.9, opts1.resolved_sites(params)), opts1)).values
    p2 = survival(evolve(params, perp_state(0.9, opts2.resolved_sites(params)), opts2)).values
    assert np.max(np.abs(p2[::2] - p1)) < 1e-8


def test_nonescape_equals_survival_at_zero_detuning():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts = EvolveOptions(t_max=60.0, n_samples=121)
    series = evolve(params, perp_state(0.9, opts.resolved_sites(params)), opts)
    p_perp = survival(series).values
    p_1d = nonescape(series).values
    assert p_1d[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(p_1d - p_perp)) < 1e-10


def test_nonescape_differs_under_detuning():
    params = ModelParams(g=0.9, eps_d=0.2)
    opts = EvolveOptions(t_max=40.0, n_samples=81)
    series = evolve(params, perp_state(0.9, opts.resolved_sites(params)), opts)
    diff = np.max(np.abs(nonescape(series).values - survival(series).values))
    assert diff > 1e-4


def test_zeno_parabola():
    # P ~ 1 - C t^2 with C = (g + g^2 + g^3 - 1)/g^2 within 5%
    for g in (0.9, 1.0):
        params = ModelParams(g=g)
        opts = EvolveOptions(t_max=0.05, n_samples=41)
        series = evolve(params, perp_state(g, opts.resolved_sites(params)), opts)
        p = survival(series).values
        ts = series.times
        c_fit = float(np.sum((1 - p[1:]) * ts[1:] ** 2) / np.sum(ts[1:] ** 4))
        c_ref = (g + g * g + g ** 3 - 1) / (g * g)
        assert abs(c_fit / c_ref - 1) < 0.05


def test_probability_series_shape_check():
    with pytest.raises(InvalidParameterError):
        ProbabilitySeries(times=np.arange(3.0), values=np.arange(4.0))


def test_bessel_table_matches_scipy():
    xs = np.array([0.0, 1e-12, 1e-6, 0.01, 1.0, 100.0, 3000.0])
    k_max = chebyshev_order(3000.0, 1e-13)
    assert k_max > 3000
    table = bessel_table(xs, k_max)
    ref = jv(np.arange(k_max + 1)[None, :], xs[:, None])
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table - ref)) <= 1e-13


def test_complex_state_matches_exact_propagator():
    # a spread-out complex state that reaches the wall, against expm
    n = 16
    params = ModelParams(g=1.3, eps_d=-0.4)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps /= np.linalg.norm(amps)
    state = StateVector(amp_d=amps[0], amp_chain=amps[1:], n_sites=n)
    opts = EvolveOptions(t_max=12.0, n_samples=7, n_sites=n)
    series = evolve(params, state, opts)
    h = hamiltonian(params, n).to_dense()
    psis = [expm(-1j * t * h) @ amps for t in series.times]
    assert np.allclose(series.overlap, [np.vdot(amps, psi) for psi in psis], rtol=0, atol=1e-12)
    assert np.allclose(series.amp_d, [psi[0] for psi in psis], rtol=0, atol=1e-12)
    assert np.allclose(series.amp_1, [psi[1] for psi in psis], rtol=0, atol=1e-12)
    assert np.max(np.abs(series.norm - 1.0)) < 1e-13
    assert series.light_cone_margin == 2 * n - 2 - series.cheb_terms


def test_norm_is_that_of_the_truncated_series():
    # a loose tolerance leaves a visible truncation; norm must be the norm
    # of exactly the state the kept terms represent, built here term by term
    n, g, eps_d = 20, 0.9, 0.3
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=10.0, n_samples=6, n_sites=n, rel_tol=1e-6, abs_tol=1e-6)
    psi0 = perp_state(g, n).to_array()
    series = evolve(params, perp_state(g, n), opts)
    b, a, order = series.spectral_center, series.spectral_half_width, series.cheb_terms
    h_scaled = (hamiltonian(params, n).to_dense() - b * np.eye(n + 1)) / a
    vs = [psi0, h_scaled @ psi0]
    while len(vs) <= order:
        vs.append(2 * h_scaled @ vs[-1] - vs[-2])
    k = np.arange(order + 1)
    for i, t in enumerate(series.times):
        coeffs = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, a * t)
        psi = np.exp(-1j * b * t) * (coeffs @ np.array(vs[:order + 1]))
        assert abs(series.overlap[i] - np.vdot(psi0, psi)) < 1e-13
        assert abs(series.norm[i] - np.linalg.norm(psi)) < 1e-13
    assert np.max(np.abs(series.norm - 1.0)) > 1e-10


def test_chebyshev_order_meets_tail_bound():
    x = 250.0
    k = chebyshev_order(x, 1e-13)
    j = np.abs(jv(np.arange(k + 200), x))
    assert 2 * np.sum(j[k + 1:]) < 1e-13 <= 2 * np.sum(j[k:])


def test_series_reports_expansion():
    params = ModelParams(g=0.9, eps_d=0.2)
    opts = EvolveOptions(t_max=30.0, n_samples=11)
    series = evolve(params, perp_state(0.9, opts.resolved_sites(params)), opts)
    center, half_width = spectral_bounds(params)
    assert (series.spectral_center, series.spectral_half_width) == (center, half_width)
    assert series.cheb_terms == chebyshev_order(half_width * 30.0, opts.abs_tol)


def test_refuses_unreachable_phase():
    opts = EvolveOptions(t_max=1e7, n_sites=10)
    with pytest.raises(InvalidParameterError, match="quadrature"):
        evolve(ModelParams(g=0.9), perp_state(0.9, 10), opts)


def test_non_finite_recurrence_raises(monkeypatch):
    # the package re-exports evolve(), which shadows the module attribute
    evolve_module = importlib.import_module("bicchain.evolve")
    build = evolve_module.hamiltonian

    def poisoned(params, n_sites):
        ham = build(params, n_sites)
        nan_at_site_1 = sparse.csr_matrix(([math.nan], ([1], [1])), shape=ham.matrix.shape)
        return dataclasses.replace(ham, matrix=ham.matrix + nan_at_site_1)

    monkeypatch.setattr(evolve_module, "hamiltonian", poisoned)
    params = ModelParams(g=0.9)
    opts = EvolveOptions(t_max=5.0, n_samples=11)
    with pytest.raises(IntegratorError, match="non-finite"):
        evolve(params, perp_state(0.9, opts.resolved_sites(params)), opts)


@PROPERTY
@given(g=st.floats(0.5, 1.0), t_max=st.floats(1.0, 60.0))
def test_property_overlap_matches_bessel_representation(g, t_max):
    params = ModelParams(g=g)
    opts = EvolveOptions(t_max=t_max, n_samples=41)
    series = evolve(params, perp_state(g, opts.resolved_sites(params)), opts)
    ref = bessel_exact_grid(series.times, g)
    assert np.max(np.abs(series.overlap - ref)) <= 1e-8
    assert np.max(np.abs(series.norm - 1.0)) <= 1e-12


@PROPERTY
@given(g=st.floats(0.0, 3.0, exclude_min=True), eps_d=st.floats(-1.0, 1.0),
       w=st.floats(-2.0, 2.0), t_max=st.floats(1.0, 60.0))
def test_property_norm_of_represented_state(g, eps_d, w, t_max):
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=t_max, n_samples=21, grid="log")
    series = evolve(params, w_state(g, w, opts.resolved_sites(params)), opts)
    assert np.max(np.abs(series.norm - 1.0)) <= 1e-12


@PROPERTY
@given(g=st.floats(0.05, 3.0), eps_d=st.floats(-1.5, 1.5),
       w=st.floats(-2.0, 2.0), t_max=st.floats(0.5, 80.0))
def test_property_auto_chain_is_the_semi_infinite_chain(g, eps_d, w, t_max):
    # the auto chain is as short as the series allows: a chain 50 sites
    # longer runs the same series and must give the same samples
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=t_max, n_samples=31, grid="log")
    n = opts.resolved_sites(params)
    auto = evolve(params, w_state(g, w, n), opts)
    long_opts = dataclasses.replace(opts, n_sites=n + 50)
    long = evolve(params, w_state(g, w, n + 50), long_opts)
    assert auto.light_cone_margin in (1, 2)
    assert long.light_cone_margin == auto.light_cone_margin + 100
    assert not (auto.truncation_warning or long.truncation_warning)
    assert long.cheb_terms == auto.cheb_terms
    for name in ("overlap", "amp_d", "amp_1", "norm"):
        assert np.max(np.abs(getattr(auto, name) - getattr(long, name))) <= 1e-13


@pytest.mark.parametrize("t_max, t_first", [(0.001, 1e-7), (0.5, 0.01)])
def test_log_grid_stays_within_t_max(t_max, t_first):
    # below t_max = 0.01 the grid starts at 1e-4 t_max, as analytic's does
    params = ModelParams(g=0.9)
    opts = EvolveOptions(t_max=t_max, n_samples=4, grid="log")
    series = evolve(params, perp_state(0.9, opts.resolved_sites(params)), opts)
    assert series.times[0] == 0.0 and np.all(np.diff(series.times) > 0)
    assert series.times[1] == pytest.approx(t_first) and series.times[-1] == t_max
    assert np.max(np.abs(series.overlap - bessel_exact_grid(series.times, 0.9))) <= 1e-13
    assert np.max(np.abs(series.norm - 1.0)) <= opts.abs_tol
