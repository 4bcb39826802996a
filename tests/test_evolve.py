import dataclasses
import importlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import fft, sparse
from scipy.linalg import expm
from scipy.special import jv

from bicchain.closedform import a_br_quadrature, a_w_cut, a_w_poles, bessel_exact_grid, bound_term
from bicchain.evolve import (HANKEL_SEAM, MAX_SITES, MILLER_BLOCK, EvolveOptions,
                             IntegratorError, ProbabilitySeries, _miller_start, _moments,
                             _next_fast_len, _stencil, auto_sites, bessel_j01, bessel_table,
                             chebyshev_order, evolve, hankel_pq, nonescape, survival)
from bicchain.model import (InvalidParameterError, ModelParams, StateVector,
                            bic_state, hamiltonian, perp_state, spectral_bounds,
                            w_state)
from oracles import bessel_table_sample_major, hankel_pq_polyval, moments_per_step


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
    series = evolve(params, perp_state(1.0, 2), opts)
    assert (series.cheb_terms, series.n_sites) == (2120, 1062)
    assert evolve(params, perp_state(1.0, 2), EvolveOptions(t_max=5.0, n_sites=7)).n_sites == 7


def test_auto_sites_refusal():
    with pytest.raises(InvalidParameterError, match="quadrature"):
        auto_sites(2 * MAX_SITES)
    with pytest.raises(InvalidParameterError, match="quadrature"):
        evolve(ModelParams(g=1.3), perp_state(1.3, 2), EvolveOptions(t_max=1e6))


@pytest.mark.parametrize("field, value", [
    ("n_sites", 3.5), ("n_sites", 7.0), ("n_sites", math.nan), ("n_sites", "7"),
    ("n_sites", True), ("n_samples", 2.5), ("n_samples", 11.0), ("n_samples", math.inf),
    ("n_samples", None), ("n_samples", False)])
def test_options_refuse_sizes_that_are_not_integers(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        EvolveOptions(t_max=5.0, **{field: value})


def test_options_take_numpy_integers_as_ints():
    opts = EvolveOptions(t_max=5.0, n_samples=np.int64(11), n_sites=np.int32(7))
    assert (opts.n_samples, opts.n_sites) == (11, 7)
    assert type(opts.n_samples) is int and type(opts.n_sites) is int
    assert evolve(ModelParams(g=0.9), perp_state(0.9, 2), opts).n_sites == 7


def test_options_validation():
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=-1.0)
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, n_samples=1)
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, abs_tol=1e-5)  # contract caps at 1e-6
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, abs_tol=0.0)
    with pytest.raises(InvalidParameterError):
        EvolveOptions(t_max=10.0, grid="cubic")


def test_log_grid_starts_at_zero():
    opts = EvolveOptions(t_max=100.0, n_samples=11, grid="log")
    ts = opts.times()
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == pytest.approx(100.0)


def test_state_longer_than_the_chain_is_refused():
    opts = EvolveOptions(t_max=5.0, n_sites=7)
    with pytest.raises(InvalidParameterError, match=r"10 sites.*7-site chain"):
        evolve(ModelParams(g=0.9), perp_state(0.9, 10), opts)


SUPPORT_STATES = {"bic": bic_state, "perp": perp_state, "w:1.0": lambda g, n: w_state(g, 1.0, n)}


@pytest.mark.parametrize("spec", list(SUPPORT_STATES))
@pytest.mark.parametrize("g, eps_d", [(0.9, 0.0), (1.3, -0.4)])
@pytest.mark.parametrize("n_sites", ["auto", 12])
def test_support_state_is_padded_to_the_chain(spec, g, eps_d, n_sites):
    # a state on its support {|d>, |1>, |2>} and the same state written out
    # on every site of the chain give the same bits
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=40.0, n_samples=21, grid="log", n_sites=n_sites)
    short = evolve(params, SUPPORT_STATES[spec](g, 3), opts)
    full = evolve(params, SUPPORT_STATES[spec](g, short.n_sites), opts)
    assert short.n_sites == (full.n_sites if n_sites == "auto" else 12)
    for name in ("times", "overlap", "amp_d", "amp_1", "norm"):
        assert np.array_equal(getattr(short, name), getattr(full, name))
    assert (short.light_cone_margin, short.truncation_warning, short.warnings) == (
        full.light_cone_margin, full.truncation_warning, full.warnings)


def test_bic_is_stationary():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts = EvolveOptions(t_max=100.0, n_samples=201)
    series = evolve(params, bic_state(0.9, 2), opts)
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
    state = StateVector(amp_d=0j, amp_chain=np.ones(1))
    series = evolve(params, state, opts)
    assert abs(series.overlap[-1] - oracle) < 1e-8


def test_unitarity_and_truncation_safety():
    params = ModelParams(g=0.98, eps_d=0.0)
    opts = EvolveOptions(t_max=200.0, n_samples=401)
    series = evolve(params, perp_state(0.98, 2), opts)
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
    series = evolve(params, perp_state(0.9, 2), opts)
    assert np.max(np.abs(series.overlap - a_br_quadrature(series.times, 0.9))) < 1e-8
    # equal band-edge weights at eps_d = 0 make the amplitude real
    assert np.max(np.abs(series.overlap.imag)) < 1e-8


def test_matches_pole_plus_cut_for_bound_regime():
    params = ModelParams(g=1.1, eps_d=0.0)
    opts = EvolveOptions(t_max=15.0, n_samples=31)
    series = evolve(params, perp_state(1.1, 2), opts)
    ref = a_br_quadrature(series.times, 1.1) + bound_term(series.times, 1.1)
    assert np.max(np.abs(series.overlap - ref)) < 1e-8


def test_grid_refinement_stability():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts1 = EvolveOptions(t_max=100.0, n_samples=501)
    opts2 = EvolveOptions(t_max=100.0, n_samples=1001, abs_tol=0.5e-13)
    # the tighter tolerance takes more terms, and so a longer chain
    p1 = survival(evolve(params, perp_state(0.9, 2), opts1)).values
    p2 = survival(evolve(params, perp_state(0.9, 2), opts2)).values
    assert np.max(np.abs(p2[::2] - p1)) < 1e-8


def test_nonescape_equals_survival_at_zero_detuning():
    params = ModelParams(g=0.9, eps_d=0.0)
    opts = EvolveOptions(t_max=60.0, n_samples=121)
    series = evolve(params, perp_state(0.9, 2), opts)
    p_perp = survival(series).values
    p_1d = nonescape(series).values
    assert p_1d[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(p_1d - p_perp)) < 1e-10


def test_nonescape_differs_under_detuning():
    params = ModelParams(g=0.9, eps_d=0.2)
    opts = EvolveOptions(t_max=40.0, n_samples=81)
    series = evolve(params, perp_state(0.9, 2), opts)
    diff = np.max(np.abs(nonescape(series).values - survival(series).values))
    assert diff > 1e-4


def test_zeno_parabola():
    # P ~ 1 - C t^2 with C = (g + g^2 + g^3 - 1)/g^2 within 5%
    for g in (0.9, 1.0):
        params = ModelParams(g=g)
        opts = EvolveOptions(t_max=0.05, n_samples=41)
        series = evolve(params, perp_state(g, 2), opts)
        p = survival(series).values
        ts = series.times
        c_fit = float(np.sum((1 - p[1:]) * ts[1:] ** 2) / np.sum(ts[1:] ** 4))
        c_ref = (g + g * g + g ** 3 - 1) / (g * g)
        assert abs(c_fit / c_ref - 1) < 0.05


def test_probability_series_shape_check():
    with pytest.raises(InvalidParameterError):
        ProbabilitySeries(times=np.arange(3.0), values=np.arange(4.0))


def test_bessel_table_matches_scipy():
    # one table over samples whose seeds differ by thousands of rows, unsorted
    rng = np.random.default_rng(3)
    xs = np.concatenate(([0.0, 1e-12, 1e-6, 0.01, 1.0, 100.0, 3000.0],
                         rng.permutation(np.geomspace(1e-3, 2500.0, 40))))
    k_max = chebyshev_order(3000.0, 1e-13)
    assert k_max > 3000
    table = bessel_table(xs, _miller_start(xs), k_max)
    ref = jv(np.arange(k_max + 1)[:, None], xs[None, :])
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table - ref)) <= 1e-13
    # J_1 past the Hankel seam, up to x = 31, where the Bessel tail's panels
    # that reach below the seam still take it from the table
    xs = np.linspace(HANKEL_SEAM, 31.0, 25)
    j1 = bessel_table(xs, _miller_start(xs), 1)[1]
    mpmath.mp.dps = 30
    assert np.max(np.abs(j1 - [float(mpmath.besselj(1, mpmath.mpf(x))) for x in xs])) <= 1e-15


def _x_of_seed(seed: int) -> float:
    """The smallest x on a fine grid in [1, seed] whose Miller seed is ``seed``."""
    xs = np.linspace(1.0, seed, 100_001)
    at = np.flatnonzero(_miller_start(xs) == seed)
    assert len(at), seed
    return float(xs[at[0]])


@given(xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 3000.0)),
                   min_size=1, max_size=40),
       k_max=st.integers(0, 3200))
@example(xs=[100.0, 0.0, 1e-12, 3000.0, 1e-6, 0.01, 1.0], k_max=3200)  # seeds 3000 rows apart
@example(xs=[2500.0, 0.0, 1e-3], k_max=40)  # the top rows dropped
# top seeds whose row counts fall on a boundary of the blocks of (k + 1) 2/x
# coefficient rows, one row below it and one above it, and a single row (x = 0)
@example(xs=[_x_of_seed(2 * MILLER_BLOCK - 1), 0.0, 1.0, 5.0], k_max=2 * MILLER_BLOCK + 10)
@example(xs=[_x_of_seed(2 * MILLER_BLOCK - 2), 0.0, 1.0, 5.0], k_max=2 * MILLER_BLOCK - 2)
@example(xs=[_x_of_seed(2 * MILLER_BLOCK), 0.0, 1.0, 5.0], k_max=MILLER_BLOCK)
@example(xs=[0.0], k_max=3)
def test_property_bessel_table_is_the_sample_major_table(xs, k_max):
    # rows of the Miller buffer, normalised in place, hold the bits of the
    # former transposed copy, zeros above each seed included
    xs = np.array(xs)
    seeds = _miller_start(xs)
    table = bessel_table(xs, seeds, k_max)
    assert table.shape == (k_max + 1, len(xs))
    assert np.array_equal(table, bessel_table_sample_major(xs, seeds, k_max).T)


@given(xs=st.lists(st.one_of(st.floats(HANKEL_SEAM, 100.0), st.floats(HANKEL_SEAM, 1e8)),
                   min_size=1, max_size=60))
@example(xs=[HANKEL_SEAM])
@example(xs=[HANKEL_SEAM, 40.0, 1000.0, 1e5, 1e8])
@example(xs=[1e8])
def test_property_hankel_pq_is_the_polyval_form(xs):
    # Horner's rule in place takes the steps of np.polyval in its order: the
    # same bits, at every term count from 20 (at the seam) down to 2
    xs = np.sort(xs)
    for nu in (0, 1):
        p, q = hankel_pq(nu, xs)
        p_ref, q_ref = hankel_pq_polyval(nu, xs)
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)


def test_bessel_j01_matches_mpmath():
    # Miller below the seam, Hankel at and above it; scipy's own j0/j1 are
    # 3.6e-15 off on this range
    rng = np.random.default_rng(7)
    seam = HANKEL_SEAM + np.arange(-4, 5) * np.spacing(HANKEL_SEAM)
    xs = np.concatenate(([0.0, 1e-300, 1e-12, 1e4], seam, rng.uniform(0.0, 30.0, 200),
                         np.geomspace(20.0, 1e4, 200), rng.uniform(0.0, 1e4, 99)))
    j0, j1 = bessel_j01(xs)
    mpmath.mp.dps = 30
    for order, got in ((0, j0), (1, j1)):
        ref = np.array([float(mpmath.besselj(order, mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(got - ref)) <= 4e-15
    # parity and shape: J_0 even, J_1 odd, any array shape
    m0, m1 = bessel_j01(-xs.reshape(2, -1))
    assert np.array_equal(m0, j0.reshape(2, -1)) and np.array_equal(m1, -j1.reshape(2, -1))


def test_next_fast_len_matches_scipy():
    # the FFT sizes, and so the norm columns, are those of scipy's real FFT
    assert all(_next_fast_len(n) == fft.next_fast_len(n, real=True) for n in range(1, 10_001))


def _csr_moments(params, n, psi0, order):
    """Reference recurrence v_k = T_k(H') psi0 with the CSR Hamiltonian on all entries."""
    center, half_width = spectral_bounds(params)
    h = hamiltonian(params, n).to_sparse()
    h2 = (2.0 / half_width) * (h - center * sparse.identity(n + 1, format="csr"))
    vs = [psi0, 0.5 * (h2 @ psi0)]
    while len(vs) <= order:
        vs.append(h2 @ vs[-1] - vs[-2])
    vs = np.array(vs[:order + 1])
    return vs @ np.conj(psi0), vs[:, :2], np.sum(np.abs(vs) ** 2, axis=1)


@given(g=st.floats(0.05, 3.0), eps_d=st.floats(-1.5, 1.5), n=st.integers(3, 200),
       spread=st.floats(0.0, 1.0), order=st.integers(1, 400), real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(g=0.9, eps_d=0.2, n=3, spread=1.0, order=40, real=False, seed=0)  # wall at |3>
@example(g=1.3, eps_d=-0.4, n=200, spread=0.0, order=400, real=True, seed=1)  # |d> only
@example(g=1.9375, eps_d=1.0, n=7, spread=0.0, order=97, real=False, seed=0)  # 90 steps at the wall
def test_property_stencil_moments_match_csr(g, eps_d, n, spread, order, real, seed):
    # states from |d> alone up to the wall, complex or real, and orders that
    # run into the wall or stop short of it
    params = ModelParams(g=g, eps_d=eps_d)
    rng = np.random.default_rng(seed)
    support = 1 + round(spread * n)
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[:support] = rng.normal(size=support) + (0 if real else 1j) * rng.normal(size=support)
    psi0 /= np.linalg.norm(psi0)
    if real:
        psi0 = psi0.real
    center, half_width = spectral_bounds(params)
    got = _moments(_stencil(params, center, half_width), n + 1, psi0, order)
    for value, ref in zip(got, _csr_moments(params, n, psi0, order)):
        assert np.max(np.abs(value - ref)) <= 1e-13
    # and bit for bit the former step's moments
    for value, ref in zip(got, moments_per_step(params, center, half_width, n + 1, psi0, order)):
        assert value.dtype == ref.dtype and np.array_equal(value, ref)


def test_evolve_blocks_do_not_change_samples(monkeypatch):
    # Miller tables of a few FFT blocks, and FFT blocks of a few samples,
    # give the samples of one block holding every sample
    evolve_module = importlib.import_module("bicchain.evolve")
    params = ModelParams(g=1.3, eps_d=-0.4)
    opts = EvolveOptions(t_max=40.0, n_samples=50, grid="log")
    runs = []
    for block_words, miller_words in ((1 << 30, 1 << 30), (600, 2000), (1, 1)):
        monkeypatch.setattr(evolve_module, "BLOCK_WORDS", block_words)
        monkeypatch.setattr(evolve_module, "MILLER_WORDS", miller_words)
        runs.append(evolve(params, w_state(1.3, 0.7, 3), opts))
    for run in runs[1:]:
        for name in ("overlap", "amp_d", "amp_1", "norm"):
            assert np.max(np.abs(getattr(run, name) - getattr(runs[0], name))) <= 1e-15


def test_evolve_keeps_one_bessel_table():
    # at the fig2b shape one Miller buffer holds the table of every sample,
    # and the samples and norms are read from its rows in place: the traced
    # peak stays below that of the buffer and a second, transposed copy
    g = 0.975591
    params, state = ModelParams(g=g), perp_state(g, 2)
    opts = EvolveOptions(t_max=200.0, n_samples=400, grid="log")
    series = evolve(params, state, opts)  # fills the caches first
    x = series.spectral_half_width * series.times
    buffer = bessel_table(x, _miller_start(x), series.cheb_terms).base
    assert buffer.shape[1] == len(x)
    tracemalloc.start()
    try:
        evolve(params, state, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * buffer.nbytes


def test_complex_state_matches_exact_propagator():
    # a spread-out complex state that reaches the wall, against expm
    n = 16
    params = ModelParams(g=1.3, eps_d=-0.4)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps /= np.linalg.norm(amps)
    state = StateVector(amp_d=amps[0], amp_chain=amps[1:])
    opts = EvolveOptions(t_max=12.0, n_samples=7, n_sites=n)
    series = evolve(params, state, opts)
    h = hamiltonian(params, n).to_sparse().toarray()
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
    opts = EvolveOptions(t_max=10.0, n_samples=6, n_sites=n, abs_tol=1e-6)
    psi0 = perp_state(g, n).to_array()
    series = evolve(params, perp_state(g, n), opts)
    b, a, order = series.spectral_center, series.spectral_half_width, series.cheb_terms
    h_scaled = (hamiltonian(params, n).to_sparse().toarray() - b * np.eye(n + 1)) / a
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


@pytest.mark.parametrize("g, eps_d, state, t_max, n_samples, grid", [
    (0.9, 0.2, "perp", 400.0, 600, "log"),     # fig3b's order, fewer samples
    (1.1, 0.0, "w:1.0", 200.0, 800, "linear"),
])
def test_norm_runs_match_one_full_length_transform(monkeypatch, g, eps_d, state, t_max,
                                                   n_samples, grid):
    # rows transformed at their own lengths give the norm of one transform of
    # every row at the full length (no run split off) to rounding; the other
    # columns do not depend on the split
    params = ModelParams(g=g, eps_d=eps_d)
    psi = perp_state(g, 3) if state == "perp" else w_state(g, 1.0, 3)
    opts = EvolveOptions(t_max=t_max, n_samples=n_samples, grid=grid)
    evolve_module = importlib.import_module("bicchain.evolve")
    series = evolve(params, psi, opts)
    seeds = evolve_module._miller_start(series.spectral_half_width * series.times)
    runs = evolve_module._norm_runs(seeds, series.cheb_terms)
    assert len(runs) >= 3
    # the runs tile the grid, the longest at the latest times
    assert [r[3] for r in runs] == [n_samples] + [r[2] for r in runs[:-1]]
    assert runs[-1][2] == 0
    for length, n_fft, start, stop in runs:
        assert seeds[start:stop].max() < length or length == series.cheb_terms + 1
    monkeypatch.setattr(evolve_module, "RUN_WORDS", 1 << 62)
    full = evolve(params, psi, opts)
    assert len(evolve_module._norm_runs(seeds, full.cheb_terms)) == 1
    for name in ("overlap", "amp_d", "amp_1"):
        assert np.array_equal(getattr(series, name), getattr(full, name))
    assert np.max(np.abs(series.norm - full.norm)) <= 5e-15


def test_chebyshev_order_meets_tail_bound():
    x = 250.0
    k = chebyshev_order(x, 1e-13)
    j = np.abs(jv(np.arange(k + 200), x))
    assert 2 * np.sum(j[k + 1:]) < 1e-13 <= 2 * np.sum(j[k:])


def test_series_reports_expansion():
    params = ModelParams(g=0.9, eps_d=0.2)
    opts = EvolveOptions(t_max=30.0, n_samples=11)
    series = evolve(params, perp_state(0.9, 2), opts)
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
    build = evolve_module._stencil

    def poisoned(*args):
        bond, diag, d_diag, d_bond = build(*args)
        return bond, math.nan, d_diag, d_bond

    monkeypatch.setattr(evolve_module, "_stencil", poisoned)
    params = ModelParams(g=0.9)
    opts = EvolveOptions(t_max=5.0, n_samples=11)
    with pytest.raises(IntegratorError, match="non-finite"):
        evolve(params, perp_state(0.9, 2), opts)


@given(g=st.floats(0.5, 1.0), t_max=st.floats(1.0, 60.0))
def test_property_overlap_matches_bessel_representation(g, t_max):
    params = ModelParams(g=g)
    opts = EvolveOptions(t_max=t_max, n_samples=41)
    series = evolve(params, perp_state(g, 2), opts)
    ref = bessel_exact_grid(series.times, g)
    assert np.max(np.abs(series.overlap - ref)) <= 1e-8
    assert np.max(np.abs(series.norm - 1.0)) <= 1e-12


# the near-threshold examples sit on 2 g^2 = 2 - |eps_d| or within 3.2e-7
# or 1e-7 of it, and at |eps_d| = 0.01 and -6.1e-5 near the quasi-BIC; the
# others have bound states, among them a double root of the far-detuned pair
# (0.0153376, 25.1129) and a bound state far above the band (7, 96.01)
@given(g=st.floats(0.05, 3.0),
       eps_d=st.one_of(st.just(0.0), st.floats(0.0, 1.5, exclude_min=True),
                       st.floats(-1.5, 0.0, exclude_max=True)),
       w=st.floats(-2.0, 2.0), t_max=st.floats(0.5, 60.0), grid=st.sampled_from(["linear", "log"]))
@example(g=1.0, eps_d=0.0, w=0.0, t_max=60.0, grid="log")
@example(g=math.sqrt(0.75), eps_d=0.5, w=1.0, t_max=60.0, grid="linear")
@example(g=math.sqrt(0.75), eps_d=-0.5, w=-2.0, t_max=60.0, grid="log")
@example(g=0.5, eps_d=-1.5, w=2.0, t_max=60.0, grid="linear")
@example(g=0.9, eps_d=0.01, w=0.0, t_max=60.0, grid="log")
@example(g=0.9, eps_d=-0.01, w=1.0, t_max=60.0, grid="linear")
@example(g=1.1, eps_d=0.0, w=0.0, t_max=40.0, grid="linear")
@example(g=1.3, eps_d=0.4, w=0.0, t_max=40.0, grid="linear")
@example(g=2.0, eps_d=0.7, w=0.5, t_max=40.0, grid="log")
@example(g=1.2, eps_d=-0.9, w=1.0, t_max=40.0, grid="linear")
@example(g=3.0, eps_d=2.0, w=-1.0, t_max=40.0, grid="log")
@example(g=0.0153376, eps_d=25.1129, w=0.0, t_max=40.0, grid="linear")
@example(g=7.0, eps_d=96.01, w=0.0, t_max=5.0, grid="linear")
@example(g=0.37, eps_d=-6.1e-5, w=0.0, t_max=60.0, grid="linear")
@example(g=0.3, eps_d=1.819999683772234, w=0.0, t_max=60.0, grid="linear")
@example(g=0.5, eps_d=1.5 + 1e-7, w=-2.0, t_max=60.0, grid="linear")
@example(g=0.5, eps_d=1.5 - 1e-7, w=-2.0, t_max=60.0, grid="log")
def test_property_overlap_matches_cut(g, eps_d, w, t_max, grid):
    # The branch cut plus the first-sheet poles is the whole amplitude, so
    # the direct route must meet it at the three-route gate.
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=t_max, n_samples=31, grid=grid)
    series = evolve(params, w_state(g, w, 3), opts)
    routes = a_w_cut(series.times, params, w) + a_w_poles(series.times, params, w)
    assert np.max(np.abs(series.overlap - routes)) <= 1e-6


@given(g=st.floats(0.0, 3.0, exclude_min=True), eps_d=st.floats(-1.0, 1.0),
       w=st.floats(-2.0, 2.0), t_max=st.floats(1.0, 60.0))
def test_property_norm_of_represented_state(g, eps_d, w, t_max):
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=t_max, n_samples=21, grid="log")
    series = evolve(params, w_state(g, w, 3), opts)
    assert np.max(np.abs(series.norm - 1.0)) <= 1e-12


@given(g=st.floats(0.05, 3.0), eps_d=st.floats(-1.5, 1.5),
       w=st.floats(-2.0, 2.0), t_max=st.floats(0.5, 80.0))
def test_property_auto_chain_is_the_semi_infinite_chain(g, eps_d, w, t_max):
    # the auto chain is as short as the series allows: a chain 50 sites
    # longer runs the same series and must give the same samples
    params = ModelParams(g=g, eps_d=eps_d)
    opts = EvolveOptions(t_max=t_max, n_samples=31, grid="log")
    auto = evolve(params, w_state(g, w, 3), opts)
    long_opts = dataclasses.replace(opts, n_sites=auto.n_sites + 50)
    long = evolve(params, w_state(g, w, 3), long_opts)
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
    series = evolve(params, perp_state(0.9, 2), opts)
    assert series.times[0] == 0.0 and np.all(np.diff(series.times) > 0)
    assert series.times[1] == pytest.approx(t_first) and series.times[-1] == t_max
    assert np.max(np.abs(series.overlap - bessel_exact_grid(series.times, 0.9))) <= 1e-13
    assert np.max(np.abs(series.norm - 1.0)) <= opts.abs_tol
