import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from bicchain.model import (InvalidParameterError, ModelParams, StateVector,
                            apply_hamiltonian, bic_state, hamiltonian,
                            perp_state, spectral_bounds, w_state)
from bicchain.spectrum import RootFindError, StateKind, discrete_spectrum


def test_params_validation():
    ModelParams(g=0.9, eps_d=0.2)
    with pytest.raises(InvalidParameterError):
        ModelParams(g=0.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(g=-1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(g=0.9, eps_d=np.inf)
    with pytest.raises(InvalidParameterError):
        ModelParams(g=0.9, j_hop=2.0)


def test_bic_state_symmetry_case():
    st = bic_state(1.0, 4)
    assert st.amp_d == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert st.amp_chain[0] == pytest.approx(-1 / np.sqrt(2), abs=1e-15)
    assert np.all(st.amp_chain[1:] == 0)


def test_perp_state_symmetry_case():
    st = perp_state(1.0, 4)
    assert st.amp_d == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert st.amp_chain[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("g", [0.3, 0.7, 0.9, 1.0, 1.4])
def test_unit_norms(g):
    for st in (bic_state(g, 6), perp_state(g, 6), w_state(g, 1.3, 6)):
        arr = st.to_array()
        assert abs(np.sum(np.abs(arr) ** 2) - 1.0) < 1e-12


def test_bic_perp_orthogonality():
    assert abs(bic_state(0.9, 5).overlap(perp_state(0.9, 5))) == 0.0


@pytest.mark.parametrize("g", [0.2, 0.9, 1.7])
@pytest.mark.parametrize("w", [-2.0, 0.0, 0.5, 2.0])
def test_bic_w_orthogonality_any_w(g, w):
    ov = bic_state(g, 6).overlap(w_state(g, w, 6))
    assert abs(ov) < 1e-15


def test_w_state_normalization_value():
    # N_w = (1 + g^2 + w^2)^{-1/2} at g = 0.9, w = 1
    st = w_state(0.9, 1.0, 5)
    n_w = st.amp_chain[0].real
    assert n_w == pytest.approx(1 / np.sqrt(2.81), abs=1e-12)
    assert n_w == pytest.approx(0.59655, abs=5e-6)


def test_w_zero_reduces_to_perp():
    a = w_state(0.7, 0.0, 5).to_array()
    b = perp_state(0.7, 5).to_array()
    assert np.array_equal(a, b)


def test_state_validation_errors():
    with pytest.raises(InvalidParameterError):
        bic_state(-0.5, 4)
    with pytest.raises(InvalidParameterError):
        bic_state(0.9, 1)
    with pytest.raises(InvalidParameterError):
        w_state(0.9, 1.0, 2)
    with pytest.raises(InvalidParameterError):
        StateVector(amp_d=1.0, amp_chain=np.ones(3), n_sites=3)


def test_states_reject_overflowing_coupling():
    assert perp_state(1e154, 5).amp_d == pytest.approx(1.0)
    for build in (lambda: bic_state(1e200, 5), lambda: perp_state(1e200, 5),
                  lambda: w_state(1e200, 0.0, 5)):
        with pytest.raises(InvalidParameterError, match="g = 1e"):
            build()
    with pytest.raises(InvalidParameterError, match="w = 1e"):
        w_state(0.9, 1e200, 5)


def test_hamiltonian_structure():
    ham = hamiltonian(ModelParams(g=1.0, eps_d=0.0), 3)
    dense = ham.to_dense()
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = -1.0
    expected[1, 2] = expected[2, 1] = -1.0
    expected[2, 3] = expected[3, 2] = -1.0
    assert np.array_equal(dense, expected)


@pytest.mark.parametrize("g,eps_d,n", [(0.9, 0.0, 8), (1.3, 0.4, 12)])
def test_hamiltonian_symmetry_and_sparsity(g, eps_d, n):
    ham = hamiltonian(ModelParams(g=g, eps_d=eps_d), n)
    dense = ham.to_dense()
    assert np.array_equal(dense, dense.T)
    stored = ham.matrix.tocoo()
    off_diag = int(np.count_nonzero(stored.row != stored.col))
    diag = int(np.count_nonzero(stored.row == stored.col))
    assert off_diag == 2 * (n - 1) + 2
    assert diag <= 1
    # built once, rows in ascending column order (the matvec summation order)
    assert ham.to_sparse() is ham.matrix and ham.matrix.has_canonical_format


def test_hamiltonian_needs_three_sites():
    with pytest.raises(InvalidParameterError):
        hamiltonian(ModelParams(g=0.9), 2)


@pytest.mark.parametrize("n", [2, 5, 40])
def test_bic_is_zero_mode(n):
    # H(eps_d=0) psi_BIC = 0 exactly on any truncation
    if n < 3:
        return
    ham = hamiltonian(ModelParams(g=0.9, eps_d=0.0), n)
    residual = apply_hamiltonian(ham, bic_state(0.9, n))
    assert np.max(np.abs(residual)) < 1e-14


def test_perp_expectation_value():
    # <psi_perp|H|psi_perp> = g^2 eps_d / (1 + g^2)
    g, eps_d, n = 0.9, 0.0, 6
    ham = hamiltonian(ModelParams(g=g, eps_d=eps_d), n)
    st = perp_state(g, n)
    val = np.vdot(st.to_array(), apply_hamiltonian(ham, st))
    assert abs(val - g * g * eps_d / (1 + g * g)) < 1e-14

    eps_d = 0.3
    ham = hamiltonian(ModelParams(g=g, eps_d=eps_d), n)
    val = np.vdot(st.to_array(), apply_hamiltonian(ham, st))
    assert abs(val - g * g * eps_d / (1 + g * g)) < 1e-14


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=strategies.floats(0.05, 5.0), eps_d=strategies.floats(-3.0, 3.0),
       n_sites=strategies.integers(3, 300))
def test_property_spectral_enclosure(g, eps_d, n_sites):
    params = ModelParams(g=g, eps_d=eps_d)
    center, half_width = spectral_bounds(params)
    lo, hi = center - half_width, center + half_width
    eig = np.linalg.eigvalsh(hamiltonian(params, n_sites).to_dense())
    assert lo <= eig[0] and eig[-1] <= hi
    try:
        bound = [s.z.real for s in discrete_spectrum(params) if s.kind is StateKind.Bound]
    except RootFindError:
        assume(False)  # within about 1e-5 of a threshold no double resolves the state
    # the semi-infinite chain's spectrum: the band plus its bound states;
    # tight as well as safe, because a loose interval costs Chebyshev terms.
    # b -/+ a round the ends of the band by up to an ulp
    lo_semi, hi_semi = min([-2.0, *bound]), max([2.0, *bound])
    assert -1e-15 <= lo_semi - lo <= 2e-4 and -1e-15 <= hi - hi_semi <= 2e-4


def test_spectral_bounds_is_the_band_without_bound_states():
    for g in (0.05, 0.5, 0.9, 0.999):
        assert spectral_bounds(ModelParams(g=g)) == (0.0, 2.0)


def test_spectral_bounds_rejects_overflowing_coupling():
    with pytest.raises(InvalidParameterError, match="g = 1e\\+200"):
        spectral_bounds(ModelParams(g=1e200))
