"""Model parameters, truncated Hamiltonian, and the special initial states.

The system is a semi-infinite tight-binding chain (sites ``|1>, |2>, ...``,
nearest-neighbor hopping ``-J`` with ``J = 1`` fixing the energy units) with
an impurity level ``|d>`` side-coupled to chain site ``|2>`` with strength
``-g``.  The impurity may be detuned by an on-site energy ``eps_d``.

State vectors are stored with ``|d>`` at index 0 followed by chain sites
``1..N`` (1-based site labels map to vector indices directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal

#: sites of the chain section whose edge-shifted spectrum bounds the
#: semi-infinite chain's in :func:`spectral_bounds`
ENCLOSURE_SITES = 64


class ConfigError(ValueError):
    """Base of every error that an invalid configuration or request causes (exit 2)."""


class NumericalError(RuntimeError):
    """Base of every error that a numerical method raises when it fails (exit 3)."""


class InvalidParameterError(ConfigError):
    """Raised when a constructor argument violates a model precondition."""


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the chain-impurity model, in units of the hopping J = 1."""

    g: float
    eps_d: float = 0.0
    j_hop: float = 1.0

    def __post_init__(self) -> None:
        if not (self.g > 0 and np.isfinite(self.g)):
            raise InvalidParameterError(f"coupling g must be positive and finite, got {self.g}")
        if not np.isfinite(self.eps_d):
            raise InvalidParameterError(f"impurity energy eps_d must be finite, got {self.eps_d}")
        if self.j_hop != 1.0:
            raise InvalidParameterError("j_hop is the unit of energy and must be exactly 1.0")

    def to_dict(self) -> dict:
        return {"g": self.g, "eps_d": self.eps_d, "j_hop": self.j_hop}


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over {|d>, |1>, ..., |N>}; unit norm within 1e-12."""

    amp_d: complex
    amp_chain: np.ndarray
    n_sites: int

    def __post_init__(self) -> None:
        chain = np.asarray(self.amp_chain, dtype=complex)
        object.__setattr__(self, "amp_chain", chain)
        if chain.shape != (self.n_sites,):
            raise InvalidParameterError(
                f"amp_chain has shape {chain.shape}, expected ({self.n_sites},)")
        norm_sq = abs(self.amp_d) ** 2 + float(np.sum(np.abs(chain) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise InvalidParameterError(f"state norm^2 = {norm_sq!r} deviates from 1 by > 1e-12")

    def to_array(self) -> np.ndarray:
        """Dense vector of length n_sites + 1 with |d> at index 0."""
        out = np.empty(self.n_sites + 1, dtype=complex)
        out[0] = self.amp_d
        out[1:] = self.amp_chain
        return out

    def overlap(self, other: StateVector) -> complex:
        return complex(np.conj(self.amp_d) * other.amp_d
                       + np.vdot(self.amp_chain, other.amp_chain))


@dataclass(frozen=True, eq=False)
class TruncatedHamiltonian:
    """Real-symmetric truncated Hamiltonian, built once as a CSR matrix.

    Nonzeros: (0,0) = eps_d (if nonzero), (0,2) = (2,0) = -g, and
    (n, n+1) = (n+1, n) = -1 for chain bonds 1 <= n <= N-1; each row is
    stored in ascending column order.
    """

    n_sites: int
    matrix: sparse.csr_matrix = field(repr=False)

    def to_sparse(self) -> sparse.csr_matrix:
        """The stored CSR matrix (shared, not a copy)."""
        return self.matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=complex)


def _coupled_norm(g: float) -> float:
    return 1.0 / np.sqrt(1.0 + g * g)


def _check_coupling(g: float) -> None:
    if not (g > 0 and np.isfinite(g)):
        raise InvalidParameterError(f"coupling g must be positive and finite, got {g}")
    if not np.isfinite(g * g):
        raise InvalidParameterError(f"coupling g = {g} is too large: g^2 overflows")


def _check_state_args(g: float, n_sites: int, min_sites: int) -> None:
    _check_coupling(g)
    if n_sites < min_sites:
        raise InvalidParameterError(f"n_sites must be >= {min_sites}, got {n_sites}")


def bic_state(g: float, n_sites: int) -> StateVector:
    """Bound state in continuum: (|d> - g|1>)/sqrt(1+g^2), zero elsewhere.

    Exact zero-energy eigenstate of the truncated Hamiltonian at eps_d = 0.
    """
    _check_state_args(g, n_sites, 2)
    nrm = _coupled_norm(g)
    chain = np.zeros(n_sites, dtype=complex)
    chain[0] = -g * nrm
    return StateVector(amp_d=nrm, amp_chain=chain, n_sites=n_sites)


def perp_state(g: float, n_sites: int) -> StateVector:
    """Simplest BIC-orthogonal state: (g|d> + |1>)/sqrt(1+g^2)."""
    _check_state_args(g, n_sites, 2)
    nrm = _coupled_norm(g)
    chain = np.zeros(n_sites, dtype=complex)
    chain[0] = nrm
    return StateVector(amp_d=g * nrm, amp_chain=chain, n_sites=n_sites)


def w_state(g: float, w: float, n_sites: int) -> StateVector:
    """Generalized BIC-orthogonal state N_w (g|d> + |1> + w|2>).

    N_w = (1 + g^2 + w^2)^(-1/2); reduces to perp_state at w = 0.
    Orthogonality to the BIC holds for every w because |2> has no BIC weight.
    """
    _check_state_args(g, n_sites, 3)
    if not np.isfinite(w):
        raise InvalidParameterError(f"chain amplitude w must be finite, got {w}")
    norm_sq = 1.0 + g * g + w * w
    if not np.isfinite(norm_sq):
        raise InvalidParameterError(
            f"1 + g^2 + w^2 overflows for g = {g}, w = {w}")
    nrm = 1.0 / np.sqrt(norm_sq)
    chain = np.zeros(n_sites, dtype=complex)
    chain[0] = nrm
    chain[1] = w * nrm
    return StateVector(amp_d=g * nrm, amp_chain=chain, n_sites=n_sites)


def hamiltonian(params: ModelParams, n_sites: int) -> TruncatedHamiltonian:
    """Truncated Hamiltonian on {|d>, |1>..|N>} with a hard wall at site N."""
    if n_sites < 3:
        raise InvalidParameterError(f"n_sites must be >= 3, got {n_sites}")
    bond = np.arange(1, n_sites)
    rows = np.concatenate(([0, 0, 2], bond, bond + 1))
    cols = np.concatenate(([0, 2, 0], bond + 1, bond))
    vals = np.concatenate(([params.eps_d, -params.g, -params.g], np.full(2 * len(bond), -1.0)))
    keep = slice(0 if params.eps_d != 0.0 else 1, None)  # no stored zero on the diagonal
    matrix = sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_sites + 1,) * 2)
    return TruncatedHamiltonian(n_sites=n_sites, matrix=matrix)


def spectral_bounds(params: ModelParams) -> tuple[float, float]:
    """Center b and half-width a of an interval enclosing the spectrum of the
    semi-infinite chain, and so of every truncation ``hamiltonian(params, N)``.

    In the basis {(|d> - g|1>)/s, (g|d> + |1>)/s, |2>, |3>, ...} with
    s = sqrt(1 + g^2) the Hamiltonian is tridiagonal, because |d> and |1>
    both couple only to |2>.  The bond between sites M and M + 1 obeys
    -(|M><M| + |M+1><M+1|) <= -(|M><M+1| + h.c.) <= |M><M| + |M+1><M+1|,
    so H lies below the M-site section with +1 added on |M> beside a bare
    chain with edge potential +1, whose spectrum is [-2, 2] because that
    edge binds no state, and above the same pair with -1.  Sturm-sequence
    bisection on a section of ``ENCLOSURE_SITES`` sites gives the two
    extreme eigenvalues, which are widened by 1e-10 of their spread to cover
    the rounding of the rotation and of the bisection before they are
    joined with the band [-2, 2].  Away from bound states (g < 1 at
    eps_d = 0, for one) the enclosure is the band, (b, a) = (0, 2).
    """
    g, eps_d = params.g, params.eps_d
    _check_coupling(g)
    s = math.hypot(1.0, g)
    diag = np.zeros(ENCLOSURE_SITES + 1)
    diag[0], diag[1] = eps_d / s ** 2, eps_d * (g / s) ** 2
    off = np.full(ENCLOSURE_SITES, -1.0)
    off[0], off[1] = eps_d * (g / s) / s, -s
    diag[-1] = -1.0
    lo = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    diag[-1] = 1.0
    hi = eigvalsh_tridiagonal(diag, off, select="i",
                             select_range=(ENCLOSURE_SITES, ENCLOSURE_SITES))[0]
    pad = 1e-10 * max(hi - lo, 1.0)
    lo, hi = min(lo - pad, -2.0), max(hi + pad, 2.0)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def apply_hamiltonian(ham: TruncatedHamiltonian, state: StateVector) -> np.ndarray:
    """H|psi> as a dense array (index 0 = |d>)."""
    if state.n_sites != ham.n_sites:
        raise InvalidParameterError(
            f"state has {state.n_sites} sites but Hamiltonian has {ham.n_sites}")
    return ham.apply(state.to_array())
