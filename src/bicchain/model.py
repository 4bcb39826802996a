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
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

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

    def __post_init__(self) -> None:
        check_coupling(self.g)
        if not np.isfinite(self.eps_d):
            raise InvalidParameterError(f"impurity energy eps_d must be finite, got {self.eps_d}")

    def to_dict(self) -> dict:
        """The couplings, with the hopping 1.0 that is their unit."""
        return {"g": self.g, "eps_d": self.eps_d, "j_hop": 1.0}


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over {|d>, |1>, ..., |N>}, N = ``n_sites`` =
    len(amp_chain) for a one-dimensional ``amp_chain``; unit norm within 1e-12."""

    amp_d: complex
    amp_chain: np.ndarray

    def __post_init__(self) -> None:
        chain = np.asarray(self.amp_chain, dtype=complex)
        object.__setattr__(self, "amp_chain", chain)
        if chain.ndim != 1:
            raise InvalidParameterError(
                f"amp_chain must be one-dimensional, got shape {chain.shape}")
        norm_sq = abs(self.amp_d) ** 2 + float(np.sum(np.abs(chain) ** 2))
        if not abs(norm_sq - 1.0) <= 1e-12:  # also refuses NaN and inf amplitudes
            raise InvalidParameterError(f"state norm^2 = {norm_sq!r} deviates from 1 by > 1e-12")

    @property
    def n_sites(self) -> int:
        return len(self.amp_chain)

    def to_array(self) -> np.ndarray:
        """Dense vector of length n_sites + 1 with |d> at index 0."""
        out = np.empty(self.n_sites + 1, dtype=complex)
        out[0] = self.amp_d
        out[1:] = self.amp_chain
        return out


@dataclass(frozen=True, eq=False)
class TruncatedHamiltonian:
    """Real-symmetric truncated Hamiltonian, built once as a CSR matrix.

    Nonzeros: (0,0) = eps_d (if nonzero), (0,2) = (2,0) = -g, and
    (n, n+1) = (n+1, n) = -1 for chain bonds 1 <= n <= N-1; each row is
    stored in ascending column order.  It is a reference for tests and the
    benchmark: :func:`bicchain.evolve.evolve` applies the same matrix as a
    stencil and never builds it.
    """

    matrix: sparse.csr_matrix = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0] - 1

    def to_sparse(self) -> sparse.csr_matrix:
        """The stored CSR matrix (shared, not a copy)."""
        return self.matrix


def _coupled_norm(g: float) -> float:
    return 1.0 / np.sqrt(1.0 + g * g)


def check_coupling(g: float) -> None:
    """Refuse a coupling g that is not positive and finite."""
    if not (g > 0 and np.isfinite(g)):
        raise InvalidParameterError(f"coupling g must be positive and finite, got {g}")


def _check_coupling(g: float) -> None:
    check_coupling(g)
    if not np.isfinite(g * g):
        raise InvalidParameterError(f"coupling g = {g} is too large: g^2 overflows")


def inverse_w_norm_sq(g: float, w: float) -> float:
    """1/N_w^2 = 1 + g^2 + w^2 of the generalized state, refusing a chain
    amplitude w that is not finite or with which the sum overflows."""
    if not math.isfinite(w):
        raise InvalidParameterError(f"chain amplitude w must be finite, got {w}")
    norm_sq = 1.0 + g * g + w * w
    if not math.isfinite(norm_sq):
        raise InvalidParameterError(
            f"1 + g^2 + w^2 overflows for g = {g}, w = {w}")
    return norm_sq


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
    return StateVector(amp_d=nrm, amp_chain=chain)


def perp_state(g: float, n_sites: int) -> StateVector:
    """Simplest BIC-orthogonal state: (g|d> + |1>)/sqrt(1+g^2)."""
    _check_state_args(g, n_sites, 2)
    nrm = _coupled_norm(g)
    chain = np.zeros(n_sites, dtype=complex)
    chain[0] = nrm
    return StateVector(amp_d=g * nrm, amp_chain=chain)


def w_state(g: float, w: float, n_sites: int) -> StateVector:
    """Generalized BIC-orthogonal state N_w (g|d> + |1> + w|2>).

    N_w = (1 + g^2 + w^2)^(-1/2); reduces to perp_state at w = 0.
    Orthogonality to the BIC holds for every w because |2> has no BIC weight.
    """
    _check_state_args(g, n_sites, 3)
    nrm = 1.0 / np.sqrt(inverse_w_norm_sq(g, w))
    chain = np.zeros(n_sites, dtype=complex)
    chain[0] = nrm
    chain[1] = w * nrm
    return StateVector(amp_d=g * nrm, amp_chain=chain)


def hamiltonian(params: ModelParams, n_sites: int) -> TruncatedHamiltonian:
    """Truncated Hamiltonian on {|d>, |1>..|N>} with a hard wall at site N."""
    from scipy import sparse  # only tests and the benchmark build the matrix

    if n_sites < 3:
        raise InvalidParameterError(f"n_sites must be >= 3, got {n_sites}")
    bond = np.arange(1, n_sites)
    rows = np.concatenate(([0, 0, 2], bond, bond + 1))
    cols = np.concatenate(([0, 2, 0], bond + 1, bond))
    vals = np.concatenate(([params.eps_d, -params.g, -params.g], np.full(2 * len(bond), -1.0)))
    keep = slice(0 if params.eps_d != 0.0 else 1, None)  # no stored zero on the diagonal
    matrix = sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_sites + 1,) * 2)
    return TruncatedHamiltonian(matrix=matrix)


def spectral_bounds(params: ModelParams) -> tuple[float, float]:
    """Center b and half-width a of an interval enclosing the spectrum of the
    semi-infinite chain, and so of every truncation ``hamiltonian(params, N)``.

    In the basis {(|d> - g|1>)/s, (g|d> + |1>)/s, |2>, |3>, ...} with
    s = sqrt(1 + g^2) the Hamiltonian is tridiagonal, because |d> and |1>
    both couple only to |2>.  The bond between sites M and M + 1 obeys
    -(|M><M| + |M+1><M+1|) <= -(|M><M+1| + h.c.) <= |M><M| + |M+1><M+1|,
    so H lies below the M-site section with +1 added on |M> beside a bare
    chain with edge potential +1, whose spectrum is [-2, 2] because that
    edge binds no state, and above the same pair with -1.  The dense
    eigenvalues of the two sections of ``ENCLOSURE_SITES`` sites give the
    extreme eigenvalues, which are widened by 1e-10 of their spread to cover
    the rounding of the rotation and of the eigensolver before they are
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
    section = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    section[-1, -1] = -1.0
    lo = np.linalg.eigvalsh(section)[0]
    section[-1, -1] = 1.0
    hi = np.linalg.eigvalsh(section)[-1]
    pad = 1e-10 * max(hi - lo, 1.0)
    lo, hi = min(lo - pad, -2.0), max(hi + pad, 2.0)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)
