"""Test oracles: independent or compact forms that only the tests evaluate.

The self-energy quadrature is independent of the package.  The other
oracles are built on its run-path pieces (``self_energy``, ``sigma1``,
``_chain_split``, ``w_norm_sq`` and ``bessel_exact_grid``), so a test that
checks them against the CSR solve, the large-z limit or an identity checks
those pieces too; the impurity resolvent ``resolvent_dd`` and its
``NearPoleError`` are among them.  ``sheet_of`` is the spectrum's former
rule for the sheet of a real root: the sheet of the smaller residual.
The v-rule ray oracle takes sigma_1 from principal
square roots instead of ``sigma1`` and integrates on a rule of its own; the
plain-exp ray oracle shares the package's rule, takes the same jump as the
v-rule unless asked for the package's, and forms each time's sums by a
plain exp at every node.  The GL30 Bessel tail takes J_1 from
``bessel_j01`` at every node of the package's panel grid.
The sample-major Bessel table and the per-step moment recurrence are the
direct route's former forms, which the current ones must match bit for bit.
The adaptive Gauss rule on the cut (``_cut_integral``, ``a_w_cut_adaptive``)
is the cut's former route: a quadrature of the jump across the band that
shares neither the pole sums nor the Bessel table of ``a_w_cut``.
"""

import math

import numpy as np
from scipy.integrate import quad

from bicchain import closedform
from bicchain.closedform import (_GL15, _GL30, _RAY_W, _RAY_X, BLOCK_NODES, _boundary_value,
                                 _panel_width, bessel_exact_grid)
from bicchain.evolve import bessel_j01
from bicchain.model import ModelParams, NumericalError, check_coupling
from bicchain.spectrum import SheetTag, _chain_split, self_energy, sigma1, w_norm_sq


class NearPoleError(NumericalError):
    """Resolvent evaluated closer than 1e-13 to one of its poles."""

    def __init__(self, z: complex) -> None:
        super().__init__(f"resolvent evaluated within 1e-13 of a pole at z = {z}")
        self.z = complex(z)


def resolvent_dd(z: complex, params: ModelParams,
                 sheet: SheetTag = SheetTag.First) -> complex:
    """Impurity diagonal of the resolvent, 1/(z - eps_d - Sigma(z))."""
    denom = complex(z) - params.eps_d - self_energy(z, params.g, sheet)
    if abs(denom) < 1e-13:
        raise NearPoleError(z)
    return 1.0 / denom


def sheet_of(z: complex, params: ModelParams) -> SheetTag:
    """The sheet on which |z - eps_d - Sigma(z)| is smaller.

    For real roots outside the band, where Sigma is real on both sheets and
    a root solves at most one of them; a tie, both residuals rounding to one
    value, goes to the second sheet.
    """
    first, second = (abs(z - params.eps_d - self_energy(z, params.g, sheet))
                     for sheet in (SheetTag.First, SheetTag.Second))
    return SheetTag.First if first < second else SheetTag.Second


def self_energy_quadrature(z: complex, g: float) -> complex:
    """First-sheet Sigma(z) by direct quadrature of g^2 |V_k|^2 / (z - E_k).

    Independent oracle for the closed form; V_k = -sqrt(2/pi) sin 2k and
    E_k = -2 cos k.  Requires z off the band [-2, 2].
    """
    check_coupling(g)
    z = complex(z)

    def integrand(k: float) -> complex:
        return (2.0 / math.pi) * math.sin(2.0 * k) ** 2 / (z + 2.0 * math.cos(k))

    re, _ = quad(lambda k: integrand(k).real, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda k: integrand(k).imag, 0.0, math.pi,
                 limit=400, epsabs=1e-13, epsrel=1e-13)
    return g * g * (re + 1j * im)


def q_of_z(z: complex, g: float, w: float) -> complex:
    """Compact chain polynomial Q(z) of the w-state resolvent at eps_d = 0,
    on the first sheet.

    Q = g^2 + sigma_1^2 (2g^2 - 2g^2 w z + g^2 sigma_1^2 - 2 w z + w^2 z^2);
    for w = 1 this collapses to (1+g^2) z (z-2) sigma_1^2.  Together with a
    bare sigma_1 chain term it reproduces the resolvent diagonal exactly at
    eps_d = 0 (it absorbs a (z - Sigma) multiple of the chain background);
    the detuning-safe split is :func:`a_w_resolvent`.
    """
    sig = sigma1(z)
    sig2 = sig * sig
    z = complex(z)
    return g * g + sig2 * (2.0 * g * g - 2.0 * g * g * w * z
                           + g * g * sig2 - 2.0 * w * z + w * w * z * z)


def a_w_resolvent(z: complex, params: ModelParams, w: float) -> complex:
    """First-sheet diagonal resolvent element of the generalized
    BIC-orthogonal state.

    Evaluates N_w^2 (C0(z) + Q(z) G_dd(z)) from the chain Dyson algebra,
    exact for any detuning; at eps_d = 0 this equals the compact form
    N_w^2 (sigma_1 + q_of_z G_dd) identically.  Tends to 1/z at large |z|
    by normalization.
    """
    background, coupling = _chain_split(sigma1(z), params.g, w)
    return w_norm_sq(params.g, w) * (background + coupling * resolvent_dd(z, params))


def bessel_exact(t: float, g: float) -> complex:
    """Exact Bessel-representation A_br at a single time (0 < g <= 1)."""
    return complex(bessel_exact_grid(np.array([float(t)]), g)[0])


def ray_jump(z: np.ndarray, g: float, w: float) -> np.ndarray:
    """Below-minus-above jump of C0 + Q G_dd at eps_d = 0 on the rays below
    the band edges, with the first-sheet sigma_1 below the cut written as
    (z - sqrt(z - 2) sqrt(z + 2))/2 and its reciprocal above."""
    s = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
    sig_below = (z - s) / 2.0
    out = 0j * z
    for sig, sign in ((sig_below, -1.0), (1.0 / sig_below, +1.0)):
        background, coupling = _chain_split(sig, g, w)
        g_dd = 1.0 / (z - g * g * z * sig * sig)
        out -= sign * (background + coupling * g_dd)
    return out


#: Panel edges of the v-rule: 0, each decade from 1e-11 to 0.1, 0.3, 1 and
#: 6.5 (where e^{-v^2} < 5e-19); GL15 up to 1e-6 and GL30 above.
_V_EDGES = [0.0] + [10.0 ** k for k in range(-11, 0)] + [0.3, 1.0, 6.5]
_V_PANELS = [(a, b, _GL15 if b <= 1e-6 else _GL30) for a, b in zip(_V_EDGES, _V_EDGES[1:])]
_V = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b, (x, _) in _V_PANELS])
_V_W = np.concatenate([0.5 * (b - a) * w for a, b, (_, w) in _V_PANELS])


def a_w_rays_v_rule(t: float, g: float, w: float) -> complex:
    """Ray-deformation amplitude (eps_d = 0) at one time, on a 330-node
    composite rule in v = sqrt(u t).

    Independent oracle for ``a_w_rays``: its nodes move with t (u = v^2/t),
    where the package's rule in x = sqrt(u) is fixed, and each ray integral
    is INT_0^6.5 D(-/+2 - i v^2/t) 2 v e^{-v^2} dv / t.
    """
    weights = _V_W * 2.0 * _V * np.exp(-_V * _V)
    u = _V * _V / t
    lower = np.dot(weights, ray_jump(-2.0 - 1j * u, g, w))
    upper = np.dot(weights, ray_jump(2.0 - 1j * u, g, w))
    return complex((w_norm_sq(g, w) / (2j * math.pi)) * (
        -1j * np.exp(2j * t) * lower / t + 1j * np.exp(-2j * t) * upper / t))


def a_w_rays_plain_exp(ts, g: float, w: float,
                       package_jump: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Ray-deformation amplitude (eps_d = 0) on the package's rule in x, one
    time at a time: e^{-x^2 t} from ``np.exp`` at every node and each ray sum
    correctly rounded (``math.fsum``), with no exp window, prefix moments or
    blocking.

    The jump is ``ray_jump`` (sigma_1 from principal square roots), or with
    ``package_jump`` the package's own (``sigma1`` on the second sheet and
    the difference of ``closedform._boundary_value`` on either side), which
    leaves only the package's way of forming each time's sums to differ.
    Also returns each time's scale N_w^2/(2 pi) SUM e^{-x^2 t} (|D_-| +
    |D_+|), the size of the terms that the ray sums add up: a double
    evaluation of the sums can miss them by a few ulp of it.
    """
    x2 = _RAY_X * _RAY_X
    weights = _RAY_W * 2.0 * _RAY_X

    def weighted_jump(z: np.ndarray) -> np.ndarray:
        if not package_jump:
            return weights * ray_jump(z, g, w)
        sig_above = sigma1(z, SheetTag.Second)
        return weights * (_boundary_value(z, 1.0 / sig_above, g, 0.0, w)
                          - _boundary_value(z, sig_above, g, 0.0, w))

    lower, upper = weighted_jump(-2.0 - 1j * x2), weighted_jump(2.0 - 1j * x2)
    c = w_norm_sq(g, w) / (2.0 * math.pi)
    amps, scales = [], []
    for t in ts:
        kernel = np.exp(-t * x2)
        lo, lo_im, up, up_im = (math.fsum(kernel * part)
                                for part in (lower.real, lower.imag, upper.real, upper.imag))
        amps.append(c * (-np.exp(2j * t) * (lo + 1j * lo_im) + np.exp(-2j * t) * (up + 1j * up_im)))
        scales.append(c * (np.dot(kernel, np.abs(lower)) + np.dot(kernel, np.abs(upper))))
    return np.array(amps), np.array(scales)


def bessel_tail_gl30(ts: np.ndarray, zg: float) -> np.ndarray:
    """INT_0^t e^{i z_g tau} J_1(2 tau)/tau d tau at each time of an ascending
    grid, by the tail's former route: GL30 sums over the panels of width
    ``_panel_width(zg)``, accumulated, plus one GL30 panel per time from its
    panel edge to the time itself, with J_1 from ``bessel_j01`` at every
    node.  No interpolation, Hankel phase factoring or blocking."""
    x, w = _GL30
    width = _panel_width(zg)
    j = np.floor(ts / width)
    j -= j * width > ts

    def gl30(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        half = 0.5 * (b - a)
        tau = half[:, None] * x + 0.5 * (a + b)[:, None]
        _, j1 = bessel_j01(2.0 * tau)
        f = np.where(tau > 1e-12, j1 / np.maximum(tau, 1e-12), 1.0)  # J_1(2 tau)/tau -> 1
        return half * ((f * np.exp(1j * zg * tau)) @ w)

    edges = np.arange(int(j[-1]) + 1) * width
    cum = np.concatenate(([0j], np.cumsum(gl30(edges[:-1], edges[1:]))))
    return cum[j.astype(int)] + gl30(j * width, ts)


def bessel_table_sample_major(x: np.ndarray, seeds: np.ndarray, k_max: int) -> np.ndarray:
    """J_k(x) for k = 0..k_max at each x >= 0, shape (len(x), k_max + 1): the
    former ``evolve.bessel_table``, which ran the same Miller recurrence and
    normalised it into a second, transposed array."""
    x = np.asarray(x, dtype=float)
    rows = int(seeds.max()) + 1
    two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=seeds > 0)
    sol = np.zeros((rows + 2, len(x)))
    sol[seeds, np.arange(len(x))] = 1.0
    row = list(sol)
    for k in range(rows - 1, -1, -1):
        row[k] += (k + 1) * two_over_x * row[k + 1]
        row[k] -= row[k + 2]
    scale = sol[0] + 2.0 * sol[2:rows:2].sum(axis=0)
    table = np.zeros((len(x), k_max + 1))
    kept = min(rows, k_max + 1)
    np.divide(sol[:kept].T, scale[:, None], out=table[:, :kept])
    return table


def moments_per_step(params: ModelParams, center: float, half_width: float, n_rows: int,
                     psi0: np.ndarray, order: int):
    """<psi0|v_k>, (v_k[0], v_k[1]) and <v_k|v_k> for k <= order by the
    former recurrence step: the stencil picks its kernel by dtype at every
    step and writes the |d>, |1> and |2> rows from numpy scalars, and each
    step stores (v_k[0], v_k[1]) on its own."""
    c = 2.0 / half_width
    kernel = np.array([-c, -c * center, -c])
    kernels = {np.dtype(float): kernel, np.dtype(complex): np.insert(kernel, [1, 2], 0.0)}
    d_diag, d_bond = c * (params.eps_d - center), c * params.g

    def h2(v: np.ndarray) -> np.ndarray:
        full = np.convolve(v.view(float), kernels[v.dtype]).view(v.dtype)
        out = full[1:min(len(v), n_rows) + 2]
        out[0] = d_diag * v[0] - d_bond * v[2]
        out[1] = kernel[1] * v[1] + kernel[2] * v[2]
        out[2] = -d_bond * v[0] + kernel[0] * v[1] + kernel[1] * v[2] + kernel[2] * v[3]
        out[-1] = 0.0
        return out

    overlaps = np.empty(order + 1, dtype=psi0.dtype)
    sites = np.empty((order + 1, 2), dtype=psi0.dtype)
    norms_sq = np.empty(order + 1)
    support = max(3, int(np.flatnonzero(psi0)[-1]) + 1)
    psi0 = np.append(psi0[:support], 0.0)
    v_prev, v = psi0, psi0
    for k in range(order + 1):
        overlaps[k] = np.vdot(psi0, v[:support + 1])
        sites[k] = v[:2]
        norms_sq[k] = np.vdot(v, v).real
        if k == 0:
            v = 0.5 * h2(v)
        elif k < order:
            v_next = h2(v)
            v_next[:len(v_prev)] -= v_prev
            v_prev, v = v, v_next
    return overlaps, sites, norms_sq


# ---------------------------------------------------------------------------
# the adaptive branch-cut rule: the cut's former route, now its oracle

class QuadratureError(NumericalError):
    """Oscillatory quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, error_estimate: float) -> None:
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


#: Nodes of the adaptive cut rule on [-1, 1]: GL30 then GL15, evaluated
#: together; row 0 of the weights forms GL30 and row 1 GL15.
_GL_NODES = np.concatenate((_GL30[0], _GL15[0]))
_GL_WEIGHTS = np.zeros((2, len(_GL_NODES)))
_GL_WEIGHTS[0, :30], _GL_WEIGHTS[1, 30:] = _GL30[1], _GL15[1]

#: Stride of the cut rule's phase on an evenly spaced grid: the phase at
#: t_{j + r}, j a multiple of the stride, is the exact exp at t_j times the
#: exact exp at the offset r dt, so one exp per node serves stride times.
PHASE_STRIDE = 16

#: Bisection depth at which an adaptive cut interval is accepted as is.
MAX_DEPTH = 28

#: Open cut intervals at which the quadrature gives up (about 8 MB per
#: interval array); a tolerance that round-off cannot meet would otherwise
#: double the open set at every level.
MAX_OPEN = 1 << 20


def _phase_stride(ts: np.ndarray) -> tuple[int, float]:
    """(M, dt): M = PHASE_STRIDE on an evenly spaced grid of step dt (every time
    within 4 ulp of t_0 + j dt), else M = 1 with no offsets."""
    if len(ts) < 2:
        return 1, 0.0
    dt = (ts[-1] - ts[0]) / (len(ts) - 1)
    off_grid = np.max(np.abs(ts - (ts[0] + dt * np.arange(len(ts)))))
    return (PHASE_STRIDE, dt) if off_grid <= 4.0 * np.spacing(ts[-1]) else (1, 0.0)


def _rule_sums(weighted: np.ndarray, c2: np.ndarray, ts: np.ndarray, stride: int,
               dt: float) -> np.ndarray:
    """(interval, rule, time) sums of weighted * exp(i c2 t) over the nodes.

    ``weighted`` is (interval, rule, node) and ``c2`` = 2 cos k is (interval,
    node).  The phase at t_{j + r}, j a multiple of ``stride``, is the exact
    exp at t_j times the exact exp at the offset r dt.  The offset factors
    are folded into the weights, so one matmul with the exps at every
    stride-th time forms every sum, and no (node, time) phase array is
    built.  A block of exps holds at most 2 BLOCK_NODES entries.
    """
    n_i, n_r, n_n = weighted.shape
    offsets = np.exp(1j * c2[:, None, :] * (dt * np.arange(stride))[:, None])
    mixed = (weighted[:, :, None, :] * offsets[:, None]).reshape(n_i, n_r * stride, n_n)
    base = ts[::stride]
    q_block = max(2 * BLOCK_NODES // (n_i * n_n), 1)
    out = np.empty((n_i, n_r, len(base), stride), dtype=complex)
    for q in range(0, len(base), q_block):
        phase = np.exp(1j * c2[..., None] * base[q:q + q_block])
        sums = (mixed @ phase).reshape(n_i, n_r, stride, -1)
        out[:, :, q:q + q_block] = sums.transpose(0, 1, 3, 2)
    return out.reshape(n_i, n_r, -1)[..., :len(ts)]


def _cut_integral(h, ts: np.ndarray, abs_tol: float) -> np.ndarray:
    """INT_0^pi h(k) exp(2 i t cos k) dk at every time of an ascending grid ts.

    The phase 2 t_max cos k is split at multiples of 4 pi, so each piece
    holds at most two oscillations at every t <= t_max; each piece starts
    as an open interval with an equal share of ``abs_tol``.  Level by level,
    h is evaluated once per node of every open interval, on the GL30 and
    GL15 nodes together, and a matmul with the phase exp(2 i t cos k) forms
    both rules at every time.  After a level, once the error estimates
    |GL30 - GL15| of the accepted and the still-open intervals sum to at
    most ``abs_tol`` at every time, the open intervals are accepted with
    their GL30 values and the rule stops (QUADPACK's global acceptance
    test, Piessens et al. 1983).  Otherwise an interval whose estimate
    max_t |GL30 - GL15| is below its share, or that has been bisected
    MAX_DEPTH times, is accepted with its GL30 values, and the others are
    bisected, each half with half the share.  A non-finite error estimate
    raises at once, since bisection cannot repair it; a time whose accepted
    error estimates sum to more than ``abs_tol`` raises after the last
    level.

    On an evenly spaced grid a node costs one complex exp per PHASE_STRIDE
    times (``_rule_sums``); other grids, and a single time, use a stride of
    1.  No (node, time) phase array is built, a block of exps or of folded
    weights holds at most about 2 BLOCK_NODES entries, and accepted
    intervals are summed block by block, so memory stays flat in the number
    of times.
    """
    t_max = float(ts[-1])
    # k = pi/2 (z = 0) is always an interval boundary: quadrature nodes are
    # strictly interior, so the removable BIC-point 0/0 of the w-state
    # integrand at eps_d = 0 is never sampled
    pts = [0.0, 0.5 * math.pi, math.pi]
    if t_max > 0:
        j_max = int(math.floor(t_max / (2.0 * math.pi)))
        for j in range(-j_max, j_max + 1):
            c = 2.0 * j * math.pi / t_max
            if -1.0 < c < 1.0:
                pts.append(math.acos(c))
    edges = np.unique(np.asarray(pts))
    a, b = edges[:-1], edges[1:]
    tol = np.full(len(a), abs_tol / len(a))

    n_t, n_nodes = len(ts), len(_GL_NODES)
    stride, dt = _phase_stride(ts)
    # intervals whose exps at every stride-th time, and whose weights times
    # the offset exps, fill one block of 2 BLOCK_NODES (at least one); and a
    # multiple of them per evaluation of h
    per_interval = n_nodes * max(-(-n_t // stride), len(_GL_WEIGHTS) * stride)
    i_block = max(2 * BLOCK_NODES // per_interval, 1)
    h_block = i_block * max(BLOCK_NODES // (n_nodes * i_block), 1)

    total = np.zeros(n_t, dtype=complex)
    err_total = np.zeros(n_t)
    for depth in range(MAX_DEPTH + 1):
        done = np.empty(len(a), dtype=bool)
        sum_open = np.zeros(n_t, dtype=complex)
        err_open = np.zeros(n_t)
        for lo in range(0, len(a), h_block):
            a_h, b_h = a[lo:lo + h_block], b[lo:lo + h_block]
            half = 0.5 * (b_h - a_h)
            k = half[:, None] * _GL_NODES + 0.5 * (a_h + b_h)[:, None]
            weighted = half[:, None, None] * _GL_WEIGHTS * h(k)[:, None, :]
            c2 = 2.0 * np.cos(k)
            for i in range(lo, lo + len(half), i_block):
                block = slice(i - lo, i - lo + i_block)
                sums = _rule_sums(weighted[block], c2[block], ts, stride, dt)
                err = np.abs(sums[:, 0] - sums[:, 1])
                if not np.all(np.isfinite(err)):
                    raise QuadratureError("branch-cut quadrature hit a non-finite error estimate",
                                          float(err[~np.isfinite(err)][0]))
                ok = (np.max(err, axis=1) < tol[i:i + i_block]) | (depth == MAX_DEPTH)
                done[i:i + len(ok)] = ok
                total += np.sum(sums[ok, 0], axis=0)
                err_total += np.sum(err[ok], axis=0)
                sum_open += np.sum(sums[~ok, 0], axis=0)
                err_open += np.sum(err[~ok], axis=0)
        if done.all() or np.all(err_total + err_open <= abs_tol):
            total += sum_open
            err_total += err_open
            break
        a, b, tol = a[~done], b[~done], tol[~done]
        if 2 * len(a) > MAX_OPEN:
            raise QuadratureError(
                f"branch-cut quadrature did not converge ({len(a)} intervals open "
                f"after {depth + 1} levels)", float(np.max(err_total + err_open)))
        mid = 0.5 * (a + b)
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        tol = np.repeat(0.5 * tol, 2)
    worst = int(np.argmax(err_total))
    if err_total[worst] > abs_tol:
        raise QuadratureError(f"branch-cut quadrature did not converge at t = {ts[worst]:g}",
                              float(err_total[worst]))
    return total


def a_w_cut_adaptive(t, params: ModelParams, w: float, abs_tol: float):
    """The w-state cut amplitude INT_0^pi h(k) e^{2 i t cos k} dk on the
    adaptive rule (``_cut_integral``), at a time or at each time of an
    ascending grid, to a summed error estimate of at most ``abs_tol``.

    h is the jump of N_w^2 (C0 + Q G_dd) across the cut from one boundary
    value per node (``closedform._boundary_value``, looked up at each call),
    the one above the band, the value below being its complex conjugate.  The
    rule misses a resonance narrower than its nodes (the quasi-BIC,
    0 < |eps_d| << 1) and can be fooled next to a band-edge threshold.
    """
    g, eps_d = params.g, params.eps_d
    nw2 = w_norm_sq(g, w)

    def h(k: np.ndarray) -> np.ndarray:
        above = closedform._boundary_value(-2.0 * np.cos(k), -np.exp(1j * k), g, eps_d, w)
        return (nw2 / (2j * math.pi)) * 2.0 * np.sin(k) * (np.conj(above) - above)

    out = _cut_integral(h, np.atleast_1d(np.asarray(t, dtype=float)), abs_tol)
    return out if np.ndim(t) else complex(out[0])
