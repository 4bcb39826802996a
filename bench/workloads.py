"""Seeded job lists of the four benchmark workloads and their correctness checks.

A workload is a list of :class:`Job` objects that one pass runs in order.
Each job has three parts:

* ``run(outdir)`` is the timed call into ``bicchain``;
* ``load(outdir, returned)`` turns what the call wrote or returned into plain
  arrays, outside the timed region;
* ``check(loaded)`` compares those arrays against a reference from an
  independent route and returns an error message, or ``None`` when the job
  passed.  References are computed once per job and time grid, and cached.

Seed 0 gives the parameters of the paper's figures.  Any other seed redraws
the couplings ``g``, detunings ``eps_d`` and chain amplitudes ``w`` inside the
same regime, while every time span, sample count and job count stays fixed,
so each seed does about the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bicchain import cli, closedform, io
from bicchain.model import ModelParams

#: acceptance tolerances of the repository (three-route agreement, norm drift)
AMP_TOL = 1e-6
NORM_TOL = 1e-9
ROOT_TOL = 1e-10

#: a reference maps a time grid to (indices into it, reference amplitudes there)
Reference = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class Job:
    name: str
    params: dict
    run: Callable[[Path], Any]
    load: Callable[[Path, Any], dict]
    check: Callable[[dict], str | None]
    cache: dict = field(default_factory=dict, repr=False)


class Draw:
    """Parameter source: paper values at seed 0, uniform draws otherwise."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.paper = seed == 0
        self.rng = np.random.default_rng(seed)

    def __call__(self, paper_value: float, lo: float, hi: float) -> float:
        drawn = float(self.rng.uniform(lo, hi))  # drawn even at seed 0, so later draws line up
        return float(paper_value) if self.paper else round(drawn, 6)

    def sign(self, paper_sign: float) -> float:
        drawn = 1.0 if self.rng.random() < 0.5 else -1.0
        return paper_sign if self.paper else drawn


# ---------------------------------------------------------------------------
# shared readers and comparisons (independent of bicchain's own readers)

def read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(``#`` comment lines, header, data rows) of a CSV written by bicchain."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(cell) for cell in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header line")
    return comments, header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _column(header: list[str], data: np.ndarray, name: str) -> np.ndarray:
    return data[:, header.index(name)]


def _amp_error(label: str, got: np.ndarray, ref: np.ndarray) -> str | None:
    dev = float(np.max(np.abs(got - ref)))
    if not dev <= AMP_TOL:
        return f"{label}: max |A - A_ref| = {dev:.3e} > {AMP_TOL:g}"
    return None


def _cached(job: Job, key: Any, compute: Callable[[], Any]) -> Any:
    if key not in job.cache:
        job.cache[key] = compute()
    return job.cache[key]


def _everywhere(route: Callable[[np.ndarray], np.ndarray]) -> Reference:
    return lambda ts: (np.arange(len(ts)), route(ts))


def _from_t1(route: Callable[[np.ndarray], np.ndarray]) -> Reference:
    """Reference at t >= 1 only, where the band-edge rays are exact."""
    def reference(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.nonzero(ts >= 1.0)[0]
        return idx, route(ts[idx])
    return reference


def _cli(argv: list[str]) -> int:
    return cli.main(argv + ["--no-meta-time"])


# ---------------------------------------------------------------------------
# propagate: `bicchain evolve` at the shapes of fig2b and figS3

#: fig2b (perp state) and figS3 (w: states), time spans scaled so that one
#: pass of five evolutions takes about half a second.  The perp run stays long
#: (N = 532 sites), well above every evolution of `crosscheck`.
PERP_TMAX, PERP_SAMPLES = 200.0, 400
W_TMAX, W_SAMPLES = 30.0, 300
W_PAPER = (0.1, 0.5, 1.0, 2.0)


def _evolve_job(name: str, g: float, state: str, t_max: float, n_samples: int,
                reference: Reference) -> Job:
    params = {"command": "evolve", "g": g, "eps_d": 0.0, "state": state,
              "t_max": t_max, "n_samples": n_samples, "grid": "log"}

    def run(outdir: Path) -> int:
        return _cli(["evolve", "--g", repr(g), "--eps-d", "0", "--state", state,
                     "--tmax", repr(t_max), "--samples", str(n_samples),
                     "--grid", "log", "--out", str(outdir / f"{name}.csv")])

    def load(outdir: Path, code: int) -> dict:
        comments, header, data = read_table(outdir / f"{name}.csv")
        return {"exit": code, "t": _column(header, data, "t"),
                "A": _column(header, data, "re_A") + 1j * _column(header, data, "im_A"),
                "norm_err": _column(header, data, "norm_err"),
                "warnings": [c for c in comments if "WARNING" in c]}

    def check(out: dict) -> str | None:
        if out["exit"] != 0:
            return f"{name}: exit code {out['exit']}"
        if len(out["t"]) != n_samples:
            return f"{name}: {len(out['t'])} rows, expected {n_samples}"
        if out["warnings"]:
            return f"{name}: {out['warnings'][0]}"
        drift = float(np.max(np.abs(out["norm_err"])))
        if not drift <= NORM_TOL:
            return f"{name}: max |norm_err| = {drift:.3e} > {NORM_TOL:g}"
        ts = out["t"]
        idx, ref = _cached(job, ts.tobytes(), lambda: reference(ts))
        return _amp_error(name, out["A"][idx], ref)

    job = Job(name, params, run, load, check)
    return job


def propagate(seed: int) -> list[Job]:
    draw = Draw(seed)
    g_perp = draw(1.0, 0.95, 1.0)  # the Bessel reference needs g <= 1
    g_w = draw(0.9, 0.85, 0.95)
    jobs = [_evolve_job("fig2b_perp", g_perp, "perp", PERP_TMAX, PERP_SAMPLES,
                        _everywhere(lambda ts: closedform.bessel_exact_grid(ts, g_perp)))]
    for w_paper in W_PAPER:
        w = draw(w_paper, 0.9 * w_paper, 1.1 * w_paper)
        jobs.append(_evolve_job(
            f"figS3_w{w_paper}", g_w, f"w:{w!r}", W_TMAX, W_SAMPLES,
            _from_t1(lambda ts, w=w: closedform.a_w_rays(ts, ModelParams(g=g_w), w))))
    return jobs


# ---------------------------------------------------------------------------
# farzone: quadrature routes only, each result written with io.write_csv

#: fig2c's log grid and fig2e's resolved window, scaled to t = 3e3
FAR_TMAX, FAR_SAMPLES = 3000.0, 4000
WINDOW_LO, WINDOW_HI, WINDOW_SAMPLES = 2450.0, 2470.0, 2001
RAY_SAMPLES = 500


def _write_amplitude(path: Path, ts: np.ndarray, amp: np.ndarray, meta: dict) -> None:
    io.write_csv(path, ["t", "re_A", "im_A"], [ts, amp.real, amp.imag], meta=meta)


def _farzone_job(name: str, params: dict, ts: np.ndarray,
                 compute: Callable[[np.ndarray], np.ndarray], reference: Reference) -> Job:
    def run(outdir: Path) -> np.ndarray:
        amp = compute(ts)
        _write_amplitude(outdir / f"{name}.csv", ts, amp, params)
        return amp

    def load(outdir: Path, _amp: np.ndarray) -> dict:
        _, header, data = read_table(outdir / f"{name}.csv")
        return {"t": _column(header, data, "t"),
                "A": _column(header, data, "re_A") + 1j * _column(header, data, "im_A")}

    def check(out: dict) -> str | None:
        if not np.array_equal(out["t"], ts):
            return f"{name}: written times differ from the {len(ts)}-point grid"
        idx, ref = _cached(job, "ref", lambda: reference(ts))  # ts is fixed per job
        return _amp_error(name, out["A"][idx], ref)

    job = Job(name, params, run, load, check)
    return job


def farzone(seed: int) -> list[Job]:
    draw = Draw(seed)
    g = draw(0.98, 0.96, 0.99)
    w1 = draw(1.0, 0.9, 1.1)
    p = ModelParams(g=g)
    log_ts = np.geomspace(0.1, FAR_TMAX, FAR_SAMPLES)
    window = np.linspace(WINDOW_LO, WINDOW_HI, WINDOW_SAMPLES)
    ray_ts = np.geomspace(1.0, FAR_TMAX, RAY_SAMPLES)

    def bessel(ts):
        return closedform.bessel_exact_grid(ts, g)

    def rays(w):
        return lambda ts: closedform.a_w_rays(ts, p, w)

    def cut_w1(ts):
        # the cut quadrature is practical at early times only: eight times <= 50
        early = np.nonzero(ts <= 50.0)[0]
        idx = early[np.linspace(0, len(early) - 1, min(8, len(early))).astype(int)]
        return idx, np.array([closedform.a_w_cut(t, p, w1) for t in ts[idx]])

    def params(route, w, grid):
        return {"g": g, "eps_d": 0.0, "route": route, "w": w, "t": grid}

    log_grid = f"0.1:{FAR_TMAX:g}:log{FAR_SAMPLES}"
    window_grid = f"{WINDOW_LO:g}:{WINDOW_HI:g}:linear{WINDOW_SAMPLES}"
    ray_grid = f"1:{FAR_TMAX:g}:log{RAY_SAMPLES}"
    return [
        _farzone_job("fig2c_bessel", params("bessel_exact_grid", 0.0, log_grid),
                     log_ts, bessel, _from_t1(rays(0.0))),
        _farzone_job("fig2e_bessel", params("bessel_exact_grid", 0.0, window_grid),
                     window, bessel, _from_t1(rays(0.0))),
        _farzone_job("rays_w0", params("a_w_rays", 0.0, ray_grid),
                     ray_ts, rays(0.0), _everywhere(bessel)),
        _farzone_job("rays_w1", params("a_w_rays", w1, ray_grid), ray_ts, rays(w1), cut_w1),
    ]


# ---------------------------------------------------------------------------
# crosscheck: `bicchain compare` on four parameter sets

#: (label, paper g, g range, paper eps_d, eps_d range, t_max, samples); labels
#: carry no '.', since compare derives its .csv/.json names with a suffix swap.
#: The detuned set stays free of bound states, as at the paper's (0.9, 0.2):
#: 2 g^2 <= 2 * 0.93^2 = 1.73 < 2 - eps_d.  Above that threshold compare
#: skips the cut route and the job would check nothing.
COMPARE_SETS = (
    ("g09", 0.9, (0.85, 0.95), 0.0, None, 50.0, 101),
    ("g09_eps02", 0.9, (0.85, 0.93), 0.2, (0.18, 0.22), 40.0, 51),
    ("g11", 1.1, (1.05, 1.15), 0.0, None, 50.0, 101),
    ("g07", 0.7, (0.68, 0.72), 0.0, None, 80.0, 81),
)


def expected_routes(g: float, eps_d: float) -> set[str]:
    """Deviation keys `bicchain compare` reports for a bound-state-free set."""
    routes = {"ode_vs_cut"}
    if eps_d == 0.0 and g <= 1.0:
        routes.add("ode_vs_bessel")
    return routes


def _compare_job(label: str, g: float, eps_d: float, t_max: float, n_samples: int) -> Job:
    params = {"command": "compare", "g": g, "eps_d": eps_d, "t_max": t_max,
              "n_samples": n_samples}
    name = f"compare_{label}"

    def run(outdir: Path) -> int:
        return _cli(["compare", "--g", repr(g), "--eps-d", repr(eps_d),
                     "--tmax", repr(t_max), "--samples", str(n_samples),
                     "--out", str(outdir / name)])

    def load(outdir: Path, code: int) -> dict:
        report = json.loads((outdir / f"{name}.json").read_text())
        _, _, data = read_table(outdir / f"{name}.csv")
        return {"exit": code, "deviation": report["max_abs_deviation"], "rows": len(data)}

    def check(out: dict) -> str | None:
        if out["exit"] != 0:
            return f"{name}: exit code {out['exit']}"
        if out["rows"] != n_samples:
            return f"{name}: {out['rows']} rows, expected {n_samples}"
        missing = expected_routes(g, eps_d) - set(out["deviation"])
        if missing:
            return f"{name}: route keys missing: {sorted(missing)}"
        for key, dev in out["deviation"].items():
            if not dev <= AMP_TOL:
                return f"{name}: {key} = {dev:.3e} > {AMP_TOL:g}"
        return None

    return Job(name, params, run, load, check)


def crosscheck(seed: int) -> list[Job]:
    draw = Draw(seed)
    jobs = []
    for label, g0, g_range, eps0, eps_range, t_max, n_samples in COMPARE_SETS:
        g = draw(g0, *g_range)
        eps_d = draw(eps0, *eps_range) if eps_range else 0.0
        jobs.append(_compare_job(label, g, eps_d, t_max, n_samples))
    return jobs


# ---------------------------------------------------------------------------
# spectrum_sweep: `bicchain spectrum` over seeded (g, eps_d), plus fig1

#: seed 0: fig1's and fig3's couplings at eps_d = 0, and fig3's detunings
#: (both signs) at three couplings
SWEEP_G0 = (0.5, 0.7, 0.9, 0.98, 1.0, 1.1)
SWEEP_DETUNED_G = (0.7, 0.9, 1.1)
SWEEP_EPS = (0.005, 0.2, 0.35)


def _sigma(z: complex, g: float, sheet: str) -> complex:
    """Impurity self-energy on a sheet, written out from the model's closed form."""
    if abs(abs(z) - 2.0) < 1e-15 and z.imag == 0.0:
        return z * g * g * (z * z - 2.0) / 2.0
    root = z * np.sqrt(z - 2.0 + 0j) * np.sqrt(z + 2.0 + 0j)
    sign = -1.0 if sheet == "First" else 1.0
    return 0.5 * z * g * g * (z * z - 2.0 + sign * root)


def expected_kinds(g: float, eps_d: float) -> list[tuple[str, str]]:
    """Sorted (kind, sheet) pairs of the discrete spectrum in the sweep regime.

    At eps_d = 0: the BIC plus the symmetric pair at +/-(g + 1/g), bound for
    g > 1, virtual bound for g < 1, band-edge virtual states at g = 1.  With
    detuning: a resonance/anti-resonance pair, a bound state above (below)
    the band iff 2 - eps_d - 2 g^2 < 0 (-2 - eps_d + 2 g^2 > 0), and virtual
    bound states for the rest of the pair.
    """
    if eps_d == 0.0:
        pair = ("Bound", "First") if g > 1.0 else ("VirtualBound", "Second")
        return sorted([("BIC", "First"), pair, pair])
    n_bound = int(2.0 * g * g > 2.0 - eps_d) + int(2.0 * g * g > 2.0 + eps_d)
    return sorted([("Resonance", "Second"), ("AntiResonance", "Second")]
                  + [("Bound", "First")] * n_bound
                  + [("VirtualBound", "Second")] * (2 - n_bound))


def _spectrum_job(index: int, g: float, eps_d: float) -> Job:
    name = f"spectrum_{index:02d}"
    params = {"command": "spectrum", "g": g, "eps_d": eps_d}

    def run(outdir: Path) -> int:
        return _cli(["spectrum", "--g", repr(g), "--eps-d", repr(eps_d),
                     "--out", str(outdir / f"{name}.json")])

    def load(outdir: Path, code: int) -> dict:
        report = json.loads((outdir / f"{name}.json").read_text())
        return {"exit": code, "states": report["states"]}

    def check(out: dict) -> str | None:
        if out["exit"] != 0:
            return f"{name}: exit code {out['exit']}"
        kinds = sorted((s["kind"], s["sheet"]) for s in out["states"])
        if kinds != expected_kinds(g, eps_d):
            return f"{name}: states {kinds}, expected {expected_kinds(g, eps_d)}"
        for s in out["states"]:
            z = complex(s["re_z"], s["im_z"])
            resid = abs(z - eps_d - _sigma(z, g, s["sheet"]))
            if not resid < ROOT_TOL:
                return f"{name}: |z - eps_d - Sigma(z)| = {resid:.3e} at z = {z}"
        if eps_d == 0.0:
            zg = 2.0 if g == 1.0 else g + 1.0 / g
            pair = sorted(s["re_z"] for s in out["states"] if s["kind"] != "BIC")
            if not np.allclose(pair, [-zg, zg], rtol=0.0, atol=1e-9):
                return f"{name}: pair at {pair}, expected +/-{zg!r}"
        return None

    return Job(name, params, run, load, check)


def _fig1_job() -> Job:
    params = {"command": "figure", "figure_id": "fig1", "jobs": 1}

    def run(outdir: Path) -> int:
        return _cli(["figure", "fig1", "--jobs", "1", "--out", str(outdir / "fig1")])

    def load(outdir: Path, code: int) -> dict:
        lines = (outdir / "fig1" / "fig1_spectrum.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        return {"exit": code, "g": np.array([float(r[0]) for r in rows]),
                "z_plus": np.array([float(r[2]) for r in rows]),
                "kind": [r[4] for r in rows]}

    def check(out: dict) -> str | None:
        if out["exit"] != 0:
            return f"fig1: exit code {out['exit']}"
        g = out["g"]
        if len(g) != 200:
            return f"fig1: {len(g)} rows, expected 200"
        dev = float(np.max(np.abs(out["z_plus"] - (g + 1.0 / g))))
        if not dev <= 1e-12:
            return f"fig1: max |z_plus - (g + 1/g)| = {dev:.3e}"
        if out["kind"] != ["Bound" if x > 1.0 else "VirtualBound" for x in g]:
            return "fig1: kind column does not follow g > 1"
        return None

    return Job("fig1", params, run, load, check)


def spectrum_sweep(seed: int) -> list[Job]:
    draw = Draw(seed)
    points = [(draw(g, 0.6, 1.4), 0.0) for g in SWEEP_G0]
    for g in SWEEP_DETUNED_G:
        for eps in SWEEP_EPS:
            for sign in (1.0, -1.0):
                # away from the thresholds 2 g^2 = 2 -/+ eps_d, where a real root
                # meets the band edge and the count of states changes
                g_drawn = draw(g, 0.6, 0.9) if g < 1.0 else draw(g, 1.1, 1.4)
                eps_drawn = draw(eps, 0.005, 0.35) * draw.sign(sign)
                points.append((g_drawn, eps_drawn))
    return [_spectrum_job(i, g, eps) for i, (g, eps) in enumerate(points)] + [_fig1_job()]


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "propagate": propagate,
    "farzone": farzone,
    "crosscheck": crosscheck,
    "spectrum_sweep": spectrum_sweep,
}


def warm_up(workload: str, outdir: Path) -> None:
    """One small job of the workload's kind, so lazy set-up is paid before timing."""
    if workload == "propagate":
        code = _cli(["evolve", "--g", "0.9", "--state", "w:1.0", "--tmax", "5",
                     "--samples", "50", "--grid", "log", "--out", str(outdir / "warm.csv")])
    elif workload == "farzone":
        ts = np.geomspace(1.0, 10.0, 20)
        _write_amplitude(outdir / "warm.csv", ts,
                         closedform.bessel_exact_grid(ts, 0.98)
                         + closedform.a_w_rays(ts, ModelParams(g=0.98), 1.0), {})
        code = 0
    elif workload == "crosscheck":
        code = _cli(["compare", "--g", "0.9", "--eps-d", "0.2", "--tmax", "5",
                     "--samples", "6", "--out", str(outdir / "warm")])
    else:
        code = _cli(["spectrum", "--g", "0.9", "--eps-d", "0.2",
                     "--out", str(outdir / "warm.json")])
    if code != 0:
        raise RuntimeError(f"warm-up job of {workload} exited with code {code}")
