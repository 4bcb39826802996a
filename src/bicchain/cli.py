"""Command-line experiment runner.

Subcommands: ``spectrum`` (discrete-spectrum JSON report), ``evolve``
(survival/non-escape CSV), ``analytic`` (closed-form overlay CSV),
``compare`` (cross-validation of the evolution against the semi-analytic
routes, CSV + JSON), ``figure`` (regenerate the data behind a named
figure as one CSV per panel).

``FIGURES`` is the one table of figures: each figure id maps to its panels,
and a panel ``(kind, name, *args)`` is written to ``<name>.csv`` by
``PANEL_WRITERS[kind](path, *args)``, for kind ``spectrum``, ``evolve``,
``overlay`` (closed-form curves by tag, from ``closedform.LAWS``) or ``bessel``.

Exit codes: 0 success; 2 for a ``ConfigError`` (invalid configuration or
request) or an ``OSError``; 3 for a ``NumericalError`` or an arithmetic
overflow.  Any other exception is a bug and ends in a traceback (exit 1).
Data rows never carry timestamps; metadata carries one only without
``--no-meta-time``, so repeated identical invocations with the flag produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, analysis, closedform, io, spectrum
from .closedform import ApproximationTag
from .evolve import (AmplitudeSeries, EvolveOptions, ProbabilitySeries, evolve,
                     log_grid_start, nonescape, survival)
from .model import (ConfigError, InvalidParameterError, ModelParams, NumericalError,
                    bic_state, perp_state, w_state)


def _parse_state(spec: str):
    """Parse 'bic' | 'perp' | 'w:<x>' into a state factory."""
    if spec == "bic":
        return "bic", lambda g, n: bic_state(g, n)
    if spec == "perp":
        return "perp", lambda g, n: perp_state(g, n)
    if spec.startswith("w:"):
        try:
            w_val = float(spec[2:])
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse w amplitude in state spec {spec!r}") from exc
        return spec, lambda g, n: w_state(g, w_val, n)
    raise InvalidParameterError(f"unknown state spec {spec!r}; use bic, perp, or w:<x>")


def _parse_sites(spec: str | None) -> int | str | None:
    """--sites as ``EvolveOptions.n_sites``; None when the flag is not given."""
    if spec in (None, "auto"):
        return spec
    try:
        n_sites = int(spec)
    except ValueError:
        n_sites = 0
    if n_sites < 3:
        raise InvalidParameterError(f"--sites must be 'auto' or an integer >= 3, got {spec!r}")
    return n_sites


def _evolve_options(args, grid: str) -> EvolveOptions:
    """The run's EvolveOptions; a flag that is not given keeps its default there."""
    given = {"n_sites": _parse_sites(args.sites), "rel_tol": args.rel_tol,
             "abs_tol": args.abs_tol}
    return EvolveOptions(t_max=args.tmax, n_samples=args.samples, grid=grid,
                         **{key: value for key, value in given.items() if value is not None})


def _run_evolution(params: ModelParams, state_spec: str,
                   opts: EvolveOptions) -> tuple[AmplitudeSeries, str]:
    label, factory = _parse_state(state_spec)
    return evolve(params, factory(params.g, opts.resolved_sites(params)), opts), label


# ---------------------------------------------------------------------------
# analytic curves

def _grid(t_lo: float, t_hi: float, n: int, grid: str) -> np.ndarray:
    return np.geomspace(t_lo, t_hi, n) if grid == "log" else np.linspace(t_lo, t_hi, n)


def _parse_tags(spec: str) -> list[ApproximationTag]:
    """Parse a comma-separated list of ApproximationTag names."""
    try:
        return [ApproximationTag(name) for name in spec.split(",")]
    except ValueError as exc:
        valid = ", ".join(t.value for t in ApproximationTag)
        raise InvalidParameterError(f"{exc}; valid tags: {valid}") from exc


def _write_curves(path: str | Path, params: ModelParams, tags: list[ApproximationTag],
                  ts: np.ndarray, meta: dict, meta_time: bool) -> None:
    """Analytic CSV of every tag's curve on ``ts``; ``meta`` gains the
    ``tags`` and ``tool_version`` keys."""
    rows: list[tuple[float, float, str, int]] = []
    for tag in tags:
        vals, window = closedform.LAWS[tag].curve(params, ts)
        rows.extend((float(t), float(v), tag.value, int(w))
                    for t, v, w in zip(ts, vals, window))
    meta = {**meta, "tags": ",".join(t.value for t in tags), "tool_version": __version__}
    io.write_analytic_csv(path, rows, meta, meta_time=meta_time)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_spectrum(args) -> int:
    params = ModelParams(g=args.g, eps_d=args.eps_d)
    report = spectrum.spectrum_report(params)
    report["meta"] = {"tool_version": __version__}
    if not args.no_meta_time:
        report["meta"]["generated_at"] = io.timestamp()
    io.write_json(args.out, report)
    return 0


def _cmd_evolve(args) -> int:
    params = ModelParams(g=args.g, eps_d=args.eps_d)
    series, label = _run_evolution(params, args.state, _evolve_options(args, args.grid))
    io.write_evolve_csv(args.out, series, label, __version__,
                        meta_time=not args.no_meta_time)
    return 0


def _cmd_analytic(args) -> int:
    if not args.tags:
        raise InvalidParameterError("analytic requires at least one --tags entry")
    if not (args.tmax > 0 and np.isfinite(args.tmax)):
        raise InvalidParameterError(f"--tmax must be positive and finite, got {args.tmax}")
    if args.samples < 2:
        raise InvalidParameterError(f"--samples must be >= 2, got {args.samples}")
    tags = _parse_tags(args.tags)
    params = ModelParams(g=args.g, eps_d=args.eps_d)
    # closed forms with 1/t factors need t > 0; start the grid off zero
    t_lo = log_grid_start(args.tmax) if args.grid == "log" else args.tmax / args.samples
    ts = _grid(t_lo, args.tmax, args.samples, args.grid)
    meta = {"g": args.g, "eps_d": args.eps_d, "t_max": args.tmax,
            "n_samples": args.samples, "grid": args.grid}
    _write_curves(args.out, params, tags, ts, meta, not args.no_meta_time)
    return 0


def _compare_fits(params: ModelParams, p_perp, p_1d) -> dict:
    """Best-effort FitReports for the zones reachable on this grid."""
    fits: dict[str, dict] = {}
    scales = spectrum.timescales(params.g)
    t_max = float(p_perp.times[-1])
    near_hi = min(8.0, 0.1 * scales.t_delta) if np.isfinite(scales.t_delta) else 8.0
    with suppress(ValueError):
        fits["near_zone_phase"] = analysis.fit_phase(
            p_perp, 2.0, near_hi, detrend_exponent=-1.0).to_json_dict()
    if params.g < 1.0 and np.isfinite(scales.t_delta) and t_max >= 8.0 * scales.t_delta:
        lo, hi = 5.0 * scales.t_delta, t_max
        with suppress(ValueError):
            fits["far_zone_power_law"] = analysis.fit_power_law(p_perp, lo, hi).to_json_dict()
            fits["far_zone_phase"] = analysis.fit_phase(
                p_perp, lo, hi, detrend_exponent=-3.0).to_json_dict()
    elif params.g == 1.0 and t_max > 20.0:
        with suppress(ValueError):
            fits["near_zone_power_law"] = analysis.fit_power_law(
                p_perp, 5.0, t_max).to_json_dict()
    if params.eps_d != 0.0 and t_max >= 40.0:
        hi = min(60.0, t_max)
        for name, series in (("shelf_1d", p_1d), ("shelf_perp", p_perp)):
            t_tr, v_tr = analysis.find_troughs(series, 15.0, hi)
            if len(t_tr) >= 4 and np.all(v_tr > 0):
                trough_series = analysis.ProbabilitySeries(times=t_tr, values=v_tr)
                fits[name] = analysis.fit_exponential(
                    trough_series, float(t_tr[0]), float(t_tr[-1])).to_json_dict()
    return fits


def _cmd_compare(args) -> int:
    params = ModelParams(g=args.g, eps_d=args.eps_d)
    series, label = _run_evolution(params, "perp", _evolve_options(args, "linear"))
    ts = series.times
    a_ode = series.overlap
    header = ["t", "re_A_ode", "im_A_ode"]
    columns = [ts, a_ode.real, a_ode.imag]
    deviations: dict[str, float] = {}

    # z - eps_d - Sigma(z) rises monotonically on each first-sheet segment
    # |z| > 2, so a bound state lies above (below) the band iff
    # 2 g^2 > 2 - eps_d (2 + eps_d); no root finding, even at a threshold
    has_bound = params.eps_d != 0.0 and 2.0 * params.g ** 2 > 2.0 - abs(params.eps_d)
    if not has_bound:
        if params.eps_d == 0.0:
            a_cut = (np.array([closedform.a_br_quadrature(t, params.g) for t in ts])
                     + closedform.bound_term(ts, params.g))
        else:
            a_cut = np.array([closedform.a_w_cut(t, params, w=0.0) for t in ts])
        header += ["re_A_cut", "im_A_cut"]
        columns += [a_cut.real, a_cut.imag]
        deviations["ode_vs_cut"] = float(np.max(np.abs(a_ode - a_cut)))
    if params.eps_d == 0.0 and params.g <= 1.0:
        a_bessel = closedform.bessel_exact_grid(ts, params.g)
        header += ["re_A_bessel", "im_A_bessel"]
        columns += [a_bessel.real, a_bessel.imag]
        deviations["ode_vs_bessel"] = float(np.max(np.abs(a_ode - a_bessel)))

    report = {
        "params": params.to_dict(),
        "state": label,
        "t_max": args.tmax,
        "n_samples": args.samples,
        "max_abs_deviation": deviations,
        "fits": _compare_fits(params, survival(series), nonescape(series)),
        "meta": {"tool_version": __version__},
    }
    out = Path(args.out)
    meta = {"g": params.g, "eps_d": params.eps_d, "t_max": args.tmax,
            "n_samples": args.samples, "tool_version": __version__}
    io.write_csv(out.with_suffix(".csv"), header, columns, meta=meta,
                 meta_time=not args.no_meta_time)
    io.write_json(out.with_suffix(".json"), report)
    return 0


# ---------------------------------------------------------------------------
# figures

def _write_fig1(path: Path, *, meta_time: bool) -> None:
    gs = np.round(np.arange(0.01, 2.0000001, 0.01), 10)
    zg = gs + 1.0 / gs  # spectrum.z_gap at each g, elementwise
    meta = {"figure": "fig1", "eps_d": 0.0, "g_range": "0.01:2.0:0.01",
            "tool_version": __version__}
    io.write_csv(path, ["g", "z_bic", "z_plus", "z_minus", "kind"],
                 [gs, np.zeros_like(gs), zg, -zg, np.where(gs > 1.0, "Bound", "VirtualBound")],
                 meta=meta, meta_time=meta_time)


def _write_evolve_panel(path: Path, g: float, eps_d: float, state_spec: str,
                        t_max: float, n_samples: int, grid: str, *, meta_time: bool) -> None:
    series, label = _run_evolution(ModelParams(g=g, eps_d=eps_d), state_spec,
                                   EvolveOptions(t_max=t_max, n_samples=n_samples, grid=grid))
    extra_meta = {"figure_panel": path.stem}
    if eps_d != 0.0:
        sep = _separation_time(survival(series), nonescape(series))
        if sep is not None:
            extra_meta["separation_time_env10pct"] = io.format_number(sep)
    io.write_evolve_csv(path, series, label, __version__, meta_time=meta_time,
                        extra_meta=extra_meta)


def _separation_time(p_perp: ProbabilitySeries, p_1d: ProbabilitySeries) -> float | None:
    """First time the non-escape curve visibly departs from the survival one.

    'Visible' on the figures' log scale means the oscillation minima of
    P_1d fill in to within a decade of the local P_perp peak envelope: the
    recorded time is the first P_1d trough exceeding 10% of that envelope.
    Pointwise ratios are useless here (they spike at every oscillation
    zero), and the deep trough floors of both curves scale identically with
    the detuning.
    """
    lo, hi = float(p_perp.times[0]), float(p_perp.times[-1])
    t_tr, v_tr = analysis.find_troughs(p_1d, lo, hi)
    t_pk, v_pk = analysis.find_peaks(p_perp, lo, hi)
    if len(t_tr) == 0 or len(t_pk) == 0:
        return None
    envelope = np.interp(t_tr, t_pk, v_pk)
    idx = np.nonzero(v_tr > 0.1 * envelope)[0]
    return float(t_tr[idx[0]]) if len(idx) else None


def _write_overlay_panel(path: Path, g: float, eps_d: float, tags: str, t_lo: float,
                         t_hi: float, n_samples: int, grid: str, *, meta_time: bool) -> None:
    _write_curves(path, ModelParams(g=g, eps_d=eps_d), _parse_tags(tags),
                  _grid(t_lo, t_hi, n_samples, grid),
                  {"figure_panel": path.stem, "g": g, "eps_d": eps_d}, meta_time)


def _write_bessel_panel(path: Path, g: float, t_lo: float, t_hi: float, n_samples: int,
                        grid: str, *, meta_time: bool) -> None:
    # far times of g = 0.98 (T_Delta = 2450) are out of desk scale for the
    # direct evolution; the exact Bessel representation supplies the curve
    ts = _grid(t_lo, t_hi, n_samples, grid)
    p = np.abs(closedform.bessel_exact_grid(ts, g)) ** 2
    meta = {"figure_panel": path.stem, "g": g, "eps_d": 0.0,
            "route": "bessel_exact",
            "t_range": f"{t_lo:g}:{t_hi:g}:{grid}{n_samples}",
            "tool_version": __version__}
    io.write_csv(path, ["t", "P_perp"], [ts, p], meta=meta, meta_time=meta_time)


PANEL_WRITERS = {
    "spectrum": _write_fig1,
    "evolve": _write_evolve_panel,
    "overlay": _write_overlay_panel,
    "bessel": _write_bessel_panel,
}

FIGURES: dict[str, list[tuple]] = {
    "fig1": [("spectrum", "fig1_spectrum")],
    "fig2a": [
        ("evolve", "fig2a_evolve", 1.1, 0.0, "perp", 200.0, 4001, "linear"),
        ("overlay", "fig2a_overlays", 1.1, 0.0, "BoundTerm", 0.05, 200.0, 2000, "linear"),
    ],
    "fig2b": [
        ("evolve", "fig2b_evolve", 1.0, 0.0, "perp", 1000.0, 4000, "log"),
        ("overlay", "fig2b_overlays", 1.0, 0.0, "NearZoneEarlyProb", 0.5, 1000.0, 1000, "log"),
    ],
    "fig2cde": [
        ("evolve", "fig2c_evolve", 0.98, 0.0, "perp", 1000.0, 4000, "log"),
        ("bessel", "fig2c_bessel", 0.98, 0.1, 30000.0, 4000, "log"),
        ("evolve", "fig2d_evolve", 0.98, 0.0, "perp", 30.0, 3000, "linear"),
        ("overlay", "fig2d_overlays", 0.98, 0.0, "NearZoneEarlyProb,NearZoneAmp,EarlyBessel",
         1.0, 30.0, 2900, "linear"),
        # a resolved far-zone close-up at 5 T_Delta, about 25 oscillation periods
        ("bessel", "fig2e_bessel", 0.98, 12250.0, 12290.0, 4001, "linear"),
        ("overlay", "fig2e_overlays", 0.98, 0.0, "FarZoneProb", 12250.0, 12290.0, 2000, "linear"),
    ],
    "fig3a": [("evolve", "fig3a_evolve", 0.9, 0.005, "perp", 400.0, 3000, "log")],
    "fig3b": [
        ("evolve", "fig3b_evolve", 0.9, 0.2, "perp", 400.0, 3000, "log"),
        ("overlay", "fig3b_overlays", 0.9, 0.2, "ResPole1d,ResPolePerp", 1.0, 400.0, 800, "log"),
    ],
    "fig3c": [("evolve", "fig3c_evolve", 0.9, 0.35, "perp", 400.0, 3000, "log")],
    "figS1": [
        ("evolve", "figS1_g0.9_evolve", 0.9, 0.0, "perp", 300.0, 3000, "log"),
        ("overlay", "figS1_g0.9_overlays", 0.9, 0.0, "NearZoneEarlyProb,FarZoneProb",
         0.5, 300.0, 1500, "log"),
        ("evolve", "figS1_g0.7_evolve", 0.7, 0.0, "perp", 300.0, 3000, "log"),
        ("overlay", "figS1_g0.7_overlays", 0.7, 0.0, "NearZoneEarlyProb,FarZoneProb",
         0.5, 300.0, 1500, "log"),
    ],
    "figS2": [
        ("evolve", "figS2_evolve", 0.9, 0.0, "perp", 20.0, 4000, "linear"),
        ("overlay", "figS2_overlays", 0.9, 0.0, "EarlyBessel,NearZoneEarlyProb",
         0.5, 20.0, 2000, "linear"),
    ],
    "figS3": [("evolve", f"figS3_w{w}_evolve", 0.9, 0.0, f"w:{w}", 200.0, 3000, "log")
              for w in (0.1, 0.5, 1.0, 2.0)],
    "figS4": [
        *(("evolve", f"figS4_g{g}_evolve", g, 0.0, "w:1.0", 300.0, 3000, "log")
          for g in (0.7, 0.9, 1.0, 1.1)),
        ("overlay", "figS4_g1.0_overlays", 1.0, 0.0, "WNearZoneG1", 1.0, 300.0, 1000, "log"),
        ("overlay", "figS4_g0.7_overlays", 0.7, 0.0, "WFarZone", 1.0, 300.0, 1000, "log"),
        ("overlay", "figS4_g0.9_overlays", 0.9, 0.0, "WFarZone", 1.0, 300.0, 1000, "log"),
    ],
}


def _write_panel(outdir: Path, meta_time: bool, panel: tuple) -> None:
    kind, name, *args = panel
    PANEL_WRITERS[kind](outdir / f"{name}.csv", *args, meta_time=meta_time)


def _cmd_figure(args) -> int:
    if args.figure_id not in FIGURES:
        raise InvalidParameterError(
            f"unknown figure id {args.figure_id!r}; valid ids: {', '.join(FIGURES)}")
    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {args.jobs}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write = partial(_write_panel, outdir, not args.no_meta_time)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        list(pool.map(write, FIGURES[args.figure_id]))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicchain",
        description="Decay near a bound state in continuum on a side-coupled chain")
    parser.add_argument("--version", action="version", version=f"bicchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p, eps_default=0.0):
        p.add_argument("--g", type=float, required=True, help="chain-impurity coupling (units J)")
        p.add_argument("--eps-d", type=float, default=eps_default, dest="eps_d",
                       help="impurity detuning (units J)")

    def add_common(p):
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--no-meta-time", action="store_true",
                       help="omit the metadata timestamp (byte-identical reruns)")
        p.add_argument("--config", default=None,
                       help="key=value file of defaults; explicit flags take precedence")

    p_spec = sub.add_parser("spectrum", help="discrete spectrum JSON report")
    add_model_args(p_spec)
    add_common(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)

    def add_evolve_args(p):
        p.add_argument("--tmax", type=float, required=True, help="evolution time (units 1/J)")
        p.add_argument("--samples", type=int, default=2001, help="number of sample times")
        p.add_argument("--grid", choices=("linear", "log"), default="linear")
        p.add_argument("--sites", help="chain truncation: auto or an integer")
        p.add_argument("--rel-tol", type=float, dest="rel_tol")
        p.add_argument("--abs-tol", type=float, dest="abs_tol")

    p_ev = sub.add_parser("evolve", help="numerical evolution CSV")
    add_model_args(p_ev)
    p_ev.add_argument("--state", default="perp", help="initial state: bic, perp, or w:<x>")
    add_evolve_args(p_ev)
    add_common(p_ev)
    p_ev.set_defaults(func=_cmd_evolve)

    p_an = sub.add_parser("analytic", help="closed-form overlay CSV")
    add_model_args(p_an)
    p_an.add_argument("--tags", required=True,
                      help="comma-separated ApproximationTag names")
    p_an.add_argument("--tmax", type=float, required=True)
    p_an.add_argument("--samples", type=int, default=1000)
    p_an.add_argument("--grid", choices=("linear", "log"), default="log")
    add_common(p_an)
    p_an.set_defaults(func=_cmd_analytic)

    p_cmp = sub.add_parser("compare", help="cross-validate evolution vs semi-analytic routes")
    add_model_args(p_cmp)
    add_evolve_args(p_cmp)
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fig = sub.add_parser("figure", help="regenerate figure data (one CSV per panel)")
    p_fig.add_argument("figure_id", help=f"one of: {', '.join(FIGURES)}")
    p_fig.add_argument("--jobs", type=int, default=1, help="parallel panel workers")
    add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config FILE (or --config=FILE) into flags placed before the
    explicit ones.

    The file holds one key=value pair per line ('#' comments allowed); keys
    map to long options (tmax -> --tmax, no_meta_time -> --no-meta-time).
    Because the expansion lands right after the subcommand, any flag given
    explicitly on the command line overrides the file.
    """
    for idx, token in enumerate(argv):
        if token == "--config":
            if idx + 1 >= len(argv):
                raise InvalidParameterError("--config requires a file path")
            path = argv[idx + 1]
            break
        if token.startswith("--config="):
            path = token.partition("=")[2]
            break
    else:
        return argv
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidParameterError(f"config line {line!r} is not key=value")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if flag == "--no-meta-time":
            if value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        else:
            tokens += [flag, value]
    return argv[:1] + tokens + argv[1:]


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write '--opt -1e-3' as '--opt=-1e-3'.

    argparse reads a token that starts with '-' as an option unless it looks
    like a negative number, and its test for that misses exponent notation.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        args = parser.parse_args(_attach_negative_values(argv))
        return args.func(args)
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
