"""Command-line experiment runner.

Subcommands: ``spectrum`` (discrete-spectrum JSON report), ``evolve``
(survival/non-escape CSV), ``analytic`` (closed-form overlay CSV),
``compare`` (cross-validation of the evolution against the semi-analytic
routes, CSV + JSON), ``figure`` (regenerate the data behind one or more
named figures, or ``all``, as one CSV per panel).

``FIGURES`` is the one table of figures: each figure id maps to its panels,
and a panel row ``(writer, name, *args)`` starts with its writer, which
``writer(<name>.csv, *args)`` calls: ``_fig1``, ``_evolution``,
``_overlay`` (closed-form curves by tag name, the keys of ``closedform.LAWS``)
or ``_bessel``.

Exit codes: 0 success; 2 for a ``ConfigError`` (invalid configuration or
request), an ``OSError`` or a ``MemoryError`` (a request too large to
allocate); 3 for a ``NumericalError`` or an arithmetic overflow.  Any other
exception is a bug and ends in a traceback (exit 1).  Data rows never carry
timestamps; metadata carries one only without ``--no-meta-time``, so
repeated identical invocations with the flag produce byte-identical files.

:func:`main` builds its parsers once per process and finds the handler
``_cmd_<command>`` by name.  When the first argument names a command, that
command's own parser reads the rest, in about 25 us; only any other argument
list (``--version``, ``--help``, a missing or unknown command) goes through
the top-level parser, whose two-level parse takes about 50 us (2-vCPU x86
host, Python 3.11).  An in-process caller such as a test or a notebook so
pays no parser build, about 1.5 ms, per call.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, analysis, closedform, io, spectrum
from .evolve import (AmplitudeSeries, EvolveOptions, ProbabilitySeries, evolve,
                     log_grid_start, nonescape, survival)
from .model import (ConfigError, InvalidParameterError, ModelParams, NumericalError,
                    StateVector, bic_state, perp_state, w_state)


def _parse_state(spec: str, g: float) -> tuple[str, StateVector]:
    """Label and state on {|d>, |1>, |2>} of 'bic' | 'perp' | 'w:<x>'."""
    if spec == "bic":
        return "bic", bic_state(g, 3)
    if spec == "perp":
        return "perp", perp_state(g, 3)
    if spec.startswith("w:"):
        try:
            w_val = float(spec[2:])
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse w amplitude in state spec {spec!r}") from exc
        return spec, w_state(g, w_val, 3)
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
    given = {"n_samples": args.samples, "n_sites": _parse_sites(args.sites),
             "abs_tol": args.abs_tol}
    return EvolveOptions(t_max=args.tmax, grid=grid,
                         **{key: value for key, value in given.items() if value is not None})


def _run_evolution(params: ModelParams, state_spec: str,
                   opts: EvolveOptions) -> tuple[AmplitudeSeries, str]:
    label, state = _parse_state(state_spec, params.g)
    return evolve(params, state, opts), label


# ---------------------------------------------------------------------------
# analytic curves

def _grid(t_lo: float, t_hi: float, n: int, grid: str) -> np.ndarray:
    return np.geomspace(t_lo, t_hi, n) if grid == "log" else np.linspace(t_lo, t_hi, n)


def _parse_tags(spec: str) -> list[str]:
    """The comma-separated law names of ``spec``, each a key of ``closedform.LAWS``."""
    tags = spec.split(",")
    for tag in tags:
        if tag not in closedform.LAWS:
            raise InvalidParameterError(
                f"{tag!r} is not a law name; valid tags: {', '.join(closedform.LAWS)}")
    return tags


def _write_curves(path: str | Path, params: ModelParams, tags: list[str],
                  ts: np.ndarray, meta: dict, meta_time: bool) -> None:
    """Analytic CSV of every tag's curve on ``ts``; ``meta`` gains the
    ``tags`` and ``tool_version`` keys."""
    rows: list[tuple[float, float, str, int]] = []
    for tag in tags:
        try:  # numpy raises too: an overflow is refused, not written as inf
            with np.errstate(over="raise", divide="raise"):
                vals, window = closedform.LAWS[tag].curve(params, ts)
        except ArithmeticError as exc:  # beyond what the closed form represents
            raise InvalidParameterError(
                f"{tag} is not representable in double precision at "
                f"g = {params.g:g}, eps_d = {params.eps_d:g}, t = {ts[0]:g} to {ts[-1]:g}: "
                "a power of g, eps_d or t in the law over- or underflows") from exc
        rows.extend((float(t), float(v), tag, int(w))
                    for t, v, w in zip(ts, vals, window))
    meta = {**meta, "tags": ",".join(tags), "tool_version": __version__}
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
    io.write_evolve_csv(args.out, series, label, meta_time=not args.no_meta_time)
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


def _compare_fits(params: ModelParams, scales: spectrum.Timescales, p_perp, p_1d) -> dict:
    """Best-effort FitReports for the zones reachable on this grid."""
    fits: dict[str, dict] = {}
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


def _compare_stem(spec: str) -> Path:
    """The <out> of compare's <out>.csv and <out>.json.  Only a .csv or
    .json suffix is dropped, so a dotted name such as cmp_g0.9 keeps its
    dot; a name that is empty, ends in a separator or names an existing
    directory is refused."""
    out = Path(spec)
    if not out.name or spec.endswith(("/", os.sep)) or out.is_dir():
        raise InvalidParameterError(
            f"compare --out must name a file stem, not a directory: {spec!r}")
    return out.with_suffix("") if out.suffix in (".csv", ".json") else out


def _cmd_compare(args) -> int:
    out = _compare_stem(args.out)
    params = ModelParams(g=args.g, eps_d=args.eps_d)
    scales = spectrum.timescales(params.g)  # the fits need them: refuse before evolving
    opts = _evolve_options(args, "linear")
    with_bessel = params.eps_d == 0.0 and params.g <= 1.0
    if with_bessel:
        closedform.check_bessel_span(opts.t_max, params.g)
    series, label = _run_evolution(params, "perp", opts)
    ts = series.times
    a_ode = series.overlap
    # route name -> amplitude, in column order; the cut route adds the bound states
    routes = {"ode": a_ode,
              "cut": closedform.a_w_cut(ts, params, 0.0) + closedform.a_w_poles(ts, params, 0.0)}
    if with_bessel:
        routes["bessel"] = closedform.bessel_exact_grid(ts, params.g)
    header = ["t", *(f"{part}_A_{name}" for name in routes for part in ("re", "im"))]
    columns = [ts, *(part for amp in routes.values() for part in (amp.real, amp.imag))]
    deviations = {f"ode_vs_{name}": float(np.max(np.abs(a_ode - amp)))
                  for name, amp in routes.items() if name != "ode"}

    report = {
        "params": params.to_dict(),
        "state": label,
        "t_max": args.tmax,
        "n_samples": series.options.n_samples,
        "max_abs_deviation": deviations,
        "fits": _compare_fits(params, scales, survival(series), nonescape(series)),
        "meta": {"tool_version": __version__},
        "poles": [{"re_z": z.real, "im_z": z.imag, "re_residue": r.real, "im_residue": r.imag}
                  for z, r in spectrum.first_sheet_poles(params, 0.0)],
    }
    meta = {"g": params.g, "eps_d": params.eps_d, "t_max": args.tmax,
            "n_samples": series.options.n_samples, "tool_version": __version__}
    io.write_csv(out.with_name(out.name + ".csv"), header, columns, meta=meta,
                 meta_time=not args.no_meta_time)
    io.write_json(out.with_name(out.name + ".json"), report)
    return 0


# ---------------------------------------------------------------------------
# figures

def _fig1(path: Path, *, meta_time: bool) -> None:
    """The eps_d = 0 discrete spectrum against g."""
    gs = np.round(np.arange(0.01, 2.0000001, 0.01), 10)
    zg = gs + 1.0 / gs  # spectrum.z_gap at each g, elementwise
    meta = {"figure": "fig1", "eps_d": 0.0, "g_range": "0.01:2.0:0.01",
            "tool_version": __version__}
    io.write_csv(path, ["g", "z_bic", "z_plus", "z_minus", "kind"],
                 [gs, np.zeros_like(gs), zg, -zg, np.where(gs > 1.0, "Bound", "VirtualBound")],
                 meta=meta, meta_time=meta_time)


def _evolution(path: Path, g: float, eps_d: float, state_spec: str, t_max: float,
               n_samples: int, grid: str, *, meta_time: bool) -> None:
    """An evolve panel, with the separation time of a detuned run."""
    series, label = _run_evolution(ModelParams(g=g, eps_d=eps_d), state_spec,
                                   EvolveOptions(t_max=t_max, n_samples=n_samples, grid=grid))
    extra_meta = {"figure_panel": path.stem}
    if eps_d != 0.0:
        sep = _separation_time(survival(series), nonescape(series))
        if sep is not None:
            extra_meta["separation_time_env10pct"] = io.format_number(sep)
    io.write_evolve_csv(path, series, label, meta_time=meta_time, extra_meta=extra_meta)


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


def _overlay(path: Path, g: float, eps_d: float, tags: str, t_lo: float, t_hi: float,
             n_samples: int, grid: str, *, meta_time: bool) -> None:
    """Closed-form curves of the comma-separated law names ``tags``."""
    _write_curves(path, ModelParams(g=g, eps_d=eps_d), _parse_tags(tags),
                  _grid(t_lo, t_hi, n_samples, grid),
                  {"figure_panel": path.stem, "g": g, "eps_d": eps_d}, meta_time)


def _bessel(path: Path, g: float, t_lo: float, t_hi: float, n_samples: int, grid: str, *,
            meta_time: bool) -> None:
    """P_perp from the exact Bessel representation (eps_d = 0)."""
    # far times of g = 0.98 (T_Delta = 2450) are out of desk scale for the
    # direct evolution; the exact Bessel representation supplies the curve
    ts = _grid(t_lo, t_hi, n_samples, grid)
    p = np.abs(closedform.bessel_exact_grid(ts, g)) ** 2
    width, panels = closedform.bessel_panels(float(ts[-1]), g)
    meta = {"figure_panel": path.stem, "g": g, "eps_d": 0.0,
            "route": "bessel_exact",
            "t_range": f"{t_lo:g}:{t_hi:g}:{grid}{n_samples}",
            "tool_version": __version__,
            "panel_width": io.format_number(width), "panels": panels}
    io.write_csv(path, ["t", "P_perp"], [ts, p], meta=meta, meta_time=meta_time)


FIGURES: dict[str, list[tuple]] = {
    "fig1": [(_fig1, "fig1_spectrum")],
    "fig2a": [
        (_evolution, "fig2a_evolve", 1.1, 0.0, "perp", 200.0, 4001, "linear"),
        (_overlay, "fig2a_overlays", 1.1, 0.0, "BoundTerm", 0.05, 200.0, 2000, "linear"),
    ],
    "fig2b": [
        (_evolution, "fig2b_evolve", 1.0, 0.0, "perp", 1000.0, 4000, "log"),
        (_overlay, "fig2b_overlays", 1.0, 0.0, "NearZoneEarlyProb", 0.5, 1000.0, 1000, "log"),
    ],
    "fig2cde": [
        (_evolution, "fig2c_evolve", 0.98, 0.0, "perp", 1000.0, 4000, "log"),
        (_bessel, "fig2c_bessel", 0.98, 0.1, 30000.0, 4000, "log"),
        (_evolution, "fig2d_evolve", 0.98, 0.0, "perp", 30.0, 3000, "linear"),
        (_overlay, "fig2d_overlays", 0.98, 0.0, "NearZoneEarlyProb,NearZoneAmp,EarlyBessel",
         1.0, 30.0, 2900, "linear"),
        # a resolved far-zone close-up at 5 T_Delta, about 25 oscillation periods
        (_bessel, "fig2e_bessel", 0.98, 12250.0, 12290.0, 4001, "linear"),
        (_overlay, "fig2e_overlays", 0.98, 0.0, "FarZoneProb", 12250.0, 12290.0, 2000, "linear"),
    ],
    "fig3a": [(_evolution, "fig3a_evolve", 0.9, 0.005, "perp", 400.0, 3000, "log")],
    "fig3b": [
        (_evolution, "fig3b_evolve", 0.9, 0.2, "perp", 400.0, 3000, "log"),
        (_overlay, "fig3b_overlays", 0.9, 0.2, "ResPole1d,ResPolePerp", 1.0, 400.0, 800, "log"),
    ],
    "fig3c": [(_evolution, "fig3c_evolve", 0.9, 0.35, "perp", 400.0, 3000, "log")],
    "figS1": [
        (_evolution, "figS1_g0.9_evolve", 0.9, 0.0, "perp", 300.0, 3000, "log"),
        (_overlay, "figS1_g0.9_overlays", 0.9, 0.0, "NearZoneEarlyProb,FarZoneProb",
         0.5, 300.0, 1500, "log"),
        (_evolution, "figS1_g0.7_evolve", 0.7, 0.0, "perp", 300.0, 3000, "log"),
        (_overlay, "figS1_g0.7_overlays", 0.7, 0.0, "NearZoneEarlyProb,FarZoneProb",
         0.5, 300.0, 1500, "log"),
    ],
    "figS2": [
        (_evolution, "figS2_evolve", 0.9, 0.0, "perp", 20.0, 4000, "linear"),
        (_overlay, "figS2_overlays", 0.9, 0.0, "EarlyBessel,NearZoneEarlyProb",
         0.5, 20.0, 2000, "linear"),
    ],
    "figS3": [(_evolution, f"figS3_w{w}_evolve", 0.9, 0.0, f"w:{w}", 200.0, 3000, "log")
              for w in (0.1, 0.5, 1.0, 2.0)],
    "figS4": [
        *((_evolution, f"figS4_g{g}_evolve", g, 0.0, "w:1.0", 300.0, 3000, "log")
          for g in (0.7, 0.9, 1.0, 1.1)),
        (_overlay, "figS4_g1.0_overlays", 1.0, 0.0, "WNearZoneG1", 1.0, 300.0, 1000, "log"),
        (_overlay, "figS4_g0.7_overlays", 0.7, 0.0, "WFarZone", 1.0, 300.0, 1000, "log"),
        (_overlay, "figS4_g0.9_overlays", 0.9, 0.0, "WFarZone", 1.0, 300.0, 1000, "log"),
    ],
}


def _cmd_figure(args) -> int:
    """Write the panels of each named figure (``all``: every figure, in
    ``FIGURES`` order) one after another in the calling thread.  Every id is
    checked before the first file is written."""
    ids = [fid for token in args.figure_ids for fid in (FIGURES if token == "all" else [token])]
    for fid in ids:
        if fid not in FIGURES:
            raise InvalidParameterError(
                f"unknown figure id {fid!r}; valid ids: {', '.join(FIGURES)}, or all")
    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {args.jobs}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for fid in ids:
        for writer, name, *panel_args in FIGURES[fid]:
            writer(outdir / f"{name}.csv", *panel_args, meta_time=not args.no_meta_time)
    return 0


# ---------------------------------------------------------------------------
# parser

@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by command name,
    built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="bicchain",
        description="Decay near a bound state in continuum on a side-coupled chain")
    parser.add_argument("--version", action="version", version=f"bicchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--g", type=float, required=True, help="chain-impurity coupling (units J)")
        p.add_argument("--eps-d", type=float, default=0.0, dest="eps_d",
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

    def add_evolve_args(p):
        p.add_argument("--tmax", type=float, required=True, help="evolution time (units 1/J)")
        p.add_argument("--samples", type=int,
                       help=f"number of sample times (default {EvolveOptions.n_samples})")
        p.add_argument("--sites", help="chain truncation: auto or an integer")
        p.add_argument("--abs-tol", type=float, dest="abs_tol",
                       help="bound on the dropped Chebyshev tail, in (0, 1e-6] "
                            f"(default {EvolveOptions.abs_tol:g})")

    p_ev = sub.add_parser("evolve", help="numerical evolution CSV")
    add_model_args(p_ev)
    p_ev.add_argument("--state", default="perp", help="initial state: bic, perp, or w:<x>")
    add_evolve_args(p_ev)
    p_ev.add_argument("--grid", choices=("linear", "log"), default="linear")
    add_common(p_ev)

    p_an = sub.add_parser("analytic", help="closed-form overlay CSV")
    add_model_args(p_an)
    p_an.add_argument("--tags", required=True,
                      help="comma-separated law names")
    p_an.add_argument("--tmax", type=float, required=True)
    p_an.add_argument("--samples", type=int, default=1000)
    p_an.add_argument("--grid", choices=("linear", "log"), default="log")
    add_common(p_an)

    p_cmp = sub.add_parser("compare", help="cross-validate evolution vs semi-analytic routes")
    add_model_args(p_cmp)
    add_evolve_args(p_cmp)
    add_common(p_cmp)

    p_fig = sub.add_parser("figure", help="regenerate figure data (one CSV per panel)")
    p_fig.add_argument("figure_ids", nargs="+", metavar="figure_id",
                       help=f"one or more of: {', '.join(FIGURES)}; or all")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility (an integer >= 1); has no effect")
    add_common(p_fig)
    commands = {"spectrum": p_spec, "evolve": p_ev, "analytic": p_an, "compare": p_cmp,
                "figure": p_fig}
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The top-level command-line parser (built once per process)."""
    return _parsers()[0]


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"config file {path} is not UTF-8 text: {exc}") from exc
    for line in text.splitlines():
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
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        argv = _attach_negative_values(argv)
        parser, commands = _parsers()
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
        return globals()[f"_cmd_{args.command}"](args)
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
