"""Deterministic CSV/JSON writers and the matching readers.

Numeric cells use ``repr(float(x))``: the shortest representation that
round-trips exactly (>= 15 significant digits where needed), '.' decimal
separator, comma delimiter, one header line.  Metadata lines are prefixed
'#' as ``# key=value`` and precede the header.  Identical inputs produce
byte-identical files; a generation timestamp is only written when
``meta_time=True``.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path

import numpy as np

from .evolve import AmplitudeSeries, nonescape, survival


def format_number(x: float) -> str:
    return repr(float(x))


def _meta_lines(meta: dict, meta_time: bool) -> list[str]:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    if meta_time:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated_at={stamp}")
    return lines


def write_csv(path: str | Path, header: list[str], columns: list[np.ndarray],
              meta: dict | None = None, meta_time: bool = False,
              warnings: tuple = ()) -> None:
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError("all columns must have equal length")
    lines = _meta_lines(meta or {}, meta_time)
    lines += [f"# WARNING {w}" if not str(w).startswith("WARNING") else f"# {w}"
              for w in warnings]
    lines.append(",".join(header))
    for i in range(n_rows):
        lines.append(",".join(format_number(col[i]) for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path: str | Path) -> tuple[dict, dict]:
    """Parse a file written by :func:`write_csv` into (metadata, columns)."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and not body.startswith("WARNING"):
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            else:
                meta.setdefault("warnings", "")
                meta["warnings"] += body + "; "
            continue
        if header is None:
            header = [h.strip() for h in line.split(",")]
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header line found")
    data = {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}
    return meta, data


def write_json(path: str | Path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


EVOLVE_HEADER = ["t", "P_perp", "P_1d", "re_A", "im_A", "norm_err"]


def evolve_meta(series: AmplitudeSeries, state_label: str, version: str) -> dict:
    opts = series.options
    return {
        "g": series.params.g,
        "eps_d": series.params.eps_d,
        "j_hop": series.params.j_hop,
        "state": state_label,
        "t_max": opts.t_max,
        "n_samples": opts.n_samples,
        "grid": opts.grid,
        "n_sites": series.n_sites,
        "rel_tol": opts.rel_tol,
        "abs_tol": opts.abs_tol,
        "route": "chebyshev",
        "cheb_terms": series.cheb_terms,
        "spectral_center": series.spectral_center,
        "spectral_half_width": series.spectral_half_width,
        "light_cone_margin": series.light_cone_margin,
        "tool_version": version,
    }


def write_evolve_csv(path: str | Path, series: AmplitudeSeries, state_label: str,
                     version: str, meta_time: bool = False,
                     extra_meta: dict | None = None) -> None:
    """Evolution CSV: t, P_perp, P_1d, re_A, im_A, norm_err; ``extra_meta``
    keys follow those of :func:`evolve_meta`."""
    write_csv(path, EVOLVE_HEADER,
              [series.times, survival(series).values, nonescape(series).values,
               series.overlap.real, series.overlap.imag, series.norm - 1.0],
              meta={**evolve_meta(series, state_label, version), **(extra_meta or {})},
              meta_time=meta_time,
              warnings=series.warnings)


ANALYTIC_HEADER = ["t", "value", "tag", "in_window"]


def write_analytic_csv(path: str | Path, rows: list[tuple[float, float, str, int]],
                       meta: dict, meta_time: bool = False) -> None:
    """Analytic-curve CSV: t, value, tag, in_window (validity annotation)."""
    lines = _meta_lines(meta, meta_time)
    lines.append(",".join(ANALYTIC_HEADER))
    for t, value, tag, in_window in rows:
        lines.append(f"{format_number(t)},{format_number(value)},{tag},{int(in_window)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_analytic_csv(path: str | Path) -> tuple[dict, list[tuple[float, float, str, int]]]:
    meta: dict[str, str] = {}
    rows: list[tuple[float, float, str, int]] = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if [h.strip() for h in line.split(",")] != ANALYTIC_HEADER:
                raise ValueError(f"{path}: unexpected analytic header {line!r}")
            header_seen = True
            continue
        t_s, v_s, tag, win = line.split(",")
        rows.append((float(t_s), float(v_s), tag, int(win)))
    return meta, rows
