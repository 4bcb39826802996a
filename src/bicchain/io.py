"""Deterministic CSV/JSON writers and the matching readers.

Numeric cells use ``repr(float(x))``: the shortest representation that
round-trips exactly (>= 15 significant digits where needed), '.' decimal
separator, comma delimiter, one header line; a column of strings is written
as is.  Metadata lines are prefixed '#' as ``# key=value`` and precede the
header.  Identical inputs produce byte-identical files; a generation
timestamp (:func:`timestamp`) is only written when ``meta_time=True``.
Writing a CSV is bound by ``repr``: about 0.55 us per cell, and 0.8 us for
tiny-exponent cells such as ``norm_err`` (2-vCPU x86 host, 20000 cells).
A JSON file holds exactly ``json.dumps(obj, indent=2, sort_keys=True)``
and a newline, from this module's own recursive writer: with ``indent`` set,
Python 3.10 and 3.11 skip json's C encoder, and its Python one took about
57 us for a ``spectrum`` report that this writer forms in about 34 us
(2-vCPU x86 host, Python 3.11).

Both writers rewrite an existing file in place: they open it without
``O_TRUNC``, write the whole text (UTF-8, ``\n`` line ends), then truncate
a regular file to the written length; a pipe or a device such as
``/dev/null`` is not truncated.  On ext4 truncating to zero on open frees
the file's blocks first, so rewriting a 1.5 KB file took a median of about
0.23 ms with ``Path.write_text`` and 0.02 ms in place (2-vCPU host, 300
rewrites).  There is no temp file and no fsync, and neither writer is
atomic: an interrupted rewrite of a longer file can leave the new bytes
followed by the old file's tail, where truncating first left a short file.
A new file gets mode 0o666 & ~umask, as with ``open``.
"""

from __future__ import annotations

import datetime
import json
import os
import stat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .evolve import AmplitudeSeries, nonescape, survival


def _open_in_place(path: str | Path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` over ``path``'s old bytes, then cut a regular file to
    the new length (``ftruncate`` fails on a pipe or a device)."""
    with open(path, "w", encoding="utf-8", newline="\n", opener=_open_in_place) as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def format_number(x: float) -> str:
    return repr(float(x))


def timestamp() -> str:
    """The current UTC time in ISO 8601, as written to ``generated_at``."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _meta_lines(meta: dict, meta_time: bool) -> list[str]:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    if meta_time:
        lines.append(f"# generated_at={timestamp()}")
    return lines


def _cells(column: np.ndarray) -> list[str]:
    if column.dtype.kind in "US":
        return column.astype(str).tolist()
    return list(map(repr, column.astype(float).tolist()))


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
    lines += [f"# WARNING {w}" for w in warnings]
    lines.append(",".join(header))
    lines += map(",".join, zip(*map(_cells, columns)))
    _write_text(path, "\n".join(lines) + "\n")


def _read_table(path: str | Path) -> tuple[dict, list[str], list[list[str]]]:
    """Metadata, header and rows of cells of a file written by this module."""
    meta: dict[str, str] = {}
    table: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if not line.startswith("#"):
            table.append([cell.strip() for cell in line.split(",")])
            continue
        body = line[1:].strip()
        if "=" in body and not body.startswith("WARNING"):
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
        else:
            meta["warnings"] = meta.get("warnings", "") + body + "; "
    if not table:
        raise ValueError(f"{path}: no header line found")
    return meta, table[0], table[1:]


def _column(cells: list[str]) -> np.ndarray:
    try:
        return np.array([float(cell) for cell in cells])
    except ValueError:
        return np.array(cells)


def read_csv(path: str | Path) -> tuple[dict, dict]:
    """Parse a file written by :func:`write_csv` into (metadata, columns);
    a column of text comes back as strings."""
    meta, header, rows = _read_table(path)
    return meta, {name: _column([row[i] for row in rows]) for i, name in enumerate(header)}


_INF = float("inf")


def _json_pieces(obj, indent: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(obj, indent=2, sort_keys=True)`` at
    nesting ``indent`` to ``out``.  A type that json cannot write raises
    TypeError, and so does a key that is not a str."""
    if isinstance(obj, float):
        if -_INF < obj < _INF:
            out.append(float.__repr__(obj))
        else:
            out.append("NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):  # encode_basestring_ascii refuses a key that is not a str
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_pieces(obj[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _json_pieces(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str | Path, obj: dict) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, in
    one join of the pieces :func:`_json_pieces` forms."""
    out: list[str] = []
    _json_pieces(obj, "", out)
    out.append("\n")
    _write_text(path, "".join(out))


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


EVOLVE_HEADER = ["t", "P_perp", "P_1d", "re_A", "im_A", "norm_err"]


def evolve_meta(series: AmplitudeSeries, state_label: str) -> dict:
    opts = series.options
    return {
        "g": series.params.g,
        "eps_d": series.params.eps_d,
        "j_hop": 1.0,
        "state": state_label,
        "t_max": opts.t_max,
        "n_samples": opts.n_samples,
        "grid": opts.grid,
        "n_sites": series.n_sites,
        "abs_tol": opts.abs_tol,
        "route": "chebyshev",
        "cheb_terms": series.cheb_terms,
        "spectral_center": series.spectral_center,
        "spectral_half_width": series.spectral_half_width,
        "light_cone_margin": series.light_cone_margin,
        "tool_version": __version__,
    }


def write_evolve_csv(path: str | Path, series: AmplitudeSeries, state_label: str,
                     meta_time: bool = False, extra_meta: dict | None = None) -> None:
    """Evolution CSV: t, P_perp, P_1d, re_A, im_A, norm_err; ``extra_meta``
    keys follow those of :func:`evolve_meta`."""
    write_csv(path, EVOLVE_HEADER,
              [series.times, survival(series).values, nonescape(series).values,
               series.overlap.real, series.overlap.imag, series.norm - 1.0],
              meta={**evolve_meta(series, state_label), **(extra_meta or {})},
              meta_time=meta_time,
              warnings=series.warnings)


ANALYTIC_HEADER = ["t", "value", "tag", "in_window"]


def write_analytic_csv(path: str | Path, rows: list[tuple[float, float, str, int]],
                       meta: dict, meta_time: bool = False) -> None:
    """Analytic-curve CSV: t, value, tag, in_window (validity annotation)."""
    ts, values, tags, in_window = zip(*rows) if rows else ((),) * 4
    write_csv(path, ANALYTIC_HEADER,
              [np.array(ts, dtype=float), np.array(values, dtype=float),
               np.array(tags, dtype=str), np.array(in_window, dtype=int).astype(str)],
              meta=meta, meta_time=meta_time)


def read_analytic_csv(path: str | Path) -> tuple[dict, list[tuple[float, float, str, int]]]:
    meta, header, rows = _read_table(path)
    if header != ANALYTIC_HEADER:
        raise ValueError(f"{path}: unexpected analytic header {','.join(header)!r}")
    return meta, [(float(t), float(value), tag, int(win)) for t, value, tag, win in rows]
