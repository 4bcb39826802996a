"""In-memory span recorder that wraps bicchain's public functions from outside.

Each wrapped function becomes a span ``<layer>.<function>`` with a start, an
end, the index of the enclosing span and the id of the job that caused it.
A wrapper is installed under every name that a ``bicchain`` module binds the
function to (``cli`` imports ``evolve`` by name, ``evolve`` imports
``hamiltonian`` by name), so calls through any of those names are seen.
An expected name that is missing is reported, so that a rename cannot
silently zero a layer.

Self time of a span is its duration minus the time of the spans directly
inside it.  Counters record the work each layer did, at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np


def _count_evolve(c: dict, a: dict, result: Any) -> None:
    c["evolve.samples"] += len(result.times)
    c["evolve.sites"] += result.n_sites
    c["evolve.site_time"] += result.n_sites * result.options.t_max
    c["evolve.truncation_warnings"] += int(result.truncation_warning)


def _count_points(key: str) -> Callable[[dict, dict, Any], None]:
    def count(c: dict, a: dict, _result: Any) -> None:
        c[key] += int(np.size(a["t"] if "t" in a else a["ts"]))
    return count


def _count_states(c: dict, _a: dict, result: Any) -> None:
    c["spectrum.states"] += len(result)


def _count_sites(c: dict, a: dict, _result: Any) -> None:
    c["model.sites_built"] += a["n_sites"]


def _count_file(rows: Callable[[dict], int]) -> Callable[[dict, dict, Any], None]:
    def count(c: dict, a: dict, _result: Any) -> None:
        c["io.files"] += 1
        c["io.rows"] += rows(a)
        c["io.bytes"] += os.path.getsize(a["path"])
    return count


FITS = ("fit_power_law", "fit_phase", "fit_exponential", "oscillation_contrast")
LAWS_WITH_TIMES = ("early_approx", "near_zone_amp", "near_zone_prob", "far_zone_prob",
                   "bound_term", "w_far_zone", "w_near_zone_g1")
LAWS_WITHOUT_TIMES = ("far_zone_coefficient", "w_far_zone_coefficient",
                      "res_pole_perp", "res_pole_1d")

#: (module, attribute, counter hook or None); "Class.method" wraps a method
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("model", "hamiltonian", _count_sites),
    ("model", "TruncatedHamiltonian.to_sparse", None),
    ("evolve", "evolve", _count_evolve),
    ("evolve", "survival", None),
    ("evolve", "nonescape", None),
    ("closedform", "bessel_exact_grid", _count_points("closedform.bessel_exact_grid.points")),
    ("closedform", "a_w_rays", _count_points("closedform.a_w_rays.points")),
    ("closedform", "a_w_cut", None),
    ("closedform", "a_br_quadrature", None),
    *(("closedform", name, _count_points("closedform.laws.points")) for name in LAWS_WITH_TIMES),
    *(("closedform", name, None) for name in LAWS_WITHOUT_TIMES),
    ("spectrum", "discrete_spectrum", _count_states),
    ("spectrum", "spectrum_report", None),
    ("spectrum", "timescales", None),
    *(("analysis", name, None) for name in FITS),
    ("analysis", "find_peaks", None),
    ("analysis", "find_troughs", None),
    ("io", "write_csv", _count_file(lambda a: len(a["columns"][0]))),
    ("io", "write_analytic_csv", _count_file(lambda a: len(a["rows"]))),
    ("io", "write_json", _count_file(lambda a: 0)),
    ("io", "write_evolve_csv", None),
    ("cli", "main", None),
)

LAYERS = ("model", "evolve", "closedform", "spectrum", "analysis", "io", "cli")


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        # one span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------

    def wrap(self, span_name: str, fn: Callable, hook: Callable | None) -> Callable:
        rec = self
        layer = span_name.split(".", 1)[0]
        signature = inspect.signature(fn) if hook else None
        is_fit = span_name.startswith("analysis.") and span_name.split(".")[1] in FITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append([span_name, time.perf_counter(), 0.0, parent, rec.job])
            rec._stack.append(index)
            rec._child_time.append(0.0)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                span = rec.spans[index]
                span[2] = end
                duration = end - span[1]
                rec._stack.pop()
                rec.self_time[span_name] += duration - rec._child_time.pop()
                if rec._child_time:
                    rec._child_time[-1] += duration
                else:
                    rec.root_time += duration
                rec.counts[span_name + ".calls"] += 1
                if raised:
                    rec.counts[layer + ".errors"] += 1
                if is_fit:
                    rec.counts["analysis.fit_attempts"] += 1
                    rec.counts["analysis.fit_successes"] += 0 if raised else 1
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(rec.counts, bound.arguments, result)
            return result

        return wrapper

    def start_pass(self) -> None:
        self.self_time.clear()
        self.counts.clear()
        self.root_time = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target under each name that binds it; return missing names."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bicchain" or name.startswith("bicchain."))]
        for module_name, attr, hook in TARGETS:
            owner = sys.modules.get(f"bicchain.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"bicchain.{module_name}.{attr}")
                continue
            wrapper = self.wrap(f"{module_name}.{method}", original, hook)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self.missing

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def pass_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass just finished (see BENCHMARK.json)."""
        st, c = self.self_time, self.counts

        def layer_self(layer: str) -> float:
            return sum(v for k, v in st.items() if k.startswith(layer + "."))

        attempts = c["analysis.fit_attempts"]
        out = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
        out.update({
            "evolve.calls": c["evolve.evolve.calls"],
            "evolve.samples": c["evolve.samples"],
            "evolve.sites": c["evolve.sites"],
            "evolve.site_time": c["evolve.site_time"],
            "evolve.truncation_warnings": c["evolve.truncation_warnings"],
            "evolve.errors": c["evolve.errors"],
            "closedform.bessel_exact_grid.self_s": st["closedform.bessel_exact_grid"],
            "closedform.bessel_exact_grid.points": c["closedform.bessel_exact_grid.points"],
            "closedform.a_w_rays.self_s": st["closedform.a_w_rays"],
            "closedform.a_w_rays.points": c["closedform.a_w_rays.points"],
            "closedform.a_w_cut.self_s": st["closedform.a_w_cut"],
            "closedform.a_w_cut.calls": c["closedform.a_w_cut.calls"],
            "closedform.a_br_quadrature.self_s": st["closedform.a_br_quadrature"],
            "closedform.a_br_quadrature.calls": c["closedform.a_br_quadrature.calls"],
            "closedform.laws.self_s": sum(st[f"closedform.{n}"]
                                          for n in LAWS_WITH_TIMES + LAWS_WITHOUT_TIMES),
            "closedform.laws.points": c["closedform.laws.points"],
            "closedform.errors": c["closedform.errors"],
            "spectrum.discrete_spectrum.self_s": st["spectrum.discrete_spectrum"],
            "spectrum.discrete_spectrum.calls": c["spectrum.discrete_spectrum.calls"],
            "spectrum.states": c["spectrum.states"],
            "spectrum.errors": c["spectrum.errors"],
            "analysis.calls": sum(v for k, v in c.items()
                                  if k.startswith("analysis.") and k.endswith(".calls")),
            "analysis.fit_yield": c["analysis.fit_successes"] / attempts if attempts else 0.0,
            "model.hamiltonian.self_s": st["model.hamiltonian"] + st["model.to_sparse"],
            "model.hamiltonian.calls": c["model.hamiltonian.calls"],
            "model.sites_built": c["model.sites_built"],
            "io.files": c["io.files"],
            "io.rows": c["io.rows"],
            "io.bytes": c["io.bytes"],
            "trace.coverage": self.root_time / pass_s if pass_s > 0 else 0.0,
        })
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans (start/end relative to the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        fields = ["name", "start_s", "end_s", "parent", "job"]
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps({**extra, "fields": fields, "spans": rows}) + "\n")
