"""Tests of the benchmark itself, at a tiny size.

    python -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default test run,
whose content and wall time must not depend on the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

bench_run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every time span and sample count; the job lists keep their shape."""
    monkeypatch.setattr(workloads, "PERP_TMAX", 6.0)
    monkeypatch.setattr(workloads, "PERP_SAMPLES", 60)
    monkeypatch.setattr(workloads, "W_TMAX", 4.0)
    monkeypatch.setattr(workloads, "W_SAMPLES", 40)
    monkeypatch.setattr(workloads, "FAR_TMAX", 60.0)
    monkeypatch.setattr(workloads, "FAR_SAMPLES", 120)
    monkeypatch.setattr(workloads, "WINDOW_LO", 40.0)
    monkeypatch.setattr(workloads, "WINDOW_HI", 42.0)
    monkeypatch.setattr(workloads, "WINDOW_SAMPLES", 21)
    monkeypatch.setattr(workloads, "RAY_SAMPLES", 30)
    monkeypatch.setattr(workloads, "COMPARE_SETS", tuple(
        (label, g, g_range, eps, eps_range, 10.0, 11)
        for label, g, g_range, eps, eps_range, _t, _n in workloads.COMPARE_SETS))


def _run_once(workload: str, seed: int, outdir: Path) -> list[tuple]:
    """(job, loaded output) for one pass of the workload."""
    jobs = workloads.WORKLOADS[workload](seed)
    return [(job, job.load(outdir, job.run(outdir))) for job in jobs]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, workload, trace):
    result, record = bench_run.run(workload, 1, 0.01, bool(trace), out_root=tmp_path,
                                   setup_probes=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert [j["name"] for j in record["jobs"]] == [
        j.name for j in workloads.WORKLOADS[workload](1)]


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == bench_run.WORKLOAD_NAMES == tuple(
        w["name"] for w in SPEC["workloads"])


def test_command_line_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "spectrum_sweep",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=bench_run.ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 25
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "farzone", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# seeds


def test_seed_zero_gives_the_paper_parameters():
    prop = workloads.propagate(0)
    assert prop[0].params["g"] == 1.0 and prop[0].params["state"] == "perp"
    assert [j.params["state"] for j in prop[1:]] == [f"w:{w!r}" for w in workloads.W_PAPER]
    assert {j.params["g"] for j in prop[1:]} == {0.9}
    assert {j.params["g"] for j in workloads.farzone(0)} == {0.98}
    assert [(j.params["g"], j.params["eps_d"]) for j in workloads.crosscheck(0)] == [
        (0.9, 0.0), (0.9, 0.2), (1.1, 0.0), (0.7, 0.0)]
    sweep = [(j.params["g"], j.params["eps_d"]) for j in workloads.spectrum_sweep(0)[:-1]]
    assert sweep[:6] == [(g, 0.0) for g in workloads.SWEEP_G0]
    assert (0.9, -0.35) in sweep and (1.1, 0.005) in sweep


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_seeds_redraw_parameters_but_not_the_amount_of_work(workload):
    build = workloads.WORKLOADS[workload]
    a, b, again = build(3), build(4), build(3)
    assert [j.params for j in a] == [j.params for j in again]
    assert [j.params for j in a] != [j.params for j in b]
    shape_keys = ("command", "t_max", "n_samples", "t", "route")
    for ja, jb in zip(a, b):
        assert {k: ja.params.get(k) for k in shape_keys} == {
            k: jb.params.get(k) for k in shape_keys}
    assert len(a) == len(b)


def test_detuned_compare_sets_stay_below_the_bound_state_threshold():
    # a bound state above the band appears at 2 g^2 > 2 - eps_d; compare then
    # drops the cut route, so every seed must draw below it
    for seed in range(2000):
        for job in workloads.crosscheck(seed):
            g, eps_d = job.params["g"], job.params["eps_d"]
            if eps_d != 0.0:
                assert 2.0 * g * g < 2.0 - abs(eps_d), (seed, g, eps_d)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        workloads.Draw(-1)


# ---------------------------------------------------------------------------
# every check passes the real output and rejects a perturbed one


def _first(pairs, prefix):
    return next((job, out) for job, out in pairs if job.name.startswith(prefix))


def test_propagate_check_rejects_perturbed_amplitude_and_norm(tiny, tmp_path):
    pairs = _run_once("propagate", 5, tmp_path)
    assert [job.check(out) for job, out in pairs] == [None] * len(pairs)
    for prefix in ("fig2b_perp", "figS3_w1.0"):
        job, out = _first(pairs, prefix)
        amp = out["A"].copy()
        amp[-1] += 2e-6
        assert "A_ref" in job.check({**out, "A": amp})
        drift = out["norm_err"].copy()
        drift[3] = 2e-9
        assert "norm_err" in job.check({**out, "norm_err": drift})
        assert "WARNING" in job.check({**out, "warnings": ["# WARNING boundary"]})
        assert "exit code" in job.check({**out, "exit": 3})


def test_farzone_check_rejects_perturbed_amplitude(tiny, tmp_path):
    pairs = _run_once("farzone", 5, tmp_path)
    assert [job.check(out) for job, out in pairs] == [None] * len(pairs)
    for job, out in pairs:
        assert "A_ref" in job.check({**out, "A": out["A"] * (1.0 + 1e-3) + 2e-6})
        assert "grid" in job.check({**out, "t": out["t"][:-1]})


def test_crosscheck_check_rejects_deviation_and_missing_route(tiny, tmp_path):
    pairs = _run_once("crosscheck", 5, tmp_path)
    assert [job.check(out) for job, out in pairs] == [None] * len(pairs)
    for job, out in pairs:
        assert "ode_vs_cut" in job.check(
            {**out, "deviation": {**out["deviation"], "ode_vs_cut": 2e-6}})
        assert "missing" in job.check({**out, "deviation": {}})
    job, out = _first(pairs, "compare_g09")
    without_bessel = {k: v for k, v in out["deviation"].items() if k != "ode_vs_bessel"}
    assert "missing" in job.check({**out, "deviation": without_bessel})


def test_spectrum_check_rejects_perturbed_state_and_kind(tmp_path):
    pairs = _run_once("spectrum_sweep", 5, tmp_path)
    assert [job.check(out) for job, out in pairs] == [None] * len(pairs)
    for job, out in pairs[:-1]:
        shifted = [dict(s) for s in out["states"]]
        shifted[-1]["re_z"] += 1e-6
        assert job.check({**out, "states": shifted}) is not None
        relabeled = [dict(s) for s in out["states"]]
        relabeled[-1]["kind"] = "Resonance" if relabeled[-1]["kind"] != "Resonance" else "Bound"
        assert "expected" in job.check({**out, "states": relabeled})
        assert "exit code" in job.check({**out, "exit": 2})
    job, out = pairs[-1]
    z_plus = out["z_plus"].copy()
    z_plus[10] += 1e-9
    assert "z_plus" in job.check({**out, "z_plus": z_plus})


def test_expected_kinds_follow_the_band_edge_thresholds():
    assert workloads.expected_kinds(0.9, 0.0) == sorted(
        [("BIC", "First"), ("VirtualBound", "Second"), ("VirtualBound", "Second")])
    assert workloads.expected_kinds(1.2, 0.3).count(("Bound", "First")) == 2
    # 2 g^2 = 2.02 lies between 2 - eps_d and 2 + eps_d: one bound state
    assert workloads.expected_kinds(1.005, 0.1).count(("Bound", "First")) == 1


# ---------------------------------------------------------------------------
# tracing


def test_traced_layers_nest_and_uninstall(tiny, tmp_path):
    from bicchain import cli

    evolve = sys.modules["bicchain.evolve"]  # the package binds the name to the function
    original_main, original_evolve = cli.main, cli.evolve
    recorder = spans.Recorder()
    assert recorder.install() == []
    try:
        assert cli.evolve is not original_evolve and evolve.evolve is cli.evolve
        recorder.start_pass()
        job = workloads.crosscheck(0)[1]
        assert job.run(tmp_path) == 0
        metrics = recorder.pass_metrics(1.0)
    finally:
        recorder.uninstall()
    assert cli.main is original_main and cli.evolve is original_evolve
    assert metrics["evolve.calls"] == 1 and metrics["closedform.a_w_cut.calls"] == 11
    assert metrics["spectrum.discrete_spectrum.calls"] == 1 and metrics["io.files"] == 2
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_self == pytest.approx(recorder.root_time, rel=1e-9)
    names = {s[0] for s in recorder.spans}
    assert {"cli.main", "evolve.evolve", "model.hamiltonian", "model.to_sparse"} <= names
    root = [s for s in recorder.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]


def test_missing_traced_name_counts_as_failure(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("evolve", "renamed_away", None),))
    result, record = bench_run.run("spectrum_sweep", 1, 0.01, True, out_root=tmp_path,
                                   setup_probes=False)
    assert not result["correct"] and result["failed"] == 1
    assert record["missing_names"] == ["bicchain.evolve.renamed_away"]


def test_tail_has_ten_passes_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct = bench_run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 29 / 39)
    assert bench_run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_sigma_matches_the_programs_self_energy():
    from bicchain.spectrum import SheetTag, self_energy

    for z in (2.5, -3.1, 0.3 - 0.2j, 1.7 + 0.4j):
        for sheet in SheetTag:
            assert workloads._sigma(complex(z), 0.8, sheet.value) == pytest.approx(
                self_energy(z, 0.8, sheet), abs=1e-13)
    assert np.isfinite(workloads._sigma(2 + 0j, 1.0, "Second"))
