import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicchain
from bicchain import cli, io, spectrum
from bicchain.analysis import TooFewPeaksError
from bicchain.cli import main
from bicchain.closedform import DivergenceError, DomainError, QuadratureError
from bicchain.evolve import IntegratorError
from bicchain.model import ConfigError, InvalidParameterError, NumericalError
from bicchain.spectrum import BranchPointError, NearPoleError, RootFindError


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# io round-trips

def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    ts = np.array([0.0, 1.0 / 3.0, 0.1234567890123456789, 7e-300])
    vals = np.array([1.0, -2.5e-17, math.pi, 0.3])
    io.write_csv(path, ["t", "v"], [ts, vals], meta={"g": 0.9, "note": "x"})
    meta, data = io.read_csv(path)
    assert meta["g"] == "0.9"
    assert np.array_equal(data["t"], ts)   # bitwise: repr round-trips floats
    assert np.array_equal(data["v"], vals)


def test_analytic_csv_round_trip(tmp_path):
    path = tmp_path / "curves.csv"
    rows = [(1.0, 0.5, "FarZoneProb", 1), (2.0, 0.25, "FarZoneProb", 0)]
    io.write_analytic_csv(path, rows, meta={"g": 0.7})
    meta, back = io.read_analytic_csv(path)
    assert back == rows
    assert meta["g"] == "0.7"


def test_csv_text_column_and_warning_lines(tmp_path):
    path = tmp_path / "mixed.csv"
    io.write_csv(path, ["g", "kind"], [np.array([0.5, 1.5]), np.array(["Virtual", "Bound"])],
                 meta={"figure": "x"}, warnings=("chain too short",))
    assert path.read_text().splitlines() == [
        "# figure=x", "# WARNING chain too short", "g,kind", "0.5,Virtual", "1.5,Bound"]
    meta, data = io.read_csv(path)
    assert meta == {"figure": "x", "warnings": "WARNING chain too short; "}
    assert data["g"].tolist() == [0.5, 1.5] and data["kind"].tolist() == ["Virtual", "Bound"]


def test_json_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"a": 1.5, "nested": {"b": [1, 2, 3]}, "inf": math.inf}
    io.write_json(path, doc)
    assert io.read_json(path) == doc


# ---------------------------------------------------------------------------
# spectrum command

def test_cli_spectrum_bound_regime(tmp_path):
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", "1.1", "--eps-d", "0", "--out", str(out),
                   "--no-meta-time") == 0
    doc = io.read_json(out)
    kinds = sorted(s["kind"] for s in doc["states"])
    assert kinds == ["BIC", "Bound", "Bound"]
    assert doc["params"] == {"g": 1.1, "eps_d": 0.0, "j_hop": 1.0}


def test_cli_spectrum_virtual_regime(tmp_path):
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", "0.9", "--eps-d", "0", "--out", str(out),
                   "--no-meta-time") == 0
    kinds = sorted(s["kind"] for s in io.read_json(out)["states"])
    assert kinds == ["BIC", "VirtualBound", "VirtualBound"]


def test_cli_spectrum_detuned_has_resonance(tmp_path):
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", "0.9", "--eps-d", "0.2", "--out", str(out),
                   "--no-meta-time") == 0
    res = [s for s in io.read_json(out)["states"] if s["kind"] == "Resonance"]
    assert len(res) == 1 and res[0]["im_z"] < 0


def test_cli_spectrum_invalid_params(tmp_path):
    assert run_cli("spectrum", "--g", "-1", "--out", str(tmp_path / "x.json"),
                   "--no-meta-time") == 2


@pytest.mark.parametrize("value", ["-1e-3", "-5e-05"])
def test_cli_negative_detuning_in_exponent_notation(tmp_path, value):
    # argparse alone reads '-1e-3' as an option and exits 2
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", "0.9", "--eps-d", value, "--out", str(out),
                   "--no-meta-time") == 0
    assert io.read_json(out)["params"]["eps_d"] == float(value)
    out.unlink()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"g=0.9\neps_d={value}\n")
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(out),
                   "--no-meta-time") == 0
    assert io.read_json(out)["params"]["eps_d"] == float(value)


@pytest.mark.parametrize("g, eps_d, expected", [
    (1e-200, 0.2, {3}),      # g^2 underflows: the quartic loses its leading term
    (0.9, 1e300, {2}),       # eps_d^2 overflows: the quartic is not finite
    (1e-5, 0.3, {0, 2, 3}),
    (1e5, 0.3, {0, 2, 3}),
    (0.9, 1e-300, {0}),
    (0.9, 5e-324, {0}),
    (0.9, 2.0 - 2.0 * 0.9 ** 2, {0}),  # threshold 2 g^2 = 2 - eps_d
    # 5.6e-8 above it the real root is about 1e-16 from the band edge, where
    # no double meets the residual bound and Newton can land on z = 2
    (0.9, 0.3800000562341324, {3}),
])
def test_cli_spectrum_extreme_parameters_exit_cleanly(tmp_path, capsys, g, eps_d, expected):
    code = run_cli("spectrum", "--g", repr(g), "--eps-d", repr(eps_d),
                   "--out", str(tmp_path / "x.json"), "--no-meta-time")
    assert code in expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("g, expected", [
    (1.0, 0), (1 + 1e-9, 0), (1 - 1e-9, 0), (1 + 1e-8, 0), (1 - 1e-8, 0),
    # g + 1/g is 2 + ~1e-12 here, a state no double resolves to residual 1e-10
    (1 + 1e-6, 3), (1 - 1e-6, 3),
])
def test_cli_spectrum_at_the_g1_threshold(tmp_path, g, expected):
    # within about 1.5e-8 of g = 1, g + 1/g rounds to 2: the band-edge pair
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", repr(g), "--out", str(out), "--no-meta-time") == expected
    if expected == 0:
        states = io.read_json(out)["states"]
        assert sum(bool(st.get("band_edge")) for st in states) == 2


def test_cli_runs_without_optimize_or_integrate(tmp_path):
    # neither is needed on any CLI route, and importing them is a large share
    # of a CLI process's start-up time and memory; checked in a fresh interpreter
    script = (
        "import sys\n"
        "from bicchain import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['spectrum', '--g', '0.9', '--eps-d', '0.2',\n"
        "                 '--out', out + '/s.json', '--no-meta-time']) == 0\n"
        "assert cli.main(['evolve', '--g', '0.9', '--tmax', '5', '--samples', '11',\n"
        "                 '--out', out + '/e.csv', '--no-meta-time']) == 0\n"
        "print(sorted({'scipy.optimize', 'scipy.integrate'} & set(sys.modules)))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_near_pole_error_exits_numerical(tmp_path, monkeypatch):
    # a pole of the resolvent met in floating point is a numerical failure
    def near_pole(_params):
        raise NearPoleError(0.1 + 0j)

    monkeypatch.setattr(spectrum, "spectrum_report", near_pole)
    assert run_cli("spectrum", "--g", "0.9", "--out", str(tmp_path / "x.json"),
                   "--no-meta-time") == 3


def _package_errors() -> set[type]:
    modules = [importlib.import_module(f"bicchain.{info.name}")
               for info in pkgutil.iter_modules(bicchain.__path__)]
    return {obj for mod in modules for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__.startswith("bicchain")} - {ConfigError, NumericalError}


def test_every_package_error_has_exactly_one_base():
    for cls in _package_errors():
        assert issubclass(cls, ConfigError) != issubclass(cls, NumericalError), cls


ERROR_INSTANCES = [
    (InvalidParameterError("bad g"), 2),
    (DomainError("t <= 0"), 2),
    (DivergenceError("g = 1"), 2),
    (BranchPointError("z = 2"), 2),
    (TooFewPeaksError("no peaks"), 2),
    (NearPoleError(0.1 + 0j), 3),
    (RootFindError("stalled", 1.0 + 0j), 3),
    (QuadratureError("no convergence", 1e-3), 3),
    (IntegratorError("non-finite moments", 0.0), 3),
]


def test_error_instances_cover_the_package():
    assert {type(exc) for exc, _ in ERROR_INSTANCES} == _package_errors()


@pytest.mark.parametrize("exc, code", ERROR_INSTANCES,
                         ids=[type(exc).__name__ for exc, _ in ERROR_INSTANCES])
def test_cli_exit_code_follows_the_base_class(tmp_path, monkeypatch, capsys, exc, code):
    def fail(_args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_spectrum", fail)
    assert run_cli("spectrum", "--g", "0.9", "--out", str(tmp_path / "x.json")) == code
    prefix = "error: " if code == 2 else "numerical failure: "
    assert capsys.readouterr().err == f"{prefix}{exc}\n"


def test_cli_stray_value_error_is_a_bug(tmp_path, monkeypatch):
    # only the package's own ConfigError subclasses mean a bad request
    def fail(_args):
        raise ValueError("stray")

    monkeypatch.setattr(cli, "_cmd_spectrum", fail)
    with pytest.raises(ValueError, match="stray"):
        run_cli("spectrum", "--g", "0.9", "--out", str(tmp_path / "x.json"))


def test_cli_compare_refuses_bessel_grid_beyond_panel_cap(tmp_path, capsys):
    code = run_cli("compare", "--g", "1e-6", "--eps-d", "0", "--tmax", "10",
                   "--samples", "3", "--out", str(tmp_path / "cmp"), "--no-meta-time")
    assert code == 2
    assert "a_br_quadrature" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evolve command

def test_cli_evolve_bic_constant(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli("evolve", "--g", "0.9", "--eps-d", "0", "--state", "bic",
                   "--tmax", "20", "--samples", "51", "--out", str(out),
                   "--no-meta-time")
    assert code == 0
    meta, data = io.read_csv(out)
    assert list(data) == ["t", "P_perp", "P_1d", "re_A", "im_A", "norm_err"]
    assert np.max(np.abs(data["P_perp"] - 1.0)) < 1e-8
    assert meta["state"] == "bic"


def test_cli_evolve_meta_names_propagator(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli("evolve", "--g", "0.9", "--eps-d", "0", "--state", "perp",
                   "--tmax", "20", "--samples", "11", "--out", str(out),
                   "--no-meta-time") == 0
    meta, _ = io.read_csv(out)
    assert meta["route"] == "chebyshev"
    assert int(meta["cheb_terms"]) > 2 * 20
    assert float(meta["spectral_center"]) == 0.0
    assert 1.9 < float(meta["spectral_half_width"]) <= 2.0  # no bound state at g < 1


def test_cli_evolve_w_state(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli("evolve", "--g", "0.9", "--eps-d", "0", "--state", "w:1.0",
                   "--tmax", "10", "--samples", "21", "--grid", "log",
                   "--out", str(out), "--no-meta-time") == 0
    _, data = io.read_csv(out)
    assert data["t"][0] == 0.0
    assert data["P_perp"][0] == pytest.approx(1.0, abs=1e-12)


def test_cli_huge_coupling(tmp_path, capsys):
    # g^2 overflows: the spectrum's timescales are a numerical failure, and
    # the evolve state builder rejects g by name at the boundary
    assert run_cli("spectrum", "--g", "1e200", "--out", str(tmp_path / "x.json"),
                   "--no-meta-time") == 3
    assert run_cli("evolve", "--g", "1e200", "--tmax", "5",
                   "--out", str(tmp_path / "x.csv"), "--no-meta-time") == 2
    assert "g = 1e+200" in capsys.readouterr().err


def test_cli_evolve_bad_state(tmp_path):
    assert run_cli("evolve", "--g", "0.9", "--state", "nope", "--tmax", "5",
                   "--out", str(tmp_path / "x.csv"), "--no-meta-time") == 2


def test_cli_evolve_truncation_warning_annotated(tmp_path):
    # a deliberately short chain reflects at the wall: exit 0, '# WARNING' line
    out = tmp_path / "run.csv"
    assert run_cli("evolve", "--g", "0.9", "--eps-d", "0", "--state", "perp",
                   "--tmax", "40", "--samples", "81", "--sites", "12",
                   "--out", str(out), "--no-meta-time") == 0
    assert any(line.startswith("# WARNING") for line in out.read_text().splitlines())
    meta, _ = io.read_csv(out)
    assert int(meta["light_cone_margin"]) == 2 * 12 - 2 - int(meta["cheb_terms"]) <= 0


@pytest.mark.parametrize("command", ["evolve", "compare"])
@pytest.mark.parametrize("sites", ["abc", "2.5", "0"])
def test_cli_sites_must_be_auto_or_an_integer(tmp_path, capsys, command, sites):
    assert run_cli(command, "--g", "0.9", "--tmax", "5", "--sites", sites,
                   "--out", str(tmp_path / "x"), "--no-meta-time") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sites ") and repr(sites) in err
    assert not list(tmp_path.iterdir())


def test_cli_evolve_auto_chain_meets_the_light_cone(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli("evolve", "--g", "1.3", "--eps-d", "-0.4", "--state", "w:1.0",
                   "--tmax", "30", "--samples", "31", "--out", str(out),
                   "--no-meta-time") == 0
    assert "WARNING" not in out.read_text()
    meta, _ = io.read_csv(out)
    keys = list(meta)
    assert keys.index("light_cone_margin") == keys.index("spectral_half_width") + 1
    assert int(meta["n_sites"]) == int(meta["cheb_terms"]) // 2 + 2
    assert int(meta["light_cone_margin"]) in (1, 2)


def test_cli_evolve_detuned_separation_metadata(tmp_path):
    assert run_cli("figure", "fig3b", "--out", str(tmp_path / "f3b"),
                   "--no-meta-time") == 0
    meta, _ = io.read_csv(tmp_path / "f3b" / "fig3b_evolve.csv")
    assert 5.0 < float(meta["separation_time_env10pct"]) < 15.0


def test_cli_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g=0.9\ntmax=12\nsamples=25\nstate=perp  # comment\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("evolve", "--config", str(cfg), "--out", str(out1),
                   "--no-meta-time") == 0
    meta1, data1 = io.read_csv(out1)
    assert meta1["t_max"] == "12.0" and len(data1["t"]) == 25
    # explicit flag overrides the file value
    assert run_cli("evolve", "--config", str(cfg), "--tmax", "8",
                   "--out", str(out2), "--no-meta-time") == 0
    meta2, _ = io.read_csv(out2)
    assert meta2["t_max"] == "8.0"
    # missing config file is a configuration error
    assert run_cli("evolve", "--config", str(tmp_path / "none.cfg"), "--g", "0.9",
                   "--tmax", "5", "--out", str(tmp_path / "c.csv"),
                   "--no-meta-time") == 2


@pytest.mark.parametrize("spelling", ["separate", "joined"])
def test_cli_config_file_either_spelling(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=11\n")

    def config(path):
        return ["--config", str(path)] if spelling == "separate" else [f"--config={path}"]

    out = tmp_path / "a.csv"
    assert run_cli("evolve", *config(cfg), "--g", "0.5", "--tmax", "3",
                   "--out", str(out), "--no-meta-time") == 0
    meta, data = io.read_csv(out)
    assert meta["n_samples"] == "11" and len(data["t"]) == 11
    assert run_cli("evolve", *config(tmp_path / "none.cfg"), "--g", "0.5", "--tmax", "3",
                   "--out", str(tmp_path / "b.csv"), "--no-meta-time") == 2


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--g", "0.9", "--eps-d", "0.1", "--state", "perp",
            "--tmax", "15", "--samples", "61", "--no-meta-time"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# analytic command

def test_cli_analytic_near_zone(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_cli("analytic", "--g", "0.98", "--tags", "NearZoneEarlyProb",
                   "--tmax", "100", "--samples", "50", "--out", str(out),
                   "--no-meta-time") == 0
    _, rows = io.read_analytic_csv(out)
    assert all(tag == "NearZoneEarlyProb" for _, _, tag, _ in rows)
    for t, v, _, _ in rows:
        expected = math.cos(2 * t - math.pi / 4) ** 2 / (math.pi * 0.98 ** 2 * t)
        assert v == pytest.approx(expected, rel=1e-12)


def test_cli_analytic_w_near_zone_value(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_cli("analytic", "--g", "1.0", "--tags", "WNearZoneG1",
                   "--tmax", "500", "--samples", "20", "--out", str(out),
                   "--no-meta-time") == 0
    _, rows = io.read_analytic_csv(out)
    for t, v, _, _ in rows:
        assert v == pytest.approx(16 / (9 * math.pi * t), rel=1e-12)


def test_cli_analytic_validity_annotation(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_cli("analytic", "--g", "0.7", "--tags", "FarZoneProb",
                   "--tmax", "300", "--samples", "60", "--grid", "log",
                   "--out", str(out), "--no-meta-time") == 0
    _, rows = io.read_analytic_csv(out)
    t_delta = 0.7 / 0.09
    for t, _, _, ok in rows:
        assert ok == int(t >= 5 * t_delta)
    assert any(ok == 0 for *_, ok in rows) and any(ok == 1 for *_, ok in rows)


def test_cli_analytic_incompatible_tag(tmp_path):
    # far-zone law diverges at g = 1
    assert run_cli("analytic", "--g", "1.0", "--tags", "FarZoneProb",
                   "--tmax", "100", "--out", str(tmp_path / "x.csv"),
                   "--no-meta-time") == 2


def test_cli_analytic_unknown_tag(tmp_path):
    assert run_cli("analytic", "--g", "0.9", "--tags", "NoSuchTag",
                   "--tmax", "100", "--out", str(tmp_path / "x.csv"),
                   "--no-meta-time") == 2


@pytest.mark.parametrize("flag, value", [("--tmax", "nan"), ("--tmax", "inf"),
                                         ("--tmax", "0"), ("--tmax", "-3"),
                                         ("--samples", "1"), ("--samples", "0")])
@pytest.mark.parametrize("grid", ["log", "linear"])
def test_cli_analytic_rejects_bad_grid(tmp_path, capsys, flag, value, grid):
    argv = {"--tmax": "100", "--samples": "50", flag: value}
    out = tmp_path / "x.csv"
    assert run_cli("analytic", "--g", "0.9", "--tags", "NearZoneEarlyProb",
                   "--grid", grid, *(a for kv in argv.items() for a in kv),
                   "--out", str(out), "--no-meta-time") == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tmax", [0.001, 0.5, 100.0])
def test_cli_analytic_log_grid_ascends_to_tmax(tmp_path, tmax):
    out = tmp_path / "x.csv"
    assert run_cli("analytic", "--g", "0.9", "--tags", "NearZoneEarlyProb",
                   "--tmax", str(tmax), "--samples", "3", "--out", str(out),
                   "--no-meta-time") == 0
    ts = [t for t, *_ in io.read_analytic_csv(out)[1]]
    assert 0 < ts[0] < ts[1] < ts[2] == pytest.approx(tmax, rel=1e-12)


# ---------------------------------------------------------------------------
# compare command

def test_cli_compare_three_routes(tmp_path):
    base = tmp_path / "cmp"
    assert run_cli("compare", "--g", "0.9", "--eps-d", "0", "--tmax", "20",
                   "--samples", "41", "--out", str(base), "--no-meta-time") == 0
    report = io.read_json(base.with_suffix(".json"))
    dev = report["max_abs_deviation"]
    assert dev["ode_vs_cut"] < 1e-6
    assert dev["ode_vs_bessel"] < 1e-6
    _, data = io.read_csv(base.with_suffix(".csv"))
    assert {"re_A_ode", "re_A_cut", "re_A_bessel"} <= set(data)


def test_cli_compare_detuned(tmp_path):
    base = tmp_path / "cmp"
    assert run_cli("compare", "--g", "0.9", "--eps-d", "0.2", "--tmax", "60",
                   "--samples", "241", "--out", str(base), "--no-meta-time") == 0
    report = io.read_json(base.with_suffix(".json"))
    assert report["max_abs_deviation"]["ode_vs_cut"] < 1e-6
    assert "shelf_1d" in report["fits"]


@pytest.mark.parametrize("eps_d", ["1e-6", "-1e-6"])
def test_cli_compare_next_to_a_threshold(tmp_path, eps_d):
    # at g = 1 a bound state sits within 1e-12 of a band edge, where no double
    # meets the spectrum's residual check; compare only needs to know that it
    # exists, and drops the cut route
    base = tmp_path / "cmp"
    assert run_cli("compare", "--g", "1.0", "--eps-d", eps_d, "--tmax", "5",
                   "--samples", "11", "--out", str(base), "--no-meta-time") == 0
    assert "ode_vs_cut" not in io.read_json(base.with_suffix(".json"))["max_abs_deviation"]


# ---------------------------------------------------------------------------
# figure command

def test_cli_figure_unknown_id(tmp_path):
    assert run_cli("figure", "nofig", "--out", str(tmp_path), "--no-meta-time") == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_figure_rejects_jobs_below_one(tmp_path, capsys, jobs):
    assert run_cli("figure", "fig1", "--jobs", jobs, "--out", str(tmp_path),
                   "--no-meta-time") == 2
    assert "--jobs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure_table_is_well_formed():
    names = []
    for panels in cli.FIGURES.values():
        for kind, name, *args in panels:
            writer = cli.PANEL_WRITERS[kind]
            inspect.signature(writer).bind(Path(f"{name}.csv"), *args, meta_time=False)
            if kind == "overlay":
                cli._parse_tags(args[2])
            if kind == "evolve":
                cli._parse_state(args[2])
            names.append(name)
    assert len(names) == len(set(names))


def test_readme_lists_every_figure_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Figure ids: `([^`]*)`", readme).group(1).split()
    assert tuple(listed) == tuple(cli.FIGURES)


def test_cli_figure_fig1(tmp_path):
    assert run_cli("figure", "fig1", "--out", str(tmp_path), "--no-meta-time") == 0
    text = (tmp_path / "fig1_spectrum.csv").read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "g,z_bic,z_plus,z_minus,kind"
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 200
    # classification flips exactly at g = 1
    kinds = {float(row[0]): row[4] for row in body}
    assert kinds[0.99] == "VirtualBound"
    assert kinds[1.0] == "VirtualBound"  # band-edge degenerate pair
    assert kinds[1.01] == "Bound"
    row = body[89]  # g = 0.90
    assert float(row[1]) == 0.0
    assert float(row[2]) == pytest.approx(0.9 + 1 / 0.9, abs=1e-12)


def test_cli_figure_figS3_panels(tmp_path):
    assert run_cli("figure", "figS3", "--out", str(tmp_path), "--no-meta-time",
                   "--jobs", "2") == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["figS3_w0.1_evolve.csv", "figS3_w0.5_evolve.csv",
                     "figS3_w1.0_evolve.csv", "figS3_w2.0_evolve.csv"]
    meta, data = io.read_csv(tmp_path / "figS3_w1.0_evolve.csv")
    assert meta["state"] == "w:1.0"
    assert data["P_perp"][0] == pytest.approx(1.0, abs=1e-12)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
