import argparse
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bicchain
from bicchain import cli, closedform, io, spectrum
from bicchain.analysis import TooFewPeaksError
from bicchain.cli import main
from bicchain.closedform import DivergenceError, DomainError
from bicchain.evolve import EvolveOptions, IntegratorError, _miller_start
from bicchain.model import ConfigError, InvalidParameterError, NumericalError
from bicchain.spectrum import RootFindError
from oracles import NearPoleError, QuadratureError


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24)


@given(obj=JSON_VALUES)
@example(obj={"\u00e9\n\"\\\x00\u2603\U0001f600": ("\t", -0.0, 2**64 + 1), "": [[], {}, ()],
              "n": [None, True, False, math.nan, -math.inf, math.inf, 5e-324, 1e308]})
@example(obj=np.float64(0.1))
def test_property_json_writer_is_json_dumps(tmp_path_factory, obj):
    # the writer's own encoder emits json.dumps' text byte for byte
    path = tmp_path_factory.getbasetemp() / "property.json"
    io.write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--g", "1"],  # null timescales
    ["spectrum", "--g", "0.5", "--eps-d", "1.5"],  # a band-edge state
    *(["spectrum", "--g", g, "--eps-d", eps_d]
      for g, eps_d in [("0.9", "0"), ("1.1", "0"), ("0.9", "0.2"), ("1.3", "-0.4"),
                       ("0.3", "1e-3")]),
    ["compare", "--g", "0.9", "--tmax", "30", "--samples", "301"],
    ["compare", "--g", "1.3", "--eps-d", "0.4", "--tmax", "40", "--samples", "401"],
])
def test_reports_are_written_as_json_dumps_writes_them(tmp_path, monkeypatch, argv):
    written = []
    write_json = io.write_json

    def recording(path, obj):
        write_json(path, obj)
        written.append((path, obj))

    monkeypatch.setattr(io, "write_json", recording)
    assert run_cli(*argv, "--out", str(tmp_path / "report"), "--no-meta-time") == 0
    [(path, obj)] = written
    assert Path(path).read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("obj", [{"n": np.int64(3)}, {(1, 2): 0.5}, {"x": [object()]}],
                         ids=["int64", "tuple_key", "object"])
def test_json_writer_refuses_what_json_refuses(tmp_path, obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        io.write_json(tmp_path / "x.json", obj)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# in-place rewrites

WRITERS = {
    "csv": lambda path: io.write_csv(path, ["t", "v"], [np.array([0.5, 1.5]),
                                                        np.array([2.0, -1.0])]),
    "json": lambda path: io.write_json(path, {"a": [1, 2]}),
}


@pytest.mark.parametrize("kind", WRITERS)
def test_rewrite_of_a_longer_file_holds_only_the_new_bytes(tmp_path, kind):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    WRITERS[kind](fresh)
    old.write_bytes(b"x" * 10_000)
    inode = old.stat().st_ino
    WRITERS[kind](old)
    assert old.read_bytes() == fresh.read_bytes()
    assert old.stat().st_ino == inode


def test_writers_never_open_with_o_trunc(tmp_path, monkeypatch):
    # truncating on open frees the old blocks, which costs about ten times
    # the rewrite itself on ext4
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # create, then rewrite
        for kind, write in WRITERS.items():
            write(tmp_path / kind)
    assert len(flags) == 4
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_new_file_gets_the_bytes_and_mode_of_write_text(tmp_path):
    doc = {"b": [1.5, -2.0], "a": "x"}
    old_umask = os.umask(0o027)
    try:
        (tmp_path / "reference").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        io.write_json(tmp_path / "new", doc)
    finally:
        os.umask(old_umask)
    ref, new = (tmp_path / "reference").stat(), (tmp_path / "new").stat()
    assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()
    assert stat.S_IMODE(new.st_mode) == stat.S_IMODE(ref.st_mode) == 0o640


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


@pytest.mark.parametrize("g, eps_d", [(30.0, 0.0), (20.0, 0.1)])
def test_cli_spectrum_at_strong_coupling(tmp_path, g, eps_d):
    # the real pair sits at |z| ~ g, where a cancelling form of Sigma misses
    # the residual bound
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", repr(g), "--eps-d", repr(eps_d), "--out", str(out),
                   "--no-meta-time") == 0
    kinds = sorted(s["kind"] for s in io.read_json(out)["states"])
    assert kinds == (["BIC", "Bound", "Bound"] if eps_d == 0.0
                     else ["AntiResonance", "Bound", "Bound", "Resonance"])


@pytest.mark.skipif(not Path(os.devnull).is_char_device(), reason="no null device")
def test_cli_writes_to_the_null_device():
    assert run_cli("spectrum", "--g", "0.9", "--out", os.devnull) == 0


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
def test_cli_writes_json_to_a_piped_stdout():
    run = subprocess.run([sys.executable, "-m", "bicchain.cli", "spectrum", "--g", "0.9",
                          "--out", "/dev/stdout", "--no-meta-time"],
                         capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["meta"] == {"tool_version": bicchain.__version__}


@pytest.mark.parametrize("target", ["existing_dir", "missing_dir/s.json"])
def test_cli_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, target):
    (tmp_path / "existing_dir").mkdir()
    out = str(tmp_path / target)
    assert run_cli("spectrum", "--g", "0.9", "--out", out) == 2
    assert out in capsys.readouterr().err


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


SPECTRUM_EXTREMES = [
    (1e-200, 0.2, {2}),      # outside the resolvable couplings [1e-3, 1e3]
    (0.9, 1e300, {2}),       # beyond the resolvable detunings |eps_d| <= 1000
    (1e-5, 0.3, {2}),
    (1e5, 0.3, {2}),
    (0.9, 1e-300, {0}),
    (0.9, 5e-324, {0}),
    (0.9, 2.0 - 2.0 * 0.9 ** 2, {0}),  # threshold 2 g^2 = 2 - eps_d
    # 5.6e-8 above it the real root is about 1e-16 from the band edge, where
    # no double meets the residual bound and Newton can land on z = 2
    (0.9, 0.3800000562341324, {3}),
    # far detuning, where a damped complex Newton in z stalls on the resonance pair
    (1.2509949159616216, 186.0, {0}),
]
#: the same (g, eps_d), and couplings whose g^3 overflows or g^2 underflows
EXTREMES = [(g, eps_d) for g, eps_d, _ in SPECTRUM_EXTREMES] + [
    (1e120, 0.0), (1e-200, 0.0), (5e-324, 0.1)]


@pytest.mark.parametrize("g, eps_d, expected", SPECTRUM_EXTREMES)
def test_cli_spectrum_extreme_parameters_exit_cleanly(tmp_path, capsys, g, eps_d, expected):
    code = run_cli("spectrum", "--g", repr(g), "--eps-d", repr(eps_d),
                   "--out", str(tmp_path / "x.json"), "--no-meta-time")
    assert code in expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("g, eps_d", EXTREMES)
def test_cli_analytic_extreme_parameters_exit_cleanly(tmp_path, capsys, g, eps_d):
    # a closed form is evaluated or refused (exit 2), never a numerical failure
    for tag in closedform.LAWS:
        code = run_cli("analytic", "--g", repr(g), "--eps-d", repr(eps_d), "--tags", tag,
                       "--tmax", "10", "--samples", "3", "--out", str(tmp_path / "x.csv"),
                       "--no-meta-time")
        assert code in (0, 2), (tag, capsys.readouterr().err)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("g, eps_d", EXTREMES)
def test_cli_compare_extreme_parameters_exit_cleanly(tmp_path, capsys, g, eps_d):
    code = run_cli("compare", "--g", repr(g), "--eps-d", repr(eps_d), "--tmax", "0.01",
                   "--samples", "3", "--out", str(tmp_path / "cmp"), "--no-meta-time")
    assert code in (0, 2), capsys.readouterr().err


def test_cli_compare_where_the_roots_of_p_are_out_of_reach(tmp_path, capsys):
    # at g = 1e-160 the companion matrix of P overflows, so the bound-state
    # poles cannot be found: a numerical failure, not a traceback
    code = run_cli("compare", "--g", "1e-160", "--eps-d", "3", "--tmax", "0.01",
                   "--samples", "3", "--out", str(tmp_path / "cmp"), "--no-meta-time")
    assert code == 3
    assert "roots of P not resolvable" in capsys.readouterr().err


@pytest.mark.parametrize("g, eps_d, tags, named", [
    # every tag but WNearZoneG1, which refuses any g != 1 by its own rule
    ("1e120", "0", [tag for tag in closedform.LAWS if tag != "WNearZoneG1"], "g = 1e+120"),
    ("1e-200", "0", ["NearZoneAmp", "FarZoneProb", "EarlyBessel"], "g = 1e-200"),
    ("0.9", "1e300", ["ResPolePerp"], "eps_d = 1e+300"),
    # 1/g^2 overflows in the law's numpy values, which wrote rows of inf
    ("1e-160", "0", ["NearZoneEarlyProb", "NearZoneAmp", "EarlyBessel"], "g = 1e-160"),
])
def test_cli_analytic_refuses_unrepresentable_parameters(tmp_path, capsys, g, eps_d, tags,
                                                         named):
    # g^3 overflows, g^2 underflows, 1/g^2 or eps_d^4 overflows: refused by name
    out = tmp_path / "x.csv"
    for tag in tags:
        assert run_cli("analytic", "--g", g, "--eps-d", eps_d, "--tags", tag, "--tmax", "10",
                       "--samples", "3", "--out", str(out)) == 2, tag
        assert named in capsys.readouterr().err, tag
    assert not out.exists()


@pytest.mark.parametrize("g, tag, tmax, span", [
    ("0.9", "NearZoneAmp", "1e308", "t = 1e+304 to 1e+308"),  # 2 t overflows
    ("0.5", "WFarZone", "1e-300", "t = 1e-304 to 1e-300"),  # t^3 underflows
])
def test_cli_analytic_names_the_time_span_that_over_or_underflows(tmp_path, capsys, g, tag,
                                                                  tmax, span):
    # representable g and eps_d: the message names the grid's span as well
    out = tmp_path / "x.csv"
    assert run_cli("analytic", "--g", g, "--tags", tag, "--tmax", tmax, "--samples", "3",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert span in err and "over- or underflows" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--g", "0.9", "--grid", "log"],
    ["analytic", "--g", "0.9", "--tags", "NearZoneAmp"],  # log grid by default
], ids=["evolve", "analytic"])
def test_cli_log_grid_whose_start_underflows_is_refused(tmp_path, capsys, argv):
    # the grid's first time 1e-4 t_max rounds to 0
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--tmax", "1e-320", "--samples", "3", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "t_max = 9.99989e-321 is too small for a log grid" in err
    assert not out.exists()


def test_cli_compare_refuses_unrepresentable_coupling_before_evolving(tmp_path, monkeypatch,
                                                                      capsys):
    # the fits' timescales need g^2 > 0: refused before the evolution runs
    monkeypatch.setattr(cli, "evolve", lambda *args: pytest.fail("compare evolved"))
    assert run_cli("compare", "--g", "1e-200", "--eps-d", "0.1", "--tmax", "1",
                   "--samples", "3", "--out", str(tmp_path / "cmp")) == 2
    assert "g = 1e-200" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_compare_refuses_the_bessel_panel_cap_before_evolving(tmp_path, monkeypatch,
                                                                  capsys):
    # the cap depends on g and t_max alone, so compare checks it first
    calls = []

    def counted(*args):
        calls.append(args)
        return evolve(*args)

    evolve = cli.evolve
    monkeypatch.setattr(cli, "evolve", counted)
    assert run_cli("compare", "--g", "1e-100", "--eps-d", "0", "--tmax", "1",
                   "--samples", "3", "--out", str(tmp_path / "cmp")) == 2
    assert calls == []
    assert "g = 1e-100 up to t = 1 exceeds the cap" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("g", ["2000", "5e-4"])
def test_cli_spectrum_refuses_unresolvable_coupling(tmp_path, capsys, g):
    # a correct state near |z| ~ 2000 fails the 1e-12 dispersion check, so
    # such g are a configuration error that names the accepted range
    assert run_cli("spectrum", "--g", g, "--out", str(tmp_path / "x.json")) == 2
    assert "0.001 <= g <= 1000" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("eps_d", ["1000.5", "-1e4"])
def test_cli_spectrum_refuses_unresolvable_detuning(tmp_path, capsys, eps_d):
    # beyond |eps_d| = 1000 the states lie near |z| ~ |eps_d|, where correct
    # states fail the absolute 1e-12 dispersion check (from about 2170); the
    # limit is refused up front and named
    assert run_cli("spectrum", "--g", "1.2", "--eps-d", eps_d,
                   "--out", str(tmp_path / "x.json")) == 2
    assert "|eps_d| <= 1000," in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _standard_json(path: Path) -> dict:
    """The JSON document at ``path``, refusing NaN, Infinity and -Infinity
    as RFC 8259 and JSON.parse do."""
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-standard token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("eps_d", [0.0, 0.2])
@pytest.mark.parametrize("g", [0.9, 1.0, 1.1])
def test_cli_spectrum_writes_standard_json(tmp_path, g, eps_d):
    # at g = 1 t_delta is inf, above it NaN: an undefined timescale is null
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--g", repr(g), "--eps-d", repr(eps_d), "--out", str(out),
                   "--no-meta-time") == 0
    written = _standard_json(out)["timescales"]
    for key, value in vars(spectrum.timescales(g)).items():
        assert written[key] == (value if math.isfinite(value) else None), key


@pytest.mark.parametrize("g, eps_d", [(0.9, 0.0), (1.0, 0.0), (1.1, 0.0), (0.9, 0.2)])
def test_cli_compare_writes_standard_json(tmp_path, g, eps_d):
    assert run_cli("compare", "--g", repr(g), "--eps-d", repr(eps_d), "--tmax", "5",
                   "--samples", "11", "--out", str(tmp_path / "cmp"), "--no-meta-time") == 0
    assert _standard_json(tmp_path / "cmp.json")["max_abs_deviation"]


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


def _fresh_env():
    """Environment in which a fresh interpreter imports this checkout's bicchain."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's bicchain."""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_fresh_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_cli_runs_without_scipy(tmp_path):
    # importing scipy is most of a CLI process's start-up time and memory;
    # no command needs it, the Bessel (J_0, J_1) and ray (their Gauss rule)
    # routes included
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from bicchain import cli, closedform\n"
        "from bicchain.model import ModelParams\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        f"out = {str(tmp_path)!r}\n"
        "runs = [['spectrum', '--g', '0.9', '--eps-d', '0.2', '--out', out + '/s.json'],\n"
        "        ['compare', '--g', '0.9', '--eps-d', '0.2', '--tmax', '5', '--samples', '11',\n"
        "         '--out', out + '/c'],\n"
        "        ['compare', '--g', '0.9', '--eps-d', '0', '--tmax', '5', '--samples', '11',\n"
        "         '--out', out + '/c0'],\n"
        "        ['figure', 'fig1', '--jobs', '1', '--out', out],\n"
        "        ['figure', 'figS2', '--jobs', '1', '--out', out]]\n"
        "for state in ('bic', 'perp', 'w:1.0'):\n"
        "    runs.append(['evolve', '--g', '0.9', '--state', state, '--tmax', '5',\n"
        "                 '--samples', '11', '--out', out + '/e.csv'])\n"
        "for argv in runs:\n"
        "    assert cli.main(argv + ['--no-meta-time']) == 0, argv\n"
        "amp = closedform.a_w_rays(np.geomspace(1.0, 100.0, 5), ModelParams(g=0.9), 1.0)\n"
        "assert np.all(np.isfinite(amp))\n")
    assert _run_fresh(script) == "[]"
    assert "re_A_bessel" in (tmp_path / "c0.csv").read_text()


def test_cli_compare_loads_no_scipy_for_the_bessel_route(tmp_path):
    # at eps_d = 0 compare adds the Bessel columns, whose J_1 is the
    # package's own (Miller's recurrence and Hankel's expansion)
    script = (
        "import sys\n"
        "from bicchain import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['compare', '--g', '0.9', '--eps-d', '0', '--tmax', '5',\n"
        "                 '--samples', '11', '--out', out + '/c', '--no-meta-time']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _run_fresh(script) == "[]"
    assert "re_A_bessel" in (tmp_path / "c.csv").read_text()


def test_cli_import_loads_no_thread_pool_or_numpy_polynomial(tmp_path):
    # every command pays its imports at start-up: the figure command writes
    # its panels in the calling thread, so no thread pool (concurrent.futures,
    # which loads logging) is loaded, and the Gauss rules are built without
    # numpy.polynomial
    script = (
        "import sys\n"
        "import bicchain.cli\n"
        f"assert bicchain.cli.main(['figure', 'fig1', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')\n"
        "             or m.split('.')[:2] == ['numpy', 'polynomial']))\n")
    assert _run_fresh(script) == "[]"


def test_only_the_csr_reference_names_scipy():
    # scipy is a test extra: test oracles live in tests/oracles.py, and only
    # model.py keeps the CSR reference Hamiltonian that tests and the
    # benchmark build
    modules = Path(bicchain.__file__).parent.glob("*.py")
    assert sorted(p.name for p in modules if "scipy" in p.read_text()) == ["model.py"]


def test_every_traced_name_is_a_package_callable():
    # the benchmark's span recorder wraps these names and counts a missing one
    # as a failed operation; its source is read, not imported, so nothing is
    # written next to it
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    assert spans["TARGETS"]
    for module_name, attr, _hook in spans["TARGETS"]:
        owner = importlib.import_module(f"bicchain.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_cli_near_pole_error_exits_numerical(tmp_path, monkeypatch):
    # a NumericalError met below a command, here the resolvent oracle's
    # pole guard, is a numerical failure
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
    (TooFewPeaksError("no peaks"), 2),
    (RootFindError("stalled", 1.0 + 0j), 3),
    (IntegratorError("non-finite moments", 0.0), 3),
]


def test_error_instances_cover_the_package():
    assert {type(exc) for exc, _ in ERROR_INSTANCES} == _package_errors()


#: the package's errors, and a NumericalError of each of the tests' resolvent
#: and adaptive cut oracles
EXIT_CASES = ERROR_INSTANCES + [(NearPoleError(0.1 + 0j), 3),
                                (QuadratureError("no convergence", 1e-3), 3)]


@pytest.mark.parametrize("exc, code", EXIT_CASES,
                         ids=[type(exc).__name__ for exc, _ in EXIT_CASES])
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


def test_cli_compare_has_no_grid_flag(tmp_path, capsys):
    # compare samples a linear grid; --grid is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--g", "0.9", "--tmax", "10", "--samples", "5", "--grid", "log",
                "--out", str(tmp_path / "cmp"), "--no-meta-time")
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    # g^2 overflows: the spectrum refuses g outside the couplings it
    # resolves, and the evolve state builder rejects g by name, both at the
    # boundary
    assert run_cli("spectrum", "--g", "1e200", "--out", str(tmp_path / "x.json"),
                   "--no-meta-time") == 2
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


@pytest.mark.parametrize("sites", ["1000001", "1000000000000000"])
def test_cli_evolve_refuses_sites_beyond_the_cap(tmp_path, capsys, sites):
    # an explicit chain meets the MAX_SITES cap of an auto-sized one; the
    # larger value would otherwise end in numpy's allocation traceback
    out = tmp_path / "e.csv"
    assert run_cli("evolve", "--g", "0.9", "--tmax", "1", "--samples", "3", "--sites", sites,
                   "--out", str(out), "--no-meta-time") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_sites must be <= 1000000 ") and sites in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [("evolve", []),
                                            ("analytic", ["--tags", "NearZoneAmp"]),
                                            ("compare", [])])
def test_cli_refuses_a_request_too_large_to_allocate(tmp_path, capsys, command, extra):
    # numpy refuses 7.11 PiB of samples before it allocates any of it
    assert run_cli(command, "--g", "0.9", "--tmax", "10", "--samples", str(10 ** 15), *extra,
                   "--out", str(tmp_path / "x"), "--no-meta-time") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
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


def test_cli_abs_tol_alone_sets_the_order(tmp_path):
    # abs_tol is the one accuracy setting: a looser value needs no other
    # flag and takes fewer Chebyshev terms than the default
    args = ["evolve", "--g", "0.9", "--tmax", "10", "--samples", "11", "--no-meta-time"]
    loose, default = tmp_path / "loose.csv", tmp_path / "default.csv"
    assert run_cli(*args, "--abs-tol", "1e-9", "--out", str(loose)) == 0
    assert run_cli(*args, "--out", str(default)) == 0
    meta_loose, _ = io.read_csv(loose)
    meta_default, _ = io.read_csv(default)
    assert meta_loose["abs_tol"] == "1e-09" and "rel_tol" not in meta_default
    assert int(meta_loose["cheb_terms"]) < int(meta_default["cheb_terms"])


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_cli_has_no_rel_tol(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rel_tol=1e-8\n")
    args = [command, "--g", "0.9", "--tmax", "5", "--samples", "5",
            "--out", str(tmp_path / "x"), "--no-meta-time"]
    for extra in (["--rel-tol", "1e-8"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, *extra)
        assert exc.value.code == 2
    assert run_cli(*args, "--abs-tol", "1e-5") == 2  # above the 1e-6 cap
    assert list(tmp_path.iterdir()) == [cfg]


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


def test_cli_config_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"tmax=5\n\xff\xfe=1\n")
    out = tmp_path / "e.csv"
    assert run_cli("evolve", "--config", str(cfg), "--g", "0.9", "--out", str(out)) == 2
    assert f"config file {cfg} is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--g", "0.9", "--eps-d", "0.1", "--state", "perp",
            "--tmax", "15", "--samples", "61", "--no-meta-time"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# one parser per process

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_in_process_runs_match_fresh_processes(tmp_path):
    # one process running spectrum, evolve and compare in turn writes the
    # same bytes as a fresh interpreter per command
    runs = [["spectrum", "--g", "0.9", "--eps-d", "0.2", "--out", "{}/s.json"],
            ["evolve", "--g", "1.3", "--eps-d", "-0.4", "--state", "w:1.0", "--tmax", "8",
             "--samples", "41", "--grid", "log", "--out", "{}/e.csv"],
            ["compare", "--g", "0.9", "--tmax", "6", "--samples", "31", "--out", "{}/c"]]
    for side in ("inproc", "fresh"):
        (tmp_path / side).mkdir()
        for argv in runs:
            argv = [a.format(tmp_path / side) for a in argv] + ["--no-meta-time"]
            if side == "inproc":
                assert run_cli(*argv) == 0
            else:
                subprocess.run([sys.executable, "-m", "bicchain.cli", *argv],
                               env=_fresh_env(), check=True, timeout=120)
    names = ["s.json", "e.csv", "c.csv", "c.json"]
    assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "inproc" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_usage_error_leaves_the_next_call_its_defaults(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--g", "0.9", "--tmax", "10", "--samples", "5", "--grid", "log",
                "--out", str(tmp_path / "bad"), "--no-meta-time")
    assert exc.value.code == 2
    out = tmp_path / "e.csv"
    assert run_cli("evolve", "--g", "0.9", "--tmax", "10", "--samples", "5",
                   "--out", str(out), "--no-meta-time") == 0
    meta, data = io.read_csv(out)
    assert meta["grid"] == "linear" and meta["eps_d"] == "0.0" and meta["state"] == "perp"
    assert np.allclose(data["t"], np.linspace(0.0, 10.0, 5))


def test_config_values_do_not_carry_over(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps_d=0.3\nsamples=7\nstate=w:1.0\ngrid=log\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("evolve", "--config", str(cfg), "--g", "0.9", "--tmax", "4",
                   "--out", str(a), "--no-meta-time") == 0
    assert run_cli("evolve", "--g", "0.9", "--tmax", "4", "--out", str(b),
                   "--no-meta-time") == 0
    meta_a, data_a = io.read_csv(a)
    meta_b, data_b = io.read_csv(b)
    assert (meta_a["eps_d"], meta_a["state"], meta_a["grid"]) == ("0.3", "w:1.0", "log")
    assert (meta_b["eps_d"], meta_b["state"], meta_b["grid"]) == ("0.0", "perp", "linear")
    assert len(data_a["t"]) == 7 and len(data_b["t"]) == EvolveOptions.n_samples


def test_handler_patched_after_a_first_call_runs(tmp_path, monkeypatch):
    out = tmp_path / "s.json"
    assert run_cli("spectrum", "--g", "0.9", "--out", str(out), "--no-meta-time") == 0
    seen = []

    def fake(args):
        seen.append(args.g)
        return 0

    monkeypatch.setattr(cli, "_cmd_spectrum", fake)
    out.unlink()
    assert run_cli("spectrum", "--g", "0.7", "--out", str(out), "--no-meta-time") == 0
    assert seen == [0.7] and not out.exists()


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

def test_cli_compare_keeps_dots_in_out(tmp_path):
    for g in ("0.9", "0.7"):
        assert run_cli("compare", "--g", g, "--tmax", "5", "--samples", "11",
                       "--out", str(tmp_path / f"cmp_g{g}"), "--no-meta-time") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cmp_g0.7.csv", "cmp_g0.7.json", "cmp_g0.9.csv", "cmp_g0.9.json"]


@pytest.mark.parametrize("out", ["cmp", "cmp.csv", "cmp.json"])
def test_cli_compare_drops_only_its_own_suffix(tmp_path, out):
    assert run_cli("compare", "--g", "0.9", "--tmax", "5", "--samples", "11",
                   "--out", str(tmp_path / out), "--no-meta-time") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cmp.csv", "cmp.json"]


@pytest.mark.parametrize("out", ["", ".", "{dir}", "{dir}/", "{missing}/"])
def test_cli_compare_refuses_an_out_without_a_file_name(tmp_path, monkeypatch, capsys, out):
    # an empty final name or an existing directory exits 2 before the
    # evolution runs, and nothing is written beside the directory
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "evolve", lambda *args: pytest.fail("compare evolved"))
    out = out.format(dir=tmp_path / "dir", missing=tmp_path / "missing")
    assert run_cli("compare", "--g", "0.9", "--tmax", "5", "--samples", "11",
                   "--out", out, "--no-meta-time") == 2
    assert "--out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


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


@pytest.mark.parametrize("eps_d", ["0", "0.2"])
def test_cli_compare_integrates_the_cut_once(tmp_path, monkeypatch, eps_d):
    # one moment-route call per run, for every sample time, not one per time
    calls = []
    moments = closedform._cut_moments

    def counted(params, w, n_max):
        calls.append(n_max)
        return moments(params, w, n_max)

    monkeypatch.setattr(closedform, "_cut_moments", counted)
    assert run_cli("compare", "--g", "0.9", "--eps-d", eps_d, "--tmax", "20",
                   "--samples", "41", "--out", str(tmp_path / "cmp"), "--no-meta-time") == 0
    # the orders of J_n(40), the largest argument
    assert calls == [int(_miller_start(np.array([40.0]))[0])]


@pytest.mark.parametrize("eps_d", ["1e-6", "-1e-6"])
def test_cli_compare_next_to_a_threshold(tmp_path, eps_d):
    # at g = 1 a bound state sits within 1e-12 of a band edge, where no double
    # meets the spectrum's residual check; the pole sum makes no such check,
    # and the cut route adds the state's small weight
    base = tmp_path / "cmp"
    assert run_cli("compare", "--g", "1.0", "--eps-d", eps_d, "--tmax", "5",
                   "--samples", "11", "--out", str(base), "--no-meta-time") == 0
    report = io.read_json(base.with_suffix(".json"))
    assert report["max_abs_deviation"]["ode_vs_cut"] <= 1e-12
    _, data = io.read_csv(base.with_suffix(".csv"))
    assert {"re_A_cut", "im_A_cut"} <= set(data)
    [pole] = report["poles"]
    assert pole["re_z"] == pytest.approx(math.copysign(2.0, float(eps_d)), abs=1e-9)
    assert pole["im_z"] == 0.0


@pytest.mark.parametrize("g, eps_d, t_max", [("1.3", "0.4", "40"), ("7", "96.01", "5")])
def test_cli_compare_with_bound_states(tmp_path, g, eps_d, t_max):
    # a bound state on each side of the band at (1.3, 0.4); one far above it
    # at (7, 96.01), where the spectrum command exits 3
    base = tmp_path / "cmp"
    assert run_cli("compare", "--g", g, "--eps-d", eps_d, "--tmax", t_max,
                   "--samples", "41", "--out", str(base), "--no-meta-time") == 0
    report = io.read_json(base.with_suffix(".json"))
    assert report["max_abs_deviation"]["ode_vs_cut"] <= 1e-6
    assert len(report["poles"]) == (2 if g == "1.3" else 1)


# ---------------------------------------------------------------------------
# figure command

def test_cli_figure_unknown_id(tmp_path, capsys):
    # every id is checked before the first panel is written
    for ids in (["nofig"], ["fig1", "nofig", "figS2"]):
        assert run_cli("figure", *ids, "--out", str(tmp_path), "--no-meta-time") == 2
        assert "unknown figure id 'nofig'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_cli_figure_several_ids_write_the_bytes_of_single_runs(tmp_path):
    assert run_cli("figure", "fig1", "figS2", "--out", str(tmp_path / "both"),
                   "--no-meta-time") == 0
    for fid in ("fig1", "figS2"):
        assert run_cli("figure", fid, "--out", str(tmp_path / "one"), "--no-meta-time") == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == ["fig1_spectrum.csv", "figS2_evolve.csv", "figS2_overlays.csv"]
    assert sorted(p.name for p in (tmp_path / "both").iterdir()) == names
    for name in names:
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_cli_figure_all_is_every_figure_in_table_order(tmp_path, monkeypatch):
    calls = []

    def record(path, fid, *, meta_time):
        calls.append((path, fid, meta_time))

    monkeypatch.setattr(cli, "FIGURES", {fid: [(record, f"{fid}_panel", fid)]
                                         for fid in cli.FIGURES})
    assert run_cli("figure", "all", "--out", str(tmp_path), "--no-meta-time") == 0
    assert calls == [(tmp_path / f"{fid}_panel.csv", fid, False) for fid in cli.FIGURES]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_figure_rejects_jobs_below_one(tmp_path, capsys, jobs):
    assert run_cli("figure", "fig1", "--jobs", jobs, "--out", str(tmp_path),
                   "--no-meta-time") == 2
    assert "--jobs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure_table_is_well_formed():
    names = []
    for panels in cli.FIGURES.values():
        for writer, name, *args in panels:
            inspect.signature(writer).bind(Path(f"{name}.csv"), *args, meta_time=False)
            if writer is cli._overlay:
                cli._parse_tags(args[2])
            if writer is cli._evolution:
                cli._parse_state(args[2], args[0])
            names.append(name)
    assert len(names) == len(set(names))


def test_readme_lists_every_figure_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Figure ids: `([^`]*)`", readme).group(1).split()
    assert tuple(listed) == tuple(cli.FIGURES)


def test_readme_command_line_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"\n## Command line\n(.*?)\n## ", readme, re.S).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def long_options(p):
        return {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")}

    on_subcommands = set().union(*map(long_options, sub.choices.values()))
    assert on_subcommands - documented == set()
    assert documented - (on_subcommands | long_options(parser)) == set()


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


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


def test_cli_figure_figS3_jobs_write_the_same_bytes(tmp_path):
    # --jobs does not change the bytes
    for jobs in ("1", "2"):
        assert run_cli("figure", "figS3", "--out", str(tmp_path / jobs), "--no-meta-time",
                       "--jobs", jobs) == 0
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 4
    assert sorted(p.name for p in (tmp_path / "2").iterdir()) == names
    for name in names:
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_bessel_panel_says_how_its_tail_was_integrated(tmp_path):
    # the panel grid goes after every other metadata key
    path = tmp_path / "b.csv"
    cli._bessel(path, 0.98, 0.1, 300.0, 50, "log", meta_time=False)
    meta, data = io.read_csv(path)
    assert list(meta)[-3:] == ["tool_version", "panel_width", "panels"]
    width = 12.0 / (spectrum.z_gap(0.98)[0] + 2.0)
    assert meta["panel_width"] == repr(width)
    assert meta["panels"] == str(math.floor(300.0 / width) + 1) == "101"
    assert data["t"][-1] == 300.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# command dispatch

@pytest.mark.parametrize("argv", [[], ["nosuch"], ["--g", "0.9"]])
def test_main_without_a_command_exits_2_from_the_top_level_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("bicchain: error:")


def test_command_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bicchain spectrum")


def test_stray_flag_is_named_under_the_commands_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--g", "0.9", "--tmax", "1", "--out", str(tmp_path / "c"),
              "--grid", "log"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "bicchain compare: error: unrecognized arguments: --grid log"
    assert not list(tmp_path.iterdir())


MODEL_CFG = "# defaults\ng = 0.7\neps_d = -1e-3\nno_meta_time = true\n"


@pytest.mark.parametrize("argv, cfg_text", [
    (["spectrum", "--g", "0.9", "--eps-d", "-1e-3", "--out", "s.json"], None),
    (["spectrum", "--config", "{cfg}", "--g", "1.2", "--out", "s.json"], MODEL_CFG),
    (["evolve", "--g", "0.9", "--state", "w:-1e-3", "--tmax", "5", "--samples", "11",
      "--sites", "auto", "--abs-tol", "1e-12", "--grid", "log", "--out", "e.csv"], None),
    (["evolve", "--config={cfg}", "--tmax", "8", "--out", "e.csv"], MODEL_CFG + "tmax = 50\n"),
    (["analytic", "--g", "0.98", "--tags", "NearZoneEarlyProb", "--tmax", "10",
      "--out", "a.csv"], None),
    (["compare", "--g", "1.3", "--eps-d", "-0.4", "--tmax", "5", "--out", "c",
      "--no-meta-time"], None),
    (["figure", "fig1", "figS2", "--jobs", "1", "--out", "figs"], None),
    (["figure", "all", "--out", "figs", "--config", "{cfg}"], "jobs = 2\nno_meta_time = 1\n"),
])
def test_command_parser_gives_the_top_level_namespace(tmp_path, monkeypatch, argv, cfg_text):
    cfg = tmp_path / "run.cfg"
    if cfg_text is not None:
        cfg.write_text(cfg_text)
    argv = [token.format(cfg=cfg) for token in argv]
    seen = []
    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: seen.append(args) or 0)
    assert main(argv) == 0
    top = cli.build_parser().parse_args(
        cli._attach_negative_values(cli._apply_config_file(argv)))
    assert seen == [top]
    assert top.command == argv[0]
