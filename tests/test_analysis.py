import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicchain.analysis import (FitKind, FitReport, TooFewPeaksError, _refine, find_peaks,
                               find_troughs, fit_exponential, fit_phase,
                               fit_power_law, oscillation_contrast)
from bicchain.evolve import ProbabilitySeries
from bicchain.model import ConfigError


def _synthetic(exponent: float, phase: float, t_lo=5.0, t_hi=120.0, dt=0.01,
               scale=1.0):
    ts = np.arange(t_lo, t_hi, dt)
    vals = scale * np.cos(2 * ts - phase) ** 2 * ts ** exponent
    return ProbabilitySeries(times=ts, values=vals)


def test_power_law_synthetic():
    series = _synthetic(-3.0, math.pi / 4, t_lo=9.0, t_hi=101.0)
    report = fit_power_law(series, 10.0, 100.0)
    assert report.kind is FitKind.PowerLaw
    assert report.params["exponent"] == pytest.approx(-3.0, abs=0.01)
    assert report.n_points >= 3
    assert report.residual_rms < 0.01


def test_power_law_scale_equivariance():
    a = fit_power_law(_synthetic(-3.0, math.pi / 4), 10.0, 100.0)
    b = fit_power_law(_synthetic(-3.0, math.pi / 4, scale=7.5), 10.0, 100.0)
    assert b.params["exponent"] == pytest.approx(a.params["exponent"], abs=1e-10)
    assert b.params["log_amplitude"] - a.params["log_amplitude"] == \
        pytest.approx(math.log(7.5), abs=1e-10)


def test_power_law_too_few_peaks():
    series = _synthetic(-1.0, 0.0, t_lo=1.0, t_hi=3.0)
    with pytest.raises(TooFewPeaksError):
        fit_power_law(series, 1.0, 2.0)


def test_phase_synthetic_quarter_pi():
    series = _synthetic(-1.0, math.pi / 4)
    report = fit_phase(series, 10.0, 60.0, detrend_exponent=-1.0)
    assert report.params["phase"] == pytest.approx(math.pi / 4, abs=0.01)
    assert not report.low_confidence


def test_phase_three_quarter_pi():
    series = _synthetic(-3.0, 3 * math.pi / 4)
    report = fit_phase(series, 10.0, 60.0, detrend_exponent=-3.0)
    assert report.params["phase"] == pytest.approx(3 * math.pi / 4, abs=0.01)


def test_phase_detrending_invariance():
    # phase comes from peak positions, so any detrending power gives the same
    series = _synthetic(-1.0, math.pi / 4)
    phases = [fit_phase(series, 10.0, 60.0, detrend_exponent=p).params["phase"]
              for p in (-3.0, -1.0, 0.0, 2.0)]
    assert np.ptp(phases) < 5e-3


def test_phase_wraps_into_0_pi():
    series = _synthetic(-1.0, 0.95 * math.pi)
    report = fit_phase(series, 10.0, 60.0, detrend_exponent=-1.0)
    assert 0 <= report.params["phase"] < math.pi
    assert report.params["phase"] == pytest.approx(0.95 * math.pi, abs=0.01)


def test_exponential_synthetic():
    ts = np.arange(5.0, 200.0, 0.5)
    series = ProbabilitySeries(times=ts, values=0.003 * np.exp(-0.0109 * ts))
    report = fit_exponential(series, 5.0, 200.0)
    assert report.params["rate"] == pytest.approx(0.0109, rel=0.01)
    assert report.params["amplitude"] == pytest.approx(0.003, rel=0.01)


def test_exponential_rejects_nonpositive():
    ts = np.arange(0.0, 10.0, 0.5)
    series = ProbabilitySeries(times=ts, values=1.0 - 0.2 * ts)
    with pytest.raises(ValueError):
        fit_exponential(series, 0.0, 10.0)


def test_analysis_input_errors_are_config_errors():
    # exit 2 through the CLI, and still ValueErrors for _compare_fits's suppress
    ts = np.arange(0.0, 10.0, 0.5)
    with pytest.raises(ConfigError, match="strictly positive"):
        fit_exponential(ProbabilitySeries(times=ts, values=1.0 - 0.2 * ts), 0.0, 10.0)
    with pytest.raises(ConfigError, match="t_lo < t_hi"):
        FitReport(kind=FitKind.Phase, params={}, window=(2.0, 1.0), residual_rms=0.0,
                  n_points=3)
    with pytest.raises(ConfigError, match="residual_rms"):
        FitReport(kind=FitKind.Phase, params={}, window=(1.0, 2.0), residual_rms=math.nan,
                  n_points=3)


def test_contrast_pure_oscillation():
    series = _synthetic(-3.0, math.pi / 4)
    report = oscillation_contrast(series, 10.0, 100.0, detrend_exponent=-3.0)
    assert report.params["contrast"] == pytest.approx(1.0, abs=1e-6)


def test_contrast_damped_oscillation():
    ts = np.arange(10.0, 100.0, 0.01)
    vals = (1.0 + 0.05 * np.cos(4 * ts)) / ts ** 3
    series = ProbabilitySeries(times=ts, values=vals)
    report = oscillation_contrast(series, 10.0, 100.0, detrend_exponent=-3.0)
    assert report.params["contrast"] == pytest.approx(0.05, abs=2e-3)


def test_peaks_and_troughs_refinement():
    ts = np.arange(0.0, 20.0, 0.037)
    series = ProbabilitySeries(times=ts, values=np.cos(2 * ts - 0.5) ** 2)
    t_pk, v_pk = find_peaks(series, 0.5, 19.5)
    t_tr, v_tr = find_troughs(series, 0.5, 19.5)
    # cos^2 peaks where 2t - 0.5 = m pi
    expected = [(m * math.pi + 0.5) / 2 for m in range(13)]
    expected = [t for t in expected if 0.5 <= t <= 19.5]
    assert len(t_pk) == len(expected)
    assert np.max(np.abs(np.asarray(expected) - t_pk)) < 5e-3
    assert np.all(v_pk > 0.999)
    assert np.all(v_tr < 1e-3)


def test_flat_topped_extremum_is_found_once():
    # two equal samples at a peak or a trough are one extremum, refined
    # to the midpoint of the parabola through the three samples
    peaks = ProbabilitySeries(times=np.arange(4.0), values=[0.0, 1.0, 1.0, 0.0])
    t_pk, v_pk = find_peaks(peaks, 0.0, 3.0)
    assert t_pk.tolist() == [1.5] and v_pk.tolist() == [1.125]
    troughs = ProbabilitySeries(times=np.arange(5.0), values=[1.0, 0.5, 0.5, 1.0, 0.2])
    t_tr, _ = find_troughs(troughs, 0.0, 4.0)
    assert t_tr.tolist() == [1.5]


def test_level_step_in_a_monotone_run_is_no_extremum():
    # two equal samples inside a rise or a fall are not a flat top: the
    # samples past them keep going the same way
    rise = ProbabilitySeries(times=np.arange(5.0), values=[0.0, 1.0, 1.0, 2.0, 3.0])
    assert find_peaks(rise, 0.0, 4.0)[0].size == 0
    fall = ProbabilitySeries(times=np.arange(5.0), values=[3.0, 2.0, 2.0, 1.0, 0.0])
    assert find_troughs(fall, 0.0, 4.0)[0].size == 0


def _extrema_by_walk(ys: list) -> list[int]:
    """Sample indices of the maxima of ys: a strict rise in, and past any run
    of samples equal to it, a strictly lower sample."""
    found = []
    for i in range(1, len(ys) - 1):
        if not ys[i] > ys[i - 1]:
            continue
        j = i + 1
        while j < len(ys) - 1 and ys[j] == ys[i]:
            j += 1
        if ys[j] < ys[i]:
            found.append(i)
    return found


@settings(max_examples=300)
@given(values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, math.nan]), max_size=12))
def test_extrema_match_a_walk_over_the_samples(values):
    # level runs, monotone steps and NaN, against the sample-by-sample walk
    ts = np.arange(float(len(values)))
    series = ProbabilitySeries(times=ts, values=values)
    for find, sign in ((find_peaks, 1.0), (find_troughs, -1.0)):
        ys = sign * np.asarray(values)
        expected = [_refine(ts, ys, i)[0] for i in _extrema_by_walk(ys.tolist())]
        assert find(series, -1.0, float(len(values)))[0].tolist() == expected


@given(step=st.floats(0.01, 0.2), phase=st.floats(0.0, math.pi))
@example(step=0.125, phase=2.125)  # the samples at t = 1 and 1.125 straddle a peak exactly
def test_extrema_of_a_sampled_carrier_are_distinct_and_near_the_true_ones(step, phase):
    ts = np.arange(0.0, 10.0, step)
    series = ProbabilitySeries(times=ts, values=np.cos(2.0 * ts - phase) ** 2)
    # cos^2(2t - phase) peaks at 2t - phase = m pi and has troughs half a period on
    for find, offset in ((find_peaks, 0.0), (find_troughs, 0.5 * math.pi)):
        t_ext, _ = find(series, 0.0, 10.0)
        assert np.all(np.diff(t_ext) > 0.0)
        m = np.round((2.0 * t_ext - phase - offset) / math.pi)
        assert np.all(np.abs(t_ext - (m * math.pi + phase + offset) / 2.0) <= step)


def test_phase_of_early_near_zone_dynamics():
    # g = 0.98 on [2, 8], the early near zone: the unbiased (detrend-invariant)
    # estimator reads ~0.272 pi there, the nominal pi/4 plus the virtual-Rabi
    # and Bessel-subleading shifts (~+0.07 rad); they die out at g = 1 or
    # larger t, where the fitted phase lands on pi/4 (see acceptance suite)
    from bicchain.evolve import EvolveOptions, evolve, survival
    from bicchain.model import ModelParams, perp_state

    opts = EvolveOptions(t_max=20.0, n_samples=2001)
    params = ModelParams(g=0.98)
    series = evolve(params, perp_state(0.98, 2), opts)
    report = fit_phase(survival(series), 2.0, 8.0, detrend_exponent=-1.0)
    assert report.params["phase"] == pytest.approx(0.272 * math.pi, abs=0.015)
    assert abs(report.params["phase"] - math.pi / 4) < 0.08
    assert not report.low_confidence


def test_fit_report_serialization():
    report = fit_power_law(_synthetic(-3.0, math.pi / 4), 10.0, 100.0)
    doc = report.to_json_dict()
    assert doc["kind"] == "PowerLaw"
    assert set(doc) == {"kind", "params", "window", "residual_rms",
                        "n_points", "low_confidence"}
    assert doc["window"] == [10.0, 100.0]


def test_deterministic():
    series = _synthetic(-1.0, math.pi / 4)
    a = fit_phase(series, 10.0, 60.0, detrend_exponent=-1.0)
    b = fit_phase(series, 10.0, 60.0, detrend_exponent=-1.0)
    assert a == b
