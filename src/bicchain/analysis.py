"""Quantitative signature extraction from probability series.

Peaks are located by a 3-point local-maximum test on the sampled grid with
parabolic sub-sample refinement; envelope comparisons use the refined peak
values.  The oscillation carrier frequency is fixed at 2 by the model (band
edges at +/-2), so phase fits never estimate a frequency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .evolve import ProbabilitySeries
from .model import ConfigError


class TooFewPeaksError(ConfigError):
    """The analysis window does not contain enough oscillation structure."""


class FitKind(enum.Enum):
    PowerLaw = "PowerLaw"
    Phase = "Phase"
    Exponential = "Exponential"
    Contrast = "Contrast"


@dataclass(frozen=True)
class FitReport:
    """Extracted signature with residual diagnostics."""

    kind: FitKind
    params: dict
    window: tuple[float, float]
    residual_rms: float
    n_points: int
    low_confidence: bool = False

    def __post_init__(self) -> None:
        if not self.window[0] < self.window[1]:
            raise ValueError(f"window must satisfy t_lo < t_hi, got {self.window}")
        if not math.isfinite(self.residual_rms):
            raise ValueError("residual_rms must be finite")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value, "window": list(self.window)}


def _refine(ts: np.ndarray, ys: np.ndarray, i: int) -> tuple[float, float]:
    """Parabolic sub-sample refinement of a 3-point extremum around index i."""
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(ts[i]), float(y1)
    shift = 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    t_ref = ts[i] + shift * (ts[i + 1] - ts[i]) if shift >= 0 else ts[i] + shift * (ts[i] - ts[i - 1])
    y_ref = y1 - 0.25 * (y0 - y2) * shift
    return float(t_ref), float(y_ref)


def _extrema(series: ProbabilitySeries, t_lo: float, t_hi: float,
             sign: float) -> tuple[np.ndarray, np.ndarray]:
    ts = np.asarray(series.times, dtype=float)
    ys = sign * np.asarray(series.values, dtype=float)
    out_t, out_y = [], []
    for i in range(1, len(ts) - 1):
        if ys[i] >= ys[i - 1] and ys[i] >= ys[i + 1] and not (ys[i] == ys[i - 1] == ys[i + 1]):
            t_ref, y_ref = _refine(ts, ys, i)
            if t_lo <= t_ref <= t_hi:
                out_t.append(t_ref)
                out_y.append(sign * y_ref)
    return np.asarray(out_t), np.asarray(out_y)


def find_peaks(series: ProbabilitySeries, t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Refined local maxima (times, values) inside [t_lo, t_hi]."""
    return _extrema(series, t_lo, t_hi, +1.0)


def find_troughs(series: ProbabilitySeries, t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Refined local minima (times, values) inside [t_lo, t_hi]."""
    return _extrema(series, t_lo, t_hi, -1.0)


def fit_power_law(series: ProbabilitySeries, t_lo: float, t_hi: float) -> FitReport:
    """Least-squares line through (log t_peak, log P_peak) of local maxima.

    params: exponent (slope) and log_amplitude (natural-log intercept), so
    the fitted envelope is exp(log_amplitude) * t**exponent.
    """
    t_pk, p_pk = find_peaks(series, t_lo, t_hi)
    if len(t_pk) < 3:
        raise TooFewPeaksError(
            f"power-law fit needs >= 3 local maxima in [{t_lo:g}, {t_hi:g}], found {len(t_pk)}")
    if np.any(p_pk <= 0):
        raise TooFewPeaksError("power-law fit needs positive peak values")
    lt, lp = np.log(t_pk), np.log(p_pk)
    slope, intercept = np.polyfit(lt, lp, 1)
    resid = lp - (slope * lt + intercept)
    return FitReport(
        kind=FitKind.PowerLaw,
        params={"exponent": float(slope), "log_amplitude": float(intercept)},
        window=(t_lo, t_hi),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=len(t_pk))


def _circular_phase(phases: np.ndarray) -> float:
    """Mean phase modulo pi (the cos^2 oscillation has period pi in phase)."""
    mean_dir = np.mean(np.exp(2j * phases))
    return float((np.angle(mean_dir) / 2.0) % math.pi)


def _envelope_corrected_phases(t_pk: np.ndarray, v_pk: np.ndarray) -> np.ndarray:
    """Per-peak phases 2 t - L/4 mod pi, removing the envelope-gradient bias.

    A slowly varying envelope env(t) shifts each cos^2(2t - phi) maximum by
    env'/(4 env); the local log-slope L is estimated from neighboring peak
    heights, which makes the phase estimate invariant under power-law
    detrending of the input.
    """
    log_slope = np.zeros_like(t_pk)
    if len(t_pk) >= 2 and np.all(v_pk > 0):
        lv = np.log(v_pk)
        log_slope = np.gradient(lv, t_pk)
    return np.mod(2.0 * t_pk - 0.25 * log_slope, math.pi)


def fit_phase(series: ProbabilitySeries, t_lo: float, t_hi: float,
              detrend_exponent: float) -> FitReport:
    """Phase phi of cos^2(2t - phi) after removing the t**detrend_exponent trend.

    The phase comes from refined peak positions (envelope-bias corrected,
    averaged circularly mod pi), which makes it invariant under power-law
    detrending; the detrended series only enters the residual diagnostic.
    A residual above 20% of the detrended mean sets the low-confidence flag.
    """
    ts = np.asarray(series.times, dtype=float)
    mask = (ts >= t_lo) & (ts <= t_hi) & (ts > 0)
    detrended = ProbabilitySeries(
        times=ts[mask],
        values=np.asarray(series.values, dtype=float)[mask] * ts[mask] ** (-detrend_exponent))
    t_pk, v_pk = find_peaks(detrended, t_lo, t_hi)
    if len(t_pk) < 3:
        raise TooFewPeaksError(
            f"phase fit needs >= 3 oscillation peaks in [{t_lo:g}, {t_hi:g}], found {len(t_pk)}")
    phi = _circular_phase(_envelope_corrected_phases(t_pk, v_pk))
    amp = 2.0 * float(np.mean(detrended.values))
    model = amp * np.cos(2.0 * detrended.times - phi) ** 2
    resid_rms = float(np.sqrt(np.mean((detrended.values - model) ** 2)))
    mean_level = float(np.mean(detrended.values))
    return FitReport(
        kind=FitKind.Phase,
        params={"phase": phi, "amplitude": amp},
        window=(t_lo, t_hi),
        residual_rms=resid_rms,
        n_points=len(t_pk),
        low_confidence=resid_rms > 0.2 * mean_level)


def fit_exponential(series: ProbabilitySeries, t_lo: float, t_hi: float) -> FitReport:
    """Least squares on (t, log P): params rate (decay constant) and amplitude."""
    ts = np.asarray(series.times, dtype=float)
    mask = (ts >= t_lo) & (ts <= t_hi)
    t_w, p_w = ts[mask], np.asarray(series.values, dtype=float)[mask]
    if len(t_w) < 4:
        raise TooFewPeaksError(f"exponential fit needs >= 4 samples in [{t_lo:g}, {t_hi:g}]")
    if np.any(p_w <= 0):
        raise ValueError("exponential fit requires strictly positive values on the window")
    lp = np.log(p_w)
    slope, intercept = np.polyfit(t_w, lp, 1)
    resid = lp - (slope * t_w + intercept)
    return FitReport(
        kind=FitKind.Exponential,
        params={"rate": float(-slope), "amplitude": float(np.exp(intercept))},
        window=(t_lo, t_hi),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=len(t_w))


def oscillation_contrast(series: ProbabilitySeries, t_lo: float, t_hi: float,
                         detrend_exponent: float = -3.0) -> FitReport:
    """Contrast (P_max - P_min)/(P_max + P_min) of the detrended oscillation.

    The default t^3 rescaling matches the far zone; pass
    ``detrend_exponent=-1`` for near-zone series.  Peak and trough levels
    are averaged over the window before forming the contrast.
    """
    ts = np.asarray(series.times, dtype=float)
    mask = (ts >= t_lo) & (ts <= t_hi) & (ts > 0)
    detrended = ProbabilitySeries(
        times=ts[mask],
        values=np.asarray(series.values, dtype=float)[mask] * ts[mask] ** (-detrend_exponent))
    t_pk, v_pk = find_peaks(detrended, t_lo, t_hi)
    t_tr, v_tr = find_troughs(detrended, t_lo, t_hi)
    if len(t_pk) < 2 or len(t_tr) < 2:
        raise TooFewPeaksError(
            f"contrast needs >= 2 oscillation periods in [{t_lo:g}, {t_hi:g}]")
    hi, lo = float(np.mean(v_pk)), float(np.mean(v_tr))
    contrast = (hi - lo) / (hi + lo)
    level = 0.5 * (hi + lo)
    spread_rms = float(np.sqrt(
        (np.mean((v_pk - hi) ** 2) + np.mean((v_tr - lo) ** 2)) / 2.0))
    return FitReport(
        kind=FitKind.Contrast,
        params={"contrast": contrast, "peak_level": hi, "trough_level": lo},
        window=(t_lo, t_hi),
        residual_rms=spread_rms,
        n_points=len(t_pk) + len(t_tr),
        low_confidence=spread_rms > 0.2 * level)
