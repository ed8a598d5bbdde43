"""Envelope extraction, decay-law fitting, and the quantum/classical ratio.

The quantum return oscillates, so its decay is read off the envelope of
local maxima. Decay exponents come from least squares in log-log space;
the stretched-exponential model fixes the stretch at 1/2 because a free
three-parameter fit over a decade of data is ill-conditioned. The
efficiency ratio divides the log of the quantum envelope by the log of
the classical return: it equals the exponent ratio for power laws and
tends to sqrt(2) for the Lifshits family. `efficiency_report` runs the
whole analysis of one series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvtext import _columns, _csv_blocks, float_text

HALF_WIDTH = 3
DEFAULT_TAIL_FRACTION = 0.1


@dataclass(frozen=True)
class Envelope:
    """Local maxima (times, values) of a sampled series."""

    times: np.ndarray
    values: np.ndarray


def extract_envelope(times, values) -> Envelope:
    """Keep points beating every neighbor within HALF_WIDTH grid indices.

    Comparison is strict against earlier neighbors and non-strict against
    later ones, so a plateau keeps its first point and ties resolve to the
    earliest occurrence. A monotone non-increasing series keeps only its
    initial point. The result is never empty: the first occurrence of the
    global maximum always qualifies.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 2 * HALF_WIDTH + 1:
        raise ValueError(f"series of {n} points is too short for half_width={HALF_WIDTH}")
    keep = np.ones(n, dtype=bool)
    for d in range(1, HALF_WIDTH + 1):
        keep[d:] &= v[:-d] < v[d:]
        keep[:-d] &= v[d:] <= v[:-d]
    idx = np.flatnonzero(keep)
    if not idx.size:  # unreachable for finite data; safety net
        idx = np.array([np.argmax(v)])
    return Envelope(times=t[idx], values=v[idx])


# -- decay-law fits -----------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    """ln v = exponent * ln t + intercept over the window."""

    exponent: float
    intercept: float
    stderr: float
    residual: float
    window: tuple[float, float]
    npoints: int


@dataclass(frozen=True)
class StretchedExpFit:
    """ln v = prefactor_exponent * ln t - decay_coeff * t**stretch + intercept."""

    prefactor_exponent: float
    decay_coeff: float
    intercept: float
    stderr: float
    residual: float
    window: tuple[float, float]
    npoints: int
    stretch: float = 0.5
    warning: str | None = None


def check_fit_window(window):
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"bad fit window {window}: need lo < hi")


def _fit_window(times, values, window):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    check_fit_window(window)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 5:
        span = f"span t = {t.min():.3g} to {t.max():.3g}" if t.size else "are none"
        raise ValueError(f"only {int(mask.sum())} points in window {window}; need >= 5; "
                         f"the {t.size} points given {span}")
    if not np.all(np.isfinite(v[mask])):
        raise ValueError(f"non-finite values inside fit window {window}")
    if np.any(v[mask] <= 0):
        raise ValueError(f"non-positive values inside fit window {window}")
    return t[mask], v[mask]


def _lstsq_stats(design, y):
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid_vec = design @ coef - y
    rms = float(np.sqrt(np.mean(resid_vec**2)))
    n, k = design.shape
    if n > k:
        sigma2 = float(resid_vec @ resid_vec) / (n - k)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        stderr = float(np.sqrt(max(cov[0, 0], 0.0)))
    else:
        stderr = float("nan")
    return coef, rms, stderr


def fit_power_law(times, values, window) -> PowerLawFit:
    """Least-squares line in (ln t, ln v); the slope is the decay exponent."""
    t, v = _fit_window(times, values, window)
    x, y = np.log(t), np.log(v)
    design = np.column_stack([x, np.ones_like(x)])
    coef, rms, stderr = _lstsq_stats(design, y)
    return PowerLawFit(exponent=float(coef[0]), intercept=float(coef[1]),
                       stderr=stderr, residual=rms,
                       window=(float(window[0]), float(window[1])), npoints=len(t))


def fit_stretched_exp(times, values, window) -> StretchedExpFit:
    """Fit ln v = a ln t - c sqrt(t) + k with the stretch fixed at 1/2.

    The decay coefficient is expected positive; when the unconstrained
    optimum puts it at or below zero the fit is returned with a
    model-mismatch warning instead of being clamped.
    """
    t, v = _fit_window(times, values, window)
    y = np.log(v)
    design = np.column_stack([np.log(t), -np.sqrt(t), np.ones_like(t)])
    coef, rms, stderr = _lstsq_stats(design, y)
    a, c, k = (float(val) for val in coef)
    warning = None
    if c <= 0:
        warning = f"model mismatch: fitted decay coefficient {c:.3g} is not positive"
    return StretchedExpFit(prefactor_exponent=a, decay_coeff=c, intercept=k,
                           stderr=stderr, residual=rms,
                           window=(float(window[0]), float(window[1])),
                           npoints=len(t), warning=warning)


# -- efficiency ratio ---------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyRatioSeries:
    """Pointwise ln(quantum envelope) / ln(classical return) on the shared grid.

    Points where either curve touches 1 (zero log) or leaves (0, 1), the
    envelope's zeros among them, are excluded and counted, per the
    excluded_points field.
    """

    times: np.ndarray
    values: np.ndarray
    asymptotic: float
    excluded_points: int


def efficiency_ratio_series(classical_times, classical_values,
                            envelope) -> EfficiencyRatioSeries:
    """Ratio of decay logs, with the envelope interpolated log-linearly.

    The envelope is a (times, values) pair; a non-oscillatory quantum
    series can be passed directly as its own envelope. Evaluation is
    restricted to the envelope's time range (no extrapolation). Envelope
    points at 0, as where a series underflows, are left out of the log
    interpolation: at such a point, and between it and its neighbours,
    the envelope is 0. The asymptotic value is the mean over the last
    decade of surviving points.
    """
    env_t, env_v = (np.asarray(a, dtype=float) for a in envelope)
    ct = np.asarray(classical_times, dtype=float)
    cv = np.asarray(classical_values, dtype=float)
    if np.any(env_v < 0):
        raise ValueError("envelope values must be non-negative")
    pos = env_t > 0
    env_t, env_v = env_t[pos], env_v[pos]
    if len(env_t) < 2:
        raise ValueError("need at least two positive-time envelope points")

    in_range = (ct >= env_t[0]) & (ct <= env_t[-1]) & (ct > 0)
    t = ct[in_range]
    p = cv[in_range]
    log_t, log_env_t, live = np.log(t), np.log(env_t), env_v > 0
    env = np.exp(np.interp(log_t, log_env_t, np.log(np.where(live, env_v, 1.0))))
    env[np.interp(log_t, log_env_t, 1.0 - live) > 0] = 0.0
    valid = (p > 0) & (p < 1) & (env > 0) & (env < 1)
    excluded = int(in_range.sum() - valid.sum())
    t, p, env = t[valid], p[valid], env[valid]
    if len(t) == 0:
        raise ValueError("no valid points: series must lie strictly inside (0, 1)")
    ratio = np.log(env) / np.log(p)
    tail = t >= t[-1] / 10.0
    return EfficiencyRatioSeries(times=t, values=ratio,
                                 asymptotic=float(ratio[tail].mean()),
                                 excluded_points=excluded)


def detect_crossover(times, values) -> float | None:
    """First time the ratio crosses 1 from below, linearly interpolated."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    a, b = v[:-1], v[1:]
    hits = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & (a < 1.0) & (1.0 <= b))
    if not hits.size:
        return None
    i = hits[0]
    if v[i + 1] == 1.0:
        return float(t[i + 1])
    frac = (1.0 - v[i]) / (v[i + 1] - v[i])
    return float(t[i] + frac * (t[i + 1] - t[i]))


@dataclass(frozen=True)
class SaturationStats:
    """Mean and worst absolute deviation over the tail of a series."""

    mean: float
    fluctuation: float
    tail_points: int


def saturation(values, tail_fraction: float = DEFAULT_TAIL_FRACTION) -> SaturationStats:
    if not 0 < tail_fraction <= 0.5:
        raise ValueError(f"tail_fraction must be in (0, 0.5], got {tail_fraction}")
    v = np.asarray(values, dtype=float)
    k = max(1, int(round(tail_fraction * len(v))))
    tail = v[-k:]
    mean = float(tail.mean())
    return SaturationStats(mean=mean,
                           fluctuation=float(np.abs(tail - mean).max()),
                           tail_points=k)


# -- aggregate report ---------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyReport:
    """Everything one experiment concludes about transport efficiency, and
    the number of quantum envelope points it read."""

    classical_fit: PowerLawFit | StretchedExpFit
    quantum_fit: PowerLawFit | StretchedExpFit
    ratio: EfficiencyRatioSeries
    saturation_classical: SaturationStats
    saturation_quantum: SaturationStats
    envelope_points: int
    crossover_time: float | None = None


def efficiency_report(times, p_bar, alpha_bar_sq, window, *,
                      stretched: bool = False) -> EfficiencyReport:
    """The analysis of a series at its times t > 0: power-law or, with
    `stretched`, stretched-exponential fits over `window` of p_bar and of
    the envelope of |alpha_bar|^2 (half width HALF_WIDTH), their
    log-ratio and its crossover, and the saturation of each series over
    its last DEFAULT_TAIL_FRACTION. An envelope of fewer than five points,
    as of a series that does not oscillate, gives way to the series
    itself. A fit or the ratio that fails raises its ValueError prefixed
    with what failed: the series a fit was given, or `delta_p ratio`."""
    t = np.asarray(times, dtype=float)
    positive = t > 0
    t, p, alpha = (np.asarray(v, dtype=float)[positive] for v in (t, p_bar, alpha_bar_sq))
    env = extract_envelope(t, alpha)
    law = fit_stretched_exp if stretched else fit_power_law

    def named(name, compute, *args):
        try:
            return compute(*args)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc

    classical_fit = named("classical p_bar fit", law, t, p, window)
    if len(env.times) >= 5:
        quantum, name = (env.times, env.values), "quantum envelope"
    else:
        quantum, name = (t, alpha), "quantum series"
    quantum_fit = named(f"{name} fit", law, *quantum, window)
    ratio = named("delta_p ratio", efficiency_ratio_series, t, p, quantum)
    return EfficiencyReport(classical_fit, quantum_fit, ratio, saturation(p), saturation(alpha),
                            len(env.times), detect_crossover(ratio.times, ratio.values))


def _fit_lines(prefix, fit):
    lines = [f"{prefix}_model = " +
             ("power_law" if isinstance(fit, PowerLawFit) else "stretched_exp")]
    if isinstance(fit, PowerLawFit):
        lines.append(f"{prefix}_exponent = {repr(fit.exponent)}")
    else:
        lines.append(f"{prefix}_prefactor_exponent = {repr(fit.prefactor_exponent)}")
        lines.append(f"{prefix}_decay_coeff = {repr(fit.decay_coeff)}")
        lines.append(f"{prefix}_stretch = {repr(fit.stretch)}")
        if fit.warning:
            lines.append(f"{prefix}_warning = {fit.warning}")
    lines.append(f"{prefix}_intercept = {repr(fit.intercept)}")
    lines.append(f"{prefix}_stderr = {repr(fit.stderr)}")
    lines.append(f"{prefix}_residual = {repr(fit.residual)}")
    lines.append(f"{prefix}_window = {repr(fit.window[0])},{repr(fit.window[1])}")
    lines.append(f"{prefix}_points = {fit.npoints}")
    return lines


def report_text(report: EfficiencyReport) -> str:
    """Flat key = value rendering of an EfficiencyReport."""
    lines = [*_fit_lines("classical", report.classical_fit),
             *_fit_lines("quantum", report.quantum_fit),
             f"delta_p_asymptotic = {repr(report.ratio.asymptotic)}",
             f"delta_p_excluded_points = {report.ratio.excluded_points}"]
    if report.crossover_time is not None:
        lines.append(f"crossover_time = {repr(report.crossover_time)}")
    for name, s in (("classical", report.saturation_classical),
                    ("quantum", report.saturation_quantum)):
        lines.append(f"saturation_{name}_mean = {repr(s.mean)}")
        lines.append(f"saturation_{name}_fluctuation = {repr(s.fluctuation)}")
    return "\n".join(lines) + "\n"


def ratio_csv(ratio: EfficiencyRatioSeries, times, times_text=None):
    """Columns t,delta_p, as byte blocks like `series_csv`'s. Only delta_p
    is formatted; each of ratio.times must be, bit for bit, one of the
    sorted series times, and takes its text from times_text, theirs as
    `float_text` gives it, which a series read from a file leaves to here."""
    rows = np.minimum(np.searchsorted(times, ratio.times), len(times) - 1)
    if np.any(times[rows].view(np.uint64) != ratio.times.view(np.uint64)):
        raise ValueError("ratio times are not points of the series times")
    text = (float_text(times) if times_text is None else times_text)[rows]
    return _csv_blocks("t,delta_p\n", len(rows), 2, _columns(text, float_text(ratio.values)))
