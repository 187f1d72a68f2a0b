"""Log-log power-law fitting for the decay harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


MIN_FIT_POINTS = 5


class FitError(ValueError):
    """Raised when a power-law fit is requested on unusable data."""


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law  y = exp(log_level) * t**exponent.

    residual is the RMS misfit in log-log coordinates; window is the
    [t_min, t_max] interval of the fitted abscissae.
    """

    exponent: float
    log_level: float
    residual: float
    window: tuple[float, float]
    npoints: int


def fit_power_law(ts, values) -> DecayFit:
    """Fit a line to (log t, log value) and return slope/level/residual.

    ts must be positive and hold at least MIN_FIT_POINTS values, two of them
    distinct; values must be strictly positive.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape or ts.ndim != 1:
        raise FitError("ts and values must be 1-d arrays of equal length")
    if ts.size < MIN_FIT_POINTS:
        raise FitError(f"need at least {MIN_FIT_POINTS} points, got {ts.size}")
    if np.any(ts <= 0):
        raise FitError("power-law fit needs positive abscissae")
    if np.any(values <= 0):
        raise FitError("power-law fit needs positive values")
    if np.unique(ts).size < 2:
        raise FitError("degenerate window: a single abscissa cannot determine a slope")

    x = np.log(ts)
    y = np.log(values)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return DecayFit(
        exponent=float(slope),
        log_level=float(intercept),
        residual=rms,
        window=(float(ts.min()), float(ts.max())),
        npoints=int(ts.size),
    )
