"""Lq / weak-Lq norms of propagated solutions and the exponent harness.

verify_lp_lq propagates a small family of data, measures the requested
output norm of the cosine part U or the sine part V, fits the time power
law, and compares the slope against the exact rational exponent the
estimates predict for the index pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fitting import DecayFit, FitError, fit_power_law
from .regions import Classification, IndexPoint, RegionError, build_region, classify
from .spectral import (GridSpec, box_clearance, data_transforms, make_grid, propagate_part,
                       spectral_tail_fraction)
from .symbol import SymbolPoly

__all__ = [
    "DecayFit", "fit_power_law", "ExponentQuery", "lq_norm", "weak_lq_norm",
    "theoretical_exponent", "admissible_region", "verify_lp_lq", "DecayReport",
    "gaussian_family",
]


class NormError(ValueError):
    """Invalid norm order."""


def lq_norm(f, q, g: GridSpec) -> float:
    """Riemann-sum L^q norm with cell volume (2L/N)^n; q = inf is the max norm."""
    f = np.asarray(f)
    if q == math.inf or q == "inf":
        return float(np.max(np.abs(f)))
    q = float(q)
    if not q >= 1:
        raise NormError(f"L^q norms need q >= 1, got {q}")
    return float((np.sum(np.abs(f) ** q) * g.cell_volume) ** (1.0 / q))


def weak_lq_norm(f, q, g: GridSpec) -> float:
    """Discrete weak-L^q norm: sup_k a_k (k * cell)^{1/q} over the sorted samples.

    Levels are taken just below each sample value, so a two-level function
    (an indicator) reproduces its strong L^q norm exactly.
    """
    q = float(q)
    if not math.isfinite(q) or q < 1:
        raise NormError(f"weak norms here need finite q >= 1, got {q}")
    mags = np.sort(np.abs(np.asarray(f)).ravel())[::-1]
    mags = mags[mags > 0]
    if mags.size == 0:
        return 0.0
    counts = np.arange(1, mags.size + 1, dtype=float)
    return float(np.max(mags * (counts * g.cell_volume) ** (1.0 / q)))


# ---------------------------------------------------------------------------
# Exponent queries
# ---------------------------------------------------------------------------

def _inv(value, field) -> Fraction:
    """1/value as an exact fraction; value may be Fraction, int, str, or inf."""
    if value in (math.inf, "inf", None):
        return Fraction(0)
    f = Fraction(value)
    if f <= 0:
        raise RegionError(f"Lebesgue exponents must be positive, got {value!r}", field)
    return 1 / f


@dataclass(frozen=True)
class ExponentQuery:
    """Which estimate to test: part U or V, small or large |t|, index pair (p, q).

    route selects between the two V estimates: "convolution" is the
    kernel-envelope route (quadrangle region, time decay for large t);
    "multiplier" is the direct sine-multiplier route (AEF triangle,
    uniformly bounded for large t).  U has only the convolution route.
    """

    part: str
    regime: str
    p: object
    q: object
    m: int
    n: int
    route: str = "convolution"

    def __post_init__(self):
        if self.part not in ("U", "V"):
            raise RegionError(f"part must be U or V, got {self.part!r}")
        if self.regime not in ("small", "large"):
            raise RegionError(f"regime must be small or large, got {self.regime!r}")
        if self.route not in ("convolution", "multiplier"):
            raise RegionError(f"route must be convolution or multiplier, got {self.route!r}")
        ip, iq = self.inv_p, self.inv_q
        if not (Fraction(1, 2) <= ip <= 1 and 0 <= iq <= Fraction(1, 2)):
            raise RegionError(
                f"(1/p, 1/q) = ({ip}, {iq}) outside 1 <= p <= 2 <= q <= inf",
                "q" if Fraction(1, 2) <= ip <= 1 else "p")

    # cached in the instance dict: the dataclass __eq__ and __hash__ see
    # only the fields, so cached values never change equality
    @cached_property
    def inv_p(self) -> Fraction:
        return _inv(self.p, "p")

    @cached_property
    def inv_q(self) -> Fraction:
        return _inv(self.q, "q")

    @cached_property
    def point(self) -> IndexPoint:
        return IndexPoint(self.inv_p, self.inv_q)


def admissible_region(qr: ExponentQuery):
    """Region of index pairs for which the requested estimate is claimed.

    The multiplier route extends below n = m (pentagon for n < m < 2n,
    full half square for m >= 2n); the convolution route for V needs the
    kernel envelope and with it n >= m.
    """
    if qr.part == "U":
        return build_region("delta_0", qr.m, qr.n)
    if qr.route == "multiplier":
        if qr.n >= qr.m:
            return build_region("AEF", qr.m, qr.n)
        return build_region("pentagon", qr.m, qr.n)
    return build_region("delta_m", qr.m, qr.n)


def _classification(qr: ExponentQuery) -> Classification:
    """Classification of the query's index point in its admissible region; raises
    RegionError naming the region when the pair is not admissible for the route."""
    region = admissible_region(qr)
    cls = classify(region, qr.point)
    if cls.location == "outside":
        raise RegionError(
            f"index point ({qr.inv_p}, {qr.inv_q}) outside region "
            f"{region.kind} (m={qr.m}, n={qr.n})")
    return cls


def theoretical_exponent(qr: ExponentQuery) -> Fraction:
    """Exact rational time exponent for the requested estimate.

    Raises RegionError naming the region when the index pair is not
    admissible for the route.
    """
    _classification(qr)
    return _time_exponent(qr)


def _time_exponent(qr: ExponentQuery) -> Fraction:
    ip, iq = qr.inv_p, qr.inv_q
    m1 = Fraction(qr.m, 2)
    if qr.part == "V":
        if qr.regime == "small":
            return Fraction(qr.n) / m1 * (iq - ip) + 1
        if qr.route == "multiplier":
            return Fraction(0)
        return qr.n * abs(iq - (1 - ip)) - Fraction(1, qr.m)
    # part U
    if qr.regime == "small":
        return Fraction(qr.n) / m1 * (iq - ip)
    return qr.n * abs(iq - (1 - ip)) - 1 / m1


# ---------------------------------------------------------------------------
# Data families
# ---------------------------------------------------------------------------

GAUSSIAN_WIDTHS = (1.5, 2.5, 3.5)
INDICATOR_RADIUS = 2.0
MOLLIFY_SIGMA = 1.0


def gaussian_family(g: GridSpec):
    """Centered Gaussians of GAUSSIAN_WIDTHS plus the ball indicator of
    INDICATOR_RADIUS mollified at scale MOLLIFY_SIGMA (all real, unnormalized).

    The indicator is smoothed spectrally so its Nyquist tail is controlled
    (dropping the rounding-level imaginary part of the inverse FFT); callers
    normalize in whatever data norm the estimate uses.
    """
    xs = g.x_grids()
    r2 = sum(x**2 for x in xs)
    fields = [np.exp(-r2 / (2.0 * a * a)) for a in GAUSSIAN_WIDTHS]
    ind = (np.sqrt(r2) <= INDICATOR_RADIUS).astype(complex)
    xi2 = sum(x**2 for x in g.xi_grids())
    smooth = np.fft.ifftn(np.fft.fftn(ind) * np.exp(-0.5 * MOLLIFY_SIGMA**2 * xi2))
    fields.append(smooth.real)
    names = [f"gaussian(width={a})" for a in GAUSSIAN_WIDTHS] + ["smoothed-indicator"]
    return list(zip(names, fields))


def _data_norm(f, qr: ExponentQuery, cls: Classification, g: GridSpec):
    """Input norm for normalization; Lorentz-(q',1) inputs use the strong
    L^{q'} norm as a proxy and say so."""
    return lq_norm(f, float(1 / qr.inv_p), g), "proxy-strong" if cls.lorentz_data else "strong"


def _output_norm(f, qr: ExponentQuery, cls: Classification, g: GridSpec):
    if qr.inv_q == 0:
        return lq_norm(f, math.inf, g), "strong"
    q = float(1 / qr.inv_q)
    if cls.weak_output:
        return weak_lq_norm(f, q, g), "weak"
    return lq_norm(f, q, g), "strong"


# ---------------------------------------------------------------------------
# The verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    query: ExponentQuery
    theoretical: Fraction
    fit: DecayFit | None
    c_emp: float | None
    clearance: float
    nyquist_tail: float
    norm_kind: str
    data_norm_kind: str
    verdict: str
    series: tuple
    norm_rows: tuple = ()  # (t, l2, lq, linf) family maxima, for CSV export
    notes: tuple = ()

    def to_dict(self) -> dict:
        th = self.theoretical
        return {
            "query": {
                "part": self.query.part,
                "regime": self.query.regime,
                "p": str(self.query.p),
                "q": str(self.query.q),
                "m": self.query.m,
                "n": self.query.n,
                "route": self.query.route,
            },
            "theoretical_exponent": f"{th.numerator}/{th.denominator}",
            "fitted_exponent": None if self.fit is None else self.fit.exponent,
            "residual": None if self.fit is None else self.fit.residual,
            "C_emp": self.c_emp,
            "clearance": self.clearance,
            "nyquist_tail": self.nyquist_tail,
            "norm_kind": self.norm_kind,
            "data_norm_kind": self.data_norm_kind,
            "verdict": self.verdict,
            "notes": list(self.notes),
            "series": [[t, v] for t, v in self.series],
        }


DEFAULT_WINDOWS = {"small": (0.01, 0.5), "large": (2.0, 50.0)}
CLEARANCE_THRESHOLD = 1e-3  # box-contaminated below clearance 1 - CLEARANCE_THRESHOLD
SLOPE_TOL = 0.1  # consistent when the fitted exponent is within this of the exact one


def verify_lp_lq(p: SymbolPoly, qr: ExponentQuery, grid: GridSpec | None = None,
                 t_grid=None, data=None) -> DecayReport:
    """Measure the decay/growth of ||U(t)||_q or ||V(t)||_q over L^p data.

    The family maximum of the normalized output norms is fitted as a power
    of t and compared against the exact exponent.  Runs whose solution
    mass reaches the box edge are marked box-contaminated and the verdict
    is then inconclusive rather than asserted.
    """
    if p.order != qr.m or p.n != qr.n:
        raise RegionError(
            f"query (m={qr.m}, n={qr.n}) does not match symbol "
            f"(m={p.order}, n={p.n})")
    cls = _classification(qr)
    theo = _time_exponent(qr)
    if grid is None:
        grid = make_grid(qr.n, 128, 16.0)
    if t_grid is None:
        lo, hi = DEFAULT_WINDOWS[qr.regime]
        t_grid = np.geomspace(lo, hi, 9)
    t_grid = np.asarray(t_grid, dtype=float)
    data = gaussian_family(grid) if data is None else list(data)

    notes = []
    series = []
    worst_clearance = 1.0
    data_norms = []
    data_kind = out_kind = "strong"
    for name, f in data:
        dn, data_kind = _data_norm(f, qr, cls, grid)
        if dn == 0:
            raise NormError(f"datum {name} has zero norm")
        data_norms.append(dn)
    # one transform per normalized datum serves the tail fraction and the propagation
    spectra = data_transforms(grid, (f / dn for (_, f), dn in zip(data, data_norms)))
    worst_tail = max((spectral_tail_fraction(h, grid) for h, _ in spectra), default=0.0)
    if worst_tail > 1e-10:
        notes.append(f"spectral tail fraction {worst_tail:.3e} above 1e-10")

    parts = propagate_part(spectra, t_grid, p, grid, qr.part)
    norm_rows = []
    for t in t_grid:
        best = best_l2 = best_inf = 0.0
        for _ in data:
            mag = np.abs(next(parts))  # every norm below depends on |u| only
            val, out_kind = _output_norm(mag, qr, cls, grid)
            best = max(best, val)
            best_l2 = max(best_l2, lq_norm(mag, 2, grid))
            best_inf = max(best_inf, lq_norm(mag, math.inf, grid))
            if t == t_grid[-1]:
                worst_clearance = min(worst_clearance, box_clearance(mag, grid))
        series.append((float(t), float(best)))
        norm_rows.append((float(t), float(best_l2), float(best), float(best_inf)))

    contaminated = worst_clearance < 1.0 - CLEARANCE_THRESHOLD
    ts, vals = np.array(series).T
    fit = None
    c_emp = None
    verdict = "inconclusive"
    try:
        fit = fit_power_law(ts, vals)
    except FitError as exc:
        notes.append(f"fit failed: {exc}")
    if vals.min() > 0:
        c_emp = float(np.max(vals / ts ** float(theo)))
    if contaminated:
        notes.append(f"box-contaminated: clearance {worst_clearance:.3e}")
        verdict = "inconclusive"
    elif fit is not None:
        verdict = "consistent" if abs(fit.exponent - float(theo)) <= SLOPE_TOL \
            else "contradicted"
    return DecayReport(
        query=qr, theoretical=theo, fit=fit, c_emp=c_emp,
        clearance=float(worst_clearance), nyquist_tail=float(worst_tail),
        norm_kind=out_kind, data_norm_kind=data_kind, verdict=verdict,
        series=tuple(series), norm_rows=tuple(norm_rows), notes=tuple(notes),
    )
