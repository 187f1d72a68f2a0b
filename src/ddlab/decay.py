"""Lq / weak-Lq norms of propagated solutions and the exponent harness.

verify_lp_lq propagates a small family of data, measures the requested
output norm of the cosine part U or the sine part V, fits the time power
law, and compares the slope against the exact rational exponent that the
query's row of regions.CLAIMS predicts for the index pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .fitting import DecayFit, FitError, fit_power_law
from .regions import CLAIMS, Classification, IndexPoint, RegionError, build_region, classify
from .spectral import (GridSpec, _times_power, abs_squared, box_clearance, data_transforms,
                       make_grid, propagate_part, spectral_tail_fraction)
from .symbol import InputError, SymbolPoly

__all__ = [
    "DecayFit", "fit_power_law", "ExponentQuery", "lq_norm", "weak_lq_norm", "norm_reducer",
    "theoretical_exponent", "verify_lp_lq", "DecayReport",
    "gaussian_family",
]


class NormError(InputError):
    """Invalid norm order ("q") or a datum of zero norm."""


PRODUCT_MAX_Q = 16  # up to this integer q, s^{q/2} takes products and at most one sqrt


def norm_reducer(q, g: GridSpec, weak=False):
    """reduce(s): the Riemann-sum L^q norm, cell volume (2L/N)^n, of a field f
    on g from s = abs_squared(f); q = inf is sqrt(max s), exact as
    sqrt(x * x) = |x| in IEEE arithmetic.  When weak, the discrete weak-L^q
    norm sup_k a_k (k * cell)^{1/q} of the |f| samples a_k in descending order
    (an indicator's weak norm is its strong one), its weights computed once."""
    q = float(q)
    if not (q >= 1 and (math.isfinite(q) or not weak)):
        raise NormError(f"{'weak norms here need finite' if weak else 'L^q norms need'} "
                        f"q >= 1, got {q}", "q")
    cell = g.cell_volume
    if weak:  # for s sorted ascending: the k-th largest value takes (k * cell)^{2/q}
        scale = (np.arange(g.npoints, 0, -1, dtype=float) * cell) ** (2.0 / q)
        return lambda s: math.sqrt(float(np.max(np.sort(s, axis=None) * scale)))
    if q == math.inf:
        return lambda s: math.sqrt(float(np.max(s)))
    if q.is_integer() and q <= PRODUCT_MAX_Q:
        def power(s):  # s^{q/2}
            if q == 2:
                return s
            out = np.sqrt(s) if q % 2 else s.copy()
            _times_power(out, s, math.ceil(q / 2) - 1)
            return out
    else:
        def power(s):
            return s ** (q / 2)
    return lambda s: float((np.sum(power(s)) * cell) ** (1.0 / q))


def lq_norm(f, q, g: GridSpec) -> float:
    """Riemann-sum L^q norm with cell volume (2L/N)^n; q = inf is the max norm."""
    return norm_reducer(q, g)(abs_squared(f))


def weak_lq_norm(f, q, g: GridSpec) -> float:
    """Discrete weak-L^q norm of a field on g (see norm_reducer)."""
    return norm_reducer(q, g, weak=True)(abs_squared(f))


# ---------------------------------------------------------------------------
# Exponent queries
# ---------------------------------------------------------------------------

def _inv(value, field) -> Fraction:
    """1/value as an exact fraction; value may be a Fraction, an int or a str,
    or infinity as math.inf, "inf" or None.  Any other float is refused:
    its binary value is not the exponent it stands for."""
    f = value
    if not isinstance(value, (Fraction, int)):  # the exact types are never inf
        if value in (math.inf, "inf", None):
            return Fraction(0)
        if isinstance(value, float):
            raise RegionError(f"{field} must be an exact rational or inf, got {value!r}", field)
        f = Fraction(value)
    if f.numerator <= 0:  # the sign of a Fraction is its numerator's
        raise RegionError(f"Lebesgue exponents must be positive, got {value!r}", field)
    return Fraction(f.denominator, f.numerator)


@dataclass(frozen=True)
class ExponentQuery:
    """Which estimate to test: part U or V, small or large |t|, index pair (p, q).

    route selects between the two V estimates: "convolution" is the
    kernel-envelope route (quadrangle region, time decay for large t);
    "multiplier" is the direct sine-multiplier route (AEF triangle,
    uniformly bounded for large t).  U has only the convolution route,
    which it takes whatever route is given.

    inv_p, inv_q and point = IndexPoint(inv_p, inv_q) are set at construction
    and are not fields: == and hash see only the inputs.
    """

    part: str
    regime: str
    p: object
    q: object
    m: int
    n: int
    route: str = "convolution"

    def __post_init__(self):
        for name, allowed in (("part", ("U", "V")), ("regime", ("small", "large")),
                              ("route", ("convolution", "multiplier"))):
            if (value := getattr(self, name)) not in allowed:
                raise RegionError(f"{name} must be {' or '.join(allowed)}, got {value!r}", name)
        ip, iq = _inv(self.p, "p"), _inv(self.q, "q")
        p_ok = ip.denominator <= 2 * ip.numerator <= 2 * ip.denominator  # 1/2 <= 1/p <= 1
        if not (p_ok and 2 * iq.numerator <= iq.denominator):  # 1/q <= 1/2
            raise RegionError(f"(1/p, 1/q) = ({ip}, {iq}) outside 1 <= p <= 2 <= q <= inf",
                              "q" if p_ok else "p")
        object.__setattr__(self, "inv_p", ip)
        object.__setattr__(self, "inv_q", iq)
        object.__setattr__(self, "point", IndexPoint(ip, iq))


def _claim(qr: ExponentQuery) -> tuple:
    """(Classification, exact time exponent, (part, regime, route, region
    kind)) of the query's row of regions.CLAIMS: U reads its convolution row
    on either route, and the AEF triangle is the pentagon when n < m.

    Raises RegionError naming the region when the index pair is not
    admissible for the route.
    """
    key = (qr.part, qr.regime, "convolution" if qr.part == "U" else qr.route)
    kind, exponent = CLAIMS[key]
    kind = "pentagon" if kind == "AEF" and qr.n < qr.m else kind
    region = build_region(kind, qr.m, qr.n)
    cls = classify(region, qr.point)
    if cls.location == "outside":
        raise RegionError(
            f"index point ({qr.inv_p}, {qr.inv_q}) outside region "
            f"{region.kind} (m={qr.m}, n={qr.n})")
    return cls, exponent(qr.inv_p, qr.inv_q, qr.m, qr.n), (*key, kind)


def theoretical_exponent(qr: ExponentQuery) -> Fraction:
    """Exact rational time exponent for the requested estimate (see _claim)."""
    return _claim(qr)[1]


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


def _output_reducer(qr: ExponentQuery, cls: Classification, g: GridSpec):
    """(reduce, kind) of the query's output norm, weak at the Lorentz endpoints."""
    q = math.inf if qr.inv_q == 0 else float(1 / qr.inv_q)
    weak = bool(cls.weak_output) and q != math.inf
    return norm_reducer(q, g, weak), "weak" if weak else "strong"


# ---------------------------------------------------------------------------
# The verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    query: ExponentQuery
    theoretical: Fraction
    claim: tuple  # (part, regime, route, region kind) of the CLAIMS row tested
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
        return {
            "query": {**asdict(self.query), "p": str(self.query.p), "q": str(self.query.q)},
            "claim": dict(zip(("part", "regime", "route", "region"), self.claim)),
            "theoretical_exponent": self.theoretical,
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
    cls, theo, claim = _claim(qr)
    if grid is None:
        grid = make_grid(qr.n, 128, 16.0)
    if t_grid is None:
        lo, hi = DEFAULT_WINDOWS[qr.regime]
        t_grid = np.geomspace(lo, hi, 9)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size or not np.all(np.isfinite(t_grid) & (t_grid > 0)):
        raise ValueError(f"t_grid must list finite times > 0, got {t_grid.tolist()}")
    data = gaussian_family(grid) if data is None else list(data)

    notes, series, data_norms = [], [], []
    worst_clearance = 1.0
    data_kind = "strong"
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
    output, out_kind = _output_reducer(qr, cls, grid)
    l2_norm, sup_norm = norm_reducer(2, grid), norm_reducer(math.inf, grid)
    norm_rows = []
    for t in t_grid:
        best = best_l2 = best_inf = 0.0
        for _ in data:
            s = abs_squared(next(parts))  # every number of the row is read from |u|^2
            best = max(best, output(s))
            best_l2 = max(best_l2, l2_norm(s))
            best_inf = max(best_inf, sup_norm(s))
            if t == t_grid[-1]:
                worst_clearance = min(worst_clearance, box_clearance(s, grid))
        series.append((float(t), float(best)))
        norm_rows.append((float(t), float(best_l2), float(best), float(best_inf)))

    contaminated = worst_clearance < 1.0 - CLEARANCE_THRESHOLD
    ts, vals = np.array(series).T
    fit = c_emp = None
    verdict = "inconclusive"
    try:
        fit = fit_power_law(ts, vals)
    except FitError as exc:
        notes.append(f"fit failed: {exc}")
    if vals.min() > 0:
        c_emp = float(np.max(vals / ts ** float(theo)))
    if contaminated:
        notes.append(f"box-contaminated: clearance {worst_clearance:.3e}")
    elif fit is not None:
        verdict = "consistent" if abs(fit.exponent - float(theo)) <= SLOPE_TOL \
            else "contradicted"
    return DecayReport(
        query=qr, theoretical=theo, claim=claim, fit=fit, c_emp=c_emp,
        clearance=float(worst_clearance), nyquist_tail=float(worst_tail),
        norm_kind=out_kind, data_norm_kind=data_kind, verdict=verdict,
        series=tuple(series), norm_rows=tuple(norm_rows), notes=tuple(notes),
    )
