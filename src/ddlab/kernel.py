"""Fundamental-solution kernels as damped oscillatory integrals.

I1(t,x) = int exp(i<x,xi> +/- i t sqrt(P)) dxi
I2(t,x) = int exp(i<x,xi> +/- i t sqrt(P)) P^{-1/2} dxi

Both are evaluated through the regularization exp(-eps sqrt(P)) on a
truncated lattice (trapezoid sum, spectrally accurate for the damped
integrand) followed by polynomial extrapolation eps -> 0.  For radial
symbols an independent 1-d reduction (exact angular integral against a
Bessel factor, then refined Gauss-Legendre panels) serves as an oracle
and as the evaluation path for dimensions above the full-lattice budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.special import j0, j1, jv, roots_legendre

from .symbol import SymbolPoly, principal_part, ray_coefficients
from .spectral import sqrt_symbol

KINDS = ("I1", "I2")


class KernelConfigError(ValueError):
    """Bad quadrature configuration (eps list, kind, method)."""


@dataclass(frozen=True)
class QuadConfig:
    """Damping / extrapolation / lattice parameters for kernel evaluation.

    eps_list must be strictly decreasing and positive; lattice truncation
    is chosen so the damping at the smallest eps reaches tail_tol along
    every axis.
    """

    eps_list: tuple = (0.2, 0.1, 0.05, 0.025)
    order: int = 3
    lattice_N: int = 512
    xi_max: float | None = None
    tail_tol: float = 1e-14
    method: str = "lattice"  # "lattice" or "radial"
    use_oracle: bool = False  # cross-check lattice values against the radial oracle
    flag_abs: float = 1e-4
    flag_rel: float = 0.25
    radial_rtol: float = 1e-9
    radial_max_panels: int = 2**18

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if not eps or any(e <= 0 for e in eps):
            raise KernelConfigError("eps_list must contain positive values")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise KernelConfigError("eps_list must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        if self.method not in ("lattice", "radial"):
            raise KernelConfigError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class KernelSample:
    """One evaluated kernel value with a conservative error estimate."""

    kind: str
    sign: int
    t: float
    x: tuple
    value: complex
    err: float
    flagged: bool = False
    meta: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# Lattice truncation and evaluation
# ---------------------------------------------------------------------------

def _sqrt_p_on_ray(p: SymbolPoly, axis=0):
    """r -> sqrt(max(P(r e_axis), 0)) for scalar or array r."""
    c = ray_coefficients(p, np.eye(p.n)[axis])
    return lambda r: np.sqrt(np.maximum(np.polynomial.polynomial.polyval(r, c), 0.0))


def _axis_cutoff(p: SymbolPoly, eps_min, tail_tol) -> float:
    """Smallest R with exp(-eps_min sqrt(P(R e_i))) <= tail_tol on every axis."""
    target = math.log(1.0 / tail_tol) / eps_min  # need sqrt(P) >= target
    best = 0.0
    for i in range(p.n):
        val = _sqrt_p_on_ray(p, i)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if val(hi) >= target:
                break
            hi *= 2.0
        else:
            raise KernelConfigError("damping never reaches the tail tolerance")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if val(mid) >= target:
                hi = mid
            else:
                lo = mid
        best = max(best, hi)
    return best


def _lattice_axis(p: SymbolPoly, cfg: QuadConfig):
    xi_max = cfg.xi_max if cfg.xi_max is not None else _axis_cutoff(
        p, min(cfg.eps_list), cfg.tail_tol)
    N = cfg.lattice_N
    h = 2.0 * xi_max / N
    axis = -xi_max + h * np.arange(N)
    return axis, h


MAX_LATTICE_POINTS = 2**27
# Each chunk of the lattice sums holds at most this many points (or one row,
# if a row is larger), since it allocates several complex temporaries of its size.
CHUNK_POINTS = 2**15


def _lattice_sums(p, kind, sign, t, x, eps_list, cfg):
    """Trapezoid sums at every eps, on the full lattice and on the
    every-other-point sublattice (for the refinement delta).

    Returns (fine_values, coarse_values) as complex arrays over eps_list.
    """
    n = p.n
    if n > 3:
        raise KernelConfigError(
            f"full-lattice evaluation is desk-scale only for n <= 3 (got n={n}); "
            "use method='radial' for radial symbols in higher dimension")
    if cfg.lattice_N**n > MAX_LATTICE_POINTS:
        raise KernelConfigError(
            f"lattice has {cfg.lattice_N**n} points, over the cap of "
            f"{MAX_LATTICE_POINTS}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise KernelConfigError(f"x must have length {n}")
    axis, h = _lattice_axis(p, cfg)
    eps_arr = np.asarray(eps_list, dtype=float)
    fine = np.zeros(len(eps_list), dtype=complex)
    coarse = np.zeros(len(eps_list), dtype=complex)

    chunk = max(1, CHUNK_POINTS // len(axis) ** (n - 1))
    for start in range(0, len(axis), chunk):
        rows = axis[start:start + chunk]
        A = sqrt_symbol(p, [rows] + [axis] * (n - 1), strict=(kind == "I2"))
        phase = sign * t * A
        for i in range(n):
            ax = rows if i == 0 else axis
            shape = [1] * n
            shape[i] = ax.size
            phase = phase + x[i] * ax.reshape(shape)
        base = np.exp(1j * phase)
        if kind == "I2":
            base = base / A
        # even global rows of this chunk belong to the coarse sublattice
        row_parity = np.nonzero((start + np.arange(rows.size)) % 2 == 0)[0]
        sub = (row_parity,) + tuple([slice(None, None, 2)] * (n - 1))
        for k, eps in enumerate(eps_arr):
            damped = np.exp(-eps * A) * base
            fine[k] += damped.sum()
            coarse[k] += damped[sub].sum()
    fine *= h**n
    coarse *= (2.0 * h) ** n
    return fine, coarse


# ---------------------------------------------------------------------------
# Radial reduction: exact angular integral, refined Gauss-Legendre in r
# ---------------------------------------------------------------------------

def is_radial(p: SymbolPoly, probes=8, seed=0, rtol=1e-10) -> bool:
    """Numerically verify that P depends on |xi| only."""
    from .symbol import sphere_directions

    dirs = sphere_directions(p.n, max(probes, 8), seed)[:probes]
    rs = np.array([0.3, 0.9, 1.7, 2.6])
    ref = p.evaluate(rs[:, None] * np.eye(p.n)[0][None, :])
    for w in dirs:
        vals = p.evaluate(rs[:, None] * w[None, :])
        if not np.allclose(vals, ref, rtol=rtol, atol=1e-12):
            return False
    return True


def _angular_factor(n, rho):
    """Integral of exp(i rho <z, w>) over S^{n-1}: (2 pi)^{n/2} rho^{1-n/2} J_{n/2-1}(rho)."""
    rho = np.asarray(rho, dtype=float)
    limit = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)  # |S^{n-1}|
    small = rho < 1e-8
    if small.all():
        return np.full(rho.shape, limit)
    safe = np.where(small, 1.0, rho)
    if n == 2:
        vals = 2.0 * np.pi * j0(safe)
    elif n == 3:  # DLMF 10.49.3
        vals = 4.0 * np.pi * np.sin(safe) / safe
    elif n == 4:
        vals = 4.0 * np.pi**2 * j1(safe) / safe
    else:
        nu = n / 2.0 - 1.0
        vals = (2.0 * np.pi) ** (n / 2.0) * safe ** (-nu) * jv(nu, safe)
    return np.where(small, limit, vals)


def _radial_integrand(p, kind, sign, t, r_abs_x, eps, sqrt_p):
    """Factory for the reduced 1-d integrand in r; sqrt_p is r -> sqrt(P(r e_1))."""
    n = p.n

    def f(r):
        A = sqrt_p(r)
        weight = np.ones_like(r) if kind == "I1" else 1.0 / np.where(A > 0, A, 1.0)
        if kind == "I2":
            weight = np.where(A > 0, weight, 0.0)
        osc = np.exp((-eps + 1j * sign * t) * A)
        return osc * weight * r ** (n - 1) * _angular_factor(n, r_abs_x * r)

    return f


def eval_damped_radial(p, kind, sign, t, x, eps, cfg: QuadConfig | None = None) -> complex:
    """Fixed-eps kernel value for a radial symbol via the 1-d reduction.

    Composite Gauss-Legendre panels are doubled until the value is stable
    to cfg.radial_rtol; the panel budget starts from the total phase so
    oscillations at large t stay resolved.
    """
    cfg = cfg or QuadConfig()
    if kind not in KINDS:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    if not is_radial(p):
        raise KernelConfigError("radial reduction requires a radial symbol")
    if kind == "I2" and p.coeff((0,) * p.n) <= 0.0:
        raise KernelConfigError(
            "radial I2 needs P(0) > 0: the P^{-1/2} weight is singular at the origin")
    x = np.asarray(x, dtype=float)
    r_abs_x = float(np.linalg.norm(x))
    R = _axis_cutoff(p, eps, cfg.tail_tol)
    sqrt_p = _sqrt_p_on_ray(p)
    total_phase = abs(t) * sqrt_p(R) + r_abs_x * R + 8.0
    panels = int(min(cfg.radial_max_panels,
                     max(64, 2 ** math.ceil(math.log2(total_phase / math.pi + 1)))))
    nodes, weights = roots_legendre(16)
    f = _radial_integrand(p, kind, sign, t, r_abs_x, eps, sqrt_p)

    def compose(m):
        edges = np.linspace(0.0, R, m + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        rr = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        ww = (half[:, None] * weights[None, :]).ravel()
        return complex(np.sum(ww * f(rr)))

    prev = compose(panels)
    while panels < cfg.radial_max_panels:
        panels *= 2
        cur = compose(panels)
        if abs(cur - prev) <= cfg.radial_rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


# ---------------------------------------------------------------------------
# Extrapolation eps -> 0 and the public evaluators
# ---------------------------------------------------------------------------

def extrapolate_to_zero(eps_list, values, order):
    """Polynomial extrapolation to eps = 0 through the finest order+1 points.

    Returns (extrapolated, stability) where stability is the change from
    dropping one extrapolation order.
    """
    eps = np.asarray(eps_list, dtype=float)
    vals = np.asarray(values, dtype=complex)
    k = min(order, len(eps) - 1)
    use_e, use_v = eps[-(k + 1):], vals[-(k + 1):]

    def lagrange_at_zero(es, vs):
        total = 0.0 + 0.0j
        for j in range(len(es)):
            w = 1.0
            for l in range(len(es)):
                if l != j:
                    w *= (0.0 - es[l]) / (es[j] - es[l])
            total += vs[j] * w
        return total

    extrap = lagrange_at_zero(use_e, use_v)
    if k >= 1:
        lower = lagrange_at_zero(use_e[1:], use_v[1:])
        stability = abs(extrap - lower)
    else:
        stability = 0.0
    return extrap, stability


def scaled_config(cfg: QuadConfig, t) -> QuadConfig:
    """Rescale the damping list for small |t|.

    The regularized kernel approximates the kernel only when the damping
    acts below the time-oscillation scale, so for |t| < 1 the eps list is
    multiplied by |t|.
    """
    factor = min(1.0, abs(float(t)))
    if factor <= 0:
        raise KernelConfigError("scaled_config needs t != 0")
    if factor == 1.0:
        return cfg
    return replace(cfg, eps_list=tuple(e * factor for e in cfg.eps_list))


def eval_damped(p, kind, sign, t, x, eps, cfg: QuadConfig | None = None) -> complex:
    """Single fixed-eps evaluation (no extrapolation).  t = 0 is allowed here;
    the x = 0, t = 0 probe is the plain damped transform of the weight."""
    cfg = cfg or QuadConfig()
    if kind not in KINDS:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    if cfg.method == "radial":
        return eval_damped_radial(p, kind, sign, t, x, eps, cfg)
    sub_cfg = replace(cfg, eps_list=(float(eps),), xi_max=cfg.xi_max)
    fine, _ = _lattice_sums(p, kind, sign, t, np.asarray(x, dtype=float),
                            [float(eps)], sub_cfg)
    return complex(fine[0])


def eval_kernel(p, kind, sign, t, x, cfg: QuadConfig | None = None) -> KernelSample:
    """Extrapolated kernel value at (t, x) with a conservative error bar.

    err = |finest-eps value - extrapolated| + |fine-lattice extrapolation -
    coarse-sublattice extrapolation|; samples whose err exceeds the
    configured cap are flagged, never silently dropped.
    """
    cfg = cfg or QuadConfig()
    if kind not in KINDS:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    if sign not in (+1, -1):
        raise KernelConfigError("sign must be +1 or -1")
    if t == 0:
        raise KernelConfigError("kernel values are defined for t != 0")
    x = np.asarray(x, dtype=float)
    if cfg.method == "radial":
        vals = [eval_damped_radial(p, kind, sign, t, x, e, cfg) for e in cfg.eps_list]
        extrap, stability = extrapolate_to_zero(cfg.eps_list, vals, cfg.order)
        err = abs(vals[-1] - extrap) + stability
        meta = {"method": "radial", "eps_list": cfg.eps_list}
    else:
        fine, coarse = _lattice_sums(p, kind, sign, t, x, cfg.eps_list, cfg)
        extrap, _ = extrapolate_to_zero(cfg.eps_list, fine, cfg.order)
        extrap_coarse, _ = extrapolate_to_zero(cfg.eps_list, coarse, cfg.order)
        err = abs(fine[-1] - extrap) + abs(extrap - extrap_coarse)
        meta = {"method": "lattice", "eps_list": cfg.eps_list, "N": cfg.lattice_N}
        if cfg.use_oracle and is_radial(p):
            oracle = eval_damped_radial(p, kind, sign, t, x, cfg.eps_list[-1], cfg)
            meta["oracle_delta"] = abs(complex(fine[-1]) - oracle)
    flagged = err > cfg.flag_abs + cfg.flag_rel * abs(extrap)
    return KernelSample(kind=kind, sign=sign, t=float(t), x=tuple(float(v) for v in x),
                        value=complex(extrap), err=float(err), flagged=bool(flagged),
                        meta=meta)


# ---------------------------------------------------------------------------
# Envelope exponents and bound reports
# ---------------------------------------------------------------------------

def envelope_exponents(kind, m, n):
    """(time_exponent, argument_scale_exponent, spatial_power) per regime.

    Returns {"small": (...), "large": (...)} with exact Fractions.  The
    envelope is |t|^time_exp * (1 + |t|^arg_exp |x|)^{-spatial_power}.
    """
    m = int(m)
    n = int(n)
    m1 = Fraction(m, 2)
    if kind == "I2":
        mu = Fraction(m * n - 4 * n + 2 * m, 2 * (m - 2))
        small = (-(n - m1) / m1, Fraction(-1) / m1, mu)
        large = (Fraction(-1, m), Fraction(-1), mu)
    elif kind == "I1":
        power = Fraction(n * (m - 4), 2 * (m - 2))
        small = (Fraction(-n) / m1, Fraction(-1) / m1, power)
        large = (Fraction(-1) / m1, Fraction(-1), power)
    else:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    return {"small": small, "large": large}


def mu_nu(m, n):
    """Spatial envelope power mu and the auxiliary time power nu = (n-m)/(m-2)."""
    mu = Fraction(m * n - 4 * n + 2 * m, 2 * (m - 2))
    nu = Fraction(n - m, m - 2)
    return mu, nu


@dataclass(frozen=True)
class RegimeBound:
    regime: str
    time_exponent: Fraction | None
    arg_exponent: Fraction | None
    spatial_power: Fraction | None
    c_emp: float | None
    drift: float | None
    n_samples: int
    no_data: bool = False
    saturated: bool | None = None  # running max stopped drifting upward


@dataclass(frozen=True)
class KernelBoundReport:
    kind: str
    m: int
    n: int
    mu: Fraction
    nu: Fraction
    regimes: tuple
    description: str
    notes: tuple = ()


def saturation_drift(keys, ratios):
    """Upward drift of the running max of `ratios` across the last decade of `keys`.

    keys must be positive and sorted ascending in "asymptotic quality".
    Returns (final_max / max_up_to_one_decade_before_end) - 1, clipped at 0.
    """
    keys = np.asarray(keys, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if keys.size < 2:
        return 0.0
    final = float(np.max(ratios))
    cut = keys[-1] / 10.0
    early = ratios[keys <= cut]
    if early.size == 0:
        early = ratios[: max(1, keys.size // 2)]
    base = float(np.max(early))
    if base <= 0:
        return 0.0
    return max(0.0, final / base - 1.0)


def check_bound(samples, p: SymbolPoly, kind=None,
                saturation_tol=0.05) -> KernelBoundReport:
    """Empirical envelope constants C_emp = max |I| / envelope per time regime.

    Samples are split at |t| = 1; each regime records C_emp and whether
    the running max has stopped drifting (saturated means the upward
    drift across the last decade stayed within saturation_tol).  Empty
    regimes are reported as no-data.
    """
    samples = list(samples)
    if not samples:
        raise KernelConfigError("check_bound needs at least one sample")
    kinds = {s.kind for s in samples}
    if len(kinds) != 1:
        raise KernelConfigError("samples mix kernel kinds")
    got = kinds.pop()
    if kind is not None and kind != got:
        raise KernelConfigError(f"samples are {got}, expected {kind}")
    kind = got
    m, n = p.order, p.n
    exps = envelope_exponents(kind, m, n)
    mu, nu = mu_nu(m, n)
    regimes = []
    notes = []
    if kind == "I2":
        if n < m:
            notes.append("large-time envelope derivation assumes n >= m; "
                         f"here n={n} < m={m}, so that regime is diagnostic only")
        else:
            notes.append(f"large-time envelope applies: n={n} >= m={m}")
    for regime, selector in (("small", lambda s: abs(s.t) <= 1.0),
                             ("large", lambda s: abs(s.t) >= 1.0)):
        sub = [s for s in samples if selector(s)]
        if not sub:
            regimes.append(RegimeBound(regime, None, None, None, None, None, 0, True))
            continue
        te, ae, sp = exps[regime]
        ratios, keys = [], []
        for s in sub:
            at = abs(s.t)
            ax = float(np.linalg.norm(s.x))
            env = at ** float(te) * (1.0 + at ** float(ae) * ax) ** (-float(sp))
            ratios.append(abs(s.value) / env)
            keys.append(1.0 / at if regime == "small" else max(at, ax, 1.0))
        order_idx = np.argsort(keys, kind="stable")
        keys_sorted = np.asarray(keys)[order_idx]
        ratios_sorted = np.asarray(ratios)[order_idx]
        drift = saturation_drift(keys_sorted, ratios_sorted)
        regimes.append(RegimeBound(regime, te, ae, sp, float(np.max(ratios)),
                                   float(drift), len(sub), False,
                                   saturated=bool(drift <= saturation_tol)))
    desc = f"{len(samples)} samples of {kind} for m={m}, n={n}"
    return KernelBoundReport(kind=kind, m=m, n=n, mu=mu, nu=nu,
                             regimes=tuple(regimes), description=desc,
                             notes=tuple(notes))


# ---------------------------------------------------------------------------
# Scaling identity for homogeneous symbols
# ---------------------------------------------------------------------------

def scaling_exponents(kind, m, n):
    """Prefactor and argument exponents of the homogeneous rescaling identity.

    I(t, x) = t^pre * I(1, t^arg * x) with arg = -2/m; pre is -2n/m for I1
    and -(2n-m)/m for I2.
    """
    if kind == "I1":
        pre = Fraction(-2 * n, m)
    elif kind == "I2":
        pre = Fraction(-(2 * n - m), m)
    else:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    return pre, Fraction(-2, m)


def scaling_check(p: SymbolPoly, kind, t_list, x_list, cfg: QuadConfig | None = None) -> float:
    """Max relative deviation of the rescaling identity over the sample set.

    Exact only for homogeneous symbols, so non-homogeneous input is a
    precondition error.
    """
    cfg = cfg or QuadConfig()
    if principal_part(p) != p:
        raise KernelConfigError("scaling identity holds only for homogeneous symbols")
    m, n = p.order, p.n
    pre, arg = scaling_exponents(kind, m, n)
    worst = 0.0
    for t in t_list:
        if t <= 0:
            raise KernelConfigError("scaling check uses t > 0")
        for x in x_list:
            x = np.asarray(x, dtype=float)
            lhs = eval_kernel(p, kind, +1, t, x, cfg).value
            rhs_x = (t ** float(arg)) * x
            rhs = (t ** float(pre)) * eval_kernel(p, kind, +1, 1.0, rhs_x, cfg).value
            denom = max(abs(lhs), abs(rhs), 1e-300)
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def samples_to_csv(path, samples):
    samples = list(samples)
    if not samples:
        raise KernelConfigError("nothing to write")
    n = len(samples[0].x)
    cols = ["kind", "sign", "t"] + [f"x{i + 1}" for i in range(n)] + ["re", "im", "err"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for s in samples:
            row = [s.kind, f"{s.sign:+d}", repr(s.t)]
            row += [repr(v) for v in s.x]
            row += [repr(s.value.real), repr(s.value.imag), repr(s.err)]
            fh.write(",".join(row) + "\n")


def bound_report_dict(report: KernelBoundReport) -> dict:
    def frac(f):
        return None if f is None else f"{f.numerator}/{f.denominator}"

    return {
        "kind": report.kind,
        "m": report.m,
        "n": report.n,
        "mu": frac(report.mu),
        "nu": frac(report.nu),
        "notes": list(report.notes),
        "description": report.description,
        "regimes": [
            {
                "regime": r.regime,
                "no_data": r.no_data,
                "time_exponent": frac(r.time_exponent),
                "arg_exponent": frac(r.arg_exponent),
                "spatial_power": frac(r.spatial_power),
                "c_emp": r.c_emp,
                "drift": r.drift,
                "saturated": r.saturated,
                "n_samples": r.n_samples,
            }
            for r in report.regimes
        ],
    }
