"""Probes of the paper's lemmas, which acceptance criteria 02, 03, 04 and 07
and their unit tests check and no pipeline of the package runs.  The module
has no test_ prefix: the tests import it, and pytest collects nothing here.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ddlab import kernel as K
from ddlab import symbol as sym
from ddlab.fitting import DecayFit, fit_power_law

poly = np.polynomial.polynomial

THRESHOLD_DIR_COUNT = 64  # sphere directions radial_threshold probes by default


# det Hess sqrt(P) along rays

def sqrt_hessian_growth_exponent(m, n) -> int:
    """Expected log-log slope of det Hess sqrt(P) along rays: n(m/2 - 2)."""
    return n * (m // 2 - 2)


def sqrt_hessian_det_values(p, points) -> np.ndarray:
    """det Hess sqrt(P) at points of shape (M, n), where P > 0, from the exact
    derivatives of P: d_i d_j sqrt(P) = (2 P P_ij - P_i P_j) / (4 P^(3/2))."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v = p.evaluate(points)
    if np.any(v <= 0):
        raise sym.SymbolError("sqrt(P) derivatives need P > 0")
    grad = np.stack([sym.derivative(p, e).evaluate(points)
                     for e in np.eye(p.n, dtype=int)], axis=-1)
    hess = np.stack([np.stack([h.evaluate(points) for h in row], axis=-1)
                     for row in sym.hessian_polys(p)], axis=-2)
    v = v[:, None, None]
    outer = grad[:, :, None] * grad[:, None, :]
    return np.linalg.det((2.0 * v * hess - outer) / (4.0 * v**1.5))


@dataclass(frozen=True)
class HessianGrowthFit:
    """Power-law fit of |det Hess sqrt(P)(R w)| against R along one direction
    w; no fit where the determinant vanishes or changes sign on the radii."""

    fit: DecayFit | None
    level: float | None  # fitted |det| / R^exponent at R = 1
    sign_change: bool
    det_values: tuple


def hessian_growth_sqrt(p, radii, dirs) -> list:
    """One HessianGrowthFit per direction of dirs, over radii (>= 5 values
    spanning at least a decade)."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 5 or radii.max() < 10.0 * radii.min():
        raise sym.SymbolError("radii must contain >= 5 values spanning at least one decade")
    out = []
    for w in np.atleast_2d(np.asarray(dirs, dtype=float)):
        dets = sqrt_hessian_det_values(p, radii[:, None] * w)
        if abs(np.sign(dets).sum()) < dets.size:  # a zero or both signs
            out.append(HessianGrowthFit(None, None, True, tuple(dets)))
            continue
        fit = fit_power_law(radii, np.abs(dets))
        out.append(HessianGrowthFit(fit, math.exp(fit.log_level), False, tuple(dets)))
    return out


# Contact order of the graph of sqrt(P)

def surface_type(p, xi0, k_max) -> int | None:
    """Smallest k in [2, k_max] with a nonvanishing k-th derivative of
    g = sqrt(P) at xi0, or None.

    Leibniz's rule on g g = P gives each derivative from lower ones,
    2 g d^a g = d^a P - sum_{0 < b < a} C(a, b) d^b g d^(a-b) g, so nothing
    is differentiated numerically.  The k-th derivatives vanish when all stay
    below 1e-9 (1 + P(xi0)).
    """
    p0 = p.evaluate(xi0)
    if p0 <= 0:
        raise sym.SymbolError(f"surface_type needs P(xi0) > 0, got {p0!r}")
    zero = (0,) * p.n
    g = {zero: math.sqrt(p0)}
    for k in range(1, k_max + 1):
        largest = 0.0
        for a in itertools.product(range(k + 1), repeat=p.n):
            if sum(a) != k:
                continue
            acc = 0.0
            for b in itertools.product(*(range(ai + 1) for ai in a)):
                if b not in (zero, a):
                    c = tuple(ai - bi for ai, bi in zip(a, b))
                    acc += math.prod(map(math.comb, a, b)) * g[b] * g[c]
            g[a] = (sym.derivative(p, a).evaluate(xi0) - acc) / (2.0 * g[zero])
            largest = max(largest, abs(g[a]))
        if k >= 2 and largest > 1e-9 * (1.0 + p0):
            return k
    return None


# Radial inverse rho(s, w) of P(rho w) = s for large s

def radial_threshold(p, directions=None) -> float:
    """A level a from which P(rho w) = s has one positive root along every
    direction w of directions (THRESHOLD_DIR_COUNT sphere directions by
    default): twice the largest value of P on the radial critical sets, the
    origin and the positive roots of d/drho P(rho w)."""
    if directions is None:
        directions = sym.sphere_directions(p.n, THRESHOLD_DIR_COUNT)
    worst = 0.0
    for w in directions:
        c = sym.ray_coefficients(p, w)
        crit = [r.real for r in poly.polyroots(poly.polyder(c))
                if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and r.real > 0]
        worst = max(worst, poly.polyval([0.0, *crit], c).max())
    return 2.0 * worst


@dataclass(frozen=True)
class RadialInverse:
    """rho solving P(rho w) = s on a grid of s, its deviation sigma from the
    homogeneous prediction s^(1/m) P_m(w)^(-1/m), and the residuals
    |P(rho w) - s| / (1 + s)."""

    s: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    residuals: np.ndarray


def radial_inverse(p, omega, s_grid) -> RadialInverse:
    """rho = ray_level(c, v >= s) for each s of s_grid, to rounding.  Every s
    must be at least radial_threshold, where the root is unique, and above
    P(0), so that the root is positive."""
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    s = np.asarray(s_grid, dtype=float)
    m, c = p.order, sym.ray_coefficients(p, omega)
    if c[m] <= 0:
        raise sym.RadialInverseError("principal part non-positive along this direction")
    threshold = radial_threshold(
        p, np.vstack([sym.sphere_directions(p.n, THRESHOLD_DIR_COUNT), omega]))
    if s.min() < threshold or s.min() <= c[0]:
        raise sym.RadialInverseError(f"s = {s.min()!r} below the threshold {threshold!r} "
                                     f"or not above P(0) = {c[0]!r}")
    rho = np.array([sym.ray_level(c, lambda v: v >= level) for level in s])
    sigma = rho - s ** (1.0 / m) * c[m] ** (-1.0 / m)
    return RadialInverse(s, rho, sigma, np.abs(poly.polyval(rho, c) - s) / (1.0 + s))


def sigma_decay_fit(inv: RadialInverse) -> DecayFit:
    """Power-law fit of |d sigma / ds| by central differences.

    The symbol class bounds it by s^-1 from above: an envelope (fitted slope
    <= -1), not a rate.  For a polynomial symbol rho(s) is algebraic, sigma
    has a Puiseux expansion in s^(-1/m), and |d sigma / ds| decays like
    s^(-1-1/m) (1 + |x|^4 + x1^2 along e1 gives -1.2938 on [1e2, 1e4]).
    """
    dsig = (inv.sigma[2:] - inv.sigma[:-2]) / (inv.s[2:] - inv.s[:-2])
    return fit_power_law(inv.s[1:-1], np.abs(dsig))


# Rescaling identity for a homogeneous symbol

def scaling_exponents(kind, m, n):
    """(pre, arg) of I(t, x) = t^pre I(1, t^arg x) for a homogeneous P of
    order m on R^n: arg = -2/m; pre = -2n/m for I1 and (m - 2n)/m for I2,
    whose weight P^(-1/2) adds one power of t."""
    pre = {"I1": Fraction(-2 * n, m), "I2": Fraction(m - 2 * n, m)}[kind]
    return pre, Fraction(-2, m)


def scaling_check(p, kind, t_list, x_list, cfg=None) -> float:
    """Largest relative deviation of the rescaling identity over the times
    t > 0 of t_list and the points of x_list; p must be homogeneous."""
    if sym.principal_part(p) != p:
        raise K.KernelConfigError("scaling identity holds only for homogeneous symbols")
    pre, arg = scaling_exponents(kind, p.order, p.n)
    worst = 0.0
    for t in t_list:
        for x in x_list:
            lhs = K.eval_kernel(p, kind, +1, t, x, cfg).value
            rhs = t ** float(pre) * K.eval_kernel(
                p, kind, +1, 1.0, t ** float(arg) * np.asarray(x, dtype=float), cfg).value
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst
