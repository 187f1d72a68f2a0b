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
from functools import lru_cache, reduce

import numpy as np

from .symbol import CHUNK_POINTS, RadialInverseError, SymbolPoly, ray_coefficients, ray_level
from .regions import CLAIMS, mu_a
from .spectral import _sin_cos, _times_power, checked_sqrt, sqrt_symbol

KINDS = ("I1", "I2")

TAIL_TOL = 1e-14  # damping at the truncation radius
FLAG_ABS = 1e-4  # a sample is flagged when err > FLAG_ABS + FLAG_REL |value|
FLAG_REL = 0.25
# Radial panels double until every eps value is stable to RADIAL_RTOL, or its
# change is below ROUNDING_FLOOR machine epsilons of the damped absolute mass
# sum |weight| exp(-eps sqrt(P)) (a value at rounding level never meets a
# relative test), or RADIAL_MAX_PANELS is reached.
RADIAL_RTOL = 1e-9
ROUNDING_FLOOR = 16
RADIAL_MAX_PANELS = 2**18
# is_radial compares P's coefficients with those of c |xi|^d to this relative
# tolerance: typed decimals do not multiply exactly (0.1 * 3 != 0.3).
RADIAL_COEFF_RTOL = 1e-12
GAUSS_POINTS = 16  # Gauss-Legendre nodes per radial panel
# The first radial composition has one panel per PANEL_PHASE of total phase.
# One GAUSS_POINTS panel integrates e^{i phi} over a 4 pi span to ~1e-15.
# The phase grows about quadratically in r, so the outermost uniform panel
# spans ~2x the average; the doubled level that is returned then spans at
# most 4 pi everywhere.
PANEL_PHASE = 4.0 * math.pi
# The angular factor's Bessel function is evaluated by numpy alone in three
# regimes of rho: the power series below BESSEL_SERIES_MAX, Miller's downward
# recurrence below BESSEL_HANKEL_MIN and Hankel's expansion from there on.
# Each series stops at its first term below BESSEL_TOL times its leading term.
BESSEL_SERIES_MAX = 4.0
BESSEL_HANKEL_MIN = 20.0
BESSEL_TOL = np.finfo(float).eps / 4
SATURATION_TOL = 0.05  # see check_bound


class KernelConfigError(ValueError):
    """Bad quadrature configuration (eps list, kind, method); `field` names
    the input at fault, when there is one: a QuadConfig field, "t", "x" or
    "poly", or the tuple ("poly", "kind") when the symbol and the kernel kind
    conflict."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _check_order(order, count):
    """Raise unless 0 <= order < count: an extrapolation of the given order
    goes through order + 1 of the count damped values."""
    if not (isinstance(order, int) and 0 <= order < count):
        raise KernelConfigError(
            f"order must be an integer from 0 to len(eps_list) - 1 = {count - 1}, "
            f"got {order!r}", "order")


@dataclass(frozen=True)
class QuadConfig:
    """Damping / extrapolation / lattice parameters for kernel evaluation.

    eps_list must be strictly decreasing and positive; lattice truncation
    is chosen so the damping at the smallest eps reaches TAIL_TOL along
    every axis.  The extrapolation of the given order goes through order + 1
    of its values, so order < len(eps_list).  lattice_N must be even, so
    that the lattice can be folded onto its mirror halves (see _lattice_sums).
    """

    eps_list: tuple = (0.2, 0.1, 0.05, 0.025)
    order: int = 3
    lattice_N: int = 512
    method: str = "lattice"  # "lattice" or "radial"

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if not eps or not all(0 < e < math.inf for e in eps):
            raise KernelConfigError("eps_list must contain positive finite values", "eps_list")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise KernelConfigError("eps_list must be strictly decreasing", "eps_list")
        object.__setattr__(self, "eps_list", eps)
        _check_order(self.order, len(eps))
        N = self.lattice_N
        if not (isinstance(N, int) and N > 0 and N % 2 == 0):
            raise KernelConfigError(
                f"lattice_N must be a positive even integer, got {N!r}", "lattice_N")
        if self.method not in ("lattice", "radial"):
            raise KernelConfigError(f"unknown method {self.method!r}", "method")


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

def _ray_cutoff(ray, eps_min) -> float:
    """Smallest R with exp(-eps_min sqrt(max(P(R w), 0))) <= TAIL_TOL along
    the ray w whose polynomial P(r w) has the coefficients ray.  Where there
    is none, eps_min is at fault if P grows along the ray, else the symbol."""
    target = math.log(1.0 / TAIL_TOL) / eps_min  # need sqrt(P) >= target
    try:
        return ray_level(ray, lambda v: math.sqrt(max(v, 0.0)) >= target)
    except RadialInverseError as exc:
        grows = np.any(ray[1:]) and ray[np.flatnonzero(ray)[-1]] > 0
        raise KernelConfigError("damping never reaches the tail tolerance",
                                "eps_list" if grows else "poly") from exc


def _lattice_axis(p: SymbolPoly, eps_list, N):
    # the damping at the smallest eps must reach TAIL_TOL along every axis
    xi_max = max(_ray_cutoff(ray_coefficients(p, e), min(eps_list))
                 for e in np.eye(p.n))
    h = 2.0 * xi_max / N
    axis = -xi_max + h * np.arange(N)
    return axis, h


MAX_LATTICE_POINTS = 2**27
LATTICE_MAX_N = 3  # the lattice is desk-scale up to this dimension
# A block of _damped_sums holds CHUNK_POINTS // 2 nodes (a lattice block at
# least one row of axis 0): its seven arrays take 0.9 MiB, inside a core's 2 MiB
# L2 on the 2-vCPU Xeon measured, where an n = 2, N = 512 lattice sample took
# 1.5x as long with blocks of CHUNK_POINTS nodes and 1.16x with CHUNK_POINTS // 4.

def _lattice_sums(p, kind, sign, t, x, eps_list, N):
    """Trapezoid sums at every eps, on the full lattice and on the
    every-other-point sublattice (for the refinement delta).

    An axis on which P is even is folded onto its mirror halves: its nodes
    are -xi_max (which has no mirror on the lattice) and the xi >= 0, with
    weights exp(i x_i xi), 1 at xi = 0 and 2 cos(x_i xi) for each pair +-xi.
    Any other axis keeps its N nodes with weights exp(i x_i xi).  A fully
    even symbol thus takes (N/2 + 1)^n values of sqrt(P) instead of N^n.
    The coarse sublattice is the even original indices k on every axis (k
    and N - k have the same parity).  Each axis lists them first, and the
    coarse sums take the weights zeroed off that leading sub-block.

    Returns (fine_values, coarse_values, work): complex arrays over eps_list
    and {"points": lattice points evaluated, "folded_axes": tuple of axes}.
    """
    n = p.n
    if n > LATTICE_MAX_N:
        raise KernelConfigError(
            f"full-lattice evaluation is desk-scale only for n <= {LATTICE_MAX_N} (got n={n}); "
            "use method='radial' for radial symbols in higher dimension", "method")
    if N**n > MAX_LATTICE_POINTS:
        raise KernelConfigError(
            f"lattice has {N**n} points, over the cap of {MAX_LATTICE_POINTS}", "lattice_N")
    axis, h = _lattice_axis(p, eps_list, N)
    xi_max = -float(axis[0])
    if not math.isfinite(float(np.max(np.abs(x))) * xi_max):
        raise KernelConfigError(
            f"the phase x_i xi overflows at the lattice edge xi_max = {xi_max:.3g}", "x")
    folded = p.even_axes
    nodes, weights = [], []
    for i in range(n):
        idx = np.r_[0, N // 2:N] if i in folded else np.arange(N)  # indices on the full axis
        idx = idx[np.argsort(idx % 2, kind="stable")]  # coarse (even) nodes first
        sin_x, cos_x = _sin_cos(x[i] * axis[idx])
        w = cos_x + 1j * sin_x  # exp(i x_i xi)
        if i in folded:  # 2 cos for each pair +-xi; -xi_max and xi = 0 have no mirror
            w = np.where(idx == 0, w, 2.0 * cos_x)
            w[idx == N // 2] = 1.0
        nodes.append(axis[idx])
        weights.append(np.stack([w, w * (idx % 2 == 0)], axis=1))  # fine, coarse
    # column weights: the outer product of the weights of axes 1..n-1, per column
    cols = reduce(lambda c, w: (c[:, None] * w).reshape(-1, 2), weights[1:], np.ones((1, 2)))
    sums = np.zeros((2, len(eps_list)), dtype=complex)  # fine, coarse
    def blocks():
        chunk = max(1, CHUNK_POINTS // 2 // len(cols))
        for start in range(0, nodes[0].size, chunk):
            r = slice(start, start + chunk)
            A = sqrt_symbol(p, [nodes[0][r]] + nodes[1:], strict=(kind == "I2"))
            A = A.reshape(-1, len(cols))  # r x R
            yield A, (1.0 / A if kind == "I2" else None), weights[0][r]
    _damped_sums(blocks(), cols, sign, t, eps_list, sums)
    return (sums[0] * h**n, sums[1] * (2.0 * h) ** n,
            {"points": math.prod(v.size for v in nodes), "folded_axes": folded})


# ---------------------------------------------------------------------------
# Radial reduction: exact angular integral, refined Gauss-Legendre in r
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def is_radial(p: SymbolPoly) -> bool:
    """Whether P depends on |xi| only, read from its terms: every homogeneous
    part of degree d is c |xi|^d, with d even and c its coefficient of xi_1^d,
    each coefficient to RADIAL_COEFF_RTOL |c|."""
    for d in {sum(a) for a, _ in p.terms}:
        c = p.coeff((d,) + (0,) * (p.n - 1))
        part = SymbolPoly.from_terms(p.n, {a: v for a, v in p.terms if sum(a) == d})
        if d % 2 or any(abs(v) > RADIAL_COEFF_RTOL * abs(c)
                        for _, v in (part - c * SymbolPoly.radial_power(p.n, d)).terms):
            return False
    return True


def _angular_factor(n, rho):
    """Integral of exp(i rho <z, w>) over S^{n-1}: (2 pi)^{n/2} rho^{1-n/2} J_{n/2-1}(rho)."""
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)  # |S^{n-1}|, the value at rho = 0
    return _normalised_bessel(n / 2.0 - 1.0, rho, sphere)


def _normalised_bessel(nu, rho, scale):
    """scale Gamma(nu + 1) (2 / rho)^nu J_nu(rho), equal to scale at rho = 0.

    nu is a multiple of 1/2 and at least -1/2.  rho >= 0 must ascend in
    C order, as the radial nodes of a block do: each regime takes a
    contiguous slice of it.
    """
    rho = np.asarray(rho, dtype=float)
    flat = rho.ravel()
    if np.any(flat[1:] < flat[:-1]):
        raise ValueError("rho must be in ascending order")
    out = np.empty_like(flat)
    zero = np.searchsorted(flat, 0.0, side="right")
    i, j = np.searchsorted(flat, (BESSEL_SERIES_MAX, BESSEL_HANKEL_MIN))
    series, p, q, cos_phi, sin_phi = _bessel_coefficients(nu, scale)
    out[:zero] = scale
    if zero < i:
        x = flat[zero:i]
        _horner(series, x * x, out[zero:i])
    if i < j:
        _bessel_miller(nu, flat[i:j], out[i:j])
        out[i:j] *= scale * math.gamma(nu + 1.0)
    if j < flat.size:
        x = flat[j:]
        w = 1.0 / x
        z = w * w
        P = _horner(p, z, np.empty_like(z))
        Q = _horner(q, z, np.empty_like(z))
        Q *= w
        sin_x, cos_x = _sin_cos(x)
        # P cos(x - phi) - Q sin(x - phi) = (P cos phi + Q sin phi) cos x
        #                                  + (P sin phi - Q cos phi) sin x
        o = np.multiply(P, cos_phi, out=out[j:])
        o += sin_phi * Q
        o *= cos_x
        P *= sin_phi
        Q *= cos_phi
        P -= Q
        P *= sin_x
        o += P
        _times_power(o, w, nu + 0.5)
    return out.reshape(rho.shape)


@lru_cache(maxsize=None)
def _bessel_coefficients(nu, scale):
    """Coefficients, highest power first, of the series and Hankel regimes.

    Series (DLMF 10.2.2): scale sum_k c_k (rho^2)^k with c_0 = 1 and
    c_k = -c_{k-1} / (4 k (k + nu)).  Hankel (DLMF 10.17.3):
    C rho^{-nu-1/2} [P cos(rho - phi) - Q sin(rho - phi)] with
    phi = (nu/2 + 1/4) pi, P = sum_k (-1)^k a_{2k} rho^{-2k},
    Q = rho^{-1} sum_k (-1)^k a_{2k+1} rho^{-2k}, a_0 = 1,
    a_k = a_{k-1} (4 nu^2 - (2k - 1)^2) / (8 k) and
    C = scale Gamma(nu + 1) 2^nu sqrt(2 / pi).  Each sum stops at the first
    term below BESSEL_TOL at the regime's edge; for half-integer nu the
    Hankel sums end on their own.
    """
    series = [scale]
    while abs(series[-1]) * BESSEL_SERIES_MAX ** (2 * len(series) - 2) > BESSEL_TOL * scale:
        k = len(series)
        series.append(-series[-1] / (4.0 * k * (k + nu)))
    a = [1.0]
    while a[-1] != 0.0 and abs(a[-1]) * BESSEL_HANKEL_MIN ** (1 - len(a)) > BESSEL_TOL:
        k = len(a)
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    c = scale * math.gamma(nu + 1.0) * 2.0 ** nu * math.sqrt(2.0 / math.pi)
    p = [(-1) ** (k // 2) * c * a[k] for k in range(0, len(a), 2)]
    q = [(-1) ** (k // 2) * c * a[k] for k in range(1, len(a), 2)]
    phi = (nu / 2.0 + 0.25) * math.pi
    return series[::-1], p[::-1], q[::-1], math.cos(phi), math.sin(phi)


def _bessel_miller(nu, x, out):
    """out = (2 / x)^nu J_nu(x) by Miller's downward recurrence, x sorted.

    f_{mu-1} = (2 mu / x) f_mu - f_{mu+1} runs down from f_{nu+N+1} = 0,
    f_{nu+N} = 1 (DLMF 10.6.1; 3.6(vi)), with N even and (x_max/2)^N / N!
    below BESSEL_TOL.  The values are proportional to J_mu, and Neumann's
    expansion (x/2)^nu = sum_k c_k J_{nu+2k}, c_0 = Gamma(nu + 1),
    c_k = (nu + 2k) Gamma(nu + k) / k! (DLMF 10.23.15), turns f_nu into
    f_nu / sum_k c_k f_{nu+2k} = (2 / x)^nu J_nu.  The rounding of 2 / x
    evaluates J at an argument off by up to 2^-53 x, under 2e-15 of the
    amplitude below BESSEL_HANKEL_MIN; dividing by x at every step instead
    takes 1.3-1.9 times as long.
    """
    top, bound = 0, 1.0
    while bound > BESSEL_TOL:
        top += 1
        bound *= 0.5 * x[-1] / top
    top += top % 2
    coeffs, g = [math.gamma(nu + 1.0)], math.gamma(nu + 1.0)  # g = Gamma(nu + k) / k!
    for k in range(1, top // 2 + 1):
        coeffs.append((nu + 2 * k) * g)
        g *= (nu + k) / (k + 1)
    inv = 2.0 / x
    above, cur, nxt = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    total = np.full_like(x, coeffs[-1])
    for k in range(top, 0, -1):
        np.multiply(cur, nu + k, out=nxt)
        nxt *= inv
        nxt -= above  # f_{nu+k-1}
        above, cur, nxt = cur, nxt, above
        if k % 2 == 1:
            np.multiply(cur, coeffs[k // 2], out=nxt)
            total += nxt
    np.divide(cur, total, out=out)


def _horner(coeffs, u, out):
    """out = sum_k coeffs[k] u^(K-k), highest power first; out must not alias u."""
    out.fill(coeffs[0])
    for c in coeffs[1:]:
        out *= u
        out += c
    return out


def _damped_sums(blocks, cols, sign, t, eps_list, sums, masses=None):
    """Add sum_ab exp((i s t - eps) A_ab) amp_ab rows[a, j] cols[b, j] over
    each block to sums[j, k], k the index of eps in eps_list.

    blocks yields (A, amp, rows): sqrt(P) on an r x R block of nodes, None or
    a real factor per node (such as I2's 1/A) and the complex row weights,
    shape (r, J); cols holds the complex column weights, shape (R, J), the
    same for every block.  masses, None or an array over eps_list, receives
    the damped masses: the sum for j = 0 with every factor taken absolute and
    no oscillation.  For each eps, exp(-eps A) cos(s t A) amp and
    exp(-eps A) sin(s t A) amp go into buffers reused across eps values and
    blocks; one matmul contracts them with the columns, held as real
    [Re, Im] pairs, and one product with the rows.
    """
    pairs = np.ascontiguousarray(cols, dtype=complex).view(float)
    buf = np.empty(0)
    for A, amp, rows in blocks:
        r, R = A.shape
        sin_st, cos_st = _sin_cos(sign * t * A)
        if amp is not None:
            cos_st *= amp
            sin_st *= amp
        if buf.size < 3 * A.size:
            buf = np.empty(3 * A.size)
        damp, osc = buf[:A.size].reshape(r, R), buf[A.size:3 * A.size].reshape(2, r, R)
        if masses is not None:
            mass_weight = np.abs(np.outer(rows[:, 0], cols[:, 0]) * (1.0 if amp is None else amp))
        for k, eps in enumerate(eps_list):
            np.multiply(A, -eps, out=damp)
            np.exp(damp, out=damp)
            np.multiply(damp, cos_st, out=osc[0])  # damped cos, damped sin
            np.multiply(damp, sin_st, out=osc[1])
            # BLAS matmul: 1.5 ms per n = 2, N = 512 lattice sample, on one core or
            # two (2.7 ms with einsum's own loop; 2-vCPU Xeon)
            cos_cols, sin_cols = (osc.reshape(2 * r, R) @ pairs).reshape(2, r, -1).view(complex)
            sums[:, k] += np.einsum("aj,aj->j", rows, cos_cols + 1j * sin_cols)
            if masses is not None:
                masses[k] += np.vdot(damp, mass_weight)


@lru_cache(maxsize=None)
def _gauss_legendre():
    """The GAUSS_POINTS-point Gauss-Legendre rule on [-1, 1], nodes ascending."""
    from numpy.polynomial.legendre import leggauss  # not loaded with numpy itself

    nodes, weights = leggauss(GAUSS_POINTS)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every sample
    return nodes, weights


def _damped_radial_values(p, kind, sign, t, x, eps_list):
    """Fixed-eps kernel values at every eps of eps_list via the 1-d reduction.

    Returns (values, panels), panels being the final composite panel count.
    One Gauss-Legendre node set serves the whole list: the cutoff R comes
    from the smallest eps and the first composition has one panel per
    PANEL_PHASE of total phase (at least 64, a power of two), so
    oscillations at large t stay resolved.  _damped_sums reduces the
    panels in blocks of CHUNK_POINTS // 2 nodes, so memory does not grow with
    t or |x|.  Composite panels are doubled until every value is stable to
    RADIAL_RTOL or to its rounding floor.  A first composition that would reach
    RADIAL_MAX_PANELS raises KernelConfigError naming x or t, the larger phase.
    """
    if not is_radial(p):
        raise KernelConfigError("radial reduction requires a radial symbol", "method")
    if kind == "I2" and p.coeff((0,) * p.n) <= 0.0:
        raise KernelConfigError(
            "radial I2 needs P(0) > 0: the P^{-1/2} weight is singular at the origin",
            ("poly", "kind"))
    r_abs_x = math.hypot(*x)
    ray = ray_coefficients(p, np.eye(p.n)[0])
    R = _ray_cutoff(ray, min(eps_list))  # the same on every ray of a radial P
    # sqrt(P(R)) reaches the cutoff's target, so P(R) > 0
    t_phase = abs(t) * float(np.sqrt(np.polynomial.polynomial.polyval(R, ray)))
    x_phase = r_abs_x * R
    first = (t_phase + x_phase + 8.0) / PANEL_PHASE + 1
    if first > RADIAL_MAX_PANELS / 2:  # rounded up, it leaves no room to refine
        raise KernelConfigError(
            f"the radial phase |t| sqrt(P(R)) + |x| R = {t_phase + x_phase:.3g} needs "
            f"{RADIAL_MAX_PANELS} panels or more", "x" if x_phase > t_phase else "t")
    panels = max(64, 2 ** math.ceil(math.log2(first)))
    nodes, weights = _gauss_legendre()
    block = CHUNK_POINTS // 2 // nodes.size  # panels per block

    def compose(m):
        """Values on m panels and the damped masses sum |weight| exp(-eps sqrt(P))."""
        edges = np.linspace(0.0, R, m + 1)
        vals, mass = np.zeros((1, len(eps_list)), dtype=complex), np.zeros(len(eps_list))
        def blocks():
            # rows: panels, weighed by their half-widths; columns: Gauss nodes
            for start in range(0, m, block):
                e = edges[start:start + block + 1]
                mid = 0.5 * (e[:-1] + e[1:])
                half = 0.5 * (e[1:] - e[:-1])
                rr = mid[:, None] + half[:, None] * nodes[None, :]
                A = checked_sqrt(np.polynomial.polynomial.polyval(rr, ray),
                                 lambda idx: (float(rr[idx]),) + (0.0,) * (p.n - 1),
                                 strict=(kind == "I2"))
                amp = rr ** (p.n - 1) * _angular_factor(p.n, r_abs_x * rr)
                if kind == "I2":
                    amp /= A
                yield A, amp, half[:, None]
        _damped_sums(blocks(), weights[:, None], sign, t, eps_list, vals, mass)
        return vals[0], mass

    prev, _ = compose(panels)
    while panels < RADIAL_MAX_PANELS:
        panels *= 2
        cur, mass = compose(panels)
        delta = np.abs(cur - prev)
        # a value at rounding level never meets the relative test
        if not np.any((delta > RADIAL_RTOL * np.maximum(np.abs(cur), 1e-300))
                      & (delta > ROUNDING_FLOOR * np.finfo(float).eps * mass)):
            return cur, panels
        prev = cur
    return prev, panels


# ---------------------------------------------------------------------------
# Extrapolation eps -> 0 and the public evaluators
# ---------------------------------------------------------------------------

def extrapolate_to_zero(eps_list, values, order):
    """Polynomial extrapolation to eps = 0 through the finest order+1 points;
    an order outside 0..len(eps_list) - 1 raises KernelConfigError.

    Returns (extrapolated, stability) where stability is the change from
    dropping one extrapolation order.
    """
    _check_order(order, len(eps_list))
    eps = np.asarray(eps_list, dtype=float)
    vals = np.asarray(values, dtype=complex)
    use_e, use_v = eps[-(order + 1):], vals[-(order + 1):]

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
    stability = abs(extrap - lagrange_at_zero(use_e[1:], use_v[1:])) if order >= 1 else 0.0
    return extrap, stability


def scaled_config(cfg: QuadConfig, t) -> QuadConfig:
    """Rescale the damping list for small |t|.

    The regularized kernel approximates the kernel only when the damping
    acts below the time-oscillation scale, so for |t| < 1 the eps list is
    multiplied by |t|.
    """
    factor = min(1.0, abs(float(t)))
    if factor <= 0:
        raise KernelConfigError("scaled_config needs t != 0", "t")
    if factor == 1.0:
        return cfg
    return replace(cfg, eps_list=tuple(e * factor for e in cfg.eps_list))


def _checked_point(p: SymbolPoly, kind, sign, t, x) -> np.ndarray:
    """Validate kind, sign and a finite (t, x) of a query; return x as a
    float array of length p.n."""
    if kind not in KINDS:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    if sign not in (+1, -1):
        raise KernelConfigError("sign must be +1 or -1")
    if not math.isfinite(t):
        raise KernelConfigError(f"t must be finite, got {t!r}", "t")
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise KernelConfigError(f"x must have length {p.n}")
    if not np.all(np.isfinite(x)):
        raise KernelConfigError(f"x must be finite, got {tuple(x.tolist())}", "x")
    return x


def eval_kernel(p, kind, sign, t, x, cfg: QuadConfig | None = None) -> KernelSample:
    """Extrapolated kernel value at (t, x) with a conservative error bar.

    err = |finest-eps value - extrapolated| + |fine-lattice extrapolation -
    coarse-sublattice extrapolation|; samples whose err exceeds the
    configured cap are flagged, never silently dropped.
    """
    cfg = cfg or QuadConfig()
    x = _checked_point(p, kind, sign, t, x)
    if t == 0:
        raise KernelConfigError("kernel values are defined for t != 0", "t")
    if cfg.method == "radial":
        vals, panels = _damped_radial_values(p, kind, sign, t, x, cfg.eps_list)
        extrap, stability = extrapolate_to_zero(cfg.eps_list, vals, cfg.order)
        err = abs(vals[-1] - extrap) + stability
        meta = {"method": "radial", "eps_list": cfg.eps_list, "panels": panels}
    else:
        fine, coarse, work = _lattice_sums(p, kind, sign, t, x, cfg.eps_list, cfg.lattice_N)
        extrap, stability = extrapolate_to_zero(cfg.eps_list, fine, cfg.order)
        extrap_coarse, _ = extrapolate_to_zero(cfg.eps_list, coarse, cfg.order)
        err = abs(fine[-1] - extrap) + abs(extrap - extrap_coarse)
        meta = {"method": "lattice", "eps_list": cfg.eps_list, "N": cfg.lattice_N,
                **work, "stability": float(stability)}
    flagged = err > FLAG_ABS + FLAG_REL * abs(extrap)
    return KernelSample(kind=kind, sign=sign, t=float(t), x=tuple(float(v) for v in x),
                        value=complex(extrap), err=float(err), flagged=bool(flagged),
                        meta=meta)


# ---------------------------------------------------------------------------
# Envelope exponents and bound reports
# ---------------------------------------------------------------------------

def envelope_exponents(kind, m, n):
    """(time_exponent, argument_scale_exponent, spatial_power) per regime.

    Returns {"small": (...), "large": (...)} with exact Fractions.  The
    envelope is |t|^time_exp * (1 + |t|^arg_exp |x|)^{-spatial_power}: the U (I1)
    or V (I2) convolution claim at (1/p, 1/q) = (1, 0), as ||T(t)||_{1->inf} =
    sup |K_t|, and the power mu_0 (I1) or mu_m (I2) of regions.mu_a.
    """
    m, n = int(m), int(n)
    mu_nu(m, n)  # order m > 2 before the kind
    if kind not in KINDS:
        raise KernelConfigError(f"kind must be one of {KINDS}")
    part, a = ("U", 0) if kind == "I1" else ("V", m)
    return {regime: (CLAIMS[part, regime, "convolution"][1](1, 0, m, n), arg, mu_a(a, m, n))
            for regime, arg in (("small", Fraction(-2, m)), ("large", Fraction(-1)))}


def mu_nu(m, n):
    """Spatial envelope power mu = mu_m and the auxiliary time power nu = (n-m)/(m-2).

    Both need order m > 2, as every envelope does."""
    if m <= 2:
        raise KernelConfigError(f"kernel envelopes need order m > 2, got m = {m}", "poly")
    return mu_a(m, m, n), Fraction(n - m, m - 2)


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


def check_bound(samples, p: SymbolPoly) -> KernelBoundReport:
    """Empirical envelope constants C_emp = max |I| / envelope per time regime.

    Samples are split at |t| = 1; each regime records C_emp and whether
    the running max has stopped drifting (saturated means the upward
    drift across the last decade stayed within SATURATION_TOL).  Empty
    regimes are reported as no-data.  An envelope too small to divide |I|
    by (it underflows at large |x|) raises KernelConfigError naming x.
    """
    samples = list(samples)
    if not samples:
        raise KernelConfigError("check_bound needs at least one sample")
    kinds = {s.kind for s in samples}
    if len(kinds) != 1:
        raise KernelConfigError("samples mix kernel kinds")
    kind = kinds.pop()
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
            ax = math.hypot(*s.x)
            env = at ** float(te) * (1.0 + at ** float(ae) * ax) ** (-float(sp))
            ratio = abs(s.value) / env if env > 0.0 else math.inf
            if not ratio < math.inf:
                raise KernelConfigError(
                    f"the {regime}-time envelope at t = {s.t!r}, |x| = {ax!r} is {env!r}, "
                    "too small to divide |I| by", "x")
            ratios.append(ratio)
            keys.append(1.0 / at if regime == "small" else max(at, ax, 1.0))
        order_idx = np.argsort(keys, kind="stable")
        keys_sorted = np.asarray(keys)[order_idx]
        ratios_sorted = np.asarray(ratios)[order_idx]
        drift = saturation_drift(keys_sorted, ratios_sorted)
        regimes.append(RegimeBound(regime, te, ae, sp, float(np.max(ratios)),
                                   float(drift), len(sub), False,
                                   saturated=bool(drift <= SATURATION_TOL)))
    desc = f"{len(samples)} samples of {kind} for m={m}, n={n}"
    return KernelBoundReport(kind=kind, m=m, n=n, mu=mu, nu=nu,
                             regimes=tuple(regimes), description=desc,
                             notes=tuple(notes))


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def samples_to_csv(path, samples):
    """One CSV row per sample; a non-finite number raises ValueError before
    the file is opened."""
    samples = list(samples)
    if not samples:
        raise KernelConfigError("nothing to write")
    if not all(math.isfinite(v) for s in samples
               for v in (s.t, *s.x, s.value.real, s.value.imag, s.err)):
        raise ValueError("the kernel samples hold a non-finite number")
    n = len(samples[0].x)
    cols = ["kind", "sign", "t"] + [f"x{i + 1}" for i in range(n)] + ["re", "im", "err"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for s in samples:
            row = [s.kind, f"{s.sign:+d}", repr(s.t)]
            row += [repr(v) for v in s.x]
            row += [repr(s.value.real), repr(s.value.imag), repr(s.err)]
            fh.write(",".join(row) + "\n")
