"""Exact-in-Fourier propagation of u_tt + P(D)u = 0 on a periodic box.

The propagator applies cos(sqrt(P) t) and sin(sqrt(P) t)/sqrt(P)
multipliers on the FFT lattice, so there is no time-stepping error and
the cost of reaching any t is a fixed number of transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbol import InputError, SymbolPoly

MAX_GRID_POINTS = 2**26  # memory cap on N^n
TAIL_CUTOFF = 0.5  # see spectral_tail_fraction
EDGE_BAND = 0.25  # see box_clearance


class GridError(InputError):
    """Invalid grid parameters, memory-cap violation or data that do not fit
    the grid; `field` names the make_grid parameter at fault ("n", "N" or
    "L"), when there is one."""


class LatticePositivityError(InputError):
    """P <= 0 (P < 0 where sqrt(P) alone is needed) at a lattice point or radial node."""

    field = "poly"

    def __init__(self, point, value):
        super().__init__(f"P(xi) = {value!r} <= 0 at xi = {tuple(point)}")
        self.point = tuple(point)
        self.value = value


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^n with N points per axis.

    Frequencies are xi_k = (pi / L) k for k in [-N/2, N/2), stored in FFT
    order so multipliers can be applied without shifting.
    """

    n: int
    N: int
    L: float

    @cached_property
    def x_axis(self) -> np.ndarray:
        return -self.L + (2.0 * self.L / self.N) * np.arange(self.N)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=2.0 * self.L / self.N)

    @property
    def npoints(self) -> int:
        return self.N**self.n

    @property
    def cell_volume(self) -> float:
        return (2.0 * self.L / self.N) ** self.n

    @property
    def xi_max(self) -> float:
        return np.pi * (self.N / 2) / self.L

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    def x_grids(self):
        return [self.x_axis.reshape([-1 if i == j else 1 for j in range(self.n)])
                for i in range(self.n)]

    def xi_grids(self):
        return [self.xi_axis.reshape([-1 if i == j else 1 for j in range(self.n)])
                for i in range(self.n)]


def make_grid(n, N, L) -> GridSpec:
    """Validated grid constructor: N a power of two, L > 0 with a positive
    finite float cell volume (2L/N)^n, N^n under the cap."""
    if n < 1:
        raise GridError(f"dimension must be >= 1, got {n}", "n")
    if N < 2 or (N & (N - 1)) != 0:
        raise GridError(f"N must be a power of two >= 2, got {N}", "N")
    if not 0 < L < math.inf:
        raise GridError(f"box half-length must be positive and finite, got {L}", "L")
    if N**n > MAX_GRID_POINTS:
        raise GridError(f"N^n = {N**n} exceeds the memory cap of {MAX_GRID_POINTS} points", "N")
    g = GridSpec(n=n, N=N, L=float(L))
    try:
        cell = g.cell_volume
    except OverflowError:
        cell = math.inf
    if not 0 < cell < math.inf:
        raise GridError(f"box half-length {L} gives the cell volume (2L/N)^n = {cell}, "
                        "not a positive finite float", "L")
    return g


@dataclass
class WaveState:
    """Field pair (u, u_t) at time t on a GridSpec lattice."""

    t: float
    u: np.ndarray
    ut: np.ndarray


def checked_sqrt(P: np.ndarray, point, strict=True) -> np.ndarray:
    """sqrt(P) of an array of symbol values, taken in place.

    strict=True needs P > 0, as the propagator and the P^{-1/2} weight of I2
    do; strict=False needs only P >= 0.  A violation raises
    LatticePositivityError at point(idx), idx the index of the smallest value.
    """
    pmin = float(np.min(P))
    if (pmin <= 0.0) if strict else (pmin < 0.0):
        idx = np.unravel_index(int(np.argmin(P)), P.shape)
        raise LatticePositivityError(point(idx), pmin)
    return np.sqrt(P, out=P)


def sqrt_symbol(p: SymbolPoly, axes, strict=True) -> np.ndarray:
    """sqrt(P) on the tensor lattice spanned by the 1-d arrays in axes."""
    return checked_sqrt(p.evaluate_on_axes(axes),
                        lambda idx: [float(ax[i]) for ax, i in zip(axes, idx)], strict)


def _frequency_sqrt(p: SymbolPoly, g: GridSpec, half=False) -> np.ndarray:
    """sqrt(P) on the frequency lattice of g, or on the half lattice of rfftn
    (last axis indices 0..N/2) when half.  A box too small for P's growth makes
    P overflow below xi_max = pi N/(2L); that raises GridError naming L."""
    axes = [g.xi_axis] * (g.n - 1) + [g.xi_axis[:g.N // 2 + 1] if half else g.xi_axis]
    with np.errstate(over="ignore", invalid="ignore"):
        w = sqrt_symbol(p, axes)
    if not math.isfinite(float(np.max(w))):
        raise GridError(f"P is not finite on the frequency lattice of box half-length {g.L!r}, "
                        f"where |xi_i| reaches {g.xi_max!r}", "L")
    return w


def data_transforms(g: GridSpec, fields) -> list:
    """(F f, f is real) for each data field, one field at a time (fields may
    be a generator), after checking it against the grid."""
    spectra = []
    for f in fields:
        f = np.asarray(f, dtype=complex)
        if f.shape != g.shape:
            raise GridError("data fields do not match the grid shape")
        if not np.all(np.isfinite(f)):
            raise GridError("data fields contain non-finite entries")
        spectra.append((np.fft.fftn(f), not np.any(f.imag)))
    return spectra


def _sin_cos(x):
    """sin x and cos x from t = tan(x/2), within 2.3e-16 absolute: in float64,
    np.tan costs a fraction of np.sin and np.cos together."""
    t = np.tan(0.5 * x)
    t2 = t * t
    d = np.add(t2, 1.0)
    np.divide(1.0, d, out=d)
    t *= 2.0
    t *= d  # 2t / (1 + t^2)
    np.subtract(1.0, t2, out=t2)
    t2 *= d  # (1 - t^2) / (1 + t^2)
    return t, t2


def _times_power(out, base, e):
    """out *= base^e for e >= 0 a multiple of 1/2, by sqrt and multiplications."""
    whole = math.floor(e)
    if e != whole:
        out *= np.sqrt(base)
    for _ in range(whole):
        out *= base


def propagate(u0, u1, t, p: SymbolPoly, g: GridSpec) -> WaveState:
    """One-shot solution at time t from data (u0, u1).

    u  = F^-1[cos(w t) F u0 + sin(w t)/w F u1]
    ut = F^-1[cos(w t) F u1 - w sin(w t) F u0]
    with w = sqrt(P) on the frequency lattice: one inverse transform per field,
    cos(w t) and sin(w t) from one _sin_cos call.
    """
    (u0_hat, _), (u1_hat, _) = data_transforms(g, (u0, u1))
    w = _frequency_sqrt(p, g)
    sin_wt, cos_wt = _sin_cos(w * t)
    u = np.fft.ifftn(cos_wt * u0_hat + sin_wt / w * u1_hat)
    ut = np.fft.ifftn(cos_wt * u1_hat - w * sin_wt * u0_hat)
    return WaveState(t=float(t), u=u, ut=ut)


def propagate_part(spectra, t_grid, p: SymbolPoly, g: GridSpec, part):
    """Yield part "U" (F^-1[cos(w t) F f]) or "V" (F^-1[sin(w t)/w F f]) of each
    field f at each t in t_grid, t-major: propagate(u0, u1, t).u = U(t)u0 + V(t)u1.

    spectra are the (F f, f is real) pairs of data_transforms, so a caller that
    also needs F f for something else transforms each field once; w is
    evaluated once and each t takes one _sin_cos call.  When P is even on
    every axis (SymbolPoly.even_axes), U(t) and V(t) are real and equal at
    mirrored lattice indices, so they map real fields to real fields: w lives
    on the half lattice of rfftn, a real f takes one irfftn per t and a
    complex f is split as U(Re f) + i U(Im f).  Even total degree is not
    enough, since the index -N/2 is its own mirror; such a P takes one
    complex ifftn per (t, field).
    """
    if part not in ("U", "V"):
        raise ValueError(f"part must be U or V, got {part!r}")
    if len(p.even_axes) == g.n:
        half = g.N // 2 + 1
        w = _frequency_sqrt(p, g, half=True)
        inputs = [_half_spectra(h, real, half) for h, real in spectra]
        axes = tuple(range(g.n))
        def inverse(x):
            return np.fft.irfftn(x, g.shape, axes)
    else:
        w = _frequency_sqrt(p, g)
        inputs = [(h,) for h, _ in spectra]
        inverse = np.fft.ifftn
    for t in t_grid:
        sin_wt, cos_wt = _sin_cos(w * t)
        multiplier = cos_wt if part == "U" else np.divide(sin_wt, w, out=sin_wt)
        for x in inputs:
            if len(x) == 1:
                yield inverse(multiplier * x[0])
            else:  # U(Re f) + i U(Im f), filled one part at a time
                out = np.empty(g.shape, dtype=complex)
                out.real = inverse(multiplier * x[0])
                out.imag = inverse(multiplier * x[1])
                yield out


def _half_spectra(h, real, half):
    """Half-lattice transforms (last axis indices 0..N/2) of Re f and, unless
    f is real, of Im f, from h = F f: F(Re f)(k) = (h(k) + conj h(-k)) / 2 and
    F(Im f)(k) = (h(k) - conj h(-k)) / 2i."""
    if real:
        return (h[..., :half],)
    mirror = np.conj(np.roll(np.flip(h), 1, axis=tuple(range(h.ndim))))[..., :half]
    h = h[..., :half]
    return ((h + mirror) / 2, (h - mirror) / 2j)


def energy(state: WaveState, p: SymbolPoly, g: GridSpec) -> float:
    """Conserved quantity ||u_t||_2^2 + ||sqrt(P) u||_2^2, evaluated spectrally.

    Norms use the Riemann cell volume, so a single lattice mode
    exp(i<k,x>) has ||.||_2^2 = (2L)^n.
    """
    (u_hat, _), (ut_hat, _) = data_transforms(g, (state.u, state.ut))
    w = _frequency_sqrt(p, g)
    scale = g.cell_volume / g.npoints
    kinetic = np.sum(np.abs(ut_hat) ** 2)
    potential = np.sum((w * np.abs(u_hat)) ** 2)
    return float(scale * (kinetic + potential))


def spectral_tail_fraction(field_hat, g: GridSpec) -> float:
    """Fraction of the spectral energy of a field, given by its transform
    field_hat, beyond TAIL_CUTOFF * xi_max (per-axis max norm).

    The box/resolution choice is validated by measuring this, not assumed.
    """
    power = np.abs(field_hat) ** 2
    return _outer_fraction(power, g.xi_grids(), TAIL_CUTOFF * g.xi_max)


def abs_squared(field) -> np.ndarray:
    """|field|^2, a new float array: u * u or re^2 + im^2, never hypot."""
    field = np.asarray(field)
    if not np.iscomplexobj(field):
        return np.square(field, dtype=float)
    s = np.square(field.real)
    s += np.square(field.imag)
    return s


def box_clearance(power, g: GridSpec) -> float:
    """Interior-mass fraction of power = |u|^2 (abs_squared(u)): 1 means the
    solution u has not reached the box edge.

    The edge region is the outer EDGE_BAND fraction per axis
    (|x_i| > (1 - EDGE_BAND) L).
    """
    return 1.0 - _outer_fraction(power, g.x_grids(), (1.0 - EDGE_BAND) * g.L)


def _outer_fraction(power, grids, limit) -> float:
    """Share of sum(power) at points with some |coordinate| above limit (0 if empty)."""
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    mask = np.zeros(power.shape, dtype=bool)
    for axis_vals in grids:
        mask |= np.abs(axis_vals) > limit
    return float(np.sum(power[mask]) / total)
