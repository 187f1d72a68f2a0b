"""Exact-in-Fourier propagation of u_tt + P(D)u = 0 on a periodic box.

The propagator applies cos(sqrt(P) t) and sin(sqrt(P) t)/sqrt(P)
multipliers on the FFT lattice, so there is no time-stepping error and
the cost of reaching any t is a fixed number of transforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbol import SymbolPoly

DEFAULT_MAX_POINTS = 2**26


class GridError(ValueError):
    """Invalid grid parameters or memory-cap violation."""


class LatticePositivityError(ValueError):
    """P(xi) <= 0 at a lattice point where the multiplier needs P > 0."""

    def __init__(self, point, value):
        super().__init__(f"P(xi) = {value!r} <= 0 at lattice point xi = {tuple(point)}")
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


def make_grid(n, N, L, max_points=DEFAULT_MAX_POINTS) -> GridSpec:
    """Validated grid constructor: N a power of two, L > 0, N^n under the cap."""
    if n < 1:
        raise GridError(f"dimension must be >= 1, got {n}")
    if N < 2 or (N & (N - 1)) != 0:
        raise GridError(f"N must be a power of two >= 2, got {N}")
    if not L > 0:
        raise GridError(f"box half-length must be positive, got {L}")
    if N**n > max_points:
        raise GridError(f"N^n = {N**n} exceeds the memory cap of {max_points} points")
    return GridSpec(n=n, N=N, L=float(L))


@dataclass
class WaveState:
    """Field pair (u, u_t) at time t on a GridSpec lattice."""

    t: float
    u: np.ndarray
    ut: np.ndarray

    def validate(self, g: GridSpec):
        if self.u.shape != g.shape or self.ut.shape != g.shape:
            raise GridError("state fields do not match the grid shape")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.ut))):
            raise GridError("state fields contain non-finite entries")


def sqrt_symbol(p: SymbolPoly, axes, strict=True) -> np.ndarray:
    """sqrt(P) on the tensor lattice spanned by the 1-d arrays in axes.

    strict=True needs P > 0, as the propagator and the P^{-1/2} weight of I2
    do; strict=False needs only P >= 0.  A violation raises
    LatticePositivityError at the lattice point where P is smallest.
    """
    P = p.evaluate_on_axes(axes)
    pmin = float(np.min(P))
    if (pmin <= 0.0) if strict else (pmin < 0.0):
        idx = np.unravel_index(int(np.argmin(P)), P.shape)
        raise LatticePositivityError([float(ax[i]) for ax, i in zip(axes, idx)], pmin)
    return np.sqrt(P)


def _data_fields(g: GridSpec, *fields):
    """The data fields as complex arrays, checked against the grid."""
    fields = [np.asarray(f, dtype=complex) for f in fields]
    if any(f.shape != g.shape for f in fields):
        raise GridError("data fields do not match the grid shape")
    if not all(np.all(np.isfinite(f)) for f in fields):
        raise GridError("data fields contain non-finite entries")
    return fields


def sine_multiplier(w: np.ndarray, t: float) -> np.ndarray:
    """Q(t, xi) = sin(w t)/w with a series branch near w t = 0.

    The series keeps the multiplier finite for probe symbols where w can
    be arbitrarily small, even though checked symbols have w >= sqrt(min P) > 0.
    """
    wt = w * t
    small = np.abs(wt) < 1e-4
    safe = np.where(small, 1.0, w)
    direct = np.sin(wt) / safe
    series = t * (1.0 - wt**2 / 6.0 + wt**4 / 120.0)
    return np.where(small, series, direct)


def propagate(u0, u1, t, p: SymbolPoly, g: GridSpec) -> WaveState:
    """One-shot solution at time t from data (u0, u1).

    u  = F^-1[cos(w t) F u0] + F^-1[sin(w t)/w F u1]
    ut = F^-1[-w sin(w t) F u0] + F^-1[cos(w t) F u1]
    with w = sqrt(P) on the frequency lattice.
    """
    u0_hat, u1_hat = (np.fft.fftn(f) for f in _data_fields(g, u0, u1))
    w = sqrt_symbol(p, [g.xi_axis] * g.n)
    coswt = np.cos(w * t)
    Q = sine_multiplier(w, t)
    u = np.fft.ifftn(coswt * u0_hat) + np.fft.ifftn(Q * u1_hat)
    ut = np.fft.ifftn(-w * np.sin(w * t) * u0_hat) + np.fft.ifftn(coswt * u1_hat)
    return WaveState(t=float(t), u=u, ut=ut)


def propagate_part(fields, t_grid, p: SymbolPoly, g: GridSpec, part):
    """Yield part "U" (F^-1[cos(w t) F f]) or "V" (F^-1[sin(w t)/w F f]) of each
    field f at each t in t_grid, t-major: propagate(u0, u1, t).u = U(t)u0 + V(t)u1.

    w is evaluated and each field transformed once, keeping only the transforms
    (fields may be a generator); each (t, field) then costs one inverse FFT.
    """
    if part not in ("U", "V"):
        raise ValueError(f"part must be U or V, got {part!r}")
    w = sqrt_symbol(p, [g.xi_axis] * g.n)
    hats = [np.fft.fftn(_data_fields(g, f)[0]) for f in fields]
    for t in t_grid:
        multiplier = np.cos(w * t) if part == "U" else sine_multiplier(w, t)
        for h in hats:
            yield np.fft.ifftn(multiplier * h)


def energy(state: WaveState, p: SymbolPoly, g: GridSpec) -> float:
    """Conserved quantity ||u_t||_2^2 + ||sqrt(P) u||_2^2, evaluated spectrally.

    Norms use the Riemann cell volume, so a single lattice mode
    exp(i<k,x>) has ||.||_2^2 = (2L)^n.
    """
    state.validate(g)
    w = sqrt_symbol(p, [g.xi_axis] * g.n)
    ut_hat = np.fft.fftn(state.ut)
    u_hat = np.fft.fftn(state.u)
    scale = g.cell_volume / g.npoints
    kinetic = np.sum(np.abs(ut_hat) ** 2)
    potential = np.sum((w * np.abs(u_hat)) ** 2)
    return float(scale * (kinetic + potential))


def spectral_tail_fraction(field, g: GridSpec, cutoff=0.5) -> float:
    """Fraction of spectral energy beyond cutoff * xi_max (per-axis max norm).

    The box/resolution choice is validated by measuring this, not assumed.
    """
    field = np.asarray(field, dtype=complex)
    hat = np.fft.fftn(field)
    power = np.abs(hat) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    mask = np.zeros(g.shape, dtype=bool)
    limit = cutoff * g.xi_max
    for axis_vals in g.xi_grids():
        mask |= np.abs(axis_vals) > limit
    return float(np.sum(power[mask]) / total)


def box_clearance(field, g: GridSpec, band=0.25) -> float:
    """Interior-mass fraction: 1 means the solution has not reached the box edge.

    The edge region is the outer `band` fraction per axis (|x_i| > (1-band) L).
    """
    field = np.asarray(field)
    power = np.abs(field) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 1.0
    edge = np.zeros(g.shape, dtype=bool)
    limit = (1.0 - band) * g.L
    for axis_vals in g.x_grids():
        edge |= np.abs(axis_vals) > limit
    return 1.0 - float(np.sum(power[edge]) / total)


# ---------------------------------------------------------------------------
# Field I/O: one ASCII header line, then (u, ut) pairs as little-endian
# complex64, point-major in C order.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^ddlab-field n=(\d+) N=(\d+) L=([^ ]+) t=([^ \n]+)\n$")


def save_state(path, state: WaveState, g: GridSpec):
    state.validate(g)
    header = f"ddlab-field n={g.n} N={g.N} L={g.L!r} t={state.t!r}\n"
    pairs = np.empty((g.npoints, 2), dtype="<c8")
    pairs[:, 0] = state.u.ravel()
    pairs[:, 1] = state.ut.ravel()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pairs.tobytes())


def load_state(path):
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
        m = _HEADER_RE.match(header)
        if not m:
            raise GridError(f"unrecognized field header: {header!r}")
        n, N = int(m.group(1)), int(m.group(2))
        L, t = float(m.group(3)), float(m.group(4))
        g = make_grid(n, N, L)
        raw = np.frombuffer(fh.read(), dtype="<c8").reshape(g.npoints, 2)
    u = raw[:, 0].astype(complex).reshape(g.shape)
    ut = raw[:, 1].astype(complex).reshape(g.shape)
    return WaveState(t=t, u=u, ut=ut), g


def write_norm_series(path, rows):
    """CSV with columns t, l2, lq, linf (one row per time)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,l2,lq,linf\n")
        for t, l2, lq, linf in rows:
            fh.write(f"{t!r},{l2!r},{lq!r},{linf!r}\n")
