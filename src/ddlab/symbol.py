"""Sparse polynomial symbols P(xi) and the structural checks on them.

check_hypotheses tests the paper's standing assumptions on a symbol: H1
(positivity + ellipticity of the principal part) and H2 (non-degenerate
Hessian of the principal part).
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np


class InputError(ValueError):
    """A bad input to the library; `field` names the input at fault, when
    there is one, and a subclass may state a default."""

    field = None

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field or self.field


class SymbolError(InputError):
    """Invalid symbol input (zero polynomial, bad literal: "poly"), dimension
    ("n") or probe seed ("seed")."""

    field = "poly"


class RadialInverseError(RuntimeError):
    """A level that P never reaches along a ray."""


# ---------------------------------------------------------------------------
# SymbolPoly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolPoly:
    """Sparse real polynomial on R^n, stored as (exponent-tuple, coefficient) terms.

    Canonical form: coefficients are nonzero and finite, and terms are sorted by
    (total degree, exponents).  Instances are immutable and hashable, so
    derivative/Hessian computations can be cached.
    """

    n: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise SymbolError(f"dimension must be a positive integer, got {self.n!r}", "n")
        for alpha, c in self.terms:
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise SymbolError(f"bad exponent tuple {alpha!r} for dimension {self.n}")
            if c == 0.0 or not math.isfinite(c):
                raise SymbolError(f"coefficients must be nonzero and finite, got {c!r} "
                                  f"for {alpha!r}")

    @classmethod
    def from_terms(cls, n, mapping) -> "SymbolPoly":
        clean = {}
        for alpha, c in dict(mapping).items():
            alpha = tuple(int(a) for a in alpha)
            clean[alpha] = clean.get(alpha, 0.0) + float(c)
        terms = sorted(((a, c) for a, c in clean.items() if c != 0.0),
                       key=lambda t: (sum(t[0]), t[0]))
        return cls(n=n, terms=tuple(terms))

    @classmethod
    def constant(cls, n, c) -> "SymbolPoly":
        return cls.from_terms(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n, alpha, c=1.0) -> "SymbolPoly":
        return cls.from_terms(n, {tuple(alpha): c})

    @classmethod
    def radial_power(cls, n, k) -> "SymbolPoly":
        """|xi|^k for even k, expanded as a polynomial."""
        if k % 2 != 0 or k < 0:
            raise SymbolError(f"|xi|^k is polynomial only for even k >= 0, got {k}")
        r2 = cls.from_terms(n, {tuple(2 if j == i else 0 for j in range(n)): 1.0
                                for i in range(n)})
        return r2 ** (k // 2)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Total degree m (0 for the zero polynomial)."""
        return max((sum(a) for a, _ in self.terms), default=0)

    @property
    def even_axes(self) -> tuple:
        """The axes i on which P is even in xi_i: every term has an even exponent in xi_i."""
        return tuple(i for i in range(self.n) if all(a[i] % 2 == 0 for a, _ in self.terms))

    def coeff(self, alpha) -> float:
        return dict(self.terms).get(tuple(alpha), 0.0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.n)
        out = dict(self.terms)
        for a, c in other.terms:
            out[a] = out.get(a, 0.0) + c
        return SymbolPoly.from_terms(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return SymbolPoly.from_terms(self.n, {a: -c for a, c in self.terms})

    def __sub__(self, other):
        return self + (-_coerce(other, self.n))

    def __rsub__(self, other):
        return _coerce(other, self.n) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return SymbolPoly.from_terms(self.n, {a: c * other for a, c in self.terms})
        other = _coerce(other, self.n)
        out = {}
        for a1, c1 in self.terms:
            for a2, c2 in other.terms:
                key = tuple(x + y for x, y in zip(a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return SymbolPoly.from_terms(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise SymbolError("only nonnegative integer powers are defined")
        out = SymbolPoly.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, xi):
        """Evaluate at one point (length-n) or a batch with shape (..., n).

        The points are walked in fixed blocks (see _blocks), and the powers
        come from _powers, so values can differ from pow's in the last bits.
        """
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1] != self.n:
            raise SymbolError(f"point dimension {xi.shape[-1]} != symbol dimension {self.n}")
        flat = xi.reshape(-1, self.n)
        out = np.empty(flat.shape[0])
        for rows, (vals,) in _blocks(flat, (self,)):
            out[rows] = vals
        if xi.ndim == 1:
            return float(out[0])
        return out.reshape(xi.shape[:-1])

    def evaluate_on_axes(self, axes):
        """Evaluate on the tensor lattice spanned by the 1-d arrays in axes.

        axes[i] varies along output dimension i; the result has shape
        (len(axes[0]), ..., len(axes[n-1])).  The coefficients form a tensor
        over the exponents P's terms use on each axis, and each axis in turn
        contracts it with its nodes' powers of those exponents (np.vander,
        each x^a = x^(a-1) x, as in _powers).  An overflowing power meets
        zero coefficients there: P is NaN, not inf.
        """
        if len(axes) != self.n:
            raise SymbolError("need one axis per dimension")
        exps = [sorted({alpha[i] for alpha, _ in self.terms}) for i in range(self.n)]
        out = np.zeros([len(e) for e in exps])
        for alpha, c in self.terms:
            out[tuple(e.index(a) for e, a in zip(exps, alpha))] = c
        for ax, e in zip(axes, exps):
            ax = np.asarray(ax, dtype=float)
            powers = np.vander(ax, max(e, default=0) + 1, increasing=True)[:, e]
            # contract the leading axis of out; the axis of these nodes goes last
            lead = out.reshape(len(e), math.prod(out.shape[1:]))
            out = (lead.T @ powers.T).reshape(out.shape[1:] + ax.shape)
        return out

    def __str__(self):
        return to_literal(self)


def _coerce(value, n) -> SymbolPoly:
    if isinstance(value, SymbolPoly):
        if value.n != n:
            raise SymbolError("dimension mismatch")
        return value
    if isinstance(value, (int, float)):
        return SymbolPoly.constant(n, value)
    raise SymbolError(f"cannot interpret {value!r} as a symbol")


# ---------------------------------------------------------------------------
# Batch evaluation in blocks
# ---------------------------------------------------------------------------

# A block of a batch evaluation holds CHUNK_POINTS // n points, so its
# coordinate-major copy holds CHUNK_POINTS values and each other temporary
# (a power, a term, a Hessian entry) CHUNK_POINTS // n.  The kernel's
# lattice and radial blocks take half of it (see kernel).
CHUNK_POINTS = 2**15


def _blocks(points, polys):
    """Walk points, shape (M, n), in blocks of CHUNK_POINTS // n rows.

    Yields (rows, values): a slice of the rows and, for each polynomial of
    polys, its values there.  Each block takes a coordinate-major copy of
    its points and the powers of each coordinate up to the highest exponent
    some term uses; all terms of all polys share these powers.
    """
    top = [max((a[i] for q in polys for a, _ in q.terms), default=0)
           for i in range(points.shape[1])]
    block = max(1, CHUNK_POINTS // points.shape[1])
    for start in range(0, points.shape[0], block):
        cols = np.ascontiguousarray(points[start:start + block].T)
        powers = [_powers(x, d) for x, d in zip(cols, top)]
        yield (slice(start, start + cols.shape[1]),
               [_terms_sum(q, powers, cols.shape[1]) for q in polys])


def _powers(x, top) -> list:
    """[1.0, x, ..., x^top] for the 1-d array x, each x^a = x^(a-1) x, not pow.
    Separate arrays, not one (top + 1) x size table per block: filling such
    tables made check_hypotheses 10% slower."""
    powers = [1.0, x]
    for _ in range(top - 1):
        powers.append(powers[-1] * x)
    return powers[:top + 1]


def _terms_sum(p: SymbolPoly, powers, size) -> np.ndarray:
    """sum_alpha c_alpha prod_i x_i^alpha_i at size points, from the powers
    of the coordinates (see _powers), each term left to right."""
    out = np.zeros(size)
    for alpha, c in p.terms:
        out += math.prod((powers[i][a] for i, a in enumerate(alpha) if a), start=c)
    return out


# ---------------------------------------------------------------------------
# Literal format:  a sum of terms, each with any number of leading signs and
# a product of factors (numbers, xi^e, |x|^k with k even) joined by '*' or
# written side by side.  An operator must be followed by a factor, '*' sits
# between two factors, and a number never follows a number side by side
# ("1.5.3" and "1 2" are typos, not products).  The canonical printer always
# writes explicit coefficients and '*' separators, so
# parse(to_literal(p), p.n) == p.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<norm>\|x\|\^(?P<nk>\d+))
      | (?P<var>x(?P<vi>\d+)(?:\^(?P<ve>\d+))?)
      | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<op>[+\-*])
      | (?P<bad>\S)
    )""", re.VERBOSE)


def parse_symbol(text, n) -> SymbolPoly:
    """Parse the textual symbol format into a SymbolPoly of dimension n."""
    result = SymbolPoly.from_terms(n, {})
    term = None  # product of the current term's factors so far, sign included
    sign = 1.0
    due = True  # the literal so far ends in an operator, or is empty
    kind = None
    for tok in _TOKEN.finditer(text):
        prev, kind = kind, tok.lastgroup
        if kind == "bad":
            raise SymbolError(f"cannot tokenize symbol literal near {text[tok.start(kind):]!r}")
        if kind == "op":
            op = tok.group(kind)
            if due and (op == "*" or term is not None):  # a sign opens a term, '*' never
                raise SymbolError(f"misplaced '{op}' in symbol literal {text!r}: "
                                  "'*' must sit between two factors")
            if op != "*":
                if term is not None:
                    result, term, sign = result + term, None, 1.0
                sign *= 1.0 if op == "+" else -1.0
            due = True
            continue
        if kind == "num":
            if prev == "num":
                raise SymbolError(f"number {tok.group(kind)!r} directly follows "
                                  f"another number in symbol literal {text!r}")
            factor = SymbolPoly.constant(n, float(tok.group(kind)))
        elif kind == "norm":
            factor = SymbolPoly.radial_power(n, int(tok.group("nk")))
        else:
            i = int(tok.group("vi"))
            if not 1 <= i <= n:
                raise SymbolError(f"variable x{i} out of range for dimension {n}")
            e = int(tok.group("ve") or 1)
            factor = SymbolPoly.monomial(n, tuple(e if j == i - 1 else 0 for j in range(n)))
        term = (SymbolPoly.constant(n, sign) if term is None else term) * factor
        due = False
    if due:
        raise SymbolError(f"symbol literal {text!r} is empty or ends in an operator")
    return result + term


def to_literal(p: SymbolPoly) -> str:
    """Canonical text form; round-trips through parse_symbol."""
    if p.is_zero:
        return "0"
    parts = []
    for alpha, c in p.terms:
        factors = [repr(abs(c))]
        for i, a in enumerate(alpha):
            if a == 1:
                factors.append(f"x{i + 1}")
            elif a > 1:
                factors.append(f"x{i + 1}^{a}")
        body = " * ".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Exact differentiation
# ---------------------------------------------------------------------------

def derivative(p: SymbolPoly, alpha) -> SymbolPoly:
    """Exact partial derivative d^alpha p (integer combinatorics on exponents)."""
    return _derivative_cached(p, tuple(int(a) for a in alpha))


@lru_cache(maxsize=4096)
def _derivative_cached(p: SymbolPoly, alpha: tuple) -> SymbolPoly:
    if len(alpha) != p.n:
        raise SymbolError("multi-index length must equal the dimension")
    out = {}
    for beta, c in p.terms:
        if any(b < a for b, a in zip(beta, alpha)):
            continue
        factor = 1
        for b, a in zip(beta, alpha):
            for j in range(a):
                factor *= b - j
        key = tuple(b - a for b, a in zip(beta, alpha))
        out[key] = out.get(key, 0.0) + c * factor
    return SymbolPoly.from_terms(p.n, out)


def principal_part(p: SymbolPoly) -> SymbolPoly:
    """Terms of total degree exactly p.order."""
    if p.is_zero:
        raise SymbolError("the zero polynomial has no principal part")
    m = p.order
    return SymbolPoly.from_terms(p.n, {a: c for a, c in p.terms if sum(a) == m})


@lru_cache(maxsize=512)
def hessian_polys(p: SymbolPoly) -> tuple:
    units = np.eye(p.n, dtype=int)
    return tuple(tuple(derivative(p, tuple(units[i] + units[j])) for j in range(p.n))
                 for i in range(p.n))


def _upper_pairs(n) -> list:
    """Index pairs (i, j), i <= j, of the distinct entries of a symmetric n x n matrix."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _symmetric_det(n, a) -> np.ndarray:
    """det of the symmetric matrices whose entries a[i, j] (i <= j) are arrays.

    n <= 4: Laplace expansion along each row from the bottom up, forming the
    minor of the lowest rows once per set of columns (n 2^(n-1) products in
    all).  n >= 5 assembles the matrices and calls np.linalg.det.
    """
    def e(i, j):
        return a[min(i, j), max(i, j)]

    if n >= 5:
        H = np.empty(a[0, 0].shape + (n, n))
        for (i, j), v in a.items():
            H[..., i, j] = H[..., j, i] = v
        return np.linalg.det(H)
    minors = {(j,): e(n - 1, j) for j in range(n)}
    for row in range(n - 2, -1, -1):
        lower = minors
        minors = {}
        for cols in itertools.combinations(range(n), n - row):
            det = e(row, cols[0]) * lower[cols[1:]]
            for k in range(1, len(cols)):
                term = e(row, cols[k]) * lower[cols[:k] + cols[k + 1:]]
                if k % 2:
                    det -= term
                else:
                    det += term
            minors[cols] = det
    return minors[tuple(range(n))]


def hessian_det_values(p: SymbolPoly, points) -> np.ndarray:
    """det Hess p at a batch of points, shape (M, n) -> (M,).

    Evaluates the n(n+1)/2 distinct second derivatives block by block.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    hp = hessian_polys(p)
    pairs = _upper_pairs(p.n)
    out = np.empty(points.shape[0])
    for rows, vals in _blocks(points, [hp[i][j] for i, j in pairs]):
        out[rows] = _symmetric_det(p.n, dict(zip(pairs, vals)))
    return out


# ---------------------------------------------------------------------------
# Sphere sampling
# ---------------------------------------------------------------------------

def sphere_directions(n, count=None, seed=0) -> np.ndarray:
    """Deterministic unit-vector probe of S^{n-1}, shape (count, n).

    n=1: the two points +-1; n=2: uniform angles (includes the axes and
    diagonals for count % 8 == 0); n=3: Fibonacci lattice.  n>3: the
    additive-recurrence (Kronecker) points k alpha + s mod 1, k = 1..count,
    in d = 2 ceil(n/2) dimensions, with alpha_i = g^-i (g > 1 the root of
    g^(d+1) = g + 1), mapped pair by pair to Gaussians by Box-Muller and
    normalised, so they are uniform on S^{n-1}.  The shift s, d draws of the
    standard library's random.Random(seed) (a Cranley-Patterson rotation),
    lets the seed select the set; n <= 3 does not depend on it.  The seed must
    be a non-negative integer at every n.
    """
    if n < 1:
        raise SymbolError("dimension must be >= 1", "n")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise SymbolError(f"seed must be a non-negative integer, got {seed!r}", "seed")
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if count is None:
        count = 4096 if n == 2 else (8192 if n == 3 else 2**16)
    if n == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    d = 2 * ((n + 1) // 2)
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (d + 1))
    u = np.arange(1.0, count + 1)[:, None] * g ** -np.arange(1.0, d + 1)
    shift = random.Random(int(seed))
    u += [shift.random() for _ in range(d)]
    u -= np.floor(u)  # the fractional part, in place: faster than % 1.0
    # Box-Muller in place: one pair-sized buffer for the radius and one for
    # the cosine, both freed before the norm allocates its temporaries
    radius = np.negative(u[:, 0::2])
    np.log1p(radius, out=radius)  # 1 - u lies in (0, 1]
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[:, 1::2]
    angle *= 2.0 * np.pi
    gauss = np.cos(angle)
    gauss *= radius
    np.sin(angle, out=angle)
    angle *= radius
    u[:, 0::2] = gauss  # u now holds the Gaussians
    del radius, gauss
    if d == n:
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u
    return u[:, :n] / np.linalg.norm(u[:, :n], axis=1, keepdims=True)


# Probe set of the hypothesis checks.  Both use the default sphere_directions
# count; H1 probes positivity at BALL_RADIAL_COUNT equispaced radii from 0 (the
# origin included) to BALL_RADIUS along BALL_DIR_COUNT of those directions.
BALL_RADIUS = 4.0
BALL_RADIAL_COUNT = 17
BALL_DIR_COUNT = 256
POSITIVITY_RTOL = 1e-12  # P_m counts as positive above this share of max |P_m|
NONDEGENERACY_RTOL = 1e-8  # relative floor for |det Hess P_m| on the sphere
MAX_WITNESSES = 4


# ---------------------------------------------------------------------------
# Hypothesis reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """A probe point together with the quantity that violated a check there.

    point is None for structural violations (wrong order/dimension) that
    have no associated location.
    """

    kind: str
    point: tuple | None
    value: float
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    name: str
    passed: bool
    witnesses: tuple
    sampled_min: float | None
    sampled_max: float | None
    description: str
    flags: tuple = ()

    def __post_init__(self):
        if not self.passed and not self.witnesses:
            raise SymbolError("a failing report must carry at least one witness")


def _probe_witnesses(kind, points, values, bad, key, detail) -> list:
    """Witnesses at the first probe point that bad marks and at the one of
    least key (one witness if they coincide); none when bad marks none."""
    if not np.any(bad):
        return []
    return [Witness(kind, tuple(float(v) for v in points[i]), float(values[i]), detail)
            for i in dict.fromkeys([int(np.argmax(bad)), int(np.argmin(key))])]


def check_hypotheses(p: SymbolPoly, seed=0) -> tuple:
    """The reports (H1, H2) of the paper's hypotheses on p, on one sphere probe.

    H1: even order m >= 4, n >= 2, P_m > 0 on the sphere (ellipticity) and
    P > 0 on a compact ball including the origin.  H2: det Hess P_m, which is
    homogeneous of degree n(m-2), has min |det| >= NONDEGENERACY_RTOL * max |det|
    on the sphere, a verdict invariant under positive rescaling of p.  (An
    equivalent form asks w -> <z, w> P_m(w)^{-1/m} for non-degenerate spherical
    Hessians at its critical points; only the determinant form is implemented.)
    seed drives the n > 3 probe; failures carry reproducible witnesses.
    """
    if p.is_zero:
        raise SymbolError("zero polynomial is not a valid symbol")
    dirs = sphere_directions(p.n, seed=seed)
    return _h1_report(p, dirs), _h2_report(p, dirs)


def _h1_report(p: SymbolPoly, dirs) -> HypothesisReport:
    m = p.order
    witnesses = []
    if m % 2 != 0:
        witnesses.append(Witness("structure", None, float(m), f"order m={m} is odd"))
    if m < 4:
        witnesses.append(Witness("structure", None, float(m), f"order m={m} < 4"))
    if p.n < 2:
        witnesses.append(Witness("structure", None, float(p.n), f"dimension n={p.n} < 2"))

    pm = principal_part(p)
    pm_vals = np.atleast_1d(pm.evaluate(dirs))
    pm_max = float(np.max(np.abs(pm_vals)))
    tol = POSITIVITY_RTOL * pm_max
    witnesses += _probe_witnesses("ellipticity", dirs, pm_vals, pm_vals <= tol, pm_vals,
                                  "principal part is not positive on this direction")

    radii = np.linspace(0.0, BALL_RADIUS, BALL_RADIAL_COUNT)
    ball_dirs = dirs[:: max(1, len(dirs) // BALL_DIR_COUNT)]
    pts = (radii[:, None, None] * ball_dirs[None, :, :]).reshape(-1, p.n)
    p_vals = np.atleast_1d(p.evaluate(pts))
    p_min = float(np.min(p_vals))
    if p_min <= 0.0:
        idx = int(np.argmin(p_vals))
        witnesses.append(Witness(
            "positivity", tuple(float(v) for v in pts[idx]), float(p_vals[idx]),
            "P is not strictly positive at this point"))

    passed = not witnesses
    desc = (f"{len(dirs)} sphere directions; ball radius {BALL_RADIUS} with "
            f"{BALL_RADIAL_COUNT} radii x {len(ball_dirs)} directions; "
            f"min P_m on sphere = {float(np.min(pm_vals))!r}, min P on ball = {p_min!r}")
    return HypothesisReport(
        name="H1", passed=passed, witnesses=tuple(witnesses[:MAX_WITNESSES]),
        sampled_min=float(np.min(pm_vals)), sampled_max=pm_max, description=desc,
    )


def _h2_report(p: SymbolPoly, dirs) -> HypothesisReport:
    m = p.order
    flags = []
    if m < 4:
        flags.append(f"m={m} < 4: outside the intended symbol class, checked anyway")
    pm = principal_part(p)
    # H2 is decided on P_m 2^-k, whose largest coefficient lies in [1/2, 1), so
    # that det Hess neither overflows nor underflows; the scaling is exact and
    # multiplies every determinant by 2^-kn.
    k = math.frexp(max(abs(c) for _, c in pm.terms))[1]
    dets = hessian_det_values(
        SymbolPoly.from_terms(p.n, {a: math.ldexp(c, -k) for a, c in pm.terms}), dirs)
    abs_dets = np.abs(dets)
    dmin, dmax = float(np.min(abs_dets)), float(np.max(abs_dets))
    # a zero or non-finite determinant fails too, also where the floor is 0 or NaN
    ok = (abs_dets >= NONDEGENERACY_RTOL * dmax) & (abs_dets > 0) & (abs_dets < math.inf)
    witnesses = _probe_witnesses(
        "nondegeneracy", dirs, dets, ~ok, abs_dets,
        "det Hess of the principal part vanishes (relative to sphere max)")
    # the numbers in P's own units when they stay normal floats, so exact
    shift = k * p.n
    if all(math.isfinite(v) and (v == 0 or -1021 <= math.frexp(v)[1] + shift <= 1024)
           for v in [dmin, dmax] + [w.value for w in witnesses]):
        dmin, dmax = math.ldexp(dmin, shift), math.ldexp(dmax, shift)
        witnesses = [replace(w, value=math.ldexp(w.value, shift)) for w in witnesses]
    else:
        flags.append(f"determinants are those of P_m * 2^{-k}, as P's own leave the float range")
    passed = not witnesses
    desc = (f"{len(dirs)} sphere directions; min |det Hess P_m| = {dmin!r}, "
            f"max = {dmax!r}, relative floor = {NONDEGENERACY_RTOL!r}")
    return HypothesisReport(
        name="H2", passed=passed, witnesses=tuple(witnesses[:MAX_WITNESSES]),
        sampled_min=dmin, sampled_max=dmax, description=desc, flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# P along rays: its coefficients and the level search
# ---------------------------------------------------------------------------

def ray_coefficients(p: SymbolPoly, omega) -> np.ndarray:
    """Coefficients c[k] of the univariate polynomial P(rho * omega)."""
    omega = np.asarray(omega, dtype=float)
    c = np.zeros(p.order + 1)
    for alpha, coef in p.terms:
        k = sum(alpha)
        val = coef
        for i, a in enumerate(alpha):
            if a:
                val *= omega[i] ** a
        c[k] += val
    return c


def ray_level(c, reached) -> float:
    """Smallest r >= 0, to rounding, from which reached(P(r w)) holds, for the
    ray coefficients c of P(r w): doubling from r = 1, then 60 bisections; P(r w)
    is a Horner loop over Python floats, in polyval's order and so bit-equal to it."""
    high_first = np.asarray(c, dtype=float).tolist()[::-1]
    def at(r):
        v = 0.0
        for ck in high_first:
            v = ck + v * r
        return reached(v)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if at(hi):
            break
        hi *= 2.0
    else:
        raise RadialInverseError("the ray never reaches the level")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if at(mid):
            hi = mid
        else:
            lo = mid
    return hi
