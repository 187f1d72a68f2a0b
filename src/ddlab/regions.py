"""The paper's L^p-L^q claims and the exact rational geometry of their
admissible (1/p, 1/q) index regions.

CLAIMS states each estimate once: its region kind and its exact time
exponent.  No floating point enters the region builders or the membership
tests: the builders use Fraction arithmetic, and `locate` tests a point
against each region's half-planes in integers over the common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache


class RegionError(ValueError):
    """Invalid region parameters or inadmissible index point; `field` names the
    input at fault, when there is one: a build_region parameter ("m", "n",
    "a" or "kind") or an ExponentQuery exponent ("p" or "q")."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _fr(value) -> Fraction:
    if isinstance(value, (Fraction, int, str)):  # a Fraction passes through
        return value if isinstance(value, Fraction) else Fraction(value)
    raise RegionError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class IndexPoint:
    """Point (1/p, 1/q) in the unit square, exact.  Its `homogeneous` triple,
    not a field, is (x, y, w) = (xn yd, yn xd, xd yd) for (xn/xd, yn/yd) in
    lowest terms: a half-plane row (A, B, C) holds iff A x + B y + C w >= 0,
    as w > 0, and two points are equal iff their triples are."""

    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        x, y = _fr(self.inv_p), _fr(self.inv_q)
        object.__setattr__(self, "inv_p", x)
        object.__setattr__(self, "inv_q", y)
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        if not (0 <= xn <= xd and 0 <= yn <= yd):
            raise RegionError(f"index point {self} outside the unit square")
        object.__setattr__(self, "homogeneous", (xn * yd, yn * xd, xd * yd))

    def as_tuple(self):
        return (self.inv_p, self.inv_q)


@dataclass(frozen=True)
class IndexRegion:
    """Convex polygon of admissible index pairs with vertex labels."""

    kind: str
    m: int
    n: int
    a: Fraction | None
    vertices: tuple
    labels: tuple
    degenerate: bool = False
    notes: tuple = ()

    def distinct_vertices(self):
        return list(dict.fromkeys(self.vertices))

    @cached_property
    def halfplanes(self) -> tuple:
        """Integer rows (A, B, C), each a line A x + B y + C = 0 scaled to
        integers, whose closed half-planes A x + B y + C >= 0 intersect to
        the region.

        A polygon gives its counter-clockwise edges, a segment (two distinct
        or only collinear vertices) its line in both directions plus an end
        cap at each extreme vertex, and a single point four axis half-planes.
        A point satisfies every row iff it lies in the closed region, and
        then some row vanishes iff it lies on the region's boundary.  That
        needs convexity, so a vertex list that is not convex raises
        RegionError.
        """
        verts = self.distinct_vertices()
        if len(verts) == 1:
            (v,) = verts
            return tuple(_integer_row(*row) for row in (
                (1, 0, -v.inv_p), (-1, 0, v.inv_p), (0, 1, -v.inv_q), (0, -1, v.inv_q)))
        homog = [v.homogeneous for v in verts]
        A, B, C = _edge_row(verts[0], verts[1])
        if all(A * x + B * y + C * w == 0 for x, y, w in homog[2:]):
            lo = min(verts, key=IndexPoint.as_tuple)
            hi = max(verts, key=IndexPoint.as_tuple)
            line = _edge_row(lo, hi)
            return (line, _flip(line), _cap_row(lo, hi), _cap_row(hi, lo))
        rows = [_edge_row(a, b) for a, b in zip(verts, verts[1:] + verts[:1])]
        values = [A * x + B * y + C * w for A, B, C in rows for x, y, w in homog]
        if all(s <= 0 for s in values):  # every vertex right of every edge: clockwise
            return tuple(_flip(row) for row in rows)
        if any(s < 0 for s in values):
            raise RegionError(f"region {self.kind}: vertex list is not convex")
        return tuple(rows)

    @cached_property
    def endpoints(self) -> tuple | None:
        """(B, D) = ((1, 1/q_a), (1/q_a', 0)) of the quadrangle and the
        hexagon, read from the vertices, where the norm pair weakens; None
        for the other kinds and for q_a = 1 or infinity."""
        if self.kind not in ("delta_a", "hexagon"):
            return None
        corners = dict(zip(self.labels, self.vertices))
        B, D = corners["B"], corners["D"]
        return None if B.inv_q in (0, 1) else (B, D)


def _order_and_dimension(m, n):
    m, n = int(m), int(n)
    if m < 4 or m % 2 != 0:
        raise RegionError(f"order m must be even and >= 4, got {m}", "m")
    if n < 2:
        raise RegionError(f"dimension n must be >= 2, got {n}", "n")
    return m, n


def mu_a(a, m, n):
    """mu_a = (mn - 4n + 2a)/(2(m-2)), exact; mu_0 and mu_m are the spatial powers
    of the I1 and I2 envelopes.  Each caller checks its own domain."""
    return Fraction(m * n - 4 * n + 2 * a, 2 * (m - 2))


def mu_q(a, m, n):
    """Exact pair (mu_a, q_a) with q_a = n/mu_a (see mu_a).

    q_a is None when mu_a = 0 (the q = infinity degeneracy).  The region is
    undefined, and RegionError names a, for mu_a < 0 and for q_a < 1
    (mu_a > n, that is a > mn/2), which puts B and D outside the unit square.
    """
    a = _fr(a)
    m, n = _order_and_dimension(m, n)
    mu = mu_a(a, m, n)
    if mu < 0:
        raise RegionError(f"mu_a = {mu} < 0: index region undefined for a = {a}", "a")
    if mu > n:
        raise RegionError(f"q_a = {n / mu} < 1: index region undefined for a = {a} > mn/2", "a")
    q = None if mu == 0 else Fraction(n) / mu
    return mu, q


_HALF = Fraction(1, 2)


def _quadrangle_corners(a, m, n):
    """B = (1, 1/q_a), C = (1, 0) and D = (1/q_a', 0) of Delta_a, where
    1/q_a' = 1 - 1/q_a; B and D collapse onto C when q_a is infinite."""
    _, q = mu_q(a, m, n)
    inv_q = Fraction(0) if q is None else 1 / q
    return IndexPoint(1, inv_q), IndexPoint(1, 0), IndexPoint(1 - inv_q, 0)


@lru_cache(maxsize=256, typed=True)
def build_region(kind, m, n, a=None) -> IndexRegion:
    """Construct one of the admissible index regions.

    kinds: "delta_a" (quadrangle ABCD for the given a; "delta_m" and
    "delta_0" are shorthands), "AEF" (triangle), "hexagon" (AEBCDF), and
    "pentagon" (the n < m < 2n variant; m >= 2n yields the full half
    square).  Delta_m, AEF and the hexagon need n >= m.  A region is
    degenerate when a vertex repeats, and AEF also when F lies on the
    1/q = 0 axis (n = m); collapses are flagged, not hidden.  Regions are
    frozen values, so repeated calls share one region and its cached
    half-plane table.  Only "delta_a" takes the parameter a.
    """
    m, n = _order_and_dimension(m, n)
    if a is not None and kind != "delta_a":
        raise RegionError(f"only delta_a takes the parameter a, not {kind!r}", "a")
    if kind in ("delta_m", "delta_0"):
        kind, a = "delta_a", (m if kind == "delta_m" else 0)
    elif kind == "hexagon":
        a = m
    elif kind == "delta_a" and a is None:
        raise RegionError("delta_a needs the parameter a", "a")
    elif kind not in ("delta_a", "AEF", "pentagon"):
        raise RegionError(f"unknown region kind {kind!r}", "kind")
    a = None if a is None else _fr(a)
    name = "delta_m" if kind == "delta_a" and a == m else kind  # also for a given a = m
    if name in ("delta_m", "AEF", "hexagon") and n < m:
        raise RegionError(f"{name} requires n >= m, got n={n} < m={m}", "kind")
    if kind == "pentagon" and m <= n:
        raise RegionError(f"pentagon is the n < m variant, got m={m} <= n={n}", "kind")

    A, notes = IndexPoint(_HALF, _HALF), ()
    if a is not None:
        B, C, D = _quadrangle_corners(a, m, n)
        if B == C:
            notes = ("q_a is infinite (mu_a = 0): B and D collapse onto C",)
    if kind in ("AEF", "hexagon"):
        E = IndexPoint(Fraction(n + m, 2 * n), _HALF)
        F = IndexPoint(_HALF, Fraction(n - m, 2 * n))
    if kind == "delta_a":
        vertices, labels = (A, B, C, D), ("A", "B", "C", "D")
    elif kind == "AEF":
        vertices, labels = (A, E, F), ("A", "E", "F")
        if F.inv_q == 0:
            notes = ("n = m: F touches the 1/q = 0 axis",)
    elif kind == "hexagon":
        vertices, labels = (A, E, B, C, D, F), ("A", "E", "B", "C", "D", "F")
    elif m >= 2 * n:  # pentagon
        vertices = (A, IndexPoint(1, _HALF), IndexPoint(1, 0), IndexPoint(_HALF, 0))
        labels = ("A", "A'", "C", "C'")
        notes = ("m >= 2n: admissible set is the full half square",)
    else:
        vertices = (A, IndexPoint(1, _HALF), IndexPoint(1, Fraction(n - m // 2, n)),
                    IndexPoint(Fraction(m // 2, n), 0), IndexPoint(_HALF, 0))
        labels = ("P1", "P2", "P3", "P4", "P5")
        notes = ("endpoint list implemented verbatim from the source statement",)
    degenerate = len(set(vertices)) < len(vertices) or (kind == "AEF" and F.inv_q == 0)
    return IndexRegion(kind, m, n, a, vertices, labels, degenerate, notes)


# The claims ||T(t)||_{p->q} <= C |t|^e, one row per (part, regime, route):
# (kind of the region of admissible (1/p, 1/q), e(1/p, 1/q, m, n)).  U is the
# cosine part and V the sine part; "small" is |t| <= 1.  The convolution route
# goes through the kernel envelopes (U through I1, V through I2), and its rows
# at (1, 0) give sup |K_t|; the multiplier route bounds sin(t sqrt(P))/sqrt(P)
# directly, on the pentagon when n < m.
CLAIMS = {
    ("U", "small", "convolution"):
        ("delta_0", lambda ip, iq, m, n: Fraction(n) / Fraction(m, 2) * (iq - ip)),
    ("U", "large", "convolution"):
        ("delta_0", lambda ip, iq, m, n: n * abs(iq - (1 - ip)) - 1 / Fraction(m, 2)),
    ("V", "small", "convolution"):
        ("delta_m", lambda ip, iq, m, n: Fraction(n) / Fraction(m, 2) * (iq - ip) + 1),
    ("V", "large", "convolution"):
        ("delta_m", lambda ip, iq, m, n: n * abs(iq - (1 - ip)) - Fraction(1, m)),
    ("V", "small", "multiplier"):
        ("AEF", lambda ip, iq, m, n: Fraction(n) / Fraction(m, 2) * (iq - ip) + 1),
    ("V", "large", "multiplier"):
        ("AEF", lambda ip, iq, m, n: Fraction(0)),
}


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _cross(o, a, b):
    return ((a.inv_p - o.inv_p) * (b.inv_q - o.inv_q)
            - (a.inv_q - o.inv_q) * (b.inv_p - o.inv_p))


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    return (min(a.inv_p, b.inv_p) <= p.inv_p <= max(a.inv_p, b.inv_p)
            and min(a.inv_q, b.inv_q) <= p.inv_q <= max(a.inv_q, b.inv_q))


def _integer_row(A, B, C):
    """(A, B, C) rational -> the same line scaled by its common denominator."""
    scale = math.lcm(*(Fraction(c).denominator for c in (A, B, C)))
    return tuple(int(c * scale) for c in (A, B, C))


def _flip(row):
    """The same line with the opposite half-plane."""
    return tuple(-c for c in row)


def _edge_row(a, b):
    """Row whose value at p is a positive multiple of the cross product
    (b - a) x (p - a): p lies on the left of a -> b, or on its line."""
    dx, dy = b.inv_p - a.inv_p, b.inv_q - a.inv_q
    return _integer_row(-dy, dx, a.inv_p * b.inv_q - a.inv_q * b.inv_p)


def _cap_row(a, b):
    """Row whose value at p is a positive multiple of (p - a) . (b - a)."""
    dx, dy = b.inv_p - a.inv_p, b.inv_q - a.inv_q
    return _integer_row(dx, dy, -(a.inv_p * dx + a.inv_q * dy))


def locate(region: IndexRegion, pt: IndexPoint) -> str:
    """Exact point location: "interior", "boundary", or "outside", by one
    pass over the region's integer half-plane table."""
    x, y, w = pt.homogeneous
    on_edge = False
    for A, B, C in region.halfplanes:
        s = A * x + B * y + C * w
        if s < 0:
            return "outside"
        if s == 0:
            on_edge = True
    return "boundary" if on_edge else "interior"


@dataclass(frozen=True)
class Classification:
    """Where a point lies, and which (input, output) norm pair applies there:
    the strong (L^p, L^q) unless a flag weakens one side."""

    location: str  # interior / boundary / outside
    weak_output: bool = False  # output in weak-L^q
    lorentz_data: bool = False  # input in the Lorentz space L^(p, 1)


def classify(region: IndexRegion, pt: IndexPoint) -> Classification:
    """Locate pt in the region and flag the norms that weaken there.

    At B = (1, 1/q_a) the output norm weakens to weak-L^{q_a}; at
    D = (1/q_a', 0) the input weakens to the Lorentz (q_a', 1) space;
    on the AEF edge with 1/q = 1/p - m/(2n) the output is weak-L^q.  Both
    tests compare the point's homogeneous triple (x, y, w) in integers.
    """
    loc = locate(region, pt)
    x, y, w = hom = pt.homogeneous
    if region.kind == "AEF":  # y/w = x/w - m/(2n)
        return Classification(loc, weak_output=loc != "outside"
                              and 2 * region.n * (x - y) == region.m * w)
    if region.endpoints is None:
        return Classification(loc)
    B, D = region.endpoints
    return Classification(loc, weak_output=hom == B.homogeneous,
                          lorentz_data=hom == D.homogeneous)


def contains_bruteforce(region: IndexRegion, pt: IndexPoint) -> bool:
    """Independent membership test: intersection of edge half-planes.

    Used to cross-check `locate`; closed regions, so boundary counts.
    """
    verts = region.distinct_vertices()
    if len(verts) < 3 or all(_cross(verts[0], verts[1], v) == 0 for v in verts[2:]):
        return any(_on_segment(pt, a, b) for a in verts for b in verts if a != b) \
            or (len(verts) == 1 and pt == verts[0])
    area = sum(_cross(verts[0], verts[i], verts[i + 1])
               for i in range(1, len(verts) - 1))
    oriented = verts if area > 0 else verts[::-1]
    for i in range(len(oriented)):
        a, b = oriented[i], oriented[(i + 1) % len(oriented)]
        if _cross(a, b, pt) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_SVG_STYLES = {
    "delta_a": ("#000000", "none"),
    "hexagon": ("#aa0000", "2,4"),
    "AEF": ("#aa0000", "7,4"),
    "pentagon": ("#006600", "2,4"),
}


SVG_SIZE = 480  # pixels per side
SVG_MARGIN = 48


def regions_svg(regions) -> str:
    """Index-square picture with the region overlays (solid quadrangle,
    dashed triangle, dotted extensions), as a deterministic SVG string."""
    size, margin = SVG_SIZE, SVG_MARGIN
    span = size - 2 * margin

    def px(fr):
        return margin + float(fr) * span

    def py(fr):
        return size - margin - float(fr) * span

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1.05)}" y2="{py(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(0) - span * 0.6}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{px(1.05) + 4:.1f}" y="{py(0) + 4:.1f}" font-size="13">1/p</text>',
        f'<text x="{px(0) - 8:.1f}" y="{py(0) - span * 0.6 - 6:.1f}" font-size="13">1/q</text>',
    ]
    for frac_val, label in ((0.5, "1/2"), (1.0, "1")):
        out.append(f'<line x1="{px(frac_val)}" y1="{py(0) - 4}" x2="{px(frac_val)}" '
                   f'y2="{py(0) + 4}" stroke="black"/>')
        out.append(f'<text x="{px(frac_val) - 8:.1f}" y="{py(0) + 18:.1f}" '
                   f'font-size="11">{label}</text>')
    out.append(f'<line x1="{px(0) - 4}" y1="{py(0.5)}" x2="{px(0) + 4}" y2="{py(0.5)}" '
               'stroke="black"/>')
    out.append(f'<text x="{px(0) - 28:.1f}" y="{py(0.5) + 4:.1f}" font-size="11">1/2</text>')

    for region in regions:
        color, dash = _SVG_STYLES.get(region.kind, ("#444444", "1,3"))
        pts = " ".join(f"{px(v.inv_p):.2f},{py(v.inv_q):.2f}" for v in region.vertices)
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        out.append(f'<polygon points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash_attr}/>')
        for v, lab in zip(region.vertices, region.labels):
            out.append(f'<circle cx="{px(v.inv_p):.2f}" cy="{py(v.inv_q):.2f}" r="3" '
                       f'fill="{color}"/>')
            out.append(f'<text x="{px(v.inv_p) + 5:.2f}" y="{py(v.inv_q) - 5:.2f}" '
                       f'font-size="12" fill="{color}">{lab}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
