"""Exact rational geometry of admissible (1/p, 1/q) index regions.

No floating point enters the region builders or the membership tests:
the builders use Fraction arithmetic, and `locate` tests a point against
each region's half-planes in integers over the common denominator.
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
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise RegionError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class IndexPoint:
    """Point (1/p, 1/q) in the unit square, exact."""

    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "inv_p", _fr(self.inv_p))
        object.__setattr__(self, "inv_q", _fr(self.inv_q))
        if not (0 <= self.inv_p <= 1 and 0 <= self.inv_q <= 1):
            raise RegionError(f"index point {self} outside the unit square")

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
        seen = []
        for v in self.vertices:
            if v not in seen:
                seen.append(v)
        return seen

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
        homog = [_homogeneous(v) for v in verts]
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
    def endpoint_tags(self) -> dict:
        """Norm tags at B = (1, 1/q_a) and D = (1/q_a', 0) of the quadrangle
        and the hexagon, keyed by point; empty for the other kinds."""
        if self.kind not in ("delta_a", "hexagon"):  # build_region sets a for both
            return {}
        _, q = mu_q(self.a, self.m, self.n)
        if q is None or q == 1:
            return {}
        inv_q_B = 1 / q
        q_conj = q / (q - 1)
        return {IndexPoint(Fraction(1), inv_q_B): f"(L^1, weak-L^{q})",
                IndexPoint(1 - inv_q_B, Fraction(0)): f"(lorentz-L^({q_conj},1), L^inf)"}


def _order_and_dimension(m, n):
    m, n = int(m), int(n)
    if m < 4 or m % 2 != 0:
        raise RegionError(f"order m must be even and >= 4, got {m}", "m")
    if n < 2:
        raise RegionError(f"dimension n must be >= 2, got {n}", "n")
    return m, n


def mu_q(a, m, n):
    """Exact pair (mu_a, q_a) with mu_a = (mn - 4n + 2a)/(2(m-2)), q_a = n/mu_a.

    q_a is None when mu_a = 0 (the q = infinity degeneracy); negative
    mu_a means the region is undefined.
    """
    a = _fr(a)
    m, n = _order_and_dimension(m, n)
    mu = Fraction(m * n - 4 * n, 2 * (m - 2)) + Fraction(2, 2 * (m - 2)) * a
    if mu < 0:
        raise RegionError(f"mu_a = {mu} < 0: index region undefined for a = {a}", "a")
    q = None if mu == 0 else Fraction(n) / mu
    return mu, q


_HALF = Fraction(1, 2)


def _quadrangle_points(a, m, n):
    mu, q = mu_q(a, m, n)
    inv_q_B = Fraction(0) if q is None else 1 / q
    A = IndexPoint(_HALF, _HALF)
    B = IndexPoint(Fraction(1), inv_q_B)
    C = IndexPoint(Fraction(1), Fraction(0))
    D = IndexPoint(1 - inv_q_B, Fraction(0))
    return A, B, C, D, mu, q


def _ef_points(m, n):
    E = IndexPoint(Fraction(n + m, 2 * n), _HALF)
    F = IndexPoint(_HALF, Fraction(n - m, 2 * n))
    return E, F


@lru_cache(maxsize=256, typed=True)
def build_region(kind, m, n, a=None) -> IndexRegion:
    """Construct one of the admissible index regions.

    kinds: "delta_a" (quadrangle ABCD for the given a; "delta_m" and
    "delta_0" are shorthands), "AEF" (triangle), "hexagon" (AEBCDF), and
    "pentagon" (the n < m < 2n variant; m >= 2n yields the full half
    square).  Degenerate collapses are flagged, not hidden.  Regions are
    frozen values, so repeated calls share one region and its cached
    half-plane table.
    """
    m, n = _order_and_dimension(m, n)
    notes = []
    if kind == "delta_m":
        kind, a = "delta_a", Fraction(m)
    elif kind == "delta_0":
        kind, a = "delta_a", Fraction(0)

    if kind == "delta_a":
        if a is None:
            raise RegionError("delta_a needs the parameter a", "a")
        a = _fr(a)
        A, B, C, D, mu, q = _quadrangle_points(a, m, n)
        degenerate = B == C or D == C or B == D
        if q is None:
            notes.append("q_a is infinite (mu_a = 0): B and D collapse onto C")
        if a == m and n < m:
            raise RegionError(f"delta_m requires n >= m, got n={n} < m={m}", "kind")
        return IndexRegion(kind="delta_a", m=m, n=n, a=a,
                           vertices=(A, B, C, D), labels=("A", "B", "C", "D"),
                           degenerate=degenerate, notes=tuple(notes))

    if kind == "AEF":
        if n < m:
            raise RegionError(f"AEF requires n >= m, got n={n} < m={m}", "kind")
        E, F = _ef_points(m, n)
        A = IndexPoint(_HALF, _HALF)
        degenerate = F.inv_q == 0
        if degenerate:
            notes.append("n = m: F touches the 1/q = 0 axis")
        return IndexRegion(kind="AEF", m=m, n=n, a=None,
                           vertices=(A, E, F), labels=("A", "E", "F"),
                           degenerate=degenerate, notes=tuple(notes))

    if kind == "hexagon":
        if n < m:
            raise RegionError(f"hexagon requires n >= m, got n={n} < m={m}", "kind")
        A, B, C, D, mu, q = _quadrangle_points(Fraction(m), m, n)
        E, F = _ef_points(m, n)
        verts = (A, E, B, C, D, F)
        degenerate = len(set(verts)) != 6
        return IndexRegion(kind="hexagon", m=m, n=n, a=Fraction(m),
                           vertices=verts, labels=("A", "E", "B", "C", "D", "F"),
                           degenerate=degenerate, notes=tuple(notes))

    if kind == "pentagon":
        if m <= n:
            raise RegionError(f"pentagon is the n < m variant, got m={m} <= n={n}", "kind")
        if m >= 2 * n:
            verts = (IndexPoint(_HALF, _HALF), IndexPoint(1, _HALF),
                     IndexPoint(1, Fraction(0)), IndexPoint(_HALF, Fraction(0)))
            notes.append("m >= 2n: admissible set is the full half square")
            return IndexRegion(kind="pentagon", m=m, n=n, a=None, vertices=verts,
                               labels=("A", "A'", "C", "C'"), degenerate=False,
                               notes=tuple(notes))
        m1 = m // 2
        verts = (IndexPoint(_HALF, _HALF),
                 IndexPoint(1, _HALF),
                 IndexPoint(1, Fraction(n - m1, n)),
                 IndexPoint(Fraction(m1, n), Fraction(0)),
                 IndexPoint(_HALF, Fraction(0)))
        notes.append("endpoint list implemented verbatim from the source statement")
        return IndexRegion(kind="pentagon", m=m, n=n, a=None, vertices=verts,
                           labels=("P1", "P2", "P3", "P4", "P5"),
                           degenerate=len(set(verts)) != 5, notes=tuple(notes))

    raise RegionError(f"unknown region kind {kind!r}", "kind")


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


def _homogeneous(pt):
    """(xn yd, yn xd, xd yd) for pt = (xn/xd, yn/yd): row (A, B, C) holds at
    pt iff A x + B y + C w >= 0 for this (x, y, w), since xd yd > 0."""
    xn, xd = pt.inv_p.numerator, pt.inv_p.denominator
    yn, yd = pt.inv_q.numerator, pt.inv_q.denominator
    return xn * yd, yn * xd, xd * yd


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
    x, y, w = _homogeneous(pt)
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
    location: str  # interior / boundary / outside
    norm_tag: str  # which (input, output) norm pair applies at this point


def classify(region: IndexRegion, pt: IndexPoint) -> Classification:
    """Locate pt in the region and name the norm pair that applies there.

    At B = (1, 1/q_a) the output norm weakens to weak-L^{q_a}; at
    D = (1/q_a', 0) the input weakens to the Lorentz (q_a', 1) space;
    on the AEF edge with 1/q = 1/p - m/(2n) the output is weak-L^q.
    Everywhere else the strong pair applies.
    """
    loc = locate(region, pt)
    tag = region.endpoint_tags.get(pt, "(L^p, L^q)")
    if region.kind == "AEF":
        m_over_2n = Fraction(region.m, 2 * region.n)
        if pt.inv_q == pt.inv_p - m_over_2n and loc != "outside":
            q = None if pt.inv_q == 0 else Fraction(1) / pt.inv_q
            tag = f"(L^p, weak-L^{q if q is not None else 'inf'})"
    return Classification(location=loc, norm_tag=tag)


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

def region_to_dict(region: IndexRegion) -> dict:
    return {
        "kind": region.kind,
        "m": region.m,
        "n": region.n,
        "a": None if region.a is None else f"{region.a.numerator}/{region.a.denominator}",
        "degenerate": region.degenerate,
        "notes": list(region.notes),
        "labels": list(region.labels),
        "vertices": [
            [f"{v.inv_p.numerator}/{v.inv_p.denominator}",
             f"{v.inv_q.numerator}/{v.inv_q.denominator}"]
            for v in region.vertices
        ],
    }


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
