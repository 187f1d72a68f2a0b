import dataclasses
import json
from fractions import Fraction as F

import numpy as np
import pytest

from ddlab import cli
from ddlab import regions as R


def test_mu_q_values():
    assert R.mu_q(4, 4, 6) == (F(2), F(3))
    mu0, q0 = R.mu_q(0, 4, 6)
    assert mu0 == 0 and q0 is None
    # n = m forces q_m = 2
    assert R.mu_q(4, 4, 4)[1] == F(2)


def test_mu_q_negative_rejected():
    with pytest.raises(R.RegionError):
        R.mu_q(-100, 4, 6)


def test_quadrangle_vertices_reference_case():
    reg = R.build_region("delta_m", 4, 6)
    expected = [(F(1, 2), F(1, 2)), (F(1), F(1, 3)), (F(1), F(0)), (F(2, 3), F(0))]
    assert [v.as_tuple() for v in reg.vertices] == expected
    assert reg.labels == ("A", "B", "C", "D")
    assert not reg.degenerate


def test_triangle_vertices_reference_case():
    reg = R.build_region("AEF", 4, 6)
    assert reg.vertices[1].as_tuple() == (F(5, 6), F(1, 2))
    assert reg.vertices[2].as_tuple() == (F(1, 2), F(1, 6))


def test_hexagon_six_distinct_vertices():
    reg = R.build_region("hexagon", 4, 6)
    assert reg.labels == ("A", "E", "B", "C", "D", "F")
    assert len(set(reg.vertices)) == 6
    assert not reg.degenerate


def test_degenerate_quadrangle_flagged():
    reg = R.build_region("delta_0", 4, 6)  # q_0 infinite: B, D collapse onto C
    assert reg.degenerate
    assert any("infinite" in note for note in reg.notes)


def test_region_preconditions():
    with pytest.raises(R.RegionError):
        R.build_region("delta_m", 4, 2)
    with pytest.raises(R.RegionError):
        R.build_region("AEF", 4, 2)
    with pytest.raises(R.RegionError):
        R.build_region("pentagon", 4, 6)
    with pytest.raises(R.RegionError):
        R.build_region("nonagon", 4, 6)


@pytest.mark.parametrize("kind, m, n, a, message, field", [
    ("delta_m", 6, 4, None, "delta_m requires n >= m, got n=4 < m=6", "kind"),
    ("delta_a", 6, 4, 6, "delta_m requires n >= m, got n=4 < m=6", "kind"),
    ("AEF", 6, 4, None, "AEF requires n >= m, got n=4 < m=6", "kind"),
    ("hexagon", 6, 4, None, "hexagon requires n >= m, got n=4 < m=6", "kind"),
    ("pentagon", 4, 4, None, "pentagon is the n < m variant, got m=4 <= n=4", "kind"),
    ("pentagon", 4, 6, None, "pentagon is the n < m variant, got m=4 <= n=6", "kind"),
    ("delta_a", 4, 6, 13, "q_a = 12/13 < 1: index region undefined for a = 13 > mn/2", "a"),
    ("delta_a", 4, 6, F(25, 2),
     "q_a = 24/25 < 1: index region undefined for a = 25/2 > mn/2", "a"),
], ids=["delta_m", "delta_a-at-m", "AEF", "hexagon", "pentagon-m=n", "pentagon-m<n",
        "q_a<1", "q_a<1-fraction"])
def test_region_rule_rejections(kind, m, n, a, message, field):
    with pytest.raises(R.RegionError) as err:
        R.build_region(kind, m, n, a=a)
    assert (str(err.value), err.value.field) == (message, field)
    if field == "a":  # q_a < 1 is mu_q's rule
        with pytest.raises(R.RegionError, match="q_a = "):
            R.mu_q(a, m, n)


def test_q_a_one_is_accepted():
    reg = R.build_region("delta_a", 4, 6, a=12)  # a = mn/2: B = (1, 1), D = (0, 0)
    assert [v.as_tuple() for v in reg.vertices[1:]] == [(1, 1), (1, 0), (0, 0)]
    assert reg.endpoints is None and not reg.degenerate


def test_pentagon_endpoints_verbatim():
    reg = R.build_region("pentagon", 4, 3)  # n < m < 2n
    expected = [(F(1, 2), F(1, 2)), (F(1), F(1, 2)), (F(1), F(1, 3)),
                (F(2, 3), F(0)), (F(1, 2), F(0))]
    assert [v.as_tuple() for v in reg.vertices] == expected


def test_pentagon_full_square_branch():
    reg = R.build_region("pentagon", 4, 2)  # m >= 2n
    assert len(reg.vertices) == 4
    assert any("full half square" in n for n in reg.notes)


def test_duality_of_conjugate_corner():
    for (m, n, a) in ((4, 6, 4), (6, 8, 6), (6, 8, 0)):
        mu, q = R.mu_q(a, m, n)
        if q is None:
            continue
        reg = R.build_region("delta_a", m, n, a=a)
        B, Dv = reg.vertices[1], reg.vertices[3]
        # 1/q_a + 1/q_a' = 1 exactly, so D sits at (1/q_a', 0) with
        # B.inv_q + D.inv_p == 1
        assert B.inv_q + Dv.inv_p == 1


def test_q_a_nonincreasing_in_a():
    mu0, q0 = R.mu_q(0, 6, 8)
    mum, qm = R.mu_q(6, 6, 8)
    assert mum >= mu0
    assert qm <= q0


def test_ef_on_smoothing_line():
    for (m, n) in ((4, 6), (4, 8), (6, 10)):
        reg = R.build_region("AEF", m, n)
        gap = F(m, 2 * n)
        for v in reg.vertices[1:]:
            assert v.inv_q == v.inv_p - gap


def test_classification_endpoints():
    reg = R.build_region("delta_m", 4, 6)
    B = R.IndexPoint(F(1), F(1, 3))
    assert R.classify(reg, B) == R.Classification("boundary", weak_output=True)
    A = R.classify(reg, R.IndexPoint(F(1, 2), F(1, 2)))
    assert A == R.Classification("boundary")
    out = R.classify(reg, R.IndexPoint(F(1, 2), F(3, 4)))
    assert out.location == "outside"
    Dv = R.classify(reg, R.IndexPoint(F(2, 3), F(0)))
    assert Dv.lorentz_data and not Dv.weak_output
    aef = R.build_region("AEF", 4, 6)  # the edge EF: 1/q = 1/p - m/(2n)
    assert R.classify(aef, R.IndexPoint(F(2, 3), F(1, 3))) == R.Classification(
        "boundary", weak_output=True)
    assert R.classify(aef, aef.vertices[0]) == R.Classification("boundary")


@pytest.mark.parametrize("kind", ["delta_m", "delta_0", "AEF", "hexagon", "pentagon"])
def test_only_delta_a_takes_a(kind):
    with pytest.raises(R.RegionError) as err:
        R.build_region(kind, 4, 6, a=F(2))
    assert err.value.field == "a"


def test_interior_point():
    reg = R.build_region("delta_m", 4, 6)
    assert R.locate(reg, R.IndexPoint(F(4, 5), F(1, 5))) == "interior"


def test_degenerate_region_membership_is_segment():
    reg = R.build_region("delta_0", 4, 2)
    on = R.IndexPoint(F(3, 4), F(1, 4))  # midpoint of A--C
    off = R.IndexPoint(F(3, 4), F(1, 2))
    assert R.locate(reg, on) == "boundary"
    assert R.locate(reg, off) == "outside"


def test_locate_agrees_with_bruteforce_halfplanes():
    rng = np.random.default_rng(42)
    regs = [R.build_region("delta_m", 4, 6), R.build_region("AEF", 4, 6),
            R.build_region("hexagon", 4, 6), R.build_region("pentagon", 4, 3)]
    disagreements = 0
    for _ in range(10_000):
        pt = R.IndexPoint(F(int(rng.integers(0, 49)), 48),
                          F(int(rng.integers(0, 49)), 48))
        for reg in regs:
            inside = R.locate(reg, pt) != "outside"
            if inside != R.contains_bruteforce(reg, pt):
                disagreements += 1
    assert disagreements == 0


def _hand_region(kind, *points):
    verts = tuple(R.IndexPoint(x, y) for x, y in points)
    return R.IndexRegion(kind=kind, m=4, n=6, a=None, vertices=verts,
                         labels=tuple(f"V{i}" for i in range(len(verts))))


def _pushed(pt, dx, dy):
    """pt moved by 1/97 in the max norm along (dx, dy); None off the unit square."""
    s = F(1, 97) / max(abs(dx), abs(dy))
    x, y = pt.inv_p + s * dx, pt.inv_q + s * dy
    return R.IndexPoint(x, y) if 0 <= x <= 1 and 0 <= y <= 1 else None


THREE_WAY_REGIONS = (
    R.build_region("delta_m", 4, 6), R.build_region("AEF", 4, 6),
    R.build_region("hexagon", 4, 6), R.build_region("pentagon", 4, 3),
    R.build_region("pentagon", 4, 2), R.build_region("delta_a", 4, 6, a=F(1, 3)),
    R.build_region("delta_0", 4, 6),  # B and D collapse onto C: the segment A--C
    _hand_region("point", (F(3, 4), F(1, 4))),
    _hand_region("collinear", (F(1, 2), F(1, 3)), (F(7, 8), F(1, 12)), (F(5, 8), F(1, 4))),
)


@pytest.mark.parametrize("reg", THREE_WAY_REGIONS, ids=lambda r: f"{r.kind}-{r.m}-{r.n}-{r.a}")
def test_locate_three_way_labels(reg):
    verts = reg.distinct_vertices()
    o = verts[0]
    area = sum((b.inv_p - o.inv_p) * (c.inv_q - o.inv_q)
               - (b.inv_q - o.inv_q) * (c.inv_p - o.inv_p)
               for b, c in zip(verts[1:], verts[2:]))
    if area < 0:
        verts = verts[::-1]
    for v in verts:
        assert R.locate(reg, v) == "boundary"
    if len(verts) == 1:
        edges, pushes = [], [(o, dx, dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    else:
        edges, pushes = list(zip(verts, verts[1:] + verts[:1])), []
    for a, b in edges:
        mid = R.IndexPoint((a.inv_p + b.inv_p) / 2, (a.inv_q + b.inv_q) / 2)
        assert R.locate(reg, mid) == "boundary"
        dx, dy = b.inv_p - a.inv_p, b.inv_q - a.inv_q
        pushes.append((mid, dy, -dx))  # right of a -> b: outward on a ccw polygon
        if area == 0:
            pushes.append((mid, -dy, dx))
    if area == 0 and edges:  # segment: also past each end
        lo, hi = min(verts, key=R.IndexPoint.as_tuple), max(verts, key=R.IndexPoint.as_tuple)
        dx, dy = hi.inv_p - lo.inv_p, hi.inv_q - lo.inv_q
        pushes += [(hi, dx, dy), (lo, -dx, -dy)]
    if area != 0:
        centroid = R.IndexPoint(sum(v.inv_p for v in verts) / len(verts),
                                sum(v.inv_q for v in verts) / len(verts))
        assert R.locate(reg, centroid) == "interior"
    outside = [pt for pt in (_pushed(*push) for push in pushes) if pt is not None]
    assert outside  # edges on the square's sides have no pushed point
    for pt in outside:
        assert R.locate(reg, pt) == "outside", pt


def test_non_convex_vertex_list_rejected():
    bow_tie = _hand_region("bow-tie", (F(1, 2), F(0)), (F(1), F(1, 2)),
                           (F(1), F(0)), (F(1, 2), F(1, 2)))
    for pt in (R.IndexPoint(F(3, 4), F(1, 4)), R.IndexPoint(F(0), F(1))):
        with pytest.raises(R.RegionError, match="bow-tie"):
            R.locate(bow_tie, pt)


def test_build_region_cache_shares_values_not_errors():
    assert R.build_region("hexagon", 4, 6) is R.build_region("hexagon", 4, 6)
    assert R.build_region("delta_a", 4, 6, a=F(1, 3)) is R.build_region("delta_a", 4, 6, a=F(1, 3))
    for _ in range(2):
        with pytest.raises(R.RegionError):
            R.build_region("AEF", 4, 2)
    # 4.0 == 4 with equal hashes: the cache must not answer a float a
    R.build_region("delta_a", 4, 6, a=4)
    with pytest.raises(R.RegionError, match="exact rational"):
        R.build_region("delta_a", 4, 6, a=4.0)


@pytest.mark.parametrize("kind, a, B, D", [
    ("delta_m", None, (F(1), F(1, 3)), (F(2, 3), F(0))),
    ("delta_a", F(1, 3), (F(1), F(1, 36)), (F(35, 36), F(0))),
    ("hexagon", None, (F(1), F(1, 3)), (F(2, 3), F(0))),
], ids=["delta_m", "delta_a-1/3", "hexagon"])
def test_classify_endpoint_tags(kind, a, B, D):
    reg = R.build_region(kind, 4, 6, a=a)
    for _ in range(2):  # the second pass reads the cached (B, D) pair
        assert R.classify(reg, R.IndexPoint(*B)) == R.Classification("boundary", weak_output=True)
        assert R.classify(reg, R.IndexPoint(*D)) == R.Classification("boundary", lorentz_data=True)
        assert R.classify(reg, reg.vertices[0]) == R.Classification("boundary")


def test_json_export_rational_strings(tmp_path):
    path = tmp_path / "region.json"
    cli._write_json(path, R.build_region("delta_m", 4, 6))
    d = json.loads(path.read_text())
    assert d["vertices"][0] == ["1/2", "1/2"]
    assert d["vertices"][1] == ["1/1", "1/3"]
    assert d["labels"] == ["A", "B", "C", "D"]


def test_svg_contains_all_overlays():
    regs = [R.build_region("delta_m", 4, 6), R.build_region("AEF", 4, 6),
            R.build_region("hexagon", 4, 6)]
    svg = R.regions_svg(regs)
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 3
    assert "stroke-dasharray" in svg
    assert svg.count("<text") >= 13  # axis labels plus vertex labels


def _restated_classifier(reg):
    """classify's rules restated on Fractions, as a function of the point:
    a polygon's closed half-planes, on whose lines lies its boundary; a
    segment or point region holds only boundary points; the AEF weak edge
    1/q = 1/p - m/(2n); and the B/D tags read from the vertex labels unless
    q_a is 1 or infinite."""
    verts = reg.distinct_vertices()
    o = verts[0]
    area = sum((b.inv_p - o.inv_p) * (c.inv_q - o.inv_q)
               - (b.inv_q - o.inv_q) * (c.inv_p - o.inv_p)
               for b, c in zip(verts[1:], verts[2:]))
    if area < 0:
        verts = verts[::-1]
    edges = [(a, b.inv_p - a.inv_p, b.inv_q - a.inv_q)
             for a, b in zip(verts, verts[1:] + verts[:1])]
    lo, hi = min(verts, key=R.IndexPoint.as_tuple), max(verts, key=R.IndexPoint.as_tuple)
    corners = dict(zip(reg.labels, reg.vertices))
    tags = reg.kind in ("delta_a", "hexagon") and corners["B"].inv_q not in (0, 1)

    def location(pt):
        if area == 0:  # the segment lo--hi, or the point lo = hi
            on = ((hi.inv_p - lo.inv_p) * (pt.inv_q - lo.inv_q)
                  == (hi.inv_q - lo.inv_q) * (pt.inv_p - lo.inv_p)
                  and lo.inv_p <= pt.inv_p <= hi.inv_p
                  and min(lo.inv_q, hi.inv_q) <= pt.inv_q <= max(lo.inv_q, hi.inv_q))
            return "boundary" if on else "outside"
        sides = [dx * (pt.inv_q - a.inv_q) - dy * (pt.inv_p - a.inv_p) for a, dx, dy in edges]
        return "outside" if min(sides) < 0 else "boundary" if 0 in sides else "interior"

    def restated(pt):
        loc = location(pt)
        if reg.kind == "AEF":
            return R.Classification(loc, weak_output=loc != "outside"
                                    and pt.inv_q == pt.inv_p - F(reg.m, 2 * reg.n))
        if tags:
            return R.Classification(loc, weak_output=pt == corners["B"],
                                    lorentz_data=pt == corners["D"])
        return R.Classification(loc)

    return restated


def _parity_regions(m, n):
    kinds = ["delta_0", "delta_m", "AEF", "hexagon"] if n >= m else ["delta_0", "pentagon"]
    regs = [R.build_region(kind, m, n) for kind in kinds]
    # from the lowest admissible a (q_a infinite: B and D on C) to a = mn/2 (q_a = 1)
    for a in (F(n * (4 - m), 2), F(1, 3), F(m - 1), F(m + 1), F(m * n, 2)):
        if a != m and a <= F(m * n, 2):
            regs.append(R.build_region("delta_a", m, n, a=a))
    return regs


PARITY_GRID = 24


@pytest.mark.parametrize("m", [4, 6, 8])
def test_classify_matches_fraction_restatement(m):
    pts = [R.IndexPoint(F(i, PARITY_GRID), F(j, PARITY_GRID))
           for i in range(PARITY_GRID + 1) for j in range(PARITY_GRID + 1)]
    seen = set()
    for n in range(2, 9):
        for reg in _parity_regions(m, n):
            restated = _restated_classifier(reg)
            for pt in pts:
                got = R.classify(reg, pt)
                assert got == restated(pt), (reg.kind, m, n, reg.a, pt)
                seen.add((reg.kind, got))
    # every location and both flags occur
    assert {cls.location for _, cls in seen} == {"interior", "boundary", "outside"}
    assert any(cls.weak_output for _, cls in seen) and any(cls.lorentz_data for _, cls in seen)
    assert any(kind == "AEF" and cls.weak_output for kind, cls in seen)


def test_index_point_triple_is_derived_not_a_field():
    half = F(1, 2)
    pt = R.IndexPoint(half, F(1, 3))
    assert pt.inv_p is half  # a Fraction passes through unchanged
    assert pt.homogeneous == (3, 2, 6)
    assert [f.name for f in dataclasses.fields(pt)] == ["inv_p", "inv_q"]
    assert pt == R.IndexPoint("1/2", 1 - F(2, 3)) and hash(pt) == hash(R.IndexPoint(half, "1/3"))
    for x, y in ((F(-1, 2), 0), (F(3, 2), 0), (0, F(4, 3)), (1, -1)):
        with pytest.raises(R.RegionError, match="outside the unit square"):
            R.IndexPoint(x, y)
