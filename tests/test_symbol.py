import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ddlab import symbol as sym
from ddlab.symbol import SymbolPoly

import lemmas


def beam(n=2):
    return sym.parse_symbol("1 + |x|^4", n)


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_derivative_biharmonic_second_partial():
    # p = (x1^2 + x2^2)^2, d^2/dx1^2 = 12 x1^2 + 4 x2^2
    p = sym.SymbolPoly.radial_power(2, 4)
    d = sym.derivative(p, (2, 0))
    assert d == SymbolPoly.from_terms(2, {(2, 0): 12.0, (0, 2): 4.0})


def test_derivative_zero_index_is_identity():
    p = sym.parse_symbol("1 + 2*x1^2*x2 + x2^3", 2)
    assert sym.derivative(p, (0, 0)) == p


def test_derivative_beyond_order_is_zero():
    p = beam()
    d = sym.derivative(p, (5, 0))
    assert d.is_zero
    assert sym.derivative(p, (3, 2)).is_zero


def test_derivative_linear_and_commutes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        terms = {tuple(rng.integers(0, 4, size=2)): float(rng.standard_normal())
                 for _ in range(5)}
        p = SymbolPoly.from_terms(2, terms)
        q = SymbolPoly.from_terms(2, {(1, 1): 2.0, (0, 2): -1.0})
        a, b = (1, 0), (0, 2)
        ab = tuple(x + y for x, y in zip(a, b))
        assert sym.derivative(sym.derivative(p, a), b) == sym.derivative(p, ab)
        lhs = sym.derivative(p + q, a)
        rhs = sym.derivative(p, a) + sym.derivative(q, a)
        pts = rng.uniform(-2, 2, size=(10, 2))
        assert np.allclose(lhs.evaluate(pts), rhs.evaluate(pts), rtol=1e-12, atol=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    p = sym.parse_symbol("1 + |x|^4 + 0.5*x1^2*x2 - 2*x2^3", 2)
    pts = rng.uniform(-2, 2, size=(50, 2))
    h = 1e-5
    for e, alpha in ((np.array([1.0, 0.0]), (1, 0)), (np.array([0.0, 1.0]), (0, 1))):
        exact = sym.derivative(p, alpha).evaluate(pts)
        fd = (p.evaluate(pts + h * e) - p.evaluate(pts - h * e)) / (2 * h)
        assert np.max(np.abs(fd - exact) / (1 + np.abs(exact))) < 1e-6
    # second order: central second difference
    e = np.array([1.0, 0.0])
    h = 1e-4
    exact = sym.derivative(p, (2, 0)).evaluate(pts)
    fd = (p.evaluate(pts + h * e) - 2 * p.evaluate(pts) + p.evaluate(pts - h * e)) / h**2
    assert np.max(np.abs(fd - exact) / (1 + np.abs(exact))) < 1e-6


# ---------------------------------------------------------------------------
# principal part
# ---------------------------------------------------------------------------

def test_principal_part_beam():
    assert sym.principal_part(beam()) == SymbolPoly.radial_power(2, 4)


def test_principal_part_fixed_point_for_homogeneous():
    p = SymbolPoly.radial_power(3, 4)
    assert sym.principal_part(p) == p


def test_principal_part_degree_filter():
    p = sym.parse_symbol("1 + 2*|x|^2 + |x|^4", 2)
    assert sym.principal_part(p) == SymbolPoly.radial_power(2, 4)


def test_principal_part_homogeneity():
    p = sym.parse_symbol("1 + |x|^4 + x1^2*x2", 3)
    pm = sym.principal_part(p)
    rng = np.random.default_rng(5)
    for _ in range(20):
        xi = rng.uniform(-2, 2, size=3)
        lam = float(rng.uniform(0.3, 3.0))
        lhs = pm.evaluate(lam * xi)
        rhs = lam**4 * pm.evaluate(xi)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# H1
# ---------------------------------------------------------------------------

def test_h1_beam_passes():
    for n in (2, 3):
        rep = sym.check_hypotheses(beam(n))[0]
        assert rep.passed
        assert rep.sampled_min == pytest.approx(1.0, abs=1e-12)


def test_h1_homogeneous_fails_at_origin():
    rep = sym.check_hypotheses(SymbolPoly.radial_power(2, 4))[0]
    assert not rep.passed
    w = [w for w in rep.witnesses if w.kind == "positivity"][0]
    assert np.linalg.norm(w.point) == 0.0
    assert w.value == 0.0


def test_h1_ellipticity_failure_witnessed_on_diagonal():
    p = sym.parse_symbol("1 + x1^4 - x2^4", 2)
    rep = sym.check_hypotheses(p)[0]
    assert not rep.passed
    first = [w for w in rep.witnesses if w.kind == "ellipticity"][0]
    assert first.point == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-12)
    assert abs(first.value) < 1e-12


def test_hypothesis_probe_set_descriptions():
    # the fixed probe set is what report.json prints for check-symbol
    assert sym.check_hypotheses(beam(2))[0].description.startswith(
        "4096 sphere directions; ball radius 4.0 with 17 radii x 256 directions;")
    assert sym.check_hypotheses(beam(3))[0].description.startswith("8192 sphere directions;")
    assert sym.check_hypotheses(beam(2))[1].description.endswith("relative floor = 1e-08")


# ---------------------------------------------------------------------------
# sphere directions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 6])
def test_sphere_directions_unit_uniform_and_reproducible(n):
    dirs = sym.sphere_directions(n, 4096, seed=3)
    assert dirs.shape == (4096, n)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-14
    assert np.array_equal(dirs, sym.sphere_directions(n, 4096, seed=3))
    # moments of the uniform measure on S^{n-1}: E x_i^2 = 1/n and
    # E x_i^4 = 3/(n(n+2)); points of a cube pushed onto the sphere miss
    # the fourth moment by 0.013-0.018 here
    assert np.max(np.abs(np.mean(dirs**2, axis=0) - 1.0 / n)) < 0.005
    assert np.max(np.abs(np.mean(dirs**4, axis=0) - 3.0 / (n * (n + 2)))) < 0.005


def test_sphere_directions_seed_selects_set():
    sets = [sym.sphere_directions(4, 256, seed=s) for s in (0, 1, 2**70)]
    for a, b in itertools.combinations(sets, 2):
        assert not np.allclose(a, b)
    assert np.array_equal(sets[2], sym.sphere_directions(4, 256, seed=2**70))
    for n in (2, 3):  # no shift at n <= 3
        assert np.array_equal(sym.sphere_directions(n, 256, seed=0),
                              sym.sphere_directions(n, 256, seed=3))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("seed", [-1, 1.5])
def test_sphere_directions_rejects_bad_seed(n, seed):
    with pytest.raises(sym.SymbolError, match="seed"):
        sym.sphere_directions(n, 16, seed=seed)


@pytest.mark.parametrize("n, max_angle", [(4, 0.2), (5, 0.3), (6, 0.4)])
def test_sphere_directions_cover_axes_and_diagonals(n, max_angle):
    # every +-e_i and every (+-1, ..., +-1)/sqrt(n) has a probe nearby
    dirs = sym.sphere_directions(n, 4096)
    eye = np.eye(n)
    targets = np.vstack([eye, -eye,
                         np.array(list(itertools.product((-1.0, 1.0), repeat=n))) / math.sqrt(n)])
    nearest = np.arccos(np.clip(np.max(targets @ dirs.T, axis=1), -1.0, 1.0))
    assert np.max(nearest) < max_angle


def test_h1_rejects_zero_polynomial():
    with pytest.raises(sym.SymbolError):
        sym.check_hypotheses(SymbolPoly.from_terms(2, {}))


def test_h1_witnesses_reproduce_violation():
    rep = sym.check_hypotheses(sym.parse_symbol("1 + x1^4 - x2^4", 2))[0]
    for w in rep.witnesses:
        if w.kind == "ellipticity":
            pm = sym.principal_part(sym.parse_symbol("1 + x1^4 - x2^4", 2))
            assert pm.evaluate(np.array(w.point)) == pytest.approx(w.value, abs=1e-14)


# ---------------------------------------------------------------------------
# H2
# ---------------------------------------------------------------------------

def test_h2_beam_sphere_minimum_is_48():
    # independent oracle: det Hess (r^2)^2 = (4r^2+8x1^2)(4r^2+8x2^2) - 64x1^2x2^2
    # = 48 r^4, so the unit-sphere minimum is 48
    rep = sym.check_hypotheses(beam())[1]
    assert rep.passed
    assert rep.sampled_min == pytest.approx(48.0, abs=1e-9)


def test_h2_quartic_axes_fail():
    p = sym.parse_symbol("x1^4 + x2^4", 2)
    # oracle: det Hess = 144 x1^2 x2^2, vanishing on the axes
    rep = sym.check_hypotheses(p)[1]
    assert not rep.passed
    w = rep.witnesses[0]
    assert max(abs(w.point[0]), abs(w.point[1])) == pytest.approx(1.0, abs=1e-12)
    assert abs(w.value) < 1e-10


def test_h2_second_order_smoke_case_flagged():
    p = sym.parse_symbol("|x|^2", 3)
    rep = sym.check_hypotheses(p)[1]
    assert rep.passed
    assert rep.sampled_min == pytest.approx(2.0**3, rel=1e-12)
    assert any("m=2" in f for f in rep.flags)


def test_h2_verdict_invariant_under_positive_scaling():
    for text in ("1 + |x|^4", "x1^4 + x2^4"):
        p = sym.parse_symbol(text, 2)
        base = sym.check_hypotheses(p)[1].passed
        for c in (0.5, 3.0):
            assert sym.check_hypotheses(c * p)[1].passed == base


@pytest.mark.parametrize("scale", [1e300, 1e-300, 2.0**-1000, 3.0])
def test_h2_decided_on_a_rescaled_principal_part(scale):
    # H2 and its floor are invariant under positive scaling, and the check
    # scales P_m by a power of two: every decision and number matches the
    # unscaled symbol's, in P's units when they are normal floats.  H1's
    # ellipticity floor is relative to max |P_m| too, so H1 passes at every scale.
    base = sym.check_hypotheses(beam())[1]
    h1, rep = sym.check_hypotheses(scale * SymbolPoly.radial_power(2, 4) + 1.0)
    assert h1.passed
    assert rep.passed
    if abs(math.log2(scale)) < 450:  # 48 scale^2 stays a normal float
        assert not rep.flags
        assert rep.sampled_min == pytest.approx(scale**2 * base.sampled_min, rel=1e-12)
    else:
        assert any("2^" in f for f in rep.flags)
        assert 0 < rep.sampled_min <= rep.sampled_max < math.inf
        assert rep.sampled_min == pytest.approx(rep.sampled_max, rel=1e-12)


def test_h2_fails_when_det_hess_vanishes_identically():
    # det Hess x1^4 = 0 everywhere: the relative floor 1e-8 * 0 once passed it
    rep = sym.check_hypotheses(sym.parse_symbol("x1^4 + 1", 2))[1]
    assert not rep.passed
    assert rep.sampled_max == 0.0 and rep.witnesses[0].value == 0.0


def test_hessian_det_homogeneity():
    pm = SymbolPoly.radial_power(2, 4)
    dirs = sym.sphere_directions(2, 32)
    base = sym.hessian_det_values(pm, dirs)
    for R in (2.0, 7.5):
        scaled = sym.hessian_det_values(pm, R * dirs)
        # degree n(m-2) = 4
        assert np.max(np.abs(scaled - R**4 * base) / np.abs(scaled)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hessian_det_matches_lapack(n):
    # a random cubic has a Hessian that is a different random symmetric
    # matrix at each point; the closed forms (n <= 4) and the LAPACK path
    # (n >= 5) must agree with np.linalg.det of the same entries
    rng = np.random.default_rng(100 + n)
    terms = {tuple(int(a) for a in rng.multinomial(d, [1.0 / n] * n)):
             float(rng.standard_normal()) for d in (2, 3) for _ in range(4 * n)}
    p = SymbolPoly.from_terms(n, terms)
    hp = sym.hessian_polys(p)
    block = sym.CHUNK_POINTS // n
    for count in (block + 1, 1):
        pts = rng.uniform(-2, 2, size=(count, n))
        H = np.array([[hp[i][j].evaluate(pts) for j in range(n)] for i in range(n)])
        want = np.linalg.det(np.moveaxis(H, (0, 1), (1, 2)))
        got = sym.hessian_det_values(p, pts)
        assert got.shape == (count,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        e = {(i, j): hp[i][j].evaluate(pts) for i in range(n) for j in range(i, n)}
        if n == 2:
            assert np.all(got == e[0, 0] * e[1, 1] - e[0, 1] * e[0, 1])
        if n == 3:
            assert np.all(got == e[0, 0] * (e[1, 1] * e[2, 2] - e[1, 2] * e[1, 2])
                          - e[0, 1] * (e[0, 1] * e[2, 2] - e[1, 2] * e[0, 2])
                          + e[0, 2] * (e[0, 1] * e[1, 2] - e[1, 1] * e[0, 2]))


def _exact_value(p, point):
    total = Fraction(0)
    for alpha, c in p.terms:
        term = Fraction(c)
        for x, a in zip(point, alpha):
            term *= Fraction(x) ** a
        total += term
    return total


def _assert_exact(p, pts, got):
    # every power is a - 1 roundings (pow's under one ulp counts as two, a >= 3),
    # a term at most m + 1 and the sum one more per term, each of relative
    # size 2^-53 of the absolute terms
    pts = np.asarray(pts).reshape(-1, p.n)
    got = np.asarray(got).reshape(-1)
    bound = (p.order + 1 + len(p.terms)) * 2.0**-53
    for x, v in zip(pts, got):
        scale = sum(abs(c) * math.prod(abs(xi) ** a for xi, a in zip(x, alpha))
                    for alpha, c in p.terms)
        assert abs(Fraction(v) - _exact_value(p, x)) <= bound * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_matches_exact_rational_arithmetic(n, monkeypatch):
    # a small block budget puts several block boundaries inside the batch
    monkeypatch.setattr(sym, "CHUNK_POINTS", 16 * n)
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        terms = {tuple(int(a) for a in rng.multinomial(rng.integers(0, 9), [1.0 / n] * n)):
                 float(rng.standard_normal()) for _ in range(6)}
        p = SymbolPoly.from_terms(n, terms)
        point = rng.uniform(-2, 2, size=n)
        value = p.evaluate(point)
        assert isinstance(value, float)
        _assert_exact(p, point, value)
        batch = rng.uniform(-2, 2, size=(3, 5, n))  # 15 points: not a whole block
        assert p.evaluate(batch).shape == (3, 5)
        _assert_exact(p, batch, p.evaluate(batch))
        flat = rng.uniform(-2, 2, size=(3 * 16 + 5, n))
        _assert_exact(p, flat, p.evaluate(flat))
        axes = [flat[:i + 2, i] for i in range(n)]  # axes of unequal lengths
        grid = p.evaluate_on_axes(axes)
        assert grid.shape == tuple(range(2, n + 2))
        _assert_exact(p, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1), grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluate_on_axes_zero_constant_and_single_nodes(n):
    # the coefficient tensor is empty for the zero polynomial and 1 x ... x 1
    # for a constant; an axis of one node is a contraction over one row
    axes = [np.linspace(-1.0, 2.0, 3 + i) for i in range(n)]
    shape = tuple(ax.size for ax in axes)
    zero = SymbolPoly.from_terms(n, {}).evaluate_on_axes(axes)
    assert zero.shape == shape and not np.any(zero)
    np.testing.assert_array_equal(SymbolPoly.constant(n, 2.5).evaluate_on_axes(axes),
                                  np.full(shape, 2.5))
    p = sym.parse_symbol("1 + |x|^4 - 3*x1^2 + x1*x%d" % n, n)
    for single in ([ax[1:2] for ax in axes], [axes[0][2:]] + axes[1:]):
        grid = p.evaluate_on_axes(single)
        assert grid.shape == tuple(ax.size for ax in single)
        want = p.evaluate(np.stack(np.meshgrid(*single, indexing="ij"), axis=-1))
        np.testing.assert_allclose(grid, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("check", [
    lambda p: sym._h1_report(p, sym.sphere_directions(p.n)),
    lambda p: sym._h2_report(p, sym.sphere_directions(p.n)),
    sym.check_hypotheses,
], ids=["check_H1", "check_H2", "check_hypotheses"])
def test_hypothesis_check_memory_budget_n4(check):
    # each report on its own probe, and both on one shared probe
    p = beam(4)
    check(p)
    tracemalloc.start()
    try:
        check(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# det Hess sqrt(P) growth
# ---------------------------------------------------------------------------

def test_sqrt_hessian_constant_for_perfect_square():
    # P = (1 + |x|^2)^2 has sqrt(P) = 1 + |x|^2 with det Hess = 4 exactly
    p = sym.parse_symbol("1 + 2*|x|^2 + |x|^4", 2)
    radii = np.geomspace(10, 100, 9)
    fits = lemmas.hessian_growth_sqrt(p, radii, sym.sphere_directions(2, 8))
    for f in fits:
        assert not f.sign_change
        assert np.max(np.abs(np.array(f.det_values) - 4.0)) < 1e-9
        assert abs(f.fit.exponent) < 1e-6


def test_sqrt_hessian_growth_sextic():
    # sqrt(1 + r^6) ~ r^3, det Hess(r^3) = 18 r^2: slope 2, level 18
    p = sym.parse_symbol("1 + |x|^6", 2)
    radii = np.geomspace(10, 100, 9)
    fits = lemmas.hessian_growth_sqrt(p, radii, sym.sphere_directions(2, 8))
    assert lemmas.sqrt_hessian_growth_exponent(6, 2) == 2
    for f in fits:
        assert f.fit.exponent == pytest.approx(2.0, abs=1e-4)
        assert f.level == pytest.approx(18.0, rel=1e-3)
        assert f.level > 0.0


def test_sqrt_hessian_growth_quartic_is_flat():
    radii = np.geomspace(10, 100, 9)
    fits = lemmas.hessian_growth_sqrt(beam(), radii, sym.sphere_directions(2, 8))
    assert lemmas.sqrt_hessian_growth_exponent(4, 2) == 0
    for f in fits:
        assert abs(f.fit.exponent) < 0.05


def test_hessian_growth_rejects_narrow_radius_window():
    with pytest.raises(sym.SymbolError):
        lemmas.hessian_growth_sqrt(beam(), np.linspace(10, 20, 9), [(1.0, 0.0)])


def test_hessian_growth_reports_unfittable_directions():
    # along an axis of 1 + x1^4 + x2^4 the determinant of Hess sqrt(P)
    # vanishes identically: no fit, flagged instead of dropped
    p = sym.parse_symbol("1 + x1^4 + x2^4", 2)
    radii = np.geomspace(10, 100, 9)
    fits = lemmas.hessian_growth_sqrt(p, radii, [(1.0, 0.0), (0.6, 0.8)])
    on_axis, generic = fits
    assert on_axis.sign_change and on_axis.fit is None
    assert not generic.sign_change and generic.fit is not None


# ---------------------------------------------------------------------------
# surface type
# ---------------------------------------------------------------------------

def test_type_two_for_perfect_square():
    p = sym.parse_symbol("1 + 2*|x|^2 + |x|^4", 2)
    for xi0 in ([0.0, 0.0], [0.4, -1.1], [2.0, 1.0]):
        assert lemmas.surface_type(p, xi0, 6) == 2


def test_type_four_at_origin_for_beam():
    # Taylor oracle: sqrt(1 + r^4) = 1 + r^4/2 + O(r^8), orders 2 and 3 vanish
    assert lemmas.surface_type(beam(), [0.0, 0.0], 6) == 4


def test_type_bounded_by_order_on_probe_grid():
    p = beam()
    axis = np.linspace(-2, 2, 9)
    for x1 in axis:
        for x2 in axis:
            k = lemmas.surface_type(p, [x1, x2], 4)
            assert k is not None and 2 <= k <= 4


def test_type_exceeding_probe_depth_returns_none():
    assert lemmas.surface_type(beam(), [0.0, 0.0], 3) is None


# ---------------------------------------------------------------------------
# radial inverse
# ---------------------------------------------------------------------------

def test_radial_inverse_closed_form_beam():
    # P(rho w) = 1 + rho^4 along any direction: rho = (s-1)^{1/4}
    p = beam()
    s = np.geomspace(10, 1e4, 25)
    for w in ([1.0, 0.0], [0.6, 0.8]):
        inv = lemmas.radial_inverse(p, w, s)
        rho = np.asarray(inv.rho)
        assert np.max(np.abs(rho - (s - 1) ** 0.25)) < 1e-10
        sigma = np.asarray(inv.sigma)
        assert np.max(np.abs(sigma)) < 0.1
        assert abs(sigma[-1]) < abs(sigma[0])  # decays toward 0


def test_radial_inverse_homogeneous_sigma_vanishes():
    p = SymbolPoly.radial_power(2, 4)
    inv = lemmas.radial_inverse(p, [0.6, 0.8], np.geomspace(1, 100, 9))
    assert max(abs(v) for v in inv.sigma) < 1e-12


def test_radial_inverse_residuals_small():
    p = sym.parse_symbol("1 + |x|^4 + x1^2", 2)
    inv = lemmas.radial_inverse(p, [1.0, 0.0], np.geomspace(100, 1e4, 17))
    assert max(inv.residuals) <= 1e-10


def test_radial_inverse_below_threshold_rejected():
    p = beam()
    assert lemmas.radial_threshold(p) == pytest.approx(2.0)
    with pytest.raises(sym.RadialInverseError):
        lemmas.radial_inverse(p, [1.0, 0.0], [0.5, 10.0])


def test_radial_inverse_exact_to_rounding():
    # P(rho e1) = 1 + rho^2 + rho^4 = s on criterion 04's grid:
    # rho = sqrt((sqrt(4s-3)-1)/2), and the ray level is that root to rounding
    p = sym.parse_symbol("1 + |x|^4 + x1^2", 2)
    s = np.geomspace(1e2, 1e4, 33)
    rho = np.asarray(lemmas.radial_inverse(p, [1.0, 0.0], s).rho)
    rho_cf = np.sqrt((np.sqrt(4.0 * s - 3.0) - 1.0) / 2.0)
    assert np.max(np.abs(rho - rho_cf) / rho_cf) <= 1e-15


def test_radial_inverse_rejects_level_without_positive_root():
    # on |x|^4 the threshold is 0 and s = 0 is reached at rho = 0
    p = SymbolPoly.radial_power(2, 4)
    with pytest.raises(sym.RadialInverseError):
        lemmas.radial_inverse(p, [1.0, 0.0], [0.0, 1.0])


def _polyval_ray_level(c, reached):
    """ray_level with numpy's polyval for P(r w): the reference."""
    def at(r):
        return reached(np.polynomial.polynomial.polyval(r, c))
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if at(hi):
            break
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if at(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("text, n", [("1 + |x|^4", 2), ("1 + |x|^4 + x1^2", 2),
                                     ("|x|^4 - 50*|x|^2 + 620", 2),
                                     ("x1^4 - 4*x1^2*x2^2 + 4*x2^4 + |x|^2 + 1", 2),
                                     ("2 + |x|^4 + x1*x2", 2), ("1 + |x|^4 + x1^2*x3", 3)])
def test_ray_level_matches_polyval_bisection(text, n):
    # the Horner loop over Python floats gives polyval's values to the bit
    p = sym.parse_symbol(text, n)
    rng = np.random.default_rng(3)
    directions = list(np.eye(n)) + [w / np.linalg.norm(w) for w in rng.standard_normal((4, n))]
    for w in directions:
        c = sym.ray_coefficients(p, w)
        for level in (0.5, 3.7, 611.0, 1e3, 1e8):
            for reached in (lambda v: v >= level, lambda v: math.sqrt(max(v, 0.0)) >= level):
                assert (sym.ray_level(c, reached).hex()
                        == _polyval_ray_level(c, reached).hex())


def test_ray_level_never_reached_raises():
    # P(r e2) = 1 for 1 + x1^4: the ray stays at 1, so the level 2 is never reached
    c = sym.ray_coefficients(sym.parse_symbol("1 + x1^4", 2), [0.0, 1.0])
    with pytest.raises(sym.RadialInverseError):
        sym.ray_level(c, lambda v: v >= 2.0)
    with pytest.raises(sym.RadialInverseError):
        lemmas.radial_inverse(beam(), [1.0, 0.0], [10.0, math.inf])


def test_sigma_decay_diagnostic_matches_closed_form():
    # oracle (closed form): P(rho e1) = 1 + rho^2 + rho^4 gives
    # rho = sqrt((sqrt(4s-3)-1)/2); the same finite-difference fit of
    # |d sigma/ds| over s in [1e2, 1e4] (33 log nodes) evaluates to -1.29380
    p = sym.parse_symbol("1 + |x|^4 + x1^2", 2)
    inv = lemmas.radial_inverse(p, [1.0, 0.0], np.geomspace(1e2, 1e4, 33))
    fit = lemmas.sigma_decay_fit(inv)
    assert fit.exponent == pytest.approx(-1.29380, abs=1e-3)
    # consistency with the symbol-class bound: at least one power of s lost
    assert fit.exponent <= -1.0 + 0.15


# ---------------------------------------------------------------------------
# literal format
# ---------------------------------------------------------------------------

def test_literal_roundtrip():
    texts = ["1 + |x|^4", "1 + 2*|x|^2 + |x|^4", "x1^4 + x2^4",
             "1 - 3.5*x1^2*x2 + 0.25*x2^6", "|x|^2"]
    for text in texts:
        p = sym.parse_symbol(text, 2)
        assert sym.parse_symbol(sym.to_literal(p), 2) == p


def test_literal_shorthand_expansion():
    assert sym.parse_symbol("|x|^4", 2) == SymbolPoly.radial_power(2, 4)
    assert sym.parse_symbol("2|x|^2", 2) == 2.0 * SymbolPoly.radial_power(2, 2)


def test_literal_rejects_garbage():
    with pytest.raises(sym.SymbolError):
        sym.parse_symbol("1 + y^2", 2)
    with pytest.raises(sym.SymbolError):
        sym.parse_symbol("x3^2", 2)
    with pytest.raises(sym.SymbolError):
        sym.parse_symbol("|x|^3", 2)
    for empty in ("", "   ", "*", "+"):
        with pytest.raises(sym.SymbolError):
            sym.parse_symbol(empty, 2)
    # an operator must be followed by a factor, and '*' must sit between two factors
    for text in ("1 + |x|^4 -", "1 + |x|^4 *", "* 1 + |x|^4", "1 + |x|^4 * * x1^2",
                 "x1^4 * -x2^4", "1 + |x|^4 - 2 * -x1^2"):
        with pytest.raises(sym.SymbolError, match="operator|between two factors"):
            sym.parse_symbol(text, 2)
    # a number never follows a number side by side: "1.5.3" would read as 1.5 * .3
    for text in ("1.5.3", "1 2 + |x|^4", "|x|^4 + 1 .5"):
        with pytest.raises(sym.SymbolError, match="follows another number"):
            sym.parse_symbol(text, 2)


@pytest.mark.parametrize("text, terms", [
    ("2|x|^2", {(2, 0): 2.0, (0, 2): 2.0}),
    ("- - x1^4", {(4, 0): 1.0}),
    ("2.5e-1*x1 + 1E2", {(1, 0): 0.25, (0, 0): 100.0}),
    ("0", {}),
    ("2 x1 * 3", {(1, 0): 6.0}),
])
def test_literal_forms_still_parse(text, terms):
    assert sym.parse_symbol(text, 2) == sym.SymbolPoly.from_terms(2, terms)


@pytest.mark.parametrize("text", ["1e400 + |x|^4", "1e200 * 1e200 * x1^4 + 1",
                                  "1e400 - 1e400 + |x|^4"])
def test_nonfinite_coefficient_rejected(text):
    with pytest.raises(sym.SymbolError, match="nonzero and finite"):
        sym.parse_symbol(text, 2)
    for c in (math.inf, math.nan, 0.0):
        with pytest.raises(sym.SymbolError, match="nonzero and finite"):
            SymbolPoly(2, (((4, 0), c),))


def test_literal_scientific_notation_and_zero():
    p = sym.parse_symbol("2.5e-1*x1 + 1E2", 2)
    assert p == sym.SymbolPoly.from_terms(2, {(1, 0): 0.25, (0, 0): 100.0})
    zero = sym.parse_symbol("0", 2)
    assert zero.is_zero
    assert sym.parse_symbol(sym.to_literal(zero), 2) == zero
