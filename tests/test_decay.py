import math
from fractions import Fraction

import numpy as np
import pytest

from ddlab import decay as D
from ddlab import spectral as sp
from ddlab import symbol as sym
from ddlab.fitting import FitError


def beam(n=2):
    return sym.parse_symbol("1 + |x|^4", n)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_lq_norm_indicator():
    g = sp.make_grid(2, 64, 8.0)
    xs = g.x_grids()
    ind = ((np.abs(xs[0]) <= 1.0) & (np.abs(xs[1]) <= 0.5)).astype(float)
    vol = float(ind.sum() * g.cell_volume)
    for q in (1.0, 2.0, 3.0):
        assert D.lq_norm(ind, q, g) == pytest.approx(vol ** (1 / q), rel=1e-12)


def test_lq_norm_sup():
    g = sp.make_grid(2, 16, 4.0)
    f = np.zeros(g.shape)
    f[3, 5] = 3.5
    assert D.lq_norm(f, math.inf, g) == 3.5


def test_lq_norm_gaussian_analytic():
    # || exp(-|x|^2) ||_2 = (pi/2)^{1/2} in two dimensions
    g = sp.make_grid(2, 256, 12.0)
    xs = g.x_grids()
    f = np.exp(-(xs[0] ** 2 + xs[1] ** 2))
    assert D.lq_norm(f, 2, g) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-8)


def test_lq_norm_rejects_small_q():
    g = sp.make_grid(2, 16, 4.0)
    with pytest.raises(D.NormError):
        D.lq_norm(np.ones(g.shape), 0.5, g)
    with pytest.raises(D.NormError):
        D.lq_norm(np.ones(g.shape), math.nan, g)


def test_lq_norm_homogeneous():
    g = sp.make_grid(2, 32, 4.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    for q in (1, 2, 7):
        assert D.lq_norm(3.7 * f, q, g) == pytest.approx(3.7 * D.lq_norm(f, q, g),
                                                         rel=1e-12)


def test_lq_monotone_on_unit_volume_support():
    g = sp.make_grid(2, 64, 4.0)
    xs = g.x_grids()
    box = (np.abs(xs[0]) <= 0.5) & (np.abs(xs[1]) <= 0.5)
    rng = np.random.default_rng(4)
    f = np.where(box, np.abs(rng.standard_normal(g.shape)) + 0.1, 0.0)
    norms = [D.lq_norm(f, q, g) for q in (1, 2, 4)] + [D.lq_norm(f, math.inf, g)]
    vol = box.sum() * g.cell_volume
    # normalized to exact unit volume the sequence is nondecreasing
    norms = [v / vol ** (1 / q) for v, q in zip(norms, (1, 2, 4))] + [norms[-1]]
    assert norms[0] <= norms[1] * (1 + 1e-12) <= norms[2] * (1 + 1e-12)


def test_weak_norm_indicator_equals_strong():
    g = sp.make_grid(2, 64, 8.0)
    xs = g.x_grids()
    ind = (np.sqrt(xs[0] ** 2 + xs[1] ** 2) <= 2.0).astype(float)
    vol = float(ind.sum() * g.cell_volume)
    assert D.weak_lq_norm(ind, 3, g) == pytest.approx(vol ** (1 / 3), rel=1e-12)


def test_weak_norm_pareto_stable_under_refinement():
    vals = []
    for N in (128, 256):
        g = sp.make_grid(2, N, 8.0)
        xs = g.x_grids()
        r = np.sqrt(xs[0] ** 2 + xs[1] ** 2)
        r[r == 0] = np.inf  # drop the origin cell
        vals.append(D.weak_lq_norm(r ** (-2.0 / 3.0), 3, g))
    assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]


def test_weak_norm_below_strong():
    g = sp.make_grid(2, 32, 4.0)
    rng = np.random.default_rng(6)
    for _ in range(100):
        f = rng.standard_normal(g.shape)
        q = float(rng.uniform(1.0, 6.0))
        assert D.weak_lq_norm(f, q, g) <= D.lq_norm(f, q, g) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# theoretical exponents
# ---------------------------------------------------------------------------

def test_exponent_sine_part_small_time_diagonal():
    qr = D.ExponentQuery("V", "small", 2, 2, 4, 6)
    assert D.theoretical_exponent(qr) == Fraction(1)


def test_exponent_sine_part_large_time_weak_endpoint():
    qr = D.ExponentQuery("V", "large", 1, 3, 4, 6)
    assert D.theoretical_exponent(qr) == Fraction(7, 4)


def test_exponent_cosine_part_small_time_diagonal():
    qr = D.ExponentQuery("U", "small", 2, 2, 4, 6)
    assert D.theoretical_exponent(qr) == Fraction(0)


def test_exponent_multiplier_route_bounded_large_time():
    qr = D.ExponentQuery("V", "large", 2, 2, 4, 6, route="multiplier")
    assert D.theoretical_exponent(qr) == Fraction(0)


def test_exponent_cosine_part_large_time_corner():
    # at (1/p, 1/q) = (1, 0): n|0 - 0| - 2/m = -1/2 for m = 4
    qr = D.ExponentQuery("U", "large", 1, math.inf, 4, 6)
    assert D.theoretical_exponent(qr) == Fraction(-1, 2)


def test_exponent_affine_along_upper_edge():
    # large-time V exponent is affine on the edge between (1/2,1/2) and (1,1/q_m)
    def expo(ip, iq):
        qr = D.ExponentQuery("V", "large", 1 / ip, 1 / iq if iq else math.inf, 4, 6)
        return D.theoretical_exponent(qr)

    A = (Fraction(1, 2), Fraction(1, 2))
    B = (Fraction(1), Fraction(1, 3))
    M = ((A[0] + B[0]) / 2, (A[1] + B[1]) / 2)
    assert expo(*M) == (expo(*A) + expo(*B)) / 2


def test_exponent_outside_region_raises():
    with pytest.raises(D.RegionError):
        D.ExponentQuery("V", "small", 2, Fraction(4, 3), 4, 6)
    qr = D.ExponentQuery("V", "small", Fraction(1), Fraction(5, 2), 4, 6,
                         route="multiplier")
    with pytest.raises(D.RegionError):
        D.theoretical_exponent(qr)  # (1, 2/5) outside the AEF triangle


def test_exponent_query_equality_ignores_cached_values():
    a = D.ExponentQuery("V", "large", 1, 3, 4, 6)
    b = D.ExponentQuery("V", "large", 1, 3, 4, 6)
    assert a.point.as_tuple() == (Fraction(1), Fraction(1, 3))  # cached on a only
    assert "point" in vars(a) and "point" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert {a: "B corner"}[b] == "B corner"
    assert a != D.ExponentQuery("V", "large", 1, 3, 4, 6, route="multiplier")


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    ts = np.geomspace(0.1, 10, 9)
    fit = D.fit_power_law(ts, 7.0 * ts ** (-1.5))
    assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
    assert fit.residual <= 1e-10
    assert math.exp(fit.log_level) == pytest.approx(7.0, rel=1e-10)


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(12)
    ts = np.geomspace(0.1, 10, 25)
    vals = 7.0 * ts ** (-1.5) * (1.0 + 0.01 * rng.standard_normal(ts.size))
    fit = D.fit_power_law(ts, vals)
    assert fit.exponent == pytest.approx(-1.5, abs=0.05)


def test_fit_requires_points_and_spread():
    with pytest.raises(FitError):
        D.fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(FitError):
        D.fit_power_law([1.0] * 6, [2.0] * 6)
    with pytest.raises(FitError):
        D.fit_power_law(np.geomspace(1, 2, 6), [1, 2, 3, -4, 5, 6])


# ---------------------------------------------------------------------------
# verify_lp_lq
# ---------------------------------------------------------------------------

def test_verify_sine_part_small_time_slope_one():
    qr = D.ExponentQuery("V", "small", 2, 2, 4, 2, route="multiplier")
    rep = D.verify_lp_lq(beam(), qr)
    assert rep.verdict == "consistent"
    assert rep.fit.exponent == pytest.approx(1.0, abs=0.05)
    assert rep.theoretical == Fraction(1)


def test_verify_cosine_part_small_time_bounded():
    qr = D.ExponentQuery("U", "small", 2, 2, 4, 2)
    rep = D.verify_lp_lq(beam(), qr)
    assert rep.verdict == "consistent"
    assert abs(rep.fit.exponent) <= 0.05
    assert rep.c_emp is not None and rep.c_emp <= 1.0 + 1e-9


def test_output_norm_weakens_at_lorentz_endpoint():
    from fractions import Fraction as F
    from ddlab import regions as R

    reg = R.build_region("delta_m", 4, 6)
    qr = D.ExponentQuery("V", "large", 1, 3, 4, 6)
    cls = R.classify(reg, qr.point)
    g = sp.make_grid(2, 32, 4.0)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.shape)
    assert cls.weak_output
    val, kind = D._output_norm(f, qr, cls, g)
    assert kind == "weak"
    assert val == pytest.approx(D.weak_lq_norm(f, 3, g))


def test_data_norm_proxy_at_dual_endpoint():
    from fractions import Fraction as F
    from ddlab import regions as R

    reg = R.build_region("delta_m", 4, 6)
    qr = D.ExponentQuery("V", "large", F(3, 2), math.inf, 4, 6)  # the D corner
    cls = R.classify(reg, qr.point)
    g = sp.make_grid(2, 32, 4.0)
    f = np.ones(g.shape)
    assert cls.lorentz_data
    val, kind = D._data_norm(f, qr, cls, g)
    assert kind == "proxy-strong"
    assert val == pytest.approx(D.lq_norm(f, 1.5, g))


def test_verify_marks_box_contamination_inconclusive():
    # a box too small for the large-time window: mass reaches the edge and
    # the exponent must not be asserted
    qr = D.ExponentQuery("V", "large", 2, 2, 4, 2, route="multiplier")
    g = sp.make_grid(2, 32, 4.0)
    rep = D.verify_lp_lq(beam(), qr, grid=g, t_grid=np.geomspace(2.0, 8.0, 5),
                         data=[("g", np.exp(-sum(x**2 for x in g.x_grids())))])
    assert rep.verdict == "inconclusive"
    assert any("box-contaminated" in n for n in rep.notes)


def test_verify_contradicted_when_tolerance_is_absurd(monkeypatch):
    monkeypatch.setattr(D, "SLOPE_TOL", 1e-6)
    qr = D.ExponentQuery("V", "small", 2, 2, 4, 2, route="multiplier")
    rep = D.verify_lp_lq(beam(), qr, grid=sp.make_grid(2, 64, 12.0))
    assert rep.verdict == "contradicted"


@pytest.mark.parametrize("part", ["U", "V"])
def test_verify_norm_rows_match_full_propagator(part):
    # verify_lp_lq's one-pass propagation against the independent full
    # propagator, applied to each unnormalized datum at each t
    g = sp.make_grid(2, 32, 8.0)
    r2 = sum(x**2 for x in g.x_grids())
    data = [("narrow", np.exp(-r2 / 2.0)), ("wide", np.exp(-r2 / 8.0) * (1 + 0.3 * r2))]
    ts = [0.05, 0.2, 0.5]
    qr = D.ExponentQuery(part, "small", 2, 2, 4, 2, route="multiplier")
    rep = D.verify_lp_lq(beam(), qr, grid=g, t_grid=ts, data=data)
    zero = np.zeros(g.shape)
    for t, (t_row, l2, _, linf) in zip(ts, rep.norm_rows):
        l2_ref = linf_ref = 0.0
        for _, f in data:
            u0, u1 = (f, zero) if part == "U" else (zero, f)
            u = sp.propagate(u0, u1, t, beam(), g).u
            dn = D.lq_norm(f, 2, g)
            l2_ref = max(l2_ref, D.lq_norm(u, 2, g) / dn)
            linf_ref = max(linf_ref, D.lq_norm(u, math.inf, g) / dn)
        assert t_row == t
        assert l2 == pytest.approx(l2_ref, rel=1e-12)
        assert linf == pytest.approx(linf_ref, rel=1e-12)


def test_verify_transforms_each_datum_once(monkeypatch):
    # one forward FFT per datum serves both the tail fraction and the propagation
    g = sp.make_grid(2, 32, 8.0)
    r2 = sum(x**2 for x in g.x_grids())
    data = [(f"w{a}", np.exp(-r2 / (2.0 * a * a))) for a in (0.8, 1.0, 1.5, 2.0)]
    tail = max(sp.spectral_tail_fraction(np.fft.fftn(f), g) for _, f in data)
    calls = []
    fftn = np.fft.fftn

    def counting_fftn(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    qr = D.ExponentQuery("V", "small", 2, 2, 4, 2, route="multiplier")
    rep = D.verify_lp_lq(beam(), qr, grid=g, t_grid=[0.05, 0.2, 0.5], data=data)
    assert len(calls) == 4
    assert rep.nyquist_tail == pytest.approx(tail, rel=1e-9)


def test_verify_even_symbol_takes_no_complex_inverse(monkeypatch):
    # 1 + |x|^4 is even on every axis: a real datum takes irfftn and a complex
    # one its Re/Im split, so neither reaches the complex inverse
    g = sp.make_grid(2, 32, 8.0)
    xs = g.x_grids()
    gauss = np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0)
    data = [("real", gauss), ("complex", gauss * np.exp(1j * xs[0]))]

    def no_ifftn(*args, **kwargs):
        raise AssertionError("complex inverse FFT for an even symbol")

    monkeypatch.setattr(np.fft, "ifftn", no_ifftn)
    ts = np.geomspace(0.05, 0.5, 5)
    for part, route in (("U", "convolution"), ("V", "multiplier")):
        qr = D.ExponentQuery(part, "small", 2, 2, 4, 2, route=route)
        rep = D.verify_lp_lq(beam(), qr, grid=g, t_grid=ts, data=data)
        assert rep.fit is not None and len(rep.series) == len(ts)


def test_verify_mismatched_symbol_rejected():
    qr = D.ExponentQuery("V", "small", 2, 2, 4, 6)
    with pytest.raises(D.RegionError):
        D.verify_lp_lq(beam(2), qr)


def test_verify_report_dict_schema():
    qr = D.ExponentQuery("V", "small", 2, 2, 4, 2, route="multiplier")
    rep = D.verify_lp_lq(beam(), qr, grid=sp.make_grid(2, 64, 12.0))
    d = rep.to_dict()
    for key in ("query", "theoretical_exponent", "fitted_exponent", "residual",
                "C_emp", "clearance", "verdict", "series"):
        assert key in d
    assert d["theoretical_exponent"] == "1/1"
    assert d["verdict"] in ("consistent", "inconclusive", "contradicted")
