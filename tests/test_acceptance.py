"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import os
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ddlab import cli
from ddlab import decay as D
from ddlab import kernel as K
from ddlab import regions as R
from ddlab import spectral as sp
from ddlab import symbol as sym
from ddlab.fitting import fit_power_law

import lemmas


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def beam(n=2):
    return sym.parse_symbol("1 + |x|^4", n)


def test_criterion_01_hypothesis_checks():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3):
        rep1, rep2 = sym.check_hypotheses(beam(n))
        ok = ok and rep1.passed and rep2.passed
    min2 = sym.check_hypotheses(beam(2))[1].sampled_min
    ok = ok and abs(min2 - 48.0) <= 1e-9
    bad = sym.check_hypotheses(sym.parse_symbol("x1^4 + x2^4", 2))[1]
    on_axis = (not bad.passed) and any(
        max(abs(w.point[0]), abs(w.point[1])) == pytest.approx(1.0, abs=1e-12)
        for w in bad.witnesses)
    ok = ok and on_axis
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _verdict(1, "hypothesis checks", ok,
                    f"sphere min {min2:.12f}, axis witness {on_axis}, {elapsed:.2f}s")


def test_criterion_02_sqrt_hessian_growth():
    t0 = time.perf_counter()
    radii = np.geomspace(10.0, 100.0, 9)
    dirs = sym.sphere_directions(2, 8)

    target4 = lemmas.sqrt_hessian_growth_exponent(4, 2)
    ok = target4 == 0
    fits4 = lemmas.hessian_growth_sqrt(beam(), radii, dirs)
    for f in fits4:
        ok = ok and abs(f.fit.exponent - target4) <= 0.05

    square = sym.parse_symbol("1 + 2*|x|^2 + |x|^4", 2)
    for f in lemmas.hessian_growth_sqrt(square, radii, dirs):
        ok = ok and abs(f.fit.exponent - target4) <= 0.05
        ok = ok and np.max(np.abs(np.asarray(f.det_values) - 4.0)) <= 1e-9

    sextic = sym.parse_symbol("1 + |x|^6", 2)
    fits6 = lemmas.hessian_growth_sqrt(sextic, radii, dirs)
    target6 = lemmas.sqrt_hessian_growth_exponent(6, 2)
    ok = ok and target6 == 2
    for f in fits6:
        ok = ok and abs(f.fit.exponent - target6) <= 0.05
        ok = ok and f.level is not None and f.level > 1.0

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _verdict(2, "det Hess sqrt(P) growth", ok,
                    f"slopes {fits4[0].fit.exponent:+.4f} / {fits6[0].fit.exponent:+.4f}, "
                    f"{elapsed:.2f}s")


def test_criterion_03_surface_type_probe():
    axis = np.linspace(-2.0, 2.0, 33)  # 33^2 = 1089 probe points, origin included
    p = beam()
    types = []
    for x1 in axis:
        for x2 in axis:
            types.append((x1, x2, lemmas.surface_type(p, [x1, x2], 4)))
    max_type = max(t for _, _, t in types)
    at_origin = next(t for x1, x2, t in types if x1 == 0.0 and x2 == 0.0)
    ok = max_type == 4 and at_origin == 4
    square = sym.parse_symbol("1 + 2*|x|^2 + |x|^4", 2)
    uniform = all(lemmas.surface_type(square, [x1, x2], 4) == 2
                  for x1 in axis[::4] for x2 in axis[::4])
    ok = ok and uniform
    assert _verdict(3, "hypersurface type probe", ok,
                    f"max type {max_type} at origin {at_origin}, square uniform {uniform}")


def test_criterion_04_radial_decomposition():
    p = sym.parse_symbol("1 + |x|^4 + x1^2", 2)
    inv = lemmas.radial_inverse(p, [1.0, 0.0], np.geomspace(1e2, 1e4, 33))
    residual_ok = max(inv.residuals) <= 1e-10
    fit = lemmas.sigma_decay_fit(inv)
    # The paper bounds |d sigma/ds| by s^-1 from above only: rho(s) is an
    # algebraic function of s, so sigma has a Puiseux expansion in s^{-1/m}
    # and decays like s^{-1-1/m} (-5/4 here), strictly inside the envelope.
    envelope_ok = fit.exponent <= -1.0
    # Closed-form oracle along e1: 1 + rho^2 + rho^4 = s.  rho is the ray
    # level of P, bisected to rounding, so sigma is off by rounding only
    # (1.8e-15 measured).
    s, sigma = inv.s, inv.sigma
    sigma_cf = np.sqrt((np.sqrt(4.0 * s - 3.0) - 1.0) / 2.0) - s ** 0.25
    sigma_err = float(np.max(np.abs(sigma - sigma_cf)))
    sigma_ok = sigma_err <= 1e-11
    dsig_cf = (sigma_cf[2:] - sigma_cf[:-2]) / (s[2:] - s[:-2])
    slope_cf = fit_power_law(s[1:-1], np.abs(dsig_cf)).exponent
    slope_ok = abs(fit.exponent - slope_cf) <= 1e-9
    _verdict(4, "radial inverse decay",
             residual_ok and envelope_ok and sigma_ok and slope_ok,
             f"slope {fit.exponent:+.5f} (envelope <= -1, closed form "
             f"{slope_cf:+.5f}), max |sigma - sigma_cf| {sigma_err:.2e}, "
             f"max residual {max(inv.residuals):.2e}")
    assert residual_ok
    assert envelope_ok and sigma_ok and slope_ok, (
        f"fitted slope {fit.exponent:+.11f} must be <= -1 (s^-1 envelope) and "
        f"within 1e-9 of the closed-form slope {slope_cf:+.11f}; "
        f"max |sigma - sigma_cf| = {sigma_err:.2e} must be <= 1e-11")


def test_criterion_05_spectral_propagator():
    t0 = time.perf_counter()
    p = beam()
    g = sp.make_grid(2, 256, 16.0)
    rng = np.random.default_rng(123)
    u0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u1 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    e0 = sp.energy(sp.WaveState(0.0, u0, u1), p, g)
    drift = 0.0
    for t in (0.1, 1.0, 10.0, 100.0):
        st = sp.propagate(u0, u1, t, p, g)
        drift = max(drift, abs(sp.energy(st, p, g) - e0) / e0)
    energy_ok = drift <= 1e-10

    gm = sp.make_grid(2, 256, math.pi)
    k = np.array([3.0, -2.0])
    xs = gm.x_grids()
    mode = np.exp(1j * (k[0] * xs[0] + k[1] * xs[1]))
    zero = np.zeros(gm.shape, complex)
    st = sp.propagate(mode, zero, 2.1, p, gm)
    w = math.sqrt(p.evaluate(k))
    mode_err = float(np.max(np.abs(st.u - math.cos(w * 2.1) * mode)))
    mode_ok = mode_err <= 1e-12

    st1 = sp.propagate(u0, u1, 1.6, p, g)
    st2 = sp.propagate(st1.u, st1.ut, 0.8, p, g)
    direct = sp.propagate(u0, u1, 2.4, p, g)
    group_err = float(np.max(np.abs(st2.u - direct.u)) / np.max(np.abs(direct.u)))
    group_ok = group_err <= 1e-10

    elapsed = time.perf_counter() - t0
    ok = energy_ok and mode_ok and group_ok and elapsed < 30.0
    assert _verdict(5, "spectral propagator", ok,
                    f"drift {drift:.2e}, mode err {mode_err:.2e}, "
                    f"group err {group_err:.2e}, {elapsed:.1f}s")


def test_criterion_06_kernel_oracle_equivalence():
    p = beam()
    cfg = K.QuadConfig(eps_list=(0.1,), lattice_N=1024, order=0)
    pairs = [(t, r) for t in (0.25, 0.5, 0.75, 1.0)
             for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert len(pairs) >= 20
    worst = 0.0
    for t, r in pairs:
        x = np.array([r, 0.0])
        lat = K.eval_damped(p, "I1", +1, t, x, 0.1, cfg)
        rad = K.eval_damped(p, "I1", +1, t, x, 0.1, replace(cfg, method="radial"))
        worst = max(worst, abs(lat - rad) / max(abs(lat), abs(rad)))
    ok = worst <= 1e-6
    assert _verdict(6, "kernel oracle equivalence", ok,
                    f"worst relative deviation {worst:.2e} over {len(pairs)} pairs")


def test_criterion_07_scaling_identity():
    p = sym.SymbolPoly.radial_power(2, 4)
    cfg = K.QuadConfig(eps_list=(0.2, 0.1, 0.05, 0.025), order=3, method="radial")
    xs = [np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    dev = lemmas.scaling_check(p, "I1", [2.0, 4.0], xs, cfg)
    ok = dev <= 1e-3
    assert _verdict(7, "homogeneous scaling identity", ok,
                    f"max relative deviation {dev:.2e}")


def test_criterion_08_small_time_kernel_decay():
    p = beam()
    base = K.QuadConfig(eps_list=(0.2, 0.1, 0.05, 0.025), order=3, method="radial")
    ts = np.geomspace(0.01, 0.5, 17)
    sup, samples = [], []
    for t in ts:
        cfg = K.scaled_config(base, t)
        best = 0.0
        for r in (0.0, 0.25, 0.5):
            s = K.eval_kernel(p, "I1", +1, float(t), np.array([r, 0.0]), cfg)
            samples.append(s)
            best = max(best, abs(s.value))
        sup.append(best)
    fit = fit_power_law(ts, sup)
    slope_ok = abs(fit.exponent - (-1.0)) <= 0.1
    rep = K.check_bound(samples, p)
    small = [r for r in rep.regimes if r.regime == "small"][0]
    drift_ok = small.drift is not None and small.drift <= 0.05
    ok = slope_ok and drift_ok
    assert _verdict(8, "small-time sup-norm decay", ok,
                    f"slope {fit.exponent:+.4f} (target -1 +/- 0.1), "
                    f"C_emp {small.c_emp:.3f}, drift {small.drift:.3f}")


def test_criterion_09_large_time_envelope():
    # radial-reduction path at n = m = 4; the large-time branch fits the
    # desk budget, so that is the branch that runs (stated in the report).
    p = beam(4)
    cfg = K.QuadConfig(eps_list=(0.2, 0.1, 0.05, 0.025), order=3, method="radial")
    mu, nu = K.mu_nu(4, 4)
    assert mu == Fraction(2)
    samples = []
    for t in np.geomspace(1.0, 50.0, 9):
        for c in (0.0, 0.5, 1.0, 2.0):
            x = np.array([c * t, 0.0, 0.0, 0.0])
            samples.append(K.eval_kernel(p, "I2", +1, float(t), x, cfg))
    rep = K.check_bound(samples, p)
    large = [r for r in rep.regimes if r.regime == "large"][0]
    ok = (large.time_exponent == Fraction(-1, 4)
          and large.spatial_power == Fraction(2)
          and large.c_emp is not None and math.isfinite(large.c_emp)
          and large.drift is not None and large.drift <= 0.05)
    assert _verdict(9, "large-time envelope (branch=large-time, n=m=4 radial)", ok,
                    f"C_emp {large.c_emp:.3f}, drift {large.drift:.3f}, "
                    f"{large.n_samples} samples")


def test_criterion_10_lp_lq_exponents():
    p = beam()
    qr_v = D.ExponentQuery("V", "small", 2, 2, 4, 2, route="multiplier")
    rep_v = D.verify_lp_lq(p, qr_v)
    v_ok = (rep_v.verdict == "consistent"
            and abs(rep_v.fit.exponent - 1.0) <= 0.05)

    qr_u = D.ExponentQuery("U", "small", 2, 2, 4, 2)
    rep_u = D.verify_lp_lq(p, qr_u)
    u_ok = (rep_u.verdict == "consistent" and abs(rep_u.fit.exponent) <= 0.05
            and rep_u.c_emp <= 1.0 + 1e-9)

    rationals_ok = (
        D.theoretical_exponent(D.ExponentQuery("V", "small", 2, 2, 4, 6)) == 1
        and D.theoretical_exponent(D.ExponentQuery("V", "large", 1, 3, 4, 6))
        == Fraction(7, 4)
        and D.theoretical_exponent(D.ExponentQuery("U", "small", 2, 2, 4, 6)) == 0)

    ok = v_ok and u_ok and rationals_ok
    assert _verdict(10, "Lp-Lq exponent reproduction", ok,
                    f"V slope {rep_v.fit.exponent:+.4f}, U slope "
                    f"{rep_u.fit.exponent:+.4f}, rationals {rationals_ok}")


def test_criterion_11_region_geometry():
    from fractions import Fraction as F
    dm = R.build_region("delta_m", 4, 6)
    aef = R.build_region("AEF", 4, 6)
    hexa = R.build_region("hexagon", 4, 6)
    verts_ok = (
        dm.vertices[1].as_tuple() == (F(1), F(1, 3))
        and dm.vertices[3].as_tuple() == (F(2, 3), F(0))
        and aef.vertices[1].as_tuple() == (F(5, 6), F(1, 2))
        and aef.vertices[2].as_tuple() == (F(1, 2), F(1, 6)))
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(10_000):
        pt = R.IndexPoint(F(int(rng.integers(0, 61)), 60),
                          F(int(rng.integers(0, 61)), 60))
        for reg in (dm, aef, hexa):
            if (R.locate(reg, pt) != "outside") != R.contains_bruteforce(reg, pt):
                disagreements += 1
    ok = verts_ok and disagreements == 0
    assert _verdict(11, "region geometry", ok,
                    f"vertices exact {verts_ok}, disagreements {disagreements}")


def test_criterion_12_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli.run(["all", "--out", str(out1)])
    rc2 = cli.run(["all", "--out", str(out2)])
    names1 = sorted(os.listdir(out1))
    identical = rc1 == rc2 == 0 and names1 == sorted(os.listdir(out2))
    for name in names1:
        identical = identical and (
            (out1 / name).read_bytes() == (out2 / name).read_bytes())
    assert _verdict(12, "batch determinism", identical,
                    f"{len(names1)} artifacts byte-compared")
