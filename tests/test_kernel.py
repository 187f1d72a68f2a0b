import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv, roots_legendre, spherical_jn

from ddlab import kernel as K
from ddlab import symbol as sym
from ddlab.spectral import LatticePositivityError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def beam(n=2):
    return sym.parse_symbol("1 + |x|^4", n)


FAST = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=256)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_eps_list_must_decrease():
    with pytest.raises(K.KernelConfigError):
        K.QuadConfig(eps_list=(0.1, 0.2))
    with pytest.raises(K.KernelConfigError):
        K.QuadConfig(eps_list=(0.1, -0.05))


@pytest.mark.parametrize("kwargs, field", [
    ({"lattice_N": 0}, "lattice_N"),
    ({"lattice_N": 1}, "lattice_N"),
    ({"lattice_N": 63}, "lattice_N"),
    ({"lattice_N": -4}, "lattice_N"),
    ({"order": -1}, "order"),
    ({"eps_list": (0.2, math.nan)}, "eps_list"),
    ({"eps_list": (math.inf, 0.1)}, "eps_list"),
])
def test_lattice_size_and_order_validated(kwargs, field):
    with pytest.raises(K.KernelConfigError) as err:
        K.QuadConfig(**kwargs)
    assert err.value.field == field


def test_lattice_guard_rejects_high_dimension():
    with pytest.raises(K.KernelConfigError):
        K.eval_kernel(beam(4), "I1", +1, 1.0, np.zeros(4), FAST)
    with pytest.raises(K.KernelConfigError):
        K.eval_damped(beam(3), "I1", +1, 1.0, np.zeros(3), 0.2,
                      K.QuadConfig(eps_list=(0.2,), lattice_N=1024, order=0))


def test_kind_and_sign_validation():
    with pytest.raises(K.KernelConfigError):
        K.eval_kernel(beam(), "I3", +1, 1.0, np.zeros(2), FAST)
    with pytest.raises(K.KernelConfigError):
        K.eval_kernel(beam(), "I1", 2, 1.0, np.zeros(2), FAST)
    with pytest.raises(K.KernelConfigError):
        K.eval_kernel(beam(), "I1", +1, 0.0, np.zeros(2), FAST)
    for method in ("lattice", "radial"):
        for sign in (0, 2):
            with pytest.raises(K.KernelConfigError, match="sign must be"):
                K.eval_damped(beam(), "I1", sign, 1.0, np.zeros(2), 0.2,
                              replace(FAST, method=method))


@pytest.mark.parametrize("method", ["lattice", "radial"])
@pytest.mark.parametrize("length", [1, 3])
def test_x_of_wrong_length_rejected(method, length):
    cfg = replace(FAST, method=method)
    with pytest.raises(K.KernelConfigError, match="x must have length 2"):
        K.eval_kernel(beam(), "I1", +1, 1.0, np.ones(length), cfg)
    with pytest.raises(K.KernelConfigError, match="x must have length 2"):
        K.eval_damped(beam(), "I1", +1, 1.0, np.ones(length), 0.2, cfg)


@pytest.mark.parametrize("method", ["lattice", "radial"])
@pytest.mark.parametrize("t, x, field", [
    (math.nan, (0.0, 0.0), "t"),
    (math.inf, (0.0, 0.0), "t"),
    (1.0, (math.inf, 0.0), "x"),
    (1.0, (0.0, math.nan), "x"),
])
def test_non_finite_query_rejected(method, t, x, field):
    cfg = replace(FAST, method=method)
    for evaluate in (lambda: K.eval_kernel(beam(), "I1", +1, t, x, cfg),
                     lambda: K.eval_damped(beam(), "I1", +1, t, x, 0.2, cfg)):
        with pytest.raises(K.KernelConfigError, match="must be finite") as err:
            evaluate()
        assert err.value.field == field


def test_lattice_positivity_strict_only_for_I2():
    # P = |x|^4 vanishes at the origin: the I1 integrand is fine there, the
    # P^{-1/2} weight of I2 is not
    p = sym.SymbolPoly.radial_power(2, 4)
    cfg = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=64)
    assert np.isfinite(K.eval_kernel(p, "I1", +1, 1.0, np.zeros(2), cfg).value)
    with pytest.raises(LatticePositivityError) as err:
        K.eval_kernel(p, "I2", +1, 1.0, np.zeros(2), cfg)
    assert err.value.point == (0.0, 0.0)


def test_lattice_sample_memory_budget_n3():
    cfg = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=128)
    tracemalloc.start()
    try:
        K.eval_kernel(beam(3), "I2", +1, 1.0, np.zeros(3), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# folded lattice sums against a direct full-lattice sum
# ---------------------------------------------------------------------------

def _full_lattice_sums(p, kind, sign, t, x, eps_list, cfg):
    """Fine and coarse trapezoid sums over all N^n lattice points, coarse
    being every other point on every axis."""
    axis, h = K._lattice_axis(p, cfg)
    xi = np.stack(np.meshgrid(*([axis] * p.n), indexing="ij"), axis=-1)
    A = np.sqrt(p.evaluate(xi))
    base = np.exp(1j * (sign * t * A + xi @ x))
    if kind == "I2":
        base = base / A
    every_other = (slice(None, None, 2),) * p.n
    fine = [h**p.n * np.sum(np.exp(-e * A) * base) for e in eps_list]
    coarse = [(2 * h) ** p.n * np.sum((np.exp(-e * A) * base)[every_other])
              for e in eps_list]
    return np.array(fine), np.array(coarse)


FOLD_CASES = [  # (symbol, n, axes on which it is even)
    pytest.param("1 + |x|^4", 2, (0, 1), id="beam2d"),
    pytest.param("1 + |x|^4 + x1^2", 2, (0, 1), id="aniso2d"),
    pytest.param("1 + |x|^4 + x1^2*x2", 2, (0,), id="even-x1"),
    pytest.param("2 + |x|^4 + x1*x2", 2, (), id="not-even"),
    pytest.param("1 + |x|^4", 3, (0, 1, 2), id="beam3d"),
    pytest.param("1 + |x|^4 + x1^2*x3", 3, (0, 1), id="even-x1-x2-3d"),
]


@pytest.mark.parametrize("text, n, folded", FOLD_CASES)
@pytest.mark.parametrize("kind", ["I1", "I2"])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("x", ["origin", "off-axis"])
def test_lattice_sums_match_full_lattice(monkeypatch, text, n, folded, kind, sign, x):
    p = sym.parse_symbol(text, n)
    cfg = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=128 if n == 2 else 32)
    x = np.zeros(n) if x == "origin" else np.array([0.7, -1.3, 0.4][:n])
    # the lattice is cut for eps >= 0.1; at eps = 0.02 its edge rows, among
    # them the unmirrored -xi_max, still carry weight
    eps_list = cfg.eps_list + (0.02,)
    ref_fine, ref_coarse = _full_lattice_sums(p, kind, sign, 0.8, x, eps_list, cfg)
    # the default chunking, and chunks of an odd number of rows
    for chunk_points in (K.CHUNK_POINTS, 999):
        monkeypatch.setattr(K, "CHUNK_POINTS", chunk_points)
        fine, coarse, work = K._lattice_sums(p, kind, sign, 0.8, x, eps_list, cfg)
        assert work["folded_axes"] == folded
        np.testing.assert_array_less(np.abs(fine - ref_fine), 1e-12 * np.abs(ref_fine))
        np.testing.assert_array_less(np.abs(coarse - ref_coarse), 1e-12 * np.abs(ref_coarse))


def test_lattice_sample_records_work():
    cfg = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=512)
    even = K.eval_kernel(beam(), "I1", +1, 0.5, np.array([0.5, 0.0]), cfg)
    assert even.meta["points"] == 257**2
    assert even.meta["folded_axes"] == (0, 1)
    fine, _, _ = K._lattice_sums(beam(), "I1", +1, 0.5, np.array([0.5, 0.0]),
                                 cfg.eps_list, cfg)
    _, stability = K.extrapolate_to_zero(cfg.eps_list, fine, cfg.order)
    assert even.meta["stability"] == stability > 0.0
    odd = K.eval_kernel(sym.parse_symbol("2 + |x|^4 + x1*x2", 2), "I1", +1, 0.5,
                        np.array([0.5, 0.0]), cfg)
    assert odd.meta["points"] == 512**2
    assert odd.meta["folded_axes"] == ()


# ---------------------------------------------------------------------------
# symmetries of the damped evaluation
# ---------------------------------------------------------------------------

def test_even_symmetry_in_x():
    p = beam()
    x = np.array([0.7, -0.3])
    a = K.eval_damped(p, "I1", +1, 0.5, x, 0.2, FAST)
    b = K.eval_damped(p, "I1", +1, 0.5, -x, 0.2, FAST)
    assert a == pytest.approx(b, rel=1e-12)


def test_time_reversal_conjugates():
    p = beam()
    x = np.array([0.4, 0.1])
    a = K.eval_damped(p, "I2", +1, 0.8, x, 0.2, FAST)
    b = K.eval_damped(p, "I2", +1, -0.8, x, 0.2, FAST)
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_sign_branches_are_conjugate():
    # real symbol: the two phase signs give complex-conjugate kernels
    p = beam()
    cfg = K.QuadConfig(eps_list=(0.2, 0.1), order=1, lattice_N=256)
    x = np.array([0.4, 0.2])
    a = K.eval_kernel(p, "I2", +1, 0.7, x, cfg).value
    b = K.eval_kernel(p, "I2", -1, 0.7, x, cfg).value
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_eps_monotone_at_zero_probe():
    # t = 0, x = 0: the damped transform of the weight, real and
    # decreasing in eps
    p = beam()
    vals = [K.eval_damped(p, "I2", +1, 0.0, np.zeros(2), e, FAST)
            for e in (0.4, 0.2, 0.1, 0.05)]
    for v in vals:
        assert abs(v.imag) < 1e-12 * abs(v.real)
    reals = [v.real for v in vals]
    assert reals == sorted(reals)  # larger value at smaller eps


def test_lattice_refinement_converged():
    p = beam()
    x = np.array([1.0, 0.0])
    v1 = K.eval_damped(p, "I1", +1, 0.5, x, 0.2,
                       K.QuadConfig(eps_list=(0.2,), lattice_N=256, order=0))
    v2 = K.eval_damped(p, "I1", +1, 0.5, x, 0.2,
                       K.QuadConfig(eps_list=(0.2,), lattice_N=512, order=0))
    assert abs(v1 - v2) <= 1e-8 * abs(v2)


# ---------------------------------------------------------------------------
# radial oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_is_radial(n):
    assert K.is_radial(beam(n))
    assert not K.is_radial(sym.parse_symbol("1 + |x|^4 + x1^2", n))
    assert not K.is_radial(sym.parse_symbol("|x|^4 + x1^4", n))
    # equal to |x|^4 on every coordinate axis, so axis probes cannot tell
    assert not K.is_radial(sym.parse_symbol(" + ".join(f"x{i}^4" for i in range(1, n + 1)), n))
    # r^4 sin(4 theta) / 4 in the (x1, x2) plane: zero on the axes and diagonals
    assert not K.is_radial(sym.parse_symbol("|x|^4 + x1^3*x2 - x1*x2^3", n))
    # read from the terms: decimal coefficients that do not multiply exactly
    # (3 * 0.1 != 0.3) are radial, a 1e-9 relative defect is not
    decimal = "1 + 0.1*x1^6 + 0.3*x1^4*x2^2 + 0.3*x1^2*x2^4 + 0.1*x2^6"
    assert K.is_radial(sym.parse_symbol(decimal, 2))
    assert not K.is_radial(sym.parse_symbol("|x|^4 + 1e-9*x1^4", n))


def test_lattice_matches_radial_oracle():
    p = beam()
    cfg = K.QuadConfig(eps_list=(0.1,), lattice_N=1024, order=0)
    pairs = [(t, r) for t in (0.25, 0.5, 1.0) for r in (0.0, 0.8, 1.6)]
    for t, r in pairs:
        x = np.array([r, 0.0])
        lat = K.eval_damped(p, "I1", +1, t, x, 0.1, cfg)
        rad = K.eval_damped(p, "I1", +1, t, x, 0.1, replace(cfg, method="radial"))
        assert abs(lat - rad) <= 1e-6 * max(abs(lat), abs(rad))


def test_lattice_matches_radial_oracle_3d():
    p = beam(3)
    cfg = K.QuadConfig(eps_list=(0.2,), lattice_N=160, order=0)
    for t, r in [(0.5, 0.0), (0.5, 1.0)]:
        x = np.array([r, 0.0, 0.0])
        lat = K.eval_damped(p, "I1", +1, t, x, 0.2, cfg)
        rad = K.eval_damped(p, "I1", +1, t, x, 0.2, replace(cfg, method="radial"))
        assert abs(lat - rad) <= 1e-8 * abs(rad)


# ---------------------------------------------------------------------------
# fixed-eps values against closed forms for P = (1 + xi^T A xi)^2
# ---------------------------------------------------------------------------

ORACLE_EPS = 0.1
ORACLE_X = (0.7, -1.3, 0.4, 0.2, -0.5, 0.9)
ANISO = ((1.0, 0.3), (0.3, 0.8))


def _eye(n):
    return tuple(map(tuple, np.eye(n)))


def _squared_quadratic(A):
    """P = (1 + xi^T A xi)^2, so that sqrt(P) = 1 + xi^T A xi."""
    n = len(A)
    terms = {(0,) * n: 1.0}
    for i in range(n):
        for j in range(n):
            alpha = tuple(int(k == i) + int(k == j) for k in range(n))
            terms[alpha] = terms.get(alpha, 0.0) + A[i][j]
    q = sym.SymbolPoly.from_terms(n, terms)
    return q * q


def _gaussian_i1(w, A, x):
    """int exp(i <x, xi> + w (1 + xi^T A xi)) dxi for Re w < 0:
    e^w pi^{n/2} (-w)^{-n/2} (det A)^{-1/2} exp(x^T A^{-1} x / (4 w))."""
    A = np.asarray(A)
    return (cmath.exp(w) * math.pi ** (len(A) / 2) * (-w) ** (-len(A) / 2)
            / math.sqrt(np.linalg.det(A)) * cmath.exp(x @ np.linalg.solve(A, x) / (4 * w)))


def _closed_form(kind, sign, t, x, A):
    """I1 at z = i s t - eps, and I2 = int_{-inf}^0 I1(z + u) du, since
    exp(z a) / a = int_{-inf}^0 exp((z + u) a) du for a = sqrt(P) >= 1."""
    z = 1j * sign * t - ORACLE_EPS
    if kind == "I1":
        return _gaussian_i1(z, A, x)
    re, im = (sum(quad(lambda u: part(_gaussian_i1(z + u, A, x)), lo, hi,
                       epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                  for lo, hi in ((-np.inf, -1.0), (-1.0, 0.0)))
              for part in (lambda v: v.real, lambda v: v.imag))
    return complex(re, im)


def _oracle_cases(method, groups):
    """(A, N, kind, sign, t, x) for every kind, sign and x in {0, off-axis}."""
    cases = []
    for name, A, N, ts, kinds in groups:
        n = len(A)
        for kind in kinds:
            for sign in (+1, -1):
                for t in ts:
                    for where in ("origin", "off-axis"):
                        x = (0.0,) * n if where == "origin" else ORACLE_X[:n]
                        cases.append(pytest.param(
                            A, N, kind, sign, t, x, id=f"{method}-{name}-{kind}{sign:+d}-t{t}-{where}"))
    return cases


def _aniso_truncation(param):
    # the lattice is cut where the damping reaches TAIL_TOL along each axis;
    # for this A part of the box edge is only damped to ~3.6e-13, and at
    # t = 0.1, x = (0.7, -1.3) that tail is 1.1e-12 / 1.6e-12 of |I1| = 0.233
    # (cut at eps = 0.08 instead: 5.9e-16)
    A, N, kind, sign, t, x = param.values
    if A == ANISO and kind == "I1" and t == 0.1 and any(x):
        return pytest.param(*param.values, id=param.id, marks=pytest.mark.xfail(
            strict=True, reason="axis-only lattice cut for a sheared quadratic form"))
    return param


@pytest.mark.parametrize("A, N, kind, sign, t, x", [_aniso_truncation(c) for c in _oracle_cases(
    "lattice", [("n2-folded", _eye(2), 512, (0.1, 1.0), K.KINDS),
                ("n2-unfolded", ANISO, 512, (0.1, 1.0), K.KINDS),
                # at t = 1, N = 128 is under-resolved (2.3e-5); N = 256 gives 6e-15
                ("n3", _eye(3), 128, (0.1, 0.5), ("I1",)),
                # the P^{-1/2} weight has poles at |xi|^2 = -1, which hold the
                # N = 128 trapezoid rule to ~5e-10
                ("n3", _eye(3), 256, (0.1, 0.5), ("I2",))])])
def test_lattice_matches_closed_form(A, N, kind, sign, t, x):
    cfg = K.QuadConfig(eps_list=(ORACLE_EPS,), order=0, lattice_N=N)
    x = np.array(x)
    exact = _closed_form(kind, sign, t, x, A)
    got = K.eval_damped(_squared_quadratic(A), kind, sign, t, x, ORACLE_EPS, cfg)
    assert abs(got - exact) <= 1e-12 * abs(exact)


def _radial_truncation(param):
    # R is where the damping reaches TAIL_TOL; at n = 5 the r^4 Jacobian leaves
    # I1 at x = 0 off by 4.2e-9 of |I1| at t = 20 and 1.3e-8 at t = 50 (every
    # other n = 5 case is within 1.4e-10)
    A, N, kind, sign, t, x = param.values
    if len(A) == 5 and kind == "I1" and t >= 20.0 and not any(x):
        return pytest.param(*param.values, id=param.id, marks=pytest.mark.xfail(
            strict=True, reason="cutoff ignores the r^(n-1) weight"))
    return param


@pytest.mark.parametrize("A, N, kind, sign, t, x", [_radial_truncation(c) for c in _oracle_cases(
    "radial", [(f"n{n}", _eye(n), None, (0.1, 1.0, 20.0, 50.0), K.KINDS)
               for n in (2, 3, 4, 5)])] + [
    # at n = 6 the r^5 Jacobian leaves a tail of 8e-10 (2.3e-7 of |I1| = 3.5e-3);
    # cut at eps = 0.08 instead: 2.1e-9
    pytest.param(_eye(6), None, "I1", sign, 20.0, (0.0,) * 6,
                 id=f"radial-n6-I1{sign:+d}-t20.0-origin",
                 marks=pytest.mark.xfail(strict=True, reason="cutoff ignores the r^(n-1) weight"))
    for sign in (+1, -1)])
def test_radial_matches_closed_form(A, N, kind, sign, t, x):
    cfg = K.QuadConfig(eps_list=(ORACLE_EPS,), order=0, method="radial")
    x = np.array(x)
    exact = _closed_form(kind, sign, t, x, A)
    got = K.eval_damped(_squared_quadratic(A), kind, sign, t, x, ORACLE_EPS, cfg)
    assert abs(got - exact) <= 1e-9 * abs(exact)


def test_extrapolation_robust_across_eps_lists():
    # two disjoint damping ladders must agree on the extrapolated value
    p = beam(4)
    cfg_a = K.QuadConfig(eps_list=(0.2, 0.1, 0.05, 0.025), order=3,
                         method="radial")
    cfg_b = K.QuadConfig(eps_list=(0.1, 0.05, 0.025, 0.0125), order=3,
                         method="radial")
    for t, c in [(1.0, 0.0), (4.0, 1.0)]:
        x = np.array([c * t, 0.0, 0.0, 0.0])
        a = K.eval_kernel(p, "I2", +1, t, x, cfg_a).value
        b = K.eval_kernel(p, "I2", +1, t, x, cfg_b).value
        assert abs(a - b) <= 1e-4 * abs(b)


def test_radial_rejects_nonradial_and_singular():
    cfg = replace(K.QuadConfig(), method="radial")
    with pytest.raises(K.KernelConfigError):
        K.eval_damped(sym.parse_symbol("1 + x1^4 + 2*x2^4", 2),
                      "I1", +1, 1.0, np.zeros(2), 0.1, cfg)
    with pytest.raises(K.KernelConfigError):
        K.eval_damped(sym.SymbolPoly.radial_power(2, 4),
                      "I2", +1, 1.0, np.zeros(2), 0.1, cfg)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", ["I1", "I2"])
def test_radial_positivity_rule_matches_lattice(n, kind):
    # P = 1 - 3 r^2 + r^4 < 0 on a shell: radial nodes raise where P is
    # smallest, as the lattice does, and report that node as r e1
    p = sym.parse_symbol("1 - 3*|x|^2 + |x|^4", n)
    cfg = replace(FAST, method="radial")
    with pytest.raises(LatticePositivityError) as err:
        K.eval_kernel(p, kind, +1, 1.0, np.zeros(n), cfg)
    r, *rest = err.value.point
    assert all(type(v) is float for v in err.value.point) and rest == [0.0] * (n - 1)
    assert 1.0 < r < 1.5 and err.value.value < 0.0


CRITERION_EPS = K.QuadConfig(eps_list=(0.2, 0.1, 0.05, 0.025), order=3, method="radial")


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("n, kind, t, r, scaled", [
    (4, "I2", 50.0, 0.0, False),
    (4, "I2", 3.0, 6.0, False),
    (2, "I1", 0.05, 0.25, True),
    (2, "I1", 0.5, 0.5, True),
])
def test_batched_radial_matches_per_eps_calls(n, kind, t, r, scaled, sign):
    # one node set for the whole damping list against one refinement chain per eps
    p = beam(n)
    cfg = K.scaled_config(CRITERION_EPS, t) if scaled else CRITERION_EPS
    x = np.zeros(n)
    x[0] = r
    batched, _ = K._damped_radial_values(p, kind, sign, t, x, cfg.eps_list)
    single = np.array([K.eval_damped(p, kind, sign, t, x, e, replace(cfg, method="radial"))
                       for e in cfg.eps_list])
    assert batched.shape == single.shape
    assert np.max(np.abs(batched - single) / np.abs(single)) <= 1e-11


def test_radial_rounding_level_values_stop_refining(monkeypatch):
    # at t = 2, |x| = 50 the eps = 0.2 and 0.1 values sit at rounding level,
    # where no relative test can pass: without the rounding floor the panels
    # double to RADIAL_MAX_PANELS (9 compositions from 1024 panels)
    calls = []
    angular = K._angular_factor

    def counted(n, rho):
        calls.append(rho.size)
        return angular(n, rho)

    monkeypatch.setattr(K, "_angular_factor", counted)
    got, _ = K._damped_radial_values(beam(4), "I2", +1, 2.0, np.array([50.0, 0.0, 0.0, 0.0]),
                                     (0.2, 0.1, 0.05))
    assert len(calls) <= 3
    # the same sample refined to RADIAL_MAX_PANELS = 2**18 panels
    full = [-2.70653139526598e-17 + 5.668589431905404e-16j,
            2.0598129770586154e-09 - 1.7233225552536075e-09j,
            1.8353999631050488e-06 - 6.149633309924513e-06j]
    assert np.max(np.abs(got - full)) <= 1e-16


def test_radial_sample_memory_budget_n4():
    # one criterion-09 sample at t = 50; the first call is outside the trace
    # so that lazily imported modules do not count
    p = beam(4)
    K.eval_kernel(p, "I2", +1, 1.0, np.zeros(4), CRITERION_EPS)
    tracemalloc.start()
    try:
        K.eval_kernel(p, "I2", +1, 50.0, np.array([100.0, 0.0, 0.0, 0.0]), CRITERION_EPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n, kind, t, r, scaled", [
    (4, "I2", 50.0, 0.0, False),
    (4, "I2", 50.0, 100.0, False),
    (4, "I2", 2.0, 50.0, False),  # stops on the rounding floor
    (2, "I1", 0.5, 0.5, True),
])
def test_radial_values_independent_of_block_size(monkeypatch, n, kind, t, r, scaled):
    # 2**10 nodes per block splits every composition of more than 64 panels;
    # the damped mass, like the values, must sum over all blocks
    p = beam(n)
    cfg = K.scaled_config(CRITERION_EPS, t) if scaled else CRITERION_EPS
    x = np.zeros(n)
    x[0] = r
    ref = K.eval_kernel(p, kind, +1, t, x, cfg)
    monkeypatch.setattr(K, "CHUNK_POINTS", 2**10)
    got = K.eval_kernel(p, kind, +1, t, x, cfg)
    assert got.meta["panels"] == ref.meta["panels"] > 64
    assert ref.meta["panels"] < K.RADIAL_MAX_PANELS
    assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
    assert got.err == pytest.approx(ref.err, rel=1e-6, abs=1e-12 * abs(ref.value))


def test_radial_sample_records_panel_count():
    # t = 50 at n = 4 starts from 2**13 panels (one per PANEL_PHASE of total
    # phase), so one doubling ends at 2**14
    s = K.eval_kernel(beam(4), "I2", +1, 50.0, np.zeros(4), CRITERION_EPS)
    assert s.meta["panels"] == 2**14


def test_radial_sample_loads_no_scipy():
    # n = 2, I1 at |x| = 0.5 runs J_0 (rho up to 9: series and recurrence);
    # n = 4, I2 at |x| = 3 runs J_1 in all three regimes (rho up to 54).
    # Radiality is read from P's terms, so no sphere probe loads numpy.random.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy as np; from ddlab import kernel as K, symbol as sym; "
            "cfg = K.QuadConfig(eps_list=(0.2, 0.1), order=1, method='radial'); "
            "K.eval_kernel(sym.parse_symbol('1 + |x|^4', 2), 'I1', +1, 0.5, "
            "np.array([0.5, 0.0]), cfg); "
            "K.eval_kernel(sym.parse_symbol('1 + |x|^4', 4), 'I2', -1, 2.0, "
            "np.array([3.0, 0.0, 0.0, 0.0]), cfg); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[] False"


def test_radial_closed_form_homogeneous():
    # sqrt(P) = r^2 for P = |x|^4, n = 2: the damped integral is exactly
    # pi/(eps - i s t) exp(-|x|^2 / (4 (eps - i s t)))
    p = sym.SymbolPoly.radial_power(2, 4)
    for (t, r, eps) in [(1.0, 0.0, 0.1), (2.0, 1.0, 0.05), (0.5, 2.0, 0.2)]:
        for sign in (+1, -1):
            z = eps - 1j * sign * t
            exact = np.pi / z * np.exp(-r * r / (4 * z))
            got = K.eval_damped(p, "I1", sign, t, np.array([r, 0.0]), eps,
                                replace(K.QuadConfig(), method="radial"))
            assert got == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_angular_factor_matches_generic_bessel(n):
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    nu = n / 2.0 - 1.0
    # every regime up to rho = 1e4, and each regime limit with its neighbours one ulp away
    edges = np.array([K.BESSEL_SERIES_MAX, K.BESSEL_HANKEL_MIN])
    rho = np.sort(np.concatenate([[1e-9], np.geomspace(1e-6, 1e4, 500), edges,
                                  np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]))
    if n == 1:
        bessel = np.sqrt(2.0 / (np.pi * rho)) * np.cos(rho)  # J_{-1/2}
    elif n % 2:
        # J_{l+1/2}(rho) = sqrt(2 rho / pi) j_l(rho); scipy's jv is off by up to
        # 2.4e-14 of the amplitude at half-integer orders, 3.6e-13 of this
        # envelope at n = 7
        bessel = np.sqrt(2.0 * rho / np.pi) * spherical_jn(n // 2 - 1, rho)
    else:
        bessel = jv(nu, rho)
    generic = (2.0 * np.pi) ** (n / 2.0) * rho ** (-nu) * bessel
    # |factor| <= |S^{n-1}| and decays like rho^{(1-n)/2}
    magnitude = sphere * np.minimum(1.0, rho ** ((1.0 - n) / 2.0))
    got = K._angular_factor(n, rho)
    assert np.max(np.abs(got - generic) / magnitude) <= 1e-13
    with pytest.raises(ValueError):  # the regimes are slices of ascending rho
        K._angular_factor(n, rho[::-1])
    zeros = K._angular_factor(n, np.zeros((3, 2)))
    assert zeros.shape == (3, 2)
    assert np.all(zeros == sphere)


def test_gauss_legendre_rule():
    nodes, weights = K._gauss_legendre()
    assert nodes.size == weights.size == K.GAUSS_POINTS
    # exact for polynomials of degree <= 2 GAUSS_POINTS - 1
    for k in range(2 * K.GAUSS_POINTS):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(weights, nodes ** k) - exact) <= 1e-15, k
    ref_nodes, ref_weights = roots_legendre(K.GAUSS_POINTS)
    assert np.max(np.abs(nodes - ref_nodes)) <= 3e-15
    assert np.max(np.abs(weights - ref_weights)) <= 3e-15
    # ascending nodes keep each block of radial nodes sorted for _normalised_bessel
    assert np.all(np.diff(nodes) > 0)
    # PANEL_PHASE's premise: one panel integrates e^{i phi} over a span of
    # PANEL_PHASE (4 pi), phi = (PANEL_PHASE / 2) (node + 1) on [-1, 1]
    half = K.PANEL_PHASE / 2.0
    exact = (cmath.exp(2j * half) - 1.0) / (1j * half)
    assert abs(np.dot(weights, np.exp(1j * half * (nodes + 1.0))) - exact) <= 1e-14


# ---------------------------------------------------------------------------
# extrapolation and sample plumbing
# ---------------------------------------------------------------------------

def test_extrapolate_polynomial_exact():
    eps = [0.4, 0.2, 0.1, 0.05]
    vals = [3.0 - 2.0 * e + 5.0 * e**2 for e in eps]
    out, stab = K.extrapolate_to_zero(eps, vals, 3)
    assert out == pytest.approx(3.0, abs=1e-12)


def test_eval_kernel_error_estimate_invariant():
    p = beam()
    s = K.eval_kernel(p, "I1", +1, 0.5, np.array([0.5, 0.0]),
                      K.QuadConfig(eps_list=(0.2, 0.1, 0.05), order=2,
                                   lattice_N=512))
    fine = K.eval_damped(p, "I1", +1, 0.5, np.array([0.5, 0.0]), 0.05,
                         K.QuadConfig(eps_list=(0.05,), lattice_N=512, order=0))
    assert s.err >= abs(fine - s.value) - 1e-12
    assert not s.flagged


def test_finest_eps_lattice_matches_radial():
    # the lattice sum at the finest eps of an eval_kernel config against the
    # radial reduction at that eps
    cfg = K.QuadConfig(eps_list=(0.2, 0.1), order=1, lattice_N=512)
    x = np.array([0.5, 0.0])
    fine, _, _ = K._lattice_sums(beam(), "I1", +1, 0.5, x, cfg.eps_list, cfg)
    radial = K.eval_damped(beam(), "I1", +1, 0.5, x, cfg.eps_list[-1], replace(cfg, method="radial"))
    assert abs(fine[-1] - radial) < 1e-8


def test_scaled_config_shrinks_damping_below_unit_time():
    cfg = K.scaled_config(FAST, 0.1)
    assert cfg.eps_list == tuple(0.1 * e for e in FAST.eps_list)
    assert K.scaled_config(FAST, 2.0) is FAST


def test_samples_csv_header(tmp_path):
    s = K.KernelSample("I1", +1, 0.5, (0.0, 0.0), 1 + 2j, 1e-9)
    path = tmp_path / "samples.csv"
    K.samples_to_csv(path, [s])
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,sign,t,x1,x2,re,im,err"
    assert lines[1].startswith("I1,+1,0.5,")


# ---------------------------------------------------------------------------
# envelope exponents / bound reports
# ---------------------------------------------------------------------------

def test_envelope_exponent_table():
    mu, nu = K.mu_nu(4, 6)
    assert mu == Fraction(2) and nu == Fraction(1)
    # I2 small-time exponent -(n - m/2)/(m/2) for (4, 6) is -2
    small = K.envelope_exponents("I2", 4, 6)["small"]
    assert small[0] == Fraction(-2)
    # I1 with m = 4 has no spatial envelope
    for regime in ("small", "large"):
        assert K.envelope_exponents("I1", 4, 6)[regime][2] == 0
    # I1 small-time time power is -n/(m/2)
    assert K.envelope_exponents("I1", 4, 2)["small"][0] == Fraction(-1)
    # every envelope divides by m - 2
    for m in (0, 2):
        with pytest.raises(K.KernelConfigError) as err:
            K.envelope_exponents("I1", m, 2)
        assert err.value.field == "poly"


def test_check_bound_reports_header_and_regimes():
    samples = [K.KernelSample("I2", +1, t, (x, 0.0), 0.5 + 0j, 1e-8)
               for t in (0.5, 2.0) for x in (0.0, 1.0)]
    rep = K.check_bound(samples, beam())
    assert rep.mu == Fraction(2) and rep.nu == Fraction(-1)
    assert {r.regime for r in rep.regimes} == {"small", "large"}
    assert any("n >= m" in note for note in rep.notes)  # n=2 < m=4 caveat
    d = K.bound_report_dict(rep)
    assert d["mu"] == "2/1"


def test_check_bound_empty_regime_no_data():
    samples = [K.KernelSample("I1", +1, 0.3, (0.0, 0.0), 1.0 + 0j, 1e-8)]
    rep = K.check_bound(samples, beam())
    large = [r for r in rep.regimes if r.regime == "large"][0]
    assert large.no_data and large.c_emp is None


def test_check_bound_rejects_mixed_kinds():
    a = K.KernelSample("I1", +1, 0.3, (0.0, 0.0), 1.0 + 0j, 1e-8)
    b = K.KernelSample("I2", +1, 0.3, (0.0, 0.0), 1.0 + 0j, 1e-8)
    with pytest.raises(K.KernelConfigError):
        K.check_bound([a, b], beam())


def test_saturation_drift_flat_and_growing():
    keys = np.geomspace(1, 100, 20)
    flat = np.ones(20)
    assert K.saturation_drift(keys, flat) == 0.0
    growing = np.linspace(1, 2, 20)
    assert K.saturation_drift(keys, growing) > 0.05


def test_spatial_envelope_no_upward_drift():
    # fixed t >= 1, |x| increasing along a ray at n = m = 4:
    # |I2| (1 + |x|/t)^mu stays bounded with no late upward drift
    p = beam(4)
    cfg = K.QuadConfig(eps_list=(0.2, 0.1, 0.05), order=2, method="radial")
    t = 2.0
    rs = np.geomspace(0.5, 50.0, 7)
    ratios = []
    for r in rs:
        s = K.eval_kernel(p, "I2", +1, t, np.array([r, 0.0, 0.0, 0.0]), cfg)
        ratios.append(abs(s.value) * (1 + r / t) ** 2)
    assert K.saturation_drift(rs, np.array(ratios)) <= 0.05


# ---------------------------------------------------------------------------
# scaling identity
# ---------------------------------------------------------------------------

def test_scaling_exponents_arithmetic():
    # I2 prefactor for (m, n) = (4, 2) is t^0: amplitude-invariant rescale
    pre, arg = K.scaling_exponents("I2", 4, 2)
    assert pre == 0 and arg == Fraction(-1, 2)
    pre1, _ = K.scaling_exponents("I1", 4, 2)
    assert pre1 == Fraction(-1)


def test_scaling_identity_trivial_at_t1():
    p = sym.SymbolPoly.radial_power(2, 4)
    cfg = K.QuadConfig(eps_list=(0.2, 0.1), order=1, method="radial")
    dev = K.scaling_check(p, "I1", [1.0], [np.zeros(2)], cfg)
    assert dev == 0.0


def test_scaling_identity_numeric():
    p = sym.SymbolPoly.radial_power(2, 4)
    cfg = K.QuadConfig(eps_list=(0.2, 0.1, 0.05), order=2, method="radial")
    dev = K.scaling_check(p, "I1", [2.0, 4.0],
                          [np.zeros(2), np.array([1.0, 0.0])], cfg)
    assert dev <= 1e-3


def test_scaling_rejects_inhomogeneous():
    with pytest.raises(K.KernelConfigError):
        K.scaling_check(beam(), "I1", [2.0], [np.zeros(2)], FAST)
