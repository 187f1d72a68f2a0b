import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from ddlab import kernel as K
from ddlab import symbol as sym
from ddlab.spectral import LatticePositivityError


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

def test_is_radial():
    assert K.is_radial(beam())
    assert not K.is_radial(sym.parse_symbol("1 + |x|^4 + x1^2", 2))


def test_lattice_matches_radial_oracle():
    p = beam()
    cfg = K.QuadConfig(eps_list=(0.1,), lattice_N=1024, order=0)
    pairs = [(t, r) for t in (0.25, 0.5, 1.0) for r in (0.0, 0.8, 1.6)]
    for t, r in pairs:
        x = np.array([r, 0.0])
        lat = K.eval_damped(p, "I1", +1, t, x, 0.1, cfg)
        rad = K.eval_damped_radial(p, "I1", +1, t, x, 0.1, cfg)
        assert abs(lat - rad) <= 1e-6 * max(abs(lat), abs(rad))


def test_lattice_matches_radial_oracle_3d():
    p = beam(3)
    cfg = K.QuadConfig(eps_list=(0.2,), lattice_N=160, order=0)
    for t, r in [(0.5, 0.0), (0.5, 1.0)]:
        x = np.array([r, 0.0, 0.0])
        lat = K.eval_damped(p, "I1", +1, t, x, 0.2, cfg)
        rad = K.eval_damped_radial(p, "I1", +1, t, x, 0.2, cfg)
        assert abs(lat - rad) <= 1e-8 * abs(rad)


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
    cfg = K.QuadConfig()
    with pytest.raises(K.KernelConfigError):
        K.eval_damped_radial(sym.parse_symbol("1 + x1^4 + 2*x2^4", 2),
                             "I1", +1, 1.0, np.zeros(2), 0.1, cfg)
    with pytest.raises(K.KernelConfigError):
        K.eval_damped_radial(sym.SymbolPoly.radial_power(2, 4),
                             "I2", +1, 1.0, np.zeros(2), 0.1, cfg)


def test_radial_closed_form_homogeneous():
    # sqrt(P) = r^2 for P = |x|^4, n = 2: the damped integral is exactly
    # pi/(eps - i t) exp(-|x|^2 / (4 (eps - i t)))
    p = sym.SymbolPoly.radial_power(2, 4)
    for (t, r, eps) in [(1.0, 0.0, 0.1), (2.0, 1.0, 0.05), (0.5, 2.0, 0.2)]:
        z = eps - 1j * t
        exact = np.pi / z * np.exp(-r * r / (4 * z))
        got = K.eval_damped_radial(p, "I1", +1, t, np.array([r, 0.0]), eps,
                                   K.QuadConfig())
        assert got == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_angular_factor_matches_generic_bessel(n):
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    nu = n / 2.0 - 1.0
    rho = np.concatenate([[1e-9], np.geomspace(1e-6, 1e3, 400)])
    generic = (2.0 * np.pi) ** (n / 2.0) * rho ** (-nu) * jv(nu, rho)
    # |factor| <= |S^{n-1}| and decays like rho^{(1-n)/2}
    magnitude = sphere * np.minimum(1.0, rho ** ((1.0 - n) / 2.0))
    got = K._angular_factor(n, rho)
    assert np.max(np.abs(got - generic) / magnitude) <= 1e-13
    zeros = K._angular_factor(n, np.zeros((3, 2)))
    assert zeros.shape == (3, 2)
    assert np.all(zeros == sphere)


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


def test_oracle_toggle_records_cross_check():
    cfg = K.QuadConfig(eps_list=(0.2, 0.1), order=1, lattice_N=512,
                       use_oracle=True)
    s = K.eval_kernel(beam(), "I1", +1, 0.5, np.array([0.5, 0.0]), cfg)
    assert "oracle_delta" in s.meta
    assert s.meta["oracle_delta"] < 1e-8


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
