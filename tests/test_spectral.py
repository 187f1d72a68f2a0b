import math

import numpy as np
import pytest

from ddlab import decay
from ddlab import spectral as sp
from ddlab import symbol as sym


def beam(n=2):
    return sym.parse_symbol("1 + |x|^4", n)


def random_state(g, seed=0):
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u1 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return u0, u1


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_unit_spacing():
    g = sp.make_grid(2, 8, math.pi)
    assert g.npoints == 64
    assert g.xi_axis[1] - g.xi_axis[0] == pytest.approx(1.0)


def test_grid_xi_max():
    g = sp.make_grid(2, 256, 32.0)
    assert np.max(np.abs(g.xi_axis)) == pytest.approx(4 * math.pi)


def test_grid_memory_cap():
    with pytest.raises(sp.GridError):
        sp.make_grid(3, 4096, 1.0)


def test_grid_validation():
    with pytest.raises(sp.GridError):
        sp.make_grid(2, 100, 1.0)  # not a power of two
    with pytest.raises(sp.GridError):
        sp.make_grid(2, 64, -1.0)
    for L in (math.inf, math.nan):
        with pytest.raises(sp.GridError, match="positive and finite"):
            sp.make_grid(2, 64, L)


@pytest.mark.parametrize("n, N, L, field", [
    (0, 64, 1.0, "n"), (2, 100, 1.0, "N"), (3, 4096, 1.0, "N"), (2, 64, -1.0, "L"),
    (2, 64, math.nan, "L"),
    (2, 64, 1e200, "L"),  # (2L/N)^n overflows
    (2, 64, 1e-300, "L"),  # (2L/N)^n underflows to 0
])
def test_grid_errors_name_their_field(n, N, L, field):
    with pytest.raises(sp.GridError) as err:
        sp.make_grid(n, N, L)
    assert err.value.field == field


def test_fields_that_do_not_fit_the_grid_rejected():
    g = sp.make_grid(2, 16, 4.0)
    p = beam()
    good = np.ones(g.shape)
    qr = decay.ExponentQuery("V", "small", 2, 2, 4, 2, "multiplier")
    for f, message in ((np.ones((16, 8)), "do not match the grid shape"),
                       (np.full(g.shape, np.nan), "non-finite entries")):
        for call in (lambda: sp.propagate(f, good, 1.0, p, g),
                     lambda: sp.energy(sp.WaveState(0.0, good, f), p, g),
                     lambda: decay.verify_lp_lq(p, qr, g, data=[("bad", f)])):
            with pytest.raises(sp.GridError, match=message) as err:
                call()
            assert err.value.field is None


def test_frequency_lattice_symmetric_up_to_nyquist():
    g = sp.make_grid(1, 16, 2.0)
    xi = np.sort(g.xi_axis)
    # one Nyquist row at -pi N / (2L); the rest mirror exactly
    assert xi[0] == pytest.approx(-g.xi_max)
    body = xi[1:]
    assert np.allclose(body, -body[::-1])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_t0_is_identity():
    g = sp.make_grid(2, 32, 8.0)
    u0, u1 = random_state(g)
    st = sp.propagate(u0, u1, 0.0, beam(), g)
    assert np.max(np.abs(st.u - u0)) < 1e-13 * np.max(np.abs(u0))
    assert np.max(np.abs(st.ut - u1)) < 1e-13 * np.max(np.abs(u1))


def test_propagate_cosine_part_even_in_time():
    g = sp.make_grid(2, 32, 8.0)
    u0, _ = random_state(g, 1)
    zero = np.zeros(g.shape, complex)
    fwd = sp.propagate(u0, zero, 1.3, beam(), g)
    bwd = sp.propagate(u0, zero, -1.3, beam(), g)
    assert np.max(np.abs(fwd.u - bwd.u)) < 1e-12 * np.max(np.abs(fwd.u))
    assert np.max(np.abs(fwd.ut + bwd.ut)) < 1e-12 * max(1e-300, np.max(np.abs(fwd.ut)))


def test_propagate_single_mode_closed_form():
    g = sp.make_grid(2, 64, math.pi)
    p = beam()
    k = np.array([1.0, 2.0])
    xs = g.x_grids()
    u0 = np.exp(1j * (k[0] * xs[0] + k[1] * xs[1]))
    zero = np.zeros(g.shape, complex)
    for t in (0.3, 1.7, 4.0):
        st = sp.propagate(u0, zero, t, p, g)
        w = math.sqrt(p.evaluate(k))
        assert np.max(np.abs(st.u - math.cos(w * t) * u0)) < 1e-12


PART_SYMBOLS = {
    "even-axes": "1 + |x|^4",  # real transforms on the half lattice
    "even-degree": "1 + |x|^4 + x1*x2",  # -N/2 is its own mirror: complex transforms
    "odd": "1 + |x|^4 + x1^3",
}


@pytest.mark.parametrize("data", ["real", "complex"])
@pytest.mark.parametrize("symbol", PART_SYMBOLS)
def test_propagate_parts_recombine(symbol, data):
    # both data at both times: each (t, datum) pair recombines on its own
    g = sp.make_grid(2, 32, 8.0)
    p = sym.parse_symbol(PART_SYMBOLS[symbol], 2)
    u0, u1 = random_state(g, 7)
    if data == "real":
        u0, u1 = u0.real, u1.real
    ts = [0.3, 1.2]
    cos_parts = sp.propagate_part(sp.data_transforms(g, [u0, u1]), ts, p, g, "U")
    sin_parts = sp.propagate_part(sp.data_transforms(g, [u1, u0]), ts, p, g, "V")
    for t in ts:
        for a, b in ((u0, u1), (u1, u0)):
            u = sp.propagate(a, b, t, p, g).u
            recombine_err = np.max(np.abs(u - (next(cos_parts) + next(sin_parts))))
            assert recombine_err < 1e-14 * np.max(np.abs(u))


def test_one_dimensional_probe_grid():
    p = sym.parse_symbol("1 + x1^4", 1)
    g = sp.make_grid(1, 64, 8.0)
    u0, u1 = random_state(g, 4)
    e0 = sp.energy(sp.WaveState(0.0, u0, u1), p, g)
    st = sp.propagate(u0, u1, 5.0, p, g)
    assert sp.energy(st, p, g) == pytest.approx(e0, rel=1e-12)


def test_propagate_rejects_nonpositive_symbol():
    g = sp.make_grid(2, 16, 4.0)
    hom = sym.SymbolPoly.radial_power(2, 4)  # P(0) = 0
    u0 = np.ones(g.shape, complex)
    with pytest.raises(sp.LatticePositivityError) as err:
        sp.propagate(u0, u0, 1.0, hom, g)
    assert err.value.point == (0.0, 0.0)


def test_norm_contraction_cosine_part():
    g = sp.make_grid(2, 32, 8.0)
    p = beam()
    zero = np.zeros(g.shape, complex)
    rng = np.random.default_rng(2)
    for i in range(100):
        u0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        st = sp.propagate(u0, zero, 0.7, p, g)
        n_t = np.sqrt(np.sum(np.abs(st.u) ** 2))
        n_0 = np.sqrt(np.sum(np.abs(u0) ** 2))
        assert n_t <= n_0 * (1 + 1e-12)


def test_group_property():
    g = sp.make_grid(2, 64, 10.0)
    p = beam()
    u0, u1 = random_state(g, 5)
    st1 = sp.propagate(u0, u1, 1.1, p, g)
    st2 = sp.propagate(st1.u, st1.ut, 2.4, p, g)
    direct = sp.propagate(u0, u1, 3.5, p, g)
    scale = np.max(np.abs(direct.u))
    assert np.max(np.abs(st2.u - direct.u)) < 1e-10 * scale
    assert st2.t == pytest.approx(2.4)


def test_fft_roundtrip():
    rng = np.random.default_rng(9)
    f = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    back = np.fft.ifftn(np.fft.fftn(f))
    assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_state():
    g = sp.make_grid(2, 16, 4.0)
    zero = np.zeros(g.shape, complex)
    assert sp.energy(sp.WaveState(0.0, zero, zero), beam(), g) == 0.0


def test_energy_single_mode_closed_form():
    g = sp.make_grid(2, 64, math.pi)
    p = beam()
    k = np.array([2.0, 1.0])
    xs = g.x_grids()
    u0 = np.exp(1j * (k[0] * xs[0] + k[1] * xs[1]))
    zero = np.zeros(g.shape, complex)
    expected = p.evaluate(k) * (2 * math.pi) ** 2
    for t in (0.0, 0.9, 7.7):
        st = sp.propagate(u0, zero, t, p, g)
        assert sp.energy(st, p, g) == pytest.approx(expected, rel=1e-12)


def test_energy_conserved_on_random_data():
    g = sp.make_grid(2, 64, 10.0)
    p = beam()
    u0, u1 = random_state(g, 8)
    e0 = sp.energy(sp.WaveState(0.0, u0, u1), p, g)
    for t in (0.1, 1.0, 10.0, 100.0):
        st = sp.propagate(u0, u1, t, p, g)
        assert abs(sp.energy(st, p, g) - e0) / e0 < 1e-10


# ---------------------------------------------------------------------------
# diagnostics and I/O
# ---------------------------------------------------------------------------

def test_spectral_tail_fraction_of_smooth_data():
    g = sp.make_grid(2, 128, 16.0)
    xs = g.x_grids()
    gauss = np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 4.0)
    assert sp.spectral_tail_fraction(np.fft.fftn(gauss), g) < 1e-10


def test_box_clearance_detects_edge_mass():
    g = sp.make_grid(2, 64, 8.0)
    xs = g.x_grids()
    centered = np.exp(-(xs[0] ** 2 + xs[1] ** 2))
    shifted = np.exp(-((xs[0] - 7.5) ** 2 + xs[1] ** 2))
    assert sp.box_clearance(sp.abs_squared(centered), g) > 0.999999
    assert sp.box_clearance(sp.abs_squared(shifted), g) < 0.5


def test_symbol_that_overflows_on_the_lattice_names_L():
    # xi_max = pi N/(2L) ~ 1e152 for L = 1e-150, so |xi|^4 overflows; each
    # path that takes sqrt(P) on a grid refuses it, with no RuntimeWarning
    g = sp.make_grid(2, 16, 1e-150)
    p = sym.parse_symbol("1 + |x|^4", 2)
    u0 = np.ones(g.shape)
    spectra = sp.data_transforms(g, [u0])
    for call in (lambda: sp.propagate(u0, u0, 1.0, p, g),
                 lambda: next(sp.propagate_part(spectra, [1.0], p, g, "U")),
                 lambda: next(sp.propagate_part(spectra, [1.0], p + sym.parse_symbol("x1", 2),
                                                g, "V")),
                 lambda: sp.energy(sp.WaveState(0.0, u0, u0), p, g)):
        with pytest.raises(sp.GridError) as err:
            call()
        assert err.value.field == "L"
