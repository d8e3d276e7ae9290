import numpy as np
import pytest
import scipy.fft as sfft

from hartree_lab.grid import (FOUR_PI, FieldState, RadialField, RadialGrid,
                              dst1, dst_coeffs, l2_norm_sq, load_field_csv,
                              lp_norm, mass_in_ball, save_field_csv)
from hartree_lab.groundstate import coeff_laplacian
from oracles import (quad_1d, random_smooth_field, sine_series_reference,
                     weighted_rel_err)


def gaussian_field(grid, a=0.5):
    return RadialField(grid, np.exp(-a * grid.nodes**2))


def joined(rows):
    """The complex vector whose real rows (re, im) a FieldState holds."""
    return rows[0] + 1j * rows[1]


def test_grid_construction():
    g = RadialGrid(40.0, 511)
    assert g.dr == pytest.approx(40.0 / 512)
    assert g.nodes[0] == pytest.approx(g.dr)
    assert np.all(np.diff(g.nodes) > 0)
    # Riemann-sum consistency with the ball volume (within 1%)
    assert g.weights.sum() == pytest.approx(FOUR_PI / 3 * 40.0**3, rel=0.01)


def test_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        RadialGrid(40.0, 16)


def test_l2_zero_and_gaussian():
    g = RadialGrid(12.0, 2047)
    assert l2_norm_sq(RadialField(g, np.zeros(g.n))) == 0.0
    f = gaussian_field(g)  # |f|^2 = exp(-r^2), integral pi^(3/2)
    assert l2_norm_sq(f) == pytest.approx(np.pi**1.5, rel=1e-6)


def test_l2_sharp_ball():
    # ball edge aligned with a cell boundary: 1/dr = 51.5
    g = RadialGrid(40.0, 2059)
    f = RadialField(g, (g.nodes <= 1.0).astype(complex))
    assert abs(l2_norm_sq(f) - FOUR_PI / 3) <= 2 * g.dr


def test_grad_norm_gaussian():
    g = RadialGrid(12.0, 2047)
    f = RadialField(g, np.exp(-g.nodes**2 / 2))
    exact = 1.5 * np.pi**1.5  # int |grad e^{-r^2/2}|^2 = int r^2 e^{-r^2}
    assert FieldState(f).grad_sq == pytest.approx(exact, rel=1e-12)
    assert FieldState(RadialField(g, np.zeros(g.n))).grad_sq == 0.0


def test_grad_scaling_law():
    # f_lam(r) = f(lam r) has |grad f_lam|^2 = lam^{-1} |grad f|^2
    g = RadialGrid(30.0, 1023)
    lam = 1.7
    f = RadialField(g, np.exp(-g.nodes**2 / 2))
    flam = RadialField(g, np.exp(-(lam * g.nodes) ** 2 / 2))
    assert FieldState(flam).grad_sq == pytest.approx(
        FieldState(f).grad_sq / lam, rel=1e-10)


def test_mass_in_ball():
    g = RadialGrid(20.0, 511)
    f = gaussian_field(g)
    assert mass_in_ball(f, g.r_max) == pytest.approx(l2_norm_sq(f), rel=1e-14)
    # support beyond R contributes nothing
    shell = RadialField(g, np.exp(-((g.nodes - 10) / 0.5) ** 2))
    assert mass_in_ball(shell, 5.0) <= 1e-20
    # monotone in R
    vals = [mass_in_ball(f, R) for R in (1.0, 2.0, 5.0, 10.0)]
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(ValueError):
        mass_in_ball(f, 25.0)
    # Gaussian vs independent 1D quadrature, up to the cell boundary the
    # discrete ball actually represents
    got = mass_in_ball(f, 1.0)
    r_eff = (np.floor(1.0 / g.dr) + 0.5) * g.dr
    want = FOUR_PI * quad_1d(lambda s: s**2 * np.exp(-2 * 0.5 * s**2), 0, r_eff)
    assert got == pytest.approx(want, rel=1e-4)


def test_lp_norm():
    g = RadialGrid(40.0, 2059)
    f = gaussian_field(g)
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(l2_norm_sq(f)), rel=1e-14)
    ball = RadialField(g, (g.nodes <= 1.0).astype(complex))
    p = 3.7
    assert lp_norm(ball, p) == pytest.approx((FOUR_PI / 3) ** (1 / p), rel=1e-3)
    # Hoelder sanity: |f|_4 <= |f|_2^(1/2) |f|_inf^(1/2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = random_smooth_field(g, rng)
        fld = RadialField(g, v.astype(complex))
        l2 = np.sqrt(l2_norm_sq(fld))
        assert lp_norm(fld, 4.0) <= np.sqrt(l2 * lp_norm(fld, np.inf)) * (1 + 1e-12)


def test_quadrature_refinement():
    vals = []
    for n in (511, 1023):
        g = RadialGrid(12.0, n)
        vals.append(l2_norm_sq(gaussian_field(g)))
    dr = 12.0 / 512
    assert abs(vals[1] - vals[0]) <= 10.0 * dr**2


def test_dst_parseval_roundtrip():
    g = RadialGrid(40.0, 1023)
    rng = np.random.default_rng(1)
    v = random_smooth_field(g, rng) + 1j * random_smooth_field(g, rng)
    f = RadialField(g, v)
    c = dst_coeffs(f)
    vsum = np.sum(np.abs(g.nodes * f.values) ** 2)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(vsum, rel=1e-12)
    back = sfft.dst(c, type=1, norm="ortho") / g.nodes
    assert np.max(np.abs(back - v)) < 1e-12 * np.max(np.abs(v))


def test_complex_dst_as_two_columns():
    # one two-column real transform gives scipy's complex DST-I bit for bit
    rng = np.random.default_rng(13)
    for n in (383, 2047):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = (sfft.dst(x.real, type=1, norm="ortho")
                + 1j * sfft.dst(x.imag, type=1, norm="ortho"))
        assert np.array_equal(dst1(x), want)
        assert np.array_equal(dst1(x), sfft.dst(x, type=1, norm="ortho"))


def test_fused_value_and_derivative():
    # white-noise coefficients: every mode up to k_max carries weight, so
    # v' = sum c k cos is about k_max times larger than v.  The tight value
    # bound is the one the balancing of the packed cosine sum keeps: with
    # the raw k its error measured 6e-14 here.
    g = RadialGrid(10.0, 2047)
    rng = np.random.default_rng(14)
    for _ in range(3):
        c = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        u_ref, du_ref = sine_series_reference(c, g.wavenumbers, g.nodes)
        st = FieldState.from_coeffs(g, c)
        assert weighted_rel_err(g, joined(st.u_rows), u_ref) <= 1e-14
        assert weighted_rel_err(g, joined(st.du_rows), du_ref) <= 1e-13
        # the complex field on demand holds the rows bit for bit
        assert np.array_equal(st.u.values, joined(st.u_rows))
        # starting from u instead of c: the same u' through the forward DST
        from_u = FieldState(RadialField(g, u_ref))
        assert weighted_rel_err(g, joined(from_u.du_rows), du_ref) <= 1e-13
    zero = FieldState.from_coeffs(g, np.zeros(g.n, dtype=complex))
    assert not np.any(zero.u.values) and not np.any(zero.du_rows)


def test_laplacian_eigenfunction():
    g = RadialGrid(10.0, 255)
    k = 3 * np.pi / g.r_max
    f = RadialField(g, np.sin(k * g.nodes) / g.nodes)
    lap = coeff_laplacian(g, dst_coeffs(f).real)
    assert np.max(np.abs(lap + k**2 * f.values)) < 1e-10


def test_spectral_derivative():
    g = RadialGrid(12.0, 511)
    f = RadialField(g, np.exp(-g.nodes**2 / 2))
    exact = -g.nodes * np.exp(-g.nodes**2 / 2)
    assert np.max(np.abs(joined(FieldState(f).du_rows) - exact)) < 1e-11


def test_radial_sobolev_linf_audit():
    # |r^s f|_inf / |f|_{H^1} bounded over a random corpus, s in {1/2, 1}
    g = RadialGrid(30.0, 1023)
    rng = np.random.default_rng(3)
    for s in (0.5, 1.0):
        ratios = []
        for _ in range(50):
            v = random_smooth_field(g, rng)
            f = RadialField(g, v.astype(complex))
            num = np.max(g.nodes**s * np.abs(v))
            ratios.append(num / np.sqrt(l2_norm_sq(f) + FieldState(f).grad_sq))
        assert max(ratios) < 3.0  # bounded; constant not pinned


def test_radial_sobolev_lp_tail_audit():
    # |f|^{p+1}_{L^{p+1}(r>=R)} <~ R^{1-p} |f|_{L2}^{(p+3)/2} |grad f|^{(p-1)/2}
    g = RadialGrid(30.0, 1023)
    rng = np.random.default_rng(4)
    p = 3.0
    ratios = []
    for _ in range(25):
        v = random_smooth_field(g, rng)
        f = RadialField(g, v.astype(complex))
        for R in (4.0, 8.0):
            sel = g.nodes >= R
            lhs = np.sum(g.weights[sel] * np.abs(v[sel]) ** (p + 1))
            l2 = np.sqrt(np.sum(g.weights[sel] * v[sel] ** 2))
            gr = np.sqrt(FieldState(f).grad_sq)
            rhs = R ** (1 - p) * l2 ** ((p + 3) / 2) * gr ** ((p - 1) / 2)
            if rhs > 1e-14:
                ratios.append(lhs / rhs)
    assert max(ratios) < 10.0


def test_field_csv_roundtrip(tmp_path):
    g = RadialGrid(15.0, 255)
    f = RadialField(g, np.exp(-g.nodes**2) * (1 + 0.5j))
    path = tmp_path / "field.csv"
    save_field_csv(f, path)
    assert np.array_equal(load_field_csv(path, g).values, f.values)  # repr round-trip is exact
    with pytest.raises(ValueError, match="does not match"):
        load_field_csv(path, RadialGrid(16.0, 255))


def test_field_validation():
    g = RadialGrid(20.0, 255)
    with pytest.raises(ValueError):
        RadialField(g, np.zeros(17))
