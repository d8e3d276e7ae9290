import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad
from scipy.special import erf, gamma as gamma_fn

from hartree_lab.grid import FOUR_PI, FieldState, RadialField, RadialGrid
from hartree_lab.morawetz import radial_cutoff
from hartree_lab.riesz import build_kernel
from hartree_lab.grid import lp_norm
from oracles import (kernel_value, mc_riesz_potential, newton_ball_potential,
                     random_smooth_field, sine_series_reference, weighted_rel_err)


def test_kernel_value_formulas():
    # gamma = 2 reduces to Newton's 4*pi/max(r,s)
    for r, s in ((0.5, 2.0), (3.0, 1.0), (2.0, 2.5)):
        assert kernel_value(2.0, r, s) == pytest.approx(FOUR_PI / max(r, s), rel=1e-13)
    # gamma = 1 log form: k(1,2) = pi log 3
    assert kernel_value(1.0, 1.0, 2.0) == pytest.approx(np.pi * np.log(3.0), rel=1e-13)
    # symmetry and positivity
    rng = np.random.default_rng(2)
    for _ in range(50):
        gamma = rng.uniform(0.1, 2.9)
        r, s = rng.uniform(0.1, 30, 2)
        if abs(r - s) < 1e-3:
            continue
        k1 = kernel_value(gamma, r, s)
        assert k1 == pytest.approx(kernel_value(gamma, s, r), rel=1e-12)
        assert k1 > 0
    # origin limit 4 pi s^(gamma-3)
    assert kernel_value(2.0, 1e-9, 3.0) == pytest.approx(FOUR_PI / 3.0, rel=1e-5)


def test_build_kernel_rejects_bad_gamma():
    g = RadialGrid(20.0, 255)
    for gamma in (0.0, 3.0, -1.0):
        with pytest.raises(ValueError):
            build_kernel(gamma, g)


def test_convolve_zero_and_linearity(grid_mid, kern2_mid):
    z = kern2_mid.apply(np.zeros(grid_mid.n))
    assert np.max(np.abs(z)) == 0.0
    rng = np.random.default_rng(7)
    f1 = random_smooth_field(grid_mid, rng)
    f2 = random_smooth_field(grid_mid, rng)
    h12 = kern2_mid.apply(2.0 * f1 - 3.0 * f2)
    assert np.allclose(h12, 2.0 * kern2_mid.apply(f1) - 3.0 * kern2_mid.apply(f2),
                       rtol=1e-13, atol=1e-13)


def test_convolve_positive_for_positive(grid_mid, kern2_mid):
    rng = np.random.default_rng(8)
    g = random_smooth_field(grid_mid, rng)
    assert np.all(kern2_mid.apply(g) > 0)


def test_newton_ball_closed_form(grid_mid):
    # ball edge aligned to a cell boundary
    g = grid_mid
    kern = build_kernel(2.0, g)
    jmax = int(np.floor(1.0 / g.dr))
    r_eff = (jmax + 0.5) * g.dr
    ball = (np.arange(1, g.n + 1) <= jmax).astype(float)
    h = kern.apply(ball)
    # exclude the outermost rows: the domain-truncation boundary lives there
    sel = (g.nodes > 1.5 * r_eff) & (g.nodes < 0.95 * g.r_max)
    want = newton_ball_potential(g.nodes[sel], r_eff)
    assert np.max(np.abs(h[sel] - want) / want) < 5e-4
    # center value 2*pi*R_eff^2
    assert kern.apply_origin(ball) == pytest.approx(2 * np.pi * r_eff**2, rel=5e-4)


ORACLE_GAMMAS = (0.6, 1.0, 1.5, 2.5, 2.8)


def test_newton_gaussian_closed_form(grid_desk, kern2_desk):
    # I_2 * e^(-r^2) = pi^(3/2) erf(r)/r on every row, the outermost included
    r = grid_desk.nodes
    h = kern2_desk.apply(np.exp(-r**2))
    want = np.pi**1.5 * erf(r) / r
    assert np.max(np.abs(h - want) / want) < 1e-12


def _quad_reference(gamma, r, s_max=12.0):
    """int_0^inf k(r,s) s^2 e^(-s^2) ds, split at the kernel's kink s = r."""
    def f(s):
        return kernel_value(gamma, r, s) * s * s * np.exp(-s * s)
    cuts = [0.0, r, s_max] if r < s_max else [0.0, s_max]
    return sum(quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


def test_quadrature_reference_gaussian(grid_desk):
    g = np.exp(-grid_desk.nodes**2)
    for gamma in ORACLE_GAMMAS:
        h = build_kernel(gamma, grid_desk).apply(g)
        for i in (0, 100, grid_desk.n - 1):
            ref = _quad_reference(gamma, grid_desk.nodes[i])
            assert abs(h[i] - ref) <= 1e-10 * abs(ref), (gamma, i)


def test_origin_value_gaussian(grid_desk):
    # (I_gamma * e^(-r^2))(0) = 4 pi int s^(gamma-1) e^(-s^2) ds = 2 pi Gamma(gamma/2)
    g = np.exp(-grid_desk.nodes**2)
    for gamma in ORACLE_GAMMAS:
        want = 2 * np.pi * gamma_fn(gamma / 2)
        got = build_kernel(gamma, grid_desk).apply_origin(g)
        assert got == pytest.approx(want, rel=1e-12), gamma


def test_bilinear_symmetry(grid_small):
    w = grid_small.weights
    rng = np.random.default_rng(6)
    for gamma in (0.7, 1.0, 2.0, 2.4):
        kern = build_kernel(gamma, grid_small)
        for _ in range(4):
            f = random_smooth_field(grid_small, rng)
            g = random_smooth_field(grid_small, rng)
            b1 = float(w @ (f * kern.apply(g)))
            b2 = float(w @ (g * kern.apply(f)))
            assert abs(b1 - b2) <= 1e-10 * abs(b1)


def test_mc_oracle_agreement(grid_mid):
    # smoke-scale version of the acceptance criterion (1e6 samples)
    rng = np.random.default_rng(9)
    c, wd = 1.3, 0.9

    def gf(s):
        return np.exp(-((s - c) / wd) ** 2) + np.exp(-((s + c) / wd) ** 2)

    gv = gf(grid_mid.nodes)
    for gamma in (1.0, 2.5):
        kern = build_kernel(gamma, grid_mid)
        h = kern.apply(gv)
        for rp_idx in (100, 400):
            rp = grid_mid.nodes[rp_idx]
            est, se = mc_riesz_potential(gamma, gf, 6.0, rp, 1_000_000, seed=rp_idx)
            assert abs(h[rp_idx] - est) <= 3.0 * se


PARSEVAL_GAMMAS = (0.6, 1.0, 1.5, 2.0, 2.5, 2.9)


def test_potential_energy_parseval(grid_mid):
    # P = 4 pi dr sum K_m C_m^2 equals sum w h g with h from the full
    # apply, also where the symbol K_m turns negative (gamma > 2)
    rng = np.random.default_rng(15)
    g = random_smooth_field(grid_mid, rng)
    for gamma in PARSEVAL_GAMMAS:
        kern = build_kernel(gamma, grid_mid)
        want = float(np.sum(grid_mid.weights * kern.apply(g) * g))
        got = kern.pairing(kern.spectrum(g))
        assert abs(got - want) <= 1e-13 * abs(want), gamma


def test_fused_potential_and_derivative(grid_mid):
    # h and h' from one FFT against explicit scipy DST-I/DCT-I of K*C, for
    # a g with high-k content (a rough, non-negative random profile).  At
    # gamma = 2.9, where K runs from -1.0e5 to 4.5e5, h' agrees to 4e-14.
    rng = np.random.default_rng(16)
    g = rng.random(grid_mid.n) * np.exp(-grid_mid.nodes / 8.0)
    for gamma in PARSEVAL_GAMMAS:
        kern = build_kernel(gamma, grid_mid)
        spec = kern.spectrum(g)
        h, hp = kern.potential_and_derivative(spec)
        h_ref, hp_ref = sine_series_reference(kern._symbol * spec, kern._k, grid_mid.nodes)
        assert weighted_rel_err(grid_mid, h, h_ref) <= 1e-13, gamma
        assert weighted_rel_err(grid_mid, hp, hp_ref) <= 3e-13, gamma
        assert weighted_rel_err(grid_mid, kern.apply(g), h_ref) <= 1e-14, gamma


@pytest.mark.parametrize("grid_name", ("grid_small", "grid_mid", "grid_desk", "n1000"))
def test_split_spectrum_matches_padded_dst(grid_name, request):
    # the two half-length transforms against the zero-padded DST-I of
    # length 2n+1 they replace, also on an odd-sized grid (n = 1000)
    grid = RadialGrid(40.0, 1000) if grid_name == "n1000" else request.getfixturevalue(grid_name)
    rng = np.random.default_rng(17)
    g = rng.random(grid.n) * np.exp(-grid.nodes / 8.0)
    C_ref = sfft.dst(grid.nodes * g, type=1, n=2 * grid.n + 1, norm="ortho")
    for gamma in PARSEVAL_GAMMAS:
        kern = build_kernel(gamma, grid)
        spec = kern.spectrum(g)
        assert np.max(np.abs(spec - C_ref)) <= 1e-15 * np.max(np.abs(C_ref)), gamma
        h_ref = sine_series_reference(kern._symbol * C_ref, kern._k, grid.nodes)[0]
        assert weighted_rel_err(grid, kern.apply(g), h_ref) <= 1e-14, gamma


def test_potential_energy_scaling(gs32_mid, kern2_mid, params32):
    u = gs32_mid.Q
    P1 = FieldState(u, kern2_mid, params32.p).P
    P2 = FieldState(2.0 * u, kern2_mid, params32.p).P
    assert P2 == pytest.approx(2 ** (2 * params32.p) * P1, rel=1e-12)
    zero = RadialField(u.grid, np.zeros(u.grid.n))
    assert FieldState(zero, kern2_mid, params32.p).P == 0.0


def test_ball_self_energy(grid_mid):
    # uniform unit ball, p=2, gamma=2: P = 32 pi^2 / 15 (scaled by R_eff^5)
    g = grid_mid
    kern = build_kernel(2.0, g)
    jmax = int(np.floor(1.0 / g.dr))
    r_eff = (jmax + 0.5) * g.dr
    ball = RadialField(g, (np.arange(1, g.n + 1) <= jmax).astype(complex))
    P = FieldState(ball, kern, 2.0).P
    assert P == pytest.approx(32 * np.pi**2 / 15 * r_eff**5, rel=2e-3)


def test_hls_boundedness_audit(grid_mid):
    # |I_gamma * g|_r / |g|_q bounded over a corpus, 1/q = 1/r + gamma/3
    gamma = 1.5
    kern = build_kernel(gamma, grid_mid)
    r_exp = 4.0
    q_exp = 1.0 / (1.0 / r_exp + gamma / 3.0)
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(50):
        g = random_smooth_field(grid_mid, rng)
        f = RadialField(grid_mid, g.astype(complex))
        h = RadialField(grid_mid, kern.apply(g).astype(complex))
        ratios.append(lp_norm(h, r_exp) / lp_norm(f, q_exp))
    assert max(ratios) / min(ratios) < 50     # and in particular bounded
    assert max(ratios) < 100


def test_hartree_holder_audit(grid_mid, kern2_mid):
    # |(I_gamma*f) g|_r <= C |f|_p |g|_q with 1/r + gamma/3 = 1/p + 1/q
    r_exp = 2.0
    p_exp = q_exp = 2 / (1 / r_exp + 2.0 / 3)  # the symmetric split p = q
    rng = np.random.default_rng(12)
    ratios = []
    for _ in range(30):
        fv = random_smooth_field(grid_mid, rng)
        gv = random_smooth_field(grid_mid, rng)
        conv = kern2_mid.apply(fv)
        num = lp_norm(RadialField(grid_mid, (conv * gv).astype(complex)), r_exp)
        den = (lp_norm(RadialField(grid_mid, fv.astype(complex)), p_exp)
               * lp_norm(RadialField(grid_mid, gv.astype(complex)), q_exp))
        ratios.append(num / den)
    assert max(ratios) < 20


def test_grid_mismatch_rejected(grid_small, grid_mid):
    kern = build_kernel(2.0, grid_small)
    with pytest.raises(ValueError):
        kern.apply(np.zeros(grid_mid.n))


def test_stacked_rows_match_single_rows(grid_mid, kern2_mid):
    # a sample transforms g and every chi_R^p g in one call and pairs them
    # in one reduction: each row equals its single-row call bit for bit
    rng = np.random.default_rng(22)
    g = np.abs(rng.standard_normal((3, grid_mid.n))) * np.exp(-grid_mid.nodes / 5)
    spec = kern2_mid.spectrum(g)
    pairs = kern2_mid.pairing(spec)
    assert spec.shape == (3, 2 * grid_mid.n + 1) and pairs.shape == (3,)
    for row, s, P in zip(g, spec, pairs):
        assert np.array_equal(s, kern2_mid.spectrum(row))
        assert P == kern2_mid.pairing(kern2_mid.spectrum(row))
    # against the apply: a stack (g, chi_R^p g, 0) pairs to sum w (I*row) row
    # at every gamma, also where the symbol turns negative (gamma > 2)
    chi_p = radial_cutoff(grid_mid, 10.0) ** 3
    stack = np.vstack((g[0], chi_p * g[0], np.zeros(grid_mid.n)))
    for gamma in PARSEVAL_GAMMAS:
        kern = build_kernel(gamma, grid_mid)
        pairs = kern.pairing(kern.spectrum(stack))
        for row, P in zip(stack, pairs):
            want = float(np.sum(grid_mid.weights * kern.apply(row) * row))
            assert abs(P - want) <= 1e-13 * abs(want), gamma
