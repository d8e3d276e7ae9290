import numpy as np
import pytest

from hartree_lab.evolve import EvolveConfig, evolve
from hartree_lab.exponents import ab_exponents
from hartree_lab.grid import FieldState, RadialField, RadialGrid
from hartree_lab.morawetz import (build_weight, coercivity_check, cutoff_field,
                                  morawetz_average, morawetz_z, morawetz_zpp,
                                  nonlocal_pair_term, quadratic_weight, radial_cutoff,
                                  radial_cutoff_derivative, scattering_monitor)
from hartree_lab.potentials import PotentialSpec
from hartree_lab.riesz import build_kernel
from oracles import quad_1d


def zpp_of(u, w, V, kern, params):
    """z'' of one field: its FieldState, with V as the row w a' V'."""
    return morawetz_zpp(FieldState(u, kern, params.p), w, w.weighted[1] * V.dV(u.grid.nodes))


def test_weight_plateau_values(grid_mid):
    R = 10.0
    w = build_weight(R, grid_mid)
    r = grid_mid.nodes
    # quadratic region: a = r^2, a' = 2r, Lap a = 6
    i = np.argmin(np.abs(r - R / 4))
    assert w.a[i] == pytest.approx(r[i] ** 2, rel=1e-14)
    assert w.ap[i] == pytest.approx(2 * r[i], rel=1e-14)
    assert w.lap_a[i] == pytest.approx(6.0, rel=1e-14)
    # linear region: a' = R, Lap a = 2R/r, bilaplacian = 0
    j = np.argmin(np.abs(r - 2 * R))
    assert w.ap[j] == pytest.approx(R, rel=1e-14)
    assert w.lap_a[j] == pytest.approx(2 * R / r[j], rel=1e-14)
    assert w.bilap_a[j] == 0.0


def test_weight_invariants(grid_mid):
    for R in (5.0, 10.0, 20.0):
        w = build_weight(R, grid_mid)
        r = grid_mid.nodes
        assert np.all(w.ap > 0)
        assert np.all(w.app >= -1e-12)
        assert np.all(np.abs(w.ap) <= np.maximum(2 * r, R) * (1 + 1e-12))
        band = (r > R / 2 - w.band) & (r < R / 2 + w.band)
        assert np.all(w.bilap_a[~band] == 0.0)


def test_weight_derivative_consistency(grid_mid):
    # a' matches a centered difference of a to O(dr^2)
    w = build_weight(12.0, grid_mid)
    da = (w.a[2:] - w.a[:-2]) / (2 * grid_mid.dr)  # at nodes 2..n-1
    # away from the first node (even-extension ghost does not apply to a)
    err = np.abs(da[1:-1] - w.ap[2:-2])
    assert np.max(err) <= 20 * grid_mid.dr**2


def test_weight_rejects_bad_R(grid_mid):
    with pytest.raises(ValueError):
        build_weight(45.0, grid_mid)
    with pytest.raises(ValueError):
        build_weight(-1.0, grid_mid)


def test_cutoff_profile(grid_mid):
    R = 10.0
    chi = radial_cutoff(grid_mid, R)
    r = grid_mid.nodes
    assert np.all(chi[r <= R / 2] == 1.0)
    assert np.all(chi[r >= R] == 0.0)
    assert np.all(np.diff(chi) <= 1e-12)
    # eta_R' against a centred difference of eta_R: O(dr^2) on the smooth
    # pieces, O(dr) where eta_R'' jumps by 2 pi^2/R^2 at r = R/2
    dchi = radial_cutoff_derivative(grid_mid, R)
    dr = grid_mid.dr
    err = np.abs((chi[2:] - chi[:-2]) / (2 * dr) - dchi[1:-1])
    assert np.max(err) <= dr * 2 * np.pi**2 / R**2
    smooth = (np.abs(r[1:-1] - R / 2) > dr) & (np.abs(r[1:-1] - R) > dr)
    assert np.max(err[smooth]) <= dr**2 * (2 * np.pi) ** 2 * np.pi / R**3
    # the monitor's bound reads max|eta_R'| = pi/R, taken at r = 3R/4
    assert np.max(np.abs(dchi)) == pytest.approx(np.pi / R, rel=1e-15)
    assert np.all(dchi[(r <= R / 2) | (r >= R)] == 0.0)


def test_z_real_field_zero_zp(grid_mid, gs32_mid):
    w = build_weight(10.0, grid_mid)
    z, zp = morawetz_z(FieldState(gs32_mid.Q), w)
    assert z > 0
    assert zp == 0.0


def test_z_gauge_invariance(grid_mid, gs32_mid):
    w = quadratic_weight(grid_mid)
    u = RadialField(grid_mid, gs32_mid.Q.values * np.exp(0.3j)
                    * (1 + 0.1j * grid_mid.nodes / 40))
    z1, zp1 = morawetz_z(FieldState(u), w)
    u2 = RadialField(grid_mid, u.values * np.exp(1j * 1.1))
    z2, zp2 = morawetz_z(FieldState(u2), w)
    assert z2 == pytest.approx(z1, rel=1e-12)
    assert zp2 == pytest.approx(zp1, rel=1e-12)


def test_z_scaling_law(grid_mid):
    # u_lam(r) = u(lam r): z[u_lam] = lam^-5 z[u] for the quadratic weight
    w = quadratic_weight(grid_mid)
    lam = 1.4
    u = RadialField(grid_mid, np.exp(-grid_mid.nodes**2 / 2))
    ul = RadialField(grid_mid, np.exp(-(lam * grid_mid.nodes) ** 2 / 2))
    z1, _ = morawetz_z(FieldState(u), w)
    z2, _ = morawetz_z(FieldState(ul), w)
    assert z2 == pytest.approx(z1 / lam**5, rel=1e-10)


def test_zpp_quadratic_reduction_gaussian(params32):
    # assembled z'' against the independently quadratured closed form
    # 8|grad u|^2 - (4B/p) P(u) for a real Gaussian, V = 0; the 1e-8-class
    # agreement needs the sharp grid
    grid = RadialGrid(32.0, 3071)
    kern = build_kernel(2.0, grid)
    u = RadialField(grid, np.exp(-grid.nodes**2 / 2))
    w = quadratic_weight(grid)
    zpp = zpp_of(u, w, PotentialSpec("zero"), kern, params32)
    _, B, _ = ab_exponents(params32)
    gsq = quad_1d(lambda s: 4 * np.pi * s**2 * (s * np.exp(-s**2 / 2)) ** 2, 0, 40)
    # P via the same two-sided quadrature oracle used in test_potentials
    from scipy.integrate import quad

    def inner(rr):
        lo, _ = quad(lambda s: s**2 * np.exp(-3 * s**2 / 2) * 1.0, 0, rr, epsabs=1e-13)
        hi, _ = quad(lambda s: s * np.exp(-3 * s**2 / 2), rr, 40, epsabs=1e-13)
        return 4 * np.pi * (lo / rr + hi)

    Pq, _ = quad(lambda rr: 4 * np.pi * rr**2 * np.exp(-3 * rr**2 / 2) * inner(rr),
                 0, 40, limit=200, epsabs=1e-11, epsrel=1e-10)
    closed = 8 * gsq - (4 * B / params32.p) * Pq
    assert zpp == pytest.approx(closed, rel=2e-8)


def test_zpp_soliton_virial_nullity(gs32_desk, kern2_desk, params32):
    grid = kern2_desk.grid
    w = quadratic_weight(grid)
    zpp = zpp_of(gs32_desk.Q, w, PotentialSpec("zero"), kern2_desk, params32)
    scale = 8 * gs32_desk.grad_norm_sq
    assert abs(zpp) <= 1e-5 * scale


def test_quadratic_term_a_by_parseval(gs32_desk, kern2_desk, params32):
    # for a = r^2, term_a = -4(1/2 - 1/p) int Lap(a) h g dx with Lap(a) = 6
    # is -24(1/2 - 1/p) P: z'' from P alone matches the h-based sum on the
    # ground state and on a rough random field
    grid = kern2_desk.grid
    w = quadratic_weight(grid)
    p, gamma = params32.p, params32.gamma
    rng = np.random.default_rng(18)
    rough = RadialField(grid, rng.random(grid.n) * np.exp(-grid.nodes / 8.0))
    for u in (gs32_desk.Q, rough):
        st = FieldState(u, kern2_desk, p)
        term_a = -4.0 * (0.5 - 1.0 / p) * float(np.sum(grid.weights * w.lap_a * st.h * st.g))
        assert abs(-24.0 * (0.5 - 1.0 / p) * st.P - term_a) <= 1e-12 * abs(term_a)
        dre, dim = st.du_rows
        term_c = 8.0 * float(np.sum(grid.weights * np.abs(dre + 1j * dim) ** 2))
        term_d = -(4.0 * (3.0 - gamma) / p) * st.P
        zpp = zpp_of(u, w, PotentialSpec("zero"), kern2_desk, params32)
        assert abs(zpp - (term_a + term_c + term_d)) <= 1e-12 * abs(term_a)


def test_pair_term_quadratic_limit(grid_mid, kern2_mid, gs32_mid, params32):
    # with R beyond the support, the truncated weight acts as r^2 and the
    # symmetrized pair term reduces to 2 P(u)
    w = build_weight(35.0, grid_mid)
    S = nonlocal_pair_term(FieldState(gs32_mid.Q, kern2_mid, params32.p), w)
    P = FieldState(gs32_mid.Q, kern2_mid, params32.p).P
    assert S == pytest.approx(2 * P, rel=1e-12)


@pytest.mark.parametrize("R, rel", [(15.0, 1e-12), (4.0, 1e-6)])
def test_pair_term_truncated_newton_oracle(grid_mid, R, rel):
    # g = e^(-r^2) at gamma = 2 has Newton's closed form
    # h = pi^(3/2) erf(r)/r; S = 2/(gamma-3) int g a' h' dx by scipy quad,
    # with a' written out from the weight's definition (a'' = 2(1 - S(tau))
    # across the band, S the quintic smoothstep).  At R = 15 the band lies
    # where g is below round-off; at R = 4 it cuts through the support and
    # the sampled band (about two nodes wide) limits the agreement.
    from scipy.special import erf

    kern = build_kernel(2.0, grid_mid)
    w = build_weight(R, grid_mid)
    st = FieldState(RadialField(grid_mid, np.exp(-grid_mid.nodes**2 / 2)), kern, 2.0)
    S = nonlocal_pair_term(st, w)
    x0, x1 = R / 2 - w.band, R / 2 + w.band

    def ap(r):
        if r <= x0:
            return 2 * r
        if r >= x1:
            return R
        t = (r - x0) / (2 * w.band)
        return 2 * r - 4 * w.band * t**4 * (2.5 - 3 * t + t**2)

    def hp(r):
        return np.pi**1.5 * (2 * np.exp(-r**2) / (np.sqrt(np.pi) * r) - erf(r) / r**2)

    def integrand(r):
        return 2 / (2.0 - 3.0) * 4 * np.pi * r**2 * np.exp(-r**2) * ap(r) * hp(r)

    ref = sum(quad_1d(integrand, a, b) for a, b in ((0, x0), (x0, x1), (x1, 40.0)))
    assert S == pytest.approx(ref, rel=rel)
    if R < 10:  # here the quadratic-weight value 2P is far off
        assert abs(2 * st.P - ref) > 1e-3 * ref


def test_zpp_potential_term_sign(gs32_mid, kern2_mid, params32):
    # V >= 0 with x.grad V <= 0 makes the potential term nonnegative
    grid = gs32_mid.Q.grid
    w = quadratic_weight(grid)
    V = PotentialSpec("gaussian", amplitude=0.4, width=2.0)
    zpp_v = zpp_of(gs32_mid.Q, w, V, kern2_mid, params32)
    zpp_0 = zpp_of(gs32_mid.Q, w, PotentialSpec("zero"), kern2_mid, params32)
    assert zpp_v - zpp_0 >= 0.0


def test_identity_chain_orders(gs32_mid, kern2_mid, params32):
    # d/dt z = z' and d/dt z' = z'' at second order in the sampling step,
    # for both weights (smoke-scale version of the acceptance criterion)
    V = PotentialSpec("gaussian", amplitude=0.2, width=2.0)

    def defects(dt):
        # one run per weight: the trajectory does not depend on the weight
        out = {}
        for weight_R in (None, 15.0):
            cfg = EvolveConfig(dt=dt, t_end=0.6, sample_every=1,
                               weight_R=weight_R, ball_radii=())
            d = evolve(0.8 * gs32_mid.Q, V, kern2_mid, params32.p, cfg).diagnostics
            t, z, zp, zpp = (d[k] for k in ("t", "z", "zp", "zpp"))
            dz = (z[2:] - z[:-2]) / (t[2:] - t[:-2])
            dzp = (zp[2:] - zp[:-2]) / (t[2:] - t[:-2])
            out[weight_R] = (np.max(np.abs(dz - zp[1:-1])),
                        np.max(np.abs(dzp - zpp[1:-1])))
        return out

    e1 = defects(0.02)
    e2 = defects(0.01)
    for lbl in e1:
        for k in (0, 1):
            order = np.log2(e1[lbl][k] / e2[lbl][k])
            assert 1.7 < order < 2.3


def test_coercivity_check_paths(gs32_mid):
    rep = coercivity_check(0.5 * gs32_mid.Q, gs32_mid, 10.0)
    assert rep["hypothesis_satisfied"] and rep["pass"]
    assert rep["delta"] == pytest.approx(1 - 0.5**8, rel=1e-10)
    # u = Q: ratio = 1, hypothesis fails
    rep2 = coercivity_check(gs32_mid.Q, gs32_mid, 10.0)
    assert not rep2["hypothesis_satisfied"]
    # tiny field: trivially satisfied with huge margin
    rep3 = coercivity_check(1e-3 * gs32_mid.Q, gs32_mid, 10.0)
    assert rep3["pass"] and rep3["margin"] > 0
    # a non-finite field has a NaN ratio, which satisfies nothing
    nan_field = RadialField(gs32_mid.Q.grid, np.full(gs32_mid.Q.grid.n, np.nan))
    rep4 = coercivity_check(nan_field, gs32_mid, 10.0)
    assert rep4["hypothesis_satisfied"] is False and np.isnan(rep4["ratio"])
    assert "pass" not in rep4


def test_coercivity_check_reads_the_kernel_of_q(gs32_mid):
    # P(u) and P(chi_R u) come from gs.kern, the kernel Q was solved with
    gs, u, R = gs32_mid, 0.5 * gs32_mid.Q, 10.0
    p = gs.params.p
    _, B, sigma = ab_exponents(gs.params)
    st = FieldState(u, gs.kern, p)
    ratio = st.P * st.mass**sigma / gs.thresholds["PQ_MQ_sigma"]
    delta_p = (B / (2 * p)) * (ratio ** (-(B - 2) / B) - 1.0)
    chi = FieldState(cutoff_field(u, R), gs.kern, p)
    lhs = chi.grad_sq - (B / (2 * p)) * chi.P
    rep = coercivity_check(u, gs, R)
    assert (rep["ratio"], rep["delta_prime"], rep["lhs"], rep["rhs"]) == (
        ratio, delta_p, lhs, delta_p * chi.P)


def test_morawetz_average_zero_field(grid_small, params32):
    n = 5
    series = {"t": np.linspace(0, 1, n), "p_chi_5": np.zeros(n)}
    rep = morawetz_average(series, params32, 5.0, 1.0)
    assert rep["average"] == 0.0


def test_scattering_monitor_decay_and_control(gs32_mid, kern2_mid, params32):
    grid = gs32_mid.Q.grid
    cfg = EvolveConfig(dt=1e-3, t_end=6.0, sample_every=300, sponge=True, ball_radii=(10.0,))
    traj = evolve(0.3 * gs32_mid.Q, PotentialSpec("zero"), kern2_mid, params32.p, cfg)
    mon = scattering_monitor(traj.diagnostics, 10.0, 0.5)
    assert mon["final_mass_in_ball"] < 0.5 * mon["initial_mass_in_ball"]
    assert mon["rate_bound_pass"]


def test_scattering_monitor_rate_on_two_samples(grid_small, params32):
    # the rate is the sampled flux itself: each sample has one, a single
    # sample included, and it is the flux 2 Im int eta_R' u_r conj(u) of
    # the stored field, with no difference quotient between samples
    kern = build_kernel(2.0, grid_small)
    u0 = RadialField(grid_small, 0.5 * np.exp(-grid_small.nodes**2 / 2))
    cfg = EvolveConfig(dt=1e-3, t_end=0.2, sample_every=200, ball_radii=(10.0,),
                       store_fields=True)
    traj = evolve(u0, PotentialSpec("zero"), kern, params32.p, cfg)
    d = traj.diagnostics
    assert len(d["t"]) == 2
    etap = radial_cutoff_derivative(grid_small, 10.0)
    direct = []
    for f in traj.fields:
        dre, dim = FieldState(f).du_rows
        direct.append(2.0 * np.sum(grid_small.weights * etap
                                   * np.imag((dre + 1j * dim) * np.conj(f.values))))
    assert direct[0] == 0.0 and direct[1] != 0.0  # a real u(0) carries no current
    mon = scattering_monitor(d, 10.0, 0.5)
    assert mon["max_flux"] == pytest.approx(np.max(np.abs(direct)), rel=1e-12)
    one = scattering_monitor({k: v[1:] for k, v in d.items()}, 10.0, 0.5)
    assert one["max_flux"] == pytest.approx(abs(direct[1]), rel=1e-12)
    bound = 2 * np.pi * np.sqrt(d["M"][1] * d["grad_sq"][1]) / 10.0
    assert one["flux_ratio"] == pytest.approx(abs(direct[1]) / bound, rel=1e-12)
    assert mon["rate_bound_pass"] and one["rate_bound_pass"]


def test_scattering_monitor_flux_above_bound_fails():
    # R |flux| above 2 pi sqrt(M |grad u|^2) at one sample fails the audit
    R, M, grad_sq = 10.0, 4.0, 9.0
    bound = 2 * np.pi * np.sqrt(M * grad_sq) / R
    labels = ("t", "M", "grad_sq", "mass_in_ball_10", "eta_flux_10")
    table = np.array([[0.0, 1.0, 2.0], [M] * 3, [grad_sq] * 3, [3.0, 2.0, 1.0],
                      [0.5 * bound, -1.01 * bound, 0.0]])
    series = dict(zip(labels, table))
    mon = scattering_monitor(series, R, 0.5)
    assert mon["flux_ratio"] == pytest.approx(1.01, rel=1e-14)
    assert mon["max_flux"] == pytest.approx(1.01 * bound, rel=1e-14)
    assert not mon["rate_bound_pass"]
    series["eta_flux_10"][1] = -0.99 * bound
    assert scattering_monitor(series, R, 0.5)["rate_bound_pass"]


def test_morawetz_average_trend(gs32_mid, kern2_mid, params32):
    # scattering data: the time average of P(chi_R u) decreases along
    # T = R^3 (noisy constants; trend only)
    grid = gs32_mid.Q.grid
    Rs = (2.5, 3.5)
    # 21,438 steps, past T = 3.5^3 = 42.875, which is no whole number of steps
    cfg = EvolveConfig(dt=2e-3, t_end=42.876, sample_every=100,
                       sponge=True, chi_radii=Rs,
                       ball_radii=())
    traj = evolve(0.5 * gs32_mid.Q, PotentialSpec("zero"), kern2_mid, params32.p, cfg)
    avgs = [morawetz_average(traj.diagnostics, params32, R, R**3)["average"]
            for R in Rs]
    assert avgs[1] < avgs[0]


def test_zpp_potential_term_pointwise_sign(gs32_mid, params32):
    # for V >= 0 with x.grad V <= 0 the integrand of -2 int V'(r) a'(r) |u|^2
    # is nonnegative at every node, for both weights
    grid = gs32_mid.Q.grid
    V = PotentialSpec("gaussian", amplitude=0.4, width=2.0)
    usq = np.abs(gs32_mid.Q.values) ** 2
    for w in (quadratic_weight(grid), build_weight(10.0, grid)):
        integrand = -2.0 * grid.weights * V.dV(grid.nodes) * w.ap * usq
        assert np.all(integrand >= 0.0)


def test_localized_mass_derivative_identity(gs32_desk, kern2_desk, params32):
    # d/dt int eta_R |u|^2 = 2 Im int grad(eta_R).grad(u) conj(u): finite
    # differences in time of eta-masses of the stored fields against the
    # sampled flux column; both the centred difference and the time step are
    # second order, so each halving of dt divides the defect by about 4, which
    # a flux off by a fixed factor would not do.  The n = 2047 grid keeps its
    # dt-independent floor below the dt^2 term down to dt = 1.25e-3
    grid = gs32_desk.Q.grid
    R = 8.0
    eta = radial_cutoff(grid, R)

    def defect(dt):
        cfg = EvolveConfig(dt=dt, t_end=0.5, sample_every=1, ball_radii=(R,), store_fields=True)
        traj = evolve(0.8 * gs32_desk.Q, PotentialSpec("zero"), kern2_desk, params32.p, cfg)
        t = traj.diagnostics["t"]
        flux = traj.diagnostics[f"eta_flux_{R:g}"]
        em = np.array([np.sum(grid.weights * eta * np.abs(f.values) ** 2) for f in traj.fields])
        fd = (em[2:] - em[:-2]) / (t[2:] - t[:-2])
        return np.max(np.abs(fd - flux[1:-1])), max(np.max(np.abs(flux)), 1e-10)

    coarse, scale = defect(5e-3)
    assert coarse <= 1e-3 * scale + 10 * 5e-3 ** 2
    mid, _ = defect(2.5e-3)
    fine, _ = defect(1.25e-3)
    assert 3.0 <= coarse / mid <= 5.0 and 3.0 <= mid / fine <= 5.0, (coarse, mid, fine)
