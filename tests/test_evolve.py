import numpy as np
import pytest
import scipy.fft as sfft

from hartree_lab.evolve import (EvolutionBlowup, EvolveConfig, SpongeConfig,
                                Stepper, conservation_report, evolve)
from hartree_lab.exponents import ModelParams, ab_exponents, scattering_pairs
from hartree_lab.grid import (RadialField, dst_coeffs, from_dst_coeffs, grad_norm_sq_spectral,
                              l2_norm_sq, lp_norm, mass_in_ball)
from hartree_lab.morawetz import (build_weight, cutoff_field, morawetz_z, morawetz_zpp,
                                  quadratic_weight, radial_cutoff)
from hartree_lab.potentials import energy, gaussian_potential, zero_potential
from hartree_lab.riesz import build_kernel, potential_energy
from oracles import free_gaussian


def test_linear_mode_free_gaussian(grid_desk, kern2_desk, params32):
    # at amplitude a the nonlinear term is a^(2p-2) = 1e-16 of the linear one
    a = 1e-4
    u0 = grid_desk.field_from(lambda r: a * np.exp(-r**2 / 2))
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=1000, ball_radii=())
    traj = evolve(u0, zero_potential(), kern2_desk, params32, cfg)
    exact = a * free_gaussian(grid_desk.nodes, 1.0)
    err = np.sqrt(np.sum(grid_desk.weights
                         * np.abs(traj.final.values - exact) ** 2))
    assert err / a < 1e-6
    # the linear substep is unitary: mass drift at round-off
    assert conservation_report(traj)["mass_drift"] <= 1e-12


def test_single_step_mass_exact(gs32_mid, kern2_mid, params32):
    u0 = gs32_mid.Q
    st = Stepper(u0.grid, zero_potential(), kern2_mid, params32, 1e-3)
    c1, _ = st.step_values(dst_coeffs(u0))
    u1 = from_dst_coeffs(u0.grid, c1)
    assert abs(l2_norm_sq(u1) - l2_norm_sq(u0)) <= 1e-12 * l2_norm_sq(u0)


def test_time_reversal(gs32_mid, kern2_mid, params32):
    u0 = 0.7 * gs32_mid.Q
    V = gaussian_potential(0.3, 1.5)
    c1, _ = Stepper(u0.grid, V, kern2_mid, params32, 1e-3).step_values(dst_coeffs(u0))
    c2, _ = Stepper(u0.grid, V, kern2_mid, params32, -1e-3).step_values(c1)
    u2 = from_dst_coeffs(u0.grid, c2).values
    assert np.max(np.abs(u2 - u0.values)) <= 1e-10 * np.max(np.abs(u0.values))


def test_gauge_covariance(gs32_mid, kern2_mid, params32):
    u0 = 0.6 * gs32_mid.Q
    phase = np.exp(1j * 0.9)
    st = Stepper(u0.grid, zero_potential(), kern2_mid, params32, 1e-3)
    a = from_dst_coeffs(u0.grid, st.step_values(dst_coeffs(phase * u0))[0]).values
    b = phase * from_dst_coeffs(u0.grid, st.step_values(dst_coeffs(u0))[0]).values
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_matches_physical_space_strang(gs32_mid, kern2_mid, params32):
    # reference: k steps L(dt/2) P(dt) L(dt/2), each substep on the grid
    grid = gs32_mid.Q.grid
    u0 = 0.8 * gs32_mid.Q
    V = gaussian_potential(0.2, 2.0)
    dt, k, p = 1e-3, 300, params32.p
    r = grid.nodes
    half = np.exp(-0.5j * grid.wavenumbers**2 * dt)

    def lin(u):
        c = sfft.dst(r * u, type=1, norm="ortho")
        return sfft.dst(half * c, type=1, norm="ortho") / r

    def phase(u):
        a = np.abs(u)
        return u * np.exp(1j * dt * (kern2_mid.apply(a**p) * a ** (p - 2) - V(r)))

    ref = u0.values
    for _ in range(k):
        ref = lin(phase(lin(ref)))
    cfg = EvolveConfig(dt=dt, t_end=k * dt, sample_every=k, ball_radii=())
    traj = evolve(u0, V, kern2_mid, params32, cfg)
    assert np.max(np.abs(traj.final.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("sponge_on", [False, True])
def test_sampling_leaves_state_alone(gs32_mid, kern2_mid, params32, sponge_on):
    # 300 steps: cadences 7 and 200 leave a partial last interval
    sponge = SpongeConfig(start=2.0, strength=50.0, power=1.0) if sponge_on else None
    finals, exported = [], []
    for every in (1, 7, 200):
        cfg = EvolveConfig(dt=1e-3, t_end=0.3, sample_every=every, sponge=sponge,
                           ball_radii=())
        traj = evolve(0.8 * gs32_mid.Q, gaussian_potential(0.2, 2.0),
                      kern2_mid, params32, cfg)
        finals.append(traj.final.values)
        exported.append(traj.diagnostics["exported_mass"][-1])
    assert (exported[0] > 1e-3) == sponge_on
    scale = np.max(np.abs(finals[0]))
    for f, m in zip(finals[1:], exported[1:]):
        assert np.max(np.abs(f - finals[0])) <= 1e-13 * scale
        assert abs(m - exported[0]) <= 1e-13 * max(exported[0], 1e-300)


def test_zero_t_end_single_sample(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=0.0, sample_every=10)
    traj = evolve(gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    assert traj.diagnostics["t"].tolist() == [0.0]


def test_sample_matches_one_shot_wrappers(grid_mid, kern2_mid, params32):
    # one sample of a rough complex state, every column against the one-shot
    # function that computes it from the sampled field alone
    grid, kern, p = grid_mid, kern2_mid, params32.p
    rng = np.random.default_rng(21)
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    chirp = np.exp(-grid.nodes**2 / 8 + 0.7j * grid.nodes**2)
    V = gaussian_potential(0.3, 1.5)
    u0 = RadialField(grid, chirp * (1 + 0.3 * noise))

    def close(got, want):
        assert abs(got[0] - want) <= 1e-13 * abs(want), (got[0], want)

    # one run per weight: the sampled field does not depend on the weight
    for weight_R, wgt in ((None, quadratic_weight(grid)), (15.0, build_weight(15.0, grid))):
        cfg = EvolveConfig(t_end=0.0, ball_radii=(5.0, 10.0), chi_radii=(6.0, 12.0),
                           weight_R=weight_R, store_fields=True)
        traj = evolve(u0, V, kern, params32, cfg)
        d, u = traj.diagnostics, traj.fields[0]
        close(d["z"], morawetz_z(u, wgt)[0])
        close(d["zp"], morawetz_z(u, wgt)[1])
        close(d["zpp"], morawetz_zpp(u, wgt, V, kern, params32))

    es = scattering_pairs(params32)
    M, P = l2_norm_sq(u), potential_energy(kern, u, p)
    close(d["M"], M)
    close(d["P"], P)
    close(d["grad_sq"], grad_norm_sq_spectral(u))
    for name, want in zip(("E", "E0", "lambda_sq"), energy(u, V, kern, p)):
        close(d[name], want)
    close(d["threshold_track"], P * M**es.sigma_c)
    close(d["lr_norm_rbar"], lp_norm(u, es.r_bar))
    for R in cfg.ball_radii:
        close(d[f"mass_in_ball_{R:g}"], mass_in_ball(u, R))
        close(d[f"eta_mass_{R:g}"], l2_norm_sq(RadialField(grid, np.sqrt(radial_cutoff(grid, R))
                                                           * u.values)))
    for R in cfg.chi_radii:
        close(d[f"p_chi_{R:g}"], potential_energy(kern, cutoff_field(u, R), p))


def test_threshold_track_without_scattering_pairs(grid_mid, kern2_mid):
    # eps = 0.05 is too large for the scattering pairs at (2.35, 2), but
    # sigma_c depends on (p, gamma) alone: the track is still P M^sigma_c
    params = ModelParams(2.35, 2.0, 0.05)
    with pytest.raises(ValueError):
        scattering_pairs(params)
    u0 = grid_mid.field_from(lambda r: np.exp(-r**2 / 2))
    traj = evolve(u0, zero_potential(), kern2_mid, params,
                  EvolveConfig(t_end=0.0, store_fields=True))
    d, u = traj.diagnostics, traj.fields[0]
    want = potential_energy(kern2_mid, u, params.p) * l2_norm_sq(u) ** ab_exponents(params)[2]
    assert abs(d["threshold_track"][0] - want) <= 1e-13 * want
    assert np.isnan(d["lr_norm_rbar"][0])


def test_conservation_window(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=0.5, sample_every=100)
    traj = evolve(0.8 * gs32_mid.Q, gaussian_potential(0.2, 2.0),
                  kern2_mid, params32, cfg)
    rep = conservation_report(traj)
    assert rep["mass_drift"] <= 1e-11
    assert rep["energy_drift"] <= 1e-5
    assert rep["mass_budget_drift"] <= 1e-10


def test_dt_refinement_second_order(gs32_mid, kern2_mid, params32):
    V = gaussian_potential(0.2, 2.0)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = EvolveConfig(dt=dt, t_end=0.5, sample_every=int(0.05 / dt))
        traj = evolve(0.8 * gs32_mid.Q, V, kern2_mid, params32, cfg)
        drifts.append(conservation_report(traj)["energy_drift"])
    assert 3.0 < drifts[0] / drifts[1] < 5.0


def test_soliton_short_horizon(gs32_mid, kern2_mid, params32):
    # the (3,2) soliton is orbitally unstable (growth rate ~5/time unit);
    # modulus stationarity is checkable only on a short window
    Q = gs32_mid.Q.values.real
    cfg = EvolveConfig(dt=2e-4, t_end=0.25, sample_every=250)
    traj = evolve(gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    drift = np.max(np.abs(np.abs(traj.final.values) - Q)) / Q.max()
    assert drift < 1e-5
    # modulus stationarity makes P(u(t)) constant
    P = traj.diagnostics["P"]
    assert np.max(np.abs(P - P[0])) / P[0] < 1e-5


def test_h1_bounded_below_threshold(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=100)
    traj = evolve(0.5 * gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    d = traj.diagnostics
    h1 = d["M"] + d["grad_sq"]
    assert np.max(h1) < 2.0 * h1[0]


def test_sponge_mass_budget(gs32_mid, kern2_mid, params32):
    sponge = SpongeConfig(start=22.0, strength=5.0, power=4.0)
    cfg = EvolveConfig(dt=1e-3, t_end=2.0, sample_every=200, sponge=sponge,
                       ball_radii=(10.0,))
    traj = evolve(0.3 * gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    d = traj.diagnostics
    budget = d["M"] + d["exported_mass"]
    assert np.max(np.abs(budget - budget[0])) <= 1e-10 * budget[0]
    assert d["exported_mass"][-1] >= 0.0


def test_blowup_detection(grid_small, params32):
    # one NaN value, built through the library (the field parser rejects it),
    # spreads to every sine coefficient in the first step
    kern = build_kernel(2.0, grid_small)
    vals = np.exp(-grid_small.nodes**2).astype(complex)
    vals[10] = np.nan
    cfg = EvolveConfig(dt=1e-2, t_end=1.0, sample_every=10)
    with pytest.raises(EvolutionBlowup) as exc:
        evolve(RadialField(grid_small, vals), zero_potential(), kern, params32, cfg)
    assert exc.value.t == cfg.dt


def test_rejects_kernel_of_another_gamma(grid_small, params32):
    u0 = grid_small.field_from(lambda r: np.exp(-r**2))
    cfg = EvolveConfig(dt=1e-2, t_end=0.1, sample_every=10)
    with pytest.raises(ValueError, match="kernel gamma does not match params"):
        evolve(u0, zero_potential(), build_kernel(1.5, grid_small), params32, cfg)


def test_boundary_warning(grid_small, params32):
    kern = build_kernel(2.0, grid_small)
    # fast-dispersing packet hits the wall with the sponge off
    u0 = grid_small.field_from(lambda r: np.exp(-((r - 18) / 2) ** 2))
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=500)
    with pytest.warns(UserWarning):
        traj = evolve(u0, zero_potential(), kern, params32, cfg)
    assert traj.boundary_warning
