import numpy as np
import pytest
import scipy.fft as sfft

from hartree_lab.evolve import EvolveConfig, Stepper, conservation_report, evolve
from hartree_lab.exponents import ModelParams, ab_exponents, scattering_pairs
from hartree_lab.grid import (FieldState, RadialField, dst_coeffs, from_dst_coeffs, l2_norm_sq,
                              mass_in_ball)
from hartree_lab.morawetz import (build_weight, cutoff_field, morawetz_z, morawetz_zpp,
                                  quadratic_weight)
from hartree_lab.potentials import PotentialSpec, energy
from hartree_lab.riesz import build_kernel
from oracles import free_gaussian


def test_linear_mode_free_gaussian(grid_desk, kern2_desk, params32):
    # at amplitude a the nonlinear term is a^(2p-2) = 1e-16 of the linear one
    a = 1e-4
    u0 = RadialField(grid_desk, a * np.exp(-grid_desk.nodes**2 / 2))
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=1000, ball_radii=())
    traj = evolve(u0, PotentialSpec("zero"), kern2_desk, params32, cfg)
    exact = a * free_gaussian(grid_desk.nodes, 1.0)
    err = np.sqrt(np.sum(grid_desk.weights
                         * np.abs(traj.final.values - exact) ** 2))
    assert err / a < 1e-6
    # the linear substep is unitary: mass drift at round-off
    assert conservation_report(traj)["mass_drift"] <= 1e-12


def test_single_step_mass_exact(gs32_mid, kern2_mid, params32):
    u0 = gs32_mid.Q
    st = Stepper(u0.grid, kern2_mid, params32.p, 1e-3)
    c1, _ = st.step_values(dst_coeffs(u0), 1e-3, PotentialSpec("zero")(u0.grid.nodes))
    u1 = from_dst_coeffs(u0.grid, c1)
    assert abs(l2_norm_sq(u1) - l2_norm_sq(u0)) <= 1e-12 * l2_norm_sq(u0)


def test_time_reversal(gs32_mid, kern2_mid, params32):
    u0 = 0.7 * gs32_mid.Q
    Vr = PotentialSpec("gaussian", amplitude=0.3, width=1.5)(u0.grid.nodes)
    c1, _ = Stepper(u0.grid, kern2_mid, params32.p, 1e-3).step_values(dst_coeffs(u0), 1e-3, Vr)
    c2, _ = Stepper(u0.grid, kern2_mid, params32.p, -1e-3).step_values(c1, -1e-3, Vr)
    u2 = from_dst_coeffs(u0.grid, c2).values
    assert np.max(np.abs(u2 - u0.values)) <= 1e-10 * np.max(np.abs(u0.values))


def test_gauge_covariance(gs32_mid, kern2_mid, params32):
    u0 = 0.6 * gs32_mid.Q
    phase = np.exp(1j * 0.9)
    st = Stepper(u0.grid, kern2_mid, params32.p, 1e-3)
    V0 = PotentialSpec("zero")(u0.grid.nodes)
    a = from_dst_coeffs(u0.grid, st.step_values(dst_coeffs(phase * u0), 1e-3, V0)[0]).values
    b = phase * from_dst_coeffs(u0.grid, st.step_values(dst_coeffs(u0), 1e-3, V0)[0]).values
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_step_of_weight_zero_is_the_free_flow(gs32_mid, kern2_mid, params32):
    # a phase weight of 0 turns nothing, whatever V_row: two linear
    # half-steps, E^2 c = exp(-i k^2 dt) c
    grid = gs32_mid.Q.grid
    c = dst_coeffs(0.7 * gs32_mid.Q)
    Vr = PotentialSpec("gaussian", amplitude=0.3, width=1.5)(grid.nodes)
    c1, absorbed = Stepper(grid, kern2_mid, params32.p, 1e-2).step_values(c, 0.0, Vr)
    free = np.exp(-1j * grid.wavenumbers**2 * 1e-2) * c
    assert absorbed == 0.0
    assert np.max(np.abs(c1 - free)) <= 1e-14 * np.max(np.abs(free))


def test_constant_potential_row_is_a_global_phase(gs32_mid, kern2_mid, params32):
    # a constant row V0 turns the whole step by exp(-i weight V0)
    grid = gs32_mid.Q.grid
    c = dst_coeffs(0.7 * gs32_mid.Q)
    st = Stepper(grid, kern2_mid, params32.p, 1e-2)
    weight, V0 = 5e-2, 3.0
    ref, _ = st.step_values(c, weight, np.zeros(grid.n))
    c1, _ = st.step_values(c, weight, np.full(grid.n, V0))
    expected = np.exp(-1j * weight * V0) * ref
    assert np.max(np.abs(c1 - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_matches_physical_space_strang(gs32_mid, kern2_mid, params32):
    # reference: k steps L(dt/2) P(dt) L(dt/2), each substep on the grid
    grid = gs32_mid.Q.grid
    u0 = 0.8 * gs32_mid.Q
    V = PotentialSpec("gaussian", amplitude=0.2, width=2.0)
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
    # 300 steps: cadences 7 and 200 leave a partial last interval; a
    # packet of width 12 meets the sponge beyond r = 25 from the first step
    grid = gs32_mid.Q.grid
    u0 = RadialField(grid, 0.3 * np.exp(-grid.nodes**2 / 288)) if sponge_on else 0.8 * gs32_mid.Q
    finals, exported = [], []
    for every in (1, 7, 200):
        cfg = EvolveConfig(dt=1e-3, t_end=0.3, sample_every=every, sponge=sponge_on,
                           ball_radii=())
        traj = evolve(u0, PotentialSpec("gaussian", amplitude=0.2, width=2.0), kern2_mid,
                      params32, cfg)
        finals.append(traj.final.values)
        exported.append(traj.diagnostics["exported_mass"][-1])
    assert (exported[0] > 1e-3) == sponge_on
    scale = np.max(np.abs(finals[0]))
    for f, m in zip(finals[1:], exported[1:]):
        assert np.max(np.abs(f - finals[0])) <= 1e-13 * scale
        assert abs(m - exported[0]) <= 1e-13 * max(exported[0], 1e-300)


def test_zero_t_end_single_sample(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=0.0, sample_every=10)
    traj = evolve(gs32_mid.Q, PotentialSpec("zero"), kern2_mid, params32, cfg)
    assert traj.diagnostics["t"].tolist() == [0.0]
    # one sample cannot drift
    with pytest.raises(ValueError, match="need at least two samples"):
        conservation_report(traj)


def test_t_end_is_whole_steps():
    # a run stops at t_end: 0.105 and 0.115 are 10.5 and 11.5 steps of 0.01,
    # which rounding would turn into 10 and 12
    for t_end in (0.105, 0.115):
        with pytest.raises(ValueError, match=f"t_end = {t_end:g} is not a multiple of dt = 0.01"):
            EvolveConfig(dt=0.01, t_end=t_end)
    # 0.3/0.1 = 2.9999999999999996 is 3 steps up to round-off
    assert EvolveConfig(dt=0.1, t_end=0.3).t_end == 0.3
    # t_end/dt = 0 is whole for dt = inf, which would run no step
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite dt > 0"):
            EvolveConfig(dt=dt, t_end=1.0)


def test_sample_matches_one_shot_wrappers(grid_mid, kern2_mid, params32):
    # one sample of a rough complex state, every column against a reference
    # computed from the sampled field alone: a FieldState built from that
    # field, or a direct quadrature (l2_norm_sq, mass_in_ball, the eta_R flux)
    grid, kern, p = grid_mid, kern2_mid, params32.p
    rng = np.random.default_rng(21)
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    chirp = np.exp(-grid.nodes**2 / 8 + 0.7j * grid.nodes**2)
    V = PotentialSpec("gaussian", amplitude=0.3, width=1.5)
    u0 = RadialField(grid, chirp * (1 + 0.3 * noise))

    def close(got, want):
        assert abs(got[0] - want) <= 1e-13 * abs(want), (got[0], want)

    # one run per weight: the sampled field does not depend on the weight
    for weight_R, wgt in ((None, quadratic_weight(grid)), (15.0, build_weight(15.0, grid))):
        cfg = EvolveConfig(t_end=0.0, ball_radii=(5.0, 10.0), chi_radii=(6.0, 12.0),
                           weight_R=weight_R, store_fields=True)
        traj = evolve(u0, V, kern, params32, cfg)
        d, u = traj.diagnostics, traj.fields[0]
        st = FieldState(u, kern, p)
        close(d["z"], morawetz_z(st, wgt)[0])
        close(d["zp"], morawetz_z(st, wgt)[1])
        close(d["zpp"], morawetz_zpp(st, wgt, wgt.weighted[1] * V.dV(grid.nodes)))

    es = scattering_pairs(params32, 1e-3)
    M, P = l2_norm_sq(u), st.P
    close(d["M"], M)
    close(d["P"], P)
    close(d["grad_sq"], st.grad_sq)
    for name, want in zip(("E", "E0", "lambda_sq"), energy(st, grid.weights * V(grid.nodes))):
        close(d[name], want)
    close(d["threshold_track"], P * M**es["sigma_c"])
    du = st.du_rows[0] + 1j * st.du_rows[1]
    for R in cfg.ball_radii:
        close(d[f"mass_in_ball_{R:g}"], mass_in_ball(u, R))
        # 2 Im int eta_R' u_r conj(u), with eta_R' = d/dr cos^2(pi (r/R - 1/2)) on the ramp
        x = grid.nodes / R
        etap = np.where((x > 0.5) & (x < 1.0), -np.pi * np.sin(2 * np.pi * (x - 0.5)) / R, 0.0)
        close(d[f"eta_flux_{R:g}"],
              2.0 * np.sum(grid.weights * etap * np.imag(du * np.conj(u.values))))
    for R in cfg.chi_radii:
        close(d[f"p_chi_{R:g}"], FieldState(cutoff_field(u, R), kern, p).P)


@pytest.mark.parametrize("weight_R, per_sample", ((None, 3), (15.0, 4)))
def test_transform_budget(grid_small, params32, monkeypatch, weight_R, per_sample):
    # scipy.fft calls: 6 per step (two complex DST-I and the four half-length
    # transforms of the Riesz apply) and, per sample, one rfft for (u, u'),
    # one DST-I/DST-III pair for the stacked Riesz spectra and, with the
    # truncated weight, one rfft for (h, h'): each sample evaluates the
    # field once, whatever the chi_R and ball radii
    kern = build_kernel(2.0, grid_small)
    u0 = RadialField(grid_small, 0.5 * np.exp(-grid_small.nodes**2 / 2))
    V = PotentialSpec("gaussian", amplitude=0.3, width=1.5)
    calls = []
    for name in ("dst", "rfft"):
        fn = getattr(sfft, name)
        monkeypatch.setattr(sfft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))

    def count(n_steps, sample_every):
        cfg = EvolveConfig(dt=1e-3, t_end=n_steps * 1e-3, sample_every=sample_every,
                           weight_R=weight_R, ball_radii=(5.0, 10.0), chi_radii=(6.0, 12.0))
        calls.clear()
        evolve(u0, V, kern, params32, cfg)
        return len(calls)

    # two samples each (t = 0 and the end), 3 steps apart
    assert count(6, 6) - count(3, 3) == 3 * 6
    # 7 samples against 2 over the same 6 steps
    assert count(6, 1) - count(6, 6) == 5 * per_sample


def test_threshold_track_without_scattering_pairs(grid_mid, kern2_mid):
    # eps = 0.05 is too large for the scattering pairs at (2.35, 2), but
    # sigma_c depends on (p, gamma) alone: the track is still P M^sigma_c
    params = ModelParams(2.35, 2.0)
    with pytest.raises(ValueError):
        scattering_pairs(params, 0.05)
    u0 = RadialField(grid_mid, np.exp(-grid_mid.nodes**2 / 2))
    traj = evolve(u0, PotentialSpec("zero"), kern2_mid, params,
                  EvolveConfig(t_end=0.0, store_fields=True))
    d, u = traj.diagnostics, traj.fields[0]
    want = FieldState(u, kern2_mid, params.p).P * l2_norm_sq(u) ** ab_exponents(params)[2]
    assert abs(d["threshold_track"][0] - want) <= 1e-13 * want


def test_conservation_window(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=0.5, sample_every=100)
    traj = evolve(0.8 * gs32_mid.Q, PotentialSpec("gaussian", amplitude=0.2, width=2.0),
                  kern2_mid, params32, cfg)
    rep = conservation_report(traj)
    assert rep["mass_drift"] <= 1e-11
    assert rep["energy_drift"] <= 1e-5
    assert rep["mass_budget_drift"] <= 1e-10


def test_dt_refinement_second_order(gs32_mid, kern2_mid, params32):
    V = PotentialSpec("gaussian", amplitude=0.2, width=2.0)
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
    traj = evolve(gs32_mid.Q, PotentialSpec("zero"), kern2_mid, params32, cfg)
    drift = np.max(np.abs(np.abs(traj.final.values) - Q)) / Q.max()
    assert drift < 1e-5
    # modulus stationarity makes P(u(t)) constant
    P = traj.diagnostics["P"]
    assert np.max(np.abs(P - P[0])) / P[0] < 1e-5


def test_h1_bounded_below_threshold(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=100)
    traj = evolve(0.5 * gs32_mid.Q, PotentialSpec("zero"), kern2_mid, params32, cfg)
    d = traj.diagnostics
    h1 = d["M"] + d["grad_sq"]
    assert np.max(h1) < 2.0 * h1[0]


def test_sponge_mass_budget(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=2.0, sample_every=200, sponge=True,
                       ball_radii=(10.0,))
    traj = evolve(0.3 * gs32_mid.Q, PotentialSpec("zero"), kern2_mid, params32, cfg)
    d = traj.diagnostics
    budget = d["M"] + d["exported_mass"]
    assert np.max(np.abs(budget - budget[0])) <= 1e-10 * budget[0]
    assert d["exported_mass"][-1] >= 0.0


def test_rejects_non_finite_initial_data(grid_small, params32, monkeypatch):
    # one NaN value, built through the library (the field parser rejects it),
    # is refused before any step runs
    kern = build_kernel(2.0, grid_small)
    vals = np.exp(-grid_small.nodes**2).astype(complex)
    vals[10] = np.nan
    cfg = EvolveConfig(dt=1e-2, t_end=1.0, sample_every=10)
    monkeypatch.setattr(Stepper, "step_values", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match="non-finite mass"):
        evolve(RadialField(grid_small, vals), PotentialSpec("zero"), kern, params32, cfg)


def test_rejects_kernel_of_another_gamma(grid_small, params32):
    u0 = RadialField(grid_small, np.exp(-grid_small.nodes**2))
    cfg = EvolveConfig(dt=1e-2, t_end=0.1, sample_every=10)
    with pytest.raises(ValueError, match="kernel gamma does not match params"):
        evolve(u0, PotentialSpec("zero"), build_kernel(1.5, grid_small), params32, cfg)


def test_rejects_kernel_of_another_grid(grid_small, kern2_mid, params32, monkeypatch):
    # the kernel's grid is checked on the t = 0 sample, before any step
    u0 = RadialField(grid_small, np.exp(-grid_small.nodes**2))
    cfg = EvolveConfig(dt=1e-2, t_end=0.1, sample_every=10)
    monkeypatch.setattr(Stepper, "step_values", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match="grid mismatch"):
        evolve(u0, PotentialSpec("zero"), kern2_mid, params32, cfg)


def test_boundary_warning(grid_small, params32):
    kern = build_kernel(2.0, grid_small)
    # fast-dispersing packet hits the wall with the sponge off
    u0 = RadialField(grid_small, np.exp(-((grid_small.nodes - 18) / 2) ** 2))
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=500)
    with pytest.warns(UserWarning):
        traj = evolve(u0, PotentialSpec("zero"), kern, params32, cfg)
    assert traj.boundary_warning
