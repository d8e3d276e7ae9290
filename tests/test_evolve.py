import numpy as np
import pytest

from hartree_lab.evolve import (EvolutionBlowup, EvolveConfig, SpongeConfig,
                                Stepper, conservation_report, evolve, step)
from hartree_lab.exponents import ModelParams
from hartree_lab.grid import RadialField, RadialGrid, h1_norm_sq, l2_norm_sq
from hartree_lab.potentials import gaussian_potential, zero_potential
from hartree_lab.riesz import build_kernel
from oracles import free_gaussian


def test_linear_mode_free_gaussian(grid_desk, kern2_desk, params32):
    u0 = grid_desk.field_from(lambda r: np.exp(-r**2 / 2))
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=1000,
                       linear_only=True, ball_radii=())
    traj = evolve(u0, zero_potential(), kern2_desk, params32, cfg)
    exact = free_gaussian(grid_desk.nodes, 1.0)
    err = np.sqrt(np.sum(grid_desk.weights
                         * np.abs(traj.final.values - exact) ** 2))
    assert err < 1e-6
    # the linear substep is unitary: mass drift at round-off
    assert conservation_report(traj)["mass_drift"] <= 1e-12


def test_single_step_mass_exact(gs32_mid, kern2_mid, params32):
    u0 = gs32_mid.Q
    u1 = step(u0, zero_potential(), kern2_mid, params32, 1e-3)
    assert abs(l2_norm_sq(u1) - l2_norm_sq(u0)) <= 1e-12 * l2_norm_sq(u0)


def test_time_reversal(gs32_mid, kern2_mid, params32):
    u0 = 0.7 * gs32_mid.Q
    V = gaussian_potential(0.3, 1.5)
    u1 = step(u0, V, kern2_mid, params32, 1e-3)
    u2 = step(u1, V, kern2_mid, params32, -1e-3)
    assert np.max(np.abs(u2.values - u0.values)) <= 1e-10 * np.max(np.abs(u0.values))


def test_gauge_covariance(gs32_mid, kern2_mid, params32):
    u0 = 0.6 * gs32_mid.Q
    phase = np.exp(1j * 0.9)
    st = Stepper(u0.grid, zero_potential(), kern2_mid, params32, 1e-3)
    a = st.step_values(phase * u0.values)
    b = phase * st.step_values(u0.values)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_zero_t_end_single_sample(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=0.0, sample_every=10)
    traj = evolve(gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    assert len(traj.times) == 1 and traj.times[0] == 0.0


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
        cfg = EvolveConfig(dt=dt, t_end=0.5, sample_every=int(0.05 / dt),
                           scheme="strang-linear-first")
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
    P = traj.diagnostics.P
    assert np.max(np.abs(P - P[0])) / P[0] < 1e-5


def test_h1_bounded_below_threshold(gs32_mid, kern2_mid, params32):
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=100)
    traj = evolve(0.5 * gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    d = traj.diagnostics
    h1 = d.M + d.grad_sq
    assert np.max(h1) < 2.0 * h1[0]


def test_sponge_mass_budget(gs32_mid, kern2_mid, params32):
    sponge = SpongeConfig(enabled=True, start=22.0, strength=5.0, power=4.0)
    cfg = EvolveConfig(dt=1e-3, t_end=2.0, sample_every=200, sponge=sponge,
                       ball_radii=(10.0,))
    traj = evolve(0.3 * gs32_mid.Q, zero_potential(), kern2_mid, params32, cfg)
    d = traj.diagnostics
    budget = d.M + d.exported_mass
    assert np.max(np.abs(budget - budget[0])) <= 1e-10 * budget[0]
    assert d.exported_mass[-1] >= 0.0


def test_lie_scheme_first_order():
    g = RadialGrid(24.0, 383)
    params = ModelParams(3.0, 2.0)
    kern = build_kernel(2.0, g)
    from hartree_lab.groundstate import solve_ground_state
    gs = solve_ground_state(params, g, kern)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = EvolveConfig(dt=dt, t_end=0.2, sample_every=int(0.05 / dt),
                           scheme="lie")
        traj = evolve(0.8 * gs.Q, zero_potential(), kern, params, cfg)
        drifts.append(conservation_report(traj)["energy_drift"])
    assert 1.5 < drifts[0] / drifts[1] < 2.6   # first-order signature


def test_blowup_detection(grid_small):
    params = ModelParams(3.0, 2.0)
    kern = build_kernel(2.0, grid_small)
    # grossly supercritical data at a huge time step blows past overflow
    u0 = grid_small.field_from(lambda r: 50.0 * np.exp(-(r * 4) ** 2))
    cfg = EvolveConfig(dt=0.5, t_end=50.0, sample_every=1)
    import warnings as _w
    try:
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            traj = evolve(u0, zero_potential(), kern, params, cfg)
        # if no overflow, at least the run must stay finite
        assert np.all(np.isfinite(traj.final.values.view(float)))
    except EvolutionBlowup as e:
        assert e.t > 0


def test_boundary_warning(grid_small, params32):
    kern = build_kernel(2.0, grid_small)
    # fast-dispersing packet hits the wall with the sponge off
    u0 = grid_small.field_from(lambda r: np.exp(-((r - 18) / 2) ** 2))
    cfg = EvolveConfig(dt=1e-3, t_end=1.0, sample_every=500)
    with pytest.warns(UserWarning):
        traj = evolve(u0, zero_potential(), kern, params32, cfg)
    assert traj.boundary_warning
