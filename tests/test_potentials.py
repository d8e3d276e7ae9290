import numpy as np
import pytest

from hartree_lab.grid import FOUR_PI, FieldState, RadialField, RadialGrid
from hartree_lab.potentials import PotentialSpec, audit_hypotheses, energy
from hartree_lab.riesz import build_kernel
from oracles import quad_1d, random_smooth_field


def test_kato_zero(grid_small):
    kn = audit_hypotheses(PotentialSpec("zero"), grid_small)["kato_norm"]
    assert kn == 0.0


def test_kato_unit_ball():
    # aligned grid: 1/dr = 51.5, Kato norm = 2*pi at the center probe
    g = RadialGrid(40.0, 2059)
    V = PotentialSpec("table", radii=g.nodes, values=(g.nodes <= 1.0).astype(float))
    kn = audit_hypotheses(V, g)["kato_norm"]
    assert abs(kn - 2 * np.pi) < 1e-3
    # scaled, nonnegative: negative-part norm is 0, hypothesis passes
    V2 = PotentialSpec("table", radii=g.nodes, values=2.0 * (g.nodes <= 1.0).astype(float))
    audit = audit_hypotheses(V2, g)
    assert audit["kato_norm_negative_part"] == 0.0
    assert audit["checks"]["negative_part_below_4pi"]
    assert audit["theorem_hypotheses_pass"]


def test_kato_gaussian_against_quadrature(grid_mid):
    # center-probe value 4*pi int s e^{-s^2} ds = 2*pi for the unit Gaussian;
    # the Kato integrals are plain O(dr^2) Riemann sums
    V = PotentialSpec("gaussian", amplitude=1.0, width=1.0)
    kn = audit_hypotheses(V, grid_mid)["kato_norm"]
    assert kn == pytest.approx(2 * np.pi, rel=1e-3)
    # attractive version has the same absolute Kato norm
    Vm = PotentialSpec("gaussian", amplitude=-1.0, width=1.0)
    knm = audit_hypotheses(Vm, grid_mid)["kato_norm_negative_part"]
    assert knm == pytest.approx(2 * np.pi, rel=1e-3)
    assert knm < 4 * np.pi


@pytest.mark.parametrize("negative_part", [False, True])
@pytest.mark.parametrize("values", [
    pytest.param(lambda r: -((r >= 2.0) & (r <= 3.0)).astype(float), id="shell"),
    pytest.param(lambda r: np.cos(r) * np.exp(-r / 4) * (r <= 30.0), id="mixed-sign"),
])
def test_kato_newton_profile_peaks_at_origin(grid_mid, values, negative_part):
    # Newton's theorem at every node by direct sums:
    # f(rho) = 4 pi dr sum_j r_j^2 |V_j| / max(rho, r_j), rho = 0 and every node
    r = grid_mid.nodes
    V = PotentialSpec("table", radii=r, values=values(r))
    absV = np.abs(np.minimum(V(r), 0.0) if negative_part else V(r))
    rho = np.concatenate(([0.0], r))
    prof = FOUR_PI * grid_mid.dr * (r**2 * absV) @ (1.0 / np.maximum.outer(r, rho))
    kn = audit_hypotheses(V, grid_mid)["kato_norm_negative_part" if negative_part
                                       else "kato_norm"]
    assert prof[0] > 0
    assert np.max(prof) <= prof[0] * (1 + 1e-14)
    assert kn == pytest.approx(prof[0], rel=1e-13)


def test_audit_zero(grid_small):
    audit = audit_hypotheses(PotentialSpec("zero"), grid_small)
    assert audit["kato_norm"] == 0.0
    assert audit["l32_norm"] == 0.0
    assert audit["checks"]["nonneg"] and audit["checks"]["x_grad_V_nonpositive"]
    assert audit["theorem_hypotheses_pass"]


def test_audit_repulsive_gaussian(grid_small):
    audit = audit_hypotheses(PotentialSpec("gaussian", amplitude=1.0, width=1.0), grid_small)
    assert audit["checks"]["nonneg"]
    assert audit["checks"]["x_grad_V_nonpositive"]   # x.grad V = -2r^2 e^{-r^2} <= 0
    assert audit["theorem_hypotheses_pass"]
    assert audit["checks"]["negative_part_below_4pi"]


def test_audit_attractive_gaussian(grid_small):
    audit = audit_hypotheses(PotentialSpec("gaussian", amplitude=-1.0, width=1.0), grid_small)
    assert not audit["checks"]["nonneg"]
    assert not audit["theorem_hypotheses_pass"]
    # smallness audit still passes: |V_-| Kato norm = 2*pi < 4*pi
    assert audit["checks"]["negative_part_below_4pi"]
    assert audit["kato_norm_negative_part"] == pytest.approx(2 * np.pi, rel=2e-3)


def test_audit_softpower(grid_small):
    V = PotentialSpec("softpower", amplitude=0.5, power=3.0, core=1.0)
    audit = audit_hypotheses(V, grid_small)
    assert audit["checks"]["nonneg"] and audit["checks"]["x_grad_V_nonpositive"]
    assert audit["theorem_hypotheses_pass"]
    # V ~ r^(-power) lies in L^{3/2} and the Kato class only for power > 2,
    # however finite its sums on the grid
    for power in (2.0, 1.0):
        V = PotentialSpec("softpower", amplitude=0.5, power=power, core=1.0)
        audit = audit_hypotheses(V, grid_small)
        assert audit["checks"]["nonneg"] and audit["checks"]["x_grad_V_nonpositive"]
        assert audit["checks"]["decays"] is False
        assert not audit["theorem_hypotheses_pass"]
    assert PotentialSpec("softpower", amplitude=0.0, power=1.0, core=1.0).decays


def test_audit_table_needs_zero_tail(grid_small):
    # a table holds its last value beyond its last radius
    held = PotentialSpec("table", radii=[0.0, 5.0, 10.0], values=[1.0, 0.5, 0.25])
    assert not held.decays
    # a table spec is a value: equal tables compare equal and hash alike
    same = PotentialSpec("table", radii=[0.0, 5.0, 10.0], values=[1.0, 0.5, 0.25])
    assert held == same
    assert hash(held) == hash(same)
    assert not audit_hypotheses(held, grid_small)["theorem_hypotheses_pass"]
    cut = PotentialSpec("table", radii=[0.0, 5.0, 10.0], values=[1.0, 0.5, 0.0])
    assert cut.decays
    assert audit_hypotheses(cut, grid_small)["theorem_hypotheses_pass"]


def test_derivative_matches_finite_difference(grid_small):
    # cell midpoints: away from the table's knots, where V has no derivative
    r = grid_small.nodes + 0.5 * grid_small.dr
    for V in (PotentialSpec("gaussian", amplitude=0.7, width=1.3),
              PotentialSpec("softpower", amplitude=1.1, power=3.0, core=0.8),
              PotentialSpec("table", radii=[0.0, 5.0, 10.0, 20.0], values=[1.0, 0.5, 0.25, 0.0])):
        dv = V.dV(r)
        fd = (V(r + 1e-6) - V(r - 1e-6)) / 2e-6
        assert np.max(np.abs(dv - fd)) < 1e-7


def test_l32_norm_two_ways(grid_mid):
    V = PotentialSpec("gaussian", amplitude=0.8, width=1.5)
    audit = audit_hypotheses(V, grid_mid)
    want = (FOUR_PI * quad_1d(lambda s: s**2 * (0.8 * np.exp(-(s / 1.5) ** 2)) ** 1.5,
                              0, 40.0)) ** (2 / 3)
    assert audit["l32_norm"] == pytest.approx(want, rel=1e-6)


def test_energy_triple_zero_potential(gs32_mid, kern2_mid, params32):
    u = gs32_mid.Q
    wV = u.grid.weights * PotentialSpec("zero")(u.grid.nodes)
    E, E0, lam = energy(FieldState(u, kern2_mid, params32.p), wV)
    assert E == E0
    assert lam == pytest.approx(FieldState(u).grad_sq, rel=1e-14)
    z = RadialField(u.grid, np.zeros(u.grid.n))
    assert energy(FieldState(z, kern2_mid, params32.p), wV) == (0.0, 0.0, 0.0)


def test_energy_triple_against_quadrature():
    # Gaussian u, Gaussian V, p = 2, gamma = 2: every piece against an
    # independent adaptive quadrature at 1e-8 (needs the sharp grid)
    grid = RadialGrid(32.0, 3071)
    kern = build_kernel(2.0, grid)
    u = RadialField(grid, np.exp(-grid.nodes**2 / 2))
    V = PotentialSpec("gaussian", amplitude=0.4, width=1.2)
    E, E0, lam = energy(FieldState(u, kern, 2.0), grid.weights * V(grid.nodes))
    gsq = quad_1d(lambda s: FOUR_PI * s**2 * (s * np.exp(-s**2 / 2)) ** 2, 0, 30)
    vterm = quad_1d(lambda s: FOUR_PI * s**2 * 0.4 * np.exp(-(s / 1.2) ** 2)
                    * np.exp(-s**2), 0, 30)
    # P for the Gaussian via the radial Newton double integral
    from scipy.integrate import quad

    def inner(rr):
        lo, _ = quad(lambda s: s**2 * np.exp(-s**2), 0, rr, epsabs=1e-13)
        hi, _ = quad(lambda s: s * np.exp(-s**2), rr, 30, epsabs=1e-13)
        return FOUR_PI * (lo / rr + hi)

    Pq, _ = quad(lambda rr: FOUR_PI * rr**2 * np.exp(-rr**2) * inner(rr), 0, 30,
                 limit=200, epsabs=1e-11, epsrel=1e-10)
    P = FieldState(u, kern, 2.0).P
    assert FieldState(u).grad_sq == pytest.approx(gsq, rel=1e-8)
    assert P == pytest.approx(Pq, rel=1e-8)
    assert lam == pytest.approx(gsq + vterm, rel=1e-8)
    assert E == pytest.approx(0.5 * gsq - P / 4 + 0.5 * vterm, rel=1e-8)


def test_lambda_dominates_grad_for_nonneg_V(grid_small):
    kern = build_kernel(2.0, grid_small)
    V = PotentialSpec("gaussian", amplitude=0.6, width=1.0)
    wV = grid_small.weights * V(grid_small.nodes)
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = RadialField(grid_small, random_smooth_field(grid_small, rng).astype(complex))
        _, _, lam = energy(FieldState(u, kern, 2.0), wV)
        assert lam >= FieldState(u).grad_sq - 1e-12


def test_table_potential_interpolation():
    g = RadialGrid(20.0, 255)
    V = PotentialSpec("table", radii=[0.0, 5.0, 10.0, 20.0], values=[1.0, 0.5, 0.25, 0.0])
    vals = V(g.nodes)
    assert vals[0] == pytest.approx(1.0 - g.nodes[0] / 10, rel=1e-10)
    assert np.all(np.isfinite(V.dV(g.nodes)))


def test_table_derivative_zero_where_held():
    # V is constant outside [radii[0], radii[-1]], so its central difference
    # and dV are 0 there; inside, dV is the slope of the segment
    V = PotentialSpec("table", radii=[1.0, 5.0, 10.0, 20.0], values=[1.0, 0.5, 0.25, 0.0])
    r = np.array([0.0, 0.5, 0.9, 20.5, 21.0, 30.0, 39.0])
    fd = (V(r + 1e-6) - V(r - 1e-6)) / 2e-6
    assert np.all(fd == 0.0)
    assert np.all(V.dV(r) == 0.0)
    assert V.dV(21.0) == 0.0
    assert V.dV(15.0) == pytest.approx(-0.025, rel=1e-12)


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec("nope")
    with pytest.raises(ValueError):
        PotentialSpec("gaussian", amplitude=1.0, width=-2.0)
    # a table is checked when it is built, not when V is first evaluated
    for radii, values in (([0.0, 1.0, 0.5], [1, 2, 3]),
                          ([0.0, 1.0, 2.0], [1.0, 0.0]),
                          ([0.0, 1.0], [1.0, 0.5, 0.0]),
                          ([0.0], [1.0]),
                          ([0.0, 1.0, 2.0], [1.0, np.nan, 0.0]),
                          ([0.0, 1.0, 2.0], [np.inf, 0.5, 0.0]),
                          ([0.0, 1.0, np.inf], [1.0, 0.5, 0.0]),
                          ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 0.5], [0.2, 0.0]])):
        with pytest.raises(ValueError, match="table"):
            PotentialSpec("table", radii=radii, values=values)


def test_audit_internal_invariants(grid_small):
    # negative-part Kato norm never exceeds the full one; nonneg => zero
    for V in (PotentialSpec("gaussian", amplitude=0.7, width=1.2),
              PotentialSpec("gaussian", amplitude=-0.7, width=1.2),
              PotentialSpec("softpower", amplitude=0.4, power=2.5, core=0.9)):
        audit = audit_hypotheses(V, grid_small)
        assert audit["kato_norm_negative_part"] <= audit["kato_norm"] + 1e-14
        if audit["checks"]["nonneg"]:
            assert audit["kato_norm_negative_part"] == 0.0


def test_audit_evaluates_v_once(grid_small, monkeypatch):
    # every figure of the audit reads one evaluation of V on the nodes,
    # and its Kato norms are 4 pi dr sum r|V| of V and of min(V, 0)
    V = PotentialSpec("gaussian", amplitude=-0.7, width=1.2)
    calls = []
    call = PotentialSpec.__call__
    monkeypatch.setattr(PotentialSpec, "__call__",
                        lambda self, r: calls.append(1) or call(self, r))
    audit = audit_hypotheses(V, grid_small)
    assert len(calls) == 1
    r, dr = grid_small.nodes, grid_small.dr
    vals = V(r)
    assert audit["kato_norm"] == pytest.approx(FOUR_PI * dr * np.sum(r * np.abs(vals)),
                                               rel=1e-14)
    assert audit["kato_norm_negative_part"] == pytest.approx(
        FOUR_PI * dr * np.sum(r * np.abs(np.minimum(vals, 0.0))), rel=1e-14)
