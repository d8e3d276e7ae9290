"""Time integration of i u_t + Lap u - V u + (I_gamma*|u|^p)|u|^{p-2} u = 0.

Strang splitting with the linear half-steps outside: a half-step of the
linear flow by sine-transform diagonalization of the Laplacian acting on
v = r u, a full step of the local phase rotation u <- u * exp(i theta),
theta = W [(I_gamma*|u|^p)|u|^{p-2} - V_row], then the linear half-step
again; in the original frame ``evolve`` passes W = dt and V_row = V.
The phase flow preserves |u| pointwise (the convolution depends only on
|u|), so that substep is exact, and the orthonormal DST makes the linear
substep unitary: discrete mass is conserved to round-off whenever the
sponge is off.  The step is second order and costs one convolution.

The loop state is c = DST(r u) at a step boundary, so the closing
half-step of one step and the opening one of the next stay in
coefficient space.  The phase substep works on v = r u itself: |u| is
the real |v|/r and the rotation multiplies v, so no complex division by
r or multiplication by it runs.  A step runs 2 length-n complex DSTs
(each one two-column real transform, a real FFT of 2 x 2(n+1) points)
plus the 4 half-length transforms of the Riesz apply (real FFTs of
2 x (2(n+1) + (n+1)) points).  A sample reads u and u' as real rows
(re, im) off c by one FFT without changing the state, and builds the
complex field only to store it; each diagnostic is one function of that
``FieldState``, and each one linear in |u|^2 or in the current
Im(conj(u) u') (z' and each eta_R flux) is one dot product with a row
built once per run.  A sample fills one column of a table whose rows are
the diagnostics CSV's columns (``column_labels``), and the trajectory's
diagnostics map each label to its row; the first sample of non-finite
mass, which only overflow makes, ends the run.

The sponge, on or off, multiplies u by D = exp(-dt sigma(r)) between the
phase substep and the closing half-step, sigma(r) = 5 ((r - 5 r_max/8) /
(3 r_max/8))^4 beyond r = 5 r_max/8.  The absorbed mass
sum(w (1 - D^2) |u|^2) is accumulated as exported_mass; every other
substep is unitary, so M + exported stays constant.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exponents import ModelParams, ab_exponents
from .grid import FieldState, RadialField, RadialGrid, dst1, dst_coeffs, from_dst_coeffs
from .morawetz import (build_weight, morawetz_z, morawetz_zpp, quadratic_weight,
                       radial_cutoff, radial_cutoff_derivative)
from .potentials import PotentialSpec, energy
from .riesz import RieszKernel

BOUNDARY_WARNING = "boundary amplitude exceeds 1e-6 of max|u| with sponge off"


@dataclass
class EvolveConfig:
    """t_end is a whole number of steps of dt (to 1e-9 relative): a run stops at t_end."""

    dt: float = 1e-3
    t_end: float = 5.0
    sample_every: int = 50
    sponge: bool = False              # absorbing layer beyond r = 5 r_max/8
    store_fields: bool = False        # keep field snapshots at sample times
    weight_R: float | None = None     # truncated Morawetz weight radius; None: quadratic
    ball_radii: tuple = (10.0,)       # mass_in_ball / eta-flux radii
    chi_radii: tuple = ()             # P(chi_R u) radii for Morawetz averages

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 <= self.t_end < np.inf):
            raise ValueError("finite dt > 0 and t_end >= 0 required")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end = {self.t_end:g} is not a multiple of dt = {self.dt:g}")
        if self.sample_every < 1:
            raise ValueError("sample_every >= 1")


def column_labels(cfg: EvolveConfig) -> tuple:
    """The diagnostics columns, in the order a sample writes them: the
    labels of the rows of the table that ``evolve`` fills."""
    return ("t", "M", "E", "E0", "P", "grad_sq", "lambda_sq", "z", "zp", "zpp",
            *[f"mass_in_ball_{R:g}" for R in cfg.ball_radii],
            "exported_mass", "threshold_track",
            *[f"eta_flux_{R:g}" for R in cfg.ball_radii],
            *[f"p_chi_{R:g}" for R in cfg.chi_radii])


@dataclass
class Trajectory:
    diagnostics: dict                    # column label -> its sampled series
    fields: list | None
    final: RadialField
    boundary_warning: bool = False
    collapse_time: float | None = None   # t of the last sample when its mass is not finite


class Stepper:
    """The half-step propagator E = exp(-i k^2 dt/2) and sponge rows of one grid and dt."""

    def __init__(self, grid: RadialGrid, kern: RieszKernel, p: float, dt: float,
                 sponge: bool = False):
        self.grid = grid
        self.kern = kern
        self.p = p
        self.phase_lin_half = np.exp(-0.5j * grid.wavenumbers**2 * dt)
        if sponge:
            start = 5 * grid.r_max / 8
            ramp = np.clip((grid.nodes - start) / (grid.r_max - start), 0.0, None)
            self.damp = np.exp(-dt * 5.0 * ramp**4.0)
            self.loss_weights = grid.weights * (1.0 - self.damp**2)
        else:
            self.damp = None

    def step_values(self, c, weight, V_row):
        """One Strang step L(dt/2) P L(dt/2) on c = DST(r u) at a step boundary,
        sponge between P and the closing half-step; P turns u by theta =
        weight (hartree_factor(|u|, p) - V_row).  Returns the next boundary's
        coefficients and the mass the sponge absorbed."""
        v = dst1(self.phase_lin_half * c)  # r u
        a = np.abs(v) / self.grid.nodes    # |u|
        theta = weight * (self.kern.hartree_factor(a, self.p) - V_row)
        rot = np.empty_like(v)
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        v *= rot
        absorbed = 0.0
        if self.damp is not None:
            # P preserves |u| pointwise, so a is still |u| here
            absorbed = float(np.dot(self.loss_weights, a * a))
            v *= self.damp
        return self.phase_lin_half * dst1(v), absorbed


def evolve(u0: RadialField, V: PotentialSpec, kern: RieszKernel,
           params: ModelParams, cfg: EvolveConfig) -> Trajectory:
    """Run the splitting integrator, sampling diagnostics every sample_every steps."""
    if kern.gamma != params.gamma:
        raise ValueError("kernel gamma does not match params")
    grid = u0.grid
    stepper = Stepper(grid, kern, params.p, cfg.dt, sponge=cfg.sponge)
    Vr = np.asarray(V(grid.nodes), float)
    sigma_c = ab_exponents(params)[2] if params.intercritical else None

    weight = quadratic_weight(grid) if cfg.weight_R is None else build_weight(cfg.weight_R, grid)
    # each diagnostic linear in |u|^2 or in the current: a dot product with a row built here
    w = grid.weights
    wV = w * Vr
    w_dV_ap = weight.weighted[1] * V.dV(grid.nodes)
    w_ball = [np.where(grid.nodes <= R, w, 0.0) for R in cfg.ball_radii]
    w_flux = [2.0 * w * radial_cutoff_derivative(grid, R) for R in cfg.ball_radii]
    chi_p = [radial_cutoff(grid, R) ** params.p for R in cfg.chi_radii]

    n_steps = int(round(cfg.t_end / cfg.dt))
    labels = column_labels(cfg)
    table = np.empty((len(labels), 1 + -(-n_steps // cfg.sample_every)))
    fields = [] if cfg.store_fields else None

    c = dst_coeffs(u0)
    exported = 0.0

    def sample(j, tcur):
        """Fill column j from one state; False when its mass is not finite."""
        st = FieldState.from_coeffs(grid, c, kern, params.p, chi_p)
        M = st.mass
        E, E0, lam = energy(st, wV)
        table[:, j] = (
            tcur, M, E, E0, st.P, st.grad_sq, lam,
            *morawetz_z(st, weight), morawetz_zpp(st, weight, w_dV_ap),
            *[np.dot(row, st.usq) for row in w_ball], exported,
            st.P * M**sigma_c if sigma_c is not None else np.nan,
            *[np.dot(row, st.current) for row in w_flux], *st.pairings[1:])
        if fields is not None:
            fields.append(st.u)
        return np.isfinite(M)

    finite = sample(0, 0.0)
    if not finite:
        raise ValueError("initial data has non-finite mass M(0)")
    k = 0
    while finite and k < n_steps:
        k += 1
        c, absorbed = stepper.step_values(c, cfg.dt, Vr)
        exported += absorbed
        if k % cfg.sample_every == 0 or k == n_steps:
            finite = sample(-(-k // cfg.sample_every), k * cfg.dt)

    fin = from_dst_coeffs(grid, c)
    a = np.abs(fin.values)
    bwarn = bool(stepper.damp is None
                 and a[int(0.95 * grid.n):].max() > 1e-6 * max(a.max(), 1e-300))
    if bwarn:
        warnings.warn(BOUNDARY_WARNING)

    series = dict(zip(labels, table[:, :1 + -(-k // cfg.sample_every)]))
    return Trajectory(diagnostics=series, fields=fields, final=fin, boundary_warning=bwarn,
                      collapse_time=None if finite else k * cfg.dt)


def conservation_report(traj: Trajectory) -> dict:
    """Max relative drift of M and E over the pre-export window, the
    samples of finite M and E before the sponge exports mass.

    The drifts are NaN when that window holds fewer than two samples:
    a single sample cannot drift, so it measures nothing.
    """
    d = traj.diagnostics
    if len(d["t"]) < 2:
        raise ValueError("need at least two samples")
    M_all, E_all, exported = d["M"], d["E"], d["exported_mass"]
    pre = np.isfinite(M_all) & np.isfinite(E_all) & (exported <= 1e-12 * max(M_all[0], 1e-300))
    M = M_all[pre]
    E = E_all[pre]
    mdrift = edrift = np.nan
    if len(M) >= 2:
        mdrift = float(np.max(np.abs(M - M[0])) / abs(M[0]))
        edrift = float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-300))
    budget = M_all + exported
    return {
        "samples_pre_export": int(np.sum(pre)),
        "mass_drift": mdrift,
        "energy_drift": edrift,
        "mass_budget_drift": float(np.max(np.abs(budget - budget[0])) / budget[0]),
    }
