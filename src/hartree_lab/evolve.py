"""Time integration of i u_t + Lap u - V u + (I_gamma*|u|^p)|u|^{p-2} u = 0.

Strang splitting with the linear half-steps outside: a half-step of the
linear flow by sine-transform diagonalization of the Laplacian acting on
v = r u, a full step of the local phase rotation
u <- u * exp(i dt [(I_gamma*|u|^p)|u|^{p-2} - V]), then the linear
half-step again.  The phase flow preserves |u| pointwise (the convolution
depends only on |u|), so that substep is exact, and the orthonormal DST
makes the linear substep unitary: discrete mass is conserved to round-off
whenever the sponge is off.  The step is second order and costs one
convolution.

The loop state is c = DST(r u) at a step boundary, so the closing
half-step of one step and the opening one of the next stay in
coefficient space.  The phase substep works on v = r u itself: |u| is
the real |v|/r and the rotation multiplies v, so no complex division by
r or multiplication by it runs.  A step runs 2 length-n complex DSTs
(each one two-column real transform, a real FFT of 2 x 2(n+1) points)
plus the 4 half-length transforms of the Riesz apply (real FFTs of
2 x (2(n+1) + (n+1)) points).  A sample reads u and u' off c by one FFT
without changing the state; each diagnostic linear in |u|^2 is one dot
product with a row built once per run.  A sample fills one column of a
table whose rows are the diagnostics CSV's columns (``column_labels``).

The optional sponge multiplies u by D = exp(-dt sigma(r)) between the
phase substep and the closing half-step, sigma(r) = strength
((r - start)/(r_max - start))^power beyond the start radius.  The
absorbed mass sum(w (1 - D^2) |u|^2) is accumulated as exported_mass;
every other substep is unitary, so M + exported stays constant.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exponents import ModelParams, ab_exponents, scattering_pairs
from .grid import FieldState, RadialField, RadialGrid, dst1, dst_coeffs, from_dst_coeffs
from .morawetz import (build_weight, morawetz_z_from_state, morawetz_zpp_from_state,
                       quadratic_weight, radial_cutoff)
from .potentials import PotentialSpec, energy_from_state
from .riesz import RieszKernel

BOUNDARY_WARNING = "boundary amplitude exceeds 1e-6 of max|u| with sponge off"


class EvolutionBlowup(RuntimeError):
    def __init__(self, t):
        super().__init__(f"non-finite field detected at t = {t}")
        self.t = t


@dataclass
class SpongeConfig:
    start: float = 25.0
    strength: float = 5.0
    power: float = 4.0

    def __post_init__(self):
        # strength < 0 amplifies; power <= 0 damps the whole domain (0^0 = 1)
        if not (self.strength >= 0 and self.power > 0):
            raise ValueError("sponge needs strength >= 0 and power > 0")


@dataclass
class EvolveConfig:
    dt: float = 1e-3
    t_end: float = 5.0
    sample_every: int = 50
    sponge: SpongeConfig | None = None   # None: no absorbing layer
    store_fields: bool = False        # keep field snapshots at sample times
    weight_R: float | None = None     # truncated Morawetz weight radius; None: quadratic
    ball_radii: tuple = (10.0,)       # mass_in_ball / eta-mass radii
    chi_radii: tuple = ()             # P(chi_R u) radii for Morawetz averages

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt > 0 and t_end >= 0 required")
        if self.sample_every < 1:
            raise ValueError("sample_every >= 1")


def column_labels(cfg: EvolveConfig) -> tuple:
    """The diagnostics columns, in the order a sample writes them: the
    labels of the rows of the table that ``evolve`` fills."""
    return ("t", "M", "E", "E0", "P", "grad_sq", "lambda_sq", "z", "zp", "zpp",
            *[f"mass_in_ball_{R:g}" for R in cfg.ball_radii],
            "exported_mass", "threshold_track", "lr_norm_rbar",
            *[f"eta_mass_{R:g}" for R in cfg.ball_radii],
            *[f"p_chi_{R:g}" for R in cfg.chi_radii])


@dataclass
class DiagnosticsSeries:
    """The sampled series: row k of table is the column labels[k]."""
    labels: tuple
    table: np.ndarray

    def __getitem__(self, label):
        if label not in self.labels:
            raise ValueError(f"series lacks the column {label}")
        return self.table[self.labels.index(label)]


@dataclass
class Trajectory:
    diagnostics: DiagnosticsSeries
    fields: list | None
    final: RadialField
    boundary_warning: bool = False


class Stepper:
    """Holds the precomputed linear propagator and sponge for one setup."""

    def __init__(self, grid: RadialGrid, V: PotentialSpec, kern: RieszKernel,
                 params: ModelParams, dt: float, sponge: SpongeConfig | None = None):
        self.grid = grid
        self.kern = kern
        self.params = params
        self.dt = dt
        self.phase_lin_half = np.exp(-0.5j * grid.wavenumbers**2 * dt)
        self.Vr = np.asarray(V(grid.nodes), float)
        if sponge is not None:
            r = grid.nodes
            ramp = np.clip((r - sponge.start) / (grid.r_max - sponge.start),
                           0.0, None)
            self.damp = np.exp(-dt * sponge.strength * ramp**sponge.power)
            self.loss_weights = grid.weights * (1.0 - self.damp**2)
        else:
            self.damp = None

    def step_values(self, c):
        """One Strang step L(dt/2) P(dt) L(dt/2), sponge between P and the
        closing half-step, on c = DST(r u) at a step boundary.  Returns the
        next boundary's coefficients and the mass the sponge absorbed."""
        p = self.params.p
        v = dst1(self.phase_lin_half * c)  # r u
        a = np.abs(v) / self.grid.nodes    # |u|
        ap2 = a ** (p - 2)
        theta = self.dt * (self.kern.apply(ap2 * a * a) * ap2 - self.Vr)
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
    stepper = Stepper(grid, V, kern, params, cfg.dt, sponge=cfg.sponge)
    sigma_c = rbar = None
    try:  # sigma_c needs (p, gamma) intercritical, r_bar also a small enough eps
        sigma_c = ab_exponents(params)[2]
        rbar = scattering_pairs(params).r_bar
    except ValueError:
        pass

    weight = quadratic_weight(grid) if cfg.weight_R is None else build_weight(cfg.weight_R, grid)
    # each |u|^2-linear diagnostic is one dot product with a row built here
    w = grid.weights
    wV = w * stepper.Vr
    w_dV_ap = weight.weighted[1] * V.dV(grid.nodes)
    w_ball = [np.where(grid.nodes <= R, w, 0.0) for R in cfg.ball_radii]
    w_eta = [w * radial_cutoff(grid, R) for R in cfg.ball_radii]
    chi_p = [radial_cutoff(grid, R) ** params.p for R in cfg.chi_radii]

    n_steps = int(round(cfg.t_end / cfg.dt))
    labels = column_labels(cfg)
    table = np.empty((len(labels), 1 + -(-n_steps // cfg.sample_every)))
    fields = [] if cfg.store_fields else None

    c = dst_coeffs(u0)
    exported = 0.0

    def sample(j, tcur):
        # the Riesz and spectral parts of every diagnostic read one state;
        # the values run in the order of column_labels
        st = FieldState.from_coeffs(grid, c, kern, params.p, chi_p)
        M = st.mass
        E, E0, lam = energy_from_state(st, wV)
        table[:, j] = (
            tcur, M, E, E0, st.P, st.grad_sq, lam,
            *morawetz_z_from_state(st, weight), morawetz_zpp_from_state(st, weight, w_dV_ap),
            *[np.dot(row, st.usq) for row in w_ball], exported,
            st.P * M**sigma_c if sigma_c is not None else np.nan,
            np.dot(w, st.usq ** (0.5 * rbar)) ** (1.0 / rbar) if rbar is not None else np.nan,
            *[np.dot(row, st.usq) for row in w_eta], *st.pairings[1:])
        if fields is not None:
            fields.append(st.u)

    sample(0, 0.0)
    for k in range(1, n_steps + 1):
        c, absorbed = stepper.step_values(c)
        exported += absorbed
        if not np.all(np.isfinite(c.view(float))):
            raise EvolutionBlowup(k * cfg.dt)
        if k % cfg.sample_every == 0 or k == n_steps:
            sample(-(-k // cfg.sample_every), k * cfg.dt)

    fin = from_dst_coeffs(grid, c)
    a = np.abs(fin.values)
    bwarn = bool(stepper.damp is None
                 and a[int(0.95 * grid.n):].max() > 1e-6 * max(a.max(), 1e-300))
    if bwarn:
        warnings.warn(BOUNDARY_WARNING)

    return Trajectory(diagnostics=DiagnosticsSeries(labels, table), fields=fields,
                      final=fin, boundary_warning=bwarn)


def conservation_report(traj: Trajectory) -> dict:
    """Max relative drift of M and E over the pre-export window.

    The drifts are NaN when that window holds fewer than two samples:
    a single sample cannot drift, so it measures nothing.
    """
    d = traj.diagnostics
    if len(d["t"]) < 2:
        raise ValueError("need at least two samples")
    M_all, exported = d["M"], d["exported_mass"]
    pre = exported <= 1e-12 * max(M_all[0], 1e-300)
    M = M_all[pre]
    E = d["E"][pre]
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
