"""Morawetz/virial weights, identities, coercivity, and scattering monitors.

The weight is a(r) = r^2 inside R/2 and R*r - R^2/4 outside (C^1 and
convex, the closest consistent completion of the two stated regimes),
mollified over a band of half-width delta so that the bilaplacian stays
bounded: a'' ramps from 2 to 0 through a quintic smoothstep, which keeps
a'' >= 0 exactly and lands a' on the constant R at the band's outer edge.

z(t) = int a |u|^2, z' = 2 Im int a'(r) u_r conj(u), and z'' is assembled
from its four terms, all read off one ``FieldState``.  The nonlocal term
needs S = int int (grad a(x) - grad a(y)).(x-y) |x-y|^(gamma-5) g(x) g(y),
g = |u|^p; as (x-y)|x-y|^(gamma-5) = grad_x |x-y|^(gamma-3)/(gamma-3), the
symmetric integrand halves to S = 2/(gamma-3) int g a'(r) h'(r) dx with
h = I_gamma*g, an O(n) sum over the spectral h'.  The overall sign
convention is pinned by requiring z'' = d^2 z/dt^2 along trajectories;
with it, the globally quadratic weight (S = 2P) reduces z'' to

    8 |grad u|^2 - (4B/p) P(u) - 4 int r V'(r) |u|^2.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .exponents import ModelParams, ab_exponents
from .grid import (FieldState, RadialField, RadialGrid, grad_norm_sq_spectral,
                   l2_norm_sq)
from .groundstate import GroundStateResult
from .potentials import PotentialSpec
from .riesz import RieszKernel, potential_energy


# ---------------------------------------------------------------------------
# cutoffs: value 1 on r <= R/2, cos^2 ramp to 0 at r = R

def radial_cutoff(grid: RadialGrid, R: float) -> np.ndarray:
    x = grid.nodes / R
    out = np.zeros(grid.n)
    out[x <= 0.5] = 1.0
    band = (x > 0.5) & (x < 1.0)
    out[band] = np.cos(np.pi * (x[band] - 0.5)) ** 2
    return out


def radial_cutoff_derivative(grid: RadialGrid, R: float) -> np.ndarray:
    x = grid.nodes / R
    out = np.zeros(grid.n)
    band = (x > 0.5) & (x < 1.0)
    out[band] = -np.pi * np.sin(2 * np.pi * (x[band] - 0.5)) / R
    return out


def cutoff_field(u: RadialField, R: float) -> RadialField:
    return RadialField(u.grid, radial_cutoff(u.grid, R) * u.values)


# ---------------------------------------------------------------------------
# weight

def _smoothstep(t):
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_i1(t):
    # int_0^t S
    return t**4 * (2.5 + t * (-3.0 + t))


def _smoothstep_i2(t):
    # int_0^t int S
    return t**5 * (0.5 + t * (-0.5 + t / 7.0))


@dataclass
class MorawetzWeight:
    grid: RadialGrid
    R: float | None               # None: globally quadratic a = r^2
    band: float
    a: np.ndarray
    ap: np.ndarray                # a'
    app: np.ndarray               # a''
    lap_a: np.ndarray             # Laplacian of a
    bilap_a: np.ndarray           # bilaplacian

    @property
    def quadratic(self):
        return self.R is None

    def label(self):
        return "quadratic" if self.R is None else f"truncated_R{self.R:g}"


def quadratic_weight(grid: RadialGrid) -> MorawetzWeight:
    r = grid.nodes
    return MorawetzWeight(
        grid=grid, R=None, band=0.0,
        a=r**2, ap=2 * r, app=np.full(grid.n, 2.0),
        lap_a=np.full(grid.n, 6.0), bilap_a=np.zeros(grid.n),
    )


def build_weight(R: float, grid: RadialGrid, band: float | None = None) -> MorawetzWeight:
    if not (0 < R < grid.r_max):
        raise ValueError("R in (0, r_max) required")
    if band is None:
        band = R / 100.0
    delta = band
    x0 = R / 2 - delta
    x1 = R / 2 + delta
    if x0 <= 0:
        raise ValueError("band too wide")
    r = grid.nodes
    tau = np.clip((r - x0) / (2 * delta), 0.0, 1.0)
    below = r <= x0
    above = r >= x1
    mid = ~below & ~above

    app = np.where(below, 2.0, 0.0)
    app[mid] = 2.0 * (1.0 - _smoothstep(tau[mid]))

    ap = np.where(below, 2 * r, R)
    ap[mid] = 2 * r[mid] - 4 * delta * _smoothstep_i1(tau[mid])

    a = np.where(below, r**2, R * r - R**2 / 4 - delta**2 / 7.0)
    a[mid] = r[mid] ** 2 - 8 * delta**2 * _smoothstep_i2(tau[mid])

    appp = np.zeros(grid.n)
    apppp = np.zeros(grid.n)
    t = tau[mid]
    sp = 30.0 * t**2 * (t - 1.0) ** 2
    spp = 60.0 * t * (2.0 * t - 1.0) * (t - 1.0)
    appp[mid] = -sp / delta
    apppp[mid] = -spp / (2 * delta**2)

    lap_a = app + 2 * ap / r
    bilap_a = apppp + 4 * appp / r  # nonzero only in the band

    w = MorawetzWeight(grid=grid, R=R, band=band, a=a, ap=ap, app=app,
                       lap_a=lap_a, bilap_a=bilap_a)
    assert np.all(w.ap > 0)
    assert np.all(w.app >= -1e-12)
    assert np.all(np.abs(w.ap) <= np.maximum(2 * r, R) * (1 + 1e-12))
    return w


# ---------------------------------------------------------------------------
# z, z', z''

def nonlocal_pair_term(st: FieldState, weight: MorawetzWeight) -> float:
    """S = int int (grad a(x)-grad a(y)).(x-y) |x-y|^(gamma-5) g g
         = 2/(gamma-3) int g a'(r) h'(r) dx, from the state's g and h'."""
    w = st.grid.weights
    return 2.0 / (st.kern.gamma - 3.0) * float(np.sum(w * st.g * weight.ap * st.hp))


def morawetz_z(u: RadialField, weight: MorawetzWeight):
    """(z, z') = (int a|u|^2, 2 Im int a' u_r conj(u))."""
    return morawetz_z_from_state(FieldState(u), weight)


def morawetz_z_from_state(st: FieldState, weight: MorawetzWeight):
    w = st.grid.weights
    z = float(np.sum(w * weight.a * st.usq))
    zp = float(2.0 * np.sum(w * weight.ap * np.imag(st.du * np.conj(st.u.values))))
    return z, zp


def morawetz_zpp(u: RadialField, weight: MorawetzWeight, V: PotentialSpec,
                 kern: RieszKernel, params: ModelParams) -> float:
    """Second time derivative of z from the four-term identity."""
    return morawetz_zpp_from_state(FieldState(u, kern, params.p), weight, V)


def morawetz_zpp_from_state(st: FieldState, weight: MorawetzWeight,
                            V: PotentialSpec) -> float:
    p = st.p
    gamma = st.kern.gamma
    w = st.grid.weights
    term_a = -4.0 * (0.5 - 1.0 / p) * float(np.sum(w * weight.lap_a * st.h * st.g))
    term_b = -float(np.sum(w * weight.bilap_a * st.usq))
    term_c = 4.0 * float(np.sum(w * weight.app * np.abs(st.du) ** 2))
    S = 2.0 * st.P if weight.quadratic else nonlocal_pair_term(st, weight)
    term_d = -(2.0 * (3.0 - gamma) / p) * S
    if V.is_zero():
        term_v = 0.0
    else:
        term_v = -2.0 * float(np.sum(w * V.dV(st.grid.nodes) * weight.ap * st.usq))
    return term_a + term_b + term_c + term_d + term_v


# ---------------------------------------------------------------------------
# diagnostics series

@dataclass
class DiagnosticsSeries:
    t: np.ndarray
    M: np.ndarray
    E: np.ndarray
    E0: np.ndarray
    P: np.ndarray
    grad_sq: np.ndarray
    lambda_sq: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    zpp: np.ndarray
    mass_in_ball: dict
    eta_mass: dict
    p_chi: dict
    exported_mass: np.ndarray
    threshold_track: np.ndarray
    lr_norm_rbar: np.ndarray
    extra_chains: dict = dfield(default_factory=dict)  # label -> (z, zp, zpp)

    def h1_sq(self):
        return self.M + self.grad_sq


# ---------------------------------------------------------------------------
# coercivity (localized)

def coercivity_check(u: RadialField, gs: GroundStateResult, R: float,
                     kern: RieszKernel) -> dict:
    """Localized coercivity |grad(chi_R u)|^2 - (B/2p) P(chi_R u) >= delta' P(chi_R u).

    delta comes from the threshold ratio P(u)M(u)^sigma / (P(Q)M(Q)^sigma);
    the report carries the hypothesis state instead of raising.
    """
    params = gs.params
    p = params.p
    A, B, sigma_c = ab_exponents(params)
    Pu = potential_energy(kern, u, p)
    Mu = l2_norm_sq(u)
    ratio = (Pu * Mu**sigma_c) / gs.thresholds["PQ_MQ_sigma"]
    if ratio >= 1.0:
        return {"hypothesis_satisfied": False, "ratio": float(ratio)}
    delta = 1.0 - ratio
    if ratio == 0.0:
        return {"hypothesis_satisfied": True, "ratio": 0.0, "delta": 1.0,
                "delta_prime": np.inf, "lhs": 0.0, "rhs": 0.0, "margin": 0.0,
                "pass": True}
    # delta' = (B/2p)((1-delta)^{-(B-2)/B} - 1), written via the ratio so
    # tiny fields (delta -> 1) do not underflow
    delta_p = (B / (2 * p)) * (ratio ** (-(B - 2) / B) - 1.0)
    chi_u = cutoff_field(u, R)
    Pchi = potential_energy(kern, chi_u, p)
    gchi = grad_norm_sq_spectral(chi_u)
    lhs = gchi - (B / (2 * p)) * Pchi
    rhs = delta_p * Pchi
    # on the scaling family u = c Q the chain of inequalities saturates
    # exactly, so the check carries a small discretization allowance
    tol = 1e-5 * (abs(lhs) + abs(rhs))
    return {
        "hypothesis_satisfied": True,
        "ratio": float(ratio),
        "delta": float(delta),
        "delta_prime": float(delta_p),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "margin": float(lhs - rhs),
        "pass": bool(lhs >= rhs - tol),
    }


# ---------------------------------------------------------------------------
# Morawetz averages (time-averaged localized potential energy) and monitors

def morawetz_average(series: DiagnosticsSeries, gs: GroundStateResult,
                     R: float, T: float) -> dict:
    """(1/T) int_0^T P(chi_R u) dt against the R/T + R^(-(N-1)B/N) shape."""
    if R not in series.p_chi:
        raise ValueError(f"series lacks P(chi_R u) for R={R}")
    _, B, _ = ab_exponents(gs.params)
    sel = series.t <= T + 1e-12
    t = series.t[sel]
    pc = series.p_chi[R][sel]
    if len(t) < 2:
        raise ValueError("need at least two samples within [0, T]")
    avg = float(np.trapezoid(pc, t) / (t[-1] - t[0]))
    expo = 2.0 * B / 3.0 if 2 * B < 6 else 2.0
    bound = R / T + R ** (-expo)
    # evacuation scan: times of successive record minima of P(chi_R u)
    rec = np.minimum.accumulate(pc)
    drops = np.where(np.diff(rec) < 0)[0] + 1
    return {
        "average": avg,
        "bound_shape": float(bound),
        "ratio": float(avg / bound),
        "evacuation_times": [float(x) for x in t[drops]],
        "final_p_chi": float(pc[-1]),
    }


def scattering_monitor(series: DiagnosticsSeries, R: float, eps: float) -> dict:
    """Localized-mass monitor for the scattering criterion.

    Reports the minimum of the sharp-ball mass over sampled times and
    whether it crosses eps^2.  The derivative-bound audit uses the smooth
    eta_R-localized mass (the object whose time derivative the identity
    2 Im int grad(eta_R).grad(u) conj(u) controls by C/R).
    """
    if R not in series.mass_in_ball:
        raise ValueError(f"series lacks mass_in_ball for R={R}")
    mb = series.mass_in_ball[R]
    em = series.eta_mass[R]
    t = series.t
    min_mass = float(np.min(mb))
    crossed = bool(min_mass <= eps**2)
    sup_h1 = float(np.max(series.h1_sq()))
    if len(t) >= 3:
        dm = np.gradient(em, t)
        max_rate = float(np.max(np.abs(dm)))
    else:
        max_rate = 0.0
    c_est = max_rate * R
    return {
        "min_mass_in_ball": min_mass,
        "initial_mass_in_ball": float(mb[0]),
        "final_mass_in_ball": float(mb[-1]),
        "eps_sq": float(eps**2),
        "crossed": crossed,
        "max_rate_eta_mass": max_rate,
        "C_estimate": float(c_est),
        "C_bound": float(10.0 * sup_h1),
        "rate_bound_pass": bool(c_est <= 10.0 * sup_h1),
    }
