"""Morawetz/virial weights, identities, coercivity, and scattering monitors.

The weight is a(r) = r^2 inside R/2 and R*r - R^2/4 outside (C^1 and
convex, the closest consistent completion of the two stated regimes),
mollified over a band of half-width delta so that the bilaplacian stays
bounded: a'' ramps from 2 to 0 through a quintic smoothstep, which keeps
a'' >= 0 exactly and lands a' on the constant R at the band's outer edge.

z(t) = int a |u|^2, z' = 2 Im int a'(r) u_r conj(u), and z'' is assembled
from its four terms.  ``morawetz_z`` and ``morawetz_zpp`` take one
``FieldState`` and read u and u' off its real rows (re, im); z' and the
monitor's flux 2 Im int eta_R' u_r conj(u) dot the current Im(conj(u) u').
The nonlocal term needs
S = int int (grad a(x) - grad a(y)).(x-y) |x-y|^(gamma-5) g(x) g(y),
g = |u|^p; as (x-y)|x-y|^(gamma-5) = grad_x |x-y|^(gamma-3)/(gamma-3), the
symmetric integrand halves to S = 2/(gamma-3) int g a'(r) h'(r) dx with
h = I_gamma*g, an O(n) sum over the spectral h'.  The overall sign
convention is pinned by requiring z'' = d^2 z/dt^2 along trajectories;
with it, the globally quadratic weight (S = 2P) reduces z'' to

    8 |grad u|^2 - (4B/p) P(u) - 4 int r V'(r) |u|^2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exponents import ModelParams, ab_exponents
from .grid import FieldState, RadialField, RadialGrid
from .groundstate import GroundStateResult
from .riesz import RieszKernel


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
    """eta_R' of eta_R = ``radial_cutoff``, -(pi/R) sin(2 pi (r/R - 1/2)) on the ramp."""
    x = grid.nodes / R
    return np.where((x > 0.5) & (x < 1.0), -np.pi / R * np.sin(2.0 * np.pi * (x - 0.5)), 0.0)


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

    @cached_property
    def weighted(self):
        """Quadrature weights times (a, a', a'', Lap a, Bilap a), built once."""
        w = self.grid.weights
        return tuple(w * x for x in (self.a, self.ap, self.app, self.lap_a, self.bilap_a))


def quadratic_weight(grid: RadialGrid) -> MorawetzWeight:
    r = grid.nodes
    return MorawetzWeight(
        grid=grid, R=None, band=0.0,
        a=r**2, ap=2 * r, app=np.full(grid.n, 2.0),
        lap_a=np.full(grid.n, 6.0), bilap_a=np.zeros(grid.n),
    )


def build_weight(R: float, grid: RadialGrid) -> MorawetzWeight:
    """The truncated weight at radius R, mollified over the band
    delta = R/100 on each side of R/2."""
    if not (0 < R < grid.r_max):
        raise ValueError("R in (0, r_max) required")
    delta = R / 100.0
    x0 = R / 2 - delta
    x1 = R / 2 + delta
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

    w = MorawetzWeight(grid=grid, R=R, band=delta, a=a, ap=ap, app=app,
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
    return 2.0 / (st.kern.gamma - 3.0) * float(np.dot(weight.weighted[1], st.g * st.hp))


def morawetz_z(st: FieldState, weight: MorawetzWeight):
    """(z, z') = (int a|u|^2, 2 Im int a' u_r conj(u))."""
    wa, wap = weight.weighted[:2]
    return float(np.dot(wa, st.usq)), float(2.0 * np.dot(wap, st.current))


def morawetz_zpp(st: FieldState, weight: MorawetzWeight, w_dV_ap: np.ndarray) -> float:
    """Second time derivative of z from the four-term identity, for a state
    with a kernel and p; w_dV_ap = quadrature weights * V' a'."""
    p = st.p
    _, _, wapp, wlap, wbilap = weight.weighted
    if weight.quadratic:
        # Lap a = 6 and S = 2P: both terms by Parseval, no h
        term_a = -24.0 * (0.5 - 1.0 / p) * st.P
        S = 2.0 * st.P
    else:
        term_a = -4.0 * (0.5 - 1.0 / p) * float(np.dot(wlap, st.h * st.g))
        S = nonlocal_pair_term(st, weight)
    dre, dim = st.du_rows
    term_b = -float(np.dot(wbilap, st.usq))
    term_c = 4.0 * float(np.dot(wapp, dre**2 + dim**2))
    term_d = -(2.0 * (3.0 - st.kern.gamma) / p) * S
    term_v = -2.0 * float(np.dot(w_dV_ap, st.usq))
    return term_a + term_b + term_c + term_d + term_v


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
    st = FieldState(u, kern, p)
    ratio = st.P * st.mass**sigma_c / gs.thresholds["PQ_MQ_sigma"]
    if not ratio < 1.0:  # a NaN ratio measures nothing
        return {"hypothesis_satisfied": False, "ratio": float(ratio)}
    delta = 1.0 - ratio
    if ratio == 0.0:
        return {"hypothesis_satisfied": True, "ratio": 0.0, "delta": 1.0,
                "delta_prime": np.inf, "lhs": 0.0, "rhs": 0.0, "margin": 0.0,
                "pass": True}
    # delta' = (B/2p)((1-delta)^{-(B-2)/B} - 1), written via the ratio so
    # tiny fields (delta -> 1) do not underflow
    delta_p = (B / (2 * p)) * (ratio ** (-(B - 2) / B) - 1.0)
    chi = FieldState(cutoff_field(u, R), kern, p)
    Pchi = chi.P
    lhs = chi.grad_sq - (B / (2 * p)) * Pchi
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

def morawetz_average(series, params: ModelParams, R: float, T: float) -> dict:
    """(1/T) int_0^T P(chi_R u) dt against the R/T + R^(-(N-1)B/N) shape,
    from the series' p_chi_R column."""
    _, B, _ = ab_exponents(params)
    sel = series["t"] <= T + 1e-12
    t = series["t"][sel]
    pc = series[f"p_chi_{R:g}"][sel]
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


def scattering_monitor(series, R: float, eps: float) -> dict:
    """Localized-mass monitor for the scattering criterion: the minimum of
    the sharp-ball mass over the samples, whether it crosses eps^2, and
    flux_ratio, the largest R |flux| / (2 pi ||u|| ||grad u||) over the
    samples of the exact flux d/dt int eta_R |u|^2 = 2 Im int eta_R' u_r
    conj(u) (column eta_flux_R), which Cauchy-Schwarz with
    max|eta_R'| = pi/R bounds by 1."""
    mb = series[f"mass_in_ball_{R:g}"]
    flux = np.abs(series[f"eta_flux_{R:g}"])
    flux_ratio = float(np.max(R * flux / (2 * np.pi * np.sqrt(series["M"] * series["grad_sq"]))))
    min_mass = float(np.min(mb))
    return {
        "min_mass_in_ball": min_mass,
        "initial_mass_in_ball": float(mb[0]),
        "final_mass_in_ball": float(mb[-1]),
        "eps_sq": float(eps**2),
        "crossed": bool(min_mass <= eps**2),
        "max_flux": float(np.max(flux)),
        "flux_ratio": flux_ratio,
        "rate_bound_pass": bool(flux_ratio <= 1.0),
    }
