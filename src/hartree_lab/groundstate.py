"""Ground state Q of -Q + Lap(Q) + (I_gamma * Q^p) Q^{p-1} = 0.

Petviashvili iteration (Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42,
2004) on the real sine coefficients q of r*Q, where 1 - Lap is diagonal:
T(q) = S^alpha N^/(1+k^2), N^ = DST(r (I_gamma*Q^p)Q^{p-1}), Q = DST(q)/r,
S = sum (1+k^2)q^2 / sum q N^ (Parseval), alpha = (2p-1)/(2p-2).  Each step
is mixed with the last, Anderson of depth 1 (Walker & Ni, SIAM J. Numer.
Anal. 49, 2011): with f = T(q) - q and df, dq the changes of f and q since
the last step, q <- q + f - (df.f/df.df)(dq + df).  The stop rule max|f| <
1e-14 max|T(q)| reads the unmixed step, which unlike the mixed one is not
small by chance.  The seed is exp(-r^2).

Every result is certified where it is solved: the residual against
``RESIDUAL_TOL``, then ``certify`` (decay at r_max, positivity and radial
monotonicity up to a round-off floor, Pohozaev).
The residual, mass, |grad Q|^2 and P come from one FieldState of q, as a
diagnostics sample's come from one of its coefficients.
"""

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.fft as sfft

from .exponents import ModelParams, ab_exponents
from .grid import FieldState, RadialField, RadialGrid
from .riesz import RieszKernel

POSITIVITY_FLOOR = 1e-12   # relative to max(Q): the true tail is below round-off
MAX_ITER = 2000
BOUNDARY_TOL = 1e-8        # certify: |Q(r_n)| relative to max|Q|
RESIDUAL_TOL = 1e-9        # solve: the elliptic residual, relative to max|Q|
POHOZAEV_TOL = 1e-6        # certify: each relative Pohozaev defect
THRESHOLD_TOL = 1e-6       # threshold_functions: g(x0), f(1) and f against g


def _dst(x):  # orthonormal DST-I of a real x, its own inverse
    return sfft.dst(x, type=1, norm="ortho")


class GroundStateError(RuntimeError):
    pass


@dataclass
class GroundStateResult:
    Q: RadialField
    residual: float            # sup-norm of the elliptic operator at Q, / max|Q|
    iterations: int
    mass: float
    grad_norm_sq: float        # spectral
    P: float
    E0: float
    params: ModelParams        # (p, kern.gamma)
    kern: RieszKernel          # the kernel Q was solved with, on Q's grid
    C_op: float = dfield(init=False)
    thresholds: dict = dfield(init=False)

    def __post_init__(self):
        self.C_op = sharp_constant(self)
        sigma_c = ab_exponents(self.params)[2]
        self.thresholds = {
            "PQ_MQ_sigma": self.P * self.mass**sigma_c,
            "ME_threshold": self.mass**sigma_c * self.E0,
            "grad_mass_threshold": np.sqrt(self.mass) ** sigma_c * np.sqrt(self.grad_norm_sq),
        }

    def certify(self):
        """Raise GroundStateError if an invariant fails.  The two sharp-constant
        forms differ by the factor (P/((2p/B)|grad Q|^2))^(B/2), B < 12, so
        Pohozaev's P_vs_grad check at POHOZAEV_TOL also bounds their disagreement."""
        q = self.Q.values.real
        mx = float(np.max(np.abs(q)))
        if abs(q[-1]) > BOUNDARY_TOL * mx:
            raise GroundStateError("Q has not decayed at the truncation radius")
        if np.min(q) < -POSITIVITY_FLOOR * mx:
            raise GroundStateError("Q is not positive beyond the round-off floor")
        if np.max(np.diff(q)) > POSITIVITY_FLOOR * mx:
            raise GroundStateError("Q is not radially nonincreasing")
        rep = pohozaev_check(self)
        if not rep["pass"]:
            raise GroundStateError(f"Pohozaev defects too large: {rep}")


def coeff_laplacian(grid: RadialGrid, q: np.ndarray) -> np.ndarray:
    """Lap Q = DST(-k^2 q)/r of Q = DST(q)/r, read off its real sine
    coefficients q rather than off a transform of Q, whose round-off k^2
    would scale."""
    return _dst(-grid.wavenumbers**2 * q) / grid.nodes


def elliptic_residual(st: FieldState) -> float:
    """sup|-Q + Lap Q + (I_gamma*|Q|^p)|Q|^{p-2}Q| / sup|Q| for the state of
    Q's real sine coefficients q, Lap Q by ``coeff_laplacian``."""
    Q = st.u_rows[0]
    res = (-Q + coeff_laplacian(st.grid, st.coeffs.real)
           + st.kern.hartree_factor(np.abs(Q), st.p) * Q)
    return float(np.max(np.abs(res)) / np.max(np.abs(Q)))


def solve_ground_state(p: float, kern: RieszKernel) -> GroundStateResult:
    """Q at (p, kern.gamma) on the kernel's grid, certified."""
    params = ModelParams(p, kern.gamma)
    ab_exponents(params)  # raises "not intercritical" off the range, where Q does not exist
    grid = kern.grid
    alpha = (2 * p - 1) / (2 * p - 2)
    r, ksq1 = grid.nodes, 1.0 + grid.wavenumbers**2
    Q = np.exp(-r**2)
    q, q_prev, f_prev = _dst(r * Q), None, None
    for it in range(1, MAX_ITER + 1):
        Nh = _dst(r * (kern.hartree_factor(np.abs(Q), p) * Q))
        num = float(np.dot(ksq1 * q, q))
        den = float(np.dot(q, Nh))
        if den <= 0 or not np.isfinite(den):
            raise GroundStateError("stabilization factor diverged (collapse to zero)")
        f = (num / den) ** alpha * Nh / ksq1 - q
        qn = q + f
        step = float(np.max(np.abs(f)) / np.max(np.abs(qn)))
        if f_prev is not None:
            df, dq = f - f_prev, q - q_prev
            dff = float(np.dot(df, df))
            if dff > 0:
                qn -= float(np.dot(df, f)) / dff * (dq + df)
        q, q_prev, f_prev = qn, q, f
        Q = _dst(q) / r
        if step < 1e-14:
            break
    st = FieldState.from_coeffs(grid, q, kern, p)
    res = elliptic_residual(st)
    if res > RESIDUAL_TOL:
        raise GroundStateError(
            f"no convergence after {it} iterations: residual {res} > {RESIDUAL_TOL}")
    gsq, P = st.grad_sq, st.P
    gs = GroundStateResult(Q=RadialField(grid, Q), residual=res, iterations=it, mass=st.mass,
                           grad_norm_sq=gsq, P=P, E0=0.5 * gsq - P / (2 * p), params=params,
                           kern=kern)
    gs.certify()
    return gs


def pohozaev_check(gs: GroundStateResult) -> dict:
    """Relative defects of the three Pohozaev identities; pass iff <= POHOZAEV_TOL."""
    A, B, _ = ab_exponents(gs.params)
    d1 = abs(gs.E0 - (B - 2) / (2 * B) * gs.grad_norm_sq) / abs(gs.E0)
    d2 = abs(gs.E0 - (B - 2) / (2 * A) * gs.mass) / abs(gs.E0)
    d3 = abs(gs.P - (2 * gs.params.p / B) * gs.grad_norm_sq) / gs.P
    return {
        "E0_vs_grad": d1,
        "E0_vs_mass": d2,
        "P_vs_grad": d3,
        "pass": bool(max(d1, d2, d3) <= POHOZAEV_TOL),
    }


def _sharp_constant_forms(gs: GroundStateResult):
    """The two closed forms of the sharp constant, see `sharp_constant`."""
    p = gs.params.p
    A, B, sigma_c = ab_exponents(gs.params)
    c1 = gs.P / (gs.mass ** (A / 2) * gs.grad_norm_sq ** (B / 2))
    c2 = (2 * p / B) ** (B / 2) / (gs.mass**sigma_c * gs.P) ** (B / 2 - 1)
    return c1, c2


def sharp_constant(gs: GroundStateResult) -> float:
    """Best constant in P(u) <= C |u|_2^A |grad u|_2^B, the mean of two forms.

    C = P(Q) / (|Q|^A |grad Q|^B) and the Pohozaev-equivalent
    C = (2p/B)^{B/2} / (M(Q)^{sigma_c} P(Q))^{B/2-1}; they disagree only
    where Pohozaev's P = (2p/B)|grad Q|^2 fails, which ``certify`` rejects.
    """
    return 0.5 * sum(_sharp_constant_forms(gs))


def sharp_constant_defect(gs: GroundStateResult) -> float:
    c1, c2 = _sharp_constant_forms(gs)
    return abs(c1 - c2) / c1


def threshold_f(y, B: float):
    """f(y) = (B y^2 - 2 y^B)/(B-2): g(x0 y)/g(x0), g rescaled to its peak."""
    return (B * y**2 - 2 * y**B) / (B - 2)


def threshold_functions(gs: GroundStateResult) -> dict:
    """Checks on g(x) = x^2/2 - (C/2p) x^B and f = ``threshold_f``.

    Verifies the critical point x0 = |Q|^sigma |grad Q|, g(x0) equal to
    M(Q)^sigma E0(Q), f(1) = 1, monotonicity of f on (0,1) and f(y) =
    g(x0 y)/g(x0) there, each within THRESHOLD_TOL and each f read off
    ``threshold_f``.
    """
    p = gs.params.p
    A, B, sigma_c = ab_exponents(gs.params)
    C = gs.C_op

    def g(x):
        return 0.5 * x**2 - C / (2 * p) * x**B

    x0 = np.sqrt(gs.mass) ** sigma_c * np.sqrt(gs.grad_norm_sq)
    target = gs.mass**sigma_c * gs.E0
    g_defect = abs(g(x0) - target) / abs(target)
    gprime = x0 - C * B / (2 * p) * x0 ** (B - 1)
    gpp = 1 - C * B * (B - 1) / (2 * p) * x0 ** (B - 2)  # 2 - B at the ground state
    gprime_small = bool(abs(gprime) <= 1e-8 * abs(gpp) * x0)
    ys = np.linspace(1e-3, 1 - 1e-3, 101)
    fvals = threshold_f(ys, B)
    f_increasing = bool(np.all(np.diff(fvals) > 0))
    f_at_1 = float(threshold_f(1.0, B))
    f_g_defect = float(np.max(np.abs(fvals - g(x0 * ys) / g(x0))))
    return {
        "x0": float(x0),
        "gprime_x0": float(gprime),
        "gprime_small": gprime_small,
        "g_x0_defect": float(g_defect),
        "f_at_1": f_at_1,
        "f_increasing_on_01": f_increasing,
        "f_g_defect": f_g_defect,
        "pass": bool(g_defect <= THRESHOLD_TOL and gprime_small and f_increasing
                     and abs(f_at_1 - 1) <= THRESHOLD_TOL and f_g_defect <= THRESHOLD_TOL),
    }
