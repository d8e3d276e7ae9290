"""Radial potentials V(r) and the audit of the theorem's hypotheses on them.

Shipped kinds: zero, gaussian, soft inverse power (amplitude/(r^power +
core^power)-style with a smooth core), and tabulated values, linear between
the table's radii and held constant outside them.  Positive amplitude means
repulsive (V >= 0).  ``audit_hypotheses`` returns one plain record whose
``checks`` name each standing assumption once, beside the Kato norms of V
and of its negative part: V in K and L^{3/2} with x.grad V in L^{3/2},
L^2 and L^inf (read off the kind, as
``PotentialSpec.decays``), the negative-part Kato smallness against 4*pi,
V >= 0 and x.grad V <= 0 pointwise.  Failures are reported, never raised.
``energy`` reads E, E0 and the Lambda norm off a ``FieldState``, with V
given as the quadrature row w*V built once per run.
"""

from dataclasses import dataclass

import numpy as np

from .grid import FOUR_PI, FieldState, RadialGrid

SIGN_TOL = 1e-12
LR_EXPONENTS = (1.5, 2.0, np.inf)  # r in the x.grad V in L^r audit


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential with analytic derivative where the kind allows."""

    kind: str                      # zero | gaussian | softpower | table
    amplitude: float = 0.0
    width: float = 1.0             # gaussian scale
    power: float = 2.0             # softpower decay exponent
    core: float = 1.0              # softpower core radius
    radii: tuple[float, ...] | None = None    # table kind
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "gaussian", "softpower", "table"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian width must be positive")
        if self.kind == "softpower" and (self.power <= 0 or self.core <= 0):
            raise ValueError("softpower needs power > 0 and core > 0")
        if self.kind == "table":
            if self.radii is None or self.values is None:
                raise ValueError("table kind needs radii and values")
            r = np.asarray(self.radii, float)
            v = np.asarray(self.values, float)
            if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
                raise ValueError("table needs radii and values of one length >= 2")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
                raise ValueError("table radii and values must be finite")
            if np.any(np.diff(r) <= 0):
                raise ValueError("table radii must be strictly increasing")
            # tuples, so that two specs compare and hash
            object.__setattr__(self, "radii", tuple(r.tolist()))
            object.__setattr__(self, "values", tuple(v.tolist()))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(r)
        elif self.kind == "gaussian":
            out = self.amplitude * np.exp(-((r / self.width) ** 2))
        elif self.kind == "softpower":
            out = self.amplitude * self.core**self.power / (r**self.power + self.core**self.power)
        else:
            out = np.interp(r, np.asarray(self.radii), np.asarray(self.values))
        return out if out.shape else float(out)

    @property
    def decays(self):
        """V lies in K and L^{3/2}, and x.grad V in L^{3/2}, L^2 and L^inf.

        A finite grid cannot tell: its sums are finite for every V.  So it
        is read off the kind.  A softpower V ~ r^(-power) needs power > 2;
        a table holds its last value beyond its last radius, so that value
        must be 0.
        """
        if self.kind == "softpower":
            return self.power > 2 or self.amplitude == 0
        if self.kind == "table":
            return self.values[-1] == 0
        return True

    def dV(self, r):
        """Radial derivative; for a table, the slope of the segment that holds r."""
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(r)
        elif self.kind == "gaussian":
            out = self.amplitude * np.exp(-((r / self.width) ** 2)) * (-2.0 * r / self.width**2)
        elif self.kind == "softpower":
            denom = (r**self.power + self.core**self.power) ** 2
            out = -self.amplitude * self.core**self.power * self.power * r ** (self.power - 1) / denom
        else:
            # V is held constant outside [radii[0], radii[-1]], where the slope is 0
            radii, values = np.asarray(self.radii), np.asarray(self.values)
            slopes = np.concatenate(([0.0], np.diff(values) / np.diff(radii), [0.0]))
            out = slopes[np.searchsorted(radii, r, side="right")]
        return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Kato norm: sup_x int |V(y)| / |x-y| dy.  For radial V, Newton's theorem gives
# the inner integral at |x| = rho as
#   f(rho) = (4*pi/rho) int_0^rho s^2 |V| ds + 4*pi int_rho^inf s |V| ds,
# with f'(rho) = -(4*pi/rho^2) int_0^rho s^2 |V| ds <= 0, so the sup sits at
# the origin.  The grid sums obey the same rule term by term:
#   f(0) - f(r_i) = 4*pi*dr sum_{j<=i} r_j |V_j| (1 - r_j/r_i) >= 0.

def _kato_sum(vals, grid: RadialGrid):
    return float(FOUR_PI * grid.dr * np.dot(grid.nodes, np.abs(vals)))


def audit_hypotheses(V: PotentialSpec, grid: RadialGrid) -> dict:
    """The audit of V against the theorem's hypotheses: the record that
    ``hartree-lab kato`` prints and a run summary stores as ``hypotheses``.

    Each check is one boolean in ``checks``; ``theorem_hypotheses_pass`` is
    V >= 0, x.grad V <= 0 and ``decays``.
    """
    r = grid.nodes
    vals = np.asarray(V(r), float)
    xgv = r * np.asarray(V.dV(r), float)
    knm = _kato_sum(np.minimum(vals, 0.0), grid)
    scale = max(np.max(np.abs(vals)), 1e-300)
    checks = {
        "decays": V.decays,
        "negative_part_below_4pi": bool(knm < FOUR_PI),
        "nonneg": bool(np.all(vals >= -SIGN_TOL * scale)),
        "x_grad_V_nonpositive": bool(np.all(xgv <= SIGN_TOL * max(np.max(np.abs(xgv)), 1e-300))),
        "tail_decayed": bool(np.abs(vals[-1]) * r[-1] ** 2 <= 1e-6 * max(scale, 1.0)),
    }
    return {
        "kato_norm": _kato_sum(vals, grid),
        "kato_norm_negative_part": knm,
        "l32_norm": float(np.sum(grid.weights * np.abs(vals) ** 1.5) ** (2.0 / 3.0)),
        "x_grad_V_lr_norms": {
            str(e): float(np.max(np.abs(xgv))) if np.isinf(e)
            else float(np.sum(grid.weights * np.abs(xgv) ** e) ** (1.0 / e))
            for e in LR_EXPONENTS},
        "checks": checks,
        "theorem_hypotheses_pass": (checks["nonneg"] and checks["x_grad_V_nonpositive"]
                                    and checks["decays"]),
    }


# ---------------------------------------------------------------------------
# V-dependent energies

def energy(st: FieldState, wV: np.ndarray):
    """(E, E0, lambda_norm_sq) of the state for the Hamiltonian with potential
    V; st carries a kernel and p, wV = quadrature weights * V.

    E = E0 + (1/2) int V |u|^2,  E0 = (1/2)|grad u|^2 - P(u)/(2p),
    lambda_norm_sq = |grad u|^2 + int V |u|^2.
    """
    vterm = float(np.dot(wV, st.usq))
    E0 = 0.5 * st.grad_sq - st.P / (2.0 * st.p)
    return E0 + 0.5 * vterm, E0, st.grad_sq + vterm
