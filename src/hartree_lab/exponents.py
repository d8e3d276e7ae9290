"""Exponent bookkeeping for the intercritical generalized Hartree model.

Everything here is rational arithmetic in (p, gamma, epsilon): the
functions accept floats or ``fractions.Fraction`` and preserve the type,
so identities can be checked exactly in the eps -> 0 limit.  The
"slightly perturbed" exponents (3^-, 4^+, and friends) are exact rational
functions of epsilon, never floating fudge factors.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

IDENTITY_TOL = 1e-12

_INF = float("inf")


def _half(x):
    # 3/2 etc. in a type-preserving way
    return Fraction(3, 2) if isinstance(x, Fraction) else 1.5


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity power p >= 2, Riesz order gamma in (0,3)."""

    p: float
    gamma: float

    def __post_init__(self):
        if not self.p >= 2:
            raise ValueError("p >= 2 required")
        if not (0 < self.gamma < 3):
            raise ValueError("gamma in (0,3) required")

    @property
    def intercritical(self) -> bool:
        return (5 + self.gamma) / 3 < self.p < 3 + self.gamma


def _check_eps(eps):
    """The pair perturbation epsilon must lie in [0, 1/10)."""
    if not (0 <= eps < 0.1):
        raise ValueError("epsilon in [0, 1/10) required")


def critical_exponent(params: ModelParams):
    """Scaling-critical Sobolev index s_c = 3/2 - (gamma+2)/(2(p-1))."""
    p, g = params.p, params.gamma
    return _half(p) - (g + 2) / (2 * (p - 1))


def ab_exponents(params: ModelParams):
    """(A, B, sigma_c) with A = 3+gamma-p, B = 3p-(3+gamma).

    Defined on ``params.intercritical``, the one test of the range that
    ``solve_ground_state`` also reads.
    """
    if not params.intercritical:
        raise ValueError(f"p = {params.p}, gamma = {params.gamma} outside "
                         "(5+gamma)/3 < p < 3+gamma: not intercritical")
    s_c = critical_exponent(params)
    sigma_c = (1 - s_c) / s_c
    A = 3 + params.gamma - params.p
    B = 3 * params.p - (3 + params.gamma)
    return A, B, sigma_c


def is_l2_admissible(q, r) -> bool:
    """2/q + 3/r = 3/2 with q >= 2, 2 <= r <= 6 (each up to IDENTITY_TOL)."""
    if q <= 0 or r <= 0:
        return False
    if not (q >= 2 - IDENTITY_TOL and 2 - IDENTITY_TOL <= r <= 6 + IDENTITY_TOL):
        return False
    lhs = (0 if (isinstance(q, float) and math.isinf(q)) else 2 / q) + 3 / r
    return abs(lhs - _half(lhs)) <= IDENTITY_TOL


def is_hs_admissible(q, r, s) -> bool:
    """2/q + 3/r = 3/2 - s (up to IDENTITY_TOL) with q > 2/(1-s), 6/(3-2s) <= r < 6."""
    if q <= 0 or r <= 0 or not (0 < s < 1):
        return False
    lhs = (0 if math.isinf(q) else 2 / q) + 3 / r
    if abs(lhs - (1.5 - s)) > IDENTITY_TOL:
        return False
    return q > 2 / (1 - s) and 6 / (3 - 2 * s) <= r < 6


def scattering_pairs(params: ModelParams, eps) -> dict:
    """All exponents used by the small-data/scattering machinery, by name:
    the record `hartree-lab exponents` prints under ``exponents``.

    Raises ValueError for eps outside [0, 1/10), and when
    ``distant_past_pairs`` has no pair at the point (eps too large for
    it).  The other pairs' L2-admissibility, the (a_bar, r_bar) scaling
    and 0 < theta < theta_bar < 1 hold identically for p >= 2, gamma in
    (0, 3) and eps in [0, 1/10), so no check of them can fail here.
    """
    _check_eps(eps)
    p, g = params.p, params.gamma
    s_c = critical_exponent(params)
    A, B, sigma_c = ab_exponents(params)

    r_bar = 12 * (p - 1) / (3 + 2 * g - 2 * eps)
    a_bar = 8 * (p - 1) / (1 + 2 * eps)
    r3_minus = 3 / (1 + eps)
    q4_plus = 4 / (1 - 2 * eps)
    p_tilde = 12 * (p - 1) / (6 * p - 7 - 2 * eps)

    q = 8 * (g + 2) / (3 * (1 + 2 * eps))
    r = 4 * (g + 2) / (3 + 2 * g - 2 * eps)
    m = 3 * q
    n = 3 * r
    s = 3 * n / (3 + n)

    theta = 3 * (r - 2) / (2 * r)
    theta_bar = 2 / r

    _, k, l, p_bar = distant_past_pairs(params, eps)

    return {
        "s_c": s_c, "sigma_c": sigma_c, "A": A, "B": B,
        "r_bar": r_bar, "a_bar": a_bar, "p_tilde": p_tilde,
        "r3_minus": r3_minus, "q4_plus": q4_plus,
        "q": q, "r": r, "m": m, "n": n, "s": s,
        "theta": theta, "theta_bar": theta_bar,
        "k": k, "l": l, "p_bar": p_bar,
        "abar_rbar_hs_admissible": is_hs_admissible(a_bar, r_bar, s_c),
    }


def distant_past_pairs(params: ModelParams, eps):
    """(theta, k, l, p_bar) for the distant-past interpolation.

    For p >= (gamma+4)/2 the choice theta = 2/r_bar gives l = 2, k = inf;
    below that threshold theta sits just above (gamma+4-2p)/(p-1) so that
    p_bar > 2, still respecting l = r_bar*theta in [2, 6].

    Raises ValueError when theta leaves (0, 1) or the p_bar denominator
    2+gamma-3*theta*(p-1) is not positive; l in [2, 6], p_bar > 2 and the
    L2-admissibility of (k, l) hold by construction for eps in [0, 1/10).
    """
    _check_eps(eps)
    p, g = params.p, params.gamma
    ab_exponents(params)  # raises "not intercritical" off the range
    r_bar = 12 * (p - 1) / (3 + 2 * g - 2 * eps)
    theta_floor = (g + 4 - 2 * p) / (p - 1)  # p_bar > 2 needs theta > this
    lower = 2 / r_bar
    if theta_floor < lower:
        theta = lower
    else:
        theta = theta_floor + (eps if eps > 0 else 1e-6)
    failures = []
    if not (0 < theta < 1):
        failures.append(f"theta = {theta} outside (0,1)")
    l = r_bar * theta
    k = _INF if abs(l - 2) <= IDENTITY_TOL else 4 * l / (3 * l - 6)
    denom = 2 + g - 3 * theta * (p - 1)
    if denom <= 0:
        failures.append("p_bar denominator 2+gamma-3*theta*(p-1) <= 0")
        p_bar = _INF
    else:
        p_bar = 4 * (1 - theta) * (p - 1) / denom
    if failures:
        raise ValueError("; ".join(failures))
    return theta, k, l, p_bar


def identity_report(params: ModelParams, eps) -> dict:
    """Pass/fail of every algebraic identity at these parameters."""
    es = scattering_pairs(params, eps)
    s_c, A, B, sigma_c = es["s_c"], es["A"], es["B"], es["sigma_c"]
    checks = {
        "A_plus_B_eq_2p": abs(A + B - 2 * params.p),
        "A_plus_2sigma_eq_B_sigma": abs(A + 2 * sigma_c - B * sigma_c),
        "scaling_abar_rbar": abs(2 / es["a_bar"] + 3 / es["r_bar"] - (1.5 - s_c)),
        "interp_a": abs(1 / es["a_bar"] - ((1 - s_c) / es["q"] + s_c / es["m"])),
        "interp_r": abs(1 / es["r_bar"] - ((1 - s_c) / es["r"] + s_c / es["n"])),
        "n_from_s": abs(es["n"] - 3 * es["s"] / (3 - es["s"])),
        "sc_from_ptilde_rbar": abs(s_c - (3 / es["p_tilde"] - 3 / es["r_bar"])),
    }
    return {name: {"defect": float(v), "pass": bool(v <= IDENTITY_TOL)}
            for name, v in checks.items()}
