"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own quadrature paths:
Monte-Carlo sampling in 3D for the Riesz convolution, scipy adaptive
quadrature for radial integrals, explicit scipy transforms for sine
series, and closed forms where they exist.
"""

import numpy as np
import scipy.fft as sfft
from scipy.integrate import quad


def mc_riesz_potential(gamma, g_func, support_radius, probe_r, n_samples, seed):
    """(I_gamma * g)(probe) by importance-sampled 3D Monte Carlo.

    Samples the displacement y - x from the density ~ |z|^(gamma-3) on a
    ball of radius L = probe_r + support_radius, which cancels the kernel
    singularity exactly; the estimator is then the plain average of
    g(|x + z|) times the normalization 4*pi*L^gamma / gamma.

    Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    L = probe_r + support_radius
    chunk = 4_000_000
    done = 0
    ssum = 0.0
    ssq = 0.0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        rho = L * rng.random(m) ** (1.0 / gamma)
        mu = rng.uniform(-1.0, 1.0, m)
        # x on the z-axis at probe_r; |x + z| depends on the displacement
        # only through (rho, mu), the azimuth integrates out exactly
        s = np.sqrt(probe_r**2 + rho**2 + 2.0 * probe_r * rho * mu)
        f = g_func(s)
        ssum += f.sum()
        ssq += (f * f).sum()
        done += m
    norm = 4.0 * np.pi * L**gamma / gamma
    mean = ssum / n_samples
    var = max(ssq / n_samples - mean**2, 0.0) / n_samples
    return norm * mean, norm * np.sqrt(var)


def kernel_value(gamma, r, s):
    """Angular-averaged Riesz kernel k(r, s) = 2 pi / ((gamma-1) r s) *
    [(r+s)^(gamma-1) - |r-s|^(gamma-1)] (log form at gamma = 1), the
    analytic reference for quadrature oracles; symmetric, positive."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if gamma == 1.0:
        out = (2.0 * np.pi / (r * s)) * np.log((r + s) / np.abs(r - s))
    else:
        c = 2.0 * np.pi / ((gamma - 1.0) * r * s)
        out = c * ((r + s) ** (gamma - 1.0) - np.abs(r - s) ** (gamma - 1.0))
    return out if out.shape else float(out)


def sine_series_reference(c, k, nodes):
    """(f, f') for f = v/r from explicit scipy transforms: v by DST-I,
    v' = sum c_m k_m cos(k_m r) by an unnormalized DCT-I."""
    M, n = c.shape[0], nodes.shape[0]
    v = sfft.dst(c, type=1, norm="ortho")[:n]
    pad = np.zeros(M + 2, dtype=c.dtype)
    pad[1 : M + 1] = 0.5 * np.sqrt(2.0 / (M + 1)) * k * c
    vp = sfft.dct(pad, type=1)[1 : n + 1]
    f = v / nodes
    return f, (vp - f) / nodes


def weighted_rel_err(grid, got, want):
    """Relative error in the L^2(w) norm that every diagnostic sums in."""
    def norm(x):
        return np.sqrt(np.sum(grid.weights * np.abs(x) ** 2))
    return norm(got - want) / norm(want)


def quad_radial(f, a=0.0, b=np.inf, **kw):
    """4*pi int f(r) r^2 dr by adaptive quadrature."""
    val, _ = quad(lambda r: f(r) * r * r, a, b, limit=400,
                  epsabs=1e-13, epsrel=1e-12, **kw)
    return 4.0 * np.pi * val


def quad_1d(f, a, b, **kw):
    val, _ = quad(f, a, b, limit=400, epsabs=1e-13, epsrel=1e-12, **kw)
    return val


def free_gaussian(r, t, a=0.5):
    """Exact free-Schrodinger evolution of exp(-a r^2) in 3D (i u_t = -Lap u)."""
    z = 1.0 + 4.0j * a * t
    return z**-1.5 * np.exp(-a * r**2 / z)


def newton_ball_potential(r, R):
    """Potential of the uniform unit-density ball of radius R (gamma = 2)."""
    r = np.asarray(r, float)
    inside = 2.0 * np.pi * (R**2 - r**2 / 3.0)
    outside = (4.0 * np.pi / 3.0) * R**3 / np.where(r == 0, 1.0, r)
    return np.where(r <= R, inside, outside)


def random_smooth_field(grid, rng, n_bumps=3, max_center=8.0):
    """Smooth, decaying, even-in-r radial profile (sum of Gaussian shells)."""
    r = grid.nodes
    out = np.zeros(grid.n)
    for _ in range(n_bumps):
        c = rng.uniform(0.0, max_center)
        w = rng.uniform(0.7, 2.5)
        a = rng.uniform(0.2, 1.0)
        # even in r: pair of mirrored bumps
        out += a * (np.exp(-((r - c) / w) ** 2) + np.exp(-((r + c) / w) ** 2))
    return out
