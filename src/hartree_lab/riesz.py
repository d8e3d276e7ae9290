"""Riesz-potential convolution (I_gamma * g)(r) for radial g, 0 < gamma < 3.

I_gamma * g = int |x-y|^(gamma-3) g(y) dy.  For radial g the angular
average of the kernel reduces it to a half-line integral

    h(r) = int_0^inf k(r,s) s^2 g(s) ds,
    k(r,s) = 2*pi/((gamma-1) r s) * [(r+s)^(gamma-1) - |r-s|^(gamma-1)]

(log form at gamma = 1).  The operator itself is spectral, one code path
for every gamma (Vico, Greengard & Ferrando, "Fast convolution with
free-space Green's functions", JCP 323 (2016), reduced to one radial
dimension):

  - v = r*g is zero-padded from n to N = 2n+1 nodes on the same dr, so the
    padded interval is R_pad = 2*r_max;
  - an orthonormal DST-I expands v in the modes sin(k_m r), k_m = m*pi/R_pad,
    with coefficients C_m, and sin(k_m r)/r is the angular average of a
    plane wave;
  - each mode is scaled by the Fourier symbol of the kernel truncated at
    L = R_pad,  K_m = 4*pi k_m^(-gamma) int_0^{m*pi} t^(gamma-2) sin t dt;
  - the inverse DST, cut back to the first n values and divided by r, is h.

Every pair distance on the grid is at most 2*r_max = L and every periodic
image of the padded data lies at distance >= L, so the truncation changes
nothing: the result is exact for the sine interpolant of g.  The operator
is self-adjoint in the 4*pi*r^2*dr inner product by construction.

No transform runs on the pad.  N + 1 = 2(n+1) and r*g is zero beyond
node n, so the padded DST-I splits exactly: the even modes m = 2j are
DST-I_n(r*g)/sqrt(2), the odd modes m = 2j+1 are DST-III_(n+1) of r*g
with one zero appended, over sqrt(2) (the term that the orthonormal
DST-III scales falls on that zero), and on the first n nodes
r*h = DST-I_n(K_even e/2) + DST-II_(n+1)(K_odd o/2)[:n] for the unscaled
halves e, o (the dropped last output is the only one the orthonormal
DST-II scales).  pocketfft runs the padded DST-I as a real FFT of 4(n+1)
points, the halves as one of 2(n+1) and one of n+1.  ``spectrum``
returns the interleaved C: a diagnostics sample needs only it, as
P = int h g dx = 4*pi*dr*sum K_m C_m^2 by Parseval and h with h' come
from K*C by one real FFT (``grid.sine_series_and_derivative``).
"""

import numpy as np
import scipy.fft as sfft
from numpy.polynomial.legendre import leggauss

from .grid import FOUR_PI, RadialGrid, sine_series_and_derivative

SERIES_TERMS = 40  # first-panel power series: round-off for gamma in (0, 3)
PANEL_NODES = 30   # Gauss-Legendre nodes per later half-period panel


def _sine_integrals(gamma, N):
    """S_m = int_0^{m*pi} t^(gamma-2) sin t dt for m = 1..N.

    A prefix sum of half-period panels.  The first, whose integrand
    behaves like t^(gamma-1) at 0, comes from the termwise-integrated
    series sum_k (-1)^k pi^(gamma+2k) / ((2k+1)! (gamma+2k)); the others
    are smooth and use Gauss-Legendre, one node at a time so that every
    temporary has length N.
    """
    first = 0.0
    a = np.pi**gamma  # pi^(gamma+2k) / (2k+1)!
    for k in range(SERIES_TERMS):
        first += (-1) ** k * a / (gamma + 2 * k)
        a *= np.pi**2 / ((2 * k + 2) * (2 * k + 3))
    x, w = leggauss(PANEL_NODES)
    start = np.pi * np.arange(1, N)
    panels = np.zeros(N - 1)
    for xq, wq in zip(x, w):
        theta = 0.5 * np.pi * (1.0 + xq)
        panels += (0.5 * np.pi * wq * np.sin(theta)) * (start + theta) ** (gamma - 2.0)
    # sin(j*pi + theta) = (-1)^j sin(theta); the panels start at j = 1
    panels[::2] *= -1.0
    return np.cumsum(np.concatenate(([first], panels)))


class RieszKernel:
    """Convolution operator for one (gamma, grid) pair."""

    def __init__(self, gamma, grid: RadialGrid):
        if not (0.0 < gamma < 3.0):
            raise ValueError("gamma in (0,3) required")
        self.gamma = float(gamma)
        self.grid = grid
        N = 2 * grid.n + 1
        k = (np.pi / (2.0 * grid.r_max)) * np.arange(1, N + 1)
        self._N = N
        self._k = k
        self._symbol = FOUR_PI * k ** (-self.gamma) * _sine_integrals(self.gamma, N)
        # the symbol on the odd (m = 1, 3, ..) and even (m = 2, 4, ..) modes,
        # each with the 1/2 of two 1/sqrt(2) folds
        self._half_odd = 0.5 * self._symbol[0::2]
        self._half_even = 0.5 * self._symbol[1::2]

    def _halves(self, g):
        """(e, o) = (DST-I_n, DST-III_(n+1)) of r*g (rows of it), orthonormal:
        sqrt(2) C on the even and on the odd modes."""
        g = np.asarray(g, dtype=float)
        if g.shape[-1:] != (self.grid.n,):
            raise ValueError("grid mismatch")
        v = self.grid.nodes * g
        return (sfft.dst(v, type=1, norm="ortho"),
                sfft.dst(v, type=3, n=self.grid.n + 1, norm="ortho"))

    def spectrum(self, g: np.ndarray) -> np.ndarray:
        """C: the orthonormal DST-I coefficients of the zero-padded r*g (rows)."""
        e, o = self._halves(g)
        spec = np.empty(e.shape[:-1] + (self._N,))
        np.multiply(o, np.sqrt(0.5), out=spec[..., 0::2])
        np.multiply(e, np.sqrt(0.5), out=spec[..., 1::2])
        return spec

    def pairing(self, spec: np.ndarray) -> float:
        """int (I_gamma*g) g dx = 4*pi*dr*sum K_m C_m^2 from C = ``spectrum(g)``,
        one sum per row of C in a single reduction.  Unlike a BLAS
        matrix-vector product, which rounds a row differently with the number
        of rows, the row sums do not depend on what is stacked with them.

        K_m < 0 for some m when gamma > 2, so nothing here divides by it.
        """
        out = (FOUR_PI * self.grid.dr) * np.sum(spec * spec * self._symbol, axis=-1)
        return float(out) if spec.ndim == 1 else out

    def potential_and_derivative(self, spec: np.ndarray):
        """(h, h') on the grid, h = I_gamma*g, from C = ``spectrum(g)``."""
        return sine_series_and_derivative(self._symbol * spec, self._k, self.grid.nodes)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """h = I_gamma*g on the grid."""
        e, o = self._halves(g)
        v = sfft.dst(self._half_even * e, type=1, norm="ortho")
        v += sfft.dst(self._half_odd * o, type=2, norm="ortho")[: self.grid.n]
        return v / self.grid.nodes

    def hartree_factor(self, a: np.ndarray, p: float) -> np.ndarray:
        """(I_gamma*a^p) a^(p-2) for a = |u| from one power: the factor of u."""
        ap2 = a ** (p - 2)
        return self.apply(ap2 * a * a) * ap2

    def apply_origin(self, g: np.ndarray) -> float:
        """h(0) = sqrt(2/(N+1)) sum_m K_m k_m C_m, the r -> 0 limit of the
        sine series of r*h divided by r."""
        spec = self.spectrum(g)
        return float(np.sqrt(2.0 / (self._N + 1)) * np.sum(self._symbol * self._k * spec))


def build_kernel(gamma, grid: RadialGrid) -> RieszKernel:
    return RieszKernel(gamma, grid)

