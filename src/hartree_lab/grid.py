"""Radial discretization of R^3: grid, fields, quadrature, derivatives, norms.

Functions of radius live on the uniform interior nodes r_i = i*dr,
i = 1..n, dr = r_max/(n+1).  The origin and r_max are excluded; radial
profiles u are even in r, so v = r*u is odd and vanishes at both ends,
which makes the radial Laplacian exactly diagonal in the DST-I basis.
Quadrature weights are w_i = 4*pi*r_i^2*dr.

Derivatives and the gradient norm are spectral: u' comes from the sine
series of v = r*u and the gradient norm is Parseval in the sine basis.
``l2_norm_sq``, ``lp_norm`` and ``mass_in_ball`` are direct quadratures
of a field, the references the diagnostics are checked against.

A complex DST-I runs as one two-column real transform (``dst1``).  A
``FieldState`` holds u and u' as real rows (re, im), read off a row view
of the sine coefficients of r*u by one real FFT
(``sine_series_and_derivative``); the complex field is built only when a
caller asks for it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft as sfft

FOUR_PI = 4.0 * np.pi

FIELD_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RadialGrid:
    r_max: float
    n: int
    dr: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    wavenumbers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if not 0 < self.r_max < np.inf or self.n < 1:
            raise ValueError("need a finite r_max > 0 and n >= 1")
        dr = self.r_max / (self.n + 1)
        nodes = dr * np.arange(1, self.n + 1)
        weights = FOUR_PI * nodes**2 * dr
        # Riemann-sum consistency: sum of weights vs the ball volume.
        ball = FOUR_PI / 3.0 * self.r_max**3
        if abs(weights.sum() - ball) > 0.01 * ball:
            raise ValueError(
                f"quadrature weights deviate from ball volume by >1% (n={self.n} too small)"
            )
        kk = np.pi * np.arange(1, self.n + 1) / self.r_max
        for name, val in (("nodes", nodes), ("weights", weights), ("wavenumbers", kk)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "dr", dr)


@dataclass
class RadialField:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ValueError("field length must equal grid.n")

    def __mul__(self, c):
        return RadialField(self.grid, self.values * c)

    __rmul__ = __mul__


def _check_same_grid(g1, g2):
    if g1 is not g2 and (g1.n != g2.n or g1.r_max != g2.r_max):
        raise ValueError("grid mismatch")


# ---------------------------------------------------------------------------
# norms and quadrature

def l2_norm_sq(f: RadialField) -> float:
    """Mass integral sum(w_i |f_i|^2)."""
    return float(np.sum(f.grid.weights * np.abs(f.values) ** 2))


def lp_norm(f: RadialField, exp: float) -> float:
    if exp < 1:
        raise ValueError("exp >= 1 required")
    if np.isinf(exp):
        return float(np.max(np.abs(f.values)))
    return float(np.sum(f.grid.weights * np.abs(f.values) ** exp) ** (1.0 / exp))


def mass_in_ball(f: RadialField, R: float) -> float:
    """sum over r_i <= R of w_i |f_i|^2."""
    g = f.grid
    if not (0 < R <= g.r_max):
        raise ValueError("R out of range (0, r_max]")
    sel = g.nodes <= R
    return float(np.sum(g.weights[sel] * np.abs(f.values[sel]) ** 2))


# ---------------------------------------------------------------------------
# sine-spectral machinery on v = r*u

def _pairs(x: np.ndarray) -> np.ndarray:
    """A complex vector as its (n, 2) real view of columns (re, im)."""
    return np.ascontiguousarray(x, dtype=complex).view(float).reshape(-1, 2)


def dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of a complex x, its own inverse: one real transform
    of the two columns (re, im), the values of transforming them apart."""
    return sfft.dst(_pairs(x), type=1, norm="ortho", axis=0).view(complex).reshape(-1)


def dst_coeffs(f: RadialField) -> np.ndarray:
    """Orthonormal DST-I coefficients of v = r*u."""
    return dst1(f.grid.nodes * f.values)


def from_dst_coeffs(grid: RadialGrid, coeffs: np.ndarray) -> RadialField:
    """Inverse of ``dst_coeffs``: the field u whose r*u has these coefficients."""
    return RadialField(grid, dst1(coeffs) / grid.nodes)


def sine_series_and_derivative(coeffs, k, nodes):
    """(f, f') on the n nodes for f = v/r, f' = (v' - f)/r, where
    v = sum_m c_m sin(k_m r) over M >= n modes, k_m = m*pi/((M+1)*dr), and
    c are real orthonormal DST-I coefficients, one series per row.

    One real FFT over the period L = 2(M+1) (Cooley, Lewis & Welch, J.
    Sound Vib. 12, 1970) takes x_m = (b_m - a_m)/2, x_(L-m) = (b_m + a_m)/2
    to X_j = sum b_m cos(pi m j/(M+1)) + i sum a_m sin(pi m j/(M+1)); with
    a = sqrt(2/(M+1)) c and b = lam a k, v = Im X and v' = Re X / lam.
    lam = |a|/|a k| over all rows puts both sums on one round-off level.
    """
    M = coeffs.shape[-1]
    a = (0.5 * np.sqrt(2.0 / (M + 1))) * coeffs  # the halves in x carried by a and b
    ak = a * k
    nk = np.vdot(ak, ak)
    lam = np.sqrt(np.vdot(a, a) / nk) if nk > 0 else 1.0
    b = np.multiply(ak, lam, out=ak)
    x = np.zeros(a.shape[:-1] + (2 * M + 2,))
    np.subtract(b, a, out=x[..., 1 : M + 1])
    np.add(b, a, out=x[..., : M + 1 : -1])
    X = sfft.rfft(x)[..., 1 : nodes.shape[0] + 1]
    rinv = 1.0 / nodes
    f = X.imag * rinv
    return f, (X.real / lam - f) * rinv


class FieldState:
    """What diagnostics read off one field u.  Every state starts from the
    sine coefficients c of r*u: one FFT of their row view gives u and u' as
    real rows (re, im).  ``FieldState(u, ..)`` passes c = DST(r*u) in,
    ``from_coeffs`` takes c as it is.  The rest is computed once on first
    use: |u|^2, the mass and the current, the Parseval gradient norm of c,
    the complex field u and, given a Riesz kernel and p >= 2, g = |u|^p,
    the padded sine spectra of r*g and r*chi*g for each row chi of chi_p,
    their pairings (P, P(chi_R u), ..) if chi = chi_R^p with chi_R >= 0,
    and h = I_gamma*g with h'."""

    def __init__(self, u: RadialField, kern=None, p: float | None = None, chi_p=()):
        self._load(u.grid, dst_coeffs(u), kern, p, chi_p)

    @classmethod
    def from_coeffs(cls, grid: RadialGrid, coeffs: np.ndarray, kern=None,
                    p: float | None = None, chi_p=()):
        st = cls.__new__(cls)
        st._load(grid, coeffs, kern, p, chi_p)
        return st

    def _load(self, grid, coeffs, kern, p, chi_p):
        if kern is not None:
            _check_same_grid(kern.grid, grid)
            if p is None or p < 2:
                raise ValueError("p >= 2 required")
        self.grid, self.coeffs, self.kern, self.p, self.chi_p = grid, coeffs, kern, p, chi_p
        self.u_rows, self.du_rows = sine_series_and_derivative(
            _pairs(coeffs).T.copy(), grid.wavenumbers, grid.nodes)  # C-ordered rows

    @cached_property
    def u(self):
        u = np.empty(self.grid.n, dtype=complex)
        u.real, u.imag = self.u_rows
        return RadialField(self.grid, u)

    @cached_property
    def usq(self):
        re, im = self.u_rows
        return re**2 + im**2

    @cached_property
    def current(self):
        """Im(conj(u) u'), the row that z' and the eta_R flux dot."""
        (re, im), (dre, dim) = self.u_rows, self.du_rows
        return dim * re - dre * im

    @property
    def mass(self):
        return float(np.dot(self.grid.weights, self.usq))

    @cached_property
    def grad_sq(self):
        """4*pi*dr*sum(k_m^2 |c_m|^2): exact for the sine interpolant of r*u."""
        g, c = self.grid, self.coeffs
        return float(FOUR_PI * g.dr * np.dot(g.wavenumbers**2, c.real**2 + c.imag**2))

    @cached_property
    def g(self):
        return self.usq ** (0.5 * self.p)

    @cached_property
    def spectra(self):
        return self.kern.spectrum(np.vstack((self.g, *(c * self.g for c in self.chi_p))))

    @cached_property
    def pairings(self):
        return self.kern.pairing(self.spectra)

    @property
    def P(self):
        return float(self.pairings[0])

    @cached_property
    def h_hp(self):
        return self.kern.potential_and_derivative(self.spectra[0])

    @property
    def h(self):
        return self.h_hp[0]

    @property
    def hp(self):
        return self.h_hp[1]


# ---------------------------------------------------------------------------
# field serialization: CSV with columns r, re(u), im(u)

def save_field_csv(f: RadialField, path):
    with open(path, "w") as fh:
        fh.write(f"hartree-lab-field,{FIELD_FORMAT_VERSION},{float(f.grid.r_max)!r},{f.grid.n}\n")
        fh.write("r,re_u,im_u\n")
        for r, u in zip(f.grid.nodes, f.values):
            fh.write(f"{float(r)!r},{float(u.real)!r},{float(u.imag)!r}\n")


def load_field_csv(path, grid: RadialGrid) -> RadialField:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty field file")
    tag, ver, r_max, n = lines[0].split(",")
    if tag != "hartree-lab-field" or int(ver) != FIELD_FORMAT_VERSION:
        raise ValueError("unrecognized field file format")
    if (grid.r_max, grid.n) != (float(r_max), int(n)):
        raise ValueError("field file grid does not match requested grid")
    if len(lines) != grid.n + 2:
        raise ValueError(f"field file has {len(lines) - 2} rows, its header says {grid.n}")
    vals = np.empty(grid.n, dtype=complex)
    for i, line in enumerate(lines[2:]):
        r, re, im = line.split(",")
        node = float(grid.nodes[i])
        if float(r) != node:  # written as repr of the node: exact
            raise ValueError(f"r = {r} on line {i + 3} is not the grid node {node!r}")
        vals[i] = float(re) + 1j * float(im)
        if not np.isfinite(vals[i]):
            raise ValueError(f"non-finite field value on line {i + 3}")
    return RadialField(grid, vals)
