"""Cylindrically symmetric lattice, integration weights, kinetic operator.

All field computations run on a (r, z) grid representing a 3-D volume with
cylindrical symmetry.  Radial points sit at half-offset positions
r_i = (i + 1/2) dr so the axis singularity of the radial Laplacian never
appears.  Volume weights are w_ij = 2 pi r_i dr dz.  Units are the oscillator
units hbar = m = omega = 1 throughout.
"""

import numpy as np


MIN_POINTS = 8                 # fewest grid points along r and along z


class GridError(ValueError):
    pass


class CylGrid:
    """Cylindrical (r, z) lattice with volume weights and the kinetic
    operator K = -Laplacian/2, one dense matrix per axis.

    k_r is the conservative radial form -(1/2r) d/dr (r d/dr), with fluxes
    at half points: the flux through r = 0 vanishes identically and the
    outer edge r = n_r dr is a hard zero (Dirichlet).  k_z is the 3-point
    -(1/2) d^2/dz^2, Dirichlet at both ends.  k_r is symmetric under the
    weights r, k_z symmetric, so K is Hermitian under the grid weights.

    Each axis is diagonalized once: lam_r, q_r are the eigenpairs of the
    symmetric diag(sqrt_r) k_r diag(sqrt_r)^-1, with sqrt_r = sqrt(r) as a
    column, and lam_z, q_z those of k_z.  The propagators
    (`kinetic_functions`) and the ground state's preconditioner read them.

    Immutable after construction: r, z, weights, k_r, k_z and the eigenpairs
    are read-only arrays, and all operations on fields are pure functions,
    safe to call concurrently.
    """

    def __init__(self, n_r, n_z, dr, dz, z_min):
        if n_r < MIN_POINTS or n_z < MIN_POINTS:
            raise GridError(f"grid counts must be >= {MIN_POINTS}, got n_r={n_r}, n_z={n_z}")
        if dr <= 0 or dz <= 0:
            raise GridError(f"grid steps must be positive, got dr={dr}, dz={dz}")
        self.n_r = int(n_r)
        self.n_z = int(n_z)
        self.dr = float(dr)
        self.dz = float(dz)
        self.z_min = float(z_min)

        self.r = (np.arange(self.n_r) + 0.5) * self.dr
        self.z = self.z_min + np.arange(self.n_z) * self.dz
        self.weights = 2.0 * np.pi * self.r[:, None] * self.dr * self.dz * np.ones(self.n_z)[None, :]

        r_lo = self.r - 0.5 * self.dr   # r_{i-1/2}, r_lo[0] = 0
        r_hi = self.r + 0.5 * self.dr
        self.k_r = -0.5 * ((np.diag(r_lo[1:], -1) - np.diag(r_lo + r_hi) + np.diag(r_hi[:-1], 1))
                           / (self.r * self.dr**2)[:, None])
        self.k_z = -0.5 * ((np.eye(self.n_z, k=-1) - 2.0 * np.eye(self.n_z) + np.eye(self.n_z, k=1))
                           / self.dz**2)
        self.sqrt_r = np.sqrt(self.r)[:, None]
        self.lam_r, self.q_r = np.linalg.eigh(self.sqrt_r * self.k_r / self.sqrt_r.T)
        self.lam_z, self.q_z = np.linalg.eigh(self.k_z)
        for a in (self.r, self.z, self.weights, self.k_r, self.k_z, self.sqrt_r,
                  self.lam_r, self.q_r, self.lam_z, self.q_z):
            a.setflags(write=False)

    @property
    def shape(self):
        return (self.n_r, self.n_z)

    @property
    def volume(self):
        return np.pi * (self.n_r * self.dr) ** 2 * (self.n_z * self.dz)

    def kinetic(self, f):
        """K f = k_r f + f k_z^T of a field shaped (..., n_r, n_z).

        A complex field goes through as its real and imaginary parts,
        stacked, in real products: NumPy would otherwise promote k_r and
        k_z to complex on every call."""
        if not np.iscomplexobj(f):
            return self.k_r @ f + f @ self.k_z.T
        parts = np.stack([f.real, f.imag])
        k = self.k_r @ parts
        k += parts @ self.k_z.T
        out = np.empty(k.shape[1:], complex)
        out.real, out.imag = k
        return out

    def kinetic_functions(self, f_r, f_z):
        """(f_r(k_r), f_z(k_z)), dense matrices, for functions f_r and f_z
        applied elementwise to each axis's eigenvalues."""
        f_k_r = (self.q_r / self.sqrt_r * f_r(self.lam_r)) @ (self.q_r.T * self.sqrt_r.T)
        return f_k_r, (self.q_z * f_z(self.lam_z)) @ self.q_z.T


def build_grid(n_r, n_z, dr, dz, z_min):
    return CylGrid(n_r, n_z, dr, dz, z_min)


def integrate(grid, f):
    """Volume integral (the discrete l^3 sum) of each (n_r, n_z) field in f.

    One matrix product of the flattened fields with the flattened weights,
    with no weighted copy of f.  It sums in another order than a pairwise
    np.sum: on the 20 unit norms of a fig2a configuration set the two agree
    to 1.5 ulp.
    """
    f = np.asarray(f)
    return f.reshape(f.shape[:-2] + (-1,)) @ grid.weights.reshape(-1)


def normalized_overlap(grid, d0, d1):
    """Overlap of two densities, int d0 d1 / sqrt(int d0^2 int d1^2), in [0, 1]."""
    num = integrate(grid, d0 * d1)
    return num / np.sqrt(integrate(grid, d0 ** 2) * integrate(grid, d1 ** 2))


def inner(grid, f, g):
    """Weighted inner product <f|g> of each pair of (n_r, n_z) fields; the
    leading axes of f and g broadcast against each other.  One batched
    product of the weighted conj(f) rows with the g columns, so a field of
    f met by several of g is weighted once."""
    fw = np.conj(f) * grid.weights
    g = np.asarray(g)
    return np.matmul(fw.reshape(fw.shape[:-2] + (1, -1)),
                     g.reshape(g.shape[:-2] + (-1, 1)))[..., 0, 0]


def norm(grid, f):
    """Grid norm of each (n_r, n_z) field in f."""
    return np.sqrt(integrate(grid, np.abs(f) ** 2))
