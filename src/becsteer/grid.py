"""Cylindrically symmetric lattice, integration weights, differential operators.

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
    """Cylindrical (r, z) lattice with volume weights and Laplacian stencils.

    Immutable after construction; all operations on fields are pure functions,
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

        # Conservative radial Laplacian (1/r) d/dr (r d/dr) with fluxes at
        # half points; the flux through r = 0 vanishes identically and the
        # outer edge r = n_r*dr is a hard zero (Dirichlet).
        r_lo = self.r - 0.5 * self.dr   # r_{i-1/2}, r_lo[0] = 0
        r_hi = self.r + 0.5 * self.dr
        self._r_sub = r_lo / (self.r * self.dr**2)    # couples i to i-1
        self._r_sup = r_hi / (self.r * self.dr**2)    # couples i to i+1
        self._r_diag = -(r_lo + r_hi) / (self.r * self.dr**2)

    @property
    def shape(self):
        return (self.n_r, self.n_z)

    @property
    def volume(self):
        return np.pi * (self.n_r * self.dr) ** 2 * (self.n_z * self.dz)

    def radial_tridiag(self):
        """(sub, diag, sup) of the radial part of the Laplacian."""
        return self._r_sub.copy(), self._r_diag.copy(), self._r_sup.copy()

    def axial_tridiag(self):
        """(sub, diag, sup) of the axial part of the Laplacian (Dirichlet)."""
        n = self.n_z
        sub = np.full(n, 1.0 / self.dz**2)
        sup = np.full(n, 1.0 / self.dz**2)
        diag = np.full(n, -2.0 / self.dz**2)
        return sub, diag, sup

    def laplacian(self, f):
        """Discrete cylindrical Laplacian of a field shaped (..., n_r, n_z)."""
        out = np.empty_like(f, dtype=np.result_type(f, float))
        # radial part
        out[...] = self._r_diag[:, None] * f
        out[..., 1:, :] += self._r_sub[1:, None] * f[..., :-1, :]
        out[..., :-1, :] += self._r_sup[:-1, None] * f[..., 1:, :]
        # axial part
        out -= 2.0 / self.dz**2 * f
        out[..., :, 1:] += f[..., :, :-1] / self.dz**2
        out[..., :, :-1] += f[..., :, 1:] / self.dz**2
        return out


def build_grid(n_r, n_z, dr, dz, z_min):
    return CylGrid(n_r, n_z, dr, dz, z_min)


def integrate(grid, f):
    """Volume integral (the discrete l^3 sum) of a field over the grid."""
    return np.sum(grid.weights * f, axis=(-2, -1))


def normalized_overlap(grid, d0, d1):
    """Overlap of two densities, int d0 d1 / sqrt(int d0^2 int d1^2), in [0, 1]."""
    num = integrate(grid, d0 * d1)
    return num / np.sqrt(integrate(grid, d0 ** 2) * integrate(grid, d1 ** 2))


def inner(grid, f, g):
    """Weighted inner product <f|g> on the grid."""
    return np.sum(grid.weights * np.conj(f) * g, axis=(-2, -1))


def norm(grid, f):
    """Grid norm of each (n_r, n_z) field in f."""
    return np.sqrt(integrate(grid, np.abs(f) ** 2))


def apply_kinetic_potential(grid, psi, V):
    """Apply h = -Laplacian/2 + V to a field; Hermitian under the grid weights."""
    return -0.5 * grid.laplacian(psi) + V * psi
