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


class Axis:
    """One axis of the grid: its points x, its quadrature weights w, the
    kinetic matrix k along it, and k's eigenpairs in a diagonal similarity s.
    lam, q are the eigenpairs of the symmetric diag(s) k diag(s)^-1, so
    k = diag(s)^-1 q diag(lam) q^T diag(s); k is self-adjoint under w.

    Immutable after construction: every array is read-only.
    """

    def __init__(self, x, w, k, s):
        self.x, self.w, self.k, self.s = x, w, k, s
        self.lam, self.q = np.linalg.eigh(s[:, None] * k / s)
        for a in (x, w, k, s, self.lam, self.q):
            a.setflags(write=False)

    def function(self, f):
        """f(k), a dense matrix, for f applied elementwise to the eigenvalues."""
        return (self.q / self.s[:, None] * f(self.lam)) @ (self.q.T * self.s)


def radial_stencil(n, dr):
    """The conservative radial form -(1/2r) d/dr (r d/dr) on the half-offset
    points r_i = (i + 1/2) dr, with fluxes at half points: the flux through
    r = 0 vanishes identically and the outer edge r = n dr is a hard zero
    (Dirichlet).  The weights are 2 pi r dr, and s = sqrt(r)."""
    r = (np.arange(n) + 0.5) * dr
    r_lo = r - 0.5 * dr   # r_{i-1/2}, r_lo[0] = 0
    r_hi = r + 0.5 * dr
    k = -0.5 * ((np.diag(r_lo[1:], -1) - np.diag(r_lo + r_hi) + np.diag(r_hi[:-1], 1))
                / (r * dr**2)[:, None])
    return Axis(r, 2.0 * np.pi * r * dr, k, np.sqrt(r))


def axial_stencil(n, dz, z_min):
    """The 3-point -(1/2) d^2/dz^2 on z_j = z_min + j dz, Dirichlet at both
    ends.  The weights are dz, and k is symmetric: s is ones."""
    k = -0.5 * ((np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / dz**2)
    return Axis(z_min + np.arange(n) * dz, np.full(n, dz), k, np.ones(n))


class CylGrid:
    """Cylindrical (r, z) lattice, the product of a radial and an axial
    `Axis`: volume weights w_ij = w_r[i] w_z[j] and the kinetic operator
    K = -Laplacian/2 = k_r + k_z, one dense matrix per axis, Hermitian under
    the weights.

    Only the grid reads the axes' eigenpairs and similarities: the
    propagators (`kinetic_functions`) and the ground state's preconditioner
    (`precondition`) are functions of K in that eigenbasis.

    Immutable after construction: r, z, weights, k_r, k_z and the axes'
    arrays are read-only, and all operations on fields are pure functions,
    safe to call concurrently.
    """

    def __init__(self, radial, axial):
        self.axes = (radial, axial)
        self.r, self.z = radial.x, axial.x
        self.k_r, self.k_z = radial.k, axial.k
        self.n_r, self.n_z = self.r.size, self.z.size
        self.weights = radial.w[:, None] * axial.w
        self.weights.setflags(write=False)

    @property
    def shape(self):
        return (self.n_r, self.n_z)

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
        radial, axial = self.axes
        return radial.function(f_r), axial.function(f_z)

    def precondition(self, f, alpha):
        """(K + alpha_a)^-1 f_a in the eigenbasis of K, for fields f
        (..., n_comp, n_r, n_z) and shifts alpha (n_comp).  The axial
        products run as one matrix product over every row of f."""
        radial, axial = self.axes
        s = radial.s[:, None] * axial.s
        lam = radial.lam[:, None] + axial.lam
        c = ((s * f).reshape(-1, self.n_z) @ axial.q).reshape(f.shape)
        c = radial.q.T @ c / (lam + alpha[:, None, None])
        c = ((radial.q @ c).reshape(-1, self.n_z) @ axial.q.T).reshape(f.shape)
        return c / s


def build_grid(n_r, n_z, dr, dz, z_min):
    if n_r < MIN_POINTS or n_z < MIN_POINTS:
        raise GridError(f"grid counts must be >= {MIN_POINTS}, got n_r={n_r}, n_z={n_z}")
    if dr <= 0 or dz <= 0:
        raise GridError(f"grid steps must be positive, got dr={dr}, dz={dz}")
    return CylGrid(radial_stencil(int(n_r), float(dr)),
                   axial_stencil(int(n_z), float(dz), float(z_min)))


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
