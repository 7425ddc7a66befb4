import os

import numpy as np
import pytest

from becsteer.config import load_config
from becsteer.grid import (GridError, axial_stencil, build_grid, inner,
                           integrate, norm, radial_stencil)

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_grid():
    return build_grid(16, 24, 0.25, 0.3, -3.6)


# the volume of make_grid's cylinder, pi (n_r dr)^2 n_z dz
VOLUME = np.pi * (16 * 0.25) ** 2 * (24 * 0.3)


def test_grid_validation():
    with pytest.raises(GridError):
        build_grid(4, 24, 0.25, 0.3, -3.6)
    with pytest.raises(GridError):
        build_grid(16, 4, 0.25, 0.3, -3.6)
    with pytest.raises(GridError):
        build_grid(16, 24, -0.1, 0.3, -3.6)
    with pytest.raises(GridError):
        build_grid(16, 24, 0.25, 0.0, -3.6)


def test_radial_points_half_offset():
    g = make_grid()
    assert np.allclose(g.r, (np.arange(16) + 0.5) * 0.25)
    assert g.r[0] > 0.0


def test_weights_sum_to_cylinder_volume():
    g = make_grid()
    assert np.isclose(g.weights.sum(), VOLUME, rtol=1e-13)


def test_integrate_constant():
    g = make_grid()
    f = np.ones(g.shape)
    assert np.isclose(integrate(g, f), VOLUME)


def test_gaussian_norm():
    # exp(-(r^2+z^2)/2) normalized analytically in 3D: integral = pi^{3/2}
    g = build_grid(64, 128, 0.1, 0.1, -6.4)
    f = np.exp(-0.5 * (g.r[:, None] ** 2 + g.z[None, :] ** 2))
    # midpoint quadrature in r is second order in dr
    assert np.isclose(integrate(g, f ** 2), np.pi ** 1.5, rtol=2e-3)


def test_laplacian_hermitian_under_weights():
    g = make_grid()
    rng = np.random.default_rng(1)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    h = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    lhs = inner(g, f, g.kinetic(h))
    rhs = inner(g, g.kinetic(f), h)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_laplacian_of_harmonic_eigenfunction():
    # ground state of the 3D isotropic oscillator: -lap/2 psi + r^2/2 psi = 1.5 psi
    g = build_grid(80, 160, 0.08, 0.08, -6.4)
    rho2 = g.r[:, None] ** 2 + g.z[None, :] ** 2
    psi = np.exp(-0.5 * rho2)
    h = g.kinetic(psi) + 0.5 * rho2 * psi
    # compare in the bulk; Dirichlet edges deviate
    sel = rho2 < 4.0
    assert np.allclose(h[sel] / psi[sel], 1.5, atol=5e-3)


def test_laplacian_batched_matches_single():
    g = make_grid()
    rng = np.random.default_rng(2)
    f = rng.normal(size=(3, 4) + g.shape)
    lap = g.kinetic(f)
    for i in range(3):
        for j in range(4):
            assert np.allclose(lap[i, j], g.kinetic(f[i, j]))


def test_kinetic_of_complex_stack_matches_complex_product():
    # the real products on the real and imaginary parts against NumPy's
    # complex product, on the fig2a grid
    g = load_config(os.path.join(HERE, "configs", "fig2a.cfg")).protocol().build_grid()
    assert g.shape == (28, 204)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
    ref = g.k_r.astype(complex) @ f + f @ g.k_z.T.astype(complex)
    got = g.kinetic(f)
    assert got.dtype == complex and got.shape == f.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_grid_arrays_are_read_only():
    g = make_grid()
    arrays = [getattr(g, name) for name in ("r", "z", "weights", "k_r", "k_z")]
    arrays += [getattr(ax, name) for ax in g.axes
               for name in ("x", "w", "k", "s", "lam", "q")]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("stencil", ["radial", "axial"])
@pytest.mark.parametrize("name", ["fig2a", "fig3"])
def test_axis_contract(name, stencil):
    # what the grid reads of an axis: diag(s) k diag(s)^-1 is symmetric and
    # q diag(lam) q^T, with q orthogonal, and k is self-adjoint under the
    # axis's weights
    proto = load_config(os.path.join(HERE, "configs", f"{name}.cfg")).protocol()
    g = proto.build_grid()
    ax = (radial_stencil(g.n_r, proto.dr) if stencil == "radial"
          else axial_stencil(g.n_z, proto.dz, g.z[0]))
    sym = ax.s[:, None] * ax.k / ax.s
    scale = np.abs(ax.lam).max()
    assert np.abs(sym - sym.T).max() <= 1e-15 * scale
    assert np.abs((ax.q * ax.lam) @ ax.q.T - sym).max() <= 1e-14 * scale
    assert np.abs(ax.q.T @ ax.q - np.eye(ax.x.size)).max() <= 1e-14
    wk = ax.w[:, None] * ax.k
    assert np.abs(wk - wk.T).max() <= 1e-15 * np.abs(wk).max()


def test_norm_and_inner_consistency():
    g = make_grid()
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    assert np.isclose(norm(g, f) ** 2, inner(g, f, f).real)
