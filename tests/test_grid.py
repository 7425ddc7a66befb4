import numpy as np
import pytest

from becsteer.grid import (CylGrid, GridError, build_grid, inner, integrate,
                           norm)


def make_grid():
    return build_grid(16, 24, 0.25, 0.3, -3.6)


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
    assert np.isclose(g.weights.sum(), g.volume, rtol=1e-13)


def test_integrate_constant():
    g = make_grid()
    f = np.ones(g.shape)
    assert np.isclose(integrate(g, f), g.volume)


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


def test_grid_arrays_are_read_only():
    g = make_grid()
    for name in ("r", "z", "weights", "k_r", "k_z"):
        with pytest.raises(ValueError):
            getattr(g, name)[0] = 1.0


def test_norm_and_inner_consistency():
    g = make_grid()
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    assert np.isclose(norm(g, f) ** 2, inner(g, f, f).real)
