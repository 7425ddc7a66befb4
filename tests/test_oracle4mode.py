import math

import numpy as np
import pytest

from becsteer.grid import build_grid
from becsteer.meanfield import PhysicalParams
import becsteer.oracle4mode
from becsteer.oracle4mode import (FourModeState, adiabatic_rates, casimir,
                                  default_dn, evolve_exact, extract_chi,
                                  oracle_moments, oracle_witness, pulse_state,
                                  twisting_phases)
from becsteer.sequence import ProtocolConfig, component_potentials

C_HALF = np.ones(4) / math.sqrt(2.0)


def test_pulse_state_normalized():
    st = pulse_state(25, 31, C_HALF)
    assert np.sum(np.abs(st.c) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_norm_validation():
    c = np.ones((3, 3), complex)
    with pytest.raises(ValueError):
        FourModeState(c=c, n_a=2, n_b=2)


def test_t0_moments_and_witness():
    st = pulse_state(30, 30, C_HALF)
    m = oracle_moments(st)
    assert m.mean[0] == pytest.approx(15.0, abs=1e-10)
    assert m.cov[2, 2] == pytest.approx(7.5, abs=1e-10)
    assert oracle_witness(st).e_epr == pytest.approx(1.0, abs=1e-10)


def test_zero_phases_identity():
    st = pulse_state(12, 10, C_HALF)
    st2 = evolve_exact(st, 0.0, 0.0, 0.0)
    assert np.abs(st2.c - st.c).max() == 0.0


def test_unitarity():
    st = evolve_exact(pulse_state(20, 20, C_HALF), 0.3, -0.2, 0.15)
    assert np.sum(np.abs(st.c) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_one_axis_twisting_closed_form():
    # <Sx> = (N/2) cos^{N-1}(phi) under phi * Sz^2
    n, phi = 24, 0.17
    st = evolve_exact(pulse_state(n, 4, C_HALF), phi, 0.0, 0.0)
    m = oracle_moments(st)
    assert m.mean[0] == pytest.approx(n / 2 * math.cos(phi) ** (n - 1), abs=1e-10)


def test_moments_match_dense_matrix_exponential():
    rng = np.random.default_rng(4)
    n_a = n_b = 8
    phi_a, phi_b, phi_ab = rng.normal(scale=0.2, size=3)
    st0 = pulse_state(n_a, n_b, C_HALF)
    st1 = evolve_exact(st0, phi_a, phi_b, phi_ab)
    # dense diagonal Hamiltonian exponential on the flattened Fock grid
    sza = np.arange(n_a + 1) - n_a / 2
    szb = np.arange(n_b + 1) - n_b / 2
    h = (phi_a * sza[:, None] ** 2 + phi_b * szb[None, :] ** 2
         - phi_ab * sza[:, None] * szb[None, :]).ravel()
    import scipy.linalg
    u = scipy.linalg.expm(-1j * np.diag(h))
    c_ref = (u @ st0.c.ravel()).reshape(st0.c.shape)
    assert np.abs(st1.c - c_ref).max() < 1e-12
    m1 = oracle_moments(st1)
    m2 = oracle_moments(FourModeState(c=c_ref, n_a=n_a, n_b=n_b))
    assert np.abs(m1.second - m2.second).max() < 1e-12


def spin_matrices(n):
    """Dense (Sx, Sy, Sz) of spin j = n/2 in the basis m = -j..j, with the
    oracle's sign convention S+ = Sx + i Sy raising m."""
    j = n / 2.0
    m = np.arange(-j, j + 0.5)
    s_plus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    return ((s_plus + s_plus.T) / 2, (s_plus - s_plus.T) / 2j, np.diag(m))


def test_moments_match_kronecker_spin_matrices():
    # unequal wells, a generic state: both wells against dense operators
    n_a, n_b = 5, 3
    rng = np.random.default_rng(7)
    c = rng.normal(size=(n_a + 1, n_b + 1)) + 1j * rng.normal(size=(n_a + 1, n_b + 1))
    st = FourModeState(c=c / np.linalg.norm(c), n_a=n_a, n_b=n_b)
    ops = [np.kron(s, np.eye(n_b + 1)) for s in spin_matrices(n_a)]
    ops += [np.kron(np.eye(n_a + 1), s) for s in spin_matrices(n_b)]
    psi = st.c.ravel()
    mean = np.array([np.vdot(psi, o @ psi).real for o in ops])
    second = np.array([[np.vdot(psi, (oi @ oj + oj @ oi) @ psi).real / 2
                        for oj in ops] for oi in ops])
    m = oracle_moments(st)
    assert np.abs(m.mean - mean).max() < 1e-12
    assert np.abs(m.second - second).max() < 1e-12


def test_casimir_conserved():
    st0 = pulse_state(14, 10, C_HALF)
    st1 = evolve_exact(st0, 0.4, 0.1, 0.25)
    c0, c1 = casimir(st0), casimir(st1)
    assert c0[0] == pytest.approx(c1[0], abs=1e-10)
    assert c0[1] == pytest.approx(c1[1], abs=1e-10)


def test_cross_twisting_steers():
    st = evolve_exact(pulse_state(40, 40, C_HALF), 0.0, 0.0, 0.02)
    assert oracle_witness(st).e_epr < 0.95


def test_chi_ab_sign_flip_invariant():
    st_p = evolve_exact(pulse_state(20, 20, C_HALF), 0.05, 0.05, 0.03)
    st_m = evolve_exact(pulse_state(20, 20, C_HALF), 0.05, 0.05, -0.03)
    assert oracle_witness(st_p).e_epr == pytest.approx(
        oracle_witness(st_m).e_epr, rel=1e-6)


def test_default_dn():
    assert default_dn(10, 10) == 1
    assert default_dn(500, 500) == 6


@pytest.fixture(scope="module")
def chi_setup():
    par = PhysicalParams()
    grid = build_grid(16, 40, 0.3, 0.3, -6.0)
    return par, grid


def test_chi_ab_zero_for_disjoint_wells(chi_setup):
    par, grid = chi_setup
    # two wells 8 units apart: clouds never touch
    v = np.empty((4,) + grid.shape)
    r2 = grid.r[:, None] ** 2
    for a, zc in enumerate((-4.0, -4.0, 4.0, 4.0)):
        v[a] = 0.5 * (r2 + (grid.z[None, :] - zc) ** 2)
    ns = np.array([20.0, 20.0, 20.0, 20.0])
    chi_a, chi_b, chi_ab, center = extract_chi(grid, v, ns, par.g4(), dn=2)
    # single-channel twisting scale of one well (chi itself is the small
    # combination g00 + g11 - 2 g01 and is negative here)
    dens = np.abs(center.psi[0]) ** 2
    scale = par.g4()[0, 0] * float(np.sum(grid.weights * dens ** 2)) / 2.0
    assert abs(chi_ab) < 0.02 * scale
    # for these scattering lengths the two wells twist almost identically
    assert chi_a == pytest.approx(chi_b, rel=0.05)
    assert chi_a < 0.0


def test_chi_ab_nonzero_for_overlapping_pair(chi_setup):
    par, grid = chi_setup
    # interaction geometry: a0 and b1 share a well
    v = np.empty((4,) + grid.shape)
    r2 = grid.r[:, None] ** 2
    for a, zc in enumerate((4.0, -4.0, 4.0, 4.0)):
        v[a] = 0.5 * (r2 + (grid.z[None, :] - zc) ** 2)
    # place b0 away from everything, sharing the a1 site is fine too
    v[2] = 0.5 * (r2 + (grid.z[None, :] + 4.0) ** 2)
    ns = np.array([20.0, 20.0, 20.0, 20.0])
    chi_a, chi_b, chi_ab, _ = extract_chi(grid, v, ns, par.g4(), dn=2)
    assert chi_ab > 0.1 * abs(chi_a)


def test_chi_uniform_box_closed_form():
    # in a flat box the chemical potentials are linear in the occupations and
    # chi_sigma = (g00 + g11 - 2 g01) / (2 V) for the discrete stationary state
    par = PhysicalParams()
    g4 = par.g4()
    grid = build_grid(16, 40, 0.3, 0.3, -6.0)
    v = np.zeros((4,) + grid.shape)
    ns = np.array([30.0, 30.0, 30.0, 30.0])
    # the flat-box stationary state on a Dirichlet grid is not uniform, so
    # compute the expected value from the actual density functional instead:
    # mu_eps = sum_eps' g_ee' N_e' I with I = int |phi|^4 for a shared orbital
    chi_a, chi_b, chi_ab, center = extract_chi(grid, v, ns, g4, dn=2)
    dens = np.abs(center.psi[0]) ** 2
    i4 = float(np.sum(grid.weights * dens ** 2))
    expected = (g4[0, 0] + g4[1, 1] - 2 * g4[0, 1]) * i4 / 2.0
    assert chi_a == pytest.approx(expected, rel=0.1)


def test_adiabatic_rates_integrate_known_chi(monkeypatch):
    # chi(t) = (1, t, t^2) at the samples t = 0, 1, 2: no ground state solved
    cfg = ProtocolConfig(n_a=20, n_b=20, dz_max=3.0, t_ramp=2.0, n_r=8,
                         dr=0.45, dz=0.45, z_margin=2.5)
    grid = cfg.build_grid()
    seen = []

    class Center:
        psi = None

    def fake_chi(grid_, potentials, ns, g4, dn=None, tol=1e-8, psi0=None):
        t = float(len(seen))
        seen.append(potentials)
        return 1.0, t, t * t, Center()
    monkeypatch.setattr(becsteer.oracle4mode, "extract_chi", fake_chi)
    ramp, rate = adiabatic_rates(cfg, PhysicalParams(), n_samples=3)
    # trapezoid on unit steps: 1 + 1, (0 + 1)/2 + (1 + 2)/2, (0 + 1)/2 + (1 + 4)/2
    assert ramp.tolist() == [2.0, 2.0, 3.0]
    assert rate.tolist() == [1.0, 2.0, 4.0]
    # sampled on the forward ramp, where the hold time plays no part
    for t, pots in zip((0.0, 1.0, 2.0), seen):
        np.testing.assert_array_equal(pots,
                                      component_potentials(grid, cfg, t, 0.0))
    # the phases are affine in the hold time
    assert twisting_phases(ramp, rate, 0.0) == (4.0, 4.0, 6.0)
    assert twisting_phases(ramp, rate, 0.5) == (4.5, 5.0, 8.0)
