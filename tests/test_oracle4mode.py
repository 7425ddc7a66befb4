import math
import tracemalloc

import numpy as np
import pytest

from becsteer.correlators import MultiIndex
from becsteer.grid import build_grid
from becsteer.meanfield import GS_TOL, PhysicalParams
import becsteer.oracle4mode
from becsteer.oracle4mode import (FourModeState, adiabatic_rates,
                                  default_dn, evolve_exact, extract_chi,
                                  four_mode_average, oracle_moments,
                                  oracle_witness, pulse_state,
                                  twisting_phases)
from becsteer.sequence import ProtocolConfig, component_potentials

C_HALF = np.ones(4) / math.sqrt(2.0)
C_PHASED = np.array([1.0, np.exp(0.4j), 1.0, np.exp(-0.9j)]) / math.sqrt(2.0)
C_COS_SIN = np.array([math.cos(0.5), math.sin(0.5), math.cos(0.5),
                      math.sin(0.5)])


@pytest.mark.parametrize("C", [C_HALF, C_PHASED], ids=["half", "phased"])
@pytest.mark.parametrize("n_a, n_b", [(25, 31), (800, 800), (2040, 4),
                                      (4000, 4)])
def test_pulse_state_normalized(n_a, n_b, C):
    # the binomial weights stay finite and normalized at a few thousand
    # atoms per well, where C(n, k) alone overflows a double
    st = pulse_state(n_a, n_b, C)
    assert np.linalg.norm(st.amp_a) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.norm(st.amp_b) == pytest.approx(1.0, abs=1e-13)
    m = oracle_moments(st)
    # a coherent spin state on the equator: full length, binomial S_z
    assert math.hypot(m.mean[0], m.mean[1]) == pytest.approx(n_a / 2,
                                                             rel=1e-12)
    assert m.cov[2, 2] == pytest.approx(n_a / 4, rel=1e-12)


def test_t0_moments_and_witness():
    st = pulse_state(30, 30, C_HALF)
    m = oracle_moments(st)
    assert m.mean[0] == pytest.approx(15.0, abs=1e-10)
    assert m.cov[2, 2] == pytest.approx(7.5, abs=1e-10)
    assert oracle_witness(st).e_epr == pytest.approx(1.0, abs=1e-10)


def test_zero_phases_identity():
    st = pulse_state(12, 10, C_HALF)
    m, m2 = oracle_moments(st), oracle_moments(evolve_exact(st, 0.0, 0.0, 0.0))
    assert np.array_equal(m.mean, m2.mean)
    assert np.array_equal(m.second, m2.second)


def test_unitarity():
    # the identity term is the norm of the twisted state
    st = evolve_exact(pulse_state(20, 20, C_HALF), 0.3, -0.2, 0.15)
    one = four_mode_average(st, MultiIndex((0, 0, 0, 0), (0, 0, 0, 0)))
    assert one == pytest.approx(1.0, abs=1e-14)


def test_one_axis_twisting_closed_form():
    # <Sx> = (N/2) cos^{N-1}(phi) under phi * Sz^2
    n, phi = 24, 0.17
    st = evolve_exact(pulse_state(n, 4, C_HALF), phi, 0.0, 0.0)
    m = oracle_moments(st)
    assert m.mean[0] == pytest.approx(n / 2 * math.cos(phi) ** (n - 1), abs=1e-10)


def spin_matrices(n):
    """Dense (Sx, Sy, Sz) of spin j = n/2 in the basis m = -j..j, with
    S+ = Sx + i Sy raising m."""
    j = n / 2.0
    m = np.arange(-j, j + 0.5)
    s_plus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    return ((s_plus + s_plus.T) / 2, (s_plus - s_plus.T) / 2j, np.diag(m))


@pytest.mark.parametrize("C", [C_HALF, C_PHASED, C_COS_SIN],
                         ids=["half", "phased", "cos-sin"])
@pytest.mark.parametrize("n_a, n_b", [(40, 30), (20, 20), (200, 150),
                                      (7, 300)])
def test_moments_match_dense_spin_matrices(n_a, n_b, C):
    # An independent reference: the pulse from C(n, k) directly, evolved
    # with expm, and measured with dense spin matrices acting on the
    # (n_a + 1) x (n_b + 1) amplitudes as S (x) 1 and 1 (x) S.  The basis
    # index k = n_s0 is m + n_s / 2.  correlators.SPIN raises m with
    # a0^dag a1 in x and y but takes S_z = (n1 - n0)/2 = -m, so that
    # [S_x, S_y] = -i S_z (ROADMAP F4): the reference's z rows are -Sz.
    import scipy.linalg
    phi_a, phi_b, phi_ab = np.random.default_rng(n_a + n_b).normal(
        scale=2.0 / (n_a + n_b), size=3)

    def pulse(n, c0, c1):
        k = np.arange(n + 1)
        return np.array([math.sqrt(math.comb(n, int(i))) for i in k]) \
            * c0 ** k * c1 ** (n - k)

    c = np.outer(pulse(n_a, *C[:2]), pulse(n_b, *C[2:]))
    sx_a, sy_a, sz_a = spin_matrices(n_a)
    sx_b, sy_b, sz_b = spin_matrices(n_b)
    c = scipy.linalg.expm(-1j * phi_a * sz_a @ sz_a) @ c \
        @ scipy.linalg.expm(-1j * phi_b * sz_b @ sz_b).T
    for i, m_a in enumerate(np.diag(sz_a)):
        c[i] = scipy.linalg.expm(1j * phi_ab * m_a * sz_b) @ c[i]
    ops = [lambda x, s=s: s @ x for s in (sx_a, sy_a, -sz_a)]
    ops += [lambda x, s=s: x @ s.T for s in (sx_b, sy_b, -sz_b)]
    applied = [op(c) for op in ops]
    mean = np.array([np.vdot(c, a).real for a in applied])
    second = np.array([[np.vdot(ai, aj).real for aj in applied]
                       for ai in applied])

    m = oracle_moments(evolve_exact(pulse_state(n_a, n_b, C),
                                    phi_a, phi_b, phi_ab))
    # the reference's powers c0^k carry up to ~n ulp, relative
    tol = 2.0 * np.finfo(float).eps * (n_a + n_b) ** 2
    assert np.abs(m.mean - mean).max() <= tol
    assert np.abs(m.second - second).max() <= tol * (n_a + n_b)
    # the Casimir of each well is conserved by the twist
    for o, n in ((0, n_a), (3, n_b)):
        assert np.trace(m.second[o:o + 3, o:o + 3]) == pytest.approx(
            n / 2 * (n / 2 + 1), rel=1e-13)


def kron_moments(psi, n_a, n_b):
    """Mean and symmetrized second moments of the six spins on a flattened
    (n_a + 1) x (n_b + 1) state, from S (x) 1 and 1 (x) S; the z rows are
    -Sz, as in the reference above."""
    ops = []
    for n, place in ((n_a, lambda s: np.kron(s, np.eye(n_b + 1))),
                     (n_b, lambda s: np.kron(np.eye(n_a + 1), s))):
        sx, sy, sz = spin_matrices(n)
        ops += [place(sx), place(sy), place(-sz)]
    mean = np.array([np.vdot(psi, o @ psi).real for o in ops])
    second = np.array([[np.vdot(psi, (oi @ oj + oj @ oi) @ psi).real / 2
                        for oj in ops] for oi in ops])
    return mean, second


def twist_hamiltonian(n_a, n_b, phi_a, phi_b, phi_ab):
    """Phi on the flattened Fock grid, z_s = k_s - n_s / 2."""
    za = np.arange(n_a + 1) - n_a / 2
    zb = np.arange(n_b + 1) - n_b / 2
    return (phi_a * za[:, None] ** 2 + phi_b * zb[None, :] ** 2
            - phi_ab * za[:, None] * zb[None, :]).ravel()


def test_moments_match_dense_matrix_exponential():
    # the pulse evolved by expm of the dense twisting Hamiltonian on the
    # flattened Fock grid, against the product-form twist
    import scipy.linalg
    rng = np.random.default_rng(4)
    n_a = n_b = 8
    phi_a, phi_b, phi_ab = rng.normal(scale=0.2, size=3)
    st0 = pulse_state(n_a, n_b, C_HALF)
    h = twist_hamiltonian(n_a, n_b, phi_a, phi_b, phi_ab)
    u = scipy.linalg.expm(-1j * np.diag(h))
    psi = u @ np.kron(st0.amp_a, st0.amp_b)
    mean, second = kron_moments(psi, n_a, n_b)
    m = oracle_moments(evolve_exact(st0, phi_a, phi_b, phi_ab))
    assert np.abs(m.mean - mean).max() < 1e-12
    assert np.abs(m.second - second).max() < 1e-12


def test_moments_match_kronecker_spin_matrices():
    # unequal wells, generic complex amplitudes and a twist that entangles
    # them: both wells against dense Kronecker-product operators
    n_a, n_b = 5, 3
    rng = np.random.default_rng(7)

    def amp(n):
        a = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        return a / np.linalg.norm(a)

    twist = tuple(rng.normal(scale=0.5, size=3))
    st = evolve_exact(FourModeState(amp(n_a), amp(n_b)), *twist)
    psi = (np.exp(-1j * twist_hamiltonian(n_a, n_b, *twist))
           * np.kron(st.amp_a, st.amp_b))
    mean, second = kron_moments(psi, n_a, n_b)
    m = oracle_moments(st)
    assert np.abs(m.mean - mean).max() < 1e-12
    assert np.abs(m.second - second).max() < 1e-12

def test_moments_trace_little_memory():
    # the per-well sums keep nothing of size (n_a + 1) x (n_b + 1): the dense
    # four-mode state's moments traced 128-145 MB here
    st = evolve_exact(pulse_state(1000, 1000, C_HALF), 0.001, 0.001, 0.02)
    tracemalloc.start()
    try:
        oracle_moments(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


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
    dens = np.abs(center[0]) ** 2
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
    dens = np.abs(center[0]) ** 2
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

    def fake_chi(grid_, potentials, ns, g4, dn=None, tol=GS_TOL, psi0=None):
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
