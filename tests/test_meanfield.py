import math
import os
import tracemalloc

import numpy as np
import pytest

import becsteer.meanfield
from becsteer.config import load_config
from becsteer.grid import build_grid, integrate, norm
from becsteer.meanfield import (GS_TOL, PROPAGATOR_CUT, ConvergenceError,
                                FockVector, IntegrationError, PhysicalParams,
                                SplitStepEvolver, _cayley, _cut,
                                _gpe_residual, _kinetic_eigenbasis,
                                _mean_field, _precondition,
                                chemical_potential, energy_fields,
                                gpe_residual, ground_state, load_snapshot,
                                save_snapshot, stable_dt)


HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def par():
    return PhysicalParams()


@pytest.fixture(scope="module")
def grid():
    return build_grid(24, 48, 0.22, 0.22, -5.28)


def trap(grid):
    return 0.5 * (grid.r[:, None] ** 2 + grid.z[None, :] ** 2) * np.ones((4, 1, 1))


def test_oscillator_length(par):
    # Rb87 in a 2*pi*20 Hz trap
    assert par.a_ho == pytest.approx(2.41e-6, rel=5e-3)


def test_coupling_dimensionless(par):
    g = par.g_state()
    # g = 4 pi a / a_ho for the 0-0 channel
    assert g[0, 0] == pytest.approx(
        4 * math.pi * 100.4 * 5.2918e-11 / par.a_ho, rel=1e-12)
    assert g[0, 0] == pytest.approx(0.0277, rel=1e-2)
    assert g[0, 1] == g[1, 0]


def test_g4_layout(par):
    g4 = par.g4()
    gs = par.g_state()
    # components ordered (a0, a1, b0, b1): interactions depend on internal
    # state only
    assert g4[0, 0] == g4[2, 2] == gs[0, 0]
    assert g4[1, 1] == g4[3, 3] == gs[1, 1]
    assert g4[0, 1] == g4[0, 3] == gs[0, 1]


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(a_00=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(omega=0.0)


def test_fock_vector_displaced():
    f = FockVector(50, 50, 40, 40)
    d = f.displaced(2, -1)
    assert d == FockVector(52, 48, 39, 41)
    assert d.n_a == 100 and d.n_b == 80


def test_noninteracting_ground_state(grid, par):
    # one atom: mu should be the oscillator ground energy 3/2 (discretized)
    ns = FockVector(1, 0, 0, 0).as_array()
    psi = ground_state(grid, ns, trap(grid), par.g4())
    mu = chemical_potential(grid, psi, ns, trap(grid), par.g4())
    assert mu[0] == pytest.approx(1.5, abs=2e-2)
    res = gpe_residual(grid, psi, ns, trap(grid), par.g4())
    assert res.max() < 1e-7


def test_interacting_ground_state_stationary(grid, par):
    g4 = par.g4()
    ns = FockVector(250, 250, 0, 0)
    psi = ground_state(grid, ns, trap(grid), g4)
    res = gpe_residual(grid, psi, ns.as_array(), trap(grid), g4)
    assert res.max() < 1e-7
    # interactions raise mu above the single-particle value
    mu = chemical_potential(grid, psi, ns.as_array(), trap(grid), g4)
    assert mu[0] > 1.6
    # perturbative estimate for a weakly interacting cloud:
    # mu ~ 1.5 + g (N-1) int |phi_0|^4 evaluated with the Gaussian orbital
    mu_pert = 1.5 + g4[0, 0] * 499 / (2 * math.pi) ** 1.5 / 2 ** 1.5 \
        + g4[0, 1] * 250 / (2 * math.pi) ** 1.5
    assert mu[0] == pytest.approx(mu_pert, rel=0.25)


def test_ground_state_warm_start(grid, par, monkeypatch):
    g4 = par.g4()
    ns = FockVector(100, 100, 0, 0)
    psi = ground_state(grid, ns, trap(grid), g4)
    # a converged start returns before the first iteration
    monkeypatch.setattr(becsteer.meanfield, "GS_MAX_ITER", 0)
    psi2 = ground_state(grid, ns, trap(grid), g4, psi0=psi)
    assert np.abs(psi2 - psi).max() < 1e-14
    mu, mu2 = (chemical_potential(grid, f, ns, trap(grid), g4)
               for f in (psi, psi2))
    assert np.abs(mu2 - mu).max() < 1e-9


# an independent reference solver: imaginary-time Strang steps, then a
# projected descent, with constants of its own
RELAX_TAU = 0.05          # imaginary-time step
RELAX_TOL = 1e-10         # relative energy change ending the relaxation
RELAX_MAX_ITER = 4000     # imaginary-time steps at most
POLISH_MAX_ITER = 60000   # descent iterations at most


def descent_polish(grid, psi, ns, pots, g4, tol):
    """Projected gradient descent, each step capped by an upper bound of
    the effective Hamiltonian's spectrum, until every residual is below tol."""
    lam_kin = 0.5 * (4.0 / grid.dr**2 + 4.0 / grid.dz**2)
    for it in range(POLISH_MAX_ITER):
        res_vec, mu, veff = _gpe_residual(grid, psi, ns, pots, g4)
        if norm(grid, res_vec).max() < tol:
            return psi
        tau = 1.8 / (lam_kin + veff.max(axis=(-2, -1))[:, None, None] - mu[:, None, None])
        psi = psi - tau * res_vec
        psi = psi / norm(grid, psi)[:, None, None]
    raise ConvergenceError("descent polish not converged")


def complex_ground_state(grid, ns, pots, g4, tol):
    """An independent ground state in complex arithmetic: a complex Gaussian
    start, complex Cayley factors and phases, imaginary-time relaxation and
    the descent polish."""
    psi = np.empty(pots.shape, dtype=complex)
    for a, v in enumerate(pots):
        z0 = grid.z[np.unravel_index(np.argmin(v), grid.shape)[1]]
        gauss = np.exp(-0.5 * (grid.r[:, None] ** 2 + (grid.z[None, :] - z0) ** 2))
        psi[a] = gauss / norm(grid, gauss)
    u_z = _cayley(grid.k_z, RELAX_TAU / 2 + 0j)
    u_zz = _cut(u_z @ u_z)
    u_r = _cut(_cayley(grid.k_r, RELAX_TAU + 0j))

    def half_phase(f):
        return f * np.exp(-0.5 * (RELAX_TAU + 0j) * (pots + _mean_field(g4, f, ns)))

    prev_e = np.inf
    for it in range(RELAX_MAX_ITER):
        psi = half_phase(u_r @ (half_phase(psi) @ u_zz.T))
        psi = psi / norm(grid, psi)[:, None, None]
        if it % 25 == 24:
            e = energy_fields(grid, psi, ns, pots, g4)
            if abs(prev_e - e) < RELAX_TOL * max(abs(e), 1.0):
                break
            prev_e = e
    return descent_polish(grid, psi, ns, pots, g4, tol)


def spectral_gaps(grid, veff, mu):
    """E1 - mu of each component's effective Hamiltonian K + veff_a, from
    dense eigvalsh of its weight-symmetrized matrix."""
    k = (np.kron(grid.k_r, np.eye(grid.n_z))
         + np.kron(np.eye(grid.n_r), grid.k_z))
    sw = np.sqrt(grid.weights.ravel())
    kin = sw[:, None] * k / sw[None, :]
    return np.array([np.linalg.eigvalsh(kin + np.diag(v.ravel()))[1] - m
                     for v, m in zip(veff, mu)])


@pytest.mark.parametrize("ns", [[60.0, 40.0], [50.0, 0.0, 30.0, 10.0]],
                         ids=["two", "four"])
def test_real_ground_state_matches_complex_arithmetic(grid, par, ns):
    # displaced traps, so that no two components share an orbital
    ns = np.array(ns)
    shifts = 0.6 * (np.arange(len(ns)) - 0.5 * (len(ns) - 1))
    pots = 0.5 * (grid.r[None, :, None] ** 2
                  + (grid.z[None, None, :] - shifts[:, None, None]) ** 2)
    g4 = par.g4()[:len(ns), :len(ns)]
    psi = ground_state(grid, ns, pots, g4)
    want = complex_ground_state(grid, ns, pots, g4, 1e-12)
    assert psi.dtype == float and psi.shape == want.shape
    # a residual below tol puts a state within about tol / (E1 - mu) of the
    # exact one; the reference's 1e-12 adds 1e-12 / (E1 - mu)
    _, mu, veff = _gpe_residual(grid, want, ns, pots, g4)
    gaps = spectral_gaps(grid, np.real(veff), mu)
    assert np.all(norm(grid, psi - want) < 2 * GS_TOL / gaps)
    got = chemical_potential(grid, psi, ns, pots, g4)
    assert np.abs(got - mu).max() <= 2 * GS_TOL * np.abs(mu).max()


def test_ground_state_refuses_a_complex_start(grid, par):
    ns = FockVector(10, 10, 0, 0)
    psi = ground_state(grid, ns, trap(grid), par.g4())
    # a ground state is real, so it is a valid warm start (extract_chi's)
    assert not psi.imag.any()
    with pytest.raises(ValueError, match="real-valued"):
        ground_state(grid, ns, trap(grid), par.g4(), psi0=psi * np.exp(0.3j))


def test_split_step_preserves_norm(grid, par):
    ev = SplitStepEvolver(grid, par.g4(), 0.01)
    psi = ground_state(grid, FockVector(50, 50, 50, 50), trap(grid), par.g4())
    psi = psi[None].repeat(3, axis=0)
    ns = np.full((3, 4), 50.0)
    psi = ev.phase(psi, ns, trap(grid), 0.5)
    for _ in range(50):
        psi = ev.step(psi, ns, trap(grid))
    psi = ev.phase(psi, ns, trap(grid), -0.5)
    nrm = np.real(np.sum(grid.weights * np.abs(psi) ** 2, axis=(-2, -1)))
    assert np.abs(nrm - 1.0).max() < 1e-12


def test_phase_factor_matches_cos_and_sin(grid):
    # with no interactions, unit psi and dt 1 the phase is the factor
    # exp(-i v) itself, built from tan(v/2): large arguments, arguments
    # next to odd multiples of pi (where the tangent is near 1.6e16) and 0
    rng = np.random.default_rng(7)
    odd_pi = (2 * np.arange(-159, 160) + 1) * np.pi
    theta = np.concatenate([
        rng.uniform(-1e3, 1e3, 2500), rng.uniform(-0.6, 0.6, 500),
        odd_pi, np.nextafter(odd_pi, np.inf), np.nextafter(odd_pi, -np.inf),
        odd_pi * (1 + 1e-12), [0.0, -0.0, 5e-324, 1e-300, np.pi, -np.pi]])
    v = np.zeros(4 * grid.n_r * grid.n_z)
    v[:theta.size] = theta
    v = v.reshape((4,) + grid.shape)
    ev = SplitStepEvolver(grid, np.zeros((4, 4)), 1.0)
    factor = ev.phase(np.ones(v.shape), np.ones(4), v, 1.0)
    assert np.abs(factor - (np.cos(v) - 1j * np.sin(v))).max() <= 4.5e-16
    assert np.abs(np.abs(factor) - 1.0).max() <= 4.5e-16
    assert np.all(factor[v == 0.0] == 1.0)


def test_opening_then_closing_returns_psi(grid, par):
    rng = np.random.default_rng(4)
    psi = ground_state(grid, FockVector(50, 50, 50, 50), trap(grid), par.g4())
    psi = psi * np.exp(1j * rng.uniform(-np.pi, np.pi, psi.shape))
    ns = np.full(4, 50.0)
    ev = SplitStepEvolver(grid, par.g4(), 0.05)
    back = ev.phase(ev.phase(psi, ns, trap(grid), 0.5), ns, trap(grid), -0.5)
    assert np.abs(back - psi).max() <= 1e-15 * np.abs(psi).max()


def test_step_with_work_allocates_no_state(grid, par):
    # a step given its buffers stays in place: what it allocates is the
    # few small arrays of the mean-field couplings, not a field
    psi = ground_state(grid, FockVector(50, 50, 50, 50), trap(grid), par.g4())
    psi = psi[None].repeat(5, axis=0).astype(complex)
    ns = np.full((5, 4), 50.0)
    v = trap(grid)
    ev = SplitStepEvolver(grid, par.g4(), 0.01)
    work = becsteer.meanfield._work(psi.shape)
    ev.step(psi, ns, v, work)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert ev.step(psi, ns, v, work) is psi
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < psi.nbytes / 4


def test_norm_drift_raises(grid, par):
    ev = SplitStepEvolver(grid, par.g4(), 0.01)
    psi = ground_state(grid, FockVector(50, 50, 50, 50), trap(grid), par.g4())
    assert ev.check_norms(psi) < 1e-12
    # a 0.1 % amplitude error is a norm drift of 2e-3
    with pytest.raises(IntegrationError, match="norm drift"):
        ev.check_norms(1.001 * psi)


def test_unconverged_ground_state_raises(grid, par, monkeypatch):
    monkeypatch.setattr(becsteer.meanfield, "GS_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        ground_state(grid, FockVector(50, 50, 0, 0), trap(grid), par.g4())


def test_ground_state_is_stationary_under_real_time(grid, par):
    g4 = par.g4()
    ns = FockVector(50, 50, 0, 0)
    psi0 = ground_state(grid, ns, trap(grid), g4, tol=1e-10)
    ev = SplitStepEvolver(grid, g4, 0.01)
    psi = psi0.copy()
    e0 = energy_fields(grid, psi, ns.as_array(), trap(grid), g4)
    psi = ev.phase(psi, ns.as_array(), trap(grid), 0.5)
    for _ in range(200):
        psi = ev.step(psi, ns.as_array(), trap(grid))
    psi = ev.phase(psi, ns.as_array(), trap(grid), -0.5)
    e1 = energy_fields(grid, psi, ns.as_array(), trap(grid), g4)
    assert abs(e1 - e0) < 1e-6 * abs(e0)
    # only a global phase evolves
    ov = abs(np.sum(grid.weights * np.conj(psi0[0]) * psi[0]))
    assert ov == pytest.approx(1.0, abs=1e-8)


def test_stable_dt_scales_with_coupling(grid, par):
    psi = ground_state(grid, FockVector(100, 100, 0, 0), trap(grid), par.g4())
    dt1 = stable_dt(grid, par.g4(), trap(grid), psi,
                    np.array([100.0, 100.0, 0.0, 0.0]))
    dt2 = stable_dt(grid, 10 * par.g4(), trap(grid), psi,
                    np.array([100.0, 100.0, 0.0, 0.0]))
    assert 0 < dt2 < dt1


def test_snapshot_roundtrip(tmp_path, grid, par):
    fock = FockVector(10, 10, 10, 10)
    psi = ground_state(grid, fock, trap(grid), par.g4())
    path = tmp_path / "snap.txt"
    save_snapshot(path, grid, psi, fock, 1.25)
    g2, psi2, fock2, t2 = load_snapshot(path)
    assert g2.shape == grid.shape and g2.dr == grid.dr
    assert fock2 == fock and t2 == 1.25
    assert np.abs(psi2 - psi).max() < 1e-15


def test_chemical_potential_matches_energy_derivative(grid, par):
    # mu_a ~ dE/dN_a via finite differences of the energy functional
    g4 = par.g4()
    ns = np.array([80.0, 0.0, 0.0, 0.0])
    psi = ground_state(grid, ns, trap(grid), g4)
    mu = chemical_potential(grid, psi, ns, trap(grid), g4)[0]
    es = []
    for dn in (+1.0, -1.0):
        occ = ns.copy()
        occ[0] += dn
        psi2 = ground_state(grid, occ, trap(grid), g4, psi0=psi)
        es.append(energy_fields(grid, psi2, occ, trap(grid), g4))
    assert mu == pytest.approx((es[0] - es[1]) / 2.0, rel=1e-3)


# empty and fractional occupations, as extract_chi produces for odd N: the
# intra-species factor is max(N_a - 1, 0)
FLOOR_NS = np.array([0.0, 0.5, 1.0, 3.0])


def floor_states(grid):
    """Four displaced Gaussians of different widths, each with a phase."""
    psi = np.empty((4,) + grid.shape, dtype=complex)
    for a in range(4):
        z0, w = 0.4 * (a - 1.5), 0.8 + 0.1 * a
        f = np.exp(-(grid.r[:, None] ** 2 + (grid.z[None, :] - z0) ** 2)
                   / (2 * w ** 2) + 0.3j * a * grid.z[None, :])
        psi[a] = f / norm(grid, f)
    return psi


def test_chemical_potential_self_interaction_floor(grid, par):
    g4 = par.g4()
    ns = FLOOR_NS
    pots = trap(grid)
    psi = floor_states(grid)
    dens = np.abs(psi) ** 2
    expect = []
    for a in range(4):
        veff = pots[a] + g4[a, a] * max(ns[a] - 1.0, 0.0) * dens[a]
        for b in range(4):
            if b != a:
                veff = veff + g4[a, b] * ns[b] * dens[b]
        h_psi = grid.kinetic(psi[a]) + veff * psi[a]
        expect.append(np.real(np.sum(grid.weights * np.conj(psi[a]) * h_psi)))
    mu = chemical_potential(grid, psi, ns, pots, g4)
    assert mu == pytest.approx(expect, rel=1e-12, abs=0)


def test_mean_field_matches_explicit_sum():
    # the batched kernel against a loop over (configuration, a, a'), with
    # couplings that are not symmetric, so that a transposed matrix shows,
    # and occupations of 0, below 1, 1, between 1 and 2 and above 2, so that
    # the max(N_a - 1, 0) floor is met in every batch row
    rng = np.random.default_rng(11)
    g4 = rng.uniform(0.5, 2.0, (4, 4))
    ns = np.array([[0.0, 0.5, 1.0, 3.7],
                   [1.0, 0.0, 2.0, 0.25],
                   [1.5, 7.0, 0.0, 0.0],
                   [40.0, 39.0, 0.75, 1.0],
                   [0.0, 0.0, 0.0, 0.0]])
    psi = rng.normal(size=(5, 4, 6, 7)) + 1j * rng.normal(size=(5, 4, 6, 7))
    dens = np.abs(psi) ** 2
    want = np.zeros(dens.shape)
    for c in range(5):
        for a in range(4):
            for b in range(4):
                n = max(ns[c, a] - 1.0, 0.0) if b == a else ns[c, b]
                want[c, a] += g4[a, b] * n * dens[c, b]
    assert np.allclose(_mean_field(g4, psi, ns), want, rtol=1e-14, atol=0)
    # from a density the caller holds, into the real part of a buffer, as
    # SplitStepEvolver builds its phase factor
    buf = np.zeros(psi.shape, dtype=complex)
    got = _mean_field(g4, None, ns, dens, out=buf.real)
    assert np.shares_memory(got, buf)
    assert np.array_equal(buf.real, _mean_field(g4, psi, ns))
    assert not buf.imag.any()


def test_energy_self_interaction_floor(grid, par):
    # the energy has the GPE's floor: a component with N_a <= 1 has no
    # self-energy, one with N_a > 1 has g_aa/2 N_a (N_a - 1) int |phi_a|^4
    g4 = par.g4()
    ns = FLOOR_NS
    pots = trap(grid)
    psi = floor_states(grid)
    e = energy_fields(grid, psi, ns, pots, g4)
    g_light = g4.copy()
    g_light[[0, 1, 2], [0, 1, 2]] = 0.0
    assert energy_fields(grid, psi, ns, pots, g_light) == pytest.approx(e, rel=1e-12, abs=0)
    g_free = g4.copy()
    g_free[3, 3] = 0.0
    self_3 = 0.5 * g4[3, 3] * 3.0 * 2.0 * integrate(grid, np.abs(psi[3]) ** 4)
    assert e - energy_fields(grid, psi, ns, pots, g_free) == pytest.approx(self_3, rel=1e-9)


def test_split_step_kinetic_is_grid_laplacian(grid):
    # with no potential and no interactions one step is exp(-h H) with
    # h = i dt and H = grid.kinetic, so (psi - step(psi))/h -> H psi at
    # first order in dt; the ground state and energy_fields apply the same
    # matrices (test_preconditioner_inverts_the_residual_operator)
    r, z = grid.r[:, None], grid.z[None, :]
    f = np.exp(-0.5 * r ** 2 - 0.4 * (z - 0.3) ** 2 + 0.7j * z) * (1 + 0.3 * r ** 2)
    psi = f[None].repeat(4, axis=0)
    zero_v = np.zeros((4,) + grid.shape)
    h_psi = grid.kinetic(psi)
    errs = []
    for dt in (2e-3, 1e-3):
        ev = SplitStepEvolver(grid, np.zeros((4, 4)), dt)
        h = 1j * dt
        got = (psi - ev.step(psi, np.zeros(4), zero_v)) / h
        errs.append(np.abs(got - h_psi).max() / np.abs(h_psi).max())
    assert errs[1] < 2.0 * 1e-3
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("name", ["fig2a", "fig3"])
def test_preconditioner_inverts_the_residual_operator(name):
    # the ground state's preconditioner (K + alpha)^-1 is built from the
    # eigenbasis of the matrices that grid.kinetic, and so the residual,
    # applies
    cfg = load_config(os.path.join(HERE, "configs", f"{name}.cfg"))
    grid = cfg.protocol().build_grid()
    rng = np.random.default_rng(5)
    f = rng.normal(size=(4,) + grid.shape)
    alpha = np.array([1.0, 2.0, 5.0, 30.0])
    rhs = grid.kinetic(f) + alpha[:, None, None] * f
    got = _precondition(_kinetic_eigenbasis(grid), rhs, alpha)
    assert np.abs(got - f).max() < 1e-13 * np.abs(f).max()


def test_propagators_hold_no_entry_below_the_cut(par):
    # fig2a's grid at the committed dt, where the far entries of U_z are
    # subnormal; the two-product sweep is the z-r-z sweep to roundoff
    grid = build_grid(28, 204, 1 / 7, 1 / 7, -9.5)
    dt = 0.004
    ev = SplitStepEvolver(grid, par.g4(), dt)
    for u in (ev._u_zz, ev._u_r):
        mag = np.abs(u)
        assert mag[mag > 0].min() >= PROPAGATOR_CUT * mag.max()
    assert (ev._u_zz == 0).any()
    u_z = _cayley(grid.k_z, 0.5j * dt)
    u_r = _cayley(grid.k_r, 1j * dt)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(4,) + grid.shape) + 1j * rng.normal(size=(4,) + grid.shape)
    want = (u_r @ (psi @ u_z.T)) @ u_z.T
    got = ev._kinetic(psi)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
