import numpy as np
import pytest

from becsteer.grid import build_grid
from becsteer.meanfield import PhysicalParams, ground_state
from becsteer.fockflow import (DisplacementError, central_fock,
                               init_trajectories)

C = np.ones(4) / np.sqrt(2.0)         # pulse amplitudes for correlator_inputs


@pytest.fixture(scope="module")
def setup():
    par = PhysicalParams()
    grid = build_grid(14, 28, 0.32, 0.32, -4.48)
    g4 = par.g4()
    pots = 0.5 * (grid.r[:, None] ** 2 + grid.z[None, :] ** 2) * np.ones((4, 1, 1))
    st = ground_state(grid, np.array([40.0, 0.0, 40.0, 0.0]), pots, g4)
    psi0 = st.psi.copy()
    psi0[1] = psi0[0]
    psi0[3] = psi0[2]
    return grid, g4, pots, psi0


def test_central_fock_split():
    assert tuple(central_fock(40, 40)) == (20, 20, 20, 20)
    assert tuple(central_fock(7, 9)) == (4, 3, 5, 4)


def test_beta_validation(setup):
    grid, g4, pots, psi0 = setup
    with pytest.raises(DisplacementError):
        init_trajectories(grid, g4, 40, 40, psi0, beta=0)
    with pytest.raises(DisplacementError):
        init_trajectories(grid, g4, 40, 40, psi0, beta=5)  # > min(nbar)/10
    init_trajectories(grid, g4, 40, 40, psi0, beta=2)


def test_five_configurations(setup):
    # the centre and its four axis neighbours; no configuration is displaced
    # in both wells
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0, beta=2)
    assert traj.psi.shape == (5, 4) + grid.shape
    occ = [tuple(f) for f in traj.focks]
    assert not any(o[0] != 20 and o[2] != 20 for o in occ)
    assert occ[traj.CENTER] == (20, 20, 20, 20)
    assert occ[traj.AXIS[("a", +1)]] == (22, 18, 20, 20)
    assert occ[traj.AXIS[("a", -1)]] == (18, 22, 20, 20)
    assert occ[traj.AXIS[("b", +1)]] == (20, 20, 22, 18)
    assert occ[traj.AXIS[("b", -1)]] == (20, 20, 18, 22)


def test_theta_zero_and_antisymmetric(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    for _ in range(30):
        traj.advance(lambda t: pots, 0.01)
    assert traj.theta(0, 0) == 0.0
    for pa, pb in ((1, 0), (0, 1), (2, -1), (3, 3)):
        assert traj.theta(pa, pb) == -traj.theta(-pa, -pb)
    assert traj.theta(1, 0) != 0.0


def test_theta_rate_scale(setup):
    # the per-mode phase coefficients accumulate at O(g n); their unit-transfer
    # combination is the much smaller difference of near-equal couplings
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    for _ in range(20):
        traj.advance(lambda t: pots, 0.01)
    # per-partner rate is (g/2) int n_a n_a' with unit-normalized densities
    dens_scale = float(np.sum(grid.weights * np.abs(psi0[0]) ** 4))
    coeff_rate = np.abs(traj.theta_coeff).max() / traj.t
    assert 0.5 * g4[0, 0] * dens_scale < coeff_rate < 10 * g4[0, 0] * dens_scale
    rate_u = abs(traj.theta(1, 0)) / traj.t
    assert 0.0 < rate_u < 0.1 * coeff_rate


def test_gradients_zero_initially(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    g = traj.phase_gradients()
    assert np.abs(g).max() < 1e-12
    ov = traj.correlator_inputs(C).displaced_overlap(0, 1, 0)
    assert ov == pytest.approx(1.0, abs=1e-12)


def test_gradients_grow_and_overlap_shrinks(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    for _ in range(50):
        traj.advance(lambda t: pots, 0.01)
    g1 = traj.phase_gradients()
    ov1 = abs(traj.correlator_inputs(C).displaced_overlap(0, 1, 0))
    for _ in range(50):
        traj.advance(lambda t: pots, 0.01)
    g2 = traj.phase_gradients()
    ov2 = abs(traj.correlator_inputs(C).displaced_overlap(0, 1, 0))
    dens = np.abs(traj.psi[traj.CENTER, 0]) ** 2
    sel = dens > 1e-4 * dens.max()
    assert np.abs(g2[0, 0][sel]).max() > np.abs(g1[0, 0][sel]).max()
    # the displaced overlap is a mean of unit phasors: magnitude at most one,
    # and very close to one while the gradients stay nearly uniform
    assert ov1 <= 1.0 + 1e-12 and ov2 <= 1.0 + 1e-12
    assert ov2 > 1.0 - 1e-4


def test_gradient_matches_finite_difference_of_beta(setup):
    # the beta=1 and beta=2 estimates of the same derivative must agree to
    # the truncation order of the centered difference
    grid, g4, pots, psi0 = setup
    t1 = init_trajectories(grid, g4, 40, 40, psi0, beta=1)
    t2 = init_trajectories(grid, g4, 40, 40, psi0, beta=2)
    for _ in range(40):
        t1.advance(lambda t: pots, 0.01)
        t2.advance(lambda t: pots, 0.01)
    g1 = t1.phase_gradients()
    g2 = t2.phase_gradients()
    dens = np.abs(t1.psi[t1.CENTER, 0]) ** 2
    sel = dens > 1e-3 * dens.max()
    scale = np.abs(g1[0, 0][sel]).max()
    assert np.abs((g1 - g2)[0, 0][sel]).max() < 0.05 * scale


def test_density_overlap_unity_for_identical_components(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    assert traj.density_overlap("a") == pytest.approx(1.0, abs=1e-12)
    assert traj.density_overlap("b") == pytest.approx(1.0, abs=1e-12)


def test_norm_check_runs(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    for _ in range(10):
        traj.advance(lambda t: pots, 0.02)
    nrm = np.real(np.sum(grid.weights * np.abs(traj.psi) ** 2, axis=(-2, -1)))
    assert np.abs(nrm - 1.0).max() < 1e-12
