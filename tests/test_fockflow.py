import numpy as np
import pytest

from becsteer.grid import build_grid
from becsteer.meanfield import (IntegrationError, PhysicalParams,
                                SplitStepEvolver, _mean_field)
from becsteer.fockflow import (DisplacementError, _wrap, central_fock,
                               init_trajectories)
from becsteer.sequence import prepulse_state

C = np.ones(4) / np.sqrt(2.0)         # pulse amplitudes for correlator_inputs


@pytest.fixture(scope="module")
def setup():
    par = PhysicalParams()
    grid = build_grid(14, 28, 0.32, 0.32, -4.48)
    g4 = par.g4()
    pots = 0.5 * (grid.r[:, None] ** 2 + grid.z[None, :] ** 2) * np.ones((4, 1, 1))
    psi0 = prepulse_state(grid, 40, 40, pots, g4)
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
    traj.run(lambda t: pots, 0.01, 30)
    assert traj.theta(0, 0) == 0.0
    for pa, pb in ((1, 0), (0, 1), (2, -1), (3, 3)):
        assert traj.theta(pa, pb) == -traj.theta(-pa, -pb)
    assert traj.theta(1, 0) != 0.0


def test_theta_rate_scale(setup):
    # the per-mode phase coefficients accumulate at O(g n); their unit-transfer
    # combination is the much smaller difference of near-equal couplings
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    traj.run(lambda t: pots, 0.01, 20)
    # per-partner rate is (g/2) int n_a n_a' with unit-normalized densities
    dens_scale = float(np.sum(grid.weights * np.abs(psi0[0]) ** 4))
    coeff_rate = np.abs(traj.theta_coeff).max() / traj.t
    assert 0.5 * g4[0, 0] * dens_scale < coeff_rate < 10 * g4[0, 0] * dens_scale
    rate_u = abs(traj.theta(1, 0)) / traj.t
    assert 0.0 < rate_u < 0.1 * coeff_rate


def test_gradients_zero_initially(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    g = traj.phase_gradients(traj.psi)
    assert np.abs(g).max() < 1e-12
    ov = traj.correlator_inputs(C).displaced_overlap(0, 1, 0)
    assert ov == pytest.approx(1.0, abs=1e-12)


def test_gradients_grow_and_overlap_shrinks(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    traj.run(lambda t: pots, 0.01, 50)
    g1 = traj.phase_gradients(traj.psi)
    ov1 = abs(traj.correlator_inputs(C).displaced_overlap(0, 1, 0))
    traj.run(lambda t: pots, 0.01, 50)
    g2 = traj.phase_gradients(traj.psi)
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
    t1.run(lambda t: pots, 0.01, 40)
    t2.run(lambda t: pots, 0.01, 40)
    g1 = t1.phase_gradients(t1.psi)
    g2 = t2.phase_gradients(t2.psi)
    dens = np.abs(t1.psi[t1.CENTER, 0]) ** 2
    sel = dens > 1e-3 * dens.max()
    scale = np.abs(g1[0, 0][sel]).max()
    assert np.abs((g1 - g2)[0, 0][sel]).max() < 0.05 * scale


def test_density_overlap_unity_for_identical_components(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    assert traj.density_overlap("a") == pytest.approx(1.0, abs=1e-12)
    assert traj.density_overlap("b") == pytest.approx(1.0, abs=1e-12)


def test_run_in_parts_equals_one_run(setup):
    # consecutive runs step exactly as one: a run at the same dt whose
    # potential at its start time equals the last one's closing potential
    # continues the state the last run left open
    grid, g4, pots, psi0 = setup
    calls = []

    def p(t):
        calls.append(t)
        return pots * (1.0 + 0.3 * np.sin(t))

    state = ("psi", "theta_coeff", "_mean_phase", "t", "steps")
    whole = init_trajectories(grid, g4, 40, 40, psi0)
    whole.run(p, 0.01, 7)
    assert len(calls) == 8
    parts = init_trajectories(grid, g4, 40, 40, psi0)
    for steps in (3, 0, 4):
        before = [np.copy(getattr(parts, k)) for k in state]
        calls.clear()
        parts.run(p, 0.01, steps)
        assert len(calls) == steps + 1
        if steps == 0:
            for b, k in zip(before, state):
                assert np.array_equal(b, getattr(parts, k)), k
    for k in state:
        assert np.array_equal(getattr(parts, k), getattr(whole, k)), k
    assert parts.steps == 7 and parts.fork().steps == 7


def test_norm_check_runs(setup):
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    traj.run(lambda t: pots, 0.02, 10)
    nrm = np.real(np.sum(grid.weights * np.abs(traj.psi) ** 2, axis=(-2, -1)))
    assert np.abs(nrm - 1.0).max() < 1e-12


def test_norm_check_fires_inside_run(setup):
    # a 0.1 % amplitude error of the working state is a norm drift of 2e-3,
    # which the step's own density must catch
    grid, g4, pots, psi0 = setup
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    traj.run(lambda t: pots, 0.02, 2)
    traj._psi *= 1.001
    with pytest.raises(IntegrationError, match="norm drift"):
        traj.run(lambda t: pots, 0.02, 1)


def test_forks_step_independently_in_place(setup):
    # run steps its working state in place.  A fork copies that state and
    # shares the pending evolver; the parent and the fork, stepped in turn,
    # must each equal a set that ran alone, bit for bit, and an array read
    # from psi before a run must not change with it
    grid, g4, pots, psi0 = setup

    def p(t):
        return pots * (1.0 + 0.3 * np.sin(t))

    state = ("psi", "theta_coeff", "_mean_phase", "_raw_prev", "t", "steps",
             "norm_drift", "unwrap_step")
    parent = init_trajectories(grid, g4, 40, 40, psi0)
    read = [parent.psi]
    kept = [read[0].copy()]
    parent.run(p, 0.01, 5)
    fork = parent.fork()
    assert fork._pending is parent._pending
    read.append(parent.psi)
    kept.append(read[1].copy())
    for _ in range(3):
        parent.run(p, 0.01, 2)
        fork.run(p, 0.01, 3)
    for r, k in zip(read, kept):
        assert np.array_equal(r, k)
    for traj, steps in ((parent, 11), (fork, 14)):
        alone = init_trajectories(grid, g4, 40, 40, psi0)
        alone.run(p, 0.01, steps)
        for k in state:
            assert np.array_equal(getattr(traj, k), getattr(alone, k)), k


def test_run_matches_closed_strang_steps(setup):
    # the reference steps closed: half phase at v(t), kinetic sweep, half
    # phase at v(t + dt); run merges each step's closing half phase with the
    # next one's opening half, also across a second run at another dt.  A
    # strong inter-state contrast makes the relative mean phases (up to
    # 7e-4 rad) large enough for 1e-12 to sit above the roundoff of the two
    # step orders
    grid, _, pots, psi0 = setup
    g4 = PhysicalParams(a_01=20.0).g4()

    def p(t):
        return pots * (1.0 + 0.3 * np.sin(3.0 * t))

    legs = ((0.01, 30), (0.015, 20))
    traj = init_trajectories(grid, g4, 400, 400, psi0)
    for dt, steps in legs:
        traj.run(p, dt, steps)

    w, ns = grid.weights, traj.ns
    psi = np.broadcast_to(psi0, traj.psi.shape).astype(complex)

    def rate(psi):
        dens = np.abs(psi[0]) ** 2
        pair = np.sum(w * dens[:, None] * dens[None, :], axis=(-2, -1))
        return -0.5 * np.sum((g4 - np.diag(np.diag(g4))) * pair, axis=0)

    theta, rate_prev = np.zeros(4), rate(psi)
    mean_phase, raw_prev, t = np.zeros((5, 4)), np.zeros((4, 4)), 0.0
    for dt, steps in legs:
        ev = SplitStepEvolver(grid, g4, dt)

        def half(f, v):
            return f * np.exp(-0.5j * dt * (v + _mean_field(g4, f, ns)))

        for _ in range(steps):
            psi = half(ev._kinetic(half(psi, p(t))), p(t + dt))
            t += dt
            r = rate(psi)
            theta += 0.5 * dt * (rate_prev + r)
            rate_prev = r
            # the unwrap reads the state opened at the step's end time
            opened = half(psi, p(t))
            raw = np.angle(np.sum(w * np.conj(opened[0]) * opened[1:],
                                  axis=(-2, -1)))
            mean_phase[1:] += _wrap(raw - raw_prev)
            raw_prev = raw

    for got, want in ((traj.psi, psi), (traj.theta_coeff, theta),
                      (traj._mean_phase, mean_phase)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert traj.t == pytest.approx(t, abs=1e-12) and traj.steps == 50


def test_wrap_keeps_small_increments_exact():
    # the mean-phase unwrap sums _wrap(raw - raw_prev) over the steps: an
    # increment far below pi must come through bit for bit, so that a run of
    # them sums exactly
    inc = np.full(1000, 1e-6)
    assert np.sum(_wrap(inc)) == np.sum(inc)
    assert np.array_equal(_wrap(-inc), -inc)
    # a jump across the branch cut loses its whole turn
    assert _wrap(1e-6 - 2.0 * np.pi) == pytest.approx(1e-6, abs=1e-15)
