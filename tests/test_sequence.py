import json
import math

import numpy as np
import pytest

import becsteer.meanfield
from becsteer.grid import norm
from becsteer.meanfield import PhysicalParams, gpe_residual, ground_state
from becsteer.sequence import (PointResult, ProtocolConfig,
                               component_potentials, displacement_schedule,
                               hold_forks, prepare_initial, ramp_displacement,
                               run_protocol, well_separation)


def tiny_cfg(**kw):
    """Cheap protocol configuration for fast tests."""
    base = dict(n_a=20, n_b=20, dz_max=3.0, t_ramp=1.5, t_int=(0.0,),
                n_r=8, dr=0.45, dz=0.45, z_margin=2.5, dt=0.05)
    base.update(kw)
    return ProtocolConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(n_a=0)
    with pytest.raises(ValueError):
        tiny_cfg(dz_max=-1.0)
    with pytest.raises(ValueError):
        tiny_cfg(t_ramp=0.0)
    with pytest.raises(ValueError):
        tiny_cfg(t_int=(0.0, -0.1))
    with pytest.raises(ValueError):
        tiny_cfg(move_mode="slide")


def test_ramp_endpoints_and_midpoint():
    tr, dz = 7.0, 4.0
    assert ramp_displacement(0.0, tr, dz) == 0.0
    assert ramp_displacement(tr, tr, dz) == pytest.approx(dz, abs=1e-15)
    # tanh profile is antisymmetric about the midpoint
    assert ramp_displacement(tr / 2, tr, dz) == pytest.approx(dz / 2, rel=1e-14)
    # clamped outside the ramp
    assert ramp_displacement(-1.0, tr, dz) == 0.0
    assert ramp_displacement(tr + 5.0, tr, dz) == pytest.approx(dz, abs=1e-15)


def test_schedule_hold_and_mirror_symmetry():
    tr, ti, dz = 3.0, 2.0, 5.0
    assert displacement_schedule(tr + 0.5 * ti, tr, ti, dz) == pytest.approx(dz)
    for t in (0.3, 1.1, 2.9, 4.0, 6.5):
        fwd = displacement_schedule(t, tr, ti, dz)
        bwd = displacement_schedule(2 * tr + ti - t, tr, ti, dz)
        assert fwd == pytest.approx(bwd, abs=1e-14)
    assert displacement_schedule(2 * tr + ti, tr, ti, dz) == 0.0
    # a time that accumulated past the end of the hold by roundoff still
    # holds; one step of 0.05 later the backward ramp has begun
    t_end = (tr + ti) * (1 + 1e-12)
    assert displacement_schedule(t_end, tr, ti, dz) == dz
    assert displacement_schedule(t_end + 0.05, tr, ti, dz) < dz


def trap_center(grid, v):
    """z position of the potential minimum on the axis row."""
    return grid.z[np.argmin(v[0])]


def test_potential_centers_during_protocol():
    cfg = tiny_cfg()
    grid = cfg.build_grid()
    za, zb = -cfg.dz_max / 2, cfg.dz_max / 2
    v0 = component_potentials(grid, cfg, 0.0, 1.0)
    # all four components start at their home wells
    for a, zc in zip(range(4), (za, za, zb, zb)):
        assert trap_center(grid, v0[a]) == pytest.approx(zc, abs=cfg.dz)
    v1 = component_potentials(grid, cfg, cfg.t_ramp, 1.0)
    # after the ramp a0 sits on top of b1; a1 and b1 never moved
    assert trap_center(grid, v1[0]) == pytest.approx(zb, abs=cfg.dz)
    assert trap_center(grid, v1[1]) == pytest.approx(za, abs=cfg.dz)
    assert trap_center(grid, v1[3]) == pytest.approx(zb, abs=cfg.dz)
    # mirror mode moves b0 out of the way by the same distance
    assert trap_center(grid, v1[2]) == pytest.approx(zb + cfg.dz_max, abs=cfg.dz)
    # single mode keeps b0 at home
    cfg_s = tiny_cfg(move_mode="single")
    v1s = component_potentials(grid, cfg_s, cfg_s.t_ramp, 1.0)
    assert trap_center(grid, v1s[2]) == pytest.approx(zb, abs=cfg.dz)
    # full protocol returns everything home
    v2 = component_potentials(grid, cfg, 2 * cfg.t_ramp + 1.0, 1.0)
    assert np.abs(v2 - v0).max() < 1e-12


def test_pulse_amplitudes():
    cfg = tiny_cfg(pulse_phase_a=0.4, pulse_phase_b=-0.2)
    C = cfg.pulse_amplitudes()
    assert np.allclose(np.abs(C), 1 / math.sqrt(2))
    assert np.angle(C[1]) == pytest.approx(0.4)
    assert np.angle(C[3]) == pytest.approx(-0.2)


@pytest.fixture(scope="module")
def prep():
    cfg = tiny_cfg()
    return cfg, prepare_initial(cfg, PhysicalParams(), tol=1e-7)


def test_prepare_initial_copies_orbitals(prep):
    cfg, (grid, g4, psi0) = prep
    assert np.array_equal(psi0[1], psi0[0])
    assert np.array_equal(psi0[3], psi0[2])
    nrm = np.real(np.sum(grid.weights * np.abs(psi0) ** 2, axis=(-2, -1)))
    assert np.allclose(nrm, 1.0, atol=1e-10)
    # the prepared wells are spatially separated
    assert well_separation(grid, psi0) < 0.2


def test_prepulse_solves_only_the_occupied_components(monkeypatch):
    seen = set()
    original = becsteer.meanfield._gpe_residual

    def recording(grid, psi, *args):
        seen.add((psi.shape[0], psi.dtype.name))
        return original(grid, psi, *args)

    monkeypatch.setattr(becsteer.meanfield, "_gpe_residual", recording)
    prepare_initial(tiny_cfg(), PhysicalParams(), tol=1e-7)
    # a0 and b0 only, in real arithmetic
    assert seen == {(2, "float64")}


def test_prepulse_matches_the_four_component_solve():
    # the four-component solve also moves the empty a1 and b1, so its
    # iterates differ from the two-component solve's
    tol = 1e-7
    cfg = tiny_cfg(n_a=1000, n_b=1000)
    grid, g4, psi0 = prepare_initial(cfg, PhysicalParams(), tol=tol)
    pots = component_potentials(grid, cfg, 0.0, 0.0)
    occ = [0, 2]
    res = gpe_residual(grid, psi0[occ], [cfg.n_a, cfg.n_b], pots[occ],
                       g4[np.ix_(occ, occ)])
    assert res.max() < tol
    four = ground_state(grid, [cfg.n_a, 0, cfg.n_b, 0], pots, g4, tol=tol)
    assert gpe_residual(grid, four, [cfg.n_a, 0, cfg.n_b, 0], pots,
                        g4)[occ].max() < tol
    # a residual below tol puts a state within tol / (E1 - mu) of the exact
    # one, and E1 - mu of a0's and b0's effective Hamiltonians is 0.68 here
    # (dense eigvalsh on this 8 x 25 grid): the two within 2 tol / 0.68
    assert norm(grid, psi0[occ] - four[occ]).max() < 3 * tol


@pytest.mark.parametrize("ns, at_end", [([1000, 0, 1000, 0], False),
                                        ([1000, 0, 1000, 0], True),
                                        ([500, 0, 300, 10], False)],
                         ids=["empty-start", "empty-end-of-ramp", "unequal"])
def test_empty_components_converge(ns, at_end):
    # an empty component carries no energy; the solver weighs it as one
    # atom, and with weight N_a the last two of these solves do not converge
    cfg = tiny_cfg()
    grid = cfg.build_grid()
    g4 = PhysicalParams().g4()
    pots = component_potentials(grid, cfg, cfg.t_ramp if at_end else 0.0, 0.0)
    tol = 1e-10
    psi = ground_state(grid, ns, pots, g4, tol=tol)
    assert gpe_residual(grid, psi, ns, pots, g4).max() < tol


def test_one_hold_time_end_to_end():
    # a gentle ramp keeps the clouds coherent so the witness stays near one
    cfg = tiny_cfg(t_ramp=5.0, t_int=(0.5,), dt=0.04)
    pr = prepare_initial(cfg, PhysicalParams(), tol=1e-7)
    (point,) = run_protocol(cfg, pr)
    assert point.error is None
    r = point.result
    assert 0.0 < r.e_epr < 3.0
    assert r.spin_len_a <= cfg.n_a / 2 + 1e-9
    assert r.spin_len_b <= cfg.n_b / 2 + 1e-9
    assert 0.0 <= r.overlap_a <= 1.0 + 1e-12
    assert point.t_total == pytest.approx(2 * cfg.t_ramp + 0.5)
    # wells are separated again at measurement time
    assert point.separation_end < 0.3


def test_run_protocol_isolates_failed_points(prep, monkeypatch, tmp_path):
    # t_int 0, 0.25, 0.5 share one prefix that runs the 0.5 schedule; each
    # fork runs its own.  A fault in the 0.25 fork fails that point only; a
    # fault in the shared hold between the first two forks fails both later
    # forks with its error.  `becsteer run` exits 2 either way, and the
    # prefix record counts the steps the prefix took.
    cfg, pr = prep
    import becsteer.sequence as seq
    from becsteer.cli import main
    real = seq.component_potentials
    faults = {
        "fork": lambda t, t_int: t_int == 0.25,
        "hold": lambda t, t_int: (t_int == 0.5
                                  and cfg.t_ramp + 0.1 < t < cfg.t_ramp + 0.2),
    }
    text = ("n_a = 20\nn_b = 20\ndz_max = 3 a0\nt_ramp = 1.5 /omega\n"
            "t_int = 0, 0.25, 0.5 /omega\nn_r = 8\ndr = 0.45 a0\n"
            "dz = 0.45 a0\nz_margin = 2.5 a0\ndt = 0.05 /omega\n")
    (tmp_path / "tiny.cfg").write_text(text)
    for where, failed, steps in (("fork", [False, True, False], 40),
                                 ("hold", [False, True, True], 31)):
        def flaky(grid, c, t, t_int, fault=faults[where]):
            if fault(t, t_int):
                raise RuntimeError(f"boom in {where}")
            return real(grid, c, t, t_int)

        monkeypatch.setattr(seq, "component_potentials", flaky)
        cfg3 = tiny_cfg(t_int=(0.0, 0.25, 0.5))
        points = seq.run_protocol(cfg3, pr)
        assert all(isinstance(p, PointResult) for p in points)
        assert [p.error is not None for p in points] == failed
        assert all(f"boom in {where}" in p.error
                   for p, bad in zip(points, failed) if bad)
        out = tmp_path / where
        assert main(["run", "--config", str(tmp_path / "tiny.cfg"),
                     "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert [p["status"] == "failed" for p in man["points"]] == failed
        assert [rec["steps"] for rec in man["prefixes"]] == [steps]


def test_finish_closes_the_state_once(prep, monkeypatch, tmp_path):
    # the correlator inputs, the separation and the snapshot share one read
    # of the closed state: one closing half phase per point
    from becsteer.meanfield import SplitStepEvolver
    cfg, pr = prep
    ((_, fork),) = hold_forks(cfg, pr)
    closes = []
    real = SplitStepEvolver.phase

    def counted(self, psi, ns, v, frac):
        closes.append(frac == -0.5)
        return real(self, psi, ns, v, frac)
    monkeypatch.setattr(SplitStepEvolver, "phase", counted)
    point = fork.finish(str(tmp_path / "snap.txt"))
    assert point.error is None and point.steps > 0
    assert sum(closes) == 1


def test_snapshot_written(prep, tmp_path):
    cfg, pr = prep
    path = tmp_path / "snap.txt"
    ((_, fork),) = hold_forks(cfg, pr)
    fork.finish(str(path))
    assert path.exists()
    from becsteer.meanfield import load_snapshot
    grid2, psi2, ns2, t2 = load_snapshot(str(path))
    assert psi2.shape == (4,) + grid2.shape
    assert t2 == pytest.approx(2 * cfg.t_ramp)


def test_scan_without_dt_steps_at_the_stability_rule(prep, monkeypatch):
    # with dt unset both hold times share one prefix whose step divides the
    # longest run into the fewest whole steps no longer than stable_dt
    from becsteer.fockflow import init_trajectories
    from becsteer.meanfield import SplitStepEvolver, stable_dt
    _, pr = prep
    grid, g4, psi0 = pr
    cfg = tiny_cfg(t_int=(0.0, 0.5), dt=None)
    ns = init_trajectories(grid, g4, cfg.n_a, cfg.n_b, psi0).ns
    dt_max = stable_dt(grid, g4, component_potentials(grid, cfg, 0.0, 0.0),
                       psi0, ns.max(axis=0))
    total = 2 * cfg.t_ramp + 0.5
    calls = []
    real = SplitStepEvolver.step

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)
    monkeypatch.setattr(SplitStepEvolver, "step", counted)
    prefixes = []
    points = [fork.finish() for _, fork in hold_forks(cfg, pr, prefixes)]
    assert [p.error for p in points] == [None, None]
    (rec,) = prefixes
    assert rec["dt"] == total / math.ceil(total / dt_max)
    assert all(p.dt == rec["dt"] for p in points)
    assert rec["steps"] == round((cfg.t_ramp + 0.5) / rec["dt"])
    assert rec["steps"] + sum(p.steps for p in points) == len(calls)
