"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The two full-scale witness scans (criteria 4 and 5) are expensive (about
8 and 2.5 min as `becsteer run --workers 2` on 2 CPUs). Their tests reuse a
cached CSV under artifacts/ if one exists, and fail if its manifest echoes
another config than today's parse of the config file; deleting the
directory forces a clean regeneration with the same command the test would
run.
"""

import json
import math
import os
import shutil

import numpy as np
import pytest

from becsteer.cli import main as cli_main
from becsteer.config import load_config
from becsteer.correlators import (MultiIndex, brute_force_average, epr_witness,
                                  fock_sum_average, spin_moments)
from becsteer.fockflow import central_fock, init_trajectories
from becsteer.grid import build_grid
from becsteer.meanfield import (PhysicalParams, energy_fields, ground_state)
from becsteer.oracle4mode import (evolve_exact, oracle_moments,
                                  oracle_witness, pulse_state)
from becsteer.losses import loss_estimate
from becsteer.sequence import (ProtocolConfig, component_potentials,
                               prepare_initial, run_protocol)

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = os.path.join(HERE, "artifacts")
C_HALF = np.ones(4) / math.sqrt(2.0)


def report(num, name, ok, detail):
    line = f"CRITERION {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print("\n" + line)
    from conftest import record_criterion
    record_criterion(line)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. brute-force correlator equivalence
# ---------------------------------------------------------------------------

def _synthetic_inputs(n_a, n_b, seed):
    from becsteer.correlators import CorrelatorInputs
    rng = np.random.default_rng(seed)
    grid = build_grid(8, 12, 0.5, 0.5, -3.0)
    M = grid.n_r * grid.n_z
    w = grid.weights.reshape(M)
    phibar = np.empty((4, M), complex)
    for a in range(4):
        f = np.exp(-0.5 * ((grid.r[:, None] / (1.0 + 0.1 * a)) ** 2
                           + (grid.z[None, :] - 0.2 * a) ** 2))
        f = (f * np.exp(1j * 0.1 * a * grid.z[None, :])).reshape(M)
        phibar[a] = f / math.sqrt(np.sum(w * np.abs(f) ** 2))
    grad = np.empty((4, 2, M))
    for a in range(4):
        for d in range(2):
            c1, c2 = rng.normal(scale=0.04, size=2)
            g = c1 * np.sin(0.7 * grid.z[None, :] + 0.3 * d) \
                + c2 * np.cos(0.4 * grid.r[:, None])
            grad[a, d] = g.reshape(M)
    return CorrelatorInputs(weights=w, phibar=phibar, grad=grad,
                            theta_u=np.array([0.11, -0.06]),
                            nbar=central_fock(n_a, n_b), C=C_HALF.copy())


def test_criterion_1_brute_force_equivalence():
    worst = 0.0
    for n in (4, 6, 8):
        for seed in (0, 1):
            inp = _synthetic_inputs(n, n, seed)
            m_fast = spin_moments(inp)
            m_ref = spin_moments(inp, evaluator=brute_force_average)
            worst = max(worst,
                        np.abs(m_fast.mean - m_ref.mean).max() / n,
                        np.abs(m_fast.second - m_ref.second).max() / n ** 2)
            # a couple of raw operator products on top of the moment set
            for idx in (MultiIndex((1, 0, 0, 0), (0, 1, 0, 0)),
                        MultiIndex((1, 0, 0, 0), (0, 1, 0, 0),
                                   (0, 0, 0, 1), (0, 0, 1, 0))):
                f = fock_sum_average(inp, idx)
                b = brute_force_average(inp, idx)
                worst = max(worst, abs(f - b) / max(abs(b), 1.0))
    report(1, "brute-force correlator equivalence", worst < 1e-10,
           f"worst relative deviation {worst:.2e} (tolerance 1e-10)")


# ---------------------------------------------------------------------------
# 2. coherent-state baseline at t = 0
# ---------------------------------------------------------------------------

def test_criterion_2_coherent_baseline():
    par = PhysicalParams()
    cfg = ProtocolConfig(n_a=40, n_b=30, dz_max=4.0, t_ramp=5.0,
                         n_r=10, dr=0.4, dz=0.4, z_margin=3.0)
    grid, g4, psi0 = prepare_initial(cfg, par, tol=1e-8)
    traj = init_trajectories(grid, g4, cfg.n_a, cfg.n_b, psi0)
    m = spin_moments(traj.correlator_inputs(C_HALF))
    r = epr_witness(m)
    cov = m.cov
    errs = {
        "Sx_a": abs(m.mean[0] - cfg.n_a / 2),
        "Sx_b": abs(m.mean[3] - cfg.n_b / 2),
        "varSz_a": abs(cov[2, 2] - cfg.n_a / 4),
        "varSz_b": abs(cov[5, 5] - cfg.n_b / 4),
        "cross_cov": np.abs(cov[:3, 3:]).max(),
        "E_EPR": abs(r.e_epr - 1.0),
    }
    worst = max(errs.values())
    report(2, "coherent-state baseline", worst < 1e-8,
           "worst deviation "
           + ", ".join(f"{k}={v:.1e}" for k, v in errs.items())
           + " (tolerance 1e-8)")


# ---------------------------------------------------------------------------
# 3. oracle convergence of the frozen-mode pipeline
# ---------------------------------------------------------------------------

def _frozen_mode_errors(n_per_well, t_int):
    """Gentle full protocol vs the four-mode model with integrated rates.

    The transport is made slow enough that the spatial modes track their
    instantaneous ground state; the remaining discrepancy is the
    modulus-phase method's intrinsic error, which shrinks with N.
    """
    from becsteer.oracle4mode import adiabatic_rates, twisting_phases
    par = PhysicalParams()
    cfg = ProtocolConfig(n_a=n_per_well, n_b=n_per_well,
                         dz_max=3.0, t_ramp=30.0, t_int=(t_int,),
                         n_r=14, dr=0.3, dz=0.3, z_margin=4.0, dt=0.01)
    prep = prepare_initial(cfg, par, tol=1e-8)
    (point,) = run_protocol(cfg, prep)
    m = point.moments
    r = point.result

    phis = twisting_phases(*adiabatic_rates(cfg, params=par), t_int)
    st = evolve_exact(pulse_state(n_per_well, n_per_well, C_HALF), *phis)
    mo = oracle_moments(st)
    ro = oracle_witness(st)
    len_sim = math.hypot(m.mean[0], m.mean[1])
    len_orc = math.hypot(mo.mean[0], mo.mean[1])
    err_len = abs(len_sim - len_orc) / len_orc
    err_e = abs(r.e_epr - ro.e_epr) / ro.e_epr
    return err_len, err_e, ro.e_epr


def test_criterion_3_oracle_convergence():
    err_len_20, err_e_20, e20 = _frozen_mode_errors(20, 10.0)
    err_len_100, err_e_100, e100 = _frozen_mode_errors(100, 10.0)
    ok = (err_len_20 < 0.10 and err_e_20 < 0.10
          and err_len_100 < 0.02 and err_e_100 < 0.02)
    report(3, "oracle convergence", ok,
           f"N=20 (E_ref={e20:.3f}): spin-length err {err_len_20:.2%}, "
           f"E err {err_e_20:.2%} (tol 10%); "
           f"N=100 (E_ref={e100:.3f}): spin-length err {err_len_100:.2%}, "
           f"E err {err_e_100:.2%} (tol 2%)")


# ---------------------------------------------------------------------------
# 4 and 5. full-scale witness scans
# ---------------------------------------------------------------------------

def _scan_rows(config_name, tag):
    """Load the cached scan CSV, producing it with the CLI if absent; a
    cache made from another config than today's fails."""
    cfg_path = os.path.join(HERE, "configs", config_name)
    out_dir = os.path.join(ARTIFACTS, tag)
    csv_path = os.path.join(out_dir, "results.csv")
    if not os.path.exists(csv_path):
        code = cli_main(["run", "--config", cfg_path, "--out", out_dir])
        assert code == 0, f"scan of {config_name} failed with exit {code}"
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        echo = json.load(fh)["config_echo"]
    assert echo == load_config(cfg_path).echo(), (
        f"{out_dir} echoes another config than configs/{config_name} parses "
        f"to today; regenerate it: becsteer run --config "
        f"configs/{config_name} --out artifacts/{tag} --workers 2")
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, map(float, line.split(","))))
                for line in fh if line.strip()]
    return rows


def test_stale_scan_cache_fails(tmp_path, monkeypatch):
    # a cached scan whose manifest echoes a config the parser no longer
    # gives is refused, not read
    _scan_rows("fig3.cfg", "fig3")
    shutil.copytree(os.path.join(ARTIFACTS, "fig3"), tmp_path / "fig3")
    monkeypatch.setitem(globals(), "ARTIFACTS", str(tmp_path))
    path = tmp_path / "fig3" / "manifest.json"
    doc = json.loads(path.read_text())
    doc["config_echo"] += "sample_stride = 0\n"
    path.write_text(json.dumps(doc))
    with pytest.raises(AssertionError, match="regenerate it"):
        _scan_rows("fig3.cfg", "fig3")


def _refined_extrema_spacing(ts, ys, kind):
    """Mean spacing of interior extrema, parabola-refined on the 3-point
    neighborhoods of the sampled scan."""
    sign = 1.0 if kind == "max" else -1.0
    locs = []
    for i in range(1, len(ys) - 1):
        if sign * ys[i] >= sign * ys[i - 1] and sign * ys[i] > sign * ys[i + 1]:
            denom = ys[i - 1] - 2 * ys[i] + ys[i + 1]
            off = 0.0 if denom == 0 else 0.5 * (ys[i - 1] - ys[i + 1]) / denom
            off = min(max(off, -0.5), 0.5)
            locs.append(ts[i] + off * (ts[i + 1] - ts[i]))
    if len(locs) < 2:
        return None, locs
    return float(np.mean(np.diff(locs))), locs


def test_criterion_4_fig2a_scan():
    rows = _scan_rows("fig2a.cfg", "fig2a")
    assert len(rows) >= 10, "fig2a scan incomplete"
    ts = [r["t_total_s"] for r in rows]
    es = [r["E_EPR"] for r in rows]
    sl = [r["spin_len_a"] for r in rows]
    e_min = min(es)
    period = 2 * math.pi / (2 * math.pi * 20)        # trap period, 50 ms
    spacing_e, peaks = _refined_extrema_spacing(ts, es, "max")
    spacing_s, dips = _refined_extrema_spacing(ts, sl, "min")
    ok_min = abs(e_min - 0.85) <= 0.08
    ok_e = spacing_e is not None and abs(spacing_e - period) <= 0.1 * period
    ok_s = spacing_s is not None and abs(spacing_s - period) <= 0.1 * period
    report(4, "fig2a-scale scan", ok_min and ok_e and ok_s,
           f"min E_EPR {e_min:.3f} (target 0.85±0.08); E-peak spacing "
           f"{spacing_e if spacing_e else float('nan'):.4f} s and spin-dip "
           f"spacing {spacing_s if spacing_s else float('nan'):.4f} s "
           f"(target {period:.3f} s ±10%)")


def test_criterion_5_fig3_spot_check():
    rows = _scan_rows("fig3.cfg", "fig3")
    assert len(rows) >= 4, "fig3 scan incomplete"
    best = min(rows, key=lambda r: r["E_EPR"])
    ok_val = abs(best["E_EPR"] - 0.54) <= 0.08
    ok_t = abs(best["t_total_s"] - 0.17) <= 0.03
    report(5, "fig3 spot check", ok_val and ok_t,
           f"min E_EPR {best['E_EPR']:.3f} at t = {best['t_total_s']:.3f} s "
           f"(target 0.54±0.08 at 0.17±0.03 s)")


# ---------------------------------------------------------------------------
# 6. loss estimate
# ---------------------------------------------------------------------------

def test_criterion_6_loss_estimate():
    par = PhysicalParams(tau_1=60.0)
    cfg = ProtocolConfig(n_a=500, n_b=500, dz_max=6.0, t_ramp=10.0,
                         n_r=24, dr=0.2, dz=0.2, z_margin=4.5)
    grid = cfg.build_grid()
    pots = component_potentials(grid, cfg, cfg.t_ramp, 0.0)
    ns = np.array([250.0, 250.0, 250.0, 250.0])
    psi = ground_state(grid, ns, pots, par.g4(), tol=1e-7)
    b = loss_estimate(grid, psi, ns, par, t_hold=0.2)
    ok_2b = 3.5 <= b.n_lost_2b <= 14.0
    ok_frac = 0.5e-2 <= b.lost_fraction <= 2e-2
    report(6, "loss estimate", ok_2b and ok_frac,
           f"two-body loss {b.n_lost_2b:.2f} atoms (band [3.5, 14]); "
           f"lost fraction {b.lost_fraction:.3g} (band [0.5, 2]e-2)")


# ---------------------------------------------------------------------------
# 7. conservation suite
# ---------------------------------------------------------------------------

def test_criterion_7_conservation():
    par = PhysicalParams()
    g4 = par.g4()
    grid = build_grid(14, 40, 0.3, 0.3, -6.0)
    pots = 0.5 * (grid.r[:, None] ** 2 + (grid.z[None, :] - 0.5) ** 2) \
        * np.ones((4, 1, 1))
    # ground state of the *centered* trap, evolved in the shifted trap:
    # a genuinely dynamic state for the conservation checks
    pots0 = 0.5 * (grid.r[:, None] ** 2 + grid.z[None, :] ** 2) \
        * np.ones((4, 1, 1))
    psi0 = ground_state(grid, np.array([20., 20., 20., 20.]), pots0, g4)
    traj = init_trajectories(grid, g4, 40, 40, psi0)
    ns_c = np.array(traj.focks[traj.CENTER].as_array(), float)
    e0 = energy_fields(grid, traj.psi[traj.CENTER], ns_c, pots, g4)
    dt = 0.005
    steps = int(round(25.0 / dt))
    traj.run(lambda t: pots, dt, steps)
    nrm = np.real(np.sum(grid.weights * np.abs(traj.psi) ** 2, axis=(-2, -1)))
    norm_drift = np.abs(nrm - 1.0).max() / steps
    e1 = energy_fields(grid, traj.psi[traj.CENTER], ns_c, pots, g4)
    energy_drift = abs(e1 - e0) / abs(e0)

    ok_theta0 = traj.theta(0, 0) == 0.0
    ok_anti = all(traj.theta(pa, pb) == -traj.theta(-pa, -pb)
                  for pa, pb in ((1, 0), (0, 1), (2, 1), (3, -2)))

    # g = 0 end-to-end runs: E must equal 1 at every measured hold time.
    # (The witness is defined after the ramp-back, when the two internal
    # states of each well overlap again; mid-transport the spatial
    # separation of the 0/1 clouds lowers the contrast by construction.)
    # At g = 0 the state is an exact product so E = 1/contrast; the tanh
    # ramp's endpoint velocity kick lowers the contrast by ~(dz_max/t_ramp)^2,
    # and gentle transport keeps that below tolerance.
    par0 = PhysicalParams(a_00=0.0, a_11=0.0, a_01=0.0)
    cfg0 = ProtocolConfig(n_a=40, n_b=40, dz_max=0.25, t_ramp=40.0,
                          t_int=(0.0, 2.0, 4.0), n_r=10, dr=0.4, dz=0.4,
                          z_margin=3.6, dt=0.02)
    prep0 = prepare_initial(cfg0, par0, tol=1e-9)
    es = [p.result.e_epr for p in run_protocol(cfg0, prep0)]
    g0_err = max(abs(e - 1.0) for e in es)

    ok = (norm_drift < 1e-10 and energy_drift < 1e-6
          and ok_theta0 and ok_anti and g0_err < 1e-6)
    report(7, "conservation suite", ok,
           f"norm drift {norm_drift:.1e}/step (tol 1e-10); energy drift "
           f"{energy_drift:.1e} over wt=25 (tol 1e-6); Theta(0)=0 "
           f"{'exact' if ok_theta0 else 'VIOLATED'}; antisymmetry "
           f"{'exact' if ok_anti else 'VIOLATED'}; g=0 max|E-1| "
           f"{g0_err:.1e} over {len(es)} measurements (tol 1e-6)")


# ---------------------------------------------------------------------------
# 8. determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    # fig2a.cfg with overrides that shrink the problem; the ordering and
    # formatting logic under test is size-independent
    overrides = []
    for kv in ("n_a = 20", "n_b = 20", "dz_max = 3 a0", "t_ramp = 1.5 /omega",
               "t_int = 0, 0.5 /omega", "n_r = 8", "dr = 0.45 a0",
               "dz = 0.45 a0", "z_margin = 2.5 a0", "dt = 0.05 /omega"):
        overrides += ["--set", kv]
    cfgp = os.path.join(HERE, "configs", "fig2a.cfg")
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = cli_main(["run", "--config", cfgp, "--out", str(out),
                         "--workers", str(workers)] + overrides)
        assert code == 0
        outs.append((out / "results.csv").read_bytes())
    identical = outs[0] == outs[1]
    report(8, "determinism", identical,
           f"results.csv byte-identical across 1 vs 2 workers: {identical} "
           f"({len(outs[0])} bytes)")
