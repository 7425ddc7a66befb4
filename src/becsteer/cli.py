"""Batch front end: config ingestion, scans, oracle curves, losses.

Subcommands::

    becsteer run    --config fig2a.cfg --out results/ [--workers N] [--snapshot]
    becsteer oracle --config fig2a.cfg --out results/
    becsteer losses --config fig3.cfg  --out results/
    becsteer check

`oracle` accepts `--workers` too, and runs in one process whatever its value.
Pin BLAS to one thread per process (`OPENBLAS_NUM_THREADS=1`) when running
with `--workers`: at BLAS's default thread count each worker starts its own
BLAS threads, and on two CPUs a fig2a scan with `--workers 2` took 1433 s
instead of 250 s.
`run` scans the grid sweep_n x sweep_dz_max x sweep_t_ramp if the config sets
a sweep key (an unset axis keeps its value), else the config's own point.
Each grid point gets one ground state, solved to `gs_tol` before any point
runs; every (grid point, hold time) pair is then one point, and `--snapshot`
writes snapshot_point{i}.npz over all points in row order: one `np.savez`
of the closed central state `psi`, `r`, `z`, `weights`, `fock` and `t`.
With `with_oracle` each grid point's chi rates are computed here too, once for
all its hold times: the twisting phases are affine in the hold time.  The
chi ground states are solved to `gs_tol` as well, here and in `oracle`.
`oracle` and `losses` read the config's own values and refuse a sweep key.

Results are written as a CSV (12 significant digits, fixed column order, so
identical configs give byte-identical files regardless of worker count) plus
a JSON manifest echoing the resolved config, versions, per-point notes and
timings (`prepare` sums the ground-state solves, `oracle` the chi rates).
Exit codes: 0 success, 2 at least one scan point failed, 1 fatal error.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, oracle4mode
from .config import (ConfigError, RunConfig, load_config, CONFIG_VERSION,
                     SWEEP_AXES)
from .losses import loss_estimate
from .meanfield import ground_state
from .sequence import (HoldFork, component_potentials, failed_point,
                       hold_forks, prepare_initial)

CSV_COLUMNS = ("t_total_s", "t_int_s", "E_EPR", "alpha_opt", "beta_opt",
               "spin_len_a", "spin_len_b", "overlap_a", "overlap_b",
               "inferred_var_1", "inferred_var_2", "oracle_E_EPR")
SWEEP_COLUMNS = tuple(k for keys in SWEEP_AXES.values() for k in keys)


def _sig(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{float(x):.12g}"


def _write_table(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_sig(v) for v in row) + "\n")


def _manifest(path, cfg, command, timings, points, **extra):
    doc = {
        "tool": "becsteer",
        "version": __version__,
        "config_version": CONFIG_VERSION,
        "command": command,
        "config_echo": cfg.echo(),
        "timings_s": timings,
        "points": points,
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _point_job(payload):
    """One fork's backward ramp and measurement (and its oracle witness), run
    in a worker process or, with one worker, in this one."""
    fork, rates, snapshot_path = payload
    t0 = time.perf_counter()
    oracle_e = float("nan")
    try:
        point = fork.finish(snapshot_path)
        if rates is not None:
            proto = fork.cfg
            st = oracle4mode.evolve_exact(oracle4mode.pulse_state(
                proto.n_a, proto.n_b, proto.pulse_amplitudes()),
                *oracle4mode.twisting_phases(*rates, fork.t_int))
            oracle_e = oracle4mode.oracle_witness(st).e_epr
    except Exception as exc:  # noqa: BLE001 - per-point fault isolation
        point = failed_point(fork.cfg, fork.t_int, exc)
    return point, oracle_e, time.perf_counter() - t0


def _grid_points(cfg):
    """(tag columns, [(tag, values)]): the config's untagged point, or the
    product of its sweep axes if it sets any; an unset axis keeps its value."""
    v = cfg.values
    if not any(v[k] for k in SWEEP_AXES):
        return (), [((), v)]
    axes = [[dict.fromkeys(keys, x) for x in v[name]] if v[name]
            else [{k: v[k] for k in keys}] for name, keys in SWEEP_AXES.items()]
    points = []
    for combo in itertools.product(*axes):
        values = dict(v)
        for part in combo:
            values.update(part)
        points.append((tuple(values[k] for k in SWEEP_COLUMNS), values))
    return SWEEP_COLUMNS, points


def _cmd_scan(cfg, args, out_dir):
    """`run`, over the config's sweep grid or its own point: each grid
    point's ground state (and chi rates) is prepared here first.  Then each
    grid point's hold times run on shared prefixes here, and each fork's rest
    is one job, sent to the pool as soon as the fork is taken."""
    t0 = time.perf_counter()
    tag_columns, points = _grid_points(cfg)
    prepared, t_prep, t_oracle = [], 0.0, 0.0
    for tag, values in points:
        point_cfg = RunConfig(values)
        proto = point_cfg.protocol()
        # a fault of the ground state or of the chi rates fails this grid
        # point's rows only (Exception: a BaseException still ends the run)
        prep = rates = error = None
        t1 = time.perf_counter()
        try:
            prep = prepare_initial(proto, point_cfg.params,
                                   tol=values["gs_tol"])
        except Exception as exc:  # noqa: BLE001 - fails its points
            error = exc
        t_prep += time.perf_counter() - t1
        if values["with_oracle"] and error is None:
            t1 = time.perf_counter()
            try:
                rates = oracle4mode.adiabatic_rates(
                    proto, point_cfg.params, values["oracle_samples"],
                    tol=values["gs_tol"])
            except Exception as exc:  # noqa: BLE001 - fails its points
                error = exc
            t_oracle += time.perf_counter() - t1
        prepared.append((tag, proto, prep, rates, error))

    jobs, prefixes = [], []
    if args.workers > 1:
        # imported here: one process needs no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool_context = ProcessPoolExecutor(max_workers=args.workers)
    else:
        pool_context = contextlib.nullcontext()
    with pool_context as pool:
        for tag, proto, prep, rates, error in prepared:
            grid_prefixes = []
            if error is not None:
                forks = [(k, HoldFork(proto, t, error=error))
                         for k, t in enumerate(proto.t_int)]
            else:
                forks = hold_forks(proto, prep, prefixes=grid_prefixes)
            row_jobs = [None] * len(proto.t_int)
            for k, fork in forks:
                name = f"snapshot_point{len(jobs) + k}.npz"
                snap = os.path.join(out_dir, name) if args.snapshot else None
                payload = (fork, rates, snap)
                row_jobs[k] = (pool.submit(_point_job, payload) if pool
                               else _point_job(payload))
            jobs += [(tag, job) for job in row_jobs]
            prefixes += [{**dict(zip(tag_columns, tag)), **rec}
                         for rec in grid_prefixes]
        jobs_out = [(tag, job.result() if pool else job) for tag, job in jobs]

    rows, notes, nfail = [], [], 0
    omega = cfg.params.omega
    for tag, (point, oracle_e, dt_s) in jobs_out:
        note = {**dict(zip(tag_columns, tag)), "t_int": point.t_int}
        if point.error is not None:
            nfail += 1
            notes.append({**note, "status": "failed", "error": point.error,
                          "seconds": dt_s})
            continue
        r = point.result
        rows.append(tag + (point.t_total / omega, point.t_int / omega,
                           r.e_epr, r.alpha, r.beta, r.spin_len_a,
                           r.spin_len_b, r.overlap_a, r.overlap_b,
                           r.inferred_var_1, r.inferred_var_2, oracle_e))
        notes.append({**note, "status": "ok", "dt": point.dt,
                      "steps": point.steps,
                      "norm_drift": point.norm_drift,
                      "unwrap_step": point.unwrap_step,
                      "reach_max": point.reach_max,
                      "reach_rms": point.reach_rms,
                      "separation_end": point.separation_end,
                      "ramp_s": point.ramp_s,
                      "moments_s": point.moments_s,
                      "witness_s": point.witness_s,
                      "seconds": dt_s})
    _write_table(os.path.join(out_dir, "results.csv"),
                 tag_columns + CSV_COLUMNS, rows)
    timings = {"prepare": t_prep, "total": time.perf_counter() - t0}
    if cfg.values["with_oracle"]:
        timings["oracle"] = t_oracle
    _manifest(os.path.join(out_dir, "manifest.json"), cfg, args.command,
              timings, notes, prefixes=prefixes)
    return 2 if nfail else 0


def _cmd_oracle(cfg, args, out_dir):
    t0 = time.perf_counter()
    proto = cfg.protocol()
    phis_ab = cfg.values["oracle_phi_ab"]
    if phis_ab is not None:
        # direct mode: twisting phases given, no spatial solve
        def axis(key, n):
            v = cfg.values[key]
            if v is None:
                return [0.0] * n
            return v * n if len(v) == 1 else v
        n = len(phis_ab)
        phis = zip(axis("oracle_phi_a", n), axis("oracle_phi_b", n), phis_ab)
        tags, columns = [()] * n, ()
    else:  # spatial mode: one ramp's chi rates serve every hold time
        rates = oracle4mode.adiabatic_rates(proto, cfg.params,
                                            cfg.values["oracle_samples"],
                                            tol=cfg.values["gs_tol"])
        phis = [oracle4mode.twisting_phases(*rates, t) for t in proto.t_int]
        tags = [((2 * proto.t_ramp + t) / cfg.params.omega,
                 t / cfg.params.omega) for t in proto.t_int]
        columns = ("t_total_s", "t_int_s")
    pulse = oracle4mode.pulse_state(proto.n_a, proto.n_b,
                                    proto.pulse_amplitudes())
    rows = []
    for tag, ph in zip(tags, phis):
        r = oracle4mode.oracle_witness(oracle4mode.evolve_exact(pulse, *ph))
        rows.append(tag + tuple(ph) + (r.e_epr, r.alpha, r.beta))
    _write_table(os.path.join(out_dir, "oracle.csv"),
                 columns + ("phi_a", "phi_b", "phi_ab", "oracle_E_EPR",
                            "alpha_opt", "beta_opt"), rows)
    _manifest(os.path.join(out_dir, "manifest.json"), cfg, "oracle",
              {"total": time.perf_counter() - t0}, [])
    return 0


def _cmd_losses(cfg, args, out_dir):
    t0 = time.perf_counter()
    proto = cfg.protocol()
    grid = proto.build_grid()
    pots = component_potentials(grid, proto, proto.t_ramp, 0.0)
    ns = np.array([proto.n_a / 2.0, proto.n_a / 2.0,
                   proto.n_b / 2.0, proto.n_b / 2.0])
    psi = ground_state(grid, ns, pots, cfg.params.g4(),
                       tol=cfg.values["gs_tol"])
    budget = loss_estimate(grid, psi, ns, cfg.params,
                           cfg.values["t_loss"] / cfg.params.omega)
    doc = {
        "t_hold_s": budget.t,
        "rate_1b_atoms_per_s": budget.rate_1b,
        "rate_2b_11_atoms_per_s": budget.rate_2b_11,
        "rate_2b_01_atoms_per_s": budget.rate_2b_01,
        "rate_3b_atoms_per_s": budget.rate_3b,
        "n_lost": budget.n_lost,
        "n_lost_2b": budget.n_lost_2b,
        "lost_fraction": budget.lost_fraction,
    }
    with open(os.path.join(out_dir, "losses.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"losses over {budget.t:g} s: {budget.n_lost:.3g} atoms "
          f"({budget.n_lost_2b:.3g} two-body), "
          f"fraction {budget.lost_fraction:.3g}")
    _manifest(os.path.join(out_dir, "manifest.json"), cfg, "losses",
              {"total": time.perf_counter() - t0}, [])
    return 0


def _require(ok, msg=""):
    """Fail a check: raised, not asserted, so that `python -O`, which strips
    assert statements, runs every check too."""
    if not ok:
        raise AssertionError(msg)


def _cmd_check(args):
    """Fast invariant suite on tiny grids; prints one line per check."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    from .grid import build_grid, inner
    from .meanfield import PhysicalParams, gpe_residual
    from .fockflow import init_trajectories
    from .correlators import (MultiIndex, _tail_split, brute_force_average,
                              epr_witness, fock_sum_average, spin_moments)
    from .oracle4mode import (FourModeState, evolve_exact, oracle_moments,
                              pulse_state)

    par = PhysicalParams()
    g4 = par.g4()
    grid = build_grid(10, 16, 0.45, 0.45, -3.6)

    def _kin_hermitian():
        rng = np.random.default_rng(0)
        f = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        g = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        lhs = inner(grid, f, grid.kinetic(g))
        rhs = inner(grid, grid.kinetic(f), g)
        _require(abs(lhs - rhs) < 1e-10 * abs(lhs))
    check("kinetic operator hermitian under volume weights", _kin_hermitian)

    V = 0.5 * (grid.r[:, None] ** 2 + grid.z[None, :] ** 2) * np.ones((4, 1, 1))
    gs = {}
    two_slot = MultiIndex((1, 0, 0, 0), (0, 1, 0, 0),
                          gamma_p=(0, 0, 0, 1), delta_p=(0, 0, 1, 0))

    def _ground():
        ns = np.array([10., 10., 10., 10.])
        gs["psi"] = ground_state(grid, ns, V, g4)
        _require(gpe_residual(grid, gs["psi"], ns, V, g4).max() < 1e-7)
    check("ground state stationary to 1e-7", _ground)

    def _pipeline():
        traj = init_trajectories(grid, g4, 20, 20, gs["psi"], beta=1)
        C = np.ones(4) / math.sqrt(2)
        traj.run(lambda t: V, 0.01, 40)
        _require(abs(traj.theta(1, 1) + traj.theta(-1, -1)) < 1e-14)
        _require(traj.theta(0, 0) == 0.0)
        inp = gs["inp"] = traj.correlator_inputs(C)
        m = spin_moments(inp)
        r = epr_witness(m)
        _require(0.0 < r.e_epr < 1.5)
        # fast vs brute force on a one-body and a two-slot term
        for t in (MultiIndex((1, 0, 0, 0), (0, 1, 0, 0)), two_slot):
            f = fock_sum_average(inp, t)
            b = brute_force_average(inp, t)
            _require(abs(f - b) < 1e-9 * max(abs(b), 1.0), t)
    check("evolved pipeline: theta antisymmetry, witness, brute force "
          "(one- and two-slot)", _pipeline)

    def _tail():
        # three far cells, their gradients 30 times the evolved ones, put a
        # cell of the a ladder slot's table in its exact tail
        grad = gs["inp"].grad.copy()
        grad[:, :, [5, 80, 150]] *= 30.0
        inp = dataclasses.replace(gs["inp"], grad=grad)
        xt = inp.grad[1] - inp.grad[0]
        ks = [inp._well_ks(well, two_slot.delta_tot)[0] for well in "ab"]
        _require(_tail_split(xt[0], xt[1], *ks).size > 0, "no exact tail")
        f = fock_sum_average(inp, two_slot)
        b = brute_force_average(inp, two_slot)
        _require(abs(f - b) < 1e-9 * max(abs(b), 1.0), f"fast {f}, brute {b}")
    check("slot table with an exact tail: brute force (two-slot)", _tail)

    def _oracle():
        C = np.ones(4) / math.sqrt(2)
        st = evolve_exact(pulse_state(16, 4, C), 0.11, 0.0, 0.0)
        m = oracle_moments(st)
        target = 8.0 * math.cos(0.11) ** 15
        _require(abs(m.mean[0] - target) < 1e-10)
        # unequal wells, random amplitudes and an entangling twist: the
        # memoized per-well sums against dense Kronecker-product spins,
        # a0^dag a1 and (n1 - n0)/2 on |N_s0 = k>, S (x) 1 and 1 (x) S
        rng = np.random.default_rng(7)
        ns, amps = (5, 3), []
        for n in ns:
            a = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            amps.append(a / np.linalg.norm(a))
        twist = rng.normal(scale=0.5, size=3)
        m = oracle_moments(evolve_exact(FourModeState(*amps), *twist))
        z_a, z_b = (np.arange(n + 1) - n / 2.0 for n in ns)
        phi = (twist[0] * z_a[:, None] ** 2 + twist[1] * z_b[None, :] ** 2
               - twist[2] * z_a[:, None] * z_b[None, :])
        psi = np.exp(-1j * phi.ravel()) * np.kron(*amps)
        ops = []
        for n, place in ((ns[0], lambda s: np.kron(s, np.eye(ns[1] + 1))),
                         (ns[1], lambda s: np.kron(np.eye(ns[0] + 1), s))):
            k = np.arange(n + 1)
            raise_k = np.diag(np.sqrt((k[:-1] + 1.0) * (n - k[:-1])), -1)
            ops += [place((raise_k + raise_k.T) / 2),
                    place((raise_k - raise_k.T) / 2j),
                    place(np.diag((n - 2.0 * k) / 2))]
        applied = [o @ psi for o in ops]
        mean = np.array([np.vdot(psi, x).real for x in applied])
        second = np.array([[np.vdot(x, y).real for y in applied]
                           for x in applied])
        _require(np.abs(m.mean - mean).max() < 1e-12, "mean")
        _require(np.abs(m.second - second).max() < 1e-12, "second")
    check("four-mode oracle matches twisting closed form and Kronecker-"
          "product spins", _oracle)

    ok = True
    for name, good, msg in checks:
        print(f"{'PASS' if good else 'FAIL'}: {name}" + (f" ({msg})" if msg else ""))
        ok &= good
    return 0 if ok else 1


def _workers(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None):
    ap = argparse.ArgumentParser(prog="becsteer", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("run", "oracle", "losses"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--set", action="append", default=[],
                       help="override a config key, e.g. --set 'n_a = 50'")
        if name != "losses":  # oracle ignores it: one command line serves both
            p.add_argument("--workers", type=_workers, default=1,
                           help="worker processes for the points; pin BLAS "
                                "to one thread each (OPENBLAS_NUM_THREADS=1)")
        if name == "run":
            p.add_argument("--snapshot", action="store_true")
    sub.add_parser("check")
    args = ap.parse_args(argv)

    if args.command == "check":
        return _cmd_check(args)

    try:
        cfg = load_config(args.config, overrides=args.set,
                          trajectories=args.command == "run")
    except (OSError, ConfigError) as exc:
        print(f"becsteer: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "run":
            return _cmd_scan(cfg, args, args.out)
        if args.command == "oracle":
            return _cmd_oracle(cfg, args, args.out)
        return _cmd_losses(cfg, args, args.out)
    except Exception as exc:  # noqa: BLE001 - fatal path contract
        print(f"becsteer: fatal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
