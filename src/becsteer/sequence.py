"""Seven-step measurement protocol: prepare, pulse, separate, interact, recombine.

Two wells sit on the z axis.  After a pi/2 pulse puts every atom in an equal
superposition of the two internal states, the state-0 traps are translated so
that the state-0 cloud of well a overlaps the (stationary) state-1 cloud of
well b; they interact for a hold time and are brought back, after which the
collective-spin moments and the steering witness are evaluated.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import MIN_POINTS, build_grid, normalized_overlap
from .meanfield import GS_TOL, ground_state, save_snapshot, stable_dt
from .fockflow import init_trajectories
from .correlators import spin_moments, epr_witness

SQ2 = math.sqrt(2.0)
# a length within this relative distance of a whole number of steps counts as
# whole (see hold_forks), and a time this close to the end of a hold holds:
# far above the rounding of length / dt, far below the 1/n of any step count n
LATTICE_RTOL = 1e-9


@dataclass
class ProtocolConfig:
    """All knobs of one protocol run (lengths in oscillator units).

    Its defaults and range checks are the config file's; each check's message
    starts with the field name, so the config reader can blame its line.
    """

    n_a: int
    n_b: int
    dz_max: float                 # maximum well displacement
    t_ramp: float                 # duration of each transport ramp
    t_int: tuple = (0.0,)         # hold times to scan
    pulse_phase_a: float = 0.0
    pulse_phase_b: float = 0.0
    move_mode: str = "mirror"     # "mirror": both 0-traps move; "single": a0 only
    beta: int = 1
    # spatial grid
    n_r: int = 28
    dr: float = 1.0 / 7.0
    dz: float = 1.0 / 7.0
    z_margin: float = 4.5
    # time stepping; None picks the stability-rule step at prep time
    dt: float = None

    def __post_init__(self):
        checks = (
            ("n_a", self.n_a > 0, "must be positive"),
            ("n_b", self.n_b > 0, "must be positive"),
            ("dz_max", self.dz_max > 0, "must be positive"),
            ("t_ramp", self.t_ramp > 0, "must be positive"),
            ("t_int", all(t >= 0 for t in self.t_int),
             "values must be non-negative"),
            ("move_mode", self.move_mode in ("mirror", "single"),
             "must be 'mirror' or 'single'"),
            ("beta", self.beta >= 1, "must be at least 1"),
            ("n_r", self.n_r >= MIN_POINTS, f"must be at least {MIN_POINTS}"),
            ("dr", self.dr > 0, "must be positive"),
            ("dz", self.dz > 0, "must be positive"),
            ("z_margin", self.z_margin >= 0, "must be non-negative"),
            ("dz", self.dz <= 0 or self._z_axis()[1] >= MIN_POINTS,
             f"must give at least {MIN_POINTS} points along z"),
            ("dt", self.dt is None or self.dt > 0, "must be positive"),
        )
        for name, ok, need in checks:
            if not ok:
                raise ValueError(f"{name} {need}, got {getattr(self, name)!r}")

    def _z_axis(self):
        """(z_lo, n_z): both wells, the transport and a margin on each side."""
        z_hi = self.dz_max / 2.0 + self.z_margin
        if self.move_mode == "mirror":
            z_hi += self.dz_max
        z_lo = -self.dz_max / 2.0 - self.z_margin
        n_z = (z_hi - z_lo) / self.dz
        if n_z == math.inf:
            raise ValueError(f"dz too small, got {self.dz!r}")
        return z_lo, int(math.ceil(n_z))

    def build_grid(self):
        z_lo, n_z = self._z_axis()
        return build_grid(self.n_r, n_z, self.dr, self.dz, z_lo)

    def pulse_amplitudes(self):
        """Pulse coefficients of (a0, a1, b0, b1): equal weights, per-well phase."""
        return np.array([1.0, np.exp(1j * self.pulse_phase_a),
                         1.0, np.exp(1j * self.pulse_phase_b)]) / SQ2


def ramp_displacement(t, t_ramp, dz_max):
    """Smooth tanh transport ramp; exact endpoints, clamped outside [0, t_ramp]."""
    t = min(max(t, 0.0), t_ramp)
    th = math.tanh
    return dz_max * (th(4.0 * t / t_ramp - 2.0) - th(-2.0)) / (th(2.0) - th(-2.0))


def displacement_schedule(t, t_ramp, t_int, dz_max):
    """Forward ramp, hold, mirrored backward ramp; a time within LATTICE_RTOL
    of the end of the hold still holds."""
    if t <= t_ramp:
        return ramp_displacement(t, t_ramp, dz_max)
    # t accumulates one dt at a time and can pass the end of the hold by
    # roundoff; with the tolerance of _whole_steps, which puts forks on the
    # step lattice, every fork of a shared prefix is still on the hold
    if t <= (t_ramp + t_int) * (1.0 + LATTICE_RTOL):
        return dz_max
    return ramp_displacement(2.0 * t_ramp + t_int - t, t_ramp, dz_max)


def component_potentials(grid, cfg, t, t_int):
    """Per-component harmonic traps at protocol time t, shape (4, n_r, n_z).

    Well a sits at z = -dz_max/2, well b at +dz_max/2.  The state-0 traps
    translate by +dz(t) so that a0 ends up on top of b1; in "mirror" mode b0
    moves out of the way symmetrically, in "single" mode only a0 moves.
    """
    d = displacement_schedule(t, cfg.t_ramp, t_int, cfg.dz_max)
    za = -cfg.dz_max / 2.0
    zb = +cfg.dz_max / 2.0
    centers = [za + d, za, zb + (d if cfg.move_mode == "mirror" else 0.0), zb]
    r2 = grid.r[:, None] ** 2
    out = np.empty((4,) + grid.shape)
    for a, zc in enumerate(centers):
        out[a] = 0.5 * (r2 + (grid.z[None, :] - zc) ** 2)
    return out


def well_separation(grid, psi):
    """Normalized density overlap between the two wells (a0 vs b0 clouds)."""
    return normalized_overlap(grid, np.abs(psi[0]) ** 2, np.abs(psi[2]) ** 2)


def prepulse_state(grid, n_a, n_b, potentials, g4, tol=GS_TOL):
    """Ground state before the pulse, all atoms in state 0 of each well.

    Only a0 and b0 hold atoms, so only they are solved, from the (4, n_r,
    n_z) potentials and 4 x 4 couplings of the run.  After the
    instantaneous pulse each internal state inherits the prepared orbital
    of its well: returns the (4, n_r, n_z) stack (a0, a0, b0, b0).
    """
    occ = [0, 2]
    psi = ground_state(grid, [n_a, n_b], np.asarray(potentials)[occ],
                       np.asarray(g4)[np.ix_(occ, occ)], tol=tol)
    return psi[[0, 0, 1, 1]]


def prepare_initial(cfg, params, tol=GS_TOL):
    """Ground state before the pulse (prepulse_state) on the run's grid;
    returns (grid, g4, psi0)."""
    grid = cfg.build_grid()
    g4 = params.g4()
    pots = component_potentials(grid, cfg, 0.0, 0.0)
    return grid, g4, prepulse_state(grid, cfg.n_a, cfg.n_b, pots, g4, tol=tol)


@dataclass
class PointResult:
    """One hold-time point of the protocol scan."""

    t_int: float
    t_total: float
    result: object = None         # EPRResult, None on failure
    moments: object = None        # SpinMoments
    separation_end: float = float("nan")
    error: str = None
    dt: float = float("nan")      # time step of the point's scan
    steps: int = 0                # steps taken after its fork
    norm_drift: float = float("nan")   # largest norm drift of its steps
    unwrap_step: float = float("nan")  # largest mean-phase change in a step
    # wall times of finish's layers: the steps after the fork, the
    # correlator inputs with the spin moments, the witness with the overlaps
    ramp_s: float = float("nan")
    moments_s: float = float("nan")
    witness_s: float = float("nan")


def failed_point(cfg, t_int, exc):
    """The record of a point whose run raised exc."""
    return PointResult(t_int=t_int, t_total=2.0 * cfg.t_ramp + t_int,
                       error=f"{type(exc).__name__}: {exc}")


@dataclass
class HoldFork:
    """A scan's state at the end of one hold time.

    What is left of the point is `steps` steps of `dt` (its backward ramp)
    and the measurement.  When the grid point's set-up or shared prefix
    failed, `error` holds its exception and there is no state.
    """

    cfg: ProtocolConfig
    t_int: float
    traj: object = None           # TrajectorySet
    dt: float = None
    steps: int = 0
    error: Exception = None

    def finish(self, snapshot_path=None):
        """Run the rest of the point once and measure; raises its fault."""
        if self.error is not None:
            raise self.error
        cfg, traj, t_int = self.cfg, self.traj, self.t_int

        def pots(t):
            return component_potentials(traj.grid, cfg, t, t_int)

        t0 = time.perf_counter()
        traj.run(pots, self.dt, self.steps)
        t1 = time.perf_counter()
        inp = traj.correlator_inputs(cfg.pulse_amplitudes())
        moments = spin_moments(inp)
        t2 = time.perf_counter()
        result = epr_witness(moments)
        result.overlap_a = traj.density_overlap("a")
        result.overlap_b = traj.density_overlap("b")
        t3 = time.perf_counter()
        center = inp.phibar.reshape((4,) + traj.grid.shape)
        point = PointResult(t_int=t_int, t_total=2.0 * cfg.t_ramp + t_int,
                            result=result, moments=moments, dt=self.dt,
                            steps=self.steps, norm_drift=traj.norm_drift,
                            unwrap_step=traj.unwrap_step,
                            separation_end=well_separation(traj.grid, center),
                            ramp_s=t1 - t0, moments_s=t2 - t1,
                            witness_s=t3 - t2)
        if snapshot_path:
            save_snapshot(snapshot_path, traj.grid, center, traj.nbar, traj.t)
        return point


def _whole_steps(length, dt):
    """length / dt as an int, or None unless whole within LATTICE_RTOL."""
    n = length / dt
    return round(n) if abs(n - round(n)) <= LATTICE_RTOL * n else None


def _scan_plan(cfg, dt):
    """[(dt, [(index into cfg.t_int, fork step, total steps)])], one entry
    per shared prefix, its members in order of hold time: the dt rule in
    the docstring of becsteer.config, from the longest step dt."""
    totals = [2.0 * cfg.t_ramp + t for t in cfg.t_int]

    def own(k):
        n = max(1, int(math.ceil(totals[k] / dt)))
        return totals[k] / n, n

    dt_scan = own(max(range(len(totals)), key=totals.__getitem__))[0]
    shared, plan = [], []
    for k in sorted(range(len(totals)), key=lambda k: cfg.t_int[k]):
        m = _whole_steps(cfg.t_ramp + cfg.t_int[k], dt_scan)
        n = _whole_steps(totals[k], dt_scan)
        if m is not None and n is not None:
            shared.append((k, m, n))
        else:
            dt_k, n_k = own(k)
            m_k = min(n_k, round((cfg.t_ramp + cfg.t_int[k]) / dt_k))
            plan.append((dt_k, [(k, m_k, n_k)]))
    return ([(dt_scan, shared)] if shared else []) + plan


def _shared_prefix(cfg, traj, dt, members, record):
    """One forward ramp and one hold at step dt from traj, forked at each
    member's end of hold; yields (index, HoldFork) and counts its own steps
    and seconds in `record`.

    The chain follows the schedule of the longest hold, which is every
    member's schedule up to its fork at step m.  The last member takes the
    chain itself.
    """
    t_hold = max(cfg.t_int[k] for k, _, _ in members)

    def pots(t):
        return component_potentials(traj.grid, cfg, t, t_hold)

    t0 = time.perf_counter()
    try:
        for i, (k, m, n) in enumerate(members):
            traj.run(pots, dt, m - traj.steps)
            fork = traj.fork() if i + 1 < len(members) else traj
            record["steps"] = traj.steps
            record["seconds"] += time.perf_counter() - t0
            yield k, HoldFork(cfg, cfg.t_int[k], fork, dt, n - m)
            t0 = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - fails the forks not yet taken
        record["steps"] = traj.steps
        record["seconds"] += time.perf_counter() - t0
        for k, _, _ in members[i:]:
            yield k, HoldFork(cfg, cfg.t_int[k], error=exc)


def hold_forks(cfg, prep, prefixes=None):
    """Run the protocol to the end of each hold time, sharing the steps.

    Hold times share one forward ramp and one continuous hold up to the
    longest of them; yields (index into cfg.t_int, HoldFork) as each fork is
    taken, in order of hold time within each prefix.  A fault in a shared
    prefix is yielded as a HoldFork with `error` set for each fork it had
    not reached.  With a list as `prefixes`, one record per shared prefix is
    appended: its hold times, `dt`, `steps` and `seconds` (its own, not its
    forks').

    Which hold times share a prefix, and its step, follow the dt rule in
    the docstring of becsteer.config: a single hold time always steps
    exactly as a run of its own.  `prep` is what prepare_initial returns.
    Every prefix starts from one TrajectorySet built here.
    """
    grid, g4, psi0 = prep
    try:
        traj = init_trajectories(grid, g4, cfg.n_a, cfg.n_b, psi0,
                                 beta=cfg.beta)
        dt = cfg.dt
        if dt is None:
            pots0 = component_potentials(grid, cfg, 0.0, 0.0)
            dt = stable_dt(grid, g4, pots0, psi0, traj.ns.max(axis=0))
        plan = _scan_plan(cfg, dt)
    except Exception as exc:  # noqa: BLE001 - fails every point
        for k, t_int in enumerate(cfg.t_int):
            yield k, HoldFork(cfg, t_int, error=exc)
        return
    for i, (step, members) in enumerate(plan):
        record = {"t_int": [cfg.t_int[k] for k, _, _ in members], "dt": step,
                  "steps": 0, "seconds": 0.0}
        if prefixes is not None:
            prefixes.append(record)
        start = traj.fork() if i + 1 < len(plan) else traj
        yield from _shared_prefix(cfg, start, step, members, record)


def run_protocol(cfg, prep, progress=None):
    """Scan all hold times; a failed point is recorded, not fatal.

    Points come back in the order of cfg.t_int; `progress` sees each as it
    finishes (see hold_forks for that order).
    """
    points = [None] * len(cfg.t_int)
    for k, fork in hold_forks(cfg, prep):
        try:
            points[k] = fork.finish()
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            points[k] = failed_point(cfg, fork.t_int, exc)
        if progress is not None:
            progress(points[k])
    return points
