"""Batch evolution of the five displaced Fock configurations.

The entangling information lives in the derivatives of the wavefunction
phases with respect to the within-well population transfer, and in the slowly
accumulating reduced phase Theta.  Both are extracted here from the central
configuration and its axis neighbours (d_a, d_b) = (+-beta, 0), (0, +-beta).

The reduced-phase rate is linear in the displacement vector, so Theta is
tracked as a 4-vector of per-mode coefficients; antisymmetry under reversal
of the displacement is then exact by construction.
"""

import copy

import numpy as np

from .correlators import CorrelatorInputs
from .grid import inner, integrate, normalized_overlap
from .meanfield import FockVector, SplitStepEvolver, _mean_field

DENSITY_FLOOR = 1e-8


class DisplacementError(ValueError):
    pass


def _wrap(x):
    """x shifted by a whole number of turns into [-pi, pi]; exactly x when
    |x| < pi, so a small increment keeps its low bits."""
    return x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))


class TrajectorySet:
    """Five Fock configurations, their 20 wavefunctions, and the phase data.

    `run` steps an open working state (see SplitStepEvolver): it carries the
    half phase of its own time, which `_pending` = (evolver, v) records.
    Only the phases differ between it and the closed state, so the norm
    check, the Theta rate and the density overlaps read it directly.  `psi`
    is the closed state, computed when it is read.  Before the first run
    the working state is closed and `_pending` is None.

    `norm_drift` and `unwrap_step` are the largest norm drift and the
    largest per-step mean-phase increment met so far: the step's margin
    against NORM_TOL and the unwrap's margin against pi.
    """

    # (d_a, d_b) in units of beta: the centre, then a+, a-, b+, b-
    OFFSETS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    CENTER = 0
    AXIS = {("a", +1): 1, ("a", -1): 2, ("b", +1): 3, ("b", -1): 4}

    def __init__(self, grid, g4, nbar, beta, psi0):
        self.grid = grid
        self.g4 = np.asarray(g4, dtype=float)
        self.nbar = nbar
        self.beta = int(beta)
        self.focks = [nbar.displaced(da * self.beta, db * self.beta)
                      for (da, db) in self.OFFSETS]
        self.ns = np.array([f.as_array() for f in self.focks])
        if np.any(self.ns < 0):
            raise DisplacementError("displaced configuration has negative occupation")
        shape = (len(self.OFFSETS), 4)
        self._psi = np.broadcast_to(psi0, shape + grid.shape).astype(complex).copy()
        self._pending = None
        self.t = 0.0
        # Theta(Delta) = Delta . theta_coeff ; exactly zero at t = 0
        self.theta_coeff = np.zeros(4)
        self._theta_rate_prev = self._theta_rate(np.abs(self._psi[self.CENTER]) ** 2)
        # continuous density-weighted mean phase of each axis configuration
        # relative to the central one (per component), for 2pi unwrapping
        self._mean_phase = np.zeros(shape)
        self._raw_prev = np.zeros(shape)
        self.steps = 0
        self.norm_drift = 0.0
        self.unwrap_step = 0.0

    # -- low-level helpers ---------------------------------------------------

    def _theta_rate(self, dens):
        """d(theta_coeff)/dt from the central configuration's densities dens,
        -1/2 sum_{a' != a} g_aa' int |psi_a|^2 |psi_a'|^2 for each a: at unit
        occupations the mean field of a holds the other components only."""
        return -0.5 * integrate(self.grid, dens * _mean_field(
            self.g4, self._psi[self.CENTER], np.ones(4), dens))

    def _update_mean_phases(self):
        # the axis configurations are the ones after the centre.  This reads
        # the open state: its relative phases differ from the closed ones by
        # the small pending half phase, which phase_gradients absorbs as it
        # takes angle() relative to _raw_prev
        ov = inner(self.grid, self._psi[self.CENTER], self._psi[1:])
        raw = np.angle(ov)
        inc = _wrap(raw - self._raw_prev[1:])
        self.unwrap_step = max(self.unwrap_step, float(np.abs(inc).max()))
        self._mean_phase[1:] += inc
        self._raw_prev[1:] = raw

    def _open(self, dt, v):
        """The evolver of steps of dt, with the working state open at v: kept
        if it already is, else closed and opened afresh."""
        if self._pending is not None:
            evolver, v_open = self._pending
            if evolver.dt == dt and np.array_equal(v_open, v):
                return evolver
            self._psi = self.psi
        evolver = SplitStepEvolver(self.grid, self.g4, dt)
        self._psi = evolver.phase(self._psi, self.ns, v, 0.5)
        self._pending = (evolver, v)
        return evolver

    # -- public operations ---------------------------------------------------

    def run(self, potentials, dt, steps):
        """`steps` time steps of all five configurations plus the Theta
        quadrature; potentials is a callable t -> (4, n_r, n_z) stack, called
        steps + 1 times.

        One nonlinear phase per step: the working state is opened with half
        a phase at v(t), unless the last run left it open at the same dt and
        an equal v(t), and each step ends with the full phase at v(t + dt).
        The state stays open after the run, so runs in parts step exactly as
        one run; `psi` closes it on reading.

        Each step is in place on the working state, with two buffers of its
        size made per call, so that neither a fork nor a pickled set shares
        them (see SplitStepEvolver.step).  Its one density, of the swept
        state, feeds the phase's mean field, the 20 norms of the norm check
        and the Theta rate; the mean-phase overlaps read the stepped state.
        The array `psi` returned before the run is not the one stepped."""
        v = np.asarray(potentials(self.t), dtype=float)
        if steps <= 0:
            return
        evolver = self._open(dt, v)
        work = (np.empty(self._psi.shape, dtype=complex), np.empty(self._psi.shape))
        dens = work[1]
        for _ in range(steps):
            v = np.asarray(potentials(self.t + dt), dtype=float)
            evolver.step(self._psi, self.ns, v, work)
            self._pending = (evolver, v)
            self.norm_drift = max(self.norm_drift,
                                  float(evolver.check_norms(self._psi, dens)))
            rate = self._theta_rate(dens[self.CENTER])
            self.theta_coeff += 0.5 * dt * (self._theta_rate_prev + rate)
            self._theta_rate_prev = rate
            self._update_mean_phases()
            self.t += dt
            self.steps += 1

    @property
    def psi(self):
        """The closed wavefunctions, shape (5, 4, n_r, n_z): the working
        state less its pending half phase, a new array on each read once a
        run has opened it."""
        if self._pending is None:
            return self._psi
        evolver, v = self._pending
        return evolver.phase(self._psi, self.ns, v, -0.5)

    def fork(self):
        """An independent copy of the evolving state: wavefunctions and their
        pending half phase, Theta coefficients and rate, mean-phase unwrap
        data, time, step count and diagnostics.  The grid, the occupations
        and the pending evolver and potential are shared."""
        new = copy.copy(self)
        for name in ("_psi", "theta_coeff", "_theta_rate_prev", "_mean_phase",
                     "_raw_prev"):
            setattr(new, name, getattr(self, name).copy())
        return new

    def theta(self, p_a, p_b):
        """Reduced phase for a displacement of p_sigma transfers per well."""
        delta = np.array([p_a, -p_a, p_b, -p_b], dtype=float)
        return float(delta @ self.theta_coeff)

    def phase_gradients(self):
        """d(theta_alpha)/d(u_sigma) fields, shape (4, 2, n_r, n_z).

        Centered difference of the unwrapped phases of the +beta and -beta
        axis configurations; cells below the central density floor are zeroed.
        """
        psi = self.psi
        center = psi[self.CENTER]
        dens = np.abs(center) ** 2
        mask = dens >= DENSITY_FLOOR * dens.max(axis=(-2, -1), keepdims=True)
        # phase of each configuration relative to the central one, unwrapped
        # by its continuous mean phase
        phase = (np.angle(psi * np.conj(center)
                          * np.exp(-1j * self._raw_prev)[..., None, None])
                 + self._mean_phase[..., None, None])
        plus = [self.AXIS[(well, +1)] for well in "ab"]
        minus = [self.AXIS[(well, -1)] for well in "ab"]
        grads = (phase[plus] - phase[minus]) / (2.0 * self.beta)
        return np.where(mask, grads, 0.0).swapaxes(0, 1)

    def density_overlap(self, well):
        """Normalized overlap of the 0 and 1 densities of one well (in [0,1])."""
        base = 0 if well == "a" else 2
        d0, d1 = np.abs(self._psi[self.CENTER, base:base + 2]) ** 2
        return normalized_overlap(self.grid, d0, d1)

    def correlator_inputs(self, C):
        """Snapshot of everything the correlator evaluation needs."""
        grads = self.phase_gradients()
        m = self.grid.n_r * self.grid.n_z
        return CorrelatorInputs(
            weights=self.grid.weights.reshape(m),
            phibar=self.psi[self.CENTER].reshape(4, m).copy(),
            grad=grads.reshape(4, 2, m),
            theta_u=np.array([self.theta(1, 0), self.theta(0, 1)]),
            nbar=self.nbar,
            C=np.asarray(C, dtype=complex),
        )


def central_fock(n_a, n_b):
    """Even split of the well populations (ceil/floor for odd numbers)."""
    return FockVector((n_a + 1) // 2, n_a // 2, (n_b + 1) // 2, n_b // 2)


def max_beta(n_a, n_b):
    """Largest transfer step beta of the axis configurations: a tenth of the
    smallest central occupation."""
    return min(central_fock(n_a, n_b)) / 10.0


def init_trajectories(grid, g4, n_a, n_b, psi0, beta=1):
    """Build the five-configuration set right after the pulse.

    psi0 is the (4, n_r, n_z) stack of prepared wavefunctions; components 0
    and 1 of each well must hold the same per-well spatial wavefunction (the
    pulse populates both internal states in the ground-state orbital).
    """
    nbar = central_fock(n_a, n_b)
    if beta < 1 or int(beta) != beta:
        raise DisplacementError("beta must be a positive integer")
    limit = max_beta(n_a, n_b)
    if beta > limit:
        raise DisplacementError(
            f"beta={beta} too large for central occupations {tuple(nbar)} "
            f"(require beta <= {limit:g})")
    return TrajectorySet(grid, g4, nbar, beta, psi0)
