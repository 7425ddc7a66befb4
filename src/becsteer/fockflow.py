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

from .grid import integrate, normalized_overlap
from .meanfield import FockVector, SplitStepEvolver

DENSITY_FLOOR = 1e-8


class DisplacementError(ValueError):
    pass


def _wrap(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


class TrajectorySet:
    """Five Fock configurations, their 20 wavefunctions, and the phase data."""

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
        self.psi = np.broadcast_to(psi0, shape + grid.shape).astype(complex).copy()
        self.t = 0.0
        # Theta(Delta) = Delta . theta_coeff ; exactly zero at t = 0
        self.theta_coeff = np.zeros(4)
        self._theta_rate_prev = self._theta_rate()
        # continuous density-weighted mean phase of each axis configuration
        # relative to the central one (per component), for 2pi unwrapping
        self._mean_phase = np.zeros(shape)
        self._raw_prev = np.zeros(shape)
        self._evolver = None
        self._evolver_dt = None

    # -- low-level helpers ---------------------------------------------------

    def _theta_rate(self):
        """d(theta_coeff)/dt from the central configuration densities."""
        dens = np.abs(self.psi[self.CENTER]) ** 2
        pair = np.array([[np.real(integrate(self.grid, dens[a] * dens[b]))
                          for b in range(4)] for a in range(4)])
        rate = np.zeros(4)
        for ap in range(4):
            for a in range(4):
                if a != ap:
                    rate[ap] -= 0.5 * self.g4[a, ap] * pair[a, ap]
        return rate

    def _update_mean_phases(self):
        # the axis configurations are the ones after the centre
        ov = np.sum(self.grid.weights * np.conj(self.psi[self.CENTER])
                    * self.psi[1:], axis=(-2, -1))
        raw = np.angle(ov)
        self._mean_phase[1:] += _wrap(raw - self._raw_prev[1:])
        self._raw_prev[1:] = raw

    # -- public operations ---------------------------------------------------

    def advance(self, potentials, dt):
        """One time step of all five configurations plus the Theta quadrature.

        potentials is a callable t -> (4, n_r, n_z) stack.
        """
        if self._evolver is None or self._evolver_dt != dt:
            self._evolver = SplitStepEvolver(self.grid, self.g4, dt)
            self._evolver_dt = dt
        v0 = np.asarray(potentials(self.t), dtype=float)
        v1 = np.asarray(potentials(self.t + dt), dtype=float)
        self.psi = self._evolver.step(self.psi, self.ns, v0, v1)
        self._evolver.check_norms(self.psi)
        rate = self._theta_rate()
        self.theta_coeff += 0.5 * dt * (self._theta_rate_prev + rate)
        self._theta_rate_prev = rate
        self._update_mean_phases()
        self.t += dt

    def fork(self):
        """An independent copy of the evolving state: wavefunctions, Theta
        coefficients and rate, mean-phase unwrap data and time.  The grid,
        the occupations and the propagator are shared."""
        new = copy.copy(self)
        for name in ("psi", "theta_coeff", "_theta_rate_prev", "_mean_phase",
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
        center = self.psi[self.CENTER]
        dens = np.abs(center) ** 2
        mask = dens >= DENSITY_FLOOR * dens.max(axis=(-2, -1), keepdims=True)
        # phase of each configuration relative to the central one, unwrapped
        # by its continuous mean phase
        phase = (np.angle(self.psi * np.conj(center)
                          * np.exp(-1j * self._raw_prev)[..., None, None])
                 + self._mean_phase[..., None, None])
        plus = [self.AXIS[(well, +1)] for well in "ab"]
        minus = [self.AXIS[(well, -1)] for well in "ab"]
        grads = (phase[plus] - phase[minus]) / (2.0 * self.beta)
        return np.where(mask, grads, 0.0).swapaxes(0, 1)

    def density_overlap(self, well):
        """Normalized overlap of the 0 and 1 densities of one well (in [0,1])."""
        base = 0 if well == "a" else 2
        d0, d1 = np.abs(self.psi[self.CENTER, base:base + 2]) ** 2
        return normalized_overlap(self.grid, d0, d1)

    def correlator_inputs(self, C, window_sigmas=8.0):
        """Snapshot of everything the correlator evaluation needs."""
        from .correlators import CorrelatorInputs

        grads = self.phase_gradients()
        m = self.grid.n_r * self.grid.n_z
        return CorrelatorInputs(
            weights=self.grid.weights.reshape(m),
            phibar=self.psi[self.CENTER].reshape(4, m),
            grad=grads.reshape(4, 2, m),
            theta_u=np.array([self.theta(1, 0), self.theta(0, 1)]),
            nbar=self.nbar,
            C=np.asarray(C, dtype=complex),
            window_sigmas=window_sigmas,
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
