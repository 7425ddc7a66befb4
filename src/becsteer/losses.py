"""Static particle-loss budget for the interaction configuration.

Loss rates are evaluated on frozen stationary densities (no depletion
feedback) and integrated linearly over the hold time.  Rate conventions are
the atom-loss form dn_e/dt = -kappa_ee n_e^2 - kappa_ee' n_e n_e' and
dn_0/dt = -kappa_000 n_0^3; the 0-1 channel removes one atom from each
state per event, hence the factor 2 in the total atom rate.
"""

from dataclasses import dataclass

import numpy as np

from .grid import integrate


@dataclass
class LossBudget:
    """Per-channel atom loss rates (atoms/s) and integrated totals."""

    rate_1b: float
    rate_2b_11: float
    rate_2b_01: float
    rate_3b: float
    t: float                 # integration time in seconds
    n_total: int

    def __post_init__(self):
        if min(self.rate_1b, self.rate_2b_11, self.rate_2b_01, self.rate_3b) < 0:
            raise ValueError("loss rates must be non-negative")
        if not 0.0 <= self.lost_fraction <= 1.0:
            raise ValueError(f"lost fraction {self.lost_fraction!r} outside [0, 1]")

    @property
    def rate_total(self):
        return self.rate_1b + self.rate_2b_11 + self.rate_2b_01 + self.rate_3b

    @property
    def n_lost(self):
        return self.rate_total * self.t

    @property
    def n_lost_2b(self):
        return (self.rate_2b_11 + self.rate_2b_01) * self.t

    @property
    def lost_fraction(self):
        return min(self.n_lost / self.n_total, 1.0)


def loss_estimate(grid, psi, ns, params, t_hold):
    """Loss budget of a stationary configuration held for t_hold seconds.

    psi are the unit-normalized component wavefunctions on the dimensionless
    grid; physical densities are n_alpha = N_alpha |phi_alpha|^2 / a_ho^3.
    """
    ns = np.asarray(ns, dtype=float)
    a3 = params.a_ho ** 3
    dens = np.abs(psi) ** 2 * ns[:, None, None]       # dimensionless, per a_ho^3
    n0 = dens[0] + dens[2]                            # internal state 0
    n1 = dens[1] + dens[3]
    # integral of n^p d^3x in SI carries a_ho^(3 - 3p) from the density powers
    int_11 = float(integrate(grid, n1 * n1)) / a3
    int_01 = float(integrate(grid, n0 * n1)) / a3
    int_000 = float(integrate(grid, n0 ** 3)) / a3 ** 2
    n_total = ns.sum()
    return LossBudget(
        rate_1b=n_total / params.tau_1,
        rate_2b_11=params.kappa_11 * int_11,
        rate_2b_01=2.0 * params.kappa_01 * int_01,
        rate_3b=params.kappa_000 * int_000,
        t=float(t_hold),
        n_total=int(round(n_total)),
    )
