"""Atom-loss budget of the interaction configuration.

Solves the stationary state with the state-0 cloud of well a parked on top of
the state-1 cloud of well b (the configuration held during the interaction
time), evaluates one-, two- and three-body loss rates on the frozen
densities, and integrates them over a hold of 0.2 s.

Run:  python3 demos/05_loss_budget.py   (~2 s)
"""

import numpy as np

from becsteer.losses import loss_estimate
from becsteer.meanfield import PhysicalParams, ground_state
from becsteer.sequence import ProtocolConfig, component_potentials

par = PhysicalParams(tau_1=60.0)   # one-body lifetime 60 s
print(f"rate constants: kappa_11 = {par.kappa_11:.2e} m^3/s, "
      f"kappa_01 = {par.kappa_01:.2e} m^3/s,")
print(f"                kappa_000 = {par.kappa_000:.2e} m^6/s, "
      f"tau_1 = {par.tau_1:g} s")

cfg = ProtocolConfig(n_a=500, n_b=500, dz_max=6.0, t_ramp=10.0,
                     n_r=24, dr=0.2, dz=0.2, z_margin=4.5)
grid = cfg.build_grid()
# the traps at the end of the forward ramp: a0 over b1
pots = component_potentials(grid, cfg, cfg.t_ramp, 0.0)
ns = np.array([250.0, 250.0, 250.0, 250.0])
psi = ground_state(grid, ns, pots, par.g4(), tol=1e-7)

budget = loss_estimate(grid, psi, ns, par, t_hold=0.2)
print(f"\nloss rates (atoms/s) over the {budget.t:g} s hold:")
print(f"  one-body        {budget.rate_1b:8.3f}")
print(f"  two-body 1-1    {budget.rate_2b_11:8.3f}")
print(f"  two-body 0-1    {budget.rate_2b_01:8.3f}")
print(f"  three-body      {budget.rate_3b:8.5f}")
print(f"\natoms lost: {budget.n_lost:.2f} total, "
      f"{budget.n_lost_2b:.2f} from two-body channels")
print(f"lost fraction: {budget.lost_fraction:.3g} of {budget.n_total} atoms")
print("\nthe lost fraction stays well below the squeezing-parameter scale, "
      "so losses do not\nwash out the steering signal at these parameters.")
