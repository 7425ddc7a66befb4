"""Collective-spin moments and the steering witness from the multi-Fock sum.

Builds the five displaced Fock-configuration trajectories for a pair of
interacting wells, lets them dephase for a short while, then evaluates the
spin moments two ways — the fast windowed Fock sum and the brute-force
splitting sum — and optimizes the two-angle steering witness.

Run:  python3 demos/02_correlators_and_witness.py   (~2 s)
"""

import math

import numpy as np

from becsteer.correlators import (MultiIndex, brute_force_average, epr_witness,
                                  fock_sum_average, spin_moments)
from becsteer.fockflow import init_trajectories
from becsteer.grid import build_grid
from becsteer.meanfield import PhysicalParams
from becsteer.sequence import prepulse_state

par = PhysicalParams()
g4 = par.g4()
grid = build_grid(12, 24, 0.36, 0.36, -4.32)
pots = 0.5 * (grid.r[:, None] ** 2 + grid.z[None, :] ** 2) * np.ones((4, 1, 1))

# both wells share one trap here so that they actually interact
n = 40
psi0 = prepulse_state(grid, n, n, pots, g4)

traj = init_trajectories(grid, g4, n, n, psi0)
traj.run(lambda t: pots, 0.01, 60)
print(f"evolved to t = {traj.t:.2f}/omega; "
      f"theta(1,0) = {traj.theta(1, 0):+.3e}")

C = np.ones(4) / math.sqrt(2.0)
inp = traj.correlator_inputs(C)

# --- fast windowed sum vs brute-force splitting sum ------------------------
print("\noperator                 fast path        brute force      rel.diff")
for label, idx in [
    ("a0+ a1      ", MultiIndex((1, 0, 0, 0), (0, 1, 0, 0))),
    ("a1+ a1      ", MultiIndex((0, 1, 0, 0), (0, 1, 0, 0))),
    ("a0+ a1 b1+ b0", MultiIndex((1, 0, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 0, 1), (0, 0, 1, 0))),
]:
    f = fock_sum_average(inp, idx)
    b = brute_force_average(inp, idx)
    rel = abs(f - b) / max(abs(b), 1e-300)
    print(f"{label}  {f.real:+.8f}   {b.real:+.8f}   {rel:.1e}")

# --- moments and the optimized witness -------------------------------------
m = spin_moments(inp)
r = epr_witness(m)
print(f"\n<Sx_a> = {m.mean[0]:.3f} (max {n / 2}), contrast = {m.contrast('a'):.4f}")
print(f"var Sz_a = {m.cov[2, 2]:.3f} (coherent value {n / 4})")
print(f"E_EPR = {r.e_epr:.4f} at angles alpha = {r.alpha:.3f}, "
      f"beta = {r.beta:.3f}")
print(f"inferred variances: {r.inferred_var_1:.3f}, {r.inferred_var_2:.3f}")
print("E_EPR < 1 signals EPR steering of well b by measurements on well a.")
