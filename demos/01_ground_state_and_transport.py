"""Ground-state preparation and state-dependent transport.

Solves the coupled ground state of two harmonically trapped condensate wells
on the cylindrical grid, then drags the state-0 trap across with the smooth
tanh ramp and watches the cloud's center of mass follow (and overshoot, if
the ramp is too fast).

Run:  python3 demos/01_ground_state_and_transport.py
"""

import numpy as np

from becsteer.grid import build_grid, integrate
from becsteer.meanfield import (PhysicalParams, SplitStepEvolver,
                                chemical_potential, gpe_residual)
from becsteer.sequence import (ProtocolConfig, component_potentials,
                               prepulse_state)

par = PhysicalParams()
print(f"oscillator length a_ho = {par.a_ho * 1e6:.3f} um, "
      f"g = {par.g4()[0, 0]:.4f} (osc. units)")

cfg = ProtocolConfig(n_a=100, n_b=100, dz_max=5.0, t_ramp=6.0,
                     n_r=16, dr=0.3, dz=0.3, z_margin=4.0)
grid = cfg.build_grid()
print(f"grid: {grid.n_r} x {grid.n_z} points, box z in "
      f"[{grid.z[0]:.2f}, {grid.z[-1]:.2f}]")

pots = component_potentials(grid, cfg, 0.0, 0.0)
# a0 and b0 are solved; a1 and b1 come out as copies of them, as after the pulse
psi = prepulse_state(grid, cfg.n_a, cfg.n_b, pots, par.g4(), tol=1e-8)

ns_ev = np.array([cfg.n_a, 0, cfg.n_b, 0], float)
res = gpe_residual(grid, psi, ns_ev, pots, par.g4())
mu = chemical_potential(grid, psi, ns_ev, pots, par.g4())
print(f"ground state: mu_a0 = {mu[0]:.4f} hbar*omega, "
      f"residual of a0, b0 = {res[[0, 2]].max():.2e}")

# --- transport: evolve the a0 component while its trap slides over ---------
dt = 0.01
evo = SplitStepEvolver(grid, par.g4(), dt)

z_mean_hist = []
t = 0.0
# each step ends with the full nonlinear phase at its end time, so the state
# is opened once with half a phase; densities need no closing half phase
psi = evo.phase(psi, ns_ev, component_potentials(grid, cfg, t, 0.0), 0.5)
print("\n  t      trap center   cloud <z>")
for step in range(int(cfg.t_ramp / dt)):
    v1 = component_potentials(grid, cfg, t + dt, 0.0)
    psi = evo.step(psi, ns_ev, v1)
    t += dt
    if (step + 1) % 100 == 0:
        dens = np.abs(psi[0]) ** 2
        zm = float(np.real(integrate(grid, grid.z[None, :] * dens)))
        trap = grid.z[np.argmin(v1[0][0])]
        z_mean_hist.append((t, trap, zm))
        print(f"{t:5.1f}   {trap:10.3f}   {zm:9.3f}")

lag = abs(z_mean_hist[-1][1] - z_mean_hist[-1][2])
print(f"\nfinal lag between trap and cloud: {lag:.3f} a0 "
      f"(a slower ramp shrinks this)")
