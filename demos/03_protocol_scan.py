"""Full steering protocol at small scale: witness vs hold time.

Runs the complete measurement sequence — prepare, pi/2 pulse, state-dependent
transport, hold, transport back, measure — for a handful of hold times at a
desk-friendly atom number, and prints the witness scan. The same machinery
(configs/fig2a.cfg et al.) reproduces the full-size results; this is the
desk-scale version.  The four hold times share one forward ramp and hold.

Run:  python3 demos/03_protocol_scan.py   (~20 s on 2 CPUs)
"""

from becsteer.meanfield import PhysicalParams
from becsteer.sequence import (ProtocolConfig, prepare_initial, run_protocol,
                               well_separation)

cfg = ProtocolConfig(
    n_a=40, n_b=40,
    dz_max=6.0, t_ramp=12.0,
    t_int=(0.0, 2.0, 4.0, 6.0),
    n_r=16, dr=0.3, dz=0.3, z_margin=4.0,
    dt=0.01,
)
par = PhysicalParams()

print(f"N = {cfg.n_a}+{cfg.n_b}, separation {cfg.dz_max} a0, "
      f"ramp {cfg.t_ramp}/omega")
prep = prepare_initial(cfg, par)
print(f"prepared; initial well overlap = "
      f"{well_separation(prep[0], prep[2]):.2e}")

print("\n t_int   t_total    E_EPR   contrast_a  overlap_a")


def show(point):
    if point.error is not None:
        print(f"{point.t_int:6.1f}  FAILED: {point.error}")
        return
    r = point.result
    print(f"{point.t_int:6.1f}  {point.t_total:8.1f}  {r.e_epr:7.4f}  "
          f"{r.contrast_a:9.4f}  {r.overlap_a:9.4f}")


points = run_protocol(cfg, params=par, prep=prep, progress=show)

good = [p for p in points if p.error is None]
best = min(good, key=lambda p: p.result.e_epr)
print(f"\nbest witness E_EPR = {best.result.e_epr:.4f} at "
      f"t_int = {best.t_int:g}/omega")
print("longer ramps and larger N push the minimum further below 1 "
      "(see configs/fig2a.cfg).")
