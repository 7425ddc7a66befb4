"""EPR steering between two spatially separated bimodal condensates.

Simulation of a two-well, two-internal-state Bose-Einstein condensate
protocol: mean-field spatial dynamics of the displaced Fock configurations,
multi-Fock-state correlators in the modulus-phase approximation, collective
spin moments and the optimized steering witness, with an exact four-mode
reference model and a static loss budget.
"""

__version__ = "0.1.0"

from .grid import CylGrid, GridError, build_grid, inner, integrate, norm
from .meanfield import (ConvergenceError, FockVector, IntegrationError,
                        PhysicalParams, SplitStepEvolver, chemical_potential,
                        gpe_residual, ground_state, stable_dt)
from .fockflow import (DisplacementError, TrajectorySet, central_fock,
                       init_trajectories)
from .correlators import (CorrelatorInputs, EPRResult, MultiIndex,
                          SpinMoments, TruncationError,
                          WitnessUndefinedError, brute_force_average,
                          epr_witness, fock_sum_average, quadrature_moments,
                          spin_moments)
from .sequence import (PointResult, ProtocolConfig, component_potentials,
                       prepare_initial, prepulse_state, ramp_displacement,
                       run_protocol, well_separation)
from .oracle4mode import (FourModeState, adiabatic_rates, evolve_exact,
                          extract_chi, four_mode_average, oracle_moments,
                          oracle_witness, pulse_state, twisting_phases)
from .losses import LossBudget, loss_estimate
from .config import ConfigError, RunConfig, load_config, parse_config
