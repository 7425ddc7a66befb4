"""Energy functional, coupled GPE propagation and ground-state preparation.

The four components are ordered (a0, a1, b0, b1); interactions depend on the
internal state only, g[(sigma eps), (sigma' eps')] = g_{eps eps'}.  Internally
everything is in oscillator units hbar = m = omega = 1.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import integrate, inner, norm, apply_kinetic_potential

BOHR_RADIUS = 5.2918e-11        # m
HBAR = 1.054571817e-34          # J s
MASS_RB87 = 1.44316060e-25      # kg

COMPONENT_STATE = (0, 1, 0, 1)  # internal state of each component

NORM_TOL = 1e-6                 # check_norms: largest drift of a norm from 1
DT_MARGIN = 0.05                # stable_dt: largest (|V| + g n) dt of a step
DT_FLOOR = 1e-8                 # stable_dt: density, over the peak, of a sampled cell
RELAX_TAU = 0.05                # ground_state: imaginary-time step
RELAX_TOL = 1e-10               # ground_state: relative energy change ending relaxation
POLISH_MAX_ITER = 60000         # _descent_polish: iterations before ConvergenceError


class IntegrationError(RuntimeError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass
class PhysicalParams:
    """Trap, atom and interaction constants (SI in, oscillator units out).

    Its defaults and range checks are the config file's; each check's message
    starts with the field name.
    """

    omega: float = 2.0 * math.pi * 20.0     # rad/s
    mass: float = MASS_RB87                 # kg
    a_00: float = 100.4                     # Bohr radii
    a_11: float = 95.0
    a_01: float = 98.0
    kappa_11: float = 81e-21                # m^3/s, two-body 1-1
    kappa_01: float = 15e-21                # m^3/s, two-body 0-1
    kappa_000: float = 5.4e-42              # m^6/s, three-body 0-0-0
    tau_1: float = math.inf                 # s, one-body lifetime

    def __post_init__(self):
        for name in ("omega", "mass", "tau_1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)!r}")
        for name in ("a_00", "a_11", "a_01", "kappa_11", "kappa_01", "kappa_000"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)!r}")

    @property
    def a_ho(self):
        """Oscillator length sqrt(hbar / m omega) in meters."""
        return math.sqrt(HBAR / (self.mass * self.omega))

    def g_state(self):
        """2x2 coupling matrix over internal states, in hbar omega a_ho^3."""
        conv = 4.0 * math.pi * BOHR_RADIUS / self.a_ho
        return np.array(
            [[self.a_00 * conv, self.a_01 * conv],
             [self.a_01 * conv, self.a_11 * conv]]
        )

    def g4(self):
        """4x4 coupling matrix over components (a0, a1, b0, b1)."""
        gs = self.g_state()
        out = np.empty((4, 4))
        for i, si in enumerate(COMPONENT_STATE):
            for j, sj in enumerate(COMPONENT_STATE):
                out[i, j] = gs[si, sj]
        return out


class FockVector(NamedTuple):
    n_a0: int
    n_a1: int
    n_b0: int
    n_b1: int

    @property
    def n_a(self):
        return self.n_a0 + self.n_a1

    @property
    def n_b(self):
        return self.n_b0 + self.n_b1

    def displaced(self, d_a=0, d_b=0):
        """Transfer d_a atoms a1->a0 and d_b atoms b1->b0 (well-conserving)."""
        return FockVector(self.n_a0 + d_a, self.n_a1 - d_a,
                          self.n_b0 + d_b, self.n_b1 - d_b)

    def as_array(self):
        return np.array(self, dtype=float)


@dataclass
class ComponentState:
    """Four wavefunctions evolved with a given Fock configuration."""

    grid: object
    psi: np.ndarray          # (4, n_r, n_z) complex, each unit-normalized
    fock: FockVector
    t: float = 0.0
    mu: np.ndarray = field(default=None)  # set by ground_state


def _cayley(sub, diag, sup, tau):
    """Dense (I + tau/2 K)^-1 (I - tau/2 K) for K = -L/2, L = (sub, diag, sup)."""
    k = -0.5 * (np.diag(sub[1:], -1) + np.diag(diag) + np.diag(sup[:-1], 1))
    eye = np.eye(len(diag))
    return np.linalg.solve(eye + 0.5 * tau * k, eye - 0.5 * tau * k)


# Propagator entries below this fraction of the largest one are set to zero.
# Far from the diagonal they decay to below 1e-300, and products that land in
# the subnormal range take the CPU's slow path: at dt 0.004 on the 28 x 204
# fig2a grid, U_zz has 276 subnormal parts, and the cut takes a sweep from
# 12 to 5 ms.  What it drops is below 1e-30 of the sweep's largest entry.
PROPAGATOR_CUT = 1e-30


def _cut(u):
    """u with every entry below PROPAGATOR_CUT * max|u| set to zero."""
    mag = np.abs(u)
    return np.where(mag < PROPAGATOR_CUT * mag.max(), 0.0, u)


def _mean_field(g4, psi, ns):
    """g_aa max(N_a - 1, 0) |psi_a|^2 + sum_{a'!=a} g_aa' N_a' |psi_a'|^2.

    psi is (..., 4, n_r, n_z) with occupations ns shaped (..., 4).  The
    intra-species factor removes one self atom and is floored at zero, so
    empty and fractional components stay linear.
    """
    g4 = np.asarray(g4, dtype=float)
    ns = np.asarray(ns, dtype=float)
    dens = np.abs(psi) ** 2
    tot = np.einsum("ab,...bij->...aij", g4, ns[..., :, None, None] * dens)
    tot -= (np.diag(g4)[:, None, None] * np.minimum(ns, 1.0)[..., :, None, None]) * dens
    return tot


def _norms(grid, f):
    """Grid norm of each (n_r, n_z) field in f."""
    return np.sqrt(np.sum(grid.weights * np.abs(f) ** 2, axis=(-2, -1)))


def _gpe_apply(grid, psi, ns, potentials, g4):
    """(h + mean field) psi for all four components, and the effective potential."""
    veff = potentials + _mean_field(g4, psi, ns)
    return apply_kinetic_potential(grid, psi, veff), veff


class SplitStepEvolver:
    """Second-order Strang split-step for the coupled GPE, exp(-h H) per step.

    Real time uses h = i dt.  With imaginary=True, h = dt relaxes towards the
    ground state instead; the caller renormalizes after each step.  The
    kinetic part is a z half step, an r full step and a z half step, each a
    Cayley (Crank-Nicolson) propagator U = (I + tau/2 K)^-1 (I - tau/2 K)
    with tau = h/2 along z and tau = h along r.  U_r and U_z act on
    different indices and commute, so the two z half steps are one matrix
    U_zz = U_z U_z.  Both are built once, as dense matrices from the grid's
    Laplacian stencil and cut at PROPAGATOR_CUT, so a sweep is two matrix
    products; in real time U preserves the weighted norm to roundoff.  The
    potential and nonlinear part is an exact local factor.  Works on a batch
    of Fock configurations at once: psi shaped (..., 4, n_r, n_z).
    """

    def __init__(self, grid, g4, dt, imaginary=False):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.g4 = np.asarray(g4, dtype=float)
        self.dt = float(dt)
        self._h = self.dt if imaginary else 1j * self.dt
        # complex in both modes so that complex wavefunctions pass through
        u_z = _cayley(*grid.axial_tridiag(), self._h / 2 + 0j)
        self._u_zz = _cut(u_z @ u_z)
        self._u_r = _cut(_cayley(*grid.radial_tridiag(), self._h + 0j))

    def _kinetic(self, psi):
        return self._u_r @ (psi @ self._u_zz.T)

    def _half_phase(self, psi, ns, v):
        return psi * np.exp(-0.5 * self._h * (v + _mean_field(self.g4, psi, ns)))

    def _strang(self, psi, ns, v0, v1):
        psi = self._half_phase(psi, ns, v0)
        psi = self._kinetic(psi)
        return self._half_phase(psi, ns, v1)

    def step(self, psi, ns, v_t, v_t_dt):
        """Advance one dt; v_t and v_t_dt are (4, n_r, n_z) potential stacks."""
        return self._strang(psi, ns, v_t, v_t_dt)

    def check_norms(self, psi):
        nrm = np.real(np.sum(self.grid.weights * np.abs(psi) ** 2, axis=(-2, -1)))
        drift = np.max(np.abs(nrm - 1.0))
        if drift > NORM_TOL:
            raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_TOL:.1e}")
        return drift


def stable_dt(grid, g4, potentials, psi, ns):
    """Step-size rule max(|V| + g n_max) dt < DT_MARGIN, restricted to the
    region the wavefunctions actually sample (density above DT_FLOOR of the
    peak)."""
    dens = np.abs(psi) ** 2
    mask = dens.max(axis=tuple(range(dens.ndim - 2))) > DT_FLOOR * dens.max()
    gn = np.einsum("ab,...bij->...aij", np.asarray(g4), np.asarray(ns)[..., :, None, None] * dens)
    scale = (np.abs(potentials) + gn)[..., mask].max()
    return DT_MARGIN / scale


def energy_fields(grid, psi, ns, potentials, g4):
    """Energy functional of the multicomponent condensate.

    E = sum_a N_a <phi_a|h_a|phi_a> + sum_a g_aa/2 N_a(N_a-1) int |phi_a|^4
        + sum_{a != a'} g_aa'/2 N_a N_a' int |phi_a|^2 |phi_a'|^2
    """
    ns = np.asarray(ns, dtype=float)
    g4 = np.asarray(g4, dtype=float)
    e = 0.0
    dens = np.abs(psi) ** 2
    for a in range(4):
        h_psi = apply_kinetic_potential(grid, psi[a], potentials[a])
        e += ns[a] * np.real(inner(grid, psi[a], h_psi))
        e += 0.5 * g4[a, a] * ns[a] * (ns[a] - 1) * np.real(integrate(grid, dens[a] ** 2))
        for b in range(4):
            if b == a:
                continue
            e += 0.5 * g4[a, b] * ns[a] * ns[b] * np.real(integrate(grid, dens[a] * dens[b]))
    return e


def chemical_potential(grid, psi, ns, potentials, g4):
    """Per-component chemical potentials mu_a = <phi_a|h_a + mean field|phi_a>."""
    h_psi, _ = _gpe_apply(grid, psi, ns, potentials, g4)
    return np.real(inner(grid, psi, h_psi))


def gpe_residual(grid, psi, ns, potentials, g4):
    """Grid norm of (h + mean field - mu) phi per component."""
    h_psi, _ = _gpe_apply(grid, psi, ns, potentials, g4)
    mu = np.real(inner(grid, psi, h_psi))
    return norm(grid, h_psi - mu[:, None, None] * psi)


def _descent_polish(grid, psi, ns, potentials, g4, tol):
    """Projected gradient descent to the exact discrete stationary state.

    Step size is set per component from an upper bound on the spectrum of the
    effective Hamiltonian, so the iteration is unconditionally contracting;
    the fixed point has residual zero on the discrete GPE.
    """
    lam_kin = 0.5 * (4.0 / grid.dr**2 + 4.0 / grid.dz**2)
    for it in range(POLISH_MAX_ITER):
        hpsi, veff = _gpe_apply(grid, psi, ns, potentials, g4)
        mu = np.real(inner(grid, psi, hpsi))
        res_vec = hpsi - mu[:, None, None] * psi
        resn = _norms(grid, res_vec)
        if resn.max() < tol:
            return psi
        tau = 1.8 / (lam_kin + veff.max(axis=(-2, -1))[:, None, None] - mu[:, None, None])
        psi = psi - tau * res_vec
        psi = psi / _norms(grid, psi)[:, None, None]
    raise ConvergenceError(
        f"ground state not converged after {POLISH_MAX_ITER} descent iterations, "
        f"residual {resn.max():.3e}")


def ground_state(grid, fock, potentials, g4, tol=1e-8, relax_iters=4000,
                 psi0=None):
    """Coupled ground state by imaginary time plus self-consistent polish.

    potentials must be time-independent, shape (4, n_r, n_z).  Returns a
    ComponentState with chemical potentials attached.
    """
    ns = fock.as_array() if isinstance(fock, FockVector) else np.asarray(fock, float)
    potentials = np.asarray(potentials, dtype=float)
    if psi0 is None:
        psi = np.empty((4,) + grid.shape, dtype=complex)
        for a in range(4):
            i0, j0 = np.unravel_index(np.argmin(potentials[a]), grid.shape)
            z0 = grid.z[j0]
            gauss = np.exp(-0.5 * (grid.r[:, None] ** 2 + (grid.z[None, :] - z0) ** 2))
            psi[a] = gauss / norm(grid, gauss)
    else:
        psi = psi0.astype(complex).copy()
        psi /= _norms(grid, psi)[:, None, None]

    ev = SplitStepEvolver(grid, g4, RELAX_TAU, imaginary=True)
    prev_e = np.inf
    for it in range(relax_iters):
        # not `step`, whose calls count the real-time steps of a run
        psi = ev._strang(psi, ns, potentials, potentials)
        psi = psi / _norms(grid, psi)[:, None, None]
        if it % 25 == 24:
            e = energy_fields(grid, psi, ns, potentials, g4)
            if abs(prev_e - e) < RELAX_TOL * max(abs(e), 1.0):
                break
            prev_e = e

    psi = _descent_polish(grid, psi, ns, potentials, g4, tol)
    fv = fock if isinstance(fock, FockVector) else FockVector(*[int(round(x)) for x in ns])
    return ComponentState(grid, psi, fv, 0.0,
                          chemical_potential(grid, psi, ns, potentials, g4))


# ---------------------------------------------------------------------------
# wavefunction snapshot files (versioned textual format)

SNAPSHOT_VERSION = 1


def save_snapshot(path, grid, psi, fock, t):
    """Write components as a textual (comp, i, j, Re, Im) table with a header."""
    with open(path, "w") as fh:
        fh.write(f"# becsteer-snapshot v{SNAPSHOT_VERSION}\n")
        fh.write(f"# grid n_r={grid.n_r} n_z={grid.n_z} dr={grid.dr!r} "
                 f"dz={grid.dz!r} z_min={grid.z_min!r}\n")
        fh.write(f"# fock {fock.n_a0} {fock.n_a1} {fock.n_b0} {fock.n_b1}\n")
        fh.write(f"# t {t!r}\n")
        fh.write("# columns: component i j re im\n")
        for a in range(4):
            for i in range(grid.n_r):
                for j in range(grid.n_z):
                    v = complex(psi[a, i, j])
                    fh.write(f"{a} {i} {j} {v.real!r} {v.imag!r}\n")


def load_snapshot(path):
    """Read a snapshot written by save_snapshot; returns (grid, psi, fock, t)."""
    from .grid import CylGrid

    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# becsteer-snapshot v"):
            raise ValueError("not a becsteer snapshot file")
        version = int(header.rsplit("v", 1)[1])
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        gline = fh.readline().split()
        kv = dict(tok.split("=") for tok in gline[2:])
        grid = CylGrid(int(kv["n_r"]), int(kv["n_z"]), float(kv["dr"]),
                       float(kv["dz"]), float(kv["z_min"]))
        fock = FockVector(*[int(x) for x in fh.readline().split()[2:]])
        t = float(fh.readline().split()[2])
        fh.readline()
        psi = np.zeros((4,) + grid.shape, dtype=complex)
        for line in fh:
            a, i, j, re, im = line.split()
            psi[int(a), int(i), int(j)] = float(re) + 1j * float(im)
    return grid, psi, fock, t
