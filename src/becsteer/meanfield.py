"""Energy functional, coupled GPE propagation and ground-state preparation.

The four components are ordered (a0, a1, b0, b1); interactions depend on the
internal state only, g[(sigma eps), (sigma' eps')] = g_{eps eps'}.  Internally
everything is in oscillator units hbar = m = omega = 1.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import integrate, inner, norm

BOHR_RADIUS = 5.2918e-11        # m
HBAR = 1.054571817e-34          # J s
MASS_RB87 = 1.44316060e-25      # kg

COMPONENT_STATE = (0, 1, 0, 1)  # internal state of each component

NORM_TOL = 1e-6                 # check_norms: largest drift of a norm from 1
DT_MARGIN = 0.05                # stable_dt: largest (|V| + g n) dt of a step
DT_FLOOR = 1e-8                 # stable_dt: density, over the peak, of a sampled cell
GS_MAX_ITER = 2000              # ground_state: CG iterations before ConvergenceError
# ground_state: largest grid norm of a component's (H - mu) psi.  A scan on
# fig3 geometry at N = 4000 and dt 0.05 amplifies differences in the prepared
# state: solved to 1e-8 instead of 1e-10, its E_EPR moved by up to 4.1e-5 and
# overlap_a by 1.1e-5 over ten hold times (1e-9: 3.2e-6 and 1.4e-6).
GS_TOL = 1e-10


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


def _mean_field(g4, psi, ns, dens=None, out=None):
    """g_aa max(N_a - 1, 0) |psi_a|^2 + sum_{a'!=a} g_aa' N_a' |psi_a'|^2.

    psi is (..., n_comp, n_r, n_z) with occupations ns shaped (..., n_comp)
    and g4 (n_comp, n_comp); the four components in a run.  The
    intra-species factor removes one self atom and is floored at zero, so
    empty and fractional components stay linear.  Each configuration's
    couplings form one matrix, g_aa' times N_a' off the diagonal and
    max(N_a - 1, 0) on it, applied to the densities by one batched matmul.
    A caller that holds dens = |psi|^2 passes it, and psi is then not read.
    `out`, shaped like the field, receives it; it must reshape to
    (..., n_comp, n_r n_z) without a copy, as a C-ordered array and its
    real part do.
    """
    g4 = np.asarray(g4, dtype=float)
    ns = np.asarray(ns, dtype=float)
    if dens is None:
        dens = np.abs(psi) ** 2
    counts = np.where(np.eye(len(g4), dtype=bool),
                      np.maximum(ns - 1.0, 0.0)[..., None, :], ns[..., None, :])
    coupling = g4 * counts
    flat = dens.shape[:-2] + (-1,)
    if out is None:
        return np.matmul(coupling, dens.reshape(flat)).reshape(dens.shape)
    np.matmul(coupling, dens.reshape(flat), out=out.reshape(flat))
    return out


def _gpe_residual(grid, psi, ns, potentials, g4):
    """((H - mu) psi, mu, effective potential) for H = h + mean field and
    mu = Re<psi|H psi> per component."""
    veff = potentials + _mean_field(g4, psi, ns)
    h_psi = grid.kinetic(psi) + veff * psi
    mu = np.real(inner(grid, psi, h_psi))
    return h_psi - mu[..., None, None] * psi, mu, veff


def _work(shape):
    """The buffers of one in-place step of a state shaped `shape`: (sweep,
    dens, half), a complex and two float arrays (see SplitStepEvolver.step)."""
    return np.empty(shape, dtype=complex), np.empty(shape), np.empty(shape)


class SplitStepEvolver:
    """Second-order Strang split-step for the coupled GPE in real time,
    exp(-i dt H) per step.

    The kinetic part is a z half step, an r full step and a z half step,
    each a Cayley (Crank-Nicolson) propagator U = (I + tau/2 K)^-1
    (I - tau/2 K) with tau = i dt/2 along z and tau = i dt along r.  U_r and
    U_z act on different indices and commute, so the two z half steps are
    one matrix U_zz = U_z U_z.  Both are built once, as functions of the
    eigenvalues of the grid's k_r and k_z (`CylGrid.kinetic_functions`), so
    a sweep is two matrix products; U preserves the weighted norm to
    roundoff.  The potential and nonlinear part is an exact local factor,
    `phase`.  Works on a batch of Fock configurations at once: psi shaped
    (..., 4, n_r, n_z).

    A closed Strang step is a half phase at v(t), the kinetic sweep and a
    half phase at v(t + dt).  The closing half phase of one step and the
    opening one of the next read the same potential and the same |psi|, so
    they are one full phase: `step` works on an *open* state, one that
    carries the half phase of its own time, and is the sweep followed by the
    full phase at v(t + dt).  `phase(psi, ns, v, 0.5)` opens a closed state
    at v and `phase(psi, ns, v, -0.5)` closes an open one.

    A step computes |psi|^2 once, of the swept state: the phase factor is
    unimodular, so this is also the density of the stepped state, to
    roundoff, and a caller that passes its own buffers reads it there for
    the norm check and its other per-step sums.  The evolver holds no
    buffers, so one evolver can step several states.
    """

    def __init__(self, grid, g4, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.g4 = np.asarray(g4, dtype=float)
        self.dt = float(dt)
        h = 1j * self.dt
        self._u_r, self._u_zz = grid.kinetic_functions(
            lambda lam: (1.0 - 0.5 * h * lam) / (1.0 + 0.5 * h * lam),
            lambda lam: ((1.0 - 0.25 * h * lam) / (1.0 + 0.25 * h * lam)) ** 2)

    def _kinetic(self, psi, sweep=None, out=None):
        """U_r (psi U_zz^T): the z product as one matrix product over every
        row of psi, into `sweep` (C-ordered, complex, shaped like psi), then
        the r product into `out`, which may be psi itself.  Both are new
        arrays by default."""
        n_z = psi.shape[-1]
        if sweep is None:
            sweep = np.empty(psi.shape, dtype=complex)
        np.matmul(psi.reshape(-1, n_z), self._u_zz.T, out=sweep.reshape(-1, n_z))
        return np.matmul(self._u_r, sweep, out=out)

    def _apply_phase(self, psi, ns, v, frac, factor, dens, half):
        """psi *= exp(-i theta), theta = frac dt (v + mean field of psi), in
        place on a complex psi.  All buffers are shaped like psi: dens
        (float) receives |psi|^2, as re^2 + im^2; `half` (float, C-ordered)
        receives -theta/2, then t = tan(-theta/2), then 1 + t^2; and the
        factor is built in `factor` (complex, C-ordered) from that one
        tangent, cos theta = (1 - t^2)/(1 + t^2) and -sin theta = 2t/(1 +
        t^2).  These are within 2.3e-16 of np.cos and np.sin, where
        2/(1 + t^2) - 1 would differ by up to 3.4e-16 at small t.  |t| stays
        below tan of the double nearest pi/2, about 1.6e16, so t^2 is
        finite."""
        np.square(psi.real, out=dens)
        np.square(psi.imag, out=half)
        dens += half
        _mean_field(self.g4, psi, ns, dens, out=half)
        half += v
        half *= -0.5 * frac * self.dt
        np.tan(half, out=half)
        re, im = factor.real, factor.imag
        np.add(half, half, out=im)
        np.square(half, out=half)
        np.subtract(1.0, half, out=re)
        half += 1.0
        re /= half
        im /= half
        psi *= factor
        return psi

    def phase(self, psi, ns, v, frac):
        """psi times exp(-i frac dt (v + mean field of psi)), a new array: frac
        0.5 opens a state at v, 1 is the phase of a step, -0.5 closes an
        open state."""
        out = np.array(psi, dtype=complex)
        return self._apply_phase(out, ns, v, frac, *_work(out.shape))

    def step(self, psi, ns, v_t_dt, work=None):
        """Advance an open state by one dt: the kinetic sweep, then the full
        phase at v_t_dt, the (4, n_r, n_z) potential stack at t + dt.

        Without `work`, psi is left as it is and a new array is returned.
        With work = (sweep, dens, half), a C-ordered complex and two
        C-ordered float arrays shaped like psi (see `_work`), the step is in
        place: psi (complex) is overwritten and returned, and it allocates
        no array of psi's size.  The z product goes to `sweep`, the r
        product back to psi, |psi|^2 of the swept state to `dens`, the
        phase's argument and its tangent to `half`, and the phase factor is
        built in `sweep`, which the r product has read, and multiplied into
        psi.  `dens` then holds the stepped state's density, to roundoff.
        """
        if work is None:
            psi = np.array(psi, dtype=complex)
            work = _work(psi.shape)
        sweep, dens, half = work
        self._kinetic(psi, sweep, out=psi)
        return self._apply_phase(psi, ns, v_t_dt, 1.0, sweep, dens, half)

    def check_norms(self, psi, dens=None):
        """Largest drift from 1 of the grid norms of psi's fields; raises
        IntegrationError above NORM_TOL.  A caller that holds dens = |psi|^2
        passes it, and psi is then not read."""
        if dens is None:
            dens = np.abs(psi) ** 2
        drift = np.max(np.abs(integrate(self.grid, dens) - 1.0))
        if drift > NORM_TOL:
            raise IntegrationError(f"norm drift {drift:.3e} exceeds {NORM_TOL:.1e}")
        return drift


def stable_dt(grid, g4, potentials, psi, ns):
    """Step-size rule max(|V| + g n_max) dt < DT_MARGIN, restricted to the
    region the wavefunctions actually sample (density above DT_FLOOR of the
    peak).

    Its g n sums g_aa' N_a' |psi_a'|^2 over every a', the self atom
    included: an upper bound on the mean field.  It stays apart from
    _mean_field, whose self factor max(N_a - 1, 0) would change the dt of
    every config that leaves dt unset."""
    dens = np.abs(psi) ** 2
    mask = dens.max(axis=tuple(range(dens.ndim - 2))) > DT_FLOOR * dens.max()
    gn = np.einsum("ab,...bij->...aij", np.asarray(g4), np.asarray(ns)[..., :, None, None] * dens)
    scale = (np.abs(potentials) + gn)[..., mask].max()
    return DT_MARGIN / scale


def energy_fields(grid, psi, ns, potentials, g4):
    """Energy functional of the multicomponent condensate.

    E = sum_a N_a <phi_a|h_a + mean field / 2|phi_a>
      = sum_a N_a <phi_a|h_a|phi_a> + sum_a g_aa/2 N_a max(N_a-1, 0) int |phi_a|^4
        + sum_{a != a'} g_aa'/2 N_a N_a' int |phi_a|^2 |phi_a'|^2,
    with the self-interaction floor of the GPE's mean field.
    """
    ns = np.asarray(ns, dtype=float)
    veff = potentials + 0.5 * _mean_field(g4, psi, ns)
    return ns @ np.real(inner(grid, psi, grid.kinetic(psi) + veff * psi))


def chemical_potential(grid, psi, ns, potentials, g4):
    """Per-component chemical potentials mu_a = <phi_a|h_a + mean field|phi_a>."""
    return _gpe_residual(grid, psi, ns, potentials, g4)[1]


def gpe_residual(grid, psi, ns, potentials, g4):
    """Grid norm of (h + mean field - mu) phi per component."""
    return norm(grid, _gpe_residual(grid, psi, ns, potentials, g4)[0])


def ground_state(grid, ns, potentials, g4, tol=GS_TOL, psi0=None):
    """Coupled ground state by preconditioned nonlinear conjugate gradient.

    Solves every component of potentials, time-independent and shaped
    (n_comp, n_r, n_z), with occupations ns (n_comp) and couplings g4
    (n_comp, n_comp), until each component's gpe_residual is below tol.
    The iteration is the energy-adaptive preconditioned CG of Antoine,
    Levitt & Tang (J. Comput. Phys. 343, 92 (2017)) on the product of the
    components' unit spheres, for the energy with weights w_a = max(N_a, 1)
    in place of N_a, so that an empty component, which carries no energy,
    still converges.  The preconditioner P_a = (K + alpha_a)^-1, with
    alpha_a the kinetic energy of component a plus 1, is exact in K's
    eigenbasis.  Each P_a r_a is P-projected onto the tangent of psi_a's
    sphere; directions are combined by Polak-Ribiere+ and restart when
    they are not a descent.  One step t moves every component, psi_a by the
    angle t |d_a| along psi_a cos + d_a/|d_a| sin.  t is a secant on the
    slope sum_a w_a <r_a, d psi_a/dt>, half the energy's derivative, from
    residuals rather than energies, whose differences fall below roundoff
    near the solution; the secant starts from the previous step.

    The Hamiltonian is real, so from a real start (a Gaussian, or psi0)
    every iterate is real and float64; a psi0 with a nonzero imaginary part
    raises ValueError.  A start already below tol returns after no
    iteration.  Raises ConvergenceError after GS_MAX_ITER iterations.
    Returns the real float64 (n_comp, n_r, n_z) wavefunctions, each
    unit-normalized.
    """
    ns = np.asarray(ns, dtype=float)
    potentials = np.asarray(potentials, dtype=float)
    if psi0 is None:
        psi = np.empty(potentials.shape)
        for a, v in enumerate(potentials):
            i0, j0 = np.unravel_index(np.argmin(v), grid.shape)
            z0 = grid.z[j0]
            gauss = np.exp(-0.5 * (grid.r[:, None] ** 2 + (grid.z[None, :] - z0) ** 2))
            psi[a] = gauss / norm(grid, gauss)
    else:
        if np.any(np.imag(psi0) != 0.0):
            raise ValueError("psi0 must be real-valued: the ground state "
                             "is solved in real arithmetic")
        psi = np.real(psi0).astype(float)
        psi /= norm(grid, psi)[:, None, None]

    w = np.maximum(ns, 1.0)
    d, t = None, 1.0
    for it in range(GS_MAX_ITER + 1):
        res, mu, veff = _gpe_residual(grid, psi, ns, potentials, g4)
        resn = norm(grid, res)
        if resn.max() < tol:
            return psi
        if it == GS_MAX_ITER:
            break
        alpha = mu - inner(grid, psi, veff * psi) + 1.0
        p_res, p_psi = grid.precondition(np.stack([res, psi]), alpha)
        p_res -= (inner(grid, psi, p_res) / inner(grid, psi, p_psi))[:, None, None] * p_psi
        rp = w @ inner(grid, res, p_res)
        if d is not None:
            beta = max((rp - w @ inner(grid, res_prev, p_res)) / rp_prev, 0.0)
            d = beta * d - p_res
            d -= inner(grid, psi, d)[:, None, None] * psi
            s0 = w @ inner(grid, res, d)
        if d is None or s0 >= 0.0:
            d, s0 = -p_res, -rp
        res_prev, rp_prev = res, rp

        dn = norm(grid, d)[:, None, None]
        d_hat = d / np.maximum(dn, np.finfo(float).tiny)

        def arc(t):
            """psi moved by the step t, and its derivative in t."""
            c, s = np.cos(t * dn), np.sin(t * dn)
            return c * psi + s * d_hat, dn * (c * d_hat - s * psi)

        t0 = t
        psi_t0, dpsi_t0 = arc(t0)
        s1 = w @ inner(grid, _gpe_residual(grid, psi_t0, ns, potentials, g4)[0], dpsi_t0)
        t = t0 * s0 / (s0 - s1) if s1 > s0 else 2.0 * t0
        # no component turns by more than a right angle
        t = min(t, 0.5 * np.pi / dn.max())
        psi = arc(t)[0]
        psi /= norm(grid, psi)[:, None, None]
    raise ConvergenceError(
        f"ground state not converged after {GS_MAX_ITER} iterations, "
        f"residual {resn.max():.3e}")
