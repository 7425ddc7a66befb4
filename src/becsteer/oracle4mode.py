"""Exact four-mode reference model.

When the spatial dynamics is adiabatic the protocol reduces to evolution
under chi_a (Sz_a)^2 + chi_b (Sz_b)^2 - chi_ab Sz_a Sz_b, diagonal in the
Fock basis.  This module evolves that model exactly on a pulse state kept
in product form (one amplitude vector per well and the accumulated twist),
averages `MultiIndex` terms over it for `spin_moments` by one-well sums,
each distinct one evaluated once per state, extracts the chi coefficients
from chemical-potential derivatives of the mean-field ground states, and
reuses the witness machinery on the exact moments.  It provides both the adiabatic analytic curves and a correctness
oracle for the full pipeline.
The pulse state's number distribution is `correlators.binomial_weights`, the
same weight that every term of the correlators' Fock sum carries.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .correlators import (binomial_weights, epr_witness, falling,
                          spin_moments)
from .meanfield import GS_TOL, chemical_potential, ground_state
from .sequence import component_potentials


@dataclass(frozen=True)
class FourModeState:
    """A pulse followed by a twist: the state sum_k A(k_a) B(k_b) exp(-i Phi)
    over k_s = N_s0 = 0 .. n_s, with
    Phi = phi_a z_a^2 + phi_b z_b^2 - phi_ab z_a z_b and z_s = k_s - n_s / 2.

    Immutable: the amplitudes are read-only copies, so what the memos keep
    never goes stale.  `_cache` keeps the per-well sums and phase vectors
    of this twist; `_pulse` keeps what the amplitudes alone fix (the
    amplitude products and their falling-factorial weights), and
    `evolve_exact` hands it on to every twist of one pulse.
    """

    amp_a: np.ndarray      # (n_a + 1,) complex, unit norm
    amp_b: np.ndarray      # (n_b + 1,) complex, unit norm
    twist: tuple = (0.0, 0.0, 0.0)     # (phi_a, phi_b, phi_ab)
    _cache: dict = field(default_factory=dict, repr=False, init=False)
    _pulse: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        for name in ("amp_a", "amp_b"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_a(self):
        return self.amp_a.size - 1

    @property
    def n_b(self):
        return self.amp_b.size - 1

    def _weighted(self, s, p, d0, d1, g0, g1):
        """conj(amp[k + p]) amp[k] sqrt(f) of well s (0: a, 2: b) over the
        k = max(0, -p) .. min(n, n - p) where the term's ladder acts, f the
        product of its falling factorials; the amplitude product is shared
        by every f of one p."""
        key = (s, p, d0, d1, g0, g1)
        hit = self._pulse.get(key)
        if hit is not None:
            return hit
        amp = self.amp_a if s == 0 else self.amp_b
        n = amp.size - 1
        k = np.arange(max(0, -p), min(n, n - p) + 1)
        m = k + p
        prod = self._pulse.get((s, p))
        if prod is None:
            prod = self._pulse[s, p] = np.conj(amp[m]) * amp[k]
        f = (falling(k, d0) * falling(n - k, d1)
             * falling(m, g0) * falling(n - m, g1))
        hit = self._pulse[key] = prod * np.sqrt(f)
        return hit

    def _well_sum(self, s, p, rate, d0, d1, g0, g1):
        """sum_k conj(amp[k + p]) amp[k] sqrt(f) exp(i rate (k - n / 2)) of
        well s, once per distinct sum.  The phase vector is built once per
        rate over k = 0 .. n and sliced to each p's k; it is elementwise, so
        a slice holds the bits of the vector built over that k alone.  A
        rate is kept with its sign: 0.0 and -0.0 give phases whose zero
        imaginary parts differ in sign."""
        signed = (rate, math.copysign(1.0, rate))
        key = ("sum", s, p, signed, d0, d1, g0, g1)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n = (self.amp_a if s == 0 else self.amp_b).size - 1
        phase = self._cache.get(("phase", s, signed))
        if phase is None:
            phase = self._cache["phase", s, signed] = np.exp(
                1j * rate * (np.arange(n + 1) - n / 2.0))
        weighted = self._weighted(s, p, d0, d1, g0, g1)
        hit = self._cache[key] = np.sum(
            weighted * phase[max(0, -p):min(n, n - p) + 1])
        return hit


def pulse_state(n_a, n_b, C):
    """Product of two coherent spin states with pulse amplitudes C.

    Each well's amplitudes are the square roots of `binomial_weights` times
    the exactly unit-modulus phases exp(i (k arg c0 + (n - k) arg c1)).
    """
    C = np.asarray(C, dtype=complex)

    def well(n, c0, c1):
        k = np.arange(n + 1)
        phase = k * np.angle(c0) + (n - k) * np.angle(c1)
        return np.sqrt(binomial_weights(n, c0, c1)) * np.exp(1j * phase)

    return FourModeState(well(n_a, C[0], C[1]), well(n_b, C[2], C[3]))


def evolve_exact(state, phi_a, phi_b, phi_ab):
    """Apply the accumulated twisting phases (the time integrals of the chi
    coefficients); the twists commute, so they add.  The new state shares
    the pulse's twist-independent memo."""
    twist = tuple(t + p for t, p in zip(state.twist, (phi_a, phi_b, phi_ab)))
    out = FourModeState(state.amp_a, state.amp_b, twist)
    object.__setattr__(out, "_pulse", state._pulse)
    return out


def four_mode_average(state, idx):
    """Average of a MultiIndex term over a four-mode state.

    Both slots of a term act on the same four modes, so it is the normal-
    ordered prod a^dag^gamma prod a^delta of the summed exponents.  It moves
    k_s by p_s = gamma_s0 - delta_s0, its matrix element is a product of
    falling factorials, and Phi(k + p) - Phi(k) is a constant plus
    (2 phi_a p_a - phi_ab p_b) z_a plus the same for well b: one constant
    times a sum over k_a and a sum over k_b.  The sums come from the
    state's memo, which evaluates each distinct one once.
    """
    if not idx.conserves_wells():
        return 0.0 + 0.0j
    g, d = idx.gamma_tot, idx.delta_tot
    p_a, p_b = g[0] - d[0], g[2] - d[2]
    phi_a, phi_b, phi_ab = state.twist
    out = np.exp(1j * (phi_a * p_a ** 2 + phi_b * p_b ** 2
                       - phi_ab * p_a * p_b))
    for s, p, rate in ((0, p_a, 2 * phi_a * p_a - phi_ab * p_b),
                       (2, p_b, 2 * phi_b * p_b - phi_ab * p_a)):
        out *= state._well_sum(s, p, rate, d[s], d[s + 1], g[s], g[s + 1])
    return complex(out)


def oracle_moments(state):
    """Exact first and second spin moments of a four-mode state."""
    return spin_moments(state, evaluator=four_mode_average)


def oracle_witness(state):
    return epr_witness(oracle_moments(state))


# ---------------------------------------------------------------------------
# chi coefficients from chemical-potential derivatives

def default_dn(n_a, n_b):
    return max(1, round(math.sqrt(min(n_a, n_b)) / 4.0))


def extract_chi(grid, potentials, ns, g4, dn=None, tol=GS_TOL, psi0=None):
    """Twisting coefficients at one protocol instant.

    chi_sigma = (1/2) d(mu_s0 - mu_s1)/du_sigma and
    chi_ab = -(1/2)[d(mu_a0 - mu_a1)/du_b + d(mu_b0 - mu_b1)/du_a],
    where u_sigma is a population transfer sigma1 -> sigma0; derivatives are
    centered finite differences of ground-state chemical potentials with
    step dn.  The symmetric cross form reduces to the overlap-pair derivative
    when the non-interacting clouds are disjoint, but stays valid in any
    geometry.  Returns (chi_a, chi_b, chi_ab, central ground state), the
    last a real (4, n_r, n_z) array.
    """
    ns = np.asarray(ns, dtype=float)
    if dn is None:
        dn = default_dn(int(ns[0] + ns[1]), int(ns[2] + ns[3]))
    u_a = np.array([1.0, -1.0, 0.0, 0.0])
    u_b = np.array([0.0, 0.0, 1.0, -1.0])
    center = ground_state(grid, ns, potentials, g4, tol=tol, psi0=psi0)

    def mus(shift):
        occ = ns + shift
        psi = ground_state(grid, occ, potentials, g4, tol=tol, psi0=center)
        return chemical_potential(grid, psi, occ, potentials, g4)

    mu_pa = mus(+dn * u_a)
    mu_ma = mus(-dn * u_a)
    mu_pb = mus(+dn * u_b)
    mu_mb = mus(-dn * u_b)

    def ddu(mu_p, mu_m, i, j):
        return ((mu_p[i] - mu_p[j]) - (mu_m[i] - mu_m[j])) / (2.0 * dn)

    chi_a = 0.5 * ddu(mu_pa, mu_ma, 0, 1)
    chi_b = 0.5 * ddu(mu_pb, mu_mb, 2, 3)
    chi_ab = -0.5 * (ddu(mu_pb, mu_mb, 0, 1) + ddu(mu_pa, mu_ma, 2, 3))
    return chi_a, chi_b, chi_ab, center


def adiabatic_rates(cfg, params, n_samples=9, tol=GS_TOL):
    """(ramp integral, hold rate) of the chi coefficients, each (a, b, ab).

    Samples chi along one transport ramp (instantaneous ground states,
    warm-started from neighbouring samples) and integrates it with the
    trapezoidal rule; the hold keeps the end rate (see `twisting_phases`).
    """
    grid = cfg.build_grid()
    g4 = params.g4()
    ns = np.array([cfg.n_a / 2.0, cfg.n_a / 2.0, cfg.n_b / 2.0, cfg.n_b / 2.0])

    # one ramp's worth of sample times; the backward ramp mirrors it
    ts = np.linspace(0.0, cfg.t_ramp, n_samples)
    chis = []
    psi0 = None
    for t in ts:
        pots = component_potentials(grid, cfg, t, 0.0)
        ca, cb, cab, psi0 = extract_chi(grid, pots, ns, g4, tol=tol,
                                        psi0=psi0)
        chis.append((ca, cb, cab))
    chis = np.array(chis)
    ramp = (np.diff(ts)[:, None] * (chis[1:] + chis[:-1]) / 2.0).sum(axis=0)
    return ramp, chis[-1]


def twisting_phases(ramp, rate, t_int):
    """(phi_a, phi_b, phi_ab) of hold time t_int: both ramps plus the hold."""
    return tuple(2.0 * ramp + rate * t_int)
