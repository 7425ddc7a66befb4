"""Exact four-mode reference model.

When the spatial dynamics is adiabatic the protocol reduces to evolution
under chi_a (Sz_a)^2 + chi_b (Sz_b)^2 - chi_ab Sz_a Sz_b, diagonal in the
Fock basis.  This module evolves that model exactly (amplitudes on the
(N_a+1) x (N_b+1) splitting grid), extracts the chi coefficients from
chemical-potential derivatives of the mean-field ground states, and reuses
the witness machinery on the exact moments.  It provides both the adiabatic
analytic curves and a small-N correctness oracle for the full pipeline.
The pulse state's number distribution is `correlators.binomial_weights`, the
same weight that every term of the correlators' Fock sum carries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlators import _AXES, SpinMoments, binomial_weights, epr_witness
from .meanfield import ground_state


@dataclass
class FourModeState:
    """Amplitudes over the number splittings of both wells."""

    c: np.ndarray          # (n_a + 1, n_b + 1) complex
    n_a: int
    n_b: int

    def __post_init__(self):
        nrm = np.sum(np.abs(self.c) ** 2)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {nrm!r} differs from 1")

    def sz_values(self):
        sza = np.arange(self.n_a + 1) - self.n_a / 2.0
        szb = np.arange(self.n_b + 1) - self.n_b / 2.0
        return sza, szb


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

    c = np.outer(well(n_a, C[0], C[1]), well(n_b, C[2], C[3]))
    return FourModeState(c=c, n_a=n_a, n_b=n_b)


def evolve_exact(state, phi_a, phi_b, phi_ab):
    """Apply the accumulated twisting phases (the time integrals of the chi
    coefficients); exactly unitary pointwise phase multiplication."""
    sza, szb = state.sz_values()
    phase = (phi_a * sza[:, None] ** 2 + phi_b * szb[None, :] ** 2
             - phi_ab * sza[:, None] * szb[None, :])
    return FourModeState(c=state.c * np.exp(-1j * phase),
                         n_a=state.n_a, n_b=state.n_b)


def _apply_spin(c, axis, well, n_a, n_b):
    """Apply one collective spin operator to the amplitude array."""
    ax, n = (0, n_a) if well == "a" else (1, n_b)
    k = np.arange(n + 1.0).reshape((-1, 1) if ax == 0 else (1, -1))
    if axis == "z":
        return (k - n / 2.0) * c

    def along(s):
        # index selecting the slice s along this well's axis
        return (s, slice(None)) if ax == 0 else (slice(None), s)
    # `out` before the temporaries: the other order raises the peak resident
    # set by ~15 MB at N = 1000 (same Python-level peak, other heap layout)
    out = np.zeros_like(c)
    hi, lo = along(slice(1, None)), along(slice(None, -1))
    # raising part 0^dag 1: |k> -> sqrt((k+1)(n-k)) |k+1>
    up = np.sqrt(k[hi] * (n - k[hi] + 1.0)) * c[lo]
    dn = np.sqrt((k[lo] + 1.0) * (n - k[lo])) * c[hi]
    c_up, c_dn = (0.5, 0.5) if axis == "x" else (-0.5j, 0.5j)
    out[hi] += c_up * up
    out[lo] += c_dn * dn
    return out


def oracle_moments(state):
    """Exact first and second spin moments of a four-mode state."""
    applied = [_apply_spin(state.c, ax, w, state.n_a, state.n_b)
               for ax, w in _AXES]
    mean = np.array([np.vdot(state.c, a).real for a in applied])
    second = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            v = np.vdot(applied[i], applied[j])
            second[i, j] = second[j, i] = 0.5 * (v + np.conj(v)).real
    return SpinMoments(mean=mean, second=second, n_a=state.n_a, n_b=state.n_b)


def oracle_witness(state):
    return epr_witness(oracle_moments(state))


def casimir(state):
    """<(S^a)^2> and <(S^b)^2>; conserved under the diagonal evolution."""
    out = []
    for w in ("a", "b"):
        s = 0.0
        for ax in ("x", "y", "z"):
            a = _apply_spin(state.c, ax, w, state.n_a, state.n_b)
            s += np.vdot(a, a).real
        out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# chi coefficients from chemical-potential derivatives

def default_dn(n_a, n_b):
    return max(1, round(math.sqrt(min(n_a, n_b)) / 4.0))


def extract_chi(grid, potentials, ns, g4, dn=None, tol=1e-8, psi0=None):
    """Twisting coefficients at one protocol instant.

    chi_sigma = (1/2) d(mu_s0 - mu_s1)/du_sigma and
    chi_ab = -(1/2)[d(mu_a0 - mu_a1)/du_b + d(mu_b0 - mu_b1)/du_a],
    where u_sigma is a population transfer sigma1 -> sigma0; derivatives are
    centered finite differences of ground-state chemical potentials with
    step dn.  The symmetric cross form reduces to the overlap-pair derivative
    when the non-interacting clouds are disjoint, but stays valid in any
    geometry.  Returns (chi_a, chi_b, chi_ab, central ground state).
    """
    ns = np.asarray(ns, dtype=float)
    if dn is None:
        dn = default_dn(int(ns[0] + ns[1]), int(ns[2] + ns[3]))
    u_a = np.array([1.0, -1.0, 0.0, 0.0])
    u_b = np.array([0.0, 0.0, 1.0, -1.0])
    center = ground_state(grid, ns, potentials, g4, tol=tol, psi0=psi0)

    def mus(shift):
        occ = ns + shift
        return ground_state(grid, occ, potentials, g4, tol=tol,
                            psi0=center.psi).mu

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


def adiabatic_rates(cfg, params, n_samples=9, dn=None, tol=1e-8):
    """(ramp integral, hold rate) of the chi coefficients, each (a, b, ab).

    Samples chi along one transport ramp (instantaneous ground states,
    warm-started from neighbouring samples) and integrates it with the
    trapezoidal rule; the hold keeps the end rate (see `twisting_phases`).
    """
    from .sequence import component_potentials

    grid = cfg.build_grid()
    g4 = params.g4()
    ns = np.array([cfg.n_a / 2.0, cfg.n_a / 2.0, cfg.n_b / 2.0, cfg.n_b / 2.0])

    # one ramp's worth of sample times; the backward ramp mirrors it
    ts = np.linspace(0.0, cfg.t_ramp, n_samples)
    chis = []
    psi0 = None
    for t in ts:
        pots = component_potentials(grid, cfg, t, 0.0)
        ca, cb, cab, center = extract_chi(grid, pots, ns, g4, dn=dn, tol=tol,
                                          psi0=psi0)
        psi0 = center.psi
        chis.append((ca, cb, cab))
    chis = np.array(chis)
    ramp = (np.diff(ts)[:, None] * (chis[1:] + chis[:-1]) / 2.0).sum(axis=0)
    return ramp, chis[-1]


def twisting_phases(ramp, rate, t_int):
    """(phi_a, phi_b, phi_ab) of hold time t_int: both ramps plus the hold."""
    return tuple(2.0 * ramp + rate * t_int)
