"""Quantum averages over the multi-Fock-state superposition.

After the pulse the many-body state is a binomial superposition over the
within-well number splittings; each splitting carries its own set of four
wavefunctions.  Under the linearization in the splitting (phase gradients and
a displacement-linear reduced phase), the average of any one- or two-body
operator collapses to a small window of splitting terms around the mean,
evaluated here with vectorized slot integrals.

Each slot integral over the window is kept factored, J = A M B^T, with one
factor per well along the window and a small middle over Chebyshev orders
and a few exact tail cells; a window sum contracts the factors on those
orders, and no window-by-window table is ever formed.

The six collective spins are one coefficient table over the ladder pairs
psi_c^dag psi_a.  Their first and second moments are contractions of that
table with the distinct one-body and two-slot averages, each evaluated once.

A brute-force evaluator that walks the full superposition with explicit
per-configuration wavefunction arrays is provided for cross-checking at
small atom number; it shares no arithmetic with the fast path.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .meanfield import FockVector

EDGE_TOL = 1e-14      # smallest binomial weight, over the peak, that a window keeps
HERM_TOL = 1e-6       # largest imaginary part of a spin moment, over N (N^2 if second)
ANGLE_TOL = 1e-6      # epr_witness: golden-section stopping width of each angle
MIN_CONTRAST = 1e-6   # epr_witness: smallest well-b contrast with a defined witness
PSD_TOL = 1e-12       # epr_witness: most negative covariance eigenvalue / max|eig|
CHEB_CUT = 1e-17      # largest |eps_n J_n(k s)| a slot table's expansion drops
CHEB_NOISE = 8.0      # FFT tail past that order allowed, in eps (1 + max|k s|)


def binomial_weights(n, c0, c1):
    """Number distribution of a coherent spin state: the normalized
    C(n, k) |c0|^{2k} |c1|^{2(n-k)} for k = 0 .. n.

    Built in the log domain from the neighbour ratios, summed outward from
    the mode, so nothing overflows at any n and the weights near the peak
    carry only a few ulp.  Both amplitudes must be nonzero.
    """
    k = np.arange(n)
    # log w[k + 1] - log w[k]
    lr = np.log((n - k) / (k + 1.0)) + 2.0 * (math.log(abs(c0))
                                              - math.log(abs(c1)))
    m = int(np.count_nonzero(lr > 0))    # the weights rise up to m, then fall
    logw = np.concatenate((-np.cumsum(lr[:m][::-1])[::-1], [0.0],
                           np.cumsum(lr[m:])))
    w = np.exp(logw)
    return w / w.sum()


def falling(x, d, out=1.0):
    """out times the falling factorial x (x - 1) ... (x - d + 1), one factor
    at a time, elementwise."""
    for i in range(d):
        out = out * (x - i)
    return out


class TruncationError(RuntimeError):
    pass


class WitnessUndefinedError(RuntimeError):
    pass


@dataclass(frozen=True)
class MultiIndex:
    """Normal-ordered two-slot operator term.

    Represents  prod_a psi_a^dag(r)^gamma_a psi_a(r')^dag^gamma'_a
                prod_a psi_a(r)^delta_a psi_a(r')^delta'_a
    integrated over r and r'.  Single-position operators set the primed
    exponents to zero.
    """

    gamma: tuple
    delta: tuple
    gamma_p: tuple = (0, 0, 0, 0)
    delta_p: tuple = (0, 0, 0, 0)

    def __post_init__(self):
        for e in (self.gamma, self.delta, self.gamma_p, self.delta_p):
            if len(e) != 4 or any(x < 0 or int(x) != x for x in e):
                raise ValueError(f"exponents must be four non-negative ints, got {e}")

    @property
    def gamma_tot(self):
        return tuple(g + gp for g, gp in zip(self.gamma, self.gamma_p))

    @property
    def delta_tot(self):
        return tuple(d + dp for d, dp in zip(self.delta, self.delta_p))

    @property
    def two_position(self):
        return any(self.gamma_p) or any(self.delta_p)

    def conserves_wells(self):
        g, d = self.gamma_tot, self.delta_tot
        return (g[0] + g[1] == d[0] + d[1]) and (g[2] + g[3] == d[2] + d[3])


@dataclass(frozen=True)
class CorrelatorInputs:
    """Flattened snapshot of the fields needed to evaluate averages.

    weights : (M,) volume weights
    phibar  : (4, M) central wavefunctions
    grad    : (4, 2, M) phase derivative of component alpha w.r.t. a unit
              transfer in well a (index 0) or b (index 1)
    theta_u : (2,) reduced phase per unit transfer along each well
    nbar    : central Fock configuration
    C       : (4,) pulse amplitudes of the four components

    Immutable: the arrays are read-only copies, so what `_cache` keeps
    (overlaps, windows, slot tables, Bessel rows) never goes stale.  Build
    the final fields first, or derive new inputs with dataclasses.replace.
    """

    weights: np.ndarray
    phibar: np.ndarray
    grad: np.ndarray
    theta_u: np.ndarray
    nbar: FockVector
    C: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        for name in ("weights", "phibar", "grad", "theta_u", "C"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(np.abs(self.C) < 1e-300):
            raise ValueError("pulse amplitudes must all be nonzero")

    @property
    def n_a(self):
        return self.nbar.n_a

    @property
    def n_b(self):
        return self.nbar.n_b

    def theta(self, p_a, p_b):
        return p_a * self.theta_u[0] + p_b * self.theta_u[1]

    def displaced_overlap(self, a, p_a, p_b):
        """<phi_a(N + Delta)|phi_a(N)> for a transfer displacement (p_a, p_b).

        Kept per (a, p_a, p_b): one set of spin moments asks for a few dozen
        distinct ones, each an exp over every cell, over a hundred times."""
        key = ("overlap", a, p_a, p_b)
        hit = self._cache.get(key)
        if hit is None:
            dens = np.abs(self.phibar[a]) ** 2
            phase = p_a * self.grad[a, 0] + p_b * self.grad[a, 1]
            hit = self._cache[key] = complex(
                np.sum(self.weights * dens * np.exp(-1j * phase)))
        return hit

    # -- window machinery ----------------------------------------------------

    def _well_ks(self, well, dplus):
        """Splitting offsets k (relative to nbar of the 0 component) kept in
        the window for one well, with their coefficient weights.

        The window is every N_s0 whose binomial weight exceeds EDGE_TOL times
        the peak, kept where the annihilators act: N_s0 >= dplus_s0 and
        N_s1 >= dplus_s1.  Kept per (well, d0, d1) and pulse amplitudes,
        read-only."""
        s = 0 if well == "a" else 2
        d0, d1 = dplus[s], dplus[s + 1]
        key = ("window", well, d0, d1, complex(self.C[s]),
               complex(self.C[s + 1]))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n0, n1 = self.nbar[s], self.nbar[s + 1]
        n = n0 + n1
        p = binomial_weights(n, self.C[s], self.C[s + 1])
        kept = np.flatnonzero(p > EDGE_TOL * p.max())   # unimodal: one run
        j = np.arange(max(kept[0], d0), min(kept[-1], n - d1) + 1)
        # coefficient weight N! / ((N_s0 - d0)! (N_s1 - d1)!) |c0|^{2 N_s0}
        # |c1|^{2 N_s1} at |c0|^2 + |c1|^2 = 1: the binomial weight of
        # N_s0 = j (binomial_weights, shared with the four-mode oracle)
        # times the ladder falling factorials N_s0!/(N_s0 - d0)! and
        # N_s1!/(N_s1 - d1)!
        ks, wts = j - n0, falling(n - j, d1, falling(j, d0, p[j]))
        ks.setflags(write=False)
        wts.setflags(write=False)
        self._cache[key] = ks, wts
        return ks, wts

    def _slot_table(self, gs, ds, m_a, m_b, ks_a, ks_b):
        """Window table of one slot integral, as factors (A, M, B) with
        J = A M B^T; J itself is never built.

        J[ia, ib] = sum_x w(x) B(x) exp(i m . Ybar(x))
                    exp(i (k_a[ia] Xt_a(x) + k_b[ib] Xt_b(x)))
        with B = prod conj(phibar)^gs phibar^ds,
        Xt_s = sum_a (ds_a - gs_a) grad[a, s], Ybar_s = sum_a gs_a grad[a, s].

        M = (core, tail) is block diagonal, a dense core and a diagonal held
        as a vector; A's first core.shape[0] columns and B's first
        core.shape[1] pair with the core, the rest with the tail.

        A density-like slot (gs == ds) has Xt = 0: every entry is the one
        number sum_x w B exp(i m . Ybar), so A and B are ones columns and
        the core is that number, 1 x 1.  Otherwise the cells split
        (_tail_split) into a Chebyshev core and an exact tail.  On the core
        the phase rows of each well factor as exp(i k Xt_s) = coef_s T_s
        (_jacobi_anger), so A = [coef_a | E_a], B = [coef_b | E_b] and
        core = T_a diag(w B exp(i m . Ybar)) T_b^T: the sum over cells runs
        over expansion orders, not over the window.  Each tail cell is one
        column E_s = exp(i k Xt_s(x)) of A and B, with that cell's
        w B exp(i m . Ybar) in the tail.
        """
        key = ("table", gs, ds, m_a, m_b, ks_a[0], ks_a[-1], ks_b[0], ks_b[-1])
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        base = self.weights.astype(complex).copy()
        for a in range(4):
            if gs[a]:
                base *= np.conj(self.phibar[a]) ** gs[a]
            if ds[a]:
                base *= self.phibar[a] ** ds[a]
        ybar_a = sum(gs[a] * self.grad[a, 0] for a in range(4))
        ybar_b = sum(gs[a] * self.grad[a, 1] for a in range(4))
        base *= np.exp(1j * (m_a * ybar_a + m_b * ybar_b))
        if gs == ds:
            factors = (np.ones((ks_a.size, 1)),
                       (np.array([[base.sum()]]), np.zeros(0, complex)),
                       np.ones((ks_b.size, 1)))
        else:
            xt_a = sum((ds[a] - gs[a]) * self.grad[a, 0] for a in range(4))
            xt_b = sum((ds[a] - gs[a]) * self.grad[a, 1] for a in range(4))
            # the split and the outer factors depend on Xt and the windows
            # only, so the tables of one Xt share them
            outer_key = ("outer", tuple(np.subtract(ds, gs)), ks_a[0],
                         ks_a[-1], ks_b[0], ks_b[-1])
            outer = self._cache.get(outer_key)
            tail = (outer[0] if outer is not None
                    else _tail_split(xt_a, xt_b, ks_a, ks_b))
            core = np.ones(base.size, bool)
            core[tail] = False
            coef_a, basis_a = _jacobi_anger(ks_a, xt_a[core], self._cache)
            coef_b, basis_b = _jacobi_anger(ks_b, xt_b[core], self._cache)
            if outer is None:
                e_a = np.exp(1j * np.multiply.outer(ks_a, xt_a[tail]))
                e_b = np.exp(1j * np.multiply.outer(ks_b, xt_b[tail]))
                outer = self._cache[outer_key] = (
                    tail, np.hstack([coef_a, e_a]), np.hstack([coef_b, e_b]))
            # the real bases take the real and imaginary parts of the core's
            # base stacked, in one real product
            bc = base[core]
            parts = basis_a[:, None] * np.stack([bc.real, bc.imag])
            mid = (parts.reshape(-1, bc.size) @ basis_b.T).reshape(
                len(basis_a), 2, len(basis_b))
            factors = (outer[1], (mid[:, 0] + 1j * mid[:, 1], base[tail]),
                       outer[2])
        self._cache[key] = factors
        return factors


def _reach(ks):
    """Largest |k| of a window."""
    return int(max(-ks[0], ks[-1]))


def _table_flops(cells, t, n_a, n_b, k_a, k_b):
    """Estimated flops of one slot table with t of its cells in the exact
    tail, Chebyshev core orders n_a and n_b (terms per well) and windows of
    k_a and k_b splittings: building the factors (bases by recurrence, the
    core's real product, the tail's exp columns) plus contracting the table
    with itself in one two-slot term (fock_sum_average)."""
    core = cells - t
    r_a, r_b = n_a + t, n_b + t
    build = core * (n_a + n_b) + 4 * core * n_a * n_b + 8 * t * (k_a + k_b)
    contract = 8 * (k_a * r_a * r_a + k_b * r_b * r_b
                    + r_a * r_b * (n_a + n_b + 1))
    return build + contract


def _tail_split(xt_a, xt_b, ks_a, ks_b):
    """Cells of a slot table's exact tail, as sorted indices.

    The cells are ranked by their reach max_s |k_s| |Xt_s - median Xt_s|,
    the phase that sets the Chebyshev order, and the t of largest reach go
    to the tail.  t is the least _table_flops over t = 0, 1, 2, 4, ...
    below the number of cells, the core orders being _bessel_order's of
    the core's half-ranges.  A few far cells can set the order of the whole
    table; the tail takes them exactly, for a few columns per cell.
    """
    k_a, k_b = _reach(ks_a), _reach(ks_b)
    reach = np.maximum(k_a * np.abs(xt_a - np.median(xt_a)),
                       k_b * np.abs(xt_b - np.median(xt_b)))
    order = np.argsort(-reach, kind="stable")
    best, t = None, 0
    while t < order.size:
        core = order[t:]
        n_a = _bessel_order(0.5 * k_a * np.ptp(xt_a[core])) + 1
        n_b = _bessel_order(0.5 * k_b * np.ptp(xt_b[core])) + 1
        cost = _table_flops(order.size, t, n_a, n_b, ks_a.size, ks_b.size)
        if best is None or cost < best[0]:
            best = (cost, t)
        t = 2 * t if t else 1
    return np.sort(order[:best[1]])


def _bessel_order(z):
    """Highest order n of the Jacobi-Anger expansion of exp(i z u) that
    keeps every dropped 2 |J_m(z)|, m > n, below CHEB_CUT.

    Kapteyn's inequality |J_m(m sech a)| <= exp(m (tanh a - a)), m > z,
    bounds the tail; the bound falls monotonically in m."""
    if z == 0.0:
        return 0
    m = np.arange(math.floor(z) + 1, 2 * math.ceil(z) + 64)
    a = np.arccosh(m / z)
    below = m * (np.tanh(a) - a) < math.log(0.5 * CHEB_CUT)
    return int(m[np.argmax(below)]) - 1


def _bessel_rows(s, kmax):
    """J_n(k s) for k = 0 .. kmax and n = 0 .. _bessel_order(kmax s),
    shape (kmax + 1, n + 1).

    One FFT over phi of exp(i k s sin phi) gives every row: its n-th
    Fourier coefficient is J_n(k s).  The samples are a power of two past
    2 n + 32, so the orders that alias onto 0 .. n lie past the cut too,
    and what the FFT returns past order n must be rounding noise, else
    TruncationError: the expansion never drops a tail it has not bounded.
    """
    z = s * np.arange(kmax + 1)
    n = _bessel_order(z[-1])
    size = 1 << (2 * n + 32).bit_length()
    phi = (2.0 * math.pi / size) * np.arange(size)
    spec = np.fft.fft(np.exp(1j * np.multiply.outer(z, np.sin(phi))), axis=1)
    spec /= size
    tail = np.abs(spec[:, n + 1:size - n]).max()
    if not tail <= CHEB_NOISE * np.finfo(float).eps * (1.0 + z[-1]):
        raise TruncationError(
            f"Jacobi-Anger tail {tail:.2e} past order {n} at |k s| = "
            f"{z[-1]:.4g} is not rounding noise")
    return spec[:, :n + 1].real.copy()      # the copy frees the FFT buffer


def _jacobi_anger(ks, xt, memo):
    """exp(i k xt) for the consecutive integers ks as coef @ basis.

    The variable is centred on the midpoint c of xt's range: with the
    half-range s and u = (xt - c) / s, the Jacobi-Anger expansion
    exp(i k s u) = sum_n eps_n i^n J_n(k s) T_n(u) (eps_0 = 1, else 2)
    gives coef[j, n] = exp(i ks[j] c) eps_n i^n J_n(ks[j] s), shape
    (ks.size, n + 1), and the real basis[n] = T_n(u) by the Chebyshev
    recurrence, shape (n + 1, xt.size); n is _bessel_order(max|k| s), set by
    the half-range, not by max|xt|.  The _bessel_rows of each (s, max|k|)
    are kept in the dict memo, under ("bessel", s, max|k|): the slots of one
    well share their Xt up to sign, so a few serve every table.
    """
    lo, hi = float(xt.min()), float(xt.max())
    c, s = 0.5 * (lo + hi), 0.5 * (hi - lo)
    kmax = _reach(ks)
    rows = memo.get(("bessel", s, kmax))
    if rows is None:
        rows = memo["bessel", s, kmax] = _bessel_rows(s, kmax)
    n = rows.shape[1] - 1
    eps_i = np.array([2, 2j, -2, -2j])[np.arange(n + 1) % 4]
    eps_i[0] = 1.0
    coef = rows[np.abs(ks)] * eps_i
    coef[ks < 0, 1::2] *= -1.0          # J_n(-z) = (-1)^n J_n(z)
    if c:
        coef *= np.exp(1j * c * ks)[:, None]
    basis = np.empty((n + 1, xt.size))
    basis[0] = 1.0
    if n:
        basis[1] = (xt - c) / s
        twice = 2.0 * basis[1]
        for m in range(1, n):
            np.multiply(twice, basis[m], out=basis[m + 1])
            basis[m + 1] -= basis[m - 1]
    return coef, basis


def _times_middle(g, middle):
    """g M for a factored table's middle M = (core, tail): g's last axis
    runs over M's rows."""
    core, tail = middle
    n = core.shape[0]
    return np.concatenate([g[..., :n] @ core, g[..., n:] * tail], axis=-1)


def _middle_times(middle, g):
    """M g for a factored table's middle M = (core, tail): g's rows run
    over M's columns."""
    core, tail = middle
    n = core.shape[1]
    return np.concatenate([core @ g[:n], tail[:, None] * g[n:]])


def fock_sum_average(inp, idx):
    """Average of a MultiIndex operator term over the multi-Fock superposition.

    Fast path: the sum over number splittings is restricted to the binomial
    window, the splitting dependence of the wavefunctions enters only through
    the phase-gradient fields, and the reduced-phase / overlap factors are
    global to the term.

    The window sum contracts the factored slot tables J = A M B^T
    (_slot_table) on their expansion orders.  A one-slot term is
    (w_a^T A) M (B^T w_b).  A two-slot term w_a^T (J1 o J2) w_b is
    sum (M1 G_b) o (G_a M2), with G_a = A1^T diag(w_a) A2 and
    G_b = B1^T diag(w_b) B2: O(K n^2) for a window of K splittings and
    n orders, where the product of the tables would cost O(K^2 n).
    """
    if not idx.conserves_wells():
        return 0.0 + 0.0j
    gt, dt = idx.gamma_tot, idx.delta_tot
    # transfer displacement of the bra splitting relative to the ket
    p_a = gt[0] - dt[0]
    p_b = gt[2] - dt[2]
    delta = (p_a, -p_a, p_b, -p_b)

    ks_a, w_a = inp._well_ks("a", dt)
    ks_b, w_b = inp._well_ks("b", dt)
    if ks_a.size == 0 or ks_b.size == 0:
        return 0.0 + 0.0j

    # global factors: reduced phase, the residue of the amplitude-phase
    # difference against the spectator-atom overlaps (the splitting dependence
    # cancels exactly between the two), and the pulse amplitudes of the
    # transferred atoms
    glob = np.exp(1j * inp.theta(p_a, p_b))
    for a in range(4):
        expo = -(gt[a] + dt[a] - 1) / 2.0
        if expo != 0.0:
            glob *= inp.displaced_overlap(a, p_a, p_b) ** expo
        if delta[a] != 0:
            glob *= np.conj(inp.C[a]) ** delta[a]

    m_a = dt[0] - gt[0]
    m_b = dt[2] - gt[2]
    a1, m1, b1 = inp._slot_table(idx.gamma, idx.delta, m_a, m_b, ks_a, ks_b)
    if idx.two_position:
        a2, m2, b2 = inp._slot_table(idx.gamma_p, idx.delta_p, m_a, m_b,
                                     ks_a, ks_b)
        g_a = a1.T @ (w_a[:, None] * a2)
        g_b = b1.T @ (w_b[:, None] * b2)
        core = np.sum(_middle_times(m1, g_b) * _times_middle(g_a, m2))
    else:
        core = _times_middle(w_a @ a1, m1) @ (w_b @ b1)
    return complex(glob * core)


def linearization_reach(inp):
    """(reach_max, reach_rms): how far the window's phases k Xt reach over
    the ladder slots of both wells (a0^dag a1, b0^dag b1) and both transfer
    axes, with w the half-width of each axis's window.

    reach_max is w max|Xt - c|, c the midpoint of Xt's range: the figure
    that sets an unsplit slot table's Chebyshev order.  reach_rms is w times
    the rms of Xt about its mean, both weighted by the slot density
    |phibar_c phibar_a| weights: the reach over the bulk of the cloud.
    """
    half = [_reach(inp._well_ks(well, (0, 0, 0, 0))[0]) for well in "ab"]
    reach_max = reach_rms = 0.0
    for c, a in ((0, 1), (2, 3)):
        dens = np.abs(inp.phibar[c] * inp.phibar[a]) * inp.weights
        dens /= dens.sum()
        for s in range(2):
            xt = inp.grad[a, s] - inp.grad[c, s]
            dev = xt - dens @ xt
            reach_max = max(reach_max, 0.5 * half[s] * float(np.ptp(xt)))
            reach_rms = max(reach_rms, half[s] * math.sqrt(dens @ dev ** 2))
    return reach_max, reach_rms


def brute_force_average(inp, idx):
    """Reference evaluator: explicit sum over every number splitting.

    Builds the per-splitting wavefunction arrays, takes overlaps by direct
    quadrature and exact factorial arithmetic, and carries the amplitude
    phase through the reduced-phase/overlap identity.  Cost is quadratic in
    the atom numbers; meant for small systems only.
    """
    if not idx.conserves_wells():
        return 0.0 + 0.0j
    gt, dt = idx.gamma_tot, idx.delta_tot
    p_a = gt[0] - dt[0]
    p_b = gt[2] - dt[2]
    delta = np.array([p_a, -p_a, p_b, -p_b])
    nbar = inp.nbar
    n_a, n_b = nbar.n_a, nbar.n_b
    w = inp.weights
    C = inp.C

    def fields(k_a, k_b):
        ph = k_a * inp.grad[:, 0] + k_b * inp.grad[:, 1]
        return inp.phibar * np.exp(1j * ph)

    total = 0.0 + 0.0j
    for na0 in range(n_a + 1):
        for nb0 in range(n_b + 1):
            occ = np.array([na0, n_a - na0, nb0, n_b - nb0])
            occp = occ + delta
            if np.any(occ - np.array(dt) < 0) or np.any(occp - np.array(gt) < 0):
                continue
            if np.any(occp < 0) or occp[0] > n_a or occp[2] > n_b:
                continue
            k_a = na0 - nbar.n_a0
            k_b = nb0 - nbar.n_b0
            ket = fields(k_a, k_b)
            bra = fields(k_a + p_a, k_b + p_b)
            # superposition amplitudes (multinomial and pulse factors)
            amp = math.sqrt(math.factorial(n_a) * math.factorial(n_b)
                            / math.prod(math.factorial(int(n)) for n in occ))
            ampp = math.sqrt(math.factorial(n_a) * math.factorial(n_b)
                             / math.prod(math.factorial(int(n)) for n in occp))
            cfac = math.prod(C[al] ** int(occ[al]) for al in range(4))
            cfacp = math.prod(np.conj(C[al]) ** int(occp[al]) for al in range(4))
            # ladder matrix elements
            lad = math.prod(
                math.sqrt(math.factorial(int(occ[al]))
                          / math.factorial(int(occ[al] - dt[al])))
                * math.sqrt(math.factorial(int(occp[al]))
                            / math.factorial(int(occp[al] - gt[al])))
                for al in range(4))
            # slot integrals by quadrature
            s1 = w.astype(complex).copy()
            for al in range(4):
                if idx.gamma[al]:
                    s1 *= np.conj(bra[al]) ** idx.gamma[al]
                if idx.delta[al]:
                    s1 *= ket[al] ** idx.delta[al]
            s1 = s1.sum()
            if idx.two_position:
                s2 = w.astype(complex).copy()
                for al in range(4):
                    if idx.gamma_p[al]:
                        s2 *= np.conj(bra[al]) ** idx.gamma_p[al]
                    if idx.delta_p[al]:
                        s2 *= ket[al] ** idx.delta_p[al]
                s2 = s2.sum()
            else:
                s2 = 1.0
            # spectator-atom overlaps
            ov = np.array([np.sum(w * np.conj(bra[al]) * ket[al])
                           for al in range(4)])
            spect = math.prod(ov[al] ** int(occ[al] - dt[al]) for al in range(4))
            # amplitude-phase difference via the reduced-phase identity
            phase = np.exp(1j * inp.theta(p_a, p_b))
            for al in range(4):
                expo = -(occ[al] + (delta[al] - 1) / 2.0)
                phase *= ov[al] ** expo
            total += ampp * amp * cfacp * cfac * lad * s1 * s2 * spect * phase
    return complex(total)


# ---------------------------------------------------------------------------
# spin operators and their first and second moments

# S_i = sum_{c,a} SPIN[i, c, a] psi_c^dag psi_a over the components
# (a0, a1, b0, b1), i in SpinMoments' order; the four-mode oracle reads the
# same table.  x and y take a0^dag a1 as the raising operator, but z is
# (n1 - n0)/2, so that [S_x, S_y] = -i S_z (ROADMAP F4).
SPIN = np.zeros((6, 4, 4), complex)
SPIN[:3, :2, :2] = SPIN[3:, 2:, 2:] = 0.5 * np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[-1, 0], [0, 1]]])

# the (c, a) pairs some S_i reads: the 8 within-well pairs
_PAIRS = list(zip(*np.nonzero(SPIN.any(axis=0))))
_EYE = [tuple(int(k == c) for k in range(4)) for c in range(4)]


@dataclass
class SpinMoments:
    """First and (symmetrized, non-central) second moments of the six
    collective spin components (Sx_a, Sy_a, Sz_a, Sx_b, Sy_b, Sz_b)."""

    mean: np.ndarray          # (6,)
    second: np.ndarray        # (6, 6) real, <{S_i S_j}/2>
    n_a: int
    n_b: int

    @property
    def cov(self):
        return self.second - np.outer(self.mean, self.mean)

    def phase(self, well):
        """Mean-spin azimuthal angle of one well."""
        o = 0 if well == "a" else 3
        return math.atan2(self.mean[o + 1], self.mean[o])

    def spin_length(self, well):
        """|<S_perp>| of one well (the planar mean-spin length)."""
        o = 0 if well == "a" else 3
        return math.hypot(self.mean[o], self.mean[o + 1])

    def contrast(self, well):
        n = self.n_a if well == "a" else self.n_b
        return 2.0 * self.spin_length(well) / n


def spin_moments(inp, evaluator=fock_sum_average):
    """All first and second moments of the collective spins of both wells.

    With G1[c, a] = <psi_c^dag psi_a> and the two-slot
    D[c, a, c', a'] = <psi_c^dag psi_c'^dag psi_a psi_a'>, the means are
    SPIN : G1 and the products are
    <S_i S_j> = SPIN_i SPIN_j : D + (SPIN_i @ SPIN_j) : G1, whose second,
    contact term comes from [psi_a(r), psi_c'^dag(r')] = delta_ac'
    delta(r - r') in normal ordering.  Each distinct term is evaluated once:
    G1 on the 8 pairs SPIN reads, D on the 36 unordered couples of them and
    mirrored, since swapping the two slots leaves a term unchanged.
    `inp` is whatever the evaluator reads, with the atom numbers n_a and
    n_b: CorrelatorInputs here, a four-mode state for oracle4mode.
    """
    g1 = np.zeros((4, 4), complex)
    for c, a in _PAIRS:
        g1[c, a] = evaluator(inp, MultiIndex(_EYE[c], _EYE[a]))
    d = np.zeros((4, 4, 4, 4), complex)
    for k, (c, a) in enumerate(_PAIRS):
        for cp, ap in _PAIRS[k:]:
            d[c, a, cp, ap] = d[cp, ap, c, a] = evaluator(inp, MultiIndex(
                _EYE[c], _EYE[a], gamma_p=_EYE[cp], delta_p=_EYE[ap]))
    mean = np.einsum("ica,ca->i", SPIN, g1)
    pair = (np.einsum("ica,jdb,cadb->ij", SPIN, SPIN, d)
            + np.einsum("ica,jab,cb->ij", SPIN, SPIN, g1))
    pair = 0.5 * (pair + pair.T)

    scale = 0.5 * (inp.n_a + inp.n_b)
    for v in mean:
        if abs(v.imag) > HERM_TOL * max(scale, 1.0):
            raise RuntimeError(f"spin mean has imaginary part {v.imag:.3e}")
    for i, j in zip(*np.triu_indices(6)):
        if abs(pair[i, j].imag) > HERM_TOL * max(scale * scale, 1.0):
            raise RuntimeError(
                f"symmetrized second moment ({i},{j}) has imaginary part "
                f"{pair[i, j].imag:.3e}")
    return SpinMoments(mean=mean.real.copy(), second=pair.real.copy(),
                       n_a=inp.n_a, n_b=inp.n_b)


# ---------------------------------------------------------------------------
# quadratures and the steering witness

def _cov4(m):
    """Covariance of (S_yphi^a, S_z^a, S_yphi^b, S_z^b): the orthonormal
    basis per well in the 6-axis space, after unrotating the mean spin to
    the x axis."""
    phi_a = m.phase("a")
    phi_b = m.phase("b")
    v = np.zeros((4, 6))
    v[0, 0], v[0, 1] = -math.sin(phi_a), math.cos(phi_a)   # S_yphi^a
    v[1, 2] = 1.0                                          # S_z^a
    v[2, 3], v[2, 4] = -math.sin(phi_b), math.cos(phi_b)   # S_yphi^b
    v[3, 5] = 1.0                                          # S_z^b
    return v @ m.cov @ v.T


def _quadratures(cov4, alpha, beta):
    """(var_a, var_a90, var_b, var_b90, cov_ab, cov_ab90) of the quadratures
    S_alpha^a, S_beta^b and their conjugates; angles broadcast together."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    A, B, X = cov4[:2, :2], cov4[2:, 2:], cov4[:2, 2:]

    def quad(u0, u1, M, v0, v1):
        return (u0 * (M[0, 0] * v0 + M[0, 1] * v1)
                + u1 * (M[1, 0] * v0 + M[1, 1] * v1))

    return (quad(ca, sa, A, ca, sa), quad(-sa, ca, A, -sa, ca),
            quad(cb, sb, B, cb, sb), quad(-sb, cb, B, -sb, cb),
            quad(ca, sa, X, cb, sb), quad(-sa, ca, X, -sb, cb))


def quadrature_moments(m, alpha, beta):
    """Variances and covariances of the quadratures S_alpha^a, S_beta^b and
    their conjugates (alpha, beta measured from S_yphi toward S_z)."""
    keys = ("var_a", "var_a90", "var_b", "var_b90", "cov_ab", "cov_ab90")
    return {k: float(q) for k, q in
            zip(keys, _quadratures(_cov4(m), alpha, beta))}


@dataclass
class EPRResult:
    e_epr: float
    alpha: float
    beta: float
    spin_len_a: float
    spin_len_b: float
    contrast_a: float
    contrast_b: float
    inferred_var_1: float
    inferred_var_2: float
    overlap_a: float = float("nan")
    overlap_b: float = float("nan")


def _witness_sq(cov4, len_b, angles_a, angles_b):
    """Vectorized squared witness over angle arrays (broadcast together)."""
    var_a, var_a90, var_b, var_b90, cov_ab, cov_ab90 = \
        _quadratures(cov4, angles_a, angles_b)
    num = 4.0 * (var_a * var_b - cov_ab ** 2) * (var_a90 * var_b90 - cov_ab90 ** 2)
    den = var_a * var_a90 * len_b ** 2
    return num / den


def _float_witness_sq(cov4, len_b):
    """_witness_sq(cov4, len_b, alpha, beta) of two Python floats, as a
    function of them: the arithmetic of _quadratures and _witness_sq, in
    their order, on the floats of the 2 x 2 blocks A = cov4[:2, :2],
    B = cov4[2:, 2:] and X = cov4[:2, 2:], with math.cos and math.sin.  The
    refinement of epr_witness makes a few hundred calls, each a few times
    cheaper than on NumPy scalars.  Raises WitnessUndefinedError where a
    quadrature variance of well a vanishes: 0/0 in the inferred variance."""
    (a00, a01, x00, x01), (a10, a11, x10, x11), (_, _, b00, b01), \
        (_, _, b10, b11) = cov4.tolist()
    len_b2 = len_b ** 2

    def witness_sq(alpha, beta):
        ca, sa = math.cos(alpha), math.sin(alpha)
        cb, sb = math.cos(beta), math.sin(beta)
        var_a = ca * (a00 * ca + a01 * sa) + sa * (a10 * ca + a11 * sa)
        var_a90 = -sa * (a00 * -sa + a01 * ca) + ca * (a10 * -sa + a11 * ca)
        var_b = cb * (b00 * cb + b01 * sb) + sb * (b10 * cb + b11 * sb)
        var_b90 = -sb * (b00 * -sb + b01 * cb) + cb * (b10 * -sb + b11 * cb)
        cov_ab = ca * (x00 * cb + x01 * sb) + sa * (x10 * cb + x11 * sb)
        cov_ab90 = -sa * (x00 * -sb + x01 * cb) + ca * (x10 * -sb + x11 * cb)
        num = (4.0 * (var_a * var_b - cov_ab ** 2)
               * (var_a90 * var_b90 - cov_ab90 ** 2))
        den = var_a * var_a90 * len_b2
        if not den:
            raise WitnessUndefinedError(
                f"quadrature variance of well a vanishes at alpha = {alpha}")
        return num / den
    return witness_sq


def _golden_min(f, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def epr_witness(m):
    """Minimize the product steering witness over both quadrature angles.

    Coarse 2-degree grid scan over [0, pi)^2 followed by coordinatewise
    golden-section refinement on Python floats.  Shifting both angles by
    pi/2 swaps each quadrature with its conjugate and leaves the witness
    unchanged, so each minimum has a partner, and roundoff decides which one
    the search finds.  The one reported has inferred_var_1 <= inferred_var_2:
    a rule on the moments, not on the angles.  Raises WitnessUndefinedError
    when the mean spin of the inferring well has collapsed (witness
    denominator ~ 0), when a quadrature variance of well a vanishes at a
    refinement angle (its inferred variance is 0/0 there), or when the
    moments are not those of a state: a quadrature covariance that is not
    positive semidefinite, or a negative squared witness.
    """
    len_b = m.spin_length("b")
    if 2.0 * len_b / max(m.n_b, 1) < MIN_CONTRAST:
        raise WitnessUndefinedError(
            f"well-b contrast {2.0 * len_b / max(m.n_b, 1):.2e} below "
            f"{MIN_CONTRAST:.0e}; witness denominator vanishes")
    cov4 = _cov4(m)
    eig = np.linalg.eigvalsh(cov4)
    if eig[0] < -PSD_TOL * np.abs(eig).max():
        raise WitnessUndefinedError(
            f"quadrature covariance has eigenvalue {eig[0]:.3e} against "
            f"{np.abs(eig).max():.3e}; the moments are not those of a state")

    grid = np.arange(0.0, math.pi, math.pi / 90.0)
    vals = _witness_sq(cov4, len_b, grid[:, None], grid[None, :])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    alpha, beta = float(grid[i]), float(grid[j])
    half = math.pi / 90.0

    witness_sq = _float_witness_sq(cov4, len_b)
    for _ in range(8):
        alpha = _golden_min(lambda x: witness_sq(x, beta),
                            alpha - half, alpha + half, ANGLE_TOL)
        beta = _golden_min(lambda x: witness_sq(alpha, x),
                           beta - half, beta + half, ANGLE_TOL)
        half = max(10.0 * ANGLE_TOL, half * 0.25)

    e2 = float(_witness_sq(cov4, len_b, np.asarray(alpha), np.asarray(beta)))
    if e2 < 0.0:
        raise WitnessUndefinedError(f"squared witness {e2:.3e} is negative")
    var_a, var_a90, var_b, var_b90, cov_ab, cov_ab90 = \
        _quadratures(cov4, alpha, beta)
    inf1 = float(var_b - cov_ab ** 2 / var_a)
    inf2 = float(var_b90 - cov_ab90 ** 2 / var_a90)
    if inf1 > inf2:                     # the partner minimum
        alpha, beta = alpha + math.pi / 2, beta + math.pi / 2
        inf1, inf2 = inf2, inf1
    return EPRResult(
        e_epr=math.sqrt(e2),
        alpha=alpha % math.pi,
        beta=beta % math.pi,
        spin_len_a=m.spin_length("a"),
        spin_len_b=len_b,
        contrast_a=m.contrast("a"),
        contrast_b=m.contrast("b"),
        inferred_var_1=inf1,
        inferred_var_2=inf2,
    )
