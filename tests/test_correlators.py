import math

import numpy as np
import pytest

from becsteer.grid import build_grid
from becsteer.fockflow import central_fock
from becsteer import correlators
from becsteer.correlators import (CorrelatorInputs, MultiIndex, SpinMoments,
                                  TruncationError, WitnessUndefinedError,
                                  brute_force_average, epr_witness,
                                  fock_sum_average, quadrature_moments,
                                  spin_moments)
from becsteer.oracle4mode import four_mode_average, oracle_moments, pulse_state


def synthetic_inputs(n_a, n_b, seed=0, grad_scale=0.03, C=None,
                     theta=(0.13, -0.07)):
    """Small grid with randomized smooth gradient fields."""
    rng = np.random.default_rng(seed)
    grid = build_grid(8, 12, 0.5, 0.5, -3.0)
    M = grid.n_r * grid.n_z
    w = grid.weights.reshape(M)
    phibar = np.empty((4, M), complex)
    for a in range(4):
        f = np.exp(-0.5 * ((grid.r[:, None] / (1.0 + 0.1 * a)) ** 2
                           + (grid.z[None, :] - 0.2 * a) ** 2))
        f = (f * np.exp(1j * 0.1 * a * grid.z[None, :])).reshape(M)
        phibar[a] = f / math.sqrt(np.sum(w * np.abs(f) ** 2))
    grad = np.empty((4, 2, M))
    for a in range(4):
        for d in range(2):
            c1, c2 = rng.normal(scale=grad_scale, size=2)
            g = c1 * np.sin(0.7 * grid.z[None, :] + 0.3 * d) \
                + c2 * np.cos(0.4 * grid.r[:, None])
            grad[a, d] = g.reshape(M)
    if C is None:
        C = np.array([1.0, 1.0, 1.0, 1.0]) / math.sqrt(2.0)
    return CorrelatorInputs(weights=w, phibar=phibar, grad=grad,
                            theta_u=np.array(theta), nbar=central_fock(n_a, n_b),
                            C=np.asarray(C, complex))


ONE_BODY = MultiIndex((1, 0, 0, 0), (0, 1, 0, 0))


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex((1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        MultiIndex((1, 0, 0, -1), (0, 1, 0, 0))


def test_well_nonconserving_terms_vanish():
    inp = synthetic_inputs(6, 6)
    # a0^dag b0 moves an atom between wells: strictly zero
    idx = MultiIndex((1, 0, 0, 0), (0, 0, 1, 0))
    assert fock_sum_average(inp, idx) == 0.0
    assert brute_force_average(inp, idx) == 0.0


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_fast_path_matches_brute_force(n, seed):
    inp = synthetic_inputs(n, n, seed=seed)
    terms = [
        MultiIndex((1, 0, 0, 0), (0, 1, 0, 0)),
        MultiIndex((0, 1, 0, 0), (0, 1, 0, 0)),
        MultiIndex((0, 0, 1, 0), (0, 0, 0, 1)),
        MultiIndex((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        MultiIndex((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
        MultiIndex((1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)),
        MultiIndex((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ]
    for idx in terms:
        fast = fock_sum_average(inp, idx)
        ref = brute_force_average(inp, idx)
        assert abs(fast - ref) <= 1e-10 * max(abs(ref), 1.0), idx


def test_fast_path_matches_brute_force_odd_wells_complex_pulse():
    C = np.array([1.0, 1.0j, 1.0, 0.6 + 0.8j]) / math.sqrt(2.0)
    inp = synthetic_inputs(7, 5, seed=3, C=C)
    m_fast = spin_moments(inp)
    m_ref = spin_moments(inp, evaluator=brute_force_average)
    assert np.abs(m_fast.mean - m_ref.mean).max() < 1e-10 * m_ref.n_a
    assert np.abs(m_fast.second - m_ref.second).max() < 1e-9 * m_ref.n_a ** 2


def window_half_width(inp):
    """Largest splitting offset of well a's window."""
    return int(inp._well_ks("a", (0, 0, 0, 0))[0][-1])


def production_inputs():
    """N = 4000 per well (window 507 per well) on smooth random fields,
    scaled so that the largest |k Xt| of the a0^dag a1 and b1^dag b0 slots,
    over both wells, is 400 rad.  fig3 at N = 4000 reaches 373 rad when
    stepped at dt = 0.05, the benchmark's step; at the committed dt = 0.004
    it reaches 5-14 rad."""
    rng = np.random.default_rng(0)
    m = 2000
    x = np.linspace(-1.0, 1.0, m)
    phibar = np.empty((4, m), complex)
    for a in range(4):
        c = rng.normal(size=3)
        phibar[a] = np.exp(-x ** 2 + 1j * (c[0] * x + c[1] * x ** 2 + c[2]))
    grad = np.empty((4, 2, m))
    for a in range(4):
        for s in range(2):
            c = rng.normal(size=4)
            grad[a, s] = sum(cj * np.cos((j + 1) * x + cj)
                             for j, cj in enumerate(c))
    inp = CorrelatorInputs(weights=np.full(m, 2.0 / m), phibar=phibar,
                           grad=grad, theta_u=np.array([0.01, -0.02]),
                           nbar=central_fock(4000, 4000),
                           C=np.full(4, 1.0 / math.sqrt(2.0)))
    xt = np.stack([grad[1] - grad[0], grad[2] - grad[3]])
    inp.grad *= 400.0 / (window_half_width(inp) * np.abs(xt).max())
    return inp


def direct_slot_table(inp, gs, ds, m_a, m_b, ks_a, ks_b):
    """The _slot_table docstring formula with one exp per entry."""
    base = inp.weights.astype(complex)
    for a in range(4):
        base = base * np.conj(inp.phibar[a]) ** gs[a] * inp.phibar[a] ** ds[a]
    ybar = np.tensordot(gs, inp.grad, axes=1)
    xt = np.tensordot(np.subtract(ds, gs), inp.grad, axes=1)
    base = base * np.exp(1j * (m_a * ybar[0] + m_b * ybar[1]))
    ea = np.exp(1j * np.multiply.outer(ks_a, xt[0]))
    eb = np.exp(1j * np.multiply.outer(ks_b, xt[1]))
    return (ea * base) @ eb.T


@pytest.mark.parametrize("gs,ds,m_a,m_b", [
    ((1, 0, 0, 0), (0, 1, 0, 0), 1, 0),
    ((0, 0, 0, 1), (0, 0, 1, 0), 0, -1),
    ((0, 1, 0, 0), (0, 1, 0, 0), -1, 1),
    ((0, 0, 1, 0), (0, 0, 1, 0), 0, 1)])
def test_slot_table_at_production_size(gs, ds, m_a, m_b):
    inp = production_inputs()
    w = window_half_width(inp)
    assert 2 * w + 1 == 507
    # the a window clipped on one side
    ks_a, ks_b = np.arange(-w + 3, w + 1), np.arange(-w, w + 1)
    table = inp._slot_table(gs, ds, m_a, m_b, ks_a, ks_b)
    ref = direct_slot_table(inp, gs, ds, m_a, m_b, ks_a, ks_b)
    assert table.shape == ref.shape
    assert np.abs(table - ref).max() <= 1e-12 * np.abs(ref).max()
    if gs == ds:
        assert table.strides == (0, 0)


def expanded_rows(ks, xt):
    """exp(i k xt) rebuilt from the factors _jacobi_anger returns."""
    coef, basis = correlators._jacobi_anger(ks, xt, {})
    return coef @ basis


def smooth_field(peak, m=3001):
    """A smooth field on m cells with max|xt| = peak, its extremum inside."""
    x = np.linspace(-1.0, 1.0, m)
    xt = np.cos(2.3 * x + 0.4) + 0.3 * np.sin(7.1 * x) * x
    return xt * (peak / np.abs(xt).max())


@pytest.mark.parametrize("ks,peak", [
    *((np.arange(-253, 254), z / 253) for z in (0.0, 1.0, 50.0, 400.0, 600.0)),
    (np.arange(-250, 254), 0.4), (np.arange(-253, 3), 0.4),
    (np.array([7]), 0.4), (np.array([-5]), 0.4), (np.array([0]), 0.4)])
def test_jacobi_anger_matches_direct_exp(ks, peak):
    xt = smooth_field(peak)
    rows = expanded_rows(ks, xt)
    assert rows.shape == (ks.size, xt.size)
    # both sides round phases of up to max|k s| rad (the direct exp its
    # argument, the expansion its FFT samples and u = xt / s), so past
    # ~150 rad a few ulp of the phase exceed 1e-13
    tol = max(1e-13, 3.0 * np.finfo(float).eps * peak * np.abs(ks).max())
    assert np.abs(rows - np.exp(1j * np.multiply.outer(ks, xt))).max() <= tol


def test_jacobi_anger_of_zero_field():
    # coherent_inputs: identical orbitals and no gradients give Xt = 0
    coef, basis = correlators._jacobi_anger(np.arange(-30, 31), np.zeros(50), {})
    assert basis.shape == (1, 50)
    assert np.all(coef == 1.0) and np.all(basis == 1.0)


def test_jacobi_anger_tail_guard_raises(monkeypatch):
    # an order short of the Bessel tail must raise, not drop the tail
    monkeypatch.setattr(correlators, "_bessel_order", lambda z: int(z) // 2)
    with pytest.raises(TruncationError, match="tail"):
        correlators._jacobi_anger(np.arange(-100, 101), smooth_field(0.5), {})


def coherent_inputs(n_a, n_b):
    """Identical orbitals, zero gradients and theta: coherent spin states."""
    inp = synthetic_inputs(n_a, n_b, grad_scale=0.0, theta=(0.0, 0.0))
    inp.grad[:] = 0.0
    inp.phibar[1] = inp.phibar[0]
    inp.phibar[3] = inp.phibar[2]
    return inp


def test_coherent_state_moments_at_t0():
    inp = coherent_inputs(40, 30)
    m = spin_moments(inp)
    assert m.mean[0] == pytest.approx(20.0, abs=1e-8)
    assert m.mean[3] == pytest.approx(15.0, abs=1e-8)
    assert abs(m.mean[1]) < 1e-8 and abs(m.mean[2]) < 1e-8
    cov = m.cov
    assert cov[2, 2] == pytest.approx(10.0, abs=1e-8)   # var Sz_a = N/4
    assert cov[5, 5] == pytest.approx(7.5, abs=1e-8)
    assert abs(cov[1, 4]) < 1e-8 and abs(cov[2, 5]) < 1e-8


@pytest.mark.parametrize("n_a, n_b, C", [
    (20, 20, [math.cos(0.5), math.sin(0.5), math.cos(0.5), math.sin(0.5)]),
    (40, 30, [1.0, np.exp(0.4j), 1.0, np.exp(-0.9j)] / np.sqrt(2.0))],
    ids=["real-20", "phased-40-30"])
def test_spin_moments_match_four_mode_model(n_a, n_b, C):
    # on coherent inputs the windowed Fock sum and the four-mode model's
    # one-well sums are two evaluators of the same averages: each term that
    # spin_moments reads, and then the moments, agree
    inp = coherent_inputs(n_a, n_b)
    inp.C = np.asarray(C, complex)
    st = pulse_state(n_a, n_b, C)
    terms = []

    def recorded(inp, idx):
        terms.append((idx, fock_sum_average(inp, idx)))
        return terms[-1][1]
    m = spin_moments(inp, evaluator=recorded)
    for idx, got in terms:
        ref = four_mode_average(st, idx)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0), idx
    ref = oracle_moments(st)
    assert np.abs(m.mean - ref.mean).max() <= 1e-12
    assert np.abs(m.second - ref.second).max() <= 1e-11


def test_skewed_pulse_window_follows_the_distribution():
    # |c0| = 0.8 puts the binomial peak at N_s0 = 2560, 18 standard
    # deviations from the even split N_s0 = 2000 that the offsets k count from
    C = [0.8, 0.6, 0.8, 0.6]
    inp = coherent_inputs(4000, 4000)
    inp.C = np.asarray(C, complex)
    m = spin_moments(inp)
    ref = oracle_moments(pulse_state(4000, 4000, C))
    assert np.abs(m.mean - ref.mean).max() <= 1e-14 * np.abs(ref.mean).max()
    assert np.abs(m.second - ref.second).max() <= 1e-14 * np.abs(ref.second).max()


def test_spin_moments_evaluate_each_term_once():
    calls = []

    def counted(inp, idx):
        calls.append(idx)
        return fock_sum_average(inp, idx)
    spin_moments(synthetic_inputs(6, 6), evaluator=counted)
    # 8 one-body terms and 36 unordered couples of them
    assert len(calls) == 44 and len(set(calls)) == 44


def test_witness_unity_at_t0():
    inp = coherent_inputs(40, 40)
    r = epr_witness(spin_moments(inp))
    assert r.e_epr == pytest.approx(1.0, abs=1e-8)
    assert r.contrast_a == pytest.approx(1.0, abs=1e-10)


def test_default_window_covers_distribution():
    # the window is the run of binomial weights above EDGE_TOL times the
    # peak: every weight kept is above it, and the first one dropped on
    # each side, where there is one, is not
    for n, c0, c1 in ((60, 1.0, 1.0), (61, 0.8, 0.6), (4000, 1.0, 1.0),
                      (4000, 0.8, 0.6), (4000, 0.995, 0.1), (30, 0.999, 0.04)):
        C = np.array([c0, c1, 1.0, 1.0]) / np.hypot(c0, c1)
        inp = synthetic_inputs(n, 2, C=C)
        p = correlators.binomial_weights(n, C[0], C[1])
        cut = correlators.EDGE_TOL * p.max()
        ks, _ = inp._well_ks("a", (0, 0, 0, 0))
        j = ks + inp.nbar.n_a0
        assert np.array_equal(j, np.arange(j[0], j[-1] + 1))
        assert np.all(p[j] > cut)
        assert j[0] == 0 or p[j[0] - 1] <= cut
        assert j[-1] == n or p[j[-1] + 1] <= cut
        # the annihilators clip the window at the physical edges only
        for dplus in ((2, 0, 0, 0), (0, 2, 0, 0)):
            jd = inp._well_ks("a", dplus)[0] + inp.nbar.n_a0
            assert jd[0] == max(j[0], dplus[0])
            assert jd[-1] == min(j[-1], n - dplus[1])


@pytest.mark.parametrize("dplus", [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                                   (1, 1, 0, 0), (2, 0, 0, 0)])
def test_window_weights_exact_at_production_size(dplus):
    # N!/((N_a0 - d0)! (N_a1 - d1)!) 2^-N in exact integer arithmetic (the
    # int / int division rounds once); a few ulp of log N! ~ 2.9e4 carried
    # through exp bound the float weights by 1e-10
    n = 4000
    inp = synthetic_inputs(n, n)
    ks, wts = inp._well_ks("a", dplus)
    assert ks[0] == -253 and ks.size == 2 * 253 + 1
    n0, fact_n = inp.nbar.n_a0, math.factorial(n)
    for k, w in zip(ks, wts):
        a, b = n0 + k - dplus[0], n - n0 - k - dplus[1]
        exact = fact_n / (math.factorial(a) * math.factorial(b) * 2 ** n)
        assert w == pytest.approx(exact, rel=1e-10)


def test_pulse_amplitude_enters_one_body_mean():
    C = np.array([0.8, 0.6, 1 / math.sqrt(2), 1 / math.sqrt(2)])
    inp = synthetic_inputs(30, 30, grad_scale=0.0, theta=(0.0, 0.0), C=C)
    inp.grad[:] = 0.0
    val = fock_sum_average(inp, ONE_BODY)
    # <a0^dag a1> = N C0* C1 <phi_a0|phi_a1>
    ov = np.sum(inp.weights * np.conj(inp.phibar[0]) * inp.phibar[1])
    assert val == pytest.approx(30 * 0.8 * 0.6 * ov, rel=1e-10)


def test_quadrature_rotation_consistency():
    inp = synthetic_inputs(10, 10, seed=5)
    m = spin_moments(inp)
    q0 = quadrature_moments(m, 0.0, 0.0)
    q90 = quadrature_moments(m, math.pi / 2, math.pi / 2)
    assert q0["var_a90"] == pytest.approx(q90["var_a"], rel=1e-12)
    assert q0["var_b90"] == pytest.approx(q90["var_b"], rel=1e-12)


def test_witness_angle_optimum_is_minimum():
    inp = synthetic_inputs(10, 10, seed=7, grad_scale=0.08)
    m = spin_moments(inp)
    r = epr_witness(m)
    q = quadrature_moments(m, r.alpha, r.beta)
    e2 = 4.0 * (q["var_a"] * q["var_b"] - q["cov_ab"] ** 2) \
        * (q["var_a90"] * q["var_b90"] - q["cov_ab90"] ** 2) \
        / (q["var_a"] * q["var_a90"] * m.spin_length("b") ** 2)
    assert r.e_epr == pytest.approx(math.sqrt(max(e2, 0.0)), rel=1e-9)
    # perturbing the angles cannot go below the optimum
    for da, db in ((1e-3, 0.0), (0.0, 1e-3), (-1e-3, 1e-3)):
        q2 = quadrature_moments(m, r.alpha + da, r.beta + db)
        e2p = 4.0 * (q2["var_a"] * q2["var_b"] - q2["cov_ab"] ** 2) \
            * (q2["var_a90"] * q2["var_b90"] - q2["cov_ab90"] ** 2) \
            / (q2["var_a"] * q2["var_a90"] * m.spin_length("b") ** 2)
        assert e2p >= e2 - 1e-9


# The spin moments of a fig2a point: N = 100 per well, dz_max = 10 a0,
# t_ramp = 10/omega, t_int = 0.5/omega, stepped at dt = 0.1/omega, the
# configuration of the benchmark's scan_fig2a workload.
FIG2A_MEAN = [0.9260669432610328, 10.002937178354301, -3.552713678800501e-15,
              8.68007554432715, -0.8832591175657316, -3.552713678800501e-15]
FIG2A_SECOND = [
    [31.182294102394213, 8.714227132891132, 11.131966529661025,
     8.240279944146472, 1.129358034907721, -2.4548846697313964],
    [8.714227132891132, 124.29597811790518, -0.9649881919280787,
     86.81741960354329, -9.194900487619265, 0.5621838101837469],
    [11.131966529661025, -0.9649881919280787, 25.000000000006708,
     0.3738562571424282, 2.1499096234948505, 0.0],
    [8.240279944146472, 86.81741960354329, 0.3738562571424282,
     99.77676978271847, -7.254972965993913, -0.7721570081737354],
    [1.129358034907721, -9.194900487619265, 2.1499096234948505,
     -7.254972965993913, 29.99043278746611, -9.82066332407527],
    [-2.4548846697313964, 0.5621838101837469, 0.0, -0.7721570081737354,
     -9.82066332407527, 25.0000000000066]]


def fig2a_moments(mean_scale=1.0, second_scale=1.0):
    return SpinMoments(mean=np.multiply(FIG2A_MEAN, mean_scale),
                       second=np.multiply(FIG2A_SECOND, second_scale),
                       n_a=100, n_b=100)


def test_witness_partner_minima_are_equally_deep():
    m = fig2a_moments()
    cov4, len_b = correlators._cov4(m), m.spin_length("b")
    r = epr_witness(m)
    for a, b in [(r.alpha, r.beta),
                 *np.random.default_rng(0).uniform(0.0, math.pi, (20, 2))]:
        e = math.sqrt(correlators._witness_sq(cov4, len_b, a, b))
        ep = math.sqrt(correlators._witness_sq(cov4, len_b, a + math.pi / 2,
                                               b + math.pi / 2))
        assert abs(ep - e) <= 1e-15 * e


def test_witness_reports_one_partner_under_roundoff():
    # with the moments perturbed at the last bits in 100 directions, the
    # search alone lands on either partner minimum, (alpha, beta) or
    # (alpha + pi/2, beta + pi/2); the reported angles stay on one
    rng = np.random.default_rng(1)
    got = []
    for _ in range(100):
        ds = 1.0 + 4e-16 * rng.standard_normal((6, 6))
        r = epr_witness(fig2a_moments(1.0 + 4e-16 * rng.standard_normal(6),
                                      0.5 * (ds + ds.T)))
        assert r.inferred_var_1 <= r.inferred_var_2
        got.append((r.alpha, r.beta))
    d = np.abs(np.array(got) - got[0]) % math.pi
    assert np.minimum(d, math.pi - d).max() <= 1e-6


def test_witness_undefined_for_collapsed_spin():
    mean = np.zeros(6)
    second = np.diag(np.full(6, 2.5))
    m = SpinMoments(mean=mean, second=second, n_a=10, n_b=10)
    with pytest.raises(WitnessUndefinedError):
        epr_witness(m)


def test_witness_undefined_for_invalid_covariance():
    # a covariance with a negative eigenvalue belongs to no state: its
    # squared witness goes negative, which must not read as E_EPR = 0
    mean = np.array([5.0, 0.0, 0.0, 5.0, 0.0, 0.0])
    cov = np.diag(np.full(6, 2.5))
    cov[2, 5] = cov[5, 2] = 4.0           # eigenvalues 6.5 and -1.5
    m = SpinMoments(mean=mean, second=cov + np.outer(mean, mean),
                    n_a=10, n_b=10)
    with pytest.raises(WitnessUndefinedError, match="not those of a state"):
        epr_witness(m)


def test_inferred_variances_positive():
    inp = synthetic_inputs(12, 12, seed=11, grad_scale=0.05)
    r = epr_witness(spin_moments(inp))
    assert r.inferred_var_1 >= -1e-9
    assert r.inferred_var_2 >= -1e-9
