import functools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from etaforge import partrace
from etaforge.asymptotics import ExpansionModel, RadiusLadder
from etaforge.cli import ExperimentConfig, run
from etaforge.errors import OrderError, TruncationError
from etaforge.experiments import _circle_eta_subtracted_trace, _circle_resolvent_trace
from etaforge.partrace import (
    Kernel,
    KernelMonomial,
    SpectralFamily,
    WindowConfig,
    _circle_sum,
    _em_tail,
    eta_kernel,
    l2_trace,
    l2_trace_values,
    resolvent,
    tr_param,
    tr_param_values,
)


# ---------------------------------------------------------------------------
# Oracles


def brute_force_two_sided(summand, n_max=2_000_000):
    """Plain partial sum with an integral tail bound, for oracle validation."""
    n = np.arange(-n_max, n_max + 1)
    return math.fsum(summand(n).tolist())


def test_tanh_identity_against_brute_force():
    # oracle validation: sum over Z of ((n+1/2)^2 + mu^2)^{-1} = pi tanh(pi mu)/mu
    mu = 1.0
    got = brute_force_two_sided(lambda n: 1.0 / ((n + 0.5) ** 2 + mu * mu))
    want = math.pi * math.tanh(math.pi * mu) / mu
    # partial-sum tail is ~ 2/n_max
    assert abs(got - want) < 2e-6


def _eta_kernel_closed_form(a, x):
    # sum over Z of (n+a)((n+a)^2+x^2)^{-2}, from the standard lattice sum
    return (
        math.pi ** 2
        * math.sin(2 * math.pi * a)
        * math.sinh(2 * math.pi * x)
        / (x * (math.cosh(2 * math.pi * x) - math.cos(2 * math.pi * a)) ** 2)
    )


def _resolvent_closed_form(a, x):
    # sum over Z of ((n+a)^2+x^2)^{-1}
    return math.pi * math.sinh(2 * math.pi * x) / (x * (math.cosh(2 * math.pi * x) - math.cos(2 * math.pi * a)))


def test_eta_kernel_closed_form_against_brute_force():
    a, x = 0.25, 1.5
    got = brute_force_two_sided(lambda n: (n + a) / ((n + a) ** 2 + x * x) ** 2, n_max=300000)
    assert abs(got - _eta_kernel_closed_form(a, x)) < 1e-10


# ---------------------------------------------------------------------------
# Kernels


def test_kernel_eval_and_order():
    k = eta_kernel(2)
    lam = np.array([1.0, -2.0, 3.0])
    t = np.array([4.0])
    got = k.eval(lam, t)
    want = lam / (lam ** 2 + 4.0) ** 2
    assert np.max(np.abs(got - want)) < 1e-15


def _weighted_eta(k):
    """t^{k-1} lam (lam^2+t)^{-k}: a kernel with a t power, for the oracles."""
    return Kernel((KernelMonomial(1.0, 1, k - 1, k),))


def test_kernel_dt_matches_finite_difference():
    k = _weighted_eta(2)
    lam = np.array([1.3, -0.7])
    t, h = 2.0, 1e-6
    fd = (k.eval(lam, np.array([t + h])) - k.eval(lam, np.array([t - h]))) / (2 * h)
    got = k.dt().eval(lam, np.array([t]))
    assert np.max(np.abs(got - fd)) < 1e-8


def test_kernel_taylor_remainder_vanishes_to_its_order():
    # K - sum_{j<m} g_j t^j = O(t^m): at t = 1e-3 the remainder of
    # (lam^2+t)^{-2} is t^m times its m-th coefficient, to first order in t
    k = resolvent(2)
    lam = np.array([2.0, -3.0])
    t = 1e-3
    for m in range(6):
        rem = k.taylor_remainder(m).eval(lam, np.array([t]))
        lead = sum(_t_coefficient_oracle(k, m, lam))
        assert np.max(np.abs(rem - lead * t ** m)) <= 1e-2 * np.max(np.abs(lead * t ** m)), m


def test_kernel_product():
    k1, k2 = resolvent(1), eta_kernel(2)
    prod = k1 * k2
    lam, t = np.array([1.7]), np.array([0.9])
    assert abs(prod.eval(lam, t) - k1.eval(lam, t) * k2.eval(lam, t)) < 1e-15


_T_OVER_RESOLVENT = Kernel((KernelMonomial(1.0, 0, 1, 1),))  # t (lam^2+t)^{-1}
_LAM2 = Kernel((KernelMonomial(1.0, 2, 0, 1),))  # lam^2 (lam^2+t)^{-1}


def _family(kern, **pref):
    return SpectralFamily(0.25, kern, **pref)


# each family's order, read off its kernel and prefactor, and the minimal
# Taylor order that the order fixes
_DERIVED_ORDERS = {
    **{f"eta_kernel({k})": (_family(eta_kernel(k)), 1 - 2 * k) for k in range(1, 6)},
    "resolvent(1)": (_family(resolvent(1)), -2),
    "t/(lam^2+t)": (_family(_T_OVER_RESOLVENT), 0),
    "mu t/(lam^2+t)": (_family(_T_OVER_RESOLVENT, pref_power=1), 1),
    "lam^2/(lam^2+t)": (_family(_LAM2), 0),
    "lam^4/(lam^2+t)": (_family(Kernel((KernelMonomial(1.0, 2, 0, 0),)) * _LAM2), 2),
    "tr-derivative oracle": (_family(Kernel((KernelMonomial(2.0, 2, 0, 2), KernelMonomial(-8.0, 2, 1, 3)))), -2),
    "d_mu of resolvent(1)": (_family(resolvent(1)).d_mu(0), -3),
    "a zero-coefficient top monomial": (
        _family(Kernel((KernelMonomial(0.0, 4, 1, 0), KernelMonomial(1.0, 0, 0, 1)))), -2
    ),
}


@pytest.mark.parametrize("name", sorted(_DERIVED_ORDERS))
def test_a_family_order_is_its_kernel_degree(name):
    fam, order = _DERIVED_ORDERS[name]
    assert fam.order == order
    assert fam.minimal_taylor_order() == max(0, order + 2)  # the least m > order + dim_M


@pytest.mark.parametrize("kern", [Kernel(()), Kernel((KernelMonomial(0.0, 4, 1, 0), KernelMonomial(0j, 1, 0, 1)))],
                         ids=["no monomial", "zero coefficients"])
def test_a_kernel_without_a_nonzero_monomial_has_order_minus_infinity(kern):
    assert kern.degree == -math.inf
    for fam in (_family(kern), _family(kern, pref_power=1)):
        assert fam.order == -math.inf
        assert fam.minimal_taylor_order() == 0
        assert tr_param(fam, [1.0]).value == 0.0


def test_an_order_is_not_declared():
    # the prefactor's fields are keyword-only, so a stale call that still
    # passes an order as the third argument fails instead of setting pref_index
    with pytest.raises(TypeError):
        SpectralFamily(0.25, resolvent(1), -2.0)


def _monomial_oracle(mono, lam, t):
    """c lam^a t^b (lam^2 + t)^{-k} for Python scalars."""
    return complex(mono.coef) * lam ** mono.lam_pow * t ** mono.t_pow * (lam * lam + t) ** (-mono.res_pow)


def _t_coefficient_oracle(k, m, lam):
    """sum over monomials of c binom(-k, j) lam^(a - 2k - 2j), j = m - b >= 0."""
    terms = []
    for mono in k.monomials:
        j = m - mono.t_pow
        if j >= 0:
            binom = (-1) ** j * math.comb(mono.res_pow + j - 1, j) if mono.res_pow else float(j == 0)
            terms.append(complex(mono.coef) * binom * lam ** (mono.lam_pow - 2 * mono.res_pow - 2 * j))
    return terms


_ORACLE_KERNELS = {
    "power of lam only": Kernel((KernelMonomial(2.5, 3, 0, 0),)),
    "t power, no resolvent": Kernel((KernelMonomial(-0.5, 1, 2, 0),)),
    "resolvent(1)": resolvent(1),
    "eta_kernel(2)": eta_kernel(2),
    "weighted_eta(3)": _weighted_eta(3),
    "dt of weighted_eta(2)": _weighted_eta(2).dt(),
    "product": resolvent(1) * eta_kernel(2),
    "scaled by 1j": _weighted_eta(2).scale(1j),
    "mixed complex sum": Kernel(
        eta_kernel(1).scale(0.5 - 2j).monomials + resolvent(2).dt().monomials
    ),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_KERNELS))
def test_kernel_eval_against_scalar_oracle(name):
    k = _ORACLE_KERNELS[name]
    lam = np.array([-17.5, -3.0, -1.0, -0.4, 0.3, 1.0, 2.2, 41.0])
    t = np.array([0.0, 0.5, 3.0, 40.0])
    got = k.eval(lam[None, :], t[:, None])
    real = all(complex(m.coef).imag == 0 for m in k.monomials)
    assert got.shape == (len(t), len(lam)) and got.dtype == (np.float64 if real else np.complex128)
    for i, ti in enumerate(t):
        for j, lj in enumerate(lam):
            terms = [_monomial_oracle(m, float(lj), float(ti)) for m in k.monomials]
            assert abs(got[i, j] - sum(terms)) <= 1e-14 * sum(abs(x) for x in terms), (ti, lj)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("name", sorted(_ORACLE_KERNELS))
def test_kernel_taylor_remainder_against_scalar_oracle(name, m):
    # the remainder is K less its Taylor polynomial of degree < m in t, and
    # every one of its monomials carries t^(>= m)
    k = _ORACLE_KERNELS[name]
    rem = k.taylor_remainder(m)
    assert all(mono.t_pow >= m for mono in rem.monomials)
    if m == 0:
        assert rem == k
    lam = np.array([-17.5, -3.0, -1.0, -0.4, 0.3, 1.0, 2.2, 41.0])
    t = np.array([0.0, 0.5, 3.0, 40.0])
    got = rem.eval(lam[None, :], t[:, None])
    for i, ti in enumerate(t):
        for j, lj in enumerate(lam):
            terms = [_monomial_oracle(mono, float(lj), float(ti)) for mono in k.monomials]
            for n in range(m):
                terms += [-g * float(ti) ** n for g in _t_coefficient_oracle(k, n, float(lj))]
            assert abs(got[i, j] - sum(terms)) <= 1e-14 * sum(abs(x) for x in terms), (ti, lj)


# ---------------------------------------------------------------------------
# Traces


def test_l2_trace_tanh():
    fam = SpectralFamily(0.5, resolvent(1))
    for mu in (0.5, 1.0, 5.0):
        tv = l2_trace(fam, [mu])
        want = math.pi * math.tanh(math.pi * mu) / mu
        assert abs(tv.value - want) < 1e-8 * want
        assert "taylor_order" not in tv.truncation  # nothing is subtracted
        assert tv.truncation["tail_estimate"] < 1e-10


def test_l2_trace_zeta_values_at_zero_parameter():
    fam = SpectralFamily(0.25, eta_kernel(2))
    got = l2_trace(fam, [1e-30]).value  # continuous at 0; avoid the lattice point
    want = float(mpmath.zeta(3, 0.25) - mpmath.zeta(3, 0.75))
    assert abs(got - want) < 1e-10


def test_l2_trace_closed_form_at_moderate_mu():
    fam = SpectralFamily(0.25, eta_kernel(2))
    for x in (0.5, 2.0, 4.0):
        got = complex(l2_trace_values(fam, np.array([[x]]))[0])
        assert abs(got - _eta_kernel_closed_form(0.25, x)) < 1e-12


def test_l2_trace_zero_kernel():
    fam = SpectralFamily(0.25, Kernel(()))
    assert l2_trace(fam, [1.0]).value == 0.0


def test_l2_trace_order_precondition():
    # t (lam^2+t)^{-1} has order 0: not trace class on the circle
    fam = SpectralFamily(0.25, _T_OVER_RESOLVENT)
    with pytest.raises(OrderError):
        l2_trace(fam, [1.0])


def test_window_escalation_cap():
    fam = SpectralFamily(0.5, resolvent(1))
    with pytest.raises(TruncationError):
        l2_trace(fam, [1.0], WindowConfig(start=8, cap=8))  # a tail estimate of 2.8e-7 at N = 8


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_em_tail_against_mpmath(s):
    # the estimate bounds the error from the smallest windows up to 65,536,
    # where round-off, not the omitted term, is the error; from x0 = 129 (the
    # first window) the tail is right to 1e-10 relative, and from x0 = 513 to
    # 1e-12
    for a in (0.01, 0.25, 0.5, 0.75, 0.99):
        for x0 in (9.0, 33.0, 129.0, 257.0, 513.0, 1025.0, 4097.0, 65537.0):
            calls = []

            def g(x):
                calls.append(x.shape)
                return (x + a) ** (-float(s))

            tail, est = _em_tail(g, x0)
            assert calls == [(75,)]  # every node of one side in a single call
            with mpmath.workdps(40):
                want = float(mpmath.zeta(s, x0 + a))  # sum_{n >= x0} (n + a)^{-s}
            err = abs(float(tail) - want)
            assert err <= float(est), (a, x0, err, float(est))
            if x0 >= 129.0:
                assert err <= (1e-12 if x0 >= 513.0 else 1e-10) * want, (a, x0, err, want)


def test_circle_sum_reports_widest_window(monkeypatch):
    fam = SpectralFamily(0.5, resolvent(1))
    monkeypatch.setattr(partrace, "_MU_CHUNK", 1)
    cfg = WindowConfig(start=4)
    # a large mu starts at |mu|/8 and clears the tail tolerance at once, a
    # small one needs two escalations
    windows = {mu: _circle_sum(fam, np.array([[mu]]), 0, cfg)[2] for mu in (0.5, 100.0)}
    assert windows == {0.5: 64, 100.0: 13}
    for mus in ([0.5, 100.0], [100.0, 0.5]):
        vals, _, window = _circle_sum(fam, np.array(mus)[:, None], 0, cfg)
        assert window == 64
        want = [math.pi * math.tanh(math.pi * mu) / mu for mu in mus]
        assert np.allclose(vals, want, rtol=1e-9, atol=0.0)
    assert l2_trace(fam, [[100.0], [0.5]], cfg).truncation["window"] == 64


def _one_grid_circle_sum(fam, mu, n_subtract, cfg):
    """The reference for ``_circle_sum``: the whole window of mirrored pairs
    n + b and -(n + 1 - b), n = 0..N, with b the offset reduced to
    (-1/2, 1/2] and N no less than |mu|/8, materialised, and one
    (points x _LAM_BLOCK) summand call per block of pairs and mu-chunk, each
    pair added before the row sum; the tails from one call per side."""
    b = fam.a - math.ceil(fam.a - 0.5)
    c = 1.0 - b
    mu = np.asarray(mu, dtype=float)
    total = np.zeros(len(mu), dtype=complex)
    est = np.zeros(len(mu))
    widest = 0
    for lo in range(0, len(mu), partrace._MU_CHUNK):
        sl = slice(lo, min(lo + partrace._MU_CHUNK, len(mu)))
        chunk = mu[sl]
        N = max(cfg.start, math.ceil(np.max(np.linalg.norm(chunk, axis=1)) / 8.0))
        while True:
            n = np.arange(N + 1)
            pos, neg = n + b, -(n + c)
            vals = np.zeros(len(chunk), dtype=complex)
            for lo_n in range(0, len(n), partrace._LAM_BLOCK // 2):
                h = len(n[lo_n : lo_n + partrace._LAM_BLOCK // 2])
                lam = np.concatenate((pos[lo_n : lo_n + h], neg[lo_n : lo_n + h]))
                v = fam.summand(lam, chunk, n_subtract)
                vals = vals + np.sum(v[:, :h] + v[:, h:], axis=1)
            x0 = float(N + 1)
            tp, ep = _em_tail(lambda x: fam.summand(x + b, chunk, n_subtract), x0)
            tm, em = _em_tail(lambda x: fam.summand(-(x + c), chunk, n_subtract), x0)
            vals = vals + tp + tm
            errs = ep + em
            if np.all(errs <= np.maximum(partrace.WINDOW_RTOL * np.abs(vals), partrace.WINDOW_ATOL)):
                break
            N = min(4 * N, cfg.cap)
        total[sl] = vals
        est[sl] = errs
        widest = max(widest, N)
    return total, est, widest


_BOUNDED_SUM_FAMILIES = {
    "resolvent": (SpectralFamily(0.5, resolvent(1)), 0),
    "weighted_eta subtracted": (SpectralFamily(0.25, _weighted_eta(2)), 1),
    "complex coefficient": (
        SpectralFamily(0.25, Kernel((KernelMonomial(1.0 + 0.5j, 0, 1, 1),))), 2
    ),
    "mu derivative": (SpectralFamily(0.75, resolvent(1)).d_mu(1), 0),
}


def _recorded_summand_sizes(monkeypatch):
    # rows x eigenvalues of every summand call, as the benchmark's tracer counts them
    sizes, summand = [], SpectralFamily.summand

    def recorded(fam, lam, mu, n_subtract):
        sizes.append(np.size(lam) * len(mu))
        return summand(fam, lam, mu, n_subtract)

    monkeypatch.setattr(SpectralFamily, "summand", recorded)
    return sizes


def _bits_of(result):
    vals, est, widest = result
    return vals.tobytes(), est.tobytes(), widest


# one family carries the 1,024-point case: its reference grids take 64 MB each
@pytest.mark.parametrize(
    "name, points", [(name, points) for name in sorted(_BOUNDED_SUM_FAMILIES) for points in (1, 48)]
    + [("resolvent", 1024)],
)
def test_bounded_circle_sum_is_bit_for_bit_the_one_grid_sum(monkeypatch, name, points):
    # a window of three full eigenvalue blocks and one of a single pair (a
    # block's row sums are pairwise sums, so splitting blocks would move bits), bounded
    # summand calls, and the same values, tail estimates, window and terms
    fam, n_subtract = _BOUNDED_SUM_FAMILIES[name]
    cfg = WindowConfig(start=3 * partrace._LAM_BLOCK // 2)
    mu = np.random.default_rng(points).uniform(0.3, 4.0, size=(points, 2))
    sizes = _recorded_summand_sizes(monkeypatch)
    want = _bits_of(_one_grid_circle_sum(fam, mu, n_subtract, cfg))
    reference_terms = sum(sizes)
    sizes.clear()
    assert _bits_of(_circle_sum(fam, mu, n_subtract, cfg)) == want
    assert max(sizes) <= partrace._SUMMAND_ELEMENTS
    assert sum(sizes) == reference_terms
    if points > 8:
        assert len(sizes) > 4  # the mu chunk was taken in row blocks


@pytest.mark.parametrize("mu", [1e6, -3e5])
def test_a_large_mu_starts_the_window_at_an_eighth_of_it(mu):
    # from a window of 4,096, mu = 1e6 read 3.13866e-6 against pi/mu =
    # 3.14159e-6: the tail integral's nodes missed the summand's knee at
    # |lam| ~ |mu|, and its estimate stayed near 1e-18 relative
    fam = SpectralFamily(0.5, resolvent(1))
    res = l2_trace(fam, [mu])
    want = math.pi * math.tanh(math.pi * abs(mu)) / abs(mu)
    assert abs(res.value - want) <= 1e-13 * want
    assert res.truncation["window"] == math.ceil(abs(mu) / 8)
    start = time.perf_counter()
    with pytest.raises(TruncationError, match=r"\|mu\|/8 = 1\.25e\+07, above the maximum eigenvalue window 4194304"):
        l2_trace(fam, [[0.5], [1e8]])
    assert time.perf_counter() - start < 0.1  # before any sum


def test_bounded_circle_sum_escalates_like_the_one_grid_sum(monkeypatch):
    fam, _ = _BOUNDED_SUM_FAMILIES["resolvent"]
    monkeypatch.setattr(partrace, "_MU_CHUNK", 1)
    cfg = WindowConfig(start=4)
    mu = np.array([[0.5], [100.0], [0.05]])
    want = _bits_of(_one_grid_circle_sum(fam, mu, 0, cfg))
    assert want[2] > cfg.start
    assert _bits_of(_circle_sum(fam, mu, 0, cfg)) == want


def test_bounded_circle_sum_allocates_no_window_sized_array(monkeypatch):
    # a 2^22 window: its eigenvalue indices alone would take 64 MB
    fam, _ = _BOUNDED_SUM_FAMILIES["resolvent"]
    N = 1 << 22
    sizes = _recorded_summand_sizes(monkeypatch)
    tracemalloc.start()
    try:
        l2_trace_values(fam, np.array([[1.0]]), WindowConfig(start=N, cap=N))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * N + 1) * 8 // 64, peak
    assert max(sizes) <= partrace._SUMMAND_ELEMENTS


def test_trace_values_are_complex():
    fam = SpectralFamily(0.5, resolvent(1))
    assert l2_trace_values(fam, np.array([[1.0]])).dtype == np.complex128
    assert tr_param_values(fam, np.array([[1.0]])).dtype == np.complex128


def test_tr_param_trace_class_reduces_to_l2():
    fam = SpectralFamily(0.25, eta_kernel(2))
    tv = tr_param(fam, [1.5])
    lv = l2_trace(fam, [1.5])
    assert tv.value == lv.value
    assert tv.truncation["taylor_order"] == 0


def test_tr_param_rotational_reduction():
    # a radial family sees only |mu|, whatever the parameter dimension
    fam = SpectralFamily(0.25, eta_kernel(2))
    pts = np.array([[0.6, -1.1, 2.0], [3.0, 0.0, 0.0]])
    v3 = tr_param_values(fam, pts)
    v1 = tr_param_values(fam, np.linalg.norm(pts, axis=1)[:, None])
    assert np.max(np.abs(v3 - v1)) < 1e-14


def test_tr_param_subtracted_order_zero_family():
    # mu^2 (lam^2 + mu^2)^{-1} has order 0, minimal Taylor order 2, and the
    # canonical representative is the plain (convergent) sum
    fam = SpectralFamily(0.25, Kernel((KernelMonomial(1.0, 0, 1, 1),)))
    tv = tr_param(fam, [2.0])
    assert tv.truncation["taylor_order"] == 2
    brute = brute_force_two_sided(lambda n: 4.0 / ((n + 0.25) ** 2 + 4.0), n_max=500000)
    assert abs(tv.value - brute) < 1e-4  # brute tail ~ 2 mu^2 / n_max


def test_tr_param_derivative_identity():
    # d^2/dmu^2 of the subtracted trace equals 2 lam^2 [(lam^2+mu^2)^{-2}
    # - 4 mu^2 (lam^2+mu^2)^{-3}] summed, a trace-class identity
    fam = SpectralFamily(0.25, Kernel((KernelMonomial(1.0, 0, 1, 1),)))
    mu, h = 2.0, 1e-3

    def tr(x):
        return complex(tr_param_values(fam, np.array([[x]]))[0])

    d2 = (tr(mu + h) - 2 * tr(mu) + tr(mu - h)) / h ** 2
    d2b = (tr(mu + h / 2) - 2 * tr(mu) + tr(mu - h / 2)) / (h ** 2 / 4)
    d2r = (4 * d2b - d2) / 3
    oracle_fam = SpectralFamily(0.25, Kernel((KernelMonomial(2.0, 2, 0, 2), KernelMonomial(-8.0, 2, 1, 3))))
    want = complex(l2_trace_values(oracle_fam, np.array([[mu]]))[0])
    assert abs(d2r - want) < 1e-6


_SUBTRACTED_FAMILIES = {
    # lam^2 (lam^2+mu^2)^{-1} of order 0 and lam^4 (lam^2+mu^2)^{-1} of order
    # 2: their subtracted traces are -mu^2 R(mu) and mu^4 R(mu), R(mu) the
    # resolvent trace sum_n (lam_n^2 + mu^2)^{-1}
    "lam^2": (Kernel((KernelMonomial(1.0, 2, 0, 1),)), lambda mu: -mu ** 2),
    "lam^4": (Kernel((KernelMonomial(1.0, 4, 0, 1),)), lambda mu: mu ** 4),
}


@pytest.mark.parametrize("name", sorted(_SUBTRACTED_FAMILIES))
def test_subtracted_trace_is_independent_of_the_window(name):
    # the remainder carries the subtracted t power, so nothing cancels and a
    # wider window does not lose digits
    a = 0.25
    k, factor = _SUBTRACTED_FAMILIES[name]
    fam = SpectralFamily(a, k)
    for N in (256, 4096, 65536):
        for mu in (0.5, 2.0):
            got = complex(tr_param_values(fam, np.array([[mu]]), WindowConfig(start=N, cap=N))[0])
            want = factor(mu) * _resolvent_closed_form(a, mu)
            assert abs(got - want) <= 1e-13 * abs(want), (N, mu, got, want)


def test_trace_degree_ladder_of_resolvent():
    # fitted degrees of the order -2 circle trace lie on {-1, -2, ...};
    # the closed form pi sinh/(x (cosh - cos)) has leading coefficient pi
    fam = SpectralFamily(0.25, resolvent(1))
    from etaforge.asymptotics import fit_expansion

    fitted = fit_expansion(
        lambda x: tr_param_values(fam, x),
        ExpansionModel.powers([-1, -2, -3]),
        p=1,
        radii=RadiusLadder(4.0, 4096.0, 16),
    )
    lead = fitted.coefficient(-1.0, 0)
    assert np.max(np.abs(lead - math.pi)) < 1e-9
    assert np.max(np.abs(fitted.coefficient(-2.0, 0))) < 1e-6


def test_trace_property_under_the_shift():
    # the shift U e_n = e_(n+1) conjugates D to D + 1, and the window follows
    # the spectrum: the traces on circle(a) and circle(a + m) sum the same
    # eigenvalues and agree bit for bit, half-integer offsets included
    mu = np.array([[0.5], [2.0], [5.0]])
    for k in [resolvent(1)] + [v[0] for v in _SUBTRACTED_FAMILIES.values()]:
        for a, shifts in ((0.25, (1.0, -3.0)), (0.5, (1.0, -1.0))):
            va = tr_param_values(SpectralFamily(a, k), mu)
            for m in shifts:
                vb = tr_param_values(SpectralFamily(a + m, k), mu)
                assert va.tobytes() == vb.tobytes(), (k, a, m)


_ODD_KERNELS = {
    "eta_kernel(1)": eta_kernel(1),
    "eta_kernel(2)": eta_kernel(2),
    "eta_kernel(3)": eta_kernel(3),
    "complex lam^3 t": Kernel((KernelMonomial(1.0 - 2.0j, 3, 1, 4),)),
}


@pytest.mark.parametrize("a", [0.5, -2.5, 1000.5])
@pytest.mark.parametrize("cfg", [WindowConfig(), WindowConfig(start=1)], ids=["default", "start-1"])
def test_a_symmetric_spectrum_cancels_exactly(a, cfg):
    # at a half-integer offset the eigenvalues come in pairs +-lam, so an odd
    # summand's window, tails and every escalation step cancel to +0.0, bit
    # for bit, at every representative of the offset
    mu = np.array([[0.0], [0.3], [2.5], [64.0], [5000.0]])
    for name, kernel in _ODD_KERNELS.items():
        for fam in (SpectralFamily(a, kernel), SpectralFamily(a, kernel).d_mu(0)):
            vals, _, widest = _circle_sum(fam, mu, fam.minimal_taylor_order(), cfg)
            assert vals.tobytes() == bytes(vals.nbytes), (name, fam.pref_power, vals)
            assert widest > cfg.start  # |mu| = 5000 widens, and from 1 the window escalates


@pytest.mark.parametrize("a", [0.3, -3000.3, 100000.4])
def test_resolvent_trace_far_from_zero_offset(a):
    # the window is centred on the eigenvalues nearest 0 whatever a is, so an
    # offset far beyond the window sums as well as a small one
    fam = SpectralFamily(a, resolvent(1))
    for mu in (0.5, 1.0, 5.0):
        got = complex(l2_trace_values(fam, np.array([[mu]]))[0])
        want = _circle_resolvent_trace(mu, a)
        assert abs(got - want) <= 1e-8 * want, (mu, got, want)


@pytest.mark.parametrize("budget", ["quick"])
def test_the_window_row_catches_a_planted_tail_error(monkeypatch, budget):
    # the row's second sum is pinned at twice the first one's window, so it
    # compares two windows.  The tails scaled by 1 + 1e-6 read 1.2e-8 at quick
    # against the tolerance 1e-12
    def window_row():
        rows = run(ExperimentConfig("tr-derivative-check", budget=budget)).rows
        [row] = [r for r in rows if r.label.startswith("window independence")]
        return row

    assert window_row().passed
    em_tail = partrace._em_tail

    def planted(g, x0):
        tail, est = em_tail(g, x0)
        return tail * (1.0 + 1e-6), est

    monkeypatch.setattr(partrace, "_em_tail", planted)
    assert not window_row().passed


def test_mu_multiplication_defect_is_polynomial():
    base = SpectralFamily(0.25, Kernel((KernelMonomial(1.0, 0, 1, 1),)))
    mu_base = SpectralFamily(0.25, Kernel((KernelMonomial(1.0, 0, 1, 1),)), pref_index=0, pref_power=1)
    xs = np.linspace(2.0, 9.0, 12)
    diff = tr_param_values(mu_base, xs[:, None]) - xs * tr_param_values(base, xs[:, None])
    V = np.vander(xs, 3, increasing=True)
    coef, *_ = np.linalg.lstsq(V, diff, rcond=None)
    assert np.max(np.abs(V @ coef - diff)) < 1e-9


def test_circle_model_rejects_integer_offset():
    with pytest.raises(ValueError, match="non-integer offset"):
        SpectralFamily(1.0, resolvent(1))


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_circle_model_rejects_non_finite_offset(a):
    # the error names the offset, not round()'s OverflowError or NaN conversion
    with pytest.raises(ValueError, match="finite offset, got a = "):
        SpectralFamily(a, resolvent(1))


@pytest.mark.parametrize(
    "pref",
    [{"pref_power": -1}, {"pref_power": 1.5}, {"pref_power": True}, {"pref_index": -1}, {"pref_index": False}],
    ids=["negative power", "fractional power", "bool power", "negative index", "bool index"],
)
def test_spectral_family_rejects_a_bad_prefactor(pref):
    # mu^-1 R(mu) is not a symbol, and a negative index would read the last
    # column of mu
    with pytest.raises(ValueError, match="must be a non-negative integer"):
        SpectralFamily(0.25, resolvent(1), **pref)


def test_d_mu_rejects_a_negative_index():
    with pytest.raises(ValueError, match="pref_index must be a non-negative integer"):
        SpectralFamily(0.25, resolvent(1)).d_mu(-1)


def test_d_mu_keeps_the_offset():
    fam = SpectralFamily(0.75, resolvent(1))
    dfam = fam.d_mu(1)
    assert dfam.a == 0.75
    assert (dfam.pref_index, dfam.pref_power) == (1, 1)


# ---------------------------------------------------------------------------
# An exact oracle for every circle trace: partial fractions at 40 digits


@functools.cache
def _cot_derivative(r):
    """Integer coefficients, lowest first, of P_r with (d/dx)^r cot x = P_r(cot x):
    P_0(c) = c and P_(r+1) = -(1 + c^2) P_r'."""
    if r == 0:
        return (0, 1)
    p = _cot_derivative(r - 1)
    out = [0] * (len(p) + 1)
    for i in range(1, len(p)):
        out[i - 1] -= i * p[i]
        out[i + 1] -= i * p[i]
    return tuple(out)


def _shifted_power_sums(z, j_max):
    """sum_n (n + z)^-j for j = 1..j_max, the j = 1 sum symmetric: the
    (j-1)-th z-derivative of pi cot(pi z), times (-1)^(j-1)/(j-1)!."""
    c = mpmath.cot(mpmath.pi * z)
    return [
        (-1) ** (j - 1) * mpmath.pi ** j * mpmath.polyval(_cot_derivative(j - 1)[::-1], c) / math.factorial(j - 1)
        for j in range(1, j_max + 1)
    ]


def _resolvent_sums(b, s, keys):
    """{(e, k): sum_n lam^e (lam^2 + s)^-k} over lam = n + b, for the (e, k)
    in ``keys``, e in {0, 1}.  For s > 0 the summand splits into partial
    fractions at the poles lam = +-i sqrt(s), which are conjugate, so the sum
    is twice the real part of the pole at +i sqrt(s); the two poles cancel to
    O(1) from terms of size s^(1/2 - k), so the working precision grows with
    log(1/s).  At s = 0 the summand is lam^(e - 2k)."""
    k_max = max(k for _, k in keys)
    if s == 0:
        sums = _shifted_power_sums(b, 2 * k_max)
        return {(e, k): sums[2 * k - e - 1] for e, k in keys}
    w = mpmath.sqrt(s)
    with mpmath.extraprec((2 * k_max + 2) * max(0, -int(mpmath.log(w, 2))) + 10):
        pole = mpmath.mpc(0, w)
        sums = _shifted_power_sums(b - pole, k_max)  # lam - pole = n + (b - pole)
        # lam^e (lam + pole)^-k = sum_q coef_q (lam - pole)^q near lam = pole,
        # from (2 pole + h)^-k = sum_q binom(-k, q) (2 pole)^(-k-q) h^q
        inv = [(2 * pole) ** -i for i in range(2 * k_max)]
        out = {}
        for e, k in keys:
            total = 0
            for q in range(k):
                coef = (-1) ** q * math.comb(k + q - 1, q) * inv[k + q]
                if e:
                    coef *= pole
                    if q:
                        coef += (-1) ** (q - 1) * math.comb(k + q - 2, q - 1) * inv[k + q - 1]
                total += coef * sums[k - q - 1]
            out[(e, k)] = 2 * total.real
    return {key: +value for key, value in out.items()}


def _reduced_monomials(kernel, m):
    """The m-th t-derivative of ``kernel`` (Leibniz on t^j (lam^2+t)^-k) as
    {(e, j, k): coefficient} of t^j lam^e (lam^2+t)^-k with e in {0, 1}, by
    lam^2 = (lam^2 + t) - t.  A key with k = 0 is a polynomial part."""
    out = {}

    def add(c, p, j, k):
        if p >= 2 and k >= 1:
            add(c, p - 2, j, k - 1)
            add(-c, p - 2, j + 1, k)
        else:
            out[(p, j, k)] = out.get((p, j, k), 0) + c

    for mono in kernel.monomials:
        for i in range(min(m, mono.t_pow) + 1):
            c = mpmath.mpmathify(mono.coef) * math.comb(m, i) * math.perm(mono.t_pow, i)
            add(c * (-1) ** (m - i) * mpmath.rf(mono.res_pow, m - i), mono.lam_pow, mono.t_pow - i, mono.res_pow + m - i)
    return out


@functools.cache
def _legendre_nodes():
    """24 Gauss-Legendre (node, weight) pairs on (-1, 1) to 40 digits."""
    with mpmath.workdps(40):
        return GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)


def _partial_fraction_trace(fam, mu, n_subtract):
    """sum_n of the family's summand at mu >= 0, less its Taylor polynomial of
    degree < n_subtract in mu, to 40 digits, without Kernel.taylor_remainder.
    With m the least t power that the subtraction keeps, the value is mu^pref
    times Taylor's integral remainder int_0^t (t - s)^(m-1)/(m-1)! G(s) ds,
    G = sum_n d^m/dt^m K(lam_n, s), which is trace class; at m = 0 it is G(t).
    G is exact: each monomial reduces to t^j lam^e (lam^2+t)^-k, e in {0, 1},
    summed by ``_resolvent_sums``.  The integral runs over [0, b^2] and
    intervals of ratio 4 up to t, with 24 Gauss-Legendre nodes each: the
    nearest singularity of G is at s = -b^2."""
    with mpmath.workdps(40):
        a = mpmath.mpf(fam.a)
        b = a - mpmath.ceil(a - 0.5)
        m = max(0, -((fam.pref_power - n_subtract) // 2))
        reduced = _reduced_monomials(fam.kernel, m)
        assert all(c == 0 for (_, _, k), c in reduced.items() if k == 0), "not trace class"
        keys = sorted({(e, k) for e, _, k in reduced if k})

        def G(s):
            sums = _resolvent_sums(b, s, keys)
            return mpmath.fsum(c * s ** j * sums[(e, k)] for (e, j, k), c in reduced.items() if k)

        mu = mpmath.mpf(mu)
        t = mu * mu
        if m == 0:
            value = G(t)
        elif t == 0:
            value = mpmath.mpf(0)
        else:
            edges = [mpmath.mpf(0), b * b]
            while edges[-1] * 4 < t:
                edges.append(edges[-1] * 4)
            edges = [x for x in edges if x < t] + [t]
            value = 0
            for lo, hi in zip(edges, edges[1:]):
                half, mid = (hi - lo) / 2, (hi + lo) / 2
                for x, wt in _legendre_nodes():
                    s = mid + half * x
                    value += wt * half * (t - s) ** (m - 1) * G(s)
            value /= math.factorial(m - 1)
        return complex(value * mu ** fam.pref_power)


def test_partial_fraction_oracle_against_known_closed_forms():
    # sum_n 1/(lam^2 + mu^2) and lam/(lam^2+mu^2) - 1/lam in closed form, and
    # the subtracted lam^4 and t (lam^2+t)^-1 against mu^4 R and the plain sum
    for a, mu in ((0.25, 0.0), (0.25, 3.0), (0.01, 64.0), (-4.3, 1000.0)):
        assert _partial_fraction_trace(SpectralFamily(a, resolvent(1)), mu, 0) == pytest.approx(
            _circle_resolvent_trace(mu, a), rel=1e-15
        )
    for a in (0.25, 0.1):
        got = _partial_fraction_trace(SpectralFamily(a, eta_kernel(1)), 2.0, 1)
        assert got == pytest.approx(_circle_eta_subtracted_trace(2.0, a), rel=1e-15)
    lam4 = Kernel((KernelMonomial(1.0, 4, 0, 1),))
    assert _partial_fraction_trace(SpectralFamily(0.25, lam4), 2.0, 4) == pytest.approx(
        16.0 * _circle_resolvent_trace(2.0, 0.25), rel=1e-15
    )
    assert _partial_fraction_trace(SpectralFamily(0.25, _T_OVER_RESOLVENT), 2.0, 2) == pytest.approx(
        4.0 * _circle_resolvent_trace(2.0, 0.25), rel=1e-15
    )


def _window_mass(fam, mu, n_subtract, window):
    """sum of |summand| over the window's mirrored pairs: a lower bound on
    sum_n |summand|, the scale of the sum's round-off."""
    b = fam.a - math.ceil(fam.a - 0.5)
    n = np.arange(window + 1)
    lam = np.concatenate((n + b, -(n + 1 - b)))
    return float(np.sum(np.abs(fam.summand(lam, np.array([[mu]]), n_subtract))))


def _assert_matches_the_oracle(fam, mu):
    # the value and the honesty of its tail estimate together: the sum is
    # within its tail estimate plus round-off of the exact value
    tv = tr_param(fam, [mu])
    excess = fam.order + partrace.DIM_M
    n_subtract = math.floor(excess) + 1 if excess >= 0 else 0
    assert tv.truncation["taylor_order"] == n_subtract
    want = _partial_fraction_trace(fam, mu, n_subtract)
    mass = _window_mass(fam, mu, n_subtract, tv.truncation["window"])
    assert abs(tv.value - want) <= tv.truncation["tail_estimate"] + 1e-14 * mass, (tv, want, mass)


_COEFFICIENTS = st.one_of(st.floats(-2, 2), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
_MONOMIALS = st.builds(KernelMonomial, _COEFFICIENTS, st.integers(0, 4), st.integers(0, 2), st.integers(1, 4))
_OFFSETS = st.floats(-5, 5).filter(lambda a: abs(a - round(a)) >= 0.01)
# |mu| / 8 sets windows above the first one of 128 from |mu| = 1024
_MUS = st.floats(0, 2048)


@st.composite
def _trace_class_families(draw):
    pref_power = draw(st.integers(0, 1))
    monomials = _MONOMIALS.filter(lambda m: m.lam_pow + 2 * m.t_pow - 2 * m.res_pow + pref_power + 1 < 0)
    return SpectralFamily(draw(_OFFSETS), Kernel(tuple(draw(st.lists(monomials, min_size=1, max_size=3)))),
                          pref_power=pref_power)


_SUBTRACTED_DRAWS = st.builds(
    lambda a, monomials, pref_power: SpectralFamily(a, Kernel(tuple(monomials)), pref_power=pref_power),
    _OFFSETS, st.lists(_MONOMIALS, min_size=1, max_size=2), st.integers(0, 1),
).filter(lambda fam: fam.order + 1 >= 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fam=_trace_class_families(), mu=_MUS)
@example(fam=SpectralFamily(0.3, eta_kernel(2)), mu=2048.0)
@example(fam=SpectralFamily(-4.01, resolvent(3), pref_power=1), mu=1500.0)
def test_trace_class_sums_match_the_partial_fraction_oracle(fam, mu):
    _assert_matches_the_oracle(fam, mu)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(fam=_SUBTRACTED_DRAWS, mu=_MUS)
@example(fam=SpectralFamily(0.3, Kernel((KernelMonomial(1.0 - 0.5j, 4, 2, 1),))), mu=2000.0)
@example(fam=SpectralFamily(-2.7, Kernel((KernelMonomial(1.0, 4, 0, 1), KernelMonomial(0.5, 0, 0, 2)))), mu=1200.0)
def test_subtracted_sums_match_the_partial_fraction_oracle(fam, mu):
    # each draw integrates the oracle over up to 20 intervals, 0.05-0.3 s.
    # The second example splits a squared resolvent below the subtracted t
    # power, which no monomial of top degree does
    _assert_matches_the_oracle(fam, mu)


# ---------------------------------------------------------------------------
# One store of eigenvalue sums per experiment run


def _recorded_circle_sums(monkeypatch):
    # (arguments, result) of every _circle_sum call
    calls, circle_sum = [], partrace._circle_sum

    def recorded(fam, mu, n_subtract, cfg):
        result = circle_sum(fam, mu, n_subtract, cfg)
        calls.append(((fam, np.array(mu, dtype=float), n_subtract, cfg), result))
        return result

    monkeypatch.setattr(partrace, "_circle_sum", recorded)
    return calls


def test_a_run_shares_each_sum_with_the_bits_of_its_own_call(monkeypatch):
    # within the run the sign - suspension repeats the sign + one; every
    # result, stored or not, is bit for bit the same call made outside a run
    calls = _recorded_circle_sums(monkeypatch)
    assert run(ExperimentConfig("eta-suspension", budget="quick")).passed
    assert len({id(result[0]) for _, result in calls}) < len(calls)
    for args, result in calls:
        assert _bits_of(result) == _bits_of(_circle_sum(*args))


def test_no_sum_carries_over_between_runs(monkeypatch):
    sizes = _recorded_summand_sizes(monkeypatch)
    counts = []
    for _ in range(2):
        sizes.clear()
        run(ExperimentConfig("eta-suspension", budget="quick"))
        counts.append(len(sizes))
    assert counts[0] == counts[1] > 0


def test_stored_sums_are_read_only_and_shared_only_inside_the_block():
    fam = SpectralFamily(0.25, resolvent(1))
    mu = np.array([[0.5], [2.0]])
    vals, est, _ = _circle_sum(fam, mu, 0, WindowConfig())
    assert _circle_sum(fam, mu, 0, WindowConfig())[0] is not vals
    with partrace.shared_sums():
        first = l2_trace_values(fam, mu)
        assert l2_trace_values(fam, mu.copy()) is first
        assert l2_trace_values(fam, mu[:1]) is not first
    assert l2_trace_values(fam, mu) is not first
    for arr in (vals, est, first):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    assert first.tobytes() == vals.tobytes()


def test_each_part_of_the_key_separates_stored_sums():
    # a sum that differs from a stored one in the family, the Taylor order,
    # the window, the shape or the values of mu is computed on its own
    fam = SpectralFamily(0.25, resolvent(1))
    mu, cfg = np.array([[0.5], [2.0]]), WindowConfig()
    variants = [
        (SpectralFamily(0.3, resolvent(1)), mu, 0, cfg),
        (fam, mu, 2, cfg),
        (fam, mu, 0, WindowConfig(start=8)),
        (fam, mu.reshape(1, 2), 0, cfg),
        (fam, mu + 1.0, 0, cfg),
    ]
    want = [_bits_of(_circle_sum(*args)) for args in variants]
    with partrace.shared_sums():
        _circle_sum(fam, mu, 0, cfg)
        assert [_bits_of(_circle_sum(*args)) for args in variants] == want


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_circle_sum_rejects_a_non_finite_point_at_once(bad):
    # unchecked, a NaN widens the window to its cap and raises TruncationError
    # only after seconds, and an infinite point sums to 0
    fam = SpectralFamily(0.25, resolvent(1))
    mu = np.linspace(0.5, 5.0, 1000)[:, None]
    mu[637, 0] = bad
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"parameter point 637 is not finite: \[(nan|inf)\]"):
        l2_trace_values(fam, mu)
    assert time.perf_counter() - start < 0.1
