import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etaforge import quadrature
from etaforge.quadrature import (
    cumulative_ball,
    cumulative_halfline_in,
    cumulative_halfline_out,
    cumulative_radial,
    exact_sum,
    gauss_legendre,
    geometric_ladder,
    panel_rule,
    richardson_derivative,
    row_norm,
    sphere_chart,
    sphere_rule,
    sphere_surface,
)


def test_panel_rule_integrates_polynomials_exactly():
    x, w = panel_rule(-1.5, 2.5, 12)
    # degree up to 2n-1
    for deg in range(0, 20):
        got = np.sum(w * x ** deg)
        want = (2.5 ** (deg + 1) - (-1.5) ** (deg + 1)) / (deg + 1)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_sphere_rules_have_correct_surface():
    for p in (1, 2, 3):
        rule = sphere_rule(p, 32 if p == 3 else 64)
        assert abs(np.sum(rule.weights) - sphere_surface(p)) < 1e-12
        norms = np.linalg.norm(rule.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_sphere_rule_second_moment():
    # int_{S^2} xi_1^2 = Vol(S^2)/3 by symmetry
    rule = sphere_rule(3, (24, 48))
    got = np.sum(rule.weights * rule.points[:, 0] ** 2)
    assert abs(got - 4.0 * math.pi / 3.0) < 1e-12


def test_sphere_charts_recover_volumes():
    # the weights are the surface measure, and the pairing of
    # sum_j (-1)^j x_j d(hat j) is sum_j x_j^2 = 1 at every point
    vols = {1: 2 * math.pi, 2: 4 * math.pi, 3: 2 * math.pi ** 2}
    for d, want in vols.items():
        rule = sphere_rule(d + 1)
        X, W = rule.points, rule.weights
        assert abs(np.sum(W) - want) < 1e-10
        assert abs(np.sum(W * np.sum(X * X, axis=1)) - want) < 1e-10
        assert np.max(np.abs(row_norm(X) - 1.0)) < 1e-15


@pytest.mark.parametrize("p, bad", [
    (2, 0), (3, 0), (2, -4), (3, (0, 8)), (4, (4, 4, -8)),  # not positive
    (1, (2,)), (2, (8, 16)), (3, (8,)), (4, 8), (4, (4, 8)),  # wrong arity
    (2, 8.0), (3, (8.0, 16)), (2, True), (3, (True, 8)),  # float, bool
    (0, None), (5, None),  # no sphere rule in R^0 or R^5
], ids=str)
def test_sphere_rule_rejects_bad_resolutions(p, bad):
    with pytest.raises(ValueError):
        sphere_rule(p, bad)
    if p >= 2:
        with pytest.raises(ValueError):
            sphere_chart(p - 1, bad)


def _hyperspherical_jacobian(d, angles):
    """X (M, d+1) and dX/d(angles) (M, d+1, d) of the charts: (cos, sin) on
    S^1, (sin t cos f, sin t sin f, cos t) on S^2, and on S^3
    (cos s, sin s cos t, sin s sin t cos f, sin s sin t sin f)."""
    c, s = np.cos(angles), np.sin(angles)
    if d == 1:
        X = np.stack([c[:, 0], s[:, 0]], axis=1)
        J = np.stack([-s[:, 0], c[:, 0]], axis=1)[:, :, None]
        return X, J
    if d == 2:
        (ct, cf), (st, sf) = c.T, s.T
        X = np.stack([st * cf, st * sf, ct], axis=1)
        J = np.zeros((len(angles), 3, 2))
        J[:, 0] = np.stack([ct * cf, -st * sf], axis=1)
        J[:, 1] = np.stack([ct * sf, st * cf], axis=1)
        J[:, 2, 0] = -st
        return X, J
    (cs, ct, cf), (ss, st, sf) = c.T, s.T
    X = np.stack([cs, ss * ct, ss * st * cf, ss * st * sf], axis=1)
    J = np.zeros((len(angles), 4, 3))
    J[:, 0, 0] = -ss
    J[:, 1, :2] = np.stack([cs * ct, -ss * st], axis=1)
    J[:, 2] = np.stack([cs * st * cf, ss * ct * cf, -ss * st * sf], axis=1)
    J[:, 3] = np.stack([cs * st * sf, ss * ct * sf, ss * st * cf], axis=1)
    return X, J


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chart_jacobian_minors_are_signed_coordinates_times_density(rng, d):
    # det J[I_j] = (-1)^j X_j vol for every index set I_j (row j omitted), with
    # vol = 1, sin t and sin(s)^2 sin(t): what sphere_integrate relies on
    # instead of computing minors
    from itertools import combinations

    angles = rng.uniform(0.0, math.pi, size=(200, d))
    angles[:, -1] *= 2.0
    X, J = _hyperspherical_jacobian(d, angles)
    vol = np.ones(len(angles)) if d == 1 else np.prod(np.sin(angles[:, :-1]) ** np.arange(d - 1, 0, -1), axis=1)
    for I in combinations(range(d + 1), d):
        j = next(m for m in range(d + 1) if m not in I)
        assert np.max(np.abs(np.linalg.det(J[:, I, :]) - (-1.0) ** j * X[:, j] * vol)) < 1e-14


def test_sphere_chart_points_and_weights_follow_the_jacobian_charts():
    # the S^3 rule's points are the test charts' X at its own nodes, and its
    # weights the node weights times the density
    rule = sphere_rule(4, (5, 6, 8))
    (x1, w1), (x2, w2) = gauss_legendre(5), gauss_legendre(6)
    s = np.repeat(0.5 * math.pi * (x1 + 1.0), 6 * 8)
    t = np.tile(np.repeat(0.5 * math.pi * (x2 + 1.0), 8), 5)
    f = np.tile(2.0 * math.pi * np.arange(8) / 8, 5 * 6)
    want_X, _ = _hyperspherical_jacobian(3, np.stack([s, t, f], axis=1))
    assert np.max(np.abs(rule.points - want_X)) < 1e-15
    node_w = np.repeat(0.5 * math.pi * w1, 6 * 8) * np.tile(np.repeat(0.5 * math.pi * w2, 8), 5) * (2.0 * math.pi / 8)
    assert np.max(np.abs(rule.weights - node_w * np.sin(s) ** 2 * np.sin(t))) < 1e-15
    # sphere_chart only delegates, array for array
    for d, res in [(1, None), (1, 40), (2, None), (2, 6), (2, (6, 10)), (3, None), (3, (5, 6, 8))]:
        chart, want = sphere_chart(d, res), sphere_rule(d + 1, res)
        assert chart.p == want.p == d + 1
        assert np.array_equal(chart.points, want.points) and np.array_equal(chart.weights, want.weights)


def test_cumulative_radial_matches_antiderivative():
    ladder = geometric_ladder(4.0, 1024.0, 10)
    vals, avals = cumulative_radial(lambda r: np.exp(-r) + 0j, 3, ladder)
    # int_0^R e^{-r} r^2 dr = 2 - e^{-R}(R^2 + 2R + 2)
    want = 4 * math.pi * (2.0 - np.exp(-ladder) * (ladder ** 2 + 2 * ladder + 2))
    assert np.max(np.abs(vals - want)) < 1e-12
    assert np.all(avals >= np.abs(vals) - 1e-12)


def test_cumulative_ball_matches_radial_for_radial_integrand():
    ladder = geometric_ladder(4.0, 256.0, 6)

    def f(x):
        return np.exp(-np.linalg.norm(x, axis=1)) + 0j

    ivals, _ = cumulative_ball(f, 3, ladder, sphere_rule(3, (12, 24)))
    rvals, _ = cumulative_radial(lambda r: np.exp(-r) + 0j, 3, ladder)
    assert np.max(np.abs(ivals - rvals)) < 1e-10


def test_cumulative_halfline_pieces():
    _check_halfline_pieces(geometric_ladder(4.0, 4096.0, 8))


def test_cumulative_halfline_ladder_below_one():
    # the first panel runs backwards: J(0.5) = int_1^0.5 and K(u = 0.5) =
    # int_2^1 are negative, and later values are still signed integrals from 1
    _check_halfline_pieces(geometric_ladder(0.5, 4096.0, 8))


def _check_halfline_pieces(ladder):
    out, _ = cumulative_halfline_out(lambda x: 1.0 / x ** 2, ladder)
    assert np.max(np.abs(out - (1.0 - 1.0 / ladder))) < 1e-13
    inn, _ = cumulative_halfline_in(lambda x: np.sqrt(x), ladder)
    a = 1.0 / ladder
    assert np.max(np.abs(inn - (2.0 / 3.0) * (1.0 - a ** 1.5))) < 1e-13


def test_geometric_ladder_validation():
    with pytest.raises(ValueError):
        geometric_ladder(4.0, 2.0, 8)


def test_richardson_derivative_exact_on_quartic():
    x0, h = 0.7, 0.1

    def g(x):
        return 3.0 * x ** 4 - 2.0 * x ** 3 + x - 5.0

    calls = []

    def at(c):
        calls.append(c)
        return g(x0 + c * h)

    got = richardson_derivative(at, h)
    want = 12.0 * x0 ** 3 - 6.0 * x0 ** 2 + 1.0
    assert abs(got - want) < 1e-13 * abs(want) / h
    # the fixed evaluation order keeps identity-keyed caches aligned
    assert calls == [1.0, -1.0, 0.5, -0.5]


def test_richardson_derivative_fourth_order_on_exp():
    x0 = 0.3
    errs = [abs(richardson_derivative(lambda c: math.exp(x0 + c * h), h) - math.exp(x0)) for h in (0.4, 0.2, 0.1)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


# ---------------------------------------------------------------------------
# exact_sum against math.fsum, row_norm against np.linalg.norm: bit for bit


def _bits(x: float) -> str:
    return float(x).hex()  # tells -0.0 from 0.0 and every last-place difference


def _past_cutoff(xs: list) -> list:
    # xs repeated until it is at least _FSUM_BELOW long, so that it takes the limb path
    return xs * (quadrature._FSUM_BELOW // max(len(xs), 1) + 1)


def _check_exact_sum(xs):
    # at the drawn length, mostly the fsum path, and tiled onto the limb path
    for ys in (xs, _past_cutoff(xs)):
        assert _bits(exact_sum(np.array(ys, dtype=float))) == _bits(math.fsum(ys))


# bounded so that no partial sum of fsum overflows
_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
# mantissa times 2^e for e across the whole double range, subnormals included
_spread = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))


@given(st.lists(_finite | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-323, 2.2250738585072014e-308]), max_size=300))
def test_exact_sum_matches_fsum_on_finite_floats(xs):
    _check_exact_sum(xs)


@given(st.lists(_spread, max_size=100).flatmap(
    lambda xs: st.permutations(xs + [math.ldexp(1.0, 1000), 5e-324, -math.ldexp(1.0, 1000), math.ldexp(-3.0, -1060)])
))
def test_exact_sum_matches_fsum_across_2000_binary_orders(xs):
    _check_exact_sum(xs)


@given(st.lists(_finite | _spread, min_size=1, max_size=100).flatmap(lambda xs: st.permutations(xs + [-x for x in xs])))
def test_exact_sum_exact_cancellation_is_positive_zero(xs):
    for ys in (xs, _past_cutoff(xs)):
        got = exact_sum(np.array(ys))
        assert _bits(got) == _bits(0.0) == _bits(math.fsum(ys))


def test_exact_sum_takes_the_limb_path_from_the_cutoff(monkeypatch):
    limb_calls, limb_total = [], quadrature._limb_total

    def counted(a):
        limb_calls.append(a.size)
        return limb_total(a)

    monkeypatch.setattr(quadrature, "_limb_total", counted)
    rng = np.random.default_rng(3)
    for n in (1, 48, quadrature._FSUM_BELOW - 1, quadrature._FSUM_BELOW, 700):
        a = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
        assert _bits(exact_sum(a)) == _bits(math.fsum(a.tolist()))
    assert limb_calls == [quadrature._FSUM_BELOW, 700]
    # an all-zero input returns +0.0 before either path
    for n in (3, quadrature._FSUM_BELOW):
        assert _bits(exact_sum(np.full(n, -0.0))) == _bits(0.0)
    assert len(limb_calls) == 2


def test_exact_sum_limb_chunks(monkeypatch):
    # chunking keeps the bincount sums exact past 2^26 elements; a tiny
    # chunk runs the same path on a short array
    rng = np.random.default_rng(5)
    a = rng.standard_normal(1000) * np.exp2(rng.integers(-1070, 1000, 1000))
    a = np.concatenate([a, -a[:500], [5e-324, 1.0]])
    monkeypatch.setattr(quadrature, "_EXACT_CHUNK", 7)
    assert _bits(exact_sum(a)) == _bits(math.fsum(a.tolist()))


def test_exact_sum_non_finite_input_keeps_fsum_behaviour():
    for tile in (lambda xs: np.array(xs), lambda xs: np.array(_past_cutoff(xs))):
        assert math.isnan(exact_sum(tile([1.0, math.nan])))
        assert math.isnan(exact_sum(tile([math.inf, math.nan])))
        assert exact_sum(tile([math.inf])) == math.inf
        assert exact_sum(tile([2.0, -math.inf, 1e308])) == -math.inf
        with pytest.raises(ValueError):
            exact_sum(tile([math.inf, -math.inf]))
        with pytest.raises(OverflowError):
            exact_sum(tile([1e308, 1e308]))
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])


def test_cumulative_ball_panels_sum_like_fsum(monkeypatch):
    # every real, imaginary and absolute panel part of a complex integrand,
    # and the cumulative values built from them, agree with the fsum loop
    ladder = geometric_ladder(4.0, 256.0, 6)
    sphere = sphere_rule(3, (12, 24))

    def f(x):
        r = np.linalg.norm(x, axis=1)
        return np.exp(-0.05 * r + 1j * x[:, 0]) / (1.0 + r ** 2) + 1e-30 * x[:, 1] ** 3

    parts = []

    def recording(a):
        parts.append(np.array(a))
        return exact_sum(a)

    monkeypatch.setattr(quadrature, "exact_sum", recording)
    got = cumulative_ball(f, 3, ladder, sphere)
    assert len(parts) > 3 * len(ladder) and any(np.any(a < 0) for a in parts)
    for a in parts:
        assert _bits(exact_sum(a)) == _bits(math.fsum(a.ravel().tolist()))
    monkeypatch.setattr(quadrature, "exact_sum", lambda a: math.fsum(np.asarray(a).ravel().tolist()))
    want = cumulative_ball(f, 3, ladder, sphere)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _real_and_complex_runs(monkeypatch, loop, g, *args):
    """loop(g, *args) and loop(g + 0j, *args), with the panels and the
    exact_sum calls each made."""
    calls = {"panels": 0, "sums": 0}
    panel_rule, exact = quadrature.panel_rule, quadrature.exact_sum

    def counted_panel(*a):
        calls["panels"] += 1
        return panel_rule(*a)

    def counted_sum(a):
        calls["sums"] += 1
        return exact(a)

    monkeypatch.setattr(quadrature, "panel_rule", counted_panel)
    monkeypatch.setattr(quadrature, "exact_sum", counted_sum)
    runs = []
    for h in (g, lambda x: g(x) + 0j):
        calls.update(panels=0, sums=0)
        runs.append((loop(h, *args), dict(calls)))
    return runs


@pytest.mark.parametrize("loop, g, args", [
    (cumulative_ball, lambda x: np.cos(3.0 * x[:, 0]) * np.exp(-0.05 * np.linalg.norm(x, axis=1)),
     (3, geometric_ladder(4.0, 256.0, 6), sphere_rule(3, (12, 24)))),
    (cumulative_radial, lambda r: np.cos(5.0 * r) / (1.0 + r), (3, geometric_ladder(4.0, 256.0, 6))),
    (cumulative_halfline_out, lambda x: np.cos(5.0 * x) / (1.0 + x), (geometric_ladder(0.5, 4096.0, 8),)),
    (cumulative_halfline_in, lambda x: np.cos(5.0 / x) * x ** -0.5, (geometric_ladder(0.5, 4096.0, 8),)),
])
def test_real_integrand_matches_zero_imaginary_part(monkeypatch, loop, g, args):
    # a real integrand stays real through the shell loop: its signed and
    # absolute values are byte-identical to those of g + 0j, and each panel
    # makes two exact sums (real and absolute) instead of three
    (real, real_calls), (cplx, cplx_calls) = _real_and_complex_runs(monkeypatch, loop, g, *args)
    for got, want in zip(real, cplx):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert real_calls["panels"] == cplx_calls["panels"] > 0
    assert real_calls["sums"] == 2 * real_calls["panels"]
    assert cplx_calls["sums"] == 3 * cplx_calls["panels"]


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda p: arrays(
    float, st.tuples(st.integers(0, 20), st.just(p)), elements=st.floats(allow_nan=False, allow_infinity=False)
)))
def test_row_norm_matches_linalg_norm(x):
    with np.errstate(over="ignore"):
        assert row_norm(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_row_norm_zeros_subnormals_and_overflow(p):
    rng = np.random.default_rng(p)
    rows = [
        np.zeros(p),
        np.full(p, 5e-324),
        rng.standard_normal(p) * 1e-310,
        np.full(p, 1e200),
        np.r_[1e200, np.zeros(p - 1)],
        np.r_[-1e200, rng.standard_normal(p - 1)],
        rng.standard_normal(p) * 10.0 ** rng.integers(-300, 150, p),
    ]
    x = np.vstack(rows + [rng.standard_normal((200, p)) * 10.0 ** rng.integers(-5, 5, (200, p))])
    with np.errstate(over="ignore"):
        got, want = row_norm(x), np.linalg.norm(x, axis=-1)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got[3]) and np.isinf(got[4]) and got[0] == 0.0
