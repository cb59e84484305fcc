import math
import sys

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
# the panel reducer (_JoinedSums) against math.fsum, on one block and on
# split blocks; row_norm against np.linalg.norm: bit for bit


def _bits(x: float) -> str:
    return float(x).hex()  # tells -0.0 from 0.0 and every last-place difference


def _past_cutoff(xs: list) -> list:
    # xs repeated until it is at least _FSUM_BELOW long, so that one block takes the extraction path
    return xs * (quadrature._FSUM_BELOW // max(len(xs), 1) + 1)


# one block; long blocks with a short last one; short blocks only
_SPLITS = (None, quadrature._FSUM_BELOW, 37)


def _reduce(a: np.ndarray, block: int | None = None) -> tuple[float, float, float]:
    """The (real, imaginary, absolute) sums of the 1-D array a from one
    ``_JoinedSums``, fed a in one block or in blocks of ``block`` values."""
    acc = quadrature._JoinedSums()
    step = block or max(len(a), 1)
    for start in range(0, len(a), step):
        acc.add(a[start:start + step])
    return acc.sums()


def _fsum_parts(xs: list) -> tuple[float, float, float]:
    """What ``_reduce`` must return for real or complex-typed real values
    xs: fsum of the values, 0.0, then fsum of their absolute values (the
    first exception raised, if any)."""
    return math.fsum(xs), 0.0, math.fsum(abs(x) for x in xs)


def _outcome(fn, *args):
    # a result's bits, or the exception type
    try:
        return [_bits(v) for v in np.atleast_1d(fn(*args))]
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _check_reduced(a: np.ndarray):
    # the real path (one split for both parts) and the complex path (three
    # one-part sums) in every split, against fsum over the whole array
    want = _outcome(_fsum_parts, a.tolist())
    for block in _SPLITS:
        for b in (a, a.astype(complex)):
            assert _outcome(_reduce, b, block) == want, (b.dtype, block)


def _check_exact_sum(xs):
    # at the drawn length, mostly short blocks, and tiled onto the extraction path
    for ys in (xs, _past_cutoff(xs)):
        _check_reduced(np.array(ys, dtype=float))


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
    assert _bits(math.fsum(xs)) == _bits(0.0)
    for ys in (xs, _past_cutoff(xs)):
        for block in _SPLITS:
            total, _, mass = _reduce(np.array(ys), block)
            assert _bits(total) == _bits(0.0) and _bits(mass) == _bits(math.fsum(map(abs, ys)))


def _counted_extractions(monkeypatch) -> list[int]:
    """The block length of every ``_extracted`` call from now on."""
    calls, extracted = [], quadrature._extracted

    def counted(a, top, q, r):
        calls.append(a.size)
        return extracted(a, top, q, r)

    monkeypatch.setattr(quadrature, "_extracted", counted)
    return calls


def _counted_abs_copies(monkeypatch) -> list[int]:
    """One entry per np.abs call without ``out`` that the quadrature module makes."""
    copies, absolute = [], np.abs

    def counted(*a, **kw):
        if "out" not in kw and sys._getframe(1).f_globals["__name__"] == quadrature.__name__:
            copies.append(np.size(a[0]))
        return absolute(*a, **kw)

    monkeypatch.setattr(np, "abs", counted)
    return copies


def test_exact_sum_takes_the_extraction_path_from_the_cutoff(monkeypatch):
    # a block is extracted from _FSUM_BELOW values on, whatever the panel's
    # length: twice for a real block of mixed signs (its sum and its mass),
    # once each for the real part and the modulus of a complex one (its
    # all-zero imaginary part adds nothing)
    calls = _counted_extractions(monkeypatch)
    rng = np.random.default_rng(3)
    n0 = quadrature._FSUM_BELOW
    for n in (1, 48, n0 - 1, n0, 700):
        a = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
        want = _outcome(_fsum_parts, a.tolist())
        assert _outcome(_reduce, a) == _outcome(_reduce, a.astype(complex)) == want
    assert calls == [n0] * 4 + [700] * 4
    calls.clear()
    assert _outcome(_reduce, a, n0) == want  # 700 values: a long block, then a short one
    assert _outcome(_reduce, a, 350) == want  # two short blocks
    assert calls == [n0] * 2
    # an all-zero block adds nothing: +0.0 from either path
    for n in (3, n0):
        for b in (np.full(n, -0.0), np.full(n, complex(-0.0, -0.0))):
            assert [_bits(v) for v in _reduce(b)] == [_bits(0.0)] * 3
    assert calls == [n0] * 2


def test_exact_sum_extraction_levels_across_the_exponent_range(monkeypatch):
    # values from the subnormals to 2^1000 and their partial cancellation
    # take many levels, each exact
    calls = _counted_extractions(monkeypatch)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(1000) * np.exp2(rng.integers(-1070, 1000, 1000))
    a = np.concatenate([a, -a[:500], [5e-324, 1.0, -0.0]])
    _check_reduced(a)
    assert calls and set(calls) <= {a.size, quadrature._FSUM_BELOW}
    levels = quadrature._extracted(a, float(np.abs(a).max()), np.empty(a.size), np.empty(a.size))
    assert len(levels) > 20 and math.fsum(levels) == math.fsum(a.tolist())


@pytest.mark.parametrize("m", [10, 11, 14])
def test_exact_sum_at_block_lengths_around_a_power_of_two(m):
    # n = 2^m - 2 values get m bits of headroom per level, 2^m - 1 and 2^m get
    # m + 1; values just below a power of two, all of one sign or alternating,
    # fill each level's exactness bound
    rng = np.random.default_rng(m)
    for n in (2 ** m - 2, 2 ** m - 1, 2 ** m):
        top = 1.0 - rng.integers(1, 2 ** 20, n) * 2.0 ** -53
        for a in (top, top * np.where(np.arange(n) % 2, -1.0, 1.0), top * np.exp2(rng.integers(-60, 1, n))):
            _check_reduced(a)


def test_a_value_near_the_float_range_keeps_its_block(monkeypatch):
    # a block holding a value >= 2^(1023 - m) keeps its values for fsum, since
    # its first level would need sigma = 2^1024; one just below is extracted
    calls = _counted_extractions(monkeypatch)
    rng = np.random.default_rng(7)
    n = 600
    a = rng.standard_normal(n)
    a[7] = math.ldexp(1.0, 1023 - (n + 1).bit_length())
    for b in (a, -a):
        assert _outcome(_reduce, b) == _outcome(_fsum_parts, b.tolist())
    assert calls == []
    a[7] = math.nextafter(a[7], 0.0)
    assert _outcome(_reduce, a) == _outcome(_fsum_parts, a.tolist())
    assert calls == [n, n]


def test_exact_sum_of_subnormals_only():
    rng = np.random.default_rng(11)
    k = rng.integers(-2 ** 52 + 1, 2 ** 52, 700).astype(float)
    for a in (k * 5e-324, np.abs(k) * 5e-324, np.full(700, -5e-324)):
        assert np.all(np.abs(a) < 2.2250738585072014e-308)
        _check_reduced(a)


def test_one_extraction_for_a_block_of_one_sign_and_no_abs_copy_for_a_mixed_one(monkeypatch):
    # a real block of one sign takes its mass from its signed levels; a mixed
    # block, or one of values <= 0, extracts |a| into the spent scratch
    calls, copies = _counted_extractions(monkeypatch), _counted_abs_copies(monkeypatch)
    rng = np.random.default_rng(13)
    a = np.abs(rng.standard_normal(700)) * np.exp2(rng.integers(-8, 1, 700))
    for b, extractions in ((a, 1), (a - a.mean(), 2), (-a, 2)):
        calls.clear()
        assert _outcome(_reduce, b) == _outcome(_fsum_parts, b.tolist())
        assert calls == [b.size] * extractions
    assert copies == []
    # a complex block extracts its real part and its modulus, one copy
    assert _outcome(_reduce, a - 1j * a)[0] == _bits(math.fsum(a.tolist()))
    assert copies == [a.size]


def test_exact_sum_non_finite_input_keeps_fsum_behaviour():
    for tile in (lambda xs: np.array(xs), lambda xs: np.array(_past_cutoff(xs))):
        for block in _SPLITS:
            for cast in (float, complex):
                def total(xs):
                    return _reduce(tile(xs).astype(cast), block)[0]

                assert math.isnan(total([1.0, math.nan]))
                assert math.isnan(total([math.inf, math.nan]))
                assert total([math.inf]) == math.inf
                assert total([2.0, -math.inf, 1e308]) == -math.inf
                with pytest.raises(ValueError):
                    total([math.inf, -math.inf])
                with pytest.raises(OverflowError):
                    total([1e308, 1e308])
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])


@pytest.mark.parametrize("xs", [
    [1.0, math.nan], [math.inf, math.nan], [math.inf], [2.0, -math.inf, 1e308], [-math.inf, 3.0],
    [math.inf, -math.inf],  # the signed sum raises ValueError, the mass alone would be inf
    [1e308, 1e308],  # both overflow
    [1e308, -1e308],  # the signed sum cancels, the mass overflows
])
def test_exact_sum_and_mass_non_finite_input_keeps_fsum_behaviour(xs):
    for ys in (xs, _past_cutoff(xs)):
        _check_reduced(np.array(ys))


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [6, 600])
def test_overflowing_panel_with_non_finite_values_sums_those_alone(special, k):
    # finite values whose running sum overflows fsum, and k copies of an inf
    # or NaN: the fsum of the non-finite values alone (fsum itself raises
    # OverflowError), in one block of either length, in every split, and with
    # the overflowing values in a long block of their own
    panels = ([1e308, 1e308] + [special] * k, [special] * k + [-1e308, -1e308], [1e308] * 600 + [special])
    for xs in panels:
        want = _outcome(_fsum_parts, [x for x in xs if not math.isfinite(x)])
        for block in _SPLITS + (600,):
            for a in (np.array(xs), np.array(xs, dtype=complex)):
                assert _outcome(_reduce, a, block) == want, (len(xs), block, a.dtype)
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, special])
    with pytest.raises(ValueError):
        _reduce(np.array([1e308, 1e308, math.inf, -math.inf]))


class _FsumSums:
    """The oracle for ``quadrature._JoinedSums``: a column's blocks kept
    whole, and the real, imaginary and absolute parts of all of them summed
    by math.fsum."""

    def __init__(self):
        self.values = []

    def add(self, col):
        self.values.extend(col.tolist())

    def sums(self):
        v = np.array(self.values, dtype=complex)
        return tuple(math.fsum(part.tolist()) for part in (v.real, v.imag, np.abs(v)))


def test_cumulative_ball_panels_sum_like_fsum(monkeypatch):
    # every real, imaginary and absolute panel part of a complex integrand,
    # and the cumulative values built from them, agree with the per-panel
    # fsum oracle over one call on the whole panel, whatever blocks the
    # panels are split into
    ladder = geometric_ladder(4.0, 256.0, 6)
    sphere = sphere_rule(3, (12, 24))

    def f(x):
        r = np.linalg.norm(x, axis=1)
        return np.exp(-0.05 * r + 1j * x[:, 0]) / (1.0 + r ** 2) + 1e-30 * x[:, 1] ** 3

    def recorded(reducer):
        sums = []

        class Recording(reducer):
            def sums(self):
                out = super().sums()
                sums.append([_bits(v) for v in out])
                return out

        monkeypatch.setattr(quadrature, "_JoinedSums", Recording)
        return [v.tobytes() for v in cumulative_ball(f, 3, ladder, sphere)], sums

    reducer = quadrature._JoinedSums
    with monkeypatch.context() as m:
        m.setattr(quadrature, "SHELL_POINTS", 10 ** 9)  # one call per panel
        want = recorded(_FsumSums)
    assert len(want[1]) > len(ladder) and any(float.fromhex(s[0]) < 0 for s in want[1])
    for shell_points in _SHELL_BOUNDS:
        monkeypatch.setattr(quadrature, "SHELL_POINTS", shell_points)
        assert recorded(reducer) == want


_LINE_LADDER = geometric_ladder(0.5, 4096.0, 16)


def _line_layout(loop):
    """The panels, the marked bounds, the node weight (before g) and the
    result factor of a 1-D shell loop on ``_LINE_LADDER``, independent of the
    loop's blocks."""
    if loop is cumulative_radial:
        bounds = quadrature._shell_bounds(_LINE_LADDER, quadrature.DEFAULT_INNER)
        return quadrature._outward_panels(bounds), _LINE_LADDER, lambda x, w: w * x ** 2, sphere_surface(3)
    if loop is cumulative_halfline_out:
        bounds = quadrature._shell_bounds(_LINE_LADDER, (1.0, 1.5))
        return quadrature._outward_panels(bounds), _LINE_LADDER, lambda x, w: w, 1.0
    bounds = 1.0 / np.array(quadrature._shell_bounds(_LINE_LADDER, (1.0,)))
    panels = [(end, start, end) for start, end in zip(bounds[:-1], bounds[1:])]
    return panels, bounds[-len(_LINE_LADDER):], lambda x, w: w, 1.0


def _line_oracle(loop, g, n_radial):
    """The loop's signed and absolute results from one call of g per panel,
    each panel's parts summed by math.fsum and the running totals by
    math.fsum over the panel sums at each marked bound."""
    panels, marks, weight, factor = _line_layout(loop)
    marked = {float(m) for m in marks}
    parts, out, aout = ([], [], []), [], []
    for a, b, end in panels:
        x, w = panel_rule(a, b, n_radial)
        v = (weight(x, w) * g(x)).astype(complex)
        for part, values in zip(parts, (v.real, v.imag, np.abs(v))):
            part.append(math.fsum(values.tolist()))
        if float(end) in marked:
            out.append(math.fsum(parts[0]) + 1j * math.fsum(parts[1]))
            aout.append(math.fsum(parts[2]))
    return factor * np.array(out), factor * np.array(aout)


_LINE_N = 24  # radial nodes per panel in the 1-D block tests


@pytest.mark.parametrize("loop", [cumulative_radial, cumulative_halfline_out, cumulative_halfline_in])
@pytest.mark.parametrize("g", [
    lambda x: np.cos(5.0 * x) / (1.0 + x ** 4),
    lambda x: np.exp(1j * 3.0 * x - 0.01 * x) / (1.0 + x) - 1e-30 * x,
], ids=["real", "complex"])
@pytest.mark.parametrize("shell_points", [quadrature.SHELL_POINTS, 20, _LINE_N, 1])
def test_line_loops_stream_nodes_across_panels(monkeypatch, loop, g, shell_points):
    # a 1-D integrand takes the next SHELL_POINTS nodes of one stream of all
    # panels' nodes per call, across panel bounds (20 splits each 24-node
    # panel, 24 is one panel, 1 one node); the calls concatenate to every
    # panel's nodes in order, and the results are byte-identical to the
    # per-panel fsum oracle
    monkeypatch.setattr(quadrature, "SHELL_POINTS", shell_points)
    calls = []

    def recording(x):
        calls.append(x.copy())
        return g(x)

    args = (3,) if loop is cumulative_radial else ()
    got = loop(recording, *args, _LINE_LADDER, _LINE_N)
    want = _line_oracle(loop, g, _LINE_N)
    for v, ref in zip(got, want):
        assert v.dtype == ref.dtype and v.tobytes() == ref.tobytes()
    nodes = np.concatenate([panel_rule(a, b, _LINE_N)[0] for a, b, _ in _line_layout(loop)[0]])
    assert len(nodes) >= 16 * _LINE_N
    assert [len(x) for x in calls] == [min(shell_points, len(nodes) - s) for s in range(0, len(nodes), shell_points)]
    assert np.concatenate(calls).tobytes() == nodes.tobytes()


@pytest.mark.parametrize("shell_points", [quadrature.SHELL_POINTS, 40 * 288, 10 ** 9])
def test_ball_blocks_never_cross_a_panel(monkeypatch, shell_points):
    # a cumulative_ball call takes whole nodes of one panel, even when the
    # bound would hold more than a panel (32 nodes of 288 directions)
    monkeypatch.setattr(quadrature, "SHELL_POINTS", shell_points)
    radii = []
    _ball(lambda x: radii.append(row_norm(x)) or _REAL(x))
    ladder = geometric_ladder(4.0, 256.0, 6)
    panels = quadrature._outward_panels(quadrature._shell_bounds(ladder, quadrature.DEFAULT_INNER))
    assert len(radii) == len(panels)
    for r, (a, b, _) in zip(radii, panels):
        assert a < r.min() and r.max() < b and len(r) == 32 * len(_BALL_SPHERE.points)


def _real_and_complex_runs(monkeypatch, loop, g, *args):
    """loop(g, *args) and loop(g + 0j, *args), with the panels, the reducer's
    paired (signed and absolute) and one-part sums, and the np.abs copies
    (calls without ``out``) of the quadrature module each made."""
    calls = {}
    panel_rule, add = quadrature.panel_rule, quadrature._JoinedSums._add

    def counted_panel_rule(*a):
        calls["panels"] += 1
        return panel_rule(*a)

    def counted_add(self, a, parts):
        calls["paired" if len(parts) == 2 else "sums"] += 1
        return add(self, a, parts)

    monkeypatch.setattr(quadrature, "panel_rule", counted_panel_rule)
    monkeypatch.setattr(quadrature._JoinedSums, "_add", counted_add)
    copies = _counted_abs_copies(monkeypatch)
    runs = []
    for h in (g, lambda x: g(x) + 0j):
        calls.update(panels=0, sums=0, paired=0)
        copies.clear()
        runs.append((loop(h, *args), dict(calls, abs=len(copies))))
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
    # absolute values are byte-identical to those of g + 0j; each real panel
    # (one block here) makes one paired sum and no np.abs copy, each complex
    # panel three one-part sums (real, imaginary, modulus)
    (real, real_calls), (cplx, cplx_calls) = _real_and_complex_runs(monkeypatch, loop, g, *args)
    for got, want in zip(real, cplx):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    n = real_calls["panels"]
    assert n == cplx_calls["panels"] > 0
    assert real_calls == {"panels": n, "sums": 0, "paired": n, "abs": 0}
    assert cplx_calls == {"panels": n, "sums": 3 * n, "paired": 0, "abs": n}


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


def test_int_power_matches_repeated_products():
    x = np.array([2.0, -3.0, 0.5, -0.0, 1e-200])  # exact powers (or 0.0) in any product order
    for k in range(1, 12):
        want = np.ones_like(x)
        for _ in range(k):
            want = want * x
        assert quadrature.int_power(x.copy(), k).tobytes() == want.tobytes()
    assert quadrature.int_power(x.copy(), np.int64(3)).tobytes() == (x * x * x).tobytes()


@pytest.mark.parametrize("k", [0, -1, -2, 2.0, 1.5, True, None, "2"], ids=repr)
def test_int_power_rejects_k_below_one_and_non_integers(k):
    x = np.array([2.0, 3.0])
    with pytest.raises(ValueError, match="integer k >= 1"):
        quadrature.int_power(x, k)
    assert x.tolist() == [2.0, 3.0]


# one-column integrands for the (M, K) runs of the shell loop
_REAL = lambda x: np.cos(3.0 * x[:, 0]) * np.exp(-0.05 * row_norm(x))
_REAL2 = lambda x: x[:, 1] / (1.0 + row_norm(x) ** 3)
_COMPLEX = lambda x: np.exp(-0.05 * row_norm(x) + 1j * x[:, 2]) / (1.0 + x[:, 0] ** 2)
_COMPLEX2 = lambda x: (1.0 - 2j) * x[:, 0] * x[:, 1] / (1.0 + row_norm(x) ** 4)


def _beyond(radius, value, f):
    """f with ``value(x)`` at the points beyond ``radius``."""
    return lambda x: np.where(row_norm(x) > radius, value(x), f(x))


def _bands(first, then, f):
    """f with ``first`` at the points with 100 < |x| < 130 and ``then``
    beyond |x| = 200: radial nodes of one panel, in different blocks when a
    block is at most a few nodes."""
    def g(x):
        r = row_norm(x)
        return np.select([(r > 100.0) & (r < 130.0), r > 200.0], [first, then], f(x))
    return g


_BALL_SPHERE = sphere_rule(3, (12, 24))  # 288 directions: 9,216 points per 32-node panel


def _ball(f):
    return cumulative_ball(f, 3, geometric_ladder(4.0, 256.0, 6), _BALL_SPHERE)


def _ball_outcome(f):
    # the bytes of both results, or the exception
    try:
        return [v.tobytes() for v in _ball(f)]
    except ValueError as exc:
        return repr(exc)


# the shell loop's bound and two that split its panels
_SHELL_BOUNDS = (
    quadrature.SHELL_POINTS,  # one block per panel
    31 * 288,  # 31 nodes of limb totals, then one node of 288 points for fsum
    1000,  # blocks of 3 nodes (864 points), the last of 2
    100,  # fewer than a node's 288 points: one node per block
)


@pytest.mark.parametrize("columns, outcome", [
    ([_REAL, _REAL2], "finite"),
    ([_COMPLEX, _COMPLEX2, _COMPLEX], "finite"),
    ([_COMPLEX, _REAL, _REAL2], "finite"),  # real columns on the complex path against their real runs
    ([_REAL, _beyond(100.0, lambda x: np.full(len(x), np.inf), _REAL2)], "non-finite"),
    ([_beyond(100.0, lambda x: np.full(len(x), np.nan), _REAL), _REAL2], "non-finite"),
    ([_REAL, _beyond(100.0, lambda x: np.where(x[:, 0] > 0, np.inf, -np.inf), _REAL2)], "raises"),
    ([_beyond(50.0, lambda x: np.full(len(x), np.inf + 0j), _COMPLEX), _COMPLEX2], "non-finite"),
    # the non-finite values of one panel in different blocks
    ([_REAL, _bands(np.inf, -np.inf, _REAL2)], "raises"),
    ([_bands(np.nan, np.inf, _REAL), _REAL2], "non-finite"),
    ([_REAL2, _bands(-np.inf, np.nan, _REAL)], "non-finite"),
    ([_bands(-np.inf + 0j, np.nan + 0j, _COMPLEX), _COMPLEX2], "non-finite"),
    ([_bands(complex(0.0, math.inf), complex(0.0, -math.inf), _COMPLEX), _REAL], "raises"),  # inf - inf in the imaginary part
])
def test_cumulative_ball_columns_are_their_one_column_runs(monkeypatch, match_columns, columns, outcome):
    # an (M, K) integrand gives (L, K) results, each column bit for bit its own
    # (M,) run, or the same exception (here fsum's inf - inf); a panel split
    # into blocks gives bit for bit its one-block run, or the same exception
    stacked = lambda x: np.stack([c(x) for c in columns], axis=1)  # noqa: E731
    with np.errstate(invalid="ignore"):  # inf + 0j times a weight has a 0 * inf imaginary part
        whole = _ball_outcome(stacked)
        for shell_points in _SHELL_BOUNDS:
            monkeypatch.setattr(quadrature, "SHELL_POINTS", shell_points)
            assert _ball_outcome(stacked) == whole
            got = match_columns(
                _ball, columns, lambda res, k: [v if k is None else v[:, k] for v in res]
            )
            kind = "raises" if isinstance(got, str) else "finite" if np.all(np.isfinite(got[0])) else "non-finite"
            assert kind == outcome


@pytest.mark.parametrize("shell_points, block_nodes", [(quadrature.SHELL_POINTS, 32), (1000, 3), (576, 2), (100, 1)])
def test_shell_loop_calls_are_whole_nodes_within_the_bound(monkeypatch, shell_points, block_nodes):
    # every integrand call sees at most SHELL_POINTS points (one node's 288
    # when the bound is smaller), and each panel's calls are its whole nodes
    # in order: together the points of its one-block call
    monkeypatch.setattr(quadrature, "SHELL_POINTS", shell_points)
    calls = []

    def f(x):
        calls.append(x.copy())
        return _REAL(x)

    ladder = geometric_ladder(4.0, 256.0, 6)
    _ball(f)
    n_dir = len(_BALL_SPHERE.points)
    panels = quadrature._outward_panels(quadrature._shell_bounds(ladder, quadrature.DEFAULT_INNER))
    per_panel = -(-32 // block_nodes)
    assert len(calls) == per_panel * len(panels)
    for a, b, _ in panels:
        nodes = quadrature.panel_rule(a, b, 32)[0]
        blocks, calls = calls[:per_panel], calls[per_panel:]
        assert [len(x) for x in blocks] == [n_dir * len(nodes[s:s + block_nodes]) for s in range(0, 32, block_nodes)]
        assert all(len(x) <= max(shell_points, n_dir) for x in blocks)
        assert np.concatenate(blocks).tobytes() == quadrature.sample_points(nodes, _BALL_SPHERE).tobytes()


def test_cumulative_ball_column_shapes():
    ladder = geometric_ladder(4.0, 256.0, 6)
    for f, shape in ((_REAL, (6,)), (lambda x: _REAL(x)[:, None], (6, 1)),
                     (lambda x: np.stack([_REAL(x)] * 4, axis=1), (6, 4))):
        ivals, avals = cumulative_ball(f, 3, ladder, sphere_rule(3, (4, 8)))
        assert ivals.shape == avals.shape == shape
        assert ivals.dtype == complex and avals.dtype == float
