import math

import numpy as np
import pytest

from etaforge.quadrature import (
    cumulative_ball,
    cumulative_halfline_in,
    cumulative_halfline_out,
    cumulative_radial,
    gauss_legendre,
    geometric_ladder,
    panel_rule,
    richardson_derivative,
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
    # pull back the volume form by hand: sum_j (-1)^j x_j d(hat j)
    from itertools import combinations

    from etaforge.quadrature import chart_minor_determinants

    vols = {1: 2 * math.pi, 2: 4 * math.pi, 3: 2 * math.pi ** 2}
    for d, want in vols.items():
        X, J, W = sphere_chart(d)
        total = 0.0
        for I in combinations(range(d + 1), d):
            j = [m for m in range(d + 1) if m not in I][0]
            total += np.sum(W * (-1.0) ** j * X[:, j] * chart_minor_determinants(J, I))
        assert abs(total - want) < 1e-10


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
