import io
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from etaforge.asymptotics import (
    ExpansionModel,
    RadiusLadder,
    cov_correction,
    fit_expansion,
    fit_expansion_samples,
    load_samples_csv,
    mellin_reg,
    regint_halfline,
    regint_rp,
    regint_rp_radial,
    scalar_family,
    smooth_cutoff,
    smooth_step,
    stokes_defect,
)
from etaforge.errors import FitError, MissingCoefficientError
from etaforge.quadrature import sphere_rule


# ---------------------------------------------------------------------------
# Model plumbing


def test_model_validation_and_json_roundtrip():
    m = ExpansionModel.make([(-1.0, 1), (-2.0, 0)], remainder=-3.0)
    assert ExpansionModel.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        ExpansionModel.make([(-2.0, 0), (-1.0, 0)])  # not decreasing
    with pytest.raises(ValueError):
        ExpansionModel(((-1.0, 0),), remainder_degree=-0.5)


def test_model_at_zero_reflection():
    m = ExpansionModel.at_zero([(-1, 0), (0, 0), (2, 1)])
    assert m.degrees == (1.0, 0.0, -2.0)


def test_derivative_model_shifts_degrees():
    m = ExpansionModel.make([(-1.0, 1), (-2.0, 0)])
    assert m.derivative().degrees == (-2.0, -3.0)


def test_smooth_cutoff_shape():
    t = np.array([0.0, 0.25, 0.5, 0.6, 0.99, 1.0, 3.0])
    chi = smooth_cutoff(t)
    assert np.all(chi[t <= 0.5] == 0.0)
    assert np.all(chi[t >= 1.0] == 1.0)
    assert np.all(np.diff(chi) >= 0.0)


def test_smooth_cutoff_is_the_shifted_step_on_floats_and_arrays():
    ts = [0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.6, 0.75, 0.99, np.nextafter(1.0, 0.0), 1.0, 3.0, 1e308,
          -1.0, math.nan, math.inf, -math.inf]

    def want(t):
        with np.errstate(over="ignore"):  # (1e308 - 0.5) / 0.5
            return smooth_step((np.asarray(t, dtype=float) - 0.5) / 0.5)

    for t in ts:  # scipy quad passes Python floats
        for arg in (float(t), np.array(t)):
            got = smooth_cutoff(arg)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got.tobytes() == want(arg).tobytes()
    arr = np.array(ts)
    assert smooth_cutoff(arr).tobytes() == want(arr).tobytes()
    assert smooth_cutoff(arr[:2]).tobytes() == want(arr[:2]).tobytes()  # no point on the ramp


def _masked_complex_family(name, **params):
    """The masked complex evaluators that the real ones replaced, as an oracle."""

    def chi(t):
        return smooth_step((np.asarray(t, dtype=float) - 0.5) / 0.5)

    def f(x):
        r = np.linalg.norm(x, axis=1)
        out = np.zeros(len(r), dtype=complex)
        pos = r > 0
        if name == "power_log":
            out[pos] = chi(r[pos]) * r[pos] ** params["alpha"] * np.log(r[pos]) ** params.get("logpow", 0)
        elif name == "lorentz":
            out = 1.0 / (1.0 + r ** 2) + 0j
        elif name == "polynomial":
            for c, k, m in params["coeffs"]:
                out += c * r ** k * (x[:, 0] ** m if m else 1.0)
        elif name == "sign_step":
            out = (chi(np.abs(x[:, 0])) * np.sign(x[:, 0])).astype(complex)
        else:
            j = params.get("j", 0)
            out[pos] = chi(r[pos]) * x[pos, j] * r[pos] ** (-params["q"])
        return out

    return f


def _rows_at_every_radius(rng):
    # r = 0, 0 < r <= 1/2, the cutoff ramp, r >= 1 (up to the ladder's top),
    # the ramp's end points, and a NaN row
    u = rng.normal(size=(400, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = np.concatenate([[0.0, 1e-3, 0.5, 1.0], rng.uniform(0.01, 0.5, 99), rng.uniform(0.5, 1.0, 98),
                        np.exp(rng.uniform(0.0, math.log(65536.0), 198)), [math.nan]])
    return r[:, None] * u


@pytest.mark.parametrize("name, params", [
    ("power_log", {"alpha": -1.0}),
    ("power_log", {"alpha": -2.5, "logpow": 1}),
    ("power_log", {"alpha": 0.5, "logpow": 2}),
    ("lorentz", {}),
    ("polynomial", {"coeffs": [(1.0, 0, 0), (0.5, 0, 1), (1.0, 1, 1), (2.0, 2, 0), (1.5, 1, 2)]}),
    ("sign_step", {}),
    ("coordinate_power", {"j": 0, "q": 3.0}),
    ("coordinate_power", {"j": 2, "q": 1.5}),
])
def test_scalar_family_is_real_and_keeps_the_masked_values(rng, name, params):
    x = _rows_at_every_radius(rng)
    got = scalar_family(name, **params)(x)
    want = _masked_complex_family(name, **params)(x)
    assert got.dtype == np.float64 and got.shape == (len(x),)
    assert not np.any(want.imag)
    assert got.tobytes() == want.real.tobytes()
    if name in ("power_log", "coordinate_power"):
        assert got[0] == 0.0 and got[-1] == 0.0  # |x| = 0 and |x| = NaN


def test_scalar_polynomial_odd_monomial_within_two_ulp(rng):
    # x_1^3 by products, not numpy's pow: equal to 2 ulp
    x = _rows_at_every_radius(rng)[:-1]
    for coeffs in ([(1.0, 0, 3)], [(-0.5, 1, 3)]):
        got = scalar_family("polynomial", coeffs=coeffs)(x)
        want = _masked_complex_family("polynomial", coeffs=coeffs)(x)
        assert got.dtype == np.float64
        np.testing.assert_array_max_ulp(got, want.real, maxulp=2)
    for m in (-1, 1.5):
        with pytest.raises(ValueError, match="nonnegative integers"):
            scalar_family("polynomial", coeffs=[(1.0, 0, m)])


# ---------------------------------------------------------------------------
# Expansion fitting


def test_fit_exact_power_p3():
    f = lambda x: np.linalg.norm(x, axis=1) ** (-2.0) + 0j
    fitted = fit_expansion(f, ExpansionModel.make([(-2, 0)]), p=3)
    c = fitted.coefficient(-2.0, 0)
    assert np.max(np.abs(c - 1.0)) < 1e-10
    assert fitted.valid and fitted.residual < 1e-10


def test_fit_mixed_log_p1():
    def f(x):
        r = np.abs(np.asarray(x, float)[:, 0])
        return r ** (-1.0) * np.log(r) + r ** (-2.0) + 0j

    model = ExpansionModel.make([(-1.0, 1), (-2.0, 0)])
    fitted = fit_expansion(f, model, p=1)
    assert np.max(np.abs(fitted.coefficient(-1.0, 1) - 1.0)) < 1e-9
    assert np.max(np.abs(fitted.coefficient(-1.0, 0))) < 1e-9
    assert np.max(np.abs(fitted.coefficient(-2.0, 0) - 1.0)) < 1e-9


def test_fit_exponentially_small_trace_sum():
    # two-sided eigenvalue sum of the order -3 symbol: pointwise it decays
    # faster than any power, so every fitted power coefficient and the oracle
    # value at large radius both vanish
    def f(x):
        r = np.abs(np.asarray(x, float)[:, 0])
        out = np.zeros(len(r), dtype=complex)
        n = np.arange(-200_000, 200_001) + 0.25
        for i, ri in enumerate(r):  # row at a time: the outer product is large
            out[i] = np.sum(n / (n ** 2 + ri ** 2) ** 2)
        return out

    fitted = fit_expansion(f, ExpansionModel.powers([-2, -3, -4]), p=1)
    lead = np.max(np.abs(fitted.coefficient(-2.0, 0)))
    oracle = abs(1e6 * f(np.array([[1000.0]]))[0])  # x^2 f(x) at x = 10^3
    assert lead < 1e-8
    assert oracle < 1e-8


def test_fit_requires_enough_radii():
    f = lambda x: np.linalg.norm(x, axis=1) ** (-2.0) + 0j
    with pytest.raises(FitError, match="radii"):
        fit_expansion(f, ExpansionModel.powers([-2, -3, -4, -5]), p=1, radii=np.array([4.0, 8.0, 16.0]))


def test_fit_rejects_a_model_without_terms():
    # numpy's "need at least one array to stack" used to escape the fit
    with pytest.raises(FitError, match="no terms"):
        fit_expansion(scalar_family("lorentz"), ExpansionModel.make([], remainder=-3.0), 1)


def test_fit_flags_near_degenerate_degrees():
    f = lambda x: np.linalg.norm(x, axis=1) ** (-2.0) + 0j
    model = ExpansionModel.make([(-2.0, 0), (-2.0 - 1e-11, 0)])
    with pytest.raises(FitError, match="pair"):
        fit_expansion(f, model, p=1)


def test_fit_from_tabulated_csv(tmp_path):
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    rule = sphere_rule(1)
    pts = (radii[:, None, None] * rule.points[None, :, :]).reshape(-1, 1)
    vals = (np.sign(pts[:, 0]) / pts[:, 0] ** 2).reshape(len(radii), 2)
    lines = ["radius,direction,re,im"]
    for i, r in enumerate(radii):
        for j in range(2):
            lines.append(f"{r},{j},{vals[i, j].real},{vals[i, j].imag}")
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(lines))
    rr, table = load_samples_csv(path)
    fitted = fit_expansion_samples(rr, table, ExpansionModel.powers([-2]), rule)
    c = fitted.coefficient(-2.0, 0)
    assert abs(c[0] - 1.0) < 1e-12 and abs(c[1] + 1.0) < 1e-12


def test_fit_samples_requires_enough_radii():
    # 3 radii cannot carry 4 terms; the fit used to come out "valid" with c_-2 = 0.991
    radii = np.array([4.0, 8.0, 16.0])
    table = np.stack([radii ** -2.0, -(radii ** -2.0)], axis=1)
    with pytest.raises(FitError, match="radii"):
        fit_expansion_samples(radii, table, ExpansionModel.powers([-2, -3, -4, -5]), sphere_rule(1))


def test_fit_samples_reject_a_table_of_the_wrong_shape():
    # one column against the two directions of S^0 used to broadcast, and odd
    # data integrated to 2 instead of 0
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    with pytest.raises(ValueError, match="samples must be"):
        fit_expansion_samples(radii, radii[:, None] ** -2.0, ExpansionModel.powers([-2]), sphere_rule(1))


@pytest.mark.parametrize("fault", ["missing", "repeated", "negative"])
def test_load_samples_csv_rejects_missing_or_repeated_cells(tmp_path, fault):
    # each table used to load, with a zero or an overwritten cell
    lines = ["radius,direction,re,im", "4.0,0,1.0,0.0", "4.0,1,-1.0,0.0", "8.0,0,0.25,0.0", "8.0,1,-0.25,0.0"]
    if fault == "missing":
        del lines[3]
    elif fault == "repeated":
        lines.append("8.0,0,0.5,0.0")
    else:
        lines[2] = "4.0,-1,-1.0,0.0"  # would alias direction 1
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=fault):
        load_samples_csv(path)


# ---------------------------------------------------------------------------
# Regularized integrals on R^p


def test_regint_convergent_equals_ordinary(short_ladder):
    f = scalar_family("lorentz")
    got = regint_rp(f, ExpansionModel.powers([-2, -4, -6, -8]), 1, short_ladder).value
    want = 2.0 * quad(lambda t: 1.0 / (1.0 + t * t), 0, np.inf)[0]
    assert abs(got - want) < 1e-9
    assert abs(got - math.pi) < 1e-9


def test_regint_kills_polynomials():
    poly = scalar_family("polynomial", coeffs=[(2.0, 0, 0), (1.0, 0, 1), (0.5, 2, 0), (1.0, 0, 3)])
    model = ExpansionModel.make([(3, 0), (2, 0), (1, 0), (0, 0)], remainder=-1)
    for p in (1, 2, 3):
        val = regint_rp(poly, model, p, sphere=sphere_rule(p, (16, 32) if p == 3 else 64)).value
        assert abs(val) < 1e-8, f"p={p}: {val}"


def test_regint_log_divergence_constant():
    # I(R) = C + 2 log R; the fitted constant matches the inner-ball mass
    f = scalar_family("power_log", alpha=-1.0)
    got = regint_rp(f, ExpansionModel.make([(-1, 0)], remainder=-10), 1).value
    want = 2.0 * quad(lambda u: smooth_cutoff(u) / u, 0.5, 1.0, epsabs=1e-13)[0]
    assert abs(got - want) < 1e-9


def test_regint_radial_agrees_with_full():
    # the ladder starts beyond the exponential transient so the declared
    # (empty) model actually describes the data
    g = lambda r: np.exp(-r) + 0j
    f = lambda x: np.exp(-np.linalg.norm(x, axis=1)) + 0j
    lad = RadiusLadder(24.0, 1024.0, 10)
    empty = ExpansionModel.make([], remainder=-8.0)
    a = regint_rp_radial(g, empty, 3, lad).value
    b = regint_rp(f, empty, 3, lad, sphere_rule(3, (12, 24))).value
    assert abs(a - b) < 1e-9
    assert abs(a - 8.0 * math.pi) < 1e-7  # int e^{-r} r^2 dr = 2 times 4 pi


def test_regint_linearity(short_ladder, rng):
    f = scalar_family("power_log", alpha=-1.0)
    g = scalar_family("lorentz")
    model = ExpansionModel.make([(-1, 0), (-2, 0), (-4, 0), (-6, 0), (-8, 0)])
    al, be = rng.normal(), rng.normal()
    combo = lambda x: al * f(x) + be * g(x)
    va = regint_rp(combo, model, 1, short_ladder).value
    vf = regint_rp(f, model, 1, short_ladder).value
    vg = regint_rp(g, model, 1, short_ladder).value
    assert abs(va - al * vf - be * vg) < 1e-7


@pytest.mark.parametrize("p, s", [(1, 0.3), (2, 0.3), (2, 0.7), (3, 0.3), (3, 0.7), (3, 1.2)])
def test_regint_divergent_matches_analytic_continuation(p, s):
    # s < p/2: int_{|x|<=R} (1+|x|^2)^{-s} diverges, and its finite part is the
    # continuation pi^{p/2} Gamma(s - p/2) / Gamma(s) of the convergent value
    f = lambda x: (1.0 + np.sum(x * x, axis=1)) ** (-s)
    model = ExpansionModel.powers([-2 * s - 2 * j for j in range(8)])
    got = regint_rp(f, model, p).value
    with mpmath.workdps(30):
        want = float(mpmath.pi ** (p / 2) * mpmath.gamma(s - mpmath.mpf(p) / 2) / mpmath.gamma(s))
    assert abs(got - want) <= 1e-8 * abs(want)


# ---------------------------------------------------------------------------
# Half-line and Mellin


def test_halfline_power_log_vanishes():
    for alpha, lp in ((-1.5, 0), (-1.0, 1), (0.5, 2)):
        f = lambda x, a=alpha, l=lp: x ** a * np.log(x) ** l + 0j
        val = regint_halfline(f, ExpansionModel.at_zero([(alpha, lp)]), ExpansionModel.make([(alpha, lp)])).value
        assert abs(val) < 1e-8


def test_halfline_log_partial_fractions():
    # antiderivative log(x/(1+x)): finite parts -log 2 and +log 2
    f = lambda x: 1.0 / (x * (1.0 + x))
    rv = regint_halfline(
        f,
        ExpansionModel.at_zero([(j, 0) for j in range(-1, 7)]),
        ExpansionModel.powers([-2, -3, -4, -5, -6, -7, -8, -9]),
    )
    assert abs(rv.value) < 1e-8
    assert abs(rv.diagnostics["limit_zero"] + math.log(2)) < 1e-9
    assert abs(rv.diagnostics["limit_inf"] - math.log(2)) < 1e-9


def test_halfline_convergent_exponential():
    f = lambda x: np.exp(-x) + 0j
    rv = regint_halfline(
        f,
        ExpansionModel.at_zero([(j, 0) for j in range(8)]),
        ExpansionModel.make([], remainder=-8.0),
        ladder=RadiusLadder(32.0, 65536.0, 20),
        ladder_zero=RadiusLadder(4.0, 65536.0, 24),
    )
    assert abs(rv.value - 1.0) < 1e-10


def test_halfline_rejects_nonfinite():
    f = lambda x: np.where(x > 100.0, np.nan, 1.0 / x)
    with pytest.raises(FitError, match="non-finite"):
        regint_halfline(f, ExpansionModel.at_zero([(-1, 0)]), ExpansionModel.powers([-1]))


def test_even_function_bridge(short_ladder):
    fh = lambda x: 1.0 / (1.0 + x ** 2)
    fp = scalar_family("lorentz")
    h = regint_halfline(
        fh, ExpansionModel.at_zero([(2 * j, 0) for j in range(5)]), ExpansionModel.powers([-2, -4, -6, -8])
    ).value
    r = regint_rp(fp, ExpansionModel.powers([-2, -4, -6, -8]), 1, short_ladder).value
    assert abs(2.0 * h - r) < 1e-9


def test_mellin_convergent_is_gamma():
    val = mellin_reg(
        lambda x: np.exp(-x) + 0j,
        2.0,
        ExpansionModel.at_zero([(j, 0) for j in range(8)]),
        ExpansionModel.make([], remainder=-8.0),
        ladder=RadiusLadder(32.0, 65536.0, 20),
        ladder_zero=RadiusLadder(4.0, 65536.0, 24),
    )
    assert abs(val - 1.0) < 1e-10


def test_mellin_pure_power_vanishes():
    val = mellin_reg(
        lambda x: x ** (-0.5) + 0j, 0.7, ExpansionModel.at_zero([(-0.5, 0)]), ExpansionModel.powers([-0.5])
    )
    assert abs(val) < 1e-10


def test_mellin_beta_identity():
    # oracle: int_0^inf x^{-1/2}/(1+x) dx = pi (classical beta integral),
    # checked against adaptive quadrature
    oracle = quad(lambda t: t ** (-0.5) / (1.0 + t), 0, np.inf, epsabs=1e-12)[0]
    assert abs(oracle - math.pi) < 1e-9
    val = mellin_reg(
        lambda x: 1.0 / (1.0 + x) + 0j,
        0.5,
        ExpansionModel.at_zero([(j, 0) for j in range(8)]),
        ExpansionModel.powers([-1, -2, -3, -4, -5, -6, -7, -8]),
        ladder_zero=RadiusLadder(4.0, 65536.0, 24),
    )
    assert abs(val - oracle) < 1e-9


def test_mellin_complex_s():
    s = 1.5 + 0.7j
    val = mellin_reg(
        lambda x: np.exp(-x) + 0j,
        s,
        ExpansionModel.at_zero([(j, 0) for j in range(7)]),
        ExpansionModel.make([], remainder=-8.0),
        ladder=RadiusLadder(32.0, 65536.0, 20),
        ladder_zero=RadiusLadder(6.0, 65536.0, 24),
    )
    from scipy.special import gamma

    assert abs(val - gamma(s)) < 1e-7


# ---------------------------------------------------------------------------
# Change of variables and Stokes defect


def test_cov_identity_case():
    f = scalar_family("power_log", alpha=-1.0)
    m = ExpansionModel.make([(-1, 0)], remainder=-12)
    pair = cov_correction(f, np.eye(1), m, 1)
    assert abs(pair.correction) < 1e-14
    assert pair.deviation < 1e-9


def test_cov_scaling_log_correction():
    f = scalar_family("power_log", alpha=-1.0)
    m = ExpansionModel.make([(-1, 0)], remainder=-12)
    pair = cov_correction(f, np.array([[2.0]]), m, 1)
    # correction = |2|^{-1} * 2 * log 2
    assert abs(pair.correction - math.log(2.0)) < 1e-10
    assert pair.deviation < 1e-9
    # oracle for the left side: |x|^{-1} primitive with the cutoff mass
    c1 = 2.0 * quad(lambda u: smooth_cutoff(u) / u, 0.5, 1.0, epsabs=1e-13)[0]
    assert abs(pair.lhs - (0.5 * c1 + math.log(2.0))) < 1e-9


def test_cov_anisotropic_p3():
    f = scalar_family("power_log", alpha=-3.0)
    m = ExpansionModel.make([(-3, 0)], remainder=-14)
    pair = cov_correction(f, np.diag([2.0, 1.0, 1.0]), m, 3, sphere=sphere_rule(3, (24, 48)))
    assert pair.deviation < 1e-6


def test_cov_requires_critical_degree():
    f = scalar_family("lorentz")
    with pytest.raises(MissingCoefficientError):
        cov_correction(f, np.eye(1), ExpansionModel.powers([-2, -4]), 1)


def test_stokes_compact_support(short_ladder):
    def bump(x):
        r2 = np.sum(np.asarray(x, float) ** 2, axis=1)
        return np.exp(-r2) + 0j

    pair = stokes_defect(bump, 0, ExpansionModel.make([(0, 0)], remainder=-10), 1, ladder=short_ladder)
    assert abs(pair.lhs) < 1e-8 and abs(pair.rhs) < 1e-8


def test_stokes_sign_jump():
    f = scalar_family("sign_step")
    pair = stokes_defect(f, 0, ExpansionModel.make([(0, 0)], remainder=-10), 1, n_radial=96)
    assert abs(pair.lhs - 2.0) < 1e-7
    assert abs(pair.rhs - 2.0) < 1e-12


def test_stokes_p3_second_moment():
    f = scalar_family("coordinate_power", j=0, q=3.0)
    pair = stokes_defect(f, 0, ExpansionModel.make([(-2, 0)], remainder=-12), 3)
    assert abs(pair.rhs - 4.0 * math.pi / 3.0) < 1e-9
    assert pair.deviation < 1e-6


def test_stokes_missing_degree():
    f = scalar_family("lorentz")
    with pytest.raises(MissingCoefficientError):
        stokes_defect(f, 0, ExpansionModel.powers([-2, -4]), 1)
