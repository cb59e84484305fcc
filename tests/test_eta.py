import math

import numpy as np
import pytest

from etaforge import forms
from etaforge.asymptotics import (
    CONDITION_LIMIT, ExpansionModel, RadiusLadder, fit_expansion, regint_rp, regint_rp_radial,
)
from etaforge.errors import FitError, SingularFamilyError
from etaforge.eta import (
    PathFamily,
    additivity_defect,
    defect_forms,
    c_k,
    divisor_flow,
    eta_k,
    eta_suspension,
    eta_variation,
    formal_trace_matrix,
    linear_bridge_path,
    path_eta_rate,
    phase_unwinding_path,
    spectral_eta,
    winding,
)
from etaforge.experiments import _conjugated_rotated_copy
from etaforge.forms import (
    MatrixFamily, exterior_derivative, form_from_families, matrix_family, mc_form, mf_product, wedge,
)
from etaforge.partrace import SpectralFamily, SpectralModel, kernel, tr_param_values
from etaforge.quadrature import sphere_rule

MOEBIUS_MODEL = ExpansionModel.powers([-2, -4, -6, -8])
AFFINE_MODEL = ExpansionModel.powers([-4, -6, -8, -10])
CAPPED_MODEL = ExpansionModel.powers([-3, -4, -5, -6, -7])
LAD = RadiusLadder(4.0, 4096.0, 16)


def test_c_k_values():
    assert abs(c_k(1) - 1.0 / (2j * math.pi)) < 1e-16
    assert abs(c_k(2) - 1.0 / (24.0 * math.pi ** 2)) < 1e-18
    assert abs(-1.0 / c_k(2) + 24.0 * math.pi ** 2) < 1e-10
    with pytest.raises(ValueError):
        c_k(0)


def test_eta1_moebius_winding():
    # oracle: residue computation, int dx/(x^2+1) = pi, so eta = 2
    res = eta_k(matrix_family("moebius", s=1.0), 1, MOEBIUS_MODEL, LAD)
    assert abs(res.value - 2.0) < 1e-8
    assert res.route == "matrix-form"
    assert res.half_integer_deviation < 1e-8


def test_eta_constant_family_vanishes():
    fam = MatrixFamily.constant(np.diag([2.0 + 0j, 1.0 + 1j]), 3)
    res = eta_k(fam, 2, ExpansionModel.make([], remainder=-8.0), LAD, sphere_rule(3, (8, 16)), 16)
    assert abs(res.value) < 1e-10


def test_eta2_affine_clifford_sign():
    for a in (1.0, -1.0):
        fam = matrix_family("affine_clifford", a=a, k=2)
        res = eta_k(fam, 2, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 24)
        assert abs(res.value + math.copysign(1.0, a)) < 1e-6


def test_eta_dimension_check():
    with pytest.raises(ValueError):
        eta_k(matrix_family("moebius", s=1.0), 2, MOEBIUS_MODEL)


def test_eta2_rotational_invariance(rng):
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0

    rot = MatrixFamily(3, 2, lambda x: fam.func(np.asarray(x, float) @ q.T), name="rotated")
    a = eta_k(fam, 2, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 24).value
    b = eta_k(rot, 2, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 24).value
    assert abs(a - b) < 1e-8 * abs(a)


def test_eta2_step_unitary_is_even_integer():
    fam = matrix_family("step_unitary", k=2)
    res = eta_k(fam, 2, ExpansionModel.make([], remainder=-8.0), LAD, sphere_rule(3, (16, 32)), 48)
    assert res.half_integer_deviation < 1e-6
    assert abs(abs(res.value) - 2.0) < 1e-6  # generator of the wound family


def test_winding_values():
    assert abs(winding(matrix_family("circle_phase"), 1, 512) - 1.0) < 1e-10
    w = winding(matrix_family("sphere_clifford", k=2), 2, (32, 32, 64))
    assert abs(w + 1.0) < 1e-8
    const = MatrixFamily.constant(np.diag([1.0 + 0j, 3.0]), 4)
    assert abs(winding(const, 2, (16, 16, 32))) < 1e-12


def test_winding_integrality_corpus(rng):
    # products of wound families stay integral
    f = matrix_family("sphere_clifford", k=2)
    g = MatrixFamily(4, 2, lambda x: f.func(x) @ f.func(x), name="square")
    w = winding(g, 2, (32, 32, 64))
    assert abs(w - round(w.real)) < 1e-6


def test_variation_constant_path():
    path = PathFamily(lambda s: matrix_family("moebius", s=1.0))
    lhs, rhs = eta_variation(path, 1, 0.5, MOEBIUS_MODEL, ExpansionModel.powers([0, -1, -2, -3, -4]), ladder=LAD)
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8


def test_variation_moebius_pole_path():
    path = PathFamily(lambda s: matrix_family("moebius", s=s))
    lhs, rhs = eta_variation(
        path, 1, 0.75, MOEBIUS_MODEL, ExpansionModel.powers([0, -1, -2, -3, -4]), ladder=LAD
    )
    assert abs(lhs) < 1e-6 and abs(rhs) < 1e-6


def test_variation_unwinding_rate():
    path = phase_unwinding_path(0.05)
    lhs, rhs = eta_variation(
        path,
        1,
        0.5,
        ExpansionModel.powers([-1, -2, -3]),
        ExpansionModel.powers([0, -1, -2]),
        s_step=5e-3,
        ladder=LAD,
        n_radial=96,
    )
    assert abs(rhs + 2.0) < 1e-6
    assert abs(lhs - rhs) < 1e-4


def test_variation_k2_path():
    path = PathFamily(lambda s: matrix_family("capped_clifford", a=1.0 + s, k=2))
    lhs, rhs = eta_variation(
        path,
        2,
        0.5,
        CAPPED_MODEL,
        ExpansionModel.powers([-2, -3, -4, -5, -6]),
        s_step=1e-2,
        ladder=LAD,
        sphere=sphere_rule(3, (12, 24)),
        n_radial=24,
    )
    assert abs(lhs - rhs) < 1e-4


def _formal_trace_regint_d(form, coef_model, rule, n_radial):
    """Reference realization of the formal trace: the regularized integral of
    the top coefficient of d tr(form), whose coefficients sit one degree below
    those of the form."""
    dform = exterior_derivative(form.traced())
    reg = regint_rp(lambda x: dform.values(x)[(0, 1, 2)][:, 0, 0], coef_model.derivative(), 3, LAD, rule, n_radial)
    return reg.value


def test_formal_trace_matrix_routes_agree():
    # the degree p-1 shape from the variation formula: A^{-1} (A^{-1} dA)^2,
    # whose formal trace is genuinely nonzero
    from etaforge.forms import mf_inverse

    A = matrix_family("capped_clifford", a=1.5, k=2)
    w = mc_form(A)
    form = wedge(wedge(form_from_families({(): mf_inverse(A)}), w), w)
    cm = ExpansionModel.powers([-2, -3, -4, -5, -6])
    a = formal_trace_matrix(form, cm, LAD, sphere_rule(3, (16, 32)))
    b = _formal_trace_regint_d(form, cm, sphere_rule(3, (16, 32)), 24)
    assert abs(a) > 1e-3
    assert abs(a - b) < 1e-5


def test_defect_formal_trace_matches_regint_d_on_genuine_pair():
    # the additivity defect's formal trace on a pair whose defect is nonzero,
    # with the coefficient model additivity_defect derives from CAPPED_MODEL;
    # the top coefficient of d tr(w1 w2) has no degree -3 term (fitted: 4e-10),
    # so the reference fits it from CAPPED_MODEL's derivative, [-4..-8].
    # Measured gap 7.7e-8; the reference needs second partials of B, which
    # has no analytic ones.  formal_trace_matrix reads every coefficient from
    # one batch; one fit_expansion per coefficient must give the same bits
    w1, w2 = defect_forms(matrix_family("capped_clifford", a=1.0, k=2), _conjugated_rotated_copy(1.5))
    form = wedge(w1, w2)
    cm = ExpansionModel.powers([-2, -3, -4, -5, -6])
    rule = sphere_rule(3, (8, 16))
    a = formal_trace_matrix(form, cm, LAD, rule)
    b = _formal_trace_regint_d(form, CAPPED_MODEL, rule, 16)
    assert abs(a) > 1.0
    assert abs(a - b) < 2e-7
    traced = form.traced()
    per_coefficient = 0.0 + 0.0j
    for I in traced.indices:
        fit = fit_expansion(lambda x, I=I: traced.values(x)[I][:, 0, 0], cm, 3, LAD, rule)
        assert fit.valid and fit.condition_number < CONDITION_LIMIT
        missing = next(m for m in range(3) if m not in I)
        per_coefficient += (-1.0) ** missing * fit.integrate_coefficient(-2.0, 0, fit.rule.points[:, missing])
    assert a == per_coefficient


def test_formal_trace_matrix_runs_one_batch(monkeypatch):
    # the three coefficients of a 2-form on R^3 come from one batch, not one each
    batches = []
    values = forms.MatrixForm.values

    def counted(form, x, *rest):
        batches.append(len(x))
        return values(form, x, *rest)

    monkeypatch.setattr(forms.MatrixForm, "values", counted)
    A = matrix_family("capped_clifford", a=1.5, k=2)
    w = mc_form(A)
    form = wedge(wedge(form_from_families({(): forms.mf_inverse(A)}), w), w)
    assert len(form.indices) == 3
    rule = sphere_rule(3, (4, 8))
    formal_trace_matrix(form, ExpansionModel.powers([-2, -3, -4, -5, -6]), LAD, rule)
    assert batches == [len(LAD.radii()) * len(rule.points)]


def test_additivity_k1_scalar_and_matrix(rng):
    m1 = ExpansionModel.powers([-2, -3, -4, -5, -6, -7])
    a1 = matrix_family("moebius", s=1.0)
    b1 = matrix_family("moebius", s=2.0)
    ea = eta_k(a1, 1, m1, LAD).value
    eb = eta_k(b1, 1, m1, LAD).value
    eab = eta_k(mf_product(a1, b1), 1, m1, LAD).value
    assert abs(eab - ea - eb) < 1e-7
    assert abs(ea - 2.0) < 1e-7 and abs(eab - 4.0) < 1e-7

    # noncommuting 2x2 pair: embed the scalars against constant conjugators
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))

    def a2f(x):
        m = np.zeros((len(x), 2, 2), complex)
        m[:, 0, 0] = a1.func(x)[:, 0, 0]
        m[:, 1, 1] = 1.0
        return m

    def b2f(x):
        m = np.zeros((len(x), 2, 2), complex)
        m[:, 0, 0] = 1.0
        m[:, 1, 1] = b1.func(x)[:, 0, 0]
        return q @ m @ q.conj().T

    a2 = MatrixFamily(1, 2, a2f, name="A2")
    b2 = MatrixFamily(1, 2, b2f, name="B2")
    ea2 = eta_k(a2, 1, m1, LAD).value
    eb2 = eta_k(b2, 1, m1, LAD).value
    eab2 = eta_k(mf_product(a2, b2), 1, m1, LAD).value
    assert abs(eab2 - ea2 - eb2) < 1e-6


def _points_near_radius_two(rng, m):
    u = rng.normal(size=(m, 3))
    return u * (2.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(m, 1))) / np.linalg.norm(u, axis=1)[:, None]


def test_defect_form_derivative_matches_structure_equations(rng):
    # with w1 = B^-1 (A^-1 dA) B and w2 = B^-1 dB the structure equations give
    # dw1 = -w2 w1 - w1 w1 - w1 w2 and dw2 = -w2 w2, so
    # d tr(w1 w2) = -tr(w1 w1 w2) - tr(w1 w2 w2) with no derivative left; B has
    # no analytic partials, so its second partials come from the leaf stencil
    w1, w2 = defect_forms(matrix_family("capped_clifford", a=1.0, k=2), _conjugated_rotated_copy(1.5))
    pts = _points_near_radius_two(rng, 8)
    top = (0, 1, 2)
    got = exterior_derivative(wedge(w1, w2).traced()).values(pts)[top]
    want = -(wedge(wedge(w1, w1), w2).traced().values(pts)[top]
             + wedge(wedge(w1, w2), w2).traced().values(pts)[top])
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


def test_defect_form_derivative_runs_one_leaf_stencil(rng):
    # the finite-difference-only leaf B is evaluated once per point of the one
    # order-2 stencil: the value, 4 points per first partial and 8 per mixed
    # second partial; a difference of differences would need 4 * 4 per pair
    b = _conjugated_rotated_copy(1.5)
    rows = []

    def counted(x):
        rows.append(len(x))
        return b.func(x)

    w1, w2 = defect_forms(matrix_family("capped_clifford", a=1.0, k=2), MatrixFamily(3, 2, counted, name="counted"))
    pts = _points_near_radius_two(rng, 8)
    exterior_derivative(wedge(w1, w2).traced()).values(pts)
    assert sum(rows) == (1 + 4 * 3 + 8 * 3) * len(pts)


def test_defect_forms_invert_each_factor_once_per_batch(monkeypatch, rng):
    # w1 and w2 share one B^-1 node: a batch of d tr(w1 ^ w2) inverts A and B
    # once each, where a second inverse node for w2 = B^-1 dB made it three
    calls = []
    det_inv = forms._det_inv

    def counted(a):
        calls.append(a.shape[-1])  # the batch layout (N, N, M) has the points last
        return det_inv(a)

    monkeypatch.setattr(forms, "_det_inv", counted)
    w1, w2 = defect_forms(matrix_family("capped_clifford", a=1.0, k=2), _conjugated_rotated_copy(1.5))
    pts = _points_near_radius_two(rng, 8)
    exterior_derivative(wedge(w1, w2).traced()).values(pts)
    assert calls == [len(pts)] * 2


def test_additivity_defect_trivial_factors():
    a = matrix_family("capped_clifford", a=1.0, k=2)
    bconst = MatrixFamily.constant(np.diag([1.0 + 0j, 2.0]), 3)
    res = additivity_defect(a, bconst, CAPPED_MODEL, ladder=LAD, sphere=sphere_rule(3, (12, 24)), n_radial=24)
    assert abs(res.lhs) < 1e-4 and abs(res.rhs) < 1e-4
    aconst = MatrixFamily.constant(np.diag([2.0 + 0j, 1.0]), 3)
    res2 = additivity_defect(aconst, a, CAPPED_MODEL, ladder=LAD, sphere=sphere_rule(3, (12, 24)), n_radial=24)
    assert abs(res2.lhs) < 1e-4 and abs(res2.rhs) < 1e-4


def test_spectral_eta_hurwitz():
    for a in (0.1, 0.25, 0.4):
        assert abs(spectral_eta(SpectralModel.circle(a)) - (1.0 - 2.0 * a)) < 1e-12
    assert abs(spectral_eta(SpectralModel.circle(0.5))) < 1e-14


def test_spectral_eta_regint_route():
    v = spectral_eta(SpectralModel.circle(0.25), method="regint", k=2)
    assert abs(v - 0.5) < 1e-3
    with pytest.raises(ValueError):
        spectral_eta(SpectralModel.circle(0.25), method="regint", k=1)


def test_spectral_eta_routes_agree():
    for a in (0.1, 0.4):
        h = spectral_eta(SpectralModel.circle(a))
        r = spectral_eta(SpectralModel.circle(a), method="regint", k=2)
        assert abs(h - r) < 1e-3


def test_eta_suspension_bridge():
    model = SpectralModel.circle(0.25)
    plus = eta_suspension(model, 2, +1)
    minus = eta_suspension(model, 2, -1)
    assert plus.route == "spectral-reduction"
    assert abs(plus.value + 0.5) < 5e-3
    assert abs(minus.value - 0.5) < 5e-3
    sym = eta_suspension(SpectralModel.circle(0.5), 2, +1)
    assert abs(sym.value) < 1e-6


def test_symmetric_suspension_integrand_needs_the_raised_zero_floor(quick):
    # at a = 1/2 the summand cancels to rounding noise: the default floor
    # reads that noise as a misfit, eta_suspension's 1e-6 floor as zero
    fam = SpectralFamily(SpectralModel.circle(0.5), kernel("eta_kernel", 2), -3.0, p=1)
    pref = math.factorial(3) * 2 * (1j) ** (-2)

    def w(r):
        return pref * tr_param_values(fam, np.asarray(r, dtype=float)[:, None], quick.window)

    model, lad = ExpansionModel.make([], remainder=-6.0), RadiusLadder(4.0, 256.0, 16)
    with pytest.raises(FitError, match="residual"):
        regint_rp_radial(w, model, 3, lad, quick.n_radial)
    assert abs(regint_rp_radial(w, model, 3, lad, quick.n_radial, zero_floor=1e-6).value) < 1e-12


def test_eta_suspension_k1():
    # k = 1 suspension: eta_1(D + c(mu)) = -eta(D) as well
    model = SpectralModel.circle(0.25)
    res = eta_suspension(model, 1, +1)
    assert abs(res.value + 0.5) < 5e-3


def test_divisor_flow_paths():
    rep = divisor_flow(phase_unwinding_path(0.05), linear_bridge_path(0.05))
    assert abs(rep["path_a"] + 2.0) < 1e-6
    assert abs(rep["path_b"]) < 1e-6
    assert abs(rep["difference"] + 2.0) < 1e-6


def test_divisor_flow_width_independence():
    a = divisor_flow(phase_unwinding_path(0.05), linear_bridge_path(0.05))["path_a"]
    b = divisor_flow(phase_unwinding_path(0.025), linear_bridge_path(0.05))["path_a"]
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("width", [0.0, -1.0, -0.0, math.inf, math.nan])
def test_divisor_flow_paths_reject_bad_width(width):
    with pytest.raises(ValueError, match="width"):
        phase_unwinding_path(width)
    with pytest.raises(ValueError, match="width"):
        linear_bridge_path(width)


def test_divisor_flow_constant_path():
    const = PathFamily(lambda s: matrix_family("moebius", s=1.0))
    assert abs(path_eta_rate(const, 0.5)) < 1e-10


def test_divisor_flow_rejects_vanishing_boundary():
    def family_at(s):
        def f(x):
            lam = np.asarray(x, float)[:, 0]
            return np.exp(-(lam ** 2)).astype(complex)[:, None, None]

        return MatrixFamily(1, 1, f, name="gaussian-tails")

    bad = PathFamily(family_at)
    with pytest.raises(SingularFamilyError):
        path_eta_rate(bad, 0.5)


def test_homogeneity_bridge_matrix_vs_closed_form():
    # matrix-form route vs the per-slice closed form -12 a (a^2 + r^2)^{-2}
    a = 1.0
    fam = matrix_family("affine_clifford", a=a, k=2)
    via_matrix = eta_k(fam, 2, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 32).value

    def closed(r):
        return -12.0 * a * (a * a + r * r) ** (-2.0) + 0j

    reg = regint_rp_radial(closed, AFFINE_MODEL, 3, LAD, 32)
    via_closed = 2.0 * c_k(2) * reg.value
    assert abs(via_matrix - via_closed) < 1e-8 * abs(via_closed)
