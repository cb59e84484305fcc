import math

import numpy as np
import pytest

from etaforge import eta as eta_module
from etaforge import forms, partrace
from etaforge.asymptotics import (
    CONDITION_LIMIT, ExpansionModel, RadiusLadder, fit_expansion, regint_rp, regint_rp_radial,
)
from etaforge.errors import SingularFamilyError
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
    MatrixFamily, affine_clifford, capped_clifford, circle_phase, exterior_derivative, form_from_families, mc_form,
    mf_product, moebius, sphere_clifford, step_unitary, wedge,
)
from etaforge.partrace import SpectralFamily, eta_kernel, tr_param_values
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
    res = eta_k(moebius(s=1.0), MOEBIUS_MODEL, LAD)
    assert abs(res.value - 2.0) < 1e-8
    assert res.half_integer_deviation < 1e-8


def test_eta_constant_family_vanishes():
    fam = MatrixFamily.constant(np.diag([2.0 + 0j, 1.0 + 1j]), 3)
    res = eta_k(fam, ExpansionModel.make([], remainder=-8.0), LAD, sphere_rule(3, (8, 16)), 16)
    assert abs(res.value) < 1e-10


def test_eta2_affine_clifford_sign():
    for a in (1.0, -1.0):
        fam = affine_clifford(a=a, k=2)
        res = eta_k(fam, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 24)
        assert abs(res.value + math.copysign(1.0, a)) < 1e-6


def _counted(fam, rows):
    """fam, recording the number of points of each evaluation in rows."""
    return MatrixFamily(fam.p, fam.n, lambda x: rows.append(len(x)) or fam.func(x), name=fam.name)


def test_eta_dimension_check():
    # k is read off the base dimension: eta_k needs one R^(2k-1), winding
    # R^(2k) and the additivity defect R^3, each checked before any evaluation
    rows = []
    even, odd = _counted(circle_phase(), rows), _counted(affine_clifford(a=1.0, k=2), rows)
    with pytest.raises(ValueError, match=r"odd dimension, got p = \[2\]"):
        eta_k(even, MOEBIUS_MODEL)
    with pytest.raises(ValueError, match=r"odd dimension, got p = \[1, 3\]"):
        eta_module._eta_batch([_counted(moebius(s=1.0), rows), odd], MOEBIUS_MODEL, LAD, None, 16)
    with pytest.raises(ValueError, match=r"odd dimension, got p = \[2\]"):
        eta_variation(PathFamily(lambda s: even), 0.5, MOEBIUS_MODEL)
    with pytest.raises(ValueError, match="even dimension, got p = 3"):
        winding(odd)
    with pytest.raises(ValueError, match=r"on R\^3, got p = 1"):
        additivity_defect(_counted(moebius(s=1.0), rows), _counted(moebius(s=2.0), rows), MOEBIUS_MODEL)
    assert rows == []


def test_eta2_rotational_invariance(rng):
    fam = affine_clifford(a=1.0, k=2)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0

    rot = MatrixFamily(3, 2, lambda x: fam.func(np.asarray(x, float) @ q.T), name="rotated")
    a = eta_k(fam, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 24).value
    b = eta_k(rot, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 24).value
    assert abs(a - b) < 1e-8 * abs(a)


def test_eta2_step_unitary_is_even_integer():
    fam = step_unitary(k=2)
    res = eta_k(fam, ExpansionModel.make([], remainder=-8.0), LAD, sphere_rule(3, (16, 32)), 48)
    assert res.half_integer_deviation < 1e-6
    assert abs(abs(res.value) - 2.0) < 1e-6  # generator of the wound family


def test_winding_values():
    assert abs(winding(circle_phase(), 512) - 1.0) < 1e-10
    w = winding(sphere_clifford(k=2), (32, 32, 64))
    assert abs(w + 1.0) < 1e-8
    const = MatrixFamily.constant(np.diag([1.0 + 0j, 3.0]), 4)
    assert abs(winding(const, (16, 16, 32))) < 1e-12


def test_winding_integrality_corpus(rng):
    # products of wound families stay integral
    f = sphere_clifford(k=2)
    g = MatrixFamily(4, 2, lambda x: f.func(x) @ f.func(x), name="square")
    w = winding(g, (32, 32, 64))
    assert abs(w - round(w.real)) < 1e-6


def test_variation_constant_path():
    path = PathFamily(lambda s: moebius(s=1.0))
    lhs, rhs = eta_variation(path, 0.5, MOEBIUS_MODEL, ExpansionModel.powers([0, -1, -2, -3, -4]), ladder=LAD)
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8


def test_variation_moebius_pole_path():
    path = PathFamily(lambda s: moebius(s=s))
    lhs, rhs = eta_variation(
        path, 0.75, MOEBIUS_MODEL, ExpansionModel.powers([0, -1, -2, -3, -4]), ladder=LAD
    )
    assert abs(lhs) < 1e-6 and abs(rhs) < 1e-6


def test_variation_unwinding_rate():
    path = phase_unwinding_path(0.05)
    lhs, rhs = eta_variation(
        path,
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
    path = PathFamily(lambda s: capped_clifford(a=1.0 + s, k=2))
    lhs, rhs = eta_variation(
        path,
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

    A = capped_clifford(a=1.5, k=2)
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
    w1, w2 = defect_forms(capped_clifford(a=1.0, k=2), _conjugated_rotated_copy(1.5))
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
    A = capped_clifford(a=1.5, k=2)
    w = mc_form(A)
    form = wedge(wedge(form_from_families({(): forms.mf_inverse(A)}), w), w)
    assert len(form.indices) == 3
    rule = sphere_rule(3, (4, 8))
    formal_trace_matrix(form, ExpansionModel.powers([-2, -3, -4, -5, -6]), LAD, rule)
    assert batches == [len(LAD.radii()) * len(rule.points)]


def test_additivity_k1_scalar_and_matrix(rng):
    m1 = ExpansionModel.powers([-2, -3, -4, -5, -6, -7])
    a1 = moebius(s=1.0)
    b1 = moebius(s=2.0)
    ea = eta_k(a1, m1, LAD).value
    eb = eta_k(b1, m1, LAD).value
    eab = eta_k(mf_product(a1, b1), m1, LAD).value
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
    ea2 = eta_k(a2, m1, LAD).value
    eb2 = eta_k(b2, m1, LAD).value
    eab2 = eta_k(mf_product(a2, b2), m1, LAD).value
    assert abs(eab2 - ea2 - eb2) < 1e-6


def _points_near_radius_two(rng, m):
    u = rng.normal(size=(m, 3))
    return u * (2.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(m, 1))) / np.linalg.norm(u, axis=1)[:, None]


def test_defect_form_derivative_matches_structure_equations(rng):
    # with w1 = B^-1 (A^-1 dA) B and w2 = B^-1 dB the structure equations give
    # dw1 = -w2 w1 - w1 w1 - w1 w2 and dw2 = -w2 w2, so
    # d tr(w1 w2) = -tr(w1 w1 w2) - tr(w1 w2 w2) with no derivative left; B has
    # no analytic partials, so its second partials come from the leaf stencil
    w1, w2 = defect_forms(capped_clifford(a=1.0, k=2), _conjugated_rotated_copy(1.5))
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

    w1, w2 = defect_forms(capped_clifford(a=1.0, k=2), MatrixFamily(3, 2, counted, name="counted"))
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
    w1, w2 = defect_forms(capped_clifford(a=1.0, k=2), _conjugated_rotated_copy(1.5))
    pts = _points_near_radius_two(rng, 8)
    exterior_derivative(wedge(w1, w2).traced()).values(pts)
    assert calls == [len(pts)] * 2


def test_additivity_defect_trivial_factors():
    a = capped_clifford(a=1.0, k=2)
    bconst = MatrixFamily.constant(np.diag([1.0 + 0j, 2.0]), 3)
    res = additivity_defect(a, bconst, CAPPED_MODEL, ladder=LAD, sphere=sphere_rule(3, (12, 24)), n_radial=24)
    assert abs(res.lhs) < 1e-4 and abs(res.rhs) < 1e-4
    aconst = MatrixFamily.constant(np.diag([2.0 + 0j, 1.0]), 3)
    res2 = additivity_defect(aconst, a, CAPPED_MODEL, ladder=LAD, sphere=sphere_rule(3, (12, 24)), n_radial=24)
    assert abs(res2.lhs) < 1e-4 and abs(res2.rhs) < 1e-4


# a small ladder and rule for the additivity defect's shared eta_2 runs
DEFECT_RUN = dict(ladder=RadiusLadder(4.0, 4096.0, 14), sphere=sphere_rule(3, (5, 10)), n_radial=24)


@pytest.mark.parametrize("make_b", [
    lambda: MatrixFamily.constant(np.diag([1.0 + 0j, 2.0]), 3),
    lambda: _conjugated_rotated_copy(1.5),
], ids=["constant", "genuine"])
def test_additivity_defect_etas_are_the_separate_eta_k(make_b):
    # eta_2 of A, B and AB from one shared pass are bit for bit three eta_k calls
    a, b = capped_clifford(a=1.0, k=2), make_b()
    res = additivity_defect(a, b, CAPPED_MODEL, **DEFECT_RUN)
    assert res.eta_a == eta_k(a, CAPPED_MODEL, **DEFECT_RUN).value
    assert res.eta_b == eta_k(b, CAPPED_MODEL, **DEFECT_RUN).value
    assert res.eta_product == eta_k(mf_product(a, b), CAPPED_MODEL, **DEFECT_RUN).value
    assert res.lhs == res.eta_product - res.eta_a - res.eta_b


def test_additivity_defect_runs_the_leaf_stencil_once_per_panel(monkeypatch):
    # the finite-difference-only B is evaluated by the three shared eta_2
    # integrands exactly as often as by eta_2(AB) alone, whose batches already
    # hold B and its stencils; eta_2(B) alone costs as much again, so three
    # separate calls would run B twice.  The formal trace is left out.
    b = _conjugated_rotated_copy(1.5)
    rows = []

    def counted(x):
        rows.append(len(x))
        return b.func(x)

    a, bc = capped_clifford(a=1.0, k=2), MatrixFamily(3, 2, counted, name="counted")
    monkeypatch.setattr(eta_module, "formal_trace_matrix", lambda *args: 0.0)
    additivity_defect(a, bc, CAPPED_MODEL, **DEFECT_RUN)
    shared, rows[:] = sum(rows), []
    eta_k(mf_product(a, bc), CAPPED_MODEL, **DEFECT_RUN)
    product_alone, rows[:] = sum(rows), []
    eta_k(bc, CAPPED_MODEL, **DEFECT_RUN)
    assert shared == product_alone == sum(rows) > 0


@pytest.mark.parametrize("b", [
    MatrixFamily(3, 3, lambda x: np.broadcast_to(np.eye(3, dtype=complex), (len(x), 3, 3)), name="rank 3"),
    MatrixFamily(1, 2, lambda x: np.broadcast_to(np.eye(2, dtype=complex), (len(x), 2, 2)), name="p = 1"),
], ids=["rank", "base"])
def test_additivity_defect_rejects_factors_of_different_shape(b):
    # a 2 x 2 A with a 3 x 3 B failed inside numpy with a broadcast error
    rows = []
    with pytest.raises(ValueError, match="same base dimension and matrix rank"):
        additivity_defect(
            _counted(capped_clifford(a=1.0, k=2), rows), _counted(b, rows), CAPPED_MODEL, **DEFECT_RUN
        )
    assert rows == []


def _eta_closed_form(a):
    return 1.0 - 2.0 * (a - math.floor(a))


def test_spectral_eta_hurwitz():
    """The half-line route against 1 - 2(a - floor a), the value of the
    Hurwitz zeta at s = 0, off by at most 1.3e-11.  The half-integer a has
    its own test: its spectrum is symmetric and eta is exactly 0."""
    for a in (0.1, 0.25, 0.4):
        assert abs(spectral_eta(a) - _eta_closed_form(a)) < 1e-10, a


def test_spectral_eta_at_a_symmetric_spectrum():
    # at a = 1/2 the spectrum is symmetric: the mirrored eigenvalue pairs
    # cancel exactly, so the integrand's data are 0 and so is eta
    assert spectral_eta(0.5) == 0


def test_spectral_eta_regint_route():
    v = spectral_eta(0.25, k=2)
    assert abs(v - 0.5) < 1e-10
    with pytest.raises(ValueError):
        spectral_eta(0.25, k=1)


def test_spectral_eta_routes_agree():
    """Offsets on both sides of 0 and beyond 1 agree with the closed form and
    with their representative in [0, 1)."""
    for a in (1.25, -0.3):
        v = spectral_eta(a)
        assert abs(v - _eta_closed_form(a)) < 1e-10, a
        assert abs(v - spectral_eta(a - math.floor(a))) < 1e-10, a


def test_eta_suspension_bridge():
    plus = eta_suspension(0.25, 2, +1)
    minus = eta_suspension(0.25, 2, -1)
    assert abs(plus.value + 0.5) < 5e-3
    assert abs(minus.value - 0.5) < 5e-3
    sym = eta_suspension(0.5, 2, +1)
    assert sym.value == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_symmetric_suspension_integrand_is_exactly_zero(quick, k):
    # at a = 1/2 the mirrored eigenvalue pairs cancel exactly, so the
    # suspension integrand is 0 at every radius and the default floor's fit
    # returns exactly 0, here and in eta_suspension, whatever blocks of
    # radii the shell loop hands the eigenvalue sums
    fam = SpectralFamily(0.5, eta_kernel(k))
    p = 2 * k - 1
    pref = math.factorial(p) * 2 ** (k - 1) * (1j) ** (-k)
    lad = RadiusLadder(4.0, 256.0, 16)

    def w(r):
        return pref * tr_param_values(fam, np.asarray(r, dtype=float)[:, None])

    assert not np.any(w(lad.radii()))
    model = ExpansionModel.make([(0.0, 0)] if k == 1 else [], remainder=-2.0 * p)
    assert regint_rp_radial(w, model, p, lad, quick.n_radial).value == 0
    assert eta_suspension(0.5, k).value == 0


def test_minus_suspension_reads_every_sum_from_the_run_store(monkeypatch):
    # a radial shell-loop call hands the eigenvalue sums whole blocks of the
    # ladder's nodes, and the sign - suspension hands them the same blocks as
    # the sign + one: inside shared_sums() it makes no summand call
    calls, summand = [], SpectralFamily.summand
    monkeypatch.setattr(SpectralFamily, "summand", lambda *args: calls.append(1) or summand(*args))
    with partrace.shared_sums():
        eta_suspension(0.25, 2, +1)
        assert calls
        calls.clear()
        minus = eta_suspension(0.25, 2, -1)
    assert not calls
    assert abs(minus.value - 0.5) < 5e-3


def test_eta_suspension_k1():
    # k = 1 suspension, Melrose's suspended eta: eta_1(D + c(mu)) = -eta(D)
    # as well.  At a = 1/4 it is right to 4.6e-12, and at the symmetric
    # spectrum a = 1/2, where eta(D) = 0, exactly
    for a in (0.25, 0.5):
        res = eta_suspension(a, 1, +1)
        assert abs(res.value + _eta_closed_form(a)) < 5e-10, a


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
    const = PathFamily(lambda s: moebius(s=1.0))
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
    fam = affine_clifford(a=a, k=2)
    via_matrix = eta_k(fam, AFFINE_MODEL, LAD, sphere_rule(3, (16, 32)), 32).value

    def closed(r):
        return -12.0 * a * (a * a + r * r) ** (-2.0) + 0j

    reg = regint_rp_radial(closed, AFFINE_MODEL, 3, LAD, 32)
    via_closed = 2.0 * c_k(2) * reg.value
    assert abs(via_matrix - via_closed) < 1e-8 * abs(via_closed)
