import math

import numpy as np
import pytest

from etaforge.clifford import standard_rep
from etaforge.errors import SingularFamilyError
from etaforge.forms import (
    MatrixFamily,
    clifford_omega_closed_form,
    exterior_derivative,
    form_from_family,
    matrix_family,
    maurer_cartan_power,
    mc_form,
    mf_constant,
    mf_product,
    sphere_integrate,
    sphere_volume_form,
    wedge,
)


def _coordinate_family(p, j, n=1):
    def f(x):
        return np.asarray(x, float)[:, j].astype(complex)[:, None, None] * np.eye(n)

    fam = MatrixFamily(p, n, f, name=f"x{j}")
    fam.partials = tuple(
        mf_constant(np.eye(n, dtype=complex) * (1.0 if i == j else 0.0), p) for i in range(p)
    )
    return fam


def test_wedge_of_scalar_one_form_with_itself_vanishes(rng):
    p = 3
    coeffs = {(j,): _coordinate_family(p, j) for j in range(p)}
    from etaforge.forms import MatrixForm

    w = MatrixForm(p, 1, 1, coeffs)
    sq = wedge(w, w)
    pts = rng.normal(size=(7, p))
    for I, fam in sq.coeffs.items():
        assert np.max(np.abs(fam(pts))) < 1e-14


def test_wedge_two_term_hand_expansion(rng):
    # A dx_1 wedge B dx_2 = (AB) dx_1^dx_2, and the flipped order picks up a sign
    rep = standard_rep(2)
    p = 3
    A = mf_constant(rep.generators[0], p)
    B = mf_constant(rep.generators[1], p)
    from etaforge.forms import MatrixForm

    w1 = MatrixForm(p, 2, 1, {(0,): A})
    w2 = MatrixForm(p, 2, 1, {(1,): B})
    pts = rng.normal(size=(4, p))
    prod = wedge(w1, w2)
    assert set(prod.coeffs) == {(0, 1)}
    assert np.max(np.abs(prod.coeffs[(0, 1)](pts) - rep.generators[0] @ rep.generators[1])) == 0.0
    flipped = wedge(w2, w1)
    assert np.max(np.abs(flipped.coeffs[(0, 1)](pts) + rep.generators[1] @ rep.generators[0])) == 0.0


def test_wedge_anticommutator_matches_pointwise(rng):
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    gam = matrix_family("spectral_slice", lam=2.0, k=2)
    w1, w2 = mc_form(fam), mc_form(gam)
    s = wedge(w1, w2)
    t = wedge(w2, w1)
    pts = rng.normal(size=(5, 3)) + 2.0
    for I in s.coeffs:
        i, j = I
        a_i, a_j = w1.coeffs[(i,)](pts), w1.coeffs[(j,)](pts)
        b_i, b_j = w2.coeffs[(i,)](pts), w2.coeffs[(j,)](pts)
        want = a_i @ b_j - a_j @ b_i + b_i @ a_j - b_j @ a_i
        got = s.coeffs[I](pts) + t.coeffs[I](pts)
        assert np.max(np.abs(got - want)) < 1e-12


def test_wedge_overflow_is_flagged_zero():
    fam = matrix_family("moebius", s=1.0)
    w = mc_form(fam)
    over = wedge(w, w)
    assert not over.coeffs and over.degree == 2


def test_exterior_derivative_constant_vanishes(rng):
    p = 3
    w = form_from_family(mf_constant(np.diag([1.0 + 0j, 2.0]), p))
    dw = exterior_derivative(w)
    pts = rng.normal(size=(5, p))
    for fam in dw.coeffs.values():
        assert np.max(np.abs(fam(pts))) < 1e-12


def test_exterior_derivative_hand_example(rng):
    # d(x_2 dx_1) = dx_2 ^ dx_1 = -dx_1 ^ dx_2
    p = 3
    from etaforge.forms import MatrixForm

    w = MatrixForm(p, 1, 1, {(0,): _coordinate_family(p, 1)})
    dw = exterior_derivative(w, scheme="analytic")
    pts = rng.normal(size=(5, p))
    assert np.max(np.abs(dw.coeffs[(0, 1)](pts) + 1.0)) < 1e-14


def test_mc_power_parity(rng):
    # d(w^l) = -w^{l+1} for odd l and 0 for even l, w = A^{-1} dA
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    w = mc_form(fam)
    pts = rng.normal(size=(5, 3)) + 1.5

    dw = exterior_derivative(w)
    sq = wedge(w, w)
    for I in set(dw.coeffs) | set(sq.coeffs):
        assert np.max(np.abs(dw.evaluate(I, pts) + sq.evaluate(I, pts))) < 1e-8

    dsq = exterior_derivative(sq)
    for I in dsq.coeffs:
        assert np.max(np.abs(dsq.coeffs[I](pts))) < 1e-7


def test_maurer_cartan_moebius_coefficient(rng):
    # symbolic oracle: f = (x-i)/(x+i) has f^{-1} f' = 2i/(x^2+1)
    fam = matrix_family("moebius", s=1.0)
    form, tform = maurer_cartan_power(fam, 1)
    x = rng.normal(size=(9, 1)) * 3.0
    got = tform.coeffs[(0,)](x)[:, 0, 0]
    want = 2j / (x[:, 0] ** 2 + 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_maurer_cartan_power_requires_odd():
    fam = matrix_family("moebius", s=1.0)
    with pytest.raises(ValueError):
        maurer_cartan_power(fam, 2)


def test_constant_family_power_vanishes(rng):
    fam = mf_constant(np.diag([2.0 + 0j, 1.0]), 3)
    form, tform = maurer_cartan_power(fam, 3)
    pts = rng.normal(size=(4, 3))
    for f in tform.coeffs.values():
        assert np.max(np.abs(f(pts))) < 1e-12


def test_mc_cubed_matches_closed_form_at_origin_slice():
    # at x = 0 the trace coefficient is 3! a (a^2)^{-2} tr(E1 E2 E3) = -12/a^3
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    _, tform = maurer_cartan_power(fam, 3)
    got = tform.coeffs[(0, 1, 2)](np.zeros((1, 3)))[0, 0, 0]
    assert abs(got - (-12.0)) < 1e-10


def test_closed_form_slots_and_scaling(rng):
    rep = standard_rep(2)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    out = clifford_omega_closed_form(rep, x)
    assert abs(out[(1, 2, 3)] - (-12.0)) == 0.0
    for I in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
        assert out[I] == 0.0
    y = rng.normal(size=4)
    a = clifford_omega_closed_form(rep, y)
    b = clifford_omega_closed_form(rep, 2.0 * y)
    for I in a:
        assert abs(b[I] - a[I] * 2.0 ** (-3)) < 1e-12 * abs(a[I])


@pytest.mark.parametrize("k", [1, 2, 3])  # ranks 1, 2 and 4: both kernel paths
def test_closed_form_matches_mc_power(rng, k):
    rep = standard_rep(k)
    fam = matrix_family("sphere_clifford", k=k)
    _, tform = maurer_cartan_power(fam, 2 * k - 1)
    pts = rng.normal(size=(20, 2 * k))
    want = clifford_omega_closed_form(rep, pts)
    if k == 1:
        # tr(f^{-1} df) = d log f also has the radial part d log|x| (for k >= 2 the
        # radial contraction is tr((f^{-1} df)^{2k-2}) = 0); the closed form is the rest
        for I in want:
            want[I] = want[I] + pts[:, I[0]] / np.sum(pts ** 2, axis=1)
    for I, vals in want.items():
        got = tform.coeffs[I](pts)[:, 0, 0]
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(got - vals)) < 1e-10 * scale


@pytest.mark.parametrize("analytic", [True, False])
def test_cyclic_traced_power_matches_traced_wedge_power(rng, analytic):
    fam = matrix_family("capped_clifford", a=1.5, k=2)
    if not analytic:
        fam = MatrixFamily(3, 2, fam.func, name="capped, FD partials")
    form, tform = maurer_cartan_power(fam, 3)
    w = mc_form(fam)
    want = wedge(wedge(w, w), w).traced()
    pts = rng.normal(size=(30, 3)) * 2.0
    assert set(tform.coeffs) == set(want.coeffs) == {(0, 1, 2)}
    got, ref = tform.coeffs[(0, 1, 2)](pts), want.coeffs[(0, 1, 2)](pts)
    assert got.shape == ref.shape == (30, 1, 1)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(got - form.traced().coeffs[(0, 1, 2)](pts))) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_batch_kernels_match_numpy(rng, n):
    from etaforge.forms import _det_inv, _matmul

    a = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
    b = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))

    def rel(x, y):
        return np.max(np.abs(x - y)) / np.max(np.abs(y))

    assert rel(_matmul(a, b), np.matmul(a, b)) < 1e-13
    assert rel(_matmul(a[0], b), np.matmul(a[0], b)) < 1e-13  # a constant left factor broadcasts
    dets, invs = _det_inv(a)
    assert rel(dets, np.linalg.det(a)) < 1e-13
    assert rel(invs, np.linalg.inv(a)) < 1e-13


def test_singular_point_in_batch_is_reported(rng):
    fam = matrix_family("affine_clifford", a=0.0, k=2)  # c(x) is singular only at x = 0
    pts = rng.normal(size=(8, 3))
    pts[5] = 0.0
    with pytest.raises(SingularFamilyError) as err:
        mc_form(fam).coeffs[(0,)](pts)
    assert np.array_equal(err.value.point, pts[5])


def test_closed_form_rejects_origin():
    rep = standard_rep(2)
    with pytest.raises(ValueError):
        clifford_omega_closed_form(rep, np.zeros(4))


def test_sphere_volumes():
    v1 = sphere_integrate(sphere_volume_form(1))
    assert abs(v1.value - 2.0 * math.pi) < 1e-10
    v2 = sphere_integrate(sphere_volume_form(2))
    assert abs(v2.value - 4.0 * math.pi) < 1e-10
    v3 = sphere_integrate(sphere_volume_form(3))
    assert abs(v3.value - 2.0 * math.pi ** 2) < 1e-10


def test_sphere_clifford_integral():
    fam = matrix_family("sphere_clifford", k=2)
    _, tform = maurer_cartan_power(fam, 3)
    val = sphere_integrate(tform)
    assert abs(val.value + 24.0 * math.pi ** 2) < 1e-6 * 24.0 * math.pi ** 2
    assert val.error_estimate < 1e-8


def test_sphere_integrate_needs_scalar_coefficients():
    fam = matrix_family("sphere_clifford", k=2)
    form, _ = maurer_cartan_power(fam, 3)
    with pytest.raises(ValueError, match="rank-1"):
        sphere_integrate(form)


def test_singular_family_reports_point():
    fam = matrix_family("affine_clifford", a=0.0, k=2)
    w = mc_form(fam)
    with pytest.raises(SingularFamilyError) as err:
        w.coeffs[(0,)](np.zeros((1, 3)))
    assert err.value.point is not None


def test_fd_partials_match_analytic(rng):
    fam = matrix_family("capped_clifford", a=1.0, k=2)
    pts = rng.normal(size=(6, 3))
    for j in range(3):
        analytic = fam.partials[j](pts)
        fd = MatrixFamily(3, 2, fam.func).partial_family(j)(pts)
        assert np.max(np.abs(analytic - fd)) < 1e-9


def test_tabulated_matrix_family(tmp_path):
    import csv

    from etaforge.forms import matrix_family_from_csv

    xs = np.linspace(-3.0, 3.0, 61)
    lines = ["x,row,col,re,im"]
    for x in xs:
        m = np.array([[x, 1j * x], [0.0, 1.0]])
        for i in range(2):
            for j in range(2):
                lines.append(f"{x},{i},{j},{m[i, j].real},{m[i, j].imag}")
    path = tmp_path / "family.csv"
    path.write_text("\n".join(lines))
    fam = matrix_family_from_csv(path)
    assert fam.n == 2 and fam.p == 1
    got = fam(np.array([[0.5], [-2.0]]))
    assert abs(got[0, 0, 0] - 0.5) < 1e-12
    assert abs(got[1, 0, 1] + 2j) < 1e-12
    assert abs(got[0, 1, 1] - 1.0) < 1e-12
