import math

import numpy as np
import pytest

from etaforge.clifford import standard_rep
from etaforge.errors import SingularFamilyError
from etaforge.forms import (
    MatrixFamily,
    clifford_omega_closed_form,
    exterior_derivative,
    form_from_families,
    matrix_family,
    maurer_cartan_power,
    mc_form,
    mf_inverse,
    mf_product,
    sphere_integrate,
    sphere_volume_form,
    wedge,
)


def _coordinate_family(p, j, n=1):
    def f(x):
        return np.asarray(x, float)[:, j].astype(complex)[:, None, None] * np.eye(n)

    ones = tuple(MatrixFamily.constant(np.eye(n, dtype=complex) * (1.0 if i == j else 0.0), p) for i in range(p))
    return MatrixFamily(p, n, f, ones, f"x{j}")


def test_wedge_of_scalar_one_form_with_itself_vanishes(rng):
    p = 3
    w = form_from_families({(j,): _coordinate_family(p, j) for j in range(p)})
    sq = wedge(w, w)
    pts = rng.normal(size=(7, p))
    assert sq.indices
    for vals in sq.values(pts).values():
        assert np.max(np.abs(vals)) < 1e-14


def test_wedge_two_term_hand_expansion(rng):
    # A dx_1 wedge B dx_2 = (AB) dx_1^dx_2, and the flipped order picks up a sign
    rep = standard_rep(2)
    p = 3
    A = MatrixFamily.constant(rep.generators[0], p)
    B = MatrixFamily.constant(rep.generators[1], p)
    w1 = form_from_families({(0,): A})
    w2 = form_from_families({(1,): B})
    pts = rng.normal(size=(4, p))
    prod = wedge(w1, w2)
    assert prod.indices == ((0, 1),)
    assert np.max(np.abs(prod.values(pts)[(0, 1)] - rep.generators[0] @ rep.generators[1])) == 0.0
    flipped = wedge(w2, w1)
    assert np.max(np.abs(flipped.values(pts)[(0, 1)] + rep.generators[1] @ rep.generators[0])) == 0.0


def test_wedge_anticommutator_matches_pointwise(rng):
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    gam = matrix_family("spectral_slice", lam=2.0, k=2)
    w1, w2 = mc_form(fam), mc_form(gam)
    s = wedge(w1, w2)
    t = wedge(w2, w1)
    pts = rng.normal(size=(5, 3)) + 2.0
    a, b = w1.values(pts), w2.values(pts)
    sv, tv = s.values(pts), t.values(pts)
    for I in s.indices:
        i, j = I
        a_i, a_j = a[(i,)], a[(j,)]
        b_i, b_j = b[(i,)], b[(j,)]
        want = a_i @ b_j - a_j @ b_i + b_i @ a_j - b_j @ a_i
        got = sv[I] + tv[I]
        assert np.max(np.abs(got - want)) < 1e-12


def test_wedge_overflow_is_flagged_zero():
    fam = matrix_family("moebius", s=1.0)
    w = mc_form(fam)
    over = wedge(w, w)
    assert not over.indices and over.degree == 2


def test_exterior_derivative_constant_vanishes(rng):
    p = 3
    w = form_from_families({(): MatrixFamily.constant(np.diag([1.0 + 0j, 2.0]), p)})
    dw = exterior_derivative(w)
    pts = rng.normal(size=(5, p))
    assert dw.indices == ((0,), (1,), (2,))
    for vals in dw.values(pts).values():
        assert np.max(np.abs(vals)) < 1e-12


def test_exterior_derivative_hand_example(rng):
    # d(x_2 dx_1) = dx_2 ^ dx_1 = -dx_1 ^ dx_2; the analytic partials make it
    # exact, where a stencil would be off by about 1e-11
    p = 3
    w = form_from_families({(0,): _coordinate_family(p, 1)})
    dw = exterior_derivative(w)
    pts = rng.normal(size=(5, p))
    assert np.max(np.abs(dw.values(pts)[(0, 1)] + 1.0)) < 1e-14


def test_mc_power_parity(rng):
    # d(w^l) = -w^{l+1} for odd l and 0 for even l, w = A^{-1} dA
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    w = mc_form(fam)
    pts = rng.normal(size=(5, 3)) + 1.5

    sq = wedge(w, w)
    dwv, sqv = exterior_derivative(w).values(pts), sq.values(pts)
    assert dwv.keys() == sqv.keys()
    for I in dwv:
        assert np.max(np.abs(dwv[I] + sqv[I])) < 1e-8

    dsq = exterior_derivative(sq)
    for vals in dsq.values(pts).values():
        assert np.max(np.abs(vals)) < 1e-7


def test_maurer_cartan_moebius_coefficient(rng):
    # symbolic oracle: f = (x-i)/(x+i) has f^{-1} f' = 2i/(x^2+1)
    fam = matrix_family("moebius", s=1.0)
    tform = maurer_cartan_power(fam, 1)
    x = rng.normal(size=(9, 1)) * 3.0
    got = tform.values(x)[(0,)][:, 0, 0]
    want = 2j / (x[:, 0] ** 2 + 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_maurer_cartan_power_requires_odd():
    fam = matrix_family("moebius", s=1.0)
    with pytest.raises(ValueError):
        maurer_cartan_power(fam, 2)


def test_constant_family_power_vanishes(rng):
    fam = MatrixFamily.constant(np.diag([2.0 + 0j, 1.0]), 3)
    tform = maurer_cartan_power(fam, 3)
    pts = rng.normal(size=(4, 3))
    for vals in tform.values(pts).values():
        assert np.max(np.abs(vals)) < 1e-12


def test_mc_cubed_matches_closed_form_at_origin_slice():
    # at x = 0 the trace coefficient is 3! a (a^2)^{-2} tr(E1 E2 E3) = -12/a^3
    fam = matrix_family("affine_clifford", a=1.0, k=2)
    tform = maurer_cartan_power(fam, 3)
    got = tform.values(np.zeros((1, 3)))[(0, 1, 2)][0, 0, 0]
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
    tform = maurer_cartan_power(fam, 2 * k - 1)
    pts = rng.normal(size=(20, 2 * k))
    want = clifford_omega_closed_form(rep, pts)
    if k == 1:
        # tr(f^{-1} df) = d log f also has the radial part d log|x| (for k >= 2 the
        # radial contraction is tr((f^{-1} df)^{2k-2}) = 0); the closed form is the rest
        for I in want:
            want[I] = want[I] + pts[:, I[0]] / np.sum(pts ** 2, axis=1)
    got_all = tform.values(pts)
    for I, vals in want.items():
        got = got_all[I][:, 0, 0]
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(got - vals)) < 1e-10 * scale


@pytest.mark.parametrize("analytic", [True, False])
def test_cyclic_traced_power_matches_traced_wedge_power(rng, analytic):
    fam = matrix_family("capped_clifford", a=1.5, k=2)
    if not analytic:
        fam = MatrixFamily(3, 2, fam.func, name="capped, FD partials")
    tform = maurer_cartan_power(fam, 3)
    w = mc_form(fam)
    want = wedge(wedge(w, w), w).traced()
    pts = rng.normal(size=(30, 3)) * 2.0
    assert tform.indices == want.indices == ((0, 1, 2),)
    got, ref = tform.values(pts)[(0, 1, 2)], want.values(pts)[(0, 1, 2)]
    assert got.shape == ref.shape == (30, 1, 1)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    other = wedge(w, wedge(w, w)).traced()  # the other bracketing of the untraced power
    assert np.max(np.abs(got - other.values(pts)[(0, 1, 2)])) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_batch_kernels_match_numpy(rng, n):
    # the kernels take and return the batch layout (N, N, M); the oracles
    # run on the (M, N, N) stacks
    from etaforge.forms import _det_inv, _matmul

    a = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
    b = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
    planar = [np.ascontiguousarray(np.moveaxis(m, 0, -1)) for m in (a, b)]

    def rel(x, y):
        return np.max(np.abs(x - y)) / np.max(np.abs(y))

    def stacked(x):
        return np.moveaxis(x, -1, 0)

    assert rel(stacked(_matmul(*planar)), np.matmul(a, b)) < 1e-13
    const = np.broadcast_to(a[0][..., None], (n, n, 50))  # a constant factor: a zero-stride view
    assert const.strides[-1] == 0
    assert rel(stacked(_matmul(const, planar[1])), np.matmul(a[0], b)) < 1e-13
    assert rel(stacked(_matmul(planar[1], const)), np.matmul(b, a[0])) < 1e-13
    dets, invs = _det_inv(planar[0])
    assert rel(dets, np.linalg.det(a)) < 1e-13
    assert rel(stacked(invs), np.linalg.inv(a)) < 1e-13


def test_singular_point_in_batch_is_reported(rng):
    fam = matrix_family("affine_clifford", a=0.0, k=2)  # c(x) is singular only at x = 0
    pts = rng.normal(size=(8, 3))
    pts[5] = 0.0
    with pytest.raises(SingularFamilyError) as err:
        mc_form(fam).values(pts)
    assert np.array_equal(err.value.point, pts[5])


@pytest.mark.parametrize("n", [2, 4])
def test_numerically_singular_point_in_batch_is_reported(rng, n):
    # at row 5 the determinant is 1e300 * 1e-310 = 1e-10, far above the
    # |det| < 1e-300 test, but the inverse's entry 1e300 / 1e-10 overflows
    pts = rng.normal(size=(8, 2))
    bad = np.diag([1e300, 1e-310] + [1.0] * (n - 2)).astype(complex)

    def f(x):
        out = np.tile(np.eye(n, dtype=complex), (len(x), 1, 1))
        out[np.all(x == pts[5], axis=1)] = bad
        return out

    with pytest.raises(SingularFamilyError, match="numerically singular") as err:
        mf_inverse(MatrixFamily(2, n, f, name="overflowing"))(pts)
    assert np.array_equal(err.value.point, pts[5])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rule_families_return_stacks_at_the_boundary(rng, k):
    # a batch keeps (N, N, M) arrays inside; every entry point hands back the
    # (M, N, N) stack, for a batch and for a single point.  Ranks 1, 2 and 4:
    # k = 3 takes the kernels' numpy path.
    a = matrix_family("affine_clifford", a=1.0 + 0.5j, k=k)
    b = matrix_family("capped_clifford", a=0.7 - 0.2j, k=k)
    p = a.p
    pts = rng.normal(size=(7, p))

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    av, bv = a(pts), b(pts)
    inv = np.linalg.inv(av)
    da = [a.partials[j](pts) for j in range(p)]
    db = [b.partials[j](pts) for j in range(p)]
    prod, ainv, w = mf_product(a, b), mf_inverse(a), mc_form(a)
    for x, at in ((pts, slice(None)), (pts[3], 3)):
        close(prod(x), np.matmul(av, bv)[at])
        close(ainv(x), inv[at])
        vals = w.values(x)
        assert list(vals) == [(j,) for j in range(p)]
        for j in range(p):
            close(prod.partial_family(j)(x), (np.matmul(da[j], bv) + np.matmul(av, db[j]))[at])
            close(ainv.partial_family(j)(x), -np.matmul(np.matmul(inv, da[j]), inv)[at])
            close(vals[(j,)], np.matmul(inv, da[j])[at])


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
    tform = maurer_cartan_power(fam, 3)
    val = sphere_integrate(tform)
    assert abs(val.value + 24.0 * math.pi ** 2) < 1e-6 * 24.0 * math.pi ** 2
    assert val.error_estimate < 1e-8


def test_sphere_integrate_needs_scalar_coefficients():
    fam = matrix_family("sphere_clifford", k=2)
    w = mc_form(fam)
    form = wedge(wedge(w, w), w)
    with pytest.raises(ValueError, match="rank-1"):
        sphere_integrate(form)


def test_sphere_integrate_covers_s1_to_s3_only():
    point = form_from_families({(): MatrixFamily.constant([[1.0]], 1)})  # a 0-form on R^1: S^0
    with pytest.raises(ValueError, match="S\\^1..S\\^3"):
        sphere_integrate(point)
    with pytest.raises(ValueError, match="S\\^1..S\\^3"):
        sphere_integrate(sphere_volume_form(4))  # a top form on R^5


def test_singular_family_reports_point():
    fam = matrix_family("affine_clifford", a=0.0, k=2)
    w = mc_form(fam)
    with pytest.raises(SingularFamilyError) as err:
        w.values(np.zeros((1, 3)))
    assert err.value.point is not None


def test_fd_partials_match_analytic(rng):
    fam = matrix_family("capped_clifford", a=1.0, k=2)
    pts = rng.normal(size=(6, 3))
    for j in range(3):
        analytic = fam.partials[j](pts)
        fd = MatrixFamily(3, 2, fam.func).partial_family(j)(pts)
        assert np.max(np.abs(analytic - fd)) < 1e-9


def test_step_unitary_partials_match_the_fd_leaf(rng):
    # the analytic partials against the order-1 stencil of the same function,
    # inside the flat core (r < 1/2), on the ramp and outside the unit ball
    fam = matrix_family("step_unitary", k=2)
    dirs = rng.normal(size=(12, 3))
    radii = np.repeat([0.2, 0.45, 0.55, 0.75, 0.95, 1.3, 3.0], 12)
    pts = np.tile(dirs / np.linalg.norm(dirs, axis=1)[:, None], (7, 1)) * radii[:, None]
    for j in range(3):
        fd = MatrixFamily(3, 2, fam.func).partial_family(j)(pts)
        assert np.max(np.abs(fam.partials[j](pts) - fd)) < 1e-8


def test_constant_family_values_are_read_only_views():
    fam = MatrixFamily.constant(np.eye(2, dtype=complex), 3)
    vals = fam(np.zeros((5, 3)))
    assert vals.shape == (5, 2, 2) and not vals.flags.writeable


def test_leaf_jets_match_closed_form(rng):
    # f = exp(x0) sin(x1) x2 without analytic partials: the first partials come
    # from the order-1 stencil and d0 d1 f from the order-2 stencil; the same
    # family with analytic first partials takes d0 d1 f from an order-1
    # stencil on d0 f; the order-2 stencil's round-off is near eps / h^2 with
    # h = 1e-5 (1 + |x|), so it is held to 1e-6
    from etaforge.forms import _Batch

    def f(x):
        return (np.exp(x[:, 0]) * np.sin(x[:, 1]) * x[:, 2]).astype(complex)[:, None, None]

    def d0(x):
        return f(x)

    def d1(x):
        return (np.exp(x[:, 0]) * np.cos(x[:, 1]) * x[:, 2]).astype(complex)[:, None, None]

    def d2(x):
        return (np.exp(x[:, 0]) * np.sin(x[:, 1])).astype(complex)[:, None, None]

    analytic = MatrixFamily(3, 1, f, tuple(MatrixFamily(3, 1, d) for d in (d0, d1, d2)))
    pts = rng.normal(size=(20, 3))
    for fam in (MatrixFamily(3, 1, f), analytic):
        batch = _Batch(pts)
        for S, want in (((0,), d0), ((1,), d1), ((0, 1), d1), ((1, 2), lambda x: d1(x) / x[:, 2, None, None])):
            ref = want(pts)
            got = np.moveaxis(batch.family(fam, S), -1, 0)  # the batch layout (N, N, M) as (M, N, N)
            assert np.max(np.abs(got - ref)) < (1e-9 if len(S) == 1 else 1e-6) * np.max(np.abs(ref))


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


# each fault of a 2 x 2 table, the error naming it, and what the table did before
_TABLE_FAULTS = {
    "missing": "missing cell at x = 0.0, row = 0, col = 1",  # read as 0: a singular matrix
    "repeated": "repeated cell at x = 0.0, row = 1, col = 1",  # overwrote the first value
    "negative": "negative index at x = 0.0, row = -1, col = 1",  # aliased the last row
    "wide": "missing cell at x = 0.0, row = 0, col = 2",  # col 2 of a 2-row table: a bare IndexError
    "empty": "no cells",  # failed in max() of an empty sequence
    "short": "a row needs 5 fields",  # a bare IndexError
}


@pytest.mark.parametrize("fault", list(_TABLE_FAULTS))
def test_tabulated_matrix_family_rejects_malformed_tables(tmp_path, fault):
    from etaforge.forms import matrix_family_from_csv

    lines = ["x,row,col,re,im"] + [f"{x},{i},{j},{x + i - j},0.0" for x in (0.0, 1.0) for i in range(2) for j in range(2)]
    if fault == "missing":
        lines.remove("0.0,0,1,-1.0,0.0")
    elif fault == "repeated":
        lines.append("0.0,1,1,2.0,0.0")
    elif fault == "negative":
        lines[lines.index("0.0,1,1,0.0,0.0")] = "0.0,-1,1,0.0,0.0"
    elif fault == "wide":
        lines.append("1.0,1,2,5.0,0.0")
    elif fault == "short":
        lines[-1] = "1.0,1,1,1.0"
    else:
        lines = lines[:1]
    path = tmp_path / "family.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=_TABLE_FAULTS[fault]):
        matrix_family_from_csv(path)
