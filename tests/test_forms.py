import inspect
import math
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from etaforge import forms as forms_module
from etaforge.clifford import CliffordRep, clifford_action, standard_rep, volume_trace
from etaforge.errors import SingularFamilyError
from etaforge.forms import (
    BATCH_POINTS,
    MatrixFamily,
    MatrixForm,
    _blockwise,
    affine_clifford,
    capped_clifford,
    exterior_derivative,
    form_from_families,
    maurer_cartan_power,
    mc_form,
    mf_inverse,
    mf_product,
    moebius,
    sphere_clifford,
    sphere_integrate,
    step_unitary,
    values_of,
    wedge,
)
from etaforge.quadrature import row_norm


# ---------------------------------------------------------------------------
# Oracles


def clifford_omega_closed_form(rep: CliffordRep, x) -> dict[tuple[int, ...], np.ndarray]:
    """Closed-form top coefficients of tr((f^{-1} df)^p) for f(x) = x_0 + c(x')
    on R^{p+1} minus the origin.

    The coefficient on dx_0 ^ ... ^ (dx_j omitted) ^ ... ^ dx_p is
    |x|^{-p-1} p! tr(E_1...E_p) (-1)^j x_j.
    """
    p = rep.p
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != p + 1:
        raise ValueError(f"expected {p + 1}-vectors")
    r = row_norm(pts)
    if np.any(r == 0.0):
        raise ValueError("closed form undefined at the origin")
    pref = r ** (-p - 1) * math.factorial(p)
    tvol = volume_trace(rep)
    out = {}
    for I in combinations(range(p + 1), p):
        j = [m for m in range(p + 1) if m not in I][0]
        vals = pref * tvol * (-1.0) ** j * pts[:, j]
        out[I] = vals[0] if single else vals
    return out


def sphere_volume_form(d: int) -> MatrixForm:
    """sum_j (-1)^j x_j dx_0 ^ ... ^ (dx_j omitted) ^ ... ^ dx_d; restricted to
    S^d this is the volume form."""
    coeffs = {}
    for I in combinations(range(d + 1), d):
        j = [m for m in range(d + 1) if m not in I][0]

        def fn(x, j=j):
            return ((-1.0) ** j * np.asarray(x, dtype=float)[:, j]).astype(complex)[:, None, None]

        coeffs[I] = MatrixFamily(d + 1, 1, fn, name=f"vol_{j}")
    return form_from_families(coeffs)


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
    fam = affine_clifford(a=1.0, k=2)
    gam = affine_clifford(a=2.0, k=2)
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
    fam = moebius(s=1.0)
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
    fam = affine_clifford(a=1.0, k=2)
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
    fam = moebius(s=1.0)
    tform = maurer_cartan_power(fam, 1)
    x = rng.normal(size=(9, 1)) * 3.0
    got = tform.values(x)[(0,)][:, 0, 0]
    want = 2j / (x[:, 0] ** 2 + 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_maurer_cartan_power_requires_odd():
    fam = moebius(s=1.0)
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
    fam = affine_clifford(a=1.0, k=2)
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


@pytest.mark.parametrize("k", [1, 2])  # ranks 1 and 2: both kernel paths
def test_closed_form_matches_mc_power(rng, k):
    rep = standard_rep(k)
    fam = sphere_clifford(k=k)
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
    fam = capped_clifford(a=1.5, k=2)
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


@pytest.mark.parametrize("n", [1, 2])
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
    fam = affine_clifford(a=0.0, k=2)  # c(x) is singular only at x = 0
    pts = rng.normal(size=(8, 3))
    pts[5] = 0.0
    with pytest.raises(SingularFamilyError) as err:
        mc_form(fam).values(pts)
    assert np.array_equal(err.value.point, pts[5])


@pytest.mark.parametrize("n", [2])
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


def _batch_partial(fam, j, x):
    """d_j of a rule family at one point or a batch, from the batch jet."""
    x = np.asarray(x, dtype=float)
    vals = _blockwise(fam, np.atleast_2d(x), (j,))
    return vals[0] if x.ndim == 1 else vals


@pytest.mark.parametrize("k", [1, 2])
def test_rule_families_return_stacks_at_the_boundary(rng, k):
    # a batch keeps (N, N, M) arrays inside; every entry point hands back the
    # (M, N, N) stack, for a batch and for a single point, at ranks 1 and 2
    a = affine_clifford(a=1.0 + 0.5j, k=k)
    b = capped_clifford(a=0.7 - 0.2j, k=k)
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
            close(_batch_partial(prod, j, x), (np.matmul(da[j], bv) + np.matmul(av, db[j]))[at])
            close(_batch_partial(ainv, j, x), -np.matmul(np.matmul(inv, da[j]), inv)[at])
            close(vals[(j,)], np.matmul(inv, da[j])[at])


@pytest.mark.parametrize("build", [
    lambda f: mf_product(f, f),
    mf_inverse,
    mc_form,
    lambda f: maurer_cartan_power(f, 5),
    lambda f: wedge(form_from_families({(): f}), form_from_families({(): f})),
])
def test_a_matrix_rank_above_two_is_rejected(build):
    # sphere_rule stops at S^3, so every integrable Clifford family has k <= 2
    # and rank <= 2; the batch kernels handle ranks 1 and 2 only
    fam = capped_clifford(a=1.0, k=3)
    assert fam.n == 4
    with pytest.raises(ValueError, match="at most 2"):
        build(fam)


def test_mf_product_rejects_operands_of_different_shape():
    # a 1 x 1 times a 2 x 2 family claimed n = 1 and returned 2 x 2 values,
    # and a p = 1 times a p = 3 family claimed p = 1
    capped = capped_clifford(a=1.0, k=2)
    with pytest.raises(ValueError, match=r"\(3, 1\) and \(3, 2\)"):
        mf_product(MatrixFamily.constant([[2.0]], 3), capped)
    with pytest.raises(ValueError, match=r"\(1, 1\) and \(3, 1\)"):
        mf_product(MatrixFamily.constant([[2.0]], 1), MatrixFamily.constant([[3.0]], 3))
    assert (mf_product(capped, capped).p, mf_product(capped, capped).n) == (3, 2)


def test_values_of_shares_one_batch_and_matches_each_form(rng):
    # three forms on one leaf: every coefficient is bit for bit the form's own
    # values, and the leaf is evaluated once per point, as for one form alone
    base = capped_clifford(a=1.0 + 0.5j, k=2)
    rows = []

    def counted(x):
        rows.append(len(x))
        return base.func(x)

    leaf = MatrixFamily(3, 2, counted, base.partials, "counted")
    w = mc_form(leaf)
    forms = [w, wedge(w, w), form_from_families({(): mf_inverse(leaf)})]
    pts = rng.normal(size=(9, 3))
    for x in (pts, pts[4]):
        alone = []
        for form in forms:
            rows.clear()
            alone.append(form.values(x))
            assert sum(rows) == len(np.atleast_2d(x))
        rows.clear()
        together = values_of(forms, x)
        assert sum(rows) == len(np.atleast_2d(x))
        for got, want in zip(together, alone):
            assert list(got) == list(want)
            for I in want:
                assert got[I].shape == want[I].shape and got[I].tobytes() == want[I].tobytes()
    assert values_of([], pts) == []
    assert values_of([MatrixForm(3, 2, 4, {}), w], pts)[0] == {}


def test_form_coefficients_are_families_that_a_batch_memoizes_alone(rng):
    # a form is a dict of coefficient families: each, called on its own, gives
    # the form's coefficient bit for bit, and a batch keys every array it
    # holds by (family, sorted index set) only
    A = capped_clifford(a=1.5, k=2)
    pts = rng.normal(size=(7, 3))
    for form in (maurer_cartan_power(A, 3), wedge(mc_form(A), mc_form(A))):
        assert form.indices == tuple(sorted(form.coefficients)) and form.indices
        vals = form.values(pts)
        for I, c in form.coefficients.items():
            assert isinstance(c, MatrixFamily) and (c.p, c.n) == (form.p, form.n)
            got = c(pts)
            assert got.shape == vals[I].shape and got.tobytes() == vals[I].tobytes()
        batch = forms_module._Batch(pts)
        batch.family(form.coefficients[form.indices[-1]])
        assert len(batch.done) > 1
        assert all(len(key) == 2 and isinstance(key[0], MatrixFamily) and isinstance(key[1], tuple)
                   for key in batch.done)


def test_values_of_rejects_forms_of_different_rank(rng):
    a = capped_clifford(a=1.0, k=2)
    with pytest.raises(ValueError, match="matrix rank"):
        values_of([mc_form(a), maurer_cartan_power(a, 3)], rng.normal(size=(4, 3)))


# ---------------------------------------------------------------------------
# Bounded batches: a call evaluates at most BATCH_POINTS points per batch

_BLOCKS = (0, BATCH_POINTS, 2 * BATCH_POINTS, 3 * BATCH_POINTS, 3 * BATCH_POINTS + 7)


def _recording_leaf(rows, base=None):
    """``base`` (capped_clifford by default) with its analytic partials, its
    value appending to ``rows`` the number of rows it is handed, and the same
    function without partials (stencil partials)."""
    base = base or capped_clifford(a=1.0 + 0.5j, k=2)

    def counted(x):
        rows.append(len(x))
        return base.func(x)

    return (MatrixFamily(base.p, base.n, counted, base.partials, "counted"),
            MatrixFamily(base.p, base.n, counted, name="counted fd"))


def _assert_same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_values_of_over_blocks_is_the_per_block_and_the_one_batch_evaluation(rng, monkeypatch):
    # 3 x 4096 + 7 points: every coefficient is bit for bit the evaluation of
    # each block on its own and the evaluation as one batch; no leaf call
    # sees more than BATCH_POINTS rows
    rows = []
    leaf, fd_leaf = _recording_leaf(rows)
    pts = rng.normal(size=(_BLOCKS[-1], 3))
    for forms in (
        [mc_form(leaf), wedge(mc_form(leaf), mc_form(fd_leaf)), form_from_families({(): mf_inverse(fd_leaf)})],
        [maurer_cartan_power(leaf, 3), maurer_cartan_power(fd_leaf, 1)],
    ):
        rows.clear()
        got = values_of(forms, pts)
        assert max(rows) == BATCH_POINTS
        assert rows[:2] == [BATCH_POINTS, BATCH_POINTS] and rows[-1] == 7
        blocks = [values_of(forms, pts[a:b]) for a, b in zip(_BLOCKS, _BLOCKS[1:])]
        with monkeypatch.context() as m:
            m.setattr(forms_module, "BATCH_POINTS", len(pts))
            rows.clear()
            whole = values_of(forms, pts)
            assert max(rows) == len(pts)
        for k, form in enumerate(forms):
            assert list(got[k]) == list(form.indices)
            for I in form.indices:
                _assert_same(got[k][I], np.concatenate([b[k][I] for b in blocks]))
                _assert_same(got[k][I], whole[k][I])


def test_partial_family_is_bounded(rng, monkeypatch):
    # the batch-jet partial of a rule family runs its batches over blocks too
    rows = []
    leaf, fd_leaf = _recording_leaf(rows)
    pts = rng.normal(size=(_BLOCKS[-1], 3))
    for fam in (mf_product(leaf, fd_leaf), mf_inverse(fd_leaf)):
        d1 = partial(_blockwise, fam, S=(1,))
        rows.clear()
        got = d1(pts)
        assert max(rows) == BATCH_POINTS and got.shape == (len(pts), 2, 2)
        blocks = np.concatenate([d1(pts[a:b]) for a, b in zip(_BLOCKS, _BLOCKS[1:])])
        _assert_same(got, blocks)
        with monkeypatch.context() as m:
            m.setattr(forms_module, "BATCH_POINTS", len(pts))
            _assert_same(got, d1(pts))


def test_first_singular_point_in_a_later_block_is_reported(rng):
    # singular points in the third and fourth blocks: the error names the
    # first one, and no block after the third is evaluated
    rows = []
    leaf, _ = _recording_leaf(rows, affine_clifford(a=0.0, k=2))  # singular only at x = 0
    pts = rng.normal(size=(_BLOCKS[-1], 3))
    first, later = 2 * BATCH_POINTS + 10, 3 * BATCH_POINTS + 3
    pts[[first, later]] = 0.0
    for evaluate in (lambda x: mc_form(leaf).values(x), mf_inverse(leaf)):
        rows.clear()
        with pytest.raises(SingularFamilyError) as err:
            evaluate(pts)
        assert np.array_equal(err.value.point, pts[first])
        assert rows == [BATCH_POINTS] * 3


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
    fam = sphere_clifford(k=2)
    tform = maurer_cartan_power(fam, 3)
    val = sphere_integrate(tform)
    assert abs(val.value + 24.0 * math.pi ** 2) < 1e-6 * 24.0 * math.pi ** 2
    assert val.error_estimate < 1e-8


def test_sphere_integrate_needs_scalar_coefficients():
    fam = sphere_clifford(k=2)
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
    fam = affine_clifford(a=0.0, k=2)
    w = mc_form(fam)
    with pytest.raises(SingularFamilyError) as err:
        w.values(np.zeros((1, 3)))
    assert err.value.point is not None


def test_fd_partials_match_analytic(rng):
    fam = capped_clifford(a=1.0, k=2)
    pts = rng.normal(size=(6, 3))
    for j in range(3):
        analytic = fam.partials[j](pts)
        fd = _blockwise(MatrixFamily(3, 2, fam.func), pts, (j,))
        assert np.max(np.abs(analytic - fd)) < 1e-9


def test_step_unitary_partials_match_the_fd_leaf(rng):
    # the analytic partials against the order-1 stencil of the same function,
    # inside the flat core (r < 1/2), on the ramp and outside the unit ball
    fam = step_unitary(k=2)
    dirs = rng.normal(size=(12, 3))
    radii = np.repeat([0.2, 0.45, 0.55, 0.75, 0.95, 1.3, 3.0], 12)
    pts = np.tile(dirs / np.linalg.norm(dirs, axis=1)[:, None], (7, 1)) * radii[:, None]
    for j in range(3):
        fd = _blockwise(MatrixFamily(3, 2, fam.func), pts, (j,))
        assert np.max(np.abs(fam.partials[j](pts) - fd)) < 1e-8


# ---------------------------------------------------------------------------
# Leaf jets: one call per batch for the value and every first partial

_JET_LEAVES = [("capped_clifford", {"a": a, "k": k}) for a in (1.0, 0.7 - 0.2j) for k in (1, 2, 3)]
_JET_LEAVES += [("step_unitary", {"k": k}) for k in (1, 2)]


@pytest.mark.parametrize("name, params", _JET_LEAVES)
def test_leaf_jet_is_the_value_and_the_partials_bit_for_bit(rng, name, params):
    # at the origin, inside the core, on the ramp 1/2 < |x| < 1, at |x| = 1
    # and beyond: each jet array is func or partials[j] in the batch layout
    fam = getattr(forms_module, name)(**params)
    dirs = rng.normal(size=(6, fam.p))
    radii = np.repeat([0.0, 0.3, 0.55, 0.75, 0.95, 1.0, 1.7, 40.0], 6)
    pts = np.tile(dirs / row_norm(dirs)[:, None], (8, 1)) * radii[:, None]
    jet = fam.jet(pts)
    assert len(jet) == fam.p + 1
    for got, want in zip(jet, [fam(pts)] + [d(pts) for d in fam.partials]):
        want = np.ascontiguousarray(want.transpose(1, 2, 0))
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, params", [("capped_clifford", {"a": 1.0 + 0.5j, "k": 2}), ("step_unitary", {"k": 2})])
def test_a_jet_leaf_value_enters_the_batch_layout_without_a_copy(rng, name, params):
    # func and every partial return the (M, N, N) view of the jet's own
    # (N, N, M) arrays, so the batch layout of each is that array again
    fam = getattr(forms_module, name)(**params)
    x = rng.normal(size=(9, fam.p))
    for v in [fam(x)] + [d(x) for d in fam.partials]:
        assert np.shares_memory(v, forms_module._planar(v))


def _counted_leaf(base, calls):
    """``base`` with its func, each partial's func and its jet counting their
    calls in ``calls`` under "func", "d0", "d1", ... and "jet"."""

    def counted(key, fn):
        def call(x):
            calls[key] += 1
            return fn(x)

        return call

    parts = tuple(replace(d, func=counted(f"d{j}", d.func)) for j, d in enumerate(base.partials))
    return replace(base, func=counted("func", base.func), partials=parts, jet=counted("jet", base.jet))


@pytest.mark.parametrize("name, params", [("capped_clifford", {"a": 1.0 + 0.5j, "k": 2}), ("step_unitary", {"k": 2})])
def test_a_batch_runs_the_leaf_jet_once_and_a_direct_call_never(rng, monkeypatch, name, params):
    # values_of over two blocks: one jet call and one Clifford action per
    # block, no func or partial call.  A direct call of the family or of one
    # partial computes that one matrix: one func call, one action, no jet.
    calls, actions = Counter(), []

    def action(rep, x):
        actions.append(len(x))
        return clifford_action(rep, x)

    monkeypatch.setattr(forms_module, "clifford_action", action)
    leaf = _counted_leaf(getattr(forms_module, name)(**params), calls)
    pts = rng.normal(size=(BATCH_POINTS + 5, 3))
    w = mc_form(leaf)
    values_of([w, wedge(w, w), form_from_families({(): mf_inverse(leaf)})], pts)
    assert calls == {"jet": 2} and actions == [BATCH_POINTS, 5]
    for fam, key in [(leaf, "func")] + [(d, f"d{j}") for j, d in enumerate(leaf.partials)]:
        calls.clear()
        actions.clear()
        assert fam(pts[:7]).shape == (7, 2, 2)
        assert calls == {key: 1} and actions == [7]


@pytest.mark.parametrize("name, params, bad", [
    ("capped_clifford", {"a": 1.0, "k": 2.5}, "'k'"),
    ("step_unitary", {"k": True}, "'k'"),
    ("sphere_clifford", {"k": "2"}, "'k'"),
    ("affine_clifford", {"a": 1.0, "k": 9}, "k must be in"),
    ("moebius", {"s": 1.0, "bogus": 3}, "'bogus'"),
    ("circle_phase", {"k": 2}, "'k'"),
    ("capped_clifford", {"k": 2}, "'a'"),
    ("affine_clifford", {"a": math.nan, "k": 2}, "'a'"),
    ("affine_clifford", {"a": complex(1.0, math.inf), "k": 2}, "'a'"),
    ("moebius", {"s": -math.inf}, "'s'"),
    ("capped_clifford", {"a": "1", "k": 2}, "'a'"),
])
def test_matrix_family_rejects_bad_parameters(name, params, bad):
    # k = 2.5 built k = 2, k = True built k = 1, an unknown keyword was
    # ignored and a non-finite a or s gave NaN matrices.  An unknown or
    # missing keyword is the signature's TypeError, a bad value of a
    # parameter the family takes the domain check's ValueError
    family = getattr(forms_module, name)
    error = ValueError if set(params) == set(inspect.signature(family).parameters) else TypeError
    with pytest.raises(error, match=bad):
        family(**params)


def test_matrix_family_accepts_numpy_scalars_and_finite_singular_parameters():
    fam = capped_clifford(a=np.float64(1.5), k=np.int64(2))
    assert (fam.p, fam.n, fam.name) == (3, 2, "capped_clifford((1.5+0j))")
    assert moebius().name == "moebius((1+0j))"
    # a = 0 is singular only at x = 0, where the evaluation reports it
    with pytest.raises(SingularFamilyError):
        mf_inverse(affine_clifford(a=0, k=2))(np.zeros(3))


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
