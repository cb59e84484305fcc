"""Matrix-valued differential forms on R^p.

Forms are lazy: coefficients are composed batched evaluators ((M, p) points
to (M, N, N) matrices) and nothing is discretized until integration.  Wedge
products keep noncommutative order, exterior derivatives use analytic
partials when a family carries them and central differences with a
Richardson pass otherwise, and sphere integration pulls top forms back
through explicit hyperspherical charts.

Batched products and inverses go through the rank-2 kernels ``_matmul`` and
``_det_inv`` (entrywise formulas up to rank 2, numpy above), and the trace
form of ``maurer_cartan_power`` is a cyclic traced power built from
G_j = f^{-1} d_j f once per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .clifford import CliffordRep, clifford_action, standard_rep, volume_trace
from .errors import QuadratureError, SingularFamilyError
from .quadrature import (
    chart_minor_determinants, coarser_chart_resolution, fd_step, richardson_derivative, row_norm, sphere_chart,
)

__all__ = [
    "MatrixFamily",
    "MatrixForm",
    "wedge",
    "exterior_derivative",
    "maurer_cartan_power",
    "mc_form",
    "clifford_omega_closed_form",
    "sphere_integrate",
    "sphere_volume_form",
    "SphereIntegral",
    "matrix_family",
]


class _Memo:
    """Identity-keyed cache of the last few batch evaluations.

    Strong references to the key arrays are kept, so an id can never be
    recycled while its entry is alive.
    """

    __slots__ = ("fn", "entries", "size")

    def __init__(self, fn, size=4):
        self.fn = fn
        self.entries = []
        self.size = size

    def __call__(self, x):
        for xx, val in self.entries:
            if xx is x:
                return val
        val = self.fn(x)
        self.entries.append((x, val))
        if len(self.entries) > self.size:
            self.entries.pop(0)
        return val


@dataclass
class MatrixFamily:
    """Smooth map R^p -> M(N, C) with optional analytic partials.

    ``func`` takes an (M, p) float array and returns (M, N, N) complex.
    ``partials`` holds one MatrixFamily per coordinate when derivatives are
    known analytically; the nesting gives access to higher derivatives where
    they exist.
    """

    p: int
    n: int
    func: Callable[[np.ndarray], np.ndarray]
    partials: tuple["MatrixFamily", ...] | None = None
    name: str = ""
    _memo: _Memo | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._memo = _Memo(self.func)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._memo(x[None, :])[0]
        return self._memo(x)

    def partial_family(self, j: int) -> "MatrixFamily":
        """The j-th partial derivative as a family (analytic or FD)."""
        if self.partials is not None:
            return self.partials[j]
        return _fd_partial_family(self, j)


def _fd_partial_family(fam: MatrixFamily, j: int) -> MatrixFamily:
    """Richardson central difference in x_j, steps from ``quadrature.fd_step``."""

    def df(x):
        x = np.asarray(x, dtype=float)
        h, step = fd_step(x, j)
        return richardson_derivative(lambda c: fam(x + c * step), h[:, None, None])

    return MatrixFamily(fam.p, fam.n, df, name=f"d{j}({fam.name})")


# ---------------------------------------------------------------------------
# Batch kernels over the last two axes; ranks 1 and 2 use entrywise formulas,
# which beat numpy's stacked matmul/inv/det several times over at that size
# and lose to it from rank 4 on.


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked (broadcast) matrix product, as ``np.matmul``."""
    n = a.shape[-1]
    if n == 1:
        return a * b
    if n > 2:
        return np.matmul(a, b)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _det_inv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and inverses of a stack; inverses of singular matrices
    come out non-finite (the caller checks the determinants first)."""
    n = a.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            return a[..., 0, 0], 1.0 / a
        if n == 2:
            a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
            det = a00 * a11 - a01 * a10
            inv = np.empty_like(a)
            inv[..., 0, 0] = a11 / det
            inv[..., 0, 1] = -a01 / det
            inv[..., 1, 0] = -a10 / det
            inv[..., 1, 1] = a00 / det
            return det, inv
    det = np.linalg.det(a)
    try:
        return det, np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return det, np.full_like(a, np.nan)


# ---------------------------------------------------------------------------
# Family combinators; partials propagate whenever both operands carry them.


def mf_constant(mat: np.ndarray, p: int, name: str = "const") -> MatrixFamily:
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    zero = np.zeros_like(mat)

    def cf(m):
        def f(x):
            return np.broadcast_to(m, (len(x),) + m.shape).copy()

        return f

    fam = MatrixFamily(p, n, cf(mat), name=name)
    fam.partials = tuple(MatrixFamily(p, n, cf(zero), partials=None, name=f"0_{j}") for j in range(p))
    # zero partials of a constant are themselves constant: give them zero partials too
    for g in fam.partials:
        g.partials = tuple(MatrixFamily(p, n, cf(zero), name="0") for _ in range(p))
    return fam


def mf_add(a: MatrixFamily, b: MatrixFamily, ca: complex = 1.0, cb: complex = 1.0) -> MatrixFamily:
    out = MatrixFamily(a.p, a.n, lambda x: ca * a(x) + cb * b(x), name=f"({a.name}+{b.name})")
    if a.partials is not None and b.partials is not None:
        out.partials = tuple(mf_add(a.partials[j], b.partials[j], ca, cb) for j in range(a.p))
    return out


def mf_product(a: MatrixFamily, b: MatrixFamily) -> MatrixFamily:
    out = MatrixFamily(a.p, a.n, lambda x: _matmul(a(x), b(x)), name=f"({a.name}.{b.name})")
    if a.partials is not None and b.partials is not None:
        out.partials = tuple(
            mf_add(mf_product(a.partials[j], b), mf_product(a, b.partials[j])) for j in range(a.p)
        )
    return out


def mf_inverse(a: MatrixFamily) -> MatrixFamily:
    def inv(x):
        dets, out = _det_inv(a(np.asarray(x, dtype=float)))
        bad = np.abs(dets) < 1e-300
        if np.any(bad):
            i = int(np.argmax(bad))
            raise SingularFamilyError(f"family {a.name!r} singular", point=np.asarray(x)[i])
        if not np.all(np.isfinite(out)):
            i = int(np.argmax(~np.all(np.isfinite(out.reshape(len(out), -1)), axis=1)))
            raise SingularFamilyError(f"family {a.name!r} numerically singular", point=np.asarray(x)[i])
        return out

    fam = MatrixFamily(a.p, a.n, inv, name=f"inv({a.name})")
    if a.partials is not None:
        # d(A^-1) = -A^-1 (dA) A^-1; first derivatives only
        fam.partials = tuple(
            mf_scale(mf_product(fam, mf_product(a.partials[j], fam)), -1.0) for j in range(a.p)
        )
    return fam


def mf_scale(a: MatrixFamily, c: complex) -> MatrixFamily:
    out = MatrixFamily(a.p, a.n, lambda x: c * a(x), name=f"{c}*{a.name}")
    if a.partials is not None:
        out.partials = tuple(mf_scale(a.partials[j], c) for j in range(a.p))
    return out


# ---------------------------------------------------------------------------
# Forms


@dataclass
class MatrixForm:
    """Degree-q form with MatrixFamily coefficients over strictly increasing
    index tuples; absent tuples are zero."""

    p: int
    n: int
    degree: int
    coeffs: dict[tuple[int, ...], MatrixFamily]

    def coefficient(self, index: tuple[int, ...]) -> MatrixFamily | None:
        return self.coeffs.get(tuple(index))

    def top_tuple(self) -> tuple[int, ...]:
        return tuple(range(self.p))

    def evaluate(self, index: tuple[int, ...], x) -> np.ndarray:
        fam = self.coeffs.get(tuple(index))
        if fam is None:
            x = np.asarray(x, dtype=float)
            m = 1 if x.ndim == 1 else len(x)
            z = np.zeros((m, self.n, self.n), dtype=complex)
            return z[0] if x.ndim == 1 else z
        return fam(x)

    def traced(self) -> "MatrixForm":
        """Apply the matrix trace coefficient-wise; the result has rank 1."""

        def tr_fam(fam: MatrixFamily) -> MatrixFamily:
            g = MatrixFamily(self.p, 1, lambda x, fam=fam: np.trace(fam(x), axis1=-2, axis2=-1)[..., None, None],
                             name=f"tr({fam.name})")
            if fam.partials is not None:
                g.partials = tuple(tr_fam(fam.partials[j]) for j in range(self.p))
            return g

        return MatrixForm(self.p, 1, self.degree, {I: tr_fam(f) for I, f in self.coeffs.items()})


def _shuffle_sign(I: tuple[int, ...], J: tuple[int, ...]) -> int:
    inversions = sum(1 for a in I for b in J if a > b)
    return -1 if inversions % 2 else 1


def zero_form(p: int, n: int, degree: int) -> MatrixForm:
    return MatrixForm(p, n, degree, {})


def _signed_sums(acc: dict[tuple[int, ...], list[tuple[int, MatrixFamily]]]) -> dict[tuple[int, ...], MatrixFamily]:
    """Fold the signed terms collected per index tuple into one coefficient each."""
    coeffs = {}
    for K, parts in acc.items():
        fam = mf_scale(parts[0][1], parts[0][0])
        for sign, term in parts[1:]:
            fam = mf_add(fam, term, 1.0, sign)
        coeffs[K] = fam
    return coeffs


def form_from_family(fam: MatrixFamily) -> MatrixForm:
    """Wrap a matrix function as a 0-form."""
    return MatrixForm(fam.p, fam.n, 0, {(): fam})


def wedge(w1: MatrixForm, w2: MatrixForm) -> MatrixForm:
    """Wedge product with shuffle signs and matrix products in order."""
    if w1.p != w2.p or w1.n != w2.n:
        raise ValueError("wedge requires the same base dimension and matrix rank")
    degree = w1.degree + w2.degree
    if degree > w1.p:
        return zero_form(w1.p, w1.n, degree)
    acc: dict[tuple[int, ...], list[tuple[int, MatrixFamily]]] = {}
    for I, a in w1.coeffs.items():
        for J, b in w2.coeffs.items():
            if set(I) & set(J):
                continue
            K = tuple(sorted(I + J))
            acc.setdefault(K, []).append((_shuffle_sign(I, J), mf_product(a, b)))
    return MatrixForm(w1.p, w1.n, degree, _signed_sums(acc))


def exterior_derivative(w: MatrixForm, scheme: str = "auto") -> MatrixForm:
    """d with the standard signs: d(A dx_I) = sum_j dA/dx_j dx_j ^ dx_I.

    scheme: "analytic" (require family partials), "fd", or "auto".
    """
    if w.degree >= w.p:
        return zero_form(w.p, w.n, w.degree + 1)
    acc: dict[tuple[int, ...], list[tuple[int, MatrixFamily]]] = {}
    for I, fam in w.coeffs.items():
        for j in range(w.p):
            if j in I:
                continue
            K = tuple(sorted(I + (j,)))
            sign = -1 if K.index(j) % 2 else 1
            if scheme == "analytic":
                if fam.partials is None:
                    raise ValueError("analytic scheme requested but the coefficient has no partials")
                d = fam.partials[j]
            elif scheme == "fd":
                d = _fd_partial_family(fam, j)
            else:
                d = fam.partial_family(j)
            acc.setdefault(K, []).append((sign, d))
    return MatrixForm(w.p, w.n, w.degree + 1, _signed_sums(acc))


def mc_form(f: MatrixFamily) -> MatrixForm:
    """The logarithmic-derivative 1-form f^{-1} df."""
    finv = mf_inverse(f)
    coeffs = {(j,): mf_product(finv, f.partial_family(j)) for j in range(f.p)}
    return MatrixForm(f.p, f.n, 1, coeffs)


def maurer_cartan_power(f: MatrixFamily, q: int) -> tuple[MatrixForm, MatrixForm]:
    """(f^{-1} df)^q and its trace form, for odd q.

    The trace form is computed cyclically rather than by tracing the wedge
    power: with G_j = f^{-1} d_j f, the coefficient on dx_I is
    sum_sigma sgn(sigma) tr(G_{i_sigma(1)} ... G_{i_sigma(q)}), and for odd q
    a q-cycle is even, so the q rotations of each product are equal terms:
    the coefficient is q tr(G_{i_1} S(i_2, ..., i_q)), S the antisymmetrized
    product.  G and the S of shared index sets are formed once per batch.
    The trace form's coefficients carry no analytic partials.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("power must be a positive odd integer")
    w = mc_form(f)
    out = w
    for _ in range(q - 1):
        out = wedge(out, w)
    gs = [w.coeffs[(j,)] for j in range(f.p)]
    batch = _Memo(lambda x: ([g(x) for g in gs], {}))

    def coefficient(I):
        def tr_coeff(x):
            G, products = batch(x)
            if q == 1:
                val = np.trace(G[I[0]], axis1=-2, axis2=-1)
            else:  # tr(XY) as sum_ij X_ij Y_ji, without forming XY
                val = q * np.einsum("...ij,...ji->...", G[I[0]], _antisymmetrized(G, I[1:], products))
            return val[..., None, None]

        return MatrixFamily(f.p, 1, tr_coeff, name=f"tr(mc^{q})_{I}")

    return out, MatrixForm(f.p, 1, q, {I: coefficient(I) for I in combinations(range(f.p), q)})


def _antisymmetrized(G: list[np.ndarray], J: tuple[int, ...], products: dict) -> np.ndarray:
    """sum_sigma sgn(sigma) G_{j_sigma(1)} ... G_{j_sigma(m)} for increasing J,
    expanded along the first factor and cached per index set in ``products``."""
    if len(J) == 1:
        return G[J[0]]
    if J not in products:
        total = _matmul(G[J[0]], _antisymmetrized(G, J[1:], products))
        for t in range(1, len(J)):
            term = _matmul(G[J[t]], _antisymmetrized(G, J[:t] + J[t + 1:], products))
            total = total - term if t % 2 else total + term
        products[J] = total
    return products[J]


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
    return MatrixForm(d + 1, 1, d, coeffs)


class SphereIntegral(NamedTuple):
    value: complex
    error_estimate: float


def sphere_integrate(
    form: MatrixForm,
    resolution=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    check: bool = True,
) -> SphereIntegral:
    """Integrate a scalar top form over S^d via the standard embedding.

    The form must have degree d on R^{d+1} with rank-1 coefficients; the
    pullback is assembled from the chart Jacobian minors, which carry the
    full volume element.  Two refinement levels give the error estimate.
    """
    d = form.degree
    if form.p != d + 1:
        raise ValueError(f"degree-{d} form must live on R^{d + 1} to be integrated over S^{d}")
    if form.n != 1:
        raise ValueError("sphere_integrate needs rank-1 coefficients; call .traced() first")

    def run(res):
        X, J, W = sphere_chart(d, res)
        total = 0.0 + 0.0j
        mass = 0.0
        for I, fam in sorted(form.coeffs.items()):
            vals = fam(X)[:, 0, 0]
            contrib = W * vals * chart_minor_determinants(J, I)
            total += complex(np.sum(contrib))
            mass += float(np.sum(np.abs(contrib)))
        return total, mass

    fine, mass = run(resolution)
    if not check:
        return SphereIntegral(fine, float("nan"))
    coarse, _ = run(coarser_chart_resolution(d, resolution))
    err = abs(fine - coarse)
    # scale against the integrand mass so exact cancellations do not trip
    if err > max(atol, rtol * max(abs(fine), 1e-3 * mass)):
        raise QuadratureError(
            f"sphere quadrature did not converge: levels differ by {err:.3e} "
            f"(value {fine:.6e})"
        )
    return SphereIntegral(fine, err)


# ---------------------------------------------------------------------------
# Built-in matrix families


def matrix_family(name: str, **params) -> MatrixFamily:
    """Registry of named families.

    ids: moebius(s), circle_phase(), affine_clifford(a, k),
    spectral_slice(lam, k), capped_clifford(a, k), sphere_clifford(k),
    tabulated(path) (see matrix_family_from_csv), step_unitary(k).
    """
    if name == "moebius":
        s = complex(params.get("s", 1.0))

        def f(x):
            t = np.asarray(x, dtype=float)[:, 0]
            return ((t - 1j * s) / (t + 1j * s))[:, None, None]

        def df(x):
            t = np.asarray(x, dtype=float)[:, 0]
            return (2j * s / (t + 1j * s) ** 2)[:, None, None]

        fam = MatrixFamily(1, 1, f, name=f"moebius({s})")
        dfam = MatrixFamily(1, 1, df, name="moebius'")
        fam.partials = (dfam,)
        return fam

    if name == "circle_phase":
        # x0 + i x1 on R^2; restricted to S^1 this is e^{i theta}

        def f(x):
            x = np.asarray(x, dtype=float)
            return (x[:, 0] + 1j * x[:, 1])[:, None, None]

        fam = MatrixFamily(2, 1, f, name="circle_phase")
        fam.partials = (
            mf_constant(np.array([[1.0 + 0j]]), 2, "1"),
            mf_constant(np.array([[1j]]), 2, "i"),
        )
        return fam

    if name in ("affine_clifford", "spectral_slice"):
        a = complex(params["a"] if name == "affine_clifford" else params["lam"])
        k = int(params["k"])
        rep = params.get("rep") or standard_rep(k)
        p, nn = rep.p, rep.rank

        def f(x):
            x = np.asarray(x, dtype=float)
            return a * np.eye(nn, dtype=complex)[None] + clifford_action(rep, x)

        fam = MatrixFamily(p, nn, f, name=f"{name}({a})")
        fam.partials = tuple(mf_constant(rep.generators[j], p, f"E{j + 1}") for j in range(p))
        return fam

    if name == "capped_clifford":
        # a + c(x) (1 + |x|^2)^{-1/2}: approaches a + c(x/|x|) at infinity
        a = complex(params["a"])
        k = int(params["k"])
        rep = params.get("rep") or standard_rep(k)
        p, nn = rep.p, rep.rank

        def f(x):
            x = np.asarray(x, dtype=float)
            scale = 1.0 / np.sqrt(1.0 + np.sum(x ** 2, axis=1))
            return a * np.eye(nn, dtype=complex)[None] + scale[:, None, None] * clifford_action(rep, x)

        def df(j):
            def g(x):
                x = np.asarray(x, dtype=float)
                s = 1.0 / np.sqrt(1.0 + np.sum(x ** 2, axis=1))
                out = s[:, None, None] * rep.generators[j][None]
                out = out - (s ** 3 * x[:, j])[:, None, None] * clifford_action(rep, x)
                return out

            return g

        fam = MatrixFamily(p, nn, f, name=f"capped_clifford({a})")
        fam.partials = tuple(MatrixFamily(p, nn, df(j), name=f"d{j} capped") for j in range(p))
        return fam

    if name == "sphere_clifford":
        # x = (x_0, x') -> x_0 + c(x') on R^{2k}
        k = int(params["k"])
        rep = params.get("rep") or standard_rep(k)
        p = rep.p + 1
        nn = rep.rank

        def f(x):
            x = np.asarray(x, dtype=float)
            return x[:, 0, None, None] * np.eye(nn, dtype=complex)[None] + clifford_action(rep, x[:, 1:])

        fam = MatrixFamily(p, nn, f, name=f"sphere_clifford(k={k})")
        parts = [mf_constant(np.eye(nn, dtype=complex), p, "I")]
        parts += [mf_constant(rep.generators[j], p, f"E{j + 1}") for j in range(rep.p)]
        fam.partials = tuple(parts)
        return fam

    if name == "tabulated":
        return matrix_family_from_csv(params["path"])

    if name == "step_unitary":
        # cos(theta(r)) + sin(theta(r)) c(x/|x|) with theta = pi * chi(r):
        # identity near 0, the constant -1 outside |x| = 1.  The standard
        # compactly supported generator of a nonzero winding number.
        from .asymptotics import smooth_cutoff

        k = int(params["k"])
        rep = params.get("rep") or standard_rep(k)
        p, nn = rep.p, rep.rank

        def f(x):
            x = np.asarray(x, dtype=float)
            r = row_norm(x)
            th = math.pi * smooth_cutoff(r)
            unit = np.where(r[:, None] > 0, x / np.maximum(r, 1e-300)[:, None], 0.0)
            return np.cos(th)[:, None, None] * np.eye(nn, dtype=complex)[None] + np.sin(th)[
                :, None, None
            ] * clifford_action(rep, unit)

        return MatrixFamily(p, nn, f, name=f"step_unitary(k={k})")

    raise KeyError(f"unknown matrix family {name!r}")


def matrix_family_from_csv(path) -> MatrixFamily:
    """Tabulated matrix family from CSV columns x, row, col, re, im.

    One-dimensional base only; values are interpolated linearly entry by
    entry between the tabulated parameter points.
    """
    import csv as _csv

    rows = []
    with open(path, newline="") as fh:
        for row in _csv.reader(fh):
            if not row or row[0].strip().startswith("#") or row[0].strip().lower() == "x":
                continue
            rows.append((float(row[0]), int(row[1]), int(row[2]), float(row[3]), float(row[4])))
    xs = np.array(sorted({r[0] for r in rows}))
    n = max(r[1] for r in rows) + 1
    table = np.zeros((len(xs), n, n), dtype=complex)
    index = {x: i for i, x in enumerate(xs)}
    for x, i, j, re, im in rows:
        table[index[x], i, j] = re + 1j * im

    def f(pts):
        t = np.asarray(pts, dtype=float)[:, 0]
        out = np.empty((len(t), n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[:, i, j] = np.interp(t, xs, table[:, i, j].real) + 1j * np.interp(
                    t, xs, table[:, i, j].imag
                )
        return out

    return MatrixFamily(1, n, f, name="tabulated")
