"""Matrix-valued differential forms on R^p, evaluated as jets at a batch.

A form holds its index tuples and a rule for the partials of its
coefficients.  At a batch of points (M, p), one ``_Batch`` computes each
array the evaluation needs once, keyed by node and sorted index set S, so
d_i d_j and d_j d_i are one array and cancel exactly under
antisymmetrization.  A coefficient on dx_I is only differentiated along
coordinates outside I, so S never repeats a coordinate.

Inside a batch every value and partial is an (N, N, M) array with the point
axis last, so entry (i, j) of the whole batch is one contiguous row.  The
boundary stays (M, N, N): a leaf's ``func`` returns that layout and the
batch transposes each leaf partial once, and ``MatrixFamily.__call__``,
``partial_family`` and ``MatrixForm.values`` hand it back.  ``values`` is
the one way to evaluate a form: it returns every coefficient from one batch.

Leaf partials are analytic as far as a family's ``partials`` chain goes;
below that, one Richardson stencil of the missing order is applied to the
deepest analytic level, so no finite difference wraps another.  Products
follow Leibniz, inverses d(A^-1) = -A^-1 (dA) A^-1, and traces are sums of
rows, with the rank-2 kernels ``_matmul`` and ``_det_inv`` doing the
batched algebra.  A top form on a sphere is integrated by ``sphere_pairing``
at the points of ``quadrature.sphere_rule``, the one sphere sampler: its
weights are the surface measure, so the integral is a signed sum of the
coefficients times the missing coordinate, with no Jacobian minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import read_csv_table, smooth_cutoff, smooth_cutoff_derivative
from .clifford import CliffordRep, clifford_action, standard_rep, volume_trace
from .errors import QuadratureError, SingularFamilyError
from .quadrature import (
    SphereRule, coarser_chart_resolution, fd_step, richardson_derivative, row_norm, sphere_rule,
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
    "sphere_pairing",
    "sphere_volume_form",
    "SphereIntegral",
    "matrix_family",
]

Index = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """Smooth map R^p -> M(N, C), evaluated on batches of points.

    A leaf family has ``func``, which takes an (M, p) float array and returns
    (M, N, N) complex.  Its ``partials`` may hold

    - None: no analytic partials; a jet takes them from one Richardson
      stencil of the needed order;
    - a tuple of p families d_0 f, ..., d_{p-1} f, whose own ``partials``
      continue the chain to higher orders; where the chain stops, the
      stencil of the remaining order is applied to its last family;
    - the empty tuple: the family is constant and every partial vanishes.

    ``constant`` families return a read-only broadcast view of their matrix,
    without a copy; the evaluation never writes into an array a family
    returns, so leaves may hand out views.

    ``mf_product`` and ``mf_inverse`` build families with a ``rule`` in place
    of ``func``: ``rule(batch, S)`` returns d_S in the batch layout (N, N, M)
    from the operands' partials in the batch.  Called, every family returns
    (M, N, N) (or (N, N) at a single point).
    """

    p: int
    n: int
    func: Callable[[np.ndarray], np.ndarray] | None = None
    partials: tuple["MatrixFamily", ...] | None = None
    name: str = ""
    rule: Callable[["_Batch", Index], np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, mat, p: int, name: str = "const") -> "MatrixFamily":
        mat = np.asarray(mat, dtype=complex)
        return cls(p, mat.shape[0], lambda x: np.broadcast_to(mat, (len(x),) + mat.shape), (), name)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pts = x[None, :] if x.ndim == 1 else x
        vals = self.func(pts) if self.rule is None else _stacked(_Batch(pts).family(self))
        return vals[0] if x.ndim == 1 else vals

    def partial_family(self, j: int) -> "MatrixFamily":
        """The j-th partial derivative as a family: the analytic one if given,
        else the batch jet's."""
        if self.partials:
            return self.partials[j]
        return MatrixFamily(self.p, self.n, lambda x: _stacked(_Batch(x).family(self, (j,))),
                            name=f"d{j}({self.name})")


def _planar(v: np.ndarray) -> np.ndarray:
    """An (M, N, N) stack in the batch layout (N, N, M): one contiguous copy,
    except that a constant's zero-stride view stays a view."""
    t = np.moveaxis(v, 0, -1)
    return t if t.strides[-1] == 0 else np.ascontiguousarray(t)


def _stacked(a: np.ndarray) -> np.ndarray:
    """A batch array (N, N, M) as the (M, N, N) stack of the boundary, as a view."""
    return np.moveaxis(a, -1, 0)


class _Batch:
    """One evaluation at the points x: every partial derivative it needs,
    computed once and kept per (node, sorted index set) as an (N, N, M)
    array."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self.done: dict = {}

    def get(self, key, compute):
        if key not in self.done:
            self.done[key] = compute()
        return self.done[key]

    def family(self, fam: MatrixFamily, S: Index = ()) -> np.ndarray:
        return self.get((fam, S), lambda: fam.rule(self, S) if fam.rule else _planar(_leaf_partial(fam, self.x, S)))

    def coeff(self, form: "MatrixForm", I: Index, S: Index = ()) -> np.ndarray:
        return self.get((form, I, S), lambda: form.rule(self, I, S))


def _leaf_partial(fam: MatrixFamily, x: np.ndarray, S: Index) -> np.ndarray:
    """d_S of a leaf as an (M, N, N) stack: analytic along the partials chain,
    then one Richardson stencil of the remaining order k on the last analytic
    family: 2^k points per level, central differences at the same scale c h
    along every direction.  An order-2 stencil is good to about 1e-7
    relative (order 1: 1e-11); exterior derivatives only meet second partials
    in antisymmetrized pairs, where one array per index set cancels
    exactly."""
    g = fam
    while S and g.partials is not None:
        if not g.partials:
            return np.broadcast_to(0j, (len(x), fam.n, fam.n))
        g, S = g.partials[S[0]], S[1:]
    if not S:
        return g(x)
    h = fd_step(x)
    # whole-row offsets h e_j: shifted copies of one column peak 4 MB higher on additivity-fd
    first, *others = (h[:, None] * (np.arange(x.shape[1]) == j) for j in S)
    h = h[:, None, None]

    def shifted(c):
        def central(y, k):
            if k == len(others):
                return g(y)
            return (central(y + c * others[k], k + 1) - central(y - c * others[k], k + 1)) / (2.0 * c * h)

        return central(x + c * first, 0)

    return richardson_derivative(shifted, h)


# ---------------------------------------------------------------------------
# Batch kernels on the (N, N, M) layout.  Ranks 1 and 2 use entrywise
# formulas on the contiguous rows a[i, j], written into preallocated rows.
# From rank 3 on they call numpy's stacked matmul, inv and det on transposed
# (M, N, N) views, which round exactly as on (M, N, N) arrays; an entrywise
# rank-4 product is about 3x faster (0.7 against 2.1 ms at 6,912 points) but
# rounds differently, and no workload evaluates forms above rank 2.


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise (broadcast) matrix product of two batch arrays."""
    n = a.shape[0]
    if n == 1:
        return a * b
    if n > 2:
        return np.moveaxis(np.matmul(_stacked(a), _stacked(b)), 0, -1)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    tmp = np.empty(out.shape[2:], dtype=out.dtype)
    for i in range(2):
        for j in range(2):
            row = np.multiply(a[i, 0], b[0, j], out=out[i, j])
            row += np.multiply(a[i, 1], b[1, j], out=tmp)
    return out


def _det_inv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants (M,) and inverses (N, N, M) of a batch array; inverses
    of singular matrices come out non-finite (the caller checks the
    determinants first)."""
    n = a.shape[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            return a[0, 0], 1.0 / a
        if n == 2:
            a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
            det = a00 * a11 - a01 * a10
            inv = np.empty(a.shape, dtype=a.dtype)
            np.divide(a11, det, out=inv[0, 0])
            np.divide(np.negative(a01, out=inv[0, 1]), det, out=inv[0, 1])
            np.divide(np.negative(a10, out=inv[1, 0]), det, out=inv[1, 0])
            np.divide(a00, det, out=inv[1, 1])
            return det, inv
    stack = _stacked(a)
    det = np.linalg.det(stack)
    try:
        return det, np.moveaxis(np.linalg.inv(stack), 0, -1)
    except np.linalg.LinAlgError:
        return det, np.full(a.shape, np.nan, dtype=a.dtype)


def _trace(a: np.ndarray) -> np.ndarray:
    """tr a per point as a rank-1 batch array (1, 1, M): the diagonal rows
    summed in order."""
    total = a[0, 0]
    for i in range(1, a.shape[0]):
        total = total + a[i, i]
    return total[None, None]


def _with(S: Index, j: int) -> Index:
    return tuple(sorted(S + (j,)))


def _leibniz(S: Index, left, right, mult=_matmul) -> np.ndarray:
    """d_S of a product: the sum over subsets T of S of mult(d_T left, d_{S-T} right),
    ``left`` and ``right`` mapping index sets to partials.  ``mult`` returns a
    new array, so the sum accumulates in place into the first term."""
    total = None
    for k in range(len(S) + 1):
        for T in combinations(S, k):
            term = mult(left(T), right(tuple(i for i in S if i not in T)))
            if total is None:
                total = term
            else:
                total += term
    return total


def _signed_total(parts) -> np.ndarray:
    """Sum of (sign, array) pairs in order, subtracting where the sign is negative."""
    total = None
    for sign, term in parts:
        if total is None:
            total = term if sign > 0 else -term
        else:
            total = total + term if sign > 0 else total - term
    return total


def mf_product(a: MatrixFamily, b: MatrixFamily) -> MatrixFamily:
    """The pointwise product a b."""
    return MatrixFamily(a.p, a.n, name=f"({a.name}.{b.name})",
                        rule=lambda batch, S: _leibniz(S, partial(batch.family, a), partial(batch.family, b)))


def mf_inverse(a: MatrixFamily) -> MatrixFamily:
    """The pointwise inverse a^{-1}; raises SingularFamilyError where a is singular."""

    def rule(batch, S):
        if S:
            # d_k(a^-1) = -a^-1 (d_k a) a^-1, differentiated along the rest of S
            k, rest = S[0], S[1:]
            da_inv = partial(_leibniz, left=lambda U: batch.family(a, _with(U, k)), right=partial(batch.family, inv))
            return -_leibniz(rest, partial(batch.family, inv), da_inv)
        dets, out = _det_inv(batch.family(a))
        bad = np.abs(dets) < 1e-300
        if np.any(bad):
            raise SingularFamilyError(f"family {a.name!r} singular", point=batch.x[int(np.argmax(bad))])
        finite = np.all(np.isfinite(out), axis=(0, 1))
        if not np.all(finite):
            i = int(np.argmax(~finite))
            raise SingularFamilyError(f"family {a.name!r} numerically singular", point=batch.x[i])
        return out

    inv = MatrixFamily(a.p, a.n, name=f"inv({a.name})", rule=rule)
    return inv


# ---------------------------------------------------------------------------
# Forms


@dataclass(eq=False)
class MatrixForm:
    """Degree-q form on R^p with N x N coefficients.

    ``indices`` lists, in increasing order, the strictly increasing index
    tuples whose coefficients may be nonzero; absent tuples are zero.
    ``rule(batch, I, S)`` returns d_S of the coefficient on dx_I at the
    batch's points as an (N, N, M) array, for a sorted index set S disjoint
    from I.
    """

    p: int
    n: int
    degree: int
    indices: tuple[Index, ...]
    rule: Callable[[_Batch, Index, Index], np.ndarray] | None = field(default=None, repr=False)
    # The arrays of the last batch, never read.  Released when the next batch
    # starts, they leave holes that batch refills; released at the end of
    # each batch, they go back to the system and every batch page-faults on
    # fresh memory (216k instead of 58.5k minor faults and 0.95 instead of
    # 0.74 s per warm matrix-eta pass).  The arrays only: the batch's keys
    # point back at this form, and holding the batch made a cycle that kept
    # the arrays of every dead form until a full collection (peak RSS 97 to
    # 112 MB against 66 MB over seven matrix-eta passes in one process).
    _last_batch: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)

    def values(self, x) -> dict[Index, np.ndarray]:
        """Every coefficient at the points x, from one batch evaluation: a dict
        from each of ``indices`` to its (M, N, N) stack, or (N, N) at a single
        point; an index absent from ``indices`` has coefficient zero.  The
        batch runs as one MatrixFamily call, so whatever counts those calls
        sees the leaf evaluations nested in it."""
        if not self.indices:
            return {}
        x = np.asarray(x, dtype=float)

        def rule(batch, S):
            self._last_batch = ()
            vals = np.stack([batch.coeff(self, I) for I in self.indices])
            self._last_batch = tuple(batch.done.values())
            return vals

        # (K, N, N, M) inside the batch; the call hands back (M, K, N, N)
        stack = MatrixFamily(self.p, self.n, name="form batch", rule=rule)
        vals = stack(x[None, :] if x.ndim == 1 else x)
        return {I: vals[0, k] if x.ndim == 1 else vals[:, k] for k, I in enumerate(self.indices)}

    def traced(self) -> "MatrixForm":
        """Apply the matrix trace coefficient-wise; the result has rank 1."""
        return MatrixForm(self.p, 1, self.degree, self.indices, lambda batch, I, S: _trace(batch.coeff(self, I, S)))


def _shuffle_sign(I: Index, J: Index) -> int:
    inversions = sum(1 for a in I for b in J if a > b)
    return -1 if inversions % 2 else 1


def form_from_families(coeffs: dict[Index, MatrixFamily]) -> MatrixForm:
    """The form sum_I coeffs[I] dx_I, for strictly increasing index tuples of
    one length; ``{(): f}`` is the 0-form f."""
    fam = next(iter(coeffs.values()))
    degree = len(next(iter(coeffs)))
    return MatrixForm(fam.p, fam.n, degree, tuple(sorted(coeffs)), lambda batch, I, S: batch.family(coeffs[I], S))


def wedge(w1: MatrixForm, w2: MatrixForm) -> MatrixForm:
    """Wedge product with shuffle signs and matrix products in order."""
    if w1.p != w2.p or w1.n != w2.n:
        raise ValueError("wedge requires the same base dimension and matrix rank")
    degree = w1.degree + w2.degree
    if degree > w1.p:
        return MatrixForm(w1.p, w1.n, degree, ())
    terms: dict[Index, list[tuple[int, Index, Index]]] = {}
    for I in w1.indices:
        for J in w2.indices:
            if not set(I) & set(J):
                terms.setdefault(tuple(sorted(I + J)), []).append((_shuffle_sign(I, J), I, J))

    def rule(batch, K, S):
        return _signed_total(
            (sign, _leibniz(S, partial(batch.coeff, w1, I), partial(batch.coeff, w2, J))) for sign, I, J in terms[K]
        )

    return MatrixForm(w1.p, w1.n, degree, tuple(sorted(terms)), rule)


def exterior_derivative(w: MatrixForm) -> MatrixForm:
    """d with the standard signs: d(A dx_I) = sum_j dA/dx_j dx_j ^ dx_I, the
    partials taken from the batch jets."""
    if w.degree >= w.p:
        return MatrixForm(w.p, w.n, w.degree + 1, ())
    terms: dict[Index, list[tuple[int, Index, int]]] = {}
    for I in w.indices:
        for j in range(w.p):
            if j not in I:
                K = _with(I, j)
                terms.setdefault(K, []).append((-1 if K.index(j) % 2 else 1, I, j))

    def rule(batch, K, S):
        return _signed_total((sign, batch.coeff(w, I, _with(S, j))) for sign, I, j in terms[K])

    return MatrixForm(w.p, w.n, w.degree + 1, tuple(sorted(terms)), rule)


def mc_form(f: MatrixFamily) -> MatrixForm:
    """The logarithmic-derivative 1-form f^{-1} df."""
    return wedge(form_from_families({(): mf_inverse(f)}), exterior_derivative(form_from_families({(): f})))


def _trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(ab) per point as sum_ij a_ij b_ji, summed in (i, j) order, without
    forming ab."""
    n = a.shape[0]
    total = a[0, 0] * b[0, 0]
    tmp = np.empty_like(total)
    for i in range(n):
        for j in range(n):
            if i or j:
                total += np.multiply(a[i, j], b[j, i], out=tmp)
    return total


def maurer_cartan_power(f: MatrixFamily, q: int) -> MatrixForm:
    """The trace form tr((f^{-1} df)^q), for odd q.

    It is computed cyclically rather than by tracing the wedge power: with
    G_j = f^{-1} d_j f, the coefficient on dx_I is
    sum_sigma sgn(sigma) tr(G_{i_sigma(1)} ... G_{i_sigma(q)}), and for odd q
    a q-cycle is even, so the q rotations of each product are equal terms:
    the coefficient is q tr(G_{i_1} S(i_2, ..., i_q)), S the antisymmetrized
    product.  G and the S of shared index sets are formed once per batch.
    The untraced power is ``wedge`` of ``mc_form(f)`` with itself.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("power must be a positive odd integer")
    w = mc_form(f)

    def antisymmetrized(batch, J, S):
        """d_S of sum_sigma sgn(sigma) G_{j_sigma(1)} ... G_{j_sigma(m)}, expanded along the first factor."""
        if len(J) == 1:
            return batch.coeff(w, J, S)
        return batch.get(("antisymmetrized", w, J, S), lambda: _signed_total(
            (-1 if t % 2 else 1,
             _leibniz(S, partial(batch.coeff, w, (J[t],)), partial(antisymmetrized, batch, J[:t] + J[t + 1:])))
            for t in range(len(J))
        ))

    def rule(batch, I, S):
        if q == 1:
            return _trace(batch.coeff(w, I, S))
        rest = partial(antisymmetrized, batch, I[1:])
        return (q * _leibniz(S, partial(batch.coeff, w, I[:1]), rest, _trace_product))[None, None]

    return MatrixForm(f.p, 1, q, tuple(combinations(range(f.p), q)), rule)


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


class SphereIntegral(NamedTuple):
    value: complex
    error_estimate: float


def sphere_pairing(rule: SphereRule, coefficients: dict[Index, np.ndarray]) -> tuple[complex, float]:
    """The integral over the outward-oriented S^{p-1} of the top form
    sum_I c_I dx_I, each c_I sampled at the rule's points, and its absolute
    mass: sum_I (-1)^j sum w xi_j c_I and sum_I sum |w xi_j c_I|, j the index
    that I omits (dx_I restricts to (-1)^j xi_j times the surface measure)."""
    total, mass = 0.0 + 0.0j, 0.0
    for I, c in coefficients.items():
        j = next(m for m in range(rule.p) if m not in I)
        contrib = rule.weights * c * rule.points[:, j]
        total += (-1.0) ** j * complex(np.sum(contrib))
        mass += float(np.sum(np.abs(contrib)))
    return total, mass


def sphere_integrate(form: MatrixForm, resolution=None) -> SphereIntegral:
    """Integrate a scalar top form over S^d, d in 1..3, embedded in R^{d+1}.

    The form must have degree d on R^{d+1} with rank-1 coefficients; it is
    sampled at ``sphere_rule(d + 1, resolution)`` and integrated by
    ``sphere_pairing``.  Two refinement levels give the error estimate;
    QuadratureError is raised when it exceeds the larger of 1e-10 and 1e-8
    relative.
    """
    d = form.degree
    if not 1 <= d <= 3:
        raise ValueError(f"sphere_integrate covers S^1..S^3, got a degree-{d} form")
    if form.p != d + 1:
        raise ValueError(f"degree-{d} form must live on R^{d + 1} to be integrated over S^{d}")
    if form.n != 1:
        raise ValueError("sphere_integrate needs rank-1 coefficients; call .traced() first")

    def run(res):
        rule = sphere_rule(d + 1, res)
        return sphere_pairing(rule, {I: v[:, 0, 0] for I, v in form.values(rule.points).items()})

    fine, mass = run(resolution)
    coarse, _ = run(coarser_chart_resolution(d, resolution))
    err = abs(fine - coarse)
    # scale against the integrand mass so exact cancellations do not trip
    if err > max(1e-10, 1e-8 * max(abs(fine), 1e-3 * mass)):
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

        return MatrixFamily(1, 1, f, (MatrixFamily(1, 1, df, name="moebius'"),), f"moebius({s})")

    if name == "circle_phase":
        # x0 + i x1 on R^2; restricted to S^1 this is e^{i theta}

        def f(x):
            x = np.asarray(x, dtype=float)
            return (x[:, 0] + 1j * x[:, 1])[:, None, None]

        ones = (MatrixFamily.constant([[1.0 + 0j]], 2, "1"), MatrixFamily.constant([[1j]], 2, "i"))
        return MatrixFamily(2, 1, f, ones, "circle_phase")

    if name in ("affine_clifford", "spectral_slice"):
        a = complex(params["a"] if name == "affine_clifford" else params["lam"])
        k = int(params["k"])
        rep = standard_rep(k)
        p, nn = rep.p, rep.rank

        def f(x):
            x = np.asarray(x, dtype=float)
            return a * np.eye(nn, dtype=complex)[None] + clifford_action(rep, x)

        gens = tuple(MatrixFamily.constant(rep.generators[j], p, f"E{j + 1}") for j in range(p))
        return MatrixFamily(p, nn, f, gens, f"{name}({a})")

    if name == "capped_clifford":
        # a + c(x) (1 + |x|^2)^{-1/2}: approaches a + c(x/|x|) at infinity
        a = complex(params["a"])
        k = int(params["k"])
        rep = standard_rep(k)
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

        return MatrixFamily(p, nn, f, tuple(MatrixFamily(p, nn, df(j), name=f"d{j} capped") for j in range(p)),
                            f"capped_clifford({a})")

    if name == "sphere_clifford":
        # x = (x_0, x') -> x_0 + c(x') on R^{2k}
        k = int(params["k"])
        rep = standard_rep(k)
        p = rep.p + 1
        nn = rep.rank

        def f(x):
            x = np.asarray(x, dtype=float)
            return x[:, 0, None, None] * np.eye(nn, dtype=complex)[None] + clifford_action(rep, x[:, 1:])

        parts = [MatrixFamily.constant(np.eye(nn, dtype=complex), p, "I")]
        parts += [MatrixFamily.constant(rep.generators[j], p, f"E{j + 1}") for j in range(rep.p)]
        return MatrixFamily(p, nn, f, tuple(parts), f"sphere_clifford(k={k})")

    if name == "tabulated":
        return matrix_family_from_csv(params["path"])

    if name == "step_unitary":
        # cos(theta(r)) + sin(theta(r)) c(x/|x|) with theta = pi * chi(r):
        # identity near 0, the constant -1 outside |x| = 1.  The standard
        # compactly supported generator of a nonzero winding number.
        k = int(params["k"])
        rep = standard_rep(k)
        p, nn = rep.p, rep.rank
        eye = np.eye(nn, dtype=complex)[None]

        def polar(x):
            # |x| and theta with trailing axes, u = x/|x| (0 at the origin) and c(u)
            x = np.asarray(x, dtype=float)
            r = row_norm(x)
            unit = np.where(r[:, None] > 0, x / np.maximum(r, 1e-300)[:, None], 0.0)
            return r[:, None, None], (math.pi * smooth_cutoff(r))[:, None, None], unit, clifford_action(rep, unit)

        def f(x):
            _, th, _, cu = polar(x)
            return np.cos(th) * eye + np.sin(th) * cu

        def df(j):
            # d_j f = theta' u_j (-sin theta + cos theta c(u)) + sin theta (E_j - u_j c(u)) / |x|
            def g(x):
                r, th, unit, cu = polar(x)
                uj = unit[:, j, None, None]
                slope = math.pi * smooth_cutoff_derivative(r) * uj
                turn = np.sin(th) / np.maximum(r, 1e-300)
                return slope * (np.cos(th) * cu - np.sin(th) * eye) + turn * (rep.generators[j] - uj * cu)

            return g

        parts = tuple(MatrixFamily(p, nn, df(j), name=f"d{j} step_unitary") for j in range(p))
        return MatrixFamily(p, nn, f, parts, f"step_unitary(k={k})")

    raise KeyError(f"unknown matrix family {name!r}")


def matrix_family_from_csv(path) -> MatrixFamily:
    """Tabulated matrix family from CSV columns x, row, col, re, im.

    One-dimensional base only; values are interpolated linearly entry by
    entry between the tabulated parameter points.  The matrices are N x N,
    N one more than the largest row or column index, and the table is read
    by ``read_csv_table``: every (x, row, col) cell must appear exactly once.
    """
    xs, table = read_csv_table(path, "x", ("row", "col"))
    n = table.shape[1]

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
