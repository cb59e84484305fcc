"""Matrix-valued differential forms on R^p, evaluated as jets at a batch.

A form is a dict from index tuples to coefficient families, each a
``MatrixFamily`` with a rule over the families it is built from.  At a
batch of points (M, p), one ``_Batch`` computes each array the evaluation
needs once, keyed by family and sorted index set S, so d_i d_j and d_j d_i
are one array and cancel exactly under antisymmetrization.  A coefficient
on dx_I is only differentiated along coordinates outside I, so S never
repeats a coordinate.

Inside a batch every value and partial is an (N, N, M) array with the point
axis last, so entry (i, j) of the whole batch is one contiguous row.  The
boundary stays (M, N, N): a leaf's ``func`` returns that layout and the
batch transposes each leaf partial once, and ``MatrixFamily.__call__``
and ``values_of`` hand it back.  A leaf with a ``jet`` (``capped_clifford``
and ``step_unitary``) skips that: one jet call per batch returns its value
and all p first partials in the batch layout, with the Clifford action and
the other shared terms computed once.  Its formulas build the batch layout
only; its ``func`` and ``partials``, for direct calls and for the
finite-difference stencils of higher partials, return the (M, N, N) view of
the same arrays, which the batch takes back without a copy.  A call
evaluates its points in blocks of at most ``BATCH_POINTS``, one batch per
block, so a batch's arrays stay small and leaf functions must be row-wise.
``values_of`` is the one way to evaluate forms: it returns every
coefficient of several forms from one batch per block, so the nodes they
share are computed once, and ``MatrixForm.values`` is its one-form case.

Leaf partials are analytic as far as a family's ``partials`` chain goes;
below that, one Richardson stencil of the missing order is applied to the
deepest analytic level, so no finite difference wraps another.  Products
follow Leibniz, inverses d(A^-1) = -A^-1 (dA) A^-1, and traces are sums of
rows, with the rank-1 and rank-2 kernels ``_matmul`` and ``_det_inv`` doing
the batched algebra; products, inverses and wedges reject a matrix rank
above 2, which no family integrable on the spheres S^1..S^3 has.  A top form
on a sphere is integrated by ``sphere_pairing`` at the points of
``quadrature.sphere_rule``, the one sphere sampler: its weights are the
surface measure, so the integral is a signed sum of the coefficients times
the missing coordinate, with no Jacobian minor.

The built-in families are plain functions that return a ``MatrixFamily``:
``moebius(s=1.0)``, ``circle_phase()``, ``affine_clifford(a, k)``,
``capped_clifford(a, k)``, ``sphere_clifford(k)`` and ``step_unitary(k)``.
``k`` must be an integer and every other parameter a finite number, kept as
a complex; ValueError names a bad one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .asymptotics import smooth_cutoff, smooth_cutoff_derivative
from .clifford import clifford_action, standard_rep
from .errors import QuadratureError, SingularFamilyError
from .quadrature import (
    SphereRule, coarser_chart_resolution, fd_step, richardson_derivative, row_norm, sphere_rule,
)

__all__ = [
    "MatrixFamily",
    "MatrixForm",
    "values_of",
    "wedge",
    "exterior_derivative",
    "maurer_cartan_power",
    "mc_form",
    "sphere_integrate",
    "sphere_pairing",
    "SphereIntegral",
    "moebius",
    "circle_phase",
    "affine_clifford",
    "capped_clifford",
    "sphere_clifford",
    "step_unitary",
]

Index = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """Smooth map R^p -> M(N, C), evaluated on batches of points.

    A leaf family has ``func``, which takes an (M, p) float array and returns
    (M, N, N) complex.  ``func`` must be row-wise: row m of its value depends
    on row m of x alone, because a family with a ``rule`` evaluates its batch
    over blocks of at most ``BATCH_POINTS`` points, so a leaf inside it sees
    at most 4,096 rows per call.  Its ``partials`` may hold

    - None: no analytic partials; a jet takes them from one Richardson
      stencil of the needed order;
    - a tuple of p families d_0 f, ..., d_{p-1} f, whose own ``partials``
      continue the chain to higher orders; where the chain stops, the
      stencil of the remaining order is applied to its last family;
    - the empty tuple: the family is constant and every partial vanishes.

    A leaf may also have a ``jet``: called once per batch with the (M, p)
    points, it returns the list of the value and d_0 f, ..., d_{p-1} f, each
    a contiguous (N, N, M) array in the batch layout and bit for bit
    ``func`` or ``partials[j]`` transposed.  A batch takes d_S for |S| <= 1
    from it and never calls that leaf's ``func`` or ``partials`` then; direct
    calls and the stencils of higher partials still do.  ``capped_clifford``
    and ``step_unitary`` have jets, and their ``func`` and ``partials``
    return transposed views of the jet's own arrays.

    ``constant`` families return a read-only broadcast view of their matrix,
    without a copy; the evaluation never writes into an array a family
    returns, so leaves may hand out views.

    ``mf_product``, ``mf_inverse`` and the form builders build families with
    a ``rule`` in place of ``func``: ``rule(batch, S)`` returns d_S in the
    batch layout (N, N, M) from the operands' partials in the batch.  Called,
    every family returns (M, N, N) (or (N, N) at a single point).
    """

    p: int
    n: int
    func: Callable[[np.ndarray], np.ndarray] | None = None
    partials: tuple["MatrixFamily", ...] | None = None
    name: str = ""
    rule: Callable[["_Batch", Index], np.ndarray] | None = field(default=None, repr=False)
    jet: Callable[[np.ndarray], list[np.ndarray]] | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, mat, p: int, name: str = "const") -> "MatrixFamily":
        mat = np.asarray(mat, dtype=complex)
        return cls(p, mat.shape[0], lambda x: np.broadcast_to(mat, (len(x),) + mat.shape), (), name)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pts = x[None, :] if x.ndim == 1 else x
        vals = self.func(pts) if self.rule is None else _blockwise(self, pts)
        return vals[0] if x.ndim == 1 else vals


def _planar(v: np.ndarray) -> np.ndarray:
    """An (M, N, N) stack in the batch layout (N, N, M): one contiguous copy,
    except that a constant's zero-stride view and the ``_stacked`` view of a
    contiguous batch array (a jet leaf's value) stay views."""
    t = v.transpose(1, 2, 0)
    return t if t.strides[-1] == 0 else np.ascontiguousarray(t)


def _stacked(a: np.ndarray) -> np.ndarray:
    """A batch array (..., M) with the point axis last, such as (N, N, M), as
    the (M, ...) stack of the boundary, as a view."""
    return a.transpose(-1, *range(a.ndim - 1))


# Points per _Batch.  A batch holds every node array of its points until it
# ends, so one batch per shell panel (up to 221,184 points) peaked the
# matrix-eta benchmark at 66 MB and faulted in fresh pages on every panel.
# At 4,096 points a batch's arrays stay in reused heap: 51 MB, and 3.7k
# instead of 58k minor faults per warm pass.  2,048 gave 49 MB but ran
# slower; 8,192 gave 54 MB and 38k faults.
BATCH_POINTS = 4096


def _blockwise(fam: MatrixFamily, x: np.ndarray, S: Index = ()) -> np.ndarray:
    """d_S of the rule family ``fam`` at the points x in the boundary layout,
    point axis first: one _Batch per block of at most BATCH_POINTS points,
    in point order.  Every node is pointwise, so the blocks give the values
    of one batch bit for bit, and the first block that raises holds the
    first bad point.  One block is returned as a view of its batch array,
    more are written into one preallocated result."""
    if len(x) <= BATCH_POINTS:
        return _stacked(_Batch(x).family(fam, S))
    out = None
    for start in range(0, len(x), BATCH_POINTS):
        block = _stacked(_Batch(x[start:start + BATCH_POINTS]).family(fam, S))
        if out is None:
            out = np.empty((len(x),) + block.shape[1:], dtype=block.dtype)
        out[start:start + len(block)] = block
    return out


class _Batch:
    """One evaluation at the points x: every partial derivative it needs,
    computed once and kept per (family, sorted index set) as an (N, N, M)
    array."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self.done: dict[tuple[MatrixFamily, Index], np.ndarray] = {}

    def family(self, fam: MatrixFamily, S: Index = ()) -> np.ndarray:
        if (fam, S) not in self.done:
            if fam.jet is not None and len(S) <= 1:
                value, *partials = fam.jet(self.x)
                self.done[(fam, ())] = value
                self.done.update(((fam, (j,)), d) for j, d in enumerate(partials))
            else:
                self.done[(fam, S)] = fam.rule(self, S) if fam.rule else _planar(_leaf_partial(fam, self.x, S))
        return self.done[(fam, S)]


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
# Batch kernels on the (N, N, M) layout, for ranks 1 and 2 only: entrywise
# formulas on the contiguous rows a[i, j], written into preallocated rows.
# ``sphere_rule`` stops at S^3, so an integrable Clifford family has k <= 2
# and rank N = 2^(k-1) <= 2; ``mf_product``, ``mf_inverse`` and ``wedge``
# reject a higher rank.


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise (broadcast) matrix product of two batch arrays of rank 1 or 2."""
    if a.shape[0] == 1:
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    tmp = np.empty(out.shape[2:], dtype=out.dtype)
    for i in range(2):
        for j in range(2):
            row = np.multiply(a[i, 0], b[0, j], out=out[i, j])
            row += np.multiply(a[i, 1], b[1, j], out=tmp)
    return out


def _det_inv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants (M,) and inverses (N, N, M) of a batch array of rank 1
    or 2; inverses of singular matrices come out non-finite (the caller
    checks the determinants first)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if a.shape[0] == 1:
            return a[0, 0], 1.0 / a
        a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        det = a00 * a11 - a01 * a10
        inv = np.empty(a.shape, dtype=a.dtype)
        np.divide(a11, det, out=inv[0, 0])
        np.divide(np.negative(a01, out=inv[0, 1]), det, out=inv[0, 1])
        np.divide(np.negative(a10, out=inv[1, 0]), det, out=inv[1, 0])
        np.divide(a00, det, out=inv[1, 1])
        return det, inv


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
    """The pointwise product a b; raises ValueError unless a and b have the
    same base dimension and matrix rank, and the rank is at most 2."""
    if a.p != b.p or a.n != b.n or a.n > 2:
        raise ValueError(f"product requires the same base dimension and matrix rank, at most 2, "
                         f"got (p, n) = ({a.p}, {a.n}) and ({b.p}, {b.n})")
    return MatrixFamily(a.p, a.n, name=f"({a.name}.{b.name})",
                        rule=lambda batch, S: _leibniz(S, partial(batch.family, a), partial(batch.family, b)))


def mf_inverse(a: MatrixFamily) -> MatrixFamily:
    """The pointwise inverse a^{-1}; raises ValueError for a matrix rank above
    2, and SingularFamilyError where a is singular."""
    if a.n > 2:
        raise ValueError(f"inverse requires a matrix rank of at most 2, got {a.n}")

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

    ``coefficients`` maps each strictly increasing index tuple I whose
    coefficient may be nonzero to that coefficient, a ``MatrixFamily`` on R^p;
    absent tuples are zero, and ``indices`` lists the keys in increasing
    order.  The builders make each coefficient a family with a ``rule`` over
    their operands' coefficient families, memoized in a batch like any other.
    """

    p: int
    n: int
    degree: int
    coefficients: dict[Index, MatrixFamily]
    # The arrays of the last batch, never read: one block of at most
    # BATCH_POINTS points.  Released when the next block starts, they leave
    # holes that block refills; released at the end of each block, they go
    # back to the system and every block page-faults on fresh memory (at the
    # standard budget 235k instead of 33k minor faults per warm eta-matrix
    # run and 288k instead of 33k for variation-check; 6.2k instead of 3.7k
    # per warm matrix-eta pass).  The arrays only: the batch's keys lead back
    # to this form through the family of ``values_of``, and holding the batch
    # made a cycle that kept the arrays of every dead form until a full
    # collection.
    _last_batch: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)

    @property
    def indices(self) -> tuple[Index, ...]:
        return tuple(sorted(self.coefficients))

    def values(self, x) -> dict[Index, np.ndarray]:
        """Every coefficient at the points x, from one batch per block: a dict
        from each of ``indices`` to its (M, N, N) stack, or (N, N) at a single
        point; an index absent from ``indices`` has coefficient zero.  The
        one-form case of ``values_of``."""
        return values_of([self], x)[0]

    def traced(self) -> "MatrixForm":
        """Apply the matrix trace coefficient-wise; the result has rank 1."""
        return _form(self.p, 1, self.degree, "tr", lambda c, batch, S: _trace(batch.family(c, S)), self.coefficients)


def _form(p: int, n: int, degree: int, name: str, rule, operands: dict) -> MatrixForm:
    """The form whose coefficient on dx_K, K over the keys of ``operands``,
    is the family with d_S = rule(operands[K], batch, S)."""
    return MatrixForm(p, n, degree, {
        K: MatrixFamily(p, n, name=f"{name}{K}", rule=partial(rule, operands[K])) for K in sorted(operands)
    })


def values_of(forms: Sequence[MatrixForm], x) -> list[dict[Index, np.ndarray]]:
    """Every coefficient of every form at the points x, from one batch per
    block of at most BATCH_POINTS points: for each form, in order, the dict
    its ``values`` returns.  A node the forms share (a leaf, a product, a
    partial) is computed once per block.  The forms must have one base
    dimension and one matrix rank; ValueError otherwise.  The blocks run
    inside one MatrixFamily call, so whatever counts those calls sees the
    leaf evaluations nested in it."""
    if any((w.p, w.n) != (forms[0].p, forms[0].n) for w in forms):
        raise ValueError("forms on one batch need the same base dimension and matrix rank")
    families = [w.coefficients[I] for w in forms for I in w.indices]
    if not families:
        return [{} for _ in forms]
    x = np.asarray(x, dtype=float)

    def rule(batch, S):
        for w in forms:
            w._last_batch = ()
        vals = np.stack([batch.family(c) for c in families])
        held = tuple(batch.done.values())
        for w in forms:
            w._last_batch = held
        return vals

    # (K, N, N, M) inside the batch; the call hands back (M, K, N, N)
    stack = MatrixFamily(forms[0].p, forms[0].n, name="form batch", rule=rule)
    vals = stack(x[None, :] if x.ndim == 1 else x)
    coeffs = iter(vals[0] if x.ndim == 1 else np.moveaxis(vals, 1, 0))
    return [{I: next(coeffs) for I in w.indices} for w in forms]


def _shuffle_sign(I: Index, J: Index) -> int:
    inversions = sum(1 for a in I for b in J if a > b)
    return -1 if inversions % 2 else 1


def _signed_products(parts, batch: _Batch, S: Index) -> np.ndarray:
    """d_S of the sum of sign a b over the (sign, a, b) family triples in ``parts``, in order."""
    return _signed_total((sgn, _leibniz(S, partial(batch.family, a), partial(batch.family, b))) for sgn, a, b in parts)


def form_from_families(coeffs: dict[Index, MatrixFamily]) -> MatrixForm:
    """The form sum_I coeffs[I] dx_I, for strictly increasing index tuples of
    one length; ``{(): f}`` is the 0-form f."""
    fam = next(iter(coeffs.values()))
    return MatrixForm(fam.p, fam.n, len(next(iter(coeffs))), dict(coeffs))


def wedge(w1: MatrixForm, w2: MatrixForm) -> MatrixForm:
    """Wedge product with shuffle signs and matrix products in order; raises
    ValueError unless both forms have the same base dimension and matrix
    rank, and the rank is at most 2."""
    if w1.p != w2.p or w1.n != w2.n or w1.n > 2:
        raise ValueError(f"wedge requires the same base dimension and matrix rank, at most 2, "
                         f"got (p, n) = ({w1.p}, {w1.n}) and ({w2.p}, {w2.n})")
    terms: dict[Index, list[tuple[int, MatrixFamily, MatrixFamily]]] = {}
    for I, a in sorted(w1.coefficients.items()):
        for J, b in sorted(w2.coefficients.items()):
            if not set(I) & set(J):
                terms.setdefault(tuple(sorted(I + J)), []).append((_shuffle_sign(I, J), a, b))
    return _form(w1.p, w1.n, w1.degree + w2.degree, "wedge", _signed_products, terms)


def exterior_derivative(w: MatrixForm) -> MatrixForm:
    """d with the standard signs: d(A dx_I) = sum_j dA/dx_j dx_j ^ dx_I, the
    partials taken from the batch jets."""
    terms: dict[Index, list[tuple[int, MatrixFamily, int]]] = {}
    for I, c in sorted(w.coefficients.items()):
        for j in range(w.p):
            if j not in I:
                K = _with(I, j)
                terms.setdefault(K, []).append((-1 if K.index(j) % 2 else 1, c, j))

    def rule(parts, batch, S):
        return _signed_total((sign, batch.family(c, _with(S, j))) for sign, c, j in parts)

    return _form(w.p, w.n, w.degree + 1, "d", rule, terms)


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
    product.  G and the S of each index set are families built once with the
    form, so a batch forms each once.  The untraced power is ``wedge`` of
    ``mc_form(f)`` with itself.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("power must be a positive odd integer")
    w = mc_form(f)
    if q == 1:
        return w.traced()
    alt = dict(w.coefficients)

    def antisymmetrized(J):
        """sum_sigma sgn(sigma) G_{j_sigma(1)} ... G_{j_sigma(m)}, expanded along the first factor."""
        if J not in alt:
            parts = [(-1 if t % 2 else 1, alt[J[t:t + 1]], antisymmetrized(J[:t] + J[t + 1:])) for t in range(len(J))]
            alt[J] = MatrixFamily(f.p, f.n, name=f"alt{J}", rule=partial(_signed_products, parts))
        return alt[J]

    def rule(pair, batch, S):
        return (q * _leibniz(S, *(partial(batch.family, c) for c in pair), _trace_product))[None, None]

    pairs = {I: (alt[I[:1]], antisymmetrized(I[1:])) for I in combinations(range(f.p), q)}
    return _form(f.p, 1, q, f"tr mc^{q} ", rule, pairs)


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


def _checked(family: str, key: str, value):
    """The parameter ``key`` of the built-in family ``family``, checked: ``k``
    an integer (not a bool), returned as an int; any other a finite number,
    returned as a complex.  ValueError names the parameter."""
    if key == "k":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"parameter 'k' of {family!r} must be an integer, got {value!r}")
        return int(value)
    z = complex(value) if isinstance(value, numbers.Number) and not isinstance(value, bool) else None
    if z is None or not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"parameter {key!r} of {family!r} must be a finite number, got {value!r}")
    return z


def _jet_leaf(rep, terms, name: str) -> MatrixFamily:
    """A leaf on R^p, p = rep.p, whose jet is ``terms(x, value, dirs)``: the
    list of the value (if ``value``) and of d_j for j in ``dirs``, each a
    contiguous (N, N, M) array in the batch layout.  ``func`` and each
    partial's ``func`` return the (M, N, N) view of the same arrays, so every
    jet array is ``func`` or ``partials[j]`` transposed by construction."""

    def pick(value, dirs):
        return lambda x: _stacked(terms(x, value, dirs)[0])

    p, n = rep.p, rep.rank
    parts = tuple(MatrixFamily(p, n, pick(False, (j,)), name=f"d{j} {name}") for j in range(p))
    return MatrixFamily(p, n, pick(True, ()), parts, name, jet=lambda x: terms(x, True, range(p)))


def moebius(s=1.0) -> MatrixFamily:
    """(t - i s)/(t + i s) on R^1, with its analytic first partial."""
    s = _checked("moebius", "s", s)

    def f(x):
        t = np.asarray(x, dtype=float)[:, 0]
        return ((t - 1j * s) / (t + 1j * s))[:, None, None]

    def df(x):
        t = np.asarray(x, dtype=float)[:, 0]
        return (2j * s / (t + 1j * s) ** 2)[:, None, None]

    return MatrixFamily(1, 1, f, (MatrixFamily(1, 1, df, name="moebius'"),), f"moebius({s})")


def circle_phase() -> MatrixFamily:
    """x0 + i x1 on R^2; restricted to S^1 this is e^{i theta}."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return (x[:, 0] + 1j * x[:, 1])[:, None, None]

    ones = (MatrixFamily.constant([[1.0 + 0j]], 2, "1"), MatrixFamily.constant([[1j]], 2, "i"))
    return MatrixFamily(2, 1, f, ones, "circle_phase")


def affine_clifford(a, k) -> MatrixFamily:
    """a + c(x) on R^{2k-1}, c the Clifford action of ``standard_rep(k)``."""
    a, rep = _checked("affine_clifford", "a", a), standard_rep(_checked("affine_clifford", "k", k))
    p, nn = rep.p, rep.rank

    def f(x):
        x = np.asarray(x, dtype=float)
        return a * np.eye(nn, dtype=complex)[None] + clifford_action(rep, x)

    gens = tuple(MatrixFamily.constant(rep.generators[j], p, f"E{j + 1}") for j in range(p))
    return MatrixFamily(p, nn, f, gens, f"affine_clifford({a})")


def capped_clifford(a, k) -> MatrixFamily:
    """a + s c(x) with s = (1 + |x|^2)^{-1/2} on R^{2k-1}: approaches
    a + c(x/|x|) at infinity.  A jet leaf."""
    a, rep = _checked("capped_clifford", "a", a), standard_rep(_checked("capped_clifford", "k", k))
    eye, *gens = (m[:, :, None] for m in (np.eye(rep.rank, dtype=complex), *rep.generators))

    def terms(x, value, dirs):
        x = np.asarray(x, dtype=float)
        s = 1.0 / np.sqrt(1.0 + np.sum(x ** 2, axis=1))
        cu = _planar(clifford_action(rep, x))
        out = [a * eye + s * cu] if value else []
        if dirs:
            # d_j f = s E_j - s^3 x_j c(x)
            s3 = s ** 3
            out += [s * gens[j] - (s3 * x[:, j]) * cu for j in dirs]
        return out

    return _jet_leaf(rep, terms, f"capped_clifford({a})")


def sphere_clifford(k) -> MatrixFamily:
    """x = (x_0, x') -> x_0 + c(x') on R^{2k}."""
    k = _checked("sphere_clifford", "k", k)
    rep = standard_rep(k)
    p = rep.p + 1
    nn = rep.rank

    def f(x):
        x = np.asarray(x, dtype=float)
        return x[:, 0, None, None] * np.eye(nn, dtype=complex)[None] + clifford_action(rep, x[:, 1:])

    parts = [MatrixFamily.constant(np.eye(nn, dtype=complex), p, "I")]
    parts += [MatrixFamily.constant(rep.generators[j], p, f"E{j + 1}") for j in range(rep.p)]
    return MatrixFamily(p, nn, f, tuple(parts), f"sphere_clifford(k={k})")


def step_unitary(k) -> MatrixFamily:
    """cos(theta(r)) + sin(theta(r)) c(x/|x|) on R^{2k-1} with theta = pi *
    chi(r): identity near 0, the constant -1 outside |x| = 1.  The standard
    compactly supported generator of a nonzero winding number.  A jet leaf."""
    k = _checked("step_unitary", "k", k)
    rep = standard_rep(k)
    eye, *gens = (m[:, :, None] for m in (np.eye(rep.rank, dtype=complex), *rep.generators))

    def terms(x, value, dirs):
        # u = x/|x| (0 at the origin) and c(u)
        x = np.asarray(x, dtype=float)
        r = row_norm(x)
        unit = np.where(r[:, None] > 0, x / np.maximum(r, 1e-300)[:, None], 0.0)
        cu = _planar(clifford_action(rep, unit))
        th = math.pi * smooth_cutoff(r)
        cos, sin = np.cos(th), np.sin(th)
        out = [cos * eye + sin * cu] if value else []
        if dirs:
            # d_j f = theta' u_j (-sin theta + cos theta c(u)) + sin theta (E_j - u_j c(u)) / |x|
            rot = cos * cu - sin * eye
            slope = math.pi * smooth_cutoff_derivative(r)
            turn = sin / np.maximum(r, 1e-300)
            for j in dirs:
                uj = unit[:, j]
                out.append(slope * uj * rot + turn * (gens[j] - uj * cu))
        return out

    return _jet_leaf(rep, terms, f"step_unitary(k={k})")
