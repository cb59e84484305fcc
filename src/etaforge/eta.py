"""Higher eta-invariants of invertible parametric families.

Two computation routes: the matrix-form route integrates the trace of the
(2k-1)-st power of A^{-1} dA over R^{2k-1} with the regularized integral,
and the spectral-reduction route sums the per-eigenvalue closed form of the
suspension family D +- c(mu) and reduces the integral radially.  The k of
a matrix-route eta is read off the family: p = 2k - 1.  Winding
numbers, the variation formula, the k = 2 additivity defect, the spectral
eta bridge, and the divisor-flow experiment sit on top.  The additivity
defect takes eta_2 of A, B and AB as three columns of one integrand, so each
panel evaluates A, B and their partials once for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .asymptotics import (
    DEFAULT_LADDER,
    ExpansionModel,
    RadiusLadder,
    RegularizedValue,
    fit_expansion_samples,
    regint_halfline,
    regint_rp,
    regint_rp_radial,
    smooth_step,
)
from .errors import SingularFamilyError
from .forms import (
    MatrixFamily,
    MatrixForm,
    exterior_derivative,
    form_from_families,
    maurer_cartan_power,
    mc_form,
    mf_inverse,
    mf_product,
    sphere_integrate,
    sphere_pairing,
    values_of,
    wedge,
)
from .partrace import (
    SpectralFamily,
    eta_kernel,
    l2_trace_values,
    tr_param_values,
)
from .quadrature import (
    RICHARDSON_OFFSETS, SphereRule, gauss_legendre, richardson_derivative, sample_points, sphere_rule,
)

__all__ = [
    "c_k",
    "EtaResult",
    "PathFamily",
    "eta_k",
    "winding",
    "formal_trace_matrix",
    "eta_variation",
    "additivity_defect",
    "AdditivityDefect",
    "defect_forms",
    "spectral_eta",
    "eta_suspension",
    "divisor_flow",
    "phase_unwinding_path",
    "linear_bridge_path",
]


def c_k(k: int) -> complex:
    """Normalization making the Clifford sphere integral equal -1/c_k:
    c_k = (-1)^{k-1} (k-1)! / ((2 pi i)^k (2k-1)!)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return (-1.0) ** (k - 1) * math.factorial(k - 1) / ((2j * math.pi) ** k * math.factorial(2 * k - 1))


@dataclass
class EtaResult:
    value: complex
    diagnostics: list[RegularizedValue] = field(default_factory=list)

    @property
    def half_integer_deviation(self) -> float:
        """Distance of value/2 from the nearest integer (winding check)."""
        h = self.value / 2.0
        return abs(h - complex(round(h.real)))


PATH_FD_STEP = 1e-3


@dataclass
class PathFamily:
    """s-parametrized family of matrix families on [0, 1].

    The s-derivative is a central difference with a Richardson pass and step
    PATH_FD_STEP.
    """

    family_at: Callable[[float], MatrixFamily]

    def derivative_at(self, s: float) -> MatrixFamily:
        h = PATH_FD_STEP
        shifted = {c: self.family_at(s + c * h) for c in RICHARDSON_OFFSETS}

        def df(x):
            return richardson_derivative(lambda c: shifted[c](x), h)

        proto = self.family_at(s)
        return MatrixFamily(proto.p, proto.n, df, name=f"ds@{s}")


# ---------------------------------------------------------------------------
# Core invariants


def _eta_batch(
    families: list[MatrixFamily],
    model: ExpansionModel,
    ladder: RadiusLadder,
    sphere: SphereRule | None,
    n_radial: int,
) -> list[EtaResult]:
    """eta_k of each family from one pass of the shell loop: per panel, the
    top coefficients of every tr((A^{-1} dA)^{2k-1}) come from the same
    batches (``values_of``), so leaves and partials the families share are
    evaluated once, and each family is one column of the integrand,
    integrated and fitted bit for bit as it would be alone."""
    ps = sorted({A.p for A in families})
    if len(ps) != 1 or ps[0] % 2 == 0:
        raise ValueError(f"eta_k needs families on one R^(2k-1), of odd dimension, got p = {ps}")
    p, k = ps[0], (ps[0] + 1) // 2
    tforms = [maurer_cartan_power(A, p) for A in families]
    top = tuple(range(p))

    def integrand(x):
        cols = [vals[top][:, 0, 0] for vals in values_of(tforms, x)]
        # one family passes a view of the batch's column: a stacked copy raised
        # matrix-eta's peak RSS by 0.2 MB
        return cols[0][:, None] if len(cols) == 1 else np.stack(cols, axis=1)

    regs = regint_rp(integrand, model, p, ladder, sphere, n_radial)
    return [EtaResult(2.0 * c_k(k) * reg.value, [reg]) for reg in regs]


def eta_k(
    A: MatrixFamily,
    model: ExpansionModel,
    ladder: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
    n_radial: int = 32,
) -> EtaResult:
    """eta_k(A) = 2 c_k times the regularized integral over R^{2k-1} (A.p =
    2k - 1) of tr((A^{-1} dA)^{2k-1}); A must be invertible everywhere.  The
    spectral-reduction route for the circle operator is ``eta_suspension``."""
    return _eta_batch([A], model, ladder, sphere, n_radial)[0]


def winding(f: MatrixFamily, resolution=None) -> complex:
    """w(f) = c_k int_{S^{2k-1}} tr((f^{-1} df)^{2k-1}) with f.p = 2k; an
    integer for smooth invertible f on the sphere."""
    if f.p % 2:
        raise ValueError(f"winding needs an ambient family on R^(2k), of even dimension, got p = {f.p}")
    tform = maurer_cartan_power(f, f.p - 1)
    val = sphere_integrate(tform, resolution)
    return c_k(f.p // 2) * val.value


def formal_trace_matrix(
    form: MatrixForm,
    coef_model: ExpansionModel,
    radii: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
) -> complex:
    """Formal trace of a degree-(p-1) matrix form over R^p.

    The traced form is evaluated once, every coefficient from the same
    batches at the radius ladder times the sphere rule.  Each coefficient is
    fitted with ``coef_model``, and the form of the degree (1-p, 0) angular
    parts is integrated over the unit sphere (``sphere_pairing``); no
    derivative of the form is taken.
    """
    p = form.p
    if form.degree != p - 1:
        raise ValueError("formal trace needs a degree p-1 form")
    rr = radii.radii()
    rule = sphere if sphere is not None else sphere_rule(p)
    want = 1.0 - float(p)
    angular = {
        I: fit_expansion_samples(rr, vals[:, 0, 0].reshape(len(rr), -1), coef_model, rule).coefficient(want)
        for I, vals in form.traced().values(sample_points(rr, rule)).items()
    }
    return sphere_pairing(rule, angular)[0]


def eta_variation(
    path: PathFamily,
    s: float,
    model: ExpansionModel,
    coef_model: ExpansionModel | None = None,
    s_step: float = 5e-3,
    ladder: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
    n_radial: int = 32,
) -> tuple[complex, complex]:
    """Both sides of the variation formula at path parameter s.

    lhs: Richardson central difference of eta_k along the path.
    rhs: 2 (2k-1) c_k times the formal trace of
    (A^{-1} ds A) (A^{-1} dA)^{2k-2}.
    """

    def eta_at(ss: float) -> complex:
        return eta_k(path.family_at(ss), model, ladder, sphere, n_radial).value

    lhs = richardson_derivative(lambda c: eta_at(s + c * s_step), s_step)

    A = path.family_at(s)
    k = (A.p + 1) // 2  # the path's families are on R^(2k-1), as eta_k checked
    G = mf_product(mf_inverse(A), path.derivative_at(s))
    form = form_from_families({(): G})
    w = mc_form(A)
    for _ in range(2 * k - 2):
        form = wedge(form, w)
    cm = coef_model if coef_model is not None else model
    rhs = 2.0 * (2 * k - 1) * c_k(k) * formal_trace_matrix(form, cm, ladder, sphere)
    return lhs, rhs


@dataclass
class AdditivityDefect:
    lhs: complex
    rhs: complex
    eta_product: complex
    eta_a: complex
    eta_b: complex


def defect_forms(A: MatrixFamily, B: MatrixFamily) -> tuple[MatrixForm, MatrixForm]:
    """w1 = B^{-1} (A^{-1} dA) B and w2 = B^{-1} dB, the 1-forms whose wedge
    carries the additivity defect of eta_2."""
    binv, b = form_from_families({(): mf_inverse(B)}), form_from_families({(): B})
    # one B^-1 node for both forms, so a batch inverts B once
    return wedge(wedge(binv, mc_form(A)), b), wedge(binv, exterior_derivative(b))


def additivity_defect(
    A: MatrixFamily,
    B: MatrixFamily,
    model_eta: ExpansionModel,
    ladder: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
    n_radial: int = 32,
) -> AdditivityDefect:
    """k = 2 additivity defect on R^3.

    lhs = eta_2(AB) - eta_2(A) - eta_2(B), the three from one pass of the
    shell loop whose batches evaluate A, B and their partials once per point
    for all three integrands; each value is bit for bit its own ``eta_k``.
    rhs = -6 c_2 times the formal trace of (B^{-1}(A^{-1}dA)B) ^ (B^{-1}dB),
    read from the fitted degree -2 angular part of the 2-form's
    coefficients.  Those decay one degree slower than the integrand of
    eta_2, so their model is ``model_eta`` with every degree raised by one.
    Raises ValueError before any evaluation unless A and B have the same
    matrix rank and the base dimension 3.
    """
    AB = mf_product(A, B)
    if AB.p != 3:
        raise ValueError(f"the additivity defect is of eta_2, on R^3, got p = {AB.p}")
    ea, eb, eab = (res.value for res in _eta_batch([A, B, AB], model_eta, ladder, sphere, n_radial))
    lhs = eab - ea - eb

    w1, w2 = defect_forms(A, B)
    coef_model = ExpansionModel(tuple((d + 1.0, l) for d, l in model_eta.terms), model_eta.remainder_degree + 1.0)
    tr12 = formal_trace_matrix(wedge(w1, w2), coef_model, ladder, sphere)
    rhs = -6.0 * c_k(2) * tr12
    return AdditivityDefect(lhs, rhs, eab, ea, eb)


# ---------------------------------------------------------------------------
# Spectral eta and the suspension bridge

# the radius ladder at infinity of both spectral routes
SPECTRAL_LADDER = RadiusLadder(4.0, 256.0, 16)


def spectral_eta(a: float, k: int = 2, n_radial: int = 32) -> complex:
    """Spectral eta-invariant of the circle operator with spectrum {n + a}
    (a a finite non-integer): the weighted half-line regularized integral of
    the l2 trace of the symbol lam (lam^2 + |mu|^2)^{-k}, which needs k >= 2
    for trace class.  Its closed form is 1 - 2(a - floor(a)); at
    half-integer a the spectrum is symmetric and the value is exactly 0.
    """
    if k < 2:
        raise ValueError("regint route needs k >= 2 (trace-class integrand)")
    fam = SpectralFamily(a, eta_kernel(k))

    def g(x):
        pts = np.asarray(x, dtype=float)[:, None]
        return pts[:, 0] ** (2 * k - 2) * l2_trace_values(fam, pts)

    # x^{2k-2} tr decays faster than any power (two-sided spectral
    # cancellation); at zero it is even and analytic with convergence radius
    # min |lam_n|, so the zero-end ladder starts well inside it.
    model_inf = ExpansionModel.make([], remainder=-6.0)
    model_zero = ExpansionModel.at_zero([(2 * k - 2 + 2 * j, 0) for j in range(4)])
    lam_min = abs(a - round(a))
    u_start = max(32.0, 8.0 / lam_min)
    zero_ladder = RadiusLadder(u_start, u_start * 4096.0, 16)
    reg = regint_halfline(g, model_zero, model_inf, SPECTRAL_LADDER, n_radial, ladder_zero=zero_ladder)
    front = 2.0 * math.gamma(k) / (math.gamma(k - 0.5) * math.sqrt(math.pi))
    return front * reg.value


def eta_suspension(
    a: float,
    k: int,
    sign: int = +1,
    n_radial: int = 32,
) -> EtaResult:
    """eta_k of the suspension family D + sign * c(mu) over R^{2k-1}, for the
    circle operator D with spectrum {n + a} (a a finite non-integer).

    Per eigenvalue lam the slice sign*lam + c(mu) contributes the closed-form
    top coefficient (2k-1)! (sign lam) (lam^2+|mu|^2)^{-k} 2^{k-1} i^{-k};
    the eigenvalue sum runs inside, the radial limit outside, and the
    regularized integral reduces to one dimension with the exact sphere
    factor.  Satisfies eta_k(D +- c) = -+ eta(D).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    p = 2 * k - 1
    fam = SpectralFamily(a, eta_kernel(k))
    pref = sign * math.factorial(p) * 2 ** (k - 1) * (1j) ** (-k)

    def w(r):
        pts = np.asarray(r, dtype=float)[:, None]
        return pref * tr_param_values(fam, pts)

    # for k = 1 the subtracted trace tends to a constant at infinity (the
    # finite part kills it); higher k decay faster than any power
    terms = [(0.0, 0)] if k == 1 else []
    reg = regint_rp_radial(w, ExpansionModel.make(terms, remainder=-2.0 * p), p, SPECTRAL_LADDER, n_radial)
    return EtaResult(2.0 * c_k(k) * reg.value, [reg])


# ---------------------------------------------------------------------------
# Divisor flow


# eta-rate boundary: |lambda| where the boundary values are read, and the
# s-step of their Richardson derivative
RATE_BOUNDARY = 50.0
RATE_FD_STEP = 1e-4
FLOW_S_NODES = 16  # Gauss-Legendre nodes of the flow's s-integral over [0, 1]


def _boundary_logderivative(path: PathFamily, s: float, lam: float) -> complex:
    def val(ss):
        fam = path.family_at(ss)
        return complex(fam(np.array([[lam]]))[0, 0, 0])

    f0 = val(s)
    if abs(f0) < 1e-8:
        raise SingularFamilyError(f"boundary value vanishes at lambda = {lam}, s = {s}")
    return richardson_derivative(lambda c: val(s + c * RATE_FD_STEP), RATE_FD_STEP) / f0


def path_eta_rate(path: PathFamily, s: float) -> complex:
    """v-eta of a scalar path: (1/(pi i)) (ds f / f at +inf minus at -inf),
    with +-inf read at lambda = +-RATE_BOUNDARY.

    Only the boundary values enter, so invertibility in the middle is not
    required (parametrix mode)."""
    plus = _boundary_logderivative(path, s, +RATE_BOUNDARY)
    minus = _boundary_logderivative(path, s, -RATE_BOUNDARY)
    return (plus - minus) / (math.pi * 1j)


def divisor_flow(path_a: PathFamily, path_b: PathFamily) -> dict:
    """Integral of the eta rate over s in [0, 1] (FLOW_S_NODES Gauss-Legendre
    nodes) for two elliptic paths with the same endpoints, and their
    difference.  Path dependence of the difference is the point."""

    def integrate(path):
        x, w = gauss_legendre(FLOW_S_NODES)
        s = 0.5 * (x + 1.0)
        w = 0.5 * w
        return complex(sum(wi * path_eta_rate(path, si) for si, wi in zip(s, w)))

    va = integrate(path_a)
    vb = integrate(path_b)
    return {"path_a": va, "path_b": vb, "difference": va - vb}


def _ramp(u: np.ndarray, width: float) -> np.ndarray:
    """Normalized C^inf ramp from 0 at u <= 0 to exactly 1 at u >= 1."""
    u = np.asarray(u, dtype=float)
    gl_x, gl_w = gauss_legendre(48)

    def mass(upper):
        upper = np.asarray(upper, dtype=float)
        t = 0.5 * upper[..., None] * (gl_x + 1.0)
        w = 0.5 * upper[..., None] * gl_w
        m = smooth_step(t / width) * smooth_step((1.0 - t) / width)
        return np.sum(w * m, axis=-1)

    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        out[mid] = mass(u[mid]) / mass(np.array(1.0))
    return out


def phase_unwinding_path(width: float = 0.05) -> PathFamily:
    """The phase-unwinding family: e^{2 pi i s} for lambda << 0, e^{2 pi i
    lambda} across the ramp, constant 1 for lambda >= 1; corners mollified
    with the given width.  The ramp is normalized so the boundary values are
    exact for every s, which makes the flow integral width-independent.
    Raises ValueError unless the width is finite and positive."""
    if not (math.isfinite(width) and width > 0.0):
        raise ValueError(f"corner-mollifier width must be finite and positive, got {width!r}")

    def family_at(s: float) -> MatrixFamily:
        def f(x):
            lam = np.asarray(x, dtype=float)[:, 0]
            if s >= 1.0:
                phase = np.ones_like(lam)
            else:
                scaled_width = min(width / (1.0 - s), 0.49)
                u = (lam - s) / (1.0 - s)
                phase = s + (1.0 - s) * _ramp(u, scaled_width)
            return np.exp(2j * math.pi * phase)[:, None, None]

        return MatrixFamily(1, 1, f, name=f"unwind(s={s})")

    return PathFamily(family_at)


def linear_bridge_path(width: float = 0.05) -> PathFamily:
    """Straight-line interpolation (1-s) f_0 + s f_1 between the endpoints of
    the phase-unwinding family; elliptic (invertible outside a compact set)
    but not invertible throughout.  Raises ValueError unless the width is
    finite and positive."""
    base = phase_unwinding_path(width)
    f0 = base.family_at(0.0)
    f1 = base.family_at(1.0)

    def family_at(s: float) -> MatrixFamily:
        def f(x):
            return (1.0 - s) * f0(x) + s * f1(x)

        return MatrixFamily(1, 1, f, name=f"bridge(s={s})")

    return PathFamily(family_at)
