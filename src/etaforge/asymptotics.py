"""Log-polyhomogeneous expansions and regularized integrals.

A function on a cone is described by a declared ladder of (degree, max log
power) terms; coefficients are recovered by least squares against the basis
r^alpha log^l r on a geometric radius ladder.  The regularized integral is
the constant term in the fitted expansion of the cumulative integral
int_{|x|<=R}: on the half-line the finite part is taken at both endpoints.

Blind exponent detection is deliberately not attempted; the caller always
declares the expansion model.

The built-in scalar families are plain functions that return an evaluator
of (M, p) arrays: ``power_log(alpha)``, ``lorentz()``, ``polynomial(coeffs)``,
``sign_step()`` and ``coordinate_power(q, j=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FitError, MissingCoefficientError
from .quadrature import (
    SphereRule,
    cumulative_ball,
    cumulative_halfline_in,
    cumulative_halfline_out,
    cumulative_radial,
    fd_step,
    geometric_ladder,
    int_power,
    richardson_derivative,
    row_norm,
    sample_points,
    sphere_rule,
)

__all__ = [
    "ExpansionModel",
    "FittedExpansion",
    "RegularizedValue",
    "RadiusLadder",
    "smooth_cutoff",
    "smooth_step",
    "fit_expansion",
    "fit_expansion_samples",
    "regint_rp",
    "regint_rp_radial",
    "regint_halfline",
    "mellin_reg",
    "cov_correction",
    "stokes_defect",
    "power_log",
    "lorentz",
    "polynomial",
    "sign_step",
    "coordinate_power",
]


# ---------------------------------------------------------------------------
# Expansion models and fit results


@dataclass(frozen=True)
class ExpansionModel:
    """Declared ladder of asymptotic terms (degree, max log power).

    Degrees are strictly decreasing and every true term below
    ``remainder_degree`` is absorbed into the remainder.  A model attached to
    the zero end of the half-line describes f(1/u) as u -> infinity, i.e. its
    degrees are the negated x-degrees (see ``at_zero``).
    """

    terms: tuple[tuple[float, int], ...]
    remainder_degree: float

    def __post_init__(self):
        degs = [t[0] for t in self.terms]
        if any(degs[i] <= degs[i + 1] for i in range(len(degs) - 1)):
            raise ValueError("degrees must be strictly decreasing")
        if any(t[1] < 0 for t in self.terms):
            raise ValueError("log powers must be nonnegative")
        if self.terms and self.remainder_degree >= min(degs):
            raise ValueError("remainder_degree must lie below every listed degree")

    @classmethod
    def make(cls, terms: Sequence[tuple[float, int]], remainder: float | None = None) -> "ExpansionModel":
        terms = tuple((float(d), int(l)) for d, l in terms)
        if remainder is None:
            remainder = (min(d for d, _ in terms) if terms else 0.0) - 1.0
        return cls(terms, float(remainder))

    @classmethod
    def powers(cls, degrees: Sequence[float], remainder: float | None = None) -> "ExpansionModel":
        return cls.make([(d, 0) for d in degrees], remainder)

    @classmethod
    def at_zero(cls, terms_in_x: Sequence[tuple[float, int]]) -> "ExpansionModel":
        """Model of f near 0 given x-degrees; stored in the reflected u = 1/x
        convention so the decreasing-degree invariant holds, with the
        remainder one degree below the last term."""
        terms = sorted(((-float(d), int(l)) for d, l in terms_in_x), key=lambda t: -t[0])
        return cls(tuple(terms), (min(d for d, _ in terms) if terms else 0.0) - 1.0)

    @property
    def degrees(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.terms)

    def derivative(self) -> "ExpansionModel":
        """Model of a first partial: every degree drops by one."""
        return ExpansionModel(tuple((d - 1.0, l) for d, l in self.terms), self.remainder_degree - 1.0)

    def expanded_terms(self) -> list[tuple[float, int]]:
        """All (degree, logpow) pairs with logpow running 0..max."""
        out = []
        for d, lmax in self.terms:
            out.extend((d, l) for l in range(lmax + 1))
        return out


@dataclass
class FittedExpansion:
    """Least-squares coefficients of a fit against a power-log basis.

    ``coefficients`` maps (degree, logpow) to per-direction samples at the
    points of ``rule``; for radial fits the arrays have length one and
    ``rule`` is None.
    """

    coefficients: dict[tuple[float, int], np.ndarray]
    residual: float
    valid: bool
    condition_number: float
    rule: SphereRule | None = None

    def coefficient(self, degree: float, logpow: int = 0) -> np.ndarray:
        key = (float(degree), int(logpow))
        if key not in self.coefficients:
            raise MissingCoefficientError(f"no fitted coefficient at degree {degree}, log power {logpow}")
        return self.coefficients[key]

    def integrate_coefficient(self, degree: float, logpow: int, factor: np.ndarray) -> complex:
        """Sphere integral of the angular coefficient times a factor sampled
        at the fit directions."""
        if self.rule is None:
            raise MissingCoefficientError("fit carries no sphere rule")
        return complex(np.sum(self.rule.weights * self.coefficient(degree, logpow) * factor))


@dataclass
class RegularizedValue:
    """A regularized integral together with its extraction diagnostics."""

    value: complex
    diagnostics: object = None


@dataclass(frozen=True)
class RadiusLadder:
    r_min: float = 4.0
    r_max: float = 65536.0
    count: int = 24

    def radii(self) -> np.ndarray:
        return geometric_ladder(self.r_min, self.r_max, self.count)


DEFAULT_LADDER = RadiusLadder()

# fit policy: a relative residual above RESIDUAL_THRESHOLD marks a fit
# invalid, a condition number above CONDITION_LIMIT raises, and NOISE_EPS
# scales the per-row noise floor of the weights
RESIDUAL_THRESHOLD = 1e-6
CONDITION_LIMIT = 1e10
NOISE_EPS = 4e-16
# deviations below this absolute scale are treated as zero, so fitting data
# that cancels to pure rounding noise is not flagged invalid
ZERO_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Smooth cutoff


def smooth_step(u):
    """C^inf step: 0 for u <= 0, 1 for u >= 1, exp-based in between."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    ga = np.exp(-1.0 / um)
    gb = np.exp(-1.0 / (1.0 - um))
    out[mid] = ga / (ga + gb)
    return out


def smooth_cutoff(t):
    """chi(t): 0 on [0, 1/2], 1 on [1, inf), fixed C^inf ramp in between.

    Every built-in test function that is homogeneous for |x| >= 1 uses this
    cutoff, so regularized constants are reproducible across runs.  The
    values are those of ``smooth_step((t - 0.5) / 0.5)``; the ramp is only
    evaluated where 1/2 < t < 1.
    """
    t = np.asarray(t, dtype=float)
    out = np.array(t >= 1.0, dtype=float)
    ramp = (t > 0.5) & (t < 1.0)
    if ramp.any():
        out[ramp] = smooth_step((t[ramp] - 0.5) / 0.5)
    return out


def smooth_cutoff_derivative(t):
    """chi'(t) from the closed form of smooth_step's derivative: with u = 2t - 1
    on the ramp, 2 g_a g_b (u^-2 + (1-u)^-2) / (g_a + g_b)^2; 0 elsewhere."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    ramp = (t > 0.5) & (t < 1.0)
    u = 2.0 * t[ramp] - 1.0
    ga, gb = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    out[ramp] = 2.0 * ga * gb * (1.0 / u ** 2 + 1.0 / (1.0 - u) ** 2) / (ga + gb) ** 2
    return out


# ---------------------------------------------------------------------------
# Weighted least squares against a power-log basis


def _basis_label(e, l) -> str:
    e = complex(e)
    es = f"{e.real:g}" if abs(e.imag) < 1e-14 else f"{e.real:g}{e.imag:+g}i"
    if abs(e) < 1e-14 and l == 0:
        return "1"
    core = f"x^{es}" if abs(e) >= 1e-14 else ""
    logp = f"log^{l}" if l else ""
    return (core + (" " if core and logp else "") + logp) or "1"


def _dedupe_basis(entries):
    seen, out = set(), []
    for e, l in entries:
        key = (round(complex(e).real, 12), round(complex(e).imag, 12), int(l))
        if key not in seen:
            seen.add(key)
            out.append((complex(e), int(l)))
    return out


def primitive_basis(terms: Sequence[tuple[complex, int]], shift: float) -> list[tuple[complex, int]]:
    """Fit basis for a cumulative integral whose integrand has the given
    (degree, logpow) terms: exponents shift by ``shift`` and a degree hitting
    zero escalates into one more log power.  The constant is always included.
    """
    entries: list[tuple[complex, int]] = [(0.0, 0)]
    for d, lmax in terms:
        e = complex(d) + shift
        for l in range(int(lmax) + 1):
            if abs(e) < 1e-12:
                entries.append((0.0, l + 1))
            else:
                entries.append((e, l))
    return _dedupe_basis(entries)


def _weighted_power_fit(xs, ys, basis, noise_floor):
    """Solve ys ~ sum c_b x^e log^l x with per-row relative weighting.

    ``noise_floor`` is an absolute-scale accumulation per row; rows whose
    value cancels below their own noise are not over-trusted.
    ys is (n, m): a shared design with m right-hand sides.
    """
    xs = np.asarray(xs, dtype=float)
    Y = np.asarray(ys, dtype=complex)
    logx = np.log(xs)
    cols = [xs.astype(complex) ** e * logx ** l for e, l in basis]
    M = np.stack(cols, axis=1)

    scale = float(np.max(np.abs(Y)))
    row_mag = np.max(np.abs(Y), axis=1)
    nf = NOISE_EPS * np.asarray(noise_floor, dtype=float)
    # the floor only guards identically-zero data against overflowing
    # weights; anything data-dependent here would drown the small-radius
    # rows that anchor the constant term
    floor = max(NOISE_EPS * ZERO_FLOOR, 1e-280)
    w = 1.0 / np.maximum(row_mag + nf, floor)
    Mw = M * w[:, None]
    cn = np.linalg.norm(Mw, axis=0)
    cn[cn == 0.0] = 1.0
    Mn = Mw / cn[None, :]
    cond = float(np.linalg.cond(Mn))
    if cond > CONDITION_LIMIT:
        gram = np.abs(Mn.conj().T @ Mn)
        np.fill_diagonal(gram, 0.0)
        i, j = np.unravel_index(np.argmax(gram), gram.shape)
        raise FitError(
            "ill-conditioned fit basis (condition number "
            f"{cond:.2e} > {CONDITION_LIMIT:.0e}); nearest-degenerate term pair: "
            f"{_basis_label(*basis[i])} ~ {_basis_label(*basis[j])}"
        )
    coeff, *_ = np.linalg.lstsq(Mn, Y * w[:, None], rcond=None)
    coeff = coeff / cn[:, None]
    fitted = M @ coeff
    resid = float(np.max(np.abs(fitted - Y)) / max(scale, ZERO_FLOOR))
    return coeff, resid, cond


def _require_valid(fitted: FittedExpansion, what: str):
    if not fitted.valid:
        raise FitError(f"{what}: relative fit residual {fitted.residual:.3e} exceeds threshold {RESIDUAL_THRESHOLD:.0e}")


def _fit(xs, ys, basis, noise_floor, rule: SphereRule | None = None) -> FittedExpansion:
    """Every FittedExpansion is made here: ys (n, m) against ``basis`` on the
    radii xs, with m = 1 for a radial fit or one column per direction of
    ``rule``."""
    if not basis:
        raise FitError("the expansion model has no terms to fit")
    if len(xs) < 2 * len(basis):
        raise FitError(f"radius ladder too short: {len(xs)} radii for {len(basis)} basis terms")
    bad = np.argwhere(~np.isfinite(ys))
    if len(bad):
        i, j = bad[0]
        raise FitError(f"non-finite fit data: {ys[i, j]} at radius {xs[i]:.6g} (row {i}), column {j}")
    # called through the module global, which the benchmark's tracer rebinds
    coeff, resid, cond = _weighted_power_fit(xs, ys, basis, noise_floor)
    return FittedExpansion(
        coefficients={(float(e.real) if abs(e.imag) < 1e-14 else e, l): c for (e, l), c in zip(basis, coeff)},
        residual=resid,
        valid=resid <= RESIDUAL_THRESHOLD,
        condition_number=cond,
        rule=rule,
    )


def _lim_fit(xs, ys, abs_ys, terms, shift) -> tuple[complex, FittedExpansion]:
    """LIM of a cumulative integral: the constant term of its fit against the
    primitive basis of the integrand's terms."""
    fitted = _fit(xs, np.asarray(ys)[:, None], primitive_basis(terms, shift), abs_ys)
    return complex(fitted.coefficients[(0.0, 0)][0]), fitted


# ---------------------------------------------------------------------------
# Expansion fitting at infinity


def fit_expansion(
    f: Callable[[np.ndarray], np.ndarray],
    model: ExpansionModel,
    p: int,
    radii: np.ndarray | RadiusLadder = DEFAULT_LADDER,
    directions: SphereRule | None = None,
) -> FittedExpansion:
    """Fit per-direction coefficients of f against the declared model.

    f maps an (M, p) array to real or complex (M,) values; the sample set is
    ``sample_points`` of the radius ladder with a sphere rule on S^{p-1}.
    """
    rr = radii.radii() if isinstance(radii, RadiusLadder) else np.asarray(radii, dtype=float)
    rule = directions if directions is not None else sphere_rule(p)
    vals = np.asarray(f(sample_points(rr, rule)), dtype=complex).reshape(len(rr), len(rule.points))
    return fit_expansion_samples(rr, vals, model, rule)


def fit_expansion_samples(
    radii: np.ndarray,
    values: np.ndarray,
    model: ExpansionModel,
    directions: SphereRule,
) -> FittedExpansion:
    """Fit from tabulated samples values[i_radius, i_direction]; raises
    ValueError unless values is (len(radii), len(directions.points))."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.shape != (len(radii), len(directions.points)):
        raise ValueError(
            f"samples must be (radii, directions) = ({len(radii)}, {len(directions.points)}), got {values.shape}"
        )
    floor = np.full(len(radii), float(np.max(np.abs(values))) if values.size else 0.0)
    return _fit(radii, values, _dedupe_basis(model.expanded_terms()), floor, directions)


# ---------------------------------------------------------------------------
# Regularized integrals


def regint_rp(
    f: Callable[[np.ndarray], np.ndarray],
    model: ExpansionModel,
    p: int,
    ladder: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
    n_radial: int = 32,
) -> RegularizedValue | list[RegularizedValue]:
    """Regularized integral over R^p: the constant term in the fitted
    expansion of int_{|x|<=R} f as R -> infinity.

    An f with (M, K) values integrates K integrands in one pass of the shell
    loop and returns a list of K values: each column gets its own fit, in
    column order, and is bit for bit the value of its one-column run."""
    rr = ladder.radii()
    rule = sphere if sphere is not None else sphere_rule(p)
    ivals, avals = cumulative_ball(f, p, rr, rule, n_radial)
    regs = []
    for iv, av in zip(ivals.reshape(len(rr), -1).T, avals.reshape(len(rr), -1).T):
        const, fitted = _lim_fit(rr, iv, av, model.expanded_terms(), p)
        _require_valid(fitted, "regint_rp")
        regs.append(RegularizedValue(const, fitted))
    return regs if ivals.ndim > 1 else regs[0]


def regint_rp_radial(
    g: Callable[[np.ndarray], np.ndarray],
    model: ExpansionModel,
    p: int,
    ladder: RadiusLadder = DEFAULT_LADDER,
    n_radial: int = 32,
) -> RegularizedValue:
    """regint_rp for a radial integrand g(|x|); the sphere factor is exact."""
    rr = ladder.radii()
    ivals, avals = cumulative_radial(g, p, rr, n_radial)
    const, fitted = _lim_fit(rr, ivals, avals, model.expanded_terms(), p)
    _require_valid(fitted, "regint_rp_radial")
    return RegularizedValue(const, fitted)


def _halfline_both_ends(g, terms_at_zero, terms_at_inf, ladder, ladder_zero, n_radial) -> RegularizedValue:
    """Finite part of int_0^inf g from the fits of its cumulative integrals
    at both ends, with both fits and both limits as diagnostics."""
    rr = ladder.radii()
    uu = (ladder_zero or ladder).radii()

    def g_arr(x):
        vals = np.asarray(g(np.asarray(x, dtype=float)))
        if not np.all(np.isfinite(vals)):
            raise FitError("non-finite integrand samples on the half-line")
        return vals

    jvals, javals = cumulative_halfline_out(g_arr, rr, n_radial)
    lim_inf, fit_inf = _lim_fit(rr, jvals, javals, terms_at_inf, 1.0)
    kvals, kavals = cumulative_halfline_in(g_arr, uu, n_radial)
    lim_zero, fit_zero = _lim_fit(uu, kvals, kavals, terms_at_zero, -1.0)
    _require_valid(fit_inf, "regint_halfline (infinity end)")
    _require_valid(fit_zero, "regint_halfline (zero end)")
    return RegularizedValue(
        lim_zero + lim_inf,
        {"zero_end": fit_zero, "infinity_end": fit_inf, "limit_zero": lim_zero, "limit_inf": lim_inf},
    )


def regint_halfline(
    f: Callable[[np.ndarray], np.ndarray],
    model_at_0: ExpansionModel,
    model_at_inf: ExpansionModel,
    ladder: RadiusLadder = DEFAULT_LADDER,
    n_radial: int = 32,
    ladder_zero: RadiusLadder | None = None,
) -> RegularizedValue:
    """Finite-part integral over (0, inf): LIM of int_a^1 as a -> 0 plus LIM
    of int_1^b as b -> infinity.

    ``model_at_0`` follows the reflected u = 1/x convention (see
    ExpansionModel.at_zero); f maps a positive float array to real or complex
    values.
    ``ladder_zero`` indexes the zero end by u = 1/a; push its start past any
    finite convergence radius of the declared expansion.
    """
    return _halfline_both_ends(
        f, model_at_0.expanded_terms(), model_at_inf.expanded_terms(), ladder, ladder_zero, n_radial
    )


def mellin_reg(
    f: Callable[[np.ndarray], np.ndarray],
    s: complex,
    model_at_0: ExpansionModel,
    model_at_inf: ExpansionModel,
    ladder: RadiusLadder = DEFAULT_LADDER,
    n_radial: int = 32,
    ladder_zero: RadiusLadder | None = None,
) -> RegularizedValue:
    """Regularized Mellin transform: finite part of int_0^inf x^{s-1} f(x) dx.

    The declared models describe f itself; the power shift by s-1 is applied
    internally (complex s produces complex fit exponents).  At regular points
    of the meromorphic continuation this equals the continued value; the
    convention at a pole is the constant Laurent term.  The diagnostics are
    those of ``regint_halfline``: both ends' fits of the shifted integrand
    and the two limits that sum to the value.
    """
    s = complex(s)

    def g(x):
        return np.asarray(x, dtype=complex) ** (s - 1.0) * np.asarray(f(x), dtype=complex)

    shift = s - 1.0
    terms_inf = [(complex(d) + shift, l) for d, l in model_at_inf.expanded_terms()]
    terms_zero = [(complex(d) - shift, l) for d, l in model_at_0.expanded_terms()]
    return _halfline_both_ends(g, terms_zero, terms_inf, ladder, ladder_zero, n_radial)


# ---------------------------------------------------------------------------
# Change of variables and the Stokes defect


@dataclass
class ComparisonPair:
    lhs: complex
    rhs: complex
    correction: complex = 0.0


def cov_correction(
    f: Callable[[np.ndarray], np.ndarray],
    A: np.ndarray,
    model: ExpansionModel,
    p: int,
    ladder: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
    n_radial: int = 32,
) -> ComparisonPair:
    """Both sides of the linear change-of-variables identity.

    lhs is the regularized integral of x -> f(Ax); rhs is
    |det A|^{-1} (regint f + sum_l (-1)^{l+1}/(l+1) *
    int_{S^{p-1}} f_{-p,l}(xi) log^{l+1}|A^{-1} xi| dvol); the correction
    term needs the fitted degree -p angular coefficients.
    """
    A = np.asarray(A, dtype=float).reshape(p, p)
    det = float(np.linalg.det(A))
    if det == 0.0:
        raise ValueError("matrix must be invertible")
    if -float(p) not in model.degrees:
        raise MissingCoefficientError(
            f"change-of-variables correction needs degree {-p} in the declared model"
        )
    rule = sphere if sphere is not None else sphere_rule(p)
    fitted = fit_expansion(f, model, p, radii=ladder, directions=rule)

    lhs = regint_rp(lambda x: f(x @ A.T), model, p, ladder, rule, n_radial).value
    base = regint_rp(f, model, p, ladder, rule, n_radial).value

    Ainv = np.linalg.inv(A)
    lognorm = np.log(np.linalg.norm(rule.points @ Ainv.T, axis=1))
    lmax = dict(model.terms)[-float(p)]
    corr = 0.0 + 0.0j
    for l in range(lmax + 1):
        corr += ((-1.0) ** (l + 1) / (l + 1)) * fitted.integrate_coefficient(-float(p), l, lognorm ** (l + 1))
    rhs = (base + corr) / abs(det)
    return ComparisonPair(lhs, rhs, corr / abs(det))


def _fd_partial(f, j):
    """Central difference with one Richardson pass, step scaled by 1 + |x|:
    each stencil offset shifts column j of a fresh copy of x by c h, so f
    may return a view of its input and the caller's x is never written."""

    def df(x):
        x = np.asarray(x, dtype=float)
        h = fd_step(x)

        def at(c):
            y = x.copy()
            y[:, j] += c * h
            return f(y)

        return richardson_derivative(at, h)

    return df


def stokes_defect(
    f: Callable[[np.ndarray], np.ndarray],
    j: int,
    model: ExpansionModel,
    p: int,
    ladder: RadiusLadder = DEFAULT_LADDER,
    sphere: SphereRule | None = None,
    n_radial: int = 32,
) -> ComparisonPair:
    """Both sides of the boundary-defect identity for d/dx_j (0-based j).

    lhs is the regularized integral of the j-th partial of f; rhs is the
    sphere integral of the degree (1-p, 0) angular coefficient of f times
    xi_j.  The partial is a central difference with one Richardson pass.
    Equality is what makes the defect purely symbolic.
    """
    rule = sphere if sphere is not None else sphere_rule(p)
    fitted = fit_expansion(f, model, p, radii=ladder, directions=rule)
    want = 1.0 - float(p)
    if want not in model.degrees:
        raise MissingCoefficientError(f"stokes defect needs degree {want} in the declared model")
    lhs = regint_rp(_fd_partial(f, j), model.derivative(), p, ladder, rule, n_radial).value
    rhs = fitted.integrate_coefficient(want, 0, rule.points[:, j])
    return ComparisonPair(lhs, rhs)


# ---------------------------------------------------------------------------
# Built-in scalar families: each returns an evaluator that maps an (M, p)
# array to real (M,) float64 values


def power_log(alpha) -> Callable[[np.ndarray], np.ndarray]:
    """smooth_cutoff(|x|) |x|^alpha, and 0.0 on rows whose |x| is not > 0
    (NaN included)."""
    alpha = float(alpha)

    def f(x):
        r = row_norm(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = smooth_cutoff(r)
            out *= r ** alpha
        out[~(r > 0)] = 0.0
        return out

    return f


def lorentz() -> Callable[[np.ndarray], np.ndarray]:
    """1 / (1 + |x|^2)."""
    return lambda x: 1.0 / (1.0 + row_norm(x) ** 2)


def polynomial(coeffs) -> Callable[[np.ndarray], np.ndarray]:
    """The sum of c |x|^k x_1^m over the (c, k, m) of ``coeffs``; ValueError
    unless each m is a nonnegative integer."""
    coeffs = tuple(coeffs)
    if not all(float(m).is_integer() and m >= 0 for _, _, m in coeffs):
        raise ValueError("polynomial powers m of x_1 must be nonnegative integers")

    def f(x):
        r = row_norm(x)
        out = np.zeros(len(r))
        for c, k, m in coeffs:
            term = c * r ** k
            if m:
                term *= int_power(x[:, 0].copy(), int(m))
            out += term
        return out

    return f


def sign_step() -> Callable[[np.ndarray], np.ndarray]:
    """smooth_cutoff(|x_0|) sign(x_0)."""

    def f(x):
        t = np.asarray(x, dtype=float)[:, 0]
        return smooth_cutoff(np.abs(t)) * np.sign(t)

    return f


def coordinate_power(q, j=0) -> Callable[[np.ndarray], np.ndarray]:
    """smooth_cutoff(|x|) x_j |x|^-q, and 0.0 on rows whose |x| is not > 0
    (NaN included)."""
    j = int(j)
    q = float(q)

    def f(x):
        r = row_norm(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = smooth_cutoff(r)
            out *= x[:, j]
            out *= r ** (-q)
        out[~(r > 0)] = 0.0
        return out

    return f
