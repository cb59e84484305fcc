"""Parametric traces of spectrally explicit operator families.

Supported operators: the circle operator with spectrum {n + a : n in Z}
(a not an integer) and finite "point" models, either an explicit eigenvalue
list or a matrix family over the parameter space.  Scalar symbols F(D, mu)
are drawn from a small closed algebra of monomials
c * lam^a * t^b * (lam^2 + t)^{-k} in t = |mu|^2, which is closed under
products and d/dt, so canonical Taylor subtraction at mu0 = 0 and the
mu-derivative families stay analytic.  Monomials are evaluated in float64, in
place, with integer powers by multiplication and the coefficient applied last.

Eigenvalue sums run over a symmetric window with order-2 Euler-Maclaurin
tail corrections; the window escalates by factors of 4 until the tail
estimate clears tolerance.  Blocks are reduced in a fixed index order.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .asymptotics import (
    DEFAULT_LADDER,
    ExpansionModel,
    RadiusLadder,
    RegularizedValue,
    fit_expansion,
    regint_rp,
    regint_rp_radial,
)
from .errors import OrderError, TruncationError
from .forms import MatrixFamily
from .quadrature import gauss_legendre, int_power, richardson_derivative

__all__ = [
    "hurwitz_zeta",
    "Kernel",
    "KernelMonomial",
    "kernel",
    "parse_kernel",
    "SpectralModel",
    "SpectralFamily",
    "TraceValue",
    "WindowConfig",
    "l2_trace",
    "tr_param",
    "tr_param_values",
    "l2_trace_values",
    "extended_trace",
    "formal_trace",
    "formal_trace_via_regint",
    "trace_expansion_model",
    "family_from_json",
]


# ---------------------------------------------------------------------------
# Hurwitz zeta: Bernoulli polynomials at non-positive integers, Euler-Maclaurin
# with an s-dependent direct sum on Re s >= 0.  The domain limits are where
# the results stay within 1e-12 relative of mpmath (Horner cancellation in
# B_{m+1}(a) for a > 1 grows past m = 20; phase round-off in (n + a)^{-s}
# grows with |Im s|).

_EM_TERMS = 20  # Bernoulli corrections B_2 ... B_40
_EM_RATIO = 0.375  # |s + 2j| / (2 pi x) stays below this, so the remainder is ~0.375^40 ~ 1e-17
HURWITZ_MIN_INTEGER = -20
HURWITZ_MAX_IMAG = 300.0


@functools.lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n, with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, k) * _bernoulli(k) for k in range(n)) / (n + 1)


def _bernoulli_polynomial(n: int, a: float) -> float:
    """B_n(a) by Horner's rule on the exact coefficients C(n, k) B_k.

    a in (1/2, 1] is reflected, B_n(a) = (-1)^n B_n(1 - a) with 1 - a exact,
    so that B_n(1) = B_n comes out exactly (zero for odd n >= 3)."""
    if 0.5 < a <= 1.0:
        return (-1) ** n * _bernoulli_polynomial(n, 1.0 - a)
    acc = 0.0
    for k in range(n + 1):
        acc = acc * a + float(math.comb(n, k) * _bernoulli(k))
    return acc


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s}, continued past Re s <= 1.

    Accepts the integers HURWITZ_MIN_INTEGER <= s <= 0, where
    zeta(-m, a) = -B_{m+1}(a)/(m+1) (exactly 1/2 - a at s = 0), and s != 1
    with Re s >= 0 and |Im s| <= HURWITZ_MAX_IMAG, where a direct sum up to
    x = N + a, the integral, the midpoint and _EM_TERMS Bernoulli corrections
    at x are used, with x chosen from s so that the corrections converge
    geometrically.  Elsewhere ValueError is raised: for Re s < 0 off the
    integers the direct sum would cancel catastrophically.
    """
    if a <= 0:
        raise ValueError("offset a must be positive")
    s = complex(s)
    if s == 1.0:
        raise ValueError("pole at s = 1")
    if s.imag == 0.0 and HURWITZ_MIN_INTEGER <= s.real <= 0.0 and s.real.is_integer():
        n = 1 - int(s.real)
        return complex(-_bernoulli_polynomial(n, a) / n)
    if s.real < 0.0 or abs(s.imag) > HURWITZ_MAX_IMAG:
        raise ValueError(
            f"hurwitz_zeta needs Re s >= 0 and |Im s| <= {HURWITZ_MAX_IMAG:g}, or an integer "
            f"{HURWITZ_MIN_INTEGER} <= s <= 0; got s = {s}"
        )
    N = max(0, math.ceil(abs(s + 2 * _EM_TERMS) / (2.0 * math.pi * _EM_RATIO) - a))
    x = N + a
    total = complex(np.sum((np.arange(N) + a) ** (-s))) + x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    poch = s
    for j in range(1, _EM_TERMS + 1):
        total += float(_bernoulli(2 * j) / math.factorial(2 * j)) * poch * x ** (-s - 2 * j + 1)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
    if s.imag == 0.0:
        return complex(total.real)
    return total


# ---------------------------------------------------------------------------
# Scalar symbol algebra


def _add_scaled(total: np.ndarray | None, vals: np.ndarray, c: complex) -> np.ndarray:
    """total + c * vals for float64 ``vals`` (overwritten); stays float64
    while every coefficient is real."""
    c = complex(c)
    if c.imag:
        vals = c * vals
    elif c.real != 1.0:
        vals *= c.real
    if total is None:
        return vals
    if np.can_cast(vals.dtype, total.dtype):
        total += vals
        return total
    return total + vals


@dataclass(frozen=True)
class KernelMonomial:
    coef: complex
    lam_pow: int
    t_pow: int
    res_pow: int  # (lam^2 + t)^{-res_pow}

    @property
    def homogeneity(self) -> float:
        return self.lam_pow + 2 * self.t_pow - 2 * self.res_pow


@dataclass(frozen=True)
class Kernel:
    """Finite sum of monomials c lam^a t^b (lam^2+t)^{-k}; closed under
    products and d/dt."""

    monomials: tuple[KernelMonomial, ...]

    def eval(self, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
        """K(lam, t), broadcast over lam and t: float64 when every coefficient
        is real, complex otherwise."""
        lam = np.asarray(lam, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(lam.shape, t.shape)
        lam2 = lam * lam
        total = None
        for m in self.monomials:
            if m.res_pow:
                vals = int_power(np.add(lam2, t, out=np.empty(shape)), m.res_pow)
                np.reciprocal(vals, out=vals)
            else:
                vals = np.ones(shape)
            if m.lam_pow:
                vals *= int_power(lam.copy(), m.lam_pow)
            if m.t_pow:
                vals *= int_power(t.copy(), m.t_pow)
            total = _add_scaled(total, vals, m.coef)
        return np.zeros(shape) if total is None else total

    def dt(self) -> "Kernel":
        parts = []
        for m in self.monomials:
            if m.t_pow:
                parts.append(KernelMonomial(m.coef * m.t_pow, m.lam_pow, m.t_pow - 1, m.res_pow))
            if m.res_pow:
                parts.append(KernelMonomial(-m.coef * m.res_pow, m.lam_pow, m.t_pow, m.res_pow + 1))
        return Kernel(tuple(parts))

    def t_coefficient(self, m: int) -> Callable[[np.ndarray], np.ndarray]:
        """g_m with K(lam, t) = sum_m g_m(lam) t^m near t = 0."""
        parts = []
        for mono in self.monomials:
            mp = m - mono.t_pow
            if mp < 0:
                continue
            c = mono.coef
            for i in range(mp):  # binomial series of (lam^2+t)^{-k}
                c *= -(mono.res_pow + i) / (i + 1.0)
            if c != 0:
                parts.append((c, int(mono.lam_pow - 2 * mono.res_pow - 2 * mp)))

        def g(lam):
            lam = np.asarray(lam, dtype=float)
            total = None
            for c, e in parts:
                vals = int_power(lam.copy(), abs(e)) if e else np.ones(lam.shape)
                if e < 0:
                    np.reciprocal(vals, out=vals)
                total = _add_scaled(total, vals, c)
            return np.zeros(lam.shape) if total is None else total

        return g

    @property
    def homogeneity(self) -> float:
        return max((m.homogeneity for m in self.monomials), default=-math.inf)

    def scale(self, c: complex) -> "Kernel":
        return Kernel(tuple(KernelMonomial(m.coef * c, m.lam_pow, m.t_pow, m.res_pow) for m in self.monomials))

    def __add__(self, other: "Kernel") -> "Kernel":
        return Kernel(self.monomials + other.monomials)

    def __mul__(self, other: "Kernel") -> "Kernel":
        out = []
        for m1 in self.monomials:
            for m2 in other.monomials:
                out.append(
                    KernelMonomial(
                        m1.coef * m2.coef,
                        m1.lam_pow + m2.lam_pow,
                        m1.t_pow + m2.t_pow,
                        m1.res_pow + m2.res_pow,
                    )
                )
        return Kernel(tuple(out))


def kernel(name: str, k: int) -> Kernel:
    """Named kernels: resolvent(k) = (lam^2+t)^{-k},
    eta_kernel(k) = lam (lam^2+t)^{-k}, weighted_eta(k) = t^{k-1} lam (lam^2+t)^{-k}."""
    if name == "resolvent":
        return Kernel((KernelMonomial(1.0, 0, 0, k),))
    if name == "eta_kernel":
        return Kernel((KernelMonomial(1.0, 1, 0, k),))
    if name == "weighted_eta":
        return Kernel((KernelMonomial(1.0, 1, k - 1, k),))
    raise KeyError(f"unknown kernel {name!r}")


_KERNEL_RE = re.compile(r"^\s*(\w+)\s*\(\s*(\d+)\s*\)\s*$")


def parse_kernel(spec: str) -> tuple[Kernel, float]:
    """Parse "name(k)" and return the kernel with its natural order."""
    m = _KERNEL_RE.match(spec)
    if not m:
        raise ValueError(f"cannot parse kernel spec {spec!r}")
    k = kernel(m.group(1), int(m.group(2)))
    return k, k.homogeneity


# ---------------------------------------------------------------------------
# Spectral models and families


@dataclass(frozen=True)
class SpectralModel:
    """Operator substrate: circle spectrum {n + a}, or a point model given by
    an explicit eigenvalue list or a direct matrix family."""

    kind: str  # "circle" | "point"
    a: float | None = None
    eigenvalues: tuple[float, ...] | None = None
    operator: MatrixFamily | None = None

    def __post_init__(self):
        if self.kind == "circle":
            if self.a is None or abs(self.a - round(self.a)) < 1e-12:
                raise ValueError("circle model needs a non-integer offset (invertible operator)")
        elif self.kind == "point":
            if self.eigenvalues is None and self.operator is None:
                raise ValueError("point model needs eigenvalues or a matrix family")
        else:
            raise ValueError(f"unknown spectral model kind {self.kind!r}")

    @property
    def dim_m(self) -> int:
        return 1 if self.kind == "circle" else 0

    @classmethod
    def circle(cls, a: float) -> "SpectralModel":
        return cls("circle", a=float(a))

    @classmethod
    def point_spectrum(cls, eigenvalues) -> "SpectralModel":
        return cls("point", eigenvalues=tuple(float(x) for x in eigenvalues))

    @classmethod
    def point_family(cls, operator: MatrixFamily) -> "SpectralModel":
        return cls("point", operator=operator)


@dataclass(frozen=True)
class SpectralFamily:
    """A(mu) = F(D, mu) with F = mu_pref * kernel(lam, |mu|^2).

    ``pref_power`` multiplies by mu[pref_index]^pref_power (used by the
    analytic mu-derivative families and by odd p = 1 symbols).  The declared
    order bounds |F| by C (1+|lam|+|mu|)^order.
    """

    base: SpectralModel
    kernel: Kernel | None
    order: float
    p: int
    clifford_rank: int = 1
    pref_index: int = 0
    pref_power: int = 0

    @property
    def dim_m(self) -> int:
        return self.base.dim_m

    @property
    def is_radial(self) -> bool:
        return self.pref_power == 0

    def minimal_taylor_order(self) -> int:
        return max(0, math.floor(self.order + self.dim_m) + 1)

    def order_consistent(self) -> bool:
        """Sampled check of |F(lam, mu)| <= C (1 + |lam| + |mu|)^order at 64
        seeded points, with C = 50."""
        if self.kernel is None:
            return True
        n_samples, bound = 64, 50.0
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.5, 100.0, n_samples) * rng.choice([-1.0, 1.0], n_samples)
        mu = rng.uniform(0.0, 100.0, (n_samples, self.p))
        vals = np.abs(
            (mu[:, self.pref_index] ** self.pref_power if self.pref_power else 1.0)
            * self.kernel.eval(lam, np.sum(mu ** 2, axis=1))
        )
        weight = (1.0 + np.abs(lam) + np.linalg.norm(mu, axis=1)) ** self.order
        return bool(np.all(vals <= bound * weight))

    def d_mu(self, j: int) -> "SpectralFamily":
        """Analytic mu_j-derivative family (radial kernels only)."""
        if self.kernel is None:
            op = self.base.operator
            return replace(self, base=SpectralModel.point_family(op.partial_family(j)), order=self.order - 1.0)
        if not self.is_radial:
            raise NotImplementedError("mu-derivative of a non-radial family")
        return replace(self, kernel=self.kernel.dt().scale(2.0), order=self.order - 1.0, pref_index=j, pref_power=1)

    def summand(self, lam: np.ndarray, mu: np.ndarray, n_subtract: int) -> np.ndarray:
        """Subtracted summand values, shape (M, L) for mu (M, p), lam (L,);
        float64 when the kernel's coefficients are real."""
        lam = np.asarray(lam, dtype=float)
        mu = np.asarray(mu, dtype=float)
        t = np.sum(mu ** 2, axis=1)[:, None]
        vals = self.kernel.eval(lam[None, :], t)
        m = 0
        while self.pref_power + 2 * m <= n_subtract - 1:
            vals -= t ** m * self.kernel.t_coefficient(m)(lam)
            m += 1
        if self.pref_power:
            vals *= (mu[:, self.pref_index] ** self.pref_power)[:, None]
        return vals

    def scalar_trace(self, mu: np.ndarray, n_subtract: int) -> np.ndarray:
        """Point-model trace (finite spectrum or direct family), shape (M,)."""
        mu = np.asarray(mu, dtype=float)
        if self.base.operator is not None:
            op = self.base.operator
            vals = np.trace(op(mu), axis1=-2, axis2=-1)
            if n_subtract >= 1:
                origin = np.zeros((1, self.p))
                vals = vals - np.trace(op(origin), axis1=-2, axis2=-1)[0]
            if n_subtract >= 2:
                if op.partials is None:
                    raise NotImplementedError("Taylor order >= 2 for a point family needs analytic partials")
                origin = np.zeros((1, self.p))
                for j in range(self.p):
                    dj = np.trace(op.partial_family(j)(origin), axis1=-2, axis2=-1)[0]
                    vals = vals - dj * mu[:, j]
            if n_subtract >= 3:
                raise NotImplementedError("Taylor order >= 3 for point families is not supported")
            return vals
        lam = np.asarray(self.base.eigenvalues, dtype=float)
        return np.sum(self.summand(lam, mu, n_subtract), axis=1)


def family_from_json(data) -> SpectralFamily:
    """Family spec like {"base": {"kind": "circle", "a": 0.25},
    "F": "eta_kernel(2)", "order": -3, "clifford_k": 2, "p": 1}."""
    import json as _json

    if isinstance(data, str):
        data = _json.loads(data)
    base = data["base"]
    if base["kind"] == "circle":
        model = SpectralModel.circle(float(base["a"]))
    elif base["kind"] == "point":
        model = SpectralModel.point_spectrum(base["eigenvalues"])
    else:
        raise ValueError(f"unknown base kind {base['kind']!r}")
    kern, natural_order = parse_kernel(data["F"])
    order = float(data.get("order", natural_order))
    ck = data.get("clifford_k")
    rank = 2 ** (int(ck) - 1) if ck else 1
    return SpectralFamily(model, kern, order, int(data.get("p", 1)), clifford_rank=rank)


# ---------------------------------------------------------------------------
# Windowed eigenvalue sums with Euler-Maclaurin tails


@dataclass(frozen=True)
class WindowConfig:
    start: int = 4096
    cap: int = 1_048_576
    rtol: float = 1e-10
    atol: float = 1e-13
    mu_chunk: int = 1024

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("eigenvalue window start must be >= 1")


DEFAULT_WINDOW = WindowConfig()
# eigenvalues per summand call; the block partial sums are added in index order
_LAM_BLOCK = 8192


@dataclass
class TraceValue:
    value: complex
    ambiguity_degree: int
    truncation: dict = field(default_factory=dict)


# Gauss-Legendre rule on (0, 1) for the tail integral in u = x0 / x
_TAIL_U, _TAIL_W = gauss_legendre(64)
_TAIL_U, _TAIL_W = 0.5 * (_TAIL_U + 1.0), 0.5 * _TAIL_W
_RICHARDSON_OFFSETS = (1.0, -1.0, 0.5, -0.5)  # the order richardson_derivative asks for


def _em_tail(g, x0: float):
    """Order-2 Euler-Maclaurin tail sum_{n >= x0} g(n) with an error estimate
    from the next correction order.

    ``g`` maps a 1-D array of abscissae to values with the abscissae on the
    last axis.  It is called once, at the 64 Gauss-Legendre nodes of
    int_{x0}^infty g (x = x0 / u on (0, 1]) followed by the nine points of
    the end corrections."""
    hh = max(1.0, x0 / 64.0)
    ends = [0.0] + [0.5 * c for c in _RICHARDSON_OFFSETS] + [2 * hh, hh, -hh, -2 * hh]
    vals = g(np.concatenate((x0 / _TAIL_U, x0 + np.array(ends))))
    integral = vals[..., : len(_TAIL_U)] @ (_TAIL_W * x0 / _TAIL_U ** 2)
    end = vals[..., len(_TAIL_U) :]  # g at x0 + ends: x0, the Richardson points, the g''' stencil
    g1 = richardson_derivative(lambda c: end[..., 1 + _RICHARDSON_OFFSETS.index(c)], 0.5)
    g3 = (end[..., 5] - 2 * end[..., 6] + 2 * end[..., 7] - end[..., 8]) / (2.0 * hh ** 3)
    tail = integral + 0.5 * end[..., 0] - g1 / 12.0
    est = np.abs(g3) / 720.0 * 2.0 + 1e-18 * np.abs(integral)
    return tail, est


def _circle_sum(fam: SpectralFamily, mu: np.ndarray, n_subtract: int, cfg: WindowConfig):
    """Window sums with tails per mu-chunk; returns the values, the tail
    estimates and the largest window any chunk needed."""
    a = fam.base.a
    mu = np.asarray(mu, dtype=float)
    total = np.zeros(len(mu), dtype=complex)
    est = np.zeros(len(mu))
    widest = 0
    for lo in range(0, len(mu), cfg.mu_chunk):
        sl = slice(lo, min(lo + cfg.mu_chunk, len(mu)))
        chunk = mu[sl]
        N = cfg.start
        while True:
            n = np.arange(-N, N + 1)
            vals = np.zeros(len(chunk), dtype=complex)
            for b in range(0, len(n), _LAM_BLOCK):
                lam = n[b : b + _LAM_BLOCK] + a
                vals = vals + np.sum(fam.summand(lam, chunk, n_subtract), axis=1)
            x0 = float(N + 1)
            tp, ep = _em_tail(lambda x: fam.summand(x + a, chunk, n_subtract), x0)
            tm, em = _em_tail(lambda x: fam.summand(-x + a, chunk, n_subtract), x0)
            vals = vals + tp + tm
            errs = ep + em
            ok = errs <= np.maximum(cfg.rtol * np.abs(vals), cfg.atol)
            if np.all(ok):
                break
            if N >= cfg.cap:
                raise TruncationError(
                    f"tail estimate {float(np.max(errs)):.3e} above tolerance at the maximum "
                    f"eigenvalue window {cfg.cap}"
                )
            N = min(4 * N, cfg.cap)
        total[sl] = vals
        est[sl] = errs
        widest = max(widest, N)
    return total, est, widest


def _trace_values(fam: SpectralFamily, mu: np.ndarray, n_subtract: int, cfg: WindowConfig):
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 1:
        mu = mu[None, :]
    if fam.base.kind == "point":
        vals = np.asarray(fam.scalar_trace(mu, n_subtract), dtype=complex)
        return fam.clifford_rank * vals, np.zeros(len(mu)), 0
    vals, est, window = _circle_sum(fam, mu, n_subtract, cfg)
    return fam.clifford_rank * vals, fam.clifford_rank * est, window


def l2_trace_values(fam: SpectralFamily, mu: np.ndarray, cfg: WindowConfig = DEFAULT_WINDOW) -> np.ndarray:
    if fam.order + fam.dim_m >= 0:
        raise OrderError(
            f"trace-class trace needs order + dim_M < 0, got {fam.order} + {fam.dim_m}"
        )
    vals, _, _ = _trace_values(fam, mu, 0, cfg)
    return vals


def l2_trace(fam: SpectralFamily, mu, cfg: WindowConfig = DEFAULT_WINDOW) -> TraceValue:
    """Ordinary trace sum_n F(lam_n, mu); requires order + dim_M < 0."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    if fam.order + fam.dim_m >= 0:
        raise OrderError(
            f"trace-class trace needs order + dim_M < 0, got {fam.order} + {fam.dim_m}"
        )
    vals, est, window = _trace_values(fam, mu, 0, cfg)
    return TraceValue(complex(vals[0]), -1, {"window": window, "tail_estimate": float(est[0])})


def tr_param_values(
    fam: SpectralFamily, mu: np.ndarray, cfg: WindowConfig = DEFAULT_WINDOW
) -> np.ndarray:
    """Canonical symbol-valued trace at mu0 = 0 (Taylor subtraction with the
    minimal order), vectorized over parameter points."""
    n_sub = fam.minimal_taylor_order()
    vals, _, _ = _trace_values(fam, mu, n_sub, cfg)
    return vals


def tr_param(fam: SpectralFamily, mu, mu0=0.0, cfg: WindowConfig = DEFAULT_WINDOW) -> TraceValue:
    """The parametric trace: trace of A(mu) minus its Taylor polynomial of
    minimal degree at the star point mu0 = 0, defined modulo polynomials of
    that degree."""
    if np.any(np.asarray(mu0) != 0.0):
        raise NotImplementedError("the canonical representative is anchored at mu0 = 0")
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    n_sub = fam.minimal_taylor_order()
    vals, est, window = _trace_values(fam, mu, n_sub, cfg)
    return TraceValue(
        complex(vals[0]),
        n_sub - 1,
        {"window": window, "tail_estimate": float(est[0]), "taylor_order": n_sub},
    )


# ---------------------------------------------------------------------------
# Extended and formal traces


def trace_expansion_model(order: float, dim_m: int, depth: int = 8) -> ExpansionModel:
    """Default fitted-degree ladder for a trace of the given order:
    degrees order + dim_M - j, with a log slot at nonnegative integers."""
    start = order + dim_m
    terms = []
    for j in range(depth):
        d = start - j
        lmax = 1 if (start >= 0 and d >= -1e-9 and abs(d - round(d)) < 1e-9) else 0
        terms.append((float(d), lmax))
    return ExpansionModel.make(terms)


def extended_trace(
    fam: SpectralFamily,
    model: ExpansionModel,
    ladder: RadiusLadder = DEFAULT_LADDER,
) -> RegularizedValue:
    """Regularized integral over R^p of the parametric trace.

    The polynomial ambiguity of the trace is harmless here: the regularized
    integral of a polynomial vanishes, so the result carries none.
    """
    p = fam.p

    if fam.is_radial and p >= 2 and fam.base.kind == "circle":
        def g(r):
            pts = np.zeros((len(r), p))
            pts[:, 0] = r
            return tr_param_values(fam, pts)

        return regint_rp_radial(g, model, p, ladder)

    return regint_rp(lambda x: tr_param_values(fam, x), model, p, ladder)


def formal_trace(
    fam: SpectralFamily,
    j: int,
    model: ExpansionModel,
) -> complex:
    """Formal trace of omega = (-1)^{j-1} A dmu_1 ^ ... (dmu_j omitted) ... ^ dmu_p,
    with j counted from 1.

    Symbolic route: the sphere integral of the degree (1-p) homogeneous
    coefficient of the parametric trace of A itself against mu_j.  The
    polynomial ambiguity cannot reach this coefficient (degree 1-p <= 0, and
    a constant integrates to zero against mu_j), so the value is canonical.
    """
    p = fam.p
    fitted = fit_expansion(lambda x: tr_param_values(fam, x), model, p)
    want = 1.0 - float(p)
    return fitted.integrate_coefficient(want, 0, fitted.rule.points[:, j - 1])


def formal_trace_via_regint(
    fam: SpectralFamily,
    j: int,
    model_of_derivative: ExpansionModel,
    n_radial: int = 32,
) -> complex:
    """Cross-route for the formal trace: the regularized integral of the
    parametric trace of the mu_j-derivative family (the exterior-derivative
    definition unwound on the top form)."""
    dfam = fam.d_mu(j - 1)
    return regint_rp(lambda x: tr_param_values(dfam, x), model_of_derivative, fam.p, n_radial=n_radial).value
