"""Parametric traces of spectrally explicit operator families.

The operator is the circle operator D with spectrum {n + a : n in Z}
(a not an integer), and a family A(mu) = F(D, mu) holds the offset a with
its symbol.  Scalar symbols F are drawn from a small closed algebra of
monomials c * lam^i * t^j * (lam^2 + t)^{-k} in t = |mu|^2, closed under
products and d/dt, so the mu-derivative families stay analytic; a family's
order is read off its monomials.  The canonical Taylor subtraction at
mu = 0 is algebraic too: the remainder is a kernel whose monomials all
carry the subtracted t power, so it is evaluated without cancellation.
Monomials are evaluated in float64, in place, with integer powers by
multiplication (a negative lam power by division), coefficient last.

Eigenvalue sums run over mirrored pairs n + b and -(n + 1 - b), n = 0..N,
where b = a - ceil(a - 1/2) in (-1/2, 1/2] is the offset reduced once, so
that the window is centred on the eigenvalues nearest 0 for every a.  Each
pair is added before the pairs are summed, so at b = 1/2, where the
spectrum is symmetric, an odd summand cancels to exactly 0.  The shift
n -> n + 1 conjugates D to D + 1 and leaves every trace unchanged, so the
sums depend on a only mod 1: the offsets a and a + 1 give the same bits.
Order-4 Euler-Maclaurin tails correct each sum, and the window
starts at its configured first value (128 by default) or at |mu|/8 when that
is larger, and escalates by factors of 4 until the tail estimate clears
tolerance.  The sums run in bounded blocks: each block of
eigenvalues is generated on its own, and a summand call sees a few
parameter points at a time, so memory does not grow with the window or the
number of points.  Blocks are reduced
in a fixed index order.

Inside ``shared_sums()`` (each experiment run opens it) a repeated sum is
computed once: the same family, Taylor order, window and parameter points
return the stored, read-only arrays.  Outside it nothing is kept.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .errors import OrderError, TruncationError
from .quadrature import RICHARDSON_OFFSETS, gauss_legendre, int_power, richardson_derivative, row_norm

__all__ = [
    "Kernel",
    "KernelMonomial",
    "resolvent",
    "eta_kernel",
    "SpectralFamily",
    "TraceValue",
    "WindowConfig",
    "shared_sums",
    "l2_trace",
    "tr_param",
    "tr_param_values",
    "l2_trace_values",
]


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


@dataclass(frozen=True)
class Kernel:
    """Finite sum of monomials c lam^a t^b (lam^2+t)^{-k}; closed under
    products and d/dt."""

    monomials: tuple[KernelMonomial, ...]

    @property
    def degree(self) -> float:
        """The largest lam_pow + 2 t_pow - 2 res_pow over the monomials with a
        nonzero coefficient (the degree in lam and |mu|); -inf for none."""
        return max((m.lam_pow + 2 * m.t_pow - 2 * m.res_pow for m in self.monomials if m.coef), default=-math.inf)

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
            if m.lam_pow > 0:
                vals *= int_power(lam.copy(), m.lam_pow)
            elif m.lam_pow < 0:
                vals /= int_power(lam.copy(), -m.lam_pow)
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

    def taylor_remainder(self, m: int) -> "Kernel":
        """K minus its Taylor polynomial of degree < m in t, exactly: a
        monomial below t^m splits by (lam^2+t)^{-1} = lam^{-2} - t lam^{-2}
        (lam^2+t)^{-1}, and a part left without a resolvent power is a Taylor
        term and is dropped.  Every monomial of the result carries t^(>= m),
        and the ones of K that already do keep their order."""
        parts = []
        for mono in self.monomials:
            if mono.t_pow >= m:
                parts.append(mono)
            elif mono.res_pow:
                c, a, b, k = mono.coef, mono.lam_pow - 2, mono.t_pow, mono.res_pow
                split = Kernel((KernelMonomial(c, a, b, k - 1), KernelMonomial(-c, a, b + 1, k)))
                parts.extend(split.taylor_remainder(m).monomials)
        return Kernel(tuple(parts))

    def scale(self, c: complex) -> "Kernel":
        return Kernel(tuple(KernelMonomial(m.coef * c, m.lam_pow, m.t_pow, m.res_pow) for m in self.monomials))

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


def resolvent(k: int) -> Kernel:
    """(lam^2+t)^{-k}."""
    return Kernel((KernelMonomial(1.0, 0, 0, k),))


def eta_kernel(k: int) -> Kernel:
    """lam (lam^2+t)^{-k}."""
    return Kernel((KernelMonomial(1.0, 1, 0, k),))


# ---------------------------------------------------------------------------
# Spectral families

# dim M: the circle
DIM_M = 1


@dataclass(frozen=True)
class SpectralFamily:
    """A(mu) = F(D, mu) with F = mu_pref * kernel(lam, |mu|^2), for the
    circle operator D with spectrum {n + a : n in Z}; a must be a finite
    non-integer, so that D is invertible.

    ``pref_power`` multiplies by mu[pref_index]^pref_power (used by the
    analytic mu-derivative families and by odd p = 1 symbols); both are
    non-negative integers.  The order, kernel degree plus pref_power, bounds
    |F| by C (1+|lam|+|mu|)^order.
    """

    a: float
    kernel: Kernel
    _: KW_ONLY
    pref_index: int = 0
    pref_power: int = 0

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"circle model needs a finite offset, got a = {self.a!r}")
        if abs(self.a - round(self.a)) < 1e-12:
            raise ValueError("circle model needs a non-integer offset (invertible operator)")
        for name in ("pref_index", "pref_power"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def order(self) -> float:
        return self.kernel.degree + self.pref_power

    def minimal_taylor_order(self) -> int:
        """The least m >= 0 with order + dim_M < m; 0 for an order of -inf."""
        excess = self.order + DIM_M
        return math.floor(excess) + 1 if excess >= 0 else 0

    def d_mu(self, j: int) -> "SpectralFamily":
        """Analytic mu_j-derivative family (radial kernels only)."""
        if self.pref_power:
            raise NotImplementedError("mu-derivative of a non-radial family")
        return replace(self, kernel=self.kernel.dt().scale(2.0), pref_index=j, pref_power=1)

    def summand(self, lam: np.ndarray, mu: np.ndarray, n_subtract: int) -> np.ndarray:
        """Summand values less their Taylor polynomial of degree < n_subtract
        in mu, shape (M, L) for mu (M, p), lam (L,); float64 when the kernel's
        coefficients are real.  mu^pref_power t^m has degree pref_power + 2m,
        so the kernel keeps its t^(>= m) remainder for the least m with
        pref_power + 2m >= n_subtract."""
        lam = np.asarray(lam, dtype=float)
        mu = np.asarray(mu, dtype=float)
        t = np.sum(mu ** 2, axis=1)[:, None]
        remainder = self.kernel.taylor_remainder(max(0, (n_subtract - self.pref_power + 1) // 2))
        vals = remainder.eval(lam[None, :], t)
        if self.pref_power:
            vals *= (mu[:, self.pref_index] ** self.pref_power)[:, None]
        return vals


# ---------------------------------------------------------------------------
# Windowed eigenvalue sums with Euler-Maclaurin tails


@dataclass(frozen=True)
class WindowConfig:
    """The first and the largest eigenvalue window N (the pairs n + b and
    -(n + 1 - b) for n = 0..N): integers with 1 <= start <= cap.

    ``DEFAULT_WINDOW`` is the library's one window policy, which every
    experiment uses; a caller pins one window N with
    ``WindowConfig(start=N, cap=N)``.  From the default start of 128 the
    window-independence row of ``tr-derivative-check`` reads 5.4e-15 against
    its tolerance of 1e-12 (a start of 64 reads 0.16 of it), and every sum
    that the partial-fraction oracle tests draw is off the exact value by at
    most 0.47 of its tail estimate plus 1e-14 of sum |summand|."""

    start: int = 128
    cap: int = 4_194_304

    def __post_init__(self):
        for name in ("start", "cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"eigenvalue window {name} must be an integer, got {value!r}")
        if self.start < 1:
            raise ValueError("eigenvalue window start must be >= 1")
        if self.cap < self.start:
            raise ValueError(f"eigenvalue window cap {self.cap} is below start {self.start}")


DEFAULT_WINDOW = WindowConfig()
# a window is wide enough when each tail estimate is at most
# max(WINDOW_RTOL |sum|, WINDOW_ATOL)
WINDOW_RTOL = 1e-10
WINDOW_ATOL = 1e-13
# parameter points per window escalation: each chunk escalates on its own
_MU_CHUNK = 1024
# eigenvalues per block, half of them mirrored pairs; the block partial sums
# are added in index order.  A row's sum over a block's pairs is numpy's
# pairwise sum, so this count fixes the bits.  The default first window (258
# eigenvalues) is one block, and so is every window up to N = 4,095; a window
# widened beyond that by escalation or by |mu|/8 takes several
_LAM_BLOCK = 8192
# values (rows x eigenvalues) per summand call: 9 rows of a full eigenvalue
# block, 297 of a 258-eigenvalue first window; a tail call sees at most
# _MU_CHUNK x 75 = 76,800, and a window call no more.  A 1-D shell-loop call
# hands _circle_sum a ladder's nodes (up to 1,008 rows at the precise budget),
# so the cap binds: on spectral-trace (precise, 2-core Xeon, 3 runs) 131,072
# values raised the peak 1.4 MB above that of 48-row calls, 76,800 0.4 MB
_SUMMAND_ELEMENTS = _MU_CHUNK * 75


@dataclass
class TraceValue:
    value: complex
    truncation: dict


# Gauss-Legendre rule on (0, 1) for the tail integral in u = x0 / x
_TAIL_U, _TAIL_W = gauss_legendre(64)
_TAIL_U, _TAIL_W = 0.5 * (_TAIL_U + 1.0), 0.5 * _TAIL_W


def _em_tail(g, x0: float):
    """Order-4 Euler-Maclaurin tail sum_{n >= x0} g(n) = int_{x0}^infty g +
    g(x0)/2 - g'(x0)/12 + g'''(x0)/720, with an error estimate.

    The estimate is twice the first omitted term, g^(5)/30240, plus the g'''
    stencil's own error (hh^2/4) g^(5)/720, with g^(5) from the six-point
    central difference; a round-off floor of 2^-46 (|integral| + |g(x0)|) is
    added.  ``g`` maps a 1-D array of abscissae to values with the abscissae
    on the last axis.  It is called once, at the 64 Gauss-Legendre nodes of
    int_{x0}^infty g (x = x0 / u on (0, 1]) followed by the eleven points of
    the end corrections."""
    hh = max(1.0, x0 / 64.0)
    ends = [0.0] + [0.5 * c for c in RICHARDSON_OFFSETS] + [3 * hh, 2 * hh, hh, -hh, -2 * hh, -3 * hh]
    vals = g(np.concatenate((x0 / _TAIL_U, x0 + np.array(ends))))
    integral = vals[..., : len(_TAIL_U)] @ (_TAIL_W * x0 / _TAIL_U ** 2)
    # g at x0 + ends: x0, the Richardson points, then x0 + 3hh .. x0 - 3hh
    end = vals[..., len(_TAIL_U) :]
    p3, p2, p1, m1, m2, m3 = (end[..., i] for i in range(5, 11))
    g1 = richardson_derivative(lambda c: end[..., 1 + RICHARDSON_OFFSETS.index(c)], 0.5)
    g3 = (p2 - 2 * p1 + 2 * m1 - m2) / (2.0 * hh ** 3)
    g5 = (p3 - 4 * p2 + 5 * p1 - 5 * m1 + 4 * m2 - m3) / (2.0 * hh ** 5)
    tail = integral + 0.5 * end[..., 0] - g1 / 12.0 + g3 / 720.0
    est = 2.0 * np.abs(g5) * (1.0 / 30240.0 + hh ** 2 / 2880.0)
    est += 2.0 ** -46 * (np.abs(integral) + np.abs(end[..., 0]))
    return tail, est


# the eigenvalue sums of the enclosing shared_sums() block; outside one,
# each _circle_sum call gets a fresh dict of its own
_SUMS: ContextVar[dict] = ContextVar("eigenvalue_sums")


@contextmanager
def shared_sums():
    """Within the block, each eigenvalue sum is computed once and reused;
    the store is dropped on exit, so no sum outlives the block."""
    token = _SUMS.set({})
    try:
        yield
    finally:
        _SUMS.reset(token)


def _circle_sum(fam: SpectralFamily, mu: np.ndarray, n_subtract: int, cfg: WindowConfig):
    """Window sums with tails per mu-chunk at the points mu (M, p), or at
    one point (p,); returns the values, the tail estimates (both read-only)
    and the largest window any chunk needed.  The window is centred on the
    offset reduced to b in (-1/2, 1/2] (not by ``round``, whose ties to even
    would give 0.5 and 1.5 different windows), and a chunk's first window is
    at least its largest |mu| / 8; TruncationError when that exceeds the cap.
    Each block of _LAM_BLOCK eigenvalues, the pairs n + b and -(n + c) with
    c = 1 - b, is generated on its own, each pair is added, and the pairs are
    summed per row; the two tails run from n = N + 1 likewise.  At b = 1/2,
    c is b, so the two halves are exact negatives.  Inside shared_sums() a
    repeated call returns the stored result."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    finite = np.isfinite(mu).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"parameter point {row} is not finite: {mu[row].tolist()}")
    key = (fam, n_subtract, cfg, mu.shape, mu.tobytes())
    sums = _SUMS.get({})
    if key in sums:
        return sums[key]
    b = fam.a - math.ceil(fam.a - 0.5)
    c = 1.0 - b
    total = np.zeros(len(mu), dtype=complex)
    est = np.zeros(len(mu))
    widest = 0
    for lo in range(0, len(mu), _MU_CHUNK):
        sl = slice(lo, min(lo + _MU_CHUNK, len(mu)))
        chunk = mu[sl]
        # the summand bends at |lam| ~ |mu|, and beyond |mu| = 8 N the tail
        # integral's nodes miss that knee while its estimate stays small
        with np.errstate(over="ignore"):
            least = float(np.max(row_norm(chunk))) / 8.0
        if least > cfg.cap:
            raise TruncationError(
                f"parameter |mu| = {8.0 * least:.6g} needs an eigenvalue window of at least "
                f"|mu|/8 = {least:.6g}, above the maximum eigenvalue window {cfg.cap}"
            )
        N = max(cfg.start, math.ceil(least))
        while True:
            vals = np.zeros(len(chunk), dtype=complex)
            for lo_n in range(0, N + 1, _LAM_BLOCK // 2):
                n = np.arange(lo_n, min(lo_n + _LAM_BLOCK // 2, N + 1))
                h = len(n)
                lam = np.concatenate((n + b, -(n + c)))
                # row slices: the summand is pointwise, so each row comes out as
                # from one call.  Each call's values are freed before the next
                # call; holding one while the next was made cost about 250
                # minor faults per sum (65,536 values per call)
                rows = max(1, _SUMMAND_ELEMENTS // len(lam))
                for r in range(0, len(chunk), rows):
                    v = fam.summand(lam, chunk[r : r + rows], n_subtract)
                    vals[r : r + rows] += np.sum(v[:, :h] + v[:, h:], axis=1)
                    del v
            x0 = float(N + 1)
            tp, ep = _em_tail(lambda x: fam.summand(x + b, chunk, n_subtract), x0)
            tm, em = _em_tail(lambda x: fam.summand(-(x + c), chunk, n_subtract), x0)
            vals = vals + tp + tm
            errs = ep + em
            ok = errs <= np.maximum(WINDOW_RTOL * np.abs(vals), WINDOW_ATOL)
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
    total.flags.writeable = False
    est.flags.writeable = False
    sums[key] = total, est, widest
    return sums[key]


def _require_trace_class(fam: SpectralFamily) -> None:
    if fam.order + DIM_M >= 0:
        raise OrderError(f"trace-class trace needs order + dim_M < 0, got {fam.order} + {DIM_M}")


def l2_trace_values(fam: SpectralFamily, mu: np.ndarray, cfg: WindowConfig = DEFAULT_WINDOW) -> np.ndarray:
    _require_trace_class(fam)
    vals, _, _ = _circle_sum(fam, mu, 0, cfg)
    return vals


def l2_trace(fam: SpectralFamily, mu, cfg: WindowConfig = DEFAULT_WINDOW) -> TraceValue:
    """Ordinary trace sum_n F(lam_n, mu); requires order + dim_M < 0."""
    _require_trace_class(fam)
    vals, est, window = _circle_sum(fam, mu, 0, cfg)
    return TraceValue(complex(vals[0]), {"window": window, "tail_estimate": float(est[0])})


def tr_param_values(
    fam: SpectralFamily, mu: np.ndarray, cfg: WindowConfig = DEFAULT_WINDOW
) -> np.ndarray:
    """Canonical symbol-valued trace at mu = 0 (Taylor subtraction with the
    minimal order), vectorized over parameter points."""
    n_sub = fam.minimal_taylor_order()
    vals, _, _ = _circle_sum(fam, mu, n_sub, cfg)
    return vals


def tr_param(fam: SpectralFamily, mu, cfg: WindowConfig = DEFAULT_WINDOW) -> TraceValue:
    """The parametric trace: trace of A(mu) minus its Taylor polynomial of
    minimal degree at mu = 0, defined modulo polynomials of degree below the
    ``taylor_order`` in its truncation."""
    n_sub = fam.minimal_taylor_order()
    vals, est, window = _circle_sum(fam, mu, n_sub, cfg)
    return TraceValue(complex(vals[0]), {"window": window, "tail_estimate": float(est[0]), "taylor_order": n_sub})
