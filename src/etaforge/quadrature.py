"""Deterministic quadrature building blocks.

Radial integrals are composed from Gauss-Legendre panels laid out on a
geometric shell ladder.  ``sphere_rule`` is the one sampler of the spheres
S^0..S^3 (endpoints for S^0, trapezoid on S^1, Gauss-Legendre x trapezoid on
S^2, double Gauss-Legendre x trapezoid in hyperspherical coordinates on S^3),
with one resolution check and one default table, and ``sample_points`` the
one grid of radii times a rule's directions.
Every shell-panel sum is exact and correctly rounded (``exact_sum``: integer
limbs binned per binary exponent, bit for bit the value of ``math.fsum``), so
the cumulative integrals do not depend on summation order; the remaining
reductions run in a fixed index order.  Real integrand values stay float64
through the loop; complex ones are summed by real and imaginary part.
``row_norm`` is the Euclidean norm of short rows, ``int_power`` the integer
power by repeated squaring, and ``richardson_derivative`` the one
first-derivative stencil of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def geometric_ladder(r_min: float, r_max: float, count: int) -> np.ndarray:
    if not (0 < r_min < r_max) or count < 2:
        raise ValueError("ladder requires 0 < r_min < r_max and count >= 2")
    return np.exp(np.linspace(math.log(r_min), math.log(r_max), count))


def sphere_surface(p: int) -> float:
    """Surface measure of S^{p-1} in R^p."""
    return 2.0 * math.pi ** (p / 2.0) / math.gamma(p / 2.0)


@dataclass(frozen=True)
class SphereRule:
    """Point set on S^{p-1} with weights summing to the sphere surface."""

    p: int
    points: np.ndarray  # (M, p) unit vectors
    weights: np.ndarray  # (M,)


# sphere_rule's default resolution on S^{p-1}, keyed by p: points on S^1,
# (cos-theta nodes, azimuths) on S^2, (psi nodes, theta nodes, azimuths) on S^3
SPHERE_RESOLUTION = {1: (), 2: (128,), 3: (24, 48), 4: (48, 48, 96)}


def _is_count(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def _resolution(p: int, resolution) -> tuple[int, ...]:
    """The resolution of ``sphere_rule(p, resolution)`` as p - 1 positive
    integers; ValueError for anything else."""
    if p not in SPHERE_RESOLUTION:
        raise ValueError(f"sphere_rule supports p in 1..4, got {p}")
    if resolution is None:
        return SPHERE_RESOLUTION[p]
    if _is_count(resolution) and p <= 3:
        resolution = ((), (resolution,), (resolution, 2 * resolution))[p - 1]
    if not (isinstance(resolution, (tuple, list)) and len(resolution) == p - 1 and all(map(_is_count, resolution))):
        raise ValueError(f"a resolution on S^{p - 1} is {p - 1} positive integers, got {resolution!r}")
    return tuple(resolution)


def _azimuths(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid rule on [0, 2 pi): n equally spaced angles, equal weights."""
    return 2.0 * math.pi * np.arange(n) / n, np.full(n, 2.0 * math.pi / n)


def _polar(n: int, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, pi]: n angles, their weights times sin^power."""
    x, w = gauss_legendre(n)
    angles = 0.5 * math.pi * (x + 1.0)
    return angles, 0.5 * math.pi * w * np.sin(angles) ** power


def sphere_rule(p: int, resolution=None) -> SphereRule:
    """Quadrature on S^{p-1} for p in 1..4: the one sphere sampler.

    ``resolution`` is p - 1 positive integers, None for the default of
    ``SPHERE_RESOLUTION``; an int n is n points on S^1 and (n, 2n) on S^2,
    and S^0 is its two points at any n.  Anything else raises ValueError.

    S^1 is the trapezoid rule, S^2 Gauss-Legendre in cos(theta) times the
    trapezoid in the azimuth, and S^3 hyperspherical coordinates (cos psi,
    sin psi cos theta, sin psi sin theta (cos phi, sin phi)) with
    Gauss-Legendre in psi and theta, the weights carrying the density
    sin(psi)^2 sin(theta).  The weights are the surface measure, so a top
    form sum_j c_{I_j} dx_{I_j} (I_j omitting j) integrates over the
    outward-oriented sphere to sum_j (-1)^j sum w xi_j c_{I_j}.
    """
    res = _resolution(p, resolution)
    if p == 1:
        return SphereRule(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if p == 2:
        th, w = _azimuths(*res)
        return SphereRule(2, np.stack([np.cos(th), np.sin(th)], axis=1), w)
    if p == 3:
        n_t, n_ph = res
        t, wt = gauss_legendre(n_t)  # t = cos(theta)
        ph, wph = _azimuths(n_ph)
        T, PH = np.meshgrid(t, ph, indexing="ij")
        ST = np.sqrt(1.0 - T ** 2)
        pts = np.stack([ST * np.cos(PH), ST * np.sin(PH), T], axis=-1).reshape(-1, 3)
        return SphereRule(3, pts, (wt[:, None] * wph[None, :]).ravel())
    n1, n2, n3 = res
    psi, wpsi = _polar(n1, 2)
    th, wth = _polar(n2, 1)
    ph, wph = _azimuths(n3)
    PS, TH, PH = np.meshgrid(psi, th, ph, indexing="ij")
    W = (wpsi[:, None, None] * wth[None, :, None] * wph[None, None, :]).ravel()
    s, t, f = PS.ravel(), TH.ravel(), PH.ravel()
    X = np.stack(
        [np.cos(s), np.sin(s) * np.cos(t), np.sin(s) * np.sin(t) * np.cos(f), np.sin(s) * np.sin(t) * np.sin(f)],
        axis=1,
    )
    return SphereRule(4, X, W)


def sphere_chart(d: int, resolution=None) -> SphereRule:
    """``sphere_rule(d + 1, resolution)``, the rule on S^d.  Nothing in the
    package calls it: it stays because ``perfbench/tracer.py`` wraps it by
    name."""
    return sphere_rule(d + 1, resolution)


def coarser_chart_resolution(d: int, resolution) -> tuple[int, ...]:
    """Two thirds of the resolution of ``sphere_rule(d + 1, resolution)``,
    at least 6 nodes per polar angle and 8 azimuths: the coarse level of a
    two-level error estimate on S^d, d >= 1."""
    *polar, n_az = _resolution(d + 1, resolution)
    return tuple(max(6, (2 * n) // 3) for n in polar) + (max(8, (2 * n_az) // 3),)


def sample_points(rr: np.ndarray, rule: SphereRule) -> np.ndarray:
    """The tensor product of the radii rr with the rule's directions as an
    (len(rr) * len(rule.points), p) array, radius-major: sampled values
    reshape to (len(rr), len(rule.points))."""
    return (rr[:, None, None] * rule.points[None, :, :]).reshape(-1, rule.p)


# ---------------------------------------------------------------------------
# Cumulative shell integration on balls and half-lines. Every routine returns
# both the signed cumulative integral at the ladder radii and an
# absolute-value accumulation used downstream as a per-row noise floor.


def _shell_bounds(start: float, ladder: np.ndarray, inner: tuple[float, ...]) -> list[float]:
    bounds = [x for x in inner if start <= x < ladder[0]]
    if not bounds or bounds[0] > start:
        bounds = [start] + bounds
    # keep shell ratios <= 2 between the inner region and the first ladder radius
    r = bounds[-1]
    fill = []
    while ladder[0] / max(r, 1e-30) > 2.0 and r > 0:
        r = r * 2.0 if r > 0 else 1.0
        if r < ladder[0]:
            fill.append(r)
        else:
            break
    return bounds + fill + list(ladder)


DEFAULT_INNER = (0.0, 0.25, 0.5, 0.75, 1.0)

# frexp exponents of finite doubles run from -1073 to 1024, so every finite
# double is an integer multiple of 2^-(1073 + 53)
_EXP_OFFSET = 1073
# elements per bincount: below 2^26 the 27-bit limb sums stay exact in float64
_EXACT_CHUNK = 1 << 26
# below this many elements math.fsum over a list beats the limb sums' fixed cost
_FSUM_BELOW = 512


def _limb_total(a: np.ndarray) -> int | None:
    """Exact sum of the 1-D float array ``a`` in units of 2^-1126, or None
    when ``a`` holds a non-finite value.

    Each element is m 2^e with |m| < 1 (``np.frexp``); m 2^26 splits into an
    integer limb below 2^26 and a fraction that is a multiple of 2^-27.
    Per exponent, float64 ``bincount`` sums of either limb are exact for
    fewer than 2^26 elements; the bin totals then meet in one Python integer.
    """
    m, e = np.frexp(a)
    m *= 2.0 ** 26
    whole = np.trunc(m)
    e0 = int(e.min())
    idx = np.subtract(e, e0, dtype=np.intp)
    hi = np.bincount(idx, weights=whole)
    if not math.isfinite(hi.dot(hi)):  # an inf or NaN in a reaches hi
        return None
    m -= whole
    lo = np.bincount(idx, weights=m)
    ks = (hi + lo).nonzero()[0]  # hi + lo == 0 exactly where the limbs cancel
    his = hi[ks].astype(np.int64).tolist()
    los = (lo[ks] * 2.0 ** 27).astype(np.int64).tolist()
    total = 0
    for k, hi_k, lo_k in zip(ks.tolist(), his, los):
        total += ((hi_k << 27) + lo_k) << k
    return total << (e0 + _EXP_OFFSET)


def exact_sum(a) -> float:
    """The correctly rounded sum of a float64 array: bit for bit the value
    ``math.fsum`` returns, +0.0 for an exact zero.

    Arrays shorter than ``_FSUM_BELOW`` go to ``math.fsum`` directly.
    Input with an inf or NaN goes to ``math.fsum`` and keeps its result or
    exception; a finite sum beyond the float range raises OverflowError, as
    ``math.fsum`` does.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if not a.any():
        return 0.0
    if a.size < _FSUM_BELOW:
        return math.fsum(a.tolist())
    total = 0
    for start in range(0, a.size, _EXACT_CHUNK):
        part = _limb_total(a[start:start + _EXACT_CHUNK])
        if part is None:
            return math.fsum(a.tolist())
        total += part
    return total / (1 << (_EXP_OFFSET + 53))


def _cumulative_shells(
    panels: list[tuple[float, float, float]],
    marks: np.ndarray,
    n_radial: int,
    contribution: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The shell loop behind every cumulative routine.

    ``panels`` lists ``(a, b, end)``: one Gauss-Legendre panel from a to b,
    taken in that direction (a panel with b < a counts with a minus sign),
    after which the walk stands at the bound ``end``.  ``contribution(x, w)``
    returns the weighted panel values, float64 or complex.  Panel sums are
    exact, correctly rounded reductions (``exact_sum``, identical to
    ``math.fsum``); a real panel's imaginary sum is 0.0 without a reduction.
    The running totals are recorded with ``math.fsum`` over the panel sums
    whenever ``end`` is one of ``marks``.
    """
    marked = {float(m) for m in marks}
    out, aout = [], []
    re_parts, im_parts, abs_parts = [], [], []
    for a, b, end in panels:
        x, w = panel_rule(a, b, n_radial)
        contrib = contribution(x, w).ravel()
        if np.iscomplexobj(contrib):
            re_parts.append(exact_sum(contrib.real))
            im_parts.append(exact_sum(contrib.imag))
        else:
            re_parts.append(exact_sum(contrib))
            im_parts.append(0.0)
        abs_parts.append(exact_sum(np.abs(contrib)))
        if float(end) in marked:
            out.append(math.fsum(re_parts) + 1j * math.fsum(im_parts))
            aout.append(math.fsum(abs_parts))
    return np.array(out), np.array(aout)


def _values(v) -> np.ndarray:
    """Integrand values as float64 when real and complex128 otherwise.

    Real values take the real path of the shell loop; a product of a real
    weight with a zero imaginary part is exact, so both paths give the same
    real and absolute panel sums."""
    v = np.asarray(v)
    return v.astype(complex if np.iscomplexobj(v) else float, copy=False)


def _outward_panels(bounds: list[float]) -> list[tuple[float, float, float]]:
    """Panels from each bound to the next, in the order the bounds are given."""
    return [(lo, hi, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def cumulative_ball(
    f: Callable[[np.ndarray], np.ndarray],
    p: int,
    ladder: np.ndarray,
    sphere: SphereRule,
    n_radial: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """I(R_j) = int_{|x|<=R_j} f(x) dx on the ladder, with |.|-accumulation.

    f maps an (M, p) point array to real or complex (M,) values.
    """

    def contribution(r, wr):
        # held to the return: freed before the products below, the points' pages
        # went back to the system and each panel faulted in fresh ones (warm
        # precise regint-demo: 43k against 1.7k minor faults, 0.41 against 0.27 s)
        pts = sample_points(r, sphere)
        vals = _values(f(pts)).reshape(len(r), len(sphere.points))
        return (wr * r ** (p - 1))[:, None] * sphere.weights[None, :] * vals

    panels = _outward_panels(_shell_bounds(0.0, ladder, DEFAULT_INNER))
    return _cumulative_shells(panels, ladder, n_radial, contribution)


def cumulative_radial(
    g: Callable[[np.ndarray], np.ndarray],
    p: int,
    ladder: np.ndarray,
    n_radial: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Radial reduction of cumulative_ball for g = g(|x|): carries the exact
    S^{p-1} surface factor."""
    panels = _outward_panels(_shell_bounds(0.0, ladder, DEFAULT_INNER))
    out, aout = _cumulative_shells(
        panels, ladder, n_radial, lambda r, wr: wr * r ** (p - 1) * _values(g(r))
    )
    surf = sphere_surface(p)
    return surf * out, surf * aout


def cumulative_halfline_out(
    g: Callable[[np.ndarray], np.ndarray],
    ladder: np.ndarray,
    n_radial: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """J(b_j) = int_1^{b_j} g(x) dx on an outward ladder (b_j > 1).

    A ladder that starts below 1 gives signed values: J(b) = -int_b^1 g.
    """
    panels = _outward_panels(_shell_bounds(1.0, ladder, (1.0, 1.5)))
    return _cumulative_shells(panels, ladder, n_radial, lambda x, w: w * _values(g(x)))


def cumulative_halfline_in(
    g: Callable[[np.ndarray], np.ndarray],
    u_ladder: np.ndarray,
    n_radial: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """K(u_j) = int_{1/u_j}^1 g(x) dx on an inward ladder indexed by u = 1/a.

    Panels never touch x = 0, so integrable endpoint singularities are fine.
    A u ladder that starts below 1 gives signed values: K(u) = -int_1^{1/u} g.
    """
    # the outward bounds in u, inverted; the powers of two that fill the gap
    # below the ladder invert exactly
    bounds = 1.0 / np.array(_shell_bounds(1.0, u_ladder, (1.0,)))
    # each panel runs from the next bound back to the previous one; the last
    # bounds are the inverted ladder
    panels = [(end, start, end) for start, end in zip(bounds[:-1], bounds[1:])]
    return _cumulative_shells(panels, bounds[-len(u_ladder):], n_radial, lambda x, w: w * _values(g(x)))


def row_norm(x) -> np.ndarray:
    """Euclidean norm of each row of the (..., p) float array x.

    sqrt(x_0 x_0 + x_1 x_1 + ...) with the columns summed in order: bit for
    bit ``np.linalg.norm(x, axis=-1)`` for p <= 4, without the cost of its
    generic reduction over short rows.
    """
    x = np.asarray(x, dtype=float)
    s = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        s += x[..., j] * x[..., j]
    return np.sqrt(s, out=s)


def int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1 by repeated squaring, overwriting x; a
    second buffer is taken only when k is not a power of two.  Products keep
    the sign of negative x exact and cost a fraction of numpy's ``power``,
    which drops to a scalar loop on negative bases."""
    acc = None
    while k > 1:
        if k & 1:
            acc = x.copy() if acc is None else np.multiply(acc, x, out=acc)
        np.multiply(x, x, out=x)
        k >>= 1
    return x if acc is None else np.multiply(acc, x, out=acc)


FD_REL_STEP = 1e-5


def fd_step(x: np.ndarray) -> np.ndarray:
    """Finite-difference step h = FD_REL_STEP (1 + |x|) for each row of the
    (M, p) array x, shape (M,): a partial in x_j moves x_j by c h, for
    ``richardson_derivative``."""
    return FD_REL_STEP * (1.0 + row_norm(x))


def richardson_derivative(g: Callable[[float], object], h):
    """First derivative by central differences with one Richardson pass.

    ``g(c)`` evaluates the function at the offset c*h; it is called for
    c = 1, -1, 1/2, -1/2 in that order.  Negation and halving are exact, so
    the offsets are exactly +-h and +-h/2.  ``h`` may be an array that
    broadcasts against g's values.  Error O(h^4).
    """
    d1 = (g(1.0) - g(-1.0)) / (2.0 * h)
    d2 = (g(0.5) - g(-0.5)) / h
    return (4.0 * d2 - d1) / 3.0
