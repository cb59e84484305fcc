"""Deterministic quadrature building blocks.

Radial integrals are composed from Gauss-Legendre panels laid out on a
geometric shell ladder.  ``sphere_rule`` is the one sampler of the spheres
S^0..S^3 (endpoints for S^0, trapezoid on S^1, Gauss-Legendre x trapezoid on
S^2, double Gauss-Legendre x trapezoid in hyperspherical coordinates on S^3),
with one resolution check and one default table, and ``sample_points`` the
one grid of radii times a rule's directions.
Every shell-panel sum is exact and correctly rounded, bit for bit the value
of ``math.fsum`` over the whole panel, so the cumulative integrals do not
depend on summation order; the remaining reductions run in a fixed index
order.  One reducer per column (``_JoinedSums``) takes a panel's blocks: a
short block keeps its values for ``math.fsum``, a longer one keeps the exact
level sums of an error-free extraction (a real block of one sign gives its
sum and its absolute mass from the same levels), and each sum is rounded
once.  Real integrand
values stay float64 through the loop; complex ones are summed by real and
imaginary part.  One pass of the shell loop integrates several integrands at
the same points as the columns of one array, each column reduced exactly as
it would be alone.  A shell-loop integrand must be row-wise, and is handed
blocks of at most ``SHELL_POINTS`` points: a 1-D integrand the next nodes of
one stream of every panel's nodes, from several panels at once, and a ball
integrand whole radial nodes of one panel (one node when a node alone has
more).  The eigenvalue sums of ``partrace`` are row-wise only up to their
window: a chunk of their rows shares the widest window any of its rows needs.
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
# (cos-theta nodes, azimuths) on S^2, (psi nodes, theta nodes, azimuths) on
# S^3.  The S^3 entry is the rule every S^3 integral of the experiments uses.
SPHERE_RESOLUTION = {1: (), 2: (128,), 3: (24, 48), 4: (24, 24, 48)}


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


def _shell_bounds(ladder: np.ndarray, inner: tuple[float, ...]) -> list[float]:
    """The panel bounds from ``inner[0]``, the start of the integral, to the
    last ladder radius: the rest of ``inner`` below the first ladder radius,
    then doublings of the last inner bound, then the ladder."""
    bounds = [inner[0]] + [x for x in inner[1:] if x < ladder[0]]
    # keep shell ratios <= 2 between the inner region and the first ladder radius
    r = bounds[-1]
    while r > 0 and ladder[0] / r > 2.0:
        r *= 2.0
        bounds.append(r)
    return bounds + list(ladder)


DEFAULT_INNER = (0.0, 0.25, 0.5, 0.75, 1.0)

# below this many elements math.fsum over a list beats the extraction's fixed cost
_FSUM_BELOW = 512


def _extracted(a: np.ndarray, top: float, q: np.ndarray, r: np.ndarray) -> list[float]:
    """Doubles whose exact sum is the sum of the 1-D float array ``a``, where
    ``top`` = max|a| is finite and positive; q and r are scratch arrays of
    a's length, and r may be a itself.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008), one level per pass
    over the remainder r, which starts as a: with 2^m > n + 1 for n values
    and sigma = 2^e >= 2^m max|r|, q = (r + sigma) - sigma is exact, every q
    is a multiple of 2^(e-53) and every partial sum of them stays below 2^53
    such units, so ``q.sum()`` is exact in any order; r - q is exact as
    well, and at most 2^(e-53).  Each level takes about 53 - m bits, and the
    levels run until the remainder is zero.  The caller keeps the first
    sigma, 2^m times the power of two above ``top``, within the float range.
    """
    m = (a.size + 1).bit_length()
    levels = []
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(a, sigma, out=q)
        q -= sigma
        levels.append(float(q.sum()))
        a = np.subtract(a, q, out=r)
        top = max(-float(r.min()), float(r.max()))
    return levels


# points per integrand call of the shell loop: 16,384 nodes of a 1-D stream,
# or a ball panel's whole radial nodes (8 nodes x 2,048 directions at the
# precise budget).  On scalar-regint (precise, 2-core Xeon) whole 98,304-point
# ball panels peaked at 59.1 MB and a warm stokes-check took 31k minor faults;
# blocks of 16,384 points peak at 47.1 MB with 0.9k faults.  4,096 points ran
# 15-25 % slower and 8,192 gave mixed wall times at the same peak.
SHELL_POINTS = 16384


class _JoinedSums:
    """One column's real, imaginary and absolute sums over the blocks of a
    panel, each bit for bit ``math.fsum`` over the whole panel.

    A real block gives its signed and absolute parts, a complex block its
    real, imaginary and modulus parts.  A block shorter than ``_FSUM_BELOW``
    keeps its values; a longer one keeps the exact level sums of its values
    (``_extracted``).  A real block of one sign takes its absolute sum from
    the same levels, a mixed one extracts its absolute values into the spent
    scratch of the signed pass.  A block holding a value too close to the
    float range for the extraction keeps its values too.  Each sum is rounded
    once, by ``math.fsum`` over what was kept.  An all-zero block adds
    nothing, so an exact zero sums to +0.0.

    A block that holds an inf or NaN keeps only its non-finite values:
    ``fsum`` over values holding one returns the sum of the non-finite ones
    (or raises for inf - inf), whatever the finite ones are.  The one
    exception to "bit for bit ``fsum``": when the finite values' running sum
    overflows, which only values near the float range can do, ``fsum``
    raises OverflowError, and a panel that holds an inf or NaN gets the
    ``fsum`` of its non-finite values alone instead, at every block length.
    """

    def __init__(self):
        self.kept = ([], [], [])

    def add(self, col: np.ndarray):
        if np.iscomplexobj(col):
            self._add(col.real, (0,))
            self._add(col.imag, (1,))
            self._add(np.abs(col), (2,))
        else:
            self._add(col, (0, 2))

    def _add(self, a: np.ndarray, parts: tuple[int, ...]):
        # the sum of a into parts[0] and, for two parts, the sum of |a| into parts[1]
        lo, hi = float(a.min()), float(a.max())
        top = max(-lo, hi)  # NaN when a holds one: min and max both propagate it
        if not math.isfinite(top):
            for i, v in zip(parts, (a, np.abs(a))):
                self.kept[i].extend(v[~np.isfinite(v)].tolist())
            return
        if not top:
            return
        if a.size < _FSUM_BELOW or math.frexp(top)[1] + (a.size + 1).bit_length() > 1023:
            xs = a.tolist()
            for i, v in zip(parts, (xs, map(abs, xs))):
                self.kept[i].extend(v)
            return
        q, r = np.empty(a.size), np.empty(a.size)
        levels = _extracted(a, top, q, r)
        self.kept[parts[0]].extend(levels)
        if len(parts) == 2:
            if lo < 0:
                levels = _extracted(np.abs(a, out=r), top, q, r)
            self.kept[parts[1]].extend(levels)

    def sums(self) -> tuple[float, float, float]:
        return tuple(map(_joined_fsum, self.kept))


def _joined_fsum(kept: list[float]) -> float:
    """``fsum`` of the kept values; on overflow, the ``fsum`` of the
    non-finite kept values when there are any."""
    try:
        return math.fsum(kept)
    except OverflowError:
        special = [v for v in kept if not math.isfinite(v)]
        if not special:
            raise
        return math.fsum(special)


def _cumulative_shells(
    panels: list[tuple[float, float, float]],
    marks: np.ndarray,
    n_radial: int,
    contribution: Callable[[np.ndarray, np.ndarray], np.ndarray],
    node_points: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The shell loop behind every cumulative routine.

    ``panels`` lists ``(a, b, end)``: one Gauss-Legendre panel from a to b,
    taken in that direction (a panel with b < a counts with a minus sign),
    after which the walk stands at the bound ``end``.  ``contribution(x, w)``
    returns the weighted values at the radial nodes x with weights w,
    ``node_points`` rows per node in node order, float64 or complex, as an
    (n,) array or as (n, K), one column per integrand; (n,) is the case K = 1.
    It must be row-wise: the blocks it is handed must give the rows of one
    call on every node.  The blocks are cut from one stream of every panel's
    nodes in panel order.  With one row per node (the 1-D routines) a block
    is the next ``SHELL_POINTS`` nodes of the stream, from as many panels as
    it reaches; with more (``cumulative_ball``) a block stays inside one
    panel: whole nodes, at most ``SHELL_POINTS`` rows, or one node when a
    node alone has more.  Each column is reduced alone, exactly as a
    one-column run reduces it, by one ``_JoinedSums`` per panel that takes
    the column's rows of that panel block by block and rounds once: its
    panel sums are identical to ``math.fsum`` over the whole panel, however
    the stream is cut.  A real column takes its signed and absolute sums
    from one reducer call per block and panel, and its imaginary sum is 0.0
    without a reduction; a complex column takes three exact sums.  The
    running totals are recorded with ``math.fsum`` over each column's panel
    sums whenever ``end`` is one of ``marks``, and come back with the
    contribution's column shape: (L,) or (L, K).
    """
    rules = [panel_rule(a, b, n_radial) for a, b, _ in panels]
    x, w = (np.concatenate(parts) for parts in zip(*rules))
    # a 1-D block spans the whole stream, a ball block one panel
    step = SHELL_POINTS if node_points == 1 else max(1, SHELL_POINTS // node_points)
    span = len(x) if node_points == 1 else n_radial
    cuts = [lo + s for lo in range(0, len(x), span) for s in range(0, span, step)]
    reducers = None  # per panel, one _JoinedSums per column
    for lo, hi in zip(cuts, cuts[1:] + [len(x)]):
        contrib = contribution(x[lo:hi], w[lo:hi])
        cols = contrib.reshape(len(contrib), -1)
        if reducers is None:
            reducers = [[_JoinedSums() for _ in range(cols.shape[1])] for _ in panels]
        for panel in range(lo // n_radial, (hi - 1) // n_radial + 1):  # the block's rows per panel
            start, stop = max(lo, panel * n_radial), min(hi, (panel + 1) * n_radial)
            rows = slice((start - lo) * node_points, (stop - lo) * node_points)
            for acc, col in zip(reducers[panel], cols[rows].T):
                acc.add(col)
    marked = {float(m) for m in marks}
    out, aout, columns = [], [], [([], [], []) for _ in reducers[0]]
    for (_, _, end), accs in zip(panels, reducers):
        for parts, acc in zip(columns, accs):
            for part, value in zip(parts, acc.sums()):
                part.append(value)
        if float(end) in marked:
            out.append([math.fsum(re) + 1j * math.fsum(im) for re, im, _ in columns])
            aout.append([math.fsum(mass) for _, _, mass in columns])
    shape = (-1,) + contrib.shape[1:]
    return np.array(out).reshape(shape), np.array(aout).reshape(shape)


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

    f maps an (M, p) point array to real or complex (M,) values, or to
    (M, K) values for K integrands at the same points; then both results are
    (len(ladder), K), and each column is bit for bit its one-column run.
    f must be row-wise: it is called on blocks of whole radial nodes of one
    panel (a node's radius times every direction of the rule), at most
    ``SHELL_POINTS`` points or one node per call, and the results are bit
    for bit those of one call per panel.
    """

    def contribution(r, wr):
        # held to the return: freed before the products below, the points' pages
        # went back to the system and each panel faulted in fresh ones (warm
        # precise regint-demo: 43k against 1.7k minor faults, 0.41 against 0.27 s)
        pts = sample_points(r, sphere)
        vals = _values(f(pts))
        cols = vals.shape[1:]  # (K,) for K integrands
        ones = (1,) * len(cols)
        radial = (wr * r ** (p - 1)).reshape((-1, 1) + ones)
        angular = sphere.weights.reshape((-1,) + ones)
        # the (radii, directions) weight product stays a temporary: held in a
        # local to the return, it raised scalar-regint's peak RSS by 0.4 MB
        grid = radial * angular * vals.reshape((len(r), len(sphere.points)) + cols)
        return grid.reshape((-1,) + cols)

    panels = _outward_panels(_shell_bounds(ladder, DEFAULT_INNER))
    return _cumulative_shells(panels, ladder, n_radial, contribution, len(sphere.points))


def cumulative_radial(
    g: Callable[[np.ndarray], np.ndarray],
    p: int,
    ladder: np.ndarray,
    n_radial: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Radial reduction of cumulative_ball for g = g(|x|): carries the exact
    S^{p-1} surface factor.  g maps a 1-D array of radii to values; it is
    called on the next ``SHELL_POINTS`` radial nodes of all panels in ladder
    order, across panel bounds."""
    panels = _outward_panels(_shell_bounds(ladder, DEFAULT_INNER))
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
    g is called on up to ``SHELL_POINTS`` nodes at a time, as for
    ``cumulative_radial``.
    """
    panels = _outward_panels(_shell_bounds(ladder, (1.0, 1.5)))
    return _cumulative_shells(panels, ladder, n_radial, lambda x, w: w * _values(g(x)))


def cumulative_halfline_in(
    g: Callable[[np.ndarray], np.ndarray],
    u_ladder: np.ndarray,
    n_radial: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """K(u_j) = int_{1/u_j}^1 g(x) dx on an inward ladder indexed by u = 1/a.

    Panels never touch x = 0, so integrable endpoint singularities are fine.
    A u ladder that starts below 1 gives signed values: K(u) = -int_1^{1/u} g.
    g is called on up to ``SHELL_POINTS`` nodes at a time, as for
    ``cumulative_radial``, the panels taken from x = 1 inward.
    """
    # the outward bounds in u, inverted; the powers of two that fill the gap
    # below the ladder invert exactly
    bounds = 1.0 / np.array(_shell_bounds(u_ladder, (1.0,)))
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
    which drops to a scalar loop on negative bases.  Any other k raises
    ValueError."""
    if not _is_count(k):
        raise ValueError(f"int_power needs an integer k >= 1, got {k!r}")
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


# The offsets c at which richardson_derivative calls g, in call order.
RICHARDSON_OFFSETS = (1.0, -1.0, 0.5, -0.5)


def richardson_derivative(g: Callable[[float], object], h):
    """First derivative by central differences with one Richardson pass.

    ``g(c)`` evaluates the function at the offset c*h; it is called for the
    c of ``RICHARDSON_OFFSETS``, 1, -1, 1/2, -1/2, in that order, holding
    two values at a time.  Negation and halving are exact, so the offsets
    are exactly +-h and +-h/2.  ``h`` may be an array that broadcasts
    against g's values.  Error O(h^4).
    """
    one, minus_one, half, minus_half = RICHARDSON_OFFSETS
    d1 = (g(one) - g(minus_one)) / (2.0 * h)
    d2 = (g(half) - g(minus_half)) / h
    return (4.0 * d2 - d1) / 3.0
