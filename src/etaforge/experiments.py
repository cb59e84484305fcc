"""Named reproductions of the library's closed-form identities.

Each experiment returns a list of check rows (computed value, reference
value with a provenance tag, tolerance).  The CLI dispatches on experiment
id; the acceptance test suite calls the same functions directly, so there is
a single source of truth for every identity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    ExpansionModel,
    RadiusLadder,
    coordinate_power,
    cov_correction,
    lorentz,
    mellin_reg,
    polynomial,
    power_log,
    regint_halfline,
    regint_rp,
    regint_rp_radial,
    sign_step,
    stokes_defect,
)
from .clifford import MAX_K, standard_rep, volume_trace
from .errors import ConfigError
from .eta import (
    PathFamily,
    additivity_defect,
    c_k,
    divisor_flow,
    eta_k,
    eta_suspension,
    eta_variation,
    linear_bridge_path,
    phase_unwinding_path,
    spectral_eta,
    winding,
)
from .forms import (
    MatrixFamily,
    _matmul,
    affine_clifford,
    capped_clifford,
    circle_phase,
    exterior_derivative,
    maurer_cartan_power,
    mc_form,
    mf_product,
    moebius,
    sphere_clifford,
    sphere_integrate,
    step_unitary,
    wedge,
)
from .partrace import (
    Kernel,
    KernelMonomial,
    SpectralFamily,
    WindowConfig,
    eta_kernel,
    l2_trace_values,
    resolvent,
    shared_sums,
    tr_param,
    tr_param_values,
)
from .quadrature import richardson_derivative, row_norm, sphere_rule

__all__ = ["Budget", "BUDGETS", "CheckRow", "EXPERIMENTS", "run_experiment"]


# ---------------------------------------------------------------------------
# Budgets


@dataclass(frozen=True)
class Budget:
    ladder: RadiusLadder
    n_radial: int
    n_radial_fine: int  # 1-d integrands with sharp (but smooth) features
    sphere_p3: tuple[int, int]

    def sphere(self, p):
        return sphere_rule(p, self.sphere_p3 if p == 3 else None)


BUDGETS = {
    "quick": Budget(
        RadiusLadder(4.0, 4096.0, 16),
        n_radial=24,
        n_radial_fine=64,
        sphere_p3=(12, 24),
    ),
    "standard": Budget(
        RadiusLadder(4.0, 65536.0, 24),
        n_radial=32,
        n_radial_fine=96,
        sphere_p3=(20, 40),
    ),
    "precise": Budget(
        RadiusLadder(4.0, 65536.0, 28),
        n_radial=48,
        n_radial_fine=128,
        sphere_p3=(32, 64),
    ),
}


@dataclass
class CheckRow:
    label: str
    value: complex
    reference: complex
    tolerance: float
    kind: str = "abs"  # "abs" | "rel"
    provenance: str = "exact identity"

    def __post_init__(self):
        if self.kind == "rel" and self.reference == 0:
            raise ValueError(f"check {self.label!r}: a relative tolerance needs a nonzero reference")

    @property
    def abs_deviation(self) -> float:
        return abs(self.value - self.reference)

    @property
    def rel_deviation(self) -> float | None:
        """The deviation relative to |reference|; None for a zero reference,
        which only ``abs`` rows may have."""
        if self.reference == 0:
            return None
        return self.abs_deviation / abs(self.reference)

    @property
    def passed(self) -> bool:
        dev = self.abs_deviation if self.kind == "abs" else self.rel_deviation
        return bool(dev <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "value": [self.value.real, self.value.imag],
            "reference": [complex(self.reference).real, complex(self.reference).imag],
            "abs_deviation": self.abs_deviation,
            "rel_deviation": self.rel_deviation,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "provenance": self.provenance,
            "pass": self.passed,
        }


def _matches_default(value, default) -> bool:
    """Whether ``value`` has the JSON type of ``default``: a float default
    takes finite floats and integers within the float range (not the
    Infinity and NaN that ``json.loads`` accepts), a sequence default takes
    lists of its element type (``_params`` refuses an empty one first)."""
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        if isinstance(value, float):
            return math.isfinite(value)
        return isinstance(value, int) and abs(value) <= sys.float_info.max
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_matches_default(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _params(params: dict, allowed: dict, ranges: dict | None = None) -> dict:
    """Merge params over defaults, rejecting unknown keys and values whose
    type differs from the default's; ``ranges`` gives the accepted interval
    (lo, hi) of a number, hi None for none."""
    params = dict(params or {})
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown parameter keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    for key, value in params.items():
        default = allowed[key]
        if isinstance(default, tuple) and isinstance(value, (list, tuple)) and not value:
            raise ConfigError(f"parameter {key!r} must be a non-empty list, got {value!r}")
        if not _matches_default(value, default):
            raise ConfigError(f"parameter {key!r} must be like {default!r}, got {value!r}")
        lo, hi = (ranges or {}).get(key, (None, None))
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            bounds = f"[{lo}, {'inf' if hi is None else hi}]"
            raise ConfigError(f"parameter {key!r} must be in {bounds}, got {value!r}")
    merged = dict(allowed)
    merged.update(params)
    return merged


# decimal digits of the quadrature oracle, about twice those of a float64
_ORACLE_DPS = 30


def _halfline_quad(f) -> float:
    """The integral of f over [0, inf) by mpmath's adaptive quadrature, at
    ``_ORACLE_DPS`` digits whatever the caller's ``mpmath.mp.dps``, rounded
    to float.  mpmath is imported here, so only the runs that use the oracle
    load it."""
    import mpmath

    with mpmath.workdps(_ORACLE_DPS):
        return float(mpmath.quad(f, [0, mpmath.inf]))


# ---------------------------------------------------------------------------
# Experiments


def exp_clifford_check(params, budget, rng):
    p = _params(params, {"k_max": 5}, ranges={"k_max": (1, MAX_K)})
    rows = []
    for k in range(1, p["k_max"] + 1):
        rep = standard_rep(k)
        eye = np.eye(rep.rank, dtype=complex)
        skew = max(float(np.max(np.abs(g.conj().T + g))) for g in rep.generators)
        anti = 0.0
        for i, gi in enumerate(rep.generators):
            for j, gj in enumerate(rep.generators):
                target = -2.0 * eye if i == j else np.zeros_like(eye)
                anti = max(anti, float(np.max(np.abs(gi @ gj + gj @ gi - target))))
        rows.append(CheckRow(f"k={k} skew-adjointness", skew, 0.0, 1e-12, "abs", "generator identity"))
        rows.append(CheckRow(f"k={k} anticommutation", anti, 0.0, 1e-12, "abs", "generator identity"))
        rows.append(
            CheckRow(
                f"k={k} volume trace",
                volume_trace(rep),
                2 ** (k - 1) * (1j) ** (-k),
                1e-12,
                "abs",
                "volume-element trace identity",
            )
        )
    return rows


def exp_sphere_omega(params, budget, rng):
    p = _params(params, {"k": 2}, ranges={"k": (1, 2)})
    k = int(p["k"])
    fam = sphere_clifford(k=k)
    tform = maurer_cartan_power(fam, 2 * k - 1)
    val = sphere_integrate(tform, None if k == 2 else 512).value
    return [
        CheckRow(
            f"S^{2 * k - 1} trace-form integral",
            val,
            -1.0 / c_k(k),
            1e-6,
            "rel",
            "normalization constant -1/c_k",
        )
    ]


def exp_rp_omega(params, budget, rng):
    _params(params, {})
    rows = []
    model = ExpansionModel.powers([-4, -6, -8, -10])
    for a in (1.0, -1.0):
        fam = affine_clifford(a=a, k=2)
        tform = maurer_cartan_power(fam, 3)
        reg = regint_rp(
            lambda x: tform.values(x)[(0, 1, 2)][:, 0, 0], model, 3, budget.ladder, budget.sphere(3), budget.n_radial
        )
        ref = -math.copysign(1.0, a) / (2.0 * c_k(2).real)
        rows.append(
            CheckRow(
                f"regularized integral, a={a:+g}",
                reg.value,
                ref,
                1e-4,
                "rel",
                "closed-form full-space integral",
            )
        )
        # absolutely convergent: cross-check by plain adaptive quadrature
        radial = _halfline_quad(lambda r, a=a: r ** 2 * (a * a + r * r) ** (-2))
        plain = -12.0 * a * 4.0 * math.pi * radial
        rows.append(
            CheckRow(
                f"plain-quadrature cross-check, a={a:+g}",
                plain,
                ref,
                1e-8,
                "rel",
                "adaptive quadrature oracle",
            )
        )
    return rows


def exp_regint_demo(params, budget, rng):
    _params(params, {})
    rows = []
    g = lorentz()
    even_mod = ExpansionModel.powers([-2, -4, -6, -8, -10])
    fullline = regint_rp(g, even_mod, 1, budget.ladder, None, budget.n_radial).value
    rows.append(CheckRow("convergent 1/(1+x^2) on R", fullline, math.pi, 1e-8, "rel", "arctangent primitive"))
    poly = polynomial(coeffs=[(1.0, 0, 0), (0.5, 0, 1), (1.0, 1, 1), (2.0, 2, 0), (1.0, 0, 3)])
    pmodel = ExpansionModel.make([(3, 0), (2, 0), (1, 0), (0, 0)], remainder=-1)
    for pp in (1, 2, 3):
        reg = regint_rp(poly, pmodel, pp, budget.ladder, budget.sphere(pp), budget.n_radial)
        rows.append(
            CheckRow(f"cubic polynomial on R^{pp}", reg.value, 0.0, 1e-8, "abs", "vanishing on polynomials")
        )
    hl = regint_halfline(
        lambda x: 1.0 / (x * (1.0 + x)),
        ExpansionModel.at_zero([(j, 0) for j in range(-1, 7)]),
        ExpansionModel.powers([-2, -3, -4, -5, -6, -7, -8, -9]),
        RadiusLadder(4.0, 65536.0, 24),
        budget.n_radial,
    )
    rows.append(
        CheckRow("half-line 1/(x(1+x))", hl.value, 0.0, 1e-8, "abs", "log-primitive finite parts cancel")
    )
    h = regint_halfline(
        lambda x: 1.0 / (1.0 + x ** 2),
        ExpansionModel.at_zero([(2 * j, 0) for j in range(6)]),
        even_mod,
        budget.ladder,
        budget.n_radial,
    )
    rows.append(
        CheckRow(
            "even-function bridge 2*halfline - fullline",
            2.0 * h.value - fullline,
            0.0,
            1e-8,
            "abs",
            "even-function reflection",
        )
    )
    return rows


def exp_mellin_zero(params, budget, rng):
    _params(params, {})
    rows = []
    for alpha, lp in ((-1.5, 0), (-1.0, 1), (0.5, 2)):
        f = lambda x, a=alpha, l=lp: x ** a * np.log(x) ** l
        reg = regint_halfline(
            f,
            ExpansionModel.at_zero([(alpha, lp)]),
            ExpansionModel.make([(alpha, lp)]),
            budget.ladder,
            budget.n_radial,
        )
        rows.append(
            CheckRow(
                f"half-line x^{alpha} log^{lp}",
                reg.value,
                0.0,
                1e-8,
                "abs",
                "power-log finite part vanishes",
            )
        )
    vz = mellin_reg(
        lambda x: x ** (-0.5),
        0.7,
        ExpansionModel.at_zero([(-0.5, 0)]),
        ExpansionModel.powers([-0.5]),
        budget.ladder,
        budget.n_radial,
    ).value
    rows.append(CheckRow("Mellin of a pure power", vz, 0.0, 1e-8, "abs", "power-log finite part vanishes"))
    deep_zero = RadiusLadder(4.0, 65536.0, 24)
    gamma2 = mellin_reg(
        lambda x: np.exp(-x),
        2.0,
        ExpansionModel.at_zero([(j, 0) for j in range(8)]),
        ExpansionModel.make([], remainder=-8.0),
        RadiusLadder(32.0, 65536.0, 20),
        budget.n_radial,
        ladder_zero=deep_zero,
    ).value
    rows.append(CheckRow("Mellin of e^{-x} at s=2", gamma2, 1.0, 1e-8, "rel", "gamma-function value"))
    beta = mellin_reg(
        lambda x: 1.0 / (1.0 + x),
        0.5,
        ExpansionModel.at_zero([(j, 0) for j in range(8)]),
        ExpansionModel.powers([-1, -2, -3, -4, -5, -6, -7, -8]),
        RadiusLadder(4.0, 65536.0, 24),
        budget.n_radial,
        ladder_zero=deep_zero,
    ).value
    rows.append(CheckRow("Mellin of 1/(1+x) at s=1/2", beta, math.pi, 1e-8, "rel", "beta-integral identity"))
    return rows


def exp_cov_check(params, budget, rng):
    _params(params, {})
    rows = []
    f1 = power_log(alpha=-1.0)
    m1 = ExpansionModel.make([(-1, 0)], remainder=-12)
    ident = cov_correction(f1, np.eye(1), m1, 1, ladder=budget.ladder, n_radial=budget.n_radial)
    rows.append(CheckRow("identity matrix, p=1", ident.lhs - ident.rhs, 0.0, 1e-6, "abs", "identity case"))
    pair = cov_correction(f1, np.array([[2.0]]), m1, 1, ladder=budget.ladder, n_radial=budget.n_radial)
    rows.append(CheckRow("scaling by 2, p=1", pair.lhs - pair.rhs, 0.0, 1e-6, "abs", "substitution oracle"))
    rows.append(
        CheckRow("log correction term, p=1", pair.correction, math.log(2.0), 1e-8, "abs", "closed-form correction")
    )
    f3 = power_log(alpha=-3.0)
    m3 = ExpansionModel.make([(-3, 0)], remainder=-14)
    # the angular profile |A xi|^{-3} needs the full sphere rule and the
    # cutoff ellipsoid the full radial rule, even under the quick budget
    pair3 = cov_correction(
        f3, np.diag([2.0, 1.0, 1.0]), m3, 3, ladder=budget.ladder,
        sphere=sphere_rule(3, (max(24, budget.sphere_p3[0]), max(48, budget.sphere_p3[1]))),
        n_radial=max(32, budget.n_radial),
    )
    rows.append(CheckRow("diag(2,1,1), p=3", pair3.lhs - pair3.rhs, 0.0, 1e-6, "abs", "sphere-quadrature oracle"))
    return rows


def exp_stokes_check(params, budget, rng):
    _params(params, {})
    rows = []
    fs = sign_step()
    ms = ExpansionModel.make([(0, 0)], remainder=-10)
    ps = stokes_defect(fs, 0, ms, 1, ladder=budget.ladder, n_radial=budget.n_radial_fine)
    rows.append(CheckRow("odd step on R: sides agree", ps.lhs - ps.rhs, 0.0, 1e-6, "abs", "boundary-value oracle"))
    rows.append(CheckRow("odd step on R: boundary jump", ps.rhs, 2.0, 1e-8, "abs", "fundamental theorem oracle"))
    fc = coordinate_power(j=0, q=3.0)
    mc = ExpansionModel.make([(-2, 0)], remainder=-12)
    pc = stokes_defect(
        fc, 0, mc, 3, ladder=budget.ladder, sphere=budget.sphere(3), n_radial=budget.n_radial
    )
    rows.append(CheckRow("x_1 |x|^{-3} on R^3: sides agree", pc.lhs - pc.rhs, 0.0, 1e-6, "abs", "symmetry oracle"))
    rows.append(
        CheckRow("x_1 |x|^{-3} on R^3: sphere term", pc.rhs, 4.0 * math.pi / 3.0, 1e-6, "abs", "sphere second moment")
    )

    def bump(x):
        r2 = np.sum(np.asarray(x, float) ** 2, axis=1)
        return np.exp(-r2)

    pb = stokes_defect(
        bump,
        0,
        ExpansionModel.make([(0, 0)], remainder=-10),
        1,
        ladder=budget.ladder,
        n_radial=budget.n_radial,
    )
    rows.append(CheckRow("rapidly decaying f: true Stokes", pb.lhs - pb.rhs, 0.0, 1e-6, "abs", "compact support"))
    return rows


def exp_eta_matrix(params, budget, rng):
    _params(params, {})
    rows = []
    model = ExpansionModel.powers([-4, -6, -8, -10])
    for a in (1.0, -1.0):
        fam = affine_clifford(a=a, k=2)
        res = eta_k(fam, model, budget.ladder, budget.sphere(3), budget.n_radial)
        rows.append(
            CheckRow(
                f"eta_2(a + c(x)), a={a:+g}",
                res.value,
                -math.copysign(1.0, a),
                1e-4,
                "rel",
                "sign of the affine offset",
            )
        )
    step = step_unitary(k=2)
    res = eta_k(step, ExpansionModel.make([], remainder=-8.0), budget.ladder, budget.sphere(3), budget.n_radial)
    rows.append(
        CheckRow(
            "eta_2(step unitary)/2 integrality",
            res.half_integer_deviation,
            0.0,
            1e-6,
            "abs",
            "winding integrality",
        )
    )
    return rows


def exp_winding(params, budget, rng):
    _params(params, {})
    rows = []
    m1 = ExpansionModel.powers([-2, -4, -6, -8])
    r1 = eta_k(moebius(s=1.0), m1, budget.ladder, None, budget.n_radial)
    rows.append(CheckRow("eta_1((x-i)/(x+i))", r1.value, 2.0, 1e-8, "abs", "residue oracle"))
    w3 = winding(sphere_clifford(k=2))
    rows.append(CheckRow("winding on S^3", w3, -1.0, 1e-6, "abs", "normalized sphere integral"))
    w1 = winding(circle_phase(), 512)
    rows.append(CheckRow("winding of e^{i theta} on S^1", w1, 1.0, 1e-8, "abs", "classical winding number"))
    base = sphere_clifford(k=2)
    shifted = MatrixFamily(4, 2, lambda x: 5.0 * np.eye(2, dtype=complex)[None] + base(x), base.partials, "shifted")
    wc = winding(shifted)
    rows.append(CheckRow("winding of a shifted (null-homotopic) family", wc, 0.0, 1e-6, "abs", "contractible family"))
    return rows


def exp_variation_check(params, budget, rng):
    _params(params, {})
    rows = []
    m1 = ExpansionModel.powers([-2, -4, -6, -8])
    cm1 = ExpansionModel.make([(0, 0), (-1, 0), (-2, 0), (-3, 0), (-4, 0)])
    path = PathFamily(lambda s: moebius(s=s))
    lhs, rhs = eta_variation(path, 0.75, m1, cm1, n_radial=budget.n_radial)
    rows.append(CheckRow("scalar pole path (constant eta)", lhs - rhs, 0.0, 1e-4, "abs", "independent rates"))

    unwind = phase_unwinding_path(0.05)
    mu = ExpansionModel.make([(-1, 0), (-2, 0), (-3, 0)])
    cmu = ExpansionModel.make([(0, 0), (-1, 0), (-2, 0)])
    lhs2, rhs2 = eta_variation(unwind, 0.5, mu, cmu, s_step=5e-3, n_radial=budget.n_radial_fine)
    rows.append(CheckRow("phase-unwinding path: sides agree", lhs2 - rhs2, 0.0, 1e-4, "abs", "independent rates"))
    rows.append(CheckRow("phase-unwinding path: rate", rhs2, -2.0, 1e-6, "abs", "boundary-value formula"))

    kpath = PathFamily(lambda s: capped_clifford(a=1.0 + s, k=2))
    meta = ExpansionModel.powers([-3, -4, -5, -6, -7])
    cm2 = ExpansionModel.make([(-2, 0), (-3, 0), (-4, 0), (-5, 0), (-6, 0)])
    lhs3, rhs3 = eta_variation(
        kpath, 0.5, meta, cm2, s_step=1e-2, ladder=budget.ladder, sphere=budget.sphere(3), n_radial=24
    )
    rows.append(CheckRow("k=2 capped family path: sides agree", lhs3 - rhs3, 0.0, 1e-4, "abs", "independent rates"))
    return rows


def _conjugated_rotated_copy(a: float) -> MatrixFamily:
    rng = np.random.default_rng(7)
    qr = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(qr)
    o = np.linalg.qr(rng.normal(size=(3, 3)))[0]  # a rotation: det(o) = +1 at seed 7
    base = capped_clifford(a=a, k=2)

    def f(x):
        # forms' entrywise rank-2 product, on (N, N, M) views of the (M, N, N) stacks
        vals = np.moveaxis(base(np.asarray(x, dtype=float) @ o.T), 0, -1)
        return np.moveaxis(_matmul(_matmul(q[..., None], vals), q.conj().T[..., None]), -1, 0)

    return MatrixFamily(3, 2, f, name="conjugated_copy")


def exp_additivity_defect(params, budget, rng):
    _params(params, {})
    rows = []
    # k = 1: exact additivity
    m1 = ExpansionModel.powers([-2, -3, -4, -5, -6, -7])
    a1 = moebius(s=1.0)
    b1 = moebius(s=2.0)
    ab = mf_product(a1, b1)
    ea = eta_k(a1, m1, budget.ladder, None, budget.n_radial).value
    eb = eta_k(b1, m1, budget.ladder, None, budget.n_radial).value
    eab = eta_k(ab, m1, budget.ladder, None, budget.n_radial).value
    rows.append(CheckRow("eta_1 additivity, scalar pair", eab - ea - eb, 0.0, 1e-6, "abs", "group homomorphism"))

    # k = 2 trivial cases
    meta = ExpansionModel.powers([-3, -4, -5, -6, -7])
    a2 = capped_clifford(a=1.0, k=2)
    bconst = MatrixFamily.constant(np.diag([1.0 + 0j, 2.0 + 0j]), 3)
    trivial = additivity_defect(a2, bconst, meta, ladder=budget.ladder, sphere=budget.sphere(3), n_radial=budget.n_radial)
    rows.append(CheckRow("constant right factor: lhs", trivial.lhs, 0.0, 1e-4, "abs", "conjugation invariance"))
    rows.append(CheckRow("constant right factor: rhs", trivial.rhs, 0.0, 1e-4, "abs", "zero form"))

    # k = 2 genuine defect
    b2 = _conjugated_rotated_copy(1.5)
    res = additivity_defect(a2, b2, meta, ladder=budget.ladder, sphere=budget.sphere(3), n_radial=24)
    rows.append(CheckRow("k=2 defect: sides agree", res.lhs - res.rhs, 0.0, 1e-4, "abs", "independent routes"))
    return rows


def _circle_family(a, kernel: Kernel) -> SpectralFamily:
    """An experiment's first family, at its configured offset; an offset that
    the family refuses (an integer one, whose spectrum contains 0) is a config
    error."""
    try:
        return SpectralFamily(a, kernel)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _circle_eta(a: float) -> float:
    """The spectral eta-invariant of the circle spectrum {n + a}: 1 - 2a on
    0 < a < 1, and periodic in a."""
    return 1.0 - 2.0 * (a - math.floor(a))


def exp_spectral_eta(params, budget, rng):
    # from k = 6 on the half-line fit basis is ill-conditioned at every budget
    # (condition number 1.64e10 at k = 6)
    p = _params(params, {"k": 2}, ranges={"k": (2, 5)})
    v = spectral_eta(0.25, k=int(p["k"]), n_radial=budget.n_radial)
    return [
        CheckRow("weighted half-line route, a=1/4", v, _circle_eta(0.25), 1e-3, "abs", "closed form 1 - 2a")
    ]


def exp_eta_suspension(params, budget, rng):
    # k = 1 is Melrose's suspended eta
    p = _params(params, {"a": 0.25, "k": 2}, ranges={"k": (1, 5)})
    k = int(p["k"])
    fam = _circle_family(p["a"], eta_kernel(k))
    rows = []
    eta_d = _circle_eta(fam.a)
    for sign, want in ((+1, -eta_d), (-1, +eta_d)):
        res = eta_suspension(fam.a, k, sign, n_radial=budget.n_radial)
        rows.append(
            CheckRow(
                f"suspension, sign {'+' if sign > 0 else '-'}",
                res.value,
                want,
                5e-3,
                "abs",
                "spectral eta bridge",
            )
        )
    sym = eta_suspension(0.5, k, +1, n_radial=budget.n_radial)
    rows.append(CheckRow("symmetric spectrum", sym.value, 0.0, 1e-6, "abs", "term-by-term cancellation"))
    if k != 2:
        return rows

    # radial reduction vs full-dimensional quadrature on one small case in
    # R^3, so at k = 2 only
    pref = math.factorial(2 * k - 1) * 2 ** (k - 1) * (1j) ** (-k)

    def radial_vals(r):
        return pref * l2_trace_values(fam, np.asarray(r, dtype=float)[:, None])

    def full(x):
        r = row_norm(x)
        uniq, inv = np.unique(np.round(r, 10), return_inverse=True)
        return radial_vals(uniq)[inv]

    small = RadiusLadder(4.0, 64.0, 10)
    empty = ExpansionModel.make([], remainder=-8.0)
    rad = regint_rp_radial(radial_vals, empty, 3, small, budget.n_radial)
    ful = regint_rp(full, empty, 3, small, sphere_rule(3, (8, 16)), 16)
    rows.append(
        CheckRow("radial reduction vs full quadrature", rad.value - ful.value, 0.0, 1e-6, "abs", "route agreement")
    )
    return rows


def exp_divisor_flow(params, budget, rng):
    p = _params(params, {"width": 0.05})
    w = float(p["width"])
    try:
        unwind = phase_unwinding_path(w)
        halved = phase_unwinding_path(w / 2.0)  # a subnormal width halves to 0
        linear = linear_bridge_path(w)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rep = divisor_flow(unwind, linear)
    rows = [
        CheckRow("flow along the phase-unwinding path", rep["path_a"], -2.0, 1e-6, "abs", "boundary rate"),
        CheckRow("flow along the straight-line path", rep["path_b"], 0.0, 1e-6, "abs", "boundary rate"),
        CheckRow("path dependence of the difference", rep["difference"], -2.0, 1e-6, "abs", "difference of rates"),
    ]
    half = divisor_flow(halved, linear)
    rows.append(
        CheckRow(
            "stability under halving the smoothing width",
            rep["path_a"] - half["path_a"],
            0.0,
            1e-6,
            "abs",
            "width independence",
        )
    )
    return rows


def _circle_resolvent_trace(mu: float, a: float) -> float:
    """sum_n 1/((n + a)^2 + mu^2) = (pi/mu) sinh(2 pi mu)/(cosh 2 pi mu - cos 2 pi a),
    written in q = e^{-2 pi |mu|} with expm1 so that it neither overflows nor
    cancels; pi^2/sin^2(pi a) at mu = 0.  Subtracting the nearest integer
    from a is exact and keeps sin(pi a) accurate near integer offsets."""
    s2 = math.sin(math.pi * (a - round(a))) ** 2
    if mu == 0.0:
        return math.pi ** 2 / s2
    x = 2.0 * math.pi * abs(mu)
    return math.pi * -math.expm1(-2.0 * x) / (math.expm1(-x) ** 2 + 4.0 * math.exp(-x) * s2) / abs(mu)


def _circle_eta_subtracted_trace(mu: float, a: float) -> float:
    """sum_n [(n + a)/((n + a)^2 + mu^2) - 1/(n + a)], summed symmetrically,
    = pi sin(2 pi a)/(cosh 2 pi mu - cos 2 pi a) - pi cot(pi a)
    = -pi cot(pi a) (cosh 2 pi mu - 1)/(cosh 2 pi mu - cos 2 pi a), written in
    q = e^{-2 pi |mu|} as ``_circle_resolvent_trace`` is.  cos(pi a) is taken
    as sin(pi (1/2 - |b|)), b = a less the nearest integer, so that the value
    is exactly 0 at half-integer a, where the spectrum is symmetric."""
    b = a - round(a)
    x = 2.0 * math.pi * abs(mu)
    s = math.sin(math.pi * abs(b))
    cot = math.copysign(math.sin(math.pi * (0.5 - abs(b))), b) / s
    e2 = math.expm1(-x) ** 2
    return -math.pi * cot * e2 / (e2 + 4.0 * math.exp(-x) * s * s)


def exp_trace_tanh(params, budget, rng):
    p = _params(params, {"mus": (0.5, 1.0, 5.0), "a": 0.5})
    fam = _circle_family(p["a"], resolvent(1))
    rows = []
    for mu in p["mus"]:
        got = complex(l2_trace_values(fam, np.array([[float(mu)]]))[0])
        want = _circle_resolvent_trace(float(mu), fam.a)
        rows.append(
            CheckRow(
                f"resolvent trace at mu={mu}",
                got,
                want,
                1e-8,
                "rel",
                "closed form (pi/mu) sinh(2 pi mu)/(cosh 2 pi mu - cos 2 pi a)",
            )
        )
    return rows


def exp_tr_derivative_check(params, budget, rng):
    p = _params(params, {"a": 0.25})
    # order-0 family mu^2 (lam^2 + mu^2)^{-1}: second mu-derivative of the
    # subtracted trace equals a trace-class sum
    fam0 = _circle_family(p["a"], Kernel((KernelMonomial(1.0, 0, 1, 1),)))
    a = fam0.a
    rows = []
    mu = 2.0
    h = 1e-3

    def trv(x):
        return complex(tr_param_values(fam0, np.array([[x]]))[0])

    d2 = (trv(mu + h) - 2.0 * trv(mu) + trv(mu - h)) / h ** 2
    d2b = (trv(mu + 0.5 * h) - 2.0 * trv(mu) + trv(mu - 0.5 * h)) / (0.25 * h ** 2)
    d2r = (4.0 * d2b - d2) / 3.0
    oracle_kernel = Kernel((KernelMonomial(2.0, 2, 0, 2), KernelMonomial(-8.0, 2, 1, 3)))
    oracle_fam = SpectralFamily(a, oracle_kernel)
    want = complex(l2_trace_values(oracle_fam, np.array([[mu]]))[0])
    rows.append(
        CheckRow(
            "second mu-derivative vs trace-class sum",
            d2r,
            want,
            1e-6,
            "abs",
            "derivative of the subtracted trace",
        )
    )

    # first derivative compatibility on a trace-class family
    fam1 = SpectralFamily(a, resolvent(1))

    def trv1(x):
        return complex(tr_param_values(fam1, np.array([[x]]))[0])

    fdr = richardson_derivative(lambda c: trv1(mu + c * h), h)
    dfam = fam1.d_mu(0)
    want1 = complex(tr_param_values(dfam, np.array([[mu]]))[0])
    rows.append(
        CheckRow(
            "mu-derivative family vs finite difference",
            fdr,
            want1,
            1e-6,
            "abs",
            "derivative compatibility",
        )
    )

    # multiplication by mu: the canonical representatives agree on the nose,
    # so the difference is the zero polynomial
    fam_mu = SpectralFamily(a, Kernel((KernelMonomial(1.0, 0, 1, 1),)), pref_power=1)
    xs = np.linspace(2.0, 9.0, 12)
    diff = tr_param_values(fam_mu, xs[:, None]) - xs * tr_param_values(fam0, xs[:, None])
    V = np.vander(xs, 3, increasing=True)
    coef, *_ = np.linalg.lstsq(V, diff, rcond=None)
    resid = float(np.max(np.abs(V @ coef - diff)))
    rows.append(
        CheckRow(
            "mu-multiplication defect is polynomial",
            resid,
            0.0,
            1e-8,
            "abs",
            "polynomial-basis projection",
        )
    )

    # families that need the Taylor subtraction, against closed forms in
    # R(mu) = sum_n 1/(lam^2 + mu^2): the remainders lam^2/(lam^2+t) - 1 and
    # lam^4/(lam^2+t) - lam^2 + t sum to -mu^2 R(mu) and mu^4 R(mu)
    lam2 = Kernel((KernelMonomial(1.0, 2, 0, 1),))
    lam4 = Kernel((KernelMonomial(1.0, 2, 0, 0),)) * lam2  # D^2 times the order-0 family
    r = _circle_resolvent_trace(mu, a)
    for label, fam, want, form in (
        ("lam^2/(lam^2+mu^2)", SpectralFamily(a, lam2), -mu ** 2 * r, "-mu^2 R(mu)"),
        ("lam^4/(lam^2+mu^2)", SpectralFamily(a, lam4), mu ** 4 * r, "mu^4 R(mu)"),
        (
            "lam/(lam^2+mu^2)",
            SpectralFamily(a, eta_kernel(1)),
            _circle_eta_subtracted_trace(mu, a),
            "pi sin 2pi a/(cosh 2pi mu - cos 2pi a) - pi cot pi a",
        ),
    ):
        got = complex(tr_param_values(fam, np.array([[mu]]))[0])
        # the lam row's closed form vanishes at half-integer a (a symmetric
        # spectrum), where no relative tolerance holds: below 1 it is absolute
        kind = "rel" if abs(want) >= 1.0 else "abs"
        rows.append(CheckRow(f"subtracted trace of {label} at mu=2", got, want, 1e-8, kind, f"closed form {form}"))

    # window independence: each sum, at the window its escalation ended on,
    # agrees with the sum pinned at twice that window (so the two windows
    # always differ), so the Euler-Maclaurin tails carry what a window leaves
    # out.  At every budget the row reads at most 5.4e-15 over a in {0.25,
    # 0.1, 0.4, 0.5, 0.01, 0.99, -0.3, 1.25, 7.5, -3000.3, 100000.4}, at the
    # first window of 128, against tail estimates of at most 1.1e-14 of the
    # sum and a tolerance of 1e-12; a tail scaled by 1 + 1e-6 reads 1.2e-8
    # at every budget, and no tail 1.3e-2
    fam4 = SpectralFamily(a, lam4)
    worst = 0.0
    for m in (0.5, 2.0, 5.0):
        first = tr_param(fam4, m)
        n = 2 * first.truncation["window"]
        second = tr_param(fam4, m, WindowConfig(start=n, cap=n))
        worst = max(worst, abs(first.value - second.value) / abs(first.value))
    rows.append(
        CheckRow(
            "window independence: lam^4/(lam^2+mu^2) at its window vs twice it",
            worst,
            0.0,
            1e-12,
            "abs",
            "Euler-Maclaurin tails (largest relative difference at mu = 0.5, 2, 5)",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Property-suite experiments (tagged "properties"; not part of "all")


def _family_corpus():
    return [
        affine_clifford(a=1.0, k=2),
        capped_clifford(a=1.5, k=2),
        moebius(s=1.0),
    ]


def _max_coeff(form, pts):
    return max((float(np.max(np.abs(v))) for v in form.values(pts).values()), default=0.0)


def exp_prop_d2(params, budget, rng):
    _params(params, {})
    rows = []
    for fam in _family_corpus():
        pts = rng.normal(size=(12, fam.p)) * 2.0 + 3.0
        w = mc_form(fam)
        dd = exterior_derivative(exterior_derivative(w))
        scale = max(_max_coeff(w, pts), 1.0)
        rows.append(
            CheckRow(f"d(d omega) on {fam.name}", _max_coeff(dd, pts) / scale, 0.0, 1e-5, "abs", "nilpotent derivative")
        )
    return rows


def exp_prop_leibniz(params, budget, rng):
    _params(params, {})
    rows = []
    fam = affine_clifford(a=1.0, k=2)
    gam = affine_clifford(a=2.0, k=2)
    w1 = mc_form(fam)
    w2 = mc_form(gam)
    pts = rng.normal(size=(12, 3)) * 2.0 + 3.0
    lhs = exterior_derivative(wedge(w1, w2))
    a = wedge(exterior_derivative(w1), w2)
    b = wedge(w1, exterior_derivative(w2))
    got, av, bv = lhs.values(pts), a.values(pts), b.values(pts)
    worst = 0.0
    for I in lhs.indices:
        want = av[I] - bv[I]  # (-1)^{deg w1} = -1
        worst = max(worst, float(np.max(np.abs(got[I] - want))))
    rows.append(CheckRow("graded Leibniz rule", worst, 0.0, 1e-6, "abs", "product rule"))

    # trace cyclicity: tr(w1 ^ w2) = (-1)^{q1 q2} tr(w2 ^ w1)
    t12 = wedge(w1, w2).traced()
    t21 = wedge(w2, w1).traced()
    v12, v21 = t12.values(pts), t21.values(pts)
    worst = 0.0
    for I in t12.indices:
        worst = max(worst, float(np.max(np.abs(v12[I] + v21[I]))))
    rows.append(CheckRow("graded trace cyclicity", worst, 0.0, 1e-10, "abs", "cyclic trace"))
    return rows


def exp_prop_maurer_cartan(params, budget, rng):
    _params(params, {})
    rows = []
    for fam in _family_corpus():
        pts = rng.normal(size=(12, fam.p)) * 2.0 + 3.0
        w = mc_form(fam)
        dw = exterior_derivative(w).values(pts)
        sq = wedge(w, w).values(pts)
        worst = 0.0
        for I in set(dw) | set(sq):
            worst = max(worst, float(np.max(np.abs(dw.get(I, 0.0) + sq.get(I, 0.0)))))
        rows.append(
            CheckRow(f"structure equation on {fam.name}", worst, 0.0, 1e-6, "abs", "logarithmic derivative")
        )
    return rows


def exp_prop_regint_linearity(params, budget, rng):
    _params(params, {})
    rows = []
    f = power_log(alpha=-1.0)
    g = lorentz()
    model = ExpansionModel.make([(-1, 0), (-2, 0), (-4, 0), (-6, 0), (-8, 0)])
    al, be = complex(rng.normal()), complex(rng.normal())

    def combo(x):
        return al * f(x) + be * g(x)

    va = regint_rp(combo, model, 1, budget.ladder, None, budget.n_radial).value
    vf = regint_rp(f, model, 1, budget.ladder, None, budget.n_radial).value
    vg = regint_rp(g, model, 1, budget.ladder, None, budget.n_radial).value
    rows.append(CheckRow("linearity of the finite part", va - (al * vf + be * vg), 0.0, 1e-7, "abs", "linearity"))
    return rows


def exp_prop_regint_convergent(params, budget, rng):
    _params(params, {})
    rows = []
    g = lorentz()
    got = regint_rp(g, ExpansionModel.powers([-2, -4, -6, -8, -10]), 1, budget.ladder, None, budget.n_radial).value
    want = 2.0 * _halfline_quad(lambda t: 1 / (1 + t * t))
    rows.append(CheckRow("1/(1+x^2) vs adaptive quadrature", got - want, 0.0, 1e-8, "abs", "adaptive quadrature"))

    def gauss3(x):
        return np.exp(-np.sum(np.asarray(x, float) ** 2, axis=1))

    got3 = regint_rp(
        gauss3, ExpansionModel.make([], remainder=-8.0), 3, RadiusLadder(6.0, 96.0, 10), budget.sphere(3), budget.n_radial
    ).value
    rows.append(
        CheckRow("Gaussian on R^3 vs closed form", got3 - math.pi ** 1.5, 0.0, 1e-8, "abs", "Gaussian integral")
    )
    return rows


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class ExperimentSpec:
    func: object
    tags: frozenset[str]
    description: str


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "regint-demo": ExperimentSpec(exp_regint_demo, frozenset({"all", "asymptotics", "regint"}), "finite-part axioms"),
    "cov-check": ExperimentSpec(exp_cov_check, frozenset({"all", "asymptotics"}), "change of variables"),
    "stokes-check": ExperimentSpec(exp_stokes_check, frozenset({"all", "asymptotics"}), "boundary defect"),
    "mellin-zero": ExperimentSpec(exp_mellin_zero, frozenset({"all", "asymptotics", "mellin"}), "Mellin conventions"),
    "clifford-check": ExperimentSpec(exp_clifford_check, frozenset({"all", "clifford"}), "generator identities"),
    "sphere-omega": ExperimentSpec(exp_sphere_omega, frozenset({"all", "forms", "sphere"}), "sphere trace-form"),
    "rp-omega": ExperimentSpec(exp_rp_omega, frozenset({"all", "forms", "regint"}), "full-space trace-form"),
    "eta-matrix": ExperimentSpec(exp_eta_matrix, frozenset({"all", "eta"}), "matrix-route eta"),
    "winding": ExperimentSpec(exp_winding, frozenset({"all", "eta"}), "winding numbers"),
    "variation-check": ExperimentSpec(exp_variation_check, frozenset({"all", "eta"}), "variation formula"),
    "additivity-defect": ExperimentSpec(exp_additivity_defect, frozenset({"all", "eta"}), "additivity defect"),
    "spectral-eta": ExperimentSpec(exp_spectral_eta, frozenset({"all", "spectral"}), "spectral eta routes"),
    "eta-suspension": ExperimentSpec(exp_eta_suspension, frozenset({"all", "spectral"}), "suspension bridge"),
    "divisor-flow": ExperimentSpec(exp_divisor_flow, frozenset({"all", "flow"}), "divisor flow paths"),
    "trace-tanh": ExperimentSpec(exp_trace_tanh, frozenset({"all", "partrace"}), "trace-class oracle"),
    "tr-derivative-check": ExperimentSpec(
        exp_tr_derivative_check, frozenset({"all", "partrace"}), "parametric-trace compatibilities"
    ),
    "prop-d2": ExperimentSpec(exp_prop_d2, frozenset({"properties"}), "d squared vanishes"),
    "prop-leibniz": ExperimentSpec(exp_prop_leibniz, frozenset({"properties"}), "graded Leibniz"),
    "prop-maurer-cartan": ExperimentSpec(exp_prop_maurer_cartan, frozenset({"properties"}), "structure equation"),
    "prop-regint-linearity": ExperimentSpec(exp_prop_regint_linearity, frozenset({"properties"}), "linearity"),
    "prop-regint-convergent": ExperimentSpec(
        exp_prop_regint_convergent, frozenset({"properties"}), "convergent-case agreement"
    ),
}


def run_experiment(exp_id: str, params: dict, budget: Budget, rng: np.random.Generator) -> list[CheckRow]:
    if exp_id not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    with shared_sums():
        return EXPERIMENTS[exp_id].func(params, budget, rng)
