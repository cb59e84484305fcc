"""Acceptance gate: every closed-form identity at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s to stream them)
and asserts the full set of checks behind it.  Everything runs under the
standard numeric budget; the suspension bridge stays far below its
15-minute precise-budget allowance.
"""

import math

import numpy as np
import pytest

from etaforge.cli import ExperimentConfig, run
from etaforge.experiments import BUDGETS

STANDARD = BUDGETS["standard"]


def _criterion(number, title, exp_id, params=None, select=None, budget="standard"):
    report = run(ExperimentConfig(exp_id, params=params or {}, budget=budget))
    rows = [r for r in report.rows if select is None or select(r)]
    assert rows, f"criterion {number}: no matching checks"
    ok = all(r.passed for r in rows)
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {title}")
    for r in rows:
        flag = "ok " if r.passed else "BAD"
        print(f"    [{flag}] {r.label}: dev={r.abs_deviation:.3e} tol={r.tolerance:g} ({r.kind})")
    assert ok, f"criterion {number} failed"
    return rows


def test_criterion_01_clifford_identities():
    rows = _criterion(1, "Clifford generator identities, k = 1..5", "clifford-check")
    assert len(rows) == 15
    assert all(r.tolerance <= 1e-12 for r in rows)


def test_criterion_02_sphere_integral():
    rows = _criterion(2, "sphere integral of the Clifford trace form = -24 pi^2", "sphere-omega")
    assert rows[0].kind == "rel" and rows[0].tolerance == 1e-6
    assert abs(rows[0].reference + 24.0 * math.pi ** 2) < 1e-9


def test_criterion_03_full_space_integral():
    rows = _criterion(3, "full-space Clifford trace-form integral = -sgn(a) 12 pi^2", "rp-omega")
    regs = [r for r in rows if r.label.startswith("regularized")]
    assert len(regs) == 2 and all(r.kind == "rel" and r.tolerance == 1e-4 for r in regs)
    crosses = [r for r in rows if "cross-check" in r.label]
    assert len(crosses) == 2 and all(r.passed for r in crosses)


def test_criterion_04_regularized_integral_axioms():
    power_rows = _criterion(
        4, "finite-part axioms: power-log half-line integrals vanish", "mellin-zero",
        select=lambda r: "half-line" in r.label or "pure power" in r.label,
    )
    assert all(r.tolerance <= 1e-8 for r in power_rows)
    demo_rows = _criterion(
        4, "finite-part axioms: polynomials and the log pair", "regint-demo",
        select=lambda r: "polynomial" in r.label or "1/(x(1+x))" in r.label,
    )
    assert len(demo_rows) == 4
    assert all(r.tolerance <= 1e-8 for r in demo_rows)


def test_criterion_05_change_of_variables():
    rows = _criterion(5, "linear change of variables with log correction", "cov-check")
    agree = [r for r in rows if "p=1" in r.label or "p=3" in r.label]
    assert all(r.tolerance <= 1e-6 for r in agree if "correction term" not in r.label)


def test_criterion_06_stokes_defect():
    rows = _criterion(6, "boundary-defect identity including the 4 pi / 3 case", "stokes-check")
    moment = [r for r in rows if "sphere term" in r.label][0]
    assert abs(moment.reference - 4.0 * math.pi / 3.0) < 1e-12
    assert all(r.tolerance <= 1e-6 for r in rows)


def test_criterion_07_trace_identity():
    rows = _criterion(7, "resolvent trace matches pi tanh(pi mu)/mu", "trace-tanh")
    assert len(rows) == 3
    assert all(r.kind == "rel" and r.tolerance == 1e-8 for r in rows)


def test_criterion_08_spectral_eta():
    rows = _criterion(8, "spectral eta: weighted half-line route = 1 - 2a to 1e-3", "spectral-eta")
    assert len(rows) == 1 and "half-line route" in rows[0].label
    assert rows[0].tolerance == 1e-3 and rows[0].reference == 0.5


def test_criterion_09_suspension_bridge():
    rows = _criterion(9, "suspension family eta = -+ spectral eta", "eta-suspension")
    signed = [r for r in rows if r.label.startswith("suspension")]
    assert len(signed) == 2 and all(r.tolerance == 5e-3 for r in signed)
    assert {complex(r.reference).real for r in signed} == {0.5, -0.5}


def test_criterion_10_winding_numbers():
    rows = _criterion(10, "winding numbers: eta_1 = 2 and S^3 winding = -1", "winding")
    eta1 = [r for r in rows if "eta_1" in r.label][0]
    assert eta1.tolerance == 1e-8 and complex(eta1.reference) == 2.0
    s3 = [r for r in rows if "S^3" in r.label][0]
    assert s3.tolerance == 1e-6 and complex(s3.reference) == -1.0


def test_criterion_11_variation_formula():
    rows = _criterion(11, "variation formula across the path corpus", "variation-check")
    agree = [r for r in rows if "sides agree" in r.label or "constant eta" in r.label]
    assert len(agree) >= 3
    assert all(r.tolerance <= 1e-4 for r in agree)


def test_criterion_12_additivity_and_defect():
    rows = _criterion(12, "eta_1 additivity and the k = 2 additivity defect", "additivity-defect")
    add = [r for r in rows if "additivity" in r.label][0]
    assert add.tolerance == 1e-6
    defect = [r for r in rows if "defect" in r.label][0]
    assert defect.tolerance == 1e-4


def test_criterion_13_divisor_flow():
    rows = _criterion(13, "divisor flow: -2 vs 0 and smoothing-width stability", "divisor-flow")
    assert len(rows) == 4
    assert all(r.tolerance == 1e-6 for r in rows)
    refs = sorted(complex(r.reference).real for r in rows)
    assert refs == [-2.0, -2.0, 0.0, 0.0]


def test_property_suites_quantified():
    # the ``--suite properties`` set and the trace compatibilities of
    # ``tr-derivative-check``, asserted at their module tolerances
    for exp_id in (
        "prop-d2",
        "prop-leibniz",
        "prop-maurer-cartan",
        "tr-derivative-check",
        "prop-regint-linearity",
        "prop-regint-convergent",
    ):
        report = run(ExperimentConfig(exp_id, budget="standard", seed=0))
        ok = report.passed
        print(f"ACCEPTANCE  P: {'PASS' if ok else 'FAIL'}  {exp_id}")
        assert ok, f"{exp_id}: worst deviation {report.worst_deviation:.3e}"
