"""Quantified invariant suites, mirrored by the CLI `--suite properties`, and
the trace compatibilities of `tr-derivative-check`."""

import numpy as np
import pytest

from etaforge.cli import ExperimentConfig, run


@pytest.mark.parametrize(
    "exp_id",
    [
        "prop-d2",
        "prop-leibniz",
        "prop-maurer-cartan",
        "tr-derivative-check",
        "prop-regint-linearity",
        "prop-regint-convergent",
    ],
)
def test_property_experiment(exp_id):
    report = run(ExperimentConfig(exp_id, budget="quick", seed=11))
    for row in report.rows:
        assert row.passed, f"{exp_id}: {row.label} deviated by {row.abs_deviation:.3e}"


def test_property_suite_seed_determinism():
    a = run(ExperimentConfig("prop-regint-linearity", budget="quick", seed=5))
    b = run(ExperimentConfig("prop-regint-linearity", budget="quick", seed=5))
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)
