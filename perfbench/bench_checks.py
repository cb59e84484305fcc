"""Checks owned by the benchmark (about a minute on two cores).

    python3 -m pytest -q perfbench/bench_checks.py

The file name keeps it out of the default ``pytest`` collection of the
library's own suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import EXACT_COUNTS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI = worker.import_etaforge()


def traced_pass(workload, seed):
    configs = worker.resolve_configs(CLI, workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        result = worker.run_pass(CLI, configs, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.layer_metrics(result["wall_s"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(name):
    first, layers1 = traced_pass(WORKLOADS[name], seed=3)
    second, layers2 = traced_pass(WORKLOADS[name], seed=3)
    assert first["failed"] == [] and second["failed"] == []
    assert first["report_hash"] == second["report_hash"]
    assert {k: layers1[k] for k in EXACT_COUNTS} == {k: layers2[k] for k in EXACT_COUNTS}
    # the layer each workload was chosen for does work there
    busy = {
        "matrix-eta": "clifford.action_points",
        "additivity-fd": "forms.node_evals",
        "scalar-regint": "quadrature.points",
        "spectral-trace": "partrace.summand_terms",
    }[name]
    assert layers1[busy] > 0


def test_uninstall_restores_every_entry_point():
    from etaforge import eta, experiments, forms, partrace

    before = (forms.MatrixFamily.__call__, partrace.SpectralFamily.summand, eta.sphere_integrate,
              experiments.sphere_integrate, experiments.eta_k)
    tracer = Tracer()
    tracer.install()
    assert experiments.sphere_integrate is not before[3] and eta.sphere_integrate is not before[2]
    tracer.uninstall()
    after = (forms.MatrixFamily.__call__, partrace.SpectralFamily.summand, eta.sphere_integrate,
             experiments.sphere_integrate, experiments.eta_k)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    emitted = set(Tracer().layer_metrics(0.0)) | {"tracing.wall_s", "tracing.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
