"""One benchmark process: set-up probe, untraced passes, or traced passes.

Started by ``run.py`` in a fresh interpreter per workload, so that set-up
time and peak memory belong to that workload alone (retained closure trees
grow over passes, so a shared process would make peak memory measure pass
order).  Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --passes P --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

from workloads import WORKLOADS  # noqa: E402


def import_etaforge():
    """Import etaforge from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import etaforge.cli

    if Path(etaforge.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"etaforge imported from {etaforge.cli.__file__}, not from {src}")
    return etaforge.cli


def resolve_configs(cli, workload, seed):
    configs = [cli.ExperimentConfig.from_dict(d) for d in workload.configs(seed)]
    from etaforge.experiments import EXPERIMENTS

    missing = [c.experiment for c in configs if c.experiment not in EXPERIMENTS]
    if missing:
        raise SystemExit(f"workload {workload.name} names unknown experiments {missing}")
    return configs


def dev_ratio(row) -> float:
    """A check row's deviation as a share of its tolerance (> 1 fails)."""
    dev = row.abs_deviation if row.kind == "abs" else row.rel_deviation
    if row.tolerance > 0:
        return dev / row.tolerance
    return 0.0 if dev == 0 else math.inf


def run_pass(cli, configs, tracer=None) -> dict:
    """Run every config once through ``etaforge.cli.run`` and check its rows."""
    digest = hashlib.sha256()
    wall = 0.0
    failed = []
    worst = 0.0
    for run_id, cfg in enumerate(configs):
        if tracer is not None:
            tracer.run_id = run_id
            sid = tracer.open("experiment")
        start = time.perf_counter()
        try:
            report = cli.run(cfg)
        except Exception as exc:  # an experiment that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            report, text = None, f"{cfg.experiment} raised {type(exc).__name__}: {exc}"
        finally:
            wall += time.perf_counter() - start
            if tracer is not None:
                tracer.close(sid)
        if report is not None:
            text = report.to_json(include_timing=False)
            worst = max([worst] + [dev_ratio(r) for r in report.rows])
        if report is None or not report.passed:
            failed.append(cfg.experiment)
        digest.update(text.encode() + b"\n")
    return {
        "wall_s": wall,
        "report_hash": digest.hexdigest(),
        "attempted": len(configs),
        "failed": failed,
        "worst_dev_ratio": worst,
    }


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="file for the traced passes' spans (JSON lines)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    cli = import_etaforge()
    configs = resolve_configs(cli, workload, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = []
    traced = []
    for i in range(args.passes):
        if args.trace and i % 2 == 1:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                result = run_pass(cli, configs, tracer)
            finally:
                tracer.uninstall()
            result["layers"] = tracer.layer_metrics(result["wall_s"])
            if args.spans_out:
                tracer.write_spans(f"{args.spans_out}.pass{i}.jsonl")
            traced.append(result)
        else:
            result = run_pass(cli, configs)
            passes.append(result)
        print(f"  pass {i}{' (traced)' if 'layers' in result else ''}: {result['wall_s']:.3f} s",
              file=sys.stderr, flush=True)

    out = {
        "passes": passes,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
