"""etaforge benchmark: end-to-end metrics per workload, or the traced per-layer split.

    python3 perfbench/run.py --workload matrix-eta --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every pass runs the workload's experiments through ``etaforge.cli.run``, the
path ``etaforge --config`` takes, so each timed pass is also checked against
the experiments' own oracles.  Each workload runs in fresh processes:
several set-up probes (median reported as ``setup_s``) and one worker that
runs a fixed number of passes and reports its peak memory.  With ``--trace
1`` the worker alternates untraced and traced passes and reports the
per-layer split instead.

For one workload, the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; for ``all``
it maps each workload to such an object.  Details (seed,
environment, report hashes, per-pass times) go to standard error and to
``perfbench/results/``.  The exit code is 0 only when every check row of
every pass passed and all passes produced byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS  # noqa: E402
from worker import THREAD_VARS  # noqa: E402
from workloads import LAYER_PREDICTIONS, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exp_pass_frac": "frac",
    "tol_headroom": "frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_point"):
        return "evals/point"
    return "count"


def environment(seed: int) -> dict:
    env = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": "unknown",
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        env["commit"] = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return env


def worker(args: list[str], env: dict, deadline: float | None) -> dict:
    """Run worker.py in a fresh interpreter and parse its last output line;
    ``deadline`` is a ``time.monotonic()`` value, or None for no limit."""
    timeout = None if deadline is None else max(deadline - time.monotonic(), 0.01)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict, deadline: float | None) -> dict:
    wl = WORKLOADS[name]
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(base + ["--setup-only"], env, deadline)["setup_s"])
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{name}-seed{seed}-trace{int(trace)}"
    passes = wl.pass_count(seconds)
    print(f"{name}: {passes} passes, seed {seed}{', traced' if trace else ''}", file=sys.stderr, flush=True)
    out = worker(base + ["--passes", str(passes), "--trace", str(int(trace)), "--spans-out", str(stem)], env, deadline)

    runs = out["passes"] + out["traced"]
    hashes = sorted({p["report_hash"] for p in runs})
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(len(p["failed"]) for p in runs)
    worst = max(p["worst_dev_ratio"] for p in runs)
    problems = [f"{p['failed']} failed" for p in runs if p["failed"]]
    if len(hashes) > 1:
        problems.append(f"passes disagree: report hashes {hashes}")
    if trace:
        counts = {tuple(p["layers"][k] for k in EXACT_COUNTS) for p in out["traced"]}
        if len(counts) > 1:
            problems.append(f"exact counts differ between traced passes: {sorted(counts)}")
    untraced = statistics.median(p["wall_s"] for p in out["passes"])
    if trace:
        layers = {k: statistics.median(p["layers"][k] for p in out["traced"]) for k in out["traced"][0]["layers"]}
        layers["tracing.wall_s"] = statistics.median(p["wall_s"] for p in out["traced"])
        layers["tracing.overhead_frac"] = layers["tracing.wall_s"] / untraced - 1.0
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        values = {
            "wall_s": untraced,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
            "exp_pass_frac": 1.0 - failed / attempted,
            "tol_headroom": 1.0 - min(worst, 1e6),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    detail = {
        "workload": name,
        "environment": dict(environment(seed), **out["versions"], threads=out["thread_env"]),
        "passes": passes,
        "pass_walls_s": [p["wall_s"] for p in out["passes"]],
        "traced_walls_s": [p["wall_s"] for p in out["traced"]],
        "setup_probes_s": setups,
        "report_hash": hashes[0] if len(hashes) == 1 else hashes,
        "worst_dev_ratio": worst,
        "exp_failed_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps({k: v for k, v in detail.items() if k != "metrics"}), file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "etaforge" / "__init__.py").is_file():
        print(f"error: no etaforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one thread per numeric library keeps the single worker within two cores;
    # a fixed hash seed makes allocation patterns, and so peak memory, repeat
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **{k: "1" for k in THREAD_VARS})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    # one workload must finish well inside the 180 s a single run may take
    deadline = None if args.workload == "all" else time.monotonic() + RUN_DEADLINE_S
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env, deadline) for n in names}
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for n, res in results.items():
        for metric, m in res["metrics"].items():
            note = f"  moves wall_s on: {LAYER_PREDICTIONS[metric]}" if metric in LAYER_PREDICTIONS else ""
            print(f"{n:16s} {metric:32s} {m['value']:>16.6g} {m['unit']:12s}{note}")
        print(f"{n:16s} {'correct':32s} {str(res['correct']):>16s}")
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
