"""Batch front end: declarative experiment configs and machine-readable reports.

Usage:
    etaforge --suite all --budget standard --out reports/
    etaforge --config experiment.json --emit-csv
    etaforge --list

Config format (JSON, canonical key order for hashing):
    {"experiment": "sphere-omega", "params": {"k": 2}, "budget": "standard"}

Exit codes: 0 pass, 1 acceptance failure, 2 config error, 3 numeric failure,
4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .asymptotics import RadiusLadder
from .errors import ConfigError, EtaforgeError
from .experiments import BUDGETS, EXPERIMENTS, Budget, CheckRow, run_experiment
from .partrace import WindowConfig

__all__ = ["ExperimentConfig", "Report", "run", "suite", "main"]

_BUDGET_KEYS = {
    "preset", "radii", "r_min", "r_max", "n_radial", "n_radial_fine",
    "sphere_p3", "chart_s3", "eig_window", "eig_cap", "s_nodes",
}


def _preset(name) -> Budget:
    if not isinstance(name, str) or name not in BUDGETS:
        raise ConfigError(f"unknown budget preset {name!r}; known: {sorted(BUDGETS)}")
    return BUDGETS[name]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _budget_int(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"budget {key!r} must be an integer, got {value!r}")
    return value


def _budget_ints(spec: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    value = spec.get(key, default)
    if not (isinstance(value, (list, tuple)) and len(value) == len(default)
            and all(_is_int(v) and v >= 1 for v in value)):
        raise ConfigError(f"budget {key!r} must be {len(default)} positive integers, got {value!r}")
    return tuple(value)


def _resolve_budget(spec) -> Budget:
    if spec is None:
        return BUDGETS["standard"]
    if isinstance(spec, Budget):
        return spec
    if isinstance(spec, str):
        return _preset(spec)
    if not isinstance(spec, dict):
        raise ConfigError("budget must be a preset name or an object")
    unknown = set(spec) - _BUDGET_KEYS
    if unknown:
        raise ConfigError(f"unknown budget keys {sorted(unknown)}; allowed: {sorted(_BUDGET_KEYS)}")
    base = _preset(spec.get("preset", "standard"))
    r_min, r_max = (spec.get(key, getattr(base.ladder, key)) for key in ("r_min", "r_max"))
    if not all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in (r_min, r_max)):
        raise ConfigError(f"budget r_min and r_max must be numbers, got {r_min!r} and {r_max!r}")
    count = _budget_int(spec, "radii", base.ladder.count)
    if count > 128 or r_max > 2.0 ** 24:
        raise ConfigError("budget exceeds hard caps (radii <= 128, r_max <= 2^24)")
    if count < 2 or not 0 < r_min < r_max:
        raise ConfigError("budget below lower bounds (radii >= 2, 0 < r_min < r_max)")
    ladder = RadiusLadder(float(r_min), float(r_max), count)
    counts = {key: _budget_int(spec, key, getattr(base, key)) for key in ("n_radial", "n_radial_fine", "s_nodes")}
    start = _budget_int(spec, "eig_window", base.window.start)
    if min(counts.values()) < 1 or start < 1:
        raise ConfigError("budget below lower bounds (n_radial, n_radial_fine, s_nodes, eig_window >= 1)")
    window = WindowConfig(start=start, cap=_budget_int(spec, "eig_cap", base.window.cap))
    if window.cap > 16_777_216:
        raise ConfigError("budget exceeds hard caps (eigenvalue window cap <= 2^24)")
    if window.cap < start:
        raise ConfigError(f"budget eig_cap {window.cap} is below eig_window {start}")
    return replace(
        base,
        name=base.name + "+",
        ladder=ladder,
        sphere_p3=_budget_ints(spec, "sphere_p3", base.sphere_p3),
        chart_s3=_budget_ints(spec, "chart_s3", base.chart_s3),
        window=window,
        **counts,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: id, typed parameters, numeric budget, output path."""

    experiment: str
    params: dict = field(default_factory=dict)
    budget: object = "standard"
    out: str | None = None
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        allowed = {"experiment", "params", "budget", "out", "seed"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}; allowed: {sorted(allowed)}")
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' key")
        params, out, seed = data.get("params", {}), data.get("out"), data.get("seed", 0)
        if not isinstance(params, dict):
            raise ConfigError(f"params must be an object, got {params!r}")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out must be a path, got {out!r}")
        if not (_is_int(seed) and seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        return cls(
            experiment=str(data["experiment"]),
            params=dict(params),
            budget=data.get("budget", "standard"),
            out=out,
            seed=seed,
        )

    def canonical(self) -> dict:
        budget = self.budget.name if isinstance(self.budget, Budget) else self.budget
        return {
            "experiment": self.experiment,
            "params": self.params,
            "budget": budget,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Report:
    experiment: str
    inputs: dict
    rows: list[CheckRow]
    seconds: float
    config_hash: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def worst_deviation(self) -> float:
        return max((r.abs_deviation for r in self.rows), default=0.0)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "inputs": self.inputs,
            "checks": [r.to_dict() for r in self.rows],
            "pass": self.passed,
            "worst_abs_deviation": self.worst_deviation,
            "seconds": self.seconds,
            "config_hash": self.config_hash,
        }

    def to_json(self, include_timing: bool = True) -> str:
        data = self.to_dict()
        if not include_timing:
            data.pop("seconds")
        return json.dumps(data, sort_keys=True, indent=2)


def run(config: ExperimentConfig) -> Report:
    """Dispatch one experiment; raises ConfigError for schema violations and
    lets numeric failures propagate as EtaforgeError subclasses."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}; known: {sorted(EXPERIMENTS)}")
    budget = _resolve_budget(config.budget)
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    rows = run_experiment(config.experiment, config.params, budget, rng)
    elapsed = time.perf_counter() - start
    return Report(
        experiment=config.experiment,
        inputs=config.canonical(),
        rows=rows,
        seconds=elapsed,
        config_hash=config.config_hash(),
    )


def suite(tag: str = "all", budget="standard", seed: int = 0) -> list[Report]:
    """Run every registered experiment whose tag set (or id) matches."""
    reports = []
    for exp_id, spec in EXPERIMENTS.items():
        if tag != exp_id and tag not in spec.tags:
            continue
        cfg = ExperimentConfig(experiment=exp_id, budget=budget, seed=seed)
        reports.append(run(cfg))
    return reports


def _emit_csv(report: Report, out_dir: Path) -> None:
    path = out_dir / f"{report.experiment}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "value_re", "value_im", "reference_re", "reference_im", "abs_dev", "pass"])
        for r in report.rows:
            writer.writerow(
                [r.label, r.value.real, r.value.imag, complex(r.reference).real, complex(r.reference).imag,
                 r.abs_deviation, r.passed]
            )


def _write_report(report: Report, out_dir: Path, emit_csv: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{report.experiment}.json").write_text(report.to_json())
    if emit_csv:
        _emit_csv(report, out_dir)


def _print_report(report: Report) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}  {report.experiment:24s} worst |dev| = {report.worst_deviation:.3e}  ({report.seconds:.1f}s)")
    for r in report.rows:
        mark = "ok " if r.passed else "BAD"
        print(f"      [{mark}] {r.label}: value={r.value:.10g} ref={complex(r.reference):.10g} "
              f"dev={r.abs_deviation:.3e} tol={r.tolerance:g} ({r.kind}, {r.provenance})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="etaforge", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON file with one experiment config")
    parser.add_argument("--suite", help="run all experiments matching this tag (e.g. all, properties, clifford)")
    parser.add_argument("--out", help="directory for JSON reports")
    parser.add_argument("--budget", default="standard", help="quick | standard | precise")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized property corpora")
    parser.add_argument("--emit-csv", action="store_true", help="also write per-experiment CSV check tables")
    parser.add_argument("--list", action="store_true", help="list registered experiments and exit")
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, spec in EXPERIMENTS.items():
            print(f"{exp_id:24s} tags={sorted(spec.tags)}  {spec.description}")
        return 0

    try:
        if args.config:
            try:
                data = json.loads(Path(args.config).read_text())
            except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            cfg = ExperimentConfig.from_dict(data)
            if args.budget != "standard" and (isinstance(cfg.budget, str) and cfg.budget == "standard"):
                cfg = replace(cfg, budget=args.budget)
            reports = [run(cfg)]
            out = cfg.out or args.out
        elif args.suite is not None:
            reports = suite(args.suite, budget=args.budget, seed=args.seed)
            out = args.out
        else:
            parser.print_usage()
            return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EtaforgeError, ValueError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    for report in reports:
        _print_report(report)
        if out:
            _write_report(report, Path(out), args.emit_csv)

    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
