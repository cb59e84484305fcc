"""Batch front end: declarative experiment configs and machine-readable reports.

Usage:
    etaforge --suite all --budget standard --out reports/
    etaforge --config experiment.json --emit-csv --out reports/
    etaforge --list

Config format (JSON, canonical key order for hashing):
    {"experiment": "sphere-omega", "params": {"k": 2}, "budget": "standard"}
--budget applies to a --config file exactly when the file has no budget key.

Exit codes: 0 pass, 1 acceptance failure, 2 config error, 3 numeric failure,
4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, EtaforgeError
from .experiments import BUDGETS, EXPERIMENTS, Budget, CheckRow, run_experiment

__all__ = ["ExperimentConfig", "Report", "run", "suite", "main"]

# budget counts: key -> (lower bound, hard cap), each cap at least 8x the precise preset's
_COUNTS = {"radii": (2, 128), "n_radial": (1, 512), "n_radial_fine": (1, 1024)}
_BUDGET_KEYS = {"preset", "r_max", "sphere_p3", *_COUNTS}


def _preset(name) -> Budget:
    if not isinstance(name, str) or name not in BUDGETS:
        raise ConfigError(f"unknown budget preset {name!r}; known: {sorted(BUDGETS)}")
    return BUDGETS[name]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve_budget(spec) -> Budget:
    if isinstance(spec, str):
        return _preset(spec)
    if not isinstance(spec, dict):
        raise ConfigError("budget must be a preset name or an object")
    unknown = set(spec) - _BUDGET_KEYS
    if unknown:
        raise ConfigError(f"unknown budget keys {sorted(unknown)}; allowed: {sorted(_BUDGET_KEYS)}")
    base = _preset(spec.get("preset", "standard"))
    b = {"radii": base.ladder.count, "r_max": base.ladder.r_max,
         **{key: getattr(base, key) for key in ("n_radial", "n_radial_fine", "sphere_p3")}, **spec}
    for key, (lower, cap) in _COUNTS.items():
        if not _is_int(b[key]):
            raise ConfigError(f"budget {key!r} must be an integer, got {b[key]!r}")
        if not lower <= b[key] <= cap:
            bound = "below lower bounds" if b[key] < lower else "exceeds hard caps"
            raise ConfigError(f"budget {bound} ({key} in [{lower}, {cap}], got {b[key]})")
    p3 = b["sphere_p3"]
    if not (isinstance(p3, (list, tuple)) and len(p3) == 2 and all(_is_int(n) and n >= 1 for n in p3)):
        raise ConfigError(f"budget 'sphere_p3' must be 2 positive integers, got {p3!r}")
    if math.prod(p3) > 2 ** 16:
        raise ConfigError(f"budget exceeds hard caps (sphere_p3 product <= 65536, got {math.prod(p3)})")
    r_max = b["r_max"]
    if not isinstance(r_max, (int, float)) or isinstance(r_max, bool):
        raise ConfigError(f"budget r_max must be a number, got {r_max!r}")
    if r_max > 2.0 ** 24:
        raise ConfigError("budget exceeds hard caps (r_max <= 2^24)")
    if not r_max > base.ladder.r_min:
        raise ConfigError(f"budget below lower bounds (r_max > {base.ladder.r_min:g}, where the ladder starts)")
    return Budget(replace(base.ladder, r_max=float(r_max), count=b["radii"]), sphere_p3=tuple(p3),
                  n_radial=b["n_radial"], n_radial_fine=b["n_radial_fine"])


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: id, typed parameters, numeric budget, output path."""

    experiment: str
    params: dict = field(default_factory=dict)
    budget: str | dict = "standard"
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: dict, budget: str = "standard") -> "ExperimentConfig":
        """The config ``data`` describes; ``budget`` applies when it has no
        budget key."""
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
        return cls(
            experiment=str(data["experiment"]),
            params=dict(params),
            budget=data.get("budget", budget),
            out=out,
            seed=seed,
        )

    def canonical(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "budget": self.budget,
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


def _suite_ids(tag: str) -> list[str]:
    """The registered experiments whose tag set (or id) matches; ConfigError,
    naming the known tags, when none does."""
    matched = [exp_id for exp_id, spec in EXPERIMENTS.items() if tag == exp_id or tag in spec.tags]
    if not matched:
        tags = sorted(set().union(*(spec.tags for spec in EXPERIMENTS.values())))
        raise ConfigError(f"no experiment matches suite tag {tag!r}; known tags: {tags}, or an experiment id")
    return matched


def suite(tag: str = "all", budget="standard", seed: int = 0) -> list[Report]:
    """Run every registered experiment whose tag set (or id) matches; raises
    ConfigError, naming the known tags, when none does."""
    return [run(ExperimentConfig(experiment=exp_id, budget=budget, seed=seed)) for exp_id in _suite_ids(tag)]


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


def _checked_out(out: str | None, emit_csv: bool) -> Path | None:
    """The report directory ``out`` (None for none), not made yet: the runs
    come first.  ConfigError names the path unless its nearest existing
    ancestor is a directory this process may write (a dangling symbolic link
    exists and is none), and when ``emit_csv`` has no directory to write to."""
    if not out:
        if emit_csv:
            raise ConfigError("--emit-csv needs a report directory: set --out or the config's out")
        return None
    path = Path(out)
    ancestor = next(p for p in (path, *path.absolute().parents) if os.path.lexists(p))
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot create output directory {out}: {ancestor} is not a writable directory")
    return path


def _write_reports(reports: list[Report], out_dir: Path, emit_csv: bool) -> None:
    """Make ``out_dir`` and write each report's JSON, and with ``emit_csv``
    its CSV table, into it; ConfigError names the directory when that fails."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            (out_dir / f"{report.experiment}.json").write_text(report.to_json())
            if emit_csv:
                _emit_csv(report, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write reports to {out_dir}: {exc}") from exc


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
    parser.add_argument("--budget", default="standard",
                        help="quick | standard | precise; a --config file's own budget key wins")
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
            cfg = ExperimentConfig.from_dict(data, budget=args.budget)
            out_dir = _checked_out(cfg.out or args.out, args.emit_csv)
            reports = [run(cfg)]
        elif args.suite is not None:
            out_dir = _checked_out(args.out, args.emit_csv)
            reports = suite(args.suite, budget=args.budget, seed=args.seed)
        else:
            parser.print_usage()
            return 2
        if out_dir:
            _write_reports(reports, out_dir, args.emit_csv)
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
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
