"""The byte-identity manifest of the 63 reports: 21 experiments at the quick,
standard and precise budgets, seed 0.

For each report it records the sha256 of ``Report.to_json(include_timing=False)``
and each check row's label, value and deviation, together with the numpy
version, the Python version and the CPU model it was made with.

    python tools/report_manifest.py --write            # regenerate it
    python tools/report_manifest.py                    # compare every budget
    python tools/report_manifest.py --budget standard  # compare one budget

A comparison prints every report whose rows moved and exits 1 if any did.
Where the environment is the manifest's, a report must hash to the recorded
value.  Elsewhere bits may differ between numpy builds and CPUs, so each row
must carry the recorded label and lie within ``DRIFT`` of its absolute
tolerance of the recorded value.  The package is imported from the ``src/``
beside this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from etaforge.cli import ExperimentConfig, run  # noqa: E402
from etaforge.experiments import EXPERIMENTS  # noqa: E402

MANIFEST = ROOT / "tools" / "report_manifest.json"
BUDGETS = ("quick", "standard", "precise")
SEED = 0
# the share of a row's absolute tolerance that its value may move by where
# the environment differs from the manifest's
DRIFT = 1e-3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }


def reports(budget: str) -> dict:
    """experiment id -> the report of every experiment at ``budget``."""
    return {
        exp_id: run(ExperimentConfig(experiment=exp_id, budget=budget, seed=SEED))
        for exp_id in EXPERIMENTS
    }


def entry(report) -> dict:
    return {
        "sha256": hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest(),
        "rows": [[r.label, [r.value.real, r.value.imag], r.abs_deviation] for r in report.rows],
    }


def _allowance(row) -> float:
    """``DRIFT`` of the row's tolerance as an absolute distance."""
    scale = 1.0 if row.kind == "abs" else abs(row.reference)
    return DRIFT * row.tolerance * scale


def moved(recorded: dict, report, same_env: bool) -> list[str]:
    """What moved in ``report`` against its ``recorded`` entry, one line each;
    empty when it matches."""
    lines = []
    if same_env and entry(report)["sha256"] != recorded["sha256"]:
        lines.append(f"{report.experiment}: sha256 differs")
    labels = [label for label, _, _ in recorded["rows"]]
    if labels != [r.label for r in report.rows]:
        return lines + [f"{report.experiment}: rows {labels} became {[r.label for r in report.rows]}"]
    for (label, (re, im), dev), row in zip(recorded["rows"], report.rows):
        shift = abs(row.value - complex(re, im))
        if (shift or row.abs_deviation != dev) if same_env else shift > _allowance(row):
            lines.append(
                f"{report.experiment} / {label}: value {complex(re, im)!r} -> {row.value!r}, "
                f"deviation {dev!r} -> {row.abs_deviation!r}"
            )
    return lines


def check(manifest: dict, budget: str) -> list[str]:
    """What moved in every report at ``budget`` against ``manifest``."""
    got = reports(budget)
    recorded = manifest["reports"][budget]
    same_env = manifest["environment"] == environment()
    lines = []
    if sorted(got) != sorted(recorded):
        lines.append(f"{budget}: experiments {sorted(recorded)} became {sorted(got)}")
    for exp_id in sorted(set(got) & set(recorded)):
        lines += [f"{budget} {line}" for line in moved(recorded[exp_id], got[exp_id], same_env)]
    return lines


def load(path: Path = MANIFEST) -> dict:
    return json.loads(path.read_text())


def dumps(manifest: dict) -> str:
    """The manifest as JSON with one check row per line, so that a diff of
    it names the rows that moved."""

    def block(items, indent, item_text):
        inner = ",\n".join(" " * (indent + 1) + item_text(item) for item in items)
        return "{\n" + inner + "\n" + " " * indent + "}"

    def report(item):
        exp_id, e = item
        rows = ",\n".join(" " * 5 + json.dumps(row) for row in e["rows"])
        return f'{json.dumps(exp_id)}: {{"sha256": {json.dumps(e["sha256"])}, "rows": [\n{rows}\n    ]}}'

    def budget(item):
        return f"{json.dumps(item[0])}: " + block(item[1].items(), 2, report)

    head = [f'"environment": {json.dumps(manifest["environment"])}', f'"seed": {manifest["seed"]}']
    return "{\n" + "".join(f" {line},\n" for line in head) + ' "reports": ' + block(
        manifest["reports"].items(), 1, budget) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="regenerate the manifest at every budget")
    parser.add_argument("--budget", action="append", choices=BUDGETS,
                        help="a budget to compare (repeatable; default all three)")
    parser.add_argument("--manifest", type=Path, default=MANIFEST, help="the manifest file")
    args = parser.parse_args(argv)
    if args.write:
        manifest = {
            "environment": environment(),
            "seed": SEED,
            "reports": {budget: {exp_id: entry(r) for exp_id, r in reports(budget).items()} for budget in BUDGETS},
        }
        args.manifest.write_text(dumps(manifest))
        return 0
    budgets = args.budget or list(BUDGETS)
    manifest = load(args.manifest)
    lines = [line for budget in budgets for line in check(manifest, budget)]
    print("\n".join(lines) if lines else f"{', '.join(budgets)}: every report matches the manifest")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
