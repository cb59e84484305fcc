"""The quick reports against the committed byte-identity manifest
(``tools/report_manifest.py``), and the manifest's comparison on planted
changes."""

import importlib.util
import math
from pathlib import Path

from etaforge.cli import Report
from etaforge.experiments import CheckRow

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_manifest.py"
_spec = importlib.util.spec_from_file_location("report_manifest", _SCRIPT)
report_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_manifest)


def test_quick_reports_match_the_manifest():
    # hashes where the environment is the manifest's, row values within
    # report_manifest.DRIFT of their tolerance elsewhere
    assert report_manifest.check(report_manifest.load(), "quick") == []


def _report(*values) -> Report:
    rows = [
        CheckRow("absolute row", values[0], 1.0, 1e-6),
        CheckRow("relative row", values[1], 2.0, 1e-3, kind="rel"),
    ]
    return Report("planted", {}, rows, 0.0, "0")


def test_the_manifest_names_a_planted_row_change():
    recorded = report_manifest.entry(_report(1.0, 2.0))
    assert report_manifest.moved(recorded, _report(1.0, 2.0), same_env=True) == []
    assert report_manifest.moved(recorded, _report(1.0, 2.0), same_env=False) == []
    # one unit in the last place moves the hash and the row where the environment matches
    ulp = _report(math.nextafter(1.0, 2.0), 2.0)
    lines = report_manifest.moved(recorded, ulp, same_env=True)
    assert lines[0] == "planted: sha256 differs" and lines[1].startswith("planted / absolute row: value (1+0j) -> ")
    assert len(lines) == 2
    # elsewhere a row may move by DRIFT of its absolute tolerance, and no more
    drift = report_manifest.DRIFT
    assert report_manifest.moved(recorded, ulp, same_env=False) == []
    assert report_manifest.moved(recorded, _report(1.0, 2.0 + 0.9 * drift * 2e-3), same_env=False) == []
    far = report_manifest.moved(recorded, _report(1.0, 2.0 + 1.1 * drift * 2e-3), same_env=False)
    assert len(far) == 1 and far[0].startswith("planted / relative row: ")
    # a renamed or missing row is named in either environment
    renamed = Report("planted", {}, _report(1.0, 2.0).rows[:1], 0.0, "0")
    for same_env in (True, False):
        assert report_manifest.moved(recorded, renamed, same_env)[-1].startswith("planted: rows ")
