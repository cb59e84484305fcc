import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaforge.asymptotics import RadiusLadder
from etaforge.cli import _BUDGET_KEYS, ExperimentConfig, Report, _resolve_budget, main, run, suite
from etaforge.errors import ConfigError, FitError
from etaforge.experiments import BUDGETS, EXPERIMENTS, Budget, CheckRow, exp_mellin_zero
from etaforge.partrace import WindowConfig


def test_registry_size_and_tags():
    all_ids = [k for k, v in EXPERIMENTS.items() if "all" in v.tags]
    assert len(all_ids) == 16
    props = [k for k, v in EXPERIMENTS.items() if "properties" in v.tags]
    assert len(props) == 5
    assert not set(props) & set(all_ids)


def test_suite_filters():
    reports = suite("clifford", budget="quick")
    assert len(reports) == 1 and reports[0].experiment == "clifford-check"
    assert reports[0].passed
    with pytest.raises(ConfigError, match="no experiment matches suite tag 'nonexistent-tag'; known tags: .*'properties'"):
        suite("nonexistent-tag")


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run(ExperimentConfig("no-such-thing"))


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "clifford-check", "bogus": 1})
    with pytest.raises(ConfigError):
        run(ExperimentConfig("clifford-check", params={"bogus": 1}, budget="quick"))
    # a config that is not an object, params that are not one, a seed that
    # is not a non-negative integer and an out that is not a path
    for bad in ([], {"experiment": "clifford-check", "params": None}, {"experiment": "clifford-check", "seed": -1},
                {"experiment": "clifford-check", "seed": 1.5}, {"experiment": "clifford-check", "out": [1]}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)


def test_budget_validation():
    with pytest.raises(ConfigError):
        run(ExperimentConfig("clifford-check", budget="turbo"))
    with pytest.raises(ConfigError):
        run(ExperimentConfig("clifford-check", budget={"preset": "turbo"}))
    with pytest.raises(ConfigError):
        run(ExperimentConfig("clifford-check", budget={"radii": 10_000}))
    # lower bounds: empty rules are config errors
    for bad in ({"radii": 1}, {"n_radial": 0}, {"n_radial_fine": 0}, {"r_max": 3.0}, {"r_max": 4.0},
                {"r_max": math.nan}, {"radii": 16.0}, {"radii": "16"}, {"sphere_p3": [0, 4]}, {"preset": ["quick"]}):
        with pytest.raises(ConfigError):
            run(ExperimentConfig("trace-tanh", budget={"preset": "quick", **bad}))
    # the eigenvalue window, the S^3 rule, the divisor-flow s-rule and the
    # ladder's start are the library's, not the budget's: the retired keys are unknown
    for key, value in (("eig_window", 512), ("eig_cap", 512), ("chart_s3", [24, 24, 48]), ("s_nodes", 16),
                       ("r_min", 4.0)):
        with pytest.raises(ConfigError, match="unknown budget keys"):
            run(ExperimentConfig("eta-suspension", budget={"preset": "quick", key: value}))
    # upper caps: counts that would allocate without bound, each at least 8x the precise preset
    for bad in ({"n_radial": 513}, {"n_radial_fine": 1025}, {"sphere_p3": [257, 256]}):
        with pytest.raises(ConfigError, match="hard caps"):
            run(ExperimentConfig("trace-tanh", budget={"preset": "quick", **bad}))
    at_caps = {"n_radial": 512, "n_radial_fine": 1024, "sphere_p3": [256, 256]}
    assert _resolve_budget({"preset": "precise", **at_caps}).sphere_p3 == (256, 256)
    with pytest.raises(ValueError):
        WindowConfig(start=0)
    # a non-integer window would shift the spectrum to half-integers; a cap
    # below the start would be ignored
    for bad, field in [({"start": 64.5}, "start"), ({"start": 4096.0}, "start"), ({"start": True}, "start"),
                       ({"cap": 2.0 ** 20}, "cap"), ({"cap": False}, "cap"), ({"start": 4096, "cap": 100}, "cap")]:
        with pytest.raises(ValueError, match=f"window {field}"):
            WindowConfig(**bad)
    r = run(ExperimentConfig("clifford-check", budget={"preset": "quick", "radii": 12}))
    assert r.passed


@pytest.mark.parametrize("experiment", ["trace-tanh", "variation-check", "sphere-omega", "stokes-check", "cov-check"])
def test_report_determinism(experiment):
    # variation-check and sphere-omega evaluate forms: no batch state may leak
    # into the second run; stokes-check and cov-check hold point buffers in
    # their finite-difference partial and substitution closures
    cfg = ExperimentConfig(experiment, budget="quick", seed=3)
    r1, r2 = run(cfg), run(cfg)
    assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)
    assert r1.config_hash == r2.config_hash


def test_config_hash_tracks_canonical_config():
    a = ExperimentConfig("trace-tanh", budget="quick", seed=3)
    b = ExperimentConfig("trace-tanh", budget="quick", seed=4)
    c = ExperimentConfig("trace-tanh", params={"mus": (1.0,)}, budget="quick", seed=3)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.config_hash() == ExperimentConfig("trace-tanh", budget="quick", seed=3).config_hash()


def test_report_schema():
    r = run(ExperimentConfig("clifford-check", params={"k_max": 2}, budget="quick"))
    data = json.loads(r.to_json())
    assert data["experiment"] == "clifford-check"
    assert data["pass"] is True
    assert data["config_hash"] == r.config_hash
    for row in data["checks"]:
        dev = row["abs_deviation"] if row["kind"] == "abs" else row["rel_deviation"]
        assert row["pass"] == (dev <= row["tolerance"])


def test_zero_reference_has_no_relative_deviation():
    row = CheckRow("zero reference", 3e-9 + 4e-9j, 0.0, 1e-8, "abs")
    assert row.rel_deviation is None and row.passed
    data = json.loads(json.dumps(row.to_dict()))
    assert data["rel_deviation"] is None and data["abs_deviation"] == pytest.approx(5e-9)
    assert CheckRow("nonzero reference", 2.5, 2.0, 0.3, "rel").rel_deviation == 0.25
    with pytest.raises(ValueError, match="nonzero reference"):
        CheckRow("relative to zero", 1e-20, 0j, 1e-6, "rel")


def test_main_config_file(tmp_path, capsys):
    cfg = {"experiment": "clifford-check", "params": {"k_max": 3}, "budget": "quick"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["--config", str(path), "--out", str(tmp_path / "reports")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "clifford-check" in out
    written = json.loads((tmp_path / "reports" / "clifford-check.json").read_text())
    assert written["pass"] is True


@pytest.mark.parametrize("budget_key, argv, want", [
    ({}, [], "standard"),
    ({}, ["--budget", "quick"], "quick"),
    # a config's own budget key wins over --budget, whichever preset it names
    ({"budget": "standard"}, ["--budget", "quick"], "standard"),
    ({"budget": "precise"}, ["--budget", "quick"], "precise"),
    ({"budget": {"preset": "quick"}}, ["--budget", "precise"], {"preset": "quick"}),
])
def test_budget_flag_applies_exactly_when_the_config_has_no_budget_key(tmp_path, capsys, budget_key, argv, want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "clifford-check", "params": {"k_max": 1}, **budget_key}))
    assert main(["--config", str(path), "--out", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "clifford-check.json").read_text())["inputs"]["budget"] == want


def test_a_null_budget_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "clifford-check", "budget": None}))
    assert main(["--config", str(path), "--budget", "quick"]) == 2
    assert "budget must be a preset name or an object" in capsys.readouterr().err


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "clifford-check", "what": 1}))
    assert main(["--config", str(bad)]) == 2
    # an unreadable or malformed config file is bad input, not a crash
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["--config", str(garbled)]) == 2
    missing = tmp_path / "numeric.json"
    # an undersized ladder cannot carry the declared model: numeric failure
    missing.write_text(
        json.dumps({"experiment": "regint-demo", "budget": {"preset": "quick", "radii": 4}})
    )
    assert main(["--config", str(missing)]) == 3
    # a suite tag that matches no experiment (tags are case-sensitive) runs nothing
    capsys.readouterr()
    for tag in ("nosuchtag", "ALL"):
        assert main(["--suite", tag, "--budget", "quick"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: no experiment matches suite tag {tag!r}")
    # a parameter of the wrong type, out of range or unknown (the retired
    # clifford-check k and divisor-flow path included), an integer or
    # near-integer circle offset or a mollifier width that is not positive is
    # a config error
    capsys.readouterr()
    for experiment, params in [
        ("clifford-check", {"k_max": "x"}),
        ("spectral-eta", {"offsets": [0.25]}),
        ("eta-suspension", {"a": 2}),
        ("trace-tanh", {"a": 1e-13}),
        ("eta-suspension", {"a": 3.0000000000001}),
        ("tr-derivative-check", {"a": -0.9999999999999}),
        ("clifford-check", {"k_max": 0}),
        ("clifford-check", {"k": 2}),
        ("clifford-check", {"k_max": 9}),
        ("sphere-omega", {"k": 0}),
        ("sphere-omega", {"k": 3}),
        ("rp-omega", {"k": 3}),
        ("spectral-eta", {"k": 1}),
        ("spectral-eta", {"k": 6}),  # its fit basis is ill-conditioned from k = 6 on
        ("eta-suspension", {"k": 0}),
        ("eta-suspension", {"k": 6}),
        ("divisor-flow", {"path": "linear"}),
        ("divisor-flow", {"width": -1.0}),
        ("divisor-flow", {"width": 0.0}),
        ("divisor-flow", {"width": 10 ** 400}),
        ("trace-tanh", {"a": 10 ** 400}),
        ("trace-tanh", {"a": 1.0}),
        ("tr-derivative-check", {"a": 2}),
        ("divisor-flow", {"width": 5e-324}),  # its half, for the halving row, is 0
        ("prop-d2", {"k": 2}),
        ("prop-regint-convergent", {"n": 1}),
        # json.loads accepts Infinity and NaN, and a float parameter must be finite
        ("eta-suspension", {"a": math.inf}),
        ("eta-suspension", {"a": math.nan}),
        ("trace-tanh", {"a": math.inf}),
        ("trace-tanh", {"a": math.nan}),
        # a list parameter takes a list, of finite floats
        ("trace-tanh", {"mus": 5}),
        ("trace-tanh", {"mus": [math.inf]}),
        ("trace-tanh", {"mus": [math.nan]}),
    ]:
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"experiment": experiment, "params": params, "budget": "quick"}))
        assert main(["--config", str(wrong)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
    # a crash is neither an acceptance failure (1) nor a numeric failure (3)
    def crash_inside(params, budget, rng):
        return 1 / 0

    monkeypatch.setitem(EXPERIMENTS, "trace-tanh", replace(EXPERIMENTS["trace-tanh"], func=crash_inside))
    crash = tmp_path / "crash.json"
    crash.write_text(json.dumps({"experiment": "trace-tanh", "budget": "quick"}))
    assert main(["--config", str(crash)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ZeroDivisionError: ") and err.count("\n") == 1


@pytest.mark.parametrize("experiment, key", [("trace-tanh", "mus")])
def test_an_empty_list_parameter_is_a_config_error_that_says_so(tmp_path, capsys, experiment, key):
    # a list parameter must not be empty: no check row would run
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"experiment": experiment, "params": {key: []}, "budget": "quick"}))
    assert main(["--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: parameter {key!r} must be a non-empty list, got []")
    assert not (tmp_path / "d").exists()


def test_trace_tanh_reference_holds_off_the_half_offset():
    # the reference is the sum for any offset a, with its limit at mu = 0
    report = run(ExperimentConfig("trace-tanh", params={"a": 0.25, "mus": [0.0, 0.5, 5.0]}, budget="quick"))
    assert report.passed and len(report.rows) == 3


def test_every_preset_sums_in_the_library_window(tmp_path, capsys):
    # no budget carries an eigenvalue window, so each preset sums in
    # partrace.DEFAULT_WINDOW: mu = 4e6 needs a first window of |mu|/8 =
    # 500,000 at quick too, and mu = 1e8 is above the one cap at every preset
    assert not any(hasattr(budget, "window") for budget in BUDGETS.values())
    path = tmp_path / "tanh.json"
    for preset, mu, code in [("quick", 4e6, 0), *((preset, 1e8, 3) for preset in sorted(BUDGETS))]:
        path.write_text(json.dumps({"experiment": "trace-tanh", "params": {"mus": [mu]}, "budget": preset}))
        assert main(["--config", str(path)]) == code, (preset, mu)
    capsys.readouterr()


@pytest.mark.parametrize("experiment, a", [
    ("trace-tanh", -3000.3), ("trace-tanh", 100000.4),
    ("tr-derivative-check", -3000.3), ("tr-derivative-check", 100000.4),
    ("eta-suspension", -3000.3),
])
def test_an_offset_far_from_zero_passes(tmp_path, experiment, a):
    # the eigenvalue window follows the spectrum, so |a| beyond the window is
    # summed around the eigenvalues nearest 0
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"experiment": experiment, "params": {"a": a}, "budget": "quick"}))
    assert main(["--config", str(path)]) == 0


def test_main_suite_and_csv(tmp_path, capsys):
    code = main(["--suite", "clifford", "--budget", "quick", "--out", str(tmp_path), "--emit-csv"])
    assert code == 0
    assert (tmp_path / "clifford-check.json").exists()
    csv_text = (tmp_path / "clifford-check.csv").read_text()
    assert csv_text.splitlines()[0].startswith("label,")


def _no_experiment_runs(monkeypatch):
    # every experiment body refuses to run; run_experiment's own id check stays
    def refuse(*args):
        raise AssertionError("an experiment ran")

    for exp_id, spec in EXPERIMENTS.items():
        monkeypatch.setitem(EXPERIMENTS, exp_id, replace(spec, func=refuse))


def test_an_out_path_that_is_a_file_is_a_config_error_before_any_run(tmp_path, capsys, monkeypatch):
    _no_experiment_runs(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "clifford-check", "budget": "quick", "out": str(taken)}))
    for argv in (["--suite", "clifford", "--budget", "quick", "--out", str(taken)], ["--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot create output directory {taken}: ")
        assert captured.out == ""


def test_an_out_path_through_a_dangling_link_is_a_config_error_before_any_run(tmp_path, capsys, monkeypatch):
    # os.path.exists is false for a dangling link, so a probe built on it passed
    # the link's directory, ran every experiment and only then failed to write
    _no_experiment_runs(monkeypatch)
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "nowhere" / "x")
    out = link / "a"
    assert main(["--suite", "clifford", "--budget", "quick", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot create output directory {out}: {link} is not a writable")
    assert captured.out == ""
    assert not (tmp_path / "nowhere").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--suite", "nosuchtag"], None, "no experiment matches suite tag 'nosuchtag'"),
    (["--suite", "clifford", "--budget", "turbo"], None, "unknown budget preset 'turbo'"),
    (["--config"], {"experiment": "no-such-thing"}, "unknown experiment 'no-such-thing'"),
    (["--config"], {"experiment": "clifford-check", "budget": {"radii": 1}}, "budget below lower bounds"),
])
def test_a_config_error_leaves_no_report_directory(tmp_path, capsys, monkeypatch, argv, config, message):
    # the suite tag, the experiment id and the budget are checked before --out is made
    _no_experiment_runs(monkeypatch)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + [str(path)]
    out = tmp_path / "d" / "a"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv, config", [
    (["--config"], {"experiment": "clifford-check", "params": {"k_max": 9}, "budget": "quick"}),
    (["--config"], {"experiment": "trace-tanh", "params": {"a": 1.0}, "budget": "quick"}),
    (["--config"], {"experiment": "divisor-flow", "params": {"width": 5e-324}, "budget": "quick"}),
    (["--suite", "clifford", "--budget", "quick", "--seed", "-1"], None),
])
def test_an_error_found_by_a_run_leaves_no_report_directory(tmp_path, capsys, argv, config):
    # experiment parameters are checked inside the experiment, after --out is probed
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + [str(path)]
    assert main(argv + ["--out", str(tmp_path / "d" / "a")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "d").exists()


def test_a_numeric_failure_leaves_no_report_directory(tmp_path, capsys, monkeypatch):
    def fail_inside(params, budget, rng):
        raise FitError("planted fit failure")

    monkeypatch.setitem(EXPERIMENTS, "clifford-check", replace(EXPERIMENTS["clifford-check"], func=fail_inside))
    assert main(["--suite", "clifford", "--budget", "quick", "--out", str(tmp_path / "d" / "a")]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: FitError: planted fit failure")
    assert not (tmp_path / "d").exists()


def test_a_report_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    (tmp_path / "w" / "clifford-check.json").mkdir(parents=True)
    assert main(["--suite", "clifford", "--budget", "quick", "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write reports to {tmp_path / 'w'}: ") and err.count("\n") == 1


def test_emit_csv_without_a_report_directory_is_a_config_error_before_any_run(tmp_path, capsys, monkeypatch):
    _no_experiment_runs(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "clifford-check", "budget": "quick"}))
    for argv in (["--config", str(cfg)], ["--suite", "clifford", "--budget", "quick"]):
        assert main(argv + ["--emit-csv"]) == 2
        assert capsys.readouterr().err.startswith("config error: --emit-csv needs a report directory: set --out")


def test_spectral_eta_k_is_limited_to_five(tmp_path, capsys):
    path = tmp_path / "k6.json"
    path.write_text(json.dumps({"experiment": "spectral-eta", "params": {"k": 6}, "budget": "quick"}))
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: parameter 'k' must be in [2, 5], got 6")


def test_a_negative_seed_flag_is_a_config_error_before_any_run(capsys, monkeypatch):
    _no_experiment_runs(monkeypatch)
    assert main(["--suite", "clifford", "--budget", "quick", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: seed must be a non-negative integer, got -1")
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        ExperimentConfig("clifford-check", seed=-1)


def test_main_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "divisor-flow" in out and "properties" in out


def test_ladder_starting_below_one():
    # the half-line pieces then start with a backwards panel; the finite parts
    # must not depend on where the ladder starts
    budget = replace(BUDGETS["quick"], ladder=RadiusLadder(0.5, 4096.0, 16))
    rows = exp_mellin_zero({}, budget, np.random.default_rng(0))
    assert rows and all(r.passed for r in rows)


# Anything json.loads can return: NaN, infinities and integers of any size included.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# budget values mostly in range, so that many budgets resolve, with the
# edges of each range and non-finite radii among them
_counts = st.integers(0, 64)
_edges = st.sampled_from([0, 0.0, -0.0, -1.0, 2.0 ** 24, 2.0 ** 24 + 1, math.nan, math.inf, -math.inf])
_budget_values = {
    "preset": st.sampled_from(sorted(BUDGETS)),
    "radii": st.integers(0, 130),
    "r_max": st.floats(2.0, 2.0 ** 24) | st.integers(100, 2 ** 24) | _edges,
    "n_radial": _counts, "n_radial_fine": _counts,
    "sphere_p3": st.lists(st.integers(-1, 40), min_size=2, max_size=2),
}
assert set(_budget_values) == _BUDGET_KEYS
_budget = st.fixed_dictionaries({}, optional={k: st.one_of(v, v, v, _json) for k, v in _budget_values.items()})
_config = st.fixed_dictionaries(
    {"experiment": st.sampled_from(sorted(EXPERIMENTS)) | _json},
    optional={
        "params": st.dictionaries(st.text(max_size=6), _json, max_size=3) | _json,
        "budget": _budget | _budget | st.sampled_from(sorted(BUDGETS)) | _json,
        "out": st.none() | st.text(max_size=6) | _json,
        "seed": st.integers(0, 5) | _json,
    },
)


def _check_budget(budget):
    assert isinstance(budget, Budget)
    assert 0 < budget.ladder.r_min < budget.ladder.r_max <= 2.0 ** 24 and 2 <= budget.ladder.count <= 128
    assert min(budget.n_radial, budget.n_radial_fine) >= 1
    assert len(budget.sphere_p3) == 2
    assert all(isinstance(n, int) and n >= 1 for n in budget.sphere_p3)


@settings(max_examples=200, deadline=None)
@given(_config | _json | st.dictionaries(st.text(max_size=6), _json))
def test_config_parsing_resolves_or_raises_config_error(data):
    try:
        cfg = ExperimentConfig.from_dict(data)
        budget = _resolve_budget(cfg.budget)
    except ConfigError:
        return
    assert isinstance(cfg.params, dict) and isinstance(cfg.seed, int) and cfg.seed >= 0
    _check_budget(budget)
    cfg.config_hash()


@settings(max_examples=200, deadline=None)
@given(_budget)
def test_budget_parsing_resolves_in_range_or_raises_config_error(spec):
    try:
        budget = _resolve_budget(spec)
    except ConfigError:
        return
    _check_budget(budget)


def test_import_leaves_scipy_out():
    # a fresh interpreter: this one has imported scipy and mpmath for the test
    # oracles; mpmath loads only with the experiments that use its quadrature
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, etaforge.cli; sys.exit('scipy' in sys.modules or 'mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize("experiment", ["rp-omega", "prop-regint-convergent"])
def test_quadrature_oracle_ignores_the_global_mpmath_precision(experiment):
    cfg = ExperimentConfig(experiment, budget="quick")
    want = run(cfg).to_json(include_timing=False)
    saved = mpmath.mp.dps
    # 40 digits as the mpmath oracle tests use; at 8 an unpinned oracle would move
    for dps in (40, 8):
        try:
            mpmath.mp.dps = dps
            got = run(cfg).to_json(include_timing=False)
        finally:
            mpmath.mp.dps = saved
        assert got == want, dps


# Run-level fuzz: whole configs through cli.main.  Valid configs name only
# experiments that take well under a second at the quick budget; a config for
# any other experiment carries a budget value that no resolution accepts.
_CHEAP = ["clifford-check", "divisor-flow"] + sorted(e for e in EXPERIMENTS if e.startswith("prop-"))
_not_int = st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.integers())
_not_number = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.floats(), max_size=2)
_bad_count = st.integers(max_value=0) | st.integers(min_value=1025) | _not_int
_bad_budget_values = {
    "preset": st.text(max_size=8).filter(lambda t: t not in BUDGETS) | _not_int,
    "radii": st.integers(max_value=1) | st.integers(min_value=129) | _not_int,
    "r_max": st.floats(max_value=0.0) | st.floats(min_value=2.0 ** 24, exclude_min=True) | _not_number,
    "n_radial": _bad_count, "n_radial_fine": _bad_count,
    "sphere_p3": st.sampled_from([[300, 300], [0, 4], [4], [4, 4, 4]]) | _not_int,
}
assert set(_bad_budget_values) == _BUDGET_KEYS
_bad_budget = st.sampled_from(sorted(_BUDGET_KEYS)).flatmap(
    lambda key: st.fixed_dictionaries(
        {key: _bad_budget_values[key]}, optional={} if key == "preset" else {"preset": st.just("quick")}
    )
)
_known_params = st.fixed_dictionaries({}, optional={
    "k_max": st.integers(-1, 4) | st.sampled_from([9, 10 ** 30]) | _json,
    "width": st.floats(allow_nan=True) | st.integers() | _json,
})
_cheap_params = _known_params | _known_params | st.dictionaries(st.text(max_size=6), _json, max_size=3) | _json
_top = {
    "seed": st.integers(0, 5) | st.integers(0, 5) | _json,
    "out": st.none() | st.none() | st.booleans() | st.integers() | st.lists(st.text(max_size=3)),  # never a path
}


def _rejected(data: dict) -> bool:
    """Whether a config of the cheap branch fails before its experiment runs."""
    seed = data.get("seed", 0)
    return data.get("out") is not None or not (type(seed) is int and seed >= 0)


_cheap_configs = st.fixed_dictionaries(
    {"experiment": st.sampled_from(_CHEAP)},
    optional={"budget": st.sampled_from(["quick", {"preset": "quick"}]), "params": _cheap_params, **_top},
).map(lambda data: (data, _rejected(data)))
_run_configs = st.one_of(
    _cheap_configs,
    _cheap_configs,
    # every experiment, and names that are none, behind a budget that never resolves
    st.fixed_dictionaries(
        {"experiment": st.sampled_from(sorted(EXPERIMENTS)) | _json, "budget": _bad_budget},
        optional={"params": _cheap_params, "bogus": _json, **_top},  # "bogus": an unknown key
    ).map(lambda data: (data, True)),
    _json.map(lambda data: (data, True)),  # never has an "experiment" key
)


@settings(max_examples=100, deadline=None)
@given(_run_configs)
def test_main_on_fuzzed_configs_exits_with_a_known_code(tmp_path_factory, case):
    data, rejected = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_text(json.dumps(data))
    # without a budget in the config, --budget quick applies
    code = main(["--config", str(path), "--budget", "quick"])
    assert code in {0, 1, 2, 3, 4}
    if rejected:
        assert code == 2
