"""Every function in ``src/etaforge`` is called when the CLI runs both
suites, the listing and one config file.  A function that no run reaches is
checked only by the tests written beside it: it moves into the tests as an
oracle, or it goes."""

import importlib
import inspect
import json
import pkgutil
import sys

import etaforge
from etaforge.cli import main

# Unreached by the runs below, and kept: one reason each.
ALLOWED = {
    # error path: raised for a singular family, which no passing run meets
    "etaforge.errors.SingularFamilyError.__init__",
    # error path: names the colliding basis functions of a degenerate fit
    "etaforge.asymptotics._basis_label",
    # bound by name in perfbench/tracer.py
    "etaforge.quadrature.sphere_chart",
    # bound by name in perfbench/tracer.py
    "etaforge.partrace.l2_trace",
    # bound by name in perfbench/tracer.py
    "etaforge.partrace.tr_param",
}


def _functions(obj):
    """The plain functions behind a module attribute or class member."""
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, (classmethod, staticmethod)):
        return [obj.__func__]
    obj = inspect.unwrap(obj)
    return [obj] if inspect.isfunction(obj) else []


def _defined_functions() -> dict:
    """Code object -> qualified name of every module-level function and every
    method of a module-level class written in an etaforge source file; the
    filename test leaves out imported names and generated dataclass methods."""
    out = {}
    for info in pkgutil.iter_modules(etaforge.__path__):
        module = importlib.import_module(f"etaforge.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "__wrapped__") and hasattr(value, "cache_clear"):
                value.cache_clear()  # a cached function must run again to be seen
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in (fn for member in members for fn in _functions(member)):
                if fn.__code__.co_filename == module.__file__:
                    out[fn.__code__] = f"{module.__name__}.{fn.__qualname__}"
    return out


def _called_codes(runs) -> set:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return called


def test_every_function_is_reached_by_the_cli(tmp_path, capsys):
    defined = _defined_functions()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "trace-tanh",
        "params": {"mus": [0.5, 2], "a": 0.25},
        "budget": {"preset": "quick", "radii": 12, "r_min": 4, "r_max": 1024.0, "eig_window": 1024,
                   "eig_cap": 65536, "sphere_p3": [6, 12], "chart_s3": [6, 12, 12]},
    }))
    called = _called_codes([
        ["--suite", "all", "--budget", "quick", "--out", str(tmp_path / "all")],
        ["--suite", "properties", "--budget", "quick"],
        ["--list"],
        ["--config", str(config), "--out", str(tmp_path / "config"), "--emit-csv"],
    ])
    capsys.readouterr()
    unreached = sorted(name for code, name in defined.items() if code not in called)
    new = [name for name in unreached if name not in ALLOWED]
    assert not new, f"no CLI run calls {', '.join(new)}"
    stale = sorted(ALLOWED - set(unreached))
    assert not stale, f"allowed but reached or gone: {', '.join(stale)}"
