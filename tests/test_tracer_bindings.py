"""The benchmark's tracer binds etaforge entry points by name; installing and
uninstalling it must find every name and leave every binding as it was."""

import importlib.util
import sys
from pathlib import Path

import pytest

import etaforge.cli  # noqa: F401  (the tracer rebinds names in every loaded etaforge module)
from etaforge import asymptotics, eta, forms, partrace, quadrature

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "etaforge" or name.startswith("etaforge.")):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    out["MatrixFamily.__call__"] = forms.MatrixFamily.__dict__["__call__"]
    out["SpectralFamily.summand"] = partrace.SpectralFamily.__dict__["summand"]
    return out


def test_tracer_install_and_uninstall_restore_every_entry_point():
    tracer_module = _load_tracer()
    traced = [(quadrature, n) for n in tracer_module.QUADRATURE_LOOPS + ("sphere_chart",)]
    traced += [(asymptotics, "_weighted_power_fit"), (forms, "sphere_integrate")]
    traced += [(forms, n) for n in tracer_module.FORMS_BUILDERS]
    traced += [(partrace, n) for n in tracer_module.PARTRACE_ENTRY_POINTS]
    traced += [(eta, n) for n in tracer_module.ETA_ENTRY_POINTS]
    before = _bindings()
    originals = [getattr(mod, name) for mod, name in traced]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        rebound = [getattr(mod, name) is not orig for (mod, name), orig in zip(traced, originals)]
    finally:
        tracer.uninstall()

    assert all(rebound)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
