"""Span recorder for the traced benchmark run.

The tracer wraps the public entry points of each etaforge layer from outside
the package: it rebinds every module attribute that holds an entry point
(functions imported by name, such as ``sphere_integrate`` in both ``eta`` and
``experiments``, are rebound in each importing module) and patches the two
methods that carry the hot loops, ``MatrixFamily.__call__`` and
``SpectralFamily.summand``.  Nothing under ``src/`` changes.

A span is ``[run_id, parent, name, start, end]``; its index in ``spans`` is
its id.  Spans stay in memory until ``write_spans``.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

QUADRATURE_LOOPS = ("cumulative_ball", "cumulative_radial", "cumulative_halfline_out", "cumulative_halfline_in")
ETA_ENTRY_POINTS = (
    "eta_k", "winding", "formal_trace_matrix", "eta_variation", "additivity_defect",
    "spectral_eta", "eta_suspension", "divisor_flow",
)
FORMS_BUILDERS = ("maurer_cartan_power", "mc_form", "wedge", "exterior_derivative")
PARTRACE_ENTRY_POINTS = ("l2_trace_values", "tr_param_values", "l2_trace", "tr_param")

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "quadrature": "quadrature.self_s",
    "quadrature.chart": "quadrature.chart_s",
    "integrand": "asymptotics.scalar_integrand_s",
    "asymptotics.fit": "asymptotics.fit_s",
    "forms.eval": "forms.eval_s",
    "forms.sphere_integrate": "forms.sphere_integrate_self_s",
    "forms.build": "forms.build_s",
    "clifford.action": "clifford.action_s",
    "partrace.summand": "partrace.summand_s",
    "partrace.window": "partrace.window_s",
    "eta": "eta.self_s",
}

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "quadrature.points", "forms.node_evals", "partrace.summand_terms",
    "partrace.mu_points", "asymptotics.fit_calls", "clifford.action_points",
)


def _batch(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self.forms_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.run_id, parent, name, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, count=None):
        """Span around ``fn``; ``count(args, kwargs)`` returns (key, amount)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                key, amount = count(args, kwargs)
                tracer.counts[key] += amount
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return wrapper

    def _wrap_quadrature(self, fn):
        tracer = self

        def loop(f, *args, **kwargs):
            sid = tracer.open("quadrature")
            try:
                return fn(tracer._wrap("integrand", f, lambda a, k: ("quadrature.points", len(a[0]))), *args, **kwargs)
            finally:
                tracer.close(sid)

        return loop

    def _wrap_family_call(self, call):
        tracer = self

        def traced_call(fam, x):
            n = _batch(x)
            tracer.counts["forms.node_evals"] += n
            if tracer.forms_depth:
                tracer.forms_depth += 1
                try:
                    return call(fam, x)
                finally:
                    tracer.forms_depth -= 1
            tracer.counts["forms.points"] += n
            tracer.forms_depth = 1
            sid = tracer.open("forms.eval")
            try:
                return call(fam, x)
            finally:
                tracer.close(sid)
                tracer.forms_depth = 0

        return traced_call

    # -- installing ------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every etaforge module attribute bound to ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "etaforge" or mod_name.startswith("etaforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from etaforge import asymptotics, clifford, eta, forms, partrace, quadrature

        for name in QUADRATURE_LOOPS:
            self._rebind(getattr(quadrature, name), self._wrap_quadrature(getattr(quadrature, name)))
        self._rebind(quadrature.sphere_chart, self._wrap("quadrature.chart", quadrature.sphere_chart))
        self._rebind(
            asymptotics._weighted_power_fit,
            self._wrap("asymptotics.fit", asymptotics._weighted_power_fit, lambda a, k: ("asymptotics.fit_calls", 1)),
        )
        self._rebind(
            clifford.clifford_action,
            self._wrap(
                "clifford.action", clifford.clifford_action,
                lambda a, k: ("clifford.action_points", _batch(a[1] if len(a) > 1 else k["x"])),
            ),
        )
        self._rebind(forms.sphere_integrate, self._wrap("forms.sphere_integrate", forms.sphere_integrate))
        for name in FORMS_BUILDERS:
            self._rebind(getattr(forms, name), self._wrap("forms.build", getattr(forms, name)))

        def mu_points(args, kwargs):
            mu = args[1] if len(args) > 1 else kwargs["mu"]
            return "partrace.mu_points", len(np.atleast_2d(np.asarray(mu)))

        for name in PARTRACE_ENTRY_POINTS:
            self._rebind(getattr(partrace, name), self._wrap("partrace.window", getattr(partrace, name), mu_points))
        for name in ETA_ENTRY_POINTS:
            self._rebind(getattr(eta, name), self._wrap("eta", getattr(eta, name)))
        self._patch_method(forms.MatrixFamily, "__call__", self._wrap_family_call(forms.MatrixFamily.__call__))
        self._patch_method(
            partrace.SpectralFamily, "summand",
            self._wrap(
                "partrace.summand", partrace.SpectralFamily.summand,
                lambda a, k: ("partrace.summand_terms", np.size(a[1]) * len(a[2])),
            ),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (_, _, name, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return dict(out)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for a traced wall time ``wall_s``."""
        selfs = self.self_times()
        m = {metric: selfs.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
        for key in EXACT_COUNTS + ("forms.points",):
            m[key] = self.counts.get(key, 0)
        m["quadrature.points_per_s"] = _ratio(m["quadrature.points"], m["quadrature.self_s"])
        forms_top_s = sum(end - start for _, _, name, start, end in self.spans if name == "forms.eval")
        m["forms.points_per_s"] = _ratio(m["forms.points"], forms_top_s)
        m["forms.node_evals_per_point"] = _ratio(m["forms.node_evals"], m["forms.points"])
        m["partrace.terms_per_s"] = _ratio(m["partrace.summand_terms"], m["partrace.summand_s"])
        m["unattributed_s"] = wall_s - sum(selfs.get(name, 0.0) for name in SELF_TIME_METRICS)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid] + span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
