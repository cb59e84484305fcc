"""Benchmark workloads: which experiments run, at which budget, and why.

The four workloads split ``etaforge --suite all`` (plus the property
experiments) so that each experiment runs in exactly one workload, and every
layer that is likely to be optimised does most of the work in one workload
and almost none in another.  ``prop-tr-compat`` is left out because it is an
alias of ``tr-derivative-check``.

``nominal_pass_s`` is the measured time of one untraced pass on a 2-core
x86-64 machine (Python 3.11, numpy 2.4, scipy 1.17).  It only fixes the pass
count for a given ``--seconds`` (see ``pass_count``); it is never compared
against a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

# Layer metric -> the workloads whose wall_s it should move, written down
# before any optimisation so a later change can be held to it.
LAYER_PREDICTIONS = {
    "quadrature.self_s": "scalar-regint (little elsewhere)",
    "quadrature.points_per_s": "scalar-regint (little elsewhere)",
    "quadrature.chart_s": "matrix-eta",
    "asymptotics.fit_s": "none: at most 1 % of every workload, so a faster fit has no workload to show on",
    "asymptotics.scalar_integrand_s": "scalar-regint",
    "forms.eval_s": "matrix-eta, additivity-fd; no change elsewhere",
    "forms.points_per_s": "matrix-eta, additivity-fd; no change elsewhere",
    "forms.node_evals_per_point": "additivity-fd most (the count a shared-subtree rewrite should cut)",
    "forms.sphere_integrate_self_s": "matrix-eta",
    "forms.build_s": "matrix-eta (shows whether a rewrite moves work into construction)",
    "clifford.action_s": "matrix-eta",
    "partrace.summand_s": "spectral-trace; no change elsewhere",
    "partrace.terms_per_s": "spectral-trace; no change elsewhere",
    "partrace.window_s": "spectral-trace",
    "eta.self_s": "small everywhere",
    "unattributed_s": "catches work that escapes the named layers (scipy quad oracles, report building)",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget: object
    experiments: tuple[str, ...]
    nominal_pass_s: float

    def configs(self, seed: int) -> list[dict]:
        """The ``etaforge --config`` documents this workload runs, in order."""
        return [{"experiment": e, "budget": self.budget, "seed": seed} for e in self.experiments]

    def pass_count(self, seconds: float) -> int:
        """Fixed number of passes for a run of about ``seconds``; at least two,
        so every run can compare the report hashes of two passes."""
        return max(2, round(seconds / self.nominal_pass_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "matrix-eta",
            "matrix-route eta with analytic partials: forms evaluation is most of the time, "
            "through regint shells and sphere charts",
            "quick",
            (
                "clifford-check", "sphere-omega", "rp-omega", "eta-matrix", "winding",
                "variation-check", "divisor-flow", "prop-d2", "prop-leibniz", "prop-maurer-cartan",
            ),
            13.0,
        ),
        Workload(
            "additivity-fd",
            "additivity defect: regint-d differentiates a tree that already holds finite-difference "
            "partials, about 169 node evaluations per point against 38 in matrix-eta",
            # With the quick sphere rule (12x24) one pass takes about 60 s, more
            # than a run may measure.  The 5x10 rule and 14 radii (the fewest the
            # defect fit accepts) keep the same closure trees, and so the node
            # evaluations per point, at a sixth of the points; every check still
            # passes with a wide margin.
            {"preset": "quick", "sphere_p3": [5, 10], "radii": 14},
            ("additivity-defect",),
            9.5,
        ),
        Workload(
            "scalar-regint",
            "cheap scalar integrands: the shell-quadrature loop and the integrands are the work; "
            "forms and partrace do none",
            "precise",
            (
                "regint-demo", "cov-check", "stokes-check", "mellin-zero",
                "prop-regint-linearity", "prop-regint-convergent",
            ),
            5.0,
        ),
        Workload(
            "spectral-trace",
            "windowed eigenvalue sums: SpectralFamily.summand is most of the time; forms does no work",
            "precise",
            ("spectral-eta", "eta-suspension", "trace-tanh", "tr-derivative-check"),
            3.4,
        ),
    )
}
