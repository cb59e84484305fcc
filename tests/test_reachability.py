"""Every executable line inside a function body of ``src/etaforge`` runs when
the CLI runs both suites, the listing and the config files below, unless it
is error handling or listed in ALLOWED.  A line that no run reaches is checked
only by the tests written beside it: it moves into the tests as an oracle, or
it goes.

Error handling is found by structure: every ``raise`` statement and
``except`` handler, every block of a compound statement whose last statement
is ``raise``, and every such block of ``cli.main`` that ends in ``return`` 2,
3 or 4 (the config, numeric and internal exit codes).  An allowed entry that
no unreached line matches any more, because its line runs or is gone, fails
the gate as well."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import etaforge
from etaforge.cli import main

# Unreached by the runs below, and kept: (qualified name, line text) -> one
# reason each.  A text matches every line of that text in the function; None
# stands for the whole function body.
_PERFBENCH = "bound by name in perfbench/tracer.py, and called by nothing else"
_NON_FINITE = "handles non-finite or complex values, which no run produces"
ALLOWED = {
    ("etaforge.quadrature.sphere_chart", None): _PERFBENCH,
    ("etaforge.partrace.l2_trace", None): _PERFBENCH,
    ("etaforge.cli.Report.to_json", 'data.pop("seconds")'): "perfbench hashes reports without their timing",
    ("etaforge.partrace.Kernel.dt",
     "parts.append(KernelMonomial(m.coef * m.t_pow, m.lam_pow, m.t_pow - 1, m.res_pow))"):
        "no CLI run takes the mu-derivative of a family with a bare t power",
    ("etaforge.partrace.Kernel.eval", "vals = np.ones(shape)"):
        "no CLI family keeps a monomial without a resolvent power in its Taylor remainder",
    **dict.fromkeys([
        ("etaforge.quadrature._JoinedSums._add", "for i, v in zip(parts, (a, np.abs(a))):"),
        ("etaforge.quadrature._JoinedSums._add", "self.kept[i].extend(v[~np.isfinite(v)].tolist())"),
        ("etaforge.quadrature._JoinedSums._add", "return"),
        ("etaforge.partrace._add_scaled", "vals = c * vals"),
        ("etaforge.partrace._add_scaled", "return total + vals"),
    ], _NON_FINITE),
    ("etaforge.errors.SingularFamilyError.__init__", None): "runs only while raising for a singular family",
    ("etaforge.asymptotics._basis_label", None): "runs only while raising for a degenerate fit",
}

# statements whose blocks can be error handling; a function body never is
_BLOCKS = (ast.If, ast.For, ast.While, ast.With, ast.Try)


def _ends_in_error(block, qualname) -> bool:
    last = block[-1]
    if isinstance(last, ast.Raise):
        return True
    return (
        qualname == "etaforge.cli.main"
        and isinstance(last, ast.Return)
        and isinstance(last.value, ast.Constant)
        and last.value.value in (2, 3, 4)
    )


class _Lines(ast.NodeVisitor):
    """For one source file: the qualified name of the innermost function
    around each line of a function body, and the lines of error handling."""

    def __init__(self, prefix):
        self.scope = [prefix]
        self.function = None
        self.owner = {}
        self.errors = set()

    def _span(self, nodes):
        return {n for node in nodes for n in range(node.lineno, node.end_lineno + 1)}

    def _define(self, node, is_function):
        self.scope.append(node.name)
        outer, name = self.function, ".".join(self.scope)
        if is_function:
            self.function = name
            for n in self._span(node.body):
                self.owner[n] = name
        self.generic_visit(node)
        self.scope.pop()
        self.function = outer

    def visit_ClassDef(self, node):
        self._define(node, False)

    def visit_FunctionDef(self, node):
        self._define(node, True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def generic_visit(self, node):
        if self.function is not None:
            if isinstance(node, (ast.ExceptHandler, ast.Raise)):
                self.errors |= self._span([node])
            if isinstance(node, _BLOCKS):
                for block in (getattr(node, field, []) for field in ("body", "orelse", "finalbody")):
                    if block and _ends_in_error(block, self.function):
                        self.errors |= self._span(block)
        super().generic_visit(node)


def _code_lines(code) -> set:
    """Lines with bytecode in ``code`` and in every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _reached(run, files) -> set:
    """(file, line) pairs of ``files`` that run while ``run()`` does."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def unreached_lines(modules: dict, run, allowed: dict) -> tuple[list, list]:
    """Run ``run()`` under a line trace of the source files ``modules`` maps
    to their dotted names.  Returns the unreached lines of function bodies
    that are neither error handling nor allowed, as "name: text" strings, and
    the allowed entries that no longer match an unreached line only."""
    hits = _reached(run, set(modules))
    unreached, reached = {}, set()
    for path, prefix in modules.items():
        source = Path(path).read_text()
        texts = source.splitlines()
        lines = _Lines(prefix)
        lines.visit(ast.parse(source))
        for n in _code_lines(compile(source, path, "exec")) - lines.errors:
            name = lines.owner.get(n)
            if name is None:
                continue
            text = texts[n - 1].strip()
            if (path, n) in hits:
                reached.add(name)
            else:
                unreached.setdefault(name, set()).add(text)
    new = [
        f"{name}: {text}"
        for name, found in sorted(unreached.items())
        for text in sorted(found)
        if (name, None) not in allowed and (name, text) not in allowed
    ]
    stale = [
        f"{name}: {text or '(whole body)'}"
        for name, text in sorted(allowed, key=str)
        if (text is None and (name not in unreached or name in reached))
        or (text is not None and text not in unreached.get(name, ()))
    ]
    return new, stale


def _clear_caches():
    """A cached function must run again to be seen."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("etaforge"):
            for value in vars(module).values():
                if hasattr(value, "__wrapped__") and hasattr(value, "cache_clear"):
                    value.cache_clear()


def _config(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def test_every_line_is_reached_by_the_cli(tmp_path, capsys):
    quick_budget = {"preset": "quick", "radii": 12, "r_max": 1024.0, "sphere_p3": [6, 12]}
    runs = [  # (argv, expected exit code)
        (["--suite", "all", "--budget", "quick", "--out", str(tmp_path / "all")], 0),
        (["--suite", "properties", "--budget", "quick"], 0),
        (["--list"], 0),
        (["--config", _config(tmp_path / "tanh.json", {
            "experiment": "trace-tanh", "params": {"mus": [0, 0.5, 2], "a": 0.25}, "budget": quick_budget,
        }), "--out", str(tmp_path / "config"), "--emit-csv"], 0),
        (["--config", _config(tmp_path / "suspension-k1.json", {
            "experiment": "eta-suspension", "params": {"k": 1}, "budget": "quick",
        })], 0),
        (["--config", _config(tmp_path / "clifford.json", {
            "experiment": "clifford-check", "params": {"k_max": 8},
        }), "--budget", "quick"], 0),
        (["--config", _config(tmp_path / "bool-int.json", {
            "experiment": "clifford-check", "params": {"k_max": True},
        })], 2),
        (["--config", _config(tmp_path / "bool-float.json", {
            "experiment": "trace-tanh", "params": {"a": False},
        })], 2),
    ]
    codes = []
    _clear_caches()
    package = Path(etaforge.__file__).parent
    modules = {str(path): f"etaforge.{path.stem}" for path in sorted(package.glob("*.py"))}
    modules[str(package / "__init__.py")] = "etaforge"
    new, stale = unreached_lines(modules, lambda: codes.extend(main(argv) for argv, _ in runs), ALLOWED)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    assert not new, "no CLI run reaches:\n" + "\n".join(new)
    assert not stale, "allowed but reached or gone:\n" + "\n".join(stale)


def test_the_gate_reports_a_planted_line_and_exempts_error_handling(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(
        "def f(x):\n"
        "    if x < 0:\n"
        "        y = -x\n"
        "        raise ValueError(y)\n"
        "    if x > 10:\n"
        "        x = 10  # planted: no run passes x > 10\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        return 0.0\n"
        "\n"
        "\n"
        "def g():\n"
        "    return 2\n"
    )
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    modules = {str(path): "planted"}
    new, stale = unreached_lines(modules, lambda: module.f(2), {})
    assert new == ["planted.f: x = 10  # planted: no run passes x > 10", "planted.g: return 2"]
    assert stale == []
    allowed = {("planted.g", None): "whole body", ("planted.f", "x = 10  # planted: no run passes x > 10"): "one line"}
    assert unreached_lines(modules, lambda: module.f(2), allowed) == ([], [])
    # an allowed line that runs, or that is gone, is stale
    runs = lambda: (module.f(2), module.f(11), module.g())  # noqa: E731
    new, stale = unreached_lines(modules, runs, {**allowed, ("planted.f", "gone"): "no such line"})
    assert new == []
    assert stale == ["planted.f: gone", "planted.f: x = 10  # planted: no run passes x > 10", "planted.g: (whole body)"]
