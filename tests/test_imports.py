"""Every top-level import of a package module is read somewhere in it, the
package exports exactly what its __init__ imports plus its lazy names,
raw mpf arithmetic (mpmath.libmp) stays in the modules allowed to use it,
numpy is imported by probes alone, pyproject.toml reads the
package's one version, the benchmark's tracing wraps find their targets,
bill the two-lag boundary radius to its closed form and its counter hooks
read real results, and the CLI accepts every analysis key it reads."""

import ast
import importlib.util
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import heunlab
from heunlab import (cli, find_proof_constants, heun_eval, heun_recurrence,
                     stream_coefficients)

PACKAGE = Path(heunlab.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == [(2, "math"), (4, "a")]


def test_package_modules_read_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


# the modules whose hot loops work on raw mpf tuples; everything else uses mpf
LIBMP_MODULES = {"audit.py", "proofs.py", "scalars.py"}


def imports_libmp(source: str) -> bool:
    """Whether the module imports mpmath.libmp or reads it as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[:2] == ["mpmath", "libmp"]:
                return True
            if node.module == "mpmath" and any(a.name == "libmp" for a in node.names):
                return True
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[:2] == ["mpmath", "libmp"] for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "libmp":
            return True
    return False


@pytest.mark.parametrize("source, found", [
    ("from mpmath.libmp import mpf_add\n", True),
    ("from mpmath.libmp.libmpf import to_float\n", True),
    ("from mpmath import libmp, mp\n", True),
    ("import mpmath.libmp as raw\n", True),
    ("import mpmath\nmpmath.libmp.fzero\n", True),
    ("from mpmath import mp\nimport mpmath\n", False),
])
def test_libmp_imports_are_found(source, found):
    assert imports_libmp(source) is found


def test_only_allowed_modules_import_libmp():
    users = {p.name for p in PACKAGE.glob("*.py") if imports_libmp(p.read_text())}
    assert users == LIBMP_MODULES


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    lazy = list(heunlab._LAZY)
    assert len(heunlab.__all__) == len(set(heunlab.__all__))
    assert not set(imported) & set(lazy)
    assert set(heunlab.__all__) == set(imported) | set(lazy)
    listed = dir(heunlab)
    for name in heunlab.__all__:
        assert getattr(heunlab, name) is not None, name
        assert name in listed, name


def imported_packages(source: str) -> set:
    """Top-level package names the module imports anywhere, inside functions too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_packages_are_found():
    source = "import os.path\ndef f():\n    import numpy as np\n    from mpmath import mp\nfrom . import x\n"
    assert imported_packages(source) == {"os", "numpy", "mpmath"}


def test_only_probes_imports_numpy():
    users = {p.name for p in PACKAGE.glob("*.py") if "numpy" in imported_packages(p.read_text())}
    assert users == {"probes.py"}


def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is flagged as beta
        config = pyprojecttoml.read_configuration(PACKAGE.parents[1] / "pyproject.toml")
    assert config["project"]["version"] == heunlab.__version__


# wraps in bench/tracing.py whose functions are gone; their layer times read 0
STALE_WRAPS = {
    "heunlab.cli.run_proof_audit", "heunlab.cli.term_trace",
    "heunlab.audit.dominating_series_check", "heunlab.audit.modulus_stream",
    "heunlab.recurrence.modulus_stream", "heunlab.rearrange.modulus_stream",
}


def _tracing():
    """bench/tracing.py, loaded by path and only read: the tracer is never installed."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", PACKAGE.parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_wraps_find_their_functions():
    tracing = _tracing()
    missing = {f"{module}.{attr}" for module, attr, _, _ in tracing.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))}
    assert missing == STALE_WRAPS


def radius_calls(source: str) -> list:
    """(positional arguments, keyword names) of each boundary_radius call in the module."""
    return [(len(node.args), [k.arg for k in node.keywords])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "boundary_radius"]


def test_radius_calls_are_found():
    source = "boundary_radius(x, 8)\ndef f():\n    boundary_radius(x, prec=8)\nr.boundary_radius(x)\n"
    assert radius_calls(source) == [(2, []), (1, ["prec"])]


def test_tracing_bills_the_audit_and_cli_radius_to_the_closed_form(a2_params):
    # each call passes (limits, prec) and a Heun system has two lags, so the
    # tracer's convergence.radius_closed span keeps reading them
    for name in ("audit.py", "cli.py"):
        calls = radius_calls((PACKAGE / name).read_text())
        assert calls and all(call == (2, []) for call in calls), (name, calls)
    name = _tracing()._radius_name
    assert name((heun_recurrence(a2_params).limits, 256), {}) == "convergence.radius_closed"
    assert name(((1, 1, 1), 256), {}) == "convergence.radius_bisect"


def analysis_reads(source: str) -> dict:
    """{top-level function: the keys it reads from the analysis block}, a key
    being the string passed to _opt, _int_opt or analysis.get, or None when
    it is not a constant."""
    reads = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("_opt", "_int_opt"):
                key = node.args[2]
            elif (isinstance(func, ast.Attribute) and func.attr == "get"
                  and isinstance(func.value, ast.Attribute) and func.value.attr == "analysis"):
                key = node.args[0]
            else:
                continue
            reads.setdefault(fn.name, set()).add(
                key.value if isinstance(key, ast.Constant) else None)
    return reads


def test_analysis_reads_are_found():
    source = ("def f(a, i):\n    _opt(a, i, 'x')\n    _int_opt(a, i, 'n', 1)\n"
              "def g(i, k):\n    i.analysis.get('force')\n    i.analysis.get(k)\n"
              "    i.other.get('y')\n")
    assert analysis_reads(source) == {"f": {"x", "n"}, "g": {"force", None}}


def test_cli_accepts_every_analysis_key_it_reads():
    reads = analysis_reads((PACKAGE / "cli.py").read_text())
    # _opt and _int_opt read the name they are given, and proof-audit the
    # names of _AUDIT_OPTIONS
    assert ({fn for fn, keys in reads.items() if None in keys}
            == {"_opt", "_int_opt", "_cmd_proof_audit"})
    constant = set().union(*reads.values()) - {None}
    assert {"x", "force", "which"} <= constant
    assert constant | set(cli._AUDIT_OPTIONS) == cli._ANALYSIS_KEYS


class _Counts:
    """The two counter calls of the bench tracer, recorded in a dict."""

    def __init__(self):
        self.counts = {}

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)


def test_tracing_counter_hooks_read_real_results(a2_params):
    # a renamed result attribute would break only traced bench runs
    tracing = _tracing()
    hooks = {(module, attr): hook for module, attr, _, hook in tracing.WRAPS}
    assert hooks[("heunlab.audit", "find_proof_constants")] is tracing._count_rechecked
    assert hooks[("heunlab.audit", "stream_coefficients")] is tracing._count_values
    assert hooks[("heunlab.cli", "heun_eval")] is tracing._count_eval

    system = heun_recurrence(a2_params)
    pc = find_proof_constants(system)
    stream = stream_coefficients(system, 40, 64)
    result = heun_eval(a2_params, Fraction(1, 10), precision="exact")
    tracer = _Counts()
    tracing._count_rechecked(tracer, pc, (), {})
    tracing._count_values(tracer, stream, (), {})
    tracing._count_eval(tracer, result, (), {})
    value = result.value
    assert tracer.counts == {
        "proofs.sweep_rechecked": (pc.cert_lag1.valid_from - 1) + (pc.cert_lag2.valid_from - 1),
        "recurrence.terms_streamed": 40,
        "heun.eval_terms": result.n_used,
        "heun.exact_bits_max": value.numerator.bit_length() + value.denominator.bit_length(),
    }
    assert result.n_used > 0 and type(value) is Fraction
