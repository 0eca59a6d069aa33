"""The tier-1 command's own pytest configuration (pyproject.toml), and the
package's own hygiene."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "gfdtd"
TESTS = PYPROJECT.parent / "tests"
DEMOS = PYPROJECT.parent / "demos"

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_fails_without_internal_error(tmp_path):
    # hypothesis reports a falsifying example through libcst, whose import
    # raises a DeprecationWarning; turned into an error by filterwarnings, it
    # aborted the whole session with INTERNALERROR (exit 3) instead of exit 1
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout[-2000:] + result.stderr[-2000:]
    assert "INTERNALERROR" not in result.stdout + result.stderr


def test_no_module_imports_a_name_it_does_not_use():
    # a name whose last use was deleted stays importable and passes every other
    # test, in the package, its tests and its demos alike; the package's
    # __init__.py is skipped, as it imports names to re-export them
    unused = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *DEMOS.glob("*.py")]):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{node.lineno}: {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                   if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    assert unused == []


def test_monkeypatched_names_are_still_called():
    # a test that patches a name the package no longer reads still passes, but
    # checks nothing: monkeypatch.setattr(<gfdtd module>, "<name>", ...), or
    # hypothesis's mp.setattr, needs <name> read in that module outside its own def
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    patches = [(f"{path.name}:{node.lineno}", node.args[0].id, node.args[1].value)
               for path in sorted(TESTS.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "setattr" and isinstance(node.func.value, ast.Name)
               and node.func.value.id in ("monkeypatch", "mp") and len(node.args) > 1
               and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
               and isinstance(node.args[1], ast.Constant)]
    assert patches
    stale = []
    for where, module, name in patches:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        own = {id(node) for definition in ast.walk(tree)
               if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
               and definition.name == name for node in ast.walk(definition)}
        if not any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id == name and id(node) not in own for node in ast.walk(tree)):
            stale.append(f"{where}: {module}.{name}")
    assert stale == []


def _blas_reductions(tree):
    """Line numbers of dot products that numpy hands to BLAS in a syntax tree:
    any .vdot, .dot or .inner attribute, and the @ operator."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("vdot", "dot", "inner")
                  or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))


def test_observations_reduce_without_blas():
    # BLAS wakes OpenBLAS's thread pool when OPENBLAS_NUM_THREADS is unset: an 800^2
    # np.vdot took 8 ms on 2 cores against 0.3 ms by einsum, which stays in numpy
    scenarios = ast.parse((PACKAGE / "scenarios.py").read_text())
    energy = next(node for node in ast.walk(scenarios)
                  if isinstance(node, ast.FunctionDef) and node.name == "energy_expectation")
    assert _blas_reductions(ast.parse((PACKAGE / "fields.py").read_text())) == []
    assert _blas_reductions(energy) == []


def test_blas_scan_finds_each_kind_of_reduction():
    source = "np.vdot(a, b)\nnumpy.dot(a, b)\nnp.inner(a, b)\na @ b\na.dot(b)\n"
    assert _blas_reductions(ast.parse(source)) == [1, 2, 3, 4, 5]
