"""Package-level checks: the public namespace, the absence of bare asserts,
the single exact-sum path, the files git tracks in examples/, the tables a
system keeps, the README's library example, the names the benchmark harness
reads and the modules a run imports."""

import ast
import contextlib
import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fel


def package_trees():
    for path in sorted(Path(fel.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_public_names_resolve():
    missing = [name for name in fel.__all__ if not hasattr(fel, name)]
    assert not missing


def test_no_assert_in_package():
    # Checks in the package must survive python -O, which strips asserts.
    found = [f"{path.name}:{node.lineno}" for path, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_no_assertion_error_raised_in_package():
    # Broken invariants raise fel's InvariantViolation, which the CLI maps
    # to exit 2; an AssertionError would escape it with a traceback.
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [f"{path.name}:{node.lineno}" for path, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and raised_name(node) == "AssertionError"]
    assert not found


def test_fsum_only_in_exact_sum():
    # Every exact accumulation goes through fel.energy.nonnegative_sum, which
    # rounds its bin totals as integers: a math.fsum call anywhere in the
    # package would be a second sum path.
    found = [f"{path.name}:{call.lineno}" for path, tree in package_trees()
             for call in ast.walk(tree) if isinstance(call, ast.Call)
             and getattr(call.func, "attr", getattr(call.func, "id", None)) == "fsum"]
    assert not found


def test_examples_not_ignored_by_git():
    # The tests read the definition files of examples/, so a new one must
    # not be left out of a commit by .gitignore.
    root = Path(__file__).resolve().parents[1]
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--is-inside-work-tree"], cwd=root,
            capture_output=True, text=True).stdout.strip() != "true":
        pytest.skip("not a git work tree")
    ignored = subprocess.run(["git", "check-ignore", "-q", "examples/new-system.json"],
                             cwd=root)
    assert ignored.returncode == 1


def test_fractal_system_keeps_only_what_fel_reads():
    # Every build keeps what FractalSystem.__init__ stores on self, so each
    # stored attribute must be read somewhere in the package.  Every class
    # table builds one fel.classes._Space, so what any of its methods stores
    # must be read through a parameter annotated _Space: what only _Space
    # itself reads belongs in a local.
    trees = {path.name: tree for path, tree in package_trees()}
    system = next(node for node in trees["ifs.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "FractalSystem")
    init = next(node for node in system.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {"cells", "v0_ids"} <= stored_on_self(init)
    assert not stored_on_self(init) - read
    space = next(node for node in trees["classes.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "_Space")
    read = set()
    for func in (node for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)):
        names = {a.arg for a in func.args.args if getattr(a.annotation, "id", None) == "_Space"}
        read |= {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) in names}
    assert {"kcount", "lift"} <= stored_on_self(space)
    assert not stored_on_self(space) - read


def stored_on_self(node):
    """Names of the attributes stored on self anywhere in node."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"}


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def fel_chains(tree):
    """Dotted fel names a module reads: each `from fel... import` name and
    each attribute chain on a name bound to fel or one of its modules
    (`import fel`, `from fel import cli`, `from fel import lipschitz as lip`)."""
    bound, chains = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "fel":
                    # `import fel.cli` binds fel; `import fel.cli as c` binds fel.cli.
                    bound[a.asname or "fel"] = a.name if a.asname else "fel"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fel":
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
                chains.add(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            chains.add(".".join([bound[node.id]] + parts))
    return chains


def resolves(chain):
    """Whether a dotted fel name names something, importing submodules on the way."""
    parts = chain.split(".")
    owner = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        if not hasattr(owner, part):
            with contextlib.suppress(ImportError):
                importlib.import_module(".".join(parts[:k]))
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


def test_benchmark_harness_names_resolve():
    # perfbench/spans.py wraps the functions of its LAYERS table in spans,
    # perfbench/workloads.py calls HarmonicStructure.residual on a solved
    # structure, and every perfbench module reads fel through attribute
    # chains; each name must still exist in fel.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_spans", bench / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    chains = {f"{module}.{attr}" for module, attr, *_ in spans.LAYERS}
    chains.add("fel.HarmonicStructure.residual")
    for path in sorted(bench.glob("*.py")) + sorted(bench.glob("tests/*.py")):
        chains |= fel_chains(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert {"fel.energy_m", "fel.load_maps", "fel.random_corpus", "fel.default_params",
            "fel.lipschitz.coefficient_table", "fel.cli.main"} <= chains
    assert not [chain for chain in sorted(chains) if not resolves(chain)]


def test_readme_names_resolve():
    # Every backticked fel name in the README must still exist.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = set(re.findall(r"`(fel(?:\.\w+)+)`", readme.read_text(encoding="utf-8")))
    assert "fel.lipschitz.PAIR_CHUNK" in names
    assert not [name for name in sorted(names) if not resolves(name)]


NUMPY_MA_PROBE = """
import sys
import fel
from fel.classes import class_coefficient_table
from fel.lipschitz import coefficient_table
for preset, n in (("gasket2", 5), ("snowflake", 3)):
    maps, name = fel.load_maps(preset)
    system = fel.build(maps, n, name=name)
    hs = fel.solve_ndhs(system)
    specs = fel.random_corpus(system, 2, seed=1)
    params = fel.default_params(system, hs)
    class_coefficient_table(system, hs, specs, n, [1, 2], params)
    for spec in specs:
        f = spec.sample(system, hs, n)
        fel.energy_sequence(system, hs, f)
        coefficient_table(system, f.values[:, None], n, [1, 2], params)
print("numpy.ma" in sys.modules, "numpy.random" in sys.modules)
"""
# The README experiment's CLI run, small: it generates a corpus, writes it to
# the file named by argv[1] and its CSV to argv[2].
CORPUS_RUN_PROBE = """
import sys
from fel.cli import main
main(["equivalence", "gasket2", "--corpus", sys.argv[1], "--generate-corpus", "2",
      "--seed", "1", "--mmax", "2", "--level", "4", "--out", sys.argv[2]])
print("numpy.random" in sys.modules)
"""


def run_python(code, *args):
    src = str(Path(fel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True).stdout.strip()


@pytest.mark.skipif(run_python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True",
                    reason="this numpy imports numpy.ma with numpy itself")
def test_run_does_not_import_numpy_ma():
    # numpy.ma takes 10-15 ms to import, and numpy's set routines (np.unique,
    # np.setdiff1d, np.isin) import it on first use: build, solve_ndhs, both
    # pair-sum paths and energy_sequence call none of them.  numpy.random
    # costs about 16 ms and 6 MiB, and random_corpus makes its stream itself.
    assert run_python(NUMPY_MA_PROBE) == "False False"


@pytest.mark.skipif(run_python("import sys, numpy; print('numpy.random' in sys.modules)")
                    == "True", reason="this numpy imports numpy.random with numpy itself")
def test_corpus_run_does_not_import_numpy_random(tmp_path):
    corpus, out = tmp_path / "corpus.txt", tmp_path / "out.csv"
    assert run_python(CORPUS_RUN_PROBE, str(corpus), str(out)) == "False"
    assert len(corpus.read_text().splitlines()) == 4 and out.exists()


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_reported(tmp_path):
    # Reporting a failing @given test imports libcst, whose import warns with
    # a third-party DeprecationWarning; under the project's warning filters
    # that must not abort the session with INTERNALERROR.
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
         str(root / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed" in result.stdout
