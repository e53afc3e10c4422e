"""The package surface: lazily resolved names, and the modules each route loads."""

from __future__ import annotations

import ast
import doctest
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import descentsum
import descentsum.words

SRC = str(Path(descentsum.__file__).resolve().parent.parent)

# runs the CLI in a fresh interpreter, then reports whether numpy and scipy
# (not a dependency: nothing may import it) were loaded
_PROBE = (
    "import sys\n"
    "from descentsum.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print('numpy loaded:', 'numpy' in sys.modules, 'scipy loaded:',\n"
    "      'scipy' in sys.modules, 'exit:', rc, file=sys.stderr)\n"
)


def _fresh(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.splitlines()[-1]


@pytest.mark.parametrize("module", ["descentsum", "descentsum.cli"])
def test_import_leaves_numpy_unloaded(module):
    probe = f"import sys, {module}; print('numpy' in sys.modules, file=sys.stderr)"
    assert _fresh("-c", probe) == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--preset", "sec5-1", "--n", "12", "--method", "dp"],
        ["oracle", "--preset", "sec6", "--n", "12", "--method", "operator"],
        ["oracle", "--preset", "sec5-1", "--n", "10", "--method", "brute"],
        ["sequence", "--n-max", "8"],
    ],
    ids=["oracle-dp", "oracle-operator", "oracle-brute", "sequence"],
)
def test_exact_routes_run_without_numpy(argv):
    want = "numpy loaded: False scipy loaded: False exit: 0"
    assert _fresh("-c", _PROBE, *argv) == want


@pytest.mark.parametrize(
    "argv", [["spectrum", "--preset", "sec5-1", "--top", "1"]], ids=["spectrum"]
)
def test_float_routes_load_numpy(argv):
    want = "numpy loaded: True scipy loaded: False exit: 0"
    assert _fresh("-c", _PROBE, *argv) == want


# runs the CLI in a fresh interpreter, then reports its exit code and which
# of these modules it loaded, in the order they entered sys.modules; a fresh
# interpreter because pytest itself loads dataclasses
_WATCHED = ("numpy", "dataclasses", "descentsum.expfun", "csv")
_LOAD_ORDER = (
    "import sys\n"
    "from descentsum.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    f"print(rc, *[name for name in sys.modules if name in {_WATCHED!r}],\n"
    "      file=sys.stderr)\n"
)


def _loaded(*argv: str) -> list[str]:
    rc, *names = _fresh("-c", _LOAD_ORDER, *argv).split()
    assert rc == "0"
    return names


def test_cli_import_loads_no_numpy_dataclasses_or_expfun():
    probe = (
        "import sys, descentsum.cli; "
        f"print(sorted(set({_WATCHED!r}) & set(sys.modules)), file=sys.stderr)"
    )
    assert _fresh("-c", probe) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--preset", "sec5-1", "--n", "12", "--method", "dp"],
        ["sequence", "--n-max", "8"],
    ],
    ids=["oracle-dp", "sequence"],
)
def test_exact_commands_leave_expfun_unloaded(argv):
    assert _loaded(*argv) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--preset", "sec5-1", "--top", "1"],
        ["constants", "--preset", "sec5-1", "--top", "2"],
        ["oracle", "--preset", "sec5-1", "--n", "6", "--method", "brute"],
    ],
    ids=["spectrum", "constants", "oracle-brute"],
)
def test_no_command_loads_dataclasses(argv):
    assert "dataclasses" not in _loaded(*argv)


@pytest.mark.parametrize(
    "fmt, want", [("table", []), ("json", []), ("csv", ["csv"])]
)
def test_only_csv_output_loads_csv(fmt, want):
    argv = ["oracle", "--preset", "sec6", "--n", "8", "--method", "dp"]
    assert _loaded(*argv, "--format", fmt) == want


# runs the CLI in a fresh interpreter, then reports its exit code and every
# descentsum module it loaded, sorted
_MODULES = (
    "import sys\n"
    "from descentsum.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(rc, *sorted(name for name in sys.modules if name.startswith('descentsum')),\n"
    "      file=sys.stderr)\n"
)
_CLI = {"descentsum", "descentsum.cli", "descentsum.presets", "descentsum.words"}


def _modules(*argv: str) -> set[str]:
    rc, *names = _fresh("-c", _MODULES, *argv).split()
    assert rc == "0"
    return set(names)


@pytest.mark.parametrize("module", ["descentsum", "descentsum.cli"])
def test_import_leaves_exact_unloaded(module):
    probe = (
        f"import sys, {module}; "
        "print('descentsum.exact' in sys.modules, file=sys.stderr)"
    )
    assert _fresh("-c", probe) == "False"


def test_spectrum_loads_neither_exact_nor_expfun():
    loaded = _modules("spectrum", "--preset", "sec5-1")
    assert loaded == _CLI | {"descentsum.linalg", "descentsum.spectral"}


def test_constants_leaves_exact_unloaded():
    loaded = _modules("constants", "--preset", "sec5-1", "--top", "2")
    assert loaded == _CLI | {
        "descentsum.constants", "descentsum.linalg", "descentsum.spectral"
    }


def test_verify_loads_the_constants_pass_not_expfun():
    # like constants above, verify takes its constants from one array pass,
    # not from the ExpPoly calculus
    loaded = _modules("verify", "--preset", "sec6", "--n-max", "8")
    assert loaded == _CLI | {
        "descentsum.constants", "descentsum.exact", "descentsum.linalg",
        "descentsum.spectral",
    }


@pytest.mark.parametrize("method", ["all", "operator"])
def test_oracle_loads_exact_alone(method):
    # --method all runs brute force, the DP and operator iteration
    loaded = _modules("oracle", "--preset", "sec5-1", "--n", "9", "--method", method)
    assert loaded == _CLI | {"descentsum.exact"}


def _codes(code):
    """A code object and those nested in it (comprehensions, generators)."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _codes(const)


def _reach(module, *entries: str) -> tuple[set[str], set[str]]:
    """The module's functions that the entries run, following private
    helpers, and every global or attribute name their code refers to."""
    funcs, refs, todo = set(), set(), list(entries)
    while todo:
        name = todo.pop()
        funcs.add(name)
        for code in _codes(inspect.unwrap(getattr(module, name)).__code__):
            refs.update(code.co_names)
            todo.extend(
                ref
                for ref in code.co_names
                if ref.startswith("_")
                and ref not in funcs
                and inspect.isfunction(inspect.unwrap(getattr(module, ref, None)))
            )
    return funcs, refs


def test_dp_and_operator_iteration_share_no_helper():
    from descentsum import exact

    dp_funcs, dp_refs = _reach(exact, "dp_alpha", "_dp_pass")
    op_funcs, op_refs = _reach(exact, "alpha_by_operator_iteration")
    assert "_scaled" in dp_funcs and "_integrate" in op_funcs
    assert dp_refs.isdisjoint(op_funcs), dp_refs & op_funcs
    assert op_refs.isdisjoint(dp_funcs), op_refs & dp_funcs


def test_exact_never_imports_expfun():
    from descentsum import exact

    tree = ast.parse(Path(exact.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("expfun" in name for name in imported), imported


def test_only_sequence_loads_sec6():
    loaded = _modules("oracle", "--preset", "sec5-1", "--n", "12", "--method", "dp")
    assert loaded == _CLI | {"descentsum.exact"}
    assert "descentsum.sec6" in _modules("sequence", "--n-max", "8")


def test_every_public_name_resolves_and_is_listed():
    listed = dir(descentsum)
    for name in descentsum.__all__:
        assert getattr(descentsum, name) is not None, name
        assert name in listed, name
    assert descentsum.eigenvalues is sys.modules["descentsum.spectral"].eigenvalues
    assert descentsum.spectral is sys.modules["descentsum.spectral"]
    # the modules the package once star-imported: every name still resolves
    for module in (descentsum.exact, descentsum.sec6):
        assert set(module.__all__) <= set(descentsum.__all__), module.__name__


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from descentsum import *", namespace)
    for name in descentsum.__all__:
        assert namespace[name] is getattr(descentsum, name), name


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        descentsum.no_such_name


def test_readme_session_and_words_doctests():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    session = doctest.testfile(str(readme), module_relative=False)
    assert session.failed == 0 and session.attempted == 11
    words = doctest.testmod(descentsum.words)
    assert words.failed == 0 and words.attempted == 7
