"""The package surface: lazily resolved names, and the modules each route loads."""

from __future__ import annotations

import ast
import doctest
import inspect
import os
import signal
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


def _env(**overrides: str | None) -> dict[str, str]:
    """This process's environment with SRC on the path; None unsets a name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _run(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env or _env(), capture_output=True, timeout=120
    )


def _fresh(*args: str, env: dict[str, str] | None = None) -> str:
    done = _run(*args, env=env)
    assert done.returncode == 0, done.stderr.decode()
    return done.stderr.decode().splitlines()[-1]


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


# the process entry: `python -m descentsum.cli` and the `descentsum` script
_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_UNPINNED = _env(**dict.fromkeys(_THREADS))

# runs the CLI as `python -m descentsum.cli` runs it, with an exit function
# that prints and leaves cyclic garbage whose finalizer would print when a
# collection of interpreter teardown frees it
_TEARDOWN = (
    "import atexit, runpy, sys\n"
    "class Late:\n"
    "    def __del__(self, err=sys.stderr):\n"
    "        err.write('teardown\\n')\n"
    "def made_at_exit():\n"
    "    late = Late()\n"
    "    late.cycle = late\n"
    "    print('exit functions', file=sys.stderr)\n"
    "atexit.register(made_at_exit)\n"
    "runpy.run_module('descentsum.cli', run_name='__main__')\n"
)


def test_the_process_entry_runs_exit_functions_but_no_teardown():
    argv = ["spectrum", "--preset", "sec5-1", "--top", "1"]
    done = _run("-c", _TEARDOWN, *argv)
    assert done.returncode == 0, done.stderr.decode()
    err = done.stderr.decode().splitlines()
    assert err[-1] == "exit functions" and "teardown" not in err, err
    assert done.stdout.decode().startswith("lambda_re")  # flushed before the end


# calls main in a fresh interpreter, then reports its exit code and whether
# the collector's state and the environment are as they were before it
_IN_PROCESS = (
    "import gc, os, sys\n"
    "from descentsum.cli import main\n"
    "state = lambda: (gc.isenabled(), gc.get_freeze_count(), dict(os.environ))\n"
    "before = state()\n"
    "rc = main(sys.argv[1:])\n"
    "print(rc, before[:2], state() == before, file=sys.stderr)\n"
)


def test_main_in_process_leaves_the_collector_and_environment_alone():
    argv = ["spectrum", "--preset", "sec5-1", "--top", "1"]
    assert _fresh("-c", _IN_PROCESS, *argv, env=_UNPINNED) == "0 (True, 0) True"


# runs the CLI as `python -m descentsum.cli` runs it, then reports at exit the
# thread counts the environment held when numpy was first looked for
_THREADS_AT_NUMPY = (
    "import atexit, os, runpy, sys\n"
    f"names = {_THREADS!r}\n"
    "seen = []\n"
    "class Probe:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not seen:\n"
    "            seen.extend(os.environ.get(k) for k in names)\n"
    "sys.meta_path.insert(0, Probe())\n"
    "atexit.register(lambda: print(*seen, file=sys.stderr))\n"
    "runpy.run_module('descentsum.cli', run_name='__main__')\n"
)


@pytest.mark.parametrize(
    "given, want",
    [((None, None, None), "1 1 1"), (("2", None, "4"), "2 1 4")],
    ids=["unset", "user-set"],
)
def test_the_process_entry_pins_unset_thread_counts_before_numpy(given, want):
    env = _env(**dict(zip(_THREADS, given)))
    argv = ["spectrum", "--preset", "sec5-1", "--top", "1"]
    assert _fresh("-c", _THREADS_AT_NUMPY, *argv, env=env) == want


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_pipe_ends_the_process_quietly():
    # about 1 MB of output, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "descentsum.cli", "sequence", "--n-max", "300"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert err.startswith("elapsed: ") and err.count("\n") == 1, err


_MAIN = "import sys\nfrom descentsum.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _output(done: subprocess.CompletedProcess) -> tuple:
    """Exit code, stdout, and stderr without its timing line."""
    err = [line for line in done.stderr.splitlines() if not line.startswith(b"elapsed: ")]
    return done.returncode, done.stdout, err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--preset", "sec5-1"],
        ["verify", "--preset", "sec6", "--n-max", "10"],
        ["verify", "--preset", "sec5-2", "--n-max", "8"],
        ["oracle", "--preset", "sec5-1", "--n", "9", "--format", "json"],
        ["oracle"],  # argparse exits 2 by SystemExit: no scheme named
    ],
    ids=["spectrum", "verify", "verify-fails", "oracle", "usage"],
)
def test_the_process_entry_prints_what_main_prints(argv):
    via_entry = _run("-m", "descentsum.cli", *argv, env=_UNPINNED)
    in_process = _run("-c", _MAIN, *argv, env=_UNPINNED)
    assert _output(via_entry) == _output(in_process)


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
    assert session.failed == 0 and session.attempted == 10
    words = doctest.testmod(descentsum.words)
    assert words.failed == 0 and words.attempted == 7


def test_traced_benchmark_job_imports_every_layer(tmp_path):
    # benchmark/shim.py wraps descentsum.linalg, .spectral, .expfun and .exact
    # by module name: a job traced through it fails if any of them is gone
    shim = Path(__file__).resolve().parent.parent / "benchmark" / "shim.py"
    spans = tmp_path / "spans.json"
    argv = ["constants", "--preset", "sec5-1", "--format", "json"]
    done = _run(str(shim), str(spans), *argv)
    assert done.returncode == 0, done.stderr.decode()
    assert spans.stat().st_size > 0
