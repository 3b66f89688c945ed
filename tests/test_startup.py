"""Import discipline: a command loads only the modules it runs.

Each check runs in a fresh interpreter, since this test process has long
since imported every qcore module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` and qcore on the path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with qcore on the path; its stdout."""
    proc = interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Counts the collections a process makes and, at exit, prints the collector's
# state when ``mark()`` was called, the collections made since, and whether
# the heap is frozen.  atexit handlers run before the shutdown collections.
COLLECTOR_PROBE = (
    "import atexit, gc\n"
    "starts, marks = [], []\n"
    "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
    "def mark():\n"
    "    marks.append((gc.isenabled(), len(starts)))\n"
    "atexit.register(lambda: print(marks[0][0], len(starts) - marks[0][1],\n"
    "                              gc.get_freeze_count() > 0))\n"
)


def test_import_qcore_loads_no_submodule():
    out = fresh("import sys, qcore\n"
                "print([m for m in sys.modules if m.startswith('qcore.')])\n")
    assert out == "[]\n"


def test_expand_leaves_the_registry_and_its_imports_out():
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        "code = cli.main(['expand', 'f', '5'])\n"
        "names = ('qcore.registry', 'qcore.identities', 'dataclasses', 'fractions', 'json',\n"
        "         'array')\n"
        "print(code, [m for m in names if m in sys.modules])\n"
    )
    assert out.splitlines() == ["1 -1 -1 0 0 1", "0 []"]


def test_oracle_loads_the_search_and_the_c5_series_only():
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        "code = cli.main(['oracle', '9', '5'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('qcore.')),\n"
        "      'dataclasses' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == (
        "0 ['qcore.cli', 'qcore.defaults', 'qcore.partitions', 'qcore.sequences', "
        "'qcore.series'] False")


def test_census_loads_neither_the_registry_nor_the_evaluator():
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        "code = cli.main(['census', 'b5bar', '-N', '10'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('qcore.')))\n"
    )
    assert out.splitlines() == [
        "b5bar sign census over n=1..10: zero 1/5, positive 3/5, negative 1/5",
        "0 ['qcore.cli', 'qcore.defaults', 'qcore.sequences', 'qcore.series']",
    ]


SEQUENCE_MODULES = ["qcore.cli", "qcore.defaults", "qcore.sequences", "qcore.series"]
ATOM_MODULES = sorted(SEQUENCE_MODULES + ["qcore.products"])
PRODUCT_MODULES = sorted(ATOM_MODULES + ["qcore.kernels"])
VERIFY_MODULES = ["qcore.identities", "qcore.registry", "qcore.reports"]


@pytest.mark.parametrize("argv, modules", [
    (["expand", "c5", "10"], SEQUENCE_MODULES),
    (["expand", "a5bar", "10"], SEQUENCE_MODULES),
    (["expand", "b5bar", "10"], SEQUENCE_MODULES),
    (["bfile", "export", "c5", "{path}", "-N", "10"], sorted(SEQUENCE_MODULES + ["qcore.bfile"])),
    (["expand", "f", "5"], ATOM_MODULES),
    (["expand", "phi:-:5", "5"], ATOM_MODULES),
    (["expand", "R", "5"], PRODUCT_MODULES),
    (["verify", "lemma.c5n4", "-N", "10"], sorted(ATOM_MODULES + VERIFY_MODULES)),
    (["verify", "lemma.A4B", "-N", "10"], sorted(PRODUCT_MODULES + VERIFY_MODULES)),
], ids=["c5", "a5bar", "b5bar", "bfile-c5", "f", "phi", "R", "verify-congruence",
        "verify-equality"])
def test_each_command_loads_the_series_modules_it_runs(tmp_path, argv, modules):
    # a sequence is its closed form, with neither products nor the kernels;
    # one atom is products without the kernels, and so is a congruence on a
    # sequence's progression; a product loads the kernels
    argv = [arg.format(path=tmp_path / "b_c5.txt") for arg in argv]
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('qcore.')))\n"
    )
    assert out.splitlines()[-1] == f"0 {modules}"


def test_verify_one_record_from_a_fresh_interpreter():
    out = fresh("from qcore import cli\n"
                "print(cli.main(['verify', 'lemma.c5n4', '-N', '10']))\n")
    assert out.splitlines() == [
        "lemma.c5n4 exact-match N=10",
        "1 records: 1 exact-match, 0 mismatch, 0 skipped",
        "0",
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "lemma.c5n4", "-N", "10"],
    ["census", "b5bar", "-N", "10"],
    ["bfile", "export", "c5", "{path}", "-N", "10"],
], ids=["verify", "census", "bfile-export"])
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    argv = [arg.format(path=tmp_path / "b_c5.txt") for arg in argv]
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, [m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv, code", [
    (["expand", "f", "5"], 0),
    (["verify", "lemma.c5n4", "-N", "10"], 0),
    (["census", "b5bar", "-N", "10"], 0),
    (["oracle", "9", "5"], 0),
    (["bfile", "export", "c5", "{path}", "-N", "10"], 0),
    (["expand", "c5", "-N", "-5"], 2),
], ids=["expand", "verify", "census", "oracle", "bfile-export", "rejected"])
def test_commands_load_no_argument_parser(tmp_path, argv, code):
    # argparse costs its import and gettext's, and building a parser looks up
    # translations through locale
    argv = [arg.format(path=tmp_path / "b_c5.txt") for arg in argv]
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    assert out.splitlines()[-1] == f"{code} []"


@pytest.mark.parametrize("argv, code", [
    (["oracle", "9", "3"], 0),
    (["expand", "no_such_series", "5"], 2),
    (["expand", "f:x", "5"], 2),
    (["expand", "c5", "-N", "-5"], 2),
], ids=["oracle-t3", "unknown-series", "bad-step", "negative-order"])
def test_commands_that_evaluate_no_series_load_no_series_engine(argv, code):
    out = fresh(
        "import sys\n"
        "from qcore import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, [m for m in ('qcore.products', 'qcore.series') if m in sys.modules])\n"
    )
    assert out.splitlines()[-1] == f"{code} []"


@pytest.mark.parametrize("argv, code", [
    (["expand", "c5", "10"], 0),
    (["oracle", "9", "3"], 0),
    (["expand", "f:x", "5"], 2),
], ids=["expand", "oracle-t3", "bad-step"])
def test_commands_load_no_regular_expressions(argv, code):
    # -S keeps out site, which on some hosts imports re through a .pth file
    proc = interpreter("-S", "-c", (
        "import sys\n"
        "from qcore import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, [m for m in ('re', '_sre') if m in sys.modules])\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} []"


def test_no_module_imports_dataclasses_or_typing():
    for path in sorted((SRC / "qcore").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("dataclasses", "typing"), (path.name, name)


def test_only_the_process_entry_touches_the_collector():
    # library code runs under the caller's collector policy; only the entry
    # points of a one-shot process (cli.run and python -m qcore) set their own
    users = set()
    for path in sorted((SRC / "qcore").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> the innermost function around it (ast.walk is outer first)
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            owner.update((id(n), func.name) for n in ast.walk(func))
        users |= {(path.name, owner.get(id(n)), n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "gc"}
        assert not any(isinstance(n, ast.ImportFrom) and n.module == "gc"
                       for n in ast.walk(tree)), path.name
    assert users == {("cli.py", "run", "disable"), ("cli.py", "run", "freeze"),
                     ("__main__.py", None, "disable")}


def _empty(node) -> bool:
    """Whether an expression is {}, [], set(), dict(), list(), deque() or None."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Constant):
        return node.value is None
    return (isinstance(node, ast.Call) and not node.args and not node.keywords
            and getattr(node.func, "id", None) in ("dict", "list", "set", "deque"))


def test_the_only_module_state_is_the_prefix_cache_and_the_run_table():
    # one cache: the prefix per sequence, plus the table and plans of the
    # running shared_products block; any other module-level name bound to an
    # empty container or None would be a second store of results
    state = set()
    for path in sorted((SRC / "qcore").glob("*.py")):
        stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack += (child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _empty(value):
                state |= {(path.name, t.id) for t in targets if isinstance(t, ast.Name)}
    assert state == {("sequences.py", "_EXPANSIONS"), ("products.py", "_RUN"),
                     ("products.py", "_SIDES")}


def test_only_the_series_defines_equality_or_hashing():
    # value types are named tuples, compared and hashed by the tuple in C
    for path in sorted((SRC / "qcore").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name == "TruncatedSeries":
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                assert not {"__eq__", "__hash__"} & set(names), (path.name, node.name)


def test_public_names_are_the_module_objects():
    import importlib

    import qcore

    for name in qcore.__all__:
        module = importlib.import_module(f"qcore.{qcore._EXPORTS[name]}")
        assert getattr(qcore, name) is getattr(module, name), name
    assert set(qcore.__all__) <= set(dir(qcore))
    with pytest.raises(AttributeError, match="no_such_name"):
        qcore.no_such_name


def test_main_in_process_leaves_the_collector_as_it_found_it(capsys):
    import gc

    from qcore import cli

    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["expand", "f", "5"]) == 0
    assert cli.main(["verify", "lemma.c5n4", "-N", "10"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert capsys.readouterr().out.splitlines()[0] == "1 -1 -1 0 0 1"


@pytest.mark.parametrize("argv, code, out, err", [
    (["verify", "lemma.c5n4", "-N", "10"], 0,
     "lemma.c5n4 exact-match N=10\n1 records: 1 exact-match, 0 mismatch, 0 skipped\n", ""),
    (["expand", "prod:1//2", "4"], 2,
     "", "error: bad product factor '1//2'; expected '[-]E/M[^Z]'\n"),
], ids=["verify", "malformed-expand"])
def test_python_m_qcore_output_and_exit_code(argv, code, out, err):
    proc = interpreter("-m", "qcore", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("argv, code, out", [
    (["verify", "lemma.c5n4", "-N", "10"], 0,
     ["lemma.c5n4 exact-match N=10", "1 records: 1 exact-match, 0 mismatch, 0 skipped"]),
    (["expand", "c5", "-5"], 2, []),  # a malformed command line
], ids=["returns", "usage-exit"])
def test_run_turns_the_collector_off_for_the_command_and_freezes_at_exit(argv, code, out):
    proc = interpreter("-c", COLLECTOR_PROBE + (
        "import sys\n"
        "from qcore import cli\n"
        "main = cli.main\n"
        "def spy(argv=None):\n"
        "    mark()\n"
        "    return main(argv)\n"
        "cli.main = spy\n"
        f"sys.argv = ['qcore', *{argv!r}]\n"
        "cli.run()\n"
    ))
    assert (proc.returncode, proc.stdout.splitlines()) == (code, [*out, "False 0 True"])


def test_python_m_qcore_imports_the_cli_without_the_collector():
    # runpy runs qcore/__main__.py as ``python -m qcore`` does; the finder
    # marks the moment qcore.cli is first looked up, before it is compiled
    out = fresh(COLLECTOR_PROBE + (
        "import runpy, sys\n"
        "class Mark:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'qcore.cli':\n"
        "            mark()\n"
        "sys.meta_path.insert(0, Mark())\n"
        "sys.argv = ['qcore', 'expand', 'f', '5']\n"
        "runpy.run_module('qcore', run_name='__main__', alter_sys=True)\n"
    ))
    assert out.splitlines() == ["1 -1 -1 0 0 1", "False 0 True"]
