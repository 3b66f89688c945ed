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


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with qcore on the path; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
        "0 ['qcore.cli', 'qcore.defaults', 'qcore.partitions', 'qcore.products', "
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
        "0 ['qcore.cli', 'qcore.defaults', 'qcore.products', 'qcore.series']",
    ]


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
