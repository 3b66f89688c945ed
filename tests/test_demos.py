"""Every demo, and the README's library quick start, runs to completion
against the sources in src/."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import _brute as brute

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr


def readme_quick_start() -> str:
    """The code of the README's "Library quick start" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Library quick start", 1)[1].split("```")[1].removeprefix("python\n")


def test_readme_quick_start_gives_the_values_its_comments_give():
    namespace, values = {}, []
    for node in ast.parse(readme_quick_start()).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    b5_10, b5_10n6_vanishes, a20n6_ok, cores, r_of_q, chi_minus_q = values
    assert (b5_10, b5_10n6_vanishes, a20n6_ok, cores) == (6, True, True, 5)
    # R(q) = (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5)) and chi(-q) = (q;q^2)
    assert r_of_q.coeffs == tuple(brute.qproduct(
        ((1, 1, 5, 1), (1, 4, 5, 1), (1, 2, 5, -1), (1, 3, 5, -1)), 16))
    assert chi_minus_q.coeffs == tuple(brute.qproduct(((1, 1, 2, 1),), 16))
