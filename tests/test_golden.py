"""CLI stdout and exit codes, byte for byte, against recorded output.

``tests/golden/`` holds the stdout of ``qcore verify all -N N`` in text and
json for N in 0, 1, 7, 61 and 300, and of ``qcore expand NAME 200`` for the
three sequences, recorded before relations, families and series equalities
shared one comparator.  A change to a report line, a value's format, a kind
or a coefficient shows up here.
"""

from pathlib import Path

import pytest

from qcore.cli import EXIT_MISMATCH, EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# cor.census misses its zero bound at these unaligned orders (ROADMAP item 5)
CENSUS_FAILS = (1, 7, 61)

CASES = [
    (f"verify_all_N{n}.{ext}", ["verify", "all", "-N", str(n)] + flags,
     EXIT_MISMATCH if n in CENSUS_FAILS else EXIT_OK)
    for n in (0, 1, 7, 61, 300)
    for ext, flags in (("txt", []), ("json", ["--format", "json"]))
] + [
    (f"expand_{name}_200.txt", ["expand", name, "200"], EXIT_OK)
    for name in ("c5", "a5bar", "b5bar")
]


@pytest.mark.parametrize("filename, argv, code", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(capsys, filename, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / filename).read_bytes()
