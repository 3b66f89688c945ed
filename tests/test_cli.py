import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute as brute
from qcore import cli, identities, products, sequences
from qcore.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from qcore.registry import P, SeriesEquality


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_a5bar(capsys):
    code, out, _ = run_cli(capsys, "expand", "a5bar", "7")
    assert code == EXIT_OK
    assert out.strip() == "1 2 4 8 14 14 20 24"


def test_expand_b5bar(capsys):
    code, out, _ = run_cli(capsys, "expand", "b5bar", "10")
    assert code == EXIT_OK
    assert out.strip() == "1 1 1 2 3 -1 0 2 0 -2 6"


def test_expand_c5_constant(capsys):
    code, out, _ = run_cli(capsys, "expand", "c5", "0")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_expand_named_with_arguments(capsys):
    code, out, _ = run_cli(capsys, "expand", "phi:-:1", "4")
    assert code == EXIT_OK
    assert out.strip() == "1 -2 0 0 2"
    code, out, _ = run_cli(capsys, "expand", "R", "5")
    assert code == EXIT_OK
    assert out.strip() == "1 -1 1 0 -1 1"


def test_expand_inline_product(capsys):
    code, out, _ = run_cli(capsys, "expand", "prod:1/1^-1", "6")
    assert code == EXIT_OK
    assert out.strip() == "1 1 2 3 5 7 11"


@pytest.mark.parametrize("spec, factors", [
    ("1/2,1/2,1/2^-1", [(1, 1, 2, 1), (1, 1, 2, 1), (1, 1, 2, -1)]),
    ("1/1^0,2/3^-2", [(1, 1, 1, 0), (1, 2, 3, -2)]),
], ids=["repeated-factor", "zero-power"])
def test_expand_inline_product_matches_brute(capsys, spec, factors):
    code, out, _ = run_cli(capsys, "expand", f"prod:{spec}", "60")
    assert code == EXIT_OK
    assert [int(c) for c in out.split()] == brute.qproduct(factors, 60)


def test_expand_unknown_series(capsys):
    code, _, err = run_cli(capsys, "expand", "zeta", "4")
    assert code == EXIT_USAGE
    assert "unknown series" in err


def test_expand_bad_product_spec(capsys):
    code, _, err = run_cli(capsys, "expand", "prod:1//2", "4")
    assert code == EXIT_USAGE
    assert "factor" in err


# -- prod: factors and negative numbers against the patterns once used ---------

# decimal digits in three scripts, a digit that is not decimal (superscript
# two), the syntax's own characters, the whitespace strip() and $ treat
# apart, and a letter
TOKEN_CHARS = "07\u0663\U0001d7d7\u00b2-/^.\n\r x"


def factor_outcome(part):
    """What ``_parse_product_spec`` makes of one factor: its factor list or
    the refusal's text."""
    try:
        return cli._parse_product_spec(part)
    except cli.UsageError as exc:
        return str(exc)


def reference_factor_outcome(part):
    """The same through ``FACTOR_RE``."""
    part = part.strip()
    factor = brute.product_factor(part)
    if factor is None:
        return f"bad product factor {part!r}; expected '[-]E/M[^Z]'"
    if factor[1] < 1 or factor[2] < 1:
        return f"factor {part!r} needs E >= 1 and M >= 1"
    return [factor]


def assert_token_read_as_the_patterns_read_it(token):
    assert cli._negative_number(token) == bool(brute.NEGATIVE_RE.match(token)), repr(token)
    assert factor_outcome(token) == reference_factor_outcome(token), repr(token)


def test_short_tokens_are_read_as_the_patterns_read_them():
    # every token of up to four characters over TOKEN_CHARS (30941 tokens)
    for size in range(5):
        for chars in itertools.product(TOKEN_CHARS, repeat=size):
            assert_token_read_as_the_patterns_read_it("".join(chars))


@pytest.mark.parametrize("token", [
    "1/1", "-1/2", "1/1^-1", "12/5^05", "\u0663/\u0663^-\U0001d7d7", " 1/2 \n", "1/2\n^3",
    "-1/2^--1", "1/2^", "1/2^-", "1//2", "1/2/3", "1/2^3^4", "0/1", "1/0", "+1/2", "1/\u00b2",
    "-5", "-5\n", "-5\n\n", "-1.5", "-.5", "-1.5\n", "-1.", "-.", "-1.5.5", "--5", "-\n",
    "- 5", "-\u0663.\u0663", "-5\r",
])
def test_chosen_tokens_are_read_as_the_patterns_read_them(token):
    assert_token_read_as_the_patterns_read_it(token)


@settings(max_examples=300, deadline=None)
@given(st.text(TOKEN_CHARS, max_size=12))
def test_generated_tokens_are_read_as_the_patterns_read_them(token):
    assert_token_read_as_the_patterns_read_it(token)


def test_expand_json_format(capsys):
    code, out, _ = run_cli(capsys, "expand", "c5", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 1, 2, 3, 5]
    assert payload["order"] == 4


# one instance of each name shape the README lists, b5bar's negatives and
# zeros among them
README_SERIES = ["c5", "a5bar", "b5bar", "f", "f:3", "R", "R:2", "phi", "phi:+", "phi:-:5",
                 "psi", "psi:+:2", "chi", "chi:-:3", "prod:1/1^-1", "prod:-1/2,1/5^5"]


@pytest.mark.parametrize("name, order", [*((n, o) for n in README_SERIES for o in (0, 2000)),
                                         ("c5", 30000), ("a5bar", 30000), ("b5bar", 30000)])
def test_expand_prints_the_coefficients_of_the_resolved_series(capsys, name, order):
    coeffs = cli.resolve_series(name, order).coeffs
    assert run_cli(capsys, "expand", name, str(order)) == (
        EXIT_OK, " ".join(map(str, coeffs)) + "\n", "")
    assert run_cli(capsys, "expand", name, str(order), "--format", "json") == (
        EXIT_OK, json.dumps({"name": name, "order": order, "coefficients": list(coeffs)},
                            sort_keys=True) + "\n", "")
    if name == "b5bar" and order:
        assert {0, -1} <= set(coeffs)


@pytest.mark.parametrize("order", [0, 1, 2, 50, 2000])
@pytest.mark.parametrize("name, seq", [("c5", "c5"), ("a5bar", "a5"), ("b5bar", "b5")])
def test_a_sequence_name_reads_what_its_one_term_side_reads(name, seq, order):
    # cli reads the constructor in sequences.SEQUENCES directly; the side
    # P(1, 0, SEQ(seq)) reaches the same constructor through evaluate_side
    side = (products.P(1, 0, products.SEQ(seq)),)
    assert cli.resolve_series(name, order) == products.evaluate_side(side, order)


def test_an_expanded_sequence_is_the_prefix_that_products_reads(capsys, monkeypatch):
    # one evaluator and one cache: after expand c5 2000, the constructor
    # products names is the one cli read, and a lower order is a slice
    closed, calls = sequences._closed_form, []
    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form",
                        lambda *args: calls.append(args[1:]) or closed(*args))
    assert run_cli(capsys, "expand", "c5", "2000")[0] == EXIT_OK
    assert calls == [(1, 0, 2000)]
    assert products.gen_c5 is sequences.gen_c5
    assert products.gen_c5(1000) == sequences.SEQUENCES["c5"](2000).truncate(1000)
    assert calls == [(1, 0, 2000)]


def test_verify_single_id(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm3.b5_20n_15", "--order", "400")
    assert code == EXIT_OK
    assert "thm3.b5_20n_15 exact-match N=400" in out


def test_verify_tier_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "core", "--order", "200")
    assert code == EXIT_OK
    assert "46 records: 46 exact-match" in out


def test_verify_unknown_selector(capsys):
    code, _, err = run_cli(capsys, "verify", "no.such.id")
    assert code == EXIT_USAGE
    assert err == "error: unknown identity or tier: 'no.such.id'\n"


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "core", "--order", "120")
    _, second, _ = run_cli(capsys, "verify", "core", "--order", "120")
    assert first == second


@pytest.mark.parametrize("rid, kind, extra", [
    ("lemma.c5n4", "subsequence-relation", {}),
    ("cor1.mod10a", "congruence", {}),
    ("cor1.mod5k", "congruence-family", {"detail": "k in [2, 3]"}),
], ids=["lemma.c5n4", "cor1.mod10a", "cor1.mod5k"])
def test_verify_json_format(capsys, rid, kind, extra):
    code, out, _ = run_cli(capsys, "verify", rid, "--order", "200", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == [{
        "id": rid,
        "kind": kind,
        "order": 200,
        "status": "exact-match",
        **extra,
    }]


def test_verify_corrupt_record_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(identities.REGISTRY, "selftest.cli.bad", SeriesEquality(
        "selftest.cli.bad", "selftest", "deliberately corrupted",
        ((P(1, 0),), (P(1, 0), P(1, 5))),
    ))
    code, out, _ = run_cli(capsys, "verify", "selftest.cli.bad", "--order", "50")
    assert code == EXIT_MISMATCH
    assert "mismatch" in out and "index=5" in out


def test_verify_all_with_a_wrong_progression_value_names_its_records(capsys, monkeypatch):
    # a wrong b5(197) where b5(25n + 22) is evaluated on its own n: verify
    # all reports each record that reads that evaluation as a mismatch, and
    # exits so; the records that read b5(197) from the prefix pass
    closed = sequences._closed_form

    def corrupted(form, m, r, order):
        series = closed(form, m, r, order)
        if form is not sequences.FORMS["b5"] or (m, r) != (25, 22) or order < 7:
            return series
        coeffs = list(series.coeffs)
        coeffs[7] += 1
        return type(series)(coeffs, order)

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form", corrupted)
    code, out, err = run_cli(capsys, "verify", "all", "-N", "300")
    assert code == EXIT_MISMATCH and err == ""
    bad = sorted(line.split()[0] for line in out.splitlines() if " mismatch " in line)
    assert bad == ["ext.b5.before_last", "ext.b5.eliminate_2"], out
    assert "2 mismatch" in out


def test_oracle_agreement(capsys):
    code, out, _ = run_cli(capsys, "oracle", "4", "5")
    assert code == EXIT_OK
    assert "count_t_cores(4, 5) = 5" in out
    assert "agrees" in out


def test_oracle_zero(capsys):
    code, out, _ = run_cli(capsys, "oracle", "0", "5")
    assert code == EXIT_OK
    assert "= 1" in out


def test_oracle_list_includes_example(capsys):
    code, out, _ = run_cli(capsys, "oracle", "9", "6", "--list")
    assert code == EXIT_OK
    assert "4,3,1,1" in out


@pytest.mark.parametrize("n", ["61", "1000"])
def test_oracle_agrees_past_sixty(capsys, n):
    code, out, _ = run_cli(capsys, "oracle", n, "5")
    assert code == EXIT_OK
    assert out.endswith(": agrees\n")


@pytest.mark.parametrize("argv", [["c5", "10", "-N", "5"], ["-N", "100", "c5", "100"],
                                  ["c5", "7", "--order", "100"]])
def test_expand_given_the_order_twice_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "expand", *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "not allowed with argument" in err


def test_census_text(capsys):
    code, out, _ = run_cli(capsys, "census", "b5bar", "-N", "10")
    assert code == EXIT_OK
    assert "zero 1/5" in out and "positive 3/5" in out and "negative 1/5" in out


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "c5", "-N", "50", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["zero"] == "0"


@pytest.mark.parametrize("name", ["d7", "a5"])
def test_census_of_an_unknown_sequence_is_usage_error(capsys, name):
    # census takes the CLI's names: a5 is the library's name for a5bar
    code, out, err = run_cli(capsys, "census", name, "-N", "10")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"error: unknown sequence {name!r}; choose from a5bar, b5bar, c5\n")


def test_bfile_round_trip(tmp_path, capsys):
    path = tmp_path / "b_a5bar.txt"
    code, out, _ = run_cli(capsys, "bfile", "export", "a5bar", str(path), "-N", "100")
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert len(lines) == 101
    assert lines[7] == "7 24"
    code, out, _ = run_cli(capsys, "bfile", "check", "a5bar", str(path), "-N", "100")
    assert code == EXIT_OK
    assert "no discrepancies" in out


def test_bfile_check_detects_forgery(tmp_path, capsys):
    path = tmp_path / "b_forged.txt"
    run_cli(capsys, "bfile", "export", "a5bar", str(path), "-N", "20")
    lines = path.read_text().splitlines()
    lines[6] = "6 21"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "bfile", "check", "a5bar", str(path), "-N", "20")
    assert code == EXIT_MISMATCH
    assert "discrepancy at index 6" in out
    assert "expected 20" in out


def test_bfile_check_without_common_indices_fails(tmp_path, capsys):
    path = tmp_path / "far.txt"
    path.write_text("10 -4\n11 16\n")
    code, out, _ = run_cli(capsys, "bfile", "check", "c5", str(path), "-N", "5")
    assert code == EXIT_MISMATCH
    assert out == "nothing checked: the file holds indices 10..11, the series 0..5\n"
    code, out, _ = run_cli(capsys, "bfile", "check", "c5", str(path), "-N", "10")
    assert out.startswith("discrepancy at index 10")


def test_bfile_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bfile", "check", "a5bar",
                           str(tmp_path / "absent.txt"))
    assert code == EXIT_IO


def test_bfile_parse_error_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nbroken line here\n")
    code, _, err = run_cli(capsys, "bfile", "check", "a5bar", str(path), "-N", "10")
    assert code == EXIT_IO
    assert "line 2" in err


def test_bfile_non_ascii_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 \xff\n")
    code, out, err = run_cli(capsys, "bfile", "check", "c5", str(path))
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith(f"cannot read {path}: 'ascii' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "expand")  # missing series name
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: the following arguments are required: name\n")


@pytest.mark.parametrize("argv", [
    "expand a5bar -N -5",
    "expand phi -N -5",
    "expand prod:1/5,4/5 -N -5",
    "expand c5 -5",
    "verify lemma.A4B -N -5",
    "oracle 5 0",
    "oracle -1 5",
    "census b5bar -N 0",
    "bfile export c5 unused.txt -N -1",
    "verify thm1.recurrence --kmax -3 -N 10",
    "verify thm1.recurrence --kmax 1 -N 10",
    "verify all --jobs 2 -N 1",
])
def test_malformed_input_is_usage_error(capsys, argv):
    # one error: line, as for every other usage error
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("argv, usage", [
    ("-h", "usage: qcore [-h/--help] {expand,verify,oracle,census,bfile} ..."),
    ("--help", "usage: qcore [-h/--help] {expand,verify,oracle,census,bfile} ..."),
    ("expand --help", "usage: qcore expand [-h/--help] [-N/--order ORDER] "
                      "[--format {text,json}] name [N]"),
    ("verify lemma.c5n4 -h", "usage: qcore verify "),
    ("oracle --he", "usage: qcore oracle [-h/--help] [--list] n t"),
    ("census -h", "usage: qcore census "),
    ("bfile -h", "usage: qcore bfile [-h/--help] [-N/--order ORDER] {export,check} name path"),
], ids=["-h", "--help", "expand", "verify", "oracle-prefix", "census", "bfile"])
def test_help_prints_the_usage_and_exits_0(capsys, argv, usage):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0].startswith(usage), out


@pytest.mark.parametrize("name", ["f:0", "phi:+:0", "R:0", "chi:+:0", "chi:-:0"])
@pytest.mark.parametrize("command", ["expand {name} 5", "bfile export {name} {path} -N 5"],
                         ids=["expand", "bfile-export"])
def test_theta_step_zero_is_usage_error(tmp_path, capsys, command, name):
    # chi:-:0 is f(-q^0) / f(-q^0), whose two equal atoms would cancel to 1
    path = tmp_path / "b.txt"
    code, out, err = run_cli(capsys, *command.format(name=name, path=path).split())
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot expand {name!r}: j must be >= 1\n"
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    "verify all -N {N}",
    "verify lemma.A4B -N {N}",
    "expand c5 {N}",
    "expand f -N {N}",
    "census b5bar -N {N}",
    "bfile export c5 {path} -N {N}",
    "bfile check a5bar {path} -N {N}",
])
def test_order_too_large_to_index_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "b.txt"
    path.write_text("0 1\n")
    argv = argv.format(N=99999999999999999999, path=path).split()
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: order 99999999999999999999 is too large")
    assert err.count("\n") == 1
    assert path.read_text() == "0 1\n"


def test_check_order_refuses_the_first_index_no_list_can_hold():
    # a read to index top allocates top + 1 slots at most; the bound itself is
    # checked without allocating anything
    cli._check_order(0, cli._MAX_SLOTS - 1)
    with pytest.raises(cli.UsageError, match=f"no list can hold index {cli._MAX_SLOTS}$"):
        cli._check_order(0, cli._MAX_SLOTS)


@pytest.mark.parametrize("argv", [
    "verify all -N 10",
    "verify thm3.b5_20n_15 -N 15",
    "expand c5 10",
    "census b5bar -N 10",
    "bfile export c5 {path} -N 10",
])
def test_out_of_memory_is_usage_error_without_traceback(tmp_path, monkeypatch, capsys, argv):
    # an order past the machine's memory ends in a MemoryError wherever the
    # allocation fails; building a sequence stands in for it here
    def no_memory(form, m, r, order):
        raise MemoryError

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form", no_memory)
    path = tmp_path / "b.txt"
    code, out, err = run_cli(capsys, *argv.format(path=path).split())
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: out of memory; try a smaller order\n"
    assert not path.exists()


def test_closed_stdout_is_io_error_without_traceback():
    # the coefficients of c5 to q^20000 fill more than a pipe buffer, so the
    # write hits the closed pipe after the reader has taken 20 bytes
    src = ROOT / "src"
    proc = subprocess.Popen([sys.executable, "-m", "qcore", "expand", "c5", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.read(20) == b"1 1 2 3 5 2 6 5 7 5 "
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_IO
    assert err == ""


# -- the table parser against the argparse reference ----------------------------


def table_outcome(argv):
    """What ``cli.parse_args`` makes of a command line: the handler and its
    arguments, EXIT_OK for help or EXIT_USAGE for a refusal."""
    try:
        handler, args = cli.parse_args(argv)
    except cli.UsageError:
        return EXIT_USAGE
    return EXIT_OK if handler is cli._print_help else (handler, args)


def reference_outcome(argv):
    """The same from the argparse parser: its exit code, or its handler and
    the namespace's other fields."""
    try:
        namespace = brute.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    args = vars(namespace)
    del args["command"]
    return args.pop("func"), args


def readme_command_lines():
    """The command lines of the README's example block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("qcore ")]


def workload_command_lines():
    """Every argument list the benchmark's workloads send, for three seeds."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    requests = [*workloads.verify_all_pass(), *workloads.expand_sequences_pass(),
                *workloads.KNOWN_DEFECTS]
    for seed in (777, 31337, 5):
        blocks = workloads.cli_mix_blocks(seed, identities.record_ids("all"))
        requests += [r for _ in range(5) for r in next(blocks)]
    return sorted({argv for r in requests for argv in r.argvs})


MALFORMED = [argv.split() for argv in (
    "expand a5bar -N -5", "expand phi -N -5", "expand prod:1/5,4/5 -N -5", "expand c5 -5",
    "verify lemma.A4B -N -5", "oracle 5 0", "oracle -1 5", "census b5bar -N 0",
    "bfile export c5 unused.txt -N -1", "verify thm1.recurrence --kmax -3 -N 10",
    "verify thm1.recurrence --kmax 1 -N 10", "verify all --jobs 2 -N 1",
)]

SPELLINGS = [argv.split() for argv in (
    # the accepted spellings of an option and its value
    "expand c5 --order=5", "expand c5 -N5", "expand c5 -N=5", "expand c5 --ord 5",
    "expand c5 --o=5", "expand c5 --form json", "expand -N 5 c5", "expand --format=json c5 5",
    "expand c5 -N 5 -N 6", "expand c5 -N 1_0", "verify --timing lemma.c5n4",
    "verify -N 10 lemma.c5n4 --tim --jobs 01 --km 4", "verify", "verify --jobs=1",
    "oracle 9 6 --list", "oracle --list 9 6", "census c5", "bfile export -N 9 c5 b.txt",
    "bfile check c5 -N 9 b.txt",
    # -- ends the options
    "expand -- c5 5", "expand c5 -- 5", "expand -- -5", "verify -N 10 -- lemma.c5n4",
    "bfile export c5 -- -b.txt", "expand c5 -N -- 5",
    # refused: a positional too many or too few, an unknown option or value
    "expand c5 5 6", "expand", "oracle 9", "bfile export c5", "verify a b", "census",
    "expand c5 --fmt json", "expand c5 -x", "verify --jobs 2", "verify --jobs x",
    "expand c5 --format xml", "expand c5 --format=", "expand c5 -N", "expand c5 -N x",
    "expand c5 -N=", "verify --timing=yes", "bfile move c5 b.txt", "oracle 1.5 5",
    "oracle -1.5 5", "frobnicate", "", "--", "-x expand c5", "-- expand c5 5",
    "expand c5 -N 5 7", "expand -N 5 c5 7", "expand c5 --order 5 -N 6 7",
    # help
    "-h", "--help", "--he", "expand -h", "verify all --help", "oracle -h 9",
)]


@pytest.mark.parametrize("argv", [*readme_command_lines(), *workload_command_lines(),
                                  *MALFORMED, *SPELLINGS], ids=" ".join)
def test_the_table_parser_reads_a_command_line_as_argparse_did(capsys, argv):
    assert table_outcome(list(argv)) == reference_outcome(list(argv))


def test_n_after_an_option_is_read_where_argparse_refused_it(capsys):
    # argparse gives expand's N its default when an option follows the name,
    # and then refuses the N after the option as an unrecognized argument
    argv = ["expand", "c5", "--format", "json", "10"]
    assert reference_outcome(argv) == EXIT_USAGE
    assert table_outcome(argv) == (cli._cmd_expand, {"name": "c5", "positional_order": 10,
                                                     "order": None, "format": "json"})
