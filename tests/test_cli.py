import json

import pytest

from qcore import register, unregister
from qcore.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from qcore.registry import P, SeriesEquality


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


def test_expand_unknown_series(capsys):
    code, _, err = run_cli(capsys, "expand", "zeta", "4")
    assert code == EXIT_USAGE
    assert "unknown series" in err


def test_expand_bad_product_spec(capsys):
    code, _, err = run_cli(capsys, "expand", "prod:1//2", "4")
    assert code == EXIT_USAGE
    assert "factor" in err


def test_expand_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QCORE_DEFAULT_ORDER", "5")
    code, out, _ = run_cli(capsys, "expand", "c5")
    assert code == EXIT_OK
    assert out.strip() == "1 1 2 3 5 2"


def test_expand_json_format(capsys):
    code, out, _ = run_cli(capsys, "expand", "c5", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 1, 2, 3, 5]
    assert payload["order"] == 4


def test_verify_single_id(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm3.b5_20n_15", "--order", "400")
    assert code == EXIT_OK
    assert "thm3.b5_20n_15 exact-match N=400" in out


def test_verify_tier_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tier", "core", "--order", "200")
    assert code == EXIT_OK
    assert "46 records: 46 exact-match" in out


def test_verify_unknown_selector(capsys):
    code, _, err = run_cli(capsys, "verify", "no.such.id")
    assert code == EXIT_USAGE
    assert "no.such.id" in err


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--tier", "core", "--order", "120")
    _, second, _ = run_cli(capsys, "verify", "--tier", "core", "--order", "120")
    assert first == second


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma.c5n4", "--order", "200",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == [{
        "id": "lemma.c5n4",
        "kind": "subsequence-relation",
        "order": 200,
        "status": "exact-match",
    }]


def test_verify_corrupt_record_exits_nonzero(capsys):
    register(SeriesEquality(
        "selftest.cli.bad", "selftest", "deliberately corrupted",
        ((P(1, 0),), (P(1, 0), P(1, 5))),
    ))
    try:
        code, out, _ = run_cli(capsys, "verify", "selftest.cli.bad", "--order", "50")
        assert code == EXIT_MISMATCH
        assert "mismatch" in out and "index=5" in out
    finally:
        unregister("selftest.cli.bad")


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


def test_oracle_ceiling(capsys):
    code, _, err = run_cli(capsys, "oracle", "61", "5")
    assert code == EXIT_USAGE
    assert "ceiling" in err


def test_census_text(capsys):
    code, out, _ = run_cli(capsys, "census", "b5bar", "-N", "10")
    assert code == EXIT_OK
    assert "zero 1/5" in out and "positive 3/5" in out and "negative 1/5" in out


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "c5", "-N", "50", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["zero"] == "0"


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["expand"])  # missing series name
    assert exc.value.code == EXIT_USAGE


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
])
def test_malformed_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
