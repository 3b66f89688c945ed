import pytest

from qcore import (
    BFileParseError,
    first_discrepancy,
    format_bfile,
    gen_a5bar,
    parse_bfile,
)


def test_format_round_trip():
    values = list(gen_a5bar(100).coeffs)
    text = format_bfile(values)
    lines = text.splitlines()
    assert len(lines) == 101
    assert lines[7] == "7 24"
    parsed = parse_bfile(text)
    assert parsed.first_index == 0
    assert list(parsed.values()) == values
    assert first_discrepancy(parsed, values) is None


def test_forged_value_detected():
    values = list(gen_a5bar(20).coeffs)
    forged = values.copy()
    forged[6] = 21
    parsed = parse_bfile(format_bfile(forged))
    assert first_discrepancy(parsed, values) == (6, 21, 20)


def test_overlap_only_is_compared():
    parsed = parse_bfile("0 1\n1 2\n2 4\n3 8\n")
    assert first_discrepancy(parsed, [1, 2]) is None


def test_comments_and_blank_lines_tolerated():
    parsed = parse_bfile("# header comment\n\n0 1\n1 -2\n")
    assert parsed.entries == ((0, 1), (1, -2))


def test_parse_error_reports_line_number():
    with pytest.raises(BFileParseError) as err:
        parse_bfile("0 1\nnot numbers\n")
    assert err.value.lineno == 2


def test_three_fields_rejected():
    with pytest.raises(BFileParseError):
        parse_bfile("0 1 9\n")


def test_index_gap_rejected():
    with pytest.raises(BFileParseError) as err:
        parse_bfile("0 1\n2 4\n")
    assert "gap" in str(err.value)


def test_negative_index_rejected():
    with pytest.raises(BFileParseError):
        parse_bfile("-1 5\n")


def test_empty_file_rejected():
    with pytest.raises(BFileParseError):
        parse_bfile("# only a comment\n")


@pytest.mark.parametrize("text", ["0 1\x0c1 1\n", "0 1\x0b1 1\n2 x\n", "0 1\x1c1 1\n"])
def test_only_a_line_break_ends_a_line(text):
    # a form feed, vertical tab or separator character is whitespace inside
    # a line, so the first line has four fields
    with pytest.raises(BFileParseError) as err:
        parse_bfile(text)
    assert err.value.lineno == 1
    assert "expected 'index value'" in str(err.value)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_line_breaks_parse(newline):
    text = newline.join(["# header", "0 1", "", "1 -2", "2 3"]) + newline
    assert parse_bfile(text).entries == ((0, 1), (1, -2), (2, 3))
    with pytest.raises(BFileParseError) as err:
        parse_bfile(newline.join(["0 1", "1 2", "x 3"]))
    assert err.value.lineno == 3
