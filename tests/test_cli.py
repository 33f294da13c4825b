import io
import json

import pytest

from primeperm.cli import (
    EXIT_CAP,
    EXIT_COMPOSITE,
    EXIT_NOT_PERMUTATION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- construct ---------------------------------------------------------------


def test_construct_text_table(capsys):
    code, out, err = run(capsys, "construct", "--n", "5")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("Round 1") and lines[0].endswith("1  2  3  4  5")
    assert lines[1].startswith("Round 2") and lines[1].endswith("1  5  4  3  2")
    assert lines[2].startswith("Total") and lines[2].endswith("2  7  7  7  7")


ROUNDS_N12 = (
    "Round 1 |  1   2   3   4   5   6   7   8   9  10  11  12\n"
    "Round 2 | 12  11  10   9   8   7   6   5   4   3   2   1\n"
    "Total   | 13  13  13  13  13  13  13  13  13  13  13  13\n"
)
# Blocks [4, 13], [2, 3] and [1, 1]: one- and two-digit columns side by side.
ROUNDS_N13 = (
    "Round 1 | 1  2  3   4   5   6   7   8   9  10  11  12  13\n"
    "Round 2 | 1  3  2  13  12  11  10   9   8   7   6   5   4\n"
    "Total   | 2  5  5  17  17  17  17  17  17  17  17  17  17\n"
)


@pytest.mark.parametrize("n,expected", [(12, ROUNDS_N12), (13, ROUNDS_N13)])
def test_construct_text_golden(capsys, n, expected):
    assert run(capsys, "construct", "--n", str(n)) == (EXIT_OK, expected, "")


def test_construct_n1(capsys):
    code, out, _ = run(capsys, "construct", "--n", "1")
    assert code == EXIT_OK
    assert "2" in out.splitlines()[2]  # the lone total


def test_construct_json(capsys):
    code, out, err = run(capsys, "construct", "--n", "4", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert out.strip() == '{"n":4,"image":[4,3,2,1]}'


def test_construct_rejects_bfile(capsys):
    code, _, err = run(capsys, "construct", "--n", "4", "--format", "bfile")
    assert code == EXIT_USAGE and err != ""


def test_construct_requires_n(capsys):
    code, _, _ = run(capsys, "construct")
    assert code == EXIT_USAGE


def test_construct_negative_n(capsys):
    code, _, _ = run(capsys, "construct", "--n", "-3")
    assert code == EXIT_USAGE


# --- verify --------------------------------------------------------------------


def test_verify_valid(capsys):
    code, out, err = run(capsys, "verify", "--perm", "1,5,4,3,2")
    assert code == EXIT_OK and err == ""
    assert "valid: every total is prime" in out


def test_verify_composite_sums(capsys):
    code, out, _ = run(capsys, "verify", "--perm", "3,2,1,5,4")
    assert code == EXIT_COMPOSITE
    assert out.count("composite") >= 5
    for s in (4, 9):
        assert f"= {s}  composite" in out


def test_verify_composite_golden(capsys):
    assert run(capsys, "verify", "--perm", "3,2,1,5,4") == (
        EXIT_COMPOSITE,
        "1 + 3 = 4  composite\n"
        "2 + 2 = 4  composite\n"
        "3 + 1 = 4  composite\n"
        "4 + 5 = 9  composite\n"
        "5 + 4 = 9  composite\n"
        "invalid: composite totals at positions 1,2,3,4,5\n",
        "",
    )


def test_verify_mixed_golden(capsys):
    assert run(capsys, "verify", "--perm", "2,1,3") == (
        EXIT_COMPOSITE,
        "1 + 2 = 3  prime\n"
        "2 + 1 = 3  prime\n"
        "3 + 3 = 6  composite\n"
        "invalid: composite totals at positions 3\n",
        "",
    )


def test_verify_empty_golden(capsys):
    # n = 0: no position lines, only the verdict.
    expected = (EXIT_OK, "valid: every total is prime\n", "")
    assert run(capsys, "verify", "--perm", "") == expected
    assert run(capsys, "verify", "--perm", "  ") == expected


def test_verify_not_a_permutation(capsys):
    code, _, err = run(capsys, "verify", "--perm", "1,1,2")
    assert code == EXIT_NOT_PERMUTATION
    assert "not a permutation" in err


def test_verify_parse_failure(capsys):
    code, _, err = run(capsys, "verify", "--perm", "1,x,3")
    assert code == EXIT_USAGE and err != ""


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--perm", "2,1,4,3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "n": 4,
        "image": [2, 1, 4, 3],
        "sums": [3, 3, 7, 7],
        "composite_positions": [],
        "valid": True,
    }


def test_verify_reads_stdin_csv(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2,1\n"))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_OK


def test_verify_reads_stdin_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":3,"image":[1,3,2]}'))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_OK


def test_verify_stdin_json_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":4,"image":[1,3,2]}'))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_NOT_PERMUTATION


def test_verify_stdin_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":4,'))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_USAGE


def test_construct_verify_round_trip(capsys, monkeypatch):
    for n in (0, 1, 2, 3, 10, 97):
        code, out, _ = run(capsys, "construct", "--n", str(n), "--format", "json")
        assert code == EXIT_OK
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, _, _ = run(capsys, "verify")
        assert code == EXIT_OK, n


# --- count -----------------------------------------------------------------


def test_count_known_values(capsys):
    assert run(capsys, "count", "--n", "10")[1].strip() == "676"
    assert run(capsys, "count", "--n", "7", "--method", "naive")[1].strip() == "4"
    assert run(capsys, "count", "--n", "0")[1].strip() == "1"


def test_count_methods_print_identical_strings(capsys):
    for n in (1, 5, 9, 12, 14):
        dp = run(capsys, "count", "--n", str(n), "--method", "dp")
        ry = run(capsys, "count", "--n", str(n), "--method", "ryser")
        assert dp[0] == ry[0] == EXIT_OK
        assert dp[1] == ry[1]


def test_count_strict_paper(capsys):
    code, out, _ = run(capsys, "count", "--n", "6", "--method", "naive", "--strict-paper")
    assert code == EXIT_OK and out.strip() == "9"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "10", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 10, "method": "auto", "count": "676"}


def test_count_cap_exit(capsys):
    code, _, err = run(capsys, "count", "--n", "30", "--method", "dp")
    assert code == EXIT_CAP and "capped" in err
    code, _, _ = run(capsys, "count", "--n", "12", "--method", "naive")
    assert code == EXIT_CAP


def test_count_cap_override(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--method", "dp", "--dp-cap", "5")
    assert code == EXIT_OK and out.strip() == "1"
    code, _, _ = run(capsys, "count", "--n", "6", "--method", "dp", "--dp-cap", "5")
    assert code == EXIT_CAP


def test_count_bad_method(capsys):
    code, _, _ = run(capsys, "count", "--n", "5", "--method", "magic")
    assert code == EXIT_USAGE


# --- enumerate ----------------------------------------------------------------


def test_enumerate_n5(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "5")
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == ["1,5,4,3,2"]


def test_enumerate_n4(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == EXIT_OK
    assert out.splitlines() == ["2,1,4,3", "2,3,4,1", "4,1,2,3", "4,3,2,1"]


def test_enumerate_n3(capsys):
    assert run(capsys, "enumerate", "--n", "3")[1].splitlines() == ["1,3,2"]


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--limit", "2")
    assert code == EXIT_OK and len(out.splitlines()) == 2


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == EXIT_OK
    images = [json.loads(line)["image"] for line in out.splitlines()]
    assert images[0] == [2, 1, 4, 3] and len(images) == 4


def test_enumerate_rejects_zero(capsys):
    code, _, _ = run(capsys, "enumerate", "--n", "0")
    assert code == EXIT_USAGE


def test_enumerate_line_count_matches_count(capsys):
    for n in range(1, 10):
        lines = run(capsys, "enumerate", "--n", str(n))[1].splitlines()
        counted = int(run(capsys, "count", "--n", str(n))[1])
        assert len(lines) == counted


# --- table ----------------------------------------------------------------------


def _parse_table(out):
    rows = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            rows.append((int(cells[0]), int(cells[1]), int(cells[2])))
    return rows


def test_table_known_rows(capsys):
    code, out, err = run(capsys, "table", "--max", "10")
    assert code == EXIT_OK and err == ""
    rows = _parse_table(out)
    assert [r[1] for r in rows] == [1, 1, 1, 4, 1, 9, 4, 36, 36, 676]
    assert [r[2] for r in rows] == [0, 2, 3, 4, 4, 5, 6, 6, 7, 8]


def test_table_max_two(capsys):
    assert _parse_table(run(capsys, "table", "--max", "2")[1]) == [
        (1, 1, 0),
        (2, 1, 2),
    ]


def test_table_bfile(capsys):
    code, out, _ = run(capsys, "table", "--max", "10", "--format", "bfile")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "1 1"
    assert lines[-1] == "10 676"
    assert len(lines) == 10
    for idx, line in enumerate(lines, start=1):
        n_str, value = line.split(" ")
        assert int(n_str) == idx and value.isdigit()


def test_table_json_lines(capsys):
    code, out, _ = run(capsys, "table", "--max", "3", "--format", "json")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[2] == {"n": 3, "count": "1", "primes_below_2n": 3}


def test_table_cap(capsys):
    code, _, _ = run(capsys, "table", "--max", "30")
    assert code == EXIT_CAP


def test_table_requires_positive_max(capsys):
    assert run(capsys, "table", "--max", "0")[0] == EXIT_USAGE


# --- shared behaviour -------------------------------------------------------------


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def test_no_command(capsys):
    assert run(capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "8"),
        ("verify", "--perm", "2,1"),
        ("count", "--n", "8"),
        ("enumerate", "--n", "6"),
        ("table", "--max", "8"),
    ],
)
def test_success_is_silent_on_stderr(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""
