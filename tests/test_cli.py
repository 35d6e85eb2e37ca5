"""CLI conformance: dispatch, matrix reading, rendering, exit codes."""

import json
import math
import sys

import pytest

from edrkit.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    CLIParseError,
    CommandRequest,
    dispatch,
    main,
    read_matrix,
)


def test_snf_dispatch_example():
    req = CommandRequest(command="snf", ring="z", payload='{"rows":[[2,4],[6,8]]}')
    code, out = dispatch(req)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["D"] == [[2, 0], [0, 4]]
    assert doc["verified"] is True


MERSENNE = 2305843009213693951  # 2**61 - 1


@pytest.mark.parametrize("rows, diagonal", [
    ([[2**60 + 3, 5, 7], [11, 2**59 + 13, 17], [19, 23, 2**58 + 29]], [1, 1, 1]),
    ([[2**60 + 3, 5, 7], [2**61 + 6, 10, 14], [19, 23, 2**58 + 29]], [1, 1, 0]),
])
def test_snf_over_a_mersenne_prime_modulus(rows, diagonal):
    req = CommandRequest(command="snf", ring=f"zmod:{MERSENNE}",
                         payload=json.dumps({"rows": rows}))
    code, out = dispatch(req)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verified"] is True
    assert [doc["D"][i][i] for i in range(3)] == diagonal


def test_check_dispatch_example():
    req = CommandRequest(command="check", ring="zmod:30", property="stable-range-1")
    code, out = dispatch(req)
    assert code == EXIT_OK
    assert json.loads(out) == {"holds": True, "property": "stable-range-1"}


def test_complete_dispatch_example():
    req = CommandRequest(command="complete", ring="z", row="4,6", d="2")
    code, out = dispatch(req)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["matrix"] == [[4, 6], [-1, -1]]
    assert doc["d"] == 2
    assert "trace" in doc


def test_complete_json_payload():
    req = CommandRequest(command="complete", ring="z",
                         payload='{"row": [4, 6], "d": 2}')
    code, out = dispatch(req)
    assert code == EXIT_OK
    assert json.loads(out)["matrix"] == [[4, 6], [-1, -1]]
    req = CommandRequest(command="complete", ring="z",
                         payload='{"ring": "zmod:6", "row": [1], "d": 1}')
    code, _ = dispatch(req)
    assert code == EXIT_PARSE
    # composite element encodings go through the JSON payload
    req = CommandRequest(command="complete", ring="gfpoly:5",
                         payload='{"row": [[0,1],[1,1]], "d": [1]}')
    code, out = dispatch(req)
    assert code == EXIT_OK
    assert json.loads(out)["verified"] is True


def test_byte_identical_output_across_runs():
    requests = [
        CommandRequest(command="snf", ring="z", payload='{"rows":[[2,4],[6,8]]}'),
        CommandRequest(command="check", ring="zmod:30", property="stable-range-1"),
        CommandRequest(command="complete", ring="z", row="4,6", d="2"),
    ]
    for req in requests:
        first = dispatch(req)
        second = dispatch(req)
        assert first == second


def test_exit_code_1_on_precondition():
    req = CommandRequest(command="reduce2x2", ring="z", payload='{"rows":[[2,0],[2,2]]}')
    code, out = dispatch(req)
    assert code == EXIT_PRECONDITION
    assert "error" in out


def test_exit_code_2_on_parse_errors():
    for req in [
        CommandRequest(command="snf", ring="z", payload='{"rows":[[2,4],[6'),
        CommandRequest(command="snf", ring="zzz", payload='{"rows":[[1]]}'),
        CommandRequest(command="snf", ring="z", payload="1 2\n3"),
        CommandRequest(command="check", ring="zmod:6", property="sparkly"),
    ]:
        code, _ = dispatch(req)
        assert code == EXIT_PARSE, req


def test_no_verify_skips_the_determinant(monkeypatch):
    req = CommandRequest(command="complete", ring="z", row="6,10,15,7", verify=False)
    expected = dispatch(req)
    assert expected[0] == EXIT_OK

    def forbidden(_m):
        raise AssertionError("determinant computed without --verify")

    monkeypatch.setattr("edrkit.cli.determinant", forbidden)
    assert dispatch(req) == expected
    for mode in ("json", "pretty"):
        req = CommandRequest(command="complete", ring="z", row="4,6", d="2",
                             verify=False, output=mode)
        assert dispatch(req)[0] == EXIT_OK


def test_complete_verify_long_integer_row(rng):
    row = [rng.randint(-50, 50) for _ in range(20)]
    d = 0
    for v in row:
        d = math.gcd(d, v)
    req = CommandRequest(command="complete", ring="z", row=",".join(map(str, row)), d=str(d))
    code, out = dispatch(req)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["matrix"][0] == row


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int/str digit limit")
    return limit


def test_result_past_digit_limit_exits_1():
    # the entries parse, but D holds their product: past the digit limit
    big = 10 ** (_digit_limit() // 2 + 100)
    payload = json.dumps({"rows": [[str(big + 1), "0"], ["0", str(big + 3)]]})
    for mode in ("json", "pretty"):
        code, out = dispatch(CommandRequest(command="snf", ring="z", payload=payload,
                                            output=mode))
        assert code == EXIT_PRECONDITION
        assert out.startswith("error: ")


def test_input_literal_past_digit_limit_exits_2():
    huge = "9" * (_digit_limit() + 1)
    for req in [
        CommandRequest(command="snf", ring="z", payload='{"rows": [[%s, 1]]}' % huge),
        CommandRequest(command="snf", ring="z", payload=f"{huge} 1"),
        CommandRequest(command="snf", ring="gfpoly:5", payload=f"[{huge}] [1]"),
        CommandRequest(command="complete", ring="z", payload='{"row": [%s, 1]}' % huge),
        CommandRequest(command="complete", ring="z", row=f"{huge},1"),
        CommandRequest(command="snf", ring=f"zmod:{huge}", payload="1"),
    ]:
        code, out = dispatch(req)
        assert code == EXIT_PARSE, req.payload
        assert out.startswith("error: ")


def test_read_matrix_inline_grid():
    m = read_matrix("2 4\n6 8", "z")
    assert m.data == ((2, 4), (6, 8))
    m = read_matrix("-1 2", "z")
    assert m.data == ((-1, 2),)


def test_read_matrix_ragged_rejected():
    with pytest.raises(CLIParseError):
        read_matrix("1 2\n3", "z")


def test_read_matrix_ring_mismatch_names_both():
    with pytest.raises(CLIParseError) as err:
        read_matrix('{"ring":"zmod:6","rows":[[1]]}', "z")
    msg = str(err.value)
    assert "zmod:6" in msg and "'z'" in msg


def test_read_matrix_from_file(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text('{"rows":[[2,4],[6,8]]}')
    m = read_matrix(str(path), "z")
    assert m.data == ((2, 4), (6, 8))


def test_render_pretty_grid():
    req = CommandRequest(command="snf", ring="z", payload='{"rows":[[2,4],[6,8]]}',
                         output="pretty")
    code, out = dispatch(req)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "D:"
    assert lines[1] == "2 0"
    assert lines[2] == "0 4"


def test_verdict_json_roundtrips():
    req = CommandRequest(command="check", ring="z", property="stable-range-1",
                         bound=100)
    code, out = dispatch(req)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["witness"] == [3, 5] and doc["searchBound"] == 100
    assert json.loads(json.dumps(doc)) == doc


def test_trace_only_in_json_output():
    req = CommandRequest(command="complete", ring="z", row="6,10,15", d="1",
                         output="pretty")
    code, out = dispatch(req)
    assert code == EXIT_OK
    assert "trace" not in out
    req_json = CommandRequest(command="complete", ring="z", row="6,10,15", d="1")
    _, out_json = dispatch(req_json)
    assert "trace" in json.loads(out_json)


def test_main_entry_point(capsys):
    code = main(["snf", "--ring", "z", "--input", '{"rows":[[4,6]]}'])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["D"] == [[2, 0]]

    code = main(["complete", "--ring", "z", "--row", "3,5"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [[3, 5], [1, 2]]


def test_env_search_window(monkeypatch, capsys):
    monkeypatch.setenv("EDR_MAX_SEARCH", "77")
    code = main(["check", "--ring", "z", "--property", "stable-range-1"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["searchBound"] == 77


def test_rings_listing():
    code, out = dispatch(CommandRequest(command="rings"))
    assert code == EXIT_OK
    entries = json.loads(out)
    assert any(e["expression"] == "z" for e in entries)
    code, out = dispatch(CommandRequest(command="rings", output="pretty"))
    assert code == EXIT_OK and "z:" in out
