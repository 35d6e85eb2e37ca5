"""CLI conformance: dispatch, matrix reading, rendering, exit codes."""

import json
import math
import random
import sys
import time

import pytest

from edrkit import element, exhaustive, is_coprime, make_ring
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
from conftest import random_value


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


# Documents as the CLI printed them before pretty grids were built only for
# pretty output, pinned whole.  The zmod:360 document was re-recorded when
# the remainder sweep replaced Bezout pivoting there: its P and Q changed,
# its D did not.  For snf over Z only D and the document shape are pinned.
_PINNED = [
    (dict(command="snf", ring="zmod:360", payload='{"rows":[[12,30,7],[45,100,8],[0,6,90]]}'),
     '{"D":[[1,0,0],[0,1,0],[0,0,18]],"P":[[103,0,0],[208,223,0],[354,354,277]],'
     '"Pinv":[[7,0,0],[8,247,0],[90,186,13]],"Q":[[0,351,100],[0,1,69],[1,114,150]],'
     '"Qinv":[[156,210,1],[291,100,0],[1,9,0]],"ring":"zmod:360","verified":true}',
     'D:\n1 0  0\n0 1  0\n0 0 18\nP:\n103   0   0\n208 223   0\n354 354 277\n'
     'Q:\n0 351 100\n0   1  69\n1 114 150\nverified: true'),
    (dict(command="snf", ring="text:z,q",
          payload='{"rows":[[[2,"1/2"],[4,0]],[[6,1],[8,"3/4"]]]}'),
     '{"D":[[[2,0],[0,0]],[[0,0],[4,0]]],"P":[[[1,"-1/4"],[0,0]],[[3,"17/16"],[-1,"-7/16"]]],'
     '"Pinv":[[[1,"1/4"],[0,0]],[[3,"1/2"],[-1,"7/16"]]],"Q":[[[1,0],[-2,"1/2"]],[[0,0],[1,0]]],'
     '"Qinv":[[[1,0],[2,"-1/2"]],[[0,0],[1,0]]],"ring":"text:z,q","verified":true}',
     'D:\n[2, 0] [0, 0]\n[0, 0] [4, 0]\nP:\n [1, "-1/4"]        [0, 0]\n'
     '[3, "17/16"] [-1, "-7/16"]\nQ:\n[1, 0] [-2, "1/2"]\n[0, 0]      [1, 0]\nverified: true'),
    (dict(command="reduce2x2", ring="z", payload='{"rows":[[2,0],[3,5]]}'),
     '{"D":[[1,0],[0,10]],"P":[[0,1],[-1,4]],"Pinv":[[4,-1],[1,0]],"Q":[[2,-5],[-1,3]],'
     '"Qinv":[[3,5],[1,2]],"ring":"z","verified":true}',
     'D:\n1  0\n0 10\nP:\n 0 1\n-1 4\nQ:\n 2 -5\n-1  3\nverified: true'),
    (dict(command="complete", ring="z", row="4,6,9", d="1"),
     '{"d":1,"matrix":[[4,6,9],[1,4,0],[0,-1,1]],"ring":"z","trace":{"alpha":4,"beta":15,'
     '"c":0,"q":[4,6,9],"s":[0],"sv":4,"t":0,"tv":-1,"u":1,"w":4,"x":[4,-4,1],"y":[1]},'
     '"verified":true}',
     'matrix:\n4  6 9\n1  4 0\n0 -1 1\ndet: 1'),
    (dict(command="complete", ring="z", row="4,6", d="2"),
     '{"d":2,"matrix":[[4,6],[-1,-1]],"ring":"z","trace":{"q":[2,3],"x":[-1,1]},'
     '"verified":true}',
     'matrix:\n 4  6\n-1 -1\ndet: 2'),
    (dict(command="check", ring="z", property="stable-range-1"),
     '{"holds":false,"property":"stable-range-1","searchBound":1000,"witness":[3,5]}',
     'stable-range-1: fails\nwitness: [3,5]\nsearch bound: 1000'),
    (dict(command="check", ring="zmod:30", property="clean"),
     '{"holds":true,"property":"clean"}',
     'clean: holds'),
]


def test_documents_pinned_and_pretty_grids_only_for_pretty_output(monkeypatch):
    import edrkit.cli as cli
    pretty_matrix = cli._pretty_matrix
    for kwargs, json_doc, pretty_doc in _PINNED:
        def forbidden(*_args):
            raise AssertionError("pretty grid built for JSON output")
        monkeypatch.setattr(cli, "_pretty_matrix", forbidden)
        assert dispatch(CommandRequest(**kwargs)) == (EXIT_OK, json_doc)
        monkeypatch.setattr(cli, "_pretty_matrix", pretty_matrix)
        assert dispatch(CommandRequest(output="pretty", **kwargs)) == (EXIT_OK, pretty_doc)


def test_integer_snf_document_shape_and_diagonal():
    kwargs = dict(command="snf", ring="z", payload='{"rows":[[2,4,4],[-6,6,12],[10,-4,-16]]}')
    code, out = dispatch(CommandRequest(**kwargs))
    assert code == EXIT_OK
    assert out.startswith('{"D":[[2,0,0],[0,6,0],[0,0,12]],"P":[[')
    assert list(json.loads(out)) == ["D", "P", "Pinv", "Q", "Qinv", "ring", "verified"]
    assert out.endswith('"ring":"z","verified":true}')
    code, out = dispatch(CommandRequest(output="pretty", **kwargs))
    assert code == EXIT_OK
    lines = out.split("\n")
    assert lines[:4] == ["D:", "2 0  0", "0 6  0", "0 0 12"]
    assert [lines[4], lines[8], lines[12:]] == ["P:", "Q:", ["verified: true"]]


@pytest.mark.parametrize("spec", ["series:1", "series:4", "series:8", "product:series:4,z"])
def test_snf_over_series_rings_verifies(spec):
    """Truncated series are Bezout rings, so snf answers over them; every
    other matrix has the constant terms of its series entries cleared."""
    ring = make_ring(spec)
    rng = random.Random(spec)

    def entry(clear):
        v = ring.normalize(random_value(ring, rng, 6))
        if clear:  # the series component's constant term, alone or in a product
            v = ((0, *v[0][1:]), *v[1:]) if spec.startswith("product") else (0, *v[1:])
        return ring.value_to_json(v)

    for n in range(20):
        rows = [[entry(n % 2) for _ in range(1 + n % 3)] for _ in range(1 + n // 7)]
        code, out = dispatch(CommandRequest("snf", ring=spec, payload=json.dumps({"rows": rows})))
        assert code == EXIT_OK and json.loads(out)["verified"] is True, (rows, out)


def test_reduce2x2_over_a_product_with_a_series_factor():
    # delta = x in the series factor has zero constant term, so the product's
    # canonical associate has to go factor by factor
    series = [[{"constant": 1}, {"constant": 0}],
              [{"constant": 1}, {"constant": 0, "coeffs": [1]}]]
    code, out = dispatch(CommandRequest("reduce2x2", ring="series:4",
                                        payload=json.dumps({"rows": series})))
    assert code == EXIT_OK
    alone = json.loads(out)
    integer = [[1, 0], [0, 1]]
    for ring, k in (("product:series:4,z", 0), ("product:z,series:4", 1)):
        rows = [[[s, i] if k == 0 else [i, s] for s, i in zip(srow, irow)]
                for srow, irow in zip(series, integer)]
        code, out = dispatch(CommandRequest("reduce2x2", ring=ring,
                                            payload=json.dumps({"rows": rows})))
        assert code == EXIT_OK, out
        doc = json.loads(out)
        assert doc["verified"] is True
        for key in ("D", "P", "Q", "Pinv", "Qinv"):
            assert [[v[k] for v in row] for row in doc[key]] == alone[key], (ring, key)


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
        CommandRequest(command="snf", ring="zmod:1", payload='{"rows":[[1]]}'),
        CommandRequest(command="snf", ring="gfpoly:4", payload='{"rows":[[[1]]]}'),
    ]:
        code, _ = dispatch(req)
        assert code == EXIT_PARSE, req


# each refusal that no other test reaches, by its exit-2 message
_REFUSALS = {
    "empty-input": (dict(command="snf", ring="z", payload="  \n "), "empty matrix input"),
    "complete-without-row": (dict(command="complete", ring="z"),
                             "complete needs --row or a JSON --input payload"),
    "complete-bad-json": (dict(command="complete", ring="z", payload='{"row": [1, 2'),
                          "bad completion JSON: Expecting ',' delimiter"),
    "complete-json-without-row": (dict(command="complete", ring="z", payload='{"d": 1}'),
                                  'completion JSON needs {"row": [...], "d": ...}'),
    "snf-without-input": (dict(command="snf", ring="z"), "snf needs --input"),
    "reduce2x2-without-input": (dict(command="reduce2x2", ring="z"), "reduce2x2 needs --input"),
    "check-without-property": (dict(command="check", ring="zmod:6"), "check needs --property"),
    "unknown-command": (dict(command="frobnicate", ring="z"), "unknown command 'frobnicate'"),
    "bad-token": (dict(command="snf", ring="zmod:!3", payload="1"),
                  "bad descriptor expression 'zmod:!3' near index 5"),
    "trailing-character": (dict(command="snf", ring="zmod:3!", payload="1"),
                           "bad descriptor expression 'zmod:3!' near index 6"),
    "expected-colon": (dict(command="snf", ring="zmod,3", payload="1"), "expected ':', got ','"),
    "non-integer-argument": (dict(command="snf", ring="zmod:x", payload="1"),
                             "expected a modulus, got 'x'"),
    "empty-element": (dict(command="complete", ring="z", row="1,2", d=" "),
                      "empty element text (at position 0)"),
    "malformed-element": (dict(command="snf", ring="text:z,q", payload="[1] [1,0]"),
                          "two-element array expected, got [1] (at position 0)"),
}


@pytest.mark.parametrize("fields, message", _REFUSALS.values(), ids=_REFUSALS)
def test_refusals_exit_2_with_their_message(fields, message):
    code, out = dispatch(CommandRequest(**fields))
    assert code == EXIT_PARSE
    assert out.startswith(f"error: {message}")


def test_bare_series_is_order_8():
    req = CommandRequest(command="complete", ring="series",
                         payload='{"row": [{"constant": 1}, {"constant": 0}]}')
    code, out = dispatch(req)
    assert code == EXIT_OK and json.loads(out)["ring"] == "series:8"


def test_series_row_with_huge_constant_terms_streams_its_residues():
    # the unit lift scans residues modulo a constant of 10^9; a list of them
    # would take about 100 GB, the stream stops at its first hit
    n = 10 ** 9
    row = [{"constant": n}, {"constant": n + 1}, {"constant": n}]
    t0 = time.perf_counter()
    code, out = dispatch(CommandRequest(command="complete", ring="series:4",
                                        payload=json.dumps({"row": row})))
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK and json.loads(out)["verified"] is True


def test_decoded_inputs_keep_their_shape_and_entry_checks():
    # matrices and rows decoded once by value_from_json, without a second
    # normalization, still refuse bad shapes and bad entries with exit 2
    for req in [
        CommandRequest(command="snf", ring="z", payload='{"rows":[[1,2],[3]]}'),
        CommandRequest(command="snf", ring="z", payload='{"rows":[[1],[]]}'),
        CommandRequest(command="snf", ring="z", payload='{"rows":[[],[1]]}'),
        CommandRequest(command="snf", ring="z", payload='{"rows":[[]]}'),
        CommandRequest(command="snf", ring="z", payload='{"rows":[]}'),
        CommandRequest(command="snf", ring="z", payload='{"rows":[[1, true]]}'),
        CommandRequest(command="snf", ring="gfpoly:5", payload='{"rows":[[[1, "x"]]]}'),
        CommandRequest(command="reduce2x2", ring="zmod:6", payload='{"rows":[[1, 2.5]]}'),
        CommandRequest(command="complete", ring="z", payload='{"row": [1, "x"]}'),
        CommandRequest(command="complete", ring="gfpoly:5", payload='{"row": [[1], 2]}'),
        CommandRequest(command="complete", ring="z", payload='{"row": [4, 6], "d": [2]}'),
        CommandRequest(command="complete", ring="series:4", payload='{"row": [{"x": 1}]}'),
    ]:
        code, out = dispatch(req)
        assert code == EXIT_PARSE, req.payload
        assert out.startswith("error: ")
    # out-of-range encodings are read in normal form
    code, out = dispatch(CommandRequest(command="snf", ring="zmod:6", verify=True,
                                        payload='{"rows":[[-1, 8],["13", 0]]}'))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["D"] == [[1, 0], [0, 2]] and doc["verified"] is True
    code, out = dispatch(CommandRequest(command="complete", ring="gfpoly:5",
                                        payload='{"row": [[6, 0, 0], [0, 5, 1]]}'))
    assert code == EXIT_OK
    assert json.loads(out)["matrix"][0] == [[1], [0, 0, 1]]


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
    req = CommandRequest(command="check", ring="z", property="stable-range-1")
    code, out = dispatch(req)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["witness"] == [3, 5] and doc["searchBound"] == 1000
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


def test_rings_listing():
    code, out = dispatch(CommandRequest(command="rings"))
    assert code == EXIT_OK
    entries = json.loads(out)
    assert any(e["expression"] == "z" for e in entries)
    code, out = dispatch(CommandRequest(command="rings", output="pretty"))
    assert code == EXIT_OK and "z:" in out


class _TableReached(Exception):
    """A tabulated structure passed the size check (the build itself is skipped)."""


@pytest.fixture
def built(monkeypatch):
    """The sizes of every exhaustive structure constructed, by class name;
    tables are stopped before their n x n build."""
    sizes = {"ModStructure": [], "ProductStructure": [], "TableStructure": []}

    def record(cls, size_of):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            sizes[cls.__name__].append(size_of(*args))
            if cls is exhaustive.TableStructure:
                raise _TableReached
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    record(exhaustive.ModStructure, lambda m, ring=None: m)
    record(exhaustive.ProductStructure,
           lambda factors, ring=None: math.prod(f.size for f in factors))
    record(exhaustive.TableStructure, lambda elements, *rest: len(list(elements)))
    return sizes


def _check(ring, prop="stable-range-1"):
    return dispatch(CommandRequest(command="check", ring=ring, property=prop))


@pytest.mark.parametrize("ring, built_class, cap", [
    ("zmod:10000", "ModStructure", "MAX_QUOTIENT_SIZE"),
    ("product:zmod:1000,zmod:1000", "ProductStructure", "MAX_PRODUCT_SIZE"),
])
def test_check_at_the_size_limit_runs(built, ring, built_class, cap):
    """check answers from the theorem and builds nothing; the exhaustive
    structure at the cap is still built, and its search agrees."""
    code, out = _check(ring)
    assert code == EXIT_OK and json.loads(out)["holds"] is True
    assert built == {"ModStructure": [], "ProductStructure": [], "TableStructure": []}
    s = exhaustive.structure_for(make_ring(ring))
    assert max(built[built_class]) == getattr(exhaustive, cap)
    assert max(built["ModStructure"]) <= exhaustive.MAX_QUOTIENT_SIZE
    assert exhaustive.stable_range_1(s) == (True, None)


def test_check_at_the_table_limit_reaches_the_table(built):
    """Comaximality on trivial extensions reads the base parts: past the
    table cap (1,024 elements) it answers and no table is built."""
    for spec, p in (("text:zmod:33,self", 3), ("text:zmod:65,self", 5)):  # 1,089 and 4,225
        ring = make_ring(spec)
        assert is_coprime(element(ring, (3, 0)), element(ring, (2, 0)))
        assert not is_coprime(element(ring, (p, 1)), element(ring, (2 * p, 0)))
        code, out = dispatch(CommandRequest(command="reduce2x2", ring=spec,
                                            payload='{"rows":[[[1,0],[0,0]],[[0,0],[1,0]]]}'))
        assert code == EXIT_OK and json.loads(out)["verified"] is True
    assert built == {"ModStructure": [], "ProductStructure": [], "TableStructure": []}


@pytest.mark.parametrize("spec", ["text:zmod:33,self", "text:z,self",
                                  f"text:zmod:{MERSENNE},self"])
def test_reduce2x2_identity_over_self_extensions_reads_the_base(spec):
    t0 = time.perf_counter()
    code, out = dispatch(CommandRequest(command="reduce2x2", ring=spec,
                                        payload='{"rows":[[[1,0],[0,0]],[[0,0],[1,0]]]}'))
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK and json.loads(out)["verified"] is True


@pytest.mark.parametrize("ring", [
    "zmod:10001",                    # one past MAX_QUOTIENT_SIZE
    "product:zmod:101,zmod:9901",    # 1,000,001: one past MAX_PRODUCT_SIZE
    "product:zmod:2,zmod:10001",     # a factor past its own cap
    "text:zmod:33,self",             # 1,089: the first past MAX_TABLE_SIZE
    "text:zmod:64,self",             # 4,096
    "text:zmod:65,self",             # 4,225 > MAX_TABLE_SIZE
    "product:zmod:2,text:zmod:65,self",
])
def test_oversized_check_exits_1_before_building(built, ring):
    """Past every exhaustive cap, check still answers from the theorem, with
    exit 0, and builds nothing."""
    code, out = _check(ring)
    assert code == EXIT_OK
    assert json.loads(out) == {"property": "stable-range-1", "holds": True}
    assert built == {"ModStructure": [], "ProductStructure": [], "TableStructure": []}


@pytest.mark.parametrize("req, text", [
    (CommandRequest("complete", ring="z", row="2,4"),
     "error: the row is not unimodular: it generates 2R"),
    (CommandRequest("complete", ring="gfpoly:5", payload='{"row": [[0, 1], [0, 0, 1]], "d": [1]}'),
     "error: the row generates [0, 1]R, which differs from [1]R"),
    (CommandRequest("reduce2x2", ring="z", payload="2 0\n4 6"),
     "error: reduce_2x2 requires aR + bR + cR = R, got 2, 4, 6"),
    (CommandRequest("reduce2x2", ring="product:zmod:4,z",
                    payload='{"rows": [[[2, 1], [0, 0]], [[2, 0], [0, 0]]]}'),
     "error: reduce_2x2 requires aR + bR + cR = R, got [2, 1], [2, 0], [0, 0]"),
])
def test_refusals_name_elements_as_the_cli_writes_them(req, text):
    assert dispatch(req) == (1, text)
