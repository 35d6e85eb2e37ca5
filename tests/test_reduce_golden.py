"""2x2 reduction and diagonal reduction output pinned byte for byte.

``data/reduce_golden.json`` holds fixed ``reduce2x2`` and ``snf`` requests
over Z, Z/360, GF(5)[x], Z/4 x Z, the trivial extension of Z by Q and the
truncated series ring Q[[x]]/(x^4), each in json and pretty output, with
the exit code and the exact document text.  The inputs include the
identity, a delta that needs the normalizing unit ([[2,0],[3,-5]] over Z),
b = c = 0, a = 0, non-unit diagonals whose ``snf`` takes chain repairs
(diag(2, 3) over Z and its analogues), and rejected inputs: not comaximal,
not lower triangular, not 2x2.  They were recorded before ``reduce_2x2``
moved to raw values, so any change in a factor, a transform or an error
message shows up here; the ``snf`` documents over the series ring were
recorded when its Bezout certificates became total, before which every
one was refused.
"""

import json
from pathlib import Path

import pytest

from edrkit.cli import CommandRequest, dispatch

GOLDEN = json.loads((Path(__file__).parent / "data" / "reduce_golden.json").read_text())


def test_golden_set_covers_the_rings_commands_and_edges():
    assert {case["ring"] for case in GOLDEN} == {
        "z", "zmod:360", "gfpoly:5", "product:zmod:4,z", "text:z,q", "series:4"}
    assert {(case["command"], case["output"]) for case in GOLDEN} == {
        (c, o) for c in ("reduce2x2", "snf") for o in ("json", "pretty")}
    payloads = {(case["ring"], case["payload"]) for case in GOLDEN}
    for ring, rows in [("z", [[1, 0], [0, 1]]), ("z", [[2, 0], [3, -5]]),
                       ("z", [[1, 0], [0, 0]]), ("z", [[2, 0], [0, 3]])]:
        assert (ring, json.dumps({"rows": rows}, separators=(",", ":"))) in payloads
    for ring in {case["ring"] for case in GOLDEN}:
        exits = {case["exit"] for case in GOLDEN
                 if case["ring"] == ring and case["command"] == "reduce2x2"}
        assert exits == {0, 1}


@pytest.mark.parametrize("case", GOLDEN,
                         ids=lambda c: f"{c['command']}-{c['ring']}-{c['output']}")
def test_reduction_documents_are_unchanged(case):
    req = CommandRequest(case["command"], ring=case["ring"], payload=case["payload"],
                         output=case["output"])
    assert dispatch(req) == (case["exit"], case["text"])
