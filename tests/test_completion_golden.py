"""Row completion output pinned byte for byte, and its single row fold.

``data/complete_golden.json`` holds fixed ``complete`` requests over Z,
Z/360 and GF(5)[x] (d = 1 and d != 1, rows of length 2, 3, 5, 8 and 14,
rows with leading zeros, and two rejected rows), each in json and pretty
output, with the exit code and the exact document text.  They were recorded
before row completion moved to raw values, so any change in a matrix, a
trace witness or an error message shows up here.
"""

import json
from pathlib import Path

import pytest

from edrkit import completion, complete_unimodular, element, make_ring
from edrkit.cli import CommandRequest, dispatch

GOLDEN = json.loads((Path(__file__).parent / "data" / "complete_golden.json").read_text())


def test_golden_set_covers_the_rings_lengths_and_targets():
    rings = {case["ring"] for case in GOLDEN}
    assert rings == {"z", "zmod:360", "gfpoly:5"}
    payloads = [json.loads(case["payload"]) for case in GOLDEN]
    assert {len(p["row"]) for p in payloads} >= {2, 3, 8, 14}
    assert any("d" not in p for p in payloads) and any("d" in p for p in payloads)
    assert any(p["row"][0] in (0, []) for p in payloads)
    assert {case["exit"] for case in GOLDEN} == {0, 1}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['ring']}-{c['output']}")
def test_complete_documents_are_unchanged(case):
    req = CommandRequest("complete", ring=case["ring"], payload=case["payload"],
                         output=case["output"])
    assert dispatch(req) == (case["exit"], case["text"])


@pytest.mark.parametrize("spec, row", [("z", [6, 10, 15]),
                                       ("zmod:360", [4, 90, 15, 100, 0, 8, 27, 200]),
                                       ("gfpoly:5", [(1, 1), (2, 0, 1)])])
def test_complete_unimodular_folds_the_row_once(monkeypatch, spec, row):
    calls = []
    ring = make_ring(spec)
    fold = type(ring).row_egcd

    def counted(self, values):
        calls.append(values)
        return fold(self, values)

    monkeypatch.setattr(type(ring), "row_egcd", counted)
    els = [element(ring, v) for v in row]
    res = complete_unimodular(els)
    assert calls == [[e.value for e in els]]
    assert res.d.is_one()
    # complete_row alone folds the row itself, once
    calls.clear()
    completion.complete_row(els, res.d)
    assert len(calls) == 1
