"""The zero pair (0, 0): one certificate on every ring, and the documents of
the requests that meet it.

``Ring.bezout_raw`` answers (0, 0) with (d, x, y, a0, b0) = (0, 1, 0, 1, 0),
whose column transform [[x, -b0], [y, a0]] is the identity, so ``gcd``,
``canonical_associate`` and the callers in matrices and completion need no
guard of their own.  ``data/zero_pair.json`` pins, in json and pretty output,
requests that meet the pair: ``reduce2x2`` of [[1, 0], [0, 0]] (step (i)
certifies b = c = 0) and ``complete`` of (0, 0, 1) (the row fold starts with
0 and 0) over six rings, and over Z the row (0, 0, 0, 4) with d = 4 and the
zero row (0, 0) with d = 0.  They were recorded while each ring still routed
the pair around ``bezout_raw``.
"""

import json
from pathlib import Path

import pytest

from edrkit import bezout, element, make_ring, ring_catalog
from edrkit.cli import CommandRequest, dispatch

GOLDEN = json.loads((Path(__file__).parent / "data" / "zero_pair.json").read_text())

RINGS = [e["expression"] for e in ring_catalog()] + ["product:series:4,z"]


@pytest.mark.parametrize("expr", RINGS)
def test_zero_pair_has_the_identity_certificate(expr):
    ring = make_ring(expr)
    zero, one, add, mul = ring.zero, ring.one, ring.add, ring.mul
    cert = ring.bezout_raw(zero, zero)
    assert cert == (zero, one, zero, one, zero)
    d, x, y, a0, b0 = cert
    assert add(mul(zero, x), mul(zero, y)) == d
    assert mul(d, a0) == zero and mul(d, b0) == zero
    assert add(mul(a0, x), mul(b0, y)) == one
    assert ring.gcd(zero, zero) == zero
    assert ring.canonical_associate(zero) == zero
    z = element(ring, zero)
    certificate = bezout(z, z)
    assert certificate.degenerate and certificate.verify()


def test_golden_set_covers_the_rings_and_commands():
    assert {(case["command"], case["output"]) for case in GOLDEN} == {
        (c, o) for c in ("reduce2x2", "complete") for o in ("json", "pretty")}
    for command in ("reduce2x2", "complete"):
        assert {case["ring"] for case in GOLDEN if case["command"] == command} == {
            "z", "zmod:6", "gfpoly:5", "text:z,q", "product:zmod:4,z", "series:4"}
    assert {case["exit"] for case in GOLDEN} == {0}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['command']}-{c['ring']}-{c['output']}")
def test_zero_pair_documents_are_unchanged(case):
    req = CommandRequest(case["command"], ring=case["ring"], payload=case["payload"],
                         output=case["output"])
    assert dispatch(req) == (case["exit"], case["text"])
