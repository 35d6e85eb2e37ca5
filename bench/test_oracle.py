"""The oracles accept real edrkit output and reject each kind of corruption.

Run from the root of a checkout:  python3 -m pytest bench
"""

import copy
import json

import pytest

import arith
import oracle
import run
from workloads import WORKLOADS, Request

cli = run.import_cli()

SNF_CASES = [
    ("z", [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
    ("zmod:360", [[12, 30, 7], [0, 90, 45], [8, 8, 300]]),
    ("zmod:1000003", [[5, 7], [11, 13]]),
    ("gfpoly:5", [[[1, 1], [2]], [[0, 3], [4, 0, 1]]]),
    ("product:zmod:4,z", [[[2, 6], [1, 4]], [[3, -2], [0, 10]]]),
    ("text:z,q", [[[2, "1/3"], [4, 0]], [[6, "-1/2"], [3, 5]]]),
]


def _run(req: Request) -> dict:
    code, text = cli.dispatch(cli.CommandRequest(command=req.command, ring=req.ring,
                                                 payload=req.payload, property=req.property))
    assert code == 0, text
    return json.loads(text)


def _snf(ring, rows, command="snf"):
    return Request(command, ring, json.dumps({"rows": rows}))


def _bump(ring_spec, value):
    """A different element: the first integer inside the encoding, plus one."""
    if isinstance(value, list):
        if not value:
            return [1]
        return [_bump(ring_spec, value[0])] + value[1:]
    if isinstance(value, str):  # a rational "p/q"
        num, _, den = value.partition("/")
        return f"{int(num) + int(den or 1)}/{den or 1}"
    if ring_spec.startswith("zmod:"):
        return (value + 1) % int(ring_spec.split(":")[1])
    if ring_spec.startswith("product:zmod:"):
        return (value + 1) % int(ring_spec.split(":")[2].split(",")[0])
    return value + 1


@pytest.mark.parametrize("ring,rows", SNF_CASES)
def test_snf_output_passes(ring, rows):
    req = _snf(ring, rows)
    assert oracle.check(req, _run(req)) is None


@pytest.mark.parametrize("key", ["D", "P"])
@pytest.mark.parametrize("ring,rows", SNF_CASES)
def test_snf_corrupt_entry_is_rejected(ring, rows, key):
    req = _snf(ring, rows)
    doc = _run(req)
    bad = copy.deepcopy(doc)
    bad[key][0][0] = _bump(ring, bad[key][0][0])
    assert oracle.check(req, bad) is not None


def test_snf_conditions_beyond_the_certificate():
    # each document is a valid certificate P*A*Q = D with P = Q = I
    eye = [[1, 0], [0, 1]]
    for rows, why in (([[2, 0], [0, 3]], "divide"), ([[-2, 0], [0, 4]], "canonical"),
                      ([[0, 0], [0, 5]], "zero")):
        doc = {"ring": "z", "P": eye, "Pinv": eye, "Q": eye, "Qinv": eye, "D": rows}
        assert why in oracle.check(_snf("z", rows), doc)


def test_reduce_2x2_corruptions_are_rejected():
    req = _snf("z", [[4, 0], [3, 5]], command="reduce2x2")
    doc = _run(req)
    assert oracle.check(req, doc) is None
    assert doc["D"] == [[1, 0], [0, 20]]
    for key in ("D", "P", "Qinv"):
        bad = copy.deepcopy(doc)
        bad[key][1][1] += 1
        assert oracle.check(req, bad) is not None


@pytest.mark.parametrize("ring,row,d", [
    ("z", [4, 6], 2),
    ("z", [3, 5, 7, 11], None),
    ("zmod:360", [12, 18, 30], 6),
    ("gfpoly:5", [[1, 1], [0, 1], [2]], None),
])
def test_completion_corruptions_are_rejected(ring, row, d):
    payload = {"row": row} if d is None else {"row": row, "d": d}
    req = Request("complete", ring, json.dumps(payload))
    doc = _run(req)
    assert oracle.check(req, doc) is None
    first = copy.deepcopy(doc)
    first["matrix"][0][0] = _bump(ring, first["matrix"][0][0])
    assert "first row" in oracle.check(req, first)
    # scaling the second row by a non-unit changes the determinant in every ring here
    scaled = copy.deepcopy(doc)
    two = {"gfpoly:5": [0, 1]}.get(ring, 2)
    r = arith.ring_from_spec(ring)
    scaled["matrix"][1] = [arith.to_json(r, r.mul(r.parse(two), r.parse(v)))
                           for v in scaled["matrix"][1]]
    assert "determinant" in oracle.check(req, scaled)


def test_verdict_flips_are_rejected():
    req = Request("check", "zmod:30", property="clean")
    doc = _run(req)
    assert oracle.check(req, doc) is None
    assert oracle.check(req, {**doc, "holds": False}) is not None
    assert oracle.check(Request("check", "zmod:30", property="neat-range-1"), doc) is not None

    zreq = Request("check", "z", property="stable-range-1")
    zdoc = _run(zreq)
    assert oracle.check(zreq, zdoc) is None
    assert oracle.check(zreq, {**zdoc, "holds": True}) is not None
    # 3 + 1*(-2) = 1 is a unit, so (3, 1) refutes nothing
    assert "witness" in oracle.check(zreq, {**zdoc, "witness": [3, 1]})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_are_seeded(name):
    build = WORKLOADS[name].build
    assert build(3) == build(3)
    assert len(build(3)) == len(build(4))


def test_invariant_factor_references():
    assert oracle._invariant_factors(arith.Integers(), [[2, 4], [6, 8]]) == [2, 4]
    assert oracle._invariant_factors(arith.Residues(12), [[2, 4], [6, 8]]) == [2, 4]
    assert oracle._invariant_factors(arith.Residues(6), [[2, 4], [6, 8]]) == [2, 2]
    gf = arith.PrimeFieldPolys(5)
    # diag(3x, 2x^2): x divides x^2, so the factors are its monic entries
    assert oracle._invariant_factors(gf, [[(0, 3), ()], [(), (0, 0, 2)]]) == [(0, 1), (0, 0, 1)]
    # x and x^2 + 1 are coprime, so diag(x, x^2 + 1) has factors 1, x^3 + x
    assert oracle._invariant_factors(gf, [[(0, 1), ()], [(), (1, 0, 1)]]) == [(1,), (0, 1, 0, 1)]
