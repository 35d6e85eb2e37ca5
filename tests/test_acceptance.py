"""Acceptance suite: one test per criterion, exact tolerances, oracle-checked.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines and timings.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

from edrkit import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    RingMatrix,
    bezout,
    check_property,
    clean_idempotent,
    complete_row,
    coprime_factorization,
    determinant,
    diagonal_reduce,
    divides,
    element,
    is_unit,
    lift_unit,
    make_ring,
    reduce_2x2,
    select_stable,
    sr2_witness,
    verify_reduction,
)
from edrkit import exhaustive
from edrkit.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, CommandRequest, dispatch
from conftest import det_oracle, minor_gcd_oracle

Z = IntegerRing()


def zel(v):
    return element(Z, v)


def _report(num: int, label: str, t0: float):
    print(f"PASS criterion {num}: {label} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_snf_correctness():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = RingMatrix(Z, [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)])
        res = diagonal_reduce(a)
        assert (res.P @ a) @ res.Q == res.D
        assert (res.P @ res.Pinv).is_identity() and (res.Pinv @ res.P).is_identity()
        assert (res.Q @ res.Qinv).is_identity() and (res.Qinv @ res.Q).is_identity()
        diag = [e.value for e in res.D.diagonal()]
        for i in range(len(diag) - 1):
            assert diag[i + 1] == 0 if diag[i] == 0 else diag[i + 1] % diag[i] == 0
        if m <= 5 and n <= 5:
            prod = 1
            for k in range(1, min(m, n) + 1):
                prod *= diag[k - 1]
                assert abs(prod) == minor_gcd_oracle(a, k)
    _report(1, "SNF certificates and minor-gcd oracle on 200 random matrices", t0)


def test_criterion_2_reduce_2x2():
    t0 = time.perf_counter()
    rng = random.Random(202)
    done = 0
    while done < 500:
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        done += 1
        mat = RingMatrix(Z, [[a, 0], [b, c]])
        res = reduce_2x2(mat)
        assert verify_reduction(mat, res)
        assert res.D.data[0][0] == 1
        delta = res.D.entry(1, 1)
        det_a = det_oracle(mat)
        assert divides(delta, det_a) and divides(det_a, delta)
        for fac, inv in res.left_factors + res.right_factors:
            assert (fac @ inv).is_identity() and (inv @ fac).is_identity()
    g5 = GFPolynomialRing(5)
    done = 0
    while done < 200:
        def rp():
            return tuple(rng.randrange(5) for _ in range(rng.randint(0, 5)))
        a, b, c = rp(), rp(), rp()
        d1 = bezout(element(g5, a), element(g5, b)).d
        if not is_unit(bezout(d1, element(g5, c)).d):
            continue
        done += 1
        mat = RingMatrix(g5, [[a, ()], [b, c]])
        res = reduce_2x2(mat)
        assert verify_reduction(mat, res)
        assert res.D.data[0][0] == (1,)
        delta = res.D.entry(1, 1)
        det_a = det_oracle(mat)
        assert divides(delta, det_a) and divides(det_a, delta)
        for fac, inv in res.left_factors + res.right_factors:
            assert (fac @ inv).is_identity() and (inv @ fac).is_identity()
    _report(2, "2x2 elementary reduction on 500 integer + 200 GF(5)[x] triples", t0)


def test_criterion_3_strong_completion():
    t0 = time.perf_counter()
    rng = random.Random(303)
    for _ in range(500):
        n = rng.randint(2, 6)
        row = [rng.randint(-50, 50) for _ in range(n)]
        d = 0
        for v in row:
            d = math.gcd(d, v)
        res = complete_row([zel(v) for v in row], zel(d))
        assert res.matrix.data[0] == tuple(row)
        assert det_oracle(res.matrix).value == d
    done = 0
    for n in range(2, 13):
        ring = ModularRing(n)
        for a1, a2, a3 in itertools.product(range(n), repeat=3):
            g = math.gcd(math.gcd(a1, a2), math.gcd(a3, n))
            gg = math.gcd(g, n)
            for d in range(n):
                if math.gcd(d, n) != gg:
                    continue
                row = [element(ring, a1), element(ring, a2), element(ring, a3)]
                res = complete_row(row, element(ring, d))
                assert res.matrix.data[0] == (a1, a2, a3)
                assert determinant(res.matrix).value == d
                done += 1
    _report(3, f"500 integer rows + {done} exhaustive Z/n completions", t0)


def test_criterion_4_stability_suite():
    t0 = time.perf_counter()
    for m in range(2, 31):
        assert check_property(ModularRing(m), "stable-range-1").holds
    v = check_property(Z, "stable-range-1", bound=100)
    assert not v.holds
    assert [w.value for w in v.witness] == [3, 5]
    assert (1 - 3) % 5 != 0 and (-1 - 3) % 5 != 0  # witness re-check
    rng = random.Random(404)
    done = 0
    while done < 500:
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if math.gcd(a, b) != 1:
            continue
        done += 1
        y = select_stable(zel(a), zel(b))
        w = a + b * y.value
        assert w != 0 and abs(w) <= 10_000
        assert exhaustive.stable_range_1(exhaustive.ModStructure(abs(w)))[0]
    done = 0
    while done < 1000:
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        if c == 0 or math.gcd(math.gcd(a, b), c) != 1:
            continue
        done += 1
        y = lift_unit(zel(a), zel(b), zel(c))
        assert is_unit(bezout(zel(a + b * y.value), zel(c)).d)
    _report(4, "stable-range suite: Z/m<=30, certified (3,5), 500 selections, "
               "1000 lifts", t0)


def test_criterion_5_coprime_factorization_suite():
    t0 = time.perf_counter()
    rng = random.Random(505)
    done = 0
    while done < 200:
        c = rng.randint(-60, 60)
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if c == 0 or math.gcd(a, b) != 1:
            continue
        done += 1
        r, s = coprime_factorization(zel(c), zel(a), zel(b))
        assert r.value * s.value == c
        assert math.gcd(r.value, s.value) == 1
        assert math.gcd(r.value, a) == 1
        assert math.gcd(s.value, b) == 1
        e = clean_idempotent(zel(c), zel(a), zel(b))
        ca = abs(c)
        assert (e.value * e.value - e.value) % ca == 0
        assert any((a * t - e.value) % ca == 0 for t in range(ca))
        assert any((b * t - (1 - e.value)) % ca == 0 for t in range(ca))
    _report(5, "200 coprime factorizations with verified clean idempotents", t0)


def test_criterion_6_stable_range_2_witnesses():
    t0 = time.perf_counter()
    rng = random.Random(606)
    done = 0
    while done < 500:
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        done += 1
        y, z = sr2_witness(zel(a), zel(b), zel(c))
        cert = bezout(zel(a + c * y.value), zel(b + c * z.value))
        assert is_unit(cert.d)
    _report(6, "500 stable-range-2 witnesses verified through certificates", t0)


def _exhaustively_locally_stable(ring) -> bool:
    """The exhaustive search's verdict; check_property answers from the theorem."""
    return exhaustive.locally_stable(exhaustive.structure_for(ring))[0]


def test_criterion_7_structure_theorems_finite_scale():
    t0 = time.perf_counter()
    for m1 in range(2, 9):
        for m2 in range(2, 9):
            prod = make_ring(f"product:zmod:{m1},zmod:{m2}").ring
            v = _exhaustively_locally_stable(prod)
            c1 = _exhaustively_locally_stable(ModularRing(m1))
            c2 = _exhaustively_locally_stable(ModularRing(m2))
            assert v == (c1 and c2)
    for n in range(2, 13):
        te = make_ring(f"text:zmod:{n},self").ring
        assert (_exhaustively_locally_stable(te)
                == _exhaustively_locally_stable(ModularRing(n)))
    _report(7, "product agreement (sizes <= 8) and trivial-extension agreement "
               "(n <= 12)", t0)


def test_criterion_8_trivial_extension_smoke():
    t0 = time.perf_counter()
    rng = random.Random(808)
    te = make_ring("text:z,q").ring

    def rel():
        return (rng.randint(-20, 20), Fraction(rng.randint(-20, 20), rng.randint(1, 20)))

    for _ in range(50):
        a = RingMatrix(te, [[rel(), rel()], [rel(), rel()]])
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
    _report(8, "50 verified reductions over the trivial extension of Z by Q", t0)


def test_criterion_9_cli_conformance():
    t0 = time.perf_counter()
    examples = [
        CommandRequest(command="snf", ring="z", payload='{"rows":[[2,4],[6,8]]}'),
        CommandRequest(command="check", ring="zmod:30", property="stable-range-1"),
        CommandRequest(command="complete", ring="z", row="4,6", d="2"),
    ]
    outputs = []
    for req in examples:
        code, out = dispatch(req)
        assert code == EXIT_OK
        code2, out2 = dispatch(req)
        assert (code, out) == (code2, out2)
        outputs.append(json.loads(out))
    assert outputs[0]["D"] == [[2, 0], [0, 4]]
    assert outputs[1]["holds"] is True
    assert outputs[2]["matrix"] == [[4, 6], [-1, -1]]
    code, _ = dispatch(CommandRequest(command="reduce2x2", ring="z",
                                      payload='{"rows":[[2,0],[2,2]]}'))
    assert code == EXIT_PRECONDITION
    code, _ = dispatch(CommandRequest(command="snf", ring="z", payload="1 2\n3"))
    assert code == EXIT_PARSE
    _report(9, "CLI byte-identical JSON and exit codes 0/1/2", t0)
