"""Row completion to a prescribed determinant."""

import itertools
import math
from functools import reduce

import pytest

from edrkit import (
    IntegerRing,
    ModularRing,
    PreconditionError,
    RingMatrix,
    bezout,
    complete_row,
    complete_unimodular,
    determinant,
    element,
    is_unit,
    make_ring,
    one,
    zero,
)
from edrkit import completion
from conftest import det_oracle, random_element, random_value

Z = IntegerRing()


def zel(v):
    return element(Z, v)


def zrow(*vals):
    return [zel(v) for v in vals]


def test_two_entry_example():
    res = complete_row(zrow(4, 6), zel(2))
    assert res.matrix.data == ((4, 6), (-1, -1))
    assert det_oracle(res.matrix).value == 2


def test_unit_row_gives_identity():
    res = complete_row(zrow(1, 0, 0), zel(1))
    assert res.matrix.is_identity()


def test_three_entry_example():
    res = complete_row(zrow(6, 10, 15), zel(1))
    assert res.matrix.data[0] == (6, 10, 15)
    assert det_oracle(res.matrix).value == 1


def test_trace_has_named_witnesses():
    res = complete_row(zrow(6, 10, 15), zel(1))
    for key in ("x", "q", "c", "w", "u"):
        assert key in res.trace
    # the defect annihilates d
    assert (res.d * res.trace["c"]).is_zero()
    assert is_unit(res.trace["u"])


def test_trace_replays_bordered_determinant(rng):
    for spec, n in itertools.product(
            ["z", "zmod:360", "gfpoly:5", "product:zmod:4,z", "text:z,q"], range(3, 8)):
        ring = make_ring(spec)
        done = 0
        while done < 3:
            row = [element(ring, random_value(ring, rng, span=30)) for _ in range(n)]
            d = row[0]
            for a in row[1:]:
                d = bezout(d, a).d
            if d.is_zero():
                continue
            res = complete_row(row, d)
            tr = res.trace
            qs, ys, ss = tr["q"], tr["y"], tr["s"]
            c, xs = tr["c"], tr["x"]
            o, z = one(ring), zero(ring)
            body = [[qs[0] - c * ss[-1], qs[1] - c * ys[-1]] + qs[2:],
                    [-tr["tv"], tr["sv"]] + [z] * (n - 2)]
            for i in range(2, n - 1):
                body.append([-ss[i - 2], -ys[i - 2]] + [o if j == i else z for j in range(2, n)])
            body.append([-(xs[-1] * ss[-1]), -(xs[-1] * ys[-1])]
                        + [o if j == n - 1 else z for j in range(2, n)])
            bordered = RingMatrix(ring, body)
            # the bordered determinant is the recorded unit, and scaling row 1
            # by d recovers the completed matrix's determinant exactly
            assert det_oracle(bordered) == tr["u"]
            assert is_unit(tr["u"])
            assert det_oracle(res.matrix) == d
            done += 1


def test_zero_row_completion():
    res = complete_row(zrow(0, 0, 0), zel(0))
    assert res.matrix.data[0] == (0, 0, 0)
    assert det_oracle(res.matrix).value == 0


def test_precondition_errors():
    with pytest.raises(PreconditionError):
        complete_row(zrow(4, 6), zel(3))  # 3Z != 2Z
    with pytest.raises(PreconditionError):
        complete_row(zrow(4, 6), zel(1))  # row only generates 2Z
    with pytest.raises(PreconditionError):
        complete_row([zel(5)], zel(5))  # length-1 rows are out of contract


def test_random_integer_completions(rng):
    for _ in range(200):
        n = rng.randint(2, 6)
        row = [rng.randint(-50, 50) for _ in range(n)]
        d = 0
        for v in row:
            d = math.gcd(d, v)
        res = complete_row([zel(v) for v in row], zel(d))
        assert res.matrix.data[0] == tuple(row)
        assert det_oracle(res.matrix).value == d


def test_negative_target_determinant():
    res = complete_row(zrow(4, 6), zel(-2))
    assert det_oracle(res.matrix).value == -2
    res = complete_row(zrow(6, 10, 15), zel(-1))
    assert det_oracle(res.matrix).value == -1


def test_complete_unimodular_examples():
    res = complete_unimodular(zrow(3, 5))
    assert res.matrix.data == ((3, 5), (1, 2))
    assert det_oracle(res.matrix).value == 1

    m12 = ModularRing(12)
    res = complete_unimodular([element(m12, 8), element(m12, 9)])
    assert det_oracle(res.matrix).value == 1

    res = complete_unimodular([zel(1)])
    assert res.matrix.data == ((1,),)


def test_complete_unimodular_rejections():
    with pytest.raises(PreconditionError):
        complete_unimodular(zrow(2, 4))
    with pytest.raises(PreconditionError):
        complete_unimodular([zel(5)])
    with pytest.raises(PreconditionError, match="empty row"):
        complete_unimodular([])


def test_modular_exhaustive_small():
    for n in (2, 3, 4, 6):
        ring = ModularRing(n)
        for a1, a2, a3 in itertools.product(range(n), repeat=3):
            g = math.gcd(math.gcd(a1, a2), math.gcd(a3, n))
            for d in range(n):
                if math.gcd(d, n) != math.gcd(g, n):
                    continue
                row = [element(ring, a1), element(ring, a2), element(ring, a3)]
                res = complete_row(row, element(ring, d))
                assert res.matrix.data[0] == (a1, a2, a3)
                assert determinant(res.matrix).value == d


def test_completion_beyond_the_integers(rng):
    from fractions import Fraction
    from edrkit import GFPolynomialRing, bezout, make_ring

    g5 = GFPolynomialRing(5)
    for _ in range(40):
        row = [element(g5, tuple(rng.randrange(5) for _ in range(rng.randint(0, 3))))
               for _ in range(rng.randint(2, 4))]
        g = row[0]
        for a in row[1:]:
            g = bezout(g, a).d
        res = complete_row(row, g)
        assert det_oracle(res.matrix) == g

    te = make_ring("text:z,q")
    for _ in range(40):
        row = [element(te, (rng.randint(-9, 9) if rng.random() < 0.6 else 0,
                            Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
               for _ in range(rng.randint(2, 4))]
        g = row[0]
        for a in row[1:]:
            g = bezout(g, a).d
        res = complete_row(row, g)
        assert det_oracle(res.matrix) == g

    series = make_ring("series:5")
    done = 0
    while done < 40:
        row = [element(series, (rng.randint(-9, 9), Fraction(rng.randint(-4, 4), 3), 0, 0, 0, 0))
               for _ in range(rng.randint(2, 4))]
        if all(r.value[0] == 0 for r in row):
            continue
        g = row[0]
        for a in row[1:]:
            g = bezout(g, a).d
        res = complete_row(row, g)
        assert det_oracle(res.matrix) == g
        done += 1


def test_longer_modular_rows(rng):
    for n in (6, 9, 12):
        ring = ModularRing(n)
        for _ in range(30):
            row = [element(ring, rng.randrange(n)) for _ in range(rng.randint(2, 5))]
            g = 0
            for e in row:
                g = math.gcd(g, e.value)
            d = math.gcd(g, n) % n
            res = complete_row(row, element(ring, d))
            assert determinant(res.matrix).value == d


def _forward_tail_moduli(ring, w, rest):
    """Every suffix folded on its own from the left, w first: n^2 / 2 gcds."""
    return [reduce(ring.gcd, rest[i + 1:], w) for i in range(len(rest))]


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "text:z,q", "series:4",
                                  "product:zmod:4,z", "product:zmod:12,gfpoly:3",
                                  "product:zmod:12,series:3"])
def test_suffix_fold_trace_equals_forward_fold(monkeypatch, rng, spec):
    """The chained unit lifts fold each tail's gcd once from the right; that
    gives the trace of folding every suffix from the left exactly."""
    ring = make_ring(spec)
    cases = []
    for _ in range(25):
        row = [random_element(ring, rng, 30) for _ in range(rng.randint(3, 7))]
        g = reduce(lambda g, a: bezout(g, a).d, row[1:], row[0])
        if not g.is_zero():
            cases.append((row, g))
    assert len(cases) >= 15
    suffix = [complete_row(row, g).to_json() for row, g in cases]
    monkeypatch.setattr(completion, "_tail_moduli", _forward_tail_moduli)
    assert suffix == [complete_row(row, g).to_json() for row, g in cases]
