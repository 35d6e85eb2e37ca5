"""Stable selection, unit lifting, stable-range-2 witnesses, clean quotients."""

import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from edrkit import (
    GFPolynomialRing,
    InfiniteRingError,
    IntegerRing,
    ModularRing,
    PreconditionError,
    ProductRing,
    UnsupportedOperationError,
    bezout,
    check_property,
    clean_idempotent,
    coprime_factorization,
    element,
    is_coprime,
    is_stable,
    is_unit,
    lift_unit,
    make_ring,
    select_stable,
    sr2_witness,
    unit_mod,
)
from edrkit import exhaustive
from edrkit.exhaustive import TooLargeError

Z = IntegerRing()
M12 = ModularRing(12)
G5 = GFPolynomialRing(5)


def zel(v):
    return element(Z, v)


def test_is_coprime_examples():
    assert is_coprime(zel(3), zel(5))
    assert not is_coprime(zel(4), zel(6))
    assert is_coprime(element(M12, 8), element(M12, 9))


def test_unit_mod_examples():
    assert unit_mod(zel(3), zel(10))
    assert not unit_mod(zel(4), zel(10))
    prod = ProductRing([Z, Z])
    assert unit_mod(element(prod, (3, 1)), element(prod, (10, 4)))
    assert not unit_mod(element(prod, (3, 2)), element(prod, (10, 4)))


def test_series_comaximality_without_constant_terms():
    """Two series with zero constant terms never generate R; the pair test
    used to ask for a Bezout certificate that does not exist and raise."""
    from edrkit.stability import _comaximal

    s = make_ring("series:4").ring
    x = element(s, (0, (1,)))
    x2 = x * x
    assert not is_coprime(x, x2)
    assert not unit_mod(x, x2)
    assert not is_coprime(x2, x)
    assert not _comaximal(s, [x.value, x2.value])
    assert not _comaximal(s, [x.value, x2.value, (x * x2).value])
    assert not is_coprime(x, element(s, (0, ())))
    one_plus_x = element(s, (1, (1,)))
    assert is_coprime(x, one_plus_x) and is_coprime(one_plus_x, x2)
    assert unit_mod(one_plus_x, x2)
    two, three = element(s, (2, (Fraction(1, 2),))), element(s, (3, ()))
    assert not is_coprime(two, x) and is_coprime(two, three)
    # pairs agree with the joint test, in both orders
    els = [x, x2, one_plus_x, two, three, element(s, (-1, ())), element(s, (0, ()))]
    for a in els:
        for b in els:
            assert is_coprime(a, b) == unit_mod(a, b) == _comaximal(s, [a.value, b.value])
            assert is_coprime(a, b) == (math.gcd(a.value[0], b.value[0]) == 1)
    # a unit-free lead: the fold must start from a nonzero constant term
    assert _comaximal(s, [x.value, x2.value, one_plus_x.value])
    assert _comaximal(s, [x2.value, two.value, three.value])
    assert not _comaximal(s, [x.value, x2.value, two.value])


def test_select_stable_examples():
    assert select_stable(zel(3), zel(5)).value == 0
    assert exhaustive.stable_range_1(exhaustive.ModStructure(3))[0]
    assert select_stable(zel(0), zel(7)).value == 1
    assert exhaustive.stable_range_1(exhaustive.ModStructure(7))[0]
    s = make_ring("series:8").ring
    f = element(s, (0, (Fraction(1),)))
    g = element(s, (1, ()))
    assert select_stable(f, g).value == (1, ())


def test_select_stable_rejects_zero_pair():
    with pytest.raises(PreconditionError):
        select_stable(zel(0), zel(0))


def test_select_stable_refuses_pairs_without_a_stable_shift():
    s = make_ring("series:4").ring
    x = element(s, (0, (Fraction(1),)))
    with pytest.raises(PreconditionError, match="constant terms"):
        select_stable(x, x * x)
    t = make_ring("text:z,q").ring
    with pytest.raises(PreconditionError, match="base components"):
        select_stable(element(t, (0, Fraction(1, 2))), element(t, (0, Fraction(3))))


def test_select_stable_postcondition_verified(rng):
    checked = 0
    while checked < 120:
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if math.gcd(a, b) != 1:
            continue
        checked += 1
        y = select_stable(zel(a), zel(b))
        w = a + b * y.value
        assert w != 0
        assert is_stable(zel(w)).holds


def test_lift_unit_examples():
    assert lift_unit(zel(2), zel(3), zel(5)).value == 0
    assert lift_unit(zel(5), zel(3), zel(10)).value == 2
    y = lift_unit(element(M12, 4), element(M12, 3), element(M12, 8))
    assert is_coprime(element(M12, (4 + 3 * y.value) % 12), element(M12, 8))


def test_lift_unit_streams_residues_of_a_large_modulus():
    ring = ModularRing(1000003)
    tracemalloc.start()
    try:
        y = lift_unit(element(ring, 0), element(ring, 1), element(ring, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.value == 1
    assert peak < 1 << 20  # no list of the million residues


def test_lift_unit_at_c_zero_over_the_integers():
    # Z/0Z = Z has no finite residue system, so only y = 0 is tried
    assert lift_unit(zel(1), zel(2), zel(0)).value == 0
    with pytest.raises(PreconditionError, match="y = 0 fails"):
        lift_unit(zel(2), zel(1), zel(0))


def test_lift_unit_precondition():
    with pytest.raises(PreconditionError):
        lift_unit(zel(2), zel(4), zel(6))


def test_lift_unit_postcondition_selfcheck(rng):
    checked = 0
    while checked < 200:
        a, b, c = (rng.randint(-40, 40) for _ in range(3))
        if c == 0 or math.gcd(math.gcd(a, b), c) != 1:
            continue
        checked += 1
        y = lift_unit(zel(a), zel(b), zel(c))
        cert = bezout(zel(a + b * y.value), zel(c))
        assert is_unit(cert.d)


def test_is_stable_examples():
    assert is_stable(zel(6)).holds
    with pytest.raises(InfiniteRingError):
        is_stable(zel(0))
    for a in range(12):
        assert is_stable(element(M12, a)).holds
    assert is_stable(element(G5, (1, 1))).holds
    assert is_stable(element(G5, (2,))).holds  # unit modulus, zero quotient
    with pytest.raises(InfiniteRingError):
        is_stable(element(G5, ()))


def test_check_property_examples():
    assert check_property(ModularRing(30), "stable-range-1").holds
    v = check_property(Z, "stable-range-1", bound=100)
    assert not v.holds
    assert [w.value for w in v.witness] == [3, 5]
    assert v.search_bound == 100
    # the witness re-checks: 3 + 5y = +-1 has no integer solution
    assert (1 - 3) % 5 != 0 and (-1 - 3) % 5 != 0
    v4 = check_property(ModularRing(4), "clean")
    assert v4.holds
    idem = [e for e in range(4) if e * e % 4 == e]
    units = [u for u in range(4) if math.gcd(u, 4) == 1]
    assert idem == [0, 1] and units == [1, 3]
    assert all(any((a - e) % 4 in units for e in idem) for a in range(4))


def test_check_property_unsupported_pairings():
    with pytest.raises(UnsupportedOperationError):
        check_property(Z, "clean")
    with pytest.raises(UnsupportedOperationError):
        check_property(make_ring("text:z,q").ring, "stable-range-1")


def test_sr2_witness_examples(rng):
    assert tuple(e.value for e in sr2_witness(zel(3), zel(5), zel(7))) == (0, 0)
    y, z = sr2_witness(zel(2), zel(4), zel(1))
    assert math.gcd(2 + y.value, 4 + z.value) == 1
    a, b, c = element(M12, 4), element(M12, 6), element(M12, 9)
    y, z = sr2_witness(a, b, c)
    lhs = element(M12, (4 + 9 * y.value) % 12)
    rhs = element(M12, (6 + 9 * z.value) % 12)
    assert is_coprime(lhs, rhs)
    assert any((lhs.value * s + rhs.value * t) % 12 == 1
               for s in range(12) for t in range(12))


def test_sr2_witness_precondition():
    with pytest.raises(PreconditionError):
        sr2_witness(zel(2), zel(4), zel(6))


def test_sr2_random_integers(rng):
    checked = 0
    while checked < 150:
        a, b, c = (rng.randint(-40, 40) for _ in range(3))
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        checked += 1
        y, z = sr2_witness(zel(a), zel(b), zel(c))
        assert math.gcd(a + c * y.value, b + c * z.value) == 1


def test_coprime_factorization_examples():
    r, s = coprime_factorization(zel(12), zel(9), zel(5))
    assert (r.value, s.value) == (4, 3)
    r, s = coprime_factorization(zel(1), zel(3), zel(5))
    assert (r.value, s.value) == (1, 1)
    # over GF(5): c = x(x+1), a = x, b = x+1 splits as r = x+1, s = x
    c = element(G5, (0, 1, 1))
    r, s = coprime_factorization(c, element(G5, (0, 1)), element(G5, (1, 1)))
    assert (r.value, s.value) == ((1, 1), (0, 1))
    # with a = x+2 coprime to all of c, everything lands in r
    r, s = coprime_factorization(c, element(G5, (2, 1)), element(G5, (0, 1)))
    assert (r.value, s.value) == ((0, 1, 1), (1,))


def test_coprime_factorization_preconditions():
    with pytest.raises(PreconditionError):
        coprime_factorization(zel(0), zel(3), zel(5))
    with pytest.raises(PreconditionError):
        coprime_factorization(zel(12), zel(2), zel(4))


def _assert_coprime_split(c, a, b, r, s):
    assert r * s == c
    assert is_coprime(r, s) and is_coprime(r, a) and is_coprime(s, b)


def test_coprime_factorization_on_residue_rings():
    for n in range(2, 31):
        ring = ModularRing(n)
        for c in range(1, n):
            for a in range(n):
                for b in range(0, n, 3):
                    el = [element(ring, v) for v in (c, a, b)]
                    if is_coprime(el[1], el[2]):
                        _assert_coprime_split(*el, *coprime_factorization(*el))


def test_coprime_factorization_scans_only_small_finite_rings():
    small = make_ring("product:zmod:4,zmod:6").ring
    c, a, b = (element(small, v) for v in ((2, 4), (2, 5), (3, 1)))
    _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))
    # products split factor by factor, past the scan cap too
    big = make_ring("product:zmod:64,zmod:97").ring  # 6,208 elements
    c, a, b = (element(big, v) for v in ((2, 4), (1, 5), (3, 1)))
    _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))
    mixed = make_ring("product:zmod:4,z").ring
    for v in (((0, 12), (2, 9), (1, 5)), ((2, 12), (3, 9), (0, 5)), ((3, -7), (0, 1), (1, 0))):
        c, a, b = (element(mixed, x) for x in v)
        r, s = coprime_factorization(c, a, b)
        _assert_coprime_split(c, a, b, r, s)
        assert [mixed.normalize(e.value) for e in (r, s)] == [r.value, s.value]
    # a zero component over Z is refused as c = 0 is
    c, a, b = (element(mixed, v) for v in ((2, 0), (1, 3), (1, 5)))
    with pytest.raises(PreconditionError):
        coprime_factorization(c, a, b)
    # the other finite rings are trivial extensions on tables: the largest
    # table is scanned, one past it is refused before any table is built
    table = make_ring("text:zmod:32,self").ring  # 1,024 elements
    c, a, b = (element(table, v) for v in ((6, 1), (3, 0), (2, 0)))
    _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))
    for spec in ("text:zmod:33,self", "text:zmod:65,self"):  # 1,089 and 4,225
        other = make_ring(spec).ring
        c, a, b = (element(other, v) for v in ((5, 1), (1, 0), (0, 0)))
        with pytest.raises(TooLargeError):
            coprime_factorization(c, a, b)


def test_clean_idempotent_over_a_huge_modulus_is_fast():
    ring = make_ring("zmod:2305843009213693953").ring  # 3 * 768614336404564651
    c, a, b = (element(ring, v) for v in (3, 1, 3))
    t0 = time.perf_counter()
    e = clean_idempotent(c, a, b)
    assert time.perf_counter() - t0 < 1.0
    assert ring.divides(c.value, (e * e - e).value)


def test_clean_idempotent_example():
    e = clean_idempotent(zel(12), zel(9), zel(5))
    assert e.value == 9
    assert (9 * 9) % 12 == 9
    # e lies in 9*(Z/12) and 1 - e lies in 5*(Z/12)
    assert any((9 * t - 9) % 12 == 0 for t in range(12))
    assert any((5 * t - (1 - 9)) % 12 == 0 for t in range(12))
    assert clean_idempotent(zel(1), zel(3), zel(5)).value == 0


def test_clean_idempotent_matches_enumerated_idempotents(rng):
    checked = 0
    while checked < 60:
        c = rng.randint(2, 40)
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if math.gcd(a, b) != 1:
            continue
        checked += 1
        e = clean_idempotent(zel(c), zel(a), zel(b))
        idems = {t for t in range(c) if (t * t) % c == t}
        assert e.value % c in idems
        assert check_property(ModularRing(c), "clean").holds


def _exhaustively(ring, checker) -> bool:
    """The exhaustive checker's verdict: the oracle, not check_property."""
    return checker(exhaustive.structure_for(ring))[0]


def test_theorem_style_implication_on_finite_rings():
    # if a or 1 - a is stable for every a, the ring is locally stable;
    # both sides are exhaustively computed, never assumed
    for expr in ["zmod:6", "zmod:8", "zmod:9", "product:zmod:2,zmod:4",
                 "text:zmod:3,self"]:
        ring = make_ring(expr).ring
        s = exhaustive.structure_for(ring)

        def stable(v):
            return exhaustive.stable_range_1(s.quotient(s.locate(v)))[0]

        hyp = all(stable(a) or stable(ring.sub(ring.one, a)) for a in ring.elements())
        concl = _exhaustively(ring, exhaustive.locally_stable)
        assert not hyp or concl


def test_product_locally_stable_matches_components():
    for m1 in (2, 3, 4):
        for m2 in (2, 5):
            prod = make_ring(f"product:zmod:{m1},zmod:{m2}").ring
            v = _exhaustively(prod, exhaustive.locally_stable)
            c1 = _exhaustively(ModularRing(m1), exhaustive.locally_stable)
            c2 = _exhaustively(ModularRing(m2), exhaustive.locally_stable)
            assert v == (c1 and c2)


def test_trivial_extension_locally_stable_matches_base():
    for n in (2, 3, 4, 6):
        te = make_ring(f"text:zmod:{n},self").ring
        assert (_exhaustively(te, exhaustive.locally_stable)
                == _exhaustively(ModularRing(n), exhaustive.locally_stable))


def test_locally_stable_and_neat_range_agree_with_reduction(rng):
    # on rings where reduction is available, the two quotient conditions and
    # the reduction engine must tell one coherent story
    from edrkit import RingMatrix, diagonal_reduce, verify_reduction
    from conftest import random_value
    for expr in ["zmod:4", "zmod:6", "zmod:9", "zmod:12", "product:zmod:2,zmod:5"]:
        ring = make_ring(expr).ring
        assert check_property(ring, "locally-stable").holds
        assert check_property(ring, "neat-range-1").holds
        for _ in range(10):
            a = RingMatrix(ring, [[random_value(ring, rng) for _ in range(3)]
                                  for _ in range(2)])
            assert verify_reduction(a, diagonal_reduce(a))


def test_verdict_json_shape():
    v = check_property(Z, "stable-range-1", bound=50)
    doc = v.to_json()
    assert doc == {"property": "stable-range-1", "holds": False,
                   "witness": [3, 5], "searchBound": 50}
    v = check_property(ModularRing(6), "clean")
    assert v.to_json() == {"property": "clean", "holds": True}


@pytest.mark.parametrize("spec", ["product:zmod:2,text:zmod:2,self",
                                  "product:text:zmod:2,self,zmod:3"])
def test_finite_comaximality_on_products_matches_ideal_sums(spec):
    """is_coprime and the joint test of sr2_witness on products outside the
    Bezout rings, against sums of principal ideals of the whole ring."""
    from itertools import product

    from edrkit.stability import _comaximal

    ring = make_ring(spec).ring
    assert not ring.bezout_total
    els = list(ring.elements())
    ideal = {x: {ring.mul(x, t) for t in els} for x in els}

    def reaches_one(*xs):
        reach = {ring.zero}
        for x in xs:
            reach = {ring.add(p, q) for p in reach for q in ideal[x]}
        return ring.one in reach

    for a, b in product(els, repeat=2):
        assert is_coprime(element(ring, a), element(ring, b)) == reaches_one(a, b)
    for a, b, c in product(els, repeat=3):
        assert _comaximal(ring, [a, b, c]) == reaches_one(a, b, c)
