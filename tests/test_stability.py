"""Stable selection, unit lifting, stable-range-2 witnesses, clean quotients."""

import functools
import itertools
import math
import random
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
from edrkit.rings import RingError

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


def _series(ring, c, *qs):
    """The element c + qs[0]*x + qs[1]*x^2 + ... of a series ring."""
    return element(ring, (c, *qs, *[0] * (ring.order - len(qs))))


def test_series_comaximality_without_constant_terms():
    """Two series with zero constant terms never generate R: their gcd,
    g*x^i for the lower order i, is not a unit."""
    s = make_ring("series:4")
    x = _series(s, 0, 1)
    x2 = x * x
    assert not is_coprime(x, x2)
    assert not unit_mod(x, x2)
    assert not is_coprime(x2, x)
    assert not s.comaximal([x.value, x2.value])
    assert not s.comaximal([x.value, x2.value, (x * x2).value])
    assert not is_coprime(x, _series(s, 0))
    one_plus_x = _series(s, 1, 1)
    assert is_coprime(x, one_plus_x) and is_coprime(one_plus_x, x2)
    assert unit_mod(one_plus_x, x2)
    two, three = _series(s, 2, Fraction(1, 2)), _series(s, 3)
    assert not is_coprime(two, x) and is_coprime(two, three)
    # pairs agree with the joint test, in both orders
    els = [x, x2, one_plus_x, two, three, _series(s, -1), _series(s, 0)]
    for a in els:
        for b in els:
            assert is_coprime(a, b) == unit_mod(a, b) == s.comaximal([a.value, b.value])
            assert is_coprime(a, b) == (math.gcd(a.value[0], b.value[0]) == 1)
    # a unit-free lead: the fold must start from a nonzero constant term
    assert s.comaximal([x.value, x2.value, one_plus_x.value])
    assert s.comaximal([x2.value, two.value, three.value])
    assert not s.comaximal([x.value, x2.value, two.value])


def test_select_stable_examples():
    assert select_stable(zel(3), zel(5)).value == 0
    assert exhaustive.stable_range_1(exhaustive.ModStructure(3))[0]
    assert select_stable(zel(0), zel(7)).value == 1
    assert exhaustive.stable_range_1(exhaustive.ModStructure(7))[0]
    s = make_ring("series:8")
    f = _series(s, 0, 1)
    g = _series(s, 1)
    assert select_stable(f, g).value == s.one


def test_select_stable_rejects_zero_pair():
    with pytest.raises(PreconditionError):
        select_stable(zel(0), zel(0))


def test_select_stable_refuses_pairs_without_a_stable_shift():
    s = make_ring("series:4")
    x = _series(s, 0, 1)
    with pytest.raises(PreconditionError, match="finite quotient"):
        select_stable(x, x * x)
    t = make_ring("text:z,q")
    with pytest.raises(PreconditionError, match="finite quotient"):
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


def test_select_stable_shifts_a_nested_extension_to_a_finite_quotient():
    """Over (Z ⋉ Z) ⋉ (Z ⋉ Z), a = ((0,1),(0,0)) is nonzero but maps to 0 in
    Z, so R/aR is infinite and y = 0 is no stable shift; y = ((1,0),(0,0))
    makes a + b*y = ((1,1),(0,0)), a unit."""
    ring = make_ring("text:text:z,self,self")
    a, b = element(ring, ((0, 1), (0, 0))), element(ring, ((1, 0), (0, 0)))
    assert is_coprime(a, b)
    with pytest.raises(InfiniteRingError):
        is_stable(a)
    y = select_stable(a, b)
    assert y.value == ((1, 0), (0, 0))
    assert (a + b * y).value == ((1, 1), (0, 0)) and is_unit(a + b * y)


def _extension_ops(add, mul, neg, divmod_):
    """Arithmetic of A ⋉ A from that of A, with division by a c whose base
    part c0 is not a zero divisor: x - c*q = r with r0, r1 reduced mod c0."""
    def edivmod(x, c):
        q0, r0 = divmod_(x[0], c[0])
        q1, r1 = divmod_(add(x[1], neg(mul(c[1], q0))), c[0])
        return (q0, q1), (r0, r1)
    return ((lambda x, y: (add(x[0], y[0]), add(x[1], y[1]))),
            (lambda x, y: (mul(x[0], y[0]), add(mul(x[0], y[1]), mul(x[1], y[0])))),
            (lambda x: (neg(x[0]), neg(x[1]))),
            edivmod)


def _quotient_table(ops, residues, zero_, one_, c):
    """R/cR as an exhaustive table, its elements the remainders modulo c."""
    add, mul, neg, divmod_ = ops
    canon = lambda x: divmod_(x, c)[1]  # noqa: E731
    return exhaustive.TableStructure(
        residues, lambda x, y: canon(add(x, y)), lambda x, y: canon(mul(x, y)),
        lambda x: canon(neg(x)), canon(zero_), canon(one_), lambda v: v)


_Z_OPS = (lambda x, y: x + y, lambda x, y: x * y, lambda x: -x, divmod)


def _gf_ops(p):
    from edrkit.rings import _padd, _pdivmod, _pmul, _pneg
    return (lambda x, y: _padd(x, y, p), lambda x, y: _pmul(x, y, p),
            lambda x: _pneg(x, p), lambda x, y: _pdivmod(x, y, p))


def test_is_stable_holds_where_the_quotient_is_finite():
    """Over Z ⋉ Q and the truncated series, R/cR = Z/|c0| for a nonzero
    integer part c0: (c0, e)R holds 0 ⋉ Q, and c = c0 * (a unit) in a series
    ring.  The oracle is the search of Z/|c0|.  A zero integer part leaves an
    infinite quotient, which is refused.  Over a product R/cR is the product
    of the factors' quotients, finite exactly when each one is."""
    zq, series = make_ring("text:z,q"), make_ring("series:4")
    for m in (-12, -5, -2, 2, 3, 4, 6, 9, 12):
        oracle = exhaustive.stable_range_1(exhaustive.ModStructure(abs(m)))[0]
        for e in (Fraction(0), Fraction(1, 3), Fraction(-7, 2)):
            assert is_stable(element(zq, (m, e))).holds == oracle
            assert is_stable(_series(series, m, e, Fraction(2))).holds == oracle
    for v in (element(zq, (0, Fraction(1, 2))), _series(series, 0, 1), _series(series, 0)):
        with pytest.raises(InfiniteRingError):
            is_stable(v)
    zz = make_ring("product:z,z")
    assert is_stable(element(zz, (2, 3))).holds  # R/cR = Z/2 x Z/3
    with pytest.raises(InfiniteRingError):
        is_stable(element(zz, (0, 3)))  # R/cR = Z x Z/3


def test_product_residues_are_the_product_of_the_factor_residues():
    ring = make_ring("product:z,gfpoly:3,zmod:4")
    f = (1, 0, 1)
    expected = list(itertools.product(range(3), ring.factors[1].residues_mod(f), range(4)))
    assert list(ring.residues_mod((3, f, 2))) == expected
    # a factor with an infinite quotient refuses before anything is listed
    with pytest.raises(UnsupportedOperationError):
        ring.residues_mod((0, f, 2))
    with pytest.raises(UnsupportedOperationError):
        ring.residues_mod((3, (), 2))


@pytest.mark.parametrize("spec, ops, residues, zero_, one_, elements", [
    ("text:z,self", _extension_ops(*_Z_OPS), lambda c0: range(c0), 0, 1,
     [(m, e) for m in (2, 3, 4, 5) for e in (-3, 0, 1, 7)]),
    ("text:gfpoly:3,self", _extension_ops(*_gf_ops(3)),
     lambda c0: exhaustive._polys(3, len(c0) - 1), (), (1,),
     [(c0, c1) for c0 in ((0, 1), (1, 1), (2, 0, 1), (1, 2, 2)) for c1 in ((), (2,), (1, 1))]),
    ("text:text:z,self,self", _extension_ops(*_extension_ops(*_Z_OPS)),
     lambda c0: [(r0, r1) for r0 in range(c0[0]) for r1 in range(c0[0])], (0, 0), (1, 0),
     [((2, 1), (0, 0)), ((2, 0), (1, 1)), ((3, -1), (2, 5))]),
], ids=["text:z,self", "text:gfpoly:3,self", "text:text:z,self,self"])
def test_is_stable_on_self_extensions_against_their_quotient_tables(
        spec, ops, residues, zero_, one_, elements):
    """Over A ⋉ A with A infinite, R/cR has |A/c0A|^2 elements: the pairs of
    remainders modulo c0.  Each quotient is tabulated from those remainders,
    with no call into the ring, and searched for stable range 1."""
    ring = make_ring(spec)
    for c in elements:
        base_residues = list(residues(c[0]))
        table = _quotient_table(ops, [(r0, r1) for r0 in base_residues for r1 in base_residues],
                                (zero_, zero_), (one_, zero_), c)
        assert table.size == len(base_residues) ** 2
        assert exhaustive.stable_range_1(table) == (True, None)
        assert is_stable(element(ring, c)).holds
    with pytest.raises(InfiniteRingError):
        is_stable(element(ring, (zero_, one_)))


def test_check_property_examples():
    assert check_property(ModularRing(30), "stable-range-1").holds
    v = check_property(Z, "stable-range-1")
    assert not v.holds
    assert [w.value for w in v.witness] == [3, 5]
    assert v.search_bound == 1000
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
        check_property(make_ring("text:z,q"), "stable-range-1")
    with pytest.raises(RingError, match="unknown property 'foo'"):
        check_property(Z, "foo")


@pytest.mark.parametrize("spec, c, a, b", [("text:z,q", (2, 0), (1, 0), (0, 0)),
                                           ("series:4", (2, 0, 0, 0, 0), (1, 0, 0, 0, 0),
                                            (0, 0, 0, 0, 0))])
def test_coprime_factorization_refuses_rings_without_a_split(spec, c, a, b):
    """The Ring.coprime_split default: rings with no gcd extraction refuse."""
    ring = make_ring(spec)
    els = [element(ring, v) for v in (c, a, b)]
    assert is_coprime(els[1], els[2])
    with pytest.raises(UnsupportedOperationError,
                       match=f"coprime_factorization is not supported on {spec}"):
        coprime_factorization(*els)


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


def test_coprime_factorization_scans_only_small_finite_rings(monkeypatch):
    small = make_ring("product:zmod:4,zmod:6")
    c, a, b = (element(small, v) for v in ((2, 4), (2, 5), (3, 1)))
    _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))
    # products split factor by factor, past the scan cap too
    big = make_ring("product:zmod:64,zmod:97")  # 6,208 elements
    c, a, b = (element(big, v) for v in ((2, 4), (1, 5), (3, 1)))
    _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))
    mixed = make_ring("product:zmod:4,z")
    for v in (((0, 12), (2, 9), (1, 5)), ((2, 12), (3, 9), (0, 5)), ((3, -7), (0, 1), (1, 0))):
        c, a, b = (element(mixed, x) for x in v)
        r, s = coprime_factorization(c, a, b)
        _assert_coprime_split(c, a, b, r, s)
        assert [mixed.normalize(e.value) for e in (r, s)] == [r.value, s.value]
    # a zero component over Z is refused as c = 0 is
    c, a, b = (element(mixed, v) for v in ((2, 0), (1, 3), (1, 5)))
    with pytest.raises(PreconditionError):
        coprime_factorization(c, a, b)
    # trivial extensions split their base parts, past the table cap too,
    # and build no table
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(exhaustive.TableStructure, "__init__", no_table)
    for spec in ("text:zmod:32,self", "text:zmod:33,self", "text:zmod:65,self"):
        ring = make_ring(spec)  # 1,024, 1,089 and 4,225 elements
        for v in (((6, 1), (3, 0), (2, 0)), ((5, 1), (1, 0), (0, 0)), ((0, 7), (2, 1), (3, 5))):
            c, a, b = (element(ring, x) for x in v)
            _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "text:zmod:4,self",
                                  "product:zmod:4,z"])
def test_unit_combination_is_the_scaled_certificate(spec, monkeypatch):
    """Ring.unit_combination reads (d, x, y) from Ring.egcd; its (u, v) are those
    from the head of the full certificate bezout_raw, and r*u + s*v = 1."""
    from edrkit.rings import Ring
    from conftest import random_value

    ring = make_ring(spec)
    rng = random.Random(spec)
    pairs = [(ring.one, ring.zero), (ring.zero, ring.one), (ring.neg(ring.one), ring.one)]
    while len(pairs) < 60:
        r, s = (ring.normalize(random_value(ring, rng, 30)) for _ in range(2))
        if ring.comaximal([r, s]):
            pairs.append((r, s))
    got = [ring.unit_combination(r, s) for r, s in pairs]
    for (r, s), (u, v) in zip(pairs, got):
        assert ring.add(ring.mul(r, u), ring.mul(s, v)) == ring.one, (r, s)
    for cls in (IntegerRing, GFPolynomialRing):
        monkeypatch.setattr(cls, "egcd", Ring.egcd)  # bezout_raw(a, b)[:3]
    assert [ring.unit_combination(r, s) for r, s in pairs] == got


def test_trivial_extension_refusals_answered_from_the_base():
    """Over A ⋉ A, which has no Bezout certificates, lift_unit tries the
    base's residues and clean_idempotent scales the base's certificate."""
    ring = make_ring("text:zmod:4,self")
    a, b, c = (element(ring, v) for v in ((2, 0), (1, 0), (2, 0)))
    y = lift_unit(a, b, c)
    assert y.value == (1, 0) and is_unit(a + b * y)  # (3, 0)
    c, a, b = (element(ring, v) for v in ((2, 1), (3, 0), (2, 0)))
    r, s = coprime_factorization(c, a, b)
    _assert_coprime_split(c, a, b, r, s)
    e = clean_idempotent(c, a, b)
    assert ring.divides(c.value, (e * e - e).value)


@pytest.mark.parametrize("n", range(2, 7))
def test_trivial_extension_lifts_and_idempotents_meet_their_definitions(n):
    """lift_unit and clean_idempotent on every triple of text:zmod:n,self,
    against sums of principal ideals of the whole ring."""
    ring = make_ring(f"text:zmod:{n},self")
    els = list(ring.elements())
    principal = {x: frozenset(ring.mul(x, t) for t in els) for x in els}

    @functools.cache
    def ideal_sum(i, j):
        return frozenset(ring.add(p, q) for p in i for q in j)

    def span(*xs):
        return functools.reduce(ideal_sum, (principal[x] for x in xs))

    for a, b, c in itertools.product(els, repeat=3):
        ea, eb, ec = (element(ring, v) for v in (a, b, c))
        if ring.one in span(a, b, c):
            y = lift_unit(ea, eb, ec).value
            assert ring.one in span(ring.add(a, ring.mul(b, y)), c)
        else:
            with pytest.raises(PreconditionError):
                lift_unit(ea, eb, ec)
        if c != ring.zero and ring.one in span(a, b):
            e = clean_idempotent(ec, ea, eb).value
            assert ring.sub(ring.mul(e, e), e) in principal[c]
            assert e in span(a, c) and ring.sub(ring.one, e) in span(b, c)


def test_clean_idempotent_over_a_huge_modulus_is_fast():
    ring = make_ring("zmod:2305843009213693953")  # 3 * 768614336404564651
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


def test_clean_idempotent_over_a_product_is_reduced_in_each_factor():
    """(6, -10, -11) over Z gives 4; over Z x Z each component does too."""
    assert clean_idempotent(zel(6), zel(-10), zel(-11)).value == 4
    ring = make_ring("product:z,z")
    assert clean_idempotent(*(element(ring, (v, v)) for v in (6, -10, -11))).value == (4, 4)


@pytest.mark.parametrize("spec", ["product:z,gfpoly:5", "product:zmod:12,gfpoly:3,z"])
def test_clean_idempotent_over_a_product_is_its_factors_idempotents(spec, rng):
    """Zero components of c included: Z/12 splits its zero on the
    representative 12, Z and GF(p)[x] refuse theirs, and the product
    answers or refuses as its factors do."""
    from conftest import random_value

    ring = make_ring(spec)
    checked = 0
    while checked < 60:
        c, a, b = (ring.normalize(random_value(ring, rng, 30)) for _ in range(3))
        if checked % 2:
            k = rng.randrange(len(c))
            c = c[:k] + (ring.factors[k].zero,) + c[k + 1:]
        if not ring.comaximal([a, b]):
            continue
        checked += 1
        got = _answer(lambda: clean_idempotent(*(element(ring, v) for v in (c, a, b))).value)
        want = [_answer(lambda: clean_idempotent(*(element(f, v) for v in vs)).value)
                for f, *vs in zip(ring.factors, c, a, b)]
        refusals = [w for w in want if w[0] == "raises"]
        assert got == (refusals[0] if refusals else ("ok", tuple(w[1] for w in want)))
    if spec.startswith("product:zmod:12"):
        c, a, b = (element(ring, v) for v in ((0, (0, 1), 1), (4, (0, 1), 1), (3, (1,), 1)))
        _assert_coprime_split(c, a, b, *coprime_factorization(c, a, b))


def _answer(call):
    """("ok", value) for a call that returns, ("raises", type, text) for one
    that raises a RingError."""
    try:
        return ("ok", call())
    except RingError as exc:
        return ("raises", type(exc), str(exc))


# each Ring method that a product answers factor by factor: the factors'
# answers woven into the product's, and a draw of its arguments (a list
# stands for a list of values)
_PRODUCT_METHODS = {
    "comaximal": (all, lambda draw, rng: ([draw() for _ in range(rng.randint(1, 4))],)),
    "unit_combination": (lambda parts: (tuple(u for u, _ in parts), tuple(v for _, v in parts)),
                         lambda draw, rng: (draw(), draw())),
    "coprime_split": (lambda parts: (tuple(r for r, _ in parts), tuple(s for _, s in parts)),
                      lambda draw, rng: (draw(), draw(), draw())),
    "row_egcd": (lambda parts: (tuple(g for g, _ in parts),
                                [tuple(xs[i] for _, xs in parts) for i in range(len(parts[0][1]))]),
                 lambda draw, rng: ([draw() for _ in range(rng.randint(1, 5))],)),
    "stable_shift": (tuple, lambda draw, rng: (draw(), draw())),
    "lift_unit": (tuple, lambda draw, rng: (draw(), draw(), draw())),
}


@pytest.mark.parametrize("method", sorted(_PRODUCT_METHODS))
@pytest.mark.parametrize("spec", ["product:zmod:12,gfpoly:3,z", "product:series:4,z"])
def test_a_product_answers_factor_by_factor(spec, method):
    """The product's answer, or its refusal, is the factors' answers woven
    together, or the first factor's refusal with that factor's text."""
    from conftest import random_value

    ring = make_ring(spec)
    weave, arguments = _PRODUCT_METHODS[method]
    rng = random.Random(f"{spec}/{method}")
    pool = [ring.zero, ring.one, ring.neg(ring.one)]
    pool += [ring.normalize(random_value(ring, rng, 12)) for _ in range(30)]
    kinds = set()
    for _ in range(60):
        args = arguments(lambda: rng.choice(pool), rng)
        got = _answer(lambda: getattr(ring, method)(*args))
        parts = []
        for k, f in enumerate(ring.factors):
            fargs = [[v[k] for v in x] if isinstance(x, list) else x[k] for x in args]
            part = _answer(lambda: getattr(f, method)(*fargs))
            if part[0] == "raises":
                expected = part
                break
            parts.append(part[1])
        else:
            expected = ("ok", weave(parts))
        assert got == expected, (args, got, expected)
        kinds.add(got[0])
    # a series factor has no coprime split; every other method answers some draws
    assert "ok" in kinds or (method == "coprime_split" and "series" in spec)


def _clean_by_definition(ring, c, a, b, e) -> bool:
    """e^2 = e in R/cR, e in aR + cR and 1 - e in bR + cR, for raw values,
    decided factor by factor with integer gcds and sympy's GF(p)[x]."""
    if isinstance(ring, ProductRing):
        return all(_clean_by_definition(f, *vs) for f, *vs in zip(ring.factors, c, a, b, e))
    if isinstance(ring, GFPolynomialRing):
        import sympy
        x = sympy.Symbol("x")
        c, a, b, e = (sympy.Poly(list(reversed(v)) or [0], x, modulus=ring.p)
                      for v in (c, a, b, e))
        return ((e * e - e).rem(c).is_zero and e.rem(sympy.gcd(a, c)).is_zero
                and (1 - e).rem(sympy.gcd(b, c)).is_zero)
    n = ring.n if isinstance(ring, ModularRing) else 0
    return ((e * e - e) % math.gcd(c, n) == 0 and e % math.gcd(a, c, n) == 0
            and (1 - e) % math.gcd(b, c, n) == 0)


@pytest.mark.parametrize("spec", ["gfpoly:3", "gfpoly:5", "product:z,gfpoly:5",
                                  "product:zmod:12,gfpoly:3,z"])
def test_clean_idempotent_meets_its_definition(spec, rng):
    from conftest import random_value

    ring = make_ring(spec)
    checked = 0
    while checked < 40:
        c, a, b = (element(ring, random_value(ring, rng, 30)) for _ in range(3))
        parts = c.value if isinstance(ring, ProductRing) else (c.value,)
        if not all(parts) or not is_coprime(a, b):
            continue
        checked += 1
        e = clean_idempotent(c, a, b)
        assert _clean_by_definition(ring, c.value, a.value, b.value, e.value)


def _exhaustively(ring, checker) -> bool:
    """The exhaustive checker's verdict: the oracle, not check_property."""
    return checker(exhaustive.structure_for(ring))[0]


def test_theorem_style_implication_on_finite_rings():
    # if a or 1 - a is stable for every a, the ring is locally stable;
    # both sides are exhaustively computed, never assumed
    for expr in ["zmod:6", "zmod:8", "zmod:9", "product:zmod:2,zmod:4",
                 "text:zmod:3,self"]:
        ring = make_ring(expr)
        s = exhaustive.structure_for(ring)

        def stable(v):
            return exhaustive.stable_range_1(s.quotient(s.locate(v)))[0]

        hyp = all(stable(a) or stable(ring.sub(ring.one, a)) for a in ring.elements())
        concl = _exhaustively(ring, exhaustive.locally_stable)
        assert not hyp or concl


def test_product_locally_stable_matches_components():
    for m1 in (2, 3, 4):
        for m2 in (2, 5):
            prod = make_ring(f"product:zmod:{m1},zmod:{m2}")
            v = _exhaustively(prod, exhaustive.locally_stable)
            c1 = _exhaustively(ModularRing(m1), exhaustive.locally_stable)
            c2 = _exhaustively(ModularRing(m2), exhaustive.locally_stable)
            assert v == (c1 and c2)


def test_trivial_extension_locally_stable_matches_base():
    for n in (2, 3, 4, 6):
        te = make_ring(f"text:zmod:{n},self")
        assert (_exhaustively(te, exhaustive.locally_stable)
                == _exhaustively(ModularRing(n), exhaustive.locally_stable))


def test_locally_stable_and_neat_range_agree_with_reduction(rng):
    # on rings where reduction is available, the two quotient conditions and
    # the reduction engine must tell one coherent story
    from edrkit import RingMatrix, diagonal_reduce, verify_reduction
    from conftest import random_value
    for expr in ["zmod:4", "zmod:6", "zmod:9", "zmod:12", "product:zmod:2,zmod:5"]:
        ring = make_ring(expr)
        assert check_property(ring, "locally-stable").holds
        assert check_property(ring, "neat-range-1").holds
        for _ in range(10):
            a = RingMatrix(ring, [[random_value(ring, rng) for _ in range(3)]
                                  for _ in range(2)])
            assert verify_reduction(a, diagonal_reduce(a))


def test_verdict_json_shape():
    v = check_property(Z, "stable-range-1")
    doc = v.to_json()
    assert doc == {"property": "stable-range-1", "holds": False,
                   "witness": [3, 5], "searchBound": 1000}
    v = check_property(ModularRing(6), "clean")
    assert v.to_json() == {"property": "clean", "holds": True}


@pytest.mark.parametrize("spec", ["product:zmod:2,text:zmod:2,self",
                                  "product:text:zmod:2,self,zmod:3"])
def test_finite_comaximality_on_products_matches_ideal_sums(spec):
    """is_coprime and the joint test of sr2_witness on products outside the
    Bezout rings, against sums of principal ideals of the whole ring."""
    from itertools import product

    ring = make_ring(spec)
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
        assert ring.comaximal([a, b, c]) == reaches_one(a, b, c)


def test_refusals_name_elements_as_the_cli_writes_them():
    z = lambda v: element(Z, v)  # noqa: E731
    cases = [
        (lambda: select_stable(z(0), z(0)),
         "select_stable: no shift of (0, 0) has a finite quotient"),
        (lambda: lift_unit(z(2), z(4), z(6)), "lift_unit requires aR + bR + cR = R, got 2, 4, 6"),
        (lambda: lift_unit(z(2), z(1), z(0)),
         "quotient by 0 admits no residue enumeration and y = 0 fails"),
        (lambda: sr2_witness(z(2), z(4), z(6)),
         "sr2_witness requires aR + bR + cR = R, got 2, 4, 6"),
        (lambda: coprime_factorization(z(5), z(2), z(4)),
         "coprime_factorization requires aR + bR = R, got 2, 4"),
        (lambda: sr2_witness(element(G5, (0, 1)), element(G5, (0, 1)), element(G5, (0, 0, 1))),
         "sr2_witness requires aR + bR + cR = R, got [0, 1], [0, 1], [0, 0, 1]"),
    ]
    for call, text in cases:
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == text
    with pytest.raises(InfiniteRingError, match=r"^stability of 0 needs a finite quotient; z "):
        is_stable(z(0))
