"""Ring arithmetic, units, Bezout certificates, division, enumeration."""

import math
from fractions import Fraction

import pytest

from edrkit import (
    InfiniteRingError,
    IntegerRing,
    GFPolynomialRing,
    ModularRing,
    NonDivisibleError,
    NotAssociatesError,
    NotAUnitError,
    ProductRing,
    RingMismatchError,
    TrivialExtensionRing,
    arithmetic,
    associate_unit,
    bezout,
    canonical_associate,
    cardinality,
    divide_exact,
    divides,
    element,
    enumerate_elements,
    inverse,
    is_unit,
    make_ring,
)
from conftest import egcd_oracle, random_element

Z = IntegerRing()
M6 = ModularRing(6)
M12 = ModularRing(12)
G5 = GFPolynomialRing(5)

ALL_RINGS = [
    Z,
    M6,
    M12,
    G5,
    ProductRing([ModularRing(2), ModularRing(3)]),
    TrivialExtensionRing(Z, "self"),
    TrivialExtensionRing(Z, "rationals"),
    TrivialExtensionRing(ModularRing(4), "self"),
    make_ring("series:6").ring,
]


def test_arithmetic_examples():
    assert arithmetic(element(Z, 12), element(Z, 18), "add").value == 30
    te = TrivialExtensionRing(Z, "self")
    prod = arithmetic(element(te, (2, 3)), element(te, (4, 5)), "mul")
    assert prod.value == (8, 22)
    assert arithmetic(element(M6, 4), element(M6, 5), "mul").value == 2


def test_arithmetic_descriptor_mismatch():
    with pytest.raises(RingMismatchError):
        arithmetic(element(Z, 1), element(M6, 1), "add")
    with pytest.raises(RingMismatchError):
        element(M6, 1) + element(ModularRing(7), 1)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.expression())
def test_ring_axioms_on_samples(ring, rng):
    for _ in range(40):
        a = random_element(ring, rng, span=20)
        b = random_element(ring, rng, span=20)
        c = random_element(ring, rng, span=20)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == element(ring, ring.zero)
        assert element(ring, ring.one) * a == a


def test_units_and_inverses():
    assert is_unit(element(M6, 5))
    assert inverse(element(M6, 5)).value == 5
    assert not is_unit(element(Z, 2))
    te = TrivialExtensionRing(Z, "rationals")
    u = element(te, (1, Fraction(7, 2)))
    assert is_unit(u)
    assert (u * inverse(u)).value == te.one
    # rule check: (1, q)(1, -q) = (1, 0)
    assert (u * element(te, (1, Fraction(-7, 2)))).value == (1, Fraction(0))
    with pytest.raises(NotAUnitError):
        inverse(element(Z, 2))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.expression())
def test_unit_inverse_roundtrip_on_samples(ring, rng):
    seen = 0
    for _ in range(200):
        a = random_element(ring, rng, span=9)
        if is_unit(a):
            seen += 1
            assert (a * inverse(a)).is_one()
    assert seen > 0


def test_bezout_integers_against_oracle():
    cert = bezout(element(Z, 12), element(Z, 18))
    g, x, y = egcd_oracle(12, 18)
    assert (cert.d.value, cert.x.value, cert.y.value) == (g, x, y) == (6, -1, 1)
    assert (cert.a0.value, cert.b0.value) == (2, 3)
    assert cert.verify()


def test_bezout_degenerate_pair():
    cert = bezout(element(Z, 0), element(Z, 0))
    assert cert.degenerate
    assert (cert.d.value, cert.x.value, cert.y.value) == (0, 1, 0)
    assert (cert.a0.value, cert.b0.value) == (0, 0)
    assert cert.verify()


def test_bezout_with_zero():
    cert = bezout(element(Z, 5), element(Z, 0))
    assert not cert.degenerate
    assert (cert.d.value, cert.x.value, cert.y.value, cert.a0.value, cert.b0.value) \
        == (5, 1, 0, 1, 0)
    assert cert.verify()


BEZOUT_RINGS = [Z, M6, M12, ModularRing(16), ModularRing(30), G5,
                ProductRing([ModularRing(4), Z]),
                TrivialExtensionRing(Z, "rationals")]


@pytest.mark.parametrize("ring", BEZOUT_RINGS, ids=lambda r: r.expression())
def test_bezout_certificates_on_samples(ring, rng):
    for _ in range(150):
        a = random_element(ring, rng, span=30)
        b = random_element(ring, rng, span=30)
        cert = bezout(a, b)
        assert cert.verify(), (a, b)
        # d is the canonical associate of itself
        assert canonical_associate(cert.d) == cert.d


def test_series_bezout_where_supported(rng):
    ring = make_ring("series:6").ring
    seen = 0
    while seen < 80:
        a = random_element(ring, rng, span=12)
        b = random_element(ring, rng, span=12)
        if a.value[0] == 0 and b.value[0] == 0:
            continue
        seen += 1
        cert = bezout(a, b)
        assert cert.verify(), (a, b)
        assert cert.d.value == (math.gcd(a.value[0], b.value[0]), ())


def test_divide_exact_examples():
    assert divide_exact(element(Z, 22), element(Z, 11)).value == 2
    # all solutions of 4*q = 8 mod 12 are {2, 5, 8, 11}; the smallest is chosen
    sols = [q for q in range(12) if (4 * q) % 12 == 8]
    assert sols == [2, 5, 8, 11]
    assert divide_exact(element(M12, 8), element(M12, 4)).value == 2
    # over GF(5): (x + 2)(x + 3) = x^2 + 1
    q = divide_exact(element(G5, (1, 0, 1)), element(G5, (2, 1)))
    assert q.value == (3, 1)
    with pytest.raises(NonDivisibleError):
        divide_exact(element(Z, 22), element(Z, 7))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.expression())
def test_divide_exact_roundtrip(ring, rng):
    for _ in range(80):
        d = random_element(ring, rng, span=15)
        q = random_element(ring, rng, span=15)
        a = d * q
        got = divide_exact(a, d)
        assert d * got == a
        assert divides(d, a)


def test_associate_unit_examples():
    assert associate_unit(element(Z, -7), element(Z, 7)).value == -1
    # units u of Z/12 with 4u = 8 are {5, 11}; the smallest is chosen
    assert associate_unit(element(M12, 8), element(M12, 4)).value == 5
    assert associate_unit(element(G5, (2, 2)), element(G5, (1, 1))).value == (2,)
    with pytest.raises(NotAssociatesError):
        associate_unit(element(Z, 6), element(Z, 3))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.expression())
def test_associate_unit_roundtrip(ring, rng):
    for _ in range(60):
        d = random_element(ring, rng, span=12)
        a = canonical_associate(d)
        u = associate_unit(d, a) if not (d.is_zero() and a.is_zero()) else None
        if u is None:
            continue
        assert is_unit(u)
        assert a * u == d


def _scan_associate_unit(n, a, d):
    """Reference: the least unit u of Z/n with d*u = a, by scanning residues."""
    for u in range(1, n):
        if math.gcd(u, n) == 1 and d * u % n == a:
            return u
    return None


def test_modular_associate_unit_matches_residue_scan():
    for n in range(2, 80):
        ring = ModularRing(n)
        for a in range(n):
            for d in range(n):
                u = _scan_associate_unit(n, a, d)
                if u is None:
                    with pytest.raises(NotAssociatesError):
                        ring.associate_unit(a, d)
                else:
                    assert ring.associate_unit(a, d) == u, (n, a, d)


def test_modular_associate_unit_on_a_huge_prime_modulus():
    m = 2305843009213693951  # 2**61 - 1, far beyond any residue scan
    ring = ModularRing(m)
    assert ring.associate_unit(m - 2, 1) == m - 2
    assert ring.associate_unit(1, m - 2) * (m - 2) % m == 1


def test_enumerate_elements():
    assert [e.value for e in enumerate_elements(ModularRing(4))] == [0, 1, 2, 3]
    prod = ProductRing([ModularRing(2), ModularRing(3)])
    els = list(enumerate_elements(prod))
    assert len(els) == len(set(els)) == 6 == cardinality(prod)
    te = TrivialExtensionRing(ModularRing(2), "self")
    els = list(enumerate_elements(te))
    assert len(els) == len(set(els)) == 4 == cardinality(te)
    with pytest.raises(InfiniteRingError):
        list(enumerate_elements(Z))


def test_enumerate_counts_match_formula():
    for expr, count in [("zmod:9", 9), ("product:zmod:2,zmod:2,zmod:5", 20),
                        ("text:zmod:3,self", 9)]:
        ring = make_ring(expr).ring
        els = list(enumerate_elements(ring))
        assert len(els) == len(set(els)) == count


def test_canonical_associates():
    assert canonical_associate(element(Z, -9)).value == 9
    assert canonical_associate(element(M12, 8)).value == 4
    assert canonical_associate(element(G5, (2, 4))).value == (3, 1)
    te = TrivialExtensionRing(Z, "rationals")
    assert canonical_associate(element(te, (-3, Fraction(1, 2)))).value == (3, Fraction(0))
    assert canonical_associate(element(te, (0, Fraction(-2, 3)))).value == (0, Fraction(2, 3))


def test_modular_divisor_canonical_divides_modulus():
    for n in (6, 12, 16, 30):
        ring = ModularRing(n)
        for a in range(n):
            c = canonical_associate(element(ring, a)).value
            if c:
                assert n % c == 0
