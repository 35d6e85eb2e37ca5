"""Ring arithmetic, units, Bezout certificates, division, enumeration."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import (
    InfiniteRingError,
    IntegerRing,
    GFPolynomialRing,
    ModularRing,
    NonDivisibleError,
    NotAssociatesError,
    NotAUnitError,
    ProductRing,
    RingError,
    RingMismatchError,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
    UnsupportedOperationError,
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
from edrkit.cli import EXIT_PARSE, CommandRequest, dispatch
from edrkit.rings import _MR_LIMIT, _is_prime
from conftest import egcd_oracle, random_element, random_value

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
    SelfExtensionRing(Z),
    TrivialExtensionRing(),
    SelfExtensionRing(ModularRing(4)),
    make_ring("series:6"),
]


def test_arithmetic_examples():
    assert arithmetic(element(Z, 12), element(Z, 18), "add").value == 30
    te = SelfExtensionRing(Z)
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
    te = TrivialExtensionRing()
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
    assert (cert.a0.value, cert.b0.value) == (1, 0)
    assert cert.verify()


def test_bezout_with_zero():
    cert = bezout(element(Z, 5), element(Z, 0))
    assert not cert.degenerate
    assert (cert.d.value, cert.x.value, cert.y.value, cert.a0.value, cert.b0.value) \
        == (5, 1, 0, 1, 0)
    assert cert.verify()


BEZOUT_RINGS = [Z, M6, M12, ModularRing(16), ModularRing(30), G5,
                ProductRing([ModularRing(4), Z]),
                TrivialExtensionRing()]


@pytest.mark.parametrize("ring", BEZOUT_RINGS, ids=lambda r: r.expression())
def test_bezout_certificates_on_samples(ring, rng):
    for _ in range(150):
        a = random_element(ring, rng, span=30)
        b = random_element(ring, rng, span=30)
        cert = bezout(a, b)
        assert cert.verify(), (a, b)
        # d is the canonical associate of itself
        assert canonical_associate(cert.d) == cert.d


def _lowest_term(v):
    """(i, q) for the lowest nonzero term q*x^i of a series value; None for zero."""
    return next(((i, q) for i, q in enumerate(v) if q), None)


def test_series_bezout_where_supported(rng):
    """Every pair has a certificate, both constant terms zero included.  d is
    g*x^i: i is the lower order of the two lowest terms, and Zg is the group
    that the operands' coefficients of x^i span."""
    ring = make_ring("series:6")
    constants_zero = 0
    for _ in range(240):
        a, b = (element(ring, (rng.choice([0, rng.randint(-12, 12)]), *v[1:]))
                for v in (random_value(ring, rng, 12) for _ in range(2)))
        cert = bezout(a, b)
        assert cert.verify(), (a, b)
        terms = [t for t in map(_lowest_term, (a.value, b.value)) if t]
        if not terms:
            assert cert.degenerate
            continue
        i = min(j for j, _ in terms)
        qs = [q for j, q in terms if j == i]
        den = math.lcm(*(q.denominator for q in qs))
        g = Fraction(math.gcd(*(q.numerator * (den // q.denominator) for q in qs)), den)
        want = [0] * (ring.order + 1)
        want[i] = int(g) if i == 0 else g
        assert cert.d.value == tuple(want)
        constants_zero += not (a.value[0] or b.value[0])
    assert constants_zero > 40


_BEZOUT_SPECS = ["z", "zmod:360", "gfpoly:5", "text:z,q", "series:1", "series:2", "series:4",
                 "series:8", "product:zmod:4,z"]


def _bezout_values(spec):
    """Normal raw values of the ring spec names, zero drawn often; over a
    series ring the constant term is zero half the time."""
    ring = make_ring(spec)
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if spec == "z":
        raw = st.integers(-10**6, 10**6)
    elif spec.startswith("zmod:"):
        raw = st.integers(0, ring.n - 1)
    elif spec.startswith("gfpoly:"):
        raw = st.lists(st.integers(0, ring.p - 1), max_size=5).map(ring.normalize)
    elif spec.startswith("product:"):
        raw = st.tuples(*(_bezout_values(f.expression()) for f in ring.factors))
    elif spec == "text:z,q":
        raw = st.tuples(st.integers(-12, 12), small)
    else:
        raw = st.tuples(st.one_of(st.just(0), st.integers(-12, 12)),
                        st.lists(small, max_size=ring.order)).map(
            lambda t: ring.normalize((t[0], *t[1], *[0] * (ring.order - len(t[1])))))
    return st.one_of(st.just(ring.zero), raw)


@pytest.mark.parametrize("spec", _BEZOUT_SPECS)
def test_refined_bezout_identity(spec):
    """a = d*a0, b = d*b0, a*x + b*y = d and a0*x + b0*y = 1 for the
    certificate (d, x, y, a0, b0) of every pair, zero operands included,
    and over a series ring pairs whose constant terms are both zero."""
    ring = make_ring(spec)
    values = _bezout_values(spec)
    kinds = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(a=values, b=values)
    def check(a, b):
        add, mul = ring.add, ring.mul
        d, x, y, a0, b0 = ring.bezout_raw(a, b)
        assert mul(d, a0) == a and mul(d, b0) == b
        assert add(mul(a, x), mul(b, y)) == d
        assert add(mul(a0, x), mul(b0, y)) == ring.one
        if ring.zero in (a, b):
            kinds.add("zero operand")
        elif spec.startswith("series") and not (a[0] or b[0]):
            kinds.add("constants zero")

    check()
    assert kinds == {"zero operand"} | ({"constants zero"} if spec.startswith("series") else set())


def _series_mul_by_double_sum(ring, x, y):
    """Coefficient k of x*y summed as x_0 y_k + ... + x_k y_0 for every k up
    to the order."""
    coeffs = [sum((Fraction(x[i]) * Fraction(y[k - i]) for i in range(k + 1)), Fraction(0))
              for k in range(1, ring.order + 1)]
    return ring.normalize((x[0] * y[0], *coeffs))


@pytest.mark.parametrize("order", range(1, 9))
def test_series_mul_matches_the_double_sum(order, rng):
    ring = make_ring(f"series:{order}")
    def flat(c, *qs):
        return ring.normalize((c, *qs, *[0] * (order - len(qs))))

    values = [ring.zero, ring.one, flat(-1), flat(6), flat(0, 1),
              flat(0, *[0] * (order - 1), Fraction(-2, 3)),
              flat(2, *[Fraction(k, 2) for k in range(1, order + 1)])]
    values += [random_element(ring, rng, span=12).value for _ in range(30)]
    for x in values:
        for y in values:
            want = _series_mul_by_double_sum(ring, x, y)
            got = ring.mul(x, y)
            assert got == want and repr(got) == repr(want), (x, y)

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
    te = SelfExtensionRing(ModularRing(2))
    els = list(enumerate_elements(te))
    assert len(els) == len(set(els)) == 4 == cardinality(te)
    with pytest.raises(InfiniteRingError):
        list(enumerate_elements(Z))


def test_enumerate_counts_match_formula():
    for expr, count in [("zmod:9", 9), ("product:zmod:2,zmod:2,zmod:5", 20),
                        ("text:zmod:3,self", 9)]:
        ring = make_ring(expr)
        els = list(enumerate_elements(ring))
        assert len(els) == len(set(els)) == count


# -- A ⋉ A against the scans it replaced -----------------------------------------

_MERSENNE = 2305843009213693951  # 2**61 - 1


def _self_ext(base):
    return SelfExtensionRing(base)


# the product bases are built with constructors, because ``product`` parses
# greedily and would take ``self`` for a factor
SELF_EXTENSIONS = [make_ring(f"text:zmod:{n},self") for n in range(2, 9)] + [
    _self_ext(ProductRing([ModularRing(2), ModularRing(3)])),
    _self_ext(ProductRing([ModularRing(4), ModularRing(2)])),
    make_ring("text:text:zmod:2,self,self"),
]


@pytest.mark.parametrize("ring", SELF_EXTENSIONS, ids=lambda r: r.expression())
def test_finite_enumeration_ascends(ring):
    els = list(ring.elements())
    assert els == sorted(ring.elements())
    assert len(els) == len(set(els)) == ring.cardinality()


@pytest.mark.parametrize("spec", [f"text:zmod:{_MERSENNE},self",
                                  f"text:text:zmod:{_MERSENNE},self,self"])
def test_enumeration_over_a_huge_base_is_lazy(spec):
    """Division by zero scans the base's elements and stops at the first, so
    it reads only that prefix, on a nested base too."""
    ring = make_ring(spec)
    zero = json.dumps(ring.value_to_json(ring.zero))
    code, out = dispatch(CommandRequest(command="complete", ring=spec,
                                        payload=f'{{"row":[{zero},{zero}],"d":{zero}}}'))
    assert code == 0 and json.loads(out)["verified"] is True


def _assert_matches_scan(ring, els, window):
    """divides, divide_exact, associate_unit and canonical_associate on every
    pair of els against a scan of the quotient window in its order, which
    holds every quotient that exists."""
    units = [u for u in window if ring.is_unit(u)]
    for d in els:
        quotients = {}
        for q in window:
            quotients.setdefault(ring.mul(d, q), []).append(q)
        for a in els:
            qs = quotients.get(a, [])
            assert ring.divides(d, a) == bool(qs)
            unit_qs = [q for q in qs if ring.is_unit(q)]
            if qs:
                assert ring.divide_exact(a, d) == qs[0]
            else:
                with pytest.raises(NonDivisibleError):
                    ring.divide_exact(a, d)
            if unit_qs:
                assert ring.associate_unit(a, d) == unit_qs[0]
            else:
                with pytest.raises(NotAssociatesError):
                    ring.associate_unit(a, d)
        if ring.finite:
            assert ring.canonical_associate(d) == min(ring.mul(d, u) for u in units)


@pytest.mark.parametrize("ring", SELF_EXTENSIONS, ids=lambda r: r.expression())
def test_self_extension_division_matches_the_scan(ring):
    els = sorted(ring.elements())
    _assert_matches_scan(ring, els, els)


def _scanned_quotients(ring, a, d):
    """The q0 scan that the Z/n closed form replaced: q0 up the base's
    elements, each with the base's least quotient q1."""
    base = ring.base
    (a0, a1), (d0, d1) = a, d
    for q0 in base.elements():
        if base.mul(d0, q0) == a0:
            r = base.sub(a1, base.mul(d1, q0))
            if base.divides(d0, r):
                yield (q0, base.divide_exact(r, d0))


@pytest.mark.parametrize("n", range(2, 13))
def test_modular_self_quotients_match_the_scan(n):
    ring = make_ring(f"text:zmod:{n},self")
    els = list(ring.elements())
    for a in els:
        for d in els:
            assert list(ring._self_quotients(a, d)) == list(_scanned_quotients(ring, a, d))


def _scanned_canonical_associate(ring, a):
    """The unit scan that the Z/n closed form replaced: the least a0*u0 over
    the base's units, then the least a1*u0 + a0*t over the u0 reaching it."""
    if a == ring.zero:
        return a
    base, (a0, a1) = ring.base, a
    units = [u0 for u0 in base.elements() if base.is_unit(u0)]
    b0 = min(base.mul(a0, u0) for u0 in units)
    ideal = {base.mul(a0, t) for t in base.elements()}
    return (b0, min(base.add(base.mul(a1, u0), i)
                    for u0 in units if base.mul(a0, u0) == b0 for i in ideal))


@pytest.mark.parametrize("n", range(2, 25))
def test_modular_self_canonical_associates_match_the_scan(n):
    ring = make_ring(f"text:zmod:{n},self")
    for a in ring.elements():
        assert ring.canonical_associate(a) == _scanned_canonical_associate(ring, a), a


def test_canonical_associates_over_a_mersenne_base_read_no_elements(monkeypatch):
    base = ModularRing(_MERSENNE)
    monkeypatch.setattr(base, "elements", None)  # a scan would call it
    ring = SelfExtensionRing(base)
    assert ring.canonical_associate((0, 1)) == (0, 1)
    assert ring.canonical_associate((0, _MERSENNE - 6)) == (0, 1)
    assert ring.canonical_associate((5, 7)) == ring.one


def test_division_over_a_mersenne_base_reads_no_elements(monkeypatch):
    base = ModularRing(_MERSENNE)
    monkeypatch.setattr(base, "elements", None)  # a scan would call it
    ring = SelfExtensionRing(base)
    assert not ring.divides((0, 1), (1, 0))
    assert ring.divide_exact((0, 5), (0, 1)) == (5, 0)
    assert ring.associate_unit((0, 5), (0, 1)) == (5, 0)
    # every q divides zero by zero: the q0 run up the base, lazily
    assert list(itertools.islice(ring._self_quotients(ring.zero, ring.zero), 3)) == [
        (0, 0), (1, 0), (2, 0)]


def _small_first(base):
    """Z as 0, 1, -1, 2, -2, ...; GF(p)[x] as zero, then by degree, leading
    coefficient, and the lower coefficients low-to-high."""
    if isinstance(base, IntegerRing):
        yield 0
        for k in itertools.count(1):
            yield k
            yield -k
        return
    yield ()
    for deg in itertools.count(0):
        for lead in range(1, base.p):
            for rest in itertools.product(range(base.p), repeat=deg):
                yield rest + (lead,)


def _window(base, n0, n1):
    """Pairs of the base's first n0 and first n1 elements, small first."""
    firsts = list(itertools.islice(_small_first(base), max(n0, n1)))
    return [(x, y) for x in firsts[:n0] for y in firsts[:n1]]


def test_self_extension_division_over_infinite_bases_matches_a_window():
    """On a domain base q0 = a0/d0, or a1/d1 when d0 = a0 = 0, and any q1
    serves when d0 = 0, so the window holds every quotient; the window
    puts zero first, where the library takes it."""
    ring = make_ring("text:z,self")
    els = _window(Z, 5, 5)  # entries in [-2, 2]
    window = _window(Z, 5, 13)  # q1 in [-6, 6]
    _assert_matches_scan(ring, els, window)
    for a in els:  # (|m|, e mod |m|): one value on each class of associates
        canon = ring.canonical_associate(a)
        assert ring.associate_unit(canon, a)
        assert all(ring.canonical_associate(ring.mul(a, u)) == canon
                   for u in window if ring.is_unit(u))
    ring = make_ring("text:gfpoly:3,self")
    gf3 = GFPolynomialRing(3)
    # base parts of degree <= 1 and constant module parts; quotients of degree <= 1
    _assert_matches_scan(ring, _window(gf3, 9, 3), _window(gf3, 9, 9))
    with pytest.raises(UnsupportedOperationError):
        ring.canonical_associate(((1, 1), ()))


def test_canonical_associates():
    assert canonical_associate(element(Z, -9)).value == 9
    assert canonical_associate(element(M12, 8)).value == 4
    assert canonical_associate(element(G5, (2, 4))).value == (3, 1)
    te = TrivialExtensionRing()
    assert canonical_associate(element(te, (-3, Fraction(1, 2)))).value == (3, Fraction(0))
    assert canonical_associate(element(te, (0, Fraction(-2, 3)))).value == (0, Fraction(2, 3))


def test_modular_divisor_canonical_divides_modulus():
    for n in (6, 12, 16, 30):
        ring = ModularRing(n)
        for a in range(n):
            c = canonical_associate(element(ring, a)).value
            if c:
                assert n % c == 0


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_10_5():
    sieve = [_trial_division_is_prime(n) for n in range(10 ** 5)]
    assert [_is_prime(n) for n in range(10 ** 5)] == sieve


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to every prime base up to 7, 31 and 37 in turn
    strong = [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in carmichael + strong:
        assert not _is_prime(n), n


def test_is_prime_agrees_with_sympy_up_to_the_limit():
    sympy = pytest.importorskip("sympy")
    import random
    rng = random.Random(7)
    cases = [rng.randrange(10 ** 5, _MR_LIMIT) | 1 for _ in range(300)]
    cases += [sympy.nextprime(rng.randrange(10 ** k)) for k in range(6, 25) for _ in range(3)]
    cases = [n for n in cases if n < _MR_LIMIT]
    assert [_is_prime(n) for n in cases] == [bool(sympy.isprime(n)) for n in cases]


def test_is_prime_refuses_at_and_past_the_limit():
    # the least strong pseudoprime to all thirteen bases, and a prime past it
    for n in (_MR_LIMIT, 2 ** 89 - 1):
        with pytest.raises(RingError):
            _is_prime(n)
    assert not _is_prime(2 * _MR_LIMIT)  # even: composite whatever its size


def test_gfpoly_over_a_huge_prime_is_polylog():
    t0 = time.perf_counter()
    assert make_ring("gfpoly:2305843009213693951").p == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(RingError):
        make_ring("gfpoly:2305843009213693953")  # 3 * 768614336404564651
    code, out = dispatch(CommandRequest(command="snf", ring=f"gfpoly:{2 ** 89 - 1}",
                                        payload="[1]"))
    assert code == EXIT_PARSE and out.startswith("error: primality is decided only below")


# 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657
_NEAR_2_63 = 2 ** 63 - 1


def _quotient_samples(ring):
    if isinstance(ring, IntegerRing):
        return range(-40, 41)
    if isinstance(ring, GFPolynomialRing):
        return [(), (1,), (2,), (1, 1), (0, 3, 1), (3, 0, 2), (1, 4, 0, 0, 1)]
    if isinstance(ring, ModularRing):
        # units, multiples of small divisors of n and random residues
        n, rng = ring.n, random.Random(ring.n)
        divisors = [d for d in (2, 3, 4, 5, 6, 8, 9, 12, 49, 64, 73, 127, 337, 1024, 649159)
                    if n % d == 0]
        return ([0, 1, n - 1] + [d * k % n for d in divisors for k in (1, 5, 7, 11)]
                + [rng.randrange(n) for _ in range(12)])
    # exact base quotients (6 by 2 or -3), inexact ones (7 by 2 or 4) and
    # (0, s) divisors, against base parts zero and nonzero
    q = Fraction
    return [(0, q(0)), (1, q(0)), (-1, q(2, 7)), (2, q(1, 3)), (-3, q(0)), (4, q(-5, 6)),
            (6, q(1, 2)), (-9, q(0)), (7, q(-2, 3)), (12, q(5, 6)), (0, q(5, 4)),
            (0, q(-7, 3)), (0, q(1, 6)), (0, q(9))]


def test_nearest_quotients_leave_small_remainders():
    for spec in ("z", "gfpoly:5", "zmod:360", "zmod:4096", "zmod:2305843009213693951",
                 f"zmod:{_NEAR_2_63}", "text:z,q"):
        ring = make_ring(spec)
        samples = _quotient_samples(ring)
        divisors = [b for b in samples if b != ring.zero]
        least = ring.size(ring.one)
        assert all(least <= ring.size(b) for b in divisors), spec
        for a in samples:
            for b in divisors:
                q = ring.nearest_quotient(a, b)
                assert ring.normalize(q) == q, (spec, a, b)
                r = ring.sub(a, ring.mul(b, q))
                assert r == ring.zero or ring.size(r) < ring.size(b), (spec, a, b, q)
                if isinstance(ring, IntegerRing):
                    assert 2 * abs(r) <= abs(b), (a, b)
                if ring.divides(b, a):
                    assert r == ring.zero, (spec, a, b, q)


def test_series_order_is_an_int_and_not_a_bool():
    # True is an int, but series:True names no ring that make_ring can parse
    for order in (True, False, 0, -1, 1.0, "1", None):
        with pytest.raises(RingError, match="truncation order must be >= 1"):
            TruncatedSeriesRing(order)
    assert TruncatedSeriesRing(1) == make_ring("series:1")
    assert TruncatedSeriesRing(1).expression() == "series:1"
