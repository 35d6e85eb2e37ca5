"""Properties of diagonal reduction over every ring kind that it accepts.

For random matrices up to 5x5 over Z, Z/n, GF(5)[x], ``text:z,q`` and a
product, ``diagonal_reduce`` returns a certificate that ``verify_reduction``
accepts.  Over Z and Z/n the diagonal is also checked against sympy's
invariant factors of the integer matrix, an oracle that shares no code with
the library: over Z/n the Smith form is the image of the integer one, and the
canonical associate of d modulo n is gcd(d, n).  Over ``text:z,q`` and
products with a ``text:z,q`` factor, the diagonal is checked through the
projection onto Z (``test_text_zq_diagonal_matches_the_projected_oracle``).
Products with a GF(p)[x] factor are checked component by component against
sympy's invariant factors over GF(p)[x], made monic, and the delta of
``reduce2x2`` over GF(5)[x] against the monic associate of sympy's
determinant.  Over ``text:z,q``, ``series:1`` and ``series:4`` the diagonal
is checked against that of an equivalent matrix U*A*V, U and V random
products of shears and unit scalings built with the test's own arithmetic
(``test_equivalent_matrices_share_the_diagonal``).  ``series:1`` and
``text:z,q`` are one class with two value formats, so the check that their
reductions agree covers the formats only.
"""

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import RingMatrix, diagonal_reduce, make_ring, reduce_2x2, verify_reduction
from edrkit.rings import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    TrivialExtensionRing,
)

SPECS = ["z", "zmod:360", "zmod:4096", f"zmod:{2 ** 61 - 1}", "gfpoly:5", "text:z,q",
         "product:zmod:4,z"]


def _values(ring: Ring):
    """Normal raw values, zero drawn often; residues often share factors with n."""
    if isinstance(ring, IntegerRing):
        raw = st.integers(-60, 60)
    elif isinstance(ring, ModularRing):
        n = ring.n
        raw = st.one_of(st.integers(0, n - 1),
                        st.builds(lambda d, k: d * k % n,
                                  st.sampled_from([2, 3, 4, 6, 8, 9, 64, 1024]),
                                  st.integers(1, 60)))
    elif isinstance(ring, GFPolynomialRing):
        raw = st.lists(st.integers(0, ring.p - 1), max_size=4).map(ring.normalize)
    elif isinstance(ring, ProductRing):
        raw = st.tuples(*(_values(f) for f in ring.factors))
    elif isinstance(ring, TrivialExtensionRing):
        raw = st.tuples(st.one_of(st.just(0), st.integers(-30, 30)),
                        st.fractions(min_value=-20, max_value=20, max_denominator=12))
    else:  # pragma: no cover
        raise AssertionError(f"no strategy for {ring!r}")
    return st.one_of(st.just(ring.zero), raw)


def _matrices(ring: Ring, most: int = 5):
    return st.integers(1, most).flatmap(lambda m: st.integers(1, most).flatmap(
        lambda n: st.lists(st.lists(_values(ring), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


def _integer_invariant_factors(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    return [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]


@pytest.mark.parametrize("spec", SPECS)
def test_diagonal_reduce_verifies_and_matches_the_integer_oracle(spec):
    ring = make_ring(spec)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(rows=_matrices(ring))
    def check(rows):
        a = RingMatrix(ring, rows)
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        diag = [e.value for e in res.D.diagonal()]
        if isinstance(ring, IntegerRing):
            assert diag == _integer_invariant_factors(rows)
        elif isinstance(ring, ModularRing):
            n = ring.n
            assert diag == [gcd(d, n) % n for d in _integer_invariant_factors(rows)]

    check()


def _sympy_polys(p):
    """GF(p)[x] in sympy, a map from coefficient tuples (low to high) into
    it, and one back out to the monic tuple of a nonzero value."""
    sympy = pytest.importorskip("sympy")
    dom = sympy.GF(p)[sympy.Symbol("x")]

    def monic(f):
        coeffs = [int(c) % p for c in reversed(f.to_dense())] if f else []
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        inv = pow(coeffs[-1], -1, p) if coeffs else 0
        return tuple(c * inv % p for c in coeffs)

    return dom, (lambda v: dom.ring.from_list(list(reversed(v)))), monic


def _polynomial_invariant_factors(rows, p):
    """sympy's invariant factors over GF(p)[x], each made monic."""
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors
    dom, to_sympy, monic = _sympy_polys(p)
    m = DomainMatrix([[to_sympy(v) for v in row] for row in rows],
                     (len(rows), len(rows[0])), dom)
    return [monic(f) for f in invariant_factors(m)]


def _oracle_mismatch(ring: Ring, rows, diag):
    """Why diag is not the Smith form of rows by an oracle sharing no code
    with the library, or None; over Z, Z/n, GF(p)[x], Z ⋉ Q and their
    products."""
    if isinstance(ring, ProductRing):
        for idx, factor in enumerate(ring.factors):
            why = _oracle_mismatch(factor, [[v[idx] for v in row] for row in rows],
                                   [d[idx] for d in diag])
            if why is not None:
                return f"factor {idx}: {why}"
        return None
    if isinstance(ring, TrivialExtensionRing):
        base = _integer_invariant_factors([[a for a, _ in row] for row in rows])
        if [a for a, _ in diag] != base:
            return f"base parts {[a for a, _ in diag]} != {base}"
        if any(a and e for a, e in diag):
            return "a nonzero base part with a nonzero module part"
        return None
    if isinstance(ring, GFPolynomialRing):
        factors = _polynomial_invariant_factors(rows, ring.p)
        return None if diag == factors else f"{diag} != {factors}"
    factors = _integer_invariant_factors(rows)
    if isinstance(ring, ModularRing):
        factors = [gcd(d, ring.n) % ring.n for d in factors]
    return None if diag == factors else f"{diag} != {factors}"


@pytest.mark.parametrize("spec, examples", [("text:z,q", 200), ("product:text:z,q,z", 40),
                                            ("product:zmod:4,text:z,q", 40)])
def test_text_zq_diagonal_matches_the_projected_oracle(spec, examples):
    """The projection (a, q) -> a is a ring map from Z ⋉ Q onto Z that sends
    units to units, so it sends P*A*Q = D to a Smith form of the base
    matrix: the base parts of D are the nonnegative integer invariant
    factors of the base matrix (sympy), and an entry with a nonzero base
    part, being its canonical associate, has module part 0.  A product is
    checked factor by factor.  The module parts of the diagonal entries
    whose base part is zero stay unchecked: no known invariant fixes them.
    """
    ring = make_ring(spec)

    @settings(derandomize=True, max_examples=examples, deadline=None, database=None)
    @given(rows=_matrices(ring, most=4))
    def check(rows):
        res = diagonal_reduce(RingMatrix(ring, rows))
        diag = [e.value for e in res.D.diagonal()]
        assert _oracle_mismatch(ring, rows, diag) is None

    check()


def test_the_projected_oracle_can_fail():
    ring = make_ring("product:zmod:4,text:z,q")
    rows = [[(2, (2, 0)), (0, (0, 0))], [(0, (0, 0)), (0, (6, 0))]]
    diag = [e.value for e in diagonal_reduce(RingMatrix(ring, rows)).D.diagonal()]
    assert _oracle_mismatch(ring, rows, diag) is None
    te = ring.factors[1]
    assert "base parts" in _oracle_mismatch(te, [[(2, 0)]], [(4, 0)])
    assert "module part" in _oracle_mismatch(te, [[(2, 0)]], [(2, 1)])
    assert "factor 0" in _oracle_mismatch(ring, rows, [(0, d[1]) for d in diag])


def _series_iso_mismatch(series_res, text_res):
    """The first of P, D and Q in which snf over ``series:1`` differs from
    snf over ``text:z,q`` under (c, q) -> (c, q), or None."""
    for name in ("P", "D", "Q"):
        if getattr(series_res, name).data != getattr(text_res, name).data:
            return name
    return None


def test_series_1_reduces_as_text_zq():
    """series:1, Z + Qx with x^2 = 0, is Z ⋉ Q, and the two share one class,
    whose flat values (c, q) are the pairs themselves.  So both reductions
    run the same code, and this checks the value map and the formats only:
    the text ring reads and writes pairs, the series ring objects, and the
    values in between are equal.  ``test_equivalent_matrices_share_the_
    diagonal`` is the check that shares no code with the library."""
    text, series = make_ring("text:z,q"), make_ring("series:1")

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(rows=_matrices(text, most=4))
    def check(rows):
        srows = [[series.value_from_json(series.value_to_json(v)) for v in row] for row in rows]
        assert srows == rows
        assert _series_iso_mismatch(diagonal_reduce(RingMatrix(series, srows)),
                                    diagonal_reduce(RingMatrix(text, rows))) is None

    check()


def test_the_series_isomorphism_oracle_can_fail():
    text, series = make_ring("text:z,q"), make_ring("series:1")
    rows = [[(2, Fraction(1, 2)), (0, Fraction(3))], [(4, 0), (6, Fraction(-1, 3))]]
    srows = [[series.normalize(v) for v in row] for row in rows]
    res, want = diagonal_reduce(RingMatrix(series, srows)), diagonal_reduce(RingMatrix(text, rows))
    assert _series_iso_mismatch(res, want) is None
    d = [list(row) for row in res.D.data]
    d[1][1] = series.neg(d[1][1])
    assert _series_iso_mismatch(replace(res, D=RingMatrix(series, d)), want) == "D"


def test_the_polynomial_oracle_can_fail():
    ring = make_ring("product:zmod:4,gfpoly:3")
    assert _oracle_mismatch(ring, [[(2, (2,))]], [(2, (1,))]) is None
    assert "factor 1" in _oracle_mismatch(ring, [[(2, (2,))]], [(2, (2,))])
    assert "factor 1" in _oracle_mismatch(ring, [[(2, (0, 2))]], [(2, (0, 2))])


@pytest.mark.parametrize("spec", ["product:gfpoly:5,z", "product:zmod:4,gfpoly:3"])
def test_gfpoly_products_match_the_factor_oracles(spec):
    """Component by component: sympy's monic invariant factors over GF(p)[x],
    the integer invariant factors over Z, and their images over Z/n."""
    ring = make_ring(spec)

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(rows=_matrices(ring, most=4))
    def check(rows):
        res = diagonal_reduce(RingMatrix(ring, rows))
        diag = [e.value for e in res.D.diagonal()]
        assert _oracle_mismatch(ring, rows, diag) is None

    check()


def test_gfpoly_reduce2x2_delta_is_the_monic_determinant():
    """reduce2x2 over GF(5)[x] ends at diag(1, delta), where delta generates
    det(A)R: it is the monic associate of sympy's determinant, or zero."""
    from sympy.polys.matrices import DomainMatrix
    ring = make_ring("gfpoly:5")
    dom, to_sympy, monic = _sympy_polys(5)
    nonzero = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(ring.normalize).filter(bool)

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(a=st.one_of(st.just(()), nonzero), b=_values(ring), c=nonzero)
    def check(a, b, c):
        if dom.gcd(dom.gcd(to_sympy(a), to_sympy(b)), to_sympy(c)) != dom.one:
            return  # not comaximal: reduce2x2 refuses it
        m = RingMatrix(ring, [[a, ()], [b, c]])
        res = reduce_2x2(m)
        assert verify_reduction(m, res)
        det = DomainMatrix([[to_sympy(a), dom.zero], [to_sympy(b), to_sympy(c)]],
                           (2, 2), dom).det()
        assert [e.value for e in res.D.diagonal()] == [(1,), monic(det)]

    check()


# -- equivalence: D(U*A*V) = D(A) for unimodular U and V ------------------------

def _smul(x, y):
    """The product of two flat series tuples (Z ⋉ Q pairs at order 1) as the
    truncated double sum over Fractions, written here, not taken from edrkit."""
    k1 = len(x)
    return tuple(sum((Fraction(x[i]) * y[t - i] for i in range(t + 1)), Fraction(0))
                 for t in range(k1))


def _sadd(x, y):
    return tuple(Fraction(a) + b for a, b in zip(x, y))


def _equivalent(rng, rows, steps=6):
    """U*rows*V for U and V products of random shears (a row plus c times
    another, c any value) and unit scalings (a row times +-1 + c*x), as
    elementary operations on plain Fraction tuples."""
    k1 = len(rows[0][0])

    def value(unit=False):
        c = rng.choice([1, -1]) if unit else rng.randint(-4, 4)
        return (c, *[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k1 - 1)])

    rows = [[tuple(map(Fraction, v)) for v in row] for row in rows]
    for _ in range(steps):
        m, n = len(rows), len(rows[0])
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            c = value()
            rows[i] = [_sadd(a, _smul(c, b)) for a, b in zip(rows[i], rows[j])]
        u = value(unit=True)
        rows[i] = [_smul(u, a) for a in rows[i]]
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = value()
            for row in rows:
                row[i] = _sadd(row[i], _smul(row[j], c))
        u = value(unit=True)
        for row in rows:
            row[i] = _smul(row[i], u)
    return [[(int(v[0]), *v[1:]) for v in row] for row in rows]


def _equivalence_mismatch(ring, rows, diag, rng):
    """Why diag is not the diagonal of a random matrix equivalent to rows, or None."""
    other = [e.value for e in
             diagonal_reduce(RingMatrix(ring, _equivalent(rng, rows))).D.diagonal()]
    return None if other == diag else f"{diag} != {other}"


@pytest.mark.parametrize("spec", ["text:z,q", "series:1", "series:4"])
def test_equivalent_matrices_share_the_diagonal(spec):
    """U*A*V has the diagonal of A for U and V products of shears and unit
    scalings, built with the test's own series arithmetic: the canonical
    diagonal is an invariant of equivalence, and the check shares no code
    with the reduction.  Over Z ⋉ Q it also checks the module parts of the
    entries with a zero base part, which the projection oracle leaves open."""
    import random
    ring = make_ring(spec)
    rng = random.Random(f"equivalence/{spec}")
    k1 = ring.order + 1

    def value():
        c = rng.choice([0, 0, rng.randint(-6, 6)])
        return (c, *[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) * rng.randint(0, 1)
                     for _ in range(k1 - 1)])

    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[value() for _ in range(n)] for _ in range(m)]
        diag = [e.value for e in diagonal_reduce(RingMatrix(ring, rows)).D.diagonal()]
        assert _equivalence_mismatch(ring, rows, diag, rng) is None, rows


def test_the_equivalence_oracle_can_fail():
    import random
    ring = make_ring("series:4")
    rows = [[(2, Fraction(1, 2), 0, 0, 0), (0, 1, 0, 0, 0)], [(4, 0, 0, 1, 0), (0, 0, 3, 0, 0)]]
    diag = [e.value for e in diagonal_reduce(RingMatrix(ring, rows)).D.diagonal()]
    assert _equivalence_mismatch(ring, rows, diag, random.Random(1)) is None
    tampered = [diag[0], ring.add(diag[1], diag[1])]
    assert "!=" in _equivalence_mismatch(ring, rows, tampered, random.Random(1))
