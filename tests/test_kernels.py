"""Row kernels: every ring's overrides against independent references.

The overrides, each of which must return exactly the normal values of the
generic ``Ring`` add/mul loops:

* ``IntegerRing``: ``matmul``, ``dot``, ``fma``, ``axpy`` and ``col_axpy``
  with builtin operators;
* ``ModularRing``: ``matmul`` and ``dot``, one reduction per entry or dot
  product, and ``fma`` (y + q*x), one reduction per entry;
* ``GFPolynomialRing``: ``dot`` and ``matmul`` by Kronecker substitution,
  one reduction mod p per coefficient of each sum (``matmul`` packs every
  entry once, with one slot width per product), and ``fma`` through
  ``_pfma``, one reduction per coefficient;
* ``ProductRing``: ``dot`` and ``matmul``, each factor's own kernel on its
  components, woven back into tuples;
* ``TrivialExtensionRing`` with the rational module: ``add``, ``mul``,
  ``dot``, ``fma`` and ``matmul`` on the numerators and denominators of the
  module parts, one ``Fraction`` per result;
* ``gcd`` on Z (``math.gcd``), Z/n (``gcd(a, b, n) % n``), GF(p)[x] (monic
  Euclid) and products (componentwise), each exactly ``bezout_raw(a, b)[0]``
  and zero on the zero pair; the other rings use the default, which is that
  by definition.

The generic ``axpy`` and ``col_axpy`` call ``fma`` once per nonzero entry,
so the shears of every ring but Z run through the overrides above.

The generic ``dot`` is checked against a plain left-to-right sum that starts
from zero, and every ``matmul`` against a schoolbook triple loop of ``add``
and ``mul``, not against ``dot``, whose overrides the generic ``matmul``
calls.  Both call the ring's own ``mul``, so the rational-module kernels
are also checked against plain ``Fraction`` arithmetic, the polynomial
``dot`` against a fold of ``_pmul``/``_padd``, and the GF(p)[x] primitives
(``_padd``, ``_pmul``, ``_pfma``, ``_pdivmod``, ``_pegcd``) against sympy's
``Poly(..., modulus=p)``, which shares no code with edrkit.
"""

import json
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import exhaustive, make_ring, rings
from edrkit.cli import CommandRequest, dispatch
from edrkit.matrices import RingMatrix, diagonal_reduce, verify_reduction
from edrkit.rings import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
    UnsupportedOperationError,
    _padd,
    _pdivmod,
    _pegcd,
    _pfma,
    _pmul,
)

SPECS = ["z", "zmod:360", "zmod:2305843009213693951", "gfpoly:5", "product:zmod:4,z",
         "text:z,q", "series:4"]

_INTS = st.integers(-10**40, 10**40)
_FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def _values(ring: Ring):
    """Normal raw values of ring, zero drawn often."""
    if isinstance(ring, IntegerRing):
        raw = _INTS
    elif isinstance(ring, ModularRing):
        raw = st.integers(0, ring.n - 1)
    elif isinstance(ring, GFPolynomialRing):
        raw = st.lists(st.integers(0, ring.p - 1), max_size=5).map(ring.normalize)
    elif isinstance(ring, ProductRing):
        raw = st.tuples(*(_values(f) for f in ring.factors))
    elif isinstance(ring, SelfExtensionRing):
        raw = st.tuples(_values(ring.base), _values(ring.base))
    elif isinstance(ring, TrivialExtensionRing):
        raw = st.tuples(_INTS, _FRACTIONS)
    elif isinstance(ring, TruncatedSeriesRing):
        raw = st.tuples(st.integers(-99, 99),
                        st.lists(_FRACTIONS, max_size=ring.order)).map(ring.normalize)
    else:  # pragma: no cover
        raise AssertionError(f"no strategy for {ring!r}")
    return st.one_of(st.just(ring.zero), raw)


def _naive_dot(ring, xs, ys):
    return reduce(ring.add, map(ring.mul, xs, ys), ring.zero)


@pytest.mark.parametrize("spec", SPECS)
def test_kernels_agree_with_the_generic_defaults(spec):
    ring = make_ring(spec).ring
    values = _values(ring)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data(), width=st.integers(0, 6), height=st.integers(1, 4))
    def check(data, width, height):
        xs = data.draw(st.lists(values, min_size=width, max_size=width))
        ys = data.draw(st.lists(values, min_size=width, max_size=width))
        q = data.draw(values)

        assert ring.dot(xs, ys) == Ring.dot(ring, xs, ys) == _naive_dot(ring, xs, ys)

        mine, generic = list(ys), list(ys)
        ring.axpy(mine, xs, q)
        Ring.axpy(ring, generic, xs, q)
        assert mine == generic == [ring.add(y, ring.mul(q, x)) for x, y in zip(xs, ys)]

        if width >= 2:
            j, k = data.draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2,
                                      unique=True))
            rows = data.draw(st.lists(st.lists(values, min_size=width, max_size=width),
                                      min_size=height, max_size=height))
            mine, generic = [list(r) for r in rows], [list(r) for r in rows]
            ring.col_axpy(mine, j, k, q)
            Ring.col_axpy(ring, generic, j, k, q)
            assert mine == generic
            assert [r[j] for r in mine] == [ring.add(r[j], ring.mul(q, r[k])) for r in rows]

    check()


@pytest.mark.parametrize("spec", SPECS)
def test_kernels_on_empty_rows_and_zero_multipliers(spec):
    ring = make_ring(spec).ring
    assert ring.dot([], []) == Ring.dot(ring, [], []) == ring.zero
    empty = []
    ring.axpy(empty, [], ring.one)
    assert empty == []
    row = [ring.one, ring.zero, ring.neg(ring.one)]
    for src in (row, [ring.zero] * 3):
        dst = [ring.one] * 3
        ring.axpy(dst, src, ring.zero)
        assert dst == [ring.one] * 3
    rows = [[ring.one, ring.neg(ring.one)], [ring.zero, ring.one]]
    ring.col_axpy(rows, 0, 1, ring.zero)
    assert rows == [[ring.one, ring.neg(ring.one)], [ring.zero, ring.one]]


# -- fma: the one hook of the generic shears ---------------------------------------

def _assert_fma(ring, y, q, x):
    got = ring.fma(y, q, x)
    assert got == Ring.fma(ring, y, q, x) == ring.add(y, ring.mul(q, x))
    assert repr(got) == repr(ring.normalize(got))  # a normal value


@pytest.mark.parametrize("spec", SPECS)
def test_fma_is_the_sum_of_the_product(spec):
    ring = make_ring(spec).ring
    values = _values(ring)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(y=values, q=values, x=values)
    def check(y, q, x):
        _assert_fma(ring, y, q, x)
        _assert_fma(ring, x, q, y)

    check()
    small = (ring.zero, ring.one, ring.neg(ring.one))
    for y in small:
        for q in small:
            for x in small:
                _assert_fma(ring, y, q, x)


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "text:z,q"])
def test_shears_make_no_mul_call(monkeypatch, spec):
    ring = make_ring(spec).ring
    one, two = ring.one, ring.add(ring.one, ring.one)

    def refuse(*args):
        raise AssertionError("mul called by a shear")
    monkeypatch.setattr(type(ring), "mul", refuse)
    dst = [one, ring.zero, two]
    ring.axpy(dst, [two, one, ring.zero], two)
    rows = [[one, two], [ring.zero, one]]
    ring.col_axpy(rows, 0, 1, two)
    monkeypatch.undo()
    four = ring.mul(two, two)
    assert dst == [ring.add(one, four), two, two]
    assert rows == [[ring.add(one, four), two], [two, one]]


# -- gcd: the generator of bezout_raw without the cofactors ----------------------

GCD_SPECS = SPECS + ["zmod:2", "gfpoly:2", "product:zmod:360,gfpoly:5,text:z,q",
                     "product:z,product:zmod:6,gfpoly:3"]


def _assert_gcd_is_bezout_generator(ring, a, b):
    if a == ring.zero and b == ring.zero:
        assert ring.gcd(a, b) == Ring.gcd(ring, a, b) == ring.zero
        return
    try:
        want = ring.bezout_raw(a, b)[0]
    except UnsupportedOperationError:  # series with both constant terms zero
        with pytest.raises(UnsupportedOperationError):
            ring.gcd(a, b)
        return
    got = ring.gcd(a, b)
    assert got == want == Ring.gcd(ring, a, b)
    assert type(got) is type(want)


@pytest.mark.parametrize("spec", GCD_SPECS)
def test_gcd_is_the_generator_of_bezout_raw(spec):
    ring = make_ring(spec).ring
    values = _values(ring)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(a=values, b=values)
    def check(a, b):
        _assert_gcd_is_bezout_generator(ring, a, b)
        _assert_gcd_is_bezout_generator(ring, b, a)
        _assert_gcd_is_bezout_generator(ring, a, a)

    check()


@pytest.mark.parametrize("spec, pairs", [
    ("z", [(0, 0), (0, 5), (-5, 0), (0, -7), (-12, 18), (12, -18), (-4, -6), (-1, 0),
           (-(10**30), 6 * 10**20)]),
    ("zmod:360", [(0, 0), (0, 7), (180, 0), (359, 1), (24, 36), (120, 240)]),
    ("gfpoly:5", [((), ()), ((), (3,)), ((2, 4), ()), ((0, 0, 3), (0, 2)),
                  ((4, 0, 1), (2, 1)), ((1, 1), (4, 4))]),
    ("product:zmod:4,z", [((0, 0), (0, 0)), ((0, 6), (0, -4)), ((2, 0), (0, 0)),
                          ((0, -3), (2, 0)), ((3, 0), (1, -9))]),
    ("text:z,q", [((0, Fraction(0)), (0, Fraction(0))),
                  ((0, Fraction(1, 2)), (0, Fraction(-1, 3))),
                  ((-4, Fraction(1, 2)), (6, Fraction(0))),
                  ((0, Fraction(5)), (-3, Fraction(7, 2)))]),
    ("series:4", [((0, ()), (0, ())), ((2, ()), (0, (Fraction(1),))),
                  ((0, (Fraction(1),)), (0, (Fraction(0), Fraction(1)))),
                  ((-6, (Fraction(1, 3),)), (4, ()))]),
])
def test_gcd_on_zero_pairs_signs_and_zero_components(spec, pairs):
    ring = make_ring(spec).ring
    for a, b in pairs:
        a, b = ring.normalize(a), ring.normalize(b)
        _assert_gcd_is_bezout_generator(ring, a, b)
        _assert_gcd_is_bezout_generator(ring, b, a)


def test_gcd_overrides_and_the_one_polynomial_gcd():
    for cls in (IntegerRing, ModularRing, GFPolynomialRing, ProductRing):
        assert cls.gcd is not Ring.gcd, cls
    for cls in (TrivialExtensionRing, SelfExtensionRing, TruncatedSeriesRing):
        assert cls.gcd is Ring.gcd, cls
    # the exhaustive GF(p)[x]/(f) structures use the ring module's gcd
    assert exhaustive._pgcd is rings._pgcd
    # a zero component pair of a product gives that factor's zero
    ring = make_ring("product:zmod:4,z").ring
    assert ring.gcd((0, 0), (2, 0)) == (2, 0)
    assert ring.gcd((3, 0), (0, 0)) == (1, 0)


# -- the rational module against plain Fraction arithmetic ----------------------

TEXT_Q = make_ring("text:z,q").ring
_DENOMINATORS = st.one_of(st.integers(1, 10**20), st.sampled_from([1, 2, 3, 4, 6, 12]))


def _pairs(module_parts):
    return st.tuples(st.integers(-10**20, 10**20), module_parts)


def _plain_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _plain_mul(x, y):
    (a, e), (b, f) = x, y
    return (a * b, Fraction(a) * f + Fraction(b) * e)


def _plain_dot(xs, ys):
    return (sum(a * b for (a, _), (b, _) in zip(xs, ys)),
            sum((Fraction(a) * f + Fraction(b) * e for (a, e), (b, f) in zip(xs, ys)),
                Fraction(0)))


def _assert_normal(v):
    assert type(v) is tuple and type(v[0]) is int and type(v[1]) is Fraction


@pytest.mark.parametrize("shape", ["free", "equal-denominators", "zero-module"])
def test_rational_module_kernels_against_plain_fractions(shape):
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(data=st.data(), width=st.integers(0, 8))
    def check(data, width):
        if shape == "free":
            parts = st.builds(Fraction, st.integers(-10**20, 10**20), _DENOMINATORS)
        elif shape == "equal-denominators":
            den = data.draw(_DENOMINATORS)
            parts = st.integers(-10**20, 10**20).map(lambda n: Fraction(n, den))
        else:
            parts = st.just(Fraction(0))
        values = st.one_of(st.just(TEXT_Q.zero), _pairs(parts))
        xs = data.draw(st.lists(values, min_size=width, max_size=width))
        ys = data.draw(st.lists(values, min_size=width, max_size=width))
        for x, y in zip(xs, ys):
            for got, want in ((TEXT_Q.add(x, y), _plain_add(x, y)),
                              (TEXT_Q.mul(x, y), _plain_mul(x, y)),
                              (TEXT_Q.fma(y, x, y), _plain_add(y, _plain_mul(x, y)))):
                assert got == want
                _assert_normal(got)
        got = TEXT_Q.dot(xs, ys)
        assert got == _plain_dot(xs, ys)
        _assert_normal(got)
        assert TEXT_Q.dot(xs, iter(ys)) == got

    check()


def test_rational_module_zero_and_one_are_built_once():
    assert TEXT_Q.zero is TEXT_Q.zero and TEXT_Q.one is TEXT_Q.one
    assert TEXT_Q.zero == (0, Fraction(0)) and TEXT_Q.one == (1, Fraction(0))
    for v in (TEXT_Q.zero, TEXT_Q.one, TEXT_Q.dot([], [])):
        _assert_normal(v)


# -- Kronecker substitution over GF(p)[x] ----------------------------------------

@pytest.mark.parametrize("p", [2, 5, 2305843009213693951])
def test_polynomial_dot_against_a_fold_of_pmul_padd(p):
    ring = GFPolynomialRing(p)

    def fold(xs, ys):
        return reduce(lambda acc, xy: _padd(acc, _pmul(xy[0], xy[1], p), p), zip(xs, ys), ())

    coefficients = st.one_of(st.integers(0, p - 1), st.just(p - 1))
    polys = st.one_of(st.just(()), st.lists(coefficients, max_size=41).map(ring.normalize))

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data(), width=st.integers(0, 24))
    def check(data, width):
        xs = data.draw(st.lists(polys, min_size=width, max_size=width))
        ys = data.draw(st.lists(polys, min_size=width, max_size=width))
        assert ring.dot(xs, ys) == fold(xs, ys)

    check()
    # the slot bound is reached: 24 pairs of degree-40 polynomials with every
    # coefficient p - 1 put 24 * 41 * (p-1)**2 into the middle slot
    top = (p - 1,) * 41
    for width in (1, 23, 24):
        xs = [top] * width
        assert ring.dot(xs, xs) == fold(xs, xs)
    # zero polynomials and unequal lengths mixed in
    xs = [(), top, (1,), top[:7], ()]
    ys = [top, (), top, (p - 1, 1), (1,)]
    assert ring.dot(xs, ys) == fold(xs, ys)


# -- GF(p)[x] primitives against sympy ----------------------------------------------

_X = sympy.Symbol("x")


def _to_sympy(c, p):
    return sympy.Poly(list(reversed(c)) or [0], _X, modulus=p)


def _from_sympy(f, p):
    # sympy prints GF(p) coefficients in the symmetric range; ours are in [0, p)
    return rings._ptrim([int(c) % p for c in reversed(f.all_coeffs())])


def _check_primitives(y, a, b, c, p):
    sy, sa, sb = (_to_sympy(v, p) for v in (y, a, b))
    assert _padd(a, b, p) == _from_sympy(sa + sb, p)
    assert _pmul(a, b, p) == _from_sympy(sa * sb, p)
    assert _pfma(y, a, b, p) == _from_sympy(sy + sa * sb, p)
    for num, den in ((a, b), (_pmul(a, b, p), b), (_pfma(c, a, b, p), b)):
        if den:
            q, r = _pdivmod(num, den, p)
            sq, sr = _to_sympy(num, p).div(_to_sympy(den, p))
            assert (q, r) == (_from_sympy(sq, p), _from_sympy(sr, p))
    # a shared factor c makes the gcd nontrivial
    for u, v in ((a, b), (b, a), (_pmul(a, c, p), _pmul(b, c, p)), (a, ())):
        if not u and not v:
            assert _pegcd(u, v, p) == ((), (1,), ())
            continue
        su, sv = _to_sympy(u, p), _to_sympy(v, p)
        if v:
            s, t, h = su.gcdex(sv)
        else:  # sympy divides by zero in gcdex(u, 0); swap gcdex(0, u)
            t, s, h = sv.gcdex(su)
        assert _pegcd(u, v, p) == tuple(_from_sympy(w, p) for w in (h, s, t))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_polynomial_primitives_against_sympy(p):
    ring = GFPolynomialRing(p)
    polys = st.one_of(st.just(()), st.lists(st.integers(0, p - 1), max_size=9).map(ring.normalize))

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(y=polys, a=polys, b=polys, c=polys)
    def check(y, a, b, c):
        _check_primitives(y, a, b, c, p)

    check()
    # every coefficient p - 1: each product and sum needs its reduction
    top = (p - 1,) * 6
    for y, a, b, c in ((top, top, top, top), (top, top[:3], top, (1, 1)),
                       ((1,), (0, 1), top[:2], top[:4]), ((), top, (p - 1,), ())):
        _check_primitives(y, a, b, c, p)


# -- products: each factor's own dot ---------------------------------------------

@pytest.mark.parametrize("spec", ["product:zmod:4,z", "product:zmod:360,gfpoly:5,text:z,q"])
def test_product_dot_against_per_component_generic_dots(spec):
    ring = make_ring(spec).ring
    values = _values(ring)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data(), width=st.integers(0, 8))
    def check(data, width):
        xs = data.draw(st.lists(values, min_size=width, max_size=width))
        ys = data.draw(st.lists(values, min_size=width, max_size=width))
        per_component = tuple(Ring.dot(f, [x[i] for x in xs], [y[i] for y in ys])
                              for i, f in enumerate(ring.factors))
        assert ring.dot(xs, ys) == per_component == Ring.dot(ring, xs, ys)
        assert ring.dot(iter(xs), iter(ys)) == per_component

    check()
    assert ring.zero is ring.zero and ring.one is ring.one


# -- matmul: one call per matrix product ----------------------------------------

def _reference_matmul(add, mul, zero, a, b):
    """A*B by the schoolbook triple loop, from zero, with no ring kernel."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                acc = add(acc, mul(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def _matmul(ring, a, b):
    return ring.matmul(a, list(zip(*b)))


_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5))


def _draw_operands(data, values, shape):
    """An m x inner and an inner x n matrix of drawn values."""
    m, inner, n = shape
    return (data.draw(st.lists(st.lists(values, min_size=inner, max_size=inner),
                               min_size=m, max_size=m)),
            data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                               min_size=inner, max_size=inner)))


def _assert_matmul(ring, a, b):
    got = _matmul(ring, a, b)
    assert got == _reference_matmul(ring.add, ring.mul, ring.zero, a, b)
    for row in got:
        for v in row:
            assert repr(v) == repr(ring.normalize(v))  # a normal value


def test_matmul_overrides():
    for cls in (IntegerRing, ModularRing, GFPolynomialRing, ProductRing, TrivialExtensionRing):
        assert cls.matmul is not Ring.matmul, cls
    for cls in (SelfExtensionRing, TruncatedSeriesRing):
        assert cls.matmul is Ring.matmul, cls


@pytest.mark.parametrize("spec", SPECS + ["text:zmod:4,self", "product:zmod:360,gfpoly:5,text:z,q"])
def test_matmul_against_an_add_mul_reference(spec):
    ring = make_ring(spec).ring
    values = _values(ring)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data(), shape=_SHAPES)
    def check(data, shape):
        _assert_matmul(ring, *_draw_operands(data, values, shape))

    check()
    for m, inner, n in ((1, 1, 1), (6, 1, 5), (1, 6, 1), (2, 3, 4)):
        zeros = [[ring.zero] * inner for _ in range(m)]
        ones = [[ring.one] * n for _ in range(inner)]
        _assert_matmul(ring, zeros, ones)
        _assert_matmul(ring, [[ring.one] * inner for _ in range(m)], ones)
    assert ring.matmul([], []) == []


@pytest.mark.parametrize("p", [2, 5, 2305843009213693951])
def test_polynomial_matmul_at_the_slot_bound(p):
    # every coefficient p - 1 at degree 40 fills the middle slot of each
    # entry to inner * 41 * (p-1)**2, the bound its slot width is cut to
    ring = GFPolynomialRing(p)
    top = (p - 1,) * 41
    for m, inner, n in ((1, 1, 1), (3, 4, 2), (6, 5, 5)):
        a = [[top] * inner for _ in range(m)]
        b = [[top] * n for _ in range(inner)]
        _assert_matmul(ring, a, b)
        # one side short: the width follows the shorter side's longest entry
        _assert_matmul(ring, a, [[top[:3]] * n for _ in range(inner)])
        mixed = [[(top[:2], (), top)[(i + k) % 3] for k in range(inner)] for i in range(m)]
        _assert_matmul(ring, mixed, b)
    # zero polynomials and unequal lengths mixed in
    a = [[(), top, (1,)], [top[:7], (), top]]
    b = [[top, ()], [(p - 1, 1), (1,)], [(), top[:5]]]
    _assert_matmul(ring, a, b)


def test_rational_module_matmul_against_plain_fractions():
    def check_shape(parts):
        values = st.one_of(st.just(TEXT_Q.zero), _pairs(parts))

        @settings(derandomize=True, max_examples=40, deadline=None, database=None)
        @given(data=st.data(), shape=_SHAPES)
        def check(data, shape):
            a, b = _draw_operands(data, values, shape)
            got = _matmul(TEXT_Q, a, b)
            assert got == _reference_matmul(_plain_add, _plain_mul, (0, Fraction(0)), a, b)
            for row in got:
                for v in row:
                    _assert_normal(v)

        check()

    check_shape(st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)))
    check_shape(st.builds(Fraction, st.integers(-99, 99), st.sampled_from([1, 2, 3, 5, 7])))
    check_shape(st.just(Fraction(0)))


def test_rational_module_matmul_scales_by_the_lcm():
    # the common denominator of a side is the lcm, not a larger multiple,
    # so the integer products stay as small as the values allow
    bases, nums, l = rings._split_module([[(1, Fraction(1, 4)), (2, Fraction(0))],
                                          [(3, Fraction(5, 6)), (0, Fraction(-7))]])
    assert (bases, nums, l) == ([[1, 2], [3, 0]], [[3, 0], [10, -84]], 12)
    assert rings._split_module([[(1, Fraction(0))]])[2] == 1


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "text:z,q", "product:zmod:4,z"])
def test_verify_reduction_makes_no_dot_call(monkeypatch, spec):
    ring = make_ring(spec).ring
    rng = random.Random(spec)
    values = {"z": lambda: rng.randint(-9, 9), "zmod:360": lambda: rng.randrange(360),
              "gfpoly:5": lambda: [rng.randrange(5) for _ in range(rng.randint(0, 3))],
              "text:z,q": lambda: [rng.randint(-9, 9), f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"],
              "product:zmod:4,z": lambda: [rng.randrange(4), rng.randint(-9, 9)]}[spec]
    a = RingMatrix(ring, [[ring.value_from_json(values()) for _ in range(4)] for _ in range(3)])
    result = diagonal_reduce(a)
    products = []
    matmul = ring.matmul

    def counted(rows, cols):
        products.append((len(rows), len(cols)))
        return matmul(rows, cols)

    def refuse(*args):
        raise AssertionError("dot called by verify_reduction")
    for cls in (Ring, IntegerRing, ModularRing, GFPolynomialRing, ProductRing,
                TrivialExtensionRing):
        monkeypatch.setattr(cls, "dot", refuse)
    monkeypatch.setattr(ring, "matmul", counted, raising=False)
    assert verify_reduction(a, result)
    assert products == [(3, 3), (4, 4), (3, 4)]  # P*Pinv, Q*Qinv, P*A


# -- whole documents: kernels against the generic methods ------------------------

_GENERIC = [(GFPolynomialRing, "dot", Ring.dot), (ProductRing, "dot", Ring.dot),
            (TrivialExtensionRing, "dot", Ring.dot),
            (IntegerRing, "matmul", Ring.matmul), (ModularRing, "matmul", Ring.matmul),
            (GFPolynomialRing, "matmul", Ring.matmul), (ProductRing, "matmul", Ring.matmul),
            (TrivialExtensionRing, "matmul", Ring.matmul),
            (IntegerRing, "fma", Ring.fma),
            (ModularRing, "fma", Ring.fma), (GFPolynomialRing, "fma", Ring.fma),
            (TrivialExtensionRing, "fma", Ring.fma),
            (TrivialExtensionRing, "add", staticmethod(_plain_add)),
            (TrivialExtensionRing, "mul", staticmethod(_plain_mul))]


def _kernel_requests():
    rng = random.Random("kernel-documents")

    def entry(spec):
        if spec == "gfpoly:5":
            return [rng.randrange(5) for _ in range(rng.randint(0, 3))]
        if spec == "product:zmod:4,z":
            return [rng.randrange(4), rng.randint(-30, 30)]
        if spec == "zmod:360":
            return rng.randrange(360)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return [rng.randint(-20, 20), q.numerator if q.denominator == 1 else str(q)]

    reqs = []
    for spec in ("text:z,q", "gfpoly:5", "product:zmod:4,z", "zmod:360"):
        for m, n in ((3, 3), (4, 4), (5, 5), (3, 5), (5, 3)):
            rows = [[entry(spec) for _ in range(n)] for _ in range(m)]
            reqs.append(("snf", spec, rows))
        found = 0
        while found < 3:  # reduce2x2 needs aR + bR + cR = R; the others exit 1
            a, b, c = entry(spec), entry(spec), entry(spec)
            zero = {"gfpoly:5": [], "zmod:360": 0}.get(spec, [0, 0])
            rows = [[a, zero], [b, c]]
            if dispatch(CommandRequest(command="reduce2x2", ring=spec,
                                       payload=json.dumps({"rows": rows})))[0] == 0:
                reqs.append(("reduce2x2", spec, rows))
                found += 1
    return reqs


def test_kernels_leave_every_document_unchanged(monkeypatch):
    requests = [CommandRequest(command=command, ring=spec, output=output,
                               payload=json.dumps({"rows": rows}))
                for command, spec, rows in _kernel_requests()
                for output in ("json", "pretty")]
    with_kernels = [dispatch(req) for req in requests]
    assert all(code == 0 for code, _ in with_kernels)
    for cls, name, generic in _GENERIC:
        monkeypatch.setattr(cls, name, generic)
    assert [dispatch(req) for req in requests] == with_kernels
