"""Row kernels: every ring's overrides against independent references.

The overrides, each of which must return exactly the normal values of the
generic ``Ring`` add/mul loops:

* ``IntegerRing``: ``matmul``, ``dot``, ``fma``, ``axpy`` and ``col_axpy``
  with builtin operators;
* ``ModularRing``: ``matmul`` and ``dot``, one reduction per entry or dot
  product, and ``fma`` (y + q*x), one reduction per entry;
* ``GFPolynomialRing``: ``dot`` by Kronecker substitution, one reduction
  mod p per coefficient of each sum, ``to_check`` (every entry packed once,
  with one slot width for every product, and sums checked packed, reduced
  in one step), and ``fma`` through ``_pfma``, one reduction per coefficient;
* ``ProductRing``: ``dot``, each factor's own kernel on its components,
  woven back into tuples, and ``to_check``, split once into factor parts;
* ``TrivialExtensionRing`` with the rational module: ``add``, ``mul``,
  ``dot`` and ``fma`` on the numerators and denominators of the module
  parts, one ``Fraction`` per result, and ``to_check`` with no
  ``Fraction`` at all;
* ``gcd`` on Z (``math.gcd``), Z/n (``gcd(a, b, n) % n``), GF(p)[x] (monic
  Euclid) and products (componentwise), each exactly ``bezout_raw(a, b)[0]``
  and zero on the zero pair; the other rings use the default, which is that
  by definition;
* ``egcd`` on Z (``_egcd``) and GF(p)[x] (``_pegcd``), each exactly
  ``bezout_raw(a, b)[:3]``, (0, 1, 0) on the zero pair, and a Bezout
  identity a*x + b*y = d; the other rings use the default;
* ``canonical_associate`` in closed form on Z (|a|), Z/n (gcd(a, n) mod n),
  GF(p)[x] (the monic associate), products (factor by factor) and
  truncated series (|q|*x^i for the lowest term q*x^i), ``associate_unit``
  on Z (+-1), GF(p)[x] (lead(a)/lead(d), checked by one scalar multiple)
  and truncated series (equal lowest terms up to sign), and ``divides`` on
  truncated series (from the lowest terms), each equal to the generic value
  and raising exactly where the generic one raises.

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

import dataclasses
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
from edrkit.matrices import RingMatrix, diagonal_reduce, reduce_2x2, verify_reduction
from edrkit.rings import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
    _padd,
    _pdivmod,
    _pegcd,
    _pfma,
    _pmul,
)

from conftest import random_value

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
        raw = st.tuples(st.integers(-99, 99), st.lists(_FRACTIONS, max_size=ring.order)).map(
            lambda t: ring.normalize((t[0], *t[1], *[0] * (ring.order - len(t[1])))))
    else:  # pragma: no cover
        raise AssertionError(f"no strategy for {ring!r}")
    return st.one_of(st.just(ring.zero), raw)


def _naive_dot(ring, xs, ys):
    return reduce(ring.add, map(ring.mul, xs, ys), ring.zero)


@pytest.mark.parametrize("spec", SPECS)
def test_kernels_agree_with_the_generic_defaults(spec):
    ring = make_ring(spec)
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
    ring = make_ring(spec)
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
    ring = make_ring(spec)
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
    ring = make_ring(spec)
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
    want = ring.bezout_raw(a, b)[0]
    got = ring.gcd(a, b)
    assert got == want == Ring.gcd(ring, a, b)
    assert type(got) is type(want)


@pytest.mark.parametrize("spec", GCD_SPECS)
def test_gcd_is_the_generator_of_bezout_raw(spec):
    ring = make_ring(spec)
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
    ("series:4", [((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)), ((2, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
                  ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
                  ((-6, Fraction(1, 3), 0, 0, 0), (4, 0, 0, 0, 0))]),
])
def test_gcd_on_zero_pairs_signs_and_zero_components(spec, pairs):
    ring = make_ring(spec)
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
    ring = make_ring("product:zmod:4,z")
    assert ring.gcd((0, 0), (2, 0)) == (2, 0)
    assert ring.gcd((3, 0), (0, 0)) == (1, 0)


EGCD_SPECS = ["z", "zmod:360", "gfpoly:5", "gfpoly:2", "text:z,q", "product:zmod:4,z"]


@pytest.mark.parametrize("spec", EGCD_SPECS)
def test_egcd_is_the_head_of_bezout_raw(spec):
    ring = make_ring(spec)
    values = _values(ring)

    def assert_egcd(a, b):
        d, x, y = got = ring.egcd(a, b)
        assert got == ring.bezout_raw(a, b)[:3], (a, b)
        assert ring.add(ring.mul(a, x), ring.mul(b, y)) == d, (a, b)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(a=values, b=values)
    def check(a, b):
        assert_egcd(a, b)
        assert_egcd(b, a)
        assert_egcd(a, ring.zero)

    check()
    assert_egcd(ring.zero, ring.zero)


def test_egcd_overrides():
    for cls in (IntegerRing, GFPolynomialRing):
        assert cls.egcd is not Ring.egcd, cls
    for cls in (ModularRing, ProductRing, TrivialExtensionRing, SelfExtensionRing,
                TruncatedSeriesRing):
        assert cls.egcd is Ring.egcd, cls
    assert make_ring("z").egcd(0, 0) == (0, 1, 0)
    assert make_ring("gfpoly:5").egcd((), ()) == ((), (1,), ())


# -- canonical associates in closed form ------------------------------------------

def _generic_unit(ring, a, d):
    """Ring.associate_unit(a, d), or the NotAssociatesError it raises."""
    try:
        return Ring.associate_unit(ring, a, d)
    except rings.NotAssociatesError as exc:
        return type(exc)


def _assert_associates(ring, a, d):
    assert ring.canonical_associate(a) == Ring.canonical_associate(ring, a), a
    try:
        got = ring.associate_unit(a, d)
    except rings.NotAssociatesError as exc:
        got = type(exc)
    assert got == _generic_unit(ring, a, d), (a, d)


def test_modular_canonical_associate_on_every_residue():
    for n in range(2, 65):
        ring = ModularRing(n)
        for a in range(n):
            assert ring.canonical_associate(a) == Ring.canonical_associate(ring, a), (n, a)


def test_integer_associates_in_closed_form():
    ring = IntegerRing()
    rng = random.Random("integer associates")
    values = [0, 1, -1, 2, -2] + [rng.randint(-10**30, 10**30) for _ in range(40)]
    for a in values:
        for d in (a, -a, 2 * a, a + 1, 0, 1, -1):
            _assert_associates(ring, a, d)
            _assert_associates(ring, d, a)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_polynomial_associates_in_closed_form(p):
    ring = GFPolynomialRing(p)
    rng = random.Random(f"polynomial associates {p}")
    polys = [(), (1,)] + [ring.normalize([rng.randrange(p) for _ in range(rng.randint(1, 7))])
                          for _ in range(40)]
    for a in polys:
        others = [ring.mul((u,), a) for u in range(1, p)] + polys[::7]
        # a unit multiple with one coefficient off: the scalar check refuses it
        if len(a) > 1:
            others.append(ring.add(ring.mul((p - 1,), a), (1,)))
        for d in others:
            _assert_associates(ring, a, d)
            _assert_associates(ring, d, a)


def test_series_associates_in_closed_form():
    ring = TruncatedSeriesRing(4)
    rng = random.Random("series associates")
    x = ring.normalize((0, 1, 0, 0, 0))
    values = [ring.zero, ring.one] + [random_value(ring, rng, span=6) for _ in range(30)]
    values += [ring.mul(x, v) for v in values[2:12]] + [ring.mul(ring.mul(x, x), v) for v in values[12:18]]
    # units whose tails differ, so a*u changes every coefficient above a's lowest term
    units = [ring.normalize((rng.choice((1, -1)), *[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                                    for _ in range(4)])) for _ in range(4)]
    for a in values:
        others = [ring.mul(a, u) for u in units] + [ring.add(a, a), ring.mul(x, a)] + values[::9]
        for d in others:
            assert ring.divides(d, a) == Ring.divides(ring, d, a), (d, a)
            assert ring.divides(a, d) == Ring.divides(ring, a, d), (a, d)
            _assert_associates(ring, a, d)
            _assert_associates(ring, d, a)


def test_associate_overrides():
    for cls in (IntegerRing, ModularRing, GFPolynomialRing, TruncatedSeriesRing):
        assert cls.canonical_associate is not Ring.canonical_associate, cls
        assert cls.associate_unit is not Ring.associate_unit, cls
    with pytest.raises(rings.NotAssociatesError):
        GFPolynomialRing(5).associate_unit((1, 2), (1, 3))
    with pytest.raises(rings.NotAssociatesError):
        IntegerRing().associate_unit(4, 6)


@pytest.mark.parametrize("spec", ["product:zmod:4,z", "product:zmod:360,gfpoly:5,text:z,q"])
def test_product_canonical_associate_is_the_generic_value(spec):
    ring = make_ring(spec)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(a=_values(ring))
    def check(a):
        assert ring.canonical_associate(a) == Ring.canonical_associate(ring, a), a

    check()


# -- the rational module against plain Fraction arithmetic ----------------------

TEXT_Q = make_ring("text:z,q")
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
    ring = make_ring(spec)
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
    for cls in (IntegerRing, ModularRing):
        assert cls.matmul is not Ring.matmul, cls
    for cls in (GFPolynomialRing, ProductRing, TrivialExtensionRing, SelfExtensionRing,
                TruncatedSeriesRing):
        assert cls.matmul is Ring.matmul, cls


@pytest.mark.parametrize("spec", SPECS + ["text:zmod:4,self", "product:zmod:360,gfpoly:5,text:z,q"])
def test_matmul_against_an_add_mul_reference(spec):
    ring = make_ring(spec)
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
    # entry to inner * 41 * (p-1)**2, the bound the slot widths of dot and
    # to_check are cut to
    ring = GFPolynomialRing(p)
    top = (p - 1,) * 41

    def check(a, b):
        _assert_matmul(ring, a, b)
        assert _checked(ring, a, b,
                        _reference_matmul(ring.add, ring.mul, ring.zero, a, b))

    for m, inner, n in ((1, 1, 1), (3, 4, 2), (6, 5, 5)):
        a = [[top] * inner for _ in range(m)]
        b = [[top] * n for _ in range(inner)]
        check(a, b)
        # one side short: dot's width follows the shorter side's longest entry
        check(a, [[top[:3]] * n for _ in range(inner)])
        mixed = [[(top[:2], (), top)[(i + k) % 3] for k in range(inner)] for i in range(m)]
        check(mixed, b)
    # zero polynomials and unequal lengths mixed in
    a = [[(), top, (1,)], [top[:7], (), top]]
    b = [[top, ()], [(p - 1, 1), (1,)], [(), top[:5]]]
    check(a, b)


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
    # so the integer products stay as small as the values allow; over Z x| Q
    # the images are the pairs (a, N) meaning (a, N/L), and coefficient i of
    # a longer series is taken over L^i
    work = rings._SeriesWork(TEXT_Q, [[[(1, Fraction(1, 4)), (2, Fraction(0))],
                                       [(3, Fraction(5, 6)), (0, Fraction(-7))]]])
    assert (work.mats, work.l) == ([[[(1, 3), (2, 0)], [(3, 10), (0, -84)]]], 12)
    assert rings._SeriesWork(TEXT_Q, [[[(1, Fraction(0))]]]).l == 1
    work = rings._SeriesWork(make_ring("series:2"), [[[(1, Fraction(1, 2), Fraction(1, 3))]]])
    assert (work.mats, work.l) == ([[[(1, 3, 12)]]], 6)


@pytest.mark.parametrize("spec", ["text:z,q", "series:4"])
def test_series_to_work_converts_every_matrix(spec):
    # to_work takes all five matrices to their images, transforms that are
    # not identities included; after a rescale of L, from_work gives back
    # the same values
    ring = make_ring(spec)
    rng = random.Random(spec)
    mats = [[[random_value(ring, rng, span=9) for _ in range(3)] for _ in range(3)]
            for _ in range(5)]
    before = [[list(r) for r in m] for m in mats]
    work = ring.to_work(mats)
    assert all(isinstance(c, int) for m in mats for r in m for v in r for c in v)
    work._rescale(6)
    assert work.from_work(mats) is ring and mats == before


def _reduced(spec):
    """A 3x4 matrix over spec and its diagonal reduction."""
    ring = make_ring(spec)
    rng = random.Random(spec)
    values = {"z": lambda: rng.randint(-9, 9), "zmod:360": lambda: rng.randrange(360),
              "gfpoly:2": lambda: [rng.randrange(2) for _ in range(rng.randint(0, 4))],
              "gfpoly:5": lambda: [rng.randrange(5) for _ in range(rng.randint(0, 3))],
              "gfpoly:1000003": lambda: [rng.randrange(1000003) for _ in range(rng.randint(0, 3))],
              "text:z,q": lambda: [rng.randint(-9, 9), f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"],
              "product:zmod:4,z": lambda: [rng.randrange(4), rng.randint(-9, 9)]}[spec]
    a = RingMatrix(ring, [[ring.value_from_json(values()) for _ in range(4)] for _ in range(3)])
    return a, diagonal_reduce(a)


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "text:z,q", "product:zmod:4,z"])
def test_verify_reduction_makes_no_dot_call(monkeypatch, spec):
    # verify converts each matrix once: over GF(p)[x] one _kpack per entry of
    # A, P, Pinv, Q, Qinv and D's diagonal and no polynomial product, over
    # Z x| Q no Fraction; the three products are checked part by part
    a, result = _reduced(spec)
    ring = a.ring
    packed, fractions, products = [], [], []

    def refuse(*args):
        raise AssertionError("dot called by verify_reduction")
    for cls in (Ring, IntegerRing, ModularRing, GFPolynomialRing, ProductRing,
                TrivialExtensionRing):
        monkeypatch.setattr(cls, "dot", refuse)
    kpack = rings._kpack
    monkeypatch.setattr(rings, "_kpack", lambda v, k: packed.append(v) or kpack(v, k))
    monkeypatch.setattr(rings, "_pfma", refuse)
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda *args, **kw: fractions.append(args) or new(*args, **kw))
    to_check = ring.to_check

    def counted(mats):
        parts = to_check(mats)
        for ck, _ in parts:
            equals = ck.matmul_equals
            monkeypatch.setattr(ck, "matmul_equals", lambda rows, right, target, _eq=equals:
                                products.append((len(rows), len(right[0])))
                                or _eq(rows, right, target), raising=False)
        return parts

    monkeypatch.setattr(ring, "to_check", counted, raising=False)
    assert verify_reduction(a, result)
    factors = len(ring.factors) if isinstance(ring, ProductRing) else 1
    assert products == [(3, 3)] * factors + [(4, 4)] * factors + [(3, 4)] * factors
    if isinstance(ring, GFPolynomialRing):
        entries = [v for m in (a, result.P, result.Pinv, result.Q, result.Qinv)
                   for row in m.data for v in row] + [result.D.data[i][i] for i in range(3)]
        assert sorted(packed) == sorted(entries)
    else:
        assert packed == []
    assert fractions == []


# -- matmul_equals: a product checked against a known result ---------------------

def test_matmul_equals_overrides():
    # verify checks its products on the rings that to_check returns; no
    # Ring overrides matmul_equals, and the check rings of GF(p)[x] and of
    # the series rings, Z x| Q among them, compare converted values
    for cls in (GFPolynomialRing, ProductRing, TruncatedSeriesRing):
        assert cls.to_check is not Ring.to_check, cls
    assert TrivialExtensionRing.to_check is TruncatedSeriesRing.to_check
    for cls in (IntegerRing, ModularRing, SelfExtensionRing):
        assert cls.to_check is Ring.to_check, cls
    for cls in (ModularRing, GFPolynomialRing, ProductRing,
                TrivialExtensionRing, SelfExtensionRing, TruncatedSeriesRing):
        assert cls.matmul_equals is Ring.matmul_equals, cls
    # Z checks its own products, packed (test_packed_integer_check_is_exact)
    for cls in (IntegerRing, rings._Slots, rings._SeriesWork):
        assert cls.matmul_equals is not Ring.matmul_equals, cls


def _checked(ring, a, right, target):
    """Whether the product of a and right (rows) equals target, as verify
    checks it: the three converted once by to_check, then matmul_equals on
    each part."""
    return all(ck.matmul_equals(fa, fr, ft)
               for ck, (fa, fr, ft) in ring.to_check([a, right, target]))


def _single_changes(ring, v):
    """Normal values that differ from the normal value v in one part."""
    if isinstance(ring, IntegerRing):
        return [v + 1, v - 1]
    if isinstance(ring, ModularRing):
        return [(v + 1) % ring.n, (v - 1) % ring.n]
    if isinstance(ring, GFPolynomialRing):
        p = ring.p
        out = [ring.normalize(v[:i] + ((c + s) % p,) + v[i + 1:])
               for i, c in enumerate(v) for s in (1, -1)]
        return out + [v + (1,), v + (p - 1,), v + (0, 0, 1)]  # a new top coefficient
    if isinstance(ring, TrivialExtensionRing):
        a, e = v
        return ([(a + s, e) for s in (1, -1)]
                + [(a, Fraction(e.numerator + s, e.denominator)) for s in (1, -1)])
    assert isinstance(ring, ProductRing)
    return [v[:idx] + (w,) + v[idx + 1:]
            for idx, f in enumerate(ring.factors) for w in _single_changes(f, v[idx])]


def _assert_equals_default(ring, a, cols, target):
    # the operand is drawn as columns; matmul_equals takes its rows
    right = list(zip(*cols))
    got = _checked(ring, a, right, target)
    assert got is Ring.matmul_equals(ring, a, right, target)
    return got


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:2", "gfpoly:5", "gfpoly:1000003",
                                  "text:z,q", "product:zmod:4,z"])
def test_matmul_equals_is_the_default_and_sees_every_single_change(spec):
    ring = make_ring(spec)
    values = _values(ring)

    def check_target(a, b, entry):
        cols = list(zip(*b))
        product = ring.matmul(a, cols)
        assert _assert_equals_default(ring, a, cols, product)
        assert _assert_equals_default(ring, a, cols, [tuple(r) for r in product])
        # a target of another shape, even one that agrees where it overlaps
        for short in (product[:-1], [r[:-1] for r in product], product + [product[-1]],
                      [r + [ring.zero] for r in product]):
            assert not _assert_equals_default(ring, a, cols, short)
        i, j = entry
        for w in _single_changes(ring, product[i][j]):
            changed = [list(r) for r in product]
            changed[i][j] = w
            assert not _assert_equals_default(ring, a, cols, changed), (i, j, w)

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(data=st.data(), shape=_SHAPES)
    def check(data, shape):
        m, _, n = shape
        a, b = _draw_operands(data, values, shape)
        check_target(a, b, (data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))))
        other = data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                   min_size=m, max_size=m))
        _assert_equals_default(ring, a, list(zip(*b)), other)

    check()
    if isinstance(ring, GFPolynomialRing):
        # every coefficient p - 1: each sum's middle slot is at the slot bound
        top = (ring.p - 1,) * 9
        for m, inner, n in ((1, 1, 1), (3, 4, 2), (5, 6, 5)):
            check_target([[top] * inner] * m, [[top[:inner]] * n] * inner, (m - 1, n - 1))
            check_target([[top] * inner] * m, [[top] * n] * inner, (0, 0))
    assert _assert_equals_default(ring, [], [], [])


def _packs(monkeypatch):
    """Counts the packed Z checks: each computes one slot width."""
    calls = []
    width = rings._packed_width
    monkeypatch.setattr(rings, "_packed_width", lambda *args: calls.append(args) or width(*args))
    return calls


def test_packed_integer_check_is_exact(monkeypatch):
    ring, rng, width = IntegerRing(), random.Random(8), rings._packed_width
    packs = _packs(monkeypatch)
    for m, inner, n, bits in ((5, 9, 12, 100), (8, 8, 8, 3), (3, 1, 9, 256), (9, 16, 10, 40)):
        a = [[rng.randint(-2**bits, 2**bits) for _ in range(inner)] for _ in range(m)]
        cols = [[rng.randint(-2**bits, 2**bits) for _ in range(inner)] for _ in range(n)]
        product = ring.matmul(a, cols)
        assert _assert_equals_default(ring, a, cols, product)
        w = width(rings._int_bits(a), list(zip(*cols)), product)
        for i, j in ((0, 0), (m - 1, n - 1), (m // 2, n // 2)):
            # one, half a slot and a whole slot: the last carries into slot j + 1
            for step in (1, -1, 2 ** (w - 1), -2 ** (w - 1), 2 ** w, -2 ** w):
                changed = [list(r) for r in product]
                changed[i][j] += step
                assert not _assert_equals_default(ring, a, cols, changed), (i, j, step)
        # a target of another shape, even one that agrees where it overlaps
        for short in (product[:-1], [r[:-1] for r in product], product + [product[-1]],
                      [r + [0] for r in product]):
            assert not _assert_equals_default(ring, a, cols, short)
    assert len(packs) == 4 * (1 + 3 * 6)


def test_packed_integer_check_at_the_width_bound(monkeypatch):
    # inner = 2**k - 1 products of (2**b - 1)-sized entries with alternating
    # signs reach (2**k - 1)(2**b - 1)**2 in each entry, just below the
    # bound 2**(2b + k) that the width allows, and adjacent slots borrow
    ring = IntegerRing()
    packs = _packs(monkeypatch)
    for b, k in ((1, 1), (7, 3), (64, 4), (256, 5)):
        top, inner = 2 ** b - 1, 2 ** k - 1
        a = [[top * (-1) ** i] * inner for i in range(3)]
        cols = [[top * (-1) ** j] * inner for j in range(9)]
        product = ring.matmul(a, cols)
        assert max(abs(v) for r in product for v in r) == inner * top * top
        assert _assert_equals_default(ring, a, cols, product)
        for step in (1, -1):
            changed = [list(r) for r in product]
            changed[1][4] += step
            assert not _assert_equals_default(ring, a, cols, changed)
    # sixteen products of 1 and 2**9 sum to 2**13, four bits past the
    # entries' own: without bitlen(inner) in w it would fill slot 0 exactly
    # and, with the -1 beside it, pack to the zero row
    cols = [[2 ** 9] * 16, [-1] + [0] * 15] + [[0] * 16] * 6
    assert not _assert_equals_default(ring, [[1] * 16], cols, [[0] * 8])
    assert len(packs) == 4 * 3 + 1


def test_packed_integer_check_on_zero_and_small_products(monkeypatch):
    ring = IntegerRing()
    packs = _packs(monkeypatch)
    zero = [[0] * 8 for _ in range(8)]
    assert _assert_equals_default(ring, zero, zero, zero)
    one = [r[:] for r in zero]
    one[7][7] = 1
    assert not _assert_equals_default(ring, zero, zero, one)
    assert not _assert_equals_default(ring, zero, zero, zero[:-1])
    assert len(packs) == 2
    # under 8 columns, or left entries past 256 bits: the plain products
    rng = random.Random(9)
    for m, n, bits in ((6, 7, 40), (8, 8, 257)):
        a = [[rng.randint(-2**bits, 2**bits) for _ in range(m)] for _ in range(m)]
        a[0][0] = 2 ** bits
        cols = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        assert _assert_equals_default(ring, a, cols, ring.matmul(a, cols))
    assert len(packs) == 2
    # an empty inner dimension packs nothing: every product row is zero
    assert _assert_equals_default(ring, [[]] * 3, [[]] * 9, [[0] * 9] * 3)
    assert not _assert_equals_default(ring, [[]] * 3, [[]] * 9, [[0] * 8 + [1]] * 3)
    assert len(packs) == 4


_LOWER = {  # [[a, 0], [b, c]] with aR + bR + cR = R
    "z": [[2, 0], [3, 5]],
    "zmod:360": [[8, 0], [3, 9]],
    "gfpoly:p": [[[0, 1], []], [[1, 1], [1, 0, 1]]],
    "text:z,q": [[[2, "1/2"], [0, 0]], [[3, 0], [5, "1/3"]]],
    "product:zmod:4,z": [[[2, 2], [0, 0]], [[1, 3], [3, 5]]],
}


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:2", "gfpoly:5", "gfpoly:1000003",
                                  "text:z,q", "product:zmod:4,z"])
def test_verify_reduction_sees_every_single_change(spec):
    # every single-entry change of P, Pinv, Q, Qinv or D breaks a product
    # check or the shape of D: each change is a unit or, over Z x| Q, a
    # module part that no row of an invertible matrix annihilates
    a, snf = _reduced(spec)
    ring = a.ring
    lower = RingMatrix(ring, [[ring.value_from_json(v) for v in row]
                              for row in _LOWER["gfpoly:p" if spec.startswith("gfpoly") else spec]])
    for mat, result in ((a, snf), (lower, reduce_2x2(lower))):
        assert verify_reduction(mat, result)
        for name in ("P", "Pinv", "Q", "Qinv", "D"):
            data = getattr(result, name).data
            for i, row in enumerate(data):
                for j, v in enumerate(row):
                    for w in _single_changes(ring, v):
                        rows = [list(r) for r in data]
                        rows[i][j] = w
                        changed = dataclasses.replace(
                            result, **{name: RingMatrix._trusted(ring, rows)})
                        assert not verify_reduction(mat, changed), (name, i, j, w)


# -- whole documents: kernels against the generic methods ------------------------

_GENERIC = [(GFPolynomialRing, "dot", Ring.dot), (ProductRing, "dot", Ring.dot),
            (TrivialExtensionRing, "dot", Ring.dot),
            (IntegerRing, "matmul", Ring.matmul), (ModularRing, "matmul", Ring.matmul),
            (GFPolynomialRing, "to_check", Ring.to_check),
            (ProductRing, "to_check", Ring.to_check),
            (TrivialExtensionRing, "to_check", Ring.to_check),
            (IntegerRing, "fma", Ring.fma),
            (ModularRing, "fma", Ring.fma), (GFPolynomialRing, "fma", Ring.fma),
            (TrivialExtensionRing, "fma", Ring.fma),
            (TrivialExtensionRing, "add", staticmethod(_plain_add)),
            (TrivialExtensionRing, "mul", staticmethod(_plain_mul))]

# the work rings of the sweep and the closed-form associates
_GENERIC_WORK = [(GFPolynomialRing, "to_work", Ring.to_work),
                 (TruncatedSeriesRing, "to_work", Ring.to_work),
                 (IntegerRing, "canonical_associate", Ring.canonical_associate),
                 (ModularRing, "canonical_associate", Ring.canonical_associate),
                 (GFPolynomialRing, "canonical_associate", Ring.canonical_associate),
                 (IntegerRing, "associate_unit", Ring.associate_unit),
                 (GFPolynomialRing, "associate_unit", Ring.associate_unit),
                 (TruncatedSeriesRing, "divides", Ring.divides),
                 (TruncatedSeriesRing, "associate_unit", Ring.associate_unit),
                 (TruncatedSeriesRing, "canonical_associate", Ring.canonical_associate)]

# series:4 documents whose entries have zero and nonzero constant terms
_SERIES_REQUESTS = [
    ("snf", "series:4", [[{"constant": 0, "coeffs": [2, "1/3"]}, {"constant": 6, "coeffs": ["-1/2"]}],
                         [{"constant": 4, "coeffs": [0, 0, 5]}, {"constant": 0, "coeffs": [0, "3/4", 1]}]]),
    ("snf", "series:4", [[{"constant": 0, "coeffs": [0, 3]}, {"constant": 0, "coeffs": ["2/5", 1]},
                          {"constant": -9, "coeffs": [1]}],
                         [{"constant": 0, "coeffs": [6, 0, "-1/7"]}, {"constant": 12, "coeffs": []},
                          {"constant": 0, "coeffs": [0, 0, 0, 2]}]]),
    ("reduce2x2", "series:4", [[{"constant": 2, "coeffs": [1]}, {"constant": 0}],
                               [{"constant": 3, "coeffs": ["1/2"]}, {"constant": 0, "coeffs": [1]}]])]


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


def test_work_rings_and_closed_forms_leave_every_document_unchanged(monkeypatch):
    requests = [CommandRequest(command=command, ring=spec, output=output,
                               payload=json.dumps({"rows": rows}))
                for command, spec, rows in _kernel_requests() + [
                    ("snf", "z", [[4, -6, 9], [0, 15, -3], [-8, 2, 7]]),
                    ("reduce2x2", "z", [[-3, 0], [4, 5]])] + _SERIES_REQUESTS
                for output in ("json", "pretty")]
    with_overrides = [dispatch(req) for req in requests]
    assert all(code == 0 for code, _ in with_overrides)
    for cls, name, generic in _GENERIC_WORK:
        monkeypatch.setattr(cls, name, generic)
    assert [dispatch(req) for req in requests] == with_overrides
