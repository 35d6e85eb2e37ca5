"""Properties of row completion over every ring kind.

For random rows over Z, Z/n, GF(p)[x], products and ``text:z,q``, the rings
with total Bezout:

* the row fold's coefficients x_i satisfy sum a_i x_i = g, and g is the
  fold of Bezout d's from the left (``bezout`` on boxed elements, another
  code path than the fold's raw ``bezout_raw`` calls);
* ``complete_row(row, d)``, with d the row's gcd times a unit, keeps the
  row as its exact first row and has Berkowitz determinant exactly d.

Over ``series:4`` and ``text:zmod:4,self``, whose Bezout certificates are
partial, the second property holds for the rows whose fold has a
certificate at every step; every other row is refused with
``UnsupportedOperationError``.  A series row is folded from its first entry
of nonzero constant term, so every series row with such an entry completes.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import bezout, complete_row, determinant, element, make_ring
from edrkit.completion import _row_gcd_with_coefficients
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
)

SPECS = ["z", "zmod:360", "zmod:7", "gfpoly:5", "gfpoly:2", "product:zmod:12,z",
         "product:gfpoly:3,zmod:8", "text:z,q"]
PARTIAL_SPECS = ["series:4", "text:zmod:4,self"]


def _values(ring: Ring):
    """Small normal raw values, zero drawn often."""
    if isinstance(ring, IntegerRing):
        raw = st.integers(-60, 60)
    elif isinstance(ring, ModularRing):
        raw = st.integers(0, ring.n - 1)
    elif isinstance(ring, GFPolynomialRing):
        raw = st.lists(st.integers(0, ring.p - 1), max_size=4).map(ring.normalize)
    elif isinstance(ring, ProductRing):
        raw = st.tuples(*(_values(f) for f in ring.factors))
    elif isinstance(ring, SelfExtensionRing):
        raw = st.tuples(_values(ring.base), _values(ring.base))
    elif isinstance(ring, TrivialExtensionRing):
        raw = st.tuples(st.integers(-30, 30),
                        st.fractions(min_value=-20, max_value=20, max_denominator=12))
    elif isinstance(ring, TruncatedSeriesRing):
        coeffs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                          max_size=ring.order)
        # a zero constant term half the time: such pairs have no certificate
        constant = st.one_of(st.just(0), st.integers(-12, 12))
        raw = st.tuples(constant, coeffs).map(ring.normalize)
    else:  # pragma: no cover
        raise AssertionError(f"no strategy for {ring!r}")
    return st.one_of(st.just(ring.zero), raw)


def _rows(ring: Ring, max_size: int):
    return st.lists(_values(ring), min_size=2, max_size=max_size)


def _bezout_fold(ring, row):
    if isinstance(ring, TruncatedSeriesRing):  # lead-first, as the row fold
        lead = next((i for i, v in enumerate(row) if v[0] != 0), 0)
        row = [row[lead], *row[:lead], *row[lead + 1:]]
    els = [element(ring, v) for v in row]
    return reduce(lambda g, a: bezout(g, a).d, els[1:], els[0]).value


@pytest.mark.parametrize("spec", SPECS)
def test_fold_coefficients_combine_to_the_gcd(spec):
    ring = make_ring(spec).ring

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(row=_rows(ring, 14))
    def check(row):
        g, xs = _row_gcd_with_coefficients(ring, row)
        assert g == _bezout_fold(ring, row)
        assert len(xs) == len(row)
        assert reduce(ring.add, map(ring.mul, row, xs), ring.zero) == g

    check()


@pytest.mark.parametrize("spec", SPECS)
def test_completion_keeps_the_row_and_has_determinant_d(spec):
    ring = make_ring(spec).ring

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(row=_rows(ring, 6), unit=_values(ring))
    def check(row, unit):
        _check_completion(ring, row, _bezout_fold(ring, row), unit)

    check()


def _check_completion(ring, row, g, unit):
    """complete_row(row, g*unit) keeps the row and has determinant exactly g*unit."""
    if not ring.is_unit(unit):
        unit = ring.one
    d = element(ring, ring.mul(g, unit))
    res = complete_row([element(ring, v) for v in row], d)
    n = len(row)
    assert res.matrix.rows == res.matrix.cols == n
    assert res.matrix.data[0] == tuple(row)
    assert res.d == d
    assert determinant(res.matrix) == d


@pytest.mark.parametrize("spec", PARTIAL_SPECS)
def test_completion_where_bezout_is_partial(spec):
    ring = make_ring(spec).ring
    outcomes = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(row=_rows(ring, 6), unit=_values(ring))
    def check(row, unit):
        try:
            g = _bezout_fold(ring, row)
        except UnsupportedOperationError:
            assert not (isinstance(ring, TruncatedSeriesRing) and any(v[0] for v in row))
            outcomes.add("refused")
            with pytest.raises(UnsupportedOperationError):
                complete_row([element(ring, v) for v in row], element(ring, ring.one))
            return
        outcomes.add("completed")
        _check_completion(ring, row, g, unit)

    check()
    assert outcomes == {"completed", "refused"}


def test_text_rationals_rows_in_the_square_zero_ideal():
    """Rows with every base part zero generate (0, q)R: the fold's gcd and
    cofactors come from the rational gcd branch."""
    ring = make_ring("text:z,q").ring
    row = [(0, Fraction(1, 2)), (0, Fraction(-1, 3)), (0, Fraction(5, 4))]
    g, xs = _row_gcd_with_coefficients(ring, row)
    assert g == (0, Fraction(1, 12))
    assert reduce(ring.add, map(ring.mul, row, xs), ring.zero) == g
    d = element(ring, g)
    res = complete_row([element(ring, v) for v in row], d)
    assert determinant(res.matrix) == d
