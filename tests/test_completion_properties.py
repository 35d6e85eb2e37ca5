"""Properties of row completion over every ring kind.

For random rows over Z, Z/n, GF(p)[x], products, ``text:z,q`` and
``series:4``, the rings with total Bezout:

* the row fold's coefficients x_i satisfy sum a_i x_i = g, and g is the
  fold of Bezout d's from the left (``bezout`` on boxed elements, another
  code path than the fold's raw ``Ring.egcd`` calls);
* ``complete_row(row, d)``, with d the row's gcd times a unit, keeps the
  row as its exact first row, and ``determinant``, computed from the
  matrix alone, gives exactly d.

Over ``text:zmod:4,self``, whose Bezout certificates are partial, the
second property holds for the rows whose fold has a certificate at every
step; every other row is refused with ``UnsupportedOperationError``.  A
product row is folded factor by factor.
"""

import json
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import bezout, complete_row, determinant, element, make_ring
from edrkit.cli import EXIT_OK, CommandRequest, dispatch
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
         "product:gfpoly:3,zmod:8", "text:z,q", "series:4"]
PARTIAL_SPECS = ["text:zmod:4,self"]


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
        # a zero constant term half the time
        constant = st.one_of(st.just(0), st.integers(-12, 12))
        raw = st.tuples(constant, coeffs).map(
            lambda t: ring.normalize((t[0], *t[1], *[0] * (ring.order - len(t[1])))))
    else:  # pragma: no cover
        raise AssertionError(f"no strategy for {ring!r}")
    return st.one_of(st.just(ring.zero), raw)


def _rows(ring: Ring, max_size: int):
    return st.lists(_values(ring), min_size=2, max_size=max_size)


def _bezout_fold(ring, row):
    els = [element(ring, v) for v in row]
    return reduce(lambda g, a: bezout(g, a).d, els[1:], els[0]).value


@pytest.mark.parametrize("spec", SPECS)
def test_fold_coefficients_combine_to_the_gcd(spec):
    ring = make_ring(spec)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(row=_rows(ring, 14))
    def check(row):
        g, xs = ring.row_egcd(row)
        assert g == _bezout_fold(ring, row)
        assert len(xs) == len(row)
        assert reduce(ring.add, map(ring.mul, row, xs), ring.zero) == g

    check()


@pytest.mark.parametrize("spec", SPECS)
def test_completion_keeps_the_row_and_has_determinant_d(spec):
    ring = make_ring(spec)

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
    ring = make_ring(spec)
    outcomes = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(row=_rows(ring, 6), unit=_values(ring))
    def check(row, unit):
        try:
            g = _bezout_fold(ring, row)
        except UnsupportedOperationError:
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
    ring = make_ring("text:z,q")
    row = [(0, Fraction(1, 2)), (0, Fraction(-1, 3)), (0, Fraction(5, 4))]
    g, xs = ring.row_egcd(row)
    assert g == (0, Fraction(1, 12))
    assert reduce(ring.add, map(ring.mul, row, xs), ring.zero) == g
    d = element(ring, g)
    res = complete_row([element(ring, v) for v in row], d)
    assert determinant(res.matrix) == d



@pytest.mark.parametrize("spec", ["product:series:4,z", "product:z,series:4"])
def test_product_rows_fold_a_series_factor_on_its_own(spec):
    """(x, x^2, 1) next to (2, 3, 5) over Z: each component of the product's
    fold is its factor's own fold."""
    series = [{"constant": 0, "coeffs": [1]}, {"constant": 0, "coeffs": [0, 1]},
              {"constant": 1}]
    pairs = [list(p) for p in (zip(series, [2, 3, 5]) if spec.startswith("product:series")
                               else zip([2, 3, 5], series))]
    code, out = dispatch(CommandRequest(command="complete", ring=spec,
                                        payload=json.dumps({"row": pairs})))
    assert code == EXIT_OK and json.loads(out)["verified"] is True
    ring = make_ring(spec)
    row = [ring.value_from_json(p) for p in pairs]
    g, xs = ring.row_egcd(row)
    for k, factor in enumerate(ring.factors):
        gk, xk = factor.row_egcd([a[k] for a in row])
        assert g[k] == gk and [x[k] for x in xs] == xk
