"""Row kernels: every ring's dot, axpy and col_axpy against the generic defaults.

``IntegerRing`` overrides all three kernels and ``ModularRing`` overrides
``dot`` with native integer arithmetic; the matrix engine relies on each
override returning exactly the values of the generic ``Ring`` loops.  The generic ``dot`` is itself checked
against a plain left-to-right sum that starts from zero.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import make_ring
from edrkit.rings import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    TrivialExtensionRing,
    TruncatedSeriesRing,
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

