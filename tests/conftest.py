"""Shared helpers: independent oracles and random element generators.

The oracles here deliberately avoid the library's own code paths: the
determinant oracle sums over permutations, the minor-gcd oracle enumerates
submatrices, and the extended-gcd oracle is the classic recursion.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from edrkit import RingElement, RingMatrix, element
from edrkit.rings import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
)


@pytest.fixture
def rng():
    return random.Random(0xEDC0DE)


def egcd_oracle(a, b):
    """Classic recursive extended Euclid, independent of the library."""
    if a == 0:
        return (abs(b), 0, 0 if b == 0 else (1 if b > 0 else -1))
    g, x, y = egcd_oracle(b % a, a)
    return (g, y - (b // a) * x, x)


def det_oracle(m: RingMatrix) -> RingElement:
    """Determinant as the signed sum over permutations."""
    ring = m.ring
    n = m.rows
    assert n == m.cols
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = ring.one
        for i in range(n):
            term = ring.mul(term, m.data[i][perm[i]])
        total = ring.add(total, term if sign > 0 else ring.neg(term))
    return element(ring, total)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def minor_gcd_oracle(m: RingMatrix, k: int) -> int:
    """gcd of all k x k minors of an integer matrix."""
    g = 0
    ring = m.ring
    for ri in itertools.combinations(range(m.rows), k):
        for ci in itertools.combinations(range(m.cols), k):
            sub = RingMatrix(ring, [[m.data[i][j] for j in ci] for i in ri])
            g = math.gcd(g, det_oracle(sub).value)
    return g


def random_value(ring: Ring, rng: random.Random, span: int = 50):
    if isinstance(ring, IntegerRing):
        return rng.randint(-span, span)
    if isinstance(ring, ModularRing):
        return rng.randrange(ring.n)
    if isinstance(ring, GFPolynomialRing):
        return tuple(rng.randrange(ring.p) for _ in range(rng.randint(0, 4)))
    if isinstance(ring, ProductRing):
        return tuple(random_value(f, rng, span) for f in ring.factors)
    if isinstance(ring, TrivialExtensionRing):
        return (rng.randint(-span, span),
                Fraction(rng.randint(-span, span), rng.randint(1, 20)))
    if isinstance(ring, SelfExtensionRing):
        return (random_value(ring.base, rng, span), random_value(ring.base, rng, span))
    if isinstance(ring, TruncatedSeriesRing):
        coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(rng.randint(0, ring.order)))
        return (rng.randint(-span, span), coeffs)
    raise AssertionError(f"no generator for {ring!r}")


def random_element(ring: Ring, rng: random.Random, span: int = 50) -> RingElement:
    return element(ring, random_value(ring, rng, span))
