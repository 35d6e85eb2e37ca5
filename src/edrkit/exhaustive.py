"""Brute-force checkers for finite rings and finite quotients.

Everything here enumerates: comaximality means some explicit combination hits
1, a unit means some explicit product hits 1, and each negative verdict comes
with a concrete witness that re-checks independently.  The checkers operate on
small "structures" -- a ring or quotient with indexed elements -- so the same
search code serves Z/n, GF(p)[x]/(f), products and trivial extensions.

Each checker tabulates once per call and then searches the tables.  Stable
range 1, local stability and neat range 1 see a pair (u, v) only through u
and the principal ideal vR, so they search one generator per ideal, coset by
coset, and decide each quotient R/wR once per ideal wR; a structure's
``ideal(x)`` returns xR.  The adequate-element test is Henriksen's (Michigan
Math. J. 3, 1955): a nonzero c is adequate when every a admits c = r*t with
rR + aR = R and t'R + aR != R for every non-unit divisor t' of t.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd
from typing import Any, Iterable

from .rings import (
    ModularRing,
    Ring,
    RingElement,
    UnsupportedOperationError,
    _padd,
    _pdivmod,
    _pegcd,
    _pmul,
    _pneg,
    _ptrim,
)

# quotients above this size are rejected rather than ground exhaustively
MAX_QUOTIENT_SIZE = 10_000
# dense-table structures above this size are rejected
MAX_TABLE_SIZE = 4096


class TooLargeError(UnsupportedOperationError):
    """The exhaustive search space exceeds the supported desk scale."""


class ModStructure:
    """Z/m with arithmetic on plain ints (m >= 1; m == 1 is the zero ring)."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        if m > MAX_QUOTIENT_SIZE:
            raise TooLargeError(f"quotient of size {m} exceeds {MAX_QUOTIENT_SIZE}")
        self.m = m
        self.size = m
        self.zero = 0
        self.one = 1 % m

    def elements(self) -> Iterable[int]:
        return range(self.m)

    def add(self, x, y):
        return (x + y) % self.m

    def neg(self, x):
        return (-x) % self.m

    def mul(self, x, y):
        return (x * y) % self.m

    def is_unit(self, x):
        return gcd(x, self.m) == 1

    def comaximal(self, x, y):
        return gcd(gcd(x, y), self.m) == 1

    def ideal(self, x) -> range:
        # xR is the multiples of gcd(x, m); a range is that set in closed form
        return range(0, self.m, gcd(x, self.m))

    def quotient(self, c):
        g = gcd(c, self.m)
        return ModStructure(g if g else self.m)


class PolyModStructure:
    """GF(p)[x]/(f) for nonzero f, elements as coefficient tuples."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        if not modulus:
            raise ValueError("modulus polynomial must be nonzero")
        self.p = p
        self.f = modulus
        deg = len(modulus) - 1
        self.size = p ** deg
        if self.size > MAX_QUOTIENT_SIZE:
            raise TooLargeError(f"quotient of size {self.size} exceeds {MAX_QUOTIENT_SIZE}")
        self.zero = ()
        self.one = (1,) if deg >= 1 else ()

    def elements(self):
        deg = len(self.f) - 1
        for t in itertools.product(range(self.p), repeat=deg):
            yield _ptrim(list(t))

    def _red(self, v):
        return _pdivmod(v, self.f, self.p)[1] if v else ()

    def add(self, x, y):
        return self._red(_padd(x, y, self.p))

    def neg(self, x):
        return self._red(_pneg(x, self.p))

    def mul(self, x, y):
        return self._red(_pmul(x, y, self.p))

    def is_unit(self, x):
        g, _, _ = _pegcd(x, self.f, self.p)
        return len(g) == 1

    def comaximal(self, x, y):
        g, _, _ = _pegcd(x, y, self.p)
        h, _, _ = _pegcd(g, self.f, self.p)
        return len(h) == 1

    def ideal(self, x) -> frozenset:
        return frozenset(self.mul(x, t) for t in self.elements())


class TableStructure:
    """Dense-table structure for an arbitrary finite ring or quotient."""

    def __init__(self, elements, add, mul, neg, zero, one, describe):
        self._elements = list(elements)
        self.size = len(self._elements)
        if self.size > MAX_TABLE_SIZE:
            raise TooLargeError(f"finite structure of size {self.size} exceeds {MAX_TABLE_SIZE}")
        self.index = {v: i for i, v in enumerate(self._elements)}
        n = self.size
        els = self._elements
        self.add_t = [[self.index[add(els[i], els[j])] for j in range(n)] for i in range(n)]
        self.mul_t = [[self.index[mul(els[i], els[j])] for j in range(n)] for i in range(n)]
        self.neg_t = [self.index[neg(els[i])] for i in range(n)]
        self.zero = self.index[zero]
        self.one = self.index[one]
        self._describe = describe
        one_i = self.one
        self.units = frozenset(
            i for i in range(n) if any(self.mul_t[i][j] == one_i for j in range(n)))
        self._ideals: dict[int, frozenset[int]] = {}
        self._distinct_ideals: dict[frozenset[int], frozenset[int]] = {}
        self._one_minus_ideals: dict[int, frozenset[int]] = {}

    @classmethod
    def for_ring(cls, ring: Ring) -> "TableStructure":
        return cls(ring.elements(), ring.add, ring.mul, ring.neg, ring.zero, ring.one,
                   lambda v: RingElement(ring, v))

    def elements(self):
        return range(self.size)

    def describe(self, i: int):
        return self._describe(self._elements[i])

    def add(self, x, y):
        return self.add_t[x][y]

    def neg(self, x):
        return self.neg_t[x]

    def mul(self, x, y):
        return self.mul_t[x][y]

    def is_unit(self, x):
        return x in self.units

    def ideal(self, x) -> frozenset[int]:
        """xR, one shared frozenset for all generators of the same ideal."""
        cached = self._ideals.get(x)
        if cached is None:
            row = frozenset(self.mul_t[x])
            cached = self._ideals[x] = self._distinct_ideals.setdefault(row, row)
        return cached

    def comaximal(self, x, y):
        # 1 in xR + yR  <=>  xR meets { 1 - q : q in yR }
        om = self._one_minus_ideals.get(y)
        if om is None:
            om = frozenset(self.add_t[self.one][self.neg_t[q]] for q in self.ideal(y))
            self._one_minus_ideals[y] = om
        return not self.ideal(x).isdisjoint(om)

    def quotient(self, c) -> "QuotientTable":
        return QuotientTable(self, c)


class QuotientTable:
    """Quotient of a TableStructure by the principal ideal of one element."""

    def __init__(self, parent: TableStructure, c):
        ideal = parent.ideal(c)
        rep_of = {}
        reps = []
        for x in range(parent.size):
            if x in rep_of:
                continue
            coset = sorted(parent.add(x, i) for i in ideal)
            r = coset[0]
            reps.append(r)
            for member in coset:
                rep_of[member] = r
        reps = sorted(set(reps))
        idx = {r: i for i, r in enumerate(reps)}
        n = len(reps)
        self.size = n
        self.add_t = [[idx[rep_of[parent.add(reps[i], reps[j])]] for j in range(n)]
                      for i in range(n)]
        self.mul_t = [[idx[rep_of[parent.mul(reps[i], reps[j])]] for j in range(n)]
                      for i in range(n)]
        self.neg_t = [idx[rep_of[parent.neg(reps[i])]] for i in range(n)]
        self.zero = idx[rep_of[parent.zero]]
        self.one = idx[rep_of[parent.one]]
        self._parent = parent
        self._reps = reps
        one_i = self.one
        self.units = frozenset(
            i for i in range(n) if any(self.mul_t[i][j] == one_i for j in range(n)))
        self._ideals: dict[int, frozenset[int]] = {}
        self._distinct_ideals: dict[frozenset[int], frozenset[int]] = {}
        self._one_minus_ideals: dict[int, frozenset[int]] = {}

    def elements(self):
        return range(self.size)

    def describe(self, i: int):
        return self._parent.describe(self._reps[i])

    add = TableStructure.add
    neg = TableStructure.neg
    mul = TableStructure.mul
    is_unit = TableStructure.is_unit
    ideal = TableStructure.ideal
    comaximal = TableStructure.comaximal

    def quotient(self, c):
        raise UnsupportedOperationError("nested quotients are not needed here")


def _ideal_classes(s) -> dict:
    """The elements of s grouped by the principal ideal they generate.

    Maps each distinct ideal xR to its generators in element order.  The keys
    are the only copies kept, so equal ideals share one object.
    """
    classes: dict[Any, list] = {}
    for x in s.elements():
        classes.setdefault(s.ideal(x), []).append(x)
    return classes


def _missed_coset(s, classes: dict, good) -> tuple | None:
    """First comaximal (u, v) whose coset u + vR misses the set `good`.

    Both conditions see v only through vR: u + v*t ranges over u + vR, and
    uR + vR = R holds on all of that coset or on none of it.  So each ideal is
    searched once, through its first generator, one coset at a time.
    """
    for ideal, generators in classes.items():
        v = generators[0]
        seen: set = set()
        for u in s.elements():
            if u in seen:
                continue
            coset = {s.add(u, i) for i in ideal}
            seen |= coset
            if good.isdisjoint(coset) and s.comaximal(u, v):
                return (u, v)
    return None


def stable_range_1(s) -> tuple[bool, tuple | None]:
    """Exhaustive stable range 1: every comaximal (u, v) has u + v*t a unit."""
    units = {x for x in s.elements() if s.is_unit(x)}
    witness = _missed_coset(s, _ideal_classes(s), units)
    return witness is None, witness


@lru_cache(maxsize=256)
def int_quotient_stable_range_1(m: int) -> bool:
    """Stable range 1 of Z/m (m <= MAX_QUOTIENT_SIZE), cached for the last 256 moduli."""
    return stable_range_1(ModStructure(m))[0]


def is_clean(s) -> tuple[bool, tuple | None]:
    """Every element is idempotent + unit; witness is a non-clean element."""
    idem = [e for e in s.elements() if s.mul(e, e) == e]
    for a in s.elements():
        if not any(s.is_unit(s.add(a, s.neg(e))) for e in idem):
            return False, (a,)
    return True, None


def _quotient_search(s, quotient_holds) -> tuple[bool, tuple | None]:
    """Every comaximal (a, b) has some a + b*y whose quotient R/(a + b*y)R
    satisfies `quotient_holds`; the quotient, hence the verdict, is decided
    once per principal ideal."""
    classes = _ideal_classes(s)
    good = {w for gens in classes.values() if quotient_holds(s.quotient(gens[0]))
            for w in gens}
    witness = _missed_coset(s, classes, good)
    return witness is None, witness


def locally_stable(s) -> tuple[bool, tuple | None]:
    """Every comaximal (a, b) has some a + b*y with stable-range-1 quotient."""
    return _quotient_search(s, lambda q: stable_range_1(q)[0])


def neat_range_1(s) -> tuple[bool, tuple | None]:
    """Every comaximal (a, b) has some a + b*y with clean quotient."""
    return _quotient_search(s, lambda q: is_clean(q)[0])


def all_nonzero_adequate(s) -> tuple[bool, tuple | None]:
    """Every nonzero c is adequate (Henriksen): for every a there is c = r*t
    with rR + aR = R and t'R + aR != R for every non-unit divisor t' of t.

    Works on tables of element positions built once.  Each set of candidate
    elements a is an int bitmask, bit j standing for the j-th element, so one
    mask operation tests a factor pair (r, t) of c against every a at once.
    The witness is the first nonzero element that is not adequate.
    """
    els = list(s.elements())
    pos = {x: i for i, x in enumerate(els)}
    everything = (1 << len(els)) - 1
    # product[i][j]: position of els[i] * els[j]
    product = [[pos[s.mul(r, t)] for t in els] for r in els]
    # comaximal[i]: the a with els[i]*R + aR = R
    comaximal = [sum(1 << j for j, a in enumerate(els) if s.comaximal(x, a)) for x in els]
    # blocked[k]: the a comaximal with some non-unit divisor of els[k]
    blocked = [0] * len(els)
    for i, x in enumerate(els):
        if not s.is_unit(x):
            for k in set(product[i]):
                blocked[k] |= comaximal[i]
    good = [everything & ~b for b in blocked]
    # served[k]: the a for which some factor pair (r, t) of els[k] qualifies
    served = [0] * len(els)
    for i, row in enumerate(product):
        for j, k in enumerate(row):
            served[k] |= comaximal[i] & good[j]
    for c, mask in zip(els, served):
        if c != s.zero and mask != everything:
            return False, (c,)
    return True, None


class ModStructureView(ModStructure):
    """ModStructure that can describe its elements as RingElements."""

    def __init__(self, ring: ModularRing):
        super().__init__(ring.n)
        self._ring = ring

    def describe(self, i: int) -> RingElement:
        return RingElement(self._ring, i)


def structure_for(ring: Ring):
    """Pick the cheapest exhaustive structure for a finite ring."""
    if isinstance(ring, ModularRing):
        return ModStructureView(ring)
    return TableStructure.for_ring(ring)
