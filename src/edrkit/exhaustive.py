"""Exhaustive checkers for finite rings and finite quotients: the test oracle.

``stability.check_property`` and ``stability.is_stable`` answer on finite
rings from the structure theorem (every finite commutative ring has all five
properties) and call nothing here.  These checkers reach the same verdicts by
search, with code that shares nothing with that argument, so the tests
compare the two; they also fail on hand-built structures that are not rings,
which shows that each one can.  No request path imports this module; it
stays in ``src/`` because the benchmark's per-layer tracer wraps the
checkers and the structures by name.

Each negative verdict comes with a concrete witness that re-checks
independently, and every verdict and witness is the one an element-by-element
search in element order returns.  The checkers search the lattice of
principal ideals rather than the element table: stable range 1, local
stability and neat range 1 see a pair (u, v) only through u and the ideal vR
(u + v*t ranges over the coset u + vR, and uR + vR = R holds on all of that
coset or on none of it), so they visit one generator per principal ideal and
one element per coset, and decide each quotient R/wR once per ideal wR.

Which structure each ring kind gets (``structure_for``):

- Z/m: ``ModStructure``, in closed form.  The principal ideals are gR for the
  divisors g of m, the coset u + gR is keyed by u mod g and starts at u < g.
  A check costs about (number of divisors) x m steps.
- GF(p)[x]/(f): ``PolyModStructure``, in closed form.  The principal ideals
  are gR for the monic divisors g of f and the coset key is x mod g.
- products: ``ProductStructure``, built from the factors' structures and
  decided factor by factor.  Units, unit + idempotent sums and the
  quotient-verdict sets are products of factor sets (R/wR is the product of
  the factor quotients), so each coset search runs in the factors and the
  product witness is assembled in product element order.  A check costs
  about the sum of the factors' checks; no product table is built.
- everything else (trivial extensions): ``TableStructure``, dense n x n
  tables built through the ring's own operations, searched coset by coset.
  Its quotients (``QuotientTable``) are tables too, read off the parent's.

The adequate-element test is Henriksen's (Michigan Math. J. 3, 1955): a
nonzero c is adequate when every a admits c = r*t with rR + aR = R and
t'R + aR != R for every non-unit divisor t' of t.  The condition is invariant
under associates of c and of a, so it is decided on associate classes (orbits
under the units): on the closed forms these are the principal-ideal classes
(xR = yR makes x and y associates in a finite commutative ring), so Z/m costs
O(d(m)^2) class pairs, and on products it is decided factor by factor.

Caps, checked by ``structure_for`` before anything is built:
``MAX_QUOTIENT_SIZE`` elements for the closed forms, ``MAX_TABLE_SIZE`` for
tables and ``MAX_PRODUCT_SIZE`` for a product, whose factors also keep their
own caps.  They bound what a test or a direct call may build; no request
path reaches them.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from typing import Callable

from .rings import (
    ModularRing,
    ProductRing,
    Ring,
    RingElement,
    UnsupportedOperationError,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _pneg,
    _ptrim,
)

# closed-form Z/m and GF(p)[x]/(f) structures above this size are rejected
MAX_QUOTIENT_SIZE = 10_000
# tabulated structures above this size are rejected
MAX_TABLE_SIZE = 1024
# products above this size are rejected; each factor also keeps its own cap
MAX_PRODUCT_SIZE = 1_000_000


class TooLargeError(UnsupportedOperationError):
    """The exhaustive search space exceeds the supported desk scale."""


class ModStructure:
    """Z/m with arithmetic on plain ints (m >= 1; m == 1 is the zero ring).

    ``describe`` boxes an element of ``ring``, which a quotient shares: its
    elements are their least representatives there."""

    def __init__(self, m: int, ring: ModularRing | None = None):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        if m > MAX_QUOTIENT_SIZE:
            raise TooLargeError(f"quotient of size {m} exceeds {MAX_QUOTIENT_SIZE}")
        self.m = m
        self.size = m
        self.zero = 0
        self.one = 1 % m
        self._ring = ring

    def elements(self) -> range:
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

    def classes(self) -> list:
        """(gR, first generator) per divisor g of m, in element order: the zero
        ideal (generated first by 0), then gR for g < m, generated first by g."""
        m = self.m
        return [(range(0, m, g), g % m) for g in [m] + [g for g in range(1, m) if m % g == 0]]

    def first_coset(self, ideal: range, v, good=()):
        """The first u < g with u + gR missing `good` and uR + vR = R, or None."""
        g = ideal.step
        hit = {w % g for w in good}
        return next((u for u in range(g) if u not in hit and self.comaximal(u, v)), None)

    def quotient(self, c):
        return ModStructure(gcd(c, self.m), self._ring)

    def locate(self, value):
        return value

    def value(self, i):
        return i

    def describe(self, i: int) -> RingElement:
        return RingElement(self._ring, i)


def _polys(p: int, deg: int):
    """The polynomials over GF(p) of degree below deg, in element order."""
    for t in itertools.product(range(p), repeat=deg):
        yield _ptrim(list(t))


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
        return _polys(self.p, len(self.f) - 1)

    def _red(self, v):
        return _pdivmod(v, self.f, self.p)[1] if v else ()

    def add(self, x, y):
        return self._red(_padd(x, y, self.p))

    def neg(self, x):
        return self._red(_pneg(x, self.p))

    def mul(self, x, y):
        return self._red(_pmul(x, y, self.p))

    def ideal(self, x) -> tuple:
        """xR as the monic divisor g of f with xR = gR."""
        return _pgcd(x, self.f, self.p)

    def is_unit(self, x):
        return self.ideal(x) == (1,)

    def comaximal(self, x, y):
        return _pgcd(_pgcd(x, y, self.p), self.f, self.p) == (1,)

    def first_coset(self, g: tuple, v, good=()):
        """The first u, in element order, with u + gR missing `good` and
        uR + vR = R, or None.  Cosets are keyed by x mod g; only when some
        comaximal residue is missed is the element order walked."""
        p = self.p
        hit = {_pdivmod(w, g, p)[1] for w in good}
        missed = {r for r in _polys(p, len(g) - 1) if r not in hit and self.comaximal(r, v)}
        if not missed:
            return None
        return next((u for u in self.elements()
                     if _pdivmod(u, g, p)[1] in missed and self.comaximal(u, v)), None)

    def quotient(self, c):
        return PolyModStructure(self.p, self.ideal(c))


class TableStructure:
    """Dense-table structure for an arbitrary finite ring or quotient."""

    def __init__(self, elements, add, mul, neg, zero, one, describe):
        els = self._elements = list(elements)
        self.size = len(els)
        if self.size > MAX_TABLE_SIZE:
            raise TooLargeError(f"finite structure of size {self.size} exceeds {MAX_TABLE_SIZE}")
        index = self.index = {v: i for i, v in enumerate(els)}
        self.add_t = [[index[add(x, y)] for y in els] for x in els]
        self.mul_t = [[index[mul(x, y)] for y in els] for x in els]
        self.neg_t = [index[neg(x)] for x in els]
        self.zero = index[zero]
        self.one = index[one]
        self._describe = describe
        one_i = self.one
        self.units = frozenset(i for i, row in enumerate(self.mul_t) if one_i in row)
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

    def locate(self, value):
        return self.index[value]

    def value(self, i):
        return self._elements[i]

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


class QuotientTable(TableStructure):
    """Quotient of a TableStructure by the principal ideal of one element.

    Each coset is the least parent index in it; the tables are the parent's
    read through that map."""

    def __init__(self, parent: TableStructure, c):
        add_t, mul_t, neg_t = parent.add_t, parent.mul_t, parent.neg_t
        ideal = parent.ideal(c)
        rep_of = {}
        reps = []
        for x in range(parent.size):
            if x not in rep_of:  # the least member of a new coset
                reps.append(x)
                row = add_t[x]
                for i in ideal:
                    rep_of[row[i]] = x
        super().__init__(reps, lambda x, y: rep_of[add_t[x][y]],
                         lambda x, y: rep_of[mul_t[x][y]], lambda x: rep_of[neg_t[x]],
                         rep_of[parent.zero], rep_of[parent.one], parent.describe)
        self._parent = parent

    def value(self, i):
        return self._parent.value(self._elements[i])

    # a binding of its own: bench/tracing.py wraps comaximal class by class,
    # and would count each quotient call twice through an inherited one
    comaximal = TableStructure.comaximal

    def quotient(self, c):
        raise UnsupportedOperationError("nested quotients are not needed here")


class ProductStructure:
    """The product of finite structures, elements numbered in mixed radix in
    ``ProductRing.elements()`` order (the last factor varies fastest).

    Every primitive works factor by factor: units, comaximality, ``ideal`` (a
    tuple of factor ideals) and ``quotient`` (the product of the factor
    quotients).  The checkers never enumerate the product.
    """

    def __init__(self, factors, ring: ProductRing | None = None):
        self.factors = tuple(factors)
        self.size = prod(f.size for f in self.factors)
        if self.size > MAX_PRODUCT_SIZE:
            raise TooLargeError(f"product of size {self.size} exceeds {MAX_PRODUCT_SIZE}")
        if any(f.zero != 0 for f in self.factors):
            raise ValueError("product factors must number their zero first")
        self._ring = ring
        self.zero = 0
        self.one = self._join([f.one for f in self.factors])

    def _split(self, x) -> list:
        parts = []
        for f in reversed(self.factors):
            x, c = divmod(x, f.size)
            parts.append(c)
        return parts[::-1]

    def _join(self, parts) -> int:
        x = 0
        for f, c in zip(self.factors, parts):
            x = x * f.size + c
        return x

    def _only(self, j: int, c) -> int:
        """The element with component c in place j and the first element elsewhere."""
        return self._join([c if i == j else 0 for i in range(len(self.factors))])

    def elements(self) -> range:
        return range(self.size)

    def add(self, x, y):
        return self._join([f.add(a, b) for f, a, b
                           in zip(self.factors, self._split(x), self._split(y))])

    def neg(self, x):
        return self._join([f.neg(a) for f, a in zip(self.factors, self._split(x))])

    def mul(self, x, y):
        return self._join([f.mul(a, b) for f, a, b
                           in zip(self.factors, self._split(x), self._split(y))])

    def is_unit(self, x):
        return all(f.is_unit(a) for f, a in zip(self.factors, self._split(x)))

    def comaximal(self, x, y):
        return all(f.comaximal(a, b) for f, a, b
                   in zip(self.factors, self._split(x), self._split(y)))

    def ideal(self, x) -> tuple:
        return tuple(f.ideal(a) for f, a in zip(self.factors, self._split(x)))

    def quotient(self, c) -> "ProductStructure":
        return ProductStructure([f.quotient(a) for f, a in zip(self.factors, self._split(c))],
                                self._ring)

    def locate(self, value) -> int:
        return self._join([f.locate(v) for f, v in zip(self.factors, value)])

    def value(self, i) -> tuple:
        return tuple(f.value(a) for f, a in zip(self.factors, self._split(i)))

    def describe(self, i: int) -> RingElement:
        return RingElement(self._ring, self.value(i))

    def coset_row(self, rows) -> tuple:
        """(v, first, missed) of the product class made of one class row of each
        factor: the first generator, the first comaximal coset, and the first
        comaximal coset that misses a product set, each in product order."""
        firsts = [r[1] for r in rows]
        v = self._join([r[0] for r in rows])
        if None in firsts:
            return v, None, None
        missed = [self._join(firsts[:j] + [r[2]] + firsts[j + 1:])
                  for j, r in enumerate(rows) if r[2] is not None]
        return v, self._join(firsts), min(missed, default=None)

    def missed_coset(self, good: tuple) -> tuple | None:
        """``_missed_coset`` on the product set good = G_1 x ... x G_k.

        A coset of a product ideal misses good iff some factor coset misses
        its G_j, and it is comaximal iff every factor coset is.  The first
        such class in product order takes, in each factor, the first class
        with a comaximal coset, except in one factor, where it takes the first
        class with a missed one.
        """
        rows = [_coset_rows(f, g) for f, g in zip(self.factors, good)]
        firsts = [next((k for k, r in enumerate(rs) if r[1] is not None), None) for rs in rows]
        if None in firsts:
            return None
        candidates = []
        for j, rs in enumerate(rows):
            k = next((k for k, r in enumerate(rs) if r[2] is not None), None)
            if k is not None:
                candidates.append(firsts[:j] + [k] + firsts[j + 1:])
        if not candidates:
            return None
        v, _, u = self.coset_row([rs[k] for rs, k in zip(rows, min(candidates))])
        return (u, v)

    def first_inadequate(self) -> tuple:
        """``_first_inadequate`` factor by factor.

        c = r*t splits into r_j*t_j, comaximality and units are componentwise,
        and a non-unit divisor of t may be 1 in all factors but one, so c is
        adequate for a iff each c_j is adequate for a_j.  The first nonzero c
        with an inadequate component is assembled in product order.
        """
        parts = [_first_inadequate(f) for f in self.factors]
        candidates = []
        for j, (first, zero_fails) in enumerate(parts):
            if first is not None:
                candidates.append(self._only(j, first))
            if zero_fails:
                # the least nonzero element with zero in place j
                i = max((i for i, f in enumerate(self.factors) if i != j and f.size > 1),
                        default=None)
                if i is not None:
                    candidates.append(self._only(i, 1))
        return min(candidates, default=None), any(z for _, z in parts)


# -- the searches ----------------------------------------------------------------
#
# The closed forms search cosets through first_coset(); the tabulated and
# hand-built structures are searched element by element here.

_CLOSED_FORMS = (ModStructure, PolyModStructure)


def _classes(s) -> list:
    """(xR, first generator) per principal ideal of s, in element order of
    the first generator; on GF(p)[x]/(f) one gcd pass over the elements."""
    if isinstance(s, ModStructure):
        return s.classes()
    first: dict = {}
    for x in s.elements():
        first.setdefault(s.ideal(x), x)
    return list(first.items())


def _first_coset(s, ideal, v, good=()):
    """The first element u, in element order, of a coset u + vR (vR = ideal)
    that misses `good` and has uR + vR = R, or None."""
    if isinstance(s, _CLOSED_FORMS):
        return s.first_coset(ideal, v, good)
    seen: set = set()
    for u in s.elements():
        if u in seen:
            continue
        coset = {s.add(u, i) for i in ideal}
        seen |= coset
        if coset.isdisjoint(good) and s.comaximal(u, v):
            return u
    return None


def _coset_rows(s, good) -> list:
    """(v, first comaximal coset, first comaximal coset missing good) per
    principal ideal vR of s, in class order; `good` is a product set on a
    product."""
    if isinstance(s, ProductStructure):
        return [s.coset_row(combo) for combo in
                itertools.product(*(_coset_rows(f, g) for f, g in zip(s.factors, good)))]
    return [(v, _first_coset(s, ideal, v), _first_coset(s, ideal, v, good))
            for ideal, v in _classes(s)]


def _missed_coset(s, good) -> tuple | None:
    """First comaximal (u, v), by ideal class of v and then by u, whose coset
    u + vR misses the set `good`."""
    if isinstance(s, ProductStructure):
        return s.missed_coset(good)
    for ideal, v in _classes(s):
        u = _first_coset(s, ideal, v, good)
        if u is not None:
            return (u, v)
    return None


def _first_outside(s, good):
    """The first element of s, in element order, outside the set `good`."""
    if isinstance(s, ProductStructure):
        return min((s._only(j, a) for j, (f, g) in enumerate(zip(s.factors, good))
                    if (a := _first_outside(f, g)) is not None), default=None)
    return next((a for a in s.elements() if a not in good), None)


def _units(s):
    if isinstance(s, ProductStructure):
        return tuple(_units(f) for f in s.factors)
    return {x for x in s.elements() if s.is_unit(x)}


def _clean_sums(s):
    """The set of unit + idempotent sums (a product set on a product)."""
    if isinstance(s, ProductStructure):
        return tuple(_clean_sums(f) for f in s.factors)
    idempotents = [e for e in s.elements() if s.mul(e, e) == e]
    return {s.add(u, e) for u in _units(s) for e in idempotents}


def _quotient_good(s, quotient_holds):
    """The w whose quotient R/wR passes, decided once per principal ideal.  On
    a product R/wR is the product of the factor quotients, and a product
    passes exactly when its factors do (the coset of 1 is comaximal in each),
    so the set is the product of the factors' sets."""
    if isinstance(s, ProductStructure):
        return tuple(_quotient_good(f, quotient_holds) for f in s.factors)
    passing = {ideal for ideal, v in _classes(s) if quotient_holds(s.quotient(v))}
    return {w for w in s.elements() if s.ideal(w) in passing}


def stable_range_1(s) -> tuple[bool, tuple | None]:
    """Exhaustive stable range 1: every comaximal (u, v) has u + v*t a unit."""
    witness = _missed_coset(s, _units(s))
    return witness is None, witness


def is_clean(s) -> tuple[bool, tuple | None]:
    """Every element is idempotent + unit; witness is a non-clean element."""
    a = _first_outside(s, _clean_sums(s))
    return a is None, None if a is None else (a,)


def _quotient_search(s, quotient_holds) -> tuple[bool, tuple | None]:
    """Every comaximal (a, b) has some a + b*y whose quotient R/(a + b*y)R
    satisfies `quotient_holds`."""
    witness = _missed_coset(s, _quotient_good(s, quotient_holds))
    return witness is None, witness


def locally_stable(s) -> tuple[bool, tuple | None]:
    """Every comaximal (a, b) has some a + b*y with stable-range-1 quotient."""
    return _quotient_search(s, lambda q: stable_range_1(q)[0])


def neat_range_1(s) -> tuple[bool, tuple | None]:
    """Every comaximal (a, b) has some a + b*y with clean quotient."""
    return _quotient_search(s, lambda q: is_clean(q)[0])


def _associate_classes(s) -> tuple[list, Callable]:
    """First elements of the associate classes of s, in element order, and the
    map from an element to the position of its class.

    On the closed forms these are the principal-ideal classes; elsewhere they
    are computed as orbits under the units.
    """
    if isinstance(s, _CLOSED_FORMS):
        classes = _classes(s)
        position = {ideal: i for i, (ideal, _) in enumerate(classes)}
        return [v for _, v in classes], lambda x: position[s.ideal(x)]
    units = [u for u in s.elements() if s.is_unit(u)]
    position: dict = {}
    reps = []
    for x in s.elements():
        if x not in position:
            for y in {s.mul(u, x) for u in units}:
                position.setdefault(y, len(reps))
            reps.append(x)
    return reps, position.__getitem__


def _first_inadequate(s) -> tuple:
    """The first nonzero element of s that is not adequate (or None), and
    whether zero fails the same test, which a product factor needs.

    Each set of a-classes is an int bitmask, bit j for the j-th class, so one
    mask operation tests a factor pair (r, t) of classes against every a.
    """
    if isinstance(s, ProductStructure):
        return s.first_inadequate()
    reps, class_of = _associate_classes(s)
    everything = (1 << len(reps)) - 1
    # comaximal[i]: the a-classes with reps[i]*R + aR = R
    comaximal = [sum(1 << j for j, a in enumerate(reps) if s.comaximal(x, a)) for x in reps]
    # blocked[k]: the a comaximal with some non-unit divisor of class k; the
    # multiples of x are the classes of x times each representative
    blocked = [0] * len(reps)
    for i, x in enumerate(reps):
        if not s.is_unit(x):
            for k in {class_of(s.mul(x, y)) for y in reps}:
                blocked[k] |= comaximal[i]
    good = [everything & ~b for b in blocked]
    # served[k]: the a for which some factor pair (r, t) of class k qualifies;
    # the products of classes i and j fill exactly the class of reps[i]*reps[j]
    served = [0] * len(reps)
    for i, r in enumerate(reps):
        for j, t in enumerate(reps):
            served[class_of(s.mul(r, t))] |= comaximal[i] & good[j]
    first = next((c for c, mask in zip(reps, served) if c != s.zero and mask != everything),
                 None)
    return first, served[class_of(s.zero)] != everything


def all_nonzero_adequate(s) -> tuple[bool, tuple | None]:
    """Every nonzero c is adequate (Henriksen): for every a there is c = r*t
    with rR + aR = R and t'R + aR != R for every non-unit divisor t' of t.
    The witness is the first nonzero element that is not adequate."""
    c = _first_inadequate(s)[0]
    return c is None, None if c is None else (c,)


def _check_size(ring: Ring):
    """Reject a finite ring past its structure's cap before anything is built."""
    if isinstance(ring, ModularRing):
        cap = MAX_QUOTIENT_SIZE
    elif isinstance(ring, ProductRing):
        for f in ring.factors:
            _check_size(f)
        cap = MAX_PRODUCT_SIZE
    else:
        cap = MAX_TABLE_SIZE
    size = ring.cardinality()
    if size > cap:
        raise TooLargeError(f"{ring.expression()} has {size} elements, past the cap of {cap}")


def _build(ring: Ring):
    if isinstance(ring, ModularRing):
        return ModStructure(ring.n, ring)
    if isinstance(ring, ProductRing):
        return ProductStructure([_build(f) for f in ring.factors], ring)
    return TableStructure.for_ring(ring)


def structure_for(ring: Ring):
    """The exhaustive structure of a finite ring: closed form for Z/m, a
    product of the factors' structures for products, a table otherwise."""
    _check_size(ring)
    return _build(ring)
