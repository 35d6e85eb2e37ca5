"""Stable elements, unit lifting, stable-range-2 witnesses and clean quotients.

The vocabulary: an element ``a`` is *stable* when R/aR has stable range 1; a
ring is *locally stable* when every comaximal pair (a, b) admits y with a + by
stable.  This module provides the constructive selections (``select_stable``,
``lift_unit``, ``sr2_witness``), the clean-quotient decomposition
(``coprime_factorization`` + ``clean_idempotent``) and property verdicts
(``check_property``, ``is_stable``), all over the rings of :mod:`edrkit.rings`.

On finite rings the verdicts come from the structure theorem, in O(1): every
finite commutative ring has all five properties (see ``check_property``), so
nothing is searched.  The same theorem gives the one stability rule: an
element a is stable whenever R/aR is finite, which ``select_stable`` and
``is_stable`` read off ``Ring.residues_mod``.  The exhaustive checkers of
:mod:`edrkit.exhaustive` compute the same verdicts by search and serve the
tests as the oracle; this module never builds their tables.  Each step on
raw values is a ``Ring`` method, so each ring kind's rule lives in
:mod:`edrkit.rings`: a product applies its factors', A ⋉ A reads base parts.
Negative verdicts always carry a witness that re-checks independently; on
infinite rings only bounded verdicts are offered and they say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    InfiniteRingError,
    PreconditionError,
    Ring,
    RingElement,
    RingError,
    UnsupportedOperationError,
    _finite_quotient,
    _raw,
    _same_ring,
    bezout,
    zero,
)

STABLE_RANGE_1 = "stable-range-1"
CLEAN = "clean"
ADEQUATE_ELEMENT = "adequate-element"
LOCALLY_STABLE = "locally-stable"
NEAT_RANGE_1 = "neat-range-1"
PROPERTIES = (STABLE_RANGE_1, CLEAN, ADEQUATE_ELEMENT, LOCALLY_STABLE, NEAT_RANGE_1)

# the y-window echoed as ``searchBound`` by verdicts on infinite rings
SEARCH_BOUND = 1000


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a property check.

    ``holds=False`` implies a witness that re-checks as a genuine
    counterexample.  ``search_bound`` is present exactly when the ring is
    infinite, in which case a positive verdict only covers the stated window.
    """

    property: str
    holds: bool
    witness: tuple[RingElement, ...] | None = None
    search_bound: int | None = None

    def to_json(self) -> dict:
        doc: dict = {"property": self.property, "holds": self.holds}
        if self.witness is not None:
            doc["witness"] = [w.ring.value_to_json(w.value) for w in self.witness]
        if self.search_bound is not None:
            doc["searchBound"] = self.search_bound
        return doc


def is_coprime(a: RingElement, b: RingElement) -> bool:
    """True iff aR + bR = R (the recurring comaximality hypothesis)."""
    return _same_ring(a, b).comaximal([a.value, b.value])


def unit_mod(a: RingElement, c: RingElement) -> bool:
    """True iff the image of a is a unit of R/cR, i.e. aR + cR = R."""
    return is_coprime(a, c)


def select_stable(a: RingElement, b: RingElement) -> RingElement:
    """Given aR + bR = R, return y making a + b*y a stable element.

    One rule: y = 0 if R/aR is finite, else y = 1 if R/(a + b)R is finite,
    since a finite commutative ring has stable range 1 (the argument is in
    ``check_property``).  Products work componentwise.  No other y is needed:
    every infinite ring of the library that lists residues maps onto Z or
    GF(p)[x], and R/cR is finite exactly when the image of c is nonzero; if
    a maps to zero, some a + b*y has a finite quotient exactly when b does
    not, and then a + b has one.

    The ambient comaximality hypothesis of the callers is not re-checked
    here: the selection itself only needs a shift that lands on a stable
    element, and pairs like (0, 7) over the integers legitimately select
    y = 1.  Pairs admitting no such shift (e.g. (0, 0) over Z) are rejected.
    """
    ring = _same_ring(a, b)
    return _raw(ring, ring.stable_shift(a.value, b.value))


def lift_unit(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """Given aR + bR + cR = R with R/cR of stable range 1, find y with
    (a + b*y)R + cR = R.  Enumerates y over canonical residues modulo c;
    stable range 1 of the quotient guarantees a hit among them.
    """
    ring = _same_ring(a, b, c)
    return _raw(ring, ring.lift_unit(a.value, b.value, c.value))


def is_stable(a: RingElement) -> PropertyVerdict:
    """Verdict on whether R/aR has stable range 1: it holds whenever R/aR is
    finite, since every finite commutative ring has stable range 1 (the
    argument is in ``check_property``), so no quotient is built.  Elsewhere
    ``InfiniteRingError`` is raised.
    """
    if not _finite_quotient(a.ring, a.value):
        raise InfiniteRingError(
            f"stability of {a.ring.element_text(a.value)} needs a finite quotient; "
            f"{a.ring.expression()} offers none")
    return PropertyVerdict(STABLE_RANGE_1, True)


def check_property(ring: Ring, property_name: str) -> PropertyVerdict:
    """Verdict on a ring property: the structure theorem on finite rings, a
    certified counterexample on the integers.

    Every finite commutative ring R has all five properties, so a finite
    ring gets ``holds: true`` in O(1): no structure is built, nothing is
    searched and no size cap applies.  The argument:

    - R is a finite product of local rings (Atiyah-Macdonald, Thm 8.7), and
      each property below passes to a finite product component by component.
    - A local ring has stable range 1 (Bass, Publ. IHES 22, 1964): of a
      comaximal pair (a, b) one is a unit, and a + b*t is a unit for t = 0
      or t = b^-1 * (1 - a).  It is clean (Nicholson, Trans. AMS 229, 1977):
      a unit a is 0 + a, and a non-unit a is 1 + (a - 1) with a - 1 a unit.
    - Every quotient R/wR of a finite ring is finite, so it has stable
      range 1 and is clean as well: R is locally stable and has neat range
      1, with any y.
    - Adequacy (Henriksen) in a local ring, for every c, zero included, and
      every a: if a is a unit, take r = c and t = 1; otherwise take r = 1
      and t = c, since every non-unit divisor of c lies in the maximal ideal
      together with a.  On a product, c = r*t, comaximality and units split
      into components, so c is adequate for a exactly when each component is.

    The exhaustive checkers of :mod:`edrkit.exhaustive` reach the same
    verdicts by search; the tests compare the two.  On the integers only
    stable-range-1 is supported and it fails with the certified witness
    (3, 5); the reported search bound is the y-window that a sampling check
    would have used.  Other infinite rings are rejected.
    """
    if property_name not in PROPERTIES:
        raise RingError(f"unknown property {property_name!r}")
    if ring.finite:
        return PropertyVerdict(property_name, True)
    if ring.sr1_counterexample is not None and property_name == STABLE_RANGE_1:
        witness = tuple(_raw(ring, v) for v in ring.sr1_counterexample)
        return PropertyVerdict(STABLE_RANGE_1, False, witness, search_bound=SEARCH_BOUND)
    raise UnsupportedOperationError(
        f"property {property_name!r} is not checkable on {ring.expression()}")


def sr2_witness(a: RingElement, b: RingElement, c: RingElement) -> tuple[RingElement, RingElement]:
    """Stable-range-2 witness: given aR + bR + cR = R, return (y, z) with
    (a + c*y)R + (b + c*z)R = R.

    Recipe: pick t so that w = a + (b*x1 + c*y1)*t is stable (where
    b*x1 + c*y1 generates bR + cR), lift a unit d with (b + c*d) comaximal
    to w, and return (y1*t - d*x1*t, d) -- the explicit recombination that
    proves the containment.
    """
    ring = _same_ring(a, b, c)
    if is_coprime(a, b):
        return (zero(ring), zero(ring))
    if not ring.comaximal([a.value, b.value, c.value]):
        raise PreconditionError(
            f"sr2_witness requires aR + bR + cR = R, got "
            f"{', '.join(ring.element_text(e.value) for e in (a, b, c))}")
    cert1 = bezout(b, c)  # b*x1 + c*y1 = d1 generates bR + cR
    t = select_stable(a, cert1.d)
    y0 = cert1.x * t
    z0 = cert1.y * t
    w = a + cert1.d * t
    d = lift_unit(b, c, w)
    return (z0 - d * y0, d)


def coprime_factorization(c: RingElement, a: RingElement, b: RingElement
                          ) -> tuple[RingElement, RingElement]:
    """Split c = r*s with rR + sR = rR + aR = sR + bR = R, given aR + bR = R.

    Over the integers and GF(p)[x], r collects the part of c coprime to a by
    iterated gcd extraction (no factorization needed); c = 0 is refused
    there, since R/0R = R is infinite.  Over Z/n the same loop runs on the
    integer representatives, c = 0 on its representative n: c = r*s over Z
    holds mod n, gcd(r, a) = 1 over Z gives rR + aR = R, and every prime of
    s divides a, so gcd(a, b, n) = 1 gives sR + bR = R.  Products split
    factor by factor, each zero component as its factor decides.  On A ⋉ A
    the base parts split as r0*s0 = c0; with r0*u + s0*v = 1, r = (r0, v*c1)
    and s = (s0, u*c1) multiply to c, and comaximality reads the base parts.
    So every finite ring of the registry has a factorization, found with no
    search by ``Ring.coprime_split``.
    """
    ring = _same_ring(c, a, b)
    if not is_coprime(a, b):
        raise PreconditionError(
            f"coprime_factorization requires aR + bR = R, got "
            f"{ring.element_text(a.value)}, {ring.element_text(b.value)}")
    r, s = ring.coprime_split(c.value, a.value, b.value)
    return (_raw(ring, r), _raw(ring, s))


def clean_idempotent(c: RingElement, a: RingElement, b: RingElement) -> RingElement:
    """The idempotent of R/cR behind cleanness: with c = r*s and r*u + s*v = 1,
    e = s*v satisfies e^2 = e (mod c), e in a*(R/cR) and 1 - e in b*(R/cR),
    reduced by ``Ring.reduce_mod`` (a product's factor by factor).
    """
    ring = c.ring
    r, s = coprime_factorization(c, a, b)
    v = ring.unit_combination(r.value, s.value)[1]
    return _raw(ring, ring.reduce_mod(ring.mul(s.value, v), c.value))
