"""Stable elements, unit lifting, stable-range-2 witnesses and clean quotients.

The vocabulary: an element ``a`` is *stable* when R/aR has stable range 1; a
ring is *locally stable* when every comaximal pair (a, b) admits y with a + by
stable.  This module provides the constructive selections (``select_stable``,
``lift_unit``, ``sr2_witness``), the clean-quotient decomposition
(``coprime_factorization`` + ``clean_idempotent``) and property verdicts
(``check_property``, ``is_stable``), all over the rings of :mod:`edrkit.rings`.

On finite rings the verdicts come from the structure theorem, in O(1): every
finite commutative ring has all five properties (see ``check_property``), so
nothing is searched.  The exhaustive checkers of :mod:`edrkit.exhaustive`
compute the same verdicts by search and serve the tests as the oracle; this
module never builds their tables.  On a trivial extension A ⋉ A the ideal
0 ⋉ A squares to zero, so comaximality, unit combinations and coprime
factorizations are read off the base parts.  Negative verdicts always carry
a witness that re-checks independently; on infinite rings only bounded
verdicts are offered and they say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .rings import (
    GFPolynomialRing,
    InfiniteRingError,
    IntegerRing,
    ModularRing,
    PreconditionError,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
    UnsupportedOperationError,
    _pdivmod,
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

# default y-window echoed by bounded verdicts on infinite rings
DEFAULT_SEARCH_WINDOW = 1000


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


def _comaximal(ring: Ring, values: list) -> bool:
    """True iff the raw values generate R, that is sum(v R) = R.

    Where Bezout is total this folds ``Ring.gcd`` and asks whether the
    result is a unit: no cofactors are built.  Truncated series lead with a
    value of nonzero constant term, the only way a combination reaches 1,
    which keeps every gcd of the fold supported.  Products go factor by
    factor.  On A ⋉ A the ideal 0 ⋉ A squares to zero, so the values
    generate R exactly when their base parts generate A: if the base parts
    combine to 1, the same combination of the values is (1, e), a unit.
    """
    if ring.bezout_total:
        return ring.is_unit(reduce(ring.gcd, values))
    if isinstance(ring, TruncatedSeriesRing):
        lead = next((i for i, v in enumerate(values) if v[0] != 0), None)
        if lead is None:
            return False
        values = [values[lead]] + values[:lead] + values[lead + 1:]
        return ring.is_unit(reduce(ring.gcd, values))
    if isinstance(ring, ProductRing):
        return all(_comaximal(f, [v[k] for v in values]) for k, f in enumerate(ring.factors))
    if isinstance(ring, SelfExtensionRing):
        return _comaximal(ring.base, [v[0] for v in values])
    raise UnsupportedOperationError(
        f"comaximality is not decidable for {ring.expression()}")


def is_coprime(a: RingElement, b: RingElement) -> bool:
    """True iff aR + bR = R (the recurring comaximality hypothesis)."""
    return _comaximal(_same_ring(a, b), [a.value, b.value])


def unit_mod(a: RingElement, c: RingElement) -> bool:
    """True iff the image of a is a unit of R/cR, i.e. aR + cR = R."""
    return is_coprime(a, c)


def select_stable(a: RingElement, b: RingElement) -> RingElement:
    """Given aR + bR = R, return y making a + b*y a stable element.

    Strategy per ring kind: finite rings take y = 0 (every element of a
    finite ring is stable); integers and GF(p)[x] take the first y in the
    order 0, 1, -1, 2, -2, ... with a + b*y nonzero (nonzero means finite,
    hence stable-range-1, quotient); truncated series shift the constant
    term the same way; trivial extensions shift the base component; products
    work componentwise.

    The ambient comaximality hypothesis of the callers is not re-checked
    here: the selection itself only needs a shift that lands on a stable
    element, and pairs like (0, 7) over the integers legitimately select
    y = 1.  Pairs admitting no stable shift (e.g. (0, 0)) are rejected.
    """
    ring = _same_ring(a, b)
    if a.is_zero() and b.is_zero():
        raise PreconditionError("select_stable: no shift of (0, 0) is stable")
    if ring.finite:
        return zero(ring)
    if isinstance(ring, ProductRing):
        parts = []
        for f, av, bv in zip(ring.factors, a.value, b.value):
            parts.append(select_stable(_raw(f, av), _raw(f, bv)).value)
        return _raw(ring, tuple(parts))
    if isinstance(ring, (IntegerRing, GFPolynomialRing)):
        for yv in ring.search_order():
            if ring.add(a.value, ring.mul(b.value, yv)) != ring.zero:
                return _raw(ring, yv)
    if isinstance(ring, TruncatedSeriesRing):
        if a.value[0] == 0 and b.value[0] == 0:
            raise PreconditionError(
                "select_stable: both constant terms vanish, no shift is stable")
        for kv in ring.search_order():
            if a.value[0] + b.value[0] * kv[0] != 0:
                return _raw(ring, kv)
    if isinstance(ring, (TrivialExtensionRing, SelfExtensionRing)):
        base = ring.base
        if a.value[0] == base.zero and b.value[0] == base.zero:
            raise PreconditionError(
                "select_stable: both base components vanish, no shift is stable")
        for kv in base.search_order():
            if base.add(a.value[0], base.mul(b.value[0], kv)) != base.zero:
                return _raw(ring, ring.normalize((kv, ring.zero[1])))
    raise UnsupportedOperationError(
        f"no stable-selection strategy for {ring.expression()}")


def lift_unit(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """Given aR + bR + cR = R with R/cR of stable range 1, find y with
    (a + b*y)R + cR = R.  Enumerates y over canonical residues modulo c;
    stable range 1 of the quotient guarantees a hit among them.
    """
    ring = _same_ring(a, b, c)
    if isinstance(ring, ProductRing):
        parts = []
        for f, av, bv, cv in zip(ring.factors, a.value, b.value, c.value):
            parts.append(lift_unit(_raw(f, av), _raw(f, bv), _raw(f, cv)).value)
        return _raw(ring, tuple(parts))
    av, bv, cv = a.value, b.value, c.value
    if not _comaximal(ring, [av, bv, cv]):
        raise PreconditionError(
            f"lift_unit requires aR + bR + cR = R, got {a!r}, {b!r}, {c!r}")
    try:
        residues = ring.residues_mod(cv)
    except UnsupportedOperationError:
        if _comaximal(ring, [av, cv]):
            return zero(ring)
        raise PreconditionError(
            f"quotient by {c!r} admits no residue enumeration and y = 0 fails")
    add, mul = ring.add, ring.mul
    for yv in residues:
        if _comaximal(ring, [add(av, mul(bv, yv)), cv]):
            return _raw(ring, yv)
    raise RuntimeError(
        "internal error: unit lift search exhausted although the precondition held")


def is_stable(a: RingElement) -> PropertyVerdict:
    """Verdict on whether R/aR has stable range 1, in O(1).

    R/aR is finite for any element of a finite ring and for a nonzero
    integer or nonzero GF(p)[x] polynomial, and every finite commutative
    ring has stable range 1 (the argument is in ``check_property``), so the
    verdict holds and no quotient is built.  The quotient by zero in Z or
    GF(p)[x] is the whole ring, and the other infinite rings offer no
    finite quotient: both raise ``InfiniteRingError``.
    """
    ring = a.ring
    if isinstance(ring, IntegerRing) and a.value == 0:
        raise InfiniteRingError("the quotient by 0 is the whole ring of integers")
    if isinstance(ring, GFPolynomialRing) and a.value == ():
        raise InfiniteRingError("the quotient by 0 is the whole polynomial ring")
    if ring.finite or isinstance(ring, (IntegerRing, GFPolynomialRing)):
        return PropertyVerdict(STABLE_RANGE_1, True)
    raise InfiniteRingError(
        f"stability of {a!r} needs a finite quotient; {ring.expression()} offers none")


def _certified_integer_sr1_counterexample(ring: Ring) -> tuple[RingElement, RingElement]:
    # 3 + 5y is a unit of Z only for 3 + 5y in {1, -1}; neither linear
    # equation has an integer solution, so (3, 5) is a proven witness.
    assert (1 - 3) % 5 != 0 and (-1 - 3) % 5 != 0
    return (_raw(ring, 3), _raw(ring, 5))


def check_property(ring: Ring, property_name: str, bound: int | None = None) -> PropertyVerdict:
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
    if isinstance(ring, IntegerRing) and property_name == STABLE_RANGE_1:
        window = bound if bound is not None else DEFAULT_SEARCH_WINDOW
        witness = _certified_integer_sr1_counterexample(ring)
        return PropertyVerdict(STABLE_RANGE_1, False, witness, search_bound=window)
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
    if not _comaximal(ring, [a.value, b.value, c.value]):
        raise PreconditionError(
            f"sr2_witness requires aR + bR + cR = R, got {a!r}, {b!r}, {c!r}")
    cert1 = bezout(b, c)  # b*x1 + c*y1 = d1 generates bR + cR
    t = select_stable(a, cert1.d)
    y0 = cert1.x * t
    z0 = cert1.y * t
    w = a + cert1.d * t
    d = lift_unit(b, c, w)
    return (z0 - d * y0, d)


def coprime_factorization(c: RingElement, a: RingElement, b: RingElement
                          ) -> tuple[RingElement, RingElement]:
    """Split c = r*s with rR + sR = rR + aR = sR + bR = R (aR + bR = R, c != 0).

    Over the integers and GF(p)[x], r collects the part of c coprime to a by
    iterated gcd extraction (no factorization needed).  Over Z/n the same
    loop runs on the integer representatives: c = r*s over Z holds mod n,
    gcd(r, a) = 1 over Z gives rR + aR = R, and every prime of s divides a,
    so gcd(a, b, n) = 1 gives sR + bR = R.  Products split factor by factor;
    a zero component over Z/n runs the loop on its representative n, and one
    over an infinite factor is refused as c = 0 is.  On A ⋉ A the base parts
    split as r0*s0 = c0; with r0*u + s0*v = 1, r = (r0, v*c1) and
    s = (s0, u*c1) multiply to c, and comaximality reads the base parts only.
    So every finite ring of the registry has a factorization, found with no
    search.
    """
    ring = _same_ring(c, a, b)
    if c.is_zero():
        raise PreconditionError("coprime_factorization needs c != 0")
    if not is_coprime(a, b):
        raise PreconditionError(
            f"coprime_factorization requires aR + bR = R, got {a!r}, {b!r}")
    r, s = _coprime_split(ring, c.value, a.value, b.value)
    return (_raw(ring, r), _raw(ring, s))


def _coprime_split(ring: Ring, c, a, b) -> tuple:
    """coprime_factorization on raw values, with aR + bR = R already checked."""
    if isinstance(ring, ProductRing):
        parts = [_coprime_split(*args) for args in zip(ring.factors, c, a, b)]
        return tuple(r for r, _ in parts), tuple(s for _, s in parts)
    if isinstance(ring, ModularRing):
        # the Z loop on representatives, where a zero component stands for n
        r, s = _coprime_split(IntegerRing(), c or ring.n, a, b)
        return (r % ring.n, s % ring.n)
    if isinstance(ring, (IntegerRing, GFPolynomialRing)):
        if c == ring.zero:
            raise PreconditionError(
                f"coprime_factorization needs c != 0 in {ring.expression()}")
        r, s = c, ring.one
        while not ring.is_unit(g := ring.gcd(r, a)):
            r, s = ring.divide_exact(r, g), ring.mul(s, g)
        return (r, s)
    if isinstance(ring, SelfExtensionRing):
        base = ring.base
        r0, s0 = _coprime_split(base, c[0], a[0], b[0])
        u, v = _unit_combination(base, r0, s0)
        return (r0, base.mul(v, c[1])), (s0, base.mul(u, c[1]))
    raise UnsupportedOperationError(
        f"coprime_factorization is not supported on {ring.expression()}")


def _unit_combination(ring: Ring, r, s) -> tuple:
    """(u, v) with r*u + s*v = 1, for raw values with rR + sR = R.

    Where Bezout is total the certificate r*x + s*y = d is scaled by the
    unit d^-1, and products go factor by factor.  On A ⋉ A the base's
    combination gives r*u0 + s*v0 = (1, e), whose inverse is (1, -e).
    """
    if isinstance(ring, ProductRing):
        parts = [_unit_combination(*args) for args in zip(ring.factors, r, s)]
        return tuple(u for u, _ in parts), tuple(v for _, v in parts)
    if isinstance(ring, SelfExtensionRing):
        base = ring.base
        u0, v0 = _unit_combination(base, r[0], s[0])
        ne = base.neg(base.add(base.mul(r[1], u0), base.mul(s[1], v0)))
        return (u0, base.mul(ne, u0)), (v0, base.mul(ne, v0))
    d, x, y, _, _ = ring.bezout_raw(r, s)
    dinv = ring.inverse(d)
    return ring.mul(x, dinv), ring.mul(y, dinv)


def _reduce_mod(e: RingElement, c: RingElement) -> RingElement:
    ring = e.ring
    if isinstance(ring, IntegerRing):
        return _raw(ring, e.value % abs(c.value))
    if isinstance(ring, GFPolynomialRing) and c.value:
        return _raw(ring, _pdivmod(e.value, c.value, ring.p)[1])
    return e


def clean_idempotent(c: RingElement, a: RingElement, b: RingElement) -> RingElement:
    """The idempotent of R/cR behind cleanness: with c = r*s and r*u + s*v = 1,
    e = s*v satisfies e^2 = e (mod c), e in a*(R/cR) and 1 - e in b*(R/cR).
    """
    r, s = coprime_factorization(c, a, b)
    v = _unit_combination(c.ring, r.value, s.value)[1]
    return _reduce_mod(s * _raw(c.ring, v), c)
