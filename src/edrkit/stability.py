"""Stable elements, unit lifting, stable-range-2 witnesses and clean quotients.

The vocabulary: an element ``a`` is *stable* when R/aR has stable range 1; a
ring is *locally stable* when every comaximal pair (a, b) admits y with a + by
stable.  This module provides the constructive selections (``select_stable``,
``lift_unit``, ``sr2_witness``), the clean-quotient decomposition
(``coprime_factorization`` + ``clean_idempotent``) and exhaustive verdicts on
finite rings (``check_property``), all over the rings of :mod:`edrkit.rings`.

Negative verdicts always carry a witness that re-checks independently; on
infinite rings only bounded verdicts are offered and they say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from . import exhaustive
from .exhaustive import PolyModStructure, int_quotient_stable_range_1
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
    TrivialExtensionRing,
    TruncatedSeriesRing,
    UnsupportedOperationError,
    _pdivmod,
    _raw,
    _same_ring,
    bezout,
    is_unit,
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


class FactorizationError(RingError):
    """No coprime factorization exists for the given (c, a, b)."""


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


@lru_cache(maxsize=8)
def _structure(ring: Ring):
    """The exhaustive structure of a finite ring, kept for the 8 rings used last.

    One table can retain 17 MiB (``text:zmod:32,self``), so few rings stay.
    """
    return exhaustive.structure_for(ring)


def _comaximal(ring: Ring, values: list) -> bool:
    """True iff the raw values generate R, that is sum(v R) = R.

    Where Bezout is total this folds ``Ring.gcd`` and asks whether the
    result is a unit: no cofactors are built.  Truncated series lead with a
    value of nonzero constant term, the only way a combination reaches 1,
    which keeps every gcd of the fold supported.  Products go factor by
    factor and the other finite rings ask their exhaustive structure.
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
    if ring.finite:
        s = _structure(ring)
        idxs = [s.locate(v) for v in values]
        if len(idxs) == 2:
            return s.comaximal(*idxs)
        reach = s.ideal(idxs[0])
        for i in idxs[1:]:
            reach = frozenset(s.add(p, q) for p in reach for q in s.ideal(i))
        return s.one in reach
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
    if isinstance(ring, TrivialExtensionRing):
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
    """Brute-force verdict on whether R/aR has stable range 1.

    Requires a finite quotient: any element of a finite ring, or a nonzero
    element of the integers or of GF(p)[x].  Quotients larger than
    ``exhaustive.MAX_QUOTIENT_SIZE`` are rejected.
    """
    ring = a.ring
    if isinstance(ring, IntegerRing):
        if a.value == 0:
            raise InfiniteRingError("the quotient by 0 is the whole ring of integers")
        holds = int_quotient_stable_range_1(abs(a.value))
        return PropertyVerdict(STABLE_RANGE_1, holds)
    if isinstance(ring, GFPolynomialRing):
        if a.value == ():
            raise InfiniteRingError("the quotient by 0 is the whole polynomial ring")
        s = PolyModStructure(ring.p, a.value)
        holds, wit = exhaustive.stable_range_1(s)
        witness = tuple(_raw(ring, w) for w in wit) if wit else None
        return PropertyVerdict(STABLE_RANGE_1, holds, witness)
    if ring.finite:
        s = _structure(ring)
        q = s.quotient(s.locate(a.value))
        holds, wit = exhaustive.stable_range_1(q)
        witness = tuple(q.describe(w) for w in wit) if wit is not None else None
        return PropertyVerdict(STABLE_RANGE_1, holds, witness)
    raise InfiniteRingError(
        f"stability of {a!r} needs a finite quotient; {ring.expression()} offers none")


def _certified_integer_sr1_counterexample(ring: Ring) -> tuple[RingElement, RingElement]:
    # 3 + 5y is a unit of Z only for 3 + 5y in {1, -1}; neither linear
    # equation has an integer solution, so (3, 5) is a proven witness.
    assert (1 - 3) % 5 != 0 and (-1 - 3) % 5 != 0
    return (_raw(ring, 3), _raw(ring, 5))


def check_property(ring: Ring, property_name: str, bound: int | None = None) -> PropertyVerdict:
    """Exhaustive verdict on finite rings; bounded verdict on the integers.

    Finite rings support all five properties.  On the integers only
    stable-range-1 is supported and it fails with the certified witness
    (3, 5); the reported search bound is the y-window that a sampling check
    would have used.  Other infinite rings are rejected.
    """
    if property_name not in PROPERTIES:
        raise RingError(f"unknown property {property_name!r}")
    if ring.finite:
        s = _structure(ring)
        checker = {
            STABLE_RANGE_1: exhaustive.stable_range_1,
            CLEAN: exhaustive.is_clean,
            LOCALLY_STABLE: exhaustive.locally_stable,
            NEAT_RANGE_1: exhaustive.neat_range_1,
            ADEQUATE_ELEMENT: exhaustive.all_nonzero_adequate,
        }[property_name]
        holds, wit = checker(s)
        witness = tuple(s.describe(w) for w in wit) if wit is not None else None
        return PropertyVerdict(property_name, holds, witness)
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
    over an infinite factor is refused as c = 0 is.  On the other finite
    rings the factor pairs are searched exhaustively and absence is
    reported.  Their comaximality checks, aR + bR = R first among them, run
    on the ring's table, so a ring past ``exhaustive.MAX_TABLE_SIZE``
    elements is refused with ``TooLargeError`` before the scan starts.
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
    if ring.finite:
        for rv in ring.elements():
            for sv in ring.elements():
                if (ring.mul(rv, sv) == c and _comaximal(ring, [rv, sv])
                        and _comaximal(ring, [rv, a]) and _comaximal(ring, [sv, b])):
                    return (rv, sv)
        raise FactorizationError(
            f"no coprime factorization of {_raw(ring, c)!r} against "
            f"{_raw(ring, a)!r}, {_raw(ring, b)!r}")
    raise UnsupportedOperationError(
        f"coprime_factorization is not supported on {ring.expression()}")


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
    cert = bezout(r, s)
    if not is_unit(cert.d):
        raise FactorizationError(f"factors {r!r}, {s!r} of {c!r} are not comaximal")
    # scale the certificate so r*u + s*v is exactly 1
    uinv = _raw(c.ring, c.ring.inverse(cert.d.value))
    v = cert.y * uinv
    return _reduce_mod(s * v, c)
