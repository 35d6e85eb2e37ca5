"""The exhaustive checkers against enumerations straight from the definitions,
and check_property and is_stable against the exhaustive checkers.

Every finite commutative ring has all five properties, so on real rings a
checker that always says "holds" would pass.  Hand-built structures that are
not rings make each checker fail, and every witness is re-checked with the
structure's own operations.  The closed-form structures are also compared
with dense tables of the same rings, and their witnesses with the
element-by-element search of the same primitives.  Checked that way, the
checkers are the oracle for the library's verdicts, which come from the
structure theorem and search nothing.
"""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
import tracemalloc

import pytest

from edrkit import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    check_property,
    element,
    is_stable,
    make_ring,
)
from edrkit import exhaustive, stability
from edrkit.cli import EXIT_OK, CommandRequest, dispatch
from edrkit.exhaustive import (
    ModStructure,
    PolyModStructure,
    ProductStructure,
    TableStructure,
    all_nonzero_adequate,
    is_clean,
    locally_stable,
    neat_range_1,
    stable_range_1,
    structure_for,
)
from edrkit.rings import _pdivmod, _pmul

# -- the definitions, by plain enumeration ------------------------------------


def els(s):
    return list(s.elements())


def sr1_witness(s):
    """First comaximal (u, v) with no unit among u + v*t, or None."""
    for u in els(s):
        for v in els(s):
            if s.comaximal(u, v) and not any(
                    s.is_unit(s.add(u, s.mul(v, t))) for t in els(s)):
                return (u, v)
    return None


def clean_witness(s):
    idempotents = [e for e in els(s) if s.mul(e, e) == e]
    for a in els(s):
        if not any(s.is_unit(s.add(a, s.neg(e))) for e in idempotents):
            return (a,)
    return None


def quotient_witness(s, quotient_holds):
    """First comaximal (a, b) with no a + b*y whose quotient passes."""
    verdict = {}

    def holds(w):
        if w not in verdict:
            verdict[w] = quotient_holds(s.quotient(w))
        return verdict[w]

    for a in els(s):
        for b in els(s):
            if s.comaximal(a, b) and not any(holds(s.add(a, s.mul(b, y))) for y in els(s)):
                return (a, b)
    return None


def divisors(s, t):
    return [d for d in els(s) if any(s.mul(d, k) == t for k in els(s))]


def is_adequate(s, c, against_a=True):
    """Henriksen (Michigan Math. J. 3, 1955): c is adequate when every a has
    c = r*t with rR + aR = R and t'R + aR != R for each non-unit divisor t'
    of t.

    With against_a=False the divisors are tested against c instead of a, the
    form that holds for every element of a ring (t' divides c)."""
    pairs = [(r, t) for r in els(s) for t in els(s) if s.mul(r, t) == c]
    for a in els(s):
        other = a if against_a else c
        if not any(s.comaximal(r, a)
                   and all(s.is_unit(d) or not s.comaximal(d, other) for d in divisors(s, t))
                   for r, t in pairs):
            return False
    return True


def adequate_witness(s, against_a=True):
    """First nonzero c that is not adequate, or None."""
    for c in els(s):
        if c != s.zero and not is_adequate(s, c, against_a):
            return (c,)
    return None


def adequate_bitmask(s):
    """Henriksen's test element by element with int bitmasks over all a, the
    form the library used before it searched associate classes."""
    elements = els(s)
    pos = {x: i for i, x in enumerate(elements)}
    everything = (1 << len(elements)) - 1
    product = [[pos[s.mul(r, t)] for t in elements] for r in elements]
    comaximal = [sum(1 << j for j, a in enumerate(elements) if s.comaximal(x, a))
                 for x in elements]
    blocked = [0] * len(elements)
    for i, x in enumerate(elements):
        if not s.is_unit(x):
            for k in set(product[i]):
                blocked[k] |= comaximal[i]
    good = [everything & ~b for b in blocked]
    served = [0] * len(elements)
    for i, row in enumerate(product):
        for j, k in enumerate(row):
            served[k] |= comaximal[i] & good[j]
    for c, mask in zip(elements, served):
        if c != s.zero and mask != everything:
            return False, (c,)
    return True, None


DEFINITIONS = {
    stable_range_1: sr1_witness,
    is_clean: clean_witness,
    locally_stable: lambda s: quotient_witness(s, lambda q: sr1_witness(q) is None),
    neat_range_1: lambda s: quotient_witness(s, lambda q: clean_witness(q) is None),
    all_nonzero_adequate: adequate_witness,
}

CHECKERS = {
    "stable-range-1": stable_range_1,
    "clean": is_clean,
    "adequate-element": all_nonzero_adequate,
    "locally-stable": locally_stable,
    "neat-range-1": neat_range_1,
}


def rechecks(checker, s, witness) -> bool:
    """The witness is a counterexample, judged with s's own operations."""
    if checker is stable_range_1:
        u, v = witness
        return s.comaximal(u, v) and not any(
            s.is_unit(s.add(u, s.mul(v, t))) for t in els(s))
    if checker is is_clean:
        (a,) = witness
        return not any(s.is_unit(s.add(a, s.neg(e))) for e in els(s) if s.mul(e, e) == e)
    if checker in (locally_stable, neat_range_1):
        a, b = witness
        passes = sr1_witness if checker is locally_stable else clean_witness
        return s.comaximal(a, b) and all(
            passes(s.quotient(s.add(a, s.mul(b, y)))) is not None for y in els(s))
    (c,) = witness
    return c != s.zero and not is_adequate(s, c)


# -- structures that are not rings -------------------------------------------


class Synthetic:
    """Elements 0..n-1 with addition mod n and hand-written tables for
    everything else: multiplication, units, comaximality and quotients."""

    def __init__(self, mul, units, comaximal, quotient=None):
        self.size = len(mul)
        self.zero, self.one = 0, 1
        self._mul = mul
        self._units = frozenset(units)
        self._comaximal = {(x, y) for x, y in comaximal} | {(y, x) for x, y in comaximal}
        self._quotient = quotient

    def elements(self):
        return range(self.size)

    def add(self, x, y):
        return (x + y) % self.size

    def neg(self, x):
        return -x % self.size

    def mul(self, x, y):
        return self._mul[x][y]

    def is_unit(self, x):
        return x in self._units

    def comaximal(self, x, y):
        return (x, y) in self._comaximal

    def ideal(self, x):
        return frozenset(self._mul[x])

    def quotient(self, c):
        return self._quotient(c)


class Flat:
    """A structure seen only through its primitives, with ideals as element
    sets, so that the checkers search it element by element."""

    def __init__(self, s):
        self._s = s
        self.size, self.zero, self.one = s.size, s.zero, s.one
        self.elements, self.add, self.neg, self.mul = s.elements, s.add, s.neg, s.mul
        self.is_unit, self.comaximal = s.is_unit, s.comaximal

    def ideal(self, x):
        return frozenset(self._s.mul(x, t) for t in self._s.elements())

    def quotient(self, c):
        return Flat(self._s.quotient(c))


def hidden_unit():
    """Z/4 whose unit 3 is not declared a unit, and every quotient is the
    same structure: (3, 0) is comaximal yet 3 + 0*t is never a unit, 0 is
    neither 0 + unit nor 1 + unit, and no quotient passes either test."""
    pairs = [(x, y) for x in range(4) for y in range(4) if math.gcd(math.gcd(x, y), 4) == 1]
    return Synthetic([[x * y % 4 for y in range(4)] for x in range(4)], {1}, pairs,
                     quotient=lambda c: hidden_unit())


def late_miss():
    """Z/8 that also declares 2 and 4 comaximal, so stable range 1 first fails
    in the class of 4 (the last one), on the coset 2 + 4R; its quotients are
    hidden_unit()."""
    pairs = [(x, y) for x in range(8) for y in range(8) if math.gcd(math.gcd(x, y), 8) == 1]
    return Synthetic([[x * y % 8 for y in range(8)] for x in range(8)], {1, 3, 5, 7},
                     pairs + [(2, 4)], quotient=lambda c: hidden_unit())


def inadequate():
    """Five elements, 0 and 1 as usual, 3*3 = 2 and every other product of
    2, 3 and 4 zero; only 1 is a unit; 1 is comaximal with everything and
    otherwise only 3 with 4.

    c = 2, a = 4: the factor pairs of 2 are (1, 2), (2, 1) and (3, 3).  (2, 1)
    fails 2R + 4R = R; the other two leave the non-unit divisor 3, which is
    comaximal with 4.  The old test against c instead of a passes every
    element: no non-unit here is comaximal with any nonzero non-unit c.
    """
    mul = [[0] * 5 for _ in range(5)]
    for x in range(5):
        mul[1][x] = mul[x][1] = x
    mul[3][3] = 2
    return Synthetic(mul, {1}, [(1, x) for x in range(5)] + [(3, 4)])


RINGS = [f"zmod:{n}" for n in range(2, 31)] + [
    "product:zmod:2,zmod:3", "text:zmod:4,self", "text:zmod:6,self"]


def structure(spec):
    return structure_for(make_ring(spec))


def in_ideal(s, ideal, y) -> bool:
    """y lies in `ideal`, as s.ideal() returns it: a set of elements, a monic
    divisor of f on GF(p)[x]/(f), a tuple of factor ideals on a product."""
    if isinstance(s, ProductStructure):
        return all(in_ideal(f, i, c) for f, i, c in zip(s.factors, ideal, s._split(y)))
    if isinstance(s, PolyModStructure):
        return not _pdivmod(y, ideal, s.p)[1]
    return y in ideal


def assert_primitives_match_definitions(s):
    ideal = {x: {s.mul(x, t) for t in els(s)} for x in els(s)}
    for x in els(s):
        assert s.is_unit(x) == (s.one in ideal[x])
        assert {y for y in els(s) if in_ideal(s, s.ideal(x), y)} == ideal[x]
        for y in els(s):
            reach = {s.add(p, q) for p in ideal[x] for q in ideal[y]}
            assert s.comaximal(x, y) == (s.one in reach)
            assert (s.ideal(x) == s.ideal(y)) == (ideal[x] == ideal[y])


def assert_equal_ideals_are_associates(s):
    """In a finite commutative ring xR = yR makes x and y associates, so the
    classes of s.ideal() are the orbits under the units."""
    units = [u for u in els(s) if s.is_unit(u)]
    ideal = {x: s.ideal(x) for x in els(s)}
    for x in els(s):
        assert {s.mul(u, x) for u in units} == {y for y in els(s) if ideal[y] == ideal[x]}


@pytest.mark.parametrize("spec", RINGS)
def test_structure_primitives_match_definitions(spec):
    assert_primitives_match_definitions(structure(spec))


@pytest.mark.parametrize("spec", RINGS)
def test_equal_ideals_are_associates(spec):
    assert_equal_ideals_are_associates(structure(spec))


@pytest.mark.parametrize("checker", list(DEFINITIONS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", RINGS)
def test_checkers_agree_with_definitions(spec, checker):
    s = structure(spec)
    holds, witness = checker(s)
    assert holds == (DEFINITIONS[checker](s) is None)
    assert holds == (witness is None)


@pytest.mark.parametrize("p, f", [(2, (1, 1, 1)), (2, (1, 0, 0, 1)), (3, (0, 0, 1)),
                                  (5, (1, 1))])
def test_polynomial_quotients_agree_with_definitions(p, f):
    """GF(p)[x]/(f), the structure behind is_stable on GF(p)[x]; f lists
    coefficients from the constant term up."""
    s = PolyModStructure(p, f)
    assert_primitives_match_definitions(s)
    assert_equal_ideals_are_associates(s)
    for checker in DEFINITIONS:
        assert checker(s) == checker(Flat(s))
        assert checker(s)[0] == (DEFINITIONS[checker](s) is None)
    assert all_nonzero_adequate(s) == adequate_bitmask(s)
    for x in els(s):
        q = s.quotient(x)
        assert q.size == len(els(s)) // len({s.mul(x, t) for t in els(s)})
        assert {s.mul(x, t) for t in els(s)} == {w for w in els(s) if not _pdivmod(w, q.f, p)[1]}


@pytest.mark.parametrize("make, checker", [
    (hidden_unit, stable_range_1), (hidden_unit, is_clean), (hidden_unit, locally_stable),
    (hidden_unit, neat_range_1), (inadequate, all_nonzero_adequate)],
    ids=lambda x: x.__name__)
def test_each_checker_can_fail(make, checker):
    s = make()
    holds, witness = checker(s)
    assert not holds
    assert rechecks(checker, s, witness)
    assert DEFINITIONS[checker](s) is not None


def test_adequate_element_is_tested_against_a_not_c():
    s = inadequate()
    assert all_nonzero_adequate(s) == (False, (2,))
    assert adequate_witness(s, against_a=False) is None


@pytest.mark.parametrize("spec", ["zmod:60", "product:zmod:2,zmod:3,zmod:5",
                                  "product:zmod:8,zmod:9"])
def test_adequate_element_holds(spec):
    assert all_nonzero_adequate(structure(spec)) == (True, None)


@pytest.mark.parametrize("spec", ["text:zmod:4,self", "text:zmod:6,self"])
def test_table_quotients_are_the_parent_modulo_the_ideal(spec):
    """Each element of t.quotient(c) is the least member of a coset x + cR,
    and its tables are the parent's arithmetic on those cosets."""
    t = TableStructure.for_ring(make_ring(spec))
    for c in els(t):
        q = t.quotient(c)
        ideal = {t.mul(c, r) for r in els(t)}
        least = {x: min(t.add(x, i) for i in ideal) for x in els(t)}
        reps = sorted(set(least.values()))
        back = {x: reps.index(least[x]) for x in els(t)}
        assert [q.value(i) for i in els(q)] == [t.value(r) for r in reps]
        assert [q.describe(i) for i in els(q)] == [t.describe(r) for r in reps]
        assert (q.zero, q.one) == (back[t.zero], back[t.one])
        for i, x in enumerate(reps):
            assert q.neg(i) == back[t.neg(x)]
            assert q.is_unit(i) == any(back[t.mul(x, y)] == q.one for y in els(t))
            assert [q.add(i, j) for j in els(q)] == [back[t.add(x, y)] for y in reps]
            assert [q.mul(i, j) for j in els(q)] == [back[t.mul(x, y)] for y in reps]


@pytest.mark.parametrize("n, prop, bound", [
    # a table's worth of tests at most: the full pair scans made 40,320 and
    # 409,740 calls on these two requests
    (60, "adequate-element", 4 * 60 * 60),
    (360, "locally-stable", 360 * 360)])
def test_comaximal_calls_stay_within_a_table(monkeypatch, n, prop, bound):
    calls = []
    comaximal = exhaustive.ModStructure.comaximal

    def counted(self, x, y):
        calls.append(None)
        return comaximal(self, x, y)

    monkeypatch.setattr(exhaustive.ModStructure, "comaximal", counted)
    assert CHECKERS[prop](structure_for(ModularRing(n))) == (True, None)
    assert 0 < len(calls) <= bound


def test_integer_is_stable_matches_the_oracle():
    """Z/m has stable range 1 for every m != 0, by the definition's search."""
    for m in range(-40, 41):
        if m:
            s = ModStructure(abs(m))
            assert is_stable(element(IntegerRing(), m)).holds
            assert stable_range_1(s) == (True, None) and sr1_witness(s) is None
    with pytest.raises(exhaustive.TooLargeError):
        ModStructure(exhaustive.MAX_QUOTIENT_SIZE + 1)


def test_caches_are_bounded():
    """Every functools cache of the library is bounded, and the request paths
    keep no table: they never load the exhaustive layer."""
    import edrkit

    for info in pkgutil.iter_modules(edrkit.__path__):
        for obj in vars(importlib.import_module(f"edrkit.{info.name}")).values():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().maxsize is not None
    script = ("import sys; from edrkit import *; r = make_ring('text:zmod:33,self')\n"
              "e = [element(r, v) for v in ((6, 1), (3, 0), (2, 0))]\n"
              "is_coprime(e[1], e[2]); lift_unit(*e); clean_idempotent(*e)\n"
              "check_property(r, 'clean'); print('edrkit.exhaustive' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


# -- closed forms against tables and the element-by-element search ---------------


def factorizations(limit, parts=2):
    """Every ordered tuple of at least `parts` moduli >= 2 with product <= limit."""
    def grow(prefix, room):
        if len(prefix) >= parts:
            yield prefix
        for m in range(2, room + 1):
            yield from grow(prefix + (m,), room // m)
    return list(grow((), limit))


def assert_matches_table(ring):
    s, t = structure_for(ring), TableStructure.for_ring(ring)
    assert [s.value(x) for x in els(s)] == [t.value(x) for x in els(t)]
    quotients = {}
    for x in els(s):
        assert s.is_unit(x) == t.is_unit(x)
        assert [in_ideal(s, s.ideal(x), y) for y in els(s)] == [y in t.ideal(x) for y in els(t)]
        assert [s.comaximal(x, y) for y in els(s)] == [t.comaximal(x, y) for y in els(t)]
        if t.ideal(x) not in quotients:
            quotients[t.ideal(x)] = t.quotient(x).size
        assert s.quotient(x).size == quotients[t.ideal(x)]
    assert_equal_ideals_are_associates(s)
    for checker in (stable_range_1, is_clean, locally_stable, neat_range_1):
        assert checker(s) == checker(t)
    assert all_nonzero_adequate(s) == adequate_bitmask(t) == (True, None)


@pytest.mark.parametrize("top", range(20, 201, 20))
def test_modular_structures_match_tables(top):
    for m in range(top - 19 if top > 20 else 2, top + 1):
        assert_matches_table(ModularRing(m))


PRODUCT_LIMIT = 60


@pytest.mark.parametrize("moduli", factorizations(PRODUCT_LIMIT), ids=str)
def test_product_structures_match_tables(moduli):
    assert_matches_table(make_ring("product:" + ",".join(f"zmod:{m}" for m in moduli)))


LARGER_PRODUCTS = ["product:zmod:2,zmod:100", "product:zmod:100,zmod:2",
                   "product:zmod:10,zmod:20", "product:zmod:12,zmod:16",
                   "product:zmod:2,zmod:3,zmod:5,zmod:6",
                   "product:zmod:4,zmod:49", "product:zmod:8,zmod:25"]


@pytest.mark.parametrize("spec", LARGER_PRODUCTS)
def test_larger_product_structures_match_tables(spec):
    assert_matches_table(make_ring(spec))


MIXED_PRODUCTS = ["product:zmod:4,zmod:6", "product:zmod:2,zmod:3,zmod:4",
                  "product:zmod:6,text:zmod:2,self"]


@pytest.mark.parametrize("spec", MIXED_PRODUCTS)
def test_product_ideals_are_associate_classes(spec):
    s = structure(spec)
    assert isinstance(s, ProductStructure)
    assert_primitives_match_definitions(s)
    assert_equal_ideals_are_associates(s)


def failing_products():
    """Products with a hand-built factor, nested products among them."""
    z2, z3 = ModStructure(2), ModStructure(3)
    return {
        "hidden,z3": ProductStructure([hidden_unit(), z3]),
        "z3,hidden": ProductStructure([z3, hidden_unit()]),
        "z2,hidden,z3": ProductStructure([z2, hidden_unit(), z3]),
        "(z2,hidden),z3": ProductStructure([ProductStructure([z2, hidden_unit()]), z3]),
        "hidden,z2,hidden": ProductStructure([hidden_unit(), z2, hidden_unit()]),
        "late,hidden": ProductStructure([late_miss(), hidden_unit()]),
        "hidden,late": ProductStructure([hidden_unit(), late_miss()]),
        "inadequate,z2": ProductStructure([inadequate(), z2]),
        "z2,inadequate": ProductStructure([z2, inadequate()]),
        "z3,inadequate,z2": ProductStructure([z3, inadequate(), z2]),
        "(z2,inadequate),z3": ProductStructure([ProductStructure([z2, inadequate()]), z3]),
        "inadequate,inadequate": ProductStructure([inadequate(), inadequate()]),
    }


@pytest.mark.parametrize("name", list(failing_products()))
def test_product_witnesses_are_the_element_order_ones(name):
    s = failing_products()[name]
    checkers = ([all_nonzero_adequate] if "inadequate" in name
                else [stable_range_1, is_clean, locally_stable, neat_range_1])
    for checker in checkers:
        holds, witness = checker(s)
        assert not holds and rechecks(checker, s, witness)
        assert (holds, witness) == checker(Flat(s))
    assert all_nonzero_adequate(s) == adequate_bitmask(s)


@pytest.mark.parametrize("make", [hidden_unit, inadequate], ids=lambda f: f.__name__)
def test_class_based_adequacy_matches_bitmask_oracle(make):
    s = make()
    assert all_nonzero_adequate(s) == adequate_bitmask(s)


@pytest.mark.parametrize("spec", RINGS + ["zmod:72", "product:zmod:4,zmod:9",
                                          "product:zmod:2,zmod:2,zmod:2"])
def test_class_based_adequacy_matches_bitmask_oracle_on_rings(spec):
    s = structure(spec)
    assert all_nonzero_adequate(s) == adequate_bitmask(s) == all_nonzero_adequate(Flat(s))


# -- the library's verdicts against the oracle -------------------------------------

ORACLE_RINGS = list(dict.fromkeys(
    [f"zmod:{m}" for m in range(2, 61)]
    + ["product:" + ",".join(f"zmod:{m}" for m in moduli)
       for moduli in factorizations(PRODUCT_LIMIT)]
    + LARGER_PRODUCTS + MIXED_PRODUCTS
    + ["product:zmod:8,zmod:9", "product:text:zmod:2,self,zmod:3"]
    + [f"text:zmod:{n},self" for n in range(2, 9)]))


@pytest.mark.parametrize("spec", ORACLE_RINGS)
def test_verdicts_match_the_oracle(spec):
    """check_property answers every finite ring from the theorem; the
    exhaustive search of the same ring must agree, property by property,
    and the search of each quotient R/xR must agree with is_stable(x)."""
    ring = make_ring(spec)
    s = structure_for(ring)
    for prop, checker in CHECKERS.items():
        verdict = check_property(ring, prop)
        assert (verdict.property, verdict.holds, verdict.witness) == (prop, *checker(s))
    quotient_verdicts = {}
    for x in els(s):
        ideal = s.ideal(x)
        if ideal not in quotient_verdicts:
            quotient_verdicts[ideal] = stable_range_1(s.quotient(x))[0]
        assert is_stable(s.describe(x)).holds == quotient_verdicts[ideal]


@pytest.mark.parametrize("p, degree", [(2, 4), (3, 3), (5, 2)])
def test_polynomial_is_stable_matches_the_oracle(p, degree):
    """is_stable(f) on GF(p)[x] against the search of GF(p)[x]/(f), for every
    nonzero f of degree at most `degree`."""
    ring = GFPolynomialRing(p)
    for f in exhaustive._polys(p, degree + 1):
        if f:
            assert is_stable(element(ring, f)).holds == stable_range_1(PolyModStructure(p, f))[0]


@pytest.mark.parametrize("spec, value", [
    ("zmod:10007", 5),
    ("zmod:2305843009213693951", 3),
    ("text:zmod:64,self", (2, 3)),
    ("product:zmod:101,zmod:9901", (3, 0)),
])
def test_verdicts_past_every_cap_build_nothing(monkeypatch, spec, value):
    """Rings past the exhaustive caps, and the Mersenne modulus 2^61 - 1,
    get every verdict with no structure built."""
    def refuse(*args, **kwargs):
        raise AssertionError("an exhaustive structure was built")

    monkeypatch.setattr(exhaustive, "structure_for", refuse)
    for cls in (ModStructure, PolyModStructure, ProductStructure, TableStructure):
        monkeypatch.setattr(cls, "__init__", refuse)
    for prop in stability.PROPERTIES:
        code, out = dispatch(CommandRequest(command="check", ring=spec, property=prop))
        assert code == EXIT_OK
        assert json.loads(out) == {"property": prop, "holds": True}
    assert is_stable(element(make_ring(spec), value)).holds


# -- scale ------------------------------------------------------------------------


@pytest.mark.parametrize("spec, peak_mib", [("product:zmod:64,zmod:64", 1), ("zmod:9240", 8)])
def test_scale_without_tables(monkeypatch, spec, peak_mib):
    """At the table cap (64 x 64) and on 64 divisors, all five checkers run
    without a table and within a fixed allocation bound."""
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(TableStructure, "__init__", no_table)
    ring = make_ring(spec)
    tracemalloc.start()
    try:
        s = structure_for(ring)
        for checker in CHECKERS.values():
            assert checker(s) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mib * 2 ** 20


def test_is_stable_on_a_degree_13_quotient():
    """GF(2)[x]/(x^5 (x+1)^4 (x^2+x+1)^2): 8,192 elements and 90 ideals."""
    f = (1,)
    for factor, power in (((0, 1), 5), ((1, 1), 4), ((1, 1, 1), 2)):
        for _ in range(power):
            f = _pmul(f, factor, 2)
    assert len(f) - 1 == 13
    t0 = time.perf_counter()
    assert stable_range_1(PolyModStructure(2, f)) == (True, None)
    print(f"stable_range_1, 8,192 elements: {time.perf_counter() - t0:.2f} s")
    assert is_stable(element(GFPolynomialRing(2), f)).holds
