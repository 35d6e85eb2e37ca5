"""The exhaustive checkers against enumerations straight from the definitions.

Every finite commutative ring has all five properties, so on real rings a
checker that always says "holds" would pass.  Hand-built structures that are
not rings make each checker fail, and every witness is re-checked with the
structure's own operations.
"""

import math

import pytest

from edrkit import ModularRing, check_property, make_ring
from edrkit import exhaustive, stability
from edrkit.exhaustive import (
    PolyModStructure,
    all_nonzero_adequate,
    int_quotient_stable_range_1,
    is_clean,
    locally_stable,
    neat_range_1,
    stable_range_1,
    structure_for,
)

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


DEFINITIONS = {
    stable_range_1: sr1_witness,
    is_clean: clean_witness,
    locally_stable: lambda s: quotient_witness(s, lambda q: sr1_witness(q) is None),
    neat_range_1: lambda s: quotient_witness(s, lambda q: clean_witness(q) is None),
    all_nonzero_adequate: adequate_witness,
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


def hidden_unit():
    """Z/4 whose unit 3 is not declared a unit, and every quotient is the
    same structure: (3, 0) is comaximal yet 3 + 0*t is never a unit, 0 is
    neither 0 + unit nor 1 + unit, and no quotient passes either test."""
    pairs = [(x, y) for x in range(4) for y in range(4) if math.gcd(math.gcd(x, y), 4) == 1]
    return Synthetic([[x * y % 4 for y in range(4)] for x in range(4)], {1}, pairs,
                     quotient=lambda c: hidden_unit())


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
    return structure_for(make_ring(spec).ring)


def assert_primitives_match_definitions(s):
    ideal = {x: {s.mul(x, t) for t in els(s)} for x in els(s)}
    for x in els(s):
        assert s.is_unit(x) == (s.one in ideal[x])
        assert set(s.ideal(x)) == ideal[x]
        for y in els(s):
            reach = {s.add(p, q) for p in ideal[x] for q in ideal[y]}
            assert s.comaximal(x, y) == (s.one in reach)


@pytest.mark.parametrize("spec", RINGS)
def test_structure_primitives_match_definitions(spec):
    assert_primitives_match_definitions(structure(spec))


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
    for checker in (stable_range_1, is_clean, all_nonzero_adequate):
        assert checker(s)[0] == (DEFINITIONS[checker](s) is None)


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
    assert check_property(make_ring(spec).ring, "adequate-element").holds


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
    assert check_property(ModularRing(n), prop).holds
    assert 0 < len(calls) <= bound


def test_int_quotient_stable_range_1_matches_definition():
    for m in range(1, 40):
        assert int_quotient_stable_range_1(m) == (sr1_witness(exhaustive.ModStructure(m)) is None)
    with pytest.raises(exhaustive.TooLargeError):
        int_quotient_stable_range_1(exhaustive.MAX_QUOTIENT_SIZE + 1)


def test_caches_are_bounded():
    for cached in (stability._structure, int_quotient_stable_range_1):
        assert cached.cache_info().maxsize is not None
    for n in range(2, 2 + stability._structure.cache_info().maxsize + 8):
        stability._structure(ModularRing(n))
    info = stability._structure.cache_info()
    assert info.currsize == info.maxsize
