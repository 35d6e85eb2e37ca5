"""Descriptor grammar, element parsing/formatting, trivial-extension structure."""

import json

import pytest

from edrkit import (
    ElementSyntaxError,
    RingError,
    element,
    enumerate_elements,
    format_element,
    is_unit,
    make_ring,
    parse_element,
    ring_catalog,
)
from edrkit.cli import EXIT_OK, EXIT_PARSE, CommandRequest, dispatch
from edrkit.rings import IntegerRing, ModularRing, SelfExtensionRing, TrivialExtensionRing
from conftest import random_element


def test_make_ring_examples():
    entry = make_ring("z")
    assert entry.expression() == "z" and not entry.finite and entry.bezout_total
    entry = make_ring("zmod:6")
    assert entry.finite and entry.bezout_total
    entry = make_ring("text:z,q")
    assert not entry.finite and entry.bezout_total
    entry = make_ring("series:8")
    assert not entry.finite and not entry.bezout_total
    entry = make_ring("product:zmod:2,zmod:3")
    assert entry.finite


def test_make_ring_rejects_malformed():
    for bad in ["zmod:1", "zmod:0", "gfpoly:4", "gfpoly:1", "series:0",
                "product:", "text:z", "text:z,x", "text:zmod:6,q", "nope", "",
                "zmod:6,extra"]:
        with pytest.raises(RingError):
            make_ring(bad)


def test_structural_equality_of_descriptors():
    assert make_ring("zmod:6").ring == make_ring("zmod:6").ring
    assert make_ring("zmod:6").ring != make_ring("zmod:7").ring
    assert make_ring("text:z,q").ring == make_ring("text:z,q").ring


def test_parse_examples():
    assert parse_element(make_ring("zmod:6"), "11").value == 5
    assert parse_element(make_ring("gfpoly:5"), "[1,0,3]").value == (1, 0, 3)
    got = parse_element(make_ring("text:z,q"), '[2, "3/4"]')
    from fractions import Fraction
    assert got.value == (2, Fraction(3, 4))


def test_parse_errors_carry_position():
    with pytest.raises(ElementSyntaxError) as err:
        parse_element(make_ring("z"), "12x4")
    assert "position" in str(err.value)
    with pytest.raises(ElementSyntaxError):
        parse_element(make_ring("gfpoly:5"), "[1, 0,")


def test_format_examples():
    assert format_element(element(make_ring("zmod:6").ring, 5)) == "5"
    assert format_element(element(make_ring("gfpoly:5").ring, ())) == "[]"
    te = make_ring("text:z,self").ring
    assert format_element(element(te, (8, 22))) == "[8, 22]"


PARSE_FORMAT_RINGS = ["z", "zmod:12", "gfpoly:5", "product:zmod:2,zmod:3",
                      "text:z,q", "text:zmod:4,self", "series:6"]


@pytest.mark.parametrize("expr", PARSE_FORMAT_RINGS)
def test_parse_format_roundtrip(expr, rng):
    entry = make_ring(expr)
    for _ in range(60):
        el = random_element(entry.ring, rng, span=40)
        assert parse_element(entry, format_element(el)) == el


def test_trivial_extension_square_zero_ideal(rng):
    from fractions import Fraction
    for expr in ["text:z,q", "text:z,self", "text:zmod:6,self"]:
        ring = make_ring(expr).ring
        for _ in range(40):
            e = random_element(ring, rng, span=9)
            f = random_element(ring, rng, span=9)
            ze = element(ring, (ring.base.zero, e.value[1]))
            zf = element(ring, (ring.base.zero, f.value[1]))
            assert (ze * zf).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_trivial_extension_units_exhaustive(n):
    ring = make_ring(f"text:zmod:{n},self").ring
    base = ring.base
    for el in enumerate_elements(ring):
        assert is_unit(el) == base.is_unit(el.value[0])


def test_one_class_per_trivial_extension():
    """Z ⋉ Q and A ⋉ A are two classes of one kind, and never equal."""
    zq = make_ring("text:z,q").ring
    self4 = make_ring("text:zmod:4,self").ring
    assert zq == TrivialExtensionRing() and type(zq) is TrivialExtensionRing
    assert self4 == SelfExtensionRing(ModularRing(4)) and type(self4) is SelfExtensionRing
    assert zq != SelfExtensionRing(IntegerRing()) and self4 != zq
    assert zq.kind == self4.kind == "trivial-extension"
    assert make_ring("text:z,self").ring != make_ring("text:zmod:4,self").ring
    code, out = dispatch(CommandRequest(command="snf", ring="text:zmod:4,q",
                                        payload='{"rows":[[[1,0]]]}'))
    assert (code, out) == (EXIT_PARSE, "error: module-kind rationals requires the integer base ring")


def test_trivial_extension_catalog_entries():
    entries = {e["expression"]: e for e in ring_catalog()}
    assert entries["text:z,q"] == {
        "expression": "text:z,q", "kind": "trivial-extension", "finite": False,
        "bezoutTotal": True, "stableStrategy": "base-component-shift",
        "unitLiftStrategy": "residue-scan"}
    assert entries["text:zmod:4,self"] == {
        "expression": "text:zmod:4,self", "kind": "trivial-extension", "finite": True,
        "bezoutTotal": False, "stableStrategy": "identity-shift",
        "unitLiftStrategy": "exhaustive"}
    code, out = dispatch(CommandRequest(command="rings", output="pretty"))
    assert code == EXIT_OK
    assert "text:z,q: finite=false bezout=true" in out.splitlines()
    assert "text:zmod:4,self: finite=true bezout=false" in out.splitlines()


def test_ring_catalog_is_deterministic():
    assert ring_catalog() == ring_catalog()
    exprs = [e["expression"] for e in ring_catalog()]
    assert "z" in exprs and "series:8" in exprs


def test_nested_product_inside_text():
    entry = make_ring("product:text:z,q,zmod:6")
    assert entry.ring.factors[0].expression() == "text:z,q"
    assert entry.ring.factors[1].expression() == "zmod:6"


# Encodings the parsers accept that are not written in normal form: signs and
# digits as text, residues out of range, trailing zero coefficients, rationals
# not in lowest terms, series tails past the truncation order.
UNNORMAL_JSON = {
    "z": ["+7", "-0", 12],
    "zmod:12": [-1, 25, "30"],
    "gfpoly:5": [[1, 0, 0], [7, 5], [0], []],
    "product:zmod:2,gfpoly:3": [[3, [4, 3]], ["-1", [0, 0, 2, 0]]],
    "text:z,q": [[3, 2], [1, "4/6"], ["5", "-0"]],
    "text:zmod:4,self": [[9, -1], ["4", 6]],
    "text:gfpoly:3,self": [[[1, 3], [0, 0]], [[], [5]]],
    "series:3": [{"constant": 2, "coeffs": [1, "2/4", 0, 0, 5]},
                 {"coeffs": [0, 0]}, {}, {"constant": "-3", "coeffs": ["6/3"]}],
}


@pytest.mark.parametrize("expr", sorted(UNNORMAL_JSON))
def test_value_from_json_returns_normal_forms(expr, rng):
    # the parsers box value_from_json output without normalizing it again
    ring = make_ring(expr).ring
    encodings = UNNORMAL_JSON[expr] + [
        ring.value_to_json(random_element(ring, rng, span=40).value) for _ in range(40)]
    for obj in encodings:
        value = ring.value_from_json(obj)
        assert repr(ring.normalize(value)) == repr(value), obj
        text = obj if isinstance(obj, str) else json.dumps(obj)
        assert parse_element(make_ring(expr), text).value == value
