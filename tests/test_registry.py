"""Descriptor grammar, element parsing/formatting, trivial-extension structure."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import (
    ElementSyntaxError,
    ExpressionError,
    RingError,
    element,
    enumerate_elements,
    format_element,
    is_unit,
    make_ring,
    parse_element,
    ring_catalog,
)
from edrkit import registry
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
    assert not entry.finite and entry.bezout_total
    entry = make_ring("product:zmod:2,zmod:3")
    assert entry.finite


def test_make_ring_rejects_malformed():
    for bad in ["zmod:1", "zmod:0", "gfpoly:4", "gfpoly:1", "series:0",
                "product:", "text:z", "text:z,x", "text:zmod:6,q", "nope", "",
                "zmod:6,extra"]:
        with pytest.raises(RingError):
            make_ring(bad)


# -- the make_ring memo -----------------------------------------------------------

def test_make_ring_shares_one_entry_per_descriptor():
    assert make_ring("zmod:6") is make_ring(" zmod:6 ")


def test_make_ring_raises_on_every_call():
    """Refusals are not cached: each call raises the same message."""
    messages = []
    for _ in range(2):
        with pytest.raises(ExpressionError) as err:
            make_ring("zmod:6,extra")
        messages.append(str(err.value))
    assert messages[0] == messages[1] != ""


@pytest.mark.parametrize("spec", [None, [], 6])
def test_make_ring_refuses_non_text_before_the_memo(spec):
    with pytest.raises(ExpressionError, match="empty descriptor expression"):
        make_ring(spec)


def test_make_ring_memo_is_bounded():
    for n in range(2, 132):
        make_ring(f"zmod:{n}")
    assert registry._make_ring.cache_info().currsize <= registry.MAKE_RING_CACHE_SIZE == 128


def test_make_ring_memo_keys_on_the_digit_limit():
    """A modulus parsed under one int/str digit limit is refused under a lower one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    spec = "zmod:1" + "0" * 699
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # CPython's default
        assert make_ring(spec).n == 10 ** 699
        sys.set_int_max_str_digits(640)
        with pytest.raises(ExpressionError, match="700 digits is past"):
            make_ring(spec)
    finally:
        sys.set_int_max_str_digits(limit)


_INTEGER_TOKENS = st.integers(0, 999_999).map(str)
# well-formed descriptors, which may still name a refused ring (zmod:1, gfpoly:4)
_DESCRIPTORS = st.recursive(
    st.one_of(st.sampled_from(["z", "series"]),
              st.tuples(st.sampled_from(["zmod:", "gfpoly:", "series:"]), _INTEGER_TOKENS)
              .map("".join)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda fs: "product:" + ",".join(fs)),
        st.tuples(inner, st.sampled_from(["self", "q"])).map(lambda t: f"text:{t[0]},{t[1]}")),
    max_leaves=4)
# words, punctuation, integers and whole descriptors of the grammar, in any order
_DESCRIPTOR_TEXT = st.one_of(_DESCRIPTORS, st.lists(st.one_of(
    _DESCRIPTORS,
    st.sampled_from(["z", "zmod", "gfpoly", "product", "text", "series", "q", "self",
                     ":", ",", " "]),
    _INTEGER_TOKENS,
    st.text(alphabet="zmodgfpolyproducttextseriesq self:,", max_size=3),
), max_size=8).map("".join))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_DESCRIPTOR_TEXT)
def test_fuzzed_descriptors_exit_with_a_documented_code(spec):
    """Any descriptor text exits 0, 1 or 2, and a second request (a memo hit
    for a descriptor that parsed) gives the same document."""
    req = CommandRequest("check", ring=spec, property="clean")
    code, out = dispatch(req)
    assert code in (0, 1, 2), out
    assert dispatch(req) == (code, out)


def test_structural_equality_of_descriptors():
    assert make_ring("zmod:6") == make_ring("zmod:6")
    assert make_ring("zmod:6") != make_ring("zmod:7")
    assert make_ring("text:z,q") == make_ring("text:z,q")


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
    assert format_element(element(make_ring("zmod:6"), 5)) == "5"
    assert format_element(element(make_ring("gfpoly:5"), ())) == "[]"
    te = make_ring("text:z,self")
    assert format_element(element(te, (8, 22))) == "[8, 22]"


PARSE_FORMAT_RINGS = ["z", "zmod:12", "gfpoly:5", "product:zmod:2,zmod:3",
                      "text:z,q", "text:zmod:4,self", "series:6"]


@pytest.mark.parametrize("expr", PARSE_FORMAT_RINGS)
def test_parse_format_roundtrip(expr, rng):
    entry = make_ring(expr)
    for _ in range(60):
        el = random_element(entry, rng, span=40)
        assert parse_element(entry, format_element(el)) == el


def test_trivial_extension_square_zero_ideal(rng):
    from fractions import Fraction
    for expr in ["text:z,q", "text:z,self", "text:zmod:6,self"]:
        ring = make_ring(expr)
        for _ in range(40):
            e = random_element(ring, rng, span=9)
            f = random_element(ring, rng, span=9)
            ze = element(ring, (ring.base.zero, e.value[1]))
            zf = element(ring, (ring.base.zero, f.value[1]))
            assert (ze * zf).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_trivial_extension_units_exhaustive(n):
    ring = make_ring(f"text:zmod:{n},self")
    base = ring.base
    for el in enumerate_elements(ring):
        assert is_unit(el) == base.is_unit(el.value[0])


def test_one_class_per_trivial_extension():
    """Z ⋉ Q and A ⋉ A are two classes of one kind, and never equal."""
    zq = make_ring("text:z,q")
    self4 = make_ring("text:zmod:4,self")
    assert zq == TrivialExtensionRing() and type(zq) is TrivialExtensionRing
    assert self4 == SelfExtensionRing(ModularRing(4)) and type(self4) is SelfExtensionRing
    assert zq != SelfExtensionRing(IntegerRing()) and self4 != zq
    assert zq.kind == self4.kind == "trivial-extension"
    assert make_ring("text:z,self") != make_ring("text:zmod:4,self")
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



RINGS_JSON = "[" + ",".join([
    '{"bezoutTotal":true,"expression":"z","finite":false,"kind":"integers","stableStrategy":"smallest-nonzero-shift","unitLiftStrategy":"residue-scan"}',
    '{"bezoutTotal":true,"expression":"zmod:6","finite":true,"kind":"modular","stableStrategy":"identity-shift","unitLiftStrategy":"exhaustive"}',
    '{"bezoutTotal":true,"expression":"gfpoly:5","finite":false,"kind":"prime-field-poly","stableStrategy":"smallest-nonzero-shift","unitLiftStrategy":"residue-scan"}',
    '{"bezoutTotal":true,"expression":"product:zmod:2,zmod:3","finite":true,"kind":"product","stableStrategy":"identity-shift","unitLiftStrategy":"exhaustive"}',
    '{"bezoutTotal":true,"expression":"text:z,q","finite":false,"kind":"trivial-extension","stableStrategy":"base-component-shift","unitLiftStrategy":"residue-scan"}',
    '{"bezoutTotal":false,"expression":"text:zmod:4,self","finite":true,"kind":"trivial-extension","stableStrategy":"identity-shift","unitLiftStrategy":"exhaustive"}',
    '{"bezoutTotal":true,"expression":"series:8","finite":false,"kind":"truncated-series","stableStrategy":"constant-term-shift","unitLiftStrategy":"residue-scan"}',
]) + "]"

RINGS_PRETTY = """\
z: finite=false bezout=true
zmod:6: finite=true bezout=true
gfpoly:5: finite=false bezout=true
product:zmod:2,zmod:3: finite=true bezout=true
text:z,q: finite=false bezout=true
text:zmod:4,self: finite=true bezout=false
series:8: finite=false bezout=true"""


def test_rings_document_is_pinned():
    """The whole `edr rings` document, in both output modes."""
    assert dispatch(CommandRequest(command="rings")) == (EXIT_OK, RINGS_JSON)
    assert dispatch(CommandRequest(command="rings", output="pretty")) == (EXIT_OK, RINGS_PRETTY)


def test_ring_catalog_is_deterministic():
    assert ring_catalog() == ring_catalog()
    exprs = [e["expression"] for e in ring_catalog()]
    assert "z" in exprs and "series:8" in exprs


def test_nested_product_inside_text():
    entry = make_ring("product:text:z,q,zmod:6")
    assert entry.factors[0].expression() == "text:z,q"
    assert entry.factors[1].expression() == "zmod:6"


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
    ring = make_ring(expr)
    encodings = UNNORMAL_JSON[expr] + [
        ring.value_to_json(random_element(ring, rng, span=40).value) for _ in range(40)]
    for obj in encodings:
        value = ring.value_from_json(obj)
        assert repr(ring.normalize(value)) == repr(value), obj
        text = obj if isinstance(obj, str) else json.dumps(obj)
        assert parse_element(make_ring(expr), text).value == value
