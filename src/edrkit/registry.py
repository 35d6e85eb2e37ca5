"""Ring registry: descriptor expressions, element text encodings.

The descriptor grammar understood by :func:`make_ring` (and the CLI) is

    z | zmod:<n> | gfpoly:<p> | product:<spec>,<spec>,... |
    text:<spec>,<self|q> | series:<order>

``product`` is variadic and parsed greedily, so a nested product cannot be
followed by further arguments of an enclosing expression; the shipped rings
never need that.  ``series`` without an argument defaults to order 8.

Element text encodings round-trip bit-exactly through
:func:`parse_element` / :func:`format_element`: integers and residues are
decimal strings, polynomials are JSON arrays of coefficients low-to-high,
products and trivial-extension pairs are JSON arrays, rationals are "p/q"
strings in lowest terms, and truncated series are ``{"constant", "coeffs"}``
objects.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

from .rings import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    SelfExtensionRing,
    TrivialExtensionRing,
    TruncatedSeriesRing,
    _raw,
)


class ExpressionError(RingError):
    """Malformed descriptor expression."""


class ElementSyntaxError(RingError):
    """Malformed element text; carries the character position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class RingRegistryEntry:
    """A constructed ring plus its capability flags and strategy ids."""

    ring: Ring
    finite: bool
    bezout_total: bool
    stable_strategy: str
    unit_lift_strategy: str

    def expression(self) -> str:
        return self.ring.expression()


def _stable_strategy(ring: Ring) -> str:
    if ring.finite:
        return "identity-shift"  # y = 0: every element of a finite ring is stable
    if isinstance(ring, (IntegerRing, GFPolynomialRing)):
        return "smallest-nonzero-shift"
    if isinstance(ring, TruncatedSeriesRing):
        return "constant-term-shift"
    if isinstance(ring, (TrivialExtensionRing, SelfExtensionRing)):
        return "base-component-shift"
    if isinstance(ring, ProductRing):
        return "componentwise"
    return "unsupported"


def _unit_lift_strategy(ring: Ring) -> str:
    if ring.finite:
        return "exhaustive"
    if isinstance(ring, ProductRing):
        return "componentwise"
    return "residue-scan"


def make_entry(ring: Ring) -> RingRegistryEntry:
    return RingRegistryEntry(
        ring=ring,
        finite=ring.finite,
        bezout_total=ring.bezout_total,
        stable_strategy=_stable_strategy(ring),
        unit_lift_strategy=_unit_lift_strategy(ring),
    )


_TOKEN = re.compile(r"[A-Za-z0-9_]+|[:,]")


def _tokenize(spec: str) -> list[str]:
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(spec):
        if m.start() != pos:
            raise ExpressionError(f"bad descriptor expression {spec!r} near index {pos}")
        tokens.append(m.group())
        pos = m.end()
    if pos != len(spec):
        raise ExpressionError(f"bad descriptor expression {spec!r} near index {pos}")
    return tokens


class _Cursor:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of descriptor expression")
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def int_arg(self, what: str) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise ExpressionError(f"expected {what}, got {tok!r}")
        try:
            return int(tok)
        except ValueError:
            raise ExpressionError(
                f"{what} of {len(tok)} digits is past Python's int/str digit limit") from None


def _parse_spec(cur: _Cursor) -> Ring:
    head = cur.next()
    if head == "z":
        return IntegerRing()
    if head == "zmod":
        cur.expect(":")
        return ModularRing(cur.int_arg("a modulus"))
    if head == "gfpoly":
        cur.expect(":")
        return GFPolynomialRing(cur.int_arg("a prime"))
    if head == "series":
        if cur.peek() == ":":
            cur.next()
            return TruncatedSeriesRing(cur.int_arg("a truncation order"))
        return TruncatedSeriesRing()
    if head == "product":
        cur.expect(":")
        factors = [_parse_spec(cur)]
        while cur.peek() == ",":
            cur.next()
            factors.append(_parse_spec(cur))
        return ProductRing(factors)
    if head == "text":
        cur.expect(":")
        base = _parse_spec(cur)
        cur.expect(",")
        tag = cur.next()
        if tag == "q":
            if not isinstance(base, IntegerRing):
                raise RingError("module-kind rationals requires the integer base ring")
            return TrivialExtensionRing()
        if tag == "self":
            return SelfExtensionRing(base)
        raise ExpressionError(f"trivial-extension module must be self or q, got {tag!r}")
    raise ExpressionError(f"unknown ring kind {head!r}")


def make_ring(spec: str) -> RingRegistryEntry:
    """Build a registry entry from a descriptor expression."""
    if not isinstance(spec, str) or not spec.strip():
        raise ExpressionError("empty descriptor expression")
    cur = _Cursor(_tokenize(spec.strip()))
    try:
        ring = _parse_spec(cur)
    except ExpressionError:
        raise
    except RingError as exc:  # a ring constructor refused its argument
        raise ExpressionError(str(exc)) from None
    if cur.peek() is not None:
        raise ExpressionError(f"trailing tokens after descriptor: {cur.tokens[cur.i:]!r}")
    return make_entry(ring)


_INT_TEXT = re.compile(r"[+-]?\d+\Z")


def parse_json(text: str):
    """json.loads, except that an integer literal past Python's int/str digit
    limit raises ElementSyntaxError instead of a bare ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # json.loads raises no other ValueError
        limit = sys.get_int_max_str_digits()
        literal = re.search(r"\d{%d}" % (limit + 1), text)
        raise ElementSyntaxError(f"integer literal past Python's {limit}-digit int/str limit",
                                 literal.start() if literal else 0) from None


def parse_element(entry: RingRegistryEntry | Ring, text: str) -> RingElement:
    """Parse the text encoding of one element of the entry's ring."""
    ring = entry.ring if isinstance(entry, RingRegistryEntry) else entry
    text = text.strip()
    if not text:
        raise ElementSyntaxError("empty element text")
    if isinstance(ring, (IntegerRing, ModularRing)):
        m = _INT_TEXT.match(text)
        if not m:
            bad = next(i for i, ch in enumerate(text) if not (ch.isdigit() or ch in "+-"))
            raise ElementSyntaxError(f"bad integer literal {text!r}", bad)
        try:
            return _raw(ring, ring.value_from_json(text))
        except RingError as exc:  # well-formed, so past Python's int/str digit limit
            raise ElementSyntaxError(str(exc)) from None
    try:
        obj = parse_json(text)
    except json.JSONDecodeError as exc:
        raise ElementSyntaxError(f"bad element text {text!r}: {exc.msg}", exc.pos) from None
    try:
        return _raw(ring, ring.value_from_json(obj))
    except RingError as exc:
        raise ElementSyntaxError(str(exc)) from None


def format_element(e: RingElement) -> str:
    """Canonical text encoding; parse_element(entry, format_element(e)) == e."""
    obj = e.ring.value_to_json(e.value)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def ring_catalog() -> list[dict]:
    """Shipped ring kinds with a sample expression and capability flags."""
    samples = [
        ("integers", "z"),
        ("modular", "zmod:6"),
        ("prime-field-poly", "gfpoly:5"),
        ("product", "product:zmod:2,zmod:3"),
        ("trivial-extension", "text:z,q"),
        ("trivial-extension", "text:zmod:4,self"),
        ("truncated-series", "series:8"),
    ]
    out = []
    for kind, expr in samples:
        entry = make_ring(expr)
        out.append({
            "kind": kind,
            "expression": expr,
            "finite": entry.finite,
            "bezoutTotal": entry.bezout_total,
            "stableStrategy": entry.stable_strategy,
            "unitLiftStrategy": entry.unit_lift_strategy,
        })
    return out
