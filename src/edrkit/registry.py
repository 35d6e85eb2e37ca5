"""Ring registry: descriptor expressions, element text encodings.

The descriptor grammar understood by :func:`make_ring` (and the CLI) is

    z | zmod:<n> | gfpoly:<p> | product:<spec>,<spec>,... |
    text:<spec>,<self|q> | series:<order>

``product`` is variadic and parsed greedily, so a nested product cannot be
followed by further arguments of an enclosing expression; the shipped rings
never need that.  ``series`` without an argument defaults to order 8.
:func:`make_ring` returns the :class:`Ring` itself.

Element text encodings round-trip bit-exactly through
:func:`parse_element` / :func:`format_element`: integers and residues are
decimal strings, polynomials are JSON arrays of coefficients low-to-high,
products and trivial-extension pairs are JSON arrays, rationals are "p/q"
strings in lowest terms, and truncated series are ``{"constant", "coeffs"}``
objects.
"""

from __future__ import annotations

import functools
import json
import re
import sys

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


MAKE_RING_CACHE_SIZE = 128
# interpreters before 3.10.7 have no int/str digit limit
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def make_ring(spec: str) -> Ring:
    """Build the ring a descriptor expression names.

    The MAKE_RING_CACHE_SIZE most recently used rings are kept: rings are
    immutable, so callers share them.  The int/str digit limit is part of
    the key, so lowering it refuses a long modulus parsed before.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ExpressionError("empty descriptor expression")
    return _make_ring(spec.strip(), _int_max_str_digits())


@functools.lru_cache(maxsize=MAKE_RING_CACHE_SIZE)
def _make_ring(spec: str, digit_limit: int) -> Ring:
    cur = _Cursor(_tokenize(spec))
    try:
        ring = _parse_spec(cur)
    except ExpressionError:
        raise
    except RingError as exc:  # a ring constructor refused its argument
        raise ExpressionError(str(exc)) from None
    if cur.peek() is not None:
        raise ExpressionError(f"trailing tokens after descriptor: {cur.tokens[cur.i:]!r}")
    return ring


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


def parse_element(ring: Ring, text: str) -> RingElement:
    """Parse the text encoding of one element of the ring."""
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
    """Canonical text encoding; parse_element(e.ring, format_element(e)) == e."""
    return e.ring.element_text(e.value)


def ring_catalog() -> list[dict]:
    """Shipped ring kinds with a sample expression, capability flags and the
    strategies select_stable and lift_unit take on the sample."""
    samples = [
        # expression, stable-element strategy, unit-lift strategy
        ("z", "smallest-nonzero-shift", "residue-scan"),
        ("zmod:6", "identity-shift", "exhaustive"),
        ("gfpoly:5", "smallest-nonzero-shift", "residue-scan"),
        ("product:zmod:2,zmod:3", "identity-shift", "exhaustive"),
        ("text:z,q", "base-component-shift", "residue-scan"),
        ("text:zmod:4,self", "identity-shift", "exhaustive"),
        ("series:8", "constant-term-shift", "residue-scan"),
    ]
    out = []
    for expr, stable, unit_lift in samples:
        ring = make_ring(expr)
        out.append({
            "kind": ring.kind,
            "expression": expr,
            "finite": ring.finite,
            "bezoutTotal": ring.bezout_total,
            "stableStrategy": stable,
            "unitLiftStrategy": unit_lift,
        })
    return out
