"""Exact arithmetic over a small family of commutative rings.

Every ring here is commutative with identity and is *effective*: equality,
arithmetic, unit testing and (where the ring supports it) Bezout certificates
are all computed exactly, with no floating point anywhere.

Shipped ring kinds and their raw value representations:

* ``IntegerRing`` -- arbitrary-precision ``int``.
* ``ModularRing(n)`` -- residues as ``int`` in ``[0, n)``, ``n >= 2``.
* ``GFPolynomialRing(p)`` -- univariate polynomials over the prime field
  ``GF(p)``, stored as coefficient tuples low-to-high with no trailing
  zeros; the zero polynomial is the empty tuple.
* ``ProductRing(factors)`` -- tuples of component values, componentwise ops.
* ``TrivialExtensionRing()`` -- Z ⋉ Q: pairs ``(a, e)``, ``e`` a ``Fraction``,
  with the square-zero multiplication ``(a, e)(b, f) = (ab, af + be)``.
* ``SelfExtensionRing(base)`` -- A ⋉ A: pairs of base values, multiplied alike.
* ``TruncatedSeriesRing(order)`` -- elements ``a0 + a1*x + ... + ak*x^k``
  with integer constant term and rational higher coefficients, truncated at
  exponent ``order`` (an honest quotient, so the ring axioms hold exactly).

A :class:`BezoutCertificate` for a pair ``(a, b)`` witnesses the principal
ideal ``aR + bR = dR`` with the identities

    a*x + b*y = d,    a = d*a0,    b = d*b0,    a0*x + b0*y = 1.

The last ("refined") identity makes the 2x2 completion ``[[x, -b0], [y, a0]]``
unimodular with determinant exactly 1, which is what column reduction needs.
It is waived only for the degenerate pair ``(0, 0)``.

All values are immutable and all operations are pure functions, so everything
is safe to share across workers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Iterator


class RingError(ValueError):
    """Base class for all exact-arithmetic errors."""


class RingMismatchError(RingError):
    """Two elements with different ring descriptors were combined."""


class NotAUnitError(RingError):
    pass


class NonDivisibleError(RingError):
    pass


class NotAssociatesError(RingError):
    pass


class InfiniteRingError(RingError):
    """An exhaustive operation was requested on an infinite ring."""


class UnsupportedOperationError(RingError):
    """The ring kind does not support the requested operation."""


class PreconditionError(RingError):
    """A documented algorithm precondition was violated by the inputs."""


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Classic extended Euclid: returns (g, x, y) with a*x + b*y = g >= 0."""
    quots = []
    while a != 0:
        quots.append(b // a)
        a, b = b % a, a
    g = abs(b)
    x, y = 0, (0 if b == 0 else (1 if b > 0 else -1))
    for q in reversed(quots):
        x, y = y - q * x, x
    return g, x, y


def _rational_gcd(e: Fraction, f: Fraction) -> Fraction:
    """Generator of the Z-module Z*e + Z*f inside Q (nonnegative)."""
    if e == 0 and f == 0:
        return Fraction(0)
    num = gcd(e.numerator * f.denominator, f.numerator * e.denominator)
    return Fraction(num, e.denominator * f.denominator)


def _round_quotient(a, b):
    """The integer q nearest to a/b, for integers or rationals with b != 0.

    divmod leaves r with the sign of b; past half of |b| the next multiple
    is nearer, so the remainder a - b*q has |a - b*q| <= |b|/2.
    """
    q, r = divmod(a, b)
    return q + 1 if 2 * abs(r) > abs(b) else q


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients low-to-high, no trailing zeros


def _ptrim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    low = [(x + y) % p for x, y in zip(a, b)]
    if len(a) > len(b):  # the longer top coefficient is nonzero: no trim
        return tuple(low) + a[len(b):]
    return _ptrim(low)


def _pneg(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((-c) % p for c in a)


def _pfma(y: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """y + a*b, accumulated in one list with one reduction mod p per coefficient."""
    if not a or not b:
        return y
    if len(a) > len(b):  # the outer loop over the shorter factor
        a, b = b, a
    out = list(y)
    out += [0] * (len(a) + len(b) - 1 - len(out))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _ptrim([c % p for c in out])


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return _pfma((), a, b, p)


def _kpack(a: tuple[int, ...], k: int) -> int:
    """a(2**k): the coefficients of a in k-bit slots, lowest slot first."""
    v = 0
    for c in reversed(a):
        v = (v << k) | c
    return v


def _kunpack(v: int, k: int, p: int) -> tuple[int, ...]:
    """The polynomial whose coefficients mod p are the k-bit slots of v >= 0."""
    mask = (1 << k) - 1
    out = []
    while v:
        out.append((v & mask) % p)
        v >>= k
    return _ptrim(out)


def _pdivmod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    top = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    # one pass from the top: the quotient coefficient at shift k cancels
    # r[k + top]; only the entries below it change, and each is reduced
    # mod p once, when the quotient needs it or at the end.  The top
    # coefficient of a is nonzero, so q needs no trim; q and the loop are
    # empty when deg a < deg b.
    low = b[:top]
    r = list(a)
    q = [0] * (len(a) - top)
    for k in range(len(a) - 1 - top, -1, -1):
        coef = r[k + top] * inv_lead % p
        if coef:
            q[k] = coef
            for i, bi in enumerate(low, k):
                r[i] -= coef * bi
    return tuple(q), _ptrim([c % p for c in r[:top]])


def _pmonic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple((c * inv) % p for c in a)


def _pgcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Monic gcd over GF(p)[x] (the zero tuple for two zeros)."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _pegcd(a: tuple[int, ...], b: tuple[int, ...], p: int):
    """Extended gcd over GF(p)[x]: (g, x, y) with a*x + b*y = g, g monic or 0.

    Only the x cofactors are carried; GF(p)[x] is a domain, so for b != 0
    the y with a*x + b*y = g is unique and comes from one exact division.
    """
    r0, r1 = a, b
    x0, x1 = (1,), ()
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        x0, x1 = x1, _pfma(x0, _pneg(q, p), x1, p)
    if not r0:  # a = b = 0
        return (), x0, ()
    inv = pow(r0[-1], -1, p)
    g, x = _pmonic(r0, p), _pmul(x0, (inv,), p)
    if not b:
        return g, x, ()
    return g, x, _pdivmod(_pfma(g, _pneg(a, p), x, p), b, p)[0]


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality in O(log n) modular squarings.

    Raises RingError for n >= _MR_LIMIT with no prime factor up to 41,
    where these bases no longer decide.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise RingError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------


class Ring(ABC):
    """A ring descriptor together with exact operations on raw values.

    Instances are immutable; equality is structural, so two separately
    constructed descriptors of the same ring compare (and hash) equal.
    Raw values are plain hashable Python data; :class:`RingElement` wraps a
    ring and a raw value for the public API.
    """

    kind: str = ""

    # -- identity ----------------------------------------------------------

    def _key(self) -> tuple:
        return (self.kind,)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Ring) and self._key() == other._key())

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<ring {self.expression()}>"

    @abstractmethod
    def expression(self) -> str:
        """Descriptor expression in the CLI grammar."""

    # -- capabilities --------------------------------------------------------

    @property
    def finite(self) -> bool:
        return False

    @property
    def bezout_total(self) -> bool:
        return True

    def cardinality(self) -> int:
        raise InfiniteRingError(f"{self.expression()} is not a finite ring")

    def elements(self) -> Iterator[Any]:
        raise InfiniteRingError(f"{self.expression()} is not enumerable")

    # -- raw arithmetic ------------------------------------------------------

    @abstractmethod
    def normalize(self, value: Any) -> Any:
        """Validate and normalize a raw payload; raises RingError if malformed."""

    # Every ring provides ``zero`` and ``one``: as class attributes, or as
    # instance attributes built once in ``__init__``.
    zero: Any
    one: Any

    @abstractmethod
    def add(self, x: Any, y: Any) -> Any: ...

    @abstractmethod
    def neg(self, x: Any) -> Any: ...

    @abstractmethod
    def mul(self, x: Any, y: Any) -> Any: ...

    def sub(self, x: Any, y: Any) -> Any:
        return self.add(x, self.neg(y))

    # -- row kernels -----------------------------------------------------------
    #
    # The matrix hot loops call these once per row (or column) instead of
    # once per entry.  The defaults are plain add/mul loops; a ring with
    # cheap native arithmetic overrides them and must return exactly the
    # same normal values.  The shears (axpy, col_axpy) make one fma call per
    # nonzero entry, so a ring speeds up both by overriding fma alone; Z
    # overrides the shears themselves with builtin operators.  A matrix
    # product is one matmul call, so a ring can convert each operand entry
    # once per product instead of once per dot.

    def dot(self, xs, ys) -> Any:
        """The sum of xs[k] * ys[k] over the common length; zero if empty."""
        products = map(self.mul, xs, ys)
        return functools.reduce(self.add, products, next(products, self.zero))

    def matmul(self, rows, cols) -> list:
        """The product of the matrix with these rows and the one with these
        columns, as a list of result rows."""
        dot = self.dot
        return [[dot(r, c) for c in cols] for r in rows]

    def fma(self, y: Any, q: Any, x: Any) -> Any:
        """y + q * x."""
        return self.add(y, self.mul(q, x))

    def axpy(self, dst: list, src, q: Any) -> None:
        """dst[c] += q * src[c] in place, skipping the zero entries of src."""
        fma, zero = self.fma, self.zero
        for c, x in enumerate(src):
            if x != zero:
                dst[c] = fma(dst[c], q, x)

    def col_axpy(self, rows, j: int, k: int, q: Any) -> None:
        """row[j] += q * row[k] in place for every row, skipping zeros at k."""
        fma, zero = self.fma, self.zero
        for row in rows:
            x = row[k]
            if x != zero:
                row[j] = fma(row[j], q, x)

    @abstractmethod
    def is_unit(self, x: Any) -> bool: ...

    @abstractmethod
    def inverse(self, x: Any) -> Any: ...

    # -- divisibility and certificates ---------------------------------------

    def divides(self, d: Any, a: Any) -> bool:
        """True iff a is in dR, that is iff divide_exact(a, d) succeeds."""
        try:
            self.divide_exact(a, d)
            return True
        except NonDivisibleError:
            return False

    @abstractmethod
    def divide_exact(self, a: Any, d: Any) -> Any:
        """A deterministic q with a = d*q; raises NonDivisibleError otherwise."""

    def associate_unit(self, a: Any, d: Any) -> Any:
        """A unit u with a = d*u; raises NotAssociatesError if aR != dR."""
        if a == d:
            return self.one
        if not (self.divides(d, a) and self.divides(a, d)):
            raise NotAssociatesError(f"{a!r} and {d!r} are not associates in {self.expression()}")
        u = self.divide_exact(a, d)
        if not self.is_unit(u):
            raise NotAssociatesError(f"{a!r} and {d!r} are not associates in {self.expression()}")
        return u

    @abstractmethod
    def bezout_raw(self, a: Any, b: Any) -> tuple[Any, Any, Any, Any, Any]:
        """(d, x, y, a0, b0) for a nonzero pair; the (0, 0) pair never reaches here."""

    def gcd(self, a: Any, b: Any) -> Any:
        """Exactly bezout_raw(a, b)[0], and zero for the (0, 0) pair.

        The generator of aR + bR without the cofactors: comaximality tests
        and gcd folds need only this.  A ring with a cheaper way to the same
        value overrides it.
        """
        if a == self.zero and b == self.zero:
            return self.zero
        return self.bezout_raw(a, b)[0]

    def canonical_associate(self, a: Any) -> Any:
        """The canonical generator of aR (nonnegative / monic / divisor of n)."""
        if a == self.zero:
            return self.zero
        return self.bezout_raw(a, self.zero)[0]

    # -- Euclidean size -------------------------------------------------------
    #
    # diagonal_reduce pivots on an entry of least size and clears with
    # remainders, so every ring with total Bezout certificates defines both;
    # products are reduced factor by factor and need neither.
    # Units have the least size, a remainder is zero or smaller than its
    # divisor, and a strictly falling chain of sizes met in one sweep ends.

    def size(self, a: Any) -> Any:
        """Euclidean size of a nonzero a; units have the least size."""
        raise UnsupportedOperationError(f"{self.expression()} has no Euclidean size")

    def nearest_quotient(self, a: Any, b: Any) -> Any:
        """For b != 0, a q with a - b*q zero or of size below size(b)."""
        raise UnsupportedOperationError(f"{self.expression()} has no Euclidean size")

    # -- search orders -------------------------------------------------------

    def search_order(self) -> Iterator[Any]:
        """Deterministic small-first stream of elements for bounded searches."""
        if self.finite:
            return self.elements()
        raise UnsupportedOperationError(f"no search order for {self.expression()}")

    def residues_mod(self, c: Any) -> Iterator[Any]:
        """Canonical residues of R modulo cR, or modulo cR + N for a square-zero
        ideal N, which decides comaximality with c alike; finite with R/cR."""
        if self.finite:
            return self.elements()
        raise UnsupportedOperationError(
            f"no residue enumeration modulo {c!r} in {self.expression()}")

    # -- text / JSON encodings ------------------------------------------------

    @abstractmethod
    def value_to_json(self, v: Any) -> Any: ...

    @abstractmethod
    def value_from_json(self, obj: Any) -> Any:
        """The value that obj encodes, validated and already in normal form."""


def _int_from_json(obj: Any, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise RingError(f"expected an integer for {what}, got {obj!r}")
    try:
        return int(obj)
    except ValueError as exc:
        raise RingError(f"bad integer text {obj!r} for {what}") from exc


def _fraction_from_json(obj: Any, what: str) -> Fraction:
    if isinstance(obj, bool):
        raise RingError(f"expected a rational for {what}, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise RingError(f"bad rational text {obj!r} for {what}") from exc
    raise RingError(f"expected a rational for {what}, got {obj!r}")


_QZERO = Fraction(0)


def _fraction(num: int, den: int) -> Fraction:
    """num/den (den > 0) in lowest terms, one Fraction built; zero is shared."""
    if not num:
        return _QZERO
    return Fraction(num) if den == 1 else Fraction(num, den)


def _qsum(an: int, ad: int, bn: int, bd: int) -> Fraction:
    """an/ad + bn/bd (positive denominators) as one Fraction."""
    if ad == bd:
        return _fraction(an + bn, ad)
    return _fraction(an * bd + bn * ad, ad * bd)


def _qlsum(terms) -> Fraction:
    """The sum of n/d over (n, d) pairs (d > 0) as one Fraction, kept over
    the lcm of the denominators seen so far."""
    num, den = 0, 1
    for n, d in terms:
        if not n:
            continue
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return _fraction(num, den)


def _split_module(vectors):
    """(bases, numerators, l) for vectors of (integer, Fraction) pairs: l is
    the lcm of every denominator, and the numerators are the module parts
    times l, so every integer vector is exact."""
    l = lcm(*[e.denominator for v in vectors for _, e in v])
    return ([[a for a, _ in v] for v in vectors],
            [[e.numerator * (l // e.denominator) for _, e in v] for v in vectors], l)


def _fraction_to_json(q: Fraction) -> Any:
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


class IntegerRing(Ring):
    """The rational integers Z."""

    kind = "integers"

    def expression(self) -> str:
        return "z"

    def normalize(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise RingError(f"integer payload expected, got {value!r}")
        return value

    zero = 0
    one = 1

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys))

    def matmul(self, rows, cols):
        mul = operator.mul
        return [[sum(map(mul, r, c)) for c in cols] for r in rows]

    def fma(self, y, q, x):
        return y + q * x

    def axpy(self, dst, src, q):
        for c, x in enumerate(src):
            if x:
                dst[c] += q * x

    def col_axpy(self, rows, j, k, q):
        for row in rows:
            x = row[k]
            if x:
                row[j] += q * x

    def is_unit(self, x):
        return x in (1, -1)

    def inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnitError(f"{x} is not a unit of z")
        return x

    def divides(self, d, a):
        if d == 0:
            return a == 0
        return a % d == 0

    def divide_exact(self, a, d):
        if d == 0:
            if a != 0:
                raise NonDivisibleError(f"{d} does not divide {a} in z")
            return 0
        q, r = divmod(a, d)
        if r != 0:
            raise NonDivisibleError(f"{d} does not divide {a} in z")
        return q

    def bezout_raw(self, a, b):
        g, x, y = _egcd(a, b)
        return g, x, y, (a // g), (b // g)

    def gcd(self, a, b):
        return gcd(a, b)

    size = staticmethod(abs)

    nearest_quotient = staticmethod(_round_quotient)

    def search_order(self):
        yield 0
        k = 1
        while True:
            yield k
            yield -k
            k += 1

    def residues_mod(self, c):
        if c == 0:
            raise UnsupportedOperationError("no finite residue system modulo 0 in z")
        return iter(range(abs(c)))

    def value_to_json(self, v):
        return v

    def value_from_json(self, obj):
        return _int_from_json(obj, "z element")


class ModularRing(Ring):
    """The residue ring Z/nZ with n >= 2."""

    kind = "modular"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise RingError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n

    def _key(self):
        return (self.kind, self.n)

    def expression(self) -> str:
        return f"zmod:{self.n}"

    @property
    def finite(self) -> bool:
        return True

    def cardinality(self) -> int:
        return self.n

    def elements(self):
        return iter(range(self.n))

    def normalize(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise RingError(f"residue payload expected, got {value!r}")
        return value % self.n

    zero = 0
    one = 1  # n >= 2

    def add(self, x, y):
        return (x + y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.n  # one reduction per dot

    def matmul(self, rows, cols):
        mul, n = operator.mul, self.n
        return [[sum(map(mul, r, c)) % n for c in cols] for r in rows]

    def fma(self, y, q, x):
        return (y + q * x) % self.n

    def is_unit(self, x):
        return gcd(x, self.n) == 1

    def inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnitError(f"{x} is not a unit of {self.expression()}")
        return pow(x, -1, self.n)

    def divides(self, d, a):
        return a % gcd(d, self.n) == 0

    def divide_exact(self, a, d):
        g = gcd(d, self.n)
        if a % g != 0:
            raise NonDivisibleError(f"{d} does not divide {a} in {self.expression()}")
        if d == 0:
            return 0
        m = self.n // g
        # smallest nonnegative solution of d*q = a (mod n)
        return (a // g) * pow((d // g) % m, -1, m) % m if m > 1 else 0

    def _unit_lift(self, u0, m):
        """The least unit of Z/n congruent to u0 mod m, for m | n and gcd(u0, m) = 1.

        Units of Z/n map onto the units of Z/m, so one lies among the n // m
        residues u0 + k*m in [0, n); in practice it is a few steps in.
        """
        n = self.n
        for u in range(u0 % m, n, m):
            if gcd(u, n) == 1:
                return u
        raise RingError("internal: unit lift failed in modular ring")  # pragma: no cover

    def associate_unit(self, a, d):
        n = self.n
        g = gcd(d, n)
        if gcd(a, n) != g:
            raise NotAssociatesError(f"{a} and {d} are not associates in {self.expression()}")
        # d*u = a (mod n) iff u = (a/g) * (d/g)^-1 (mod n/g)
        m = n // g
        return self._unit_lift((a // g) * pow((d // g) % m, -1, m), m)

    def bezout_raw(self, a, b):
        n = self.n
        d = gcd(a, b, n)
        big_n = n // d
        # Z/(n/d) has stable range 1, so some y0 < n/d makes gcd(a + b*y0, n) = d
        for y0 in range(big_n):
            w = (a + b * y0) % n
            if gcd(w, n) == d:
                break
        # a unit u with d*u = w (mod n): w//d is a unit mod n//d, lifted to n
        ui = pow(self._unit_lift(w // d, big_n), -1, n)
        x = ui
        y = (y0 * ui) % n
        a0_base, b0 = (a // d) % n, (b // d) % n
        # repair the refined identity a0*x + b0*y = 1 from mod n//d to mod n
        v = (a0_base * x + b0 * y) % n
        k = ((v - 1) // big_n) % d
        alpha = (-k) * pow(x % d, -1, d) % d if d > 1 else 0
        a0 = (a0_base + big_n * alpha) % n
        return (d % n, x, y, a0, b0)

    def gcd(self, a, b):
        return gcd(a, b, self.n) % self.n

    def size(self, a):
        return gcd(a, self.n)  # a divisor of n; 1 for a unit

    def nearest_quotient(self, a, b):
        n = self.n
        g = gcd(b, n)
        if a % g == 0:
            return self.divide_exact(a, b)
        # e = a + g*m0 has gcd(e, n) = h < g: a prime of n/h divides a/h or
        # m0 but not both, and g/h is coprime to a/h.  Then a - e = -g*m0
        # lies in bR, and the remainder a - b*q is e.
        h = gcd(a, g)
        ah, m0 = a // h, n // h
        while (t := gcd(m0, ah)) > 1:
            m0 //= t
        return self.divide_exact(-g * m0 % n, b)

    def value_to_json(self, v):
        return v

    def value_from_json(self, obj):
        return _int_from_json(obj, f"{self.expression()} element") % self.n


class GFPolynomialRing(Ring):
    """Univariate polynomials over the prime field GF(p)."""

    kind = "prime-field-poly"

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise RingError(f"gfpoly characteristic must be prime, got {p!r}")
        self.p = p

    def _key(self):
        return (self.kind, self.p)

    def expression(self) -> str:
        return f"gfpoly:{self.p}"

    def normalize(self, value):
        if isinstance(value, list):
            value = tuple(value)
        if not isinstance(value, tuple) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in value):
            raise RingError(f"coefficient tuple expected, got {value!r}")
        return _ptrim([c % self.p for c in value])

    zero = ()
    one = (1,)

    def add(self, x, y):
        return _padd(x, y, self.p)

    def neg(self, x):
        return _pneg(x, self.p)

    def mul(self, x, y):
        return _pmul(x, y, self.p)

    def dot(self, xs, ys):
        # Kronecker substitution: each polynomial becomes one integer with a
        # coefficient per k-bit slot, the products are summed as integers and
        # unpacked once, with one reduction mod p per coefficient.  A slot of
        # the sum holds at most pairs * min(len a, len b) products of
        # coefficients below p, so k bits never carry into the next slot.
        pairs = [(a, b) for a, b in zip(xs, ys) if a and b]
        if not pairs:
            return ()
        p = self.p
        k = (len(pairs) * max([min(len(a), len(b)) for a, b in pairs])
             * (p - 1) ** 2).bit_length()
        total = 0
        for a, b in pairs:
            total += _kpack(a, k) * _kpack(b, k)
        return _kunpack(total, k, p)

    def matmul(self, rows, cols):
        # dot's substitution with one slot width for the whole product, so
        # each entry is packed once: a slot of an entry holds at most
        # inner * min(longest of A, longest of B) coefficient products
        p = self.p
        inner = len(rows[0]) if rows else 0
        longest = min(max([len(a) for r in rows for a in r], default=0),
                      max([len(b) for c in cols for b in c], default=0))
        k = (inner * longest * (p - 1) ** 2).bit_length()
        pack = functools.partial(_kpack, k=k)
        prows = [list(map(pack, r)) for r in rows]
        pcols = [list(map(pack, c)) for c in cols]
        mul = operator.mul
        return [[_kunpack(sum(map(mul, r, c)), k, p) for c in pcols] for r in prows]

    def fma(self, y, q, x):
        return _pfma(y, q, x, self.p)

    def is_unit(self, x):
        return len(x) == 1

    def inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnitError(f"{x!r} is not a unit of {self.expression()}")
        return (pow(x[0], -1, self.p),)

    def divides(self, d, a):
        if not d:
            return not a
        return not _pdivmod(a, d, self.p)[1]

    def divide_exact(self, a, d):
        if not d:
            if a:
                raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
            return ()
        q, r = _pdivmod(a, d, self.p)
        if r:
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        return q

    def bezout_raw(self, a, b):
        g, x, y = _pegcd(a, b, self.p)
        return g, x, y, self.divide_exact(a, g), self.divide_exact(b, g)

    def gcd(self, a, b):
        return _pgcd(a, b, self.p)

    size = staticmethod(len)  # degree + 1

    def nearest_quotient(self, a, b):
        return _pdivmod(a, b, self.p)[0]

    def search_order(self):
        # graded: by degree, then coefficients low-to-high
        yield ()
        for deg in itertools.count(0):
            for lead in range(1, self.p):
                for rest in itertools.product(range(self.p), repeat=deg):
                    yield rest + (lead,)

    def residues_mod(self, c):
        if not c:
            raise UnsupportedOperationError(
                f"no finite residue system modulo 0 in {self.expression()}")
        deg = len(c) - 1
        return (_ptrim(list(t)) for t in itertools.product(range(self.p), repeat=deg))

    def value_to_json(self, v):
        return list(v)

    def value_from_json(self, obj):
        if not isinstance(obj, list):
            raise RingError(f"coefficient array expected, got {obj!r}")
        return self.normalize(tuple(_int_from_json(c, "coefficient") for c in obj))


def _product_elements(rings):
    """``itertools.product`` of the rings' elements, in its order, without first
    copying each ring's elements: a ring's stream restarts for each prefix."""
    if not rings:
        return iter([()])
    return ((x, *rest) for x in rings[0].elements() for rest in _product_elements(rings[1:]))


class ProductRing(Ring):
    """A finite direct product of rings; all operations are componentwise."""

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise RingError("product needs at least one factor")
        if not all(isinstance(f, Ring) for f in factors):
            raise RingError("product factors must be rings")
        self.factors = factors
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def _key(self):
        return (self.kind, tuple(f._key() for f in self.factors))

    def expression(self) -> str:
        return "product:" + ",".join(f.expression() for f in self.factors)

    @property
    def finite(self) -> bool:
        return all(f.finite for f in self.factors)

    @property
    def bezout_total(self) -> bool:
        return all(f.bezout_total for f in self.factors)

    def cardinality(self):
        total = 1
        for f in self.factors:
            total *= f.cardinality()
        return total

    def elements(self):
        return _product_elements(self.factors)

    def normalize(self, value):
        if isinstance(value, list):
            value = tuple(value)
        if not isinstance(value, tuple) or len(value) != len(self.factors):
            raise RingError(f"tuple of {len(self.factors)} components expected, got {value!r}")
        return tuple(f.normalize(v) for f, v in zip(self.factors, value))

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def dot(self, xs, ys):
        # each factor's own kernel on its column of components
        xcols, ycols = list(zip(*xs)), list(zip(*ys))
        if not xcols or not ycols:
            return self.zero
        return tuple([f.dot(cx, cy) for f, cx, cy in zip(self.factors, xcols, ycols)])

    def matmul(self, rows, cols):
        # each factor's own matmul on its component matrices; entry (i, j)
        # of the result is the tuple of entry (i, j) of every factor's product
        parts = [f.matmul([[v[idx] for v in r] for r in rows],
                          [[v[idx] for v in c] for c in cols])
                 for idx, f in enumerate(self.factors)]
        return [list(zip(*prow)) for prow in zip(*parts)]

    def is_unit(self, x):
        return all(f.is_unit(a) for f, a in zip(self.factors, x))

    def inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnitError(f"{x!r} is not a unit of {self.expression()}")
        return tuple(f.inverse(a) for f, a in zip(self.factors, x))

    def divides(self, d, a):
        return all(f.divides(di, ai) for f, di, ai in zip(self.factors, d, a))

    def divide_exact(self, a, d):
        return tuple(f.divide_exact(ai, di) for f, ai, di in zip(self.factors, a, d))

    def associate_unit(self, a, d):
        return tuple(f.associate_unit(ai, di) for f, ai, di in zip(self.factors, a, d))

    def bezout_raw(self, a, b):
        ds, xs, ys, a0s, b0s = [], [], [], [], []
        for f, ai, bi in zip(self.factors, a, b):
            if ai == f.zero and bi == f.zero:
                # zero-pair component: d=0 still admits a refined certificate
                di, xi, yi, a0i, b0i = f.zero, f.one, f.zero, f.one, f.zero
            else:
                di, xi, yi, a0i, b0i = f.bezout_raw(ai, bi)
            ds.append(di)
            xs.append(xi)
            ys.append(yi)
            a0s.append(a0i)
            b0s.append(b0i)
        return tuple(ds), tuple(xs), tuple(ys), tuple(a0s), tuple(b0s)

    def gcd(self, a, b):
        return tuple([f.gcd(ai, bi) for f, ai, bi in zip(self.factors, a, b)])

    def value_to_json(self, v):
        return [f.value_to_json(c) for f, c in zip(self.factors, v)]

    def value_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.factors):
            raise RingError(f"array of {len(self.factors)} components expected, got {obj!r}")
        return tuple(f.value_from_json(c) for f, c in zip(self.factors, obj))


class TrivialExtensionRing(Ring):
    """Z ⋉ Q: pairs ``(a, e)`` of an integer and a rational multiplying as
    ``(a, e)(b, f) = (ab, af + be)``.  The pairs ``(0, e)`` form an ideal that
    squares to zero; Bezout certificates are total."""

    kind = "trivial-extension"
    base = IntegerRing()
    zero = (0, _QZERO)
    one = (1, _QZERO)

    def expression(self) -> str:
        return "text:z,q"

    def normalize(self, value):
        if isinstance(value, list):
            value = tuple(value)
        if not isinstance(value, tuple) or len(value) != 2:
            raise RingError(f"pair (a, e) expected, got {value!r}")
        a, e = self.base.normalize(value[0]), value[1]
        if isinstance(e, int) and not isinstance(e, bool):
            e = Fraction(e)
        if not isinstance(e, Fraction):
            raise RingError(f"rational module component expected, got {e!r}")
        return (a, e)

    # The kernels work on the numerators and denominators of the module
    # parts and build one Fraction per result.

    def add(self, x, y):
        (a, e), (b, f) = x, y
        en, ed = e.as_integer_ratio()
        fn, fd = f.as_integer_ratio()
        return (a + b, _qsum(en, ed, fn, fd))

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        (a, e), (b, f) = x, y
        en, ed = e.as_integer_ratio()
        fn, fd = f.as_integer_ratio()
        return (a * b, _qsum(a * fn, fd, b * en, ed))

    def dot(self, xs, ys):
        # the module part sum(a*f + b*e) over the lcm of the denominators
        s = 0
        terms = []
        for (a, e), (b, f) in zip(xs, ys):
            s += a * b
            en, ed = e.as_integer_ratio()
            fn, fd = f.as_integer_ratio()
            terms += ((a * fn, fd), (b * en, ed))
        return (s, _qlsum(terms))

    def matmul(self, rows, cols):
        # Each side's module parts over the lcm of that side's denominators:
        # with E = En/lE on the left and F = Fn/lF on the right, the module
        # part of the product is A*F + E*B = (lE*(A*Fn) + lF*(En*B)) / (lE*lF).
        (a, en, le), (b, fn, lf) = _split_module(rows), _split_module(cols)
        den, mul = le * lf, operator.mul
        return [[(sum(map(mul, ar, bc)),
                  _fraction(le * sum(map(mul, ar, fc)) + lf * sum(map(mul, er, bc)), den))
                 for bc, fc in zip(b, fn)] for ar, er in zip(a, en)]

    def fma(self, y, q, x):
        # (c, g) + (a, e)(b, f) = (c + ab, g + af + be), one Fraction built
        (c, g), (a, e), (b, f) = y, q, x
        en, ed = e.as_integer_ratio()
        fn, fd = f.as_integer_ratio()
        return (c + a * b, _qlsum((g.as_integer_ratio(), (a * fn, fd), (b * en, ed))))

    def is_unit(self, x):
        return x[0] in (1, -1)

    def inverse(self, x):
        # (a, e)(a, -e) = (1, 0) for a = +-1
        if not self.is_unit(x):
            raise NotAUnitError(f"{x!r} is not a unit of {self.expression()}")
        return (x[0], -x[1])

    def divides(self, d, a):
        (md, qd), (ma, qa) = d, a
        if md != 0:
            return ma % md == 0
        if ma != 0:
            return False
        if qd == 0:
            return qa == 0
        return (qa / qd).denominator == 1

    def divide_exact(self, a, d):
        (ma, qa), (md, qd) = a, d
        if md != 0:
            if ma % md != 0:
                raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
            k = ma // md
            return (k, (qa - qd * k) / md)
        if ma != 0 or (qd == 0 and qa != 0):
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        if qd == 0:
            return self.zero
        k = qa / qd
        if k.denominator != 1:
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        return (int(k), Fraction(0))

    def bezout_raw(self, a, b):
        (ma, qa), (mb, qb) = a, b
        g, alpha, beta = _egcd(ma, mb)
        if g != 0:
            d = (g, Fraction(0))
            # the divisible module absorbs the stray second coordinate
            h = qa * alpha + qb * beta
            if ma != 0:
                x = (alpha, -h / ma)
                y = (beta, Fraction(0))
            else:
                x = (alpha, Fraction(0))
                y = (beta, -h / mb)
            a0 = self.divide_exact(a, d)
            b0 = self.divide_exact(b, d)
            return d, x, y, a0, b0
        # both base components vanish: the pair lives in the square-zero ideal
        c = _rational_gcd(qa, qb)
        d = (0, c)
        ea = qa / c
        eb = qb / c
        _, m1, m2 = _egcd(int(ea), int(eb))
        x = (m1, Fraction(0))
        y = (m2, Fraction(0))
        a0 = (int(ea), Fraction(0))
        b0 = (int(eb), Fraction(0))
        return d, x, y, a0, b0

    def canonical_associate(self, a):
        m, q = a
        if m != 0:
            return (abs(m), Fraction(0))
        return (0, abs(q))

    # Euclidean size: (0, |a|) while the base part a is nonzero, and (1, |e|)
    # in the square-zero ideal, which every nonzero base part outranks.

    def size(self, a):
        m, e = a
        return (0, abs(m)) if m else (1, abs(e))

    def nearest_quotient(self, a, b):
        (m, e), (bm, s) = a, b
        if bm:
            c = _round_quotient(m, bm)
            # the module part clears e only where the base parts cancel;
            # elsewhere it stays zero and keeps bm out of the denominators
            return (c, (e - c * s) / bm if m == c * bm else _QZERO)
        if m:
            return self.zero
        return (_round_quotient(e, s), _QZERO)

    def search_order(self):
        return ((k, _QZERO) for k in self.base.search_order())

    def residues_mod(self, c):
        # the base's residues modulo c0: all of R/cR
        return ((k, _QZERO) for k in self.base.residues_mod(c[0]))

    def value_to_json(self, v):
        return [v[0], _fraction_to_json(v[1])]

    def value_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != 2:
            raise RingError(f"two-element array expected, got {obj!r}")
        return (_int_from_json(obj[0], "base component"),
                _fraction_from_json(obj[1], "module component"))


class SelfExtensionRing(Ring):
    """A ⋉ A: pairs of base values, multiplied as in ``TrivialExtensionRing``.

    Two-generated ideals need not be principal (e.g. the pair ((2,0),(0,1))
    over a Z/4 base), so there are no Bezout certificates.
    """

    kind = "trivial-extension"
    bezout_total = False

    def __init__(self, base: Ring):
        self.base = base
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def _key(self):
        return (self.kind, self.base._key())

    def expression(self) -> str:
        return f"text:{self.base.expression()},self"

    @property
    def finite(self) -> bool:
        return self.base.finite

    def cardinality(self):
        return self.base.cardinality() ** 2 if self.finite else super().cardinality()

    def elements(self):
        return _product_elements((self.base, self.base)) if self.finite else super().elements()

    def normalize(self, value):
        if isinstance(value, list):
            value = tuple(value)
        if not isinstance(value, tuple) or len(value) != 2:
            raise RingError(f"pair (a, e) expected, got {value!r}")
        return (self.base.normalize(value[0]), self.base.normalize(value[1]))

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        (a, e), (b, f) = x, y
        base = self.base
        return (base.mul(a, b), base.add(base.mul(a, f), base.mul(b, e)))

    def is_unit(self, x):
        return self.base.is_unit(x[0])

    def inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnitError(f"{x!r} is not a unit of {self.expression()}")
        base = self.base
        v = base.inverse(x[0])
        return (v, base.neg(base.mul(base.mul(v, v), x[1])))

    def _self_quotients(self, a, d):
        """The q with d*q = a, least first on a finite base.

        d*q = (d0*q0, d0*q1 + d1*q0): q0 solves d0*q0 = a0, and q1 is the
        base's quotient of a1 - d1*q0 by d0, its least on a finite base.
        There q0 runs up the base's ascending elements, or is the one
        solution for a unit d0; an infinite base takes a0/d0, or a1/d1 when
        d0 = a0 = 0.
        """
        base = self.base
        (a0, a1), (d0, d1) = a, d
        if self.finite and not base.is_unit(d0):
            q0s = (q0 for q0 in base.elements() if base.mul(d0, q0) == a0)
        else:
            x, y = (a1, d1) if d0 == base.zero == a0 and d1 != base.zero else (a0, d0)
            q0s = [base.divide_exact(x, y)] if base.divides(y, x) else []
        for q0 in q0s:
            r = base.sub(a1, base.mul(d1, q0))
            if base.divides(d0, r):
                yield (q0, base.divide_exact(r, d0))

    def divide_exact(self, a, d):
        q = next(self._self_quotients(a, d), None)
        if q is None:
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        return q

    def bezout_raw(self, a, b):
        raise UnsupportedOperationError(
            f"bezout certificates is not supported in {self.expression()}")

    def associate_unit(self, a, d):
        if a == d:
            return self.one
        for u in self._self_quotients(a, d):
            if self.base.is_unit(u[0]):
                return u
        raise NotAssociatesError(f"{a!r} and {d!r} are not associates in {self.expression()}")

    def canonical_associate(self, a):
        if a == self.zero:
            return self.zero
        if self.finite:
            # the least a*u = (a0*u0, a1*u0 + a0*u1) over units u: the least
            # b0 = a0*u0, then the least a1*u0 + a0*A over the u0 reaching b0,
            # a coset of Ann(a0), so |Ann(a0)| * |a0*A| = |A| steps
            if self.is_unit(a):
                return self.one
            base, (a0, a1) = self.base, a
            units = [u0 for u0 in base.elements() if base.is_unit(u0)]
            b0 = min(base.mul(a0, u0) for u0 in units)
            ideal = {base.mul(a0, t) for t in base.elements()}
            return (b0, min(base.add(base.mul(a1, u0), i)
                            for u0 in units if base.mul(a0, u0) == b0 for i in ideal))
        if isinstance(self.base, IntegerRing):
            m, e = a
            if m != 0:
                am = abs(m)
                return (am, e % am if m > 0 else (-e) % am)
            return (0, abs(e))
        raise UnsupportedOperationError(
            f"no canonical associates in {self.expression()}")

    def residues_mod(self, c):
        # the base's residues modulo c0, which decide comaximality with c,
        # since 0 ⋉ A squares to zero
        return ((k, self.base.zero) for k in self.base.residues_mod(c[0]))

    def search_order(self):
        if self.finite:
            return self.elements()
        return ((k, self.base.zero) for k in self.base.search_order())

    def value_to_json(self, v):
        return [self.base.value_to_json(v[0]), self.base.value_to_json(v[1])]

    def value_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != 2:
            raise RingError(f"two-element array expected, got {obj!r}")
        return (self.base.value_from_json(obj[0]), self.base.value_from_json(obj[1]))


class TruncatedSeriesRing(Ring):
    """Series with integer constant term and rational tail, truncated at x^order.

    This is the quotient of {a0 + a1 x + ... : a0 integer, ai rational} by the
    ideal of terms beyond x^order, so all ring axioms hold exactly.  Values are
    pairs ``(constant, coeffs)`` where ``coeffs[i]`` is the coefficient of
    ``x^(i+1)``, trailing zeros stripped.  Bezout certificates exist here only
    when at least one operand has a nonzero constant term (that operand is then
    a unit multiple of its constant); other pairs are rejected.
    """

    kind = "truncated-series"

    def __init__(self, order: int = 8):
        if not isinstance(order, int) or order < 1:
            raise RingError(f"truncation order must be >= 1, got {order!r}")
        self.order = order

    def _key(self):
        return (self.kind, self.order)

    def expression(self) -> str:
        return f"series:{self.order}"

    @property
    def bezout_total(self) -> bool:
        return False

    def normalize(self, value):
        if isinstance(value, list):
            value = tuple(value)
        if not isinstance(value, tuple) or len(value) != 2:
            raise RingError(f"(constant, coeffs) pair expected, got {value!r}")
        c, coeffs = value
        if isinstance(c, bool) or not isinstance(c, int):
            raise RingError(f"integer constant term expected, got {c!r}")
        coeffs = list(coeffs)[: self.order]
        out = []
        for q in coeffs:
            if isinstance(q, int) and not isinstance(q, bool):
                q = Fraction(q)
            if not isinstance(q, Fraction):
                raise RingError(f"rational coefficient expected, got {q!r}")
            out.append(q)
        while out and out[-1] == 0:
            out.pop()
        return (c, tuple(out))

    zero = (0, ())
    one = (1, ())

    def _coeff(self, v, k: int) -> Fraction:
        if k == 0:
            return Fraction(v[0])
        return v[1][k - 1] if k - 1 < len(v[1]) else Fraction(0)

    def add(self, x, y):
        n = max(len(x[1]), len(y[1]))
        coeffs = tuple(self._coeff(x, k) + self._coeff(y, k) for k in range(1, n + 1))
        return self.normalize((x[0] + y[0], coeffs))

    def neg(self, x):
        return (-x[0], tuple(-q for q in x[1]))

    def mul(self, x, y):
        const = x[0] * y[0]
        coeffs = []
        for k in range(1, self.order + 1):
            coeffs.append(sum((self._coeff(x, i) * self._coeff(y, k - i)
                               for i in range(k + 1)), Fraction(0)))
        return self.normalize((const, tuple(coeffs)))

    def is_unit(self, x):
        return x[0] in (1, -1)

    def inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnitError(f"{x!r} is not a unit of {self.expression()}")
        b = [Fraction(x[0])]  # constant +-1 is its own inverse
        for k in range(1, self.order + 1):
            b.append(-b[0] * sum((self._coeff(x, i) * b[k - i] for i in range(1, k + 1)),
                                 Fraction(0)))
        return self.normalize((int(b[0]), tuple(b[1:])))

    def _lowest(self, x) -> int | None:
        if x[0] != 0:
            return 0
        for i, q in enumerate(x[1]):
            if q != 0:
                return i + 1
        return None

    def divide_exact(self, a, d):
        ld = self._lowest(d)
        if ld is None:
            if self._lowest(a) is not None:
                raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
            return self.zero
        la = self._lowest(a)
        if la is None:
            return self.zero
        if la < ld:
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        # long division of the shifted series; the quotient's constant term
        # must land back in Z for the division to be exact in this ring
        da = [self._coeff(a, k) for k in range(la, self.order + 1)]
        dd = [self._coeff(d, k) for k in range(ld, self.order + 1)]
        qlen = self.order + 1 - la
        q = []
        rem = list(da)
        for i in range(qlen):
            qi = rem[i] / dd[0]
            q.append(qi)
            for j in range(len(dd)):
                if i + j < len(rem):
                    rem[i + j] -= qi * dd[j]
        shift = la - ld
        full = [Fraction(0)] * shift + q
        full = full[: self.order + 1]
        if full[0].denominator != 1:
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        value = self.normalize((int(full[0]), tuple(full[1:])))
        if self.mul(d, value) != self.normalize(a):
            raise NonDivisibleError(f"{d!r} does not divide {a!r} in {self.expression()}")
        return value

    def bezout_raw(self, a, b):
        if a[0] == 0 and b[0] == 0:
            raise UnsupportedOperationError(
                "bezout certificates in a truncated-series ring need an operand "
                "with nonzero constant term")
        if a[0] == 0:
            d, y, x, b0, a0 = self.bezout_raw(b, a)
            return d, x, y, a0, b0
        g, alpha, beta = _egcd(a[0], b[0])
        d = (g, ())
        u = self.divide_exact(a, (a[0], ()))  # unit cofactor 1 + x*(...)
        t = self.sub(d, self.mul(b, (beta, ())))
        x = self.mul(self.inverse(u), self.divide_exact(t, (a[0], ())))
        y = (beta, ())
        a0 = self.divide_exact(a, d)
        b0 = self.divide_exact(b, d)
        return d, x, y, a0, b0

    def canonical_associate(self, a):
        low = self._lowest(a)
        if low is None:
            return self.zero
        if low == 0:
            return (abs(a[0]), ())
        coeffs = [Fraction(0)] * (low - 1) + [abs(self._coeff(a, low))]
        return self.normalize((0, tuple(coeffs)))

    def search_order(self):
        for k in IntegerRing().search_order():
            yield (k, ())

    def residues_mod(self, c):
        if c[0] == 0:
            raise UnsupportedOperationError(
                f"no finite residue system modulo {c!r} in {self.expression()}")
        return iter([(k, ()) for k in range(abs(c[0]))])

    def value_to_json(self, v):
        return {"constant": v[0], "coeffs": [_fraction_to_json(q) for q in v[1]]}

    def value_from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) - {"constant", "coeffs"}:
            raise RingError(f"series object {{constant, coeffs}} expected, got {obj!r}")
        const = _int_from_json(obj.get("constant", 0), "series constant")
        coeffs = obj.get("coeffs", [])
        if not isinstance(coeffs, list):
            raise RingError(f"series coeffs array expected, got {coeffs!r}")
        return self.normalize(
            (const, tuple(_fraction_from_json(q, "series coefficient") for q in coeffs)))


# ---------------------------------------------------------------------------
# elements and certificates


class RingElement:
    """An exact value tagged with its ring; arithmetic requires equal rings."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value: Any):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", ring.normalize(value))

    def __setattr__(self, *_):
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            raise RingMismatchError(f"cannot combine {self!r} with {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(
                f"descriptor mismatch: {self.ring.expression()} vs {other.ring.expression()}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return _raw(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        other = self._coerce(other)
        return _raw(self.ring, self.ring.sub(self.value, other.value))

    def __mul__(self, other):
        other = self._coerce(other)
        return _raw(self.ring, self.ring.mul(self.value, other.value))

    def __neg__(self):
        return _raw(self.ring, self.ring.neg(self.value))

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring == other.ring
                and self.value == other.value)

    def __hash__(self):
        return hash((self.ring, self.value))

    def is_zero(self) -> bool:
        return self.value == self.ring.zero

    def is_one(self) -> bool:
        return self.value == self.ring.one

    def __repr__(self):
        return f"RingElement({self.ring.expression()}, {self.value!r})"


def _raw(ring: Ring, value: Any) -> RingElement:
    # internal constructor for values already in normal form
    el = object.__new__(RingElement)
    object.__setattr__(el, "ring", ring)
    object.__setattr__(el, "value", value)
    return el


def element(ring: Ring, value: Any) -> RingElement:
    return RingElement(ring, value)


def zero(ring: Ring) -> RingElement:
    return _raw(ring, ring.zero)


def one(ring: Ring) -> RingElement:
    return _raw(ring, ring.one)


@dataclass(frozen=True)
class BezoutCertificate:
    """Witness for aR + bR = dR, refined so that a0*x + b0*y = 1.

    ``degenerate`` marks the zero-ideal pair (0, 0), where the refined
    identity is waived and callers are expected to branch explicitly.
    """

    a: RingElement
    b: RingElement
    d: RingElement
    x: RingElement
    y: RingElement
    a0: RingElement
    b0: RingElement
    degenerate: bool = False

    @property
    def ring(self) -> Ring:
        return self.d.ring

    def verify(self) -> bool:
        a, b, d, x, y, a0, b0 = self.a, self.b, self.d, self.x, self.y, self.a0, self.b0
        if a * x + b * y != d:
            return False
        if d * a0 != a or d * b0 != b:
            return False
        if self.degenerate:
            return a.is_zero() and b.is_zero() and d.is_zero()
        return (a0 * x + b0 * y).is_one()


def _same_ring(*els: RingElement) -> Ring:
    ring = els[0].ring
    for e in els[1:]:
        if e.ring != ring:
            raise RingMismatchError(
                f"descriptor mismatch: {ring.expression()} vs {e.ring.expression()}")
    return ring


def arithmetic(a: RingElement, b: RingElement, op: str) -> RingElement:
    """Dispatch add/sub/mul by name on two elements of one ring."""
    _same_ring(a, b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise RingError(f"unknown arithmetic op {op!r}")


def is_unit(a: RingElement) -> bool:
    return a.ring.is_unit(a.value)


def inverse(a: RingElement) -> RingElement:
    return _raw(a.ring, a.ring.inverse(a.value))


def bezout(a: RingElement, b: RingElement) -> BezoutCertificate:
    """Bezout certificate for the ideal aR + bR; see BezoutCertificate."""
    ring = _same_ring(a, b)
    if a.is_zero() and b.is_zero():
        return BezoutCertificate(a, b, zero(ring), one(ring), zero(ring),
                                 zero(ring), zero(ring), degenerate=True)
    d, x, y, a0, b0 = ring.bezout_raw(a.value, b.value)
    return BezoutCertificate(a, b, _raw(ring, d), _raw(ring, x), _raw(ring, y),
                             _raw(ring, a0), _raw(ring, b0))


def divides(d: RingElement, a: RingElement) -> bool:
    _same_ring(d, a)
    return d.ring.divides(d.value, a.value)


def divide_exact(a: RingElement, d: RingElement) -> RingElement:
    _same_ring(a, d)
    return _raw(a.ring, a.ring.divide_exact(a.value, d.value))


def associate_unit(a: RingElement, d: RingElement) -> RingElement:
    _same_ring(a, d)
    return _raw(a.ring, a.ring.associate_unit(a.value, d.value))


def canonical_associate(a: RingElement) -> RingElement:
    return _raw(a.ring, a.ring.canonical_associate(a.value))


def enumerate_elements(ring: Ring) -> Iterator[RingElement]:
    """All elements of a finite ring, each exactly once, deterministic order."""
    for v in ring.elements():
        yield _raw(ring, v)


def cardinality(ring: Ring) -> int:
    return ring.cardinality()
