"""Exact ring arithmetic written for the benchmark, independent of edrkit.

The oracles check edrkit's output documents with these classes, and the
workload generators use them to build inputs that meet each command's
preconditions.  Elements are plain Python values decoded from the JSON text
encodings that edrkit documents:

* ``z``: int;  ``zmod:n``: int in [0, n);
* ``gfpoly:p``: tuple of coefficients low-to-high, no trailing zeros;
* ``product:...``: tuple of component values;
* ``text:z,q``: pair (int, Fraction) multiplying as (a, e)(b, f) = (ab, af + be).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ArithError(ValueError):
    """A document entry that does not decode as an element of the ring."""


def _int(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ArithError(f"integer expected, got {obj!r}")
    return obj


class Integers:
    spec = "z"

    zero = 0
    one = 1

    def parse(self, obj):
        return _int(obj)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def divides(self, d, a):
        return a == 0 if d == 0 else a % d == 0

    def canonical(self, a):
        return abs(a)

    def associates(self, a, b):
        return abs(a) == abs(b)


class Residues:
    def __init__(self, n: int):
        self.n = n
        self.spec = f"zmod:{n}"
        self.zero = 0
        self.one = 1 % n

    def parse(self, obj):
        v = _int(obj)
        if not 0 <= v < self.n:
            raise ArithError(f"residue {v} is not reduced modulo {self.n}")
        return v

    def add(self, x, y):
        return (x + y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def divides(self, d, a):
        return a % gcd(d, self.n) == 0

    def canonical(self, a):
        # aR is generated by gcd(a, n); the zero ideal by 0
        return gcd(a, self.n) % self.n

    def associates(self, a, b):
        return gcd(a, self.n) == gcd(b, self.n)


def _ptrim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class PrimeFieldPolys:
    """GF(p)[x]; elements are coefficient tuples low-to-high."""

    def __init__(self, p: int):
        self.p = p
        self.spec = f"gfpoly:{p}"
        self.zero = ()
        self.one = (1,)

    def parse(self, obj):
        if not isinstance(obj, list):
            raise ArithError(f"coefficient array expected, got {obj!r}")
        coeffs = [_int(c) for c in obj]
        if any(not 0 <= c < self.p for c in coeffs) or _ptrim(coeffs) != tuple(coeffs):
            raise ArithError(f"coefficients {obj!r} are not reduced and trimmed")
        return tuple(coeffs)

    def add(self, x, y):
        n = max(len(x), len(y))
        return _ptrim([((x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0)) % self.p
                       for i in range(n)])

    def neg(self, x):
        return tuple((-c) % self.p for c in x)

    def mul(self, x, y):
        if not x or not y:
            return ()
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] += a * b
        return _ptrim([c % self.p for c in out])

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(a)
        inv = pow(b[-1], -1, p)
        quot = [0] * max(len(a) - len(b) + 1, 0)
        while len(rem) >= len(b) and rem:
            shift = len(rem) - len(b)
            c = rem[-1] * inv % p
            quot[shift] = c
            for i, bc in enumerate(b):
                rem[shift + i] = (rem[shift + i] - c * bc) % p
            rem = list(_ptrim(rem))
        return _ptrim(quot), tuple(rem)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def monic(self, a):
        if not a:
            return ()
        inv = pow(a[-1], -1, self.p)
        return tuple(c * inv % self.p for c in a)

    def divides(self, d, a):
        if not d:
            return not a
        return not self.divmod(a, d)[1]

    def canonical(self, a):
        return self.monic(a)

    def associates(self, a, b):
        return self.monic(a) == self.monic(b)


class Product:
    def __init__(self, factors):
        self.factors = list(factors)
        self.spec = "product:" + ",".join(f.spec for f in self.factors)
        self.zero = tuple(f.zero for f in self.factors)
        self.one = tuple(f.one for f in self.factors)

    def parse(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.factors):
            raise ArithError(f"{len(self.factors)} components expected, got {obj!r}")
        return tuple(f.parse(c) for f, c in zip(self.factors, obj))

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def divides(self, d, a):
        return all(f.divides(di, ai) for f, di, ai in zip(self.factors, d, a))

    def canonical(self, a):
        return tuple(f.canonical(c) for f, c in zip(self.factors, a))

    def associates(self, a, b):
        return all(f.associates(x, y) for f, x, y in zip(self.factors, a, b))


class IntegersByRationals:
    """The trivial extension Z x Q with (a, e)(b, f) = (ab, af + be).

    Units are the pairs (+-1, e).  For m != 0, (m, e) is an associate of
    (|m|, 0) because Q is divisible; the pairs (0, e) form a square-zero
    ideal where (0, e) * (s, f) = (0, s*e), so (0, e) is an associate of
    (0, |e|) only.
    """

    spec = "text:z,q"
    zero = (0, Fraction(0))
    one = (1, Fraction(0))

    def parse(self, obj):
        if not isinstance(obj, list) or len(obj) != 2:
            raise ArithError(f"pair expected, got {obj!r}")
        m, q = obj
        if isinstance(q, bool) or not isinstance(q, (int, str)):
            raise ArithError(f"rational expected, got {q!r}")
        try:
            return (_int(m), Fraction(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise ArithError(f"bad rational {q!r}") from exc

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        return (x[0] * y[0], x[0] * y[1] + y[0] * x[1])

    def divides(self, d, a):
        (m, e), (ma, ea) = d, a
        if m != 0:
            return ma % m == 0
        if e == 0:
            return a == self.zero
        return ma == 0 and (ea / e).denominator == 1

    def canonical(self, a):
        m, e = a
        return (abs(m), Fraction(0)) if m != 0 else (0, abs(e))

    def associates(self, a, b):
        return self.canonical(a) == self.canonical(b)


def ring_from_spec(spec: str):
    """The benchmark's own model of the ring expressions its workloads use."""
    if spec == "z":
        return Integers()
    if spec == "text:z,q":
        return IntegersByRationals()
    if spec.startswith("zmod:"):
        return Residues(int(spec[5:]))
    if spec.startswith("gfpoly:"):
        return PrimeFieldPolys(int(spec[7:]))
    if spec.startswith("product:"):
        return Product(ring_from_spec(part) for part in spec[8:].split(","))
    raise ArithError(f"ring {spec!r} is not modelled by the benchmark")


def to_json(ring, v):
    """Text encoding of a value, as edrkit's documents and inputs use it."""
    if isinstance(ring, PrimeFieldPolys):
        return list(v)
    if isinstance(ring, Product):
        return [to_json(f, c) for f, c in zip(ring.factors, v)]
    if isinstance(ring, IntegersByRationals):
        q = v[1]
        return [v[0], q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"]
    return v


# -- matrices as lists of rows ----------------------------------------------

def parse_matrix(ring, rows):
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ArithError("matrix rows expected")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ArithError("ragged or empty matrix")
    return [[ring.parse(v) for v in row] for row in rows]


def matmul(ring, a, b):
    if len(a[0]) != len(b):
        raise ArithError(f"shape mismatch {len(a[0])} vs {len(b)}")
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = ring.zero
            for x, y in zip(row, col):
                acc = ring.add(acc, ring.mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def is_identity(ring, m):
    return len(m) == len(m[0]) and all(v == (ring.one if i == j else ring.zero)
                                       for i, row in enumerate(m) for j, v in enumerate(row))


def det_integer(rows) -> int:
    """Determinant over Z by Bareiss fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_2x2(ring, m):
    return ring.add(ring.mul(m[0][0], m[1][1]), ring.neg(ring.mul(m[0][1], m[1][0])))
