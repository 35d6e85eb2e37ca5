"""Completion of a row to a square matrix with prescribed determinant.

Given a row a_1, ..., a_n generating the principal ideal dR,
:func:`complete_row` builds an n x n matrix whose first row is exactly the
input and whose determinant is exactly d (no associate slack).  The length-2
case reads the second row off a Bezout identity; for n >= 3 the bordered
matrix is assembled from a stable modulus w, chained unit lifts that fold
the generators one at a time, and the closing Bezout pair (s, t).  Below its
first two rows it is an identity block in columns 3..n plus two columns of
shears, so its determinant u is the 2x2 Schur complement of that block, O(n)
ring operations; no general determinant is computed.  All intermediate
witnesses are kept in the result's trace so the determinant identity can be
replayed.

:func:`complete_unimodular` is the d = 1 special case: a unimodular row is
the first row of a matrix with determinant exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import RingMatrix
from .matrices import determinant  # noqa: F401  not called here; bench/tracing.py wraps this name
from .rings import (
    PreconditionError,
    Ring,
    RingElement,
    RingError,
    _raw,
    _same_ring,
    bezout,
    divide_exact,
    divides,
    is_unit,
    one,
    zero,
)
from .stability import lift_unit, select_stable


@dataclass(frozen=True)
class CompletionResult:
    """An n x n matrix with prescribed first row and exact determinant d."""

    matrix: RingMatrix
    d: RingElement
    trace: dict

    def to_json(self, include_trace: bool = True) -> dict:
        ring = self.d.ring
        doc = {
            "ring": ring.expression(),
            "matrix": self.matrix.to_json()["rows"],
            "d": ring.value_to_json(self.d.value),
        }
        if include_trace:
            doc["trace"] = {k: _trace_json(ring, v) for k, v in self.trace.items()}
        return doc


def _trace_json(ring: Ring, v):
    if isinstance(v, RingElement):
        return v.ring.value_to_json(v.value)
    if isinstance(v, (list, tuple)):
        return [_trace_json(ring, x) for x in v]
    return v


def _row_gcd_with_coefficients(row: list[RingElement]) -> tuple[RingElement, list[RingElement]]:
    """Canonical generator g of sum(a_i R) and coefficients with sum a_i x_i = g."""
    ring = row[0].ring
    g = row[0]
    coeffs = [one(ring)]
    for a in row[1:]:
        cert = bezout(g, a)
        if cert.degenerate:
            coeffs.append(zero(ring))
            g = cert.d
            continue
        coeffs = [c * cert.x for c in coeffs]
        coeffs.append(cert.y)
        g = cert.d
    return g, coeffs


def complete_row(row, d: RingElement) -> CompletionResult:
    """Complete (a_1, ..., a_n) with sum(a_i R) = dR to det exactly d; n >= 2.

    Preconditions are checked through certificates: the row gcd must generate
    the same ideal as d, and d must divide every entry.
    """
    row = list(row)
    if len(row) < 2:
        raise PreconditionError("complete_row needs a row of length >= 2")
    ring = _same_ring(*row, d)
    g, xs = _row_gcd_with_coefficients(row)
    if not (divides(g, d) and divides(d, g)):
        raise PreconditionError(
            f"the row generates {g!r}R, which differs from {d!r}R")
    if d.is_zero():
        # zero row, zero determinant: identity rows below keep det 0
        n = len(row)
        body = [[a.value for a in row]]
        for i in range(1, n):
            body.append([ring.one if j == i else ring.zero for j in range(n)])
        matrix = RingMatrix(ring, body)
        return CompletionResult(matrix, d, {"x": [], "q": []})
    # scale the certificate so sum a_i x_i is exactly d rather than an associate
    u = ring.associate_unit(d.value, g.value)
    xs = [x * _raw(ring, u) for x in xs]
    qs = [divide_exact(a, d) for a in row]

    if len(row) == 2:
        a1, a2 = row
        x1, x2 = xs
        matrix = RingMatrix(ring, [[a1.value, a2.value],
                                   [ring.neg(x2.value), x1.value]])
        return CompletionResult(matrix, d, {"x": xs, "q": qs})

    return _complete_row_many(ring, row, d, xs, qs)


def _complete_row_many(ring: Ring, row, d, xs, qs) -> CompletionResult:
    n = len(row)
    # c measures the defect of the certificate; d*c = 0 always
    c = zero(ring)
    for x, q in zip(xs, qs):
        c = c + x * q
    c = c - one(ring)
    if not (d * c).is_zero():
        raise RingError("internal error: d*c != 0 in row completion")

    # generators after the leading one: q_2, ..., q_{n-1}, q_n*x_n - c
    gens = list(qs[1:-1]) + [qs[-1] * xs[-1] - c]
    combo = zero(ring)
    for gi, xi in zip(gens[:-1], xs[1:-1]):
        combo = combo + gi * xi
    combo = combo + gens[-1]
    # q_1 * x_1 + combo = 1, so (q_1, combo) is comaximal; pick the stable shift
    t = select_stable(qs[0], combo)
    w = qs[0] + combo * t

    # chained unit lifts: fold q_3, ..., then the last generator, into z
    z = gens[0]  # q_2
    ys: list[RingElement] = []
    rest = gens[1:]
    for i, gi in enumerate(rest):
        tail = rest[i + 1:]
        ci = w
        for h in tail:
            ci = bezout(ci, h).d
        yi = lift_unit(z, gi, ci)
        ys.append(yi)
        z = z + gi * yi

    # unfold w along z: w = alpha + z*(x_2*t) with the recorded shears s_i
    x2t = xs[1] * t
    ss = [xs[i] * t - ys[i - 2] * x2t for i in range(2, n - 1)]  # for q_3..q_{n-1}
    ss.append(t - ys[-1] * x2t)                                  # for the last generator
    alpha = qs[0]
    for gi, si in zip(rest, ss):
        alpha = alpha + gi * si
    if alpha + z * x2t != w:
        raise RingError("internal error: stable modulus decomposition failed")

    cert = bezout(alpha, z)
    if not is_unit(cert.d):
        raise RingError("internal error: alpha and z are not comaximal")
    scale = _raw(ring, ring.inverse(cert.d.value))
    sv = cert.x * scale
    tv = cert.y * scale

    # the bordered matrix after the column operations has first row
    # (q_1 - c*s_n, q_2 - c*y_n, q_3, ..., q_n), second row (-tv, sv, 0, ...),
    # and rows 3..n with first two entries `lower` beside an identity block;
    # so its determinant u is that of the block's 2x2 Schur complement
    s_n = ss[-1]
    y_n = ys[-1]
    lower = [(-s, -y) for s, y in zip(ss[:-1], ys[:-1])]
    lower.append((-(xs[-1] * s_n), -(xs[-1] * y_n)))
    e0, e1 = qs[0] - c * s_n, qs[1] - c * y_n
    for q, (c0, c1) in zip(qs[2:], lower):
        e0 = e0 - q * c0
        e1 = e1 - q * c1
    u = e0 * sv + e1 * tv
    if not is_unit(u):
        raise RingError("internal error: bordered determinant is not a unit")

    # row 1 times d is exactly the input row (d*c = 0 kills the c-terms);
    # scaling row 2 by 1/u makes the determinant exactly d
    uin = ring.inverse(u.value)
    final = [[a.value for a in row],
             [ring.mul(uin, ring.neg(tv.value)), ring.mul(uin, sv.value)] + [ring.zero] * (n - 2)]
    for i, (c0, c1) in enumerate(lower, start=2):
        final.append([c0.value, c1.value] + [ring.one if j == i else ring.zero for j in range(2, n)])
    matrix = RingMatrix(ring, final)
    trace = {
        "x": xs, "q": qs, "c": c, "w": w, "t": t,
        "y": ys, "s": ss, "alpha": alpha, "beta": z,
        "sv": sv, "tv": tv, "u": u,
    }
    return CompletionResult(matrix, d, trace)


def complete_unimodular(row) -> CompletionResult:
    """Complete a unimodular row to an invertible matrix with det exactly 1."""
    row = list(row)
    if not row:
        raise PreconditionError("empty row")
    ring = _same_ring(*row)
    if len(row) == 1:
        if not row[0].is_one():
            raise PreconditionError(
                "a length-1 row completes to det 1 only for the row (1)")
        return CompletionResult(RingMatrix(ring, [[ring.one]]), one(ring), {})
    g, _ = _row_gcd_with_coefficients(row)
    if not is_unit(g):
        raise PreconditionError(f"the row is not unimodular: it generates {g!r}R")
    return complete_row(row, one(ring))
