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

The work is done on raw ring values; only the trace entries, the result and
the arguments of the entry points :func:`~edrkit.stability.select_stable` and
:func:`~edrkit.stability.lift_unit` are boxed as elements.  The row is folded
once, its Bezout coefficients built in one pass from the right.  The lift
moduli and every comaximality test (the precondition and the residue search
of each unit lift) are gcd-only: they fold ``Ring.gcd`` and never build the
cofactors of a Bezout certificate.  Only the row fold and the closing pair
(alpha, beta) need cofactors, and only they call ``Ring.egcd``, which skips
the certificate's a0 and b0.

:func:`complete_unimodular` is the d = 1 special case: a unimodular row is
the first row of a matrix with determinant exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .matrices import RingMatrix
from .matrices import determinant  # noqa: F401  not called here; bench/tracing.py wraps this name
from .rings import (
    PreconditionError,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    TruncatedSeriesRing,
    _raw,
    _same_ring,
    one,
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


def _row_gcd_with_coefficients(ring: Ring, row: list) -> tuple[Any, list]:
    """Generator g of sum(a_i R) and coefficients with sum a_i x_i = g, raw values.

    The row is folded from the left, g_k being the Bezout d of (g_{k-1}, a_k)
    with cofactors (u_k, v_k), so x_i = v_i * u_{i+1} * ... * u_n (v_1 = 1):
    one pass from the right builds them all in O(n) multiplications.  A
    series row leads with its first entry of nonzero constant term: then every
    gcd of the fold has one, so each later pair has a certificate.  A product
    row is folded factor by factor, so a series factor leads on its own.
    """
    if isinstance(ring, ProductRing):
        folds = [_row_gcd_with_coefficients(f, [a[k] for a in row])
                 for k, f in enumerate(ring.factors)]
        gs, xss = zip(*folds)
        return gs, list(zip(*xss))
    if isinstance(ring, TruncatedSeriesRing):
        lead = next((i for i, a in enumerate(row) if a[0] != 0), 0)
        if lead:
            g, xs = _row_gcd_with_coefficients(
                ring, [row[lead], *row[:lead], *row[lead + 1:]])
            return g, [*xs[1:lead + 1], xs[0], *xs[lead + 1:]]
    mul = ring.mul
    g = row[0]
    us, vs = [], [ring.one]
    for a in row[1:]:
        g, u, v = ring.egcd(g, a)
        us.append(u)
        vs.append(v)
    coeffs = [vs[-1]]
    tail = ring.one
    for u, v in zip(reversed(us), reversed(vs[:-1])):
        tail = mul(tail, u)
        coeffs.append(mul(v, tail))
    coeffs.reverse()
    return g, coeffs


def complete_row(row, d: RingElement, fold=None) -> CompletionResult:
    """Complete (a_1, ..., a_n) with sum(a_i R) = dR to det exactly d; n >= 2.

    Preconditions are checked through certificates: the row gcd must generate
    the same ideal as d, and d must divide every entry.  ``fold`` is the
    row's ``_row_gcd_with_coefficients`` where the caller already has it.
    """
    row = list(row)
    if len(row) < 2:
        raise PreconditionError("complete_row needs a row of length >= 2")
    ring = _same_ring(*row, d)
    values = [a.value for a in row]
    dv = d.value
    g, xs = fold if fold is not None else _row_gcd_with_coefficients(ring, values)
    if not (ring.divides(g, dv) and ring.divides(dv, g)):
        raise PreconditionError(
            f"the row generates {_raw(ring, g)!r}R, which differs from {d!r}R")
    if dv == ring.zero:
        # zero row, zero determinant: identity rows below keep det 0
        n = len(row)
        body = [values]
        for i in range(1, n):
            body.append([ring.one if j == i else ring.zero for j in range(n)])
        matrix = RingMatrix._trusted(ring, body)
        return CompletionResult(matrix, d, {"x": [], "q": []})
    # scale the certificate so sum a_i x_i is exactly d rather than an associate
    u = ring.associate_unit(dv, g)
    if u != ring.one:
        xs = [ring.mul(x, u) for x in xs]
    qs = [ring.divide_exact(a, dv) for a in values]

    if len(row) == 2:
        a1, a2 = values
        x1, x2 = xs
        matrix = RingMatrix._trusted(ring, [[a1, a2], [ring.neg(x2), x1]])
        return CompletionResult(matrix, d, {"x": _box(ring, xs), "q": _box(ring, qs)})

    return _complete_row_many(ring, values, d, xs, qs)


def _box(ring: Ring, values) -> list[RingElement]:
    return [_raw(ring, v) for v in values]


def _tail_moduli(ring: Ring, w, rest: list) -> list:
    """For each i, the gcd of w, rest[i+1], ..., rest[-1], folded once from
    the right: n - 1 gcds instead of n^2 / 2.

    One fold suffices because no fold order changes a gcd here.  Where
    Bezout is total ``Ring.gcd`` is the canonical generator of the ideal.  In
    a truncated series ring (alone or as a product factor) ``select_stable``
    gives w a nonzero constant term, so every gcd of the fold is (gcd of the
    constant terms, ()).  Rows over ``text:A,self`` never get here: their row
    fold refuses.
    """
    moduli = [w]
    for h in reversed(rest[1:]):
        moduli.append(ring.gcd(moduli[-1], h))
    return moduli[::-1]


def _complete_row_many(ring: Ring, row: list, d: RingElement, xs: list, qs: list
                       ) -> CompletionResult:
    n = len(row)
    add, sub, mul, neg, zero = ring.add, ring.sub, ring.mul, ring.neg, ring.zero
    # c measures the defect of the certificate; d*c = 0 always
    c = sub(ring.dot(xs, qs), ring.one)
    if mul(d.value, c) != zero:
        raise RingError("internal error: d*c != 0 in row completion")

    # generators after the leading one: q_2, ..., q_{n-1}, q_n*x_n - c
    gens = qs[1:-1] + [sub(mul(qs[-1], xs[-1]), c)]
    combo = add(ring.dot(gens[:-1], xs[1:-1]), gens[-1])
    # q_1 * x_1 + combo = 1, so (q_1, combo) is comaximal; pick the stable shift
    t = select_stable(_raw(ring, qs[0]), _raw(ring, combo)).value
    w = add(qs[0], mul(combo, t))

    # chained unit lifts: fold q_3, ..., then the last generator, into z
    z = gens[0]  # q_2
    ys = []
    rest = gens[1:]
    for gi, ci in zip(rest, _tail_moduli(ring, w, rest)):
        yi = lift_unit(_raw(ring, z), _raw(ring, gi), _raw(ring, ci)).value
        ys.append(yi)
        z = add(z, mul(gi, yi))

    # unfold w along z: w = alpha + z*(x_2*t) with the recorded shears s_i
    x2t = mul(xs[1], t)
    ss = [sub(mul(xs[i], t), mul(ys[i - 2], x2t)) for i in range(2, n - 1)]  # for q_3..q_{n-1}
    ss.append(sub(t, mul(ys[-1], x2t)))                                     # for the last generator
    alpha = add(qs[0], ring.dot(rest, ss))
    if add(alpha, mul(z, x2t)) != w:
        raise RingError("internal error: stable modulus decomposition failed")

    g, sv, tv = ring.egcd(alpha, z)
    if not ring.is_unit(g):
        raise RingError("internal error: alpha and z are not comaximal")
    scale = ring.inverse(g)
    sv, tv = mul(sv, scale), mul(tv, scale)

    # the bordered matrix after the column operations has first row
    # (q_1 - c*s_n, q_2 - c*y_n, q_3, ..., q_n), second row (-tv, sv, 0, ...),
    # and rows 3..n with first two entries `lower` beside an identity block;
    # so its determinant u is that of the block's 2x2 Schur complement
    s_n = ss[-1]
    y_n = ys[-1]
    lower = [(neg(s), neg(y)) for s, y in zip(ss[:-1], ys[:-1])]
    lower.append((neg(mul(xs[-1], s_n)), neg(mul(xs[-1], y_n))))
    e0 = sub(sub(qs[0], mul(c, s_n)), ring.dot(qs[2:], [c0 for c0, _ in lower]))
    e1 = sub(sub(qs[1], mul(c, y_n)), ring.dot(qs[2:], [c1 for _, c1 in lower]))
    u = add(mul(e0, sv), mul(e1, tv))
    if not ring.is_unit(u):
        raise RingError("internal error: bordered determinant is not a unit")

    # row 1 times d is exactly the input row (d*c = 0 kills the c-terms);
    # scaling row 2 by 1/u makes the determinant exactly d
    uin = ring.inverse(u)
    final = [row, [mul(uin, neg(tv)), mul(uin, sv)] + [zero] * (n - 2)]
    for i, (c0, c1) in enumerate(lower, start=2):
        final.append([c0, c1] + [ring.one if j == i else zero for j in range(2, n)])
    matrix = RingMatrix._trusted(ring, final)
    trace = {
        "x": _box(ring, xs), "q": _box(ring, qs), "c": _raw(ring, c), "w": _raw(ring, w),
        "t": _raw(ring, t), "y": _box(ring, ys), "s": _box(ring, ss),
        "alpha": _raw(ring, alpha), "beta": _raw(ring, z),
        "sv": _raw(ring, sv), "tv": _raw(ring, tv), "u": _raw(ring, u),
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
    fold = _row_gcd_with_coefficients(ring, [a.value for a in row])
    if not ring.is_unit(fold[0]):
        raise PreconditionError(
            f"the row is not unimodular: it generates {_raw(ring, fold[0])!r}R")
    return complete_row(row, one(ring), fold)
