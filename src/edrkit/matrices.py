"""Diagonal (Smith-type) reduction of matrices over effective Bezout rings.

``diagonal_reduce`` produces invertible P, Q with P*A*Q = D diagonal, each
diagonal entry dividing the next, entries normalized to canonical associates
and zeros last.  Every transform carries an explicitly stored inverse, so a
:class:`ReductionResult` is a checkable certificate (:func:`verify_reduction`
recomputes everything from scratch).

The engine: Hermite column steps come straight from refined Bezout
certificates (``column_reduce``); the divisibility chain is enforced through
the explicit 2x2 elementary reduction of a lower-triangular matrix with
comaximal entries (``reduce_2x2``), whose transformation matrices are
assembled factor by factor and audited for invertibility.  Every Bezout
ring, Z/n included, runs through this one engine on its own certificates;
only products are split, each component reduced on its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .rings import (
    PreconditionError,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    RingMismatchError,
    UnsupportedOperationError,
    _raw,
    _same_ring,
    bezout,
    one,
)
from .stability import _jointly_comaximal, lift_unit, select_stable

logger = logging.getLogger(__name__)

_SWEEP_CAP = 10_000


class RingMatrix:
    """An immutable rows x cols matrix with all entries in one ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring, rows):
        data = []
        width = None
        for row in rows:
            vals = []
            for v in row:
                if isinstance(v, RingElement):
                    if v.ring != ring:
                        raise RingMismatchError(
                            f"entry ring {v.ring.expression()} != {ring.expression()}")
                    vals.append(v.value)
                else:
                    vals.append(ring.normalize(v))
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise RingError("ragged rows in matrix")
            data.append(tuple(vals))
        if not data or width == 0:
            raise RingError("matrix needs at least one row and one column")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, *_):
        raise AttributeError("RingMatrix is immutable")

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, [[ring.zero] * cols for _ in range(rows)])

    def entry(self, i: int, j: int) -> RingElement:
        return _raw(self.ring, self.data[i][j])

    def to_lists(self) -> list[list[RingElement]]:
        return [[_raw(self.ring, v) for v in row] for row in self.data]

    def __eq__(self, other):
        return (isinstance(other, RingMatrix) and self.ring == other.ring
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.data))

    def __repr__(self):
        return f"RingMatrix({self.ring.expression()}, {self.rows}x{self.cols})"

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix) or other.ring != self.ring:
            raise RingMismatchError("matrix product needs matching rings")
        if self.cols != other.rows:
            raise RingError(f"shape mismatch: {self.cols} vs {other.rows}")
        ring = self.ring
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ring.zero
                for k in range(self.cols):
                    acc = ring.add(acc, ring.mul(self.data[i][k], other.data[k][j]))
                row.append(acc)
            out.append(row)
        return RingMatrix(ring, out)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        ring = self.ring
        return all(self.data[i][j] == (ring.one if i == j else ring.zero)
                   for i in range(self.rows) for j in range(self.cols))

    def is_diagonal(self) -> bool:
        return all(self.data[i][j] == self.ring.zero
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def diagonal(self) -> list[RingElement]:
        return [_raw(self.ring, self.data[i][i])
                for i in range(min(self.rows, self.cols))]

    def to_json(self) -> dict:
        ring = self.ring
        return {"ring": ring.expression(),
                "rows": [[ring.value_to_json(v) for v in row] for row in self.data]}

    @classmethod
    def from_json(cls, obj: dict, ring: Ring) -> "RingMatrix":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise RingError("matrix JSON needs a nonempty 'rows' array")
        return cls(ring, [[ring.value_from_json(v) for v in row] for row in rows])


def determinant(m: RingMatrix) -> RingElement:
    """Exact determinant by Berkowitz's division-free algorithm (any commutative ring).

    The characteristic polynomial det(x*I - A) is built over the leading
    principal submatrices.  Going from A_r (r x r) to A_{r+1}, whose new column
    above the diagonal is S, new row left of it R and new corner a, its
    coefficient vector is multiplied by the lower-triangular Toeplitz matrix
    with first column 1, -a, -R*S, -R*A_r*S, ..., -R*A_r^(r-1)*S.  Only ring
    add, neg and mul are used, so zero divisors do no harm, and the cost is
    O(n^4) ring operations (Berkowitz, Inf. Proc. Letters 18, 1984).  The
    determinant is (-1)^n times the constant coefficient.
    """
    if m.rows != m.cols:
        raise RingError("determinant needs a square matrix")
    ring, a, n = m.ring, m.data, m.rows
    add, mul, neg = ring.add, ring.mul, ring.neg

    def dot(pairs, ys):
        """sum of x * ys[j] over the (j, x) in pairs"""
        acc = ring.zero
        for j, x in pairs:
            acc = add(acc, mul(x, ys[j]))
        return acc

    # each row's nonzero entries as (column, value): completed rows are
    # mostly identity, and skipping their zeros saves most of the products
    sparse = [[(j, v) for j, v in enumerate(row) if v != ring.zero] for row in a]
    poly = [ring.one, neg(a[0][0])]  # det(x - a_00), leading coefficient first
    for r in range(1, n):
        block = [[(j, v) for j, v in sparse[i] if j < r] for i in range(r)]  # A_r
        row = [(j, v) for j, v in sparse[r] if j < r]                         # R
        col = [a[i][r] for i in range(r)]                   # S, then A_r^k * S
        column = [ring.one, neg(a[r][r]), neg(dot(row, col))]
        for _ in range(r - 1):
            col = [dot(b, col) for b in block]
            column.append(neg(dot(row, col)))
        # poly times the Toeplitz matrix: coefficient i is sum_j column[i-j]*poly[j]
        poly = [dot([(i - j, p) for j, p in enumerate(poly[:i + 1])], column)
                for i in range(r + 2)]
    return _raw(ring, neg(poly[n]) if n % 2 else poly[n])


@dataclass(frozen=True)
class ReductionResult:
    """Certificate P*A*Q = D with stored inverses and a divisibility chain."""

    P: RingMatrix
    D: RingMatrix
    Q: RingMatrix
    Pinv: RingMatrix
    Qinv: RingMatrix
    normalized: bool = True
    # (matrix, inverse) factor pairs in application order, for audits
    left_factors: tuple = field(default=(), compare=False)
    right_factors: tuple = field(default=(), compare=False)

    def to_json(self, verified: bool | None = None) -> dict:
        doc = {
            "ring": self.D.ring.expression(),
            "P": self.P.to_json()["rows"],
            "D": self.D.to_json()["rows"],
            "Q": self.Q.to_json()["rows"],
            "Pinv": self.Pinv.to_json()["rows"],
            "Qinv": self.Qinv.to_json()["rows"],
        }
        if verified is not None:
            doc["verified"] = verified
        return doc


class _Sweep:
    """Mutable worksheet carrying A -> D together with P, Pinv, Q, Qinv."""

    def __init__(self, a: RingMatrix):
        self.ring = a.ring
        self.m = a.rows
        self.n = a.cols
        self.d = [list(row) for row in a.data]
        self.p = self._eye(self.m)
        self.pinv = self._eye(self.m)
        self.q = self._eye(self.n)
        self.qinv = self._eye(self.n)

    def _eye(self, k):
        ring = self.ring
        return [[ring.one if i == j else ring.zero for j in range(k)] for i in range(k)]

    # -- 2x2 blocks ---------------------------------------------------------

    def rows_2x2(self, i: int, k: int, t, tinv):
        """rows (i, k) <- t * rows (i, k); P <- E P, Pinv <- Pinv Einv."""
        ring = self.ring
        (t00, t01), (t10, t11) = t
        for arr in (self.d, self.p):
            for j in range(len(arr[0])):
                xi, xk = arr[i][j], arr[k][j]
                arr[i][j] = ring.add(ring.mul(t00, xi), ring.mul(t01, xk))
                arr[k][j] = ring.add(ring.mul(t10, xi), ring.mul(t11, xk))
        (s00, s01), (s10, s11) = tinv
        for arr in (self.pinv,):
            for r in range(len(arr)):
                xi, xk = arr[r][i], arr[r][k]
                arr[r][i] = ring.add(ring.mul(xi, s00), ring.mul(xk, s10))
                arr[r][k] = ring.add(ring.mul(xi, s01), ring.mul(xk, s11))

    def cols_2x2(self, j: int, k: int, t, tinv):
        """cols (j, k) <- cols (j, k) * t; Q <- Q E, Qinv <- Einv Qinv."""
        ring = self.ring
        (t00, t01), (t10, t11) = t
        for arr in (self.d, self.q):
            for r in range(len(arr)):
                xj, xk = arr[r][j], arr[r][k]
                arr[r][j] = ring.add(ring.mul(xj, t00), ring.mul(xk, t10))
                arr[r][k] = ring.add(ring.mul(xj, t01), ring.mul(xk, t11))
        (s00, s01), (s10, s11) = tinv
        for arr in (self.qinv,):
            for c in range(len(arr[0])):
                xj, xk = arr[j][c], arr[k][c]
                arr[j][c] = ring.add(ring.mul(s00, xj), ring.mul(s01, xk))
                arr[k][c] = ring.add(ring.mul(s10, xj), ring.mul(s11, xk))

    def scale_row(self, i: int, u, uinv):
        ring = self.ring
        for j in range(self.n):
            self.d[i][j] = ring.mul(u, self.d[i][j])
        for j in range(self.m):
            self.p[i][j] = ring.mul(u, self.p[i][j])
        for r in range(self.m):
            self.pinv[r][i] = ring.mul(self.pinv[r][i], uinv)

    def swap_rows(self, i, k):
        flip = ((self.ring.zero, self.ring.one), (self.ring.one, self.ring.zero))
        self.rows_2x2(i, k, flip, flip)

    def swap_cols(self, j, k):
        flip = ((self.ring.zero, self.ring.one), (self.ring.one, self.ring.zero))
        self.cols_2x2(j, k, flip, flip)

    def result(self) -> ReductionResult:
        ring = self.ring
        return ReductionResult(
            P=RingMatrix(ring, self.p), D=RingMatrix(ring, self.d),
            Q=RingMatrix(ring, self.q),
            Pinv=RingMatrix(ring, self.pinv), Qinv=RingMatrix(ring, self.qinv))


def _eye2(ring):
    return ((ring.one, ring.zero), (ring.zero, ring.one))


def _cert_col_pair(ring, a, b):
    """Column transform (t, tinv) sending the row pair (a, b) to (d, 0).

    The pair (a, 0) keeps the identity transform; this also covers (0, 0),
    whose degenerate certificate has no unimodular completion.
    """
    if b == ring.zero:
        return a, _eye2(ring), _eye2(ring)
    cert = bezout(_raw(ring, a), _raw(ring, b))
    x, y, a0, b0 = cert.x.value, cert.y.value, cert.a0.value, cert.b0.value
    t = ((x, ring.neg(b0)), (y, a0))
    tinv = ((a0, b0), (ring.neg(y), x))
    return cert.d.value, t, tinv


def _cert_row_pair(ring, a, b):
    """Row transform (t, tinv) sending the column pair (a, b)^T to (d, 0)^T."""
    if b == ring.zero:
        return a, _eye2(ring), _eye2(ring)
    cert = bezout(_raw(ring, a), _raw(ring, b))
    x, y, a0, b0 = cert.x.value, cert.y.value, cert.a0.value, cert.b0.value
    t = ((x, y), (ring.neg(b0), a0))
    tinv = ((a0, ring.neg(y)), (b0, x))
    return cert.d.value, t, tinv


def column_reduce(a: RingElement, b: RingElement) -> tuple[RingElement, RingMatrix]:
    """Hermite step: an invertible 2x2 Q with (a b) Q = (d 0) and det Q = 1.

    Q is built from the refined Bezout certificate as [[x, -b0], [y, a0]];
    the degenerate pair (0, 0) returns d = 0 with Q the identity, and the
    pair (a, 0) short-circuits to (a, identity).
    """
    ring = _same_ring(a, b)
    if b.is_zero():
        return (a, RingMatrix.identity(ring, 2))
    d, t, _ = _cert_col_pair(ring, a.value, b.value)
    return (_raw(ring, d), RingMatrix(ring, [[t[0][0], t[0][1]], [t[1][0], t[1][1]]]))


def _embed2(ring, n, i, j, t):
    rows = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
    rows[i][i], rows[i][j] = t[0][0], t[0][1]
    rows[j][i], rows[j][j] = t[1][0], t[1][1]
    return RingMatrix(ring, rows)


def reduce_2x2(a: RingMatrix) -> ReductionResult:
    """Elementary reduction of [[a, 0], [b, c]] with aR + bR + cR = R.

    Produces diag(1, delta) with delta the canonical associate of a
    generator of det(A)R, following the explicit pipeline: solve
    a*x + b*y + c*z = 1; shift b to a stable v = b + (a*x + c*z)*t; Hermite-
    reduce the row (v, c) to (0, c'); lift w so b' + a'*w is a unit mod c';
    close with the det-1 matrix [[c', -(b'+a'w)], [p, q]] and the recorded
    shears.  All factors are collected with their inverses for auditing.
    """
    ring = a.ring
    if a.rows != 2 or a.cols != 2:
        raise RingError("reduce_2x2 needs a 2x2 matrix")
    if a.data[0][1] != ring.zero:
        raise PreconditionError("reduce_2x2 needs the lower-triangular shape [[a,0],[b,c]]")
    av, bv, cv = a.entry(0, 0), a.entry(1, 0), a.entry(1, 1)
    if not _jointly_comaximal([av, bv, cv]):
        raise PreconditionError(
            f"reduce_2x2 requires aR + bR + cR = R, got {av!r}, {bv!r}, {cv!r}")

    left: list[tuple[RingMatrix, RingMatrix]] = []
    right: list[tuple[RingMatrix, RingMatrix]] = []

    def push_left(t, tinv):
        left.append((RingMatrix(ring, t), RingMatrix(ring, tinv)))

    def push_right(t, tinv):
        right.append((RingMatrix(ring, t), RingMatrix(ring, tinv)))

    if a.is_identity():
        ident = RingMatrix.identity(ring, 2)
        return ReductionResult(P=ident, D=a, Q=ident, Pinv=ident, Qinv=ident)

    # (i) a*x + b*y + c*z = 1 through two certificates
    cert_bc = bezout(bv, cv)
    cert = bezout(av, cert_bc.d)
    uinv = one(ring) if cert.d.is_one() else _raw(ring, ring.inverse(cert.d.value))
    x = cert.x * uinv
    y = cert_bc.x * cert.y * uinv
    z = cert_bc.y * cert.y * uinv

    # (ii) stable shift: v = b + (a*x + c*z)*t
    axcz = av * x + cv * z
    t_el = select_stable(bv, axcz)
    v = bv + axcz * t_el
    xt, zt = (x * t_el).value, (z * t_el).value
    push_left(((ring.one, ring.zero), (xt, ring.one)),
              ((ring.one, ring.zero), (ring.neg(xt), ring.one)))
    push_right(((ring.one, ring.zero), (zt, ring.one)),
               ((ring.one, ring.zero), (ring.neg(zt), ring.one)))

    # (iii) Hermite: (v, c) -> (0, c'), giving [[a', b'], [0, c']]
    dvc, tq, tqinv = _cert_col_pair(ring, v.value, cv.value)
    swap = ((ring.zero, ring.one), (ring.one, ring.zero))
    tq3 = _mul2(ring, tq, swap)
    tq3inv = _mul2(ring, swap, tqinv)
    push_right(tq3, tq3inv)
    a_p = ring.mul(a.data[0][0], tq3[0][0])
    b_p = ring.mul(a.data[0][0], tq3[0][1])
    c_p = dvc

    # (iv) w with b' + a'*w a unit modulo c'
    w = lift_unit(_raw(ring, b_p), _raw(ring, a_p), _raw(ring, c_p))
    unit_mod_cp = ring.add(b_p, ring.mul(a_p, w.value))

    # (v) (b' + a'*w)*p + c'*q = 1
    cert2 = bezout(_raw(ring, unit_mod_cp), _raw(ring, c_p))
    u2inv = one(ring) if cert2.d.is_one() else _raw(ring, ring.inverse(cert2.d.value))
    p_el = (cert2.x * u2inv).value
    q_el = (cert2.y * u2inv).value

    # (vi) the closing factors: swap * M * (...) * W * E * swap
    push_right(((ring.one, w.value), (ring.zero, ring.one)),
               ((ring.one, ring.neg(w.value)), (ring.zero, ring.one)))
    pa = ring.mul(p_el, a_p)
    push_right(((ring.one, ring.zero), (ring.neg(pa), ring.one)),
               ((ring.one, ring.zero), (pa, ring.one)))
    push_right(swap, swap)
    m_fac = ((c_p, ring.neg(unit_mod_cp)), (p_el, q_el))
    m_inv = ((q_el, unit_mod_cp), (ring.neg(p_el), c_p))
    push_left(m_fac, m_inv)
    push_left(swap, swap)

    # compose, then normalize delta to its canonical associate
    sweep = _Sweep(a)
    for t, tinv in left:
        sweep.rows_2x2(0, 1, (t.data[0], t.data[1]), (tinv.data[0], tinv.data[1]))
    for t, tinv in right:
        sweep.cols_2x2(0, 1, (t.data[0], t.data[1]), (tinv.data[0], tinv.data[1]))
    delta = sweep.d[1][1]
    canon = ring.canonical_associate(delta)
    if canon != delta:
        u = ring.associate_unit(delta, canon)
        ui = ring.inverse(u)
        sweep.scale_row(1, ui, u)
        push_left(((ring.one, ring.zero), (ring.zero, ui)),
                  ((ring.one, ring.zero), (ring.zero, u)))
    base = sweep.result()
    return ReductionResult(P=base.P, D=base.D, Q=base.Q, Pinv=base.Pinv,
                           Qinv=base.Qinv, left_factors=tuple(left),
                           right_factors=tuple(right))


def _mul2(ring, s, t):
    return (
        (ring.add(ring.mul(s[0][0], t[0][0]), ring.mul(s[0][1], t[1][0])),
         ring.add(ring.mul(s[0][0], t[0][1]), ring.mul(s[0][1], t[1][1]))),
        (ring.add(ring.mul(s[1][0], t[0][0]), ring.mul(s[1][1], t[1][0])),
         ring.add(ring.mul(s[1][0], t[0][1]), ring.mul(s[1][1], t[1][1]))),
    )


def _find_pivot(sweep: _Sweep, t: int):
    for i in range(t, sweep.m):
        for j in range(t, sweep.n):
            if sweep.d[i][j] != sweep.ring.zero:
                return i, j
    return None


def _clear_pivot(sweep: _Sweep, t: int):
    ring = sweep.ring
    for _ in range(_SWEEP_CAP):
        pos = _find_pivot(sweep, t)
        if pos is None:
            return
        if sweep.d[t][t] == ring.zero:
            i, j = pos
            if i != t:
                sweep.swap_rows(t, i)
            if j != t:
                sweep.swap_cols(t, j)
        dirty = False
        for j in range(t + 1, sweep.n):
            bvv = sweep.d[t][j]
            if bvv == ring.zero:
                continue
            avv = sweep.d[t][t]
            if ring.divides(avv, bvv):
                qv = ring.divide_exact(bvv, avv)
                nq = ring.neg(qv)
                sweep.cols_2x2(t, j, ((ring.one, nq), (ring.zero, ring.one)),
                               ((ring.one, qv), (ring.zero, ring.one)))
            else:
                _, tmat, tinv = _cert_col_pair(ring, avv, bvv)
                sweep.cols_2x2(t, j, tmat, tinv)
        for i in range(t + 1, sweep.m):
            bvv = sweep.d[i][t]
            if bvv == ring.zero:
                continue
            avv = sweep.d[t][t]
            dirty = True
            if ring.divides(avv, bvv):
                qv = ring.divide_exact(bvv, avv)
                nq = ring.neg(qv)
                sweep.rows_2x2(t, i, ((ring.one, ring.zero), (nq, ring.one)),
                               ((ring.one, ring.zero), (qv, ring.one)))
            else:
                _, tmat, tinv = _cert_row_pair(ring, avv, bvv)
                sweep.rows_2x2(t, i, tmat, tinv)
        if not dirty and all(sweep.d[t][j] == ring.zero for j in range(t + 1, sweep.n)):
            return
    raise RuntimeError("internal error: pivot sweep did not stabilize")


def _enforce_chain(sweep: _Sweep):
    ring = sweep.ring
    k = min(sweep.m, sweep.n)
    for _ in range(k * k + 2):
        fixed_any = False
        for i in range(k - 1):
            a = sweep.d[i][i]
            c = sweep.d[i + 1][i + 1]
            if ring.divides(a, c):
                continue
            fixed_any = True
            # stack the pair into the block [[a, 0], [a, c]]
            sweep.rows_2x2(i, i + 1,
                           ((ring.one, ring.zero), (ring.one, ring.one)),
                           ((ring.one, ring.zero), (ring.neg(ring.one), ring.one)))
            # the refined certificate makes (a0, b0) comaximal, so the
            # content-1 cofactor block meets the reduce_2x2 hypothesis
            cert = bezout(_raw(ring, a), _raw(ring, c))
            block = RingMatrix(ring, [[cert.a0.value, ring.zero],
                                      [cert.a0.value, cert.b0.value]])
            sub = reduce_2x2(block)
            sweep.rows_2x2(i, i + 1, (sub.P.data[0], sub.P.data[1]),
                           (sub.Pinv.data[0], sub.Pinv.data[1]))
            sweep.cols_2x2(i, i + 1, (sub.Q.data[0], sub.Q.data[1]),
                           (sub.Qinv.data[0], sub.Qinv.data[1]))
        if not fixed_any:
            return
    raise RuntimeError("internal error: divisibility chain did not stabilize")


def _normalize_diagonal(sweep: _Sweep):
    ring = sweep.ring
    for i in range(min(sweep.m, sweep.n)):
        a = sweep.d[i][i]
        canon = ring.canonical_associate(a)
        if canon != a:
            u = ring.associate_unit(a, canon)
            ui = ring.inverse(u)
            sweep.scale_row(i, ui, u)


def _reduce_bezout(a: RingMatrix) -> ReductionResult:
    sweep = _Sweep(a)
    for t in range(min(a.rows, a.cols)):
        _clear_pivot(sweep, t)
    _enforce_chain(sweep)
    _normalize_diagonal(sweep)
    return sweep.result()


# never called: kept only as the name that bench/tracing.py wraps
_reduce_modular = _reduce_bezout


def _reduce_product(a: RingMatrix) -> ReductionResult:
    ring = a.ring
    partials = []
    for idx, factor in enumerate(ring.factors):
        comp = RingMatrix(factor, [[v[idx] for v in row] for row in a.data])
        partials.append(diagonal_reduce(comp))

    def weave(mats: list[RingMatrix]) -> RingMatrix:
        rows = mats[0].rows
        cols = mats[0].cols
        return RingMatrix(ring, [[tuple(m.data[i][j] for m in mats)
                                  for j in range(cols)] for i in range(rows)])

    return ReductionResult(
        P=weave([r.P for r in partials]), D=weave([r.D for r in partials]),
        Q=weave([r.Q for r in partials]), Pinv=weave([r.Pinv for r in partials]),
        Qinv=weave([r.Qinv for r in partials]))


def diagonal_reduce(a: RingMatrix) -> ReductionResult:
    """Full diagonal reduction with certificate; see the module docstring.

    Rejects truncated-series matrices (no total Bezout certificates there).
    """
    ring = a.ring
    if not ring.bezout_total:
        raise UnsupportedOperationError(
            f"diagonal reduction needs total Bezout certificates; "
            f"{ring.expression()} does not provide them")
    if isinstance(ring, ProductRing):
        return _reduce_product(a)
    return _reduce_bezout(a)


def verify_reduction(a: RingMatrix, result: ReductionResult) -> bool:
    """Recheck a ReductionResult from scratch; logs the first failing condition."""
    ring = a.ring

    def fail(reason: str) -> bool:
        logger.debug("verify_reduction failed: %s", reason)
        return False

    r = result
    if r.P.rows != r.P.cols or r.P.rows != a.rows:
        return fail("P has the wrong shape")
    if r.Q.rows != r.Q.cols or r.Q.rows != a.cols:
        return fail("Q has the wrong shape")
    if r.D.rows != a.rows or r.D.cols != a.cols:
        return fail("D has the wrong shape")
    if any(m.ring != ring for m in (r.P, r.D, r.Q, r.Pinv, r.Qinv)):
        return fail("ring mismatch in certificate")
    if not (r.P @ r.Pinv).is_identity() or not (r.Pinv @ r.P).is_identity():
        return fail("Pinv is not an inverse of P")
    if not (r.Q @ r.Qinv).is_identity() or not (r.Qinv @ r.Q).is_identity():
        return fail("Qinv is not an inverse of Q")
    if (r.P @ a) @ r.Q != r.D:
        return fail("P*A*Q != D")
    if not r.D.is_diagonal():
        return fail("D is not diagonal")
    diag = r.D.diagonal()
    for i, e in enumerate(diag):
        if ring.canonical_associate(e.value) != e.value:
            return fail(f"diagonal entry at position {i} is not its canonical associate")
    for i in range(len(diag) - 1):
        if not ring.divides(diag[i].value, diag[i + 1].value):
            return fail(f"divisibility chain broken at position {i}")
    return True
