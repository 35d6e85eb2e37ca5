"""Diagonal (Smith-type) reduction of matrices over effective Bezout rings.

``diagonal_reduce`` produces invertible P, Q with P*A*Q = D diagonal, each
diagonal entry dividing the next, entries normalized to canonical associates
and zeros last.  Every transform carries an explicitly stored inverse, so a
:class:`ReductionResult` is a checkable certificate (:func:`verify_reduction`
recomputes everything from scratch).

The engine clears one pivot row and column at a time with one remainder
sweep, after Kannan and Bachem (SIAM J. Comput. 8, 1979).  Every ring with
total Bezout certificates has a Euclidean size (``Ring.size``): |a| over Z,
degree over GF(p)[x], gcd(a, n) over Z/n, and over the trivial extension
of Z by Q first the base part, then the module part.  Each pass pivots on
a nonzero entry of least size in the trailing submatrix and shears each
entry of its row and column by minus the nearest quotient
(``Ring.nearest_quotient``), which leaves a remainder of smaller size;
exact division is the remainder-0 case.  Small pivots and small remainders
bound the growth of D and the transforms.

Each step updates D, P, Q and the stored inverses together through one-row
shears (``_Sweep.add_row``/``add_col``) and swaps.  The divisibility chain
is then enforced through the explicit 2x2 elementary reduction of a
lower-triangular matrix with comaximal entries (``reduce_2x2``).  It works
on raw 2x2 values: each factor is a (matrix, inverse) pair of tuples, and
the factors are composed once into P, Q, their inverses and D; the pairs
are kept for auditing invertibility.  Only products are split, each
component reduced on its own.

``verify_reduction`` checks P*Pinv = I and Q*Qinv = I only: over a
commutative ring a one-sided inverse of a square matrix is two-sided.  So
Qinv*Q = I too, and P*A*Q = D holds exactly when P*A = D*Qinv.  Once D is
known to be diagonal, D*Qinv is a row scaling of Qinv, so the whole check
takes three cubic matrix products (P*Pinv, Q*Qinv, P*A) instead of four.
Each product is one ``Ring.matmul`` call, which converts each operand entry
once per product rather than once per dot.
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
)
from .stability import _comaximal, lift_unit, select_stable

logger = logging.getLogger(__name__)


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

    @classmethod
    def _trusted(cls, ring: Ring, rows) -> "RingMatrix":
        """A matrix of raw values already in normal form, taken without checks.

        Only for values the library computed itself or decoded with
        ``Ring.value_from_json``, which validates and normalizes each entry;
        every other matrix built from input goes through ``__init__``.
        """
        data = tuple(map(tuple, rows))
        m = object.__new__(cls)
        object.__setattr__(m, "ring", ring)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, *_):
        raise AttributeError("RingMatrix is immutable")

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        return cls._trusted(ring, _eye(ring, n))

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, [[ring.zero] * cols for _ in range(rows)])

    def entry(self, i: int, j: int) -> RingElement:
        return _raw(self.ring, self.data[i][j])

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
        return RingMatrix._trusted(self.ring,
                                   self.ring.matmul(self.data, list(zip(*other.data))))

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
        # value_from_json returns normal forms, so only the shape is checked
        data = [[ring.value_from_json(v) for v in row] for row in rows]
        if any(len(row) != len(data[0]) for row in data):
            raise RingError("ragged rows in matrix")
        if not data[0]:
            raise RingError("matrix needs at least one row and one column")
        return cls._trusted(ring, data)


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

    Terms that are provably zero are skipped.  If R or S is zero, every
    R*A_r^k*S is zero, the Toeplitz column is 1, -a, 0, ..., 0 and the step
    is the product of the polynomial with x - a: O(r) ring operations instead
    of r - 1 sparse matrix-vector products and an O(r^2) Toeplitz product.
    Below its first two rows a completed row's matrix is an identity block
    beside two columns of shears, which are often zero, so many of its steps
    take this path; a triangular matrix takes it at every step.  A_r is kept
    as the nonzero entries of each row, grown by one column and one row per
    step.
    """
    if m.rows != m.cols:
        raise RingError("determinant needs a square matrix")
    ring, a, n = m.ring, m.data, m.rows
    add, mul, neg, dot, zero = ring.add, ring.mul, ring.neg, ring.dot, ring.zero
    # A_r as the (values, columns) of each row's nonzero entries: completed
    # rows are mostly identity, and skipping their zeros saves most products
    vals, cols = [], []
    poly = [ring.one]  # det(x*I - A_r), leading coefficient first
    for r in range(n):
        rvals, rcols = [], []                                # R
        for j, v in enumerate(a[r][:r]):
            if v != zero:
                rvals.append(v)
                rcols.append(j)
        col = [a[i][r] for i in range(r)]                    # S, then A_r^k * S
        corner = neg(a[r][r])
        if not rvals or all(v == zero for v in col):
            # every R * A_r^k * S vanishes: poly times (x - a_rr)
            poly = ([poly[0]] + [add(poly[i], mul(corner, poly[i - 1])) for i in range(1, r + 1)]
                    + [mul(corner, poly[r])])
        else:
            column = [ring.one, corner, neg(dot(rvals, map(col.__getitem__, rcols)))]
            for _ in range(r - 1):
                col = [dot(vs, map(col.__getitem__, cs)) for vs, cs in zip(vals, cols)]
                column.append(neg(dot(rvals, map(col.__getitem__, rcols))))
            # poly times the Toeplitz matrix: coefficient i is sum_j poly[j]*column[i-j]
            poly = [dot(poly[:i + 1], column[i::-1]) for i in range(r + 2)]
        # A_r -> A_{r+1}: column r onto the old rows, then row r
        for i in range(r):
            if a[i][r] != zero:
                vals[i].append(a[i][r])
                cols[i].append(r)
        if a[r][r] != zero:
            rvals.append(a[r][r])
            rcols.append(r)
        vals.append(rvals)
        cols.append(rcols)
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
    """Mutable worksheet carrying A -> D together with P, Pinv, Q, Qinv.

    Shears go through the ring's row kernels (``Ring.axpy`` for a row,
    ``Ring.col_axpy`` for a column): native loops on Z, one ``Ring.fma``
    (y + q*x) per nonzero entry elsewhere, which Z/n, GF(p)[x] and the
    trivial extension of Z by Q compute without a separate product and sum.
    A 2x2 block makes each new entry as ``fma(mul(s, x), t, y)``, one
    product and one fused product-sum; scalings keep one ``mul`` per entry.
    """

    def __init__(self, a: RingMatrix):
        self.ring = a.ring
        self.m = a.rows
        self.n = a.cols
        self.d = [list(row) for row in a.data]
        self.p = _eye(self.ring, self.m)
        self.pinv = _eye(self.ring, self.m)
        self.q = _eye(self.ring, self.n)
        self.qinv = _eye(self.ring, self.n)

    # -- 2x2 blocks ---------------------------------------------------------

    def rows_2x2(self, i: int, k: int, t, tinv):
        """rows (i, k) <- t * rows (i, k); P <- E P, Pinv <- Pinv Einv."""
        fma, mul = self.ring.fma, self.ring.mul
        (t00, t01), (t10, t11) = t
        for arr in (self.d, self.p):
            for j in range(len(arr[0])):
                xi, xk = arr[i][j], arr[k][j]
                arr[i][j] = fma(mul(t00, xi), t01, xk)
                arr[k][j] = fma(mul(t10, xi), t11, xk)
        (s00, s01), (s10, s11) = tinv
        for arr in (self.pinv,):
            for r in range(len(arr)):
                xi, xk = arr[r][i], arr[r][k]
                arr[r][i] = fma(mul(xi, s00), xk, s10)
                arr[r][k] = fma(mul(xi, s01), xk, s11)

    def cols_2x2(self, j: int, k: int, t, tinv):
        """cols (j, k) <- cols (j, k) * t; Q <- Q E, Qinv <- Einv Qinv."""
        fma, mul = self.ring.fma, self.ring.mul
        (t00, t01), (t10, t11) = t
        for arr in (self.d, self.q):
            for r in range(len(arr)):
                xj, xk = arr[r][j], arr[r][k]
                arr[r][j] = fma(mul(xj, t00), xk, t10)
                arr[r][k] = fma(mul(xj, t01), xk, t11)
        (s00, s01), (s10, s11) = tinv
        for arr in (self.qinv,):
            for c in range(len(arr[0])):
                xj, xk = arr[j][c], arr[k][c]
                arr[j][c] = fma(mul(s00, xj), s01, xk)
                arr[k][c] = fma(mul(s10, xj), s11, xk)

    def scale_row(self, i: int, u, uinv):
        ring = self.ring
        for j in range(self.n):
            self.d[i][j] = ring.mul(u, self.d[i][j])
        for j in range(self.m):
            self.p[i][j] = ring.mul(u, self.p[i][j])
        for r in range(self.m):
            self.pinv[r][i] = ring.mul(self.pinv[r][i], uinv)

    # -- one-row shears and swaps ---------------------------------------------

    def add_row(self, i: int, k: int, q):
        """row i += q * row k: E = I + q*e_i*e_k^T, so P <- E P, Pinv <- Pinv E^-1."""
        ring = self.ring
        for arr in (self.d, self.p):
            ring.axpy(arr[i], arr[k], q)
        ring.col_axpy(self.pinv, k, i, ring.neg(q))  # column k -= q * column i

    def add_col(self, j: int, k: int, q):
        """col j += q * col k: E = I + q*e_k*e_j^T, so Q <- Q E, Qinv <- E^-1 Qinv."""
        ring = self.ring
        for arr in (self.d, self.q):
            ring.col_axpy(arr, j, k, q)
        ring.axpy(self.qinv[k], self.qinv[j], ring.neg(q))  # row k -= q * row j

    def swap_rows(self, i, k):
        for arr in (self.d, self.p):
            arr[i], arr[k] = arr[k], arr[i]
        for row in self.pinv:
            row[i], row[k] = row[k], row[i]

    def swap_cols(self, j, k):
        for arr in (self.d, self.q):
            for row in arr:
                row[j], row[k] = row[k], row[j]
        self.qinv[j], self.qinv[k] = self.qinv[k], self.qinv[j]

    def result(self) -> ReductionResult:
        ring, trusted = self.ring, RingMatrix._trusted
        return ReductionResult(
            P=trusted(ring, self.p), D=trusted(ring, self.d), Q=trusted(ring, self.q),
            Pinv=trusted(ring, self.pinv), Qinv=trusted(ring, self.qinv))


def _eye(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def _eye2(ring):
    return ((ring.one, ring.zero), (ring.zero, ring.one))


def _cert_col_pair(ring, a, b):
    """Column transform (t, tinv) sending the row pair (a, b) to (d, 0).

    The pair (a, 0) keeps the identity transform; this also covers (0, 0),
    which has no unimodular completion, so ``bezout_raw`` never sees it.
    """
    if b == ring.zero:
        return a, _eye2(ring), _eye2(ring)
    d, x, y, a0, b0 = ring.bezout_raw(a, b)
    t = ((x, ring.neg(b0)), (y, a0))
    tinv = ((a0, b0), (ring.neg(y), x))
    return d, t, tinv


def column_reduce(a: RingElement, b: RingElement) -> tuple[RingElement, RingMatrix]:
    """Hermite step: an invertible 2x2 Q with (a b) Q = (d 0) and det Q = 1.

    Q is built from the refined Bezout certificate as [[x, -b0], [y, a0]];
    the degenerate pair (0, 0) returns d = 0 with Q the identity, and the
    pair (a, 0) short-circuits to (a, identity).
    """
    ring = _same_ring(a, b)
    d, t, _ = _cert_col_pair(ring, a.value, b.value)
    return (_raw(ring, d), RingMatrix._trusted(ring, t))


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
    zero, one = ring.zero, ring.one
    (av, e01), (bv, cv) = a.data
    if e01 != zero:
        raise PreconditionError("reduce_2x2 needs the lower-triangular shape [[a,0],[b,c]]")
    if not _comaximal(ring, [av, bv, cv]):
        raise PreconditionError(
            f"reduce_2x2 requires aR + bR + cR = R, got "
            f"{a.entry(0, 0)!r}, {a.entry(1, 0)!r}, {a.entry(1, 1)!r}")
    if a.is_identity():
        ident = RingMatrix.identity(ring, 2)
        return ReductionResult(P=ident, D=a, Q=ident, Pinv=ident, Qinv=ident)
    add, mul, neg, inv = ring.add, ring.mul, ring.neg, ring.inverse

    # (i) a*x + b*y + c*z = u, a unit, through two certificates; the shift
    # needs only x and z, for any u, and b = c = 0 (d_bc = 0) gives z = 0
    d_bc, z_bc = zero, zero
    if bv != zero or cv != zero:
        d_bc, _, z_bc, _, _ = ring.bezout_raw(bv, cv)
    _, x, s, _, _ = ring.bezout_raw(av, d_bc)
    z = mul(z_bc, s)

    # (ii) stable shift: v = b + (a*x + c*z)*t
    axcz = add(mul(av, x), mul(cv, z))
    t = select_stable(_raw(ring, bv), _raw(ring, axcz)).value
    v = add(bv, mul(axcz, t))
    xt, zt = mul(x, t), mul(z, t)
    swap = ((zero, one), (one, zero))
    # (matrix, inverse) factors, each list in application order
    left = [(((one, zero), (xt, one)), ((one, zero), (neg(xt), one)))]
    right = [(((one, zero), (zt, one)), ((one, zero), (neg(zt), one)))]

    # (iii) Hermite: (v, c) -> (0, c'), giving [[a', b'], [0, c']]
    c_p, tq, tqinv = _cert_col_pair(ring, v, cv)
    tq = _mul2(ring, tq, swap)
    right.append((tq, _mul2(ring, swap, tqinv)))
    a_p, b_p = mul(av, tq[0][0]), mul(av, tq[0][1])

    # (iv) w with b' + a'*w a unit modulo c'
    w = lift_unit(_raw(ring, b_p), _raw(ring, a_p), _raw(ring, c_p)).value
    unit_mod_cp = add(b_p, mul(a_p, w))

    # (v) (b' + a'*w)*p + c'*q = 1
    d, p, q, _, _ = ring.bezout_raw(unit_mod_cp, c_p)  # d is a unit: scale it to 1
    p, q = mul(p, inv(d)), mul(q, inv(d))

    # (vi) the closing factors: swap * M * (...) * W * E * swap
    pa = mul(p, a_p)
    right += [(((one, w), (zero, one)), ((one, neg(w)), (zero, one))),
              (((one, zero), (neg(pa), one)), ((one, zero), (pa, one))),
              (swap, swap)]
    left += [(((c_p, neg(unit_mod_cp)), (p, q)), ((q, unit_mod_cp), (neg(p), c_p))),
             (swap, swap)]

    # compose once: P = L_k...L_1, Pinv = L_1^-1...L_k^-1, Q = R_1...R_k,
    # Qinv = R_k^-1...R_1^-1 and D = P*A*Q
    pm, pinv = left[0]
    for f, finv in left[1:]:
        pm, pinv = _mul2(ring, f, pm), _mul2(ring, pinv, finv)
    qm, qinv = right[0]
    for f, finv in right[1:]:
        qm, qinv = _mul2(ring, qm, f), _mul2(ring, finv, qinv)
    dm = _mul2(ring, _mul2(ring, pm, a.data), qm)
    # normalize delta to its canonical associate by one more row factor
    delta = dm[1][1]
    canon = ring.canonical_associate(delta)
    if canon != delta:
        u = ring.associate_unit(delta, canon)
        f, finv = ((one, zero), (zero, inv(u))), ((one, zero), (zero, u))
        left.append((f, finv))
        pm, pinv, dm = _mul2(ring, f, pm), _mul2(ring, pinv, finv), _mul2(ring, f, dm)
    trusted = RingMatrix._trusted

    def audit(factors):
        return tuple((trusted(ring, f), trusted(ring, finv)) for f, finv in factors)

    return ReductionResult(
        P=trusted(ring, pm), D=trusted(ring, dm), Q=trusted(ring, qm),
        Pinv=trusted(ring, pinv), Qinv=trusted(ring, qinv),
        left_factors=audit(left), right_factors=audit(right))


def _mul2(ring, s, t):
    fma, mul = ring.fma, ring.mul
    (s00, s01), (s10, s11) = s
    (t00, t01), (t10, t11) = t
    return ((fma(mul(s00, t00), s01, t10), fma(mul(s00, t01), s01, t11)),
            (fma(mul(s10, t00), s11, t10), fma(mul(s10, t01), s11, t11)))


def _smallest_entry(sweep: _Sweep, t: int):
    """(size, i, j) of the first nonzero entry of least size in rows and
    columns t and up, or None if they are all zero."""
    ring, d = sweep.ring, sweep.d
    size, zero = ring.size, ring.zero
    unit = size(ring.one)
    best = None
    for i in range(t, sweep.m):
        row = d[i]
        for j in range(t, sweep.n):
            v = row[j]
            if v != zero:
                s = size(v)
                if best is None or s < best[0]:
                    best = (s, i, j)
                    if s == unit:  # nothing is smaller than a unit
                        return best
    return best


def _clear_pivot(sweep: _Sweep, t: int):
    """Zero row t and column t of D off the diagonal, leaving the pivot at (t, t).

    Each pass pivots on the smallest entry and clears its row, then its
    column, by shears with nearest quotients.  The column is cleared only on
    a pass that leaves the row zero off the pivot, so each of those row
    shears adds a multiple of (pivot, 0, ..., 0) and changes one entry of D.

    Every remainder left is smaller than its pivot, so pivot sizes fall
    strictly from pass to pass and the loop ends.  The number of passes
    follows the input, not a fixed cap: over Z a remainder is at most half
    its pivot, so a pivot of b bits takes at most b + 1 passes, and over
    Z/n each pivot's gcd with n properly divides the last one's.
    """
    ring = sweep.ring
    zero, neg, nearest = ring.zero, ring.neg, ring.nearest_quotient
    d = sweep.d
    last = None
    while True:
        found = _smallest_entry(sweep, t)
        if found is None:
            return
        s, i, j = found
        if last is not None and not s < last:
            raise RuntimeError("internal error: pivot size did not fall")
        last = s
        if i != t:
            sweep.swap_rows(t, i)
        if j != t:
            sweep.swap_cols(t, j)
        pivot = d[t][t]
        for j in range(t + 1, sweep.n):
            if d[t][j] != zero:
                sweep.add_col(j, t, neg(nearest(d[t][j], pivot)))
        if any(d[t][j] != zero for j in range(t + 1, sweep.n)):
            continue
        for i in range(t + 1, sweep.m):
            if d[i][t] != zero:
                sweep.add_row(i, t, neg(nearest(d[i][t], pivot)))
        if all(d[i][t] == zero for i in range(t + 1, sweep.m)):
            return


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
            # (a does not divide c, so the pair is never (0, 0))
            _, _, _, a0, b0 = ring.bezout_raw(a, c)
            block = RingMatrix._trusted(ring, ((a0, ring.zero), (a0, b0)))
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
        comp = RingMatrix._trusted(factor, [[v[idx] for v in row] for row in a.data])
        partials.append(diagonal_reduce(comp))

    def weave(mats: list[RingMatrix]) -> RingMatrix:
        rows = mats[0].rows
        cols = mats[0].cols
        return RingMatrix._trusted(ring, [[tuple(m.data[i][j] for m in mats)
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
    # One side suffices: over a commutative ring, P*Pinv = I gives
    # det(P)*det(Pinv) = 1, so det(P) is a unit and P has the two-sided
    # inverse adj(P)/det(P); then Pinv = P^-1*(P*Pinv) is that inverse.
    if not (r.P @ r.Pinv).is_identity():
        return fail("Pinv is not an inverse of P")
    if not (r.Q @ r.Qinv).is_identity():
        return fail("Qinv is not an inverse of Q")
    if not r.D.is_diagonal():
        return fail("D is not diagonal")
    # P*A*Q = D iff P*A = D*Qinv: multiply on the right by Qinv, or back by
    # Q, since Q*Qinv = I holds and so does Qinv*Q = I over a commutative
    # ring.  With D diagonal, row i of D*Qinv is d_i times row i of Qinv
    # (zero past the diagonal), so this costs a third cubic product, P*A,
    # where P*A*Q took two.  A row with d_i = 1 is the Qinv row itself.
    diag = r.D.diagonal()
    d_qinv = [row if e.value == ring.one else [ring.mul(e.value, x) for x in row]
              for e, row in zip(diag, r.Qinv.data)]
    d_qinv += [[ring.zero] * a.cols] * (a.rows - len(diag))
    if r.P @ a != RingMatrix._trusted(ring, d_qinv):
        return fail("P*A != D*Qinv")
    for i, e in enumerate(diag):
        if ring.canonical_associate(e.value) != e.value:
            return fail(f"diagonal entry at position {i} is not its canonical associate")
    for i in range(len(diag) - 1):
        if not ring.divides(diag[i].value, diag[i + 1].value):
            return fail(f"divisibility chain broken at position {i}")
    return True
