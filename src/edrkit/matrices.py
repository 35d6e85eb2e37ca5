"""Diagonal (Smith-type) reduction of matrices over effective Bezout rings.

``diagonal_reduce`` produces invertible P, Q with P*A*Q = D diagonal, each
diagonal entry dividing the next, entries normalized to canonical associates
and zeros last.  Every transform carries an explicitly stored inverse, so a
:class:`ReductionResult` is a checkable certificate (:func:`verify_reduction`
recomputes everything from scratch).

An integer matrix whose smaller side is ``LATTICE_MIN_N`` or more first
tries a smaller certificate.  A square one (``_lattice_certificate``):
where A is nonsingular and its Smith form is diag(1, ..., 1, delta), P is
the identity with one row replaced by a row of adj(A) reduced mod delta,
and the entries of P, Pinv and Q stay near delta in size.  A wide m x n one,
m < n (``_completion_certificate``), tall ones through their transpose:
where the maximal minors of A generate Z, A extends to a unimodular Qinv =
[A; z; unit rows], so P = Pinv = I, D = [I | 0] and Q = Qinv^-1.  That is
the strong completability of Z, which every locally stable ring has.  The
proof is constructive: one fraction-free elimination picks m pivot
columns J with delta = |det A_J| > 0, and for a column c_k past them
gives w, the minors of A with one pivot column swapped for c_k.  Where w
and delta have no common prime, a row z with det'*z_k - z_J*w = 1 (det' =
+-det A_J) makes [[A_J, c_k], [z_J, z_k]] unimodular by the Schur
complement, and the unit rows of the other columns complete it.  Q has a closed form, and
every entry stays near delta.  A rank-deficient one, of rank r
(``_kernel_certificate``): where its Smith form is diag(I_r, 0), a basis K
of the integer kernel on its smaller side, read off the same elimination,
completes to a unimodular V = [z; unit rows; K], so V*A = [F; 0] (a wide
A), and F's completion certificate finishes P*A*Q = diag(I_r, 0).  One
elimination of A's rows (a wide A's columns) serves all three: it gives
the rank and routes A (``_integer_certificate``).  Every other input, and
every other ring, takes the sweep below: integer matrices whose Smith form
has a non-unit (2A, say), those with a side below ``LATTICE_MIN_N``, and
the few where no kernel basis or completion row is found.

The engine clears one pivot row and column at a time with one remainder
sweep, after Kannan and Bachem (SIAM J. Comput. 8, 1979).  Every ring with
total Bezout certificates has a Euclidean size (``Ring.size``): |a| over Z,
degree over GF(p)[x], gcd(a, n) over Z/n, and over a truncated series, Z ⋉ Q
(order 1) among them, the order of the lowest term, then |its coefficient|.
Each pass pivots on a nonzero entry of least size in the trailing submatrix
and shears each entry of its row and column by minus the nearest quotient
(``Ring.nearest_quotient``), which leaves a remainder of smaller size;
exact division is the remainder-0 case.  Small pivots and small remainders
bound the growth of D and the transforms.  This clearing phase runs on the
work ring that ``Ring.to_work`` picks, with the five matrices converted once
each way.  Over a truncated series of order k (``rings._SeriesWork``), with
L a common denominator, x -> L*y maps each value into Z[y]/(y^(k+1)), the
coefficient of x^i becoming the integer q_i*L^i; a quotient with a new
denominator m multiplies L by m and coefficient i of every entry by m^i.  At
k = 1 these are Z ⋉ Q's integer pairs over one common denominator.  Over
GF(p)[x] the work ring holds integers with one coefficient per slot
(Kronecker), a value below 2**b in a field of 2b + 1 bits, so that one
multiply, shift and mask take every slot mod p (``rings._Slots``).

Each step updates D, P, Q and the stored inverses together through one-row
shears (D in ``_clear_pivot``, the transforms in ``_Sweep.shear_p`` and
``shear_q``) and swaps.  The divisibility chain is then enforced through
the explicit 2x2 elementary reduction of a lower-triangular matrix with
comaximal entries (``reduce_2x2``).  It works on raw 2x2 values and writes
P, Q and their inverses in closed form; each factor is also kept as a raw
(matrix, inverse) pair of 2x2 tuples for auditing invertibility.  Only
products are split, each component reduced on its own.

``verify_reduction`` checks P*Pinv = I and Q*Qinv = I only: over a
commutative ring a one-sided inverse of a square matrix is two-sided.  So
Qinv*Q = I too, and P*A*Q = D holds exactly when P*A = D*Qinv.  Once D is
known to be diagonal, D*Qinv is a row scaling of Qinv, so the whole check
takes three cubic matrix products (P*Pinv, Q*Qinv, P*A) instead of four.
A, P, Pinv, Q, Qinv and D's diagonal are converted once (``Ring.to_check``):
over GF(p)[x] into ``rings._Slots`` fields of one width for all three
products, over a truncated series into the same integer images as the
sweep's, over one common denominator.  Each
product is one ``matmul_equals`` call against its known result, the
identity or the rows of D*Qinv, formed in that same converted form.  Over
Z, a product 8 or more columns wide packs each row of its right operand
into one integer of signed slots, wide enough that packed equality is
entrywise equality (``IntegerRing.matmul_equals``).
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field
from math import gcd

from .rings import (
    IntegerRing,
    PreconditionError,
    ProductRing,
    Ring,
    RingElement,
    RingError,
    RingMismatchError,
    UnsupportedOperationError,
    _egcd,
    _raw,
    _same_ring,
)
from .stability import lift_unit, select_stable

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
        rows = self.data if ring.raw_json else [[ring.value_to_json(v) for v in row]
                                                 for row in self.data]
        return {"ring": ring.expression(), "rows": rows}

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
    """Exact determinant of a square matrix over any commutative ring.

    Trailing unit pivots are peeled first.  While n > 1 and a[n-1][n-1] is
    a unit u, each row r above it loses a[r][n-1]*u^-1 times row n-1 (only
    the columns where row n-1 is nonzero change, and a row is copied when
    first written), u joins a running factor, and the last row and column
    are dropped.  Row operations keep the determinant, and expanding along
    the cleared last column gives u times that of the leading block.  A
    completed row's matrix, an identity block below two rows beside two
    columns, peels to 2x2 in O(n) ring operations (the Schur determinant
    identity; Schur, J. reine angew. Math. 147, 1917).

    Berkowitz's division-free algorithm takes the block that is left.  The
    characteristic polynomial det(x*I - A) is built over the leading
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
    A triangular matrix takes this path at every step.  A_r is kept as the
    nonzero entries of each row, grown by one column and one row per step.
    """
    if m.rows != m.cols:
        raise RingError("determinant needs a square matrix")
    ring, a, n = m.ring, list(m.data), m.rows
    add, sub, mul, neg, dot, zero = ring.add, ring.sub, ring.mul, ring.neg, ring.dot, ring.zero
    factor = ring.one
    while n > 1 and ring.is_unit(a[n - 1][n - 1]):
        n -= 1
        last, u = a[n], a[n][n]
        factor, uinv = mul(factor, u), ring.inverse(u)
        pivots = [(j, v) for j, v in enumerate(last[:n]) if v != zero]
        for r in range(n):
            if a[r][n] != zero:
                q, row = mul(a[r][n], uinv), a[r]
                if isinstance(row, tuple):
                    row = a[r] = list(row)
                for j, v in pivots:
                    row[j] = sub(row[j], mul(q, v))
    # A_r as the (values, columns) of each row's nonzero entries: skipping
    # the zeros of a sparse matrix saves most products
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
    return _raw(ring, mul(factor, neg(poly[n]) if n % 2 else poly[n]))


@dataclass(frozen=True)
class ReductionResult:
    """Certificate P*A*Q = D with stored inverses and a divisibility chain."""

    P: RingMatrix
    D: RingMatrix
    Q: RingMatrix
    Pinv: RingMatrix
    Qinv: RingMatrix
    # raw (matrix, inverse) pairs of 2x2 tuples in application order, for audits
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
    series work ring compute without a separate product and sum.
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

    def shear_p(self, i: int, k: int, q):
        """P and Pinv for row i += q * row k, which the caller makes on D:
        E = I + q*e_i*e_k^T, so P <- E P, Pinv <- Pinv E^-1."""
        ring = self.ring
        ring.axpy(self.p[i], self.p[k], q)
        ring.col_axpy(self.pinv, k, i, ring.neg(q))  # column k -= q * column i

    def shear_q(self, j: int, k: int, q):
        """Q and Qinv for col j += q * col k, which the caller makes on D:
        E = I + q*e_k*e_j^T, so Q <- Q E, Qinv <- E^-1 Qinv."""
        ring = self.ring
        ring.col_axpy(self.q, j, k, q)
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

    The pair (a, 0) keeps a and the identity transform, where
    ``bezout_raw`` would give a's canonical associate: the documents keep
    their bytes.
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
    reduce the row (v, c) to (0, c'); lift w so u' = b' + a'*w is a unit mod
    c'; close with the det-1 matrix [[c', -u'], [p, q]] and the recorded
    shears.  All factors are collected with their inverses for auditing.

    The transforms are closed forms.  With xt = x*t, (p, q) scaled so that
    u'*p + c'*q = 1, pa = p*a' and T = R1*R2 (the shift [[1, 0], [z*t, 1]]
    times the Hermite factor):

        P    = [[p + q*xt, q], [c' - u'*xt, -u']]
        Pinv = [[u', q], [c' - xt*u', -(p + xt*q)]]
        Q    = T * [[w, 1 - w*pa], [1, -pa]]
        Qinv = [[pa, 1 - w*pa], [1, -w]] * R2^-1 * R1^-1

    P is swap * [[c', -u'], [p, q]] * [[1, 0], [xt, 1]] multiplied out and
    Pinv their inverses in reverse order (P*Pinv = I entry by entry from
    u'*p + c'*q = 1); [[1, w], [0, 1]] * [[1, 0], [-pa, 1]] * swap and its
    inverse give the factors beside T and R2^-1.  D = P*A*Q comes out as
    diag(1, a'*c').  A delta = canon*u that is not canonical takes the row
    factor diag(1, u^-1): row 2 of P and D times u^-1, column 2 of Pinv times u.
    """
    ring = a.ring
    if a.rows != 2 or a.cols != 2:
        raise RingError("reduce_2x2 needs a 2x2 matrix")
    zero, one = ring.zero, ring.one
    (av, e01), (bv, cv) = a.data
    if e01 != zero:
        raise PreconditionError("reduce_2x2 needs the lower-triangular shape [[a,0],[b,c]]")
    if not ring.comaximal([av, bv, cv]):
        raise PreconditionError(
            f"reduce_2x2 requires aR + bR + cR = R, got "
            f"{', '.join(map(ring.element_text, (av, bv, cv)))}")
    if a.is_identity():
        ident = RingMatrix.identity(ring, 2)
        return ReductionResult(P=ident, D=a, Q=ident, Pinv=ident, Qinv=ident)
    add, sub, mul, neg, fma, inv = ring.add, ring.sub, ring.mul, ring.neg, ring.fma, ring.inverse

    # (i) a*x + b*y + c*z = u, a unit, through two certificates; the shift
    # needs only x and z, for any u, and b = c = 0 (d_bc = 0) gives z = 0
    d_bc, _, z_bc = ring.egcd(bv, cv)
    _, x, s = ring.egcd(av, d_bc)
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

    # (iii) Hermite: (v, c) -> (0, c'), giving [[a', b'], [0, c']]; R2 = transform*swap
    c_p, (t0, t1), (s0, s1) = _cert_col_pair(ring, v, cv)
    (r00, r01), (r10, r11) = tq = (t0[::-1], t1[::-1])
    (i00, i01), (i10, i11) = tqinv = (s1, s0)
    right.append((tq, tqinv))
    a_p, b_p = mul(av, r00), mul(av, r01)

    # (iv) w with u' = b' + a'*w a unit modulo c'
    w = lift_unit(_raw(ring, b_p), _raw(ring, a_p), _raw(ring, c_p)).value
    u_p = add(b_p, mul(a_p, w))

    # (v) u'*p + c'*q = 1
    d, p, q = ring.egcd(u_p, c_p)  # d is a unit: scale it to 1
    p, q = mul(p, inv(d)), mul(q, inv(d))

    # (vi) the closing factors: swap * M * (...) * W * E * swap
    pa = mul(p, a_p)
    right += [(((one, w), (zero, one)), ((one, neg(w)), (zero, one))),
              (((one, zero), (neg(pa), one)), ((one, zero), (pa, one))),
              (swap, swap)]
    left += [(((c_p, neg(u_p)), (p, q)), ((q, u_p), (neg(p), c_p))),
             (swap, swap)]

    # the closed forms of the docstring, then D = P*A*Q
    pq, cu, wpa = fma(p, q, xt), sub(c_p, mul(u_p, xt)), sub(one, mul(w, pa))
    pm = ((pq, q), (cu, neg(u_p)))
    pinv = ((u_p, q), (cu, neg(pq)))
    t10, t11 = fma(r10, zt, r00), fma(r11, zt, r01)
    qm = ((fma(r01, r00, w), sub(mul(r00, wpa), mul(r01, pa))),
          (fma(t11, t10, w), sub(mul(t10, wpa), mul(t11, pa))))
    k0, k1 = sub(i00, mul(i01, zt)), sub(i10, mul(i11, zt))  # column 1 of R2^-1 * R1^-1
    qinv = ((fma(mul(pa, k0), wpa, k1), fma(mul(pa, i01), wpa, i11)),
            (sub(k0, mul(w, k1)), sub(i01, mul(w, i11))))
    dm = _mul2(ring, _mul2(ring, pm, a.data), qm)
    # normalize delta to its canonical associate by one more row factor
    delta = dm[1][1]
    canon = ring.canonical_associate(delta)
    if canon != delta:
        u = ring.associate_unit(delta, canon)
        uinv = inv(u)
        left.append((((one, zero), (zero, uinv)), ((one, zero), (zero, u))))
        pm, dm = ((m0, tuple([mul(uinv, e) for e in m1])) for m0, m1 in (pm, dm))
        pinv = tuple((e0, mul(e1, u)) for e0, e1 in pinv)
    trusted = RingMatrix._trusted
    return ReductionResult(
        P=trusted(ring, pm), D=trusted(ring, dm), Q=trusted(ring, qm),
        Pinv=trusted(ring, pinv), Qinv=trusted(ring, qinv),
        left_factors=tuple(left), right_factors=tuple(right))


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
    Rows and columns before t are cleared, so D's column shears skip those
    rows, and each row shear of D is the one entry fma at (i, t).

    Each quotient reads the pivot afresh, since a work ring may rescale
    every matrix to find one.  A rescale keeps the order of sizes and their
    ties but may enlarge the sizes themselves, so where a pivot's size is
    not below the last one's, the last pivot, still at d[t][t], is read again.

    Every remainder left is smaller than its pivot, so pivot sizes fall
    strictly from pass to pass and the loop ends.  The number of passes
    follows the input, not a fixed cap: over Z a remainder is at most half
    its pivot, so a pivot of b bits takes at most b + 1 passes, and over
    Z/n each pivot's gcd with n properly divides the last one's.
    """
    ring = sweep.ring
    zero, neg, nearest = ring.zero, ring.neg, ring.nearest_quotient
    fma, col_axpy = ring.fma, ring.col_axpy
    d = sweep.d
    last = None
    while True:
        found = _smallest_entry(sweep, t)
        if found is None:
            return
        s, i, j = found
        if last is not None and not s < last and not s < ring.size(d[t][t]):
            raise RuntimeError("internal error: pivot size did not fall")
        last = s
        if i != t:
            sweep.swap_rows(t, i)
        if j != t:
            sweep.swap_cols(t, j)
        for j in range(t + 1, sweep.n):
            if d[t][j] != zero:
                q = neg(nearest(d[t][j], d[t][t]))
                col_axpy(d[t:], j, t, q)
                sweep.shear_q(j, t, q)
        if any(d[t][j] != zero for j in range(t + 1, sweep.n)):
            continue
        for i in range(t + 1, sweep.m):
            if d[i][t] != zero:
                q = neg(nearest(d[i][t], d[t][t]))
                d[i][t] = fma(d[i][t], q, d[t][t])
                sweep.shear_p(i, t, q)
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


# Integer matrices whose smaller side is this size or more try the lattice
# or the completion certificate before the sweep: on random dense inputs a
# 3x3 takes 1.05x the sweep's time and a 4x4 breaks even, and the smaller
# documents keep their bytes.
LATTICE_MIN_N = 4
# adjugate rows combined in the search for the lattice row: a cyclic input
# with an even delta misses when all six are even, at odds near 2^-6, and
# a non-cyclic input computes six before it goes to the sweep
LATTICE_ROWS = 6


def _bareiss(rows):
    """Fraction-free forward elimination of [A | I] for an integer A with at
    least as many rows as columns (Bareiss, Math. Comp. 22, 1968).

    Returns (e, perm, piv): the rows of [A | I] after elimination, in pivot
    order, row t of A being row perm[t] of the input, and the pivot columns
    piv, one per pivot, so the rank r is len(piv).  A column that is zero
    in every row left takes no pivot and the pass goes on to the next one.
    Column piv[t] of e[t] holds the pivot t, an r x r minor of A's rows and
    columns; the last pivot, det' = e[r-1][piv[-1]], is a minor of the r
    pivot rows (+-det A for a nonsingular square A, where piv[t] = t).
    Before its pivot column, e[t] holds stale values in the pivot columns
    above it and zeros in the skipped ones.  Past column c, e holds the
    identity part in pivot order too: entry s sits in the identity column
    of the row that became pivot s, column perm[s].  A row that is not yet
    a pivot is zero there except in the columns of the pivots above it and
    in its own column, which holds the last pivot; so e stores the former
    and appends the latter when the row becomes pivot t, which leaves it
    t + 1 entries past column c.  Each row past the r pivots ends with r
    entries there and an A part of zeros: with the last pivot in its own
    column, it is a combination of rows that vanishes on A.  The A and
    identity parts of a row are updated in one pass, and rows swap only
    past a zero pivot.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    perm = list(range(n))
    piv = []
    prev = 1
    for k in range(len(a[0])):
        t = len(piv)
        r = next((i for i in range(t, n) if a[i][k]), None)
        if r is None:
            continue
        if r != t:
            a[t], a[r] = a[r], a[t]
            perm[t], perm[r] = perm[r], perm[t]
        at, p = a[t], a[t][k]
        at.append(prev)
        tail = at[k + 1:]  # zip drops its last entry, prev, beside a row below
        for i in range(t + 1, n):
            ai = a[i]
            c = ai[k]
            if c:
                ai[k + 1:] = [(p * x - c * y) // prev for x, y in zip(ai[k + 1:], tail)]
                ai.append(-c)
            elif p == prev:
                ai.append(0)
            else:
                ai[k + 1:] = [p * x // prev for x in ai[k + 1:]]
                ai.append(0)
        prev = p
        piv.append(k)
    return a, perm, piv


def _back_substitution(e, n: int):
    """(x, solve) for the n pivot rows of a ``_bareiss`` elimination e of an
    A with n columns, whose last pivot is det' = e[n-1][n-1].  solve(t)
    computes x[t], row t of X = det'*B^-1, B the n pivot rows of A in pivot
    order (the A of a square elimination), with its entries in pivot order
    too; rows t + 1 and up must be solved first.  X is integral:
    det'*B^-1 = +-adj(B)."""
    det = e[n - 1][n - 1]
    x = [None] * n

    def solve(t):
        # U X = det * M: X_t = (det * M_t - sum over s > t of U_ts X_s) / U_tt
        et = e[t]
        acc = [det * v for v in et[n:]] + [0] * (n - 1 - t)
        for s in range(t + 1, n):
            c = et[s]
            if c:
                acc = [v - c * w for v, w in zip(acc, x[s])]
        p = et[t]
        row = x[t] = [v // p for v in acc]
        return row

    return x, solve


def _symmetric(v: int, delta: int) -> int:
    """v mod delta in (-delta/2, delta/2]."""
    v %= delta
    return v - delta if 2 * v > delta else v


def _lattice_row(solve, n: int, delta: int):
    """(y, t) with y an integer combination of the adjugate rows
    n-1, n-2, ..., t reduced mod delta whose content is prime to delta, or
    None once LATTICE_ROWS rows give none.  solve(t) returns row t.

    Modulo delta, a cyclic A's adjugate has rank one: every row is beta*g
    for one g whose entries are together prime to delta, so the content h
    of y mod delta is gcd(beta_y, delta).  Adding c times the next row,
    with c the part of delta prime to h, keeps every prime of delta that
    does not divide h out of the new beta and puts in only the primes of h
    that also divide the new row's beta.  Over a non-cyclic A every prime
    of s_(n-1) divides every row, so h never reaches 1.
    """
    y = [v % delta for v in solve(n - 1)]
    t = n - 1
    while True:
        h = delta
        for v in y:
            h = gcd(h, v)
            if h == 1:
                return y, t
        if t == 0 or n - t >= LATTICE_ROWS:
            return None
        t -= 1
        c = delta
        while (g := gcd(c, h)) > 1:
            c //= g
        y = [(u + c * v) % delta for u, v in zip(y, solve(t))]


def _lattice_certificate(a: RingMatrix, elim=None) -> ReductionResult | None:
    """P*A*Q = diag(1, ..., 1, delta) for a nonsingular square integer A,
    delta = |det A|, or None.  None always where its Smith form has a second
    non-unit invariant factor, and on a few cyclic inputs: where no entry of
    the lattice row is a unit mod delta, or LATTICE_ROWS rows give no row.

    A random integer matrix mostly has that cyclic Smith form (Eberly,
    Giesbrecht and Villard, FOCS 2000).  Then the rows x with x*A = 0 mod
    delta are, mod delta, the multiples of one row, and the rows of adj(A)
    span them; where an entry of that row is a unit mod delta, scaling it
    gives a row x with x_k = 1.  P is
    the identity rows other than row k, then x, so det P = 1, the first
    n - 1 rows of P*A are rows of A and its last row x*A is delta times an
    integer row.  Hence Qinv = D^-1*P*A is integral with determinant +-1,
    Q = A^-1*Pinv*D, and P*A*Q = D.  Pinv is the inverse of I + e_k*(x -
    e_k)^T, which is I - e_k*(x - e_k)^T, with its columns in P's row order.
    With x reduced symmetrically mod delta, P and Pinv keep their entries at
    most delta/2 and Q at most the largest entry of adj(A) (below), where
    the sweep's transforms grow as about 2n^2 bits; Qinv holds rows of A and
    one short row.

    One elimination does the work.  ``_bareiss`` gives det A and the
    fraction-free factors; back-substitution gives X = det'*A^-1, det' =
    +-det A, one row at a time from the last, and its rows are adjugate
    rows, so the search for x (``_lattice_row``) reads the last few before
    the rest are computed.  Column j of Q is then (X e_j - x_j X e_k)/det'
    for j != k, at most (1/delta + 1/2)*max|adj(A)|, and the last one
    sign(det')*X e_k.  elim, where given, is ``_bareiss`` on A's rows.
    """
    n = a.rows
    e, perm, _ = elim or _bareiss(a.data)
    det = e[n - 1][n - 1]
    delta = abs(det)
    x, solve = _back_substitution(e, n)
    found = _lattice_row(solve, n, delta)
    if found is None:
        return None
    y, t = found
    for s in range(t - 1, -1, -1):
        solve(s)
    # pivot columns back to A's row order
    inv = [0] * n
    for s, j in enumerate(perm):
        inv[j] = s
    y = [y[s] for s in inv]
    k = next((j for j in range(n - 1, -1, -1) if gcd(y[j], delta) == 1), None)
    if k is None:
        return None
    w = pow(y[k], -1, delta)
    xs = [_symmetric(v * w, delta) for v in y]
    xs[k] = 1  # already 1 unless delta = 1
    order = [j for j in range(n) if j != k]
    eye = _eye(a.ring, n)
    p_rows = [eye[j] for j in order] + [xs]
    pinv = [[int(r == j) for j in order] + [0] for r in range(n)]
    pinv[k] = [-xs[j] for j in order] + [1]
    data = a.data
    xa = [sum(map(operator.mul, xs, col)) // delta for col in zip(*data)]
    qinv = [data[j] for j in order] + [xa]
    xk = [row[inv[k]] for row in x]
    q_cols = [[(row[inv[j]] - xs[j] * e) // det for row, e in zip(x, xk)] for j in order]
    q_cols.append(xk if det > 0 else [-e for e in xk])
    d = _eye(a.ring, n)
    d[-1][-1] = delta
    ring, trusted = a.ring, RingMatrix._trusted
    return ReductionResult(
        P=trusted(ring, p_rows), D=trusted(ring, d), Q=trusted(ring, zip(*q_cols)),
        Pinv=trusted(ring, pinv), Qinv=trusted(ring, qinv))


def _unit_combination(y, delta: int):
    """c with c*y = 1 mod delta, reduced symmetrically, or None where the
    entries of y and delta have a common prime.  Where an entry is a unit
    mod delta, c is its inverse there and zero elsewhere; otherwise an
    iterated extended gcd keeps h = gcd(delta, y_0, ..., y_t) = c*y mod
    delta after entry t."""
    c = [0] * len(y)
    for t, v in enumerate(y):
        if gcd(v, delta) == 1:
            c[t] = _symmetric(pow(v, -1, delta), delta)
            return c
    h = delta
    for t, v in enumerate(y):
        if h == 1:
            break
        g, p, q = _egcd(h, v)
        if g != h:
            c = [p * e % delta for e in c]
            c[t], h = q % delta, g
    return [_symmetric(e, delta) for e in c] if h == 1 else None


def _completion_certificate(a: RingMatrix, elim=None) -> ReductionResult | None:
    """P*A*Q = [I | 0] with P = Pinv = I for an m x n integer A of rank m,
    m < n, and the transpose of its transpose's certificate for a tall A
    (Q = Qinv = I); None always where its Smith form is not [I | 0], and
    where two pivot choices find no completion row.

    The maximal minors of such an A generate Z, so A is the first m rows of
    a unimodular Qinv (strong completability of Z, as of every locally
    stable ring); then A*Q = [I | 0] with Q = Qinv^-1.  ``_completion``
    builds one, with every entry near delta = |det A_J| for m pivot
    columns J, where the sweep's transforms grow as about 2m^2 bits.
    elim, where given, is ``_bareiss`` on the columns of a wide A in order,
    the rows of a tall one.
    """
    if a.rows > a.cols:
        return _transposed(_completion_certificate(_transpose(a), elim))
    n = a.cols
    # pivot columns first scanned from the first, then from the last
    for order in (range(n), range(n - 1, -1, -1)):
        elim = elim or _bareiss([[row[j] for row in a.data] for j in order])
        res = _completion(a, list(order), elim)
        if res is not None:
            return res
        elim = None
    return None


def _completion(a: RingMatrix, order, elim) -> ReductionResult | None:
    """The completion of a wide A from ``_bareiss`` on its columns in order.

    The elimination stops at the m pivot columns J (the first nonzero
    column for each pivot), with det' = +-det A_J the last pivot, delta =
    |det'| and X = det'*A_J^-1.  For a column c_j past the pivots it leaves
    y_j = -X*c_j: by Cramer's rule, y_j holds the m x m minors of A with one
    pivot column swapped for c_j.  Where delta and y_k have no common prime
    (``_unit_combination``), z_J with z_J*y_k = 1 mod delta and z_k = (1 -
    z_J*y_k)/det' make det'*z_k + z_J*y_k = 1.  Qinv is A, then the row z,
    then the unit rows e_j of the other columns past the pivots.  Expanding
    along the unit rows leaves [[A_J, c_k], [z_J, z_k]], whose determinant is
    det A_J*(z_k - z_J*A_J^-1*c_k) = +-(det'*z_k + z_J*y_k) = +-1 by the
    Schur complement.  So Qinv is unimodular, whatever z holds on the other
    columns, and it stays so if a combination a of A's rows is taken off z.

    Q = Qinv^-1 in closed form, checked by Qinv*Q = I row by row.  Column
    m, for the row z: v = y_k on J and det' at k, so A*v = 0 and z*v = 1.
    Column i < m, for row i of A: (X e_i - rho_i*y_k)/det' on J and -rho_i
    at k, so A times it is e_i; z times it is zero, since rho = z_J*X (mod
    det') is what the row a*A takes off z's pivot part.  The column for
    e_j: (y_j + tau_j*y_k)/det' on J, tau_j at k and 1 at j, so A times it
    is zero; z times it is zero for tau_j = z_J*(-y_j) - det'*z_j, which
    fixes z_j.  With rho and tau reduced symmetrically mod delta, every
    entry of Q is at most about max |y| and z's pivot part at most delta/2.
    """
    e, perm, _ = elim
    m, n = a.rows, a.cols
    det = e[m - 1][m - 1]
    delta = abs(det)
    for s in range(m, n):
        zj = _unit_combination(e[s][m:], delta)
        if zj is not None:
            break
    else:
        return None
    y = e[s][m:]
    piv = [order[perm[t]] for t in range(m)]
    k = order[perm[s]]
    rest = sorted((order[perm[r]], e[r][m:]) for r in range(m, n) if r != s)
    dot = a.ring.dot
    z = [0] * n  # the row of Qinv below A
    for t, j in enumerate(piv):
        z[j] = zj[t]
    z[k] = (1 - dot(zj, y)) // det
    q_cols = []
    for j, yj in rest:
        zw = -dot(zj, yj)  # z_J * w_j
        tau = _symmetric(zw, delta)
        z[j] = (zw - tau) // det
        col = [0] * n
        for t, pj in enumerate(piv):
            col[pj] = (yj[t] + tau * y[t]) // det
        col[k], col[j] = tau, 1
        q_cols.append(col)
    _, solve = _back_substitution(e, m)
    r_cols = []
    for i in range(m - 1, -1, -1):
        xi = solve(i)
        u_i = dot(xi, zj)
        rho = _symmetric(u_i, delta)
        ai = (u_i - rho) // det
        if ai:
            z = [zv - ai * v for zv, v in zip(z, a.data[i])]
        col = [0] * n
        for t, pj in enumerate(piv):
            col[pj] = (xi[t] - rho * y[t]) // det
        col[k] = -rho
        r_cols.append(col)
    v = [0] * n
    for t, pj in enumerate(piv):
        v[pj] = y[t]
    v[k] = det
    q_cols = r_cols[::-1] + [v] + q_cols
    ring, trusted = a.ring, RingMatrix._trusted
    eye = _eye(ring, n)
    qinv = list(a.data) + [z] + [eye[j] for j, _ in rest]
    pm = RingMatrix.identity(ring, m)
    return ReductionResult(P=pm, D=trusted(ring, eye[:m]), Q=trusted(ring, zip(*q_cols)),
                           Pinv=pm, Qinv=trusted(ring, qinv))


def _kernel_certificate(a: RingMatrix, elim) -> ReductionResult | None:
    """P*A*Q = diag(I_r, 0) for an N x c integer A, N >= c, of rank
    0 < r < c, from ``_bareiss`` on its rows; or None.  None always where
    A's Smith form is not diag(I_r, 0), and where the kernel basis below or
    a completion is not found.

    Column relations first.  For a column k that took no pivot, the pivot
    rows U of the elimination, upper triangular on the pivot columns J,
    give mu_k = det'*U_J^-1*U e_k by back-substitution: integral by
    Cramer's rule, det' the last pivot, an r x r minor of A, delta =
    |det'|.  So w_k = det'*e_k - sum_t mu_k[t]*e_J[t] has A*w_k = 0, and
    the integer x with A*x = 0 are the sums of t_k*w_k/det' over integer t
    with sum_k t_k*mu_k = 0 mod det'.  With g the gcd of delta and every
    mu entry, delta' = delta/g and nu_k = mu_k/g mod delta', where one
    nu_h has a unit combination mod delta' (``_unit_combination``) and
    every nu_k is c_k*nu_h, that condition is sum_k t_k*c_k = 0 mod delta',
    so the rows (w_k - c_k*w_h)/det', k != h, and w_h/g are a basis K of
    the saturated kernel.  Otherwise the kernel path declines.

    Two completions.  K's maximal minors generate Z, so
    ``_completion_certificate`` completes K to a unimodular [K; z; unit
    rows]; with its rows rotated, V = [z; unit rows; K] and V^-1 is its Q
    with the columns rotated alike.  Then A*V^T = [G | 0], G = A times the
    first r rows of V, N x r of rank r with A's nonzero invariant factors.
    Where those are all 1, the completion of F = G^T gives F*Q_F = [I | 0],
    so Q_F^T*A*V^T = diag(I_r, 0): P = Q_F^T and Q = V^T, their inverses
    the transposes of Qinv_F and V^-1.  Every entry stays near delta, as in
    the completion certificate.  The two completions eliminate K (c - r
    rows) and F (r rows), never A again.
    """
    e, _, piv = elim
    r, c = len(piv), a.cols
    if not r:
        return None
    det = e[r - 1][piv[-1]]
    delta = abs(det)
    pivots = set(piv)
    free = [k for k in range(c) if k not in pivots]
    mu = [[0] * r for _ in free]
    for t in range(r - 1, -1, -1):
        et = e[t]
        p = et[piv[t]]
        later = [(et[piv[s]], s) for s in range(t + 1, r) if et[piv[s]]]
        for k, mk in zip(free, mu):
            acc = det * et[k]
            for u, s in later:
                acc -= u * mk[s]
            mk[t] = acc // p
    g = gcd(delta, *(v for mk in mu for v in mk))
    dp = delta // g
    nu = [[v // g % dp for v in mk] for mk in mu]
    for h, nh in enumerate(nu):
        comb = _unit_combination(nh, dp)
        if comb is not None:
            break
    else:
        return None
    cs = []
    for nk in nu:
        ck = _symmetric(sum(map(operator.mul, comb, nk)), dp)
        if any((x - ck * y) % dp for x, y in zip(nk, nh)):
            return None  # the pivot block has a second invariant factor
        cs.append(ck)
    sign, mh = (1 if det > 0 else -1), mu[h]
    kern = []
    for k, (mk, ck) in enumerate(zip(mu, cs)):
        row = [0] * c
        if k == h:
            row[free[h]] = dp
            for t, j in enumerate(piv):
                row[j] = -sign * mh[t] // g
        else:
            row[free[k]], row[free[h]] = 1, -ck
            for t, j in enumerate(piv):
                row[j] = (ck * mh[t] - mk[t]) // det
        kern.append(row)
    ring, trusted = a.ring, RingMatrix._trusted
    kres = _completion_certificate(trusted(ring, kern))
    if kres is None:
        return None
    s = c - r
    v = kres.Qinv.data[s:] + kres.Qinv.data[:s]
    vinv = [row[s:] + row[:s] for row in kres.Q.data]
    dot = ring.dot
    f = [[dot(row, vt) for row in a.data] for vt in v[:r]]
    fres = _completion_certificate(trusted(ring, f))
    if fres is None:
        return None
    d = [[int(i == j and i < r) for j in range(c)] for i in range(a.rows)]
    return ReductionResult(P=_transpose(fres.Q), D=trusted(ring, d), Q=trusted(ring, zip(*v)),
                           Pinv=_transpose(fres.Qinv), Qinv=trusted(ring, zip(*vinv)))


def _transpose(mat: RingMatrix) -> RingMatrix:
    return RingMatrix._trusted(mat.ring, zip(*mat.data))


def _transposed(t: ReductionResult | None) -> ReductionResult | None:
    """The certificate of A^T from t, A's: Q^T*A^T*P^T = D^T."""
    return t and ReductionResult(
        P=_transpose(t.Q), D=_transpose(t.D), Q=_transpose(t.P),
        Pinv=_transpose(t.Qinv), Qinv=_transpose(t.Pinv))


def _integer_certificate(a: RingMatrix) -> ReductionResult | None:
    """The lattice, completion or kernel certificate of an integer A, or
    None, from one elimination of A's rows (a wide A's columns).  A
    nonsingular square A takes the lattice certificate, a full-rank
    rectangular one the completion certificate (whose second pivot order
    eliminates again), and every other A the kernel certificate."""
    m, n = a.rows, a.cols
    e = _transpose(a) if m < n else a
    elim = _bareiss(e.data)
    if len(elim[2]) < e.cols:
        res = _kernel_certificate(e, elim)
        return res if e is a else _transposed(res)
    if m == n:
        return _lattice_certificate(a, elim)
    return _completion_certificate(a, elim)


def _reduce_bezout(a: RingMatrix) -> ReductionResult:
    if isinstance(a.ring, IntegerRing) and min(a.rows, a.cols) >= LATTICE_MIN_N:
        res = _integer_certificate(a)
        if res is not None:
            return res
    return _sweep_reduce(a)


def _sweep_reduce(a: RingMatrix) -> ReductionResult:
    sweep = _Sweep(a)
    mats = (sweep.d, sweep.p, sweep.pinv, sweep.q, sweep.qinv)
    sweep.ring = sweep.ring.to_work(mats)
    for t in range(min(a.rows, a.cols)):
        _clear_pivot(sweep, t)
    sweep.ring = sweep.ring.from_work(mats)
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

    Rejects a ring without total Bezout certificates (A ⋉ A, alone or as a
    product factor).
    """
    ring = a.ring
    if not ring.bezout_total:
        raise UnsupportedOperationError(
            f"diagonal reduction needs total Bezout certificates; "
            f"{ring.expression()} does not provide them")
    # a function, not a Ring method, while bench/tracing.py wraps _reduce_product by name
    if isinstance(ring, ProductRing):
        return _reduce_product(a)
    return _reduce_bezout(a)


def verify_reduction(a: RingMatrix, result: ReductionResult) -> bool:
    """Recheck a ReductionResult from A and its five matrices alone, no sweep
    state; logs the first failing condition.  A, P, Pinv, Q, Qinv and D's
    diagonal are converted once (``Ring.to_check``), and P*Pinv = I,
    Q*Qinv = I and P*A = D*Qinv are checked on each part (module docstring)."""
    ring = a.ring

    def fail(reason: str) -> bool:
        logger.debug("verify_reduction failed: %s", reason)
        return False

    r = result
    m, n = a.rows, a.cols
    for name, shape in (("P", (m, m)), ("Pinv", (m, m)), ("Q", (n, n)), ("Qinv", (n, n)),
                        ("D", (m, n))):
        if (getattr(r, name).rows, getattr(r, name).cols) != shape:
            return fail(f"{name} has the wrong shape")
    if any(x.ring != ring for x in (r.P, r.D, r.Q, r.Pinv, r.Qinv)):
        return fail("ring mismatch in certificate")
    diag = [r.D.data[i][i] for i in range(min(m, n))]
    parts = ring.to_check((a.data, r.P.data, r.Pinv.data, r.Q.data, r.Qinv.data, (diag,)))
    # One side suffices: over a commutative ring, P*Pinv = I gives
    # det(P)*det(Pinv) = 1, so det(P) is a unit and P has the two-sided
    # inverse adj(P)/det(P); then Pinv = P^-1*(P*Pinv) is that inverse.
    if not all(ck.matmul_equals(p, pinv, _eye(ck, m))
               for ck, (_, p, pinv, _, _, _) in parts):
        return fail("Pinv is not an inverse of P")
    if not all(ck.matmul_equals(q, qinv, _eye(ck, n))
               for ck, (_, _, _, q, qinv, _) in parts):
        return fail("Qinv is not an inverse of Q")
    if not r.D.is_diagonal():
        return fail("D is not diagonal")
    # P*A*Q = D iff P*A = D*Qinv: multiply on the right by Qinv, or back by
    # Q, since Q*Qinv = I holds and so does Qinv*Q = I over a commutative
    # ring.  With D diagonal, row i of D*Qinv is d_i times row i of Qinv
    # (zero past the diagonal), so this costs a third cubic product, P*A,
    # where P*A*Q took two.  A row with d_i = 1 is the Qinv row itself.
    for ck, (at, p, _, _, qinv, (dg,)) in parts:
        d_qinv = [row if d == ck.one else [ck.mul(d, x) for x in row]
                  for d, row in zip(dg, qinv)]
        d_qinv += [[ck.zero] * n] * (m - len(dg))
        if not ck.matmul_equals(p, at, d_qinv):
            return fail("P*A != D*Qinv")
    for i, e in enumerate(diag):
        if ring.canonical_associate(e) != e:
            return fail(f"diagonal entry at position {i} is not its canonical associate")
    for i in range(len(diag) - 1):
        if not ring.divides(diag[i], diag[i + 1]):
            return fail(f"divisibility chain broken at position {i}")
    return True
