"""Column reduction, 2x2 elementary reduction, full diagonal reduction."""

import dataclasses
import itertools
import json
import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    PreconditionError,
    ProductRing,
    RingError,
    RingMismatchError,
    RingMatrix,
    TruncatedSeriesRing,
    column_reduce,
    complete_unimodular,
    determinant,
    diagonal_reduce,
    divides,
    element,
    is_unit,
    make_ring,
    reduce_2x2,
    verify_reduction,
)
from edrkit.cli import EXIT_OK, CommandRequest, dispatch
from edrkit import matrices
from edrkit.matrices import _Sweep, _lattice_certificate, _sweep_reduce
from edrkit.rings import Ring, _pmonic
from conftest import det_oracle, minor_gcd_oracle, random_value

Z = IntegerRing()
G5 = GFPolynomialRing(5)


def zmat(rows):
    return RingMatrix(Z, rows)


def test_determinant_matches_permutation_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        m = zmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert determinant(m) == det_oracle(m)
    m12 = ModularRing(12)
    for _ in range(20):
        m = RingMatrix(m12, [[rng.randrange(12) for _ in range(3)] for _ in range(3)])
        assert determinant(m) == det_oracle(m)


@pytest.mark.parametrize("spec", ["z", "zmod:12", "zmod:360", "gfpoly:5", "product:zmod:6,z",
                                  "text:zmod:4,self", "text:z,q", "series:4"])
def test_determinant_matches_permutation_oracle_on_every_ring_kind(spec, rng):
    ring = make_ring(spec)
    for n in range(1, 7):
        for trial in range(4):
            rows = [[random_value(ring, rng) for _ in range(n)] for _ in range(n)]
            if trial == 0 and n > 1:
                rows[-1] = list(rows[0])  # singular: the determinant must vanish
            m = RingMatrix(ring, rows)
            assert determinant(m) == det_oracle(m)


def test_determinant_matches_sympy_on_dense_integer_matrices(rng):
    sympy = pytest.importorskip("sympy")
    for n in (7, 12, 18, 24):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert determinant(zmat(rows)).value == int(sympy.Matrix(rows).det())


# units other than 1, and zero divisors to stand above them, for the peel shape
_PEEL = {
    "z": ([-1], []),
    "zmod:360": ([7, 11], [2, 3, 24, 45, 180]),
    "gfpoly:5": ([(3,)], []),
    "product:zmod:4,z": ([(3, -1), (1, -1), (3, 1)], [(2, 0), (0, 5), (1, 0), (0, -3)]),
    "text:z,q": ([(-1, Fraction(1, 2))], [(0, Fraction(1, 2)), (0, Fraction(-3))]),
    "text:zmod:4,self": ([(1, 1)], [(2, 1), (0, 3), (2, 0)]),
    "series:4": ([(-1, Fraction(1, 2), 0, 0, 0)], [(0, 1, 0, 0, 0), (0, 0, Fraction(3, 2), 0, 0)]),
}


def _shaped(ring, rng, n, shape):
    """An n x n matrix of the given zero pattern with random entries elsewhere.

    upper/lower: triangular; block: block-diagonal on a random split;
    permutation: one random nonzero entry per row and column; completion: a
    dense first row, a second row nonzero in its first two columns, and
    below them two columns of entries beside an identity block, as
    ``complete_row`` builds; peel: from a random split on, an upper
    triangular block whose diagonal holds units other than 1 and whose
    entries above the diagonal are zero divisors (random values over a
    domain), beside random columns, so that ``determinant`` peels it down
    to the leading split x split block (1x1 at n = 2).
    """
    def value():
        return random_value(ring, rng, 9)

    def above():
        return rng.choice(divisors) if divisors else value()

    split = rng.randint(1, max(1, n - 1))
    perm = rng.sample(range(n), n)
    units, divisors = _PEEL.get(ring.expression(), ([], []))
    rows = []
    for i in range(n):
        if shape == "upper":
            row = [value() if j >= i else ring.zero for j in range(n)]
        elif shape == "lower":
            row = [value() if j <= i else ring.zero for j in range(n)]
        elif shape == "block":
            row = [value() if (i < split) == (j < split) else ring.zero for j in range(n)]
        elif shape == "permutation":
            row = [value() if j == perm[i] else ring.zero for j in range(n)]
        elif shape == "peel":
            row = [value() if j < split else above() if j > i or i < split else
                   rng.choice(units) if j == i else ring.zero for j in range(n)]
        else:
            row = ([value() for _ in range(n)] if i == 0 else
                   [value(), value()] + [ring.zero] * (n - 2) if i == 1 else
                   [value(), value()] + [ring.one if j == i else ring.zero
                                         for j in range(2, n)])
        rows.append(row)
    return RingMatrix(ring, rows)


SHAPES = ["upper", "lower", "block", "permutation", "completion", "peel"]


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "product:zmod:4,z",
                                  "text:z,q", "text:zmod:4,self", "series:4"])
def test_determinant_of_structured_matrices_matches_permutation_oracle(spec, rng):
    # these take the zero-R / zero-S shortcut at some or all steps, mixed with
    # Krylov steps on the grown sparse block; the peel shape peels every
    # trailing unit pivot first
    ring = make_ring(spec)
    for shape in SHAPES:
        for n in range(1, 6):
            m = _shaped(ring, rng, n, shape)
            assert determinant(m) == det_oracle(m), (shape, m.data)


def _counting(monkeypatch, ring, name):
    calls = []
    plain = getattr(ring, name)

    def counted(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(ring, name, counted, raising=False)
    return calls


def test_triangular_determinant_makes_no_krylov_products(monkeypatch, rng):
    ring = IntegerRing()
    calls = _counting(monkeypatch, ring, "dot")
    for shape in ("upper", "lower"):
        m = _shaped(ring, rng, 16, shape)
        diagonal = 1
        for i in range(16):
            diagonal *= m.data[i][i]
        assert determinant(m).value == diagonal
    assert calls == []
    determinant(RingMatrix(ring, [[rng.randint(1, 9) for _ in range(16)] for _ in range(16)]))
    assert calls  # the counter sees the Krylov path


@pytest.mark.parametrize("ring", [IntegerRing(), GFPolynomialRing(5)], ids=["z", "gfpoly:5"])
def test_completed_row_determinant_is_linear_in_the_length(monkeypatch, ring, rng):
    # n - 2 peels of four mul calls each leave a 2x2 block; Berkowitz makes no
    # Krylov product on it, and at most the four dot calls of its one step
    for n in (4, 8, 16):
        while True:
            row = [element(ring, random_value(ring, rng, 9)) for _ in range(n)]
            try:
                res = complete_unimodular(row)
                break
            except PreconditionError:
                continue
        dots, muls = _counting(monkeypatch, ring, "dot"), _counting(monkeypatch, ring, "mul")
        assert determinant(res.matrix) == res.d
        monkeypatch.undo()
        assert len(dots) <= 4, n
        assert len(muls) <= 4 * n, (n, len(muls))


def test_determinant_rejects_non_square():
    with pytest.raises(RingError):
        determinant(zmat([[1, 2, 3], [4, 5, 6]]))


def test_column_reduce_example():
    d, q = column_reduce(element(Z, 12), element(Z, 18))
    assert d.value == 6
    assert q.data == ((-1, -3), (1, 2))
    assert determinant(q).value == 1
    # (12 18) * Q = (6 0)
    row = RingMatrix(Z, [[12, 18]])
    assert (row @ q).data == ((6, 0),)


def test_column_reduce_zero_paths():
    d, q = column_reduce(element(Z, -7), element(Z, 0))
    assert d.value == -7 and q.is_identity()
    d, q = column_reduce(element(Z, 0), element(Z, 0))
    assert d.value == 0 and q.is_identity()


def test_column_reduce_modular():
    m12 = ModularRing(12)
    a, b = element(m12, 8), element(m12, 6)
    d, q = column_reduce(a, b)
    assert d.value == 2
    row = RingMatrix(m12, [[8, 6]])
    assert (row @ q).data == ((2, 0),)
    assert is_unit(determinant(q))


def test_reduce_2x2_identity_fast_path():
    a = zmat([[1, 0], [0, 1]])
    res = reduce_2x2(a)
    assert res.P.is_identity() and res.Q.is_identity() and res.D == a


def test_reduce_2x2_example():
    a = zmat([[2, 0], [3, 5]])
    res = reduce_2x2(a)
    assert [e.value for e in res.D.diagonal()] == [1, 10]
    assert verify_reduction(a, res)
    # minor-gcd oracle: d1 = gcd of entries, d1*d2 = |det|
    assert minor_gcd_oracle(a, 1) == 1
    assert abs(det_oracle(a).value) == 10


def test_reduce_2x2_gfpoly_example():
    a = RingMatrix(G5, [[(0, 1), ()], [(1, 1), (2, 1)]])
    res = reduce_2x2(a)
    diag = [e.value for e in res.D.diagonal()]
    assert diag[0] == (1,)
    assert diag[1] == (0, 2, 1)  # monic associate of x(x+2)
    assert verify_reduction(a, res)


def test_reduce_2x2_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        reduce_2x2(zmat([[2, 0], [2, 2]]))
    with pytest.raises(PreconditionError):
        reduce_2x2(zmat([[2, 1], [3, 5]]))


def test_reduce_2x2_degenerate_pairs():
    # zero entries meet the (0, 0) pair, whose certificate is the identity
    for rows in ([[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
                 [[1, 0], [0, 5]], [[-1, 0], [7, 0]]):
        a = zmat(rows)
        res = reduce_2x2(a)
        assert verify_reduction(a, res), rows
    ring = ModularRing(6)
    a = RingMatrix(ring, [[1, 0], [0, 0]])
    res = reduce_2x2(a)
    assert verify_reduction(a, res)


def test_reduce_2x2_modular_exhaustive():
    ring = ModularRing(6)
    count = 0
    for a, b, c in itertools.product(range(6), repeat=3):
        if math.gcd(math.gcd(a, b), math.gcd(c, 6)) != 1:
            continue
        m = RingMatrix(ring, [[a, 0], [b, c]])
        res = reduce_2x2(m)
        assert verify_reduction(m, res), (a, b, c)
        assert res.D.data[0][0] == 1
        count += 1
    assert count == 182


def test_reduce_2x2_factors_audit(rng):
    checked = 0
    while checked < 60:
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        checked += 1
        mat = zmat([[a, 0], [b, c]])
        _audit_2x2(mat, reduce_2x2(mat))


def _audit_2x2(mat, res):
    """A reduce_2x2 result against its recorded factors, over any ring.

    D = diag(1, delta) with delta an associate of det A; every factor is
    invertible by its recorded inverse; and the closed-form P, Q, Pinv and
    Qinv are the factors composed: P = L_k...L_1, Q = R_1...R_k,
    Pinv = L_1^-1...L_k^-1 and Qinv = R_k^-1...R_1^-1.
    """
    ring = mat.ring
    assert verify_reduction(mat, res)
    assert res.D.data[0][0] == ring.one
    delta, det_a = res.D.data[1][1], det_oracle(mat).value
    assert ring.divides(delta, det_a) and ring.divides(det_a, delta)
    left, right = ([(RingMatrix(ring, f), RingMatrix(ring, finv)) for f, finv in factors]
                   for factors in (res.left_factors, res.right_factors))
    for fac, inv in left + right:
        assert (fac @ inv).is_identity() and (inv @ fac).is_identity()
    p = pinv = q = qinv = RingMatrix.identity(ring, 2)
    for fac, inv in left:
        p, pinv = fac @ p, pinv @ inv
    for fac, inv in right:
        q, qinv = q @ fac, inv @ qinv
    assert p == res.P and q == res.Q
    assert pinv == res.Pinv and qinv == res.Qinv
    assert (res.P @ mat @ res.Q) == res.D


def _comaximal_triples(ring, rng, count):
    """Edge triples with b = 0, c = 0 or both, then random comaximal ones."""
    one, zero, m1 = ring.one, ring.zero, ring.neg(ring.one)
    triples = [(one, zero, zero), (m1, zero, zero), (zero, one, zero), (zero, m1, one),
               (one, one, zero), (m1, zero, one)]
    while len(triples) < count:
        abc = [ring.normalize(random_value(ring, rng, 20)) for _ in range(3)]
        if ring.comaximal(abc):
            triples.append(abc)
    return [RingMatrix(ring, [[a, zero], [b, c]]) for a, b, c in triples]


@pytest.mark.parametrize("spec", ["zmod:360", "gfpoly:5", "product:zmod:4,z", "text:z,q"])
def test_reduce_2x2_factors_audit_on_every_bezout_ring(spec, rng):
    for mat in _comaximal_triples(make_ring(spec), rng, 40):
        _audit_2x2(mat, reduce_2x2(mat))


class _NegatedBezout(IntegerRing):
    """Z whose certificates carry the generator -gcd: still a valid refined
    certificate, but the unit ideal comes back as -1, not 1."""

    def bezout_raw(self, a, b):
        return tuple(-v for v in super().bezout_raw(a, b))

    egcd = Ring.egcd  # the head of these certificates, not Z's own extended Euclid

    def canonical_associate(self, a):
        return abs(a)


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "product:zmod:4,z", "text:z,q"])
def test_reduce_2x2_multiplies_matrices_only_for_d(spec, monkeypatch, rng):
    # P, Pinv, Q and Qinv are closed forms; only D = (P*A)*Q takes 2x2 products
    from edrkit import matrices

    calls = []
    mul2 = matrices._mul2
    monkeypatch.setattr(matrices, "_mul2", lambda *args: calls.append(1) or mul2(*args))
    for mat in _comaximal_triples(make_ring(spec), rng, 20):
        calls.clear()
        _audit_2x2(mat, reduce_2x2(mat))
        assert len(calls) <= 2


def test_reduce_2x2_scales_a_unit_generator_to_one(rng):
    ring = _NegatedBezout()
    for mat in _comaximal_triples(ring, rng, 30):
        _audit_2x2(mat, reduce_2x2(mat))


_CHAIN_REPAIRS = {  # diag(a, c) with a not dividing c: diagonal_reduce calls reduce_2x2
    "z": [[2, 0], [0, 3]],
    "zmod:360": [[8, 0], [0, 9]],
    "gfpoly:5": [[(0, 1), ()], [(), (1, 1)]],
    "product:zmod:4,z": [[(2, 2), (0, 0)], [(0, 0), (3, 3)]],
    "text:z,q": [[(2, 0), (0, 0)], [(0, 0), (3, 0)]],
    "series:4": [[(0, 2, 0, 0, 0), (0, 0, 0, 0, 0)], [(0, 0, 0, 0, 0), (0, 3, 0, 0, 0)]],
}


@pytest.mark.parametrize("spec", sorted(_CHAIN_REPAIRS))
def test_reduce_2x2_and_diagonal_reduce_build_no_validated_matrix_or_certificate(
        spec, monkeypatch, rng):
    from edrkit import matrices
    from edrkit.rings import BezoutCertificate

    ring = make_ring(spec)
    lower = _comaximal_triples(ring, rng, 12)
    full = []
    if ring.bezout_total:
        full = [RingMatrix(ring, _CHAIN_REPAIRS[spec])] + [
            RingMatrix(ring, [[random_value(ring, rng, 20) for _ in range(3)] for _ in range(3)])
            for _ in range(4)]
    built = []
    for cls in (RingMatrix, BezoutCertificate):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    repairs = []
    reduce = matrices.reduce_2x2

    def counted_reduce(a):
        repairs.append(a)
        return reduce(a)

    monkeypatch.setattr(matrices, "reduce_2x2", counted_reduce)
    for mat in lower:
        reduce(mat)
    for mat in full:
        diagonal_reduce(mat)
    assert built == []
    assert bool(repairs) == bool(full)


def test_diagonal_reduce_examples():
    a = zmat([[2, 4], [6, 8]])
    res = diagonal_reduce(a)
    assert [e.value for e in res.D.diagonal()] == [2, 4]
    assert verify_reduction(a, res)

    row = zmat([[4, 6]])
    res = diagonal_reduce(row)
    assert res.D.data == ((2, 0),)
    assert verify_reduction(row, res)

    zeros = RingMatrix.zeros(Z, 3, 2)
    res = diagonal_reduce(zeros)
    assert res.D == zeros and res.P.is_identity() and res.Q.is_identity()
    assert verify_reduction(zeros, res)


def test_diagonal_reduce_minor_gcd_property(rng):
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = zmat([[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)])
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        diag = [e.value for e in res.D.diagonal()]
        prod = 1
        for k in range(1, min(m, n) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == minor_gcd_oracle(a, k)


def test_diagonal_reduce_idempotence():
    a = zmat([[2, 0, 0], [0, 6, 0], [0, 0, 0]])
    res = diagonal_reduce(a)
    assert res.D == a
    assert res.P.is_identity() and res.Q.is_identity()


def test_modular_agrees_with_integer_lift_exhaustively(rng):
    ring = ModularRing(6)
    for vals in itertools.product(range(6), repeat=4):
        a = RingMatrix(ring, [[vals[0], vals[1]], [vals[2], vals[3]]])
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        lifted = zmat([[vals[0], vals[1]], [vals[2], vals[3]]])
        lres = diagonal_reduce(lifted)
        expected = [math.gcd(e.value, 6) % 6 for e in lres.D.diagonal()]
        assert [e.value for e in res.D.diagonal()] == expected
    ring = ModularRing(360)
    for size in [3] * 20 + [4] * 20:
        rows = [[rng.randrange(360) * rng.choice([0, 1, 2, 6]) % 360 for _ in range(size)]
                for _ in range(size)]
        a = RingMatrix(ring, rows)
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        expected = [math.gcd(e.value, 360) % 360 for e in diagonal_reduce(zmat(rows)).D.diagonal()]
        assert [e.value for e in res.D.diagonal()] == expected, rows


def test_product_ring_reduction(rng):
    prod = ProductRing([ModularRing(4), Z])
    for _ in range(25):
        a = RingMatrix(prod, [[random_value(prod, rng, 9) for _ in range(3)]
                              for _ in range(2)])
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)


def test_trivial_extension_reduction(rng):
    te = make_ring("text:z,q")
    for _ in range(40):
        a = RingMatrix(te, [[random_value(te, rng, 20) for _ in range(2)]
                            for _ in range(2)])
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)


def test_gfpoly_reduction(rng):
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = RingMatrix(G5, [[random_value(G5, rng) for _ in range(n)]
                            for _ in range(m)])
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        diag = [e.value for e in res.D.diagonal()]
        for v in diag:
            assert v == () or v[-1] == 1  # canonical associates are monic


@pytest.mark.parametrize("p", [2, 5, 7])
def test_gfpoly_diagonal_matches_sympy_invariant_factors(p, rng):
    pytest.importorskip("sympy")
    from sympy import GF, Symbol
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    ring = GFPolynomialRing(p)
    dom = GF(p)[Symbol("x")]

    def monic(f):  # sympy's factors come out non-monic
        coeffs = [int(c) % p for c in reversed(f.to_dense())] if f else []
        return _pmonic(ring.normalize(coeffs), p)

    shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (5, 2), (3, 6), (6, 4)]
    for m, n in shapes:
        for variant in ("random", "repeated row", "common factor"):
            rows = [[ring.normalize([rng.randrange(p) for _ in range(rng.randint(0, 3))])
                     for _ in range(n)] for _ in range(m)]
            if variant == "repeated row":  # a zero invariant factor when square
                rows[-1] = rows[0]
            elif variant == "common factor":  # every invariant factor a multiple of f
                f = ring.normalize([rng.randrange(p) for _ in range(2)] + [1])
                rows = [[ring.mul(f, v) for v in row] for row in rows]
            res = diagonal_reduce(RingMatrix(ring, rows))
            m_sympy = DomainMatrix([[dom.ring.from_list(list(reversed(v))) for v in row]
                                    for row in rows], (m, n), dom)
            expected = [monic(f) for f in invariant_factors(m_sympy)]
            assert [e.value for e in res.D.diagonal()] == expected, (p, m, n, variant)


def test_series_matrices_reduce():
    """diag(2x, 3x), where 2x does not divide 3x, has the diagonal (x, 6x),
    as the gcd of the entries is x and the determinant 6x^2; [[x, x^2],
    [2x, 3x^2]] has the gcd x and the determinant x^3; the row (2, 3 + x)
    generates R."""
    s = TruncatedSeriesRing(4)
    x, x2 = (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
    for rows, diag in [([[(0, 2, 0, 0, 0), s.zero], [s.zero, (0, 3, 0, 0, 0)]],
                        [x, (0, 6, 0, 0, 0)]),
                       ([[x, x2], [(0, 2, 0, 0, 0), (0, 0, 3, 0, 0)]], [x, x2]),
                       ([[(2, 0, 0, 0, 0), (3, 1, 0, 0, 0)]], [s.one])]:
        a = RingMatrix(s, rows)
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        assert [e.value for e in res.D.diagonal()] == [s.normalize(v) for v in diag]


def test_verify_reduction_detects_tampering(caplog):
    a = zmat([[2, 4], [6, 8]])
    res = diagonal_reduce(a)
    assert verify_reduction(a, res)
    from edrkit.matrices import ReductionResult
    eye2, eye3 = RingMatrix.identity(Z, 2), RingMatrix.identity(Z, 3)
    shear = zmat([[1, 1], [0, 1]])
    diag23 = zmat([[2, 0], [0, 3]])

    # -P, -D in row 0 and -Pinv in column 0 still give P*A*Q = D and the
    # chain -2 | 4, but D[0][0] = -2 is not the canonical associate 2
    def negate(rows, cells):
        return RingMatrix(Z, [[-v if (i, j) in cells else v for j, v in enumerate(row)]
                              for i, row in enumerate(rows)])
    row0, col0 = {(0, 0), (0, 1)}, {(0, 0), (1, 0)}
    negated = ReductionResult(P=negate(res.P.data, row0), D=negate(res.D.data, row0),
                              Q=res.Q, Pinv=negate(res.Pinv.data, col0), Qinv=res.Qinv)
    # each certificate breaks one condition; every condition is broken once
    cases = [
        (a, dataclasses.replace(res, P=eye3), "P has the wrong shape"),
        (a, dataclasses.replace(res, Q=eye3), "Q has the wrong shape"),
        (a, dataclasses.replace(res, D=zmat([[2, 0, 0], [0, 4, 0]])), "D has the wrong shape"),
        (a, dataclasses.replace(res, Pinv=RingMatrix.identity(make_ring("zmod:7"), 2)),
         "ring mismatch in certificate"),
        (a, dataclasses.replace(res, Pinv=shear), "Pinv is not an inverse of P"),
        (a, dataclasses.replace(res, Qinv=shear), "Qinv is not an inverse of Q"),
        (a, dataclasses.replace(res, D=zmat([[2, 1], [0, 4]])), "D is not diagonal"),
        (a, dataclasses.replace(res, D=zmat([[2, 0], [0, 5]])), "P*A != D*Qinv"),
        (a, negated, "diagonal entry at position 0 is not its canonical associate"),
        # P*A*Q = D, all canonical, but 2 does not divide 3
        (diag23, ReductionResult(P=eye2, D=diag23, Q=eye2, Pinv=eye2, Qinv=eye2),
         "divisibility chain broken at position 0"),
    ]
    for m, cert, reason in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="edrkit.matrices"):
            assert not verify_reduction(m, cert), reason
        assert caplog.messages == [f"verify_reduction failed: {reason}"]


_A35 = [[2, 4, 6, 8, 10], [3, 1, 4, 1, 5], [9, 2, 6, 5, 3]]


def _rect_case(spec, shape):
    ring = make_ring(spec)
    rows = _A35 if shape == "3x5" else [list(col) for col in zip(*_A35)]
    a = RingMatrix(ring, rows)
    res = diagonal_reduce(a)
    assert verify_reduction(a, res)
    return ring, a, res


def _changed(m, cells):
    """m with the entry at each (i, j) of cells replaced by f(entry)."""
    rows = [list(row) for row in m.data]
    for (i, j), f in cells.items():
        rows[i][j] = f(rows[i][j])
    return RingMatrix(m.ring, rows)


def _row_shear(res, target, source):
    """P <- E*P, D <- E*D, Pinv <- Pinv*E^-1 for E = I + e_target*e_source^T.

    The result is still an exact equivalence P*A*Q = D with P*Pinv = I."""
    ring = res.P.ring

    def add_row(m):
        rows = [list(row) for row in m.data]
        rows[target] = [ring.add(x, y) for x, y in zip(rows[target], rows[source])]
        return RingMatrix(ring, rows)

    pinv = [list(row) for row in res.Pinv.data]
    for row in pinv:  # column source -= column target
        row[source] = ring.sub(row[source], row[target])
    return dict(P=add_row(res.P), D=add_row(res.D), Pinv=RingMatrix(ring, pinv))


@pytest.mark.parametrize("spec", ["z", "zmod:360"])
@pytest.mark.parametrize("shape", ["3x5", "5x3"])
def test_verify_reduction_rejects_rectangular_tampering(spec, shape):
    ring, a, res = _rect_case(spec, shape)
    m, n = a.rows, a.cols

    def bump(v):
        return ring.add(v, ring.one)

    # a changed entry of A
    assert not verify_reduction(_changed(a, {(m - 1, n - 1): bump}), res)
    # a changed last diagonal entry of D, 2 -> 4: canonical, and 1 | 4 keeps the chain
    last = min(m, n) - 1
    bad_d = _changed(res.D, {(last, last): lambda v: ring.mul(v, ring.normalize(2))})
    assert [e.value for e in bad_d.diagonal()] == [1, 1, 4]
    assert not verify_reduction(a, dataclasses.replace(res, D=bad_d))
    # a changed entry in the last row of Qinv: past the diagonal's reach when m < n
    bad_qinv = _changed(res.Qinv, {(n - 1, 0): bump})
    assert not verify_reduction(a, dataclasses.replace(res, Qinv=bad_qinv))
    # a changed row of P alone, and the last row of P sheared with its inverse kept
    # exact, which leaves P*A nonzero in a row where D is zero when m > n
    bad_p = _changed(res.P, {(m - 1, j): bump for j in range(m)})
    assert not verify_reduction(a, dataclasses.replace(res, P=bad_p))
    sheared = _row_shear(res, m - 1, 0)
    assert not verify_reduction(
        a, dataclasses.replace(res, P=sheared["P"], Pinv=sheared["Pinv"]))


@pytest.mark.parametrize("spec", ["z", "zmod:360"])
@pytest.mark.parametrize("shape", ["3x5", "5x3"])
def test_verify_reduction_reports_a_non_diagonal_equivalence(spec, shape, caplog):
    # row 0 += row 1 in P and D keeps P*A*Q = D exact but puts d_1 off the
    # diagonal; the D*Qinv shortcut assumes a diagonal D, so D is checked first
    ring, a, res = _rect_case(spec, shape)
    sheared = _row_shear(res, 0, 1)
    assert (sheared["P"] @ a) @ res.Q == sheared["D"]
    with caplog.at_level(logging.DEBUG, logger="edrkit.matrices"):
        assert not verify_reduction(a, dataclasses.replace(res, **sheared))
    assert "D is not diagonal" in caplog.text


def test_public_constructor_validates_every_entry():
    z5 = ModularRing(5)
    with pytest.raises(RingMismatchError):
        RingMatrix(Z, [[1, element(z5, 2)]])
    for bad in (True, False, 1.0, 2.5):
        with pytest.raises(RingError):
            RingMatrix(Z, [[1, bad]])
        with pytest.raises(RingError):
            RingMatrix.from_json({"rows": [[1, bad]]}, Z)
    with pytest.raises(RingMismatchError):
        RingMatrix(Z, [[1]]) @ RingMatrix(z5, [[1]])
    with pytest.raises(RingMismatchError):
        RingMatrix(z5, [[1, 2]]) @ RingMatrix(ModularRing(7), [[1], [2]])
    # the entries a product computes are normal values of its ring
    prod = RingMatrix(z5, [[4, 3]]) @ RingMatrix(z5, [[4], [4]])
    assert prod == RingMatrix(z5, [[28]]) and prod.data == ((3,),)


def test_divisibility_chain_everywhere(rng):
    for _ in range(40):
        m = rng.randint(2, 5)
        n = rng.randint(2, 5)
        a = zmat([[rng.randint(-8, 8) * rng.choice([0, 1, 1]) for _ in range(n)]
                  for _ in range(m)])
        res = diagonal_reduce(a)
        diag = [e.value for e in res.D.diagonal()]
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0


def _dense(rng, m, n, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def _transform_bits(res) -> int:
    return max(abs(v).bit_length()
               for m in (res.P, res.Q, res.Pinv, res.Qinv) for row in m.data for v in row)


def test_diagonal_reduce_matches_sympy_invariant_factors(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    shapes = [(n, n) for n in (2, 5, 8, 12, 16, 20, 24)] + [(3, 9), (9, 3), (10, 16), (16, 10)]
    for m, n in shapes:
        rows = _dense(rng, m, n)
        if m == n == 12:
            rows[-1] = [2 * v for v in rows[0]]  # singular: a zero invariant factor
        a = zmat(rows)
        res = diagonal_reduce(a)
        assert verify_reduction(a, res)
        expected = [abs(int(v)) for v in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        assert [e.value for e in res.D.diagonal()] == expected, (m, n)


def test_bench_fixed_22x22_reduces_and_verifies():
    # the fixed inputs of the snf-z-dense benchmark, drawn in the same order
    fixed = random.Random("snf-z-dense/fixed")
    for m, n in [(14, 14), (16, 16), (18, 18), (20, 20), (12, 20), (20, 12)]:
        _dense(fixed, m, n)
    payload = json.dumps({"rows": _dense(fixed, 22, 22)})
    code, out = dispatch(CommandRequest(command="snf", ring="z", payload=payload))
    assert code == EXIT_OK, out[:200]
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("n, bound", [(24, 1_250), (32, 2_200)])
def test_transform_growth_stays_bounded(n, bound):
    # dense, entries in [-50, 50], seed 1: the smallest-pivot remainder sweep
    # reads 1,109 and 1,929 bits here; the first-nonzero Bezout sweep reached
    # 24,487 bits at 24x24 for a 155-bit diagonal.  diagonal_reduce gives
    # these inputs the lattice certificate, so the sweep is called directly.
    a = zmat(_dense(random.Random(1), n, n))
    res = _sweep_reduce(a)
    assert verify_reduction(a, res)
    assert _transform_bits(res) <= bound


def test_lattice_certificate_stays_below_delta_at_64x64():
    # the sweep's transforms reach 8,158 bits here for a 459-bit delta
    a = zmat(_dense(random.Random(1), 64, 64))
    res = diagonal_reduce(a)
    assert verify_reduction(a, res)
    delta = res.D.data[-1][-1]
    assert [res.D.data[i][i] for i in range(63)] == [1] * 63
    assert delta.bit_length() == 459
    assert _transform_bits(res) <= delta.bit_length()
    assert max(abs(v) for row in res.Qinv.data for v in row).bit_length() <= 8


def test_lattice_certificate_matches_the_sweep_and_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(7)
    answered = 0
    for n in range(4, 17):
        for bound in (50, 3):
            rows = _dense(rng, n, n, bound)
            a = zmat(rows)
            res = _lattice_certificate(a)
            if res is None:
                continue
            answered += 1
            assert verify_reduction(a, res)
            assert res.D == _sweep_reduce(a).D, n
            expected = [abs(int(v)) for v in invariant_factors(sympy.Matrix(rows),
                                                               domain=sympy.ZZ)]
            assert [e.value for e in res.D.diagonal()] == expected, n
            assert diagonal_reduce(a) == res
    assert answered >= 20


def test_lattice_certificate_closed_forms():
    # a zero leading entry takes a row swap; the determinant is negative
    a = zmat([[0, 1, 2, 3], [2, 5, 0, 7], [1, 0, 4, 1], [3, 1, 1, 0]])
    res = _lattice_certificate(a)
    delta = res.D.data[-1][-1]
    assert delta == abs(determinant(a).value) and determinant(a).value < 0
    assert verify_reduction(a, res)
    x = res.P.data[-1]
    k = x.index(1)
    # P: the identity rows other than k, then x; Qinv: the rows of A other
    # than k, then x*A/delta; P and Pinv at most delta/2, Q at most adj(A)
    others = [j for j in range(4) if j != k]
    assert res.P.data[:-1] == tuple(tuple(int(c == j) for c in range(4)) for j in others)
    assert res.Qinv.data[:-1] == tuple(a.data[j] for j in others)
    assert all(2 * abs(v) <= delta for m in (res.P, res.Pinv) for row in m.data for v in row)
    minors = [abs(determinant(zmat([[v for c, v in enumerate(row) if c != j]
                                    for r, row in enumerate(a.data) if r != i])).value)
              for i in range(4) for j in range(4)]
    assert max(abs(v) for row in res.Q.data for v in row) <= max(minors)
    # a unimodular input: D = I, P = I, Qinv = A, Q = A^-1
    u = zmat([[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, -1, 2], [0, 0, 0, 1]])
    res = _lattice_certificate(u)
    assert res.D.is_identity() and res.P.is_identity() and res.Pinv.is_identity()
    assert res.Qinv == u and verify_reduction(u, res)


def _fixed_bench_matrix(m, n):
    # the fixed inputs of the snf-z-dense benchmark, drawn in the same order
    fixed = random.Random("snf-z-dense/fixed")
    for shape in [(14, 14), (16, 16), (18, 18), (20, 20), (12, 20), (20, 12), (22, 22)]:
        rows = _dense(fixed, *shape)
        if shape == (m, n):
            return rows
    raise ValueError((m, n))


def _sweep_inputs():
    rng = random.Random(3)
    b, c = _dense(rng, 12, 6, 7), _dense(rng, 6, 12, 7)
    rank6 = [[sum(b[i][k] * c[k][j] for k in range(6)) for j in range(12)] for i in range(12)]
    return {"fixed 22x22": _fixed_bench_matrix(22, 22),
            "seed-1 48x48": _dense(random.Random(1), 48, 48),
            "rank-6 12x12": rank6,
            "8x16": _dense(rng, 8, 16),
            "16x8": _dense(rng, 16, 8)}


@pytest.mark.parametrize("name", list(_sweep_inputs()))
def test_inputs_the_lattice_declines_keep_the_sweeps_documents(name, monkeypatch):
    rows = _sweep_inputs()[name]
    a = zmat(rows)
    if a.rows == a.cols:
        assert _lattice_certificate(a) is None  # singular or not cyclic
    req = CommandRequest(command="snf", ring="z", payload=json.dumps({"rows": rows}))
    doc = dispatch(req)
    monkeypatch.setattr(matrices, "LATTICE_MIN_N", 10**9)
    assert doc == dispatch(req)
    assert doc[0] == EXIT_OK and json.loads(doc[1])["verified"] is True


def test_a_changed_kernel_row_fails_verification():
    a = zmat(_dense(random.Random(2), 8, 8))
    res = _lattice_certificate(a)
    assert verify_reduction(a, res)
    x = list(res.P.data[-1])
    j = next(j for j, v in enumerate(x) if v != 1)
    x[j] += 1
    p = RingMatrix._trusted(Z, res.P.data[:-1] + (tuple(x),))
    assert not verify_reduction(a, dataclasses.replace(res, P=p))
    # with Pinv kept its inverse, P*A = D*Qinv is what fails
    k = res.P.data[-1].index(1)
    col = [i for i in range(8) if i != k].index(j)
    pinv = [list(row) for row in res.Pinv.data]
    pinv[k][col] -= 1
    tampered = dataclasses.replace(res, P=p, Pinv=RingMatrix._trusted(Z, pinv))
    assert (p @ tampered.Pinv).is_identity()
    assert not verify_reduction(a, tampered)


def test_lattice_documents_repeat_byte_for_byte():
    payload = json.dumps({"rows": _dense(random.Random(4), 10, 10)})
    req = CommandRequest(command="snf", ring="z", payload=payload)
    first = dispatch(req)
    assert first[0] == EXIT_OK and first == dispatch(req)


def test_dense_96x96_snf_answers():
    # the sweep's certificate passes the 4,300-digit int/str limit here
    payload = json.dumps({"rows": _dense(random.Random(1), 96, 96)})
    code, out = dispatch(CommandRequest(command="snf", ring="z", payload=payload))
    assert code == EXIT_OK, out[:200]
    assert json.loads(out)["verified"] is True


def test_nearest_remainder_worst_case_past_ten_thousand_passes():
    # consecutive Pell numbers: every nearest quotient is 2, so the row
    # (P_k, P_k-1) takes k passes, here about 11,000
    a, b = 1, 0
    while a.bit_length() < 14_000:
        a, b = 2 * a + b, a
    m = zmat([[a, b]])
    res = diagonal_reduce(m)
    assert res.D.data == ((1, 0),)
    assert verify_reduction(m, res)


def _unimodular_2x2(ring, a, b):
    """[[1, a], [0, 1]] * [[1, 0], [b, 1]] and its inverse, over any ring."""
    t = ((ring.add(ring.one, ring.mul(a, b)), a), (b, ring.one))
    tinv = ((ring.one, ring.neg(a)), (ring.neg(b), t[0][0]))
    return t, tinv


@pytest.mark.parametrize("spec", ["z", "zmod:360", "gfpoly:5", "text:z,q",
                                  "product:zmod:4,z"])
def test_sweep_kernels_keep_the_certificate(spec, rng):
    ring = make_ring(spec)
    m, n = 4, 5
    a = RingMatrix(ring, [[random_value(ring, rng, 9) for _ in range(n)] for _ in range(m)])
    sweep = _Sweep(a)
    minus_one = ring.neg(ring.one)
    for step in range(70):
        q = random_value(ring, rng, 3)
        if step % 7 == 0:
            i, k = rng.sample(range(m), 2)
            ring.axpy(sweep.d[i], sweep.d[k], q)
            sweep.shear_p(i, k, q)
        elif step % 7 == 1:
            j, k = rng.sample(range(n), 2)
            ring.col_axpy(sweep.d, j, k, q)
            sweep.shear_q(j, k, q)
        elif step % 7 == 2:
            sweep.swap_rows(*rng.sample(range(m), 2))
        elif step % 7 == 3:
            sweep.swap_cols(*rng.sample(range(n), 2))
        elif step % 7 == 4:
            sweep.rows_2x2(*rng.sample(range(m), 2),
                           *_unimodular_2x2(ring, q, random_value(ring, rng, 3)))
        elif step % 7 == 5:
            sweep.cols_2x2(*rng.sample(range(n), 2),
                           *_unimodular_2x2(ring, q, random_value(ring, rng, 3)))
        else:
            sweep.scale_row(rng.randrange(m), minus_one, minus_one)
        if step % 10 == 9:
            res = sweep.result()
            assert res.P @ a @ res.Q == res.D, step
            for t, tinv in ((res.P, res.Pinv), (res.Q, res.Qinv)):
                assert (t @ tinv).is_identity() and (tinv @ t).is_identity(), step
    # a zero multiplier leaves every matrix as it was
    before = sweep.result()
    ring.axpy(sweep.d[0], sweep.d[1], ring.zero)
    sweep.shear_p(0, 1, ring.zero)
    ring.col_axpy(sweep.d, 0, 1, ring.zero)
    sweep.shear_q(0, 1, ring.zero)
    assert sweep.result() == before


# -- the series work form: the pivots cleared on integer images over one L ------

def _fraction_sweep(monkeypatch):
    """Send Z ⋉ Q and every series ring through the Ring defaults: the sweep
    on Fraction coefficients."""
    from edrkit.rings import Ring
    monkeypatch.setattr(TruncatedSeriesRing, "to_work", Ring.to_work)


@st.composite
def _series_matrices(draw, order, most=5):
    """Matrices up to most x most over series:order (Z ⋉ Q at order 1) with
    denominators 1-12, many entries of zero constant term and zero rows."""
    rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    coeffs = st.one_of(st.just([Fraction(0)] * order),
                       st.lists(rational, min_size=order, max_size=order))
    value = st.builds(lambda c, qs: (c, *qs),
                      st.one_of(st.just(0), st.integers(-30, 30)), coeffs)
    m, n = draw(st.integers(1, most)), draw(st.integers(1, most))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
        rows[i] = [(0,) + (Fraction(0),) * order] * n
    return rows


def test_work_form_sweep_equals_the_fraction_sweep(monkeypatch):
    """The integer work form gives the five matrices of the sweep on Fraction
    coefficients, for orders 1 (Z ⋉ Q and series:1), 2, 4 and 8; on each,
    some quotients rescale the coefficients of x^i by m^i."""
    from edrkit import rings
    rescale = rings._SeriesWork._rescale
    for spec, examples, most in (("text:z,q", 150, 5), ("series:1", 40, 5),
                                 ("series:2", 100, 4), ("series:4", 60, 4), ("series:8", 30, 3)):
        ring, rescales = make_ring(spec), []
        monkeypatch.setattr(rings._SeriesWork, "_rescale",
                            lambda self, m: rescales.append(m) or rescale(self, m))

        @settings(derandomize=True, max_examples=examples, deadline=None, database=None)
        @given(rows=_series_matrices(ring.order, most))
        def check(rows):
            a = RingMatrix(ring, rows)
            res = diagonal_reduce(a)
            with pytest.MonkeyPatch.context() as mp:
                _fraction_sweep(mp)
                expected = diagonal_reduce(a)
            assert res == expected
            assert verify_reduction(a, res)

        check()
        assert rescales, spec


def test_work_ring_kernels_match_the_ring_kernels():
    from test_rings import _quotient_samples
    te = make_ring("text:z,q")
    samples = _quotient_samples(te)

    def work_of(*values):
        mats = [[list(values)]]
        return te.to_work(mats), mats[0][0]

    def back(work, v):
        return (v[0], Fraction(v[1], work.l))

    for a in samples:
        work, (wa,) = work_of(a)
        size = work.size(wa)
        assert (size[0], Fraction(size[1], work.l) if size[0] else size[1]) == te.size(a), a
        for b in samples:
            if b == te.zero:
                continue
            work, (wa, wb) = work_of(a, b)
            q = work.nearest_quotient(wa, wb)
            assert back(work, q) == te.nearest_quotient(a, b), (a, b)
            for c in samples[::3]:
                work, (wa, wb, wc) = work_of(a, b, c)
                assert back(work, work.fma(wa, wb, wc)) == te.fma(a, b, c), (a, b, c)


# Inputs whose nearest quotients rescale the work form: k = 2 in a row,
# k = 5 under a module-only entry, and a rescale in the middle of a pass
# (its second quotient), under which a pivot held for the whole pass is stale.
_RESCALES = {
    '{"rows":[[[2,0],[2,1]]]}':
        '{"D":[[[2,0],[0,0]]],"P":[[[1,0]]],"Pinv":[[[1,0]]],"Q":[[[1,0],[-1,"-1/2"]],'
        '[[0,0],[1,0]]],"Qinv":[[[1,0],[1,"1/2"]],[[0,0],[1,0]]],"ring":"text:z,q",'
        '"verified":true}',
    '{"rows":[[[0,"1/3"],[0,"1/2"]],[[0,1],[5,0]]]}':
        '{"D":[[[5,0],[0,0]],[[0,0],[0,"1/3"]]],"P":[[[0,0],[1,0]],[[1,0],[0,"-1/10"]]],'
        '"Pinv":[[[0,"1/10"],[1,0]],[[1,0],[0,0]]],"Q":[[[0,0],[1,0]],[[1,0],[0,"-1/5"]]],'
        '"Qinv":[[[0,"1/5"],[1,0]],[[1,0],[0,0]]],"ring":"text:z,q","verified":true}',
    '{"rows":[[[3,"1/3"],[3,"-1/2"],[6,0]]]}':
        '{"D":[[[3,0],[0,0],[0,0]]],"P":[[[1,"-1/9"]]],"Pinv":[[[1,"1/9"]]],'
        '"Q":[[[1,0],[-1,"5/18"],[-2,"2/9"]],[[0,0],[1,0],[0,0]],[[0,0],[0,0],[1,0]]],'
        '"Qinv":[[[1,0],[1,"-5/18"],[2,"-2/9"]],[[0,0],[1,0],[0,0]],[[0,0],[0,0],[1,0]]],'
        '"ring":"text:z,q","verified":true}',
}


@pytest.mark.parametrize("payload", sorted(_RESCALES))
def test_rescaling_inputs_keep_their_documents(payload, monkeypatch):
    rescales = []
    work_class = type(make_ring("text:z,q").to_work([]))
    nearest = work_class.nearest_quotient

    def counted(self, x, p):
        l = self.l
        q = nearest(self, x, p)
        rescales.append(self.l // l)
        return q

    monkeypatch.setattr(work_class, "nearest_quotient", counted)
    code, out = dispatch(CommandRequest(command="snf", ring="text:z,q", payload=payload))
    assert (code, out) == (EXIT_OK, _RESCALES[payload])
    assert any(k > 1 for k in rescales), rescales


_PIVOT_ROWS = {
    "text:z,q": [[(3, Fraction(1, 3)), (3, Fraction(-1, 2)), (6, Fraction(0))],
                 [(0, Fraction(5, 7)), (4, Fraction(2, 9)), (-2, Fraction(1, 4))],
                 [(0, Fraction(1, 2)), (0, Fraction(1, 3)), (7, Fraction(-3, 11))]],
    # x^2 and x^3 terms, and entries of zero constant term, under rescales
    "series:4": [[(2, Fraction(1, 3), Fraction(-1, 2), 0, Fraction(2, 5)), (4, 0, 1, 0, 0),
                  (0, Fraction(3, 7), 0, Fraction(1, 2), 0)],
                 [(0, 0, Fraction(5, 6), Fraction(1, 9), 0), (6, Fraction(-1, 4), 0, 0, 1),
                  (-2, 1, Fraction(1, 3), 0, Fraction(-3, 11))],
                 [(0, Fraction(1, 2), Fraction(2, 3), 0, 0), (0, 0, 0, Fraction(7, 4), 0),
                  (3, 0, Fraction(-1, 6), Fraction(1, 5), 0)]],
}


def test_no_fraction_is_built_while_clearing_pivots():
    for spec, rows in _PIVOT_ROWS.items():
        with pytest.MonkeyPatch.context() as mp:
            _assert_no_fraction_while_clearing(mp, make_ring(spec), rows)


def _assert_no_fraction_while_clearing(monkeypatch, te, rows):
    import fractions
    import sys
    from edrkit import matrices, rings
    rescales = []
    rescale = rings._SeriesWork._rescale
    monkeypatch.setattr(rings._SeriesWork, "_rescale",
                        lambda self, m: rescales.append(m) or rescale(self, m))
    seen = []
    clear = matrices._clear_pivot

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            seen.append(frame.f_code.co_name)

    def watched(sweep, t):
        sys.setprofile(profile)
        try:
            clear(sweep, t)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(matrices, "_clear_pivot", watched)
    diagonal_reduce(RingMatrix(te, rows))
    assert seen == [] and rescales
    # the watch can fail: the Fraction sweep builds Fractions in the same phase
    _fraction_sweep(monkeypatch)
    diagonal_reduce(RingMatrix(te, rows))
    assert "__new__" in seen


# -- the GF(p)[x] work form: the pivots cleared on Kronecker-packed integers -----

def _tuple_sweep(monkeypatch):
    """Send GF(p)[x] through the Ring default: the sweep on coefficient tuples."""
    from edrkit.rings import Ring
    monkeypatch.setattr(GFPolynomialRing, "to_work", Ring.to_work)


def _swept(a):
    """diagonal_reduce(a), with copies of the five matrices as the clearing
    phase leaves them."""
    from edrkit import matrices
    seen = []
    enforce = matrices._enforce_chain

    def record(sweep):
        seen.append([[list(row) for row in m]
                     for m in (sweep.d, sweep.p, sweep.pinv, sweep.q, sweep.qinv)])
        enforce(sweep)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_enforce_chain", record)
        res = diagonal_reduce(a)
    return res, seen


@st.composite
def _gfpoly_matrices(draw):
    """A prime, and a matrix up to 6x6 over GF(p)[x] with degrees 0-8, many
    zero entries and zero rows."""
    p = draw(st.sampled_from([2, 3, 5, 7, 1000003]))
    coeffs = st.lists(st.integers(0, p - 1), max_size=9)
    value = st.one_of(st.just([]), coeffs)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
        rows[i] = [[]] * n
    return p, rows


def test_packed_sweep_equals_the_tuple_sweep():
    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(drawn=_gfpoly_matrices())
    def check(drawn):
        p, rows = drawn
        a = RingMatrix(GFPolynomialRing(p), rows)
        res, swept = _swept(a)
        with pytest.MonkeyPatch.context() as mp:
            _tuple_sweep(mp)
            expected, expected_swept = _swept(a)
        assert swept == expected_swept
        assert res == expected
        assert verify_reduction(a, res)

    check()


def test_packed_kernels_match_the_ring_kernels():
    from edrkit.rings import _kpack
    rng = random.Random("packed kernels")
    for p in (2, 3, 5, 7, 1000003):
        ring = GFPolynomialRing(p)
        polys = [ring.normalize([rng.randrange(p) for _ in range(rng.randint(0, 9))])
                 for _ in range(40)] + [(), (1,), (p - 1,) * 9]
        mats = [[list(polys)]]
        work = ring.to_work(mats)
        packed = dict(zip(polys, mats[0][0]))
        for a in polys:
            wa = packed[a]
            assert wa == _kpack(a, work.k)
            assert work.neg(wa) == _kpack(ring.neg(a), work.k)
            if a:
                assert work.size(wa) == ring.size(a) == len(a)
            for b in polys[::4]:
                if b and len(ring.nearest_quotient(a, b)) <= work.cap:
                    assert work.nearest_quotient(wa, packed[b]) == \
                        _kpack(ring.nearest_quotient(a, b), work.k)
                for x in polys[::5]:  # cap covers every length drawn
                    assert work.fma(wa, packed[b], packed[x]) == \
                        _kpack(ring.fma(a, b, x), work.k), (p, a, b, x)
        back = [list(mats[0][0])]
        assert work.from_work([back]) is ring and back == [polys]


def test_packed_slots_at_the_bound():
    """Every coefficient p - 1 and quotients of exactly cap coefficients: each
    slot of y + q*x reaches (p-1) + cap*(p-1)**2, the most that the b value
    bits of a slot hold (its field is 2b + 1 bits wide)."""
    from edrkit.rings import _kpack
    for p in (2, 5, 1000003):
        ring = GFPolynomialRing(p)
        full = (p - 1,) * 6
        work = ring.to_work([[[full]]])
        q, x = (p - 1,) * work.cap, (p - 1,) * (work.cap + 3)
        top = (p - 1) + work.cap * (p - 1) ** 2
        assert top < 1 << work.b <= top + (p - 1) ** 2
        assert work.k == 2 * work.b + 1
        assert work.fma(_kpack(full, work.k), _kpack(q, work.k), _kpack(x, work.k)) == \
            _kpack(ring.fma(full, q, x), work.k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1000003])
def test_one_step_slot_reduction_equals_the_per_slot_reference(p):
    """_reduce against the per-slot loop, on slots up to 2**b - 1, before
    and after a quotient longer than cap widens the fields."""
    from edrkit.rings import _kpack, _kunpack
    rng = random.Random(p)
    work = GFPolynomialRing(p).to_work([[[(p - 1,) * 3]]])
    for widen in (False, True):
        if widen:
            k = work.k
            work.nearest_quotient(_kpack((1,) * (work.cap + 1), k), 1)
            assert work.k > k
        b, k = work.b, work.k
        top = (1 << b) - 1
        samples = [[rng.choice((0, top, rng.randrange(1 << b), rng.randrange(p)))
                    for _ in range(rng.randint(0, 60))] for _ in range(300)]
        for slots in samples + [[top] * 80, [0, 0, top], [p] * 5, [p - 1] * 5]:
            t = _kpack(slots, k)
            assert work._reduce(t) == _kpack(_kunpack(t, k, p), k), (p, widen, slots)


def test_widened_slots_keep_the_documents(monkeypatch):
    """Slots first sized for one-coefficient quotients widen on the first
    longer one, repacking every matrix; the documents do not change."""
    from edrkit.rings import _PolyWork
    rng = random.Random("widening")
    requests = []
    for p in (2, 5, 7):
        for m, n in ((2, 2), (3, 4), (4, 3), (5, 5), (6, 6)):
            rows = [[[rng.randrange(p) for _ in range(rng.randint(0, 4))] for _ in range(n)]
                    for _ in range(m)]
            requests.append(CommandRequest(command="snf", ring=f"gfpoly:{p}",
                                           payload=json.dumps({"rows": rows})))
    expected = [dispatch(req) for req in requests]
    widths = []
    init, nearest = _PolyWork.__init__, _PolyWork.nearest_quotient

    def narrow(self, ring, mats, need):
        init(self, ring, mats, 1)

    def watched(self, x, b):
        k = self.k
        q = nearest(self, x, b)
        widths.append((k, self.k))
        return q

    monkeypatch.setattr(_PolyWork, "__init__", narrow)
    monkeypatch.setattr(_PolyWork, "nearest_quotient", watched)
    assert [dispatch(req) for req in requests] == expected
    assert sum(k < wider for k, wider in widths) >= len(requests) // 2, widths


def test_no_tuple_fma_runs_while_clearing_pivots(monkeypatch):
    import sys
    from edrkit import matrices, rings
    ring = GFPolynomialRing(5)
    rows = [[(1, 2, 3), (4, 0, 1), (2,)], [(0, 1), (3, 3, 3, 1), (1, 1)],
            [(2, 0, 0, 4), (1,), (0, 0, 2)]]
    seen = []
    clear = matrices._clear_pivot

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is rings._pfma.__code__:
            seen.append(frame.f_code.co_name)

    def watched(sweep, t):
        sys.setprofile(profile)
        try:
            clear(sweep, t)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(matrices, "_clear_pivot", watched)
    diagonal_reduce(RingMatrix(ring, rows))
    assert seen == []
    # the watch can fail: the tuple sweep runs _pfma in the same phase
    _tuple_sweep(monkeypatch)
    diagonal_reduce(RingMatrix(ring, rows))
    assert "_pfma" in seen
