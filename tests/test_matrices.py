"""Column reduction, 2x2 elementary reduction, full diagonal reduction."""

import itertools
import logging
import math

import pytest

from edrkit import (
    GFPolynomialRing,
    IntegerRing,
    ModularRing,
    PreconditionError,
    ProductRing,
    RingError,
    RingMatrix,
    TruncatedSeriesRing,
    UnsupportedOperationError,
    column_reduce,
    determinant,
    diagonal_reduce,
    divides,
    element,
    is_unit,
    make_ring,
    reduce_2x2,
    verify_reduction,
)
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
    ring = make_ring(spec).ring
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
    # zero entries route around the degenerate (0, 0) certificate
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
        res = reduce_2x2(mat)
        assert verify_reduction(mat, res)
        assert res.D.data[0][0] == 1
        # det ideal is preserved: D[1][1] is an associate of det A
        delta = res.D.entry(1, 1)
        det_a = det_oracle(mat)
        assert divides(delta, det_a) and divides(det_a, delta)
        # every emitted factor is invertible, by explicit inverse multiplication
        for fac, inv in res.left_factors + res.right_factors:
            assert (fac @ inv).is_identity() and (inv @ fac).is_identity()
        # the factors compose to P and Q exactly
        p = RingMatrix.identity(Z, 2)
        for fac, _ in res.left_factors:
            p = fac @ p
        q = RingMatrix.identity(Z, 2)
        for fac, _ in res.right_factors:
            q = q @ fac
        assert p == res.P and q == res.Q
        assert (res.P @ mat @ res.Q) == res.D


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
    te = make_ring("text:z,q").ring
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


def test_series_matrices_rejected():
    s = TruncatedSeriesRing(4)
    a = RingMatrix(s, [[(1, ()), (2, ())], [(0, ()), (1, ())]])
    with pytest.raises(UnsupportedOperationError):
        diagonal_reduce(a)


def test_verify_reduction_detects_tampering(caplog):
    a = zmat([[2, 4], [6, 8]])
    res = diagonal_reduce(a)
    assert verify_reduction(a, res)
    from edrkit.matrices import ReductionResult
    bad_d = RingMatrix(Z, [[2, 0], [0, 5]])
    tampered = ReductionResult(P=res.P, D=bad_d, Q=res.Q, Pinv=res.Pinv, Qinv=res.Qinv)
    assert not verify_reduction(a, tampered)
    bad_pinv = RingMatrix(Z, [[1, 1], [0, 1]])
    tampered = ReductionResult(P=res.P, D=res.D, Q=res.Q, Pinv=bad_pinv, Qinv=res.Qinv)
    assert not verify_reduction(a, tampered)
    # -P, -D in row 0 and -Pinv in column 0 still give P*A*Q = D and the
    # chain -2 | 4, but D[0][0] = -2 is not the canonical associate 2
    def negate(rows, cells):
        return RingMatrix(Z, [[-v if (i, j) in cells else v for j, v in enumerate(row)]
                              for i, row in enumerate(rows)])
    row0, col0 = {(0, 0), (0, 1)}, {(0, 0), (1, 0)}
    tampered = ReductionResult(P=negate(res.P.data, row0), D=negate(res.D.data, row0),
                               Q=res.Q, Pinv=negate(res.Pinv.data, col0), Qinv=res.Qinv)
    with caplog.at_level(logging.DEBUG, logger="edrkit.matrices"):
        assert not verify_reduction(a, tampered)
    assert "diagonal entry at position 0 is not its canonical associate" in caplog.text


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
