"""Independent checks of the documents that ``edrkit.cli.dispatch`` returns.

Every check reads the parsed JSON document and the request's own input, and
recomputes with the benchmark's arithmetic (``arith``) or with ``sympy``.
Nothing here imports edrkit or reads the document's ``"verified"`` field.
``check`` returns ``None`` when the document passes, else the name of the
first condition that failed.
"""

from __future__ import annotations

import json
from math import gcd

from arith import (
    ArithError,
    Integers,
    PrimeFieldPolys,
    Product,
    Residues,
    det_2x2,
    det_integer,
    is_identity,
    matmul,
    parse_matrix,
    ring_from_spec,
)


class Mismatch(Exception):
    """An output document that fails one of the defining conditions."""


def check(req, doc) -> str | None:
    try:
        if not isinstance(doc, dict):
            raise Mismatch("document is not a JSON object")
        if req.command == "check":
            _check_verdict(req, doc)
            return None
        if doc.get("ring") != req.ring:
            raise Mismatch(f"document ring {doc.get('ring')!r} != {req.ring!r}")
        ring = ring_from_spec(req.ring)
        payload = json.loads(req.payload)
        if req.command == "complete":
            _check_completion(ring, payload, doc)
        else:
            a = parse_matrix(ring, payload["rows"])
            mats = {k: parse_matrix(ring, doc[k]) for k in ("P", "D", "Q", "Pinv", "Qinv")}
            if req.command == "snf":
                _check_snf(ring, a, mats)
            else:
                _check_reduce_2x2(ring, a, mats)
    except Mismatch as exc:
        return str(exc)
    except (ArithError, KeyError, TypeError, ValueError) as exc:
        return f"malformed document: {type(exc).__name__}: {exc}"
    return None


# -- snf and reduce2x2 ----------------------------------------------------------

def _certificate(ring, a, mats):
    """P*A*Q = D with P, Q invertible through the stored Pinv, Qinv."""
    m, n = len(a), len(a[0])
    shapes = {"P": (m, m), "Pinv": (m, m), "Q": (n, n), "Qinv": (n, n), "D": (m, n)}
    for name, (rows, cols) in shapes.items():
        mat = mats[name]
        if len(mat) != rows or len(mat[0]) != cols:
            raise Mismatch(f"{name} is {len(mat)}x{len(mat[0])}, expected {rows}x{cols}")
    P, D, Q, Pinv, Qinv = (mats[k] for k in ("P", "D", "Q", "Pinv", "Qinv"))
    for x, y, name in ((P, Pinv, "P*Pinv"), (Pinv, P, "Pinv*P"),
                       (Q, Qinv, "Q*Qinv"), (Qinv, Q, "Qinv*Q")):
        if not is_identity(ring, matmul(ring, x, y)):
            raise Mismatch(f"{name} != I")
    if matmul(ring, matmul(ring, P, a), Q) != D:
        raise Mismatch("P*A*Q != D")


def _project(mat, i):
    return [[v[i] for v in row] for row in mat]


def _check_snf(ring, a, mats):
    if isinstance(ring, Product):
        for i, factor in enumerate(ring.factors):
            try:
                _check_snf(factor, _project(a, i), {k: _project(v, i) for k, v in mats.items()})
            except Mismatch as exc:
                raise Mismatch(f"component {i} ({factor.spec}): {exc}") from None
        return
    _certificate(ring, a, mats)
    D = mats["D"]
    k = min(len(D), len(D[0]))
    if any(v != ring.zero for i, row in enumerate(D) for j, v in enumerate(row) if i != j):
        raise Mismatch("D is not diagonal")
    diag = [D[i][i] for i in range(k)]
    for i, d in enumerate(diag):
        if ring.canonical(d) != d:
            raise Mismatch(f"D[{i}][{i}] is not a canonical associate")
        if d == ring.zero and any(e != ring.zero for e in diag[i:]):
            raise Mismatch(f"nonzero entry after the zero at D[{i}][{i}]")
    for i in range(k - 1):
        if not ring.divides(diag[i], diag[i + 1]):
            raise Mismatch(f"D[{i}][{i}] does not divide D[{i + 1}][{i + 1}]")
    expected = _invariant_factors(ring, a)
    if expected is not None and expected != diag:
        raise Mismatch("diagonal differs from the invariant factors")


def _invariant_factors(ring, a):
    """Canonical invariant factors from sympy, or None where sympy has no model."""
    if isinstance(ring, Integers):
        return [abs(v) for v in _sympy_integer_factors(a)]
    if isinstance(ring, Residues):
        return [gcd(v, ring.n) % ring.n for v in _sympy_integer_factors(a)]
    if isinstance(ring, PrimeFieldPolys):
        return [ring.monic(v) for v in _sympy_poly_factors(ring.p, a)]
    return None  # text:z,q: checked through its defining conditions only


def _sympy_integer_factors(a):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    m = DomainMatrix([[ZZ(v) for v in row] for row in a], (len(a), len(a[0])), ZZ)
    return [int(v) for v in invariant_factors(m)]


def _gf_poly_domain(p):
    from sympy import GF, Symbol
    return GF(p)[Symbol("x")]


def _to_sympy_poly(dom, coeffs):
    return dom.ring.from_list(list(reversed(coeffs)))


def _from_sympy_poly(p, e):
    return tuple(reversed([int(c) % p for c in e.to_dense()])) if e else ()


def _sympy_poly_factors(p, a):
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    dom = _gf_poly_domain(p)
    m = DomainMatrix([[_to_sympy_poly(dom, v) for v in row] for row in a],
                     (len(a), len(a[0])), dom)
    return [_from_sympy_poly(p, v) for v in invariant_factors(m)]


def _check_reduce_2x2(ring, a, mats):
    _certificate(ring, a, mats)
    D = mats["D"]
    if D[0][0] != ring.one or D[0][1] != ring.zero or D[1][0] != ring.zero:
        raise Mismatch("D is not diag(1, delta)")
    if not ring.associates(D[1][1], det_2x2(ring, a)):
        raise Mismatch("delta is not an associate of det A")


# -- complete ----------------------------------------------------------------------

def _check_completion(ring, payload, doc):
    row = [ring.parse(v) for v in payload["row"]]
    d = ring.parse(payload["d"]) if payload.get("d") is not None else ring.one
    mat = parse_matrix(ring, doc["matrix"])
    n = len(row)
    if len(mat) != n or len(mat[0]) != n:
        raise Mismatch(f"matrix is {len(mat)}x{len(mat[0])}, expected {n}x{n}")
    if mat[0] != row:
        raise Mismatch("first row differs from the input row")
    if ring.parse(doc["d"]) != d:
        raise Mismatch("document d differs from the requested d")
    if _determinant(ring, mat) != d:
        raise Mismatch("determinant is not exactly d")


def _determinant(ring, mat):
    if isinstance(ring, Integers):
        return det_integer(mat)
    if isinstance(ring, Residues):
        return det_integer(mat) % ring.n  # the entries lift to Z as they are
    if isinstance(ring, PrimeFieldPolys):
        from sympy.polys.matrices import DomainMatrix

        dom = _gf_poly_domain(ring.p)
        m = DomainMatrix([[_to_sympy_poly(dom, v) for v in row] for row in mat],
                         (len(mat), len(mat)), dom)
        return _from_sympy_poly(ring.p, m.det())
    raise ArithError(f"no determinant oracle for {ring.spec}")


# -- check ----------------------------------------------------------------------------

def _check_verdict(req, doc):
    if doc.get("property") != req.property:
        raise Mismatch(f"verdict is for {doc.get('property')!r}, not {req.property!r}")
    if req.ring != "z":
        # all five properties hold on every finite commutative ring
        if doc.get("holds") is not True or "witness" in doc:
            raise Mismatch(f"{req.property} reported failing on the finite ring {req.ring}")
        return
    if req.property != "stable-range-1" or doc.get("holds") is not False:
        raise Mismatch("stable range 1 reported holding on the integers")
    a, b = (Integers().parse(v) for v in doc["witness"])
    # (a, b) is comaximal, and a + b*y is never +-1: no y solves b*y = 1 - a or -1 - a
    if gcd(a, b) != 1 or b == 0 or (1 - a) % b == 0 or (-1 - a) % b == 0:
        raise Mismatch(f"witness ({a}, {b}) does not refute stable range 1")
