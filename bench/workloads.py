"""Request lists for the four workloads, built from a seed.

A run repeats one *round*, the full list, as many whole times as fit in its
measuring time, so every run attempts the same operations in the same
proportions.  The seed draws the matrix entries, rows and request order; a
few requests use fixed inputs that do not depend on the seed (the largest
integer matrices and the modular requests of ``snf-ring-mix``; README.md
says why).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction
from math import gcd

from arith import (
    Integers,
    IntegersByRationals,
    PrimeFieldPolys,
    Product,
    Residues,
    ring_from_spec,
    to_json,
)

# The Mersenne prime 2**61 - 1: a modulus far too large for the residue scan
# in ModularRing.associate_unit, so this request always ends at the time limit.
MERSENNE = 2305843009213693951


@dataclass(frozen=True)
class Request:
    """One dispatch request: the CLI command, its ring and its input text."""

    command: str
    ring: str
    payload: str | None = None
    property: str | None = None
    label: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Request]]   # seed -> one round
    time_limit_s: float                      # a request that reaches it fails


def _snf(ring: str, rows, label: str, command: str = "snf") -> Request:
    return Request(command, ring, json.dumps({"rows": rows}), label=label)


# -- snf-z-dense --------------------------------------------------------------

def _dense(rng, m, n, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def _low_rank(rng, m, r, n):
    b, c = _dense(rng, m, r, 7), _dense(rng, r, n, 7)
    return [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


# Seeded shapes stay at sizes whose certificate entries keep far below the
# 4,300-digit str() limit on every seed tried (10x10 dense peaks near 2,500
# bits over 500 seeds, 12x12 already reached 11,000).  The larger sizes,
# where growth reaches the limit on some seeds and not others, use fixed
# inputs, so the same requests fail on every run.
_Z_SEEDED = [(8, 8)] * 32 + [(10, 10)] * 32 + [(8, 16)] * 16 + [(16, 8)] * 16
_Z_LOW_RANK = [(12, 6, 12)] * 16 + [(16, 8, 16)] * 16 + [(12, 6, 20)] * 8 + [(20, 6, 12)] * 8
_Z_FIXED = [(14, 14), (16, 16), (18, 18), (20, 20), (12, 20), (20, 12), (22, 22), (24, 24)]


def snf_z_dense(seed: int) -> list[Request]:
    rng = random.Random(f"snf-z-dense/{seed}")
    reqs = [_snf("z", _dense(rng, m, n), f"snf z {m}x{n}") for m, n in _Z_SEEDED]
    reqs += [_snf("z", _low_rank(rng, m, r, n), f"snf z {m}x{n} rank<={r}")
             for m, r, n in _Z_LOW_RANK]
    fixed = random.Random("snf-z-dense/fixed")
    reqs += [_snf("z", _dense(fixed, m, n), f"snf z {m}x{n} fixed") for m, n in _Z_FIXED]
    rng.shuffle(reqs)
    return reqs


# -- snf-ring-mix -------------------------------------------------------------

def _element(rng, spec: str):
    if spec == "z":
        return rng.randint(-30, 30)
    if spec.startswith("zmod:"):
        return rng.randrange(int(spec[5:]))
    if spec.startswith("gfpoly:"):
        p = int(spec[7:])
        # degree exactly 2: a random degree would make the cost of each
        # request, and so the round, swing with the seed
        return [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)]
    if spec.startswith("product:"):
        return [_element(rng, part) for part in spec[8:].split(",")]
    if spec == "text:z,q":
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return [rng.randint(-20, 20), q.numerator if q.denominator == 1 else str(q)]
    raise ValueError(spec)


def _comaximal_triple(rng, spec: str):
    """[[a, 0], [b, c]] with aR + bR + cR = R, checked with the benchmark's arithmetic."""
    ring = ring_from_spec(spec)
    while True:
        a, b, c = (_element(rng, spec) for _ in range(3))
        vals = [ring.parse(v) for v in (a, b, c)]
        if _generates_one(ring, vals):
            return [[a, to_json(ring, ring.zero)], [b, c]]


def _generates_one(ring, vals) -> bool:
    if isinstance(ring, Product):
        return all(_generates_one(f, [v[i] for v in vals]) for i, f in enumerate(ring.factors))
    if isinstance(ring, IntegersByRationals):
        # (a, e) generate the unit ideal iff their base components do
        return _generates_one(Integers(), [v[0] for v in vals])
    if isinstance(ring, PrimeFieldPolys):
        g = ()
        for v in vals:
            g = ring.gcd(g, v)
        return g == (1,)
    g = ring.n if isinstance(ring, Residues) else 0
    for v in vals:
        g = gcd(g, v)
    return g == 1


_MIX_RINGS = ["zmod:360", "gfpoly:5", "product:zmod:4,z", "text:z,q"]


def snf_ring_mix(seed: int) -> list[Request]:
    rng = random.Random(f"snf-ring-mix/{seed}")
    reqs = []
    # Many small requests per ring, so that one seed's draws move the
    # round's totals and its median little.
    for spec in _MIX_RINGS:
        for n in (3,) * 6 + (4,) * 9 + (5,) * 6 + (6,) * 6:
            rows = [[_element(rng, spec) for _ in range(n)] for _ in range(n)]
            reqs.append(_snf(spec, rows, f"snf {spec} {n}x{n}"))
        for _ in range(9):
            reqs.append(_snf(spec, _comaximal_triple(rng, spec), f"reduce2x2 {spec}",
                             command="reduce2x2"))
    # A prime modulus near 10**6: every nonzero diagonal entry is a unit, and
    # normalising it scans residues up to its value, a uniform draw of up to
    # a quarter second.  One request of each command, with fixed inputs,
    # because that draw would move the round's time by a third between seeds.
    prime = "zmod:1000003"
    fixed = random.Random("snf-ring-mix/fixed")
    rows = [[_element(fixed, prime) for _ in range(4)] for _ in range(4)]
    reqs.append(_snf(prime, rows, f"snf {prime} 4x4 fixed"))
    reqs.append(_snf(prime, _comaximal_triple(fixed, prime), f"reduce2x2 {prime} fixed",
                     command="reduce2x2"))
    # Its last invariant factor is about 1.1e17 modulo the prime, and the
    # residue scan that normalises it never ends within the limit.
    big = [[2**60 + 3, 5, 7], [11, 2**59 + 13, 17], [19, 23, 2**58 + 29]]
    reqs.append(_snf(f"zmod:{MERSENNE}", big, f"snf zmod:{MERSENNE} 3x3 fixed"))
    rng.shuffle(reqs)
    return reqs


# -- complete-rows --------------------------------------------------------------

# Three draws of each short length, so that the median request is well
# sampled, and the long rows that the subset-expansion determinant makes
# expensive (doubling per entry).  Length 16 over GF(5)[x] alone takes about
# 3.6 s, and 16 over Z/360 about 1 s; they are left out so that a run holds
# ten rounds or so, each about 2 s.
_SHORT_LENGTHS = (3, 4, 5, 6, 7, 8) * 3
_LONG_LENGTHS = {"z": (10, 12, 14, 16), "zmod:360": (10, 12, 14), "gfpoly:5": (10, 12)}


def _unimodular_row(rng, spec: str, n: int):
    ring = ring_from_spec(spec)
    while True:
        row = [_element(rng, spec) for _ in range(n)]
        if _generates_one(ring, [ring.parse(v) for v in row]):
            return row


def _scaled_row(rng, spec: str, n: int):
    """(row, d): a unimodular row times a non-unit d, so the row generates dR."""
    ring = ring_from_spec(spec)
    row = [ring.parse(v) for v in _unimodular_row(rng, spec, n)]
    if spec == "z":
        d = rng.choice([-1, 1]) * rng.randint(2, 9)
    elif spec.startswith("zmod:"):
        g = rng.choice([q for q in range(2, ring.n) if ring.n % q == 0])
        unit = next(u for u in iter(lambda: rng.randrange(1, ring.n), None)
                    if gcd(u, ring.n) == 1)
        d = g * unit % ring.n
    else:
        d = (rng.randrange(ring.p), rng.randrange(1, ring.p))  # c + c'x, degree 1
    return [to_json(ring, ring.mul(d, v)) for v in row], to_json(ring, d)


def complete_rows(seed: int) -> list[Request]:
    rng = random.Random(f"complete-rows/{seed}")
    reqs = []
    for spec, long_lengths in _LONG_LENGTHS.items():
        for i, n in enumerate(_SHORT_LENGTHS + long_lengths):
            if i % 2 == 0:
                payload = {"row": _unimodular_row(rng, spec, n)}
                label = f"complete {spec} n={n} d=1"
            else:
                row, d = _scaled_row(rng, spec, n)
                payload = {"row": row, "d": d}
                label = f"complete {spec} n={n} d!=1"
            reqs.append(Request("complete", spec, json.dumps(payload), label=label))
    rng.shuffle(reqs)
    return reqs


# -- check-finite ---------------------------------------------------------------

PROPERTIES = ("stable-range-1", "clean", "adequate-element", "locally-stable", "neat-range-1")
_FINITE_RINGS = ["zmod:30", "zmod:60", "zmod:360", "product:zmod:2,zmod:3,zmod:5",
                 "product:zmod:8,zmod:9", "text:zmod:4,self", "text:zmod:6,self"]
# adequate-element enumerates divisor pairs for every element: seconds on
# zmod:60, out of scale (tens of seconds and more) on these two rings.
_SKIP_ADEQUATE = {"zmod:360", "product:zmod:8,zmod:9"}


def check_finite(seed: int) -> list[Request]:
    rng = random.Random(f"check-finite/{seed}")
    reqs = [Request("check", spec, property=prop, label=f"check {spec} {prop}")
            for spec in _FINITE_RINGS for prop in PROPERTIES
            if not (prop == "adequate-element" and spec in _SKIP_ADEQUATE)]
    reqs.append(Request("check", "z", property="stable-range-1", label="check z stable-range-1"))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    w.name: w for w in (
        Workload("snf-z-dense", snf_z_dense, 60.0),
        # The limit ends the Mersenne request; every other request of this
        # workload takes well under half a second.
        Workload("snf-ring-mix", snf_ring_mix, 2.0),
        Workload("complete-rows", complete_rows, 60.0),
        Workload("check-finite", check_finite, 60.0),
    )
}
