"""Correctness gate, written apart from polylin's own arithmetic.

Polynomials are lists of Fractions, lowest degree first.  The determinant
of a polynomial matrix is found by evaluation at 0..D and Newton
interpolation, with its own elimination, so a defect in polylin's kernels
cannot confirm itself here.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        pv = a[c][c]
        det *= pv
        for i in range(c + 1, n):
            f = a[i][c] / pv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a mod b for nonzero b."""
    a, b = trim(a), trim(b)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        a = trim(a)
    return a


def _horner(p: list[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_det(m: list[list[list[Fraction]]]) -> list[Fraction]:
    """Determinant of a square polynomial matrix."""
    bound = sum(max((len(trim(e)) - 1 for e in row), default=-1) for row in m)
    if bound < 0:
        return []
    values = [fraction_det([[_horner(e, x) for e in row] for row in m])
              for x in range(bound + 1)]
    # divided differences on the nodes 0..bound, then Horner in Newton form
    coef = list(values)
    for k in range(1, bound + 1):
        for i in range(bound, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / k
    acc = [coef[bound]]
    for k in range(bound - 1, -1, -1):
        acc = poly_mul(acc, [Fraction(-k), Fraction(1)]) or [Fraction(0)]
        acc[0] += coef[k]
    return trim(acc)


def smith_chain_ok(factors: list[list[Fraction]], det: list[Fraction]) -> bool:
    """s_1 | s_2 | ... (zero factors last) and prod s_i = monic det."""
    factors = [trim(f) for f in factors]
    for a, b in zip(factors, factors[1:]):
        if not a:
            if b:
                return False
        elif b and poly_rem(b, a):
            return False
    prod = [Fraction(1)]
    for f in factors:
        prod = poly_mul(prod, f)
    det = trim(det)
    monic = [c / det[-1] for c in det] if det else []
    return prod == monic


def parse_poly(coeffs: list[str]) -> list[Fraction]:
    return [Fraction(c) for c in coeffs]


def polymatrix_entries(obj: dict) -> list[list[list[Fraction]]]:
    return [[parse_poly(e) for e in row] for row in obj["entries"]]


def max_coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length among the rationals
    (JSON strings) nested in obj."""
    if isinstance(obj, str):
        try:
            x = Fraction(obj)
        except ValueError:
            return 0
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return max((max_coeff_bits(x) for x in obj), default=0)
    return 0
