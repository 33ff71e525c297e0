"""Hermite and Smith normal forms over Q[z], plus the zero/nonzero mask."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import DimensionMismatch
from .exact import (
    PolyMatrix,
    PolyQ,
    _convolve,
    _integer_coeffs,
    _poly_from_ints,
    _pseudo_divide,
    sub_mul,
)


@dataclass(frozen=True)
class HermiteResult:
    """Upper-triangular H with monic pivots and U unimodular, U @ M = H.

    Entries above each pivot have degree strictly below the pivot degree.
    rank_deficient flags an identically-zero determinant; pivot_cols lists
    the columns where pivots were found.
    """

    h: PolyMatrix
    u: PolyMatrix
    pivot_cols: tuple[int, ...]
    rank_deficient: bool


@dataclass(frozen=True)
class SmithResult:
    """Diagonal S with monic invariant factors s_1 | s_2 | ... and
    unimodular E, F reconstructing M = E @ S @ F.  Zero factors sort last."""

    s: PolyMatrix
    e: PolyMatrix
    f: PolyMatrix
    invariant_factors: tuple[PolyQ, ...]


def _primitive(row: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """The row's ints and denominator divided by their gcd."""
    g = math.gcd(den, *chain.from_iterable(row))
    if g == 1:
        return row, den
    return [[x // g for x in xs] for xs in row], den // g


def hermite_form(m: PolyMatrix) -> HermiteResult:
    """Row Hermite normal form over Q[z] by extended-gcd row reduction.

    Each row of [H | U] is 2n integer coefficient lists over one
    denominator, with the grade of every entry beside them, so the loop
    runs on ints (fraction-free, after Bareiss and Kannan-Bachem).  For
    row_i -= q * row_r with q = h[i][c] // h[r][c], one integer
    pseudo-division of the two pivot-column ints gives s * a = Q * b + R,
    and the new row is s * row_i - Q * row_r over s * d_i: the pivot
    row's denominator cancels.  Grades follow a - q * b, and each entry
    becomes a PolyQ once, at the end.
    """
    if not m.is_square:
        raise DimensionMismatch("hermite_form expects a square matrix")
    n = m.rows
    rows = []
    for i, entries in enumerate(m.to_rows()):
        ints, den = _integer_coeffs(entries)
        ints += [[den] if j == i else [] for j in range(n)]
        rows.append((ints, den, [e.grade for e in entries] + [0] * n))

    def row_sub(i: int, r: int, c: int):
        a, den, ga = rows[i]
        b, _, gb = rows[r]
        if len(a[c]) < len(b[c]):  # the quotient is zero
            return
        q, _, s = _pseudo_divide(list(a[c]), b[c])
        out = []
        for xs, ys in zip(a, b):
            xs = [s * x for x in xs]
            if ys:
                prod = _convolve(q, ys)
                xs.extend([0] * (len(prod) - len(xs)))
                for k, y in enumerate(prod):
                    xs[k] -= y
                while xs and not xs[-1]:
                    xs.pop()
            out.append(xs)
        dq = len(q) - 1
        rows[i] = (*_primitive(out, s * den), [max(x, dq + y) for x, y in zip(ga, gb)])

    r = 0
    pivots = []
    for c in range(n):
        while True:
            nz = [i for i in range(r, n) if rows[i][0][c]]
            if not nz:
                break
            imin = min(nz, key=lambda i: len(rows[i][0][c]))
            if imin != r:
                rows[r], rows[imin] = rows[imin], rows[r]
            others = [i for i in range(r + 1, n) if rows[i][0][c]]
            if not others:
                break
            for i in others:
                row_sub(i, r, c)
        if r < n and rows[r][0][c]:
            ints, _, grades = rows[r]
            # the pivot is monic over its own integer lead
            rows[r] = (*_primitive(ints, ints[c][-1]), grades)
            for i in range(r):
                row_sub(i, r, c)
            pivots.append(c)
            r += 1
    polys = [[_poly_from_ints(xs, den, g) for xs, g in zip(ints, grades)]
             for ints, den, grades in rows]
    return HermiteResult(
        PolyMatrix.from_rows(p[:n] for p in polys),
        PolyMatrix.from_rows(p[n:] for p in polys),
        tuple(pivots),
        rank_deficient=(r < n),
    )


def smith_form(m: PolyMatrix) -> SmithResult:
    """Smith normal form over Q[z] with accumulated unimodular E, F.

    Alternating row/column gcd reduction brings the matrix to diagonal
    form; a divisibility fix-up merges offending entries into the pivot
    until s_i | s_{i+1} holds along the whole chain.
    """
    if not m.is_square:
        raise DimensionMismatch("smith_form expects a square matrix")
    n = m.rows
    s = m.to_rows()
    e = PolyMatrix.identity(n).to_rows()
    f = PolyMatrix.identity(n).to_rows()

    # invariant: original = E @ S @ F throughout
    def row_swap(i, k):
        s[i], s[k] = s[k], s[i]
        for row in e:
            row[i], row[k] = row[k], row[i]

    def col_swap(j, k):
        for row in s:
            row[j], row[k] = row[k], row[j]
        f[j], f[k] = f[k], f[j]

    def row_sub(i, k, q: PolyQ):
        # S_i -= q * S_k, compensated by E col_k += q * E col_i
        if q.is_zero:
            return
        s[i] = [sub_mul(a, q, b) for a, b in zip(s[i], s[k])]
        neg = -q
        for row in e:
            row[k] = sub_mul(row[k], neg, row[i])

    def col_sub(j, k, q: PolyQ):
        # S col_j -= q * S col_k, compensated by F row_k += q * F row_j
        if q.is_zero:
            return
        for row in s:
            row[j] = sub_mul(row[j], q, row[k])
        neg = -q
        f[k] = [sub_mul(a, neg, b) for a, b in zip(f[k], f[j])]

    def row_scale(i, c):
        s[i] = [a.scale(c) for a in s[i]]
        inv = 1 / c
        for row in e:
            row[i] = row[i].scale(inv)

    for t in range(n):
        # locate a minimum-degree nonzero entry in the trailing submatrix
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if not s[i][j].is_zero:
                    if best is None or s[i][j].degree < s[best[0]][best[1]].degree:
                        best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            restart = False
            for i in range(t + 1, n):
                if s[i][t].is_zero:
                    continue
                q, rem = divmod(s[i][t], s[t][t])
                row_sub(i, t, q)
                if not rem.is_zero:
                    row_swap(t, i)  # smaller-degree pivot
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, n):
                if s[t][j].is_zero:
                    continue
                q, rem = divmod(s[t][j], s[t][t])
                col_sub(j, t, q)
                if not rem.is_zero:
                    col_swap(t, j)
                    restart = True
                    break
            if restart:
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (s[i][j] % s[t][t]).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, PolyQ((-1,)))  # add the offending row
        if not s[t][t].is_zero and s[t][t].lead != 1:
            row_scale(t, 1 / s[t][t].lead)

    factors = tuple(s[i][i] for i in range(n))
    return SmithResult(
        PolyMatrix.from_rows(s),
        PolyMatrix.from_rows(e),
        PolyMatrix.from_rows(f),
        factors,
    )


def mask(m: PolyMatrix) -> list[str]:
    """Zero/nonzero structural fingerprint as a grid of '0'/'x' strings."""
    return ["".join("0" if m.get(i, j).is_zero else "x" for j in range(m.cols))
            for i in range(m.rows)]
