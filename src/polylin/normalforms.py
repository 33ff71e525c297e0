"""Hermite and Smith normal forms over Q[z], plus the zero/nonzero mask."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import DimensionMismatch
from .exact import PolyMatrix, _poly_row
from .poly import PolyQ, _convolve, _pseudo_divide, sub_mul


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
    row's denominator cancels.  Grades follow a - q * b.  The rows are
    read from m's row form, and H and U are built as row forms, each half
    of a row brought to its row form by one gcd; no PolyQ is made.
    """
    if not m.is_square:
        raise DimensionMismatch("hermite_form expects a square matrix")
    n = m.rows
    rows = []
    for i, (den, pairs, grades) in enumerate(m._form):
        ints = [()] * (2 * n)
        for j, xs in pairs:
            ints[j] = xs
        ints[n + i] = (den,)
        rows.append((ints, den, list(grades) + [0] * n))

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
    halves = [[_poly_row(den, [(j, tuple(xs)) for j, xs in enumerate(ints[lo:lo + n]) if xs],
                         grades[lo:lo + n]) for ints, den, grades in rows] for lo in (0, n)]
    return HermiteResult(
        PolyMatrix._from_form(n, n, halves[0]),
        PolyMatrix._from_form(n, n, halves[1]),
        tuple(pivots),
        rank_deficient=(r < n),
    )


def _transposed(rows: list[list]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def smith_form(m: PolyMatrix) -> SmithResult:
    """Smith normal form over Q[z] with accumulated unimodular E, F.

    A minimum-degree pivot is moved to (t, t), then one clearing step
    clears column t of a matrix below the pivot, with every row operation
    on it compensated in a second matrix.  The row pass runs it on (S, E);
    the column pass runs it on (S^T, F^T), since a column operation on S is
    a row operation on S^T and F's compensating row update is a column
    update of F^T.  A remainder swaps in a lower-degree pivot and both
    passes start again.  A divisibility fix-up then merges offending
    entries into the pivot until s_i | s_{i+1} holds along the chain.
    """
    if not m.is_square:
        raise DimensionMismatch("smith_form expects a square matrix")
    n = m.rows
    s = m.to_rows()
    e = [[PolyMatrix._one if i == j else PolyMatrix._zero for j in range(n)] for i in range(n)]
    ft = [row[:] for row in e]

    # invariant: original = E @ S @ F throughout, with F kept as ft = F^T
    def swap(a, comp, i, k):
        a[i], a[k] = a[k], a[i]
        for row in comp:
            row[i], row[k] = row[k], row[i]

    def sub(a, comp, i, k, q: PolyQ):
        # a_i -= q * a_k, compensated by comp col_k += q * comp col_i
        if q.is_zero:
            return
        a[i] = [sub_mul(x, q, y) for x, y in zip(a[i], a[k])]
        neg = -q
        for row in comp:
            row[k] = sub_mul(row[k], neg, row[i])

    def row_scale(i, c):
        s[i] = [a.scale(c) for a in s[i]]
        inv = 1 / c
        for row in e:
            row[i] = row[i].scale(inv)

    def clear(a, comp, t) -> bool:
        # True when a nonzero remainder swapped in a lower-degree pivot
        for i in range(t + 1, n):
            if a[i][t].is_zero:
                continue
            q, rem = divmod(a[i][t], a[t][t])
            sub(a, comp, i, t, q)
            if not rem.is_zero:
                swap(a, comp, t, i)
                return True
        return False

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
            swap(s, e, t, best[0])
        if best[1] != t:
            st = _transposed(s)
            swap(st, ft, t, best[1])
            s = _transposed(st)
        while True:
            if clear(s, e, t):
                continue
            st = _transposed(s)
            swapped = clear(st, ft, t)
            s = _transposed(st)
            if swapped:
                continue
            # s[t][t] divides s[i][j] when their integer pseudo-remainder is
            # zero (a nonzero dividend of lower degree is its own remainder)
            offender = None
            pivot = s[t][t].ints
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if any(_pseudo_divide(list(s[i][j].ints), pivot)[1]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            sub(s, e, t, offender, PolyQ((-1,)))  # add the offending row
        if not s[t][t].is_zero and s[t][t].lead != 1:
            row_scale(t, 1 / s[t][t].lead)

    factors = tuple(s[i][i] for i in range(n))
    return SmithResult(
        PolyMatrix.from_rows(s),
        PolyMatrix.from_rows(e),
        PolyMatrix.from_rows(_transposed(ft)),
        factors,
    )


def mask(m: PolyMatrix) -> list[str]:
    """Zero/nonzero structural fingerprint as a grid of '0'/'x' strings,
    read from the row form."""
    out = []
    for _, pairs, _ in m._form:
        line = ["0"] * m.cols
        for j, _ in pairs:
            line[j] = "x"
        out.append("".join(line))
    return out
