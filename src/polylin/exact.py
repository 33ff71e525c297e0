"""Exact constant and polynomial-matrix arithmetic over Q.

The scalars and polynomials underneath live in `poly`; its public names
are re-exported here.  Every value is immutable after construction and
every operation is a pure function, so all of this is safe to call
concurrently.  (A ConstMatrix may fill in its entries or its row form on
first read; either is a function of the other, so a second thread that
makes it too makes the same value.)
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, NotUnimodular
from .poly import (  # noqa: F401  (POLY_Z, poly_gcd and sub_mul are re-exported)
    POLY_ONE,
    POLY_Z,
    ZERO,
    PolyQ,
    _poly_from_ints,
    as_fraction,
    poly_gcd,
    sub_mul,
)

ONE = Fraction(1)


def _bareiss_int(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination (Math. Comp. 22, 1968); m is overwritten.

    Every division is exact, so the inner loop runs on plain Python ints
    with no per-operation gcd.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def _row_form(xs) -> tuple[int, list[tuple[int, int]]]:
    """The row form of a row of Fractions: its nonzero entries times their
    lcm d as (column, int) pairs, and d.  gcd(d, ints) = 1 since each
    entry is in lowest terms.  Most zeros are the shared ZERO, which the
    identity test skips without a call to Fraction.__bool__."""
    pairs = [(j, x.as_integer_ratio()) for j, x in enumerate(xs) if x is not ZERO and x]
    den = math.lcm(*(d for _, (_, d) in pairs))
    return den, [(j, p * (den // d)) for j, (p, d) in pairs]


def _lowest(den: int, pairs: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """The row form of the (column, int) pairs over den (den nonzero)."""
    g = math.gcd(den, *(x for _, x in pairs))
    if den < 0:
        g = -g
    if g == 1:
        return den, pairs
    return den // g, [(j, x // g) for j, x in pairs]


def _canonical(den: int, ints: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """The row form of the row ints / den (den nonzero)."""
    return _lowest(den, [(j, x) for j, x in enumerate(ints) if x])


def _reduce_rows(rows: list[dict[int, int]], ncols: int, jordan: bool) -> tuple[list[int], int, int]:
    """Fraction-free row reduction of sparse integer rows, in place, over
    their first ncols columns.  A row is a dict of its nonzero entries,
    {column: int}, and only those entries are read or written.

    Columns are taken left to right.  The pivot row of column c is the
    sparsest of the rows not yet pivot rows that are nonzero in c, the
    first of them on a tie (Markowitz's rule with the column order fixed,
    Management Sci. 3, 1957).  A row whose entry f in column c is zero is
    not touched; any other row not yet a pivot row (and a pivot row too if
    jordan) becomes (a*row - b*pivot_row) / content, with a =
    pv/gcd(pv, f), b = f/gcd(pv, f) and content the gcd of the new
    entries.  A reduced row is then the primitive multiple of the row
    Bareiss elimination would hold, so no entry outgrows the minors of the
    input (its Hadamard bound).

    On return the pivot rows come first, in pivot order, and the others
    after them in their first order.  Returns the pivot columns and
    (num, den): with jordan False and a square input, det(input) = num/den
    * the product of the pivots, num holding the sign of that reordering.
    """
    done, rest = [], rows[:]
    pivots = []
    num = den = 1
    for c in range(ncols):
        hits = [(len(row), i, row) for i, row in enumerate(rest) if c in row]
        if not hits:
            continue
        _, k, pr = min(hits)
        del rest[k]
        if k % 2:
            num = -num
        pv = pr[c]
        support = [(j, y) for j, y in pr.items() if j != c]
        targets = [row for _, i, row in hits if i != k]
        if jordan:
            targets += [row for row in done if c in row]
        for row in targets:
            f = row.pop(c)
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            if a != 1:
                den *= a
                for j in row:
                    row[j] *= a
            for j, y in support:
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = math.gcd(*row.values())
            if g > 1:
                num *= g
                for j in row:
                    row[j] //= g
        done.append(pr)
        pivots.append(c)
        if not rest:
            break
    rows[:] = done + rest
    return pivots, num, den


class _Matrix:
    """Immutable rectangular grid of entries stored row by row.

    The subclasses fix the entry type (`_coerce`, `_zero`, `_one`) and add
    the algebra of that type; the grid code is shared.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = self._coerce(tuple(entries))
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, [cls._one if i == j else cls._zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls(rows, cols, [cls._zero] * (rows * cols))

    @classmethod
    def from_blocks(cls, grid, n: int):
        """Assemble from a grid of n-by-n blocks (None = zero), all grid
        rows equally long."""
        if any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("ragged block grid")
        if any(blk is not None and (blk.rows, blk.cols) != (n, n) for row in grid for blk in row):
            raise DimensionMismatch("inconsistent block size")
        return cls._assemble(grid, n)

    @classmethod
    def _assemble(cls, grid, n: int):
        zero = cls.zeros(n, n)
        return cls.from_rows([x for blk in row for x in (blk or zero).row(r)]
                             for row in grid for r in range(n))

    # -- inspection ---------------------------------------------------
    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def block(self, i: int, j: int, n: int):
        """The n-by-n block at block position (i, j)."""
        return type(self)(n, n, [self.get(i * n + r, j * n + c)
                                 for r in range(n) for c in range(n)])

    def transpose(self):
        return type(self)(self.cols, self.rows,
                          [x for j in range(self.cols) for x in self.entries[j::self.cols]])

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        self._same_shape(other)
        return type(self)(self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return type(self)(self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return type(self)(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))


class ConstMatrix(_Matrix):
    """Immutable rectangular matrix of rationals.

    Its integer representation is its row form: row i is (d, pairs), the
    row's nonzero entries as (column, int) pairs over d > 0 with
    gcd(d, ints) = 1.  The form is canonical, so matrices are equal exactly
    when their row forms are.  Products, solves, determinants, sums,
    scaling and block assembly work on row forms and build their results
    as row forms; entries (Fractions) and row form are each made from the
    other on first use, by `__getattr__`, and then kept.
    """

    __slots__ = ("_form",)
    _zero = ZERO
    _one = ONE

    @staticmethod
    def _coerce(entries: tuple) -> tuple:
        if set(map(type, entries)) - {Fraction}:
            return tuple(as_fraction(x) for x in entries)
        return entries

    @classmethod
    def _from_form(cls, rows: int, cols: int, form: list) -> "ConstMatrix":
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_form", form)
        return m

    def __getattr__(self, name):
        # reached only while the slot `name` is unset
        if name == "_form":
            c = self.cols
            value = [_row_form(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]
        elif name == "entries":
            value = [ZERO] * (self.rows * self.cols)
            for i, (den, pairs) in enumerate(self._form):
                for j, x in pairs:
                    value[i * self.cols + j] = Fraction(x, den)
            value = tuple(value)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._form) == (other.rows, other.cols, other._form)

    __hash__ = _Matrix.__hash__  # entry-based: equal matrices have equal entries

    @classmethod
    def _assemble(cls, grid, n: int) -> "ConstMatrix":
        """Row r of block row bi: row r of each block moved to its block's
        columns, over the lcm d of those rows' denominators.  A prime that
        divides d divides some block row's denominator to the full power,
        and not all of that row's ints, so the row is canonical as made."""
        form = []
        for row in grid:
            parts = [(bj * n, blk._form) for bj, blk in enumerate(row) if blk is not None]
            for r in range(n):
                den = math.lcm(*(f[r][0] for _, f in parts))
                form.append((den, [(off + j, x * (den // f[r][0]))
                                   for off, f in parts for j, x in f[r][1]]))
        return cls._from_form(len(grid) * n, len(grid[0]) * n, form)

    @property
    def is_zero(self) -> bool:
        return not any(pairs for _, pairs in self._form)

    def __repr__(self):
        return f"ConstMatrix({self.to_rows()})"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "ConstMatrix", sign: int = 1) -> "ConstMatrix":
        """self + sign * other, each row over the lcm of the two
        denominators and brought to its row form by one gcd."""
        self._same_shape(other)
        form = []
        for (da, xs), (db, ys) in zip(self._form, other._form):
            den = math.lcm(da, db)
            acc = [0] * self.cols
            ma, mb = den // da, sign * (den // db)
            for j, x in xs:
                acc[j] = ma * x
            for j, y in ys:
                acc[j] += mb * y
            form.append(_canonical(den, acc))
        return ConstMatrix._from_form(self.rows, self.cols, form)

    def __sub__(self, other: "ConstMatrix") -> "ConstMatrix":
        return self.__add__(other, -1)

    def __neg__(self) -> "ConstMatrix":
        return self.scale(-1)

    def __matmul__(self, other: "ConstMatrix") -> "ConstMatrix":
        """Exact product on the row forms: with row i of self (da, x) and
        row k of other (d_k, y_k), output row i is sum_k x_k (l/d_k) y_k
        over da*l, l the lcm of the d_k that row i touches, brought to its
        row form by one gcd.  No Fraction is made."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        oc = other.cols
        brows = other._form
        form = []
        for da, xs in self._form:
            ell = math.lcm(*(brows[k][0] for k, _ in xs))
            acc = [0] * oc
            for k, x in xs:
                db, ys = brows[k]
                x *= ell // db
                for j, y in ys:
                    acc[j] += x * y
            form.append(_canonical(da * ell, acc))
        return ConstMatrix._from_form(self.rows, oc, form)

    def scale(self, c) -> "ConstMatrix":
        """c * self for c = p/q in lowest terms: row (d, x) becomes
        (d q / g, p x / g) with g = gcd(p, d) gcd(q, x), which is the whole
        gcd of the new row since gcd(d, x) = gcd(p, q) = 1."""
        p, q = as_fraction(c).as_integer_ratio()
        if not p:
            return ConstMatrix._from_form(self.rows, self.cols, [(1, [])] * self.rows)
        form = []
        for d, pairs in self._form:
            g, h = math.gcd(p, d), math.gcd(q, *(x for _, x in pairs))
            a = p // g
            form.append((d // g * (q // h), [(j, a * (x // h)) for j, x in pairs]))
        return ConstMatrix._from_form(self.rows, self.cols, form)

    # -- linear algebra -------------------------------------------------
    def det(self) -> Fraction:
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        rows = [dict(pairs) for _, pairs in self._form]
        pivots, num, den = _reduce_rows(rows, self.cols, jordan=False)
        if len(pivots) < self.rows:
            return ZERO
        for i, row in enumerate(rows):
            num *= row[i]
        return Fraction(num, den * math.prod(d for d, _ in self._form))

    def try_inverse(self) -> "ConstMatrix | None":
        """Exact inverse, or None when singular."""
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        return solve_exact(self, ConstMatrix.identity(self.rows))

    def kron_identity(self, n: int) -> "ConstMatrix":
        """Tensor product self (x) I_n: row (i, r) is row i of self moved to
        the columns j*n + r, over the same denominator."""
        return ConstMatrix._from_form(
            self.rows * n, self.cols * n,
            [(d, [(j * n + r, x) for j, x in pairs]) for d, pairs in self._form for r in range(n)])


def solve_exact(a: ConstMatrix, b: ConstMatrix) -> ConstMatrix | None:
    """Solve a @ x = b exactly; None when inconsistent.

    Works for rectangular (including overdetermined) systems; free
    variables are set to zero.  Each augmented row [a | b] is put over one
    denominator from the two row forms, as a sparse row, and reduced by
    `_reduce_rows` (Gauss-Jordan), so each pivot row is left with zeros in
    the other pivot columns and each row of the solution is its own row's
    right-hand side over the pivot, built as a row form.  A row left with
    no pivot is zero in a's columns, so any entry it keeps is in b's.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("solve_exact: row counts differ")
    n = a.cols
    aug = []
    for (da, xs), (db, ys) in zip(a._form, b._form):
        den = math.lcm(da, db)
        ma, mb = den // da, den // db
        row = {j: x * ma for j, x in xs}
        row.update((n + j, y * mb) for j, y in ys)
        aug.append(row)
    pivots = _reduce_rows(aug, n, jordan=True)[0]
    if any(aug[len(pivots):]):
        return None
    form = [(1, [])] * n
    for row, c in zip(aug, pivots):
        form[c] = _lowest(row[c], sorted((j - n, x) for j, x in row.items() if j >= n))
    return ConstMatrix._from_form(n, b.cols, form)


class PolyMatrix(_Matrix):
    """Immutable rectangular matrix with PolyQ entries."""

    __slots__ = ()
    _zero = PolyQ.zero()
    _one = POLY_ONE

    @staticmethod
    def _coerce(entries: tuple) -> tuple:
        if set(map(type, entries)) - {PolyQ}:
            return tuple(e if isinstance(e, PolyQ) else PolyQ((e,)) for e in entries)
        return entries

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __repr__(self):
        return f"PolyMatrix({[[str(e) for e in r] for r in self.to_rows()]})"

    @classmethod
    def from_coeffs(cls, blocks, grade: int | None = None) -> "PolyMatrix":
        """sum_k blocks[k] z^k for equally shaped constant blocks; every
        entry gets the stated grade, or by default its degree.

        Read from the blocks' row forms: row i of every block over the lcm
        d of their row-i denominators gives each entry of row i its ints
        over d, brought to canonical form by one gcd.  Entries no block
        row touches share one zero."""
        rows, cols = blocks[0].rows, blocks[0].cols
        zero = PolyQ.zero(grade or 0)
        entries = []
        for i in range(rows):
            forms = [b._form[i] for b in blocks]
            den = math.lcm(*(d for d, _ in forms))
            row = [None] * cols
            for k, (d, pairs) in enumerate(forms):
                for j, x in pairs:
                    if row[j] is None:
                        row[j] = [0] * len(blocks)
                    row[j][k] = x * (den // d)
            entries += [zero if xs is None else _poly_from_ints(xs, den, grade) for xs in row]
        return cls(rows, cols, entries)

    @classmethod
    def from_const(cls, m: ConstMatrix) -> "PolyMatrix":
        return cls.from_coeffs([m])

    def evaluate(self, x) -> ConstMatrix:
        """m(x), built as a row form: each entry's value by integer Horner
        on its integer form, each row over the lcm of those values'
        denominators and brought to its row form by one gcd."""
        u, w = as_fraction(x).as_integer_ratio()
        form = []
        for i in range(self.rows):
            vals = [(j, *e._value(u, w)) for j, e in enumerate(self.row(i)) if e.ints]
            den = math.lcm(*(d for _, _, d in vals))
            form.append(_lowest(den, [(j, v * (den // d)) for j, v, d in vals if v]))
        return ConstMatrix._from_form(self.rows, self.cols, form)

    def max_degree(self) -> int:
        return max((e.degree for e in self.entries), default=-1)

    # -- arithmetic ---------------------------------------------------
    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return polymatrix_mul(self, other)

    def scale_poly(self, p: PolyQ) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [p * e for e in self.entries])

    def scale(self, c) -> "PolyMatrix":
        c = as_fraction(c)
        return PolyMatrix(self.rows, self.cols, [e.scale(c) for e in self.entries])


def _integer_coeffs(polys) -> tuple[list, int]:
    """The integer forms of polys over their common denominator d (each
    p.ints times d // p.den), and d."""
    den = math.lcm(*(p.den for p in polys))
    return [p.ints if p.den == den else [x * (den // p.den) for x in p.ints]
            for p in polys], den


def _int_rows(m: PolyMatrix) -> list[tuple[int, list]]:
    """Each row of m over one denominator d, as (d, [(j, ints, grade)])
    over its nonzero entries, entry j's ints being its coefficients times d."""
    rows = []
    for i in range(m.rows):
        row = m.row(i)
        ints, den = _integer_coeffs(row)
        rows.append((den, [(j, xs, e.grade) for j, (xs, e) in enumerate(zip(ints, row)) if xs]))
    return rows


def _row_products(arows, brows, cols: int):
    """The integer rows of a @ b, one at a time, from those of a and of b
    (b of cols columns): each row of a times the rows of b that its nonzero
    entries pick, over the lcm of their denominators, on ints in one flat
    list, a slot of fixed width per entry.  An entry's grade is the largest
    x.grade + y.grade over its nonzero terms.  One whose terms cancel keeps
    that grade and, its trailing zeros dropped, has no ints, so it adds no
    term to a further product; one with no nonzero term is left out."""
    ywidth = max((len(ys) for _, row in brows for _, ys, _ in row), default=1)
    for da, xrow in arows:
        terms = [(brows[k], xs, gx) for k, xs, gx in xrow if xs]
        ell = math.lcm(*(db for (db, _), _, _ in terms))
        width = max((len(xs) for _, xs, _ in terms), default=1) + ywidth - 1
        acc = [0] * (cols * width)
        grade = [-1] * cols
        for (db, yrow), xs, gx in terms:
            if db != ell:
                xs = [x * (ell // db) for x in xs]
            for j, ys, gy in yrow:
                if grade[j] < gx + gy:
                    grade[j] = gx + gy
                for s, cx in enumerate(xs, j * width):
                    if cx:
                        for t, cy in enumerate(ys, s):
                            acc[t] += cx * cy
        row = [(j, acc[j * width:(j + 1) * width], g) for j, g in enumerate(grade) if g >= 0]
        for _, cs, _ in row:
            while cs and not cs[-1]:
                cs.pop()
        yield da * ell, row


def polymatrix_mul(a: PolyMatrix, b: PolyMatrix, *rest: PolyMatrix) -> PolyMatrix:
    """Exact product a @ b @ ... of polynomial matrices, each product on
    integer rows (`_row_products`).  Only the result's entries are made,
    by one gcd each; one with no nonzero term is a zero of grade 0."""
    rows, cols = _int_rows(a), a.cols
    for f in (b, *rest):
        if f.rows != cols:
            raise DimensionMismatch(f"{a.rows}x{cols} @ {f.rows}x{f.cols}")
        rows, cols = _row_products(rows, _int_rows(f), f.cols), f.cols
    out = [PolyMatrix._zero] * (a.rows * cols)
    for i, (den, row) in enumerate(rows):
        for j, cs, grade in row:
            out[i * cols + j] = _poly_from_ints(cs, den, grade)
    return PolyMatrix(a.rows, cols, out)


def _interp_at_integers(values: list[int], den: int) -> PolyQ:
    """The polynomial p of degree < len(values) with p(z) = values[z] / den
    at z = 0, 1, ..., len(values)-1.

    With D = len(values)-1, the Newton forward differences d_k of the values
    give D! p(z) = sum_k d_k (D!/k!) z(z-1)...(z-k+1), which is expanded on
    ints by nested multiplication and put over D! den by one gcd.
    """
    d = len(values) - 1
    diffs = list(values)
    newton = [diffs[0]]
    for k in range(1, d + 1):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        newton.append(diffs[0])
    # acc = newton[d], then acc = acc * (z - k) + newton[k] * D!/k! for k < d
    acc = [newton[d]]
    weight = 1
    for k in range(d - 1, -1, -1):
        weight *= k + 1
        acc = [0] + acc
        for i in range(len(acc) - 1):
            acc[i] -= k * acc[i + 1]
        acc[0] += newton[k] * weight
    den *= weight
    return _poly_from_ints(acc, den)


def _det_degree_bound(m: PolyMatrix) -> int:
    """Row/column-wise degree bound for det(m); -1 when det is forced zero."""
    row_bound = 0
    for i in range(m.rows):
        d = max((e.degree for e in m.row(i)), default=-1)
        if d < 0:
            return -1
        row_bound += d
    col_bound = 0
    for j in range(m.cols):
        d = max((m.get(i, j).degree for i in range(m.rows)), default=-1)
        if d < 0:
            return -1
        col_bound += d
    return min(row_bound, col_bound)


def _assignment_bound(m: PolyMatrix) -> int:
    """max over permutations s of sum_i deg m[i, s(i)], the largest degree of
    a nonzero term of the Leibniz sum; -1 when every term is zero.

    This bounds deg det(m) and is never looser than `_det_degree_bound`.
    It is found as a minimum-cost assignment by the Hungarian method (Kuhn,
    Naval Res. Logist. Q. 2, 1955) in O(N^3), with cost -deg on a nonzero
    entry and a cost on a zero entry that no assignment avoiding zeros can
    reach.  It does not bound the degree of the adjugate.
    """
    n = m.rows
    top = max(m.max_degree(), 0)
    forbidden = n * top + 1
    cost = [[0] * (n + 1)] + [
        [0] + [-e.degree if e.ints else forbidden for e in m.row(i)] for i in range(n)]
    # 1-indexed potentials u (rows), v (columns); p[j] is the row given column j
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while p[j0]:
            used[j0] = True
            i0 = p[j0]
            row = cost[i0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    picked = [cost[p[j]][j] for j in range(1, n + 1)]
    return -1 if forbidden in picked else -sum(picked)


def polymatrix_det(m: PolyMatrix) -> PolyQ:
    """Exact determinant via evaluation at integer points and interpolation.

    Each row is scaled to integer polynomials once; they are evaluated by
    integer Horner at z = 0..D, with D = `_assignment_bound(m)`, each value
    is an integer Bareiss determinant, and the values are interpolated and
    divided by the product of the row scales once.
    """
    if not m.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    if m.rows == 0:
        return POLY_ONE
    bound = _assignment_bound(m)
    if bound < 0:
        return PolyQ.zero()
    rows = [_integer_coeffs(m.row(i)) for i in range(m.rows)]
    scale = math.prod(den for _, den in rows)
    values = []
    for x in range(bound + 1):
        at_x = []
        for polys, _ in rows:
            vals = []
            for cs in polys:
                acc = 0
                for c in reversed(cs):
                    acc = acc * x + c
                vals.append(acc)
            at_x.append(vals)
        values.append(_bareiss_int(at_x))
    return _interp_at_integers(values, scale).with_grade(bound)


def is_unimodular(m: PolyMatrix) -> tuple[bool, Fraction | None]:
    """Whether det(m) is a nonzero constant; returns (flag, unit)."""
    d = polymatrix_det(m)
    if d.degree == 0:
        return True, d.coeff(0)
    return False, None


def unit_by_inverse(m: PolyMatrix, x: PolyMatrix) -> Fraction | None:
    """det(m) when x @ m = I, which proves m unimodular; None otherwise.

    det(x) det(m) = 1 in Q[z] forces det(m) to be a constant, so it is
    det(m(0)): one integer Bareiss determinant of the constant terms of
    m's integer rows over the product of their denominators.  The rows of
    x @ m come from the same integer rows by `_row_products`, with no
    PolyQ, and the check stops at the first row that is not the identity's.
    """
    n = m.rows
    if not (m.is_square and x.is_square and x.rows == n):
        return None
    mrows = _int_rows(m)
    for i, (den, row) in enumerate(_row_products(_int_rows(x), mrows, n)):
        if [(j, cs) for j, cs, _ in row if cs] != [(i, [den])]:
            return None
    consts = [[0] * n for _ in range(n)]
    for const, (_, row) in zip(consts, mrows):
        for j, ys, _ in row:
            const[j] = ys[0]
    return Fraction(_bareiss_int(consts), math.prod(den for den, _ in mrows))


def polymatrix_inverse_unimodular(m: PolyMatrix) -> PolyMatrix:
    """Exact inverse of a unimodular polynomial matrix, by z-adic lifting.

    With m = sum_j M_j z^j of degree d, X0 = M_0^-1 and N_j = -X0 M_j, the
    inverse's terms are X_k = sum_{1<=j<=min(k,d)} N_j X_{k-j}, one product
    of [N_1 | ... | N_d] with the last d terms stacked.  So once d terms in
    a row are zero every later one is, and the lifted series is the exact
    inverse: the zero run is the proof.  The inverse of a unimodular m has
    degree at most `_det_degree_bound(m)`, which bounds the adjugate
    (`_assignment_bound` does not: [[1, z^5], [0, 1]] has assignment bound
    0 and an inverse of degree 5), so the run ends by term bound + d.  A
    singular M_0, or no run by then, refutes unimodularity.
    """
    if not m.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    d = max(m.max_degree(), 0)
    # row i of [M_0 | M_1 | ... | M_d] over one denominator, from the integer forms
    wide = [(den, [(j * n + c, xs[j]) for j in range(d + 1) for c, xs, _ in row
                   if j < len(xs) and xs[j]]) for den, row in _int_rows(m)]
    x0 = ConstMatrix._from_form(n, n, [_lowest(den, [(c, x) for c, x in pairs if c < n])
                                       for den, pairs in wide]).try_inverse()
    if x0 is None:
        raise NotUnimodular("matrix is not unimodular: m(0) is singular")
    if d == 0:
        return PolyMatrix.from_const(x0)
    step = x0 @ ConstMatrix._from_form(
        n, n * d, [_lowest(-den, [(c - n, x) for c, x in pairs if c >= n]) for den, pairs in wide])
    lifted, zero_run = [x0], 0
    window = x0._form + [(1, [])] * (n * (d - 1))  # row forms of X_{k-1}, ..., X_{k-d}
    for _ in range(_det_degree_bound(m) + d):
        x = step @ ConstMatrix._from_form(n * d, n, window)
        lifted.append(x)
        zero_run = zero_run + 1 if x.is_zero else 0
        if zero_run == d:
            return PolyMatrix.from_coeffs(lifted[:-d])
        window = x._form + window[:-n]
    raise NotUnimodular("matrix is not unimodular: no deg m zero terms in a row by the bound")
