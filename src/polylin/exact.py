"""Exact constant and polynomial-matrix arithmetic over Q.

The scalars and polynomials underneath live in `poly`; its public names
are re-exported here.  Every value is immutable after construction and
every operation is a pure function, so all of this is safe to call
concurrently.  (A ConstMatrix or PolyMatrix may fill in its entries or
its row form on first read; either is a function of the other, so a
second thread that makes it too makes the same value.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .errors import DimensionMismatch, NotUnimodular
from .poly import (  # noqa: F401  (POLY_Z, poly_gcd and sub_mul are re-exported)
    POLY_ONE,
    POLY_Z,
    ZERO,
    PolyQ,
    _bareiss_int,
    _convolve,
    _interp_at_integers,
    _poly_from_ints,
    _pseudo_divide,
    as_fraction,
    poly_gcd,
    sub_mul,
)

ONE = Fraction(1)


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

    The subclasses fix the entry type (`_coerce`, `_zero`, `_one`), the
    integer row form of a row of entries and the entries of a row form
    (`_form_row`, `_row_entries`), and add the algebra of that type on
    row forms; the grid code is shared.  Entries and row form are each
    made from the other on first use, by `__getattr__`, and then kept.
    """

    __slots__ = ("rows", "cols", "entries", "_form")

    def __init__(self, rows: int, cols: int, entries):
        entries = self._coerce(tuple(entries))
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getattr__(self, name):
        # reached only while the slot `name` is unset
        c = self.cols
        if name == "_form":
            value = [self._form_row(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]
        elif name == "entries":
            value = tuple(x for row in self._form for x in self._row_entries(row, c))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    # -- constructors -------------------------------------------------
    @classmethod
    def _from_form(cls, rows: int, cols: int, form: list):
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_form", form)
        return m

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
        rows equally long, on the blocks' row forms (`_assemble`)."""
        if any(len(row) != len(grid[0]) for row in grid):
            raise DimensionMismatch("ragged block grid")
        if any(blk is not None and (blk.rows, blk.cols) != (n, n) for row in grid for blk in row):
            raise DimensionMismatch("inconsistent block size")
        return cls._assemble(grid, n)

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

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

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

    __slots__ = ()
    _zero = ZERO
    _one = ONE
    _form_row = staticmethod(_row_form)

    @staticmethod
    def _coerce(entries: tuple) -> tuple:
        if set(map(type, entries)) - {Fraction}:
            return tuple(as_fraction(x) for x in entries)
        return entries

    @staticmethod
    def _row_entries(row, cols: int) -> list:
        den, pairs = row
        out = [ZERO] * cols
        for j, x in pairs:
            out[j] = Fraction(x, den)
        return out

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


def _trimmed(xs: list) -> tuple:
    """xs without its trailing zeros, as a tuple."""
    n = len(xs)
    while n and not xs[n - 1]:
        n -= 1
    return tuple(xs[:n])


def _poly_row(den: int, pairs: list, grades) -> tuple:
    """The row form (d, pairs, grades) of the (column, ints) pairs over den
    (den nonzero, each ints a tuple ending in a nonzero int), by one gcd."""
    g = math.gcd(den, *(x for _, xs in pairs for x in xs))
    if den < 0:
        g = -g
    if g == 1:
        return den, pairs, grades
    return den // g, [(j, tuple([x // g for x in xs])) for j, xs in pairs], grades


class PolyMatrix(_Matrix):
    """Immutable rectangular matrix with PolyQ entries.

    Its integer representation is its row form, as a ConstMatrix's is: row
    i is (d, pairs, grades), d > 0 with gcd(d, all the row's ints) = 1,
    pairs the row's nonzero entries as (column, ints) with ints the
    coefficients times d, lowest first and ending in a nonzero int, and
    grades the grade of every entry, zeros too.  The form is canonical but
    for the grades, which equality does not compare (as PolyQ's does not).
    The constructors and kernels build and read row forms; the PolyQ
    entries are made from the form on first read (`entries`, `get`, `row`,
    hashing) and then kept.
    """

    __slots__ = ()
    _zero = PolyQ.zero()
    _one = POLY_ONE

    @staticmethod
    def _coerce(entries: tuple) -> tuple:
        if set(map(type, entries)) - {PolyQ}:
            return tuple(e if isinstance(e, PolyQ) else PolyQ((e,)) for e in entries)
        return entries

    @staticmethod
    def _form_row(entries) -> tuple:
        """Each entry's ints over the lcm d of their denominators; a prime
        that divides d divides some entry's denominator to the full power,
        and not all of that entry's ints, so the row is canonical as made."""
        den = math.lcm(*(p.den for p in entries))
        return den, [(j, p.ints if p.den == den else tuple([x * (den // p.den) for x in p.ints]))
                     for j, p in enumerate(entries) if p.ints], tuple(p.grade for p in entries)

    @staticmethod
    def _row_entries(row, cols: int) -> list:
        den, pairs, grades = row
        ints = dict(pairs)
        return [_poly_from_ints(ints[j], den, g) if j in ints else PolyQ.zero(g)
                for j, g in enumerate(grades)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a[:2] == b[:2] for a, b in zip(self._form, other._form))

    __hash__ = _Matrix.__hash__  # entry-based: equal matrices have equal entries

    @property
    def is_zero(self) -> bool:
        return not any(pairs for _, pairs, _ in self._form)

    def __repr__(self):
        return f"PolyMatrix({[[str(e) for e in r] for r in self.to_rows()]})"

    # -- constructors -------------------------------------------------
    @classmethod
    def scalar(cls, n: int, p: PolyQ) -> "PolyMatrix":
        """p times the n-by-n identity; the zeros are of grade 0."""
        zeros = (0,) * n
        return cls._from_form(n, n, [(p.den, [(i, p.ints)] if p.ints else [],
                                      zeros[:i] + (p.grade,) + zeros[i + 1:]) for i in range(n)])

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls.scalar(n, POLY_ONE)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls._from_form(rows, cols, [(1, [], (0,) * cols)] * rows)

    @classmethod
    def from_coeffs(cls, blocks, grade: int | None = None) -> "PolyMatrix":
        """sum_k blocks[k] z^k for equally shaped constant blocks; every
        entry gets the stated grade, or by default its degree.

        Read from the blocks' row forms: row i of every block over the lcm
        d of their row-i denominators gives each entry of row i its ints
        over d, canonical as made (see `ConstMatrix._assemble`)."""
        rows, cols, k = blocks[0].rows, blocks[0].cols, len(blocks)
        form = []
        for forms in zip(*(b._form for b in blocks)):
            den = math.lcm(*(d for d, _ in forms))
            row = [None] * cols
            for e, (d, pairs) in enumerate(forms):
                for j, x in pairs:
                    if row[j] is None:
                        row[j] = [0] * k
                    row[j][e] = x * (den // d)
            pairs = [(j, _trimmed(xs)) for j, xs in enumerate(row) if xs is not None]
            if grade is None:
                grades = [0] * cols
                for j, xs in pairs:
                    grades[j] = len(xs) - 1
            elif any(len(xs) > grade + 1 for _, xs in pairs):
                raise ValueError(f"grade {grade} smaller than the degree of an entry")
            else:
                grades = (grade,) * cols
            form.append((den, pairs, grades))
        return cls._from_form(rows, cols, form)

    @classmethod
    def from_const(cls, m: ConstMatrix) -> "PolyMatrix":
        return cls.from_coeffs([m])

    @classmethod
    def _assemble(cls, grid, n: int) -> "PolyMatrix":
        """Row r of block row bi: row r of each block moved to its block's
        columns, over the lcm d of those rows' denominators, canonical as
        made (see `ConstMatrix._assemble`); a zero block adds grade-0 zeros."""
        zeros = (0,) * n
        form = []
        for row in grid:
            for r in range(n):
                parts = [(bj * n, blk._form[r]) for bj, blk in enumerate(row) if blk is not None]
                den = math.lcm(*(f[0] for _, f in parts))
                form.append((den, [(off + j, xs if d == den else tuple([x * (den // d) for x in xs]))
                                   for off, (d, pairs, _) in parts for j, xs in pairs],
                             tuple(chain.from_iterable(zeros if blk is None else blk._form[r][2]
                                                       for blk in row))))
        return cls._from_form(len(grid) * n, len(grid[0]) * n, form)

    @classmethod
    def hstack(cls, parts) -> "PolyMatrix":
        """Columns lo..hi-1 of each (matrix, lo, hi) of parts, side by side
        (the matrices have equal row counts): each row over the lcm of the
        rows' denominators, by one gcd."""
        form = []
        for rows in zip(*(m._form for m, _, _ in parts)):
            den = math.lcm(*(d for d, _, _ in rows))
            pairs, grades, off = [], [], 0
            for (d, ps, gs), (_, lo, hi) in zip(rows, parts):
                s = den // d
                pairs += [(off + j - lo, xs if s == 1 else tuple([s * x for x in xs]))
                          for j, xs in ps if lo <= j < hi]
                grades += gs[lo:hi]
                off += hi - lo
            form.append(_poly_row(den, pairs, grades))
        return cls._from_form(parts[0][0].rows, sum(hi - lo for _, lo, hi in parts), form)

    def block(self, i: int, j: int, n: int) -> "PolyMatrix":
        rows = PolyMatrix._from_form(n, self.cols, self._form[i * n:(i + 1) * n])
        return PolyMatrix.hstack([(rows, j * n, (j + 1) * n)])

    def with_grade(self, grade: int) -> "PolyMatrix":
        """The same matrix with every entry of the stated grade."""
        if self.max_degree() > grade:
            raise ValueError(f"grade {grade} smaller than the degree of an entry")
        return PolyMatrix._from_form(self.rows, self.cols,
                                     [(d, pairs, (grade,) * self.cols) for d, pairs, _ in self._form])

    def evaluate(self, x) -> ConstMatrix:
        """m(x), built as a row form: entry j of a row of largest degree D,
        of degree D_j, is sum_k ints[k] u^k w^(D_j-k) w^(D-D_j) over
        d w^D by integer Horner, x = u/w, and the row is brought to its
        row form by one gcd."""
        u, w = as_fraction(x).as_integer_ratio()
        form = []
        for den, pairs, _ in self._form:
            top = max((len(xs) for _, xs in pairs), default=1)
            vals = []
            for j, xs in pairs:
                acc, pw = 0, 1
                for c in reversed(xs):
                    acc = acc * u + c * pw
                    pw *= w
                if acc:
                    vals.append((j, acc * w ** (top - len(xs))))
            form.append(_lowest(den * w ** (top - 1), vals))
        return ConstMatrix._from_form(self.rows, self.cols, form)

    def max_degree(self) -> int:
        return max((len(xs) for _, pairs, _ in self._form for _, xs in pairs), default=0) - 1

    # -- arithmetic ---------------------------------------------------
    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return polymatrix_mul(self, other)

    def __add__(self, other: "PolyMatrix", sign: int = 1) -> "PolyMatrix":
        """self + sign * other, each row over the lcm of the two
        denominators, by one gcd; each grade the larger of the two."""
        self._same_shape(other)
        form = []
        for (da, xs, ga), (db, ys, gb) in zip(self._form, other._form):
            den = math.lcm(da, db)
            ma, mb = den // da, sign * (den // db)
            acc = {j: [ma * x for x in cs] for j, cs in xs}
            for j, cs in ys:
                out = acc.setdefault(j, [])
                out.extend([0] * (len(cs) - len(out)))
                for k, c in enumerate(cs):
                    out[k] += mb * c
            pairs = [(j, _trimmed(acc[j])) for j in sorted(acc)]
            form.append(_poly_row(den, [(j, cs) for j, cs in pairs if cs], tuple(map(max, ga, gb))))
        return PolyMatrix._from_form(self.rows, self.cols, form)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.__add__(other, -1)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix._from_form(self.rows, self.cols, [
            (d, [(j, tuple([-x for x in xs])) for j, xs in pairs], g) for d, pairs, g in self._form])

    def scale(self, c) -> "PolyMatrix":
        p, q = as_fraction(c).as_integer_ratio()
        return PolyMatrix._from_form(self.rows, self.cols, [
            _poly_row(d * q, [(j, tuple([p * x for x in xs])) for j, xs in pairs if p], g)
            for d, pairs, g in self._form])

    def scale_poly(self, p: PolyQ) -> "PolyMatrix":
        """p times each entry, of grade p.grade plus the entry's."""
        return PolyMatrix._from_form(self.rows, self.cols, [
            _poly_row(d * p.den, [(j, tuple(_convolve(xs, p.ints))) for j, xs in pairs if p.ints],
                      tuple([g + p.grade for g in gs])) for d, pairs, gs in self._form])

    def exact_div(self, p: PolyQ) -> "PolyMatrix":
        """Each entry divided by p, which must divide it (ValueError
        otherwise); each quotient of grade its degree, as PolyQ.exact_div
        gives it.  Entry j of a row over d is ints_j / d, and integer
        pseudo-division gives s_j ints_j = Q_j p.ints; over the lcm S of
        the row's s_j, its quotient is Q_j (S / s_j) p.den / (S d)."""
        if not p.ints:
            raise ZeroDivisionError("polynomial division by zero")
        form = []
        for den, pairs, _ in self._form:
            quots = []
            for j, xs in pairs:
                q, rem, s = _pseudo_divide(list(xs), p.ints)
                if any(rem):
                    raise ValueError("inexact polynomial division")
                quots.append((j, q, s))
            scale = math.lcm(*(s for _, _, s in quots))
            grades = [0] * self.cols
            for j, q, _ in quots:
                grades[j] = len(q) - 1
            form.append(_poly_row(den * scale, [(j, tuple([scale // s * p.den * x for x in q]))
                                                for j, q, s in quots], grades))
        return PolyMatrix._from_form(self.rows, self.cols, form)


def _read_rows(m: PolyMatrix) -> tuple[int, list, int]:
    """m over one denominator d, the lcm of its n row denominators, as
    (d, rows, l1): row i is (s, pairs, grades) from its row form (d_i,
    pairs, grades), s = d / d_i, entry j being ints * s / d, and l1 is the
    largest sum of |x * s| over the ints x of a row."""
    den = math.lcm(*(d for d, _, _ in m._form))
    rows = [(den // d, pairs, grades) for d, pairs, grades in m._form]
    return den, rows, max((s * sum(sum(map(abs, xs)) for _, xs in pairs) for s, pairs, _ in rows),
                          default=0)


def _packed_bits(factors, floor: int = 0) -> int:
    """bits with every coefficient of every product of the factors (from
    `_read_rows`), and floor, below 2**(bits-1) in size.

    Over the common denominators a row of a @ b has l1 norm at most the
    row's l1 in a times the largest row l1 of b, so the l1 norms of the
    factors, each at least 1, multiply to a bound on every coefficient of
    the chain's products and of the factors themselves."""
    return max(math.prod(max(l1, 1) for _, _, l1 in factors), floor).bit_length() + 1


def _pack_rows(rows, bits: int) -> list[list]:
    """Each entry (j, ints) of the rows (s, pairs, grades) as (j, v, grade),
    v being s times the integer polynomial's value at 2**bits (Kronecker
    substitution), by Horner on shifts."""
    out = []
    for s, pairs, grades in rows:
        packed = []
        for j, xs in pairs:
            v = 0
            for x in reversed(xs):
                v = (v << bits) + x
            packed.append((j, v * s, grades[j]))
        out.append(packed)
    return out


def _row_times(row, frows, cols: int) -> list:
    """A packed row times the packed rows frows of a factor with cols
    columns, as (j, v, grade) over every column j with a nonzero term: one
    integer product per pair of entries.  An entry's grade is the largest
    x.grade + y.grade over its nonzero terms; one whose terms cancel has
    v = 0 and keeps that grade, and adds no term to a further product."""
    acc = [0] * cols
    grade = [-1] * cols
    for k, vx, gx in row:
        if vx:
            for j, vy, gy in frows[k]:
                acc[j] += vx * vy
                if grade[j] < gx + gy:
                    grade[j] = gx + gy
    return [(j, acc[j], g) for j, g in enumerate(grade) if g >= 0]


def _unpack(v: int, bits: int) -> tuple:
    """The balanced base-2**bits digits of v, lowest first: the ints of the
    one polynomial whose value at 2**bits is v and whose ints are all below
    2**(bits-1) in size.  The last digit is nonzero."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while v:
        c = v & mask
        v >>= bits
        if c >= half:
            c -= mask + 1
            v += 1
        digits.append(c)
    return tuple(digits)


def polymatrix_mul(a: PolyMatrix, b: PolyMatrix, *rest: PolyMatrix) -> PolyMatrix:
    """Exact product a @ b @ ... of polynomial matrices by Kronecker
    substitution (Kronecker 1882; Harvey, J. Symbolic Comput. 44, 2009).

    Each factor's row forms are put over one denominator (`_read_rows`)
    and each entry packed into one integer, its value at z = 2**bits
    (`_pack_rows`), with bits chosen once from a bound on every
    coefficient of the chain (`_packed_bits`); so each product of two
    entries is one integer product (`_row_times`), and intermediate
    products stay packed.  Only the result is unpacked, by balanced
    digits, into row forms, by one gcd a row; an entry with no nonzero
    term is a zero of grade 0."""
    chain = (a, b, *rest)
    for f, g in zip(chain, chain[1:]):
        if g.rows != f.cols:
            raise DimensionMismatch(f"{a.rows}x{f.cols} @ {g.rows}x{g.cols}")
    factors = [_read_rows(f) for f in chain]
    bits = _packed_bits(factors)
    rows = _pack_rows(factors[0][1], bits)
    for f, (_, frows, _) in zip(chain[1:], factors[1:]):
        frows = _pack_rows(frows, bits)
        rows = [_row_times(row, frows, f.cols) for row in rows]
    den, cols = math.prod(d for d, _, _ in factors), chain[-1].cols
    form = []
    for row in rows:
        grades = [0] * cols
        for j, _, g in row:
            grades[j] = g
        form.append(_poly_row(den, [(j, _unpack(v, bits)) for j, v, _ in row if v], grades))
    return PolyMatrix._from_form(a.rows, cols, form)


def _det_degree_bound(m: PolyMatrix) -> int:
    """Row/column-wise degree bound for det(m); -1 when det is forced zero."""
    row_bound = 0
    col = [-1] * m.cols
    for _, pairs, _ in m._form:
        if not pairs:
            return -1
        row_bound += max(len(xs) for _, xs in pairs) - 1
        for j, xs in pairs:
            col[j] = max(col[j], len(xs) - 1)
    return -1 if -1 in col else min(row_bound, sum(col))


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
    forbidden = n * max(m.max_degree(), 0) + 1
    cost = [[0] * (n + 1)]
    for _, pairs, _ in m._form:
        row = [0] + [forbidden] * n
        for j, xs in pairs:
            row[j + 1] = 1 - len(xs)
        cost.append(row)
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

    The rows of the row form are integer polynomials over their
    denominators; they are evaluated by integer Horner at z = 0..D, with
    D = `_assignment_bound(m)`, each value is an integer Bareiss
    determinant, and the values are interpolated and divided by the
    product of the row denominators once.
    """
    if not m.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    if m.rows == 0:
        return POLY_ONE
    bound = _assignment_bound(m)
    if bound < 0:
        return PolyQ.zero()
    n = m.rows
    values = []
    for x in range(bound + 1):
        at_x = []
        for _, pairs, _ in m._form:
            vals = [0] * n
            for j, cs in pairs:
                acc = 0
                for c in reversed(cs):
                    acc = acc * x + c
                vals[j] = acc
            at_x.append(vals)
        values.append(_bareiss_int(at_x))
    return _interp_at_integers(values, math.prod(d for d, _, _ in m._form), bound)


def is_unimodular(m: PolyMatrix) -> tuple[bool, Fraction | None]:
    """Whether det(m) is a nonzero constant; returns (flag, unit)."""
    d = polymatrix_det(m)
    if d.degree == 0:
        return True, d.coeff(0)
    return False, None


def unit_by_inverse(m: PolyMatrix, x: PolyMatrix) -> Fraction | None:
    """det(m) when x @ m = I, which proves m unimodular; None otherwise.

    det(x) det(m) = 1 in Q[z] forces det(m) to be a constant, so it is
    det(m(0)): one integer Bareiss determinant of the constant terms of m
    over its denominator d, divided by d**n.  The rows of x @ m are the
    packed products of `polymatrix_mul`, over the product D of the two
    denominators, and are never unpacked: bits also bounds D, so a packed
    value is 0 exactly when its polynomial is and D exactly when it is the
    constant D.  No PolyQ is made, and the check stops at the first row
    that is not the identity's.
    """
    n = m.rows
    if not (m.is_square and x.is_square and x.rows == n):
        return None
    factors = _read_rows(x), _read_rows(m)
    (dx, xrows, _), (dm, mrows, _) = factors
    den = dx * dm
    bits = _packed_bits(factors, den)
    mpacked = _pack_rows(mrows, bits)
    for i, row in enumerate(_pack_rows(xrows, bits)):
        if [(j, v) for j, v, _ in _row_times(row, mpacked, n) if v] != [(i, den)]:
            return None
    consts = [[0] * n for _ in range(n)]
    for const, (s, pairs, _) in zip(consts, mrows):
        for j, ys in pairs:
            const[j] = ys[0] * s
    return Fraction(_bareiss_int(consts), dm ** n)


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
    # row i of M_0 and of [M_1 | ... | M_d], from the row forms
    x0 = ConstMatrix._from_form(n, n, [_lowest(den, [(c, xs[0]) for c, xs in pairs if xs[0]])
                                       for den, pairs, _ in m._form]).try_inverse()
    if x0 is None:
        raise NotUnimodular("matrix is not unimodular: m(0) is singular")
    if d == 0:
        return PolyMatrix.from_const(x0)
    step = x0 @ ConstMatrix._from_form(n, n * d, [
        _lowest(-den, [(j * n + c - n, xs[j]) for j in range(1, d + 1) for c, xs in pairs
                       if j < len(xs) and xs[j]]) for den, pairs, _ in m._form])
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
