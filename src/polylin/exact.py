"""Exact scalar, polynomial, and polynomial-matrix arithmetic over Q.

Every value is immutable after construction and every operation is a pure
function, so all of this is safe to call concurrently.  (A ConstMatrix may
fill in its entries or its row form on first read; either is a function of
the other, so a second thread that makes it too makes the same value.)
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, NotUnimodular

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to a Fraction.

    Floats are rejected: binary floats would silently corrupt exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class PolyQ:
    """Dense univariate polynomial over Q with an explicit grade.

    Coefficient k is the coefficient of z^k.  The grade is a declared
    degree bound: it is carried through arithmetic and never re-inferred
    from trailing zeros, so a polynomial can be "of grade 5" while having
    degree 2.  The degree of the zero polynomial is the sentinel -1.
    """

    __slots__ = ("coeffs", "grade")

    def __init__(self, coeffs=(), grade: int | None = None):
        cs = list(coeffs)
        if set(map(type, cs)) - {Fraction}:
            cs = [as_fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        degree = len(cs) - 1
        if grade is None:
            grade = max(degree, 0)
        elif grade < degree:
            raise ValueError(f"grade {grade} smaller than degree {degree}")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "grade", int(grade))

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, grade: int = 0) -> "PolyQ":
        return cls((), grade)

    @classmethod
    def constant(cls, c, grade: int = 0) -> "PolyQ":
        return cls((c,), grade)

    @classmethod
    def monomial(cls, k: int, c=1, grade: int | None = None) -> "PolyQ":
        return cls((0,) * k + (c,), grade)

    # -- inspection ---------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else ZERO

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def padded(self, grade: int | None = None) -> list[Fraction]:
        """Coefficient list of length grade+1, trailing zeros included."""
        if grade is None:
            grade = self.grade
        if grade < self.degree:
            raise ValueError("padding grade smaller than degree")
        return [self.coeff(k) for k in range(grade + 1)]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [self.coeff(k) + other.coeff(k) for k in range(n)]
        return PolyQ(cs, max(self.grade, other.grade))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [self.coeff(k) - other.coeff(k) for k in range(n)]
        return PolyQ(cs, max(self.grade, other.grade))

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs], self.grade)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        """Exact product of grade self.grade + other.grade.

        Both operands are scaled to integers once, convolved on ints, and
        each output coefficient is divided once.  A constant operand
        multiplies the other's Fractions directly, which is cheaper.
        """
        grade = self.grade + other.grade
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            return PolyQ.zero(grade)
        if len(a) == 1 or len(b) == 1:
            c, xs = (a[0], b) if len(a) == 1 else (b[0], a)
            return PolyQ([c * x for x in xs], grade)
        xs, da = _integer_row(a)
        ys, db = _integer_row(b)
        return _poly_from_ints(_convolve(xs, ys), da * db, grade)

    def scale(self, c) -> "PolyQ":
        c = as_fraction(c)
        return PolyQ([c * x for x in self.coeffs], self.grade)

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """Quotient and remainder, each of grade equal to its degree.

        With both operands scaled to integers N / dn and D / dv,
        `_pseudo_divide` finds ints Q, R and s with s * N = Q * D + R; then
        q = Q * dv / (s * dn) and r = R / (s * dn).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return PolyQ.zero(), self
        num, dn = _integer_row(self.coeffs)
        den, dv = _integer_row(other.coeffs)
        quot, rem, s = _pseudo_divide(num, den)
        return (_poly_from_ints([dv * x for x in quot], dn * s),
                _poly_from_ints(rem, dn * s))

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"inexact polynomial division: remainder {r}")
        return q

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        return self.scale(1 / self.lead)

    def derivative(self) -> "PolyQ":
        cs = [k * c for k, c in enumerate(self.coeffs)][1:]
        return PolyQ(cs, max(self.grade - 1, 0))

    def with_grade(self, grade: int) -> "PolyQ":
        return PolyQ(self.coeffs, grade)

    # -- comparison / output -------------------------------------------
    def __eq__(self, other) -> bool:
        # equality of values; the grade is bookkeeping and not compared
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    body = zk
                elif c == -1:
                    body = f"-{zk}"
                else:
                    body = f"{c}*{zk}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"PolyQ({self})"


POLY_ONE = PolyQ((1,))
POLY_Z = PolyQ((0, 1))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over Q[z]; gcd(0, 0) = 0.

    A primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967; Knuth,
    TAOCP vol. 2, 4.6.1): both operands are scaled to integers, and each
    pseudo-remainder is divided by the gcd of its coefficients, so the loop
    runs on ints that the division keeps small, with no Fraction
    arithmetic.  The last nonzero remainder is divided by its lead, one
    Fraction per coefficient.
    """
    xs = _integer_row(a.coeffs)[0]
    ys = _integer_row(b.coeffs)[0]
    while ys:
        rem = _pseudo_divide(xs, ys)[1]
        while rem and not rem[-1]:
            rem.pop()
        if rem:
            c = math.gcd(*rem)
            rem = [x // c for x in rem]
        xs, ys = ys, rem
    return _poly_from_ints(xs, xs[-1]) if xs else PolyQ.zero()


def _pseudo_divide(num: list[int], den: list[int]) -> tuple[list[int], list[int], int]:
    """Ints Q, R and s with s * num = Q * den + R and len(R) < len(den), by
    integer pseudo-division (Knuth, TAOCP vol. 2, 4.6.1); num is overwritten.

    A step whose top coefficient t the lead l of den does not divide first
    multiplies the partial remainder, the quotient so far and s by
    l / gcd(t, l), so no step rescales when l is 1.  R may end in zeros.
    """
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - dd, 0)
    s = 1
    for k in range(len(num) - dd - 1, -1, -1):
        top = num[dd + k]
        if not top:
            continue
        c, rem = divmod(top, lead)
        if rem:
            m = lead // math.gcd(top, lead)
            num = [m * x for x in num]
            quot = [m * x for x in quot]
            s *= m
            c = top * m // lead
        quot[k] = c
        for j, y in enumerate(den, k):
            num[j] -= c * y
    return quot, num[:dd], s


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


def _integer_row(xs) -> tuple[list[int], int]:
    """The Fractions xs times their common denominator d, as ints, and d."""
    pairs = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*(d for _, d in pairs))
    return [p * (den // d) for p, d in pairs], den


def _row_form(xs) -> tuple[int, list[tuple[int, int]]]:
    """The row form of a row of Fractions: its nonzero entries times their
    lcm d as (column, int) pairs, and d.  gcd(d, ints) = 1 since each
    entry is in lowest terms.  Most zeros are the shared ZERO, which the
    identity test skips without a call to Fraction.__bool__."""
    pairs = [(j, x.as_integer_ratio()) for j, x in enumerate(xs) if x is not ZERO and x]
    den = math.lcm(*(d for _, (_, d) in pairs))
    return den, [(j, p * (den // d)) for j, (p, d) in pairs]


def _canonical(den: int, ints: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """The row form of the row ints / den (den nonzero)."""
    pairs = [(j, x) for j, x in enumerate(ints) if x]
    g = math.gcd(den, *(x for _, x in pairs))
    if den < 0:
        g = -g
    if g == 1:
        return den, pairs
    return den // g, [(j, x // g) for j, x in pairs]


def _convolve(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients of the product of two nonempty integer polynomials."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys, i):
                out[j] += x * y
    return out


def _poly_from_ints(ints: list[int], den: int, grade: int | None = None) -> PolyQ:
    """The PolyQ with coefficients ints / den, each divided once."""
    return PolyQ([Fraction(c, den) if c else ZERO for c in ints], grade)


def sub_mul(a: PolyQ, q: PolyQ, b: PolyQ) -> PolyQ:
    """a - q * b, of grade max(a.grade, q.grade + b.grade) as the two PolyQ
    operations give, with every coefficient divided once.

    The operands are scaled to integers once; q * b is convolved on ints
    and subtracted over the least common denominator.
    """
    grade = max(a.grade, q.grade + b.grade)
    if not (q.coeffs and b.coeffs):
        return a if a.grade == grade else PolyQ(a.coeffs, grade)
    xs, dq = _integer_row(q.coeffs)
    ys, db = _integer_row(b.coeffs)
    prod = _convolve(xs, ys)
    if not a.coeffs:
        return _poly_from_ints([-c for c in prod], dq * db, grade)
    zs, da = _integer_row(a.coeffs)
    den = math.lcm(da, dq * db)
    ma, mp = den // da, den // (dq * db)
    if len(zs) < len(prod):
        zs.extend([0] * (len(prod) - len(zs)))
    out = [ma * z for z in zs] if ma != 1 else zs
    for k, c in enumerate(prod):
        out[k] -= mp * c
    return _poly_from_ints(out, den, grade)


def _reduce_rows(rows: list[list[int]], ncols: int, jordan: bool) -> tuple[list[int], int, int]:
    """Fraction-free row reduction of integer rows, in place, over their
    first ncols columns.

    The pivot of column c is the first nonzero entry at or below row r.  A
    row whose entry f in that column is zero is not touched; any other row
    below the pivot row (and above it too if jordan) becomes
    (a*row - b*pivot_row) / content, with a = pv/gcd(pv, f), b = f/gcd(pv, f)
    and content the gcd of the new entries.  A reduced row is then the
    primitive multiple of the row Bareiss elimination would hold, so no
    entry outgrows the minors of the input (its Hadamard bound).

    Returns the pivot columns and (num, den): with jordan False and a
    square input, det(input) = num/den * the product of the pivots.
    """
    m = len(rows)
    pivots = []
    num = den = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            num = -num
        pr = rows[r]
        pv = pr[c]
        support = [(j, y) for j, y in enumerate(pr) if y]
        for i in range(0 if jordan else r + 1, m):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            if a != 1:
                row = [a * x for x in row]
                den *= a
            for j, y in support:
                row[j] -= b * y
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
                num *= g
            rows[i] = row
        pivots.append(c)
        r += 1
        if r == m:
            break
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
        C = len(grid[0]) * n
        out = [cls._zero] * (len(grid) * n * C)
        for bi, row in enumerate(grid):
            for bj, blk in enumerate(row):
                if blk is None:
                    continue
                if blk.rows != n or blk.cols != n:
                    raise DimensionMismatch("inconsistent block size")
                for r in range(n):
                    start = (bi * n + r) * C + bj * n
                    out[start:start + n] = blk.entries[r * n:(r + 1) * n]
        return cls(len(grid) * n, C, out)

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
    when their row forms are.  Products, solves and determinants work on
    row forms and build their results as row forms; entries (Fractions)
    and row form are each made from the other on first use, by
    `__getattr__`, and then kept.
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

    @property
    def is_zero(self) -> bool:
        return not any(pairs for _, pairs in self._form)

    def __repr__(self):
        return f"ConstMatrix({self.to_rows()})"

    # -- arithmetic ---------------------------------------------------
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
        c = as_fraction(c)
        return ConstMatrix(self.rows, self.cols, [c * a if a else ZERO for a in self.entries])

    # -- linear algebra -------------------------------------------------
    def det(self) -> Fraction:
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        rows = [[0] * self.cols for _ in range(self.rows)]
        for row, (_, pairs) in zip(rows, self._form):
            for j, x in pairs:
                row[j] = x
        pivots, num, den = _reduce_rows(rows, self.cols, jordan=False)
        if len(pivots) < self.rows:
            return ZERO
        for i in range(self.rows):
            num *= rows[i][i]
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
    denominator from the two row forms and reduced by `_reduce_rows`
    (Gauss-Jordan), so each pivot row is left with zeros in the other
    pivot columns and each row of the solution is its own row's right-hand
    side over the pivot, built as a row form.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("solve_exact: row counts differ")
    m, n, k = a.rows, a.cols, b.cols
    aug = []
    for (da, xs), (db, ys) in zip(a._form, b._form):
        den = math.lcm(da, db)
        row = [0] * (n + k)
        for j, x in xs:
            row[j] = x * (den // da)
        for j, y in ys:
            row[n + j] = y * (den // db)
        aug.append(row)
    pivots = _reduce_rows(aug, n, jordan=True)[0]
    for i in range(len(pivots), m):
        if any(aug[i][n:]):
            return None
    form = [(1, [])] * n
    for idx, c in enumerate(pivots):
        form[c] = _canonical(aug[idx][c], aug[idx][n:])
    return ConstMatrix._from_form(n, k, form)


class PolyMatrix(_Matrix):
    """Immutable rectangular matrix with PolyQ entries."""

    __slots__ = ()
    _zero = PolyQ.zero()
    _one = POLY_ONE

    @staticmethod
    def _coerce(entries: tuple) -> tuple:
        return tuple(e if isinstance(e, PolyQ) else PolyQ((e,)) for e in entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __repr__(self):
        return f"PolyMatrix({[[str(e) for e in r] for r in self.to_rows()]})"

    @classmethod
    def from_coeffs(cls, blocks, grade: int | None = None) -> "PolyMatrix":
        """sum_k blocks[k] z^k for equally shaped constant blocks; every
        entry gets the stated grade, or by default its degree."""
        rows, cols = blocks[0].rows, blocks[0].cols
        return cls(rows, cols, [PolyQ(cs, grade) for cs in zip(*(b.entries for b in blocks))])

    @classmethod
    def from_const(cls, m: ConstMatrix) -> "PolyMatrix":
        return cls.from_coeffs([m])

    def evaluate(self, x) -> ConstMatrix:
        x = as_fraction(x)
        return ConstMatrix(self.rows, self.cols, [e(x) for e in self.entries])

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


def _integer_coeffs(polys) -> tuple[list[list[int]], int]:
    """The coefficient lists of polys times their common denominator d, as
    ints, and d."""
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys], den


def polymatrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product of polynomial matrices.

    Each row of a and each column of b is scaled to integers once; the
    products accumulate on ints and each entry is divided once.  An entry's
    grade is the largest x.grade + y.grade over its nonzero terms (0 when
    there are none), as summing the PolyQ products would give.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    arows = [_integer_coeffs(a.row(i)) for i in range(a.rows)]
    bcols = [_integer_coeffs([b.get(k, j) for k in range(b.rows)]) for j in range(b.cols)]
    out = []
    for i in range(a.rows):
        xs, da = arows[i]
        for j, (ys, db) in enumerate(bcols):
            acc = []
            grade = 0
            for k, x in enumerate(xs):
                y = ys[k]
                if not (x and y):
                    continue
                grade = max(grade, a.entries[i * a.cols + k].grade
                            + b.entries[k * b.cols + j].grade)
                if len(acc) < len(x) + len(y) - 1:
                    acc.extend([0] * (len(x) + len(y) - 1 - len(acc)))
                for s, cx in enumerate(x):
                    if cx:
                        for t, cy in enumerate(y):
                            acc[s + t] += cx * cy
            den = da * db
            out.append(PolyQ([Fraction(c, den) for c in acc], grade))
    return PolyMatrix(a.rows, b.cols, out)


def _interp_at_integers(values: list[int], den: int) -> PolyQ:
    """The polynomial p of degree < len(values) with p(z) = values[z] / den
    at z = 0, 1, ..., len(values)-1.

    With D = len(values)-1, the Newton forward differences d_k of the values
    give D! p(z) = sum_k d_k (D!/k!) z(z-1)...(z-k+1), which is expanded on
    ints by nested multiplication and divided by D! den once.
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
    return PolyQ([Fraction(c, den) for c in acc])


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
        [0] + [-e.degree if e.coeffs else forbidden for e in m.row(i)] for i in range(n)]
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


def polymatrix_inverse_unimodular(m: PolyMatrix) -> PolyMatrix:
    """Exact inverse of a unimodular polynomial matrix, by z-adic lifting.

    With m = sum_j M_j z^j of degree d and X0 = m(0)^-1, the coefficients of
    the inverse are X_k = -X0 sum_{1<=j<=d} M_j X_{k-j}.  Each term depends
    on the d before it only, so d zero terms in a row end the series, and
    lifting stops there or at `_det_degree_bound(m)`, which also bounds the
    adjugate (`_assignment_bound` does not: [[1, z^5], [0, 1]] has
    assignment bound 0 and an inverse of degree 5).  A singular m(0) refutes
    unimodularity; otherwise the product m @ inverse == I is the proof.
    """
    if not m.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    x0 = m.evaluate(0).try_inverse()
    if x0 is None:
        raise NotUnimodular("matrix is not unimodular: m(0) is singular")
    coeffs = [ConstMatrix(n, n, [e.coeff(k) for e in m.entries])
              for k in range(m.max_degree() + 1)]
    d = len(coeffs) - 1
    lifted = [x0]
    zero_run = 0
    for k in range(1, _det_degree_bound(m) + 1):
        acc = ConstMatrix.zeros(n, n)
        for j in range(1, min(k, d) + 1):
            acc = acc + coeffs[j] @ lifted[k - j]
        lifted.append(-(x0 @ acc))
        zero_run = zero_run + 1 if lifted[-1].is_zero else 0
        if zero_run == d:
            break
    result = PolyMatrix.from_coeffs(lifted)
    if polymatrix_mul(m, result) != PolyMatrix.identity(n):
        raise NotUnimodular("matrix is not unimodular: m @ inverse != I")
    return result
