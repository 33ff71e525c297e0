"""Shared independent oracles and helpers for the test suite.

These deliberately avoid the library's computational paths: determinants
here go through recursive cofactor expansion, interpolation through the
naive product form, reversals through raw monomial-coefficient
manipulation, and basis polynomials through PolyQ products rather than
the closed-form matrices Phi and Phi^-1 of `polylin.bases`, and the
JSON readers through one Fraction per entry.  `reference_reduce_rows`
keeps the dense row reduction the sparse one in `polylin.exact`
replaced, with the determinant and solve built on it, and
`reference_polymatrix_mul` the coefficient-loop product on integer rows
that Kronecker substitution replaced.

`parse_pencil` and `verify_hermite_analogue` are helpers only tests call:
the first reads `polylin pencil` output back, the second checks a
triangular factorization L = Uinv @ H on its own.  They use the library's
kernels, so they are tools, not oracles.
"""

import math
import re
from fractions import Fraction

from polylin import ConstMatrix, PolyMatrix, PolyQ
from polylin.equivalence import HermiteAnalogue
from polylin.errors import DimensionMismatch, InputError
from polylin.exact import _integer_coeffs, is_unimodular, polymatrix_mul
from polylin.pencils import Pencil
from polylin.poly import _poly_from_ints
from polylin.serialize import _shown, parse_const_matrix
from polylin.verify import Verdict, _falsified
from polylin.bases import Bernstein, Lagrange, Monomial, Recurrence, barycentric_weights, transform_blocks
from polylin.randgen import rand_const_matrix


def cofactor_det(m: PolyMatrix) -> PolyQ:
    """Recursive Laplace expansion along the first row."""
    n = m.rows
    if n == 0:
        return PolyQ((1,))
    if n == 1:
        return m.get(0, 0)
    acc = PolyQ.zero()
    for j in range(n):
        e = m.get(0, j)
        if e.is_zero:
            continue
        minor = PolyMatrix.from_rows(
            [[m.get(i, c) for c in range(n) if c != j] for i in range(1, n)]
        )
        term = e * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def naive_lagrange_interp(nodes, values) -> PolyQ:
    """Sum of values[k] * prod_{j != k} (z - t_j)/(t_k - t_j)."""
    acc = PolyQ.zero()
    for k, tk in enumerate(nodes):
        term = PolyQ((values[k],))
        for j, tj in enumerate(nodes):
            if j != k:
                term = term * PolyQ((-tj, 1)).scale(1 / (Fraction(tk) - tj))
        acc = acc + term
    return acc


def shifted_reversal_monomial(coeffs, grade: int) -> PolyQ:
    """(z+1)^grade p(1/(z+1)) = sum a_j (z+1)^(grade-j), from monomial a_j."""
    z_plus_1 = PolyQ((1, 1))
    powers = [PolyQ((1,))]
    for _ in range(grade):
        powers.append(powers[-1] * z_plus_1)
    acc = PolyQ.zero()
    for j, a in enumerate(coeffs):
        acc = acc + powers[grade - j].scale(a)
    return acc


def standard_reversal_monomial(coeffs, grade: int) -> PolyQ:
    """z^grade p(1/z): the coefficient list reversed."""
    padded = list(coeffs) + [Fraction(0)] * (grade + 1 - len(coeffs))
    return PolyQ(list(reversed(padded)))


def standard_reversal_coeffs(y: list[ConstMatrix]) -> list[ConstMatrix]:
    """Coefficients e of z^grade p(1/z) in the same Bernstein basis,
    grade = len(y) - 1: e_k = sum_m (-1)^m C(grade-k, m) y_{grade-m}."""
    grade = len(y) - 1
    t = [[(-1) ** (grade - i) * math.comb(grade - k, grade - i) for i in range(grade + 1)]
         for k in range(grade + 1)]
    return list(transform_blocks(ConstMatrix.from_rows(t), y))


def reference_reduce_rows(rows: list[list[int]], ncols: int, jordan: bool):
    """The dense row reduction exact._reduce_rows once was: full-width
    integer rows, the pivot of column c the first nonzero entry at or
    below row r, and every touched row scaled, reduced and divided over
    its whole width.  Returns the pivot columns and (num, den) as the
    sparse one does."""
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


def reference_polymatrix_mul(a: PolyMatrix, b: PolyMatrix, *rest: PolyMatrix) -> PolyMatrix:
    """The product a @ b @ ... that `polymatrix_mul` was before Kronecker
    substitution: each product on integer rows, one multiply-add per pair
    of coefficients, with every intermediate kept as integer rows.  The
    reference for values and for every entry's grade."""
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


def integer_rows(m: ConstMatrix) -> tuple[list[list[int]], int]:
    """Each row of m times its common denominator, as ints, and the
    product of the denominators."""
    rows, scale = [], 1
    for r in m.to_rows():
        pairs = [x.as_integer_ratio() for x in r]
        den = math.lcm(*(d for _, d in pairs))
        rows.append([p * (den // d) for p, d in pairs])
        scale *= den
    return rows, scale


def reference_det(m: ConstMatrix) -> Fraction:
    """ConstMatrix.det on `reference_reduce_rows`, as it once was."""
    rows, scale = integer_rows(m)
    pivots, num, den = reference_reduce_rows(rows, m.cols, jordan=False)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(num * math.prod(rows[i][i] for i in range(m.rows)), den * scale)


def reference_solve(a: ConstMatrix, b: ConstMatrix) -> ConstMatrix | None:
    """solve_exact on `reference_reduce_rows`, as it once was: Gauss-Jordan
    on the dense augmented rows [a | b], each over one denominator; x = 0
    in the free variables, None when a row left without a pivot keeps a
    nonzero right-hand side."""
    n, k = a.cols, b.cols
    aug = [integer_rows(ConstMatrix.from_rows([ra + rb]))[0][0]
           for ra, rb in zip(a.to_rows(), b.to_rows())]
    pivots = reference_reduce_rows(aug, n, jordan=True)[0]
    if any(any(row[n:]) for row in aug[len(pivots):]):
        return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for row, c in zip(aug, pivots):
        x[c] = [Fraction(y, row[c]) for y in row[n:]]
    return ConstMatrix.from_rows(x) if n else ConstMatrix.zeros(0, k)


def rand_nonsingular_const_matrix(rng, n: int) -> ConstMatrix:
    """A random n-by-n constant matrix, redrawn until it is nonsingular."""
    while True:
        m = rand_const_matrix(rng, n)
        if m.det() != 0:
            return m


def bernstein_basis_polys(grade: int) -> list[PolyQ]:
    """B_k(z) = C(grade,k) z^k (1-z)^(grade-k) as monomial coefficients."""
    one_minus_z = PolyQ((1, -1))
    power = [PolyQ((1,))]
    for _ in range(grade):
        power.append(power[-1] * one_minus_z)
    return [PolyQ.monomial(k, math.comb(grade, k)) * power[grade - k] for k in range(grade + 1)]


def recurrence_basis_polys(spec: Recurrence) -> list[PolyQ]:
    """phi_0..phi_grade unrolled from the three-term recurrence; deg phi_k = k."""
    phis = [PolyQ((1,))]
    z = PolyQ((0, 1))
    for k in range(spec.grade):
        nxt = (z - PolyQ.constant(spec.beta[k])) * phis[k]
        if k >= 1:
            nxt = nxt - phis[k - 1].scale(spec.gamma[k])
        phis.append(nxt.scale(1 / spec.alpha[k]))
    return phis


def lagrange_basis_polys(spec: Lagrange) -> list[PolyQ]:
    """w_k(z) = beta_k * w(z)/(z - tau_k), the cleared first barycentric form."""
    bary = barycentric_weights(spec.nodes)
    return [bary.node_poly.exact_div(PolyQ((-tk, 1))).scale(bary.weights[k])
            for k, tk in enumerate(spec.nodes)]


def basis_polys(basis) -> list[PolyQ]:
    """phi_0..phi_grade of any basis as PolyQ products."""
    if isinstance(basis, Monomial):
        return [PolyQ.monomial(k) for k in range(basis.grade + 1)]
    if isinstance(basis, Recurrence):
        return recurrence_basis_polys(basis)
    if isinstance(basis, Bernstein):
        return bernstein_basis_polys(basis.grade)
    return lagrange_basis_polys(basis)


def basis_values_at(basis, x) -> list[Fraction]:
    """phi_k(x) for all basis polynomials, exactly."""
    return [phi(x) for phi in basis_polys(basis)]


def matrix_poly_value(p, x) -> ConstMatrix:
    """P(x) as a constant matrix: the basis values at x as one transform row."""
    return transform_blocks(ConstMatrix.from_rows([basis_values_at(p.basis, x)]), p.coeffs)[0]


def monomial_like_recurrence(grade: int) -> Recurrence:
    """The trivial recurrence z*phi_k = phi_{k+1}, i.e. phi_k = z^k."""
    return Recurrence(grade, (1,) * grade, (0,) * grade, (0,) * grade)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def fraction_parse_frac(s) -> Fraction:
    """A JSON rational (an int, or a string "p" or "p/q") as a Fraction."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InputError(f"expected a rational string, got {_shown(s)}")
    if isinstance(s, int):
        return Fraction(s)
    match = _RATIONAL.fullmatch(s)
    if not match:
        raise InputError(f"bad rational {_shown(s)}: expected \"p\" or \"p/q\"")
    p, q = match.groups()
    try:
        return Fraction(int(p), int(q or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {_shown(s)}: {exc}") from None


def fraction_parse_const_matrix(rows) -> ConstMatrix:
    """A list of rows of JSON rationals, one Fraction per entry."""
    return ConstMatrix.from_rows([[fraction_parse_frac(x) for x in row] for row in rows])


def fraction_parse_polyq(coeffs) -> PolyQ:
    """A coefficient list of JSON rationals, one Fraction per coefficient."""
    return PolyQ([fraction_parse_frac(c) for c in coeffs], grade=len(coeffs) - 1)


def parse_pencil(obj) -> Pencil:
    """The Pencil of a `polylin pencil` JSON object."""
    if not isinstance(obj, dict):
        raise InputError("pencil must be an object")
    try:
        n = obj["n"]
        blocks = obj["blocks"]
        c1 = parse_const_matrix(obj["C1"])
        c0 = parse_const_matrix(obj["C0"])
        tag = obj.get("basis", "unknown")
    except KeyError as exc:
        raise InputError(f"pencil missing {exc}") from None
    if c1.rows != n * blocks or not c1.is_square or c0.rows != c1.rows:
        raise InputError("pencil dimensions inconsistent")
    return Pencil(c1, c0, n, blocks, tag)


def verify_hermite_analogue(ha: HermiteAnalogue, pencil: Pencil) -> Verdict:
    """Uinv @ H = L, Uinv unimodular, H = identity off its last block column."""
    n = pencil.n
    m = pencil.block_count
    if polymatrix_mul(ha.uinv, ha.h) != pencil.as_polymatrix():
        return _falsified("hermite-analogue", reason="Uinv @ H != L")
    ok, unit = is_unimodular(ha.uinv)
    if not ok:
        return _falsified("hermite-analogue", reason="Uinv not unimodular")
    ident = PolyMatrix.identity(m * n)
    for i in range(m * n):
        for j in range((m - 1) * n):
            if ha.h.get(i, j) != ident.get(i, j):
                return _falsified("hermite-analogue",
                                  reason="H differs from identity off-column")
    return Verdict("hermite-analogue", True, unit)
