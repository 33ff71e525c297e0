"""Shared independent oracles and helpers for the test suite.

These deliberately avoid the library's computational paths: determinants
here go through recursive cofactor expansion, interpolation through the
naive product form, reversals through raw monomial-coefficient
manipulation, and basis polynomials through PolyQ products rather than
the closed-form matrices Phi and Phi^-1 of `polylin.bases`, and the
JSON readers through one Fraction per entry.  `reference_reduce_rows`
keeps the dense row reduction the sparse one in `polylin.exact`
replaced, with the determinant and solve built on it,
`reference_polymatrix_mul` the coefficient-loop product on integer rows
that Kronecker substitution replaced, and the `entry_*` functions the
PolyQ-entry path of PolyMatrix that its row form replaced.

`parse_pencil` and `verify_hermite_analogue` are helpers only tests call:
the first reads `polylin pencil` output back, the second checks a
triangular factorization L = Uinv @ H on its own.  They use the library's
kernels, so they are tools, not oracles.
"""

import itertools
import math
import re
from fractions import Fraction

from polylin import ConstMatrix, PolyMatrix, PolyQ
from polylin.equivalence import HermiteAnalogue
from polylin import exact, serialize
from polylin.errors import DimensionMismatch, InputError, NotUnimodular
from polylin.exact import is_unimodular, polymatrix_mul
from polylin.pencils import Pencil
from polylin.poly import _convolve, _poly_from_ints, _pseudo_divide
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


# ---------------------------------------------------------------------------
# The PolyQ-entry path: PolyMatrix as it was before its row form, a grid of
# canonical PolyQ entries with every kernel reading and writing entries.
# Each function here reads and builds entries only (PolyMatrix(rows, cols,
# entries) keeps the entries it is given and none of these reads `_form`),
# so it is the oracle for the values and grades of the row-form path.


def entry_from_coeffs(blocks, grade=None) -> PolyMatrix:
    """sum_k blocks[k] z^k, each entry one PolyQ over its row's lcm."""
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
    return PolyMatrix(rows, cols, entries)


def entry_from_blocks(grid, n: int) -> PolyMatrix:
    """The grid of n-by-n blocks (None = zero) assembled entry by entry."""
    zero = PolyMatrix(n, n, [PolyQ.zero()] * (n * n))
    return PolyMatrix.from_rows([x for blk in row for x in (blk or zero).row(r)]
                                for row in grid for r in range(n))


def entry_scalar(n: int, p: PolyQ) -> PolyMatrix:
    return PolyMatrix(n, n, [p if i == j else PolyQ.zero() for i in range(n) for j in range(n)])


def entry_hstack(parts) -> PolyMatrix:
    rows = parts[0][0].rows
    return PolyMatrix.from_rows([x for m, lo, hi in parts for x in m.row(i)[lo:hi]]
                                for i in range(rows)) if rows else \
        PolyMatrix(0, sum(hi - lo for _, lo, hi in parts), [])


def entry_block(m: PolyMatrix, i: int, j: int, n: int) -> PolyMatrix:
    return PolyMatrix(n, n, [m.get(i * n + r, j * n + c) for r in range(n) for c in range(n)])


def entry_map(m: PolyMatrix, f) -> PolyMatrix:
    return PolyMatrix(m.rows, m.cols, [f(e) for e in m.entries])


def entry_add(a: PolyMatrix, b: PolyMatrix, sign: int = 1) -> PolyMatrix:
    return PolyMatrix(a.rows, a.cols, [x + y if sign > 0 else x - y
                                       for x, y in zip(a.entries, b.entries)])


def entry_evaluate(m: PolyMatrix, x) -> ConstMatrix:
    return ConstMatrix(m.rows, m.cols, [e(x) for e in m.entries])


def entry_read_rows(m: PolyMatrix):
    """m over one denominator d, the lcm of its entries' denominators, as
    (d, rows, l1): each row lists (j, ints, s, grade) over its nonzero
    entries, entry j being ints * s / d."""
    den = math.lcm(*(p.den for p in m.entries))
    rows = [[(j, p.ints, den // p.den, p.grade) for j, p in enumerate(m.row(i)) if p.ints]
            for i in range(m.rows)]
    return den, rows, max((sum(s * sum(map(abs, xs)) for _, xs, s, _ in row) for row in rows),
                          default=0)


def entry_pack_rows(rows, bits: int):
    out = []
    for row in rows:
        packed = []
        for j, xs, s, grade in row:
            v = 0
            for x in reversed(xs):
                v = (v << bits) + x
            packed.append((j, v * s, grade))
        out.append(packed)
    return out


def entry_mul(a: PolyMatrix, b: PolyMatrix, *rest: PolyMatrix) -> PolyMatrix:
    """The packed product on entries: each factor over the lcm of all its
    entries' denominators, and one PolyQ per entry of the result."""
    chain = (a, b, *rest)
    factors = [entry_read_rows(f) for f in chain]
    bits = exact._packed_bits(factors)
    rows = entry_pack_rows(factors[0][1], bits)
    for f, (_, frows, _) in zip(chain[1:], factors[1:]):
        frows = entry_pack_rows(frows, bits)
        rows = [exact._row_times(row, frows, f.cols) for row in rows]
    den, cols = math.prod(d for d, _, _ in factors), chain[-1].cols
    out = [PolyQ.zero()] * (a.rows * cols)
    for i, row in enumerate(rows):
        for j, v, grade in row:
            out[i * cols + j] = _poly_from_ints(exact._unpack(v, bits), den, grade)
    return PolyMatrix(a.rows, cols, out)


def entry_det_degree_bound(m: PolyMatrix) -> int:
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


def entry_assignment_bound(m: PolyMatrix) -> int:
    """max over permutations of the sum of the picked entries' degrees, -1
    when every permutation picks a zero, by trying them all."""
    best = -1
    for perm in itertools.permutations(range(m.rows)):
        picked = [m.get(i, j) for i, j in enumerate(perm)]
        if all(e.ints for e in picked):
            best = max(best, sum(e.degree for e in picked))
    return best


def entry_det(m: PolyMatrix) -> PolyQ:
    """det(m) by Laplace expansion, of the grade `polymatrix_det` gave
    (the assignment bound; 0 for a 0-by-0 or a structurally zero m)."""
    if m.rows == 0:
        return PolyQ((1,))
    bound = entry_assignment_bound(m)
    return cofactor_det(m).with_grade(bound) if bound >= 0 else PolyQ.zero()


def entry_inverse(m: PolyMatrix) -> PolyMatrix:
    """The z-adic lifting on entries: M_0 and [M_1 | ... | M_d] read from
    m over the lcm of all its entries' denominators."""
    n = m.rows
    d = max(max((e.degree for e in m.entries), default=-1), 0)
    den, rows, _ = entry_read_rows(m)
    wide = [[(j * n + c, xs[j] * s) for j in range(d + 1) for c, xs, s, _ in row
             if j < len(xs) and xs[j]] for row in rows]
    x0 = ConstMatrix._from_form(n, n, [exact._lowest(den, [(c, x) for c, x in pairs if c < n])
                                       for pairs in wide]).try_inverse()
    if x0 is None:
        raise NotUnimodular("m(0) is singular")
    if d == 0:
        return entry_from_coeffs([x0])
    step = x0 @ ConstMatrix._from_form(
        n, n * d, [exact._lowest(-den, [(c - n, x) for c, x in pairs if c >= n]) for pairs in wide])
    lifted, zero_run = [x0], 0
    window = x0._form + [(1, [])] * (n * (d - 1))
    for _ in range(entry_det_degree_bound(m) + d):
        x = step @ ConstMatrix._from_form(n * d, n, window)
        lifted.append(x)
        zero_run = zero_run + 1 if x.is_zero else 0
        if zero_run == d:
            return entry_from_coeffs(lifted[:-d])
        window = x._form + window[:-n]
    raise NotUnimodular("no deg m zero terms in a row by the bound")


def entry_unit_by_inverse(m: PolyMatrix, x: PolyMatrix):
    """det(m) when x @ m = I by the entry product, else None."""
    n = m.rows
    if not (m.is_square and x.is_square and x.rows == n):
        return None
    if entry_mul(x, m) != PolyMatrix(n, n, [PolyQ((int(i == j),)) for i in range(n)
                                            for j in range(n)]):
        return None
    return ConstMatrix(n, n, [e.coeff(0) for e in m.entries]).det()


def _entry_primitive(row, den):
    g = math.gcd(den, *itertools.chain.from_iterable(row))
    if g == 1:
        return row, den
    return [[x // g for x in xs] for xs in row], den // g


def entry_hermite(m: PolyMatrix):
    """hermite_form on entries: each row of [H | U] read over its lcm,
    and each entry of H and U one PolyQ at the end.  Returns (H, U,
    pivots, rank_deficient)."""
    n = m.rows
    rows = []
    for i, entries in enumerate(m.to_rows()):
        ints, den = _integer_coeffs(entries)
        ints = list(ints) + [[den] if j == i else [] for j in range(n)]
        rows.append((ints, den, [e.grade for e in entries] + [0] * n))

    def row_sub(i, r, c):
        a, den, ga = rows[i]
        b, _, gb = rows[r]
        if len(a[c]) < len(b[c]):
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
        rows[i] = (*_entry_primitive(out, s * den), [max(x, dq + y) for x, y in zip(ga, gb)])

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
            rows[r] = (*_entry_primitive(ints, ints[c][-1]), grades)
            for i in range(r):
                row_sub(i, r, c)
            pivots.append(c)
            r += 1
    polys = [[_poly_from_ints(xs, den, g) for xs, g in zip(ints, grades)]
             for ints, den, grades in rows]
    return (PolyMatrix(n, n, [e for p in polys for e in p[:n]]),
            PolyMatrix(n, n, [e for p in polys for e in p[n:]]), tuple(pivots), r < n)


def entry_mask(m: PolyMatrix) -> list[str]:
    return ["".join("0" if m.get(i, j).is_zero else "x" for j in range(m.cols))
            for i in range(m.rows)]


def entry_parse_polymatrix(obj) -> PolyMatrix:
    """A polymatrix object read one Fraction per coefficient."""
    rows = [[fraction_parse_polyq(e) for e in row] for row in obj["entries"]]
    return PolyMatrix(len(rows), len(rows[0]), [e for row in rows for e in row])


def entry_dumps(m: PolyMatrix) -> str:
    """The writer's text of m from its PolyQ entries, written one entry at
    a time as `serialize.polyq_obj` pads it."""
    return serialize.dumps({"rows": m.rows, "cols": m.cols, "entries": m.to_rows()})


def entry_key(m: PolyMatrix) -> list:
    """Every entry's integer form and grade, row by row."""
    return [(e.ints, e.den, e.grade) for e in m.entries]


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
