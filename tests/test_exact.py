"""Exact scalar, polynomial, and polynomial-matrix arithmetic."""

import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from polylin import (
    Bernstein,
    ConstMatrix,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    PolyMatrix,
    PolyQ,
    hermite_form,
    poly_gcd,
)
from polylin.equivalence import (
    bernstein_hermite_analogue,
    lagrange_hermite_factors,
    recurrence_hermite_analogue,
)
from polylin.errors import DimensionMismatch, NotUnimodular, PreconditionError
from polylin.exact import (
    POLY_ONE,
    _assignment_bound,
    _det_degree_bound,
    is_unimodular,
    polymatrix_det,
    polymatrix_inverse_unimodular,
    polymatrix_mul,
    sub_mul,
    unit_by_inverse,
)
from polylin.pencils import (
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_pencil,
    build_recurrence_pencil,
)
from polylin import exact, poly
from polylin.bases import matrix_poly_as_polymatrix, to_monomial
from polylin.randgen import (
    rand_basis,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
    rand_recurrence_spec,
)

from conftest import (
    basis_polys,
    cofactor_det,
    integer_rows,
    reference_det,
    reference_polymatrix_mul,
    reference_reduce_rows,
    reference_solve,
)


def rand_polymatrix(rng, n, max_deg):
    entries = []
    for _ in range(n * n):
        deg = rng.randint(0, max_deg)
        entries.append(PolyQ([rand_fraction(rng) for _ in range(deg + 1)], grade=max_deg))
    return PolyMatrix(n, n, entries)


def sparse_draws():
    """Matrices of size 1-5 with about half the entries zero, so the zero
    pattern decides which terms of the Leibniz sum survive."""
    rng = random.Random(12)
    draws = []
    for n in range(1, 6):
        for _ in range(12):
            entries = [PolyQ.zero() if rng.random() < 0.5 else
                       PolyQ([rand_fraction(rng) for _ in range(rng.randint(0, 4))] + [1])
                       for _ in range(n * n)]
            draws.append(PolyMatrix(n, n, entries))
    return draws


def loop_mul(a, b):
    """The entry-by-entry PolyQ product loop polymatrix_mul once was: the
    reference for values and for every entry's grade."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = PolyQ.zero()
            for k in range(a.cols):
                x, y = a.get(i, k), b.get(k, j)
                if not (x.is_zero or y.is_zero):
                    acc = acc + x * y
            out.append(acc)
    return PolyMatrix(a.rows, b.cols, out)


def fraction_matmul(a, b):
    """The Fraction product loop ConstMatrix.__matmul__ once was."""
    out = [F(0)] * (a.rows * b.cols)
    oc = b.cols
    for i in range(a.rows):
        base = i * a.cols
        for k in range(a.cols):
            x = a.entries[base + k]
            if x:
                for j in range(oc):
                    y = b.entries[k * oc + j]
                    if y:
                        out[i * oc + j] += x * y
    return ConstMatrix(a.rows, oc, out)


def fraction_solve(a, b):
    """The Fraction Gauss-Jordan elimination solve_exact once was."""
    m, n, k = a.rows, a.cols, b.cols
    aug = [a.row(i) + b.row(i) for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if any(x != 0 for x in aug[i][n:]):
            return None
    rows = [[F(0)] * k for _ in range(n)]
    for idx, c in enumerate(pivots):
        rows[c] = aug[idx][n:]
    return ConstMatrix(n, k, [x for row in rows for x in row])


def product_checked_inverse(m):
    """The lifting polymatrix_inverse_unimodular once was: a zero
    accumulator per term, lifting to the adjugate bound or a run of deg m
    zero terms, then the product m @ inverse == I as the proof."""
    n = m.rows
    x0 = m.evaluate(0).try_inverse()
    if x0 is None:
        raise NotUnimodular("m(0) is singular")
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
        raise NotUnimodular("m @ inverse != I")
    return result


def bareiss_det(m):
    """The integer Bareiss determinant ConstMatrix.det once was: rows
    scaled to integers once, then one-step Bareiss elimination with every
    row rescaled at every pivot (Math. Comp. 22, 1968)."""
    rows, scale = integer_rows(m)
    n = len(rows)
    if n == 0:
        return F(1)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot is None:
                return F(0)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            mik = rows[i][k]
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pk - mik * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pk
    return F(sign * rows[n - 1][n - 1], scale)


def kron_draws(rng):
    """s (x) I_n for n = 2-5, the shape of the strict maps."""
    return [rand_const(rng, size, size, zero_share).kron_identity(n)
            for n in range(2, 6) for size in (2, 3, 5) for zero_share in (0.0, 0.5)]


def companion_draws(rng):
    """C1, C0 and C1*x + C0 of the companion pencils of every basis."""
    draws = []
    for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
        for grade, n in ((2, 1), (3, 2), (4, 3)):
            pen = build_pencil(rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), n))
            draws += [pen.c1, pen.c0, pen.c1.scale(rand_fraction(rng)) + pen.c0]
    return draws


def hadamard_bound_sq(rows):
    """The square of a bound on every minor of the integer rows: the
    product of their squared norms, each at least 1."""
    bound = 1
    for r in rows:
        bound *= max(1, sum(x * x for x in r))
    return bound


def rand_const(rng, rows, cols, zero_share=0.3):
    """Mixed denominators, about zero_share of the entries zero."""
    return ConstMatrix(rows, cols, [
        F(0) if rng.random() < zero_share else
        F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10, 12)))
        for _ in range(rows * cols)])


def fraction_poly_mul(a, b):
    """The Fraction convolution PolyQ.__mul__ once was."""
    if a.is_zero or b.is_zero:
        return PolyQ.zero(a.grade + b.grade)
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                if cb:
                    out[i + j] += ca * cb
    return PolyQ(out, a.grade + b.grade)


def fraction_divmod(a, b):
    """The Fraction long division PolyQ.__divmod__ once was."""
    if a.degree < b.degree:
        return PolyQ.zero(), a
    num = list(a.coeffs)
    den = b.coeffs
    dd = len(den) - 1
    inv_lead = 1 / den[-1]
    q = [F(0)] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[dd + k] * inv_lead
        if c:
            q[k] = c
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    return PolyQ(q), PolyQ(num[:dd] if dd > 0 else ())


def fraction_monic(a):
    return PolyQ([c / a.coeffs[-1] for c in a.coeffs], a.grade) if a.coeffs else a


def euclid_gcd(a, b):
    """The Euclid loop over Q that poly_gcd once was, on Fraction division."""
    while b.coeffs:
        a, b = b, fraction_divmod(a, b)[1]
    return fraction_monic(a)


def fraction_add(a, b, sign=1):
    """a + sign * b as PolyQ.__add__ once was: a Fraction loop, of grade
    max(a.grade, b.grade)."""
    n = max(len(a.coeffs), len(b.coeffs))
    xs = list(a.coeffs) + [F(0)] * (n - len(a.coeffs))
    ys = list(b.coeffs) + [F(0)] * (n - len(b.coeffs))
    return PolyQ([x + sign * y for x, y in zip(xs, ys)], max(a.grade, b.grade))


def fraction_sub_mul(a, q, b):
    """a - q * b as the normal forms once computed it: the Fraction
    convolution, then the Fraction difference."""
    return fraction_add(a, fraction_poly_mul(q, b), -1)


def fraction_str(p):
    """PolyQ.__str__ as it once was, on the Fraction coefficients."""
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        zk = "z" if k == 1 else f"z^{k}"
        parts.append(str(c) if k == 0 else zk if c == 1 else f"-{zk}" if c == -1 else f"{c}*{zk}")
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def assert_canonical_poly(p):
    """The integer form of p is canonical: ints a tuple of ints with no
    trailing zero over den > 0, gcd(den, ints) = 1."""
    assert type(p.ints) is tuple and all(type(x) is int for x in p.ints)
    assert type(p.den) is int and p.den > 0
    assert not p.ints or p.ints[-1] != 0
    assert math.gcd(p.den, *p.ints) == 1


def block_loop_to_monomial(p):
    """The per-block scale/add loop bases.to_monomial once was."""
    n = p.n
    blocks = [ConstMatrix.zeros(n, n) for _ in range(p.grade + 1)]
    for k, phi in enumerate(basis_polys(p.basis)):
        if p.coeffs[k].is_zero:
            continue
        for i in range(phi.degree + 1):
            c = phi.coeff(i)
            if c:
                blocks[i] = blocks[i] + p.coeffs[k].scale(c)
    return tuple(blocks)


def rand_poly(rng, max_deg=9):
    """Degree 0-9 (or the zero polynomial), mixed denominators, about a
    quarter of the lower coefficients zero, a lead that is 1, -1 or any
    nonzero rational, and a grade up to 3 above the degree."""
    draw = rng.random()
    deg = -1 if draw < 0.08 else 0 if draw < 0.2 else rng.randint(1, max_deg)
    big = 2 ** 70 if rng.random() < 0.1 else 40

    def frac():
        return F(rng.randint(-big, big), rng.choice((1, 2, 3, 4, 7, 9, 10, 12, 49)))

    cs = [F(0) if rng.random() < 0.25 else frac() for _ in range(max(deg, 0))]
    if deg >= 0:
        lead = F(0)
        while not lead:
            lead = rng.choice((F(1), F(-1), frac(), frac()))
        cs.append(lead)
    return PolyQ(cs, max(deg, 0) + rng.choice((0, 0, 1, 3)))


def same_poly(got, want):
    """Equal coefficients, every one a Fraction, and equal grades; got's
    integer form is canonical."""
    assert_canonical_poly(got)
    return (got.coeffs == want.coeffs and got.grade == want.grade
            and all(type(c) is F for c in got.coeffs))


def special_polys():
    """Zero at two grades, constants, and non-reduced and negatively signed
    rationals given as strings and ints."""
    return [
        PolyQ.zero(), PolyQ.zero(grade=3), PolyQ(["0", 0], grade=1), PolyQ([7]), PolyQ(["-4/6"]),
        PolyQ(["-4/6", 2, "12/8"]), PolyQ([0, "-4/6"], grade=4), PolyQ(["10/4", "-3/9", 0, "-1"]),
        PolyQ([F(-6, 4), 0, 0, "-2"], grade=5), PolyQ([0, 0, 1], grade=2),
    ]


class TestPolyQ:
    def test_trimming_and_grade(self):
        p = PolyQ([1, 2, 0, 0], grade=3)
        assert p.degree == 1
        assert p.grade == 3
        assert p.padded() == [F(1), F(2), F(0), F(0)]

    def test_zero_degree_sentinel(self):
        assert PolyQ.zero().degree == -1
        assert PolyQ.zero(grade=4).grade == 4

    def test_grade_below_degree_rejected(self):
        with pytest.raises(ValueError):
            PolyQ([1, 1, 1], grade=1)

    def test_mul_grade_is_sum_of_grades(self):
        a = PolyQ([1], grade=2)
        b = PolyQ([0, 1], grade=3)
        assert (a * b).grade == 5

    def test_divmod(self):
        p = PolyQ([2, -3, 1])  # (z-1)(z-2)
        q, r = divmod(p, PolyQ([-1, 1]))
        assert q == PolyQ([-2, 1])
        assert r.is_zero

    def test_divmod_random(self):
        rng = random.Random(0)
        for _ in range(50):
            a = PolyQ([rand_fraction(rng) for _ in range(rng.randint(1, 7))])
            b = PolyQ([rand_fraction(rng) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_eval(self):
        p = PolyQ([2, -3, 1])
        assert p(1) == 0 and p(2) == 0 and p(0) == 2

    def test_str(self):
        assert str(PolyQ([2, -3, 1])) == "z^2 - 3*z + 2"


class TestPolyMatrixMul:
    def test_identity_times_matrix(self):
        rng = random.Random(1)
        m = rand_polymatrix(rng, 2, 2)
        assert polymatrix_mul(PolyMatrix.identity(2), m) == m

    def test_z_times_z(self):
        z = PolyMatrix(1, 1, [PolyQ([0, 1])])
        assert polymatrix_mul(z, z) == PolyMatrix(1, 1, [PolyQ([0, 0, 1])])

    def test_associativity(self):
        rng = random.Random(2)
        for _ in range(10):
            a = rand_polymatrix(rng, 3, 2)
            b = rand_polymatrix(rng, 3, 2)
            c = rand_polymatrix(rng, 3, 2)
            assert polymatrix_mul(polymatrix_mul(a, b), c) == \
                polymatrix_mul(a, polymatrix_mul(b, c))

    def test_matches_entrywise_loop(self):
        # rectangular shapes, mixed denominators, zero entries that declare a
        # grade above 0, a row of a whose terms are all zero, right factors
        # with all-zero rows, entries whose terms cancel, in full or in their
        # top coefficients, at grades above their degree, and chains of three
        # factors whose middle product has cancelled entries
        rng = random.Random(13)

        def draw(rows, cols):
            entries = []
            for _ in range(rows * cols):
                deg = rng.randint(-1, 3)
                cs = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10, 12)))
                      for _ in range(deg + 1)]
                entries.append(PolyQ(cs, grade=max(deg, 0) + rng.randint(0, 2)))
            return PolyMatrix(rows, cols, entries)

        def zero_row(m, i):
            rows = m.to_rows()
            rows[i] = [PolyQ.zero(rng.randint(0, 3)) for _ in rows[i]]
            return PolyMatrix.from_rows(rows)

        def cancelling(rows, inner, cols):
            """a, b with column 1 of a equal to column 0 times -2/3 and row 1
            of b to row 0 times 3/2, so the first two terms of every entry
            of a @ b cancel: with inner = 2 each entry is zero, of a grade
            up to 7."""
            a, b = draw(rows, inner).to_rows(), draw(inner, cols).to_rows()
            for r in a:
                r[1] = r[0].scale(F(-2, 3)).with_grade(r[0].grade + rng.randint(0, 2))
            b[1] = [e.scale(F(3, 2)) for e in b[0]]
            return PolyMatrix.from_rows(a), PolyMatrix.from_rows(b)

        def same(got, want):
            assert got == want
            assert [e.grade for e in got.entries] == [e.grade for e in want.entries]

        for rows, inner, cols in ((1, 1, 1), (2, 3, 1), (1, 4, 3), (3, 2, 4), (4, 4, 2)):
            for _ in range(4):
                a, b = draw(rows, inner), draw(inner, cols)
                same(polymatrix_mul(a, b), loop_mul(a, b))
                b = zero_row(b, rng.randrange(inner))
                same(polymatrix_mul(a, b), loop_mul(a, b))
                c = zero_row(draw(cols, 3), rng.randrange(cols))
                same(polymatrix_mul(a, b, c), loop_mul(loop_mul(a, b), c))
        cancelled = 0
        for rows, inner, cols in ((1, 2, 1), (2, 2, 3), (3, 3, 2), (2, 4, 4)):
            for _ in range(4):
                a, b = cancelling(rows, inner, cols)
                ab = loop_mul(a, b)
                cancelled += sum(e.is_zero and e.grade > 0 for e in ab.entries)
                same(polymatrix_mul(a, b), ab)
                c, d = draw(cols, 2), draw(2, 3)
                same(polymatrix_mul(a, b, c), loop_mul(ab, c))
                same(polymatrix_mul(a, b, c, d), loop_mul(loop_mul(ab, c), d))
        assert cancelled >= 10
        # (1 + z) + (2 - z) = 3 at grade 5; (1 + z) - (1 + z) = 0 at grade 5,
        # which adds no term to the product with c: its row has grade 3, not 9
        a = PolyMatrix.from_rows([[PolyQ([1, 1], grade=3), PolyQ([2, -1], grade=2)],
                                  [PolyQ([1, 1], grade=3), PolyQ([-1, -1])]])
        b = PolyMatrix.from_rows([[PolyQ([1], grade=2), PolyQ.zero(4)],
                                  [PolyQ([1], grade=1), PolyQ([0, 1])]])
        c = PolyMatrix.from_rows([[PolyQ([1], grade=4)], [PolyQ([0, 1], grade=1)]])
        ab, abc = polymatrix_mul(a, b), polymatrix_mul(a, b, c)
        same(ab, loop_mul(a, b))
        same(abc, loop_mul(loop_mul(a, b), c))
        assert ab.get(0, 0) == PolyQ([3]) and ab.get(1, 0).is_zero
        assert [e.grade for e in ab.entries] == [5, 3, 5, 2]
        assert abc == PolyMatrix.from_rows([[PolyQ([3, 0, 2, -1])], [PolyQ([0, 0, -1, -1])]])
        assert [e.grade for e in abc.entries] == [9, 3]
        a = PolyMatrix.from_rows([[PolyQ.zero(3), PolyQ([F(1, 2)], grade=2)],
                                  [PolyQ([1, F(1, 3)]), PolyQ.zero(1)]])
        b = PolyMatrix.from_rows([[PolyQ([5], grade=4), PolyQ.zero(2)],
                                  [PolyQ.zero(2), PolyQ([0, F(2, 5)])]])
        got, want = polymatrix_mul(a, b), loop_mul(a, b)
        assert got == want
        grades = [e.grade for e in got.entries]
        assert grades == [e.grade for e in want.entries] == [0, 3, 5, 0]

    def test_packed_product_matches_the_reference(self):
        """Kronecker-packed chains against the coefficient loop
        (`reference_polymatrix_mul`) and the PolyQ loop, in value and in
        every entry's grade: coefficients of 1-400 bits; rows over large
        coprime denominators, so that scaling to a factor's lcm matters;
        same-sign rows whose result comes within 3 bits of 2**(bits-1);
        cancelling and all-zero rows and entries; 0 x k, k x 0 and 1 x 1
        shapes; and chains of 2, 3 and 4 factors."""
        rng = random.Random(41)
        # 2**p - 1 for distinct primes p: pairwise coprime
        coprime = [2**p - 1 for p in (31, 61, 89, 107, 127)]

        def wide_int():
            b = rng.randint(1, 400)
            return rng.choice((-1, 1)) * (1 << (b - 1) | rng.getrandbits(b - 1))

        def draw(rows, cols, dens=None):
            entries = []
            for i in range(rows):
                for _ in range(cols):
                    deg = rng.randint(-1, 3)
                    den = dens[i] if dens else rng.choice((1, 1, 3, 10, wide_int()))
                    entries.append(PolyQ([F(wide_int(), abs(den)) for _ in range(deg + 1)],
                                         grade=max(deg, 0) + rng.randint(0, 2)))
            return PolyMatrix(rows, cols, entries)

        def with_zeros(m):
            """m with one row and about a quarter of its entries made zero
            of some grade."""
            rows = m.to_rows()
            if rows:
                rows[rng.randrange(len(rows))] = [PolyQ.zero(rng.randint(0, 3)) for _ in rows[0]]
            rows = [[PolyQ.zero(rng.randint(0, 3)) if rng.random() < 0.25 else e for e in r]
                    for r in rows]
            return PolyMatrix(m.rows, m.cols, [e for r in rows for e in r])

        def cancelling(rows, cols):
            """a (rows x 2), b (2 x cols) with column 1 of a -r times column
            0 and row 1 of b 1/r times row 0: every entry of a @ b is zero."""
            r = F(wide_int(), rng.choice(coprime))
            a, b = draw(rows, 2).to_rows(), draw(2, cols).to_rows()
            for row in a:
                row[1] = row[0].scale(-r).with_grade(row[0].grade + rng.randint(0, 2))
            b[1] = [e.scale(1 / r) for e in b[0]]
            return PolyMatrix.from_rows(a), PolyMatrix.from_rows(b)

        def tight(inner, cols, length):
            """A chain of integer factors, the first 1 x inner, whose one
            nonzero result entry reaches the l1 bound: a's entries are
            x_k z^(d_k) of one sign, and each later factor's rows hold one
            entry y z^(e - d_k) each, all in one column."""
            sign = rng.choice((-1, 1))
            degs = [rng.randint(0, 3) for _ in range(inner)]
            a = PolyMatrix(1, inner, [PolyQ.monomial(d, sign * (1 << rng.randint(0, 300)) + sign)
                                      for d in degs])
            chain, width = [a], inner
            for _ in range(length - 1):
                y, col, top = rng.getrandbits(rng.randint(1, 120)) + 1, rng.randrange(cols), max(degs)
                entries = [PolyQ.zero(rng.randint(0, 2))] * (width * cols)
                for k in range(width):
                    entries[k * cols + col] = PolyQ.monomial(top - degs[k], y)
                chain.append(PolyMatrix(width, cols, entries))
                width, degs = cols, [top] * cols
            return chain

        def same(chain):
            got, want = polymatrix_mul(*chain), reference_polymatrix_mul(*chain)
            loop = functools.reduce(loop_mul, chain)
            assert got == want == loop
            grades = [e.grade for e in got.entries]
            assert grades == [e.grade for e in want.entries] == [e.grade for e in loop.entries]
            return got

        shapes = ((1, 1, 1), (0, 3, 2), (3, 0, 2), (2, 3, 0), (2, 3, 1), (1, 4, 3), (3, 2, 4))
        for (rows, inner, cols), length, _ in itertools.product(shapes, (2, 3, 4), range(2)):
            dims = [rows, inner, cols] + [rng.randint(1, 3) for _ in range(length - 2)]
            same([draw(p, q) for p, q in zip(dims, dims[1:])])
            same([with_zeros(draw(p, q)) for p, q in zip(dims, dims[1:])])
            same([draw(dims[0], dims[1])] + [draw(p, q, [rng.choice(coprime) for _ in range(p)])
                                             for p, q in zip(dims[1:], dims[2:])])
        cancelled = 0
        for (rows, cols), length in itertools.product(((1, 1), (2, 3), (3, 2)), (2, 3, 4)):
            a, b = cancelling(rows, cols)
            got = same([a, b] + [draw(cols, 2), draw(2, 3)][:length - 2])
            cancelled += sum(e.is_zero and e.grade > 0 for e in got.entries)
        assert cancelled >= 3
        near = 0
        for (inner, cols), length in itertools.product(((1, 1), (3, 1), (4, 2), (2, 3)), (2, 3, 4)):
            chain = tight(inner, cols, length)
            got = same(chain)
            bits = exact._packed_bits([exact._read_rows(f) for f in chain])
            near += max(abs(x) for e in got.entries for x in e.ints) >= 1 << (bits - 4)
        assert near == 12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            polymatrix_mul(PolyMatrix.zeros(2, 3), PolyMatrix.zeros(2, 3))


class TestDeterminant:
    def test_identity(self):
        for k in (1, 2, 5):
            assert polymatrix_det(PolyMatrix.identity(k)) == PolyQ([1])

    def test_second_companion_of_quadratic(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        lz = build_monomial_pencil(p).as_polymatrix()
        assert polymatrix_det(lz) == cofactor_det(lz)
        assert polymatrix_det(lz) == PolyQ([2, -3, 1])

    def test_against_cofactor_oracle(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            for _ in range(8):
                m = rand_polymatrix(rng, n, 3)
                assert polymatrix_det(m) == cofactor_det(m)

    def test_multiplicative(self):
        rng = random.Random(4)
        for n in (2, 3, 4):
            for _ in range(5):
                a = rand_polymatrix(rng, n, 3)
                b = rand_polymatrix(rng, n, 3)
                assert polymatrix_det(polymatrix_mul(a, b)) == \
                    polymatrix_det(a) * polymatrix_det(b)

    def test_sparse_against_cofactor_oracle(self):
        for m in sparse_draws():
            assert polymatrix_det(m) == cofactor_det(m)


class TestAssignmentBound:
    def test_matches_brute_force(self):
        for m in sparse_draws():
            n = m.rows
            best = -1
            for perm in itertools.permutations(range(n)):
                terms = [m.get(i, perm[i]) for i in range(n)]
                if not any(e.is_zero for e in terms):
                    best = max(best, sum(e.degree for e in terms))
            assert _assignment_bound(m) == best
            assert best <= _det_degree_bound(m)

    def test_structurally_singular_is_not_evaluated(self, monkeypatch):
        # no zero row or column, but every Leibniz term has a zero factor
        a, b, c, d, e = (PolyQ([k, 1]) for k in range(1, 6))
        z = PolyQ.zero()
        m = PolyMatrix.from_rows([[a, z, z], [b, z, z], [c, d, e]])
        assert _det_degree_bound(m) >= 0
        assert _assignment_bound(m) == -1

        def no_evaluation(rows):
            raise AssertionError("evaluated a structurally singular matrix")

        monkeypatch.setattr(exact, "_bareiss_int", no_evaluation)
        assert polymatrix_det(m).is_zero


class TestUnimodular:
    def test_diag_z_one_is_not(self):
        m = PolyMatrix.from_rows([[PolyQ([0, 1]), PolyQ.zero()],
                                  [PolyQ.zero(), PolyQ([1])]])
        ok, unit = is_unimodular(m)
        assert not ok and unit is None

    def test_constant_diag(self):
        m = PolyMatrix.from_rows([[PolyQ([2]), PolyQ.zero()],
                                  [PolyQ.zero(), PolyQ([F(1, 3)])]])
        ok, unit = is_unimodular(m)
        assert ok and unit == F(2, 3)
        inv = polymatrix_inverse_unimodular(m)
        assert inv == PolyMatrix.from_rows([[PolyQ([F(1, 2)]), PolyQ.zero()],
                                            [PolyQ.zero(), PolyQ([3])]])

    def test_identity_inverse(self):
        assert polymatrix_inverse_unimodular(PolyMatrix.identity(3)) == \
            PolyMatrix.identity(3)

    def test_inverse_of_unimodular_random(self):
        # random unit upper-triangular times unit lower-triangular
        rng = random.Random(5)
        for n in (2, 3, 4):
            up = PolyMatrix.identity(n).to_rows()
            lo = PolyMatrix.identity(n).to_rows()
            for i in range(n):
                for j in range(i + 1, n):
                    up[i][j] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
                    lo[j][i] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
            m = polymatrix_mul(PolyMatrix.from_rows(up), PolyMatrix.from_rows(lo))
            ok, unit = is_unimodular(m)
            assert ok and unit == 1
            inv = polymatrix_inverse_unimodular(m)
            assert polymatrix_mul(m, inv) == PolyMatrix.identity(n)
            ok_inv, unit_inv = is_unimodular(inv)
            assert ok_inv and unit_inv == 1 / unit

    def test_not_unimodular_raises(self):
        singular_at_zero = PolyMatrix.from_rows([[PolyQ([0, 1]), PolyQ.zero()],
                                                 [PolyQ.zero(), PolyQ([1])]])
        # m(0) = [[1]] is invertible, but the lifted terms (-1)^k are never zero
        invertible_at_zero = PolyMatrix.from_rows([[PolyQ([1, 1])]])
        # 1/(1 + z^2) = 1 - z^2 + z^4 - ...: every odd term is zero, but a
        # run of one zero term is shorter than deg m = 2
        isolated_zeros = PolyMatrix.from_rows([[PolyQ([1, 0, 1])]])
        zero_row = PolyMatrix.from_rows([[PolyQ([1, 1]), PolyQ.monomial(2)],
                                         [PolyQ.zero(), PolyQ.zero()]])
        for m in (singular_at_zero, invertible_at_zero, isolated_zeros, zero_row,
                  PolyMatrix.zeros(1, 1), PolyMatrix.zeros(3, 3)):
            with pytest.raises(NotUnimodular):
                polymatrix_inverse_unimodular(m)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            polymatrix_inverse_unimodular(PolyMatrix.zeros(2, 3))

    def test_inverse_never_multiplies_back(self, monkeypatch):
        def no_product(a, b):
            raise AssertionError("polymatrix_mul called")

        rng = random.Random(29)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        uinv = bernstein_hermite_analogue(p, build_bernstein_pencil(p)).uinv
        want = polymatrix_inverse_unimodular(uinv)
        monkeypatch.setattr(exact, "polymatrix_mul", no_product)
        assert polymatrix_inverse_unimodular(uinv) == want
        with pytest.raises(NotUnimodular):
            polymatrix_inverse_unimodular(PolyMatrix.from_rows([[PolyQ([1, 1])]]))

    def test_matches_the_product_checked_lifting(self):
        """Same values, grades and refusals as lifting with a closing
        product check, on the Uinv of each triangular route, Hermite
        transforms, products of unit-triangular matrices (unimodular), those
        products with a row times 1 + c z^k (m(0) invertible, not
        unimodular) and random matrices."""
        rng = random.Random(37)
        factors = {"recurrence": recurrence_hermite_analogue,
                   "bernstein": bernstein_hermite_analogue,
                   "lagrange": lagrange_hermite_factors}
        matrices = []
        for kind, factor in factors.items():
            for grade in range(1 if kind == "lagrange" else 2, 7):
                for n in (1, 2, 3):
                    p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), n)
                    try:
                        matrices.append(factor(p, build_pencil(p)).uinv)
                    except PreconditionError:
                        continue
        for grade in (1, 2, 3):
            p = rand_matrix_polynomial(rng, Monomial(grade), 2)
            matrices.append(hermite_form(build_monomial_pencil(p).as_polymatrix()).u)
        for _ in range(60):
            n = rng.randint(1, 4)
            unit = [PolyMatrix.identity(n).to_rows() for _ in range(2)]
            for i, j in itertools.permutations(range(n), 2):
                unit[i < j][i][j] = rand_poly(rng, 3)
            m = polymatrix_mul(*map(PolyMatrix.from_rows, unit))
            matrices.append(m)
            bent = m.to_rows()
            bent[0] = [PolyQ.monomial(rng.randint(1, 3), rand_fraction(rng, True)) * e
                       + e for e in bent[0]]
            matrices.append(PolyMatrix.from_rows(bent))
            matrices.append(rand_polymatrix(rng, n, rng.randint(1, 3)))
        outcomes = set()
        for m in matrices:
            try:
                want = product_checked_inverse(m)
            except NotUnimodular:
                with pytest.raises(NotUnimodular):
                    polymatrix_inverse_unimodular(m)
                outcomes.add("m(0) singular" if m.evaluate(0).try_inverse() is None else "refused")
                continue
            got = polymatrix_inverse_unimodular(m)
            assert got == want
            assert [e.grade for e in got.entries] == [e.grade for e in want.entries]
            outcomes.add("inverted")
        assert outcomes == {"inverted", "refused", "m(0) singular"}

    def test_lifting_runs_to_the_adjugate_bound(self):
        # the assignment bound of det is 0 here, but the inverse has degree 5:
        # lifting must run to _det_degree_bound, which bounds the adjugate
        z5 = PolyQ.monomial(5)
        m = PolyMatrix.from_rows([[POLY_ONE, z5], [PolyQ.zero(), POLY_ONE]])
        assert _assignment_bound(m) == 0
        inv = polymatrix_inverse_unimodular(m)
        assert inv == PolyMatrix.from_rows([[POLY_ONE, -z5], [PolyQ.zero(), POLY_ONE]])
        # the inverse's degree is the bound itself, so its zero run ends
        # past the bound: lifting must run to bound + deg m
        assert inv.max_degree() == _det_degree_bound(m) == 5

    def test_lifting_does_not_stop_at_the_first_zero_term(self):
        # X_1 = 0 but X_2 = -z^2's coefficient: for a degree-2 m, lifting
        # may stop only after two zero terms in a row
        z2 = PolyQ.monomial(2)
        m = PolyMatrix.from_rows([[POLY_ONE, z2], [PolyQ.zero(), POLY_ONE]])
        inv = polymatrix_inverse_unimodular(m)
        assert inv == PolyMatrix.from_rows([[POLY_ONE, -z2], [PolyQ.zero(), POLY_ONE]])
        assert [e.grade for e in inv.entries] == [0, 2, 0, 0]

    def test_lifting_matches_pointwise_inverse(self):
        # the Uinv of one drawn instance per triangular basis, and a Hermite
        # transform: the lifted inverse agrees with the rational inverse of
        # every evaluation up to one point past its degree, and each entry's
        # grade is its degree (the serialized certificate pads to the grade)
        rng = random.Random(11)
        draws = [
            (rand_recurrence_spec(rng, 3), build_recurrence_pencil,
             recurrence_hermite_analogue),
            (Bernstein(3), build_bernstein_pencil, bernstein_hermite_analogue),
            (Lagrange(3, rand_nodes(rng, 4)), build_lagrange_pencil,
             lagrange_hermite_factors),
        ]
        matrices = []
        for basis, build, factor in draws:
            p = rand_matrix_polynomial(rng, basis, 2)
            matrices.append(factor(p, build(p)).uinv)
        mono = rand_matrix_polynomial(rng, Monomial(2), 2)
        matrices.append(hermite_form(build_monomial_pencil(mono).as_polymatrix()).u)
        for m in matrices:
            inv = polymatrix_inverse_unimodular(m)
            assert inv.max_degree() >= 1
            for x in range(inv.max_degree() + 2):
                assert inv.evaluate(x) == m.evaluate(x).try_inverse()
            assert all(e.grade == max(e.degree, 0) for e in inv.entries)

    def test_inverse_of_strict_equivalence_transform(self):
        # the 5x5 constant transform from the Bernstein strict equivalence,
        # inverted as a polynomial matrix; multiply-back must give I
        from polylin import Bernstein, MatrixPolynomial
        from polylin.equivalence import bernstein_strict_equivalence

        rng = random.Random(7)
        y = [rand_fraction(rng) for _ in range(6)]
        se = bernstein_strict_equivalence(MatrixPolynomial.scalar(Bernstein(5), y))
        uinv = PolyMatrix.from_const(se.u.try_inverse())
        u = polymatrix_inverse_unimodular(uinv)
        assert polymatrix_mul(uinv, u) == PolyMatrix.identity(5)
        assert u == PolyMatrix.from_const(se.u)


def unimodular_draws(rng):
    """(m, m^-1) for products of unit upper- and lower-triangular matrices
    with linear entries, the first row scaled by a nonzero constant so
    that det m is not always 1, at sizes 1-5."""
    for n in range(1, 6):
        up = PolyMatrix.identity(n).to_rows()
        lo = PolyMatrix.identity(n).to_rows()
        for i in range(n):
            for j in range(i + 1, n):
                up[i][j] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
                lo[j][i] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
        c = rand_fraction(rng, nonzero=True)
        up[0] = [e.scale(c) for e in up[0]]
        m = polymatrix_mul(PolyMatrix.from_rows(up), PolyMatrix.from_rows(lo))
        yield m, polymatrix_inverse_unimodular(m)


def with_entry(m, i, j, e):
    rows = m.to_rows()
    rows[i][j] = e
    return PolyMatrix.from_rows(rows)


class TestUnitByInverse:
    def test_matches_the_determinant(self):
        rng = random.Random(31)
        for _ in range(10):
            for m, x in unimodular_draws(rng):
                assert unit_by_inverse(m, x) == is_unimodular(m)[1]
                assert unit_by_inverse(x, m) == is_unimodular(x)[1]

    def test_wrong_witnesses_give_none(self):
        """One entry changed, a zero row, c * m^-1 with c != 1, a wrong
        shape, and (1 + z^k e_i e_j^T) m^-1, whose product with m equals I
        in its constant terms and in every coefficient but that of z^k:
        each makes x @ m differ from I, or the shapes not fit."""
        rng = random.Random(32)
        for m, x in unimodular_draws(rng):
            n = m.rows
            i, j = rng.randrange(n), rng.randrange(n)
            zero_row = x.to_rows()
            zero_row[i] = [PolyQ.zero()] * n
            unit = PolyMatrix.zeros(n, n).to_rows()
            unit[i][j] = PolyQ.monomial(rng.randint(1, 3))
            unit = PolyMatrix.from_rows(unit)
            one_term = x + loop_mul(unit, x)
            assert loop_mul(one_term, m) == PolyMatrix.identity(n) + unit
            bad = [
                one_term,
                with_entry(x, i, j, x.get(i, j) + PolyQ([rand_fraction(rng, nonzero=True)])),
                with_entry(x, i, j, x.get(i, j) + PolyQ.monomial(3)),
                PolyMatrix.from_rows(zero_row),
                x.scale(2),
                x.scale(-1),
                PolyMatrix.identity(n + 1),
                PolyMatrix.zeros(n, n + 1),
            ]
            for w in bad:
                assert unit_by_inverse(m, w) is None
            assert unit_by_inverse(PolyMatrix.zeros(n, n + 1), PolyMatrix.identity(n)) is None

    def test_packed_check_is_sound(self):
        """x = (I + (2**t - z**k) e_i e_j^T) m^-1, with t up to twice the
        bits of the check x = m^-1 and k = 1, 2: x @ m differs from I only
        by 2**t - z**k at (i, j), which packs to 0 at t / k bits.  And
        [[2**-s]] against [[z**k]]: z**k / 2**s packs to its denominator at
        s / k bits.  Each gives None."""
        rng = random.Random(34)
        for m, x in unimodular_draws(rng):
            n = m.rows
            i, j = rng.randrange(n), rng.randrange(n)
            bits = exact._packed_bits((exact._read_rows(x), exact._read_rows(m)))
            for k in (1, 2):
                for t in range(1, 2 * bits + 1):
                    g = PolyQ([2**t] + [0] * (k - 1) + [-1])
                    rows = x.to_rows()
                    rows[i] = [e + g * f for e, f in zip(rows[i], x.row(j))]
                    w = PolyMatrix.from_rows(rows)
                    if t == bits * k:
                        assert loop_mul(w, m) == with_entry(PolyMatrix.identity(n), i, j,
                                                            PolyQ([int(i == j)]) + g)
                    assert unit_by_inverse(m, w) is None
        for k in (1, 2, 3):
            m = PolyMatrix.from_rows([[PolyQ.monomial(k)]])
            for s in range(1, 9):
                assert unit_by_inverse(m, PolyMatrix.from_rows([[PolyQ([F(1, 2**s)])]])) is None

    def test_polynomial_determinant_is_never_proved(self):
        m = PolyMatrix.from_rows([[PolyQ([-2, 1])]])  # det z - 2
        for w in ([1], [F(-1, 2)], [2, 1], [0]):
            assert unit_by_inverse(m, PolyMatrix.from_rows([[PolyQ(w)]])) is None

    def test_empty(self):
        assert unit_by_inverse(PolyMatrix.zeros(0, 0), PolyMatrix.zeros(0, 0)) == 1

    def test_makes_no_polyq(self, monkeypatch):
        calls = []

        def spy(real):
            def wrapped(*args, **kwargs):
                calls.append(1)
                return real(*args, **kwargs)
            return wrapped

        triples = [(m, x, x.scale(2)) for m, x in unimodular_draws(random.Random(33))]
        monkeypatch.setattr(PolyQ, "__init__", spy(PolyQ.__init__))
        monkeypatch.setattr(poly, "_from_form", spy(poly._from_form))
        for m, x, twice in triples:
            assert unit_by_inverse(m, x) is not None
            assert unit_by_inverse(m, twice) is None
        assert calls == []


class TestConstMatrix:
    def test_inverse_roundtrip(self):
        rng = random.Random(6)
        for n in (1, 2, 3, 4):
            while True:
                m = ConstMatrix(n, n, [rand_fraction(rng) for _ in range(n * n)])
                if m.det() != 0:
                    break
            assert m @ m.try_inverse() == ConstMatrix.identity(n)

    def test_det_bareiss_with_pivoting(self):
        m = ConstMatrix.from_rows([[0, -1], [-1, 0]])
        assert m.det() == -1

    def test_singular_inverse_none(self):
        m = ConstMatrix.from_rows([[1, 2], [2, 4]])
        assert m.try_inverse() is None

    def test_kron_identity(self):
        m = ConstMatrix.from_rows([[2, 0], [1, 3]])
        k = m.kron_identity(2)
        assert k.rows == 4
        assert k.get(0, 0) == 2 and k.get(1, 1) == 2
        assert k.get(2, 0) == 1 and k.get(3, 1) == 1
        assert k.get(2, 2) == 3 and k.get(3, 3) == 3
        assert k.get(0, 1) == 0



class TestBlockAssembly:
    def test_blocks_round_trip(self):
        rng = random.Random(80)
        blocks = [[rand_polymatrix(rng, 2, 2) for _ in range(3)] for _ in range(2)]
        m = PolyMatrix.from_blocks(blocks, 2)
        assert (m.rows, m.cols) == (4, 6)
        for i, row in enumerate(blocks):
            for j, blk in enumerate(row):
                assert m.block(i, j, 2) == blk
        c = ConstMatrix.from_blocks([[None, ConstMatrix.identity(2)]], 2)
        assert c.block(0, 0, 2).is_zero and c.block(0, 1, 2) == ConstMatrix.identity(2)

    @pytest.mark.parametrize("size", [1, 3])
    def test_wrong_block_size_rejected(self, size):
        # a 3x3 block used to be cut to its top-left 2x2 without a word
        with pytest.raises(DimensionMismatch):
            PolyMatrix.from_blocks([[PolyMatrix.identity(size)]], 2)
        with pytest.raises(DimensionMismatch):
            ConstMatrix.from_blocks([[ConstMatrix.identity(size)]], 2)

    def test_ragged_grid_rejected(self):
        eye = PolyMatrix.identity(2)
        for grid in ([[eye], [eye, eye]], [[eye, None], [eye]]):
            with pytest.raises(DimensionMismatch):
                PolyMatrix.from_blocks(grid, 2)
        ceye = ConstMatrix.identity(2)
        for grid in ([[ceye], [ceye, ceye]], [[ceye, None], [ceye]]):
            with pytest.raises(DimensionMismatch):
                ConstMatrix.from_blocks(grid, 2)


def loop_pencil_polymatrix(pencil):
    """The entry loop Pencil.as_polymatrix once was."""
    entries = [PolyQ((-pencil.c0.get(i, j), pencil.c1.get(i, j)), grade=1)
               for i in range(pencil.size) for j in range(pencil.size)]
    return PolyMatrix(pencil.size, pencil.size, entries)


def loop_poly_as_polymatrix(mono, grade):
    """The entry loop bases.matrix_poly_as_polymatrix once was, on the
    monomial blocks of P."""
    n = mono.n
    return PolyMatrix(n, n, [PolyQ([blk.get(i, j) for blk in mono.coeffs], grade=grade)
                             for i in range(n) for j in range(n)])


class TestFromCoeffs:
    """PolyMatrix.from_coeffs(blocks, grade) is sum_k blocks[k] z^k; the
    grade of each entry is part of the output (serialize pads to it)."""

    def test_zero_entries_keep_the_grade(self):
        blocks = [ConstMatrix.from_rows([[1, 0], [0, 0]]),
                  ConstMatrix.from_rows([[0, 0], [2, 0]]),
                  ConstMatrix.zeros(2, 2)]
        m = PolyMatrix.from_coeffs(blocks, grade=4)
        assert [e.grade for e in m.entries] == [4, 4, 4, 4]
        assert [e.coeffs for e in m.entries] == [(1,), (), (0, 2), ()]
        # without a grade each entry takes its degree (0 for zero entries)
        assert [e.grade for e in PolyMatrix.from_coeffs(blocks).entries] == [0, 0, 1, 0]

    def test_rectangular_and_const(self):
        a = ConstMatrix.from_rows([[1, F(1, 2), 0]])
        b = ConstMatrix.from_rows([[0, 3, F(-2, 7)]])
        m = PolyMatrix.from_coeffs([a, b])
        assert (m.rows, m.cols) == (1, 3)
        assert m.entries == (PolyQ([1]), PolyQ([F(1, 2), 3]), PolyQ([0, F(-2, 7)]))
        assert PolyMatrix.from_const(a) == PolyMatrix.from_coeffs([a])
        with pytest.raises(ValueError):
            PolyMatrix.from_coeffs([a, b], grade=0)

    def test_pencils_match_the_entry_loop(self):
        rng = random.Random(81)
        for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
            for grade in range(2, 11):
                p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), rng.randint(1, 3))
                pen = build_pencil(p)
                got, want = pen.as_polymatrix(), loop_pencil_polymatrix(pen)
                assert all(same_poly(x, y) for x, y in zip(got.entries, want.entries))
                assert got.entries and len(got.entries) == len(want.entries)

    def test_matrix_polynomials_match_the_entry_loop(self):
        rng = random.Random(82)
        for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
            for grade in range(1, 11):
                p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), rng.randint(1, 3))
                if rng.random() < 0.3:  # zero top blocks: entries below the grade
                    zero = ConstMatrix.zeros(p.n, p.n)
                    p = MatrixPolynomial(p.n, p.basis, p.coeffs[:1] + (zero,) * grade)
                got = matrix_poly_as_polymatrix(p)
                want = loop_poly_as_polymatrix(to_monomial(p), grade)
                assert all(same_poly(x, y) for x, y in zip(got.entries, want.entries))
                assert len(got.entries) == p.n * p.n

    def test_lifted_inverse_matches_the_entry_loop(self):
        """The inverse's entries have their degrees as grades, as the
        per-entry PolyQ(list) assembly gave them."""
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(1, 3)
            lo = PolyMatrix(n, n, [POLY_ONE if i == j else
                                   (rand_polymatrix(rng, 1, 2).entries[0] if i > j else PolyQ.zero())
                                   for i in range(n) for j in range(n)])
            m = polymatrix_mul(lo, lo.transpose())
            inv = polymatrix_inverse_unimodular(m)
            assert polymatrix_mul(m, inv) == PolyMatrix.identity(n)
            assert all(e.grade == max(e.degree, 0) for e in inv.entries)


class TestConstKernels:
    """The integer product and fraction-free solve against the Fraction
    loops they replaced."""

    def test_matmul_matches_fraction_loop(self):
        rng = random.Random(21)
        shapes = [(1, 1, 1), (2, 3, 1), (1, 4, 3), (3, 2, 4), (5, 5, 5), (7, 3, 6),
                  (2, 0, 3), (0, 3, 2), (3, 2, 0)]
        for rows, inner, cols in shapes:
            for zero_share in (0.0, 0.5, 0.9):
                a = rand_const(rng, rows, inner, zero_share)
                b = rand_const(rng, inner, cols, zero_share)
                got, want = a @ b, fraction_matmul(a, b)
                assert got == want and got.entries == want.entries
        # an all-zero row of a and an all-zero column of b
        a = ConstMatrix.from_rows([[F(1, 2), F(-3, 7)], [0, 0], [5, F(1, 10)]])
        b = ConstMatrix.from_rows([[F(2, 3), 0, 4], [F(-1, 12), 0, F(7, 2)]])
        got = a @ b
        assert got == fraction_matmul(a, b) and got.entries == fraction_matmul(a, b).entries
        assert got.row(1) == [0, 0, 0] and [got.get(i, 1) for i in range(3)] == [0, 0, 0]

    def test_solve_matches_fraction_elimination(self):
        # a = X @ Y has every rank from 0 to min(m, n); right-hand sides are
        # consistent (a @ Z) or drawn at random, which is mostly inconsistent
        # when a is rank deficient
        rng = random.Random(22)
        outcomes = {"solved": 0, "none": 0}
        for _ in range(400):
            m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 3)
            rank = rng.randint(0, min(m, n))
            a = fraction_matmul(rand_const(rng, m, rank), rand_const(rng, rank, n))
            if rng.random() < 0.5:
                b = fraction_matmul(a, rand_const(rng, n, k))
            else:
                b = rand_const(rng, m, k)
            got, want = exact.solve_exact(a, b), fraction_solve(a, b)
            assert got == want
            if got is None:
                outcomes["none"] += 1
            else:
                outcomes["solved"] += 1
                assert fraction_matmul(a, got) == b
        assert min(outcomes.values()) > 100

    def test_inverse_matches_fraction_elimination(self):
        rng = random.Random(23)
        for n in range(1, 8):
            for zero_share in (0.0, 0.6):
                m = rand_const(rng, n, n, zero_share)
                assert m.try_inverse() == fraction_solve(m, ConstMatrix.identity(n))

    def test_det_matches_bareiss(self):
        rng = random.Random(24)
        draws = [rand_const(rng, n, n, zero_share)
                 for n in range(11) for zero_share in (0.0, 0.6, 0.9) for _ in range(3)]
        # singular by construction: X @ Y of rank below n
        draws += [fraction_matmul(rand_const(rng, n, rank), rand_const(rng, rank, n))
                  for n in range(1, 9) for rank in range(n)]
        # a zero row, a zero column
        for n in range(1, 7):
            m = rand_const(rng, n, n, 0.0).to_rows()
            k = rng.randrange(n)
            draws.append(ConstMatrix.from_rows(m[:k] + [[0] * n] + m[k + 1:]))
            draws.append(ConstMatrix.from_rows([r[:k] + [0] + r[k + 1:] for r in m]))
        draws += kron_draws(rng) + companion_draws(rng)
        singular = 0
        for m in draws:
            got = m.det()
            assert got == bareiss_det(m)
            singular += got == 0
        assert singular > 40

    def test_solve_structured_matches_fraction_elimination(self):
        rng = random.Random(25)
        for m in kron_draws(rng) + companion_draws(rng):
            assert m.try_inverse() == fraction_solve(m, ConstMatrix.identity(m.rows))
            b = rand_const(rng, m.rows, 2)
            assert exact.solve_exact(m, b) == fraction_solve(m, b)

    def test_overdetermined_strict_system(self):
        # [C1^T; C0^T] of a monomial pencil, 2N x N as in the Bernstein strict
        # map: a consistent right-hand side is solved, a random one refused
        rng = random.Random(26)
        outcomes = {"solved": 0, "none": 0}
        for grade, n in ((2, 1), (2, 2), (3, 2), (4, 3), (5, 2)):
            p = rand_matrix_polynomial(rng, Monomial(grade), n)
            pen = build_monomial_pencil(p)
            a = ConstMatrix.from_rows(pen.c1.transpose().to_rows()
                                      + pen.c0.transpose().to_rows())
            for b in (fraction_matmul(a, rand_const(rng, a.cols, n)),
                      rand_const(rng, a.rows, n)):
                got = exact.solve_exact(a, b)
                assert got == fraction_solve(a, b)
                if got is None:
                    outcomes["none"] += 1
                else:
                    outcomes["solved"] += 1
                    assert fraction_matmul(a, got) == b
        assert outcomes == {"solved": 5, "none": 5}

    @pytest.mark.parametrize("jordan", [False, True])
    def test_reduction_stays_within_hadamard_bound(self, jordan):
        # every reduced row is the primitive multiple of a row of minors, so
        # no entry outgrows the Hadamard bound of the integer-scaled input
        rng = random.Random(27)
        draws = [rand_const(rng, rows, cols, zero_share)
                 for rows, cols in ((6, 6), (10, 10), (12, 7), (7, 12))
                 for zero_share in (0.0, 0.5)]
        draws += kron_draws(rng)[-6:] + companion_draws(rng)[-6:]
        for m in draws:
            dense = integer_rows(m)[0]
            bound = hadamard_bound_sq(dense)
            rows = [{j: x for j, x in enumerate(r) if x} for r in dense]
            exact._reduce_rows(rows, m.cols, jordan)
            assert max(x * x for r in rows for x in r.values()) <= bound

    def test_transpose(self):
        m = ConstMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == ConstMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
        assert ConstMatrix.zeros(0, 3).transpose() == ConstMatrix.zeros(3, 0)


def unit_upper(t, s, n):
    """[[I_n, t], [0, s (x) I_n]], the shape of the Bernstein strict and
    reversal U."""
    top = t.to_rows()
    return ConstMatrix.from_rows(
        [[F(int(i == j)) for j in range(n)] + top[i] for i in range(n)]
        + [[F(0)] * n + r for r in s.kron_identity(n).to_rows()])


def unit_upper_draws(rng):
    """unit_upper with s dense, sparse or singular (rank below its size)."""
    draws = []
    for n in (1, 2, 3):
        for size in (2, 4, 6):
            for zero_share in (0.0, 0.6):
                t = rand_const(rng, n, size * n, zero_share)
                draws.append(unit_upper(t, rand_const(rng, size, size, zero_share), n))
            low = fraction_matmul(rand_const(rng, size, size - 1), rand_const(rng, size - 1, size))
            draws.append(unit_upper(rand_const(rng, n, size * n), low, n))
    return draws


def permuted_triangular(rng, size, zero_diagonal=False):
    """An upper triangular matrix with its rows and columns permuted, and
    its determinant from the diagonal and the two permutation signs."""
    diag = [F(0) if zero_diagonal and k == size // 2 else
            F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for k in range(size)]
    tri = [[diag[i] if i == j else rand_const(rng, 1, 1, 0.4).get(0, 0) if j > i else F(0)
            for j in range(size)] for i in range(size)]
    rp, cp = rng.sample(range(size), size), rng.sample(range(size), size)

    def sign(perm):
        return (-1) ** sum(1 for i in range(size) for j in range(i) if perm[j] > perm[i])

    m = ConstMatrix.from_rows([[tri[rp[i]][cp[j]] for j in range(size)] for i in range(size)])
    return m, sign(rp) * sign(cp) * math.prod(diag)


class TestSparseReduction:
    """ConstMatrix.det, try_inverse and solve_exact on sparse rows, against
    the dense reduction they replaced (conftest.reference_*) and against
    bareiss_det and fraction_solve."""

    @staticmethod
    def square_draws(rng):
        draws = [rand_const(rng, n, n, zero_share)
                 for n in range(1, 10) for zero_share in (0.0, 0.5, 0.85)]
        draws += [fraction_matmul(rand_const(rng, n, rank), rand_const(rng, rank, n))
                  for n in range(2, 8) for rank in (0, n // 2, n - 1)]
        draws += kron_draws(rng) + companion_draws(rng) + unit_upper_draws(rng)
        draws += [permuted_triangular(rng, size, zero)[0]
                  for size in range(1, 9) for zero in (False, True)]
        return draws

    @staticmethod
    def rectangular_draws(rng):
        draws = [rand_const(rng, rows, cols, zero_share)
                 for rows, cols in ((2, 5), (5, 2), (3, 7), (7, 3), (1, 4), (4, 1))
                 for zero_share in (0.0, 0.6)]
        draws += [fraction_matmul(rand_const(rng, rows, rank), rand_const(rng, rank, cols))
                  for rows, cols in ((4, 6), (6, 4), (5, 5)) for rank in (1, 2, 3)]
        draws += [ConstMatrix.from_rows(m.to_rows() + m.to_rows()[:2]) for m in kron_draws(rng)[:8]]
        return draws

    def test_det_matches_references(self):
        rng = random.Random(120)
        singular = 0
        for m in self.square_draws(rng):
            got = m.det()
            assert got == reference_det(m) == bareiss_det(m)
            singular += got == 0
        assert singular > 30

    def test_permuted_triangular_sign(self):
        rng = random.Random(121)
        signs = set()
        for size in range(1, 11):
            for zero in (False, True):
                for _ in range(4):
                    m, want = permuted_triangular(rng, size, zero)
                    assert m.det() == want == reference_det(m)
                    signs.add((want > 0) - (want < 0))
        assert signs == {-1, 0, 1}

    def test_inverse_matches_references(self):
        rng = random.Random(122)
        invertible = 0
        for m in self.square_draws(rng):
            eye = ConstMatrix.identity(m.rows)
            got = m.try_inverse()
            assert got == reference_solve(m, eye) == fraction_solve(m, eye)
            invertible += got is not None
        assert invertible > 80

    def test_solve_matches_references(self):
        # consistent right-hand sides (a @ x) and random ones, which are
        # mostly inconsistent when a is rank deficient or tall
        rng = random.Random(123)
        outcomes = {"solved": 0, "none": 0}
        for a in self.square_draws(rng) + self.rectangular_draws(rng):
            for b in (fraction_matmul(a, rand_const(rng, a.cols, 2)), rand_const(rng, a.rows, 2)):
                got = exact.solve_exact(a, b)
                assert got == reference_solve(a, b) == fraction_solve(a, b)
                if got is None:
                    outcomes["none"] += 1
                else:
                    outcomes["solved"] += 1
                    assert fraction_matmul(a, got) == b
        assert min(outcomes.values()) > 40

    def test_rows_keep_only_nonzero_entries(self):
        # every row stays a dict of nonzero entries, and the pivot rows come
        # first: in a determinant each is zero left of its pivot, in a solve
        # each is zero in the other pivot columns
        rng = random.Random(124)
        for m in self.square_draws(rng)[::3] + self.rectangular_draws(rng):
            for jordan in (False, True):
                rows = [dict(pairs) for _, pairs in m._form]
                pivots = exact._reduce_rows(rows, m.cols, jordan)[0]
                want = reference_reduce_rows(integer_rows(m)[0], m.cols, jordan)[0]
                assert pivots == want
                assert all(x for row in rows for x in row.values())
                for k, (row, c) in enumerate(zip(rows, pivots)):
                    others = pivots if jordan else pivots[:k]
                    assert c in row and not any(j in row for j in others if j != c)
                assert not any(j < m.cols for row in rows[len(pivots):] for j in row)

    def test_pivot_row_is_the_sparsest(self):
        # column 0: rows 1 and 3 are its sparsest rows and row 1 comes
        # first, so row 1 is the first pivot row, moved up past one row and
        # left as it was; the determinant of rows 0-2 keeps that sign change
        rows = [{0: 2, 1: 1, 2: 1}, {0: 3, 2: 5}, {1: 4}, {0: 1, 1: 7}]
        reduced = [dict(r) for r in rows]
        assert exact._reduce_rows(reduced, 3, jordan=False)[0] == [0, 1, 2]
        assert reduced[0] == {0: 3, 2: 5}
        square = ConstMatrix.from_rows([[r.get(j, 0) for j in range(3)] for r in rows[:3]])
        assert square.det() == reference_det(square) == bareiss_det(square) == -28


class TestRowForm:
    """ConstMatrix keeps one canonical integer row form; products are built
    from it alone and their entries made when read.  Each test reads its
    products through `unread_product`, which checks the form."""

    SHAPES = [(1, 1, 1), (3, 4, 2), (5, 5, 5), (4, 7, 6), (2, 0, 3), (0, 3, 2), (3, 2, 0)]

    @staticmethod
    def materialized(m):
        """Whether m's entries exist yet (the slot read without __getattr__)."""
        try:
            exact._Matrix.entries.__get__(m)
        except AttributeError:
            return False
        return True

    @staticmethod
    def assert_canonical(m):
        """Every row is (d, pairs) with d > 0, increasing columns, nonzero
        ints and gcd(d, ints) = 1."""
        assert len(m._form) == m.rows
        for den, pairs in m._form:
            cols = [j for j, _ in pairs]
            assert den > 0 and cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
            assert all(x for _, x in pairs)
            assert math.gcd(den, *(x for _, x in pairs)) == 1

    def unread_product(self, a, b):
        """a @ b, checked canonical and not yet materialized."""
        p = a @ b
        assert not self.materialized(p)
        self.assert_canonical(p)
        return p

    def draws(self, rng):
        """Mixed denominators, dense to mostly zero, with all-zero rows."""
        for rows, inner, cols in self.SHAPES:
            for zero_share in (0.0, 0.5, 0.9):
                yield (rand_const(rng, rows, inner, zero_share),
                       rand_const(rng, inner, cols, zero_share))
        a = ConstMatrix.from_rows([[F(1, 2), F(-3, 7)], [0, 0], [5, F(1, 10)]])
        b = ConstMatrix.from_rows([[F(2, 3), 0, 4], [F(-1, 12), 0, F(7, 2)]])
        yield a, b
        # row 0 of the product cancels to zero, row 1 to content 6
        yield (ConstMatrix.from_rows([[1, -1], [3, 3]]),
               ConstMatrix.from_rows([[F(1, 2), F(2, 3)], [F(1, 2), F(2, 3)]]))

    def test_chained_products_match_fraction_loop(self):
        # the middle factor a @ b is never materialized
        rng = random.Random(42)
        for a, b in self.draws(rng):
            c = rand_const(rng, b.cols, 3, 0.4)
            ab = self.unread_product(a, b)
            abc = self.unread_product(ab, c)
            assert not self.materialized(ab)
            assert abc.entries == fraction_matmul(fraction_matmul(a, b), c).entries
            assert self.materialized(abc) and not self.materialized(ab)

    def test_equality_and_hash_against_a_copy(self):
        rng = random.Random(43)
        for a, b in self.draws(rng):
            got = self.unread_product(a, b)
            want = fraction_matmul(a, b)
            copy = ConstMatrix.from_rows(want.to_rows()) if want.rows else want
            assert got == want and want == got
            assert got == copy and copy == got
            assert not self.materialized(got)
            assert hash(got) == hash(copy)
            if want.rows and want.cols:
                i, j = rng.randrange(want.rows), rng.randrange(want.cols)
                rows = want.to_rows()
                rows[i][j] += F(1, 7)
                other = ConstMatrix.from_rows(rows)
                assert got != other and other != got
        assert ConstMatrix.zeros(2, 3) != ConstMatrix.zeros(3, 2)
        assert (ConstMatrix.zeros(2, 0) @ ConstMatrix.zeros(0, 3)).is_zero

    def test_det_inverse_and_solve_of_unread_products(self):
        rng = random.Random(44)
        invertible = 0
        for n in range(1, 8):
            for inner in (n - 1, n, n + 2):
                for zero_share in (0.0, 0.5):
                    a = rand_const(rng, n, inner, zero_share)
                    b = rand_const(rng, inner, n, zero_share)
                    c = rand_const(rng, inner, 2, zero_share)
                    m, rhs = self.unread_product(a, b), self.unread_product(a, c)
                    want = fraction_matmul(a, b)
                    assert m.det() == bareiss_det(want)
                    inv = m.try_inverse()
                    assert inv == fraction_solve(want, ConstMatrix.identity(n))
                    sol = exact.solve_exact(m, rhs)
                    assert sol == fraction_solve(want, fraction_matmul(a, c))
                    assert not self.materialized(m) and not self.materialized(rhs)
                    for x in (inv, sol):
                        if x is not None:
                            self.assert_canonical(x)
                    invertible += inv is not None
        assert invertible > 10

    def test_from_rows_and_kron_are_canonical(self):
        rng = random.Random(45)
        for rows, cols, _ in self.SHAPES:
            for zero_share in (0.0, 0.5, 1.0):
                m = rand_const(rng, rows, cols, zero_share)
                self.assert_canonical(m)
                assert m.is_zero == all(x == 0 for x in m.entries)
                for n in (1, 3):
                    k = m.kron_identity(n)
                    self.assert_canonical(k)
                    want = [[m.get(i, j) if r == s else F(0)
                             for j in range(cols) for s in range(n)]
                            for i in range(rows) for r in range(n)]
                    assert k.to_rows() == want

    def unread(self, m, want):
        """m is canonical, not materialized, and has the entries of want."""
        self.assert_canonical(m)
        assert not self.materialized(m)
        assert (m.rows, m.cols) == (want.rows, want.cols) and m.to_rows() == want.to_rows()

    def test_sums_differences_and_negation_match_fraction_loop(self):
        rng = random.Random(46)
        pairs = [(rand_const(rng, rows, cols, zero_share), rand_const(rng, rows, cols, zero_share))
                 for rows, cols, _ in self.SHAPES for zero_share in (0.0, 0.5, 0.9)]
        # a row that cancels to zero, and one that is [3, 9, -9] over 6 before its gcd 3
        a = ConstMatrix.from_rows([[F(1, 2), F(2, 3), 0], [F(5, 6), F(1, 6), F(1, 2)]])
        b = ConstMatrix.from_rows([[F(1, 2), F(2, 3), 0], [F(1, 3), F(-4, 3), 2]])
        pairs += [(a, b), (a, -a), (a @ ConstMatrix.identity(3), b)]
        for left, right in pairs:
            for got, op in ((left + right, lambda x, y: x + y), (left - right, lambda x, y: x - y)):
                want = ConstMatrix(left.rows, left.cols,
                                   [op(x, y) for x, y in zip(left.entries, right.entries)])
                self.unread(got, want)
            self.unread(-right, ConstMatrix(right.rows, right.cols, [-y for y in right.entries]))
        assert (a - a).is_zero and (a - b)._form[0] == (1, [])
        assert (a - b)._form[1] == (2, [(0, 1), (1, 3), (2, -3)])
        with pytest.raises(DimensionMismatch):
            ConstMatrix.zeros(2, 3) + ConstMatrix.zeros(3, 2)

    def test_scale_matches_fraction_loop(self):
        # d = 9 and content 2 in row 0: 3/2 cancels a factor from each,
        # 6/4 is the same scalar, 9/2 takes the whole denominator
        m = ConstMatrix.from_rows([[F(2, 3), F(4, 9), 0], [0, 0, 0], [F(-5, 7), 1, F(3, 14)]])
        rng = random.Random(47)
        draws = [m] + [rand_const(rng, rows, cols, zero_share)
                       for rows, cols, _ in self.SHAPES for zero_share in (0.0, 0.5)]
        scalars = [0, 1, -1, F(3, 2), "6/4", F(-9, 2), F(14, 5), F(7, 3), 12]
        for a in draws:
            for c in scalars:
                f = F(c)
                self.unread(a.scale(c), ConstMatrix(a.rows, a.cols, [f * x for x in a.entries]))
        assert m.scale(F(3, 2))._form[0] == (3, [(0, 3), (1, 2)])
        with pytest.raises(TypeError):
            m.scale(0.5)

    @staticmethod
    def loop_from_blocks(grid, n):
        """The entry loop block assembly was, with None as a zero block."""
        rows = []
        for row in grid:
            for r in range(n):
                rows.append([F(0) if blk is None else blk.get(r, c) for blk in row for c in range(n)])
        return ConstMatrix.from_rows(rows)

    def test_from_blocks_matches_fraction_loop(self):
        rng = random.Random(48)
        for n in (1, 2, 3):
            for shape in ((1, 1), (2, 3), (3, 2), (4, 4)):
                grid = [[None if rng.random() < 0.3 else
                         rand_const(rng, n, n, rng.choice((0.0, 0.5, 1.0)))
                         for _ in range(shape[1])] for _ in range(shape[0])]
                got = ConstMatrix.from_blocks(grid, n)
                self.unread(got, self.loop_from_blocks(grid, n))
        # mixed denominators side by side, a zero row, an all-None block row
        a = ConstMatrix.from_rows([[F(1, 4), F(1, 6)], [0, 0]])
        b = ConstMatrix.from_rows([[F(3, 2), 0], [F(2, 9), 1]])
        grid = [[a, None, b], [None, None, None], [b.scale(F(3, 5)), -a, a + b]]
        got = ConstMatrix.from_blocks(grid, 2)
        self.unread(got, self.loop_from_blocks(grid, 2))
        assert got._form[0] == (12, [(0, 3), (1, 2), (4, 18)])

    def test_stacked_and_cut_blocks_round_trip(self):
        """transform_blocks stacks each block into one row over the lcm of
        its rows' denominators and cuts each product row back into a block
        whose rows are in lowest terms."""
        from polylin.bases import transform_blocks

        rng = random.Random(49)
        for n in (1, 2, 3):
            for count in (1, 3, 5):
                blocks = [rand_const(rng, n, n, rng.choice((0.0, 0.5, 1.0))) for _ in range(count)]
                # cut from an unread product, so each block's form is cut from a row form
                cut = transform_blocks(ConstMatrix.identity(count), blocks)
                for got, want in zip(cut, blocks, strict=True):
                    self.unread(got, want)
        # one stacked row over 6 whose pieces are over 6 and 1 once cut
        (same,) = transform_blocks(ConstMatrix.identity(1),
                                   [ConstMatrix.from_rows([[F(1, 2), F(1, 3)], [2, 4]])])
        assert same._form == [(6, [(0, 3), (1, 2)]), (1, [(0, 2), (1, 4)])]
        # the sum row [1/2, 0, 1/3, 1] over 6, cut into pieces over 2 and 3
        (halves,) = transform_blocks(ConstMatrix.from_rows([[1, 1]]),
                                     [ConstMatrix.from_rows([[F(1, 2), 0], [0, 0]]),
                                      ConstMatrix.from_rows([[0, 0], [F(1, 3), 1]])])
        assert halves._form == [(2, [(0, 1)]), (3, [(0, 1), (1, 3)])]


class TestPolyKernels:
    """The integer product, pseudo-division, fused a - q*b, the primitive
    remainder gcd and the one-product to_monomial against the Fraction loops
    they replaced."""

    def test_mul_matches_fraction_loop(self):
        rng = random.Random(31)
        for _ in range(600):
            a, b = rand_poly(rng), rand_poly(rng)
            assert same_poly(a * b, fraction_poly_mul(a, b))

    def test_divmod_matches_fraction_division(self):
        rng = random.Random(32)
        rescaled = 0
        for _ in range(600):
            a, b = rand_poly(rng), rand_poly(rng, max_deg=5)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            wq, wr = fraction_divmod(a, b)
            assert same_poly(q, wq) and same_poly(r, wr)
            rescaled += b.lead not in (1, -1) and q.degree >= 1
        assert rescaled > 100

    def test_divmod_by_non_monic_integer_lead(self):
        # 2z + 1 has integer lead 2: the quotient of z^2 needs the rescale
        q, r = divmod(PolyQ([0, 0, 1]), PolyQ([1, 2]))
        assert q == PolyQ([F(-1, 4), F(1, 2)]) and r == PolyQ([F(1, 4)])

    def test_sub_mul_matches_fraction_loop(self):
        rng = random.Random(33)
        for _ in range(900):
            a, q, b = rand_poly(rng), rand_poly(rng, max_deg=3), rand_poly(rng)
            assert same_poly(sub_mul(a, q, b), fraction_sub_mul(a, q, b))

    def test_sub_mul_grade_is_not_the_degree(self):
        a = PolyQ([1, 2], grade=4)
        z = PolyQ([0, 1], grade=2)
        cases = [
            (a, z, PolyQ.zero(grade=3), 5),   # q * b vanishes, its grade stays
            (a, PolyQ.zero(grade=1), z, 4),
            (PolyQ.zero(grade=6), z, z, 6),
            (a, z, PolyQ([0, 1]), 4),
            (PolyQ([0, 0, 1]), PolyQ([1]), PolyQ([0, 0, 1]), 2),  # cancels to 0
        ]
        for x, q, y, grade in cases:
            got = sub_mul(x, q, y)
            assert same_poly(got, fraction_sub_mul(x, q, y))
            assert got.grade == grade

    def test_gcd_matches_euclid_loop(self):
        rng = random.Random(34)
        nontrivial = 0
        for _ in range(300):
            common = rand_poly(rng, max_deg=4)
            a = rand_poly(rng, max_deg=6) * common
            b = rand_poly(rng, max_deg=6) * common
            g = poly_gcd(a, b)
            assert g == euclid_gcd(a, b)
            assert all(type(c) is F for c in g.coeffs)
            assert g.is_zero or g.lead == 1
            nontrivial += g.degree >= 1
        assert nontrivial > 150

    def test_gcd_of_a_determinant_and_its_derivative(self):
        # a repeated factor of a 24x24 determinant: what the Smith checks ask
        rng = random.Random(35)
        p = rand_matrix_polynomial(rng, Lagrange(6, rand_nodes(rng, 7)), 3)
        d = polymatrix_det(build_lagrange_pencil(p).reversed_pencil().as_polymatrix())
        g = poly_gcd(d, d.derivative())
        assert g == euclid_gcd(d, d.derivative()) and g.degree >= 1

    def test_gcd_with_zero(self):
        assert poly_gcd(PolyQ.zero(), PolyQ.zero()).is_zero
        assert poly_gcd(PolyQ([0, 2]), PolyQ.zero()) == PolyQ([0, 1])
        assert poly_gcd(PolyQ.zero(), PolyQ([F(-3, 2), 3])) == PolyQ([F(-1, 2), 1])
        assert poly_gcd(PolyQ([F(2, 3)]), PolyQ([1, 1])) == POLY_ONE

    def draws(self, rng, count):
        specials = special_polys()
        for _ in range(count):
            yield tuple(rng.choice(specials) if rng.random() < 0.3 else rand_poly(rng, max_deg=6)
                        for _ in range(3))

    def test_int_native_operations_match_fraction_arithmetic(self):
        rng = random.Random(36)
        scalars = [0, 1, -1, 12, "-4/6", F(3, 2), F(-7, 12)]
        points = [0, 1, -2, "-4/6", F(7, 3)]
        for a, b, q in self.draws(rng, 500):
            assert same_poly(a + b, fraction_add(a, b))
            assert same_poly(a - b, fraction_add(a, b, -1))
            assert same_poly(-a, PolyQ([-c for c in a.coeffs], a.grade))
            assert same_poly(a * b, fraction_poly_mul(a, b))
            c = rng.choice(scalars)
            assert same_poly(a.scale(c), PolyQ([F(c) * x for x in a.coeffs], a.grade))
            assert same_poly(sub_mul(a, q, b), fraction_sub_mul(a, q, b))
            if not b.is_zero:
                got, want = divmod(a, b), fraction_divmod(a, b)
                assert same_poly(got[0], want[0]) and same_poly(got[1], want[1])
            g = poly_gcd(a, b)
            assert same_poly(g, euclid_gcd(a, b).with_grade(g.grade))
            assert g.grade == max(g.degree, 0)
            for x in points:
                value = a(x)
                assert type(value) is F
                assert value == sum((c * F(x) ** k for k, c in enumerate(a.coeffs)), F(0))
            assert a.lead == (a.coeffs[-1] if a.coeffs else 0)
            assert [a.coeff(k) for k in range(-1, len(a.coeffs) + 2)] == \
                [F(0)] + list(a.coeffs) + [F(0), F(0)]
            assert a.padded() == list(a.coeffs) + [F(0)] * (a.grade + 1 - len(a.coeffs))
            assert a.padded(a.grade + 2)[a.grade + 1:] == [F(0), F(0)]
            assert all(type(x) is F for x in a.padded() + [a.lead, a.coeff(0)])
            lifted = a.with_grade(a.grade + 2)
            assert same_poly(lifted, PolyQ(a.coeffs, a.grade + 2))
            assert same_poly(a.with_grade(max(a.degree, 0)), PolyQ(a.coeffs))
            if a.degree >= 1:
                with pytest.raises(ValueError):
                    a.with_grade(a.degree - 1)
                with pytest.raises(ValueError):
                    a.padded(a.degree - 1)
            assert str(a) == fraction_str(a)

    def test_fraction_and_integer_construction_agree(self):
        rng = random.Random(37)
        for a, _, _ in self.draws(rng, 300):
            den = math.lcm(*(c.denominator for c in a.coeffs))
            for k in (1, 3, -2, -6):
                ints = [int(c * den) * k for c in a.coeffs] + [0] * rng.randint(0, 2)
                b = poly._poly_from_ints(ints, den * k, a.grade)
                assert_canonical_poly(b)
                assert b == a and hash(b) == hash(a) and b.grade == a.grade
                with pytest.raises(AttributeError):
                    PolyQ.coeffs.__get__(b)  # not made until read
                assert b.coeffs == a.coeffs
                assert all(type(c) is F and c.denominator > 0
                           and math.gcd(c.numerator, c.denominator) == 1 for c in b.coeffs)
            assert a != a + POLY_ONE
            if a.ints:  # same ints over another denominator, or the converse
                assert a != a.scale(2) and a != a.scale(F(1, 3))
        assert PolyQ(["-4/6", 0]) == poly._poly_from_ints([4], -6) == PolyQ([F(-2, 3)])
        assert PolyQ(["-4/6"]).ints == (-2,) and PolyQ(["-4/6"]).den == 3
        assert PolyQ.zero(3) == PolyQ([0, 0]) and PolyQ.zero().den == 1
        assert PolyQ([F(1, 2)]) != POLY_ONE and PolyQ([0, F(1, 2)]) != PolyQ([0, 1])

    @pytest.mark.parametrize("kind", ["recurrence", "bernstein", "lagrange"])
    def test_to_monomial_matches_block_loop(self, kind):
        rng = random.Random(f"to-monomial/{kind}")
        for grade in range(1, 11):
            for n in (1, 2, 3):
                basis = rand_basis(rng, kind, grade)
                p = rand_matrix_polynomial(rng, basis, n)
                # one all-zero block, which the block loop skipped
                zeroed = list(p.coeffs)
                zeroed[rng.randrange(grade + 1)] = ConstMatrix.zeros(n, n)
                for q in (p, MatrixPolynomial(n, basis, tuple(zeroed))):
                    mono = to_monomial(q)
                    assert mono.basis == Monomial(grade)
                    assert mono.coeffs == block_loop_to_monomial(q)
                    assert all(type(x) is F for c in mono.coeffs for x in c.entries)


class TestExactInputs:
    """Floats, bools and None stay rejected; ints and "p/q" strings are
    coerced."""

    @pytest.mark.parametrize("bad", [0.5, True, None], ids=["float", "bool", "none"])
    def test_const_matrix_rejects(self, bad):
        with pytest.raises(TypeError):
            ConstMatrix(1, 1, [bad])
        with pytest.raises(TypeError):
            ConstMatrix(1, 2, [F(1), bad])

    def test_from_rows_rejects_float(self):
        with pytest.raises(TypeError):
            ConstMatrix.from_rows([[1.0]])

    def test_polyq_rejects_float(self):
        with pytest.raises(TypeError):
            PolyQ([0.5])

    @pytest.mark.parametrize("bad", [0.5, True, None], ids=["float", "bool", "none"])
    def test_polyq_rejects(self, bad):
        # alone and beside Fractions, so the all-Fraction shortcut in
        # PolyQ.__init__ cannot let one through
        with pytest.raises(TypeError):
            PolyQ([bad])
        with pytest.raises(TypeError):
            PolyQ([F(1), bad])
        with pytest.raises(TypeError):
            PolyQ([bad, F(1)], grade=3)

    def test_ints_and_strings_coerced(self):
        m = ConstMatrix(1, 3, [3, "-2/6", F(1, 2)])
        assert m.entries == (F(3), F(-1, 3), F(1, 2))
        assert all(type(x) is F for x in m.entries)
        assert PolyQ([1, "1/2"]).coeffs == (F(1), F(1, 2))
        p = PolyQ([F(1, 3), 2, "-4/6", 0])
        assert p.coeffs == (F(1, 3), F(2), F(-2, 3)) and p.grade == 2
        assert all(type(x) is F for x in p.coeffs)
