"""Exact scalar, polynomial, and polynomial-matrix arithmetic."""

import itertools
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
from polylin.errors import DimensionMismatch, NotUnimodular
from polylin.exact import (
    POLY_ONE,
    _assignment_bound,
    _det_degree_bound,
    is_unimodular,
    polymatrix_det,
    polymatrix_inverse_unimodular,
    polymatrix_mul,
    sub_mul,
)
from polylin.pencils import (
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_recurrence_pencil,
)
from polylin import exact
from polylin.bases import basis_polys, to_monomial
from polylin.randgen import (
    rand_basis,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
    rand_recurrence_spec,
)

from conftest import cofactor_det


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


def euclid_gcd(a, b):
    """The Euclid loop over Q that poly_gcd once was."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def fraction_sub_mul(a, q, b):
    """a - q * b as the normal forms once computed it: the Fraction
    convolution, then PolyQ.__sub__ (which still runs on Fractions)."""
    return a - fraction_poly_mul(q, b)


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
    """Equal coefficients, every one a Fraction, and equal grades."""
    return (got.coeffs == want.coeffs and got.grade == want.grade
            and all(type(c) is F for c in got.coeffs))


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
        # grade above 0, and a row of a whose terms are all zero
        rng = random.Random(13)

        def draw(rows, cols):
            entries = []
            for _ in range(rows * cols):
                deg = rng.randint(-1, 3)
                cs = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10, 12)))
                      for _ in range(deg + 1)]
                entries.append(PolyQ(cs, grade=max(deg, 0) + rng.randint(0, 2)))
            return PolyMatrix(rows, cols, entries)

        for rows, inner, cols in ((1, 1, 1), (2, 3, 1), (1, 4, 3), (3, 2, 4), (4, 4, 2)):
            for _ in range(4):
                a, b = draw(rows, inner), draw(inner, cols)
                got, want = polymatrix_mul(a, b), loop_mul(a, b)
                assert got == want
                assert [e.grade for e in got.entries] == [e.grade for e in want.entries]
        a = PolyMatrix.from_rows([[PolyQ.zero(3), PolyQ([F(1, 2)], grade=2)],
                                  [PolyQ([1, F(1, 3)]), PolyQ.zero(1)]])
        b = PolyMatrix.from_rows([[PolyQ([5], grade=4), PolyQ.zero(2)],
                                  [PolyQ.zero(2), PolyQ([0, F(2, 5)])]])
        got, want = polymatrix_mul(a, b), loop_mul(a, b)
        assert got == want
        grades = [e.grade for e in got.entries]
        assert grades == [e.grade for e in want.entries] == [0, 3, 5, 0]

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
        # m(0) = [[1]] is invertible; only the product check refuses it
        invertible_at_zero = PolyMatrix.from_rows([[PolyQ([1, 1])]])
        for m in (singular_at_zero, invertible_at_zero):
            with pytest.raises(NotUnimodular):
                polymatrix_inverse_unimodular(m)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            polymatrix_inverse_unimodular(PolyMatrix.zeros(2, 3))

    def test_lifting_runs_to_the_adjugate_bound(self):
        # the assignment bound of det is 0 here, but the inverse has degree 5:
        # lifting must run to _det_degree_bound, which bounds the adjugate
        z5 = PolyQ.monomial(5)
        m = PolyMatrix.from_rows([[POLY_ONE, z5], [PolyQ.zero(), POLY_ONE]])
        assert _assignment_bound(m) == 0
        assert polymatrix_inverse_unimodular(m) == \
            PolyMatrix.from_rows([[POLY_ONE, -z5], [PolyQ.zero(), POLY_ONE]])

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
                assert a @ b == fraction_matmul(a, b)
        # an all-zero row of a and an all-zero column of b
        a = ConstMatrix.from_rows([[F(1, 2), F(-3, 7)], [0, 0], [5, F(1, 10)]])
        b = ConstMatrix.from_rows([[F(2, 3), 0, 4], [F(-1, 12), 0, F(7, 2)]])
        got = a @ b
        assert got == fraction_matmul(a, b)
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

    def test_transpose(self):
        m = ConstMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == ConstMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
        assert ConstMatrix.zeros(0, 3).transpose() == ConstMatrix.zeros(3, 0)


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

    @pytest.mark.parametrize("kind", ["recurrence", "bernstein", "lagrange"])
    def test_to_monomial_matches_block_loop(self, kind):
        rng = random.Random(f"to-monomial/{kind}")
        for grade in range(1, 6):
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
