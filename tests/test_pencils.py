"""Companion pencil constructions and the determinant property."""

import random
from fractions import Fraction as F

import pytest

from polylin import (
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    PolyQ,
    Recurrence,
    build_pencil,
)
from polylin.bases import matrix_poly_as_polymatrix
from polylin.errors import DuplicateNodes, GradeTooSmall
from polylin.exact import polymatrix_det
from polylin.pencils import (
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_recurrence_pencil,
)
from polylin.verify import verify_companion
from polylin.randgen import rand_basis, rand_matrix_polynomial


def det_ratio_is_constant(pencil, p):
    verdict = verify_companion(pencil, p)
    assert verdict.ok
    return verdict.constant


class TestMonomialPencil:
    def test_quadratic_display(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        pen = build_monomial_pencil(p)
        lz = pen.as_polymatrix()
        assert lz.to_rows() == [
            [PolyQ([-3, 1]), PolyQ([2])],
            [PolyQ([-1]), PolyQ([0, 1])],
        ]
        assert polymatrix_det(lz) == PolyQ([2, -3, 1])

    def test_grade_one(self):
        p = MatrixPolynomial.scalar(Monomial(1), [0, 1])  # p = z
        pen = build_monomial_pencil(p)
        assert pen.block_count == 1
        assert pen.as_polymatrix().to_rows() == [[PolyQ([0, 1])]]

    def test_grade5_structure(self):
        a = [F(2), F(3), F(5), F(7), F(11), F(13)]
        p = MatrixPolynomial.scalar(Monomial(5), a)
        lz = build_monomial_pencil(p).as_polymatrix()
        assert lz.get(0, 0) == PolyQ([a[4], a[5]])
        assert [lz.get(0, j) for j in range(1, 5)] == \
            [PolyQ([a[3]]), PolyQ([a[2]]), PolyQ([a[1]]), PolyQ([a[0]])]
        for i in range(1, 5):
            assert lz.get(i, i - 1) == PolyQ([-1])
            assert lz.get(i, i) == PolyQ([0, 1])

    def test_det_equals_det_p(self):
        rng = random.Random(30)
        for _ in range(15):
            n = rng.randint(1, 3)
            grade = rng.randint(1, 6)
            p = rand_matrix_polynomial(rng, Monomial(grade), n)
            assert det_ratio_is_constant(build_monomial_pencil(p), p) == 1


class TestRecurrencePencil:
    def test_chebyshev_grade5_corner_corrections(self):
        a = [F(2), F(3), F(5), F(7), F(11), F(13)]
        p = MatrixPolynomial.scalar(Recurrence.chebyshev(5), a)
        pen = build_recurrence_pencil(p)
        # first row of C0: [-a4 + (b4/a4-step)*a5, -a3 + (g4/a4-step)*a5, -a2, -a1, -a0]
        # for Chebyshev alpha_4 = gamma_4 = 1/2, beta_4 = 0
        assert pen.c0.get(0, 0) == -a[4]
        assert pen.c0.get(0, 1) == -a[3] + a[5]
        assert [pen.c0.get(0, j) for j in (2, 3, 4)] == [-a[2], -a[1], -a[0]]
        assert pen.c1.get(0, 0) == 2 * a[5]
        # subdiagonal data rows
        assert pen.c0.get(1, 0) == F(1, 2) and pen.c0.get(1, 1) == 0
        assert pen.c0.get(1, 2) == F(1, 2)
        assert pen.c0.get(4, 3) == 1 and pen.c0.get(4, 4) == 0

    def test_grade_two_corner_collision(self):
        # gamma-correction lands on the A_0 column when grade = 2
        spec = Recurrence.chebyshev(2)
        a = [F(3), F(5), F(7)]
        p = MatrixPolynomial.scalar(spec, a)
        pen = build_recurrence_pencil(p)
        assert pen.c0.get(0, 1) == -a[0] + a[2]
        assert det_ratio_is_constant(pen, p) is not None

    def test_monomial_like_recurrence_det_ratio(self):
        rng = random.Random(31)
        for _ in range(5):
            p = rand_matrix_polynomial(rng, Recurrence.monomial_like(4), 2)
            assert det_ratio_is_constant(pen := build_recurrence_pencil(p), p) == 1
            assert pen.block_count == 4

    def test_chebyshev_t2_det_ratio(self):
        p = MatrixPolynomial.scalar(Recurrence.chebyshev(2), [0, 0, 1])
        pen = build_recurrence_pencil(p)
        assert polymatrix_det(pen.as_polymatrix()) == PolyQ([-1, 0, 2])
        assert det_ratio_is_constant(pen, p) == 1

    def test_random_specs_det_ratio(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(1, 3)
            grade = rng.randint(2, 6)
            basis = rand_basis(rng, "recurrence", grade)
            p = rand_matrix_polynomial(rng, basis, n)
            assert det_ratio_is_constant(build_recurrence_pencil(p), p) is not None

    def test_grade_one_rejected(self):
        p = MatrixPolynomial.scalar(Recurrence.chebyshev(1), [1, 2])
        with pytest.raises(GradeTooSmall):
            build_recurrence_pencil(p)


class TestBernsteinPencil:
    def test_grade5_diagonal_pattern(self):
        y = [F(1), F(2), F(3), F(4), F(5), F(6)]
        p = MatrixPolynomial.scalar(Bernstein(5), y)
        pen = build_bernstein_pencil(p)
        diag = [pen.c1.get(i, i) for i in range(1, 5)]
        assert diag == [F(2, 4), F(3, 3), F(4, 2), F(5, 1)]
        lz = pen.as_polymatrix()
        # first row: (z/5) y5 + (1-z) y4, then (1-z) y_k
        assert lz.get(0, 0) == PolyQ([y[4], F(1, 5) * y[5] - y[4]])
        for j in range(1, 5):
            yk = y[4 - j]
            assert lz.get(0, j) == PolyQ([yk, -yk])
        for i in range(1, 5):
            assert lz.get(i, i - 1) == PolyQ([-1, 1])

    def test_constant_polynomial(self):
        p = MatrixPolynomial.scalar(Bernstein(3), [1, 1, 1, 1])
        pen = build_bernstein_pencil(p)
        d = polymatrix_det(pen.as_polymatrix())
        assert d.degree == 0 and d.coeff(0) != 0

    def test_det_ratio_random(self):
        rng = random.Random(33)
        for _ in range(10):
            n = rng.randint(1, 3)
            grade = rng.randint(2, 6)
            p = rand_matrix_polynomial(rng, Bernstein(grade), n)
            assert det_ratio_is_constant(build_bernstein_pencil(p), p) is not None

    def test_grade_one_rejected(self):
        p = MatrixPolynomial.scalar(Bernstein(1), [1, 2])
        with pytest.raises(GradeTooSmall):
            build_bernstein_pencil(p)


class TestLagrangePencil:
    def test_scalar_display(self):
        nodes = (F(0), F(1), F(2), F(3))
        values = [F(1), F(2), F(3), F(5)]
        p = MatrixPolynomial.scalar(Lagrange(3, nodes), values)
        pen = build_lagrange_pencil(p)
        assert pen.block_count == 5
        lz = pen.as_polymatrix()
        # row 1: [0, -P_3, -P_2, -P_1, -P_0]
        assert lz.get(0, 0).is_zero
        assert [lz.get(0, j) for j in range(1, 5)] == \
            [PolyQ([-values[3]]), PolyQ([-values[2]]),
             PolyQ([-values[1]]), PolyQ([-values[0]])]
        # column 1: barycentric weights, descending node order
        weights = [F(1, 6), F(-1, 2), F(1, 2), F(-1, 6)]  # beta_3..beta_0
        for r, b in enumerate(weights, start=1):
            assert lz.get(r, 0) == PolyQ([b])
        # diagonal: z - tau_k, descending
        for r, t in enumerate((3, 2, 1, 0), start=1):
            assert lz.get(r, r) == PolyQ([-t, 1])

    def test_det_is_p_for_linear(self):
        p = MatrixPolynomial.scalar(Lagrange(1, (0, 1)), [0, 1])  # p = z
        pen = build_lagrange_pencil(p)
        assert polymatrix_det(pen.as_polymatrix()) == PolyQ([0, 1])

    def test_det_equals_det_p_blocks(self):
        rng = random.Random(34)
        for _ in range(10):
            n = rng.randint(1, 3)
            grade = rng.randint(1, 6)
            basis = rand_basis(rng, "lagrange", grade)
            p = rand_matrix_polynomial(rng, basis, n)
            pen = build_lagrange_pencil(p)
            assert det_ratio_is_constant(pen, p) == 1
            assert polymatrix_det(pen.as_polymatrix()) == \
                polymatrix_det(matrix_poly_as_polymatrix(p))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodes):
            Lagrange(2, (0, 1, 1))


class TestDispatch:
    def test_build_pencil_matches_specific(self):
        rng = random.Random(35)
        for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
            grade = 3
            basis = rand_basis(rng, kind, grade)
            p = rand_matrix_polynomial(rng, basis, 2)
            pen = build_pencil(p)
            assert pen.basis_tag == kind

    def test_block_counts(self):
        rng = random.Random(36)
        for kind, expect in (("monomial", 4), ("recurrence", 4),
                             ("bernstein", 4), ("lagrange", 6)):
            basis = rand_basis(rng, kind, 4)
            p = rand_matrix_polynomial(rng, basis, 1)
            assert build_pencil(p).block_count == expect
