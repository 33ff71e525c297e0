"""Exact scalar, polynomial, and polynomial-matrix arithmetic."""

import random
from fractions import Fraction as F

import pytest

from polylin import (
    Bernstein,
    ConstMatrix,
    DimensionMismatch,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    NotUnimodular,
    PolyMatrix,
    PolyQ,
    bernstein_hermite_analogue,
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_recurrence_pencil,
    hermite_form,
    is_unimodular,
    lagrange_hermite_factors,
    polymatrix_det,
    polymatrix_inverse_unimodular,
    polymatrix_mul,
    recurrence_hermite_analogue,
)
from polylin.randgen import (
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
        from polylin import Bernstein, MatrixPolynomial, bernstein_strict_equivalence

        rng = random.Random(7)
        y = [rand_fraction(rng) for _ in range(6)]
        se = bernstein_strict_equivalence(5, MatrixPolynomial.scalar(Bernstein(5), y))
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
