"""Basis descriptors, conversions, and barycentric identities."""

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
    convert,
    from_monomial,
    to_monomial,
)
from polylin.bases import (
    barycentric_weights,
    basis_polys,
    degree_elevate,
    matrix_poly_value,
    recurrence_basis_polys,
)
from polylin.errors import DuplicateNodes, GradeTooSmall, ZeroAlpha
from polylin.randgen import (
    rand_basis,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
)

from conftest import naive_lagrange_interp


class TestBarycentric:
    def test_two_nodes(self):
        bary = barycentric_weights([0, 1])
        assert list(bary.weights) == [F(-1), F(1)]

    def test_four_equispaced(self):
        bary = barycentric_weights([0, 1, 2, 3])
        assert list(bary.weights) == [F(-1, 6), F(1, 2), F(-1, 2), F(1, 6)]
        # w(z) = z^4 - 6 z^3 + 11 z^2 - 6 z
        assert bary.node_poly == PolyQ([0, -6, 11, -6, 1])
        assert bary.node_poly_tail == [F(0), F(-6), F(11), F(-6)]

    def test_weights_are_reciprocal_derivative(self):
        # beta_k * w'(tau_k) = 1, an independent route to the weights
        rng = random.Random(10)
        for _ in range(10):
            nodes = rand_nodes(rng, rng.randint(2, 7))
            bary = barycentric_weights(nodes)
            dw = bary.node_poly.derivative()
            for t, b in zip(nodes, bary.weights):
                assert b * dw(t) == 1

    def test_weights_sum_to_zero(self):
        rng = random.Random(11)
        for _ in range(20):
            nodes = rand_nodes(rng, rng.randint(2, 7))
            assert sum(barycentric_weights(nodes).weights) == 0

    def test_partial_fraction_identity(self):
        # w(z) * sum beta_k/(z - tau_k) == 1 after clearing denominators
        rng = random.Random(12)
        for _ in range(15):
            nodes = rand_nodes(rng, rng.randint(2, 7))
            bary = barycentric_weights(nodes)
            acc = PolyQ.zero()
            for t, b in zip(nodes, bary.weights):
                acc = acc + bary.node_poly.exact_div(PolyQ([-t, 1])).scale(b)
            assert acc == PolyQ([1])

    def test_weighted_node_identity(self):
        # w(z) * sum beta_k tau_k/(z - tau_k) == z
        rng = random.Random(13)
        for _ in range(15):
            nodes = rand_nodes(rng, rng.randint(2, 7))
            bary = barycentric_weights(nodes)
            acc = PolyQ.zero()
            for t, b in zip(nodes, bary.weights):
                acc = acc + bary.node_poly.exact_div(PolyQ([-t, 1])).scale(b * t)
            assert acc == PolyQ([0, 1])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodes):
            barycentric_weights([1, 2, 1])


class TestRecurrencePolys:
    def test_chebyshev(self):
        phis = recurrence_basis_polys(Recurrence.chebyshev(4))
        assert phis[0] == PolyQ([1])
        assert phis[1] == PolyQ([0, 1])
        assert phis[2] == PolyQ([-1, 0, 2])
        assert phis[3] == PolyQ([0, -3, 0, 4])
        assert phis[4] == PolyQ([1, 0, -8, 0, 8])

    def test_monomial_recurrence(self):
        phis = recurrence_basis_polys(Recurrence.monomial_like(3))
        for k, phi in enumerate(phis):
            assert phi == PolyQ.monomial(k)

    def test_newton_basis_on_two_nodes(self):
        # z*phi_k = phi_{k+1} + tau_k: phi_2 = z(z-1) on nodes 0, 1
        spec = Recurrence(2, alpha=(1, 1), beta=(0, 1), gamma=(0, 0))
        phis = recurrence_basis_polys(spec)
        assert phis[2] == PolyQ([0, -1, 1])

    def test_degrees(self):
        rng = random.Random(14)
        from polylin.randgen import rand_recurrence_spec

        spec = rand_recurrence_spec(rng, 6)
        phis = recurrence_basis_polys(spec)
        assert [p.degree for p in phis] == list(range(7))

    def test_zero_alpha_rejected(self):
        with pytest.raises(ZeroAlpha):
            Recurrence(2, alpha=(1, 0), beta=(0, 0), gamma=(0, 0))


class TestConversions:
    def test_monomial_identity(self):
        p = MatrixPolynomial.scalar(Monomial(3), [1, 2, 3, 4])
        assert to_monomial(p) is p

    def test_bernstein_first_basis_function(self):
        # (1-z)^2 has monomial coefficients [1, -2, 1]
        p = MatrixPolynomial.scalar(Bernstein(2), [1, 0, 0])
        mono = to_monomial(p)
        assert [c.get(0, 0) for c in mono.coeffs] == [F(1), F(-2), F(1)]

    def test_lagrange_to_monomial_against_naive_interp(self):
        p = MatrixPolynomial.scalar(Lagrange(2, (0, 1, 2)), [0, 1, 4])
        mono = to_monomial(p)
        assert [c.get(0, 0) for c in mono.coeffs] == [F(0), F(0), F(1)]
        rng = random.Random(15)
        for _ in range(10):
            nodes = rand_nodes(rng, 4)
            values = [rand_fraction(rng) for _ in range(4)]
            p = MatrixPolynomial.scalar(Lagrange(3, nodes), values)
            mono = to_monomial(p)
            expect = naive_lagrange_interp(nodes, values)
            assert PolyQ([c.get(0, 0) for c in mono.coeffs]) == expect

    def test_from_monomial_to_lagrange_is_evaluation(self):
        p = MatrixPolynomial.scalar(Monomial(2), [0, 0, 1])
        q = from_monomial(p, Lagrange(2, (0, 1, 2)))
        assert [c.get(0, 0) for c in q.coeffs] == [F(0), F(1), F(4)]

    def test_from_monomial_to_bernstein(self):
        p = MatrixPolynomial.scalar(Monomial(1), [0, 1])
        q = from_monomial(p, Bernstein(1))
        assert [c.get(0, 0) for c in q.coeffs] == [F(0), F(1)]

    def test_round_trips_all_bases(self):
        rng = random.Random(16)
        for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
            for _ in range(6):
                n = rng.randint(1, 3)
                grade = rng.randint(1, 6)
                basis = rand_basis(rng, kind, grade)
                p = rand_matrix_polynomial(rng, basis, n)
                back = from_monomial(to_monomial(p), basis)
                assert back.coeffs == p.coeffs

    def test_grade_padding_round_trip(self):
        p = MatrixPolynomial.scalar(Monomial(2), [1, 2, 3])
        q = from_monomial(p, Monomial(4))
        assert q.grade == 4
        assert [c.get(0, 0) for c in q.coeffs] == [F(1), F(2), F(3), F(0), F(0)]

    def test_grade_too_small(self):
        p = MatrixPolynomial.scalar(Monomial(3), [1, 2, 3, 4])
        with pytest.raises(GradeTooSmall):
            from_monomial(p, Bernstein(2))

    def test_convert_cross_basis(self):
        rng = random.Random(17)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        q = convert(p, Lagrange(3, rand_nodes(rng, 4)))
        assert to_monomial(q).coeffs == to_monomial(p).coeffs


class TestDegreeElevation:
    def test_partition_of_unity(self):
        p = MatrixPolynomial.scalar(Bernstein(1), [1, 1])
        q = degree_elevate(p)
        assert [c.get(0, 0) for c in q.coeffs] == [F(1), F(1), F(1)]

    def test_first_basis_function(self):
        p = MatrixPolynomial.scalar(Bernstein(1), [1, 0])
        q = degree_elevate(p)
        assert [c.get(0, 0) for c in q.coeffs] == [F(1), F(1, 2), F(0)]

    def test_preserves_monomial_form(self):
        rng = random.Random(18)
        for _ in range(10):
            n = rng.randint(1, 3)
            grade = rng.randint(1, 6)
            p = rand_matrix_polynomial(rng, Bernstein(grade), n)
            q = degree_elevate(p)
            assert to_monomial(q).coeffs[: grade + 1] == to_monomial(p).coeffs
            assert to_monomial(q).coeffs[grade + 1].is_zero

    def test_partition_of_unity_all_grades(self):
        for grade in range(1, 7):
            values = [1] * (grade + 1)
            p = MatrixPolynomial.scalar(Bernstein(grade), values)
            mono = to_monomial(p)
            assert [c.get(0, 0) for c in mono.coeffs] == [F(1)] + [F(0)] * grade


class TestEvaluation:
    def test_value_at_one_is_top_bernstein_coeff(self):
        rng = random.Random(19)
        p = rand_matrix_polynomial(rng, Bernstein(4), 2)
        assert matrix_poly_value(p, 1) == p.coeffs[4]

    def test_lagrange_value_at_node(self):
        rng = random.Random(20)
        nodes = rand_nodes(rng, 4)
        p = rand_matrix_polynomial(rng, Lagrange(3, nodes), 2)
        for k, t in enumerate(nodes):
            assert matrix_poly_value(p, t) == p.coeffs[k]

    def test_basis_polys_lagrange_cardinality(self):
        spec = Lagrange(2, (0, 1, 2))
        polys = basis_polys(spec)
        for k, t in enumerate(spec.nodes):
            for j, u in enumerate(spec.nodes):
                assert polys[k](u) == (1 if j == k else 0)
