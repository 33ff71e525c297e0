"""Basis descriptors, conversions, and barycentric identities."""

import random
from fractions import Fraction as F

import pytest

from polylin import (
    Bernstein,
    ConstMatrix,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    PolyQ,
    Recurrence,
    convert,
    from_monomial,
    to_monomial,
)
from polylin import bases, exact, poly
from polylin.bases import (
    _phi_inverse,
    _phi_matrix,
    barycentric_weights,
    degree_elevate,
    transform_blocks,
)
from polylin.errors import DuplicateNodes, GradeTooSmall, ZeroAlpha
from polylin.randgen import (
    rand_basis,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
    rand_recurrence_spec,
)

from conftest import (
    basis_polys,
    basis_values_at,
    matrix_poly_value,
    monomial_like_recurrence,
    naive_lagrange_interp,
)

KINDS = ("monomial", "recurrence", "bernstein", "lagrange")


def phi_columns(basis):
    """The columns of Phi as polynomials: phi_0..phi_grade."""
    phi = _phi_matrix(basis)
    return [PolyQ([phi.get(i, k) for i in range(basis.grade + 1)]) for k in range(basis.grade + 1)]


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
    """The recurrence basis polynomials as the columns of Phi."""

    def test_chebyshev(self):
        phis = phi_columns(Recurrence.chebyshev(4))
        assert phis[0] == PolyQ([1])
        assert phis[1] == PolyQ([0, 1])
        assert phis[2] == PolyQ([-1, 0, 2])
        assert phis[3] == PolyQ([0, -3, 0, 4])
        assert phis[4] == PolyQ([1, 0, -8, 0, 8])
        # and back: z^2 = (T_0 + T_2)/2, z^3 = (3 T_1 + T_3)/4, z^4 = (3 T_0 + 4 T_2 + T_4)/8
        inv = _phi_inverse(Recurrence.chebyshev(4))
        assert [inv.get(k, 2) for k in range(5)] == [F(1, 2), 0, F(1, 2), 0, 0]
        assert [inv.get(k, 3) for k in range(5)] == [0, F(3, 4), 0, F(1, 4), 0]
        assert [inv.get(k, 4) for k in range(5)] == [F(3, 8), 0, F(1, 2), 0, F(1, 8)]

    def test_monomial_recurrence(self):
        spec = monomial_like_recurrence(3)
        for k, phi in enumerate(phi_columns(spec)):
            assert phi == PolyQ.monomial(k)
        assert _phi_inverse(spec) == ConstMatrix.identity(4)

    def test_newton_basis_on_two_nodes(self):
        # z*phi_k = phi_{k+1} + tau_k: phi_2 = z(z-1) on nodes 0, 1
        spec = Recurrence(2, alpha=(1, 1), beta=(0, 1), gamma=(0, 0))
        phis = phi_columns(spec)
        assert phis[2] == PolyQ([0, -1, 1])

    def test_degrees(self):
        rng = random.Random(14)
        spec = rand_recurrence_spec(rng, 6)
        phis = phi_columns(spec)
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

    def test_monomial_target_pads_with_no_transform(self, monkeypatch):
        """A monomial target adds zero blocks above the grade or drops the
        zero blocks above the degree, equal to the identity transform
        Phi^-1 it replaced, and calls no transform_blocks."""
        rng = random.Random(18)
        draws = []
        for n in (1, 2, 3):
            for grade in range(1, 7):
                p = rand_matrix_polynomial(rng, Monomial(grade), n)
                top = rng.randint(0, grade - 1)  # zero the blocks above degree `top`
                zeros = (ConstMatrix.zeros(n, n),) * (grade - top)
                draws.append((p, grade + 2))
                draws.append((MatrixPolynomial(n, Monomial(grade), p.coeffs[:top + 1] + zeros),
                              max(top, 1)))
        want = []
        for p, g in draws:
            padded = (list(p.coeffs) + [ConstMatrix.zeros(p.n, p.n)] * (g - p.grade))[:g + 1]
            want.append(transform_blocks(_phi_inverse(Monomial(g)), padded))
        calls = []
        monkeypatch.setattr(bases, "transform_blocks", lambda *args: calls.append(args))
        for (p, g), blocks in zip(draws, want):
            got = from_monomial(p, Monomial(g))
            assert got.basis == Monomial(g) and got.coeffs == blocks
            assert convert(p, Monomial(g)) == got
        assert calls == []

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
        polys = phi_columns(spec)
        for k, t in enumerate(spec.nodes):
            for j, u in enumerate(spec.nodes):
                assert polys[k](u) == (1 if j == k else 0)


def loop_transform(t, blocks):
    """sum_k t[i][k] * blocks[k], entry by entry."""
    n = blocks[0].rows
    return tuple(ConstMatrix(n, n, [sum((t.get(i, k) * blk.entries[e]
                                         for k, blk in enumerate(blocks)), F(0))
                                    for e in range(n * n)])
                 for i in range(t.rows))


def loop_degree_elevate(p):
    """The scale-and-add loop degree_elevate once was."""
    L, n = p.grade, p.n
    blocks = []
    for k in range(L + 2):
        acc = ConstMatrix.zeros(n, n)
        if 1 <= k <= L + 1:
            acc = acc + p.coeffs[k - 1].scale(F(k, L + 1))
        if k <= L:
            acc = acc + p.coeffs[k].scale(F(L + 1 - k, L + 1))
        blocks.append(acc)
    return tuple(blocks)


def loop_matrix_poly_value(p, x):
    """The scale-and-add loop matrix_poly_value once was."""
    acc = ConstMatrix.zeros(p.n, p.n)
    for v, block in zip(basis_values_at(p.basis, x), p.coeffs):
        if v:
            acc = acc + block.scale(v)
    return acc


def loop_to_lagrange(mono, target):
    """The Lagrange branch from_monomial once was: the padded monomial
    polynomial evaluated at each node by the loop above."""
    zero = ConstMatrix.zeros(mono.n, mono.n)
    padded = mono.coeffs + (zero,) * (target.grade - mono.grade)
    src = MatrixPolynomial(mono.n, Monomial(target.grade), padded)
    return tuple(loop_matrix_poly_value(src, t) for t in target.nodes)


def rand_blocks(rng, count, n, zero_share=0.2):
    return [ConstMatrix.zeros(n, n) if rng.random() < zero_share else
            ConstMatrix(n, n, [rand_fraction(rng) for _ in range(n * n)])
            for _ in range(count)]


class TestTransformBlocks:
    """transform_blocks(t, Y): block i is sum_k t[i][k] * Y[k]."""

    def test_rectangular_degree_elevation_matrix(self):
        rng = random.Random(21)
        for n in (1, 2, 3):
            for L in range(1, 6):
                t = ConstMatrix.from_rows(
                    [[F(k, L + 1) if j == k - 1 else F(L + 1 - k, L + 1) if j == k else 0
                      for j in range(L + 1)] for k in range(L + 2)])
                blocks = rand_blocks(rng, L + 1, n)
                got = transform_blocks(t, blocks)
                assert len(got) == L + 2
                assert got == loop_transform(t, blocks)

    def test_one_row_is_an_evaluation(self):
        rng = random.Random(22)
        for n in (1, 2, 3):
            blocks = rand_blocks(rng, 4, n)
            x = rand_fraction(rng)
            t = ConstMatrix.from_rows([[x ** k for k in range(4)]])
            (got,) = transform_blocks(t, blocks)
            p = MatrixPolynomial(n, Monomial(3), tuple(blocks))
            assert got == loop_matrix_poly_value(p, x)

    def test_zero_blocks_and_zero_rows(self):
        rng = random.Random(23)
        for n in (1, 2, 3):
            zeros = [ConstMatrix.zeros(n, n)] * 3
            t = ConstMatrix(2, 3, [rand_fraction(rng, nonzero=True) for _ in range(6)])
            assert all(b.is_zero for b in transform_blocks(t, zeros))
            got = transform_blocks(ConstMatrix.zeros(2, 3), rand_blocks(rng, 3, n))
            assert got == (ConstMatrix.zeros(n, n),) * 2
            assert all(type(x) is F for b in got for x in b.entries)

    def test_random_shapes(self):
        rng = random.Random(24)
        for _ in range(30):
            n, rows, cols = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5)
            t = ConstMatrix(rows, cols, [rand_fraction(rng) for _ in range(rows * cols)])
            blocks = rand_blocks(rng, cols, n)
            assert transform_blocks(t, blocks) == loop_transform(t, blocks)


class TestTransformsMatchTheirLoops:
    """Every rewritten block map against the scale-and-add loop it was,
    at grades 1-10."""

    def test_degree_elevate(self):
        rng = random.Random(25)
        for grade in range(1, 11):
            p = rand_matrix_polynomial(rng, Bernstein(grade), rng.randint(1, 3))
            assert degree_elevate(p).coeffs == loop_degree_elevate(p)

    def test_matrix_poly_value(self):
        rng = random.Random(26)
        for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
            for grade in range(1, 11):
                p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), rng.randint(1, 3))
                for x in (F(0), F(1), rand_fraction(rng)):
                    assert matrix_poly_value(p, x) == loop_matrix_poly_value(p, x)

    def test_from_monomial_to_lagrange(self):
        rng = random.Random(27)
        for grade in range(1, 11):
            mono = rand_matrix_polynomial(rng, Monomial(grade), rng.randint(1, 3))
            for extra in (0, 2):
                target = Lagrange(grade + extra, rand_nodes(rng, grade + extra + 1))
                got = from_monomial(mono, target).coeffs
                assert got == loop_to_lagrange(mono, target)


class TestPhi:
    """Phi and Phi^-1 in closed form, against the PolyQ products they
    replaced and against each other."""

    def test_inverse_pairs(self):
        rng = random.Random(28)
        for kind in KINDS:
            for grade in range(1, 10):
                for _ in range(3):
                    basis = rand_basis(rng, kind, grade)
                    eye = ConstMatrix.identity(grade + 1)
                    assert _phi_matrix(basis) @ _phi_inverse(basis) == eye
                    assert _phi_inverse(basis) @ _phi_matrix(basis) == eye

    def test_columns_match_polyq_builders(self):
        rng = random.Random(29)
        for kind in KINDS:
            for grade in range(1, 10):
                basis = rand_basis(rng, kind, grade)
                assert phi_columns(basis) == basis_polys(basis)

    def test_bernstein_closed_forms(self):
        # B_0 = (1-z)^2, B_1 = 2z(1-z), B_2 = z^2; 1 = B_0 + B_1 + B_2, z = B_1/2 + B_2
        assert _phi_matrix(Bernstein(2)).to_rows() == [[1, 0, 0], [-2, 2, 0], [1, -2, 1]]
        assert _phi_inverse(Bernstein(2)).to_rows() == [[1, 0, 0], [1, F(1, 2), 0], [1, 1, 1]]

    def test_gamma_0_is_unused(self):
        spec = Recurrence(3, (2, F(1, 3), -1), (1, 0, F(1, 2)), (0, 5, F(-2, 7)))
        other = Recurrence(3, spec.alpha, spec.beta, (F(9, 4),) + spec.gamma[1:])
        assert _phi_matrix(spec) == _phi_matrix(other)
        assert _phi_inverse(spec) == _phi_inverse(other)

    @pytest.mark.parametrize("kind", ["recurrence", "bernstein"])
    def test_conversions_make_no_solve_and_no_polyq(self, kind, monkeypatch):
        """to_monomial and from_monomial are one product each: no linear
        solve, and no polynomial is built."""
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        rng = random.Random(30)
        p = rand_matrix_polynomial(rng, rand_basis(rng, kind, 5), 2)
        assert not hasattr(bases, "solve_exact")
        monkeypatch.setattr(exact, "solve_exact", spy("solve_exact", exact.solve_exact))
        monkeypatch.setattr(PolyQ, "__init__", spy("PolyQ", PolyQ.__init__))
        monkeypatch.setattr(poly, "_from_form", spy("PolyQ", poly._from_form))
        back = from_monomial(to_monomial(p), p.basis)
        assert calls == []
        assert back == p
