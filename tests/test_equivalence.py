"""Cofactors, triangular factorizations, strict equivalences, reversals.

The fixed-size closed forms are transcribed here independently and compared
entry-for-entry against the construction.  All entries are linear in the
polynomial coefficients, so agreement on a coefficient-basis of probes plus
a random draw proves agreement for symbolic coefficients.
"""

import hashlib
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
    Recurrence,
    build_pencil,
    to_monomial,
)
from polylin.bases import (
    barycentric_weights,
    matrix_poly_as_polymatrix,
    matrix_poly_value,
)
from polylin.equivalence import (
    assemble_cofactors,
    bernstein_hermite_analogue,
    bernstein_reversal_coeffs,
    bernstein_reversal_equivalence,
    bernstein_strict_equivalence,
    lagrange_hermite_factors,
    lagrange_strict_equivalence,
    monomial_cofactors,
    recurrence_hermite_analogue,
)
from polylin.errors import (
    ConjectureFailure,
    GenericityFailure,
    PreconditionError,
    SingularAtOne,
    SingularNodeValue,
)
from polylin.exact import polymatrix_det, polymatrix_inverse_unimodular, polymatrix_mul
from polylin.normalforms import hermite_form
from polylin.pencils import (
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_recurrence_pencil,
)
from polylin.verify import (
    verify_hermite_analogue,
    verify_linearization,
    verify_reversal_equivalence,
    verify_strict,
)
from polylin import equivalence
from polylin.randgen import (
    rand_basis,
    rand_const_matrix,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
    rand_nonsingular_const_matrix,
    rand_recurrence_spec,
)

from conftest import shifted_reversal_monomial, standard_reversal_monomial

Z = PolyQ([0, 1])
ONE = PolyQ([1])
ZERO = PolyQ.zero()


def scalar_mp(basis, values):
    return MatrixPolynomial.scalar(basis, values)


def mono_of(values):
    return scalar_mp(Monomial(len(values) - 1), values)


def diag_target(p, blocks):
    from polylin.verify import diag_with_identity

    return diag_with_identity(matrix_poly_as_polymatrix(p), blocks)


# ---------------------------------------------------------------------------
# monomial cofactors


def expected_grade5_monomial(a):
    """Transcription of the closed grade-5 scalar E, L, F."""
    h = {5: PolyQ([a[5]])}
    for k in range(4, 0, -1):
        h[k] = PolyQ([a[k]]) + Z * h[k + 1]
    z2, z3, z4 = Z * Z, Z * Z * Z, Z * Z * Z * Z
    e = PolyMatrix.from_rows([
        [ONE, h[4], h[3], h[2], h[1]],
        [ZERO, ZERO, ZERO, ZERO, -ONE],
        [ZERO, ZERO, ZERO, -ONE, -Z],
        [ZERO, ZERO, -ONE, -Z, -z2],
        [ZERO, -ONE, -Z, -z2, -z3],
    ])
    f = PolyMatrix.from_rows([
        [z4, ZERO, ZERO, ZERO, ONE],
        [z3, ZERO, ZERO, ONE, ZERO],
        [z2, ZERO, ONE, ZERO, ZERO],
        [Z, ONE, ZERO, ZERO, ZERO],
        [ONE, ZERO, ZERO, ZERO, ZERO],
    ])
    lz = PolyMatrix.from_rows([
        [PolyQ([a[4], a[5]]), PolyQ([a[3]]), PolyQ([a[2]]), PolyQ([a[1]]), PolyQ([a[0]])],
        [-ONE, Z, ZERO, ZERO, ZERO],
        [ZERO, -ONE, Z, ZERO, ZERO],
        [ZERO, ZERO, -ONE, Z, ZERO],
        [ZERO, ZERO, ZERO, -ONE, Z],
    ])
    return e, lz, f


class TestMonomialCofactors:
    def test_grade5_displays_entry_for_entry(self):
        # entries are linear in the coefficients: the zero vector, the six
        # coefficient basis vectors, and a random draw pin the symbolic form
        rng = random.Random(40)
        probes = [[F(0)] * 6]
        for j in range(6):
            v = [F(0)] * 6
            v[j] = F(1)
            probes.append(v)
        probes.append([rand_fraction(rng) for _ in range(6)])
        for a in probes:
            p = mono_of(a)
            pen = build_monomial_pencil(p)
            cof = monomial_cofactors(p)
            e_want, l_want, f_want = expected_grade5_monomial(a)
            assert cof.e == e_want
            assert cof.f == f_want
            assert pen.as_polymatrix() == l_want

    def test_grade5_product_is_diag(self):
        rng = random.Random(41)
        a = [rand_fraction(rng) for _ in range(6)]
        p = mono_of(a)
        pen = build_monomial_pencil(p)
        cof = monomial_cofactors(p)
        product = polymatrix_mul(polymatrix_mul(cof.e, pen.as_polymatrix()), cof.f)
        assert product == diag_target(p, 5)

    def test_grade_one_identity_factors(self):
        p = mono_of([3, 4])
        cof = monomial_cofactors(p)
        assert cof.e == PolyMatrix.identity(1)
        assert cof.f == PolyMatrix.identity(1)
        assert verify_linearization(build_monomial_pencil(p), p, cof).ok

    def test_random_blocks(self):
        rng = random.Random(42)
        for _ in range(8):
            n = rng.randint(1, 3)
            grade = rng.randint(1, 5)
            p = rand_matrix_polynomial(rng, Monomial(grade), n)
            pen = build_monomial_pencil(p)
            cof = monomial_cofactors(p)
            verdict = verify_linearization(pen, p, cof)
            assert verdict.ok
            assert verdict.constant in (1, -1)


# ---------------------------------------------------------------------------
# recurrence triangular factorization


def chebyshev_probe_vectors(rng, count=1):
    """Coefficient probes spanning the space while keeping a5 != 0."""
    probes = []
    base = [F(0)] * 5 + [F(1)]
    probes.append(list(base))
    for j in range(5):
        v = list(base)
        v[j] = F(1)
        probes.append(v)
    for _ in range(count):
        v = [rand_fraction(rng) for _ in range(6)]
        v[5] = rand_fraction(rng, nonzero=True)
        probes.append(v)
    return probes


def expected_chebyshev_einv_row(a):
    return [ONE, PolyQ([a[1]]), PolyQ([a[2]]), PolyQ([a[3] - a[5]]),
            PolyQ([a[4], 2 * a[5]])]


class TestRecurrenceHermite:
    def test_chebyshev_grade5_einv_finv_displays(self):
        t = {1: Z, 2: PolyQ([-1, 0, 2]), 3: PolyQ([0, -3, 0, 4]),
             4: PolyQ([1, 0, -8, 0, 8])}
        half = PolyQ([F(-1, 2)])
        einv_tail = [
            [ZERO, ZERO, half, Z, half],
            [ZERO, half, Z, half, ZERO],
            [ZERO, Z, half, ZERO, ZERO],
            [ZERO, -ONE, ZERO, ZERO, ZERO],
        ]
        finv_want = PolyMatrix.from_rows([
            [ZERO, ZERO, ZERO, ZERO, ONE],
            [ZERO, ZERO, ZERO, ONE, -t[1]],
            [ZERO, ZERO, ONE, ZERO, -t[2]],
            [ZERO, ONE, ZERO, ZERO, -t[3]],
            [ONE, ZERO, ZERO, ZERO, -t[4]],
        ])
        rng = random.Random(43)
        for a in chebyshev_probe_vectors(rng):
            p = scalar_mp(Recurrence.chebyshev(5), a)
            pen = build_recurrence_pencil(p)
            ha = recurrence_hermite_analogue(p, pen)
            cof = assemble_cofactors(ha, pen, p)
            einv = polymatrix_inverse_unimodular(cof.e)
            finv = polymatrix_inverse_unimodular(cof.f)
            assert einv == PolyMatrix.from_rows(
                [expected_chebyshev_einv_row(a)] + einv_tail)
            assert finv == finv_want

    def test_monomial_like_f_matches_closed_form(self):
        rng = random.Random(44)
        a = [rand_fraction(rng) for _ in range(6)]
        a[5] = rand_fraction(rng, nonzero=True)
        p_rec = scalar_mp(Recurrence.monomial_like(5), a)
        pen = build_recurrence_pencil(p_rec)
        ha = recurrence_hermite_analogue(p_rec, pen)
        cof = assemble_cofactors(ha, pen, p_rec)
        _, _, f_want = expected_grade5_monomial(a)
        assert cof.f == f_want
        assert verify_linearization(pen, p_rec, cof).ok
        # closed-form cofactors of the same polynomial also verify
        direct = monomial_cofactors(mono_of(a))
        mono_pen = build_monomial_pencil(mono_of(a))
        assert verify_linearization(mono_pen, mono_of(a), direct).ok

    def test_random_recurrence_assembled_cofactors(self):
        rng = random.Random(45)
        done = 0
        while done < 6:
            n = rng.randint(1, 2)
            grade = rng.randint(2, 5)
            spec = rand_recurrence_spec(rng, grade)
            coeffs = [rand_nonsingular_const_matrix(rng, n) if k == grade
                      else rand_const_matrix(rng, n)
                      for k in range(grade + 1)]
            p = MatrixPolynomial(n, spec, tuple(coeffs))
            pen = build_recurrence_pencil(p)
            ha = recurrence_hermite_analogue(p, pen)
            assert verify_hermite_analogue(ha, pen).ok
            cof = assemble_cofactors(ha, pen, p)
            assert verify_linearization(pen, p, cof).ok
            done += 1

    def test_singular_leading_block_raises(self):
        p = scalar_mp(Recurrence.chebyshev(3), [1, 2, 3, 0])
        pen = build_recurrence_pencil(p)
        with pytest.raises(GenericityFailure):
            recurrence_hermite_analogue(p, pen)

    def test_corner_is_monic_for_scalars(self):
        rng = random.Random(46)
        a = [rand_fraction(rng) for _ in range(4)]
        a[3] = rand_fraction(rng, nonzero=True)
        p = scalar_mp(Recurrence.chebyshev(3), a)
        pen = build_recurrence_pencil(p)
        ha = recurrence_hermite_analogue(p, pen)
        corner = ha.h.get(pen.size - 1, pen.size - 1)
        assert corner.lead == 1
        assert corner == polymatrix_det(
            matrix_poly_as_polymatrix(p)).monic()


# ---------------------------------------------------------------------------
# Bernstein triangular factorization


class TestBernsteinHermite:
    def test_corner_block_is_scaled_inverse_of_value_at_one(self):
        rng = random.Random(47)
        for _ in range(5):
            n, grade = 2, 3
            p = rand_matrix_polynomial(rng, Bernstein(grade), n)
            if matrix_poly_value(p, 1).det() == 0:
                continue
            pen = build_bernstein_pencil(p)
            ha = bernstein_hermite_analogue(p, pen)
            # bottom block of Uinv's last column is grade * P(1)^{-1}
            bottom = ConstMatrix(n, n, [
                ha.uinv.get((grade - 1) * n + r, (grade - 1) * n + c).coeff(0)
                for r in range(n) for c in range(n)])
            expect = matrix_poly_value(p, 1).try_inverse().scale(grade)
            assert bottom == expect

    def test_division_by_z_minus_one_exact_and_verifies(self):
        # scalar with p(1) = 2
        p = scalar_mp(Bernstein(3), [5, -1, 7, 2])
        pen = build_bernstein_pencil(p)
        ha = bernstein_hermite_analogue(p, pen)
        assert verify_hermite_analogue(ha, pen).ok
        cof = assemble_cofactors(ha, pen, p)
        assert verify_linearization(pen, p, cof).ok

    def test_singular_at_one_raises(self):
        p = scalar_mp(Bernstein(3), [5, -1, 7, 0])
        pen = build_bernstein_pencil(p)
        with pytest.raises(SingularAtOne):
            bernstein_hermite_analogue(p, pen)

    def test_random_blocks(self):
        rng = random.Random(48)
        done = 0
        while done < 5:
            n = rng.randint(1, 2)
            grade = rng.randint(2, 5)
            p = rand_matrix_polynomial(rng, Bernstein(grade), n)
            if matrix_poly_value(p, 1).det() == 0:
                continue
            pen = build_bernstein_pencil(p)
            ha = bernstein_hermite_analogue(p, pen)
            assert verify_hermite_analogue(ha, pen).ok
            cof = assemble_cofactors(ha, pen, p)
            assert verify_linearization(pen, p, cof).ok
            done += 1


# ---------------------------------------------------------------------------
# Lagrange triangular factorization


class TestLagrangeHermite:
    def test_spec_example_instance(self):
        p = scalar_mp(Lagrange(3, (0, 1, 2, 3)), [1, 2, 3, 5])
        pen = build_lagrange_pencil(p)
        ha = lagrange_hermite_factors(p, pen)
        assert verify_hermite_analogue(ha, pen).ok
        cof = assemble_cofactors(ha, pen, p)
        assert verify_linearization(pen, p, cof).ok

    def test_value_sum_identity(self):
        # sum_k P_k H_k = P_0, read off from the factorization column
        rng = random.Random(49)
        for _ in range(5):
            n = rng.randint(1, 2)
            grade = rng.randint(1, 4)
            nodes = rand_nodes(rng, grade + 1)
            coeffs = tuple(rand_nonsingular_const_matrix(rng, n)
                           for _ in range(grade + 1))
            p = MatrixPolynomial(n, Lagrange(grade, nodes), coeffs)
            pen = build_lagrange_pencil(p)
            ha = lagrange_hermite_factors(p, pen)
            m = pen.block_count
            acc = PolyMatrix.zeros(n, n)
            for k in range(1, grade + 1):
                row = m - 1 - k  # block row holding H_k in the last column
                h_k = PolyMatrix(n, n, [ha.h.get(row * n + r, (m - 1) * n + c)
                                        for r in range(n) for c in range(n)])
                acc = acc + polymatrix_mul(PolyMatrix.from_const(coeffs[k]), h_k)
            assert acc == PolyMatrix.from_const(coeffs[0])

    def test_singular_value_raises_with_index(self):
        p = scalar_mp(Lagrange(3, (0, 1, 2, 3)), [1, 2, 0, 5])
        pen = build_lagrange_pencil(p)
        with pytest.raises(SingularNodeValue) as err:
            lagrange_hermite_factors(p, pen)
        assert err.value.k == 2

    def test_unimodular_uinv(self):
        rng = random.Random(50)
        nodes = rand_nodes(rng, 4)
        coeffs = tuple(rand_nonsingular_const_matrix(rng, 2) for _ in range(4))
        p = MatrixPolynomial(2, Lagrange(3, nodes), coeffs)
        pen = build_lagrange_pencil(p)
        ha = lagrange_hermite_factors(p, pen)
        verdict = verify_hermite_analogue(ha, pen)
        assert verdict.ok and verdict.constant != 0


# ---------------------------------------------------------------------------
# Bernstein strict equivalence


class TestBernsteinStrict:
    def test_w_grade5_integer_matrix(self):
        rng = random.Random(51)
        y = [rand_fraction(rng) for _ in range(6)]
        p = scalar_mp(Bernstein(5), y)
        se = bernstein_strict_equivalence(p)
        assert se.w == ConstMatrix.from_rows([
            [5, 0, 0, 0, 0],
            [-10, 10, 0, 0, 0],
            [10, -20, 10, 0, 0],
            [-5, 15, -15, 5, 0],
            [1, -4, 6, -4, 1],
        ])

    def test_uinv_first_row_closed_forms_grade5(self):
        # first row of U^{-1} is [1, h3, h2, h1, -y0] with
        # h3 = -10 y3 + 20 y2 - 15 y1 + 4 y0, h2 = -10 y2 + 15 y1 - 6 y0,
        # h1 = -5 y1 + 4 y0; probe the coefficient basis (linear data)
        probes = []
        for j in range(6):
            v = [F(0)] * 6
            v[j] = F(1)
            probes.append(v)
        rng = random.Random(52)
        probes.append([rand_fraction(rng) for _ in range(6)])
        for y in probes:
            p = scalar_mp(Bernstein(5), y)
            se = bernstein_strict_equivalence(p)
            uinv = se.u.try_inverse()
            h3 = -10 * y[3] + 20 * y[2] - 15 * y[1] + 4 * y[0]
            h2 = -10 * y[2] + 15 * y[1] - 6 * y[0]
            h1 = -5 * y[1] + 4 * y[0]
            assert uinv.row(0) == [F(1), h3, h2, h1, -y[0]]

    def test_all_grades_random(self):
        rng = random.Random(53)
        for grade in range(2, 7):
            y = [rand_fraction(rng) for _ in range(grade + 1)]
            p = scalar_mp(Bernstein(grade), y)
            se = bernstein_strict_equivalence(p)
            assert verify_strict(se, build_bernstein_pencil(p), p).ok

    def test_works_with_singular_value_at_one(self):
        rng = random.Random(54)
        for grade in range(2, 7):
            y = [rand_fraction(rng) for _ in range(grade)] + [F(0)]
            p = scalar_mp(Bernstein(grade), y)
            se = bernstein_strict_equivalence(p)
            assert verify_strict(se, build_bernstein_pencil(p), p).ok

    def test_matrix_blocks(self):
        rng = random.Random(55)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        se = bernstein_strict_equivalence(p)
        assert verify_strict(se, build_bernstein_pencil(p), p).ok


# ---------------------------------------------------------------------------
# Bernstein reversals


class TestReversalCoeffs:
    def test_grade1_closed_form(self):
        rng = random.Random(56)
        y = [ConstMatrix(1, 1, [rand_fraction(rng)]) for _ in range(2)]
        d = bernstein_reversal_coeffs(y)
        assert d[0] == y[1]
        assert d[1] == y[1] + y[0]

    def test_one_minus_z_squared_reverses_to_z_squared(self):
        y = [ConstMatrix(1, 1, [v]) for v in (1, 0, 0)]
        d = bernstein_reversal_coeffs(y)
        assert [blk.get(0, 0) for blk in d] == [F(0), F(0), F(1)]

    def test_d_against_rational_oracle(self):
        rng = random.Random(57)
        for grade in range(1, 7):
            y = [rand_fraction(rng) for _ in range(grade + 1)]
            p = scalar_mp(Bernstein(grade), y)
            mono = [c.get(0, 0) for c in to_monomial(p).coeffs]
            want = shifted_reversal_monomial(mono, grade)
            d = bernstein_reversal_coeffs(list(p.coeffs))
            d_poly = scalar_mp(Bernstein(grade), [blk.get(0, 0) for blk in d])
            got = PolyQ([c.get(0, 0) for c in to_monomial(d_poly).coeffs])
            assert got == want

    def test_e_against_rational_oracle(self):
        rng = random.Random(58)
        for grade in range(1, 7):
            y = [rand_fraction(rng) for _ in range(grade + 1)]
            p = scalar_mp(Bernstein(grade), y)
            mono = [c.get(0, 0) for c in to_monomial(p).coeffs]
            want = standard_reversal_monomial(mono, grade)
            from polylin.equivalence import standard_reversal_coeffs

            e = standard_reversal_coeffs(list(p.coeffs))
            e_poly = scalar_mp(Bernstein(grade), [blk.get(0, 0) for blk in e])
            got = PolyQ([c.get(0, 0) for c in to_monomial(e_poly).coeffs])
            assert got == want

    def test_monomial_standard_reversal_is_list_reversal(self):
        rng = random.Random(59)
        coeffs = [rand_fraction(rng) for _ in range(5)]
        assert standard_reversal_monomial(coeffs, 4) == PolyQ(list(reversed(coeffs)))

    def test_locality_structure(self):
        # d_0 only involves the top coefficient; e_0 involves all of them
        one = ConstMatrix(1, 1, [1])
        zero = ConstMatrix(1, 1, [0])
        grade = 4
        from polylin.equivalence import standard_reversal_coeffs

        for j in range(grade + 1):
            y = [one if k == j else zero for k in range(grade + 1)]
            d = bernstein_reversal_coeffs(y)
            e = standard_reversal_coeffs(y)
            assert (d[0] == one) == (j == grade)
            assert not e[0].is_zero  # every y_j shows up in e_0


class TestReversalEquivalence:
    def test_identities_all_grades(self):
        rng = random.Random(60)
        for grade in range(2, 7):
            y = [ConstMatrix(1, 1, [rand_fraction(rng)]) for _ in range(grade + 1)]
            re = bernstein_reversal_equivalence(y)
            p = MatrixPolynomial(1, Bernstein(grade), tuple(y))
            verdict = verify_reversal_equivalence(re, p)
            assert verdict.ok
            assert re.u.det() in (1, -1)
            assert re.winv.det() in (1, -1)

    def test_antidiagonal_sequence_grade6(self):
        # the factor carrying the closed anti-diagonal -(L-i+1)/i
        rng = random.Random(61)
        y = [ConstMatrix(1, 1, [rand_fraction(rng)]) for _ in range(7)]
        re = bernstein_reversal_equivalence(y)
        anti = [re.winv.get(i - 1, 6 - i) for i in range(1, 7)]
        assert anti == [F(-6), F(-5, 2), F(-4, 3), F(-3, 4), F(-2, 5), F(-1, 6)]

    def test_last_column_carries_reversed_coefficient_blocks(self):
        rng = random.Random(62)
        grade = 4
        yv = [rand_fraction(rng) for _ in range(grade + 1)]
        y = [ConstMatrix(1, 1, [v]) for v in yv]
        re = bernstein_reversal_equivalence(y)
        d = bernstein_reversal_coeffs(y)
        # first row of U holds d_{L+1-j} - ((j-1)/L) y_L for j = 2..L
        for j in range(2, grade + 1):
            want = d[grade + 1 - j].get(0, 0) - F(j - 1, grade) * yv[grade]
            assert re.u.get(0, j - 1) == want

    def test_matrix_blocks(self):
        rng = random.Random(63)
        y = [rand_nonsingular_const_matrix(rng, 2) for _ in range(4)]
        re = bernstein_reversal_equivalence(y)
        p = MatrixPolynomial(2, Bernstein(3), tuple(y))
        assert verify_reversal_equivalence(re, p).ok


# ---------------------------------------------------------------------------
# Lagrange strict equivalence


class TestLagrangeStrict:
    def test_spec_example(self):
        p = scalar_mp(Lagrange(1, (0, 1)), [0, 1])  # p = z
        se = lagrange_strict_equivalence(p)
        assert verify_strict(se, build_lagrange_pencil(p), p).ok

    def test_det_u_formula(self):
        rng = random.Random(64)
        for _ in range(8):
            n = rng.randint(1, 3)
            grade = rng.randint(1, 4)
            nodes = rand_nodes(rng, grade + 1)
            p = rand_matrix_polynomial(rng, Lagrange(grade, nodes), n)
            se = lagrange_strict_equivalence(p)
            prod = F(1)
            for i in range(grade + 1):
                for j in range(i + 1, grade + 1):
                    prod *= nodes[j] - nodes[i]
            assert se.u.det() == (-1) ** n * prod**n

    def test_left_shift_identity(self):
        # beta as the first column of V^{-1}, and the shifted-column relation
        # beta*q + D V^{-1} = V^{-1} N on nodes 0, 1, 2
        nodes = (F(0), F(1), F(2))
        bary = barycentric_weights(nodes)
        L = 2
        vd = ConstMatrix.from_rows(
            [[nodes[L - j] ** (L - i) for j in range(L + 1)] for i in range(L + 1)]
        )
        vinv = vd.try_inverse()
        beta = ConstMatrix(L + 1, 1, [bary.weights[L - r] for r in range(L + 1)])
        q_desc = list(reversed(bary.node_poly_tail))
        q_row = ConstMatrix(1, L + 1, q_desc)
        d_tau = ConstMatrix.from_rows(
            [[nodes[L - r] if r == c else F(0) for c in range(L + 1)]
             for r in range(L + 1)]
        )
        shift = ConstMatrix.from_rows(
            [[F(1) if r == c + 1 else F(0) for c in range(L + 1)]
             for r in range(L + 1)]
        )
        assert [vinv.get(r, 0) for r in range(L + 1)] == \
            [beta.get(r, 0) for r in range(L + 1)]
        assert beta @ q_row + d_tau @ vinv == vinv @ shift

    def test_with_singular_values_and_nonregular(self):
        rng = random.Random(65)
        # a singular node value
        nodes = rand_nodes(rng, 4)
        coeffs = [rand_nonsingular_const_matrix(rng, 2) for _ in range(4)]
        coeffs[1] = ConstMatrix.zeros(2, 2)
        p = MatrixPolynomial(2, Lagrange(3, nodes), tuple(coeffs))
        se = lagrange_strict_equivalence(p)
        assert verify_strict(se, build_lagrange_pencil(p), p).ok
        # nonregular: duplicate rows in every value make det P identically 0
        vals = []
        for _ in range(4):
            row = [rand_fraction(rng), rand_fraction(rng)]
            vals.append(ConstMatrix.from_rows([row, row]))
        p2 = MatrixPolynomial(2, Lagrange(3, nodes), tuple(vals))
        assert polymatrix_det(matrix_poly_as_polymatrix(p2)).is_zero
        se2 = lagrange_strict_equivalence(p2)
        assert verify_strict(se2, build_lagrange_pencil(p2), p2).ok

    def test_all_sizes(self):
        rng = random.Random(66)
        for grade in range(1, 6):
            for n in (1, 2, 3):
                nodes = rand_nodes(rng, grade + 1)
                p = rand_matrix_polynomial(rng, Lagrange(grade, nodes), n)
                se = lagrange_strict_equivalence(p)
                assert verify_strict(se, build_lagrange_pencil(p), p).ok


# ---------------------------------------------------------------------------
# construction-time checks, each reached with inconsistent data


class TestConstructionChecks:
    """The constructors check nothing: wrong data yields a certificate, and
    the verifier the CLI runs on it must refuse it.  ConjectureFailure is
    left only where construction cannot go on."""

    @pytest.mark.parametrize("kind, build", [
        ("recurrence", recurrence_hermite_analogue),
        ("bernstein", bernstein_hermite_analogue),
        ("lagrange", lagrange_hermite_factors),
    ])
    def test_triangular_rejects_another_pencil(self, kind, build):
        rng = random.Random(70)
        basis = rand_basis(rng, kind, 3)
        p = rand_matrix_polynomial(rng, basis, 2)
        other = build_pencil(rand_matrix_polynomial(rng, basis, 2))
        verdict = verify_hermite_analogue(build(p, other), other)
        assert not verdict.ok
        assert verdict.counterexample == {"reason": "Uinv @ H != L"}

    def test_lagrange_strict_rejects_another_target(self):
        rng = random.Random(71)
        basis = Lagrange(3, rand_nodes(rng, 4))
        p = rand_matrix_polynomial(rng, basis, 2)
        q = rand_matrix_polynomial(rng, basis, 2)
        se = lagrange_strict_equivalence(p)
        assert verify_strict(se, build_lagrange_pencil(p), p).ok
        verdict = verify_strict(se, build_lagrange_pencil(p), q)
        assert not verdict.ok
        assert verdict.counterexample == {"reason": "constant-coefficient identity failed"}

    def test_reversal_rejects_perturbed_entry(self, monkeypatch):
        rng = random.Random(72)
        y = [rand_const_matrix(rng, 2) for _ in range(4)]
        p = MatrixPolynomial(2, Bernstein(3), tuple(y))
        exact_entry = equivalence.reversal_u_entry
        monkeypatch.setattr(equivalence, "reversal_u_entry", lambda g, i, j:
                            exact_entry(g, i, j) + (1 if (i, j) == (2, 2) else 0))
        verdict = verify_reversal_equivalence(bernstein_reversal_equivalence(y), p)
        assert not verdict.ok
        assert verdict.counterexample == {"reason": "first identity failed"}

    def test_reversal_rejects_wrong_shared_coeffs(self, monkeypatch):
        # the verifier recomputes d from monomial coefficients, so a wrong
        # d map in the constructor cannot confirm itself
        rng = random.Random(75)
        y = [rand_const_matrix(rng, 2) for _ in range(4)]
        p = MatrixPolynomial(2, Bernstein(3), tuple(y))
        monkeypatch.setattr(equivalence, "bernstein_reversal_coeffs",
                            equivalence.standard_reversal_coeffs)
        verdict = verify_reversal_equivalence(bernstein_reversal_equivalence(y), p)
        assert not verdict.ok
        assert verdict.counterexample == {"reason": "first identity failed"}

    def test_bernstein_strict_rejects_perturbed_w(self, monkeypatch):
        rng = random.Random(73)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        exact_w = equivalence._bernstein_binomial_w

        def perturbed(L):
            rows = exact_w(L).to_rows()
            rows[1][0] += 1
            return ConstMatrix.from_rows(rows)

        monkeypatch.setattr(equivalence, "_bernstein_binomial_w", perturbed)
        with pytest.raises(ConjectureFailure, match="no first row solves the grade-3 system"):
            bernstein_strict_equivalence(p)

    @pytest.mark.parametrize("zero, message", [
        (False, "strict: z-coefficient identity failed"),  # refused by verify_strict
        (True, r"U\^\(-1\) singular at grade 3"),  # construction cannot go on
    ])
    def test_bernstein_strict_rejects_wrong_first_row(self, monkeypatch, zero, message):
        rng = random.Random(74)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        exact_solve = equivalence.solve_exact

        def wrong_solve(a, b):
            x = exact_solve(a, b)
            if zero:
                return ConstMatrix.zeros(x.rows, x.cols)
            rows = x.to_rows()
            rows[0][0] += 1
            return ConstMatrix.from_rows(rows)

        monkeypatch.setattr(equivalence, "solve_exact", wrong_solve)
        if zero:
            with pytest.raises(ConjectureFailure, match=message):
                bernstein_strict_equivalence(p)
            return
        verdict = verify_strict(bernstein_strict_equivalence(p), build_bernstein_pencil(p), p)
        assert not verdict.ok
        assert f"{verdict.check}: {verdict.counterexample['reason']}" == message


# ---------------------------------------------------------------------------
# grade-pinning digest


TRIANGULAR = {
    "recurrence": recurrence_hermite_analogue,
    "bernstein": bernstein_hermite_analogue,
    "lagrange": lagrange_hermite_factors,
}


def _certificate_matrices(kind, p):
    """Every certificate the constructors build for p, by name; routes whose
    precondition p violates are left out."""
    def cofactors():
        if kind == "monomial":
            cof = monomial_cofactors(p)
            return {"E": cof.e, "F": cof.f}
        pen = build_pencil(p)
        ha = TRIANGULAR[kind](p, pen)
        cof = assemble_cofactors(ha, pen, p)
        return {"Uinv": ha.uinv, "H": ha.h, "corner": ha.corner_factor,
                "E": cof.e, "F": cof.f}

    def strict():
        se = (bernstein_strict_equivalence(p) if kind == "bernstein"
              else lagrange_strict_equivalence(p))
        return {"U": se.u, "W": se.w}

    def reversal():
        re = bernstein_reversal_equivalence(list(p.coeffs))
        return {"U": re.u, "Winv": re.winv}

    builds = {"cofactors": cofactors}
    if kind in ("bernstein", "lagrange"):
        builds["strict"] = strict
    if kind == "bernstein":
        builds["reversal"] = reversal
    out = []
    for name, build in builds.items():
        try:
            out.extend((f"{name}.{k}", m) for k, m in build().items())
        except PreconditionError:
            pass
    return out


def _entry_key(x):
    if isinstance(x, PolyQ):
        return ([str(c) for c in x.coeffs], x.grade)
    return str(x)


def _diagonal(p):
    """p with every off-diagonal coefficient entry set to zero, so that
    entries of P(z) vanish identically."""
    n = p.n
    coeffs = tuple(ConstMatrix(n, n, [c.get(i, j) if i == j else 0
                                      for i in range(n) for j in range(n)])
                   for c in p.coeffs)
    return MatrixPolynomial(n, p.basis, coeffs)


def certificate_digest():
    """sha256 over (coeffs, grade) of every entry of every certificate: one
    seeded draw per basis, grade 1-5 and n 1-3, plus its diagonal part for
    n = 2."""
    h = hashlib.sha256()
    for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
        for grade in range(1, 6):
            for n in (1, 2, 3):
                rng = random.Random(1000 * grade + n)
                p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), n)
                draws = [("full", p)] + ([("diagonal", _diagonal(p))] if n == 2 else [])
                for shape, q in draws:
                    for name, m in _certificate_matrices(kind, q):
                        key = (kind, grade, n, shape, name, m.rows, m.cols,
                               [_entry_key(x) for x in m.entries])
                        h.update(repr(key).encode())
    return h.hexdigest()


CERTIFICATE_DIGEST = "056f9e31e2e13d2843450fb32c0ee0f5be2fa6dea9eebb6584fb0076a6895e77"


def test_certificate_values_and_grades_digest():
    # PolyQ equality ignores grades, but the CLI pads each entry to its
    # grade: this pins both over every basis and shape
    assert certificate_digest() == CERTIFICATE_DIGEST


# ---------------------------------------------------------------------------
# the paper's discovery method as an oracle


@pytest.mark.parametrize("kind", sorted(TRIANGULAR))
def test_scalar_triangular_h_is_the_hermite_form(kind):
    """The paper finds its factorizations from the Hermite form of the
    scalar companion pencil, so for n = 1 a route's H, with its corner made
    monic and the entries above the corner reduced modulo it, is
    hermite_form(L).h; the reduction changes only the Lagrange grade-1 top
    entry G = (z - tau_0)/beta_0, of the corner's degree."""
    rng = random.Random(80)
    checked = 0
    for grade in range(1, 7):
        for _ in range(3):
            p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), 1)
            try:
                pen = build_pencil(p)
                ha = TRIANGULAR[kind](p, pen)
            except PreconditionError:
                continue  # grade below the pencil's minimum, or a singular value
            m = pen.block_count
            rows = ha.h.to_rows()
            corner = rows[m - 1][m - 1].monic()
            for row in rows[:m - 1]:
                row[m - 1] = row[m - 1] % corner
            rows[m - 1][m - 1] = corner
            assert PolyMatrix.from_rows(rows) == hermite_form(pen.as_polymatrix()).h, grade
            checked += 1
    assert checked >= 12
