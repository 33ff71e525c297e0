"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is an exact identity over Q; there are no tolerances anywhere.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
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
    hermite_form,
    smith_equivalence_check,
    smith_form,
    to_monomial,
)
from polylin.bases import (
    barycentric_weights,
    degree_elevate,
    matrix_poly_as_polymatrix,
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
from polylin.errors import SingularAtOne
from polylin.exact import (
    is_unimodular,
    polymatrix_det,
    polymatrix_inverse_unimodular,
    polymatrix_mul,
)
from polylin.normalforms import mask
from polylin.pencils import (
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_recurrence_pencil,
)
from polylin.verify import (
    diag_with_identity,
    verify_hermite_analogue,
    verify_linearization,
    verify_reversal_equivalence,
    verify_strict,
)
from polylin.randgen import (
    rand_basis,
    rand_const_matrix,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
    rand_recurrence_spec,
)

from conftest import (
    matrix_poly_value,
    rand_nonsingular_const_matrix,
    shifted_reversal_monomial,
    standard_reversal_coeffs,
    standard_reversal_monomial,
)

from test_equivalence import (
    chebyshev_probe_vectors,
    expected_chebyshev_einv_row,
    expected_grade5_monomial,
)

ONE = PolyQ([1])
ZERO = PolyQ.zero()
Z = PolyQ([0, 1])


def report(number, name):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        run.__name__ = fn.__name__
        return run

    return wrap


@report(1, "monomial cofactors")
def test_criterion_1_monomial_cofactors():
    started = time.time()
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 3)
        grade = rng.randint(1, 6)
        p = rand_matrix_polynomial(rng, Monomial(grade), n)
        pen = build_monomial_pencil(p)
        cof = monomial_cofactors(p)
        product = polymatrix_mul(polymatrix_mul(cof.e, pen.as_polymatrix()), cof.f)
        assert product == diag_with_identity(matrix_poly_as_polymatrix(p),
                                             pen.block_count)
        _, unit_e = is_unimodular(cof.e)
        _, unit_f = is_unimodular(cof.f)
        assert unit_e in (1, -1) and unit_f in (1, -1)
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"

    # grade-5 scalar closed forms, entry for entry; the entries are linear
    # in the coefficients so the basis probes pin the symbolic displays
    probes = [[F(0)] * 6] + [[F(1) if k == j else F(0) for k in range(6)]
                             for j in range(6)]
    probes.append([rand_fraction(rng) for _ in range(6)])
    for a in probes:
        p = MatrixPolynomial.scalar(Monomial(5), a)
        e_want, l_want, f_want = expected_grade5_monomial(a)
        cof = monomial_cofactors(p)
        assert cof.e == e_want and cof.f == f_want
        assert build_monomial_pencil(p).as_polymatrix() == l_want


@report(2, "recurrence basis factorization")
def test_criterion_2_recurrence():
    # Chebyshev grade-5 closed-form rows/columns of the inverted cofactors
    t = {1: Z, 2: PolyQ([-1, 0, 2]), 3: PolyQ([0, -3, 0, 4]),
         4: PolyQ([1, 0, -8, 0, 8])}
    finv_want = PolyMatrix.from_rows([
        [ZERO, ZERO, ZERO, ZERO, ONE],
        [ZERO, ZERO, ZERO, ONE, -t[1]],
        [ZERO, ZERO, ONE, ZERO, -t[2]],
        [ZERO, ONE, ZERO, ZERO, -t[3]],
        [ONE, ZERO, ZERO, ZERO, -t[4]],
    ])
    rng = random.Random(102)
    for a in chebyshev_probe_vectors(rng, count=2):
        p = MatrixPolynomial.scalar(Recurrence.chebyshev(5), a)
        pen = build_recurrence_pencil(p)
        ha = recurrence_hermite_analogue(p, pen)
        cof = assemble_cofactors(ha, pen)
        einv = polymatrix_inverse_unimodular(cof.e)
        assert einv.row(0) == expected_chebyshev_einv_row(a)
        finv = polymatrix_inverse_unimodular(cof.f)
        assert [finv.get(i, 4) for i in range(5)] == \
            [ONE, -t[1], -t[2], -t[3], -t[4]]
        assert finv == finv_want

    # random specs with alpha_k != 0 and nonsingular leading block
    done = 0
    while done < 12:
        n = rng.randint(1, 3)
        grade = rng.randint(2, 5)
        spec = rand_recurrence_spec(rng, grade)
        coeffs = [rand_const_matrix(rng, n) for _ in range(grade)]
        coeffs.append(rand_nonsingular_const_matrix(rng, n))
        p = MatrixPolynomial(n, spec, tuple(coeffs))
        pen = build_recurrence_pencil(p)
        ha = recurrence_hermite_analogue(p, pen)
        assert verify_hermite_analogue(ha, pen).ok
        cof = assemble_cofactors(ha, pen)
        assert verify_linearization(pen, p, cof).ok
        done += 1


@report(3, "Bernstein factorizations")
def test_criterion_3_bernstein():
    rng = random.Random(103)
    # diagonal pattern at grade 5
    p5 = MatrixPolynomial.scalar(Bernstein(5),
                                 [rand_fraction(rng) for _ in range(6)])
    pen5 = build_bernstein_pencil(p5)
    assert [pen5.c1.get(i, i) for i in range(1, 5)] == \
        [F(2, 4), F(3, 3), F(4, 2), F(5, 1)]

    # triangular factorization whenever P(1) is invertible
    done = 0
    while done < 8:
        n = rng.randint(1, 2)
        grade = rng.randint(2, 5)
        p = rand_matrix_polynomial(rng, Bernstein(grade), n)
        if matrix_poly_value(p, 1).det() == 0:
            continue
        pen = build_bernstein_pencil(p)
        ha = bernstein_hermite_analogue(p, pen)
        assert verify_hermite_analogue(ha, pen).ok
        cof = assemble_cofactors(ha, pen)
        assert verify_linearization(pen, p, cof).ok
        done += 1

    # SingularAtOne when P(1) is singular
    p_bad = MatrixPolynomial.scalar(Bernstein(3), [1, 2, 3, 0])
    with pytest.raises(SingularAtOne):
        bernstein_hermite_analogue(p_bad, build_bernstein_pencil(p_bad))

    # strict equivalence for grades 2..6, including singular P(1)
    for grade in range(2, 7):
        for top in (rand_fraction(rng, nonzero=True), F(0)):
            y = [rand_fraction(rng) for _ in range(grade)] + [top]
            p = MatrixPolynomial.scalar(Bernstein(grade), y)
            se = bernstein_strict_equivalence(p)
            assert verify_strict(se, build_bernstein_pencil(p), p).ok

    # the closed binomial transform at grade 5 is this integer matrix
    y = [rand_fraction(rng) for _ in range(6)]
    se5 = bernstein_strict_equivalence(MatrixPolynomial.scalar(Bernstein(5), y))
    assert se5.w == ConstMatrix.from_rows([
        [5, 0, 0, 0, 0],
        [-10, 10, 0, 0, 0],
        [10, -20, 10, 0, 0],
        [-5, 15, -15, 5, 0],
        [1, -4, 6, -4, 1],
    ])


@report(4, "Bernstein reversal")
def test_criterion_4_reversal():
    rng = random.Random(104)
    for grade in range(2, 7):
        y = [ConstMatrix(1, 1, [rand_fraction(rng)]) for _ in range(grade + 1)]
        p = MatrixPolynomial(1, Bernstein(grade), tuple(y))
        re = bernstein_reversal_equivalence(y)
        assert verify_reversal_equivalence(re, p).ok
        assert re.u.det() in (1, -1) and re.winv.det() in (1, -1)

        # reversal coefficient maps against the rational-function oracles
        mono = [c.get(0, 0) for c in to_monomial(p).coeffs]
        d = bernstein_reversal_coeffs(y)
        d_mono = to_monomial(MatrixPolynomial(1, Bernstein(grade), tuple(d)))
        assert PolyQ([c.get(0, 0) for c in d_mono.coeffs]) == \
            shifted_reversal_monomial(mono, grade)
        e = standard_reversal_coeffs(y)
        e_mono = to_monomial(MatrixPolynomial(1, Bernstein(grade), tuple(e)))
        assert PolyQ([c.get(0, 0) for c in e_mono.coeffs]) == \
            standard_reversal_monomial(mono, grade)

    # block case
    yb = [rand_const_matrix(rng, 2) for _ in range(5)]
    pb = MatrixPolynomial(2, Bernstein(4), tuple(yb))
    reb = bernstein_reversal_equivalence(yb)
    assert verify_reversal_equivalence(reb, pb).ok


@report(5, "Lagrange factorizations")
def test_criterion_5_lagrange():
    rng = random.Random(105)
    # triangular factorization with every value invertible, plus the
    # value-sum identity sum_k P_k H_k = P_0
    done = 0
    while done < 8:
        n = rng.randint(1, 3)
        grade = rng.randint(1, 4)
        nodes = rand_nodes(rng, grade + 1)
        coeffs = tuple(rand_nonsingular_const_matrix(rng, n)
                       for _ in range(grade + 1))
        p = MatrixPolynomial(n, Lagrange(grade, nodes), coeffs)
        pen = build_lagrange_pencil(p)
        ha = lagrange_hermite_factors(p, pen)
        assert verify_hermite_analogue(ha, pen).ok
        m = pen.block_count
        acc = PolyMatrix.zeros(n, n)
        for k in range(1, grade + 1):
            row = m - 1 - k
            h_k = PolyMatrix(n, n, [ha.h.get(row * n + r, (m - 1) * n + c)
                                    for r in range(n) for c in range(n)])
            acc = acc + polymatrix_mul(PolyMatrix.from_const(coeffs[k]), h_k)
        assert acc == PolyMatrix.from_const(coeffs[0])
        cof = assemble_cofactors(ha, pen)
        assert verify_linearization(pen, p, cof).ok
        done += 1

    # strict equivalence: random sizes, singular values, nonregular P
    for trial in range(10):
        n = rng.randint(1, 3)
        grade = rng.randint(1, 5)
        nodes = rand_nodes(rng, grade + 1)
        coeffs = [rand_const_matrix(rng, n) for _ in range(grade + 1)]
        if trial % 3 == 1 and n > 1:
            coeffs[0] = ConstMatrix.zeros(n, n)  # singular value
        if trial % 3 == 2 and n > 1:
            # nonregular: duplicate first two rows of every value
            fixed = []
            for c in coeffs:
                rows = c.to_rows()
                rows[1] = rows[0]
                fixed.append(ConstMatrix.from_rows(rows))
            coeffs = fixed
        p = MatrixPolynomial(n, Lagrange(grade, nodes), tuple(coeffs))
        se = lagrange_strict_equivalence(p)
        assert verify_strict(se, build_lagrange_pencil(p), p).ok
        prod = F(1)
        for i in range(grade + 1):
            for j in range(i + 1, grade + 1):
                prod *= nodes[j] - nodes[i]
        assert se.u.det() == (-1) ** n * prod**n


@report(6, "Smith-form equivalence, all four families")
def test_criterion_6_smith_equivalence():
    started = time.time()
    rng = random.Random(106)

    def check(p):
        assert smith_equivalence_check(build_pencil(p), p).ok

    for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
        lo = 2 if kind in ("recurrence", "bernstein") else 1
        for n in (1, 2):
            for grade in range(lo, 5):
                basis = rand_basis(rng, kind, grade)
                check(rand_matrix_polynomial(rng, basis, n))

    # singular node value
    nodes = rand_nodes(rng, 4)
    values = [rand_const_matrix(rng, 2) for _ in range(4)]
    values[2] = ConstMatrix.zeros(2, 2)
    check(MatrixPolynomial(2, Lagrange(3, nodes), tuple(values)))

    # singular value at the right end of the Bernstein interval
    yb = [rand_fraction(rng, nonzero=True) for _ in range(3)] + [F(0)]
    check(MatrixPolynomial.scalar(Bernstein(3), yb))

    # det P identically zero, every basis
    for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
        basis = rand_basis(rng, kind, 2)
        blocks = []
        for _ in range(3):
            row = [rand_fraction(rng), rand_fraction(rng)]
            blocks.append(ConstMatrix.from_rows([row, row]))
        p = MatrixPolynomial(2, basis, tuple(blocks))
        assert polymatrix_det(matrix_poly_as_polymatrix(p)).is_zero
        check(p)

    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s (budget 60s)"


@report(7, "normal-form engine")
def test_criterion_7_normal_forms():
    # structural masks of the generic factorizations
    a = [F(2), F(3), F(5), F(7), F(11), F(13)]
    p = MatrixPolynomial.scalar(Recurrence.chebyshev(5), a)
    res = hermite_form(build_recurrence_pencil(p).as_polymatrix())
    assert mask(res.h) == ["x000x", "0x00x", "00x0x", "000xx", "0000x"]
    assert mask(polymatrix_inverse_unimodular(res.u)) == \
        ["xxxxx", "xxx00", "0xxx0", "00xx0", "000x0"]

    pl3 = MatrixPolynomial.scalar(Lagrange(3, (0, 1, 2, 3)), [1, 2, 3, 5])
    res = hermite_form(build_lagrange_pencil(pl3).as_polymatrix())
    assert mask(res.h) == ["x000x", "0x00x", "00x0x", "000xx", "0000x"]
    assert mask(polymatrix_inverse_unimodular(res.u)) == \
        ["0xxx0", "xx00x", "x0x0x", "x00xx", "x0000"]

    # reconstruction identities on 100 random matrices, n <= 4, grade <= 3
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(1, 4)
        entries = []
        for _ in range(n * n):
            deg = rng.randint(0, 3)
            entries.append(PolyQ([rand_fraction(rng) for _ in range(deg + 1)],
                                 grade=3))
        m = PolyMatrix(n, n, entries)
        hres = hermite_form(m)
        assert polymatrix_mul(hres.u, m) == hres.h
        assert is_unimodular(hres.u)[0]
        sres = smith_form(m)
        assert polymatrix_mul(polymatrix_mul(sres.e, sres.s), sres.f) == m
        assert is_unimodular(sres.e)[0] and is_unimodular(sres.f)[0]
        facs = sres.invariant_factors
        for x, y in zip(facs, facs[1:]):
            if x.is_zero:
                assert y.is_zero
            else:
                assert (y % x).is_zero


@report(8, "barycentric and Bernstein identity suite")
def test_criterion_8_identities():
    rng = random.Random(108)
    for _ in range(25):
        count = rng.randint(2, 7)  # grade <= 6
        nodes = rand_nodes(rng, count)
        bary = barycentric_weights(nodes)
        assert sum(bary.weights) == 0
        one_acc = PolyQ.zero()
        z_acc = PolyQ.zero()
        for t, b in zip(nodes, bary.weights):
            quot = bary.node_poly.exact_div(PolyQ([-t, 1]))
            one_acc = one_acc + quot.scale(b)
            z_acc = z_acc + quot.scale(b * t)
        assert one_acc == ONE
        assert z_acc == Z

    # partition of unity at every grade
    for grade in range(1, 7):
        p = MatrixPolynomial.scalar(Bernstein(grade), [1] * (grade + 1))
        mono = to_monomial(p)
        assert [c.get(0, 0) for c in mono.coeffs] == [F(1)] + [F(0)] * grade

    # degree elevation preserves the monomial form exactly
    for _ in range(10):
        n = rng.randint(1, 3)
        grade = rng.randint(1, 6)
        p = rand_matrix_polynomial(rng, Bernstein(grade), n)
        q = degree_elevate(p)
        mono_p = to_monomial(p)
        mono_q = to_monomial(q)
        assert mono_q.coeffs[: grade + 1] == mono_p.coeffs
        assert mono_q.coeffs[grade + 1].is_zero
        # evaluation agrees at a random rational point
        x = rand_fraction(rng)
        assert matrix_poly_value(p, x) == matrix_poly_value(q, x)
