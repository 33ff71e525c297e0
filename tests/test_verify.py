"""The verification engine, including negative controls."""

import ast
import dataclasses
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from polylin import (
    Bernstein,
    ConstMatrix,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    PolyMatrix,
    PolyQ,
    smith_equivalence_check,
    to_monomial,
    verify_strong,
)
from polylin.equivalence import (
    CofactorPair,
    ReversalEquivalence,
    StrictEquivalence,
    assemble_cofactors,
    bernstein_hermite_analogue,
    bernstein_reversal_equivalence,
    bernstein_strict_equivalence,
    lagrange_hermite_factors,
    lagrange_strict_equivalence,
    monomial_cofactors,
    recurrence_hermite_analogue,
)
from polylin.errors import PreconditionError
from polylin.bases import _phi_inverse, from_monomial, matrix_poly_as_polymatrix, transform_blocks
from polylin.exact import is_unimodular, polymatrix_mul, unit_by_inverse
from polylin.pencils import (
    Pencil,
    build_bernstein_pencil,
    build_lagrange_pencil,
    build_monomial_pencil,
    build_pencil,
)
from polylin.verify import (
    verify_bernstein_reversal_pencil,
    verify_companion,
    verify_linearization,
    verify_strict,
)
from polylin import serialize, verify
from polylin.randgen import (
    rand_basis,
    rand_const_matrix,
    rand_fraction,
    rand_matrix_polynomial,
    rand_nodes,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def perturb_entry(m: ConstMatrix, i=0, j=0, delta=1) -> ConstMatrix:
    entries = list(m.entries)
    entries[i * m.cols + j] += delta
    return ConstMatrix(m.rows, m.cols, entries)


def same_lcm(x):
    """x plus 1: the same denominator, so its row's lcm is unchanged."""
    return x + 1


def new_denominator(x):
    """p/q as p/(q(|p|+1)): the numerator kept, only the denominator
    changed."""
    p, q = x.as_integer_ratio()
    return F(p, q * (abs(p) + 1))


def perturb_in_row_form(m: ConstMatrix, i: int, change) -> ConstMatrix:
    """m with its last nonzero entry of row i changed."""
    j = max(j for j in range(m.cols) if m.get(i, j))
    rows = m.to_rows()
    rows[i][j] = change(rows[i][j])
    return ConstMatrix.from_rows(rows)


def loop_shifted_reversal(p):
    """The scale-and-add loop verify._shifted_reversal once was."""
    L = p.grade
    a = to_monomial(p).coeffs
    blocks = []
    for i in range(L + 1):
        acc = ConstMatrix.zeros(p.n, p.n)
        for j in range(L - i + 1):
            acc = acc + a[j].scale(math.comb(L - j, i))
        blocks.append(acc)
    return tuple(blocks)


def test_shifted_reversal_matches_its_loop():
    rng = random.Random(90)
    for kind in ("monomial", "bernstein"):
        for grade in range(1, 11):
            p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), rng.randint(1, 3))
            got = verify._shifted_reversal(p)
            assert got.basis == Monomial(grade)
            assert got.coeffs == loop_shifted_reversal(p)


def test_padded_monomial_pads_with_zero_blocks():
    rng = random.Random(91)
    for kind in ("monomial", "recurrence", "bernstein", "lagrange"):
        for grade in range(1, 6):
            p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), rng.randint(1, 3))
            for extra in (0, 2):
                got = verify._padded_monomial(p, grade + extra)
                zero = ConstMatrix.zeros(p.n, p.n)
                assert got.basis == Monomial(grade + extra)
                assert got.coeffs == to_monomial(p).coeffs + (zero,) * extra


def shift_matrix(L):
    """T(i, j) = C(L-j, i): the monomial coefficients A_j to those of
    sum_j A_j (z+1)^(L-j)."""
    return ConstMatrix.from_rows([[math.comb(L - j, i) for j in range(L + 1)]
                                  for i in range(L + 1)])


def stepwise_shifted_reversal(p, basis=None):
    """The reversal target by one transform a step, as it once was: Phi
    (to_monomial), then T, then Phi^-1 (from_monomial) into `basis`."""
    L = p.grade
    mono = MatrixPolynomial(p.n, Monomial(L), transform_blocks(shift_matrix(L), to_monomial(p).coeffs))
    return mono if basis is None else from_monomial(mono, basis)


def stepwise_padded_monomial(p, grade):
    """P in monomial coefficients at the grade, as it once was: the padded
    blocks through the identity transform Phi^-1 of the monomial basis."""
    mono = to_monomial(p)
    padded = (list(mono.coeffs) + [ConstMatrix.zeros(p.n, p.n)] * (grade - p.grade))[:grade + 1]
    return MatrixPolynomial(p.n, Monomial(grade),
                            transform_blocks(_phi_inverse(Monomial(grade)), padded))


def bernstein_draws(rng):
    """Bernstein P at L 2-12 and n 1-3; about one block in four zero and
    one in four singular."""
    draws = []
    for L in range(2, 13):
        for n in (1, 2, 3):
            blocks = []
            for _ in range(L + 1):
                pick = rng.random()
                if pick < 0.25:
                    blocks.append(ConstMatrix.zeros(n, n))
                elif pick < 0.5:
                    v, w = rand_const_matrix(rng, n), rand_fraction(rng)
                    rows = v.to_rows()
                    rows[-1] = [w * x for x in rows[0]]
                    blocks.append(ConstMatrix.from_rows(rows))
                else:
                    blocks.append(rand_const_matrix(rng, n))
            draws.append(MatrixPolynomial(n, Bernstein(L), tuple(blocks)))
    return draws


class TestOneTransformTargets:
    """Each verifier target is one transform of P's blocks; the stepwise
    targets it replaced are the oracles."""

    def test_shifted_reversal_matches_the_stepwise_target(self):
        rng = random.Random(130)
        for p in bernstein_draws(rng):
            assert verify._shifted_reversal(p) == stepwise_shifted_reversal(p)
            got = verify._shifted_reversal(p, p.basis)
            assert got == stepwise_shifted_reversal(p, p.basis)
            assert got.basis == p.basis

    def test_padded_monomial_matches_the_identity_transform(self):
        rng = random.Random(131)
        for p in bernstein_draws(rng)[::2]:
            for extra in (0, 1, 2):
                got = verify._padded_monomial(p, p.grade + extra)
                assert got == stepwise_padded_monomial(p, p.grade + extra)

    def test_reversal_check_makes_one_transform(self, monkeypatch):
        rng = random.Random(132)
        p = rand_matrix_polynomial(rng, Bernstein(5), 2)
        re = bernstein_reversal_equivalence(list(p.coeffs))
        shapes = []
        real = verify.transform_blocks

        def spy(t, blocks):
            shapes.append((t.rows, t.cols))
            return real(t, blocks)

        monkeypatch.setattr(verify, "transform_blocks", spy)
        assert verify.verify_reversal_equivalence(re, p).ok
        assert shapes == [(6, 6)]

    @pytest.mark.parametrize("change", [same_lcm, new_denominator])
    def test_one_entry_of_reversal_u_changed(self, change, monkeypatch):
        # refused, and for the reason the stepwise target gave
        rng = random.Random(133)
        for L, n in ((3, 2), (5, 1), (4, 3)):
            p = rand_matrix_polynomial(rng, Bernstein(L), n)
            re = bernstein_reversal_equivalence(list(p.coeffs))
            assert verify.verify_reversal_equivalence(re, p).ok
            for i in range(re.u.rows):
                bad = ReversalEquivalence(perturb_in_row_form(re.u, i, change), re.winv)
                got = verify.verify_reversal_equivalence(bad, p)
                with monkeypatch.context() as m:
                    m.setattr(verify, "_shifted_reversal", stepwise_shifted_reversal)
                    want = verify.verify_reversal_equivalence(bad, p)
                assert not got.ok and got.counterexample == want.counterexample
                assert got.counterexample["reason"] in ("first identity failed",
                                                        "second identity failed")

    @pytest.mark.parametrize("change", [same_lcm, new_denominator])
    def test_one_entry_of_strict_w_changed(self, change, monkeypatch):
        # refused, and for the reason the identity-transform target gave
        rng = random.Random(134)
        for p in (rand_matrix_polynomial(rng, Bernstein(4), 2),
                  rand_matrix_polynomial(rng, Lagrange(3, rand_nodes(rng, 4)), 2)):
            se = (bernstein_strict_equivalence(p) if isinstance(p.basis, Bernstein)
                  else lagrange_strict_equivalence(p))
            source = build_pencil(p)
            assert verify_strict(se, source, p).ok
            reasons = set()
            for i in range(se.w.rows):
                bad = StrictEquivalence(se.u, perturb_in_row_form(se.w, i, change))
                got = verify_strict(bad, source, p)
                with monkeypatch.context() as m:
                    m.setattr(verify, "_padded_monomial", stepwise_padded_monomial)
                    want = verify_strict(bad, source, p)
                assert not got.ok and got.counterexample == want.counterexample
                reasons.add(got.counterexample["reason"])
            assert "z-coefficient identity failed" in reasons


class TestCompanion:
    def test_monomial_quadratic(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        verdict = verify_companion(build_monomial_pencil(p), p)
        assert verdict.ok and verdict.constant == 1

    def test_bernstein_random(self):
        rng = random.Random(80)
        p = rand_matrix_polynomial(rng, Bernstein(3), 1)
        verdict = verify_companion(build_bernstein_pencil(p), p)
        assert verdict.ok and verdict.constant is not None

    def test_corrupted_pencil_falsified(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        pen = build_monomial_pencil(p)
        bad = Pencil(pen.c1, perturb_entry(pen.c0), pen.n, pen.block_count,
                     pen.basis_tag)
        assert not verify_companion(bad, p).ok

    def test_both_zero_determinants_ok(self):
        # nonregular P: equal rows everywhere
        rng = random.Random(81)
        rows = [[rand_fraction(rng), rand_fraction(rng)] for _ in range(3)]
        coeffs = tuple(ConstMatrix.from_rows([r, r]) for r in rows)
        p = MatrixPolynomial(2, Monomial(2), coeffs)
        assert verify_companion(build_monomial_pencil(p), p).ok


class TestLinearization:
    def test_positive(self):
        rng = random.Random(82)
        p = rand_matrix_polynomial(rng, Monomial(3), 2)
        pen = build_monomial_pencil(p)
        assert verify_linearization(pen, p, monomial_cofactors(p)).ok

    def test_sign_flip_falsified(self):
        rng = random.Random(83)
        p = rand_matrix_polynomial(rng, Monomial(3), 1)
        pen = build_monomial_pencil(p)
        cof = monomial_cofactors(p)
        rows = cof.e.to_rows()
        rows[0][1] = -rows[0][1] + PolyQ([1])
        bad = CofactorPair(PolyMatrix.from_rows(rows), cof.f)
        verdict = verify_linearization(pen, p, bad)
        assert not verdict.ok
        assert verdict.counterexample is not None

    def test_non_unimodular_factor_falsified(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        pen = build_monomial_pencil(p)
        cof = monomial_cofactors(p)
        z_scaled = PolyMatrix.from_rows([
            [PolyQ([0, 1]), PolyQ.zero()],
            [PolyQ.zero(), PolyQ([1])],
        ])
        bad = CofactorPair(z_scaled, cof.f)
        assert not verify_linearization(pen, p, bad).ok

    def test_polynomial_e_refused_though_the_identity_holds(self):
        # E @ L @ F = diag(P, I) with det P != 0 does not force det E to be
        # constant: with L = 1 (C1 = [0], C0 = [-1]), E = [z - 2] and
        # F = [1], E @ L @ F = z - 2 = P.  A shortcut that reads the units
        # off E(0) and F(0) also needs det L = c det P.  No claimed E^-1
        # gets it accepted either.
        p = MatrixPolynomial.scalar(Monomial(1), [-2, 1])
        pen = Pencil(ConstMatrix.from_rows([[0]]), ConstMatrix.from_rows([[-1]]), 1, 1, "monomial")
        cof = CofactorPair(PolyMatrix.from_rows([[PolyQ([-2, 1])]]), PolyMatrix.identity(1))
        assert polymatrix_mul(polymatrix_mul(cof.e, pen.as_polymatrix()), cof.f) == \
            matrix_poly_as_polymatrix(p)
        witnesses = [None, PolyMatrix.identity(1), PolyMatrix.identity(2), PolyMatrix.zeros(1, 1)]
        witnesses += [PolyMatrix.from_rows([[PolyQ(w)]]) for w in ([F(-1, 2)], [2, 1], [-2, 1])]
        for w in witnesses:
            verdict = verify_linearization(pen, p, dataclasses.replace(cof, e_inv=w))
            assert not verdict.ok
            assert verdict.counterexample == {"reason": "E not unimodular"}


TRIANGULAR = {"recurrence": recurrence_hermite_analogue,
              "bernstein": bernstein_hermite_analogue,
              "lagrange": lagrange_hermite_factors}


def triangular_certificate(p):
    """(pencil, factorization, cofactor pair) of a triangular route, or None
    when p fails the route's precondition."""
    pen = build_pencil(p)
    try:
        ha = TRIANGULAR[p.basis.kind](p, pen)
    except PreconditionError:
        return None
    return pen, ha, assemble_cofactors(ha, pen)


def verdict_key(verdict):
    return verdict.ok, verdict.constant, verdict.factor_dets, verdict.counterexample


def assert_witness_agrees(pen, p, cof):
    """E^-1 is exact, the unit it proves is det E, and the verdict is the
    one the determinant alone gives."""
    assert polymatrix_mul(cof.e_inv, cof.e) == PolyMatrix.identity(cof.e.rows)
    assert unit_by_inverse(cof.e, cof.e_inv) == is_unimodular(cof.e)[1]
    assert verdict_key(verify_linearization(pen, p, cof)) == \
        verdict_key(verify_linearization(pen, p, dataclasses.replace(cof, e_inv=None)))


class TestInverseWitness:
    """The triangular routes carry E^-1; the determinant path is the oracle."""

    def test_random_draws_match_the_determinant(self):
        rng = random.Random(95)
        checked, corners = 0, 0
        while checked < 210:
            kind = ("recurrence", "bernstein", "lagrange")[checked % 3]
            grade = rng.randint(1 if kind == "lagrange" else 2, 6)
            n = rng.randint(1, 3)
            while n * (grade + 2 if kind == "lagrange" else grade) > 16:  # bounds the time
                n -= 1
            p = rand_matrix_polynomial(rng, rand_basis(rng, kind, grade), n)
            made = triangular_certificate(p)
            if made is None:
                continue
            pen, ha, cof = made
            corners += ha.corner_factor != ConstMatrix.identity(n)
            assert_witness_agrees(pen, p, cof)
            checked += 1
        assert corners >= 60

    def test_certify_large_catalog(self):
        sys.path.insert(0, str(BENCH))
        try:
            from workloads import VARIANTS, WORKLOADS, instance
        finally:
            sys.path.remove(str(BENCH))
        slots = WORKLOADS["certify-large"]
        checked = 0
        for i, slot in enumerate(slots):
            if slot.basis not in TRIANGULAR:
                continue
            for v in range(VARIANTS):
                p = serialize.parse_matrix_polynomial(instance("certify-large", i, slot, v))
                made = triangular_certificate(p)
                if made is not None:
                    assert_witness_agrees(made[0], p, made[2])
                    checked += 1
        assert checked >= 24

    def test_wrong_witnesses_fall_back_to_the_determinant(self):
        rng = random.Random(96)
        checked = 0
        for kind in ("recurrence", "bernstein", "lagrange") * 4:
            p = rand_matrix_polynomial(rng, rand_basis(rng, kind, rng.randint(2, 3)), 2)
            made = triangular_certificate(p)
            if made is None:
                continue
            pen, _, cof = made
            x = cof.e_inv
            size = x.rows
            i, j = rng.randrange(size), rng.randrange(size)
            changed = x.to_rows()
            changed[i][j] = changed[i][j] + PolyQ([1])
            zero_row = x.to_rows()
            zero_row[i] = [PolyQ.zero()] * size
            want = verdict_key(verify_linearization(pen, p, dataclasses.replace(cof, e_inv=None)))
            for bad in (PolyMatrix.from_rows(changed), PolyMatrix.from_rows(zero_row),
                        x.scale(3), PolyMatrix.identity(size + 1)):
                assert unit_by_inverse(cof.e, bad) is None
                assert verdict_key(verify_linearization(pen, p, dataclasses.replace(cof, e_inv=bad))) \
                    == want
            checked += 1
        assert checked >= 6

    def test_singular_corner_factor_carries_no_witness(self):
        rng = random.Random(98)
        p = rand_matrix_polynomial(rng, rand_basis(rng, "recurrence", 3), 2)
        pen, ha, _ = triangular_certificate(p)
        cof = assemble_cofactors(dataclasses.replace(ha, corner_factor=ConstMatrix.zeros(2, 2)), pen)
        assert cof.e_inv is None
        assert not verify_linearization(pen, p, cof).ok

    def test_one_determinant_per_triangular_certificate(self, monkeypatch):
        """Only F goes through is_unimodular on a triangular route, so the
        fast path for E cannot quietly disappear; the monomial route keeps
        both determinants."""
        calls = []

        def counted(m):
            calls.append(m)
            return is_unimodular(m)

        monkeypatch.setattr(verify, "is_unimodular", counted)
        rng = random.Random(97)
        checked = 0
        for kind in ("recurrence", "bernstein", "lagrange") * 3:
            p = rand_matrix_polynomial(rng, rand_basis(rng, kind, 3), 2)
            made = triangular_certificate(p)
            if made is None:
                continue
            pen, _, cof = made
            calls.clear()
            assert verify_linearization(pen, p, cof).ok
            assert calls == [cof.f]
            checked += 1
        assert checked >= 6
        p = rand_matrix_polynomial(rng, Monomial(3), 2)
        cof = monomial_cofactors(p)
        assert cof.e_inv is None
        calls.clear()
        assert verify_linearization(build_monomial_pencil(p), p, cof).ok
        assert calls == [cof.e, cof.f]


class TestStrict:
    def test_positive_and_negative(self):
        rng = random.Random(84)
        p = rand_matrix_polynomial(rng, Bernstein(3), 1)
        se = bernstein_strict_equivalence(p)
        source = build_bernstein_pencil(p)
        assert verify_strict(se, source, p).ok
        bad = StrictEquivalence(ConstMatrix.zeros(3, 3), se.w)
        assert not verify_strict(bad, source, p).ok
        bad2 = StrictEquivalence(perturb_entry(se.u), se.w)
        assert not verify_strict(bad2, source, p).ok

    @pytest.mark.parametrize("change", [same_lcm, new_denominator])
    def test_one_entry_of_u_changed(self, change):
        # the identities compare row forms: a changed numerator over the
        # same lcm and a changed denominator are both refused
        rng = random.Random(93)
        for p in (rand_matrix_polynomial(rng, Bernstein(3), 2),
                  rand_matrix_polynomial(rng, Lagrange(3, rand_nodes(rng, 4)), 2)):
            se = (bernstein_strict_equivalence(p) if isinstance(p.basis, Bernstein)
                  else lagrange_strict_equivalence(p))
            source = build_pencil(p)
            assert verify_strict(se, source, p).ok
            refused_by_identity = 0
            for i in range(se.u.rows):
                bad = StrictEquivalence(perturb_in_row_form(se.u, i, change), se.w)
                verdict = verify_strict(bad, source, p)
                assert not verdict.ok
                if bad.u.det() == 0:
                    assert verdict.counterexample["reason"] == "transform singular"
                    continue
                assert verdict.counterexample["reason"] in (
                    "z-coefficient identity failed", "constant-coefficient identity failed")
                refused_by_identity += 1
            assert refused_by_identity >= se.u.rows // 2


class TestStrong:
    def test_monomial_random_scalar(self):
        rng = random.Random(85)
        p = MatrixPolynomial.scalar(Monomial(3),
                                    [rand_fraction(rng) for _ in range(4)])
        assert verify_strong(build_monomial_pencil(p), p).ok

    def test_lagrange_with_infinite_eigenvalue(self):
        # leading monomial coefficient zero: degree drops below the grade
        rng = random.Random(86)
        nodes = rand_nodes(rng, 4)
        mono = MatrixPolynomial.scalar(Monomial(2),
                                       [rand_fraction(rng) for _ in range(3)])
        from polylin import from_monomial

        p = from_monomial(from_monomial(mono, Monomial(3)), Lagrange(3, nodes))
        assert verify_strong(build_lagrange_pencil(p), p).ok

    def test_corrupted_falsified(self):
        p = MatrixPolynomial.scalar(Monomial(3), [1, 2, 3, 4])
        pen = build_monomial_pencil(p)
        bad = Pencil(pen.c1, perturb_entry(pen.c0, 0, 2, F(1, 3)), pen.n,
                     pen.block_count, pen.basis_tag)
        assert not verify_strong(bad, p).ok

    def test_bernstein_adapted_reversal(self):
        rng = random.Random(87)
        p = rand_matrix_polynomial(rng, Bernstein(3), 1)
        assert verify_bernstein_reversal_pencil(p).ok


class TestSmithEquivalence:
    def test_lagrange_with_zero_value(self):
        rng = random.Random(88)
        nodes = rand_nodes(rng, 3)
        values = [rand_fraction(rng, nonzero=True) for _ in range(3)]
        values[1] = F(0)
        p = MatrixPolynomial.scalar(Lagrange(2, nodes), values)
        assert smith_equivalence_check(build_lagrange_pencil(p), p).ok

    def test_nonregular(self):
        rng = random.Random(89)
        nodes = rand_nodes(rng, 3)
        vals = []
        for _ in range(3):
            row = [rand_fraction(rng), rand_fraction(rng)]
            vals.append(ConstMatrix.from_rows([row, row]))
        p = MatrixPolynomial(2, Lagrange(2, nodes), tuple(vals))
        assert smith_equivalence_check(build_lagrange_pencil(p), p).ok

    def test_random_regular(self):
        rng = random.Random(90)
        p = rand_matrix_polynomial(rng, Monomial(3), 2)
        assert smith_equivalence_check(build_monomial_pencil(p), p).ok

    def test_corrupted_falsified(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        pen = build_monomial_pencil(p)
        bad = Pencil(pen.c1, perturb_entry(pen.c0, 1, 1, F(5)), pen.n,
                     pen.block_count, pen.basis_tag)
        assert not smith_equivalence_check(bad, p).ok


def jordan_control():
    """P = diag(z-1, z-1) and the pencil L = z I - [[1, -1], [0, 1]] =
    [[z-1, 1], [0, z-1]]: det L = det P, but smith(L) = diag(1, (z-1)^2)."""
    p = MatrixPolynomial(2, Monomial(1), (ConstMatrix.from_rows([[-1, 0], [0, -1]]),
                                          ConstMatrix.identity(2)))
    pen = Pencil(ConstMatrix.identity(2), ConstMatrix.from_rows([[1, -1], [0, 1]]),
                 2, 1, "jordan")
    return pen, p


def bound_coefficient_bits(monkeypatch) -> list:
    """Make every sub_mul result and every H of hermite_form in verify
    fail past 1024-bit coefficients; returns the list of those H."""
    def bounded(e):
        assert all(max(c.numerator.bit_length(), c.denominator.bit_length()) <= 1024
                   for c in e.coeffs)
        return e

    sub_mul, hermite_form = verify.sub_mul, verify.hermite_form
    forms = []

    def bounded_hermite_form(m):
        res = hermite_form(m)
        forms.append([bounded(e) for e in res.h.entries])
        return res

    monkeypatch.setattr(verify, "sub_mul", lambda x, q, y: bounded(sub_mul(x, q, y)))
    monkeypatch.setattr(verify, "hermite_form", bounded_hermite_form)
    return forms


class TestSmithChecksFromDeterminants:
    """The determinant ratio and the elimination modulo gcd(d, d') that
    replaced two smith_form calls per check."""

    def test_jordan_negative_control(self):
        pen, p = jordan_control()
        companion = verify_companion(pen, p)
        assert companion.ok and companion.constant == 1
        for check in (smith_equivalence_check, verify_strong):
            verdict = check(pen, p)
            assert not verdict.ok
            assert verdict.counterexample["step"] == "invariant factors"
        assert smith_equivalence_check(pen, p).counterexample == {
            "step": "invariant factors", "index": 0, "pencil": "1", "polynomial": "z - 1"}

    def test_ratio_refusal_is_structured(self):
        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        pen = build_monomial_pencil(p)
        bad = Pencil(pen.c1, perturb_entry(pen.c0, 1, 1, F(5)), pen.n,
                     pen.block_count, pen.basis_tag)
        for check in (smith_equivalence_check, verify_strong):
            cex = check(bad, p).counterexample
            assert cex["step"] == "determinant ratio"
            assert cex["reason"] == "determinant ratio not constant"
        # a singular pencil for a regular P: exactly one determinant is zero
        ones = ConstMatrix.from_rows([[1, 1], [1, 1]])
        cex = smith_equivalence_check(Pencil(ones, ones, 1, 2, "singular"), p).counterexample
        assert cex == {"step": "determinant ratio", "reason": "exactly one determinant is zero",
                       "det_l": "0", "det_p": "z^2 - 3*z + 2"}

    def test_singular_negative_control(self):
        # det P = det L = 0 with smith(P) = diag(z, 0) but smith(L) = diag(z+1, 0)
        ones = ConstMatrix.from_rows([[1, 1], [1, 1]])
        p = MatrixPolynomial(2, Monomial(1), (ConstMatrix.zeros(2, 2), ones))
        q = MatrixPolynomial(2, Monomial(1), (ones, ones))
        assert smith_equivalence_check(build_monomial_pencil(p), p).ok
        verdict = smith_equivalence_check(build_monomial_pencil(q), p)
        assert verdict.counterexample == {
            "step": "invariant factors", "index": 0, "pencil": "z + 1", "polynomial": "z"}

    def test_repeated_factor_passes(self):
        # P(z) = (z - 1)^2 I: det P = (z - 1)^4, so the elimination runs
        p = MatrixPolynomial(2, Monomial(2), (ConstMatrix.identity(2),
                                              ConstMatrix.identity(2).scale(-2),
                                              ConstMatrix.identity(2)))
        for check in (smith_equivalence_check, verify_strong):
            assert check(build_monomial_pencil(p), p).ok

    def test_lagrange_reversal_in_bounded_time(self, monkeypatch):
        # the reversal at grade L+2 of a Lagrange pencil carries a z^(2n)
        # factor, so it is never squarefree; n=3, L=6 ran over 60 s through
        # smith_form.  Coefficients reach 379 bits here, in the Hermite
        # forms that finish the elimination; reducing modulo d' rather than
        # g = gcd(d, d') passes 4096 bits within a fraction of a second, and
        # takes minutes to finish
        forms = bound_coefficient_bits(monkeypatch)
        rng = random.Random(93)
        p = rand_matrix_polynomial(rng, rand_basis(rng, "lagrange", 6), 3)
        pen = build_lagrange_pencil(p)
        start = time.perf_counter()
        assert verify_strong(pen, p).ok
        assert smith_equivalence_check(pen, p).ok
        assert time.perf_counter() - start < 5  # about 0.2 s on a 2-vCPU x86-64 host
        assert forms

    def test_singular_bernstein_in_bounded_time(self, monkeypatch):
        # a 16x16 Bernstein pencil (n=4, L=4) whose coefficients all have
        # row 3 = row 0 + row 1: det = 0, so no modulus bounds the
        # elimination.  The Euclidean fallback took 13.7 s here; the
        # alternating Hermite forms reach 259 bits
        forms = bound_coefficient_bits(monkeypatch)
        rng = random.Random(1)
        blocks = []
        for _ in range(5):
            rows = rand_const_matrix(rng, 4).to_rows()
            rows[3] = [x + y for x, y in zip(rows[0], rows[1])]
            blocks.append(ConstMatrix.from_rows(rows))
        p = MatrixPolynomial(4, Bernstein(4), tuple(blocks))
        pen = build_bernstein_pencil(p)
        start = time.perf_counter()
        assert verify_strong(pen, p).ok
        assert smith_equivalence_check(pen, p).ok
        assert time.perf_counter() - start < 5  # about 0.6 s on a 2-vCPU x86-64 host
        assert forms

    def test_catalog_verdicts_match_the_bench_reference(self):
        # bench/reference.json holds the sha256 prefix of every verdict
        # string "check ok constant" of the normal-forms catalog, recorded
        # when the checks ran through smith_form
        sys.path.insert(0, str(BENCH))
        try:
            from workloads import VARIANTS, WORKLOADS, instance, ops_of
        finally:
            sys.path.remove(str(BENCH))
        reference = json.loads((BENCH / "reference.json").read_text())["normal-forms"]
        slots = WORKLOADS["normal-forms"]
        checked = 0
        for k, op in enumerate(ops_of(slots)):
            if op.kind != "verify":
                continue
            check = globals()[op.arg]
            for v in range(VARIANTS):
                obj = json.loads(json.dumps(instance("normal-forms", op.slot, slots[op.slot], v)))
                p = serialize.parse_matrix_polynomial(obj)
                if op.arg == "verify_bernstein_reversal_pencil":
                    verdict = check(p)
                else:
                    verdict = check(build_pencil(p), p)
                text = f"{verdict.check} {verdict.ok} {verdict.constant}"
                assert hashlib.sha256(text.encode()).hexdigest()[:16] == reference[k][v], \
                    (op.label, op.slot, v)
                checked += 1
        assert checked == 456


class TestDeterminantRelationUnderStrictEquivalence:
    def test_bernstein_and_lagrange(self):
        from polylin.equivalence import (
            lagrange_monomial_target,
            lagrange_strict_equivalence,
        )
        from polylin.exact import polymatrix_det

        rng = random.Random(91)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        se = bernstein_strict_equivalence(p)
        source = build_bernstein_pencil(p)
        target = build_monomial_pencil(to_monomial(p))
        lhs = polymatrix_det(source.as_polymatrix()).scale(se.u.det() * se.w.det())
        assert lhs == polymatrix_det(target.as_polymatrix())

        nodes = rand_nodes(rng, 4)
        q = rand_matrix_polynomial(rng, Lagrange(3, nodes), 2)
        se2 = lagrange_strict_equivalence(q)
        src2 = build_lagrange_pencil(q)
        tgt2 = build_monomial_pencil(lagrange_monomial_target(q))
        lhs2 = polymatrix_det(src2.as_polymatrix()).scale(se2.u.det() * se2.w.det())
        assert lhs2 == polymatrix_det(tgt2.as_polymatrix())


class TestRemainingNegativeControls:
    def test_hermite_analogue_perturbed(self):
        from polylin import Recurrence
        from polylin.equivalence import HermiteAnalogue, recurrence_hermite_analogue
        from polylin.pencils import build_recurrence_pencil
        from conftest import verify_hermite_analogue

        p = MatrixPolynomial.scalar(Recurrence.chebyshev(3), [1, 2, 3, 4])
        pen = build_recurrence_pencil(p)
        ha = recurrence_hermite_analogue(p, pen)
        rows = ha.uinv.to_rows()
        rows[1][0] = rows[1][0] + PolyQ([1])
        bad = HermiteAnalogue(PolyMatrix.from_rows(rows), ha.h, ha.corner_factor)
        assert not verify_hermite_analogue(bad, pen).ok

    def test_reversal_equivalence_perturbed(self):
        from polylin.equivalence import (
            ReversalEquivalence,
            bernstein_reversal_equivalence,
        )
        from polylin.verify import verify_reversal_equivalence

        rng = random.Random(92)
        y = [ConstMatrix(1, 1, [rand_fraction(rng)]) for _ in range(4)]
        p = MatrixPolynomial(1, Bernstein(3), tuple(y))
        re = bernstein_reversal_equivalence(y)
        bad = ReversalEquivalence(perturb_entry(re.u), re.winv)
        assert not verify_reversal_equivalence(bad, p).ok

    @pytest.mark.parametrize("change", [same_lcm, new_denominator])
    def test_one_entry_of_winv_changed(self, change):
        from polylin.equivalence import (
            ReversalEquivalence,
            bernstein_reversal_equivalence,
        )
        from polylin.verify import verify_reversal_equivalence

        rng = random.Random(94)
        p = rand_matrix_polynomial(rng, Bernstein(3), 2)
        re = bernstein_reversal_equivalence(list(p.coeffs))
        assert verify_reversal_equivalence(re, p).ok
        for i in range(re.winv.rows):
            bad = ReversalEquivalence(re.u, perturb_in_row_form(re.winv, i, change))
            verdict = verify_reversal_equivalence(bad, p)
            assert not verdict.ok
            assert verdict.counterexample["reason"] in ("first identity failed",
                                                        "second identity failed")


def test_verify_imports_only_certificate_types_from_equivalence():
    """The verifiers share no formula with the constructors they check."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("equivalence"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("equivalence" in alias.name for alias in node.names)
    assert imported == {"CofactorPair", "ReversalEquivalence", "StrictEquivalence"}


class TestTracerHooks:
    """bench/tracer.py patches every layer it times by name; a renamed or
    moved function or method would break per-layer tracing, which only a
    traced bench run exercises."""

    def test_install_patches_and_uninstall_restores(self):
        import polylin.cli  # noqa: F401  (imports every traced module)
        from polylin import exact

        sys.path.insert(0, str(BENCH))
        try:
            from tracer import GROUPS, Tracer
        finally:
            sys.path.remove(str(BENCH))
        owners = {k: m for k, m in sys.modules.items()
                  if m is not None and (k == "polylin" or k.startswith("polylin."))}
        owners["ConstMatrix"] = exact.ConstMatrix
        owners["PolyMatrix"] = exact.PolyMatrix
        before = {k: dict(vars(owner)) for k, owner in owners.items()}
        for _name, _mod, members in GROUPS:
            for member in members:
                owner_name, _, attr = member.rpartition(".")
                if owner_name:
                    # defined on the class itself, so uninstall leaves no copy behind
                    assert attr in before[owner_name], member
        tracer = Tracer()
        try:
            tracer.install()
            assert exact.ConstMatrix.__matmul__ is not before["ConstMatrix"]["__matmul__"]
            assert exact.PolyMatrix.evaluate is not before["PolyMatrix"]["evaluate"]
            # bound by name in another layer, so patched there too
            assert verify.is_unimodular is not before["polylin.verify"]["is_unimodular"]
        finally:
            tracer.uninstall()
        for k, owner in owners.items():
            now = vars(owner)
            assert now.keys() == before[k].keys(), k
            for key, value in before[k].items():
                assert now[key] is value, (k, key)
