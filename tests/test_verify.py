"""The verification engine, including negative controls."""

import ast
import hashlib
import json
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

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
    StrictEquivalence,
    bernstein_strict_equivalence,
    monomial_cofactors,
)
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
from polylin.randgen import rand_basis, rand_fraction, rand_matrix_polynomial, rand_nodes

BENCH = Path(__file__).resolve().parent.parent / "bench"


def perturb_entry(m: ConstMatrix, i=0, j=0, delta=1) -> ConstMatrix:
    entries = list(m.entries)
    entries[i * m.cols + j] += delta
    return ConstMatrix(m.rows, m.cols, entries)


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
        # smith_form.  The elimination's coefficients reach 729 bits here;
        # reducing modulo d' rather than g = gcd(d, d') passes 4096 bits
        # within a fraction of a second, and takes minutes to finish
        sub_mul = verify.sub_mul

        def bounded_sub_mul(x, q, y):
            out = sub_mul(x, q, y)
            assert all(max(c.numerator.bit_length(), c.denominator.bit_length()) <= 1024
                       for c in out.coeffs)
            return out

        monkeypatch.setattr(verify, "sub_mul", bounded_sub_mul)
        rng = random.Random(93)
        p = rand_matrix_polynomial(rng, rand_basis(rng, "lagrange", 6), 3)
        pen = build_lagrange_pencil(p)
        start = time.perf_counter()
        assert verify_strong(pen, p).ok
        assert smith_equivalence_check(pen, p).ok
        assert time.perf_counter() - start < 5  # about 0.25 s on a 2-vCPU x86-64 host

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
        from polylin.verify import verify_hermite_analogue

        p = MatrixPolynomial.scalar(Recurrence.chebyshev(3), [1, 2, 3, 4])
        pen = build_recurrence_pencil(p)
        ha = recurrence_hermite_analogue(p, pen)
        rows = ha.uinv.to_rows()
        rows[1][0] = rows[1][0] + PolyQ([1])
        bad = HermiteAnalogue(PolyMatrix.from_rows(rows), ha.h,
                              ha.corner_index, ha.corner_factor)
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


def test_verify_imports_only_certificate_types_from_equivalence():
    """The verifiers share no formula with the constructors they check."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("equivalence"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("equivalence" in alias.name for alias in node.names)
    assert imported == {"CofactorPair", "HermiteAnalogue", "ReversalEquivalence",
                        "StrictEquivalence"}


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
