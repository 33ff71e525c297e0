"""Independent verification of pencils, cofactors, and equivalences.

Each verifier recomputes what it needs from the pencil's constant pair and
the coefficient list; none of them reuses the formulas in `equivalence`,
so a bug there cannot silently confirm itself here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    ConstMatrix,
    PolyMatrix,
    PolyQ,
    is_unimodular,
    polymatrix_det,
    polymatrix_mul,
)
from .bases import (
    Bernstein,
    MatrixPolynomial,
    Monomial,
    matrix_poly_as_polymatrix,
    to_monomial,
)
from .equivalence import (
    CofactorPair,
    HermiteAnalogue,
    ReversalEquivalence,
    StrictEquivalence,
    bernstein_reversal_coeffs,
)
from .normalforms import smith_form
from .pencils import Pencil, build_bernstein_pencil


@dataclass
class Verdict:
    """Outcome of one check.  `factor_dets` holds the determinants of the
    certificate's two factors, in certificate order, when the check
    computed them (linearization, strict and reversal checks that pass)."""

    check: str
    ok: bool
    constant: Fraction | None = None
    counterexample: dict | None = field(default=None)
    factor_dets: tuple[Fraction, Fraction] | None = None

    def __bool__(self):  # convenient in tests
        return self.ok


def _falsified(check: str, **details) -> Verdict:
    return Verdict(check, False, None, details or None)


def diag_with_identity(p_mat: PolyMatrix, blocks: int) -> PolyMatrix:
    """diag(P(z), I, ..., I) with `blocks` total block rows of size n."""
    n = p_mat.rows
    out = PolyMatrix.identity(blocks * n).to_rows()
    for i in range(n):
        for j in range(n):
            out[i][j] = p_mat.get(i, j)
    return PolyMatrix.from_rows(out)


def verify_companion(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """det L(z) must equal a nonzero constant times det P(z)."""
    det_l = polymatrix_det(pencil.as_polymatrix())
    det_p = polymatrix_det(matrix_poly_as_polymatrix(p))
    if det_p.is_zero or det_l.is_zero:
        if det_p.is_zero and det_l.is_zero:
            return Verdict("companion", True, None)
        return _falsified("companion", reason="exactly one determinant is zero",
                          det_l=str(det_l), det_p=str(det_p))
    quot, rem = divmod(det_l, det_p)
    if not rem.is_zero or quot.degree != 0:
        return _falsified("companion", reason="determinant ratio not constant",
                          det_l=str(det_l), det_p=str(det_p))
    return Verdict("companion", True, quot.coeff(0))


def verify_linearization(pencil: Pencil, p: MatrixPolynomial,
                         cof: CofactorPair) -> Verdict:
    """E @ L @ F must equal diag(P, I, ..., I) with E, F unimodular."""
    n = pencil.n
    target = diag_with_identity(matrix_poly_as_polymatrix(p), pencil.block_count)
    product = polymatrix_mul(polymatrix_mul(cof.e, pencil.as_polymatrix()), cof.f)
    if product != target:
        for bi in range(pencil.block_count):
            for bj in range(pencil.block_count):
                for r in range(n):
                    for c in range(n):
                        if product.get(bi * n + r, bj * n + c) != target.get(bi * n + r, bj * n + c):
                            return _falsified("linearization",
                                              first_differing_block=(bi, bj))
    ok_e, unit_e = is_unimodular(cof.e)
    if not ok_e:
        return _falsified("linearization", reason="E not unimodular")
    ok_f, unit_f = is_unimodular(cof.f)
    if not ok_f:
        return _falsified("linearization", reason="F not unimodular")
    return Verdict("linearization", True, unit_e * unit_f,
                   factor_dets=(unit_e, unit_f))


def verify_strict(se: StrictEquivalence, source: Pencil, target: Pencil) -> Verdict:
    """U @ C1 @ W = C1' and U @ C0 @ W = C0' with U, W nonsingular."""
    du = se.u.det()
    dw = se.w.det()
    if du == 0 or dw == 0:
        return _falsified("strict", reason="transform singular")
    if se.u @ source.c1 @ se.w != target.c1:
        return _falsified("strict", reason="z-coefficient identity failed")
    if se.u @ source.c0 @ se.w != target.c0:
        return _falsified("strict", reason="constant-coefficient identity failed")
    return Verdict("strict", True, du * dw, factor_dets=(du, dw))


def verify_hermite_analogue(ha: HermiteAnalogue, pencil: Pencil) -> Verdict:
    """Uinv @ H = L, Uinv unimodular, H = identity off the designated column."""
    n = pencil.n
    m = pencil.block_count
    if polymatrix_mul(ha.uinv, ha.h) != pencil.as_polymatrix():
        return _falsified("hermite-analogue", reason="Uinv @ H != L")
    ok, unit = is_unimodular(ha.uinv)
    if not ok:
        return _falsified("hermite-analogue", reason="Uinv not unimodular")
    ident = PolyMatrix.identity(m * n)
    for i in range(m * n):
        for j in range(m * n):
            if ha.corner_index * n <= j < (ha.corner_index + 1) * n:
                continue
            if ha.h.get(i, j) != ident.get(i, j):
                return _falsified("hermite-analogue",
                                  reason="H differs from identity off-column")
    return Verdict("hermite-analogue", True, unit)


def _padded_monomial_reversal(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """z^grade * P(1/z) in monomial coefficients (reversal at the stated grade)."""
    mono = to_monomial(p)
    blocks = list(mono.coeffs) + [ConstMatrix.zeros(p.n, p.n)] * (grade - p.grade)
    return MatrixPolynomial(p.n, Monomial(grade), tuple(reversed(blocks)))


def _smith_matches_diag(big: PolyMatrix, small: PolyMatrix, pad: int) -> bool:
    """smith(big) == diag(smith(small), I, ..., I) up to ordering."""
    big_factors = list(smith_form(big).invariant_factors)
    small_factors = list(smith_form(small).invariant_factors)
    expected = [PolyQ((1,))] * pad + small_factors
    return big_factors == expected


def verify_strong(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """The reversed pencil z*C0 - C1 must linearize the reversal of P.

    The reversal grade is the pencil's block count (the grade the pencil
    represents P at), and the check compares Smith forms.
    """
    rev_pencil = pencil.reversed_pencil()
    rev_p = _padded_monomial_reversal(p, pencil.block_count)
    big = rev_pencil.as_polymatrix()
    small = matrix_poly_as_polymatrix(rev_p)
    pad = (pencil.block_count - 1) * pencil.n
    if not _smith_matches_diag(big, small, pad):
        return _falsified("strong", reason="Smith forms of reversal disagree")
    return Verdict("strong", True)


def smith_equivalence_check(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """smith(L) must equal diag(smith(P), I, ..., I) after sorting.

    Works for singular values and nonregular P.
    """
    big = pencil.as_polymatrix()
    small = matrix_poly_as_polymatrix(p)
    pad = (pencil.block_count - 1) * pencil.n
    if not _smith_matches_diag(big, small, pad):
        return _falsified("smith-equivalence", reason="invariant factors disagree")
    return Verdict("smith-equivalence", True)


def verify_reversal_equivalence(re: ReversalEquivalence, p: MatrixPolynomial) -> Verdict:
    """Recompute both defining identities of the Bernstein reversal map."""
    if not isinstance(p.basis, Bernstein):
        return _falsified("reversal", reason="not a Bernstein polynomial")
    L = p.grade
    n = p.n
    d = bernstein_reversal_coeffs(list(p.coeffs), L)
    pen_y = build_bernstein_pencil(p)
    pen_d = build_bernstein_pencil(MatrixPolynomial(n, Bernstein(L), tuple(d)))
    a_mat, b_mat = pen_y.c0, pen_y.c1
    if re.u @ pen_d.c0 != (b_mat - a_mat) @ re.winv:
        return _falsified("reversal", reason="first identity failed")
    if re.u @ pen_d.c1 != a_mat @ re.winv:
        return _falsified("reversal", reason="second identity failed")
    du, dw = re.u.det(), re.winv.det()
    if du not in (1, -1) or dw not in (1, -1):
        return _falsified("reversal", reason="determinant not a unit")
    return Verdict("reversal", True, du * dw, factor_dets=(du, dw))


def verify_bernstein_reversal_pencil(p: MatrixPolynomial) -> Verdict:
    """The pencil pair (A, B-A) must linearize the Bernstein-adapted
    reversal (z+1)^L P(1/(z+1)) whose coefficients are the d_k."""
    if not isinstance(p.basis, Bernstein):
        return _falsified("bernstein-reversal-pencil", reason="not Bernstein")
    L = p.grade
    n = p.n
    pen = build_bernstein_pencil(p)
    a_mat, b_mat = pen.c0, pen.c1
    rev = Pencil(a_mat, b_mat - a_mat, n, pen.block_count, "bernstein-new-reversal")
    d = bernstein_reversal_coeffs(list(p.coeffs), L)
    rev_p = MatrixPolynomial(n, Bernstein(L), tuple(d))
    verdict = verify_companion(rev, rev_p)
    if not verdict.ok:
        return _falsified("bernstein-reversal-pencil", reason="determinant ratio failed")
    big = rev.as_polymatrix()
    small = matrix_poly_as_polymatrix(rev_p)
    if not _smith_matches_diag(big, small, (pen.block_count - 1) * n):
        return _falsified("bernstein-reversal-pencil", reason="Smith forms disagree")
    return Verdict("bernstein-reversal-pencil", True, verdict.constant)
