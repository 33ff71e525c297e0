"""Independent verification of pencils, cofactors, and equivalences.

Each verifier recomputes what it needs from the pencil's constant pair and
the coefficient list; none of them reuses the formulas in `equivalence`,
so a bug there cannot silently confirm itself here.  The constructors in
`equivalence` check nothing themselves: these verifiers are the only place
a certificate is checked.  A claimed inverse that a certificate carries
(`CofactorPair.e_inv`) is checked here like the rest of it, and only
saves a determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    ConstMatrix,
    PolyMatrix,
    is_unimodular,
    polymatrix_det,
    polymatrix_mul,
    unit_by_inverse,
)
from .poly import POLY_ONE, PolyQ, poly_gcd, sub_mul
from .bases import (
    BasisSpec,
    Bernstein,
    MatrixPolynomial,
    Monomial,
    _phi_inverse,
    _phi_matrix,
    from_monomial,
    matrix_poly_as_polymatrix,
    to_monomial,
    transform_blocks,
)
from .equivalence import (
    CofactorPair,
    HermiteAnalogue,
    ReversalEquivalence,
    StrictEquivalence,
)
from .normalforms import _transposed, hermite_form
from .pencils import Pencil, build_bernstein_pencil, build_monomial_pencil


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
    eye = PolyMatrix.identity(p_mat.rows)
    grid = [[eye if i == j else None for j in range(blocks)] for i in range(blocks)]
    grid[0][0] = p_mat
    return PolyMatrix.from_blocks(grid, p_mat.rows)


def _ratio_refusal(det_l: PolyQ, det_p: PolyQ) -> dict | None:
    """Why det_l is not a nonzero constant times det_p, or None when it is
    (or when both are zero)."""
    if det_l.is_zero != det_p.is_zero:
        reason = "exactly one determinant is zero"
    elif det_p.is_zero:
        return None
    else:
        quot, rem = divmod(det_l, det_p)
        if rem.is_zero and quot.degree == 0:
            return None
        reason = "determinant ratio not constant"
    return {"reason": reason, "det_l": str(det_l), "det_p": str(det_p)}


def _ratio(det_l: PolyQ, det_p: PolyQ) -> Fraction | None:
    """det_l / det_p when `_ratio_refusal` passed; None when both are zero."""
    return det_l.lead / det_p.lead if det_p.ints else None


def verify_companion(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """det L(z) must equal a nonzero constant times det P(z)."""
    det_l = polymatrix_det(pencil.as_polymatrix())
    det_p = polymatrix_det(matrix_poly_as_polymatrix(p))
    refusal = _ratio_refusal(det_l, det_p)
    if refusal:
        return _falsified("companion", **refusal)
    return Verdict("companion", True, _ratio(det_l, det_p))


def verify_linearization(pencil: Pencil, p: MatrixPolynomial,
                         cof: CofactorPair) -> Verdict:
    """E @ L @ F must equal diag(P, I, ..., I) with E, F unimodular.

    E is proved unimodular by `unit_by_inverse` when the pair carries a
    claimed inverse that passes it, and by `is_unimodular` otherwise; F
    always by `is_unimodular`.  A wrong inverse only costs the determinant,
    so the verdict does not depend on it."""
    n = pencil.n
    target = diag_with_identity(matrix_poly_as_polymatrix(p), pencil.block_count)
    product = polymatrix_mul(polymatrix_mul(cof.e, pencil.as_polymatrix()), cof.f)
    if product != target:
        for bi in range(pencil.block_count):
            for bj in range(pencil.block_count):
                if product.block(bi, bj, n) != target.block(bi, bj, n):
                    return _falsified("linearization", first_differing_block=(bi, bj))
    unit_e = None if cof.e_inv is None else unit_by_inverse(cof.e, cof.e_inv)
    if unit_e is None:
        ok_e, unit_e = is_unimodular(cof.e)
        if not ok_e:
            return _falsified("linearization", reason="E not unimodular")
    ok_f, unit_f = is_unimodular(cof.f)
    if not ok_f:
        return _falsified("linearization", reason="F not unimodular")
    return Verdict("linearization", True, unit_e * unit_f,
                   factor_dets=(unit_e, unit_f))


def verify_strict(se: StrictEquivalence, pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """U @ C1 @ W = C1' and U @ C0 @ W = C0' with U, W nonsingular, where
    (C1, C0) is `pencil` and (C1', C0') the monomial pencil of P at the
    pencil's grade (its block count)."""
    target = build_monomial_pencil(_padded_monomial(p, pencil.block_count))
    du = se.u.det()
    dw = se.w.det()
    if du == 0 or dw == 0:
        return _falsified("strict", reason="transform singular")
    if se.u @ pencil.c1 @ se.w != target.c1:
        return _falsified("strict", reason="z-coefficient identity failed")
    if se.u @ pencil.c0 @ se.w != target.c0:
        return _falsified("strict", reason="constant-coefficient identity failed")
    return Verdict("strict", True, du * dw, factor_dets=(du, dw))


def verify_hermite_analogue(ha: HermiteAnalogue, pencil: Pencil) -> Verdict:
    """Uinv @ H = L, Uinv unimodular, H = identity off its last block column."""
    n = pencil.n
    m = pencil.block_count
    if polymatrix_mul(ha.uinv, ha.h) != pencil.as_polymatrix():
        return _falsified("hermite-analogue", reason="Uinv @ H != L")
    ok, unit = is_unimodular(ha.uinv)
    if not ok:
        return _falsified("hermite-analogue", reason="Uinv not unimodular")
    ident = PolyMatrix.identity(m * n)
    for i in range(m * n):
        for j in range((m - 1) * n):
            if ha.h.get(i, j) != ident.get(i, j):
                return _falsified("hermite-analogue",
                                  reason="H differs from identity off-column")
    return Verdict("hermite-analogue", True, unit)


def _padded_monomial(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """P in monomial coefficients at the stated grade (zero blocks on top)."""
    return from_monomial(to_monomial(p), Monomial(grade))


def _padded_monomial_reversal(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """z^grade * P(1/z) in monomial coefficients (reversal at the stated grade)."""
    return MatrixPolynomial(p.n, Monomial(grade), _padded_monomial(p, grade).coeffs[::-1])


def _shifted_reversal(p: MatrixPolynomial, basis: BasisSpec | None = None) -> MatrixPolynomial:
    """(z+1)^L P(1/(z+1)) = sum_j A_j (z+1)^(L-j), from the monomial
    coefficients A_j = (Phi Y)_j of P at its grade L: one transform of P's
    blocks Y, by T Phi into monomial coefficients, or by Phi^-1 T Phi into
    `basis` (of grade L), the scalar product formed first."""
    L = p.grade
    t = ConstMatrix.from_rows(
        [[math.comb(L - j, i) for j in range(L + 1)] for i in range(L + 1)]) @ _phi_matrix(p.basis)
    if basis is None:
        return MatrixPolynomial(p.n, Monomial(L), transform_blocks(t, p.coeffs))
    return MatrixPolynomial(p.n, basis, transform_blocks(_phi_inverse(basis) @ t, p.coeffs))


def _low_unit_inverse(u: PolyQ, modulus: PolyQ | None) -> PolyQ | None:
    """The inverse of u modulo `modulus` when u is a nonzero constant, or
    linear and coprime to `modulus`; None otherwise.

    With r the root of u, modulus = (z - r) q + c where c = modulus(r), so
    u is a unit exactly when c != 0, and then u (-q / (lc(u) c)) = 1.
    """
    if u.degree == 0:
        return PolyQ((1 / u.lead,))
    if modulus is None or u.degree > 1:
        return None
    q, c = divmod(modulus, PolyQ((u.coeff(0) / u.lead, 1)))
    return None if c.is_zero else q.scale(-1 / (u.lead * c.lead))


def _diagonal(m: PolyMatrix, modulus: PolyQ | None) -> list[PolyQ]:
    """The diagonal a_1, ..., a_N of a matrix that row and column
    operations reach from m, without E and F, where a multiple of
    `modulus`, when given, may be added to any entry: the unit pivots,
    then the nonzero entries the alternation leaves, then zeros.

    A pivot that is a unit of degree at most 1 modulo `modulus` is taken
    first: with its inverse v, subtracting (a_it v mod `modulus`) times the
    pivot row clears each entry below it.  That is Gaussian elimination, so
    each entry stays a Schur complement of m reduced modulo `modulus`, and
    coefficients grow slowly.  When no such pivot is left, alternating
    Hermite forms (Kannan and Bachem, SIAM J. Comput. 8, 1979) finish the
    square trailing block: `hermite_form` of the block, transposed and
    reduced modulo `modulus`, until every row and column holds at most one
    nonzero entry.  The alternation ends.  After a row pass the (1, 1)
    entry is the monic gcd of the first column; a column pass replaces it
    with one of its divisors; reducing modulo `modulus` only lowers
    degrees.  So its degree falls until a pass leaves it fixed, and then
    its row and column are clear, the pass before having cleared one and
    this pass the other.  The trailing block goes the same way, and zero
    rows and columns, which a Hermite form puts last, stay zero.
    """
    def reduced(e: PolyQ) -> PolyQ:
        return e % modulus if modulus is not None else e

    a = [[reduced(e) for e in row] for row in m.to_rows()]
    n = len(a)
    pivots = []
    for t in range(n):
        inverse = None
        for _, i, j in sorted((a[i][j].degree, i, j) for i in range(t, n)
                              for j in range(t, n) if 0 <= a[i][j].degree <= 1):
            inverse = _low_unit_inverse(a[i][j], modulus)
            if inverse is not None:
                break
        if inverse is None:
            break
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        # column operations then clear row t, changing no other row
        for i in range(t + 1, n):
            if a[i][t].ints:
                q = reduced(a[i][t] * inverse)
                a[i][t:] = [reduced(sub_mul(x, q, y)) for x, y in zip(a[i][t:], a[t][t:])]
        pivots.append(a[t][t])
    rest = [row[len(pivots):] for row in a[len(pivots):]]
    while any(sum(1 for e in line if e.ints) > 1 for line in rest + _transposed(rest)):
        h = hermite_form(PolyMatrix.from_rows(rest)).h
        rest = [[reduced(e) for e in col] for col in _transposed(h.to_rows())]
    pivots += [e for row in rest for e in row if e.ints]
    return pivots + [PolyQ.zero()] * (n - len(pivots))


def _smith_of_diagonal(d: list[PolyQ]) -> list[PolyQ]:
    """The Smith form of diag(d): monic entries, each dividing the next,
    zeros last.  Each pair d_i, d_j with i < j becomes gcd, lcm, which
    moves the least power of every prime factor to the front; a constant
    entry divides everything, so its sweep is skipped."""
    s = sorted((e.monic() for e in d if e.ints), key=lambda e: e.degree)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i].degree == 0:
                break
            g = poly_gcd(s[i], s[j])
            s[i], s[j] = g, (s[i] * s[j]).exact_div(g)
    return s + [PolyQ.zero()] * (len(d) - len(s))


def smith_invariants(m: PolyMatrix, det: PolyQ) -> list[PolyQ]:
    """The monic invariant factors s_1 | s_2 | ... | s_N of a square m, zero
    factors last, as `normalforms.smith_form` lists them, but without E
    and F.  det must be det(m).

    `_diagonal` brings m to a diagonal a_1, ..., a_N by row and column
    operations, and `_smith_of_diagonal` sorts a diagonal into its Smith
    form by gcd and lcm.

    - det != 0: for i < N, s_i^2 divides det, so s_i divides
      g = gcd(det, det').  The Smith form of [m | g I] is then
      diag(gcd(s_i, g)), whose first N-1 entries are s_1 ... s_(N-1).  Row
      and column operations on m, and adding a multiple of g to an entry
      (a column operation with the g I block, which a row operation turns
      into g R and column operations within the block restore), keep that
      Smith form, so the elimination may reduce entries modulo g.  Then
      [diag(a) | g I] has the Smith form of diag(gcd(a_i, g)), whose first
      N-1 entries are s_1 ... s_(N-1), and s_N = monic det / (s_1 ...
      s_(N-1)).  A squarefree det gives g = 1, and the factors 1, ..., 1,
      monic det, with no elimination.
    - det = 0: the same elimination with no modulus, and the factors are
      the Smith form of its diagonal.
    """
    n = m.rows
    if det.is_zero:
        return _smith_of_diagonal(_diagonal(m, None))
    g = poly_gcd(det, det.derivative())
    if g.degree:
        head = _smith_of_diagonal([poly_gcd(a, g) for a in _diagonal(m, g)])[:n - 1]
    else:
        head = [g] * (n - 1)
    last = det.monic()
    for s in head:
        last = last.exact_div(s)
    return head + [last]


def _smith_refusal(big: PolyMatrix, small: PolyMatrix, det_big: PolyQ,
                   det_small: PolyQ) -> dict | None:
    """Why smith(big) differs from diag(I, smith(small)), or None when they
    agree; det_big and det_small are the two determinants.

    The determinant ratio is checked first.  The invariant factors are
    compared after it, in `smith_invariants` order; the identity block puts
    big.rows - small.rows ones first.
    """
    refusal = _ratio_refusal(det_big, det_small)
    if refusal:
        return {"step": "determinant ratio", **refusal}
    got = smith_invariants(big, det_big)
    want = [POLY_ONE] * (big.rows - small.rows) + smith_invariants(small, det_small)
    for i, (x, y) in enumerate(zip(got, want)):
        if x != y:
            return {"step": "invariant factors", "index": i,
                    "pencil": str(x), "polynomial": str(y)}
    return None


def _smith_check(check: str, big: PolyMatrix, small: PolyMatrix) -> Verdict:
    refusal = _smith_refusal(big, small, polymatrix_det(big), polymatrix_det(small))
    if refusal:
        return _falsified(check, **refusal)
    return Verdict(check, True)


def verify_strong(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """The reversed pencil z*C0 - C1 must linearize the reversal of P.

    The reversal grade is the pencil's block count (the grade the pencil
    represents P at), and the check compares Smith forms.
    """
    big = pencil.reversed_pencil().as_polymatrix()
    small = matrix_poly_as_polymatrix(_padded_monomial_reversal(p, pencil.block_count))
    return _smith_check("strong", big, small)


def smith_equivalence_check(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """smith(L) must equal diag(I, ..., I, smith(P)).

    Works for singular values and nonregular P.  Its first step is the
    determinant-ratio test of `verify_companion`, so it refuses every
    pencil that check refuses.
    """
    return _smith_check("smith-equivalence", pencil.as_polymatrix(),
                        matrix_poly_as_polymatrix(p))


def verify_reversal_equivalence(re: ReversalEquivalence, p: MatrixPolynomial) -> Verdict:
    """Recompute both defining identities of the Bernstein reversal map."""
    if not isinstance(p.basis, Bernstein):
        return _falsified("reversal", reason="not a Bernstein polynomial")
    pen_y = build_bernstein_pencil(p)
    pen_d = build_bernstein_pencil(_shifted_reversal(p, p.basis))
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
    reversal (z+1)^L P(1/(z+1))."""
    if not isinstance(p.basis, Bernstein):
        return _falsified("bernstein-reversal-pencil", reason="not Bernstein")
    pen = build_bernstein_pencil(p)
    a_mat, b_mat = pen.c0, pen.c1
    rev = Pencil(a_mat, b_mat - a_mat, pen.n, pen.block_count, "bernstein-new-reversal")
    big = rev.as_polymatrix()
    small = matrix_poly_as_polymatrix(_shifted_reversal(p))
    det_l, det_p = polymatrix_det(big), polymatrix_det(small)
    refusal = _smith_refusal(big, small, det_l, det_p)
    if refusal:
        return _falsified("bernstein-reversal-pencil", **refusal)
    return Verdict("bernstein-reversal-pencil", True, _ratio(det_l, det_p))
