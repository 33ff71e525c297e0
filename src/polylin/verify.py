"""Independent verification of pencils, cofactors, and equivalences.

Each verifier recomputes what it needs from the pencil's constant pair and
the coefficient list; none of them reuses the formulas in `equivalence`,
so a bug there cannot silently confirm itself here.  The constructors in
`equivalence` check nothing themselves: these verifiers are the only place
a certificate is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    POLY_ONE,
    ConstMatrix,
    PolyMatrix,
    PolyQ,
    is_unimodular,
    poly_gcd,
    polymatrix_det,
    polymatrix_mul,
    sub_mul,
)
from .bases import (
    Bernstein,
    MatrixPolynomial,
    Monomial,
    from_monomial,
    matrix_poly_as_polymatrix,
    to_monomial,
)
from .equivalence import (
    CofactorPair,
    HermiteAnalogue,
    ReversalEquivalence,
    StrictEquivalence,
)
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
    return det_l.lead / det_p.lead if det_p.coeffs else None


# (pencil, p, result) of the last _companion_pair call.  Pencils and
# matrix polynomials are immutable, so the same objects give the same result.
_last_pair: list = [(None, None, None)]


def _companion_pair(pencil: Pencil, p: MatrixPolynomial) -> tuple:
    """(L(z), P(z), det L(z), det P(z)) for `verify_companion` and
    `smith_equivalence_check`.  The last result is kept and returned again
    for the same two objects (not equal ones: hashing them would cost more
    than a small determinant), since sweep runs both checks on each draw."""
    last_pencil, last_p, pair = _last_pair[0]
    if pencil is not last_pencil or p is not last_p:
        big, small = pencil.as_polymatrix(), matrix_poly_as_polymatrix(p)
        pair = big, small, polymatrix_det(big), polymatrix_det(small)
        _last_pair[0] = (pencil, p, pair)
    return pair


def verify_companion(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """det L(z) must equal a nonzero constant times det P(z)."""
    _, _, det_l, det_p = _companion_pair(pencil, p)
    refusal = _ratio_refusal(det_l, det_p)
    if refusal:
        return _falsified("companion", **refusal)
    return Verdict("companion", True, _ratio(det_l, det_p))


def verify_linearization(pencil: Pencil, p: MatrixPolynomial,
                         cof: CofactorPair) -> Verdict:
    """E @ L @ F must equal diag(P, I, ..., I) with E, F unimodular."""
    n = pencil.n
    target = diag_with_identity(matrix_poly_as_polymatrix(p), pencil.block_count)
    product = polymatrix_mul(polymatrix_mul(cof.e, pencil.as_polymatrix()), cof.f)
    if product != target:
        for bi in range(pencil.block_count):
            for bj in range(pencil.block_count):
                if product.block(bi, bj, n) != target.block(bi, bj, n):
                    return _falsified("linearization", first_differing_block=(bi, bj))
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


def _padded_monomial(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """P in monomial coefficients at the stated grade (zero blocks on top)."""
    mono = to_monomial(p)
    blocks = mono.coeffs + (ConstMatrix.zeros(p.n, p.n),) * (grade - p.grade)
    return MatrixPolynomial(p.n, Monomial(grade), blocks)


def _padded_monomial_reversal(p: MatrixPolynomial, grade: int) -> MatrixPolynomial:
    """z^grade * P(1/z) in monomial coefficients (reversal at the stated grade)."""
    return MatrixPolynomial(p.n, Monomial(grade), _padded_monomial(p, grade).coeffs[::-1])


def _shifted_reversal(p: MatrixPolynomial) -> MatrixPolynomial:
    """(z+1)^L P(1/(z+1)) = sum_j A_j (z+1)^(L-j) in monomial coefficients,
    from the monomial coefficients A_j of P at its grade L."""
    L = p.grade
    a = to_monomial(p).coeffs
    blocks = []
    for i in range(L + 1):
        acc = ConstMatrix.zeros(p.n, p.n)
        for j in range(L - i + 1):
            acc = acc + a[j].scale(math.comb(L - j, i))
        blocks.append(acc)
    return MatrixPolynomial(p.n, Monomial(L), tuple(blocks))


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


def _primitive(row: list[PolyQ]) -> list[PolyQ]:
    """row times the rational that makes its coefficients coprime ints."""
    cs = [c for e in row for c in e.coeffs]
    if not cs:
        return row
    k = Fraction(math.lcm(*(c.denominator for c in cs)), math.gcd(*(c.numerator for c in cs)))
    return [e.scale(k) for e in row] if k != 1 else row


def _diagonal(m: PolyMatrix, modulus: PolyQ | None) -> list[PolyQ]:
    """The pivots a_1, a_2, ... (zeros left out) of an elimination that
    brings m to diagonal form without E and F, where a multiple of
    `modulus`, when given, may be added to any entry.

    A pivot that is a unit of degree at most 1 modulo `modulus` is taken
    first: with its inverse v, subtracting (a_it v mod `modulus`) times the
    pivot row clears each entry below it.  That is Gaussian elimination, so
    each entry stays a Schur complement of m reduced modulo `modulus`, and
    coefficients grow slowly.  Otherwise the pivot is a least-degree entry,
    which row and column division clear around it, with rows kept
    primitive and not reduced (remainders reduced modulo `modulus`, or
    units of higher degree with their dense inverses, make coefficients
    swell); when the pivot does not divide some later entry, that entry's
    row is added to the pivot row, and the remainder it leaves becomes a
    pivot of lower degree.  Either way a_t divides every later entry modulo
    `modulus`.
    """
    def reduced(e: PolyQ) -> PolyQ:
        return e % modulus if modulus is not None else e

    a = [[reduced(e) for e in row] for row in m.to_rows()]

    def swap_in(i: int, j: int):
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]

    n = len(a)
    pivots = []
    for t in range(n):
        cells = sorted((a[i][j].degree, i, j) for i in range(t, n) for j in range(t, n)
                       if a[i][j].coeffs)
        if not cells:
            break
        inverse = None
        for degree, i, j in cells:
            if degree > 1:
                break
            inverse = _low_unit_inverse(a[i][j], modulus)
            if inverse is not None:
                break
        if inverse is None:
            _, i, j = cells[0]
        swap_in(i, j)
        if inverse is not None:
            # column operations then clear row t, changing no other row
            for i in range(t + 1, n):
                if a[i][t].coeffs:
                    q = reduced(a[i][t] * inverse)
                    a[i][t:] = [reduced(sub_mul(x, q, y)) for x, y in zip(a[i][t:], a[t][t:])]
            pivots.append(a[t][t])
            continue
        while True:
            pivot = a[t][t]
            swapped = False
            for i in range(t + 1, n):
                if a[i][t].coeffs:
                    q = a[i][t] // pivot
                    a[i][t:] = _primitive([sub_mul(x, q, y) for x, y in zip(a[i][t:], a[t][t:])])
                    if a[i][t].coeffs:  # a remainder: a pivot of lower degree
                        a[t], a[i] = a[i], a[t]
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, n):
                if a[t][j].coeffs:  # column t is clear below the pivot
                    a[t][j] = a[t][j] % pivot
                    if a[t][j].coeffs:
                        swap_in(t, j)
                        swapped = True
                        break
            if swapped:
                continue
            if pivot.degree == 0:  # a unit divides every entry
                break
            offender = next((i for i in range(t + 1, n)
                             if any((e % pivot).coeffs for e in a[i][t + 1:])), None)
            if offender is None:
                break
            a[t][t + 1:] = a[offender][t + 1:]  # row t was zero beyond the pivot
        pivots.append(a[t][t])
    return pivots


def smith_invariants(m: PolyMatrix, det: PolyQ) -> list[PolyQ]:
    """The monic invariant factors s_1 | s_2 | ... | s_N of a square m, zero
    factors last, as `normalforms.smith_form` lists them, but without E
    and F.  det must be det(m).

    - det != 0: for i < N, s_i^2 divides det, so s_i divides
      g = gcd(det, det').  The Smith form of [m | g I] is then
      diag(gcd(s_i, g)), whose first N-1 entries are s_1 ... s_(N-1).  Row
      and column operations on m, and adding a multiple of g to an entry
      (a column operation with the g I block, which a row operation turns
      into g R and column operations within the block restore), keep that
      Smith form, so the elimination may reduce entries modulo g.  On its
      diagonal a_1, a_2, ..., gcd(a_t, g) divides every later entry and g,
      so [diag(a) | g I] has the Smith form diag(gcd(a_t, g)), and
      s_i = gcd(a_i, g) for i < N (a missing pivot counts as 0).  Then
      s_N = monic det / (s_1 ... s_(N-1)).  A squarefree det gives g = 1,
      and the factors 1, ..., 1, monic det.
    - det = 0: the same elimination with no modulus; s_i = monic a_i.
    """
    n = m.rows
    if det.is_zero:
        pivots = [a.monic() for a in _diagonal(m, None)]
        return pivots + [PolyQ.zero()] * (n - len(pivots))
    g = poly_gcd(det, det.derivative())
    # with g = 1 every entry reduces to 0, leaving no pivots
    head = [poly_gcd(a, g) for a in _diagonal(m, g)][:n - 1] if g.degree else []
    head += [g] * (n - 1 - len(head))
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


def _smith_check(check: str, big: PolyMatrix, small: PolyMatrix,
                 det_big: PolyQ, det_small: PolyQ) -> Verdict:
    refusal = _smith_refusal(big, small, det_big, det_small)
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
    return _smith_check("strong", big, small, polymatrix_det(big), polymatrix_det(small))


def smith_equivalence_check(pencil: Pencil, p: MatrixPolynomial) -> Verdict:
    """smith(L) must equal diag(I, ..., I, smith(P)).

    Works for singular values and nonregular P.
    """
    return _smith_check("smith-equivalence", *_companion_pair(pencil, p))


def verify_reversal_equivalence(re: ReversalEquivalence, p: MatrixPolynomial) -> Verdict:
    """Recompute both defining identities of the Bernstein reversal map."""
    if not isinstance(p.basis, Bernstein):
        return _falsified("reversal", reason="not a Bernstein polynomial")
    pen_y = build_bernstein_pencil(p)
    pen_d = build_bernstein_pencil(from_monomial(_shifted_reversal(p), p.basis))
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
