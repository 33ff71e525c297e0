"""Unimodular cofactors, triangular factorizations, strict equivalences,
and reversal maps for the companion pencils.

Sign conventions follow the pencil constructors in `pencils`.  The
constructors only build: no certificate is checked against its defining
identity here.  That is the job of the independent verifiers in `verify`,
which the CLI runs on every certificate it prints.  A constructor fails
only where construction cannot go on: a linear system without a
solution, or a factor to invert that is singular (or, for a polynomial
factor, not unimodular).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConjectureFailure,
    GenericityFailure,
    GradeTooSmall,
    NotUnimodular,
    SingularAtOne,
    SingularNodeValue,
    WrongBasis,
)
from .exact import (
    ConstMatrix,
    POLY_Z,
    PolyMatrix,
    PolyQ,
    polymatrix_inverse_unimodular,
    polymatrix_mul,
    solve_exact,
)
from .bases import (
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Recurrence,
    barycentric_weights,
    matrix_poly_as_polymatrix,
    recurrence_basis_polys,
    to_monomial,
    from_monomial,
)
from .pencils import (
    Pencil,
    build_bernstein_pencil,
    build_monomial_pencil,
)


@dataclass(frozen=True)
class CofactorPair:
    """Unimodular E, F with E @ L @ F = diag(P, I, ..., I)."""

    e: PolyMatrix
    f: PolyMatrix


@dataclass(frozen=True)
class HermiteAnalogue:
    """Factorization L = Uinv @ H with H equal to the identity outside one
    block column and P(z) (up to the constant left factor corner_factor)
    in the corner of that column."""

    uinv: PolyMatrix
    h: PolyMatrix
    corner_index: int
    corner_factor: ConstMatrix


@dataclass(frozen=True)
class StrictEquivalence:
    """Constant nonsingular U, W with U @ C1 @ W and U @ C0 @ W mapping one
    pencil onto another."""

    u: ConstMatrix
    w: ConstMatrix


@dataclass(frozen=True)
class ReversalEquivalence:
    """Constant U and W^{-1} relating the pencil of the reversed
    coefficients to the reversal of the original pencil."""

    u: ConstMatrix
    winv: ConstMatrix


# ---------------------------------------------------------------------------
# small block helpers


def _poly_identity_block(n: int, poly: PolyQ) -> PolyMatrix:
    return PolyMatrix(n, n, [poly if i == j else PolyQ.zero()
                             for i in range(n) for j in range(n)])


def _triangular(pencil: Pencil, last: list[PolyMatrix | None], h_col: list[PolyMatrix],
                corner_factor: ConstMatrix) -> HermiteAnalogue:
    """L = Uinv @ H with Uinv equal to L outside its last block column,
    which is `last` (None = zero), and H equal to the identity outside its
    last block column, which is `h_col`."""
    n = pencil.n
    m = pencil.block_count
    lz = pencil.as_polymatrix()
    eye = PolyMatrix.identity(n)
    uinv = PolyMatrix.from_blocks(
        [[lz.block(i, j, n) for j in range(m - 1)] + [last[i]] for i in range(m)], n)
    h = PolyMatrix.from_blocks(
        [[eye if i == j else None for j in range(m - 1)] + [h_col[i]] for i in range(m)], n)
    return HermiteAnalogue(uinv, h, m - 1, corner_factor)


# ---------------------------------------------------------------------------
# monomial basis


def monomial_cofactors(p: MatrixPolynomial) -> CofactorPair:
    """Closed-form unimodular cofactors for the second companion form.

    E carries the partial Horner evaluations of P across its first block
    row and a -I/-z*I staircase below; F is the block anti-identity whose
    first column holds descending powers of z.  Both have determinant +-1.
    """
    if not isinstance(p.basis, Monomial):
        raise WrongBasis("expected a monomial-basis polynomial")
    L = p.grade
    n = p.n
    A = p.coeffs
    eye = PolyMatrix.identity(n)

    # partial Horner evaluations: horner[L] = A_L, horner[k] = A_k + z*horner[k+1]
    horner: dict[int, PolyMatrix] = {L: PolyMatrix.from_const(A[L])}
    for k in range(L - 1, 0, -1):
        shifted = horner[k + 1].scale_poly(POLY_Z)
        horner[k] = PolyMatrix.from_const(A[k]) + shifted

    def e_block(i: int, j: int) -> PolyMatrix | None:
        if i == 0:
            return eye if j == 0 else horner[L - j]  # [I, H_{L-1}, ..., H_1]
        if i + j >= L:  # the -z^(i+j-L) I staircase
            return _poly_identity_block(n, PolyQ.monomial(i + j - L, -1))
        return None

    def f_block(i: int, j: int) -> PolyMatrix | None:
        if j == 0:
            return _poly_identity_block(n, PolyQ.monomial(L - 1 - i))
        return eye if i + j == L - 1 else None

    e = PolyMatrix.from_blocks([[e_block(i, j) for j in range(L)] for i in range(L)], n)
    f = PolyMatrix.from_blocks([[f_block(i, j) for j in range(L)] for i in range(L)], n)
    return CofactorPair(e, f)


# ---------------------------------------------------------------------------
# recurrence basis


def recurrence_hermite_analogue(p: MatrixPolynomial, pencil: Pencil) -> HermiteAnalogue:
    """Triangular factorization L = Uinv @ H for a recurrence-basis pencil.

    Uinv shares its first m-1 block columns with L; its last column is
    e_1 * u0 with u0 = lc * A_L, where lc is the leading coefficient of the
    top basis polynomial.  H is the identity with last column
    [-phi_{m-1} I, ..., -phi_1 I, corner], corner = (1/lc) * A_L^{-1} P(z)
    (the monic normalization in the scalar case).  Requires A_L nonsingular.
    """
    if not isinstance(p.basis, Recurrence):
        raise WrongBasis("expected a recurrence-basis polynomial")
    spec = p.basis
    L = p.grade
    n = p.n
    m = pencil.block_count
    al, be, ga = spec.alpha, spec.beta, spec.gamma

    a_lead_inv = p.coeffs[L].try_inverse()
    if a_lead_inv is None:
        raise GenericityFailure("leading coefficient block is singular")

    # triangular solve for the h_k (scalar polynomials times the identity)
    hs: dict[int, PolyQ] = {0: PolyQ((-1,))}
    hs[1] = PolyQ((be[0], -1)).scale(1 / al[0])  # -(z - beta_0)/alpha_0
    for k in range(1, m - 1):
        nxt = (POLY_Z - PolyQ.constant(be[k])) * hs[k] - hs[k - 1].scale(ga[k])
        hs[k + 1] = nxt.scale(1 / al[k])

    phis = recurrence_basis_polys(spec)
    lc = phis[L].lead
    u0 = p.coeffs[L].scale(lc)
    pz = matrix_poly_as_polymatrix(p)
    corner = polymatrix_mul(PolyMatrix.from_const(a_lead_inv.scale(1 / lc)), pz)
    # a constant multiple of P(z), so of P's grade in every entry, zeros too
    corner = PolyMatrix(n, n, [e.with_grade(L) for e in corner.entries])

    h_col = [_poly_identity_block(n, hs[m - j]) for j in range(1, m)] + [corner]
    last = [PolyMatrix.from_const(u0)] + [None] * (m - 1)
    return _triangular(pencil, last, h_col, u0)


# ---------------------------------------------------------------------------
# Bernstein basis


def bernstein_hermite_analogue(p: MatrixPolynomial, pencil: Pencil) -> HermiteAnalogue:
    """Triangular factorization L = Uinv @ H for the Bernstein pencil.

    Solvable exactly when P(1) (= the top Bernstein coefficient) is
    nonsingular; otherwise SingularAtOne is raised and the strict
    equivalence should be used.  The corner of H is P(z) itself.
    """
    if not isinstance(p.basis, Bernstein):
        raise WrongBasis("expected a Bernstein-basis polynomial")
    L = p.grade
    n = p.n
    m = pencil.block_count
    p1_inv = p.coeffs[L].try_inverse()  # P(1) equals the top coefficient
    if p1_inv is None:
        raise SingularAtOne("P(1) is singular; use the strict equivalence")

    pz = matrix_poly_as_polymatrix(p)
    z_minus_1 = PolyQ((-1, 1))

    def div_z_minus_1(mat: PolyMatrix) -> PolyMatrix:
        return PolyMatrix(n, n, [e.exact_div(z_minus_1) for e in mat.entries])

    vs: dict[int, ConstMatrix] = {}
    hs: dict[int, PolyMatrix] = {}
    vs[m] = p1_inv.scale(L)
    num = _poly_identity_block(n, PolyQ((0, L))) - \
        polymatrix_mul(PolyMatrix.from_const(vs[m]), pz)
    hs[1] = div_z_minus_1(num)
    for i in range(m - 1, 1, -1):
        k = m - i
        coef = Fraction(i, L + 1 - i)
        hk_at_1 = hs[k].evaluate(1)
        vs[i] = -(hk_at_1 @ p1_inv).scale(coef)
        num = hs[k].scale_poly(PolyQ((0, coef))) + \
            polymatrix_mul(PolyMatrix.from_const(vs[i]), pz)
        hs[k + 1] = div_z_minus_1(-num)
    vs[1] = -(p.coeffs[L] @ hs[m - 1].evaluate(1) @ p1_inv).scale(Fraction(1, L))

    h_col = [hs[m - j] for j in range(1, m)] + [pz]
    last = [PolyMatrix.from_const(vs[i + 1]) for i in range(m)]
    return _triangular(pencil, last, h_col, ConstMatrix.identity(n))


# ---------------------------------------------------------------------------
# Lagrange basis


def lagrange_hermite_factors(p: MatrixPolynomial, pencil: Pencil) -> HermiteAnalogue:
    """Triangular factorization L = Uinv @ H for the arrowhead pencil.

    Valid when every value P_k is nonsingular.  Uinv is L with its last
    block column replaced by [0, U_L, ..., U_1, 0]; H is the identity with
    last column [G I, H_L, ..., H_1, P(z)], where

        G   = (z - tau_0)/beta_0,
        U_k = -(beta_k/beta_0)(tau_k - tau_0) P_k^{-1},
        H_k = -(beta_k G I + U_k P(z)) / (z - tau_k)   (division exact).

    A consequence is sum_k P_k H_k = P_0.
    """
    if not isinstance(p.basis, Lagrange):
        raise WrongBasis("expected a Lagrange-basis polynomial")
    spec = p.basis
    L = p.grade
    n = p.n
    m = pencil.block_count
    bary = barycentric_weights(spec.nodes)
    beta = bary.weights
    tau = spec.nodes

    inverses = []
    for k, blk in enumerate(p.coeffs):
        inv = blk.try_inverse()
        if inv is None:
            raise SingularNodeValue(k)
        inverses.append(inv)

    pz = matrix_poly_as_polymatrix(p)
    g_poly = PolyQ((-tau[0], 1)).scale(1 / beta[0])

    u_blocks: dict[int, ConstMatrix] = {}
    h_blocks: dict[int, PolyMatrix] = {}
    for k in range(1, L + 1):
        u_blocks[k] = inverses[k].scale(-(beta[k] / beta[0]) * (tau[k] - tau[0]))
        num = _poly_identity_block(n, g_poly.scale(beta[k])) + \
            polymatrix_mul(PolyMatrix.from_const(u_blocks[k]), pz)
        div = PolyQ((-tau[k], 1))
        h_blocks[k] = PolyMatrix(n, n, [e.exact_div(div) for e in (-num).entries])

    # H column: [G I, H_L, ..., H_1, P(z)]
    h_col = [_poly_identity_block(n, g_poly)] + \
        [h_blocks[L + 1 - r] for r in range(1, L + 1)] + [pz]
    last = [None] + \
        [PolyMatrix.from_const(u_blocks[L + 1 - r]) for r in range(1, L + 1)] + [None]
    return _triangular(pencil, last, h_col, ConstMatrix.identity(n))


# ---------------------------------------------------------------------------
# assembling cofactors from a triangular factorization


def assemble_cofactors(ha: HermiteAnalogue, pencil: Pencil,
                       p: MatrixPolynomial) -> CofactorPair:
    """Turn L = Uinv @ H into unimodular E, F with E @ L @ F = diag(P, I, ...).

    E = diag(corner_factor, I, ..., I) @ SIP @ Uinv^{-1}; F first clears the
    off-corner entries of H's designated column, then applies the SIP block
    permutation that moves the corner to position (1, 1).
    """
    n = pencil.n
    m = pencil.block_count
    try:
        u = polymatrix_inverse_unimodular(ha.uinv)
    except NotUnimodular:  # a wrong closed form for Uinv's last block column
        raise ConjectureFailure("triangular factor U^(-1) is not unimodular") from None
    e_grid = [[u.block(i, j, n) for j in range(m)] for i in reversed(range(m))]
    if ha.corner_factor != ConstMatrix.identity(n):
        top = PolyMatrix.from_blocks(e_grid[:1], n)
        top = polymatrix_mul(PolyMatrix.from_const(ha.corner_factor), top)
        e_grid[0] = [top.block(0, j, n) for j in range(m)]
    eye = PolyMatrix.identity(n)
    f_col = [-ha.h.block(i, ha.corner_index, n) for i in range(m - 1)] + [eye]
    f_grid = [[f_col[i]] + [eye if i + j == m - 1 else None for j in range(1, m)]
              for i in range(m)]
    return CofactorPair(PolyMatrix.from_blocks(e_grid, n), PolyMatrix.from_blocks(f_grid, n))


# ---------------------------------------------------------------------------
# Bernstein strict equivalence


def _bernstein_binomial_w(L: int) -> ConstMatrix:
    """Closed-form lower-triangular change matrix: entry (i, j), 1-based,
    is (-1)^(i+j) C(L, i) C(i-1, j-1)."""
    rows = []
    for i in range(1, L + 1):
        row = []
        for j in range(1, L + 1):
            sign = -1 if (i + j) % 2 else 1
            row.append(Fraction(sign * math.comb(L, i) * math.comb(i - 1, j - 1)))
        rows.append(row)
    return ConstMatrix.from_rows(rows)


def bernstein_strict_equivalence(p: MatrixPolynomial) -> StrictEquivalence:
    """Constant U, W with U @ L_B(z) @ W = L_M(z).

    L_B is the Bernstein pencil of p and L_M the monomial pencil of the
    same polynomial (same grade).  W comes from the closed binomial form;
    the unknown first block row of U^{-1} is found by an exact linear
    solve, the remaining rows being e_1 and the leading part of W.  Works
    whether or not P(1) is singular.
    """
    if not isinstance(p.basis, Bernstein):
        raise WrongBasis("expected a Bernstein-basis polynomial")
    L = p.grade
    if L < 2:
        raise GradeTooSmall("strict equivalence needs grade >= 2")
    n = p.n
    lb = build_bernstein_pencil(p)
    lm = build_monomial_pencil(to_monomial(p))
    w_scalar = _bernstein_binomial_w(L)
    w = w_scalar.kron_identity(n)

    # x @ [lm.c1 | lm.c0] = the top n rows of [lb.c1 @ w | lb.c0 @ w], transposed
    a_sys = ConstMatrix.from_rows(lm.c1.transpose().to_rows() + lm.c0.transpose().to_rows())
    b_rows = (lb.c1 @ w).transpose().to_rows() + (lb.c0 @ w).transpose().to_rows()
    xt = solve_exact(a_sys, ConstMatrix.from_rows([r[:n] for r in b_rows]))
    if xt is None:
        raise ConjectureFailure(f"no first row solves the grade-{L} system")
    x = xt.transpose()  # n x nL

    # U^{-1}: x over [0 | W_s[:L-1, :L-1]] (x) I
    lower = ConstMatrix.from_rows(
        [[0] + w_scalar.row(i)[:L - 1] for i in range(L - 1)]).kron_identity(n)
    uinv = ConstMatrix.from_rows(x.to_rows() + lower.to_rows())
    u = uinv.try_inverse()
    if u is None:
        raise ConjectureFailure(f"U^(-1) singular at grade {L}")
    return StrictEquivalence(u, w)


# ---------------------------------------------------------------------------
# Bernstein reversals


def bernstein_reversal_coeffs(y: list[ConstMatrix]) -> list[ConstMatrix]:
    """Coefficients d of rev p(z) = (z+1)^grade p(1/(z+1)) in the same
    Bernstein basis, grade = len(y) - 1: d_k = sum_j C(k, j) y_{grade-j}."""
    grade = len(y) - 1
    out = []
    for k in range(grade + 1):
        acc = y[grade].scale(math.comb(k, 0))
        for j in range(1, k + 1):
            acc = acc + y[grade - j].scale(math.comb(k, j))
        out.append(acc)
    return out


def standard_reversal_coeffs(y: list[ConstMatrix]) -> list[ConstMatrix]:
    """Coefficients e of z^grade p(1/z) in the same Bernstein basis,
    grade = len(y) - 1: e_k = sum_m (-1)^m C(grade-k, m) y_{grade-m}."""
    grade = len(y) - 1
    out = []
    for k in range(grade + 1):
        acc = None
        for m_ in range(grade - k + 1):
            term = y[grade - m_].scale(Fraction((-1) ** m_ * math.comb(grade - k, m_)))
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def reversal_u_entry(grade: int, i: int, j: int) -> Fraction:
    """Closed form -((grade-i+1)/i) C(i, grade+1-j), 1-based, for the
    anti-triangular factor; its anti-diagonal is -(grade-i+1)/i."""
    return -Fraction(grade - i + 1, i) * math.comb(i, grade + 1 - j)


def reversal_z_entry(grade: int, i: int, j: int) -> Fraction:
    """Closed form -((grade-i)/j) C(i, grade-j), 1-based, valid for
    1 <= i, j <= grade-1."""
    return -Fraction(grade - i, j) * math.comb(i, grade - j)


def bernstein_reversal_equivalence(y: list[ConstMatrix]) -> ReversalEquivalence:
    """Constant U, W^{-1} with U @ A_R = (B - A) @ W^{-1} and
    U @ B_R = A @ W^{-1}, where (A, B) = (C0, C1) of the Bernstein pencil
    of y, of grade L = len(y) - 1, and (A_R, B_R) the same for the
    reversed coefficients d.

    The closed-form entry data (reversal_u_entry / reversal_z_entry plus
    the d-coefficient column) is indexed for the transposed, corner-flipped
    companion orientation, so here it enters with block indices flipped and
    transposed: W^{-1}(i, j) = u_{L+1-j, L+1-i} I, and U carries the
    z-entries the same way with the d-coefficient blocks across its first
    block row.  Both determinants are +-1.
    """
    L = len(y) - 1
    if L < 2:
        raise GradeTooSmall("reversal equivalence needs grade >= 2")
    n = y[0].rows
    d = bernstein_reversal_coeffs(y)
    eye = ConstMatrix.identity(n)

    u_grid = [[None] * L for _ in range(L)]
    u_grid[0][0] = eye
    for j in range(2, L + 1):
        u_grid[0][j - 1] = d[L + 1 - j] - y[L].scale(Fraction(j - 1, L))
    for i in range(2, L + 1):
        for j in range(2, L + 1):
            val = reversal_z_entry(L, L + 1 - j, L + 1 - i)
            if val:
                u_grid[i - 1][j - 1] = eye.scale(val)
    u = ConstMatrix.from_blocks(u_grid, n)

    w_grid = [[None] * L for _ in range(L)]
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            val = reversal_u_entry(L, L + 1 - j, L + 1 - i)
            if val:
                w_grid[i - 1][j - 1] = eye.scale(val)
    winv = ConstMatrix.from_blocks(w_grid, n)
    return ReversalEquivalence(u, winv)


# ---------------------------------------------------------------------------
# Lagrange strict equivalence


def lagrange_monomial_target(p: MatrixPolynomial) -> MatrixPolynomial:
    """The interpolated polynomial in the monomial basis, regarded at grade
    L+2 (two leading zero blocks), the target of the strict equivalence."""
    if not isinstance(p.basis, Lagrange):
        raise WrongBasis("expected a Lagrange-basis polynomial")
    mono = to_monomial(p)
    return from_monomial(mono, Monomial(p.grade + 2))


def lagrange_strict_equivalence(p: MatrixPolynomial) -> StrictEquivalence:
    """Constant U, W with U @ L_L(z) @ W = L_M(z) for distinct nodes.

    L_L is the arrowhead pencil; L_M is the monomial pencil of the same
    polynomial regarded at grade L+2.  With V the node-descending
    Vandermonde (entry (i, j) = tau_{L+1-j}^{L+1-i}, 1-based) and q the
    descending tail coefficients of the node polynomial,

        U = diag(-I, V (x) I),    W = [[-I, -q (x) I], [0, V^{-1} (x) I]].

    Valid for singular values and nonregular P.  det U =
    (-1)^n * prod_{i<j} (tau_j - tau_i)^n.
    """
    if not isinstance(p.basis, Lagrange):
        raise WrongBasis("expected a Lagrange-basis polynomial")
    spec = p.basis
    L = p.grade
    n = p.n
    nodes = spec.nodes
    bary = barycentric_weights(nodes)

    vd = ConstMatrix.from_rows(
        [[nodes[L - j] ** (L - i) for j in range(L + 1)] for i in range(L + 1)]
    )
    vd_inv = vd.try_inverse()
    if vd_inv is None:  # impossible for distinct nodes
        raise ConjectureFailure("Vandermonde unexpectedly singular")

    q_desc = list(reversed(bary.node_poly_tail))  # [q_L, ..., q_0]
    u = ConstMatrix.from_rows([[-1] + [0] * (L + 1)] +
                              [[0] + vd.row(i) for i in range(L + 1)]).kron_identity(n)
    w = ConstMatrix.from_rows([[-1] + [-q for q in q_desc]] +
                              [[0] + vd_inv.row(i) for i in range(L + 1)]).kron_identity(n)
    return StrictEquivalence(u, w)
