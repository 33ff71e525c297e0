"""Unimodular cofactors, triangular factorizations, strict equivalences,
and reversal maps for the companion pencils.

Sign conventions follow the pencil constructors in `pencils`.  The
constructors only build: no certificate is checked against its defining
identity here.  That is the job of the independent verifiers in `verify`,
which the CLI runs on every certificate it prints.  A constructor fails
only where construction cannot go on: a factor to invert that is
singular (or, for a polynomial factor, not unimodular).
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
from .exact import ConstMatrix, PolyMatrix, polymatrix_inverse_unimodular, polymatrix_mul
from .poly import POLY_Z, PolyQ
from .bases import (
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Recurrence,
    _phi_matrix,
    barycentric_weights,
    matrix_poly_as_polymatrix,
    to_monomial,
    from_monomial,
    transform_blocks,
)
from .pencils import Pencil


@dataclass(frozen=True)
class CofactorPair:
    """Unimodular E, F with E @ L @ F = diag(P, I, ..., I).

    e_inv, when given, is a claimed inverse of E that the verifier may
    check to prove E unimodular; it is not part of the printed
    certificate."""

    e: PolyMatrix
    f: PolyMatrix
    e_inv: PolyMatrix | None = None


@dataclass(frozen=True)
class HermiteAnalogue:
    """Factorization L = Uinv @ H with H equal to the identity outside its
    last block column and P(z) (up to the constant left factor
    corner_factor) in the corner of that column."""

    uinv: PolyMatrix
    h: PolyMatrix
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
# the triangular factorization


def _triangular(pencil: Pencil, last: list[PolyMatrix | None], h_col: list[PolyMatrix],
                corner_factor: ConstMatrix) -> HermiteAnalogue:
    """L = Uinv @ H with Uinv equal to L outside its last block column,
    which is `last` (None = zero), and H equal to the identity outside its
    last block column, which is `h_col`.  Uinv's rows are those of L(z)'s
    row form cut after its first m-1 block columns, beside `last`."""
    n = pencil.n
    m = pencil.block_count
    eye = PolyMatrix.identity(n)
    uinv = PolyMatrix.hstack([(pencil.as_polymatrix(), 0, (m - 1) * n),
                              (PolyMatrix.from_blocks([[blk] for blk in last], n), 0, n)])
    h = PolyMatrix.from_blocks(
        [[eye if i == j else None for j in range(m - 1)] + [h_col[i]] for i in range(m)], n)
    return HermiteAnalogue(uinv, h, corner_factor)


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
            return PolyMatrix.scalar(n, PolyQ.monomial(i + j - L, -1))
        return None

    def f_block(i: int, j: int) -> PolyMatrix | None:
        if j == 0:
            return PolyMatrix.scalar(n, PolyQ.monomial(L - 1 - i))
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
    L = p.grade
    n = p.n
    m = pencil.block_count

    a_lead_inv = p.coeffs[L].try_inverse()
    if a_lead_inv is None:
        raise GenericityFailure("leading coefficient block is singular")

    phi = _phi_matrix(p.basis)  # column k: the monomial coefficients of phi_k
    lc = phi.get(L, L)
    u0 = p.coeffs[L].scale(lc)
    pz = PolyMatrix.from_coeffs(transform_blocks(phi, p.coeffs), L)
    # a constant multiple of P(z), so of P's grade in every entry, zeros too
    corner = polymatrix_mul(PolyMatrix.from_const(a_lead_inv.scale(1 / lc)), pz).with_grade(L)

    h_col = [PolyMatrix.scalar(n, PolyQ([-phi.get(i, k) for i in range(k + 1)]))
             for k in range(m - 1, 0, -1)] + [corner]
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
    vs: dict[int, ConstMatrix] = {}
    hs: dict[int, PolyMatrix] = {}
    vs[m] = p1_inv.scale(L)
    num = PolyMatrix.scalar(n, PolyQ((0, L))) - \
        polymatrix_mul(PolyMatrix.from_const(vs[m]), pz)
    hs[1] = num.exact_div(z_minus_1)
    for i in range(m - 1, 1, -1):
        k = m - i
        coef = Fraction(i, L + 1 - i)
        hk_at_1 = hs[k].evaluate(1)
        vs[i] = -(hk_at_1 @ p1_inv).scale(coef)
        num = hs[k].scale_poly(PolyQ((0, coef))) + \
            polymatrix_mul(PolyMatrix.from_const(vs[i]), pz)
        hs[k + 1] = (-num).exact_div(z_minus_1)
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
        num = PolyMatrix.scalar(n, g_poly.scale(beta[k])) + \
            polymatrix_mul(PolyMatrix.from_const(u_blocks[k]), pz)
        h_blocks[k] = (-num).exact_div(PolyQ((-tau[k], 1)))

    # H column: [G I, H_L, ..., H_1, P(z)]
    h_col = [PolyMatrix.scalar(n, g_poly)] + \
        [h_blocks[L + 1 - r] for r in range(1, L + 1)] + [pz]
    last = [None] + \
        [PolyMatrix.from_const(u_blocks[L + 1 - r]) for r in range(1, L + 1)] + [None]
    return _triangular(pencil, last, h_col, ConstMatrix.identity(n))


# ---------------------------------------------------------------------------
# assembling cofactors from a triangular factorization


def assemble_cofactors(ha: HermiteAnalogue, pencil: Pencil) -> CofactorPair:
    """Turn L = Uinv @ H into unimodular E, F with E @ L @ F = diag(P, I, ...).

    E = diag(corner_factor, I, ..., I) @ SIP @ Uinv^{-1}; F first clears the
    off-corner entries of H's last block column, then applies the SIP block
    permutation that moves the corner to position (1, 1).  The pair carries
    E^{-1} = Uinv @ SIP @ diag(corner_factor^{-1}, I, ..., I): Uinv with its
    block columns in reverse order, the new first one times
    corner_factor^{-1} (no E^{-1} when corner_factor is singular).
    """
    n = pencil.n
    m = pencil.block_count
    try:
        u = polymatrix_inverse_unimodular(ha.uinv)
    except NotUnimodular:  # a wrong closed form for Uinv's last block column
        raise ConjectureFailure("triangular factor U^(-1) is not unimodular") from None
    # SIP @ U is U with its block rows in reverse order, Uinv @ SIP is Uinv
    # with its block columns in reverse order
    e_rows = [row for i in reversed(range(m)) for row in u._form[i * n:(i + 1) * n]]
    x_cols = [(ha.uinv, j * n, (j + 1) * n) for j in reversed(range(m))]
    c_inv = ConstMatrix.identity(n)
    if ha.corner_factor != c_inv:
        top = polymatrix_mul(PolyMatrix.from_const(ha.corner_factor),
                             PolyMatrix._from_form(n, u.cols, e_rows[:n]))
        e_rows[:n] = top._form
        c_inv = ha.corner_factor.try_inverse()
        if c_inv is not None:
            x_cols[0] = (polymatrix_mul(PolyMatrix.hstack(x_cols[:1]), PolyMatrix.from_const(c_inv)),
                         0, n)
    eye = PolyMatrix.identity(n)
    f_col = [-ha.h.block(i, m - 1, n) for i in range(m - 1)] + [eye]
    f_grid = [[f_col[i]] + [eye if i + j == m - 1 else None for j in range(1, m)]
              for i in range(m)]
    return CofactorPair(PolyMatrix._from_form(u.rows, u.cols, e_rows),
                        PolyMatrix.from_blocks(f_grid, n),
                        None if c_inv is None else PolyMatrix.hstack(x_cols))


# ---------------------------------------------------------------------------
# Bernstein strict equivalence


def _unit_upper(top, s: ConstMatrix, n: int) -> ConstMatrix:
    """[[I, top_1, ..., top_k], [0, s (x) I]] for k n-by-n blocks top and a
    k-by-k scalar s."""
    eye = ConstMatrix.identity(n)
    lower = [[None] + [eye.scale(c) for c in s.row(i)] for i in range(s.rows)]
    return ConstMatrix.from_blocks([[eye, *top], *lower], n)


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
    same polynomial (same grade).  U^{-1} and W are closed forms:

        W      = W_s (x) I,   W_s(i, j) = (-1)^(i+j) C(L, i) C(i-1, j-1),
        U^{-1} = [[I, R_1, ..., R_{L-1}], [0, W_l (x) I]],  W_l = W_s[:L-1, :L-1],
        R_j    = sum_{k=0}^{L-1-j} (-1)^(L+j+k) C(L, k) C(L-1-k, j) Y_k,

    R being the first block row of C1_B @ W past block column 0.  U^{-1}
    is block upper triangular with det prod_{i<L} C(L, i)^n, so the map
    exists for every P: P(1) singular or not, regular or not.  So is U:

        U = [[I, -R (W_l^{-1} (x) I)], [0, W_l^{-1} (x) I]],
        W_l^{-1}(i, j) = C(i-1, j-1) / C(L, j),

    the inverse of W_l = S diag(C(L, i)) Pascal S (S = diag((-1)^i)), and
    the top row is one transform of the Y_k by -W_l^{-T} t.
    """
    if not isinstance(p.basis, Bernstein):
        raise WrongBasis("expected a Bernstein-basis polynomial")
    L = p.grade
    if L < 2:
        raise GradeTooSmall("strict equivalence needs grade >= 2")
    n = p.n
    t = ConstMatrix.from_rows(
        [[(-1) ** (L + j + k) * math.comb(L, k) * math.comb(L - 1 - k, j) for k in range(L)] + [0]
         for j in range(1, L)])
    wl_inv = ConstMatrix.from_rows(
        [[Fraction(math.comb(i, j), math.comb(L, j + 1)) for j in range(L - 1)] for i in range(L - 1)])
    top = transform_blocks(-(wl_inv.transpose() @ t), p.coeffs)
    return StrictEquivalence(_unit_upper(top, wl_inv, n), _bernstein_binomial_w(L).kron_identity(n))


# ---------------------------------------------------------------------------
# Bernstein reversals


def bernstein_reversal_coeffs(y: list[ConstMatrix]) -> list[ConstMatrix]:
    """Coefficients d of rev p(z) = (z+1)^grade p(1/(z+1)) in the same
    Bernstein basis, grade = len(y) - 1: d_k = sum_j C(k, j) y_{grade-j}."""
    grade = len(y) - 1
    t = [[math.comb(k, grade - i) for i in range(grade + 1)] for k in range(grade + 1)]
    return list(transform_blocks(ConstMatrix.from_rows(t), y))


def _bernstein_reversal_w(L: int) -> ConstMatrix:
    """W_r(i, j) = -(j/i) C(L-j, i-1), 1-based."""
    return ConstMatrix.from_rows(
        [[Fraction(-j * math.comb(L - j, i - 1), i) for j in range(1, L + 1)]
         for i in range(1, L + 1)])


def bernstein_reversal_equivalence(y: list[ConstMatrix]) -> ReversalEquivalence:
    """Constant U, W^{-1} with U @ A_R = (B - A) @ W^{-1} and
    U @ B_R = A @ W^{-1}, where (A, B) = (C0, C1) of the Bernstein pencil
    of y, of grade L = len(y) - 1, and (A_R, B_R) the same for the
    reversed coefficients d.  Both are closed forms, 1-based:

        W^{-1} = W_r (x) I,   W_r(i, j) = -(j/i) C(L-j, i-1)        (1 <= i, j <= L),
        U      = [[I, T_2, ..., T_L], [0, Z (x) I]],  T_j = d_{L+1-j} - ((j-1)/L) Y_L,
        Z(i, j) = -((j-1)/(L+1-i)) C(L+1-j, i-1)                      (2 <= i, j <= L).

    W_r and Z are zero below their anti-diagonals, which hold
    -(L+1-i)/i and -1, so both determinants are +-1.
    """
    L = len(y) - 1
    if L < 2:
        raise GradeTooSmall("reversal equivalence needs grade >= 2")
    n = y[0].rows
    d = bernstein_reversal_coeffs(y)
    top = [d[L + 1 - j] - y[L].scale(Fraction(j - 1, L)) for j in range(2, L + 1)]
    z = ConstMatrix.from_rows(
        [[Fraction(-(j - 1) * math.comb(L + 1 - j, i - 1), L + 1 - i) for j in range(2, L + 1)]
         for i in range(2, L + 1)])
    return ReversalEquivalence(_unit_upper(top, z, n), _bernstein_reversal_w(L).kron_identity(n))


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
