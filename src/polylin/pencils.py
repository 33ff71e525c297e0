"""Companion pencils L(z) = z*C1 - C0 for the four supported bases."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GradeTooSmall, WrongBasis
from .exact import ConstMatrix, PolyMatrix, PolyQ
from .bases import (
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Recurrence,
    barycentric_weights,
)


@dataclass(frozen=True)
class Pencil:
    """Constant pair (C1, C0) representing L(z) = z*C1 - C0 in n-by-n blocks."""

    c1: ConstMatrix
    c0: ConstMatrix
    n: int
    block_count: int
    basis_tag: str

    @property
    def size(self) -> int:
        return self.n * self.block_count

    def as_polymatrix(self) -> PolyMatrix:
        """L(z) with grade-1 entries."""
        entries = []
        for i in range(self.size):
            for j in range(self.size):
                entries.append(PolyQ((-self.c0.get(i, j), self.c1.get(i, j)), grade=1))
        return PolyMatrix(self.size, self.size, entries)

    def reversed_pencil(self) -> "Pencil":
        """-z*L(1/z) = z*C0 - C1, the pencil of the reversed problem."""
        return Pencil(self.c0, self.c1, self.n, self.block_count,
                      self.basis_tag + "-reversed")


def _block_grid(m: int):
    return [[None] * m for _ in range(m)]


def build_monomial_pencil(p: MatrixPolynomial) -> Pencil:
    """Second companion form: grade L gives L blocks; det L(z) = det P(z).

    First block row [z*A_L + A_{L-1}, A_{L-2}, ..., A_0], subdiagonal -I,
    diagonal z*I elsewhere.
    """
    if not isinstance(p.basis, Monomial):
        raise WrongBasis("expected a monomial-basis polynomial")
    L = p.grade
    n = p.n
    A = p.coeffs
    eye = ConstMatrix.identity(n)
    m = L
    c1 = _block_grid(m)
    c0 = _block_grid(m)
    c1[0][0] = A[L]
    for i in range(1, m):
        c1[i][i] = eye
        c0[i][i - 1] = eye
    for j in range(m):
        c0[0][j] = -A[L - 1 - j]
    return Pencil(ConstMatrix.from_blocks(c1, n), ConstMatrix.from_blocks(c0, n),
                  n, m, "monomial")


def build_recurrence_pencil(p: MatrixPolynomial) -> Pencil:
    """Colleague-style pencil for a degree-graded recurrence basis.

    Needs grade >= 2: the first-row corner corrections use the step-L-1
    recurrence data.  det L(z) is a nonzero constant times det P(z).
    """
    if not isinstance(p.basis, Recurrence):
        raise WrongBasis("expected a recurrence-basis polynomial")
    spec = p.basis
    L = p.grade
    if L < 2:
        raise GradeTooSmall("recurrence pencil needs grade >= 2")
    n = p.n
    A = p.coeffs
    eye = ConstMatrix.identity(n)
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    m = L
    c1 = _block_grid(m)
    c0 = _block_grid(m)
    c1[0][0] = A[L].scale(1 / al[L - 1])
    for i in range(1, m):
        c1[i][i] = eye
    c0[0][0] = -A[L - 1] + A[L].scale(be[L - 1] / al[L - 1])
    c0[0][1] = -A[L - 2] + A[L].scale(ga[L - 1] / al[L - 1])
    for j in range(2, m):
        c0[0][j] = -A[L - 1 - j]
    for i in range(1, m):
        k = L - 1 - i
        c0[i][i - 1] = eye.scale(al[k])
        c0[i][i] = eye.scale(be[k])
        if i + 1 < m:
            c0[i][i + 1] = eye.scale(ga[k])
    return Pencil(ConstMatrix.from_blocks(c1, n), ConstMatrix.from_blocks(c0, n),
                  n, m, "recurrence")


def build_bernstein_pencil(p: MatrixPolynomial) -> Pencil:
    """Bernstein-basis pencil with grade L in L blocks.

    First block row [(z/L)*Y_L + (1-z)*Y_{L-1}, (1-z)*Y_{L-2}, ..., (1-z)*Y_0];
    subdiagonal (z-1)*I; diagonal entry of block row k (k >= 2) is
    (k/(L+1-k))*z*I.
    """
    if not isinstance(p.basis, Bernstein):
        raise WrongBasis("expected a Bernstein-basis polynomial")
    L = p.grade
    if L < 2:
        raise GradeTooSmall("Bernstein pencil needs grade >= 2")
    n = p.n
    Y = p.coeffs
    eye = ConstMatrix.identity(n)
    m = L
    c1 = _block_grid(m)
    c0 = _block_grid(m)
    c1[0][0] = Y[L].scale(Fraction(1, L)) - Y[L - 1]
    c0[0][0] = -Y[L - 1]
    for j in range(1, m):
        c1[0][j] = -Y[L - 1 - j]
        c0[0][j] = -Y[L - 1 - j]
    for i in range(1, m):
        c1[i][i - 1] = eye
        c0[i][i - 1] = eye
        c1[i][i] = eye.scale(Fraction(i + 1, L - i))
    return Pencil(ConstMatrix.from_blocks(c1, n), ConstMatrix.from_blocks(c0, n),
                  n, m, "bernstein")


def build_lagrange_pencil(p: MatrixPolynomial) -> Pencil:
    """Arrowhead pencil on values at distinct nodes; L+2 blocks.

    Block row 1 is [0, -P_L, ..., -P_0]; the first block column below it
    carries beta_k * I (nodes in descending index order); the diagonal is
    (z - tau_k) * I.  det L(z) = det P(z) exactly.
    """
    if not isinstance(p.basis, Lagrange):
        raise WrongBasis("expected a Lagrange-basis polynomial")
    spec = p.basis
    L = p.grade
    n = p.n
    P = p.coeffs
    eye = ConstMatrix.identity(n)
    bary = barycentric_weights(spec.nodes)
    m = L + 2
    c1 = _block_grid(m)
    c0 = _block_grid(m)
    for r in range(1, m):
        k = L + 1 - r  # node index for this block row, descending
        c1[r][r] = eye
        c0[r][0] = eye.scale(-bary.weights[k])
        c0[r][r] = eye.scale(spec.nodes[k])
        c0[0][r] = P[k]
    return Pencil(ConstMatrix.from_blocks(c1, n), ConstMatrix.from_blocks(c0, n),
                  n, m, "lagrange")


def build_pencil(p: MatrixPolynomial) -> Pencil:
    """Dispatch on the basis of p."""
    if isinstance(p.basis, Monomial):
        return build_monomial_pencil(p)
    if isinstance(p.basis, Recurrence):
        return build_recurrence_pencil(p)
    if isinstance(p.basis, Bernstein):
        return build_bernstein_pencil(p)
    if isinstance(p.basis, Lagrange):
        return build_lagrange_pencil(p)
    raise WrongBasis(f"unknown basis {p.basis!r}")
