"""Polynomial-basis descriptors, basis conversions, and barycentric machinery.

Supported bases: monomial, degree-graded three-term recurrence, Bernstein,
and Lagrange (values at distinct nodes).  A basis enters the arithmetic
only as two constant matrices built in closed form: Phi, whose column k
holds the monomial coefficients of phi_k, and its inverse.  Conversions
route through the monomial basis, one product by Phi or Phi^-1 each way
and none on the monomial side; everything is exact over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DuplicateNodes, GradeTooSmall, WrongBasis, ZeroAlpha
from .exact import ONE, ConstMatrix, PolyMatrix, _lowest
from .poly import POLY_ONE, ZERO, PolyQ, as_fraction


@dataclass(frozen=True)
class Monomial:
    """phi_k(z) = z^k for 0 <= k <= grade."""

    grade: int
    kind = "monomial"

    def __post_init__(self):
        if self.grade < 1:
            raise GradeTooSmall("grade must be at least 1")


@dataclass(frozen=True)
class Recurrence:
    """Degree-graded basis with z*phi_k = alpha_k*phi_{k+1} + beta_k*phi_k
    + gamma_k*phi_{k-1}, anchored at phi_0 = 1.

    alpha, beta, gamma each have one entry per step k = 0..grade-1;
    gamma[0] is unused.  Every alpha_k must be nonzero.
    """

    grade: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    kind = "recurrence"

    def __post_init__(self):
        if self.grade < 1:
            raise GradeTooSmall("grade must be at least 1")
        object.__setattr__(self, "alpha", tuple(as_fraction(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(as_fraction(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(as_fraction(g) for g in self.gamma))
        if not (len(self.alpha) == len(self.beta) == len(self.gamma) == self.grade):
            raise ValueError("alpha/beta/gamma must each have `grade` entries")
        if any(a == 0 for a in self.alpha):
            raise ZeroAlpha("all alpha_k must be nonzero")

    @classmethod
    def chebyshev(cls, grade: int) -> "Recurrence":
        """Chebyshev T basis: z*T_k = T_{k+1}/2 + T_{k-1}/2 with z*T_0 = T_1."""
        half = Fraction(1, 2)
        alpha = (Fraction(1),) + (half,) * (grade - 1)
        beta = (Fraction(0),) * grade
        gamma = (Fraction(0),) + (half,) * (grade - 1)
        return cls(grade, alpha, beta, gamma)


@dataclass(frozen=True)
class Bernstein:
    """B_k(z) = C(grade, k) z^k (1-z)^(grade-k) on [0, 1]."""

    grade: int
    kind = "bernstein"

    def __post_init__(self):
        if self.grade < 1:
            raise GradeTooSmall("grade must be at least 1")


@dataclass(frozen=True)
class Lagrange:
    """Values at grade+1 pairwise-distinct nodes."""

    grade: int
    nodes: tuple[Fraction, ...]
    kind = "lagrange"

    def __post_init__(self):
        if self.grade < 1:
            raise GradeTooSmall("grade must be at least 1")
        object.__setattr__(self, "nodes", tuple(as_fraction(t) for t in self.nodes))
        if len(self.nodes) != self.grade + 1:
            raise ValueError("need grade+1 nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise DuplicateNodes("nodes must be pairwise distinct")


BasisSpec = Monomial | Recurrence | Bernstein | Lagrange


@dataclass(frozen=True)
class MatrixPolynomial:
    """An n-by-n matrix polynomial as grade+1 constant blocks over a basis."""

    n: int
    basis: BasisSpec
    coeffs: tuple[ConstMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.basis.grade + 1:
            raise ValueError("need grade+1 coefficient blocks")
        for c in self.coeffs:
            if c.rows != self.n or c.cols != self.n:
                raise ValueError("coefficient block has wrong shape")

    @property
    def grade(self) -> int:
        return self.basis.grade

    @classmethod
    def scalar(cls, basis: BasisSpec, values) -> "MatrixPolynomial":
        """Convenience constructor for the 1-by-1 case."""
        return cls(1, basis, tuple(ConstMatrix(1, 1, [v]) for v in values))


@dataclass(frozen=True)
class BarycentricData:
    """Barycentric weights plus the monic node polynomial w(z)."""

    nodes: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    node_poly: PolyQ

    @property
    def node_poly_tail(self) -> list[Fraction]:
        """Coefficients [q_0, ..., q_grade] of w(z) = z^(grade+1) + sum q_k z^k."""
        return [self.node_poly.coeff(k) for k in range(len(self.nodes))]


def barycentric_weights(nodes) -> BarycentricData:
    """Exact barycentric weights beta_k = prod_{j != k} 1/(tau_k - tau_j).

    Also returns the monic node polynomial w(z) = prod (z - tau_k).
    For two or more nodes the weights sum to zero.
    """
    nodes = tuple(as_fraction(t) for t in nodes)
    if len(set(nodes)) != len(nodes):
        raise DuplicateNodes("nodes must be pairwise distinct")
    weights = []
    for k, tk in enumerate(nodes):
        prod = Fraction(1)
        for j, tj in enumerate(nodes):
            if j != k:
                prod *= tk - tj
        weights.append(1 / prod)
    w = POLY_ONE
    for t in nodes:
        w = w * PolyQ((-t, 1))
    return BarycentricData(nodes, tuple(weights), w)


def _phi_matrix(basis: BasisSpec) -> ConstMatrix:
    """Phi: row i, column k is [z^i] phi_k, for 0 <= i, k <= grade."""
    g = basis.grade
    if isinstance(basis, Bernstein):
        # B_k = C(g, k) z^k (1 - z)^(g-k), expanded by the binomial theorem
        return ConstMatrix.from_rows(
            [[(-1) ** (i - k) * math.comb(g, k) * math.comb(g - k, i - k) if i >= k else 0
              for k in range(g + 1)] for i in range(g + 1)])
    if isinstance(basis, Recurrence):
        # phi_{k+1} = ((z - beta_k) phi_k - gamma_k phi_{k-1}) / alpha_k, on columns
        cols = [[ONE] + [ZERO] * g]
        for k in range(g):
            cur, prev = cols[k], cols[k - 1] if k else [ZERO] * (g + 1)
            cols.append([((cur[i - 1] if i else ZERO) - basis.beta[k] * cur[i]
                          - basis.gamma[k] * prev[i]) / basis.alpha[k] for i in range(g + 1)])
        return ConstMatrix.from_rows(zip(*cols))
    if isinstance(basis, Lagrange):
        # column k: beta_k w(z)/(z - tau_k), the quotient by synthetic division
        bary = barycentric_weights(basis.nodes)
        w = bary.node_poly_tail
        cols = []
        for t, b in zip(basis.nodes, bary.weights):
            q = [ONE]
            for i in range(g, 0, -1):
                q.append(w[i] + t * q[-1])
            cols.append([b * x for x in reversed(q)])
        return ConstMatrix.from_rows(zip(*cols))
    return ConstMatrix.identity(g + 1)


def _phi_inverse(basis: BasisSpec) -> ConstMatrix:
    """Phi^-1: row k, column i is the phi_k coefficient of z^i."""
    g = basis.grade
    if isinstance(basis, Bernstein):
        # z^i = sum_k C(k, i)/C(g, i) B_k
        return ConstMatrix.from_rows([[Fraction(math.comb(k, i), math.comb(g, i))
                                       for i in range(g + 1)] for k in range(g + 1)])
    if isinstance(basis, Recurrence):
        # z^(i+1) = z * z^i, with z phi_k = alpha_k phi_{k+1} + beta_k phi_k + gamma_k phi_{k-1}
        cols = [[ONE] + [ZERO] * g]
        for i in range(g):
            cur, nxt = cols[i], [ZERO] * (g + 1)
            for k in range(i + 1):
                nxt[k + 1] += basis.alpha[k] * cur[k]
                nxt[k] += basis.beta[k] * cur[k]
                if k:
                    nxt[k - 1] += basis.gamma[k] * cur[k]
            cols.append(nxt)
        return ConstMatrix.from_rows(zip(*cols))
    if isinstance(basis, Lagrange):
        # the values of z^i at the nodes
        return ConstMatrix.from_rows([[t ** i for i in range(g + 1)] for t in basis.nodes])
    return ConstMatrix.identity(g + 1)


def transform_blocks(t: ConstMatrix, blocks) -> tuple[ConstMatrix, ...]:
    """Blocks b_i = sum_k t[i][k] * blocks[k], all n-by-n.

    Every change of coefficient blocks (a basis change, an evaluation, a
    reversal) is a scalar matrix t acting on them, so the result is the
    rows of one product t @ Y.  Row k of Y holds the entries of block k,
    row by row: the block's row forms side by side over the lcm of their
    denominators, which is canonical as `ConstMatrix.from_blocks` makes it.
    Row i of the product is cut back into an n-by-n block, each n-wide
    piece over the row's denominator in lowest terms.
    """
    n = blocks[0].rows
    stacked = []
    for blk in blocks:
        den = math.lcm(*(d for d, _ in blk._form))
        stacked.append((den, [(r * n + j, x * (den // d))
                              for r, (d, pairs) in enumerate(blk._form) for j, x in pairs]))
    out = []
    for den, pairs in (t @ ConstMatrix._from_form(len(blocks), n * n, stacked))._form:
        rows = [[] for _ in range(n)]
        for j, x in pairs:
            rows[j // n].append((j % n, x))
        out.append(ConstMatrix._from_form(n, n, [_lowest(den, r) for r in rows]))
    return tuple(out)


def to_monomial(p: MatrixPolynomial) -> MatrixPolynomial:
    """Rewrite p with monomial coefficients at the same grade; exact.

    Monomial block i is sum_k [z^i] phi_k * block k, one transform by Phi.
    """
    if isinstance(p.basis, Monomial):
        return p
    return MatrixPolynomial(p.n, Monomial(p.grade),
                            transform_blocks(_phi_matrix(p.basis), p.coeffs))


def from_monomial(p: MatrixPolynomial, target: BasisSpec) -> MatrixPolynomial:
    """Rewrite a monomial-basis p in the target basis; exact.

    The target grade may be anything from the degree of p up: zero blocks
    are added above the grade of p or dropped above its degree.  A
    monomial target takes those blocks as they are, with no product; any
    other target's block k is sum_i (the phi_k coefficient of z^i) *
    block i, one transform by Phi^-1.
    """
    if not isinstance(p.basis, Monomial):
        raise WrongBasis("from_monomial expects a monomial-basis input")
    n = p.n
    g = target.grade
    src_deg = max((k for k, c in enumerate(p.coeffs) if not c.is_zero), default=0)
    if g < src_deg:
        raise GradeTooSmall(f"target grade {g} below degree {src_deg}")
    padded = (list(p.coeffs) + [ConstMatrix.zeros(n, n)] * (g - p.grade))[:g + 1]
    if isinstance(target, Monomial):
        return MatrixPolynomial(n, target, padded)
    return MatrixPolynomial(n, target, transform_blocks(_phi_inverse(target), padded))


def convert(p: MatrixPolynomial, target: BasisSpec) -> MatrixPolynomial:
    """General basis conversion, pivoting through the monomial basis."""
    return from_monomial(to_monomial(p), target)


def degree_elevate(p: MatrixPolynomial) -> MatrixPolynomial:
    """Bernstein degree elevation from grade L to grade L+1.

    new_k = (k*old_{k-1} + (L+1-k)*old_k) / (L+1); represents the same
    polynomial.
    """
    if not isinstance(p.basis, Bernstein):
        raise WrongBasis("degree_elevate expects the Bernstein basis")
    L = p.grade
    t = [[0] * (L + 1) for _ in range(L + 2)]
    for k in range(L + 1):
        t[k][k] = Fraction(L + 1 - k, L + 1)
        t[k + 1][k] = Fraction(k + 1, L + 1)
    blocks = transform_blocks(ConstMatrix.from_rows(t), p.coeffs)
    return MatrixPolynomial(p.n, Bernstein(L + 1), blocks)


def matrix_poly_as_polymatrix(p: MatrixPolynomial) -> PolyMatrix:
    """P(z) as an n-by-n polynomial matrix (monomial coefficients)."""
    return PolyMatrix.from_coeffs(to_monomial(p).coeffs, p.grade)
