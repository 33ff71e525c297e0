"""Polynomial-basis descriptors, basis conversions, and barycentric machinery.

Supported bases: monomial, degree-graded three-term recurrence, Bernstein,
and Lagrange (values at distinct nodes).  Conversions route through the
monomial basis; everything is exact over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DuplicateNodes, GradeTooSmall, WrongBasis, ZeroAlpha
from .exact import ConstMatrix, PolyMatrix, _lowest, solve_exact
from .poly import POLY_ONE, PolyQ, as_fraction


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

    @classmethod
    def monomial_like(cls, grade: int) -> "Recurrence":
        """The trivial recurrence z*phi_k = phi_{k+1}, i.e. phi_k = z^k."""
        one = Fraction(1)
        zero = Fraction(0)
        return cls(grade, (one,) * grade, (zero,) * grade, (zero,) * grade)


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


def bernstein_basis_polys(grade: int) -> list[PolyQ]:
    """B_k(z) = C(grade,k) z^k (1-z)^(grade-k) as monomial coefficients."""
    one_minus_z = PolyQ((1, -1))
    out = []
    power = [POLY_ONE]
    for _ in range(grade):
        power.append(power[-1] * one_minus_z)
    for k in range(grade + 1):
        out.append(PolyQ.monomial(k, math.comb(grade, k)) * power[grade - k])
    return out


def recurrence_basis_polys(spec: Recurrence) -> list[PolyQ]:
    """phi_0..phi_grade unrolled from the three-term recurrence; deg phi_k = k."""
    phis = [POLY_ONE]
    z = PolyQ((0, 1))
    for k in range(spec.grade):
        prev = phis[k - 1] if k >= 1 else PolyQ.zero()
        nxt = (z - PolyQ.constant(spec.beta[k])) * phis[k]
        if k >= 1:
            nxt = nxt - prev.scale(spec.gamma[k])
        phis.append(nxt.scale(1 / spec.alpha[k]))
    return phis


def lagrange_basis_polys(spec: Lagrange) -> list[PolyQ]:
    """w_k(z) = beta_k * w(z)/(z - tau_k), the cleared first barycentric form."""
    bary = barycentric_weights(spec.nodes)
    out = []
    for k, tk in enumerate(spec.nodes):
        quot = bary.node_poly.exact_div(PolyQ((-tk, 1)))
        out.append(quot.scale(bary.weights[k]))
    return out


def basis_polys(basis: BasisSpec) -> list[PolyQ]:
    if isinstance(basis, Monomial):
        return [PolyQ.monomial(k) for k in range(basis.grade + 1)]
    if isinstance(basis, Recurrence):
        return recurrence_basis_polys(basis)
    if isinstance(basis, Bernstein):
        return bernstein_basis_polys(basis.grade)
    if isinstance(basis, Lagrange):
        return lagrange_basis_polys(basis)
    raise WrongBasis(f"unknown basis {basis!r}")


def _phi_matrix(basis: BasisSpec) -> ConstMatrix:
    """Row i, column k: the z^i coefficient of phi_k, for 0 <= i, k <= grade."""
    phis = basis_polys(basis)
    g = basis.grade
    return ConstMatrix.from_rows([[phis[k].coeff(i) for k in range(g + 1)] for i in range(g + 1)])


def _stacked_blocks(blocks) -> ConstMatrix:
    """Row k: the entries of block k, row by row; its row form is the
    block's rows side by side over the lcm of their denominators, canonical
    as `ConstMatrix.from_blocks` makes it."""
    c = blocks[0].cols
    form = []
    for blk in blocks:
        den = math.lcm(*(d for d, _ in blk._form))
        form.append((den, [(r * c + j, x * (den // d))
                           for r, (d, pairs) in enumerate(blk._form) for j, x in pairs]))
    return ConstMatrix._from_form(len(blocks), blocks[0].rows * c, form)


def _cut_blocks(m: ConstMatrix, n: int) -> tuple[ConstMatrix, ...]:
    """Row i of m as an n-by-n block, the inverse of `_stacked_blocks`:
    each n-wide piece of the row over its denominator, in lowest terms."""
    out = []
    for den, pairs in m._form:
        rows = [[] for _ in range(n)]
        for j, x in pairs:
            rows[j // n].append((j % n, x))
        out.append(ConstMatrix._from_form(n, n, [_lowest(den, r) for r in rows]))
    return tuple(out)


def transform_blocks(t: ConstMatrix, blocks) -> tuple[ConstMatrix, ...]:
    """Blocks b_i = sum_k t[i][k] * blocks[k], all n-by-n.

    Every change of coefficient blocks (a basis change, an evaluation, a
    reversal) is a scalar matrix t acting on them, so the result is the
    rows of one product t @ Y, with row k of Y the entries of block k.
    """
    return _cut_blocks(t @ _stacked_blocks(blocks), blocks[0].rows)


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
    are added above the grade of p or dropped above its degree.
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
        return MatrixPolynomial(n, target, tuple(padded))
    if isinstance(target, Lagrange):
        vander = ConstMatrix.from_rows([[t ** k for k in range(g + 1)] for t in target.nodes])
        return MatrixPolynomial(n, target, transform_blocks(vander, padded))
    # recurrence and Bernstein: solve the change-of-basis system exactly
    sol = solve_exact(_phi_matrix(target), _stacked_blocks(padded))
    if sol is None:
        raise WrongBasis("basis polynomials do not span the target space")
    return MatrixPolynomial(n, target, _cut_blocks(sol, n))


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


def basis_values_at(basis: BasisSpec, x) -> list[Fraction]:
    """phi_k(x) for all basis polynomials, exactly."""
    return [phi(x) for phi in basis_polys(basis)]


def matrix_poly_value(p: MatrixPolynomial, x) -> ConstMatrix:
    """P(x) as a constant matrix."""
    return transform_blocks(ConstMatrix.from_rows([basis_values_at(p.basis, x)]), p.coeffs)[0]


def matrix_poly_as_polymatrix(p: MatrixPolynomial) -> PolyMatrix:
    """P(z) as an n-by-n polynomial matrix (monomial coefficients)."""
    return PolyMatrix.from_coeffs(to_monomial(p).coeffs, p.grade)
