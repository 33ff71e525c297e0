"""Deterministic random instances for sweeps and tests.

Entries are rationals with numerator and denominator drawn from [-9, 9]
(denominator nonzero); everything is driven by a caller-supplied
random.Random so runs are reproducible from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import ConstMatrix
from .bases import BasisSpec, Bernstein, Lagrange, MatrixPolynomial, Monomial, Recurrence


def rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if f or not nonzero:
            return f


def rand_const_matrix(rng: random.Random, n: int) -> ConstMatrix:
    return ConstMatrix(n, n, [rand_fraction(rng) for _ in range(n * n)])


def rand_nodes(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    nodes: list[Fraction] = []
    while len(nodes) < count:
        t = rand_fraction(rng)
        if t not in nodes:
            nodes.append(t)
    return tuple(nodes)


def rand_recurrence_spec(rng: random.Random, grade: int) -> Recurrence:
    alpha = tuple(rand_fraction(rng, nonzero=True) for _ in range(grade))
    beta = tuple(rand_fraction(rng) for _ in range(grade))
    gamma = (Fraction(0),) + tuple(rand_fraction(rng) for _ in range(grade - 1))
    return Recurrence(grade, alpha, beta, gamma)


def rand_basis(rng: random.Random, kind: str, grade: int) -> BasisSpec:
    if kind == "monomial":
        return Monomial(grade)
    if kind == "recurrence":
        return rand_recurrence_spec(rng, grade)
    if kind == "bernstein":
        return Bernstein(grade)
    if kind == "lagrange":
        return Lagrange(grade, rand_nodes(rng, grade + 1))
    raise ValueError(f"unknown basis kind {kind!r}")


def rand_matrix_polynomial(rng: random.Random, basis: BasisSpec, n: int) -> MatrixPolynomial:
    coeffs = tuple(rand_const_matrix(rng, n) for _ in range(basis.grade + 1))
    return MatrixPolynomial(n, basis, coeffs)
