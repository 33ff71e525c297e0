"""polylin: exact companion pencils, unimodular equivalences, and
polynomial-matrix normal forms over Q[z].

The package root re-exports the names the README documents; everything
else is imported from its module (the exception classes from
`polylin.errors`)."""

from .exact import ConstMatrix, PolyMatrix
from .poly import PolyQ, poly_gcd
from .bases import (
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Recurrence,
    convert,
    from_monomial,
    to_monomial,
)
from .pencils import build_pencil
from .normalforms import hermite_form, smith_form
from .verify import smith_equivalence_check, verify_strong

__version__ = "0.1.0"
