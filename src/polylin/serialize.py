"""JSON encoding of every on-disk object.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1) so
exactness survives the trip; readers accept those strings, optionally
signed, and JSON integers, and reject anything else.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError
from .exact import ConstMatrix, PolyMatrix
from .poly import PolyQ
from .bases import (
    BasisSpec,
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Recurrence,
)
from .pencils import Pencil


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _shown(value) -> str:
    """repr(value), cut to 40 characters, for error messages."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def parse_frac(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InputError(f"expected a rational string, got {_shown(s)}")
    if isinstance(s, int):
        return Fraction(s)
    match = _RATIONAL.fullmatch(s)
    if not match:
        raise InputError(f"bad rational {_shown(s)}: expected \"p\" or \"p/q\"")
    p, q = match.groups()
    try:  # each string is parsed once, by int
        return Fraction(int(p), int(q or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {_shown(s)}: {exc}") from None


def _ratio_str(x: int, den: int) -> str:
    """frac_str of x/den (den > 0), put in lowest terms by one gcd."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def const_matrix_obj(m: ConstMatrix) -> list[list[str]]:
    """The rows as strings, each entry x/d of a row form written by
    `_ratio_str`; an absent pair is "0"."""
    out = []
    for den, pairs in m._form:
        row = ["0"] * m.cols
        for j, x in pairs:
            row[j] = _ratio_str(x, den)
        out.append(row)
    return out


def parse_const_matrix(obj) -> ConstMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError("matrix must be a non-empty list of rows")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise InputError("matrix rows must be non-empty and equal length")
    return ConstMatrix.from_rows([[parse_frac(x) for x in row] for row in obj])


def polyq_obj(p: PolyQ) -> list[str]:
    """The grade + 1 coefficients as strings, each x/d of the integer form
    written by `_ratio_str`."""
    return [_ratio_str(x, p.den) for x in p.ints] + ["0"] * (p.grade - p.degree)


def parse_polyq(obj) -> PolyQ:
    if not isinstance(obj, list) or not obj:
        raise InputError("polynomial must be a non-empty coefficient list")
    return PolyQ([parse_frac(c) for c in obj], grade=len(obj) - 1)


def polymatrix_obj(m: PolyMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[polyq_obj(m.get(i, j)) for j in range(m.cols)]
                    for i in range(m.rows)],
    }


def parse_polymatrix(obj) -> PolyMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputError("polynomial matrix needs an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise InputError("'entries' must be a non-empty list of rows")
    rows = []
    for row in entries:
        if not isinstance(row, list) or not row or len(row) != len(entries[0]):
            raise InputError("entry rows must be non-empty lists of equal length")
        rows.append([parse_polyq(e) for e in row])
    m = PolyMatrix.from_rows(rows)
    for key in ("rows", "cols"):
        if key in obj and (not isinstance(obj[key], int) or isinstance(obj[key], bool)):
            raise InputError(f"{key!r} must be an integer")
    if "rows" in obj and obj["rows"] != m.rows:
        raise InputError("row count mismatch")
    if "cols" in obj and obj["cols"] != m.cols:
        raise InputError("column count mismatch")
    return m


def basis_obj(b: BasisSpec) -> dict:
    out = {"kind": b.kind, "grade": b.grade}
    if isinstance(b, Recurrence):
        out["alpha"] = [frac_str(x) for x in b.alpha]
        out["beta"] = [frac_str(x) for x in b.beta]
        out["gamma"] = [frac_str(x) for x in b.gamma]
    elif isinstance(b, Lagrange):
        out["nodes"] = [frac_str(x) for x in b.nodes]
    return out


def _frac_list(obj: dict, key: str, kind: str) -> tuple[Fraction, ...]:
    if key not in obj:
        raise InputError(f"{kind} basis missing {key!r}")
    if not isinstance(obj[key], list):
        raise InputError(f"{kind} basis field {key!r} must be a list of rationals")
    return tuple(parse_frac(x) for x in obj[key])


def parse_basis(obj) -> BasisSpec:
    if not isinstance(obj, dict):
        raise InputError("basis must be an object")
    kind = obj.get("kind")
    grade = obj.get("grade")
    if not isinstance(grade, int) or isinstance(grade, bool):
        raise InputError("basis needs an integer 'grade'")
    if kind == "monomial":
        return Monomial(grade)
    if kind == "bernstein":
        return Bernstein(grade)
    try:  # the constructors raise ValueError on fields of the wrong length
        if kind == "recurrence":
            return Recurrence(grade, *(_frac_list(obj, key, kind)
                                       for key in ("alpha", "beta", "gamma")))
        if kind == "lagrange":
            return Lagrange(grade, _frac_list(obj, "nodes", kind))
    except ValueError as exc:
        raise InputError(f"{kind} basis: {exc}") from None
    raise InputError(f"unknown basis kind {kind!r}")


def matrix_polynomial_obj(p: MatrixPolynomial) -> dict:
    return {
        "n": p.n,
        "basis": basis_obj(p.basis),
        "coeffs": [const_matrix_obj(c) for c in p.coeffs],
    }


def parse_matrix_polynomial(obj) -> MatrixPolynomial:
    if not isinstance(obj, dict):
        raise InputError("matrix polynomial must be an object")
    try:
        n = obj["n"]
        basis = parse_basis(obj["basis"])
        coeffs = obj["coeffs"]
    except KeyError as exc:
        raise InputError(f"matrix polynomial missing {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("'n' must be a positive integer")
    if not isinstance(coeffs, list):
        raise InputError("'coeffs' must be a list")
    blocks = tuple(parse_const_matrix(c) for c in coeffs)
    try:
        return MatrixPolynomial(n, basis, blocks)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def pencil_obj(p: Pencil) -> dict:
    return {
        "n": p.n,
        "blocks": p.block_count,
        "C1": const_matrix_obj(p.c1),
        "C0": const_matrix_obj(p.c0),
        "basis": p.basis_tag,
    }


def parse_pencil(obj) -> Pencil:
    if not isinstance(obj, dict):
        raise InputError("pencil must be an object")
    try:
        n = obj["n"]
        blocks = obj["blocks"]
        c1 = parse_const_matrix(obj["C1"])
        c0 = parse_const_matrix(obj["C0"])
        tag = obj.get("basis", "unknown")
    except KeyError as exc:
        raise InputError(f"pencil missing {exc}") from None
    if c1.rows != n * blocks or not c1.is_square or c0.rows != c1.rows:
        raise InputError("pencil dimensions inconsistent")
    return Pencil(c1, c0, n, blocks, tag)
