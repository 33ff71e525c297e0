"""JSON encoding of every on-disk object.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1) so
exactness survives the trip; readers accept those strings, optionally
signed, and JSON integers, and reject anything else.

`dumps` writes every command's output: the text of
`json.dumps(obj, indent=2, sort_keys=True)` for the JSON object obj of its
argument, which the `*_obj` functions build, with each matrix and
polynomial written straight from its integer form.  The parsers build
those forms straight from the strings, with no Fraction per entry.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import InputError
from .exact import ConstMatrix, PolyMatrix, _lowest, _poly_row, _trimmed
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


def _ratio(s) -> tuple[int, int]:
    """The rational s, a JSON integer or a string "p" or "p/q", as the ints
    (p, q), q > 0, not reduced."""
    if isinstance(s, str):
        match = _RATIONAL.fullmatch(s)
        if not match:
            raise InputError(f"bad rational {_shown(s)}: expected \"p\" or \"p/q\"")
        p, q = match.groups()
        try:  # each string is parsed once, by int
            p, q = int(p), int(q or 1)
        except ValueError as exc:  # over the integer-string digit limit
            raise InputError(f"bad rational {_shown(s)}: {exc}") from None
        if not q:
            raise InputError(f"bad rational {_shown(s)}: Fraction({_shown(p)}, 0)")
        return p, q
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    raise InputError(f"expected a rational string, got {_shown(s)}")


def parse_frac(s) -> Fraction:
    return Fraction(*_ratio(s))


def _ratio_str(x: int, den: int) -> str:
    """frac_str of x/den (den > 0), put in lowest terms by one gcd."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _const_rows(m: ConstMatrix):
    """The rows as lists of strings, each entry x/d of a row form written
    by `_ratio_str` (by str when d is 1); an absent pair is "0"."""
    for den, pairs in m._form:
        row = ["0"] * m.cols
        if den == 1:
            for j, x in pairs:
                row[j] = str(x)
        else:
            for j, x in pairs:
                row[j] = _ratio_str(x, den)
        yield row


def const_matrix_obj(m: ConstMatrix) -> list[list[str]]:
    return list(_const_rows(m))


def parse_const_matrix(obj) -> ConstMatrix:
    """The row form of each row, built from the (p, q) of its entries."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError("matrix must be a non-empty list of rows")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise InputError("matrix rows must be non-empty and equal length")
    form = []
    for row in obj:
        ratios = [_ratio(x) for x in row]
        den = math.lcm(*[q for _, q in ratios])
        form.append(_lowest(den, [(j, p * (den // q)) for j, (p, q) in enumerate(ratios) if p]))
    return ConstMatrix._from_form(len(obj), width, form)


def polyq_obj(p: PolyQ) -> list[str]:
    """The grade + 1 coefficients as strings, each x/d of the integer form
    written by `_ratio_str` (by str when d is 1)."""
    den = p.den
    strs = list(map(str, p.ints)) if den == 1 else [_ratio_str(x, den) for x in p.ints]
    return strs + ["0"] * (p.grade - p.degree)


def _poly_rows(m: PolyMatrix):
    """The rows as lists of coefficient lists of strings, each coefficient
    x/d of a row form written by `_ratio_str` (by str when d is 1) and
    each list padded with "0" to its entry's grade."""
    for den, pairs, grades in m._form:
        row = [["0"] * (g + 1) for g in grades]
        for j, xs in pairs:
            strs = list(map(str, xs)) if den == 1 else [_ratio_str(x, den) for x in xs]
            row[j] = strs + ["0"] * (grades[j] + 1 - len(xs))
        yield row


def polymatrix_obj(m: PolyMatrix) -> dict:
    return _obj(m)


def _parse_poly_row(row) -> tuple:
    """The row form of a row of coefficient lists, built from the (p, q)
    of its coefficients over their lcm, each entry of grade its length
    less one."""
    entries = []
    for e in row:
        if not isinstance(e, list) or not e:
            raise InputError("polynomial must be a non-empty coefficient list")
        entries.append([_ratio(c) for c in e])
    den = math.lcm(*[q for ratios in entries for _, q in ratios])
    pairs = [(j, _trimmed([p * (den // q) for p, q in ratios])) for j, ratios in enumerate(entries)]
    return _poly_row(den, [(j, xs) for j, xs in pairs if xs], [len(e) - 1 for e in row])


def parse_polymatrix(obj) -> PolyMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputError("polynomial matrix needs an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise InputError("'entries' must be a non-empty list of rows")
    form = []
    for row in entries:
        if not isinstance(row, list) or not row or len(row) != len(entries[0]):
            raise InputError("entry rows must be non-empty lists of equal length")
        form.append(_parse_poly_row(row))
    m = PolyMatrix._from_form(len(entries), len(entries[0]), form)
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
    return _obj(p)


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
    return _obj(p)


# -- the writer ---------------------------------------------------------------

# The fields of each object the writer takes apart: a dict, a list or
# strings, whose values the writer writes in turn.
_FIELDS = {
    ConstMatrix: const_matrix_obj,
    PolyQ: polyq_obj,
    PolyMatrix: lambda m: {"rows": m.rows, "cols": m.cols, "entries": list(_poly_rows(m))},
    MatrixPolynomial: lambda p: {"n": p.n, "basis": basis_obj(p.basis),
                                 "coeffs": list(p.coeffs)},
    Pencil: lambda p: {"n": p.n, "blocks": p.block_count, "C1": p.c1, "C0": p.c0,
                       "basis": p.basis_tag},
}


def _obj(x):
    """The JSON object of x: x with each value `_FIELDS` names replaced by
    its fields, each Fraction by its string and each tuple by a list."""
    kind = type(x)
    if kind in _FIELDS:
        return _obj(_FIELDS[kind](x))
    if kind is dict:
        return {k: _obj(v) for k, v in x.items()}
    if kind is list or kind is tuple:
        return [_obj(v) for v in x]
    return frac_str(x) if kind is Fraction else x


def dumps(x) -> str:
    """json.dumps(_obj(x), indent=2, sort_keys=True), written without
    making _obj(x): a matrix or a polynomial is written from its integer
    form, one joined list of strings per row or coefficient list.

    A number over Python's integer-string digit limit (4300 digits by
    default) is refused with InputError; no polylin parser could read it
    back."""
    try:
        return _text(x, "\n")
    except ValueError as exc:  # only str(int) raises it here
        raise InputError(f"cannot write the result: {exc}".split(";")[0]) from None


def _strings_text(strs: list[str], nl: str) -> str:
    """A non-empty list of strings that need no escaping, its closing
    bracket on the line nl starts."""
    inner = nl + "  "
    return "[" + inner + '"' + ('",' + inner + '"').join(strs) + '"' + nl + "]"


def _bracketed(items: list[str], nl: str, brackets: str = "[]") -> str:
    """The written items between brackets, each on its own line, the
    closing bracket on the line nl starts."""
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1] if items else brackets


def _text(x, nl: str) -> str:
    """x as `dumps` writes it, its closing bracket on the line nl starts."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is PolyQ:
        return _strings_text(polyq_obj(x), nl)
    inner = nl + "  "
    if kind is ConstMatrix and x.rows and x.cols:
        return _bracketed([_strings_text(row, inner) for row in _const_rows(x)], nl)
    if kind is PolyMatrix:  # the object {"cols", "entries", "rows"}, in key order
        deeper = inner + "  "
        rows = [_bracketed([_strings_text(e, deeper + "  ") for e in row], deeper)
                for row in _poly_rows(x)]
        return _bracketed([f'"cols": {x.cols}', '"entries": ' + _bracketed(rows, inner),
                           f'"rows": {x.rows}'], nl, "{}")
    if kind in _FIELDS:
        return _text(_FIELDS[kind](x), nl)
    if kind is dict:
        return _bracketed([encode_basestring_ascii(k) + ": " + _text(v, inner)
                           for k, v in sorted(x.items())], nl, "{}")
    if kind is list or kind is tuple:
        return _bracketed([_text(v, inner) for v in x], nl)
    if kind is bool:
        return "true" if x else "false"
    if kind is int:
        return int.__repr__(x)
    if kind is Fraction:
        return '"' + frac_str(x) + '"'
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
