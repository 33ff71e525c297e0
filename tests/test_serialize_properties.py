"""Property tests: JSON serialisation round trips for every basis kind, the
writer against json.dumps, and the CLI exit-code contract on damaged
inputs."""

import copy
import json
import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polylin import pencils, serialize  # noqa: E402
from polylin.cli import main  # noqa: E402
from polylin.bases import (  # noqa: E402
    Bernstein,
    Lagrange,
    MatrixPolynomial,
    Monomial,
    Recurrence,
)
from polylin.exact import ConstMatrix, PolyMatrix, PolyQ  # noqa: E402

BOUNDED = settings(max_examples=25, deadline=None, derandomize=True)

fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
nonzero_fractions = fractions.filter(lambda x: x != 0)


@st.composite
def bases(draw, kind):
    grade = draw(st.integers(1, 4))
    if kind == "monomial":
        return Monomial(grade)
    if kind == "bernstein":
        return Bernstein(grade)
    if kind == "recurrence":
        steps = st.lists(fractions, min_size=grade, max_size=grade)
        alpha = draw(st.lists(nonzero_fractions, min_size=grade, max_size=grade))
        return Recurrence(grade, tuple(alpha), tuple(draw(steps)), tuple(draw(steps)))
    nodes = draw(st.lists(fractions, min_size=grade + 1, max_size=grade + 1, unique=True))
    return Lagrange(grade, tuple(nodes))


@st.composite
def matrix_polynomials(draw, kind):
    basis = draw(bases(kind))
    n = draw(st.integers(1, 3))
    block = st.lists(fractions, min_size=n * n, max_size=n * n)
    coeffs = tuple(ConstMatrix(n, n, draw(block)) for _ in range(basis.grade + 1))
    return MatrixPolynomial(n, basis, coeffs)


@st.composite
def polymatrices(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = []
    for _ in range(rows * cols):
        cs = draw(st.lists(fractions, min_size=1, max_size=4))
        # a declared grade above the degree: the serialized form pads to it
        entries.append(PolyQ(cs, grade=len(cs) - 1 + draw(st.integers(0, 2))))
    return PolyMatrix(rows, cols, entries)


def through_json(obj):
    return json.loads(json.dumps(obj))


@st.composite
def const_matrices(draw):
    """A matrix read from entries, or built as a row form by a product, a
    sum or a scaling, so that no entry exists before it is written."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.lists(fractions | st.just(Fraction(0)), min_size=rows * cols,
                       max_size=rows * cols)
    m = ConstMatrix(rows, cols, draw(entries))
    way = draw(st.sampled_from(["entries", "product", "sum", "scale"]))
    if way == "product":
        return ConstMatrix(rows, rows, draw(st.lists(fractions, min_size=rows * rows,
                                                     max_size=rows * rows))) @ m
    if way == "sum":
        return m - ConstMatrix(rows, cols, draw(entries))
    if way == "scale":
        return m.scale(draw(fractions))
    return m


@BOUNDED
@given(const_matrices())
def test_const_matrix_obj_matches_frac_str(m):
    got = serialize.const_matrix_obj(m)
    assert got == [[serialize.frac_str(x) for x in row] for row in m.to_rows()]


@pytest.mark.parametrize("kind", ["monomial", "recurrence", "bernstein", "lagrange"])
@BOUNDED
@given(data=st.data())
def test_matrix_polynomial_round_trip(kind, data):
    p = data.draw(matrix_polynomials(kind))
    obj = through_json(serialize.matrix_polynomial_obj(p))
    assert serialize.parse_matrix_polynomial(obj) == p


@BOUNDED
@given(m=polymatrices())
def test_polymatrix_round_trip(m):
    obj = through_json(serialize.polymatrix_obj(m))
    back = serialize.parse_polymatrix(obj)
    assert serialize.polymatrix_obj(back) == serialize.polymatrix_obj(m)
    assert back == m and [e.grade for e in back.entries] == [e.grade for e in m.entries]


# -- the writer against its oracle ------------------------------------------

def obj_form(x):
    """The JSON object of x, built by the `*_obj` functions."""
    for kind, obj in [(ConstMatrix, serialize.const_matrix_obj), (PolyQ, serialize.polyq_obj),
                      (PolyMatrix, serialize.polymatrix_obj), (Fraction, serialize.frac_str),
                      (MatrixPolynomial, serialize.matrix_polynomial_obj),
                      (pencils.Pencil, serialize.pencil_obj)]:
        if isinstance(x, kind):
            return obj(x)
    if isinstance(x, dict):
        return {k: obj_form(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [obj_form(v) for v in x]
    return x


big_fractions = st.builds(Fraction, st.integers(-10**90, 10**90), st.integers(1, 10**45))
mixed_fractions = fractions | big_fractions | st.integers(-10**90, 10**90).map(Fraction) \
    | st.just(Fraction(0))


@st.composite
def polys(draw):
    """Mixed denominators, large numerators, zero polynomials and grades
    above the degree."""
    cs = draw(st.lists(mixed_fractions, min_size=1, max_size=5))
    return PolyQ(cs, grade=len(cs) - 1 + draw(st.integers(0, 3)))


@st.composite
def wide_const_matrices(draw):
    """Zero matrices, and entries with mixed and large denominators."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return ConstMatrix.zeros(rows, cols)
    return ConstMatrix(rows, cols, draw(st.lists(mixed_fractions, min_size=rows * cols,
                                                 max_size=rows * cols)))


@st.composite
def polynomials_and_pencils(draw):
    kind = draw(st.sampled_from(["monomial", "recurrence", "bernstein", "lagrange"]))
    p = draw(matrix_polynomials(kind))
    if p.grade < 2 and kind in ("recurrence", "bernstein"):
        return p  # their pencils need grade 2
    return draw(st.sampled_from([p, pencils.build_pencil(p)]))


leaves = (const_matrices() | wide_const_matrices() | polys() | polymatrices()
          | mixed_fractions | st.integers(-10**90, 10**90) | st.booleans()
          | st.text(max_size=6))
json_trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_trees | polynomials_and_pencils())
def test_dumps_matches_json_dumps(x):
    """dumps gives the bytes of json.dumps(indent=2, sort_keys=True) of the
    JSON object; the strings include non-ASCII text, whose escapes must
    match, and empty dicts, lists and strings."""
    assert serialize.dumps(x) == json.dumps(obj_form(x), indent=2, sort_keys=True)


# -- the CLI exit-code contract -------------------------------------------

def positions(tree, at=()):
    """Every position below the root of a JSON tree, as key/index paths."""
    items = tree.items() if isinstance(tree, dict) else \
        enumerate(tree) if isinstance(tree, list) else ()
    out = []
    for key, child in items:
        out.append(at + (key,))
        out += positions(child, at + (key,))
    return out


def node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


OTHER_TYPES = st.sampled_from(
    [None, True, False, 0, -1, 7, 1.5, "", "x", "3", [], {}, [[]], ["1"]])
# above Python's default 4300-digit limit for int(str), and just below it
LONG_INTEGERS = st.builds(lambda sign, k: sign + "9" * k,
                          st.sampled_from(["", "-"]), st.sampled_from([4299, 4301, 5000]))


@st.composite
def damaged(draw, obj):
    """obj with one key dropped, one value of another type, one list cut
    short, or one value replaced by an over-long integer string."""
    obj = copy.deepcopy(obj)
    how = draw(st.sampled_from(["drop", "swap", "shorten", "long"]))
    if how == "shorten":
        path = draw(st.sampled_from([p for p in positions(obj)
                                     if isinstance(node(obj, p), list)]))
        target = node(obj, path)
        if target:
            del target[draw(st.integers(0, len(target) - 1)):]
        return obj
    path = draw(st.sampled_from(positions(obj)))
    parent, key = node(obj, path[:-1]), path[-1]
    if how == "drop":
        del parent[key]
    else:
        parent[key] = draw(OTHER_TYPES if how == "swap" else LONG_INTEGERS)
    return obj


def run_cli(command, option, obj):
    with tempfile.TemporaryDirectory() as tmp:
        infile = os.path.join(tmp, "in.json")
        with open(infile, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return main([command, "--in", infile, option[0], option[1],
                     "--out", os.path.join(tmp, "out.json")])


@BOUNDED
@given(data=st.data())
def test_equiv_exit_codes_on_damaged_input(data):
    kind = data.draw(st.sampled_from(["monomial", "recurrence", "bernstein", "lagrange"]))
    obj = serialize.matrix_polynomial_obj(data.draw(matrix_polynomials(kind)))
    mode = data.draw(st.sampled_from(["cofactors", "strict", "reversal"]))
    assert run_cli("equiv", ("--mode", mode), data.draw(damaged(obj))) in (0, 1, 2, 3)


@BOUNDED
@given(data=st.data())
def test_nf_exit_codes_on_damaged_input(data):
    obj = serialize.polymatrix_obj(data.draw(polymatrices()))
    kind = data.draw(st.sampled_from(["hermite", "smith", "mask"]))
    assert run_cli("nf", ("--kind", kind), data.draw(damaged(obj))) in (0, 1, 2, 3)
