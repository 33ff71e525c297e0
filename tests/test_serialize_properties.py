"""Property tests: JSON serialisation round trips for every basis kind."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polylin import serialize  # noqa: E402
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
