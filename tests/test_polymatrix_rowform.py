"""PolyMatrix on its integer row form against the PolyQ-entry path it
replaced (the `entry_*` oracles in conftest): every constructor and kernel
gives the same entry values and the same grade for every entry, zeros
included.  The draws hold zero entries of nonzero grade, products whose
terms cancel, rows over pairwise coprime denominators, and 0-by-k, k-by-0
and 1-by-1 shapes.

The last test pins the work of one certify-large-sized cofactor check: how
many PolyQ objects it makes, and that no polynomial matrix makes its
entries before the certificate is written."""

import json
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    entry_add,
    entry_block,
    entry_det,
    entry_dumps,
    entry_evaluate,
    entry_from_blocks,
    entry_from_coeffs,
    entry_hermite,
    entry_hstack,
    entry_inverse,
    entry_key,
    entry_map,
    entry_mask,
    entry_mul,
    entry_parse_polymatrix,
    entry_scalar,
    entry_unit_by_inverse,
    reference_polymatrix_mul,
)
from polylin import cli, exact, poly, serialize  # noqa: E402
from polylin.bases import Bernstein  # noqa: E402
from polylin.exact import (  # noqa: E402
    ConstMatrix,
    PolyMatrix,
    PolyQ,
    polymatrix_det,
    polymatrix_inverse_unimodular,
    polymatrix_mul,
    unit_by_inverse,
)
from polylin.normalforms import hermite_form, mask  # noqa: E402
from polylin.randgen import rand_matrix_polynomial  # noqa: E402

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True)

# pairwise coprime denominators; entry j of a "coprime" row is over PRIMES[j]
PRIMES = (2, 3, 5, 7, 11, 13)
DENS = (1, 2, 3, 4, 6, 9, 5)


@st.composite
def polys(draw, den=None, max_len=4):
    """An entry: a zero of grade 0 to 3, or up to max_len coefficients
    over one denominator, of grade its degree plus 0 to 2."""
    if draw(st.integers(0, 3)) == 0:
        return PolyQ.zero(draw(st.integers(0, 3)))
    d = den or draw(st.sampled_from(DENS))
    cs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=max_len))
    p = PolyQ([Fraction(c, d) for c in cs])
    return p.with_grade(max(p.degree, 0) + draw(st.integers(0, 2)))


@st.composite
def polymatrices(draw, rows=None, cols=None):
    """A matrix built from PolyQ entries (its row form is made on first
    read), each row over random or over pairwise coprime denominators."""
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    coprime = draw(st.booleans())
    return PolyMatrix(rows, cols, [draw(polys(PRIMES[j] if coprime else None))
                                   for _ in range(rows) for j in range(cols)])


@st.composite
def const_matrices(draw, rows, cols):
    cell = st.integers(-5, 5).map(Fraction) | st.builds(Fraction, st.integers(-9, 9),
                                                        st.sampled_from(DENS))
    return ConstMatrix(rows, cols, draw(st.lists(cell | st.just(Fraction(0)),
                                                 min_size=rows * cols, max_size=rows * cols)))


def assert_row_form(m: PolyMatrix):
    """The form is canonical: d > 0 and gcd(d, ints) = 1 in each row, the
    nonzero entries in column order with tuples of ints that end in a
    nonzero int, and a grade for every entry at least its degree."""
    assert len(m._form) == m.rows
    for den, pairs, grades in m._form:
        assert den > 0 and len(grades) == m.cols
        assert math.gcd(den, *(x for _, xs in pairs for x in xs)) == 1
        assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})
        for j, xs in pairs:
            assert type(xs) is tuple and xs and xs[-1] and 0 <= j < m.cols
            assert grades[j] >= len(xs) - 1


def same(got: PolyMatrix, want: PolyMatrix):
    """got, built as a row form, has want's shape, entries and grades."""
    assert_row_form(got)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert entry_key(got) == entry_key(want)
    assert got == want and hash(got) == hash(want)


class TestConstructors:
    @BOUNDED
    @given(polymatrices())
    def test_entries_round_trip_through_the_form(self, m):
        got = PolyMatrix._from_form(m.rows, m.cols, m._form)
        same(got, m)
        assert got.is_zero == all(e.is_zero for e in m.entries)
        assert got.max_degree() == max((e.degree for e in m.entries), default=-1)

    @BOUNDED
    @given(st.data(), st.integers(0, 3), st.integers(0, 3), st.integers(1, 4))
    def test_from_coeffs(self, data, rows, cols, k):
        blocks = [data.draw(const_matrices(rows, cols)) for _ in range(k)]
        top = max((e for e, b in enumerate(blocks) if not b.is_zero), default=0)
        for grade in (None, top, k - 1, k + 1):
            same(PolyMatrix.from_coeffs(blocks, grade), entry_from_coeffs(blocks, grade))
        same(PolyMatrix.from_const(blocks[0]), entry_from_coeffs(blocks[:1]))
        if top:
            with pytest.raises(ValueError):
                PolyMatrix.from_coeffs(blocks, top - 1)

    @BOUNDED
    @given(st.data(), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3))
    def test_blocks_scalars_and_slices(self, data, n, br, bc):
        grid = [[data.draw(st.none() | polymatrices(n, n)) for _ in range(bc)] for _ in range(br)]
        m = PolyMatrix.from_blocks(grid, n)
        same(m, entry_from_blocks(grid, n))
        for i in range(br):
            for j in range(bc):
                same(m.block(i, j, n), entry_block(m, i, j, n))
        p = data.draw(polys())
        same(PolyMatrix.scalar(n, p), entry_scalar(n, p))
        same(PolyMatrix.identity(n), entry_scalar(n, PolyQ((1,))))
        same(PolyMatrix.zeros(br, bc), PolyMatrix(br, bc, [PolyQ.zero()] * (br * bc)))
        cuts = data.draw(st.lists(st.tuples(st.integers(0, bc * n), st.integers(0, bc * n)),
                                  min_size=1, max_size=3))
        parts = [(m, min(lo, hi), max(lo, hi)) for lo, hi in cuts]
        same(PolyMatrix.hstack(parts), entry_hstack(parts))

    @BOUNDED
    @given(polymatrices(0, None), polymatrices(None, 0))
    def test_empty_shapes(self, wide, tall):
        for m in (wide, tall):
            same(PolyMatrix._from_form(m.rows, m.cols, m._form), m)
            same(-m, m)
            assert m.is_zero and m.max_degree() == -1
        same(polymatrix_mul(tall, wide), entry_mul(tall, wide))
        same(polymatrix_mul(wide, PolyMatrix(wide.cols, 2, [PolyQ((1, 1))] * (2 * wide.cols))),
             PolyMatrix(0, 2, []))


class TestArithmetic:
    @BOUNDED
    @given(st.data(), st.integers(0, 3), st.integers(0, 3))
    def test_sums_scalings_and_values(self, data, rows, cols):
        a = data.draw(polymatrices(rows, cols))
        b = data.draw(polymatrices(rows, cols))
        same(a + b, entry_add(a, b))
        same(a - b, entry_add(a, b, -1))
        same(a - a, entry_add(a, a, -1))  # every entry cancels, each keeps its grade
        same(-a, entry_map(a, lambda e: -e))
        c = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(10, 9)]))
        same(a.scale(c), entry_map(a, lambda e: e.scale(c)))
        p = data.draw(polys())
        same(a.scale_poly(p), entry_map(a, lambda e: p * e))
        grade = max(a.max_degree(), 0) + data.draw(st.integers(0, 2))
        same(a.with_grade(grade), entry_map(a, lambda e: e.with_grade(grade)))
        x = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5)]))
        assert a.evaluate(x) == entry_evaluate(a, x)

    @BOUNDED
    @given(st.data(), st.integers(0, 3), st.integers(0, 3))
    def test_exact_division(self, data, rows, cols):
        a = data.draw(polymatrices(rows, cols))
        p = data.draw(polys())
        if p.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.exact_div(p)
            return
        m = entry_map(a, lambda e: e * p)
        same(m.exact_div(p), entry_map(m, lambda e: e.exact_div(p)))
        divisor = PolyQ((Fraction(1, 3), 1))  # z + 1/3 divides no integer-root entry
        inexact = [e for e in m.entries if not e.is_zero and not (e % divisor).is_zero]
        if inexact:
            with pytest.raises(ValueError):
                m.exact_div(divisor)


class TestKernels:
    @BOUNDED
    @given(st.data(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_products(self, data, rows, inner, cols):
        a = data.draw(polymatrices(rows, inner))
        b = data.draw(polymatrices(inner, cols))
        c = data.draw(polymatrices(cols, data.draw(st.integers(0, 2))))
        same(polymatrix_mul(a, b), entry_mul(a, b))
        same(polymatrix_mul(a, b), reference_polymatrix_mul(a, b))
        same(polymatrix_mul(a, b, c), entry_mul(a, b, c))
        # [a | a] @ [b ; -b] = 0: each entry's terms cancel and it keeps its grade
        aa = entry_hstack([(a, 0, inner), (a, 0, inner)])
        bb = PolyMatrix(2 * inner, cols, b.entries + entry_map(b, lambda e: -e).entries)
        got = polymatrix_mul(aa, bb)
        same(got, entry_mul(aa, bb))
        assert got.is_zero

    @BOUNDED
    @given(st.data(), st.integers(0, 3))
    def test_determinant_and_hermite(self, data, n):
        m = data.draw(polymatrices(n, n))
        got, want = polymatrix_det(m), entry_det(m)
        assert (got.ints, got.den, got.grade) == (want.ints, want.den, want.grade)
        res = hermite_form(m)
        h, u, pivots, deficient = entry_hermite(m)
        same(res.h, h)
        same(res.u, u)
        assert (res.pivot_cols, res.rank_deficient) == (pivots, deficient)
        assert mask(m) == entry_mask(m)

    @BOUNDED
    @given(st.data(), st.integers(1, 3))
    def test_inverse_and_unit(self, data, n):
        """m = lower @ diag @ upper, unit triangular factors with
        polynomial entries off the diagonal and a constant diagonal."""
        def triangular(lower):
            return PolyMatrix(n, n, [PolyQ((1,)) if i == j else
                                     data.draw(polys(max_len=2)) if (i > j) == lower else
                                     PolyQ.zero() for i in range(n) for j in range(n)])
        diag = PolyMatrix(n, n, [PolyQ((data.draw(st.sampled_from([1, -2, Fraction(3, 5)])),))
                                 if i == j else PolyQ.zero() for i in range(n) for j in range(n)])
        m = entry_mul(triangular(True), diag, triangular(False))
        inv = polymatrix_inverse_unimodular(m)
        same(inv, entry_inverse(m))
        assert unit_by_inverse(m, inv) == entry_unit_by_inverse(m, inv) == m.evaluate(0).det()
        wrong = inv.scale(2)
        assert unit_by_inverse(m, wrong) is None and entry_unit_by_inverse(m, wrong) is None

    @BOUNDED
    @given(polymatrices())
    def test_writer_and_reader(self, m):
        text = serialize.dumps(m)
        assert text == entry_dumps(m)
        assert serialize.polymatrix_obj(m) == json.loads(text)
        if m.rows and m.cols:
            obj = json.loads(text)
            same(serialize.parse_polymatrix(obj), entry_parse_polymatrix(obj))


class TestCofactorCheckWork:
    """cli._check_cofactors on a certify-large-sized Bernstein input (n = 3,
    L = 4, a 12x12 pencil): E, F and the claimed E^-1 stay row forms from
    their constructors through verification and writing, and the PolyQs
    made are the n-by-n scalars of the construction and the determinant
    that proves F unimodular."""

    def test_polyq_count_and_no_entries(self, monkeypatch):
        made = {"init": 0, "form": 0}
        read = []
        init, from_form, getattr_ = PolyQ.__init__, poly._from_form, exact._Matrix.__getattr__

        def spy_init(self, *args, **kwargs):
            made["init"] += 1
            init(self, *args, **kwargs)

        def spy_form(*args):
            made["form"] += 1
            return from_form(*args)

        def spy_getattr(self, name):
            if name == "entries" and isinstance(self, PolyMatrix):
                read.append((self.rows, self.cols))
            return getattr_(self, name)

        p = rand_matrix_polynomial(random.Random(97), Bernstein(4), 3)
        route = cli.ROUTES["bernstein"]
        pairs = []
        kept = route._replace(cofactors=lambda p, pen: pairs.append(route.cofactors(p, pen))
                              or pairs[-1])
        monkeypatch.setattr(PolyQ, "__init__", spy_init)
        monkeypatch.setattr(poly, "_from_form", spy_form)
        monkeypatch.setattr(exact._Matrix, "__getattr__", spy_getattr)
        verdict, factors = cli._check_cofactors(kept, p)
        text = serialize.dumps(factors)
        counts = dict(made)
        monkeypatch.undo()
        assert verdict.ok and pairs[0].e_inv is not None
        assert (pairs[0].e.rows, pairs[0].f.rows) == (12, 12)
        assert read == []
        # PolyQ.__init__: z - 1, L z and the two i/(L+1-i) z of the
        # construction; _from_form: det F, one PolyQ of its grade
        assert counts == {"init": 4, "form": 1}
        assert json.loads(text) == {"E": json.loads(entry_dumps(pairs[0].e)),
                                    "F": json.loads(entry_dumps(pairs[0].f))}
