"""Hermite and Smith normal forms over Q[z]."""

import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from polylin import (
    Lagrange,
    MatrixPolynomial,
    PolyMatrix,
    PolyQ,
    Recurrence,
    hermite_form,
    poly_gcd,
    smith_form,
)
from polylin import serialize, verify
from polylin.bases import matrix_poly_as_polymatrix
from polylin.exact import is_unimodular, polymatrix_det, polymatrix_mul, sub_mul
from polylin.normalforms import mask
from polylin.pencils import build_lagrange_pencil, build_pencil, build_recurrence_pencil
from polylin.randgen import rand_fraction
from polylin.verify import _low_unit_inverse, smith_invariants

BENCH = Path(__file__).resolve().parent.parent / "bench"


def rand_polymatrix(rng, n, max_deg):
    entries = []
    for _ in range(n * n):
        deg = rng.randint(0, max_deg)
        entries.append(PolyQ([rand_fraction(rng) for _ in range(deg + 1)], grade=max_deg))
    return PolyMatrix(n, n, entries)


def sympy_factors(m: PolyMatrix):
    z = sympy.symbols("z")
    rows = []
    for i in range(m.rows):
        rows.append([sum(sympy.Rational(c.numerator, c.denominator) * z**k
                         for k, c in enumerate(m.get(i, j).coeffs))
                     for j in range(m.cols)])
    facs = sympy_invariant_factors(sympy.Matrix(rows), domain=sympy.QQ[z])
    out = []
    for f in facs:
        poly = sympy.Poly(f, z, domain=sympy.QQ)
        coeffs = [F(str(c)) for c in reversed(poly.all_coeffs())] if f != 0 else []
        out.append(PolyQ(coeffs).monic())
    return out


class TestHermite:
    def test_swap(self):
        m = PolyMatrix.from_rows([[PolyQ([0]), PolyQ([1])],
                                  [PolyQ([1]), PolyQ([0])]])
        res = hermite_form(m)
        assert res.h == PolyMatrix.identity(2)
        assert res.u == m  # the swap itself
        assert not res.rank_deficient

    def test_already_reduced(self):
        m = PolyMatrix.from_rows([[PolyQ([0, 1]), PolyQ([1])],
                                  [PolyQ([0]), PolyQ([0, 1])]])
        res = hermite_form(m)
        assert res.h == m
        assert res.u == PolyMatrix.identity(2)

    def test_reconstruction_and_fixed_point(self):
        rng = random.Random(70)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = rand_polymatrix(rng, n, 3)
            res = hermite_form(m)
            assert polymatrix_mul(res.u, m) == res.h
            ok, unit = is_unimodular(res.u)
            assert ok
            # determinants agree up to the unit
            assert polymatrix_det(res.h) == polymatrix_det(m).scale(unit)
            again = hermite_form(res.h)
            assert again.h == res.h

    def test_upper_triangular_monic_pivots_reduced(self):
        rng = random.Random(71)
        for _ in range(10):
            m = rand_polymatrix(rng, 4, 2)
            res = hermite_form(m)
            if res.rank_deficient:
                continue
            h = res.h
            for i in range(4):
                assert h.get(i, i).lead == 1
                for j in range(i):
                    assert h.get(i, j).is_zero
                for i2 in range(i):
                    assert h.get(i2, i).degree < h.get(i, i).degree or \
                        h.get(i2, i).is_zero

    def test_rank_deficient_flagged(self):
        m = PolyMatrix.from_rows([[PolyQ([0, 1]), PolyQ([0, 1])],
                                  [PolyQ([0, 1]), PolyQ([0, 1])]])
        res = hermite_form(m)
        assert res.rank_deficient
        assert res.pivot_cols == (0,)
        assert polymatrix_mul(res.u, m) == res.h


def fraction_hermite(m: PolyMatrix):
    """The PolyQ loop hermite_form once was: every update of H and U one
    exact.sub_mul per entry.  Returns H, U, the pivot columns and the flag."""
    n = m.rows
    h = [list(r) for r in m.to_rows()]
    u = [list(r) for r in PolyMatrix.identity(n).to_rows()]

    def row_sub(i, k, q):
        if q.is_zero:
            return
        h[i] = [sub_mul(a, q, b) for a, b in zip(h[i], h[k])]
        u[i] = [sub_mul(a, q, b) for a, b in zip(u[i], u[k])]

    r = 0
    pivots = []
    for c in range(n):
        while True:
            nz = [i for i in range(r, n) if not h[i][c].is_zero]
            if not nz:
                break
            imin = min(nz, key=lambda i: h[i][c].degree)
            if imin != r:
                h[r], h[imin] = h[imin], h[r]
                u[r], u[imin] = u[imin], u[r]
            others = [i for i in range(r + 1, n) if not h[i][c].is_zero]
            if not others:
                break
            for i in others:
                row_sub(i, r, h[i][c] // h[r][c])
        if r < n and not h[r][c].is_zero:
            lc = 1 / h[r][c].lead
            h[r] = [a.scale(lc) for a in h[r]]
            u[r] = [a.scale(lc) for a in u[r]]
            for i in range(r):
                row_sub(i, r, h[i][c] // h[r][c])
            pivots.append(c)
            r += 1
    return PolyMatrix.from_rows(h), PolyMatrix.from_rows(u), tuple(pivots), r < n


def hermite_draw(rng, nmax=6, dmax=4):
    """n 1-nmax and degrees 0-dmax (n times the degree at most 12, which
    keeps the old loops fast); mixed denominators and leads, so pivots are
    rarely monic; declared grades up to 2 above the degree and zero entries of
    grade up to 2; sometimes a zero row, a zero column or a duplicate (or
    scaled) row, which makes the matrix rank deficient."""
    n = rng.randint(1, nmax)
    max_deg = rng.randint(0, min(dmax, 12 // n))

    def entry():
        if rng.random() < 0.2:
            return PolyQ.zero(grade=rng.randint(0, 2))
        deg = rng.randint(0, max_deg)
        coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
                  for _ in range(deg)] + [rand_fraction(rng, nonzero=True)]
        return PolyQ(coeffs, grade=deg + rng.randint(0, 2))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    kind = rng.random()
    if n > 1 and kind < 0.2:
        i, k = rng.sample(range(n), 2)
        rows[i] = [e.scale(rng.choice((1, -2, F(1, 3)))) for e in rows[k]]
    elif kind < 0.3:
        rows[rng.randrange(n)] = [PolyQ.zero(grade=rng.randint(0, 2)) for _ in range(n)]
    elif kind < 0.4:
        j = rng.randrange(n)
        for row in rows:
            row[j] = PolyQ.zero(grade=rng.randint(0, 2))
    return PolyMatrix.from_rows(rows)


class TestHermiteIntegerRows:
    """hermite_form on integer rows over one denominator against the
    sub_mul loop it replaced: the same values, grades, pivots and flag."""

    def test_matches_fraction_loop(self):
        rng = random.Random(78)
        deficient = 0
        for _ in range(300):
            m = hermite_draw(rng)
            res = hermite_form(m)
            h, u, pivots, flag = fraction_hermite(m)
            assert (res.pivot_cols, res.rank_deficient) == (pivots, flag)
            for got, want in ((res.h, h), (res.u, u)):
                assert got == want
                assert [e.grade for e in got.entries] == [e.grade for e in want.entries]
                assert all(type(c) is F for e in got.entries for c in e.coeffs)
            deficient += flag
        assert deficient > 40

class TestSmith:
    def test_diag_sorting(self):
        m = PolyMatrix.from_rows([[PolyQ([0, 1]), PolyQ([0])],
                                  [PolyQ([0]), PolyQ([1])]])
        res = smith_form(m)
        assert [str(s) for s in res.invariant_factors] == ["1", "z"]

    def test_zero_matrix(self):
        m = PolyMatrix.zeros(2, 2)
        res = smith_form(m)
        assert all(s.is_zero for s in res.invariant_factors)
        assert polymatrix_mul(polymatrix_mul(res.e, res.s), res.f) == m

    def test_nonregular_has_zero_factor_last(self):
        m = PolyMatrix.from_rows([[PolyQ([0, 1]), PolyQ([0, 1])],
                                  [PolyQ([0, 1]), PolyQ([0, 1])]])
        res = smith_form(m)
        assert str(res.invariant_factors[0]) == "z"
        assert res.invariant_factors[1].is_zero

    def test_reconstruction_divisibility_unimodularity(self):
        rng = random.Random(72)
        for _ in range(15):
            n = rng.randint(1, 4)
            m = rand_polymatrix(rng, n, 3)
            res = smith_form(m)
            assert polymatrix_mul(polymatrix_mul(res.e, res.s), res.f) == m
            assert is_unimodular(res.e)[0]
            assert is_unimodular(res.f)[0]
            facs = res.invariant_factors
            for a, b in zip(facs, facs[1:]):
                if a.is_zero:
                    assert b.is_zero
                else:
                    assert (b % a).is_zero
            # product of invariant factors = det up to a unit
            det = polymatrix_det(m)
            prod = PolyQ([1])
            for s in facs:
                prod = prod * s
            if det.is_zero:
                assert prod.is_zero
            else:
                assert prod == det.monic()

    def test_against_sympy_oracle(self):
        rng = random.Random(73)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rand_polymatrix(rng, n, 2)
            ours = [s for s in smith_form(m).invariant_factors]
            theirs = sympy_factors(m)
            assert ours == theirs

    def test_invariant_under_unimodular_multiplication(self):
        rng = random.Random(74)
        for _ in range(6):
            m = rand_polymatrix(rng, 3, 2)
            # random unimodular: unit triangulars with polynomial entries
            up = PolyMatrix.identity(3).to_rows()
            lo = PolyMatrix.identity(3).to_rows()
            for i in range(3):
                for j in range(i + 1, 3):
                    up[i][j] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
                    lo[j][i] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
            g = polymatrix_mul(PolyMatrix.from_rows(up), PolyMatrix.from_rows(lo))
            gm = polymatrix_mul(g, m)
            assert smith_form(gm).invariant_factors == smith_form(m).invariant_factors
            mg = polymatrix_mul(m, g)
            assert smith_form(mg).invariant_factors == smith_form(m).invariant_factors


class TestMasks:
    def test_zero_matrix(self):
        assert mask(PolyMatrix.zeros(2, 3)) == ["000", "000"]

    def test_generic_recurrence_pencil_hermite_masks(self):
        a = [F(2), F(3), F(5), F(7), F(11), F(13)]
        p = MatrixPolynomial.scalar(Recurrence.chebyshev(5), a)
        pen = build_recurrence_pencil(p)
        res = hermite_form(pen.as_polymatrix())
        assert mask(res.h) == ["x000x", "0x00x", "00x0x", "000xx", "0000x"]
        # corner is the monic version of the polynomial
        assert res.h.get(4, 4) == polymatrix_det(pen.as_polymatrix()).monic()
        from polylin.exact import polymatrix_inverse_unimodular

        uinv = polymatrix_inverse_unimodular(res.u)
        assert mask(uinv) == ["xxxxx", "xxx00", "0xxx0", "00xx0", "000x0"]

    def test_generic_lagrange_pencil_hermite_masks(self):
        p = MatrixPolynomial.scalar(Lagrange(3, (0, 1, 2, 3)), [1, 2, 3, 5])
        pen = build_lagrange_pencil(p)
        res = hermite_form(pen.as_polymatrix())
        assert mask(res.h) == ["x000x", "0x00x", "00x0x", "000xx", "0000x"]
        from polylin.exact import polymatrix_inverse_unimodular

        uinv = polymatrix_inverse_unimodular(res.u)
        assert mask(uinv) == ["0xxx0", "xx00x", "x0x0x", "x00xx", "x0000"]


class TestPolyGcd:
    def test_basic(self):
        a = PolyQ([2, -3, 1])  # (z-1)(z-2)
        b = PolyQ([-2, 3, -1]).scale(F(1, 7)) * PolyQ([-3, 1])  # same roots + z-3
        g = poly_gcd(a, b)
        assert g == PolyQ([2, -3, 1])

    def test_coprime(self):
        assert poly_gcd(PolyQ([-1, 1]), PolyQ([1, 1])) == PolyQ([1])

    def test_zero(self):
        assert poly_gcd(PolyQ.zero(), PolyQ.zero()).is_zero
        assert poly_gcd(PolyQ([0, 2]), PolyQ.zero()) == PolyQ([0, 1])


def rand_unimodular(rng, n):
    """A row permutation of a unit upper triangular (linear entries) times
    a unit lower triangular (constant entries) matrix."""
    up = PolyMatrix.identity(n).to_rows()
    lo = PolyMatrix.identity(n).to_rows()
    for i in range(n):
        for j in range(i + 1, n):
            up[i][j] = PolyQ([rand_fraction(rng), rand_fraction(rng)])
            lo[j][i] = PolyQ([rand_fraction(rng)])
    u = polymatrix_mul(PolyMatrix.from_rows(up), PolyMatrix.from_rows(lo))
    perm = list(range(n))
    rng.shuffle(perm)
    return PolyMatrix.from_rows([u.row(k) for k in perm])


def rand_divisor_chain(rng, n, zeros=0):
    """Monic s_1 | ... | s_n with s_1 = 1, each step multiplying by up to two
    factors z - r drawn from three roots (so repeated factors are common),
    and the last `zeros` factors 0."""
    roots = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3)]
    chain = [PolyQ([1])]
    for _ in range(n - 1):
        s = chain[-1]
        for _ in range(rng.randint(0, 2)):
            s = s * PolyQ([-rng.choice(roots), 1])
        chain.append(s)
    return chain[:n - zeros] + [PolyQ.zero()] * zeros


def diagonal(entries):
    n = len(entries)
    return PolyMatrix.from_rows([[entries[i] if i == j else PolyQ.zero() for j in range(n)]
                                 for i in range(n)])


def reference_smith_form(m: PolyMatrix, counts: Counter):
    """smith_form as it was written with a row and a column version of each
    step: row_swap/row_sub compensated in E's columns, col_swap/col_sub in
    F's rows, and divisibility tested by PolyQ %.  Returns S, E, F and
    counts each column-pass swap and each divisibility fix-up in `counts`."""
    n = m.rows
    s = m.to_rows()
    e = PolyMatrix.identity(n).to_rows()
    f = PolyMatrix.identity(n).to_rows()

    def row_swap(i, k):
        s[i], s[k] = s[k], s[i]
        for row in e:
            row[i], row[k] = row[k], row[i]

    def col_swap(j, k):
        for row in s:
            row[j], row[k] = row[k], row[j]
        f[j], f[k] = f[k], f[j]

    def row_sub(i, k, q):
        if q.is_zero:
            return
        s[i] = [sub_mul(a, q, b) for a, b in zip(s[i], s[k])]
        neg = -q
        for row in e:
            row[k] = sub_mul(row[k], neg, row[i])

    def col_sub(j, k, q):
        if q.is_zero:
            return
        for row in s:
            row[j] = sub_mul(row[j], q, row[k])
        neg = -q
        f[k] = [sub_mul(a, neg, b) for a, b in zip(f[k], f[j])]

    for t in range(n):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if not s[i][j].is_zero:
                    if best is None or s[i][j].degree < s[best[0]][best[1]].degree:
                        best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            restart = False
            for i in range(t + 1, n):
                if s[i][t].is_zero:
                    continue
                q, rem = divmod(s[i][t], s[t][t])
                row_sub(i, t, q)
                if not rem.is_zero:
                    row_swap(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, n):
                if s[t][j].is_zero:
                    continue
                q, rem = divmod(s[t][j], s[t][t])
                col_sub(j, t, q)
                if not rem.is_zero:
                    col_swap(t, j)
                    counts["column swap"] += 1
                    restart = True
                    break
            if restart:
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (s[i][j] % s[t][t]).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            counts["fix-up"] += 1
            row_sub(t, offender, PolyQ((-1,)))
        if not s[t][t].is_zero and s[t][t].lead != 1:
            c = 1 / s[t][t].lead
            s[t] = [a.scale(c) for a in s[t]]
            for row in e:
                row[t] = row[t].scale(1 / c)
    return [PolyMatrix.from_rows(x) for x in (s, e, f)]


def catalog_smith_inputs():
    """L(z) and P(z) of every Smith slot of the normal-forms catalog (one
    copy of its block), all variants: the inputs of `nf --kind smith`."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import BLOCKS, VARIANTS, instance
    finally:
        sys.path.remove(str(BENCH))
    out = []
    for i, slot in enumerate(BLOCKS["normal-forms"]):
        if ("nf", "smith", "L") not in slot.ops:
            continue
        for v in range(VARIANTS):
            obj = json.loads(json.dumps(instance("normal-forms", i, slot, v)))
            p = serialize.parse_matrix_polynomial(obj)
            out += [build_pencil(p).as_polymatrix(), matrix_poly_as_polymatrix(p)]
    return out


def non_dividing_chains():
    """diag(s) and U diag(s) V with s_i not dividing s_(i+1): the fix-up
    mends such a diagonal."""
    z = PolyQ([0, 1])
    chains = [[z, z + PolyQ([1])], [z + PolyQ([1]), z, PolyQ([1])],
              [z * z, z, PolyQ([-1, 1])], [PolyQ([-2, 1]), PolyQ([3]), z * z, z]]
    rng = random.Random(80)
    out = []
    for s in chains:
        d = diagonal(s)
        out += [d, polymatrix_mul(polymatrix_mul(rand_unimodular(rng, len(s)), d),
                                  rand_unimodular(rng, len(s)))]
    return out


class TestSmithOneClearingStep:
    """smith_form's one clearing step, run on (S, E) and on (S^T, F^T),
    against the row-and-column loop it replaced: the same S, E and F,
    values and grades of every entry."""

    def test_matches_row_and_column_loop(self):
        rng = random.Random(79)
        inputs = (catalog_smith_inputs()
                  + [hermite_draw(rng, nmax=5, dmax=3) for _ in range(60)]
                  + non_dividing_chains())
        counts = Counter()
        for m in inputs:
            res = smith_form(m)
            for got, want in zip((res.s, res.e, res.f), reference_smith_form(m, counts)):
                assert [(e.coeffs, e.grade) for e in got.entries] == \
                    [(e.coeffs, e.grade) for e in want.entries]
        assert len(inputs) == 128 + 60 + 8
        assert counts["column swap"] > 0 and counts["fix-up"] > 0, counts


def reference_smith_invariants(m: PolyMatrix, det: PolyQ) -> list[PolyQ]:
    """verify.smith_invariants as it was written with a Euclidean fallback:
    after the unit pivots, a least-degree pivot cleared by row and column
    division, with rows kept primitive, and a row merge when the pivot
    does not divide a later entry; singular input eliminated with no
    modulus."""
    def primitive(row):
        cs = [c for e in row for c in e.coeffs]
        if not cs:
            return row
        k = F(math.lcm(*(c.denominator for c in cs)), math.gcd(*(c.numerator for c in cs)))
        return [e.scale(k) for e in row] if k != 1 else row

    def diagonal_pivots(modulus):
        def reduced(e):
            return e % modulus if modulus is not None else e

        a = [[reduced(e) for e in row] for row in m.to_rows()]

        def swap_in(i, j):
            a[t], a[i] = a[i], a[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]

        n = len(a)
        pivots = []
        for t in range(n):
            cells = sorted((a[i][j].degree, i, j) for i in range(t, n) for j in range(t, n)
                           if a[i][j].coeffs)
            if not cells:
                break
            inverse = None
            for degree, i, j in cells:
                if degree > 1:
                    break
                inverse = _low_unit_inverse(a[i][j], modulus)
                if inverse is not None:
                    break
            if inverse is None:
                _, i, j = cells[0]
            swap_in(i, j)
            if inverse is not None:
                for i in range(t + 1, n):
                    if a[i][t].coeffs:
                        q = reduced(a[i][t] * inverse)
                        a[i][t:] = [reduced(sub_mul(x, q, y)) for x, y in zip(a[i][t:], a[t][t:])]
                pivots.append(a[t][t])
                continue
            while True:
                pivot = a[t][t]
                swapped = False
                for i in range(t + 1, n):
                    if a[i][t].coeffs:
                        q = a[i][t] // pivot
                        a[i][t:] = primitive([sub_mul(x, q, y) for x, y in zip(a[i][t:], a[t][t:])])
                        if a[i][t].coeffs:
                            a[t], a[i] = a[i], a[t]
                            swapped = True
                            break
                if swapped:
                    continue
                for j in range(t + 1, n):
                    if a[t][j].coeffs:
                        a[t][j] = a[t][j] % pivot
                        if a[t][j].coeffs:
                            swap_in(t, j)
                            swapped = True
                            break
                if swapped:
                    continue
                if pivot.degree == 0:
                    break
                offender = next((i for i in range(t + 1, n)
                                 if any((e % pivot).coeffs for e in a[i][t + 1:])), None)
                if offender is None:
                    break
                a[t][t + 1:] = a[offender][t + 1:]
            pivots.append(a[t][t])
        return pivots

    n = m.rows
    if det.is_zero:
        pivots = [a.monic() for a in diagonal_pivots(None)]
        return pivots + [PolyQ.zero()] * (n - len(pivots))
    g = poly_gcd(det, det.derivative())
    head = [poly_gcd(a, g) for a in diagonal_pivots(g)][:n - 1] if g.degree else []
    head += [g] * (n - 1 - len(head))
    last = det.monic()
    for s in head:
        last = last.exact_div(s)
    return head + [last]


def divisor_chain_draws():
    """80 pairs (U diag(s) V, s) with s a divisor chain, n 2-5, some zero
    factors last."""
    rng = random.Random(75)
    out = []
    for _ in range(80):
        n = rng.randint(2, 5)
        zeros = rng.choice((0, 0, 0, 1, 2)) if n > 2 else 0
        chain = rand_divisor_chain(rng, n, zeros)
        m = polymatrix_mul(polymatrix_mul(rand_unimodular(rng, n), diagonal(chain)),
                           rand_unimodular(rng, n))
        out.append((m, chain))
    return out


def singular_cases():
    """Square matrices with det = 0: a zero matrix, repeated rows, and a
    row twice another beside random entries."""
    z = PolyQ([0, 1])
    cases = [
        PolyMatrix.zeros(3, 3),
        PolyMatrix.from_rows([[z, z], [z, z]]),
        PolyMatrix.from_rows([[z, z * z, PolyQ([1])], [z, z * z, PolyQ([1])],
                              [PolyQ([2]), PolyQ([0, 3]), z]]),
    ]
    rng = random.Random(76)
    for _ in range(6):
        row = [PolyQ([rand_fraction(rng), rand_fraction(rng)]) for _ in range(3)]
        other = rand_polymatrix(rng, 3, 1)
        cases.append(PolyMatrix.from_rows([row, [e.scale(F(2)) for e in row],
                                           other.row(2)]))
    return cases


def catalog_smith_check_inputs():
    """(m, det) of every smith_invariants call that the Smith checks of the
    normal-forms catalog make (big and small matrix of each, all
    variants)."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import VARIANTS, WORKLOADS, instance, ops_of
    finally:
        sys.path.remove(str(BENCH))
    slots = WORKLOADS["normal-forms"]
    seen = []
    record = verify.smith_invariants

    def recording(m, det):
        seen.append((m, det))
        return record(m, det)

    verify.smith_invariants = recording
    try:
        for op in ops_of(slots):
            if op.kind != "verify":
                continue
            check = getattr(verify, op.arg)
            for v in range(VARIANTS):
                obj = json.loads(json.dumps(instance("normal-forms", op.slot, slots[op.slot], v)))
                p = serialize.parse_matrix_polynomial(obj)
                if op.arg == "verify_bernstein_reversal_pencil":
                    check(p)
                else:
                    check(build_pencil(p), p)
    finally:
        verify.smith_invariants = record
    return seen


class TestSmithInvariants:
    """verify.smith_invariants, the Smith checks' E- and F-free invariant
    factors, against smith_form, the Euclidean fallback it replaced and the
    sympy oracle."""

    def test_divisor_chains(self):
        repeated = 0
        for m, chain in divisor_chain_draws():
            n = m.rows
            det = polymatrix_det(m)
            assert smith_invariants(m, det) == chain
            if n <= 4:
                assert list(smith_form(m).invariant_factors) == chain
            if n <= 3:
                assert sympy_factors(m) == chain
            repeated += not det.is_zero and poly_gcd(det, det.derivative()).degree >= 1
        assert repeated > 30

    def test_singular(self):
        for m in singular_cases():
            det = polymatrix_det(m)
            assert det.is_zero
            want = list(smith_form(m).invariant_factors)
            assert smith_invariants(m, det) == want == sympy_factors(m)

    def test_matches_euclidean_fallback(self, monkeypatch):
        # the alternating Hermite forms must run on modular and on singular
        # input, and end within two passes each time they run
        passes = []
        hermite = verify.hermite_form

        def counted(m):
            passes[-1] += 1
            return hermite(m)

        # diag(z, z+1, z(z+1)) has no unit pivot modulo g = z(z+1), and the
        # fallback leaves it as it is: only the gcd/lcm sort puts 1 first
        z = PolyQ([0, 1])
        out_of_order = diagonal([z, z + PolyQ([1]), z * (z + PolyQ([1]))])
        inputs = (catalog_smith_check_inputs()
                  + [(m, polymatrix_det(m)) for m, _ in divisor_chain_draws()]
                  + [(m, polymatrix_det(m)) for m in singular_cases()]
                  + [(m, polymatrix_det(m)) for m in non_dividing_chains() + [out_of_order]])
        monkeypatch.setattr(verify, "hermite_form", counted)
        ran = Counter()
        for m, det in inputs:
            passes.append(0)
            assert smith_invariants(m, det) == reference_smith_invariants(m, det)
            ran["singular" if det.is_zero else "modular"] += passes[-1] > 0
        assert len(inputs) == 2 * 456 + 80 + 9 + 8 + 1
        assert ran["modular"] > 0 and ran["singular"] > 0, ran
        assert max(passes) <= 2, max(passes)

    def test_smith_of_diagonal(self):
        z = PolyQ([0, 1])
        one = PolyQ([1])
        diagonals = [
            [z, PolyQ.zero(), z + one, z * z * (z + one), PolyQ([3])],
            [z * z, z, PolyQ([-1, 1])],
            [(z + one) * (z + one), (z + one).scale(F(-2)), z * (z + one), z * z * z],
            [PolyQ.zero(), PolyQ([F(1, 2)]), PolyQ.zero(), z.scale(F(7))],
            [PolyQ([-2, 1]), PolyQ([3]), z * z, z],
            [PolyQ.zero(), PolyQ.zero()],
        ]
        for d in diagonals:
            assert verify._smith_of_diagonal(d) == sympy_factors(diagonal(d)), d

    def test_squarefree_determinant(self):
        # gcd(det, det') = 1: no elimination, the factors 1 and monic det
        z = PolyQ([0, 1])
        m = diagonal([z.scale(F(3)), PolyQ([-5, 1])])
        assert smith_invariants(m, polymatrix_det(m)) == [PolyQ([1]), z * PolyQ([-5, 1])]
        rng = random.Random(77)
        mixed = polymatrix_mul(polymatrix_mul(rand_unimodular(rng, 2), m),
                               rand_unimodular(rng, 2))
        assert smith_invariants(mixed, polymatrix_det(mixed)) == sympy_factors(mixed)
