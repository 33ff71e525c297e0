"""Exact rationals and univariate polynomials over Q.

`PolyQ` keeps one canonical integer form and its arithmetic runs on ints;
the integer kernels here (convolution, pseudo-division, a - q*b, the
Bareiss determinant and interpolation at 0, 1, ...) are shared with the
polynomial-matrix code in `exact` and `normalforms`.
Every value is immutable after construction and every operation is a pure
function.  (A PolyQ may fill in its Fraction coefficients on first read;
they are a function of its integer form, so a second thread that makes
them makes the same value.)
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)


def as_fraction(x) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to a Fraction.

    Floats are rejected: binary floats would silently corrupt exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class PolyQ:
    """Dense univariate polynomial over Q with an explicit grade.

    Coefficient k is the coefficient of z^k.  The grade is a declared
    degree bound: it is carried through arithmetic and never re-inferred
    from trailing zeros, so a polynomial can be "of grade 5" while having
    degree 2.  The degree of the zero polynomial is the sentinel -1.

    Its integer representation is canonical, as a ConstMatrix row form is:
    `ints`, the coefficients times their common denominator `den`, with no
    trailing zero, and den > 0 with gcd(den, ints) = 1; the zero polynomial
    is ((), 1).  So polynomials are equal exactly when (ints, den) are.
    The arithmetic works on ints and builds its results in this form;
    `coeffs`, the coefficients as reduced Fractions, is made on first read
    (by `__getattr__`) and then kept.  A PolyQ built from Fractions keeps
    the ones it was given.
    """

    __slots__ = ("ints", "den", "grade", "coeffs")

    def __init__(self, coeffs=(), grade: int | None = None):
        cs = list(coeffs)
        if set(map(type, cs)) - {Fraction}:
            cs = [as_fraction(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        pairs = [c.as_integer_ratio() for c in cs]
        den = math.lcm(*(d for _, d in pairs))
        _init(self, tuple(p * (den // d) for p, d in pairs), den, grade)
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    def __getattr__(self, name):
        # reached only while the slot `name` is unset
        if name != "coeffs":
            raise AttributeError(name)
        den = self.den
        value = tuple(Fraction(x, den) if x else ZERO for x in self.ints)
        _set_coeffs(self, value)
        return value

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, grade: int = 0) -> "PolyQ":
        return _from_form((), 1, grade)

    @classmethod
    def constant(cls, c, grade: int = 0) -> "PolyQ":
        return cls((c,), grade)

    @classmethod
    def monomial(cls, k: int, c=1, grade: int | None = None) -> "PolyQ":
        return cls((0,) * k + (c,), grade)

    # -- inspection ---------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lead(self) -> Fraction:
        return Fraction(self.ints[-1], self.den) if self.ints else ZERO

    def coeff(self, k: int) -> Fraction:
        x = self.ints[k] if 0 <= k < len(self.ints) else 0
        return Fraction(x, self.den) if x else ZERO

    def padded(self, grade: int | None = None) -> list[Fraction]:
        """Coefficient list of length grade+1, trailing zeros included."""
        if grade is None:
            grade = self.grade
        if grade < self.degree:
            raise ValueError("padding grade smaller than degree")
        return [self.coeff(k) for k in range(grade + 1)]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "PolyQ", sign: int = 1) -> "PolyQ":
        """self + sign * other over the lcm of the two denominators, brought
        to canonical form by one gcd."""
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        xs, ys = self.ints, other.ints
        if len(xs) < len(ys):
            xs, ys, ma, mb = ys, xs, mb, ma
        out = [ma * x for x in xs]
        for k, y in enumerate(ys):
            out[k] += mb * y
        return _poly_from_ints(out, den, max(self.grade, other.grade))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self.__add__(other, -1)

    def __neg__(self) -> "PolyQ":
        return _from_form(tuple(-x for x in self.ints), self.den, self.grade)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        """Exact product of grade self.grade + other.grade: the integer forms
        convolved over the product of the denominators, one gcd."""
        grade = self.grade + other.grade
        if not (self.ints and other.ints):
            return PolyQ.zero(grade)
        return _poly_from_ints(_convolve(self.ints, other.ints), self.den * other.den, grade)

    def scale(self, c) -> "PolyQ":
        p, q = as_fraction(c).as_integer_ratio()
        return _poly_from_ints([p * x for x in self.ints], self.den * q, self.grade)

    def _value(self, u: int, w: int) -> tuple[int, int]:
        """self(u/w) as (num, den), not in lowest terms: integer Horner on
        sum_k ints[k] u^k w^(D-k) over den w^D, D the degree (w > 0)."""
        acc, pw = 0, 1
        for c in reversed(self.ints):
            acc = acc * u + c * pw
            pw *= w
        return acc, self.den * (pw // w)

    def __call__(self, x) -> Fraction:
        if not self.ints:
            return ZERO
        return Fraction(*self._value(*as_fraction(x).as_integer_ratio()))

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """Quotient and remainder, each of grade equal to its degree.

        With the integer forms N / dn and D / dv, `_pseudo_divide` finds
        ints Q, R and s with s * N = Q * D + R; then q = Q * dv / (s * dn)
        and r = R / (s * dn).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return PolyQ.zero(), self
        quot, rem, s = _pseudo_divide(list(self.ints), other.ints)
        den = self.den * s
        return (_poly_from_ints([other.den * x for x in quot], den),
                _poly_from_ints(rem, den))

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"inexact polynomial division: remainder {r}")
        return q

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        return _poly_from_ints(self.ints, self.ints[-1], self.grade)

    def derivative(self) -> "PolyQ":
        return _poly_from_ints([k * x for k, x in enumerate(self.ints)][1:], self.den,
                               max(self.grade - 1, 0))

    def with_grade(self, grade: int) -> "PolyQ":
        return _from_form(self.ints, self.den, grade)

    # -- comparison / output -------------------------------------------
    def __eq__(self, other) -> bool:
        # equality of values; the grade is bookkeeping and not compared
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    body = zk
                elif c == -1:
                    body = f"-{zk}"
                else:
                    body = f"{c}*{zk}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"PolyQ({self})"


# the slots' own setters skip the immutable __setattr__, at half the cost
# of object.__setattr__
_set_ints, _set_den, _set_grade = PolyQ.ints.__set__, PolyQ.den.__set__, PolyQ.grade.__set__
_set_coeffs = PolyQ.coeffs.__set__


def _init(p: PolyQ, ints: tuple, den: int, grade: int | None):
    degree = len(ints) - 1
    if grade is None:
        grade = max(degree, 0)
    elif grade < degree:
        raise ValueError(f"grade {grade} smaller than degree {degree}")
    _set_ints(p, ints)
    _set_den(p, den)
    _set_grade(p, int(grade))


def _from_form(ints: tuple, den: int, grade: int | None) -> PolyQ:
    """The PolyQ whose canonical integer form is (ints, den)."""
    p = object.__new__(PolyQ)
    _init(p, ints, den, grade)
    return p


def _poly_from_ints(ints, den: int, grade: int | None = None) -> PolyQ:
    """The PolyQ with coefficients ints / den (den nonzero), brought to its
    canonical form by one gcd; ints is not changed."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    g = math.gcd(den, *ints)
    if den < 0:
        g = -g
    ints = ints[:n] if n < len(ints) else ints
    if g == 1:
        return _from_form(tuple(ints), den, grade)
    return _from_form(tuple([x // g for x in ints]), den // g, grade)


POLY_ONE = PolyQ((1,))
POLY_Z = PolyQ((0, 1))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over Q[z]; gcd(0, 0) = 0.

    A primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967; Knuth,
    TAOCP vol. 2, 4.6.1) on the integer forms: each pseudo-remainder is
    divided by the gcd of its coefficients, so the loop runs on ints that
    the division keeps small.  The last nonzero remainder is divided by its
    lead once.
    """
    xs, ys = list(a.ints), list(b.ints)
    while ys:
        rem = _pseudo_divide(xs, ys)[1]
        while rem and not rem[-1]:
            rem.pop()
        if rem:
            c = math.gcd(*rem)
            rem = [x // c for x in rem]
        xs, ys = ys, rem
    return _poly_from_ints(xs, xs[-1]) if xs else PolyQ.zero()


def _pseudo_divide(num: list[int], den) -> tuple[list[int], list[int], int]:
    """Ints Q, R and s with s * num = Q * den + R and len(R) < len(den), by
    integer pseudo-division (Knuth, TAOCP vol. 2, 4.6.1); num is overwritten.

    A step whose top coefficient t the lead l of den does not divide first
    multiplies the partial remainder, the quotient so far and s by
    l / gcd(t, l), so no step rescales when l is 1.  R may end in zeros.
    """
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - dd, 0)
    s = 1
    for k in range(len(num) - dd - 1, -1, -1):
        top = num[dd + k]
        if not top:
            continue
        c, rem = divmod(top, lead)
        if rem:
            m = lead // math.gcd(top, lead)
            num = [m * x for x in num]
            quot = [m * x for x in quot]
            s *= m
            c = top * m // lead
        quot[k] = c
        for j, y in enumerate(den, k):
            num[j] -= c * y
    return quot, num[:dd], s


def _convolve(xs, ys) -> list[int]:
    """Coefficients of the product of two nonempty integer polynomials."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys, i):
                out[j] += x * y
    return out


def sub_mul(a: PolyQ, q: PolyQ, b: PolyQ) -> PolyQ:
    """a - q * b, of grade max(a.grade, q.grade + b.grade) as the two PolyQ
    operations give.

    q * b is convolved on the integer forms and subtracted from a's over
    the least common denominator, one gcd.
    """
    grade = max(a.grade, q.grade + b.grade)
    if not (q.ints and b.ints):
        return a if a.grade == grade else a.with_grade(grade)
    prod = _convolve(q.ints, b.ints)
    dp = q.den * b.den
    den = math.lcm(a.den, dp)
    ma, mp = den // a.den, den // dp
    out = [ma * x for x in a.ints]
    out.extend([0] * (len(prod) - len(out)))
    for k, c in enumerate(prod):
        out[k] -= mp * c
    return _poly_from_ints(out, den, grade)


def _bareiss_int(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination (Math. Comp. 22, 1968); m is overwritten.

    Every division is exact, so the inner loop runs on plain Python ints
    with no per-operation gcd.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def _interp_at_integers(values: list[int], den: int, grade: int) -> PolyQ:
    """The polynomial p of degree < len(values) with p(z) = values[z] / den
    at z = 0, 1, ..., len(values)-1, of the stated grade.

    With D = len(values)-1, the Newton forward differences d_k of the values
    give D! p(z) = sum_k d_k (D!/k!) z(z-1)...(z-k+1), which is expanded on
    ints by nested multiplication and put over D! den by one gcd.
    """
    d = len(values) - 1
    diffs = list(values)
    newton = [diffs[0]]
    for k in range(1, d + 1):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        newton.append(diffs[0])
    # acc = newton[d], then acc = acc * (z - k) + newton[k] * D!/k! for k < d
    acc = [newton[d]]
    weight = 1
    for k in range(d - 1, -1, -1):
        weight *= k + 1
        acc = [0] + acc
        for i in range(len(acc) - 1):
            acc[i] -= k * acc[i + 1]
        acc[0] += newton[k] * weight
    den *= weight
    return _poly_from_ints(acc, den, grade)
