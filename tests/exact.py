"""Exact arithmetic for the tests: no float is trusted and no solver runs.

Vectors of floats become lists of Fractions (every float is a dyadic
rational), and signs are decided exactly. The arcs of C are taken in
m = tan(t/2), the half-angle substitution sin t = 2m/(1 + m^2),
cos t - 1 = -2m^2/(1 + m^2), with t in [0, pi/4] exactly when m is in
[0, tan(pi/8)] = [0, sqrt 2 - 1]. Times 1 + m^2 > 0, which keeps every
sign, each coordinate of a point of an arc is a polynomial of degree <= 2
in m: a coefficient triple, constant first. Numbers a + b sqrt 2 (QSqrt2)
hold the arcs' end m = sqrt 2 - 1 and the endpoint faces' pairs exactly.

This module needs the standard library only.
"""

from fractions import Fraction
from functools import total_ordering


def exact(v):
    """The floats of v as Fractions."""
    return [Fraction(float(x)) for x in v]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def exact_orientation(p, q, r, s):
    """Exact det(q - p, r - p, s - p) of float points, as a Fraction."""
    u, v, w = ([Fraction(x) - Fraction(y) for x, y in zip(pt, p)] for pt in (q, r, s))
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _sign(x):
    return (x > 0) - (x < 0)


@total_ordering
class QSqrt2:
    """The number a + b sqrt 2 with rational a and b. Q(sqrt 2) is a field,
    and as sqrt 2 is irrational the sign is exact: where a and b differ in
    sign it is that of a^2 - 2b^2, times that of a."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(x):
        return x if isinstance(x, QSqrt2) else QSqrt2(x)

    def sign(self):
        sa, sb = _sign(self.a), _sign(self.b)
        if sa * sb >= 0:
            return sa or sb
        return sa * _sign(self.a**2 - 2 * self.b**2)

    def __add__(self, other):
        other = QSqrt2.of(other)
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + -QSqrt2.of(other)

    def __mul__(self, other):
        other = QSqrt2.of(other)
        return QSqrt2(self.a * other.a + 2 * self.b * other.b,
                      self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QSqrt2.of(other)
        norm = other.a**2 - 2 * other.b**2  # 0 only for other = 0
        return self * QSqrt2(other.a / norm, -other.b / norm)

    def __pow__(self, k):
        result = QSqrt2(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        other = QSqrt2.of(other)
        return (self.a, self.b) == (other.a, other.b)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QSqrt2({self.a}, {self.b})"


def within(x, a, n, bound):
    """Whether |x - a/sqrt(n)| <= bound, exactly, for rationals x and bound
    and a, n > 0 in Q(sqrt 2): (x - bound) sqrt n <= a <= (x + bound) sqrt n."""
    return _sign_of_root(x - bound, n, a) <= 0 <= _sign_of_root(x + bound, n, a)


def _sign_of_root(c, n, a):
    """The sign of c sqrt(n) - a for rational c and n > 0 in Q(sqrt 2):
    plain where c and a differ in sign, from c^2 n - a^2 where they agree."""
    sc, sa = _sign(c), QSqrt2.of(a).sign()
    if sc != sa or sc == 0:
        return sc or -sa
    return sc * (QSqrt2.of(c * c * n) - a * a).sign()


ZERO, ONE = (0, 0, 0), (1, 0, 1)  # 0 and 1 + m^2
SIN, COS_M1 = (0, 2, 0), (0, 0, -2)  # (1 + m^2) sin t and (1 + m^2)(cos t - 1)

# sqrt 2 - 1 lies in (LO, HI): (LO + 1)^2 < 2 < (HI + 1)^2
LO, HI = Fraction(207, 500), Fraction(5, 12)

# the arcs' end m = tan(pi/8) = sqrt 2 - 1, exactly
M_END = QSqrt2(-1, 1)


def combine(*terms):
    """The polynomial sum of c * p over the (c, p) in terms."""
    return tuple(sum(c * p[k] for c, p in terms) for k in range(3))


def _neg(p):
    return combine((-1, p))


# (1 + m^2) x for x on each arc, written from the construction's definition:
# curve 1: (0, -sin t, cos t - 1)        curve 2: (0, cos t - 1, -sin t)
# curve 3: (-sin t, 1 - cos t, 0)        curve 4: (cos t - 1, sin t, 0)
ARCS = {
    1: (ZERO, _neg(SIN), COS_M1),
    2: (ZERO, COS_M1, _neg(SIN)),
    3: (_neg(SIN), _neg(COS_M1), ZERO),
    4: (COS_M1, SIN, ZERO),
}


def at(p, m):
    return sum(c * m**k for k, c in enumerate(p))


def admissible(m):
    """Whether m = tan(t/2) for some t in [0, pi/4]: tan(pi/8) is the
    positive root of (m + 1)^2 = 2."""
    return m >= 0 and (m + 1) ** 2 <= 2


def _divide(p, z):
    """The quotient of p by m - z, for a root z of p."""
    quotient, carry = [], 0
    for c in reversed(p[1:]):
        carry = c + z * carry
        quotient.append(carry)
    return tuple(reversed(quotient))


def arc_zeros(p):
    """The zeros of the polynomial p (degree <= 2, in Q(sqrt 2)) on
    [0, M_END], as {m: multiplicity}, when p is >= 0 there and > 0 off
    them; None when p is identically 0, negative somewhere on [0, M_END] or
    0 inside it.

    Zeros are found only at the ends, where p is divided by m and by
    M_END - m, both >= 0 on the interval, while it vanishes there. What is
    left has no zero at an end, and is > 0 on the whole interval exactly
    when it is > 0 at both ends and at a critical point inside."""
    if not any(c != 0 for c in p):
        return None
    zeros = {}
    for z, side in ((QSqrt2(0), 1), (M_END, -1)):
        while at(p, z) == 0:
            p = tuple(side * c for c in _divide(p, z))
            zeros[z] = zeros.get(z, 0) + 1
    points = [QSqrt2(0), M_END]
    if len(p) == 3 and p[2] != 0:
        critical = QSqrt2.of(-p[1]) / (2 * p[2])
        if 0 < critical < M_END:
            points.append(critical)
    return zeros if all(at(p, m) > 0 for m in points) else None
