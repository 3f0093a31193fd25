"""An exact certificate for the paper's claim: the cone K over {1} x C' is
facially exposed, and K polar + F_perp is not closed for its flat face F.

Everything here is decided in Fractions and Python ints, with the kit of
tests/exact.py: no float is trusted, no solver runs, and neither sympy nor
mpmath is loaded. Each test names the field of the verify report that
samples what it proves; what is proven here for every parameter, the
report does not re-derive.

The arcs are taken in m = tan(t/2) (tests/exact.py). Each coordinate of a
generator (1, 2x + SHIFT) of K, times 1 + m^2 > 0, is then a polynomial of
degree <= 2 in m, so each value <y, g> of a fixed functional y is one too:
a coefficient triple.
"""

from fractions import Fraction
from itertools import product

from conelab import construction as con
from conelab import niceness as nn
from exact import ARCS, COS_M1, HI, LO, ONE, SIN, ZERO, combine, admissible, at

# the package's witnesses and shift, exactly: every float is a rational
Q, U, SHIFT = ([Fraction(v) for v in a.tolist()]
               for a in (con.WITNESS_Q, con.WITNESS_U, con.SHIFT))


def generator(cid):
    """(1 + m^2) times the generator (1, 2x + SHIFT) of K over curve cid's
    point at m, as four polynomials in m."""
    return (ONE, *(combine((2, x), (s, ONE)) for x, s in zip(ARCS[cid], SHIFT)))


def value(y, cid):
    """(1 + m^2) <y, g> over curve cid, as a polynomial in m."""
    return combine(*zip(y, generator(cid)))


def test_the_arcs_are_the_closed_form_the_report_reads():
    # backs sections.niceness and sections.face_exposure, which read the arcs
    # through arc_coefficients: <y, x(t)> = A sin t + B (cos t - 1), with A
    # and B exact signed picks of y. At the unit vectors they are the arcs'
    # coordinate columns, and they equal the ones tests/exact.py writes.
    a, b = con.arc_coefficients([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for k, i in product(range(3), range(4)):
        assert ARCS[i + 1][k] == combine((Fraction(a[k, i]), SIN), (Fraction(b[k, i]), COS_M1))
    # the arcs end at m = sqrt 2 - 1, which LO and HI bracket
    assert admissible(LO) and not admissible(HI)


def test_f_perp_is_the_span_of_u():
    # backs sections.niceness.sweep_table, whose lambda_star multiplies u.
    # <u, g> has no negative coefficient on any curve, so -u is in K polar;
    # it is 0 exactly over curves 3 and 4 and, on curves 1 and 2 (8m^2, 8m),
    # at m = 0, the origin. So -u exposes F = K cut by u_perp, the cone over
    # curves 3 and 4. Three generators of F are independent, so span F is
    # u_perp, 3-dimensional, and F_perp = span{u}.
    assert value(U, 1) == (0, 0, 8) and value(U, 2) == (0, 8, 0)
    assert value(U, 3) == value(U, 4) == ZERO
    third = Fraction(1, 3)
    assert admissible(third)
    (a, b, c), (d, e, f), (g, h, i) = ([at(p, m) for p in generator(cid)[:3]]
                                       for cid, m in ((3, 0), (3, third), (4, third)))
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 0


def test_q_lies_in_the_closure():
    # backs sections.niceness.closure: in_closure, max_curve3_value and
    # max_curve4_value. For a face F of a closed convex cone K,
    # (K polar + F_perp) polar = K meet span F = F, so cl(K polar + F_perp)
    # = F polar. Over F, <q, g> is -4m^2 / (1 + m^2) on curve 3 and
    # -4m / (1 + m^2) on curve 4: at most 0 for every m >= 0, and 0 at the
    # origin. So q is in F polar, and the report's maxima are these exactly.
    assert value(Q, 3) == (0, 0, -4) and value(Q, 4) == (0, -4, 0)
    assert nn.closure_check() == {"max_curve3_value": 0.0, "max_curve4_value": 0.0,
                                  "in_closure": True}


def test_no_shift_of_q_along_u_enters_k_polar():
    # backs sections.niceness.verdict and the lambda_star column of
    # sections.niceness.sweep_table, which grows like 1/epsilon with no
    # bound: q - lambda u is outside K polar for every lambda, so q, in the
    # closure, is not in K polar + F_perp itself.
    #
    # lambda >= 0: the generator g over curve 1 at m = 1/k, k = 2 lambda + 3,
    # is admissible, as m <= 1/3; and k^2 (1 + m^2) <q - lambda u, g> is a
    # polynomial in lambda of degree <= 3 (each coefficient triple at 1/k,
    # times k^2, has degree <= 2 in k, and lambda multiplies one of them),
    # so being 4 at lambda = 0, 1, 2, 3 makes it 4 for every lambda.
    for lam in range(4):
        k = 2 * lam + 3
        m = Fraction(1, k)
        assert admissible(m)
        assert k**2 * (at(value(Q, 1), m) - lam * at(value(U, 1), m)) == 4
    # lambda < 0: at m = 1/3 on curve 1, <q, g> > 0 and <u, g> >= 0, so
    # <q - lambda u, g> >= <q, g> > 0.
    third = Fraction(1, 3)
    assert at(value(Q, 1), third) > 0 and at(value(U, 1), third) >= 0


def lift_identity_misses():
    """The points (y, d, x) of {0, 1}^7 at which the exact values of
    lift_pairs(y, d) and lift_points(x) break
    <lift_pairs(y, d), lift_points(x)> = 2(<y, x> - d)."""
    cube = list(product((0, 1), repeat=7))
    pairs = con.lift_pairs([c[:3] for c in cube], [c[3] for c in cube]).tolist()
    points = con.lift_points([c[4:] for c in cube]).tolist()
    assert len(pairs) == len(points) == len(cube) == 128
    return [c for c, pair, point in zip(cube, pairs, points)
            if sum(Fraction(p) * Fraction(g) for p, g in zip(pair, point))
            != 2 * (sum(a * b for a, b in zip(c[:3], c[4:])) - c[3])]


def test_lift_identity_on_the_unit_cube():
    # backs sections.face_exposure, which checks the faces of C alone: each
    # lifted pair exposes the cone over the face of C' that its pair exposes,
    # because of the identity above. lift_pairs is linear in (y, d) and
    # lift_points affine in x, so its two sides differ by a polynomial of
    # degree <= 1 in each of the 7 scalars; one that vanishes on {0, 1}^7
    # is 0 (p = p0 + z p1, 0 at z = 0 and at z = 1, has p0 = p1 = 0; induct
    # on the scalars). There the maps' floats are sums of 0, 1, 2 and 0.5,
    # so exact.
    assert lift_identity_misses() == []


def test_curve_1_binds_lambda_at_every_level():
    # backs the achieving column of sections.niceness.sweep_table: curve 1,
    # at t = epsilon. A row with <u, g> > 0 bounds lambda from below by
    # <q, g> / <u, g> = <q + u, g> / <u, g> - 1, which is 1/(2m) - 1 =
    # cot(t/2)/2 - 1 on curve 1 and m/2 - 1 = tan(t/2)/2 - 1 on curve 2.
    # Rows with <u, g> = 0 (curves 3 and 4, and the origin) hold for every
    # lambda, as <q, g> <= 0 there. For m in (0, sqrt 2 - 1], below HI,
    # curve 1's bound exceeds 1/(2 HI) - 1 > 0 and curve 2's is below
    # HI/2 - 1 < 0, so lambda_star is on curve 1 at every level, at the
    # smallest positive parameter of the level's grid, since 1/(2m) - 1
    # decreases in m.
    q_plus_u = [a + b for a, b in zip(Q, U)]
    assert (value(q_plus_u, 1), value(U, 1)) == ((0, 4, 0), (0, 0, 8))
    assert (value(q_plus_u, 2), value(U, 2)) == ((0, 0, 4), (0, 8, 0))
    assert value(U, 3) == value(U, 4) == ZERO
    assert 1 / (2 * HI) - 1 > 0 > HI / 2 - 1


def test_control_products_stay_below_0_17():
    # backs sections.niceness.control_products and control_verdict. The
    # control is the cone over the five arc endpoints, every curve at t = 0
    # (the origin) and t = pi/4 (m = sqrt 2 - 1). By the bounds above, its
    # lambda_star is curve 1's at the end at every level:
    # 1/(2(sqrt 2 - 1)) - 1 = (sqrt 2 - 1)/2 ~ 0.207, below 1/(2 LO) - 1 =
    # 43/207. Every level epsilon is below T_END (validate_eps), so every
    # product is below 43/207 * T_END < 0.17, and the control never reaches
    # the 0.8 that NotNiceEvidence needs.
    assert at(value(Q, 1), 0) == at(value(U, 1), 0) == 0  # the origin row is flat
    lambda_star_above = at(value(Q, 1), LO) / at(value(U, 1), LO)
    assert lambda_star_above == 1 / (2 * LO) - 1 == Fraction(43, 207)
    assert lambda_star_above * Fraction(con.T_END) < Fraction(17, 100)
