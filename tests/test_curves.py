"""Curves: models, enumeration, group law, shapes, search, tables."""

import math
import random

import pytest

from agmds import field_make
from agmds.curves import (
    Curve,
    CurvePoint,
    INFINITY,
    _matching_curves,
    admissible_curve_orders,
    admissible_group_structures,
    attained_orders,
    coset,
    curve_family,
    curve_make,
    find_curve_with_order,
    group_structure,
    hasse_window,
    is_admissible_structure,
    parse_curve_text,
    parse_point_text,
    point_labels,
    point_text,
    random_curve,
    subgroup_closure,
)
from agmds.errors import (
    BadModel,
    MalformedText,
    NotAdmissible,
    NotPrimePower,
    OutsideHasse,
    PointNotOnCurve,
    Singular,
    TooLarge,
)

F3 = field_make(3)
F5 = field_make(5)
F13 = field_make(13)
F19 = field_make(19)
F16 = field_make(2, 4)
F31 = field_make(31)

E_F5 = curve_make(F5, 1, (0, 0, 0, 0, 1))  # y^2 = x^3 + 1


def brute_order(curve, pt):
    """Independent order oracle: repeated addition until infinity."""
    acc = pt
    t = 1
    while not acc.is_infinity:
        acc = curve.add(acc, pt)
        t += 1
    return t


def brute_orders(curve):
    """Independent order oracle for every point: walk each cyclic subgroup
    by repeated addition; the k-th point of a walk of length t has order
    t / gcd(k, t)."""
    order = {}
    for p in curve.points():
        if p in order:
            continue
        walk = [p]
        while not walk[-1].is_infinity:
            walk.append(curve.add(walk[-1], p))
        t = len(walk)
        for k, w in enumerate(walk, 1):
            order[w] = t // math.gcd(k, t)
    return order


def brute_structure(curve):
    """Independent shape oracle: exponent = lcm of brute-force orders."""
    exponent = math.lcm(*brute_orders(curve).values())
    return (len(curve.points()) // exponent, exponent)


# -- model validation -------------------------------------------------------------


def test_curve_make_examples():
    assert E_F5.genus == 1
    with pytest.raises(Singular):
        curve_make(F5, 1, (0, 0, 0, 0, 0))  # y^2 = x^3, cusp
    g2 = curve_make(field_make(11), 2, [1, 0, 0, 0, 0, 1])  # y^2 = x^5 + 1
    assert g2.genus == 2
    with pytest.raises(BadModel):
        curve_make(field_make(11), 2, [1, 0, 0, 0, 0, 0])  # deg f = 4
    with pytest.raises(BadModel):
        curve_make(F5, 1, (1, 2, 3))


def test_genus2_smoothness_matches_direct_partial_check():
    # independent re-check of the affine-smoothness criterion
    F = field_make(11)
    g2 = curve_make(F, 2, [1, 0, 0, 0, 0, 1])
    f = [1, 0, 0, 0, 0, 1]
    for pt in g2.affine_points():
        x, y = pt.x, pt.y
        d_y = (2 * y) % 11
        d_x = (-sum(i * f[i] * pow(x, i - 1, 11) for i in range(1, 6))) % 11
        assert d_y != 0 or d_x != 0
    with pytest.raises(Singular):
        curve_make(F5, 2, [0, 0, 1, 0, 0, 1])  # y^2 = x^5 + x^2: (0,0) singular


def rational_singular_point(curve):
    """Oracle: an affine point of the model over curve.field where both
    partials of y^2 + h*y - f vanish, found by scanning every x; or None."""
    F = curve.field
    f, h = curve.coeffs[:6], curve.coeffs[6:]

    def ev(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def deriv(poly):
        return [F.mul(F.from_int(i), poly[i]) for i in range(1, len(poly))]

    for x in range(F.q):
        b, c = curve._rhs_quadratic(x)
        for y in F.solve_quadratic(b, c):
            d_y = F.add(F.mul(F.from_int(2), y), ev(h, x))
            d_x = F.sub(F.mul(ev(deriv(h), x), y), ev(deriv(f), x))
            if d_y == 0 and d_x == 0:
                return (x, y)
    return None


def test_genus2_models_singular_only_off_the_rational_points():
    # y^2 = x(x^2+1)^2 over F_31 is singular at x = +-i, outside F_31
    with pytest.raises(Singular):
        parse_curve_text(F31, "g2:0,1,0,2,0,1")
    # h = 0 in characteristic 2: y^2 = x^5+x^3+x+1 is inseparable over F_8
    with pytest.raises(Singular):
        curve_make(field_make(2, 3), 2, [1, 1, 0, 1, 0, 1])
    assert parse_curve_text(F31, "g2:1,0,0,0,0,1;0,0,0").genus == 2


def test_genus2_smoothness_matches_scan_over_quadratic_extension():
    # Over F_p a singular point of y^2 + h*y = f has x a root of a factor of
    # degree <= 2 (a repeated factor of the degree-5 polynomial 4f + h^2 for
    # odd p, a factor of h with deg h <= 2 for p = 2) and y in the same
    # field, so scanning the points over F_(p^2) decides smoothness exactly.
    rng = random.Random(41)
    verdicts = set()
    for p in (2, 3, 5, 7):
        F, F2 = field_make(p), field_make(p, 2)
        for _ in range(60):
            f = [rng.randrange(p) for _ in range(5)] + [rng.randrange(1, p)]
            h = [rng.randrange(p) for _ in range(3)] if rng.random() < 0.7 else [0, 0, 0]
            try:
                curve_make(F, 2, f + h)
                smooth = True
            except Singular:
                smooth = False
            assert smooth == (rational_singular_point(Curve(F2, 2, tuple(f + h))) is None)
            verdicts.add((p, smooth))
    assert len(verdicts) == 8  # both verdicts occur in every characteristic


# -- enumeration --------------------------------------------------------------------


def test_point_enumeration_frozen_examples():
    pts = {(p.x, p.y) for p in E_F5.points()}
    assert pts == {(None, None), (0, 1), (0, 4), (2, 2), (2, 3), (4, 0)}

    e = curve_make(F3, 1, (0, 0, 0, 2, 0))  # y^2 = x^3 - x
    assert {(p.x, p.y) for p in e.points()} == {
        (None, None), (0, 0), (1, 0), (2, 0),
    }


def test_point_count_matches_enumeration_and_hasse():
    rng = random.Random(21)
    for F in (F5, F13, F16, field_make(5, 2)):
        lo, hi = hasse_window(F.q)
        for _ in range(25):
            c = random_curve(F, rng)
            n = len(c.points())
            assert n == c.point_count()
            assert lo <= n <= hi


def test_genus2_point_count_within_weil_bound():
    for coeffs in ([1, 0, 0, 0, 0, 1], [2, 1, 0, 0, 0, 1], [1, 1, 1, 0, 0, 1]):
        c = curve_make(F31, 2, coeffs)
        n = len(c.points())
        assert (n - 32) ** 2 <= 16 * 31


def test_enumeration_cap():
    big = field_make(2, 13)
    c = curve_make(big, 2, [0, 0, 0, 0, 0, 1, 1, 0, 0])  # y^2 + y = x^5
    with pytest.raises(TooLarge):
        c.points()


# -- group law -------------------------------------------------------------------------


def test_group_law_examples():
    p1 = E_F5.point(0, 1)
    assert E_F5.add(p1, INFINITY) == p1
    assert E_F5.add(p1, E_F5.point(0, 4)) == INFINITY  # inverse pair
    assert E_F5.point_order(E_F5.point(4, 0)) == 2
    assert E_F5.neg(p1) == E_F5.point(0, 4)
    with pytest.raises(PointNotOnCurve):
        E_F5.add(p1, CurvePoint(1, 1))


def test_group_axioms_exhaustive_small():
    # closure, inverses, associativity (sampled), Lagrange over q <= 64
    rng = random.Random(5)
    for F in (F5, F13, F16, field_make(2, 6), field_make(7, 2)):
        c = random_curve(F, rng)
        pts = c.points()
        n = len(pts)
        pt_set = set(pts)
        for a in pts:
            assert c.scalar_mul(n, a) == INFINITY  # Lagrange
            assert c.add(a, c.neg(a)) == INFINITY
        for a in pts:  # exhaustive closure
            for b in pts:
                assert c.add(a, b) in pt_set
        for _ in range(150):
            a, b, d = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert c.add(a, b) == c.add(b, a)
            assert c.add(c.add(a, b), d) == c.add(a, c.add(b, d))


def test_scalar_mul_matches_repeated_addition():
    c = curve_make(F13, 1, (1, 1, 0, 1, 1))
    pts = c.points()
    for pt in pts[:6]:
        acc = INFINITY
        for k in range(1, 8):
            acc = c.add(acc, pt)
            assert c.scalar_mul(k, pt) == acc
        assert c.scalar_mul(-3, pt) == c.neg(c.scalar_mul(3, pt))


# -- group structure ---------------------------------------------------------------------


def test_structure_examples():
    assert group_structure(E_F5) == (1, 6)
    e = curve_make(F3, 1, (0, 0, 0, 2, 0))
    assert group_structure(e) == (2, 2)


def test_structure_matches_brute_oracle_over_families():
    for F in (F5, field_make(7)):
        for curve in curve_family(F):
            assert group_structure(curve) == brute_structure(curve)


def test_point_labels_are_an_isomorphism_over_families():
    # Labels are a bijection onto Z/d1 x Z/d2 that adds a basis point
    # correctly to every point; by induction on i*P1 + j*P2 that gives
    # label(P + Q) = label(P) + label(Q) for every pair.
    shapes = set()
    for F in (F5, field_make(7), field_make(2, 3), field_make(3, 2),
              field_make(11), F13, F16):
        for curve in curve_family(F):
            shape = group_structure(curve)  # before labelling sets the shape
            labels = point_labels(curve)
            d1, d2 = labels.d1, labels.d2
            pts = curve.points()
            orders = brute_orders(curve)
            exponent = math.lcm(*orders.values())  # brute_structure, one walk
            assert shape == (d1, d2) == (len(pts) // exponent, exponent)
            grid = [(i, j) for i in range(d1) for j in range(d2)]
            assert sorted(labels.of(p) for p in pts) == grid
            assert all(labels.of(labels.point(a)) == a for a in grid)
            basis = [labels.point(a) for a in ((1, 0), (0, 1)) if a[0] < d1 and a[1] < d2]
            for p in pts:
                a = labels.of(p)
                assert labels.order(a) == orders[p] == curve.point_order(p)
                for g in basis:
                    assert labels.of(curve.add(p, g)) == labels.add(a, labels.of(g))
            shapes.add((F.q, d1, d2))
    # over F_8, d1 > 1 would need l | 7 and l^2 | N <= 14
    assert {q for q, d1, _ in shapes if d1 > 1} == {5, 7, 9, 11, 13, 16}


def test_structure_divides_q_minus_1():
    rng = random.Random(31)
    for F in (F13, F16, F19):
        for _ in range(20):
            c = random_curve(F, rng)
            d1, d2 = group_structure(c)
            assert d2 % d1 == 0 and d1 * d2 == len(c.points())
            assert (F.q - 1) % d1 == 0


# -- subgroups and cosets --------------------------------------------------------------------


def test_subgroup_closure_examples():
    assert subgroup_closure(E_F5, [INFINITY]) == [INFINITY]
    # order-3 point exists in Z/6
    p3 = next(p for p in E_F5.points() if E_F5.point_order(p) == 3)
    sub = subgroup_closure(E_F5, [p3])
    assert len(sub) == 3 and INFINITY in sub
    # coset of a non-member is disjoint and same-sized
    b = next(p for p in E_F5.points() if p not in set(sub))
    cs = coset(E_F5, sub, b)
    assert len(cs) == 3 and not set(cs) & set(sub)


def test_subgroup_closure_is_a_group():
    c = curve_make(F19, 1, (0, 0, 0, 1, 1))
    pts = c.points()
    rng = random.Random(17)
    for _ in range(10):
        gens = rng.sample(pts, 2)
        sub = subgroup_closure(c, gens)
        sset = set(sub)
        assert all(c.add(a, b) in sset for a in sub for b in sub)
        assert len(c.points()) % len(sub) == 0  # Lagrange


# -- order and shape tables --------------------------------------------------------------------


def test_admissible_orders_frozen():
    assert admissible_curve_orders(19) == list(range(12, 29))
    assert admissible_curve_orders(4) == list(range(1, 10))
    assert admissible_curve_orders(8) == [4, 5, 6, 8, 9, 10, 12, 13, 14]
    with pytest.raises(NotPrimePower):
        admissible_curve_orders(12)


def test_admissible_orders_match_enumeration_q4():
    assert attained_orders(field_make(2, 2)) == set(range(1, 10))


def test_admissible_structures_examples():
    assert admissible_group_structures(64, 72) == [(1, 72), (3, 24)]
    # supersingular extreme trace over F_9 forces the balanced shape
    assert admissible_group_structures(9, 16) == [(4, 4)]
    assert is_admissible_structure(9, 16, 4, 4)
    assert not is_admissible_structure(9, 16, 2, 8)
    assert not is_admissible_structure(9, 16, 1, 16)
    # counts outside the order table have no shapes
    assert admissible_group_structures(8, 7) == []


# -- curve search ------------------------------------------------------------------------------


def test_find_curve_with_order_examples():
    c = find_curve_with_order(F19, 12)
    assert len(c.points()) == 12
    with pytest.raises(OutsideHasse):
        find_curve_with_order(F19, 40)
    with pytest.raises(NotAdmissible):
        find_curve_with_order(field_make(2, 3), 11)  # excluded trace over F_8
    c = find_curve_with_order(field_make(2, 6), 72, shape=(1, 72))
    assert group_structure(c) == (1, 72)
    c = find_curve_with_order(field_make(2, 6), 72, shape=(3, 24))
    assert group_structure(c) == (3, 24)


def test_find_curve_rejects_inadmissible_shape():
    with pytest.raises(NotAdmissible):
        find_curve_with_order(field_make(2, 4), 24, shape=(2, 12))  # 2 does not divide 15


def test_matching_curves_random_draws_are_distinct_and_seeded():
    # family_cap=0 forces the seeded random-model path on a small field
    def draw(shape=None):
        return list(_matching_curves(F19, 24, shape, 1, 400, family_cap=0))

    curves = draw()
    assert curves and all(c.point_count() == 24 for c in curves)
    assert len({c.coeffs for c in curves}) == len(curves)
    assert draw() == curves
    assert draw((2, 12)) == [c for c in curves if group_structure(c) == (2, 12)]
    family = _matching_curves(F19, 24, None, 0, 0)
    assert find_curve_with_order(F19, 24) == next(family)


def test_find_curve_budget_exhaustion_on_large_field():
    from agmds.errors import BudgetExhausted

    big = field_make(2, 12)  # above the exhaustive-family cap
    with pytest.raises(BudgetExhausted):
        find_curve_with_order(big, 4096, budget=3)


def test_random_full_model_counts_land_in_table():
    rng = random.Random(77)
    for F in (field_make(7), field_make(3, 2)):
        table = set(admissible_curve_orders(F.q))
        shapes_cache = {}
        for _ in range(60):
            c = random_curve(F, rng)
            n = len(c.points())
            assert n in table
            shapes = shapes_cache.setdefault(n, admissible_group_structures(F.q, n))
            assert group_structure(c) in shapes


# -- text forms -----------------------------------------------------------------------------------


def test_curve_and_point_text_round_trip():
    assert E_F5.text() == "g1:0,0,0,0,1"
    assert parse_curve_text(F5, E_F5.text()) == E_F5
    g2 = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])
    assert g2.text() == "g2:1,0,0,0,0,1;0,0,0"
    assert parse_curve_text(F31, g2.text()) == g2

    p = E_F5.point(2, 3)
    assert point_text(F5, p) == "(2,3)"
    assert parse_point_text(F5, "(2,3)") == p
    assert parse_point_text(F5, "inf") == INFINITY

    ext = field_make(2, 2)
    ce = curve_make(ext, 1, (1, 0, 0, 0, 1))
    assert parse_curve_text(ext, ce.text()) == ce
    pt = ce.points()[1]
    assert parse_point_text(ext, point_text(ext, pt)) == pt


def test_malformed_point_text():
    for text in ("(1,2,3)", "(1)", "()", "1,2", "(1,2"):
        with pytest.raises(MalformedText):
            parse_point_text(F5, text)
