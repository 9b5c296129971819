"""Curves: models, enumeration, group law, shapes, search, tables."""

import copy
import functools
import math
import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from agmds import field_make
from agmds.field import FieldSpec
from agmds.code import build_code, is_mds_by_group_sums
from agmds.rrspace import evaluate_monomial
import agmds.curves as curves_module
from agmds.curves import (
    Curve,
    INFINITY,
    _class_key,
    _matching_curves,
    admissible_curve_orders,
    admissible_group_structures,
    attained_orders,
    coset,
    curve_family,
    curve_make,
    discriminant_genus1,
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
from agmds.intmath import factorint
from agmds.linalg import FFMatrix, rank
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
    while acc:
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
        while walk[-1]:
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
    with pytest.raises(Singular, match=r"^zero discriminant for g1:0,0,0,0,0$"):
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
        x, y = pt
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
    pts = set(E_F5.points())
    assert pts == {(), (0, 1), (0, 4), (2, 2), (2, 3), (4, 0)}

    e = curve_make(F3, 1, (0, 0, 0, 2, 0))  # y^2 = x^3 - x
    assert set(e.points()) == {(), (0, 0), (1, 0), (2, 0)}


def brute_affine_points(curve):
    """Oracle: every affine (x, y) the model contains, in tuple order."""
    q = curve.field.q
    found = ((x, y) for x in range(q) for y in range(q))
    return sorted(p for p in found if curve.contains(p))


def genus2_curves_with_h(F, count, rng):
    """The first `count` smooth genus-2 models with h != 0 among seeded draws."""
    found = []
    while len(found) < count:
        coeffs = [rng.randrange(F.q) for _ in range(5)] + [1]
        h = [rng.randrange(F.q) for _ in range(3)]
        if any(h):
            try:
                found.append(curve_make(F, 2, coeffs + h))
            except Singular:
                pass
    return found


def test_points_come_in_sort_key_order():
    # recipes.genus2_mds_search picks points by sorted position in
    # affine_points(), so the order is part of the contract
    rng = random.Random(16)
    curves = [c for F in (field_make(2, 2), field_make(3, 2), field_make(7))
              for c in curve_family(F)]
    curves += [c for F in (F31, field_make(2, 5), field_make(3, 3))
               for c in genus2_curves_with_h(F, 2, rng)]
    for c in curves:
        assert c.points() == (INFINITY, *brute_affine_points(c)), c.text()
        assert tuple(c.affine_points()) == c.points()[1:]
        assert all(type(p) is tuple for p in c.points())  # genus-2 models too


def quadratic_points(curve):
    """Oracle: the points from solve_quadratic at every abscissa, in order."""
    F = curve.field
    solve, rhs = F.solve_quadratic, curve._rhs_quadratic
    affine = ((x, y) for x in range(F.q) for y in sorted(solve(*rhs(x))))
    return (INFINITY, *affine)


def assert_enumeration(coeffs, F):
    """points() and point_count() of fresh curves agree with the oracle; in
    odd characteristic the count keeps no points."""
    expected = quadratic_points(Curve(F, 1, coeffs))
    counted = Curve(F, 1, coeffs)
    assert counted.point_count() == len(expected), coeffs
    assert F.p == 2 or counted._points is None, coeffs
    assert Curve(F, 1, coeffs).points() == expected, coeffs


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_char2_enumeration_matches_the_quadratic_oracle_over_families(s):
    F = field_make(2, s)
    for c in curve_family(F):
        assert_enumeration(c.coeffs, F)


@pytest.mark.parametrize("a1_zero", [True, False])
@pytest.mark.parametrize("a3_zero", [True, False])
@given(coeffs=st.tuples(*[st.integers(0, 255)] * 5))
@settings(max_examples=60, deadline=None)
def test_char2_enumeration_matches_the_quadratic_oracle_on_random_models(
    a1_zero, a3_zero, coeffs
):
    # any five coefficients, singular models included: the enumeration
    # reads the equation, not the curve's smoothness
    a1, a3, a2, a4, a6 = coeffs
    a1 = 0 if a1_zero else a1 or 1
    a3 = 0 if a3_zero else a3 or 1
    assert_enumeration((a1, a3, a2, a4, a6), field_make(2, 8))


@pytest.mark.parametrize("seed", [18, 19])
def test_char2_enumeration_matches_the_quadratic_oracle_over_f_2_16(seed):
    F = field_make(2, 16)
    assert_enumeration(random_curve(F, random.Random(seed)).coeffs, F)


def test_j0_char2_enumeration_matches_the_membership_oracle():
    # a1 = 0 models solve each quadratic with FieldSpec.solve_quadratic, as
    # quadratic_points does; brute_affine_points asks contains at every
    # (x, y) and solves none.  a3 = 0 models are singular.
    models = [(F, c.coeffs) for F in (field_make(2, s) for s in (1, 2, 3))
              for c in curve_family(F) if c.coeffs[0] == 0]
    rng = random.Random(17)
    for F in (F16, field_make(2, 5), field_make(2, 6)):
        for i in range(8):
            a3, a2, a4, a6 = (rng.randrange(F.q) for _ in range(4))
            models.append((F, (0, 0 if i % 3 == 0 else a3, a2, a4, a6)))
    assert sum(coeffs[1] == 0 for _, coeffs in models) >= 9
    for F, coeffs in models:
        expected = (INFINITY, *brute_affine_points(Curve(F, 1, coeffs)))
        assert Curve(F, 1, coeffs).point_count() == len(expected), coeffs
        assert Curve(F, 1, coeffs).points() == expected, coeffs


def planted_model(F, rng, vanishing):
    """A model with a1 != 0 and a3 != 0 whose coefficients in u = a1*x + a3
    named in `vanishing` are zero at f = a3/a1: alpha2 = e^2*(f + a2) by
    a2 = f, alpha1 = e*(f^2 + a4) by a4 = f^2, alpha0 = c(f) by a6."""
    a1, a3, a2, a4 = (rng.randrange(1, F.q) for _ in range(4))
    f = F.div(a3, a1)
    if "alpha2" in vanishing:
        a2 = f
    if "alpha1" in vanishing:
        a4 = F.mul(f, f)
    # c(f) = ((f + a2)*f + a4)*f + a6 in characteristic 2
    a6 = F.mul(F.add(F.mul(F.add(f, a2), f), a4), f)
    if "alpha0" not in vanishing:
        a6 = F.add(a6, rng.randrange(1, F.q))
    return a1, a3, a2, a4, a6


VANISHING_SETS = [("alpha0",), ("alpha1",), ("alpha2",), ("alpha0", "alpha1"),
                  ("alpha1", "alpha2"), ("alpha0", "alpha2"), ("alpha0", "alpha1", "alpha2")]


@pytest.mark.parametrize("s", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("vanishing", VANISHING_SETS, ids="+".join)
def test_char2_enumeration_with_vanishing_substituted_coefficients(s, vanishing):
    # the a1 != 0 loop drops a zero alpha1 or alpha0 term and reads the
    # u = 0 abscissa, x = f, as y^2 = alpha0; alpha0 = 0 puts (f, 0) there
    F = field_make(2, s)
    rng = random.Random(f"{s}:{vanishing}")
    coeffs = planted_model(F, rng, vanishing)
    f = F.div(coeffs[1], coeffs[0])
    assert Curve(F, 1, coeffs)._rhs_quadratic(f)[0] == 0  # u = 0 at x = f
    assert ((f, 0) in Curve(F, 1, coeffs).points()) == ("alpha0" in vanishing)
    assert_enumeration(coeffs, F)


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_refutation_reads_only_the_first_abscissas_of_an_f_2_16_curve():
    # _refutes_count reads three abscissas of every curve the F_2^8 coset
    # search walks, so the enumeration must stay a generator: building all
    # points first would read the Artin-Schreier table at every x.
    # The true count refutes nothing, so all three abscissas are read.
    n_points = len(Curve(field_make(2, 16), 1, (1, 0, 0, 0, 1)).points())
    F = FieldSpec(2, 16)
    F._as_tab = CountingList(F._as_tab)
    curve = Curve(F, 1, (1, 0, 0, 0, 1))
    assert not curves_module._refutes_count(curve, n_points)
    assert 0 < F._as_tab.reads <= 16
    assert curve._points is None


ODD_ENUMERATION_FIELDS = [field_make(p, s) for p, s in (
    (3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 3),
)]


@pytest.mark.parametrize("a1_zero", [True, False])
@pytest.mark.parametrize("a3_zero", [True, False])
@given(drawn=st.sampled_from(ODD_ENUMERATION_FIELDS).flatmap(
    lambda F: st.tuples(st.just(F), st.tuples(*[st.integers(0, F.q - 1)] * 5))))
@settings(max_examples=30, deadline=None)
def test_odd_enumeration_matches_the_quadratic_oracle_on_random_models(
    a1_zero, a3_zero, drawn
):
    # any five coefficients, singular models included: the completed square
    # reads the equation, not the curve's smoothness
    F, (a1, a3, a2, a4, a6) = drawn
    a1 = 0 if a1_zero else a1 or 1
    a3 = 0 if a3_zero else a3 or 1
    coeffs = (a1, a3, a2, a4, a6)
    assert_enumeration(coeffs, F)
    assert Curve(F, 1, coeffs).points()[1:] == tuple(brute_affine_points(Curve(F, 1, coeffs)))


def test_points_sort_natively_by_an_explicit_key():
    # a point is its tuple, () at infinity, so native order must be the
    # order of the key (0,) at infinity and (1, x, y) at an affine point
    def key(p):
        return (0,) if not p else (1, p[0], p[1])

    for F in (field_make(2, 2), field_make(7), field_make(3, 2)):
        rng = random.Random(F.q)
        for c in curve_family(F):
            pts = list(c.points())
            assert pts[0] is INFINITY and all(type(p) is tuple for p in pts)
            shuffled = rng.sample(pts, len(pts))
            assert sorted(shuffled) == sorted(shuffled, key=key) == pts, c.text()
            assert all((a < b) == (key(a) < key(b)) for a in pts for b in pts)


def test_point_copies_pickles_repr_and_label_lookup():
    for p in ((3, 4), INFINITY, E_F5.point(2, 3)):
        twins = [copy.copy(p), copy.deepcopy(p)]
        twins += [pickle.loads(pickle.dumps(p, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == p and type(twin) is tuple
    assert repr(E_F5.point(2, 3)) == "(2, 3)" and repr(INFINITY) == "()"
    assert INFINITY == () and E_F5.point(2, 3) == (2, 3)
    p = E_F5.point(2, 3)
    labels = point_labels(E_F5)
    for result in (E_F5.add(p, p), E_F5.neg(p), E_F5.scalar_mul(6, p),
                   labels.point(labels.of(p)), E_F5.add(p, E_F5.neg(p))):
        assert type(result) is tuple
    assert labels.of((2, 3)) == labels.of(p)
    with pytest.raises(PointNotOnCurve) as exc:
        labels.of((1, 1))
    assert str(exc.value) == "(1,1) is not a rational point of the curve"
    with pytest.raises(PointNotOnCurve) as exc:
        E_F5.add(p, (1, 1))
    assert str(exc.value) == "(1,1) not on g1:0,0,0,0,1"


def test_point_errors_print_element_text():
    # over F_4 the code 2 is the element [0,1] and 3 is [1,1]
    E = curve_make(field_make(2, 2), 1, (1, 0, 0, 0, 1))
    on, off = E.points()[1], (2, 3)
    curve = "g1:[1,0],[0,0],[0,0],[0,0],[1,0]"
    for call, message in [
        (lambda: E.point(2, 3), f"([0,1],[1,1]) not on {curve}"),
        (lambda: E.add(on, off), f"([0,1],[1,1]) not on {curve}"),
        (lambda: point_labels(E).of((2, 3)), "([0,1],[1,1]) is not a rational point of the curve"),
    ]:
        with pytest.raises(PointNotOnCurve) as exc:
            call()
        assert str(exc.value) == message


def test_build_code_names_a_bad_point_like_curve_point():
    # over F_4 the code 2 is the element [0,1]; -1 is no code at all
    E = curve_make(field_make(2, 2), 1, (1, 0, 0, 0, 1))
    affine = list(E.points()[1:3])
    for x, y in [(2, 3), (-1, 0)]:
        messages = []
        for call in (lambda: E.point(x, y),
                     lambda: build_code(E, [(x, y), *affine], 2)):
            with pytest.raises(PointNotOnCurve) as exc:
                call()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
    assert messages[0].startswith("codes (-1, 0) outside [0, 4) not on ")


def test_codes_outside_the_field_are_not_on_the_curve():
    # over F_4 a negative code would index the log table from its end, and
    # a code of 4 or more past it
    E = curve_make(field_make(2, 2), 1, (1, 0, 0, 0, 1))
    curve = "g1:[1,0],[0,0],[0,0],[0,0],[1,0]"
    affine = list(E.points()[1:3])
    for x, y in [(-1, 0), (5, 1), (1, 9), (0, -1)]:
        assert not E.contains((x, y))
        for call in (lambda: E.point(x, y),
                     lambda: E.scalar_mul(2, (x, y))):
            with pytest.raises(PointNotOnCurve) as exc:
                call()
            assert str(exc.value) == f"codes {(x, y)} outside [0, 4) not on {curve}"
        with pytest.raises(PointNotOnCurve):
            build_code(E, [(x, y), *affine], 2)


@pytest.mark.parametrize("bad", [(1,), (1, 2, 3), None, [0, 1]],
                         ids=["length-1", "length-3", "none", "list"])
def test_what_is_not_a_pair_is_not_on_the_curve(bad):
    # only () and (x, y) tuples are points: anything else is named as it
    # is, never indexed as (x, y) or hashed, and None is not the point at
    # infinity
    curve = "g1:0,0,0,0,1"
    name = f"non-pair {bad!r}"
    assert not E_F5.contains(bad)
    for call in (lambda: E_F5.point_order(bad), lambda: E_F5.add((0, 1), bad),
                 lambda: E_F5.neg(bad), lambda: build_code(E_F5, [bad, (0, 1), (2, 2)], 2)):
        with pytest.raises(PointNotOnCurve) as exc:
            call()
        assert str(exc.value) == f"{name} not on {curve}"
    with pytest.raises(PointNotOnCurve) as exc:
        point_labels(E_F5).of(bad)
    assert str(exc.value) == f"{name} is not a rational point of the curve"


def test_plain_pairs_are_points():
    # points are plain tuples: literal pairs work wherever enumerated ones do
    p = E_F5.point(2, 3)
    assert p == (2, 3) and type(p) is tuple and E_F5.contains((2, 3))
    assert not E_F5.contains([2, 3])  # a point is a tuple
    assert [E_F5.point_order(q) for q in [(), (0, 1), (0, 4), (2, 2), (2, 3), (4, 0)]] == [
        brute_order(E_F5, q) for q in E_F5.points()]
    code = build_code(E_F5, [(0, 1), (2, 2), (4, 0)], 2)
    assert code.gen.data == [[1, 1, 1], [0, 2, 4]]  # the monomials 1 and x
    assert evaluate_monomial(F5, (1, 1), (2, 3)) == 1  # 2 * 3 = 6 = 1 in F_5
    assert not is_mds_by_group_sums(E_F5, [(0, 1), (0, 4), (2, 2)], 2)  # inverse pair
    assert is_mds_by_group_sums(E_F5, [(0, 1), (2, 2)], 1)
    assert subgroup_closure(E_F5, [(4, 0)]) == [(), (4, 0)]
    assert coset(E_F5, [(), (4, 0)], (0, 1)) == [(0, 1), (2, 2)]


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
    with pytest.raises(TooLarge, match="enumeration over q=8192 exceeds cap 4096"):
        c.points()
    with pytest.raises(TooLarge, match="count over q=8192 exceeds cap 4096"):
        c.point_count()


# -- group law -------------------------------------------------------------------------


def test_group_law_examples():
    p1 = E_F5.point(0, 1)
    assert E_F5.add(p1, INFINITY) == p1
    assert E_F5.add(p1, E_F5.point(0, 4)) == INFINITY  # inverse pair
    assert E_F5.point_order(E_F5.point(4, 0)) == 2
    assert E_F5.neg(p1) == E_F5.point(0, 4)
    with pytest.raises(PointNotOnCurve):
        E_F5.add(p1, (1, 1))


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


def chord_tangent_oracle(curve, P, Q):
    """The group law on point tuples (() for infinity) as Silverman, AEC
    III.2.3 states it: the line y = lam*x + nu with its own chord and
    tangent formulas for both lam and nu."""
    if not P:
        return Q
    if not Q:
        return P
    F = curve.field
    add, sub, mul, neg, c = F.add, F.sub, F.mul, F.neg, F.from_int
    a1, a3, a2, a4, a6 = curve.coeffs
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 != y2:
            return ()
        denom = add(add(mul(c(2), y1), mul(a1, x1)), a3)
        if denom == 0:
            return ()
        x1sq = mul(x1, x1)
        num_l = sub(add(add(mul(c(3), x1sq), mul(mul(c(2), a2), x1)), a4), mul(a1, y1))
        num_n = sub(add(add(neg(mul(x1sq, x1)), mul(a4, x1)), mul(c(2), a6)), mul(a3, y1))
        lam, nu = F.div(num_l, denom), F.div(num_n, denom)
    else:
        idx = F.inv(sub(x2, x1))
        lam = mul(sub(y2, y1), idx)
        nu = mul(sub(mul(y1, x2), mul(y2, x1)), idx)
    x3 = sub(sub(sub(add(mul(lam, lam), mul(a1, lam)), a2), x1), x2)
    y3 = sub(sub(neg(mul(add(lam, a1), x3)), nu), a3)
    return (x3, y3)


def scalar_oracle(curve, k, P):
    """k*P by |k| oracle additions, of -P = (x, -y - a1*x - a3) for k < 0."""
    F = curve.field
    a1, a3 = curve.coeffs[:2]
    if k < 0 and P:
        x, y = P
        P = (x, F.sub(F.sub(F.neg(y), F.mul(a1, x)), a3))
    acc = ()
    for _ in range(abs(k)):
        acc = chord_tangent_oracle(curve, acc, P)
    return acc


GROUP_LAW_FIELDS = [field_make(p, s) for p, s in (
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
    (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1), (5, 3), (7, 3), (2, 8),
)]


@pytest.mark.parametrize("F", GROUP_LAW_FIELDS, ids=lambda F: f"q{F.q}")
def test_group_law_matches_the_two_intercept_oracle(F):
    # random five-coefficient curves: curve_family has a1 = a3 = 0 in odd
    # characteristic, which would hide a wrong a1 or a3 term
    rng = random.Random(F.q)
    for _ in range(3):
        c = random_curve(F, rng)
        law, pts = c._group_law(), c.points()
        if F.q < 125:
            pairs, scaled = [(P, Q) for P in pts for Q in pts], pts
        else:  # seeded pairs, every doubling and every P + (-P)
            pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(300)]
            pairs += [(P, P) for P in pts] + [(P, c._neg_xy(P)) for P in pts]
            scaled = rng.sample(pts, 10)
        for P, Q in pairs:
            assert law(P, Q) == chord_tangent_oracle(c, P, Q), (c.text(), P, Q)
        for P in scaled:
            for k in (-5, -1, 0, 1, 2, 7, len(pts)):
                assert c._scalar_xy(k, P) == scalar_oracle(c, k, P), (c.text(), k, P)


def test_char2_law_and_rank_call_no_add_or_sub_method(monkeypatch):
    # characteristic-2 hot loops bind the XOR builtin (FieldSpec.additive);
    # counters on the class methods, as perfbench's tracer installs them,
    # must see no call once the law and the elimination are bound
    calls = {"add": 0, "sub": 0}

    def counted(name):
        method = getattr(FieldSpec, name)

        def wrapped(*args):
            calls[name] += 1
            return method(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(FieldSpec, name, counted(name))
    F = field_make(2, 8)
    rng = random.Random(8)
    M = FFMatrix(F, [[rng.randrange(F.q) for _ in range(40)] for _ in range(20)])
    assert rank(M) == 20 and calls == {"add": 0, "sub": 0}
    c = random_curve(F, rng)
    P = rng.choice(c.points()[1:])
    assert c._scalar_xy(97, P) == scalar_oracle(c, 97, P)  # the oracle calls the methods
    calls.update(add=0, sub=0)
    c._scalar_xy(97, P)
    assert calls == {"add": 0, "sub": 0}


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
            shape = group_structure(curve)  # asked first, as the coset search asks
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


def candidate_curves(F, per_shape=2, tuples=3000):
    """Up to per_shape family curves for each (N, shape) among the first
    tuples whose N has a non-cyclic candidate l-part: l | q - 1, l^2 | N."""
    by_shape = {}
    for c in islice(curve_family(F), tuples):
        n = c.point_count()
        if any(h >= 2 and (F.q - 1) % l == 0 for l, h in factorint(n).items()):
            same = by_shape.setdefault((n, group_structure(c)), [])
            if len(same) < per_shape:
                same.append(c.coeffs)
    return by_shape


@pytest.mark.parametrize("F", [F16, field_make(5, 2), field_make(2, 6)],
                         ids=lambda F: f"q{F.q}")
def test_sylow_bases_are_built_once_in_either_order(F, monkeypatch):
    # group_structure then point_labels does the work of point_labels then
    # group_structure, and each (curve, l) basis is built once either way.
    group_law, build = Curve._group_law, curves_module._build_sylow_basis
    steps, builds = [0], []

    def counting(curve):
        law = group_law(curve)

        def step(P, Q):
            steps[0] += 1
            return law(P, Q)

        return step

    def building(curve, n, l, h):
        builds.append(l)
        return build(curve, n, l, h)

    monkeypatch.setattr(Curve, "_group_law", counting)
    monkeypatch.setattr(curves_module, "_build_sylow_basis", building)
    by_shape = candidate_curves(F)
    assert any(d1 > 1 for _, (d1, _) in by_shape)
    for (n, shape), tuples in by_shape.items():
        for coeffs in tuples:
            work = []
            for first, second in ((group_structure, point_labels),
                                  (point_labels, group_structure)):
                curve = Curve(F, 1, coeffs)
                curve.points()
                steps[0], builds[:] = 0, []
                first(curve)
                done = steps[0]
                second(curve)
                assert sorted(builds) == sorted(factorint(n)), (coeffs, builds)
                assert group_structure(curve) == shape
                labels = point_labels(curve)
                assert (labels.d1, labels.d2) == shape
                work.append((done, steps[0]))
            # labelling first leaves group_structure nothing to do
            assert work[0][1] == work[1][1] == work[1][0], (coeffs, work)


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


def test_order_tables_refuse_q_from_2_to_the_32():
    # past intmath's range: trial division and the trace loop would not end
    for q in (1 << 32, 100000000000000000039):
        with pytest.raises(TooLarge, match=r"the order tables need q < 2\^32"):
            admissible_curve_orders(q)
        with pytest.raises(TooLarge, match=r"the order tables need q < 2\^32"):
            admissible_group_structures(q, q + 1)
    # the largest prime below 2^32 is still served
    q = 4294967291
    assert (1, q + 1) in admissible_group_structures(q, q + 1)


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


@pytest.mark.parametrize("p, s", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (5, 3)])
def test_short_form_family_filter_equals_the_general_discriminant(p, s):
    # For p >= 5 curve_family keeps y^2 = x^3 + a4 x + a6 when
    # 4 a4^3 + 27 a6^2 != 0; the general b-invariant discriminant is the oracle.
    F = field_make(p, s)
    q = F.q
    general = [(0, 0, 0, a4, a6) for a4 in range(q) for a6 in range(q)
               if discriminant_genus1(F, (0, 0, 0, a4, a6)) != 0]
    assert [c.coeffs for c in curve_family(F)] == general


def test_find_curve_budget_exhaustion_on_large_field():
    from agmds.errors import BudgetExhausted

    big = field_make(2, 12)  # above the exhaustive-family cap
    with pytest.raises(BudgetExhausted):
        find_curve_with_order(big, 4096, budget=3)


# -- isomorphism-class keys of the family walk --------------------------------------------

KEY_FIELDS = [field_make(p, s) for p, s in
              ((5, 1), (7, 1), (2, 3), (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (5, 2))]


def class_key(F, coeffs):
    """Isomorphism-class key of a curve_family tuple: _class_key for
    p >= 5 (None for p = 3), and in characteristic 2 the oracle below.

    y^2 + xy = x^3 + a2 x^2 + a6 and the same curve with a2 + z^2 + z are
    isomorphic under y -> y + zx, so the class is fixed by a6 and the
    absolute trace Tr(a2); Tr(a2) = 0 iff a2 = z^2 + z for some z.  The
    a1 = 0 (j = 0) branch gets no key.
    """
    if F.p != 2:
        return _class_key(F, coeffs)
    a1, _, a2, _, a6 = coeffs
    if a1 == 0:
        return None
    trace, power = 0, a2  # Tr(a2) = a2 + a2^2 + ... + a2^(2^(s-1))
    for _ in range(F.s):
        trace, power = F.add(trace, power), F.mul(power, power)
    assert trace in (0, 1)
    return a6, trace


def class_count(F):
    """Number of isomorphism classes the keyed tuples fall into: the
    characteristic-2 ordinary branch has 2(q-1) (a6, Tr(a2)) classes; for
    p >= 5 each j != 0, 1728 has 2 twists, j = 0 has gcd(6, q-1) and
    j = 1728 has gcd(4, q-1)."""
    q = F.q
    if F.p == 2:
        return 2 * (q - 1)
    return 2 * (q - 2) + math.gcd(6, q - 1) + math.gcd(4, q - 1)


@pytest.mark.parametrize("F", KEY_FIELDS, ids=lambda F: f"q{F.q}")
def test_class_keys_are_sound_and_exact(F):
    invariants = {}
    for c in curve_family(F):
        key = class_key(F, c.coeffs)
        assert (key is None) == (F.p == 2 and c.coeffs[0] == 0), c.text()
        if key is not None:
            inv = (c.point_count(), group_structure(c))
            assert invariants.setdefault(key, inv) == inv, c.text()
    assert len(invariants) == class_count(F)


def test_characteristic_3_gets_no_class_key():
    for F in (F3, field_make(3, 2)):
        assert all(_class_key(F, c.coeffs) is None for c in curve_family(F))


def assert_walk_yields_class_firsts(F, walked, oracle):
    """The walk yields, position by position, the first oracle curve of each
    oracle curve's class (by class_key; a curve without a key stands for
    itself), and every later position of a class is the very object its
    first position yielded."""
    firsts = {}
    expected = [c if (key := class_key(F, c.coeffs)) is None else firsts.setdefault(key, c)
                for c in oracle]
    assert walked == expected
    first_at = {}
    for i, c in enumerate(expected):
        first_at.setdefault(id(c), i)
    assert all(w is walked[first_at[id(c)]] for w, c in zip(walked, expected))


def plain_first_matches(F) -> dict:
    """Oracle: for every attainable (N, shape) and (N, None), the first
    curve of filter(matches, curve_family(F)), all from one walk that
    counts every tuple."""
    targets = {
        (n, shape)
        for n in admissible_curve_orders(F.q)
        for shape in (None, *admissible_group_structures(F.q, n))
    }
    first = {}
    for c in curve_family(F):
        n, shape = c.point_count(), group_structure(c)
        first.setdefault((n, shape), c)
        first.setdefault((n, None), c)
        if len(first) == len(targets):
            break
    assert set(first) == targets
    return first


@pytest.mark.parametrize("F", KEY_FIELDS, ids=lambda F: f"q{F.q}")
def test_keyed_walk_yields_the_plain_walks_first_curve(F):
    for (n, shape), curve in plain_first_matches(F).items():
        assert next(_matching_curves(F, n, shape, 0, 0)) == curve, (n, shape)


@pytest.mark.parametrize("F", [F19, F16, field_make(5, 2)], ids=lambda F: f"q{F.q}")
def test_keyed_walk_counts_each_class_once(F, monkeypatch):
    # Each keyed class is decided once: refuted by [N]P != O, or counted.
    n = F.q + 1
    plain = [c for c in curve_family(F) if c.point_count() == n]
    counted, refuted = [], []
    point_count, refutes = Curve.point_count, curves_module._refutes_count

    def counting(curve):
        counted.append(class_key(F, curve.coeffs))
        return point_count(curve)

    def refuting(curve, n_points):
        hit = refutes(curve, n_points)
        if hit:
            refuted.append(class_key(F, curve.coeffs))
        return hit

    monkeypatch.setattr(Curve, "point_count", counting)
    monkeypatch.setattr(curves_module, "_refutes_count", refuting)
    assert_walk_yields_class_firsts(F, list(_matching_curves(F, n, None, 0, 0)), plain)
    counted_keys = [k for k in counted if k is not None]
    refuted_keys = [k for k in refuted if k is not None]
    assert refuted_keys
    assert len(counted_keys) == len(set(counted_keys))
    decided = counted_keys + refuted_keys
    assert len(decided) == len(set(decided)) == class_count(F)


@pytest.mark.parametrize("s, n_points, shape, coeffs", [
    (8, 264, (1, 264), (1, 0, 0, 0, 13)),
    (10, 962, None, (1, 0, 128, 0, 314)),
])
def test_ordinary_char2_walk_builds_two_curves_per_a6(s, n_points, shape, coeffs, monkeypatch):
    # Up to the match, the walk builds and decides only the first curve of
    # each class: a2 = 0 and the least a2 of trace 1, for every a6.
    F = field_make(2, s)
    t1 = next(a2 for a2 in range(F.q) if class_key(F, (1, 0, a2, 0, 1))[1])
    built, decided = [], []
    init, refutes = Curve.__init__, curves_module._refutes_count

    def building(curve, *args):
        init(curve, *args)
        built.append(curve.coeffs)

    def deciding(curve, n):
        decided.append(curve.coeffs)
        return refutes(curve, n)

    monkeypatch.setattr(Curve, "__init__", building)
    monkeypatch.setattr(curves_module, "_refutes_count", deciding)
    assert find_curve_with_order(F, n_points, shape).coeffs == coeffs
    firsts = [(1, 0, a2, 0, a6) for a6 in range(1, coeffs[4] + 1) for a2 in (0, t1)]
    if coeffs[2] == 0:  # a match at a2 = 0 is yielded before t1 is built
        firsts.pop()
    assert built == decided == firsts


# -- refuting a point count by [N]P != O ---------------------------------------------------

REFUTE_FIELDS = [field_make(p, s) for p, s in
                 ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (5, 2), (3, 3))]


@functools.cache
def family_counts(F) -> tuple:
    """(curve, point_count) for every curve_family tuple, counted one by one."""
    return tuple((c, c.point_count()) for c in curve_family(F))


@pytest.mark.parametrize("F", REFUTE_FIELDS, ids=lambda F: f"q{F.q}")
def test_refutation_never_rejects_the_true_count(F):
    for c, n in family_counts(F):
        assert not curves_module._refutes_count(c, n), c.text()


def walk_targets(F) -> list:
    return sorted(
        ((n, shape) for n in admissible_curve_orders(F.q)
         for shape in (None, *admissible_group_structures(F.q, n))),
        key=lambda t: (t[0], t[1] or (0, 0)),
    )


# The 39 walks over F_27 take close to a minute, so the suite walks two: the
# supersingular count 28 (j = 0 in characteristic 3) and a non-cyclic shape
# of an ordinary count.
F27_TARGETS = [(28, None), (32, (2, 16))]


@pytest.mark.parametrize("F", REFUTE_FIELDS, ids=lambda F: f"q{F.q}")
def test_filtered_walk_equals_the_counting_oracle(F):
    """For every attainable (N, shape), _matching_curves yields one curve for
    each tuple of filter(plain_matches, curve_family(F)), where plain_matches
    counts every tuple: that tuple's class's first curve, and the tuple
    itself on p = 3 and the characteristic-2 j = 0 branch."""
    targets = walk_targets(F)
    if F.q == 27:
        assert set(F27_TARGETS) <= set(targets)
        targets = F27_TARGETS
    for n, shape in targets:
        oracle = [c for c, count in family_counts(F)
                  if count == n and (shape is None or group_structure(c) == shape)]
        walked = list(_matching_curves(F, n, shape, 0, 0))
        assert_walk_yields_class_firsts(F, walked, oracle)
    if F.p == 2:  # some count is attained on the j = 0 branch alone
        assert any(all(c.coeffs[0] == 0 for c, count in family_counts(F) if count == n)
                   for n, _ in targets)


def test_find_curve_refutes_before_counting(monkeypatch):
    # N = 57 over F_64 occurs only on the j = 0 branch, which has no class
    # key: counting every tuple before it took 4,223 point counts.
    calls = []
    point_count = Curve.point_count
    monkeypatch.setattr(Curve, "point_count", lambda c: calls.append(c) or point_count(c))
    curve = find_curve_with_order(field_make(2, 6), 57)
    assert curve.text() == "g1:[0,0,0,0,0,0],[0,1,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0]"
    assert len(calls) <= 3


@pytest.mark.parametrize("s, n_points, text, shape", [
    (6, 57, "g1:[0,0,0,0,0,0],[0,1,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0]", (1, 57)),
    (6, 73, "g1:[0,0,0,0,0,0],[0,1,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[1,0,0,0,0,0]", (1, 73)),
    (8, 241, "g1:[0,0,0,0,0,0,0,0],[0,1,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],"
     "[1,0,0,0,0,0,0,0]", (1, 241)),
])
def test_find_curve_with_a_supersingular_count(s, n_points, text, shape):
    # an even trace over F_2^s is supersingular, so these counts occur only
    # on a1 = 0 models, which enumerate through solve_quadratic
    curve = find_curve_with_order(field_make(2, s), n_points)
    assert curve.text() == text
    assert group_structure(curve) == shape


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
