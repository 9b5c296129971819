"""Code analytics: construction, dual, distance, MDS certificates, Schur
squares, hulls, self-dualization, quantum-parameter arithmetic."""

import random
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from agmds import curve_make, field_make
from agmds.code import (
    DEFAULT_BUDGET,
    LinearCode,
    build_code,
    dual_code,
    eaqec_params,
    elliptic_schur,
    hull_dim,
    invariant_report,
    is_mds_by_group_sums,
    is_mds_by_minors,
    is_mds_by_systematic_minors,
    is_self_dual,
    min_distance,
    permute_and_scale,
    schur_square,
    self_dualize,
)
from agmds.code import _distance_by_enumeration, _distance_by_supports
from agmds.curves import (
    INFINITY,
    coset,
    curve_family,
    discriminant_genus1,
    group_structure,
    point_labels,
    random_curve,
    subgroup_closure,
)
from agmds.errors import (
    BudgetExceeded,
    CharNotTwo,
    DegreeOutOfRange,
    DuplicatePoints,
    NoFullWeightSolution,
    NotHalfRate,
    PointNotOnCurve,
    RangeViolation,
    RankDeficient,
)
from agmds.linalg import FFMatrix, rank
from agmds.recipes import _passes, _subgroups_of_order, rs_code, search_coset_code

F2 = field_make(2)
F5 = field_make(5)
F7 = field_make(7)
F11 = field_make(11)
F16 = field_make(2, 4)
F19 = field_make(19)
F31 = field_make(31)
F1009 = field_make(1009)

E_F5 = curve_make(F5, 1, (0, 0, 0, 0, 1))
PTS_F5 = [E_F5.point(0, 1), E_F5.point(2, 2), E_F5.point(4, 0)]


def test_build_code_hand_example():
    code = build_code(E_F5, PTS_F5, 2)
    assert (code.n, code.k) == (3, 2)
    assert code.gen.data == [[1, 1, 1], [0, 2, 4]]


def test_build_code_repetition_row():
    code = build_code(E_F5, PTS_F5, 1)
    assert code.gen.data == [[1, 1, 1]]
    assert min_distance(code) == code.n


def test_build_code_errors():
    with pytest.raises(DegreeOutOfRange):
        build_code(E_F5, PTS_F5, 0)
    with pytest.raises(DegreeOutOfRange):
        build_code(E_F5, PTS_F5, 3)  # m < n required
    with pytest.raises(DuplicatePoints):
        build_code(E_F5, [PTS_F5[0], PTS_F5[0], PTS_F5[1]], 2)


def test_build_code_generators_have_full_rank_without_the_check():
    # build_code skips LinearCode's rank check: a nonzero f in L(m*P0) has
    # at most m zeros, so n > m distinct affine points give rank k; rank()
    # is the oracle on seeded random curves, point sets and degrees.
    rng = random.Random(37)
    curves = [random_curve(F, rng) for F in (F7, F16, F19, field_make(3, 2), F31)
              for _ in range(4)]
    curves.append(curve_make(F31, 2, [1, 0, 0, 0, 0, 1]))  # genus 2
    built = 0
    for curve in curves:
        affine, low = curve.affine_points(), 2 * curve.genus - 1  # the least m
        for _ in range(6 if len(affine) > low else 0):
            n = rng.randint(low + 1, len(affine))
            m = rng.randint(low, n - 1)
            code = build_code(curve, rng.sample(affine, n), m)
            assert code.k == m + 1 - curve.genus
            assert rank(code.gen) == code.k, (curve.text(), n, m)
            built += 1
    assert built >= 100


def test_dual_code_examples():
    rep = build_code(E_F5, PTS_F5, 1)
    dual = dual_code(rep)
    assert dual.k == 2
    assert all(sum(row) % 5 == 0 for row in dual.gen.data)  # sum-zero code

    full = LinearCode(F5, FFMatrix.identity(F5, 3))
    assert dual_code(full).k == 0  # dual of the full space is the zero code

    code = build_code(E_F5, PTS_F5, 2)
    dual = dual_code(code)
    assert dual.k == 1
    assert code.gen.mul(dual.gen.transpose()).is_zero()
    # double dual equals the original row space
    dd = dual_code(dual)
    from agmds.linalg import rank

    assert rank(code.gen.stack(dd.gen)) == code.k


def test_min_distance_examples():
    code = build_code(E_F5, PTS_F5, 2)
    assert min_distance(code) == 2  # meets the Singleton bound for [3,2]


def test_min_distance_strategies_agree():
    rng = random.Random(42)
    from agmds.linalg import rank

    done = 0
    while done < 40:
        F = rng.choice([F5, F7, F11])
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        M = FFMatrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)])
        if rank(M) != k:
            continue
        code = LinearCode(F, M)
        assert _distance_by_enumeration(code) == _distance_by_supports(code)
        done += 1


def test_min_distance_budget():
    code = rs_code(F19, list(range(16)), 8)
    with pytest.raises(BudgetExceeded):
        min_distance(code, budget=10)


def test_mds_by_minors_examples():
    assert is_mds_by_minors(rs_code(F19, [1, 2, 3, 4, 5], 3))  # Vandermonde
    padded = LinearCode(F19, FFMatrix(F19, [[1, 0, 0], [0, 1, 0]]))
    assert not is_mds_by_minors(padded)  # zero column
    # a one-point code on a coset with an inverse pair has a skipped column pair
    pts = [E_F5.point(0, 1), E_F5.point(0, 4), E_F5.point(2, 2), E_F5.point(2, 3)]
    code = build_code(E_F5, pts, 2)
    assert not is_mds_by_minors(code)
    assert min_distance(code) == code.n - 2  # weight n-m codeword exists


def _both_minor_verdicts(code, **kw):
    verdict = is_mds_by_systematic_minors(code, **kw)
    assert verdict == is_mds_by_minors(code, **kw)
    return verdict


def test_systematic_minors_edge_cases():
    rs = rs_code(F31, range(1, 9), 4)
    assert _both_minor_verdicts(rs)
    # a zero column, first among the pivots or inside A
    for pos in (0, 5):
        rows = [row[:pos] + [0] + row[pos + 1:] for row in rs.gen.data]
        assert not _both_minor_verdicts(LinearCode(F31, FFMatrix(F31, rows)))
    # the first k columns are dependent though the code has full rank
    dep = [[1, 2, 1, 1], [2, 4, 1, 3]]
    assert not _both_minor_verdicts(LinearCode(F31, FFMatrix(F31, dep)))
    # k = 1: MDS iff no coordinate is zero
    assert _both_minor_verdicts(rs_code(F31, range(1, 9), 1))
    assert not _both_minor_verdicts(LinearCode(F31, FFMatrix(F31, [[1, 2, 0, 3]])))
    # k = n - 1 and k = n
    assert _both_minor_verdicts(rs_code(F31, range(1, 9), 7))
    repeated = [[1, 0, 1], [0, 1, 0]]  # columns 0 and 2 are equal
    assert not _both_minor_verdicts(LinearCode(F31, FFMatrix(F31, repeated)))
    assert _both_minor_verdicts(rs_code(F31, range(1, 6), 5))
    # every minor of size 2 to 8 of a Reed-Solomon code, over a large field
    assert is_mds_by_systematic_minors(rs_code(F1009, range(1, 17), 8))
    # k = 0 is never MDS
    assert not _both_minor_verdicts(LinearCode(F31, FFMatrix(F31, [], 4)))
    # both refuse the same C(n, k) > budget, before any elimination
    for fn in (is_mds_by_systematic_minors, is_mds_by_minors):
        with pytest.raises(BudgetExceeded):
            fn(rs_code(F31, range(1, 21), 10), budget=1000)
        with pytest.raises(BudgetExceeded):
            fn(LinearCode(F31, FFMatrix(F31, [[0, 0, 1]])), budget=2)


# F_2 has q - 1 = 1, where every ratio of nonzero entries is 1, and F_3^3
# is an odd extension, whose sub goes through its Zech table
MINOR_FIELDS = [F31, F16, field_make(3, 2), F2, field_make(3, 3)]


def _random_matrix(data, F, rows, cols):
    return [
        [data.draw(st.integers(0, F.q - 1)) for _ in range(cols)] for _ in range(rows)
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_systematic_minors_agree_with_column_minors(data):
    F = data.draw(st.sampled_from(MINOR_FIELDS))
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, n))
    shape = data.draw(st.sampled_from(["random", "mixed-rs", "zero-column", "dependent"]))
    if shape == "mixed-rs":
        # an MDS code in no systematic form: a Vandermonde generator with
        # its rows mixed and its columns scaled
        assume(n <= F.q)
        alphas = data.draw(
            st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n, unique=True)
        )
        mix = _random_matrix(data, F, k, k)
        assume(rank(FFMatrix(F, mix)) == k)
        scales = [data.draw(st.integers(1, F.q - 1)) for _ in range(n)]
        rows = FFMatrix(F, mix).mul(rs_code(F, alphas, k).gen).scale_columns(scales).data
    else:
        rows = _random_matrix(data, F, k, n)
        if shape == "zero-column":
            c = data.draw(st.integers(0, n - 1))
            for row in rows:
                row[c] = 0
        elif shape == "dependent" and k >= 2:
            # column k - 1 a combination of the columns before it
            coeffs = [data.draw(st.integers(0, F.q - 1)) for _ in range(k - 1)]
            for row in rows:
                acc = 0
                for c, v in zip(coeffs, row):
                    acc = F.add(acc, F.mul(c, v))
                row[k - 1] = acc
    gen = FFMatrix(F, rows, n)
    assume(rank(gen) == k)
    _both_minor_verdicts(LinearCode(F, gen))


def _det(F, rows):
    """Determinant by forward elimination, for the planted-minor test."""
    M = [row[:] for row in rows]
    det = 1
    for c in range(len(M)):
        pr = next((i for i in range(c, len(M)) if M[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            det = F.neg(det)
        det = F.mul(det, M[c][c])
        ip = F.inv(M[c][c])
        for i in range(c + 1, len(M)):
            f = F.mul(M[i][c], ip)
            M[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(M[i], M[c])]
    return det


def _planted_cauchy(F, xs, ys, I, J):
    """The Cauchy matrix 1/(x - y), every square submatrix of which is
    nonsingular, with one entry of its block on rows I and columns J reset
    so that the block is singular.  The first entry of the block for which
    the block is then the only singular square submatrix of its size or
    smaller (only those holding the entry can have changed), or None."""
    C = [[F.inv(F.sub(x, y)) for y in ys] for x in xs]
    t = len(I)
    for i, j in product(I, J):
        A = [row[:] for row in C]
        # the block's determinant is affine in A[i][j], with a Cauchy minor
        # as its slope
        A[i][j] = 0
        d0 = _det(F, [[A[a][b] for b in J] for a in I])
        A[i][j] = 1
        slope = F.sub(_det(F, [[A[a][b] for b in J] for a in I]), d0)
        A[i][j] = F.neg(F.div(d0, slope))
        if all(
            _det(F, [[A[a][b] for b in cols] for a in rows])
            for s in range(1, t + 1)
            for rows in combinations(range(len(xs)), s) if i in rows
            for cols in combinations(range(len(ys)), s) if j in cols
            if (rows, cols) != (tuple(I), tuple(J))
        ):
            return A
    return None


# (field, largest planted size): over the small fields a singular block of
# size 5 or 6 almost always brings a singular smaller minor with it, so
# those sizes are planted over F_1009 alone
PLANT_FIELDS = [(F31, 4), (field_make(2, 5), 4), (field_make(3, 3), 4), (F1009, 6)]


@pytest.mark.parametrize("t", [None, 3, 4, 5, 6])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_systematic_minors_find_a_planted_singular_minor(t, data):
    # [I | A] with no zero entry and no singular minor smaller than t, and
    # exactly one singular t x t minor (none when t is None), hidden by row
    # mixing and column scaling: the certificate must reject at size t
    low = t or 3
    F = data.draw(st.sampled_from([F for F, top in PLANT_FIELDS if top >= low]))
    k = data.draw(st.integers(low, 6))
    r = data.draw(st.integers(low, 12 - k))
    elements = data.draw(
        st.lists(st.integers(0, F.q - 1), min_size=k + r, max_size=k + r, unique=True)
    )
    xs, ys = elements[:k], elements[k:]
    if t is None:
        A = [[F.inv(F.sub(x, y)) for y in ys] for x in xs]
    else:
        I = sorted(data.draw(st.permutations(range(k)))[:t])
        J = sorted(data.draw(st.permutations(range(r)))[:t])
        A = _planted_cauchy(F, xs, ys, I, J)
        assume(A is not None)
    mix = _random_matrix(data, F, k, k)
    assume(rank(FFMatrix(F, mix)) == k)
    scales = [data.draw(st.integers(1, F.q - 1)) for _ in range(k + r)]
    systematic = [[int(i == j) for j in range(k)] + row for i, row in enumerate(A)]
    gen = FFMatrix(F, mix).mul(FFMatrix(F, systematic)).scale_columns(scales)
    assert _both_minor_verdicts(LinearCode(F, gen)) is (t is None)


def test_mds_by_group_sums_examples():
    # m = 1 with affine points: the identity is not affine
    assert is_mds_by_group_sums(E_F5, PTS_F5, 1)
    # inverse pair with m = 2 sums to the identity
    pts = [E_F5.point(0, 1), E_F5.point(0, 4), E_F5.point(2, 2)]
    assert not is_mds_by_group_sums(E_F5, pts, 2)


def zero_sum_subset_exists(curve, points, m):
    """Oracle: recursive scan over the m-subsets with the chord-tangent law."""
    pts = list(points)

    def scan(start, left, acc):
        if left == 0:
            return not acc
        return any(
            scan(i + 1, left - 1, curve.add(acc, pts[i]))
            for i in range(start, len(pts) - left + 1)
        )

    return scan(0, m, INFINITY)


def _three_verdicts_agree(curve, pts, m):
    by_dp = is_mds_by_group_sums(curve, pts, m)
    assert by_dp == (not zero_sum_subset_exists(curve, pts, m))
    if m < len(pts):  # build_code needs m < n
        assert by_dp == is_mds_by_minors(build_code(curve, pts, m))
    return by_dp


# curves of every shape over small fields, d1 > 1 among them
DP_CURVES = [
    c
    for F in (F7, field_make(3, 2), field_make(13), F16)
    for c in list(curve_family(F))[::7]
    if len(c.points()) >= 4
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subset_sum_dp_agrees_with_scan_and_minors(data):
    curve = data.draw(st.sampled_from(DP_CURVES))
    pts = curve.points()
    if data.draw(st.booleans()):  # a coset of a random subgroup
        gens = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=2))
        sub = subgroup_closure(curve, gens)
        assume(len(sub) < len(pts) and len(sub) <= 10)
        b = data.draw(st.sampled_from([p for p in pts if p not in set(sub)]))
        eval_pts = coset(curve, sub, b)
    else:  # any set of affine points
        eval_pts = data.draw(
            st.lists(st.sampled_from(curve.affine_points()), min_size=1,
                     max_size=9, unique=True)
        )
    m = data.draw(st.integers(1, len(eval_pts)))
    _three_verdicts_agree(curve, eval_pts, m)


def test_subset_sum_dp_every_degree_on_noncyclic_groups():
    # m = 1 through m = n on cosets and on non-coset sets of Z/d1 x Z/d2
    rng = random.Random(12)
    shapes = set()
    for curve in DP_CURVES:
        labels = point_labels(curve)
        if labels.d1 == 1 or (labels.d1, labels.d2) in shapes:
            continue
        shapes.add((labels.d1, labels.d2))
        pts = curve.points()
        sub = subgroup_closure(curve, [labels.point((1, 0))])
        b = next(p for p in pts if p not in set(sub))
        affine = curve.affine_points()
        for eval_pts in (coset(curve, sub, b), rng.sample(affine, min(8, len(affine)))):
            verdicts = [
                _three_verdicts_agree(curve, eval_pts, m)
                for m in range(1, len(eval_pts) + 1)
            ]
            assert verdicts[0]  # no affine point is the identity
    assert len(shapes) >= 3


def test_subset_sum_dp_budget_counts_steps_taken():
    # an inverse pair comes first, so the DP stops after three row updates
    pts = [E_F5.point(0, 1), E_F5.point(0, 4)] + [E_F5.point(2, 2)] * 30
    assert not is_mds_by_group_sums(E_F5, pts, 2, budget=3)
    with pytest.raises(BudgetExceeded):
        is_mds_by_group_sums(E_F5, pts[1:], 2, budget=3)


def test_cross_oracle_mds_equivalence_on_coset_codes():
    rng = random.Random(88)
    done = 0
    while done < 40:
        F = rng.choice([F11, field_make(13), F19])
        curve = random_curve(F, rng)
        pts = curve.points()
        sub = subgroup_closure(curve, rng.sample(pts, 2))
        n = len(sub)
        if not 3 <= n <= 12 or n == len(pts):
            continue
        b = rng.choice([p for p in pts if p not in set(sub)])
        eval_pts = coset(curve, sub, b)
        m = rng.randint(2, min(4, n - 1))
        code = build_code(curve, eval_pts, m)
        assert is_mds_by_group_sums(curve, eval_pts, m) == is_mds_by_minors(code)
        done += 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_certificates_and_distance_agree_on_random_cosets(data):
    # the group-sum scan, the minor scan and the support-scan distance are
    # three independent answers to "is this coset code MDS?"
    F = field_make(data.draw(st.sampled_from([11, 13, 17, 19])))
    coeffs = data.draw(st.tuples(*[st.integers(0, F.q - 1)] * 5))
    assume(discriminant_genus1(F, coeffs) != 0)
    curve = curve_make(F, 1, coeffs)
    pts = curve.points()
    g = data.draw(st.sampled_from(pts))
    t = curve.point_order(g)
    sizes = [e for e in range(3, 11) if t % e == 0 and e < len(pts)]
    assume(sizes)
    n = data.draw(st.sampled_from(sizes))
    sub = subgroup_closure(curve, [curve.scalar_mul(t // n, g)])
    b = data.draw(st.sampled_from([p for p in pts if p not in set(sub)]))
    eval_pts = coset(curve, sub, b)
    m = data.draw(st.integers(2, n - 1))
    code = build_code(curve, eval_pts, m)
    by_sums = is_mds_by_group_sums(curve, eval_pts, m)
    assert by_sums == is_mds_by_minors(code)
    assert by_sums == (min_distance(code) == n - m + 1)


def test_ag_designed_distance_bound():
    # exact distance is n - m or n - m + 1 for one-point genus-1 codes
    rng = random.Random(3)
    done = 0
    while done < 25:
        curve = random_curve(rng.choice([F11, F19]), rng)
        affine = curve.affine_points()
        n = rng.randint(5, min(9, len(affine)))
        m = rng.randint(2, n - 2)
        pts = sorted(rng.sample(affine, n))
        code = build_code(curve, pts, m)
        d = min_distance(code)
        assert d in (code.n - m, code.n - m + 1)
        assert code.k == m
        done += 1


def test_schur_square_examples():
    assert schur_square(rs_code(F19, list(range(1, 9)), 3)).k == 5

    code, _, _ = search_coset_code(F19, 16, 8, 3)
    assert schur_square(code).k == 6

    rep = build_code(E_F5, PTS_F5, 1)
    assert schur_square(rep).k == 1


# -- the Schur square of an elliptic code by Riemann-Roch ---------------------------


def _zero_sum_set(labels, affine, n, rng):
    """n distinct affine points whose labels sum to the identity, or None
    when 20 draws find none."""
    for _ in range(20):
        pts = rng.sample(affine, n - 1)
        i = -sum(labels.of(p)[0] for p in pts) % labels.d1
        j = -sum(labels.of(p)[1] for p in pts) % labels.d2
        last = labels.point((i, j))
        if last and last not in pts:
            return pts + [last]
    return None


def _schur_law_case(curve, kind, rng):
    """(points, m) of the given branch of elliptic_schur on at most 10
    random affine points of curve, or None when the curve cannot give it."""
    affine = curve.affine_points()
    top = min(len(affine), 10)
    if kind == "m=1" and top >= 2:
        return rng.sample(affine, rng.randint(2, top)), 1
    if kind == "m=2" and top >= 3:
        return rng.sample(affine, rng.randint(3, top)), 2
    if kind == "m=2, two abscissas":
        by_x = {}
        for pt in affine:
            by_x.setdefault(pt[0], []).append(pt)
        doubled = [pts for pts in by_x.values() if len(pts) == 2]
        if doubled and len(by_x) >= 2:
            first = rng.choice(doubled)
            other = rng.choice([pts for pts in by_x.values() if pts is not first])
            return first + other, 2
    if kind == "2m < n" and top >= 7:
        n = rng.randint(7, top)
        return rng.sample(affine, n), rng.randint(3, (n - 1) // 2)
    if kind == "2m = n" and top >= 6:
        n = 2 * rng.randint(3, top // 2)
        return rng.sample(affine, n), n // 2
    if kind == "2m = n, zero sum" and top >= 6:
        n = 2 * rng.randint(3, top // 2)
        pts = _zero_sum_set(point_labels(curve), affine, n, rng)
        return None if pts is None else (pts, n // 2)
    if kind == "2m > n" and top >= 4:
        n = rng.randint(4, top)
        return rng.sample(affine, n), rng.randint(max(3, n // 2 + 1), n - 1)
    return None


def _schur_law_branch(n, m, schur_dim, schur_d):
    if m == 1:
        return "m=1"
    if m == 2:
        return f"m=2, {schur_dim} abscissas"
    if 2 * m == n:
        return "2m = n, zero sum" if schur_dim == n - 1 else "2m = n"
    if 2 * m > n:
        return "2m > n"
    return "2m < n, MDS square" if schur_d == n - 2 * m + 1 else "2m < n"


def test_elliptic_schur_law_matches_the_square_on_every_family_curve():
    # every family curve of three small fields, with random evaluation sets
    # for each branch of the law under the DP's verdict, and a random coset
    # of each subgroup of order 6 to 10 under _passes, against the row
    # products, their rank and the exact distance scan
    kinds = ("m=1", "m=2", "m=2, two abscissas", "2m < n", "2m = n",
             "2m = n, zero sum", "2m > n")
    rng = random.Random(20170801)
    branches = set()
    for F in (F7, field_make(2, 3), field_make(3, 2)):
        for curve in curve_family(F):
            for kind in kinds:
                case = _schur_law_case(curve, kind, rng)
                if case is None:
                    continue
                pts, m = case
                square = schur_square(build_code(curve, pts, m))
                law = elliptic_schur(pts, m, partial(is_mds_by_group_sums, curve, pts))
                assert law == (square.k, min_distance(square)), (curve.text(), pts, m)
                branches.add(_schur_law_branch(len(pts), m, *law))
    # a random coset of each subgroup of order 6 to 10, at every degree
    # 3 <= m <= n/2, on one curve per group shape, under _passes
    coset_branches = set()
    for F in (F7, field_make(2, 3), field_make(3, 2), F19):
        shapes = {}
        for curve in curve_family(F):
            shapes.setdefault(group_structure(curve), curve)
        for curve in shapes.values():
            labels = point_labels(curve)
            N = labels.d1 * labels.d2
            for subgroup in (s for n in range(6, 11) if N % n == 0 and N > n
                             for s in _subgroups_of_order(labels, n)):
                b = rng.choice([b for b in labels.span([(1, 0), (0, 1)]) if b not in subgroup])
                pts = labels.sorted_points(labels.add(b, s) for s in subgroup)
                for m in range(3, len(pts) // 2 + 1):
                    square = schur_square(build_code(curve, pts, m))
                    law = elliptic_schur(pts, m, partial(_passes, labels, subgroup, b))
                    assert law == (square.k, min_distance(square)), (pts, m)
                    coset_branches.add(_schur_law_branch(len(pts), m, *law))
    assert branches == {
        "m=1", "m=2, 2 abscissas", "m=2, 3 abscissas", "2m < n", "2m < n, MDS square",
        "2m = n", "2m = n, zero sum", "2m > n",
    }
    assert coset_branches == {"2m < n", "2m < n, MDS square", "2m = n", "2m = n, zero sum"}


def test_elliptic_schur_over_budget_keeps_the_dimension():
    curve = curve_make(F7, 1, (0, 0, 0, 3, 1))
    pts = curve.affine_points()[:9]

    def dp(points, budget=DEFAULT_BUDGET):
        return partial(is_mds_by_group_sums, curve, points, budget=budget)

    assert elliptic_schur(pts, 3, dp(pts)) == (6, 3)
    assert elliptic_schur(pts, 3, dp(pts, budget=1)) == (6, None)
    with pytest.raises(RangeViolation):
        elliptic_schur(pts, 9, dp(pts))
    # the sums at 2m <= n name a point off the curve
    off = next((x, y) for x in range(7) for y in range(7) if not curve.contains((x, y)))
    for m, subset in ((3, pts[:5] + [off]), (3, pts[:8] + [off])):
        with pytest.raises(PointNotOnCurve):
            elliptic_schur(subset, m, dp(subset))


def test_hull_examples():
    sd = LinearCode(F2, FFMatrix(F2, [[1, 1]]))
    assert hull_dim(sd) == 1 and is_self_dual(sd)

    full = LinearCode(F5, FFMatrix.identity(F5, 3))
    assert hull_dim(full) == 0 and not is_self_dual(full)


def test_hull_matches_brute_force_intersection():
    rng = random.Random(55)
    from agmds.linalg import rank

    done = 0
    while done < 5:
        M = FFMatrix(F16, [[rng.randrange(16) for _ in range(6)] for _ in range(3)])
        if rank(M) != 3:
            continue
        code = LinearCode(F16, M)
        h = hull_dim(code)
        # brute force: count codewords annihilated by the generator
        gt = code.gen.transpose()
        count = 0
        for word in code.codewords():
            prods = FFMatrix(F16, [list(word)], 6).mul(gt)
            if prods.is_zero():
                count += 1
        assert count == 16**h
        done += 1


def test_self_dualize_examples():
    base = LinearCode(F2, FFMatrix(F2, [[1, 1]]))
    out = self_dualize(base)
    assert out.gen.data == [[1, 1]]
    assert is_self_dual(out)

    with pytest.raises(NotHalfRate):
        self_dualize(LinearCode(F2, FFMatrix(F2, [[1, 1, 1]])))
    with pytest.raises(CharNotTwo):
        self_dualize(LinearCode(F5, FFMatrix(F5, [[1, 2]])))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_self_dualize_draws_a_full_weight_scaling(s):
    # The solutions of G diag(v) G^T = 0 are {(a, a, b, b)}: no basis vector
    # has full weight, so the seeded random combinations find the scaling.
    F = field_make(2, s)
    code = LinearCode(F, FFMatrix(F, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    for seed in (0, 1, 5):
        out = self_dualize(code, seed=seed)
        v = out.provenance["scaling"]
        assert all(v) and v[0] == v[1] and v[2] == v[3]
        assert out.gen.mul(out.gen.transpose()).is_zero()
        assert self_dualize(code, seed=seed).provenance["scaling"] == v


def test_self_dualize_names_an_empty_solution_space():
    # a [6,3] code over F_8 whose Schur square is all of F_8^6
    F8 = field_make(2, 3)
    code = LinearCode(F8, FFMatrix(F8, [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 3],
                                        [0, 0, 1, 1, 4, 5]]))
    assert schur_square(code).k == 6
    with pytest.raises(NoFullWeightSolution) as exc:
        self_dualize(code)
    assert str(exc.value) == "no nonzero solution: the Schur square has dimension n = 6"


def test_self_dualize_random_half_rate_codes():
    # any [2k, k] code over char 2 whose dual is a diagonal rescaling gets
    # self-dualized; build such codes as C + v*dual(C) fixtures instead:
    # here simply check the solver output property on random full-rank G.
    rng = random.Random(11)
    from agmds.linalg import rank

    done = 0
    while done < 10:
        M = FFMatrix(F16, [[rng.randrange(16) for _ in range(4)] for _ in range(2)])
        if rank(M) != 2:
            continue
        basis = dual_code(schur_square(LinearCode(F16, M))).gen
        for v in basis.data:
            assert M.scale_columns(v).mul(M.transpose()).is_zero()
        done += 1


def test_eaqec_params_examples():
    assert eaqec_params(12, 6, 0) == (12, 6, 7, 6)
    assert eaqec_params(12, 6, 6) == (12, 0, 7, 0)
    assert eaqec_params(12, 8, 2) == (12, 6, 5, 2)
    with pytest.raises(RangeViolation):
        eaqec_params(12, 5, 0)  # k < n/2
    with pytest.raises(RangeViolation):
        eaqec_params(12, 12, 0)  # k > n-1
    with pytest.raises(RangeViolation):
        eaqec_params(12, 6, 7)  # h > n/2


def test_invariant_report_examples():
    rep = invariant_report(rs_code(F19, list(range(1, 9)), 3))
    assert (rep.n, rep.k, rep.d) == (8, 3, 6)
    assert rep.is_mds and rep.schur_dim == 5 and not rep.non_rs_certified

    rep = invariant_report(build_code(E_F5, PTS_F5, 1))
    assert rep.schur_dim == 1 and rep.d == 3 and rep.is_mds

    code, report, _ = search_coset_code(F19, 24, 6, 3)
    assert report.is_mds and report.d == 4
    assert report.schur_dim == 6 and report.non_rs_certified


def test_invariant_report_survives_budget_exhaustion():
    code = rs_code(F19, list(range(16)), 8)
    rep = invariant_report(code, budget=10)
    assert rep.d is None and rep.schur_d is None and rep.is_mds is None
    assert rep.n == 16 and rep.k == 8


def test_monomial_invariance_of_fingerprint():
    rng = random.Random(202)
    from agmds.linalg import rank

    done = 0
    while done < 30:
        F = rng.choice([F5, F7, F11])
        n = rng.randint(5, 8)
        k = rng.randint(2, 3)
        M = FFMatrix(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)])
        if rank(M) != k:
            continue
        code = LinearCode(F, M)
        perm = list(range(n))
        rng.shuffle(perm)
        scales = [rng.randrange(1, F.q) for _ in range(n)]
        other = permute_and_scale(code, perm, scales)
        r0, r1 = invariant_report(code), invariant_report(other)
        assert (r0.d, r0.is_mds, r0.schur_dim, r0.schur_d) == (
            r1.d,
            r1.is_mds,
            r1.schur_dim,
            r1.schur_d,
        )
        done += 1


def test_rank_deficient_generator_rejected():
    with pytest.raises(RankDeficient):
        LinearCode(F5, FFMatrix(F5, [[1, 2], [2, 4]]))
    with pytest.raises(RankDeficient):
        LinearCode(F5, FFMatrix(F5, [[1], [2]]))


def test_zero_dimensional_code_allowed():
    code = LinearCode(F5, FFMatrix(F5, [], cols=4))
    assert (code.n, code.k) == (4, 0)
    rep = invariant_report(code)
    assert rep.schur_dim == 0 and rep.d is None and rep.is_mds is False
