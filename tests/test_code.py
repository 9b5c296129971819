"""Code analytics: construction, dual, distance, MDS certificates, Schur
squares, hulls, self-dualization, quantum-parameter arithmetic."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from agmds import curve_make, field_make
from agmds.code import (
    LinearCode,
    build_code,
    dual_code,
    eaqec_params,
    hull_dim,
    invariant_report,
    is_mds_by_group_sums,
    is_mds_by_minors,
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
    point_labels,
    random_curve,
    subgroup_closure,
)
from agmds.errors import (
    BudgetExceeded,
    CharNotTwo,
    DegreeOutOfRange,
    DuplicatePoints,
    NotHalfRate,
    RangeViolation,
    RankDeficient,
)
from agmds.linalg import FFMatrix
from agmds.recipes import rs_code, search_coset_code

F2 = field_make(2)
F5 = field_make(5)
F7 = field_make(7)
F11 = field_make(11)
F16 = field_make(2, 4)
F19 = field_make(19)

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
            return acc.is_infinity
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
        pts = sorted(rng.sample(affine, n), key=lambda p: p.sort_key())
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


def test_self_dualize_random_half_rate_codes():
    # any [2k, k] code over char 2 whose dual is a diagonal rescaling gets
    # self-dualized; build such codes as C + v*dual(C) fixtures instead:
    # here simply check the solver output property on random full-rank G.
    rng = random.Random(11)
    from agmds.linalg import diagonal_bilinear_solve, rank

    done = 0
    while done < 10:
        M = FFMatrix(F16, [[rng.randrange(16) for _ in range(4)] for _ in range(2)])
        if rank(M) != 2:
            continue
        basis = diagonal_bilinear_solve(M)
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
