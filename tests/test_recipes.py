"""End-to-end constructions: coset codes, length recipes, the self-dual
pipeline, twisted evaluation codes, genus-2 search."""

import time
from math import comb

import pytest

from agmds import curve_make, field_make
from agmds.code import invariant_report, is_mds_by_minors, min_distance, schur_square
from agmds.curves import (
    INFINITY,
    CurvePoint,
    curve_family,
    group_structure,
    parse_curve_text,
    subgroup_closure,
)
from agmds.errors import (
    NoAdmissibleBeta,
    NoAdmissibleCurve,
    NotFound,
    NotMDS,
    PreconditionFailed,
    SubgroupNotFound,
)
from agmds.recipes import (
    DEFAULT_BUDGET,
    _subgroups_of_order,
    admissible_pipeline_traces,
    coprime_split_code,
    coset_code,
    genus2_mds_search,
    rs_code,
    search_coset_code,
    self_dual_pipeline,
    short_length_code,
    sqrt_prime_code,
    supersingular_code,
    twisted_rs_code,
)

F5 = field_make(5)
F19 = field_make(19)
F31 = field_make(31)
E_F5 = curve_make(F5, 1, (0, 0, 0, 0, 1))  # Z/6


# -- explicit coset codes ---------------------------------------------------------


def _point_of_order(curve, t):
    return next(p for p in curve.points() if curve.point_order(p) == t)


def test_coset_code_single_coset():
    gen3 = _point_of_order(E_F5, 3)
    b = _point_of_order(E_F5, 2)
    code, report = coset_code(E_F5, [gen3], [b], 1)
    assert (report.n, report.k, report.d) == (3, 1, 3)
    assert report.is_mds


def test_coset_code_preconditions():
    gen3 = _point_of_order(E_F5, 3)
    b = _point_of_order(E_F5, 2)
    with pytest.raises(PreconditionFailed):
        coset_code(E_F5, [gen3], [b], 2)  # m > order(b) - 1
    gen6 = _point_of_order(E_F5, 6)
    with pytest.raises(PreconditionFailed):
        coset_code(E_F5, [gen3], [gen6], 2)  # <b> meets the subgroup


def test_coset_code_on_subgroup_itself_hits_scan():
    # evaluation set = the subgroup: the inverse pair sums to the identity
    gen3 = _point_of_order(E_F5, 3)
    with pytest.raises(NotMDS):
        coset_code(E_F5, [gen3], [INFINITY], 2)


def test_coset_code_beyond_the_subset_scan_budget():
    # The cyclic 288-point curve that find_curve_with_order(F_256, 288,
    # shape=(1, 288)) returns; the search takes seconds, so it is named here.
    curve = parse_curve_text(field_make(2, 8), "g1:1,0,0,0,[0,0,1,1,1,0,1,0]")
    assert len(curve.points()) == 288 and group_structure(curve) == (1, 288)
    gen = _point_of_order(curve, 32)
    b = _point_of_order(curve, 9)
    assert comb(32, 8) > DEFAULT_BUDGET  # too many 8-subsets to scan
    t0 = time.perf_counter()
    code, report = coset_code(curve, [gen], [b], 8)
    elapsed = time.perf_counter() - t0
    assert (report.n, report.k, report.d, report.is_mds) == (32, 8, 25, True)
    assert elapsed < 1.0


def closure_oracle(curve, generators):
    """Oracle: the subgroup the points generate, grown by the group law."""
    span = {INFINITY}
    frontier = [INFINITY]
    while frontier:
        grown = {curve.add(s, g) for s in frontier for g in generators} - span
        span |= grown
        frontier = list(grown)
    return tuple(sorted(span, key=CurvePoint.sort_key))


def subgroups_of_order_oracle(curve, order):
    """Oracle: closures of single torsion points and of torsion pairs."""
    torsion = [p for p in curve.points() if curve.scalar_mul(order, p) == INFINITY]
    singles = [(p, closure_oracle(curve, [p])) for p in torsion]
    found = {sub for _, sub in singles if len(sub) == order}
    for i, (p, sub_p) in enumerate(singles):
        for q_pt, sub_q in singles[i + 1 :]:
            if q_pt in sub_p or (len(sub_p) * len(sub_q)) % order != 0:
                continue
            sub = closure_oracle(curve, [p, q_pt])
            if len(sub) == order:
                found.add(sub)
    return sorted(found, key=lambda s: [pt.sort_key() for pt in s])


def test_subgroups_of_order_match_pairwise_closure_oracle():
    shapes = set()
    for F in (field_make(3, 2), field_make(13), field_make(17)):
        for curve in curve_family(F):
            shape = group_structure(curve)
            if shape in shapes:
                continue
            shapes.add(shape)
            n_points = shape[0] * shape[1]
            for order in range(1, min(n_points, 12) + 1):
                if n_points % order == 0:
                    expected = subgroups_of_order_oracle(curve, order)
                    assert _subgroups_of_order(curve, order) == expected
    # several subgroups of one order occur only in non-cyclic groups
    assert sum(d1 > 1 for d1, _ in shapes) >= 5


def test_coset_code_multi_coset():
    # two disjoint cosets of the order-2 subgroup of Z/6
    gen2 = _point_of_order(E_F5, 2)
    sub = subgroup_closure(E_F5, [gen2])
    g6 = _point_of_order(E_F5, 6)
    b2 = E_F5.add(g6, g6)
    code, report = coset_code(E_F5, [gen2], [g6, b2], 1)
    assert report.n == 4 and report.k == 1 and report.is_mds
    assert code.provenance["cosets"] == 2
    assert isinstance(code.provenance["combination_condition"], bool)
    with pytest.raises(PreconditionFailed):
        coset_code(E_F5, [gen2], [g6, E_F5.add(g6, gen2)], 1)  # same coset twice


# -- searched coset codes -----------------------------------------------------------


@pytest.mark.parametrize(
    "N,n,m,d", [(12, 4, 2, 3), (24, 6, 3, 4)]
)
def test_search_coset_code_f19(N, n, m, d):
    code, report, meta = search_coset_code(F19, N, n, m)
    assert (report.n, report.k, report.d) == (n, m, d)
    assert report.is_mds
    assert len(meta["points"]) == n
    assert meta["group"][0] * meta["group"][1] == N


def test_search_coset_code_rejects_bad_order():
    with pytest.raises(NoAdmissibleCurve):
        search_coset_code(F19, 24, 5, 2)  # 5 does not divide 24
    with pytest.raises(NoAdmissibleCurve):
        search_coset_code(field_make(2, 3), 11, 4, 2)  # 11 not attainable


# -- length recipes --------------------------------------------------------------------


def test_coprime_split_code():
    code, report, meta = coprime_split_code(F19, 4, 5, 2)
    assert (report.n, report.k, report.d) == (4, 2, 3) and report.is_mds
    with pytest.raises(PreconditionFailed):
        coprime_split_code(F19, 4, 6, 2)
    with pytest.raises(PreconditionFailed):
        coprime_split_code(F19, 4, 5, 4)  # m > l1 - 1


def test_sqrt_prime_code_p19():
    code, report, meta = sqrt_prime_code(19, 2)
    assert (report.n, report.k, report.d) == (4, 2, 3) and report.is_mds
    code, report, meta = sqrt_prime_code(19, 2, longer=True)
    assert (report.n, report.k, report.d) == (5, 2, 4) and report.is_mds
    assert meta["N"] == 20
    with pytest.raises(PreconditionFailed):
        sqrt_prime_code(15, 2)


def test_short_length_code():
    small = field_make(2, 10)  # q = 1024, q^(1/4) ~ 5.6 < 6: too small
    with pytest.raises(PreconditionFailed):
        short_length_code(small, 6, 3)
    F = field_make(2411)  # 7^4 = 2401 <= q, so n = 7 is in range
    code, report, meta = short_length_code(F, 7, 3)
    assert (report.n, report.k, report.d) == (7, 3, 5) and report.is_mds
    assert report.schur_dim == 6
    with pytest.raises(PreconditionFailed):
        short_length_code(F, 5, 2)  # n < 6
    with pytest.raises(PreconditionFailed):
        short_length_code(F, 7, 4)  # m > n/2


def test_supersingular_counts_and_codes():
    # p = 5 = 2 mod 3: y^2 = x^3 + 1 has 6 points over F_5
    code, report, meta = supersingular_code(5, 1, 2, 1)
    assert meta["N"] == 6 and report.is_mds

    # p = 7 = 3 mod 4: y^2 = x^3 + x has 8 points over F_7 ...
    e7 = curve_make(field_make(7), 1, (0, 0, 0, 1, 0))
    assert len(e7.points()) == 8
    # ... but the group is cyclic of order 8, so every nontrivial subgroup
    # contains the unique 2-torsion point and no independent rep exists
    with pytest.raises(SubgroupNotFound):
        supersingular_code(7, 1, 2, 1)

    with pytest.raises(PreconditionFailed):
        supersingular_code(7, 1, 3, 1)  # 3 does not divide 8
    with pytest.raises(PreconditionFailed):
        supersingular_code(13, 1, 2, 1)  # 13 = 1 mod 3 and mod 4

    # even extension degree: F_25 count (5+1)^2 = 36, exponent 6
    code, report, meta = supersingular_code(5, 2, 3, 2)
    assert meta["N"] == 36 and (report.n, report.k, report.d) == (3, 2, 2)
    with pytest.raises(SubgroupNotFound):
        supersingular_code(5, 2, 4, 2)  # no order-4 point in (Z/6)^2

    # p = 7, even extension: (Z/8)^2 over F_49 has independent order-4 parts
    code, report, meta = supersingular_code(7, 2, 4, 2)
    assert meta["N"] == 64 and (report.n, report.k, report.d) == (4, 2, 3)
    assert report.is_mds


# -- twisted and plain evaluation codes ----------------------------------------------------


def test_twisted_rs_known_cases():
    # eta = 5 fails: 5 * (1*4) = 20 = 1 mod 19 kills the {1,4} minor
    code, report, flag = twisted_rs_code(F19, [1, 2, 3, 4], 5, 2)
    assert not flag and report.is_mds is False
    # eta = 6 works
    code, report, flag = twisted_rs_code(F19, [1, 2, 3, 4], 6, 2)
    assert flag and report.is_mds and (report.n, report.k, report.d) == (4, 2, 3)


def test_twisted_rs_condition_matches_minors_for_all_eta():
    alphas = [1, 2, 3, 4]
    for k in (1, 2, 3):
        for eta in range(1, 19):
            code, report, flag = twisted_rs_code(F19, alphas, eta, k)
            assert flag == is_mds_by_minors(code)


def test_twisted_rs_schur_dimension_certificate():
    # the twist raises the Schur dimension to >= 2k for every eta, and an
    # MDS instance with n = 8, k = 3 exists for a suitable evaluation set
    for eta in range(1, 19):
        code, report, flag = twisted_rs_code(F19, list(range(1, 9)), eta, 3)
        assert report.schur_dim >= 6
    code, report, flag = twisted_rs_code(F19, [12, 13, 1, 8, 15, 7, 6, 4], 11, 3)
    assert flag and report.is_mds and report.non_rs_certified
    assert (report.n, report.k, report.d) == (8, 3, 6)


def test_twisted_rs_validation():
    from agmds.errors import DuplicateEvaluationPoints

    with pytest.raises(DuplicateEvaluationPoints):
        twisted_rs_code(F19, [1, 1, 2], 3, 1)
    with pytest.raises(PreconditionFailed):
        twisted_rs_code(F19, [1, 2, 3], 0, 1)
    with pytest.raises(PreconditionFailed):
        twisted_rs_code(F19, [1, 2, 3], 5, 3)  # k > n - 1


def test_rs_code_basics():
    code = rs_code(F19, list(range(1, 9)), 3)
    assert is_mds_by_minors(code)
    assert schur_square(code).k == 5
    full = rs_code(F5, [0, 1, 2, 3, 4], 5)
    assert min_distance(full) == 1


# -- self-dual pipeline ----------------------------------------------------------------------


def test_pipeline_traces_f16():
    assert admissible_pipeline_traces(2, 2) == [-7]


def test_self_dual_pipeline_f16_n6():
    code, report, meta = self_dual_pipeline(2, 2, 1, 3)
    assert (report.n, report.k, report.d) == (6, 3, 4)
    assert report.is_mds and report.self_dual
    assert report.hull_dim == 3
    assert meta["beta"] == -7 and meta["N"] == 24
    assert code.gen.mul(code.gen.transpose()).is_zero()
    # Schur rows of a self-orthogonal code all have zero coordinate sum,
    # so the Schur dimension can never exceed n - 1.
    assert report.schur_dim == 5


def test_self_dual_pipeline_not_mds_for_deep_two_part():
    # with t >= 2 the half-size subset sums can hit the identity; the scan
    # catches it for both F_16 parameter sets
    with pytest.raises(NotMDS):
        self_dual_pipeline(2, 2, 2, 1)
    with pytest.raises(NotMDS):
        self_dual_pipeline(2, 2, 2, 3)


def test_self_dual_pipeline_parameter_validation():
    with pytest.raises(PreconditionFailed):
        self_dual_pipeline(2, 2, 3, 1)  # t > h2 - 1
    with pytest.raises(PreconditionFailed):
        self_dual_pipeline(2, 2, 1, 5)  # 5 does not divide L = 3
    with pytest.raises(PreconditionFailed):
        self_dual_pipeline(2, 2, 1, 2)  # even L'
    with pytest.raises(NoAdmissibleBeta):
        self_dual_pipeline(3, 1, 1, 1)  # no trace = 1 mod 8 works over F_8


# -- genus-2 search ----------------------------------------------------------------------------


def test_genus2_search_f31():
    X = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])
    assert len(X.affine_points()) == 27
    code, report, meta = genus2_mds_search(X, 10, 6, seed=0)
    assert (report.n, report.k, report.d) == (10, 5, 6)
    assert report.is_mds
    assert meta["attempts"] >= 1
    assert isinstance(meta["counting_bound_ok"], bool)


def test_genus2_search_validation_and_budget():
    X = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])
    with pytest.raises(PreconditionFailed):
        genus2_mds_search(X, 10, 2)  # m too small
    with pytest.raises(PreconditionFailed):
        genus2_mds_search(X, 50, 6)  # more points than the curve has
    with pytest.raises(PreconditionFailed):
        genus2_mds_search(curve_make(F31, 1, (0, 0, 0, 0, 1)), 10, 6)
    with pytest.raises(NotFound) as exc:
        genus2_mds_search(X, 10, 6, seed=0, budget=3)
    assert "3 attempts" in str(exc.value)


def test_genus2_schur_dimension():
    X = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])
    import random

    rng = random.Random(12)
    pts = sorted(rng.sample(X.affine_points(), 20), key=lambda p: p.sort_key())
    from agmds.code import build_code

    code = build_code(X, pts, 9)
    assert code.k == 8
    assert schur_square(code).k == 2 * code.k + 1


# -- reports against the full scans --------------------------------------------------------

X31 = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])

# Each recipe certifies MDS once and takes d from that verdict; these runs
# check every returned report against invariant_report, whose distance and
# MDS flag come from the support scan and the minor scan.
DIFFERENTIAL_RUNS = {
    "search_coset_code": lambda: [
        search_coset_code(F19, N, n, m)
        for N, n, m in (
            (12, 4, 2), (15, 5, 2), (18, 6, 2), (20, 5, 2), (24, 6, 3),
            (16, 8, 3), (24, 6, 2),
        )
    ],
    "coprime_split_code": lambda: [coprime_split_code(F19, 4, 5, 2)],
    "sqrt_prime_code": lambda: [
        sqrt_prime_code(19, 2, longer=longer) for longer in (False, True)
    ],
    "supersingular_code": lambda: [
        supersingular_code(*args) for args in ((5, 1, 2, 1), (5, 2, 3, 2), (7, 2, 4, 2))
    ],
    "twisted_rs_code": lambda: [
        twisted_rs_code(F19, range(1, 7), eta, k)
        for eta in range(1, 19)
        for k in (1, 2, 3)
    ],
    "self_dual_pipeline": lambda: [self_dual_pipeline(2, 2, 1, 3)],
    "genus2_mds_search": lambda: [
        genus2_mds_search(X31, 9, 6, seed=seed) for seed in range(5)
    ],
}


@pytest.mark.parametrize("recipe", sorted(DIFFERENTIAL_RUNS))
def test_recipe_report_equals_full_scan_report(recipe):
    for code, report, _ in DIFFERENTIAL_RUNS[recipe]():
        assert report == invariant_report(code)
