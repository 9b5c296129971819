"""End-to-end constructions: coset codes, length recipes, the self-dual
pipeline, twisted evaluation codes, genus-2 search."""

import dataclasses
import hashlib
import json
import time
from collections import Counter
from functools import partial
from itertools import combinations, islice, product
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from agmds import curve_make, field_make
import agmds.code as code_module
from agmds.code import (
    LinearCode,
    build_code,
    invariant_report,
    is_mds_by_group_sums,
    is_mds_by_minors,
    is_mds_by_systematic_minors,
    min_distance,
    schur_square,
)
from agmds.curves import (
    INFINITY,
    Curve,
    Group,
    _matching_curves,
    admissible_curve_orders,
    admissible_group_structures,
    coset,
    curve_family,
    find_curve_with_order,
    group_structure,
    parse_curve_text,
    point_labels,
    subgroup_closure,
)
from agmds.errors import (
    AgmdsError,
    BudgetExceeded,
    NoAdmissibleBeta,
    NoAdmissibleCurve,
    NotFound,
    NotMDS,
    PreconditionFailed,
    RangeViolation,
    SubgroupNotFound,
)
import agmds.curves as curves_module
import agmds.recipes as recipes_module
from agmds.recipes import (
    _SEARCH_DRAWS,
    _SEARCH_FAMILY_CAP,
    DEFAULT_BUDGET,
    _passes,
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
from test_curves import class_key  # the test-side isomorphism-class oracle

F5 = field_make(5)
F19 = field_make(19)
F31 = field_make(31)
E_F5 = curve_make(F5, 1, (0, 0, 0, 0, 1))  # Z/6
X31 = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])  # y^2 = x^5 + 1, 27 affine points


# -- explicit coset codes ---------------------------------------------------------


def _point_of_order(curve, t):
    return next(p for p in curve.points() if curve.point_order(p) == t)


def test_coset_code_single_coset():
    gen3 = _point_of_order(E_F5, 3)
    b = _point_of_order(E_F5, 2)
    code, report = coset_code(E_F5, [gen3], [b], 1)
    assert (report.n, report.k, report.d) == (3, 1, 3)
    assert report.is_mds


def test_coset_code_takes_any_representative():
    # <b> of an order-6 rep meets the order-3 subgroup beyond the identity,
    # and an order-2 rep has order(b) - 1 < m = 2: the DP decides both
    gen3 = _point_of_order(E_F5, 3)
    code, report = coset_code(E_F5, [gen3], [_point_of_order(E_F5, 6)], 1)
    assert (report.n, report.k, report.d, report.is_mds) == (3, 1, 3, True)
    assert is_mds_by_minors(code)
    b = _point_of_order(E_F5, 2)
    with pytest.raises(NotMDS):
        coset_code(E_F5, [gen3], [b], 2)
    points = coset(E_F5, subgroup_closure(E_F5, [gen3]), b)
    assert not is_mds_by_minors(build_code(E_F5, points, 2))


def test_coset_code_needs_a_coset_representative():
    gen3 = _point_of_order(E_F5, 3)
    with pytest.raises(RangeViolation, match="representative"):
        coset_code(E_F5, [gen3], [], 2)


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


@pytest.mark.parametrize("spec, N", [((2, 6), 54), ((3, 4), 90)], ids=["f64-n54", "f81-n90"])
def test_degree_two_searches_read_the_square_off_the_abscissas(spec, N):
    # The square of a degree-2 code is span{1, x, x^2}: its distance is n
    # minus the two largest abscissa multiplicities, where a scan of its
    # q^3 codewords took seconds per search.
    t0 = time.perf_counter()
    _, report, _ = search_coset_code(field_make(*spec), N, 18, 2, seed=1)
    elapsed = time.perf_counter() - t0
    assert (report.d, report.schur_dim, report.schur_d) == (17, 3, 16)
    assert elapsed < 0.5


def closure_oracle(curve, generators):
    """Oracle: the subgroup the points generate, grown by the group law."""
    span = {INFINITY}
    frontier = [INFINITY]
    while frontier:
        grown = {curve.add(s, g) for s in frontier for g in generators} - span
        span |= grown
        frontier = list(grown)
    return tuple(sorted(span))


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
    return sorted(found)


def test_subgroups_of_order_match_pairwise_closure_oracle():
    # the subgroups of a bare Group of the curve's shape, read as points
    shapes = set()
    for F in (field_make(3, 2), field_make(13), field_make(17)):
        for curve in curve_family(F):
            shape = group_structure(curve)
            if shape in shapes:
                continue
            shapes.add(shape)
            labels = point_labels(curve)
            n_points = shape[0] * shape[1]
            for order in range(1, min(n_points, 12) + 1):
                if n_points % order == 0:
                    expected = subgroups_of_order_oracle(curve, order)
                    found = _subgroups_of_order(Group(*shape), order)
                    assert sorted(tuple(labels.sorted_points(s)) for s in found) == expected
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
    with pytest.raises(PreconditionFailed):
        coset_code(E_F5, [gen2], [g6, E_F5.add(g6, gen2)], 1)  # same coset twice


def coset_code_oracle(curve, generators, reps, m):
    """Oracle: coset_code's evaluation points as point sets, the union of
    coset() lists with a pairwise-disjointness check, and the DP's verdict
    on them; raises what coset_code must raise before its verdict."""
    subgroup = subgroup_closure(curve, generators)
    seen = set()
    for b in reps:
        cs = set(coset(curve, subgroup, b))
        if seen & cs:
            raise PreconditionFailed("cosets are not pairwise disjoint")
        seen |= cs
    points = sorted(seen)
    return points, is_mds_by_group_sums(curve, points, m)


def _oracle_curves():
    """Curves of composite order, one per group shape, from the families
    over F_19, F_25 and F_2^6."""
    out = {}
    for F in (F19, field_make(5, 2), field_make(2, 6)):
        for curve in islice(curve_family(F), 0, 400, 7):
            n_points = len(curve.points())
            if any(n_points % d == 0 for d in range(2, n_points)):
                out.setdefault((F.q, group_structure(curve)), curve)
    return [out[key] for key in sorted(out)]


ORACLE_CURVES = _oracle_curves()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coset_code_matches_point_set_oracle(data):
    curve = data.draw(st.sampled_from(ORACLE_CURVES))
    # the point at infinity last: hypothesis favours the first element
    pts = curve.points()[1:] + (INFINITY,)
    # c * P has order dividing N / c, so the subgroups stay small enough to
    # leave room for several cosets
    cofactors = [c for c in range(2, len(pts)) if len(pts) % c == 0]
    gens = [
        curve.scalar_mul(data.draw(st.sampled_from(cofactors)), p)
        for p in data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=2))
    ]
    # 0 reps included: an empty rep list must end in an AgmdsError
    n_reps = data.draw(st.sampled_from((1, 2, 3, 0)))
    reps = [data.draw(st.sampled_from(pts)) for _ in range(n_reps)]
    m = data.draw(st.integers(1, 4))
    try:
        points, mds = coset_code_oracle(curve, gens, reps, m)
        expected = build_code(curve, points, m).gen if mds else None
    except AgmdsError as exc:
        # an empty rep list ends in RangeViolation, never IndexError
        with pytest.raises(AgmdsError) as got:
            coset_code(curve, gens, reps, m)
        assert type(got.value) is type(exc)
        return
    if mds:
        code, report = coset_code(curve, gens, reps, m)
        assert code.gen == expected and report.is_mds
    else:
        with pytest.raises(NotMDS):
            coset_code(curve, gens, reps, m)
        try:
            code = build_code(curve, points, m)
        except AgmdsError:  # m >= n, or the identity among the points
            return
    # the DP's verdict against the minors of the code on the same points
    if comb(code.n, m) <= 3000:
        assert is_mds_by_minors(code) == mds


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


def _reference_coset_search(
    field, n_points: int, n: int, m: int, seed: int = 0
):
    """Brute-force reference of the one-scan rule.  It walks the same
    _matching_curves order with no shape verdict, until every admissible
    shape has appeared, and tries every coset of every size-n subgroup of
    each curve, listed by the group law: subgroups in sorted order, cosets
    in order of their first point, and when 2m = n the cosets summing to
    the identity after all the others.  The first coset whose code the
    minors call MDS wins (the group-sum DP when C(n, m) > 3000).  A class
    copy is the class's first curve again, so its cosets are not retried."""
    if not 1 <= m < n:
        raise RangeViolation(f"need 1 <= m < n ({m=}, {n=})")
    if n_points not in admissible_curve_orders(field.q):
        raise NoAdmissibleCurve(
            f"N={n_points} is not an attainable point count over q={field.q}"
        )
    if n_points % n != 0:
        raise NoAdmissibleCurve(
            f"a size-{n} subgroup needs n | N, got N={n_points}"
        )
    curves = _matching_curves(
        field, n_points, None, seed, _SEARCH_DRAWS, _SEARCH_FAMILY_CAP
    )
    unseen = set(admissible_group_structures(field.q, n_points))

    def candidates():
        walked, last = set(), []  # last: the cosets summing to the identity when 2m = n
        for curve in curves:
            if not unseen:
                break
            if id(curve) in walked:
                continue
            walked.add(id(curve))
            unseen.discard(group_structure(curve))
            for subgroup in subgroups_of_order_oracle(curve, n):
                cosets, covered = [], set(subgroup)
                for b in curve.points():
                    if b not in covered:
                        cosets.append(sorted(curve.add(b, s) for s in subgroup))
                        covered.update(cosets[-1])
                for points in sorted(cosets):
                    if 2 * m == n and curve_sum(curve, points) == INFINITY:
                        last.append((curve, subgroup, points))
                    else:
                        yield curve, subgroup, points
        if not walked:
            raise NoAdmissibleCurve(f"no curve with N={n_points} found over q={field.q}")
        yield from last

    for curve, subgroup, points in candidates():
        if comb(n, m) <= 3000:
            mds = is_mds_by_minors(build_code(curve, points, m))
        else:
            mds = is_mds_by_group_sums(curve, points, m)
        if mds:
            code, report = coset_code(curve, subgroup, [points[0]], m)
            return code, report, {
                "curve": curve, "group": group_structure(curve), "N": n_points,
                "subgroup": subgroup, "rep": points[0], "points": points}
    raise NoAdmissibleCurve(
        f"no curve with N={n_points} over q={field.q} has a size-{n} coset "
        f"giving an MDS degree-{m} code"
    )


def curve_sum(curve, points):
    """Oracle: the sum of the points by the group law."""
    acc = INFINITY
    for p in points:
        acc = curve.add(acc, p)
    return acc


def _search_outcome(field, N, n, m, search=search_coset_code, seed=0):
    """The search's generator matrix, report and meta, or its failure text."""
    try:
        code, report, meta = search(field, N, n, m, seed=seed)
    except NoAdmissibleCurve as exc:
        return f"NoAdmissibleCurve: {exc}"
    return code.gen, report, meta


@pytest.mark.parametrize("q, N, n, m, labelled", [
    ((2, 8), 288, 16, 8, 1),
    ((2, 6), 72, 12, 6, 0),
    ((5, 3), 110, 10, 5, 1),
    ((19, 1), 24, 6, 3, 1),
], ids=["f256-n288", "f64-n72-fails", "f125-n110", "f19-n24"])
def test_search_coset_code_labels_each_failing_class_once(q, N, n, m, labelled,
                                                          monkeypatch):
    # The shapes are decided on bare labels, so only the curve of the code
    # is labelled, and a search that no shape passes labels none.
    field = field_make(*q)
    expected = _search_outcome(field, N, n, m, _reference_coset_search)
    curves = []  # the distinct curves the search labels, in order
    point_labels = recipes_module.point_labels

    def labelling(curve):
        if curve not in curves:
            curves.append(curve)
        return point_labels(curve)

    monkeypatch.setattr(recipes_module, "point_labels", labelling)
    assert _search_outcome(field, N, n, m) == expected
    shapes = [group_structure(c) for c in curves]
    assert len(shapes) == len(set(shapes)) == labelled


def _sweep_cases(fields):
    """(field, N, n, m): up to 6 evenly spaced attainable N per field, every
    coset size 3 <= n <= 24 with n | N and n < N, and m in {2, n//2, n-2}."""
    for spec in fields:
        field = field_make(*spec)
        orders = sorted(admissible_curve_orders(field.q))
        for N in orders[::max(1, len(orders) // 6)][:6]:
            for n in range(3, min(N, 25)):
                if N % n == 0:
                    for m in sorted({2, n // 2, n - 2}):
                        yield field, N, n, m


def test_search_coset_code_equals_the_brute_force_reference_search():
    fields = [(2, 3), (3, 2), (11,), (13,), (2, 4), (17,), (19,), (5, 2), (3, 3), (2, 5)]
    outcomes = Counter()
    for field, N, n, m in _sweep_cases(fields):
        expected = _search_outcome(field, N, n, m, _reference_coset_search, seed=1)
        assert _search_outcome(field, N, n, m, seed=1) == expected, (field.q, N, n, m)
        outcomes[isinstance(expected, str)] += 1
    assert outcomes[False] and outcomes[True]  # codes and failures both occur


def test_coset_recipes_end_in_coset_code():
    # the searched and supersingular codes are coset_code's code on the
    # subgroup and rep they report
    runs = [(supersingular_code(7, 3, 8, 4), 4)]
    for field, N, n, m in islice(_sweep_cases([(2, 4), (19,), (3, 3)]), 0, None, 5):
        try:
            runs.append((search_coset_code(field, N, n, m, seed=1), m))
        except NoAdmissibleCurve:
            pass
    assert len(runs) > 10
    for (code, report, meta), m in runs:
        again, again_report = coset_code(meta["curve"], meta["subgroup"], [meta["rep"]], m)
        assert (code.gen, report) == (again.gen, again_report)
        assert code.provenance == again.provenance


def test_single_coset_codes_reach_no_dp(monkeypatch):
    # _passes decides one coset at every degree its code and Schur square
    # ask, so with a DP that always refuses, the recipes and a one-rep
    # coset_code give the same codes and reports; a union of two cosets
    # still reaches the DP
    _, _, meta = supersingular_code(7, 3, 8, 4)
    curve, subgroup, rep = meta["curve"], meta["subgroup"], meta["rep"]
    runs = [lambda: search_coset_code(field_make(2, 8), 288, 16, 8),
            lambda: supersingular_code(7, 3, 8, 4),
            lambda: self_dual_pipeline(2, 4, 1, 3),
            lambda: coset_code(curve, subgroup, [rep], 4)]
    expected = [run()[:2] for run in runs]

    def refusing(*args):
        raise BudgetExceeded("the DP ran")

    monkeypatch.setattr(code_module, "_has_subset_sum", refusing)
    for run, (code, report) in zip(runs, expected):
        again, again_report = run()[:2]
        assert (again.gen, again_report) == (code.gen, report)
    taken = set(meta["points"]) | set(subgroup)
    other = next(p for p in curve.points() if p not in taken)
    with pytest.raises(BudgetExceeded, match="the DP ran"):
        coset_code(curve, subgroup, [rep, other], 4)


@pytest.mark.parametrize("run, checks", [
    (lambda: search_coset_code(field_make(2, 8), 288, 16, 8, seed=0), 16),
    (lambda: self_dual_pipeline(2, 4, 1, 3), 6),
], ids=["search-f256-n16", "pipeline-f256-n6"])
def test_elliptic_recipes_check_each_evaluation_point_once(run, checks, monkeypatch):
    # build_code checks each evaluation point once, and the Schur law
    # checks none
    calls = []
    contains = Curve.contains

    def counting(curve, point):
        calls.append(point)
        return contains(curve, point)

    monkeypatch.setattr(Curve, "contains", counting)
    _, _, meta = run()
    assert len(calls) == checks and sorted(calls) == sorted(meta["points"])


@pytest.mark.parametrize("q, N, n, m, walks", [
    ((2, 8), 288, 16, 8, True),
    ((2, 6), 72, 12, 6, False),
], ids=["f256-n288", "f64-n72-fails"])
def test_search_coset_code_counts_each_tuple_once(q, N, n, m, walks, monkeypatch):
    # the search takes its curves from one walk of the family, and takes
    # none when no group shape passes
    counted = []
    point_count = Curve.point_count

    def counting(curve):
        counted.append(curve.coeffs)
        return point_count(curve)

    monkeypatch.setattr(Curve, "point_count", counting)
    _search_outcome(field_make(*q), N, n, m)
    assert bool(counted) == walks and len(counted) == len(set(counted))


@pytest.mark.parametrize("q, N, n, m, labellings", [
    ((2, 8), 288, 16, 8, 1),
    ((2, 6), 72, 12, 6, 0),
], ids=["f256-n288", "f64-n72-fails"])
def test_search_coset_code_reuses_pass_one_labels(q, N, n, m, labellings, monkeypatch):
    # the search labels the curve of its code once, and none when no group
    # shape passes
    fresh = []
    point_labels = recipes_module.point_labels

    def labelling(curve):
        if curve._labels is None:
            fresh.append(curve.coeffs)
        return point_labels(curve)

    monkeypatch.setattr(recipes_module, "point_labels", labelling)
    _search_outcome(field_make(*q), N, n, m)
    assert len(fresh) == len(set(fresh)) == labellings


def test_search_coset_code_enumerates_a_counted_char2_curve_once(monkeypatch):
    # A characteristic-2 count keeps the points it enumerates, so labelling
    # the accepted curve reuses them: one call is the refutation prefix and
    # one is the full run of the count.
    E = (1, 0, 0, 0, 1)
    runs = []
    char2_points = Curve._char2_points

    def recorded(run, points):
        for p in points:
            run.append(p)
            yield p

    def recording(curve):
        if curve.coeffs != E:
            return char2_points(curve)
        runs.append([])
        return recorded(runs[-1], char2_points(curve))

    monkeypatch.setattr(Curve, "_char2_points", recording)
    search_coset_code(field_make(2, 8), 288, 16, 8, seed=0)
    assert len(runs) == 2
    assert [len(run) for run in runs].count(287) == 1


def test_search_coset_code_fails_by_the_shape_verdict(monkeypatch):
    # Both N = 72 shapes over F_64, (1, 72) and (3, 24), have 6b in H for
    # every size-12 subgroup H and every b, so the search fails before it
    # walks a curve.
    def walking(*args):
        raise AssertionError("walked the curves")

    monkeypatch.setattr(recipes_module, "_matching_curves", walking)
    assert admissible_group_structures(64, 72) == [(1, 72), (3, 24)]
    assert _search_outcome(field_make(2, 6), 72, 12, 6) == (
        "NoAdmissibleCurve: no curve with N=72 over q=64 has a size-12 coset "
        "giving an MDS degree-6 code"
    )


def test_search_coset_code_names_a_walk_that_finds_no_curve(monkeypatch):
    monkeypatch.setattr(recipes_module, "_matching_curves", lambda *args: iter(()))
    with pytest.raises(NoAdmissibleCurve) as exc:
        search_coset_code(F19, 24, 6, 3)
    assert str(exc.value) == "no curve with N=24 found over q=19"


def test_search_coset_code_rejects_bad_order():
    with pytest.raises(NoAdmissibleCurve):
        search_coset_code(F19, 24, 5, 2)  # 5 does not divide 24
    with pytest.raises(NoAdmissibleCurve):
        search_coset_code(field_make(2, 3), 11, 4, 2)  # 11 not attainable


def test_search_coset_code_refuses_m_equal_to_n_before_counting(monkeypatch):
    # a degree-m code on n points needs m < n
    def counting(curve):
        raise AssertionError(f"counted {curve.text()}")

    monkeypatch.setattr(Curve, "point_count", counting)
    with pytest.raises(RangeViolation, match=r"need 1 <= m < n \(m=6, n=6\)"):
        search_coset_code(F19, 24, 6, 6)


def test_m_sums_fill_every_rank_2_group_but_the_klein_pair():
    # Sigma_m(H), the sums of m distinct elements of H = Z/d1 x Z/d2, is all
    # of H for every 1 <= m < |H| except (Z/2)^2 at m = 2: the fact behind
    # recipes._passes, by brute force.  reach[k][r] holds the k-sums with
    # first coordinate r as one d2-bit row, and adding an element (i, j)
    # rotates each row by j, as in code._has_subset_sum.
    groups = [(d1, d2) for d1 in range(1, 12) for d2 in range(d1, 130 // d1 + 1, d1)]
    exceptions = []
    for d1, d2 in groups:
        n, full = d1 * d2, (1 << d2) - 1
        reach = [[0] * d1 for _ in range(n + 1)]
        reach[0][0] = 1
        for t, (i, j) in enumerate(product(range(d1), range(d2))):
            for k in range(t, -1, -1):
                dst = reach[k + 1]
                for r, row in enumerate(reach[k]):
                    if row:
                        dst[(r + i) % d1] |= ((row << j) | (row >> (d2 - j))) & full
        exceptions += [(d1, d2, m) for m in range(1, n) if reach[m] != [full] * d1]
    assert len(groups) == 199  # the trivial group among them
    assert exceptions == [(2, 2, 2)]


def test_passes_matches_the_dp_on_every_coset_of_one_curve_per_shape():
    # every subgroup, coset (the subgroup itself too) and degree 1 <= m <= n
    # of one curve per (N, shape), against is_mds_by_group_sums on the points
    pairs, klein = Counter(), 0
    for spec in [(7,), (2, 3), (3, 2), (11,), (13,), (2, 4), (17,), (5, 2)]:
        curves = {}
        for curve in curve_family(field_make(*spec)):
            curves.setdefault((len(curve.points()), group_structure(curve)), curve)
        for curve in curves.values():
            labels = point_labels(curve)
            N = len(curve.points())
            for subgroup in (s for order in range(2, N + 1) if N % order == 0
                             for s in _subgroups_of_order(labels, order)):
                n = len(subgroup)
                elements = product(range(labels.d1), range(labels.d2))
                reps = {min(labels.add(b, s) for s in subgroup) for b in elements}
                klein += n == 4 and all(labels.scale(2, s) == (0, 0) for s in subgroup)
                for b in reps:
                    points = labels.sorted_points(labels.add(b, s) for s in subgroup)
                    for m in range(1, n + 1):
                        verdict = _passes(labels, subgroup, b, m)
                        assert verdict == is_mds_by_group_sums(curve, points, m)
                        pairs[verdict] += 1
    assert klein == 27 and pairs == {True: 6273, False: 5625}


def test_first_coset_skips_exactly_the_subgroups_with_no_passing_coset():
    # _first_coset skips a subgroup holding m*G without walking it; on every
    # subgroup and degree of the groups of order <= 48 the verdict equals
    # a walk of _passes over the whole group.
    walked = []

    def walk(group):
        walked.append(1)
        return product(range(group.d1), range(group.d2))

    skipped = 0
    for d1 in range(1, 7):
        for d2 in range(d1, 48 // d1 + 1, d1):
            group = Group(d1, d2)
            for order in range(2, d1 * d2):
                for subgroup in _subgroups_of_order(group, order):
                    for m in range(1, order):
                        walked.clear()
                        found = recipes_module._first_coset(
                            group, [subgroup], m, partial(walk, group))
                        expected = any(b not in subgroup and _passes(group, subgroup, b, m)
                                       for b in walk(group))
                        assert (found is not None) == expected, (d1, d2, sorted(subgroup), m)
                        skipped += len(walked) == 1
    assert skipped > 0
    # the failing F_2^16 shape: Z/66048's subgroup of order 33024 holds 2G
    group = Group(1, 66048)
    (subgroup,) = _subgroups_of_order(group, 33024)
    assert recipes_module._first_coset(
        group, [subgroup], 2, lambda: pytest.fail("the subgroup was walked")) is None


def test_first_coset_defers_in_linear_time():
    # Z/65540's even labels, m = n/2: every odd b passes at m, and every
    # coset sums to the identity, so the search walks all of Z/65540 and
    # returns its first deferred coset; each _passes call at n is O(1)
    group = Group(1, 65540)
    (evens,) = _subgroups_of_order(group, 32770)
    t0 = time.perf_counter()
    found = recipes_module._first_coset(
        group, [evens], 16385, partial(product, range(1), range(65540)))
    assert found == (True, evens, (0, 1))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("spec", [(2, 4), (5, 2), (3, 2)], ids=["f16", "f25", "f9"])
def test_matching_curves_gives_a_class_copy_its_first_curve_shape(spec):
    # A later tuple of a keyed class comes back as the class's first curve,
    # the one object whose shape is asked; p = 3 and characteristic-2 j = 0
    # tuples have no key and come back as themselves.  Asked in walk order,
    # as the search asks, each curve's shape is that of a fresh object.
    field = field_make(*spec)
    counts = [(c.coeffs, c.point_count()) for c in curve_family(field)]
    copies = 0
    for N in admissible_curve_orders(field.q):
        tuples = [coeffs for coeffs, count in counts if count == N]
        walked = list(_matching_curves(field, N, None, 0, 0))
        assert len(walked) == len(tuples)
        firsts, yielded = {}, set()  # class key -> first curve; ids walked so far
        for curve, coeffs in zip(walked, tuples):
            key = class_key(field, coeffs)
            if key in firsts:
                assert curve is firsts[key]
                copies += 1
            else:  # the tuple itself, as a new object
                assert curve.coeffs == coeffs and id(curve) not in yielded
                if key is not None:
                    firsts[key] = curve
            yielded.add(id(curve))
            assert group_structure(curve) == group_structure(Curve(field, 1, coeffs))
    assert copies if field.p != 3 else not copies


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
    # ... and the group is cyclic of order 8: no coset rep is independent of
    # the order-2 subgroup, yet a coset of it gives an MDS [2, 1, 2] code
    code, report, meta = supersingular_code(7, 1, 2, 1)
    assert (report.n, report.k, report.d, report.is_mds) == (2, 1, 2, True)
    assert is_mds_by_minors(code)

    with pytest.raises(PreconditionFailed):
        supersingular_code(7, 1, 3, 1)  # 3 does not divide 8
    with pytest.raises(PreconditionFailed):
        supersingular_code(13, 1, 2, 1)  # 13 = 1 mod 3 and mod 4
    with pytest.raises(PreconditionFailed, match="p must be odd"):
        supersingular_code(2, 3, 3, 1)  # 2 = 2 mod 3, but y^2 = x^3 + 1 is singular
    for n_sub in (0, 1, -3):  # no subgroup length below 2, and 0 divides nothing
        with pytest.raises(PreconditionFailed, match=f"need N >= 2, got N={n_sub}"):
            supersingular_code(5, 1, n_sub, 1)

    # even extension degree: F_25 count (5+1)^2 = 36, exponent 6
    code, report, meta = supersingular_code(5, 2, 3, 2)
    assert meta["N"] == 36 and (report.n, report.k, report.d) == (3, 2, 2)
    with pytest.raises(SubgroupNotFound, match="no point of order 4"):
        supersingular_code(5, 2, 4, 2)  # no order-4 point in (Z/6)^2

    # p = 7, even extension: (Z/8)^2 over F_49 has independent order-4 parts
    code, report, meta = supersingular_code(7, 2, 4, 2)
    assert meta["N"] == 64 and (report.n, report.k, report.d) == (4, 2, 3)
    assert report.is_mds


def test_supersingular_code_refuses_a_subgroup_with_no_mds_coset(monkeypatch):
    # no pinned input has one, so every coset is made to fail
    monkeypatch.setattr(recipes_module, "_passes", lambda *args: False)
    with pytest.raises(NotMDS, match="no coset of the order-8 subgroup is MDS at degree 4"):
        supersingular_code(7, 3, 8, 4)


# Seeded inputs of each coset recipe, successes and failures alike; the
# sha256 of their outcomes pins every generator, report, curve and point.
RECIPE_SWEEPS = {
    "coprime_split_code": (coprime_split_code, [
        (F, l1, l2, m, seed)
        for F in (F19, field_make(23)) for l1, l2 in ((4, 5), (5, 4), (3, 8), (3, 7))
        for m in (2, 3) for seed in (0, 1)
    ]),
    "short_length_code": (short_length_code, [
        (field_make(q), n, m) for q, n, m in ((1297, 6, 3), (2411, 7, 3), (2411, 6, 2))
    ]),
    "sqrt_prime_code": (sqrt_prime_code, [
        (p, m, longer, seed)
        for p in (11, 13, 19, 29, 31, 37, 43, 53) for m in (2, 3)
        for longer in (False, True) for seed in (0, 1)
    ]),
    "supersingular_code": (supersingular_code, [
        (p, e, n_sub, k)
        for p, e in ((5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 1), (11, 2), (11, 3),
                     (23, 1), (23, 2))
        for n_sub in range(2, 17) for k in range(1, n_sub)
    ]),
    "search_coset_code": (search_coset_code, [
        (field_make(*spec), N, n, m, seed)
        for spec, N, n, m in (((19,), 24, 6, 3), ((19,), 24, 8, 4), ((5, 2), 36, 6, 3),
                              ((2, 4), 20, 10, 4), ((3, 3), 36, 9, 4), ((5, 3), 110, 10, 5))
        for seed in (0, 1)
    ]),
}
RECIPE_DIGESTS = {
    "coprime_split_code": "d631256f78adc1b5110b9c13598a75b09daaca5e39c12776c441d6811bca5579",
    "short_length_code": "dfdd9cb6cbf67bf5331d7b1db286c0e424c2cb628d4dceffb7549dccb8badbc9",
    "sqrt_prime_code": "2468984d0a26fc110552d15ee048d06b8447c5b9080a5a64086a862fec39b60f",
    "supersingular_code": "1e5a616e993eb7682b8340743c8fc979fc1d16d3b6097c4073e2742924f4f8b5",
    "search_coset_code": "bdbb75481e0a09c4bd41e98ef895f8492ba099908e16a3c0e098dc5b0ca5f9bc",
}


def _recipe_outcome(recipe, args):
    """The code, report and meta of one recipe call as JSON-ready lists, or
    its error's type and message."""
    try:
        code, report, meta = recipe(*args)
    except AgmdsError as exc:
        return [type(exc).__name__, str(exc)]
    return [code.gen.data, dataclasses.astuple(report), code.provenance,
            meta["curve"].text(), meta["group"], meta["N"], meta["subgroup"],
            meta["rep"], meta["points"]]


@pytest.mark.parametrize("name", sorted(RECIPE_SWEEPS))
def test_coset_recipe_outputs_are_pinned(name):
    recipe, cases = RECIPE_SWEEPS[name]
    outcomes = [_recipe_outcome(recipe, args) for args in cases]
    assert any(not isinstance(out[0], str) for out in outcomes)
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == RECIPE_DIGESTS[name]


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


def twisted_flag_oracle(F, points, eta, k):
    """The product scan: no k distinct points have product (-1)^k / eta."""
    target = F.from_int((-1) ** k)
    for subset in combinations(points, k):
        prod_s = 1
        for a in subset:
            prod_s = F.mul(prod_s, a)
        if F.mul(eta, prod_s) == target:
            return False
    return True


# F_3^3 and F_5^2 add by Zech logarithms, F_2^4 by XOR
TWISTED_FIELDS = [F19, field_make(2, 4), field_make(3, 3), field_make(5, 2)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_twisted_flag_matches_product_scan(data):
    F = data.draw(st.sampled_from(TWISTED_FIELDS))
    points = data.draw(
        st.lists(st.integers(0, F.q - 1), min_size=2, max_size=min(F.q - 1, 10),
                 unique=True)
    )
    eta = data.draw(st.integers(1, F.q - 1))
    for k in range(1, len(points)):
        code, report, flag = twisted_rs_code(F, points, eta, k)
        assert flag == twisted_flag_oracle(F, points, eta, k)
        assert report.is_mds is flag
        if comb(len(points), k) <= 60:
            assert flag == is_mds_by_minors(code)


def test_twisted_flag_on_a_large_multiplicative_subgroup():
    # C(63, 30) ~ 8.6e17 products: beyond any scan, but 1,020 DP row
    # updates.  Products of subgroup elements stay in the subgroup, and
    # 1/eta lies outside it, so the code is MDS.
    F = field_make(2, 12)
    g = next(a for a in range(2, F.q) if F.log(a) == 1)
    subgroup = [F.pow(g, 65 * i) for i in range(63)]
    code, report, flag = twisted_rs_code(F, subgroup, g, 30)
    assert flag and report.is_mds
    assert (report.n, report.k, report.d) == (63, 30, 34)


def test_twisted_flag_budget_counts_row_updates(monkeypatch):
    import agmds.recipes as recipes

    # 8 points, k = 3: a DP that never reaches its target (eta = 11 gives an
    # MDS code) makes 1 + 2 + 3*4 + 2 + 1 = 18 row updates
    points = [12, 13, 1, 8, 15, 7, 6, 4]
    monkeypatch.setattr(recipes, "DEFAULT_BUDGET", 18)
    assert twisted_rs_code(F19, points, 11, 3)[2]
    monkeypatch.setattr(recipes, "DEFAULT_BUDGET", 17)
    with pytest.raises(BudgetExceeded):
        twisted_rs_code(F19, points, 11, 3)


def test_twisted_flag_budget_weights_wide_rows(monkeypatch):
    import agmds.recipes as recipes

    # the same 18 row updates over F_2^16, where each row is 65,535 bits and
    # costs 1 + 65535 // 8192 = 8 steps; no 3 of the points have product
    # 1 / eta, so the DP never reaches its target
    F = field_make(2, 16)
    points, eta = list(range(2, 10)), 2
    assert twisted_flag_oracle(F, points, eta, 3)
    monkeypatch.setattr(recipes, "DEFAULT_BUDGET", 144)
    assert twisted_rs_code(F, points, eta, 3)[2]
    monkeypatch.setattr(recipes, "DEFAULT_BUDGET", 143)
    with pytest.raises(BudgetExceeded):
        twisted_rs_code(F, points, eta, 3)


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


def _hunt(curve, n, m, seed, budget=2000):
    try:
        code, _, meta = genus2_mds_search(curve, n, m, seed=seed, budget=budget)
    except NotFound as exc:
        return str(exc)
    return code.gen, meta["points"], meta["attempts"]


@pytest.mark.parametrize("n, m", [(9, 6), (10, 6)])
def test_genus2_hunt_is_unchanged_under_the_minor_oracle(n, m, monkeypatch):
    # the systematic-form certificate gives the oracle's verdict on every
    # sample, so the seeded hunt stops at the same sample (or runs out)
    X = parse_curve_text(F31, "g2:1,0,0,0,0,1;0,0,0")
    fast = [_hunt(X, n, m, seed) for seed in range(10)]
    oracle_calls = [0]

    def oracle(gen):
        oracle_calls[0] += 1
        return is_mds_by_minors(LinearCode(F31, gen))

    monkeypatch.setattr(recipes_module, "_systematic_form_is_mds", oracle)
    assert [_hunt(X, n, m, seed) for seed in range(10)] == fast
    assert oracle_calls[0] >= 10


def _reference_hunt(curve, n, m, seed, budget=2000):
    """The hunt before its evaluation table, its abscissa test and its memo:
    sample points, build the whole code and certify it, once per attempt.
    None when the budget runs out."""
    affine = curve.affine_points()
    rng = Random(seed)
    for attempt in range(1, budget + 1):
        pts = sorted(rng.sample(affine, n))
        code = build_code(curve, pts, m)
        if is_mds_by_systematic_minors(code):
            return code.gen, pts, attempt
    return None


@pytest.mark.parametrize("field, text, n, m, budget, wins", [
    ((2, 5), "g2:1,0,0,0,0,1;0,1,0", 8, 5, 2000, 10),
    ((3, 3), "g2:1,0,0,0,0,1;0,0,0", 8, 5, 2000, 10),
    ((31,), "g2:1,0,0,0,0,1;0,0,0", 9, 6, 2000, 10),
    ((31,), "g2:1,0,0,0,0,1;0,0,0", 10, 6, 2000, 7),
    # any 20 of this curve's 27 points lie over 16 abscissas, so no sample
    # is MDS and every one is refuted by the abscissa test; a shorter budget
    # keeps the reference loop's rebuilt codes cheap
    ((31,), "g2:1,0,0,0,0,1;0,0,0", 20, 10, 200, 0),
], ids=["f32", "f27", "f31-9-6", "f31-10-6", "f31-20-10"])
def test_genus2_hunt_equals_the_rebuilding_reference_loop(field, text, n, m, budget, wins):
    X = parse_curve_text(field_make(*field), text)
    expected = [_reference_hunt(X, n, m, seed, budget) for seed in range(10)]
    assert sum(e is not None for e in expected) == wins
    for seed, reference in enumerate(expected):
        found = _hunt(X, n, m, seed, budget)
        if reference is None:
            assert found.startswith(f"no MDS sample within {budget} attempts")
        else:
            assert found == reference


@pytest.mark.parametrize("n, m, attempts, digest", [
    (12, 5, [2, 2, 1, 1, 1, 1, 1, 1, 2, 2],
     "bb9e46334633b27477df03b2db91af1e611cd5e8531523addc455b0c31bd6415"),
    (14, 6, [5, 6, 15, 1, 1, 1, 3, 2, 13, 39],
     "2284b2c83b2c51cc1e6b5cef4503c20eeed74dd27e81983ae165cddbfd9b18e8"),
], ids=["12-4", "14-5"])
def test_genus2_hunts_over_f1009_are_pinned(n, m, attempts, digest):
    # over a large field most samples pass the zero-entry and 2 x 2 tests,
    # so the minors of size 3 and more decide; the attempts and the sha256
    # of the ten winners' generators are pinned
    X = parse_curve_text(field_make(1009), "g2:3,0,0,0,0,1;0,0,0")
    gens = []
    for seed, expected in enumerate(attempts):
        code, _, meta = genus2_mds_search(X, n, m, seed=seed)
        assert meta["attempts"] == expected
        gens.append(code.gen.data)
    assert hashlib.sha256(json.dumps(gens).encode()).hexdigest() == digest


def _counting_certificate(monkeypatch):
    calls = [0]
    certify = recipes_module._systematic_form_is_mds

    def counting(gen):
        calls[0] += 1
        return certify(gen)

    monkeypatch.setattr(recipes_module, "_systematic_form_is_mds", counting)
    return calls


def test_genus2_hunt_refutes_samples_by_their_abscissas(monkeypatch):
    calls = _counting_certificate(monkeypatch)
    _, _, meta = genus2_mds_search(X31, 9, 6, seed=0)
    assert calls[0] < meta["attempts"]


@pytest.mark.parametrize("n, m", [(9, 4), (9, 6), (12, 8)])
def test_genus2_hunt_certifies_exactly_the_samples_the_abscissa_test_keeps(n, m, monkeypatch):
    # with a certificate that rejects every sample, the seeded hunt certifies
    # one sample per draw that the multiplicity oracle does not refute
    xs = [x for x, _ in X31.affine_points()]
    budget, calls = 300, []
    monkeypatch.setattr(recipes_module, "_systematic_form_is_mds", calls.append)
    with pytest.raises(NotFound):
        genus2_mds_search(X31, n, m, seed=n + m, budget=budget)
    rng = Random(n + m)
    draws = [rng.sample(range(len(xs)), n) for _ in range(budget)]
    kept = sum(not _abscissa_test_refutes(xs, sample, m) for sample in draws)
    assert 0 < len(calls) == kept < budget


class DrewASample(Exception):
    pass


def _no_sampling(seed):
    raise DrewASample


def test_genus2_hunt_refuses_an_over_budget_code_before_sampling(monkeypatch):
    monkeypatch.setattr(recipes_module, "Random", _no_sampling)
    with pytest.raises(BudgetExceeded) as exc:
        genus2_mds_search(X31, 27, 15)
    assert str(exc.value) == f"C(27,14) column subsets exceed budget {DEFAULT_BUDGET}"


def _abscissa_test_refutes(xs, sample, m):
    """The hunt's abscissa test on one sample of positions: its m // 2
    fullest abscissas hold m - 1 or more of its points."""
    counts = sorted(Counter(xs[i] for i in sample).values(), reverse=True)
    return sum(counts[:m // 2]) >= m - 1


def test_genus2_hunt_raises_at_once_when_the_abscissas_refute_every_sample(monkeypatch):
    # the 27 affine points lie over 16 abscissas, so any 20 of them double
    # at least 4, and the 5 fullest abscissas hold 9 = m - 1 points
    monkeypatch.setattr(recipes_module, "Random", _no_sampling)
    with pytest.raises(NotFound) as exc:
        genus2_mds_search(X31, 20, 10)
    assert str(exc.value) == "no MDS sample within 2000 attempts (bound_ok=False)"


def test_genus2_hunt_decides_every_refuted_pair_as_the_sample_loop_does(monkeypatch):
    # The sample taking one point over each abscissa, then second points,
    # has the fewest points over its fullest abscissas, so the abscissa test
    # refutes every sample iff it refutes this one.  For each 2 < m < n the
    # hunt must raise before sampling exactly then (or refuse the minor
    # budget first), and seeded draws must agree.
    affine = X31.affine_points()
    xs = [x for x, _ in affine]
    firsts = [i for i in range(len(xs)) if i == 0 or xs[i] != xs[i - 1]]
    spread = firsts + [i for i in range(len(xs)) if i not in firsts]
    monkeypatch.setattr(recipes_module, "Random", _no_sampling)
    rng = Random(29)
    verdicts = Counter()
    for n in range(4, len(affine) + 1):
        for m in range(3, n):
            try:
                genus2_mds_search(X31, n, m)
            except BudgetExceeded:
                verdicts["budget"] += 1
                continue
            except NotFound:
                refuted_at_once = True
            except DrewASample:
                refuted_at_once = False
            assert refuted_at_once == _abscissa_test_refutes(xs, spread[:n], m), (n, m)
            if refuted_at_once:
                for _ in range(30):
                    sample = rng.sample(range(len(affine)), n)
                    assert _abscissa_test_refutes(xs, sample, m), (n, m, sample)
            verdicts[refuted_at_once] += 1
    assert verdicts[True] and verdicts[False] and verdicts["budget"]


def test_genus2_hunt_builds_and_checks_only_the_winner(monkeypatch):
    # every sample is read from the evaluation table, and the winner's code
    # is built from its sample: no point is checked or evaluated again, and
    # LinearCode's rank check runs on no sample, the certified winner included
    n, m = 9, 6
    k, affine = m - 1, len(X31.affine_points())
    calls = {"contains": 0, "evaluate": 0, "rank_checks": 0}
    contains, init = Curve.contains, LinearCode.__init__
    evaluate = code_module.evaluate_monomial

    def counting_contains(curve, point):
        calls["contains"] += 1
        return contains(curve, point)

    def counting_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    def counting_init(code, field, gen, provenance=None):
        calls["rank_checks"] += (gen.rows, gen.cols) == (k, n)
        init(code, field, gen, provenance)

    monkeypatch.setattr(Curve, "contains", counting_contains)
    monkeypatch.setattr(LinearCode, "__init__", counting_init)
    monkeypatch.setattr(code_module, "evaluate_monomial", counting_evaluate)
    monkeypatch.setattr(recipes_module, "evaluate_monomial", counting_evaluate)
    code, _, meta = genus2_mds_search(X31, n, m, seed=0)
    assert meta["attempts"] > 1
    assert calls["contains"] == 0
    assert calls["rank_checks"] == 0
    assert calls["evaluate"] == k * affine


def test_genus2_schur_dimension():
    X = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])
    import random

    rng = random.Random(12)
    pts = sorted(rng.sample(X.affine_points(), 20))
    from agmds.code import build_code

    code = build_code(X, pts, 9)
    assert code.k == 8
    assert schur_square(code).k == 2 * code.k + 1


# Seeded pipeline inputs: codes at t = 1, NotMDS at t >= 2, the parameter
# errors, and (2, 4, 1, 5), which takes the second trace; the sha256 of
# their outcomes pins every generator, scaling, report, curve and point.
PIPELINE_SWEEP = [
    (s1, s2, t, lp, seed)
    for s1, s2, ts, lps in ((2, 2, (1, 2, 3), (1, 3, 5)), (1, 4, (1, 2, 3), (1, 3)),
                            (2, 3, (1, 2), (1, 3, 9)), (3, 2, (1, 2), (1, 7)),
                            (4, 2, (1, 2, 3), (1, 3, 5, 15)), (2, 4, (1, 2), (3, 5, 11)),
                            (2, 5, (1, 2), (3, 43)), (5, 2, (1, 4), (1, 31)),
                            (1, 5, (1, 3, 4), (1,)), (3, 1, (1,), (1,)))
    for t in ts for lp in lps for seed in (0, 1)
]
PIPELINE_DIGEST = "6e2768bc49c83c1f161c8d761b107bd13f96df1fbdec5e51543e0916174da49a"


def _pipeline_digest():
    outcomes = []
    for args in PIPELINE_SWEEP:
        try:
            code, report, meta = self_dual_pipeline(*args)
        except AgmdsError as exc:
            outcomes.append([type(exc).__name__, str(exc)])
            continue
        outcomes.append([code.gen.data, dataclasses.astuple(report), code.provenance,
                         meta["curve"].text(), meta["group"], meta["N"], meta["beta"],
                         meta["h2"], meta["L"], meta["points"], meta["base_code"].gen.data])
    kinds = Counter(out[0] if isinstance(out[0], str) else "code" for out in outcomes)
    assert set(kinds) == {"code", "NotMDS", "PreconditionFailed", "NoAdmissibleBeta"}
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def test_self_dual_pipeline_outputs_are_pinned():
    assert _pipeline_digest() == PIPELINE_DIGEST


def test_recipe_outputs_do_not_depend_on_the_group_basis(monkeypatch):
    # Every Sylow basis is replaced by k times itself, k prime to l: another
    # basis of the same l-part, hence other labels.  Subgroups are taken
    # whole and cosets by their first point, so no output moves.
    build = curves_module._build_sylow_basis
    moved = []

    def rebased(curve, n, l, h):
        g, other, a = build(curve, n, l, h)
        k = 3 if l == 2 else 2
        new = curve._scalar_xy(k, g), curve._scalar_xy(k, other), a
        moved.append(new != (g, other, a))
        return new

    monkeypatch.setattr(curves_module, "_build_sylow_basis", rebased)
    assert _pipeline_digest() == PIPELINE_DIGEST
    for name, (recipe, cases) in sorted(RECIPE_SWEEPS.items()):
        outcomes = [_recipe_outcome(recipe, args) for args in cases]
        assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == RECIPE_DIGESTS[name]
    assert sum(moved) >= 100, Counter(moved)


# -- reports against the full scans --------------------------------------------------------

# Each recipe certifies MDS once and takes d from that verdict; these runs
# check every returned report against invariant_report, whose distance and
# MDS flag come from the support scan and the systematic-form minors.
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
