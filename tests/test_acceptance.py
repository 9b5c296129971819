"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s
to see them) and enforces its runtime ceiling.  Every check is exact: no
tolerances anywhere.

Criterion 4 is expected to fail: over F_16 the pipeline's curve group is
forced cyclic of order 24, and its only half-size cosets that sum to the
identity contain zero-sum half-subsets whenever the two-part exponent t
is at least 2, so MDS self-dual codes of lengths 4 and 12 cannot come out
of the coset pipeline; and the Schur square of ANY self-orthogonal code
lies in the zero-coordinate-sum hyperplane, capping its dimension at
n - 1 rather than n.  The test states the required outcome and reports
the true one; see the package README for the mathematical detail.
"""

import random
import time

from agmds import curve_make, field_make
from agmds.code import (
    build_code,
    eaqec_params,
    is_mds_by_group_sums,
    is_mds_by_minors,
    min_distance,
    permute_and_scale,
    schur_square,
)
from agmds.curves import (
    admissible_curve_orders,
    attained_orders,
    attained_structures,
    coset,
    curve_family,
    is_admissible_structure,
    point_labels,
    random_curve,
    subgroup_closure,
)
from agmds.errors import AgmdsError, RangeViolation
from agmds.linalg import FFMatrix, rank
from agmds.recipes import (
    _group_sum,
    _subgroups_of_order,
    rs_code,
    search_coset_code,
    self_dual_pipeline,
    twisted_rs_code,
)


def _finish(name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"acceptance {name}: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded the {limit}s ceiling"


def test_criterion_1_f19_example_family():
    """Five MDS codes over F_19, certified by both the group-sum scan and
    the column-minor criterion; exact parameters, no tolerance."""
    t0 = time.time()
    F19 = field_make(19)
    wanted = [
        (12, 4, 2, 3),
        (15, 5, 2, 4),
        (18, 6, 2, 5),
        (20, 5, 2, 4),
        (24, 6, 3, 4),
    ]
    results = []
    for n_points, n, m, d in wanted:
        code, report, meta = search_coset_code(F19, n_points, n, m)
        both = is_mds_by_group_sums(
            meta["curve"], meta["points"], m
        ) and is_mds_by_minors(code)
        ok = (
            both
            and (report.n, report.k, report.d) == (n, m, d)
            and report.is_mds is True
        )
        results.append(ok)
    _finish(
        "criterion 1 (F19 example family)",
        all(results),
        f"{sum(results)}/5 parameter sets exact",
        time.time() - t0,
        10.0,
    )


def test_criterion_2_schur_dimension_laws():
    """At least 20 one-point coset codes across F_19 / F_25 / F_64 with
    3 <= m <= n/2 have Schur dimension exactly 2m, while plain polynomial
    evaluation codes of the same (n, k) have exactly 2k - 1."""
    t0 = time.time()
    checked = 0
    failures = []
    for p, s in ((19, 1), (5, 2), (2, 6)):
        field = field_make(p, s)
        per_field = 0
        for curve in curve_family(field):
            n_points = curve.point_count()
            for n in (8, 10, 12):
                if n_points % n or n_points == n:
                    continue
                labels = point_labels(curve)
                subs = sorted(labels.sorted_points(s) for s in _subgroups_of_order(labels, n))
                if not subs:
                    continue
                sub = subs[0]
                b = next(pt for pt in curve.points() if pt not in set(sub))
                pts = coset(curve, sub, b)
                for m in range(3, n // 2 + 1):
                    if 2 * m == n and not _group_sum(curve, pts):
                        continue  # boundary case where the law degenerates
                    code = build_code(curve, pts, m)
                    sq_dim = schur_square(code).k
                    rs = rs_code(field, list(range(n)), m)
                    rs_dim = schur_square(rs).k
                    if sq_dim != 2 * m or rs_dim != 2 * m - 1:
                        failures.append((field.q, n_points, n, m, sq_dim, rs_dim))
                    checked += 1
                    per_field += 1
            if per_field >= 8:
                break
    _finish(
        "criterion 2 (Schur dimension laws)",
        checked >= 20 and not failures,
        f"{checked} coset/RS pairs checked, {len(failures)} violations",
        time.time() - t0,
        30.0,
    )


def test_criterion_3_genus2_schur_law():
    """Degree-5 hyperelliptic one-point codes over F_31 with m in {9, 10}
    and n >= 2m + 1 points have Schur dimension exactly 2k + 1."""
    t0 = time.time()
    F31 = field_make(31)
    X = curve_make(F31, 2, [1, 0, 0, 0, 0, 1])  # y^2 = x^5 + 1, 27 affine points
    affine = X.affine_points()
    rng = random.Random(3)
    ok = True
    details = []
    for m in (9, 10):
        for n in (2 * m + 1, min(2 * m + 3, len(affine))):
            pts = sorted(rng.sample(affine, n))
            code = build_code(X, pts, m)
            sq = schur_square(code)
            details.append(f"m={m},n={n}:k={code.k},schur={sq.k}")
            ok = ok and code.k == m - 1 and sq.k == 2 * code.k + 1
    _finish(
        "criterion 3 (genus-2 Schur law)",
        ok,
        "; ".join(details),
        time.time() - t0,
        60.0,
    )


def test_criterion_4_self_dual_pipeline_family():
    """Required: self-dual MDS codes [4,2,3], [6,3,4], [12,6,7] over F_16
    from the coset pipeline, each with G'G'^T = 0, exact d = n/2 + 1 and
    Schur dimension n.

    Expected to fail; the docstring at the top of this module and the
    README explain why lengths 4 and 12 cannot be MDS here and why the
    Schur dimension of a self-orthogonal code is at most n - 1.
    """
    t0 = time.time()
    cases = {4: (2, 1), 6: (1, 3), 12: (2, 3)}
    problems = []
    for n, (t, lp) in sorted(cases.items()):
        try:
            code, report, meta = self_dual_pipeline(2, 2, t, lp)
        except AgmdsError as exc:
            problems.append(f"n={n}: {type(exc).__name__}: {exc}")
            continue
        if meta["beta"] != -7 or meta["N"] != 24:
            problems.append(f"n={n}: wrong curve ({meta['beta']}, {meta['N']})")
        if not code.gen.mul(code.gen.transpose()).is_zero():
            problems.append(f"n={n}: generator not self-orthogonal")
        if not (report.self_dual and report.is_mds and report.d == n // 2 + 1):
            problems.append(
                f"n={n}: self_dual={report.self_dual} is_mds={report.is_mds} d={report.d}"
            )
        if report.schur_dim != n:
            problems.append(f"n={n}: schur_dim={report.schur_dim} != {n}")
    _finish(
        "criterion 4 (self-dual pipeline family)",
        not problems,
        "; ".join(problems) if problems else "all three lengths verified",
        time.time() - t0,
        60.0,
    )


def test_criterion_5_tables_versus_enumeration():
    """For q in {5, 7, 8, 9, 11, 13}: enumerating every curve (via the
    complete family of isomorphism-class representatives, where completing
    the square and shifting x preserve the point group) attains exactly
    the tabulated point counts, and every observed shape passes the
    admissibility predicate.  A seeded slice of full five-coefficient
    models cross-checks the family reduction."""
    t0 = time.time()
    problems = []
    specs = [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]
    for p, s in specs:
        field = field_make(p, s)
        q = field.q
        expected = set(admissible_curve_orders(q))
        got = attained_orders(field)
        if got != expected:
            problems.append(
                f"q={q}: attained {sorted(got ^ expected)} differs"
            )
        for n_points, (d1, d2) in attained_structures(field):
            if not is_admissible_structure(q, n_points, d1, d2):
                problems.append(f"q={q}: shape ({d1},{d2}) for N={n_points} rejected")
        rng = random.Random(q)
        for _ in range(40):
            c = random_curve(field, rng)
            if len(c.points()) not in expected:
                problems.append(f"q={q}: random model count outside table")
    _finish(
        "criterion 5 (order/shape tables vs enumeration)",
        not problems,
        "; ".join(problems) if problems else f"{len(specs)} fields, exact set equality",
        time.time() - t0,
        120.0,
    )


def test_criterion_6_oracle_equivalence_and_invariance():
    """200 seeded coset codes: the group-sum and column-minor MDS
    certificates agree.  200 seeded random codes: distance, MDS flag and
    Schur dimension survive random monomial transformations."""
    t0 = time.time()
    rng = random.Random(601)
    fields = [field_make(p) for p in (11, 13, 17, 19)]
    mismatches = 0
    done = 0
    while done < 200:
        field = rng.choice(fields)
        curve = random_curve(field, rng)
        pts = curve.points()
        sub = subgroup_closure(curve, rng.sample(pts, rng.randint(1, 2)))
        n = len(sub)
        if not 3 <= n <= 14 or n == len(pts):
            continue
        b = rng.choice([p for p in pts if p not in set(sub)])
        eval_pts = coset(curve, sub, b)
        m = rng.randint(2, min(4, n - 1))
        code = build_code(curve, eval_pts, m)
        if is_mds_by_group_sums(curve, eval_pts, m) != is_mds_by_minors(code):
            mismatches += 1
        done += 1

    rng = random.Random(602)
    small = [field_make(p) for p in (5, 7, 11)]
    variant = 0
    done = 0
    while done < 200:
        field = rng.choice(small)
        n = rng.randint(5, 8)
        k = rng.randint(2, 3)
        M = FFMatrix(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)])
        if rank(M) != k:
            continue
        from agmds.code import LinearCode

        code = LinearCode(field, M)
        perm = list(range(n))
        rng.shuffle(perm)
        scales = [rng.randrange(1, field.q) for _ in range(n)]
        other = permute_and_scale(code, perm, scales)
        d0, d1 = min_distance(code), min_distance(other)
        s0, s1 = schur_square(code).k, schur_square(other).k
        if (d0, d0 == n - k + 1, s0) != (d1, d1 == n - k + 1, s1):
            variant += 1
        done += 1
    _finish(
        "criterion 6 (oracle equivalence + monomial invariance)",
        mismatches == 0 and variant == 0,
        f"200+200 codes, {mismatches} oracle mismatches, {variant} variant fingerprints",
        time.time() - t0,
        120.0,
    )


def test_criterion_7_twisted_condition_equivalence():
    """Over F_19 for every k <= 4, n <= 8, every nonzero twist constant,
    and a family of evaluation sets (all 19 consecutive windows plus 10
    seeded draws per shape): the product criterion and the column-minor
    criterion agree exactly."""
    t0 = time.time()
    F19 = field_make(19)
    rng = random.Random(7)
    total = 0
    mismatches = 0
    for k in (2, 3, 4):
        for n in range(k + 1, 9):
            alpha_sets = [[(a + i) % 19 for i in range(n)] for a in range(19)]
            alpha_sets += [rng.sample(range(19), n) for _ in range(10)]
            for alphas in alpha_sets:
                for eta in range(1, 19):
                    code, _report, flag = twisted_rs_code(F19, alphas, eta, k)
                    if flag != is_mds_by_minors(code):
                        mismatches += 1
                    total += 1
    _finish(
        "criterion 7 (twisted product condition)",
        mismatches == 0,
        f"{total} instances, {mismatches} mismatches",
        time.time() - t0,
        60.0,
    )


def test_criterion_8_out_of_reach_regimes_acknowledged():
    """Large-q consecutive-length ranges, asymptotic genus-2 existence and
    physical quantum codes stay out of desk scale; their surfaces are
    covered by criteria 3, 4 and 6 plus the parameter arithmetic below."""
    t0 = time.time()
    ok = (
        eaqec_params(12, 6, 0) == (12, 6, 7, 6)
        and eaqec_params(12, 6, 6) == (12, 0, 7, 0)
        and eaqec_params(12, 8, 2) == (12, 6, 5, 2)
    )
    # range guards
    for bad in ((12, 5, 0), (12, 12, 0), (12, 6, 7), (12, 6, -1)):
        try:
            eaqec_params(*bad)
            ok = False
        except RangeViolation:
            pass
    _finish(
        "criterion 8 (acknowledged out-of-reach regimes)",
        ok,
        "entanglement-assisted parameter arithmetic exact",
        time.time() - t0,
        10.0,
    )
