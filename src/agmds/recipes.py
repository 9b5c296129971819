"""End-to-end code constructions.

Each recipe locates (or accepts) a curve, picks evaluation points, builds
the code and certifies it MDS exactly once: by the subset-sum DP on the
point labels for elliptic codes (their exact MDS condition, so it runs
even when a sufficient condition already holds), by the product criterion
for twisted evaluation codes, by column minors on genus 2.  The report takes
d = n - k + 1 from that verdict.  Polynomial-code baselines live here too.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb, gcd, isqrt
from random import Random

from .code import (
    LinearCode,
    CodeReport,
    _report_from_distance,
    build_code,
    invariant_report,
    is_mds_by_group_sums,
    is_mds_by_minors,
    self_dualize,
)
from .curves import (
    Curve,
    CurvePoint,
    PointLabels,
    _matching_curves,
    admissible_curve_orders,
    coset,
    curve_make,
    find_curve_with_order,
    group_structure,
    hasse_window,
    point_labels,
    subgroup_closure,
)
from .intmath import is_prime, prime_factors
from .errors import (
    BudgetExhausted,
    DuplicateEvaluationPoints,
    NoAdmissibleBeta,
    NoAdmissibleCurve,
    NotFound,
    NotMDS,
    PreconditionFailed,
    SubgroupNotFound,
)
from .field import FieldSpec, field_make
from .linalg import FFMatrix

DEFAULT_BUDGET = 10**7


# -- coset codes -----------------------------------------------------------------


def _group_sum(curve: Curve, points) -> CurvePoint:
    labels = point_labels(curve)
    acc = (0, 0)
    for p in points:
        acc = labels.add(acc, labels.of(p))
    return labels.point(acc)


def _certified_coset_code(
    curve: Curve, eval_points, m: int, provenance: dict, budget: int
) -> tuple[LinearCode, CodeReport]:
    """The degree-m coset code on points that passed the group-sum
    certificate, with its report; the certificate has fixed d = n - m + 1."""
    provenance = {"construction": "coset", "curve": curve.text(), "m": m, **provenance}
    code = build_code(curve, eval_points, m, provenance)
    return code, _report_from_distance(code, code.n - m + 1, True, budget)


def coset_code(
    curve: Curve,
    subgroup_generators,
    coset_reps,
    m: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[LinearCode, CodeReport]:
    """Code on a coset b + S (or a disjoint union of cosets) of a subgroup
    S, with divisor m * P0.

    Single coset: requires <b> to meet S only at the identity and
    m <= order(b) - 1, which guarantees the MDS property (every m-subset
    sums to m*b plus an element of S, and m*b stays outside S).
    Multiple cosets: the union must be disjoint; a sufficient combination
    condition is checked, but the exact group-sum certificate decides.
    """
    subgroup = subgroup_closure(curve, subgroup_generators)
    labels = point_labels(curve)
    sub_set = {labels.of(p) for p in subgroup}
    reps = list(coset_reps)
    if len(reps) == 1:
        b = reps[0]
        lb = labels.of(b)
        if lb in sub_set:
            # Degenerate call: the "coset" is the subgroup itself, the
            # sufficient condition cannot apply; the certificate decides alone.
            points = list(subgroup)
        else:
            order_b = labels.order(lb)
            if not _meets_only_at_identity(labels, lb, sub_set):
                raise PreconditionFailed(
                    "the cyclic group of the coset representative meets the "
                    "subgroup beyond the identity"
                )
            if m > order_b - 1:
                raise PreconditionFailed(
                    f"m must be at most order(b) - 1 = {order_b - 1}, got {m}"
                )
            points = coset(curve, subgroup, b)
    else:
        cosets = [coset(curve, subgroup, b) for b in reps]
        seen: set = set()
        for c in cosets:
            cs = set(c)
            if seen & cs:
                raise PreconditionFailed("cosets are not pairwise disjoint")
            seen |= cs
        sufficient = _multi_coset_condition(
            labels, sub_set, [labels.of(b) for b in reps], m
        )
        points = sorted(seen, key=CurvePoint.sort_key)
    provenance = {"subgroup_order": len(subgroup), "cosets": len(reps)}
    if len(reps) > 1:
        provenance["combination_condition"] = sufficient
    if not is_mds_by_group_sums(curve, points, m, budget):
        raise NotMDS(f"a {m}-subset of the evaluation points sums to the identity")
    return _certified_coset_code(curve, points, m, provenance, budget)


def _multi_coset_condition(
    labels: PointLabels, sub_set: set, reps: list, m: int
) -> bool:
    """Sufficient condition for the multi-coset variant: no combination
    sum(m_i * b_i) with m_i >= 0 summing to m lands in the subgroup (all
    as labels).  It is recorded in the provenance only; the group-sum
    certificate decides."""

    def rec(idx: int, left: int, acc) -> bool:
        if idx == len(reps):
            return bool(left) or acc not in sub_set
        step = acc
        for cnt in range(left + 1):
            if cnt:
                step = labels.add(step, reps[idx])
            if not rec(idx + 1, left - cnt, step):
                return False
        return True

    return rec(0, m, (0, 0))


def _subgroups_of_order(curve: Curve, order: int) -> list[tuple]:
    """All subgroups of the given order, each as a sorted point tuple.

    A subgroup of order t lies in the t-torsion, and the point group has
    rank at most 2, so every such subgroup is a cyclic subgroup of the
    torsion or the sum of two; on labels each sum is integer arithmetic.
    """
    labels = point_labels(curve)
    cyclic = list({frozenset(labels.span([t])) for t in labels.torsion(order)})
    found = {c for c in cyclic if len(c) == order}
    for a, b in combinations(cyclic, 2):
        if len(a) * len(b) == order * len(a & b):
            found.add(frozenset(labels.add(x, y) for x in a for y in b))
    subgroups = [tuple(labels.sorted_points(s)) for s in found]
    return sorted(subgroups, key=lambda s: [pt.sort_key() for pt in s])


# search_coset_code tries at most 40 curves, with 200 random draws per curve,
# and walks the curve family only up to q = 300: above that, seeded draws find
# curves of one order far sooner, and they keep the codes it always returned.
_SEARCH_CURVES = 40
_SEARCH_FAMILY_CAP = 300


def search_coset_code(
    field: FieldSpec,
    n_points: int,
    n: int,
    m: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[LinearCode, CodeReport, dict]:
    """Find a curve with the given point count and a size-n coset whose
    degree-m code is MDS.

    Candidates satisfying the cyclic-intersection precondition are tried
    first; cosets whose full point sum is nonzero are preferred when
    2m = n (that keeps the Schur dimension at its generic value 2m).  The
    group-sum certificate decides every candidate and is the code's only MDS
    certificate.
    """
    if n_points not in admissible_curve_orders(field.q):
        raise NoAdmissibleCurve(
            f"N={n_points} is not an attainable point count over q={field.q}"
        )
    if n_points % n != 0:
        raise NoAdmissibleCurve(
            f"a size-{n} subgroup needs n | N, got N={n_points}"
        )

    def finish(curve, subgroup, b, points):
        code, report = _certified_coset_code(
            curve, points, m, {"subgroup_order": len(subgroup), "cosets": 1}, budget
        )
        meta = {"curve": curve, "group": group_structure(curve), "N": n_points,
                "subgroup": subgroup, "rep": b, "points": points}
        return code, report, meta

    fallback = None
    draws = 200 * _SEARCH_CURVES
    for sufficient_only in (True, False):
        curves = _matching_curves(field, n_points, None, seed, draws, _SEARCH_FAMILY_CAP)
        curve = None
        for curve in islice(curves, _SEARCH_CURVES):
            labels = point_labels(curve)
            for subgroup in _subgroups_of_order(curve, n):
                sub_labels = [labels.of(p) for p in subgroup]
                sub_set = set(sub_labels)
                # the subgroup and every coset tried so far, as labels
                covered = set(sub_set)
                for b in curve.points():
                    lb = labels.of(b)
                    if lb in covered or (
                        sufficient_only
                        and not _rep_is_independent(labels, lb, sub_set, m)
                    ):
                        continue
                    coset_labels = [labels.add(lb, s) for s in sub_labels]
                    covered.update(coset_labels)
                    points = labels.sorted_points(coset_labels)
                    if not is_mds_by_group_sums(curve, points, m, budget):
                        continue
                    candidate = (curve, subgroup, b, points)
                    if 2 * m == n and _group_sum(curve, points).is_infinity:
                        fallback = fallback or candidate
                        continue
                    return finish(*candidate)
        if curve is None:
            raise NoAdmissibleCurve(
                f"no curve with N={n_points} found over q={field.q}"
            )
    if fallback is not None:
        return finish(*fallback)
    raise NoAdmissibleCurve(
        f"no curve with N={n_points} over q={field.q} has a size-{n} coset "
        f"giving an MDS degree-{m} code"
    )


def _rep_is_independent(labels: PointLabels, b, sub_set: set, m: int) -> bool:
    """Whether order(b) > m and <b> meets the subgroup only at the identity
    (b and the subgroup as labels)."""
    return labels.order(b) > m and _meets_only_at_identity(labels, b, sub_set)


def _meets_only_at_identity(labels: PointLabels, b, sub_set: set) -> bool:
    """Whether the cyclic group <b> meets the subgroup only at the identity.

    The intersection is a subgroup of <b>; it is trivial iff no
    prime-order piece of <b> lies in the subgroup, and the order-l piece is
    generated by (order(b)/l) * b.
    """
    order_b = labels.order(b)
    return all(
        labels.scale(order_b // l, b) not in sub_set for l in prime_factors(order_b)
    )


# -- length recipes ------------------------------------------------------------------


def coprime_split_code(
    field: FieldSpec, l1: int, l2: int, m: int, seed: int = 0
) -> tuple[LinearCode, CodeReport, dict]:
    """MDS code of length l1 from a curve with l1 * l2 points, where the
    group splits as Z/l1 x Z/l2 with coprime factors."""
    if gcd(l1, l2) != 1:
        raise PreconditionFailed("l1 and l2 must be coprime")
    if gcd(l1 * l2, field.q) != 1:
        raise PreconditionFailed("both factors must be coprime to q")
    if not 2 <= m <= l1 - 1:
        raise PreconditionFailed(f"need 2 <= m <= l1 - 1 = {l1 - 1}, got {m}")
    n_points = l1 * l2
    return search_coset_code(field, n_points, l1, m, seed=seed)


def short_length_code(
    field: FieldSpec, n: int, m: int, seed: int = 0
) -> tuple[LinearCode, CodeReport, dict]:
    """MDS code of any length n with 6 <= n <= q^(1/4), gcd(n, q) = 1, and
    2 <= m <= n/2, from a curve whose order is a coprime multiple of n."""
    q = field.q
    if not (6 <= n and n**4 <= q):
        raise PreconditionFailed(f"need 6 <= n <= q^(1/4) (n={n}, q={q})")
    if gcd(n, q) != 1:
        raise PreconditionFailed("n must be coprime to q")
    if not 2 <= m <= n // 2:
        raise PreconditionFailed(f"need 2 <= m <= n/2 = {n // 2}, got {m}")
    lo, hi = hasse_window(q)
    orders = set(admissible_curve_orders(q))
    last_err = None
    for n_points in range((lo // n) * n, hi + 1, n):
        l = n_points // n
        if n_points < lo or l < 2 or gcd(n, l) != 1 or n_points not in orders:
            continue
        try:
            return search_coset_code(field, n_points, n, m, seed=seed)
        except NoAdmissibleCurve as exc:
            last_err = exc
    raise NoAdmissibleCurve(
        f"no admissible multiple of n={n} in the Hasse window over q={q}"
    ) from last_err


def sqrt_prime_code(
    p: int, m: int, longer: bool = False, seed: int = 0
) -> tuple[LinearCode, CodeReport, dict]:
    """MDS code of length floor(sqrt(p)) (or that plus one) over F_p, from
    a curve with n(n+1) points split as Z/n x Z/(n+1)."""
    if not _is_odd_prime(p):
        raise PreconditionFailed("p must be an odd prime")
    field = field_make(p)
    n = isqrt(p)
    n_points = n * (n + 1)
    length = n + 1 if longer else n
    if not 2 <= m <= length - 1:
        raise PreconditionFailed(f"need 2 <= m <= {length - 1}, got {m}")
    return search_coset_code(field, n_points, length, m, seed=seed)


def _is_odd_prime(p: int) -> bool:
    return p % 2 == 1 and is_prime(p)


def supersingular_code(
    p: int, ext_degree: int, n_sub: int, k: int, seed: int = 0
) -> tuple[LinearCode, CodeReport, dict]:
    """MDS [n_sub, k] code over F_{p^ext} from a supersingular curve, with
    the evaluation set a coset of an order-n_sub cyclic subgroup.

    Uses y^2 = x^3 + 1 when p = 2 mod 3, else y^2 = x^3 + x when
    p = 3 mod 4.  The point count is p^e + 1 for odd extension degree e
    and (p^(e/2) - (-1)^(e/2))^2 for even e, and n_sub must divide it and
    stay below its square root (odd e) or below p^(e/2) - (-1)^(e/2)
    (even e).
    """
    if p % 3 == 2:
        coeffs = (0, 0, 0, 0, 1)  # y^2 = x^3 + 1
    elif p % 4 == 3:
        coeffs = (0, 0, 0, 1, 0)  # y^2 = x^3 + x
    else:
        raise PreconditionFailed("need p = 2 mod 3 or p = 3 mod 4")
    field = field_make(p, ext_degree)
    curve = curve_make(field, 1, coeffs)
    count = len(curve.points())
    if ext_degree % 2 == 1:
        expected = p**ext_degree + 1
        too_big = n_sub * n_sub >= expected  # N must stay below sqrt(N_total)
    else:
        root = p ** (ext_degree // 2) - (-1) ** (ext_degree // 2)
        expected = root * root
        too_big = n_sub >= root
    if count != expected:  # pragma: no cover - model consistency
        raise AssertionError(f"supersingular count {count} != {expected}")
    if count % n_sub != 0:
        raise PreconditionFailed(f"N={n_sub} does not divide the point count {count}")
    if too_big:
        raise PreconditionFailed(f"N={n_sub} exceeds the length bound for {count} points")
    if not 1 <= k <= n_sub - 1:
        raise PreconditionFailed(f"need 1 <= k <= N - 1, got k={k}")
    labels = point_labels(curve)
    generator = next(
        (pt for pt in curve.points()[1:] if labels.order(labels.of(pt)) == n_sub),
        None,
    )
    if generator is None:
        raise SubgroupNotFound(f"no point of order {n_sub} on {curve.text()}")
    subgroup = subgroup_closure(curve, [generator])
    sub_set = {labels.of(p) for p in subgroup}
    for b in curve.points():
        lb = labels.of(b)
        if lb in sub_set or not _rep_is_independent(labels, lb, sub_set, k):
            continue
        code, report = coset_code(curve, [generator], [b], k)
        meta = {"curve": curve, "N": count, "subgroup": subgroup, "rep": b}
        return code, report, meta
    raise SubgroupNotFound(
        f"no coset representative of order > {k} independent of the "
        f"order-{n_sub} subgroup"
    )


# -- polynomial-code baselines -----------------------------------------------------------


def rs_code(field: FieldSpec, points, k: int) -> LinearCode:
    """Evaluation code of the polynomials of degree < k at distinct field
    elements (a Vandermonde generator)."""
    pts = list(points)
    n = len(pts)
    if len(set(pts)) != n:
        raise DuplicateEvaluationPoints("evaluation elements must be distinct")
    if not 1 <= k <= n <= field.q:
        raise PreconditionFailed(f"need 1 <= k <= n <= q ({k=}, {n=}, q={field.q})")
    rows = [[field.pow(a, i) for a in pts] for i in range(k)]
    return LinearCode(
        field, FFMatrix(field, rows, n), {"construction": "rs", "k": k}
    )


def twisted_rs_code(
    field: FieldSpec, points, eta: int, k: int
) -> tuple[LinearCode, CodeReport, bool]:
    """Evaluation code of span{1 + eta*x^k, x, ..., x^(k-1)}.

    The returned flag is the exact MDS criterion: every k columns are
    independent iff no k distinct evaluation elements have product equal
    to (-1)^k / eta, because the k x k minor on columns S factors as
    Vandermonde(S) * (1 + (-1)^(k-1) * eta * prod(S)).
    """
    pts = list(points)
    n = len(pts)
    if len(set(pts)) != n:
        raise DuplicateEvaluationPoints("evaluation elements must be distinct")
    if eta == 0:
        raise PreconditionFailed("eta must be nonzero")
    if not 1 <= k <= n - 1:
        raise PreconditionFailed(f"need 1 <= k <= n - 1 ({k=}, {n=})")
    if n > field.q - 1:
        raise PreconditionFailed(f"need n <= q - 1 ({n=}, q={field.q})")
    F = field
    top = [F.add(1, F.mul(eta, F.pow(a, k))) for a in pts]
    rows = [top] + [[F.pow(a, i) for a in pts] for i in range(1, k)]
    code = LinearCode(
        F, FFMatrix(F, rows, n), {"construction": "twisted-rs", "k": k, "eta": eta}
    )
    target = F.from_int(-1) if k % 2 == 1 else F.from_int(1)
    flag = True
    for subset in combinations(pts, k):
        prod_s = 1
        for a in subset:
            prod_s = F.mul(prod_s, a)
        if F.mul(eta, prod_s) == target:
            flag = False
            break
    if flag:
        return code, _report_from_distance(code, n - k + 1, True), flag
    return code, invariant_report(code), flag


# -- self-dual pipeline --------------------------------------------------------------------


def admissible_pipeline_traces(s1: int, s2: int) -> list[int]:
    """Trace values usable by the self-dual pipeline over F_{2^(s1*s2)}:
    beta = 1 mod 8, 2 - beta divisible by 2^s1 - 1, |beta| <= 2*sqrt(q),
    ordered by increasing absolute value."""
    q = 2 ** (s1 * s2)
    w = isqrt(4 * q)
    out = [
        beta
        for beta in range(-w, w + 1)
        if beta % 8 == 1 % 8 and (2 - beta) % (2**s1 - 1) == 0
    ]
    return sorted(out, key=lambda b: (abs(b), b))


def self_dual_pipeline(
    s1: int,
    s2: int,
    t: int,
    l_prime: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[LinearCode, CodeReport, dict]:
    """Self-dual code of length n = 2^t * l_prime over F_{2^(s1*s2)}.

    Pipeline: pick an admissible trace beta (so the curve order N = q+1-beta
    is divisible by 8 and is 2^h2 * L with L odd); find a curve with that
    order and a cyclic group; evaluate on the coset b + E1 where E1 combines
    the order-2^t piece of the 2-part with an order-l_prime subgroup and
    b = 2^(h2-1-t) * theta for theta generating the 2-part.  The coset sums
    to the identity, so the dual of the degree-n/2 code is a diagonal
    rescaling of it; MDS is certified by the group-sum certificate (it can
    fail for t >= 2, in which case NotMDS propagates), and the square-root
    rescaling then yields a self-dual generator.
    """
    if s1 < 1 or s2 < 1:
        raise PreconditionFailed("extension degrees must be positive")
    if l_prime < 1 or l_prime % 2 == 0:
        raise PreconditionFailed("l_prime must be a positive odd integer")
    if t < 1:
        raise PreconditionFailed("t must be >= 1")
    field = field_make(2, s1 * s2)
    q = field.q
    traces = admissible_pipeline_traces(s1, s2)
    if not traces:
        raise NoAdmissibleBeta(f"no admissible trace over q={q}")
    last = None
    for beta in traces:
        n_points = q + 1 - beta
        h2 = (n_points & -n_points).bit_length() - 1
        big_l = n_points >> h2
        if h2 < 3:
            last = PreconditionFailed(
                f"curve order {n_points} has 2-adic valuation {h2} < 3"
            )
            continue
        if t > h2 - 1:
            last = PreconditionFailed(f"t must be at most h2 - 1 = {h2 - 1}, got {t}")
            continue
        if big_l % l_prime != 0:
            last = PreconditionFailed(
                f"l_prime={l_prime} does not divide the odd part {big_l}"
            )
            continue
        try:
            curve = find_curve_with_order(field, n_points, shape=(1, n_points), seed=seed)
        except BudgetExhausted as exc:
            last = NoAdmissibleCurve(str(exc))
            continue
        return _run_pipeline(curve, n_points, h2, big_l, t, l_prime, seed, budget, beta)
    raise last if last is not None else NoAdmissibleBeta(f"no usable trace over q={q}")


def _run_pipeline(curve, n_points, h2, big_l, t, l_prime, seed, budget, beta):
    labels = point_labels(curve)
    generator = next(
        (g for g in map(labels.of, curve.points()[1:]) if labels.order(g) == n_points),
        None,
    )
    if generator is None:  # pragma: no cover - cyclic by construction
        raise SubgroupNotFound("no generator of the cyclic point group")
    theta = labels.scale(big_l, generator)  # order 2^h2
    odd_gen = labels.scale(2**h2, generator)  # order L
    e2_gen = labels.scale(big_l // l_prime, odd_gen)  # order l_prime
    e1_gens = [labels.scale(2 ** (h2 - t), theta), e2_gen]
    b = labels.point(labels.scale(2 ** (h2 - 1 - t), theta))
    subgroup = subgroup_closure(curve, map(labels.point, e1_gens))
    points = coset(curve, subgroup, b)
    n = len(points)
    m = n // 2
    if not _group_sum(curve, points).is_infinity:  # pragma: no cover
        raise AssertionError("pipeline coset does not sum to the identity")
    if not is_mds_by_group_sums(curve, points, m, budget):
        raise NotMDS(f"a {m}-subset of the evaluation points sums to the identity")
    provenance = {
        "construction": "self-dual-pipeline",
        "curve": curve.text(),
        "m": m,
        "beta": beta,
    }
    base_code = build_code(curve, points, m, provenance)
    sd = self_dualize(base_code, seed=seed)
    sd.provenance.update(provenance)
    # Diagonal scaling keeps every codeword weight, so sd is MDS as well.
    report = _report_from_distance(sd, n - m + 1, True, budget)
    meta = {
        "curve": curve,
        "N": n_points,
        "group": group_structure(curve),
        "beta": beta,
        "h2": h2,
        "L": big_l,
        "points": points,
        "base_code": base_code,
    }
    return sd, report, meta


# -- genus-2 search ------------------------------------------------------------------------


def genus2_mds_search(
    curve: Curve,
    n: int,
    m: int,
    seed: int = 0,
    budget: int = 2000,
    check_budget: int = DEFAULT_BUDGET,
) -> tuple[LinearCode, CodeReport, dict]:
    """Seeded random hunt for an MDS one-point code on a genus-2 curve.

    Samples n-subsets of the affine rational points and keeps the first
    whose degree-m code passes the minor criterion.  The counting bound
    m * C(n, m-2) < N is recorded as an advisory flag; the search runs
    either way.  Raises NotFound with the attempt count when the budget
    runs out.
    """
    if curve.genus != 2:
        raise PreconditionFailed("search expects a genus-2 curve")
    if not (2 < m < n):
        raise PreconditionFailed(f"need 2 < m < n ({m=}, {n=})")
    affine = curve.affine_points()
    total = len(affine) + 1
    if n > len(affine):
        raise PreconditionFailed(
            f"n={n} exceeds the {len(affine)} affine rational points"
        )
    bound_ok = m * comb(n, m - 2) < total
    rng = Random(seed)
    for attempt in range(1, budget + 1):
        pts = sorted(rng.sample(affine, n), key=CurvePoint.sort_key)
        code = build_code(
            curve,
            pts,
            m,
            {"construction": "genus2-search", "curve": curve.text(), "m": m},
        )
        if is_mds_by_minors(code, check_budget):
            meta = {
                "curve": curve,
                "points": pts,
                "attempts": attempt,
                "counting_bound_ok": bound_ok,
            }
            report = _report_from_distance(code, n - code.k + 1, True, check_budget)
            return code, report, meta
    raise NotFound(f"no MDS sample within {budget} attempts (bound_ok={bound_ok})")
