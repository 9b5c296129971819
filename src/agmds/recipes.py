"""End-to-end code constructions.

Each recipe locates (or accepts) a curve, picks evaluation points, builds
the code and certifies it MDS with one certificate: the subset-sum DP on
the point labels for elliptic codes (their exact MDS condition, so it runs
even when a sufficient condition already holds), the same DP on the
discrete logs of the evaluation elements for twisted evaluation codes
(their product criterion), the minors of the systematic form [I | A]
on genus 2.  The report takes d = n - k + 1 from that verdict (d = n - k
for a twisted code that fails it).  An elliptic report takes its Schur
square's dimension and distance from code.elliptic_schur (Riemann-Roch,
and the DP at 2m); twisted and genus-2 reports still row-reduce the
square and scan its distance.  Polynomial-code baselines live here too; a
plain RS code is MDS by the Vandermonde theorem and needs no certificate,
and its square is the RS code of dimension min(2k - 1, n).

The elliptic recipes share one group representation, the labels of
curves.Group (point_labels on a curve): subgroups are label sets, and a
coset b + S is S shifted by b.  coset_code is the one constructor of
elliptic coset codes and the DP its one verdict.  search_coset_code and
supersingular_code choose their coset by group arithmetic (_passes), and
build it once.  Step budgets are code.DEFAULT_BUDGET throughout; only the
genus-2 hunt takes a budget (its sample count).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from math import comb, gcd, isqrt, lcm
from operator import itemgetter
from random import Random

from .code import (
    DEFAULT_BUDGET,  # re-exported: the step budget of every certificate here
    LinearCode,
    CodeReport,
    _group_sum,
    _has_subset_sum,
    _report_from_distance,
    _require_minor_budget,
    _systematic_form_is_mds,
    build_code,
    elliptic_schur,
    is_mds_by_group_sums,
    self_dualize,
)
from .curves import (
    Curve,
    Group,
    _matching_curves,
    admissible_curve_orders,
    admissible_group_structures,
    curve_make,
    find_curve_with_order,
    group_structure,
    hasse_window,
    point_labels,
)
from .intmath import is_prime
from .errors import (
    BudgetExhausted,
    DuplicateEvaluationPoints,
    NoAdmissibleBeta,
    NoAdmissibleCurve,
    NotFound,
    NotMDS,
    PreconditionFailed,
    RangeViolation,
    SubgroupNotFound,
)
from .field import FieldSpec, field_make
from .linalg import FFMatrix
from .rrspace import evaluate_monomial, rr_basis


# -- coset codes -----------------------------------------------------------------


def _coset_result(curve: Curve, subgroups, m: int):
    """coset_code's code, report and meta on the curve's first passing coset
    (_first_coset) of the subgroups (label sets) in sorted order, or None."""
    labels = point_labels(curve)
    subgroups = sorted(subgroups, key=labels.sorted_points)
    if not (found := _first_coset(labels, subgroups, m, partial(map, labels.of, curve.points()))):
        return None
    subgroup, b = found[1:]
    points = labels.sorted_points(labels.add(b, s) for s in subgroup)
    subgroup = tuple(labels.sorted_points(subgroup))
    code, report = coset_code(curve, subgroup, points[:1], m)
    meta = {"curve": curve, "group": group_structure(curve), "N": len(curve.points())}
    return code, report, meta | {"subgroup": subgroup, "rep": points[0], "points": points}


def _passes(group: Group, subgroup, b, m: int) -> bool:
    """Whether no m distinct elements of the coset b + S (S a subgroup, as
    labels; 1 <= m < |S|) sum to the identity: is_mds_by_group_sums's verdict.

    The m-sums of b + S are m*b + Sigma_m(S), and the m-sums Sigma_m(S) of S
    are S but for Sigma_2((Z/2)^2) = S - {0}.  So b + S passes iff m*b is
    not in S; for S = (Z/2)^2 and m = 2, iff 2b is 0 or not in S.  Proof
    sketch: for S = Z/n the sums of m distinct integers in [0, n) fill an
    interval of length m(n - m) + 1 >= n.  For S = Z/d1 x Z/d2, split the m
    over the cosets of Z/d2: one holding 1 to d2 - 1 of them frees the second
    coordinate, and moving one to the next coset moves the first by 1; only
    (Z/2)^2 at m = 2 has no split reaching every first coordinate so.  A
    brute force pins the fact for every such S of order at most 130.
    """
    mb = group.scale(m, b)
    klein = m == 2 and len(subgroup) == 4 and all(group.scale(2, s) == (0, 0) for s in subgroup)
    return mb not in subgroup or (klein and mb == (0, 0))


def _first_coset(group: Group, subgroups, m: int, walk):
    """(deferred, S, b) for the first coset b + S other than S whose degree-m
    code passes (_passes), or None: the subgroups S in turn, each one's
    cosets in order of their first element in walk() (passing is a coset
    property, so the first passing element is its coset's first).  When
    2m = n, a coset summing to the identity (n*b + sum(S)) comes after
    every other passing coset: those keep the Schur dimension at 2m."""
    deferred = None
    for subgroup in subgroups:
        n, total = len(subgroup), group.sum(subgroup)
        for b in walk():
            if b in subgroup or not _passes(group, subgroup, b, m):
                continue
            if 2 * m != n or group.add(group.scale(n, b), total) != (0, 0):
                return False, subgroup, b
            deferred = deferred or (True, subgroup, b)
    return deferred


def coset_code(
    curve: Curve, subgroup_generators, coset_reps, m: int
) -> tuple[LinearCode, CodeReport]:
    """Code on a coset b + S (or a disjoint union of cosets) of a subgroup
    S, with divisor m * P0: the one constructor of elliptic coset codes.

    The union must be disjoint, and the exact group-sum certificate is the
    one verdict: NotMDS when some m of the points sum to the identity.
    Subgroup, cosets and sums are all taken on the point labels; two
    cosets are equal or disjoint, so the union is disjoint iff it has
    len(reps) * |S| labels.  The certificate fixes d = n - m + 1, and
    elliptic_schur gives the Schur square's dimension and distance.
    """
    if not coset_reps:
        raise RangeViolation("need at least one coset representative")
    labels = point_labels(curve)
    sub_set = labels.span(map(labels.of, subgroup_generators))
    reps = [labels.of(b) for b in coset_reps]
    union = {labels.add(r, s) for r in reps for s in sub_set}
    if len(union) != len(reps) * len(sub_set):
        raise PreconditionFailed("cosets are not pairwise disjoint")
    points = labels.sorted_points(union)
    if not is_mds_by_group_sums(curve, points, m):
        raise NotMDS(f"a {m}-subset of the evaluation points sums to the identity")
    provenance = {"construction": "coset", "curve": curve.text(), "m": m,
                  "subgroup_order": len(sub_set), "cosets": len(reps)}
    code = build_code(curve, points, m, provenance)
    return code, _report_from_distance(
        code, code.n - m + 1, True, schur=elliptic_schur(curve, points, m)
    )


def _subgroups_of_order(group: Group, order: int) -> list:
    """All subgroups of the given order, as frozensets of labels: in rank 2,
    the cyclic subgroups of the order's torsion and the sums of two.  Each
    cyclic one is spanned once, by the multiples of its first generator, and
    a pair whose sum is cyclic (lcm of the orders = order) is skipped."""
    cyclic, generators = [], set()  # generators: of the cyclic subgroups so far
    for t in group.torsion(order):
        if t not in generators:
            o = group.order(t)
            multiples = [group.scale(k, t) for k in range(o)]
            cyclic.append(frozenset(multiples))
            generators.update(x for k, x in enumerate(multiples) if gcd(k, o) == 1)
    found = {c for c in cyclic if len(c) == order}
    for a, b in combinations(cyclic, 2):
        if len(a) * len(b) == order * len(a & b) and lcm(len(a), len(b)) < order:
            found.add(frozenset(group.add(x, y) for x in a for y in b))
    return list(found)


# search_coset_code walks the curve family up to q = 300, and above that
# draws 8000 seeded random models: they find curves of one order far sooner.
_SEARCH_DRAWS = 8000
_SEARCH_FAMILY_CAP = 300


def search_coset_code(
    field: FieldSpec, n_points: int, n: int, m: int, seed: int = 0
) -> tuple[LinearCode, CodeReport, dict]:
    """Find a curve with the given point count and a size-n coset whose
    degree-m code is MDS.  A coset's verdict depends only on the group
    (_passes), so each admissible shape is decided first on a bare Group
    (an undeferred pass beats a deferred one), and no curve is walked when
    none passes.  The walk stops at the first curve of the best verdict,
    else takes the first that passes; _coset_result takes its coset."""
    if not 1 <= m < n:
        raise RangeViolation(f"need 1 <= m < n ({m=}, {n=})")
    if n_points not in admissible_curve_orders(field.q):
        raise NoAdmissibleCurve(f"N={n_points} is not an attainable point count over q={field.q}")
    if n_points % n != 0:
        raise NoAdmissibleCurve(f"a size-{n} subgroup needs n | N, got N={n_points}")
    no_coset = NoAdmissibleCurve(f"no curve with N={n_points} over q={field.q} has a size-{n} "
                                 f"coset giving an MDS degree-{m} code")
    verdicts = {}  # shape -> (deferred, its size-n subgroups), for the shapes that pass
    for d1, d2 in admissible_group_structures(field.q, n_points):
        group = Group(d1, d2)
        subgroups = _subgroups_of_order(group, n)
        if found := _first_coset(group, subgroups, m, partial(product, range(d1), range(d2))):
            verdicts[d1, d2] = found[0], subgroups
    if not verdicts:
        raise no_coset
    best = min(deferred for deferred, _ in verdicts.values())
    firsts, walked = {}, False  # firsts: deferred -> the first curve of that verdict
    curves = _matching_curves(field, n_points, None, seed, _SEARCH_DRAWS, _SEARCH_FAMILY_CAP)
    for curve in curves:
        walked = True
        if verdict := verdicts.get(group_structure(curve)):
            firsts.setdefault(verdict[0], curve)
            if best in firsts:
                break
    if not firsts:
        raise no_coset if walked else NoAdmissibleCurve(
            f"no curve with N={n_points} found over q={field.q}")
    curve = firsts[min(firsts)]
    return _coset_result(curve, verdicts[group_structure(curve)][1], m)


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
    return search_coset_code(field, l1 * l2, l1, m, seed=seed)


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
    if p % 2 == 0 or not is_prime(p):
        raise PreconditionFailed("p must be an odd prime")
    field = field_make(p)
    n = isqrt(p)
    n_points = n * (n + 1)
    length = n + 1 if longer else n
    if not 2 <= m <= length - 1:
        raise PreconditionFailed(f"need 2 <= m <= {length - 1}, got {m}")
    return search_coset_code(field, n_points, length, m, seed=seed)


def supersingular_code(
    p: int, ext_degree: int, n_sub: int, k: int, seed: int = 0
) -> tuple[LinearCode, CodeReport, dict]:
    """MDS [n_sub, k] code over F_{p^ext} from a supersingular curve, on the
    first passing coset (_coset_result) of the subgroup spanned by the first
    point of order n_sub: SubgroupNotFound when there is none, NotMDS when
    none of its cosets passes.

    Needs an odd p, and uses y^2 = x^3 + 1 when p = 2 mod 3, else
    y^2 = x^3 + x when p = 3 mod 4.  The point count is p^e + 1 for odd
    extension degree e and (p^(e/2) - (-1)^(e/2))^2 for even e, and n_sub
    must divide it and stay below its square root (odd e) or below
    p^(e/2) - (-1)^(e/2) (even e).
    """
    if p % 2 == 0:  # both models are singular in characteristic 2
        raise PreconditionFailed("p must be odd")
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
    if n_sub < 2:  # k needs 1 <= k <= N - 1, and 0 divides nothing
        raise PreconditionFailed(f"need N >= 2, got N={n_sub}")
    if count % n_sub != 0:
        raise PreconditionFailed(f"N={n_sub} does not divide the point count {count}")
    if too_big:
        raise PreconditionFailed(f"N={n_sub} exceeds the length bound for {count} points")
    if not 1 <= k <= n_sub - 1:
        raise PreconditionFailed(f"need 1 <= k <= N - 1, got k={k}")
    labels = point_labels(curve)
    generator = next(
        (g for g in map(labels.of, curve.points()[1:]) if labels.order(g) == n_sub),
        None,
    )
    if generator is None:
        raise SubgroupNotFound(f"no point of order {n_sub} on {curve.text()}")
    found = _coset_result(curve, [frozenset(labels.span([generator]))], k)
    if found is None:
        raise NotMDS(f"no coset of the order-{n_sub} subgroup is MDS at degree {k}")
    return found


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
    Vandermonde(S) * (1 + (-1)^(k-1) * eta * prod(S)).  A subset holding 0
    has product 0, never (-1)^k / eta, so 0 drops out; on the nonzero
    elements, taken as discrete logs, the condition is a k-subset sum in
    Z/(q-1) hitting log((-1)^k / eta), which the elliptic certificate's
    subset-sum DP decides (in Z/1 x Z/(q-1)) in at most (n-k+1)*k row updates.

    A non-MDS code has d = n - k exactly, so its report needs no distance
    scan: a nonzero element of span{1 + eta*x^k, x, ..., x^(k-1)} has
    degree at most k, hence at most k roots among the n distinct points,
    so d >= n - k; and a non-MDS verdict means d <= n - k.
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
    target = F.div(F.from_int((-1) ** k), eta)
    logs = [(0, F.log(a)) for a in pts if a]
    flag = not _has_subset_sum(logs, k, 1, F.q - 1, (0, F.log(target)), DEFAULT_BUDGET)
    if flag:
        return code, _report_from_distance(code, n - k + 1, True), flag
    return code, _report_from_distance(code, n - k, False), flag


# -- self-dual pipeline --------------------------------------------------------------------


def admissible_pipeline_traces(s1: int, s2: int) -> list[int]:
    """Trace values usable by the self-dual pipeline over F_{2^(s1*s2)}:
    beta = 1 mod 8, 2 - beta divisible by 2^s1 - 1, |beta| <= 2*sqrt(q),
    ordered by increasing absolute value."""
    q = 2 ** (s1 * s2)
    w = isqrt(4 * q)
    out = [beta for beta in range(-w, w + 1) if beta % 8 == 1 and (2 - beta) % (2**s1 - 1) == 0]
    return sorted(out, key=lambda b: (abs(b), b))


def self_dual_pipeline(
    s1: int, s2: int, t: int, l_prime: int, seed: int = 0
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
        return _run_pipeline(curve, n_points, h2, big_l, t, l_prime, seed, beta)
    raise last


def _run_pipeline(curve, n_points, h2, big_l, t, l_prime, seed, beta):
    labels = point_labels(curve)
    generator = (0, 1)  # the curve has shape (1, N): labels are Z/1 x Z/N
    theta = labels.scale(big_l, generator)  # order 2^h2
    odd_gen = labels.scale(2**h2, generator)  # order L
    e2_gen = labels.scale(big_l // l_prime, odd_gen)  # order l_prime
    e1 = labels.span([labels.scale(2 ** (h2 - t), theta), e2_gen])
    b = labels.scale(2 ** (h2 - 1 - t), theta)
    points = labels.sorted_points(labels.add(b, s) for s in e1)
    n = len(points)
    m = n // 2
    if _group_sum(curve, points):  # pragma: no cover
        raise AssertionError("pipeline coset does not sum to the identity")
    if not is_mds_by_group_sums(curve, points, m):
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
    # sd scales the columns of base_code by nonzero roots, so it is MDS as
    # well, and its Schur square scales base_code's: same dimension, same d.
    report = _report_from_distance(
        sd, n - m + 1, True, schur=elliptic_schur(curve, points, m)
    )
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
) -> tuple[LinearCode, CodeReport, dict]:
    """Seeded random hunt for an MDS one-point code on a genus-2 curve.

    Evaluates the basis of L(m*P0) at every affine rational point once,
    into a k x N table (k = m - 1).  Each attempt samples n columns of
    that table and keeps the first sample that is MDS by the minors of
    its systematic form (code._systematic_form_is_mds); the winner's code
    is built from that sample, not by build_code.  No sample needs
    build_code's checks: its points are distinct affine rational points,
    2 < m < n holds, and its generator has full rank because a nonzero
    function of L(m*P0) has at most m < n zeros.  An exact test skips the
    certificate: a sample with k of its points over some m // 2 abscissas
    is refuted by the product of (x - a) over them, a function of L(m*P0);
    it changes neither the attempt count, the draws nor the winner.  The
    minor budget is checked once, before any sample.  The
    counting bound m * C(n, m-2) < N is recorded as an advisory flag; the
    search runs either way.  Raises NotFound with the attempt count when
    the budget runs out, and with the same message at once, drawing no
    sample, when the abscissa test refutes every n-sample.
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
    F = curve.field
    table = [
        [evaluate_monomial(F, mono, p) for p in affine]
        for mono in rr_basis(curve, m).monomials
    ]
    k = len(table)
    _require_minor_budget(n, k, DEFAULT_BUDGET)
    exhausted = f"no MDS sample within {budget} attempts (bound_ok={bound_ok})"
    positions = range(len(affine))
    xs = [pt[0] for pt in affine]
    h = m // 2
    # At most two points lie over an abscissa, so every n-sample doubles at
    # least n - A of the A abscissas: the loop's test below then refutes all.
    if n - len(set(xs)) >= k - h:
        raise NotFound(exhausted)
    rng = Random(seed)
    for attempt in range(1, budget + 1):
        # affine is in (x, y) order, so sorted positions give sorted points
        idx = sorted(rng.sample(positions, n))
        columns = itemgetter(*idx)
        # x has pole order 2 at P0, so the product of (x - a) over any h
        # abscissas a lies in L(m*P0) and vanishes at every sample point over
        # them: k such points give a codeword of weight <= n - k.  With d
        # abscissas doubled, the h fullest hold h + min(h, d) >= k iff d >= k - h.
        if n - len(set(columns(xs))) >= k - h:
            continue
        sample = FFMatrix(F, [columns(row) for row in table], n)
        if _systematic_form_is_mds(sample):
            provenance = {"construction": "genus2-search", "curve": curve.text(), "m": m}
            # the certificate reduced the sample's first k columns to I
            code = LinearCode._of_full_rank(F, sample, provenance)
            meta = {
                "curve": curve,
                "N": total,
                "points": [affine[i] for i in idx],
                "attempts": attempt,
                "counting_bound_ok": bound_ok,
            }
            report = _report_from_distance(code, n - code.k + 1, True)
            return code, report, meta
    raise NotFound(exhausted)
