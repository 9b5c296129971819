"""Linear codes and their exact analytics.

A LinearCode is a field plus a full-rank generator matrix.  Every analytic
here is exact: minimum distance by message enumeration or by support-kernel
scan, MDS certification by the square minors of the systematic form
[I | A], each computed from the minors one size smaller by Laplace
expansion on discrete logs, or (for elliptic curve codes) by an exact
subset-sum DP on the integer labels of the point group, Schur squares by
row products and a rank, hull dimension from the rank of G G^T, and
diagonal self-dualization over characteristic 2, whose scalings are the
dual of the Schur square.  The Schur square of an elliptic one-point code
also has a law, elliptic_schur: L(mP0)^2 = L(2mP0) for m >= 3, so its
dimension and distance come from Riemann-Roch and the MDS verdict at 2m, as
an RS code's come from the Vandermonde theorem.  Checks that would exceed
their elementary-step budget raise BudgetExceeded instead of
approximating.  is_mds_by_minors, one k x k elimination per k-subset of
columns, is the slow oracle the faster certificates are tested against,
and schur_square with min_distance the oracle of the Schur law.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product
from math import comb
from random import Random

from .curves import INFINITY, Curve, point_labels
from .errors import (
    BudgetExceeded,
    CharNotTwo,
    DegreeOutOfRange,
    DuplicatePoints,
    InfinityEvaluation,
    NoFullWeightSolution,
    NotHalfRate,
    RangeViolation,
    RankDeficient,
)
from .field import FieldSpec
from .linalg import (
    FFMatrix, has_full_column_rank_square, kernel_basis, rank, rref_rank, systematic_part,
)
from .rrspace import evaluate_monomial, rr_basis

DEFAULT_BUDGET = 10**7


class LinearCode:
    """An [n, k] linear code given by a full-rank k x n generator matrix."""

    __slots__ = ("field", "n", "k", "gen", "provenance")

    def __init__(self, field: FieldSpec, gen: FFMatrix, provenance: dict | None = None):
        if gen.rows and rank(gen) != gen.rows:
            raise RankDeficient(f"generator has rank < {gen.rows}")
        self.field = field
        self.n = gen.cols
        self.k = gen.rows
        self.gen = gen
        self.provenance = provenance

    @classmethod
    def _of_full_rank(cls, field: FieldSpec, gen: FFMatrix, provenance: dict | None = None):
        """__init__ without its rank check, for a generator proved full rank."""
        code = cls.__new__(cls)
        code.field, code.gen, code.provenance = field, gen, provenance
        code.n, code.k = gen.cols, gen.rows
        return code

    def codewords(self):
        """Iterate all q^k codewords (the zero word included)."""
        F = self.field
        add, mul = F.additive()[0], F.mul
        rows = self.gen.data
        for msg in product(range(F.q), repeat=self.k):
            word = [0] * self.n
            for m, row in zip(msg, rows):
                if m:
                    word = [add(w, mul(m, r)) for w, r in zip(word, row)]
            yield tuple(word)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field.spec_text()})"


@dataclass(frozen=True, slots=True)
class CodeReport:
    """Equivalence-relevant fingerprint of a code.

    d and schur_d are None when their exact computation would exceed the
    budget; is_mds is None only if both the distance and the systematic
    minor check were over budget.  The recipes read schur_dim and schur_d
    from a law where one holds: elliptic_schur for elliptic one-point codes
    (None only for a union of cosets whose group-sum DP at 2m exceeds the
    budget) and the Vandermonde theorem for RS codes (never None).
    """

    n: int
    k: int
    d: int | None
    is_mds: bool | None
    schur_dim: int
    schur_d: int | None
    hull_dim: int
    self_dual: bool
    non_rs_certified: bool


# -- construction ------------------------------------------------------------


def build_code(
    curve: Curve, points, m: int, provenance: dict | None = None
) -> LinearCode:
    """One-point evaluation code: row r, column c holds the r-th basis
    monomial of L(m*P0) evaluated at the c-th point.

    The generator has full rank without a rank check: the monomials are a
    basis of L(m*P0), and a nonzero f in L(m*P0) has its only pole at P0,
    of order at most m, so at most m zeros; on n > m distinct affine points
    it cannot vanish everywhere."""
    pts = list(points)
    n = len(pts)
    g = curve.genus
    if not (2 * g - 2 < m < n):
        raise DegreeOutOfRange(f"need {2 * g - 2} < m < n ({m=}, {n=})")
    for p in pts:
        curve._require_on(p)
        if not p:
            raise InfinityEvaluation("evaluation points must be affine")
    if len(set(pts)) != n:
        raise DuplicatePoints("evaluation points must be distinct")
    F = curve.field
    basis = rr_basis(curve, m)
    rows = [
        [evaluate_monomial(F, mono, p) for p in pts] for mono in basis.monomials
    ]
    return LinearCode._of_full_rank(F, FFMatrix(F, rows, n), provenance)


def dual_code(code: LinearCode) -> LinearCode:
    """The code with generator a kernel basis of G; dimension n - k."""
    ker = kernel_basis(code.gen)
    # each basis vector has a 1 at its own free column and 0 at the others'
    return LinearCode._of_full_rank(code.field, ker, {"construction": "dual"})


def permute_and_scale(code: LinearCode, perm, scales) -> LinearCode:
    """Monomial transform: reorder coordinates by perm, then scale each by
    the matching nonzero element."""
    F = code.field
    perm = list(perm)
    scales = list(scales)
    if sorted(perm) != list(range(code.n)) or len(scales) != code.n:
        raise RangeViolation("perm must be a permutation and scales length n")
    if any(s == 0 for s in scales):
        raise RangeViolation("scales must be nonzero")
    mul = F.mul
    rows = [
        [mul(row[p], s) for p, s in zip(perm, scales)] for row in code.gen.data
    ]
    return LinearCode(F, FFMatrix(F, rows, code.n), code.provenance)


# -- exact distance -------------------------------------------------------------


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum distance.

    Two strategies: (A) enumerate all q^k - 1 nonzero messages; (B) scan
    supports of growing weight w, testing whether some nonzero codeword
    vanishes outside the support (a kernel computation).  The Singleton
    bound caps B at w = n - k + 1, so B always terminates.  Whichever has
    the smaller cost estimate runs (B on a tie), provided it fits the budget.
    """
    n, k = code.n, code.k
    if k == 0:
        raise RangeViolation("distance of the zero code is undefined")
    q = code.field.q
    cost_a = q**k * n
    cost_b = sum(comb(n, w) for w in range(1, n - k + 2)) * k * n
    if min(cost_a, cost_b) > budget:
        raise BudgetExceeded(
            f"distance of [{n},{k}] over q={q} exceeds budget {budget}"
        )
    if cost_b <= cost_a:
        return _distance_by_supports(code)
    return _distance_by_enumeration(code)


def _distance_or_none(code: LinearCode, budget: int) -> int | None:
    """The exact minimum distance, or None for the zero code (which has
    none) and for a code whose distance exceeds the budget."""
    if code.k == 0:
        return None
    try:
        return min_distance(code, budget)
    except BudgetExceeded:
        return None


def _distance_by_enumeration(code: LinearCode) -> int:
    best = code.n
    for word in code.codewords():
        w = sum(1 for v in word if v)
        if 0 < w < best:
            best = w
            if best == 1:
                break
    return best


def _distance_by_supports(code: LinearCode) -> int:
    F = code.field
    n, k = code.n, code.k
    cols = code.gen.transpose().data
    for w in range(1, n - k + 2):
        for supp in combinations(range(n), w):
            ss = set(supp)
            outside = [cols[c] for c in range(n) if c not in ss]
            sub = FFMatrix(F, outside, k)  # rows = outside columns
            if rank(sub) < k:
                return w
    raise AssertionError("unreachable: Singleton bound guarantees a hit")


# -- MDS certificates --------------------------------------------------------------


def is_mds_by_minors(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether every k columns of G are independent (so d = n - k + 1)."""
    n, k = code.n, code.k
    _require_minor_budget(n, k, budget)
    if k == 0:
        return False
    F = code.field
    cols = code.gen.transpose().data
    if any(not any(col) for col in cols):
        return False
    for subset in combinations(range(n), k):
        if not has_full_column_rank_square(F, [cols[c] for c in subset]):
            return False
    return True


def is_mds_by_systematic_minors(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether every k columns of G are independent, read off [I | A].

    Row-reduce G, stopping at the first of the first k columns without a
    pivot: the code is then not MDS.  Otherwise G ~ [I | A] and the code is
    MDS iff every square submatrix of A is nonsingular (MacWilliams &
    Sloane, ch. 11, Thm. 8).  The minors are checked in increasing size,
    so a zero entry of A rejects at once.  There are C(n, k) - 1 of them,
    one per k-subset of columns other than the first k, and the budget
    refuses the same codes as is_mds_by_minors, which stays the slow oracle.
    """
    _require_minor_budget(code.n, code.k, budget)
    if code.k == 0:
        return False
    return _systematic_form_is_mds(code.gen)


def _require_minor_budget(n: int, k: int, budget: int) -> None:
    """Refuse a minor certificate over more than budget k-subsets of n."""
    if comb(n, k) > budget:
        raise BudgetExceeded(f"C({n},{k}) column subsets exceed budget {budget}")


def _systematic_form_is_mds(gen: FFMatrix) -> bool:
    """The matrix-level body of is_mds_by_systematic_minors: whether every
    k columns of the k x n matrix gen (k >= 1) are independent.  It checks
    no budget; the caller does, once per code length and dimension."""
    k, n = gen.rows, gen.cols
    A = systematic_part(gen)
    if A is None or any(0 in row for row in A):
        return False
    F = gen.field
    r = n - k
    cols = range(r)
    # A has no zero entry, so the 2 x 2 minor on rows a, b and columns j1, j2
    # vanishes iff a[j1]/a[j2] == b[j1]/b[j2]: the k rows' ratios, as log
    # differences mod q - 1, must be distinct
    order = F.q - 1
    exp, log = F._exp, F._log
    L = [[log[v] for v in row] for row in A]
    for j1, j2 in combinations(cols, 2):
        if len({(row[j1] - row[j2]) % order for row in L}) < k:
            return False
    if min(k, r) < 3:
        return True
    # Laplace along row i: the minor on rows (i, *rest) and columns T is the
    # sum over s of (-1)^s A[i][T[s]] times the minor on rest and T without
    # T[s].  The minors kept are nonzero, so level[rest] holds their logs in
    # combinations(cols, t - 1) order; signed[i] holds the logs of A[i], then
    # of -A[i], which an odd s reads.  A sum of two logs lies in exp's range.
    half, add = log[F.neg(1)], F.additive()[0]
    signed = [row + [(v + half) % order for v in row] for row in L]
    level = {(i,): row for i, row in enumerate(L)}
    for t in range(2, min(k, r) + 1):
        terms = _laplace_terms(r, t)
        minors = {}
        for rows in combinations(range(k), t):
            row, sub = signed[rows[0]], level[rows[1:]]
            logs = minors[rows] = []
            for expansion in terms:
                acc = 0
                for j, d in expansion:
                    acc = add(acc, exp[row[j] + sub[d]])
                if not acc:
                    return False
                logs.append(log[acc])
        level = minors
    return True


@cache
def _laplace_terms(r: int, t: int) -> tuple:
    """For each t-subset T of range(r), in combinations order, its Laplace
    terms (j, d): j is T[s], plus r for odd s (the sign's offset in
    _systematic_form_is_mds's signed rows), and d the position of T
    without T[s] among the (t - 1)-subsets."""
    index = {T: d for d, T in enumerate(combinations(range(r), t - 1))}
    return tuple(
        tuple((j + r * (s & 1), index[T[:s] + T[s + 1:]]) for s, j in enumerate(T))
        for T in combinations(range(r), t)
    )


def is_mds_by_group_sums(
    curve: Curve, points, m: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether no m of the given points sum to the group identity.

    For a one-point code of degree m on an elliptic curve this is exactly
    the MDS condition: a weight-(n-m) codeword exists precisely when some
    m points form a divisor linearly equivalent to m*P0, i.e. sum to the
    identity in the point group.  The subset-sum DP of _has_subset_sum
    decides it on the points' labels in Z/d1 x Z/d2.
    """
    labels = point_labels(curve)
    elements = [labels.of(pt) for pt in points]
    n = len(elements)
    if not 1 <= m <= n:
        raise RangeViolation(f"need 1 <= m <= n ({m=}, {n=})")
    return not _has_subset_sum(elements, m, labels.d1, labels.d2, (0, 0), budget)


def _group_sum(curve: Curve, points) -> tuple:
    """The sum of the points under the group law; INFINITY is falsy.  It
    labels nothing, so a caller with few points never labels the group."""
    return reduce(curve._group_law(), points, INFINITY)


def elliptic_schur(points, m: int, mds_at) -> tuple[int, int | None]:
    """(dimension, minimum distance) of the Schur square of the one-point
    code of degree m on the given affine points D of a genus-1 curve, read
    from Riemann-Roch instead of row products and a rank; n = |D|.  mds_at(k)
    says whether no k points of D sum to the identity; it is asked at 2m only.

    For m = 1 the square is the constants.  For m = 2 it is span{1, x, x^2}
    (L(2P0) = span{1, x}): a nonzero element vanishes over at most dim - 1
    abscissas, so d is n minus the dim - 1 largest abscissa multiplicities.
    For m >= 3, L(mP0) L(mP0) = L(2mP0) (Mumford 1970), so the square is
    the degree-2m code on D.  When 2m > n its kernel L(2mP0 - D) has
    dimension 2m - n and the square is all of F^n.  When 2m = n the kernel
    is nonzero iff D ~ nP0, i.e. iff D sums to the identity (mds_at(n)
    fails); the dual is then spanned by the residues of a differential with
    a simple pole at every point of D, a full-weight word, so d = 2.  When
    2m < n the square has dimension 2m and is MDS iff mds_at(2m), else
    d = n - 2m; d is None when that verdict exceeds its budget.
    """
    pts = list(points)
    n = len(pts)
    if not 1 <= m < n:
        raise RangeViolation(f"need 1 <= m < n ({m=}, {n=})")
    if m == 1:
        return 1, n
    if m == 2:
        multiplicity = Counter(x for x, _ in pts)
        dim = min(3, len(multiplicity))
        return dim, n - sum(c for _, c in multiplicity.most_common(dim - 1))
    if 2 * m > n:
        return n, 1
    if 2 * m == n:
        return (n, 1) if mds_at(n) else (n - 1, 2)
    try:
        mds = mds_at(2 * m)
    except BudgetExceeded:
        return 2 * m, None
    return 2 * m, n - 2 * m + (1 if mds else 0)


def _has_subset_sum(elements, m: int, d1: int, d2: int, target, budget: int) -> bool:
    """Whether some m of the elements (pairs in Z/d1 x Z/d2) sum to target.

    An exact DP over (subset size, group element): reach[k] holds the sums
    of the k-subsets of the elements seen so far, as one d2-bit row per
    residue mod d1, and adding an element rotates each row.  The budget
    caps the row updates the DP performs.  Past a few thousand bits an
    update's time grows in proportion to the row width d2, so each one is
    charged 1 + d2 // 8192 steps, and a full budget takes seconds, not
    minutes, at every width up to 2^16.
    """
    n = len(elements)
    ti, tj = target
    full = (1 << d2) - 1
    reach = [[0] * d1 for _ in range(m + 1)]
    reach[0][0] = 1
    steps = 0
    level_steps = d1 * (1 + d2 // 8192)
    for t, (i, j) in enumerate(elements):
        # a k-subset can still grow to m elements only if k >= m - (n - t)
        for k in range(min(t, m - 1), max(0, m - n + t) - 1, -1):
            steps += level_steps
            if steps > budget:
                raise BudgetExceeded(
                    f"subset-sum DP over {n} elements exceeds budget {budget}"
                )
            dst = reach[k + 1]
            for r, row in enumerate(reach[k]):
                if row:
                    dst[(r + i) % d1] |= ((row << j) | (row >> (d2 - j))) & full
        if reach[m][ti] >> tj & 1:
            return True
    return False


# -- invariants -----------------------------------------------------------------------


def schur_square(code: LinearCode) -> LinearCode:
    """Span of all coordinatewise products of generator-row pairs, returned
    with a deterministic (RREF) generator."""
    F = code.field
    mul = F.mul
    n = code.n
    rows = []
    for a in range(code.k):
        ra = code.gen.data[a]
        for b in range(a, code.k):
            rb = code.gen.data[b]
            rows.append([mul(x, y) for x, y in zip(ra, rb)])
    R, r, _ = rref_rank(FFMatrix(F, rows, n))
    # the first r rows of an RREF of rank r each hold a pivot
    return LinearCode._of_full_rank(
        F, FFMatrix(F, R.data[:r], n), {"construction": "schur-square"}
    )


def hull_dim(code: LinearCode) -> int:
    """dim(C intersect C-dual) = k - rank(G G^T): uG lies in C-dual iff
    u G G^T = 0, and u -> uG is injective because G has full rank."""
    G = code.gen
    return code.k - rank(G.mul(G.transpose()))


def is_self_dual(code: LinearCode) -> bool:
    """Whether C equals its dual: n = 2k and the hull is all of C."""
    return 2 * code.k == code.n and hull_dim(code) == code.k


# self_dualize draws at most this many random combinations of the solution basis.
_FULL_WEIGHT_DRAWS = 10**5


def self_dualize(code: LinearCode, seed: int = 0) -> LinearCode:
    """Diagonal rescaling to a self-dual code over characteristic 2.

    G diag(v) G^T = 0 says that v is orthogonal to every product g_a * g_b
    of generator rows, so the solutions v form the dual of the Schur
    square.  Hunts an all-nonzero solution (basis vectors first, then
    _FULL_WEIGHT_DRAWS seeded random combinations), replaces each v_i by
    its square root (unique in characteristic 2) and scales the columns.
    """
    F = code.field
    if F.p != 2:
        raise CharNotTwo("self-dualization requires characteristic 2")
    if 2 * code.k != code.n:
        raise NotHalfRate(f"need n = 2k, got n={code.n}, k={code.k}")
    basis = kernel_basis(schur_square(code).gen)
    if basis.rows == 0:
        raise NoFullWeightSolution(
            f"no nonzero solution: the Schur square has dimension n = {code.n}"
        )
    v = _full_weight_vector(F, basis, seed)
    if v is None:
        raise NoFullWeightSolution(
            f"no all-nonzero solution among {basis.rows} basis vectors "
            f"within {_FULL_WEIGHT_DRAWS} combinations"
        )
    sqrt_v = [F.frobenius_sqrt(c) for c in v]
    scaled = code.gen.scale_columns(sqrt_v)
    # nonzero column scalings keep the rank of code's full-rank generator
    out = LinearCode._of_full_rank(
        F, scaled, {"construction": "self-dualize", "scaling": v}
    )
    if not out.gen.mul(out.gen.transpose()).is_zero():  # pragma: no cover
        raise AssertionError("scaled generator is not self-orthogonal")
    return out


def _full_weight_vector(F: FieldSpec, basis: FFMatrix, seed: int):
    for row in basis.data:
        if all(row):
            return list(row)
    rng = Random(seed)
    add, mul = F.additive()[0], F.mul
    n = basis.cols
    for _ in range(_FULL_WEIGHT_DRAWS):
        coeffs = [rng.randrange(F.q) for _ in range(basis.rows)]
        if not any(coeffs):
            continue
        v = [0] * n
        for c, row in zip(coeffs, basis.data):
            if c:
                v = [add(x, mul(c, y)) for x, y in zip(v, row)]
        if all(v):
            return v
    return None


def eaqec_params(n: int, k: int, h: int) -> tuple[int, int, int, int]:
    """Parameters [[n, k-h, n-k+1, n-k-h]] of the entanglement-assisted
    quantum code derived from an MDS code with hull dimension h."""
    if not (2 * k >= n and k <= n - 1):
        raise RangeViolation(f"need n/2 <= k <= n-1 ({n=}, {k=})")
    if not (0 <= h <= n // 2):
        raise RangeViolation(f"need 0 <= h <= n/2 ({h=}, {n=})")
    return (n, k - h, n - k + 1, n - k - h)


def invariant_report(code: LinearCode, budget: int = DEFAULT_BUDGET) -> CodeReport:
    """Fill a CodeReport; never raises.  d or schur_d stay None when their
    exact computation would exceed the budget."""
    n, k = code.n, code.k
    d = _distance_or_none(code, budget)
    if d is not None:
        mds = d == n - k + 1
    elif k == 0:
        mds = False
    else:
        try:
            mds = is_mds_by_systematic_minors(code, budget)
        except BudgetExceeded:
            mds = None
    return _report_from_distance(code, d, mds, budget)


def _report_from_distance(
    code: LinearCode,
    d: int | None,
    is_mds: bool | None,
    budget: int = DEFAULT_BUDGET,
    schur: tuple[int, int | None] | None = None,
) -> CodeReport:
    """The CodeReport of a code whose distance and MDS verdict are already
    known: a recipe whose certificate proved MDS passes d = n - k + 1.  A
    caller that knows the Schur square's dimension and distance by a law
    passes them as schur = (dim, d): elliptic_schur for elliptic one-point
    codes, the Vandermonde theorem for RS codes.  Otherwise the square is
    row-reduced and its distance scanned, staying None over budget."""
    n, k = code.n, code.k
    if schur is None:
        square = schur_square(code)
        schur = square.k, _distance_or_none(square, budget)
    schur_dim, schur_d = schur
    hull = hull_dim(code)
    return CodeReport(
        n=n,
        k=k,
        d=d,
        is_mds=is_mds,
        schur_dim=schur_dim,
        schur_d=schur_d,
        hull_dim=hull,
        self_dual=2 * k == n and hull == k,
        non_rs_certified=schur_dim >= 2 * k,
    )
