"""Linear codes and their exact analytics.

A LinearCode is a field plus a full-rank generator matrix.  Every analytic
here is exact: minimum distance by message enumeration or by support-kernel
scan, MDS certification by column minors or (for elliptic curve codes) by
an exact subset-sum DP on the integer labels of the point group,
Schur-square dimension, hull dimension, and diagonal self-dualization over
characteristic 2.  Checks that would exceed their elementary-step
budget raise BudgetExceeded instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from random import Random

from .curves import Curve, point_labels
from .errors import (
    BudgetExceeded,
    CharNotTwo,
    DegreeOutOfRange,
    DuplicatePoints,
    InfinityEvaluation,
    NoFullWeightSolution,
    NotHalfRate,
    PointNotOnCurve,
    RangeViolation,
    RankDeficient,
)
from .field import FieldSpec
from .linalg import (
    FFMatrix,
    diagonal_bilinear_solve,
    has_full_column_rank_square,
    kernel_basis,
    rank,
    rref_rank,
)
from .rrspace import evaluate_monomial, rr_basis

DEFAULT_BUDGET = 10**7


class LinearCode:
    """An [n, k] linear code given by a full-rank k x n generator matrix."""

    __slots__ = ("field", "n", "k", "gen", "provenance")

    def __init__(self, field: FieldSpec, gen: FFMatrix, provenance: dict | None = None):
        if gen.rows and rank(gen) != gen.rows:
            raise RankDeficient(f"generator has rank < {gen.rows}")
        if gen.rows > gen.cols:
            raise RankDeficient("more rows than columns")
        self.field = field
        self.n = gen.cols
        self.k = gen.rows
        self.gen = gen
        self.provenance = provenance

    def codewords(self):
        """Iterate all q^k codewords (the zero word included)."""
        F = self.field
        add, mul = F.add, F.mul
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
    budget; is_mds is None only if both the distance and the minor scan
    were over budget.
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
    monomial of L(m*P0) evaluated at the c-th point."""
    pts = list(points)
    n = len(pts)
    g = curve.genus
    if not (2 * g - 2 < m < n):
        raise DegreeOutOfRange(f"need {2 * g - 2} < m < n ({m=}, {n=})")
    if len(set(pts)) != n:
        raise DuplicatePoints("evaluation points must be distinct")
    F = curve.field
    for p in pts:
        if p.is_infinity:
            raise InfinityEvaluation("evaluation points must be affine")
        if not curve.contains(p):
            raise PointNotOnCurve(f"{p} not on {curve.text()}")
    basis = rr_basis(curve, m)
    rows = [
        [evaluate_monomial(F, mono, p) for p in pts] for mono in basis.monomials
    ]
    return LinearCode(F, FFMatrix(F, rows, n), provenance)


def dual_code(code: LinearCode) -> LinearCode:
    """The code with generator a kernel basis of G; dimension n - k."""
    ker = kernel_basis(code.gen)
    return LinearCode(code.field, ker, {"construction": "dual"})


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
    the smaller cost estimate runs, provided it fits the budget.
    """
    n, k = code.n, code.k
    if k == 0:
        raise RangeViolation("distance of the zero code is undefined")
    q = code.field.q
    cost_a = (q**k) * n if k * _log2(q) < 60 else None
    cost_b = sum(comb(n, w) for w in range(1, n - k + 2)) * k * n
    if cost_b <= (cost_a if cost_a is not None else cost_b + 1) and cost_b <= budget:
        return _distance_by_supports(code)
    if cost_a is not None and cost_a <= budget:
        return _distance_by_enumeration(code)
    if cost_b <= budget:
        return _distance_by_supports(code)
    raise BudgetExceeded(
        f"distance of [{n},{k}] over q={q} exceeds budget {budget}"
    )


def _log2(x: int) -> float:
    return x.bit_length()


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
    if comb(n, k) > budget:
        raise BudgetExceeded(f"C({n},{k}) column subsets exceed budget {budget}")
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


def is_mds_by_group_sums(
    curve: Curve, points, m: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether no m of the given points sum to the group identity.

    For a one-point code of degree m on an elliptic curve this is exactly
    the MDS condition: a weight-(n-m) codeword exists precisely when some
    m points form a divisor linearly equivalent to m*P0, i.e. sum to the
    identity in the point group.

    An exact subset-sum DP over (subset size, group element) decides it on
    the points' labels in Z/d1 x Z/d2: reach[k] holds the sums of the
    k-subsets of the points seen so far, as one d2-bit row per residue mod
    d1, and adding a point rotates each row.  The budget caps the row
    updates the DP performs.
    """
    labels = point_labels(curve)
    pts = list(points)
    n = len(pts)
    if not 1 <= m <= n:
        raise RangeViolation(f"need 1 <= m <= n ({m=}, {n=})")
    d1, d2 = labels.d1, labels.d2
    full = (1 << d2) - 1
    reach = [[0] * d1 for _ in range(m + 1)]
    reach[0][0] = 1
    steps = 0
    for t, pt in enumerate(pts):
        i, j = labels.of(pt)
        # a k-subset can still grow to m points only if k >= m - (n - t)
        for k in range(min(t, m - 1), max(0, m - n + t) - 1, -1):
            steps += d1
            if steps > budget:
                raise BudgetExceeded(
                    f"subset-sum DP over {n} points exceeds budget {budget}"
                )
            dst = reach[k + 1]
            for r, row in enumerate(reach[k]):
                if row:
                    dst[(r + i) % d1] |= ((row << j) | (row >> (d2 - j))) & full
        if reach[m][0] & 1:
            return False
    return True


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
    return LinearCode(
        F, FFMatrix(F, R.data[:r], n), {"construction": "schur-square"}
    )


def hull_dim(code: LinearCode) -> int:
    """dim(C intersect C-dual) = k + (n-k) - rank of the stacked generators."""
    dual = kernel_basis(code.gen)
    stacked = code.gen.stack(dual)
    return code.n - rank(stacked)


def is_self_dual(code: LinearCode) -> bool:
    """Whether C equals its dual: n = 2k and the hull is all of C."""
    return 2 * code.k == code.n and hull_dim(code) == code.k


def self_dualize(
    code: LinearCode, seed: int = 0, budget: int = 10**5
) -> LinearCode:
    """Diagonal rescaling to a self-dual code over characteristic 2.

    Solves G diag(v) G^T = 0 for v, hunts an all-nonzero solution (basis
    vectors first, then seeded random combinations), replaces each v_i by
    its square root (unique in characteristic 2) and scales the columns.
    """
    F = code.field
    if F.p != 2:
        raise CharNotTwo("self-dualization requires characteristic 2")
    if 2 * code.k != code.n:
        raise NotHalfRate(f"need n = 2k, got n={code.n}, k={code.k}")
    basis = diagonal_bilinear_solve(code.gen)
    v = _full_weight_vector(F, basis, seed, budget)
    if v is None:
        raise NoFullWeightSolution(
            f"no all-nonzero solution among {basis.rows} basis vectors "
            f"within {budget} combinations"
        )
    sqrt_v = [F.frobenius_sqrt(c) for c in v]
    scaled = code.gen.scale_columns(sqrt_v)
    out = LinearCode(F, scaled, {"construction": "self-dualize", "scaling": v})
    if not out.gen.mul(out.gen.transpose()).is_zero():  # pragma: no cover
        raise AssertionError("scaled generator is not self-orthogonal")
    return out


def _full_weight_vector(F: FieldSpec, basis: FFMatrix, seed: int, budget: int):
    if basis.rows == 0:
        return None
    for row in basis.data:
        if all(row):
            return list(row)
    rng = Random(seed)
    add, mul = F.add, F.mul
    n = basis.cols
    for _ in range(budget):
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
    if k == 0:
        d: int | None = None
        mds: bool | None = False
    else:
        try:
            d = min_distance(code, budget)
        except BudgetExceeded:
            d = None
        if d is not None:
            mds = d == n - k + 1
        else:
            try:
                mds = is_mds_by_minors(code, budget)
            except BudgetExceeded:
                mds = None
    return _report_from_distance(code, d, mds, budget)


def _report_from_distance(
    code: LinearCode, d: int | None, is_mds: bool | None, budget: int = DEFAULT_BUDGET
) -> CodeReport:
    """The CodeReport of a code whose distance and MDS verdict are already
    known: a recipe whose certificate proved MDS passes d = n - k + 1."""
    n, k = code.n, code.k
    schur = schur_square(code)
    try:
        schur_d = min_distance(schur, budget) if schur.k else None
    except BudgetExceeded:
        schur_d = None
    hull = hull_dim(code)
    return CodeReport(
        n=n,
        k=k,
        d=d,
        is_mds=is_mds,
        schur_dim=schur.k,
        schur_d=schur_d,
        hull_dim=hull,
        self_dual=2 * k == n and hull == k,
        non_rs_certified=schur.k >= 2 * k,
    )
