"""Exact linear algebra: reduced forms, kernels, and the invariants read
off them (rank, hull dimension, the diagonal solve), each against the
independent elimination it replaced."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import agmds.code
from agmds import field_make
from agmds.code import LinearCode, dual_code, hull_dim, schur_square, self_dualize
from agmds.errors import NoFullWeightSolution
from agmds.linalg import (
    FFMatrix,
    has_full_column_rank_square,
    kernel_basis,
    rank,
    rref_rank,
    systematic_part,
)

F2 = field_make(2)
F5 = field_make(5)
F7 = field_make(7)
F19 = field_make(19)
F16 = field_make(2, 4)
F27 = field_make(3, 3)
F256 = field_make(2, 8)

# F_2 has q - 1 = 1, an odd extension's sub goes through its Zech table, and
# F_256, the field of the characteristic-2 workloads, has logs up to 254
FIELDS = [F2, F5, F7, F19, F16, F27, F256]


def _random_matrix(F, rows, cols, rng):
    return FFMatrix(F, [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)])


def test_rref_examples():
    eye = FFMatrix.identity(F19, 3)
    R, r, piv = rref_rank(eye)
    assert r == 3 and piv == [0, 1, 2] and R == eye

    zero = FFMatrix.zero(F19, 2, 4)
    assert rref_rank(zero)[1] == 0

    M = FFMatrix(F19, [[1, 2], [2, 4]])
    R, r, piv = rref_rank(M)
    assert r == 1 and piv == [0]
    assert R.data == [[1, 2], [0, 0]]


def _full_row_gauss_jordan(M):
    """The RREF oracle: Gauss-Jordan that rewrites every entry of each
    updated row, the zeros left of the pivot and the columns the pivot row
    leaves unchanged included."""
    F = M.field
    R = [row[:] for row in M.data]
    pivots = []
    r = 0
    for c in range(M.cols):
        pr = next((i for i in range(r, M.rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        ipv = F.inv(R[r][c])
        R[r] = [F.mul(ipv, v) for v in R[r]]
        for i in range(M.rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    return R, r, pivots


@st.composite
def _shaped_matrices(draw, fields=(field_make(31), F16, F256, field_make(3, 2)), square=False):
    """Matrices up to 6 x 10 (up to 6 x 6 if square), 0 rows and 0 columns
    included, with zero rows, repeated rows and rows that combine earlier
    ones, so rank-deficient shapes are common.  Half the rows are fresh,
    with entries from a seeded Random: lists drawn entry by entry repeat
    their values, so fresh rows would often be proportional and full ranks
    rare."""
    F = draw(st.sampled_from(fields))
    cols = draw(st.integers(0, 6 if square else 10))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(cols if square else draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "fresh", "repeat", "fresh", "combination")))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(entry), draw(entry)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(u, v)])
        else:
            rows.append([rng.randrange(F.q) for _ in range(cols)])
    return FFMatrix(F, rows, cols)


@given(_shaped_matrices())
@settings(max_examples=400, deadline=None)
def test_rref_equals_full_row_gauss_jordan(M):
    R, r, pivots = rref_rank(M)
    assert (R.data, r, pivots) == _full_row_gauss_jordan(M)


@given(_shaped_matrices())
@settings(max_examples=400, deadline=None)
def test_systematic_part_is_read_off_the_rref(M):
    # A of [I | A] when the first k columns hold the pivots, else None
    k = M.rows
    assume(k <= M.cols)
    R, _, pivots = rref_rank(M)
    expected = [row[k:] for row in R.data] if pivots == list(range(k)) else None
    assert systematic_part(M) == expected


@given(_shaped_matrices(FIELDS, square=True))
@settings(max_examples=350, deadline=None)
def test_square_minor_test_equals_rank(M):
    # the rows of M are passed as the columns of a k x k minor
    F, cols = M.field, M.data
    assert has_full_column_rank_square(F, cols) == (rank(FFMatrix(F, cols, M.cols)) == M.rows)


def _forward_rank(M):
    """The rank oracle: forward elimination only, no back substitution."""
    F = M.field
    R = [row[:] for row in M.data]
    r = 0
    for c in range(M.cols):
        pr = next((i for i in range(r, M.rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        ipv = F.inv(R[r][c])
        for i in range(r + 1, M.rows):
            if R[i][c]:
                f = F.mul(R[i][c], ipv)
                R[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(R[i], R[r])]
        r += 1
        if r == M.rows:
            break
    return r


def _diagonal_bilinear_solve(G):
    """The diagonal-solve oracle: a basis of {v : G diag(v) G^T = 0} as the
    kernel of the k(k+1)/2 equations sum_i v_i G[a][i] G[b][i] = 0."""
    F = G.field
    eqs = [
        [F.mul(x, y) for x, y in zip(G.data[a], G.data[b])]
        for a in range(G.rows)
        for b in range(a, G.rows)
    ]
    if not eqs:
        return FFMatrix.identity(F, G.cols)
    return kernel_basis(FFMatrix(F, eqs, G.cols))


def _diagonal_solve(G):
    """Basis of {v : G diag(v) G^T = 0}: the dual of the Schur square."""
    return dual_code(schur_square(LinearCode(G.field, G))).gen


def _full_rank(M):
    """A full-rank generator: M itself, or the nonzero rows of its RREF."""
    R, r, _ = rref_rank(M)
    return M if r == M.rows else FFMatrix(M.field, R.data[:r], M.cols)


@given(_shaped_matrices())
@settings(max_examples=400, deadline=None)
def test_rank_equals_forward_elimination(M):
    assert rank(M) == _forward_rank(M)


@given(_shaped_matrices())
@settings(max_examples=270, deadline=None)
def test_hull_dim_equals_stacked_rank(M):
    G = _full_rank(M)
    code = LinearCode(G.field, G)
    assert hull_dim(code) == G.cols - _forward_rank(G.stack(kernel_basis(G)))


@given(_shaped_matrices())
@settings(max_examples=270, deadline=None)
def test_schur_square_dual_equals_diagonal_solve(M):
    G = _full_rank(M)
    assert _diagonal_solve(G) == _diagonal_bilinear_solve(G)


@given(st.sampled_from([F2, F16, field_make(2, 3)]), st.integers(0, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_self_dualize_basis_equals_diagonal_solve(F, k, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, F.q - 1), min_size=2 * k, max_size=2 * k),
            min_size=k,
            max_size=k,
        )
    )
    G = FFMatrix(F, rows, 2 * k)
    assume(rank(G) == k)
    seen = []

    def recording_kernel_basis(M):
        # record the solution basis and hand self_dualize an empty one
        seen.append(kernel_basis(M))
        return FFMatrix(F, [], M.cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agmds.code, "kernel_basis", recording_kernel_basis)
        with pytest.raises(NoFullWeightSolution):
            self_dualize(LinearCode(F, G))
    assert seen == [_diagonal_bilinear_solve(G)]


def test_kernel_examples():
    assert kernel_basis(FFMatrix.identity(F5, 2)).rows == 0

    kb = kernel_basis(FFMatrix(F2, [[1, 1]]))
    assert kb.data == [[1, 1]]

    M = FFMatrix(F7, [[1, 2, 3]])
    kb = kernel_basis(M)
    assert kb.rows == 2
    assert M.mul(kb.transpose()).is_zero()


def test_rref_is_idempotent_random():
    rng = random.Random(7)
    for _ in range(300):
        F = rng.choice(FIELDS)
        M = _random_matrix(F, rng.randint(1, 6), rng.randint(1, 6), rng)
        R, r, piv = rref_rank(M)
        R2, r2, piv2 = rref_rank(R)
        assert (R2, r2, piv2) == (R, r, piv)


def test_rank_equals_transpose_rank_random():
    rng = random.Random(8)
    for _ in range(1000):
        F = rng.choice(FIELDS)
        M = _random_matrix(F, rng.randint(1, 12), rng.randint(1, 12), rng)
        assert rank(M) == rank(M.transpose())
        assert rank(M) == rref_rank(M)[1]


def test_kernel_dimension_and_annihilation_random():
    rng = random.Random(9)
    for _ in range(300):
        F = rng.choice(FIELDS)
        M = _random_matrix(F, rng.randint(1, 5), rng.randint(1, 7), rng)
        kb = kernel_basis(M)
        assert kb.rows + rank(M) == M.cols
        if kb.rows:
            assert M.mul(kb.transpose()).is_zero()
            assert rank(kb) == kb.rows


@given(st.integers(0, 4), st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    M = FFMatrix(F5, entries, cols)
    kb = kernel_basis(M)
    assert kb.rows + rank(M) == cols
    if rows and kb.rows:
        assert M.mul(kb.transpose()).is_zero()


def test_diagonal_bilinear_examples():
    kb = _diagonal_solve(FFMatrix(F2, [[1, 1]]))
    assert kb.data == [[1, 1]]

    kb = _diagonal_solve(FFMatrix(F5, [[1, 2]]))
    assert kb.data == [[1, 1]]  # v1 + 4 v2 = 0


def test_diagonal_bilinear_solution_property():
    rng = random.Random(10)
    for _ in range(50):
        G = _random_matrix(F16, 2, 4, rng)
        basis = _diagonal_solve(G)
        for v in basis.data:
            assert G.scale_columns(v).mul(G.transpose()).is_zero()
        # every basis combination solves too
        if basis.rows >= 2:
            comb = [F16.add(a, b) for a, b in zip(basis.data[0], basis.data[1])]
            assert G.scale_columns(comb).mul(G.transpose()).is_zero()


def test_matrix_helpers():
    M = FFMatrix(F5, [[1, 2], [3, 4]])
    assert M.transpose().data == [[1, 3], [2, 4]]
    assert M.stack(M).rows == 4
    assert M.scale_columns([2, 1]).data == [[2, 2], [1, 4]]
    prod = M.mul(FFMatrix.identity(F5, 2))
    assert prod == M
    with pytest.raises(ValueError):
        FFMatrix(F5, [[1], [2, 3]])
