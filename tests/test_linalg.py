"""Exact linear algebra: reduced forms, kernels, the diagonal solve."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from agmds import field_make
from agmds.linalg import (
    FFMatrix,
    diagonal_bilinear_solve,
    kernel_basis,
    rank,
    rref_rank,
)

F2 = field_make(2)
F5 = field_make(5)
F7 = field_make(7)
F19 = field_make(19)
F16 = field_make(2, 4)

FIELDS = [F2, F5, F7, F19, F16]


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
def _shaped_matrices(draw):
    """Matrices up to 6 x 10 with zero rows, repeated rows and rows that
    combine earlier ones, so rank-deficient shapes are common."""
    F = draw(st.sampled_from([field_make(31), F16, field_make(3, 2)]))
    cols = draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination")))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(entry), draw(entry)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return FFMatrix(F, rows, cols)


@given(_shaped_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_equals_full_row_gauss_jordan(M):
    R, r, pivots = rref_rank(M)
    assert (R.data, r, pivots) == _full_row_gauss_jordan(M)


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
    kb = diagonal_bilinear_solve(FFMatrix(F2, [[1, 1]]))
    assert kb.data == [[1, 1]]

    kb = diagonal_bilinear_solve(FFMatrix(F5, [[1, 2]]))
    assert kb.data == [[1, 1]]  # v1 + 4 v2 = 0


def test_diagonal_bilinear_solution_property():
    rng = random.Random(10)
    for _ in range(50):
        G = _random_matrix(F16, 2, 4, rng)
        basis = diagonal_bilinear_solve(G)
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
