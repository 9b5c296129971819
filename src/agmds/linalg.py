"""Dense exact linear algebra over a FieldSpec.

Matrices store element codes (plain ints) row-major in lists.  rref_rank is
the one general elimination: rank and kernel_basis are read off it.  Its
pivoting is deterministic (first nonzero entry in column order), so reduced
forms and kernels are reproducible across runs.  The only other elimination
is has_full_column_rank_square, the early-exit test of one square minor.
"""

from __future__ import annotations

from .field import FieldSpec


class FFMatrix:
    """A rows x cols matrix of field element codes."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data, cols: int | None = None):
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        self.field = field
        self.rows = len(data)
        self.cols = width if data else (cols or 0)
        self.data = data

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "FFMatrix":
        return cls(field, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FFMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "FFMatrix":
        return FFMatrix(
            self.field,
            [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)],
            self.rows,
        )

    def stack(self, other: "FFMatrix") -> "FFMatrix":
        if other.cols != self.cols:
            raise ValueError("column count mismatch")
        return FFMatrix(self.field, self.data + other.data, self.cols)

    def mul(self, other: "FFMatrix") -> "FFMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        add, mul = F.add, F.mul
        ot = other.transpose().data
        out = []
        for row in self.data:
            out_row = []
            for col in ot:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return FFMatrix(F, out, other.cols)

    def scale_columns(self, diag) -> "FFMatrix":
        """Right-multiply by diag(v)."""
        F = self.field
        mul = F.mul
        diag = list(diag)
        if len(diag) != self.cols:
            raise ValueError("diagonal length mismatch")
        return FFMatrix(
            F, [[mul(v, d) for v, d in zip(row, diag)] for row in self.data], self.cols
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"FFMatrix({self.rows}x{self.cols} over {self.field.spec_text()})"


def rref_rank(M: FFMatrix) -> tuple[FFMatrix, int, list[int]]:
    """Gauss-Jordan reduced row echelon form.

    Returns (RREF matrix, rank, pivot column list).  Pivot choice is the
    first nonzero entry scanning rows top-down within each column.  The
    pivot row is zero left of its pivot, so each elimination touches only
    the pivot column and the pivot row's nonzero columns right of it.
    """
    F = M.field
    mul, sub, inv = F.mul, F.sub, F.inv
    R = [row[:] for row in M.data]
    nrows, ncols = M.rows, M.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            R[r], R[pr] = R[pr], R[r]
        Rr = R[r]
        pv = Rr[c]
        if pv != 1:
            ipv = inv(pv)
            Rr[c] = 1
            for j in range(c + 1, ncols):
                if Rr[j]:
                    Rr[j] = mul(ipv, Rr[j])
        live = [(j, Rr[j]) for j in range(c + 1, ncols) if Rr[j]]
        for i in range(nrows):
            Ri = R[i]
            f = Ri[c]
            if f and i != r:
                Ri[c] = 0
                for j, v in live:
                    Ri[j] = sub(Ri[j], mul(f, v))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return FFMatrix(F, R, ncols), r, pivots


def rank(M: FFMatrix) -> int:
    """Rank of M: the pivot count of rref_rank."""
    return rref_rank(M)[1]


def has_full_column_rank_square(field: FieldSpec, cols_data: list[list[int]]) -> bool:
    """Whether a k x k matrix given as columns is invertible.

    A forward elimination that returns at the first column without a
    pivot, kept beside rref_rank because it is the inner kernel of the
    systematic-form certificate: on 3 x 3 to 5 x 5 minors over F_31,
    rref_rank(...)[1] == k takes 1.6-2x as long per minor.
    """
    k = len(cols_data)
    R = [list(col) for col in cols_data]  # work on the transpose; rank is equal
    mul, sub, inv = field.mul, field.sub, field.inv
    for c in range(k):
        pr = None
        for i in range(c, k):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            return False
        if pr != c:
            R[c], R[pr] = R[pr], R[c]
        ipv = inv(R[c][c])
        Rc = R[c]
        for i in range(c + 1, k):
            if R[i][c]:
                f = mul(R[i][c], ipv)
                Ri = R[i]
                for j in range(c, k):
                    Ri[j] = sub(Ri[j], mul(f, Rc[j]))
    return True


def kernel_basis(M: FFMatrix) -> FFMatrix:
    """Basis rows of the right null space {v : M v^T = 0}.

    Returns a (cols - rank) x cols matrix; with no free columns the result
    has zero rows.  Basis vectors are in free-column order with a 1 in
    their own free position, so the output is deterministic.
    """
    F = M.field
    R, r, pivots = rref_rank(M)
    free = [c for c in range(M.cols) if c not in pivots]
    neg = F.neg
    basis = []
    for fc in free:
        v = [0] * M.cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            coeff = R.data[i][fc]
            if coeff:
                v[pc] = neg(coeff)
        basis.append(v)
    return FFMatrix(F, basis, M.cols)
