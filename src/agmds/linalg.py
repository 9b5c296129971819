"""Dense exact linear algebra over a FieldSpec.

Matrices store element codes (plain ints) row-major in lists.  rref_rank is
the one general elimination: rank and kernel_basis are read off it.  Its
pivoting is deterministic (first nonzero entry in column order), so reduced
forms and kernels are reproducible across runs.  systematic_part takes the
same steps and stops at the first of its first k columns without a pivot.
The only other elimination is has_full_column_rank_square, the slow MDS
oracle's early-exit test of one square minor.  Each keeps the pivot row's
entries as discrete logs and updates a row entry by one lookup in the
field's exp table and one subtraction: inline mod p where rref_rank works
over a prime field, else the XOR builtin in characteristic 2
(FieldSpec.additive) and F.sub in odd characteristic.
"""

from __future__ import annotations

from .field import FieldSpec


class FFMatrix:
    """A rows x cols matrix of field element codes."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data, cols: int | None = None):
        data = [list(row) for row in data]
        width = len(data[0]) if data else cols or 0
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = len(data)
        self.cols = width
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
        add, mul = F.additive()[0], F.mul
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
    first nonzero entry scanning rows top-down within each column.
    """
    R, pivots = _gauss_jordan(M, systematic=False)
    return FFMatrix(M.field, R, M.cols), len(pivots), pivots


def systematic_part(M: FFMatrix) -> list[list[int]] | None:
    """The rows of A in the reduced form [I | A] of a k x n matrix M with
    k <= n, or None, as soon as one of M's first k columns has no pivot,
    when those columns are dependent.  [I | A] is then rref_rank(M)[0]."""
    reduced = _gauss_jordan(M, systematic=True)
    return reduced and [row[M.rows:] for row in reduced[0]]


def _gauss_jordan(M: FFMatrix, systematic: bool):
    """The rows of the RREF of M and its pivot columns; systematic returns
    None at the first column without a pivot instead of skipping it.  The
    pivot row is zero left of its pivot, so an elimination reads only its
    nonzero entries right of it, as discrete logs: a row update is one
    exp-table lookup and one subtraction, inline over a prime field, where
    a call to sub costs more than the arithmetic, and otherwise the sub of
    F.additive(), which is the XOR builtin in characteristic 2."""
    F = M.field
    exp, log = F._exp, F._log
    p = F.p if F.s == 1 else 0
    sub = None if p else F.additive()[1]
    R = [row[:] for row in M.data]
    nrows, ncols = M.rows, M.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if R[pr][c]:
                break
        else:
            if systematic:
                return None
            continue
        if pr != r:
            R[r], R[pr] = R[pr], R[r]
        Rr = R[r]
        lp = log[Rr[c]]
        Rr[c] = 1
        # lv = log(v / pivot) lies in (-(q-1), q-1), so an update's index
        # lf + lv lies in (-(q-1), 2(q-1)): exp has two periods, and a
        # negative index counts from its end, so exp serves it as it stands
        live = []
        for j in range(c + 1, ncols):
            v = Rr[j]
            if v:
                lv = log[v] - lp
                Rr[j] = exp[lv]
                live.append((j, lv))
        for i in range(nrows):
            Ri = R[i]
            f = Ri[c]
            if f and i != r:
                Ri[c] = 0
                lf = log[f]
                if p:
                    for j, lv in live:
                        Ri[j] = (Ri[j] - exp[lf + lv]) % p
                else:
                    for j, lv in live:
                        Ri[j] = sub(Ri[j], exp[lf + lv])
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M: FFMatrix) -> int:
    """Rank of M: the pivot count of rref_rank."""
    return rref_rank(M)[1]


def has_full_column_rank_square(field: FieldSpec, cols_data: list[list[int]]) -> bool:
    """Whether a k x k matrix given as columns is invertible.

    A forward elimination that returns at the first column without a
    pivot: the inner kernel of is_mds_by_minors, the slow oracle of the
    MDS certificates, which tests one k x k minor per k-subset of
    columns.  Like rref_rank it updates rows on discrete logs; each row's
    multiplier is one mul by the pivot's inverse.
    """
    k = len(cols_data)
    R = [list(col) for col in cols_data]  # work on the transpose; rank is equal
    mul, inv, exp, log = field.mul, field.inv, field._exp, field._log
    sub = field.additive()[1]
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
        Rc = R[c]
        ipv = inv(Rc[c])
        live = [(j, log[Rc[j]]) for j in range(c + 1, k) if Rc[j]]
        for i in range(c + 1, k):
            Ri = R[i]
            if Ri[c]:
                # log(f) + log(v) lies in [0, 2(q-1)), inside exp's two
                # periods.  Column c is not read again, so Ri[c] is left as
                # it is.
                lf = log[mul(Ri[c], ipv)]
                for j, lv in live:
                    Ri[j] = sub(Ri[j], exp[lf + lv])
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
