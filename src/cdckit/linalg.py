"""Matrices over GF(q): RREF, rank, stacking, and Gaussian binomials.

Matrices are immutable; rows are tuples of element indices.  For q = 2 the
elimination routines work on bit-packed rows (column 0 in the most
significant bit) so that the distance kernel stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldSpec


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class PivotVector:
    bits: tuple
    weight: int

    @staticmethod
    def from_columns(cols, n: int) -> "PivotVector":
        bits = tuple(1 if j in set(cols) else 0 for j in range(n))
        return PivotVector(bits, len(cols))

    def hamming(self, other: "PivotVector") -> int:
        return sum(1 for a, b in zip(self.bits, other.bits) if a != b)


class MatrixGF:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows, ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionError("ragged rows")
        elif ncols is None:
            raise DimensionError("ncols required for an empty matrix")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @staticmethod
    def identity(field, n):
        return MatrixGF(field, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, MatrixGF) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"MatrixGF({self.nrows}x{self.ncols} over GF({self.field.q}))"


# ----------------------------------------------------------------------
# bit-packed GF(2) rows: column j lives in bit (ncols - 1 - j)
# ----------------------------------------------------------------------

def pack_row(row) -> int:
    x = 0
    for v in row:
        x = (x << 1) | (v & 1)
    return x


@lru_cache(maxsize=1 << 12)
def unpack_row(x: int, n: int):
    # rows repeat across the words of a code: the words listed from one
    # stream share their row tuples, which makes the list cheaper to build
    # and to free
    return tuple((x >> (n - 1 - j)) & 1 for j in range(n))


def rref_bits(rows, n):
    """RREF of bit-packed GF(2) rows; returns (rows, pivot_columns)."""
    rows = [r for r in rows if r]
    out = []
    pivots = []
    col = 0
    while rows and col < n:
        bit = 1 << (n - 1 - col)
        piv = None
        for i, r in enumerate(rows):
            if r & bit:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rv = rows.pop(piv)
        rows = [r ^ rv if r & bit else r for r in rows]
        out = [r ^ rv if r & bit else r for r in out]
        out.append(rv)
        pivots.append(col)
        col += 1
        rows = [r for r in rows if r]
    return out, pivots


def rank_bits(rows, n) -> int:
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        rv = rows[0]
        bit = 1 << (rv.bit_length() - 1)
        rows = [r ^ rv if r & bit else r for r in rows[1:]]
        rows = [r for r in rows if r]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _leading_bit_table(ncols):
    lead = np.zeros(1 << ncols, dtype=np.uint64)
    for b in range(ncols):
        lead[1 << b:2 << b] = 1 << b
    return lead


def rank_bits_batch(rows, ncols):
    """Ranks of B bit-packed GF(2) matrices given as a (B, a) uint64 array.

    Agrees with rank_bits matrix by matrix.  Row j, once reduced by the rows
    above it, clears its leading bit from the rows below; the matrix rank
    counts the rows that are nonzero at their turn.  The leading-bit table
    has 2**ncols entries, no more than the words of any code that has
    ncols-bit rows and is scanned this way."""
    work = np.array(rows, dtype=np.uint64).T  # (a, B) copy, one row at a time
    lead_of = _leading_bit_table(ncols)
    ranks = np.zeros(work.shape[1], dtype=np.int64)
    for j in range(work.shape[0]):
        row = work[j]
        ranks += row != 0
        below = work[j + 1:]
        below ^= np.where((below & lead_of[row]) != 0, row, 0)
    return ranks


def rref_bits_batch(rows, ncols):
    """RREF of B bit-packed GF(2) matrices given as a (B, a) uint64 array,
    ncols <= 64; returns (rows, ranks), zero rows last.

    Agrees with rref_bits matrix by matrix.  One pass per row clears that
    row's leading bit from every other row, which leaves the nonzero rows
    with distinct leading bits; sorting each matrix's rows in decreasing
    order then puts them in pivot order."""
    work = np.array(rows, dtype=np.uint64).T.copy()  # (a, B): row j is contiguous
    for j in range(work.shape[0]):
        row = work[j].copy()
        lead = row.copy()  # smear the leading bit down, then keep the top one
        shift = 1
        while shift < ncols:
            lead |= lead >> np.uint64(shift)
            shift *= 2
        lead ^= lead >> np.uint64(1)
        work ^= np.where((work & lead) != 0, row, np.uint64(0))
        work[j] = row
    out = np.sort(work.T, axis=1)[:, ::-1]
    return out, np.count_nonzero(out, axis=1)


# ----------------------------------------------------------------------
# generic elimination
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RrefResult:
    matrix: MatrixGF  # zero rows removed
    pivots: PivotVector
    rank: int


def rref_rows(field: FieldSpec, rows, n):
    """RREF of raw rows, zero rows dropped; returns (rows, pivot_columns).
    q = 2 eliminates on bit-packed rows through rref_bits."""
    if field.q == 2:
        packed, pivots = rref_bits([pack_row(r) for r in rows], n)
        return [unpack_row(r, n) for r in packed], pivots
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = field.inv(rows[r][col])
        if scale != 1:
            rows[r] = [field.mul(scale, v) for v in rows[r]]
        rv = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [field.sub(v, field.mul(c, w)) for v, w in zip(rows[i], rv)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def rref(M: MatrixGF) -> RrefResult:
    n = M.ncols
    rows, pivots = rref_rows(M.field, M.rows, n)
    return RrefResult(MatrixGF(M.field, rows, ncols=n),
                      PivotVector.from_columns(pivots, n), len(rows))


def rank(M: MatrixGF) -> int:
    return rank_rows(M.field, M.rows, M.ncols)


def rank_rows(field: FieldSpec, rows, ncols: int) -> int:
    """Rank of raw rows without building a MatrixGF."""
    if field.q == 2:
        return rank_bits([pack_row(r) for r in rows], ncols)
    return len(rref_rows(field, rows, ncols)[0])


def hstack(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    if A.nrows != B.nrows:
        raise DimensionError(f"hstack: {A.nrows} rows vs {B.nrows}")
    return MatrixGF(A.field, [ra + rb for ra, rb in zip(A.rows, B.rows)],
                    ncols=A.ncols + B.ncols)


def vstack(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    if A.ncols != B.ncols:
        raise DimensionError(f"vstack: {A.ncols} cols vs {B.ncols}")
    return MatrixGF(A.field, A.rows + B.rows, ncols=A.ncols)


def matmul(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    if A.ncols != B.nrows:
        raise DimensionError(f"matmul: {A.ncols} vs {B.nrows}")
    f = A.field
    bt = list(zip(*B.rows)) if B.rows else [()] * B.ncols
    out = []
    for row in A.rows:
        new = []
        for col in bt:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            new.append(acc)
        out.append(tuple(new))
    return MatrixGF(f, out, ncols=B.ncols)


def inverse(M: MatrixGF) -> MatrixGF:
    if M.nrows != M.ncols:
        raise DimensionError("inverse of a non-square matrix")
    n = M.nrows
    aug = [row + tuple(1 if i == j else 0 for j in range(n))
           for i, row in enumerate(M.rows)]
    res = rref(MatrixGF(M.field, aug, ncols=2 * n))
    if res.pivots.bits[:n] != (1,) * n:
        raise DimensionError("matrix is singular")
    return MatrixGF(M.field, [r[n:] for r in res.matrix.rows], ncols=n)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of GF(q)^n, exact."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den
