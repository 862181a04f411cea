"""Canonical subspace values and the subspace metric.

A subspace is stored as the row tuple of its unique reduced-row-echelon
generator matrix, Subspace.rows, so equality, hashing, and file ordering
are all structural; Subspace.gen is the same rows as a linalg.MatrixGF.
"""

from __future__ import annotations

from .gf import FieldSpec
from .linalg import DimensionError, MatrixGF, PivotVector, pack_rows, rank_rows, rref_rows


class EmptySubspaceError(ValueError):
    pass


class Subspace:
    __slots__ = ("field", "n", "k", "rows", "_packed")

    def __init__(self, field: FieldSpec, n: int, rows, packed=None):
        """Internal constructor; rows must already be canonical RREF row
        tuples, and packed, when given, their packed_rows."""
        self.field = field
        self.n = n
        self.rows = tuple(rows)
        self.k = len(self.rows)
        self._packed = packed

    @staticmethod
    def from_rows(field: FieldSpec, rows, n: int) -> "Subspace":
        rows = list(rows)
        if any(len(r) != n for r in rows):
            raise DimensionError(f"rows must have {n} entries")
        canon, _ = rref_rows(field, rows, n)
        if not canon:
            raise EmptySubspaceError("zero matrix spans no subspace")
        return Subspace(field, n, canon)

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.n == other.n
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.k} of GF({self.field.q})^{self.n})"

    @property
    def gen(self) -> MatrixGF:
        """The rows as a matrix, for linalg's rref, matmul and inverse."""
        return MatrixGF(self.field, self.rows, ncols=self.n)

    @property
    def pivots(self) -> PivotVector:
        return PivotVector.from_columns(list(map(_pivot_col, self.rows)), self.n)

    def packed_rows(self):
        """The rows as a tuple of linalg packed ints, computed once."""
        if self._packed is None:
            self._packed = pack_rows(self.field, self.rows)
        return self._packed

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        q = self.field.q
        if q <= 10:
            return "|".join("".join(str(v) for v in row) for row in self.rows)
        return "|".join(",".join(str(v) for v in row) for row in self.rows)

    def sort_key(self):
        """Orders words like serialize(); for q <= 10 (digit entries) the rows do."""
        return self.rows if self.field.q <= 10 else self.serialize()

    @staticmethod
    def parse(field: FieldSpec, n: int, text: str) -> "Subspace":
        rows = []
        for part in text.strip().split("|"):
            if field.q <= 10:
                row = tuple(int(c) for c in part)
            else:
                row = tuple(int(c) for c in part.split(","))
            if len(row) != n or any(v < 0 or v >= field.q for v in row):
                raise ValueError(f"bad codeword row {part!r} for n={n}, q={field.q}")
            rows.append(row)
        return Subspace.from_rows(field, rows, n)

    # -- geometry ------------------------------------------------------

    def _check_ambient(self, other: "Subspace"):
        if self.n != other.n or self.field != other.field:
            raise DimensionError("subspaces live in different ambient spaces")

    def vectors(self):
        """All vectors of the subspace as coordinate tuples (q^k of them)."""
        f = self.field
        span = [(0,) * self.n]
        for row in self.rows:
            new = []
            for c in range(1, f.q):
                scaled = tuple(f.mul(c, v) for v in row)
                for vec in span:
                    new.append(tuple(f.add(a, b) for a, b in zip(vec, scaled)))
            span.extend(new)
        return span


def _pivot_col(row):
    """The first nonzero column of a row: an RREF row's pivot."""
    return next(j for j, v in enumerate(row) if v)


def distance(U: Subspace, W: Subspace) -> int:
    """Subspace distance 2*rank(stack) - dim U - dim W."""
    U._check_ambient(W)
    r = rank_rows(U.field, U.rows + W.rows, U.n)
    return 2 * r - U.k - W.k


def intersection_dim(U: Subspace, W: Subspace) -> int:
    U._check_ambient(W)
    r = rank_rows(U.field, U.rows + W.rows, U.n)
    return U.k + W.k - r


def span(U: Subspace, W: Subspace) -> Subspace:
    U._check_ambient(W)
    return Subspace.from_rows(U.field, U.rows + W.rows, U.n)


def orthogonal_complement(U: Subspace) -> Subspace:
    """Complement under the standard bilinear form sum(u_i v_i)."""
    f, n = U.field, U.n
    pivots = list(map(_pivot_col, U.rows))  # U's rows are in RREF
    basis = []
    for j in sorted(set(range(n)) - set(pivots)):
        # free column j: x_j = 1, each pivot variable solves its row's equation
        vec = [0] * n
        vec[j] = 1
        for r, p in zip(U.rows, pivots):
            vec[p] = f.neg(r[j])
        basis.append(tuple(vec))
    return Subspace.from_rows(f, basis, n) if basis else Subspace(f, n, [])
