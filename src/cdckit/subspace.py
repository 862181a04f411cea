"""Canonical subspace values and the subspace metric.

A subspace is stored as its unique reduced-row-echelon generator matrix,
so equality, hashing, and file ordering are all structural.
"""

from __future__ import annotations

from .gf import FieldSpec
from .linalg import (DimensionError, MatrixGF, PivotVector, pack_row, rank_rows, rref,
                     rref_rows)


class EmptySubspaceError(ValueError):
    pass


class Subspace:
    __slots__ = ("field", "n", "k", "gen", "_pivots", "_packed")

    def __init__(self, field: FieldSpec, n: int, gen_rows, pivots=None, packed=None):
        """Internal constructor; gen_rows must already be canonical RREF,
        and packed, when given, their GF(2) packed_rows."""
        self.field = field
        self.n = n
        self.gen = MatrixGF(field, gen_rows, ncols=n)
        self.k = self.gen.nrows
        self._pivots = pivots
        self._packed = packed

    @staticmethod
    def from_matrix(M: MatrixGF) -> "Subspace":
        return Subspace.from_rows(M.field, M.rows, M.ncols)

    @staticmethod
    def from_rows(field: FieldSpec, rows, n: int) -> "Subspace":
        rows = list(rows)
        if any(len(r) != n for r in rows):
            raise DimensionError(f"rows must have {n} entries")
        gen, _ = rref_rows(field, rows, n)
        if not gen:
            raise EmptySubspaceError("zero matrix spans no subspace")
        return Subspace(field, n, gen)

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.n == other.n
                and self.field == other.field and self.gen.rows == other.gen.rows)

    def __hash__(self):
        return hash((self.n, self.gen.rows))

    def __repr__(self):
        return f"Subspace(dim {self.k} of GF({self.field.q})^{self.n})"

    @property
    def pivots(self) -> PivotVector:
        if self._pivots is None:
            self._pivots = rref(self.gen).pivots
        return self._pivots

    def packed_rows(self):
        """The GF(2) rows as a tuple of bit-packed ints, computed once."""
        if self._packed is None:
            self._packed = tuple(pack_row(r) for r in self.gen.rows)
        return self._packed

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        q = self.field.q
        if q <= 10:
            return "|".join("".join(str(v) for v in row) for row in self.gen.rows)
        return "|".join(",".join(str(v) for v in row) for row in self.gen.rows)

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
        for row in self.gen.rows:
            new = []
            for c in range(1, f.q):
                scaled = tuple(f.mul(c, v) for v in row)
                for vec in span:
                    new.append(tuple(f.add(a, b) for a, b in zip(vec, scaled)))
            span.extend(new)
        return span


def distance(U: Subspace, W: Subspace) -> int:
    """Subspace distance 2*rank(stack) - dim U - dim W."""
    U._check_ambient(W)
    r = rank_rows(U.field, U.gen.rows + W.gen.rows, U.n)
    return 2 * r - U.k - W.k


def pivot_distance_bound(U: Subspace, W: Subspace) -> int:
    """Hamming distance of pivot vectors; a lower bound on distance()."""
    U._check_ambient(W)
    return U.pivots.hamming(W.pivots)


def intersection_dim(U: Subspace, W: Subspace) -> int:
    U._check_ambient(W)
    r = rank_rows(U.field, U.gen.rows + W.gen.rows, U.n)
    return U.k + W.k - r


def span(U: Subspace, W: Subspace) -> Subspace:
    U._check_ambient(W)
    return Subspace.from_rows(U.field, U.gen.rows + W.gen.rows, U.n)


def orthogonal_complement(U: Subspace) -> Subspace:
    """Complement under the standard bilinear form sum(u_i v_i)."""
    f = U.field
    n = U.n
    res = rref(U.gen)
    pivots = [j for j in range(n) if res.pivots.bits[j]]
    basis = []
    for j in range(n):
        if res.pivots.bits[j]:
            continue
        # free column j: x_j = 1, each pivot variable solves its row's equation
        vec = [0] * n
        vec[j] = 1
        for r, p in zip(res.matrix.rows, pivots):
            vec[p] = f.neg(r[j])
        basis.append(tuple(vec))
    if not basis:
        return Subspace(f, n, [])
    return Subspace.from_rows(f, basis, n)
