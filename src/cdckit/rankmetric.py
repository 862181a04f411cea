"""MRD rank-metric codes in the Gabidulin realization.

Codes are exposed as immutable handles with deterministic, restartable
enumeration: index i maps to the tuple of linearized-polynomial
coefficients (c_0, ..., c_{t-1}) over GF(q^max(m,n)), c_0 in the most
significant digit.  Nested subcodes truncate the coefficient range, coset
partitions translate a nested subcode by the complementary coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import xor

import numpy as np

from .gf import ExtFieldSpec, FieldSpec, ext_field, field_new
from .linalg import MatrixGF, gaussian_binomial, rank_bits_batch, rank_rows

TABLE_BITS = 12  # index bits per XOR table; the lowest table is one block


class RankCodeError(ValueError):
    pass


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            x = q
            while x % p == 0:
                x //= p
                e += 1
            if x != 1:
                raise RankCodeError(f"q={q} is not a prime power")
            return p, e
    raise RankCodeError(f"q={q} is not a prime power")


def base_field(q: int) -> FieldSpec:
    p, e = _factor_prime_power(q)
    return field_new(p, e)


def mrd_size(q: int, m: int, n: int, d_r: int) -> int:
    """Maximum size of an (m x n, d_r)_q rank-metric code."""
    if not 1 <= d_r <= min(m, n):
        raise RankCodeError(f"need 1 <= d_r <= min(m,n), got d_r={d_r}")
    return q ** (max(m, n) * (min(m, n) - d_r + 1))


def rank_distribution(q: int, m: int, n: int, d_r: int, r: int) -> int:
    """Number of rank-r codewords in an additive (m x n, d_r)_q MRD code."""
    lo, hi = min(m, n), max(m, n)
    if r == 0:
        return 1
    if 0 < r < d_r:
        return 0
    if not d_r <= r <= lo:
        raise RankCodeError(f"rank r={r} out of range [{d_r}, {lo}]")
    total = 0
    for s in range(r - d_r + 1):
        term = (q ** (s * (s - 1) // 2)) * gaussian_binomial(r, s, q) \
            * (q ** (hi * (r - d_r - s + 1)) - 1)
        total += -term if s % 2 else term
    return gaussian_binomial(lo, r, q) * total


@dataclass(frozen=True)
class LinearizedPoly:
    """Coefficients attached to x^(q^0), ..., x^(q^(t-1)) over GF(q^M)."""
    ext: ExtFieldSpec
    coefficients: tuple

    def evaluate(self, x: int) -> int:
        ext = self.ext
        q = ext.base.q
        acc = 0
        xp = x
        for c in self.coefficients:
            if c:
                acc = ext.add(acc, ext.mul(c, xp))
            xp = ext.pow(xp, q)
        return acc


def _transpose_packed(rows, ncols):
    out = []
    nr = len(rows)
    for j in range(ncols):
        bit = 1 << (ncols - 1 - j)
        x = 0
        for r in rows:
            x = (x << 1) | (1 if r & bit else 0)
        out.append(x)
    return out


def _transpose_block(block, ncols):
    """(B, a) packed a x ncols matrices -> (B, ncols) packed transposes."""
    a = block.shape[1]
    bits = (block[:, :, None] >> np.arange(ncols - 1, -1, -1, dtype=np.uint64)) & 1
    return (bits.transpose(0, 2, 1) << np.arange(a - 1, -1, -1, dtype=np.uint64)) \
        .sum(axis=2, dtype=np.uint64)


class RankCodeHandle:
    """Deterministic enumerable rank-metric code of m x n matrices."""

    def __init__(self, q, m, n, d_r, kind, size):
        self.q = q
        self.m = m
        self.n = n
        self.d_r = d_r
        self.kind = kind
        self.size = size

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"RankCodeHandle({self.kind}, {self.m}x{self.n}, d_r={self.d_r}, q={self.q}, size={self.size})"

    # subclass API
    def packed_at(self, i):  # pragma: no cover - abstract
        raise NotImplementedError

    def rows_at(self, i):  # pragma: no cover - abstract
        raise NotImplementedError

    def at(self, i) -> MatrixGF:
        return MatrixGF(base_field(self.q), self.rows_at(i), ncols=self.n)

    def iter_blocks(self):  # pragma: no cover - abstract
        """(B, min(m,n)) uint64 arrays of internal rows, in index order."""
        raise NotImplementedError

    def iter_packed(self):
        # internal rows are the transpose of packed_at's rows when m > n
        for block in self.iter_blocks():
            if self.m > self.n:
                block = _transpose_block(block, self.m)
            yield from block.tolist()

    def iter_rows(self):
        for i in range(self.size):
            yield self.rows_at(i)

    def __iter__(self):
        for i in range(self.size):
            yield self.at(i)

    def rank_of(self, i) -> int:
        field = base_field(self.q)
        if field.q == 2:
            from .linalg import rank_bits
            return rank_bits(self.packed_at(i), self.n)
        return rank_rows(field, self.rows_at(i), self.n)


class GabidulinHandle(RankCodeHandle):
    """(m x n, d_r)_q MRD code from linearized-polynomial evaluation."""

    def __init__(self, q, m, n, d_r, t_override=None, parent=None):
        a, b = min(m, n), max(m, n)
        t = a - d_r + 1 if t_override is None else t_override
        size = (q ** b) ** t
        super().__init__(q, m, n, d_r, "mrd", size)
        self.field = base_field(q)
        self.ext = ext_field(self.field, b)
        self.a = a
        self.b = b
        self.t = t
        self.transposed = m > n
        self.parent = parent
        self.Q = q ** b
        # g_j = alpha^j, j = 0..a-1, and their q-power Frobenius iterates
        self.gpow = []
        for j in range(a):
            g = self.ext.basis[j]
            powers = []
            x = g
            for _ in range(t):
                powers.append(x)
                x = self.ext.pow(x, q)
            self.gpow.append(powers)
        self._bit_basis = None
        if q == 2:
            self._bit_basis = self._build_bit_basis()
        self._tables = None  # XOR tables, built on first packed use
        self._table_words = None

    def _build_bit_basis(self):
        # GF(2)-basis matrices: one per bit of the enumeration index
        basis = []
        for u in range(self.t * self.b):
            coeffs = [0] * self.t
            s = self.t - 1 - (u // self.b)  # digit position, c_0 most significant
            coeffs[s] = 1 << (u % self.b)
            basis.append(self._internal_packed(tuple(coeffs)))
        return basis

    def coefficients_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        digits = []
        for _ in range(self.t):
            i, r = divmod(i, self.Q)
            digits.append(r)
        return tuple(reversed(digits))  # c_0 first

    def index_of_coefficients(self, coeffs) -> int:
        i = 0
        for c in coeffs:
            i = i * self.Q + c
        return i

    def _internal_rows(self, coeffs):
        ext = self.ext
        rows = []
        for j in range(self.a):
            acc = 0
            for c, gp in zip(coeffs, self.gpow[j]):
                if c:
                    acc = ext.add(acc, ext.mul(c, gp))
            rows.append(ext.element_to_vector(acc))
        return rows

    def _internal_packed(self, coeffs):
        # q = 2: one int per internal row, column 0 in the MSB
        rows = self._internal_rows(coeffs)
        b = self.b
        return [sum(v << (b - 1 - j) for j, v in enumerate(r)) for r in rows]

    def _index_bit_groups(self):
        """Bit-basis matrices in groups of at most TABLE_BITS index bits,
        lowest group first and as large as possible."""
        if self._bit_basis is None:
            raise RankCodeError("packed access requires q = 2")
        basis = self._bit_basis
        return [basis[lo:lo + TABLE_BITS] for lo in range(0, len(basis), TABLE_BITS)]

    def _xor_tables(self):
        """One (2^g, a) uint64 table per index-bit group; row x of a table is
        the XOR of the group's bit-basis matrices selected by the bits of x."""
        if self._tables is None:
            self._tables = []
            for group in self._index_bit_groups():
                table = np.zeros((1, self.a), dtype=np.uint64)
                for mat in group:
                    table = np.concatenate([table, table ^ np.array(mat, dtype=np.uint64)])
                self._tables.append(table)
        return self._tables

    def internal_packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        if self._table_words is None:
            # the same tables as lists of ints, internal row r at bits r*b
            self._table_words = []
            for group in self._index_bit_groups():
                table = [0]
                for mat in group:
                    vec = sum(x << (r * self.b) for r, x in enumerate(mat))
                    table += [w ^ vec for w in table]
                self._table_words.append(table)
        word = 0
        for table in self._table_words:
            word ^= table[i & (len(table) - 1)]
            i >>= TABLE_BITS
        mask = (1 << self.b) - 1
        return [(word >> (r * self.b)) & mask for r in range(self.a)]

    def packed_at(self, i):
        rows = self.internal_packed_at(i)
        if self.transposed:
            rows = _transpose_packed(rows, self.b)
        return rows

    def rows_at(self, i):
        rows = self._internal_rows(self.coefficients_at(i))
        if self.transposed:
            rows = [tuple(col) for col in zip(*rows)]
        return [tuple(r) for r in rows]

    def iter_blocks(self):
        """Blocks of at most 2^TABLE_BITS words: the lowest table XOR the
        XOR of one row from each higher table."""
        low, *high = self._xor_tables()
        for parts in product(*reversed(high)):
            yield low ^ reduce(xor, parts, 0)

    def poly_at(self, i) -> LinearizedPoly:
        return LinearizedPoly(self.ext, self.coefficients_at(i))

    def index_of(self, M: MatrixGF):
        """Index of a codeword matrix, or None if not in the code."""
        rows = M.rows
        if self.transposed:
            rows = list(zip(*rows))
        ext = self.ext
        targets = [ext.vector_to_element(r) for r in rows]
        # solve gpow . c = targets for c (a equations, t unknowns over GF(Q))
        aug = [[self.gpow[j][s] for s in range(self.t)] + [targets[j]]
               for j in range(self.a)]
        ncols = self.t + 1
        pivots = []
        r = 0
        for col in range(self.t):
            piv = next((i2 for i2 in range(r, self.a) if aug[i2][col]), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            scale = ext.inv(aug[r][col])
            aug[r] = [ext.mul(scale, v) for v in aug[r]]
            for i2 in range(self.a):
                if i2 != r and aug[i2][col]:
                    c = aug[i2][col]
                    aug[i2] = [ext.sub(v, ext.mul(c, w)) for v, w in zip(aug[i2], aug[r])]
            pivots.append(col)
            r += 1
        # consistency of the remaining equations
        for i2 in range(r, self.a):
            if aug[i2][self.t]:
                return None
        if len(pivots) < self.t:
            return None
        coeffs = [0] * self.t
        for row_idx, col in enumerate(pivots):
            coeffs[col] = aug[row_idx][self.t]
        if self.rows_at(self.index_of_coefficients(coeffs)) != [tuple(r) for r in M.rows]:
            return None
        return self.index_of_coefficients(coeffs)


class NestedSubcodeHandle(GabidulinHandle):
    """MRD subcode obtained by truncating the coefficient range."""

    def __init__(self, parent: GabidulinHandle, d2: int):
        if d2 <= parent.d_r:
            raise RankCodeError(f"nested subcode needs d2 > {parent.d_r}, got {d2}")
        if d2 > parent.a:
            raise RankCodeError(f"d2={d2} exceeds min(m,n)={parent.a}")
        t2 = parent.a - d2 + 1
        super().__init__(parent.q, parent.m, parent.n, d2, t_override=t2, parent=parent)
        self.kind = "nested_subcode"

    def parent_index(self, i) -> int:
        return i * self.parent.Q ** (self.parent.t - self.t)


class CosetHandle(RankCodeHandle):
    """Translate rep + sub of a nested MRD subcode."""

    def __init__(self, sub: NestedSubcodeHandle, rep_index: int):
        super().__init__(sub.q, sub.m, sub.n, sub.d_r, "coset", sub.size)
        self.sub = sub
        self.rep_index = rep_index  # index into the parent enumeration
        parent = sub.parent
        self.field = sub.field
        self._rep_rows = parent.rows_at(rep_index)
        if sub.q == 2:
            self._rep_packed = parent.packed_at(rep_index)
            self._rep_internal = np.array(parent.internal_packed_at(rep_index),
                                          dtype=np.uint64)

    def packed_at(self, i):
        base = self.sub.packed_at(i)
        return [a ^ b for a, b in zip(base, self._rep_packed)]

    def rows_at(self, i):
        f = self.field
        base = self.sub.rows_at(i)
        return [tuple(f.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(base, self._rep_rows)]

    def iter_blocks(self):
        for block in self.sub.iter_blocks():
            yield block ^ self._rep_internal


class RankFilteredHandle(RankCodeHandle):
    """Codewords of a handle with rank <= cap, lazily enumerated."""

    def __init__(self, parent: RankCodeHandle, cap: int):
        if not 0 <= cap <= min(parent.m, parent.n):
            raise RankCodeError(f"rank cap {cap} out of range")
        super().__init__(parent.q, parent.m, parent.n, parent.d_r, "rank_filtered", None)
        self.parent = parent
        self.cap = cap
        self._indices = None
        if isinstance(parent, GabidulinHandle) and parent.kind in ("mrd", "nested_subcode"):
            self.size = 1 + sum(rank_distribution(parent.q, parent.m, parent.n, parent.d_r, r)
                                for r in range(parent.d_r, cap + 1))
        else:  # no formula: the one scan sets the size
            self.size = len(self.indices())

    def _masked_blocks(self):
        # rank is invariant under transposition, so internal rows suffice
        ncols = max(self.m, self.n)
        for block in self.parent.iter_blocks():
            yield block, rank_bits_batch(block, ncols) <= self.cap

    def indices(self):
        """Parent indices of the kept words, as an int64 array."""
        if self._indices is None:
            if self.q == 2:
                keep = np.concatenate([mask for _, mask in self._masked_blocks()])
                indices = np.flatnonzero(keep).astype(np.int64, copy=False)
            else:
                field = base_field(self.q)
                indices = np.array([i for i, rows in enumerate(self.parent.iter_rows())
                                    if rank_rows(field, rows, self.n) <= self.cap],
                                   dtype=np.int64)
            if self.size is not None and len(indices) != self.size:
                raise RankCodeError(
                    f"rank filter count {len(indices)} != formula size {self.size}")
            self._indices = indices
        return self._indices

    def packed_at(self, i):
        return self.parent.packed_at(int(self.indices()[i]))

    def rows_at(self, i):
        return self.parent.rows_at(int(self.indices()[i]))

    def iter_blocks(self):
        for block, mask in self._masked_blocks():
            yield block[mask]

    def iter_rows(self):
        field = base_field(self.q)
        for rows in self.parent.iter_rows():
            if rank_rows(field, rows, self.n) <= self.cap:
                yield rows


def gabidulin_mrd(q: int, m: int, n: int, d_r: int) -> GabidulinHandle:
    """Explicit (m x n, d_r)_q MRD code; enumeration is deterministic."""
    if not 1 <= d_r <= min(m, n):
        raise RankCodeError(f"need 1 <= d_r <= min(m,n)={min(m, n)}, got {d_r}")
    return GabidulinHandle(q, m, n, d_r)


def nested_subcode(h: GabidulinHandle, d2: int) -> NestedSubcodeHandle:
    if not isinstance(h, GabidulinHandle) or h.kind != "mrd":
        raise RankCodeError("nested subcodes are defined for Gabidulin MRD handles")
    return NestedSubcodeHandle(h, d2)


def coset_partition(h: GabidulinHandle, sub: NestedSubcodeHandle):
    """The size(h)/size(sub) translates of sub inside h."""
    if not isinstance(sub, NestedSubcodeHandle) or sub.parent is not h:
        raise RankCodeError("sub must be a nested subcode of h")
    alpha = h.size // sub.size
    # representatives: coefficients supported on the truncated range only
    return [CosetHandle(sub, j) for j in range(alpha)]


def rank_filtered(h: RankCodeHandle, cap: int) -> RankFilteredHandle:
    return RankFilteredHandle(h, cap)
