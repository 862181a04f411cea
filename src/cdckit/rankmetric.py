"""MRD rank-metric codes in the Gabidulin realization.

Codes are exposed as immutable handles with deterministic, restartable
enumeration: index i maps to the tuple of linearized-polynomial
coefficients (c_0, ..., c_{t-1}) over GF(q^max(m,n)), c_0 in the most
significant digit.  A handle is a linalg.StreamSource of packed m x n
matrices, so it streams, gathers and sits under any source view like a
code does.  A nested subcode or a coset is a view of its parent handle:
word i is the parent's word i * step + rep, where the subcode's low
coefficients are zero (rep = 0) and a coset's are those of rep.

A rank filter keeps the words of rank <= cap.  At q = 2 it solves for
their indices, one affine solution space per (a - cap)-subspace that
annihilates a word's rows, the subspaces read from verify.subspace_bases;
at q > 2 it ranks the parent word by word.  Either lists at most SCAN_CAP
words: kept words by formula at q = 2, parent words at q > 2.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import xor

import numpy as np

from .gf import base_field, check_order, ext_field
from .linalg import (BATCH, StreamSource, _leading_bits, checked_indices, gaussian_binomial,
                     pack_rows, rank_rows, rref_bits_batch, spans)
from .verify import CapExceeded, subspace_bases

TABLE_BITS = 12  # index bits per XOR table; the lowest table is one block
SCAN_CAP = 10 ** 7  # parent words a q > 2 rank filter ranks, or words a q = 2 one lists


class RankCodeError(ValueError):
    pass


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


def _transpose_block(block, ncols):
    """(B, a) packed a x ncols matrices -> (B, ncols) packed transposes."""
    a = block.shape[1]
    bits = (block[:, :, None] >> np.arange(ncols - 1, -1, -1, dtype=np.uint64)) & 1
    return (bits.transpose(0, 2, 1) << np.arange(a - 1, -1, -1, dtype=np.uint64)) \
        .sum(axis=2, dtype=np.uint64)


class RankCodeHandle(StreamSource):
    """Deterministic enumerable rank-metric code of m x n matrices over
    field = GF(q): packed_at(i) (linalg packed rows) over any field, and at
    q = 2 packed_at_batch(idx)."""

    def __init__(self, q, m, n, d_r, kind, size):
        self.q = q
        self.field = base_field(q)
        self.m = m
        self.n = n
        self.d_r = d_r
        self.kind = kind
        self.size = size

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"RankCodeHandle({self.kind}, {self.m}x{self.n}, d_r={self.d_r}, q={self.q}, size={self.size})"

    def rank_of(self, i) -> int:
        return rank_rows(self.field, self.rows_at(i), self.n)


class GabidulinHandle(RankCodeHandle):
    """(m x n, d_r)_q MRD code from linearized-polynomial evaluation.  With a
    parent it is a view, word i being the parent's word i * step + rep: a
    nested subcode for rep = 0, a coset of one otherwise.  Only a root handle
    builds its field and evaluates polynomials.  At q = 2 every word is read
    from one set of XOR tables in the words' own orientation (m rows of n
    bits), built on first use."""

    def __init__(self, q, m, n, d_r, parent=None, rep=0):
        a, b = min(m, n), max(m, n)
        t = a - d_r + 1
        super().__init__(q, m, n, d_r, "mrd", (q ** b) ** t)
        self.a = a
        self.b = b
        self.t = t
        self.transposed = m > n
        self.parent = parent
        self.rep = rep
        self.Q = q ** b
        self.step = parent.size // self.size if parent else 1
        self._tables = None  # XOR tables, built on first packed use
        if parent is None:
            self.ext = ext_field(self.field, b)
            # g_j = alpha^j, j = 0..a-1, and their q-power Frobenius iterates
            self.gpow = []
            for j in range(a):
                powers = [self.ext.basis[j]]
                while len(powers) < t:
                    powers.append(self.ext.pow(powers[-1], q))
                self.gpow.append(powers)
            self._bit_basis = self._build_bit_basis() if q == 2 else None

    def _build_bit_basis(self):
        # GF(2)-basis matrices, one per bit of the enumeration index (c_0 the
        # most significant digit), rows packed with column 0 in the MSB: a
        # (t * b, a) uint64 array
        basis = []
        for u in range(self.t * self.b):
            coeffs = [0] * self.t
            coeffs[self.t - 1 - u // self.b] = 1 << (u % self.b)
            basis.append(pack_rows(self.field, self._internal_rows(coeffs)))
        return np.array(basis, dtype=np.uint64)

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

    def _affine(self):
        """(R, B) at q = 2, as a rows of b bits: word i's rows are R XOR the
        rows B[u] of each set bit u of i.  A root has R = 0; a view has the
        parent's top t * b basis matrices and R = the parent's word at rep."""
        if self.parent is None:
            return np.zeros(self.a, dtype=np.uint64), self._bit_basis
        offset, basis = self.parent._affine()
        rep = [u for u in range(self.rep.bit_length()) if self.rep >> u & 1]
        return offset ^ np.bitwise_xor.reduce(basis[rep], axis=0), \
            basis[(self.parent.t - self.t) * self.b:]

    def _xor_tables(self):
        """One (2^g, m) uint64 table of words per group of at most TABLE_BITS
        index bits, lowest group first; row x of a table is the XOR of the
        group's basis words selected by the bits of x, and the lowest table
        holds R as well.  A transposed handle (m > n) transposes R and its
        basis here, once."""
        if self._tables is None:
            if self.q != 2:
                raise RankCodeError("packed access requires q = 2")
            offset, basis = self._affine()
            if self.transposed:
                offset, *basis = _transpose_block(np.vstack([offset, basis]), self.b)
            self._tables = []
            for lo in range(0, len(basis), TABLE_BITS):
                table = np.zeros((1, self.m), dtype=np.uint64)
                for word in basis[lo:lo + TABLE_BITS]:
                    table = np.concatenate([table, table ^ word])
                self._tables.append(table)
            self._tables[0] ^= offset
        return self._tables

    def packed_at(self, i):
        """One table row per index-bit group; at q > 2 a root evaluates the
        linearized polynomial and a view reads its parent's word."""
        if not 0 <= i < self.size:
            raise IndexError(i)
        if self.q != 2:
            if self.parent is not None:
                return self.parent.packed_at(i * self.step + self.rep)
            coeffs = [i // self.Q ** s % self.Q for s in reversed(range(self.t))]  # c_0 leads
            rows = self._internal_rows(coeffs)
            return pack_rows(self.field, zip(*rows) if self.transposed else rows)
        low, *high = self._xor_tables()
        word = low[i & (len(low) - 1)]
        for table in high:
            i >>= TABLE_BITS
            word = word ^ table[i & (len(table) - 1)]
        return tuple(word.tolist())

    def packed_at_batch(self, idx):
        """One XOR-table row per index-bit group (indices stay below 2^63)."""
        idx = checked_indices(idx, self.size)
        low, *high = self._xor_tables()
        words = np.take(low, idx & (len(low) - 1), axis=0)
        for shift, table in zip(range(TABLE_BITS, 63, TABLE_BITS), high):
            words ^= np.take(table, (idx >> shift) & (len(table) - 1), axis=0)
        return words

    def packed_blocks(self):
        """Blocks of at most 2^TABLE_BITS words: the lowest table XOR the
        XOR of one row from each higher table."""
        low, *high = self._xor_tables()
        for parts in product(*reversed(high)):
            yield low ^ reduce(xor, parts, 0)


def _low_rank_indices(offset, basis, ncols, cap):
    """The sorted int64 indices i whose word, offset XOR the rows basis[u] of
    each set bit u of i, has rank <= cap; offset is an (a,) and basis a
    (tb, a) uint64 array of ncols-bit packed rows, tb <= 63.

    A word has rank <= cap exactly when some (a - cap)-subspace V of F_2^a
    annihilates its rows.  The indices one V annihilates solve (a - cap) *
    ncols linear equations in the tb index bits, each a row of tb
    coefficient bits over its right-hand side in bit 0.  Every V is
    eliminated at once, and each solution set p + span(N) is listed by XOR
    doubling, so the work grows with the kept words, not with 2^tb."""
    tb, a = basis.shape
    cols = np.arange(ncols, dtype=np.uint64)
    bit = np.uint64(1) << np.arange(tb, dtype=np.uint64)
    # unit[j, c]: the equation "bit c of row j is zero"; the equations of a
    # vector of V, packed like V's basis rows, XOR the units of its rows
    unit = (((basis.T[:, :, None] >> cols) & 1) * (bit[:, None] << 1)).sum(axis=1, dtype=np.uint64)
    unit |= (offset[:, None] >> cols) & 1
    vectors, spaces = spans(unit.T), subspace_bases(a, a - cap)
    parts = [np.empty(0, dtype=np.uint64)]
    for lo in range(0, len(spaces), BATCH):  # bounds the (B, rows, tb) arrays below
        eqs = vectors[spaces[lo:lo + BATCH]]
        rows = rref_bits_batch(eqs.reshape(len(eqs), -1), tb + 1)[0]
        coef = rows >> 1
        lead = _leading_bits(coef, tb)  # RREF: one distinct bit per nonzero row
        solvable = (rows != 1).all(axis=1)  # no row reads 0 = 1
        particular = (lead * (rows & 1)).sum(axis=1, dtype=np.uint64)
        pivots = lead.sum(axis=1, dtype=np.uint64)
        # free variable u's null vector: u and the pivot of each row holding u
        null = (coef[:, :, None] & bit != 0) * lead[:, :, None]
        null = (pivots[:, None] & bit == 0) * (null.sum(axis=1, dtype=np.uint64) | bit)
        free = np.count_nonzero(null, axis=1)
        for k in sorted(set(free[solvable].tolist())):
            sel = solvable & (free == k)
            parts.append((spans(np.sort(null[sel], axis=1)[:, tb - k:]) ^ particular[sel]).ravel())
    kept = np.concatenate(parts)
    kept.sort()
    first = np.ones(len(kept), dtype=bool)  # of each run of repeats
    np.not_equal(kept[1:], kept[:-1], out=first[1:])
    return kept[first].view(np.int64)


class RankFilteredHandle(RankCodeHandle):
    """Codewords of a handle with rank <= cap.  At q = 2 the kept parent
    indices are solved for on first use, as the union over subspaces V of
    F_2^a of the indices whose rows V annihilates; at q > 2 the parent is
    scanned word by word."""

    def __init__(self, parent: RankCodeHandle, cap: int):
        if not 0 <= cap <= min(parent.m, parent.n):
            raise RankCodeError(f"rank cap {cap} out of range")
        super().__init__(parent.q, parent.m, parent.n, parent.d_r, "rank_filtered", None)
        self.parent = parent
        self.cap = cap
        self._indices = None
        if isinstance(parent, GabidulinHandle) and not parent.rep:  # a coset is affine
            self.size = 1 + sum(rank_distribution(parent.q, parent.m, parent.n, parent.d_r, r)
                                for r in range(parent.d_r, cap + 1))
        else:  # no formula: the first indices() sets the size
            self.size = len(self.indices())

    def indices(self):
        """Parent indices of the kept words, as a sorted int64 array: solved
        for at q = 2 (_low_rank_indices) up to 63 index bits and SCAN_CAP
        words by formula, a scan of at most SCAN_CAP parent words at q > 2."""
        if self._indices is None:
            if self.q == 2:
                if self.parent.size > 1 << 63:  # 2^tb words: a system row holds tb + 1 bits
                    raise CapExceeded(f"a rank filter over {self.parent.size} words exceeds "
                                      f"the solve's 63 index bits")
                if self.size is not None and self.size > SCAN_CAP:
                    raise CapExceeded(f"a rank filter keeping {self.size} words exceeds "
                                      f"the listing cap {SCAN_CAP}")
                # rank is invariant under transposition, so internal rows suffice
                indices = _low_rank_indices(*self.parent._affine(), max(self.m, self.n), self.cap)
            else:
                if self.parent.size > SCAN_CAP:
                    raise CapExceeded(f"a rank filter over {self.parent.size} words exceeds "
                                      f"the q > 2 scan cap {SCAN_CAP}")
                rank_of = self.parent.rank_of
                indices = np.array([i for i in range(self.parent.size) if rank_of(i) <= self.cap],
                                   dtype=np.int64)
            if self.size is not None and len(indices) != self.size:
                raise RankCodeError(
                    f"rank filter count {len(indices)} != formula size {self.size}")
            self._indices = indices
        return self._indices

    def packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        return self.parent.packed_at(int(self.indices()[i]))

    def packed_at_batch(self, idx):
        return self.parent.packed_at_batch(self.indices()[checked_indices(idx, self.size)])


def gabidulin_mrd(q: int, m: int, n: int, d_r: int) -> GabidulinHandle:
    """Explicit (m x n, d_r)_q MRD code; enumeration is deterministic."""
    if not 1 <= d_r <= min(m, n):
        raise RankCodeError(f"need 1 <= d_r <= min(m,n)={min(m, n)}, got {d_r}")
    check_order(q ** max(m, n))  # GF(q^b) before GF(q), whose modulus search can take seconds
    return GabidulinHandle(q, m, n, d_r)


def nested_subcode(h: GabidulinHandle, d2: int) -> GabidulinHandle:
    """The MRD subcode of rank distance d2 whose word i is word
    i * Q^(t - t2) of h: the low t - t2 coefficients are zero."""
    if not isinstance(h, GabidulinHandle) or h.parent is not None:
        raise RankCodeError("nested subcodes are defined for Gabidulin MRD handles")
    if not h.d_r < d2 <= h.a:
        raise RankCodeError(f"nested subcode needs {h.d_r} < d2 <= min(m,n)={h.a}, got {d2}")
    return GabidulinHandle(h.q, h.m, h.n, d2, parent=h)


def coset_partition(h: GabidulinHandle, sub: GabidulinHandle):
    """The size(h)/size(sub) translates of sub inside h, as views of h whose
    representatives are the words of h with the low coefficients only."""
    if not isinstance(sub, GabidulinHandle) or sub.parent is not h or sub.rep:
        raise RankCodeError("sub must be a nested subcode of h")
    return [GabidulinHandle(h.q, h.m, h.n, sub.d_r, parent=h, rep=j) for j in range(sub.step)]


def rank_filtered(h: RankCodeHandle, cap: int) -> RankFilteredHandle:
    return RankFilteredHandle(h, cap)
