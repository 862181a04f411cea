"""Matrices over GF(q): RREF, rank, stacking, Gaussian binomials, and the
StreamSource base of everything that hands out packed words.

Matrices are immutable; rows are tuples of element indices.  A packed
row, the one scalar word format at every q, is one int holding entry j of
an n-entry row in bits [w(n - 1 - j), w(n - j)), w = entry_bits(q); this
module alone owns that width.  An array of packed words is uint64 when
w * n <= 64 and holds Python ints (dtype object) past that.  For q = 2
(w = 1, column 0 in the most significant bit) elimination works on the
packed rows by one rule for one word (rref_bits, rank_bits, on Python
ints) and for a batch (rref_bits_batch, rank_bits_batch, on numpy arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

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

    def __eq__(self, other):
        return (isinstance(other, MatrixGF) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"MatrixGF({self.nrows}x{self.ncols} over GF({self.field.q}))"


# ----------------------------------------------------------------------
# packed rows: entry j in bits [w(ncols - 1 - j), w(ncols - j)), over
# GF(2) column j in bit (ncols - 1 - j)
# ----------------------------------------------------------------------

BATCH = 1 << 12  # words, or sampled pairs, per batched call of a stream or check

def packable(field: FieldSpec, n: int, k: int) -> bool:
    """Whether k x n matrices take the batched uint64 path: GF(2), 1 <= k, n <= 64."""
    return field.q == 2 and 1 <= k and n <= 64


def checked_indices(idx, size):
    """idx as an int64 array; IndexError unless every entry is in [0, size)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and not 0 <= idx.min() <= idx.max() < size:
        raise IndexError(f"index out of range [0, {size})")
    return idx


def word_tuples(block):
    """The rows of a (B, k) array as int tuples, zipped from k column lists."""
    return zip(*block.T.tolist())


def find_words(blocks, targets):
    """The index of each packed word of targets, an (m, k) uint64 array, in a
    stream of (B, k) uint64 blocks, or -1 where absent.  The distinct targets,
    as void scalars, are sorted once and searched by each block until all
    are found: memory is the targets and one block."""
    targets = np.ascontiguousarray(targets, dtype=np.uint64)
    void = np.dtype((np.void, targets.itemsize * max(1, targets.shape[1])))
    keys, back = np.unique(targets.view(void).ravel(), return_inverse=True)
    found, start = np.full(len(keys), -1, dtype=np.int64), 0
    for block in blocks:
        if (found >= 0).all():  # no target left, or none at all
            break
        words = np.ascontiguousarray(block, dtype=np.uint64).view(void).ravel()
        at = np.searchsorted(keys, words).clip(max=len(keys) - 1)
        hit = np.flatnonzero(keys[at] == words)
        found[at[hit]] = start + hit
        start += len(words)
    return found[back]


def sort_keys(words, n):
    """A list of uint64 key arrays of packed RREF words, the most significant
    first.  Row j, below 2^(n - j), takes n - j bits; the rows lie side by
    side, row 0 highest, and a row that does not fit in a key starts the
    next: one key when kn - k(k - 1)/2 <= 64.  They order words as their
    text lines sort and are equal exactly when the words are."""
    keys, used = [], 64
    for j, row in enumerate(words.T):
        if used + n - j > 64:
            keys.append(np.zeros(len(words), np.uint64))
            used = 0
        keys[-1] <<= np.uint64(n - j)
        keys[-1] |= row
        used += n - j
    return keys


def entry_bits(q: int) -> int:
    """The bits w of one entry of a packed row over GF(q): (q - 1).bit_length()."""
    return (q - 1).bit_length()


def packed_dtype(q: int, n: int):
    """uint64 when packed n-entry rows over GF(q) fit in 64 bits, else object."""
    return np.uint64 if entry_bits(q) * n <= 64 else object


def pack_row(row, w=1) -> int:
    """A row as one int: entry j in bits [w(n - 1 - j), w(n - j))."""
    x = 0
    for v in row:
        x = (x << w) | v
    return x


@lru_cache(maxsize=1 << 12)
def unpack_row(x: int, n: int, w=1):
    # rows repeat across the words of a code: the words listed from one
    # stream share their row tuples, which makes the list cheaper to build
    # and to free
    mask = (1 << w) - 1
    return tuple((x >> s) & mask for s in range(w * (n - 1), -1, -w))


def pack_rows(field: FieldSpec, rows):
    """The packed rows of a word over field, as a tuple of ints."""
    w = entry_bits(field.q)
    return tuple([pack_row(r, w) for r in rows])


def unpack_rows(field: FieldSpec, packed, n: int):
    """The row tuples of a packed word over field."""
    w = entry_bits(field.q)
    return tuple([unpack_row(x, n, w) for x in packed])


def rref_packed(field: FieldSpec, rows, n: int):
    """RREF of packed rows, zero rows dropped, as packed rows: rref_bits
    at q = 2, rref_rows on the unpacked entries otherwise."""
    if field.q == 2:
        return rref_bits(rows, n)[0]
    return pack_rows(field, rref_rows(field, unpack_rows(field, rows, n), n)[0])


def rref_bits(rows, n):
    """RREF of bit-packed GF(2) rows; returns (rows, pivot_columns).  As in
    rref_bits_batch, each row in turn clears its leading bit from every other
    row; the nonzero rows, sorted in decreasing order, are in pivot order."""
    rows = list(rows)
    for j in range(len(rows)):
        if row := rows[j]:
            bit = 1 << (row.bit_length() - 1)
            rows = [r ^ row if r & bit else r for r in rows]
            rows[j] = row
    rows = sorted(filter(None, rows), reverse=True)
    return rows, [n - r.bit_length() for r in rows]


def rank_bits(rows, n) -> int:
    """Rank of bit-packed GF(2) rows: as in rank_bits_batch, each row clears its
    lowest set bit from the rows below, and the rank counts the rows left nonzero."""
    rows = list(rows)
    for j in range(len(rows) - 1):  # the last row has none below it
        if row := rows[j]:
            low = row & -row
            rows[j + 1:] = [r ^ row if r & low else r for r in rows[j + 1:]]
    return len(rows) - rows.count(0)


def _leading_bits(x, ncols):
    """The highest set bit of each ncols-bit entry of x (0 stays 0), in x's
    dtype.  Up to 24 bits a float32 holds an entry exactly, and clearing its
    mantissa leaves the leading bit; wider entries, in shifts that keep the
    dtype, smear it to bit 0 and keep the top one."""
    if ncols <= 24:
        f = x.astype(np.float32)
        f.view(np.uint32)[...] &= np.uint32(0xFF800000)
        return f.astype(x.dtype)
    x = x.copy()
    shift = 1
    while shift < ncols:
        x |= x >> shift
        shift *= 2
    return x ^ (x >> 1)


def in_rref(rows, n):
    """Whether each GF(2) word of a (k, m) array of n-bit rows is in RREF:
    its last row nonzero, and each row below the previous row's leading bit,
    which the running OR of the rows above it does not hold."""
    lead = _leading_bits(rows, n)
    ok = (rows[-1:] != 0).all(axis=0)
    if len(rows) > 1:
        above = rows[:-1].copy()  # row j: the OR of rows 0..j (accumulate is slow on axis 0)
        for j in range(1, len(above)):
            above[j] |= above[j - 1]
        ok &= (rows[1:] < lead[:-1]).all(axis=0)
        ok &= np.bitwise_or.reduce(above & lead[1:], axis=0) == 0
    return ok


def _work_rows(rows, ncols, below=None):
    """B bit-packed matrices, a (B, a) array over below ((B, b), or (1, b) under all),
    written into a C-contiguous (a + b, B) array, row j of each in one run, of the
    narrowest dtype holding ncols bits."""
    rows = rows if isinstance(rows, np.ndarray) else np.array(rows, np.uint64)
    a, b = rows.shape[1], 0 if below is None else below.shape[1]
    work = np.empty((a + b, len(rows)), np.min_scalar_type((1 << ncols) - 1))
    work[:a], work[a:] = rows.T, 0 if below is None else below.T
    return work


def rank_bits_batch(rows, ncols, below=None):
    """Ranks of B bit-packed GF(2) matrices given as a (B, a) uint64 array over
    the rows of below, ncols <= 64, worked on as _work_rows; agrees with rank_bits.

    Row j, once reduced by the rows above it, clears its lowest set bit from
    the rows below: a rank needs some pivot bit, and row & -row is 2 array calls
    where the leading bit is ~11 (-row negates the row array, which wraps; a
    NumPy scalar would warn).  Rows are picked by multiplying with the mask (a
    broadcast np.where is about 20x slower); the rank counts the rows left
    nonzero, as no row changes after its turn."""
    work = _work_rows(rows, ncols, below)
    for j, row in enumerate(work[:-1]):  # the last row has none below it
        rest = work[j + 1:]
        rest ^= ((rest & (row & -row)) != 0) * row
    return np.count_nonzero(work, axis=0)


def rref_bits_batch(rows, ncols):
    """RREF of B bit-packed GF(2) matrices given as a (B, a) uint64 array,
    ncols <= 64, worked on as _work_rows; returns (uint64 rows, ranks), zero rows last.

    Agrees with rref_bits.  One pass per row clears that row's leading bit
    from every other row (picked by multiplying with the mask: a broadcast
    np.where is about 20x slower), leaving the nonzero rows with distinct
    leading bits, so decreasing value is pivot order with zero rows last.
    An odd-even transposition network of a rounds puts them there: each
    round compare-exchanges the row pairs of its parity with whole-row
    np.maximum and np.minimum (a per-matrix np.sort of the rows costs about
    as much as the whole elimination at 4,096 matrices)."""
    work = _work_rows(rows, ncols)
    a = work.shape[0]
    for j in range(a):
        row = work[j].copy()
        work ^= ((work & _leading_bits(row, ncols)) != 0) * row
        work[j] = row
    for r in range(a):
        upper, lower = work[r % 2:a - 1:2], work[r % 2 + 1:a:2]
        larger = np.maximum(upper, lower)
        np.minimum(upper, lower, out=lower)
        upper[...] = larger
    return work.T.astype(np.uint64, order="C"), np.count_nonzero(work, axis=0)


def spans(words):
    """The 2^k vectors of each word of a (B, k) uint64 array, as (2^k, B),
    zero first: vector m is the XOR of the rows j with bit k - 1 - j of m
    set, so a coefficient row packed like a word's rows indexes its vector."""
    vecs = np.zeros((1 << words.shape[1], len(words)), dtype=np.uint64)
    for j, row in enumerate(words.T[::-1]):
        np.bitwise_xor(vecs[:1 << j], row, out=vecs[1 << j:2 << j])
    return vecs


class StreamSource:
    """Deterministic random-access stream of packed words: a source of
    codewords (canonical RREF rows) or a rank-metric handle (m x n matrices).

    A source gives linalg packed words at any q, packed_at(i) -> one int per
    row, and at q = 2 batched, packed_at_batch(idx) -> a fresh (B, rows) uint64
    array (n <= 64) that the caller may write, which its stream reads in blocks;
    over larger fields it reads packed_at word by word.  rows_at unpacks packed_at."""

    size = 0

    def packed_blocks(self):
        """C-contiguous (B, rows) uint64 arrays of consecutive words in index
        order, read by streams and writes: here gathers of BATCH words."""
        return (self.packed_at_batch(np.arange(lo, min(lo + BATCH, self.size)))
                for lo in range(0, self.size, BATCH))

    def iter_packed(self):
        if self.field.q != 2:  # no batched gather over larger fields
            return map(self.packed_at, range(self.size))
        return chain.from_iterable(map(word_tuples, self.packed_blocks()))

    def rows_at(self, i):
        return unpack_rows(self.field, self.packed_at(i), self.n)


class PackedSource(StreamSource):
    """GF(2) words held in one C-contiguous (N, k) array of the narrowest
    unsigned dtype holding n <= 64 bits: a file's words, or those that the
    exact check's lifted-block verdict leaves to its climb."""

    def __init__(self, field, n, packed):
        self.field, self.n, self.packed = field, n, packed
        self.size = len(packed)

    def packed_at(self, i):
        return tuple(self.packed[i].tolist())

    def packed_at_batch(self, idx):
        return np.take(self.packed, checked_indices(idx, self.size), 0).astype(np.uint64, copy=False)


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


def rank_rows(field: FieldSpec, rows, ncols: int) -> int:
    """Rank of raw rows without building a MatrixGF."""
    if field.q == 2:
        return rank_bits([pack_row(r) for r in rows], ncols)
    return len(rref_rows(field, rows, ncols)[0])


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
