"""Constant-dimension codes: containers, lifted MRD codes, spreads,
2-parallelisms of F_q^4, and partial-spread subcode extraction.

A Cdc keeps its codewords in one linalg.StreamSource and nothing else: a
ListSource of packed words, a PackedSource of GF(2) words read from a
file, or a computed stream over other sources and rank-metric handles.
Every source hands out linalg packed words, at every q, and nothing else;
Subspace values are views that the Cdc builds on demand (at, iteration,
words()) and never keeps.  Builders emit packed rows.  A partial-spread
subcode is chosen by index in verify.canonical_order: its parent is never
listed.
"""

from __future__ import annotations

from itertools import chain
from math import prod

import numpy as np

from .gf import FieldSpec, base_field, ext_field
from .linalg import (BATCH, PackedSource, StreamSource, checked_indices, entry_bits, in_rref,
                     pack_rows, packed_dtype, rref_bits_batch, rref_packed, unpack_rows,
                     word_tuples)
from .rankmetric import GabidulinHandle, RankCodeHandle, gabidulin_mrd, nested_subcode
from .subspace import Subspace
from .verify import canonical_order, enumerate_subspaces, meet_dims

MATERIALIZE_CAP = 10 ** 5


class CdcError(ValueError):
    pass


class ListSource(StreamSource):
    """Listed codewords, packed: an (N, k) array of linalg.packed_dtype or
    an iterable of int tuples.  packed_at and iter_packed read the words as
    int tuples; gathers and the block stream read the array, made from the
    tuples when not given: at once over GF(2) with n <= 64, else on first use."""

    def __init__(self, field, n, words):
        self.field, self.n, self._array = field, n, None
        if isinstance(words, np.ndarray):
            self._array = np.ascontiguousarray(words, dtype=packed_dtype(field.q, n))
            words = word_tuples(self._array)
        self.packed = list(words)
        self.size = len(self.packed)
        if field.q == 2 and n <= 64:  # no gather, stream or export pays for it later
            self._array = self.array

    @property
    def array(self):
        if self._array is None:
            k, dtype = len(self.packed[0]) if self.size else 0, packed_dtype(self.field.q, self.n)
            self._array = np.fromiter(chain.from_iterable(self.packed), dtype,
                                      count=self.size * k).reshape(self.size, k)
        return self._array

    def packed_at(self, i):
        return self.packed[i]

    def packed_at_batch(self, idx):
        return np.take(self.array, checked_indices(idx, self.size), axis=0)

    def packed_blocks(self):
        return (self.array[lo:lo + BATCH] for lo in range(0, self.size, BATCH))

    def iter_packed(self):
        return iter(self.packed)


class ProductSource(StreamSource):
    """Word i puts one word of each factor (a rank-metric handle or a stream
    source) in that factor's columns, factor indices in mixed-radix order
    with the last factor fastest; with `reduce` (a leading block other than
    the pivot block) the word is brought to RREF.  This is the lifting
    R(tau(U) | M) and, over several blocks, the linkage construction."""

    def __init__(self, field, factors, widths, reduce=False):
        self.field = field
        self.factors = list(factors)
        self.n = sum(widths)
        self.reduce = reduce
        self.size = prod(f.size for f in self.factors)
        self.last = self.factors[-1]  # in the lowest columns: no shift
        # (factor, bit shift of its columns) of the other factors, right to left
        w = entry_bits(field.q)
        self._head = [(f, w * sum(widths[j + 1:]))
                      for j, f in reversed(list(enumerate(self.factors[:-1])))]

    def packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        i, j = divmod(i, self.last.size)
        rows = self.last.packed_at(j)
        for f, sh in self._head:
            i, j = divmod(i, f.size)
            rows = [r | (x << sh) for r, x in zip(rows, f.packed_at(j))]
        return tuple(rref_packed(self.field, rows, self.n) if self.reduce else rows)

    @staticmethod
    def _gather(i, factors):
        """The OR of one word of each (factor, shift), right to left, for mixed-radix
        indices i, into the first factor's words: a one-word factor as one row, a size 2^m
        split off by shift and mask, a listed factor read at its indices, and another one
        read as one range when that is no longer than i."""
        rows, b = np.zeros((1, 1), np.uint64), len(i)  # zero words where no factor is
        for x, (f, sh) in enumerate(factors):
            if f.size == 1:
                words = f.packed_at_batch(np.zeros(1, np.int64))
            else:
                i, j = (i >> (f.size.bit_length() - 1), i & (f.size - 1)) \
                    if f.size > 1 and not f.size & (f.size - 1) else np.divmod(i, f.size)
                lo, hi = j.min(initial=0), j.max(initial=-1) + 1
                words = f.packed_at_batch(j) \
                    if isinstance(f, (ListSource, PackedSource)) or hi - lo > len(j) \
                    else np.take(f.packed_at_batch(np.arange(lo, hi)), j - lo, axis=0)
            if sh:  # into its columns
                words <<= np.uint64(sh)
            if x:  # ORed into rows, or into the words while rows is one broadcast row
                words = np.bitwise_or(rows, words, out=rows if len(rows) == b else words)
            rows = words
        return rows if len(rows) == b else np.repeat(rows, b, axis=0)

    def packed_at_batch(self, idx):
        rows = self._gather(checked_indices(idx, self.size), [(self.last, 0), *self._head])
        return rref_bits_batch(rows, self.n)[0] if self.reduce else rows

    def packed_blocks(self):
        """With a Gabidulin handle (or a view of one) last, each head word
        in turn, ORed into each of the handle's blocks; else gathers."""
        if not isinstance(self.last, GabidulinHandle):
            yield from super().packed_blocks()
            return
        count = self.size // self.last.size
        for lo in range(0, count, BATCH):
            for head in self._gather(np.arange(lo, min(lo + BATCH, count)), self._head):
                for block in self.last.packed_blocks():
                    block = block | head
                    yield rref_bits_batch(block, self.n)[0] if self.reduce else block


class Cdc:
    """A set of k-subspaces of F_q^n with claimed minimum distance d, kept in
    one source: `words` are listed in a ListSource, packed once (Subspace
    values, checked to fit first, or an (N, k) array of packed RREF words;
    over GF(2) with n <= 64 the array is checked to be in RREF, over larger
    fields that is the builder's contract); a `stream` is kept as given.
    Subspace values are views built on demand (at, iteration, words())."""

    def __init__(self, field: FieldSpec, n: int, k: int, d_claim: int,
                 words=None, stream: StreamSource | None = None,
                 provenance=None):
        if (words is None) == (stream is None):
            raise CdcError("exactly one of words/stream required")
        self.field = field
        self.n = n
        self.k = k
        self.d_claim = d_claim
        self.provenance = provenance or {}
        if words is not None:
            if not isinstance(words, np.ndarray):
                words = list(words)
                for w in words:
                    if w.n != n or w.k != k or w.field != field:
                        raise CdcError(f"codeword {w!r} does not fit ({n},{k}) over GF({field.q})")
                words = [w.packed_rows() for w in words]
            elif words.shape[1:] != (k,):
                raise CdcError(f"packed words {words.shape} do not fit ({n},{k}) over GF({field.q})")
            elif field.q == 2 and n <= 64 and not in_rref(words.T, n).all():
                raise CdcError("packed words not in RREF")
            # listed once: streams, exports, random access and the duplicate keys read them
            stream = ListSource(field, n, words)
            if len(set(stream.packed)) != stream.size:
                raise CdcError("duplicate codeword")
        self.source = stream

    @property
    def size(self) -> int:
        return self.source.size

    @property
    def materialized(self) -> bool:
        """Listed codewords, not a computed stream."""
        return isinstance(self.source, (ListSource, PackedSource))

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"Cdc(n={self.n}, k={self.k}, d>={self.d_claim}, q={self.field.q}, size={self.size})"

    def at(self, i) -> Subspace:  # a view that keeps its packed rows, as iteration's do
        w = tuple(self.source.packed_at(i))
        return Subspace(self.field, self.n, unpack_rows(self.field, w, self.n), packed=w)

    def packed_at(self, i):
        return self.source.packed_at(i)

    def packed_at_batch(self, idx):
        return self.source.packed_at_batch(idx)

    def iter_packed(self):
        return self.source.iter_packed()

    def __iter__(self):
        """The words as Subspace views in index order; each keeps the
        packed rows it was unpacked from."""
        field, n = self.field, self.n
        return (Subspace(field, n, unpack_rows(field, w, n), packed=tuple(w))
                for w in self.source.iter_packed())

    def words(self):
        """A fresh list of the words as Subspace views: uncapped for a
        listed code; a computed stream is capped at MATERIALIZE_CAP and
        checked for duplicates."""
        if not self.materialized and self.size > MATERIALIZE_CAP:
            raise CdcError(f"size {self.size} exceeds materialization cap {MATERIALIZE_CAP}")
        words = list(self)
        if not self.materialized and len(set(w.rows for w in words)) != len(words):
            raise CdcError("duplicate codeword in stream")
        return words


class SpreadFamily(list):
    """Pairwise-disjoint spreads (e.g. the classes of a parallelism)."""


def _single_full(q, n):
    field = base_field(q)
    eye = pack_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])
    return Cdc(field, n, n, 2 * n, words=np.array([eye], packed_dtype(q, n)),
               provenance={"kind": "single_full"})


def _lifted(q, handle: RankCodeHandle) -> ProductSource:
    """Codewords R(I_k | M) for M in a k x m rank-metric handle."""
    return ProductSource(base_field(q), [_single_full(q, handle.m).source, handle],
                         (handle.m, handle.n))


def lifted_mrd(q: int, n: int, k: int, d: int) -> Cdc:
    """The CDC {R(I_k | M)} over a (k x (n-k), d/2)_q MRD code."""
    if d % 2 or d // 2 > k or k >= n:
        raise CdcError(f"bad lifted-MRD parameters (n={n}, k={k}, d={d})")
    handle = gabidulin_mrd(q, k, n - k, d // 2)
    c = Cdc(base_field(q), n, k, d, stream=_lifted(q, handle),
            provenance={"kind": "lifted_mrd", "q": q, "n": n, "k": k, "d": d})
    c.lmrd_handle = handle
    return c


# ----------------------------------------------------------------------
# spreads and parallelisms
# ----------------------------------------------------------------------

def spread(q: int, n: int, k: int) -> Cdc:
    """A k-spread of F_q^n via the subfield GF(q^k) structure."""
    if n % k:
        raise CdcError(f"k={k} does not divide n={n}")
    if (size := (q ** n - 1) // (q ** k - 1)) > MATERIALIZE_CAP:
        raise CdcError(f"a {k}-spread of F_{q}^{n} has {size} words, past MATERIALIZE_CAP")
    field = base_field(q)
    t = n // k
    if t == 1:
        return Cdc(field, n, k, 2 * k, stream=_single_full(q, n).source,
                   provenance={"kind": "spread", "q": q, "n": n, "k": k})
    ext = ext_field(field, k)
    words = []
    # normalized points of the projective space over GF(q^k)
    for lead in range(t):
        tail = t - lead - 1
        for idx in range(ext.order ** tail):
            point = [0] * lead + [1]
            rest = idx
            for _ in range(tail):
                rest, dig = divmod(rest, ext.order)
                point.append(dig)
            rows = []
            for j in range(k):
                scale = ext.basis[j]  # alpha^j
                vec = []
                for coord in point:
                    vec.extend(ext.element_to_vector(ext.mul(scale, coord)))
                rows.append(tuple(vec))
            words.append(rref_packed(field, pack_rows(field, rows), n))
    return Cdc(field, n, k, 2 * k, words=np.array(words, packed_dtype(q, n)),
               provenance={"kind": "spread", "q": q, "n": n, "k": k})


def _point_index(field, vec):
    """Index of the normalized projective point through vec."""
    lead = next(i for i, v in enumerate(vec) if v)
    inv = field.inv(vec[lead])
    x = 0
    for v in vec:
        x = x * field.q + field.mul(inv, v)
    return x


def _line_mask(line: Subspace, point_ids):
    mask = 0
    for vec in line.vectors():
        if any(vec):
            mask |= 1 << point_ids[_point_index(line.field, vec)]
    return mask


def _search_spreads(masks, candidate_ids, full_mask, npoints, forced):
    """All spreads containing line `forced`, drawn from candidate lines,
    lazily; branches on the lowest uncovered point."""
    by_point = [[] for _ in range(npoints)]
    for i in candidate_ids:
        m = masks[i]
        b = 0
        while m:
            if m & 1:
                by_point[b].append(i)
            m >>= 1
            b += 1

    def rec(covered, chosen):
        if covered == full_mask:
            yield tuple(chosen)
            return
        low = ~covered & full_mask
        low_bit = (low & -low).bit_length() - 1
        for i in by_point[low_bit]:
            if masks[i] & covered:
                continue
            chosen.append(i)
            yield from rec(covered | masks[i], chosen)
            chosen.pop()

    yield from rec(masks[forced], [forced])


def parallelism_2_of_F_q4(q: int) -> SpreadFamily:
    """q^2+q+1 pairwise-disjoint 2-spreads of F_q^4 partitioning all lines."""
    if q not in (2, 3):
        raise CdcError(f"no built-in parallelism search for q={q}")
    field = base_field(q)
    lines = list(enumerate_subspaces(q, 4, 2))
    npoints = (q ** 4 - 1) // (q - 1)
    point_ids = {}
    for ln in lines:
        for vec in ln.vectors():
            if any(vec):
                pid = _point_index(field, vec)
                if pid not in point_ids:
                    point_ids[pid] = len(point_ids)
    masks = [_line_mask(ln, point_ids) for ln in lines]
    full_mask = (1 << npoints) - 1
    classes = q * q + q + 1

    # anchor each spread on the smallest unused line to prune symmetric orders
    def partition_anchored(remaining):
        if not remaining:
            return []
        anchor = min(remaining)
        for spread_ids in _search_spreads(masks, sorted(remaining), full_mask,
                                          npoints, anchor):
            rest = partition_anchored(remaining - set(spread_ids))
            if rest is not None:
                return [spread_ids] + rest
        return None

    solution = partition_anchored(set(range(len(lines))))
    if solution is None or len(solution) != classes:
        raise CdcError(f"parallelism search failed for q={q}")
    members = [Cdc(field, 4, 2, 4, words=[lines[i] for i in ids],
                   provenance={"kind": "parallelism_class", "q": q, "class": j})
               for j, ids in enumerate(solution)]
    return SpreadFamily(members)


# ----------------------------------------------------------------------
# partial-spread subcodes
# ----------------------------------------------------------------------

def partial_spread_subcode(c: Cdc, strategy: str = "lmrd_nested") -> Cdc:
    """A subcode with pairwise distance 2k (pairwise trivial intersections):
    the seeds (the lifted nested k-subcode for "lmrd_nested", none for
    "greedy"), then greedily the words of c in canonical order, over a
    listed code or a stream of at most MATERIALIZE_CAP words; each kept
    word masks out, by one meet_dims scan of the indices left, the rest of
    c that meets it, itself included."""
    k, greedy = c.k, c.materialized or c.size <= MATERIALIZE_CAP
    if strategy == "lmrd_nested":
        handle = getattr(c, "lmrd_handle", None)
        if handle is None or not isinstance(handle, GabidulinHandle):
            raise CdcError("no lifted-MRD provenance on this code")
        sub = handle if handle.d_r == k else nested_subcode(handle, k)
        chosen = list(_lifted(c.field.q, sub).iter_packed())
    elif strategy == "greedy":
        if not greedy:
            raise CdcError(f"size {c.size} exceeds materialization cap {MATERIALIZE_CAP}")
        chosen = []
    else:
        raise CdcError(f"unknown strategy {strategy!r}")
    rest = canonical_order(c) if greedy else np.empty(0, dtype=np.int64)
    for w in chosen:
        rest = rest[meet_dims(c, w, rest) == 0]
    while len(rest):
        chosen.append(c.packed_at(int(rest[0])))
        rest = rest[1:][meet_dims(c, chosen[-1], rest[1:]) == 0]
    return Cdc(c.field, c.n, k, 2 * k,
               words=np.array(chosen, packed_dtype(c.field.q, c.n)).reshape(len(chosen), k),
               provenance={"kind": "partial_spread_subcode", "strategy": strategy,
                           "parent": c.provenance})
