"""Verification oracles: subspace listings, the meet dimensions of a code's
words with one subspace given by packed rows, the canonical order of a
code's words (the order of their text lines), the exact and the sampled
minimum-distance checks, and spread/parallelism coverage checks.
Subspaces are listed Schubert cell by cell in one canonical order
(_cells), each cell's RREF matrices as one numpy block; subspace_bases
packs the GF(2) listings once.

The exact check certifies a GF(2) code with n <= 64 by t-subspace
packing: two words are closer than the claim exactly when they share a
t-subspace, so it looks for shared subspaces level by level instead of
comparing pairs, and measures only the pairs it finds.  A level below t
is first probed on words spread over the whole code.  A level built whole
is sorted in memory when it is small, and otherwise each subspace's exact
rank in [0, [n, s]_2) (its Schubert cell's offset plus its free entries)
is test-and-set in a bitmap.  A lifted block [I_k | M] whose N_b M's
span ceil(log2 N_b) dimensions, more than half of that span, is
certified by its own algebra and only the other words climb
(_lifted_block): first where the climb would stream a ranked level, and
on a gathered code at the first level below t whose probe shares
nothing.  Any failed condition resumes the climb over the whole code.  A
code whose levels fit neither the sort nor a bitmap is refused
before it is read, whatever its word cap (refuse_past_budget).  Other
codes compare every pair, up to FULL_CHECK_CAP words or the given cap.

Pair sampling is counter-based (splitmix64 over a triangular unranking,
or past 2^32 words two outputs per pair), so reports are byte-identical
across platforms for a fixed seed.  Pairs are drawn and checked in numpy
chunks; every distance check ranks packed words (_gather, _ranks of a's
rows on b's), one rank_bits_batch a chunk over GF(2) with n <= 64, one
rank_bits a stack of Python ints past that, and one rank_rows over others.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from itertools import chain, combinations, takewhile
from operator import xor

import numpy as np

from .gf import base_field
from .linalg import (BATCH, PackedSource, _leading_bits, gaussian_binomial, packable,
                     packed_dtype, rank_bits, rank_bits_batch, rank_rows, rref_bits,
                     rref_bits_batch, sort_keys, spans, unpack_rows, word_tuples)
from .subspace import Subspace

ENUM_CAP = 10 ** 6
FULL_CHECK_CAP = 10 ** 5  # words of an exact check over other fields or past n = 64
KEY_CAP = 1 << 23  # subspace keys of one level sorted in memory; more are ranked into a bitmap
BITMAP_CAP = 1 << 30  # bits of a ranked level's bitmap, [n, s]_2
KEY_CHUNK = 1 << 14  # subspace keys (or a block's M's) per numpy pass; keys of a level's probes
PROBE = 32  # words of a level's first probe
COVERAGE_CAP = 1 << 22  # vectors of F_q^n counted by coverage_check


class CapExceeded(ValueError):
    pass


@dataclass
class VerificationReport:
    mode: str
    pairs_checked: int
    min_distance_found: int | None
    violations: list = dc_field(default_factory=list)
    seed: int | None = None
    wall_time: float = 0.0
    certificate: str | None = None  # a full check's "exhaustive" or "lifted_block"; not in to_json

    @property
    def ok(self):
        return not self.violations

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "min_distance_found": self.min_distance_found,
            "violations": self.violations,
            "seed": self.seed,
            "wall_time": round(self.wall_time, 3),
        }, sort_keys=False)


# ----------------------------------------------------------------------
# subspace enumeration
# ----------------------------------------------------------------------

def _cells(n, s):
    """(pivots, free entries (i, j) row by row) per Schubert cell of the
    s-subspaces of F_q^n, in canonical order: pivot sets lexicographically,
    then the free entries as base-q digits, the last entry lowest."""
    for piv in combinations(range(n), s):
        yield piv, [(i, j) for i in range(s) for j in range(piv[i] + 1, n) if j not in piv]


def _cell_blocks(q, n, k):
    """The (q^f, k, n) block of each cell's RREF matrices in canonical order;
    more than ENUM_CAP k-subspaces are refused before the first."""
    # q^(k(n-k)) <= [n, k]_q: a huge count is refused before it is formed
    if q ** min(k * (n - k), ENUM_CAP.bit_length()) > ENUM_CAP \
            or gaussian_binomial(n, k, q) > ENUM_CAP:
        raise CapExceeded(f"the {k}-subspaces of F_{q}^{n} exceed the cap {ENUM_CAP}")
    for piv, free in _cells(n, k):
        block = np.zeros((q ** len(free), k, n), np.min_scalar_type(q - 1))
        block[:, np.arange(k), list(piv)] = 1
        rows, cols = np.array(free, np.intp).reshape(-1, 2).T
        block[:, rows, cols] = np.indices((q,) * len(free)).reshape(len(free), len(block)).T
        yield block


def enumerate_subspaces(q: int, n: int, k: int):
    """Every k-subspace of F_q^n exactly once, in the canonical order of _cells."""
    field = base_field(q)
    for block in _cell_blocks(q, n, k):  # k = 0: one empty matrix
        for rows in zip(*(word_tuples(block[:, i]) for i in range(k))) if k else [()]:
            yield Subspace(field, n, rows)


@lru_cache(maxsize=None)
def subspace_bases(n, s):
    """The packed RREF rows (column j at bit n - 1 - j) of every s-subspace
    of F_2^n, an (M, s) uint64 array in the order of enumerate_subspaces,
    which refuses more than ENUM_CAP of them as well."""
    weights = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    return np.concatenate([(block * weights).sum(axis=2, dtype=np.uint64)
                           for block in _cell_blocks(2, n, s)])


# ----------------------------------------------------------------------
# pairwise distance kernels
# ----------------------------------------------------------------------

def _gather(code, idx):
    """The packed words of code at the int64 indices idx, a (B, k) array: the
    source's gather where the code packs, else packed_at as packed_dtype."""
    if packable(code.field, code.n, code.k):
        return code.packed_at_batch(idx)
    words = list(map(code.packed_at, idx.tolist()))
    return np.array(words, packed_dtype(code.field.q, code.n)).reshape(len(words), code.k)


def _ranks(code, a, b):
    """The rank in code's space of row x of the (B, k) array a stacked on row
    x of b, or on b's one row: rank_bits_batch where the code packs, else
    rank_bits of each stack of Python ints over GF(2), rank_rows otherwise."""
    field, n = code.field, code.n
    if packable(field, n, code.k):
        return rank_bits_batch(a, n, b)
    ranks = (rank_bits(s, n) if field.q == 2 else rank_rows(field, unpack_rows(field, s, n), n)
             for s in word_tuples(np.hstack([a, np.broadcast_to(b, (len(a), b.shape[1]))])))
    return np.fromiter(ranks, np.int64, len(a))


def meet_dims(code, rows, idx=None):
    """dim(U ∩ W) for each word U of code at idx (default every word), as an
    int64 array, W spanned by the packed rows of a basis (a packed word, or
    Subspace.packed_rows()): the _ranks of the words on those rows, per
    _gather of BATCH indices or, for a code that packs given no idx, per
    block of its stream."""
    if idx is None and packable(code.field, code.n, code.k):
        blocks = code.source.packed_blocks()
    else:
        idx = np.arange(code.size) if idx is None else np.asarray(idx, dtype=np.int64)
        blocks = (_gather(code, idx[lo:lo + BATCH]) for lo in range(0, len(idx), BATCH))
    w = np.array(rows, dtype=packed_dtype(code.field.q, code.n)).reshape(1, -1)
    return code.k + w.shape[1] - np.concatenate([np.empty(0, np.int64),
                                                 *(_ranks(code, b, w) for b in blocks)])


def canonical_order(code):
    """The int64 indices of code's words in the order of their text lines.
    Over GF(2) with n <= 64 the linalg.sort_keys of the block stream are
    argsorted (keys differ as words do), or lexsorted past one key a word;
    other codes are sorted on Subspace.sort_key."""
    if not packable(code.field, code.n, code.k):
        return np.array(sorted(range(code.size), key=lambda i: code.at(i).sort_key()),
                        dtype=np.int64)
    blocks = chain([np.zeros((0, code.k), np.uint64)], code.source.packed_blocks())
    keys = [np.concatenate(key) for key in zip(*(sort_keys(b, code.n) for b in blocks))]
    return np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])


def _pair_rows_report(code, i, j):
    return [code.at(i).serialize(), code.at(j).serialize()]


@lru_cache(maxsize=None)
def _cell_offsets(n, s):
    """(pivot masks ascending, offsets): the rank of the first s-subspace of
    each pivot set, column j at bit n - 1 - j.  Lexicographic order of the
    sets is descending order of their masks."""
    cells = list(_cells(n, s))
    masks = [sum(1 << (n - 1 - p) for p in piv) for piv, _ in cells]
    sizes = [0] + [1 << len(free) for _, free in cells[:-1]]
    return np.array(masks[::-1], np.uint64), np.cumsum(sizes, dtype=np.uint64)[::-1]


@lru_cache(maxsize=None)
def _cell_groups(k, s):
    """(pivots, group): the s pivots of each pivot set of the s x k RREF
    matrices C, as a (g, s) array, and the set of each row of
    subspace_bases(k, s).  The key C G of a RREF word G has the pivots of
    G's rows at C's pivots."""
    cells = list(_cells(k, s))
    return (np.array([piv for piv, _ in cells], np.intp).reshape(len(cells), s),
            np.repeat(np.arange(len(cells)), [1 << len(free) for _, free in cells]))


def _key_dtype(s, n):
    """The narrowest unsigned dtype of s n bits; past 64 bits, s rows of
    the narrowest one of n bits read as one void scalar."""
    return np.min_scalar_type((1 << s * n) - 1) if s * n <= 64 else \
        np.dtype((np.void, s * _key_dtype(1, n).itemsize))


def _level_keys(words, n, s):
    """The key of each s-subspace of each RREF word of a (b, k) array,
    subspace-major (key x belongs to word x mod b): its RREF rows side by
    side."""
    table, dtype = subspace_bases(words.shape[1], s).astype(np.intp), _key_dtype(s, n)
    vecs = spans(words)
    cols = [vecs[c].ravel() for c in table.T]  # row i of every key
    if dtype.kind == "V":
        return np.stack(cols, axis=1).astype(_key_dtype(1, n)).view(dtype).ravel()
    return reduce(lambda key, col: key << np.uint64(n) | col, cols).astype(dtype)


def _level_ranks(words, n, s):
    """The rank in [0, [n, s]_2) of each s-subspace of each RREF word, laid
    out as _level_keys: in the order of enumerate_subspaces, the offset of
    its pivot set plus its free entries read as bits, row 0 highest, with
    the pivot columns squeezed out.  Squeezing is linear, so for each pivot
    set g of the matrices C the word's rows are squeezed once and spanned."""
    (masks, offsets), (pivots, group) = _cell_offsets(n, s), _cell_groups(words.shape[1], s)
    g, b, k = len(pivots), len(words), words.shape[1]
    top = _leading_bits(words, n).T[pivots]  # (g, s, b): the keys' pivot bits, highest first
    free = np.broadcast_to(words, (g, b, k))
    for j in range(s):  # the lower pivots keep their bit positions
        low = top[:, j, :, None] - np.uint64(1)
        free = free >> np.uint64(1) & ~low | free & low
    vecs = spans(free.reshape(g * b, k)).reshape(-1, b)  # row v g + c: vector v of set c
    widths = np.bitwise_count(top - np.uint64(1)).astype(np.uint64) \
        - np.arange(s - 1, -1, -1, dtype=np.uint64)[:, None]  # free entries of each key row
    ranks = offsets[np.searchsorted(masks, np.bitwise_or.reduce(top, axis=1))][group]
    rows = subspace_bases(k, s).astype(np.intp) * g + group[:, None]  # C's rows in vecs
    shift = np.zeros((g, b), np.uint64)
    for i in reversed(range(s)):
        ranks += vecs[rows[:, i]] << shift[group]
        shift += widths[:, i]
    return ranks.ravel()


def _chunks(code, words, s):
    """(first index, RREF (b, k) uint64 words) over the whole code in index
    order, b words to about KEY_CHUNK of their s-subspaces: slices of words,
    the code gathered once, or else of the code's block stream."""
    step, lo = max(1, KEY_CHUNK // gaussian_binomial(code.k, s, 2)), 0
    blocks = [words] if words is not None else \
        (rref_bits_batch(block, code.n)[0] for block in code.source.packed_blocks())
    for block in blocks:
        for at in range(0, len(block), step):
            yield lo + at, block[at:at + step]
        lo += len(block)


def _probe_shares(code, words, s):
    """Whether two of p words spread over the code, at indices
    i (N - 1) // (p - 1) for i < p, share an s-subspace: tried for
    p = PROBE, then twice as many, up to the most words whose keys fit in
    KEY_CHUNK.  A code not gathered is gathered per probe."""
    top = min(KEY_CHUNK // gaussian_binomial(code.k, s, 2), code.size)
    p = min(PROBE, top)
    while p >= 2:
        idx = np.arange(p) * (code.size - 1) // (p - 1)
        probe = words[idx] if words is not None else \
            rref_bits_batch(code.packed_at_batch(idx), code.n)[0]
        keys = np.sort(_level_keys(probe, code.n, s))
        if (keys[1:] == keys[:-1]).any():
            return True
        if p == top:
            break
        p = min(2 * p, top)
    return False


def _shared_keys(code, words, s, ranked, first):
    """The keys of the s-subspaces that two or more words share; with first,
    enough of them to show that there are some.  A level not ranked is
    sorted in memory.  A ranked level streams its ranks chunk by chunk
    into a bitmap of [n, s]_2 bits: a rank whose bit is set, or that
    repeats in its sorted chunk, is shared, and each byte takes the OR of
    its chunk's bits at once (a fancy |= would drop all but one bit per
    repeated byte)."""
    if not ranked:
        keys, pos = np.empty(code.size * gaussian_binomial(code.k, s, 2), _key_dtype(s, code.n)), 0
        for _, chunk in _chunks(code, words, s):
            chunk = _level_keys(chunk, code.n, s)
            keys[pos:pos + len(chunk)] = chunk
            pos += len(chunk)
        keys.sort()
        return keys[1:][keys[1:] == keys[:-1]]
    seen, found = np.zeros(-(-gaussian_binomial(code.n, s, 2) // 8), np.uint8), []
    for _, chunk in _chunks(code, words, s):
        ranks = np.sort(_level_ranks(chunk, code.n, s))
        byte, bit = ranks >> np.uint64(3), np.left_shift(1, ranks & np.uint64(7)).astype(np.uint8)
        found.append(np.concatenate([ranks[1:][ranks[1:] == ranks[:-1]],
                                     ranks[(seen[byte] & bit) != 0]]))
        if first and len(found[-1]):
            break
        start = np.flatnonzero(np.r_[True, byte[1:] != byte[:-1]])
        seen[byte[start]] |= np.bitwise_or.reduceat(bit, start)
    return np.concatenate(found)


def _sharing_pairs(code, words, s, shared, ranked):
    """(i, j), i < j, in (i, j) order and once each: the pairs of words
    that share an s-subspace keyed in shared, found by a pass that keeps
    only the keys in shared with their owners."""
    level, keys, owners, N = _level_ranks if ranked else _level_keys, [], [], code.size
    shared = np.unique(shared)  # sorted once, searched by every chunk
    for lo, chunk in _chunks(code, words, s):
        b, chunk = len(chunk), level(chunk, code.n, s)
        near = np.searchsorted(shared, chunk).clip(max=len(shared) - 1)
        hit = np.flatnonzero(shared[near] == chunk)
        keys.append(chunk[hit])
        owners.append(lo + hit % b)
    order = np.argsort(np.concatenate(keys))
    keys, owners = np.concatenate(keys)[order], np.concatenate(owners)[order]
    at, off, pairs = np.flatnonzero(keys[1:] == keys[:-1]), 1, []
    while at.size:  # keys[at] == keys[at + off]: both ends lie in one run
        a, b = owners[at], owners[at + off]
        pairs.append(np.minimum(a, b) * N + np.maximum(a, b))
        off += 1
        at = at[at + off < len(keys)]
        at = at[keys[at + off] == keys[at]]
    return np.divmod(np.unique(np.concatenate(pairs)), N)


def _ranked(n, k, s, N):
    """Whether level s of N words is ranked into a bitmap: past KEY_CAP keys,
    with [n, s]_2 <= BITMAP_CAP."""
    return N * gaussian_binomial(k, s, 2) > KEY_CAP and gaussian_binomial(n, s, 2) <= BITMAP_CAP


def _levels(k, d, N):
    """(t, the levels s that the climb of the exact check can reach: 1, ...,
    t, at most k, while a level has no more keys than the code has pairs).
    Unless t >= 1 and they reach min(t, k), every pair is measured."""
    t = k + 1 + (-d // 2)  # d(U, W) < d iff dim(U ∩ W) >= t
    return t, list(takewhile(lambda s: 2 * gaussian_binomial(k, s, 2) <= N - 1,
                             range(1, min(t, k) + 1)))


def refuse_past_budget(field, n, k, d, N, cap=None):
    """Raise CapExceeded unless the exact check of N words fits.  Given a
    cap, N <= cap.  A code that packs, and whose climb settles the check,
    must also fit every level it can reach into the in-memory sort
    (KEY_CAP keys) or a bitmap of BITMAP_CAP bits; a check that measures
    every pair (other fields, n > 64, a claim past 2k, too few words for a
    level) must have N <= FULL_CHECK_CAP unless a cap is given."""
    t, levels = _levels(k, d, N)
    climbs = packable(field, n, k) and 1 <= t and len(levels) == min(t, k)
    if cap is None and not climbs:
        cap = FULL_CHECK_CAP
    if cap is not None and N > cap:
        raise CapExceeded(f"{N} codewords exceeds full-check cap {cap}")
    for s in levels if climbs else []:
        keys, bits = N * gaussian_binomial(k, s, 2), gaussian_binomial(n, s, 2)
        if keys > KEY_CAP and bits > BITMAP_CAP:
            raise CapExceeded(
                f"{N} codewords exceed the full check's memory budget: level {s} has "
                f"{keys} keys, past the sort cap {KEY_CAP}, and [{n},{s}]_2 = {bits} "
                f"ranks, past the bitmap cap {BITMAP_CAP}; such a code needs a "
                f"structural certificate (a planned verify mode) or --mode sample")


def _climb_plan(code):
    """(t, the levels of code's climb, whether the climb streams a ranked
    level); no levels where the code does not pack."""
    n, k, N = code.n, code.k, code.size
    t, levels = _levels(k, code.d_claim, N)
    if not packable(code.field, n, k):  # no levels: every pair is measured
        levels = []
    return t, levels, any(_ranked(n, k, s, N) for s in levels)


def _climb(code, lifted=False):
    """(exact minimum distance, [i, j, d] below the claim in (i, j) order,
    certificate): the climb where the code packs, else every pair measured,
    "exhaustive".  With lifted, the lifted-block verdict (_lifted_block) is
    tried once: first where the climb would stream a ranked level, and on
    a gathered code at the first level below t whose probe shares nothing,
    before that level is built whole.  A verdict ends the check as
    "lifted_block"; a failed one resumes the climb where it stood."""
    n, k, N, d_claim = code.n, code.k, code.size, code.d_claim

    def measured(i, j, a, b):  # (min, [i, j, d] for d < d_claim) over pairs (i, j): _ranks(a, b)
        d = 2 * _ranks(code, a, b) - 2 * k
        return int(d.min()), np.stack([i, j, d], axis=1)[d < d_claim].tolist()

    t, levels, streamed = _climb_plan(code)
    if lifted and streamed and (low := _lifted_block(code)) is not None:
        return low, [], "lifted_block"
    # a code whose levels are all sorted in memory is gathered once; a ranked one streams
    words = None if not levels or streamed else \
        rref_bits_batch(code.packed_at_batch(np.arange(N)), n)[0]
    for s in levels:
        if s < t and _probe_shares(code, words, s):
            continue
        if lifted and s < t and not streamed:
            lifted = False
            if (low := _lifted_block(code, words)) is not None:
                return low, [], "lifted_block"
        ranked = _ranked(n, k, s, N)
        shared = _shared_keys(code, words, s, ranked, first=s < t)
        if not len(shared):  # no two words share an s-subspace
            return 2 * (k - s + 1), [], "exhaustive"
        if s == t:
            i, j = _sharing_pairs(code, words, s, shared, ranked)
            return *measured(i, j, code.packed_at_batch(i), code.packed_at_batch(j)), "exhaustive"
    if t > k and len(levels) == k:  # every level shares: equal words, which a claim <= 0 allows
        return 0, [], "exhaustive"
    words, low, bad = _gather(code, np.arange(N)), 2 * k, []
    for i in range(N - 1):  # more keys than pairs, or a claim past 2k: measure every pair
        m, rows = measured(np.full(N - 1 - i, i), np.arange(i + 1, N), words[i + 1:], words[[i]])
        low = min(low, m)
        bad += rows
    return low, bad, "exhaustive"


def _cross_bounds(words, n, k):
    """2 (k - j) for each RREF word of a (B, k) uint64 array with j pivots in
    the first k columns: the Hamming distance of its identifying vector to
    1^k 0^(n - k), so at most its distance to every word [I_k | M]
    (Etzion and Silberstein, 2009)."""
    return 2 * (k - np.count_nonzero(words >> np.uint64(n - k), axis=1))


def _split(code, words=None):
    """One pass over code's RREF words, the gathered (N, k) array words or
    else the code's block stream: (the M of each block word [I_k | M], its
    rows side by side in k (n - k) bits, row 0 highest; the rest as one
    (R, k) array; their least _cross_bounds, 2k if none).  Both arrays are
    the written prefixes of arrays of N rows, whose other pages are never
    touched."""
    n, k, h, N = code.n, code.k, code.n - code.k, code.size
    hole = np.uint64((1 << h) - 1)  # the last n - k columns
    eye = np.uint64(1) << np.arange(n - 1, h - 1, -1, dtype=np.uint64)  # row i's pivot bit
    ms, rest = np.empty(N, np.min_scalar_type((1 << k * h) - 1)), \
        np.empty((N, k), np.min_scalar_type((1 << n) - 1))
    nm = nr = 0
    cross = 2 * k
    blocks = [words] if words is not None else \
        (rref_bits_batch(block, n)[0] for block in code.source.packed_blocks())
    for block in blocks:
        lifted = ((block & ~hole) == eye).all(axis=1)
        m, other = block[lifted] & hole, block[~lifted]
        ms[nm:nm + len(m)] = reduce(lambda acc, row: acc << np.uint64(h) | row, m.T,
                                    np.zeros(len(m), np.uint64))
        rest[nr:nr + len(other)] = other
        cross = int(_cross_bounds(other, n, k).min(initial=cross))
        nm, nr = nm + len(m), nr + len(other)
    return ms[:nm], rest[:nr], cross


def _is_linear(ms, k, h, need):
    """The least rank of a nonzero vector of the span of ms, N_b >= 2 k x h
    matrices packed as _split packs them, k h + r <= 64, where they are N_b
    distinct vectors of an r-dimensional GF(2)-space, r = ceil(log2 N_b);
    else, or once a vector of rank below need turns up, None.  Such a set
    fills more than half of its span, so every nonzero vector x of the span
    is a difference of two of them: |C & (C + x)| >= 2 N_b - 2^r > 0.

    The RREF basis of r + 64 values spread over ms, at i (N_b - 1) //
    (r + 63), grows by each value it leaves unreduced.  Byte j of a value
    indexes a table whose entry v XORs, for each basis row i with its pivot
    at a set bit of v, row i above b = len(basis) bits and bit i below
    them: the XOR s of a value's entries has the value above b bits exactly
    when the value is in the span, and below them its coordinates, of
    which one mark each shows that the values are distinct.  The span is
    then ranked in chunks of at most KEY_CHUNK vectors: the spans table of
    the low basis rows XOR one combination of the others."""
    N, width = len(ms), k * h
    r, v = (N - 1).bit_length(), np.arange(256, dtype=np.uint64)
    basis = rref_bits(ms[np.arange(r + 64) * (N - 1) // (r + 63)].tolist(), width)[0]
    while True:
        if len(basis) > r:
            return None
        b, tables = np.uint64(len(basis)), {}
        for i, row in enumerate(basis):
            j, pivot = divmod(row.bit_length() - 1, 8)
            tables[j] = tables.get(j, 0) ^ (v >> np.uint64(pivot) & np.uint64(1)) \
                * np.uint64((row << len(basis)) | (1 << i))
        seen = np.zeros(1 << len(basis), bool)
        for lo in range(0, N, KEY_CHUNK):
            x = ms[lo:lo + KEY_CHUNK].astype(np.uint64)
            s = reduce(xor, (t[x >> np.uint64(8 * j) & np.uint64(255)] for j, t in tables.items()),
                       np.zeros(len(x), np.uint64))
            if (off := np.flatnonzero(s >> b != x)).size:
                basis = rref_bits(basis + [int(x[off[0]] ^ (s[off[0]] >> b))], width)[0]
                break
            seen[s & np.uint64(len(seen) - 1)] = True
        else:
            break
    if np.count_nonzero(seen) < N:  # repeated values, or fewer than r dimensions
        return None
    cut = min(r, KEY_CHUNK.bit_length() - 1)  # the basis rows of one chunk's table
    table, tops = (spans(np.array([rows], np.uint64))[:, 0] for rows in (basis[:cut], basis[cut:]))
    hole, least = np.uint64((1 << h) - 1), min(k, h)
    for top in tops:
        x = table ^ top
        ranks = rank_bits_batch(np.stack([x >> np.uint64(h * (k - 1 - i)) & hole
                                          for i in range(k)], axis=1), h)
        least = int(ranks[ranks > 0].min(initial=least))
        if least < need:
            return None
    return least


def _lifted_block(code, words=None):
    """The lifted-block verdict on code's minimum distance (see
    full_pairwise_check), or None where one of its conditions fails: a
    block of N_b >= 2 words whose M's _is_linear, so that its least
    distance is 2 x the least nonzero rank over their span (d(U, U') =
    2 rank(M - M'), Silva, Kschischang and Kotter, 2008), at least the
    claim; a rest that climbs with no violation; cross bounds no lower
    than the verdict; and k (n - k) + r <= 64.  A gathered code passes its
    RREF words, which _split then reads instead of the stream."""
    n, k, d = code.n, code.k, code.d_claim
    if k * (n - k) >= 64:  # _split packs each M into one uint64
        return None
    ms, rest, cross = _split(code, words)
    if len(ms) < 2 or k * (n - k) + (len(ms) - 1).bit_length() > 64 or cross < d \
            or (rank := _is_linear(ms, k, n - k, -(-d // 2))) is None:
        return None
    # a code of code's class over the rest (cdc, which defines the class, imports this module)
    low, bad, _ = _climb(type(code)(code.field, n, k, d, stream=PackedSource(code.field, n, rest))) \
        if len(rest) > 1 else (2 * k, [], None)
    low = min(low, 2 * rank)
    return low if not bad and cross >= low else None


def full_pairwise_check(code, cap: int | None = None) -> VerificationReport:
    """Exact minimum distance over all N (N - 1) / 2 pairs, and every pair
    closer than the claim d with its exact distance, in (i, j) order.

    GF(2) with n <= 64 takes time linear in N: d(U, W) < d exactly when U
    and W share a t-subspace, t = k - ceil(d/2) + 1 (Kohnert and Kurz,
    2008).  Levels s = 1, 2, ... look for two words that share an
    s-subspace.  Below t a level is first probed on words spread over the
    whole code, and built whole only when they share nothing; the first
    level built whole that shares nothing ends the climb, and the minimum
    is 2k - 2 (s - 1).  Level t, built whole, names the violations.  A
    level of at most KEY_CAP keys is sorted in memory; a larger one streams
    the exact rank of each key into a bitmap of [n, s]_2 bits, stops below
    t at the first collision, and at t finds the owners of the colliding
    ranks in a second pass.  Memory: a code whose levels are all sorted is
    gathered once, beside one level's keys; a ranked code streams, beside
    one bitmap and one chunk; and the violations.  Every pair is measured
    when that is fewer than a level's keys or when d > 2k, over other
    fields and past n = 64.

    The lifted-block verdict (_lifted_block) is tried first where the
    climb would stream a ranked level, and on a gathered code at the first
    level below t whose probe shares nothing, before that level is built
    whole.  One pass splits off the words [I_k | M]; if their N_b >= 2 M's
    are distinct and span r = ceil(log2 N_b) dimensions, every nonzero
    vector of the span is the difference of two of them (N_b > 2^(r-1)),
    so twice the least nonzero rank over the span is the block's minimum.
    If that is at least the claim, the other words climb with no
    violation, and each of those has few enough pivots in the first k
    columns, the minimum is min(that, the others' minimum) and no pair of
    the block is keyed.  The report's certificate is then "lifted_block";
    otherwise the climb resumes where it stood, and it is "exhaustive".
    The verdict holds the M's and the other words in memory, beside one
    byte for each of the 2^r vectors of the span and one chunk of them.

    A code past refuse_past_budget's memory budget is refused, and given a
    cap, so is one of more than cap words."""
    start = time.monotonic()
    N = code.size
    refuse_past_budget(code.field, code.n, code.k, code.d_claim, N, cap)
    total_pairs = N * (N - 1) // 2
    if N < 2:
        return VerificationReport("full", 0, None, [], wall_time=time.monotonic() - start,
                                  certificate="exhaustive")
    min_dist, bad, certificate = _climb(code, lifted=True)
    violations = [{"pair": _pair_rows_report(code, i, j), "distance": d} for i, j, d in bad]
    return VerificationReport("full", total_pairs, min_dist, violations,
                              wall_time=time.monotonic() - start, certificate=certificate)


# ----------------------------------------------------------------------
# seeded sampling
# ----------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _unrank_pair(t: int):
    """t-th pair (a, b), a < b, ordered by b then a."""
    b = (1 + math.isqrt(8 * t + 1)) // 2
    while b * (b - 1) // 2 > t:
        b -= 1
    while (b + 1) * b // 2 <= t:
        b += 1
    return t - b * (b - 1) // 2, b


def sample_pairs(n_items: int, pairs: int, seed: int):
    """Deterministic stream of index pairs (a < b) from a 64-bit counter."""
    total = n_items * (n_items - 1) // 2
    state = seed & _M64
    for _ in range(pairs):
        state, z = _splitmix64(state)
        yield _unrank_pair(z % total)


def _unrank_pairs(t):
    """_unrank_pair over uint64 pair indices of a code of at most 2^32 words,
    where b (b - 1) and b (b + 1) stay below 2^64.  The float square root is
    within 2^-19 of the exact one: b is off by at most one before the fix-up.
    The cast truncates, which floors the positive root."""
    b = ((np.sqrt(8 * t.astype(np.float64) + 1) + 1) * 0.5).astype(np.uint64)
    b -= b * (b - 1) >> 1 > t
    b += (b + 1) * b >> 1 <= t
    return (t - (b * (b - 1) >> 1)).view(np.int64), b.view(np.int64)


def _pair_chunks(n_items: int, pairs: int, seed: int):
    """(a, b), a < b, as int64 arrays of at most BATCH pairs; splitmix64
    wraps mod 2^64 in np.uint64.  Up to 2^32 words this is
    sample_pairs(n_items, pairs, seed).  Past that a pair index mod
    N(N - 1)/2 cannot reach most pairs, so pair i takes outputs 2i - 1 and
    2i: a = z1 mod N and b = (a + 1 + z2 mod (N - 1)) mod N."""
    per = 1 + (n_items > 1 << 32)  # splitmix64 outputs per pair
    for lo in range(0, pairs, BATCH):
        z = np.arange(per * lo + 1, per * min(lo + BATCH, pairs) + 1, dtype=np.uint64) \
            * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed & _M64)
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        if per == 1:
            yield _unrank_pairs(z % np.uint64(n_items * (n_items - 1) // 2))
            continue
        a = z[0::2] % np.uint64(n_items)
        b = (a + np.uint64(1) + z[1::2] % np.uint64(n_items - 1)) % np.uint64(n_items)
        yield np.minimum(a, b).astype(np.int64), np.maximum(a, b).astype(np.int64)


def sampled_check(code, pairs: int, seed: int = 0) -> VerificationReport:
    """Seeded uniform pair sampling over a random-access code; violations
    in sample order."""
    start = time.monotonic()
    N = code.size
    if pairs <= 0 or N < 2:
        return VerificationReport("sampled", 0, None, [], seed=seed,
                                  wall_time=time.monotonic() - start)
    lows, violations = [], []
    for a, b in _pair_chunks(N, pairs, seed):
        words = _gather(code, np.concatenate([a, b]))
        d = 2 * _ranks(code, words[:len(a)], words[len(a):]) - 2 * code.k
        lows.append(int(d.min()))
        violations += [{"pair": _pair_rows_report(code, int(a[x]), int(b[x])),
                        "distance": int(d[x])} for x in np.flatnonzero(d < code.d_claim)]
    return VerificationReport("sampled", pairs, min(lows), violations, seed=seed,
                              wall_time=time.monotonic() - start)


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------

def coverage_check(obj):
    """Exact-once coverage: nonzero vectors for a claimed spread, lines for
    a list of disjoint spreads, such as a parallelism's cdc.SpreadFamily."""
    if isinstance(obj, list):  # each line keyed by its packed word
        seen = Counter(chain.from_iterable(member.iter_packed() for member in obj))
        bad = sum(v != 1 for v in seen.values())
        return {"mode": "lines", "covered": len(seen),
                "multiplicity_violations": bad, "ok": not bad}
    code = obj
    q, n = code.field.q, code.n
    # q^m > COVERAGE_CAP for m = its bit length, so q^n need not be formed
    if q ** min(n, COVERAGE_CAP.bit_length()) > COVERAGE_CAP:
        raise CapExceeded(f"{q}^{n} vectors exceeds coverage cap {COVERAGE_CAP}")
    if q == 2:
        counts = np.zeros(1 << n, dtype=np.int64)
        step = max(1, (1 << 16) >> code.k)  # at most 2^16 vectors at a time
        for lo in range(0, code.size, step):
            vecs = spans(code.packed_at_batch(np.arange(lo, min(lo + step, code.size))))
            np.add.at(counts, vecs[1:], 1)
        nonzero = counts[1:]
        missed = int((nonzero == 0).sum())
        multi = int((nonzero > 1).sum())
    else:
        seen = {}
        for w in code:
            for vec in w.vectors():
                if any(vec):
                    seen[vec] = seen.get(vec, 0) + 1
        expected = q ** n - 1
        missed = expected - len(seen)
        multi = sum(1 for v in seen.values() if v > 1)
    return {"mode": "vectors", "missed": missed,
            "multiplicity_violations": multi, "ok": missed == 0 and multi == 0}
