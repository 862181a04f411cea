"""Verification oracles: subspace enumeration, the meet dimensions of a
code's words with one subspace, the exact and the sampled minimum-distance
checks, and spread/parallelism coverage checks.

The exact check certifies a GF(2) code with n <= 64 by t-subspace
packing: two words are closer than the claim exactly when they share a
t-subspace, so it sorts keys of shared subspaces level by level instead
of comparing pairs, and measures only the pairs it finds.  Other codes
compare every pair.

Pair sampling is counter-based (splitmix64 over a triangular unranking,
or past 2^32 words two outputs per pair), so reports are byte-identical
across platforms for a fixed seed.  Pairs are drawn and checked in numpy
chunks; over GF(2) with n <= 64 each chunk is one packed_at_batch gather
and one rank_bits_batch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .gf import base_field
from .linalg import (BATCH, gaussian_binomial, pack_row, packable, rank_bits_batch, rref_bits_batch,
                     spans)
from .subspace import Subspace, distance, intersection_dim

ENUM_CAP = 10 ** 6
FULL_CHECK_CAP = 10 ** 5
KEY_CAP = 1 << 23  # subspace keys per sort in the full check; more go to hash buckets
KEY_CHUNK = 1 << 14  # subspace keys built per numpy pass
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

def enumerate_subspaces(q: int, n: int, k: int):
    """Every k-subspace of F_q^n exactly once, in canonical order:
    pivot-column sets lexicographically, free entries in base-q order."""
    # q^(k(n-k)) <= [n, k]_q: a huge count is refused before it is formed
    if q ** min(k * (n - k), ENUM_CAP.bit_length()) > ENUM_CAP \
            or gaussian_binomial(n, k, q) > ENUM_CAP:
        raise CapExceeded(f"the {k}-subspaces of F_{q}^{n} exceed the cap {ENUM_CAP}")
    field = base_field(q)
    if k == 0:
        yield Subspace(field, n, [])
        return
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivot_set]
        for idx in range(q ** len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            rest = idx
            for (i, j) in reversed(free):
                rest, dig = divmod(rest, q)
                rows[i][j] = dig
            yield Subspace(field, n, [tuple(r) for r in rows])


# ----------------------------------------------------------------------
# pairwise distance kernels
# ----------------------------------------------------------------------

def meet_dims(code, W: Subspace, idx=None):
    """dim(U ∩ W) for each word U of code at idx (default every word), as
    an int64 array.  Over GF(2) with n <= 64 each BATCH of words is one
    gather and one rank_bits_batch of the words stacked on W's rows; other
    codes go word by word through intersection_dim."""
    idx = np.arange(code.size) if idx is None else np.asarray(idx, dtype=np.int64)
    if not packable(code.field, code.n, code.k):
        return np.array([intersection_dim(code.at(i), W) for i in idx.tolist()], dtype=np.int64)
    w, ranks = np.array(W.packed_rows(), dtype=np.uint64), np.empty(len(idx), dtype=np.int64)
    for lo in range(0, len(idx), BATCH):
        words = code.packed_at_batch(idx[lo:lo + BATCH])
        ranks[lo:lo + len(words)] = rank_bits_batch(
            np.hstack([words, np.tile(w, (len(words), 1))]), code.n)
    return code.k + W.k - ranks


def _pair_rows_report(code, i, j):
    return [code.at(i).serialize(), code.at(j).serialize()]


@lru_cache(maxsize=None)
def _span_indices(k, s):
    """(m, s) span indices, one row per s x k GF(2) matrix C in RREF: row i
    of C picks span vector sum_j C[i, j] 2^j.  C G is in RREF when G is, so
    these read every s-subspace of a RREF word G off its span, canonically."""
    return np.array([[pack_row(r[::-1]) for r in c.gen.rows]
                     for c in enumerate_subspaces(2, k, s)], dtype=np.intp)


def _key_dtype(s, n):
    """The narrowest unsigned dtype of s n bits; past 64 bits, s rows of
    the narrowest one of n bits read as one void scalar."""
    return np.min_scalar_type((1 << s * n) - 1) if s * n <= 64 else \
        np.dtype((np.void, s * _key_dtype(1, n).itemsize))


def _level_keys(words, n, s, passes):
    """(first word, keys, bucket) per chunk of words.  The key of each
    s-subspace of each word, subspace-major, is its RREF rows side by side;
    its bucket is a multiplicative hash of the rows mod passes."""
    table, dtype = _span_indices(words.shape[1], s), _key_dtype(s, n)
    step = max(1, KEY_CHUNK // len(table))
    for lo in range(0, len(words), step):
        vecs = spans(words[lo:lo + step])
        cols = [vecs[c].ravel() for c in table.T]  # row i of every key
        if dtype.kind == "V":
            keys = np.stack(cols, axis=1).astype(_key_dtype(1, n)).view(dtype).ravel()
        else:
            keys = reduce(lambda key, col: key << np.uint64(n) | col, cols).astype(dtype)
        bucket = None
        if passes > 1:
            h = reduce(lambda h, col: (h ^ col) * np.uint64(0x9E3779B97F4A7C15), cols, np.uint64(0))
            bucket = (h >> np.uint64(32)) % np.uint64(passes)
        yield lo, keys, bucket


def _shared_keys(words, n, s, first):
    """The keys of the s-subspaces that two or more words share, sorted in
    hash buckets of about KEY_CAP keys; with first, one such key at most."""
    total = len(words) * gaussian_binomial(words.shape[1], s, 2)
    passes = -(-total // KEY_CAP)
    sizes = [total] if passes == 1 else sum(
        np.bincount(b, minlength=passes) for *_, b in _level_keys(words, n, s, passes))
    found = []
    for p in range(passes):
        keys, pos = np.empty(sizes[p], dtype=_key_dtype(s, n)), 0
        for _, chunk, bucket in _level_keys(words, n, s, passes):
            chunk = chunk if bucket is None else chunk[bucket == p]
            keys[pos:pos + len(chunk)] = chunk
            pos += len(chunk)
        keys.sort()
        found.append(keys[1:][keys[1:] == keys[:-1]])
        if first and len(found[-1]):
            break
    return np.concatenate(found)


def _sharing_pairs(words, n, s, shared):
    """(i, j), i < j, in (i, j) order and once each: the pairs of words
    that share an s-subspace keyed in shared."""
    m, keys, owners = gaussian_binomial(words.shape[1], s, 2), [], []
    shared = np.unique(shared)  # sorted once, searched by every chunk
    for lo, chunk, _ in _level_keys(words, n, s, 1):
        near = np.searchsorted(shared, chunk).clip(max=len(shared) - 1)
        hit = np.flatnonzero(shared[near] == chunk)
        keys.append(chunk[hit])
        owners.append(lo + hit % (len(chunk) // m))
    order = np.argsort(np.concatenate(keys))
    keys, owners = np.concatenate(keys)[order], np.concatenate(owners)[order]
    at, off, pairs = np.flatnonzero(keys[1:] == keys[:-1]), 1, []
    while at.size:  # keys[at] == keys[at + off]: both ends lie in one run
        a, b = owners[at], owners[at + off]
        pairs.append(np.minimum(a, b) * len(words) + np.maximum(a, b))
        off += 1
        at = at[at + off < len(keys)]
        at = at[keys[at + off] == keys[at]]
    return np.divmod(np.unique(np.concatenate(pairs)), len(words))


def _packed_check(code):
    """(exact minimum distance, [i, j, d] below the claim in (i, j) order)
    of a code that packs."""
    n, k, N, d_claim = code.n, code.k, code.size, code.d_claim
    words = rref_bits_batch(code.packed_at_batch(np.arange(N)), n)[0]

    def measured(i, j):  # (min, [i, j, d] for d < d_claim) over the pairs (i, j)
        d = 2 * rank_bits_batch(np.hstack([words[i], words[j]]), n) - 2 * k
        return int(d.min()), np.stack([i, j, d], axis=1)[d < d_claim].tolist()

    t = k + 1 + (-d_claim // 2)  # d(U, W) < d_claim iff dim(U ∩ W) >= t
    for s in range(1, min(t, k) + 1):
        if 2 * gaussian_binomial(k, s, 2) > N - 1:
            break  # more keys than pairs: measure every pair
        shared = _shared_keys(words, n, s, first=s < t)
        if not len(shared):  # no two words share an s-subspace
            return 2 * (k - s + 1), []
        if s == t:
            return measured(*_sharing_pairs(words, n, s, shared))
    else:
        if t > k:  # every level shares: equal words, which a claim <= 0 allows
            return 0, []
    low, bad = 2 * k, []
    for i in range(N - 1):
        m, rows = measured(np.full(N - 1 - i, i), np.arange(i + 1, N))
        low = min(low, m)
        bad += rows
    return low, bad


def full_pairwise_check(code, cap: int = FULL_CHECK_CAP) -> VerificationReport:
    """Exact minimum distance over all N (N - 1) / 2 pairs, and every pair
    closer than the claim d with its exact distance, in (i, j) order.

    GF(2) with n <= 64 takes time linear in N: d(U, W) < d exactly when U
    and W share a t-subspace, t = k - ceil(d/2) + 1 (Kohnert and Kurz,
    2008).  Levels s = 1, 2, ... sort the keys of every s-subspace of every
    word; the first level with no equal keys ends the climb, and the last
    one with some, s*, gives the minimum 2k - 2 s*.  Equal keys at level t
    name the violations.  Memory: the words, one level's keys (KEY_CAP per
    hash bucket) and the violations.  Every pair is measured when that is
    fewer than a level's keys or when d > 2k, over other fields and past
    n = 64."""
    start = time.monotonic()
    N = code.size
    if N > cap:
        raise CapExceeded(f"{N} codewords exceeds full-check cap {cap}")
    total_pairs = N * (N - 1) // 2
    if N < 2:
        return VerificationReport("full", 0, None, [],
                                  wall_time=time.monotonic() - start)
    if packable(code.field, code.n, code.k):
        min_dist, bad = _packed_check(code)
    else:
        words, min_dist, bad = list(code), 2 * code.k, []
        for i, j in combinations(range(N), 2):
            d = distance(words[i], words[j])
            min_dist = min(min_dist, d)
            if d < code.d_claim:
                bad.append((i, j, d))
    violations = [{"pair": _pair_rows_report(code, i, j), "distance": d} for i, j, d in bad]
    return VerificationReport("full", total_pairs, min_dist, violations,
                              wall_time=time.monotonic() - start)


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
    within 2^-19 of the exact one: b is off by at most one before the fix-up."""
    b = ((1 + np.sqrt(8 * t.astype(np.float64) + 1)) // 2).astype(np.uint64)
    b -= (b * (b - 1) // 2 > t).astype(np.uint64)
    b += ((b + 1) * b // 2 <= t).astype(np.uint64)
    return (t - b * (b - 1) // 2).astype(np.int64), b.astype(np.int64)


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
        if packable(code.field, code.n, code.k):
            words = code.packed_at_batch(np.concatenate([a, b]))
            d = 2 * rank_bits_batch(np.hstack(np.split(words, 2)), code.n) - 2 * code.k
        else:
            d = np.array([distance(code.at(i), code.at(j))
                          for i, j in zip(a.tolist(), b.tolist())])
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
    if isinstance(obj, list):
        seen = {}
        for member in obj:
            for w in member:
                key = w.gen.rows
                seen[key] = seen.get(key, 0) + 1
        bad = {k: v for k, v in seen.items() if v != 1}
        return {"mode": "lines", "covered": len(seen),
                "multiplicity_violations": len(bad), "ok": not bad}
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
