"""Brute-force verification oracles: subspace enumeration, exact and
sampled pairwise distance checks, and spread/parallelism coverage checks.

Pair sampling is counter-based (splitmix64 over a triangular unranking),
so reports are byte-identical across platforms for a fixed seed.  Pairs
are drawn and checked in numpy chunks; over GF(2) with n <= 64 each chunk
is one packed_at_batch gather and one rank_bits_batch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field
from itertools import combinations, islice

import numpy as np

from .linalg import BATCH, gaussian_binomial, packable, rank_bits_batch, rank_rows
from .rankmetric import base_field
from .subspace import Subspace, distance

ENUM_CAP = 10 ** 6
FULL_CHECK_CAP = 10 ** 5
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

def enumerate_subspaces(q: int, n: int, k: int, cap: int = ENUM_CAP):
    """Every k-subspace of F_q^n exactly once, in canonical order:
    pivot-column sets lexicographically, free entries in base-q order."""
    total = gaussian_binomial(n, k, q)
    if total > cap:
        raise CapExceeded(f"{total} subspaces exceeds cap {cap}")
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

def _span_blocks(code):
    """(lo, vecs): the 2^k vectors of each GF(2) codeword from lo on, zero
    first, as (B, 2^k) uint64 blocks of at most 2^16 vectors."""
    step = max(1, (1 << 16) >> code.k)
    for lo in range(0, code.size, step):
        words = code.packed_at_batch(np.arange(lo, min(lo + step, code.size)))
        vecs = np.zeros((len(words), 1), dtype=np.uint64)
        for row in words.T:
            vecs = np.hstack([vecs, vecs ^ row[:, None]])
        yield lo, vecs


def _subspace_masks(code, n):
    """Per-codeword bitmask over the 2^n vectors of F_2^n, as uint64 words."""
    out = np.zeros((code.size, max(1, (1 << n) >> 6)), dtype=np.uint64)
    for lo, vecs in _span_blocks(code):
        rows = lo + np.arange(len(vecs))
        for v in vecs.T:  # one vector per word: no index repeats
            out[rows, v >> np.uint64(6)] |= np.uint64(1) << (v & np.uint64(63))
    return out


def _pair_rows_report(code, i, j):
    return [code.at(i).serialize(), code.at(j).serialize()]


def full_pairwise_check(code, cap: int = FULL_CHECK_CAP) -> VerificationReport:
    """Exact minimum distance over all pairs; q = 2 uses a vectorized
    intersection-size kernel over vector-set bitmasks."""
    start = time.monotonic()
    N = code.size
    if N > cap:
        raise CapExceeded(f"{N} codewords exceeds full-check cap {cap}")
    total_pairs = N * (N - 1) // 2
    if N < 2:
        return VerificationReport("full", 0, None, [],
                                  wall_time=time.monotonic() - start)
    violations = []
    if code.field.q == 2 and code.n <= 20:
        masks = _subspace_masks(code, code.n)
        k = code.k
        dim_bad = k - (code.d_claim // 2)  # dim cap for distance >= d
        thresh = 1 << (dim_bad + 1)
        best = 0  # max intersection size over all pairs
        pairs_bad = []
        for i in range(N - 1):
            inter = np.bitwise_count(masks[i + 1:] & masks[i]).sum(axis=1)
            m = int(inter.max())
            if m > best:
                best = m
            if m >= thresh:
                for off in np.nonzero(inter >= thresh)[0]:
                    pairs_bad.append((i, i + 1 + int(off)))
        max_inter_dim = best.bit_length() - 1  # |U ∩ W| = 2^dim
        min_dist = 2 * k - 2 * max_inter_dim
        for (i, j) in pairs_bad:
            d = 2 * k - 2 * (int(np.bitwise_count(masks[i] & masks[j]).sum()).bit_length() - 1)
            violations.append({"pair": _pair_rows_report(code, i, j), "distance": d})
    else:
        field = code.field
        min_dist = None
        words = [list(w.gen.rows) for w in code]
        for i in range(N):
            wi = words[i]
            for j in range(i + 1, N):
                d = 2 * rank_rows(field, wi + words[j], code.n) - len(wi) - len(words[j])
                if min_dist is None or d < min_dist:
                    min_dist = d
                if d < code.d_claim:
                    violations.append({"pair": _pair_rows_report(code, i, j),
                                       "distance": d})
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
    """sample_pairs(n_items, pairs, seed) as (a, b) int64 arrays of at most
    BATCH pairs; splitmix64 wraps mod 2^64 in np.uint64."""
    if n_items > 1 << 32:  # pair indices past 2^63: the scalar stream
        stream = sample_pairs(n_items, pairs, seed)
        while ab := list(islice(stream, BATCH)):
            yield tuple(np.array(ab, dtype=np.int64).T)
        return
    total = np.uint64(n_items * (n_items - 1) // 2)
    for lo in range(0, pairs, BATCH):
        z = np.arange(lo + 1, min(lo + BATCH, pairs) + 1, dtype=np.uint64) \
            * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed & _M64)
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        yield _unrank_pairs((z ^ (z >> 31)) % total)


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
    a family of disjoint spreads / parallelism."""
    from .cdc import Cdc, SpreadFamily
    if isinstance(obj, SpreadFamily):
        seen = {}
        for member in obj:
            for w in member:
                key = w.gen.rows
                seen[key] = seen.get(key, 0) + 1
        bad = {k: v for k, v in seen.items() if v != 1}
        return {"mode": "lines", "covered": len(seen),
                "multiplicity_violations": len(bad), "ok": not bad}
    code: Cdc = obj
    q, n = code.field.q, code.n
    # q^m > COVERAGE_CAP for m = its bit length, so q^n need not be formed
    if q ** min(n, COVERAGE_CAP.bit_length()) > COVERAGE_CAP:
        raise CapExceeded(f"{q}^{n} vectors exceeds coverage cap {COVERAGE_CAP}")
    if q == 2:
        counts = np.zeros(1 << n, dtype=np.int64)
        for _, vecs in _span_blocks(code):
            np.add.at(counts, vecs[:, 1:], 1)
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
