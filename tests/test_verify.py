"""Verification oracles: enumeration vs Gaussian binomials, deterministic
sampling, shuffle invariance of the exact check, report format."""

import hashlib
import json
import random

import numpy as np
import pytest

from cdckit.cdc import Cdc, lifted_mrd
from cdckit.constructions import recipe_8_4_4
from cdckit.gf import field_new
from cdckit.verify import (CapExceeded, _pair_chunks, _unrank_pair, _unrank_pairs,
                           enumerate_subspaces, full_pairwise_check, sample_pairs,
                           sampled_check)
from cdckit.linalg import gaussian_binomial


def test_enumeration_agrees_with_gaussian_binomial():
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(0, min(n, 3) + 1):
                subs = list(enumerate_subspaces(q, n, k))
                assert len(subs) == gaussian_binomial(n, k, q)
                assert len(set(s.gen.rows for s in subs)) == len(subs)
                assert all(s.k == k for s in subs)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_subspaces(2, 30, 15, cap=10 ** 6))


def test_sampled_check_deterministic():
    c = lifted_mrd(2, 6, 3, 4)
    r1 = sampled_check(c, 2000, seed=11)
    r2 = sampled_check(c, 2000, seed=11)
    j1, j2 = json.loads(r1.to_json()), json.loads(r2.to_json())
    j1.pop("wall_time"), j2.pop("wall_time")
    assert j1 == j2
    r3 = sampled_check(c, 2000, seed=12)
    assert r3.seed == 12


def test_sample_pairs_uniform_and_in_range():
    pairs = list(sample_pairs(100, 5000, seed=0))
    assert all(0 <= a < b < 100 for a, b in pairs)
    # counter-based: restarting reproduces the stream
    assert pairs == list(sample_pairs(100, 5000, seed=0))


def test_sampled_pairs_zero_is_empty():
    c = lifted_mrd(2, 6, 3, 4)
    r = sampled_check(c, 0, seed=0)
    assert r.ok and r.pairs_checked == 0 and r.min_distance_found is None


def test_full_check_shuffle_invariant_100_trials():
    base, _ = recipe_8_4_4(2)
    words = base.words()[:200]
    f = field_new(2, 1)
    reference = full_pairwise_check(Cdc(f, 8, 4, 4, words=words)).min_distance_found
    rng = random.Random(0)
    for _ in range(100):
        shuffled = list(words)
        rng.shuffle(shuffled)
        rep = full_pairwise_check(Cdc(f, 8, 4, 4, words=shuffled))
        assert rep.min_distance_found == reference


def test_full_check_lifted_mrd():
    c = lifted_mrd(2, 8, 4, 4)
    N = c.size
    rep = full_pairwise_check(c)
    assert rep.min_distance_found == 4
    assert rep.pairs_checked == N * (N - 1) // 2


def test_full_check_cap():
    big, _ = recipe_8_4_4(2)
    with pytest.raises(CapExceeded):
        full_pairwise_check(big, cap=100)


def test_report_json_field_order():
    c = lifted_mrd(2, 6, 3, 4)
    r = sampled_check(c, 10, seed=0)
    keys = list(json.loads(r.to_json()).keys())
    assert keys == ["mode", "pairs_checked", "min_distance_found",
                    "violations", "seed", "wall_time"]


def test_violations_reported_with_distances():
    f = field_new(2, 1)
    from cdckit.subspace import Subspace
    U = Subspace.from_rows(f, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    V = Subspace.from_rows(f, [[1, 0, 0, 0], [0, 0, 1, 0]], 4)
    c = Cdc(f, 4, 2, 4, words=[U, V])  # true distance 2, claim 4
    rep = full_pairwise_check(c)
    assert not rep.ok
    assert rep.violations[0]["distance"] == 2
    assert rep.min_distance_found == 2


def test_full_check_streamed_equals_materialized():
    # q = 3 streams take the rank path (no bitmask kernel); so does a
    # claimed distance the code misses, which reports every close pair
    from cdckit.constructions import CompositionProfile, _single_full, multiblock_linkage
    from cdckit.rankmetric import gabidulin_mrd
    streamed = multiblock_linkage(CompositionProfile(3, 2, 2, (2, 2)), [_single_full(3, 2)] * 2,
                                  [gabidulin_mrd(3, 2, 2, 1)] * 2)
    assert not streamed.materialized
    words = list(streamed)
    for d_claim in (2, 4):
        reports = [full_pairwise_check(Cdc(streamed.field, 4, 2, d_claim, **kw))
                   for kw in ({"stream": streamed.source}, {"words": words})]
        a, b = (json.loads(r.to_json()) for r in reports)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b
        assert a["pairs_checked"] == 114 * 113 // 2 and a["min_distance_found"] == 2
        assert bool(a["violations"]) == (d_claim == 4)


@pytest.mark.parametrize("n_items", [2, 3, 1000, 262165, 19660413, 2 ** 32, 2 ** 40])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_chunked_sampler_equals_scalar_stream(n_items, seed):
    # 10,000 pairs cross two boundaries of the 4,096-pair chunks; past 2^32
    # words the chunks come from the scalar stream
    got, sizes = [], []
    for a, b in _pair_chunks(n_items, 10000, seed):
        assert a.dtype == b.dtype == np.int64
        sizes.append(len(a))
        got += zip(a.tolist(), b.tolist())
    assert sizes == [4096, 4096, 1808]
    assert got == list(sample_pairs(n_items, 10000, seed))


def test_unrank_pairs_at_triangular_boundaries():
    # t = T(b) - 1 is the last pair below b, t = T(b) the first pair of b,
    # with T(b) = b (b - 1) / 2; b up to 2^32 - 1, the largest of a 2^32-word code
    ts = []
    for b in (2, 3, 94906265, 94906266, 2 ** 31, 2 ** 32 - 3, 2 ** 32 - 2, 2 ** 32 - 1):
        tb = b * (b - 1) // 2
        ts += [tb - 1, tb, tb + 1]
    ts.append(2 ** 32 * (2 ** 32 - 1) // 2 - 1)  # the last pair of a 2^32-word code
    a, b = _unrank_pairs(np.array(ts, dtype=np.uint64))
    assert list(zip(a.tolist(), b.tolist())) == [_unrank_pair(t) for t in ts]


# a streamed q = 2 code whose last word meets R(I | 0) = <e0, e1, e2> in a
# plane; SHA-256 of its sampled report minus wall_time, taken with the
# per-pair sampler that the batched one replaced
CLOSE_REPORT_SHA = "c006d886dcff4b5972d50aaf35d18fcf990d7cff9fe4c47e9364adaf792d2758"


def test_sampled_report_with_violations_pinned():
    from cdckit.cdc import ListSource, _lifted
    from cdckit.constructions import UnionSource
    from cdckit.rankmetric import gabidulin_mrd
    from cdckit.subspace import Subspace
    f = field_new(2, 1)
    close = Subspace(f, 6, [tuple(1 if c == j else 0 for c in range(6)) for j in (0, 1, 3)])
    src = UnionSource([_lifted(2, gabidulin_mrd(2, 3, 3, 2)), ListSource(f, 6, [close])])
    streamed = Cdc(f, 6, 3, 4, stream=src)
    assert not streamed.materialized
    for code in (streamed, Cdc(f, 6, 3, 4, words=list(streamed))):
        report = json.loads(sampled_check(code, 10000, seed=5).to_json())
        report.pop("wall_time")
        assert len(report["violations"]) == 13 and report["min_distance_found"] == 2
        assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == CLOSE_REPORT_SHA


def test_sampled_check_q3_takes_the_rank_path():
    from cdckit.subspace import distance
    words = list(lifted_mrd(3, 4, 2, 2))
    code = Cdc(words[0].field, 4, 2, 4, words=words)  # claims more than it has
    report = sampled_check(code, 5000, seed=3)
    pairs = [(a, b, distance(words[a], words[b])) for a, b in sample_pairs(len(words), 5000, 3)]
    assert report.min_distance_found == min(d for _, _, d in pairs) == 2
    assert report.violations == [
        {"pair": [words[a].serialize(), words[b].serialize()], "distance": d}
        for a, b, d in pairs if d < 4]
