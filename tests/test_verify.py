"""Verification oracles: enumeration vs Gaussian binomials, deterministic
sampling, the exact check against a scalar all-pairs reference, its
shuffle invariance and memory, report format."""

import hashlib
import json
import random
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest

from cdckit.cdc import Cdc, ListSource, PackedSource, lifted_mrd
from cdckit.constructions import recipe_8_4_4
from cdckit.gf import field_new
from cdckit.verify import (CapExceeded, _level_ranks, _pair_chunks, _probe_shares, _unrank_pair,
                           _unrank_pairs, canonical_order, enumerate_subspaces,
                           full_pairwise_check, meet_dims, refuse_past_budget, sample_pairs,
                           sampled_check, subspace_bases)
from cdckit.linalg import (gaussian_binomial, rank_bits, rank_bits_batch, rref_bits,
                           rref_bits_batch)
from cdckit.subspace import Subspace, distance, intersection_dim


def test_enumeration_agrees_with_gaussian_binomial():
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(0, min(n, 3) + 1):
                subs = list(enumerate_subspaces(q, n, k))
                assert len(subs) == gaussian_binomial(n, k, q)
                assert len(set(s.rows for s in subs)) == len(subs)
                assert all(s.k == k for s in subs)


# (count, SHA-256 of the serialized words, one per line) of enumerate_subspaces(q, n, k):
# q > 2, q = 4 (a field that is not prime, entries up to 3), k = 0 and k = n
ENUMERATION_PINS = {
    (2, 6, 3): (1395, "af7a0120d47c4ddc9ac8c17d5d15c76323d159ff3778c32e182ecab0f09b4939"),
    (3, 4, 2): (130, "af91053738f5f0b3f724d53be7586b006de5ff752be98d36e00b01632fce2d41"),
    (4, 4, 2): (357, "8c16dc2ddbcaf4e09e31fc78e0ea4b1271fd59c0c277339c639366dec8907de0"),
    (5, 3, 1): (31, "da3952c32df107883590f1e1089c65f0a36523d155c967f0049214d3f0aa8c5d"),
    (2, 5, 0): (1, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    (3, 3, 3): (1, "b70166d0e7833733135b26fae75a31f2451112c6b2d2fc564cdccb6f7532f43b"),
}


@pytest.mark.parametrize("q, n, k", sorted(ENUMERATION_PINS))
def test_enumeration_pinned(q, n, k):
    words = list(enumerate_subspaces(q, n, k))
    text = "".join(w.serialize() + "\n" for w in words)
    assert (len(words), hashlib.sha256(text.encode()).hexdigest()) == ENUMERATION_PINS[q, n, k]
    if k:  # each word is already the canonical RREF of its rows
        assert all(w == Subspace.from_rows(w.field, w.rows, n) for w in words)
    else:
        assert [w.rows for w in words] == [()]


@pytest.mark.parametrize("n", range(7))
def test_subspace_bases_pack_the_enumeration(n):
    for s in range(n + 1):
        bases = subspace_bases(n, s)
        assert bases.dtype == np.uint64 and bases.shape == (gaussian_binomial(n, s, 2), s)
        assert bases.tolist() == [list(w.packed_rows()) for w in enumerate_subspaces(2, n, s)]


def test_meet_dims_over_gf3_equals_intersection_dim():
    # a code past GF(2) meets W word by word: every entry is intersection_dim,
    # at the given indices in their order
    words = list(enumerate_subspaces(3, 4, 2))
    code = Cdc(field_new(3, 1), 4, 2, 2, words=words[:40])
    idx = np.array([39, 0, 5, 5, 17], dtype=np.int64)
    seen = set()
    for W in words[::13]:
        dims = meet_dims(code, W.packed_rows()).tolist()
        assert dims == [intersection_dim(w, W) for w in words[:40]]
        assert meet_dims(code, W.packed_rows(), idx).tolist() == [dims[i] for i in idx]
        seen.update(dims)
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("case", ["8_4_4 listed", "lifted stream", "two keys a word",
                                  "imported file", "lifted stream, q = 3"])
def test_canonical_order_sorts_by_sort_key(case):
    # the packed keys of each block stream order GF(2) words as their rows do
    from cdckit.codefile import dumps, loads
    code = {"8_4_4 listed": lambda: recipe_8_4_4(2)[0],
            "lifted stream": lambda: lifted_mrd(2, 6, 3, 4),
            "two keys a word": lambda: lifted_mrd(2, 16, 8, 16),
            "imported file": lambda: loads(dumps(recipe_8_4_4(2)[0], order="generation")),
            "lifted stream, q = 3": lambda: lifted_mrd(3, 4, 2, 2)}[case]()
    order = canonical_order(code)
    assert order.dtype == np.int64
    assert order.tolist() == sorted(range(code.size), key=lambda i: code.at(i).sort_key())
    assert order.tolist() != list(range(code.size))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_subspaces(2, 30, 15))
    with pytest.raises(CapExceeded):
        subspace_bases(30, 15)


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


@pytest.mark.parametrize("n, k, d, size, refusal", [
    (12, 4, 4, 19660413, None),   # 12_4_4_thm: level 3 ranked into 408,345,795 bits
    (10, 5, 4, 1178312, None),    # 10_4_5: level 4 ranked into 53,743,987 bits
    (12, 6, 8, 262165, None),     # 12_8_6: level 3 ranked
    (12, 6, 6, 16865629, "memory budget"),  # 12_6_6: level 4 needs 1.39e10 bits
    (24, 4, 4, 239000, None),     # 8.4M level-2 keys, sorted in memory
    (24, 4, 4, 240000, "memory budget"),  # past KEY_CAP, and [24,2]_2 past the bitmap cap
    (12, 4, 9, 10 ** 5, None),    # a claim past 2k measures every pair: the word cap
    (12, 4, 9, 10 ** 5 + 1, "full-check cap 100000"),
    (12, 4, 4, 30, None),         # 30 words: fewer pairs than level-2 keys
    (64, 20, 4, 10 ** 5 + 1, "full-check cap 100000"),  # 2^20 - 1 points per word
])
def test_memory_budget_of_the_full_check(n, k, d, size, refusal):
    f = field_new(2, 1)
    if refusal is None:
        refuse_past_budget(f, n, k, d, size)
    else:
        with pytest.raises(CapExceeded, match=refusal):
            refuse_past_budget(f, n, k, d, size)
    with pytest.raises(CapExceeded, match="full-check cap"):
        refuse_past_budget(f, n, k, d, size, cap=size - 1)
    with pytest.raises(CapExceeded, match="full-check cap"):  # codes that do not pack
        refuse_past_budget(field_new(3, 1), n, k, d, 10 ** 5 + 1)


@pytest.mark.parametrize("n, k, d, size", [(12, 6, 6, 16865629), (24, 4, 4, 240000)])
def test_a_word_cap_keeps_the_memory_budget(n, k, d, size):
    # a cap past the code's size lifts no memory budget: a climb whose
    # level fits neither the sort nor a bitmap is refused all the same,
    # while the cap replaces FULL_CHECK_CAP where every pair is measured
    f = field_new(2, 1)
    with pytest.raises(CapExceeded, match="memory budget"):
        refuse_past_budget(f, n, k, d, size, cap=10 ** 8)
    refuse_past_budget(f, 12, 4, 9, 10 ** 5 + 1, cap=10 ** 8)


def test_report_json_field_order():
    c = lifted_mrd(2, 6, 3, 4)
    r = sampled_check(c, 10, seed=0)
    keys = list(json.loads(r.to_json()).keys())
    assert keys == ["mode", "pairs_checked", "min_distance_found",
                    "violations", "seed", "wall_time"]


def test_violations_reported_with_distances():
    f = field_new(2, 1)
    from cdckit.subspace import Subspace, intersection_dim
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


@pytest.mark.parametrize("n_items", [2, 3, 1000, 262165, 19660413, 2 ** 32])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_chunked_sampler_equals_scalar_stream(n_items, seed):
    # 10,000 pairs cross two boundaries of the 4,096-pair chunks
    got, sizes = [], []
    for a, b in _pair_chunks(n_items, 10000, seed):
        assert a.dtype == b.dtype == np.int64
        sizes.append(len(a))
        got += zip(a.tolist(), b.tolist())
    assert sizes == [4096, 4096, 1808]
    assert got == list(sample_pairs(n_items, 10000, seed))


def test_sampler_past_2_32_words_reaches_the_whole_range():
    # a pair index mod N (N - 1) / 2 wraps past 2^64 pairs and reaches only
    # the first 6% of a 10^11-word range as the larger index
    N, top = 10 ** 11, 0
    for a, b in _pair_chunks(N, 10 ** 5, 0):
        assert a.dtype == b.dtype == np.int64
        assert ((0 <= a) & (a < b) & (b < N)).all()
        top = max(top, int(b.max()))
    assert top >= 0.99 * N


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


def _close_code():
    from cdckit.cdc import ListSource, _lifted
    from cdckit.constructions import UnionSource
    from cdckit.rankmetric import gabidulin_mrd
    f = field_new(2, 1)
    close = Subspace(f, 6, [tuple(1 if c == j else 0 for c in range(6)) for j in (0, 1, 3)])
    src = UnionSource([_lifted(2, gabidulin_mrd(2, 3, 3, 2)),
                       ListSource(f, 6, [close.packed_rows()])])
    return Cdc(f, 6, 3, 4, stream=src)


def _assert_close_report(code):
    report = json.loads(sampled_check(code, 10000, seed=5).to_json())
    report.pop("wall_time")
    assert len(report["violations"]) == 13 and report["min_distance_found"] == 2
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == CLOSE_REPORT_SHA


def test_sampled_report_with_violations_pinned():
    streamed = _close_code()
    assert not streamed.materialized
    for code in (streamed, Cdc(streamed.field, 6, 3, 4, words=list(streamed))):
        _assert_close_report(code)


def test_sampled_report_from_a_file_pinned():
    # read back in generation order, the words are a uint8 PackedSource whose
    # gathers give the same report as the stream they were written from
    from cdckit import codefile
    code = codefile.loads(codefile.dumps(_close_code(), order="generation"))
    assert isinstance(code.source, PackedSource) and code.source.packed.dtype == np.uint8
    _assert_close_report(code)


# a union of three listed parts over F_2^6: the largest, in the middle, the
# 64 words R(I | M) of a lifted MRD code and <e0, e1, e3>, the others
# <e0, e1, e4> and then <e0, e2, e3> and <e3, e4, e5>.  The first three
# planted words meet R(I | 0) = <e0, e1, e2> and each other in planes.
# SHA-256 of the sampled report minus wall_time, taken with the union
# gather that sorted the indices by part
PLANTED_REPORT_SHA = "c21977979809a15deffbb7603d99abbd373aec0eae845cb508591edd61057f7d"


def _planted_code():
    from cdckit.cdc import _lifted
    from cdckit.constructions import UnionSource
    from cdckit.rankmetric import gabidulin_mrd
    f = field_new(2, 1)

    def unit(*cols):
        return Subspace(f, 6, [tuple(int(c == j) for c in range(6)) for j in cols]).packed_rows()

    largest = ListSource(f, 6, [*_lifted(2, gabidulin_mrd(2, 3, 3, 2)).iter_packed(),
                                unit(0, 1, 3)])
    src = UnionSource([ListSource(f, 6, [unit(0, 1, 4)]), largest,
                       ListSource(f, 6, [unit(0, 2, 3), unit(3, 4, 5)])])
    return Cdc(f, 6, 3, 4, stream=src)


def test_sampled_report_with_planted_words_pinned():
    code = _planted_code()
    assert code.source.largest == 1
    report = _without_time(sampled_check(code, 10000, seed=5))
    assert len(report["violations"]) == 68 and report["min_distance_found"] == 2
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == PLANTED_REPORT_SHA


# SHA-256 of the 30,000-pair, seed-1 sampled reports minus wall_time of two
# recipe streams, taken with the union gather that sorted the indices by
# part: as built (no violation; the reports of both codes read alike), and
# claiming 2k, which lists every sampled pair of distance below 2k
RECIPE_REPORT_SHA = {
    ("12_4_4_thm", "built"): "dd9331e3fe10aec696697e24e904dd80b4f8fa3bb26f5c947aa5ed86ec910c79",
    ("12_4_4_thm", "2k"): "15c249e5408c8a7a27dca7f09a1979057e81ed0ce31bb8dd624f1030a63cce90",
    ("10_4_5", "built"): "dd9331e3fe10aec696697e24e904dd80b4f8fa3bb26f5c947aa5ed86ec910c79",
    ("10_4_5", "2k"): "bf52121234a3303eab71b3f0c40e8648219f6fac39190e66ea5e1c7ae7892722",
}


@pytest.mark.parametrize("name, claim", sorted(RECIPE_REPORT_SHA))
def test_sampled_recipe_reports_pinned(name, claim):
    from cdckit.constructions import RECIPES
    code, _ = RECIPES[name](2)
    if claim == "2k":
        code = Cdc(code.field, code.n, code.k, 2 * code.k, stream=code.source)
    report = _without_time(sampled_check(code, 30000, seed=1))
    assert report["min_distance_found"] == 4
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == \
        RECIPE_REPORT_SHA[name, claim]


# SHA-256 of the int64 bytes of meet_dims with word 17 of the listed
# (8, 4; 4) code: over every word and over every 7th, of that code and of
# the streamed lifted MRD (8, 4; 4) code; taken with the stacked rank path
MEET_DIMS_SHA = {
    ("listed", "all"): "b3add7f920b5d5a8cd32905decedd4959f985c4b2760a06be2bb38d7bccc09c0",
    ("listed", "every 7th"): "9a50112bddc31e0d41cb1a20144eb23d44062f9f700df68317404f782fa3b652",
    ("streamed", "all"): "1444bb43f63692a5c55dc4a57d66e161cb6766e40b0f607b894b3b810e6eefa0",
    ("streamed", "every 7th"): "9b9ff8cafcf17b28d60acccede04e8f6b7a1f6954a2d1ce5b0dd3727cf2ebb2c",
}


@pytest.mark.parametrize("kind", ["listed", "streamed"])
def test_meet_dims_pinned(kind):
    listed, _ = recipe_8_4_4(2)
    code = listed if kind == "listed" else lifted_mrd(2, 8, 4, 4)
    assert code.materialized == (kind == "listed")
    w = listed.packed_at(17)
    for which, idx in (("all", None), ("every 7th", np.arange(0, code.size, 7))):
        got = meet_dims(code, w, idx)
        assert got.dtype == np.int64 and len(got) == (code.size if idx is None else len(idx))
        assert hashlib.sha256(got.tobytes()).hexdigest() == MEET_DIMS_SHA[kind, which]


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


# ----------------------------------------------------------------------
# the exact full check over GF(2) against an independent scalar reference
# ----------------------------------------------------------------------

def _reference_report(code):
    """The full-check report minus wall_time, from one scalar rank_bits per
    pair over all N (N - 1) / 2 pairs."""
    words = [code.packed_at(i) for i in range(code.size)]
    low, bad = None, []
    for i, j in combinations(range(code.size), 2):
        d = 2 * rank_bits(list(words[i]) + list(words[j]), code.n) - 2 * code.k
        low = d if low is None or d < low else low
        if d < code.d_claim:
            bad.append({"pair": [code.at(i).serialize(), code.at(j).serialize()],
                        "distance": d})
    return {"mode": "full", "pairs_checked": code.size * (code.size - 1) // 2,
            "min_distance_found": low, "violations": bad, "seed": None}


def _without_time(report):
    out = json.loads(report.to_json())
    out.pop("wall_time")
    return out


def _code(n, k, d_claim, packed):
    """A listed GF(2) code of packed RREF words; a word may repeat."""
    f = field_new(2, 1)
    return Cdc(f, n, k, d_claim, stream=ListSource(f, n, packed))


def _sharing_words(seed, n, k, size, dups=0):
    """Random k-subspaces of F_2^n; word x > 0 shares a random subspace of
    dimension x mod k with an earlier word, and dups repeated words are
    put in at random places."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        m = len(out) % k if out else 0
        base = rng.choice(out) if out else ()
        keep = [reduce(xor, (r for j, r in enumerate(base) if c >> j & 1), 0)
                for c in (rng.getrandbits(k) for _ in range(m))]
        rows, _ = rref_bits(keep + [rng.getrandbits(n) for _ in range(k - m)], n)
        if len(rows) == k and rank_bits(keep, n) == m and tuple(rows) not in out:
            out.append(tuple(rows))
    for _ in range(dups):
        out.insert(rng.randrange(len(out) + 1), rng.choice(out))
    return out


@pytest.mark.parametrize("n, k, size, d_claim, dups", [
    (8, 4, 120, 4, 0),    # every intersection dimension 0..3; t = 3
    (8, 4, 120, 4, 3),    # duplicate words (distance 0)
    (7, 3, 100, 2, 2),    # d_claim = 2: t = k, only the duplicates violate
    (8, 4, 120, 5, 0),    # odd claim: distance 4 < 5 violates
    (9, 3, 40, 6, 0),     # t = 1: the pairs that share a point
    (9, 4, 20, 4, 0),     # 15 points per word > 19 / 2: every pair measured
    (6, 1, 30, 2, 4),     # k = 1: points, duplicates at distance 0
    (24, 4, 80, 2, 2),    # n = 24: level-3 keys are 72 bits wide
    (24, 4, 80, 6, 0),
])
def test_full_check_equals_scalar_reference(n, k, size, d_claim, dups):
    code = _code(n, k, d_claim, _sharing_words(size + n, n, k, size, dups))
    assert _without_time(full_pairwise_check(code)) == _reference_report(code)


def test_full_check_equals_reference_on_the_rank_path(monkeypatch):
    # a key cap of 64 ranks every level into a bitmap, in chunks of a few
    # words: ranks repeat within a chunk and across chunks
    import cdckit.verify as verify
    code = _code(8, 4, 4, _sharing_words(3, 8, 4, 100, dups=2))
    expected = _reference_report(code)
    ranked = []
    monkeypatch.setattr(verify, "KEY_CAP", 64)
    monkeypatch.setattr(verify, "KEY_CHUNK", 50)
    monkeypatch.setattr(verify, "_level_ranks",
                        lambda *a: ranked.append(a[2]) or _level_ranks(*a))
    assert _without_time(full_pairwise_check(code)) == expected
    assert 3 in ranked  # level t = 3 was ranked


@pytest.mark.parametrize("n", [6, 8])
def test_ranks_enumerate_every_subspace_in_order(n):
    # the rank of the s-subspace U (a word of k = s rows, whose only key is
    # U) is its index in enumerate_subspaces, for every s
    for s in range(1, n + 1):
        bits = np.array([w.rows for w in enumerate_subspaces(2, n, s)], np.uint64)
        words = (bits << np.arange(n - 1, -1, -1, dtype=np.uint64)).sum(axis=2, dtype=np.uint64)
        assert np.array_equal(_level_ranks(words, n, s), np.arange(gaussian_binomial(n, s, 2)))


@pytest.mark.parametrize("key_cap", [1 << 23, 64])  # the sort path, the rank path
def test_a_share_past_the_probes_still_decides_the_level(monkeypatch, key_cap):
    # the 85 lines of a 2-spread of F_2^8 share no point; one more line, put
    # at index 1, meets line 0 in a point, and the probes of level 1, spread
    # over the code (indices i * 85 // 31 and i * 85 // 39), skip it.  The
    # full check certifies the 65 lines [I_2 | M] by the lifted-block
    # verdict, so the climb alone is run to see the level decide
    import cdckit.verify as verify
    from cdckit.cdc import spread
    sp = spread(2, 8, 2)
    words = [sp.packed_at(i) for i in range(sp.size)]
    rng = random.Random(2)
    while True:
        rows, _ = rref_bits([words[0][0], rng.getrandbits(8)], 8)
        if len(rows) == 2 and tuple(rows) not in words:
            break
    code = _code(8, 2, 2, words[:1] + [tuple(rows)] + words[1:])
    monkeypatch.setattr(verify, "KEY_CHUNK", 120)
    monkeypatch.setattr(verify, "KEY_CAP", key_cap)
    probed = []
    monkeypatch.setattr(verify, "_probe_shares", lambda *a: probed.append(_probe_shares(*a))
                        or probed[-1])
    assert verify._climb(code) == (2, [], "exhaustive") and probed == [False]
    rep = _without_time(full_pairwise_check(code))
    assert rep == _reference_report(code) and rep["min_distance_found"] == 2


def test_full_check_of_a_spread_is_2k():
    # 273 pairwise-disjoint 4-subspaces of F_2^12: no two words share a point
    from cdckit.cdc import spread
    sp = spread(2, 12, 4)
    rep = full_pairwise_check(sp)
    assert rep.ok and rep.min_distance_found == 8 and rep.pairs_checked == 273 * 272 // 2


def test_claim_past_2k_reports_every_pair_exactly():
    # d_claim = 9 > 2k = 8: each pair violates at its exact distance, on
    # GF(2) as on GF(3), where every pair is measured with rank_rows
    words = _sharing_words(5, 8, 4, 30)
    code = _code(8, 4, 9, words)
    rep = _without_time(full_pairwise_check(code))
    assert rep == _reference_report(code)
    assert len(rep["violations"]) == rep["pairs_checked"] == 30 * 29 // 2
    f3 = field_new(3, 1)
    ternary = list(enumerate_subspaces(3, 3, 1))[:5]
    rep3 = full_pairwise_check(Cdc(f3, 3, 1, 3, words=ternary))
    assert len(rep3.violations) == rep3.pairs_checked == 10


def test_checks_past_64_columns_rank_unpacked_stacks():
    # GF(2) words of 66 columns do not pack into uint64: both checks gather
    # them as Python ints and rank each stack of packed rows with rank_bits,
    # and meet_dims does the same at the given indices
    code = _code(66, 3, 6, _sharing_words(66, 66, 3, 40, dups=1))
    assert code.source.array.dtype == object
    assert _without_time(full_pairwise_check(code)) == _reference_report(code)
    report = sampled_check(code, 300, seed=2)
    want = [(a, b, distance(code.at(a), code.at(b))) for a, b in sample_pairs(code.size, 300, 2)]
    assert report.min_distance_found == min(d for _, _, d in want) == 0
    assert report.violations == [{"pair": [code.at(a).serialize(), code.at(b).serialize()],
                                  "distance": d} for a, b, d in want if d < 6]
    W, idx = code.at(7), np.array([39, 7, 0, 7], dtype=np.int64)
    assert meet_dims(code, W.packed_rows(), idx).tolist() == \
        [intersection_dim(code.at(i), W) for i in idx]


def test_full_check_finds_an_injected_word_with_its_pairs():
    # a word at distance 2 from word 1000 of the (8,4;4) code, inserted at
    # index 1000: the report lists exactly the pairs it forms below 4
    base, _ = recipe_8_4_4(2)
    words = [base.packed_at(i) for i in range(base.size)]
    target = words[1000]
    rng = random.Random(0)
    while True:
        rows, _ = rref_bits(list(target[:3]) + [rng.getrandbits(8)], 8)
        if len(rows) == 4 and tuple(rows) not in words:
            break
    bad = tuple(rows)
    code = _code(8, 4, 4, words[:1000] + [bad] + words[1000:])
    expected = []
    for x in range(code.size):
        if x != 1000:
            d = 2 * rank_bits(list(bad) + list(code.packed_at(x)), 8) - 8
            if d < 4:
                i, j = min(x, 1000), max(x, 1000)
                expected.append({"pair": [code.at(i).serialize(), code.at(j).serialize()],
                                 "distance": d})
    rep = full_pairwise_check(code)
    assert len(expected) >= 1
    assert rep.violations == expected and rep.min_distance_found == 2
    assert rep.pairs_checked == code.size * (code.size - 1) // 2


def test_whole_10_4_5_code_finds_an_injected_word_with_its_pairs():
    # a word that meets word 600,000 of the 1,178,312-word (10,4;5) code in
    # 4 dimensions, inserted there: the whole code is checked on the rank
    # path (level 4 has 36.5M keys) and reports exactly that word's pairs
    from cdckit.constructions import RECIPES
    base, _ = RECIPES["10_4_5"](2)
    words = np.concatenate(list(base.source.packed_blocks()))
    x, rng = 600_000, np.random.default_rng(0)
    while True:
        bad, rank = rref_bits_batch(np.append(words[x, :4], rng.integers(1, 1 << 10))[None], 10)
        if rank[0] == 5 and not (words == bad).all(axis=1).any():
            break
    packed = np.insert(words, x, bad[0], axis=0).astype(np.uint16)
    code = Cdc(base.field, 10, 5, 4, stream=PackedSource(base.field, 10, packed))
    d = 2 * rank_bits_batch(np.hstack([packed, np.repeat(bad, len(packed), axis=0)]), 10) - 10
    near = [y for y in np.flatnonzero(d < 4).tolist() if y != x]
    rep = full_pairwise_check(code)
    assert len(near) >= 1 and rep.min_distance_found == 2
    assert rep.violations == [
        {"pair": [code.at(min(x, y)).serialize(), code.at(max(x, y)).serialize()],
         "distance": int(d[y])} for y in near]
    assert set(vars(code)) == {"field", "n", "k", "d_claim", "provenance", "source"}


# ----------------------------------------------------------------------
# the lifted-block verdict, forced onto the (8,4;4) code's streamed path
# ----------------------------------------------------------------------

def _batched_reference(code):
    """_reference_report from one rank_bits_batch per word i over its pairs
    (i, j), j > i: every pair measured, for codes of thousands of words."""
    words, N = code.packed_at_batch(np.arange(code.size)), code.size
    low, bad = None, []
    for i in range(N - 1):
        d = 2 * rank_bits_batch(np.hstack([np.repeat(words[i:i + 1], N - 1 - i, axis=0),
                                           words[i + 1:]]), code.n) - 2 * code.k
        low = int(d.min()) if low is None else min(low, int(d.min()))
        bad += [{"pair": [code.at(i).serialize(), code.at(i + 1 + x).serialize()],
                 "distance": int(d[x])} for x in np.flatnonzero(d < code.d_claim)]
    return {"mode": "full", "pairs_checked": N * (N - 1) // 2,
            "min_distance_found": low, "violations": bad, "seed": None}


def _word_reference(code, x):
    """_reference_report of the (8,4;4) code with word x changed or added:
    every other pair is at distance 4 or more, some at 4
    (test_lifted_block_verdict_equals_the_reference), so the pairs of word
    x, ranked by one rank_bits_batch, decide the minimum and the violations."""
    words, N = code.packed_at_batch(np.arange(code.size)), code.size
    d = 2 * rank_bits_batch(np.hstack([np.repeat(words[x:x + 1], N, axis=0), words]),
                            code.n) - 2 * code.k
    others = np.delete(np.arange(N), x)
    return {"mode": "full", "pairs_checked": N * (N - 1) // 2,
            "min_distance_found": min(4, int(d[others].min())),
            "violations": [{"pair": [code.at(min(x, y)).serialize(),
                                     code.at(max(x, y)).serialize()], "distance": int(d[y])}
                           for y in others[d[others] < code.d_claim].tolist()],
            "seed": None}


@pytest.fixture
def streamed_8_4_4(monkeypatch):
    """The packed words of the (8,4;4) code, 4,096 lifted-block words [I_4 | M]
    and then 701 others, with caps that stream every level of its climb; a
    list of the calls of _split and _is_linear."""
    import cdckit.verify as verify
    base, _ = recipe_8_4_4(2)
    monkeypatch.setattr(verify, "KEY_CAP", 64)
    monkeypatch.setattr(verify, "KEY_CHUNK", 1 << 10)
    calls = []
    for name in ("_split", "_is_linear"):
        monkeypatch.setattr(verify, name, lambda *a, f=getattr(verify, name), name=name:
                            calls.append(name) or f(*a))
    return [tuple(w) for w in base.packed_at_batch(np.arange(base.size)).tolist()], calls


@pytest.mark.parametrize("case", ["whole code", "block and one other word"])
def test_lifted_block_verdict_equals_the_reference(streamed_8_4_4, case):
    # with one word outside the block, nothing climbs, and the block alone
    # sets the minimum, 4, below that word's cross bound
    words, calls = streamed_8_4_4
    if case == "whole code":
        small = _code(8, 4, 4, _sharing_words(4, 8, 4, 60, dups=1))
        assert _batched_reference(small) == _reference_report(small)
    code = _code(8, 4, 4, words if case == "whole code" else words[:4097])
    rep = full_pairwise_check(code)
    assert rep.certificate == "lifted_block" and calls == ["_split", "_is_linear"]
    expected = _batched_reference(code) if case == "whole code" else _word_reference(code, 4096)
    assert _without_time(rep) == expected
    assert rep.min_distance_found == 4 and "certificate" not in json.loads(rep.to_json())


@pytest.mark.parametrize("change", ["flipped block bit", "repeated block word",
                                    "repeated other word"])
def test_a_changed_word_falls_back(streamed_8_4_4, change):
    # the M of word 1000 flips its last bit, and the block's M's span 13
    # dimensions; word 1000 repeats word 1001, and 4,096 M's in 12
    # dimensions miss one vector of the space; or word 4100, outside the
    # block, is repeated last, and the climb of the words outside the
    # block finds the pair
    words, calls = streamed_8_4_4
    x = 4797 if change == "repeated other word" else 1000
    if change == "flipped block bit":
        words[1000] = words[1000][:3] + (words[1000][3] ^ 1,)
    elif change == "repeated block word":
        words[1000] = words[1001]
    else:
        words.append(words[4100])
    code = _code(8, 4, 4, words)
    rep = full_pairwise_check(code)
    assert rep.certificate == "exhaustive" and calls == ["_split", "_is_linear"]
    expected = _word_reference(code, x)
    assert _without_time(rep) == expected
    assert expected["min_distance_found"] == (2 if change == "flipped block bit" else 0)


@pytest.mark.parametrize("d_claim", [4, 2])
def test_a_word_close_to_the_block_falls_back_with_its_cross_pairs(streamed_8_4_4, d_claim):
    # rows 0, 2 and 3 of block word 7 and the vector 00000010 of H, the last
    # 4 columns: the word meets H in 1 < 4/2 dimensions, block word 7 in 3
    # and no word outside the block in more than 2.  Claiming 4, the cross
    # bound 2 fails at once; claiming 2, it fails only against the
    # verdict, 4, after the block and the rest are checked
    words, calls = streamed_8_4_4
    rows, _ = rref_bits([words[7][0], words[7][2], words[7][3], 0b10], 8)
    rest = np.array(words[4096:], np.uint64)
    assert len(rows) == 4 and tuple(rows) not in words and rank_bits_batch(
        np.hstack([rest, np.tile(np.array(rows, np.uint64), (len(rest), 1))]), 8).min() == 6
    code = _code(8, 4, d_claim, words + [tuple(rows)])
    rep = full_pairwise_check(code)
    assert rep.certificate == "exhaustive"
    assert calls == (["_split"] if d_claim == 4 else ["_split", "_is_linear"])
    expected = _word_reference(code, 4797)
    assert _without_time(rep) == expected and expected["min_distance_found"] == 2
    close, added = [v["pair"] for v in expected["violations"]], code.at(4797).serialize()
    assert all(pair[1] == added for pair in close)
    assert ([code.at(7).serialize(), added] in close) == (d_claim == 4)


def test_a_block_of_no_power_of_two_is_certified(streamed_8_4_4):
    # 4,095 M's in 12 dimensions fill more than half of their span, so every
    # nonzero vector of it is still a difference of two of them
    words, calls = streamed_8_4_4
    code = _code(8, 4, 4, words[:1000] + words[1001:])  # 4,095 block words
    rep = full_pairwise_check(code)
    assert rep.certificate == "lifted_block" and calls == ["_split", "_is_linear"]
    assert rep.ok and rep.min_distance_found == 4  # a subcode keeps pairs at distance 4
    assert rep.pairs_checked == 4796 * 4795 // 2


def test_a_block_of_half_its_span_falls_back(streamed_8_4_4):
    # the M's of words 0-2046 span 11 dimensions and word 4095's a twelfth:
    # 2,048 M's fill only half of their span, where a difference can be
    # missing, so the climb decides
    words, calls = streamed_8_4_4
    code = _code(8, 4, 4, words[:2047] + [words[4095]])
    ms = [sum((row & 15) << 4 * (3 - i) for i, row in enumerate(w)) for w in code.iter_packed()]
    assert rank_bits(ms[:-1], 16) == 11 and rank_bits(ms, 16) == 12
    rep = full_pairwise_check(code)
    assert rep.certificate == "exhaustive" and calls == ["_split", "_is_linear"]
    assert _without_time(rep) == _batched_reference(code)


def _prefix(recipe, size):
    """The gathered code of the first size words of a GF(2) recipe."""
    from cdckit.constructions import RECIPES
    code, _ = RECIPES[recipe](2)
    return Cdc(code.field, code.n, code.k, code.d_claim, stream=PackedSource(
        code.field, code.n, code.packed_at_batch(np.arange(size)).astype(np.uint16)))


@pytest.mark.parametrize("recipe, size, low", [("12_8_6", 3000, 10), ("10_4_5", 4000, 6)])
def test_a_gathered_prefix_is_certified_where_its_probes_share_nothing(recipe, size, low):
    # the prefixes perfbench checks: the climb's probes share nothing at a
    # level below t, which the verdict settles instead of keying it whole
    import cdckit.verify as verify
    code = _prefix(recipe, size)
    rep = full_pairwise_check(code)
    assert rep.certificate == "lifted_block" and rep.ok and rep.min_distance_found == low
    assert rep.pairs_checked == size * (size - 1) // 2
    assert verify._climb(code) == (low, [], "exhaustive")


def test_a_gathered_prefix_with_a_changed_word_resumes_the_climb(monkeypatch):
    # word 1000 of the (12,8;6) prefix with its last bit flipped, put in
    # after it: its M leaves the span, the verdict steps aside at the level
    # it was tried on, and the climb goes on from there to the new word's
    # violations, one at distance 2
    import cdckit.verify as verify
    base = _prefix("12_8_6", 3000)
    words = base.packed_at_batch(np.arange(3000))
    words = np.insert(words, 1001, words[1000] ^ np.uint64(1), axis=0)
    code = Cdc(base.field, 12, 6, 8, stream=PackedSource(base.field, 12, words))
    calls = []
    monkeypatch.setattr(verify, "_is_linear", lambda *a, f=verify._is_linear:
                        calls.append(a[3]) or f(*a))
    low, bad, certificate = verify._climb(code)
    assert calls == [] and certificate == "exhaustive" and low == 2 and bad
    rep = full_pairwise_check(code)
    assert rep.certificate == "exhaustive" and calls == [4]
    assert rep.min_distance_found == low and rep.violations == [
        {"pair": [code.at(i).serialize(), code.at(j).serialize()], "distance": d}
        for i, j, d in bad]
    assert [1000, 1001, 2] in bad and all(1001 in (i, j) for i, j, _ in bad)


def test_full_check_memory_is_bounded():
    # the 3,000-word prefix of the (12,8;6) pairing code is certified by the
    # lifted-block verdict, and its climb alone reaches 1.95M level-2 keys;
    # an n = 24 code never holds 2^n bits per word
    import tracemalloc
    import cdckit.verify as verify
    prefix = _prefix("12_8_6", 3000)
    wide = _code(24, 4, 4, _sharing_words(1, 24, 4, 80))
    full_pairwise_check(wide)  # the subspace tables are cached on first use
    outs = []
    for c, check, limit in ((prefix, full_pairwise_check, 16 << 20),
                            (prefix, verify._climb, 16 << 20),
                            (wide, full_pairwise_check, (1 << 24) // 8)):
        tracemalloc.start()
        try:
            outs.append(check(c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (c.n, check.__name__, peak)
    rep, climbed, rep_wide = outs
    assert rep.pairs_checked == 3000 * 2999 // 2 and rep.certificate == "lifted_block"
    assert climbed == (rep.min_distance_found, [], "exhaustive")
    assert rep_wide.pairs_checked == wide.size * (wide.size - 1) // 2
    assert rep_wide.min_distance_found == _reference_report(wide)["min_distance_found"]
