"""Rank-metric codes: size formula, rank-distribution formula vs exhaustive
enumeration, pairwise rank distance, nested subcodes and coset partitions."""

import hashlib
import time

import numpy as np
import pytest

from cdckit import rankmetric
from cdckit.gf import base_field, factor_prime_power
from cdckit.linalg import rank_bits
from cdckit.rankmetric import (SCAN_CAP, coset_partition, gabidulin_mrd, mrd_size, nested_subcode,
                               rank_distribution, rank_filtered)
from cdckit.verify import CapExceeded


def _prime_power_trial(q):
    """(p, e) with q = p^e by trial division, or None."""
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    e = 0
    while p and q % p == 0:
        q, e = q // p, e + 1
    return (p, e) if p and q == 1 else None


def test_prime_power_by_integer_roots_agrees_with_trial_division():
    for q in range(-20, 5000):
        want = _prime_power_trial(q)
        if want is None:
            with pytest.raises(ValueError, match="not a prime power"):
                factor_prime_power(q)
        else:
            assert factor_prime_power(q) == want
    assert (base_field(3 ** 4).p, base_field(3 ** 4).e) == (3, 4)
    assert factor_prime_power(2 ** 62) == (2, 62)
    assert factor_prime_power(3 ** 39) == (3, 39)
    assert factor_prime_power(1000003 ** 3) == (1000003, 3)
    assert factor_prime_power(4294967311) == (4294967311, 1)
    for q in (2 ** 62 + 1, 10 ** 30, 1000003 * 1000033, -(10 ** 30)):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(q)


def test_mrd_size_values():
    assert mrd_size(2, 3, 3, 2) == 64
    assert mrd_size(2, 4, 4, 2) == 4096
    assert mrd_size(2, 6, 6, 3) == 2 ** 24
    assert mrd_size(3, 3, 3, 2) == 729
    assert mrd_size(2, 3, 4, 2) == 256  # rectangular: q^(max(m,n)(min-d+1))
    assert mrd_size(2, 4, 3, 2) == 256


def test_rank_distribution_values():
    assert rank_distribution(2, 3, 3, 2, 0) == 1
    assert rank_distribution(2, 3, 3, 2, 1) == 0
    assert rank_distribution(2, 3, 3, 2, 2) == 49
    assert rank_distribution(2, 3, 3, 2, 3) == 14
    assert rank_distribution(2, 4, 4, 2, 2) == 525
    # distribution sums to the code size
    for (q, m, n, d) in ((2, 3, 3, 2), (2, 4, 4, 2), (3, 3, 3, 2), (2, 4, 4, 3)):
        assert sum(rank_distribution(q, m, n, d, r) for r in range(min(m, n) + 1)) \
            == mrd_size(q, m, n, d)


def _rank_histogram(handle):
    hist = {}
    for i in range(handle.size):
        r = handle.rank_of(i)
        hist[r] = hist.get(r, 0) + 1
    return hist


@pytest.mark.parametrize("q,m,n,d", [(2, 3, 3, 2), (2, 4, 4, 3), (3, 3, 3, 2)])
def test_enumerated_histogram_matches_formula(q, m, n, d):
    h = gabidulin_mrd(q, m, n, d)
    hist = _rank_histogram(h)
    for r in range(min(m, n) + 1):
        assert hist.get(r, 0) == rank_distribution(q, m, n, d, r)


def test_pairwise_rank_distance_exhaustive_3_3_2():
    h = gabidulin_mrd(2, 3, 3, 2)
    words = [h.packed_at(i) for i in range(h.size)]
    from cdckit.linalg import rank_bits
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            diff = [a ^ b for a, b in zip(words[i], words[j])]
            assert rank_bits(diff, 3) >= 2


def test_nested_subcode_sizes_and_membership():
    big = gabidulin_mrd(2, 3, 3, 1)
    sub = nested_subcode(big, 2)
    assert big.size == 512 and sub.size == 64
    # subcode word i is parent word i Q^(t - t2): the truncated coefficients
    for i in range(sub.size):
        assert sub.packed_at(i) == big.packed_at(i * big.Q ** (big.t - sub.t))
    # subcode keeps its own distance
    assert min(sub.rank_of(i) for i in range(1, sub.size)) >= 2


def test_coset_partition_covers_parent():
    big = gabidulin_mrd(2, 3, 3, 1)
    sub = nested_subcode(big, 2)
    cosets = coset_partition(big, sub)
    assert len(cosets) == big.size // sub.size == 8
    seen = set()
    for c in cosets:
        assert c.size == sub.size
        for i in range(c.size):
            seen.add(tuple(c.packed_at(i)))
    assert len(seen) == big.size


@pytest.mark.parametrize("q,m,n,d_r,d2", [(2, 3, 3, 1, 2), (2, 4, 3, 1, 3), (3, 3, 2, 1, 2),
                                          (3, 2, 3, 1, 2), (4, 2, 2, 1, 2)])
def test_nested_subcode_words_and_cosets_partition_the_parent(q, m, n, d_r, d2):
    big = gabidulin_mrd(q, m, n, d_r)
    sub = nested_subcode(big, d2)

    def rows(h, i):
        return tuple(map(tuple, h.rows_at(i)))

    step = big.Q ** (big.t - sub.t)
    assert [rows(sub, i) for i in range(sub.size)] == \
        [rows(big, i * step) for i in range(sub.size)]
    cosets = coset_partition(big, sub)
    assert len(cosets) * sub.size == big.size
    assert sorted(rows(c, i) for c in cosets for i in range(c.size)) == \
        sorted(rows(big, i) for i in range(big.size))


def test_rank_filtered_counts():
    h = gabidulin_mrd(2, 4, 4, 2)
    filt = rank_filtered(h, 2)  # keep ranks <= 2
    expected = sum(rank_distribution(2, 4, 4, 2, r) for r in (0, 1, 2))
    assert filt.size == expected
    for i in range(0, filt.size, 37):
        assert rank_bits(filt.packed_at(i), 4) <= 2


def _handle(kind):
    if kind == "square":
        return gabidulin_mrd(2, 4, 4, 2)
    if kind == "wide":
        return gabidulin_mrd(2, 3, 5, 2)
    if kind == "transposed":
        return gabidulin_mrd(2, 5, 3, 2)
    if kind == "nested":
        return nested_subcode(gabidulin_mrd(2, 4, 4, 1), 2)
    big = gabidulin_mrd(2, 5, 3, 1)  # "coset": a transposed translate
    return coset_partition(big, nested_subcode(big, 2))[5]


@pytest.mark.parametrize("kind", ["square", "wide", "transposed", "nested", "coset"])
def test_enumeration_and_rank_filter_match_random_access(kind):
    h = _handle(kind)
    words = [h.packed_at(i) for i in range(h.size)]
    assert h.packed_at_batch(np.arange(h.size)).tolist() == words
    assert np.concatenate(list(h.iter_blocks())).tolist() == words
    assert len(set(map(tuple, words))) == h.size
    for cap in range(min(h.m, h.n) + 1):
        filt = rank_filtered(h, cap)
        oracle = [i for i in range(h.size) if rank_bits(h.packed_at(i), h.n) <= cap]
        assert filt.size == len(oracle)
        assert filt.indices().tolist() == oracle
        assert filt.packed_at_batch(np.arange(filt.size)).tolist() == [words[i] for i in oracle]
        handed = []
        parent_packed_at = h.packed_at
        h.packed_at = lambda i: handed.append(i) or parent_packed_at(i)
        assert [filt.packed_at(j) for j in range(filt.size)] == [words[i] for i in oracle]
        del h.packed_at
        assert handed == oracle and all(type(i) is int for i in handed)


def test_rank_filter_without_formula_solves_once(monkeypatch):
    # no formula: the size comes from the one solve, and nothing scans the parent
    h = _handle("coset")
    h.iter_blocks = lambda: pytest.fail("a q = 2 rank filter scanned its parent's blocks")
    solves = []
    solve = rankmetric._low_rank_indices
    monkeypatch.setattr(rankmetric, "_low_rank_indices",
                        lambda *args: solves.append(1) or solve(*args))
    filt = rank_filtered(h, 2)
    first = filt.indices()
    filt.packed_at(filt.size - 1)
    assert filt.indices() is first and len(solves) == 1


# SHA-256 of indices().tobytes() of the linkage left factors of 10_4_5 and
# 12_6_6, as the scan that ranked every parent word listed them
LINKAGE_FILTER_PINS = {
    (5, 5, 2, 3): (129736, "0719ff9ade5088400e494aec7a8c14fdac83c54ccd19d0aebdebfd3da968db23"),
    (6, 6, 3, 3): (87886, "031068d18b023eac7d8db8e74535a7e884fcc3e7e8610431348144a990dfd1b4"),
}


@pytest.mark.parametrize("m, n, d_r, cap", sorted(LINKAGE_FILTER_PINS))
def test_linkage_rank_filter_indices_pinned(m, n, d_r, cap):
    idx = rank_filtered(gabidulin_mrd(2, m, n, d_r), cap).indices()
    assert idx.dtype == np.int64
    assert (len(idx), hashlib.sha256(idx.tobytes()).hexdigest()) == \
        LINKAGE_FILTER_PINS[m, n, d_r, cap]


def test_q3_rank_filter_refuses_a_parent_past_the_scan_cap():
    # the (10,4;5) left factor at q = 3 ranks 3^20 words one by one: refused
    # before the first, in well under a second
    filt = rank_filtered(gabidulin_mrd(3, 5, 5, 2), 3)
    assert filt.parent.size == 3 ** 20 > SCAN_CAP >= gabidulin_mrd(3, 4, 4, 2).size  # q = 3 8_4_4
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="scan cap"):
        filt.indices()
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("m, n, cap, match", [(8, 8, 4, "63 index bits"), (8, 8, 1, "63 index bits"),
                                               (7, 7, 4, "listing cap")])
def test_q2_rank_filter_refuses_before_it_solves(monkeypatch, m, n, cap, match):
    # a 2^64-word parent's index bit 63 has no room in a system row of
    # uint64, and the (7 x 7, 1) filter at cap 4 would list about 2.8e12
    # kept words: both are refused before a system is built
    monkeypatch.setattr(rankmetric, "_low_rank_indices", lambda *a: pytest.fail("solved"))
    filt = rank_filtered(gabidulin_mrd(2, m, n, 1), cap)
    with pytest.raises(CapExceeded, match=match):
        filt.indices()


def test_q2_rank_filter_solves_over_63_index_bits():
    # (7 x 9, 1) has 2^63 words: bit 62 is the top coefficient of its
    # systems, and the 64,898 kept words match the formula
    filt = rank_filtered(gabidulin_mrd(2, 7, 9, 1), 1)
    assert filt.parent.size == 1 << 63 and filt.size == 1 + 127 * 511
    idx = filt.indices()
    assert len(idx) == filt.size and idx.max() >= 1 << 62
    assert all(filt.parent.rank_of(int(i)) <= 1 for i in idx[::997])

def test_linearity_q2():
    # Gabidulin codes are F_q-linear: XOR of two codewords is a codeword
    h = gabidulin_mrd(2, 3, 3, 2)
    words = set(tuple(h.packed_at(i)) for i in range(h.size))
    sample = sorted(words)[:10]
    for a in sample:
        for b in sample:
            assert tuple(x ^ y for x, y in zip(a, b)) in words
