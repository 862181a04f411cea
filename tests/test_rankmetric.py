"""Rank-metric codes: size formula, rank-distribution formula vs exhaustive
enumeration, pairwise rank distance, nested subcodes and coset partitions."""

import pytest

from cdckit.linalg import MatrixGF, rank, rank_bits
from cdckit.rankmetric import (base_field, coset_partition, gabidulin_mrd,
                               mrd_size, nested_subcode, rank_distribution,
                               rank_filtered)


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
    # every subcode word appears in the parent at its parent index
    for i in range(sub.size):
        assert sub.packed_at(i) == big.packed_at(sub.parent_index(i))
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


def test_rank_filtered_counts():
    h = gabidulin_mrd(2, 4, 4, 2)
    filt = rank_filtered(h, 2)  # keep ranks <= 2
    expected = sum(rank_distribution(2, 4, 4, 2, r) for r in (0, 1, 2))
    assert filt.size == expected
    for i in range(0, filt.size, 37):
        rows = filt.packed_at(i)
        M = MatrixGF(base_field(2), [[(r >> (3 - c)) & 1 for c in range(4)]
                                     for r in rows], ncols=4)
        assert rank(M) <= 2


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
    words = list(h.iter_packed())
    assert words == [h.packed_at(i) for i in range(h.size)]
    assert len(set(map(tuple, words))) == h.size
    for cap in (1, 2):
        filt = rank_filtered(h, cap)
        oracle = [i for i in range(h.size) if rank_bits(h.packed_at(i), h.n) <= cap]
        assert filt.size == len(oracle)
        assert filt.indices().tolist() == oracle
        assert list(filt.iter_packed()) == [words[i] for i in oracle]
        handed = []
        parent_packed_at = h.packed_at
        h.packed_at = lambda i: handed.append(i) or parent_packed_at(i)
        assert [filt.packed_at(j) for j in range(filt.size)] == [words[i] for i in oracle]
        del h.packed_at
        assert handed == oracle and all(type(i) is int for i in handed)


def test_rank_filter_without_formula_scans_once():
    h = _handle("coset")
    scans = []
    parent_blocks = h.iter_blocks
    h.iter_blocks = lambda: scans.append(1) or parent_blocks()
    filt = rank_filtered(h, 2)
    filt.indices()
    filt.packed_at(filt.size - 1)
    assert len(scans) == 1


def test_linearity_q2():
    # Gabidulin codes are F_q-linear: XOR of two codewords is a codeword
    h = gabidulin_mrd(2, 3, 3, 2)
    words = set(tuple(h.packed_at(i)) for i in range(h.size))
    sample = sorted(words)[:10]
    for a in sample:
        for b in sample:
            assert tuple(x ^ y for x, y in zip(a, b)) in words
