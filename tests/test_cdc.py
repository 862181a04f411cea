"""CDC containers, lifted MRD codes, spreads, and parallelisms."""

import pytest

from cdckit.cdc import (Cdc, CdcError, disjoint_2spreads_of_F_q8, lifted_mrd,
                        parallelism_2_of_F_q4, partial_spread_subcode, spread,
                        verify_min_distance)
from cdckit.gf import field_new
from cdckit.subspace import Subspace, distance, intersection_dim
from cdckit.verify import coverage_check, full_pairwise_check


def test_lifted_mrd_2_6_3_4():
    c = lifted_mrd(2, 6, 3, 4)
    assert (c.n, c.k, c.d_claim, c.size) == (6, 3, 4, 64)
    # identity prefix on every codeword
    for w in c:
        assert all(w.gen.rows[i][j] == (1 if i == j else 0)
                   for i in range(3) for j in range(3))
    report = full_pairwise_check(c)
    assert report.ok and report.min_distance_found == 4
    assert report.pairs_checked == 64 * 63 // 2


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 6, 2), (2, 8, 4), (3, 4, 2)])
def test_spread_covers_every_vector_once(q, n, k):
    sp = spread(q, n, k)
    assert sp.size == (q ** n - 1) // (q ** k - 1)
    report = coverage_check(sp)
    assert report["ok"]
    words = sp.words()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert intersection_dim(words[i], words[j]) == 0


def test_parallelism_q2_and_q3():
    par2 = parallelism_2_of_F_q4(2)
    assert len(par2) == 7 and all(len(m) == 5 for m in par2)
    assert coverage_check(par2)["ok"]
    par3 = parallelism_2_of_F_q4(3)
    assert len(par3) == 13 and all(len(m) == 10 for m in par3)
    assert coverage_check(par3)["ok"]
    # each member is itself a spread
    for member in par2:
        assert coverage_check(member)["ok"]


def test_disjoint_2spreads_of_F_q8():
    fam = disjoint_2spreads_of_F_q8(2)
    assert len(fam) >= 2
    seen = set()
    for member in fam:
        assert coverage_check(member)["ok"]
        for w in member:
            assert w.gen.rows not in seen
            seen.add(w.gen.rows)


def test_partial_spread_subcode_of_lmrd():
    c = lifted_mrd(2, 8, 4, 4)
    sub = partial_spread_subcode(c, "lmrd_nested")
    assert sub.size == 16
    words = sub.words()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert intersection_dim(words[i], words[j]) == 0


def test_cdc_container_invariants():
    f = field_new(2, 1)
    U = Subspace.from_rows(f, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    V = Subspace.from_rows(f, [[0, 0, 1, 0], [0, 0, 0, 1]], 4)
    c = Cdc(f, 4, 2, 4, words=[U, V])
    assert c.size == 2 and c.materialized
    with pytest.raises(CdcError):
        Cdc(f, 4, 2, 4, words=[U, U])  # duplicate
    with pytest.raises(CdcError):
        Cdc(f, 4, 2, 4, words=[U], stream=None) and Cdc(f, 4, 2, 4)
    W = Subspace.from_rows(f, [[1, 0, 0]], 3)
    with pytest.raises(CdcError):
        Cdc(f, 4, 2, 4, words=[W])  # wrong ambient space


def test_verify_min_distance_dispatch():
    c = lifted_mrd(2, 6, 3, 4)
    rep = verify_min_distance(c, mode="full")
    assert rep.ok and rep.min_distance_found == 4
    rep2 = verify_min_distance(c, mode="sampled", pairs=500, seed=3)
    assert rep2.ok and rep2.pairs_checked == 500


# ----------------------------------------------------------------------
# ProductSource: enumeration, random access and rows agree
# ----------------------------------------------------------------------

def _product_cases():
    from cdckit.cdc import ListSource, ProductSource, _single_full
    from cdckit.constructions import _DropFirst
    from cdckit.rankmetric import gabidulin_mrd, rank_filtered
    f2 = field_new(2, 1)
    full = lambda n: _single_full(2, n).source
    return {
        "one factor": ProductSource(f2, [gabidulin_mrd(2, 2, 3, 2)], (3,)),
        "two factors": ProductSource(f2, [full(3), gabidulin_mrd(2, 3, 3, 2)], (3, 3)),
        "three factors, reduced": ProductSource(
            f2, [rank_filtered(gabidulin_mrd(2, 2, 2, 1), 1), full(2),
                 gabidulin_mrd(2, 2, 2, 1)], (2, 2, 2), reduce=True),
        "rank-filtered head": ProductSource(
            f2, [_DropFirst(rank_filtered(gabidulin_mrd(2, 3, 3, 2), 2)), full(3)],
            (3, 3), reduce=True),
        "empty factor": ProductSource(f2, [ListSource([]), gabidulin_mrd(2, 3, 3, 2)],
                                      (3, 3)),
    }


@pytest.mark.parametrize("case", sorted(_product_cases()))
def test_product_source_stream_matches_random_access(case):
    from cdckit.linalg import pack_row
    src = _product_cases()[case]
    streamed = list(src.iter_packed())
    assert len(streamed) == src.size
    assert streamed == [src.packed_at(i) for i in range(src.size)]
    assert streamed == [tuple(pack_row(r) for r in src.rows_at(i)) for i in range(src.size)]
    assert list(src.iter_rows()) == [src.rows_at(i) for i in range(src.size)]
    for i in (-1, src.size):
        with pytest.raises(IndexError):
            src.packed_at(i)
        with pytest.raises(IndexError):
            src.rows_at(i)


def test_product_source_sizes_and_rref():
    from cdckit.linalg import rref_bits
    cases = _product_cases()
    assert cases["one factor"].size == 8
    assert cases["two factors"].size == 64
    assert cases["three factors, reduced"].size == 10 * 16
    assert cases["rank-filtered head"].size == 49
    assert cases["empty factor"].size == 0
    for case in ("three factors, reduced", "rank-filtered head"):
        src = cases[case]
        words = list(src.iter_packed())
        assert all(list(w) == rref_bits(w, src.n)[0] for w in words)
        assert len(set(words)) == len(words)


def test_word_list_is_packed_at_construction(monkeypatch):
    # a GF(2) word list is packed in the constructor: streams, random
    # access and the duplicate check read the same packed words
    f = field_new(2, 1)
    words = list(lifted_mrd(2, 6, 3, 4))
    expected = [w.packed_rows() for w in words]
    c = Cdc(f, 6, 3, 4, words=words)
    monkeypatch.setattr(Subspace, "packed_rows", lambda self: pytest.fail("packed again"))
    assert list(c.iter_packed()) == expected == [c.packed_at(i) for i in range(c.size)]
    assert c.packed_at(-1) == expected[-1]
    assert all(type(v) is int for v in c.packed_at(0))
    twin = Subspace(f, 6, words[0].gen.rows)  # equal rows, nothing packed yet
    monkeypatch.undo()
    with pytest.raises(CdcError):
        Cdc(f, 6, 3, 4, words=words + [twin])
