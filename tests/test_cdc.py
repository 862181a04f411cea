"""CDC containers, lifted MRD codes, spreads, and parallelisms."""

import numpy as np
import pytest

from cdckit.cdc import (Cdc, CdcError, lifted_mrd, parallelism_2_of_F_q4,
                        partial_spread_subcode, spread)
from cdckit.gf import field_new
from cdckit.subspace import Subspace, distance, intersection_dim
from cdckit.verify import coverage_check, full_pairwise_check


def test_lifted_mrd_2_6_3_4():
    c = lifted_mrd(2, 6, 3, 4)
    assert (c.n, c.k, c.d_claim, c.size) == (6, 3, 4, 64)
    # identity prefix on every codeword
    for w in c:
        assert all(w.rows[i][j] == (1 if i == j else 0)
                   for i in range(3) for j in range(3))
    report = full_pairwise_check(c)
    assert report.ok and report.min_distance_found == 4
    assert report.pairs_checked == 64 * 63 // 2


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 6, 2), (2, 8, 4), (3, 4, 2), (2, 4, 4),
                                   (3, 3, 3)])
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


def test_partial_spread_subcode_of_lmrd():
    c = lifted_mrd(2, 8, 4, 4)
    sub = partial_spread_subcode(c, "lmrd_nested")
    assert sub.size == 16
    words = sub.words()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert intersection_dim(words[i], words[j]) == 0



def test_greedy_partial_spread_of_lmrd_pinned():
    # every word, in sort order, that meets no word kept before it
    sub = partial_spread_subcode(lifted_mrd(2, 6, 3, 4), "greedy")
    assert [w.serialize() for w in sub.words()] == [
        "100000|010000|001000", "100001|010011|001101", "100010|010110|001111",
        "100011|010101|001010", "100100|010001|001011", "100101|010010|001110",
        "100110|010111|001100", "100111|010100|001001"]
    assert sub.provenance["strategy"] == "greedy"

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


# ----------------------------------------------------------------------
# ProductSource: enumeration, random access and rows agree
# ----------------------------------------------------------------------

def _product_cases():
    from cdckit.cdc import ListSource, ProductSource, _single_full
    from cdckit.constructions import MinusSource
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
            f2, [MinusSource(rank_filtered(gabidulin_mrd(2, 3, 3, 2), 2), [0]), full(3)],
            (3, 3), reduce=True),
        "empty factor": ProductSource(f2, [ListSource(f2, 3, []), gabidulin_mrd(2, 3, 3, 2)],
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
    k = len(streamed[0]) if streamed else 0
    assert [w.rows for w in Cdc(src.field, src.n, k, 0, stream=src)] == \
        [src.rows_at(i) for i in range(src.size)]
    for i in (-1, src.size):
        with pytest.raises(IndexError):
            src.packed_at(i)
        with pytest.raises(IndexError):
            src.rows_at(i)


@pytest.mark.parametrize("reduce", [False, True], ids=["plain", "reduced"])
@pytest.mark.parametrize("q", [3, 4])
def test_product_source_over_larger_fields_matches_concatenated_rows(q, reduce):
    # w = 2 bits an entry at q = 3 and at q = 4, where entries add by XOR;
    # the reference puts the factors' rows side by side, the last factor
    # fastest, and brings them to RREF with rref_rows when the product reduces
    from cdckit.cdc import ProductSource, _single_full
    from cdckit.gf import base_field
    from cdckit.linalg import pack_rows, rref_rows
    from cdckit.rankmetric import gabidulin_mrd, rank_filtered
    f = base_field(q)
    transposed = gabidulin_mrd(q, 2, 1, 1)  # 2 x 1 words: m > n
    assert transposed.transposed
    if reduce:
        factors, widths = [rank_filtered(gabidulin_mrd(q, 2, 2, 1), 1),
                           _single_full(q, 2).source, transposed], (2, 2, 1)
    else:
        factors, widths = [_single_full(q, 2).source, transposed,
                           gabidulin_mrd(q, 2, 2, 2)], (2, 1, 2)
    src = ProductSource(f, factors, widths, reduce=reduce)

    def reference(i):
        parts = []
        for fac in reversed(factors):
            i, j = divmod(i, fac.size)
            parts.append(fac.rows_at(j))
        rows = [sum(map(tuple, row), ()) for row in zip(*reversed(parts))]
        return tuple(rref_rows(f, rows, src.n)[0] if reduce else rows)

    want = [reference(i) for i in range(src.size)]
    # 1 + (q + 1)(q^2 - 1) matrices of rank <= 1 in the rank-filtered head
    assert src.size == ((1 + (q + 1) * (q * q - 1)) * q ** 2 if reduce else q ** 4)
    assert [src.rows_at(i) for i in range(src.size)] == want
    assert [src.packed_at(i) for i in range(src.size)] == [pack_rows(f, w) for w in want]
    assert list(src.iter_packed()) == [src.packed_at(i) for i in range(src.size)]
    assert [w.rows for w in Cdc(f, src.n, 2, 0, stream=src)] == want
    assert len(set(want)) == len(want)
    for i in (-1, src.size):
        with pytest.raises(IndexError):
            src.packed_at(i)


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
    twin = Subspace(f, 6, words[0].rows)  # equal rows, nothing packed yet
    monkeypatch.undo()
    with pytest.raises(CdcError):
        Cdc(f, 6, 3, 4, words=words + [twin])


# ----------------------------------------------------------------------
# one store: a Cdc reads its words from its source alone
# ----------------------------------------------------------------------

def test_stream_words_are_a_fresh_list_each_call(monkeypatch):
    import cdckit.cdc as cdc
    c = lifted_mrd(2, 6, 3, 4)
    src = c.source
    first = c.words()
    second = c.words()
    assert second == first and second is not first
    assert not c.materialized and c.source is src
    monkeypatch.setattr(cdc, "MATERIALIZE_CAP", 63)
    with pytest.raises(CdcError):
        c.words()


def test_lifted_mrd_is_not_listed():
    c = lifted_mrd(2, 6, 3, 4)
    assert not c.materialized
    for i in (-1, c.size):
        with pytest.raises(IndexError):
            c.at(i)


def test_listed_words_are_the_source_list():
    f = field_new(2, 1)
    words = list(lifted_mrd(2, 6, 3, 4))
    c = Cdc(f, 6, 3, 4, words=iter(words))
    assert c.materialized and c.words() == c.words() == words
    assert c.at(-1) == words[-1]


def test_a_code_keeps_its_source_alone():
    # at, iteration and words() build Subspace views and keep none: the
    # attributes of a Cdc are its parameters, provenance and one source
    f = field_new(2, 1)
    words = list(lifted_mrd(2, 6, 3, 4))
    codes = [Cdc(f, 6, 3, 4, words=words), Cdc(f, 6, 3, 4, stream=lifted_mrd(2, 6, 3, 4).source)]
    for c in codes:
        assert c.at(5) == words[5] and list(c) == c.words() == words
        assert set(vars(c)) == {"field", "n", "k", "d_claim", "provenance", "source"}


@pytest.mark.parametrize("q", [2, 3])
def test_words_from_at_are_not_packed_again(q, monkeypatch):
    # at keeps the packed rows its view is unpacked from, as iteration
    # does: a code listed from at's words packs none of them again
    import cdckit.subspace as subspace
    from cdckit.constructions import recipe_10_4_5
    code = recipe_10_4_5(2)[0] if q == 2 else lifted_mrd(3, 4, 2, 2)
    idx = range(0, code.size, max(1, code.size // 2000))
    words = [code.at(i) for i in idx]
    calls = []
    monkeypatch.setattr(subspace, "pack_rows", lambda *args: calls.append(args))
    listed = Cdc(code.field, code.n, code.k, code.d_claim, words=words)
    assert calls == [] and listed.size == len(words)
    assert [listed.packed_at(x) for x in range(len(words))] == [code.packed_at(i) for i in idx]
    assert all(type(v) is int for v in listed.packed_at(0))


@pytest.mark.parametrize("q", [2, 3])
def test_a_gf2_word_list_holds_its_array_from_construction(q):
    # over GF(2) the gathers' array is built with the code, so its first
    # gather or export reads the same array as the next; over GF(3), where
    # nothing gathers, the words stay tuples until the array is asked for
    code = lifted_mrd(q, 6, 3, 4)
    listed = Cdc(code.field, code.n, code.k, code.d_claim, words=list(code))
    assert (vars(listed.source)["_array"] is not None) == (q == 2)
    assert listed.source.array.tolist() == [list(w) for w in code.iter_packed()]


def test_packed_gf2_words_must_be_in_rref():
    # 1100|0100 spans the same plane as 1000|0100: an array word not in RREF
    # is refused, so no subspace is listed twice under two row sets
    f = field_new(2, 1)
    words = np.array([[0b1100, 0b0100], [0b1000, 0b0100]], np.uint64)
    with pytest.raises(CdcError, match="RREF"):
        Cdc(f, 4, 2, 2, words=words)
    assert Cdc(f, 4, 2, 2, words=words[1:]).size == 1
    with pytest.raises(CdcError, match="RREF"):  # a zero row
        Cdc(f, 4, 2, 2, words=np.array([[0b1000, 0]], np.uint64))


def test_misfit_word_is_refused_before_it_is_packed():
    # a GF(3) word in a GF(2) list: the check runs first, so no GF(2)
    # packing of it is cached on the word
    f2, f3 = field_new(2, 1), field_new(3, 1)
    misfit = Subspace(f3, 6, ((1, 0, 0, 2, 0, 0), (0, 1, 0, 0, 2, 0), (0, 0, 1, 0, 0, 2)))
    with pytest.raises(CdcError):
        Cdc(f2, 6, 3, 4, words=[*lifted_mrd(2, 6, 3, 4).words()[:2], misfit])
    assert misfit._packed is None
