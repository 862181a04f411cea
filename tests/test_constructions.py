"""Construction machinery: linkage, addons, pairing, duplication, and the
closed-form size polynomials."""

import hashlib
import random

import numpy as np
import pytest

from cdckit.cdc import Cdc, PackedSource, lifted_mrd, partial_spread_subcode, spread
from cdckit.codefile import dumps
from cdckit.constructions import (CompositionProfile, ConstructionError,
                                  DistancePartition, FORMULAS, MinusSource,
                                  MissingImportError, NdkSequence, RECIPES,
                                  SeqEntry, check_special_substructure,
                                  cor1_bound, coset_addon, duplication,
                                  mixed_abar_addons, multiblock_linkage,
                                  pairing_construction, parallelism_2_of_F_q4, product_addon,
                                  recipe_12_4_4_thm, recipe_12_6_6, recipe_12_8_6, recipe_3k_4_k,
                                  recipe_8_4_4,
                                  recipe_9_4_3, size_10_4_5_claimed,
                                  size_10_4_5_linkage, size_12_4_4_cor,
                                  size_12_4_4_thm, size_12_6_6, size_12_8_6,
                                  size_8_4_4, xi_extension, _ReembedSource,
                                  UnionSource, _dual_spread, _duplication_over, _indices_in,
                                  _lmrd_entry as _lmrd_entry_of, _sequence_entry_from_code,
                                  _single_full)
from cdckit.gf import field_new
from cdckit.linalg import rref_bits
from cdckit.rankmetric import gabidulin_mrd, rank_filtered
from cdckit.subspace import Subspace, distance, intersection_dim
from cdckit.verify import (CapExceeded, coverage_check, enumerate_subspaces, full_pairwise_check,
                           sampled_check)

F2 = field_new(2, 1)


def _unit(idxs, n):
    return Subspace.from_rows(F2, [[1 if c == i else 0 for c in range(n)]
                                   for i in idxs], n)


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def test_cor1_bound_reference_values():
    assert cor1_bound(2, 4, 4, (4, 4, 4), (1, 1, 1)) == 19208388
    assert cor1_bound(2, 4, 4, (8, 4), (4801, 1)) == 19673822


def test_size_polynomials_at_q2():
    assert size_8_4_4(2) == 4797
    assert size_12_4_4_thm(2) == 19660413
    assert size_12_4_4_cor(2) == 19673822
    assert size_12_6_6(2) == 16865629
    assert size_10_4_5_linkage(2) == 1178312
    assert size_10_4_5_claimed(2) == 1179336
    assert size_12_8_6(2) == 262165
    assert size_12_8_6(2) == 2 ** 18 + (2 ** 6 - 1) // (2 ** 2 - 1)


def test_formula_registry_dispatch():
    assert FORMULAS["A_q(8,4;4)"](2) == 4797
    assert FORMULAS["A_q(12,4;4)_cor"](2) == 19673822
    assert FORMULAS["A_q(12,6;6)"](2) == 16865629
    assert FORMULAS["A_q(4k,2k;2k)"](2, k=4) > 0
    assert FORMULAS["A_q(6k,2k;2k)"](2, k=4) > FORMULAS["A_q(4k,2k;2k)"](2, k=4)


# ----------------------------------------------------------------------
# linkage
# ----------------------------------------------------------------------

def test_linkage_spread_instance():
    # q=2, k=2, two blocks of width 4, d = 2k: an 85-line spread of F_2^8
    profile = CompositionProfile(2, 2, 4, (4, 4))
    C = [spread(2, 4, 2), spread(2, 4, 2)]
    M = [gabidulin_mrd(2, 2, 4, 2), gabidulin_mrd(2, 2, 4, 2)]
    c = multiblock_linkage(profile, C, M)
    assert c.size == 85
    c.words()
    assert coverage_check(c)["ok"]


def test_linkage_q3_pinned():
    # the q > 2 path: scalar rows, RREF of block 1 over GF(3)
    c = multiblock_linkage(CompositionProfile(3, 2, 2, (2, 2)), [_single_full(3, 2)] * 2,
                           [gabidulin_mrd(3, 2, 2, 1)] * 2)
    assert c.size == 114
    assert [b["count"] for b in c.provenance["blocks"]] == [81, 33]
    assert full_pairwise_check(c).min_distance_found == 2
    text = dumps(c, order="generation")
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "a1831ea82ce5f07da817d38e18d48710cc3328f264a049f5c0ec3d1e2462f2be"


def test_recipe_8_4_4_size_and_substructure():
    c, expected = recipe_8_4_4(2)
    assert expected == 4797 and c.size == 4797
    rep = sampled_check(c, 20000, seed=0)
    assert rep.ok and rep.min_distance_found == 4
    sub = check_special_substructure(c)
    assert sub["ok"] and sub["checked"] == 4622  # the linkage part of the code
    # with the blocks' column ranges swapped, words fail the projection
    b0, b1 = c.provenance["blocks"]
    b0["col_start"], b0["col_end"], b1["col_start"], b1["col_end"] = 4, 8, 0, 4
    sub = check_special_substructure(c)
    assert not sub["ok"] and sub["checked"] == 4622 and len(sub["failures"]) == 3302


def test_recipes_on_the_8_4_4_base_make_few_subspaces(monkeypatch):
    # the (8,4;4) code is built on packed rows: its Subspace values are the
    # 35 lines of the parallelism search, not one for each of its 4,797
    # words
    made = []
    init = Subspace.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subspace, "__init__", counted)
    recipe_8_4_4(2)
    assert len(made) <= 35
    made.clear()
    recipe_12_4_4_thm(2)
    assert len(made) <= 45


@pytest.mark.parametrize("recipe, q, bound", [("12_6_6", 2, 2), ("12_6_6", 3, 2),
                                              ("12_8_6", 2, 42)])
def test_addon_recipes_make_few_subspaces(monkeypatch, recipe, q, bound):
    # the coset addon, the hole extensions and the pairing's direct sums
    # stack packed rows, and the identities and spreads are packed words:
    # the Subspace values left are the two holes of the (12,6;6) hole
    # extension and the (12,8;6) pairing's dual spread: 21 spread words,
    # each viewed once, and their 21 orthogonal complements
    made = []
    init = Subspace.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subspace, "__init__", counted)
    RECIPES[recipe](q)
    assert len(made) <= bound


def test_8_4_4_lists_its_packed_words_on_demand():
    # the packed store lists its words as views on each words(), in
    # generation order (pinned); at(i) builds one word only
    c, _ = recipe_8_4_4(2)
    last = c.at(c.size - 1)
    assert c.materialized
    words = c.words()
    assert c.words() == words and words[-1] == last and c.at(7) == words[7]
    assert hashlib.sha256("\n".join(w.serialize() for w in words).encode()).hexdigest() == \
        "3480d5e5173479bd0b59d74986417d3d26f02c9ece85bb95b4569e6043a5a76e"
    assert c.source.packed_at_batch([4796, 0]).tolist() == [list(c.packed_at(4796)),
                                                           list(c.packed_at(0))]


def test_linkage_rejects_bad_profiles():
    with pytest.raises(ConstructionError):
        CompositionProfile(2, 4, 4, (4,)).validate()
    with pytest.raises(ConstructionError):
        CompositionProfile(2, 4, 3, (4, 4)).validate()
    with pytest.raises(ConstructionError):
        CompositionProfile(2, 4, 4, (3, 4)).validate()
    with pytest.raises(ConstructionError):
        CompositionProfile(2, 5, 4, (5, 5), (2, 3), (2, 1)).validate(with_ab=True)


# ----------------------------------------------------------------------
# addons
# ----------------------------------------------------------------------

def test_coset_addon_and_xi_extension_12_6_6():
    profile = CompositionProfile(2, 6, 6, (6, 6), (3, 3), (1, 2))
    addon = coset_addon(profile)
    assert addon.size == 512
    ext = xi_extension(profile, addon)
    assert ext.size == 16
    merged = Cdc(F2, 12, 6, 6, words=addon.words() + ext.words())
    rep = full_pairwise_check(merged)
    assert rep.ok and rep.min_distance_found == 6


def test_recipe_12_6_6_over_gf3_hole_extension_pinned():
    # the one GF(3) run of xi_extension: its 54 words read the first coset
    # of each addon family, pinned as a generation-order file
    c, size = recipe_12_6_6(3)
    assert c.size == size == size_12_6_6(3) == 282_454_220_858
    ext = c.source.parts[2]
    assert ext.size == 54
    text = dumps(Cdc(c.field, 12, 6, 6, stream=ext), order="generation")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ef25f1c15565c6a1843e05e8ae424632a083697f10332d3469c3be0951137742"


def test_mixed_abar_rejection_and_frozen_counterexample():
    # the two dimension splits (2,3) and (3,2) only separate by pivot
    # distance 2, and an explicit distance-2 pair exists across them
    p1 = CompositionProfile(2, 5, 4, (5, 5), (2, 3), (1, 2))
    p2 = CompositionProfile(2, 5, 4, (5, 5), (3, 2), (2, 1))
    with pytest.raises(ConstructionError):
        mixed_abar_addons([p1, p2])
    a1, a2 = coset_addon(p1), coset_addon(p2)
    U1 = _unit([0, 1, 5, 6, 7], 10)
    U2 = _unit([0, 1, 2, 5, 6], 10)
    assert U1.rows in set(w.rows for w in a1.words())
    assert U2.rows in set(w.rows for w in a2.words())
    assert distance(U1, U2) == 2


def test_mixed_abar_accepts_separated_splits():
    # splits whose dimension vectors differ by >= d are certified
    p1 = CompositionProfile(2, 6, 4, (6, 6), (2, 4), (1, 3))
    p2 = CompositionProfile(2, 6, 4, (6, 6), (4, 2), (3, 1))
    mixed = mixed_abar_addons([p1, p2])
    rep = sampled_check(mixed, 20000, seed=0)
    assert rep.ok and rep.min_distance_found >= 4


def test_product_addon_checks_cross_families():
    profile = CompositionProfile(2, 4, 4, (4, 4), (2, 2), (1, 1))
    w0 = Cdc(F2, 4, 2, 4, words=[_unit([0, 1], 4)])
    w1 = Cdc(F2, 4, 2, 4, words=[_unit([2, 3], 4)])
    with pytest.raises(ConstructionError):
        # the same 2-subspace in both families of block 0: distance 0 < 2
        product_addon(profile, [[w0, w0], [w0, w1]])


@pytest.mark.parametrize("q", [2, 3, 257])
def test_product_addon_names_the_block_of_close_families(q):
    # block 1's families 0 and 2 share a line; those of block 0, and the
    # families within one block, are far enough apart
    f = field_new(q, 1)
    lines = [Subspace.from_rows(f, [[1 if c == i else 0 for c in range(4)] for i in idxs], 4)
             for idxs in ([0, 1], [2, 3], [0, 2], [1, 3])]
    profile = CompositionProfile(q, 4, 4, (4, 4), (2, 2), (1, 1))

    def families(*members):
        return [Cdc(f, 4, 2, 4, words=[lines[i] for i in m]) for m in members]

    good = families([0], [1], [2, 3])
    assert product_addon(profile, [good, good]).size == 1 + 1 + 4
    with pytest.raises(ConstructionError, match="cross-family distance 0 < 2 in block 1"):
        product_addon(profile, [good, families([0], [1], [0, 3])])


def test_recipe_8_4_4_checks_its_equal_blocks_once(monkeypatch):
    # both blocks take equal parallelism families: the cross-family check
    # scans block 0, one meet_dims per member, and skips block 1
    import cdckit.constructions as constructions
    members = sum(map(len, parallelism_2_of_F_q4(2)))
    calls = []
    meet = constructions.meet_dims
    monkeypatch.setattr(constructions, "meet_dims", lambda *a: calls.append(a) or meet(*a))
    recipe_8_4_4(2)
    assert members == 35 and len(calls) == members


# ----------------------------------------------------------------------
# pairing
# ----------------------------------------------------------------------

def test_pairing_12_8_6_counts_and_structure():
    c, expected = recipe_12_8_6(2)
    assert expected == 262165 and c.size == 262165
    rep = sampled_check(c, 20000, seed=0)
    assert rep.ok and rep.min_distance_found >= 8


# ----------------------------------------------------------------------
# duplication
# ----------------------------------------------------------------------

def _lmrd_entry():
    lm = lifted_mrd(2, 6, 3, 4)
    unit = _unit([0, 1, 2], 6)
    hole = _unit([3, 4, 5], 6)
    return lm, SeqEntry(lm, unit, hole)


def test_duplication_small_instance():
    lm, entry = _lmrd_entry()
    c0 = _indices_in(lm, partial_spread_subcode(lm, "lmrd_nested"))
    assert len(c0) == 8
    part = DistancePartition(lm, [c0, np.setdiff1d(np.arange(lm.size), c0)])
    seq = NdkSequence([entry, entry])
    A = _single_full(2, 3)
    c = duplication(part, seq, A)
    assert c.size == 1 + 8 * 64 + 56 * 64 == 4097
    assert (c.n, c.k) == (9, 3)


def _xor_of_basis_rows(coeff, basis, width):
    acc = 0
    for c in range(width):
        if coeff >> (width - 1 - c) & 1:
            acc ^= basis[c]
    return acc


@pytest.mark.parametrize("width", range(1, 13))
def test_combined_xors_the_basis_rows_of_each_set_column(width):
    # a re-embedded word is the RREF of its coefficient rows, each the XOR of
    # the basis rows of its set columns: one spans lookup per row, in the
    # batched gather (random indices reach every basis, several per batch)
    # and in packed_at
    rng = np.random.default_rng(width)
    coeffs = rng.integers(0, 1 << width, (155, 3), dtype=np.uint64)
    coeffs[0] = 0
    coeffs[1] = (1 << width) - 1
    bases = rng.integers(0, 1 << 63, (4, width), dtype=np.uint64)
    src = _ReembedSource(F2, 63, bases, PackedSource(F2, width, coeffs))
    want = [tuple(rref_bits([_xor_of_basis_rows(g, basis, width) for g in word], 63)[0])
            for basis in bases.tolist() for word in coeffs.tolist()]
    idx = rng.permutation(src.size)
    got = src.packed_at_batch(idx)
    assert got.dtype == np.uint64 and got.shape == (src.size, 3)
    assert [tuple(r for r in row if r) for row in got.tolist()] == [want[i] for i in idx]
    assert [src.packed_at(i) for i in idx[:50].tolist()] == [want[i] for i in idx[:50]]


def test_partition_and_sequence_validation():
    lm, entry = _lmrd_entry()
    base = Cdc(F2, 6, 3, 4, words=lm.words())
    words = base.words()
    # a partition whose first part is not a partial spread must fail
    close = next(i for i, w in enumerate(words) if i and distance(words[0], w) == 4)
    rest = [i for i in range(len(words)) if i not in (0, close)]
    bad = DistancePartition(base, [[0, close], rest])
    with pytest.raises(ConstructionError):
        bad.validate()
    # overlapping parts must fail
    with pytest.raises(ConstructionError):
        DistancePartition(base, [range(len(words)), [0]]).validate()
    # a sequence witness inside the witness subspace must fail
    with pytest.raises(ConstructionError):
        NdkSequence([SeqEntry(entry.code, entry.witness_s,
                              entry.witness_s)]).validate()
    NdkSequence([entry, entry]).validate()



def test_partition_overlap_with_covering_sizes():
    lm, _ = _lmrd_entry()
    with pytest.raises(ConstructionError, match="parts overlap"):
        DistancePartition(lm, [[0], np.arange(lm.size - 1)]).validate()


def test_sequence_scan_rejections():
    lm, entry = _lmrd_entry()
    unit, hole = entry.witness_u, entry.witness_s
    # listed copies have no lifted-MRD handle, so validate scans every word
    meets_1 = Cdc(F2, 6, 3, 4, words=lm.words() + [_unit([0, 1, 3], 6)])
    meets_2 = Cdc(F2, 6, 3, 4, words=lm.words() + [_unit([0, 3, 4], 6)])
    NdkSequence([entry, SeqEntry(meets_1, unit, hole)]).validate()
    with pytest.raises(ConstructionError, match="member 0: codeword meets S in dim > 0"):
        NdkSequence([SeqEntry(meets_1, unit, hole)]).validate()
    with pytest.raises(ConstructionError, match="member 1: codeword meets S in dim > 1"):
        NdkSequence([entry, SeqEntry(meets_2, unit, hole)]).validate()
    without_unit = Cdc(F2, 6, 3, 4, words=[w for w in lm.words() if w != unit])
    with pytest.raises(ConstructionError, match="witness codeword 0 not in the code"):
        NdkSequence([SeqEntry(without_unit, unit, hole)]).validate()


def _import_entries(base):
    # the sequence of recipe_9_4_3: the lifted MRD (6,3) code, then the
    # base minus one disjoint word
    return [_lmrd_entry()[1], _sequence_entry_from_code(base)]


def test_duplication_from_imported_base_pinned():
    # the greedy partial spread of the base, cut to 7 words, then the base
    # minus one disjoint word as the sequence code
    lm, _ = _lmrd_entry()
    c0 = _indices_in(lm, partial_spread_subcode(lm, "greedy"))[:7]
    c = _duplication_over(lm, c0, _import_entries(lm), _single_full(2, 3))
    assert (c.n, c.k, c.size) == (9, 3, 1 + 7 * 63 + 57 * 64) == (9, 3, 4090)
    rep = full_pairwise_check(c)
    assert rep.ok and rep.min_distance_found == 4
    text = dumps(c, order="generation")
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "6e768118f1a476eb15e478966ee2234a18429bc5ad5fda9b19c4ca366414700b"


CHOOSER_PINS = {  # SHA-256 of each subcode's lines; the sequence witnesses (U, S)
    "8_4_4": ("c8a42245576813d3248f441b9eac000469e777c8e45488fb7412e5a39cbe2095",
              "db502a27956f2528dbd524dc16463e63c22b199ea6e7b0c17b7699899c74162e",
              "10000000|01000000|00100000|00010000", "00001000|00000100|00000010|00000001"),
    "lifted (8,4), q = 2": (
        "d21d5043293efa93312db1b4163476fe25dc57f8d1c67d3f29edb5c3c8ff3cd8",
        "606a9e477981e30f1d796f314ec76b23c641c88f1c4145b2f33c35d91a16e88a",
        "10000001|01000010|00100100|00011010", "10000000|01000000|00100000|00010000"),
    "lifted (4,2), q = 3": (
        "436a3ab6e74646a2fb7d7acbab3dfb762b361396cad5e73aabb2f4596111b243",
        "9b10a7cd2286c9d47bd9e2debc1d9efb712ff0d9c1ef8c271e97c8f19d7193c3",
        "1001|0110", "1000|0100"),
}


@pytest.mark.parametrize("name", sorted(CHOOSER_PINS))
def test_subcodes_and_sequence_witnesses_pinned(name):
    # both partial-spread strategies and the removed word of the sequence
    # member, chosen in canonical order; the member is the code without it
    code = {"8_4_4": lambda: recipe_8_4_4(2)[0],
            "lifted (8,4), q = 2": lambda: lifted_mrd(2, 8, 4, 4),
            "lifted (4,2), q = 3": lambda: lifted_mrd(3, 4, 2, 2)}[name]()
    subs = [partial_spread_subcode(code, strategy) for strategy in ("lmrd_nested", "greedy")]
    shas = [hashlib.sha256("\n".join(w.serialize() for w in sub).encode()).hexdigest()
            for sub in subs]
    entry = _sequence_entry_from_code(code)
    assert (*shas, entry.witness_u.serialize(), entry.witness_s.serialize()) == CHOOSER_PINS[name]
    assert list(entry.code) == [w for w in code if w != entry.witness_s]


def test_sequence_member_of_the_streamed_10_4_5_code():
    # the member is the 1,178,312-word stream without one word, a view that
    # is never listed; validate shows that it meets its removed word S in
    # dimension <= 3, so S is not in it
    from cdckit.constructions import recipe_10_4_5
    base, _ = recipe_10_4_5(2)
    member = _sequence_entry_from_code(base)
    S = member.witness_s
    assert member.code.size == base.size - 1 == 1178311 and not member.code.materialized
    assert distance(member.witness_u, S) == 10
    entry = _lmrd_entry_of(lifted_mrd(2, 10, 5, 4))
    NdkSequence([entry, entry, entry, member]).validate()
    with pytest.raises(ConstructionError, match="member 2: codeword meets S in dim > 2"):
        NdkSequence([entry, entry, member]).validate()


def test_partition_prefix_past_2000_words_is_certified():
    # the last prefix union has 4,097 words, one pair at distance 2 < 4
    lm = lifted_mrd(2, 8, 4, 4)
    c0 = _indices_in(lm, partial_spread_subcode(lm, "lmrd_nested"))
    rest = np.setdiff1d(np.arange(lm.size), c0)
    last = lm.at(lm.size - 1)
    close = Subspace.from_rows(F2, last.rows[:3] + ((0,) * 7 + (1,),), 8)
    assert distance(last, close) == 2
    DistancePartition(lm, [c0, [], rest]).validate()
    base = Cdc(F2, 8, 4, 4, words=lm.words() + [close])
    with pytest.raises(ConstructionError, match="prefix union 2 violates distance 4"):
        DistancePartition(base, [c0, [], [*rest, lm.size]]).validate()


def test_shared_duplication_over_an_explicit_subcode():
    # recipe_9_4_3's path with an imported base_subcode, on the lifted MRD
    # (6,3) base of criterion 8: C_0 is its 8-word partial spread
    lm, _ = _lmrd_entry()
    sub = partial_spread_subcode(lm, "lmrd_nested")
    c = _duplication_over(lm, _indices_in(lm, sub), _import_entries(lm), _single_full(2, 3))
    assert (c.n, c.k, c.size) == (9, 3, 1 + 8 * 63 + 56 * 64) == (9, 3, 4089)
    rep = full_pairwise_check(c)
    assert rep.ok and rep.min_distance_found == 4
    hole = _unit([3, 4, 5], 6)
    alien = Cdc(F2, 6, 3, 6, words=[sub.at(0), hole])
    with pytest.raises(ConstructionError, match=f"subcode word {hole.serialize()} is not in"):
        _indices_in(lm, alien)


def test_general_reembedding_gathers_no_member_words():
    # the re-embedded copies read the sequence member by index: building
    # the duplication gathers none of its words, and a gather of the copies
    # reads the member's words at the requested indices only
    lm, _ = _lmrd_entry()
    entries = _import_entries(lm)
    member = entries[1].code.source
    calls = []

    def spy(idx, gather=member.packed_at_batch):
        calls.append(np.array(idx))
        return gather(idx)

    member.packed_at_batch = spy
    c0 = _indices_in(lm, partial_spread_subcode(lm, "lmrd_nested"))
    c = _duplication_over(lm, c0, entries, _single_full(2, 3))
    assert calls == []
    m = member.size
    copies = c.source.parts[1]
    assert copies.packed_at_batch(np.array([0, m + 1, 2 * m + 4])).shape == (3, 3)
    assert [j.tolist() for j in calls] == [[0, 1, 4]]


def test_c0_order_is_the_stream_order_of_its_copies():
    # C_0 in non-ascending index order: the copy re-embedded above c0[u] is
    # the u-th block of |D| words, streamed and gathered alike
    lm, _ = _lmrd_entry()
    c0 = _indices_in(lm, partial_spread_subcode(lm, "lmrd_nested"))[::-1].copy()
    asc = np.sort(c0)
    assert not np.array_equal(c0, asc)
    entries, A = _import_entries(lm), _single_full(2, 3)
    got, want = (_duplication_over(lm, idx, entries, A).source.parts[1] for idx in (c0, asc))
    m = entries[1].code.size
    blocks = got.packed_at_batch(np.arange(got.size)).reshape(len(c0), m, 3)
    assert [tuple(w) for w in blocks.reshape(-1, 3).tolist()] == list(got.iter_packed())
    ref = want.packed_at_batch(np.arange(want.size)).reshape(len(asc), m, 3)
    assert np.array_equal(blocks, ref[np.searchsorted(asc, c0)])


def test_empty_part_skips_its_prefix(monkeypatch):
    # 12_4_4_thm's C_1 is empty: prefix 1 would certify C_0's 17 words again
    import cdckit.constructions as constructions
    sizes = []

    def spy(code, *args):
        sizes.append(code.size)
        return full_pairwise_check(code, *args)

    monkeypatch.setattr(constructions, "full_pairwise_check", spy)
    c, _ = recipe_12_4_4_thm(2)
    assert sizes == [17, 4797]


def test_partition_of_the_streamed_12_4_4_code(monkeypatch):
    # C_0 is the greedy partial spread of a 20,000-word prefix of the
    # 19,660,413-word stream, the other part its complement: cover, overlap
    # and the C_0 prefix are checked, and the whole-code prefix is refused
    # before its words are gathered
    import cdckit.constructions as constructions
    c, _ = recipe_12_4_4_thm(2)
    head = Cdc(F2, 12, 4, 4, stream=PackedSource(F2, 12, c.packed_at_batch(np.arange(20000))))
    c0 = _indices_in(head, partial_spread_subcode(head, "greedy"))
    rest = np.ones(c.size, dtype=bool)
    rest[c0] = False
    rest = np.flatnonzero(rest)
    gathered, checked = [], []
    gather = c.source.packed_at_batch
    monkeypatch.setattr(c.source, "packed_at_batch",
                        lambda idx: gathered.append(len(idx)) or gather(idx))
    monkeypatch.setattr(constructions, "full_pairwise_check",
                        lambda code: checked.append(full_pairwise_check(code)) or checked[-1])
    with pytest.raises(CapExceeded, match="prefix union 1 has 19660413 codewords"):
        DistancePartition(c, [c0, rest]).validate()
    assert gathered == [len(c0)] and len(c0) > 8
    assert [(r.ok, r.min_distance_found) for r in checked] == [(True, 8)]
    rest[-1] = c0[0]
    with pytest.raises(ConstructionError, match="parts overlap"):
        DistancePartition(c, [c0, rest]).validate()


def test_recipes_require_their_imports():
    with pytest.raises(MissingImportError):
        recipe_9_4_3(2)
    with pytest.raises(MissingImportError):
        recipe_3k_4_k(2, 5)
    from cdckit.constructions import recipe_10_4_5, size_3k_4_k
    base, _ = recipe_10_4_5(2)
    _, expected = recipe_3k_4_k(2, 5, base=base)
    assert expected == size_3k_4_k(2, 5, base.size)


def test_recipe_registry_complete():
    assert set(RECIPES) == {"8_4_4", "12_4_4_cor", "12_4_4_thm", "12_6_6",
                            "10_4_5", "4k_2k_2k", "12_8_6", "3k_4_k",
                            "16_4_4", "6k_2k_2k", "9_4_3", "10_4_3"}


# ----------------------------------------------------------------------
# streamed recipes: pinned words, index range
# ----------------------------------------------------------------------

def _stream_digest(code, prefix=20000, picks=300, seed=7):
    """SHA-256 over the first `prefix` streamed words, then `picks` seeded
    random accesses through packed_at and at."""
    h = hashlib.sha256()
    for i, word in enumerate(code.iter_packed()):
        if i == prefix:
            break
        h.update(repr(tuple(word)).encode())
    rng = random.Random(seed)
    for _ in range(picks):
        i = rng.randrange(code.size)
        h.update(repr(tuple(code.packed_at(i))).encode())
        h.update(code.at(i).serialize().encode())
    return h.hexdigest()


STREAM_DIGESTS = {
    "10_4_5": "fbb9b086818131b946c01676a55725b11981c0aeb4d2a91248a0a0ada253f5c3",
    "12_8_6": "ba8d911646c9d7a8296988a9ca666df2c2c802c92163ea3526b78698a8714c24",
    "12_4_4_thm": "13fa41fb02f3ebf6770b878d2b4b92e0a73950f73b6318469324ac30e994d934",
    "12_6_6": "36f3f8cf302e100ec49ba207a03c0b12dd776b1c36c24435269665c0f81d2e3f",
}


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_streamed_recipe_words_pinned(name):
    c, _ = RECIPES[name](2)
    assert not c.materialized
    assert _stream_digest(c) == STREAM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_streamed_recipe_index_range(name):
    c, _ = RECIPES[name](2)
    for i in (-1, c.size):
        with pytest.raises(IndexError):
            c.packed_at(i)
        with pytest.raises(IndexError):
            c.at(i)


@pytest.mark.parametrize("removed, error", [([0, 531], IndexError), ([-1], IndexError),
                                            ([3, 3], ConstructionError),
                                            ([5, 2], ConstructionError)],
                         ids=["past the end", "negative", "repeated", "decreasing"])
def test_minus_source_refuses_removed_indices_out_of_range_or_order(removed, error):
    # each of these once made a view whose size, stream and words disagreed
    with pytest.raises(error):
        MinusSource(rank_filtered(gabidulin_mrd(2, 4, 4, 2), 2), removed)


def test_minus_source_drops_the_removed_words():
    parent = rank_filtered(gabidulin_mrd(2, 4, 4, 2), 2)
    view = MinusSource(parent, [2, 5, 525])
    kept = [tuple(parent.packed_at(i)) for i in range(parent.size) if i not in (2, 5, 525)]
    assert view.size == len(kept) == 523
    assert [tuple(view.packed_at(i)) for i in range(view.size)] == kept
    assert list(view.iter_packed()) == kept


def test_handle_words_are_hashable_tuples_as_streamed():
    # a GF(2) handle's packed_at hands out the stream's word type, a tuple
    view = MinusSource(rank_filtered(gabidulin_mrd(2, 4, 4, 2), 2), [0])
    word = view.packed_at(0)
    assert word == next(iter(view.iter_packed())) and type(word) is tuple
    assert {word: 0}[word] == 0


def test_sequence_member_over_gf3_holds_its_witness():
    # past GF(2) a witness is found by meeting it with every word in dimension k
    entry = _sequence_entry_from_code(spread(3, 4, 2))
    NdkSequence([entry]).validate()
    words = set(entry.code)
    other = next(U for U in enumerate_subspaces(3, 4, 2)
                 if intersection_dim(U, entry.witness_s) == 0 and U not in words)
    with pytest.raises(ConstructionError, match="not in the code"):
        NdkSequence([SeqEntry(entry.code, other, entry.witness_s)]).validate()


def _pairing_inputs():
    C1 = spread(2, 6, 2)
    return dict(nbar2=(6, 6), abar2=(2, 4), bbar2=(0, 2), C0=_single_full(2, 6), C1=C1,
                C2=_dual_spread(C1), d=8)


@pytest.mark.parametrize("change, message", [
    ({"abar2": (3, 3)}, "a_1 <= k - d/2"),
    ({"bbar2": (0, 1)}, "b_1 \\+ b_2 = k - d/2"),
    ({"C0": "C1"}, "C0 must be"),
    ({"C1": "C2"}, "C1 must be"),
    ({"C2": "C1"}, "C2 must be"),
])
def test_pairing_construction_refuses_unfit_parts(change, message):
    args = _pairing_inputs()
    args.update({key: args[value] if isinstance(value, str) else value
                 for key, value in change.items()})
    with pytest.raises(ConstructionError, match=message):
        pairing_construction(**args)


def test_recipe_8_4_4_past_the_listing_cap_is_a_union():
    # over GF(3) the linkage and the addon are 543,142 words: a stream of two parts
    c, expected = recipe_8_4_4(3)
    assert c.size == expected == size_8_4_4(3) == 543_142
    assert not c.materialized and isinstance(c.source, UnionSource)
    linkage, addon = c.source.parts
    assert (linkage.size, addon.size) == (541_842, 1_300)
    assert c.packed_at(linkage.size) == addon.packed_at(0)
    assert c.at(0).serialize() == "10000000|01000000|00100000|00010000"
