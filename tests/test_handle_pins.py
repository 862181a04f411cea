"""SHA-256 pins of rank-metric handle words and of the coset addon: every
handle kind gives the same rows, and the addon the same code file, whichever
engine computes them; q = 2 handles read their words from XOR tables only."""

import hashlib

import numpy as np
import pytest

from cdckit import rankmetric
from cdckit.cdc import lifted_mrd
from cdckit.codefile import dumps
from cdckit.constructions import CompositionProfile, ConstructionError, MinusSource, coset_addon
from cdckit.linalg import unpack_row
from cdckit.rankmetric import (GabidulinHandle, RankCodeHandle, RankFilteredHandle,
                               coset_partition, gabidulin_mrd, nested_subcode, rank_filtered)


def handles(q):
    """One handle of each kind over GF(q), small enough to list.  At q = 4
    and 9 the words are 2 x 2 and 2 x 3, over the towers GF(q^2) and GF(q^3)
    of a field that is not prime."""
    if q in (4, 9):
        big = gabidulin_mrd(q, 3, 2, 1)  # transposed: m > n
        return {
            "square": gabidulin_mrd(q, 2, 2, 2),
            "transposed": gabidulin_mrd(q, 3, 2, 2),
            "nested": nested_subcode(gabidulin_mrd(q, 2, 3, 1), 2),
            "coset": coset_partition(big, nested_subcode(big, 2))[5],
            "rank-filtered": rank_filtered(gabidulin_mrd(q, 2, 2, 1), 1),
            "drop-first": MinusSource(rank_filtered(gabidulin_mrd(q, 2, 2, 1), 1), [0]),
        }
    square = (4, 4) if q == 2 else (3, 3)
    big = gabidulin_mrd(q, 5 if q == 2 else 4, 3, 1)  # transposed: m > n
    return {
        "square": gabidulin_mrd(q, *square, 2),
        "transposed": gabidulin_mrd(q, 5 if q == 2 else 4, 3, 2),
        "nested": nested_subcode(gabidulin_mrd(q, 3, 5 if q == 2 else 4, 1), 2),
        "coset": coset_partition(big, nested_subcode(big, 2))[5],
        "rank-filtered": rank_filtered(gabidulin_mrd(q, *square, 2), 2),
        "drop-first": MinusSource(rank_filtered(gabidulin_mrd(q, 3, 3, 2), 2), [0]),
    }


def _rows_sha(h):
    text = "\n".join(";".join("".join(map(str, row)) for row in h.rows_at(i))
                     for i in range(h.size))
    return hashlib.sha256(text.encode()).hexdigest()


ROWS_SHA = {
    (2, "square"):
        "97b66622511b5213ddcb08073a91b294352fff5e082434f15956fa01ccda0657",
    (2, "transposed"):
        "9f69c15848df968a913b2d04d1ecb032da0d68874a86f004c4d8c468a7493223",
    (2, "nested"):
        "79050db00ee106f81142068728647011d5f44f3580db979d9b94390ff2ed82ce",
    (2, "coset"):
        "5b8e05c7760c841f9e3e06ffbbf98e196a344874a68c3b7ee4f6f61094d403b6",
    (2, "rank-filtered"):
        "f28ff337f592585b6b39ae2352456efa5131eb791326187c0177ebff983bd333",
    (2, "drop-first"):
        "f4ed262d5ac669c89846621500932d4daf05dc9274a785f0181925473427de82",
    (3, "square"):
        "fa3c4975894a1a72c356336d097e992abe0b90d6c83959a153f42e37b429a366",
    (3, "transposed"):
        "fee713cd5564b6f3c188adeb535b3074f4fbce7b44c753773af3496a5640be68",
    (3, "nested"):
        "d4787f4a0ff5b33aedb6b2db9541ffa5ec260c8770afad642400e29e30a9226b",
    (3, "coset"):
        "5031b120ff67274c151632e4d5e1cff303abc918a55cb17c2e8af2031c61d886",
    (3, "rank-filtered"):
        "ce57f70a5d565eddf080826923407bc51a2484c2d73442634a530a5e6b5d2957",
    (3, "drop-first"):
        "49f68c01017139cc2aaaa8676092b30670c7991f0375561f4686d04905b9f51e",
    (4, "square"):
        "07425b201517379cb8d2a3bab7eaa39d0b1f16731b5bf0977c7a35668d7e8723",
    (4, "transposed"):
        "b6ab055f9423a90518d28b895f5cac0fdb39ed492101381e47ed3dad6a235475",
    (4, "nested"):
        "7e82035b9b5b016c1ec64f3cf33195c7af7a0702c9d955f638af0a8e57b07651",
    (4, "coset"):
        "91d1f5d714363381f17b260e1d3b395e111c8f55b19ac75402b72726be95b376",
    (4, "rank-filtered"):
        "22f752cbd8504f51b6baa93d8c7f79556fd829540ca435843bf3ddb2d25297e2",
    (4, "drop-first"):
        "537a33f1abdab987be5025f12ba774c3349ef805e28fcb6a0f37b56aa33d5c69",
    (9, "square"):
        "23e11a61bf221991c551a509fd8d74bcb54d91d84773ca2a65cfdb947018985b",
    (9, "transposed"):
        "7635d410dbdba9d757aae593427d6c41b739e48fdf13fc2323d5aa634c7f8c3b",
    (9, "nested"):
        "b27a3fba235a3dbf328c2f1e8684c2c5fb687a9be81d68087b6956b68138269a",
    (9, "coset"):
        "7884a76e86f6b9cb08d1343f0d898f0cb7d69bbe656cc29dcb2f8d7064e35dd2",
    (9, "rank-filtered"):
        "e8efe3ec1fe7ed7d85fa4f1f3aba05d51e679d7bb21af5c41238652fb084c882",
    (9, "drop-first"):
        "b0481084642e65075a5f4e776ad4199a2da5235028122bb066f1a488d7d925b7",
}


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_handle_rows_pinned(q):
    got = {kind: _rows_sha(h) for kind, h in handles(q).items()}
    assert got == {kind: sha for (qq, kind), sha in ROWS_SHA.items() if qq == q}


ADDON_SHA = {
    2: "0b4b1f38cfb0781de4626b4a5f2181c2bf6cb382494897b37c26d24d7f95365c",
    3: "8260664146cffcdb5e34c7f55584104d4bfc04e606a7fe6e8140e0aa88d73f76",
}


@pytest.mark.parametrize("q", [2, 3])
def test_coset_addon_file_pinned(q):
    addon = coset_addon(CompositionProfile(q, 6, 6, (6, 6), (3, 3), (1, 2)))
    text = dumps(addon, order="generation")
    assert hashlib.sha256(text.encode()).hexdigest() == ADDON_SHA[q]


def test_coset_addon_refusal_builds_no_coset(monkeypatch):
    # at q = 7 the (12, 6; 6) addon is refused from the handle sizes: only
    # the two block codes and their nested subcodes are built, no coset
    built = []
    init = RankCodeHandle.__init__
    monkeypatch.setattr(RankCodeHandle, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    with pytest.raises(ConstructionError, match="40353607 words, past MATERIALIZE_CAP"):
        coset_addon(CompositionProfile(7, 6, 6, (6, 6), (3, 3), (1, 2)))
    assert len(built) == 4 and sum(h.parent is None for h in built) == 2
    assert all(h.rep == 0 for h in built)


def test_q2_handles_never_run_the_field_engine(monkeypatch):
    # every q = 2 word, row and block comes from the tables: a nested subcode
    # or a coset never evaluates a linearized polynomial, and once the tables
    # exist no access transposes a word
    hs = list(handles(2).values())
    big, wide = gabidulin_mrd(2, 4, 3, 1), gabidulin_mrd(2, 3, 5, 1)
    lifted = lifted_mrd(2, 12, 8, 4)  # a transposed 8 x 4 handle

    def field_engine(self, coeffs):
        raise AssertionError("a q = 2 handle evaluated a linearized polynomial")

    monkeypatch.setattr(GabidulinHandle, "_internal_rows", field_engine)
    hs += coset_partition(big, nested_subcode(big, 2))  # transposed, 16 cosets of 256 words
    hs += coset_partition(wide, nested_subcode(wide, 2))[:3]
    hs.append(nested_subcode(big, 3))
    hs.append(rank_filtered(hs[-2], 2))  # no formula: solves the coset at once
    for h in hs + [lifted.lmrd_handle]:
        h.packed_at(0)

    def transpose(block, ncols):
        raise AssertionError("a q = 2 access transposed a word")

    monkeypatch.setattr(rankmetric, "_transpose_block", transpose)
    for h in hs:
        words = [h.packed_at(i) for i in range(h.size)]
        assert h.packed_at_batch(np.arange(h.size)).tolist() == words
        assert [[tuple(r) for r in h.rows_at(i)] for i in range(h.size)] == \
            [[unpack_row(r, h.n) for r in w] for w in words]
        if isinstance(h, GabidulinHandle):
            assert np.concatenate(list(h.iter_blocks())).tolist() == words
        if isinstance(h, RankFilteredHandle):
            assert len(h.indices()) == h.size
    block = next(lifted.source.packed_blocks())
    assert block.tolist() == lifted.source.packed_at_batch(np.arange(len(block))).tolist()
