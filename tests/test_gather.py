"""The batched gather: packed_at_batch(idx) equals [packed_at(i) for i in
idx] on every q = 2 source and rank-metric handle, and the block stream
that iter_packed reads equals the gathered and the scalar words, on the
handles and the views of a parent's words as well."""

import random
from functools import lru_cache, partial
from itertools import islice

import numpy as np
import pytest

from cdckit.cdc import (Cdc, ListSource, PackedSource, ProductSource, _single_full, lifted_mrd,
                        spread)
from cdckit.codefile import HEADER_KEYS, dumps
from cdckit.constructions import (CompositionProfile, MinusSource, UnionSource, multiblock_linkage,
                                  recipe_10_4_5, recipe_12_4_4_thm, recipe_8_4_4)
from cdckit.gf import field_new
from cdckit.linalg import BATCH
from cdckit.rankmetric import (coset_partition, gabidulin_mrd, nested_subcode,
                               rank_filtered)

F2 = field_new(2, 1)


@lru_cache(maxsize=None)
def _linkage():
    # block 0 plain, block 1 reduced to RREF behind a rank-filtered prefix
    return multiblock_linkage(CompositionProfile(2, 2, 4, (4, 4)), [spread(2, 4, 2)] * 2,
                              [gabidulin_mrd(2, 2, 4, 2)] * 2)


def _heads(n, k, count):
    """A ListSource of `count` k-subspaces of F_2^n: the last factor of a
    product streams once under each of them."""
    return ListSource(F2, n, islice(lifted_mrd(2, n, k, 2).iter_packed(), count))


def _packed(n, k, dtype, count=300):
    """A PackedSource of `count` distinct words [I_k | M] of F_2^n with random
    M, held as dtype the way the file reader holds n-bit rows."""
    rng = random.Random(n)
    rows = [[(1 << (n - 1 - j)) | rng.getrandbits(n - k) for j in range(k)]
            for _ in range(count)]
    return PackedSource(F2, n, np.array(rows, dtype))


# (n, k, dtype) of each reader dtype: uint16 holds the 12-column files, and
# n = 64 sets the top bit of every row
PACKED_DTYPES = {"packed, uint16": (12, 4, np.uint16), "packed, uint32": (20, 3, np.uint32),
                 "packed, uint64 top bit": (64, 3, np.uint64)}


def _sources():
    big = gabidulin_mrd(2, 5, 3, 1)
    wide = gabidulin_mrd(2, 3, 5, 1)
    linkage = _linkage().source
    words = list(lifted_mrd(2, 6, 3, 4))
    mrd44 = gabidulin_mrd(2, 4, 4, 2)
    return {
        "product, coset last": lambda: ProductSource(
            F2, [_heads(6, 3, 5), coset_partition(wide, nested_subcode(wide, 2))[7]], (6, 5)),
        "product, nested last": lambda: ProductSource(
            F2, [_heads(6, 3, 4), nested_subcode(gabidulin_mrd(2, 3, 6, 1), 2)], (6, 6)),
        "product, transposed last": lambda: ProductSource(
            F2, [_heads(7, 5, 4), gabidulin_mrd(2, 5, 3, 2)], (7, 3)),
        "product, reduced, handle last": lambda: ProductSource(  # linkage block 1 of 3
            F2, [rank_filtered(mrd44, 2), _single_full(2, 4).source, mrd44], (4, 4, 4),
            reduce=True),
        "square": lambda: gabidulin_mrd(2, 4, 4, 2),
        "transposed": lambda: lifted_mrd(2, 9, 6, 4).lmrd_handle,
        "nested": lambda: nested_subcode(gabidulin_mrd(2, 4, 4, 1), 2),
        "coset": lambda: coset_partition(big, nested_subcode(big, 2))[5],
        "rank-filtered": lambda: rank_filtered(gabidulin_mrd(2, 4, 4, 2), 3),
        "drop-first": lambda: MinusSource(rank_filtered(gabidulin_mrd(2, 3, 3, 2), 2), [0]),
        "product": lambda: lifted_mrd(2, 9, 6, 4).source,
        "product, reduced": lambda: linkage.parts[1],
        "union": lambda: linkage,
        "list": lambda: ListSource(F2, 6, [w.packed_rows() for w in words]),
        "list, packed rows": lambda: ListSource(F2, 6, np.array([w.packed_rows() for w in words],
                                                                np.uint64)),
        "minus, listed parent": lambda: MinusSource(recipe_8_4_4(2)[0].source,  # two blocks
                                                    [0, 4095, 4096, 4796]),
        "packed": lambda: PackedSource(F2, 6, np.array([w.packed_rows() for w in words],
                                                       np.uint8)),
        "re-embedded": lambda: recipe_12_4_4_thm(2)[0].source.parts[1],
        **{case: partial(_packed, *spec) for case, spec in PACKED_DTYPES.items()},
        **{case: partial(_union, case) for case in UNION_SHAPES},
        "product, one-word factor first": lambda: ProductSource(
            F2, [_single_full(2, 3).source, gabidulin_mrd(2, 3, 3, 2)], (3, 3)),
        "product, one-word factor last": lambda: ProductSource(
            F2, [gabidulin_mrd(2, 3, 3, 2), _single_full(2, 3).source], (3, 3)),
        "product, rank-filtered factor": lambda: ProductSource(  # 50 words a head word
            F2, [_heads(6, 3, 3), rank_filtered(gabidulin_mrd(2, 3, 3, 1), 1)], (6, 3)),
        "product, listed head past BATCH": lambda: ProductSource(
            F2, [_heads(8, 4, 5000), gabidulin_mrd(2, 4, 2, 2)], (8, 2)),
        "product, reduced, one-word last": lambda: ProductSource(  # linkage block 2 of 3
            F2, [rank_filtered(mrd44, 2), _single_full(2, 4).source], (4, 4), reduce=True),
    }


def _union(case):
    """A union of unequal parts over F_2^7 with its largest part, a
    product, first, in the middle or last; two equal parts; a union nested
    in a union; and a MinusSource part."""
    big = ProductSource(F2, [_single_full(2, 3).source, gabidulin_mrd(2, 3, 4, 2)], (3, 4))
    small = ListSource(F2, 7, islice(lifted_mrd(2, 7, 3, 4).iter_packed(), 40))
    tail = nested_subcode(gabidulin_mrd(2, 3, 7, 1), 3)
    return {
        "union, largest first": lambda: UnionSource([big, small, tail]),
        "union, largest in the middle": lambda: UnionSource([small, big, tail]),
        "union, largest last": lambda: UnionSource([tail, small, big]),
        "union, two equal parts": lambda: UnionSource([big, MinusSource(big, [])]),
        "union, nested": lambda: UnionSource([small, UnionSource([tail, big]), small]),
        "union, minus part": lambda: UnionSource([small, MinusSource(big, [0, 7, 255])]),
    }[case]()


UNION_SHAPES = ["union, largest first", "union, largest in the middle", "union, largest last",
                "union, two equal parts", "union, nested", "union, minus part"]


CASES = sorted(_sources())


@pytest.mark.parametrize("case", CASES)
def test_gather_equals_scalar_access(case):
    src = _sources()[case]()
    assert src.size > 2
    rng = random.Random(case)
    idx = [0, src.size - 1] + [rng.randrange(src.size) for _ in range(300)] + [0]
    got = src.packed_at_batch(np.array(idx, dtype=np.int64))
    assert got.dtype == np.uint64 and got.shape[0] == len(idx)
    assert got.tolist() == [list(src.packed_at(i)) for i in idx]
    empty = src.packed_at_batch(np.zeros(0, dtype=np.int64))
    assert empty.shape == (0, got.shape[1]) and empty.dtype == np.uint64
    for bad in ([-1], [src.size], [0, src.size + 5]):
        with pytest.raises(IndexError):
            src.packed_at_batch(np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("case", CASES)
def test_stream_equals_scalar_access(case):
    src = _sources()[case]()
    n = min(src.size, 5000)  # past the first 4,096-word chunk where there is one
    streamed = []
    for word in src.iter_packed():
        streamed.append(list(word))
        if len(streamed) == n:
            break
    assert streamed == [list(src.packed_at(i)) for i in range(n)]


@pytest.mark.parametrize("case", ["product", "product, reduced", "union", "re-embedded",
                                  "list", "list, packed rows", "packed", "minus, listed parent"])
def test_streamed_words_are_int_tuples(case):
    # the stream hands out the same values packed_at does: tuples of Python
    # ints, hashable and comparable with words read from a file
    src = _sources()[case]()
    n = min(src.size, 5000)
    for i, word in zip(range(n), src.iter_packed()):
        assert type(word) is tuple and all(type(r) is int for r in word)
        assert word == tuple(src.packed_at(i))


def test_packed_source_hands_out_python_ints():
    # its rows are the reader's dtype, its words tuples of Python ints and its gathers uint64
    dtypes = {"packed": np.uint8, **{case: spec[2] for case, spec in PACKED_DTYPES.items()}}
    for case, dtype in dtypes.items():
        src = _sources()[case]()
        word = src.packed_at(src.size - 1)
        assert type(word) is tuple and all(type(r) is int for r in word)
        assert word == src.packed_at(-1) and src.packed.dtype == dtype
        assert src.packed_at_batch([src.size - 1]).tolist() == [list(word)]
        assert Cdc(src.field, src.n, len(word), 0, stream=src).words()[-1].packed_rows() == word


def test_code_gathers_from_its_source():
    c = _linkage()
    assert c.packed_at_batch([3, 84, 0]).tolist() == [list(c.packed_at(i)) for i in (3, 84, 0)]
    listed = Cdc(F2, 8, 2, 4, words=list(c))
    assert listed.packed_at_batch([84]).tolist() == [list(c.packed_at(84))]


@pytest.mark.parametrize("case", ["product, coset last", "product, nested last",
                                  "product, transposed last", "product, reduced, handle last"])
def test_block_stream_equals_gather(case):
    # a product with a handle last ORs each head word into the handle's
    # blocks; the first three blocks hold the words a gather gives
    src = _sources()[case]()
    blocks = list(islice(src.packed_blocks(), 3))
    assert all(b.dtype == np.uint64 and b.flags.c_contiguous for b in blocks)
    words = np.concatenate(blocks)
    assert len(blocks) == 3 and len(words) < src.size
    assert words.tolist() == src.packed_at_batch(np.arange(len(words))).tolist()
    streamed = list(islice(src.iter_packed(), len(words)))
    assert streamed == [tuple(w) for w in words.tolist()]


def test_streams_read_blocks_not_gathers(monkeypatch):
    # the union chains its parts, and linkage block 0 streams its lifted
    # MRD handle block by block: neither is ever gathered by a stream
    c, _ = recipe_10_4_5(2)

    def refuse(*_):
        raise AssertionError("a stream gathered")

    monkeypatch.setattr(UnionSource, "packed_at_batch", refuse)
    monkeypatch.setattr(c.source.parts[0].last, "packed_at_batch", refuse)
    assert sum(1 for _ in c.iter_packed()) == c.size
    assert sum(map(len, c.source.packed_blocks())) == c.size


@pytest.mark.parametrize("view", ["minus", "union"])
@pytest.mark.parametrize("handle", ["gabidulin", "rank-filtered"])
def test_views_over_a_handle_stream_and_export(handle, view):
    # a handle is a source: a view over it streams and writes through the
    # handle's block stream, word for word as packed_at gives it, across
    # the 4,096-word blocks of the 2^14-word handle
    h = gabidulin_mrd(2, 3, 7, 2)
    h = h if handle == "gabidulin" else rank_filtered(h, 2)  # 890 words
    cut = [0, 4095, 4096, h.size - 1] if h.size > 4096 else [0, h.size // 2, h.size - 1]
    src = MinusSource(h, cut) if view == "minus" else UnionSource([h, h])
    words = [tuple(src.packed_at(i)) for i in range(src.size)]
    assert list(src.iter_packed()) == words
    assert np.concatenate(list(src.packed_blocks())).tolist() == [list(w) for w in words]
    body = dumps(Cdc(F2, 7, 3, 2, stream=src), order="generation").splitlines()[len(HEADER_KEYS):]
    assert body == ["|".join(format(r, "07b") for r in w) for w in words]


@pytest.mark.parametrize("case", UNION_SHAPES)
def test_union_gathers_every_index_in_any_order(case):
    # each part's words land at their rows whichever part is the largest,
    # which is gathered at every index and overwritten where another part is
    src = _union(case)
    idx = np.random.default_rng(len(case)).permutation(np.repeat(np.arange(src.size), 2))
    assert src.packed_at_batch(idx).tolist() == [list(src.packed_at(i)) for i in idx.tolist()]


def test_listed_head_past_batch_streams_every_head_word():
    # the block stream gathers BATCH head words at a time: the second gather
    # starts at head word BATCH, word 16 BATCH of the product
    src = _sources()["product, listed head past BATCH"]()
    streamed = np.concatenate(list(src.packed_blocks()))
    assert streamed.tolist() == src.packed_at_batch(np.arange(src.size)).tolist()
    for i in (0, 16 * BATCH - 1, 16 * BATCH, src.size - 1):
        assert streamed[i].tolist() == list(src.packed_at(i))


@pytest.mark.parametrize("case", [*UNION_SHAPES, "product, listed head past BATCH",
                                  "product, one-word factor last", "product, reduced"])
def test_out_of_range_index_raises_before_any_part_is_gathered(case, monkeypatch):
    src = _sources()[case]()

    def refuse(*_):
        raise AssertionError("a part was gathered")

    for part in getattr(src, "parts", None) or src.factors:
        monkeypatch.setattr(part, "packed_at_batch", refuse)
    for bad in ([0, src.size], [-1, 3], [src.size + 5]):
        with pytest.raises(IndexError):
            src.packed_at_batch(np.array(bad, dtype=np.int64))
