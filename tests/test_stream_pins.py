"""SHA-256 pins of streamed words: whole streams, a prefix of every leaf
source of the large unions, and a code file written in generation order.
The words do not depend on how a stream assembles them."""

import hashlib
from itertools import islice

import numpy as np
import pytest

from cdckit.codefile import write_code
from cdckit.constructions import RECIPES, UnionSource, recipe_10_4_5


def _words_sha(words, limit=None):
    """SHA-256 of packed words as little-endian uint64 rows, in stream order."""
    h, words = hashlib.sha256(), islice(words, limit)
    while block := list(islice(words, 1 << 16)):
        h.update(np.array(block, dtype="<u8").tobytes())
    return h.hexdigest()


def _leaves(src):
    """The sources of a union, parts of parts included, in stream order."""
    if isinstance(src, UnionSource):
        for part in src.parts:
            yield from _leaves(part)
    else:
        yield src


STREAM_SHA = {
    "10_4_5": "41c7b7b000285b34f7cdaa049a4bf11b9e81682599f6104906e9e3b09416a236",
    "12_8_6": "4b067998fa7415b4b82bd9c3a2cb0c74182218d639bf476bf723c69d098a0eee",
}


@pytest.mark.parametrize("name", sorted(STREAM_SHA))
def test_whole_stream_pinned(name):
    c, _ = RECIPES[name](2)
    assert _words_sha(c.iter_packed()) == STREAM_SHA[name]


LEAF_PREFIX = 150_000

LEAF_SHA = {
    "12_4_4_thm": [
        "1f54ee8d4915b627c0010dfaf2ab067fdd53bb012a2362529fff1143c21609d2",
        "1e9ed4dd48371c7e36c7d55c9d743b7b70a127a2393bfabc7ca1aa4ff680e3d3",
        "30efae343311a4121cd353b07baa41e5a50992b26717ed03538bf6e45fb15595",
    ],
    "12_6_6": [
        "ccf64e535384ae46b12604a0baa7d6d38a469fbfde607921ea8f4963218e18c6",
        "4e305c5325d3aa777ce06ab8703447287ce3bc3d677898990e505f4845595a91",
        "9a2304903dd127eb8e716711a9cbfd9339bf663e9452cf3cfceddc66a0e7619c",
        "7fcf3fd4bdf42d21b0073688356ebdee5b37e2e66f5dea77add667f2144bebb4",
    ],
}


@pytest.mark.parametrize("name", sorted(LEAF_SHA))
def test_leaf_stream_prefixes_pinned(name):
    # the duplication's lifted-MRD block and linkage block 1, which a
    # prefix of the whole stream never reaches
    c, _ = RECIPES[name](2)
    got = [_words_sha(leaf.iter_packed(), LEAF_PREFIX) for leaf in _leaves(c.source)]
    assert got == LEAF_SHA[name]


class _ShaSink:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("ascii"))


def test_generation_file_pinned():
    # the SHA-256 of dumps(recipe_10_4_5(2)[0], order="generation"), hashed
    # as written: its block 1 is reduced to RREF
    sink = _ShaSink()
    c, _ = recipe_10_4_5(2)
    assert write_code(c, sink, order="generation") == c.size
    assert sink.sha.hexdigest() == \
        "626bac4a70d730757f0cbc35320b52913c5fa3b5105141d343fae2cf646c9b26"
