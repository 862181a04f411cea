"""Code file format: round-trips, golden-file byte stability, distinct
error types, and subcode imports."""

import functools
import hashlib
import os
import pathlib
import re
import time

import numpy as np
import pytest

from cdckit.cdc import Cdc, lifted_mrd, partial_spread_subcode, spread
from cdckit.codefile import (CountMismatchError, DimensionMismatchError,
                             DuplicateCodewordError, HeaderError, SubcodeError,
                             dumps, export, import_code, import_with_subcode,
                             loads, read_code, write_code)
from cdckit.gf import field_new
from cdckit.subspace import Subspace

DATA = pathlib.Path(__file__).parent / "data"


def test_roundtrip_lifted_mrd():
    c = lifted_mrd(2, 6, 3, 4)
    c2 = loads(dumps(c))
    assert c2.size == 64 and (c2.n, c2.k, c2.d_claim) == (6, 3, 4)
    assert set(w.rows for w in c2.words()) == set(w.rows for w in c)
    # canonical export is stable under re-export
    assert dumps(c2) == dumps(c)


def test_golden_file_byte_stability():
    c = lifted_mrd(2, 6, 3, 4)
    golden = (DATA / "lmrd_2_6_3_4.cdc").read_bytes()
    assert dumps(c).encode("ascii") == golden


# SHA-256 of q > 2 code files; they must not change with the field code
@pytest.mark.parametrize("build,args,digest", [
    (lifted_mrd, (3, 4, 2, 2), "4940f891e0546c7f1d0c95f8f82c76fa0a56d9b577b069677bc9ceeced3c3fce"),
    (lifted_mrd, (4, 4, 2, 2), "78b56d7a8d61a2b6ba196667935e85c7704221c64477aa4824950af4537dd06f"),
    (lifted_mrd, (9, 4, 2, 2), "41550c2fcd5356dde73efcbc7409ef598e8411bf7005bd1a78662450dba3c5e6"),
    (spread, (9, 4, 2), "db1d63a4a8356e96447a24cd3c57d6d2975f5dd0daa041edf2fce4135e57f830"),
])
def test_golden_sha256_q_above_2(build, args, digest):
    assert hashlib.sha256(dumps(build(*args)).encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("q,pe", [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)),
                                  (8, (2, 3)), (9, (3, 2))])
def test_header_roundtrip_across_fields(q, pe):
    c = spread(q, 4, 2)
    c2 = loads(dumps(c))
    assert c2.field.q == q and (c2.field.p, c2.field.e) == pe
    assert set(w.rows for w in c2.words()) == set(w.rows for w in c.words())


def test_empty_code_roundtrip():
    f = field_new(2, 1)
    c = Cdc(f, 4, 2, 4, words=[])
    c2 = loads(dumps(c))
    assert c2.size == 0


def test_empty_code_roundtrip_gf_3_8():
    # the header's field must not cost a q x q table (GF(3^8): 6561^2 entries)
    start = time.monotonic()
    c = Cdc(field_new(3, 8), 4, 2, 4, words=[])
    c2 = loads(dumps(c))
    assert time.monotonic() - start < 5
    assert c2.size == 0 and c2.field == c.field


def _header(p, e, mod):
    return (f"#Q={p ** e}\n#P={p}\n#E={e}\n#MOD={mod}\n#N=4\n#K=2\n#D=2\n"
            "#COUNT=0\n#ORDER=canonical\n#PROV=hostile\n")


@pytest.mark.parametrize("p,e,mod", [
    (2 ** 61 - 1, 1, "0,1"),  # a prime too large for trial division
    (2, 41, "1,0,0,1" + ",0" * 37 + ",1"),  # x^41 + x^3 + 1
])
def test_hostile_field_header_loads_fast(p, e, mod):
    start = time.monotonic()
    c = loads(_header(p, e, mod))
    assert time.monotonic() - start < 2
    assert c.size == 0 and c.field.q == p ** e


@pytest.mark.parametrize("p,e,mod", [
    (2, 1, "3,1"),     # read as 1,1 when coefficients were reduced mod p
    (2, 1, "1,1"),     # a degree-1 modulus other than x
    (3, 1, "2,1"),
    (2, 2, "1,3,1"),   # read as x^2 + x + 1
    (3, 2, "-2,0,1"),  # read as x^2 + 1
])
def test_field_header_modulus_outside_the_field_refused(p, e, mod):
    with pytest.raises(HeaderError, match=f"modulus {re.escape(mod)} "):
        loads(_header(p, e, mod))


def test_huge_extension_degree_rejected_fast():
    start = time.monotonic()
    with pytest.raises(HeaderError):
        loads(_header(3, 1, "0,1").replace("#E=1", "#E=30000000"))
    assert time.monotonic() - start < 2


def test_error_types_are_distinct():
    text = dumps(lifted_mrd(2, 6, 3, 4))
    lines = text.splitlines(keepends=True)

    with pytest.raises(CountMismatchError):
        loads(text.replace("#COUNT=64", "#COUNT=63"))
    with pytest.raises(DuplicateCodewordError):
        loads("".join(lines) + lines[-1])
    with pytest.raises(HeaderError):
        loads(text.replace("#Q=2\n", ""))        # missing key
    with pytest.raises(HeaderError):
        loads(text.replace("#Q=2", "#Q=five"))   # non-numeric
    with pytest.raises(HeaderError):
        loads(text.replace("#Q=2", "#QQ=2"))     # unknown key
    with pytest.raises(HeaderError):
        loads(text.replace("#ORDER=canonical", "#ORDER=shuffled"))
    with pytest.raises(DimensionMismatchError):
        loads(text.replace("100000|010000|001000\n", "10000|01000|00100\n"))
    with pytest.raises(DimensionMismatchError):
        # dependent rows collapse to dimension 2
        loads(text.replace("100000|010000|001000\n", "100000|010000|110000\n"))


def test_export_import_via_files(tmp_path):
    c = lifted_mrd(2, 6, 3, 4)
    path = tmp_path / "c.cdc"
    export(c, path)
    c2 = import_code(path)
    assert c2.size == 64
    assert c2.provenance["path"] == str(path)


def test_import_with_subcode(tmp_path):
    c = lifted_mrd(2, 8, 4, 4)
    sub = partial_spread_subcode(c, "lmrd_nested")
    p1, p2 = tmp_path / "code.cdc", tmp_path / "sub.cdc"
    export(c, p1)
    export(sub, p2)
    code, flagged = import_with_subcode(p1, p2)
    assert code.size == 4096 and flagged.size == 16
    # empty subcode accepted trivially
    empty = Cdc(c.field, 8, 4, 8, words=[])
    p3 = tmp_path / "empty.cdc"
    export(empty, p3)
    import_with_subcode(p1, p3)
    # non-subset rejected
    alien = spread(2, 8, 4)
    p4 = tmp_path / "alien.cdc"
    export(alien, p4)
    with pytest.raises(SubcodeError):
        import_with_subcode(p1, p4)


def test_gf3_subcode_import_checks_membership(tmp_path):
    # over GF(3) membership is looked up by generator rows: a subset imports,
    # and a subcode with a word outside the parent names that word
    c = lifted_mrd(3, 4, 2, 2)
    hole = Subspace(c.field, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    parent, sub, alien = tmp_path / "c.cdc", tmp_path / "sub.cdc", tmp_path / "alien.cdc"
    export(c, parent)
    export(Cdc(c.field, 4, 2, 2, words=c.words()[40:2:-9]), sub)
    code, flagged = import_with_subcode(parent, sub)
    assert (code.size, flagged.size) == (81, 5)
    export(Cdc(c.field, 4, 2, 2, words=[c.at(7), hole]), alien)
    with pytest.raises(SubcodeError, match=hole.serialize()):
        import_with_subcode(parent, alien)


def test_read_code_from_a_pipe():
    # a pipe cannot seek: its body is read into memory before the packed
    # reader sizes its array
    text = dumps(lifted_mrd(2, 6, 3, 4))
    r, w = os.pipe()
    with open(w, "wb") as fw:
        fw.write(text.encode())
    with open(r, "rb") as fr:
        assert not fr.seekable()
        assert dumps(read_code(fr)) == text


def test_subcode_distance_verified(tmp_path):
    c = lifted_mrd(2, 6, 3, 4)
    words = c.words()
    # claim distance 6 on a subcode that only achieves 4
    from cdckit.subspace import distance
    w0 = words[0]
    close = next(w for w in words[1:] if distance(w0, w) == 4)
    bad_sub = Cdc(c.field, 6, 3, 6, words=[w0, close])
    p1, p2 = tmp_path / "c.cdc", tmp_path / "bad.cdc"
    export(c, p1)
    export(bad_sub, p2)
    with pytest.raises(SubcodeError):
        import_with_subcode(p1, p2)


def test_generation_order_header():
    c = lifted_mrd(2, 6, 3, 4)
    text = dumps(c, order="generation")
    assert "#ORDER=generation" in text
    assert loads(text).size == 64


# ----------------------------------------------------------------------
# the reader's grammar, pinned on the per-line reader and kept by the
# packed one: what it accepts, and which error the first bad line raises
# ----------------------------------------------------------------------

FIRST = "100000|010000|001000\n"  # the first body line of the golden file


def _golden_text():
    return (DATA / "lmrd_2_6_3_4.cdc").read_text()


@pytest.mark.parametrize("line", [
    "010000|100000|001000\n",    # rows swapped
    "100000|110000|001000\n",    # row 1 += row 0
    "  100000|010000|001000 \t\n",  # surrounding whitespace
])
def test_reader_canonicalizes_accepted_lines(line):
    text = _golden_text()
    assert dumps(loads(text.replace(FIRST, line))) == text


def test_reader_skips_blank_lines():
    text = _golden_text()
    body = text.replace(FIRST, "\n" + FIRST + "\n\n") + "\n\n"
    assert dumps(loads(body)) == text


def test_reader_accepts_crlf_file(tmp_path):
    text = _golden_text()
    path = tmp_path / "crlf.cdc"
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    assert dumps(import_code(path)) == text


@pytest.mark.parametrize("text", [
    _golden_text,
    lambda: dumps(lifted_mrd(3, 4, 2, 2)),  # the per-line reader
], ids=["golden", "q3"])
def test_loads_crlf_text_equals_lf_text(text):
    # loads sees the '\r' that universal newlines hide from import_code,
    # blank lines included
    lf = text()
    crlf = lf.replace("\n", "\r\n")
    for c in (loads(crlf), loads(crlf.replace("#ORDER", "\r\n#ORDER") + "\r\n")):
        assert dumps(c) == lf


@pytest.mark.parametrize("count", [0, 1])
def test_dimension_zero_code_roundtrip(count):
    # the zero subspace is written as an empty line, which the reader skips
    from cdckit.subspace import Subspace
    f = field_new(2, 1)
    c = Cdc(f, 4, 0, 0, words=[Subspace(f, 4, [])][:count])
    text = dumps(c)
    assert text.endswith(f"#COUNT={count}\n#ORDER=canonical\n#PROV=unknown\n" + "\n" * count)
    back = loads(text)
    assert (back.size, back.k) == (count, 0)
    assert [w.rows for w in back.words()] == [()] * count
    assert dumps(back) == text
    with pytest.raises(CountMismatchError):
        loads(text.replace(f"#COUNT={count}", "#COUNT=2"))


@pytest.mark.parametrize("mutate", [
    lambda t: t.replace(FIRST, "100000|010200|001000\n"),   # bad digit
    lambda t: t[:-4],                                        # truncated last line
    lambda t: t.replace(FIRST, "100000|01000|001000\n"),    # ragged row
    lambda t: t.replace(FIRST, FIRST + "#PROV=late\n"),     # '#' line in the body
    lambda t: t.replace(FIRST, "100000|010000|110000\n"),   # rank-deficient line
], ids=["bad-digit", "truncated", "ragged", "hash-in-body", "rank-deficient"])
def test_reader_rejects_malformed_lines(tmp_path, capsys, mutate):
    from cdckit.cli import main
    bad = mutate(_golden_text())
    with pytest.raises(DimensionMismatchError):
        loads(bad)
    path = tmp_path / "bad.cdc"
    path.write_text(bad)
    assert main(["verify", "--file", str(path), "--mode", "full"]) == 3


def test_reader_rejects_non_rref_duplicate():
    text = _golden_text()
    with pytest.raises(DuplicateCodewordError):
        loads(text + "010000|100000|001000\n")


def test_reader_first_offending_line_decides():
    text = _golden_text()
    with pytest.raises(DuplicateCodewordError):
        loads(text + FIRST + "100000|01x000|001000\n")
    with pytest.raises(DimensionMismatchError):
        loads(text + "100000|01x000|001000\n" + FIRST)
    with pytest.raises(DuplicateCodewordError):
        loads(text + FIRST + "100000|010000|110000\n")
    with pytest.raises(DimensionMismatchError):
        loads(text + "100000|010000|110000\n" + FIRST)


def test_reader_huge_count_is_not_preallocated():
    text = _golden_text().replace("#COUNT=64", f"#COUNT={10 ** 18}")
    start = time.monotonic()
    with pytest.raises(CountMismatchError):
        loads(text)
    assert time.monotonic() - start < 1


# SHA-256 of q = 2 exports, taken from the per-line writer
def test_writer_sha256_pinned():
    from cdckit.constructions import RECIPES
    code = RECIPES["8_4_4"](2)[0]
    assert hashlib.sha256(dumps(code, prov="recipe_8_4_4").encode("ascii")).hexdigest() \
        == "28d1e6782f784fcb9a4b6934476dcecc21b20dc6545cafee980afdebe7060f09"
    text = dumps(lifted_mrd(2, 8, 4, 4), order="generation")
    assert hashlib.sha256(text.encode("ascii")).hexdigest() \
        == "05054f087952442daaf8c4414586b881d87b9d6aa29caa63ffa09600563bc272"


def test_packed_path_builds_no_subspace_per_line(monkeypatch):
    # q = 2 files are read and written as packed blocks, never line by line
    from cdckit.subspace import Subspace
    text = _golden_text()

    def boom(*args, **kwargs):
        raise AssertionError("per-line path used")

    monkeypatch.setattr(Subspace, "parse", staticmethod(boom))
    monkeypatch.setattr(Subspace, "serialize", boom)
    code = loads(text)
    assert dumps(code) == text
    # the file is canonical, so its order is also the generation order
    assert dumps(code, order="generation") == text.replace("=canonical", "=generation")
    assert code.packed_at(0) == (32, 16, 8) and all(type(v) is int for v in code.packed_at(0))


def test_carriage_return_in_provenance_is_replaced(tmp_path):
    path = tmp_path / "c.cdc"
    export(lifted_mrd(2, 6, 3, 4), path, prov="made on host\rA")
    code = import_code(path)
    assert code.size == 64 and code.provenance["kind"] == "made on host A"


def test_non_ascii_provenance_is_escaped(tmp_path):
    # the header stays ASCII: export writes the whole file, and both
    # readers give back the escaped provenance
    c = lifted_mrd(2, 6, 3, 4)
    path = tmp_path / "c.cdc"
    export(c, path, prov="café")
    for code in (import_code(path), loads(dumps(c, prov="café"))):
        assert code.size == 64 and code.provenance["kind"] == "caf\\xe9"


@pytest.mark.parametrize("n", [1, 2, 8, 15, 16, 17, 31, 32, 33, 48, 57, 63, 64])
def test_formatter_lines_at_every_chunk_boundary(n):
    # rows wider than 16 bits are gathered in 16-bit chunks: each line is
    # the per-word serializer's, on both sides of every chunk boundary, from
    # uint64 rows and from the narrowest dtype a file's words are read into
    import cdckit.codefile as codefile
    from cdckit.linalg import rref_bits_batch, unpack_row
    f = field_new(2, 1)
    rng = np.random.default_rng(n)
    for k in range(1, min(n, 3) + 1):
        words, ranks = rref_bits_batch(
            rng.integers(0, 1 << 64, (300, k), dtype=np.uint64) >> np.uint64(64 - n), n)
        words = words[ranks == k]
        want = [Subspace.from_rows(f, [unpack_row(int(r), n) for r in w], n).serialize()
                for w in words]
        assert len(want) > 0
        for rows in (words, words.astype(np.min_scalar_type((1 << n) - 1))):
            assert str(codefile._format_block(rows, n), "ascii").splitlines() == want


@pytest.mark.parametrize("order", ["canonical", "generation"])
@pytest.mark.parametrize("q", [2, 3])
def test_export_writes_the_bytes_of_dumps(monkeypatch, tmp_path, q, order):
    # one formatter, two sinks: the binary file holds the text stream's
    # bytes, with the GF(2) body split into blocks of at most 5 lines
    import cdckit.cdc as cdc
    import cdckit.codefile as codefile
    c = loads(dumps(lifted_mrd(q, 6, 3, 4), order="generation"))
    monkeypatch.setattr(codefile, "_CHUNK", 5 * 21)  # 5 lines of k(n + 1) = 21 bytes
    monkeypatch.setattr(cdc, "BATCH", 5)
    blocks = []
    fmt = codefile._format_block
    monkeypatch.setattr(codefile, "_format_block", lambda *a: blocks.append(a) or fmt(*a))
    export(c, tmp_path / "c.cdc", order=order)
    text = dumps(c, order=order)
    assert (tmp_path / "c.cdc").read_bytes() == text.encode("ascii")
    assert len(blocks) == (2 * 13 if q == 2 else 0) and text.count("\n") == 10 + c.size


def test_imported_code_behaves_as_a_word_list(tmp_path):
    c = lifted_mrd(2, 6, 3, 4)
    back = loads(dumps(c, order="generation"))
    assert back.materialized and back.size == 64
    assert [w.rows for w in back] == [w.rows for w in c]
    assert back.at(-1) == c.at(63) and back.words()[5] == c.at(5)
    assert list(back.iter_packed()) == list(c.iter_packed())


def test_imported_gf2_code_lists_its_words_once():
    # packed words alone: at, iteration and words() build Subspace views
    # from them and keep none
    c = lifted_mrd(2, 6, 3, 4)
    back = loads(dumps(c, order="generation"))
    assert back.at(-1) == c.at(63)
    assert list(back) == list(c)
    words = back.words()
    assert back.words() == words == list(c) and back.at(-1) == words[-1]


def test_line_reader_code_is_listed_once():
    # a q > 2 file keeps its packed words alone: words() lists views of them
    back = loads(dumps(spread(3, 4, 2)))
    last = back.at(-1)
    assert back.materialized
    words = back.words()
    assert back.words() == words and words[-1] == last and back.at(-1) == words[-1]


def test_reader_gf2_line_needs_exactly_k_rows():
    # the packed reader takes k rows of n digits per line; the per-line
    # reader also took a dependent extra row
    with pytest.raises(DimensionMismatchError):
        loads(_golden_text().replace(FIRST, "100000|010000|001000|000000\n"))


def test_reader_blocks_keep_file_order_and_first_error(monkeypatch):
    # small blocks: words, duplicates and errors span block boundaries
    import cdckit.codefile as codefile
    monkeypatch.setattr(codefile, "_CHUNK", 5 * 21)  # 5 lines of k(n + 1) = 21 bytes
    text = _golden_text()
    assert dumps(loads(text.replace(FIRST, FIRST + "\n" * 12))) == text  # an all-blank block
    generation = dumps(lifted_mrd(2, 6, 3, 4), order="generation")
    assert dumps(loads(generation), order="generation") == generation
    with pytest.raises(DuplicateCodewordError):
        loads(text + "\n" * 7 + "010000|100000|001000\n" + "100000|01x000|001000\n")
    with pytest.raises(DimensionMismatchError):
        loads(text + "100000|010000|110000\n" + "\n" * 7 + FIRST)


@pytest.mark.parametrize("second_block, offending", [
    ([5, 6, 6, 5, 7], 6),  # within the block: the third line, not the first
    ([5, 6, 3, 7, 0], 3),  # a word of the first block
])
def test_reader_names_first_duplicate_line(monkeypatch, second_block, offending):
    # a block's words are checked against one another and every earlier
    # block; the error names the first line that repeats a word
    import cdckit.codefile as codefile
    monkeypatch.setattr(codefile, "_CHUNK", 5 * 21)  # 5 lines of k(n + 1) = 21 bytes
    lines = _golden_text().splitlines(keepends=True)
    header, body = lines[:10], lines[10:]
    text = "".join(header + body[:5] + [body[i] for i in second_block])
    with pytest.raises(DuplicateCodewordError, match=repr(body[offending].strip())):
        loads(text)


def test_reader_leaves_garbage_collector_as_it_was():
    # the packed reader pauses the cyclic collector only while it reads
    import gc
    text = _golden_text()
    was = gc.isenabled()
    try:
        gc.enable()
        assert loads(text).size == 64 and gc.isenabled()
        with pytest.raises(DimensionMismatchError):
            loads(text.replace(FIRST, "10000x|010000|001000\n"))
        assert gc.isenabled()
        gc.disable()
        assert loads(text).size == 64 and not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def _blocks_of_five(monkeypatch, body_lines):
    # the golden header over a body read in blocks of five lines
    import cdckit.codefile as codefile
    monkeypatch.setattr(codefile, "_CHUNK", 5 * 21)  # 5 lines of k(n + 1) = 21 bytes
    lines = _golden_text().splitlines(keepends=True)
    return "".join(lines[:10] + body_lines)


BAD = "100000|01x000|001000\n"  # malformed
LOW = "100000|010000|110000\n"  # rank-deficient


def test_reader_duplicate_before_a_later_block_error(monkeypatch):
    # a duplicate in block 1 and a malformed line in block 3
    body = _golden_text().splitlines(keepends=True)[10:]
    text = _blocks_of_five(monkeypatch, body[:4] + [body[1]] + body[5:10] + [body[10], BAD])
    with pytest.raises(DuplicateCodewordError, match=repr(body[1].strip())):
        loads(text)


def test_reader_malformed_line_before_a_later_duplicate(monkeypatch):
    # a malformed line in block 1 and a duplicate in block 3
    body = _golden_text().splitlines(keepends=True)[10:]
    text = _blocks_of_five(monkeypatch, body[:2] + [BAD] + body[2:9] + [body[9], body[0]])
    with pytest.raises(DimensionMismatchError, match="01x000"):
        loads(text)


@pytest.mark.parametrize("gap", [0, 1, 6])  # the same block, the next one, one after
def test_reader_rank_deficient_word_after_a_duplicate(monkeypatch, gap):
    body = _golden_text().splitlines(keepends=True)[10:]
    text = _blocks_of_five(monkeypatch, body[:6] + [body[3]] + body[6:6 + gap] + [LOW])
    with pytest.raises(DuplicateCodewordError, match=repr(body[3].strip())):
        loads(text)


def test_reader_huge_count_over_a_short_body_allocates_nothing(monkeypatch):
    import tracemalloc
    body = _golden_text().splitlines(keepends=True)[10:]
    text = _blocks_of_five(monkeypatch, body[:3]).replace("#COUNT=64", "#COUNT=1000000000000000")
    tracemalloc.start()
    try:
        with pytest.raises(CountMismatchError):
            loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gf2_import_holds_one_array(tmp_path):
    # 32,768 words of n = 9, k = 4: a tuple of 4 ints per word held 3.4 MB
    # after the import and peaked at 17.3 MB; the (N, 4) uint16 array is
    # 0.26 MB, and the peak is the block's line strings
    import tracemalloc
    path = tmp_path / "c.cdc"
    path.write_text(dumps(lifted_mrd(2, 9, 4, 4), order="generation"))
    tracemalloc.start()
    try:
        code = import_code(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20 and peak < 14 << 20, (held, peak)
    assert code.size == 1 << 15 and code.source.packed.dtype == np.uint16


# ----------------------------------------------------------------------
# the sorted-body screen: a canonical body whose keys rise is read without
# a key array or a sort; any other body is screened whole
# ----------------------------------------------------------------------

@pytest.mark.parametrize("at", [7, 5], ids=["within", "across"])
def test_canonical_body_repeat_within_and_across_chunks(monkeypatch, at):
    # chunks of 5 lines: the repeat of line at - 1 is line at, in its chunk
    # (lines 5-9) or the first line after the chunk boundary
    body = _golden_text().splitlines(keepends=True)[10:]
    text = _blocks_of_five(monkeypatch, body[:at] + [body[at - 1]] + body[at:])
    with pytest.raises(DuplicateCodewordError, match=repr(body[at - 1].strip())):
        loads(text)


def test_sorted_body_with_a_swap_names_the_first_repeat(monkeypatch):
    # one adjacent swap breaks the rising keys: the whole body is screened,
    # and of two later repeats the first in file order is named
    text = _golden_text()
    lines = text.splitlines(keepends=True)
    body = lines[10:]
    body[11], body[12] = body[12], body[11]
    assert dumps(loads(_blocks_of_five(monkeypatch, body))) == text
    body = body[:40] + [body[35]] + body[40:50] + [body[20]] + body[50:]
    with pytest.raises(DuplicateCodewordError, match=repr(body[35].strip())):
        loads(_blocks_of_five(monkeypatch, body))


def test_canonical_multi_key_body_repeat():
    # kn - k(k - 1)/2 = 100 bits: no one-key sort key, so even a canonical
    # body is screened whole
    text = dumps(lifted_mrd(2, 16, 8, 16))
    lines = text.splitlines(keepends=True)
    with pytest.raises(DuplicateCodewordError, match=repr(lines[20].strip())):
        loads("".join(lines[:21] + lines[20:]))


def test_repeat_and_malformed_line_in_a_canonical_body(monkeypatch):
    # whichever comes first in the file decides the error, in one chunk or two
    body = _golden_text().splitlines(keepends=True)[10:]
    for bad in (BAD, LOW):
        for gap in (0, 3, 8):
            before = body[:13] + [body[12]] + body[13:13 + gap] + [bad] + body[13 + gap:]
            with pytest.raises(DuplicateCodewordError, match=repr(body[12].strip())):
                loads(_blocks_of_five(monkeypatch, before))
            after = body[:13] + [bad] + body[13:13 + gap] + [body[12]] + body[13 + gap:]
            with pytest.raises(DimensionMismatchError):
                loads(_blocks_of_five(monkeypatch, after))


def test_canonical_import_holds_no_key_array(tmp_path):
    # a canonical 32,768-word file: besides the (N, 4) uint16 words, one
    # chunk's bytes and lines, and no N-word key array or sort
    import tracemalloc
    path = tmp_path / "c.cdc"
    export(lifted_mrd(2, 9, 4, 4), path)
    tracemalloc.start()
    try:
        code = import_code(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.size == 1 << 15 and peak < code.source.packed.nbytes + (2 << 20), peak


def test_canonical_export_holds_keys_not_words(tmp_path):
    # one uint64 key per word is sorted, and a chunk of words is decoded
    # from the keys at a time: no (N, k) uint64 copy of the code
    import tracemalloc
    c = lifted_mrd(2, 9, 4, 4)
    tracemalloc.start()
    try:
        export(c, tmp_path / "c.cdc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c.size * 8 + (2 << 20), peak
    assert dumps(import_code(tmp_path / "c.cdc")) == dumps(c)


def test_wide_gf2_words_are_keyed_by_their_row_bytes(tmp_path):
    # k*n = 72 > 64: no uint64 holds a word, so duplicates and subcode
    # membership are found on the row bytes
    from cdckit.subspace import Subspace
    c = lifted_mrd(2, 12, 6, 12)
    text = dumps(c)
    lines = text.splitlines(keepends=True)
    with pytest.raises(DuplicateCodewordError, match=repr(lines[20].strip())):
        loads(text + lines[20] + lines[12])
    parent, sub, alien = tmp_path / "c.cdc", tmp_path / "sub.cdc", tmp_path / "alien.cdc"
    export(c, parent)
    export(Cdc(c.field, 12, 6, 12, words=c.words()[9:3:-2]), sub)
    assert import_with_subcode(parent, sub)[1].size == 3
    hole = Subspace(c.field, 12, [tuple(int(j == i) for j in range(12)) for i in range(6, 12)])
    export(Cdc(c.field, 12, 6, 12, words=[c.at(0), hole]), alien)
    with pytest.raises(SubcodeError, match=hole.serialize()):
        import_with_subcode(parent, alien)


# ----------------------------------------------------------------------
# the byte reader: fixed-stride blocks, the line normalizer, the 64-bit
# duplicate screen, and bytes outside ASCII
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _scrambled(args):
    # the canonical file of a 32,768-word code, and its body with each
    # word's rows in a random order and row 0 += row 1 in about half the
    # words: the same subspaces, on lines of the writer's length
    import cdckit.codefile as codefile
    code = lifted_mrd(*args)
    text = dumps(code)
    rng = np.random.default_rng(sum(args))
    words = loads(text).source.packed.astype(np.uint64)
    words = np.take_along_axis(words, np.argsort(rng.random(words.shape), axis=1), axis=1)
    add = rng.random(len(words)) < 0.5
    words[add, 0] ^= words[add, 1]
    return text, str(codefile._format_block(words, code.n), "ascii")


@pytest.mark.parametrize("block", [5, 1 << 16])
@pytest.mark.parametrize("args", [(2, 9, 4, 4), (2, 19, 4, 8)], ids=["kn36", "kn76"])
def test_scrambled_rows_read_as_the_canonical_words(monkeypatch, block, args):
    # the writer's line layout, CRLF and blank lines all read as one array;
    # blocks of 5 lines read the first 4,096 words, to keep the test short
    import cdckit.codefile as codefile
    text, scrambled = _scrambled(args)
    lines = text.splitlines(keepends=True)
    count = 4096 if block == 5 else len(lines) - 10
    head = "".join(lines[:10]).replace("#COUNT=32768", f"#COUNT={count}")
    want = loads(head + "".join(lines[10:10 + count])).source.packed
    lines = scrambled.splitlines(keepends=True)[:count]
    assert sum(a != b for a, b in zip(lines, text.splitlines(keepends=True)[10:])) > count // 4
    monkeypatch.setattr(codefile, "_CHUNK", block * args[2] * (args[1] + 1))  # lines
    for body in ("".join(lines), "".join(lines).replace("\n", "\r\n"),
                 "\n" + "".join(line + "\n" * (i % 7 == 3) for i, line in enumerate(lines))):
        got = loads(head + body).source.packed
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_reader_reduces_rows_that_only_look_reduced():
    # rows in pivot order, but row 0 holds row 1's pivot: the word is not
    # in RREF, and its block must not skip elimination
    text = _golden_text()
    assert dumps(loads(text.replace(FIRST, "110000|010000|001000\n"))) == text


def test_reader_recovers_the_stride_after_a_crlf_line(monkeypatch):
    # one CRLF line in the first block: that chunk ends a byte short of a
    # line end and is completed; every later block reads as the writer's
    import cdckit.codefile as codefile
    monkeypatch.setattr(codefile, "_CHUNK", 5 * 21)  # 5 lines of k(n + 1) = 21 bytes
    text = _golden_text()
    assert dumps(loads(text.replace(FIRST, FIRST[:-1] + "\r\n"))) == text
    lines = text.splitlines(keepends=True)
    lines[12] = lines[12][:-1] + "\r\n"
    assert dumps(loads("".join(lines))) == text


@pytest.mark.parametrize("n", [58, 63, 64])
def test_reader_packs_rows_past_57_bits(n):
    # a row of more than 57 bits spans 9 bytes of the bitstream
    from cdckit.linalg import pack_row, rref_bits
    rng = np.random.default_rng(n)
    rows = [[[1, 0] + rng.integers(0, 2, n - 2).tolist(),
             [0, 1] + rng.integers(0, 2, n - 2).tolist()] for _ in range(11)]
    body = "".join("|".join("".join(map(str, r)) for r in w) + "\n" for w in rows)
    code = loads(f"#Q=2\n#P=2\n#E=1\n#MOD=0,1\n#N={n}\n#K=2\n#D=2\n#COUNT=11\n"
                 f"#ORDER=generation\n#PROV=wide\n{body}")
    want = [tuple(rref_bits([pack_row(r) for r in w], n)[0]) for w in rows]
    assert code.source.packed.dtype == np.uint64
    assert [tuple(w) for w in code.source.packed.tolist()] == want


@pytest.mark.parametrize("n,k", [(3, 3), (9, 4), (12, 6), (24, 5), (33, 2), (40, 3), (64, 2)])
def test_sort_keys_order_words_as_their_rows(n, k):
    # the canonical writer sorts on these keys of RREF words: the order of
    # lexsort over the k rows, one key exactly when kn - k(k - 1)/2 <= 64
    from cdckit.codefile import _key_words
    from cdckit.linalg import rref_bits_batch, sort_keys
    rng = np.random.default_rng(n * k)
    top = np.uint64((1 << min(n - k, 63)) - 1) if n > k else np.uint64(0)
    lifted = rng.integers(0, 1 << 63, (1500, k), dtype=np.uint64) & top \
        | (np.uint64(1) << np.arange(n - 1, n - 1 - k, -1).astype(np.uint64))  # [I | M]
    lifted[::3, :-1] = lifted[1::3, :-1]  # ties on every row but the last
    words, ranks = rref_bits_batch(rng.integers(0, 1 << min(n, 63), (3000, k), dtype=np.uint64)
                                   << np.uint64(max(n - 63, 0)), n)
    words = np.concatenate([lifted, words[ranks == k][:1500]])
    keys = sort_keys(words, n)
    assert (len(keys) == 1) == (k * n - k * (k - 1) // 2 <= 64)
    assert np.array_equal(np.lexsort(keys[::-1]), np.lexsort(words.T[::-1]))
    if len(keys) == 1:
        assert np.array_equal(_key_words(keys[0], n, k), words)


def test_screen_collisions_decide_nothing(monkeypatch, tmp_path):
    # every word gets one 64-bit screen key: only the exact comparison
    # reports a duplicate, and it names the first repeated line
    import cdckit.codefile as codefile
    monkeypatch.setattr(codefile, "_mix", lambda words: np.zeros(len(words), np.uint64))
    c = lifted_mrd(2, 16, 8, 16)  # sort keys of kn - k(k - 1)/2 = 100 bits: screened by _mix
    text = dumps(c)
    assert dumps(loads(text)) == text
    lines = text.splitlines(keepends=True)
    with pytest.raises(DuplicateCodewordError, match=repr(lines[20].strip())):
        loads(text + lines[20] + lines[12])
    parent, sub = tmp_path / "c.cdc", tmp_path / "sub.cdc"
    export(c, parent)
    export(Cdc(c.field, 16, 8, 16, words=c.words()[9:3:-2]), sub)
    assert import_with_subcode(parent, sub)[1].size == 3
    from cdckit.subspace import Subspace
    hole = Subspace(c.field, 16, [tuple(int(j == i) for j in range(16)) for i in range(8, 16)])
    export(Cdc(c.field, 16, 8, 16, words=[c.at(0), hole]), sub)
    with pytest.raises(SubcodeError, match=hole.serialize()):
        import_with_subcode(parent, sub)


@pytest.mark.parametrize("chunk", [None, 100, 150], ids=["one-chunk", "100-lines", "150-lines"])
@pytest.mark.parametrize("bad", [64, 127, 197, 208],
                         ids=["tile-first", "tile-last", "remainder", "last-line"])
@pytest.mark.parametrize("edit", [
    lambda line: line.replace("1", "2", 1),
    lambda line: line.replace("|", ",", 1),
    lambda line: line[:-2] + "2\n",  # in a chunk's last 4 bytes: past its whole 64-bit words
], ids=["digit", "separator", "last-digit"])
def test_tiled_template_names_the_first_malformed_line(monkeypatch, chunk, bad, edit):
    # a writer-layout body of 64 * 3 + 17 lines, read in one chunk or in chunks
    # of 100 or 150 lines: whole 64-line tiles take one template pass, the rest
    # of a chunk the one-line template; the error is the one-line reader's
    import cdckit.codefile as codefile
    lines = dumps(lifted_mrd(2, 8, 4, 4), order="generation").splitlines(keepends=True)
    body = lines[10:10 + 64 * 3 + 17]
    for at in (bad, bad + 5)[:1 + (bad + 5 < len(body))]:  # the first malformed line decides
        body[at] = edit(body[at])
    text = "".join(lines[:10] + body)
    if chunk:
        monkeypatch.setattr(codefile, "_CHUNK", chunk * 4 * 9)  # lines of k(n + 1) = 36 bytes
    errors = []
    for tile in (64, 1):
        monkeypatch.setattr(codefile, "_TILE", tile)
        with pytest.raises(DimensionMismatchError) as info:
            loads(text)
        errors.append(str(info.value))
    assert errors[0] == errors[1] and repr(body[bad].strip()) in errors[0]


def _first_repeated_line(body):
    """The first line equal to an earlier one (canonical lines: equal words)."""
    seen = set()
    for line in body:
        if line in seen:
            return line.strip()
        seen.add(line)
    return None


@pytest.mark.parametrize("coarse", [False, True], ids=["keys", "4-valued-keys"])
@pytest.mark.parametrize("size", [16, 1024], ids=["512-slices", "8-slices"])
def test_sliced_screen_names_the_first_repeat(monkeypatch, coarse, size):
    # slices of at most about 16 (or 1,024) keys: 4,096 generation-order
    # words and five repeats are screened in 512 slices (a uint16 slice
    # index) or 8, over blocks of 512 words, and the repeat named is the
    # first line that a set of the lines before it holds; one repeated word
    # is found whatever its slice; keys of 4 values collide across distinct
    # words in every slice and decide nothing
    import random
    import cdckit.codefile as codefile
    from cdckit.linalg import sort_keys
    monkeypatch.setattr(codefile, "_SLICE", size)
    monkeypatch.setattr(codefile, "_BLOCK", 512)
    if coarse:
        monkeypatch.setattr(codefile, "_word_keys",
                            lambda words, n: sort_keys(words, n)[0] & np.uint64(3))
    text = dumps(lifted_mrd(2, 8, 4, 4), order="generation")
    lines = text.splitlines(keepends=True)
    header, body = lines[:10], lines[10:]
    assert dumps(loads(text), order="generation") == text
    rng = random.Random(11)
    for _ in range(4):
        repeated = list(body)
        for _ in range(5):  # five repeats, in file order anywhere after their first copy
            src = rng.randrange(len(repeated))
            repeated.insert(rng.randrange(src + 1, len(repeated) + 1), repeated[src])
        with pytest.raises(DuplicateCodewordError, match=repr(_first_repeated_line(repeated))):
            loads("".join(header + repeated))
    words = loads(text).source.packed
    for j in rng.sample(range(len(words)), 64 if size > 16 else 4):  # 8 slices: each is hit
        assert codefile._first_repeat(np.concatenate([words, words[j:j + 1]]), 8) == len(words)


@pytest.mark.parametrize("make", [
    lambda: dumps(lifted_mrd(2, 6, 3, 4)),  # the packed reader
    lambda: dumps(lifted_mrd(3, 4, 2, 2)),  # the per-line reader
], ids=["q2", "q3"])
def test_non_ascii_is_a_code_file_error(make):
    text = make()
    body = text.index("\n", text.index("#PROV")) + 3
    with pytest.raises(HeaderError):
        loads(text.replace("#PROV=", "#PROV=é"))
    with pytest.raises(DimensionMismatchError):
        loads(text[:body] + "é" + text[body + 1:])
    with pytest.raises(DimensionMismatchError):
        loads(text[:body] + "\udce9" + text[body + 1:])  # a lone surrogate


HEADER_VALUES = ["", "0", "1", "2", "3", "-1", "5", "6", "9", "64", "65", "27", "10000000000",
                 "x", "0,1", "1,1", "2,1", "1,0,1", "canonical", "generation"]


def _mutant(data, rng):
    """data with one seeded edit: a byte set to one the format reads (or any
    byte), a cut, a slice of data inserted, or one header value replaced."""
    at = rng.randrange(len(data))
    kind = rng.randrange(4)
    if kind == 0:
        byte = rng.choice([rng.choice(b"0123|\n\r#=,- "), rng.randrange(256)])
        return data[:at] + bytes([byte]) + data[at + 1:]
    if kind == 1:
        return data[:at] + data[at + rng.randrange(1, 40):]
    if kind == 2:
        start = rng.randrange(len(data))
        return data[:at] + data[start:start + rng.randrange(1, 40)] + data[at:]
    lines = data.split(b"\n")
    i = rng.randrange(10)
    lines[i] = lines[i].partition(b"=")[0] + b"=" + rng.choice(HEADER_VALUES).encode()
    return b"\n".join(lines)


@pytest.mark.parametrize("make", [
    lambda: (DATA / "lmrd_2_6_3_4.cdc").read_bytes(),  # the packed reader
    lambda: dumps(lifted_mrd(3, 5, 2, 4)).encode(),  # the per-line reader
], ids=["q2", "q3"])
def test_read_code_takes_seeded_mutations(make):
    # each of 300 mutants (1 to 3 seeded edits each) is a CodeFileError or a
    # code whose canonical export reads back equal, in under a second
    import io
    import random
    from cdckit.codefile import CodeFileError
    data, rng = make(), random.Random(20)
    outcomes = set()
    for _ in range(300):
        mutant = data
        for _ in range(rng.randrange(1, 4)):
            mutant = _mutant(mutant, rng)
        start = time.monotonic()
        try:
            code = read_code(io.BytesIO(mutant))
        except CodeFileError:
            outcomes.add("refused")
        else:
            outcomes.add("read")
            text = dumps(code)
            again = loads(text)
            assert (again.field, again.n, again.k, again.d_claim, again.size) == \
                (code.field, code.n, code.k, code.d_claim, code.size)
            assert dumps(again) == text
        assert time.monotonic() - start < 1.0, mutant
    assert outcomes == {"refused", "read"}
