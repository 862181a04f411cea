"""Code file format: round-trips, golden-file byte stability, distinct
error types, and subcode imports."""

import hashlib
import pathlib
import time

import pytest

from cdckit.cdc import Cdc, lifted_mrd, partial_spread_subcode, spread
from cdckit.codefile import (CountMismatchError, DimensionMismatchError,
                             DuplicateCodewordError, HeaderError, SubcodeError,
                             dumps, export, import_code, import_with_subcode,
                             loads, write_code)
from cdckit.gf import field_new

DATA = pathlib.Path(__file__).parent / "data"


def test_roundtrip_lifted_mrd():
    c = lifted_mrd(2, 6, 3, 4)
    c2 = loads(dumps(c))
    assert c2.size == 64 and (c2.n, c2.k, c2.d_claim) == (6, 3, 4)
    assert set(w.gen.rows for w in c2.words()) == set(w.gen.rows for w in c)
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
    assert set(w.gen.rows for w in c2.words()) == set(w.gen.rows for w in c.words())


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


def test_imported_code_behaves_as_a_word_list(tmp_path):
    c = lifted_mrd(2, 6, 3, 4)
    back = loads(dumps(c, order="generation"))
    assert back.materialized and back.size == 64
    assert [w.gen.rows for w in back] == [w.gen.rows for w in c]
    assert back.at(-1) == c.at(63) and back.words()[5] == c.at(5)
    assert list(back.iter_packed()) == list(c.iter_packed())


def test_reader_gf2_line_needs_exactly_k_rows():
    # the packed reader takes k rows of n digits per line; the per-line
    # reader also took a dependent extra row
    with pytest.raises(DimensionMismatchError):
        loads(_golden_text().replace(FIRST, "100000|010000|001000|000000\n"))


def test_reader_blocks_keep_file_order_and_first_error(monkeypatch):
    # small blocks: words, duplicates and errors span block boundaries
    import cdckit.codefile as codefile
    monkeypatch.setattr(codefile, "_BLOCK", 5)
    text = _golden_text()
    assert dumps(loads(text.replace(FIRST, FIRST + "\n" * 12))) == text  # an all-blank block
    generation = dumps(lifted_mrd(2, 6, 3, 4), order="generation")
    assert dumps(loads(generation), order="generation") == generation
    with pytest.raises(DuplicateCodewordError):
        loads(text + "\n" * 7 + "010000|100000|001000\n" + "100000|01x000|001000\n")
    with pytest.raises(DimensionMismatchError):
        loads(text + "100000|010000|110000\n" + "\n" * 7 + FIRST)


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
