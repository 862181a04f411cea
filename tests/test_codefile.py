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
