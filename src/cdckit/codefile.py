"""Bit-exact text format for code files.

Header lines are `#KEY=VALUE`, one per key, keys Q, P, E, MOD, N, K, D,
COUNT, ORDER, PROV.  Body lines are canonical subspace serializations,
one codeword per line.  Canonical exports sort lines lexicographically;
streaming exports declare ORDER=generation and write in enumeration
order.
"""

from __future__ import annotations

import io as _io

from .cdc import Cdc
from .gf import FieldSpec
from .subspace import Subspace

HEADER_KEYS = ("Q", "P", "E", "MOD", "N", "K", "D", "COUNT", "ORDER", "PROV")
_SORT_CAP = 10 ** 6


class CodeFileError(ValueError):
    code = "io"


class HeaderError(CodeFileError):
    code = "malformed-header"


class DuplicateCodewordError(CodeFileError):
    code = "duplicate-codeword"


class DimensionMismatchError(CodeFileError):
    code = "dimension-mismatch"


class CountMismatchError(CodeFileError):
    code = "count-mismatch"


class SubcodeError(CodeFileError):
    code = "subcode"


def _header_lines(c: Cdc, order: str, prov: str | None):
    f = c.field
    mod = ",".join(str(v) for v in f.modulus)
    if prov is None:
        prov = str(c.provenance.get("kind", "unknown"))
    prov = prov.replace("\n", " ").replace("=", ":")
    values = {"Q": f.q, "P": f.p, "E": f.e, "MOD": mod, "N": c.n, "K": c.k,
              "D": c.d_claim, "COUNT": c.size, "ORDER": order, "PROV": prov}
    return [f"#{key}={values[key]}" for key in HEADER_KEYS]


def write_code(c: Cdc, fh, order: str | None = None, prov: str | None = None):
    """Serialize a code to an open text stream; returns lines written."""
    if order is None:
        order = "canonical" if c.size <= _SORT_CAP else "generation"
    if order not in ("canonical", "generation"):
        raise HeaderError(f"unknown order {order!r}")
    for line in _header_lines(c, order, prov):
        fh.write(line + "\n")
    written = 0
    if order == "canonical":
        lines = sorted(w.serialize() for w in c)
        for line in lines:
            fh.write(line + "\n")
        written = len(lines)
    else:
        for w in c:
            fh.write(w.serialize() + "\n")
            written += 1
    if written != c.size:
        raise CountMismatchError(
            f"stream produced {written} codewords, header promised {c.size}")
    return written


def export(c: Cdc, path, order: str | None = None, prov: str | None = None):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        return write_code(c, fh, order=order, prov=prov)


def _parse_header(fh):
    header = {}
    body_first = None
    for raw in fh:
        line = raw.rstrip("\n")
        if not line:
            continue
        if not line.startswith("#"):
            body_first = line
            break
        if "=" not in line:
            raise HeaderError(f"header line without '=': {line!r}")
        key, _, value = line[1:].partition("=")
        if key not in HEADER_KEYS:
            raise HeaderError(f"unknown header key {key!r}")
        if key in header:
            raise HeaderError(f"repeated header key {key!r}")
        header[key] = value
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise HeaderError(f"missing header keys {missing}")
    try:
        q, p, e = int(header["Q"]), int(header["P"]), int(header["E"])
        n, k, d = int(header["N"]), int(header["K"]), int(header["D"])
        count = int(header["COUNT"])
        mod = tuple(int(v) for v in header["MOD"].split(","))
    except ValueError as exc:
        raise HeaderError(f"non-numeric header field: {exc}") from None
    if not 1 <= e <= 62 or q != p ** e:  # orders stop at 2^62; no huge power
        raise HeaderError(f"Q={q} is not P^E={p}^{e}")
    if count < 0 or n <= 0 or k < 0 or k > n:
        raise HeaderError(f"inconsistent parameters n={n}, k={k}, count={count}")
    if header["ORDER"] not in ("canonical", "generation"):
        raise HeaderError(f"unknown ORDER {header['ORDER']!r}")
    try:
        field = FieldSpec(p, e, mod)
    except ValueError as exc:
        raise HeaderError(f"bad field modulus: {exc}") from None
    meta = {"field": field, "n": n, "k": k, "d": d, "count": count,
            "order": header["ORDER"], "prov": header["PROV"]}
    return meta, body_first


def read_code(fh) -> Cdc:
    meta, body_first = _parse_header(fh)
    field, n, k = meta["field"], meta["n"], meta["k"]
    words = []
    seen = set()

    def take(line):
        try:
            sub = Subspace.parse(field, n, line)
        except ValueError as exc:
            raise DimensionMismatchError(str(exc)) from None
        if sub.k != k:
            raise DimensionMismatchError(
                f"codeword {line!r} has dimension {sub.k}, header says {k}")
        if sub.gen.rows in seen:
            raise DuplicateCodewordError(f"duplicate codeword {line!r}")
        seen.add(sub.gen.rows)
        words.append(sub)

    if body_first is not None:
        take(body_first)
    for raw in fh:
        line = raw.rstrip("\n")
        if line:
            take(line)
    if len(words) != meta["count"]:
        raise CountMismatchError(
            f"header count {meta['count']} but body has {len(words)} codewords")
    return Cdc(field, n, k, meta["d"], words=words,
               provenance={"kind": meta["prov"], "order": meta["order"]})


def import_code(path) -> Cdc:
    with open(path, "r", encoding="ascii") as fh:
        code = read_code(fh)
    code.provenance["path"] = str(path)
    return code


def import_with_subcode(path, subcode_path, check_subcode_distance=True):
    """Import a code plus a flagged subcode; the subcode must be a subset
    and (optionally) is brute-force checked against its claimed distance."""
    code = import_code(path)
    sub = import_code(subcode_path)
    if (sub.field, sub.n, sub.k) != (code.field, code.n, code.k):
        raise SubcodeError("subcode parameters differ from parent")
    parent = set(w.gen.rows for w in code.words())
    for w in sub.words():
        if w.gen.rows not in parent:
            raise SubcodeError(f"subcode word {w.serialize()} not in parent code")
    if check_subcode_distance and sub.size > 1:
        from .verify import full_pairwise_check
        report = full_pairwise_check(sub)
        if not report.ok:
            raise SubcodeError(
                f"subcode violates claimed distance {sub.d_claim}: "
                f"min found {report.min_distance_found}")
    return code, sub


def dumps(c: Cdc, order: str | None = None, prov: str | None = None) -> str:
    buf = _io.StringIO()
    write_code(c, buf, order=order, prov=prov)
    return buf.getvalue()


def loads(text: str) -> Cdc:
    return read_code(_io.StringIO(text))
