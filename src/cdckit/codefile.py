"""Bit-exact text format for code files.

Header lines are `#KEY=VALUE`, one per key, keys Q, P, E, MOD, N, K, D,
COUNT, ORDER, PROV.  Body lines are canonical subspace serializations,
one codeword per line: the rows of the RREF generator matrix, each as n
digits (comma-separated when q > 10), joined by '|'.  Canonical exports
sort lines lexicographically; streaming exports declare ORDER=generation
and write in enumeration order.

The reader accepts a little more than the writer produces:
- rows need not be in RREF; every word is canonicalized on read (a GF(2)
  word must still have exactly k rows; other fields also take extra rows
  that span k dimensions);
- lines may end in '\r\n'; empty lines are skipped (the zero subspace of
  a k = 0 code is an empty line), and whitespace around a word is ignored;
- the first offending line decides the error: a malformed or
  rank-deficient word raises DimensionMismatchError, a word equal to an
  earlier one DuplicateCodewordError; a body of the wrong size then
  raises CountMismatchError.

Over GF(2) with n <= 64 both directions move blocks of at most 2^16 lines
as bit-packed numpy arrays.  The reader keeps the code as one (N, k)
array of the narrowest unsigned dtype holding n bits (a cdc.PackedSource)
and finds a repeated word by sorting one key per word.  Other fields go
line by line through Subspace.parse and Subspace.serialize.
"""

from __future__ import annotations

import io as _io
from itertools import chain, islice

import numpy as np

from .cdc import Cdc, ListSource, PackedSource
from .gf import FieldSpec
from .linalg import packable, rref_bits_batch
from .subspace import Subspace

HEADER_KEYS = ("Q", "P", "E", "MOD", "N", "K", "D", "COUNT", "ORDER", "PROV")
_SORT_CAP = 10 ** 6
_BLOCK = 1 << 16  # body lines per block of the packed path


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
    prov = prov.replace("\n", " ").replace("\r", " ").replace("=", ":")
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
    if packable(c.field, c.n, c.k):
        blocks = c.source.packed_blocks()
        if order == "canonical":  # all lines have one length: text order is row order
            words = np.concatenate([np.zeros((0, c.k), np.uint64), *blocks])
            words = words[np.lexsort(words.T[::-1])]
            blocks = (words[i:i + _BLOCK] for i in range(0, len(words), _BLOCK))
        for block in blocks:
            fh.write(_format_block(block, c.n))
            written += len(block)
    else:  # '\n' sorts below every digit and separator: it keeps the line order
        lines = (w.serialize() + "\n" for w in c)
        for line in sorted(lines) if order == "canonical" else lines:
            fh.write(line)
            written += 1
    if written != c.size:
        raise CountMismatchError(
            f"stream produced {written} codewords, header promised {c.size}")
    return written


def _format_block(words, n):
    """Body lines of (b, k) packed words: n digits per row, '|' between
    rows, '\\n' after the last."""
    nbytes = (n + 7) // 8  # the low bytes of each big-endian row hold its n bits
    low = words.astype(">u8").view(np.uint8).reshape(*words.shape, 8)[..., 8 - nbytes:]
    out = np.empty((*words.shape, n + 1), np.uint8)
    out[..., :n] = np.unpackbits(low, axis=-1)[..., 8 * nbytes - n:] + ord("0")
    out[..., n] = ord("|")
    out[:, -1, n] = ord("\n")
    return out.tobytes().decode("ascii")


def export(c: Cdc, path, order: str | None = None, prov: str | None = None):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        return write_code(c, fh, order=order, prov=prov)


def _parse_header(fh):
    header = {}
    body_first = None
    for raw in fh:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if not line.startswith("#"):
            body_first = raw
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
    lines = chain([body_first] if body_first is not None else [], fh)
    if packable(field, n, k):
        source = PackedSource(field, n, _read_packed(lines, n, k))
    else:
        words, seen = [], set()
        for raw in lines:
            line = raw.rstrip("\r\n")
            if not line:
                continue
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
        if k == 0 and not words and meta["count"] == 1:
            words = [Subspace(field, n, [])]
        source = ListSource(field, n, words)
    if source.size != meta["count"]:
        raise CountMismatchError(
            f"header count {meta['count']} but body has {source.size} codewords")
    return Cdc(field, n, k, meta["d"], stream=source,
               provenance={"kind": meta["prov"], "order": meta["order"]})


def _read_packed(lines, n, k):
    """The canonical packed words of a GF(2) body, in file order, as one
    C-contiguous (N, k) array of the narrowest unsigned dtype holding n
    bits.  Reads at most _BLOCK lines at a time and stops at the first
    malformed or rank-deficient line; the words before it are checked for
    duplicates first, so the first offending line decides the error."""
    blocks, error = [np.zeros((0, k), np.min_scalar_type((1 << n) - 1))], None
    while error is None and (chunk := list(islice(lines, _BLOCK))):
        block = [line.strip() for line in chunk if line not in ("\n", "\r\n")]
        cut = next((i for i, line in enumerate(block) if len(line) != k * (n + 1) - 1),
                   len(block))
        # a '|' after every line makes each of them k rows of n digits and a '|'
        text = "|".join(block[:cut] + [""]).encode("ascii", "replace")
        chars = np.frombuffer(text, np.uint8).reshape(cut, k, n + 1)
        digits = chars[..., :n] - np.uint8(ord("0"))  # other characters wrap past 1
        bad = (chars[..., n] != ord("|")).any(axis=1) | (digits > 1).any(axis=(1, 2))
        cut = next(iter(np.flatnonzero(bad)), cut)
        if cut < len(block):
            error = DimensionMismatchError(f"bad codeword {block[cut]!r} for n={n}, k={k}, q=2")
        packed = np.zeros((cut, k), np.uint64)
        for j in range(n):
            packed = (packed << np.uint64(1)) | digits[:cut, :, j]
        rows, ranks = rref_bits_batch(packed, n)
        low = np.flatnonzero(ranks < k)
        if low.size:
            i = low[0]
            error = DimensionMismatchError(
                f"codeword {block[i]!r} has dimension {ranks[i]}, header says {k}")
            rows = rows[:i]
        blocks.append(rows.astype(blocks[0].dtype))
    words = np.concatenate(blocks)
    del blocks
    if (i := _first_repeat(words, n)) is not None:
        line = _format_block(words[i:i + 1], n).strip()
        raise DuplicateCodewordError(f"duplicate codeword {line!r}")
    if error is not None:
        raise error
    return words


def _row_keys(words, n):
    """A new array of one key per packed word, equal exactly when the words
    are: its k rows side by side in one uint64 when k*n <= 64, else its row
    bytes as one void item."""
    k = words.shape[1]
    if k * n > 64:
        return words.view(np.dtype((np.void, words.itemsize * k))).ravel().copy()
    keys = np.zeros(len(words), np.uint64)
    for j in range(k):
        keys <<= np.uint64(n)
        keys |= words[:, j]
    return keys


def _first_repeat(words, n):
    """The index of the first packed word equal to an earlier one, or None.
    Only when sorted keys show a repeat does a stable sort (16 times slower
    on 2*10^7 keys) put equal words side by side in file order."""
    keys = _row_keys(words, n)
    keys.sort()
    if (keys[1:] != keys[:-1]).all():
        return None
    order = np.argsort(_row_keys(words, n), kind="stable")
    keys = _row_keys(words[order], n)
    return int(order[1:][keys[1:] == keys[:-1]].min())


def import_code(path) -> Cdc:
    with open(path, "r", encoding="ascii") as fh:
        code = read_code(fh)
    code.provenance["path"] = str(path)
    return code


def import_with_subcode(path, subcode_path):
    """Import a code plus a flagged subcode; the subcode must be a subset
    and is checked exactly against its claimed distance."""
    code = import_code(path)
    sub = import_code(subcode_path)
    if (sub.field, sub.n, sub.k) != (code.field, code.n, code.k):
        raise SubcodeError("subcode parameters differ from parent")
    if packable(code.field, code.n, code.k):  # sorted packed-word keys; no Subspace
        parent = np.sort(_row_keys(code.source.packed, code.n))
        keys = _row_keys(sub.source.packed, sub.n)
        lo, hi = np.searchsorted(parent, keys), np.searchsorted(parent, keys, "right")
        missing = np.flatnonzero(lo == hi)
    else:
        parent = set(w.gen.rows for w in code.words())
        missing = [i for i, w in enumerate(sub) if w.gen.rows not in parent]
    if len(missing):
        raise SubcodeError(f"subcode word {sub.at(missing[0]).serialize()} not in parent code")
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
