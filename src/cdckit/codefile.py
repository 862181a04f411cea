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
Files are ASCII: any other byte raises HeaderError in a header line and
DimensionMismatchError in the body (loads encodes its text as UTF-8).

Over GF(2) with n <= 64 both directions move the body in chunks of about
_CHUNK = 2^19 bytes of whole lines, so that numpy passes over one in L2.
The writer gathers lines from cached digit tables as bytes, which export
writes and write_code decodes; a canonical export sorts one uint64 key
per word and decodes the words from the keys a chunk at a time.  The
reader takes the body as bytes.  A chunk laid out as the writer lays it
out is checked against a line template tiled over _TILE = 64 lines, so
numpy loops over a tile, not a line (the lines after the last whole tile
take one line of it), and packed in a few numpy passes; any other chunk
is first rewritten line by line into that layout.  Words already in RREF,
by linalg.in_rref's running OR of the rows above each row, skip
elimination.  The words fill one (N, k) array of the narrowest unsigned
dtype holding n bits (a cdc.PackedSource), sized from the body's length.
While their one-key sort keys rise, as in every canonical file, no word
repeats and only the last key is kept; any other body is screened by
sorting one key per word in slices of at most about _SLICE keys, which
holds a byte a word and one slice's words and keys besides the words.
Other fields, and n > 64, go line by line through Subspace.parse and
Subspace.serialize; the reader keeps each word's packed rows alone, in a
cdc.ListSource.
"""

from __future__ import annotations

import functools
import io as _io
from itertools import chain

import numpy as np

from .cdc import Cdc, ListSource, PackedSource
from .gf import FieldSpec
from .linalg import find_words, in_rref, packable, rref_bits_batch, sort_keys
from .subspace import Subspace
from .verify import full_pairwise_check

HEADER_KEYS = ("Q", "P", "E", "MOD", "N", "K", "D", "COUNT", "ORDER", "PROV")
_SORT_CAP = 10 ** 6
_CHUNK = 1 << 19  # body bytes per chunk of the packed path: its passes stay in L2
_TILE = 64  # lines per pass of the reader's line template
_SPACE = bytes(c for c in range(128) if chr(c).isspace())  # what str.strip strips of ASCII
_SLICE = 1 << 21  # keys the duplicate screen sorts at once, at most about
_BLOCK = 1 << 14  # words the duplicate screen groups at once, at most 2^16
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd: multiplying by it permutes uint64


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
    prov = str(c.provenance.get("kind", "unknown")) if prov is None else prov
    prov = prov.replace("\n", " ").replace("\r", " ").replace("=", ":") \
        .encode("ascii", "backslashreplace").decode("ascii")
    values = {"Q": f.q, "P": f.p, "E": f.e, "MOD": ",".join(map(str, f.modulus)), "N": c.n,
              "K": c.k, "D": c.d_claim, "COUNT": c.size, "ORDER": order, "PROV": prov}
    return [f"#{key}={values[key]}" for key in HEADER_KEYS]


def _write(c: Cdc, write, order: str | None, prov: str | None):
    """Pass a code file's bytes to write, a block or a line at a time."""
    if order is None:
        order = "canonical" if c.size <= _SORT_CAP else "generation"
    if order not in ("canonical", "generation"):
        raise HeaderError(f"unknown order {order!r}")
    write("".join(line + "\n" for line in _header_lines(c, order, prov)).encode("ascii"))
    written = 0
    if packable(c.field, c.n, c.k):
        step = max(_CHUNK // (c.k * (c.n + 1)), 1)  # lines
        blocks = c.source.packed_blocks()
        if order == "canonical" and _one_key(c.n, c.k):  # lines of one length sort as their keys
            keys = np.concatenate([np.zeros(0, np.uint64), *(sort_keys(b, c.n)[0] for b in blocks)])
            keys.sort()
            blocks = (_key_words(keys[i:i + step], c.n, c.k) for i in range(0, len(keys), step))
        elif order == "canonical":  # wider words are gathered whole and lexsorted
            words = np.concatenate([np.zeros((0, c.k), np.uint64), *blocks])
            blocks = [words[np.lexsort(sort_keys(words, c.n)[::-1])]]
        for block in blocks:  # in near-equal parts of at most step lines
            for part in np.array_split(block, -(-len(block) // step) or 1):
                write(_format_block(part, c.n))
            written += len(block)
    else:  # '\n' sorts below every digit and separator: it keeps the line order
        lines = (w.serialize() + "\n" for w in c)
        for line in sorted(lines) if order == "canonical" else lines:
            write(line.encode("ascii"))
            written += 1
    if written != c.size:
        raise CountMismatchError(f"stream produced {written} codewords, header promised {c.size}")
    return written


def write_code(c: Cdc, fh, order: str | None = None, prov: str | None = None):
    """Serialize a code to an open text stream; returns lines written."""
    return _write(c, lambda buf: fh.write(str(buf, "ascii")), order, prov)


def export(c: Cdc, path, order: str | None = None, prov: str | None = None):
    with open(path, "wb") as fh:
        return _write(c, fh.write, order, prov)


@functools.lru_cache(maxsize=None)
def _digits(m, sep=True):
    """The uint8 lines of every m-bit value: its m digits, then '|' if sep."""
    table = np.full((1 << m, m + sep), ord("|"), np.uint8)
    table[:, :m] = np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1) & 1 | ord("0")
    return table


def _format_block(words, n):
    """Body lines of (b, k) packed words as a (b, k, n + 1) uint8 array: rows
    of n <= 16 bits are gathered with their '|', wider ones 8 digits per
    byte of the row, and each row's last n digits are copied as one item."""
    if n <= 16:
        out = np.take(_digits(n), words, axis=0)
    else:  # the big-endian bytes of each row that hold its n bits
        rows = np.ascontiguousarray(words, ">u8").view(np.uint8).reshape(*words.shape, 8)
        digits = np.take(_digits(8, False), rows[..., -n // 8:], axis=0)
        digits = digits.reshape(*words.shape, 8 * digits.shape[2])[..., -n:]
        out = np.empty((*words.shape, n + 1), np.uint8)
        out[..., n] = ord("|")
        line = np.dtype((np.void, n))  # one item per row, not n strided bytes
        out[..., :n].view(line)[...] = digits.view(line)
    out[:, -1, n] = ord("\n")
    return out


def _parse_header(fh):
    header = {}
    body_first = b""
    for raw in fh:
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        if not line.startswith(b"#"):
            body_first = raw
            break
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError:
            raise HeaderError(f"non-ASCII byte in header line {line!r}") from None
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


def read_header(path):
    """The parsed header of a code file, its body unread."""
    with open(path, "rb") as fh:
        return _parse_header(fh)[0]


def read_code(fh) -> Cdc:
    """Read a code from a binary stream."""
    if not fh.seekable():  # the packed reader sizes its array from the body's length
        fh = _io.BytesIO(fh.read())
    meta, first = _parse_header(fh)
    field, n, k = meta["field"], meta["n"], meta["k"]
    if packable(field, n, k):
        source = PackedSource(field, n, _read_packed(fh, first, n, k))
    else:
        source = ListSource(field, n, _parsed(chain([first], fh), field, n, k))
        if k == 0 and not source.size and meta["count"] == 1:
            source = ListSource(field, n, [()])
    if source.size != meta["count"]:
        raise CountMismatchError(
            f"header count {meta['count']} but body has {source.size} codewords")
    return Cdc(field, n, k, meta["d"], stream=source,
               provenance={"kind": meta["prov"], "order": meta["order"]})


def _parsed(lines, field, n, k):
    """The packed rows of a body's words through Subspace.parse, one line
    at a time; a malformed word, one of another dimension or a repeat of
    an earlier one is refused."""
    seen = set()
    for raw in lines:  # a non-ASCII byte becomes an escape, not a digit
        line = raw.rstrip(b"\r\n").decode("ascii", "backslashreplace")
        if not line:
            continue
        try:
            sub = Subspace.parse(field, n, line)
        except ValueError as exc:
            raise DimensionMismatchError(str(exc)) from None
        if sub.k != k:
            raise DimensionMismatchError(
                f"codeword {line!r} has dimension {sub.k}, header says {k}")
        if (key := sub.packed_rows()) in seen:
            raise DuplicateCodewordError(f"duplicate codeword {line!r}")
        seen.add(key)
        yield key


def _read_packed(fh, first, n, k):
    """The canonical packed words of a GF(2) body, in file order, as one
    C-contiguous (N, k) array of the narrowest unsigned dtype holding n
    bits, sized from the body's length.  Reads chunks of whole lines and
    stops at the first malformed or rank-deficient line; the words
    before it are screened for a repeat first (rising keys need no screen),
    so the first offending line decides the error."""
    width = k * (n + 1)  # bytes of a word line, its '\n' included
    step = max(_CHUNK // width, 1) * width  # bytes
    template = np.frombuffer((("0" * n + "|") * k)[:-1].encode() + b"\n", np.uint8)
    mask = np.where(template == ord("0"), 0xFE, 0xFF).astype(np.uint8)  # digits may be 0 or 1
    template, mask = np.tile(template, _TILE), np.tile(mask, _TILE)
    start = fh.tell() - len(first)  # the body from its first line
    # a word line takes width - 1 bytes and a '\n' unless it is the last
    words = np.empty(((fh.seek(0, _io.SEEK_END) - start + 1) // width, k),
                     np.min_scalar_type((1 << n) - 1))
    fh.seek(start)
    # reused: fresh arrays fault pages in; whole tiles keep each plane 8-byte aligned
    out = np.empty((2, -(-step // width // _TILE) * _TILE, width), np.uint8)
    filled, error = 0, None
    rising, last = _one_key(n, k), 0  # a word of rank k >= 1 has a key above 0
    chunk = fh.read(step)
    while chunk and error is None:
        if not chunk.endswith(b"\n"):  # end the chunk at a line end
            chunk += fh.readline()
        x, cut = _parse(chunk, template, mask, out)
        if x is None or cut < len(x):  # not the writer's bytes: normalize the lines
            lines = [line.strip(_SPACE) for line in chunk.split(b"\n") if line not in (b"", b"\r")]
            cut = next((i for i, line in enumerate(lines) if len(line) != width - 1), len(lines))
            x, cut = _parse(b"\n".join(lines[:cut] + [b""]), template, mask, out)
            if cut < len(lines):
                line = lines[cut].decode("ascii", "backslashreplace")
                error = DimensionMismatchError(f"bad codeword {line!r} for n={n}, k={k}, q=2")
        del chunk  # its lines are in x: one chunk's bytes at a time
        rows = _pack(x[:cut], n, words.dtype)
        cols = np.ascontiguousarray(rows.T)  # row j of every word in one run
        if not in_rref(cols, n).all():
            rows, ranks = rref_bits_batch(rows, n)
            low = np.flatnonzero(ranks < k)
            if low.size:
                i = low[0]
                line = (x[i] ^ template[:width])[:-1].tobytes().decode()
                error = DimensionMismatchError(
                    f"codeword {line!r} has dimension {ranks[i]}, header says {k}")
                rows = rows[:i]
            cols = rows.T
        if rising and len(rows):
            keys = sort_keys(cols.T, n)[0]
            rising = last < keys[0] and bool((keys[:-1] < keys[1:]).all())
            last = keys[-1]
        words[filled:filled + len(rows)] = rows
        filled += len(rows)
        chunk = fh.read(step)
    words.resize((filled, k), refcheck=False)  # in place: no view of words was kept
    if not rising and (i := _first_repeat(words, n)) is not None:
        line = str(_format_block(words[i:i + 1], n), "ascii").strip()
        raise DuplicateCodewordError(f"duplicate codeword {line!r}")
    if error is not None:
        raise error
    return words


def _parse(buf, template, mask, out):
    """buf as lines of w bytes XORed with the line template, so the digits of
    a valid line are 0 and 1 and its separators 0; and the number of leading
    lines that are valid (-1 when buf ends in a partial line).  template and
    mask span _TILE lines: each whole tile takes one pass, so that numpy loops
    over a tile, not a line, and the lines after the last tile take the first
    line of both.  Both passes go to the (2, m, w) out when m lines hold buf."""
    width = len(template) // _TILE
    if len(buf) % width:
        return None, -1
    lines = np.frombuffer(buf, np.uint8).reshape(-1, width)
    if len(lines) > out.shape[1]:  # whole tiles keep the second plane 8-byte aligned
        out = np.empty((2, -(-len(lines) // _TILE) * _TILE, width), np.uint8)
    x, bad = out[0, :len(lines)], out[1, :len(lines)]
    t = len(lines) - len(lines) % _TILE
    for lo, hi, span in ((0, t, len(template)), (t, len(lines), width)):
        np.bitwise_xor(lines[lo:hi].reshape(-1, span), template[:span], out=x[lo:hi].reshape(-1, span))
        np.bitwise_and(x[lo:hi].reshape(-1, span), mask[:span], out=bad[lo:hi].reshape(-1, span))
    flat = bad.reshape(-1)  # read as 64-bit words, then the last few bytes
    wide = len(flat) - len(flat) % 8
    if not flat[:wide].view(np.uint64).any() and not flat[wide:].any():
        return x, len(x)
    return x, int(np.argmax(bad.any(axis=1)))


def _pack(x, n, dtype):
    """The words of m parsed lines as a C-contiguous (m, k) array of dtype,
    as the reader's word array holds them.  The 0/1 bytes become one
    bitstream of n + 1 bits per row, so each 8 rows take n + 1 bytes; row t
    of such a group is read from the big-endian 32 bits at its byte (64 bits
    when n > 25, and the next byte too when n > 57), at the same offset in
    every group."""
    k = x.shape[1] // (n + 1)
    groups = -(-len(x) * k // 8)
    bits = np.zeros((groups + 1) * (n + 1) + 8, np.uint8)  # room for every window
    bits[:-(-x.size // 8)] = np.packbits(x.reshape(-1))
    size = 4 if n <= 25 else 8  # bytes of a window, which a row's bits start in
    word = np.dtype(f"u{size}").type
    rows = np.empty((groups, 8), dtype)
    for t in range(8):
        at, shift = divmod(t * (n + 1), 8)
        row = np.ndarray(groups, f">u{size}", bits, at, n + 1).astype(word)
        if n > 57:
            row <<= word(shift)
            row |= bits[at + 8::n + 1][:groups] >> word(8 - shift)
            shift = 0
        row >>= word(8 * size - n - shift)
        row &= word((1 << n) - 1)
        rows[:, t] = row
    return rows.reshape(-1)[:len(x) * k].reshape(-1, k)


def _key_words(keys, n, k):
    """The (N, k) uint64 words of N one-key sort_keys: their inverse."""
    words = np.empty((len(keys), k), np.uint64)
    for j in reversed(range(k)):
        words[:, j] = keys & np.uint64((1 << (n - j)) - 1)
        keys = keys >> np.uint64(n - j)
    return words


def _mix(words):
    """A multiply-xor hash of each packed word's rows into one uint64."""
    h = np.zeros(len(words), np.uint64)
    for row in words.T:
        h ^= row
        h *= _MIX
        h ^= h >> np.uint64(32)
    return h


def _one_key(n, k):
    """Whether linalg.sort_keys gives an n-bit RREF word of k rows one key."""
    return k * n - k * (k - 1) // 2 <= 64


def _word_keys(words, n):
    """One unsigned key per packed RREF word of a C-contiguous (m, k) array,
    equal exactly when the words are unless it is the _mix of its rows: the
    word's bytes as one integer when they are 1, 2, 4 or 8 (a view of
    words), else its uint64 sort key when that is one key, else the mix."""
    size = words.shape[1] * words.itemsize
    if size in (1, 2, 4, 8):  # a view of words
        return words.view(f"u{size}").reshape(-1)
    return sort_keys(words, n)[0] if _one_key(n, words.shape[1]) else _mix(words)


def _regroup(block, part, back=False):
    """Put the rows of block (at most 2^16) in place in the order of their
    slices part (each below 2^16), or, back=True, undo that; return the
    sorted slice-and-place word of each row: part << 16 | place."""
    order = part.astype(np.uint32) << np.uint32(16)
    order |= np.arange(len(part), dtype=np.uint32)
    order.sort()  # one uint32 sort: several times faster than a stable argsort
    places = order & np.uint32(0xFFFF)
    if back:
        places[places.copy()] = np.arange(len(places), dtype=np.uint32)
    block[...] = np.take(block, places, axis=0)
    return order


def _first_repeat(words, n):
    """The index of the first packed word equal to an earlier one, or None.
    A _word_keys key per word screens the words in 2^b slices (b >= 1) of
    at most about _SLICE keys, so that the screen holds one slice's words
    and keys and a byte a word, not a key per word.  A word's slice is the
    top b bits of its key times _MIX.  A pass over blocks of _BLOCK words
    groups each block by slice in place; each slice then gathers its groups
    into one reused array and sorts their keys, and a last pass puts the
    blocks back in file order.  Only the words whose key repeats in its
    slice are compared exactly, by a stable sort that keeps file order."""
    if len(words) < 2:
        return None
    bits = max((len(words) - 1).bit_length() - _SLICE.bit_length() + 1, 1)
    blocks = [(words[lo:lo + _BLOCK], slice(lo, lo + _BLOCK)) for lo in range(0, len(words), _BLOCK)]
    part = np.empty(len(words), np.min_scalar_type((1 << bits) - 1))
    starts = np.empty((len(blocks), (1 << bits) + 1), np.int64)  # of each slice in each block
    edges = np.arange((1 << bits) + 1, dtype=np.uint32) << np.uint32(16)
    for b, (block, at) in enumerate(blocks):
        part[at] = _word_keys(block, n) * _MIX >> np.uint64(64 - bits)
        starts[b] = np.searchsorted(_regroup(block, part[at]), edges)
    sizes = (starts[:, 1:] - starts[:, :-1]).sum(axis=0).tolist()
    rows = np.empty((max(sizes), words.shape[1]), words.dtype)  # one slice's words, reused
    shared = [np.zeros(0, np.uint64)]
    for s, size in enumerate(sizes):
        mine = np.concatenate([block[lo:hi] for (block, _), (lo, hi)
                               in zip(blocks, starts[:, s:s + 2].tolist())], out=rows[:size])
        keys = _word_keys(mine, n)
        keys.sort()  # may sort mine's own bytes: rows is only a buffer
        shared.append(keys[1:][keys[1:] == keys[:-1]])
    del rows, keys
    for block, at in blocks:
        _regroup(block, part[at], back=True)
    shared = np.concatenate(shared)
    if not shared.size:
        return None
    hit = np.flatnonzero(np.concatenate([np.isin(_word_keys(block, n), shared) for block, _ in blocks]))
    keys = np.array(sort_keys(words[hit], n))
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    later = order[1:][(keys[:, 1:] == keys[:, :-1]).all(axis=0)]
    return int(hit[later.min()]) if later.size else None


def import_code(path) -> Cdc:
    with open(path, "rb") as fh:
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
    if packable(code.field, code.n, code.k):  # packed words; no Subspace
        missing = np.flatnonzero(find_words(code.source.packed_blocks(),
                                            sub.packed_at_batch(np.arange(sub.size))) < 0)
    else:
        parent = set(code.iter_packed())
        missing = [i for i, w in enumerate(sub.iter_packed()) if w not in parent]
    if len(missing):
        raise SubcodeError(f"subcode word {sub.at(missing[0]).serialize()} not in parent code")
    report = full_pairwise_check(sub)
    if not report.ok:
        raise SubcodeError(f"subcode violates claimed distance {sub.d_claim}: "
                           f"min found {report.min_distance_found}")
    return code, sub


def dumps(c: Cdc, order: str | None = None, prov: str | None = None) -> str:
    buf = _io.StringIO()
    write_code(c, buf, order=order, prov=prov)
    return buf.getvalue()


def loads(text: str) -> Cdc:
    # a non-ASCII character becomes bytes >= 0x80, which the reader rejects
    return read_code(_io.BytesIO(text.encode("utf-8", "surrogatepass")))
