"""Constant-dimension codes: containers, lifted MRD codes, spreads,
2-parallelisms of F_q^4, and partial-spread subcode extraction.

A Cdc either holds a materialized list of codewords (Subspace values, or
packed GF(2) words read from a file) or wraps a deterministic stream with
exact size and random access by index.
"""

from __future__ import annotations

from itertools import repeat
from operator import or_

from .gf import FieldSpec, ext_field
from .linalg import MatrixGF, matmul, rref_bits, rref_rows, unpack_row
from .rankmetric import (GabidulinHandle, RankCodeHandle, base_field,
                         gabidulin_mrd, nested_subcode)
from .subspace import Subspace, intersection_dim

MATERIALIZE_CAP = 10 ** 5


class CdcError(ValueError):
    pass


class StreamSource:
    """Deterministic random-access codeword stream (canonical RREF rows).

    q = 2 sources yield bit-packed words; their rows are unpacked from
    those here.  Sources over larger fields override rows_at."""

    size = 0

    def packed_at(self, i):  # pragma: no cover - abstract
        raise NotImplementedError

    def rows_at(self, i):
        return tuple(unpack_row(r, self.n) for r in self.packed_at(i))

    def iter_rows(self):
        if self.field.q != 2:
            for i in range(self.size):
                yield self.rows_at(i)
            return
        n = self.n
        for word in self.iter_packed():
            yield tuple(unpack_row(r, n) for r in word)


class ListSource(StreamSource):
    """Materialized codewords; over GF(2) they are packed once, here, or
    come packed (from_packed), in which case no Subspace is held."""

    def __init__(self, subspaces):
        self.words = list(subspaces)
        self.size = len(self.words)
        over_gf2 = not self.words or self.words[0].field.q == 2
        self.packed = [w.packed_rows() for w in self.words] if over_gf2 else None

    @classmethod
    def from_packed(cls, field, n, packed):
        """Distinct canonical GF(2) words given as tuples of row ints."""
        src = cls([])
        src.field, src.n, src.packed, src.size, src.words = field, n, packed, len(packed), None
        return src

    def packed_at(self, i):
        return self.packed[i]

    def rows_at(self, i):
        if self.words is None:
            return super().rows_at(i)
        return self.words[i].gen.rows

    def iter_packed(self):
        return iter(self.packed)

    def iter_rows(self):
        if self.words is None:
            return super().iter_rows()
        return (w.gen.rows for w in self.words)


class ProductSource(StreamSource):
    """Word i puts one word of each factor (a rank-metric handle or a stream
    source) in that factor's columns, factor indices in mixed-radix order
    with the last factor fastest; with `reduce` (a leading block other than
    the pivot block) the word is brought to RREF.  This is the lifting
    R(tau(U) | M) and, over several blocks, the linkage construction."""

    def __init__(self, field, factors, widths, reduce=False):
        self.field = field
        self.factors = list(factors)
        self.n = sum(widths)
        self.reduce = reduce
        self.size = 1
        for f in self.factors:
            self.size *= f.size
        self.last = self.factors[-1]  # in the lowest columns: no shift
        # (factor, column shift, radix) of the other factors, right to left
        self._head = [(f, sum(widths[j + 1:]), f.size)
                      for j, f in reversed(list(enumerate(self.factors[:-1])))]

    def _join(self, i, rows):
        """rows OR the words of all factors but the last at their digits of
        the mixed-radix index i, each in its columns."""
        for f, sh, size in self._head:
            i, j = divmod(i, size)
            rows = [r | (x << sh) for r, x in zip(rows, f.packed_at(j))]
        return rows

    def packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        i, j = divmod(i, self.last.size)
        rows = self._join(i, self.last.packed_at(j))
        return tuple(rref_bits(rows, self.n)[0] if self.reduce else rows)

    def rows_at(self, i):
        if self.field.q == 2:
            return super().rows_at(i)
        if not 0 <= i < self.size:
            raise IndexError(i)
        i, j = divmod(i, self.last.size)
        parts = [self.last.rows_at(j)]
        for f, _, size in self._head:
            i, j = divmod(i, size)
            parts.append(f.rows_at(j))
        rows = [sum(map(tuple, row), ()) for row in zip(*reversed(parts))]
        return tuple(rref_rows(self.field, rows, self.n)[0] if self.reduce else rows)

    def iter_packed(self):
        """The last factor's stream (already in the lowest columns) under
        each index prefix of the other factors."""
        if not self.size:
            return
        last, n = self.last, self.n
        for prefix in range(self.size // last.size):
            base = self._join(prefix, repeat(0))  # narrows to the factors' row count
            if self.reduce:
                for word in last.iter_packed():
                    yield tuple(rref_bits(map(or_, base, word), n)[0])
            else:
                for word in last.iter_packed():
                    yield tuple(map(or_, base, word))


class Cdc:
    """A set of k-subspaces of F_q^n with claimed minimum distance d."""

    def __init__(self, field: FieldSpec, n: int, k: int, d_claim: int,
                 words=None, stream: StreamSource | None = None,
                 provenance=None):
        if (words is None) == (stream is None):
            raise CdcError("exactly one of words/stream required")
        self.field = field
        self.n = n
        self.k = k
        self.d_claim = d_claim
        self.provenance = provenance or {}
        self._stream = stream
        self._words = None
        self.verified = None  # set by verification
        if words is not None:
            self._words = list(words)
            for w in self._words:
                if w.n != n or w.k != k or w.field != field:
                    raise CdcError(f"codeword {w!r} does not fit ({n},{k}) over GF({field.q})")
            # listed once, here, so that the first stream, export or random
            # access of a GF(2) list costs what the next one does; its packed
            # words are the duplicate keys
            self._stream = ListSource(self._words)
            keys = self._stream.packed or [w.gen.rows for w in self._words]
            if len(set(keys)) != len(keys):
                raise CdcError("duplicate codeword")

    @property
    def size(self) -> int:
        return len(self._words) if self._words is not None else self._stream.size

    @property
    def materialized(self) -> bool:
        """Listed codewords, not a computed stream."""
        return self._words is not None or isinstance(self._stream, ListSource)

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"Cdc(n={self.n}, k={self.k}, d>={self.d_claim}, q={self.field.q}, size={self.size})"

    @property
    def source(self) -> StreamSource:
        """The codeword stream (a ListSource for a code built from words)."""
        return self._stream

    def at(self, i) -> Subspace:
        if self._words is not None:
            return self._words[i]
        return Subspace(self.field, self.n, self._stream.rows_at(i))

    def packed_at(self, i):
        return self._stream.packed_at(i)

    def iter_packed(self):
        yield from self._stream.iter_packed()

    def __iter__(self):
        if self._words is not None:
            yield from self._words
        elif self.field.q == 2:  # a Cdc built from these words need not pack them again
            n = self.n
            for word in self._stream.iter_packed():
                yield Subspace(self.field, n, tuple(unpack_row(r, n) for r in word),
                               packed=tuple(word))
        else:
            for rows in self._stream.iter_rows():
                yield Subspace(self.field, self.n, rows)

    def words(self, cap: int = MATERIALIZE_CAP):
        """Materialize the codeword list.  A computed stream is capped and
        checked for duplicates; listed words (read from a file) are not."""
        if self._words is None:
            listed = self.materialized
            if self.size > cap and not listed:
                raise CdcError(f"size {self.size} exceeds materialization cap {cap}")
            words = list(self)
            if not listed and len(set(w.gen.rows for w in words)) != len(words):
                raise CdcError("duplicate codeword in stream")
            self._words = words
        return self._words


class SpreadFamily:
    """Pairwise-disjoint spreads (e.g. the classes of a parallelism)."""

    def __init__(self, members):
        self.members = list(members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]


def _single_full(q, n):
    field = base_field(q)
    return Cdc(field, n, n, 2 * n,
               words=[Subspace(field, n, MatrixGF.identity(field, n).rows)],
               provenance={"kind": "single_full"})


def _lifted(q, handle: RankCodeHandle) -> ProductSource:
    """Codewords R(I_k | M) for M in a k x m rank-metric handle."""
    return ProductSource(base_field(q), [_single_full(q, handle.m).source, handle],
                         (handle.m, handle.n))


def lifted_mrd(q: int, n: int, k: int, d: int) -> Cdc:
    """The CDC {R(I_k | M)} over a (k x (n-k), d/2)_q MRD code."""
    if d % 2 or d // 2 > k or k >= n:
        raise CdcError(f"bad lifted-MRD parameters (n={n}, k={k}, d={d})")
    handle = gabidulin_mrd(q, k, n - k, d // 2)
    c = Cdc(base_field(q), n, k, d, stream=_lifted(q, handle),
            provenance={"kind": "lifted_mrd", "q": q, "n": n, "k": k, "d": d})
    c.lmrd_handle = handle
    if c.size <= MATERIALIZE_CAP:
        c.words()
    return c


def verify_min_distance(c: Cdc, mode="full", pairs=0, seed=0, cap=MATERIALIZE_CAP):
    """Exact or sampled minimum-distance report; sets c.verified."""
    from . import verify as _verify
    if mode == "full":
        report = _verify.full_pairwise_check(c, cap=cap)
    elif mode == "sampled":
        report = _verify.sampled_check(c, pairs, seed)
    else:
        raise CdcError(f"unknown mode {mode!r}")
    c.verified = report
    return report


# ----------------------------------------------------------------------
# spreads and parallelisms
# ----------------------------------------------------------------------

def spread(q: int, n: int, k: int) -> Cdc:
    """A k-spread of F_q^n via the subfield GF(q^k) structure."""
    if n % k:
        raise CdcError(f"k={k} does not divide n={n}")
    field = base_field(q)
    t = n // k
    if t == 1:
        return Cdc(field, n, k, 2 * k, words=_single_full(q, n).words(),
                   provenance={"kind": "spread", "q": q, "n": n, "k": k})
    ext = ext_field(field, k)
    words = []
    # normalized points of the projective space over GF(q^k)
    for lead in range(t):
        tail = t - lead - 1
        for idx in range(ext.order ** tail):
            point = [0] * lead + [1]
            rest = idx
            for _ in range(tail):
                rest, dig = divmod(rest, ext.order)
                point.append(dig)
            rows = []
            for j in range(k):
                scale = ext.basis[j]  # alpha^j
                vec = []
                for coord in point:
                    vec.extend(ext.element_to_vector(ext.mul(scale, coord)))
                rows.append(tuple(vec))
            words.append(Subspace.from_rows(field, rows, n))
    return Cdc(field, n, k, 2 * k, words=words,
               provenance={"kind": "spread", "q": q, "n": n, "k": k})


def _point_index(field, vec):
    """Index of the normalized projective point through vec."""
    lead = next(i for i, v in enumerate(vec) if v)
    inv = field.inv(vec[lead])
    x = 0
    for v in vec:
        x = x * field.q + field.mul(inv, v)
    return x


def _line_mask(line: Subspace, point_ids):
    mask = 0
    for vec in line.vectors():
        if any(vec):
            mask |= 1 << point_ids[_point_index(line.field, vec)]
    return mask


def _search_spreads(masks, candidate_ids, full_mask, npoints, forced):
    """All spreads containing line `forced`, drawn from candidate lines,
    lazily; branches on the lowest uncovered point."""
    by_point = [[] for _ in range(npoints)]
    for i in candidate_ids:
        m = masks[i]
        b = 0
        while m:
            if m & 1:
                by_point[b].append(i)
            m >>= 1
            b += 1

    def rec(covered, chosen):
        if covered == full_mask:
            yield tuple(chosen)
            return
        low = ~covered & full_mask
        low_bit = (low & -low).bit_length() - 1
        for i in by_point[low_bit]:
            if masks[i] & covered:
                continue
            chosen.append(i)
            yield from rec(covered | masks[i], chosen)
            chosen.pop()

    yield from rec(masks[forced], [forced])


def parallelism_2_of_F_q4(q: int, imported: SpreadFamily | None = None) -> SpreadFamily:
    """q^2+q+1 pairwise-disjoint 2-spreads of F_q^4 partitioning all lines."""
    if imported is not None:
        return imported
    if q not in (2, 3):
        raise CdcError(f"no built-in search for q={q}; supply an imported parallelism")
    field = base_field(q)
    from .verify import enumerate_subspaces
    lines = list(enumerate_subspaces(q, 4, 2))
    npoints = (q ** 4 - 1) // (q - 1)
    point_ids = {}
    for ln in lines:
        for vec in ln.vectors():
            if any(vec):
                pid = _point_index(field, vec)
                if pid not in point_ids:
                    point_ids[pid] = len(point_ids)
    masks = [_line_mask(ln, point_ids) for ln in lines]
    full_mask = (1 << npoints) - 1
    classes = q * q + q + 1

    # anchor each spread on the smallest unused line to prune symmetric orders
    def partition_anchored(remaining):
        if not remaining:
            return []
        anchor = min(remaining)
        for spread_ids in _search_spreads(masks, sorted(remaining), full_mask,
                                          npoints, anchor):
            rest = partition_anchored(remaining - set(spread_ids))
            if rest is not None:
                return [spread_ids] + rest
        return None

    solution = partition_anchored(set(range(len(lines))))
    if solution is None or len(solution) != classes:
        raise CdcError(f"parallelism search failed for q={q}")
    members = [Cdc(field, 4, 2, 4, words=[lines[i] for i in ids],
                   provenance={"kind": "parallelism_class", "q": q, "class": j})
               for j, ids in enumerate(solution)]
    return SpreadFamily(members)


def disjoint_2spreads_of_F_q8(q: int, imported: SpreadFamily | None = None) -> SpreadFamily:
    """q^2+q+1 disjoint 2-spreads of F_q^8: a 2-parallelism laid inside each
    member of a 4-spread, grouping same-class copies together."""
    par = parallelism_2_of_F_q4(q, imported=imported)
    solids = spread(q, 8, 4)
    field = solids.field
    families = [[] for _ in range(len(par))]
    for solid in solids:
        G = solid.gen
        for j, cls in enumerate(par):
            for line in cls:
                families[j].append(Subspace.from_matrix(matmul(line.gen, G)))
    members = [Cdc(field, 8, 2, 4, words=fam,
                   provenance={"kind": "2spread_family_of_F_q8", "q": q, "class": j})
               for j, fam in enumerate(families)]
    return SpreadFamily(members)


# ----------------------------------------------------------------------
# partial-spread subcodes
# ----------------------------------------------------------------------

def _greedy_partial_spread(words, k):
    chosen = []
    for w in sorted(words, key=lambda u: u.serialize()):
        if all(intersection_dim(w, c) == 0 for c in chosen):
            chosen.append(w)
    return chosen


def partial_spread_subcode(c: Cdc, strategy: str = "lmrd_nested") -> Cdc:
    """A subcode with pairwise distance 2k (pairwise trivial intersections)."""
    k = c.k
    if strategy == "lmrd_nested":
        handle = getattr(c, "lmrd_handle", None)
        if handle is None or not isinstance(handle, GabidulinHandle):
            raise CdcError("no lifted-MRD provenance on this code")
        sub = handle if handle.d_r == k else nested_subcode(handle, k)
        chosen = [Subspace(c.field, c.n, rows) for rows in _lifted(c.field.q, sub).iter_rows()]
        # complete greedily with disjoint codewords from the rest of the code
        if c.materialized or c.size <= MATERIALIZE_CAP:
            have = set(w.gen.rows for w in chosen)
            for w in sorted(c.words(), key=lambda u: u.serialize()):
                if w.gen.rows in have:
                    continue
                if all(intersection_dim(w, x) == 0 for x in chosen):
                    chosen.append(w)
                    have.add(w.gen.rows)
    elif strategy == "greedy":
        chosen = _greedy_partial_spread(c.words(), k)
    else:
        raise CdcError(f"unknown strategy {strategy!r}")
    return Cdc(c.field, c.n, k, 2 * k, words=chosen,
               provenance={"kind": "partial_spread_subcode", "strategy": strategy,
                           "parent": c.provenance})
