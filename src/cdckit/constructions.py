"""Streaming builders that combine small constant-dimension codes and
rank-metric codes into larger ones, plus the named parameter recipes.

All builders are deterministic: streams are enumerated block-major, and
within a block in mixed-radix order over the constituent factors.  Addons
stack the packed rows of their parts, which are codes, at every q.

A duplication reads its base by index: the partition's parts are index
arrays, and the sequence member "base minus one word" is a MinusSource
view of the base's source, chosen in verify.canonical_order with
meet_dims scans, so no base is listed or copied.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce, wraps
from itertools import accumulate, chain, combinations
from math import prod
from operator import xor

import numpy as np

from .cdc import (Cdc, ListSource, MATERIALIZE_CAP, PackedSource, ProductSource, _lifted,
                  _single_full, lifted_mrd, parallelism_2_of_F_q4, partial_spread_subcode, spread)
from .gf import base_field
from .linalg import (StreamSource, checked_indices, entry_bits, find_words, packed_dtype,
                     rref_bits, rref_bits_batch, spans)
from .rankmetric import (GabidulinHandle, gabidulin_mrd, mrd_size, nested_subcode,
                         rank_distribution, rank_filtered)
from .subspace import Subspace, intersection_dim, orthogonal_complement
from .verify import (FULL_CHECK_CAP, CapExceeded, canonical_order, full_pairwise_check,
                     meet_dims)


class ConstructionError(ValueError):
    pass


class MissingImportError(ConstructionError):
    pass


# ----------------------------------------------------------------------
# profiles and helper types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionProfile:
    q: int
    k: int
    d: int
    nbar: tuple
    abar: tuple | None = None
    bbar: tuple | None = None

    @property
    def n(self):
        return sum(self.nbar)

    @property
    def l(self):
        return len(self.nbar)

    def offsets(self):
        return list(accumulate(self.nbar, initial=0))

    def validate(self, with_ab=False):
        if self.l < 2:
            raise ConstructionError("at least two blocks required")
        if self.d % 2:
            raise ConstructionError("distance must be even")
        if any(ni < self.k for ni in self.nbar):
            raise ConstructionError("every block must fit a k-subspace (n_i >= k)")
        if with_ab:
            if self.abar is None or self.bbar is None:
                raise ConstructionError("abar/bbar required")
            if len(self.abar) != self.l or len(self.bbar) != self.l:
                raise ConstructionError("abar/bbar length mismatch")
            if sum(self.abar) != self.k:
                raise ConstructionError("sum(abar) must equal k")
            if sum(self.bbar) != self.k - self.d // 2:
                raise ConstructionError("sum(bbar) must equal k - d/2")
            for a, b, ni in zip(self.abar, self.bbar, self.nbar):
                if not (self.d // 2 <= a and 0 <= b < a <= ni):
                    raise ConstructionError(
                        f"need d/2 <= a_i, b_i < a_i <= n_i; got a={a}, b={b}, n_i={ni}")


@dataclass
class DistancePartition:
    """Parts (C_0, ..., C_r) of a GF(2) code, each an int64 array of indices
    into the parent; the union of the first i+1 parts must have pairwise
    distance >= 2k - 2i.  A part is never sorted: its order is the order in
    which duplication streams the copies re-embedded above its words."""
    parent: Cdc
    parts: list  # r+1 int64 index arrays

    def validate(self):
        """Cover and no overlap: the part sizes sum to N and one N-byte mark
        array marks every index.  Each prefix union that ends in a nonempty
        part (else it repeats the one before under a weaker claim) is gathered
        for the exact full check; past FULL_CHECK_CAP, CapExceeded comes first."""
        C, N = self.parent, self.parent.size
        if sum(map(len, self.parts)) != N:
            raise ConstructionError("parts do not cover the parent code")
        mark = np.zeros(N, dtype=bool)
        for part in self.parts:
            mark[checked_indices(part, N)] = True
        if not mark.all():
            raise ConstructionError("parts overlap")
        prefix = np.empty(0, dtype=np.int64)
        for i, part in enumerate(self.parts):
            if not len(part):
                continue
            if len(prefix) + len(part) > FULL_CHECK_CAP:
                raise CapExceeded(f"prefix union {i} has {len(prefix) + len(part)} codewords, "
                                  f"past the full-check cap {FULL_CHECK_CAP}")
            prefix, need = np.concatenate([prefix, part]), 2 * C.k - 2 * i
            words = PackedSource(C.field, C.n, C.packed_at_batch(prefix))
            if not full_pairwise_check(Cdc(C.field, C.n, C.k, need, stream=words)).ok:
                raise ConstructionError(f"prefix union {i} violates distance {need}")


@dataclass
class SeqEntry:
    code: Cdc
    witness_u: Subspace
    witness_s: Subspace


@dataclass
class NdkSequence:
    """Codes D_0..D_r with witnesses: U_i in D_i, S_i disjoint from U_i,
    and dim(U' ∩ S_i) <= i for every U' in D_i."""
    entries: list

    def validate(self):
        for i, e in enumerate(self.entries):
            if intersection_dim(e.witness_u, e.witness_s) != 0:
                raise ConstructionError(f"witness codeword {i} meets the witness subspace")
            if e.witness_s.k != e.code.n - e.code.k:
                raise ConstructionError(f"witness subspace {i} has wrong dimension")
            if self._is_lmrd_with_hole(e):
                continue  # structural: lifted words avoid the hole entirely
            if (meet_dims(e.code, e.witness_s.packed_rows()) > i).any():
                raise ConstructionError(f"sequence member {i}: codeword meets S in dim > {i}")
            if e.witness_u.k != e.code.k or not _holds(e.code, e.witness_u):
                raise ConstructionError(f"witness codeword {i} not in the code")

    @staticmethod
    def _is_lmrd_with_hole(e: SeqEntry) -> bool:
        """The code is a lifted MRD code and the witnesses are the unit
        codeword R(I | 0) and the lifting hole (the last n-k coordinates)."""
        code = e.code
        if not hasattr(code, "lmrd_handle") or code.provenance.get("kind") != "lifted_mrd":
            return False
        ref = _lmrd_entry(code)
        return (e.witness_u, e.witness_s) == (ref.witness_u, ref.witness_s)


def _holds(code: Cdc, U: Subspace) -> bool:
    """Whether the k-subspace U is a word of code: found in its block stream
    by linalg.find_words over GF(2), else met in dimension k by a word."""
    if code.field.q != 2:
        return bool((meet_dims(code, U.packed_rows()) == code.k).any())
    return find_words(code.source.packed_blocks(), np.array([U.packed_rows()], np.uint64))[0] >= 0


def _coordinate_subspace(field, n, cols):
    """The span of the unit vectors e_j of F^n, j in the ascending cols."""
    return Subspace(field, n, [tuple(1 if c == j else 0 for c in range(n)) for j in cols])


def _lmrd_entry(lm: Cdc) -> SeqEntry:
    """A lifted MRD code with the unit codeword R(I | 0) as witness codeword
    and the lifting hole (the last n-k coordinates) as witness subspace."""
    return SeqEntry(lm, _coordinate_subspace(lm.field, lm.n, range(lm.k)),
                    _coordinate_subspace(lm.field, lm.n, range(lm.k, lm.n)))


# ----------------------------------------------------------------------
# the multi-block linkage builder
# ----------------------------------------------------------------------

def multiblock_linkage(profile: CompositionProfile, C, M, left=None) -> Cdc:
    """Union of the l linkage blocks; exact size by the product-sum rule."""
    profile.validate()
    q, k, d = profile.q, profile.k, profile.d
    if len(C) != profile.l or len(M) != profile.l:
        raise ConstructionError("need one CDC and one rank-metric code per block")
    for ci, ni in zip(C, profile.nbar):
        if ci.n != ni or ci.k != k or ci.d_claim < d:
            raise ConstructionError(f"component CDC does not fit block ({ni}, d>={d}; {k})")
    for mi, ni in zip(M, profile.nbar):
        if (mi.m, mi.n) != (k, ni) or mi.d_r < d // 2:
            raise ConstructionError(f"rank-metric code must be {k}x{ni} with d_r >= {d // 2}")
    if left is None:
        left = [rank_filtered(mi, k - d // 2) for mi in M]
    field = base_field(q)
    # block i: low-rank prefixes left of tau(U_i), free MRD words right of it
    blocks = [ProductSource(field, [*left[:i], C[i].source, *M[i + 1:]], profile.nbar,
                            reduce=i > 0)
              for i in range(profile.l)]
    src, offs = UnionSource(blocks), profile.offsets()
    meta = [{"start": src.starts[i], "count": blk.size, "col_start": offs[i], "col_end": offs[i + 1]}
            for i, blk in enumerate(blocks)]
    c = Cdc(field, profile.n, k, d, stream=src,
            provenance={"kind": "multiblock_linkage", "q": q,
                        "nbar": profile.nbar, "blocks": meta})
    # block 1 is a lifted MRD code when tau(U_1) is the identity
    if profile.l == 2 and C[0].size == 1 and profile.nbar[0] == k \
            and isinstance(M[1], GabidulinHandle):
        c.lmrd_handle = M[1]
    return c


def cor1_bound(q, k, d, nbar, A_values) -> int:
    """Sum-product cardinality of the linkage with MRD components."""
    if len(A_values) != len(nbar):
        raise ConstructionError("need one cardinality per block")
    # left of block i: the zero matrix or a rank d/2 .. k - d/2 word; right: any MRD word
    low = [1 + sum(rank_distribution(q, k, nj, d // 2, r) for r in range(d // 2, k - d // 2 + 1))
           for nj in nbar]
    return sum(A_values[i] * prod(low[:i]) * prod(mrd_size(q, k, nj, d // 2) for nj in nbar[i + 1:])
               for i in range(len(nbar)))


def check_special_substructure(c: Cdc):
    """Every block-i codeword must meet the coordinate subspace outside
    block i's columns trivially (equivalently, project with full rank k
    onto block i's columns); at most MATERIALIZE_CAP words are checked."""
    blocks = c.provenance.get("blocks")
    if blocks is None:
        raise ConstructionError("no block metadata in provenance")
    checked = 0
    failures = []
    for meta in blocks:
        lo, hi = meta["col_start"], meta["col_end"]
        idx = np.arange(meta["start"],
                        meta["start"] + min(meta["count"], MATERIALIZE_CAP - checked))
        outside = _coordinate_subspace(c.field, c.n, [*range(lo), *range(hi, c.n)])
        failures += idx[meet_dims(c, outside.packed_rows(), idx) != 0].tolist()
        checked += len(idx)
    return {"checked": checked, "failures": failures, "ok": not failures}


# ----------------------------------------------------------------------
# product-type addons
# ----------------------------------------------------------------------

def _refuse_past_cap(size):
    if size > MATERIALIZE_CAP:
        raise ConstructionError(f"the addon has {size} words, past MATERIALIZE_CAP")


def _placed(words, k, n, end, q):
    """Packed words of k rows over the columns of a block that ends at column
    end of F_q^n, as an (N, k) array of linalg.packed_dtype(q, n) in all n
    columns: each row shifted by w (n - end), w = entry_bits(q)."""
    dtype = packed_dtype(q, n)
    words = list(words)
    return np.array(words, dtype).reshape(len(words), k) \
        << np.array(entry_bits(q) * (n - end), dtype)


def _direct_sums(parts):
    """One word of each part with their rows side by side, for every choice
    in mixed-radix order with the last part fastest; parts are (m_i, a_i)
    arrays of packed words, each already in its own columns."""
    picks = np.indices([len(p) for p in parts]).reshape(len(parts), -1)
    return np.hstack([p[g] for p, g in zip(parts, picks)])


def _check_cross_families(profile, families, field):
    """Families j1 < j2 of block i are 2 a_i - 2 b_i apart: no member meets
    a member of a later family in dimension > b_i (one meet_dims each, per distinct block)."""
    blocks = list(zip(profile.nbar, profile.abar, profile.bbar, families))
    for i, (ni, a, b, fams) in enumerate(blocks):
        if blocks[i] in blocks[:i]:
            continue
        members = list(chain.from_iterable(f.iter_packed() for f in fams))
        block = Cdc(field, ni, a, 0, stream=ListSource(field, ni, members))
        fam = np.repeat(np.arange(len(fams)), list(map(len, fams)))  # each member's family
        for x, u in enumerate(members):
            if (top := meet_dims(block, u, np.flatnonzero(fam > fam[x])).max(initial=b)) > b:
                raise ConstructionError(f"cross-family distance {2 * a - 2 * top} < "
                                        f"{2 * a - 2 * b} in block {i}")


def product_addon(profile: CompositionProfile, families, verify_cross=True) -> Cdc:
    """Direct sums U_1 x ... x U_l over each family index j; compatible by
    construction with the linkage code on the same profile.  Family j of
    block i is a Cdc of shape (n_i, *; a_i); a sum stacks one packed word of
    each block's family, its rows shifted into the block's columns.
    verify_cross checks families of block i pair by pair to be 2 a_i - 2 b_i
    apart, which families from a search or an import do not guarantee."""
    profile.validate(with_ab=True)
    q, n = profile.q, profile.n
    field = base_field(q)
    s = len(families[0])
    if any(len(f) != s for f in families):
        raise ConstructionError("ragged family grid")
    bad = next((i for i, fams in enumerate(families) for fam in fams
                if (fam.n, fam.k) != (profile.nbar[i], profile.abar[i])), None)
    if bad is not None:
        raise ConstructionError(f"family of block {bad} is not an "
                                f"({profile.nbar[bad]}, *; {profile.abar[bad]}) code")
    _refuse_past_cap(sum(prod(len(fams[j]) for fams in families) for j in range(s)))
    if verify_cross:
        _check_cross_families(profile, families, field)
    parts = [[_placed(fam.iter_packed(), a, n, end, q) for fam in fams]
             for fams, a, end in zip(families, profile.abar, profile.offsets()[1:])]
    words = np.concatenate([np.empty((0, profile.k), packed_dtype(q, n)),
                            *(_direct_sums([p[j] for p in parts]) for j in range(s))])
    return Cdc(field, n, profile.k, profile.d, words=words,
               provenance={"kind": "product_addon", "s": s,
                           "abar": profile.abar, "bbar": profile.bbar})


def coset_addon(profile: CompositionProfile) -> Cdc:
    """Addon families realized as liftings of MRD coset partitions.  The
    cosets of block i lie in one MRD code of rank distance a_i - b_i, and
    lifting doubles rank distance (Silva, Kschischang and Koetter, 2008),
    so two families are 2 a_i - 2 b_i apart with no cross-family scan."""
    profile.validate(with_ab=True)
    q, d = profile.q, profile.d
    bigs = [gabidulin_mrd(q, a, ni - a, a - b)
            for a, b, ni in zip(profile.abar, profile.bbar, profile.nbar)]
    subs = [big if big.d_r == d // 2 else nested_subcode(big, d // 2) for big in bigs]
    s = min(big.size // sub.size for big, sub in zip(bigs, subs))
    _refuse_past_cap(s * prod(sub.size for sub in subs))  # before any coset or word
    # the liftings of the first s cosets of coset_partition(big, sub), as views of big
    families = [[Cdc(base_field(q), ni, big.m, d,
                     stream=_lifted(q, GabidulinHandle(q, big.m, big.n, sub.d_r, big, rep)))
                 for rep in range(s)] for big, sub, ni in zip(bigs, subs, profile.nbar)]
    c = product_addon(profile, families, verify_cross=False)
    c.provenance["kind"] = "coset_addon"
    c.addon_families = families
    return c


def mixed_abar_addons(profiles) -> Cdc:
    """Union of coset addons for several abar vectors on the same nbar.
    The cross distance between two addons is certified by the pivot bound,
    which gives sum(|a_i - a'_i|); pairs below d are rejected (identity
    lifts with nested pivot blocks really do get that close)."""
    if not profiles:
        raise ConstructionError("no profiles")
    base = profiles[0]
    for p in profiles[1:]:
        if (p.nbar, p.k, p.d, p.q) != (base.nbar, base.k, base.d, base.q):
            raise ConstructionError("profiles must share nbar, k, d, q")
    for px, py in combinations(profiles, 2):
        if (delta := sum(abs(a - b) for a, b in zip(px.abar, py.abar))) < base.d:
            raise ConstructionError(f"pivot bound between abar={px.abar} and "
                                    f"abar={py.abar} gives only {delta} < {base.d}")
    return Cdc(base_field(base.q), base.n, base.k, base.d,
               words=_joined([coset_addon(p) for p in profiles]),
               provenance={"kind": "mixed_abar_addons",
                           "abars": [p.abar for p in profiles]})


def _joined(codes):
    """The words of codes in turn, to be listed in one Cdc: one (N, k)
    array of packed words, their block streams concatenated."""
    return np.concatenate([np.empty((0, codes[0].k), np.uint64),
                           *chain.from_iterable(c.source.packed_blocks() for c in codes)])


def xi_extension(profile: CompositionProfile, addon: Cdc) -> Cdc:
    """Spans of each block's lifting hole with the other block's first
    addon family (two-block profiles only): the hole's unit rows stacked
    with the family word's packed rows in pivot order."""
    if profile.l != 2:
        raise ConstructionError("hole extension is defined for two blocks")
    families = getattr(addon, "addon_families", None)
    if families is None:
        raise ConstructionError("addon lacks lifting-family metadata")
    q, n = profile.q, profile.n
    field = base_field(q)
    a1, a2 = profile.abar
    n1, n2 = profile.nbar
    if (n1 - a1) + a2 != profile.k or (n2 - a2) + a1 != profile.k:
        raise ConstructionError("hole + partner dimensions do not give k")
    # block i's hole: its last n_i - a_i coordinates
    holes = [_coordinate_subspace(field, ni, range(a, ni)) for a, ni in zip(profile.abar, profile.nbar)]
    if any(meet_dims(fams[0], hole.packed_rows()).any() for fams, hole in zip(families, holes)):
        raise ConstructionError("family member meets the lifting hole")
    ends = profile.offsets()[1:]
    h1, h2 = (_placed([h.packed_rows()], h.k, n, end, q) for h, end in zip(holes, ends))
    f1, f2 = (_placed(fams[0].iter_packed(), a, n, end, q)
              for fams, a, end in zip(families, profile.abar, ends))
    # the hole of block 1 with the first family of block 2, then the other way round
    words = np.concatenate([_direct_sums([h1, f2]), _direct_sums([f1, h2])])
    return Cdc(field, n, profile.k, profile.d, words=words,
               provenance={"kind": "xi_extension"})


# ----------------------------------------------------------------------
# pairing construction
# ----------------------------------------------------------------------

def pairing_construction(nbar2, abar2, bbar2, C0: Cdc, C1: Cdc, C2: Cdc,
                         d: int) -> Cdc:
    """Lift C0 over the second block and append one-to-one direct sums of
    C1 and C2, the first s words of each in verify.canonical_order."""
    n1, n2 = nbar2
    a1, a2 = abar2
    b1, b2 = bbar2
    k = a1 + a2
    if a1 > k - d // 2:
        raise ConstructionError("need a_1 <= k - d/2")
    if b1 + b2 != k - d // 2:
        raise ConstructionError("need b_1 + b_2 = k - d/2")
    if C0.n != n1 or C0.k != k or C0.d_claim < d:
        raise ConstructionError("C0 must be an (n_1, *, d; k) code")
    if C1.n != n1 or C1.k != a1 or C1.d_claim < 2 * a1 - 2 * b1:
        raise ConstructionError("C1 must be an (n_1, *, 2a_1-2b_1; a_1) code")
    if C2.n != n2 or C2.k != a2 or C2.d_claim < 2 * a2 - 2 * b2:
        raise ConstructionError("C2 must be an (n_2, *, 2a_2-2b_2; a_2) code")
    q, n = C0.field.q, n1 + n2
    handle = gabidulin_mrd(q, k, n2, d // 2)
    s = min(C1.size, C2.size)
    sums = np.hstack([_placed(map(C.packed_at, canonical_order(C)[:s].tolist()), C.k, n, end, q)
                      for C, end in ((C1, n1), (C2, n))])
    lifted = ProductSource(C0.field, [C0.source, handle], (n1, n2))
    return Cdc(C0.field, n, k, d, stream=UnionSource([lifted, ListSource(C0.field, n, sums)]),
               provenance={"kind": "pairing", "nbar": (n1, n2),
                           "abar": (a1, a2), "bbar": (b1, b2)})


# ----------------------------------------------------------------------
# duplication
# ----------------------------------------------------------------------

class _ReembedSource(StreamSource):
    """For each basis M_u (P^-1 times the frame of U: the rows of U above
    the unit rows of the s added coordinates) and each word D_j of the
    sequence code's source, the RREF of D_j times M_u.  Row g of D_j M_u is
    vector g of the spans of M_u (linalg.spans), so each row is one lookup."""

    def __init__(self, field, n, bases, member):
        self.field, self.n, self.bases, self.member = field, n, bases, member
        self.size = len(bases) * member.size

    def packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        u, j = divmod(i, self.member.size)
        basis = self.bases[u].tolist()[::-1]  # vector g of the spans: bit c picks basis[-1 - c]
        rows = [reduce(xor, (b for c, b in enumerate(basis) if g >> c & 1), 0)
                for g in self.member.packed_at(j)]
        return tuple(rref_bits(rows, self.n)[0])

    def packed_at_batch(self, idx):
        """One spans table per distinct basis of the batch, 2^(k+s) rows
        each, and one np.take for all rows: memory grows with the batch."""
        u, j = np.divmod(checked_indices(idx, self.size), self.member.size)
        used, u = np.unique(u, return_inverse=True)
        coeffs = self.member.packed_at_batch(j).view(np.int64)  # k + s < 63 bits
        rows = np.take(spans(self.bases[used]), coeffs * len(used) + u[:, None])
        return rref_bits_batch(rows, self.n)[0]


def _reembedded(entry: SeqEntry, words, field, k, s, t) -> StreamSource:
    """A copy of the sequence code D inside <U, S> for every U in the (m, k)
    array of packed words, in its order."""
    code = entry.code
    if NdkSequence._is_lmrd_with_hole(entry):
        # R(I | M) re-embedded above U is [U | M]
        return ProductSource(field, [PackedSource(field, k + t, words), code.lmrd_handle],
                             (k + t, s))
    # general path: a word g of D is g P^-1 in the (U*, S*) basis, and
    # (g P^-1) F_u = g (P^-1 F_u), so P^-1 is folded into each frame F_u once:
    # row c of P^-1 F_u is the vector of U picked by the first k bits of row c
    # of P^-1, above the unit rows picked by its last s bits.  The rows of
    # [P | I] reduce to [I | P^-1]: NdkSequence.validate made P invertible
    dim, P = k + s, entry.witness_u.packed_rows() + entry.witness_s.packed_rows()
    inv = rref_bits([row << dim | 1 << dim - 1 - c for c, row in enumerate(P)], 2 * dim)[0]
    Pinv = np.array([row & (1 << dim) - 1 for row in inv], dtype=np.uint64)
    bases = spans(words)[Pinv >> s] << s | (Pinv & (1 << s) - 1)[:, None]
    return _ReembedSource(field, k + s + t, np.ascontiguousarray(bases.T), code.source)


def duplication(partition: DistancePartition, seq: NdkSequence, A: Cdc) -> Cdc:
    """Re-embeds a copy of a sequence code above every codeword of the
    partitioned code and adds A inside the new coordinates."""
    C = partition.parent
    k, t = C.k, C.n - C.k
    if C.field.q != 2:
        raise ConstructionError("duplication streaming is implemented for q = 2")
    if len(seq.entries) != len(partition.parts):
        raise ConstructionError("partition and sequence lengths differ")
    s = seq.entries[0].code.n - k
    if any(e.code.n != k + s or e.code.k != k for e in seq.entries):
        raise ConstructionError("sequence members must be (k+s; k) codes")
    if A.n != s or A.k != k:
        raise ConstructionError("A must consist of k-subspaces of an s-space")
    partition.validate()
    seq.validate()
    n, r = k + s + t, len(partition.parts) - 1
    # A's packed rows, in the last s columns, are its rows in all n
    parts = [PackedSource(C.field, n, A.packed_at_batch(np.arange(A.size)))]
    expected = A.size
    for i, part in enumerate(partition.parts):
        if len(part):
            entry = seq.entries[r - i]
            parts.append(_reembedded(entry, C.packed_at_batch(part), C.field, k, s, t))
            expected += len(part) * entry.code.size
    src = UnionSource(parts)
    if src.size != expected:
        raise ConstructionError("size bookkeeping mismatch")
    return Cdc(C.field, n, k, C.d_claim, stream=src,
               provenance={"kind": "duplication", "r": r})


def _duplication_over(base: Cdc, c0, entries, A: Cdc) -> Cdc:
    """The duplication over base split into C_0, the words at the int64
    indices c0 in their order, r - 1 empty parts, and the rest of base in
    index order; the sequence is the r + 1 >= 2 entries."""
    rest = np.ones(base.size, dtype=bool)
    rest[c0] = False
    parts = [c0, *[[]] * (len(entries) - 2), np.flatnonzero(rest)]
    return duplication(DistancePartition(base, parts), NdkSequence(entries), A)


def _indices_in(base: Cdc, sub: Cdc):
    """The index in base of each word of sub, in sub's order."""
    idx = find_words(base.source.packed_blocks(), sub.packed_at_batch(np.arange(sub.size)))
    if (missing := np.flatnonzero(idx < 0)).size:
        raise ConstructionError(
            f"subcode word {sub.at(int(missing[0])).serialize()} is not in the base code")
    return idx


# ----------------------------------------------------------------------
# shared stream utilities
# ----------------------------------------------------------------------

class UnionSource(StreamSource):
    def __init__(self, parts):
        self.parts = parts
        self.field, self.n = parts[0].field, parts[0].n  # the parts share one space
        self.starts = list(accumulate((p.size for p in parts), initial=0))  # of each part
        self.size = self.starts[-1]
        self.largest = max(range(len(parts)), key=lambda p: parts[p].size)

    def packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        p = bisect_right(self.starts, i) - 1
        return self.parts[p].packed_at(i - self.starts[p])

    def packed_at_batch(self, idx):
        """The largest part gathered at every index, clamped into its range,
        straight into the output; then the rows whose indices fall in another
        part, found by range comparisons, overwritten by that part's gather."""
        idx, big, s = checked_indices(idx, self.size), self.largest, self.starts
        out = self.parts[big].packed_at_batch(np.clip(idx, s[big], s[big + 1] - 1) - s[big])
        for p, part in enumerate(self.parts):
            if p != big and len(at := np.flatnonzero((s[p] <= idx) & (idx < s[p + 1]))):
                out[at] = part.packed_at_batch(idx[at] - s[p])
        return out

    def packed_blocks(self):
        return chain.from_iterable(p.packed_blocks() for p in self.parts)


class MinusSource(StreamSource):
    """Word i of a parent source (a rank-metric handle included) without
    the words at the strictly increasing int64 indices removed: parent word
    i + #{j : removed[j] - j <= i}, found by np.searchsorted for a batch and
    bisect for one index."""

    def __init__(self, parent, removed):
        self.parent, self.n, self.field = parent, parent.n, parent.field
        self.shift = checked_indices(removed, parent.size) - np.arange(len(removed))
        if (np.diff(self.shift) < 0).any():  # a removed index repeats or decreases
            raise ConstructionError("removed indices must increase strictly")
        self.size = parent.size - len(removed)

    def packed_at(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        return self.parent.packed_at(i + bisect_right(self.shift, i))

    def packed_at_batch(self, idx):
        idx = checked_indices(idx, self.size)
        return self.parent.packed_at_batch(idx + np.searchsorted(self.shift, idx, side="right"))

    def packed_blocks(self):
        """The parent's block stream with the removed words dropped."""
        removed, lo = self.shift + np.arange(len(self.shift)), 0
        for block in self.parent.packed_blocks():
            cut = removed[(lo <= removed) & (removed < lo + len(block))] - lo
            lo += len(block)
            yield np.delete(block, cut, axis=0) if len(cut) else block


def _dual_spread(sp: Cdc) -> Cdc:
    return Cdc(sp.field, sp.n, sp.n - sp.k, sp.d_claim, words=map(orthogonal_complement, sp),
               provenance={"kind": "dual_spread"})


# ----------------------------------------------------------------------
# size polynomials of the named recipes
# ----------------------------------------------------------------------

def size_8_4_4(q):
    return q ** 12 + q ** 2 * (q ** 2 + 1) ** 2 * (q ** 2 + q + 1) + 1


def size_12_4_4_thm(q):
    base = size_8_4_4(q)
    return 1 + (q ** 4 + 1) * (base - 1) + (base - 1 - q ** 4) * q ** 12


def size_12_4_4_cor(q):
    a_844 = 4801 if q == 2 else size_8_4_4(q)
    return cor1_bound(q, 4, 4, (8, 4), [a_844, 1])


def size_12_4_4_combined(q):
    return size_12_4_4_cor(q) + (q * q + q + 1) * (q * q + 1) ** 2 * (q ** 4 + 1)


def size_12_6_6(q):
    core = (q ** 2 + 1) * (q ** 5 - 1) * ((q ** 6 - 1) // (q - 1)) * (q ** 3 + 1)
    return q ** 24 + core + q ** 9 + 2 * q ** 3


def size_10_4_5_linkage(q):
    core = (q ** 5 - 1) ** 2 * (q + 1) * (q ** 2 + 1) * (q ** 3 + q - 1)
    return q ** 20 + core + 1


def size_10_4_5_claimed(q):
    return size_10_4_5_linkage(q) + 2 * q ** 9


def size_12_8_6(q):
    return q ** 18 + q ** 4 + q ** 2 + 1


def size_4k_2k_2k(q, k):
    if k < 4 or k % 2:
        raise ConstructionError("k must be even and at least 4")
    return q ** (2 * k * (k + 1)) + rank_distribution(q, 2 * k, 2 * k, k, k) \
        + q ** (k * (k // 2 + 2)) + 2 * q ** k + 1


def size_6k_2k_2k(q, k):
    if k < 4 or k % 2:
        raise ConstructionError("k must be even and at least 4")
    body = size_4k_2k_2k(q, k) - 1
    return 1 + (q ** (2 * k) + 1) * body + (body - q ** (2 * k)) * q ** (2 * k * (k + 1))


def size_16_4_4(q):
    cprime = size_12_4_4_thm(q)
    d2 = q ** 12 + q ** 2 * (q ** 2 + 1) ** 2 * (q ** 2 + q + 1)
    return 1 + (q ** 8 + q ** 4 + 1) * d2 + (cprime - q ** 8 - q ** 4 - 1) * q ** 12


def size_3k_4_k(q, k, big_lambda):
    if k < 5:
        raise ConstructionError("k must be at least 5")
    return 1 + (q ** k + 1) * (big_lambda - 1) \
        + (big_lambda - q ** k - 1) * q ** (k * (k - 1))


def size_9_4_3(q):
    return (q ** 12 + 2 * q ** 8 + 2 * q ** 7 + q ** 6 + 2 * q ** 5 + 2 * q ** 4
            - 2 * q ** 2 - 2 * q + 1)


def size_10_4_3(q):
    return (q ** 14 + q ** 11 + q ** 10 + q ** 8 - q ** 7 + 2 * q ** 6
            + 2 * q ** 5 + 1)


def size_12_4_4_prior(q):
    return (q ** 24 + q ** 20 + q ** 19 + 3 * q ** 18 + 2 * q ** 17 + 3 * q ** 16
            + q ** 15 + q ** 14 + q ** 12 + q ** 10 + 2 * q ** 8 + 2 * q ** 6
            + 2 * q ** 4 + q ** 2)


# ----------------------------------------------------------------------
# named recipes
# ----------------------------------------------------------------------

def recipe_8_4_4(q):
    """Two-block linkage over (4, 4) plus a parallelism-based addon, listed
    as packed words (at q > 2 it is past MATERIALIZE_CAP: a union)."""
    profile = CompositionProfile(q, 4, 4, (4, 4), (2, 2), (1, 1))
    # the handles first: a GF(q^4) past 2^62 is refused before GF(q) is built
    M = [gabidulin_mrd(q, 4, 4, 2), gabidulin_mrd(q, 4, 4, 2)]
    C = [_single_full(q, 4), _single_full(q, 4)]
    linkage = multiblock_linkage(profile, C, M)
    par = parallelism_2_of_F_q4(q)
    addon = product_addon(profile, [par, par])
    expected = size_8_4_4(q)
    field = base_field(q)
    prov = {"kind": "recipe_8_4_4", "q": q,
            "blocks": linkage.provenance["blocks"]}
    if linkage.size + addon.size <= MATERIALIZE_CAP:
        c = Cdc(field, 8, 4, 4, words=_joined([linkage, addon]), provenance=prov)
    else:
        src = UnionSource([linkage.source, addon.source])
        c = Cdc(field, 8, 4, 4, stream=src, provenance=prov)
    c.lmrd_handle = M[1]
    return c, expected


def _sequence_entry_from_code(code: Cdc) -> SeqEntry:
    """Remove the first codeword in canonical order that is disjoint from
    another one; the removed word is the witness subspace, the first
    codeword disjoint from it the witness.  The code left is a view of
    code's source without that index."""
    order = canonical_order(code)
    for i in order.tolist():
        disjoint = order[meet_dims(code, code.packed_at(i))[order] == 0]  # never i itself
        if len(disjoint):
            d_code = Cdc(code.field, code.n, code.k, code.d_claim,
                         stream=MinusSource(code.source, [i]),
                         provenance={"kind": "reduced", "parent": code.provenance})
            return SeqEntry(d_code, code.at(int(disjoint[0])), code.at(i))
    raise ConstructionError("no pair of disjoint codewords")


def recipe_12_4_4_thm(q):
    """Duplication over the (8, 4; 4) base code."""
    base, _ = recipe_8_4_4(q)
    if base.size > MATERIALIZE_CAP:
        return None, size_12_4_4_thm(q)
    c0 = partial_spread_subcode(base, "lmrd_nested")
    if c0.size != q ** 4 + 1:
        raise ConstructionError(f"partial-spread subcode has size {c0.size}")
    entry_lmrd = _lmrd_entry(lifted_mrd(q, 8, 4, 4))
    entries = [entry_lmrd, entry_lmrd, _sequence_entry_from_code(base)]
    c = _duplication_over(base, _indices_in(base, c0), entries, _single_full(q, 4))
    return c, size_12_4_4_thm(q)


def recipe_12_6_6(q):
    """Linkage over (6, 6) plus the coset addon and both hole extensions.
    The second linkage block keeps only nonzero-prefix words, matching the
    closed-form count."""
    profile = CompositionProfile(q, 6, 6, (6, 6), (3, 3), (1, 2))
    M = [gabidulin_mrd(q, 6, 6, 3), gabidulin_mrd(q, 6, 6, 3)]
    C = [_single_full(q, 6), _single_full(q, 6)]
    left = [MinusSource(rank_filtered(mi, 3), [0]) for mi in M]
    linkage = multiblock_linkage(profile, C, M, left=left)
    addon = coset_addon(profile)
    ext = xi_extension(profile, addon)
    src = UnionSource([linkage.source, addon.source, ext.source])
    c = Cdc(base_field(q), 12, 6, 6, stream=src,
            provenance={"kind": "recipe_12_6_6", "q": q,
                        "blocks": linkage.provenance["blocks"]})
    return c, size_12_6_6(q)


def recipe_10_4_5(q):
    """Linkage over (5, 5).  The published 2q^9 addon with mixed dimension
    splits (2,3)/(3,2) is omitted: its pivot bound only certifies cross
    distance 2 and explicit distance-2 pairs exist, so mixed_abar_addons
    rejects that profile pair."""
    profile = CompositionProfile(q, 5, 4, (5, 5))
    M = [gabidulin_mrd(q, 5, 5, 2), gabidulin_mrd(q, 5, 5, 2)]
    C = [_single_full(q, 5), _single_full(q, 5)]
    linkage = multiblock_linkage(profile, C, M)
    c = Cdc(base_field(q), 10, 5, 4, stream=linkage.source,
            provenance={"kind": "recipe_10_4_5", "q": q,
                        "blocks": linkage.provenance["blocks"]})
    return c, size_10_4_5_linkage(q)


def recipe_12_8_6(q):
    C1 = spread(q, 6, 2)  # refused by its size before GF(q) is built
    C2 = _dual_spread(C1)
    C0 = _single_full(q, 6)
    c = pairing_construction((6, 6), (2, 4), (0, 2), C0, C1, C2, d=8)
    return c, size_12_8_6(q)


def _imports_over(q, *codes, duplicated=False):
    """Refuse an imported code that is not over GF(q), and a duplication
    over them at q != 2, before any word is read."""
    for code in codes:
        if code is not None and code.field.q != q:
            raise ConstructionError(f"imported code is over GF({code.field.q}), not GF({q})")
    if duplicated and q != 2:
        raise ConstructionError("duplication streaming is implemented for q = 2")


def recipe_3k_4_k(q, k, base: Cdc | None = None):
    if base is None:
        raise MissingImportError("a (2k, Lambda, 4; k) base-code import is required")
    _imports_over(q, base)
    if base.n != 2 * k or base.k != k or base.d_claim < 4:
        raise ConstructionError("imported base must be a (2k, *, 4; k) code")
    return None, size_3k_4_k(q, k, base.size)


def recipe_9_4_3(q, base: Cdc | None = None, base_subcode: Cdc | None = None):
    """Needs an imported (6, q^6+2q^2+2q+1, 4; 3) record code."""
    if base is None:
        raise MissingImportError("a (6, *, 4; 3) record-code import is required")
    _imports_over(q, base, base_subcode, duplicated=True)
    expected_base = q ** 6 + 2 * q * q + 2 * q + 1
    if base.n != 6 or base.k != 3 or base.size != expected_base:
        raise ConstructionError(
            f"imported base must be a (6, {expected_base}, 4; 3) code")
    # C_0: the imported subcode, else q^3 - 1 words of the greedy partial spread
    c0 = _indices_in(base, partial_spread_subcode(base, "greedy"))[:q ** 3 - 1] \
        if base_subcode is None else _indices_in(base, base_subcode)
    entries = [_lmrd_entry(lifted_mrd(q, 6, 3, 4)), _sequence_entry_from_code(base)]
    return _duplication_over(base, c0, entries, _single_full(q, 3)), size_9_4_3(q)


def recipe_10_4_3(q, base: Cdc | None = None, base_subcode: Cdc | None = None,
                  seq_base: Cdc | None = None):
    """Needs imported (7, *, 4; 3) and (6, *, 4; 3) record codes."""
    if base is None or seq_base is None:
        raise MissingImportError(
            "imports required: a (7, *, 4; 3) base and a (6, *, 4; 3) sequence code")
    _imports_over(q, base, base_subcode, seq_base, duplicated=True)
    expected_base = q ** 8 + q ** 5 + q ** 4 + q * q - q
    if base.n != 7 or base.k != 3 or base.size != expected_base:
        raise ConstructionError(
            f"imported base must be a (7, {expected_base}, 4; 3) code")
    c0 = _indices_in(base, partial_spread_subcode(base, "greedy"))[:q ** 4] \
        if base_subcode is None else _indices_in(base, base_subcode)
    entries = [_lmrd_entry(lifted_mrd(q, 6, 3, 4)), _sequence_entry_from_code(seq_base)]
    return _duplication_over(base, c0, entries, _single_full(q, 3)), size_10_4_3(q)


@dataclass(frozen=True)
class Construction:
    """A registry row: formula and recipe names (either may be None), size
    polynomial, the (n, d, k) its formula bounds (for a family, a function of
    the index k the polynomial also takes) and its bound-table note, builder,
    and a family's size floor: the size is at least q^floor(k)."""
    formula: str | None
    recipe: str | None
    size: Callable
    params: tuple | Callable | None = None
    note: str = ""
    build: Callable | None = None  # None: the recipe gives its closed form only
    floor: Callable | None = None


def _size_only(size):
    """A recipe of no code and the size, with the polynomial's signature."""
    return wraps(size)(lambda q, *args, **kwargs: (None, size(q, *args, **kwargs)))


# the formula rows are in bound-table order, which breaks the table's ties;
# both k-families are at least q^(2k(k+1)), the (4k, 2k; 2k) lifted MRD block
REGISTRY = (
    Construction("A_q(8,4;4)", "8_4_4", size_8_4_4, (8, 4, 4),
                 "two-block linkage with parallelism addon", recipe_8_4_4),
    Construction("A_q(12,4;4)_cor", "12_4_4_cor", size_12_4_4_cor, (12, 4, 4),
                 "three-block linkage bound"),
    Construction("A_q(12,4;4)_combined", None, size_12_4_4_combined, (12, 4, 4),
                 "three-block linkage plus disjoint-2-spread addon"),
    Construction("A_q(12,4;4)_thm", "12_4_4_thm", size_12_4_4_thm, (12, 4, 4),
                 "duplication over the (8, 4; 4) base", recipe_12_4_4_thm),
    Construction("A_q(12,4;4)_prior", None, size_12_4_4_prior, (12, 4, 4),
                 "previously best known value"),
    Construction("A_q(12,6;6)", "12_6_6", size_12_6_6, (12, 6, 6),
                 "linkage with coset addon and hole extensions", recipe_12_6_6),
    Construction("A_q(10,4;5)_linkage", "10_4_5", size_10_4_5_linkage, (10, 4, 5),
                 "two-block linkage", recipe_10_4_5),
    Construction("A_q(10,4;5)_claimed", None, size_10_4_5_claimed, (10, 4, 5),
                 "published value incl. a 2q^9 addon that fails its distance claim"),
    Construction("A_q(12,8;6)", "12_8_6", size_12_8_6, (12, 8, 6),
                 "pairing construction", recipe_12_8_6),
    Construction("A_q(16,4;4)", "16_4_4", size_16_4_4, (16, 4, 4), "recursive duplication"),
    Construction("A_q(9,4;3)", "9_4_3", size_9_4_3, (9, 4, 3),
                 "duplication over an imported (6, *, 4; 3) code", recipe_9_4_3),
    Construction("A_q(10,4;3)", "10_4_3", size_10_4_3, (10, 4, 3),
                 "duplication over an imported (7, *, 4; 3) code", recipe_10_4_3),
    Construction("A_q(4k,2k;2k)", "4k_2k_2k", size_4k_2k_2k, lambda k: (4 * k, 2 * k, 2 * k),
                 "linkage with coset addon, (4k, 2k; 2k)", floor=lambda k: 2 * k * (k + 1)),
    Construction("A_q(6k,2k;2k)", "6k_2k_2k", size_6k_2k_2k, lambda k: (6 * k, 2 * k, 2 * k),
                 "duplication over (4k, 2k; 2k), (6k, 2k; 2k)", floor=lambda k: 2 * k * (k + 1)),
    Construction(None, "3k_4_k", size_3k_4_k, build=recipe_3k_4_k),
)

RECIPES = {c.recipe: c.build or _size_only(c.size) for c in REGISTRY if c.recipe}
FORMULAS = {c.formula: c.size for c in REGISTRY if c.formula}
