"""Linear algebra over small fields: RREF canonicity under 1000 seeded
trials, bit-packed kernels vs the generic path, Gaussian binomials."""

import itertools
import random
from functools import reduce
from types import SimpleNamespace
from operator import xor

import numpy as np
import pytest

from cdckit.gf import field_new
from cdckit.linalg import (MatrixGF, PivotVector, entry_bits, gaussian_binomial, in_rref, inverse,
                           matmul, pack_row, pack_rows, rank_bits, rank_bits_batch,
                           rank_rows, rref, rref_bits, rref_bits_batch, spans, unpack_row,
                           unpack_rows)
from cdckit.verify import subspace_bases

FIELDS = [field_new(2, 1), field_new(3, 1), field_new(2, 2), field_new(5, 1)]


def _random_matrix(rng, field, r, c):
    return MatrixGF(field, [[rng.randrange(field.q) for _ in range(c)]
                            for _ in range(r)], ncols=c)


def _random_invertible(rng, field, r):
    while True:
        T = _random_matrix(rng, field, r, r)
        try:
            inverse(T)
            return T
        except ValueError:
            continue


def test_rref_idempotent_and_row_space_invariant_1000_trials():
    rng = random.Random(0)
    for _ in range(1000):
        field = rng.choice(FIELDS)
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 7)
        M = _random_matrix(rng, field, r, c)
        res = rref(M)
        again = rref(res.matrix)
        assert again.matrix.rows == res.matrix.rows
        assert again.pivots.bits == res.pivots.bits
        # left-multiplying by an invertible matrix preserves the row space
        T = _random_invertible(rng, field, r)
        assert rref(matmul(T, M)).matrix.rows == res.matrix.rows


def test_rref_bits_matches_generic_q2():
    rng = random.Random(1)
    f2 = field_new(2, 1)
    for _ in range(400):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 9)
        M = _random_matrix(rng, f2, r, c)
        res = rref(M)
        packed, pivots = rref_bits([pack_row(row) for row in M.rows], c)
        assert [unpack_row(x, c) for x in packed] == [tuple(row) for row in res.matrix.rows]
        assert PivotVector.from_columns(pivots, c).bits == res.pivots.bits
        assert rank_bits([pack_row(row) for row in M.rows], c) == res.rank


def _span(rows):
    """Every XOR of a subset of rows: their row space, by definition."""
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return span


def _assert_scalar_kernels_by_definition(rows, ncols):
    # rref_bits's rows are in RREF (pivots increasing, each pivot bit set in
    # its own row alone), lie in the row space and are as many as its
    # dimension, so they span it; 2^rank_bits is the size of the row space
    out, pivots = rref_bits(rows, ncols)
    span = _span(rows)
    assert all(0 < r < 1 << ncols for r in out)
    assert pivots == [ncols - r.bit_length() for r in out] == sorted(set(pivots))
    assert all((r >> (ncols - 1 - p) & 1) == (i == j)
               for i, r in enumerate(out) for j, p in enumerate(pivots))
    assert set(out) <= span and 1 << len(out) == len(span)
    assert 1 << rank_bits(rows, ncols) == len(span)


def test_scalar_kernels_on_every_binary_4x4_matrix():
    for m in range(1 << 16):
        _assert_scalar_kernels_by_definition([m >> s & 15 for s in (12, 8, 4, 0)], 4)


@pytest.mark.parametrize("a, ncols", [(1, 1), (3, 2), (5, 4), (4, 8), (6, 12), (8, 16),
                                      (12, 12), (12, 33), (12, 64)])
def test_scalar_kernels_by_definition_on_seeded_shapes(a, ncols):
    # a rows drawn from the span of r random rows, r up to a: most matrices
    # are rank deficient, with zero, repeated and dependent rows
    rng = random.Random(100 * a + ncols)
    for _ in range(200):
        basis = [rng.getrandbits(ncols) for _ in range(rng.randrange(a + 1))]
        rows = [reduce(xor, (b for b in basis if rng.getrandbits(1)), 0) for _ in range(a)]
        _assert_scalar_kernels_by_definition(rows, ncols)


def _batch_agrees_with_scalar(rows, ncols):
    batch = np.array(rows, dtype=np.uint64).reshape(len(rows), -1)
    got = rank_bits_batch(batch, ncols)
    assert got.shape == (len(rows),)
    assert got.tolist() == [rank_bits(r, ncols) for r in rows]


def test_rank_bits_batch_all_binary_4x4():
    _batch_agrees_with_scalar([list(m) for m in itertools.product(range(16), repeat=4)], 4)


def test_rank_bits_batch_random_batches():
    rng = random.Random(20)
    for a in range(1, 9):
        for ncols in (1, 5, 16, 32):  # uint8, uint16 and uint32 work rows
            rows = []
            for _ in range(300):
                m = [rng.getrandbits(ncols) for _ in range(a)]
                m[rng.randrange(a)] = 0  # a zero row
                src, dst = rng.randrange(a), rng.randrange(a)
                m[dst] = m[src]  # a duplicate row
                rows.append(m)
            _batch_agrees_with_scalar(rows, ncols)


def test_rank_bits_batch_wide_rows():
    # the pivot bit comes from bit operations, not a 2^ncols table: any ncols <= 64
    rng = random.Random(64)
    for ncols in (33, 48, 64):
        for a in (1, 4, 8):
            rows = []
            for _ in range(300):
                m = [rng.getrandbits(ncols) for _ in range(a)]
                m.append(m[0] ^ m[-1])  # a dependent row
                m.append(1 << (ncols - 1))  # the top column alone
                rows.append(m)
            _batch_agrees_with_scalar(rows, ncols)


def test_rank_bits_batch_empty():
    assert rank_bits_batch(np.zeros((0, 4), dtype=np.uint64), 4).shape == (0,)


@pytest.mark.parametrize("ncols", [8, 16, 32, 64])
def test_rank_bits_batch_of_two_operands(ncols):
    # the pair path of the distance checks: the rows of below, a (B, b)
    # array or one (1, b) row block, are written under each matrix of rows
    # straight into the work rows; random stacks with shared rows as well
    rng = np.random.default_rng(ncols)
    top = np.uint64((1 << ncols) - 1)
    for a, b in ((4, 4), (3, 5), (1, 1), (6, 2)):
        rows = rng.integers(0, top, (500, a), dtype=np.uint64, endpoint=True)
        below = rng.integers(0, top, (500, b), dtype=np.uint64, endpoint=True)
        below[::3, 0] = rows[::3, 0]  # a repeated row
        one = below[:1]
        want = [rank_bits(x + y, ncols) for x, y in zip(rows.tolist(), below.tolist())]
        assert rank_bits_batch(rows, ncols, below).tolist() == want
        assert rank_bits_batch(rows, ncols, one).tolist() == \
            [rank_bits(x + one[0].tolist(), ncols) for x in rows.tolist()]
        assert rank_bits_batch(rows, ncols, np.broadcast_to(one, below.shape)).tolist() == \
            rank_bits_batch(rows, ncols, one).tolist()
        for tail in (below[:0], one):  # empty batches
            assert rank_bits_batch(rows[:0], ncols, tail).shape == (0,)


def _rref_batch_agrees_with_scalar(rows, ncols):
    batch = np.array(rows, dtype=np.uint64).reshape(len(rows), -1)
    got, ranks = rref_bits_batch(batch, ncols)
    assert got.shape == batch.shape and ranks.shape == (len(rows),)
    for m, out, r in zip(rows, got.tolist(), ranks.tolist()):
        want = rref_bits(m, ncols)[0]
        assert (out[:r], r) == (want, len(want))
        assert not any(out[r:])  # zero rows last


def test_rref_bits_batch_all_binary_4x4():
    _rref_batch_agrees_with_scalar([list(m) for m in itertools.product(range(16), repeat=4)], 4)


def test_rref_bits_batch_random_batches():
    rng = random.Random(21)

    def batch(a, ncols, size):
        rows = []
        for _ in range(size):
            m = [rng.getrandbits(ncols) for _ in range(a)]
            m[rng.randrange(a)] = 0  # a zero row
            src, dst = rng.randrange(a), rng.randrange(a)
            m[dst] = m[src]  # a duplicate row
            rows.append(m)
        return rows

    for a in range(1, 9):
        for ncols in (1, 5, 12, 16, 64):
            _rref_batch_agrees_with_scalar(batch(a, ncols, 300), ncols)
    # the rank filter's systems: (a - cap) * ncols rows of tb + 1 bits
    for a, ncols in itertools.product((10, 18, 32), (21, 25, 41)):
        _rref_batch_agrees_with_scalar(batch(a, ncols, 60), ncols)
    # batch sizes around the row network and the stream's 4,096
    for size in (1, 2, 4097):
        _rref_batch_agrees_with_scalar(batch(5, 10, size), 10)
    _rref_batch_agrees_with_scalar([[0] * 6] * 50, 12)
    _rref_batch_agrees_with_scalar([[rng.getrandbits(12)] * 6 for _ in range(50)], 12)


def test_rref_bits_batch_empty():
    got, ranks = rref_bits_batch(np.zeros((0, 4), dtype=np.uint64), 4)
    assert got.shape == (0, 4) and ranks.shape == (0,)


def _in_rref_pairwise(word):
    """A word's RREF test, pair by pair: the last row nonzero, each row
    below the previous row's leading bit, and no row holding the leading
    bit of a row below it."""
    lead = [1 << (r.bit_length() - 1) if r else 0 for r in word]
    if word and not word[-1]:
        return False
    return all(word[j] < lead[j - 1] and all(not word[i] & lead[j] for i in range(j))
               for j in range(1, len(word)))


@pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (6, 3), (12, 4), (12, 6), (33, 5), (64, 4)])
def test_in_rref_is_the_pairwise_rule(n, k):
    # seeded RREF words, each also with one bit flipped, random words, and
    # the edge cases: a zero last row, two equal leading bits, a bit above
    # another row's pivot, and a free bit above one (still RREF)
    rng = random.Random(n * 100 + k)
    words = [[rng.getrandbits(n) for _ in range(k)] for _ in range(300)]
    reduced, ranks = rref_bits_batch(np.array(words, dtype=np.uint64), n)
    words += [w for w, r in zip(reduced.tolist(), ranks) if r == k]
    words += [[r ^ (1 << rng.randrange(n)) * (j == at) for j, r in enumerate(w)]
              for w in words[300:] for at in [rng.randrange(k)]]
    pivots = [1 << (n - 1 - j) for j in range(k)]  # the RREF word [I_k | 0]
    edges = [pivots, pivots[:-1] + [0], pivots[:-1] + [pivots[-1] | 1]]
    if k > 1:
        edges += [[pivots[0], pivots[0] >> 1 | pivots[0]] + pivots[2:],  # equal leading bits
                  [pivots[0] | pivots[1]] + pivots[1:]]  # row 0 holds row 1's pivot
    if n > k:
        edges += [[pivots[0] | 1] + pivots[1:]]  # a free column: RREF
    words += edges
    rows = np.array(words, dtype=np.min_scalar_type((1 << n) - 1)).T
    got = in_rref(np.ascontiguousarray(rows), n)
    assert got.tolist() == [_in_rref_pairwise(w) for w in words]
    assert [_in_rref_pairwise(w) for w in edges[:3]] == [True, False, True]
    assert 0 < got.sum() < len(words)


@pytest.mark.parametrize("ncols", [8, 9, 16, 17, 32, 33, 64])
def test_batch_kernels_at_dtype_boundaries(ncols):
    # the work dtype narrows to uint8/16/32/64 with ncols; arrays in any
    # layout, and nested lists, give the scalar kernels' answers
    rng = random.Random(ncols)
    a = 5
    mats = []
    for _ in range(200):
        m = [rng.getrandbits(ncols) for _ in range(a)]
        m[rng.randrange(a)] |= 1 << (ncols - 1)  # the top column
        m[rng.randrange(2, a)] = m[0] ^ m[1]  # a dependent row
        mats.append(m)
    c_order = np.array(mats, dtype=np.uint64)
    inputs = {"C-ordered": c_order,
              "transposed view": np.array(mats, dtype=np.uint64).T.copy().T,
              "sliced view": np.repeat(c_order, 2, axis=0)[::2],
              "list": mats}
    ranks = [rank_bits(m, ncols) for m in mats]
    rrefs = [rref_bits(m, ncols)[0] for m in mats]
    for name, batch in inputs.items():
        assert rank_bits_batch(batch, ncols).tolist() == ranks, name
        got, got_ranks = rref_bits_batch(batch, ncols)
        assert got.dtype == np.uint64 and got.shape == (len(mats), a), name
        assert got_ranks.tolist() == ranks, name
        assert [row[:r] for row, r in zip(got.tolist(), ranks)] == rrefs, name
        assert not any(any(row[r:]) for row, r in zip(got.tolist(), ranks)), name


@pytest.mark.parametrize("ncols", [13, 21, 33, 64])
@pytest.mark.parametrize("batch", [1, 155])
def test_batch_kernels_on_tall_systems(ncols, batch):
    # the rank-filter solve eliminates (a - cap) * ncols rows of tb + 1 bits
    # at once, taller than any word: 9 to 40 rows, with zero, duplicate and
    # dependent rows, agree with the scalar kernels
    rng = random.Random(1000 * ncols + batch)
    for a in (9, 10, 15, 24, 40):
        mats = []
        for _ in range(batch):
            m = [rng.getrandbits(ncols) for _ in range(a)]
            m[rng.randrange(a)] = 0  # a zero row
            m[rng.randrange(a)] = m[rng.randrange(a)]  # a duplicate row
            i, j, k = rng.sample(range(a), 3)
            m[k] = m[i] ^ m[j]  # a dependent row
            mats.append(m)
        _batch_agrees_with_scalar(mats, ncols)
        _rref_batch_agrees_with_scalar(mats, ncols)


def test_spans_read_row_j_at_bit_k_minus_1_minus_j():
    # vector m XORs row j when bit k - 1 - j of m is set, so the identity
    # word's vector m is m itself; the second word was summed by hand
    vecs = spans(np.array([[0b100, 0b010, 0b001], [0b110, 0b011, 0b111]], np.uint64))
    assert vecs.dtype == np.uint64 and vecs.shape == (8, 2)
    assert vecs[:, 0].tolist() == list(range(8))
    assert vecs[:, 1].tolist() == [0b000, 0b111, 0b011, 0b100, 0b110, 0b001, 0b101, 0b010]


@pytest.mark.parametrize("k", [4, 5])
def test_spans_at_packed_rref_matrices_are_rref_rows(k):
    # for RREF words G and every s x k RREF matrix C, row r of
    # spans(G)[subspace_bases(k, s)] is row r of RREF(C G): the subspace
    # keys of the exact check and the rank filter's systems rest on it
    n, rng = 9, np.random.default_rng(k)
    words, ranks = rref_bits_batch(rng.integers(0, 1 << n, (60, k), dtype=np.uint64), n)
    words = words[ranks == k]
    vecs = spans(words)
    for s in range(1, k + 1):
        for C in subspace_bases(k, s).tolist():
            got = vecs[C].T.tolist()  # (words, s)
            for G, rows in zip(words.tolist(), got):
                product = [reduce(xor, (G[j] for j in range(k) if c >> (k - 1 - j) & 1), 0)
                           for c in C]
                assert rows == rref_bits(product, n)[0]


def test_pack_unpack_roundtrip():
    # entry j of a row sits in bits [w(n - 1 - j), w(n - j)), w = (q - 1).bit_length(),
    # up to 2^62, the largest supported order
    rng = random.Random(2)
    for q in (2, 3, 4, 5, 1 << 62):
        w = entry_bits(q)
        assert w == (q - 1).bit_length() and (q > 2 or w == 1)
        field = SimpleNamespace(q=q)  # the packers read the order alone; GF(2^62) takes seconds
        for _ in range(200):
            n = rng.randrange(1, 20)
            row = [rng.randrange(q) for _ in range(n)]
            x = pack_row(row, w)
            assert list(unpack_row(x, n, w)) == row and x < 1 << (w * n)
            assert all(x >> (w * (n - 1 - j)) & ((1 << w) - 1) == v for j, v in enumerate(row))
            assert pack_rows(field, [row, row[::-1]]) == (x, pack_row(row[::-1], w))
            assert unpack_rows(field, (x,), n) == (tuple(row),)


def test_matmul_inverse_identity():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(30):
            r = rng.randrange(1, 5)
            T = _random_invertible(rng, field, r)
            assert matmul(T, inverse(T)).rows == \
                tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def test_gaussian_binomial_recurrence_and_values():
    # [n k]_q = q^k [n-1 k]_q + [n-1 k-1]_q
    for q in (2, 3, 4, 5):
        for n in range(2, 9):
            for k in range(1, n):
                lhs = gaussian_binomial(n, k, q)
                rhs = (q ** k) * gaussian_binomial(n - 1, k, q) \
                    + gaussian_binomial(n - 1, k - 1, q)
                assert lhs == rhs
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 2, 3) == 130
    # symmetry
    for q in (2, 3):
        for n in range(9):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_gaussian_binomial_edges():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 2) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 2)
