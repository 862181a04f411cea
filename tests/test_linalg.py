"""Linear algebra over small fields: RREF canonicity under 1000 seeded
trials, bit-packed kernels vs the generic path, Gaussian binomials."""

import itertools
import random

import numpy as np
import pytest

from cdckit.gf import field_new
from cdckit.linalg import (MatrixGF, PivotVector, gaussian_binomial, hstack,
                           inverse, matmul, pack_row, rank, rank_bits,
                           rank_bits_batch, rank_rows, rref, rref_bits, rref_bits_batch,
                           unpack_row, vstack)

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
        for ncols in (1, 5, 16):
            rows = []
            for _ in range(300):
                m = [rng.getrandbits(ncols) for _ in range(a)]
                m[rng.randrange(a)] = 0  # a zero row
                src, dst = rng.randrange(a), rng.randrange(a)
                m[dst] = m[src]  # a duplicate row
                rows.append(m)
            _batch_agrees_with_scalar(rows, ncols)


def test_rank_bits_batch_empty():
    assert rank_bits_batch(np.zeros((0, 4), dtype=np.uint64), 4).shape == (0,)


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
    for a in range(1, 9):
        for ncols in (1, 5, 12, 16, 64):
            rows = []
            for _ in range(300):
                m = [rng.getrandbits(ncols) for _ in range(a)]
                m[rng.randrange(a)] = 0  # a zero row
                src, dst = rng.randrange(a), rng.randrange(a)
                m[dst] = m[src]  # a duplicate row
                rows.append(m)
            _rref_batch_agrees_with_scalar(rows, ncols)


def test_rref_bits_batch_empty():
    got, ranks = rref_bits_batch(np.zeros((0, 4), dtype=np.uint64), 4)
    assert got.shape == (0, 4) and ranks.shape == (0,)


def test_pack_unpack_roundtrip():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(1, 20)
        row = [rng.randrange(2) for _ in range(n)]
        assert list(unpack_row(pack_row(row), n)) == row


def test_matmul_inverse_identity():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(30):
            r = rng.randrange(1, 5)
            T = _random_invertible(rng, field, r)
            assert matmul(T, inverse(T)).rows == MatrixGF.identity(field, r).rows


def test_stacking_shapes():
    f = field_new(2, 1)
    A = MatrixGF(f, [[1, 0], [0, 1]])
    B = MatrixGF(f, [[1, 1], [0, 0]])
    assert hstack(A, B).ncols == 4
    assert vstack(A, B).nrows == 4
    assert rank(vstack(A, B)) == 2


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
