"""Subspace values and the subspace metric: axioms on seeded triples,
exhaustive duality at (2,4,2), the lifted-block verdict's pivot lower
bound, and the row tuple that every Subspace path reads without a
MatrixGF."""

import random

import numpy as np
import pytest

from cdckit.cdc import spread
from cdckit.codefile import dumps, loads
from cdckit.constructions import recipe_8_4_4
from cdckit.gf import field_new
from cdckit.linalg import MatrixGF
from cdckit.subspace import (EmptySubspaceError, Subspace, distance,
                             intersection_dim, orthogonal_complement, span)
from cdckit.verify import _cross_bounds, enumerate_subspaces

F2 = field_new(2, 1)
F3 = field_new(3, 1)


def _random_subspace(rng, field, n, kmax):
    while True:
        r = rng.randrange(1, kmax + 1)
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(r)]
        try:
            return Subspace.from_rows(field, rows, n)
        except EmptySubspaceError:
            continue


def test_metric_axioms_seeded_triples():
    rng = random.Random(0)
    for field, n in ((F2, 6), (F3, 4)):
        for _ in range(300):
            U = _random_subspace(rng, field, n, n - 1)
            V = _random_subspace(rng, field, n, n - 1)
            W = _random_subspace(rng, field, n, n - 1)
            assert distance(U, U) == 0
            assert distance(U, V) == distance(V, U)
            assert distance(U, V) >= 0
            assert (distance(U, V) == 0) == (U == V)
            assert distance(U, W) <= distance(U, V) + distance(V, W)
            # dim(U+V) + dim(U∩V) = dim U + dim V
            assert span(U, V).k + intersection_dim(U, V) == U.k + V.k
            # equal dimensions give even distance
            if U.k == V.k:
                assert distance(U, V) % 2 == 0


def test_cross_bound_never_exceeds_distance():
    # the lifted-block verdict's bound on packed words: a k-subspace W with
    # j pivots in the first k columns is at least 2 (k - j) from every
    # [I_k | M], and the bound is the Hamming distance of pivot vectors
    rng = random.Random(1)
    for _ in range(500):
        k = rng.randrange(1, 7)
        U = Subspace.from_rows(F2, [[int(i == j) for j in range(k)]
                                    + [rng.randrange(2) for _ in range(7 - k)]
                                    for i in range(k)], 7)
        while (W := _random_subspace(rng, F2, 7, k)).k != k:
            pass
        bound = _cross_bounds(np.array([W.packed_rows()], np.uint64), 7, k)[0]
        assert bound == sum(a != b for a, b in zip(U.pivots.bits, W.pivots.bits))
        assert bound <= distance(U, W)


def test_duality_preserves_distance_exhaustive_2_4_2():
    subs = list(enumerate_subspaces(2, 4, 2))
    assert len(subs) == 35
    duals = [orthogonal_complement(U) for U in subs]
    assert all(D.k == 2 for D in duals)
    assert len(set(D.rows for D in duals)) == 35
    for i in range(35):
        for j in range(i + 1, 35):
            assert distance(subs[i], subs[j]) == distance(duals[i], duals[j])


def test_complement_is_involutive_and_orthogonal():
    rng = random.Random(2)
    for field, n in ((F2, 6), (F3, 4)):
        for _ in range(100):
            U = _random_subspace(rng, field, n, n - 1)
            D = orthogonal_complement(U)
            assert D.k == n - U.k
            assert orthogonal_complement(D) == U
            for u in U.rows:
                for d in D.rows:
                    dot = 0
                    for a, b in zip(u, d):
                        dot = field.add(dot, field.mul(a, b))
                    assert dot == 0


def test_canonical_rref_identity():
    # two generator matrices with the same row space give equal subspaces
    rng = random.Random(3)
    for _ in range(200):
        U = _random_subspace(rng, F3, 5, 3)
        perm = list(range(U.k))
        rng.shuffle(perm)
        mixed = [U.rows[p] for p in perm]
        scaled = [[F3.mul(2, v) for v in row] for row in mixed]
        assert Subspace.from_rows(F3, scaled, 5) == U


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 11])
def test_serialize_parse_roundtrip(q):
    field = field_new(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3),
                        9: (3, 2), 11: (11, 1)}[q])
    rng = random.Random(q)
    for _ in range(50):
        U = _random_subspace(rng, field, 5, 3)
        assert Subspace.parse(field, 5, U.serialize()) == U


def test_zero_matrix_rejected():
    with pytest.raises(EmptySubspaceError):
        Subspace.from_rows(F2, [[0, 0, 0]], 3)


def test_subspace_paths_build_no_matrix(monkeypatch):
    # a Subspace is its canonical row tuple: listing, reading a q > 2 file,
    # random access, words(), pivots and duals build no MatrixGF
    U = Subspace.from_rows(F3, [(1, 2, 0, 1, 0), (0, 0, 1, 2, 2)], 5)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a MatrixGF was built")

    monkeypatch.setattr(MatrixGF, "__init__", refuse)
    assert sum(1 for _ in enumerate_subspaces(2, 6, 3)) == 1395
    sp = spread(3, 4, 2)
    assert set(loads(dumps(sp)).words()) == set(sp.words())
    code = recipe_8_4_4(2)[0]
    words = code.words()
    assert [code.at(i) for i in (0, 1234, code.size - 1)] == \
        [words[0], words[1234], words[-1]]
    assert U.pivots.bits == (1, 0, 1, 0, 0)
    D = orthogonal_complement(U)
    assert D.k == 3 and all(sum(a * b for a, b in zip(u, d)) % 3 == 0
                            for u in U.rows for d in D.rows)
    monkeypatch.undo()
    # gen is the matrix view of the same rows, for linalg's algebra API
    assert isinstance(U.gen, MatrixGF) and U.gen.rows == U.rows
