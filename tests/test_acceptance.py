"""Acceptance suite: one top-level check per headline guarantee, each
printing a PASS/FAIL line (run with -s to see them inline)."""

import time

import numpy as np
import pytest

from cdckit.bounds import bound_table, exact_registry
from cdckit.cdc import (Cdc, lifted_mrd, parallelism_2_of_F_q4,
                        partial_spread_subcode, spread)
from cdckit.constructions import (CompositionProfile, DistancePartition,
                                  NdkSequence, SeqEntry, _indices_in, _single_full,
                                  cor1_bound, coset_addon, duplication,
                                  multiblock_linkage, recipe_12_4_4_thm,
                                  recipe_12_6_6, recipe_12_8_6, recipe_8_4_4,
                                  size_12_4_4_thm, size_12_6_6, size_12_8_6,
                                  xi_extension)
from cdckit.bounds import lower_bound_registry
from cdckit.gf import field_new
from cdckit.linalg import rank_bits
from cdckit.rankmetric import gabidulin_mrd, rank_distribution
from cdckit.subspace import Subspace
from cdckit.verify import coverage_check, full_pairwise_check, sampled_check

F2 = field_new(2, 1)


def _report(num, label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} ({elapsed:7.1f}s): {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_rank_distribution_oracle():
    start = time.monotonic()
    h = gabidulin_mrd(2, 3, 3, 2)
    hist = {}
    for i in range(h.size):
        r = h.rank_of(i)
        hist[r] = hist.get(r, 0) + 1
    ok = (h.size == 64 and hist == {0: 1, 2: 49, 3: 14}
          and all(hist.get(r, 0) == rank_distribution(2, 3, 3, 2, r)
                  for r in range(4)))
    elapsed = time.monotonic() - start
    _report(1, "3x3 MRD rank histogram {0:1, 2:49, 3:14}", ok and elapsed < 1,
            elapsed)


def test_criterion_02_linkage_spread_instance():
    start = time.monotonic()
    profile = CompositionProfile(2, 2, 4, (4, 4))
    C = [spread(2, 4, 2), spread(2, 4, 2)]
    M = [gabidulin_mrd(2, 2, 4, 2), gabidulin_mrd(2, 2, 4, 2)]
    c = multiblock_linkage(profile, C, M)
    cov = coverage_check(c)
    elapsed = time.monotonic() - start
    _report(2, "85-line linkage spread of F_2^8 covers 255 vectors once",
            c.size == 85 and cov["ok"] and elapsed < 1, elapsed)


def test_criterion_03_recipe_8_4_4_full_check():
    start = time.monotonic()
    c, expected = recipe_8_4_4(2)
    rep = full_pairwise_check(c, cap=5000)
    elapsed = time.monotonic() - start
    ok = (expected == 4797 and c.size == 4797 and rep.ok
          and rep.min_distance_found == 4 and rep.pairs_checked == 4797 * 4796 // 2
          and elapsed < 120)
    _report(3, "(8,4;4) code: 4797 words, exact min distance 4", ok, elapsed)


def test_criterion_04_parallelisms():
    start = time.monotonic()
    p2 = parallelism_2_of_F_q4(2)
    p3 = parallelism_2_of_F_q4(3)
    ok = (len(p2) == 7 and all(len(m) == 5 for m in p2)
          and coverage_check(p2)["ok"]
          and len(p3) == 13 and all(len(m) == 10 for m in p3)
          and coverage_check(p3)["ok"])
    elapsed = time.monotonic() - start
    _report(4, "parallelisms: 7x5 over GF(2), 13x10 over GF(3)",
            ok and elapsed < 30, elapsed)


def test_criterion_05_formula_fidelity():
    start = time.monotonic()
    ok = (cor1_bound(2, 4, 4, (4, 4, 4), (1, 1, 1)) == 19208388
          and cor1_bound(2, 4, 4, (8, 4), (4801, 1)) == 19673822
          and 19676797 in [b.value for b in lower_bound_registry(2, 12, 4, 4)])
    elapsed = time.monotonic() - start
    _report(5, "linkage cardinality formulas and lower-bound registry", ok,
            elapsed)


def test_criterion_06_stream_count_12_4_4():
    start = time.monotonic()
    c, expected = recipe_12_4_4_thm(2)
    assert expected == size_12_4_4_thm(2) == 19660413
    count = sum(1 for _ in c.iter_packed())
    rep = sampled_check(c, 10 ** 6, seed=42)
    elapsed = time.monotonic() - start
    ok = count == 19660413 and rep.ok and elapsed < 900
    _report(6, "(12,4;4) duplication streams 19,660,413 words, sample clean",
            ok, elapsed)


def test_criterion_07_stream_count_12_6_6():
    start = time.monotonic()
    c, expected = recipe_12_6_6(2)
    assert expected == size_12_6_6(2) == 16865629
    profile = CompositionProfile(2, 6, 6, (6, 6), (3, 3), (1, 2))
    xi = xi_extension(profile, coset_addon(profile))
    xi_words = set(tuple(w.packed_rows()) for w in xi)
    assert len(xi_words) == 16
    count = 0
    xi_seen = 0
    for rows in c.iter_packed():
        count += 1
        if tuple(rows) in xi_words:
            xi_seen += 1
    rep = sampled_check(c, 10 ** 6, seed=0)
    elapsed = time.monotonic() - start
    ok = count == 16865629 and xi_seen == 16 and rep.ok and elapsed < 900
    _report(7, "(12,6;6) streams 16,865,629 words incl. 16 hole extensions",
            ok, elapsed)


def test_criterion_08_duplication_end_to_end():
    start = time.monotonic()
    lm = lifted_mrd(2, 6, 3, 4)
    c0 = _indices_in(lm, partial_spread_subcode(lm, "lmrd_nested"))
    part = DistancePartition(lm, [c0, np.setdiff1d(np.arange(lm.size), c0)])
    unit = Subspace(F2, 6, [tuple(1 if c == j else 0 for c in range(6))
                            for j in range(3)])
    hole = Subspace(F2, 6, [tuple(1 if c == 3 + j else 0 for c in range(6))
                            for j in range(3)])
    entry = SeqEntry(lm, unit, hole)
    seq = NdkSequence([entry, entry])
    c = duplication(part, seq, _single_full(2, 3))
    rep = full_pairwise_check(c, cap=5000)
    elapsed = time.monotonic() - start
    ok = (c.size == 4097 and rep.ok and rep.min_distance_found >= 4
          and elapsed < 60)
    _report(8, "(9,4;3) duplication: 4097 words, exhaustive min distance >= 4",
            ok, elapsed)


def test_criterion_09_pairing_12_8_6():
    start = time.monotonic()
    c, expected = recipe_12_8_6(2)
    assert expected == size_12_8_6(2) == 262165
    count = sum(1 for _ in c.iter_packed())
    rep = sampled_check(c, 10 ** 6, seed=0)
    # the direct-sum words sit at the end of the stream
    sums = [c.packed_at(i) for i in range(c.size - 21, c.size)]
    import random
    rng = random.Random(0)
    lifted_idx = rng.sample(range(c.size - 21), 10 ** 4)
    worst = 16
    for s in sums:
        for i in lifted_idx:
            rows = c.packed_at(i)
            d = 2 * rank_bits(list(s) + list(rows), 12) - 12
            if d < worst:
                worst = d
    elapsed = time.monotonic() - start
    ok = (count == 262165 and rep.ok and rep.min_distance_found >= 8
          and worst >= 8 and elapsed < 300)
    _report(9, "(12,8;6) pairing: 262,165 words, cross checks at distance >= 8",
            ok, elapsed)


def test_criterion_10_bounds_table():
    start = time.monotonic()
    rows = dict(bound_table(2, 6, 4, 3))
    exact = rows["exact"].value
    johnson = rows["johnson"].value
    singleton = rows["singleton"].value
    ok = (exact, johnson, singleton) == (77, 81, 93) \
        and exact <= johnson <= singleton
    elapsed = time.monotonic() - start
    _report(10, "(2,6,4,3) table: exact 77 <= Johnson 81 <= Singleton 93", ok,
            elapsed)


def test_criterion_11_property_suites():
    # condensed re-run of the per-module property suites with a shared
    # runtime budget
    import random

    from cdckit.linalg import MatrixGF, gaussian_binomial, matmul, rref
    from cdckit.subspace import distance, orthogonal_complement
    from cdckit.verify import enumerate_subspaces
    from test_gf import PRIME_POWERS, _spec
    from test_linalg import _random_invertible, _random_matrix
    from test_subspace import _random_subspace

    start = time.monotonic()
    ok = True
    # field axioms, exhaustive for every prime power <= 16
    for q in PRIME_POWERS:
        f = _spec(q)
        els = list(f.elements())
        for a in els:
            for b in els:
                ok &= f.add(a, b) == f.add(b, a)
                ok &= f.mul(a, b) == f.mul(b, a)
                for c in els:
                    ok &= f.mul(a, f.add(b, c)) == f.add(f.mul(a, b),
                                                         f.mul(a, c))
    # RREF idempotence/invariance, 1000 seeded trials
    rng = random.Random(0)
    fields = [field_new(2, 1), field_new(3, 1), field_new(2, 2)]
    for _ in range(1000):
        f = rng.choice(fields)
        M = _random_matrix(rng, f, rng.randrange(1, 5), rng.randrange(1, 7))
        res = rref(M)
        ok &= rref(res.matrix).matrix.rows == res.matrix.rows
        T = _random_invertible(rng, f, M.nrows)
        ok &= rref(matmul(T, M)).matrix.rows == res.matrix.rows
    # metric axioms on seeded triples
    for _ in range(200):
        U = _random_subspace(rng, F2, 6, 5)
        V = _random_subspace(rng, F2, 6, 5)
        W = _random_subspace(rng, F2, 6, 5)
        ok &= distance(U, V) == distance(V, U)
        ok &= distance(U, W) <= distance(U, V) + distance(V, W)
        ok &= (distance(U, V) == 0) == (U == V)
    # duality preserves distance, exhaustive at (2,4,2)
    subs = list(enumerate_subspaces(2, 4, 2))
    duals = [orthogonal_complement(U) for U in subs]
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            ok &= distance(subs[i], subs[j]) == distance(duals[i], duals[j])
    # enumeration agrees with the Gaussian binomial
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(min(n, 3) + 1):
                ok &= sum(1 for _ in enumerate_subspaces(q, n, k)) \
                    == gaussian_binomial(n, k, q)
    elapsed = time.monotonic() - start
    _report(11, "field/RREF/metric/duality/enumeration property suites",
            bool(ok) and elapsed < 300, elapsed)
