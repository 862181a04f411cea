"""Upper/lower bound machinery: reference values, recursion structure,
registry contents, and ordering invariants."""

import pytest

from cdckit.bounds import (BoundError, BoundResult, bound_table, exact_registry,
                           johnson_upper, lower_bound_registry,
                           singleton_like_upper)


def test_singleton_like_values():
    assert singleton_like_upper(2, 6, 4, 3).value == 93
    assert singleton_like_upper(2, 8, 6, 4).value == 308
    assert singleton_like_upper(2, 7, 4, 3).value == 381
    # dualization: k > n/2 is folded down first
    assert singleton_like_upper(2, 6, 4, 4).value == singleton_like_upper(2, 6, 4, 2).value


def test_singleton_rejects_bad_distance():
    with pytest.raises(BoundError):
        singleton_like_upper(2, 6, 3, 3)
    with pytest.raises(BoundError):
        singleton_like_upper(2, 8, 6, 2)


def test_johnson_values():
    assert johnson_upper(2, 6, 4, 3).value == 81
    assert johnson_upper(2, 7, 4, 3).value == 381
    assert johnson_upper(2, 8, 6, 4).value == 289
    assert johnson_upper(2, 12, 4, 4).value >= 19676797


def test_exact_registry():
    assert exact_registry(2, 6, 4, 3).value == 77
    assert exact_registry(2, 8, 6, 4).value == 257
    assert exact_registry(2, 8, 8, 4).value == 17       # 4-spread of F_2^8
    assert exact_registry(2, 5, 4, 2).value == 9        # q^3 + 1
    assert exact_registry(2, 7, 6, 3).value == 17       # q^4 + 1
    assert exact_registry(3, 4, 4, 2).value == 10       # q^2 + 1
    assert exact_registry(2, 9, 4, 3) is None
    for q in (2, 3):
        assert exact_registry(q, 5, 4, 2).value == q ** 3 + 1
        assert exact_registry(q, 4, 4, 2).value == q ** 2 + 1


def test_derivation_chains_nonempty():
    b = johnson_upper(2, 8, 6, 4)
    assert b.kind == "upper" and len(b.derivation) >= 2
    with pytest.raises(BoundError):
        BoundResult(1, "upper", ())


def test_weak_marking():
    # (2,9,6;4) bottoms out at (8,6;3), a partial-spread base with no exact value
    weak = johnson_upper(2, 9, 6, 4)
    assert weak.weak and weak.derivation[-1].startswith("weak base") \
        and weak.derivation[-1].endswith("= 36")
    strong = johnson_upper(2, 6, 4, 3)
    assert not strong.weak


def test_lower_registry_contents():
    vals = [b.value for b in lower_bound_registry(2, 12, 4, 4)]
    assert 19673822 in vals and 19676797 in vals and 19660413 in vals
    assert [b.value for b in lower_bound_registry(3, 8, 4, 4)] == [543142]
    assert [b.value for b in lower_bound_registry(2, 9, 4, 3)] == [5013]
    assert vals == sorted(vals)
    for b in lower_bound_registry(2, 12, 4, 4):
        assert b.kind == "lower" and b.derivation


def test_bound_table_ordering_2_6_4_3():
    rows = dict((name, b) for name, b in bound_table(2, 6, 4, 3))
    assert rows["exact"].value == 77
    assert rows["johnson"].value == 81
    assert rows["singleton"].value == 93
    assert rows["exact"].value <= rows["johnson"].value <= rows["singleton"].value


def test_invariants_on_grid():
    for q in (2, 3):
        for n in range(4, 13):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    j = johnson_upper(q, n, d, k).value
                    s = singleton_like_upper(q, n, d, k).value
                    assert j <= s
                    rows = bound_table(q, n, d, k)  # raises if lower > upper
                    uppers = [b.value for _, b in rows if b.kind == "upper"]
                    lowers = [b.value for _, b in rows
                              if b.kind in ("lower", "exact")]
                    if uppers and lowers:
                        assert max(lowers) <= min(uppers)
