"""Field arithmetic: exhaustive axiom checks for every prime power up
to 16, plus extension-field structure."""

import random
import time

import pytest

from cdckit.gf import (FieldError, FieldSpec, _digits,
                       _is_irreducible, _poly_mod, ext_field, field_new, is_prime)

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def _spec(q):
    p = q
    e = 1
    for cand in (2, 3, 5, 7, 11, 13):
        k = 0
        n = q
        while n % cand == 0:
            n //= cand
            k += 1
        if n == 1:
            p, e = cand, k
            break
    return field_new(p, e)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    f = _spec(q)
    els = list(f.elements())
    assert len(els) == q
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_pow_matches_repeated_mul(q):
    f = _spec(q)
    for a in f.elements():
        acc = 1
        for n in range(5):
            assert f.pow(a, n) == acc
            acc = f.mul(acc, a)
    # multiplicative group has order q - 1
    for a in f.elements():
        if a:
            assert f.pow(a, q - 1) == 1


def test_gf_3_8_builds_fast_and_satisfies_axioms():
    # odd characteristic must not cost a q x q addition table (6561^2 here)
    start = time.monotonic()
    f = FieldSpec(3, 8)
    assert time.monotonic() - start < 5
    assert f.q == 6561
    rng = random.Random(38)
    for _ in range(200):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0 and f.sub(f.add(a, b), b) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(2, 25):
        assert is_prime(n) == (n in primes)


def _is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _is_prime_trial(n) for n in range(10 ** 5))
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    # Carmichael numbers, and the smallest strong pseudoprime to the prime bases 2..23
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 3825123056546413051):
        assert not is_prime(n)


def _is_irreducible_trial(m, f):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for idx in range(f.q ** d):
            if len(_poly_mod(m, _digits(idx, f.q, d) + (1,), f)) == 0:
                return False
    return True


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 5)])
def test_irreducibility_agrees_with_trial_division(p, max_deg):
    f = field_new(p, 1)
    for deg in range(max_deg + 1):
        for idx in range(p ** deg):
            m = _digits(idx, p, deg) + (1,)
            assert _is_irreducible(m, f) == _is_irreducible_trial(m, f), m


def test_bad_field_rejected():
    with pytest.raises(FieldError):
        field_new(4, 1)  # p must be prime
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 is reducible over GF(2)


def test_ext_field_structure():
    base = field_new(2, 2)  # GF(4)
    ext = ext_field(base, 3)  # GF(64) over GF(4)
    assert ext.order == 64
    els = list(range(ext.order))
    for a in els[:16]:
        for b in els[:16]:
            assert ext.add(a, b) == ext.add(b, a)
            assert ext.mul(a, b) == ext.mul(b, a)
        if a:
            assert ext.mul(a, ext.inv(a)) == 1
    # the Frobenius x -> x^|base| is additive
    for a in els[:32]:
        for b in els[:32]:
            assert ext.pow(ext.add(a, b), 4) == ext.add(ext.pow(a, 4), ext.pow(b, 4))
    # vector coordinates round-trip
    for a in els[:40]:
        assert ext.vector_to_element(ext.element_to_vector(a)) == a


@pytest.mark.parametrize("p, e, degree", [(2, 2, 3), (3, 2, 2), (2, 3, 3), (2, 1, 16)])
def test_table_walk_agrees_with_the_generic_product(p, e, degree):
    # extensions of GF(p^e), e > 1, and GF(2^16): every table step, or 2,000
    # of them, is one generic product by g, and the walk meets every unit once
    f = ext_field(field_new(p, e), degree)
    units, g = f.order - 1, f._antilog[1]
    assert sorted(f._antilog[:units]) == list(range(1, f.order))
    assert f._antilog[units:] == f._antilog[:units]
    assert all(f._log[x] == i for i, x in enumerate(f._antilog[:units]))
    steps = range(units) if units <= 2000 else random.Random(degree).sample(range(units), 2000)
    assert all(f._antilog[i + 1] == f._mul_generic(f._antilog[i], g) for i in steps)


def _orders_up_to(limit):
    for q in range(2, limit + 1):
        p = next(r for r in range(2, q + 1) if q % r == 0)
        e = 0
        while q % p ** (e + 1) == 0:
            e += 1
        if p ** e == q:
            yield p, e


def test_primitive_element_is_the_smallest_of_full_order():
    # a brute-force order search: walk the powers of each candidate until
    # they return to 1; the first of order q - 1 generates the tables
    for p, e in _orders_up_to(1 << 12):
        f = field_new(p, e)
        target = f.order - 1
        for g in range(1, f.order):
            powers = [1]
            while (x := f._mul_generic(powers[-1], g)) != 1:
                powers.append(x)
            if len(powers) == target:
                break
        assert f._antilog == powers + powers, (p, e)
        assert all(f._log[x] == i for i, x in enumerate(powers)), (p, e)
