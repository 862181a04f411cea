"""Exact arithmetic in finite fields, all of them one class, FieldSpec:
GF(r^degree) over a base field of order r.  The prime field GF(p) is the
instance with no base, GF(p^e) extends GF(p), and ext_field(base, M) is
GF(q^M) over any field of order q: field_new(p, M) itself over a prime base,
a tower otherwise.

Elements are plain integers whose base-r digits are their coordinates over
the base, constant term least significant.  Each level is coded the same
way, so the base-p digits are the coordinates over GF(p), and addition is
digit-wise mod p (an XOR at p = 2) at every level.  Multiplication uses
log/antilog tables up to order 2^16, and polynomials over the base above.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

_TABLE_LIMIT = 1 << 16  # build log/antilog tables up to this field order
_ORDER_LIMIT = 1 << 62  # q must fit a machine word


class FieldError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24,
    which covers every order up to _ORDER_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# polynomials over a base field f: coefficient tuples, constant first

def _digits(x: int, base: int, width: int):
    out = []
    for _ in range(width):
        x, r = divmod(x, base)
        out.append(r)
    return tuple(out)


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b, f):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return _poly_trim(tuple(out))


def _poly_mod(a, m, f):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j in range(dm + 1):
                a[shift + j] = f.sub(a[shift + j], f.mul(c, m[j]))
        a.pop()
    return _poly_trim(tuple(a))


def _poly_powmod(a, e, m, f):
    out = (1,)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, f), m, f)
        a = _poly_mod(_poly_mul(a, a, f), m, f)
        e >>= 1
    return out


def _coprime(a, m, f) -> bool:
    """gcd(a, m) = 1, by Euclid on monic divisors."""
    while a:
        scale = f.inv(a[-1])
        a, m = _poly_mod(m, tuple(f.mul(scale, c) for c in a), f), a
    return len(m) == 1


def _is_irreducible(m, f) -> bool:
    """Rabin's test over the base field of order q: monic m of degree e is
    irreducible iff x^(q^e) = x mod m and gcd(x^(q^(e/r)) - x, m) = 1 for
    every prime r dividing e."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if m[0] == 0:  # divisible by x
        return False
    x = (0, 1)
    frob = [x]  # frob[j] = x^(q^j) mod m
    for _ in range(deg):
        frob.append(_poly_powmod(frob[-1], f.q, m, f))
    if frob[deg] != x:
        return False
    for r in range(2, deg + 1):
        if deg % r == 0 and all(r % s for s in range(2, r)):
            h = list(frob[deg // r]) + [0, 0]
            h[1] = f.sub(h[1], 1)  # x^(q^(e/r)) - x
            if not _coprime(_poly_trim(tuple(h)), m, f):
                return False
    return True


def _smallest_irreducible(f, degree: int):
    """Smallest monic irreducible of degree > 1, candidates ordered by the
    integer whose base-q digits are c_0, ..., c_{degree-1} (c_0 least)."""
    for idx in range(f.q ** degree):
        cand = _digits(idx, f.q, degree) + (1,)
        if _is_irreducible(cand, f):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {degree} over GF({f.q})")


class FieldSpec:
    """GF(r^degree) over a base field of order r, by a monic irreducible
    modulus of that degree: FieldSpec(p, e) is GF(p^e) over GF(p) (GF(p)
    itself, with no base, at e = 1), FieldSpec(base, M) is GF(base.q^M).

    The basis is the power basis 1, alpha, ..., alpha^(degree-1) of a root
    alpha of the modulus; element index = base-r digits of the coordinate
    vector, constant term least significant.  p, e and q = p^e describe the
    field over GF(p) whatever its base.
    """

    __slots__ = ("base", "degree", "radix", "p", "e", "q", "order", "modulus", "_log", "_antilog")

    def __init__(self, base: FieldSpec | int, degree: int, modulus: Sequence[int] | None = None):
        if degree < 1:
            raise FieldError(f"extension degree must be >= 1, got {degree}")
        if isinstance(base, FieldSpec):
            self.p, self.e, self.radix = base.p, base.e * degree, base.q
        else:
            if not is_prime(base):
                raise FieldError(f"p={base} is not prime")
            self.p, self.e, self.radix = base, degree, base
            base = field_new(base, 1) if degree > 1 else None
        self.q = self.order = check_order(self.radix ** degree)
        if modulus is None:
            modulus = _smallest_irreducible(base, degree) if degree > 1 else (0, 1)
        else:
            modulus = tuple(modulus)
            text = ",".join(map(str, modulus))
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus {text} is not monic of degree {degree}")
            if not all(0 <= c < self.radix for c in modulus):
                raise FieldError(f"modulus {text} has a coefficient outside [0, {self.radix})")
            if degree == 1 and modulus != (0, 1):
                raise FieldError(f"modulus {text} of a degree-1 field is not 0,1 (x)")
            if degree > 1 and not _is_irreducible(modulus, base):
                raise FieldError(f"modulus {text} is reducible")
        self.base, self.degree, self.modulus = base, degree, modulus
        self._log = self._antilog = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"FieldSpec(GF({self.radix}^{self.degree}))"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e, self.modulus, self.base) \
            == (other.p, other.e, other.modulus, other.base)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus, self.base))

    @property
    def basis(self):
        """Power basis as element indices: alpha^i <-> r^i."""
        return tuple(self.radix ** i for i in range(self.degree))

    def elements(self):
        return range(self.q)

    def element_to_vector(self, x: int):
        return _digits(x, self.radix, self.degree)

    def vector_to_element(self, v) -> int:
        x = 0
        for c in reversed(tuple(v)[: self.degree]):
            x = x * self.radix + c
        return x

    def _mul_generic(self, a: int, b: int) -> int:
        if self.base is None:
            return a * b % self.p
        pa = _poly_trim(self.element_to_vector(a))
        pb = _poly_trim(self.element_to_vector(b))
        red = _poly_mod(_poly_mul(pa, pb, self.base), self.modulus, self.base)
        return self.vector_to_element(red)

    def _build_tables(self):
        n = self.q
        target = n - 1
        # the smallest g with g^(target/r) != 1 for each prime r | target (g = 1
        # for GF(2)); pow multiplies through _mul_generic while the tables are unset
        primes = [r for r in range(2, n) if target % r == 0 and is_prime(r)]
        g = next(g for g in range(1, n) if all(self.pow(g, target // r) != 1 for r in primes))
        # x -> x g is linear over GF(p) on the base-p digits of x: for x < p^j
        # and a digit d < p, (d p^j + x) g = d (p^j g) + x g
        times_g = [0]
        while len(times_g) < n:
            multiples, unit = [0], self._mul_generic(g, len(times_g))
            while len(multiples) < self.p:
                multiples.append(self.add(multiples[-1], unit))
            times_g = [self.add(m, t) for m in multiples for t in times_g] \
                if len(times_g) > 1 else multiples  # x < p: x g is a multiple of g
        antilog = [1] * target
        log = [0] * n
        x = 1
        for i in range(target):
            antilog[i] = x
            log[x] = i
            x = times_g[x]
        self._antilog = antilog + antilog
        self._log = log

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        # a + sign * b on the base-p digits, the coordinates over GF(p)
        p, out, unit = self.p, 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * unit
            unit *= p
        return out

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return a ^ b if self.p == 2 else self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return a ^ b if self.p == 2 else self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return a if self.p == 2 else self._digitwise(0, a, -1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._antilog[self._log[a] + self._log[b]]
        return self._mul_generic(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self._log is not None:
            return self._antilog[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out


ExtFieldSpec = FieldSpec  # the class's former name, which perfbench/tracing.py patches


@lru_cache(maxsize=None)
def field_new(p: int, e: int) -> FieldSpec:
    """GF(p^e) with the lexicographically smallest monic irreducible modulus."""
    return FieldSpec(p, e)


def check_order(q: int) -> int:
    """q, refused when it is past 2^62, the order every element's word holds;
    a caller checks GF(q^b) by its order before it builds GF(q)."""
    if q > _ORDER_LIMIT:
        raise FieldError(f"field order {q} exceeds the supported word size")
    return q


def _integer_root(q: int, e: int) -> int:
    """floor(q^(1/e)) by Newton's method from above, exact for any size."""
    x = 1 << -(-q.bit_length() // e)
    while (y := ((e - 1) * x + q // x ** (e - 1)) // e) < x:
        x = y
    return x


def factor_prime_power(q: int):
    """(p, e) with q = p^e a supported field order: p is the integer e-th
    root of q, prime, and q <= 2^62.  Checks an order without building GF(q)."""
    for e in range(1, min(q.bit_length(), 63) if q > 1 else 1):
        p = _integer_root(q, e)
        if p ** e == q and is_prime(p):
            check_order(q)
            return p, e
    raise FieldError(f"q={q} is not a prime power p^e with e <= 62")


def base_field(q: int) -> FieldSpec:
    """GF(q) for a prime power q, as field_new(p, e)."""
    return field_new(*factor_prime_power(q))


@lru_cache(maxsize=None)
def ext_field(base: FieldSpec, degree: int) -> FieldSpec:
    """GF(q^M) over base = GF(q), deterministic modulus and power basis:
    field_new(p, M) itself over a prime base."""
    return field_new(base.p, degree) if base.e == 1 else FieldSpec(base, degree)
