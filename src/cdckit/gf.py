"""Exact arithmetic in GF(p^e) and in extensions GF(q^M).

One class does both: GF(p^e) is the degree-e extension of the prime field
GF(p), and GF(q^M) is the degree-M extension of any such field.  Elements
are plain integers: the base-q digits of the index are the polynomial
coefficients, constant term in the least significant digit.  For p = 2
this makes addition a single XOR.  Multiplication uses log/antilog tables
whenever the field is small enough to afford them.
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


class _PrimeField:
    """GF(p) as the base of a FieldSpec: residues mod p."""

    __slots__ = ("p", "q")

    def __init__(self, p: int):
        self.p = self.q = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)


# ----------------------------------------------------------------------
# polynomial helpers over a base field, coefficients as tuples
# (constant first)
# ----------------------------------------------------------------------

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
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are ordered by the integer whose base-q digits are
    (c_0, ..., c_{degree-1}), constant term least significant.
    """
    if degree == 1:
        return (0, 1)
    for idx in range(f.q ** degree):
        cand = _digits(idx, f.q, degree) + (1,)
        if _is_irreducible(cand, f):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {degree} over GF({f.q})")


class ExtFieldSpec:
    """GF(q^M) as polynomials over a base field of order q.

    The basis is the power basis 1, alpha, ..., alpha^(M-1) of a root alpha
    of the extension modulus; element index = base-q digits of the
    coordinate vector, constant term least significant.
    """

    __slots__ = ("base", "degree", "order", "modulus", "p", "_log", "_antilog")

    def __init__(self, base, degree: int, modulus=None):
        if degree < 1:
            raise FieldError(f"extension degree must be >= 1, got {degree}")
        order = base.q ** degree
        if order > _ORDER_LIMIT:
            raise FieldError(f"field order {order} exceeds the supported word size")
        if modulus is None:
            modulus = _smallest_irreducible(base, degree)
        else:
            modulus = tuple(modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of the extension degree")
            if not _is_irreducible(modulus, base):
                raise FieldError("modulus is reducible")
        self.base = base
        self.degree = degree
        self.order = order
        self.modulus = modulus
        self.p = base.p
        self._log = None
        self._antilog = None
        if order <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self):
        return f"ExtFieldSpec(q={self.base.q}, M={self.degree})"

    @property
    def basis(self):
        """Power basis as element indices: alpha^i <-> q^i."""
        return tuple(self.base.q ** i for i in range(self.degree))

    def elements(self):
        return range(self.order)

    def element_to_vector(self, x: int):
        return _digits(x, self.base.q, self.degree)

    def vector_to_element(self, v) -> int:
        x = 0
        for c in reversed(tuple(v)[: self.degree]):
            x = x * self.base.q + c
        return x

    def _mul_generic(self, a: int, b: int) -> int:
        if self.degree == 1:  # the elements are the base's own
            return self.base.mul(a, b)
        q = self.base.q
        pa = _poly_trim(_digits(a, q, self.degree))
        pb = _poly_trim(_digits(b, q, self.degree))
        red = _poly_mod(_poly_mul(pa, pb, self.base), self.modulus, self.base)
        return self.vector_to_element(red)

    def _build_tables(self):
        n = self.order
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

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.degree == 1:  # the elements are the base's own
            return self.base.add(a, b)
        base = self.base
        q = base.q
        out = 0
        mult = 1
        for _ in range(self.degree):
            a, ra = divmod(a, q)
            b, rb = divmod(b, q)
            out += base.add(ra, rb) * mult
            mult *= q
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        base = self.base
        q = base.q
        out = 0
        mult = 1
        for _ in range(self.degree):
            a, r = divmod(a, q)
            out += base.neg(r) * mult
            mult *= q
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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
            return self._antilog[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

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


class FieldSpec(ExtFieldSpec):
    """GF(p^e): the degree-e extension of GF(p) by a monic irreducible modulus."""

    __slots__ = ("e", "q")

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise FieldError(f"p={p} is not prime")
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
        super().__init__(_PrimeField(p), e, modulus)
        self.e = e
        self.q = self.order

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))


@lru_cache(maxsize=None)
def field_new(p: int, e: int) -> FieldSpec:
    """GF(p^e) with the lexicographically smallest monic irreducible modulus."""
    return FieldSpec(p, e)


def _integer_root(q: int, e: int) -> int:
    """floor(q^(1/e)) by Newton's method from above, exact for any size."""
    x = 1 << -(-q.bit_length() // e)
    while (y := ((e - 1) * x + q // x ** (e - 1)) // e) < x:
        x = y
    return x


def _factor_prime_power(q: int):
    """(p, e) with q = p^e: p is the integer e-th root of q, prime, and
    e <= 62, the exponent of the largest supported field order."""
    for e in range(1, min(q.bit_length(), 63) if q > 1 else 1):
        p = _integer_root(q, e)
        if p ** e == q and is_prime(p):
            return p, e
    raise FieldError(f"q={q} is not a prime power p^e with e <= 62")


def base_field(q: int) -> FieldSpec:
    """GF(q) for a prime power q, as field_new(p, e)."""
    return field_new(*_factor_prime_power(q))


def ext_field(base: ExtFieldSpec, degree: int) -> ExtFieldSpec:
    """Extension GF(q^M) with deterministic modulus and power basis."""
    return ExtFieldSpec(base, degree)
