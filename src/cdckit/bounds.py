"""Upper bounds (Singleton-like, recursive Johnson), known exact values,
and the registry of constructive lower-bound polynomials.

All values are exact big integers; every result carries its derivation
chain so tables stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import constructions as cx
from .linalg import gaussian_binomial


class BoundError(ValueError):
    pass


@dataclass(frozen=True)
class BoundResult:
    value: int
    kind: str  # "upper" | "lower" | "exact"
    derivation: tuple

    def __post_init__(self):
        if not self.derivation:
            raise BoundError("derivation must be nonempty")

    @property
    def weak(self):
        return any("weak" in step for step in self.derivation)


def _normalize(n, d, k):
    if d % 2 or d <= 0:
        raise BoundError(f"distance must be even and positive, got {d}")
    if k > n - k:
        return n - k, (f"dualized k={k} to {n - k} (complement preserves distance)",)
    return k, ()


def singleton_like_upper(q, n, d, k) -> BoundResult:
    """Each (k - d/2 + 1)-subspace lies in at most one codeword."""
    k, chain = _normalize(n, d, k)
    if d > 2 * k:
        raise BoundError(f"d={d} exceeds 2k={2 * k}")
    t = k - d // 2 + 1
    value = gaussian_binomial(n, t, q) // gaussian_binomial(k, t, q)
    chain = chain + (f"counting {t}-subspaces: floor([{n},{t}]_{q} / [{k},{t}]_{q})",)
    return BoundResult(value, "upper", chain)


# known exact values: (q, n, d, k) -> (value or callable, citation)

def _spread_number(q, n, k):
    return (q ** n - 1) // (q ** k - 1)


_EXACT_SPECIAL = {
    (2, 6, 4, 3): (77, "maximum (6, 4; 3) code over GF(2)"),
    (2, 8, 6, 4): (257, "maximum (8, 6; 4) code over GF(2)"),
}


def exact_registry(q, n, d, k) -> BoundResult | None:
    k_norm, chain = _normalize(n, d, k)
    key = (q, n, d, k_norm)
    if key in _EXACT_SPECIAL:
        value, cite = _EXACT_SPECIAL[key]
        return BoundResult(value, "exact", chain + (cite,))
    if d == 2 * k_norm:
        if n % k_norm == 0:
            return BoundResult(_spread_number(q, n, k_norm), "exact",
                               chain + (f"{k_norm}-spread of F_{q}^{n}: (q^n-1)/(q^k-1)",))
        if n % k_norm == 1:
            value = (q ** n - q ** (k_norm + 1)) // (q ** k_norm - 1) + 1
            return BoundResult(value, "exact",
                               chain + ("maximum partial spread, n ≡ 1 (mod k): "
                                        "(q^n - q^(k+1))/(q^k - 1) + 1",))
    return None


def johnson_upper(q, n, d, k) -> BoundResult:
    """Recursive bound A(n,d;k) <= floor((q^n-1) A(n-1,d;k-1) / (q^k-1)),
    bottoming out at d = 2k with the exact registry where available."""
    k, chain = _normalize(n, d, k)
    if d > 2 * k:
        raise BoundError(f"d={d} exceeds 2k={2 * k}")
    if d == 2 * k:
        exact = exact_registry(q, n, d, k)
        if exact is not None:
            return BoundResult(exact.value, "upper", chain + exact.derivation)
        value = _spread_number(q, n, k)
        return BoundResult(value, "upper",
                           chain + (f"weak base: partial-spread ceiling "
                                    f"floor((q^{n}-1)/(q^{k}-1)) = {value}",))
    inner = johnson_upper(q, n - 1, d, k - 1)
    value = (q ** n - 1) * inner.value // (q ** k - 1)
    step = (f"Johnson step: floor((q^{n}-1) * A_{q}({n - 1},{d};{k - 1}) "
            f"/ (q^{k}-1)) with inner {inner.value}")
    return BoundResult(value, "upper", chain + (step,) + inner.derivation)


# ----------------------------------------------------------------------
# constructive lower bounds
# ----------------------------------------------------------------------

def lower_bound_registry(q, n, d, k):
    """Every registry polynomial that bounds (n, d, k), evaluated at q, and
    the exact value where one is known, in increasing order."""
    out = []
    for size, params, note in ((c.size, c.params, c.note) for c in cx.REGISTRY if c.formula):
        if callable(params):  # a family, indexed by half its dimension
            if params(k // 2) == (n, d, k):
                try:
                    out.append(BoundResult(size(q, k // 2), "lower", (note,)))
                except cx.ConstructionError:  # an index the family does not admit
                    pass
        elif params == (n, d, k):
            out.append(BoundResult(size(q), "lower", (note,)))
    exact = exact_registry(q, n, d, k)
    if exact is not None:
        out.append(BoundResult(exact.value, "lower",
                               ("exact value",) + exact.derivation))
    return sorted(out, key=lambda b: b.value)


def bound_table(q, n, d, k):
    """All computable bounds for one parameter set, lower <= upper checked."""
    if not (1 <= n and 0 <= k <= n):
        raise BoundError(f"need 1 <= n and 0 <= k <= n, got n={n} k={k}")
    rows = []
    exact = exact_registry(q, n, d, k)
    if exact is not None:
        rows.append(("exact", exact))
    try:
        rows.append(("singleton", singleton_like_upper(q, n, d, k)))
    except BoundError:
        pass
    k_norm, _ = _normalize(n, d, k)
    if d < 2 * k_norm:
        rows.append(("johnson", johnson_upper(q, n, d, k)))
    for b in lower_bound_registry(q, n, d, k):
        rows.append(("construction", b))
    uppers = [b.value for _, b in rows if b.kind == "upper"]
    lowers = [b.value for _, b in rows if b.kind in ("lower", "exact")]
    if uppers and lowers and max(lowers) > min(uppers):
        raise BoundError(
            f"inconsistent table: lower {max(lowers)} > upper {min(uppers)}")
    return rows
