"""Upper bounds (Singleton-like, recursive Johnson), known exact values,
and the registry of constructive lower-bound polynomials.

All values are exact big integers; every result carries its derivation
chain so tables stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    num = gaussian_binomial(n, t, q)
    den = gaussian_binomial(k, t, q)
    value = num // den
    chain = chain + (f"counting {t}-subspaces: floor([{n},{t}]_{q} / [{k},{t}]_{q})",)
    return BoundResult(value, "upper", chain)


# known exact values: (q, n, d, k) -> (value or callable, citation)

def _spread_number(q, n, k):
    return (q ** n - 1) // (q ** k - 1)


def _partial_spread_rem1(q, n, k):
    # maximum partial k-spread of F_q^n for n ≡ 1 (mod k)
    return (q ** n - q ** (k + 1)) // (q ** k - 1) + 1


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
            return BoundResult(_partial_spread_rem1(q, n, k_norm), "exact",
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
    num = (q ** n - 1) * inner.value
    den = q ** k - 1
    value = num // den
    step = (f"Johnson step: floor((q^{n}-1) * A_{q}({n - 1},{d};{k - 1}) "
            f"/ (q^{k}-1)) with inner {inner.value}")
    return BoundResult(value, "upper", chain + (step,) + inner.derivation)


# ----------------------------------------------------------------------
# constructive lower bounds
# ----------------------------------------------------------------------

def _lower_entries(q, n, d, k):
    from . import constructions as cx
    out = []

    def add(value, note):
        out.append(BoundResult(value, "lower", (note,)))

    if (n, d, k) == (8, 4, 4):
        add(cx.size_8_4_4(q), "two-block linkage with parallelism addon")
    if (n, d, k) == (12, 4, 4):
        add(cx.size_12_4_4_cor(q), "three-block linkage bound")
        add(cx.size_12_4_4_combined(q),
            "three-block linkage plus disjoint-2-spread addon")
        add(cx.size_12_4_4_thm(q), "duplication over the (8, 4; 4) base")
        add(cx.size_12_4_4_prior(q), "previously best known value")
    if (n, d, k) == (12, 6, 6):
        add(cx.size_12_6_6(q),
            "linkage with coset addon and hole extensions")
    if (n, d, k) == (10, 4, 5):
        add(cx.size_10_4_5_linkage(q), "two-block linkage")
        add(cx.size_10_4_5_claimed(q),
            "published value incl. a 2q^9 addon that fails its distance claim")
    if (n, d, k) == (12, 8, 6):
        add(cx.size_12_8_6(q), "pairing construction")
    if (n, d, k) == (16, 4, 4):
        add(cx.size_16_4_4(q), "recursive duplication")
    if (n, d, k) == (9, 4, 3):
        add(cx.size_9_4_3(q), "duplication over an imported (6, *, 4; 3) code")
    if (n, d, k) == (10, 4, 3):
        add(cx.size_10_4_3(q), "duplication over an imported (7, *, 4; 3) code")
    if n == 2 * k and d == k and k % 4 == 0 and k >= 8:
        add(cx.size_4k_2k_2k(q, k // 2), "linkage with coset addon, (4k, 2k; 2k)")
    if 3 * d == n and d == k and k % 4 == 0 and k >= 8:
        add(cx.size_6k_2k_2k(q, k // 2), "duplication over (4k, 2k; 2k), (6k, 2k; 2k)")
    exact = exact_registry(q, n, d, k)
    if exact is not None:
        out.append(BoundResult(exact.value, "lower",
                               ("exact value",) + exact.derivation))
    return out


def lower_bound_registry(q, n, d, k):
    """Every applicable constructive polynomial evaluated at (q, n, d, k)."""
    return sorted(_lower_entries(q, n, d, k), key=lambda b: b.value)


def bound_table(q, n, d, k):
    """All computable bounds for one parameter set, lower <= upper checked."""
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
