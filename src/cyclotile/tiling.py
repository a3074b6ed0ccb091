"""Tiling instances and the three independent tiling verifiers.

The verifiers deliberately share no intermediate computation:

* direct     - convolve the indicator vectors and compare with all-ones,
* polynomial - cardinality product plus cyclotomic cover of all divisors,
* sands      - divisor exclusion Div(A) & Div(B) == {m}.

Their mutual agreement on exhaustive sweeps is the strongest cheap
correctness check available for the whole stack, so nothing here is shared.

Also houses the box/box-product machinery, saturating sets, spans and the
enhanced divisor exclusion check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import cyclo
from .multiset import Multiset
from .zm import Modulus


class Inapplicable(Exception):
    """A lemma-shaped check was invoked outside its hypotheses."""


@dataclass(frozen=True)
class DivSet:
    """Divisor set Div_N: gcds (a - a', N) realized by differences."""

    scale: int
    members: frozenset[int]

    def __contains__(self, d: int) -> bool:
        return d in self.members


def div_set(a: Multiset, n_div: int | None = None) -> DivSet:
    """Div_N(A) = {(a - a', N) : a, a' in A}."""
    mod = a.modulus
    n_div = mod.m if n_div is None else n_div
    if mod.m % n_div != 0:
        raise ValueError(f"{n_div} does not divide m={mod.m}")
    sup = np.flatnonzero(a.weights)
    diffs = (sup[:, None] - sup[None, :]).ravel() % n_div
    gcds = np.gcd(diffs, n_div)
    gcds[diffs == 0] = n_div
    return DivSet(n_div, frozenset(int(g) for g in np.unique(gcds)))


def div_set_local(a1: Multiset, a2: Multiset | int, n_div: int | None = None) -> DivSet:
    """Div_N(A1, A2) = {(a1 - a2, N)}; A2 may be a single element."""
    mod = a1.modulus
    n_div = mod.m if n_div is None else n_div
    if mod.m % n_div != 0:
        raise ValueError(f"{n_div} does not divide m={mod.m}")
    s1 = np.flatnonzero(a1.weights)
    if isinstance(a2, Multiset):
        s2 = np.flatnonzero(a2.weights)
    else:
        s2 = np.array([a2 % mod.m], dtype=np.int64)
    diffs = (s1[:, None] - s2[None, :]).ravel() % n_div
    gcds = np.gcd(diffs, n_div)
    gcds[diffs == 0] = n_div
    return DivSet(n_div, frozenset(int(g) for g in np.unique(gcds)))


class TilingInstance:
    """A candidate tiling (A, B) of Z_m; immutable, with cached divisor data."""

    def __init__(self, modulus: Modulus, a: Multiset, b: Multiset):
        if a.modulus.m != modulus.m or b.modulus.m != modulus.m:
            raise ValueError("component moduli disagree with the instance modulus")
        self.modulus = modulus
        self.a = a
        self.b = b
        self._cache: dict[str, object] = {}

    @staticmethod
    def from_sets(modulus: Modulus, a: Iterable[int], b: Iterable[int]) -> TilingInstance:
        return TilingInstance(
            modulus, Multiset.from_set(modulus, a), Multiset.from_set(modulus, b)
        )

    def canonical(self) -> TilingInstance:
        """Translate both sides so that 0 belongs to A and to B."""
        a0 = self.a.support()[0] if len(self.a) else 0
        b0 = self.b.support()[0] if len(self.b) else 0
        if a0 == 0 and b0 == 0:
            return self
        return TilingInstance(
            self.modulus, self.a.translate(-a0), self.b.translate(-b0)
        )

    def transpose(self) -> TilingInstance:
        return TilingInstance(self.modulus, self.b, self.a)

    def side(self, which: str) -> Multiset:
        if which not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        return self.a if which == "a" else self.b

    # -- cached per-instance data -----------------------------------------------

    def div_a(self) -> frozenset[int]:
        if "div_a" not in self._cache:
            self._cache["div_a"] = div_set(self.a).members
        return self._cache["div_a"]  # type: ignore[return-value]

    def div_b(self) -> frozenset[int]:
        if "div_b" not in self._cache:
            self._cache["div_b"] = div_set(self.b).members
        return self._cache["div_b"]  # type: ignore[return-value]

    def box_table(self, which: str) -> np.ndarray:
        """Dense table T[x, c] = weighted count of side elements with
        divisor-class((x - a, m)) == c; rows sum to the side's total."""
        key = f"box_{which}"
        if key not in self._cache:
            side = self.side(which)
            mod = self.modulus
            cls = mod.gcd_class_table()
            t = np.zeros((mod.m, len(mod.divisors)), dtype=np.int64)
            rows = np.arange(mod.m)
            for x in np.flatnonzero(side.weights):
                t[rows, cls[(rows - int(x)) % mod.m]] += side.weights[x]
            t.setflags(write=False)
            self._cache[key] = t
        return self._cache[key]  # type: ignore[return-value]

    def is_tiling(self) -> bool:
        if "verdict" not in self._cache:
            self._cache["verdict"] = verify_direct(self)
        return self._cache["verdict"]  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"TilingInstance(m={self.modulus.m}, |A|={len(self.a)}, |B|={len(self.b)})"


# -- the three verifiers ---------------------------------------------------------


def verify_direct(t: TilingInstance) -> bool:
    """A (+) B covers every residue exactly once: w_{A*B} == 1 on Z_m."""
    if not (t.a.is_set and t.b.is_set):
        raise ValueError("direct verification requires 0/1 weights")
    m = t.modulus.m
    sa = np.flatnonzero(t.a.weights)
    sb = np.flatnonzero(t.b.weights)
    if sa.size * sb.size != m:
        return False
    sums = (sa[:, None] + sb[None, :]).ravel() % m
    counts = np.bincount(sums, minlength=m)
    return bool(np.all(counts == 1))


def verify_poly(t: TilingInstance) -> bool:
    """|A||B| = m and every Phi_s with s | m, s > 1 divides A or B."""
    if not (t.a.is_set and t.b.is_set):
        raise ValueError("polynomial verification requires 0/1 weights")
    m = t.modulus.m
    if len(t.a) * len(t.b) != m:
        return False
    for s in t.modulus.divisors:
        if s > 1 and not (cyclo.phi_divides(s, t.a) or cyclo.phi_divides(s, t.b)):
            return False
    return True


def verify_sands(t: TilingInstance) -> bool:
    """|A||B| = m and divisor exclusion: Div(A) and Div(B) meet only in {m}."""
    if not (t.a.is_set and t.b.is_set):
        raise ValueError("divisor exclusion requires 0/1 weights")
    m = t.modulus.m
    if len(t.a) * len(t.b) != m:
        return False
    return t.div_a() & t.div_b() == {m}


# -- boxes and the box product ----------------------------------------------------


@dataclass(frozen=True)
class BoxView:
    """The N-box of a multiset at anchor x: counts indexed by divisors of N."""

    scale: int
    anchor: int
    counts: tuple[tuple[int, int], ...]  # (divisor of N, weighted count)

    def count(self, d: int) -> int:
        for dd, c in self.counts:
            if dd == d:
                return c
        raise ValueError(f"{d} does not divide the box scale {self.scale}")

    def total(self) -> int:
        return sum(c for _, c in self.counts)


def box(a: Multiset, n_div: int, x: int, window: Iterable[int] | None = None) -> BoxView:
    """A^N_m[x] for all m | N: weighted counts of a in A with (x - a, N) = m."""
    mod = a.modulus
    if mod.m % n_div != 0:
        raise ValueError(f"{n_div} does not divide m={mod.m}")
    src = a.restrict(window) if window is not None else a
    divs = [d for d in mod.divisors if n_div % d == 0]
    acc = dict.fromkeys(divs, 0)
    for elem in np.flatnonzero(src.weights):
        g = mod.gcd_with(x - int(elem), n_div)
        acc[g] += int(src.weights[elem])
    return BoxView(n_div, x % mod.m, tuple((d, acc[d]) for d in divs))


def box_product(t: TilingInstance, x: int, y: int) -> Fraction:
    """Sum over m | M of A_m[x] B_m[y] / phi(M/m), as an exact rational."""
    mod = t.modulus
    ta = t.box_table("a")[x % mod.m]
    tb = t.box_table("b")[y % mod.m]
    out = Fraction(0)
    for idx, d in enumerate(mod.divisors):
        if ta[idx] and tb[idx]:
            out += Fraction(int(ta[idx]) * int(tb[idx]), mod.phi_of_divisor(mod.m // d))
    return out


def box_product_sweep_is_one(t: TilingInstance, xs: np.ndarray, ys: np.ndarray) -> bool:
    """Vectorized check that <A[x], B[y]> == 1 for paired anchors (exact)."""
    mod = t.modulus
    # Common denominator: L = lcm of phi(M/d); all phi values divide it.
    phis = np.array([mod.phi_of_divisor(mod.m // d) for d in mod.divisors], dtype=np.int64)
    big = np.lcm.reduce(phis)
    weightvec = big // phis
    ta = t.box_table("a")[np.asarray(xs) % mod.m]
    tb = t.box_table("b")[np.asarray(ys) % mod.m]
    lhs = ((ta * tb) * weightvec[None, :]).sum(axis=1)
    return bool(np.all(lhs == big))


# -- saturating sets, spans ---------------------------------------------------------


def saturating_set(t: TilingInstance, x: int, y: int | None = None) -> tuple[int, ...]:
    """A_x (or A_{x,y} for a fixed y): elements of A whose difference to x is
    matched in Div(B) (resp. realized at y)."""
    if not t.is_tiling():
        raise ValueError("saturating sets are defined for verified tilings")
    mod = t.modulus
    g = mod.gcd_table()
    sup = np.flatnonzero(t.a.weights)
    dx = g[(x - sup) % mod.m]
    if y is None:
        allowed = t.div_b()
        keep = [int(a) for a, d in zip(sup, dx) if int(d) in allowed]
    else:
        sb = np.flatnonzero(t.b.weights)
        realized = frozenset(int(v) for v in g[(y - sb) % mod.m])
        keep = [int(a) for a, d in zip(sup, dx) if int(d) in realized]
    return tuple(keep)


def span(mod: Modulus, x: int, x2: int) -> frozenset[int]:
    """Span(x, x'): union of planes Pi(x, p_nu^(alpha_nu + 1)) over the
    directions where the gcd exponent of x - x' is not yet full.

    Empty when (x - x', m) = m: the degenerate full-gcd case is fixed to the
    empty union.
    """
    g = mod.gcd_with(x - x2, mod.m)
    alphas = mod.divisor_exponents(g)
    out: set[int] = set()
    for nu, (p, n) in enumerate(mod.primes):
        if alphas[nu] < n:
            out.update(mod.plane(x, p ** (alphas[nu] + 1)))
    return frozenset(out)


def bispan(mod: Modulus, x: int, x2: int) -> frozenset[int]:
    return span(mod, x, x2) | span(mod, x2, x)


def check_bispan_bound(t: TilingInstance, x: int) -> bool:
    """A_x inside the intersection of Bispan(x, a) over a in A.

    Terms with (x - a, m) = m (i.e. a = x) are skipped: the bound is only
    meaningful for proper differences.
    """
    if not t.is_tiling():
        raise ValueError("bispan bound is defined for verified tilings")
    mod = t.modulus
    sat = set(saturating_set(t, x))
    for a in t.a.elements():
        if (x - a) % mod.m == 0:
            continue
        if not sat <= bispan(mod, x, a):
            return False
    return True


def enhanced_divisor_exclusion(
    t: TilingInstance, x: int, y: int, m1: int, m2: int
) -> bool:
    """No four-point configuration realizes the divisor pair (m1, m2) at x and y.

    Hypotheses: m1, m2 | M, not both equal to M, and for every prime the two
    exponents either differ or are both full.  Outside them raises Inapplicable.
    """
    mod = t.modulus
    if not (mod.is_divisor(m1) and mod.is_divisor(m2)):
        raise Inapplicable(f"{m1}, {m2} must divide m={mod.m}")
    if m1 == mod.m and m2 == mod.m:
        raise Inapplicable("at least one scale must be a proper divisor")
    e1 = mod.divisor_exponents(m1)
    e2 = mod.divisor_exponents(m2)
    for (_, n), a1, a2 in zip(mod.primes, e1, e2):
        if a1 == a2 and a1 != n:
            raise Inapplicable("equal non-full exponents violate the hypothesis")
    i1 = mod.divisor_index(m1)
    i2 = mod.divisor_index(m2)
    ta = t.box_table("a")
    tb = t.box_table("b")
    prod = (
        int(ta[x % mod.m, i1])
        * int(ta[x % mod.m, i2])
        * int(tb[y % mod.m, i1])
        * int(tb[y % mod.m, i2])
    )
    return prod == 0
