"""Tiling instances and the three independent tiling verifiers.

The verifiers deliberately share no intermediate computation:

* direct     - convolve the indicator vectors and compare with all-ones,
* polynomial - cardinality product plus cyclotomic cover of all divisors,
* sands      - divisor exclusion Div(A) & Div(B) == {m}.

Their mutual agreement on exhaustive sweeps is the strongest cheap
correctness check available for the whole stack, so nothing here is shared;
acceptance criterion 1 checks it.

Div(A) is a fact of one side, so `div_set` caches it on the multiset (the
`_div` slot), as `cyclotile.cyclo` caches the spectrum: a side shared by
several instances, such as B along a chain of fiber shifts, computes it
once.  Also houses `box_table`, the box table of one side, and
`box_product_sweep_is_one`, the exact box-product identity
<A[x], B[y]> = 1 of a tiling, which acceptance criterion 4 checks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import cyclo
from .multiset import Multiset
from .zm import Modulus, euler_phi


def _divisor_set(a: Multiset) -> frozenset[int]:
    """Div(A) = {(a - a', m) : a, a' in A}, read from the gcd table."""
    mod = a.modulus
    sup = np.flatnonzero(a.weights)
    # a negative difference -x indexes m - x, and (m - x, m) = (x, m)
    seen = np.zeros(mod.m + 1, dtype=bool)
    seen[mod.gcd_table()[sup[:, None] - sup[None, :]]] = True
    return frozenset(np.flatnonzero(seen).tolist())


def div_set(a: Multiset) -> frozenset[int]:
    """Div(A), computed on first use and cached on A."""
    if a._div is None:
        a._div = _divisor_set(a)
    return a._div


def box_table(side: Multiset) -> np.ndarray:
    """Dense table T[x, c] = weighted count of elements a of the side with
    divisor-class((x - a, m)) == c; rows sum to the side's total."""
    mod = side.modulus
    cls = mod.gcd_class_table()
    t = np.zeros((mod.m, len(mod.divisors)), dtype=np.int64)
    rows = np.arange(mod.m)
    for x in np.flatnonzero(side.weights):
        t[rows, cls[(rows - int(x)) % mod.m]] += side.weights[x]
    return t


class TilingInstance:
    """A candidate tiling (A, B) of Z_m; immutable."""

    def __init__(self, modulus: Modulus, a: Multiset, b: Multiset):
        if a.modulus.m != modulus.m or b.modulus.m != modulus.m:
            raise ValueError("component moduli disagree with the instance modulus")
        self.modulus = modulus
        self.a = a
        self.b = b

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
    return div_set(t.a) & div_set(t.b) == {m}


# -- the box product -----------------------------------------------------------


def box_product_sweep_is_one(t: TilingInstance, xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether the box product <A[x], B[y]> = sum over m | M of
    A_m[x] B_m[y] / phi(M/m) equals 1 at every paired anchor (x, y), in exact
    integer arithmetic.  The identity is a theorem for tilings."""
    mod = t.modulus
    # Common denominator: L = lcm of phi(M/d); all phi values divide it.
    phis = np.array([euler_phi(mod.m // d) for d in mod.divisors], dtype=np.int64)
    big = np.lcm.reduce(phis)
    weightvec = big // phis
    ta = box_table(t.a)[np.asarray(xs) % mod.m]
    tb = box_table(t.b)[np.asarray(ys) % mod.m]
    lhs = ((ta * tb) * weightvec[None, :]).sum(axis=1)
    return bool(np.all(lhs == big))
