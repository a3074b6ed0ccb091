"""Cuboid types, nullity tests, and the cuboid route to cyclotomic divisibility.

A cuboid of type (N, delta, T) is the alternating vertex configuration
X^c * prod_nu (1 - X^{d_nu}) with offsets constrained by (d_nu, N) =
N / p_nu^{delta_nu}; evaluating a multiset on it sums template-smeared
weighted counts with alternating signs.  Nullity over all cuboids of the
standard type is equivalent to divisibility by Phi_N.  This is the
library's second route to cyclotomic divisibility: cyclo.phi_divides
evaluates only the unit-offset cuboids (d_nu = N/p_nu) on A folded mod N,
while `phi_divides_via_cuboids` sweeps every admissible offset over every
base point of Z_N (`is_t_null` takes all N bases in one vectorized pass,
tens of milliseconds at N = 11025).  Acceptance criterion 5 checks the two
routes against an exact polynomial-division route of the test-suite's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .multiset import Multiset
from .zm import Modulus


@dataclass(frozen=True)
class CuboidType:
    """(N, delta, template): scale, per-direction depths, smearing template."""

    modulus: Modulus  # the ambient Z_m
    scale: int  # N | m
    delta: tuple[int, ...]
    template: tuple[tuple[int, int], ...]  # (element of Z_N, weight), nonempty

    def __post_init__(self) -> None:
        mod = self.modulus
        if mod.m % self.scale != 0:
            raise ValueError(f"scale {self.scale} does not divide m={mod.m}")
        n_exp = Modulus.of(self.scale).primes if self.scale > 1 else ()
        exps = dict((p, e) for p, e in n_exp)
        if len(self.delta) != mod.num_primes:
            raise ValueError("delta must have one entry per prime of m")
        for nu, (p, _) in enumerate(mod.primes):
            if not 0 <= self.delta[nu] <= exps.get(p, 0):
                raise ValueError(
                    f"delta[{nu}]={self.delta[nu]} out of range for {p} at scale {self.scale}"
                )
        if not self.template:
            raise ValueError("template must be nonempty")

    @property
    def active(self) -> tuple[int, ...]:
        """Directions nu with delta_nu != 0."""
        return tuple(nu for nu, d in enumerate(self.delta) if d)

    def offset_choices(self, nu: int) -> tuple[int, ...]:
        """Admissible d_nu mod N: multiples of N/p^delta by units mod p^delta."""
        p = self.modulus.primes[nu][0]
        step = self.scale // p ** self.delta[nu]
        return tuple(
            step * u for u in range(1, p ** self.delta[nu]) if u % p != 0
        )


def n_cuboid_type(mod: Modulus, n_div: int) -> CuboidType:
    """The standard N-cuboid type: trivial template, depth one in every
    direction dividing N."""
    if n_div <= 1 or mod.m % n_div != 0:
        raise ValueError(f"N={n_div} must be a divisor > 1 of m={mod.m}")
    delta = []
    for p, _ in mod.primes:
        delta.append(1 if n_div % p == 0 else 0)
    return CuboidType(mod, n_div, tuple(delta), ((0, 1),))


def _smeared_weights(a: Multiset, ctype: CuboidType) -> np.ndarray:
    """W[x] = weighted count of A mod N against the template at anchor x."""
    n = ctype.scale
    w = a.reduce_mod(n).weights
    out = np.zeros(n, dtype=np.int64)
    for t, c in ctype.template:
        out += c * np.roll(w, -(t % n))
    return out


def _null_on_bases(smear: np.ndarray, ctype: CuboidType, bases: np.ndarray) -> bool:
    """Vectorized check that all cuboids over the given base points vanish."""
    n = ctype.scale
    choice_lists = [np.array(ctype.offset_choices(nu), dtype=np.int64) for nu in ctype.active]
    total = np.zeros((len(bases), *(len(ch) for ch in choice_lists)), dtype=np.int64)
    k = len(choice_lists)
    for eps in product((0, 1), repeat=k):
        idx = bases.reshape((-1,) + (1,) * k)
        for axis, (e, ch) in enumerate(zip(eps, choice_lists)):
            if e:
                shape = [1] * (k + 1)
                shape[axis + 1] = len(ch)
                idx = idx + ch.reshape(shape)
        sign = -1 if sum(eps) % 2 else 1
        total = total + sign * smear[idx % n]
    return not np.any(total)


def is_t_null(a: Multiset, ctype: CuboidType) -> bool:
    """Whether every cuboid of the type, over every base point of Z_N,
    evaluates to zero on A."""
    smear = _smeared_weights(a, ctype)
    if not ctype.active:
        return not np.any(smear)
    return _null_on_bases(smear, ctype, np.arange(ctype.scale, dtype=np.int64))


def phi_divides_via_cuboids(s: int, a: Multiset) -> bool:
    """Cyclotomic divisibility decided by N-cuboid nullity (dual route)."""
    mod = a.modulus
    if s <= 1 or mod.m % s != 0:
        raise ValueError(f"s={s} must be a divisor > 1 of m={mod.m}")
    return is_t_null(a, n_cuboid_type(mod, s))
