"""Cuboid types, cuboid evaluation, and nullity tests.

A cuboid of type (N, delta, T) is the alternating vertex configuration
X^c * prod_nu (1 - X^{d_nu}) with offsets constrained by (d_nu, N) =
N / p_nu^{delta_nu}; evaluating a multiset on it sums template-smeared
weighted counts with alternating signs.  Nullity over all cuboids of the
standard type is equivalent to divisibility by Phi_N.  This is the
library's second route to cyclotomic divisibility: cyclo.phi_divides
evaluates only the unit-offset cuboids (d_nu = N/p_nu) on A folded mod N,
while this route sweeps every admissible offset.  The test-suite checks
both against an exact polynomial-division route of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator

import numpy as np

from . import cyclo
from .multiset import Multiset
from .zm import Modulus

# Above this many cuboids, exhaustive nullity sweeps restrict base points to
# one representative per translation grid where that is provably lossless.
EXHAUSTIVE_RESTRICTION_THRESHOLD = 100_000


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

    def count_cuboids(self) -> int:
        return self.scale * prod(len(self.offset_choices(nu)) for nu in self.active)


def n_cuboid_type(mod: Modulus, n_div: int) -> CuboidType:
    """The standard N-cuboid type: trivial template, depth one in every
    direction dividing N."""
    if n_div <= 1 or mod.m % n_div != 0:
        raise ValueError(f"N={n_div} must be a divisor > 1 of m={mod.m}")
    delta = []
    for p, _ in mod.primes:
        delta.append(1 if n_div % p == 0 else 0)
    return CuboidType(mod, n_div, tuple(delta), ((0, 1),))


def fiber_template(mod: Modulus, nu: int) -> tuple[tuple[int, int], ...]:
    """Template (X^{m/p} - 1)/(X^{m/p^2} - 1): the fiber at scale m/p_nu."""
    p, n = mod.primes[nu]
    if n != 2:
        raise ValueError("fiber template requires exponent 2 in the chosen direction")
    step = mod.m // p**2
    return tuple((t * step, 1) for t in range(p))


@dataclass(frozen=True)
class Cuboid:
    """A concrete cuboid: base point and one offset per active direction."""

    ctype: CuboidType
    base: int
    offsets: tuple[int, ...]  # aligned with ctype.active

    def vertices(self) -> tuple[tuple[int, int], ...]:
        """(vertex, sign) pairs; 2^{#active} entries."""
        n = self.ctype.scale
        out = []
        for eps in product((0, 1), repeat=len(self.offsets)):
            x = (self.base + sum(e * d for e, d in zip(eps, self.offsets))) % n
            out.append((x, -1 if sum(eps) % 2 else 1))
        return tuple(out)

    def conforms(self) -> bool:
        n = self.ctype.scale
        for nu, d in zip(self.ctype.active, self.offsets):
            p = self.ctype.modulus.primes[nu][0]
            want = n // p ** self.ctype.delta[nu]
            g = d % n
            if (np.gcd(g, n) if g else n) != want:
                return False
        return True


def _smeared_weights(a: Multiset, ctype: CuboidType) -> np.ndarray:
    """W[x] = weighted count of A mod N against the template at anchor x."""
    n = ctype.scale
    w = a.reduce_mod(n).weights if a.modulus.m != n else a.weights
    out = np.zeros(n, dtype=np.int64)
    for t, c in ctype.template:
        out += c * np.roll(w, -(t % n))
    return out


def eval_cuboid(a: Multiset, ctype: CuboidType, delta_cuboid: Cuboid) -> int:
    """Alternating template-smeared sum of A over the cuboid's vertices."""
    if delta_cuboid.ctype != ctype:
        raise ValueError("cuboid does not carry the given type")
    if not delta_cuboid.conforms():
        raise ValueError("cuboid offsets violate the gcd constraints of the type")
    smear = _smeared_weights(a, ctype)
    return int(sum(sign * smear[x] for x, sign in delta_cuboid.vertices()))


def enumerate_cuboids(
    ctype: CuboidType,
    through: int | None = None,
    mode: str = "exhaustive",
    seed: int = 0,
    count: int = 0,
) -> Iterator[Cuboid]:
    """Stream cuboids of a type.

    Exhaustive mode yields every admissible (base, offsets) with the base
    ranging over Z_N, or over the grid of `through` when given.  Sampled mode
    draws `count` cuboids from a PCG64 generator seeded with `seed`
    (identical streams for identical seeds).
    """
    n = ctype.scale
    choice_lists = [ctype.offset_choices(nu) for nu in ctype.active]
    if mode == "exhaustive":
        if through is None:
            bases: Iterator[int] = iter(range(n))
        else:
            e_grid = n // prod(
                ctype.modulus.primes[nu][0] ** ctype.delta[nu] for nu in ctype.active
            ) if ctype.active else n
            bases = iter(range(through % e_grid, n, e_grid))
        for c in bases:
            for offs in product(*choice_lists):
                yield Cuboid(ctype, c, offs)
    elif mode == "sampled":
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(count):
            c = int(rng.integers(0, n))
            offs = tuple(ch[int(rng.integers(0, len(ch)))] for ch in choice_lists)
            yield Cuboid(ctype, c, offs)
    else:
        raise ValueError(f"unknown mode {mode!r}")


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


def is_t_null(
    a: Multiset,
    ctype: CuboidType,
    mode: str = "exhaustive",
    seed: int = 0,
    count: int = 10_000,
) -> bool:
    """Whether every cuboid of the type evaluates to zero on A.

    Exhaustive mode is authoritative.  When the full enumeration is large and
    every active depth is 1, base points are restricted to one representative
    per translation grid of the offsets' span: a vertex function vanishing on
    all boxes cornered at a fixed grid point vanishes on all boxes in that
    grid (the complement decomposes into parts constant in some direction),
    and unit steps reach every nonzero residue only at depth 1.  Sampled mode
    is a seeded heuristic.
    """
    smear = _smeared_weights(a, ctype)
    if not ctype.active:
        return not np.any(smear)
    n = ctype.scale
    if mode == "sampled":
        for cb in enumerate_cuboids(ctype, mode="sampled", seed=seed, count=count):
            if sum(sign * smear[x] for x, sign in cb.vertices()):
                return False
        return True
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    restrict = (
        ctype.count_cuboids() > EXHAUSTIVE_RESTRICTION_THRESHOLD
        and all(ctype.delta[nu] == 1 for nu in ctype.active)
    )
    if restrict:
        e_grid = n // prod(ctype.modulus.primes[nu][0] for nu in ctype.active)
        bases = np.arange(e_grid, dtype=np.int64)
    else:
        bases = np.arange(n, dtype=np.int64)
    return _null_on_bases(smear, ctype, bases)


def phi_divides_via_cuboids(s: int, a: Multiset) -> bool:
    """Cyclotomic divisibility decided by N-cuboid nullity (dual route)."""
    mod = a.modulus
    if s <= 1 or mod.m % s != 0:
        raise ValueError(f"s={s} must be a divisor > 1 of m={mod.m}")
    return is_t_null(a, n_cuboid_type(mod, s))


def phi_prime_power_uniform(p_power: int, a: Multiset) -> bool:
    """Third route for prime powers: uniform distribution of weights mod p^alpha
    within each residue class mod p^{alpha-1}."""
    mod = a.modulus
    if mod.m % p_power != 0:
        raise ValueError(f"{p_power} does not divide m={mod.m}")
    fac = [(p, e) for p, e in Modulus.of(p_power).primes]
    if len(fac) != 1:
        raise ValueError(f"{p_power} is not a prime power")
    p, alpha = fac[0]
    w = a.reduce_mod(p_power).weights if mod.m != p_power else a.weights
    # Classes mod p^{alpha-1} each split into p classes mod p^alpha.
    lower = p_power // p
    folded = w.reshape(p, lower)
    return bool(np.all(folded == folded[0]))


def multi_phi_test(a: Multiset, nu: int, combo: str) -> tuple[bool, bool]:
    """Nullity/divisibility verdicts for the two composite cuboid types.

    combo='top-adjacent':  Phi_M * Phi_{M/p_nu} vs the depth-(2,1,1) type;
    the equivalence holds, so the two returned booleans must agree.
    combo='top-skip':      Phi_M * Phi_{M/p_nu^2} vs the fiber-template type;
    divisibility implies nullity but not conversely, so both are reported.
    Returns (null, divides).
    """
    mod = a.modulus
    p, n = mod.primes[nu]
    m = mod.m
    if combo == "top-adjacent":
        if n < 2:
            raise ValueError("top-adjacent combo needs exponent >= 2")
        delta = tuple(2 if k == nu else 1 for k in range(mod.num_primes))
        ctype = CuboidType(mod, m, delta, ((0, 1),))
        null = is_t_null(a, ctype)
        divides = cyclo.phi_divides(m, a) and cyclo.phi_divides(m // p, a)
        if null != divides:
            raise AssertionError(
                "top-adjacent cuboid nullity disagrees with polynomial divisibility"
            )
        return null, divides
    if combo == "top-skip":
        if n != 2:
            raise ValueError("top-skip combo needs exponent exactly 2")
        delta = tuple(0 if k == nu else 1 for k in range(mod.num_primes))
        ctype = CuboidType(mod, m, delta, fiber_template(mod, nu))
        null = is_t_null(a, ctype)
        divides = cyclo.phi_divides(m, a) and cyclo.phi_divides(m // p**2, a)
        if divides and not null:
            raise AssertionError("divisibility must imply nullity for the top-skip type")
        return null, divides
    raise ValueError(f"unknown combo {combo!r}")
