"""Helpers shared by the behavioural tests and the acceptance suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from cyclotile import (
    Modulus,
    Multiset,
    ShiftMove,
    TilingInstance,
    detect_cofibered,
    fiber_shift,
    standard_complement,
)


class Inapplicable(Exception):
    """A lemma-shaped check was invoked outside its hypotheses."""


@lru_cache(maxsize=None)
def admissible_pair_mask(mod: Modulus) -> np.ndarray:
    """mask[i, j]: the divisor pair (divisors[i], divisors[j]) meets the
    hypotheses of the enhanced divisor exclusion, namely not both equal to m,
    and no prime with equal exponents below full in both."""
    nd = len(mod.divisors)
    out = np.zeros((nd, nd), dtype=bool)
    for i, d1 in enumerate(mod.divisors):
        for j, d2 in enumerate(mod.divisors):
            if d1 == mod.m and d2 == mod.m:
                continue
            e1 = mod.divisor_exponents(d1)
            e2 = mod.divisor_exponents(d2)
            if any(a == b and a != n for (_, n), a, b in zip(mod.primes, e1, e2)):
                continue
            out[i, j] = True
    out.setflags(write=False)
    return out


def valid_shift_moves(t: TilingInstance) -> list[ShiftMove]:
    """Every legal fiber-shift move of an instance, deterministic order."""
    mod = t.modulus
    sup = set(t.a.support())
    out: list[ShiftMove] = []
    for nu in range(mod.num_primes):
        if mod.primes[nu][1] != 2 or detect_cofibered(t, nu) is None:
            continue
        p = mod.primes[nu][0]
        step = mod.m // p
        dist = mod.m // p**2
        roots = sorted(
            {
                x % step
                for x in sup
                if all((x % step + i * step) % mod.m in sup for i in range(p))
            }
        )
        for r in roots:
            for u in range(1, p * p):
                if u % p == 0:
                    continue
                tgt = (r + u * dist) % mod.m
                if (sup - set(mod.fiber(r, nu))) & set(mod.fiber(tgt, nu)):
                    continue
                out.append(ShiftMove(nu, r, tgt))
    return out


def shifted_instance(t: TilingInstance, k: int, seed: int) -> TilingInstance:
    """Apply k seeded random valid fiber shifts (each fully re-verified)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cur = t
    for _ in range(k):
        moves = valid_shift_moves(cur)
        cur = fiber_shift(cur, moves[int(rng.integers(0, len(moves)))])
    return cur


def flat_tiling(mod: Modulus) -> TilingInstance:
    """A = the D(M)-grid through 0, B = its standard complement."""
    a = Multiset.from_set(mod, range(0, mod.m, mod.d_of_m))
    return TilingInstance(mod, a, standard_complement(mod, ({1},) * mod.num_primes))


def grid_shifts(t: TilingInstance, directions, seed: int) -> TilingInstance:
    """Seeded fiber shifts, one per entry of `directions`, each moving a full
    fiber of the D(M)-grid through 0 off that grid."""
    rng = np.random.default_rng(seed)
    cur = t
    for nu in directions:
        moves = [
            mv
            for mv in valid_shift_moves(cur)
            if mv.direction == nu and mv.root % t.modulus.d_of_m == 0
        ]
        cur = fiber_shift(cur, moves[int(rng.integers(len(moves)))])
    return cur


def slab_tiling(mod: Modulus, nu: int) -> TilingInstance:
    """A = F_nu * S, a union of M-fibers in direction nu only, with S the
    standard set of the other two primes at exponent 1; B its standard
    product complement."""
    fam_a, fam_b = [{1}, {1}, {1}], [{2}, {2}, {2}]
    fam_a[nu], fam_b[nu] = set(), {1}
    a = standard_complement(mod, tuple(fam_a)).convolve(Multiset.fiber(mod, nu))
    return TilingInstance(mod, a, standard_complement(mod, tuple(fam_b)))


def grid_point(mod: Modulus, coords) -> int:
    """The element at cell `coords` of the box Z_{p_1} x ... x Z_{p_r} of the
    D(M)-grid through 0: stepping coordinate nu by one adds M/p_nu."""
    return sum(c * (mod.m // p) for c, p in zip(coords, mod.prime_list)) % mod.m


def layered_tiling(
    mod: Modulus, nu: int, subgroup: bool, seed: int
) -> tuple[Multiset, Multiset]:
    """A seeded tiling A (+) B = Z_M of M = (p q r)^2, built in layers along
    axis nu (prime p; q and r are the other two primes, in order).

    Coordinates are the CRT coordinates of `Modulus.coord`: the point of
    coordinates (c_nu) is sum c_nu * M_nu mod M.  So an M-fiber in
    direction d steps coordinate d by p_d.  X_A (+) X_B = Z_{p^2}, one of the
    two being p*Z_{p^2} (it is X_A when `subgroup`) and the other a complete
    residue system mod p.  A is the union over x in X_A of {x} x A_x, where
    each layer A_x is a union of q-fibers {(y_t + qZ, r*t + c) : t < r} or of
    r-fibers {(q*u + c, z_u + rZ) : u < q}.  Both kinds occur, and neither the
    y_t mod q nor the z_u mod r are all equal, so a layer is fibered in its
    own direction only.  B = X_B x Y x Z, with Y and Z complete residue
    systems mod q and mod r.  When X_A = p*Z_{p^2} the layers share grids, so
    q-fiber layers take c = 0 (mod r) and r-fiber layers take every
    z_u != 0 (mod r): every D(M)-grid stays fibered.

    Returns (A, B)."""
    j, k = (d for d in range(3) if d != nu)
    p, q, r = (mod.primes[d][0] for d in (nu, j, k))
    rng = np.random.default_rng(seed)

    def residues(n: int) -> list[int]:
        return [i + n * int(rng.integers(n)) for i in range(n)]

    def not_all_equal(n: int, size: int, low: int = 0) -> list[int]:
        vals = rng.integers(low, n, size=size).tolist()
        if len(set(vals)) == 1:
            vals[0] = low + (vals[0] - low + 1) % (n - low)
        return vals

    def element(x: int, y: int, z: int) -> int:
        coords = [0, 0, 0]
        coords[nu], coords[j], coords[k] = x % p**2, y % q**2, z % r**2
        return sum(c * mod.m_nu(d) for d, c in enumerate(coords)) % mod.m

    x_a, x_b = [p * i for i in range(p)], residues(p)
    if not subgroup:
        x_a, x_b = x_b, x_a
    kinds = [0, 1] + rng.integers(2, size=p - 2).tolist()
    rng.shuffle(kinds)
    a = []
    for x, kind in zip(x_a, kinds):
        if kind == 0:
            c = 0 if subgroup else int(rng.integers(r))
            ys = not_all_equal(q, r)
            a += [element(x, ys[t] + q * s, r * t + c) for t in range(r) for s in range(q)]
        else:
            c = int(rng.integers(q))
            zs = not_all_equal(r, q, low=1 if subgroup else 0)
            a += [element(x, q * u + c, zs[u] + r * s) for u in range(q) for s in range(r)]
    ys, zs = residues(q), residues(r)
    b = [element(x, y, z) for x in x_b for y in ys for z in zs]
    return Multiset.from_set(mod, a), Multiset.from_set(mod, b)


# The branch and `swapped` that classify must report on a layered tiling,
# keyed (X_A = p*Z_{p^2}, sides given as (B, A)); the direction is the layer
# axis.  With X_A = p*Z_{p^2}, A lies in p*Z_M and p exactly divides |B|;
# Phi_M divides A but not B, so given as (B, A) the sides are interchanged
# back.  With X_A a residue system, Phi_p divides A and Phi_{p^2} divides B;
# B is fibered in direction nu alone and Phi_M divides it, so given as
# (B, A) it takes the slab route directly.
LAYERED_BRANCH = {
    (True, False): ("subgroup-reduction", False),
    (True, True): ("subgroup-reduction", True),
    (False, False): ("swapped-slab-reduction", False),
    (False, True): ("slab-reduction", False),
}
