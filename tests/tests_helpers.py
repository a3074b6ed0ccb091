"""Helpers shared by the behavioural tests and the acceptance suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from cyclotile import Modulus, ShiftMove, TilingInstance, detect_cofibered, fiber_shift


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
