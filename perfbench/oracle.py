"""Independent oracle for the benchmark's correctness checks.

Nothing here imports cyclotile: every verdict is recomputed from plain
integer sets with numpy, by routes that differ from the library's.

* Tiling: a bincount of all pairwise sums must be 1 everywhere.
* Spectrum: Phi_s | A iff A vanishes at every primitive s-th root of unity.
  One length-M FFT of the 0/1 indicator gives A(zeta^k) for all k, and the
  primitive s-th roots are the k with gcd(k, M) = M/s.  "Vanishes" is read
  as max |F[k]| < 0.5.  This is rigorous: when Phi_s does not divide A, the
  norm of A(zeta_s) is a nonzero integer, so some conjugate has modulus at
  least 1; float error at M = 11025 is about 1e-14.
* (T1)/(T2): the Coven-Meyerowitz conditions, read off that spectrum.
* Least translate: brute force over all translates.
* Fiber shifts: replayed by set operations.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod

import numpy as np


def prime_factors(m: int) -> list[tuple[int, int]]:
    """(p, n) pairs of m by trial division, p increasing."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            n = 0
            while m % p == 0:
                m //= p
                n += 1
            out.append((p, n))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def tiles(m: int, a, b) -> bool:
    """A (+) B = Z_m, by counting every pairwise sum."""
    sa = np.asarray(sorted(set(a)), dtype=np.int64)
    sb = np.asarray(sorted(set(b)), dtype=np.int64)
    if len(sa) != len(a) or len(sb) != len(b) or sa.size * sb.size != m:
        return False
    counts = np.bincount(((sa[:, None] + sb[None, :]) % m).ravel(), minlength=m)
    return bool(np.all(counts == 1))


class Spectra:
    """Cyclotomic spectra of subsets of Z_m; the gcd classes are built once."""

    def __init__(self, m: int):
        self.m = m
        self.primes = prime_factors(m)
        k = np.arange(m)
        g = np.gcd(k, m)
        self._classes = {s: np.flatnonzero(g == m // s) for s in divisors(m) if s > 1}
        self._memo: dict[frozenset[int], frozenset[int]] = {}

    def spectrum(self, a) -> frozenset[int]:
        """All s | m, s > 1, with Phi_s | A."""
        key = frozenset(a)
        spec = self._memo.get(key)
        if spec is None:
            ind = np.zeros(self.m)
            ind[np.asarray(sorted(key), dtype=np.int64) % self.m] = 1.0
            mag = np.abs(np.fft.fft(ind))
            spec = frozenset(s for s, ks in self._classes.items() if mag[ks].max() < 0.5)
            self._memo[key] = spec
        return spec

    def prime_powers(self, spec: frozenset[int]) -> frozenset[int]:
        return frozenset(s for s in spec if len(prime_factors(s)) == 1)

    def t1(self, a) -> bool:
        """|A| = prod of Phi_s(1) = p over the prime powers s = p^k in S_A."""
        pps = self.prime_powers(self.spectrum(a))
        return len(set(a)) == prod(prime_factors(s)[0][0] for s in pps)

    def t2(self, a) -> bool:
        """Phi_{s_1...s_k} | A for prime powers of distinct primes in S_A."""
        spec = self.spectrum(a)
        per_prime = [
            [p**e for e in range(1, n + 1) if p**e in spec] for p, n in self.primes
        ]
        for k in range(2, len(per_prime) + 1):
            for group in combinations(per_prime, k):
                for pick in _product(group):
                    if prod(pick) not in spec:
                        return False
        return True


def _product(lists):
    if not lists:
        yield ()
        return
    for head in lists[0]:
        for rest in _product(lists[1:]):
            yield (head, *rest)


def least_translate(m: int, a) -> tuple[int, ...]:
    """The lexicographically least of the translates of A, by brute force."""
    return min(tuple(sorted((x - t) % m for x in a)) for t in range(m))


def radical(m: int) -> int:
    return prod(p for p, _ in prime_factors(m))


def fiber(m: int, p: int, x: int) -> frozenset[int]:
    """The M-fiber through x in the p direction: x + (m/p) Z_m."""
    step = m // p
    return frozenset((x + i * step) % m for i in range(p))


def replay_shift(m: int, a: frozenset[int], direction: int, root: int, target: int):
    """Move the fiber through `root` onto the fiber through `target`.

    Returns the new set, or None when the move is illegal: the displacement
    must have gcd M/p^2 with M, the old fiber must lie in A and the new one
    must be vacant."""
    p = prime_factors(m)[direction][0]
    if gcd(target - root, m) != m // p**2:
        return None
    old, new = fiber(m, p, root), fiber(m, p, target)
    if not old <= a or (a - old) & new:
        return None
    return (a - old) | new
