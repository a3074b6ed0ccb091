"""Exact arithmetic and geometry of the cyclic group Z_M.

A modulus M = prod(p_nu ** n_nu) is kept in factored form.  Everything built
on top of it (CRT coordinates, the divisor lattice, the dense gcd tables,
grids and fibers) is precomputed or memoized here because the higher layers
query these objects in inner loops.  Each primitive has one implementation:
the totient is `euler_phi`, gcd with m is read from `gcd_table`, and a
coordinate is `coord`, whose inverse is the sum of coord(x, nu) * M_nu.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

# Dense per-element tables (gcd classes, coordinates) are only viable for
# moderate group orders; the working target is M = 11025.
MAX_MODULUS = 1 << 20

# Factoring is only offered as a convenience for small inputs.
_TRIAL_DIVISION_BOUND = 1 << 20


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n by trial division.  Intended for n up to ~2**20."""
    if n < 2:
        raise ValueError(f"cannot factor n={n}; need n >= 2")
    if n > _TRIAL_DIVISION_BOUND:
        raise ValueError(f"n={n} exceeds trial-division bound {_TRIAL_DIVISION_BOUND}")
    out: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def euler_phi(n: int) -> int:
    """Euler totient via the factored product formula."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    return prod((q - 1) * q ** (r - 1) for q, r in factorize(n))


@dataclass(frozen=True)
class Modulus:
    """Factored order of a cyclic group Z_m, with derived lookup tables.

    `primes` is strictly increasing; `m` is the product of the prime powers.
    Construct from the factorization, or with `Modulus.of(m)`.
    """

    primes: tuple[tuple[int, int], ...]
    m: int = field(init=False)

    def __post_init__(self) -> None:
        ps = [p for p, _ in self.primes]
        if not ps:
            raise ValueError("modulus needs at least one prime factor")
        if ps != sorted(set(ps)):
            raise ValueError(f"primes must be strictly increasing, got {ps}")
        for p, n in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if n < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {n}")
        m = prod(p**n for p, n in self.primes)
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if m > MAX_MODULUS:
            raise ValueError(f"m={m} exceeds the dense-representation cap {MAX_MODULUS}")
        object.__setattr__(self, "m", m)

    @staticmethod
    def of(m: int) -> Modulus:
        return Modulus(tuple(factorize(m)))

    # -- basic derived quantities ------------------------------------------

    @property
    def num_primes(self) -> int:
        return len(self.primes)

    @property
    def prime_list(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.primes)

    def prime_power(self, nu: int) -> int:
        p, n = self.primes[nu]
        return p**n

    def m_nu(self, nu: int) -> int:
        """M_nu = m / p_nu**n_nu, the order of the complementary factor."""
        return self.m // self.prime_power(nu)

    def n_nu(self, nu: int) -> int:
        """N_nu = m / p_nu."""
        return self.m // self.primes[nu][0]

    def index_of_prime(self, p: int) -> int:
        for nu, (q, _) in enumerate(self.primes):
            if q == p:
                return nu
        raise ValueError(f"{p} is not a prime of m={self.m}")

    # -- divisor lattice ----------------------------------------------------

    @property
    def divisors(self) -> tuple[int, ...]:
        return self._divisors()

    @lru_cache(maxsize=None)
    def _divisors(self) -> tuple[int, ...]:
        divs = [1]
        for p, n in self.primes:
            divs = [d * p**e for d in divs for e in range(n + 1)]
        return tuple(sorted(divs))

    def divisor_exponents(self, d: int) -> tuple[int, ...]:
        """Exponent vector (alpha_nu) of a divisor d of m."""
        if d < 1 or self.m % d != 0:
            raise ValueError(f"{d} does not divide m={self.m}")
        out = []
        for p, _ in self.primes:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            out.append(e)
        return tuple(out)

    def d_of(self, n_div: int) -> int:
        """D(N): drop one from each positive exponent of the divisor N."""
        alphas = self.divisor_exponents(n_div)
        return prod(p ** max(0, a - 1) for (p, _), a in zip(self.primes, alphas))

    @property
    def d_of_m(self) -> int:
        return self.d_of(self.m)

    # -- gcd machinery ------------------------------------------------------

    @lru_cache(maxsize=None)
    def gcd_table(self) -> np.ndarray:
        """Dense table g[x] = gcd(x, m) with g[0] = m; read-only int64 array."""
        xs = np.arange(self.m, dtype=np.int64)
        out = np.gcd(xs, np.int64(self.m))
        out[0] = self.m
        out.setflags(write=False)
        return out

    @lru_cache(maxsize=None)
    def gcd_class_table(self) -> np.ndarray:
        """Dense table c[x] = index of gcd(x, m) in `divisors`; read-only int64 array."""
        out = np.searchsorted(self.divisors, self.gcd_table()).astype(np.int64)
        out.setflags(write=False)
        return out

    # -- CRT coordinates --------------------------------------------------------

    @lru_cache(maxsize=None)
    def _coord_units(self) -> tuple[int, ...]:
        # u_nu = M_nu * (M_nu^{-1} mod p_nu^{n_nu}); x = sum pi_nu(x) * M_nu
        # is solved by pi_nu(x) = x * inv(M_nu) mod p_nu^{n_nu}.
        units = []
        for nu in range(self.num_primes):
            q = self.prime_power(nu)
            units.append(pow(self.m_nu(nu) % q, -1, q))
        return tuple(units)

    def coord(self, x, nu: int):
        """pi_nu(x) of an integer, or of each entry of an integer array: the
        coordinates 0 <= pi_nu(x) < p_nu^{n_nu} with x = sum pi_nu(x) * M_nu
        mod m."""
        q = self.prime_power(nu)
        return (x % q) * self._coord_units()[nu] % q

    # -- grids and fibers --------------------------------------------------------

    def grid(self, x: int, d: int) -> tuple[int, ...]:
        """Lambda(x, D) = x + D*Z_m, as a sorted tuple of m/D elements."""
        if self.m % d != 0:
            raise ValueError(f"{d} does not divide m={self.m}")
        x %= d
        return tuple(range(x, self.m, d))

    def fiber(self, x: int, nu: int) -> tuple[int, ...]:
        """M-fiber through x in the p_nu direction: Lambda(x, m/p_nu), p_nu points."""
        return self.grid(x, self.n_nu(nu))

    def __repr__(self) -> str:
        fac = "*".join(f"{p}^{n}" if n > 1 else f"{p}" for p, n in self.primes)
        return f"Modulus({self.m}={fac})"

    def __hash__(self) -> int:
        return hash(self.primes)
