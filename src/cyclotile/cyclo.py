"""Cyclotomic polynomials and cyclotomic divisibility of mask polynomials.

Everything here is exact integer arithmetic.  Divisibility of a mask
polynomial A(X) by Phi_s, s | m, is decided by the difference operator

    Phi_s | A  <=>  fold_s(A) * prod_{p | s} (1 - X^{s/p}) == 0  (mod X^s - 1),

where fold_s(A) = A mod X^s - 1 sums the weights over residues mod s.  Why:
X^s - 1 is the product of the distinct Phi_d, d | s.  Every Phi_d with
d | s, d != s, divides some X^{s/p} - 1 (take a prime p with d | s/p),
while Phi_s divides none of them and, being irreducible, is coprime to
their product.  So the product kills every Phi_d-part of fold_s(A) with
d != s and is invertible on the Phi_s-part: what is left vanishes iff
Phi_s | A.  (This is the unit-offset cuboid of Coven-Meyerowitz and the
vanishing-sums framework of Lam-Leung.)  Each factor is one rotation and
one subtraction of a length-s vector, at most three here.

One pass per multiset decides every s | m at once (`_divisor_spectrum`).
The divisors run in descending order and each fold comes from the fold of
a multiple: fold_s = fold_{sp}.reshape(p, s).sum(0) for a prime p with
sp | m, so the length-m vector is folded once, not once per divisor.  The
result is cached on the multiset (its `_spectrum` slot; multisets are
immutable and their weights read-only).  `phi_divides`, `spectrum`, `s_a`,
the (T1)/(T2) checks, `standard_complement_of` and, through `phi_divides`,
the polynomial verifier all read it.

Exactness: every fold is bounded by m * max|A|, and each of the at most
r = (number of primes of m) differences doubles the bound, so every
coefficient stays below m * max|A| * 2^r.  The guard tests that uniform
bound once per multiset: when it reaches 2^62 the folds and the
differences run on Python ints (object dtype) instead of int64, so an
overflow cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .multiset import Multiset
from .zm import Modulus, factorize


@dataclass(frozen=True)
class CycloPoly:
    """The s-th cyclotomic polynomial with exact integer coefficients."""

    s: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at_one(self) -> int:
        """Phi_s(1): p for prime powers p^a, 1 for s with >= 2 primes, 0 for s=1."""
        return sum(self.coeffs)

    def __repr__(self) -> str:
        return f"CycloPoly(s={self.s}, degree={self.degree})"


@lru_cache(maxsize=None)
def cyclotomic(s: int) -> CycloPoly:
    """Phi_s from the Moebius product over the radical, stretched by s/rad(s).

    For squarefree r, Phi_r = prod_{d | r} (X^d - 1)^{mu(r/d)}, and
    Phi_s(X) = Phi_rad(s)(X^{s/rad(s)}).  The factors with mu = +1 are
    multiplied in by shift-subtract; those with mu = -1 are divided out by
    the stride recurrence q[i] = q[i-d] - num[i].  Every such division is
    exact: the running numerator is Phi_r times the factors not yet divided.
    """
    if s < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {s}")
    if s == 1:
        return CycloPoly(1, (-1, 1))
    primes = [p for p, _ in factorize(s)]
    rad = prod(primes)
    times: list[int] = []
    over: list[int] = []
    for d in Modulus.of(rad).divisors:
        # mu(rad/d) = (-1)^(number of primes of rad that d misses)
        (over if sum(d % p != 0 for p in primes) % 2 else times).append(d)
    num = [1]
    for d in times:  # num *= X^d - 1
        num = [0] * d + num
        for i in range(len(num) - d):
            num[i] -= num[i + d]
    for d in over:  # num /= X^d - 1; exact iff the recurrence runs out to zero
        q = [0] * len(num)
        for i, c in enumerate(num):
            q[i] = (q[i - d] if i >= d else 0) - c
        if any(q[-d:]):
            raise AssertionError(f"cyclotomic division for s={s} left a remainder")
        num = q[:-d]
    stretch = s // rad
    coeffs = [0] * ((len(num) - 1) * stretch + 1)
    coeffs[::stretch] = num
    return CycloPoly(s, tuple(coeffs))


@lru_cache(maxsize=None)
def _rotations(s: int) -> tuple[int, ...]:
    """s/p for each prime p | s: the offsets of the difference operator."""
    return tuple(s // p for p, _ in factorize(s))


def _divisor_spectrum(a: Multiset) -> frozenset[int]:
    """Every s | m with s > 1 and Phi_s | A, from one descending fold chain."""
    mod = a.modulus
    w = a.weights
    # the module docstring's uniform exactness bound; past it, Python ints
    if mod.m * max(int(w.max()), -int(w.min())) << mod.num_primes >= 2**62:
        w = w.astype(object)
    primes = mod.prime_list
    folds = {mod.m: w}
    out = []
    for s in reversed(mod.divisors[1:]):
        if s not in folds:
            p = next(p for p in primes if s * p in folds)
            folds[s] = folds[s * p].reshape(p, s).sum(axis=0)
        f = folds[s]
        for k in _rotations(s):
            f = f - np.concatenate((f[-k:], f[:-k]))
        if not f.any():
            out.append(s)
    return frozenset(out)


def _divisors_of(a: Multiset) -> frozenset[int]:
    """The cached spectrum of A, computed on first use."""
    if a._spectrum is None:
        a._spectrum = _divisor_spectrum(a)
    return a._spectrum


def phi_divides(s: int, a: Multiset) -> bool:
    """Exact test of Phi_s | A(X), for s | m with s > 1."""
    m = a.modulus.m
    if s <= 1 or m % s != 0:
        raise ValueError(f"s={s} must be a divisor > 1 of m={m}")
    return s in _divisors_of(a)


# -- spectra and the two tiling conditions ------------------------------------


@dataclass(frozen=True)
class CycloSpectrum:
    """Cyclotomic divisors of a multiset: all of them, and the prime powers S_A."""

    modulus: Modulus
    divisors: frozenset[int]
    prime_powers: frozenset[int]


def spectrum(a: Multiset) -> CycloSpectrum:
    """All s | m with s > 1 and Phi_s | A, plus the prime-power subset S_A."""
    if a.is_zero:
        raise ValueError("spectrum of the zero multiset is undefined")
    return CycloSpectrum(a.modulus, _divisors_of(a), s_a(a))


def s_a(a: Multiset) -> frozenset[int]:
    """S_A: prime powers s | m with Phi_s | A."""
    divs = _divisors_of(a)
    return frozenset(
        p**alpha for p, n in a.modulus.primes for alpha in range(1, n + 1) if p**alpha in divs
    )


def _distinct_prime_products(mod: Modulus, pps: frozenset[int], min_terms: int = 2):
    """Products s_1*...*s_k of prime powers of pairwise distinct primes in pps."""
    choices: list[list[int]] = []
    for p, n in mod.primes:
        mine = [p**a for a in range(1, n + 1) if p**a in pps]
        choices.append(mine)
    # Pick at most one prime power per prime, at least min_terms overall.
    def rec(nu: int, count: int, value: int):
        if nu == len(choices):
            if count >= min_terms:
                yield value
            return
        yield from rec(nu + 1, count, value)
        for s in choices[nu]:
            yield from rec(nu + 1, count + 1, value * s)

    return sorted(set(rec(0, 0, 1)))


def t1_check(a: Multiset) -> bool:
    """(T1): |A| equals the product of Phi_s(1) over s in S_A."""
    if not a.is_set:
        raise ValueError("(T1) is defined for sets")
    pps = s_a(a)
    return len(a) == prod(cyclotomic(s).at_one() for s in pps) if pps else len(a) == 1


def t2_check(a: Multiset) -> bool:
    """(T2): Phi_{s_1...s_k} | A for prime powers of distinct primes in S_A, k >= 2.

    Vacuously true when S_A touches at most one prime.
    """
    if not a.is_set:
        raise ValueError("(T2) is defined for sets")
    return all(phi_divides(s, a) for s in _distinct_prime_products(a.modulus, s_a(a)))


# -- standard tiling complements -----------------------------------------------


def standard_complement(mod: Modulus, families: tuple[frozenset[int] | set[int], ...]) -> Multiset:
    """The structured tile with prescribed prime-power cyclotomic divisors.

    families[nu] is the set of exponents alpha for which Phi_{p_nu^alpha} is to
    divide the result; the mask polynomial is the product of the geometric
    factors 1 + X^{M_nu p^(alpha-1)} + ... + X^{(p-1) M_nu p^(alpha-1)}, so
    its points are the sums of one offset from each factor, built as one outer
    sum.  A collision among those sums would make it a multiset, not a set.
    """
    if len(families) != mod.num_primes:
        raise ValueError("one exponent family per prime required")
    points = np.zeros(1, dtype=np.int64)
    for nu, fam in enumerate(families):
        p, n = mod.primes[nu]
        for alpha in sorted(fam):
            if not 1 <= alpha <= n:
                raise ValueError(f"exponent {alpha} out of range for {p}^{n}")
            step = mod.m_nu(nu) * p ** (alpha - 1)
            points = (points[:, None] + step * np.arange(p)).ravel() % mod.m
    weights = np.bincount(points, minlength=mod.m)
    if weights.max() > 1:
        raise AssertionError("standard complement construction produced a multiset")
    return Multiset(mod, weights)


def standard_complement_of(b: Multiset) -> Multiset:
    """A-flat determined by the complement: exponents whose Phi does not divide B.

    Requires B to look like a tile: |B| must match its own prime-power
    divisors through (T1), otherwise the attribution is ill-defined.
    """
    if not b.is_set:
        raise ValueError("standard complement is defined against a set")
    mod = b.modulus
    pps = s_a(b)
    expected = prod(cyclotomic(s).at_one() for s in pps)
    if len(b) != expected:
        raise ValueError(
            f"input of size {len(b)} cannot be a tile: prime-power divisors "
            f"account for {expected}"
        )
    a_fams = [
        frozenset(alpha for alpha in range(1, n + 1) if p**alpha not in pps)
        for p, n in mod.primes
    ]
    return standard_complement(mod, tuple(a_fams))
