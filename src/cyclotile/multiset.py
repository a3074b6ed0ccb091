"""Weighted multisets on Z_M, doubling as mask polynomials mod X^M - 1.

A multiset stores a dense integer weight vector indexed by group element;
0/1 weights make it a set.  Negative weights are allowed: the difference of
two mask polynomials is again a multiset here.

Multisets are immutable; all operations return fresh objects.  The weight
vector is read-only, so a multiset caches what is derived from it: its hash,
whether it is a set, its cyclotomic spectrum (the set of s | m with
Phi_s | A), which `cyclotile.cyclo` computes in one pass on the first
cyclotomic query and stores in the `_spectrum` slot, and its divisor set
Div(A), which `cyclotile.tiling.div_set` stores in the `_div` slot.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .zm import Modulus


class Multiset:
    """Integer weight function on Z_m; the mask polynomial sum w(x) X^x."""

    __slots__ = ("modulus", "weights", "_hash", "_is_set", "_spectrum", "_div")

    def __init__(self, modulus: Modulus, weights: np.ndarray | Iterable[int]):
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != (modulus.m,):
            raise ValueError(f"weight vector must have length {modulus.m}, got {w.shape}")
        w = w.copy()
        w.setflags(write=False)
        self.modulus = modulus
        self.weights = w
        self._hash: int | None = None
        self._is_set: bool | None = None
        self._spectrum: frozenset[int] | None = None
        self._div: frozenset[int] | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_set(modulus: Modulus, elements: Iterable[int]) -> Multiset:
        w = np.zeros(modulus.m, dtype=np.int64)
        elems = [e % modulus.m for e in elements]
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate elements in set constructor")
        w[elems] = 1
        return Multiset(modulus, w)

    @staticmethod
    def from_pairs(modulus: Modulus, pairs: Iterable[tuple[int, int]]) -> Multiset:
        w = np.zeros(modulus.m, dtype=np.int64)
        for x, c in pairs:
            w[x % modulus.m] += c
        return Multiset(modulus, w)

    @staticmethod
    def delta(modulus: Modulus, x: int = 0) -> Multiset:
        return Multiset.from_pairs(modulus, [(x, 1)])

    @staticmethod
    def zero(modulus: Modulus) -> Multiset:
        return Multiset(modulus, np.zeros(modulus.m, dtype=np.int64))

    @staticmethod
    def full(modulus: Modulus) -> Multiset:
        return Multiset(modulus, np.ones(modulus.m, dtype=np.int64))

    @staticmethod
    def fiber(modulus: Modulus, nu: int, root: int = 0) -> Multiset:
        """The M-fiber root * F_nu: p_nu points spaced m/p_nu apart."""
        return Multiset.from_set(modulus, modulus.fiber(root, nu))

    # -- views ----------------------------------------------------------------

    @property
    def total(self) -> int:
        """A(1), the weight sum."""
        return int(self.weights.sum(dtype=object))

    @property
    def is_set(self) -> bool:
        if self._is_set is None:
            self._is_set = bool(np.all((self.weights == 0) | (self.weights == 1)))
        return self._is_set

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.weights == 0))

    def support(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.weights))

    def elements(self) -> tuple[int, ...]:
        """Sorted members; requires 0/1 weights."""
        if not self.is_set:
            raise ValueError("multiset has weights outside {0,1}")
        return self.support()

    def fiber_roots(self, nu: int) -> np.ndarray:
        """Sorted roots r < m/p_nu whose M-fiber r + (m/p_nu)*Z_m lies in the
        support; row i of the reshape holds the points r + i*m/p_nu."""
        p = self.modulus.primes[nu][0]
        return np.flatnonzero((self.weights != 0).reshape(p, -1).all(axis=0))

    def weight(self, x: int) -> int:
        return int(self.weights[x % self.modulus.m])

    def __contains__(self, x: int) -> bool:
        return self.weights[x % self.modulus.m] != 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self.weights))

    # -- algebra ----------------------------------------------------------------

    def _check_same_modulus(self, other: Multiset) -> None:
        if self.modulus.m != other.modulus.m:
            raise ValueError(
                f"modulus mismatch: {self.modulus.m} vs {other.modulus.m}"
            )

    def add(self, other: Multiset) -> Multiset:
        self._check_same_modulus(other)
        return Multiset(self.modulus, self.weights + other.weights)

    def scale(self, c: int) -> Multiset:
        return Multiset(self.modulus, self.weights * int(c))

    def convolve(self, other: Multiset) -> Multiset:
        """Weighted sumset A*B: cyclic convolution of the weight vectors."""
        self._check_same_modulus(other)
        m = self.modulus.m
        a, b = self.weights, other.weights
        # Iterate over the sparser support; dense cyclic convolution via roll.
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        out = np.zeros(m, dtype=np.int64)
        for x in np.flatnonzero(a):
            out += a[x] * np.roll(b, int(x))
        return Multiset(self.modulus, out)

    def translate(self, x: int) -> Multiset:
        """x * A, the multiset shifted by x."""
        return Multiset(self.modulus, np.roll(self.weights, int(x) % self.modulus.m))

    def reduce_mod(self, n_div: int) -> Multiset:
        """Induced multiset mod N (N | m): fold weights along residues."""
        m = self.modulus.m
        if n_div < 2 or m % n_div != 0:
            raise ValueError(f"{n_div} is not a divisor >= 2 of m={m}")
        if n_div == m:
            return self
        folded = self.weights.reshape(m // n_div, n_div).sum(axis=0)
        return Multiset(Modulus.of(n_div), folded)

    def restrict(self, window: Iterable[int]) -> Multiset:
        """Multiset equal to A on the window and 0 elsewhere."""
        w = np.zeros(self.modulus.m, dtype=np.int64)
        idx = np.asarray([x % self.modulus.m for x in window], dtype=np.int64)
        w[idx] = self.weights[idx]
        return Multiset(self.modulus, w)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.modulus.m == other.modulus.m and bool(
            np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.modulus.m, self.weights.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        if self.is_set and len(self) <= 12:
            return f"Multiset(Z_{self.modulus.m}, {{{', '.join(map(str, self.elements()))}}})"
        return f"Multiset(Z_{self.modulus.m}, {len(self)} points, total={self.total})"
