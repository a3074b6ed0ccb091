"""Brute-force oracles: complement search and exhaustive tiling enumeration.

These decide "A tiles Z_m" by explicit exact-cover backtracking, so the rest
of the library can be validated against them.  Subsets are handled as bit
masks (Python ints), filling the least uncovered residue first and pruning
candidates whose differences collide with the divisor set of the fixed side.

Enumeration is one subset sweep: iterate candidate A of the smaller side's
size, keep the lexicographically least translate, and search complements
for each.  When |A| > m/|A| the swept pairs are swapped back (see
`enumerate_tilings`).  Least translates come from one batched array kernel,
`least_translates`: the least rotation of each row's cyclic gap sequence,
compared a packed word of gaps at a time.  The sweep keys its candidates
`SWEEP_CHUNK` at a time, the swapped branch keys all its B at once, and the
fiber-shift search in `cyclotile.reduce` keys every successor of a state in
one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from math import comb, gcd
from typing import Callable, Iterable, Iterator

import numpy as np

from .multiset import Multiset
from .tiling import TilingInstance
from .zm import Modulus, factorize

MODULUS_CAP = 400
STRUCTURED_LIMIT = 8_000_000
# find_complements keeps up to 2m + 3m/|A| masks of m bits alive: 160 MB here.
COMPLEMENT_MODULUS_CAP = 1 << 14
# Candidates keyed per least_translates call in the enumeration sweep.
SWEEP_CHUNK = 256


def _lsb_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def least_translates(rows: np.ndarray, m: int) -> np.ndarray:
    """The lexicographically least translate of each row of a K x n array of
    sorted subsets of Z_m (strictly increasing rows); every result row
    starts at 0.

    The translate starting at a row's i-th element is the run of partial
    sums of its cyclic gap sequence rotated to start at i, and partial sums
    of positive gaps order as the gaps do: the least rotation gives the
    answer.  Gaps lie in [1, m], so w = 63 // m.bit_length() of them (at
    most n) pack into one nonnegative int64 word, the first gap most
    significant, and comparing the words of two rotations compares w gaps
    at a time in lexicographic order (4 gaps a word at m = 11025).  Word j
    of the rotation at i is the packed word at gap i + j*w (mod n).  Word
    by word, each row keeps the candidate starts whose word is least; only
    rows that still have more than one candidate take the next word.
    Words past the n-th gap read the cyclic continuation, which agrees
    between two rotations that agree on n gaps.  A row still tied after n
    gaps is periodic, and every surviving start gives the same translate.
    The row is then translated by its start, reduced mod m and sorted.
    """
    rows = np.asarray(rows, dtype=np.int64)
    k, n = rows.shape
    if n == 0:
        return rows.copy()
    bits = m.bit_length()
    w = min(63 // bits, n)
    # Gap-major (row i holds gap i of every set), so each step below runs
    # on contiguous blocks; words[i] packs gaps i, ..., i + w - 1 (mod n).
    gaps = np.empty((n, k), dtype=np.int64)
    np.subtract(rows[:, 1:].T, rows[:, :-1].T, out=gaps[:-1])
    np.subtract(rows[:, 0] + m, rows[:, -1], out=gaps[-1])
    words = gaps.copy()
    for t in range(1, w):
        words <<= bits
        words[: n - t] |= gaps[t:]
        words[n - t :] |= gaps[:t]
    del gaps
    words = words.T
    cols = np.arange(n)
    alive = words == words.min(axis=1, keepdims=True)
    best = alive.argmax(axis=1)
    left = np.flatnonzero(np.count_nonzero(alive, axis=1) > 1)
    alive = alive[left]
    for j in range(w, n, w):
        if not left.size:
            break
        vals = words[left[:, None], (cols + j) % n]
        vals[~alive] = np.iinfo(np.int64).max
        alive &= vals == vals.min(axis=1, keepdims=True)
        best[left] = alive.argmax(axis=1)
        tied = np.count_nonzero(alive, axis=1) > 1
        left, alive = left[tied], alive[tied]
    out = rows - rows[np.arange(k), best][:, None]
    out %= m
    out.sort(axis=1)
    return out


def _equidistribution_quotas(m: int, own: int, other: int) -> list[tuple[int, int]]:
    """(modulus p^a, per-class quota) constraints forced on a tile of size `own`.

    If p^a exactly divides m and p does not divide the complement's size,
    every character of p-power order must vanish on this side, so its
    elements are equidistributed mod p^a.  (A nonnegative multiset on Z_{p^j}
    killed by the primitive p^j-th roots is a combination of step-p^{j-1}
    fibers, hence has size divisible by p; the complement avoids that.)
    """
    out = []
    for p, a in factorize(m):
        q = p**a
        if other % p != 0 and own % q == 0:
            out.append((q, own // q))
    return out


def _rotations(mask: int, m: int) -> list[int]:
    """The m cyclic left rotations of an m-bit mask, indexed by the shift."""
    doubled = mask | (mask << m)
    full = (1 << m) - 1
    return [(doubled >> (m - s)) & full for s in range(m)]


@lru_cache(maxsize=None)
def _gcd_classes(m: int) -> dict[int, int]:
    """For each g = gcd(d, m) with 0 < d < m, the mask of those d."""
    masks: dict[int, int] = {}
    for d in range(1, m):
        g = gcd(d, m)
        masks[g] = masks.get(g, 0) | (1 << d)
    return masks


def find_complements(
    a: Iterable[int] | Multiset,
    modulus: Modulus | int,
    limit: int | None = None,
    use_pruning: bool = True,
) -> list[tuple[int, ...]]:
    """All B containing 0 with A (+) B = Z_m, by exact-cover backtracking.

    Candidates for the least uncovered residue are pruned when a difference
    to an already chosen element lands in Div(A) (divisor exclusion), by
    translate-collision with the partial cover, and by the equidistribution
    quotas a complement must obey.  Returns sorted tuples in deterministic
    order; empty list means A is not a tile.  `limit` stops the search early
    (useful as a pure existence test); use_pruning=False drops every
    theorem-derived prune and leaves the bare exact cover (for agreement
    tests that must not share logic with the divisor-based verifier).

    The search is depth-first over an explicit stack with one frame per
    chosen element of B, so |B| is not bounded by the recursion limit.
    """
    mod = modulus if isinstance(modulus, Modulus) else Modulus.of(modulus)
    m = mod.m
    if m > COMPLEMENT_MODULUS_CAP:
        raise ValueError(f"m={m} exceeds the complement-search cap {COMPLEMENT_MODULUS_CAP}")
    elems = tuple(sorted(e % m for e in (a.elements() if isinstance(a, Multiset) else a)))
    if len(set(elems)) != len(elems):
        raise ValueError("A must be a set")
    k = len(elems)
    if k == 0 or m % k != 0:
        return []
    if k == m:
        return [(0,)]
    full = (1 << m) - 1
    # Bit 0 stands for b = 0: rotated by b, it bans b itself once chosen.
    forbidden = 1
    if use_pruning:
        # Divisor exclusion: d is forbidden when gcd(d, m) is realized in A - A.
        by_gcd = _gcd_classes(m)
        for g in {gcd(x - y, m) for x in elems for y in elems if x != y}:
            forbidden |= by_gcd[g]
    shifted = _rotations(sum(1 << e for e in elems), m)
    banned_by = _rotations(forbidden, m)
    # (q, quota, mask of the class of 0 mod q): a class that holds its quota
    # of B is banned.
    quotas = [
        (q, quota, full // ((1 << q) - 1))
        for q, quota in (_equidistribution_quotas(m, m // k, k) if use_pruning else [])
    ]

    def banned_after(b: int, chosen: int, banned: int) -> int:
        banned |= banned_by[b]
        for q, quota, zero_class in quotas:
            same_class = zero_class << (b % q)
            if (chosen & same_class).bit_count() == quota:
                banned |= same_class
        return banned

    def candidates(covered: int, banned: int) -> Iterator[int]:
        """The b for which A + b covers the least uncovered residue."""
        x = _lsb_index(~covered & full)
        return iter(
            [b for b in [(x - e) % m for e in elems] if not (banned >> b) & 1 and not shifted[b] & covered]
        )

    out: list[tuple[int, ...]] = []
    covered, banned = shifted[0], banned_after(0, 1, 0)
    # Frames: (cover, banned residues, chosen B as a mask, candidates left).
    stack = [(covered, banned, 1, candidates(covered, banned))]
    while stack:
        covered, banned, chosen, todo = stack[-1]
        b = next(todo, None)
        if b is None:
            stack.pop()
            continue
        covered |= shifted[b]
        chosen |= 1 << b
        if covered == full:
            out.append(tuple(x for x in range(m) if (chosen >> x) & 1))
            if limit is not None and len(out) >= limit:
                break
        else:
            banned = banned_after(b, chosen, banned)
            stack.append((covered, banned, chosen, candidates(covered, banned)))
    return sorted(out)


@dataclass(frozen=True)
class EnumerationTask:
    """Exhaustive enumeration request: all tilings of Z_m with |A| = size.

    Results are normalized by translation only: A is the lexicographically
    least translate of its class, B contains 0.
    """

    modulus: Modulus
    size: int


def _candidate_stream(m: int, k: int) -> tuple[Iterator[tuple[int, ...]], Callable]:
    """Candidate A of size k containing 0, and the sort key of their order.

    The structured stream is taken when it is shorter than the plain one
    and than STRUCTURED_LIMIT.  It yields A grouped by class mod q, so A
    comes in the order of its elements sorted by (x mod q, x).
    """
    quotas = _equidistribution_quotas(m, k, m // k)
    if quotas:
        q, c = max(quotas)
        per_class = m // q
        structured = comb(per_class - 1, c - 1) * comb(per_class, c) ** (q - 1)
        if structured < min(comb(m - 1, k - 1), STRUCTURED_LIMIT):
            return _structured_candidates(m, k), lambda a: sorted(a, key=lambda x: (x % q, x))
    return _plain_candidates(m, k), tuple


def enumerate_tilings(task: EnumerationTask) -> Iterator[TilingInstance]:
    """Stream every normalized tiling (A, B) with |A| = task.size.

    Tilings come in the order of the candidate stream for |A|, then B
    ascending.  When |A| > m/|A|, the sweep runs over the smaller side
    instead: for each swept tiling (A', B') it emits (least translate of
    B', A' - s) for every s in A'.  That is complete, because complements
    of a translate are translates of complements: if (A, B) is normalized,
    the sweep finds A' = B - t, the least translate of B, together with the
    complement A - a for each a in A, and s = -t gives back (A, B).  So
    each tiling is reached at least once per a in A; duplicates are dropped.
    """
    mod = task.modulus
    m, k = mod.m, task.size
    if m > MODULUS_CAP:
        raise ValueError(f"m={m} exceeds the enumeration cap {MODULUS_CAP}")
    if k < 1 or m % k != 0:
        return
    candidates, _ = _candidate_stream(m, min(k, m // k))
    pairs = _sweep(mod, candidates)
    if k * k > m:
        _, key = _candidate_stream(m, k)
        pairs = list(pairs)
        bs = np.array([b for _, b in pairs], dtype=np.int64).reshape(len(pairs), k)
        swapped = {
            (tuple(b), tuple(sorted((x - s) % m for x in a)))
            for (a, _), b in zip(pairs, least_translates(bs, m).tolist())
            for s in a
        }
        pairs = sorted(swapped, key=lambda ab: (key(ab[0]), ab[1]))
    for a, b in pairs:
        yield TilingInstance.from_sets(mod, a, b)


def _plain_candidates(m: int, k: int) -> Iterator[tuple[int, ...]]:
    for rest in combinations(range(1, m), k - 1):
        yield (0, *rest)


def _structured_candidates(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Candidates satisfying the strongest equidistribution quota: pick the
    required number of elements inside every class mod q independently."""
    quotas = _equidistribution_quotas(m, k, m // k)
    q, c = max(quotas)
    class_members = [list(range(r, m, q)) for r in range(q)]
    zero_class = [
        (0, *rest) for rest in combinations(class_members[0][1:], c - 1)
    ]
    other = [list(combinations(class_members[r], c)) for r in range(1, q)]
    for head in zero_class:
        for picks in product(*other):
            yield tuple(sorted(head + tuple(x for pick in picks for x in pick)))


def _sweep(
    mod: Modulus, candidates: Iterator[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(A, B) for every candidate A that is its own least translate."""
    while chunk := list(islice(candidates, SWEEP_CHUNK)):
        rows = np.array(chunk, dtype=np.int64)
        least = (least_translates(rows, mod.m) == rows).all(axis=1)
        for a, keep in zip(chunk, least.tolist()):
            if keep:
                for b in find_complements(a, mod):
                    yield a, b
