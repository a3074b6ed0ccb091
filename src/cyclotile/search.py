"""Brute-force oracles: complement search and exhaustive tiling enumeration.

These decide "A tiles Z_m" by explicit exact-cover backtracking, so the rest
of the library can be validated against them.  Subsets are handled as bit
masks (Python ints), filling the least uncovered residue first and pruning
candidates whose differences collide with the divisor set of the fixed side.

Enumeration is one subset sweep: iterate candidate A of the smaller side's
size, keep the lexicographically least translate, and search complements
for each.  When |A| > m/|A| the swept pairs are swapped back (see
`enumerate_tilings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd
from typing import Callable, Iterable, Iterator

from .multiset import Multiset
from .tiling import TilingInstance
from .zm import Modulus

MODULUS_CAP = 400
STRUCTURED_LIMIT = 8_000_000
# find_complements keeps up to 2m + 3m/|A| masks of m bits alive: 160 MB here.
COMPLEMENT_MODULUS_CAP = 1 << 14


def _lsb_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _canonical_translate(elems: Iterable[int], m: int) -> tuple[int, ...]:
    """Lexicographically least translate of a subset of Z_m (it starts at 0).

    The translate starting at the i-th smallest element is the run of partial
    sums of the cyclic gap sequence rotated to start at i, and partial sums of
    positive gaps order as the gaps do: the least rotation gives the answer.
    """
    xs = sorted(e % m for e in elems)
    if not xs:
        return ()
    gaps = [y - x for x, y in zip(xs, xs[1:])] + [xs[0] + m - xs[-1]]
    i = min(range(len(xs)), key=lambda i: gaps[i:] + gaps[:i])
    return tuple((x - xs[i]) % m for x in xs[i:] + xs[:i])


def _equidistribution_quotas(m: int, own: int, other: int) -> list[tuple[int, int]]:
    """(modulus p^a, per-class quota) constraints forced on a tile of size `own`.

    If p^a exactly divides m and p does not divide the complement's size,
    every character of p-power order must vanish on this side, so its
    elements are equidistributed mod p^a.  (A nonnegative multiset on Z_{p^j}
    killed by the primitive p^j-th roots is a combination of step-p^{j-1}
    fibers, hence has size divisible by p; the complement avoids that.)
    """
    from .zm import factorize

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
        swapped = {
            (_canonical_translate(b, m), tuple(sorted((x - s) % m for x in a)))
            for a, b in pairs
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
    for a in candidates:
        if _canonical_translate(a, mod.m) == a:
            for b in find_complements(a, mod):
                yield a, b
