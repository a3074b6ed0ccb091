"""Brute-force oracles: complement search and exhaustive tiling enumeration.

These decide "A tiles Z_m" by explicit exact-cover backtracking, so the rest
of the library can be validated against them.  Subsets are handled as bit
masks (Python ints), filling the least uncovered residue first and pruning
candidates whose differences collide with the divisor set of the fixed side.

Two enumeration engines cover different regimes:

* subset sweep: iterate candidate A of the target size, keep the
  lexicographically least translate, and search complements for each.
* pair search: grow A and B simultaneously, branching over which (a, b)
  covers the least uncovered residue.  Each tiling is reached exactly once
  because the covering pair of a residue is unique in the final tiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd
from typing import Iterable, Iterator

from .multiset import Multiset
from .tiling import TilingInstance
from .zm import Modulus

DEFAULT_MODULUS_CAP = 400
DEFAULT_SWEEP_LIMIT = 20_000_000
DEFAULT_STRUCTURED_LIMIT = 8_000_000


def _rotl(mask: int, s: int, m: int, full: int) -> int:
    s %= m
    return ((mask << s) | (mask >> (m - s))) & full if s else mask


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
    """
    mod = modulus if isinstance(modulus, Modulus) else Modulus.of(modulus)
    m = mod.m
    elems = tuple(sorted(e % m for e in (a.elements() if isinstance(a, Multiset) else a)))
    if len(set(elems)) != len(elems):
        raise ValueError("A must be a set")
    k = len(elems)
    if k == 0 or m % k != 0:
        return []
    target = m // k
    full = (1 << m) - 1
    amask = 0
    for e in elems:
        amask |= 1 << e
    # Forbidden difference set from Div(A): d with gcd(d, m) realized in A - A.
    forbidden = 0
    if use_pruning:
        div_a = set()
        for x in elems:
            for y in elems:
                if x != y:
                    div_a.add(gcd(x - y, m))
        for d in range(1, m):
            if gcd(d, m) in div_a:
                forbidden |= 1 << d
    shifted: list[int | None] = [None] * m
    shifted[0] = amask
    quotas = _equidistribution_quotas(m, target, k) if use_pruning else []
    counts = [[0] * q for q, _ in quotas]

    out: list[tuple[int, ...]] = []
    b_list = [0]

    class _Done(Exception):
        pass

    def rec(covered: int, forbidden_b: int) -> None:
        if covered == full:
            if len(b_list) == target:
                out.append(tuple(sorted(b_list)))
                if limit is not None and len(out) >= limit:
                    raise _Done
            return
        if len(b_list) == target:
            return
        x = _lsb_index(~covered & full)
        for e in elems:
            b = (x - e) % m
            if (forbidden_b >> b) & 1:
                continue
            sh = shifted[b]
            if sh is None:
                sh = shifted[b] = _rotl(amask, b, m, full)
            if sh & covered:
                continue
            if any(counts[i][b % q] >= quota for i, (q, quota) in enumerate(quotas)):
                continue
            for i, (q, _) in enumerate(quotas):
                counts[i][b % q] += 1
            b_list.append(b)
            rec(covered | sh, forbidden_b | _rotl(forbidden, b, m, full) | (1 << b))
            b_list.pop()
            for i, (q, _) in enumerate(quotas):
                counts[i][b % q] -= 1

    for i, (q, _) in enumerate(quotas):
        counts[i][0] += 1
    try:
        rec(amask, forbidden | 1)
    except _Done:
        pass
    return sorted(set(out))


@dataclass(frozen=True)
class EnumerationTask:
    """Exhaustive enumeration request: all tilings of Z_m with |A| = size.

    Results are normalized by translation only: A is the lexicographically
    least translate of its class, B contains 0.
    """

    modulus: Modulus
    size: int
    modulus_cap: int = DEFAULT_MODULUS_CAP
    sweep_limit: int = DEFAULT_SWEEP_LIMIT
    engine: str = "auto"  # auto | sweep | structured | pair


def _structured_count(m: int, k: int) -> int | None:
    """Candidate count for the class-structured sweep, if quotas apply."""
    quotas = _equidistribution_quotas(m, k, m // k)
    if not quotas:
        return None
    q, c = max(quotas)
    per_class = m // q
    return comb(per_class - 1, c - 1) * comb(per_class, c) ** (q - 1)


def enumerate_tilings(task: EnumerationTask) -> Iterator[TilingInstance]:
    """Stream every normalized tiling (A, B) with |A| = task.size."""
    mod = task.modulus
    m, k = mod.m, task.size
    if m > task.modulus_cap:
        raise ValueError(f"m={m} exceeds the enumeration cap {task.modulus_cap}")
    if k < 1 or m % k != 0:
        return
    engine = task.engine
    if engine == "auto":
        plain = comb(m - 1, k - 1)
        structured = _structured_count(m, k)
        if structured is not None and structured < min(plain, DEFAULT_STRUCTURED_LIMIT):
            engine = "structured"
        elif plain <= task.sweep_limit:
            engine = "sweep"
        else:
            engine = "pair"
    if engine == "sweep":
        yield from _enumerate_by_sweep(mod, k, _plain_candidates(mod.m, k))
    elif engine == "structured":
        if _structured_count(m, k) is None:
            raise ValueError("no equidistribution structure for this split")
        yield from _enumerate_by_sweep(mod, k, _structured_candidates(mod.m, k))
    elif engine == "pair":
        yield from _enumerate_by_pair_search(mod, k)
    else:
        raise ValueError(f"unknown engine {engine!r}")


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


def _enumerate_by_sweep(
    mod: Modulus, k: int, candidates: Iterator[tuple[int, ...]]
) -> Iterator[TilingInstance]:
    m = mod.m
    if k == 1:
        yield TilingInstance.from_sets(mod, [0], range(m))
        return
    for a in candidates:
        if _canonical_translate(a, m) != a:
            continue
        for b in find_complements(a, mod):
            yield TilingInstance.from_sets(mod, a, b)


def _enumerate_by_pair_search(mod: Modulus, k: int) -> Iterator[TilingInstance]:
    """Grow A and B together; emit pairs whose A is translation-canonical."""
    m = mod.m
    ka, kb = k, m // k
    full = (1 << m) - 1
    gcd_class = [gcd(x, m) for x in range(m)]
    quotas_a = _equidistribution_quotas(m, ka, kb)
    quotas_b = _equidistribution_quotas(m, kb, ka)
    counts_a = [[0] * q for q, _ in quotas_a]
    counts_b = [[0] * q for q, _ in quotas_b]

    def _quota_ok(counts, quotas, x: int) -> bool:
        return all(counts[i][x % q] < quota for i, (q, quota) in enumerate(quotas))

    def _quota_bump(counts, quotas, x: int, delta: int) -> None:
        for i, (q, _) in enumerate(quotas):
            counts[i][x % q] += delta

    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(
        a_elems: list[int],
        b_elems: list[int],
        amask: int,
        bmask: int,
        covered: int,
        div_a: frozenset[int],
        div_b: frozenset[int],
    ) -> None:
        if covered == full:
            results.append((tuple(sorted(a_elems)), tuple(sorted(b_elems))))
            return
        x = _lsb_index(~covered & full)
        can_add_a = len(a_elems) < ka
        can_add_b = len(b_elems) < kb
        # Covering pair (a, b) with a + b = x; branch on novelty of each part.
        if can_add_b:
            for a in a_elems:
                b = (x - a) % m
                if (bmask >> b) & 1:
                    continue
                _try_add_b(a_elems, b_elems, amask, bmask, covered, div_a, div_b, b)
        if can_add_a:
            for b in b_elems:
                a = (x - b) % m
                if (amask >> a) & 1:
                    continue
                _try_add_a(a_elems, b_elems, amask, bmask, covered, div_a, div_b, a)
        if can_add_a and can_add_b:
            uncovered = ~covered & full
            for a in _bits(uncovered):
                b = (x - a) % m
                if not ((uncovered >> b) & 1):
                    continue
                _try_add_pair(a_elems, b_elems, amask, bmask, covered, div_a, div_b, a, b)

    def _new_divs(elems: list[int], new: int) -> frozenset[int] | None:
        ds = set()
        for e in elems:
            ds.add(gcd_class[(new - e) % m])
        return frozenset(ds)

    def _try_add_a(a_elems, b_elems, amask, bmask, covered, div_a, div_b, a) -> None:
        if not _quota_ok(counts_a, quotas_a, a):
            return
        delta = _rotl(bmask, a, m, full)
        if delta & covered:
            return
        new_ds = _new_divs(a_elems, a)
        if new_ds & div_b:
            return
        a_elems.append(a)
        _quota_bump(counts_a, quotas_a, a, 1)
        rec(a_elems, b_elems, amask | (1 << a), bmask, covered | delta, div_a | new_ds, div_b)
        _quota_bump(counts_a, quotas_a, a, -1)
        a_elems.pop()

    def _try_add_b(a_elems, b_elems, amask, bmask, covered, div_a, div_b, b) -> None:
        if not _quota_ok(counts_b, quotas_b, b):
            return
        delta = _rotl(amask, b, m, full)
        if delta & covered:
            return
        new_ds = _new_divs(b_elems, b)
        if new_ds & div_a:
            return
        b_elems.append(b)
        _quota_bump(counts_b, quotas_b, b, 1)
        rec(a_elems, b_elems, amask, bmask | (1 << b), covered | delta, div_a, div_b | new_ds)
        _quota_bump(counts_b, quotas_b, b, -1)
        b_elems.pop()

    def _try_add_pair(a_elems, b_elems, amask, bmask, covered, div_a, div_b, a, b) -> None:
        if not (_quota_ok(counts_a, quotas_a, a) and _quota_ok(counts_b, quotas_b, b)):
            return
        da = _rotl(bmask, a, m, full) | (1 << ((a + b) % m))
        db = _rotl(amask, b, m, full)
        if (da & covered) or (db & covered) or (da & db):
            return
        ds_a = _new_divs(a_elems, a)
        ds_b = _new_divs(b_elems, b)
        if (ds_a & div_b) or (ds_b & div_a) or (ds_a & ds_b):
            return
        a_elems.append(a)
        b_elems.append(b)
        _quota_bump(counts_a, quotas_a, a, 1)
        _quota_bump(counts_b, quotas_b, b, 1)
        rec(
            a_elems,
            b_elems,
            amask | (1 << a),
            bmask | (1 << b),
            covered | da | db,
            div_a | ds_a,
            div_b | ds_b,
        )
        _quota_bump(counts_a, quotas_a, a, -1)
        _quota_bump(counts_b, quotas_b, b, -1)
        a_elems.pop()
        b_elems.pop()

    _quota_bump(counts_a, quotas_a, 0, 1)
    _quota_bump(counts_b, quotas_b, 0, 1)
    rec([0], [0], 1, 1, 1, frozenset(), frozenset())

    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for a, b in sorted(results):
        if _canonical_translate(a, m) != a:
            continue
        if (a, b) in seen:
            continue
        seen.add((a, b))
        yield TilingInstance.from_sets(mod, a, b)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
