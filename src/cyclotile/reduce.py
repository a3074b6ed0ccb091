"""Fiber shifts, tiling reductions, and the classification pipeline.

A (1,2)-cofibered structure (the complement fibered at scale M/p in some
direction, plus a whole M-fiber of A in that direction) licenses moving that
fiber by a distance of M/p^2 without breaking the tiling or changing the
prime-power cyclotomic divisors.  The reduction engine searches over such
moves for a chain that turns A into a top-scale grid.  Its state is the
support of A plus the per-grid counts bincount(A mod D(M)), and successors
are legal by construction: roots are the full fibers (`fiber_roots`) and
targets sit at M/p^2, so only a collision with A is tested, and a move
updates the counts at two grids.  The classifier dispatches tilings of odd
3-prime square moduli through the structure detectors and reduction
predicates, attaching machine-checked certificates to every branch it
claims.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import cyclo
from .multiset import Multiset
from .search import _canonical_translate
from .structure import (
    classify_unfibered_grid,
    ijk_partition,
    StructureFinding,
    unfibered_grids,
)
from .tiling import TilingInstance, verify_direct, verify_poly, verify_sands
from .zm import Modulus


# -- cofibered structures and fiber shifts --------------------------------------


def is_n_fibered(b: Multiset, n_div: int, nu: int) -> bool:
    """Whether B mod N is a disjoint union of same-multiplicity N-fibers in
    the p_nu direction (every touched fiber coset carries a constant weight)."""
    mod = b.modulus
    p = mod.primes[nu][0]
    if n_div % p != 0 or mod.m % n_div != 0:
        return False
    w = b.reduce_mod(n_div).weights if mod.m != n_div else b.weights
    step = n_div // p
    folded = w.reshape(p, step)
    constant_per_coset = np.all(folded == folded[0], axis=0)
    if not bool(constant_per_coset.all()):
        return False
    vals = set(int(v) for v in folded[0]) - {0}
    return len(vals) <= 1 and bool(vals)


def detect_cofibered(t: TilingInstance, nu: int) -> tuple[tuple[int, ...], ...] | None:
    """(1,2)-cofibered structure in direction nu: B is (M/p_nu)-fibered there
    and A holds at least one full M-fiber.  Returns the A-cofibers (as fiber
    root tuples) or None."""
    mod = t.modulus
    p, n = mod.primes[nu]
    if n != 2:
        return None
    if not is_n_fibered(t.b, mod.m // p, nu):
        return None
    step = mod.m // p
    roots = t.a.fiber_roots(nu).tolist()
    return tuple(tuple(range(r, mod.m, step)) for r in roots) if roots else None


@dataclass(frozen=True)
class ShiftMove:
    """Move the M-fiber rooted at `root` (direction nu) to the fiber of `target`."""

    direction: int
    root: int
    target: int


class ShiftError(ValueError):
    pass


def fiber_shift(t: TilingInstance, move: ShiftMove) -> TilingInstance:
    """Apply one fiber shift and re-verify everything the move must preserve.

    Requires the cofibered structure in the move's direction, a displacement
    of exactly M/p^2, and vacant target cells.  The result is checked by all
    three verifiers and must keep the prime-power spectrum of A; failures
    raise (they indicate an illegal move or a caller bug)."""
    mod = t.modulus
    nu = move.direction
    p, n = mod.primes[nu]
    if n != 2:
        raise ShiftError("fiber shifts require exponent 2 in the shift direction")
    if detect_cofibered(t, nu) is None:
        raise ShiftError(f"no (1,2)-cofibered structure in direction {nu}")
    if mod.gcd_with(move.root - move.target, mod.m) != mod.m // p**2:
        raise ShiftError("target must sit at distance M/p^2 from the fiber")
    if move.root % (mod.m // p) not in t.a.fiber_roots(nu):
        raise ShiftError("the declared fiber is not contained in A")
    remaining = set(t.a.support()).difference(mod.fiber(move.root, nu))
    new_fiber = mod.fiber(move.target, nu)
    if not remaining.isdisjoint(new_fiber):
        raise ShiftError("target fiber collides with A")
    new_a = Multiset.from_set(mod, sorted(remaining.union(new_fiber)))
    out = TilingInstance(mod, new_a, t.b)
    if not (verify_direct(out) and verify_poly(out) and verify_sands(out)):
        raise ShiftError("shift destroyed the tiling; caller bug")
    if cyclo.s_a(new_a) != cyclo.s_a(t.a):
        raise ShiftError("shift changed the prime-power spectrum; caller bug")
    return out


# -- reduction to a grid -----------------------------------------------------------


@dataclass(frozen=True)
class ReductionTrace:
    """A verified chain of fiber shifts ending in a top-scale grid."""

    start: TilingInstance
    moves: tuple[ShiftMove, ...]
    final: TilingInstance
    verdicts: tuple[bool, ...]
    spectra: tuple[frozenset[int], ...]

    @property
    def ok(self) -> bool:
        return all(self.verdicts) and len(set(self.spectra)) <= 1


def reduce_to_grid(t: TilingInstance, budget: int = 10_000) -> ReductionTrace | None:
    """Best-first search over fiber shifts until A becomes a D(M)-grid.

    Move priority prefers shifts whose target's saturating set lies on a
    single line through the target (the cofiber signature) and targets on the
    fullest grid.  Returns a fully re-verified trace, or None when the budget
    is exhausted (grids unreachable for slab-type instances).
    """
    if not verify_direct(t):
        raise ValueError("reduction requires a verified tiling")
    mod = t.modulus
    m, d = mod.m, mod.d_of_m
    start = frozenset(t.a.support())
    start_counts = np.bincount(np.fromiter(start, dtype=np.int64) % d, minlength=d)

    def is_grid(counts: np.ndarray) -> bool:
        return counts.max() == len(start) == m // d

    if is_grid(start_counts):
        return _build_trace(t, ())

    gcd_tab = mod.gcd_table()
    in_div_b = np.zeros(m + 1, dtype=bool)
    in_div_b[list(t.div_b())] = True
    # Fixed by the start: a direction where A has no full fiber stays out.
    cofiber_dirs = [nu for nu in range(mod.num_primes) if detect_cofibered(t, nu)]

    def successors(support: frozenset[int], counts: np.ndarray):
        """Every move from a state, best first, with the support and per-grid
        counts it leads to.  Roots are full fibers and targets sit at M/p^2,
        so the only test left is that the target fiber is vacant."""
        sup = np.fromiter(support, dtype=np.int64)
        occupied = Multiset.from_set(mod, support)
        out = []
        for nu in cofiber_dirs:
            p = mod.primes[nu][0]
            step, dist, line_step = m // p, m // p**2, mod.m_nu(nu)
            for r in occupied.fiber_roots(nu).tolist():
                rest = support.difference(range(r, m, step))
                for u in range(1, p * p):
                    if u % p == 0:
                        continue
                    target = (r + u * dist) % m
                    new_fiber = range(target % step, m, step)
                    if not rest.isdisjoint(new_fiber):
                        continue
                    nxt_counts = counts.copy()
                    nxt_counts[r % d] -= p
                    nxt_counts[target % d] += p
                    score = -int(nxt_counts.max())
                    # The target's saturating set on one line through it: the
                    # lemma-backed move, strongly preferred.
                    sat = sup[in_div_b[gcd_tab[(target - sup) % m]]]
                    if sat.size and not ((sat - target) % line_step).any():
                        score -= m
                    move = ShiftMove(nu, r, target)
                    out.append((score, move, rest.union(new_fiber), nxt_counts))
        out.sort(key=lambda c: (c[0], c[1].direction, c[1].root, c[1].target))
        return out

    seen = {_canonical_translate(start, m)}
    heap = [(-int(start_counts.max()), 0, start, start_counts, ())]
    counter = 0
    expanded = 0
    while heap and expanded < budget:
        _, _, support, counts, path = heapq.heappop(heap)
        expanded += 1
        for score, move, nxt, nxt_counts in successors(support, counts):
            key = _canonical_translate(nxt, m)
            if key in seen:
                continue
            seen.add(key)
            if is_grid(nxt_counts):
                return _build_trace(t, path + (move,))
            counter += 1
            heapq.heappush(heap, (score, counter, nxt, nxt_counts, path + (move,)))
    return None


def _build_trace(t: TilingInstance, moves: tuple[ShiftMove, ...]) -> ReductionTrace:
    verdicts = [verify_direct(t) and verify_poly(t) and verify_sands(t)]
    spectra = [cyclo.s_a(t.a)]
    cur = t
    for mv in moves:
        cur = fiber_shift(cur, mv)  # re-verifies everything
        verdicts.append(True)
        spectra.append(cyclo.s_a(cur.a))
    return ReductionTrace(t, moves, cur, tuple(verdicts), tuple(spectra))


# -- subgroup and slab reductions ----------------------------------------------------


def subgroup_reduction_applies(t: TilingInstance) -> int | None:
    """Direction nu with A inside p_nu * Z_M and p_nu exactly dividing |B|."""
    mod = t.modulus
    size_b = len(t.b)
    for nu, (p, _) in enumerate(mod.primes):
        if all(a % p == 0 for a in t.a.support()):
            if size_b % p == 0 and size_b % p**2 != 0:
                return nu
    return None


def subtile_condition(t: TilingInstance, nu: int) -> bool:
    """Divisibility alternative characterizing slab extraction.

    For every d with p_nu^{n_nu} | d | M: either Phi_d | A, or the full chain
    Phi_{d/p} ... Phi_{d/p^{n_nu}} divides B.  Requires Phi_{p^{n_nu}} | A.
    """
    mod = t.modulus
    p, n = mod.primes[nu]
    if not cyclo.phi_divides(p**n, t.a):
        raise ValueError(f"Phi_{p**n} does not divide A; the condition is undefined")
    for d in mod.divisors:
        if d % p**n != 0:
            continue
        if cyclo.phi_divides(d, t.a):
            continue
        if all(cyclo.phi_divides(d // p**j, t.b) for j in range(1, n + 1) if d // p**j > 1):
            continue
        return False
    return True


def slab_extract(t: TilingInstance, nu: int) -> list[TilingInstance]:
    """Slab instances over Z_{M/p_nu}: for each coordinate translate of A,
    keep the elements with nu-digit below p^{n-1} and reduce mod M/p."""
    mod = t.modulus
    p, n = mod.primes[nu]
    out = []
    sub = Modulus.of(mod.m // p)
    for shift in range(p**n):
        translated = t.a.translate(shift * mod.m_nu(nu))
        kept = [
            a
            for a in translated.support()
            if 0 <= mod.array_coords(a)[nu] <= p ** (n - 1) - 1
        ]
        a_red = [a % (mod.m // p) for a in kept]
        b_red_w = t.b.reduce_mod(mod.m // p)
        if len(set(a_red)) != len(a_red) or not b_red_w.is_set:
            # Non-injective reduction cannot be a tiling; record as plain sets
            # via weights so the verifier can reject it.
            a_ms = Multiset.from_pairs(sub, [(x, 1) for x in a_red])
            out.append(TilingInstance(sub, a_ms, b_red_w))
            continue
        out.append(TilingInstance(sub, Multiset.from_set(sub, a_red), b_red_w))
    return out


def slab_instances_verify(t: TilingInstance, nu: int) -> bool:
    """Whether every translate slab tiles Z_{M/p_nu} (the direct side of the
    slab equivalence)."""
    for inst in slab_extract(t, nu):
        if not (inst.a.is_set and inst.b.is_set):
            return False
        if not verify_direct(inst):
            return False
    return True


# -- the classification pipeline ------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    branch: str  # unfibered-grid | fibered-triple-grid | slab-reduction |
    #              subgroup-reduction | swapped-slab-reduction | generic | unresolved
    swapped: bool
    direction: int | None
    structures: tuple[StructureFinding, ...]
    trace: ReductionTrace | None
    t2_a: bool | None
    t2_b: bool | None
    standard_cross_check: bool | None
    notes: tuple[str, ...] = ()

    @property
    def resolved(self) -> bool:
        return self.branch not in ("unresolved", "generic")


def _certify(t: TilingInstance) -> tuple[bool, bool, bool]:
    """(T2 for A, T2 for B, standard-complement cross-check)."""
    t2a = cyclo.t2_check(t.a)
    t2b = cyclo.t2_check(t.b)
    flat = cyclo.standard_complement_of(t.b)
    cross = verify_direct(TilingInstance(t.modulus, flat, t.b)) == t2b
    return t2a, t2b, cross


def classify(t: TilingInstance, budget: int = 10_000) -> ClassificationReport:
    """Dispatch a tiling of an odd 3-prime square modulus to a certified branch.

    The pipeline follows the unfibered/fibered case split: an unfibered
    top-scale grid routes through structure detection and the shift-search;
    fully fibered tilings split on the triple intersection of the fiber
    membership sets, then on single-direction fibering (slab), and finally on
    the low-scale divisors of A (swapped slab / subgroup).  Every claimed
    branch carries machine-checked (T2) verdicts for both sides plus the
    standard-complement cross-check; instances outside the preconditions get
    a generic report, and budget exhaustion reports as unresolved.
    """
    t = t.canonical()
    mod = t.modulus
    notes: list[str] = []
    odd_square = (
        mod.num_primes == 3
        and all(p % 2 == 1 for p, _ in mod.primes)
        and all(n == 2 for _, n in mod.primes)
    )
    pq = 1
    for p, _ in mod.primes:
        pq *= p
    sizes_ok = len(t.a) == pq and len(t.b) == pq
    if not verify_direct(t):
        raise ValueError("classification requires a verified tiling")
    swapped = False
    if not cyclo.phi_divides(mod.m, t.a):
        if cyclo.phi_divides(mod.m, t.b):
            t = t.transpose()
            swapped = True
            notes.append("sides interchanged so the top cyclotomic divides A")
        else:
            raise AssertionError("Phi_M divides neither side of a tiling")

    def certified(
        branch: str,
        cert: TilingInstance,
        direction: int | None = None,
        structures: tuple[StructureFinding, ...] = (),
        trace: ReductionTrace | None = None,
    ) -> ClassificationReport | None:
        """The report claiming `branch` when (T2) holds on both sides of
        `cert`, else None."""
        t2a, t2b, cross = _certify(cert)
        if not (t2a and t2b):
            return None
        return ClassificationReport(
            branch, swapped, direction, structures, trace, t2a, t2b, cross, tuple(notes)
        )

    def unresolved(
        note: str,
        direction: int | None = None,
        structures: tuple[StructureFinding, ...] = (),
        trace: ReductionTrace | None = None,
    ) -> ClassificationReport:
        notes.append(note)
        return ClassificationReport(
            "unresolved", swapped, direction, structures, trace, None, None, None, tuple(notes)
        )

    if not (odd_square and sizes_ok):
        t2a, t2b, cross = _certify(t)
        notes.append("preconditions for the 3-prime odd-square pipeline not met")
        return ClassificationReport(
            "generic", swapped, None, (), None, t2a, t2b, cross, tuple(notes)
        )

    structures: list[StructureFinding] = []
    unfibered = unfibered_grids(t.a)
    if unfibered:
        finding = classify_unfibered_grid(t.a, unfibered[0])
        structures.append(finding)
        trace = reduce_to_grid(t, budget)
        if trace is not None and trace.ok:
            report = certified("unfibered-grid", trace.final, None, tuple(structures), trace)
            if report:
                return report
        return unresolved(
            "shift search did not reach a grid within budget", None, tuple(structures), trace
        )

    # Fibered case: every nonempty grid is fibered in at least one direction.
    part = ijk_partition(t)
    if part.triple:
        trace = reduce_to_grid(t, budget)
        if trace is not None and trace.ok:
            report = certified("fibered-triple-grid", trace.final, trace=trace)
            if report:
                return report
        return unresolved(
            "triple intersection present but grid unreachable in budget", trace=trace
        )

    support = frozenset(t.a.support())
    for nu in range(3):
        if part.set_for(nu) == support:
            # A is M-fibered in a single direction: slab route.
            if subtile_condition(t, nu) and slab_instances_verify(t, nu):
                report = certified("slab-reduction", t, nu)
                if report:
                    return report
            return unresolved(f"single-direction fibering in {nu} failed slab checks", nu)

    empties = [nu for nu in range(3) if not part.set_for(nu)]
    for nu in empties:
        others = [k for k in range(3) if k != nu]
        j, k = others
        if not (part.set_for(j) - part.set_for(k)) or not (
            part.set_for(k) - part.set_for(j)
        ):
            continue
        p = mod.primes[nu][0]
        if cyclo.phi_divides(p, t.a) and cyclo.phi_divides(p**2, t.b):
            swapped_t = t.transpose()
            if subtile_condition(swapped_t, nu) and slab_instances_verify(swapped_t, nu):
                report = certified("swapped-slab-reduction", t, nu)
                if report:
                    return report
        if cyclo.phi_divides(p**2, t.a):
            sub_nu = subgroup_reduction_applies(t)
            if sub_nu is not None:
                report = certified("subgroup-reduction", t, sub_nu)
                if report:
                    return report
    return unresolved("no pipeline branch produced a certificate")
