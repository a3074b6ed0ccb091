"""Fiber shifts, tiling reductions, and the classification pipeline.

A (1,2)-cofibered structure (the complement fibered at scale M/p in some
direction, plus a whole M-fiber of A in that direction) licenses moving that
fiber by a distance of M/p^2 without breaking the tiling or changing the
prime-power cyclotomic divisors.  The reduction engine searches over such
moves for a chain that turns A into a top-scale grid.  Its state is the
support of A as a sorted int64 array.  Moves are legal by construction:
roots are the full fibers and targets sit at M/p^2, so only a collision with
A is tested.  All moves of a state are scored at once as arrays over roots
and targets, from the per-grid counts bincount(A mod D(M)) (a move changes
the counts at two grids) and two lookups over target - x built once per
search.  A move that reaches a grid ends the search before any successor is
built; otherwise all successors of the state are built as rows and keyed by
their least translates in one call of the batched kernel
`search.least_translates`.  `fiber_shift` applies one move with the same
row builder and re-verifies the result; a `ReductionTrace` is the start, the
moves and the final tiling, each move replayed through `fiber_shift`, so a
trace that exists is valid and carries no verdicts of its own.  The
classifier dispatches tilings of odd 3-prime square moduli through the
structure detectors and reduction predicates, attaching machine-checked
certificates to every branch it claims.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import prod

import numpy as np

from . import cyclo
from .multiset import Multiset
from .search import least_translates
from .structure import (
    classify_unfibered_grid,
    ijk_partition,
    StructureFinding,
    unfibered_grids,
)
from .tiling import TilingInstance, div_set, verify_direct, verify_poly, verify_sands
from .zm import Modulus


# -- cofibered structures and fiber shifts --------------------------------------


def is_n_fibered(b: Multiset, nu: int) -> bool:
    """Whether B mod M/p_nu is a disjoint union of same-multiplicity
    (M/p_nu)-fibers in the p_nu direction; requires p_nu^2 | M.

    Folded to a (p, M/p^2) array, B mod M/p_nu must have every column
    constant (each row equal to row 0), and the nonzero entries of row 0
    must be equal and not absent."""
    p = b.modulus.primes[nu][0]
    folded = b.weights.reshape(p, -1).sum(axis=0).reshape(p, -1)
    touched = folded[0][folded[0] != 0]
    return bool((folded == folded[0]).all() and touched.size and (touched == touched[0]).all())


def detect_cofibered(t: TilingInstance, nu: int) -> tuple[int, ...] | None:
    """(1,2)-cofibered structure in direction nu: B is (M/p_nu)-fibered there
    and A holds at least one full M-fiber.  Returns the roots r < M/p_nu of
    A's full M-fibers in direction nu, or None."""
    if t.modulus.primes[nu][1] != 2 or not is_n_fibered(t.b, nu):
        return None
    return tuple(t.a.fiber_roots(nu).tolist()) or None


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
    of exactly M/p^2, and vacant target cells; root and target may be any
    point of their fibers.  The new support is the search's own row
    (`_successors`).  The result is checked by all three verifiers and must
    keep the prime-power spectrum of A; failures raise (they indicate an
    illegal move or a caller bug)."""
    mod = t.modulus
    nu = move.direction
    p, n = mod.primes[nu]
    if n != 2:
        raise ShiftError("fiber shifts require exponent 2 in the shift direction")
    roots = detect_cofibered(t, nu)
    if roots is None:
        raise ShiftError(f"no (1,2)-cofibered structure in direction {nu}")
    if mod.gcd_table()[(move.root - move.target) % mod.m] != mod.m // p**2:
        raise ShiftError("target must sit at distance M/p^2 from the fiber")
    step = mod.m // p
    if move.root % step not in roots:
        raise ShiftError("the declared fiber is not contained in A")
    sup = np.flatnonzero(t.a.weights)
    # At distance M/p^2 the target lies in another class mod M/p than the
    # root, so any point of A in the target's class collides.
    if (sup % step == move.target % step).any():
        raise ShiftError("target fiber collides with A")
    row = _successors(mod, sup, np.array([[0, nu, move.root % step, move.target % step]]))[0]
    new_a = Multiset(mod, np.bincount(row, minlength=mod.m))
    out = TilingInstance(mod, new_a, t.b)
    if not (verify_direct(out) and verify_poly(out) and verify_sands(out)):
        raise ShiftError("shift destroyed the tiling; caller bug")
    if cyclo.s_a(new_a) != cyclo.s_a(t.a):
        raise ShiftError("shift changed the prime-power spectrum; caller bug")
    return out


# -- reduction to a grid -----------------------------------------------------------


@dataclass(frozen=True)
class ReductionTrace:
    """A chain of fiber shifts ending in a top-scale grid.  Each move was
    replayed through `fiber_shift`, which re-verifies the tiling and S_A."""

    start: TilingInstance
    moves: tuple[ShiftMove, ...]
    final: TilingInstance


def reduce_to_grid(t: TilingInstance, budget: int = 10_000) -> ReductionTrace | None:
    """Best-first search over fiber shifts until A becomes a D(M)-grid.

    Move priority prefers shifts whose target's saturating set lies on a
    single line through the target (the cofiber signature) and targets on the
    fullest grid.  A state is the sorted int64 array of A's support.  Each
    expanded state scores all its moves at once as arrays (`_scored_moves`),
    builds all its successors as rows (`_successors`) and keys them by
    their least translates in one `least_translates` call; the walk over the
    sorted moves then pushes each successor whose key is new.  A grid is
    never in `seen`: grid-ness is translation invariant, the start is not a
    grid, and the search returns on the first grid it adds.  So when a state
    has a move to a grid, the first such move in sort order is the answer,
    and the search returns it before building any successor of that state.
    Returns a trace whose every move was replayed through `fiber_shift`, or
    None when the budget is exhausted (grids unreachable for slab-type
    instances).
    """
    if not verify_direct(t):
        raise ValueError("reduction requires a verified tiling")
    mod = t.modulus
    m, d = mod.m, mod.d_of_m
    start = np.flatnonzero(t.a.weights)
    start_max = int(np.bincount(start % d, minlength=d).max())
    if start_max == len(start) == m // d:
        return _build_trace(t, ())

    sat, off_line = _shift_tables(t)
    seen = {least_translates(start[None], m)[0].tobytes()}
    heap = [(-start_max, 0, start, ())]
    counter = 0
    expanded = 0
    while heap and expanded < budget:
        _, _, sup, path = heapq.heappop(heap)
        expanded += 1
        moves, grid_move = _scored_moves(mod, sup, sat, off_line)
        if grid_move is not None:
            return _build_trace(t, path + (ShiftMove(*grid_move[1:]),))
        succ = _successors(mod, sup, moves)
        keys = least_translates(succ, m)
        for i, (score, nu, root, target) in enumerate(moves.tolist()):
            key = keys[i].tobytes()
            if key in seen:
                continue
            seen.add(key)
            counter += 1
            heapq.heappush(heap, (score, counter, succ[i].copy(), path + (ShiftMove(nu, root, target),)))
    return None


def _shift_tables(t: TilingInstance) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The lookups the shift search fixes from its start, indexed by
    target - x in (-m, m) for a target and a point x of A: whether x
    saturates the target ((target - x, M) lies in Div(B)), and, for each
    direction where A has a full fiber (`detect_cofibered`), whether x
    saturates it off the line through the target.  A direction where A has
    no full fiber at the start stays out of the search.  A negative index
    -y reads entry m - y, which is right for both: (m - y, M) = (y, M), and
    M_nu divides M, so m - y and -y lie on the same lines."""
    mod = t.modulus
    in_div_b = np.zeros(mod.m + 1, dtype=bool)
    in_div_b[list(div_set(t.b))] = True
    sat = in_div_b[mod.gcd_table()]
    off_line = {
        nu: sat & (np.arange(mod.m) % mod.m_nu(nu) != 0)
        for nu in range(mod.num_primes)
        if detect_cofibered(t, nu)
    }
    return sat, off_line


def _scored_moves(
    mod: Modulus, sup: np.ndarray, sat: np.ndarray, off_line: dict[int, np.ndarray]
) -> tuple[np.ndarray, tuple[int, int, int, int] | None]:
    """Every fiber-shift move of a state as the rows `(score, direction,
    root, target)` of a K x 4 int64 array, sorted, and the first of them
    that makes A a D(M)-grid (or None).

    `sup` is the sorted support of A; `sat` and `off_line` are the lookups of
    `_shift_tables`, one table of `off_line` per direction searched.  Roots
    are the full fibers in each direction, and targets sit at r + u*M/p^2
    for u a unit mod p^2.  The target fiber lies in another class mod M/p
    than the root fiber, so it is vacant when that class is empty in the
    support.  A move takes p points from grid r mod D to grid t mod D,
    another grid, since p divides D but not t - r = u*M/p^2 (p has exponent
    2 in M).  Its score is minus the largest grid count it leaves, less M
    when the target's saturating set is nonempty and lies on one line
    through the target (the lemma-backed move).  The largest count is read
    from the two largest counts of the state, so no per-move counts are
    built.
    """
    m, d = mod.m, mod.d_of_m
    counts = np.bincount(sup % d, minlength=d)
    best = int(counts.argmax())
    runner_up = max(np.delete(counts, best).tolist(), default=0)
    blocks, full = [np.empty((0, 4), dtype=np.int64)], [np.empty(0, dtype=bool)]
    for nu, off in off_line.items():
        p = mod.primes[nu][0]
        step, dist = m // p, m // p**2
        units = np.array([u for u in range(1, p * p) if u % p], dtype=np.int64)
        per_class = np.bincount(sup % step, minlength=step)
        roots = np.flatnonzero(per_class == p)
        targets = (roots[:, None] + units * dist) % m
        vacant = per_class[targets % step] == 0
        r = np.broadcast_to(roots[:, None], targets.shape)[vacant]
        tg = targets[vacant]
        rc, tc = r % d, tg % d
        # Off the root's grid only the target's grid gains, so the largest
        # count there is the state's own.
        off_root = np.where(rc == best, runner_up, counts[best])
        new_max = np.maximum.reduce([counts[tc] + p, counts[rc] - p, off_root])
        diff = tg[:, None] - sup
        lemma = sat[diff].any(axis=1) & ~off[diff].any(axis=1)
        blocks.append(np.stack([-new_max - m * lemma, np.full_like(tg, nu), r, tg], axis=1))
        full.append(new_max == len(sup))
    moves = np.concatenate(blocks)
    order = np.lexsort(moves.T[::-1])
    moves = moves[order]
    grids = np.flatnonzero(np.concatenate(full)[order]) if len(sup) == m // d else []
    return moves, tuple(moves[grids[0]].tolist()) if len(grids) else None


def _successors(mod: Modulus, sup: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The support after each move, one sorted row per row of `moves`: the
    root fiber dropped, the target fiber added.  A root is a full fiber of
    A, so each row drops exactly p points."""
    m, n = mod.m, len(sup)
    out = np.empty((len(moves), n), dtype=np.int64)
    for nu in np.flatnonzero(np.bincount(moves[:, 1])).tolist():
        p = mod.primes[nu][0]
        step = m // p
        sel = np.flatnonzero(moves[:, 1] == nu)
        keep = sup % step != moves[sel, 2:3]
        rows = np.concatenate(
            [
                np.broadcast_to(sup, keep.shape)[keep].reshape(len(sel), n - p),
                moves[sel, 3:4] % step + np.arange(p) * step,
            ],
            axis=1,
        )
        rows.sort(axis=1)
        out[sel] = rows
    return out


def _build_trace(t: TilingInstance, moves: tuple[ShiftMove, ...]) -> ReductionTrace:
    """The trace of `moves` from `t`, each move replayed through
    `fiber_shift`; raises ShiftError when a verifier rejects the start."""
    if not (verify_direct(t) and verify_poly(t) and verify_sands(t)):
        raise ShiftError("the verifiers disagree on the start tiling; library bug")
    cur = t
    for mv in moves:
        cur = fiber_shift(cur, mv)
    return ReductionTrace(t, moves, cur)


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
    keep the elements with nu-digit below p^{n-1} and reduce mod M/p.  A
    reduction that is not injective leaves weights above 1, which
    `slab_instances_verify` rejects."""
    mod = t.modulus
    p, n = mod.primes[nu]
    sub = Modulus.of(mod.m // p)
    b_red = t.b.reduce_mod(sub.m)
    sup = np.flatnonzero(t.a.weights)
    out = []
    for shift in range(p**n):
        x = (sup + shift * mod.m_nu(nu)) % mod.m
        kept = x[mod.coord(x, nu) < p ** (n - 1)]
        out.append(TilingInstance(sub, Multiset(sub, np.bincount(kept % sub.m, minlength=sub.m)), b_red))
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
    top-scale grid (after structure detection) and a triple intersection of
    the fiber membership sets both go to the shift search; otherwise A is
    fibered on every grid and splits on single-direction fibering (slab),
    then, in a direction nu with no full fibers, on whether Phi_p divides A
    (swapped slab) or, by (T1), Phi_{p^2} does (subgroup).  Every claimed
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
    pq = prod(mod.prime_list)
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

    # An unfibered grid, or a triple intersection of the fiber membership
    # sets, goes through the shift search.
    unfibered = unfibered_grids(t.a)
    on = None if unfibered else ijk_partition(t.a)
    if unfibered or on.all(axis=0).any():
        if unfibered:
            structures = (classify_unfibered_grid(t.a, unfibered[0]),)
            branch = "unfibered-grid"
            note = "shift search did not reach a grid within budget"
        else:
            structures = ()
            branch = "fibered-triple-grid"
            note = "triple intersection present but grid unreachable in budget"
        trace = reduce_to_grid(t, budget)
        if trace is not None:
            report = certified(branch, trace.final, None, structures, trace)
            if report:
                return report
        return unresolved(note, None, structures, trace)

    # Fibered case without a triple intersection.
    support = np.flatnonzero(t.a.weights)
    for nu in range(3):
        if on[nu, support].all():
            # A is M-fibered in a single direction: slab route.
            if subtile_condition(t, nu) and slab_instances_verify(t, nu):
                report = certified("slab-reduction", t, nu)
                if report:
                    return report
            return unresolved(f"single-direction fibering in {nu} failed slab checks", nu)

    # Every point of A lies on a full fiber, so with no fiber in direction nu
    # A is the union of the other two sets, and neither of them contains the
    # other (else it would be A, the slab case above).
    for nu in range(3):
        if on[nu].any():
            continue
        p = mod.primes[nu][0]
        # p exactly divides |A|, so by (T1) exactly one of Phi_p, Phi_{p^2}
        # divides A, and the tiling puts the other on B.
        if cyclo.phi_divides(p, t.a):
            swapped_t = t.transpose()
            if subtile_condition(swapped_t, nu) and slab_instances_verify(swapped_t, nu):
                report = certified("swapped-slab-reduction", t, nu)
                if report:
                    return report
        else:
            sub_nu = subgroup_reduction_applies(t)
            if sub_nu is not None:
                report = certified("subgroup-reduction", t, sub_nu)
                if report:
                    return report
    return unresolved("no pipeline branch produced a certificate")
