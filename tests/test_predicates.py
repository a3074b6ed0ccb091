"""Checkable conclusions of the classification theory, as named predicates,
swept over real and constructed instances.

Each predicate takes an instance, checks the hypotheses of one structural
statement, and evaluates its conclusion.  They are deliberately thin:
hypotheses unmet raise Inapplicable, a False return is a counterexample (and
a bug somewhere), True is one more data point.
"""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from cyclotile import (
    EnumerationTask,
    Multiset,
    TilingInstance,
    detect_diagonal_boxes,
    detect_extended_corner,
    enumerate_tilings,
    grid_fiber_report,
    ijk_partition,
    phi_divides,
    reduce_to_grid,
    remove_fibers,
    standard_complement,
    subtile_condition,
    verify_direct,
)
from cyclotile.reduce import slab_instances_verify
from cyclotile.structure import _grid, _top_divisor_profile, unfibered_grids
from tests_helpers import Inapplicable, shifted_instance


# -- the predicates ----------------------------------------------------------------


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Inapplicable(why)


def _is_3prime_tiling(t: TilingInstance) -> None:
    _require(t.modulus.num_primes == 3, "needs a 3-prime modulus")
    _require(verify_direct(t), "needs a verified tiling")


def _assumption_f(t: TilingInstance) -> None:
    """The standing assumption (F): an odd square 3-prime modulus, |A| = |B| =
    p_i p_j p_k, a tiling, Phi_M | A, and A fibered on every grid it meets."""
    mod = t.modulus
    _require(mod.num_primes == 3, "needs a 3-prime modulus")
    _require(all(p % 2 == 1 and n == 2 for p, n in mod.primes), "needs an odd square modulus")
    _require(len(t.a) == len(t.b) == prod(mod.prime_list), "needs |A| = |B| = p_i p_j p_k")
    _require(verify_direct(t), "needs a verified tiling")
    _require(phi_divides(mod.m, t.a), "needs the top cyclotomic on A")
    _require(not unfibered_grids(t.a), "assumption (F) does not hold")


def unfibered_grid_has_diagonal_boxes(t: TilingInstance, anchor: int) -> bool:
    """If the grid restriction is nonempty and not a disjoint union of
    M-fibers, it must contain diagonal boxes."""
    _is_3prime_tiling(t)
    _require(phi_divides(t.modulus.m, t.a), "needs the top cyclotomic on A")
    residual, _ = remove_fibers(t.a, anchor)
    _require(bool(_grid(t.a, anchor)[0].any()), "grid restriction is empty")
    _require(len(residual) > 0, "grid restriction is a disjoint union of fibers")
    return detect_diagonal_boxes(t.a, anchor).found


def fiber_union_not_fibered_has_extended_corner(t: TilingInstance, anchor: int) -> bool:
    """A nonempty disjoint union of M-fibers that is not fibered in any single
    direction contains an extended corner in some direction."""
    _is_3prime_tiling(t)
    _require(bool(_grid(t.a, anchor)[0].any()), "grid restriction is empty")
    residual, _ = remove_fibers(t.a, anchor)
    _require(len(residual) == 0, "grid restriction is not a union of fibers")
    _require(not any(grid_fiber_report(t.a, anchor)), "grid is fibered in one direction")
    return any(detect_extended_corner(t.a, anchor, nu).found for nu in range(3))


def fiber_union_uses_two_directions(t: TilingInstance, anchor: int) -> bool:
    """A nonempty disjoint union of M-fibers decomposes using at most two
    directions."""
    _is_3prime_tiling(t)
    occ = _grid(t.a, anchor)[0]
    _require(bool(occ.any()), "grid restriction is empty")
    residual, removed = remove_fibers(t.a, anchor)
    _require(len(residual) == 0, "grid restriction is not a union of fibers")
    # Search for an assignment using at most two directions.
    for skip in range(3):
        dirs = [nu for nu in range(3) if nu != skip]
        if _fiber_cover_with_dirs(occ, dirs):
            return True
    return False


def _fiber_cover_with_dirs(occ: np.ndarray, dirs: list[int]) -> bool:
    """Whether the occupied cells split into whole lines along the axes dirs."""
    cells = np.argwhere(occ)
    if not len(cells):
        return True
    c = tuple(cells[0])
    for nu in dirs:
        line = c[:nu] + (slice(None),) + c[nu + 1 :]
        if occ[line].all():
            rest = occ.copy()
            rest[line] = False
            if _fiber_cover_with_dirs(rest, dirs):
                return True
    return False


def fiber_chain_divisors(a: Multiset, nu: int) -> bool:
    """A union of fibers in one direction is divisible by the four cyclotomics
    at the two top scales in the other two directions."""
    mod = a.modulus
    _require(mod.num_primes == 3, "needs a 3-prime modulus")
    _require(all(n == 2 for _, n in mod.primes), "needs a square modulus")
    _require(len(a) > 0, "empty set")
    _require(len(a) == mod.primes[nu][0] * len(a.fiber_roots(nu)), "not a union of full fibers")
    for k in range(3):
        if k == nu:
            continue
        q = mod.primes[k][0]
        for alpha in (1, 2):
            if not phi_divides(mod.m // q**alpha, a):
                return False
    return True


def triple_intersection_reduces(t: TilingInstance, budget: int = 10_000) -> bool:
    """Fibered tilings with an element on full fibers in all three directions
    reduce to a grid by fiber shifts."""
    _assumption_f(t)
    _require(bool(ijk_partition(t.a).all(axis=0).any()), "triple intersection is empty")
    trace = reduce_to_grid(t, budget)
    return trace is not None


def fibered_intersection_plane_filled(t: TilingInstance, a_elem: int, j: int, k: int) -> bool:
    """An element on full fibers in two directions, whose grid is fibered in
    one of them, fills its transverse plane with the double fiber."""
    _assumption_f(t)
    mod = t.modulus
    on = ijk_partition(t.a)
    nu = next(n for n in range(3) if n not in (j, k))
    _require(bool(on[j, a_elem] and on[k, a_elem]), "element not in both sets")
    anchor = a_elem % mod.d_of_m
    fibered = grid_fiber_report(t.a, anchor)
    _require(fibered[j] or fibered[k], "grid not fibered in either given direction")
    plane = set()
    for x in (a_elem,):
        cells = [x]
        for d in (j, k):
            step = mod.m // mod.primes[d][0]
            cells = [(y + tt * step) % mod.m for y in cells for tt in range(mod.primes[d][0])]
        plane = set(cells)
    p_nu = mod.primes[nu][0]
    full_plane = set(mod.grid(a_elem, p_nu ** mod.primes[nu][1]))
    in_plane = {x for x in t.a.support() if x in full_plane}
    return in_plane == plane


def single_direction_fibering_slab(t: TilingInstance, nu: int) -> bool:
    """A tiling with A fibered entirely in one direction passes the slab
    equivalence: the divisibility alternative holds and all translate slabs
    tile the quotient."""
    _is_3prime_tiling(t)
    on = ijk_partition(t.a)
    _require(bool(on[nu, t.a.weights != 0].all()), "A is not fibered in the direction")
    return subtile_condition(t, nu) and slab_instances_verify(t, nu)


def subtile_equivalence(t: TilingInstance, nu: int) -> bool:
    """The divisibility alternative agrees with direct slab verification.

    Valid for any number of primes (the slab construction only slices one
    coordinate)."""
    _require(verify_direct(t), "needs a verified tiling")
    p, n = t.modulus.primes[nu]
    _require(phi_divides(p**n, t.a), "top prime-power cyclotomic missing on A")
    return subtile_condition(t, nu) == slab_instances_verify(t, nu)


def missing_divisor_profile_matches(t: TilingInstance) -> bool:
    """On every nonempty unfibered grid of a tiling with the top cyclotomic,
    the missing top divisors form one of the admitted profiles: none, one
    pair divisor, or two pair divisors sharing a prime (odd modulus)."""
    _is_3prime_tiling(t)
    mod = t.modulus
    _require(phi_divides(mod.m, t.a), "needs the top cyclotomic on A")
    _require(all(p % 2 == 1 for p, _ in mod.primes), "odd modulus only")
    pair_type = set()
    for nu in range(3):
        others = [x for x in range(3) if x != nu]
        val = mod.m
        for o in others:
            val //= mod.primes[o][0]
        pair_type.add(val)
    for anchor in unfibered_grids(t.a):
        _, missing = _top_divisor_profile(t.a, anchor)
        if not missing:
            continue
        if not missing <= pair_type:
            return False
        if len(missing) == 2:
            e = [mod.divisor_exponents(d) for d in missing]
            shared = [
                kk
                for kk in range(3)
                if e[0][kk] < mod.primes[kk][1] and e[1][kk] < mod.primes[kk][1]
            ]
            if len(shared) != 1:
                return False
        if len(missing) > 2:
            return False
    return True


# -- sweeps -------------------------------------------------------------------------


def _applicable(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Inapplicable:
        return None


class TestUnfiberedPredicates:
    def test_diagonal_boxes_on_shifted(self, flat11025):
        # seed 2 leaves an unfibered grid with a residue after fiber
        # stripping, seed 3 one that is a union of fibers: both predicates run
        for seed in (2, 3):
            inst = shifted_instance(flat11025, 2, seed=seed)
            hits = 0
            for anchor in range(inst.modulus.d_of_m):
                if any(grid_fiber_report(inst.a, anchor)):
                    continue
                residual, _ = remove_fibers(inst.a, anchor)
                if len(residual) == 0:
                    out = _applicable(fiber_union_not_fibered_has_extended_corner, inst, anchor)
                else:
                    out = _applicable(unfibered_grid_has_diagonal_boxes, inst, anchor)
                if out is not None:
                    hits += 1
                    assert out
            assert hits >= 1

    def test_two_directions_on_fiber_unions(self, flat11025):
        assert fiber_union_uses_two_directions(flat11025, 0)

    def test_missing_profile_on_shifted(self, flat11025):
        for seed in (1, 2):
            inst = shifted_instance(flat11025, 2, seed=seed)
            assert missing_divisor_profile_matches(inst)


class TestFiberedPredicates:
    def test_triple_intersection(self, flat11025):
        assert triple_intersection_reduces(flat11025, budget=100)

    def test_fibered_plane_filled(self, flat11025):
        assert fibered_intersection_plane_filled(flat11025, 0, 1, 2)

    def test_fiber_chain_divisors(self, m11025):
        a = standard_complement(m11025, (set(), {1}, {1})).convolve(
            Multiset.fiber(m11025, 0)
        )
        assert fiber_chain_divisors(a, 0)

    def test_single_direction_slab(self, m11025):
        a = standard_complement(m11025, (set(), {1}, {1})).convolve(
            Multiset.fiber(m11025, 0)
        )
        b = standard_complement(m11025, ({1}, {2}, {2}))
        t = TilingInstance(m11025, a, b)
        assert verify_direct(t)
        assert single_direction_fibering_slab(t, 0)

    def test_subtile_equivalence_on_enumeration(self, m36):
        checked = 0
        for i, t in enumerate(enumerate_tilings(EnumerationTask(m36, 6))):
            if i % 40:
                continue
            for nu in range(2):
                p, n = t.modulus.primes[nu]
                if phi_divides(p**n, t.a):
                    assert subtile_equivalence(t, nu)
                    checked += 1
        assert checked > 10


class TestStructureTheoremsOnShiftedInstances:
    """Props: unfibered grids carry diagonal boxes; fiber unions not fibered
    in one direction carry extended corners and use at most two directions."""

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_unfibered_grid_structures(self, flat11025, seed):
        inst = shifted_instance(flat11025, 3, seed=seed)
        analyzed = 0
        for anchor in range(inst.modulus.d_of_m):
            if any(grid_fiber_report(inst.a, anchor)):
                continue
            residual, _ = remove_fibers(inst.a, anchor)
            if len(residual) == 0:
                assert fiber_union_uses_two_directions(inst, anchor)
                assert fiber_union_not_fibered_has_extended_corner(inst, anchor)
            else:
                assert unfibered_grid_has_diagonal_boxes(inst, anchor)
            analyzed += 1
        # each of these seeds leaves exactly one unfibered grid
        assert analyzed >= 1


class TestPlaneGridCount:
    def test_exceeding_bound_forces_divisor(self, m36):
        # tilings whose plane count exceeds the one-level-down budget must be
        # divisible by some cyclotomic at the skipped scales
        checked = 0
        for i, t in enumerate(enumerate_tilings(EnumerationTask(m36, 6))):
            if i % 25:
                continue
            size = len(t.a)
            sup = np.array(t.a.support())
            for nu, (p, n) in enumerate(t.modulus.primes):
                beta = 0
                while size % p ** (beta + 1) == 0:
                    beta += 1
                if beta == 0:
                    continue
                for alpha0 in range(1, n + 1):
                    scale = p ** (n - alpha0)
                    budget = (size // p) if beta else size
                    counts = np.bincount(sup % scale, minlength=scale) if scale > 1 else [size]
                    if max(counts) > budget:
                        assert any(
                            phi_divides(p ** (n - alpha), t.a)
                            for alpha in range(0, alpha0)
                        )
                        checked += 1
        assert checked > 5


class TestCmSufficiencyOnClassified:
    def test_complement_exists_for_classified_tiles(self, flat11025):
        # (T1) and (T2) certified by classify imply the search oracle finds a
        # complement for A
        from cyclotile import classify, find_complements

        for seed in (31, 32):
            inst = shifted_instance(flat11025, 2, seed=seed)
            rep = classify(inst)
            assert rep.resolved and rep.t2_a and rep.t2_b
            assert find_complements(inst.a.elements(), inst.modulus, limit=1)
