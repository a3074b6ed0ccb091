"""Grid fibering flags, the I/J/K membership mask, structure detectors,
plane bound, and missing-top-difference fibering.

The missing-top-difference fibering lemma lives here as a test-side check,
`missing_top_difference_fibering`; no library path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

from cyclotile import (
    Modulus,
    Multiset,
    TilingInstance,
    box_table,
    classify_unfibered_grid,
    detect_corner,
    detect_diagonal_boxes,
    detect_extended_corner,
    grid_fiber_report,
    ijk_partition,
    phi_divides,
    plane_bound_check,
    remove_fibers,
)
from cyclotile.structure import _fibered, _top_divisor_profile, grid_tensor, unfibered_grids
from cyclotile.tiling import div_set
from tests_helpers import Inapplicable, grid_point


@dataclass(frozen=True)
class FiberingReport:
    scale: int
    direction: int
    applicable: bool
    per_grid: tuple[tuple[int, int], ...]  # (grid anchor, fibered direction)
    single_direction: int | None
    holds: bool


def missing_top_difference_fibering(a: Multiset, n_div: int, nu: int) -> FiberingReport:
    """Check the fibering forced by a missing top difference N/p_nu.

    Hypotheses: Phi_N | A, reduced weights take a single nonzero value, p_nu
    odd, and N/p_nu absent from Div_N on the grid under test.  Verifies that
    every such grid is N-fibered in one of the other two directions; when two
    top differences are missing (both odd primes), additionally confirms the
    global single-direction fibering.  Raises Inapplicable outside the
    hypotheses; holds=False would be a counterexample.
    """
    mod = a.modulus
    if mod.m % n_div != 0:
        raise Inapplicable(f"N={n_div} must divide m={mod.m}")
    sub = Modulus.of(n_div)
    if sub.num_primes != 3:
        raise Inapplicable("the fibering lemma needs all three primes alive in N")
    if sub.primes[nu][0] == 2:
        raise Inapplicable("the missing-direction prime must be odd")
    reduced = a.reduce_mod(n_div) if mod.m != n_div else a
    vals = set(int(v) for v in np.unique(reduced.weights)) - {0}
    if len(vals) != 1:
        raise Inapplicable("reduced weights must take a single nonzero value")
    if not phi_divides(n_div, reduced):
        raise Inapplicable(f"Phi_{n_div} does not divide A")
    others = [k for k in range(3) if k != nu]
    n_over_p = n_div // sub.primes[nu][0]
    grids = grid_tensor(reduced)
    occ = grids != 0
    # A difference N/p_nu inside a grid joins two cells of one line along nu.
    local_top = (occ.sum(axis=nu + 1) > 1).reshape(len(occ), -1).any(axis=1)
    nonempty = occ.reshape(len(occ), -1).any(axis=1)
    # Same-weight N-fibers in direction k: the weights are constant along k.
    fibered = {k: _fibered(grids, k + 1) for k in range(3)}

    per_grid: list[tuple[int, int]] = []
    holds = True
    for anchor in np.flatnonzero(nonempty & ~local_top).tolist():
        direction = next((k for k in others if fibered[k][anchor]), None)
        if direction is None:
            holds = False
        else:
            per_grid.append((anchor, direction))
    single = None
    div_reduced = div_set(reduced)
    other_missing = [
        k
        for k in others
        if sub.primes[k][0] != 2 and n_div // sub.primes[k][0] not in div_reduced
    ]
    if n_over_p not in div_reduced and other_missing:
        third = next(k for k in range(3) if k != nu and k not in other_missing)
        if fibered[third].all():
            single = third
        else:
            holds = False
    return FiberingReport(n_div, nu, True, tuple(per_grid), single, holds)


@pytest.fixture(scope="module")
def m900() -> Modulus:
    # smallest even 3-prime square modulus: 2^2 * 3^2 * 5^2
    return Modulus.of(900)


def grid_points(mod, coords_list):
    return sorted(grid_point(mod, c) for c in coords_list)


class TestGridFibering:
    def test_empty_vacuous(self, m11025):
        a = Multiset.from_set(m11025, range(0, 11025, 105))
        assert grid_fiber_report(a, 1) == (True, True, True)

    def test_full_grid_all_directions(self, m11025):
        a = Multiset.from_set(m11025, range(0, 11025, 105))
        assert grid_fiber_report(a, 0) == (True, True, True)
        assert len(a.fiber_roots(0)) == 35  # p_j * p_k roots

    def test_fiber_plus_point_never_fibered(self, m11025):
        pts = list(m11025.fiber(0, 0)) + [105]
        a = Multiset.from_set(m11025, pts)
        assert not any(grid_fiber_report(a, 0))


def _oracle_members(a, anchor):
    mod = a.modulus
    return {x for x in range(anchor % mod.d_of_m, mod.m, mod.d_of_m) if a.weight(x)}


def _oracle_fiber(mod, x, nu):
    p = mod.primes[nu][0]
    return frozenset((x + t * (mod.m // p)) % mod.m for t in range(p))


def _oracle_fibered(a, anchor, nu):
    """Set oracle: the grid's members, fiber by fiber, in direction nu."""
    members = _oracle_members(a, anchor)
    fibers = {_oracle_fiber(a.modulus, x, nu) for x in members}
    if all(f <= members for f in fibers):
        return True, tuple(sorted(min(f) for f in fibers))
    return False, ()


def _oracle_strip(a, anchor):
    """Set oracle for remove_fibers: strip the fiber through the least member
    that lies on a full one, least direction first."""
    mod = a.modulus
    members = _oracle_members(a, anchor)
    removed = []
    while True:
        hit = next(
            (
                (x, nu)
                for x in sorted(members)
                for nu in range(3)
                if _oracle_fiber(mod, x, nu) <= members
            ),
            None,
        )
        if hit is None:
            return members, tuple(removed)
        fiber = _oracle_fiber(mod, *hit)
        members -= fiber
        removed.append((min(fiber), hit[1]))


def _random_grid_subsets(mod, count, seed):
    """Seeded subsets of the grid through 0: unions of random fibers, some
    with single points toggled, and plain random subsets."""
    rng = np.random.default_rng(seed)
    grid = list(range(0, mod.m, mod.d_of_m))
    for n in range(count):
        pts = set()
        if n % 3:
            for _ in range(int(rng.integers(1, 8))):
                pts |= _oracle_fiber(mod, grid[int(rng.integers(len(grid)))], int(rng.integers(3)))
            if n % 3 == 2:
                pts ^= {grid[int(rng.integers(len(grid)))]}
        else:
            pts = {x for x in grid if rng.random() < 0.5}
        yield Multiset.from_set(mod, sorted(pts))


class TestAgainstSetOracle:
    """Every tensor read of a grid agrees with a fiber-by-fiber set oracle."""

    def _check(self, a, anchors):
        mod = a.modulus
        on = ijk_partition(a)
        for anchor in anchors:
            members = _oracle_members(a, anchor)
            verdicts = [_oracle_fibered(a, anchor, nu) for nu in range(3)]
            assert grid_fiber_report(a, anchor) == tuple(v for v, _ in verdicts)
            for nu, (fibered, roots) in enumerate(verdicts):
                on_grid = [r for r in a.fiber_roots(nu).tolist() if r % mod.d_of_m == anchor]
                assert not fibered or tuple(on_grid) == roots
                marked = {x for x in members if on[nu, x]}
                assert marked == {x for x in members if _oracle_fiber(mod, x, nu) <= members}
            residual, removed = remove_fibers(a, anchor)
            left, stripped = _oracle_strip(a, anchor)
            assert set(residual.support()) == left and removed == stripped

    def test_flat(self, flat11025):
        self._check(flat11025.a, range(105))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shifted(self, flat11025, k):
        from tests_helpers import shifted_instance

        self._check(shifted_instance(flat11025, k, seed=1).a, range(105))

    def test_random_subsets_of_one_grid(self, m11025):
        for a in _random_grid_subsets(m11025, 120, seed=3):
            self._check(a, [0])


class TestIJK:
    def test_full_grid(self, flat11025):
        on = ijk_partition(flat11025.a)
        # every point of the grid, and nothing else, is on a full fiber in
        # each direction, so each lies in the triple intersection
        assert on.shape == (3, 11025)
        assert (on == (flat11025.a.weights != 0)).all()
        # assumption (F): every grid that A meets is fibered
        assert not unfibered_grids(flat11025.a)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_box_table(self, flat11025, k):
        # x is on a full fiber in direction nu iff the p - 1 other points at
        # divisor class M/p_nu are in A: the box-table membership test
        from tests_helpers import shifted_instance

        t = shifted_instance(flat11025, k, seed=1)
        mod = t.modulus
        table = box_table(t.a)
        on = ijk_partition(t.a)
        for nu, (p, _) in enumerate(mod.primes):
            idx = mod.divisors.index(mod.m // p)
            expect = {x for x in t.a.support() if table[x, idx] == p - 1}
            assert set(np.flatnonzero(on[nu]).tolist()) == expect

    def test_mixed_double_fiber_example(self, m11025):
        # F_i * [(F_j * a) u (F_k * a)]: a lies in all three sets, yet the
        # plane is not fibered in the j or k directions alone.
        mod = m11025
        a0 = 0
        fj = set(mod.fiber(a0, 1))
        fk = set(mod.fiber(a0, 2))
        base = fj | fk
        pts = sorted({(x + t * (mod.m // 3)) % mod.m for x in base for t in range(3)})
        aset = Multiset.from_set(mod, pts)
        table = box_table(aset)
        for nu, p in ((0, 3), (1, 5), (2, 7)):
            idx = mod.divisors.index(mod.m // p)
            assert table[a0, idx] == p - 1  # a0 on a full fiber in all three
        _, flag_j, flag_k = grid_fiber_report(aset, 0)
        assert not flag_j and not flag_k

    def test_no_fiber_direction_empty(self, m11025, flat11025):
        # remove one point per i-fiber: no complete i-fibers remain
        pts = [x for x in flat11025.a.elements() if x != 0]
        assert not ijk_partition(Multiset.from_set(m11025, pts))[0, 0]

    def test_wrong_arity(self, m225):
        with pytest.raises(ValueError):
            ijk_partition(Multiset.from_set(m225, [0]))


def _proper_subsets(p: int) -> list[tuple[int, ...]]:
    """Nonempty proper subsets of Z_p as sorted tuples, in tuple order."""
    return sorted(tuple(v for v in range(p) if mask >> v & 1) for mask in range(1, 2**p - 1))


@lru_cache(maxsize=None)
def _box_pair_masks(pj: int, pk: int) -> tuple[tuple, ...]:
    """(J, K, cells of J x K, cells of J^c x K^c) for every J, then every K,
    in order; a cell (j, k) is bit j*pk + k."""
    cells = lambda js, ks: sum(1 << (j * pk + k) for j in js for k in ks)
    out = []
    for j_set in _proper_subsets(pj):
        jc = [v for v in range(pj) if v not in j_set]
        for k_set in _proper_subsets(pk):
            kc = [v for v in range(pk) if v not in k_set]
            out.append((j_set, k_set, cells(j_set, k_set), cells(jc, kc)))
    return tuple(out)


def _oracle_diagonal_boxes(occ: np.ndarray) -> tuple[tuple[int, ...], ...] | None:
    """The lexicographically least (I, J, K) with both boxes inside the
    occupancy box, by trying every K for every I and J in order."""
    pi, pj, pk = occ.shape
    layer = [sum(1 << b for b in np.flatnonzero(occ[i]).tolist()) for i in range(pi)]
    for i_set in _proper_subsets(pi):
        allow = allow_c = (1 << (pj * pk)) - 1
        for i in range(pi):
            if i in i_set:
                allow &= layer[i]
            else:
                allow_c &= layer[i]
        for j_set, k_set, box, box_c in _box_pair_masks(pj, pk):
            if not box & ~allow and not box_c & ~allow_c:
                return i_set, j_set, k_set
    return None


def _seeded_box_unions(mod: Modulus, count: int, seed: int):
    """Occupancy boxes of one grid: one to three box pairs I x J x K and
    (mostly) their complements, with a few cells set or toggled; every fourth
    a plain random box."""
    rng = np.random.default_rng(seed)
    shape = mod.prime_list
    for n in range(count):
        if n % 4 == 3:
            yield rng.random(shape) < 0.7
            continue
        occ = np.zeros(shape, dtype=bool)
        for _ in range(1 + n % 4):
            sub = [rng.choice(p, size=int(rng.integers(1, p)), replace=False) for p in shape]
            occ[np.ix_(*sub)] = True
            if rng.random() < 0.8:
                occ[np.ix_(*(np.setdiff1d(np.arange(p), s) for p, s in zip(shape, sub)))] = True
        for _ in range(int(rng.integers(4))):
            c = tuple(int(rng.integers(p)) for p in shape)
            occ[c] = not occ[c] if rng.random() < 0.3 else True
        yield occ


class TestDiagonalBoxes:
    @pytest.mark.parametrize("m,count", [(11025, 200), (27225, 24)])
    def test_matches_exhaustive_oracle(self, m, count):
        mod = Modulus.of(m)
        found = 0
        for occ in _seeded_box_unions(mod, count, seed=m):
            a = Multiset.from_set(mod, [grid_point(mod, c) for c in np.argwhere(occ).tolist()])
            f = detect_diagonal_boxes(a, 0)
            got = (f.witness["i"], f.witness["j"], f.witness["k"]) if f.found else None
            assert got == _oracle_diagonal_boxes(occ)
            found += f.found
        assert 0 < found < count

    def test_beyond_the_old_enumeration_guard(self):
        # (2^3 - 2)(2^7 - 2)(2^11 - 2) = 1,546,776 triples of subsets: the
        # search runs over I and J only and reads K off directly.  With
        # (0,0,0) and (1,1,1) missing, I = J = {0} forces 0 out of K and 1 in.
        mod = Modulus.of((3 * 7 * 11) ** 2)
        pts = [x for x in range(0, mod.m, mod.d_of_m) if x not in (0, grid_point(mod, (1, 1, 1)))]
        f = detect_diagonal_boxes(Multiset.from_set(mod, pts), 0)
        assert (f.witness["i"], f.witness["j"], f.witness["k"]) == ((0,), (0,), (1,))

    def test_constructed(self, m11025):
        pts = grid_points(
            m11025,
            [(0, 0, 0)] + [(i, j, k) for i in (1, 2) for j in range(1, 5) for k in range(1, 7)],
        )
        f = detect_diagonal_boxes(Multiset.from_set(m11025, pts), 0)
        assert f.found
        assert f.witness["i"] == (0,) and f.witness["j"] == (0,) and f.witness["k"] == (0,)

    def test_full_grid_lexicographic(self, m11025, flat11025):
        f = detect_diagonal_boxes(flat11025.a, 0)
        assert (f.witness["i"], f.witness["j"], f.witness["k"]) == ((0,), (0,), (0,))

    def test_single_fiber_none(self, m11025):
        a = Multiset.from_set(m11025, m11025.fiber(0, 0))
        assert not detect_diagonal_boxes(a, 0).found

    def test_witness_revalidates(self, m11025):
        pts = grid_points(
            m11025,
            [(i, j, k) for i in (0, 1) for j in (0, 1, 2) for k in (0, 1)]
            + [(i, j, k) for i in (2,) for j in (3, 4) for k in (2, 3, 4, 5, 6)],
        )
        a = Multiset.from_set(m11025, pts)
        f = detect_diagonal_boxes(a, 0)
        assert f.found
        for i in f.witness["i"]:
            for j in f.witness["j"]:
                for k in f.witness["k"]:
                    assert grid_point(m11025, (i, j, k)) in a


class TestCorners:
    def _corner_set(self, mod):
        a = grid_point(mod, (0, 0, 0))
        ai = grid_point(mod, (1, 0, 0))
        return Multiset.from_set(mod, sorted(set(mod.fiber(a, 1)) | set(mod.fiber(ai, 2))))

    def test_corner_found(self, m11025):
        a = self._corner_set(m11025)
        f = detect_corner(a, 0, 0)
        assert f.found and f.witness["dir_a"] == 1 and f.witness["dir_ai"] == 2

    def test_full_grid_no_corner(self, flat11025):
        assert not detect_corner(flat11025.a, 0, 0).found
        assert not detect_extended_corner(flat11025.a, 0, 0).found

    def test_extended_with_two_fibers(self, m11025):
        pts = set()
        for c in ((0, 0, 0), (0, 2, 3)):
            pts |= set(m11025.fiber(grid_point(m11025, c), 1))
        for c in ((1, 0, 0), (1, 4, 0)):
            pts |= set(m11025.fiber(grid_point(m11025, c), 2))
        a = Multiset.from_set(m11025, sorted(pts))
        assert detect_extended_corner(a, 0, 0).found
        assert not detect_corner(a, 0, 0).found

    def test_plain_corner_is_extended(self, m11025):
        a = self._corner_set(m11025)
        assert detect_extended_corner(a, 0, 0).found


class TestRemoveFibers:
    def test_single_fiber_vanishes(self, m11025):
        a = Multiset.from_set(m11025, m11025.fiber(0, 1))
        residual, removed = remove_fibers(a, 0)
        assert len(residual) == 0 and removed == ((0, 1),)

    def test_full_grid_vanishes(self, flat11025):
        residual, removed = remove_fibers(flat11025.a, 0)
        assert len(residual) == 0
        assert len(removed) == 35  # 105 points / 3 per i-fiber, removed in i first

    def test_pure_boxes_stay(self, m11025):
        pts = grid_points(
            m11025,
            [(0, 0, 0)] + [(i, j, k) for i in (1, 2) for j in range(1, 5) for k in range(1, 7)],
        )
        a = Multiset.from_set(m11025, pts)
        residual, removed = remove_fibers(a, 0)
        assert removed == () and len(residual) == len(pts)


class TestClassifyUnfiberedGrid:
    def test_full_plane_profile(self, m11025):
        # boxes with |I^c| = |J| = |K| = 1, |K^c| > 1: misses exactly the two
        # pair divisors through direction i
        pts = [(i, 0, 0) for i in (0, 1)] + [(2, j, k) for j in range(1, 5) for k in range(1, 7)]
        a = Multiset.from_set(m11025, grid_points(m11025, pts))
        # the witness grid restriction must itself divide Phi_M, so embed it
        # in a set whose other grids are full
        rest = [x for x in range(1, 105)]
        full_elsewhere = [x + 105 * t for x in rest for t in range(105)]
        big = Multiset.from_set(m11025, sorted(set(a.elements()) | set(full_elsewhere)))
        present, missing = _top_divisor_profile(big, 0)
        f = classify_unfibered_grid(big, 0)
        assert f.kind == "full-plane"
        exps = [m11025.divisor_exponents(d) for d in missing]
        assert len(missing) == 2
        assert f.direction == 0

    def test_corner_profile(self, m11025):
        pts = set(m11025.fiber(grid_point(m11025, (0, 0, 0)), 0))
        pts |= set(m11025.fiber(grid_point(m11025, (0, 1, 1)), 1))
        a0 = sorted(pts)
        rest = [x for x in range(1, 105)]
        full_elsewhere = [x + 105 * t for x in rest for t in range(105)]
        big = Multiset.from_set(m11025, sorted(set(a0) | set(full_elsewhere)))
        f = classify_unfibered_grid(big, 0)
        assert f.kind == "corner"
        assert f.direction == 2  # fibers in i and j directions -> corner in k

    def test_diagonal_boxes_full_profile(self, m11025):
        # two fat boxes leave all top divisors present
        pts = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1, 2)]
        pts += [(i, j, k) for i in (2,) for j in (2, 3, 4) for k in (3, 4, 5, 6)]
        a0 = grid_points(m11025, pts)
        rest = [x for x in range(1, 105)]
        full_elsewhere = [x + 105 * t for x in rest for t in range(105)]
        big = Multiset.from_set(m11025, sorted(set(a0) | set(full_elsewhere)))
        f = classify_unfibered_grid(big, 0)
        assert f.kind == "diagonal-boxes"

    def test_almost_corner(self, m11025):
        # boxes with |I^c| = |J| = 1 and both K parts proper, exactly covering
        pts = [(i, 0, k) for i in (0, 1) for k in (0, 1, 2)]
        pts += [(2, j, k) for j in (1, 2, 3, 4) for k in (3, 4, 5, 6)]
        a0 = grid_points(m11025, pts)
        rest = [x for x in range(1, 105)]
        full_elsewhere = [x + 105 * t for x in rest for t in range(105)]
        big = Multiset.from_set(m11025, sorted(set(a0) | set(full_elsewhere)))
        f = classify_unfibered_grid(big, 0)
        assert f.kind == "almost-corner"
        assert f.direction == 2

    def test_even_corner(self, m900):
        pts = set(m900.fiber(grid_point(m900, (0, 0, 0)), 0))  # 2-fiber
        pts |= set(m900.fiber(grid_point(m900, (0, 1, 1)), 1))  # 3-fiber
        a0 = sorted(pts)
        rest = [x for x in range(1, 30)]
        full_elsewhere = [x + 30 * t for x in rest for t in range(30)]
        big = Multiset.from_set(m900, sorted(set(a0) | set(full_elsewhere)))
        f = classify_unfibered_grid(big, 0)
        assert f.kind == "even-corner"
        assert f.direction == 2

    def test_even_diagonal_boxes(self, m900):
        # p_i = 2: boxes with no 2-direction top difference
        pts = [(0, j, k) for j in (0, 1) for k in (0, 1)]
        pts += [(1, j, k) for j in (2,) for k in (2, 3, 4)]
        a0 = grid_points(m900, pts)
        rest = [x for x in range(1, 30)]
        full_elsewhere = [x + 30 * t for x in rest for t in range(30)]
        big = Multiset.from_set(m900, sorted(set(a0) | set(full_elsewhere)))
        f = classify_unfibered_grid(big, 0)
        assert f.kind == "even-diagonal-boxes"

    def test_fibered_grid_rejected(self, flat11025):
        with pytest.raises(ValueError):
            classify_unfibered_grid(flat11025.a, 0)


class TestPlaneBound:
    def test_flat225(self, flat225):
        assert plane_bound_check(flat225)

    def test_flat11025(self, flat11025):
        assert plane_bound_check(flat11025)

    def test_z36_tilings(self, m36):
        t = TilingInstance.from_sets(m36, [0, 1, 2, 3, 4, 5], [0, 6, 12, 18, 24, 30])
        assert plane_bound_check(t)

    def test_violation_detected(self, m225):
        # six points in one mod-9 plane exceed the bound 5 for |A| = 15
        pts = [t * 9 for t in range(6)] + [1, 2, 3, 4, 5, 6, 7, 8, 10]
        t = TilingInstance.from_sets(m225, pts, [0])
        assert not plane_bound_check(t)


class TestMissingTopDifference:
    def test_constructed_fibered(self, m11025):
        # A = A' * F_k with A' avoiding i- and j- top differences
        mod = m11025
        roots = [0, 1 + 105 * 3, 2 + 105 * 7]
        pts = sorted({(r + t * (mod.m // 7)) % mod.m for r in roots for t in range(7)})
        a = Multiset.from_set(mod, pts)
        top_i = mod.m // 3
        assert top_i not in div_set(a)
        rep = missing_top_difference_fibering(a, mod.m, 0)
        assert rep.applicable and rep.holds
        assert all(d == 2 for _, d in rep.per_grid)

    def test_even_prime_inapplicable(self, m900):
        a = Multiset.from_set(m900, m900.fiber(0, 2))
        with pytest.raises(Inapplicable):
            missing_top_difference_fibering(a, 900, 0)  # direction of p=2

    def test_two_missing_single_direction(self, m11025):
        mod = m11025
        pts = sorted({t * (mod.m // 7) for t in range(7)}
                     | {(1 + t * (mod.m // 7)) % mod.m for t in range(7)})
        a = Multiset.from_set(mod, pts)
        rep = missing_top_difference_fibering(a, mod.m, 0)
        assert rep.holds and rep.single_direction == 2

    def test_nonuniform_weights_inapplicable(self, m11025):
        a = Multiset.from_pairs(m11025, [(0, 1), (3675, 2), (7350, 1)])
        with pytest.raises(Inapplicable):
            missing_top_difference_fibering(a, 11025, 0)
