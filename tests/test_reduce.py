"""Cofibered structures, fiber shifts, reductions, and the classifier."""

from __future__ import annotations

import ast
import heapq
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from cyclotile import (
    Modulus,
    Multiset,
    ShiftMove,
    TilingInstance,
    classify,
    detect_cofibered,
    div_set,
    fiber_shift,
    find_complements,
    reduce_to_grid,
    s_a,
    slab_extract,
    standard_complement,
    subgroup_reduction_applies,
    subtile_condition,
    verify_direct,
)
import cyclotile.reduce as reduce_mod
from cyclotile.reduce import ShiftError, is_n_fibered, slab_instances_verify
from tests_helpers import (
    LAYERED_BRANCH,
    flat_tiling,
    grid_shifts,
    layered_tiling,
    shifted_instance,
    slab_tiling,
    valid_shift_moves,
)


def _search_context(t: TilingInstance) -> tuple[list[int], np.ndarray]:
    """The shift directions and the Div(B) lookup that reduce_to_grid fixes
    from its start instance."""
    in_div_b = np.zeros(t.modulus.m + 1, dtype=bool)
    in_div_b[list(div_set(t.b))] = True
    return [nu for nu in range(t.modulus.num_primes) if detect_cofibered(t, nu)], in_div_b


def oracle_scored_moves(t: TilingInstance, support: frozenset[int]):
    """Every move of a search state as `(score, direction, root, target,
    reaches_grid)`, sorted, scored one move at a time: a counts copy and a
    saturating-set test per move, as the search did before it scored moves
    as arrays."""
    mod = t.modulus
    m, d = mod.m, mod.d_of_m
    gcd_tab = mod.gcd_table()
    dirs, in_div_b = _search_context(t)
    sup = np.fromiter(support, dtype=np.int64)
    counts = np.bincount(sup % d, minlength=d)
    occupied = Multiset.from_set(mod, support)
    out = []
    for nu in dirs:
        p = mod.primes[nu][0]
        step, dist, line_step = m // p, m // p**2, mod.m_nu(nu)
        for r in occupied.fiber_roots(nu).tolist():
            rest = support.difference(range(r, m, step))
            for u in range(1, p * p):
                if u % p == 0:
                    continue
                target = (r + u * dist) % m
                if not rest.isdisjoint(range(target % step, m, step)):
                    continue
                nxt_counts = counts.copy()
                nxt_counts[r % d] -= p
                nxt_counts[target % d] += p
                score = -int(nxt_counts.max())
                sat = sup[in_div_b[gcd_tab[(target - sup) % m]]]
                if sat.size and not ((sat - target) % line_step).any():
                    score -= m
                reaches_grid = bool(nxt_counts.max() == len(support) == m // d)
                out.append((score, nu, r, target, reaches_grid))
    return sorted(out)


def oracle_fiber_shift(t: TilingInstance, move: ShiftMove) -> list[int] | None:
    """A's support after the move, applied with Python sets of
    `Modulus.fiber` tuples: the root fiber dropped, the target fiber added.
    None when the target fiber meets the rest of A."""
    mod = t.modulus
    remaining = set(t.a.support()).difference(mod.fiber(move.root, move.direction))
    new_fiber = mod.fiber(move.target, move.direction)
    if not remaining.isdisjoint(new_fiber):
        return None
    return sorted(remaining.union(new_fiber))


# reduce_to_grid's moves on shifted_instance(flat11025, k, seed) at a budget,
# keyed (k, seed, budget), recorded from the per-move scorer of
# `oracle_scored_moves`.  None: the budget ran out.
GOLDEN_MOVES = {
    (1, 1, 1): ((1, 1113, 1995),),
    (2, 1, 1): None,
    (2, 4, 3): ((2, 1020, 1470), (2, 1530, 630)),
    (3, 2, 10): ((2, 825, 1050), (1, 2163, 840), (0, 3640, 2415)),
    (4, 2, 3): None,
    (4, 3, 10): ((2, 45, 945), (1, 1533, 210), (0, 2240, 3465), (0, 3115, 1890)),
    (5, 3, 10_000): (
        (2, 45, 945), (1, 1533, 210), (0, 1715, 2940), (0, 2240, 3465), (0, 3115, 1890),
    ),
}


class TestCofibered:
    def test_flat225_both_directions(self, flat225):
        for nu in (0, 1):
            cof = detect_cofibered(flat225, nu)
            # A = 15*Z_225: the fiber through 0 in each direction, and one
            # fiber per root below M/p
            p = flat225.modulus.primes[nu][0]
            assert cof == tuple(range(0, 225 // p, 15))
            assert len(cof) == 15 // p

    def test_flat11025_all_directions(self, flat11025):
        for nu in range(3):
            assert detect_cofibered(flat11025, nu) is not None

    def test_unfibered_b_none(self):
        t = TilingInstance.from_sets(Modulus.of(12), [0, 1, 2, 3], [0, 4, 8])
        assert detect_cofibered(t, 1) is None

    def test_no_full_fiber_in_a_none(self, m11025, flat11025):
        # B is fibered at M/p in every direction, but a single point holds no
        # full fiber: None, not an empty root tuple
        t = TilingInstance(m11025, Multiset.from_set(m11025, [0]), flat11025.b)
        for nu in range(3):
            assert is_n_fibered(t.b, nu)
            assert detect_cofibered(t, nu) is None

    def test_n_fibered_detects(self, flat225):
        assert is_n_fibered(flat225.b, 0)
        assert not is_n_fibered(flat225.a, 0)

    @pytest.mark.parametrize("m", [225, 11025])
    def test_n_fibered_matches_set_oracle(self, m, flat11025):
        # the set test the array test replaced: B mod M/p folded to p rows,
        # every column constant, one nonzero value in row 0
        mod = Modulus.of(m)
        rng = np.random.default_rng(m)
        cases = [Multiset.zero(mod), Multiset.full(mod)]
        if m == 11025:
            cases += [flat11025.a, flat11025.b, shifted_instance(flat11025, 2, seed=1).a]
        for _ in range(40):
            # unions of (M/p)-fibers, steps of M/p^2, at seeded roots
            p = mod.primes[int(rng.integers(mod.num_primes))][0]
            roots = rng.choice(m // p, size=int(rng.integers(1, 4)), replace=False)
            fibered = Multiset.from_set(mod, {(r + k * (m // p**2)) % m for r in roots for k in range(p)})
            cases += [fibered, fibered.scale(int(rng.integers(-2, 3))), fibered.translate(1).add(fibered)]
            cases.append(Multiset(mod, rng.integers(-1, 2, size=m)))
        verdicts = []
        for b in cases:
            for nu, (p, _) in enumerate(mod.primes):
                folded = b.reduce_mod(m // p).weights.reshape(p, -1)
                vals = set(folded[0].tolist()) - {0}
                expect = bool((folded == folded[0]).all()) and len(vals) == 1
                assert is_n_fibered(b, nu) == expect
                verdicts.append(expect)
        assert 0 < sum(verdicts) < len(verdicts)


class TestFiberShift:
    def test_shift_example(self, flat225):
        out = fiber_shift(flat225, ShiftMove(0, 0, 25))
        assert 25 in out.a and 0 not in out.a
        assert verify_direct(out)
        assert s_a(out.a) == s_a(flat225.a)

    def test_involution(self, flat225):
        out = fiber_shift(flat225, ShiftMove(0, 0, 25))
        back = fiber_shift(out, ShiftMove(0, 25, 0))
        assert back.a == flat225.a

    def test_wrong_distance(self, flat225):
        # (target, 225) must be 25: 75 and 0 lie in the root's own fiber
        for target in (1, 45, 75, 0, 225):
            with pytest.raises(ShiftError, match="distance"):
                fiber_shift(flat225, ShiftMove(0, 0, target))

    def test_root_not_a_fiber_of_a(self, flat225):
        # 1 and 26 sit M/p^2 = 25 apart, but A = 15*Z_225 holds no fiber at 1
        with pytest.raises(ShiftError, match="not contained"):
            fiber_shift(flat225, ShiftMove(0, 1, 26))

    def test_collision(self, m225, flat225):
        # two parallel fibers at the shift distance cannot coexist in a real
        # tiling (their difference would violate divisor exclusion), so the
        # guard is exercised on a raw instance
        a = Multiset.from_set(m225, sorted({0, 75, 150, 25, 100, 175}))
        t = TilingInstance(m225, a, flat225.b)
        with pytest.raises(ShiftError, match="collides"):
            fiber_shift(t, ShiftMove(0, 0, 25))

    @pytest.mark.parametrize("name", ["flat225", "flat11025", "shifted11025"])
    def test_matches_set_oracle(self, request, flat11025, name):
        # every legal move, with root and target each given as the least
        # point of its fiber and as another point of it
        if name == "shifted11025":
            t = shifted_instance(flat11025, 2, 1)
        else:
            t = request.getfixturevalue(name)
        mod = t.modulus
        moves = valid_shift_moves(t)
        assert moves
        for mv in moves:
            p = mod.primes[mv.direction][0]
            step = mod.m // p
            expect = tuple(oracle_fiber_shift(t, mv))
            root, target = mv.root % step, mv.target % step
            for r, tg in ((root, target), (root + step, target + (p - 1) * step)):
                out = fiber_shift(t, ShiftMove(mv.direction, r, tg))
                assert out.a.elements() == expect and out.b is t.b

    def test_shift_at_11025(self, flat11025):
        out = fiber_shift(flat11025, ShiftMove(0, 0, 1225))
        assert verify_direct(out)
        assert s_a(out.a) == frozenset({9, 25, 49})


class TestReduceToGrid:
    def test_already_grid(self, flat11025):
        tr = reduce_to_grid(flat11025, 10)
        assert tr is not None and tr.moves == ()

    def test_one_shift_back(self, flat225):
        shifted = fiber_shift(flat225, ShiftMove(0, 0, 25))
        tr = reduce_to_grid(shifted, 500)
        assert tr is not None
        assert len(tr.moves) == 1
        assert tr.start.a == shifted.a and tr.final.a == flat225.a
        assert s_a(tr.final.a) == s_a(tr.start.a)

    def test_three_shift_roundtrip_11025(self, flat11025):
        shifted = shifted_instance(flat11025, 3, seed=7)
        tr = reduce_to_grid(shifted, 10_000)
        assert tr is not None
        d = tr.final.modulus.d_of_m
        assert len({x % d for x in tr.final.a.elements()}) == 1

    def test_no_cofibered_direction(self, flat225):
        # B = 15*Z_225 is fibered at M/p in no direction, so no move is
        # licensed and the search ends with an empty frontier.
        t = flat225.transpose()
        assert not any(detect_cofibered(t, nu) for nu in range(2))
        assert reduce_to_grid(t) is None

    def test_unverified_rejected(self, m4):
        with pytest.raises(ValueError):
            reduce_to_grid(TilingInstance.from_sets(m4, [0, 1], [0, 1]))

    @pytest.mark.parametrize("verifier", ["verify_poly", "verify_sands"])
    def test_start_rejected_by_a_verifier_raises(self, flat11025, monkeypatch, verifier):
        # verify_direct accepts the start; another verifier rejecting it
        # would be a library bug, and the trace refuses to build
        t = shifted_instance(flat11025, 1, 1)
        monkeypatch.setattr(reduce_mod, verifier, lambda t: False)
        with pytest.raises(ShiftError, match="verifiers disagree"):
            reduce_to_grid(t)
        with pytest.raises(ShiftError, match="verifiers disagree"):
            classify(t)

    @pytest.mark.parametrize("case", sorted(GOLDEN_MOVES), ids=lambda c: "-".join(map(str, c)))
    def test_golden_moves(self, flat11025, case):
        k, seed, budget = case
        tr = reduce_to_grid(shifted_instance(flat11025, k, seed), budget)
        got = None if tr is None else tuple((mv.direction, mv.root, mv.target) for mv in tr.moves)
        assert got == GOLDEN_MOVES[case]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_one_kernel_call_per_expanded_state(self, flat11025, monkeypatch, seed):
        """The search keys its start and then all successors of each state
        it expands in one least_translates call each, never one call per
        successor.  The state whose move reaches a grid returns before
        building any successor."""
        calls, expanded = [], []
        real_kernel, real_scored = reduce_mod.least_translates, reduce_mod._scored_moves

        def kernel(rows, m):
            calls.append(len(rows))
            return real_kernel(rows, m)

        def scored(*args):
            out = real_scored(*args)
            expanded.append(out)
            return out

        monkeypatch.setattr(reduce_mod, "least_translates", kernel)
        monkeypatch.setattr(reduce_mod, "_scored_moves", scored)
        assert reduce_to_grid(shifted_instance(flat11025, 2, seed)) is not None
        keyed = [len(moves) for moves, grid_move in expanded if grid_move is None]
        assert expanded[-1][1] is not None
        assert calls == [1, *keyed]
        assert sum(keyed) > len(keyed)

    @pytest.mark.parametrize("k,seed", [(2, 1), (3, 2)])
    def test_one_push_per_translate_class(self, flat11025, monkeypatch, k, seed):
        """A successor is pushed exactly when no translate of it (nor of the
        start) was pushed before: one push per class of keys the search met."""
        keys, pushed = [], []
        real_kernel = reduce_mod.least_translates

        def kernel(rows, m):
            out = real_kernel(rows, m)
            keys.extend(map(tuple, out.tolist()))
            return out

        def push(heap, item):
            pushed.append(item[2])
            heapq.heappush(heap, item)

        monkeypatch.setattr(reduce_mod, "least_translates", kernel)
        monkeypatch.setattr(reduce_mod, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
        reduce_to_grid(shifted_instance(flat11025, k, seed))
        classes = {tuple(row) for row in real_kernel(np.array(pushed), 11025).tolist()}
        assert len(classes) == len(pushed) == len(set(keys)) - 1
        assert keys[0] not in classes


def _assert_matches_oracle(t: TilingInstance, support: frozenset[int], scored) -> None:
    moves, grid_move = scored
    expected = oracle_scored_moves(t, support)
    assert moves.dtype == np.int64 and moves.shape == (len(expected), 4)
    assert [tuple(mv) for mv in moves.tolist()] == [mv[:4] for mv in expected]
    grids = [mv[:4] for mv in expected if mv[4]]
    assert grid_move == (grids[0] if grids else None)


class TestScoredMoves:
    @staticmethod
    def check_popped_states(t: TilingInstance, monkeypatch) -> None:
        """The array scorer against the per-move oracle on every state the
        search pops; the last is the state whose move reaches a grid."""
        popped = []
        real = reduce_mod._scored_moves

        def spy(mod, sup, sat, off_line):
            out = real(mod, sup, sat, off_line)
            popped.append((frozenset(sup.tolist()), out))
            return out

        monkeypatch.setattr(reduce_mod, "_scored_moves", spy)
        assert reduce_to_grid(t) is not None
        for support, scored in popped:
            _assert_matches_oracle(t, support, scored)
        _, (_, last_grid_move) = popped[-1]
        assert last_grid_move is not None

    @pytest.mark.parametrize(
        "flat,k,seed",
        [("flat11025", k, s) for k in (1, 2, 3) for s in (1, 2)]
        + [("flat225", k, s) for k in (1, 2) for s in (1, 2)],
    )
    def test_shifted_instances(self, request, monkeypatch, flat, k, seed):
        self.check_popped_states(shifted_instance(request.getfixturevalue(flat), k, seed), monkeypatch)

    def test_flat225_one_shift(self, flat225, monkeypatch):
        self.check_popped_states(fiber_shift(flat225, ShiftMove(0, 0, 25)), monkeypatch)

    @pytest.mark.parametrize("flat", ["flat225", "flat11025"])
    def test_fiber_unions(self, request, flat):
        """Seeded unions of M-fibers piled into a few grids mod D, so the
        root or the target often sits on one of the fullest grids."""
        t = request.getfixturevalue(flat)
        mod = t.modulus
        m, d = mod.m, mod.d_of_m
        tables = reduce_mod._shift_tables(t)
        rng = np.random.default_rng(m)
        for _ in range(30):
            classes = rng.choice(d, size=3, replace=False)
            support = set()
            for _ in range(int(rng.integers(2, 12))):
                nu = int(rng.integers(mod.num_primes))
                step = m // mod.primes[nu][0]
                root = int(rng.choice(classes)) + d * int(rng.integers(step // d))
                support.update(range(root, m, step))
            support = frozenset(support)
            sup = np.array(sorted(support), dtype=np.int64)
            _assert_matches_oracle(t, support, reduce_mod._scored_moves(mod, sup, *tables))


class TestSubgroupAndSlab:
    def test_subgroup_applies(self, m225):
        # A inside 3 * Z_225 with 3 exactly dividing |B|
        a = Multiset.from_set(m225, range(0, 225, 15))
        b = standard_complement(m225, ({1}, {1}))
        assert subgroup_reduction_applies(TilingInstance(m225, a, b)) == 0

    def test_subgroup_unit_element(self, m225, flat225):
        t = TilingInstance(m225, flat225.a.translate(1), flat225.b)
        assert subgroup_reduction_applies(t) is None

    def test_subtile_holds_on_flat(self, flat225):
        for nu in (0, 1):
            assert subtile_condition(flat225, nu)
            assert slab_instances_verify(flat225, nu)

    def test_subtile_requires_top_power(self, m225):
        b = standard_complement(m225, ({1}, {1}))
        t = TilingInstance(m225, b, Multiset.from_set(m225, range(0, 225, 15)))
        with pytest.raises(ValueError):
            subtile_condition(t, 0)  # Phi_9 does not divide B-flat

    def test_slab_extract_shapes(self, flat225):
        slabs = slab_extract(flat225, 0)
        assert len(slabs) == 9
        assert all(inst.modulus.m == 75 for inst in slabs)
        assert all(verify_direct(inst) for inst in slabs)

    def test_equivalence_on_fibered_instance(self, m225):
        # A fibered in direction 0 satisfies both sides of the equivalence
        a_pts = sorted({(r + t * 75) % 225 for r in (0, 9, 18, 27, 36) for t in range(3)})
        comps = find_complements(a_pts, m225, limit=1)
        assert comps
        t = TilingInstance.from_sets(m225, a_pts, comps[0])
        assert subtile_condition(t, 0)
        assert slab_instances_verify(t, 0)


# -- every branch of classify, reached by a construction --------------------------------

PRIME_TRIPLES = [(3, 5, 7), (3, 5, 11), (3, 7, 11)]

SHIFT_NOTE = "shift search did not reach a grid within budget"
TRIPLE_NOTE = "triple intersection present but grid unreachable in budget"


def branch_cases(mod: Modulus):
    """(label, instance, budget, branch, swapped, direction, note) for tilings
    of Z_M, M = (p_i p_j p_k)^2, whose construction implies the branch.

    - The D(M)-grid and two grid fibers moved in one direction leave every
      grid fibered with a triple intersection; the second needs two moves
      back, so one expanded state does not reach a grid.
    - Two grid fibers moved in two directions leave the grid through 0
      fibered in none; two moves back again.
    - F_nu * S is fibered in direction nu alone.
    - The standard tiling with |A| = p_i^2 p_j p_k is outside the sizes.
    """
    flat = flat_tiling(mod)
    two_dirs = grid_shifts(flat, (0, 1), seed=1)
    one_dir = grid_shifts(flat, (2, 2), seed=1)
    yield "grid", flat, 10_000, "fibered-triple-grid", False, None, None
    yield "one-direction", one_dir, 10_000, "fibered-triple-grid", False, None, None
    yield "one-direction-budget-1", one_dir, 1, "unresolved", False, None, TRIPLE_NOTE
    yield "two-directions", two_dirs, 10_000, "unfibered-grid", False, None, None
    yield "two-directions-budget-1", two_dirs, 1, "unresolved", False, None, SHIFT_NOTE
    wide = TilingInstance(
        mod,
        standard_complement(mod, ({1, 2}, {1}, {1})),
        standard_complement(mod, (set(), {2}, {2})),
    )
    yield "wide", wide, 10_000, "generic", False, None, None
    for nu in range(3):
        yield f"slab-{nu}", slab_tiling(mod, nu), 10_000, "slab-reduction", False, nu, None
        for (subgroup, as_ba), (branch, swapped) in LAYERED_BRANCH.items():
            a, b = layered_tiling(mod, nu, subgroup, seed=nu)
            t = TilingInstance(mod, b, a) if as_ba else TilingInstance(mod, a, b)
            label = f"layered-{nu}-{'subgroup' if subgroup else 'residues'}"
            yield f"{label}-{'ba' if as_ba else 'ab'}", t, 10_000, branch, swapped, nu, None


def _classify_branches(source: str) -> set[str]:
    """Branch names a classify source can report: the first argument of each
    `certified(...)` call (a name is read through the constants assigned to
    it), plus "generic" and "unresolved"."""
    tree = ast.parse(source)
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    if isinstance(name, ast.Name) and isinstance(value, ast.Constant):
                        bound.setdefault(name.id, set()).add(value.value)
    out = {"generic", "unresolved"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certified":
            first = node.args[0]
            out |= {first.value} if isinstance(first, ast.Constant) else bound[first.id]
    return out


class TestClassify:
    def test_trivial_grid_instance(self, flat11025):
        rep = classify(flat11025)
        assert rep.branch in ("fibered-triple-grid", "unfibered-grid")
        assert rep.t2_a and rep.t2_b and rep.standard_cross_check
        assert rep.trace is not None and rep.trace.moves == ()

    def test_shifted_instance(self, flat11025):
        shifted = shifted_instance(flat11025, 2, seed=3)
        rep = classify(shifted)
        assert rep.resolved
        assert rep.t2_a and rep.t2_b and rep.standard_cross_check

    def test_generic_for_two_primes(self, flat225):
        rep = classify(flat225)
        assert rep.branch == "generic"
        assert rep.t2_a and rep.t2_b

    def test_unverified_rejected(self, m4):
        with pytest.raises(ValueError):
            classify(TilingInstance.from_sets(m4, [0, 1], [0, 1]))

    def test_slab_branch(self, m11025):
        # A = F_i * S is M-fibered in the i direction only; its product
        # complement makes a genuine tiling that must take the slab route
        mod = m11025
        s_jk = standard_complement(mod, (set(), {1}, {1}))
        a = s_jk.convolve(Multiset.fiber(mod, 0))
        assert a.is_set and len(a) == 105
        b = standard_complement(mod, ({1}, {2}, {2}))
        t = TilingInstance(mod, a, b)
        assert verify_direct(t)
        rep = classify(t)
        assert rep.branch == "slab-reduction"
        assert rep.direction == 0
        assert rep.t2_a and rep.t2_b and rep.standard_cross_check

    @pytest.mark.parametrize("primes", PRIME_TRIPLES, ids=lambda ps: "-".join(map(str, ps)))
    def test_every_branch_reached(self, primes):
        mod = Modulus.of(int(np.prod(primes)) ** 2)
        reached = set()
        for label, t, budget, branch, swapped, direction, note in branch_cases(mod):
            assert verify_direct(t), label
            rep = classify(t, budget=budget)
            assert (rep.branch, rep.swapped, rep.direction) == (branch, swapped, direction), label
            if branch == "unresolved":
                assert rep.notes[-1] == note, label
            else:
                assert rep.t2_a and rep.t2_b and rep.standard_cross_check, label
            reached.add(branch)
        assert reached == _classify_branches(inspect.getsource(classify))

    @pytest.mark.parametrize("seed,note", [(3, SHIFT_NOTE), (1, TRIPLE_NOTE)], ids=("seed-3", "seed-1"))
    def test_unresolved_within_budget(self, flat11025, seed, note):
        rep = classify(shifted_instance(flat11025, 2, seed), budget=1)
        assert rep.branch == "unresolved" and not rep.resolved
        assert rep.notes == (note,)
        assert rep.t2_a is rep.t2_b is rep.standard_cross_check is None

    def test_guard_sees_a_new_branch(self):
        source = inspect.getsource(classify)
        assert "unfibered-grid" in _classify_branches(source)
        assert "fibered-triple-grid" in _classify_branches(source)
        extended = source + '    certified("new-branch", t)\n'
        assert _classify_branches(extended) == _classify_branches(source) | {"new-branch"}
