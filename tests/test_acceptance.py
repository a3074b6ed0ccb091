"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.

Scale notes (documented deviations live in the repo's decision ledger):

* Criterion 1's "every pair" is realized per canonical A as equality of the
  three verifier-accepted complement collections; literal pair iteration at
  m = 36 is ~10^11 pairs.  The exact-cover side runs UNPRUNED so the three
  routes stay independent.
* Criteria 2/3/4/9 sweep full enumerations wherever the instance count is
  bounded (see EXHAUSTIVE_SPLITS); the degenerate splits whose tiling counts
  are astronomically large (2^35 complements of {0, 36} in Z_72 alone) are
  covered by deterministic seeded samples plus batch checks.
* Per-side (T1)/(T2) checks on bulk enumerations run through exact batched
  linear algebra (integer reduction matrices mod Phi_s), cross-validated
  against the scalar implementations on seeded subsamples.
"""

from __future__ import annotations

import time
from itertools import chain, combinations
from math import comb, gcd

import numpy as np
import pytest

from cyclotile import (
    EnumerationTask,
    Modulus,
    Multiset,
    ShiftMove,
    TilingInstance,
    classify,
    cyclotomic,
    enumerate_tilings,
    euler_phi,
    fiber_shift,
    find_complements,
    phi_divides,
    phi_divides_via_cuboids,
    s_a,
    standard_complement,
    standard_complement_of,
    subtile_condition,
    t1_check,
    t2_check,
    verify_direct,
    verify_poly,
    verify_sands,
)
from cyclotile.reduce import slab_instances_verify
from cyclotile.search import _structured_candidates, least_translates
from cyclotile.structure import classify_unfibered_grid, plane_bound_check
from cyclotile.tiling import box_product_sweep_is_one, box_table, div_set

from tests_helpers import admissible_pair_mask, grid_point, shifted_instance


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# batched exact helpers
# ---------------------------------------------------------------------------


class BatchChecker:
    """Exact batched spectra / (T1) / (T2) for 0-1 rows over Z_m (<= 2 primes)."""

    def __init__(self, mod: Modulus):
        self.mod = mod
        m = mod.m
        self.divs = [s for s in mod.divisors if s > 1]
        self.red: dict[int, np.ndarray] = {}
        for s in self.divs:
            phi = np.array(cyclotomic(s).coeffs, dtype=np.int64)
            deg = len(phi) - 1
            rows = np.zeros((m, deg), dtype=np.int64)
            cur = np.zeros(deg, dtype=np.int64)
            if deg > 0:
                cur[0] = 1
            for i in range(m):
                rows[i] = cur
                nxt = np.zeros(deg, dtype=np.int64)
                nxt[1:] = cur[:-1]
                lead = cur[-1]
                if lead:
                    nxt -= lead * phi[:-1]
                cur = nxt
            self.red[s] = rows
        self.pp = [s for s in self.divs if len(Modulus.of(s).primes) == 1]
        self.pp_at_one = {s: cyclotomic(s).at_one() for s in self.pp}
        self.joints = []
        by_prime: dict[int, list[int]] = {}
        for s in self.pp:
            by_prime.setdefault(Modulus.of(s).primes[0][0], []).append(s)
        primes = sorted(by_prime)
        for i in range(len(primes)):
            for j in range(i + 1, len(primes)):
                for s1 in by_prime[primes[i]]:
                    for s2 in by_prime[primes[j]]:
                        self.joints.append((s1, s2, s1 * s2))

    def divisibility(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        out = {}
        for s in self.divs:
            rem = rows @ self.red[s]
            out[s] = ~np.any(rem, axis=1)
        return out

    def t1_t2(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        div = self.divisibility(rows)
        sizes = rows.sum(axis=1)
        prods = np.ones(len(rows), dtype=np.int64)
        for s in self.pp:
            prods = np.where(div[s], prods * self.pp_at_one[s], prods)
        t1 = prods == sizes
        t2 = np.ones(len(rows), dtype=bool)
        for s1, s2, joint in self.joints:
            need = div[s1] & div[s2]
            t2 &= ~need | div[joint]
        return t1, t2


def rows_from_sets(m: int, sets: list[tuple[int, ...]]) -> np.ndarray:
    out = np.zeros((len(sets), m), dtype=np.int64)
    for i, s in enumerate(sets):
        out[i, list(s)] = 1
    return out


def batch_tiles_with(a: tuple[int, ...], rows: np.ndarray, m: int) -> np.ndarray:
    """Vectorized direct verification of a fixed A against many B rows."""
    cover = np.zeros_like(rows)
    for e in a:
        cover += np.roll(rows, e, axis=1)
    return np.all(cover == 1, axis=1)


# ---------------------------------------------------------------------------
# the shared enumeration sweep: criteria 2, 3, 4, 9
# ---------------------------------------------------------------------------

EXHAUSTIVE_SPLITS = {
    16: (1, 2, 4),
    24: (1, 2, 3, 4),
    36: (1, 2, 3, 4, 6),
    48: (1, 6),
    72: (1,),
}
# (size, A-candidate cap or None for all, complements per A) for the splits
# whose full tiling counts are out of reach (millions to 2^35).
SAMPLED_SPLITS = {
    48: ((2, None, 300), (3, None, 60), (4, 20000, 25)),
    72: ((2, None, 300), (3, None, 60), (4, 20000, 20), (6, 60000, 10), (8, 40000, 10)),
}
CROSS_CHECK_SAMPLES = 60


class SweepStats:
    def __init__(self) -> None:
        self.instances = 0
        self.t1_failures = 0
        self.t2_failures = 0
        self.prop21_failures = 0
        self.box_failures = 0
        self.ede_failures = 0
        self.plane_failures = 0
        self.cross_checked = 0
        self.split_lines: list[str] = []


def _process_split(mod: Modulus, instances, stats: SweepStats, label: str) -> None:
    """Run the per-instance and batched checks of criteria 2/3/4/9."""
    m = mod.m
    checker = BatchChecker(mod)
    phis = np.array([euler_phi(m // d) for d in mod.divisors], dtype=np.int64)
    big = int(np.lcm.reduce(phis))
    wvec = big // phis
    admissible = admissible_pair_mask(mod)
    rng = np.random.Generator(np.random.PCG64(mod.m))

    a_sets: dict[tuple[int, ...], None] = {}
    b_sets: list[tuple[int, ...]] = []
    b_of_a: list[int] = []
    a_index: dict[tuple[int, ...], int] = {}
    a_list: list[tuple[int, ...]] = []
    count = 0
    sample_idx: list[int] = []

    for inst in instances:
        a = inst.a.elements()
        b = inst.b.elements()
        count += 1
        if a not in a_index:
            a_index[a] = len(a_list)
            a_list.append(a)
        b_sets.append(b)
        b_of_a.append(a_index[a])
        # criterion 4: the box product identity, all m^2 anchor pairs, exact
        ta = box_table(inst.a)
        tb = box_table(inst.b)
        grid = (ta * wvec[None, :]) @ tb.T
        if not np.all(grid == big):
            stats.box_failures += 1
        # criterion 9a: enhanced divisor exclusion over all admissible scales
        ca = (ta > 0).astype(np.int64)
        cb = (tb > 0).astype(np.int64)
        co_a = (ca.T @ ca) > 0
        co_b = (cb.T @ cb) > 0
        if np.any(co_a & co_b & admissible):
            stats.ede_failures += 1
        # criterion 9b: plane bound
        if not plane_bound_check(inst):
            stats.plane_failures += 1

    stats.instances += count
    if count == 0:
        stats.split_lines.append(f"  {label}: empty")
        return

    # batched (T1)/(T2) on both sides + the standard-complement equivalence
    b_rows = rows_from_sets(m, b_sets)
    a_rows = rows_from_sets(m, a_list)
    t1_b, t2_b = checker.t1_t2(b_rows)
    t1_a, t2_a = checker.t1_t2(a_rows)
    stats.t1_failures += int((~t1_b).sum()) + int((~t1_a).sum())
    stats.t2_failures += int((~t2_b).sum()) + int((~t2_a).sum())

    # criterion 3: A-flat (determined by B's prime-power pattern) tiles with B
    # exactly when B satisfies (T2); group rows by pattern.
    div = checker.divisibility(b_rows)
    pattern = np.stack([div[s] for s in checker.pp], axis=1)
    recon_ok = np.zeros(len(b_sets), dtype=bool)
    for pat in np.unique(pattern, axis=0):
        idx = np.flatnonzero(np.all(pattern == pat[None, :], axis=1))
        fams = []
        for p, n in mod.primes:
            have = {
                Modulus.of(s).primes[0][1]
                for s, flag in zip(checker.pp, pat)
                if flag and Modulus.of(s).primes[0][0] == p
            }
            fams.append(frozenset(range(1, n + 1)) - have)
        flat = standard_complement(mod, tuple(fams))
        recon_ok[idx] = batch_tiles_with(flat.elements(), b_rows[idx], m)
    stats.prop21_failures += int(np.sum(recon_ok != t2_b))

    # cross-validate the batched verdicts against the scalar implementations
    take = rng.choice(len(b_sets), size=min(CROSS_CHECK_SAMPLES, len(b_sets)), replace=False)
    for i in map(int, take):
        bm = Multiset.from_set(mod, b_sets[i])
        assert t1_check(bm) == bool(t1_b[i])
        assert t2_check(bm) == bool(t2_b[i])
        flat = standard_complement_of(bm)
        assert verify_direct(TilingInstance(mod, flat, bm)) == bool(recon_ok[i])
        am = Multiset.from_set(mod, a_list[b_of_a[i]])
        assert t1_check(am) == bool(t1_a[b_of_a[i]])
        assert t2_check(am) == bool(t2_a[b_of_a[i]])
        stats.cross_checked += 1
    stats.split_lines.append(f"  {label}: {count} instances, {len(a_list)} tiles A")


def _sampled_instances(mod: Modulus, size: int, cand_cap: int | None, comp_cap: int):
    """Deterministic sampled enumeration for the oversized splits."""
    m = mod.m
    rng = np.random.Generator(np.random.PCG64(m * 100 + size))
    if size == 8 and m == 72:
        cands = []
        for i, a in enumerate(_structured_candidates(m, size)):
            cands.append(a)
            if cand_cap and len(cands) >= 3 * cand_cap:
                break
        picks = rng.choice(len(cands), size=min(cand_cap or len(cands), len(cands)), replace=False)
        chosen = [cands[int(i)] for i in sorted(picks)]
    elif cand_cap is None:
        chosen = [(0, *rest) for rest in combinations(range(1, m), size - 1)]
    else:
        chosen = []
        for _ in range(cand_cap):
            rest = rng.choice(np.arange(1, m), size - 1, replace=False)
            chosen.append(tuple(sorted([0, *map(int, rest)])))
        chosen = sorted(set(chosen))
    for a in chosen:
        if len(set(a)) != len(a):
            continue
        for b in find_complements(a, mod, limit=comp_cap):
            yield TilingInstance.from_sets(mod, a, b)


@pytest.fixture(scope="module")
def sweep() -> SweepStats:
    stats = SweepStats()
    for m, sizes in EXHAUSTIVE_SPLITS.items():
        mod = Modulus.of(m)
        for k in sizes:
            _process_split(
                mod,
                enumerate_tilings(EnumerationTask(mod, k)),
                stats,
                f"m={m} |A|={k} exhaustive",
            )
    for m, specs in SAMPLED_SPLITS.items():
        mod = Modulus.of(m)
        for k, cand_cap, comp_cap in specs:
            _process_split(
                mod,
                _sampled_instances(mod, k, cand_cap, comp_cap),
                stats,
                f"m={m} |A|={k} sampled",
            )
    return stats


# ---------------------------------------------------------------------------
# criterion 1: the three verifiers agree on every pair
# ---------------------------------------------------------------------------


def _sands_accepted(a: tuple[int, ...], mod: Modulus) -> list[tuple[int, ...]]:
    """All B containing 0 of the complementary size whose differences avoid
    Div(A) - {m}: the divisor-exclusion side, enumerated independently."""
    m = mod.m
    target = m // len(a)
    div_a = div_set(Multiset.from_set(mod, a)) - {m}
    bad = [d for d in range(1, m) if gcd(d, m) in div_a]
    badmask = 0
    for d in bad:
        badmask |= 1 << d
    full = (1 << m) - 1
    out: list[tuple[int, ...]] = []

    def rec(chosen: list[int], lo: int, blocked: int) -> None:
        if len(chosen) == target:
            out.append(tuple(chosen))
            return
        # capacity prune only (no cover logic): enough candidates left?
        for b in range(lo, m):
            if (blocked >> b) & 1:
                continue
            if m - b < target - len(chosen):
                break
            chosen.append(b)
            shifted = ((badmask << b) | (badmask >> (m - b))) & full
            rec(chosen, b + 1, blocked | shifted)
            chosen.pop()

    rec([0], 1, badmask)
    return out


def _spectrum_groups(mod: Modulus, size: int, checker: BatchChecker):
    """All sets of the given size containing 0, grouped by spectrum (chunked)."""
    m = mod.m
    groups: dict[bytes, list[tuple[int, ...]]] = {}
    chunk: list[tuple[int, ...]] = []

    def flush() -> None:
        if not chunk:
            return
        rows = rows_from_sets(m, chunk)
        div = checker.divisibility(rows)
        keys = np.stack([div[s] for s in checker.divs], axis=1)
        for i, s in enumerate(chunk):
            groups.setdefault(keys[i].tobytes(), []).append(s)
        chunk.clear()

    for rest in combinations(range(1, m), size - 1):
        chunk.append((0, *rest))
        if len(chunk) >= 100_000:
            flush()
    flush()
    key_arrays = {k: np.frombuffer(k, dtype=bool) for k in groups}
    return groups, key_arrays


def test_criterion_1_verifier_equivalence():
    """Sands <=> direct <=> polynomial on every pair with |A||B| = m."""
    t0 = time.time()
    moduli = (4, 8, 12, 16, 24, 36)
    failures = 0
    pairs_literal = 0
    rng = np.random.Generator(np.random.PCG64(1))
    for m in moduli:
        mod = Modulus.of(m)
        checker = BatchChecker(mod)
        group_cache: dict[int, tuple] = {}
        for d in mod.divisors:
            if d * d > m:
                continue
            comp = m // d
            enumerable_p = comb(m - 1, comp - 1) <= 400_000
            if enumerable_p and comp not in group_cache:
                group_cache[comp] = _spectrum_groups(mod, comp, checker)
            count = comb(m - 1, d - 1)
            rest = np.fromiter(chain.from_iterable(combinations(range(1, m), d - 1)), dtype=np.int64)
            cands = np.column_stack([np.zeros(count, dtype=np.int64), rest.reshape(count, d - 1)])
            for a in map(tuple, cands[(least_translates(cands, m) == cands).all(axis=1)].tolist()):
                t_set = find_complements(a, mod, use_pruning=False)
                s_set = _sands_accepted(a, mod)
                if sorted(t_set) != sorted(s_set):
                    failures += 1
                    continue
                ma = Multiset.from_set(mod, a)
                needed = np.array([not phi_divides(s, ma) for s in checker.divs])
                if enumerable_p:
                    groups, keys = group_cache[comp]
                    p_set: list[tuple[int, ...]] = []
                    for kb, members in groups.items():
                        if np.all(keys[kb] | ~needed):
                            p_set.extend(members)
                    if sorted(p_set) != sorted(t_set):
                        failures += 1
                elif t_set:
                    # every tiling complement must satisfy the polynomial side
                    # (batched); the reverse inclusion is the classical
                    # counting identity, spot-checked by the negatives below
                    div = checker.divisibility(rows_from_sets(m, t_set))
                    covered = np.ones(len(t_set), dtype=bool)
                    for flag, s in zip(needed, checker.divs):
                        if flag:
                            covered &= div[s]
                    if not covered.all():
                        failures += 1
                # literal three-verifier agreement on members + seeded negatives
                sample_b = list(t_set[:3])
                for _ in range(3):
                    rest_b = rng.choice(np.arange(1, m), comp - 1, replace=False)
                    sample_b.append(tuple(sorted([0, *map(int, rest_b)])))
                for b in sample_b:
                    if len(set(b)) != len(b):
                        continue
                    t = TilingInstance.from_sets(mod, a, b)
                    if not verify_direct(t) == verify_poly(t) == verify_sands(t):
                        failures += 1
                    pairs_literal += 1
    ok = failures == 0
    report(
        1,
        ok,
        f"three-way accepted-set equality over m={moduli}, "
        f"{pairs_literal} literal spot pairs, {time.time() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criteria 2, 3, 4, 9 over the shared sweep
# ---------------------------------------------------------------------------


def test_criterion_2_cm_necessity(sweep: SweepStats):
    ok = sweep.t1_failures == 0 and sweep.t2_failures == 0
    report(
        2,
        ok,
        f"(T1)/(T2) on both sides of {sweep.instances} enumerated tilings "
        f"({sweep.cross_checked} scalar cross-checks); "
        f"t1 failures {sweep.t1_failures}, t2 failures {sweep.t2_failures}",
    )
    for line in sweep.split_lines:
        print(line)
    assert ok


def test_criterion_3_standard_complement_equivalence(sweep: SweepStats):
    ok = sweep.prop21_failures == 0
    report(
        3,
        ok,
        f"A-flat tiles with B iff B satisfies (T2): {sweep.instances} instances, "
        f"{sweep.prop21_failures} mismatches",
    )
    assert ok


def test_criterion_4_box_product(sweep: SweepStats, flat225, flat11025):
    # enumerated tilings: all m^2 anchor pairs, exact (already in the sweep)
    ok = sweep.box_failures == 0
    # flat 225: exhaustive pairs; flat 11025: 10^4 seeded pairs
    xs, ys = np.meshgrid(np.arange(225), np.arange(225))
    ok_225 = box_product_sweep_is_one(flat225, xs.ravel(), ys.ravel())
    rng = np.random.Generator(np.random.PCG64(4))
    xs2 = rng.integers(0, 11025, size=10_000)
    ys2 = rng.integers(0, 11025, size=10_000)
    ok_11025 = box_product_sweep_is_one(flat11025, xs2, ys2)
    all_ok = ok and ok_225 and ok_11025
    report(
        4,
        all_ok,
        f"exact rational identity on {sweep.instances} tilings (all anchor pairs), "
        f"exhaustive at 225, 10^4 sampled pairs at 11025",
    )
    assert all_ok


def test_criterion_9_divisor_exclusion_and_plane_bound(sweep: SweepStats, flat11025):
    ok_sweep = sweep.ede_failures == 0 and sweep.plane_failures == 0
    # sampled tuples at 11025 on the standard pair and shifted fixtures
    rng = np.random.Generator(np.random.PCG64(9))
    mod = flat11025.modulus
    admissible = np.argwhere(admissible_pair_mask(mod))
    violations = 0
    for inst in (flat11025, shifted_instance(flat11025, 2, seed=91), shifted_instance(flat11025, 4, seed=92)):
        ta = box_table(inst.a)
        tb = box_table(inst.b)
        pick = rng.integers(0, len(admissible), size=100_000 // 3 + 1)
        xs = rng.integers(0, mod.m, size=len(pick))
        ys = rng.integers(0, mod.m, size=len(pick))
        i1 = admissible[pick, 0]
        i2 = admissible[pick, 1]
        prods = ta[xs, i1] * ta[xs, i2] * tb[ys, i1] * tb[ys, i2]
        violations += int(np.count_nonzero(prods))
        if not plane_bound_check(inst):
            violations += 1
    ok = ok_sweep and violations == 0
    report(
        9,
        ok,
        f"enhanced divisor exclusion and plane bound: 0 violations over "
        f"{sweep.instances} enumerated tilings and 10^5 sampled tuples at 11025",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: cyclotomic dual path
# ---------------------------------------------------------------------------


def test_criterion_5_dual_path():
    # The division route is the test's own: remainders mod Phi_s through
    # BatchChecker's reduction matrices.  The library decides Phi_s | A by
    # the difference operator (phi_divides) and by cuboid nullity.
    t0 = time.time()
    disagreements = 0
    for m in (36, 225):
        mod = Modulus.of(m)
        rng = np.random.Generator(np.random.PCG64(m))
        rows = np.array([rng.integers(0, 3, size=m) for _ in range(1000)])
        division = BatchChecker(mod).divisibility(rows)
        for i, row in enumerate(rows):
            a = Multiset(mod, row)
            for s, divides in division.items():
                if not divides[i] == phi_divides_via_cuboids(s, a) == phi_divides(s, a):
                    disagreements += 1
    ok = disagreements == 0
    report(
        5,
        ok,
        f"division vs cuboid nullity vs difference operator on 1000 seeded "
        f"multisets in Z_36 and Z_225, all divisors; {disagreements} "
        f"disagreements, {time.time() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: fiber-shift round trip at 11025
# ---------------------------------------------------------------------------


def test_criterion_6_shift_round_trip(flat11025):
    budget = 10_000
    ok = True
    details = []
    for k in range(1, 6):
        t0 = time.time()
        inst = shifted_instance(flat11025, k, seed=600 + k)  # each step re-verified
        assert s_a(inst.a) == frozenset({9, 25, 49})
        rep = classify(inst, budget=budget)
        elapsed = time.time() - t0
        good = (
            rep.resolved
            and rep.t2_a is True
            and rep.t2_b is True
            and rep.standard_cross_check is True
            and elapsed < 120
        )
        if rep.trace is not None:
            d = inst.modulus.d_of_m
            good = good and len({x % d for x in rep.trace.final.a.elements()}) == 1
        ok = ok and good
        details.append(f"k={k}:{rep.branch}@{elapsed:.0f}s")
    report(6, ok, "classify recovers a top-scale grid with (T2) certificates: " + ", ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: slab equivalence on constructed instances
# ---------------------------------------------------------------------------


def _constructed_subtile_instances():
    out = []
    m225 = Modulus.of(225)
    a_flat = standard_complement(m225, ({2}, {2}))
    b_flat = standard_complement(m225, ({1}, {1}))
    out.append((TilingInstance(m225, a_flat, b_flat), (0, 1)))
    mixed = TilingInstance(
        m225, standard_complement(m225, ({2}, {1})), standard_complement(m225, ({1}, {2}))
    )
    out.append((mixed, (0,)))
    out.append((mixed.transpose(), (1,)))
    flat = TilingInstance(m225, a_flat, b_flat)
    out.append((fiber_shift(flat, ShiftMove(0, 0, 25)), (0, 1)))
    out.append((fiber_shift(flat, ShiftMove(1, 0, 9)), (0, 1)))
    # nine-element tiles: equidistributed mod 9, with the subgroup complement
    rng = np.random.Generator(np.random.PCG64(7))
    added = 0
    while added < 4:
        a = tuple(sorted([0] + [int(r + 9 * rng.integers(0, 25)) for r in range(1, 9)]))
        comps = find_complements(a, m225, limit=1)
        if comps:
            out.append((TilingInstance.from_sets(m225, a, comps[0]), (0,)))
            added += 1
    m11025 = Modulus.of(11025)
    flat3 = TilingInstance(
        m11025,
        Multiset.from_set(m11025, range(0, 11025, 105)),
        standard_complement(m11025, ({1}, {1}, {1})),
    )
    out.append((flat3, (0, 1, 2)))
    out.append((shifted_instance(flat3, 2, seed=71), (0, 1, 2)))
    out.append((shifted_instance(flat3, 3, seed=72), (0, 1, 2)))
    fibered = TilingInstance(
        m11025,
        standard_complement(m11025, (set(), {1}, {1})).convolve(Multiset.fiber(m11025, 0)),
        standard_complement(m11025, ({1}, {2}, {2})),
    )
    if verify_direct(fibered):
        out.append((fibered, (0,)))
    return out


def test_criterion_7_subtile_equivalence():
    t0 = time.time()
    cases = 0
    disagreements = 0
    for inst, dirs in _constructed_subtile_instances():
        for nu in dirs:
            p, n = inst.modulus.primes[nu]
            if not phi_divides(p**n, inst.a):
                continue
            cond = subtile_condition(inst, nu)
            slabs = slab_instances_verify(inst, nu)
            cases += 1
            if cond != slabs:
                disagreements += 1
    ok = cases >= 20 and disagreements == 0
    report(
        7,
        ok,
        f"divisibility alternative vs translate-slab verification: {cases} "
        f"instance-direction cases, {disagreements} disagreements, {time.time() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: structure detector taxonomy and divisor profiles
# ---------------------------------------------------------------------------


def _embed_on_grid_zero(mod: Modulus, coords_list, raw=()) -> Multiset:
    """Place the given grid-0 points (coords or raw elements) and fill every
    other top grid completely, so the whole set keeps the top cyclotomic."""
    pts = {grid_point(mod, c) for c in coords_list} | {int(x) for x in raw}
    full_elsewhere = [
        x + mod.d_of_m * t for x in range(1, mod.d_of_m) for t in range(mod.m // mod.d_of_m)
    ]
    return Multiset.from_set(mod, sorted(pts | set(full_elsewhere)))


def test_criterion_8_structure_detectors():
    m = Modulus.of(11025)
    me = Modulus.of(900)
    top = lambda mod: {d for d in mod.divisors if d % mod.d_of_m == 0}

    def missing_of(a, mod):
        members = [x for x in mod.grid(0, mod.d_of_m) if x in a]
        return top(mod) - div_set(Multiset.from_set(mod, members))

    failures = []

    # diagonal boxes: full profile, no missing top divisors
    boxes = _embed_on_grid_zero(
        m, [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1, 2)]
        + [(2, j, k) for j in (2, 3, 4) for k in (3, 4, 5, 6)]
    )
    f = classify_unfibered_grid(boxes, 0)
    if f.kind != "diagonal-boxes" or missing_of(boxes, m):
        failures.append(f"diagonal-boxes got {f.kind}")

    # corner(k): misses exactly M/(p_i p_j)
    pts = set(m.fiber(grid_point(m, (0, 0, 0)), 0)) | set(m.fiber(grid_point(m, (0, 1, 1)), 1))
    corner = _embed_on_grid_zero(m, [], raw=pts)
    f = classify_unfibered_grid(corner, 0)
    want_missing = {m.m // (3 * 5)}
    if f.kind != "corner" or f.direction != 2 or missing_of(corner, m) != want_missing:
        failures.append(f"corner got {f.kind}/{f.direction} missing {missing_of(corner, m)}")

    # extended corner detection on a two-fiber-per-plane configuration
    from cyclotile import detect_extended_corner

    pts = set()
    for c in ((0, 0, 0), (0, 2, 3)):
        pts |= set(m.fiber(grid_point(m, c), 1))
    for c in ((1, 0, 0), (1, 4, 0)):
        pts |= set(m.fiber(grid_point(m, c), 2))
    ec = Multiset.from_set(m, sorted(pts))
    if not detect_extended_corner(ec, 0, 0).found:
        failures.append("extended-corner not found")

    # full plane: misses exactly {M/(p_i p_j), M/(p_i p_k)}
    fp = _embed_on_grid_zero(
        m, [(i, 0, 0) for i in (0, 1)] + [(2, j, k) for j in range(1, 5) for k in range(1, 7)]
    )
    f = classify_unfibered_grid(fp, 0)
    want_missing = {m.m // (3 * 5), m.m // (3 * 7)}
    if f.kind != "full-plane" or f.direction != 0 or missing_of(fp, m) != want_missing:
        failures.append(f"full-plane got {f.kind} missing {missing_of(fp, m)}")

    # almost corner: misses exactly M/(p_i p_j), boxes with pinched transverse
    ac = _embed_on_grid_zero(
        m, [(i, 0, k) for i in (0, 1) for k in (0, 1, 2)]
        + [(2, j, k) for j in (1, 2, 3, 4) for k in (3, 4, 5, 6)]
    )
    f = classify_unfibered_grid(ac, 0)
    if f.kind != "almost-corner" or f.direction != 2 or missing_of(ac, m) != {m.m // 15}:
        failures.append(f"almost-corner got {f.kind} missing {missing_of(ac, m)}")

    # even corner at 900 (p=2 present): single fibers per plane
    pts = set(me.fiber(grid_point(me, (0, 0, 0)), 0)) | set(me.fiber(grid_point(me, (0, 1, 1)), 1))
    evenc = _embed_on_grid_zero(me, [], raw=pts)
    f = classify_unfibered_grid(evenc, 0)
    if f.kind != "even-corner" or f.direction != 2:
        failures.append(f"even-corner got {f.kind}/{f.direction}")

    # even diagonal boxes at 900: no 2-direction top difference
    evendb = _embed_on_grid_zero(
        me, [(0, j, k) for j in (0, 1) for k in (0, 1)] + [(1, 2, k) for k in (2, 3, 4)]
    )
    f = classify_unfibered_grid(evendb, 0)
    if f.kind != "even-diagonal-boxes" or me.m // 2 in div_set(
        Multiset.from_set(me, [x for x in me.grid(0, me.d_of_m) if x in evendb])
    ):
        failures.append(f"even-diagonal-boxes got {f.kind}")

    ok = not failures
    report(8, ok, "taxonomy labels + divisor profiles: " + ("all 7 fixtures correct" if ok else "; ".join(failures)))
    assert ok
