"""Complement search and exhaustive enumeration oracles."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from cyclotile import (
    EnumerationTask,
    Modulus,
    Multiset,
    TilingInstance,
    enumerate_tilings,
    find_complements,
    t1_check,
    t2_check,
    verify_direct,
    verify_poly,
    verify_sands,
)
import cyclotile.reduce as reduce_mod
from cyclotile.search import least_translates
from tests_helpers import shifted_instance


def least_translate_oracle(a, m: int) -> tuple[int, ...]:
    """The least of the sorted translates of A that start at 0."""
    return min((tuple(sorted((x - t) % m for x in a)) for t in a), default=())


def assert_kernel_matches_oracle(sets, m: int) -> list[tuple[int, ...]]:
    """least_translates against the oracle row by row, one kernel call per
    set size; returns the kernel's rows in the order of `sets`."""
    rows = [sorted(x % m for x in a) for a in sets]
    by_size: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_size.setdefault(len(row), []).append(i)
    got: list[tuple[int, ...]] = [()] * len(rows)
    for n, idx in by_size.items():
        batch = np.array([rows[i] for i in idx], dtype=np.int64).reshape(len(idx), n)
        out = least_translates(batch, m)
        assert out.shape == batch.shape and out.dtype == np.int64
        for i, key in zip(idx, out.tolist()):
            got[i] = tuple(key)
            assert got[i] == least_translate_oracle(rows[i], m), (m, rows[i])
    return got


class TestFindComplements:
    def test_example_8(self):
        out = find_complements([0, 1, 4, 5], 8)
        assert (0, 2) in out and out == [(0, 2), (0, 6)]

    def test_example_4(self):
        assert find_complements([0, 2], 4) == [(0, 1), (0, 3)]

    def test_non_tile(self):
        assert find_complements([0, 1, 2], 4) == []

    def test_size_not_dividing(self):
        assert find_complements([0, 1, 2], 8) == []

    def test_every_result_verifies(self, m36):
        a = [0, 1, 2, 3, 4, 5]
        for b in find_complements(a, m36):
            assert verify_direct(TilingInstance.from_sets(m36, a, b))

    def test_limit(self, m36):
        full = find_complements([0, 1, 2, 3, 4, 5], m36)
        first = find_complements([0, 1, 2, 3, 4, 5], m36, limit=1)
        assert len(first) == 1 and first[0] in full

    def test_deep_complement_without_recursion(self):
        # |B| = 1001 frames: deeper than the default recursion limit.
        assert find_complements([0, 1], 2002, limit=1) == [tuple(range(0, 2002, 2))]

    def test_cap(self):
        # Past the cap the masks alone would outgrow memory: refuse up front.
        with pytest.raises(ValueError):
            find_complements([0], 1 << 15)

    def test_matches_brute_force_z12(self, m12):
        # oracle: direct check over all subsets
        for size in (2, 3, 4, 6):
            for rest in combinations(range(1, 12), size - 1):
                a = (0, *rest)
                expect = []
                for brest in combinations(range(1, 12), 12 // size - 1):
                    t = TilingInstance.from_sets(m12, a, (0, *brest))
                    if verify_direct(t):
                        expect.append((0, *brest))
                assert find_complements(a, m12) == sorted(expect)


class TestEnumeration:
    def test_z4(self):
        mod = Modulus.of(4)
        got = [(t.a.elements(), t.b.elements()) for t in enumerate_tilings(EnumerationTask(mod, 2))]
        assert ((0, 1), (0, 2)) in got and ((0, 2), (0, 1)) in got

    def test_prime_trivial(self):
        mod = Modulus.of(7)
        got = list(enumerate_tilings(EnumerationTask(mod, 7)))
        assert len(got) == 1
        assert got[0].a.elements() == tuple(range(7))

    def test_all_members_pass_verifiers(self, m36):
        n = 0
        for t in enumerate_tilings(EnumerationTask(m36, 6)):
            n += 1
            if n % 500 == 0:
                assert verify_direct(t) and verify_poly(t) and verify_sands(t)
        assert n == 12924

    def test_translation_canonical(self, m36):
        sets = []
        for i, t in enumerate(enumerate_tilings(EnumerationTask(m36, 4))):
            if i > 300:
                break
            sets.append(t.a.elements())
            assert 0 in t.b
        assert assert_kernel_matches_oracle(sets, 36) == sets

    def test_least_translate_matches_brute_force(self):
        for m in range(1, 15):
            assert_kernel_matches_oracle(
                [a for size in range(m + 1) for a in combinations(range(m), size)], m
            )

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_tilings(EnumerationTask(Modulus.of(450), 15)))

    @pytest.mark.parametrize("m", [12, 16, 18, 20])
    def test_matches_brute_force_oracle(self, m):
        # Every k | m: plain and structured candidate streams, and the swap
        # to the smaller side when k > m / k.
        mod = Modulus.of(m)
        for k in (k for k in range(1, m + 1) if m % k == 0):
            least = [
                a
                for a in ((0, *rest) for rest in combinations(range(1, m), k - 1))
                if a == min(tuple(sorted((x - t) % m for x in a)) for t in a)
            ]
            bs = np.array([(0, *rest) for rest in combinations(range(1, m), m // k - 1)])
            expect = []
            for a in least:
                sums = np.sort((np.array(a)[None, :, None] + bs[:, None, :]).reshape(len(bs), m) % m)
                covers = (sums == np.arange(m)).all(axis=1)
                expect += [(a, tuple(map(int, b))) for b in bs[covers]]
            got = sorted(
                (t.a.elements(), t.b.elements()) for t in enumerate_tilings(EnumerationTask(mod, k))
            )
            assert got == expect, (m, k)


class TestLeastTranslateStress:
    """Sets with long runs of equal gaps, the hard case for the least
    rotation: many starts stay tied for many packed words of gaps."""

    @pytest.mark.parametrize("m", [36, 60, 225, 11025])
    def test_periodic_sets(self, m):
        # d*Z_m ties every rotation; a union of a few translates of d*Z_m
        # has period d, so its gap sequence repeats m/d times.
        rng = np.random.default_rng(m)
        for d in Modulus.of(m).divisors:
            if m // d > 400:
                continue
            base = range(0, m, d)
            sets = [base]
            if d > 1:
                offsets = rng.choice(np.arange(1, d), size=min(d - 1, 3), replace=False)
                sets.append(sorted({(x + int(o)) % m for x in base for o in (0, *offsets)}))
            shifts = rng.integers(m, size=len(sets))
            assert_kernel_matches_oracle(
                [[(x + int(shift)) % m for x in a] for a, shift in zip(sets, shifts)], m
            )

    @pytest.mark.parametrize("m", [60, 225, 11025])
    def test_runs_then_a_break(self, m):
        # A run of equal gaps, then a smaller or larger gap: the starts in
        # the run stay tied until a word reaches the break.
        rng = np.random.default_rng([m, 3])
        sets = []
        for _ in range(60):
            a = set()
            for _ in range(int(rng.integers(1, 4))):
                length = int(rng.integers(2, min(m // 4, 40) + 1))
                step = int(rng.integers(1, m // length + 1))
                start = int(rng.integers(m))
                a |= {(start + i * step) % m for i in range(length)}
            sets.append(sorted(a))
        assert_kernel_matches_oracle(sets, m)

    @pytest.mark.parametrize("m", [225, 11025])
    def test_unions_of_fibers(self, m):
        mod = Modulus.of(m)
        rng = np.random.default_rng(m + 1)
        sets = []
        for nu, (p, _) in enumerate(mod.primes):
            step = m // p
            for count in (1, 2, 3, 5, 15):
                roots = rng.choice(step, size=min(count, step), replace=False)
                sets.append(sorted(int(r) + i * step for r in roots for i in range(p)))
        assert_kernel_matches_oracle(sets, m)

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (1, 2, 3) for s in (1, 2)])
    def test_shift_search_states(self, flat11025, monkeypatch, k, seed):
        """Every batch the search keys: its start and the successors of
        each state it expands."""
        batches = []
        real = reduce_mod.least_translates

        def spy(rows, m):
            out = real(rows, m)
            batches.append((rows.copy(), out))
            return out

        monkeypatch.setattr(reduce_mod, "least_translates", spy)
        reduce_mod.reduce_to_grid(shifted_instance(flat11025, k, seed))
        assert batches
        for rows, out in batches:
            for a, key in zip(rows.tolist(), out.tolist()):
                assert tuple(key) == least_translate_oracle(a, 11025)

    @pytest.mark.parametrize("m", [12, 36, 97, 225, 11025])
    def test_seeded_random_sets(self, m):
        rng = np.random.default_rng([m, 7])
        sets = []
        for _ in range(40):
            size = int(rng.integers(1, min(m, 120) + 1))
            sets.append(rng.choice(m, size=size, replace=False).tolist())
        assert_kernel_matches_oracle(sets, m)

    @pytest.mark.parametrize("m", [12, 36, 60, 225, 11025])
    def test_batches_mixing_translates(self, m):
        """Translates of a few base sets, shuffled into one batch of each
        size: two rows get equal keys exactly when one is a translate of
        the other (checked by trying every shift)."""
        rng = np.random.default_rng([m, 11])
        divisors = [d for d in Modulus.of(m).divisors if 1 < d < m and m // d <= 60]
        bases = []
        for n in (4, min(m // 2, 30)):
            bases.append(sorted(rng.choice(m, size=n, replace=False).tolist()))
            bases.append(sorted(rng.choice(m, size=n, replace=False).tolist()))
        for d in divisors[:3]:
            # a union of two cosets of d*Z_m: periodic, every other start ties
            bases.append(sorted({x + o for x in range(0, m, d) for o in (0, int(rng.integers(1, d)))}))
        run = min(m // 3, 25)
        bases.append(sorted([*range(run), run + 1]))  # a run of equal gaps, then a break
        sets = [
            sorted((x + int(t)) % m for x in base)
            for base in bases
            for t in rng.integers(m, size=4)
        ]
        sets = [sets[i] for i in rng.permutation(len(sets))]
        keys = assert_kernel_matches_oracle(sets, m)

        def translates(a, b):
            return len(a) == len(b) and any(
                sorted((x + b[0] - y) % m for x in a) == b for y in a
            )

        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert (keys[i] == keys[j]) == translates(a, b), (m, a, b)

    @pytest.mark.parametrize("m", [1, 12, 36, 60, 225, 11025])
    def test_empty_and_single_point_rows(self, m):
        empty = least_translates(np.empty((3, 0), dtype=np.int64), m)
        assert empty.shape == (3, 0)
        points = np.arange(0, m, max(m // 5, 1), dtype=np.int64)[:, None]
        assert least_translates(points, m).tolist() == [[0]] * len(points)
        assert least_translates(np.empty((0, 4), dtype=np.int64), m).shape == (0, 4)


class TestTheoremOneOne:
    """Tiling existence coincides with (T1) and (T2) for two-prime sizes."""

    def test_exhaustive_z16(self):
        mod = Modulus.of(16)
        for size in (2, 4, 8):
            for rest in combinations(range(1, 16), size - 1):
                a = (0, *rest)
                ms = Multiset.from_set(mod, a)
                tiles = bool(find_complements(a, mod, limit=1))
                assert tiles == (t1_check(ms) and t2_check(ms)), a

    def test_exhaustive_z24_small_sizes(self):
        mod = Modulus.of(24)
        for size in (2, 3, 4, 6):
            for rest in combinations(range(1, 24), size - 1):
                a = (0, *rest)
                ms = Multiset.from_set(mod, a)
                tiles = bool(find_complements(a, mod, limit=1))
                assert tiles == (t1_check(ms) and t2_check(ms)), a

    @pytest.mark.parametrize("m,size,n_samples", [(36, 6, 4000), (48, 6, 2500), (72, 6, 1200), (225, 15, 250)])
    def test_sampled_larger(self, m, size, n_samples):
        mod = Modulus.of(m)
        rng = np.random.Generator(np.random.PCG64(m * 1000 + size))
        for _ in range(n_samples):
            rest = rng.choice(np.arange(1, m), size - 1, replace=False)
            a = tuple(sorted([0, *map(int, rest)]))
            ms = Multiset.from_set(mod, a)
            tiles = bool(find_complements(a, mod, limit=1))
            assert tiles == (t1_check(ms) and t2_check(ms)), a

    def test_known_tiles_sampled(self, m225):
        # known tiles must be found by the search: standard complements
        from cyclotile import standard_complement

        for fams in (({2}, {2}), ({1}, {1}), ({1}, {2}), ({2}, {1}), ({1, 2}, set())):
            a = standard_complement(m225, fams)
            assert find_complements(a.elements(), m225, limit=1)
