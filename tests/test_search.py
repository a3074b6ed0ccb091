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
from cyclotile.search import _canonical_translate


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
        for i, t in enumerate(enumerate_tilings(EnumerationTask(m36, 4))):
            if i > 300:
                break
            a = t.a.elements()
            assert _canonical_translate(a, 36) == a
            assert 0 in t.b

    def test_least_translate_matches_brute_force(self):
        for m in range(1, 15):
            for size in range(m + 1):
                for a in combinations(range(m), size):
                    brute = min(
                        (tuple(sorted((x - t) % m for x in a)) for t in a), default=()
                    )
                    assert _canonical_translate(a, m) == brute, (m, a)

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
