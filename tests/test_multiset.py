"""Multiset algebra: convolution, reduction, translation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclotile import Modulus, Multiset


def conv_oracle(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Independent cyclic convolution: full linear convolve, then fold."""
    lin = np.convolve(a, b)
    out = np.zeros(m, dtype=np.int64)
    for i, c in enumerate(lin):
        out[i % m] += c
    return out


class TestConstruction:
    def test_set_round_trip(self, m12):
        a = Multiset.from_set(m12, [0, 4, 8])
        assert a.elements() == (0, 4, 8)
        assert a.is_set and a.total == 3

    def test_duplicate_rejected(self, m12):
        with pytest.raises(ValueError):
            Multiset.from_set(m12, [0, 0])

    def test_pairs_accumulate(self, m12):
        a = Multiset.from_pairs(m12, [(0, 2), (13, 1)])
        assert a.weight(0) == 2 and a.weight(1) == 1
        assert not a.is_set

    def test_negative_weights_allowed(self, m12):
        a = Multiset.from_pairs(m12, [(0, -1)])
        assert a.total == -1

    @pytest.mark.parametrize("m", [12, 36, 11025])
    def test_is_set_cached_value_matches_a_fresh_scan(self, m):
        mod = Modulus.of(m)
        rng = np.random.default_rng(m)
        for weights in (
            np.zeros(m, dtype=np.int64),
            rng.integers(0, 2, m),
            rng.integers(-1, 2, m),
            np.where(np.arange(m) == m - 1, 2, rng.integers(0, 2, m)),
        ):
            a = Multiset(mod, weights)
            fresh = bool(np.all((weights == 0) | (weights == 1)))
            assert a.is_set == fresh and a._is_set == fresh
            assert a.is_set == fresh  # the second read comes from the slot
            with pytest.raises(ValueError):
                a.weights[0] = 2
            assert a.is_set == fresh


class TestAlgebra:
    def test_identity_element(self, m12):
        a = Multiset.from_set(m12, [0, 3, 7])
        assert a.convolve(Multiset.delta(m12)) == a

    def test_sumset_example(self, m4):
        a = Multiset.from_set(m4, [0, 2])
        b = Multiset.from_set(m4, [0, 1])
        assert list(a.convolve(b).weights) == [1, 1, 1, 1]

    def test_translate(self, m4):
        assert Multiset.from_set(m4, [0, 2]).translate(1).elements() == (1, 3)

    def test_modulus_mismatch(self, m4, m12):
        with pytest.raises(ValueError):
            Multiset.from_set(m4, [0]).convolve(Multiset.from_set(m12, [0]))

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(0, 35), st.integers(-3, 3)), max_size=12),
        st.lists(st.tuples(st.integers(0, 35), st.integers(-3, 3)), max_size=12),
    )
    def test_convolution_matches_oracle(self, pa, pb):
        mod = Modulus.of(36)
        a = Multiset.from_pairs(mod, pa)
        b = Multiset.from_pairs(mod, pb)
        expect = conv_oracle(a.weights, b.weights, 36)
        assert np.array_equal(a.convolve(b).weights, expect)

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 35), st.integers(0, 3)), max_size=14))
    def test_convolve_commutes(self, pairs):
        mod = Modulus.of(36)
        a = Multiset.from_pairs(mod, pairs)
        b = Multiset.from_set(mod, [0, 5, 11])
        assert a.convolve(b) == b.convolve(a)


class TestReduceMod:
    def test_identity(self, m12):
        a = Multiset.from_set(m12, [0, 5])
        assert a.reduce_mod(12) is a

    def test_collapse_example(self, m12):
        a = Multiset.from_set(m12, [0, 6])
        red = a.reduce_mod(6)
        assert red.modulus.m == 6
        assert red.weight(0) == 2 and red.total == 2

    def test_fold_example(self, m225):
        a = Multiset.from_set(m225, range(0, 225, 15))
        red = a.reduce_mod(45)
        assert [red.weight(x) for x in (0, 15, 30)] == [5, 5, 5]
        assert red.total == 15

    def test_non_divisor_rejected(self, m12):
        with pytest.raises(ValueError):
            Multiset.from_set(m12, [0]).reduce_mod(5)

    @given(st.lists(st.tuples(st.integers(0, 35), st.integers(-2, 4)), max_size=16))
    def test_total_preserved(self, pairs):
        mod = Modulus.of(36)
        a = Multiset.from_pairs(mod, pairs)
        for n in (2, 3, 4, 6, 9, 12, 18):
            assert a.reduce_mod(n).total == a.total


class TestViews:
    def test_restrict(self, m12):
        a = Multiset.from_set(m12, [0, 3, 6, 9])
        w = a.restrict([0, 6, 7])
        assert w.elements() == (0, 6)

    def test_hash_equality(self, m12):
        a = Multiset.from_set(m12, [0, 4])
        b = Multiset.from_set(m12, [0, 4])
        assert a == b and hash(a) == hash(b)

    def test_elements_requires_set(self, m12):
        with pytest.raises(ValueError):
            Multiset.from_pairs(m12, [(0, 2)]).elements()

    def test_total_is_exact(self, m4):
        a = Multiset.from_pairs(m4, [(0, -(2**63)), (2, -(2**63))])
        assert a.total == -(2**64)


def _oracle_roots(pts: set[int], m: int, p: int) -> list[int]:
    """Roots r < m/p whose fiber r + (m/p)Z_m lies in pts, point by point."""
    step = m // p
    return sorted({x % step for x in pts if all((x + i * step) % m in pts for i in range(p))})


class TestFiberRoots:
    @pytest.mark.parametrize("m", [225, 11025])
    def test_matches_set_oracle(self, m):
        mod = Modulus.of(m)
        rng = np.random.default_rng(m)
        for n in range(60):
            # unions of random fibers, then single points toggled; every third
            # one a plain random subset, whose fibers are mostly broken
            if n % 3:
                pts = set()
                for _ in range(int(rng.integers(1, 12))):
                    nu = int(rng.integers(mod.num_primes))
                    pts |= set(mod.fiber(int(rng.integers(m)), nu))
                pts ^= {int(x) for x in rng.integers(0, m, size=int(rng.integers(0, 4)))}
            else:
                pts = {x for x in range(m) if rng.random() < 0.6}
            weights = rng.choice([-2, -1, 1, 3], size=len(pts))
            a = Multiset.from_pairs(mod, zip(sorted(pts), weights.tolist()))
            for nu, (p, _) in enumerate(mod.primes):
                assert a.fiber_roots(nu).tolist() == _oracle_roots(pts, m, p)
