"""Core group arithmetic: coordinates, grids, fibers, divisor lattice."""

from __future__ import annotations

from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclotile import Modulus, euler_phi
from cyclotile.zm import factorize, is_prime


def brute_coords(mod: Modulus, x: int) -> tuple[int, ...]:
    """Oracle: solve x = sum pi_nu * M_nu by exhaustion over the coordinate box."""
    from itertools import product

    ranges = [range(mod.prime_power(nu)) for nu in range(mod.num_primes)]
    for combo in product(*ranges):
        if sum(c * mod.m_nu(nu) for nu, c in enumerate(combo)) % mod.m == x % mod.m:
            return tuple(combo)
    raise AssertionError("no coordinates found")


def coords(mod: Modulus, x: int) -> tuple[int, ...]:
    return tuple(mod.coord(x, nu) for nu in range(mod.num_primes))


def from_coords(mod: Modulus, cs) -> int:
    """The inverse of `coord`: x = sum pi_nu(x) * M_nu mod m."""
    return sum(c * mod.m_nu(nu) for nu, c in enumerate(cs)) % mod.m


class TestConstruction:
    def test_factored(self):
        mod = Modulus(((3, 2), (5, 2), (7, 2)))
        assert mod.m == 11025
        assert mod.prime_list == (3, 5, 7)
        assert mod == Modulus.of(11025)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            Modulus(((3, 1), (4, 1)))

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ValueError):
            Modulus(((3, 1), (3, 2)))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            Modulus(((2, 21),))

    def test_factorize(self):
        assert factorize(11025) == [(3, 2), (5, 2), (7, 2)]
        assert factorize(2) == [(2, 1)]

    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestGcd:
    def test_gcd_examples(self, m4, m225, m11025):
        assert m4.gcd_table()[2] == 2
        assert m225.gcd_table()[0] == 225
        assert m11025.gcd_table()[3675] == 3675

    def test_gcd_table(self, m12):
        tab = m12.gcd_table()
        assert tab[0] == 12
        import math

        for x in range(1, 12):
            assert tab[x] == math.gcd(x, 12)

    @pytest.mark.parametrize("m", [12, 36, 60, 225, 900, 11025, 27225])
    def test_gcd_class_table_indexes_the_divisors(self, m):
        mod = Modulus.of(m)
        tab = mod.gcd_class_table()
        assert tab.dtype == np.int64 and not tab.flags.writeable
        index = {d: i for i, d in enumerate(mod.divisors)}
        assert tab.tolist() == [index[gcd(x, m)] for x in range(m)]

    @given(st.integers(0, 224), st.integers(0, 224))
    def test_gcd_symmetric_divides(self, x, y):
        # a negative difference -y indexes entry m - y, as the shift search
        # and the Div kernel read it
        mod = Modulus.of(225)
        tab = mod.gcd_table()
        g = tab[x - y]
        assert g == tab[y - x] == tab[(x - y) % 225]
        assert 225 % g == 0 and (x - y) % g == 0


class TestCoordinates:
    def test_single_prime_identity(self, m4):
        assert coords(m4, 3) == (3,)

    def test_m12_example(self, m12):
        assert coords(m12, 7) == (1, 1)
        assert from_coords(m12, (1, 1)) == 7

    def test_m225_oracle(self, m225):
        # derived by exhaustive CRT solve
        assert brute_coords(m225, 15) == (6, 10)
        assert coords(m225, 15) == (6, 10)

    def test_round_trip_all_of_z12(self, m12):
        for x in range(12):
            assert from_coords(m12, coords(m12, x)) == x

    @given(st.integers(0, 11024))
    def test_round_trip_11025(self, x):
        mod = Modulus.of(11025)
        assert from_coords(mod, coords(mod, x)) == x

    def test_zero(self, m225):
        assert coords(m225, 0) == (0, 0)
        assert from_coords(m225, (0, 0)) == 0

    def test_coords_match_oracle_sampled(self, m12, m225, m11025):
        # every point of Z_12 and Z_225, sampled points of Z_11025
        rng = np.random.default_rng(16)
        for mod, xs in (
            (m12, range(12)),
            (m225, range(225)),
            (m11025, [0, 1, 105, 3675, 11024, *rng.integers(11025, size=12).tolist()]),
        ):
            for x in xs:
                assert coords(mod, x) == brute_coords(mod, x)

    def test_out_of_range_coordinate(self, m12):
        # an integer outside [0, m) has the coordinates of its residue, each
        # in range
        for x in (-1, -13, 12, 19, 10**20 + 7):
            got = coords(m12, x)
            assert got == coords(m12, x % 12)
            assert all(0 <= c < m12.prime_power(nu) for nu, c in enumerate(got))

    @pytest.mark.parametrize("m", [12, 225, 11025])
    def test_array_input_matches_scalar(self, m):
        mod = Modulus.of(m)
        xs = np.arange(m, dtype=np.int64)
        for nu in range(mod.num_primes):
            got = mod.coord(xs, nu)
            assert got.dtype == np.int64
            assert got.tolist() == [mod.coord(x, nu) for x in range(m)]


class TestDivisorLattice:
    def test_d_of(self, m12, m11025):
        assert m11025.d_of(11025) == 105
        assert m12.d_of(12) == 2
        assert m12.d_of(1) == 1

    def test_divisors_sorted_complete(self, m36):
        assert m36.divisors == (1, 2, 3, 4, 6, 9, 12, 18, 36)

    def test_exponents_round_trip(self, m11025):
        for d in m11025.divisors:
            exps = m11025.divisor_exponents(d)
            assert prod(p**a for (p, _), a in zip(m11025.primes, exps)) == d

    def test_phi_table(self, m36):
        # the totients phi(m / d) that the box product reads, one per divisor
        phis = [euler_phi(36 // d) for d in m36.divisors]
        assert phis == [12, 6, 4, 6, 2, 2, 2, 1, 1]
        assert phis == [sum(1 for k in range(36 // d) if gcd(k, 36 // d) == 1) for d in m36.divisors]


class TestGridsLinesPlanesFibers:
    # lines and planes are grids: Lambda(x, M_nu) and Lambda(x, p^alpha)
    def test_grid_full_divisor(self, m225):
        assert m225.grid(0, 225) == (0,)

    def test_grid_multiples(self, m225):
        g = m225.grid(0, 15)
        assert g == tuple(range(0, 225, 15))
        assert len(g) == 15

    def test_grid_offset(self, m12):
        assert m12.grid(5, 4) == (1, 5, 9)

    def test_grid_size_invariant(self, m36):
        for d in m36.divisors:
            for x in (0, 1, 17):
                assert len(m36.grid(x, d)) * d == 36

    def test_fiber_examples(self, m12, m11025):
        assert m12.fiber(0, 0) == (0, 6)
        assert m11025.fiber(0, 0) == (0, 3675, 7350)

    def test_plane_size(self, m225):
        # the plane through 0 perpendicular to the 3 direction
        p = m225.grid(0, 3)
        assert len(p) == 75
        assert all(x % 3 == 0 for x in p)

    def test_fibers_partition_lines(self, m225):
        # each line in direction nu is a disjoint union of p^{n-1} fibers
        for nu in range(2):
            line = set(m225.grid(7, m225.m_nu(nu)))
            p, n = m225.primes[nu]
            fibers = set()
            covered: set[int] = set()
            for x in sorted(line):
                if x in covered:
                    continue
                f = m225.fiber(x, nu)
                assert set(f) <= line
                assert not set(f) & covered
                covered |= set(f)
                fibers.add(f)
            assert covered == line
            assert len(fibers) == p ** (n - 1)

    def test_unknown_prime_index(self, m12):
        with pytest.raises(IndexError):
            m12.fiber(0, 5)


class TestEulerPhi:
    @pytest.mark.parametrize("n,expect", [(1, 1), (9, 6), (49, 42), (11025, 2 * 6 * 20 * 42 // 2)])
    def test_values(self, n, expect):
        if n == 11025:
            expect = 6 * 20 * 42
        assert euler_phi(n) == expect

    @given(st.integers(1, 3000))
    def test_matches_counting(self, n):
        from math import gcd

        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
