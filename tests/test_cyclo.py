"""Cyclotomic polynomials, divisibility, spectra, the two tiling conditions,
standard complements, and the two-prime fiber decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclotile import (
    Modulus,
    Multiset,
    cyclotomic,
    decompose_two_prime,
    phi_divides,
    s_a,
    spectrum,
    standard_complement,
    standard_complement_of,
    t1_check,
    t2_check,
)
from conftest import T2_FAILING_225


def poly_remainder_oracle(weights, s: int) -> bool:
    """Independent divisibility oracle: long division by Phi_s on Python ints."""
    phi = list(cyclotomic(s).coeffs)
    rem = [int(w) for w in weights]
    d = len(phi) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j in range(d + 1):
                rem[i - d + j] -= c * phi[j]
    return all(v == 0 for v in rem)


class TestCyclotomic:
    def test_phi_1(self):
        assert cyclotomic(1).coeffs == (-1, 1)

    def test_phi_12(self):
        assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)

    def test_prime_and_prime_power_at_one(self):
        for s, expect in ((2, 2), (3, 3), (9, 3), (49, 7), (225, 1), (1, 0)):
            assert cyclotomic(s).at_one() == expect

    def test_degree_is_totient(self):
        from cyclotile import euler_phi

        for s in (2, 6, 12, 45, 105, 225, 441):
            assert cyclotomic(s).degree == euler_phi(s)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for s in [*range(2, 400), *Modulus.of(11025).divisors[1:]]:
            expect = sympy.Poly(sympy.cyclotomic_poly(s, x), x).all_coeffs()[::-1]
            assert cyclotomic(s).coeffs == tuple(int(c) for c in expect), s

    def test_product_identity(self):
        # X^n - 1 = product of Phi_d over d | n
        for n in (12, 45):
            prod = np.array([1], dtype=object)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = np.convolve(prod, np.array(cyclotomic(d).coeffs, dtype=object))
            expect = [-1] + [0] * (n - 1) + [1]
            assert list(prod) == expect


class TestPhiDivides:
    def test_examples(self, m4, m12):
        assert phi_divides(2, Multiset.from_set(m4, [0, 1]))
        assert not phi_divides(4, Multiset.from_set(m4, [0, 1]))
        assert phi_divides(12, Multiset.from_set(m12, [0, 6]))

    def test_rejects_non_divisor(self, m12):
        with pytest.raises(ValueError):
            phi_divides(5, Multiset.from_set(m12, [0]))
        with pytest.raises(ValueError):
            phi_divides(1, Multiset.from_set(m12, [0]))

    @pytest.mark.parametrize("m", [36, 315])
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 314), st.integers(-3, 3)), max_size=18))
    # int64 differences of this input wrap to zero at s = 6 in Z_36; only the
    # object-dtype path decides it correctly
    @example([(x, 2**62 * g) for x, g in enumerate((1, 1, 1, -1, -1, -1))])
    def test_matches_long_division_oracle(self, m, pairs):
        # times the M-fiber in direction nu, every Phi_s with p_nu^n_nu | s divides
        mod = Modulus.of(m)
        a = Multiset.from_pairs(mod, pairs)
        fibers = [Multiset.fiber(mod, nu) for nu in range(mod.num_primes)]
        for b in (a, *(a.convolve(f) for f in fibers)):
            for s in mod.divisors[1:]:
                # X^s = 1 mod Phi_s: fold to length s before dividing
                folded = [sum(int(w) for w in b.weights[r::s]) for r in range(s)]
                assert phi_divides(s, b) == poly_remainder_oracle(folded, s)

    def test_fiber_cyclotomics(self, m225):
        # Phi_s | F_nu exactly when p_nu^2 | s | m
        for nu, p in ((0, 3), (1, 5)):
            f = Multiset.fiber(m225, nu)
            for s in m225.divisors:
                if s == 1:
                    continue
                assert phi_divides(s, f) == (s % p**2 == 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 35), st.integers(0, 2)), max_size=14))
    def test_reduction_keeps_divisors(self, pairs):
        # spectrum of the reduction contains the original divisors of N
        mod = Modulus.of(36)
        a = Multiset.from_pairs(mod, pairs)
        for n in (6, 12, 18):
            red = a.reduce_mod(n)
            for s in (d for d in mod.divisors if d > 1 and n % d == 0):
                if phi_divides(s, a):
                    assert phi_divides(s, red)


class TestSpectrum:
    def test_full_group(self, m12):
        sp = spectrum(Multiset.full(m12))
        assert sp.divisors == frozenset({2, 3, 4, 6, 12})

    def test_standard_example(self, m225):
        a = Multiset.from_set(m225, range(0, 225, 15))
        sp = spectrum(a)
        assert sp.prime_powers == frozenset({9, 25})
        assert sp.divisors == frozenset({9, 25, 45, 75, 225})

    def test_singleton(self, m225):
        sp = spectrum(Multiset.delta(m225))
        assert sp.divisors == frozenset()

    def test_zero_rejected(self, m225):
        with pytest.raises(ValueError):
            spectrum(Multiset.zero(m225))

    def test_families(self, m225):
        a = Multiset.from_set(m225, range(0, 225, 15))
        assert spectrum(a).families() == (frozenset({2}), frozenset({2}))


class TestT1T2:
    def test_singleton_t1(self, m225):
        assert t1_check(Multiset.delta(m225))

    def test_standard_t1(self, m225):
        assert t1_check(Multiset.from_set(m225, range(0, 225, 15)))

    def test_t1_fails(self, m4):
        assert not t1_check(Multiset.from_set(m4, [0, 1, 2]))

    def test_prime_power_tile_t2_vacuous(self, m4):
        assert t2_check(Multiset.from_set(m4, [0, 1]))

    def test_standard_t2(self, m225):
        assert t2_check(Multiset.from_set(m225, range(0, 225, 15)))

    def test_frozen_t2_failure(self, m225):
        a = Multiset.from_set(m225, T2_FAILING_225)
        assert s_a(a) == frozenset({9, 25})
        assert t1_check(a)
        assert not phi_divides(225, a)
        assert not t2_check(a)

    def test_non_set_rejected(self, m4):
        with pytest.raises(ValueError):
            t1_check(Multiset.from_pairs(m4, [(0, 2)]))


class TestStandardComplement:
    def test_empty_families(self, m225):
        assert standard_complement(m225, (set(), set())).elements() == (0,)

    def test_a_flat(self, m225):
        a = standard_complement(m225, ({2}, {2}))
        assert a.elements() == tuple(range(0, 225, 15))

    def test_b_flat(self, m225):
        b = standard_complement(m225, ({1}, {1}))
        expect = sorted((25 * i + 9 * j) % 225 for i in range(3) for j in range(5))
        assert list(b.elements()) == expect

    def test_from_complement(self, m225, m4):
        b = standard_complement(m225, ({1}, {1}))
        assert standard_complement_of(b).elements() == tuple(range(0, 225, 15))
        assert standard_complement_of(Multiset.from_set(m4, [0, 1])).elements() == (0, 2)

    def test_full_group_complement(self, m12):
        assert standard_complement_of(Multiset.full(m12)).elements() == (0,)

    def test_always_t1_t2(self, m11025):
        import itertools

        for fams in itertools.product(
            [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})], repeat=3
        ):
            a = standard_complement(m11025, fams)
            assert t1_check(a)
            assert t2_check(a)
            got = s_a(a)
            expect = {
                p ** alpha
                for (p, _), fam in zip(m11025.primes, fams)
                for alpha in fam
            }
            assert got == frozenset(expect)

    def test_out_of_range_exponent(self, m225):
        with pytest.raises(ValueError):
            standard_complement(m225, ({3}, set()))

    def test_non_tile_rejected(self, m4):
        with pytest.raises(ValueError):
            standard_complement_of(Multiset.from_set(m4, [0, 1, 2]))


class TestDecomposeTwoPrime:
    def test_single_fiber(self, m12):
        a = Multiset.from_set(m12, [0, 6])
        assert decompose_two_prime(a, 12) == [(0, 0, 1)]

    def test_overlap_example(self, m12):
        a = Multiset.from_pairs(m12, [(0, 2), (6, 1), (4, 1), (8, 1)])
        out = decompose_two_prime(a, 12)
        assert out == [(0, 0, 1), (0, 1, 1)]

    def test_fifteen_example(self):
        mod = Modulus.of(15)
        a = Multiset.from_pairs(mod, [(0, 2), (5, 1), (10, 1), (3, 1), (6, 1), (9, 1), (12, 1)])
        out = decompose_two_prime(a, 15)
        recon = Multiset.zero(mod)
        for root, nu, mult in out:
            p = mod.primes[nu][0]
            fib = Multiset.from_set(mod, range(root % (15 // p), 15, 15 // p))
            recon = recon.add(fib.scale(mult))
        assert recon == a

    def test_not_divisible_rejected(self, m12):
        with pytest.raises(ValueError):
            decompose_two_prime(Multiset.from_set(m12, [0, 1]), 12)

    def test_negative_rejected(self, m12):
        with pytest.raises(ValueError):
            decompose_two_prime(Multiset.from_pairs(m12, [(0, -1)]), 12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 2)), min_size=1, max_size=6))
    def test_reconstruction_property(self, fibers):
        # random nonnegative fiber combinations always decompose and rebuild
        mod = Modulus.of(12)
        a = Multiset.zero(mod)
        for root, kind, mult in fibers:
            nu = kind % 2
            p = mod.primes[nu][0]
            fib = Multiset.from_set(mod, range(root % (12 // p), 12, 12 // p))
            a = a.add(fib.scale(mult))
        out = decompose_two_prime(a, 12)
        recon = Multiset.zero(mod)
        for root, nu, mult in out:
            p = mod.primes[nu][0]
            fib = Multiset.from_set(mod, range(root % (12 // p), 12, 12 // p))
            recon = recon.add(fib.scale(mult))
        assert recon == a
