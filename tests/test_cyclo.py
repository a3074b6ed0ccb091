"""Cyclotomic polynomials, divisibility, spectra, the two tiling conditions,
standard complements, and the two-prime fiber decomposition.

Three independent routes to Phi_s | A live here as oracles for the cached
one-pass spectrum behind `phi_divides`: the per-divisor difference operator
(one full fold per s, its own overflow guard per s), long division by Phi_s,
and, for two-prime s and nonnegative weights, peeling A mod s into s-fibers
(`decompose_two_prime`).  The product-by-convolution construction is the
oracle for `standard_complement`.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclotile.cyclo as cyclo
from cyclotile import (
    Modulus,
    Multiset,
    TilingInstance,
    cyclotomic,
    phi_divides,
    s_a,
    spectrum,
    standard_complement,
    standard_complement_of,
    t1_check,
    t2_check,
    verify_direct,
    verify_poly,
    verify_sands,
)
from conftest import T2_FAILING_225
from tests_helpers import shifted_instance


def phi_divides_per_s(s: int, weights: np.ndarray) -> np.ndarray:
    """Phi_s | A for each row of `weights` (shape (..., m)), one fold per s.

    The difference operator of the `cyclo` module docstring applied to one
    divisor at a time, with its own per-s exactness bound: after k
    differences every coefficient is at most 2^k * (m/s) * max|A|, and past
    2^62 the fold runs on Python ints.
    """
    w = np.asarray(weights)
    m = w.shape[-1]
    rotations = [s // p for p in Modulus.of(s).prime_list]
    if (m // s) * max(int(w.max()), -int(w.min())) << len(rotations) >= 2**62:
        w = w.astype(object)
    f = w.reshape(*w.shape[:-1], m // s, s).sum(axis=-2)
    for k in rotations:
        f = f - np.concatenate((f[..., -k:], f[..., :-k]), axis=-1)
    return ~f.any(axis=-1)


def spectrum_per_s(a: Multiset) -> frozenset[int]:
    return frozenset(
        s for s in a.modulus.divisors[1:] if phi_divides_per_s(s, a.weights)
    )


def standard_complement_by_convolution(mod: Modulus, families) -> Multiset:
    """The product of the geometric factors, one dense convolution per factor."""
    out = Multiset.delta(mod, 0)
    for nu, fam in enumerate(families):
        p, _ = mod.primes[nu]
        for alpha in sorted(fam):
            step = mod.m_nu(nu) * p ** (alpha - 1)
            out = out.convolve(Multiset.from_set(mod, [t * step for t in range(p)]))
    return out


def all_families(mod: Modulus):
    """Every tuple of exponent families, one subset of 1..n_nu per prime."""
    per_prime = [
        [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        for _, n in mod.primes
    ]
    return itertools.product(*per_prime)


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


def decompose_two_prime(a: Multiset, n_div: int) -> list[tuple[int, int, int]]:
    """Write A mod N as a nonnegative combination of N-fibers (two-prime N).

    Returns (root, direction nu, multiplicity) triples, roots canonicalized to
    the least element of the fiber, peeled greedily: least remaining point
    first, direction in prime order on ties, the fiber's least weight at a
    time.  Raises ValueError on negative weights, or when peeling gets stuck.

    Peeling gets stuck exactly when Phi_N does not divide A.  A sum of
    N-fibers is divisible by Phi_N, and conversely a vanishing sum of N-th
    roots of unity with nonnegative coefficients, N = p^a q^b, is a
    nonnegative combination of rotated p- and q-cycles, that is, of N-fibers
    (de Bruijn; Lam-Leung).  Greedy peeling loses nothing: if w >= mu on the
    p-fiber F through x and a decomposition uses F fewer than mu times, the
    q-fibers through the points of F are used often enough, and they cover
    the same coset of order pq as the p-fibers F + j N/q; trade them.
    """
    mod_n = Modulus.of(n_div)
    if mod_n.num_primes != 2:
        raise ValueError(f"N={n_div} must have exactly two distinct prime factors")
    reduced = a.reduce_mod(n_div) if a.modulus.m != n_div else a
    if np.any(reduced.weights < 0):
        raise ValueError("decomposition requires nonnegative weights")
    w = reduced.weights.copy()
    out: list[tuple[int, int, int]] = []
    while True:
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return out
        x = int(nz[0])
        for nu in range(2):
            step = n_div // mod_n.primes[nu][0]
            fiber = np.arange(x % step, n_div, step)
            mult = int(w[fiber].min())
            if mult > 0:
                w[fiber] -= mult
                out.append((int(fiber[0]), nu, mult))
                break
        else:
            raise ValueError("fiber peeling is stuck: Phi_N does not divide A")


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

    def test_most_negative_weight(self, m4):
        # np.abs(-2^63) stays negative in int64, so a guard built on it would
        # keep int64 and the fold would wrap A(-1) = -2^64 to 0
        a = Multiset.from_pairs(m4, [(0, -(2**63)), (2, -(2**63))])
        assert not phi_divides(2, a)
        assert phi_divides(4, a)

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


class TestOnePassSpectrum:
    """The cached one-pass spectrum against the per-divisor difference operator."""

    @pytest.mark.parametrize("m", [12, 18])
    def test_every_subset(self, m):
        mod = Modulus.of(m)
        divs = mod.divisors[1:]
        rows = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
        expect = np.stack([phi_divides_per_s(s, rows) for s in divs], axis=1).tolist()
        for i, row in enumerate(rows):
            a = Multiset(mod, row)
            assert [phi_divides(s, a) for s in divs] == expect[i], (m, i)

    @pytest.mark.parametrize(
        "m, trials", [(36, 300), (72, 200), (225, 200), (315, 150), (11025, 30)]
    )
    def test_seeded_signed_multisets(self, m, trials):
        mod = Modulus.of(m)
        rng = np.random.default_rng([m, 13])
        fibers = [Multiset.fiber(mod, nu) for nu in range(mod.num_primes)]
        verdicts = set()
        for trial in range(trials):
            w = np.zeros(m, dtype=np.int64)
            support = rng.choice(m, size=int(rng.integers(1, min(m, 40))), replace=False)
            w[support] = rng.integers(-3, 4, size=support.size)
            a = Multiset(mod, w)
            # times an M-fiber, every Phi_s with p_nu^n_nu | s divides
            for b in (a, a.convolve(fibers[trial % len(fibers)])):
                got = frozenset(s for s in mod.divisors[1:] if phi_divides(s, b))
                assert got == spectrum_per_s(b), (m, trial)
                verdicts.update(s in got for s in mod.divisors[1:])
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "m, pairs",
        [
            # int64 differences wrap to zero at s = 6 in Z_36
            (36, [(x, 2**62 * g) for x, g in enumerate((1, 1, 1, -1, -1, -1))]),
            (36, [(0, 2**62), (7, -(2**62)), (18, 2**62)]),
            # np.abs(-2^63) stays negative in int64
            (4, [(0, -(2**63)), (2, -(2**63))]),
            (12, [(0, -(2**63)), (6, 2**63 - 1)]),
        ],
    )
    def test_overflow_examples(self, m, pairs):
        mod = Modulus.of(m)
        a = Multiset.from_pairs(mod, pairs)
        assert spectrum_per_s(a) == frozenset(
            s for s in mod.divisors[1:] if phi_divides(s, a)
        )
        for s in mod.divisors[1:]:
            folded = [sum(int(w) for w in a.weights[r::s]) for r in range(s)]
            assert phi_divides(s, a) == poly_remainder_oracle(folded, s)


class TestSpectrumCache:
    """The kernel runs once per multiset; counted, not timed."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        seen: list[Multiset] = []
        kernel = cyclo._divisor_spectrum

        def counted(a):
            seen.append(a)
            return kernel(a)

        monkeypatch.setattr(cyclo, "_divisor_spectrum", counted)
        return seen

    def test_certify_bundle_once_per_multiset(self, flat11025, evaluations):
        shifted = shifted_instance(flat11025, 2, seed=5)
        mod = shifted.modulus
        # fresh objects, as the certification workload builds them
        t = TilingInstance.from_sets(mod, shifted.a.elements(), shifted.b.elements())
        evaluations.clear()
        flat = standard_complement_of(t.b)
        verdicts = [
            verify_direct(t),
            verify_poly(t),
            verify_sands(t),
            spectrum(t.a).divisors,
            spectrum(t.b).divisors,
            t1_check(t.a),
            t1_check(t.b),
            t2_check(t.a),
            t2_check(t.b),
            verify_direct(TilingInstance(mod, flat, t.b)),
        ]
        assert all(verdicts)
        assert len(evaluations) == 2
        assert {id(a) for a in evaluations} == {id(t.a), id(t.b)}

    def test_second_query_reads_the_cache(self, m11025, evaluations):
        a = Multiset.from_set(m11025, range(0, 11025, 105))
        assert phi_divides(11025, a)
        assert not phi_divides(3, a)
        assert evaluations == [a]

    def test_weights_are_read_only(self, m12):
        a = Multiset.from_set(m12, [0, 6])
        with pytest.raises(ValueError):
            a.weights[1] = 1
        assert phi_divides(12, a)


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

    @pytest.mark.parametrize("m", [36, 225, 11025])
    def test_matches_convolution(self, m):
        mod = Modulus.of(m)
        for fams in all_families(mod):
            expect = standard_complement_by_convolution(mod, fams)
            assert standard_complement(mod, fams) == expect, fams

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

    @pytest.mark.parametrize("m", [36, 100, 225])
    def test_peeling_decides_divisibility(self, m):
        # peeling is an independent route to Phi_s | A at every two-prime s
        mod = Modulus.of(m)
        rng = np.random.Generator(np.random.PCG64(m))
        verdicts = []
        for s in (d for d in mod.divisors if d > 1 and len(Modulus.of(d).primes) == 2):
            sub = Modulus.of(s)
            for trial in range(40):
                w = np.zeros(m, dtype=np.int64)
                for _ in range(int(rng.integers(1, 5))):
                    nu = int(rng.integers(2))
                    step = s // sub.primes[nu][0]
                    lift = int(rng.integers(m // s)) * s
                    w[(int(rng.integers(s)) % step + np.arange(0, s, step) + lift) % m] += 1
                if trial % 2:
                    w[int(rng.integers(m))] += 1
                a = Multiset(mod, w)
                try:
                    decompose_two_prime(a, s)
                    peeled = True
                except ValueError:
                    peeled = False
                divides = poly_remainder_oracle(a.reduce_mod(s).weights, s)
                assert peeled == phi_divides(s, a) == divides
                verdicts.append(peeled)
        assert any(verdicts) and not all(verdicts)
