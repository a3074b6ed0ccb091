"""Cuboid nullity, the cuboid route to cyclotomic divisibility, and the
composite cuboid tests.

A scalar cuboid evaluator, one vertex at a time, is the oracle for the
vectorized nullity sweep `_null_on_bases`.  The prime-power uniformity route
and the composite (multi-cyclotomic) cuboid tests live here as test code.
"""

from __future__ import annotations

from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclotile import (
    CuboidType,
    Modulus,
    Multiset,
    is_t_null,
    n_cuboid_type,
    phi_divides,
    phi_divides_via_cuboids,
)


# -- the scalar oracle ---------------------------------------------------------------


def cuboids(ctype: CuboidType):
    """Every cuboid of the type as (base, offsets): bases over Z_N, one
    admissible offset per active direction."""
    choices = [ctype.offset_choices(nu) for nu in ctype.active]
    for base in range(ctype.scale):
        for offsets in product(*choices):
            yield base, offsets


def vertices(ctype: CuboidType, base: int, offsets: tuple[int, ...]) -> list[tuple[int, int]]:
    """(vertex, sign) pairs; 2^{#active} entries."""
    n = ctype.scale
    return [
        ((base + sum(e * d for e, d in zip(eps, offsets))) % n, -1 if sum(eps) % 2 else 1)
        for eps in product((0, 1), repeat=len(offsets))
    ]


def conforms(ctype: CuboidType, offsets: tuple[int, ...]) -> bool:
    """Each offset d_nu has (d_nu, N) = N / p_nu^{delta_nu}."""
    n = ctype.scale
    return len(offsets) == len(ctype.active) and all(
        gcd(d % n, n) == n // ctype.modulus.primes[nu][0] ** ctype.delta[nu]
        for nu, d in zip(ctype.active, offsets)
    )


def smear(a: Multiset, ctype: CuboidType) -> list[int]:
    """W[y] = sum over the template (t, c) of c * (weight of A mod N at y + t),
    element by element."""
    n = ctype.scale
    folded = [0] * n
    for x, w in enumerate(a.weights.tolist()):
        folded[x % n] += w
    return [sum(c * folded[(y + t) % n] for t, c in ctype.template) for y in range(n)]


def eval_cuboid(a: Multiset, ctype: CuboidType, base: int, offsets: tuple[int, ...]) -> int:
    """Alternating template-smeared sum of A over the cuboid's vertices."""
    if not conforms(ctype, offsets):
        raise ValueError("cuboid offsets violate the gcd constraints of the type")
    w = smear(a, ctype)
    return sum(sign * w[x] for x, sign in vertices(ctype, base, offsets))


def oracle_is_t_null(a: Multiset, ctype: CuboidType) -> bool:
    w = smear(a, ctype)
    return all(
        sum(sign * w[x] for x, sign in vertices(ctype, base, offsets)) == 0
        for base, offsets in cuboids(ctype)
    )


# -- test-side routes: prime-power uniformity, composite cuboid types -----------------


def fiber_template(mod: Modulus, nu: int) -> tuple[tuple[int, int], ...]:
    """Template (X^{m/p} - 1)/(X^{m/p^2} - 1): the fiber at scale m/p_nu."""
    p, n = mod.primes[nu]
    if n != 2:
        raise ValueError("fiber template requires exponent 2 in the chosen direction")
    step = mod.m // p**2
    return tuple((t * step, 1) for t in range(p))


def phi_prime_power_uniform(p_power: int, a: Multiset) -> bool:
    """Third route for prime powers: uniform distribution of weights mod p^alpha
    within each residue class mod p^{alpha-1}."""
    mod = a.modulus
    if mod.m % p_power != 0:
        raise ValueError(f"{p_power} does not divide m={mod.m}")
    fac = [(p, e) for p, e in Modulus.of(p_power).primes]
    if len(fac) != 1:
        raise ValueError(f"{p_power} is not a prime power")
    p, alpha = fac[0]
    w = a.reduce_mod(p_power).weights if mod.m != p_power else a.weights
    # Classes mod p^{alpha-1} each split into p classes mod p^alpha.
    lower = p_power // p
    folded = w.reshape(p, lower)
    return bool(np.all(folded == folded[0]))


def multi_phi_test(a: Multiset, nu: int, combo: str) -> tuple[bool, bool]:
    """Nullity/divisibility verdicts for the two composite cuboid types.

    combo='top-adjacent':  Phi_M * Phi_{M/p_nu} vs the depth-(2,1,1) type;
    the equivalence holds, so the two returned booleans must agree.
    combo='top-skip':      Phi_M * Phi_{M/p_nu^2} vs the fiber-template type;
    divisibility implies nullity but not conversely, so both are reported.
    Returns (null, divides).
    """
    mod = a.modulus
    p, n = mod.primes[nu]
    m = mod.m
    if combo == "top-adjacent":
        if n < 2:
            raise ValueError("top-adjacent combo needs exponent >= 2")
        delta = tuple(2 if k == nu else 1 for k in range(mod.num_primes))
        ctype = CuboidType(mod, m, delta, ((0, 1),))
        null = is_t_null(a, ctype)
        divides = phi_divides(m, a) and phi_divides(m // p, a)
        if null != divides:
            raise AssertionError(
                "top-adjacent cuboid nullity disagrees with polynomial divisibility"
            )
        return null, divides
    if combo == "top-skip":
        if n != 2:
            raise ValueError("top-skip combo needs exponent exactly 2")
        delta = tuple(0 if k == nu else 1 for k in range(mod.num_primes))
        ctype = CuboidType(mod, m, delta, fiber_template(mod, nu))
        null = is_t_null(a, ctype)
        divides = phi_divides(m, a) and phi_divides(m // p**2, a)
        if divides and not null:
            raise AssertionError("divisibility must imply nullity for the top-skip type")
        return null, divides
    raise ValueError(f"unknown combo {combo!r}")


class TestEval:
    def test_full_group_always_zero(self, m12):
        a = Multiset.full(m12)
        ct = n_cuboid_type(m12, 12)
        for base, offsets in cuboids(ct):
            assert eval_cuboid(a, ct, base, offsets) == 0
        assert is_t_null(a, ct)

    def test_hand_example(self, m12):
        ct = n_cuboid_type(m12, 12)
        assert eval_cuboid(Multiset.from_set(m12, [0, 6]), ct, 0, (6, 4)) == 0
        assert eval_cuboid(Multiset.delta(m12), ct, 0, (6, 4)) == 1

    def test_nonconforming_offsets(self, m12):
        ct = n_cuboid_type(m12, 12)
        with pytest.raises(ValueError):
            eval_cuboid(Multiset.delta(m12), ct, 0, (3, 4))


class TestEnumeration:
    def test_single_prime_offsets(self):
        mod = Modulus.of(4)
        ct = n_cuboid_type(mod, 4)
        assert ct.offset_choices(0) == (2,)
        assert [base for base, _ in cuboids(ct)] == list(range(4))

    def test_offset_counts_z12(self, m12):
        ct = n_cuboid_type(m12, 12)
        assert ct.offset_choices(0) == (6,)
        assert ct.offset_choices(1) == (4, 8)
        assert sum(1 for _ in cuboids(ct)) == 12 * 1 * 2

    def test_vertices_signs(self, m12):
        ct = n_cuboid_type(m12, 12)
        vs = dict(vertices(ct, 1, (6, 4)))
        assert vs[1] == 1 and vs[7] == -1 and vs[5] == -1 and vs[11] == 1


def _oracle_types(mod: Modulus) -> list[CuboidType]:
    """Standard types at every scale, plus the composite types of each
    direction with exponent 2: depth 2 at the top, and the fiber template."""
    out = [n_cuboid_type(mod, s) for s in mod.divisors if s > 1]
    for nu, (_, n) in enumerate(mod.primes):
        if n == 2:
            deep = tuple(2 if k == nu else 1 for k in range(mod.num_primes))
            flat = tuple(0 if k == nu else 1 for k in range(mod.num_primes))
            out.append(CuboidType(mod, mod.m, deep, ((0, 1),)))
            out.append(CuboidType(mod, mod.m, flat, fiber_template(mod, nu)))
    return out


def _oracle_sets(mod: Modulus, seed: int) -> list[Multiset]:
    """Seeded multisets, bare and convolved with fibers, so that both null and
    non-null verdicts occur."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(3):
        base = Multiset(mod, rng.integers(0, 3, size=mod.m))
        out.append(base)
        for nu in range(mod.num_primes):
            out.append(base.convolve(Multiset.fiber(mod, nu)))
        out.append(base.convolve(Multiset.fiber(mod, 0)).convolve(Multiset.fiber(mod, 1)))
    return out


class TestNullity:
    def test_divisible_is_null(self, m12):
        a = Multiset.from_set(m12, [0, 6])
        assert is_t_null(a, n_cuboid_type(m12, 12))

    def test_delta_not_null(self, m12):
        assert not is_t_null(Multiset.delta(m12), n_cuboid_type(m12, 12))

    def test_transverse_fiber_null_for_template_type(self, m225):
        # a full fiber transverse to the template direction balances every
        # flat cuboid of the skip type (the template-direction chain does not)
        transverse = Multiset.from_set(m225, range(0, 225, 45))
        ct = CuboidType(m225, 225, (0, 1), fiber_template(m225, 0))
        assert is_t_null(transverse, ct)
        own_chain = Multiset.from_set(m225, range(0, 225, 25))
        assert not is_t_null(own_chain, ct)

    @pytest.mark.parametrize("m, seed", [(12, 1), (36, 2), (100, 3), (225, 4)])
    def test_matches_scalar_oracle(self, m, seed):
        # is_t_null sweeps every base through _null_on_bases; the oracle
        # evaluates every cuboid vertex by vertex
        mod = Modulus.of(m)
        verdicts = []
        for ct in _oracle_types(mod):
            for a in _oracle_sets(mod, seed):
                null = is_t_null(a, ct)
                assert null == oracle_is_t_null(a, ct)
                verdicts.append(null)
        assert any(verdicts) and not all(verdicts)

    def test_full_sweep_at_11025(self, m11025, flat11025):
        # at the three largest scales is_t_null sweeps every base, as at
        # every scale, and must agree with Phi_s | A
        from tests_helpers import shifted_instance

        rng = np.random.Generator(np.random.PCG64(11))
        moved = [x for x in flat11025.a.elements() if x != 0] + [1]
        # flat11025.a lies on the grid through 0; one more point puts the
        # only non-null cuboids on the last grid, the one through 104
        extra = [*flat11025.a.elements(), 104 + 105 * 17]
        sets = [
            flat11025.a,
            shifted_instance(flat11025, 2, seed=5).a,
            Multiset.from_set(m11025, moved),
            Multiset.from_set(m11025, extra),
            Multiset.from_set(m11025, sorted(set(m11025.fiber(0, 0)) | set(m11025.fiber(105, 1)))),
            Multiset(m11025, rng.integers(0, 2, size=11025)),
        ]
        verdicts = []
        for s in (2205, 3675, 11025):
            ct = n_cuboid_type(m11025, s)
            for a in sets:
                null = is_t_null(a, ct)
                assert null == phi_divides(s, a)
                verdicts.append(null)
        assert any(verdicts) and not all(verdicts)


class TestDualPath:
    def test_examples(self, m12, m225):
        assert phi_divides_via_cuboids(12, Multiset.from_set(m12, [0, 6]))
        aflat = Multiset.from_set(m225, range(0, 225, 15))
        assert phi_divides_via_cuboids(9, aflat)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agreement_z36(self, seed):
        mod = Modulus.of(36)
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Multiset(mod, rng.integers(0, 3, size=36))
        for s in mod.divisors:
            if s > 1:
                assert phi_divides_via_cuboids(s, a) == phi_divides(s, a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agreement_z225(self, seed):
        mod = Modulus.of(225)
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Multiset(mod, rng.integers(0, 2, size=225))
        for s in mod.divisors:
            if s > 1:
                assert phi_divides_via_cuboids(s, a) == phi_divides(s, a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_uniform_third_path(self, seed):
        mod = Modulus.of(36)
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Multiset(mod, rng.integers(0, 4, size=36))
        for s in (2, 4, 3, 9):
            expect = phi_divides(s, a)
            assert phi_prime_power_uniform(s, a) == expect
            assert phi_divides_via_cuboids(s, a) == expect


class TestGridDecomposition:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_grid_local_divisibility(self, seed):
        # If Phi_s divides every grid restriction, it divides the whole set;
        # random grid-respecting constructions exercise both directions.
        mod = Modulus.of(36)
        rng = np.random.Generator(np.random.PCG64(seed))
        s = 36
        d = mod.d_of(s)
        parts = []
        for anchor in range(d):
            if rng.integers(0, 2):
                # a full fiber inside the grid (divisible piece)
                nu = int(rng.integers(0, 2))
                parts.append(Multiset.fiber(mod, nu, int(rng.integers(0, 36)) * d + anchor))
        if not parts:
            return
        a = Multiset.zero(mod)
        for p in parts:
            a = a.add(p)
        # each grid restriction is a sum of fibers, so Phi_36 | restriction
        for anchor in range(d):
            grid = mod.grid(anchor, d)
            restricted = a.restrict(grid)
            if not restricted.is_zero:
                assert phi_divides(36, restricted)
        assert phi_divides(36, a)


class TestMultiPhi:
    def test_grid_at_11025(self, m11025):
        a = Multiset.from_set(m11025, range(0, 11025, 105))
        null, divides = multi_phi_test(a, 0, "top-adjacent")
        assert null and divides

    def test_delta_not_null(self, m225):
        null, divides = multi_phi_test(Multiset.delta(m225), 0, "top-adjacent")
        assert not null and not divides

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equivalence_and_implication_z225(self, seed):
        mod = Modulus.of(225)
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Multiset(mod, rng.integers(0, 2, size=225))
        for nu in (0, 1):
            null, divides = multi_phi_test(a, nu, "top-adjacent")
            assert null == divides  # checked internally too
            null2, divides2 = multi_phi_test(a, nu, "top-skip")
            assert (not divides2) or null2

    def test_structured_top_skip(self, m225):
        # the standard grid has both divisors, hence must be null
        aflat = Multiset.from_set(m225, range(0, 225, 15))
        null, divides = multi_phi_test(aflat, 0, "top-skip")
        assert null and divides
        # the template-direction chain is neither
        chain = Multiset.from_set(m225, range(0, 225, 25))
        null2, divides2 = multi_phi_test(chain, 0, "top-skip")
        assert not divides2 and not null2

    def test_exponent_precondition(self):
        mod = Modulus.of(12)
        with pytest.raises(ValueError):
            multi_phi_test(Multiset.delta(mod), 1, "top-adjacent")
