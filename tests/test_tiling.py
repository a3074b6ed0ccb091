"""Verifiers, divisor sets and their cache, the box table and box product,
saturating sets, spans and the enhanced divisor exclusion.

The scalar box, box product, saturating sets, spans and the enhanced divisor
exclusion live here as test code: the box and the scalar box product are the
oracles for `box_table` and `box_product_sweep_is_one`, and the rest are
lemma-shaped checks swept over tilings.  Div(A) is cached on the multiset;
`TestDivCache` counts its evaluations along `classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable

import numpy as np
import pytest

from cyclotile import (
    Modulus,
    Multiset,
    TilingInstance,
    box_product_sweep_is_one,
    box_table,
    classify,
    div_set,
    euler_phi,
    verify_direct,
    verify_poly,
    verify_sands,
)
import cyclotile.tiling as tiling
from tests_helpers import Inapplicable, admissible_pair_mask, shifted_instance


# -- boxes and the box product, scalar ----------------------------------------------


@dataclass(frozen=True)
class BoxView:
    """The N-box of a multiset at anchor x: counts indexed by divisors of N."""

    scale: int
    anchor: int
    counts: tuple[tuple[int, int], ...]  # (divisor of N, weighted count)

    def count(self, d: int) -> int:
        for dd, c in self.counts:
            if dd == d:
                return c
        raise ValueError(f"{d} does not divide the box scale {self.scale}")

    def total(self) -> int:
        return sum(c for _, c in self.counts)


def box(a: Multiset, n_div: int, x: int, window: Iterable[int] | None = None) -> BoxView:
    """A^N_m[x] for all m | N: weighted counts of a in A with (x - a, N) = m."""
    mod = a.modulus
    if mod.m % n_div != 0:
        raise ValueError(f"{n_div} does not divide m={mod.m}")
    src = a.restrict(window) if window is not None else a
    divs = [d for d in mod.divisors if n_div % d == 0]
    acc = dict.fromkeys(divs, 0)
    for elem in np.flatnonzero(src.weights):
        g = gcd(x - int(elem), n_div)
        acc[g] += int(src.weights[elem])
    return BoxView(n_div, x % mod.m, tuple((d, acc[d]) for d in divs))


def box_product(t: TilingInstance, x: int, y: int) -> Fraction:
    """Sum over m | M of A_m[x] B_m[y] / phi(M/m), as an exact rational, read
    from scalar boxes."""
    mod = t.modulus
    bx = box(t.a, mod.m, x)
    by = box(t.b, mod.m, y)
    out = Fraction(0)
    for d in mod.divisors:
        out += Fraction(bx.count(d) * by.count(d), euler_phi(mod.m // d))
    return out


# -- saturating sets, spans, the enhanced divisor exclusion ----------------------------


def saturating_set(t: TilingInstance, x: int, y: int | None = None) -> tuple[int, ...]:
    """A_x (or A_{x,y} for a fixed y): elements of A whose difference to x is
    matched in Div(B) (resp. realized at y)."""
    if not verify_direct(t):
        raise ValueError("saturating sets are defined for verified tilings")
    mod = t.modulus
    g = mod.gcd_table()
    sup = np.flatnonzero(t.a.weights)
    dx = g[(x - sup) % mod.m]
    if y is None:
        allowed = div_set(t.b)
        keep = [int(a) for a, d in zip(sup, dx) if int(d) in allowed]
    else:
        sb = np.flatnonzero(t.b.weights)
        realized = frozenset(int(v) for v in g[(y - sb) % mod.m])
        keep = [int(a) for a, d in zip(sup, dx) if int(d) in realized]
    return tuple(keep)


def span(mod: Modulus, x: int, x2: int) -> frozenset[int]:
    """Span(x, x'): union of planes Pi(x, p_nu^(alpha_nu + 1)) over the
    directions where the gcd exponent of x - x' is not yet full.

    Empty when (x - x', m) = m: the degenerate full-gcd case is fixed to the
    empty union.
    """
    g = gcd(x - x2, mod.m)
    alphas = mod.divisor_exponents(g)
    out: set[int] = set()
    for nu, (p, n) in enumerate(mod.primes):
        if alphas[nu] < n:
            out.update(mod.grid(x, p ** (alphas[nu] + 1)))
    return frozenset(out)


def bispan(mod: Modulus, x: int, x2: int) -> frozenset[int]:
    return span(mod, x, x2) | span(mod, x2, x)


def check_bispan_bound(t: TilingInstance, x: int) -> bool:
    """A_x inside the intersection of Bispan(x, a) over a in A.

    Terms with (x - a, m) = m (i.e. a = x) are skipped: the bound is only
    meaningful for proper differences.
    """
    if not verify_direct(t):
        raise ValueError("bispan bound is defined for verified tilings")
    mod = t.modulus
    sat = set(saturating_set(t, x))
    for a in t.a.elements():
        if (x - a) % mod.m == 0:
            continue
        if not sat <= bispan(mod, x, a):
            return False
    return True


def enhanced_divisor_exclusion(
    t: TilingInstance, x: int, y: int, m1: int, m2: int
) -> bool:
    """No four-point configuration realizes the divisor pair (m1, m2) at x and y.

    Hypotheses: m1, m2 | M and the pair is admissible (`admissible_pair_mask`).
    Outside them raises Inapplicable.
    """
    mod = t.modulus
    if not (m1 in mod.divisors and m2 in mod.divisors):
        raise Inapplicable(f"{m1}, {m2} must divide m={mod.m}")
    i1 = mod.divisors.index(m1)
    i2 = mod.divisors.index(m2)
    if not admissible_pair_mask(mod)[i1, i2]:
        raise Inapplicable("both scales full, or equal non-full exponents")
    ta = box_table(t.a)
    tb = box_table(t.b)
    prod = (
        int(ta[x % mod.m, i1])
        * int(ta[x % mod.m, i2])
        * int(tb[y % mod.m, i1])
        * int(tb[y % mod.m, i2])
    )
    return prod == 0


def all_pairs_agree(m: int) -> bool:
    """Exhaustive three-verifier agreement over every (A, B) with |A||B| = m."""
    mod = Modulus.of(m)
    for ka in [d for d in mod.divisors]:
        kb = m // ka
        for a_rest in combinations(range(1, m), ka - 1):
            a = (0, *a_rest)
            for b_rest in combinations(range(1, m), kb - 1):
                t = TilingInstance.from_sets(mod, a, (0, *b_rest))
                if not verify_direct(t) == verify_poly(t) == verify_sands(t):
                    return False
    return True


class TestVerifiers:
    def test_trivial(self, m4):
        t = TilingInstance.from_sets(m4, [0], range(4))
        assert verify_direct(t) and verify_poly(t) and verify_sands(t)

    def test_standard_example(self, m4):
        t = TilingInstance.from_sets(m4, [0, 2], [0, 1])
        assert verify_direct(t) and verify_poly(t) and verify_sands(t)

    def test_collision(self, m4):
        t = TilingInstance.from_sets(m4, [0, 1], [0, 1])
        assert not verify_direct(t) and not verify_poly(t) and not verify_sands(t)

    def test_cardinality_mismatch_all_false(self, m4):
        t = TilingInstance.from_sets(m4, [0, 1], [0])
        assert not verify_direct(t) and not verify_poly(t) and not verify_sands(t)

    def test_non_set_rejected(self, m4):
        t = TilingInstance(m4, Multiset.from_pairs(m4, [(0, 2)]), Multiset.from_set(m4, [0]))
        with pytest.raises(ValueError):
            verify_direct(t)

    @pytest.mark.parametrize("m", [4, 8])
    def test_exhaustive_agreement_tiny(self, m):
        assert all_pairs_agree(m)

    def test_translation_invariance(self, m225, flat225):
        for s, t_shift in ((7, 0), (0, 13), (31, 101)):
            t = TilingInstance(
                m225, flat225.a.translate(s), flat225.b.translate(t_shift)
            )
            assert verify_direct(t) and verify_poly(t) and verify_sands(t)


class TestDivSets:
    def test_singleton(self, m12):
        assert div_set(Multiset.from_set(m12, [0])) == {12}

    def test_pair(self, m12):
        assert div_set(Multiset.from_set(m12, [0, 6])) == {12, 6}

    def test_verify_sands_example(self, m4):
        a = Multiset.from_set(m4, [0, 2])
        b = Multiset.from_set(m4, [0, 1])
        assert div_set(a) == {4, 2}
        assert div_set(b) == {4, 1}

    @pytest.mark.parametrize("m", [12, 36, 225, 11025])
    def test_matches_set_definition(self, m):
        # Div(A) = {(a - a', m)}, with (0, m) = m
        mod = Modulus.of(m)
        rng = np.random.default_rng([m, 7])
        sizes = [1, 1, 2, 3, *rng.integers(1, min(m, 120), size=20)]
        if m <= 225:
            sizes += [m // 2, m]
        sets = [rng.choice(m, size=int(size), replace=False).tolist() for size in sizes]
        # cosets of subgroups (few divisors), and each with a point off it
        for d in mod.divisors[1:]:
            if m // d <= 120:
                coset = list(range(d % 7, m, d))
                sets += [coset, coset + [d % 7 + d // 2]]
        for a in sets:
            expect = {gcd(x - y, m) for x in a for y in a}
            assert div_set(Multiset.from_set(mod, a)) == expect, (m, a)


class TestDivCache:
    """Div is computed once per multiset; counted, not timed."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        seen: list[Multiset] = []
        kernel = tiling._divisor_set

        def counted(a):
            seen.append(a)
            return kernel(a)

        monkeypatch.setattr(tiling, "_divisor_set", counted)
        return seen

    @staticmethod
    def _fresh(t: TilingInstance) -> TilingInstance:
        return TilingInstance.from_sets(t.modulus, t.a.elements(), t.b.elements())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_classify_evaluates_div_b_once(self, flat11025, evaluations, seed):
        # reduce_to_grid reads Div(B) for its lookups, and every replayed
        # fiber_shift re-verifies with verify_sands on the same B
        t = self._fresh(shifted_instance(flat11025, 2, seed))
        evaluations.clear()
        report = classify(t)
        assert report.trace is not None and report.trace.moves
        assert sum(a == t.b for a in evaluations) == 1

    def test_cached_value_is_the_divisor_set(self, flat11025, evaluations):
        t = self._fresh(shifted_instance(flat11025, 1, seed=4))
        evaluations.clear()
        assert verify_sands(t) and verify_sands(t)
        assert [id(a) for a in evaluations] == [id(t.a), id(t.b)]
        m = t.modulus.m
        for side in (t.a, t.b):
            pts = side.elements()
            assert side._div == {gcd(x - y, m) for x in pts for y in pts}
            assert div_set(side) is side._div


class TestBoxes:
    def test_member_top_count(self, m12):
        a = Multiset.from_set(m12, [0, 3, 7])
        for x in a.elements():
            assert box(a, 12, x).count(12) == 1

    def test_hand_example(self, m4):
        a = Multiset.from_set(m4, [0, 2])
        bx = box(a, 4, 0)
        assert bx.count(4) == 1 and bx.count(2) == 1 and bx.count(1) == 0

    def test_column_sum(self, m36):
        a = Multiset.from_set(m36, [0, 5, 7, 11, 20, 33])
        for x in (0, 1, 17, 35):
            assert box(a, 36, x).total() == 6

    def test_window(self, m12):
        a = Multiset.from_set(m12, [0, 3, 6, 9])
        bx = box(a, 12, 0, window=[0, 3])
        assert bx.total() == 2

    def test_box_table_consistency(self, m36):
        t = TilingInstance.from_sets(m36, [0, 1, 2, 27, 28, 29], [0, 6, 12, 18, 24, 30])
        table = box_table(t.a)
        for x in (0, 5, 19):
            bx = box(t.a, 36, x)
            for idx, d in enumerate(m36.divisors):
                assert table[x, idx] == bx.count(d)


    @pytest.mark.parametrize("m, seed", [(36, 1), (36, 2), (225, 3)])
    def test_box_table_matches_scalar_boxes(self, m, seed):
        mod = Modulus.of(m)
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Multiset(mod, rng.integers(0, 3, size=m))
        t = TilingInstance(mod, a, Multiset(mod, rng.integers(0, 2, size=m)))
        for side in (t.a, t.b):
            table = box_table(side)
            for x in range(m):
                bx = box(side, m, x)
                assert table[x].tolist() == [bx.count(d) for d in mod.divisors]


class TestBoxProduct:
    def test_hand_expansion(self, m4):
        t = TilingInstance.from_sets(m4, [0, 2], [0, 1])
        assert box_product(t, 0, 0) == Fraction(1)

    def test_all_pairs_on_tiling(self, m12):
        t = TilingInstance.from_sets(m12, [0, 1, 2, 3], [0, 4, 8])
        for x in range(12):
            for y in range(12):
                assert box_product(t, x, y) == 1

    def test_sweep_matches_scalar(self, flat225):
        xs = np.arange(0, 225, 7)
        ys = (xs * 3 + 11) % 225
        assert box_product_sweep_is_one(flat225, xs, ys)
        for x, y in zip(xs[:5], ys[:5]):
            assert box_product(flat225, int(x), int(y)) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_matches_scalar_off_tilings(self, m36, seed):
        # on random pairs of sets the products vary, so the sweep must say
        # "one" exactly at the anchor pairs where the scalar product is 1
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.choice(36, size=int(rng.integers(2, 7)), replace=False)
        b = rng.choice(36, size=int(rng.integers(2, 7)), replace=False)
        t = TilingInstance.from_sets(m36, a.tolist(), b.tolist())
        values = set()
        for x in range(36):
            for y in range(0, 36, 5):
                scalar = box_product(t, x, y)
                values.add(scalar)
                assert box_product_sweep_is_one(t, np.array([x]), np.array([y])) == (scalar == 1)
        assert len(values) > 1

    def test_non_tiling_breaks(self, m4):
        t = TilingInstance.from_sets(m4, [0, 1], [0, 1])
        vals = {box_product(t, x, y) for x in range(4) for y in range(4)}
        assert vals != {Fraction(1)}


class TestSaturatingSets:
    def test_members_saturate_selves(self, flat225):
        for a in flat225.a.elements()[:5]:
            assert saturating_set(flat225, a) == (a,)

    def test_hand_example(self, m4):
        t = TilingInstance.from_sets(m4, [0, 2], [0, 1])
        assert saturating_set(t, 1) == (0, 2)

    def test_subset_of_a(self, flat225):
        for x in (1, 2, 77):
            assert set(saturating_set(flat225, x)) <= set(flat225.a.elements())

    def test_pointed_version_unions(self, flat225):
        x = 1
        union: set[int] = set()
        for b in flat225.b.elements():
            union |= set(saturating_set(flat225, x, b))
        assert tuple(sorted(union)) == saturating_set(flat225, x)

    def test_unverified_rejected(self, m4):
        t = TilingInstance.from_sets(m4, [0, 1], [0, 1])
        with pytest.raises(ValueError):
            saturating_set(t, 0)


class TestSpans:
    def test_full_gcd_empty(self, m225):
        assert span(m225, 7, 7) == frozenset()

    def test_span_example(self, m225):
        # (x - x', 225) = 75 = 3 * 25: only the 3-exponent is below full
        s = span(m225, 0, 75)
        assert s == frozenset(m225.grid(0, 9))

    def test_bispan_symmetric(self, m225):
        for x, y in ((0, 75), (3, 17), (9, 9)):
            assert bispan(m225, x, y) == bispan(m225, y, x)

    def test_bispan_bound_exhaustive_z12(self, m12):
        t = TilingInstance.from_sets(m12, [0, 1, 2, 3], [0, 4, 8])
        assert all(check_bispan_bound(t, x) for x in range(12))

    def test_bispan_bound_flat225(self, flat225):
        assert all(check_bispan_bound(flat225, x) for x in range(0, 225, 7))
        assert all(check_bispan_bound(flat225, a) for a in flat225.a.elements()[:6])

    def test_set_plus_span_property(self, flat225):
        # A_{x',y} inside A_{x,y} union Bispan(x, x'), spot-checked
        mod = flat225.modulus
        for x, x2, y in ((1, 2, 0), (5, 80, 9), (7, 7 + 75, 34)):
            lhs = set(saturating_set(flat225, x2, y))
            rhs = set(saturating_set(flat225, x, y)) | set(bispan(mod, x, x2))
            assert lhs <= rhs


class TestEnhancedDivisorExclusion:
    def test_both_full_inapplicable(self, flat225):
        with pytest.raises(Inapplicable):
            enhanced_divisor_exclusion(flat225, 0, 0, 225, 225)

    def test_equal_non_full_inapplicable(self, flat225):
        with pytest.raises(Inapplicable):
            enhanced_divisor_exclusion(flat225, 0, 0, 15, 15)

    def test_exhaustive_z36(self, m36):
        t = TilingInstance.from_sets(m36, [0, 1, 2, 3, 4, 5], [0, 6, 12, 18, 24, 30])
        divs = m36.divisors
        checked = 0
        for i1, i2 in np.argwhere(admissible_pair_mask(m36)):
            for x in range(0, 36, 5):
                for y in range(0, 36, 7):
                    assert enhanced_divisor_exclusion(t, x, y, divs[i1], divs[i2])
                    checked += 1
        assert checked > 100

    def test_sampled_flat225(self, flat225):
        mod = flat225.modulus
        admissible = np.argwhere(admissible_pair_mask(mod))
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(400):
            i1, i2 = admissible[int(rng.integers(len(admissible)))]
            x = int(rng.integers(225))
            y = int(rng.integers(225))
            assert enhanced_divisor_exclusion(flat225, x, y, mod.divisors[i1], mod.divisors[i2])
