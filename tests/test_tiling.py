"""Verifiers, divisor sets, boxes, box products, saturating sets, spans."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cyclotile import (
    Inapplicable,
    Modulus,
    Multiset,
    TilingInstance,
    bispan,
    box,
    box_product,
    check_bispan_bound,
    div_set,
    div_set_local,
    enhanced_divisor_exclusion,
    saturating_set,
    span,
    verify_direct,
    verify_poly,
    verify_sands,
)
from cyclotile.tiling import box_product_sweep_is_one


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
        assert div_set(Multiset.from_set(m12, [0])).members == {12}

    def test_pair(self, m12):
        assert div_set(Multiset.from_set(m12, [0, 6])).members == {12, 6}

    def test_verify_sands_example(self, m4):
        a = Multiset.from_set(m4, [0, 2])
        b = Multiset.from_set(m4, [0, 1])
        assert div_set(a).members == {4, 2}
        assert div_set(b).members == {4, 1}

    def test_local_contains_scale(self, m12):
        a = Multiset.from_set(m12, [0, 3, 7])
        for a0 in a.elements():
            assert 12 in div_set_local(a, a0).members

    def test_local_at_scale(self, m12):
        a1 = Multiset.from_set(m12, [0, 4])
        a2 = Multiset.from_set(m12, [6])
        assert div_set_local(a1, a2, 6).members == {6, 2}


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
        table = t.box_table("a")
        for x in (0, 5, 19):
            bx = box(t.a, 36, x)
            for idx, d in enumerate(m36.divisors):
                assert table[x, idx] == bx.count(d)


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
        assert s == frozenset(m225.plane(0, 9))

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
        for m1 in divs:
            for m2 in divs:
                if m1 == 36 and m2 == 36:
                    continue
                e1 = m36.divisor_exponents(m1)
                e2 = m36.divisor_exponents(m2)
                if any(
                    a1 == a2 and a1 != n
                    for (_, n), a1, a2 in zip(m36.primes, e1, e2)
                ):
                    continue
                for x in range(0, 36, 5):
                    for y in range(0, 36, 7):
                        assert enhanced_divisor_exclusion(t, x, y, m1, m2)
                        checked += 1
        assert checked > 100

    def test_sampled_flat225(self, flat225):
        mod = flat225.modulus
        admissible = []
        for m1 in mod.divisors:
            for m2 in mod.divisors:
                if m1 == m2 == 225:
                    continue
                e1, e2 = mod.divisor_exponents(m1), mod.divisor_exponents(m2)
                if any(a == b and a != n for (_, n), a, b in zip(mod.primes, e1, e2)):
                    continue
                admissible.append((m1, m2))
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(400):
            m1, m2 = admissible[int(rng.integers(len(admissible)))]
            x = int(rng.integers(225))
            y = int(rng.integers(225))
            assert enhanced_divisor_exclusion(flat225, x, y, m1, m2)
