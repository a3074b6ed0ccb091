"""Instance file formats: parsing, canonical serialization, round trips."""

from __future__ import annotations

import pytest

from cyclotile import Modulus, Multiset
from cyclotile.io import (
    instance_file_from,
    parse_instance,
    write_instance,
)


class TestJson:
    def test_minimal(self):
        inst = parse_instance('{"m": 4, "a": [0, 2], "b": [0, 1]}')
        assert inst.m == 4 and inst.a == (0, 2)
        t = inst.instance()
        assert t.modulus.m == 4

    def test_primes_checked(self):
        with pytest.raises(ValueError):
            parse_instance('{"m": 4, "primes": [[2, 1]], "a": [0]}').modulus()

    def test_elements_range(self):
        with pytest.raises(ValueError):
            parse_instance('{"m": 4, "a": [0, 5]}')

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            parse_instance('{"m": 4, "a": [2, 0]}')

    def test_weights(self):
        inst = parse_instance('{"m": 4, "weights_a": [[0, 2], [1, -1]]}')
        a = inst.side("a")
        assert a.weight(0) == 2 and a.weight(1) == -1

    def test_round_trip_canonical(self):
        text = '{"m": 12, "a": [0, 6], "b": [0, 1, 2, 3, 4, 5]}'
        once = write_instance(parse_instance(text))
        twice = write_instance(parse_instance(once))
        assert once == twice
        assert once.endswith("\n")

    def test_nested_element_rejected(self):
        with pytest.raises(ValueError):
            parse_instance('{"m":4,"a":[[1]],"b":[0]}')

    def test_key_order_stable(self):
        a = write_instance(parse_instance('{"a": [0], "m": 4, "b": [1]}'))
        b = write_instance(parse_instance('{"b": [1], "m": 4, "a": [0]}'))
        assert a == b


class TestLineFormat:
    def test_basic(self):
        inst = parse_instance("m 225\na 0 15 30\nb 0 9\n")
        assert inst.m == 225 and inst.a == (0, 15, 30) and inst.b == (0, 9)

    def test_comments_and_blanks(self):
        inst = parse_instance("# fixture\nm 12\n\na 0 6  # a fiber\n")
        assert inst.a == (0, 6)

    def test_unknown_head(self):
        with pytest.raises(ValueError):
            parse_instance("m 12\nq 1 2\n")

    def test_missing_m(self):
        with pytest.raises(ValueError):
            parse_instance("a 0 1\n")

    def test_m_without_value(self):
        with pytest.raises(ValueError):
            parse_instance("m\n")

    def test_line_then_canonical_json(self):
        once = write_instance(parse_instance("m 4\na 0 2\nb 0 1\n"))
        assert write_instance(parse_instance(once)) == once


class TestBuilders:
    def test_from_multisets(self):
        mod = Modulus.of(12)
        a = Multiset.from_set(mod, [0, 6])
        w = Multiset.from_pairs(mod, [(0, 2)])
        inst = instance_file_from(mod, a, w)
        assert inst.a == (0, 6)
        assert inst.weights_b == ((0, 2),)
        text = write_instance(inst)
        back = parse_instance(text)
        assert back.side("a") == a and back.side("b") == w
