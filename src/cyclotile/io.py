"""Instance files: JSON (canonical) and a line-oriented text form.

The JSON object carries "m", optional "primes" ([[p, n], ...]), sorted
element arrays "a"/"b", and optional "weights_a"/"weights_b" as
[element, weight] pairs for multisets.  Canonical serialization fixes the
key order and sorts arrays, so parse -> write is byte-stable.

The text form is for hand-authored fixtures::

    m 225
    a 0 15 30 ...
    b 0 9 18 ...
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .multiset import Multiset
from .tiling import TilingInstance
from .zm import MAX_MODULUS, Modulus

FORMAT_VERSION = 1

_KEY_ORDER = ("format", "m", "primes", "a", "b", "weights_a", "weights_b")


@dataclass(frozen=True)
class InstanceFile:
    m: int
    primes: tuple[tuple[int, int], ...] | None
    a: tuple[int, ...] | None
    b: tuple[int, ...] | None
    weights_a: tuple[tuple[int, int], ...] | None
    weights_b: tuple[tuple[int, int], ...] | None

    def modulus(self) -> Modulus:
        if self.primes is not None:
            mod = Modulus(tuple(self.primes))
            if mod.m != self.m:
                raise ValueError(f"primes {self.primes} do not multiply to m={self.m}")
            return mod
        return Modulus.of(self.m)

    def side(self, which: str) -> Multiset | None:
        mod = self.modulus()
        elems = self.a if which == "a" else self.b
        weights = self.weights_a if which == "a" else self.weights_b
        if weights is not None:
            return Multiset.from_pairs(mod, weights)
        if elems is not None:
            return Multiset.from_set(mod, elems)
        return None

    def instance(self) -> TilingInstance:
        a = self.side("a")
        b = self.side("b")
        if a is None or b is None:
            raise ValueError("instance requires both sides")
        return TilingInstance(self.modulus(), a, b)


def _ints(values: list, name: str) -> tuple[int, ...]:
    """JSON integers exactly: floats, strings, bools and arrays are refused."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{name}: expected an array of integers")
    return tuple(values)


def _check_sorted(values: list[int], m: int, name: str) -> tuple[int, ...]:
    out = _ints(values, name)
    if any(not 0 <= v < m for v in out):
        raise ValueError(f"{name}: elements must lie in [0, {m})")
    if any(x >= y for x, y in zip(out, out[1:])):
        raise ValueError(f"{name}: array must be strictly increasing")
    return out


def parse_instance(text: str) -> InstanceFile:
    """Parse either format; JSON is tried first, then the line form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_lines(text)


def _pairs(values: list[list[int]], name: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(values, list) or any(
        not isinstance(pair, list) or len(pair) != 2 for pair in values
    ):
        raise ValueError(f"{name}: expected an array of integer pairs")
    return tuple(_ints(pair, name) for pair in values)


def _weights(values: list[list[int]], m: int, name: str) -> tuple[tuple[int, int], ...]:
    pairs = tuple((x % m, c) for x, c in _pairs(values, name))
    totals: dict[int, int] = {}
    for x, c in pairs:
        totals[x] = totals.get(x, 0) + c
    # Multisets hold int64 weights; -2^63 is out too, as it has no int64 negation.
    if any(abs(c) >= 1 << 63 for c in totals.values()):
        raise ValueError(f"{name}: weights must lie strictly between -2^63 and 2^63")
    return pairs


def _parse_json(text: str) -> InstanceFile:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "m" not in obj:
        raise ValueError("instance file must be an object with key 'm'")
    m = obj["m"]
    if type(m) is not int or not 1 <= m <= MAX_MODULUS:
        raise ValueError(f"m: expected an integer in [1, {MAX_MODULUS}]")
    primes = _pairs(obj["primes"], "primes") if obj.get("primes") is not None else None
    # Bounded by m before Modulus tests primality and multiplies them out.
    if primes is not None and any(not (1 < p <= m and 0 < n < m.bit_length()) for p, n in primes):
        raise ValueError(f"primes {list(primes)} do not multiply to m={m}")
    a = _check_sorted(obj["a"], m, "a") if obj.get("a") is not None else None
    b = _check_sorted(obj["b"], m, "b") if obj.get("b") is not None else None
    wa, wb = (
        _weights(obj[key], m, key) if obj.get(key) is not None else None
        for key in ("weights_a", "weights_b")
    )
    return InstanceFile(m, primes, a, b, wa, wb)


def _parse_lines(text: str) -> InstanceFile:
    m: int | None = None
    arrays: dict[str, tuple[int, ...]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "m":
            if len(rest) != 1:
                raise ValueError("the 'm' line takes exactly one value")
            m = int(rest[0])
        elif head in ("a", "b"):
            arrays[head] = tuple(sorted(int(v) for v in rest))
        else:
            raise ValueError(f"unknown line head {head!r}")
    if m is None:
        raise ValueError("missing 'm' line")
    a = _check_sorted(sorted(arrays.get("a", ())), m, "a") if "a" in arrays else None
    b = _check_sorted(sorted(arrays.get("b", ())), m, "b") if "b" in arrays else None
    return InstanceFile(m, None, a, b, None, None)


def write_instance(inst: InstanceFile) -> str:
    """Canonical JSON: fixed key order, sorted arrays, one trailing newline."""
    obj: dict = {"format": FORMAT_VERSION, "m": inst.m}
    if inst.primes is not None:
        obj["primes"] = [[p, n] for p, n in inst.primes]
    if inst.a is not None:
        obj["a"] = sorted(inst.a)
    if inst.b is not None:
        obj["b"] = sorted(inst.b)
    if inst.weights_a is not None:
        obj["weights_a"] = [[x, c] for x, c in sorted(inst.weights_a)]
    if inst.weights_b is not None:
        obj["weights_b"] = [[x, c] for x, c in sorted(inst.weights_b)]
    ordered = {k: obj[k] for k in _KEY_ORDER if k in obj}
    return json.dumps(ordered, separators=(", ", ": ")) + "\n"


def instance_file_from(mod: Modulus, a: Multiset | None, b: Multiset | None) -> InstanceFile:
    def pack(side: Multiset | None) -> tuple:
        if side is None:
            return None, None
        if side.is_set:
            return side.elements(), None
        return None, tuple((x, side.weight(x)) for x in side.support())

    a_el, wa = pack(a)
    b_el, wb = pack(b)
    return InstanceFile(mod.m, mod.primes, a_el, b_el, wa, wb)
