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
from .zm import Modulus

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


def _check_sorted(values: list[int], m: int, name: str) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in values)
    except TypeError as exc:
        raise ValueError(f"{name}: expected an array of integers") from exc
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


def _parse_json(text: str) -> InstanceFile:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "m" not in obj:
        raise ValueError("instance file must be an object with key 'm'")
    m = int(obj["m"])
    primes = None
    if "primes" in obj and obj["primes"] is not None:
        primes = tuple((int(p), int(n)) for p, n in obj["primes"])
    a = _check_sorted(obj["a"], m, "a") if obj.get("a") is not None else None
    b = _check_sorted(obj["b"], m, "b") if obj.get("b") is not None else None
    wa = (
        tuple((int(x) % m, int(c)) for x, c in obj["weights_a"])
        if obj.get("weights_a") is not None
        else None
    )
    wb = (
        tuple((int(x) % m, int(c)) for x, c in obj["weights_b"])
        if obj.get("weights_b") is not None
        else None
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
