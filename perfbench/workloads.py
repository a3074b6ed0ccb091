"""The benchmark's four workloads.

Each workload makes its inputs from the seed when it is built (set-up), and
`round()` is a generator that performs one op per `next()` and yields that
op's output, so the runner can time every op.  A round is the same list of
ops every time.  `check()` compares a round's outputs with the oracle and
returns a list of problems, empty when everything is right.

Library calls go through module attributes at call time (`ct.classify`, not
a name imported once), so the tracer's wrappers see them.
"""

from __future__ import annotations

from math import gcd

import numpy as np

import cyclotile as ct
import cyclotile.io as ctio
import oracle

M = 11025  # (3 * 5 * 7)^2, the paper's headline modulus


class Failed:
    """Output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _ops(inputs, op):
    for inp in inputs:
        try:
            out = op(inp)
        except Exception as exc:  # an op that raises is counted as failed
            out = Failed(exc)
        yield out


# -- tilings of Z_11025 ----------------------------------------------------------


def flat_tiling(mod):
    """A = the top-scale grid through 0, B = its standard complement."""
    a = ct.Multiset.from_set(mod, range(0, mod.m, 105))
    b = ct.standard_complement(mod, ({1}, {1}, {1}))
    return ct.TilingInstance(mod, a, b)


def _legal_moves(mod, t):
    """Every fiber shift the flat complement licenses, in a fixed order."""
    m = mod.m
    sup = set(t.a.elements())
    out = []
    for nu, (p, _) in enumerate(mod.primes):
        step, dist = m // p, m // p**2
        roots = sorted(
            {x % step for x in sup if all((x % step + i * step) % m in sup for i in range(p))}
        )
        for r in roots:
            rest = sup - {(r + i * step) % m for i in range(p)}
            for u in range(1, p * p):
                if u % p == 0:
                    continue
                tgt = (r + u * dist) % m
                if not rest & {(tgt + i * step) % m for i in range(p)}:
                    out.append(ct.ShiftMove(nu, r, tgt))
    return out


def shifted_tiling(mod, flat, directions, rng):
    """Seeded fiber shifts of the flat tiling, one per entry of `directions`
    (a direction index, or None for any), each applied and re-verified by the
    library's fiber_shift."""
    cur = flat
    for nu in directions:
        moves = [mv for mv in _legal_moves(mod, cur) if nu is None or mv.direction == nu]
        cur = ct.fiber_shift(cur, moves[int(rng.integers(len(moves)))])
    return cur


def slab_tiling(mod, rng):
    """A fibered in one seeded direction only, B its product complement, both
    moved by a seeded unit multiple and translations.  Such a tiling takes
    classify's slab-reduction branch."""
    nu = int(rng.integers(3))
    fam_a, fam_b = [{1}, {1}, {1}], [{2}, {2}, {2}]
    fam_a[nu], fam_b[nu] = set(), {1}
    a = ct.standard_complement(mod, tuple(fam_a)).convolve(ct.Multiset.fiber(mod, nu))
    b = ct.standard_complement(mod, tuple(fam_b))
    u = int(rng.choice([x for x in range(1, 200) if gcd(x, mod.m) == 1]))
    ta, tb = (int(x) for x in rng.integers(mod.m, size=2))
    return ct.TilingInstance.from_sets(
        mod, [(u * x + ta) % mod.m for x in a.elements()], [(u * x + tb) % mod.m for x in b.elements()]
    )


def _sets(t):
    return tuple(t.a.elements()), tuple(t.b.elements())


# -- classify-11025 ----------------------------------------------------------------


class Classify:
    """One op: classify() on a tiling of Z_11025.

    A round holds one-shift copies of the flat tiling (fibered-triple-grid
    branch, about 0.4 s each), one two-shift copy with the shifts in two
    directions (unfibered-grid, about 2.5 s) and constructed single-direction
    fibered tilings (slab-reduction, about 0.2 s).  Random chains of three or
    more shifts cost 3-5 s, and from four shifts on they often fall back into
    single-direction fibering (0.2 s), so their cost is bimodal in the seed;
    they are left out to keep rounds short enough to repeat.
    """

    SHIFT1, SHIFT2, SLABS = 4, 1, 1
    # The branch each kind of input is built to reach.  The round's cost
    # depends on it, so a report from another branch fails the check.
    BRANCH = {"shift1": "fibered-triple-grid", "shift2": "unfibered-grid", "slab": "slab-reduction"}

    def __init__(self, seed: int):
        self.mod = mod = ct.Modulus.of(M)
        flat = flat_tiling(mod)
        rng = _rng(seed, 1)
        self.inputs = []
        for _ in range(self.SHIFT1):
            self.inputs.append(("shift1", *_sets(shifted_tiling(mod, flat, (None,), rng))))
        for _ in range(self.SHIFT2):
            dirs = tuple(int(d) for d in rng.choice(3, size=2, replace=False))
            self.inputs.append(("shift2", *_sets(shifted_tiling(mod, flat, dirs, rng))))
        for _ in range(self.SLABS):
            self.inputs.append(("slab", *_sets(slab_tiling(mod, rng))))
        order = rng.permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]

    def op(self, inp):
        _, a, b = inp
        return ct.classify(ct.TilingInstance.from_sets(self.mod, a, b))

    def warm_up(self) -> None:
        self.op(next(inp for inp in self.inputs if inp[0] == "slab"))

    def round(self):
        return _ops(self.inputs, self.op)

    def check(self, outputs) -> list[str]:
        spectra = oracle.Spectra(M)
        errors = []
        for (label, a, b), rep in zip(self.inputs, outputs):
            if isinstance(rep, Failed):
                continue
            where = f"{label} {a[:4]}...: "
            if not oracle.tiles(M, a, b):
                errors.append(where + "input does not tile")
                continue
            if rep.branch != self.BRANCH[label]:
                errors.append(where + f"branch {rep.branch}, built for {self.BRANCH[label]}")
            errors += [where + e for e in check_report(spectra, a, b, rep)]
        return errors

    def counts(self, outputs) -> dict[str, int]:
        """Per-layer counts read off a round's outputs."""
        return {"reduce.trace_moves": sum(
            len(r.trace.moves) for r in outputs if not isinstance(r, Failed) and r.trace
        )}


def check_report(spectra: oracle.Spectra, a, b, rep) -> list[str]:
    """A classification report must be resolved and certified, and its trace
    must replay to its final grid through tilings of constant S_A."""
    m = spectra.m
    if not rep.resolved:
        return [f"unresolved ({rep.branch})"]
    if not (rep.t2_a and rep.t2_b and rep.standard_cross_check):
        return ["certificate missing: t2_a, t2_b or standard_cross_check not true"]
    if rep.branch in ("fibered-triple-grid", "unfibered-grid") and rep.trace is None:
        return [f"{rep.branch} without a trace"]
    if rep.trace is None:
        return []
    side_a, side_b = (b, a) if rep.swapped else (a, b)
    cur = frozenset((x - min(side_a)) % m for x in side_a)
    comp = frozenset((x - min(side_b)) % m for x in side_b)
    tr = rep.trace
    if frozenset(tr.start.a.elements()) != cur or frozenset(tr.start.b.elements()) != comp:
        return ["trace does not start at the canonical translate of the input"]
    pinned = spectra.prime_powers(spectra.spectrum(cur))
    for i, mv in enumerate(tr.moves):
        cur = oracle.replay_shift(m, cur, mv.direction, mv.root, mv.target)
        if cur is None:
            return [f"move {i} is illegal"]
        if not oracle.tiles(m, cur, comp):
            return [f"A after move {i} does not tile"]
        if spectra.prime_powers(spectra.spectrum(cur)) != pinned:
            return [f"move {i} changed the prime-power spectrum"]
    if cur != frozenset(tr.final.a.elements()):
        return ["replayed moves do not give trace.final"]
    d = oracle.radical(m)
    if len({x % d for x in cur}) != 1:
        return [f"final A is not in one residue class mod {d}"]
    return []


# -- certify-11025 -------------------------------------------------------------------


class Certify:
    """One op: the certification bundle on one instance of Z_11025 -- the three
    verifiers, both spectra, (T1)/(T2) of both sides, and the standard
    complement of B with its direct verification."""

    TILINGS = ("flat", "shift1", "shift2", "shift3", "slab")

    def __init__(self, seed: int):
        self.mod = mod = ct.Modulus.of(M)
        rng = _rng(seed, 2)
        flat = flat_tiling(mod)
        self.inputs = []
        for label in self.TILINGS:
            if label == "flat":
                t = flat
            elif label == "slab":
                t = slab_tiling(mod, rng)
            else:
                t = shifted_tiling(mod, flat, (None,) * int(label[-1]), rng)
            a, b = _sets(t)
            self.inputs.append((label, a, b))
            # One element of A moved to a seeded vacant residue: not a tiling.
            out = int(rng.integers(len(a)))
            vacant = sorted(set(range(mod.m)) - set(a))
            new = vacant[int(rng.integers(len(vacant)))]
            self.inputs.append((label + "-perturbed", tuple(sorted(set(a) - {a[out]} | {new})), b))
        order = rng.permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]

    def op(self, inp):
        _, a, b = inp
        t = ct.TilingInstance.from_sets(self.mod, a, b)
        flat = ct.standard_complement_of(t.b)
        return {
            "direct": ct.verify_direct(t),
            "poly": ct.verify_poly(t),
            "sands": ct.verify_sands(t),
            "spec_a": ct.spectrum(t.a).divisors,
            "spec_b": ct.spectrum(t.b).divisors,
            "t1_a": ct.t1_check(t.a),
            "t1_b": ct.t1_check(t.b),
            "t2_a": ct.t2_check(t.a),
            "t2_b": ct.t2_check(t.b),
            "flat": flat.elements(),
            "flat_tiles": ct.verify_direct(ct.TilingInstance(self.mod, flat, t.b)),
        }

    def warm_up(self) -> None:
        self.op(self.inputs[0])

    def round(self):
        return _ops(self.inputs, self.op)

    def check(self, outputs) -> list[str]:
        spectra = oracle.Spectra(M)
        errors = []
        for (label, a, b), out in zip(self.inputs, outputs):
            if isinstance(out, Failed):
                continue
            errors += [f"{label}: {e}" for e in check_bundle(spectra, a, b, out)]
        return errors


def check_bundle(spectra: oracle.Spectra, a, b, out) -> list[str]:
    m = spectra.m
    spec_a, spec_b = spectra.spectrum(a), spectra.spectrum(b)
    tiles = oracle.tiles(m, a, b)
    want = {
        "direct": tiles,
        "poly": tiles,
        "sands": tiles,
        "spec_a": spec_a,
        "spec_b": spec_b,
        "t1_a": spectra.t1(a),
        "t1_b": spectra.t1(b),
        "t2_a": spectra.t2(a),
        "t2_b": spectra.t2(b),
    }
    errors = [f"{k} is {out[k]!r}, oracle says {v!r}" for k, v in want.items() if out[k] != v]
    flat = out["flat"]
    # The standard complement carries exactly the prime powers B lacks.
    pp_b = spectra.prime_powers(spec_b)
    all_pp = {p**e for p, n in spectra.primes for e in range(1, n + 1)}
    if spectra.prime_powers(spectra.spectrum(flat)) != all_pp - pp_b:
        errors.append("standard complement has the wrong prime-power spectrum")
    if out["flat_tiles"] != oracle.tiles(m, flat, b):
        errors.append("verify_direct of the standard complement disagrees with the oracle")
    return errors


# -- sweep-36 --------------------------------------------------------------------------


class Sweep:
    """One op: one tiling streamed from enumerate_tilings(Z_36, |A| = 6), moved
    by a seeded affine map x -> u x + t, round-tripped through the instance
    file format, and given the three verifiers, both spectra and (T1)/(T2) of
    both sides.  The enumeration itself has no free input; the seed picks the
    affine map, which keeps every verdict and changes every set checked.

    A round is the first PREFIX tilings of a fresh enumeration (about 2.5 s;
    all 12,924 take about 20 s), so that rounds repeat within a run."""

    MOD, SIZE, PREFIX = 36, 6, 1000

    def __init__(self, seed: int):
        self.mod = ct.Modulus.of(self.MOD)
        rng = _rng(seed, 3)
        units = [u for u in range(1, self.MOD) if gcd(u, self.MOD) == 1]
        self.u = int(rng.choice(units))
        self.ta, self.tb = (int(x) for x in rng.integers(self.MOD, size=2))

    def _image(self, xs, t):
        return sorted((self.u * x + t) % self.MOD for x in xs)

    def process(self, tiling):
        mod = self.mod
        a, b = tiling.a.elements(), tiling.b.elements()
        img = ct.TilingInstance.from_sets(mod, self._image(a, self.ta), self._image(b, self.tb))
        text = ctio.write_instance(ctio.instance_file_from(mod, img.a, img.b))
        parsed = ctio.parse_instance(text)
        t = parsed.instance()
        verdicts = (
            ct.verify_direct(t),
            ct.verify_poly(t),
            ct.verify_sands(t),
            ct.spectrum(t.a).divisors,
            ct.spectrum(t.b).divisors,
            ct.t1_check(t.a),
            ct.t1_check(t.b),
            ct.t2_check(t.a),
            ct.t2_check(t.b),
        )
        return a, b, parsed.a, parsed.b, verdicts

    def warm_up(self) -> None:
        self.process(next(iter(ct.enumerate_tilings(ct.EnumerationTask(self.mod, self.SIZE)))))

    def round(self):
        stream = ct.enumerate_tilings(ct.EnumerationTask(self.mod, self.SIZE))
        for _ in range(self.PREFIX):
            try:
                tiling = next(stream)
            except StopIteration:
                return
            try:
                yield self.process(tiling)
            except Exception as exc:
                yield Failed(exc)

    def check(self, outputs) -> list[str]:
        spectra = oracle.Spectra(self.MOD)
        errors = []
        seen = set()
        for out in outputs:
            if isinstance(out, Failed):
                continue
            a, b, pa, pb, verdicts = out
            errors += [f"{a} {b}: {e}" for e in check_sweep_item(self, spectra, a, b, pa, pb, verdicts)]
            if (a, b) in seen:
                errors.append(f"{a} {b}: duplicate")
            seen.add((a, b))
        if len(outputs) != self.PREFIX:
            errors.append(f"the enumeration yielded {len(outputs)} tilings, not {self.PREFIX}")
        return errors


def check_sweep_item(sweep: Sweep, spectra: oracle.Spectra, a, b, pa, pb, verdicts) -> list[str]:
    m = spectra.m
    errors = []
    if not oracle.tiles(m, a, b):
        errors.append("not a tiling")
    if oracle.least_translate(m, a) != tuple(a):
        errors.append("A is not its least translate")
    ia, ib = sweep._image(a, sweep.ta), sweep._image(b, sweep.tb)
    if list(pa) != ia or list(pb) != ib:
        errors.append("instance file round trip changed the sets")
    direct, poly, sands, spec_a, spec_b, t1a, t1b, t2a, t2b = verdicts
    if not (direct and poly and sands):
        errors.append(f"a verifier rejects a tiling: {direct}, {poly}, {sands}")
    if spec_a != spectra.spectrum(ia) or spec_b != spectra.spectrum(ib):
        errors.append("spectrum disagrees with the oracle")
    # Coven-Meyerowitz: (T1) and (T2) are necessary when |A| has two primes.
    want = (spectra.t1(ia), spectra.t1(ib), spectra.t2(ia), spectra.t2(ib))
    if (t1a, t1b, t2a, t2b) != want:
        errors.append(f"(T1)/(T2) verdicts {(t1a, t1b, t2a, t2b)} differ from the oracle's {want}")
    if not all(want):
        errors.append(f"(T1)/(T2) fail on a tiling: {want}")
    return errors


# -- complements-60 ------------------------------------------------------------------


class Complements:
    """One op: find_complements(A, 60, limit=1), deciding tile versus non-tile
    for A = {0, a, b}.

    The round is every one of the 1711 subsets in a seeded order, except
    the stratum SKIP, where a stratum is the subgroup gcd(a, b, 60) Z_60
    that confines A: the exact cover's cost is set by that subgroup.  The
    six non-tiles in 12 Z_60 take about 0.7 s each and most others about
    0.1 ms, so they dominate the round's time.  The three non-tiles in
    15 Z_60 take about 12 s each, which would make a round 7x longer, so
    that stratum is left out.  Taking every other subset keeps the round's
    cost and its median op independent of the seed, which sets only the
    order (a seeded third of each stratum moved the median op by 12%).
    """

    MOD, SKIP = 60, (15,)

    def __init__(self, seed: int):
        rng = _rng(seed, 4)
        self.inputs = [
            (0, a, b)
            for a in range(1, self.MOD)
            for b in range(a + 1, self.MOD)
            if gcd(gcd(a, b), self.MOD) not in self.SKIP
        ]
        order = rng.permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]

    def op(self, a):
        return ct.find_complements(a, self.MOD, limit=1)

    def warm_up(self) -> None:
        self.op((0, 1, 2))

    def round(self):
        return _ops(self.inputs, self.op)

    def check(self, outputs) -> list[str]:
        spectra = oracle.Spectra(self.MOD)
        errors = []
        for a, found in zip(self.inputs, outputs):
            if isinstance(found, Failed):
                continue
            errors += [f"{a}: {e}" for e in check_complements(spectra, a, found)]
        return errors


def check_complements(spectra: oracle.Spectra, a, found) -> list[str]:
    # |A| = 3 is prime, so A tiles iff (T1) holds (Newman; Coven-Meyerowitz).
    errors = []
    if bool(found) != spectra.t1(a):
        errors.append(f"complement found: {bool(found)}, oracle (T1): {spectra.t1(a)}")
    for b in found:
        if 0 not in b or not oracle.tiles(spectra.m, a, b):
            errors.append(f"returned B {b} does not tile with A")
    return errors


WORKLOADS = {
    "classify-11025": Classify,
    "certify-11025": Certify,
    "sweep-36": Sweep,
    "complements-60": Complements,
}
