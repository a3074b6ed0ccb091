"""The benchmark's checks catch corrupted output, and its oracle and tracer
work.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cyclotile as ct  # noqa: E402
import oracle  # noqa: E402
import workloads as W  # noqa: E402

# (T1) holds and (T2) fails: S_A = {9, 25} but Phi_225 does not divide A.
# The same frozen set backs the library's own (T2) tests.
T2_FAILING_225 = (0, 5, 7, 10, 11, 12, 15, 45, 76, 102, 106, 121, 141, 197, 217)


@pytest.fixture(scope="module")
def flat225():
    mod = ct.Modulus.of(225)
    a = ct.standard_complement(mod, ({2}, {2}))
    b = ct.standard_complement(mod, ({1}, {1}))
    return ct.TilingInstance(mod, a, b)


@pytest.fixture(scope="module")
def shifted11025():
    mod = ct.Modulus.of(W.M)
    t = W.shifted_tiling(mod, W.flat_tiling(mod), (None,), W._rng(0, 1))
    a, b = W._sets(t)
    return a, b, ct.classify(ct.TilingInstance.from_sets(mod, a, b))


def _corrupt(xs, m):
    """Move the largest element to the first vacant residue above it."""
    out = set(xs)
    top = max(out)
    new = next(x for x in range(top + 1, top + m) if x % m not in out) % m
    return tuple(sorted(out - {top} | {new}))


# -- the oracle agrees with the library on genuine input ------------------------


@pytest.mark.parametrize("m", [36, 225])
def test_oracle_spectrum_matches_library(m):
    mod = ct.Modulus.of(m)
    spectra = oracle.Spectra(m)
    rng = W._rng(0, m)
    for size in (3, 6, 15):
        for _ in range(20):
            a = sorted(int(x) for x in rng.choice(m, size=size, replace=False))
            ms = ct.Multiset.from_set(mod, a)
            assert spectra.spectrum(a) == ct.spectrum(ms).divisors
            assert spectra.t1(a) == ct.t1_check(ms)
            assert spectra.t2(a) == ct.t2_check(ms)


def test_oracle_t2_failing_set():
    spectra = oracle.Spectra(225)
    assert spectra.t1(T2_FAILING_225)
    assert not spectra.t2(T2_FAILING_225)


def test_least_translate_brute_force():
    assert oracle.least_translate(12, (3, 4, 7)) == (0, 1, 4)


# -- each check fails on corrupted output ------------------------------------------


def test_bundle_check_catches_corrupted_b(flat225):
    w = W.Certify.__new__(W.Certify)
    w.mod = flat225.modulus
    a, b = W._sets(flat225)
    spectra = oracle.Spectra(225)
    out = w.op(("flat", a, b))
    assert W.check_bundle(spectra, a, b, out) == []
    errors = W.check_bundle(spectra, a, _corrupt(b, 225), out)
    assert any(e.startswith("direct is True") for e in errors)


def test_bundle_check_catches_wrong_t2_verdict():
    mod = ct.Modulus.of(225)
    w = W.Certify.__new__(W.Certify)
    w.mod = mod
    b = ct.standard_complement(mod, ({1}, {1})).elements()
    spectra = oracle.Spectra(225)
    out = w.op(("t2-failing", T2_FAILING_225, b))
    assert out["t2_a"] is False
    assert W.check_bundle(spectra, T2_FAILING_225, b, out) == []
    errors = W.check_bundle(spectra, T2_FAILING_225, b, {**out, "t2_a": True})
    assert any(e.startswith("t2_a is True") for e in errors)


def _sweep_item(flat225):
    """A Sweep stand-in over Z_225 with the identity map, and one genuine item."""
    w = W.Sweep.__new__(W.Sweep)
    w.mod, w.MOD, w.u, w.ta, w.tb = flat225.modulus, 225, 1, 0, 0
    a = oracle.least_translate(225, flat225.a.elements())
    return w, w.process(ct.TilingInstance.from_sets(w.mod, a, flat225.b.elements()))


def test_sweep_check_passes_genuine_item(flat225):
    w, (a, b, pa, pb, verdicts) = _sweep_item(flat225)
    assert W.check_sweep_item(w, oracle.Spectra(225), a, b, pa, pb, verdicts) == []


def test_sweep_check_catches_corrupted_b(flat225):
    w, (a, b, pa, pb, verdicts) = _sweep_item(flat225)
    bad = _corrupt(b, 225)
    errors = W.check_sweep_item(w, oracle.Spectra(225), a, bad, pa, pb, verdicts)
    assert "not a tiling" in errors


def test_sweep_check_catches_non_least_translate(flat225):
    w, (a, b, pa, pb, verdicts) = _sweep_item(flat225)
    moved = tuple(sorted((x + 1) % 225 for x in a))
    errors = W.check_sweep_item(w, oracle.Spectra(225), moved, b, pa, pb, verdicts)
    assert "A is not its least translate" in errors


def test_sweep_check_catches_failing_t2():
    mod = ct.Modulus.of(225)
    w = W.Sweep.__new__(W.Sweep)
    w.mod, w.MOD, w.u, w.ta, w.tb = mod, 225, 1, 0, 0
    b = ct.standard_complement(mod, ({1}, {1})).elements()
    a, b, pa, pb, verdicts = w.process(ct.TilingInstance.from_sets(mod, T2_FAILING_225, b))
    errors = W.check_sweep_item(w, oracle.Spectra(225), a, b, pa, pb, verdicts)
    assert any(e.startswith("(T1)/(T2) fail on a tiling") for e in errors)


def test_report_check_passes_genuine_trace(shifted11025):
    a, b, rep = shifted11025
    assert rep.trace is not None and rep.trace.moves
    assert W.check_report(oracle.Spectra(W.M), a, b, rep) == []


def test_report_check_catches_wrong_replayed_move(shifted11025):
    a, b, rep = shifted11025
    mv = rep.trace.moves[0]
    p = ct.Modulus.of(W.M).primes[mv.direction][0]
    wrong = dataclasses.replace(mv, target=(mv.target + W.M // p**2) % W.M)
    if wrong.target == mv.root:
        wrong = dataclasses.replace(mv, target=(mv.target - W.M // p**2) % W.M)
    bad = dataclasses.replace(rep, trace=dataclasses.replace(rep.trace, moves=(wrong,)))
    assert W.check_report(oracle.Spectra(W.M), a, b, bad)


def test_classify_check_catches_wrong_branch(shifted11025):
    a, b, rep = shifted11025
    w = W.Classify.__new__(W.Classify)
    w.inputs = [("shift1", a, b)]
    assert w.check([rep]) == []
    errors = w.check([dataclasses.replace(rep, branch="unfibered-grid")])
    assert any("branch unfibered-grid" in e for e in errors)


def test_report_check_catches_missing_certificate(shifted11025):
    a, b, rep = shifted11025
    bad = dataclasses.replace(rep, t2_b=False)
    assert W.check_report(oracle.Spectra(W.M), a, b, bad)


def test_complements_check_catches_corrupted_b():
    spectra = oracle.Spectra(60)
    a = (0, 20, 40)
    found = ct.find_complements(a, 60, limit=1)
    assert found and W.check_complements(spectra, a, found) == []
    assert W.check_complements(spectra, a, [_corrupt(found[0], 60)])
    assert W.check_complements(spectra, a, [])
    assert W.check_complements(spectra, (0, 1, 3), [found[0]])


# -- the host-speed scaling ---------------------------------------------------------


def test_host_scaled_divides_by_the_probes_around_each_op():
    import run

    p = run.PROBE_S
    rounds = run.Rounds([], [], [[1.0, 1.0], [1.0]], 3.0, [(0, p), (1, 2 * p), (3, 4 * p)])
    # op 0 lies between probes p and 2p, ops 1 and 2 between 2p and 4p.
    assert run.host_scaled(rounds) == [[1 / 1.5, 1 / 3], [1 / 3]]


# -- the tracer ------------------------------------------------------------------------


def test_tracer_sees_calls_inside_the_library():
    # Instrumenting patches the library for the whole process, so it runs in
    # a child interpreter.
    code = (
        "import cyclotile as ct, tracer\n"
        "tr = tracer.Tracer(); patch = tracer.instrument(tr)\n"
        "mod = ct.Modulus.of(225)\n"
        "t = ct.TilingInstance(mod, ct.standard_complement(mod, ({2}, {2})),"
        " ct.standard_complement(mod, ({1}, {1})))\n"
        "ct.reduce_to_grid(ct.fiber_shift(t, ct.ShiftMove(0, 0, 25)))\n"
        "s = tr.summary()\n"
        "assert s['reduce.reduce_to_grid']['calls'] == 1, s\n"
        "assert s['tiling.verify_direct']['calls'] >= 3, s\n"
        "assert s['cyclo.phi_divides']['calls'] > 0 and s['zm']['calls'] > 0, s\n"
        "assert s['reduce']['self_s'] > 0, s\n"
        "names, arr = tr.names, tr.arrays()\n"
        "root = [i for i in range(len(arr['start'])) if names[arr['name_id'][i]] == 'reduce.reduce_to_grid'][0]\n"
        "kids = {names[arr['name_id'][i]] for i in range(len(arr['start'])) if arr['parent'][i] == root}\n"
        "assert 'tiling.verify_direct' in kids, kids\n"
        "patch.off()\n"
        "import cyclotile.reduce as r, cyclotile.tiling as tl\n"
        "assert r.verify_direct is tl.verify_direct and not hasattr(r.verify_direct, '__wrapped__')\n"
        "patch.on()\n"
        "assert r.verify_direct.__wrapped__ is tl.verify_direct.__wrapped__\n"
    )
    env_path = f"{HERE.parent / 'src'}:{HERE}"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
