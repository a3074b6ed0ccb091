"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload classify-11025 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory, nothing needs installing.  Inputs are made from the seed;
set-up (import, input generation, warm-up) and the oracle checks lie outside
the timed phase.  The timed phase runs whole rounds of the workload's ops
until about `--seconds` have passed, and probes the host's speed between
ops; times are reported scaled to a host of fixed speed (see host_scaled()).

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics, per round, of traced rounds that alternate with untraced ones, and
the tracing overhead; see traced().

The result is also written to perfbench/out/, with the spans of a traced run.
Exit status: 0 when a result is printed, 2 when the benchmark cannot run
(for example when the source tree is missing).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
T0 = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time when
    /proc has it, else since this module began to run."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T0


def load_library():
    src = ROOT / "src"
    if not (src / "cyclotile" / "__init__.py").is_file():
        print(f"error: no cyclotile sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import cyclotile

    if Path(cyclotile.__file__).resolve().parent != (src / "cyclotile").resolve():
        print(f"error: imported cyclotile from {cyclotile.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


class Rounds(NamedTuple):
    first: list  # the outputs of the first round
    differ: list[int]  # numbers of the rounds whose outputs differ from `want`
    times: list[list[float]]  # the op wall times of every round
    elapsed: float  # total wall time of the rounds
    probes: list[tuple[int, float]]  # (ops timed before it, reference time)


PROBE_EVERY = 0.25  # seconds between host-speed probes in the timed phase
# The probe's wall time on the host this benchmark was tuned on, a 2-vCPU
# Xeon VM, when that host ran at full speed.  Times are reported as they
# would read on a host that runs the probe in this time; see host_scaled().
PROBE_S = 0.007
_PROBE_SET = frozenset(range(0, 11025, 105))


def reference() -> float:
    """Wall time of a fixed piece of pure-Python work, about PROBE_S at full
    speed: the host-speed probe.  It shares no code with the library, and
    the garbage collector is off while it runs, so that it does not depend
    on the library's heap."""
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(5):
            best = None
            for s in _PROBE_SET:
                cand = tuple(sorted((x - s) % 11025 for x in _PROBE_SET))
                if best is None or cand < best:
                    best = cand
        return time.perf_counter() - t
    finally:
        gc.enable()


def run_rounds(workload, seconds: float, tracer=None, rounds: int | None = None, want=None,
               probe: bool = False) -> Rounds:
    """Whole rounds until about `seconds` have passed, or exactly `rounds`
    rounds.  `want` defaults to the first round's outputs.  Only the first
    round's outputs are kept, so memory does not grow with the rounds.  With
    `probe`, the host's speed is probed between ops every PROBE_EVERY
    seconds and once at the end; see host_scaled()."""
    gc.collect()
    if probe:
        reference()  # the first call runs slower while the interpreter adapts
    first, differ, times, elapsed, probes = None, [], [], 0.0, []
    done, last_probe = 0, -PROBE_EVERY
    while True:
        outs, ts = [], []
        ops = workload.round()
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.op_id += 1
            t = time.perf_counter()
            if probe and t - last_probe >= PROBE_EVERY:
                probes.append((done, reference()))
                last_probe = t = time.perf_counter()
            try:
                out = next(ops)
            except StopIteration:
                break
            ts.append(time.perf_counter() - t)
            done += 1
            outs.append(out if first is None else _key(out))
        elapsed += time.perf_counter() - start
        times.append(ts)
        if first is None:
            first = outs
            outs = [_key(x) for x in first]
            if want is None:
                want = outs
        n = len(times)
        if outs != want:
            differ.append(n)
        # Without a round count, stop at the round boundary nearest `seconds`.
        if (n >= rounds) if rounds is not None else (elapsed + elapsed / n / 2 >= seconds):
            if probe:
                probes.append((done, reference()))
            return Rounds(first, differ, times, elapsed, probes)


def host_scaled(run: Rounds) -> list[list[float]]:
    """The op times scaled to a host that runs the probe in PROBE_S.  Each
    op's time is multiplied by PROBE_S over the mean of the probes taken
    just before and just after it.  On a shared host the speed swings by up
    to 2x for tens of seconds; the probe slows with it, and the scaled times
    do not."""
    scaled, k, i = [], 0, 0
    for ts in run.times:
        row = []
        for t in ts:
            while k + 1 < len(run.probes) and run.probes[k + 1][0] <= i:
                k += 1
            row.append(t * PROBE_S / ((run.probes[k][1] + run.probes[k + 1][1]) / 2))
            i += 1
        scaled.append(row)
    return scaled


def verify(workload, first: list, differ: list[int], rounds: int) -> tuple[bool, int]:
    """(correct, failed ops): the first round's outputs against the oracle,
    and no round whose outputs differ from the first's."""
    from workloads import Failed

    errors = workload.check(first) + [f"round {i} differs from round 1" for i in differ]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    failed = [x for x in first if isinstance(x, Failed)]
    if failed:
        print(f"op failed: {failed[0].error}", file=sys.stderr)
    # Every round repeats the first one's ops and outputs, failures included.
    return not errors, len(failed) * rounds


def _key(out):
    """A comparable form of an op's output."""
    if hasattr(out, "error"):  # Failed
        return out
    if hasattr(out, "branch"):  # ClassificationReport
        tr = out.trace
        return (out.branch, out.swapped, out.direction, out.t2_a, out.t2_b,
                out.standard_cross_check, tr.moves if tr else None)
    return out


def timed(workload, seconds: float) -> dict:
    """End-to-end metrics, from op times scaled to a host of fixed speed
    (host_scaled()): ops_per_s is the ops completed over the sum of their
    scaled times; op_p50_ms is the median over a round's ops of each op's
    mean scaled time over the rounds."""
    run = run_rounds(workload, seconds, probe=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, failed = verify(workload, run.first, run.differ, len(run.times))
    attempted = sum(map(len, run.times))
    scaled = host_scaled(run)
    op_mean = [statistics.fmean(op) for op in zip(*scaled)]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": attempted / sum(map(sum, scaled)), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(op_mean) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
        "rounds": len(run.times),
        "elapsed_s": run.elapsed,
        "op_times": run.times,
        "probes": run.probes,
    }


PER_LAYER = (
    # (metric, span or layer name, field, unit)
    ("reduce.classify.s", "reduce.classify", "s", "s"),
    ("reduce.reduce_to_grid.s", "reduce.reduce_to_grid", "s", "s"),
    ("reduce.reduce_to_grid.calls", "reduce.reduce_to_grid", "calls", "count"),
    ("reduce.self_s", "reduce", "self_s", "s"),
    ("reduce.fiber_shift.calls", "reduce.fiber_shift", "calls", "count"),
    ("reduce.fiber_shift.s", "reduce.fiber_shift", "s", "s"),
    ("structure.self_s", "structure", "self_s", "s"),
    ("structure.grid_fiber_report.calls", "structure.grid_fiber_report", "calls", "count"),
    ("structure.classify_unfibered_grid.s", "structure.classify_unfibered_grid", "s", "s"),
    ("structure.ijk_partition.s", "structure.ijk_partition", "s", "s"),
    ("cyclo.phi_divides.calls", "cyclo.phi_divides", "calls", "count"),
    ("cyclo.phi_divides.s", "cyclo.phi_divides", "s", "s"),
    ("cyclo.spectrum.s", "cyclo.spectrum", "s", "s"),
    ("cyclo.t2_check.s", "cyclo.t2_check", "s", "s"),
    ("cyclo.self_s", "cyclo", "self_s", "s"),
    ("tiling.verify_direct.s", "tiling.verify_direct", "s", "s"),
    ("tiling.verify_poly.s", "tiling.verify_poly", "s", "s"),
    ("tiling.verify_sands.s", "tiling.verify_sands", "s", "s"),
    ("tiling.self_s", "tiling", "self_s", "s"),
    ("search.find_complements.calls", "search.find_complements", "calls", "count"),
    ("search.find_complements.s", "search.find_complements", "s", "s"),
    ("search.enumerate_tilings.s", "search.enumerate_tilings", "s", "s"),
    ("multiset.calls", "multiset", "calls", "count"),
    ("multiset.self_s", "multiset", "self_s", "s"),
    ("zm.calls", "zm", "calls", "count"),
    ("zm.self_s", "zm", "self_s", "s"),
    ("io.parse_instance.s", "io.parse_instance", "s", "s"),
    ("io.write_instance.s", "io.write_instance", "s", "s"),
)


def traced(factory, seed: int, workload, seconds: float, path: Path) -> dict:
    """Per-layer metrics, per round, with the tracing overhead.  The library
    is instrumented, the inputs are made again under tracing (op 0 in the
    span file), and then untraced and traced rounds alternate until about
    `seconds` have passed, so that both see the same spells of a shared
    host.  Every time is scaled as the end-to-end metrics are: a layer's
    seconds by the traced rounds' mean factor (host_scaled()).  The overhead
    is the mean scaled traced minus the mean scaled untraced round time."""
    import tracer

    tr = tracer.Tracer()
    patch = tracer.instrument(tr)
    traced_wl = factory(seed)
    patch.off()
    plain = run_rounds(workload, 0, rounds=1, probe=True)
    want = [_key(x) for x in plain.first]
    plain_s, traced_s, traced_raw = sum(map(sum, host_scaled(plain))), 0.0, 0.0
    differ, first_traced, n, wall = list(plain.differ), None, 1, plain.elapsed
    while True:
        patch.on()
        run = run_rounds(traced_wl, 0, tracer=tr, rounds=1, want=want, probe=True)
        patch.off()
        traced_s += sum(map(sum, host_scaled(run)))
        traced_raw += sum(map(sum, run.times))
        wall += run.elapsed
        differ += [2 * n] * len(run.differ)
        first_traced = first_traced or run.first
        if wall >= seconds:
            break
        run = run_rounds(workload, 0, rounds=1, want=want, probe=True)
        plain_s += sum(map(sum, host_scaled(run)))
        wall += run.elapsed
        differ += [2 * n + 1] * len(run.differ)
        n += 1
    correct, failed = verify(workload, plain.first, differ, 2 * n)
    summary = tr.summary(first_op=1)
    tr.save(path)
    scale = traced_s / traced_raw
    metrics = {}
    for metric, name, field, unit in PER_LAYER:
        value = summary.get(name, {}).get(field, 0) / n
        metrics[metric] = {"value": value * scale if unit == "s" else value, "unit": unit}
    metrics["search.tilings_yielded"] = {
        "value": tr.yielded.get("search.enumerate_tilings", 0) / n, "unit": "count"
    }
    fc = summary.get("search.find_complements", {}).get("calls", 0)
    metrics["search.tile_yield"] = {
        "value": tr.nonempty.get("search.find_complements", 0) / fc if fc else 0.0,
        "unit": "ratio",
    }
    metrics["reduce.trace_moves"] = {"value": 0, "unit": "count"}
    counts = getattr(workload, "counts", lambda outputs: {})
    for metric, value in counts(first_traced).items():
        metrics[metric] = {"value": value, "unit": "count"}
    metrics["trace.overhead_s"] = {"value": (traced_s - plain_s) / n, "unit": "s"}
    return {
        "correct": correct,
        "attempted": 2 * n * len(plain.first),
        "failed": failed,
        "metrics": metrics,
        "rounds": n,
        "spans": len(tr.start),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    factory = WORKLOADS.get(args.workload)
    if factory is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = factory(args.seed)
    workload.warm_up()
    setup_wall_s = process_age()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced(factory, args.seed, workload, args.seconds, OUT / f"{stem}.spans.npz")
    else:
        result = timed(workload, args.seconds)
        # Set-up is scaled like the op times, by the first probes of the timed
        # phase, which follow it within a second: in wall time one cold start
        # reads up to 1.5x slower in a slow spell of a shared host.
        near = statistics.median(r for _, r in result["probes"][:4])
        result["metrics"]["setup_s"] = {"value": setup_wall_s * PROBE_S / near, "unit": "s"}
        result["setup_wall_s"] = setup_wall_s
    extra = {k: result.pop(k) for k in ("rounds", "elapsed_s", "spans", "op_times", "probes", "setup_wall_s")
             if k in result}
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **extra}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
