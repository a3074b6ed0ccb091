"""Command-line driver.

Predicate commands follow the shell contract 0 = true, 1 = false, 2 = error;
reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, cyclo
from .io import FORMAT_VERSION, InstanceFile, instance_file_from, parse_instance, write_instance
from .multiset import Multiset
from .reduce import ShiftMove, classify, fiber_shift
from .search import EnumerationTask, enumerate_tilings, find_complements
from .tiling import verify_direct, verify_poly, verify_sands
from .zm import Modulus

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _read_file(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _err(code: str, message: str) -> int:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)
    return EXIT_ERROR


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_file(args.file).instance()
    direct = verify_direct(inst)
    poly = verify_poly(inst)
    sands = verify_sands(inst)
    agree = direct == poly == sands
    print(f"direct: {'yes' if direct else 'no'}")
    print(f"polynomial: {'yes' if poly else 'no'}")
    print(f"sands: {'yes' if sands else 'no'}")
    print(f"agreement: {'yes' if agree else 'no'}")
    print(f"tiling: {'yes' if direct else 'no'}")
    if not agree:
        return _err("verifier-disagreement", "the three verifiers disagree; library bug")
    return EXIT_TRUE if direct else EXIT_FALSE


def _load_side(args: argparse.Namespace) -> Multiset:
    data = _read_file(args.file)
    side = data.side(args.set)
    if side is None:
        raise ValueError(f"side {args.set!r} missing from {args.file}")
    return side


def cmd_spectrum(args: argparse.Namespace) -> int:
    side = _load_side(args)
    spec = cyclo.spectrum(side)
    for s in sorted(spec.divisors):
        mark = " *" if s in spec.prime_powers else ""
        print(f"{s}{mark}")
    return EXIT_TRUE


def cmd_t1(args: argparse.Namespace) -> int:
    ok = cyclo.t1_check(_load_side(args))
    print("t1: " + ("yes" if ok else "no"))
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_t2(args: argparse.Namespace) -> int:
    ok = cyclo.t2_check(_load_side(args))
    print("t2: " + ("yes" if ok else "no"))
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_standardize(args: argparse.Namespace) -> int:
    data = _read_file(args.file)
    b = data.side("b")
    if b is None:
        raise ValueError("standardize requires side b")
    flat = cyclo.standard_complement_of(b)
    out = instance_file_from(b.modulus, flat, b)
    _emit(write_instance(out), args.output)
    return EXIT_TRUE


def cmd_classify(args: argparse.Namespace) -> int:
    inst = _read_file(args.file).instance()
    report = classify(inst, budget=args.budget)
    payload = {
        "branch": report.branch,
        "swapped": report.swapped,
        "direction": report.direction,
        "structures": [
            {"kind": s.kind, "direction": s.direction,
             "witness": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in sorted(s.witness.items())}}
            for s in report.structures
        ],
        "trace": None
        if report.trace is None
        else {
            "moves": [
                {"direction": mv.direction, "root": mv.root, "target": mv.target}
                for mv in report.trace.moves
            ],
            "final_a": list(report.trace.final.a.elements()),
        },
        "t2_a": report.t2_a,
        "t2_b": report.t2_b,
        "standard_cross_check": report.standard_cross_check,
        "notes": list(report.notes),
        "budget": args.budget,
    }
    print(json.dumps(payload, separators=(", ", ": ")))
    return EXIT_TRUE if report.resolved else EXIT_FALSE


def cmd_shift(args: argparse.Namespace) -> int:
    data = _read_file(args.file)
    inst = data.instance()
    mod = inst.modulus
    nu = mod.index_of_prime(args.dir)
    shifted = fiber_shift(inst, ShiftMove(nu, args.root, args.to))
    out = instance_file_from(mod, shifted.a, shifted.b)
    _emit(write_instance(out), args.output)
    return EXIT_TRUE


def cmd_search(args: argparse.Namespace) -> int:
    data = _read_file(args.file)
    a = data.side("a")
    if a is None:
        raise ValueError("search requires side a")
    mod = a.modulus
    found = False
    for b in find_complements(a, mod):
        found = True
        out = instance_file_from(mod, a, Multiset.from_set(mod, b))
        sys.stdout.write(write_instance(out))
    return EXIT_TRUE if found else EXIT_FALSE


def cmd_enumerate(args: argparse.Namespace) -> int:
    mod = Modulus.of(args.m)
    task = EnumerationTask(mod, args.size)
    count = 0
    for inst in enumerate_tilings(task):
        count += 1
        out = instance_file_from(mod, inst.a, inst.b)
        sys.stdout.write(write_instance(out))
    print(f"count: {count}", file=sys.stderr)
    return EXIT_TRUE if count else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotile",
        description="Tilings of cyclic groups: verification, spectra, structure, classification.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cyclotile {__version__} (instance format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all three tiling verifiers on an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    for name, fn, doc in (
        ("spectrum", cmd_spectrum, "print cyclotomic divisors (prime powers starred)"),
        ("t1", cmd_t1, "check the size condition"),
        ("t2", cmd_t2, "check the joint cyclotomic condition"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("file")
        p.add_argument("--set", choices=("a", "b"), default="a")
        p.set_defaults(func=fn)

    p = sub.add_parser("standardize", help="emit the standard complement determined by side b")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("classify", help="run the classification pipeline")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("shift", help="apply one fiber shift")
    p.add_argument("file")
    p.add_argument("--dir", type=int, required=True, help="prime of the shift direction")
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("search", help="stream all complements of side a")
    p.add_argument("file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="stream all tilings of Z_m with |A| = size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _err("io", str(exc))
    except (ValueError, json.JSONDecodeError) as exc:
        return _err("invalid-input", str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
