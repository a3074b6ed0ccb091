"""Command-line surface: exit codes, formats, determinism."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from cyclotile.cli import main
from cyclotile.io import instance_file_from, parse_instance, write_instance
from cyclotile.multiset import Multiset
from cyclotile.tiling import TilingInstance, verify_direct
from cyclotile.zm import Modulus, factorize
from tests_helpers import (
    LAYERED_BRANCH,
    flat_tiling,
    grid_shifts,
    layered_tiling,
    shifted_instance,
)


@pytest.fixture()
def tile4(tmp_path):
    f = tmp_path / "t4.json"
    f.write_text('{"m": 4, "a": [0, 2], "b": [0, 1]}')
    return str(f)


@pytest.fixture()
def bad4(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"m": 4, "a": [0, 1], "b": [0, 1]}')
    return str(f)


@pytest.fixture()
def flat225_file(tmp_path):
    a = sorted(range(0, 225, 15))
    b = sorted((25 * i + 9 * j) % 225 for i in range(3) for j in range(5))
    f = tmp_path / "flat225.json"
    f.write_text(json.dumps({"m": 225, "a": a, "b": b}))
    return str(f)


class TestVerify:
    def test_tiling_exit_zero(self, tile4, capsys):
        assert main(["verify", tile4]) == 0
        out = capsys.readouterr().out
        assert "tiling: yes" in out and "agreement: yes" in out

    def test_non_tiling_exit_one(self, bad4):
        assert main(["verify", bad4]) == 1

    def test_malformed_exit_two(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("{invalid json")
        assert main(["verify", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self):
        assert main(["verify", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "m\n",
            '{"m":4,"a":[[1]],"b":[0]}',
            '{"m": [4], "a": [0], "b": [0,1,2,3]}',
            '{"m": 4, "weights_a": [5], "b": [0,1,2,3]}',
            '{"m": 4, "primes": [2], "a": [0], "b": [0,1,2,3]}',
            '{"m": 0, "weights_a": [[0,1]], "b": [0]}',
            '{"m":4,"a":[0,2.9],"b":[0,1]}',
            '{"m": 4.7, "a": [0,2], "b": [0,1]}',
            '{"m": 4, "a": ["0","2"], "b": [0,1]}',
            '{"m": 4, "a": [false, true], "b": [0,2]}',
            '{"m": 4, "primes": [[2, 2.0]], "a": [0,2], "b": [0,1]}',
            '{"m": 4, "primes": [[2305843009213693951, 1]], "a": [0,2], "b": [0,1]}',
            '{"m": 4, "weights_a": [[0, 1.5]], "b": [0,1,2,3]}',
            '{"m":2,"a":[0],"b":[0,1],"weights_a":[[0,99999999999999999999]]}',
            '{"m":2,"b":[0,1],"weights_a":[[0,9223372036854775807],[0,1]]}',
        ],
    )
    def test_malformed_instance_exit_two(self, tmp_path, capsys, text):
        f = tmp_path / "malformed.txt"
        f.write_text(text)
        assert main(["verify", str(f)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


class TestSpectrumAndConditions:
    def test_spectrum_marks_prime_powers(self, flat225_file, capsys):
        assert main(["spectrum", flat225_file, "--set", "a"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "9 *" in out and "225" in out

    def test_t1_t2_exit_codes(self, flat225_file):
        assert main(["t1", flat225_file]) == 0
        assert main(["t2", flat225_file]) == 0

    def test_t2_failure_exit_one(self, tmp_path):
        from conftest import T2_FAILING_225

        f = tmp_path / "t2bad.json"
        f.write_text(json.dumps({"m": 225, "a": sorted(T2_FAILING_225)}))
        assert main(["t2", str(f)]) == 1
        assert main(["t1", str(f)]) == 0


class TestStandardize:
    def test_emits_a_flat(self, flat225_file, capsys):
        assert main(["standardize", flat225_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == sorted(range(0, 225, 15))

    def test_round_trip_canonical(self, flat225_file, capsys, tmp_path):
        out = tmp_path / "std.json"
        assert main(["standardize", flat225_file, "-o", str(out)]) == 0
        text = out.read_text()
        assert write_instance(parse_instance(text)) == text


class TestShiftAndSearch:
    def test_shift_applies(self, flat225_file, capsys):
        assert main(["shift", flat225_file, "--dir", "3", "--root", "0", "--to", "25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 25 in payload["a"] and 0 not in payload["a"]

    @pytest.mark.parametrize(
        "prime, least, other",
        # roots and targets each moved to another point of their fiber
        [(3, (0, 25), (150, 100)), (5, (0, 9), (180, 54))],
    )
    def test_shift_non_least_root_same_file(self, flat225_file, tmp_path, prime, least, other):
        outs = []
        for i, (root, to) in enumerate((least, other)):
            out = tmp_path / f"out{i}.json"
            argv = ["shift", flat225_file, "--dir", str(prime), "--root", str(root), "--to", str(to)]
            assert main(argv + ["-o", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_shift_illegal_exit_two(self, flat225_file):
        assert main(["shift", flat225_file, "--dir", "3", "--root", "0", "--to", "1"]) == 2

    def test_search_streams(self, tmp_path, capsys):
        f = tmp_path / "a.json"
        f.write_text('{"m": 8, "a": [0, 1, 4, 5]}')
        assert main(["search", str(f)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert json.loads(lines[0])["b"] == [0, 2]

    def test_search_deep_complement(self, tmp_path, capsys):
        f = tmp_path / "a.json"
        f.write_text('{"m": 2000, "a": [0]}')
        assert main(["search", str(f)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["b"] == list(range(2000))

    def test_search_no_complement(self, tmp_path):
        f = tmp_path / "a.json"
        f.write_text('{"m": 4, "a": [0, 1, 2]}')
        assert main(["search", str(f)]) == 1

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--m", "4", "--size", "2"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 3  # {0,1}x{0,2}, {0,2}x{0,1}, {0,2}x{0,3}
        assert "count: 3" in captured.err


class TestClassifyCommand:
    def test_generic_two_prime(self, flat225_file, capsys):
        code = main(["classify", flat225_file])
        payload = json.loads(capsys.readouterr().out)
        assert payload["branch"] == "generic"
        assert payload["t2_a"] is True and payload["t2_b"] is True
        assert code == 1  # generic is not a resolved branch

    @pytest.mark.parametrize("case", sorted(LAYERED_BRANCH), ids=str)
    def test_layered_tiling_branch(self, tmp_path, capsys, case):
        mod = Modulus.of(11025)
        a, b = layered_tiling(mod, 1, case[0], seed=5)
        f = tmp_path / "layered.json"
        f.write_text(write_instance(instance_file_from(mod, *((b, a) if case[1] else (a, b)))))
        assert main(["classify", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["branch"] == LAYERED_BRANCH[case][0]

    def test_budget_exhausted_unresolved(self, tmp_path, capsys, flat11025):
        t = shifted_instance(flat11025, 2, seed=3)
        f = tmp_path / "shifted.json"
        f.write_text(write_instance(instance_file_from(t.modulus, t.a, t.b)))
        assert main(["classify", str(f), "--budget", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["branch"] == "unresolved"

    def test_deterministic_output(self, flat225_file, capsys):
        main(["classify", flat225_file])
        one = capsys.readouterr().out
        main(["classify", flat225_file])
        two = capsys.readouterr().out
        assert one == two


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cyclotile" in capsys.readouterr().out


_scalars = st.one_of(
    st.integers(-3, 20),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=10)
_weights = st.one_of(st.integers(-2, 2), st.integers(-(2**64), 2**64))


@st.composite
def _instances(draw):
    """A JSON object whose fields are each valid for m, junk, or absent."""
    m = draw(st.integers(1, 16))
    side = st.sets(st.integers(0, m - 1)).map(sorted)
    pairs = st.lists(st.tuples(st.integers(-1, m), _weights).map(list), max_size=5)
    primes = st.just([[p, n] for p, n in factorize(m)] if m > 1 else [])
    fields = {
        "m": (st.just(m), ("valid", "valid", "valid", "junk")),
        "a": (side, ("valid", "valid", "junk", "absent")),
        "b": (side, ("valid", "valid", "junk", "absent")),
        "weights_a": (pairs, ("valid", "junk", "absent", "absent")),
        "weights_b": (pairs, ("valid", "junk", "absent", "absent")),
        "primes": (primes, ("valid", "junk", "absent", "absent")),
    }
    obj = {}
    for key, (valid, kinds) in fields.items():
        kind = draw(st.sampled_from(kinds))
        if kind != "absent":
            obj[key] = draw(valid if kind == "valid" else _values)
    if draw(st.booleans()):
        # a genuine tiling {0, ..., d-1} (+) d*Z_m, so commands get past verification
        d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        obj.update(a=list(range(d)), b=list(range(0, m, d)))
    return obj


def _line_form(obj: dict) -> str:
    """The m, a and b fields of an instance object as a line-format file; a
    junk value is written out token by token, as a hand edit might leave it."""
    lines = []
    for key in ("m", "a", "b"):
        if key in obj:
            tokens = obj[key] if isinstance(obj[key], list) else [obj[key]]
            words = (t if isinstance(t, str) else json.dumps(t) for t in tokens)
            lines.append(" ".join([key, *words]))
    return "\n".join(lines) + "\n"


_shift_args = st.lists(
    st.one_of(st.integers(0, 5), st.integers(-3, 40), st.integers(-(2**80), 2**80)),
    min_size=3,
    max_size=3,
)


class TestFuzz:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "instance.json"

    @settings(max_examples=300, deadline=None)
    @given(
        obj=_instances(),
        lines=st.booleans(),
        command=st.sampled_from(
            ["verify", "t1", "spectrum", "search", "classify", "standardize", "shift"]
        ),
        shift=_shift_args,
    )
    def test_exit_code_contract(self, path, obj, lines, command, shift):
        path.write_text(_line_form(obj) if lines else json.dumps(obj))
        argv = [command, str(path)]
        if command == "shift":
            argv += [f"--{flag}={v}" for flag, v in zip(("dir", "root", "to"), shift)]
        assert main(argv) in (0, 1, 2)


_M11025 = Modulus.of(11025)
_FLAT11025 = flat_tiling(_M11025)


@st.composite
def _pipeline_instances(draw):
    """(A, B) point lists on Z_11025 from a construction that reaches the
    classify pipeline, sides in either order, with one point of A perhaps
    dropped or moved."""
    mod, seed = _M11025, draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["shifted", "grid-shifts", "layered"]))
    if kind == "layered":
        a, b = layered_tiling(mod, draw(st.integers(0, 2)), draw(st.booleans()), seed)
    else:
        if kind == "shifted":
            t = shifted_instance(_FLAT11025, draw(st.integers(0, 4)), seed)
        else:
            t = grid_shifts(_FLAT11025, draw(st.lists(st.integers(0, 2), max_size=2)), seed)
        a, b = t.a, t.b
    if draw(st.booleans()):
        a, b = b, a
    pts = set(a.elements())
    edit = draw(st.sampled_from(["keep", "keep", "drop", "move"]))
    if edit != "keep":
        x = draw(st.sampled_from(sorted(pts)))
        pts.discard(x)
        if edit == "move":
            pts.add((x + draw(st.integers(1, mod.m - 1))) % mod.m)
    return sorted(pts), list(b.elements())


@st.composite
def _shift_flags(draw, a):
    """`shift` arguments: a prime of 11025 or junk, a point of A or any
    integer, and a target at a multiple of M/p^2 from the root or anywhere."""
    prime = draw(st.sampled_from([3, 5, 7, 3, 5, 7, 2, 0, -3]))
    root = draw(st.one_of(st.sampled_from(a), st.integers(-(2**70), 2**70)))
    p = prime if prime in (3, 5, 7) else 3
    to = draw(
        st.one_of(
            st.integers(1, p * p - 1).map(lambda u: root + u * (11025 // p**2)),
            st.integers(-50_000, 50_000),
        )
    )
    return [f"--dir={prime}", f"--root={root}", f"--to={to}"]


class TestPipelineFuzz:
    """The 0/1/2 contract on Z_11025 inputs that reach the classify branches
    and fiber shifts; 0 only on a tiling."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("pipeline") / "instance.json"

    @settings(max_examples=40, deadline=None)
    @given(sides=_pipeline_instances(), budget=st.integers(1, 50), data=st.data())
    def test_exit_code_contract(self, path, sides, budget, data):
        a, b = sides
        mod = _M11025
        path.write_text(
            write_instance(
                instance_file_from(mod, Multiset.from_set(mod, a), Multiset.from_set(mod, b))
            )
        )
        tiles = verify_direct(TilingInstance.from_sets(mod, a, b))
        for argv in (
            ["classify", str(path), f"--budget={budget}"],
            ["shift", str(path), *data.draw(_shift_flags(a))],
        ):
            code = main(argv)
            assert code in (0, 1, 2), argv
            assert tiles or code != 0, argv
