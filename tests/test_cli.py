"""Command-line surface: exit codes, formats, determinism."""

from __future__ import annotations

import json

import pytest

from cyclotile.cli import main
from cyclotile.io import parse_instance, write_instance


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

    def test_shift_illegal_exit_two(self, flat225_file):
        assert main(["shift", flat225_file, "--dir", "3", "--root", "0", "--to", "1"]) == 2

    def test_search_streams(self, tmp_path, capsys):
        f = tmp_path / "a.json"
        f.write_text('{"m": 8, "a": [0, 1, 4, 5]}')
        assert main(["search", str(f)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert json.loads(lines[0])["b"] == [0, 2]

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
