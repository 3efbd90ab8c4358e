import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bairekit
from bairekit.cli import main, parse_spec, validate_config
from bairekit.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChi:
    def test_empty_eight_bits(self, capsys):
        code, out, _ = run(capsys, "chi", "--language", "empty", "--bits", "8")
        assert code == 0
        assert out == "00000000\n"

    def test_parity(self, capsys):
        code, out, _ = run(capsys, "chi", "--language", "parity", "--bits", "3")
        assert (code, out) == (0, "001\n")

    def test_sparse_language_spec(self, capsys):
        code, out, _ = run(
            capsys, "chi", "--language", "sparse:coeffs=1,1:seed=3", "--bits", "32"
        )
        assert code == 0
        assert set(out.strip()) <= {"0", "1"}

    def test_explicit_language_from_file(self, capsys, tmp_path):
        path = tmp_path / "lang.txt"
        path.write_text("0111\n")
        code, out, _ = run(
            capsys, "chi", "--language", f"explicit:file={path}", "--bits", "6"
        )
        assert (code, out) == (0, "011100\n")


class TestCheck:
    def test_sparse_meets_full(self, capsys):
        code, out, _ = run(
            capsys, "check", "--strategy", "sparse", "--language", "full", "--horizon", "8"
        )
        assert code == 0
        assert out.startswith("Met")

    def test_singleton_avoids_its_language(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--strategy",
            "singleton:language=empty",
            "--language",
            "empty",
            "--horizon",
            "16",
        )
        assert code == 0
        assert out.strip() == "NotMetUpTo 16"

    def test_unknown_strategy_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "check", "--strategy", "bogus", "--language", "full", "--horizon", "8"
        )
        assert code == 2
        assert "bogus" in err


class TestStrategySubcommand:
    def test_extension_and_meter(self, capsys):
        code, out, _ = run(
            capsys, "strategy", "--strategy", "sparse", "--prefix", "0110", "--bound", "poly:2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "extension 1111"
        assert lines[1].startswith("meter ")


class TestExitCodes:
    def test_scale_guard_maps_to_exit_one(self, capsys):
        code, _, err = run(
            capsys, "strategy", "--strategy", "size-diag", "--prefix", "0" * 300
        )
        assert code == 1
        assert "exceeds caps" in err


class TestGame:
    def test_transcript_schema_and_determinism(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run(
                capsys,
                "game",
                "--family",
                "singletons",
                "--adversary",
                "seeded",
                "--horizon",
                "64",
                "--out",
                str(out_dir),
            )
            assert code == 0
        ta = (out_a / "transcript.jsonl").read_bytes()
        tb = (out_b / "transcript.jsonl").read_bytes()
        assert ta == tb
        ra = (out_a / "result_prefix.txt").read_bytes()
        assert ra == (out_b / "result_prefix.txt").read_bytes()
        first = json.loads(ta.splitlines()[0])
        assert list(first) == ["move_index", "player", "state_length", "extension_length"]


class TestDiag:
    def test_global_meets_suite(self, capsys):
        code, out, _ = run(
            capsys, "diag", "--family", "ones", "--mode", "global", "--bits", "32", "--meets", "4"
        )
        assert code == 0
        assert "per-string-agrees True" in out
        assert out.count("True") >= 5

    def test_local_mode(self, capsys):
        code, out, _ = run(
            capsys, "diag", "--family", "sparse", "--mode", "local", "--meets", "4"
        )
        assert code == 0
        assert "per-string-agrees True" in out


class TestCircuitDiag:
    def test_halving_lines_and_exit(self, capsys):
        code, out, _ = run(
            capsys, "circuit-diag", "--n", "2", "--size", "2", "--sigma", "0110", "--bits", "8"
        )
        assert code == 0
        assert "halving PASS" in out
        assert out.count("before=") == 8


class TestMartingale:
    def test_csv_row_count(self, capsys, tmp_path):
        horizon = 12
        code, out, _ = run(
            capsys,
            "martingale",
            "--language",
            "empty",
            "--horizon",
            str(horizon),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "capital_trace.csv").read_text().splitlines()
        assert len(rows) == horizon + 1
        assert rows[0] == "0,,,1,1"

    def test_determinism(self, capsys, tmp_path):
        for sub in ("x", "y"):
            run(
                capsys,
                "martingale",
                "--language",
                "sparse:coeffs=2:seed=5",
                "--horizon",
                "40",
                "--out",
                str(tmp_path / sub),
            )
        assert (tmp_path / "x" / "capital_trace.csv").read_bytes() == (
            tmp_path / "y" / "capital_trace.csv"
        ).read_bytes()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        for suite in ("roundtrip", "halving", "fairness", "union", "queryset"):
            assert f"{suite} PASS" in out

    def test_broken_fixture_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fairness", "--fixture", "broken")
        assert code == 1  # property FAIL exit code
        assert "fairness FAIL" in out

    def test_halving_suite_flags(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "halving", "--n", "2", "--size", "3", "--bits", "10"
        )
        assert code == 0


class TestConfig:
    def test_config_drives_command(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "chi", "language": "full", "bits": 5}))
        code, out, _ = run(capsys, "--config", str(cfg))
        assert (code, out) == (0, "11111\n")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "chi", "language": "full", "bits": 5}))
        code, out, _ = run(capsys, "--config", str(cfg), "chi", "--bits", "3")
        assert (code, out) == (0, "111\n")

    def test_validate_clean(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "check", "strategy": "sparse", "language": "full"}))
        code, out, _ = run(capsys, "--config", str(cfg), "validate")
        assert (code, out) == (0, "ok\n")

    def test_validate_reports_unknown_names(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"command": "check", "strategy": "wat", "language": "full"})
        )
        code, out, _ = run(capsys, "--config", str(cfg), "validate")
        assert code == 2
        assert "wat" in out

    def test_validate_flags_scale_guard(self):
        diags = validate_config({"command": "circuit-diag", "n": 10, "size": 3})
        assert any("outside circuit cap" in d for d in diags)

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent.json", "chi")
        assert code == 2
        assert "cannot read config" in err

    def test_bad_config_values_block_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "chi", "bits": -3}))
        code, _, err = run(capsys, "--config", str(cfg))
        assert code == 2

    def test_command_line_config_is_validated(self, tmp_path):
        # main() with no argv reads sys.argv, as `python -m bairekit.cli` does
        src = str(Path(bairekit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)

        def cli(cfg):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            return subprocess.run(
                [sys.executable, "-m", "bairekit.cli", "--config", str(path)],
                capture_output=True, text=True, env=env, timeout=60,
            )

        bad = cli({"command": "chi", "bits": 0})
        assert (bad.returncode, bad.stdout) == (2, "")
        assert "bits must be a positive integer" in bad.stderr
        good = cli({"command": "chi", "language": "parity", "bits": 3})
        assert (good.returncode, good.stdout, good.stderr) == (0, "001\n", "")


def test_parse_spec():
    assert parse_spec("sparse") == ("sparse", {})
    assert parse_spec("sparse:coeffs=1,1:seed=3") == (
        "sparse",
        {"coeffs": "1,1", "seed": "3"},
    )
    with pytest.raises(ConfigError):
        parse_spec("sparse:broken")
