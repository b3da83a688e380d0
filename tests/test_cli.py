"""End-to-end command-line behavior: output goldens and exit codes."""

import io
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest

import partycover
import partycover.cli as cli
from partycover import lab
from partycover.cover import InternalInconsistencyError
from partycover.extremal import build_sharp_example
from partycover.graphs import all_blue, all_red, random_coloring, serialize
from partycover.lab import scan


@pytest.fixture
def sharp8_file(tmp_path):
    path = tmp_path / "sharp8.txt"
    path.write_text(serialize(build_sharp_example(8)))
    return str(path)


def test_solve_golden(sharp8_file, capsys):
    assert cli.main(["solve", sharp8_file]) == 0
    assert capsys.readouterr().out == "A 2: 0 3 5 7\nB 2: 1 2 4 6\n"


def test_solve_verify_and_certificate(sharp8_file, capsys):
    assert cli.main(["solve", sharp8_file, "--verify", "--certificate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("A 2: 0 3 5 7\nB 2: 1 2 4 6\n")
    assert "certificate: two-stars-2" in out
    assert "(0, 1)" in out
    assert out.rstrip().endswith("verify: ok")


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(all_red(4))))
    assert cli.main(["solve"]) == 0
    assert capsys.readouterr().out == "A 1: 0 1 2 3\nB 1:\n"


def test_solve_compact_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("8:1b5310\n"))
    assert cli.main(["solve", "-", "--certificate", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "certificate: lemma-c5plus" in out
    assert "verify: ok" in out


def test_gen_compact_forms(capsys):
    assert cli.main(["gen", "--all-red", "4", "--compact"]) == 0
    assert capsys.readouterr().out == "4:f\n"
    assert cli.main(["gen", "--sharp", "4", "--compact"]) == 0
    assert capsys.readouterr().out == "4:9\n"


@pytest.mark.parametrize("argv", [["--all-red", "5", "--compact"],
                                  ["--all-red", "1"]])
def test_gen_bad_order_is_usage_error(argv, capsys):
    assert cli.main(["gen", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: n must be even and >= 2, got {argv[1]}\n"


def test_gen_random_matches_library(capsys):
    assert cli.main(["gen", "--random", "6", "3"]) == 0
    assert capsys.readouterr().out == serialize(random_coloring(6, 3))


def test_gen_then_solve_roundtrip(tmp_path, capsys):
    assert cli.main(["gen", "--sharp", "6"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert cli.main(["solve", str(path), "--verify"]) == 0
    assert "verify: ok" in capsys.readouterr().out


def test_maxreach_oracle_agrees(sharp8_file, capsys):
    assert cli.main(["maxreach", sharp8_file, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "color 1: max 2-reachable size 4, witness 0 2 4 6" in out
    assert "color 2: max 2-reachable size 4, witness 0 2 4 6" in out
    assert out.count("agrees") == 2


def test_maxreach_single_color(sharp8_file, capsys):
    assert cli.main(["maxreach", sharp8_file, "--color", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("color") == 1 and "color 2" not in out


def test_maxreach_sharp_64(tmp_path, capsys):
    """At n = 64 the auxiliary rows fill a whole 64-bit word."""
    assert cli.main(["gen", "--sharp", "64"]) == 0
    path = tmp_path / "sharp64.txt"
    path.write_text(capsys.readouterr().out)
    assert cli.main(["maxreach", str(path)]) == 0
    evens = " ".join(str(v) for v in range(0, 64, 2))
    assert capsys.readouterr().out == "".join(
        f"color {c}: max 2-reachable size 32, witness {evens}\n" for c in (1, 2))


def test_maxreach_oracle_bound_is_usage_error(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(serialize(build_sharp_example(18)))
    assert cli.main(["maxreach", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["maxreach", str(path), "--oracle"]) == 2
    assert "brute-force bound" in capsys.readouterr().err


def test_scan_stdout_and_machine_out(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    assert cli.main(["scan", "--n", "4", "--out", str(out_file)]) == 0
    human = capsys.readouterr().out
    assert "result=ok" in human
    assert out_file.read_text() == scan(4).machine_text()


def test_scan_random_mode_and_seed_prefix(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(["scan", "--n", "6", "--mode", "random:10:3",
                     "--out", str(a)]) == 0
    assert cli.main(["scan", "--n", "6", "--mode", "random:10:seed3",
                     "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()
    assert "samples=10\nseed=3\n" in a.read_text()


@pytest.mark.parametrize("mode", [
    "random:10", "random:x:1", "sweep", "random:5:s33d",
    # SAMPLES and SEED are ASCII decimal digits only
    "random:1_0:seed3", "random:10:seed+3", "random:+10:3", "random:10:-3",
    "random:١٠:3", "random:10: 3"])
def test_scan_bad_mode_is_usage_error(mode, capsys):
    assert cli.main(["scan", "--n", "4", "--mode", mode]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "+4"], ["scan", "--n", "٤"], ["scan", "--n", "0_4"],
    ["scan", "--n", "4", "--workers", "+1"], ["gen", "--sharp", "+4"],
    ["gen", "--sharp", "٤"], ["gen", "--random", "4", "+3"],
    ["gen", "--random", "4", "-3"], ["gen", "--all-red", "4_0"]],
    ids=" ".join)
def test_integer_options_are_ascii_decimal(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_scan_workers_above_the_bound_is_usage_error(monkeypatch, capsys):
    def no_processes(*args):
        raise AssertionError("scan started a process")

    monkeypatch.setattr(lab.multiprocessing, "get_context", no_processes)
    assert cli.main(["scan", "--n", "6", "--workers", "100000"]) == 2
    assert "SCAN_MAX_WORKERS=64" in capsys.readouterr().err


def test_scan_bad_n_is_usage_error(capsys):
    assert cli.main(["scan", "--n", "5"]) == 2
    assert "even" in capsys.readouterr().err


def test_verify_ok_and_tampered(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize(all_red(4)))
    cpath = tmp_path / "c.txt"
    cpath.write_text("A 1: 0 1 2 3\nB 1:\n")
    assert cli.main(["verify", str(gpath), str(cpath)]) == 0
    assert capsys.readouterr().out == "ok\n"
    cpath.write_text("A 1: 0 1 2\nB 1:\n")
    assert cli.main(["verify", str(gpath), str(cpath)]) == 1
    assert capsys.readouterr().out == "invalid: not a cover\n"


def test_verify_diam2_flag(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize(all_blue(4)))
    cpath = tmp_path / "c.txt"
    cpath.write_text("A 2: 0 1\nB 2: 2 3\n")
    assert cli.main(["verify", str(gpath), str(cpath)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(gpath), str(cpath), "--diam2"]) == 1
    assert capsys.readouterr().out == "invalid: A not diameter-2\n"


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4\n0 2 1\n")
    assert cli.main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_inconsistency_exits_1(sharp8_file, monkeypatch, capsys):
    def boom(g):
        raise InternalInconsistencyError("assertion failed", g)
    monkeypatch.setattr(cli, "solve", boom)
    assert cli.main(["solve", sharp8_file]) == 1
    err = capsys.readouterr().err
    assert "internal inconsistency" in err and "8:" in err


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
GEN_SHARP4 = ["gen", "--sharp", "4", "--compact"]


def _assert_prints_sharp4(argv, env=None):
    proc = subprocess.run(argv + GEN_SHARP4, capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4:9\n", proc.stderr


def test_installed_entry_point():
    # the declared console script is cli.main ...
    scripts = PYPROJECT.read_text().split("[project.scripts]", 1)[1]
    scripts = re.split(r"^\[", scripts, maxsplit=1, flags=re.M)[0]
    assert re.search(r'^partycover\s*=\s*"partycover\.cli:main"\s*$',
                     scripts, flags=re.M), scripts
    for entry in entry_points(group="console_scripts", name="partycover"):
        assert entry.value == "partycover.cli:main"

    # ... which runs as a separate process without installing anything ...
    package_root = str(Path(partycover.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    _assert_prints_sharp4([sys.executable, "-m", "partycover"], env=env)

    # ... and, where it is installed, as the console script itself
    script = shutil.which("partycover")
    if script is not None:
        _assert_prints_sharp4([script])
