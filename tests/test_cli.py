import json
import os
import subprocess
import sys

import pytest

from groupcut.cli import run
from groupcut.grid_functions import gmic, load_function, save_function
from groupcut.mip import parse_lp
from groupcut.rationals import Q


def _save_gmic(tmp_path, q=5, f=3):
    path = tmp_path / ("gmic_q%d.fn" % q)
    save_function(gmic(q, f), str(path))
    return str(path)


def test_vertices_listing(capsys):
    assert run(["vertices", "--q", "11", "--f", "1/11"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 18
    assert "18 vertices" in err
    # each line is a full value row starting at the origin
    assert all(line.startswith("0 ") for line in lines)


def test_vertices_triple_system(capsys):
    assert run(["vertices", "--q", "5", "--f", "3/5", "--triple-system"]) == 0
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 2


def test_extremality_report(tmp_path, capsys):
    path = _save_gmic(tmp_path)
    assert run(["test", "--file", path, "--oversampling", "3"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == [
        "extreme: true",
        "minimal: true",
        "vertex: true",
        "covered: true",
        "oversampling m=3: true",
    ]


def test_extremality_report_uncovered(tmp_path, capsys):
    from groupcut.grid_functions import GridFunction
    fn = GridFunction(5, 1, [Q(0), Q(1), Q(1, 3), Q(1, 2), Q(2, 3)])
    path = tmp_path / "vertex.fn"
    save_function(fn, str(path))
    assert run(["test", "--file", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "extreme: false" in out
    assert "uncovered: 2 3" in out


def test_search_modes_and_worker_invariance(capsys):
    argv = ["search", "--mode", "combined", "--q", "7", "--f", "2/7",
            "--slopes", "2", "--threshold", "4"]
    outputs = []
    for workers in ("1", "2"):
        assert run(argv + ["--workers", workers]) == 0
        out, err = capsys.readouterr()
        outputs.append(out)
        assert err  # stats go to stderr
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3


def test_search_heuristic_prints_paintings(capsys):
    assert run(["search", "--mode", "heuristic", "--q", "5",
                "--f", "2/5", "--slopes", "2"]) == 0
    out, _ = capsys.readouterr()
    blocks = out.rstrip("\n").split("\n\n")
    assert len(blocks) == 2
    assert all(" green" in block or " white" in block for block in blocks)


def test_search_vertex_filter(capsys):
    assert run(["search", "--mode", "vertex-filter", "--q", "7",
                "--f", "1/7", "--slopes", "2"]) == 0
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 2


def test_search_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert run(["search", "--mode", "vertex-filter", "--q", "7", "--f", "1/7",
                "--slopes", "2", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(out_dir))
    assert files == ["fn_0000.fn", "fn_0001.fn", "index.jsonl"]
    rows = [json.loads(line)
            for line in (out_dir / "index.jsonl").read_text().splitlines()]
    assert [r["file"] for r in rows] == ["fn_0000.fn", "fn_0001.fn"]
    assert all(r["q"] == 7 and r["f_index"] == 1 for r in rows)
    assert load_function(str(out_dir / "fn_0000.fn")).q == 7


def test_pattern_command(capsys):
    assert run(["pattern", "--r", "1", "--slopes", "6"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2
    assert "2 functions at q=58" in err


def test_emit_mip_and_refind(tmp_path, capsys):
    assert run(["emit-mip", "--q", "5", "--f", "3/5", "--slopes", "2",
                "--m", "12", "--out", str(tmp_path)]) == 0
    out, _ = capsys.readouterr()
    path = out.strip()
    assert path.endswith("2slope_q5_f3_m12.lp")
    model = parse_lp(path)
    assert model.q == 5

    sol = tmp_path / "sol.txt"
    fn = gmic(5, 3)
    sol.write_text("".join("pi_%d %s\n" % (x, fn.values[x]) for x in range(5)))
    assert run(["refind", "--sol", str(sol), "--q", "5", "--f", "3/5"]) == 0
    out, _ = capsys.readouterr()
    data = json.loads(out)
    assert data["q"] == 5
    assert data["values"][1] == "1/3"


def test_emit_mip_2q_filename(tmp_path, capsys):
    assert run(["emit-mip-2q", "--q", "37", "--f", "25/37", "--a", "11/37",
                "--slopes", "4", "--maxstep", "1", "--m", "4",
                "--out", str(tmp_path)]) == 0
    out, _ = capsys.readouterr()
    assert out.strip().endswith("mip_q37_f25_a11_4slope_1maxstep_m4.lp")


def test_plot_command(tmp_path, capsys):
    fn_path = _save_gmic(tmp_path)
    svg_path = tmp_path / "plot.svg"
    assert run(["plot", "--file", fn_path, "--out", str(svg_path)]) == 0
    capsys.readouterr()
    assert svg_path.read_text().startswith("<svg")


def test_bounds_report(capsys):
    assert run(["bounds", "--q", "11", "--f", "3/11", "--samples", "50"]) == 0
    out, _ = capsys.readouterr()
    rows = [json.loads(line) for line in out.splitlines()]
    stats = {r["statistic"]: r["value"] for r in rows}
    assert stats["basis_determinant"] == 32
    assert stats["bound_violations"] == 0
    assert all(r["q"] == 11 and r["f_index"] == 3 for r in rows)


def test_bounds_all_f(capsys):
    assert run(["bounds", "--q", "5", "--samples", "10"]) == 0
    out, _ = capsys.readouterr()
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["f_index"] for r in rows} == {1, 2, 3, 4}


def test_exit_codes(tmp_path, capsys):
    assert run(["test", "--file", str(tmp_path / "missing.fn")]) == 2
    _, err = capsys.readouterr()
    assert "i/o error" in err

    assert run(["vertices", "--q", "11", "--f", "1/7"]) == 1
    _, err = capsys.readouterr()
    assert "error: f = 1/7 is not a multiple of 1/11" in err

    assert run(["search", "--mode", "sideways", "--q", "5", "--f", "1/5",
                "--slopes", "2"]) == 1
    capsys.readouterr()

    assert run(["no-such-command"]) == 1
    capsys.readouterr()

    assert run(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "search" in out


def test_tripped_simplex_guard_exits_1(monkeypatch, capsys):
    import groupcut.simplex
    monkeypatch.setattr(groupcut.simplex, "_pivot_guard", lambda *_: 0)
    assert run(["search", "--mode", "combined", "--q", "7", "--f", "2/7",
                "--slopes", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dual simplex cycling guard tripped\n"


def test_epsilon_flags_conflict(capsys):
    assert run(["search", "--mode", "combined", "--q", "5", "--f", "2/5",
                "--slopes", "2", "--epsilon", "1/8", "--exact"]) == 1
    capsys.readouterr()


def test_console_script_wiring():
    proc = subprocess.run([sys.executable, "-m", "groupcut",
                           "vertices", "--q", "5", "--f", "1/5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 2
