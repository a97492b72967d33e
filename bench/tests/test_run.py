"""run.py's exit status and result line when the program is broken or absent.

Each test copies the benchmark into a temporary directory, next to a fake
groupcut package or none at all, and runs it there as a user would.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RAISING_GROUPCUT = '''
def build_minimal_function_polytope(q, f):
    return (q, f)


def remove_redundant(poly):
    raise ArithmeticError("fault planted by the benchmark's tests")


def enumerate_vertices(poly):
    return []
'''


@pytest.fixture
def checkout(tmp_path):
    shutil.copytree(_BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tests", "traces",
                                                  "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(_BENCH), "BENCHMARK.json"),
                tmp_path)
    return tmp_path


def _run(root):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)


def test_operation_that_always_raises_makes_the_run_incorrect(checkout):
    package = checkout / "src" / "groupcut"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(_RAISING_GROUPCUT)
    proc = _run(checkout)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert "ArithmeticError" in proc.stderr
    assert "no output was checked" in proc.stderr


def test_without_sources_the_run_fails_and_prints_no_result(checkout):
    proc = _run(checkout)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
