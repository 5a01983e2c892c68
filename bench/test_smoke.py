"""Smoke test of the benchmark: every workload and the traced run, tiny sizes.

    python3 -m pytest bench/test_smoke.py

Asserts that every output check passes and that each run reports exactly
the metrics BENCHMARK.json declares.  There is no wall-clock bound: on a
few shared cores timing is too noisy to assert on.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from miscover import complexity_table, minimal_cover  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_every_check(workload, trace):
    p = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    details, result = (json.loads(line) for line in p.stdout.strip().splitlines()[-2:])
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(details["env"]) == {"seed", "commit", "cores", "python", "numpy"}


def test_checks_catch_changed_outputs():
    table = complexity_table(1_000)
    assert wl.check_table(table, 1_000) is None
    table.choice[500] += 1
    assert "choice digest" in wl.check_table(table, 1_000)

    cover = minimal_cover(100)
    assert wl.check_minimal_cover(cover, 100) is None
    reordered = wl.SeparatingCover(100, cover.sets[::-1])
    assert "digest" in wl.check_minimal_cover(reordered, 100)


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark gives no result and status != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench("--workload", "mis-sparse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
