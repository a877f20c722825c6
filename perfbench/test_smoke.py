"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs for one pass (two when traced) on an 8x8 grid, short
streams and two netlists.  The test checks that every metric BENCHMARK.json
names is printed with its unit, that a rerun with the same seed digests to
the same outputs, that a tampered switch matrix counts as a failure, and
that the benchmark refuses to run without the spinsc sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_tiny(capsys, workload: str, trace: int) -> tuple[list[str], dict, dict]:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed5-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return lines, json.loads(lines[-1]), record


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_printed_with_its_unit(capsys, workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result, record = run_tiny(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, record["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        named = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == named
        assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                   for v in result["metrics"].values())
        if trace == 0:
            for name, unit in named.items():
                assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines), name
        digests.append(record["digest"])
    # The traced and the untraced run share the seed, so their outputs match.
    assert digests[0] == digests[1]


class TamperedMatrix(workloads.NetlistAlloc):
    """The allocate CLI receives a switch matrix whose first column is driven
    by every generator row, as a broken allocator might produce."""

    def setup(self, sp, workdir):
        state = super().setup(sp, workdir)
        allocate = sp.allocator.allocate

        def tampered(*args, **kwargs):
            matrix = allocate(*args, **kwargs)
            control = matrix.control.copy()
            control[:, 0] = 1
            return replace(matrix, control=control)

        sp.allocator.allocate = tampered
        return state


def test_tampered_switch_matrix_counts_as_failure():
    record = run.measure(TamperedMatrix(5, tiny=True), 0.01, False, ROOT)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert any("verify_allocation" in p for p in record["problems"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
