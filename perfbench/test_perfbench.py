"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run

run.load_signsym()

import signsym  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def scratch_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def run_main(workload: str, trace: int, seed: int = 3) -> int:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return run.main(argv, sizes=workloads.TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section, capsys):
    assert run_main(workload, trace) == 0
    result = last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tracing_restores_the_library():
    originals = (signsym.rho, signsym.cli.rho, signsym.scan.fmaj_pair_counts, signsym.cli.json)
    run.run_workload("straighten", 1, 0, True, workloads.TINY)
    assert (signsym.rho, signsym.cli.rho, signsym.scan.fmaj_pair_counts, signsym.cli.json) == originals


def test_tampered_reference_digest_is_rejected():
    clean = run.run_workload("verify", 5, 0, False, workloads.TINY)
    digests = clean["digest"]["ops"]
    accepted = run.run_workload("verify", 5, 0, False, workloads.TINY, expected=digests)
    assert accepted["correct"] and accepted["digest"]["reference"] == "match"

    tampered = list(digests)
    tampered[2] = "0" * len(tampered[2])
    rejected = run.run_workload("verify", 5, 0, False, workloads.TINY, expected=tampered)
    assert not rejected["correct"]
    assert rejected["failed"] == 1
    assert rejected["digest"]["reference"] == "mismatch"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced_outputs(workload, capsys):
    assert run_main(workload, 0) == 0
    untraced = json.loads((run.OUT / f"{workload}-seed3-trace0.json").read_text())
    assert run_main(workload, 1) == 0
    traced = json.loads((run.OUT / f"{workload}-seed3-trace1.json").read_text())
    assert traced["digest"]["ops"] == untraced["digest"]["ops"]
    assert traced["digest"]["reference"] == "match"
    assert "ops_per_s" in traced["tracing_overhead"]


def test_cold_table_query_rescans_once_per_total():
    result = run.run_workload("hilbert", 2, 0, True, workloads.TINY)
    misses = [op["counters"] for op in result["ops"] if op["kind"] == "table-miss"]
    assert len(misses) == len(workloads.TINY.hilbert_mix)
    totals = workloads.TINY.hilbert_max_degree + 1
    assert all(counters["scan.calls"] == totals for counters in misses)
    hits = [op["counters"] for op in result["ops"] if op["kind"] == "table-hit"]
    assert hits and all("scan.calls" not in counters for counters in hits)


def test_compare_refuses_results_from_different_backends():
    base = run.run_workload("verify", 1, 0, False, workloads.TINY)
    other = json.loads(json.dumps(base))
    other["meta"]["backend"] = "cython" if base["meta"]["backend"] == "python" else "python"
    with pytest.raises(compare.NotComparable, match="backend"):
        compare.check_comparable(base, other)
    compare.check_comparable(base, base)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
