"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench

Two traced runs on one seed at a tiny size must agree exactly on the counts
that later changes cite; BENCHMARK.json must name what run.py reports; and
the benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

EXACT = (
    "kernels.eval_scalar.calls",
    "rkhs.build_gram.calls",
    "inversion.picard_solve.iterations",
    "signals.write_signal.calls",
    "hodgkin.rk4_steps",
)

TINY = {
    "channel-reproduce": dict(probes=5),
    "wide-separable": dict(n=12, tau=5, probes=5),
    "causal-truncation": dict(n=4, tau=4, probes=1),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat(name, tmp_path):
    w = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    results = []
    for rep in range(2):
        work = tmp_path / f"run{rep}"
        work.mkdir()
        results.append(run.measure(w, seed=3, seconds=0, trace=True,
                                   work=work))
    for result in results:
        assert result["failed"] == 0
        assert result["metrics"]["failed_ratio"] == 0
    first, second = (r["metrics"] for r in results)
    for metric in EXACT:
        assert first[metric] == second[metric], metric
    assert first["inversion.picard_solve.iterations"] > 0
    assert first["signals.write_signal.calls"] > 0
    if name == "channel-reproduce":
        assert first["hodgkin.rk4_steps"] > 0
    else:
        assert first["hodgkin.rk4_steps"] == 0
        assert first["kernels.eval_scalar.calls"] > 0


def test_benchmark_json_matches_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in run.WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [(n, u, b) for n, u, b, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in run.PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-separable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
