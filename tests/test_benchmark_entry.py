"""The benchmark's entry points, run as the benchmark runs them.

perfbench/ drives the library from outside: causal_check.py is a script of
its own, and traced.py wraps the library's functions by name and reads
attributes of their results.  These tests run both files unedited, so that a change of the library that would
break a benchmark job fails here first.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iqcfit import cli
from iqcfit.inversion import picard_solve, scattered_from_operator
from iqcfit.kernels import CausalDiagonalKernel, SeparableKernel, gaussian
from iqcfit.rkhs import build_gram
from iqcfit.signals import (Dataset, TimeGrid, random_signal, save_dataset,
                            stacked)
from iqcfit.supply import passivity_supply

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_causal_check_script_reports(tmp_path, monkeypatch):
    # a tiny causal fit, then the benchmark's check script on its bundle
    grid, rng = TimeGrid(4, 0.5), np.random.default_rng(41)
    inputs = tuple(random_signal(grid, 1, rng) for _ in range(4))
    save_dataset(Dataset(inputs, tuple(0.5 * u for u in inputs)),
                 tmp_path / "data")
    (tmp_path / "kernel.json").write_text(json.dumps({
        "structure": "causal_diagonal",
        "child": {"structure": "separable", "R": "identity",
                  "scalar": {"kind": "gaussian", "sigma": 2.0}}}))
    assert cli.main(["fit", "--data", str(tmp_path / "data"),
                     "--kernel", str(tmp_path / "kernel.json"), "--rho", "0.9",
                     "--out", str(tmp_path / "fit"), "--quiet"]) == 0
    script = PERFBENCH / "causal_check.py"
    monkeypatch.setattr("sys.argv", [
        str(script), "--model", str(tmp_path / "fit" / "model"),
        "--pairs", "2", "--seed", "7", "--out", str(tmp_path / "check")])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    report = json.loads((tmp_path / "check" / "causality_report.json")
                        .read_text())
    assert done.value.code == (0 if report["passed"] else 1)
    assert report["passed"] is True
    assert report["tolerance"] == 1e-8
    assert 0.0 < report["epsilon"] < 1.0


def test_trace_attributes_read_the_results():
    # traced.py's attribute readers, called on real results as its wrappers
    # call them
    attrs = runpy.run_path(str(PERFBENCH / "traced.py"))["ATTRS"]
    grid, rng = TimeGrid(3), np.random.default_rng(42)
    inputs = [random_signal(grid, 1, rng) for _ in range(3)]
    for kernel in (SeparableKernel(gaussian(2.0), np.eye(1)),
                   CausalDiagonalKernel(SeparableKernel(gaussian(2.0),
                                                        np.eye(1)))):
        gram = build_gram(kernel, stacked(inputs))
        assert attrs["rkhs.build_gram"](gram, (), {}) == {
            "layout": gram.layout, "side": gram.dim}
    model = scattered_from_operator(lambda s: 0.5 * s, 0.5,
                                    passivity_supply(1), grid)
    single = [picard_solve(model, u) for u in inputs]
    assert attrs["inversion.picard_solve"](single[0], (), {}) == {
        "iterations": single[0].iterations}
    assert single[0].iterations > 0
    # the CLI solves stacks, whose count sums the lanes; traced.py writes
    # it to JSON
    stack = picard_solve(model, stacked(inputs))
    spans = attrs["inversion.picard_solve"](stack, (), {})
    assert spans == {"iterations": sum(r.iterations for r in single)}
    assert json.loads(json.dumps(spans)) == spans


def test_traced_reproduce_records_the_benchmark_layers(tmp_path):
    # traced.py wraps the library from outside, by name; the case study's
    # reproduce run through it ends as the CLI does and records the layers
    # the benchmark reads
    src = str(Path(__file__).resolve().parents[1] / "src")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans),
         "iqcfit.cli", "reproduce", "--out", str(tmp_path / "out"),
         "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    names = {record[0] for record in json.loads(spans.read_text())["records"]}
    assert {"kernels.certify_nonexpansive", "rkhs.build_gram",
            "signals.write_signal"} <= names
