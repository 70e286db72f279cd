import atexit
import contextlib
import copy
import gc
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iqcfit
import oracle
from iqcfit import cli, kernels, rkhs
from iqcfit.rkhs import build_gram, load_fitted
from iqcfit.signals import (
    Dataset,
    Signal,
    TimeGrid,
    load_dataset,
    random_signal,
    save_dataset,
    write_signal,
    zeros,
)


def _read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Small end-to-end workspace: generated step data plus a tuned fit."""
    root = tmp_path_factory.mktemp("cliws")
    rc = cli.main(["gen-data", "--out", str(root / "gen"),
                   "--levels=-6,-51", "--horizon", "2", "--quiet"])
    assert rc == 0
    rc = cli.main(["fit", "--data", str(root / "gen" / "data"),
                   "--out", str(root / "fit"),
                   "--scale-a", "978.7", "--scale-b", "25390",
                   "--rho", "0.9", "--quiet"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def zero_model(tmp_path_factory):
    """Fit on identity data: the scattered targets vanish, so S = 0."""
    root = tmp_path_factory.mktemp("clizero")
    grid = TimeGrid(4, 0.5)
    rng = np.random.default_rng(3)
    inputs = tuple(random_signal(grid, 1, rng) for _ in range(2))
    data = Dataset(inputs, inputs)
    save_dataset(data, root / "data")
    rc = cli.main(["fit", "--data", str(root / "data"),
                   "--out", str(root / "fit"), "--gamma", "1.0", "--quiet"])
    assert rc == 0
    return root


def test_no_command_is_usage_error():
    assert cli.main([]) == 2
    assert cli.main(["bogus"]) == 2


def test_help_exits_cleanly():
    assert cli.main(["--help"]) == 0
    for command in ("gen-data", "check", "fit", "simulate", "reproduce",
                    "sweep-gamma"):
        assert cli.main([command, "--help"]) == 0


def _every_flag(command, out, joined=False):
    """argv for command giving each of its flags a value it takes, as
    --flag value or, joined, as --flag=value."""
    argv = [command]
    for opt in cli.COMMANDS[command][2]:
        flag = cli._flag_name(opt)
        if opt.parse is cli._flag:
            argv.append(flag)
            continue
        if opt.parse is cli._texts:
            values = ["a.csv", "b.csv"]
        elif opt.name == "out":
            values = [str(out)]
        elif hasattr(opt.parse, "choices"):
            values = [opt.parse.choices[0]]
        else:
            values = ["iiqc" if opt.parse is cli._checks else "1"]
        for value in values:
            argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_flag_reads_as_its_config_key(monkeypatch, tmp_path, command):
    # --flag value, --flag=value and the resolved config fed back through
    # --config give the runner the same settings
    summary, _, options = cli.COMMANDS[command]
    seen = []
    monkeypatch.setitem(cli.COMMANDS, command,
                        (summary, lambda cfg: seen.append(cfg) or 0, options))
    out = tmp_path / "out"
    assert cli.main(_every_flag(command, out)) == 0
    assert cli.main(_every_flag(command, out, joined=True)) == 0
    # the resolved config leaves --quiet out
    written = out / f"{command.replace('-', '_')}_config.json"
    assert cli.main([command, "--config", str(written), "--quiet"]) == 0
    assert cli.main([command, f"--config={written}", "--out", str(out),
                     "--quiet"]) == 0
    assert len(seen) == 4 and seen[0] == seen[1] == seen[2] == seen[3]
    _, flags = cli.read_flags(options, _every_flag(command, out)[1:])
    assert set(flags) == {opt.name for opt in options}


@pytest.mark.parametrize("argv, says", [
    (["fit", "--bogus", "1"], "unknown flag --bogus"),
    (["gen-data", "--hor", "5"], "unknown flag --hor"),
    (["fit", "--dat=x"], "unknown flag --dat"),
    (["gen-data", "--horizon"], "--horizon needs a value"),
    (["gen-data", "--horizon", "--quiet"], "--horizon needs a value"),
    (["simulate", "--input"], "--input needs a value"),
    (["gen-data", "--quiet=yes"], "--quiet takes no value"),
    (["gen-data", "extra"], "unexpected argument 'extra'"),
    (["gen-data", "-x"], "unexpected argument '-x'"),
    (["bogus"], "unknown command 'bogus'"),
    ([], "a command is required"),
], ids=["unknown", "abbreviated", "abbreviated-joined", "missing-value",
        "flag-as-value", "missing-input", "value-of-store-true", "positional",
        "single-dash", "unknown-command", "no-command"])
def test_usage_errors_exit_2_with_one_error_line(tmp_path, capsys, argv,
                                                 says):
    # the reader refuses what argparse once took by prefix (--hor)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    named = argv[0] if argv and argv[0] in cli.COMMANDS else "{gen-data,"
    assert usage.startswith(f"usage: iqcfit {named}")
    assert error == f"error: {says}"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["-h", "fit"], ["--out", "x", "--help"],
    ["bogus", "-h"]])
def test_help_lists_every_command(capsys, argv):
    capsys.readouterr()
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: iqcfit {" + ",".join(cli.COMMANDS) + "}")
    for command, (summary, _, _) in cli.COMMANDS.items():
        assert f"\n  {command} " in text and text.count(summary) == 1


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_lists_every_flag(tmp_path, capsys, command):
    out = tmp_path / "out"
    for argv in ([command, "--help"], [command, "-h"],
                 [command, "--out", str(out), "--bogus", "--help"],
                 [command, "--data", "-h"]):
        capsys.readouterr()
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: iqcfit {command} ")
        for opt in (cli.CONFIG, *cli.COMMANDS[command][2]):
            row = next(line for line in text.splitlines()
                       if line.startswith(f"  {cli._flag_name(opt)} "))
            assert row.endswith(opt.help)
        assert "-h, --help" in text
    assert not out.exists()


def test_cli_imports_no_argparse(tmp_path):
    src = str(Path(iqcfit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "iqcfit.cli", "check",
         "--target", "identity", "--probes", "3", "--out",
         str(tmp_path / "out"), "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "iqcfit.rkhs" in imported and "numpy" in imported
    assert not imported & {"argparse", "gettext", "locale"}


def test_gen_data_defaults(tmp_path):
    out = tmp_path / "gen"
    assert cli.main(["gen-data", "--out", str(out), "--quiet"]) == 0
    report = _read_json(out / "gen_data_report.json")
    assert report["pairs"] == 12
    assert report["samples"] == 21
    assert report["tau"] == 20
    assert report["dt"] == 0.5
    assert report["ordering_consistent"] is True
    lines = (out / "figure1.csv").read_text().splitlines()
    assert lines[0] == "t,level,y"
    assert len(lines) == 1 + 12 * 21
    assert (out / "data" / "manifest.json").exists()
    resolved = _read_json(out / "gen_data_config.json")
    assert resolved["command"] == "gen-data"
    assert resolved["seed"] == 0
    assert resolved["horizon"] == 10.0
    assert resolved["levels"][0] == -6.0


def test_gen_data_overrides(ws):
    report = _read_json(ws / "gen" / "gen_data_report.json")
    assert report["pairs"] == 2
    assert report["tau"] == 4
    assert report["levels"] == [-6.0, -51.0]


def test_out_path_collision(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("file in the way\n")
    rc = cli.main(["check", "--target", "identity", "--out", str(blocker),
                   "--quiet"])
    assert rc == 2


def test_check_identity(tmp_path):
    out = tmp_path / "chk"
    rc = cli.main(["check", "--target", "identity", "--tau", "5",
                   "--probes", "20", "--out", str(out), "--quiet"])
    assert rc == 0
    report = _read_json(out / "check_report.json")
    assert report["passed"] is True
    assert report["min_residual"] >= -report["tolerance"]


def test_check_hh_reports_violation(tmp_path):
    out = tmp_path / "hh"
    rc = cli.main(["check", "--target", "hh", "--out", str(out), "--quiet"])
    assert rc == 1
    report = _read_json(out / "check_report.json")
    assert report["passed"] is False
    assert report["violations"]
    assert abs(report["witness"]["continuous"] - (-33.51)) <= 1.0
    assert report["witness"]["sampled"] < 0


def test_check_fitted_model(ws, tmp_path):
    out = tmp_path / "chk"
    rc = cli.main(["check", "--target", "model",
                   "--model", str(ws / "fit" / "model"),
                   "--probes", "10", "--out", str(out), "--quiet"])
    assert rc == 0
    report = _read_json(out / "check_report.json")
    assert report["passed"] is True
    assert 0 < report["epsilon"] < 1
    assert report["iiqc"]["passed"] is True
    assert report["defect"]["passed"] is True
    assert report["defect"]["certificate"] == "proven"
    # default check set skips the truncation test for non-causal kernels
    assert "causality" not in report


def test_fit_report_fields(ws):
    report = _read_json(ws / "fit" / "fit_report.json")
    assert report["certificate"] == "proven"
    assert report["warnings"] == []
    assert report["supply"] == "passivity"
    assert report["scale"] == {"a": 978.7, "b": 25390.0}
    assert report["n"] == 2
    assert report["gamma"] > 0
    assert 0.88 <= report["rkhs_norm"] <= 0.9 * (1 + 1e-9)
    assert report["risk"] > 0
    assert (ws / "fit" / "model" / "model.json").exists()


def test_fit_warns_without_certificate(ws, tmp_path):
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(json.dumps({
        "structure": "separable",
        "scalar": {"kind": "gaussian", "sigma": 1.0},
        "R": "identity",
    }))
    out = tmp_path / "fit"
    rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                   "--kernel", str(kernel_file),
                   "--scale-a", "978.7", "--scale-b", "25390",
                   "--rho", "0.9", "--out", str(out), "--quiet"])
    assert rc == 0
    report = _read_json(out / "fit_report.json")
    assert report["certificate"] == "unknown"
    assert report["warnings"]


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = cli.main(["gen-data", "--config", str(cfg),
                   "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2


def test_fit_usage_errors(ws, tmp_path):
    assert cli.main(["fit", "--out", str(tmp_path / "a"), "--quiet"]) == 2
    rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                   "--scale-a", "978.7",
                   "--out", str(tmp_path / "b"), "--quiet"])
    assert rc == 2


def _kernel(**fields):
    """Edit of a bundle's model.json that overrides fields of its kernel."""
    return lambda meta: {**meta, "kernel": {**meta["kernel"], **fields}}


def _sigma(value):
    return _kernel(scalar={"kind": "gaussian", "sigma": value})


def _extra(**record):
    """Edit of a bundle's model.json that overrides fields of its extra record."""
    return lambda meta: {**meta, "extra": {**meta["extra"], **record}}


@pytest.mark.parametrize("target, edit", [
    ("kernel", lambda _: {"structure": "sum", "weights": 5, "children": []}),
    ("kernel", lambda _: {"structure": "separable", "scalar": "gaussian"}),
    ("kernel", lambda _: ["separable"]),
    ("data", lambda _: []),
    ("data", lambda meta: {**meta, "dt": None}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"], "p": "x"}}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"], "p": 10_000_000}}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"],
                                               "R": [[1, 0], [0, 1]]}}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"],
                                               "R": [[1, 0], [0]]}}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"], "R": "eye"}}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"], "scalar": {
        "kind": "gaussian", "sigma": -2.0}}}),
    ("model", lambda meta: {**meta, "kernel": {
        "structure": "sum", "weights": [1.0], "children": [meta["kernel"]] * 2}}),
    ("model", lambda meta: {**meta, "extra": 5}),
    ("model", _extra(supply=5)),
    ("simulate", _extra(supply=5)),
    ("model", _extra(supply={"kind": "gain", "delta": [1]})),
    ("simulate", _extra(supply={"kind": "gain", "delta": [1]})),
    ("model", _extra(supply={"kind": "passivity", "m": True})),
    ("model", _extra(supply={"kind": "passivity", "m": 1.7})),
    ("model", _extra(supply={"kind": "gain", "delta": "0.5", "m": 1, "p": 1})),
    ("model", _extra(supply={"kind": "passivity", "m": 2, "p": 2})),
    ("model", _extra(supply={"kind": "passivity", "m": 10**9})),
    ("simulate", _extra(supply={"kind": "gain", "delta": 1.0, "m": 1, "p": 2})),
    ("simulate", _extra(scale=5)),
    ("simulate", _extra(scale={"a": 1})),
    ("simulate", _extra(scale={"a": 1, "b": -2})),
    ("simulate", _extra(scale={"a": True, "b": 1})),
    ("simulate", _extra(scale={"a": 10**400, "b": 1})),
    ("wide", _extra(supply={"kind": "passivity", "m": 2, "p": 1})),
    ("model", _sigma(float("nan"))),
    ("model", _sigma(float("inf"))),
    ("model", _sigma(10**400)),
    ("model", _sigma(True)),
    ("model", _kernel(R=[[float("nan")]])),
    ("model", lambda meta: {**meta, "kernel": {
        "structure": "sum", "weights": [float("inf")],
        "children": [meta["kernel"]]}}),
], ids=["sum-weights", "scalar-name", "kernel-not-object", "manifest-list",
        "dt-null", "kernel-p", "kernel-p-huge", "kernel-R-side",
        "kernel-R-ragged", "kernel-R-shorthand", "kernel-sigma-negative",
        "kernel-sum-one-weight", "extra-not-object", "check-supply-number",
        "simulate-supply-number", "check-gain-delta-list",
        "simulate-gain-delta-list", "check-passivity-m-bool",
        "check-passivity-m-fraction", "check-gain-delta-text",
        "check-supply-dims", "check-supply-huge", "simulate-supply-dims", "simulate-scale-number",
        "simulate-scale-without-b", "simulate-scale-negative",
        "simulate-scale-bool", "simulate-scale-huge", "wide-passivity-p",
        "kernel-sigma-nan", "kernel-sigma-inf", "kernel-sigma-huge",
        "kernel-sigma-bool", "kernel-R-nan", "kernel-weight-inf"])
def test_malformed_json_is_usage_error(ws, wide_model, tmp_path, capsys,
                                       target, edit):
    shutil.copytree(ws / "gen" / "data", tmp_path / "data")
    shutil.copytree(wide_model if target == "wide" else ws / "fit" / "model",
                    tmp_path / "model")
    path = {"kernel": tmp_path / "kernel.json",
            "data": tmp_path / "data" / "manifest.json"}.get(
        target, tmp_path / "model" / "model.json")
    path.write_text(json.dumps(edit(_read_json(path) if path.exists() else None)))
    if target in ("model", "wide"):
        args = ["check", "--target", "model", "--model", str(tmp_path / "model")]
    elif target == "simulate":
        meta = _read_json(ws / "fit" / "model" / "model.json")
        write_signal(zeros(TimeGrid(meta["tau"], meta["dt"])),
                     tmp_path / "zero.csv")
        args = ["simulate", "--model", str(tmp_path / "model"),
                "--input", str(tmp_path / "zero.csv")]
    else:
        args = ["fit", "--data", str(tmp_path / "data")]
        args += ["--kernel", str(path)] if target == "kernel" else []
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    if target in ("kernel", "model", "simulate", "wide"):
        assert str(path) in err
    fitted = _read_json(ws / "fit" / "model" / "model.json")["kernel"]
    if target == "kernel":
        assert err.startswith(f"error: {path}: ")
        assert ("malformed kernel" in err) == isinstance(_read_json(path), dict)
    if target == "model" and _read_json(path)["kernel"] != fitted:
        assert "malformed kernel" in err


_GAUSSIAN_NEGATIVE = {"scalar": {"kind": "gaussian", "sigma": -2.0}}


@pytest.mark.parametrize("fields, says", [
    ({"R": "identity", "p": 10_000_000}, "p must be"),
    ({"R": "identity", "p": 0}, "p must be"),
    ({"R": "identity", "p": -1}, "p must be"),
    ({"structure": "sum", "weights": "ab",
      "children": [{"scalar": {"kind": "bilinear"}}] * 2}, "weights must be"),
    ({"R": [[1, 0], [0, 1]]}, "R must be"),
    ({"R": [[1, 0], [0, 1]], "p": 1}, "R must be"),
    ({"R": [[1, 0], [0]]}, "R must be a square list of lists"),
    ({"R": "eye"}, "unknown matrix shorthand 'eye'"),
    (_GAUSSIAN_NEGATIVE, "gaussian kernel sigma must be a positive finite number"),
    ({"structure": "sum", "weights": [1.0],
      "children": [{"scalar": {"kind": "bilinear"}}] * 2},
     "need one weight per child kernel"),
    ({"structure": "sum", "weights": [1.0], "children": [_GAUSSIAN_NEGATIVE]},
     "gaussian kernel sigma must be a positive finite number"),
    ({"structure": "causal_diagonal", "child": {
        "structure": "sum", "weights": [1.0], "children": [_GAUSSIAN_NEGATIVE]}},
     "gaussian kernel sigma must be a positive finite number"),
    *(({"scalar": {"kind": "gaussian", "sigma": value}},
       f"gaussian kernel sigma must be a positive finite number, got {shown}")
      for value, shown in [(float("nan"), "nan"), (float("inf"), "inf"),
                           (10**400, "1000"), (True, "True")]),
    ({"R": [[float("nan")]]}, "R[0][0] must be a finite number, got nan"),
    ({"structure": "sum", "weights": [float("inf")],
      "children": [{"scalar": {"kind": "bilinear"}}]},
     "sum kernel weight must be a non-negative finite number, got inf"),
], ids=["p-huge", "p-zero", "p-negative", "weights-text", "R-side", "R-side-p",
        "R-ragged", "R-shorthand", "sigma-negative", "sum-one-weight",
        "sum-child-sigma", "causal-sum-child-sigma", "sigma-nan", "sigma-inf",
        "sigma-huge", "sigma-bool", "R-nan", "weight-inf"])
def test_kernel_json_faults_name_the_kernel(ws, tmp_path, capsys, fields, says):
    # the file, then the innermost kernel holding the fault, each named once
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"structure": "separable",
                                "scalar": {"kind": "scaled_laplacian"},
                                **fields}))
    capsys.readouterr()
    rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                   "--kernel", str(path),
                   "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: malformed kernel")
    assert f": {says}" in err
    assert err.count("malformed kernel") == 1
    assert err.count(str(path)) == 1
    assert "0" * 100 not in err  # a huge value is shown shortened
    if "structure" in fields and "sigma" in says:
        # a fault inside a child names the child, not its parents
        assert err.startswith(
            f"error: {path}: malformed kernel {_GAUSSIAN_NEGATIVE}: ")
    assert "Traceback" not in err


def _nested_sum(depth):
    """A kernel JSON object: depth sums, each around the next, around a
    separable kernel."""
    kernel = {"structure": "separable", "scalar": {"kind": "scaled_laplacian"}}
    for _ in range(depth):
        kernel = {"structure": "sum", "weights": [1.0], "children": [kernel]}
    return kernel


@pytest.mark.parametrize("route", ["fit", "check"])
def test_deeply_nested_kernel_is_refused(ws, tmp_path, capsys, route):
    # past KERNEL_DEPTH levels a kernel is refused before any recursive
    # walk over it, whether it comes from a --kernel file or a bundle
    kernel = _nested_sum(450)
    if route == "fit":
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(kernel))
        args = ["fit", "--data", str(ws / "gen" / "data"),
                "--kernel", str(path)]
    else:
        shutil.copytree(ws / "fit" / "model", tmp_path / "model")
        path = tmp_path / "model" / "model.json"
        path.write_text(json.dumps({**_read_json(path), "kernel": kernel}))
        args = ["check", "--target", "model", "--model", str(path.parent)]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: malformed kernel")
    assert err.endswith(
        f"structures nest deeper than {kernels.KERNEL_DEPTH} levels\n")
    assert err.count("\n") == 1


def test_kernel_at_the_depth_limit_fits(ws, tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(_nested_sum(kernels.KERNEL_DEPTH)))
    rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                   "--kernel", str(path), "--out", str(tmp_path / "out"),
                   "--quiet"])
    assert rc == 0


def _manifest(**fields):
    """Edit of a dataset: override fields of its manifest.json."""
    def edit(data):
        path = data / "manifest.json"
        path.write_text(json.dumps({**_read_json(path), **fields}))
        return path
    return edit


def _cut_first_output(data):
    """Edit of a dataset: drop the last sample of y_000.csv."""
    path = data / "y_000.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(True)[:-1]))
    return path


def _not_utf8(data):
    """Edit of a dataset: a 0xff byte in the middle of u_000.csv."""
    path = data / "u_000.csv"
    text = path.read_bytes()
    path.write_bytes(text[:20] + b"\xff" + text[20:])
    return path


@pytest.mark.parametrize("edit, says", [
    (_manifest(dt="abc"), "dt must be a positive finite number"),
    (_manifest(dt=-1), "dt must be a positive finite number"),
    (_manifest(dt=0.0), "dt must be a positive finite number"),
    (_manifest(dt=True), "dt must be a positive finite number"),
    (_manifest(tau="12"), "tau must be a non-negative integer"),
    (_manifest(tau=-1), "tau must be a non-negative integer, got -1"),
    (_manifest(m=1.0), "m must be an integer"),
    (_manifest(m=0), "m must be an integer at least 1, got 0"),
    (_manifest(p=None), "p must be an integer"),
    (_manifest(pairs=[]), "pairs must be a non-empty list"),
    (_manifest(pairs={"a": 1}), "pairs must be a non-empty list"),
    (_cut_first_output, "4 samples, but "),
    (_not_utf8, "not UTF-8 text"),
], ids=["dt-text", "dt-negative", "dt-zero", "dt-bool", "tau-text",
        "tau-negative", "m-float", "m-zero", "p-null", "pairs-empty",
        "pairs-object", "ragged-grid", "csv-not-utf8"])
def test_malformed_dataset_names_its_file(ws, tmp_path, capsys, edit, says):
    shutil.copytree(ws / "gen" / "data", tmp_path / "data")
    path = edit(tmp_path / "data")
    capsys.readouterr()
    rc = cli.main(["fit", "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: {says}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, level, says", [
    ("fit", 1e150, "norm target not reached while growing gamma"),
    ("fit", 1e200, "the Gram of kernel "),
    ("sweep-gamma", 1e200, "the Gram of kernel "),
])
def test_data_past_float_range_names_its_manifest(tmp_path, capsys, command,
                                                  level, says):
    # three pairs of 5 samples; the second output is constant at level
    grid, rng = TimeGrid(4, 0.5), np.random.default_rng(0)
    inputs = tuple(random_signal(grid, 1, rng) for _ in range(3))
    outputs = [random_signal(grid, 1, rng) for _ in range(3)]
    outputs[1] = Signal(grid, np.full((5, 1), level))
    manifest = save_dataset(Dataset(inputs, tuple(outputs)), tmp_path / "data")
    capsys.readouterr()
    rc = cli.main([command, "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {manifest}: {says}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("target", ["manifest", "config", "kernel",
                                    "deep-manifest", "long-int-manifest"])
def test_invalid_json_file_names_it(ws, tmp_path, capsys, target):
    shutil.copytree(ws / "gen" / "data", tmp_path / "data")
    args = ["fit", "--data", str(tmp_path / "data")]
    if target.endswith("manifest"):
        path = tmp_path / "data" / "manifest.json"
        # nested past the recursion limit; an integer past the digit limit
        path.write_text({"manifest": path.read_text()[:20],
                         "deep-manifest": "[" * 100_000,
                         "long-int-manifest": "1" * 5000}[target])
    else:
        path = tmp_path / f"{target}.json"
        path.write_text("{")
        args += [f"--{target}", str(path)]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert f"{path}: not valid JSON" in err


def _old_layout(model):
    """Rewrite a bundle in the per-trajectory layout of format iqcfit-model."""
    meta = _read_json(model / "model.json")
    grid = TimeGrid(meta["tau"], meta["dt"])
    for name, prefix in (("centers", "center"), ("coefficients", "coeff"),
                         ("targets", "target")):
        for i, values in enumerate(np.load(model / f"{name}.npy")):
            write_signal(Signal(grid, values), model / f"{prefix}_{i:03d}.csv")
        (model / f"{name}.npy").unlink()
    (model / "model.json").write_text(
        json.dumps({**meta, "format": "iqcfit-model"}))
    return model / "model.json"


def _drop_coefficient_column(model):
    path = model / "coefficients.npy"
    np.save(path, np.load(path)[:, :, :-1])
    return path


def _miscount(model):
    path = model / "model.json"
    meta = _read_json(path)
    path.write_text(json.dumps({**meta, "n": meta["n"] + 1}))
    return path


def _truncate_manifest(model):
    path = model / "model.json"
    path.write_text(path.read_text()[:40])
    return path


def _bundle_args(ws, tmp_path, command, model):
    """argv of a check or a simulate run that loads the bundle at model."""
    if command == "check":
        args = ["check", "--target", "model", "--model", str(model)]
    else:
        meta = _read_json(ws / "fit" / "model" / "model.json")
        write_signal(zeros(TimeGrid(meta["tau"], meta["dt"])),
                     tmp_path / "zero.csv")
        args = ["simulate", "--model", str(model),
                "--input", str(tmp_path / "zero.csv")]
    return args + ["--out", str(tmp_path / "out"), "--quiet"]


def _resaved(name, change):
    """Edit of a bundle: one stack saved again as change(stack)."""
    def edit(model):
        path = model / name
        np.save(path, change(np.load(path)), allow_pickle=True)
        return path
    return edit


def _rewritten(name, change):
    """Edit of a bundle: the bytes of one file replaced by change(bytes)."""
    def edit(model):
        path = model / name
        path.write_bytes(change(path.read_bytes()))
        return path
    return edit


def _with(index, value):
    def change(stack):
        stack[index] = value
        return stack
    return change


def _huge_header(data):
    """A .npy header declaring 10^18 x 10^18 x 2 doubles, before data."""
    buf = io.BytesIO(data)
    np.lib.format.read_magic(buf)
    np.lib.format.read_array_header_1_0(buf)
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": "<f8", "fortran_order": False, "shape": (10**18, 10**18, 2)})
    return out.getvalue() + buf.read()


def _format_2(model):
    path = model / "model.json"
    path.write_text(json.dumps({**_read_json(path), "format": "iqcfit-model-2"}))
    return path


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("damage, says", [
    (_old_layout, "refit the model"),
    (_drop_coefficient_column, "model.json declares"),
    (_miscount, "model.json declares n=3"),
    (_truncate_manifest, "not valid JSON"),
    (_rewritten("coefficients.npy", lambda b: b[:-1]), "bytes of data, but"),
    (_rewritten("centers.npy", lambda b: b[:20]), "EOF: reading array header"),
    (_rewritten("targets.npy", _huge_header), "array of shape (1000000000"),
    (_resaved("centers.npy", lambda a: a.astype(np.float32)), "got <f4"),
    (_resaved("targets.npy", lambda a: a.astype(">f8")), "got >f8"),
    (_resaved("coefficients.npy", np.asfortranarray), "fortran_order True"),
    (_resaved("centers.npy", lambda a: a.astype(object)), "got |O"),
    (_resaved("coefficients.npy", _with((0, 1, 0), np.nan)), "non-finite"),
    (_resaved("targets.npy", _with((1, 0, 0), -np.inf)), "non-finite"),
    (_rewritten("centers.npy", lambda _: b"t,ch1\r\n0,1\r\n"),
     "magic string is not correct"),
    (_rewritten("targets.npy", lambda _: b""), "EOF: reading magic string"),
    (_rewritten("coefficients.npy", lambda b: b[:6] + b"\x03" + b[7:]),
     "unsupported .npy format version (3, 0)"),
    (_resaved("targets.npy", lambda a: a[:, :-1]), "model.json declares"),
    (_format_2, "refit the model"),
    (_rewritten("coefficients.npy", lambda b: b.replace(b"}", b"(", 1)),
     "unreadable .npy header: TokenError"),
], ids=["old-layout", "missing-column", "n-mismatch", "not-json", "truncated",
        "truncated-header", "huge-shape", "float32", "big-endian",
        "fortran-order", "object", "nan", "inf", "csv-text", "empty",
        "npy-version-3", "samples-mismatch", "format-2", "header-brace"])
def test_damaged_bundle_is_usage_error(ws, tmp_path, capsys, command, damage,
                                       says):
    # every fault ends in exit 2 and an error that starts with the path of
    # a bundle file and names the damaged one
    model = tmp_path / "model"
    shutil.copytree(ws / "fit" / "model", model)
    offending = damage(model)
    capsys.readouterr()
    rc = cli.main(_bundle_args(ws, tmp_path, command, model))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {model}/")
    assert str(offending) in err
    assert says in err
    assert "Traceback" not in err


def test_simulate_zero_model_is_identity(zero_model, tmp_path):
    grid = TimeGrid(4, 0.5)
    rng = np.random.default_rng(4)
    u = random_signal(grid, 1, rng)
    upath = tmp_path / "probe.csv"
    write_signal(u, upath)
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--model", str(zero_model / "fit" / "model"),
                   "--input", str(upath), "--out", str(out), "--quiet"])
    assert rc == 0
    log = _read_json(out / "sim_probe_log.json")
    assert log["iterations"] == 1
    assert log["converged"] is True
    rows = np.loadtxt(out / "sim_probe.csv", delimiter=",", skiprows=1)
    assert np.abs(rows[:, 2] - rows[:, 1]).max() <= 1e-9
    report = _read_json(out / "simulate_report.json")
    assert report["passed"] is True


def test_simulate_zero_input_ends(ws, tmp_path):
    meta = _read_json(ws / "fit" / "model" / "model.json")
    grid = TimeGrid(meta["tau"], meta["dt"])
    write_signal(zeros(grid), tmp_path / "zero.csv")
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--model", str(ws / "fit" / "model"),
                   "--input", str(tmp_path / "zero.csv"), "--out", str(out),
                   "--quiet"])
    assert rc == 0
    log = _read_json(out / "sim_zero_log.json")
    assert log["converged"] is True
    assert log["residual"] <= 1e-12


def _simulate_levels(ws, tmp_path, names):
    """simulate on one CSV per name, each a constant level: "fine" at
    -20, "big" at 1e160; returns the exit code."""
    meta = _read_json(ws / "fit" / "model" / "model.json")
    grid = TimeGrid(meta["tau"], meta["dt"])
    args = ["simulate", "--model", str(ws / "fit" / "model")]
    for name in names:
        level = {"fine": -20.0, "big": 1e160}[name]
        write_signal(Signal(grid, np.full(grid.size, level)),
                     tmp_path / f"{name}.csv")
        args += ["--input", str(tmp_path / f"{name}.csv")]
    return cli.main(args + ["--out", str(tmp_path / "sim"), "--quiet"])


def test_simulate_past_float_range_is_one_error_line(ws, tmp_path, capsys):
    # an input of 1e160 sends the scaled Laplacian's r to inf: simulate
    # exits 2 with one line naming the input's CSV, and numpy warns of
    # nothing
    capsys.readouterr()
    assert _simulate_levels(ws, tmp_path, ["big"]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'big.csv'}: "
                                       "fixed-point iteration left the float "
                                       "range at step 1\n")


def test_simulate_names_the_csv_past_float_range(ws, tmp_path, capsys):
    # the second of two inputs leaves the float range: the one error line
    # starts with its CSV, not with its lane index
    capsys.readouterr()
    assert _simulate_levels(ws, tmp_path, ["fine", "big"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {tmp_path / 'big.csv'}: ")


def test_bundle_extra_is_supply_and_scale(ws, tmp_path):
    # model.json keeps what check and simulate read back; the fit's risk,
    # certificate and warnings go to fit_report.json only, and a bundle
    # that still carries them loads and checks as before
    model = ws / "fit" / "model"
    extra = _read_json(model / "model.json")["extra"]
    assert sorted(extra) == ["scale", "supply"]
    report = _read_json(ws / "fit" / "fit_report.json")
    assert {"risk", "certificate", "warnings"} <= set(report)
    shutil.copytree(model, tmp_path / "model")
    meta = _read_json(model / "model.json")
    meta["extra"].update(risk=report["risk"], certificate="proven", warnings=[])
    (tmp_path / "model" / "model.json").write_text(json.dumps(meta))
    for bundle, out in ((model, "new"), (tmp_path / "model", "old")):
        assert cli.main(["check", "--target", "model", "--model", str(bundle),
                         "--probes", "5", "--out", str(tmp_path / out),
                         "--quiet"]) == 0
    assert (tmp_path / "new" / "check_report.json").read_text().replace(
        str(model), "M") == (tmp_path / "old" / "check_report.json") \
        .read_text().replace(str(tmp_path / "model"), "M")


def test_simulate_usage_errors(ws, tmp_path):
    model = str(ws / "fit" / "model")
    rc = cli.main(["simulate", "--model", model,
                   "--input", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "a"), "--quiet"])
    assert rc == 2
    short = Signal(TimeGrid(3, 0.5), np.ones(4))
    spath = tmp_path / "short.csv"
    write_signal(short, spath)
    rc = cli.main(["simulate", "--model", model, "--input", str(spath),
                   "--out", str(tmp_path / "b"), "--quiet"])
    assert rc == 2


def test_simulate_refuses_expansive_model(ws, tmp_path):
    # unscaled step outputs are O(10), so a tight fit has norm far above 1
    fit_out = tmp_path / "loose"
    rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                   "--gamma", "1e-6", "--out", str(fit_out), "--quiet"])
    assert rc == 0
    assert _read_json(fit_out / "fit_report.json")["rkhs_norm"] > 1
    grid = TimeGrid(4, 0.5)
    upath = tmp_path / "u.csv"
    write_signal(Signal(grid, np.ones(5)), upath)
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--model", str(fit_out / "model"),
                   "--input", str(upath), "--out", str(out), "--quiet"])
    assert rc == 1
    report = _read_json(out / "simulate_report.json")
    assert report["passed"] is False
    assert ">= 1" in report["reason"]
    # check refuses the same bundle before it draws a probe
    rc = cli.main(["check", "--target", "model", "--model",
                   str(fit_out / "model"), "--out", str(out), "--quiet"])
    assert rc == 1
    report = _read_json(out / "check_report.json")
    assert report["passed"] is False
    assert any(">= 1" in violation for violation in report["violations"])


def test_fit_and_check_under_the_gain_supply(ws, tmp_path, capsys):
    args = ["fit", "--data", str(ws / "gen" / "data"), "--supply", "gain",
            "--quiet"]
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "bare")]) == 2
    assert capsys.readouterr().err == "error: gain supply requires delta\n"
    fit_out = tmp_path / "fit"
    assert cli.main(args + ["--delta", "4", "--out", str(fit_out)]) == 0
    assert _read_json(fit_out / "fit_report.json")["supply"] == "gain"
    assert _read_json(fit_out / "model" / "model.json")["extra"]["supply"] \
        == {"kind": "gain", "delta": 4.0, "m": 1, "p": 1}
    out = tmp_path / "chk"
    rc = cli.main(["check", "--target", "model", "--model",
                   str(fit_out / "model"), "--probes", "10", "--out", str(out),
                   "--quiet"])
    assert rc == 0
    report = _read_json(out / "check_report.json")
    assert report["passed"] is True
    assert report["epsilon"] == 0.0


def _supply_less(model, root):
    """A copy of a bundle in root/model whose extra record holds no
    supply."""
    shutil.copytree(model, root / "model")
    meta = _read_json(model / "model.json")
    del meta["extra"]["supply"]
    (root / "model" / "model.json").write_text(json.dumps(meta))
    return root / "model"


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_supply_less_bundle_takes_the_flags_rate(ws, tmp_path, command):
    # a bundle without a supply record gets the rate its command's flags
    # name (passivity for simulate, which has no --supply), so it writes
    # what the bundle holding that rate's record writes
    bare = _supply_less(ws / "fit" / "model", tmp_path / "bare")
    recorded = tmp_path / "recorded" / "model"
    shutil.copytree(ws / "fit" / "model", recorded)
    meta = _read_json(recorded / "model.json")
    if command == "check":
        meta["extra"]["supply"] = {"kind": "gain", "delta": 4.0, "m": 1, "p": 1}
        args = ["check", "--target", "model", "--supply", "gain", "--delta",
                "4", "--probes", "5"]
        reports = ["check_report.json"]
    else:
        write_signal(random_signal(TimeGrid(meta["tau"], meta["dt"]), 1,
                                   np.random.default_rng(2), scale=40.0),
                     tmp_path / "u.csv")
        args = ["simulate", "--input", str(tmp_path / "u.csv")]
        reports = ["sim_u.csv", "sim_u_log.json", "simulate_report.json"]
    (recorded / "model.json").write_text(json.dumps(meta))
    codes = {cli.main(args + ["--model", str(model), "--out",
                              str(model.parent / "out"), "--quiet"])
             for model in (bare, recorded)}
    assert len(codes) == 1
    for name in reports:
        texts = {(model.parent / "out" / name).read_text().replace(
            str(model), "M") for model in (bare, recorded)}
        assert len(texts) == 1


def test_supply_less_bundle_refusals_are_the_flags(ws, wide_model, tmp_path,
                                                   capsys):
    # the flags' rate is refused in the flags' words, naming no bundle file
    bare = _supply_less(ws / "fit" / "model", tmp_path / "bare")
    wide = _supply_less(wide_model, tmp_path / "wide")
    write_signal(zeros(TimeGrid(6, 0.5), 2), tmp_path / "u.csv")
    capsys.readouterr()
    for args, says in (
            (["check", "--target", "model", "--model", str(bare), "--supply",
              "gain"], "gain supply requires delta"),
            (["simulate", "--model", str(wide), "--input",
              str(tmp_path / "u.csv")],
             "passivity supply needs p = m, got m=2, p=1")):
        assert cli.main(args + ["--out", str(tmp_path / "out"),
                                "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {says}\n"


@pytest.mark.parametrize("flag, name", [
    ("--config", "nope.json"), ("--data", "nodir"), ("--kernel", "nok.json"),
    ("--model", "nomodel")])
def test_missing_file_is_named_in_one_line(ws, tmp_path, capsys, flag, name):
    path = tmp_path / name
    args = {"--config": ["fit"], "--data": ["fit"],
            "--kernel": ["fit", "--data", str(ws / "gen" / "data")],
            "--model": ["check", "--target", "model"]}[flag]
    capsys.readouterr()
    rc = cli.main(args + [flag, str(path), "--out", str(tmp_path / "out"),
                          "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {path}: No such file or directory\n"


def test_sweep_gamma_monotone(ws, tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-gamma", "--data", str(ws / "gen" / "data"),
                   "--scale-a", "978.7", "--scale-b", "25390",
                   "--gamma-min", "1e-6", "--gamma-max", "1e-1",
                   "--count", "5", "--out", str(out), "--quiet"])
    assert rc == 0
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (5, 3)
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert np.all(np.diff(rows[:, 1]) <= 1e-12)
    assert np.all(np.diff(rows[:, 2]) >= -1e-12)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sweep_gamma_rejects_empty_sweep(ws, tmp_path, capsys, count):
    capsys.readouterr()
    rc = cli.main(["sweep-gamma", "--data", str(ws / "gen" / "data"),
                   "--count", count, "--out", str(tmp_path / "sweep"), "--quiet"])
    assert rc == 2
    assert (f"count must be an integer at least 1, got {count}"
            in capsys.readouterr().err)
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


@pytest.mark.parametrize("flag", ["--scale-a", "--scale-b"])
def test_sweep_gamma_rejects_lone_scale(ws, tmp_path, capsys, flag):
    capsys.readouterr()
    rc = cli.main(["sweep-gamma", "--data", str(ws / "gen" / "data"),
                   flag, "5", "--count", "3",
                   "--out", str(tmp_path / "sweep"), "--quiet"])
    assert rc == 2
    assert "scale-a and scale-b must be given together" in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


def test_simulate_several_inputs_match_one_at_a_time(ws, tmp_path):
    grid = TimeGrid(4, 0.5)
    rng = np.random.default_rng(8)
    model = str(ws / "fit" / "model")
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"probe{i}.csv")
        write_signal(random_signal(grid, 1, rng, scale=40.0), paths[-1])
    args = ["simulate", "--model", model, "--quiet"]
    assert cli.main(args + [a for p in paths for a in ("--input", str(p))]
                    + ["--out", str(tmp_path / "all")]) == 0
    for p in paths:
        one = tmp_path / f"one_{p.stem}"
        assert cli.main(args + ["--input", str(p), "--out", str(one)]) == 0
        for name in (f"sim_{p.stem}.csv", f"sim_{p.stem}_log.json"):
            assert (one / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    runs = _read_json(tmp_path / "all" / "simulate_report.json")["runs"]
    assert [r["input"] for r in runs] == [p.stem for p in paths]


def test_simulate_rejects_inputs_sharing_a_stem(ws, tmp_path, capsys):
    grid = TimeGrid(4, 0.5)
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "probe.csv")
        write_signal(Signal(grid, np.ones(5)), paths[-1])
    capsys.readouterr()
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--model", str(ws / "fit" / "model"),
                   "--input", str(paths[0]), "--input", str(paths[1]),
                   "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not (out / "sim_probe.csv").exists()


def test_config_file_and_flag_precedence(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(ws / "gen" / "data"),
        "scale_a": 978.7,
        "scale_b": 25390.0,
        "rho": 0.5,
    }))
    out = tmp_path / "fit"
    rc = cli.main(["fit", "--config", str(cfg), "--rho", "0.9",
                   "--out", str(out), "--quiet"])
    assert rc == 0
    resolved = _read_json(out / "fit_config.json")
    assert resolved["rho"] == 0.9
    report = _read_json(out / "fit_report.json")
    assert report["rkhs_norm"] == _read_json(
        ws / "fit" / "fit_report.json")["rkhs_norm"]


def test_fit_is_deterministic(ws, tmp_path):
    args = ["fit", "--data", str(ws / "gen" / "data"),
            "--scale-a", "978.7", "--scale-b", "25390", "--rho", "0.9",
            "--quiet"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(f.name for f in (tmp_path / "a" / "model").iterdir())
    assert names == ["centers.npy", "coefficients.npy", "model.json",
                     "targets.npy"]
    for rel in ["fit_report.json"] + [f"model/{name}" for name in names]:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()


def test_reproduce_smoke(tmp_path):
    out = tmp_path / "rep"
    rc = cli.main(["reproduce", "--levels=-6,-109", "--probes", "5",
                   "--out", str(out), "--quiet"])
    assert rc == 0
    report = _read_json(out / "report.json")
    flags = report["flags"]
    for name in ("witness_negative", "norm_contractive",
                 "identified_monotone", "reconstruction_ok"):
        assert flags[name] is True
    assert (out / "report.md").exists()
    assert (out / "reconstruction.csv").exists()
    assert (out / "figure1.csv").exists()


def test_reproduce_is_fit_then_check(tmp_path):
    # reproduce runs fit's and check's stages, so with fit's flags its
    # bundle is fit's, and with check's its iIQC block is check's
    rep, fit_out, chk = tmp_path / "rep", tmp_path / "fit", tmp_path / "chk"
    assert cli.main(["reproduce", "--levels=-6,-51,-109", "--probes", "7",
                     "--seed", "5", "--out", str(rep), "--quiet"]) == 0
    assert cli.main(["fit", "--data", str(rep / "data"),
                     "--scale-a", "978.7", "--scale-b", "25390",
                     "--rho", "0.99", "--out", str(fit_out), "--quiet"]) == 0
    bundle = sorted(p.name for p in (rep / "model").iterdir())
    assert bundle == sorted(p.name for p in (fit_out / "model").iterdir())
    _same_files(rep / "model", fit_out / "model", bundle)
    assert cli.main(["check", "--target", "model",
                     "--model", str(fit_out / "model"), "--checks", "iiqc",
                     "--probe-scale", "0.1", "--probes", "7", "--seed", "5",
                     "--out", str(chk), "--quiet"]) == 0
    report, check = _read_json(rep / "report.json"), \
        _read_json(chk / "check_report.json")
    assert report["monotonicity"] == {
        "probes": 7, "min_residual": check["iiqc"]["min_residual"],
        "tolerance": check["iiqc"]["tolerance"]}
    assert report["fit"]["epsilon"] == check["epsilon"]


def test_causality_check_of_a_non_causal_fit_fails(ws, tmp_path):
    # the default separable kernel is proven nonexpansive but not causal, so
    # only --checks runs the truncation test, which R then fails
    out = tmp_path / "chk"
    rc = cli.main(["check", "--target", "model",
                   "--model", str(ws / "fit" / "model"),
                   "--checks", "causality", "--probes", "3",
                   "--out", str(out), "--quiet"])
    report = _read_json(out / "check_report.json")
    assert rc == 1
    assert not kernels.is_causal(load_fitted(ws / "fit" / "model").kernel)
    assert set(report) == {"target", "model", "epsilon", "causality",
                           "violations", "passed"}
    causality = report["causality"]
    assert causality["tolerance"] == 1e-8
    assert causality["max_violation"] > causality["tolerance"]
    assert causality["passed"] is False
    assert report["violations"] == ["truncation test fails on a probe"]
    assert report["passed"] is False


def test_probing_commands_load_no_scipy_or_numpy_random(tmp_path):
    # numpy is the only runtime dependency, and the probes come from the
    # standard library: neither scipy nor numpy.random (with its secrets,
    # hmac and OpenSSL imports) is loaded by the commands that draw them
    src = str(Path(iqcfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"""
import sys
from iqcfit import cli
out = {str(tmp_path)!r}
for args in (["reproduce", "--levels=-6,-109", "--probes", "3",
              "--out", out + "/rep"],
             ["check", "--target", "model", "--model", out + "/rep/model",
              "--probes", "3", "--out", out + "/model"],
             ["check", "--target", "identity", "--out", out + "/identity"]):
    assert cli.main(args + ["--quiet"]) == 0, args
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "secrets")
             or m.startswith("numpy.random")))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_probe_stream_is_seeded_standard_library_gauss():
    # random.Random(seed).gauss(0.0, 1.0) times the scale, pair by pair, u
    # before v, each signal's (steps, dim) values in C order
    grid, dim, scale = TimeGrid(20, 0.5), 2, 0.3

    def drawn(seed):
        return cli._probe_pairs({"seed": seed, "probes": 50}, grid, dim,
                                scale)

    probes = drawn(7)
    assert probes.shape == (50, 2, 21, 2)
    assert probes.tobytes() == drawn(7).tobytes()
    assert not np.array_equal(probes, drawn(8))
    gauss = random.Random(7).gauss
    assert probes.ravel().tolist() == [scale * gauss(0.0, 1.0)
                                       for _ in range(probes.size)]
    assert abs(probes.std() / scale - 1.0) <= 0.05


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**80)),
       probes=st.integers(1, 5), tau=st.integers(0, 12), dim=st.integers(1, 3))
@example(seed=2**70, probes=3, tau=4, dim=1)
def test_probe_draws_are_the_gauss_loop_bit_for_bit(seed, probes, tau, dim):
    grid = TimeGrid(tau, 0.5)
    got = cli._probe_pairs({"seed": seed, "probes": probes}, grid, dim, 1.0)
    gauss = random.Random(seed).gauss
    want = np.array([gauss(0.0, 1.0) for _ in range(got.size)])
    assert got.shape == (probes, 2, tau + 1, dim)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # random.Random(-1) draws what Random(1) does, so a seed is non-negative
    capsys.readouterr()
    rc = cli.main([command, "--seed", "-1", "--out", str(tmp_path / "out"),
                   "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_overflowing_kernel_is_one_error_line(ws, tmp_path):
    # a polynomial kernel of degree 400 overflows on the step data: fit
    # exits 2 with one line naming the manifest and the kernel, and numpy
    # prints no warning
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({
        "structure": "separable", "R": "identity",
        "scalar": {"kind": "polynomial", "c": 1, "d": 400}}))
    src = str(Path(iqcfit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "iqcfit.cli", "fit",
         "--data", str(ws / "gen" / "data"), "--kernel", str(kernel),
         "--gamma", "1", "--out", str(tmp_path / "out"), "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(
        f"error: {ws / 'gen' / 'data' / 'manifest.json'}: the Gram of kernel {{")
    assert lines[0].endswith("has a non-finite entry: its values overflow")


def test_gaussian_wider_than_float_range_fits(ws, tmp_path):
    # sigma^2 overflows beyond sigma = 1.3e154: the kernel is its limit
    # k = 1, which the slope rule proves, so fit exits 0 with no warning and
    # fits what sigma = 1e150 (k = 1 to the last bit on this data) fits
    coefficients = []
    for sigma in (1e200, 1e150):
        kernel = tmp_path / f"kernel_{sigma:g}.json"
        kernel.write_text(json.dumps({"scalar": {"kind": "gaussian",
                                                 "sigma": sigma}}))
        out = tmp_path / f"out_{sigma:g}"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                           "--kernel", str(kernel), "--scale-a", "978.7",
                           "--scale-b", "25390", "--gamma", "1",
                           "--out", str(out), "--quiet"])
        assert (rc, seen) == (0, [])
        assert _read_json(out / "fit_report.json")["certificate"] == "proven"
        coefficients.append((out / "model" / "coefficients.npy").read_bytes())
    assert coefficients[0] == coefficients[1]


def test_tuned_fit_on_a_rank_deficient_gram_meets_rho(ws, tmp_path):
    # k = 1 to the last bit: the Gram has rank one plus rounding noise, and
    # the fit where the norm curve crosses rho fails its residual check, so
    # tuning raises gamma until a fit passes
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"scalar": {"kind": "gaussian",
                                             "sigma": 1e150}}))
    rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                   "--kernel", str(kernel), "--scale-a", "978.7",
                   "--scale-b", "25390", "--rho", "0.9",
                   "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    report = _read_json(tmp_path / "out" / "fit_report.json")
    assert report["rkhs_norm"] <= 0.9
    assert load_fitted(tmp_path / "out" / "model").gamma == report["gamma"]


@pytest.mark.parametrize("scalar", [
    {"kind": "bilinear"},
    # (10 + 0)^-400 underflows to 0
    {"kind": "inverse_power", "c": 10, "d": 400},
])
def test_tuning_refuses_a_gram_without_positive_eigenvalue(tmp_path, capsys,
                                                            scalar):
    # y = -u: the scattered inputs vanish under passivity, so the Gram is 0
    # and every gamma gives the norm 0; --rho names no smallest gamma, and
    # --gamma still fits
    grid = TimeGrid(4, 0.5)
    rng = np.random.default_rng(3)
    inputs = tuple(random_signal(grid, 1, rng) for _ in range(3))
    save_dataset(Dataset(inputs, tuple(-1.0 * u for u in inputs)),
                 tmp_path / "data")
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"scalar": scalar}))
    args = ["fit", "--data", str(tmp_path / "data"), "--kernel", str(kernel),
            "--quiet"]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = cli.main(args + ["--rho", "0.9", "--out", str(tmp_path / "rho")])
    assert (rc, seen) == (2, [])
    assert capsys.readouterr().err == (
        "error: the Gram matrix has no positive eigenvalue, so every gamma "
        "meets rho and none is smallest; fit at a fixed --gamma instead\n")
    assert cli.main(args + ["--gamma", "1", "--out", str(tmp_path / "g")]) == 0


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that records its flushes."""

    def __init__(self, name, events, fault=None):
        self.name, self.events, self.fault = name, events, fault

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.fault is not None:
            raise self.fault


@pytest.mark.parametrize("code", [0, 1, 2])
def test_console_main_flushes_then_leaves_through_os_exit(monkeypatch, code):
    # the process entry raises SystemExit(code) as before, and its exit
    # hook, the first to run, flushes both streams, then calls os._exit
    # with main's code (unpatched, os._exit would end this process)
    events, hooks = [], []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or code)
    monkeypatch.setattr(atexit, "register",
                        lambda *hook: hooks.append(hook))
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == code
    assert events == ["main"] and hooks == [(cli._leave, code)]
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", lambda status: events.append(status))
    cli._leave(code)
    assert events == ["main", "flush stdout", "flush stderr", code]


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_flush_onto_a_closed_pipe_ends_without_traceback(monkeypatch,
                                                         unbuffered):
    events = []
    monkeypatch.setattr(sys, "stdout",
                        _Stream("stdout", events, BrokenPipeError(32, "")))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", lambda status: events.append(status))
    cli._leave(0)
    assert events == ["flush stdout", "flush stderr", 0]
    # the same in a process whose standard output has no reader.  Buffered,
    # the help text is still in stdout's buffer when the process leaves;
    # unbuffered (python -u), the print itself meets the closed pipe
    src = str(Path(iqcfit.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for args in (["--help"], ["fit", "--help"], ["check", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "iqcfit.cli", *args],
                env={**env, "PYTHONPATH": src}, stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, ""), args


def test_main_in_process_freezes_nothing(monkeypatch, tmp_path):
    # main() called in process leaves the host's collector and exit alone
    frozen, hooks = gc.get_freeze_count(), []
    monkeypatch.setattr(atexit, "register", lambda *hook: hooks.append(hook))
    assert cli.main(["check", "--target", "identity", "--probes", "3",
                     "--out", str(tmp_path), "--quiet"]) == 0
    assert gc.get_freeze_count() == frozen and hooks == []


def _outputs(out):
    """Every file under out by relative path, the resolved config's copy
    of out left out."""
    return {str(path.relative_to(out)):
            path.read_bytes().replace(str(out).encode(), b"<OUT>")
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_commands_leave_nothing_for_the_collector(monkeypatch, tmp_path):
    # console_main leaves through os._exit, so no finalizer runs after main
    # returns: every file must be closed before then.  In process, an
    # object left to the collector warns when collected, under a
    # ResourceWarning turned error; in a child process each command exits
    # with its code and writes what it writes in process, byte for byte.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    src = str(Path(iqcfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    data = str(tmp_path / "gen" / "data")
    commands = [
        (["reproduce", "--levels=-6,-109", "--probes", "3"], "rep", 0),
        (["check", "--target", "model", "--probes", "3",
          "--model", str(tmp_path / "rep" / "model")], "model", 0),
        (["check", "--target", "identity", "--probes", "3"], "identity", 0),
        (["check", "--target", "hh"], "hh", 1),
        (["gen-data"], "gen", 0),
        (["fit", "--data", data, "--scale-a", "978.7", "--scale-b", "25390",
          "--rho", "0.9"], "fit", 0),
        (["sweep-gamma", "--data", data, "--count", "3"], "sweep", 0),
        (["simulate", "--model", str(tmp_path / "fit" / "model"),
          "--input", str(Path(data) / "u_000.csv")], "sim", 0),
    ]
    for args, out, code in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert cli.main([*args, "--out", str(tmp_path / out),
                             "--quiet"]) == code, args
            gc.collect()
        assert unraisable == [], args
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "iqcfit.cli", *args,
             "--out", str(tmp_path / "child" / out), "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, ""), args
        assert _outputs(tmp_path / "child" / out) == \
            _outputs(tmp_path / out), args


def test_commands_build_no_signal(monkeypatch, tmp_path):
    # every set of trajectories is one stack from reader to report: a
    # Signal is built only where a public function returns one or a caller
    # passes one in, and no command does either
    built = []
    init = Signal.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Signal, "__init__", counted)
    data = tmp_path / "gen" / "data"
    commands = [
        (["reproduce", "--levels=-6,-109", "--probes", "3"], "rep"),
        (["gen-data"], "gen"),
        (["check", "--target", "hh"], "hh"),
        (["fit", "--data", str(data), "--scale-a", "978.7", "--scale-b",
          "25390", "--rho", "0.9"], "fit"),
        (["simulate", "--model", str(tmp_path / "fit" / "model"), "--input",
          str(data / "u_000.csv"), "--input", str(data / "u_001.csv")], "sim"),
        (["check", "--target", "model", "--probes", "3",
          "--model", str(tmp_path / "rep" / "model")], "model"),
    ]
    counts = {}
    for args, out in commands:
        built.clear()
        assert cli.main([*args, "--out", str(tmp_path / out),
                         "--quiet"]) in (0, 1), args
        counts[out] = len(built)
    assert counts == dict.fromkeys(counts, 0)
    assert (tmp_path / "sim" / "sim_u_001.csv").exists()


# JSON values each kind of option row refuses in a config file.  A row whose
# default is not None also refuses null.
_NOT_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400]
# the parse of a number option is keyed by its kind
_WRONG = {
    "integer": [[1], {"a": 1}, True, "x", 2.5, -1, *_NOT_FINITE],
    "count": [[1], True, 2.5, 0, -3, *_NOT_FINITE],
    "finite": [[1.0], {"a": 1}, True, "x", *_NOT_FINITE],
    "nonnegative": [[1.0], {"a": 1}, True, "x", -1, *_NOT_FINITE],
    "positive": [[1.0], {"a": 1}, True, "x", 0, -1e-300, *_NOT_FINITE],
    "fraction": [[1.0], {"a": 1}, True, "x", 0, 1.5, -1e-300, *_NOT_FINITE],
    cli._text: [5, [1], {"a": 1}, True],
    cli._path: [5, ["o"], True],
    cli._flag: ["yes", 1, [True]],
    cli._kernel: [5, [1], True],
    cli._numbers: [5, {"a": 1}, True, [], ["x"], "x.csv", "nan",
                   *([x] for x in _NOT_FINITE)],
    cli._texts: [5, "x.csv", [], [1]],
    cli._checks: [5, "bogus", [], ["iiqc", "bogus"], "x.csv"],
}


def _wrong_values(opt):
    if hasattr(opt.parse, "choices"):
        wrong = [5, [opt.parse.choices[0]], True, "bogus"]
    else:
        wrong = list(_WRONG[getattr(opt.parse, "kind", opt.parse)])
    return wrong + ([None] if opt.default is not None else [])


@pytest.mark.parametrize("command, opt", [
    (command, opt) for command, (_, _, options) in cli.COMMANDS.items()
    for opt in options
], ids=lambda x: x if isinstance(x, str) else x.name)
def test_wrong_config_type_is_usage_error(tmp_path, capsys, command, opt):
    for i, value in enumerate(_wrong_values(opt)):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({opt.name: value}))
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        rc = cli.main([command, "--config", str(cfg), "--out", str(out),
                       "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2, value
        assert err.startswith(f"error: {cfg}: {opt.name} must be"), err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["check", "--target", "model", "--checks", "bogus"],
    ["check", "--target", "model", "--checks", "iiqc,bogus"],
    ["check", "--target", "model", "--checks="],
    ["check", "--target", "model", "--probes", "0"],
    ["check", "--target", "identity", "--probes", "0"],
    ["reproduce", "--probes", "-1"],
    ["check", "--target", "identity", "--dim", "0"],
    ["check", "--target", "identity", "--dim", "-1"],
], ids=["checks-bogus", "checks-partly-bogus", "checks-empty",
        "model-probes-0", "identity-probes-0", "reproduce-probes-negative",
        "identity-dim-0", "identity-dim-negative"])
def test_vacuous_check_is_usage_error(ws, tmp_path, capsys, args):
    name = next((flag[2:] for flag in ("--probes", "--dim") if flag in args),
                "checks")
    if "model" in args:
        args = args + ["--model", str(ws / "fit" / "model")]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {name} must be")
    assert not (tmp_path / "out").exists()


def test_out_of_memory_is_usage_error(tmp_path, capsys):
    # 2e9 probe channels: the supply matrix alone cannot be allocated
    capsys.readouterr()
    rc = cli.main(["check", "--target", "identity", "--dim=1000000000",
                   "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: out of memory: ")
    assert "Traceback" not in err


# Settings whose largest float64 array no machine's memory holds, and the
# settings each refusal names
_OVERSIZED = [
    (["gen-data", f"--horizon={2**60}", "--dt-ode=0.5"],
     ["horizon", "sample_dt", "levels"]),
    (["reproduce", f"--horizon={2**60}", "--dt-ode=0.5"],
     ["horizon", "sample_dt", "levels"]),
    (["check", "--target", "hh", f"--horizon={2**60}", "--dt-ode=0.5"],
     ["horizon", "dt_ode"]),
    (["check", "--target", "identity", f"--dim={2**63}"], ["dim"]),
    (["sweep-gamma", "--count", str(10**15)], ["count"]),
]


@pytest.mark.parametrize("args, names", _OVERSIZED,
                         ids=lambda x: x[0] if x[0] != "check" else x[2])
def test_settings_past_physical_memory_are_refused_first(ws, tmp_path, capsys,
                                                         args, names):
    # sized before anything is allocated: one line naming the setting, in
    # a fraction of a second and a few megabytes
    if args[0] == "sweep-gamma":
        args = args + ["--data", str(ws / "gen" / "data")]
    capsys.readouterr()
    tracemalloc.start()
    start = time.process_time()
    try:
        rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
        spent, peak = time.process_time() - start, \
            tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
    assert all(name in err for name in names), err
    assert "more than the" in err and "of physical memory" in err
    assert spent < 1.0
    assert peak < 2**23


def test_sweep_gamma_check_counts_what_each_fit_keeps(tmp_path, monkeypatch):
    # on the step data, 1000 more kept fits add no more traced bytes than
    # the check counts for 1000 fits
    assert cli.main(["gen-data", "--out", str(tmp_path / "gen"),
                     "--quiet"]) == 0
    counted = []
    check = cli.check_memory
    monkeypatch.setattr(cli, "check_memory",
                        lambda values, what: (counted.append(8 * values),
                                              check(values, what)))
    peaks = {}
    for count in (1000, 2000):
        tracemalloc.start()
        try:
            assert cli.main(["sweep-gamma", "--count", str(count), "--data",
                             str(tmp_path / "gen" / "data"), "--out",
                             str(tmp_path / str(count)), "--quiet"]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # counted[0] is the bytes counted for 1000 fits
    assert 0 < peaks[2000] - peaks[1000] <= counted[0]


def test_memory_error_without_message_is_one_line(tmp_path, capsys,
                                                  monkeypatch):
    def exhausted(**settings):
        raise MemoryError()

    monkeypatch.setattr(cli, "step_dataset", exhausted)
    capsys.readouterr()
    rc = cli.main(["gen-data", "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("args, says", [
    (["simulate", "--max-iter", "0"],
     "max_iter must be an integer at least 1, got 0"),
    (["simulate", "--max-iter", "-5"],
     "max_iter must be an integer at least 1, got -5"),
    (["simulate", "--tol", "-1"], "tol must be a non-negative finite number"),
    (["simulate", "--tol", "nan"], "tol must be a non-negative finite number"),
    (["check", "--target", "model", "--picard-tol", "-1"],
     "picard_tol must be a non-negative finite number"),
    (["reproduce", "--picard-tol=-1e-9"],
     "picard_tol must be a non-negative finite number"),
], ids=["max-iter-0", "max-iter-negative", "tol-negative", "tol-nan",
        "check-picard-tol-negative", "reproduce-picard-tol-negative"])
def test_picard_settings_out_of_range_are_usage_errors(ws, tmp_path, capsys,
                                                       args, says):
    if args[0] != "reproduce":
        args = args + ["--model", str(ws / "fit" / "model")]
    if args[0] == "simulate":
        write_signal(zeros(TimeGrid(4, 0.5)), tmp_path / "zero.csv")
        args = args + ["--input", str(tmp_path / "zero.csv")]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {says}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, name", [
    (["gen-data", "--horizon", "inf"], "horizon"),
    (["gen-data", "--levels=nan"], "levels"),
    (["fit", "--gamma", "inf"], "gamma"),
    (["fit", "--rho", "1" + "0" * 400], "rho"),
    (["check", "--target", "model", "--tol", "inf"], "tol"),
    (["check", "--target", "model", "--defect-tol", "inf"], "defect_tol"),
    (["check", "--target", "model", "--picard-tol", "inf"], "picard_tol"),
    (["check", "--target", "model", "--probe-scale", "0"], "probe_scale"),
], ids=["horizon-inf", "levels-nan", "gamma-inf", "rho-huge", "tol-inf",
        "defect-tol-inf", "picard-tol-inf", "probe-scale-0"])
def test_out_of_range_number_flags_are_usage_errors(ws, tmp_path, capsys,
                                                    args, name):
    # an infinite tolerance or a zero probe amplitude would pass any check
    if args[0] == "fit":
        args = args + ["--data", str(ws / "gen" / "data")]
    if "model" in args:
        args = args + ["--model", str(ws / "fit" / "model")]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {name} must be a")
    assert "0" * 100 not in err
    assert not (tmp_path / "out").exists()


# Values at float range's edges and past numpy's index range, each of which
# the program refuses or runs on in a fraction of a second; none asks for a
# large grid (--dt-ode 1e-7) or many fits (sweep-gamma --count 2**31).
_EXTREMES = {"integer": [2**63], "count": [2**63]}
# Each command's settings besides the one under test, small enough for a
# fast run; the grid settings are checked on the channel (--target hh).
_BASE = {
    "gen-data": {"levels": [-6.0, -51.0], "horizon": 2.0},
    "check": {"target": "identity", "horizon": 2.0},
    "fit": {"scale_a": 978.7, "scale_b": 25390.0, "rho": 0.9},
    "simulate": {},
    "reproduce": {"levels": [-6.0, -51.0], "horizon": 2.0},
    "sweep-gamma": {"scale_a": 978.7, "scale_b": 25390.0, "count": 3},
}
# What a program run leaves as its complete report, by command.
_REPORT = {"gen-data": "gen_data_report.json", "check": "check_report.json",
           "fit": "fit_report.json", "simulate": "simulate_report.json",
           "reproduce": "report.json", "sweep-gamma": "sweep.csv"}


@pytest.mark.parametrize("command, opt, value", [
    (command, opt, value) for command, (_, _, options) in cli.COMMANDS.items()
    for opt in options if hasattr(opt.parse, "kind")
    for value in _EXTREMES.get(opt.parse.kind, [1e308, 5e-324])
] + [("gen-data", cli.LEVELS, [1e308]), ("reproduce", cli.LEVELS, [8e3])],
    ids=lambda x: x if isinstance(x, str) else getattr(x, "name", repr(x)))
def test_extreme_number_setting_ends_in_one_line_or_a_report(
        ws, tmp_path, command, opt, value):
    # a setting at an extreme, read from --config, ends in exit 2 with one
    # error line naming it, or in a run's exit code with its report; never
    # in a traceback or a numpy warning
    cfg = {**_BASE[command], opt.name: value}
    if command in ("fit", "sweep-gamma"):
        cfg["data"] = str(ws / "gen" / "data")
    if command == "simulate":
        write_signal(zeros(TimeGrid(4, 0.5)), tmp_path / "zero.csv")
        cfg.update(inputs=[str(tmp_path / "zero.csv")],
                   model=str(ws / "fit" / "model"))
    if command == "check" and opt.name in ("picard_tol", "defect_tol"):
        cfg.update(model=str(ws / "fit" / "model"), target="model")
    if command == "check" and opt in cli.GRID:
        cfg["target"] = "hh"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with contextlib.ExitStack() as stack:
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        seen = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", str(tmp_path / "cfg.json"),
                       "--out", str(out), "--quiet"])
    assert not seen, [str(w.message) for w in seen]
    lines = err.getvalue().splitlines()
    if rc == 2 or lines:
        assert rc in (1, 2) and len(lines) == 1, err.getvalue()
        assert lines[0].startswith("error: ")
        # tau and dim are refused by numpy's size limits or as samples and
        # channels of the probe stream; every other setting by its name
        if rc == 2 and opt.name not in ("tau", "dim"):
            assert (opt.name in lines[0]
                    or opt.name.replace("_", " ") in lines[0]), lines[0]
        return
    assert rc in (0, 1)
    assert (out / _REPORT[command]).stat().st_size > 0


# Small runs whose resolved configs the config property mutates
_SEEDS = {
    "gen-data": ["gen-data", "--levels=-6,-51", "--horizon", "2"],
    "check-hh": ["check", "--target", "hh", "--horizon", "2"],
    "check-identity": ["check", "--tau", "4", "--probes", "3"],
    "check-model": ["check", "--target", "model", "--model", "{fit}/model",
                    "--probes", "3"],
    "fit": ["fit", "--data", "{gen}/data", "--scale-a", "978.7",
            "--scale-b", "25390", "--rho", "0.9"],
    "simulate": ["simulate", "--model", "{fit}/model", "--input",
                 "{zero}"],
    "sweep-gamma": ["sweep-gamma", "--data", "{gen}/data", "--scale-a",
                    "978.7", "--scale-b", "25390", "--count", "3"],
    "reproduce": ["reproduce", "--levels=-6,-51", "--horizon", "2",
                  "--probes", "3"],
}
# Leaves the property puts in a config: JSON values no setting takes, and
# one of each type, used where the setting's own value is of another type
_ODD = [True, False, float("nan"), float("inf"), -float("inf"), 10**400]
_TYPED = ["text", {"key": 1}, [1], None]
_DEEP = "deeply nested"


@pytest.fixture(scope="module")
def config_seeds(ws, tmp_path_factory):
    """Each seed run's command and resolved config, by seed name."""
    root = tmp_path_factory.mktemp("seeds")
    zero = root / "zero.csv"
    write_signal(zeros(TimeGrid(4, 0.5)), zero)
    seeds = {}
    for name, args in _SEEDS.items():
        args = [a.format(fit=ws / "fit", gen=ws / "gen", zero=zero)
                for a in args]
        out = root / name
        assert cli.main(args + ["--out", str(out), "--quiet"]) in (0, 1)
        config = _read_json(next(out.glob("*_config.json")))
        seeds[name] = (args[0], config)
    return seeds


def _paths(node, path=()):
    """Every key or index path into a JSON value, outermost first."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _json_type(value):
    return {bool: "bool", int: "number", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_config_is_refused_in_one_line_or_runs(config_seeds, data,
                                                       tmp_path_factory):
    # a config file with odd leaves, wrong types, deep nesting or keys
    # taken out: exit 2 with one error line naming the file (refused as it
    # is read) or the setting at fault (refused as the run starts), or a
    # run's exit code with its complete report
    name = data.draw(st.sampled_from(sorted(config_seeds)))
    command, config = config_seeds[name]
    config = copy.deepcopy(config)
    deep, touched = None, set()
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(config))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        edit = data.draw(st.sampled_from(["odd", "typed", "nest", "delete"]))
        touched.add(path[0])
        if edit == "delete":
            del parent[path[-1]]
        elif edit == "odd":
            parent[path[-1]] = data.draw(st.sampled_from(_ODD))
        elif edit == "typed":
            parent[path[-1]] = data.draw(st.sampled_from(
                [v for v in _TYPED if _json_type(v) != _json_type(old)]))
        elif deep is None:  # past the recursion limit, written as text
            deep = (data.draw(st.sampled_from([2, 60, 5000])), old)
            parent[path[-1]] = _DEEP
        else:
            parent[path[-1]] = [[old]]
    text = json.dumps(config)
    if deep is not None:
        depth, old = deep
        text = text.replace(json.dumps(_DEEP), "[" * depth + json.dumps(old)
                            + "]" * depth, 1)
    work = tmp_path_factory.mktemp("mutated")
    path, out = work / "cfg.json", work / "out"
    path.write_text(text)
    with contextlib.ExitStack() as stack:
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        seen = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", str(path), "--out", str(out),
                       "--quiet"])
    assert not seen, [str(w.message) for w in seen]
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        if not out.exists():  # refused as the file is read
            assert lines[0].startswith(f"error: {path}: "), lines
            return
        options = {opt.name: opt for opt in cli.COMMANDS[command][2]}
        names = {spelled for key in touched if key in options
                 for spelled in (key, cli._flag_name(options[key])[2:])}
        assert any(spelled in lines[0] for spelled in names), (lines, text)
        return
    assert rc in (0, 1) and not lines, (rc, lines, text)
    report = out / _REPORT[command]
    assert report.stat().st_size > 0
    if report.suffix == ".json":
        assert isinstance(_read_json(report), dict)


def test_rho_out_of_range_is_usage_error(ws, tmp_path, capsys):
    # the flag is at fault, not the --data file, so no manifest is named,
    # and it is refused as it is read, before any output is written
    fit = ["fit", "--data", str(ws / "gen" / "data")]
    for command, rho in [(fit, "1.5"), (fit, "0"), (["reproduce"], "1.5"),
                         (["reproduce"], "-0.5")]:
        capsys.readouterr()
        rc = cli.main([*command, f"--rho={rho}",
                       "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: rho must be a number in (0, 1], got {float(rho)}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "sweep-gamma"])
def test_inline_kernel_fault_names_the_config_file(ws, tmp_path, capsys,
                                                   command):
    # a kernel given inline in a config file is named by that file, as a
    # --kernel file names itself, and the resolved config keeps it as given
    kernel = {"structure": "separable", "R": True, "p": 1,
              "scalar": {"kind": "gaussian", "sigma": 2.0}}
    config, file = tmp_path / "cfg.json", tmp_path / "k.json"
    config.write_text(json.dumps({"data": str(ws / "gen" / "data"),
                                  "kernel": kernel}))
    file.write_text(json.dumps(kernel))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config), "--out",
                     str(tmp_path / "inline"), "--quiet"]) == 2
    inline = capsys.readouterr().err
    assert cli.main([command, "--data", str(ws / "gen" / "data"), "--kernel",
                     str(file), "--out", str(tmp_path / "file"),
                     "--quiet"]) == 2
    assert inline == capsys.readouterr().err.replace(str(file), str(config))
    assert inline.startswith(f"error: {config}: malformed kernel {{'R': True")
    resolved = tmp_path / "inline" / f"{command.replace('-', '_')}_config.json"
    assert _read_json(resolved)["kernel"] == kernel


# Seeds of the config-naming property: a check, a fit on the tiny step data
# and gen-data, and what each one's complete report holds
_NAMING = {"check-identity": {"target", "violations", "passed"},
           "fit": {"gamma", "rkhs_norm", "risk", "certificate"},
           "gen-data": {"pairs", "samples", "levels", "ordering_consistent"}}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_config_fault_names_the_config_file(config_seeds, data,
                                            tmp_path_factory):
    # leaves of a config file replaced or deleted, run in process: no
    # exception escapes main; a value that its option's parser or the
    # kernel reader refuses ends in exit 2 with one error line starting
    # with the file's path; exit 0 or 1 comes with its complete report
    name = data.draw(st.sampled_from(sorted(_NAMING)))
    command, config = config_seeds[name]
    config = copy.deepcopy(config)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(config))))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(
                [*_ODD, *_TYPED, _DEEP]))
    options = {opt.name: opt for opt in cli.COMMANDS[command][2]}
    refused = False
    for key, value in config.items():
        if key in options and not (value is None
                                   and options[key].default is None):
            try:
                options[key].parse(value)
            except ValueError:
                refused = True
    text = json.dumps(config)
    if _DEEP in text:  # past the recursion limit: refused as it is read
        text, refused = text.replace(json.dumps(_DEEP),
                                     "[" * 5000 + "]" * 5000), True
    work = tmp_path_factory.mktemp("naming")
    path, out = work / "cfg.json", work / "out"
    path.write_text(text)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main([command, "--config", str(path), "--out", str(out),
                       "--quiet"])
    lines = err.getvalue().splitlines()
    if refused or "malformed kernel" in err.getvalue():
        assert rc == 2 and len(lines) == 1, (lines, text)
        assert lines[0].startswith(f"error: {path}: "), (lines, text)
    elif rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert rc in (0, 1) and not lines, (rc, lines, text)
        assert _NAMING[name] <= set(_read_json(out / _REPORT[command]))


def test_option_defaults_pass_their_own_parse():
    # resolved configs write the defaults, and --config reads them back
    for _, _, options in cli.COMMANDS.values():
        for opt in options:
            if opt.default is not None:
                written = json.dumps(opt.default, default=str)
                assert json.dumps(opt.parse(json.loads(written)),
                                  default=str) == written, opt.name


def _scaled_centers(bundle):
    np.save(bundle / "centers.npy", 1e200 * np.load(bundle / "centers.npy"))


def _huge_degree(bundle):
    meta = _read_json(bundle / "model.json")
    meta["kernel"]["scalar"]["d"] = 1e300
    (bundle / "model.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("scalar, edit", [
    ({"kind": "bilinear"}, _scaled_centers),
    ({"kind": "polynomial", "c": 1.0, "d": 1.0}, _huge_degree),
], ids=["bilinear-centers-1e200", "polynomial-degree-1e300"])
def test_bundle_of_nan_norm_is_usage_error(ws, tmp_path, capsys, scalar, edit):
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"structure": "separable", "R": "identity",
                                  "scalar": scalar}))
    assert cli.main(["fit", "--data", str(ws / "gen" / "data"),
                     "--kernel", str(kernel), "--scale-a", "978.7",
                     "--scale-b", "25390", "--out", str(tmp_path / "fit"),
                     "--quiet"]) == 0
    bundle = tmp_path / "fit" / "model"
    edit(bundle)
    capsys.readouterr()
    rc = cli.main(["check", "--target", "model", "--model", str(bundle),
                   "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bundle / 'model.json'}: ")
    assert "Traceback" not in err


def test_reproduce_of_zero_outputs_is_usage_error(tmp_path, capsys):
    # at the reversal potential every output is 0: errors have no scale
    capsys.readouterr()
    rc = cli.main(["reproduce", "--levels=12", "--horizon", "2", "--probes",
                   "2", "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: levels [12.0] give only zero outputs")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command", ["fit", "sweep-gamma"])
def test_layout_is_not_an_option(ws, tmp_path, capsys, command):
    # the Gram layout follows from the kernel
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layout": "auto"}))
    args = [command, "--data", str(ws / "gen" / "data"),
            "--out", str(tmp_path / "out"), "--quiet"]
    capsys.readouterr()
    assert cli.main(args + ["--config", str(cfg)]) == 2
    assert "unknown config key 'layout'" in capsys.readouterr().err
    assert cli.main(args + ["--layout", "auto"]) == 2


def test_model_may_name_its_manifest(ws, tmp_path):
    model = ws / "fit" / "model"
    write_signal(Signal(TimeGrid(4, 0.5), np.linspace(0.0, 40.0, 5)),
                 tmp_path / "u.csv")
    reports = []
    for location in (model, model / "model.json"):
        out = tmp_path / location.name
        assert cli.main(["check", "--target", "model", "--model", str(location),
                         "--probes", "5", "--out", str(out), "--quiet"]) == 0
        report = _read_json(out / "check_report.json")
        assert report.pop("model") == str(location)
        reports.append(report)
        assert cli.main(["simulate", "--model", str(location),
                         "--input", str(tmp_path / "u.csv"),
                         "--out", str(out), "--quiet"]) == 0
    assert reports[0] == reports[1]
    assert (tmp_path / "model" / "sim_u.csv").read_bytes() == \
        (tmp_path / "model.json" / "sim_u.csv").read_bytes()
    # the bundle's extra record (supply, scales) comes back with the model
    assert load_fitted(model / "model.json").extra == \
        _read_json(model / "model.json")["extra"]


def _same_files(a: Path, b: Path, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_resolved_config_round_trips(ws, tmp_path):
    out = tmp_path / "fit"
    assert cli.main(["fit", "--config", str(ws / "fit" / "fit_config.json"),
                     "--out", str(out), "--quiet"]) == 0
    bundle = sorted(p.name for p in (ws / "fit" / "model").iterdir())
    _same_files(ws / "fit", out, ["fit_report.json"])
    _same_files(ws / "fit" / "model", out / "model", bundle)
    first, again = tmp_path / "rep", tmp_path / "rep_again"
    assert cli.main(["reproduce", "--levels=-6,-109", "--probes", "5",
                     "--seed", "4", "--out", str(first), "--quiet"]) == 0
    assert cli.main(["reproduce", "--config",
                     str(first / "reproduce_config.json"),
                     "--out", str(again), "--quiet"]) == 0
    _same_files(first, again, ["report.json", "report.md"])
    _same_files(first / "model", again / "model", bundle)


@pytest.mark.parametrize("field, bad", [
    ("n", str),
    ("tau", lambda tau: tau + 0.9),
    ("m", float),
    ("p", lambda p: True),
    ("dt", str),
    ("gamma", repr),
    ("rkhs_norm", repr),
])
def test_model_manifest_field_types(ws, tmp_path, capsys, field, bad):
    # each value would pass a cast with int() or float(); none is of its kind
    shutil.copytree(ws / "fit" / "model", tmp_path / "model")
    path = tmp_path / "model" / "model.json"
    meta = _read_json(path)
    path.write_text(json.dumps({**meta, field: bad(meta[field])}))
    capsys.readouterr()
    rc = cli.main(["check", "--target", "model", "--model",
                   str(tmp_path / "model"), "--out", str(tmp_path / "out"),
                   "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: {field} must be ")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def wide_data(tmp_path_factory):
    """A 60-trajectory dataset on a 7-sample grid, m = 2, p = 1."""
    root = tmp_path_factory.mktemp("wide") / "data"
    grid = TimeGrid(6, 0.5)
    rng = np.random.default_rng(11)
    save_dataset(Dataset(tuple(random_signal(grid, 2, rng) for _ in range(60)),
                         tuple(random_signal(grid, 1, rng) for _ in range(60))),
                 root)
    return root


@pytest.fixture(scope="module")
def wide_model(wide_data, tmp_path_factory):
    """A fit of wide_data (m = 2, p = 1) under a gain supply."""
    out = tmp_path_factory.mktemp("widefit")
    rc = cli.main(["fit", "--data", str(wide_data), "--supply", "gain",
                   "--delta", "4", "--gamma", "1", "--out", str(out),
                   "--quiet"])
    assert rc == 0
    return out / "model"


def _lines_edit(edit):
    """Edit of y_037.csv's lines (header first, each without its \\r\\n)."""
    def apply(text):
        return "\r\n".join(edit(text.split("\r\n")[:-1])) + "\r\n"
    return apply


# One edit of y_037.csv each, and the file the error names (None where the
# dataset loads): the outcome of reading every file alone, one by one.
_ONE_FILE_EDITS = {
    "empty-line": (_lines_edit(lambda ls: ls[:3] + [""] + ls[3:]), None),
    "no-final-newline": (lambda text: text[:-2], None),
    "blank-line": (_lines_edit(lambda ls: ls[:3] + ["  "] + ls[3:]),
                   "y_037.csv"),
    "extra-column": (_lines_edit(lambda ls: ls[:2] + [ls[2] + ",1.5"]
                                 + ls[3:]), "y_037.csv"),
    "abc-field": (_lines_edit(lambda ls: ls[:4] + [ls[4].split(",")[0]
                                                   + ",abc"] + ls[5:]),
                  "y_037.csv"),
    "drop-last-row": (_lines_edit(lambda ls: ls[:-1]), "y_037.csv"),
    "drop-middle-row": (_lines_edit(lambda ls: ls[:3] + ls[4:]), "y_037.csv"),
    "add-row": (_lines_edit(lambda ls: ls + ["3.5,0.25"]), "y_037.csv"),
    "lf-line-ends": (lambda text: text.replace("\r\n", "\n"), None),
}


@pytest.mark.parametrize("case", sorted(_ONE_FILE_EDITS))
def test_one_file_edit_moves_no_sample(wide_data, tmp_path, capsys, case):
    edit, named = _ONE_FILE_EDITS[case]
    root = tmp_path / "data"
    shutil.copytree(wide_data, root)
    path = root / "y_037.csv"
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    if named is None:
        data = load_dataset(root)
        for i in range(60):
            for side, values in (("u", data.inputs[i]), ("y", data.outputs[i])):
                alone = np.loadtxt(root / f"{side}_{i:03d}.csv",
                                   delimiter=",", skiprows=1, ndmin=2)
                assert values.tobytes() == alone[:, 1:].tobytes()
        return
    capsys.readouterr()
    rc = cli.main(["fit", "--data", str(root), "--out", str(tmp_path / "out"),
                   "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {root / named}: ")
    assert "Traceback" not in err


# JSON values of every type, and which of them each manifest field accepts
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
_OWN_TYPE = {
    "dt": lambda v: type(v) in (int, float),
    "tau": lambda v: type(v) is int,
    "m": lambda v: type(v) is int,
    "p": lambda v: type(v) is int,
    "pairs": lambda v: type(v) is list,
}
_DIRECTORIES = ["", ".", "sub", "sub/"]


@st.composite
def _manifest_faults(draw):
    """(kind, where, value) faults, each of which alone breaks a manifest."""
    kind = draw(st.sampled_from(["missing", "wrong-type", "entry",
                                 "name-missing", "name-type", "directory"]))
    if kind in ("missing", "wrong-type"):
        key = draw(st.sampled_from(sorted(_OWN_TYPE)))
        own = _OWN_TYPE[key]
        return kind, key, draw(_JSON_VALUES.filter(lambda v: not own(v)))
    where = (draw(st.integers(0, 1)), draw(st.sampled_from(["input",
                                                             "output"])))
    if kind == "directory":
        return kind, where, draw(st.sampled_from(_DIRECTORIES))
    if kind == "name-missing":
        return kind, where, None
    unlike = dict if kind == "entry" else str
    return kind, where, draw(_JSON_VALUES.filter(
        lambda v: not isinstance(v, unlike)))


def _break(meta, faults):
    """meta with the faults applied in order; a fault in a pair entry that
    an earlier fault removed is skipped."""
    for kind, where, value in faults:
        pairs = meta.get("pairs")
        if kind == "missing":
            meta.pop(where, None)
        elif kind == "wrong-type":
            meta[where] = value
        elif isinstance(pairs, list) and isinstance(pairs[where[0]], dict):
            if kind == "entry":
                pairs[where[0]] = value
            elif kind == "name-missing":
                pairs[where[0]].pop(where[1], None)
            else:
                pairs[where[0]][where[1]] = value
    return meta


@settings(max_examples=60)
@given(faults=st.lists(_manifest_faults(), min_size=1, max_size=3))
def test_generated_manifest_faults_name_a_file(ws, tmp_path_factory, faults):
    # every fault leaves the manifest broken, and a later fault that cannot
    # apply (its pair is gone) is skipped: fit always refuses the dataset
    root = tmp_path_factory.mktemp("manifest")
    shutil.copytree(ws / "gen" / "data", root / "data")
    (root / "data" / "sub").mkdir()
    manifest = root / "data" / "manifest.json"
    meta = _break(_read_json(manifest), faults)
    manifest.write_text(json.dumps(meta))
    named = [manifest] + [root / "data" / d for d in _DIRECTORIES]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["fit", "--data", str(root / "data"),
                       "--out", str(root / "out"), "--quiet"])
    err = err.getvalue()
    assert rc == 2
    assert any(err.startswith(f"error: {path}: ") for path in named), err
    assert "Traceback" not in err


# Leaves a bundle's supply record or kernel matrix may be edited to: wrong
# JSON types, numbers past float range or at its edge, and nested lists.
_LEAVES = st.sampled_from([
    True, False, "1", None, float("nan"), float("inf"), -float("inf"), 1e308,
    -1e308, 10**400, 0.5, 2, [], [1.0], [[1.0]], {"a": 1}])
_SUPPLIES = ({"kind": "custom", "phi": [[0.0, 1.0], [1.0, 0.0]], "m": 1, "p": 1},
             {"kind": "gain", "delta": 4.0, "m": 1, "p": 1},
             {"kind": "passivity", "m": 1, "p": 1})
_DELETE = object()
_PHI_PATHS = ([["phi"]], [["phi", 1]], [["phi", 0, 0]], [["phi", 0, 1]],
              [["phi", 0, 1], ["phi", 1, 0]])


@st.composite
def _bundle_edits(draw):
    """(supply record, kernel R or None, paths, leaf): a bundle's
    extra.supply, and its kernel's R unless None, are set to these, then the
    leaf (or _DELETE) is put at every path, a key path into the supply
    record or, from "R", into the kernel."""
    target = draw(st.sampled_from(["R", "supply", "phi"]))
    supply = draw(st.sampled_from(_SUPPLIES[:1] if target == "phi"
                                  else _SUPPLIES))
    if target == "R":
        paths = [draw(st.sampled_from([["R"], ["R", 0], ["R", 0, 0]]))]
    elif target == "phi":
        paths = draw(st.sampled_from(_PHI_PATHS))
    else:
        paths = [[draw(st.sampled_from(sorted(supply)))]]
    value = draw(st.one_of(_LEAVES, st.just(_DELETE)))
    return supply, [[1.0]] if target == "R" else None, paths, value


def _apply_edit(meta, supply, R, paths, value):
    meta["extra"]["supply"] = supply = json.loads(json.dumps(supply))
    if R is not None:
        meta["kernel"]["R"] = R
    for path in paths:
        node = meta["kernel"] if path[0] == "R" else supply
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return meta


@settings(max_examples=60)
@given(edit=_bundle_edits())
# edits that once loaded silently or made numpy warn
@example(edit=(_SUPPLIES[0], None, [["phi", 0, 0]], float("inf")))
@example(edit=(_SUPPLIES[0], None, [["phi", 0, 1]], "1"))
@example(edit=(_SUPPLIES[0], None, [["phi", 0, 1]], True))
@example(edit=(_SUPPLIES[0], None, _PHI_PATHS[-1], 1e308))
@example(edit=(_SUPPLIES[0], [[1.0]], [["R", 0, 0]], "1"))
@example(edit=(_SUPPLIES[0], [[1.0]], [["R", 0, 0]], True))
def test_edited_supply_or_kernel_matrix_is_refused_or_checked(ws, edit):
    # an edit of the bundle's supply record or kernel matrix
    _check_edited_bundle(ws, lambda meta: _apply_edit(meta, *edit))


def _check_edited_bundle(ws, edit, also=()):
    """check --target model of ws's fit bundle, its model.json passed
    through edit, gives exit 2 with one error line naming model.json (led
    by it, or by a bundle file named in also whose shape it contradicts),
    or exit 0/1 with a complete report; never a warning or a traceback."""
    with contextlib.ExitStack() as stack:
        root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        shutil.copytree(ws / "fit" / "model", root / "model")
        meta = root / "model" / "model.json"
        meta.write_text(json.dumps(edit(_read_json(meta))))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        seen = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = cli.main(["check", "--target", "model", "--model",
                       str(root / "model"), "--probes", "3",
                       "--out", str(root / "out"), "--quiet"])
        assert not seen, [str(w.message) for w in seen]
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, err.getvalue()
            assert lines[0].startswith(tuple(
                f"error: {root / 'model' / name}: "
                for name in ("model.json", *also))), lines[0]
            assert str(meta) in lines[0]
            assert "0" * 100 not in lines[0]  # a huge value is shortened
            return
        assert rc in (0, 1) and not err.getvalue()
        report = _read_json(root / "out" / "check_report.json")
        assert report["passed"] == (rc == 0) == (not report["violations"])
        if "epsilon" in report:  # the contraction holds: every check ran
            assert {"iiqc", "defect"} <= set(report)
        else:  # refused before any probe, for one stated reason
            assert len(report["violations"]) == 1 and rc == 1


def _json_paths(node, path=()):
    """Every key or index path into a JSON value, the root left out."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _replaced(obj, path, value):
    """A copy of obj with value (or _DELETE, a deletion) at path; a path
    that an earlier edit removed leaves the copy as it is."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return obj
    if not isinstance(node, (dict, list)) or (
            isinstance(node, list) and not -len(node) <= path[-1] < len(node)):
        return obj
    if value is _DELETE:
        node.pop(path[-1], None) if isinstance(node, dict) else node.pop(
            path[-1])
    else:
        node[path[-1]] = value
    return obj


# What a kernel or model file's leaves may be replaced with: _LEAVES, the
# names of structures and scalar kinds, a deeply nested list, or nothing.
_NAMES = ["separable", "conjugated", "sum", "causal_diagonal", "bogus",
          "identity", *kernels.SCALAR_KINDS]
_FILE_LEAVES = st.one_of(_LEAVES, st.sampled_from(_NAMES),
                         st.sampled_from([0, -1, 1e-300, 3, [[[[[1.0]]]]]]),
                         st.just(_DELETE))
_GAUSSIAN = {"structure": "separable", "R": [[0.5]], "p": 1,
             "scalar": {"kind": "gaussian", "sigma": 2.0}}
# Kernel files that fit takes on ws's data (one channel, 5 samples).
_KERNEL_FILES = [
    cli.KERNEL.default, _GAUSSIAN,
    {"structure": "conjugated", "R": [[0.7]],
     "scalar": {"kind": "inverse_power", "c": 2.0, "d": 1.0}},
    {"structure": "sum", "weights": [0.5, 0.5],
     "children": [_GAUSSIAN, {"structure": "separable",
                              "scalar": {"kind": "bilinear"}}]},
    {"structure": "causal_diagonal", "child": _GAUSSIAN},
    {"structure": "causal_diagonal", "children": [_GAUSSIAN] * 5},
]


@st.composite
def _file_edits(draw, base):
    """base with one or two leaves replaced or keys deleted."""
    obj = base
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_json_paths(obj))
        if not paths:
            break
        obj = _replaced(obj, draw(st.sampled_from(paths)), draw(_FILE_LEAVES))
    return obj


@settings(max_examples=60, deadline=None)
@given(kernel=st.sampled_from(_KERNEL_FILES).flatmap(_file_edits))
# kernels whose norm curve once left float range and made numpy warn
@example(kernel={"structure": "causal_diagonal",
                 "child": {**_GAUSSIAN, "R": [[1e-300]]}})
@example(kernel={"structure": "conjugated", "R": [[0.7]],
                 "scalar": {"kind": "inverse_power", "c": 1e-300, "d": 1.0}})
# per-sample children short of the grid, once refused without a file name
@example(kernel={"structure": "causal_diagonal", "children": [_GAUSSIAN] * 4})
def test_edited_kernel_file_is_refused_or_fit(ws, kernel):
    # fit --kernel with an edited kernel file exits 2 with one error line
    # naming that file (or the dataset, whose fault an extreme kernel can
    # bring out; or a zero Gram, R = 0, as tuning refuses it for any data),
    # or exits 0 with a complete report; never a warning or a traceback
    manifest = ws / "gen" / "data" / "manifest.json"
    with contextlib.ExitStack() as stack:
        root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        path = root / "kernel.json"
        path.write_text(json.dumps(kernel))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        seen = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = cli.main(["fit", "--data", str(ws / "gen" / "data"),
                       "--scale-a", "978.7", "--scale-b", "25390",
                       "--kernel", str(path), "--rho", "0.9",
                       "--out", str(root / "out"), "--quiet"])
        assert not seen, [str(w.message) for w in seen]
        lines = err.getvalue().splitlines()
        if rc == 2:
            assert len(lines) == 1, err.getvalue()
            assert lines[0].startswith((
                f"error: {path}: ", f"error: {manifest}: ",
                "error: the Gram matrix has no positive eigenvalue")), lines[0]
            return
        assert rc == 0 and not lines
        report = _read_json(root / "out" / "fit_report.json")
        assert set(report) == {"certificate", "gamma", "n", "risk",
                               "rkhs_norm", "scale", "supply", "warnings"}
        assert report["rkhs_norm"] <= 0.9


# model.json leaves besides the supply record and the kernel matrix, each
# a key path of the bundle that ws's fit writes
_MODEL_PATHS = [("n",), ("tau",), ("dt",), ("gamma",), ("rkhs_norm",),
                ("m",), ("p",), ("format",), ("kernel",),
                ("kernel", "structure"), ("kernel", "p"),
                ("kernel", "scalar"), ("kernel", "scalar", "kind"),
                ("kernel", "scalar", "sigma"), ("kernel", "scalar", "c"),
                ("kernel", "scalar", "d")]
# scalar kernels put in a bundle before its leaves are edited: the fit's
# own and others whose parameters the paths above reach
_BUNDLE_SCALARS = [None, {"kind": "gaussian", "sigma": 2.0},
                   {"kind": "polynomial", "c": 1.0, "d": 2},
                   {"kind": "inverse_power", "c": 2.0, "d": 1.0}]
_MODEL_EDITS = st.lists(st.tuples(st.sampled_from(_MODEL_PATHS),
                                  _FILE_LEAVES), min_size=1, max_size=2)


def _edit_model(meta, scalar, edits):
    if scalar is not None:
        meta["kernel"]["scalar"] = scalar
    for path, value in edits:
        meta = _replaced(meta, path, value)
    return meta


@settings(max_examples=60, deadline=None)
@given(scalar=st.sampled_from(_BUNDLE_SCALARS), edits=_MODEL_EDITS)
# per-sample children short of the grid, once refused without a file name
@example(scalar=None, edits=[(("kernel",), {
    "structure": "causal_diagonal", "children": [cli.KERNEL.default] * 4})])
def test_edited_model_leaf_is_refused_or_checked(ws, scalar, edits):
    # an edit of a model.json leaf: the grid, counts, gamma, stored norm,
    # format and the kernel's structure, kind and parameters
    _check_edited_bundle(ws, lambda meta: _edit_model(meta, scalar, edits),
                         also=rkhs.BUNDLE_FILES)


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A norm-tuned fit of 4 trajectories on a 4-sample grid, m = p = 1."""
    root = tmp_path_factory.mktemp("tiny")
    grid = TimeGrid(3)
    rng = np.random.default_rng(12)
    inputs = rng.normal(size=(4, grid.size, 1))
    save_dataset(Dataset(inputs, 0.5 * inputs + 0.1 * np.tanh(inputs), grid),
                 root / "data")
    rc = cli.main(["fit", "--data", str(root / "data"), "--rho", "0.9",
                   "--out", str(root / "fit"), "--quiet"])
    assert rc == 0
    return root / "fit" / "model"


# Scalar kernels a forger may put in a bundle: the default, a gaussian the
# slope rule proves (sigma = 2) and one it does not (sigma = 1), and the
# bilinear kernel, proven only while its channel matrix R is.
_FORGED_SCALARS = [None, {"kind": "gaussian", "sigma": 2.0},
                   {"kind": "gaussian", "sigma": 1.0}, {"kind": "bilinear"}]


@settings(max_examples=60, deadline=None)
@given(scalar=st.sampled_from(_FORGED_SCALARS),
       radius=st.sampled_from([None, 0.5, 2.0]),
       consistent=st.sampled_from([True, True, False]),
       scale=st.sampled_from([1e-3, 0.5, 1.0, 1.2, 1e3]),
       gamma_factor=st.sampled_from([1.0, 0.25, 4.0]),
       stored_norm=st.sampled_from([None, None, None, 0.5, 1.5]),
       gain=st.booleans(),
       leaves=st.one_of(st.just([]), _MODEL_EDITS))
# a forged fit of norm 1.08 under the gain supply: only the norm refuses it
@example(scalar=None, radius=None, consistent=True, scale=1.2,
         gamma_factor=1.0, stored_norm=None, gain=True, leaves=[])
def test_passing_check_of_edited_bundle_is_sound(tiny_model, scalar, radius,
                                                 consistent, scale,
                                                 gamma_factor, stored_norm,
                                                 gain, leaves):
    # A bundle's kernel, channel matrix, gamma, norm and supply (to a gain
    # supply, whose contraction factor is 0 at any norm) are edited; when
    # consistent, targets and norm are then forged to solve the edited fit,
    # and coefficients, targets and norm are scaled together, which keeps
    # a forged fit solving; then up to two more model.json leaves may be
    # edited.  Whenever check passes the bundle, the loaded kernel is PROVEN
    # by the library and by the oracle's recursive rule, and an independent
    # per-pair recomputation of the norm sqrt(c' G c) is below 1.
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "model"
        shutil.copytree(tiny_model, bundle)
        meta = _read_json(bundle / "model.json")
        if scalar is not None:
            meta["kernel"]["scalar"] = scalar
        if radius is not None:
            meta["kernel"]["R"] = [[radius]]
        meta["gamma"] *= gamma_factor
        if gain:
            meta["extra"]["supply"] = {"kind": "gain", "delta": 4.0,
                                       "m": 1, "p": 1}
        X, c, y = (np.load(bundle / name) for name in rkhs.BUNDLE_FILES)
        if consistent:
            gram = build_gram(kernels.kernel_from_json(meta["kernel"], 1), X)
            gc = gram.apply(c)
            y = gc + meta["gamma"] * c
            meta["rkhs_norm"] = float(np.sqrt(max(np.vdot(c, gc), 0.0)))
        c, y = scale * c, scale * y
        meta["rkhs_norm"] *= scale
        if stored_norm is not None:
            meta["rkhs_norm"] = stored_norm
        np.save(bundle / "coefficients.npy", c)
        np.save(bundle / "targets.npy", y)
        meta = _edit_model(meta, None, leaves)
        (bundle / "model.json").write_text(json.dumps(meta))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["check", "--target", "model", "--model",
                           str(bundle), "--probes", "5",
                           "--out", str(Path(tmp) / "out"), "--quiet"])
        if rc == 2:
            assert err.getvalue().startswith(f"error: {bundle}"), \
                err.getvalue()
        if rc != 0:
            return
        model = load_fitted(bundle)
        kernel, grid = model.kernel, model.grid
        assert kernels.certify_nonexpansive(kernel) == kernels.PROVEN
        assert oracle.certificates(kernel)[0]
        G = np.block([[oracle.block_matrix(kernel, Signal(grid, a),
                                           Signal(grid, b)) for b in X]
                      for a in X])
        assert np.sqrt(c.reshape(-1) @ G @ c.reshape(-1)) < 1.0


@st.composite
def _npy_edits(draw):
    """(file, kind, where, byte): a byte edit of one of a bundle's .npy
    files, its byte at the fraction where of the file set to byte, or the
    file cut to that fraction of its length."""
    return (draw(st.sampled_from(["centers.npy", "coefficients.npy",
                                  "targets.npy"])),
            draw(st.sampled_from(["byte", "cut"])),
            draw(st.floats(0.0, 1.0, exclude_max=True)),
            draw(st.integers(0, 255)))


@settings(max_examples=50, deadline=None)
@given(edit=_npy_edits())
# a target's exponent byte set to 0x60 (about 1e308): its norm overflowed
# outside the residual check's errstate, and numpy warned
@example(edit=("targets.npy", "byte", 0.99609375, 96))
def test_edited_npy_file_is_refused_or_checked(ws, edit):
    # a byte edit or truncation of a bundle .npy file gives exit 2 with one
    # error line naming that file, or exit 0/1 with a complete report; only
    # an edit of the data that leaves the header whole may instead fail the
    # stored fit's checks, which span every stack and name the bundle's
    # model.json; never a warning or a traceback
    name, kind, where, byte = edit
    with contextlib.ExitStack() as stack:
        root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        shutil.copytree(ws / "fit" / "model", root / "model")
        path = root / "model" / name
        raw = bytearray(path.read_bytes())
        data_start = len(raw) - np.load(path).nbytes
        at = int(where * len(raw))
        if kind == "byte":
            raw[at] = byte
        else:
            del raw[at:]
        path.write_bytes(bytes(raw))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        seen = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = cli.main(["check", "--target", "model", "--model",
                       str(root / "model"), "--probes", "3",
                       "--out", str(root / "out"), "--quiet"])
        assert not seen, [str(w.message) for w in seen]
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, err.getvalue()
            named = [path]
            if kind == "byte" and at >= data_start:
                named.append(root / "model" / "model.json")
            assert any(lines[0].startswith(f"error: {p}: ") for p in named), \
                lines[0]
            return
        assert rc in (0, 1) and not err.getvalue()
        report = _read_json(root / "out" / "check_report.json")
        assert report["passed"] == (rc == 0) == (not report["violations"])
        assert {"iiqc", "defect"} <= set(report)


def _csv_edit(kind: str, text: str, draw) -> bytes:
    """A dataset CSV's text after one edit of the kind, its places drawn."""
    lines = text.split("\r\n")[:-1]
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    if kind == "digit":  # a digit of a mantissa, so no exponent grows
        mantissa = cells[col].lower().split("e")[0]
        spots = [i for i, c in enumerate(mantissa) if c.isdigit()]
        i = draw(st.sampled_from(spots))
        new = draw(st.sampled_from([d for d in "0123456789"
                                    if d != mantissa[i]]))
        cells[col] = cells[col][:i] + new + cells[col][i + 1:]
    elif kind == "drop-cell":
        row = draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(",")
        del cells[draw(st.integers(0, len(cells) - 1))]
    elif kind in ("nan", "inf", "-inf"):
        cells[col] = kind
    elif kind == "drift":
        cells[0] = repr(float(cells[0]) + draw(st.sampled_from([1e-6, 0.1])))
    lines[row] = ",".join(cells)
    if kind in ("empty-line", "blank-line"):
        lines.insert(draw(st.integers(0, len(lines))),
                     "" if kind == "empty-line" else "  ")
    raw = ("\r\n".join(lines) + "\r\n").encode()
    if kind == "not-utf8":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


_CSV_KINDS = ["digit", "drop-cell", "empty-line", "blank-line", "nan", "inf",
              "-inf", "not-utf8", "drift"]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["u_000.csv", "u_001.csv", "y_000.csv",
                             "y_001.csv"]),
       kind=st.sampled_from(_CSV_KINDS), data=st.data())
def test_edited_dataset_csv_is_refused_or_fit(ws, name, kind, data):
    # one edit of one CSV of a dataset gives exit 2 with one error line
    # naming that CSV, or a fit; never a warning or a traceback
    with contextlib.ExitStack() as stack:
        root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        shutil.copytree(ws / "gen" / "data", root / "data")
        path = root / "data" / name
        path.write_bytes(_csv_edit(kind, path.read_bytes().decode(),
                                   data.draw))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        seen = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = cli.main(["fit", "--data", str(root / "data"),
                       "--scale-a", "978.7", "--scale-b", "25390",
                       "--rho", "0.9", "--out", str(root / "out"), "--quiet"])
        assert not seen, [str(w.message) for w in seen]
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, err.getvalue()
            assert lines[0].startswith(f"error: {path}: "), lines[0]
            return
        assert rc == 0 and not err.getvalue()
        assert (root / "out" / "model" / "model.json").is_file()
        assert "rkhs_norm" in _read_json(root / "out" / "fit_report.json")
