import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iqcfit
from iqcfit import cli
from iqcfit.rkhs import load_fitted
from iqcfit.signals import (
    Dataset,
    Signal,
    TimeGrid,
    load_dataset,
    random_signal,
    read_signal,
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


def _extra(**record):
    """Edit of a bundle's model.json that overrides fields of its extra record."""
    return lambda meta: {**meta, "extra": {**meta["extra"], **record}}


@pytest.mark.parametrize("target, edit", [
    ("kernel", lambda _: {"structure": "sum", "weights": 5, "children": []}),
    ("kernel", lambda _: {"structure": "separable", "scalar": "gaussian"}),
    ("data", lambda _: []),
    ("data", lambda meta: {**meta, "dt": None}),
    ("model", lambda meta: {**meta, "kernel": {**meta["kernel"], "p": "x"}}),
    ("model", lambda meta: {**meta, "extra": 5}),
    ("model", _extra(supply=5)),
    ("simulate", _extra(supply=5)),
    ("model", _extra(supply={"kind": "gain", "delta": [1]})),
    ("simulate", _extra(supply={"kind": "gain", "delta": [1]})),
    ("simulate", _extra(scale=5)),
    ("simulate", _extra(scale={"a": 1})),
], ids=["sum-weights", "scalar-name", "manifest-list", "dt-null", "kernel-p",
        "extra-not-object", "check-supply-number", "simulate-supply-number",
        "check-gain-delta-list", "simulate-gain-delta-list",
        "simulate-scale-number", "simulate-scale-without-b"])
def test_malformed_json_is_usage_error(ws, tmp_path, capsys, target, edit):
    shutil.copytree(ws / "gen" / "data", tmp_path / "data")
    shutil.copytree(ws / "fit" / "model", tmp_path / "model")
    path = {"kernel": tmp_path / "kernel.json",
            "data": tmp_path / "data" / "manifest.json",
            "model": tmp_path / "model" / "model.json",
            "simulate": tmp_path / "model" / "model.json"}[target]
    path.write_text(json.dumps(edit(_read_json(path) if path.exists() else None)))
    if target == "model":
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
    if target in ("model", "simulate"):
        assert str(path) in err


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
    return data / "manifest.json"


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
    (_manifest(tau="12"), "tau must be an integer"),
    (_manifest(m=1.0), "m must be an integer"),
    (_manifest(p=None), "p must be an integer"),
    (_manifest(pairs=[]), "pairs must be a non-empty list"),
    (_manifest(pairs={"a": 1}), "pairs must be a non-empty list"),
    (_cut_first_output, "all trajectories must share one grid"),
    (_not_utf8, "not UTF-8 text"),
], ids=["dt-text", "dt-negative", "dt-zero", "dt-bool", "tau-text",
        "m-float", "p-null", "pairs-empty", "pairs-object", "ragged-grid",
        "csv-not-utf8"])
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
    n, m, p = meta["n"], meta["m"], meta["p"]
    for name, prefix, d in (("centers", "center", m),
                            ("coefficients", "coeff", p),
                            ("targets", "target", p)):
        stacked = read_signal(model / f"{name}.csv", dt=meta["dt"])
        for i in range(n):
            write_signal(Signal(stacked.grid, stacked.values[:, i * d:(i + 1) * d]),
                         model / f"{prefix}_{i:03d}.csv")
        (model / f"{name}.csv").unlink()
    (model / "model.json").write_text(
        json.dumps({**meta, "format": "iqcfit-model"}))
    return model / "model.json"


def _drop_coefficient_column(model):
    path = model / "coefficients.csv"
    coeff = read_signal(path)
    write_signal(Signal(coeff.grid, coeff.values[:, :-1]), path)
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


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("damage", [_old_layout, _drop_coefficient_column,
                                    _miscount, _truncate_manifest],
                         ids=["old-layout", "missing-column", "n-mismatch",
                              "not-json"])
def test_damaged_bundle_is_usage_error(ws, tmp_path, capsys, command, damage):
    model = tmp_path / "model"
    shutil.copytree(ws / "fit" / "model", model)
    offending = damage(model)
    if command == "check":
        args = ["check", "--target", "model", "--model", str(model)]
    else:
        meta = _read_json(ws / "fit" / "model" / "model.json")
        write_signal(zeros(TimeGrid(meta["tau"], meta["dt"])),
                     tmp_path / "zero.csv")
        args = ["simulate", "--model", str(model),
                "--input", str(tmp_path / "zero.csv")]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert str(offending) in err


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
    assert f"count must be at least 1, got {count}" in capsys.readouterr().err
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
    for rel in ("fit_report.json", "model/model.json", "model/coefficients.csv"):
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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy must not come back
    src = str(Path(iqcfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, iqcfit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


# JSON values each kind of option row refuses in a config file.  A row whose
# default is not None also refuses null.
_WRONG = {
    cli._number: [[1.0], {"a": 1}, True, "x"],
    cli._integer: [[1], {"a": 1}, True, "x", 2.5],
    cli._count: [[1], True, 2.5, 0, -3],
    cli._text: [5, [1], {"a": 1}, True],
    cli._path: [5, ["o"], True],
    cli._flag: ["yes", 1, [True]],
    cli._kernel: [5, [1], True],
    cli._numbers: [5, {"a": 1}, True, [], ["x"], "x.csv"],
    cli._texts: [5, "x.csv", [], [1]],
    cli._checks: [5, "bogus", [], ["iiqc", "bogus"], "x.csv"],
}


def _wrong_values(opt):
    if hasattr(opt.parse, "choices"):
        wrong = [5, [opt.parse.choices[0]], True, "bogus"]
    else:
        wrong = list(_WRONG[opt.parse])
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
        assert err.startswith(f"error: {opt.name} must be"), err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["check", "--target", "model", "--checks", "bogus"],
    ["check", "--target", "model", "--checks", "iiqc,bogus"],
    ["check", "--target", "model", "--checks="],
    ["check", "--target", "model", "--probes", "0"],
    ["check", "--target", "identity", "--probes", "0"],
    ["reproduce", "--probes", "-1"],
], ids=["checks-bogus", "checks-partly-bogus", "checks-empty",
        "model-probes-0", "identity-probes-0", "reproduce-probes-negative"])
def test_vacuous_check_is_usage_error(ws, tmp_path, capsys, args):
    name = "probes" if "--probes" in args else "checks"
    if "model" in args:
        args = args + ["--model", str(ws / "fit" / "model")]
    capsys.readouterr()
    rc = cli.main(args + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {name} must be")
    assert not (tmp_path / "out").exists()


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
    "drop-last-row": (_lines_edit(lambda ls: ls[:-1]), "manifest.json"),
    "drop-middle-row": (_lines_edit(lambda ls: ls[:3] + ls[4:]), "y_037.csv"),
    "add-row": (_lines_edit(lambda ls: ls + ["3.5,0.25"]), "manifest.json"),
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
            for side, signal in (("u", data.inputs[i]), ("y", data.outputs[i])):
                alone = np.loadtxt(root / f"{side}_{i:03d}.csv",
                                   delimiter=",", skiprows=1, ndmin=2)
                assert signal.values.tobytes() == alone[:, 1:].tobytes()
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
