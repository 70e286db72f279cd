"""Command line pipeline: data generation, property checks, fits, runs.

Exit codes: 0 all checks pass, 1 a property violation was found, 2 usage
or I/O error.  Every run writes a resolved-config JSON next to its outputs
and all file contents are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ContractionError,
    ConvergenceError,
    NumericalError,
    ShapeError,
    SignatureError,
)
from .hodgkin import (
    DEFAULT_LEVELS,
    INPUT_SCALE,
    OUTPUT_SCALE,
    check_step_ordering,
    monotonicity_witness,
    scale_dataset,
    step_dataset,
    write_figure1,
)
from .inversion import (
    causality_check_r,
    contraction_margin,
    picard_solve,
    simulate_r,
)
from .kernels import (
    PROVEN,
    SeparableKernel,
    certify_nonexpansive,
    is_causal,
    kernel_from_json,
    nonexpansive_defect,
    scaled_laplacian,
)
from .rkhs import (empirical_risk, fit, fit_many, load_fitted, save_fitted,
                   tune_gamma)
from .signals import (
    TimeGrid,
    csv_text,
    load_dataset,
    norm,
    random_signal,
    read_json,
    read_signal,
    save_dataset,
)
from .supply import (
    check_operator_iiqc,
    factor_phi,
    gain_supply,
    passivity_supply,
    scatter_dataset,
    supply_from_json,
    supply_to_json,
)

DEFAULT_SEED = 0

GEN_DEFAULTS = {
    "levels": list(DEFAULT_LEVELS),
    "horizon": 10.0,
    "sample_dt": 0.5,
    "dt_ode": 1e-3,
}

CHECK_DEFAULTS = {
    "target": "identity",
    "model": None,
    "supply": "passivity",
    "delta": None,
    "probes": 100,
    "probe_scale": 1.0,
    "tau": 20,
    "dt": 0.5,
    "dim": 1,
    "tol": 1e-8,
    "defect_tol": 1e-10,
    "checks": None,
    "picard_tol": None,
    "horizon": 10.0,
    "sample_dt": 0.5,
    "dt_ode": 1e-3,
}

FIT_DEFAULTS = {
    "data": None,
    "kernel": {"structure": "separable",
               "scalar": {"kind": "scaled_laplacian"}, "R": "identity"},
    "supply": "passivity",
    "delta": None,
    "gamma": None,
    "rho": 0.99,
    "scale_a": None,
    "scale_b": None,
    "layout": "auto",
}

SIM_DEFAULTS = {
    "model": None,
    "inputs": [],
    "tol": None,
    "max_iter": 10_000,
}

REPRO_DEFAULTS = {
    "levels": list(DEFAULT_LEVELS),
    "horizon": 10.0,
    "sample_dt": 0.5,
    "dt_ode": 1e-3,
    "rho": 0.99,
    "scale_a": INPUT_SCALE,
    "scale_b": OUTPUT_SCALE,
    "probes": 100,
    "tol": 1e-8,
    "picard_tol": None,
    "error_bound": 0.15,
}

SWEEP_DEFAULTS = {
    "data": None,
    "kernel": {"structure": "separable",
               "scalar": {"kind": "scaled_laplacian"}, "R": "identity"},
    "supply": "passivity",
    "delta": None,
    "scale_a": None,
    "scale_b": None,
    "gamma_min": 1e-6,
    "gamma_max": 1.0,
    "count": 25,
    "layout": "auto",
}


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _csv_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _resolve(defaults: dict, file_cfg: dict, args) -> dict:
    cfg = {k: (list(v) if isinstance(v, (list, tuple)) else v)
           for k, v in defaults.items()}
    for key, value in file_cfg.items():
        name = key.replace("-", "_")
        if name in ("command", "seed", "out", "quiet"):
            continue
        if name not in cfg:
            raise ValueError(f"unknown config key {key!r}")
        cfg[name] = value
    for name in cfg:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    return cfg


def _build_supply(cfg: dict, m: int, p: int):
    kind = cfg["supply"]
    if kind == "passivity":
        if m != p:
            raise ShapeError("passivity supply needs matching input/output dims")
        return passivity_supply(m)
    if kind == "gain":
        if cfg["delta"] is None:
            raise ValueError("gain supply requires --delta")
        return gain_supply(float(cfg["delta"]), m=m, p=p)
    raise ValueError(f"unknown supply kind {kind!r}")


def _build_kernel(spec, p: int):
    if isinstance(spec, (str, Path)):
        spec = read_json(spec)
    if not isinstance(spec, dict):
        raise ValueError("kernel config must be a JSON object or a path to one")
    obj = dict(spec)
    if obj.get("structure", "separable") in ("separable", "conjugated"):
        obj.setdefault("p", p)
    return kernel_from_json(obj)


def _probe_pairs(grid: TimeGrid, dim: int, count: int, rng, scale: float):
    return [
        (random_signal(grid, dim, rng, scale=scale),
         random_signal(grid, dim, rng, scale=scale))
        for _ in range(count)
    ]


def _run_csv(path: Path, grid: TimeGrid, uvals: np.ndarray,
             yvals: np.ndarray) -> None:
    header = (["t"] + [f"u{i + 1}" for i in range(uvals.shape[1])]
              + [f"y{i + 1}" for i in range(yvals.shape[1])])
    table = np.column_stack([grid.times(), uvals, yvals])
    path.write_text(csv_text(header, table, "\n"))


def _scaled(cfg: dict, data):
    """Apply --scale-a/--scale-b, which come as a pair; returns the data and
    the scale record (None when unscaled)."""
    if cfg["scale_a"] is None and cfg["scale_b"] is None:
        return data, None
    if cfg["scale_a"] is None or cfg["scale_b"] is None:
        raise ValueError("scale-a and scale-b must be given together")
    scale = {"a": float(cfg["scale_a"]), "b": float(cfg["scale_b"])}
    return scale_dataset(data, scale["a"], scale["b"]), scale


def _model_extra(model_dir: Path) -> dict:
    meta = read_json(model_dir / "model.json")
    return meta.get("extra", {}) or {}


# ---------------------------------------------------------------------------
# subcommands


def run_gen_data(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    data = step_dataset(
        levels=tuple(float(x) for x in cfg["levels"]),
        horizon=float(cfg["horizon"]),
        sample_dt=float(cfg["sample_dt"]),
        dt_ode=float(cfg["dt_ode"]),
    )
    save_dataset(data, out / "data")
    write_figure1(data, out / "figure1.csv")
    ordering = check_step_ordering(data)
    _write_json(out / "gen_data_report.json", {
        "pairs": data.n,
        "samples": data.grid.size,
        "tau": data.grid.tau,
        "dt": data.grid.dt,
        "levels": [float(x) for x in cfg["levels"]],
        "ordering_consistent": ordering.ordered,
    })
    _log(quiet, f"wrote {data.n} trajectory pairs to {out / 'data'}")
    return 0


def _check_hh(cfg: dict) -> dict:
    wit = monotonicity_witness(
        dt_ode=float(cfg["dt_ode"]),
        sample_dt=float(cfg["sample_dt"]),
        horizon=float(cfg["horizon"]),
    )
    tol = float(cfg["tol"])
    passed = wit.continuous >= -tol and wit.sampled >= -tol
    violations = []
    if not passed:
        violations.append(
            "incremental passivity fails on the sinusoid input pair: "
            f"supply integral {wit.continuous:.4f} < 0"
        )
    return {
        "target": "hh",
        "supply": "passivity",
        "witness": {"continuous": wit.continuous, "sampled": wit.sampled},
        "tolerance": tol,
        "violations": violations,
        "passed": passed,
    }


def _check_identity(cfg: dict, seed: int) -> dict:
    grid = TimeGrid(int(cfg["tau"]), float(cfg["dt"]))
    dim = int(cfg["dim"])
    supply = _build_supply(cfg, m=dim, p=dim)
    rng = np.random.default_rng(seed)
    pairs = _probe_pairs(grid, dim, int(cfg["probes"]), rng,
                         float(cfg["probe_scale"]))
    report = check_operator_iiqc(lambda u: u, supply, pairs,
                                 tol=float(cfg["tol"]))
    return {
        "target": "identity",
        "supply": cfg["supply"],
        "probes": int(cfg["probes"]),
        "min_residual": report.min_residual,
        "tolerance": report.tolerance,
        "violations": [] if report.passed else ["incremental constraint fails"],
        "passed": bool(report.passed),
    }


def _check_model(cfg: dict, seed: int) -> dict:
    if not cfg["model"]:
        raise ValueError("--model is required for target 'model'")
    model_dir = Path(cfg["model"])
    model = load_fitted(model_dir)
    extra = _model_extra(model_dir)
    if extra.get("supply"):
        supply = supply_from_json(extra["supply"])
    else:
        supply = _build_supply(cfg, m=model.input_dim, p=model.output_dim)
    factors = factor_phi(supply)
    results: dict = {"target": "model", "model": str(model_dir)}
    violations: list[str] = []
    try:
        scattered = contraction_margin(model, factors)
    except ContractionError as exc:
        return {**results, "violations": [str(exc)], "passed": False}
    picard_tol = cfg["picard_tol"]
    picard_tol = None if picard_tol is None else float(picard_tol)
    rng = np.random.default_rng(seed)
    pairs = _probe_pairs(model.grid, model.input_dim, int(cfg["probes"]),
                         rng, float(cfg["probe_scale"]))
    checks = cfg["checks"]
    if checks is None:
        # The truncation test only holds for structurally causal kernels.
        checks = ["iiqc", "defect"] + (["causality"]
                                       if is_causal(model.kernel) else [])
    checks = list(checks)
    results["epsilon"] = scattered.epsilon
    if "iiqc" in checks:
        rep = check_operator_iiqc(
            lambda us: simulate_r(scattered, us, tol=picard_tol),
            supply, pairs, tol=float(cfg["tol"]),
        )
        results["iiqc"] = {
            "min_residual": rep.min_residual,
            "tolerance": rep.tolerance,
            "passed": bool(rep.passed),
        }
        if not rep.passed:
            violations.append("incremental constraint fails on a probe pair")
    if "causality" in checks:
        rep = causality_check_r(scattered, pairs, tol=float(cfg["tol"]),
                                picard_tol=picard_tol)
        results["causality"] = {
            "max_violation": rep.max_violation,
            "tolerance": rep.tolerance,
            "passed": bool(rep.passed),
        }
        if not rep.passed:
            violations.append("truncation test fails on a probe")
    if "defect" in checks:
        max_defect = max(
            nonexpansive_defect(model.kernel, u, v) for u, v in pairs
        )
        cert = certify_nonexpansive(model.kernel)
        ok = max_defect <= float(cfg["defect_tol"])
        results["defect"] = {
            "certificate": cert,
            "max_defect": max_defect,
            "tolerance": float(cfg["defect_tol"]),
            "passed": ok,
        }
        if not ok:
            violations.append("positive nonexpansiveness defect found")
    results["violations"] = violations
    results["passed"] = not violations
    return results


def run_check(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    target = cfg["target"]
    if target == "hh":
        report = _check_hh(cfg)
    elif target == "identity":
        report = _check_identity(cfg, seed)
    elif target == "model":
        report = _check_model(cfg, seed)
    else:
        raise ValueError(f"unknown check target {target!r}")
    _write_json(out / "check_report.json", report)
    _log(quiet, f"check target={target} passed={report['passed']}")
    return 0 if report["passed"] else 1


def run_fit(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    if not cfg["data"]:
        raise ValueError("--data is required")
    data, scale = _scaled(cfg, load_dataset(cfg["data"]))
    supply = _build_supply(cfg, m=data.input_dim, p=data.output_dim)
    factors = factor_phi(supply)
    scattered = scatter_dataset(data, factors)
    kernel = _build_kernel(cfg["kernel"], p=scattered.output_dim)
    cert = certify_nonexpansive(kernel)
    warnings: list[str] = []
    if cfg["gamma"] is not None:
        model = fit(kernel, scattered, float(cfg["gamma"]),
                    layout=cfg["layout"])
        gamma = model.gamma
    else:
        if cert != PROVEN:
            warnings.append(
                "kernel nonexpansiveness is not structurally proven; the "
                "norm target does not certify a contraction"
            )
        gamma, model = tune_gamma(kernel, scattered, rho=float(cfg["rho"]),
                                  layout=cfg["layout"])
    risk = empirical_risk(model, scattered)
    extra = {
        "supply": supply_to_json(supply),
        "scale": scale,
        "risk": risk,
        "certificate": cert,
        "warnings": warnings,
    }
    save_fitted(model, out / "model", extra=extra)
    report = {
        "gamma": gamma,
        "rkhs_norm": model.rkhs_norm,
        "risk": risk,
        "certificate": cert,
        "warnings": warnings,
        "n": len(model.centers),
        "scale": scale,
        "supply": cfg["supply"],
    }
    _write_json(out / "fit_report.json", report)
    _log(quiet, f"gamma={gamma:.6g} norm={model.rkhs_norm:.6g} risk={risk:.6g}")
    return 0


def run_simulate(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    if not cfg["model"]:
        raise ValueError("--model is required")
    if not cfg["inputs"]:
        raise ValueError("at least one --input CSV is required")
    # Outputs are named after the input's file stem, so stems must differ.
    stems: dict[str, str] = {}
    for path in cfg["inputs"]:
        stem = Path(path).stem
        if stem in stems:
            raise ValueError(f"inputs {stems[stem]} and {path} share the file "
                             f"stem {stem!r}; their outputs would collide")
        stems[stem] = path
    model_dir = Path(cfg["model"])
    model = load_fitted(model_dir)
    extra = _model_extra(model_dir)
    if extra.get("supply"):
        supply = supply_from_json(extra["supply"])
    else:
        supply = passivity_supply(model.input_dim)
    factors = factor_phi(supply)
    try:
        scattered = contraction_margin(model, factors)
    except ContractionError as exc:
        _write_json(out / "simulate_report.json",
                    {"passed": False, "reason": str(exc)})
        _log(quiet, f"refused: {exc}")
        return 1
    scale = extra.get("scale") or None
    tol = None if cfg["tol"] is None else float(cfg["tol"])
    raw = []
    for path in cfg["inputs"]:
        u_raw = read_signal(path, dt=model.grid.dt)
        if u_raw.grid != model.grid:
            raise ShapeError(f"{path}: grid does not match the model bundle")
        if u_raw.dim != factors.m:
            raise ShapeError(f"{path}: expected {factors.m} input channels")
        raw.append(u_raw)
    batch = picard_solve(scattered,
                         [(1.0 / scale["a"]) * u if scale else u for u in raw],
                         tol=tol, max_iter=int(cfg["max_iter"]))
    runs = []
    for path, u_raw, result in zip(cfg["inputs"], raw, batch.lanes):
        y = result.y_star
        if scale:
            y = scale["b"] * y
        stem = Path(path).stem
        _run_csv(out / f"sim_{stem}.csv", model.grid, u_raw.values, y.values)
        log = {
            "input": stem,
            "epsilon": result.epsilon,
            "iterations": result.iterations,
            "residual": result.residual,
            "converged": result.converged,
        }
        _write_json(out / f"sim_{stem}_log.json", log)
        runs.append(log)
        _log(quiet, f"{stem}: {result.iterations} iterations, "
                    f"residual {result.residual:.3e}")
    _write_json(out / "simulate_report.json", {"runs": runs, "passed": True})
    return 0


def _render_report_md(report: dict) -> str:
    wit = report["witness"]
    fit_block = report["fit"]
    lines = [
        "# Potassium channel identification run",
        "",
        "## Raw channel witness (incremental passivity)",
        f"- continuous quadrature supply integral: {wit['continuous']:.6g}",
        f"- sampled supply sum: {wit['sampled']:.6g}",
        f"- negative value found (channel is not monotone): "
        f"{'yes' if report['flags']['witness_negative'] else 'no'}",
        "",
        "## Fit",
        f"- gamma: {fit_block['gamma']:.6g}",
        f"- operator norm: {fit_block['rkhs_norm']:.6g}",
        f"- empirical risk: {fit_block['risk']:.6g}",
        f"- contraction factor: {fit_block['epsilon']:.6g}",
        f"- kernel certificate: {fit_block['certificate']}",
        "",
        "## Reconstruction at sample times",
        "",
        "| level (mV) | abs error | error / data scale |"
        " error / trajectory norm | iterations |",
        "| ---: | ---: | ---: | ---: | ---: |",
    ]
    for row in report["reconstruction"]:
        lines.append(
            f"| {row['level']:g} | {row['error']:.4g} "
            f"| {row['rel_error_scale']:.4g} | {row['rel_error_traj']:.4g} "
            f"| {row['iterations']} |"
        )
    mono = report["monotonicity"]
    lines += [
        "",
        "## Identified operator monotonicity",
        f"- random probe pairs: {mono['probes']}",
        f"- min supply residual: {mono['min_residual']:.6g}",
        f"- tolerance: {mono['tolerance']:.6g}",
        "",
        "## Flags",
    ]
    for name, value in sorted(report["flags"].items()):
        lines.append(f"- {name}: {'pass' if value else 'FAIL'}")
    lines += ["", f"Overall: {'PASS' if report['passed'] else 'FAIL'}", ""]
    return "\n".join(lines)


def run_reproduce(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    levels = tuple(float(x) for x in cfg["levels"])
    _log(quiet, "stage 1/6: step-response dataset")
    data = step_dataset(
        levels=levels,
        horizon=float(cfg["horizon"]),
        sample_dt=float(cfg["sample_dt"]),
        dt_ode=float(cfg["dt_ode"]),
    )
    save_dataset(data, out / "data")
    write_figure1(data, out / "figure1.csv")

    _log(quiet, "stage 2/6: monotonicity witness on the raw channel")
    wit = monotonicity_witness(
        dt_ode=float(cfg["dt_ode"]),
        sample_dt=float(cfg["sample_dt"]),
        horizon=float(cfg["horizon"]),
    )

    _log(quiet, "stage 3/6: scale and scatter")
    a, b = float(cfg["scale_a"]), float(cfg["scale_b"])
    scaled = scale_dataset(data, a, b)
    supply = passivity_supply(data.input_dim)
    factors = factor_phi(supply)
    scattered_data = scatter_dataset(scaled, factors)

    _log(quiet, "stage 4/6: fit tuned to the norm target")
    kernel = SeparableKernel(scaled_laplacian(), np.eye(data.output_dim))
    gamma, model = tune_gamma(kernel, scattered_data, rho=float(cfg["rho"]))
    risk = empirical_risk(model, scattered_data)
    save_fitted(model, out / "model", extra={
        "supply": supply_to_json(supply),
        "scale": {"a": a, "b": b},
        "risk": risk,
        "certificate": certify_nonexpansive(kernel),
        "warnings": [],
    })
    scattered = contraction_margin(model, factors)

    _log(quiet, "stage 5/6: reconstruction of the training levels")
    picard_tol = cfg["picard_tol"]
    picard_tol = None if picard_tol is None else float(picard_tol)
    data_scale = max(norm(y) for y in data.outputs)
    recon, rows = [], []
    batch = picard_solve(scattered, [(1.0 / a) * u for u in data.inputs],
                         tol=picard_tol)
    for level, y_raw, result in zip(levels, data.outputs, batch.lanes):
        y_hat = b * result.y_star
        err = norm(y_hat - y_raw)
        traj = norm(y_raw)
        recon.append({
            "level": level,
            "error": err,
            "rel_error_scale": err / data_scale,
            "rel_error_traj": err / traj if traj > 0 else 0.0,
            "iterations": result.iterations,
        })
        rows.append(np.column_stack([
            data.grid.times(), np.full(data.grid.size, level),
            y_raw.values[:, 0], y_hat.values[:, 0]]))
    (out / "reconstruction.csv").write_text(
        csv_text(["t", "level", "y", "y_hat"], np.vstack(rows), "\n"))

    _log(quiet, "stage 6/6: monotonicity of the identified operator")
    rng = np.random.default_rng(seed)
    pairs = _probe_pairs(model.grid, data.input_dim, int(cfg["probes"]),
                         rng, scale=0.1)
    mono = check_operator_iiqc(
        lambda us: simulate_r(scattered, us, tol=picard_tol),
        supply, pairs, tol=float(cfg["tol"]),
    )

    bound = float(cfg["error_bound"])
    flags = {
        "witness_negative": bool(wit.continuous < 0.0),
        "norm_contractive": bool(model.rkhs_norm < 1.0),
        "identified_monotone": bool(mono.passed),
        "reconstruction_ok": all(
            row["rel_error_scale"] <= bound for row in recon
        ),
    }
    report = {
        "levels": list(levels),
        "rho": float(cfg["rho"]),
        "seed": seed,
        "witness": {"continuous": wit.continuous, "sampled": wit.sampled},
        "scale": {"a": a, "b": b},
        "fit": {
            "gamma": gamma,
            "rkhs_norm": model.rkhs_norm,
            "risk": risk,
            "epsilon": scattered.epsilon,
            "certificate": certify_nonexpansive(kernel),
        },
        "reconstruction": recon,
        "error_bound": bound,
        "monotonicity": {
            "probes": int(cfg["probes"]),
            "min_residual": mono.min_residual,
            "tolerance": mono.tolerance,
        },
        "flags": flags,
        "passed": all(flags.values()),
    }
    _write_json(out / "report.json", report)
    (out / "report.md").write_text(_render_report_md(report))
    _log(quiet, f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def run_sweep_gamma(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    if not cfg["data"]:
        raise ValueError("--data is required")
    count = int(cfg["count"])
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    data, _ = _scaled(cfg, load_dataset(cfg["data"]))
    supply = _build_supply(cfg, m=data.input_dim, p=data.output_dim)
    scattered = scatter_dataset(data, factor_phi(supply))
    kernel = _build_kernel(cfg["kernel"], p=scattered.output_dim)
    gammas = np.geomspace(float(cfg["gamma_min"]), float(cfg["gamma_max"]),
                          count)
    models = fit_many(kernel, scattered, [float(g) for g in gammas],
                      layout=cfg["layout"])
    table = [(gamma, model.rkhs_norm, empirical_risk(model, scattered))
             for gamma, model in zip(gammas, models)]
    (out / "sweep.csv").write_text(csv_text(
        ["gamma", "rkhs_norm", "risk"], np.array(table).reshape(-1, 3), "\n"))
    _log(quiet, f"swept {len(gammas)} gamma values")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

RUNNERS = {
    "gen-data": (GEN_DEFAULTS, run_gen_data),
    "check": (CHECK_DEFAULTS, run_check),
    "fit": (FIT_DEFAULTS, run_fit),
    "simulate": (SIM_DEFAULTS, run_simulate),
    "reproduce": (REPRO_DEFAULTS, run_reproduce),
    "sweep-gamma": (SWEEP_DEFAULTS, run_sweep_gamma),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqcfit",
        description="kernel identification of operators with incremental "
                    "integral quadratic constraint certificates",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON settings file; flags override")
    common.add_argument("--out", help="output directory (default iqcfit_out)")
    common.add_argument("--seed", type=int,
                        help="seed for randomized checks (default 0)")
    common.add_argument("--quiet", action="store_true", default=None,
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", parents=[common],
                       help="simulate the potassium channel step responses")
    g.add_argument("--levels", type=_csv_floats,
                   help="comma separated holding potentials, e.g. =-6,-10")
    g.add_argument("--horizon", type=float)
    g.add_argument("--sample-dt", type=float)
    g.add_argument("--dt-ode", type=float)

    c = sub.add_parser("check", parents=[common],
                       help="run constraint checks on an operator")
    c.add_argument("--target", choices=["hh", "identity", "model"])
    c.add_argument("--model", help="model bundle directory")
    c.add_argument("--supply", choices=["passivity", "gain"])
    c.add_argument("--delta", type=float)
    c.add_argument("--probes", type=int)
    c.add_argument("--probe-scale", type=float)
    c.add_argument("--tau", type=int)
    c.add_argument("--dt", type=float)
    c.add_argument("--dim", type=int)
    c.add_argument("--tol", type=float)
    c.add_argument("--defect-tol", type=float)
    c.add_argument("--checks", type=_csv_names,
                   help="subset of iiqc,causality,defect for model targets")
    c.add_argument("--picard-tol", type=float)
    c.add_argument("--horizon", type=float)
    c.add_argument("--sample-dt", type=float)
    c.add_argument("--dt-ode", type=float)

    f = sub.add_parser("fit", parents=[common],
                       help="fit a kernel model in scattered coordinates")
    f.add_argument("--data", help="dataset directory")
    f.add_argument("--kernel", help="path to a kernel JSON file")
    f.add_argument("--supply", choices=["passivity", "gain"])
    f.add_argument("--delta", type=float)
    f.add_argument("--gamma", type=float, help="fixed regularization weight")
    f.add_argument("--rho", type=float, help="norm target when tuning")
    f.add_argument("--scale-a", type=float)
    f.add_argument("--scale-b", type=float)
    f.add_argument("--layout", choices=["auto", "dense", "kronecker"])

    s = sub.add_parser("simulate", parents=[common],
                       help="run the identified operator on input CSVs")
    s.add_argument("--model", help="model bundle directory")
    s.add_argument("--input", dest="inputs", action="append",
                   help="input signal CSV, repeatable")
    s.add_argument("--tol", type=float)
    s.add_argument("--max-iter", type=int)

    r = sub.add_parser("reproduce", parents=[common],
                       help="full pipeline: data, witness, fit, simulate")
    r.add_argument("--levels", type=_csv_floats)
    r.add_argument("--horizon", type=float)
    r.add_argument("--sample-dt", type=float)
    r.add_argument("--dt-ode", type=float)
    r.add_argument("--rho", type=float)
    r.add_argument("--scale-a", type=float)
    r.add_argument("--scale-b", type=float)
    r.add_argument("--probes", type=int)
    r.add_argument("--tol", type=float)
    r.add_argument("--picard-tol", type=float)
    r.add_argument("--error-bound", type=float)

    w = sub.add_parser("sweep-gamma", parents=[common],
                       help="tabulate gamma versus norm and risk")
    w.add_argument("--data", help="dataset directory")
    w.add_argument("--kernel", help="path to a kernel JSON file")
    w.add_argument("--supply", choices=["passivity", "gain"])
    w.add_argument("--delta", type=float)
    w.add_argument("--scale-a", type=float)
    w.add_argument("--scale-b", type=float)
    w.add_argument("--gamma-min", type=float)
    w.add_argument("--gamma-max", type=float)
    w.add_argument("--count", type=int)
    w.add_argument("--layout", choices=["auto", "dense", "kronecker"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    defaults, runner = RUNNERS[args.command]
    try:
        file_cfg = {}
        if args.config:
            file_cfg = read_json(args.config)
            if not isinstance(file_cfg, dict):
                raise ValueError(f"{args.config}: config must be an object")
        cfg = _resolve(defaults, file_cfg, args)
        seed = args.seed if args.seed is not None else \
            int(file_cfg.get("seed", DEFAULT_SEED))
        quiet = bool(args.quiet if args.quiet is not None
                     else file_cfg.get("quiet", False))
        out = Path(args.out if args.out is not None
                   else file_cfg.get("out", "iqcfit_out"))
        out.mkdir(parents=True, exist_ok=True)
        name = args.command.replace("-", "_")
        _write_json(out / f"{name}_config.json",
                    {"command": args.command, "seed": seed,
                     "out": str(out), **cfg})
        return runner(cfg, out, seed, quiet)
    except (ContractionError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, ShapeError, SignatureError,
            NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
