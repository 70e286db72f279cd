"""Command line pipeline: data generation, property checks, fits, runs.

Exit codes: 0 all checks pass, 1 a property violation was found, 2 usage
or I/O error.  Every run writes a resolved-config JSON next to its outputs
and all file contents are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import math
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import (
    ContractionError,
    ConvergenceError,
    DivergenceError,
    NumericalError,
    ShapeError,
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
    certify_nonexpansive,
    is_causal,
    kernel_from_json,
    nonexpansive_defects,
)
from .rkhs import fit, fit_many, load_fitted, save_fitted, tune_gamma
from .signals import (
    TimeGrid,
    _parsed,
    check_memory,
    checked,
    csv_text,
    load_dataset,
    located,
    manifest_values,
    norms,
    read_json,
    save_dataset,
)
from .supply import (
    check_operator_iiqc,
    gain_supply,
    passivity_supply,
    scatter_dataset,
    supply_from_json,
    supply_to_json,
)

# ---------------------------------------------------------------------------
# options: each setting is declared, typed and defaulted once


class Option(NamedTuple):
    """One setting of a subcommand.  Its flag is --name with dashes and its
    config key is name; parse types a flag's text and a config file's JSON
    value alike, and raises ValueError on a value it refuses."""

    name: str
    default: Any
    parse: Callable[[Any], Any]
    help: str


def _scalar(convert: Callable, types: tuple, what: str) -> Callable:
    """Accept a value of one of the JSON types (a flag's text is a str) and
    convert it."""
    def parse(value):
        if not isinstance(value, types):
            raise ValueError(f"must be {what}, got {value!r}")
        return convert(value)
    return parse


def _number(kind: str) -> Callable:
    """checked(value, kind), a flag's text first read with int (for the
    integer kinds) or float."""
    read = int if kind in ("integer", "count") else float

    def parse(value):
        if isinstance(value, str):
            try:
                value = read(value)
            except ValueError:
                pass  # checked refuses the text
        return checked(value, kind)
    parse.kind = kind
    return parse


_text = _scalar(str, (str,), "a string")
_path = _scalar(Path, (str,), "a path")
_flag = _scalar(bool, (bool,), "true or false")
# a kernel JSON file name, or (in a config file) the kernel object itself
_kernel = _scalar(lambda spec: spec, (str, dict), "a file name or an object")


def _choice(*names: str) -> Callable:
    def parse(value) -> str:
        if value not in names:
            raise ValueError(f"must be one of {', '.join(names)}, "
                             f"got {value!r}")
        return value
    parse.choices = names
    return parse


def _listed(item: Callable, split: bool = True) -> Callable:
    """A non-empty JSON list, or with split comma separated text such as
    "-6,-10", parsed item by item."""
    def parse(value) -> list:
        items = [x.strip() for x in value.split(",") if x.strip()] \
            if split and isinstance(value, str) else value
        if not isinstance(items, list) or not items:
            raise ValueError(f"must be a non-empty list, got {value!r}")
        return [item(x) for x in items]
    return parse


CHECKS = ("iiqc", "causality", "defect")
_numbers = _listed(_number("finite"))
_texts = _listed(_text, split=False)
_checks = _listed(_choice(*CHECKS))


GRID = (
    Option("horizon", 10.0, _number("positive"), "simulated time span"),
    Option("sample_dt", 0.5, _number("positive"),
           "sample spacing of the working grid"),
    Option("dt_ode", 1e-3, _number("positive"),
           "RK4 step of the channel simulation"),
)
LEVELS = Option("levels", DEFAULT_LEVELS, _numbers,
                "comma separated holding potentials, e.g. =-6,-10")
SUPPLY = (
    Option("supply", "passivity", _choice("passivity", "gain"), "supply rate"),
    Option("delta", None, _number("positive"),
           "gain bound, required by the gain supply"),
)
KERNEL = Option("kernel", {"structure": "separable", "R": "identity",
                           "scalar": {"kind": "scaled_laplacian"}},
                _kernel, "kernel JSON file (default: separable scaled Laplacian)")
DATA = (
    Option("data", None, _text, "dataset directory"),
    KERNEL,
    *SUPPLY,
    Option("scale_a", None, _number("positive"),
           "input scale, paired with --scale-b"),
    Option("scale_b", None, _number("positive"),
           "output scale, paired with --scale-a"),
)
MODEL = Option("model", None, _text, "model bundle directory or its model.json")
PROBES = Option("probes", 100, _number("count"),
                "random probe pairs, at least 1")
TOL = Option("tol", 1e-8, _number("finite"),
             "tolerance of the constraint check")
PICARD_TOL = Option("picard_tol", None, _number("nonnegative"),
                    "Picard stopping tolerance")
RHO = Option("rho", 0.99, _number("fraction"),
             "norm target when tuning, in (0, 1]")
COMMON = (
    Option("seed", 0, _number("integer"), "seed for randomized checks"),
    Option("out", Path("iqcfit_out"), _path, "output directory"),
    Option("quiet", False, _flag, "suppress progress messages"),
)


def _resolve(options, file_cfg: dict, flags: dict,
             config: str | None = None) -> dict:
    """Defaults, overridden by the config file, overridden by flags.  Every
    given value goes through its option's parse; None keeps an option unset
    where that is its default, as resolved configs write it.  A refused
    key or value of the config file starts its message with the file."""
    table = {opt.name: opt for opt in options}
    cfg = {opt.name: opt.default for opt in options}
    for where, given in ((f"{config}: " if config else "", file_cfg),
                         ("", flags)):
        for key, value in given.items():
            opt = table.get(key.replace("-", "_"))
            if opt is None:
                raise ValueError(f"{where}unknown config key {key!r}")
            if value is None and opt.default is None:
                cfg[opt.name] = None
                continue
            try:
                cfg[opt.name] = opt.parse(value)
            except ValueError as exc:
                raise ValueError(f"{where}{opt.name} {exc}") from None
    return cfg


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=str)
                    + "\n")


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _build_supply(cfg: dict, m: int, p: int):
    kind = cfg["supply"]
    if kind == "passivity":
        if m != p:
            raise ShapeError("passivity supply needs matching input/output dims")
        return passivity_supply(m)
    if cfg["delta"] is None:
        raise ValueError("gain supply requires --delta")
    return gain_supply(cfg["delta"], m=m, p=p)


# getrandbits takes a C int of bits, 128 for each pair of samples, so one
# draw of the stream gives at most this many pairs.
GAUSS_PAIRS = (2**31 - 1) // 128


def _gauss_stream(seed: int, count: int) -> np.ndarray:
    """The first count values of random.Random(seed).gauss(), bit for bit,
    from one draw of the generator's stream.

    gauss() makes its samples in pairs from two random() values r0, r1:
    with x = 2 pi r0 and g = sqrt(-2 log(1 - r1)), first cos(x) g, then
    sin(x) g, each returned as 0.0 + z.  A random() value is
    ((a >> 5) 2^26 + (b >> 6)) / 2^53 for the next two 32-bit words a, b of
    the Mersenne Twister, and getrandbits(32 w) holds the next w words, the
    first lowest.  numpy does only correctly rounded steps (+, -, *, sqrt);
    log, cos and sin are the math module's, which gauss() calls.
    """
    pairs = -(-count // 2)
    bits = random.Random(seed).getrandbits(128 * pairs)
    words = np.frombuffer(bits.to_bytes(16 * pairs, "little"),
                          dtype="<u4").astype(np.uint64)
    r = ((words[0::2] >> 5) * 67108864 + (words[1::2] >> 6)) * 2.0**-53
    x = (r[0::2] * (2.0 * math.pi)).tolist()
    g = np.sqrt(-2.0 * np.array(list(map(math.log, (1.0 - r[1::2]).tolist()))))
    z = np.stack([np.array(list(map(trig, x))) * g
                  for trig in (math.cos, math.sin)], axis=1)
    return 0.0 + z.reshape(-1)[:count]


def _probe_pairs(cfg: dict, grid: TimeGrid, dim: int,
                 scale: float) -> np.ndarray:
    """--probes input pairs of standard Gaussian samples times scale, as
    one (probes, 2, steps, dim) array.

    The samples are random.Random(--seed).gauss(0.0, 1.0), from the standard
    library's Mersenne Twister, drawn pair by pair, u before v, each
    signal's (steps, dim) values in C order (see _gauss_stream).  A seed
    gives the same probes on every run of one Python version; numpy.random
    is never imported.  Probes of more than GAUSS_PAIRS pairs of samples,
    or scaled past float range, are refused before the check runs.
    """
    pairs = cfg["probes"] * grid.size * dim
    if pairs > GAUSS_PAIRS:
        raise ValueError(f"probes {cfg['probes']} of {grid.size} samples x "
                         f"{dim} channels need more than the {GAUSS_PAIRS} "
                         f"sample pairs one draw gives")
    with np.errstate(over="ignore"):
        probes = scale * _gauss_stream(cfg["seed"], 2 * pairs).reshape(
            -1, 2, grid.size, dim)
    if not np.isfinite(norms(probes.reshape(-1, grid.size, dim))).all():
        raise ValueError(f"probe_scale {scale} takes the probes' norms past "
                         f"float range")
    return probes


def _run_csv(path: Path, grid: TimeGrid, uvals: np.ndarray,
             yvals: np.ndarray) -> None:
    header = (["t"] + [f"u{i + 1}" for i in range(uvals.shape[1])]
              + [f"y{i + 1}" for i in range(yvals.shape[1])])
    table = np.column_stack([grid.times(), uvals, yvals])
    path.write_text(csv_text(header, table, "\n"))


def _scattered_data(cfg: dict):
    """The DATA rows' stage of fit and sweep-gamma: load --data, apply
    --scale-a/--scale-b (a pair), scatter it under the supply rate and build
    the kernel.  Returns the supply, the scale record (None when unscaled),
    the scattered data and the kernel."""
    if not cfg["data"]:
        raise ValueError("--data is required")
    data, scale = load_dataset(cfg["data"]), None
    if (cfg["scale_a"] is None) != (cfg["scale_b"] is None):
        raise ValueError("scale-a and scale-b must be given together")
    if cfg["scale_a"] is not None:
        scale = {"a": cfg["scale_a"], "b": cfg["scale_b"]}
        data = scale_dataset(data, scale["a"], scale["b"])
    supply = _build_supply(cfg, m=data.input_dim, p=data.output_dim)
    scattered = scatter_dataset(data, supply)
    spec, where = cfg["kernel"], ""
    if isinstance(spec, str):  # a file: its faults start with its path
        spec, where = read_json(spec), f"{spec}: "
    try:
        if not isinstance(spec, dict):
            raise ValueError("kernel file must hold a JSON object")
        kernel = kernel_from_json(spec, scattered.output_dim,
                                  scattered.grid.size)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None
    return supply, scale, scattered, kernel


@contextlib.contextmanager
def _naming_data(cfg: dict):
    """Start a numerical fault of fitting --data (an overflowing Gram, a
    norm target out of reach) with the dataset's manifest path.  fit, at a
    fixed --gamma or tuned, and sweep-gamma take it; reproduce, which has
    no --data, passes its faults on as they are."""
    try:
        yield
    except NumericalError as exc:
        if not cfg.get("data"):
            raise
        manifest = located(cfg["data"], "manifest.json")
        raise NumericalError(f"{manifest}: {exc}") from None


def _fit_bundle(cfg: dict, supply, scale, scattered, kernel):
    """The fit stage of fit and reproduce (which has no --gamma): fit at
    --gamma or tuned to --rho, saved under out/model with the extra record
    (supply and scale) that _load_bundle reads back.  Returns the model and
    that record plus the fit's risk, certificate and warnings."""
    cert = certify_nonexpansive(kernel)
    warnings: list[str] = []
    if cfg.get("gamma") is None and cert != PROVEN:
        warnings.append("kernel nonexpansiveness is not structurally proven; "
                        "the norm target does not certify a contraction")
    with _naming_data(cfg):
        if cfg.get("gamma") is not None:
            model = fit(kernel, scattered, cfg["gamma"])
        else:
            _, model = tune_gamma(kernel, scattered, rho=cfg["rho"])
    record = {"supply": supply_to_json(supply), "scale": scale}
    save_fitted(model, cfg["out"] / "model", extra=record)
    return model, {**record, "risk": model.training_risk, "certificate": cert,
                   "warnings": warnings}


def _load_bundle(cfg: dict, fallback: Callable):
    """The --model bundle, the supply rate its fit recorded (fallback(model)
    if none) and its scale record: None, or {"a": a, "b": b} with a, b > 0."""
    if not cfg["model"]:
        raise ValueError("--model is required")
    model = load_fitted(cfg["model"])
    supply, scale = model.extra.get("supply"), model.extra.get("scale")
    try:
        if not isinstance(supply, (dict, type(None))):
            raise TypeError(f"supply must be an object, got {supply!r}")
        supply = None if supply is None else supply_from_json(
            supply, (model.input_dim, model.output_dim))
        if scale is not None:
            if not isinstance(scale, dict) or sorted(scale) != ["a", "b"]:
                raise ValueError(f"scale must be null or {{a: >0, b: >0}}, "
                                 f"got {scale!r}")
            manifest_values(scale, a="positive", b="positive")
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ValueError(f"{located(cfg['model'], 'model.json')}: malformed extra "
                         f"record: {type(exc).__name__} {exc}") from None
    return model, fallback(model) if supply is None else supply, scale


def _step_data(cfg: dict):
    """Simulate the step responses at --levels and write them to the output."""
    data = step_dataset(levels=tuple(cfg["levels"]),
                        **{opt.name: cfg[opt.name] for opt in GRID})
    save_dataset(data, cfg["out"] / "data")
    write_figure1(data, cfg["out"] / "figure1.csv")
    return data


def _witness(cfg: dict):
    return monotonicity_witness(**{opt.name: cfg[opt.name] for opt in GRID})


# ---------------------------------------------------------------------------
# subcommands


def run_gen_data(cfg: dict) -> int:
    data = _step_data(cfg)
    ordering = check_step_ordering(data)
    _write_json(cfg["out"] / "gen_data_report.json", {
        "pairs": data.n,
        "samples": data.grid.size,
        "tau": data.grid.tau,
        "dt": data.grid.dt,
        "levels": cfg["levels"],
        "ordering_consistent": ordering.ordered,
    })
    _log(cfg["quiet"],
         f"wrote {data.n} trajectory pairs to {cfg['out'] / 'data'}")
    return 0


def _check_hh(cfg: dict) -> dict:
    wit = _witness(cfg)
    tol = cfg["tol"]
    passed = wit.continuous >= -tol and wit.sampled >= -tol
    return {
        "target": "hh",
        "supply": "passivity",
        "witness": {"continuous": wit.continuous, "sampled": wit.sampled},
        "tolerance": tol,
        "violations": [] if passed else [
            "incremental passivity fails on the sinusoid input pair: "
            f"supply integral {wit.continuous:.4f} < 0"],
        "passed": passed,
    }


def _check_identity(cfg: dict) -> dict:
    grid = TimeGrid(cfg["tau"], cfg["dt"])
    dim = cfg["dim"]
    # the supply matrix is (2 dim)^2; _probe_pairs caps the probe stack
    check_memory(4 * dim * dim, f"dim {dim} in its supply matrix")
    supply = _build_supply(cfg, m=dim, p=dim)
    pairs = _probe_pairs(cfg, grid, dim, cfg["probe_scale"])
    report = check_operator_iiqc(lambda u: u, supply, pairs, tol=cfg["tol"])
    return {
        "target": "identity",
        "supply": cfg["supply"],
        "probes": cfg["probes"],
        "min_residual": report.min_residual,
        "tolerance": report.tolerance,
        "violations": [] if report.passed else ["incremental constraint fails"],
        "passed": bool(report.passed),
    }


def _iiqc_of_r(cfg: dict, scattered, pairs) -> dict:
    """The iIQC check, within --tol and under the scattered model's supply,
    of R (the model's inverse, each run a Picard solve to --picard-tol) on
    the probe pairs."""
    rep = check_operator_iiqc(
        lambda us: simulate_r(scattered, us, tol=cfg["picard_tol"]),
        scattered.supply, pairs, tol=cfg["tol"],
    )
    return {"min_residual": rep.min_residual, "tolerance": rep.tolerance,
            "passed": bool(rep.passed)}


def _check_model(cfg: dict) -> dict:
    model, supply, _ = _load_bundle(cfg, lambda model: _build_supply(
        cfg, m=model.input_dim, p=model.output_dim))
    results: dict = {"target": "model", "model": str(Path(cfg["model"]))}
    try:
        scattered = contraction_margin(model, supply)
    except ContractionError as exc:
        return {**results, "violations": [str(exc)], "passed": False}
    pairs = _probe_pairs(cfg, model.grid, model.input_dim, cfg["probe_scale"])
    checks = cfg["checks"]
    if checks is None:
        # The truncation test only holds for structurally causal kernels.
        checks = ["iiqc", "defect"] + (["causality"]
                                       if is_causal(model.kernel) else [])
    results["epsilon"] = scattered.epsilon
    try:
        if "iiqc" in checks:
            results["iiqc"] = _iiqc_of_r(cfg, scattered, pairs)
        if "causality" in checks:
            rep = causality_check_r(scattered, pairs, tol=cfg["tol"],
                                    picard_tol=cfg["picard_tol"])
            results["causality"] = {
                "max_violation": rep.max_violation,
                "tolerance": rep.tolerance,
                "passed": bool(rep.passed),
            }
    except NumericalError as exc:  # R of this bundle cannot run the probes
        bundle = located(cfg["model"], "model.json")
        raise NumericalError(f"{bundle}: {exc}") from None
    if "defect" in checks:
        defects = nonexpansive_defects(model.kernel, pairs)
        worst = int(np.argmax(defects))
        max_defect = float(defects[worst])
        results["defect"] = {
            "certificate": certify_nonexpansive(model.kernel),
            "max_defect": max_defect,
            "worst_pair": worst,
            "tolerance": cfg["defect_tol"],
            "passed": max_defect <= cfg["defect_tol"],
        }
    results["violations"] = [message for name, message in (
        ("iiqc", "incremental constraint fails on a probe pair"),
        ("causality", "truncation test fails on a probe"),
        ("defect", "positive nonexpansiveness defect found"),
    ) if name in results and not results[name]["passed"]]
    results["passed"] = not results["violations"]
    return results


def run_check(cfg: dict) -> int:
    target = cfg["target"]
    report = {"hh": _check_hh, "identity": _check_identity,
              "model": _check_model}[target](cfg)
    _write_json(cfg["out"] / "check_report.json", report)
    _log(cfg["quiet"], f"check target={target} passed={report['passed']}")
    return 0 if report["passed"] else 1


def run_fit(cfg: dict) -> int:
    model, record = _fit_bundle(cfg, *_scattered_data(cfg))
    _write_json(cfg["out"] / "fit_report.json", {
        **record,
        "gamma": model.gamma,
        "rkhs_norm": model.rkhs_norm,
        "n": len(model.centers),
        "supply": cfg["supply"],  # its name, not the record's matrix
    })
    _log(cfg["quiet"], f"gamma={model.gamma:.6g} norm={model.rkhs_norm:.6g} "
                       f"risk={record['risk']:.6g}")
    return 0


def _scaled_picard(scattered, inputs: np.ndarray, scale, **solve):
    """Runs of R on a stack of inputs in raw units, as one batched Picard
    solve: the inputs are scaled by 1/a into the fit's units and the
    outputs back by b (neither when scale is None).  Returns the stack of
    outputs and the PicardBatch."""
    batch = picard_solve(scattered,
                         (1.0 / scale["a"]) * inputs if scale else inputs,
                         **solve)
    return scale["b"] * batch.y_star if scale else batch.y_star, batch


def run_simulate(cfg: dict) -> int:
    out, quiet = cfg["out"], cfg["quiet"]
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
    model, supply, scale = _load_bundle(
        cfg, lambda model: passivity_supply(model.input_dim))
    try:
        scattered = contraction_margin(model, supply)
    except ContractionError as exc:
        _write_json(out / "simulate_report.json",
                    {"passed": False, "reason": str(exc)})
        _log(quiet, f"refused: {exc}")
        return 1
    raw = _parsed(cfg["inputs"], model.grid.dt)
    for path, u_raw in zip(cfg["inputs"], raw):
        if u_raw.shape != (model.grid.size, supply.m):
            raise ShapeError(f"{path}: {u_raw.shape} samples by channels, "
                             f"not the model's {(model.grid.size, supply.m)}")
    raw = np.stack(raw)
    try:
        outputs, batch = _scaled_picard(scattered, raw, scale, tol=cfg["tol"],
                                        max_iter=cfg["max_iter"])
    except DivergenceError as exc:  # name the input's file, not its lane
        raise NumericalError(f"{cfg['inputs'][exc.lane]}: fixed-point "
                             f"iteration left the float range at step "
                             f"{exc.step}") from None
    runs = []
    for path, u_raw, y, iterations, residual in zip(
            cfg["inputs"], raw, outputs, batch.lane_iterations.tolist(),
            batch.residuals.tolist()):
        stem = Path(path).stem
        _run_csv(out / f"sim_{stem}.csv", model.grid, u_raw, y)
        log = {
            "input": stem,
            "epsilon": batch.epsilon,
            "iterations": iterations,
            "residual": residual,
            "converged": True,
        }
        _write_json(out / f"sim_{stem}_log.json", log)
        runs.append(log)
        _log(quiet, f"{stem}: {iterations} iterations, "
                    f"residual {residual:.3e}")
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


def run_reproduce(cfg: dict) -> int:
    out, quiet = cfg["out"], cfg["quiet"]
    _log(quiet, "stage 1/6: step-response dataset")
    data = _step_data(cfg)
    # reconstruction errors are read relative to this scale
    traj = norms(data.outputs).tolist()
    data_scale = max(traj)
    if data_scale == 0:
        raise ValueError(f"levels {cfg['levels']} give only zero outputs, so "
                         f"reconstruction errors have no scale")

    _log(quiet, "stage 2/6: monotonicity witness on the raw channel")
    wit = _witness(cfg)

    _log(quiet, "stage 3/6: scale and scatter")
    scale = {"a": cfg["scale_a"], "b": cfg["scale_b"]}
    supply = passivity_supply(data.input_dim)
    scattered_data = scatter_dataset(
        scale_dataset(data, scale["a"], scale["b"]), supply)
    kernel = kernel_from_json(KERNEL.default, data.output_dim)

    _log(quiet, "stage 4/6: fit tuned to the norm target")
    model, record = _fit_bundle(cfg, supply, scale, scattered_data, kernel)
    scattered = contraction_margin(model, supply)

    _log(quiet, "stage 5/6: reconstruction of the training levels")
    y_hat, batch = _scaled_picard(scattered, data.inputs, scale,
                                  tol=cfg["picard_tol"])
    errors = norms(y_hat - data.outputs).tolist()
    recon = [{
        "level": level,
        "error": err,
        "rel_error_scale": err / data_scale,
        "rel_error_traj": err / size if size > 0 else 0.0,
        "iterations": iterations,
    } for level, err, size, iterations in zip(
        cfg["levels"], errors, traj, batch.lane_iterations.tolist())]
    (out / "reconstruction.csv").write_text(csv_text(
        ["t", "level", "y", "y_hat"], np.column_stack([
            np.tile(data.grid.times(), data.n),
            np.repeat(cfg["levels"], data.grid.size),
            data.outputs[:, :, 0].ravel(), y_hat[:, :, 0].ravel()]), "\n"))

    _log(quiet, "stage 6/6: monotonicity of the identified operator")
    pairs = _probe_pairs(cfg, model.grid, data.input_dim, scale=0.1)
    mono = _iiqc_of_r(cfg, scattered, pairs)

    bound = cfg["error_bound"]
    flags = {
        "witness_negative": bool(wit.continuous < 0.0),
        "norm_contractive": bool(model.rkhs_norm < 1.0),
        "identified_monotone": mono.pop("passed"),
        "reconstruction_ok": all(
            row["rel_error_scale"] <= bound for row in recon
        ),
    }
    report = {
        "levels": cfg["levels"],
        "rho": cfg["rho"],
        "seed": cfg["seed"],
        "witness": {"continuous": wit.continuous, "sampled": wit.sampled},
        "scale": scale,
        "fit": {
            "gamma": model.gamma,
            "rkhs_norm": model.rkhs_norm,
            "risk": record["risk"],
            "epsilon": scattered.epsilon,
            "certificate": record["certificate"],
        },
        "reconstruction": recon,
        "error_bound": bound,
        "monotonicity": {"probes": cfg["probes"], **mono},
        "flags": flags,
        "passed": all(flags.values()),
    }
    _write_json(out / "report.json", report)
    (out / "report.md").write_text(_render_report_md(report))
    _log(quiet, f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


# A kept fit holds two n·steps·p stacks, its coefficients and targets, and
# about 1 kB more: the FittedOperator, array headers, its floats and its
# row of sweep.csv.  That record is counted as 256 values (2 kB).
FIT_RECORD_VALUES = 256


def run_sweep_gamma(cfg: dict) -> int:
    _, _, scattered, kernel = _scattered_data(cfg)
    size = scattered.outputs.size
    check_memory(cfg["count"] * (2 * size + FIT_RECORD_VALUES),
                 f"count {cfg['count']} fits of {size} coefficients each")
    gammas = np.geomspace(cfg["gamma_min"], cfg["gamma_max"], cfg["count"])
    with _naming_data(cfg):
        models = fit_many(kernel, scattered, [float(g) for g in gammas])
    table = [(model.gamma, model.rkhs_norm, model.training_risk)
             for model in models]
    (cfg["out"] / "sweep.csv").write_text(csv_text(
        ["gamma", "rkhs_norm", "risk"], np.array(table).reshape(-1, 3), "\n"))
    _log(cfg["quiet"], f"swept {len(gammas)} gamma values")
    return 0


# ---------------------------------------------------------------------------
# flags, help and dispatch

# command: (help, runner, options)
COMMANDS = {
    "gen-data": ("simulate the potassium channel step responses",
                 run_gen_data, (LEVELS, *GRID, *COMMON)),
    "check": ("run constraint checks on an operator", run_check, (
        Option("target", "identity", _choice("hh", "identity", "model"),
               "operator to check"),
        MODEL, *SUPPLY, PROBES,
        Option("probe_scale", 1.0, _number("positive"),
               "amplitude of the probe signals"),
        Option("tau", 20, _number("integer"),
               "probe horizon in samples (identity)"),
        Option("dt", 0.5, _number("positive"),
               "probe sample spacing (identity)"),
        Option("dim", 1, _number("count"),
               "probe channels (identity), at least 1"),
        TOL,
        Option("defect_tol", 1e-10, _number("finite"),
               "nonexpansiveness defect bound"),
        Option("checks", None, _checks,
               f"comma separated subset of {','.join(CHECKS)} for model "
               f"targets (default: all that apply)"),
        PICARD_TOL, *GRID, *COMMON)),
    "fit": ("fit a kernel model in scattered coordinates", run_fit, (
        *DATA,
        Option("gamma", None, _number("positive"),
               "fixed regularization weight"),
        RHO, *COMMON)),
    "simulate": ("run the identified operator on input CSVs", run_simulate, (
        MODEL,
        Option("inputs", None, _texts, "input signal CSV, repeatable"),
        Option("tol", None, _number("nonnegative"),
               "Picard stopping tolerance"),
        Option("max_iter", 10_000, _number("count"),
               "Picard iteration cap, at least 1"),
        *COMMON)),
    "reproduce": ("full pipeline: data, witness, fit, simulate",
                  run_reproduce, (
        LEVELS, *GRID, RHO,
        Option("scale_a", INPUT_SCALE, _number("positive"), "input scale"),
        Option("scale_b", OUTPUT_SCALE, _number("positive"), "output scale"),
        PROBES, TOL, PICARD_TOL,
        Option("error_bound", 0.15, _number("nonnegative"),
               "largest reconstruction error relative to the data scale"),
        *COMMON)),
    "sweep-gamma": ("tabulate gamma versus norm and risk", run_sweep_gamma, (
        *DATA,
        Option("gamma_min", 1e-6, _number("positive"),
               "smallest regularization weight"),
        Option("gamma_max", 1.0, _number("positive"),
               "largest regularization weight"),
        Option("count", 25, _number("count"),
               "number of weights, at least 1"),
        *COMMON)),
}


CONFIG = Option("config", None, _text, "JSON settings file; flags override")


class UsageError(ValueError):
    """argv names no command, or flags its command does not take."""


def _flag_name(opt: Option) -> str:
    """--name with dashes; a repeatable flag is named in the singular:
    --input FILE, once per file, fills the list "inputs"."""
    flag = "--" + opt.name.replace("_", "-")
    return flag[:-1] if opt.parse is _texts else flag


def read_flags(options, args: list[str]) -> tuple[str | None, dict]:
    """The --config file and the flags in args, by option name, each value
    its text as given (a store-true flag True, a repeatable one the list of
    its texts); _resolve types them.  Flags are exact names, each followed
    by its value or joined to it by "="; a value may not start with "--".
    Raises UsageError on anything else."""
    table = {_flag_name(opt): opt for opt in (CONFIG, *options)}
    flags: dict = {}
    tokens = iter(args)
    for token in tokens:
        name, eq, value = token.partition("=")
        opt = table.get(name)
        if opt is None:
            raise UsageError(f"unknown flag {name}" if name.startswith("--")
                             else f"unexpected argument {token!r}")
        if opt.parse is _flag:
            if eq:
                raise UsageError(f"{name} takes no value")
            flags[opt.name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{name} needs a value")
        if opt.parse is _texts:
            flags.setdefault(opt.name, []).append(value)
        else:
            flags[opt.name] = value
    return flags.pop("config", None), flags


def _usage(command: str | None) -> str:
    name = command or "{" + ",".join(COMMANDS) + "}"
    return f"usage: iqcfit {name} [--flag value | --flag=value ...]"


def _help(command: str | None) -> str:
    """--help, from COMMANDS alone: the commands with their summaries, or
    one command's flags with their help."""
    if command is None:
        head = ["kernel identification of operators with incremental "
                "integral", "quadratic constraint certificates", "",
                "commands (iqcfit COMMAND --help lists its flags):"]
        rows = [(name, summary) for name, (summary, _, _) in COMMANDS.items()]
    else:
        summary, _, options = COMMANDS[command]
        head = [summary, "", "flags (exact names; --flag=value for a value "
                "that starts with -):"]
        rows = [(_flag_name(opt) + _metavar(opt), opt.help)
                for opt in (CONFIG, *options)]
        rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(command), "", *head, *(
        f"  {left:<{width}}{right}" for left, right in rows)])


def _metavar(opt: Option) -> str:
    if opt.parse is _flag:
        return ""
    choices = getattr(opt.parse, "choices", None)
    return " " + ("{" + ",".join(choices) + "}" if choices
                  else _flag_name(opt)[2:].replace("-", "_").upper())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:
        try:
            print(_help(command))
        except BrokenPipeError:
            # The reader has gone and stdout writes through (python -u):
            # end as a buffered write does, whose flush _leave drops, and
            # point stdout at os.devnull so no later flush meets the pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    try:
        if command is None:
            raise UsageError("a command is required" if not argv
                             or argv[0].startswith("-")
                             else f"unknown command {argv[0]!r}")
        _, runner, options = COMMANDS[command]
        config, flags = read_flags(options, argv[1:])
    except UsageError as exc:
        print(f"{_usage(command)}\nerror: {exc}", file=sys.stderr)
        return 2
    try:
        file_cfg = {}
        if config:
            file_cfg = read_json(config)
            if not isinstance(file_cfg, dict):
                raise ValueError(f"{config}: config must be an object")
            file_cfg.pop("command", None)  # resolved configs name theirs
        cfg = _resolve(options, file_cfg, flags, config)
        cfg["out"].mkdir(parents=True, exist_ok=True)
        # --quiet changes no output, so the resolved config leaves it out
        resolved = {k: v for k, v in cfg.items() if k != "quiet"}
        _write_json(cfg["out"] / f"{command.replace('-', '_')}_config.json",
                    {"command": command, **resolved})
        return runner(cfg)
    except (ContractionError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _leave(code: int) -> None:
    """Flush stdout and stderr and end the process with code, skipping the
    interpreter's teardown.  A stream whose reader has gone (a closed pipe)
    is left unflushed, without a traceback."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass
    os._exit(code)


def console_main() -> None:
    """The process entry: the iqcfit script and python -m iqcfit.cli.

    Every output is written and closed before main returns, so the
    interpreter's teardown (module cleanup and final collections over
    numpy's import graph) is pure cost.  The process leaves through
    os._exit from the first exit hook: code that runs this entry in
    process and catches its SystemExit finishes its own work first.
    """
    code = main()
    atexit.register(_leave, code)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
