"""Check that two checkouts of iqcfit write the same bytes.

    python3 tools/same_outputs.py --src OLD_CHECKOUT --src NEW_CHECKOUT --seed 7

Each checkout (a directory holding src/iqcfit and perfbench/) runs the same
jobs with one BLAS thread, each in a work directory of its own:

  reproduce   `reproduce`, then `check --target model` of its bundle
  wide        perfbench/gen.py passive data (n=200, tau=20, dim=2), then
              `fit` and `check --target model`, `sweep-gamma` (one fit per
              gamma from one factorization) and `fit --gamma 0.01`
  causal      perfbench/gen.py causal data (n=16, tau=12), a fit with the
              benchmark's causal kernel, then perfbench/causal_check.py
  simulate    `simulate` of the reproduce bundle on three input CSVs in
              one batch: a ramp, noise and zeros, whose lanes stop at
              different steps
  channel     `gen-data`, `check --target hh` and
              `check --target identity --dim 2`

Every command runs with relative paths from its work directory.  Every file
the jobs write, and each command's exit code and standard error, must be
byte-identical between the checkouts; in *_config.json files the work
directory's path is masked first.  Prints each difference and exits 1 if
there is any, else 0.  For a differing JSON, CSV or .npy file whose other
parts agree, it also prints the largest relative difference of its numbers
(JSON leaves, CSV cells, .npy values), |a - b| / max(|a|, |b|).  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

CAUSAL_KERNEL = {
    "structure": "causal_diagonal",
    "child": {"structure": "separable", "p": 1, "R": "identity",
              "scalar": {"kind": "gaussian", "sigma": 2.0}},
}


def _jobs(seed: int) -> list[list[str]]:
    """The commands of every job, in order: "cli" runs `python -m
    iqcfit.cli`, "gen" and "causal_check" the perfbench scripts."""
    seed_flag = ["--seed", str(seed)]
    return [
        ["cli", "reproduce", "--out", "reproduce", "--quiet", *seed_flag],
        ["cli", "check", "--target", "model", "--model", "reproduce/model",
         "--out", "reproduce_check", "--quiet", *seed_flag],
        ["gen", "--kind", "passive", "--n", "200", "--tau", "20", "--dim",
         "2", "--out", "wide_data", *seed_flag],
        ["cli", "fit", "--data", "wide_data", "--out", "wide_fit", "--quiet",
         *seed_flag],
        ["cli", "check", "--target", "model", "--model", "wide_fit/model",
         "--out", "wide_check", "--quiet", *seed_flag],
        ["cli", "sweep-gamma", "--data", "wide_data", "--out", "wide_sweep",
         "--quiet", *seed_flag],
        ["cli", "fit", "--data", "wide_data", "--gamma", "0.01", "--out",
         "wide_fixed", "--quiet", *seed_flag],
        ["gen", "--kind", "causal", "--n", "16", "--tau", "12", "--out",
         "causal_data", *seed_flag],
        ["cli", "fit", "--data", "causal_data", "--kernel", "causal.json",
         "--rho", "0.9", "--out", "causal_fit", "--quiet", *seed_flag],
        ["causal_check", "--model", "causal_fit/model", "--pairs", "2",
         "--out", "causal_check", *seed_flag],
        ["cli", "simulate", "--model", "reproduce/model", "--input",
         "inputs/ramp.csv", "--input", "inputs/noise.csv", "--input",
         "inputs/zero.csv", "--out", "simulate", "--quiet"],
        ["cli", "gen-data", "--out", "gen", "--quiet"],
        ["cli", "check", "--target", "hh", "--out", "hh_check", "--quiet",
         *seed_flag],
        ["cli", "check", "--target", "identity", "--dim", "2", "--out",
         "identity_check", "--quiet", *seed_flag],
    ]


def _write_inputs(work: Path, seed: int) -> None:
    """The causal kernel file and three input CSVs on the reproduce grid
    (21 samples of 0.5 ms) in millivolts."""
    (work / "causal.json").write_text(json.dumps(CAUSAL_KERNEL))
    (work / "inputs").mkdir()
    gauss = random.Random(seed).gauss
    columns = {"ramp": [-80.0 + 3.0 * j for j in range(21)],
               "noise": [20.0 * gauss(0.0, 1.0) for _ in range(21)],
               "zero": [0.0] * 21}
    for name, values in columns.items():
        rows = [f"{0.5 * j!r},{v!r}" for j, v in enumerate(values)]
        (work / "inputs" / f"{name}.csv").write_text(
            "\n".join(["t,ch1", *rows]) + "\n")


def run_checkout(checkout: Path, work: Path, seed: int) -> dict[str, bytes]:
    """Run every job of one checkout in work; returns each written file's
    bytes by relative path, plus each command's exit code and stderr."""
    work.mkdir(parents=True)
    _write_inputs(work, seed)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    scripts = {"cli": ["-m", "iqcfit.cli"],
               "gen": [str(checkout / "perfbench" / "gen.py")],
               "causal_check": [str(checkout / "perfbench" / "causal_check.py")]}
    seen: dict[str, bytes] = {}
    for index, (kind, *args) in enumerate(_jobs(seed)):
        proc = subprocess.run([sys.executable, *scripts[kind], *args],
                              cwd=work, env=env, capture_output=True)
        step = f"step {index} ({kind} {args[0]})"
        seen[f"{step} exit"] = str(proc.returncode).encode()
        seen[f"{step} stderr"] = proc.stderr
    for path in sorted(work.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name.endswith("_config.json"):
                data = data.replace(str(work).encode(), b"<WORK>")
            seen[str(path.relative_to(work))] = data
    return seen


def _leaves(obj) -> list:
    """A JSON value's keys and leaves, in order, numbers as floats."""
    if isinstance(obj, dict):
        return [leaf for key in sorted(obj) for leaf in [key, *_leaves(obj[key])]]
    if isinstance(obj, list):
        return [leaf for item in obj for leaf in _leaves(item)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return [obj]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _npy_values(data: bytes) -> list[float]:
    """The values of a little-endian float64 .npy file (format 1 or 2)."""
    if data[:6] != b"\x93NUMPY" or data[6] not in (1, 2):
        raise ValueError("not a .npy file")
    width = 2 if data[6] == 1 else 4
    start = 8 + width + int.from_bytes(data[8:8 + width], "little")
    header = ast.literal_eval(data[8 + width:start].decode("latin1"))
    if header["descr"] != "<f8":
        raise ValueError(f"dtype {header['descr']}")
    return list(struct.unpack(f"<{(len(data) - start) // 8}d", data[start:]))


def _parts(name: str, data: bytes) -> list:
    """The leaves of one JSON, CSV or .npy output, numbers as floats."""
    if name.endswith(".npy"):
        return _npy_values(data)
    if name.endswith(".json"):
        return _leaves(json.loads(data))
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(data.decode()))
        return [_cell(text) for row in rows for text in row]
    raise ValueError("neither JSON, CSV nor .npy")


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def largest_relative_difference(name: str, first: bytes,
                                second: bytes) -> float | None:
    """The largest relative difference of the numbers of two versions of
    one output, or None when they are not both readable as JSON, CSV or
    .npy with the same parts apart from their numbers."""
    try:
        a, b = _parts(name, first), _parts(name, second)
    except (ValueError, KeyError, SyntaxError, struct.error):
        return None
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            worst = max(worst, _relative(x, y))
        elif type(x) is not type(y) or x != y:
            return None
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="checkout to run; give exactly two")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    checkouts = [Path(src).resolve() for src in args.src]
    for checkout in checkouts:
        if not (checkout / "src" / "iqcfit").is_dir():
            parser.error(f"{checkout} holds no src/iqcfit")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        first, second = (run_checkout(checkout, Path(tmp) / name, args.seed)
                         for checkout, name in zip(checkouts, ("a", "b")))
    for key in sorted(first):
        if key.endswith(" exit"):
            print(f"{key[:-5]}: exit {first[key].decode()} and "
                  f"{second.get(key, b'-').decode()}")
    differ = sorted(key for key in first.keys() | second.keys()
                    if first.get(key) != second.get(key))
    for key in differ:
        worst = None
        if key in first and key in second:
            worst = largest_relative_difference(key, first[key], second[key])
        print(f"differs: {key}" if worst is None else
              f"differs: {key} (largest relative difference {worst:.2g})")
    print(f"{len(first.keys() | second.keys()) - len(differ)} outputs "
          f"identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
