"""Sampled vector-valued signals on uniform time grids.

Everything downstream works with finite trajectories u : {0, ..., tau} -> R^d
under the plain sum inner product.  For densely sampled continuous records the
same operations can weight each term by the sampling period (optionally with
trapezoidal end correction) so that inner products approximate integrals.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError

# Sample times in a CSV file must match j*dt to this absolute tolerance.
TIME_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt for j = 0, ..., tau."""

    tau: int
    dt: float = 1.0

    def __post_init__(self):
        if not isinstance(self.tau, int) or self.tau < 0:
            raise ShapeError(f"tau must be a nonnegative integer, got {self.tau!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")

    @property
    def size(self) -> int:
        return self.tau + 1

    def times(self) -> np.ndarray:
        return np.arange(self.size) * self.dt


@dataclass(frozen=True, eq=False)
class Signal:
    """Immutable trajectory with samples stacked as a (tau+1, dim) array."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ShapeError(f"signal values must be 1-d or 2-d, got ndim={arr.ndim}")
        if arr.shape[0] != self.grid.size:
            raise ShapeError(
                f"expected {self.grid.size} samples for tau={self.grid.tau}, "
                f"got {arr.shape[0]}"
            )
        if arr.shape[1] < 1:
            raise ShapeError("signal needs at least one channel")
        if not np.isfinite(arr).all():
            raise ValueError("signal contains non-finite samples")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __add__(self, other: "Signal") -> "Signal":
        _require_compatible(self, other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _require_compatible(self, other)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Signal":
        return Signal(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Signal":
        return Signal(self.grid, -self.values)


def _require_compatible(f: Signal, g: Signal):
    if f.grid != g.grid:
        raise ShapeError(f"grids differ: {f.grid} vs {g.grid}")
    if f.dim != g.dim:
        raise ShapeError(f"channel counts differ: {f.dim} vs {g.dim}")


def zeros(grid: TimeGrid, dim: int = 1) -> Signal:
    return Signal(grid, np.zeros((grid.size, dim)))


def constant_signal(grid: TimeGrid, value: float, dim: int = 1) -> Signal:
    return Signal(grid, np.full((grid.size, dim), float(value)))


def random_signal(grid: TimeGrid, dim: int, rng: np.random.Generator,
                  scale: float = 1.0) -> Signal:
    """Gaussian samples, used for seeded probe generation."""
    return Signal(grid, scale * rng.standard_normal((grid.size, dim)))


def sample_weights(grid: TimeGrid, mode: str = "sequence",
                   trapezoid: bool = False) -> np.ndarray:
    """Quadrature weights over the samples of the grid.

    mode "sequence" weights every sample by 1; mode "sampled" weights by dt,
    with the first and last sample halved when trapezoid is set.
    """
    if mode == "sequence":
        if trapezoid:
            raise ValueError("trapezoid correction only applies to sampled mode")
        return np.ones(grid.size)
    if mode != "sampled":
        raise ValueError(f"unknown quadrature mode {mode!r}")
    w = np.full(grid.size, grid.dt)
    if trapezoid and grid.tau >= 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def inner_product(f: Signal, g: Signal, mode: str = "sequence",
                  trapezoid: bool = False) -> float:
    _require_compatible(f, g)
    w = sample_weights(f.grid, mode, trapezoid)
    return float(np.einsum("t,tc,tc->", w, f.values, g.values))


def norm(f: Signal, mode: str = "sequence") -> float:
    return math.sqrt(max(inner_product(f, f, mode), 0.0))


def truncate(f: Signal, T: int) -> Signal:
    """Zero every sample after index T, keeping the grid."""
    if not 0 <= T <= f.grid.tau:
        raise ValueError(f"truncation index {T} outside 0..{f.grid.tau}")
    out = f.values.copy()
    out[T + 1:] = 0.0
    return Signal(f.grid, out)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired input/output trajectories on one shared grid."""

    inputs: tuple[Signal, ...]
    outputs: tuple[Signal, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.inputs) == 0 or len(self.inputs) != len(self.outputs):
            raise ShapeError(
                f"need matching nonempty input/output lists, got "
                f"{len(self.inputs)}/{len(self.outputs)}"
            )
        grid = self.inputs[0].grid
        m = self.inputs[0].dim
        p = self.outputs[0].dim
        for s in self.inputs + self.outputs:
            if s.grid != grid:
                raise ShapeError("all trajectories must share one grid")
        for s in self.inputs:
            if s.dim != m:
                raise ShapeError("input channel counts differ across trajectories")
        for s in self.outputs:
            if s.dim != p:
                raise ShapeError("output channel counts differ across trajectories")

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def grid(self) -> TimeGrid:
        return self.inputs[0].grid

    @property
    def input_dim(self) -> int:
        return self.inputs[0].dim

    @property
    def output_dim(self) -> int:
        return self.outputs[0].dim


def csv_text(header: list[str], table: np.ndarray, newline: str) -> str:
    """CSV text of a header and one row per line of a 2-d table.

    Every value is written as %.17g, which round-trips float64 exactly; the
    rows are rendered by one format of a repeated row template.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + newline
    cells = tuple(table.ravel().tolist())
    return ",".join(header) + newline + (row * len(table)) % cells


def write_signal(f: Signal, path: str | Path):
    """CSV with header t,ch1,...,chd and one row per sample.

    Values are rendered by csv_text and every line ends in \\r\\n, the csv
    module's default; the file is written in one call.
    """
    header = ["t"] + [f"ch{k + 1}" for k in range(f.dim)]
    text = csv_text(header, np.column_stack([f.grid.times(), f.values]), "\r\n")
    with Path(path).open("w", newline="") as fh:
        fh.write(text)


def read_signal(path: str | Path, dt: float | None = None) -> Signal:
    """Read a trajectory CSV, validating the time column against j*dt.

    After the header line, numpy's C reader parses the body; it rounds
    every decimal correctly, as float() does.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            header, body = fh.readline(), fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if header.split(",")[0].strip() != "t":
        raise ValueError(f"{path}: first column must be named 't'")
    if not body.strip():
        raise ValueError(f"{path}: no samples")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                          comments=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    times, values = data[:, 0], data[:, 1:]
    if values.shape[1] < 1:
        raise ShapeError(f"{path}: no channel columns")
    if dt is None:
        if len(times) < 2:
            raise ValueError(f"{path}: cannot infer dt from a single row")
        dt = float(times[1] - times[0])
    try:
        grid = TimeGrid(len(times) - 1, dt)
        # written as "not <=" so that a NaN in the time column fails too
        if not np.abs(times - grid.times()).max() <= TIME_TOLERANCE:
            raise ValueError(f"time column deviates from j*dt (dt={dt})")
        return Signal(grid, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path: str | Path):
    """Parse a JSON file; a file that is not JSON raises a ValueError that
    names it."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def save_dataset(data: Dataset, directory: str | Path) -> Path:
    """Write one CSV per trajectory plus a JSON manifest; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i, (u, y) in enumerate(zip(data.inputs, data.outputs)):
        uname, yname = f"u_{i:03d}.csv", f"y_{i:03d}.csv"
        write_signal(u, directory / uname)
        write_signal(y, directory / yname)
        pairs.append({"input": uname, "output": yname})
    manifest = {
        "m": data.input_dim,
        "p": data.output_dim,
        "dt": data.grid.dt,
        "tau": data.grid.tau,
        "pairs": pairs,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def located(location: str | Path, name: str) -> Path:
    """location itself, or the file of that name in it if it is a directory."""
    location = Path(location)
    return location / name if location.is_dir() else location


def load_dataset(location: str | Path) -> Dataset:
    """Load a dataset from a manifest path or the directory holding one."""
    manifest_path = located(location, "manifest.json")
    meta = read_json(manifest_path)
    base = manifest_path.parent
    try:
        dt, m, p, tau = meta["dt"], meta["m"], meta["p"], meta["tau"]
        if (isinstance(dt, bool) or not isinstance(dt, (int, float))
                or not (math.isfinite(dt) and dt > 0)):
            raise ValueError(f"dt must be a positive finite number, got {dt!r}")
        dt = float(dt)
        for key, value in (("tau", tau), ("m", m), ("p", p)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not isinstance(meta["pairs"], list) or not meta["pairs"]:
            raise ValueError("pairs must be a non-empty list")
        pairs = [(base / pair["input"], base / pair["output"])
                 for pair in meta["pairs"]]
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    except (TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{manifest_path}: malformed manifest: "
                         f"{type(exc).__name__} {exc}") from None
    inputs, outputs = [], []
    for upath, ypath in pairs:
        inputs.append(read_signal(upath, dt=dt))
        outputs.append(read_signal(ypath, dt=dt))
    try:
        data = Dataset(tuple(inputs), tuple(outputs))
    except ShapeError as exc:
        raise ShapeError(f"{manifest_path}: {exc}") from None
    if data.input_dim != m or data.output_dim != p:
        raise ShapeError(
            f"{manifest_path}: manifest declares m={m}, p={p} "
            f"but files have m={data.input_dim}, p={data.output_dim}"
        )
    if data.grid.tau != tau:
        raise ShapeError(f"{manifest_path}: manifest tau {tau} != {data.grid.tau}")
    return data
