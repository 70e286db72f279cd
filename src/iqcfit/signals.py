"""Sampled vector-valued signals on uniform time grids.

Everything downstream works with finite trajectories u : {0, ..., tau} -> R^d
under the plain sum inner product.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import operator
import reprlib
import sys
from pathlib import Path

import numpy as np

from .errors import ShapeError

# Sample times in a CSV file must match j*dt to this absolute tolerance.
TIME_TOLERANCE = 1e-9


class Frozen:
    """Base of the library's immutable classes: assigning or deleting an
    attribute raises AttributeError.  __init__ sets each field once through
    _set."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the fields here, not through __setattr__;
        # state is the __dict__, or (the __dict__ or None, the slot values)
        for fields in state if isinstance(state, tuple) else (state,):
            self._set(**(fields or {}))


class Value(Frozen):
    """A Frozen class that compares, hashes and prints by its __slots__, as
    a frozen dataclass does by its fields.  It needs at least two slots, so
    that _values gives a tuple."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"


class TimeGrid(Value):
    """Uniform grid t_j = j*dt for j = 0, ..., tau."""

    __slots__ = ("tau", "dt")

    def __init__(self, tau: int, dt: float = 1.0):
        if not isinstance(tau, int) or tau < 0:
            raise ShapeError(f"tau must be a nonnegative integer, got {tau!r}")
        self._set(tau=tau, dt=checked(dt, "positive", "dt"))

    @property
    def size(self) -> int:
        return self.tau + 1

    def times(self) -> np.ndarray:
        return np.arange(self.size) * self.dt


class Signal(Frozen):
    """Immutable trajectory with samples stacked as a (tau+1, dim) array."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ShapeError(f"signal values must be 1-d or 2-d, got ndim={arr.ndim}")
        if arr.shape[0] != grid.size:
            raise ShapeError(
                f"expected {grid.size} samples for tau={grid.tau}, "
                f"got {arr.shape[0]}"
            )
        if arr.shape[1] < 1:
            raise ShapeError("signal needs at least one channel")
        if not np.isfinite(arr).all():
            raise ValueError("signal contains non-finite samples")
        arr = arr.copy()
        arr.setflags(write=False)
        self._set(grid=grid, values=arr)

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


def inner_product(f: Signal, g: Signal) -> float:
    """The plain sum over samples and channels of f * g."""
    _require_compatible(f, g)
    # three operands, unit weights first: the two-operand einsum sums in
    # another order and rounds the last bits differently
    return float(np.einsum("t,tc,tc->", np.ones(f.grid.size), f.values,
                           g.values))


def norm(f: Signal) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


def truncate(f: Signal, T: int) -> Signal:
    """Zero every sample after index T, keeping the grid."""
    if not 0 <= T <= f.grid.tau:
        raise ValueError(f"truncation index {T} outside 0..{f.grid.tau}")
    out = f.values.copy()
    out[T + 1:] = 0.0
    return Signal(f.grid, out)


class Dataset(Frozen):
    """Paired input/output trajectories on one shared grid."""

    __slots__ = ("inputs", "outputs")

    def __init__(self, inputs: tuple[Signal, ...], outputs: tuple[Signal, ...]):
        self._set(inputs=tuple(inputs), outputs=tuple(outputs))
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


def _csv_body(path: Path) -> str:
    """The text after a trajectory CSV's header line, ending in a newline.

    The file is read as bytes in one call and decoded as UTF-8, and its
    \\r\\n and \\r line ends become \\n, as text-mode reading gives them."""
    try:
        with path.open("rb", buffering=0) as fh:  # no buffer object per file
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header, _, body = text.partition("\n")
    if header.split(",")[0].strip() != "t":
        raise ValueError(f"{path}: first column must be named 't'")
    if not body.strip():
        raise ValueError(f"{path}: no samples")
    return body if body.endswith("\n") else body + "\n"


def _parsed(paths: list[Path], bodies: list[str], dt: float) -> list[Signal]:
    """Signals of CSV bodies, parsed by one call of numpy's C reader.

    The reader rounds every decimal correctly, as float() does.  A line
    gives at most one row and each body ends in a newline, so when the rows
    number the lines, every file got exactly its own.  Otherwise (an empty
    line was skipped, or the joined parse raised, whose message would count
    rows of the joined text) each body is parsed alone, in order, and the
    first error names its file.
    """
    try:
        table = np.loadtxt(io.StringIO("".join(bodies)), delimiter=",",
                           ndmin=2, comments=None)
    except ValueError as exc:
        if len(paths) == 1:
            raise ValueError(f"{paths[0]}: {exc}") from None
        table = None
    rows = np.array([body.count("\n") for body in bodies])
    if len(paths) == 1:  # a lone file owns every row, empty lines or not
        rows[0] = len(table)
    elif table is None or len(table) != rows.sum():
        return [signal for path, body in zip(paths, bodies)
                for signal in _parsed([path], [body], dt)]
    # the time columns are checked against j*dt on the stacked rows
    starts = np.cumsum(rows) - rows
    times = table[:, 0]
    with np.errstate(all="ignore"):  # the loop rejects a NaN deviation
        j = np.arange(len(times)) - np.repeat(starts, rows)
        worst = np.maximum.reduceat(np.abs(times - j * dt), starts)
    block = np.ascontiguousarray(table[:, 1:])  # contiguous rows per file
    signals = []
    for path, start, count, deviation in zip(
            paths, starts.tolist(), rows.tolist(), worst.tolist()):
        values = block[start:start + count]
        if values.shape[1] < 1:
            raise ShapeError(f"{path}: no channel columns")
        try:
            grid = TimeGrid(count - 1, dt)
            # written as "not <=" so that a NaN in the time column fails too
            if not deviation <= TIME_TOLERANCE:
                raise ValueError(f"time column deviates from j*dt (dt={dt})")
            signals.append(Signal(grid, values))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return signals


def read_signals(paths, dt: float) -> list[Signal]:
    """Read trajectory CSVs, validating each time column against j*dt.

    Each file is read once and its header checked on its own; then all
    bodies are parsed in one pass (see _parsed).  An unreadable or
    malformed file (not UTF-8, ragged rows, a non-numeric field, a
    non-finite value, no samples, a drifting time column) raises a
    ValueError that starts with its path.
    """
    # Path() of a Path parses it again, a cost per file
    paths = [p if isinstance(p, Path) else Path(p) for p in paths]
    return _parsed(paths, [_csv_body(path) for path in paths], dt)


def read_json(path: str | Path):
    """Parse a JSON file; a file that is not JSON raises a ValueError that
    names it.  So do nesting past the recursion limit and integers past
    Python's digit limit for string conversion."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
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


# What checked requires of each kind of number: its description and the test
# of its range.  Every kind is finite, and a JSON boolean, though an int in
# Python, is no number.
NUMBER_KINDS = {
    "integer": ("a non-negative integer", lambda x: x >= 0),
    "count": ("an integer at least 1", lambda x: x >= 1),
    "finite": ("a finite number", lambda x: True),
    "nonnegative": ("a non-negative finite number", lambda x: x >= 0),
    "positive": ("a positive finite number", lambda x: x > 0),
}


def checked(value, kind: str, name: str = "") -> int | float:
    """value as a number of its kind (a key of NUMBER_KINDS): an int for
    "integer" and "count", else a float.  Any other value, an integer beyond
    float range too, raises a ValueError "<name> must be <kind>, got ..."."""
    what, in_range = NUMBER_KINDS[kind]
    integral = kind in ("integer", "count")
    if (isinstance(value, numbers.Integral if integral else numbers.Real)
            and not isinstance(value, bool)):
        # a Python int compares with a float exactly, so one beyond float
        # range fails the test, as NaN does
        number = (int(value) if isinstance(value, numbers.Integral)
                  else float(value))
        if (-sys.float_info.max <= number <= sys.float_info.max
                and in_range(number)):
            return number if integral else float(number)
    raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}"
                     .lstrip())


def manifest_values(meta: dict, **kinds: str) -> list:
    """checked(meta[key], kind, key) for each keyword key=kind, in order; a
    missing key raises a KeyError."""
    return [checked(meta[key], kind, key) for key, kind in kinds.items()]


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
        dt, tau, m, p = manifest_values(meta, dt="positive", tau="integer",
                                        m="count", p="count")
        if not isinstance(meta["pairs"], list) or not meta["pairs"]:
            raise ValueError("pairs must be a non-empty list")
        pairs = [(base / pair["input"], base / pair["output"])
                 for pair in meta["pairs"]]
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"{manifest_path}: malformed manifest: "
                         f"{type(exc).__name__} {exc}") from None
    upaths, ypaths = zip(*pairs)
    inputs, outputs = read_signals(upaths, dt), read_signals(ypaths, dt)
    try:
        data = Dataset(inputs, outputs)
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
