"""Sampled vector-valued signals on uniform time grids.

Everything downstream works with finite trajectories u : {0, ..., tau} -> R^d
under the plain sum inner product.
"""

from __future__ import annotations

import contextlib
import io
import json
import numbers
import operator
import os
import re
import reprlib
import sys
from pathlib import Path

import numpy as np

from .errors import NumericalError, ShapeError

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


def norms(x: np.ndarray) -> np.ndarray:
    """The norm of every lane of an (n, steps, dim) stack, each sum taken as
    inner_product takes it: for lanes in C order, the same bits as each
    lane alone."""
    return np.sqrt(np.einsum("t,btc,btc->b", np.ones(x.shape[1]), x, x))


def norm(f: Signal) -> float:
    return float(norms(f.values[None])[0])


def truncate(f: Signal, T: int) -> Signal:
    """Zero every sample after index T, keeping the grid."""
    if not 0 <= T <= f.grid.tau:
        raise ValueError(f"truncation index {T} outside 0..{f.grid.tau}")
    out = f.values.copy()
    out[T + 1:] = 0.0
    return Signal(f.grid, out)


class Dataset(Frozen):
    """Paired input/output trajectories on one shared grid: n pairs of
    input_dim and output_dim channels, held as the read-only stacks inputs
    (n, steps, input_dim) and outputs (n, steps, output_dim).  Built from
    stacks, or lists of (steps, dim) arrays, on a grid, or from two
    sequences of Signals on one grid."""

    __slots__ = ("inputs", "outputs", "n", "grid", "input_dim", "output_dim")

    def __init__(self, inputs, outputs, grid: TimeGrid | None = None):
        if grid is None:  # Signals
            grid = next((s.grid for s in (*inputs, *outputs)), None)
            if any(s.grid != grid for s in (*inputs, *outputs)):
                raise ShapeError("all trajectories must share one grid")
            inputs, outputs = ([s.values for s in side]
                               for side in (inputs, outputs))
        inputs = _stacked(inputs, "input", grid)
        outputs = _stacked(outputs, "output", grid)
        if len(inputs) == 0 or len(inputs) != len(outputs):
            raise ShapeError(
                f"need matching nonempty input/output lists, got "
                f"{len(inputs)}/{len(outputs)}"
            )
        self._set(inputs=inputs, outputs=outputs, n=len(inputs), grid=grid,
                  input_dim=inputs.shape[2], output_dim=outputs.shape[2])


def _stacked(values, side: str, grid: TimeGrid | None) -> np.ndarray:
    """A read-only float copy of an (n, grid.size, dim) stack, or of a list
    of (grid.size, dim) arrays stacked; ShapeError on any other shape (and
    on dims that differ across a list), ValueError on a non-finite sample."""
    if isinstance(values, (list, tuple)):
        if any(len(x) != grid.size for x in values):
            raise ShapeError("all trajectories must share one grid")
        if any(x.shape[1:] != values[0].shape[1:] for x in values):
            raise ShapeError(f"{side} channel counts differ across trajectories")
        values = (np.concatenate(values).reshape(len(values), grid.size, -1)
                  if values else np.zeros((0, 0, 1)))
    arr = np.array(values, dtype=float)
    if arr.ndim != 3 or arr.shape[2] < 1 or (len(arr) and arr.shape[1] != grid.size):
        raise ShapeError(f"{side}s must be (n, {grid.size}, dim) stacks with "
                         f"dim >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{side} trajectories contain non-finite samples")
    arr.setflags(write=False)
    return arr


def stacked(signals) -> np.ndarray:
    """The values of Signals on one grid and of one channel count as one
    (n, steps, dim) stack; ShapeError otherwise."""
    for x in signals:
        _require_compatible(x, signals[0])
    return np.stack([x.values for x in signals])


def as_lanes(u, grid: TimeGrid, dim: int) -> np.ndarray:
    """One Signal or one (B, steps, dim) stack on grid as a stack: off it or
    at another dim a ShapeError, any other input a TypeError naming both."""
    if isinstance(u, Signal):
        if u.grid != grid:
            raise ShapeError("input grid differs from the model's grid")
        u = u.values[None]
    elif not (isinstance(u, np.ndarray) and u.ndim == 3):
        raise TypeError(f"expected a Signal or a (B, steps, m) array, got "
                        f"{getattr(u, 'shape', type(u).__name__)}")
    elif u.shape[1] != grid.size:
        raise ShapeError(f"inputs of shape {u.shape} are off the grid")
    if u.shape[2] != dim:
        raise ShapeError(f"expected {dim} input channels, got {u.shape[2]}")
    return u


def pair_stack(pairs) -> np.ndarray:
    """Input pairs as one (pairs, 2, steps, dim) array: such an array as it
    is, or (u, v) Signal pairs on one grid, stacked.  An array of another
    shape, or a pair that is not two Signals, is a ShapeError naming the
    form."""
    form = "probe pairs must be one (pairs, 2, steps, dim) array"
    if isinstance(pairs, np.ndarray):
        if pairs.ndim != 4 or pairs.shape[1] != 2:
            raise ShapeError(f"{form}, not one of shape {pairs.shape}")
        return pairs
    pairs = list(pairs)
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(x, Signal) for x in pair)):
            raise ShapeError(f"{form} or (u, v) pairs of Signals; pair {i} "
                             f"is not two Signals")
    signals = [x for pair in pairs for x in pair]
    values = stacked(signals) if signals else np.zeros((0, 0, 1))
    return values.reshape(len(values) // 2, 2, *values.shape[1:])


def csv_text(header: list[str], table: np.ndarray, newline: str) -> str:
    """CSV text of a header and one row per line of a 2-d table.

    Every value is written as %.17g, which round-trips float64 exactly; the
    rows are rendered by one format of a repeated row template.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + newline
    cells = tuple(table.ravel().tolist())
    return ",".join(header) + newline + (row * len(table)) % cells


def write_signal(f: Signal | np.ndarray, path: str | Path,
                 grid: TimeGrid | None = None):
    """CSV with header t,ch1,...,chd and one row per sample of a Signal, or
    of a (steps, dim) array of samples on grid.

    Values are rendered by csv_text and every line ends in \\r\\n, the csv
    module's default; the file is written in one call.
    """
    values, grid = (f.values, f.grid) if grid is None else (f, grid)
    header = ["t"] + [f"ch{k + 1}" for k in range(values.shape[1])]
    text = csv_text(header, np.column_stack([grid.times(), values]), "\r\n")
    with Path(path).open("w", newline="") as fh:
        fh.write(text)


def _csv_body(path: Path) -> str:
    """The text after a trajectory CSV's header line, ending in a newline.

    The file is read as bytes in one call and decoded as UTF-8, and its
    \\r\\n and \\r line ends become \\n, as text-mode reading gives them."""
    with reading(path):
        try:  # unbuffered: no buffer object per file
            with open(path, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"not UTF-8 text: {exc}") from None
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        header, _, body = text.partition("\n")
        if header.split(",")[0].strip() != "t":
            raise ValueError("first column must be named 't'")
        if not body.strip():
            raise ValueError("no samples")
    return body if body.endswith("\n") else body + "\n"


def _at_line(message: str, body: str) -> str:
    """numpy's reader error on a CSV body with its row given as the file's
    line (the header is line 1).  The reader skips empty lines and counts
    its rows from 0 in a conversion error but from 1 in a column count
    error."""
    found = re.search(r"at row (\d+)", message)
    if found is None:
        return message
    row = int(found[1]) - (not message.startswith("could not convert"))
    lines = [k for k, line in enumerate(body.split("\n"), 2) if line]
    return (f"{message[:found.start()]}at line {lines[row]}"
            f"{message[found.end():]}")


def _parsed(paths, dt: float, bodies: list[str] | None = None
            ) -> list[np.ndarray]:
    """The (samples, channels) values of trajectory CSVs, one array per
    file.  Each file is read once (unless bodies holds them) and its header
    checked on its own (see _csv_body); then all bodies are parsed by one
    call of numpy's C reader.

    The reader rounds every decimal correctly, as float() does.  A line
    gives at most one row and each body ends in a newline, so when the rows
    number the lines, every file got exactly its own.  Otherwise (an empty
    line was skipped, or the joined parse raised, whose message would count
    rows of the joined text) each body is parsed alone, in order, and the
    first error names its file.  The time columns (against j*dt) and the
    samples (for finiteness) are checked on the stacked rows, and the first
    file that fails is named.
    """
    if bodies is None:
        bodies = [_csv_body(path) for path in paths]
    try:
        table = np.loadtxt(io.StringIO("".join(bodies)), delimiter=",",
                           ndmin=2, comments=None)
    except ValueError as exc:
        if len(paths) == 1:
            raise ValueError(f"{paths[0]}: {_at_line(str(exc), bodies[0])}"
                             ) from None
        table = None
    rows = np.array([body.count("\n") for body in bodies])
    if len(paths) == 1:  # a lone file owns every row, empty lines or not
        rows[0] = len(table)
    elif table is None or len(table) != rows.sum():
        return [values for path, body in zip(paths, bodies)
                for values in _parsed([path], dt, [body])]
    if table.shape[1] < 2:
        raise ShapeError(f"{paths[0]}: no channel columns")
    starts = np.cumsum(rows) - rows
    times, block = table[:, 0], np.ascontiguousarray(table[:, 1:])
    with np.errstate(all="ignore"):  # a NaN deviation fails the test below
        j = np.arange(len(times)) - np.repeat(starts, rows)
        worst = np.maximum.reduceat(np.abs(times - j * dt), starts)
    # written as "not <=" so that a NaN in the time column fails too
    drifts = ~(worst <= TIME_TOLERANCE)
    faults = drifts | ~np.logical_and.reduceat(
        np.isfinite(block).all(axis=1), starts)
    if faults.any():
        first = int(np.argmax(faults))
        raise ValueError(f"{paths[first]}: " + (
            f"time column deviates from j*dt (dt={dt})" if drifts[first]
            else "signal contains non-finite samples"))
    return [block[start:start + count]
            for start, count in zip(starts.tolist(), rows.tolist())]


def read_signals(paths, dt: float) -> list[Signal]:
    """Read trajectory CSVs, validating each time column against j*dt.

    All files are parsed in one pass (see _parsed).  An unreadable or
    malformed file (not UTF-8, ragged rows, a non-numeric field, a
    non-finite value, no samples, a drifting time column) raises a
    ValueError that starts with its path.
    """
    return [Signal(TimeGrid(len(values) - 1, dt), values)
            for values in _parsed(paths, dt)]


def read_json(path: str | Path):
    """Parse a JSON file; a file that cannot be read or is not JSON raises
    a ValueError that names it (see reading).  So do nesting past the
    recursion limit and integers past Python's digit limit for string
    conversion."""
    path = Path(path)
    with reading(path):
        try:
            return json.loads(path.read_text())
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"not valid JSON: {exc}") from None


@contextlib.contextmanager
def reading(path: str | Path | None, label: str | None = None,
            catch: tuple = (ValueError, NumericalError, OSError)):
    """Name the file whose reading met a fault.  A fault of a class in
    catch leaves with "<path>: " before its message, its class and
    attributes kept (an OSError as a ValueError of its strerror); given a
    label, a TypeError, KeyError or AttributeError leaves as the ValueError
    "<path>: malformed <label>: <Type> <message>".  Others pass as they
    are, and with path None, all do."""
    if path is None:
        yield
        return
    malformed = (TypeError, KeyError, AttributeError) if label else ()
    try:
        yield
    except malformed as exc:
        raise ValueError(f"{path}: malformed {label}: "
                         f"{type(exc).__name__} {exc}") from None
    except catch as exc:
        if isinstance(exc, OSError):
            raise ValueError(f"{path}: {exc.strerror or exc}") from None
        exc.args = (f"{path}: {exc}",)
        raise


def save_dataset(data: Dataset, directory: str | Path) -> Path:
    """Write one CSV per trajectory plus a JSON manifest; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i, (u, y) in enumerate(zip(data.inputs, data.outputs)):
        uname, yname = f"u_{i:03d}.csv", f"y_{i:03d}.csv"
        write_signal(u, directory / uname, data.grid)
        write_signal(y, directory / yname, data.grid)
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
    "fraction": ("a number in (0, 1]", lambda x: 0 < x <= 1),
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


def check_memory(values: int, what: str) -> None:
    """Refuse (MemoryError) a float64 array of values entries, before it
    is allocated, when physical memory cannot hold it; what names the
    settings that ask for it."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * values > memory:
        # a count of up to float range squared is past float range
        size = f"{8.0 * values:.3g}" if values < 1e300 else "over 1e300"
        raise MemoryError(f"{what} asks for an array of {size} bytes, more "
                          f"than the {memory} bytes of physical memory")


def _json_matrix(obj, name: str) -> np.ndarray:
    """A matrix read from JSON: a non-empty list of rows, each a list of as
    many entries as there are rows, and each entry a number that checked
    takes as "finite" (so no bool or string).  Anything else raises a
    ShapeError or ValueError naming name or the entry."""
    if not (isinstance(obj, list) and obj and all(
            isinstance(row, list) and len(row) == len(obj) for row in obj)):
        raise ShapeError(f"{name} must be a square list of lists, "
                         f"got {reprlib.repr(obj)}")
    return np.array([[checked(x, "finite", f"{name}[{i}][{j}]")
                      for j, x in enumerate(row)] for i, row in enumerate(obj)])


def _frozen_matrix(a, name: str, symmetric: bool = False) -> np.ndarray:
    """A read-only float copy of a, which must be a square 2-d matrix of
    finite entries, and with symmetric set also satisfy
    max|A - A'| <= 1e-12 max(1, max|A|).  ShapeError or ValueError
    otherwise."""
    arr = np.asarray(a, dtype=float).copy()
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    if symmetric:
        with np.errstate(over="ignore"):  # an overflowing difference is inf
            gap = np.abs(arr - arr.T).max()
        if gap > 1e-12 * max(1.0, np.abs(arr).max()):
            raise ShapeError(f"{name} must be symmetric")
    arr.setflags(write=False)
    return arr


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
    with reading(manifest_path, "manifest"):
        dt, tau, m, p = manifest_values(meta, dt="positive", tau="integer",
                                        m="count", p="count")
        if not isinstance(meta["pairs"], list) or not meta["pairs"]:
            raise ValueError("pairs must be a non-empty list")
        pairs = [(base / pair["input"], base / pair["output"])
                 for pair in meta["pairs"]]
    upaths, ypaths = zip(*pairs)
    inputs, outputs = _parsed(upaths, dt), _parsed(ypaths, dt)
    # pair by pair, input before output
    files = zip((path for pair in pairs for path in pair),
                (values for pair in zip(inputs, outputs) for values in pair))
    for path, values in files:
        if len(values) != tau + 1:
            raise ShapeError(f"{path}: {len(values)} samples, but "
                             f"{manifest_path} declares tau={tau} "
                             f"({tau + 1} samples)")
    with reading(manifest_path):
        data = Dataset(inputs, outputs, TimeGrid(tau, dt))
        if data.input_dim != m or data.output_dim != p:
            raise ShapeError(f"manifest declares m={m}, p={p} but files have "
                             f"m={data.input_dim}, p={data.output_dim}")
    return data
