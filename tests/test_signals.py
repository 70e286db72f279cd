import csv
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcfit.errors import (DivergenceError, KernelSpecError, NumericalError,
                           ShapeError)
from iqcfit.signals import (
    Dataset,
    Signal,
    TimeGrid,
    check_memory,
    constant_signal,
    inner_product,
    load_dataset,
    manifest_values,
    norm,
    random_signal,
    read_signals,
    reading,
    save_dataset,
    truncate,
    write_signal,
    zeros,
)


def test_grid_basics():
    grid = TimeGrid(4, 0.5)
    assert grid.size == 5
    assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(-1)
    with pytest.raises(ValueError):
        TimeGrid(3, 0.0)


def test_signal_normalizes_1d_to_column():
    s = Signal(TimeGrid(2), [1.0, 2.0, 3.0])
    assert s.values.shape == (3, 1)
    assert s.dim == 1


def test_signal_rejects_bad_shapes_and_values():
    with pytest.raises(ShapeError):
        Signal(TimeGrid(2), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Signal(TimeGrid(1), [np.nan, 0.0])


def test_signal_values_read_only():
    s = Signal(TimeGrid(1), [1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0, 0] = 5.0


def test_signal_arithmetic():
    grid = TimeGrid(2)
    f = Signal(grid, [1.0, 2.0, 3.0])
    g = Signal(grid, [1.0, 1.0, 1.0])
    assert np.array_equal((f + g).values[:, 0], [2.0, 3.0, 4.0])
    assert np.array_equal((f - g).values[:, 0], [0.0, 1.0, 2.0])
    assert np.array_equal((2.0 * f).values, (f * 2.0).values)
    assert np.array_equal((-f).values[:, 0], [-1.0, -2.0, -3.0])


def test_inner_product_constant_ones():
    grid = TimeGrid(1)
    f = constant_signal(grid, 1.0)
    assert inner_product(f, f) == 2.0


def test_inner_product_samplewise_orthogonal():
    grid = TimeGrid(3)
    f = Signal(grid, np.tile([1.0, 0.0], (4, 1)))
    g = Signal(grid, np.tile([0.0, 1.0], (4, 1)))
    assert inner_product(f, g) == 0.0


def test_norms():
    grid = TimeGrid(3)
    assert norm(zeros(grid)) == 0.0
    assert norm(constant_signal(grid, 3.0)) == 6.0
    assert norm(constant_signal(TimeGrid(0), 1.0, dim=2)) == pytest.approx(
        np.sqrt(2.0), rel=1e-15
    )


def test_inner_product_sums_in_the_unit_weight_order():
    # norms feed Picard's default tolerance and the reports, so the sum's
    # last bits are pinned to the three-operand form
    rng = np.random.default_rng(11)
    for _ in range(50):
        grid = TimeGrid(int(rng.integers(0, 40)))
        dim = int(rng.integers(1, 4))
        f, g = random_signal(grid, dim, rng), random_signal(grid, dim, rng)
        want = np.einsum("t,tc,tc->", np.ones(grid.size), f.values, g.values)
        assert inner_product(f, g) == float(want)


def test_truncate_examples():
    grid = TimeGrid(2)
    f = Signal(grid, [1.0, 2.0, 3.0])
    assert np.array_equal(truncate(f, 2).values, f.values)
    assert np.array_equal(truncate(f, 0).values[:, 0], [1.0, 0.0, 0.0])
    t = truncate(f, 1)
    assert np.array_equal(truncate(t, 1).values, t.values)
    with pytest.raises(ValueError):
        truncate(f, 3)
    with pytest.raises(ValueError):
        truncate(f, -1)


def test_cauchy_schwarz_sweep():
    rng = np.random.default_rng(3)
    for _ in range(200):
        grid = TimeGrid(int(rng.integers(0, 8)), dt=float(rng.uniform(0.1, 2)))
        dim = int(rng.integers(1, 4))
        f = random_signal(grid, dim, rng)
        g = random_signal(grid, dim, rng)
        lhs = abs(inner_product(f, g))
        rhs = norm(f) * norm(g)
        assert lhs <= rhs * (1 + 1e-12)


def test_truncation_contraction_and_linearity():
    rng = np.random.default_rng(4)
    grid = TimeGrid(6)
    f = random_signal(grid, 2, rng)
    g = random_signal(grid, 2, rng)
    for T in range(7):
        assert norm(truncate(f, T)) <= norm(f)
        lhs = truncate(2.5 * f + (-1.5) * g, T)
        rhs = 2.5 * truncate(f, T) + (-1.5) * truncate(g, T)
        assert np.array_equal(lhs.values, rhs.values)


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    f = random_signal(TimeGrid(7, dt=0.25), 3, rng, scale=100.0)
    path = tmp_path / "sig.csv"
    write_signal(f, path)
    g = read_signals([path], 0.25)[0]
    # %.17g rendering preserves float64 exactly
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)


def test_read_signal_validates_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ch1\n0,1\n0.5,2\n1.2,3\n")
    for dt in (0.5, 0.4):
        with pytest.raises(ValueError, match="time column deviates"):
            read_signals([path], dt)


def test_dataset_requires_shared_grid():
    g1, g2 = TimeGrid(2), TimeGrid(3)
    u = constant_signal(g1, 1.0)
    with pytest.raises(ShapeError):
        Dataset((u,), (constant_signal(g2, 1.0),))
    with pytest.raises(ValueError):
        Dataset((), ())


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    grid = TimeGrid(5, dt=0.5)
    data = Dataset(
        tuple(random_signal(grid, 2, rng) for _ in range(3)),
        tuple(random_signal(grid, 1, rng) for _ in range(3)),
    )
    save_dataset(data, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.n == 3 and back.input_dim == 2 and back.output_dim == 1
    assert np.array_equal(data.inputs, back.inputs)
    assert np.array_equal(data.outputs, back.outputs)


def test_load_dataset_rejects_tampered_manifest(tmp_path):
    rng = np.random.default_rng(7)
    grid = TimeGrid(3)
    data = Dataset(
        (random_signal(grid, 1, rng),), (random_signal(grid, 1, rng),)
    )
    save_dataset(data, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"m": 1', '"m": 2'))
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "ds")


def _write_signal_csv_writer(f, path):
    """Reference: the csv.writer loop write_signal replaced, kept verbatim."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"ch{k + 1}" for k in range(f.dim)])
        for j, t in enumerate(f.grid.times()):
            writer.writerow([f"{t:.17g}"] + [f"{x:.17g}" for x in f.values[j]])


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
                -1.7976931348623157e308]


@given(dim=st.integers(1, 3), tau=st.integers(0, 30),
       dt=st.sampled_from([1.0, 0.1, 1e-3]), data=st.data())
def test_write_signal_matches_csv_writer_and_round_trips(tmp_path_factory,
                                                         dim, tau, dt, data):
    cells = data.draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=(tau + 1) * dim, max_size=(tau + 1) * dim))
    f = Signal(TimeGrid(tau, dt), np.array(cells).reshape(tau + 1, dim))
    root = tmp_path_factory.mktemp("csv")
    write_signal(f, root / "new.csv")
    _write_signal_csv_writer(f, root / "ref.csv")
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()
    back = read_signals([root / "new.csv"], dt)[0]
    assert back.grid == f.grid
    assert back.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("name, text, error", [
    ("ragged", "t,ch1\r\n0,1\r\n1,2,3\r\n", ValueError),
    ("blank_only", "\r\n\r\n", ValueError),
    ("blank_body", "t,ch1\r\n\r\n\r\n", ValueError),
    ("non_numeric", "t,ch1\r\n0,1\r\n1,abc\r\n", ValueError),
    ("header_only", "t,ch1\r\n", ValueError),
    ("time_drift", "t,ch1\r\n0,1\r\n1,2\r\n2.5,3\r\n", ValueError),
    ("no_channels", "t\r\n0\r\n1\r\n", ShapeError),
    ("nan_sample", "t,ch1\r\n0,nan\r\n1,2\r\n", ValueError),
    ("inf_sample", "t,ch1\r\n0,inf\r\n1,2\r\n", ValueError),
    ("overflow_sample", "t,ch1\r\n0,1e999\r\n1,2\r\n", ValueError),
    ("nan_time", "t,ch1\r\n0,1\r\n1,2\r\nnan,3\r\n", ValueError),
])
def test_read_signal_errors_name_the_file(tmp_path, name, text, error):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    with pytest.raises(error, match=re.escape(str(path))):
        read_signals([path], 1.0)


_CSV_ALPHABET = list(b"0123456789.,-+eEtnaifx\t \r\n") + [0, 0xff, 0xc3]


def _numbered_rows(rows):
    """CSV bytes whose row j is j, then the row's values."""
    lines = [",".join(map(repr, [j] + row)) for j, row in enumerate(rows)]
    return "".join(line + "\r\n" for line in ["t,ch1"] + lines).encode()


@settings(max_examples=300)
@given(raw=st.one_of(
           st.binary(max_size=120),
           st.binary(max_size=120).map(lambda body: b"t,ch1\r\n" + body),
           st.lists(st.sampled_from(_CSV_ALPHABET), max_size=120).map(
               lambda body: b"t,ch1\r\n0,1\r\n" + bytes(body)),
           st.lists(st.lists(st.floats(), min_size=1, max_size=2),
                    max_size=6).map(_numbered_rows)),
       dt=st.sampled_from([1.0, 0.5]))
def test_read_signal_fuzz(tmp_path_factory, raw, dt):
    # any bytes: a Signal, or a ValueError (ShapeError included) naming
    # the file, and nothing else
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes(raw)
    try:
        f = read_signals([path], dt)[0]
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(f, Signal)


def _fault_line(body):
    """The file line (the header is line 1) of the first fault numpy's
    reader meets in a CSV body: the last line of the shortest prefix of the
    body that it refuses."""
    lines = body.split("\n")
    for k in range(1, len(lines) + 1):
        try:
            with warnings.catch_warnings():  # a prefix of empty lines
                warnings.simplefilter("ignore")
                np.loadtxt(io.StringIO("\n".join(lines[:k])), delimiter=",",
                           ndmin=2, comments=None)
        except ValueError:
            return k + 1


def _read_signal_reference(path, dt):
    """Reference: the one-file reader read_signals replaced, kept verbatim
    but for the parser's faults, which name the file's line (_fault_line)
    where numpy names its row."""
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
        message = re.sub(r"at row \d+", f"at line {_fault_line(body)}",
                         str(exc))
        raise ValueError(f"{path}: {message}") from None
    times, values = data[:, 0], data[:, 1:]
    if values.shape[1] < 1:
        raise ShapeError(f"{path}: no channel columns")
    try:
        grid = TimeGrid(len(times) - 1, dt)
        if not np.abs(times - grid.times()).max() <= 1e-9:
            raise ValueError(f"time column deviates from j*dt (dt={dt})")
        return Signal(grid, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checked_before_parsing(exc, path):
    """Whether a reader error is one of the checks read_signals makes on
    every file before parsing any."""
    text = str(exc)
    return (text.startswith(f"{path}: not UTF-8 text: ")
            or text in (f"{path}: first column must be named 't'",
                        f"{path}: no samples"))


def _blank_lines(rows):
    """Numbered rows with empty and whitespace-only lines spliced in."""
    lines = _numbered_rows(rows).split(b"\r\n")
    return b"\r\n".join(lines[:2] + [b"", b" "][:len(rows) % 3]
                         + lines[2:])


def _stepped_rows(start, step, values):
    """CSV bytes whose row j is start + j*step, then one value."""
    lines = [f"{start + j * step!r},{v!r}" for j, v in enumerate(values)]
    return "".join(line + "\r\n" for line in ["t,ch1"] + lines).encode()


_CSV_FILES = st.one_of(
    st.binary(max_size=80),
    st.builds(_stepped_rows, st.sampled_from([0, 1]),
              st.sampled_from([0.5, 1.0, 2.0]),
              st.lists(st.floats(-9, 9), min_size=1, max_size=4)),
    st.lists(st.sampled_from(_CSV_ALPHABET), max_size=60).map(
        lambda body: b"t,ch1\r\n0,1\r\n" + bytes(body)),
    st.lists(st.lists(st.floats(), min_size=1, max_size=2), min_size=1,
             max_size=5).map(_numbered_rows),
    st.lists(st.lists(st.floats(-9, 9), min_size=2, max_size=2),
             min_size=2, max_size=5).map(_blank_lines),
    st.lists(st.lists(st.floats(-9, 9), min_size=1, max_size=1),
             min_size=1, max_size=5).map(
        lambda rows: _numbered_rows(rows).replace(b"\r\n", b"\n")[:-1]),
)


# The byte offset in a UTF-8 decoding error: the reader decodes each file
# whole and counts from its start, where text-mode reading counted from the
# start of a read chunk (or of a pending partial character at the end).
_DECODE_OFFSET = re.compile(r" in position [0-9-]+: ")


def _assert_matches_reference(root, files, dt):
    """The files read together give what each gives alone, bit for bit; an
    error is the reference's for the first file that fails the checks made
    before parsing, else for the first file that fails at all (up to the
    offset of a decoding error)."""
    paths = [root / f"f{i}.csv" for i in range(len(files))]
    outcomes = []
    for path, raw in zip(paths, files):
        path.write_bytes(raw)
        try:
            outcomes.append(_read_signal_reference(path, dt))
        except ValueError as exc:
            outcomes.append(exc)
    failed = [(path, out) for path, out in zip(paths, outcomes)
              if isinstance(out, ValueError)]
    if not failed:
        for got, want in zip(read_signals(paths, dt), outcomes):
            assert got.grid == want.grid
            assert got.values.tobytes() == want.values.tobytes()
        return
    early = [out for path, out in failed if _checked_before_parsing(out, path)]
    want = (early or [out for _, out in failed])[0]
    with pytest.raises(ValueError) as info:
        read_signals(paths, dt)
    assert type(info.value) is type(want)
    assert (_DECODE_OFFSET.sub(": ", str(info.value))
            == _DECODE_OFFSET.sub(": ", str(want)))


@settings(max_examples=200)
@given(files=st.lists(_CSV_FILES, min_size=1, max_size=4),
       dt=st.sampled_from([1, 1.0, 0.5]))
def test_read_signals_matches_one_file_reference(tmp_path_factory, files, dt):
    _assert_matches_reference(tmp_path_factory.mktemp("many"), files, dt)


# A fault in a five-sample CSV (header line 1, samples on lines 2-6): its
# edit of the sample rows and the message head the fault gives.
_LINE_FAULTS = {
    "first": (lambda rows: ["0.0,x"] + rows[1:],
              "could not convert string 'x' to float64 at line 2, column 2."),
    "middle": (lambda rows: rows[:2] + ["1.0,x"] + rows[3:],
               "could not convert string 'x' to float64 at line 4, column 2."),
    "last": (lambda rows: rows[:4] + ["2.0,x"],
             "could not convert string 'x' to float64 at line 6, column 2."),
    "after-blank": (lambda rows: rows[:2] + ["", "1.0,x"] + rows[3:],
                    "could not convert string 'x' to float64 at line 5, "
                    "column 2."),
    "ragged": (lambda rows: rows[:2] + ["1.0,1.0,1.0"] + rows[3:],
               "the number of columns changed from 2 to 3 at line 4;"),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("among", [False, True], ids=["alone", "among-files"])
@pytest.mark.parametrize("fault", sorted(_LINE_FAULTS))
def test_csv_fault_names_the_file_line(tmp_path, newline, among, fault):
    # the line counts the header and blank lines, read alone or in a batch
    edit, says = _LINE_FAULTS[fault]
    rows = [f"{0.5 * j!r},1.0" for j in range(5)]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_bytes(newline.join(["t,ch1", *rows, ""]).encode())
    bad.write_bytes(newline.join(["t,ch1", *edit(rows), ""]).encode())
    with pytest.raises(ValueError) as info:
        read_signals([good, bad, good] if among else [bad], 0.5)
    assert str(info.value).startswith(f"{bad}: {says}")


@settings(max_examples=60)
@given(files=st.lists(st.builds(_stepped_rows, st.sampled_from([0, 1]),
                                st.sampled_from([0.5, 1.0, 2.0]),
                                st.lists(st.floats(-9, 9), min_size=2,
                                         max_size=3)),
                      min_size=2, max_size=4),
       dt=st.sampled_from([1, 0.5]))
def test_read_signals_time_columns_per_file(tmp_path_factory, files, dt):
    # files of different steps and starts: the first file whose time column
    # is not j*dt is the one named
    _assert_matches_reference(tmp_path_factory.mktemp("steps"), files, dt)


_ANY_FINITE = st.one_of(
    st.sampled_from(_EDGE_VALUES + [1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=30)
@given(n=st.integers(1, 8), tau=st.integers(0, 10), m=st.integers(1, 3),
       p=st.integers(1, 3), dt=st.sampled_from([1.0, 0.1, 1e-3]),
       data=st.data())
def test_load_dataset_matches_each_file_parsed_alone(tmp_path_factory, n, tau,
                                                     m, p, dt, data):
    grid = TimeGrid(tau, dt)

    def trajectory(dim):
        cells = data.draw(st.lists(_ANY_FINITE, min_size=grid.size * dim,
                                   max_size=grid.size * dim))
        return Signal(grid, np.array(cells).reshape(grid.size, dim))

    dataset = Dataset(tuple(trajectory(m) for _ in range(n)),
                      tuple(trajectory(p) for _ in range(n)))
    root = tmp_path_factory.mktemp("ds")
    save_dataset(dataset, root)
    back = load_dataset(root)
    assert back.grid == grid and back.n == n
    for i in range(n):
        for side, values in (("u", back.inputs[i]), ("y", back.outputs[i])):
            alone = np.loadtxt(root / f"{side}_{i:03d}.csv", delimiter=",",
                               skiprows=1, ndmin=2)[:, 1:]
            assert np.array_equal(values.view(np.int64),
                                  alone.view(np.int64))


def test_manifest_values_kinds():
    meta = {"a": 3, "b": 0.5, "c": -2, "d": 0}
    assert manifest_values(meta, a="integer", b="positive", c="finite",
                           d="finite") == [3, 0.5, -2.0, 0.0]
    for key, kind, value in [("a", "integer", True), ("a", "integer", 2.0),
                             ("a", "integer", "2"), ("b", "positive", 0),
                             ("b", "positive", -1e-300),
                             ("b", "positive", math.inf),
                             ("b", "positive", False), ("c", "finite", None),
                             ("c", "finite", math.nan), ("c", "finite", [1])]:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            manifest_values({key: value}, **{key: kind})
    with pytest.raises(KeyError):
        manifest_values({}, a="integer")


def test_decoding_error_counts_bytes_from_the_file_start(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_bytes(b"t,ch1\r\n0,1\r\n\xc3")
    with pytest.raises(ValueError) as info:
        read_signals([path], 1.0)
    assert str(info.value) == (f"{path}: not UTF-8 text: 'utf-8' codec can't "
                               "decode byte 0xc3 in position 12: unexpected "
                               "end of data")


def test_check_memory_sizes_counts_of_any_magnitude():
    check_memory(1, "one value")
    with pytest.raises(MemoryError, match=r"^a million terabytes asks for "
                       r"an array of 8e\+18 bytes, more than the \d+ bytes "
                       r"of physical memory$"):
        check_memory(10**18, "a million terabytes")
    with pytest.raises(MemoryError, match=r"^dim 10\*\*300 squared asks "
                       r"for an array of over 1e300 bytes"):
        check_memory(10**600, "dim 10**300 squared")


@pytest.mark.parametrize("fault", [
    ShapeError("expected 5 samples"), NumericalError("the Gram overflows"),
    DivergenceError(3, 7), KernelSpecError("malformed kernel {}: R"),
    ValueError("pairs must be a non-empty list")])
def test_reading_names_the_file_and_keeps_the_fault(fault):
    want = f"data/manifest.json: {fault}"
    with pytest.raises(type(fault)) as info:
        with reading(Path("data/manifest.json")):
            raise fault
    assert type(info.value) is type(fault) and str(info.value) == want
    if isinstance(fault, DivergenceError):  # its lane and step stay
        assert (info.value.lane, info.value.step) == (3, 7)


def test_reading_turns_an_unopened_file_into_a_value_error(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(ValueError) as info:
        with reading(path):
            path.read_bytes()
    assert type(info.value) is ValueError
    assert str(info.value) == f"{path}: No such file or directory"


def test_reading_names_a_malformed_record_only_with_a_label():
    with pytest.raises(ValueError) as info:
        with reading("model.json", "model manifest"):
            {}["dt"]
    assert type(info.value) is ValueError
    assert (str(info.value)
            == "model.json: malformed model manifest: KeyError 'dt'")
    with pytest.raises(KeyError) as info:
        with reading("model.json"):
            {}["dt"]
    assert str(info.value) == "'dt'"


@pytest.mark.parametrize("guard", [
    reading("data/manifest.json", catch=NumericalError), reading(None)])
def test_reading_passes_what_it_does_not_catch(guard):
    # a refused flag is no file's fault: its message keeps no path
    message = "rho must be a number in (0, 1], got 1.5"
    with pytest.raises(ValueError) as info:
        with guard:
            raise ValueError(message)
    assert type(info.value) is ValueError and str(info.value) == message
