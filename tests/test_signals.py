import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcfit.errors import ShapeError
from iqcfit.signals import (
    Dataset,
    Signal,
    TimeGrid,
    constant_signal,
    inner_product,
    load_dataset,
    norm,
    random_signal,
    read_signal,
    sample_weights,
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


def test_sample_weights_modes():
    grid = TimeGrid(3, dt=0.5)
    assert np.array_equal(sample_weights(grid), np.ones(4))
    assert np.array_equal(sample_weights(grid, "sampled"), 0.5 * np.ones(4))
    trap = sample_weights(grid, "sampled", trapezoid=True)
    assert np.array_equal(trap, [0.25, 0.5, 0.5, 0.25])
    with pytest.raises(ValueError):
        sample_weights(grid, "sequence", trapezoid=True)
    with pytest.raises(ValueError):
        sample_weights(grid, "simpson")


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
        mode = rng.choice(["sequence", "sampled"])
        lhs = abs(inner_product(f, g, mode=mode))
        rhs = norm(f, mode=mode) * norm(g, mode=mode)
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
    g = read_signal(path)
    # %.17g rendering preserves float64 exactly
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)


def test_read_signal_validates_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ch1\n0,1\n0.5,2\n1.2,3\n")
    with pytest.raises(ValueError):
        read_signal(path)
    with pytest.raises(ValueError):
        read_signal(path, dt=0.4)


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
    for a, b in zip(data.inputs, back.inputs):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(data.outputs, back.outputs):
        assert np.array_equal(a.values, b.values)


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
    back = read_signal(root / "new.csv", dt=dt)
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
        read_signal(path)


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
       dt=st.sampled_from([None, 1.0, 0.5]))
def test_read_signal_fuzz(tmp_path_factory, raw, dt):
    # any bytes: a Signal, or a ValueError (ShapeError included) naming
    # the file, and nothing else
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes(raw)
    try:
        f = read_signal(path, dt=dt)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(f, Signal)
