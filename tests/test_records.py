"""The library's immutable classes: what the dataclasses they replaced gave.

Records of results are NamedTuples; classes that validate, compute or cache
are plain classes whose attributes cannot be assigned or deleted.  Only
CausalityReport stays a dataclass, for callers that take asdict of it.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from iqcfit import cli, errors, hodgkin, inversion, kernels, rkhs, signals, supply
from iqcfit.hodgkin import WitnessResult, check_step_ordering
from iqcfit.inversion import (causality_check_r, contraction_margin,
                              picard_solve, scattered_from_operator,
                              simulate_r)
from iqcfit.kernels import (CausalDiagonalKernel, ScalarKernelSpec,
                            SeparableKernel, SumKernel, gaussian, laplacian,
                            scaled_laplacian)
from iqcfit.rkhs import build_gram, fit, tune_gamma
from iqcfit.signals import (Dataset, Signal, TimeGrid, random_signal, stacked,
                            zeros)
from iqcfit.supply import check_operator_iiqc, passivity_supply


def _records() -> dict:
    """One instance of every immutable class of the library, by class name."""
    grid = TimeGrid(3, 0.5)
    rng = np.random.default_rng(5)
    u, y = random_signal(grid, 1, rng), random_signal(grid, 1, rng)
    data = Dataset((u, y), (y, u))
    separable = SeparableKernel(gaussian(2.0), np.eye(1))
    rate = passivity_supply(1)
    scattered = scattered_from_operator(lambda s: 0.5 * s, 0.5, rate, grid)
    model = fit(separable, data, gamma=0.1)
    objects = [
        grid, u, data, separable.scalar, separable,
        SumKernel((0.5, 0.5), (separable, separable)),
        CausalDiagonalKernel(separable),
        build_gram(separable, data.inputs), model,
        rate,
        check_operator_iiqc(lambda us: us, rate, [(u, y)]),
        scattered, picard_solve(scattered, u),
        picard_solve(scattered, stacked([u, y])),
        causality_check_r(scattered, [(u, y)]),
        WitnessResult(-1.0, -2.0), check_step_ordering(data),
    ]
    return {type(obj).__name__: obj for obj in objects}


RECORDS = _records()
# classes that compare by identity, as their eq=False dataclasses did
BY_IDENTITY = ("Signal", "Dataset", "SeparableKernel", "SumKernel",
               "CausalDiagonalKernel", "GramOperator", "FittedOperator",
               "SupplyRate")


def _field_names(obj) -> tuple:
    cls = type(obj)
    if hasattr(cls, "__dataclass_fields__"):
        return tuple(cls.__dataclass_fields__)
    if hasattr(cls, "_fields"):  # a NamedTuple
        return cls._fields
    return tuple(getattr(cls, "__slots__", ())) or tuple(vars(obj))


def test_every_library_class_is_covered():
    classes = {name for module in (signals, kernels, rkhs, supply, inversion,
                                   hodgkin)
               for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and not inspect.isabstract(obj)}
    # Spectral is a working object, not a record; Frozen and Value are bases
    assert classes - set(RECORDS) == {"Spectral", "Frozen", "Value"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_attributes_cannot_be_assigned_or_deleted(name):
    obj = RECORDS[name]
    fields = _field_names(obj)
    assert fields
    for field in fields:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    assert not hasattr(obj, "new_attribute")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_keep_the_fields(name):
    obj = RECORDS[name]
    fields = _field_names(obj)
    shallow = copy.copy(obj)
    assert type(shallow) is type(obj)
    assert all(getattr(shallow, f) is getattr(obj, f) for f in fields)
    copies = [copy.deepcopy(obj)]
    # a scattered_from_operator model's S is the caller's closure
    if name != "ScatteredModel":
        copies.append(pickle.loads(pickle.dumps(obj)))
        for twin in copies:
            assert pickle.dumps(twin) == pickle.dumps(obj)
    for twin in (shallow, *copies):
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], None)


def test_tuned_fit_and_its_contraction_copy_and_pickle():
    grid = TimeGrid(5)
    rng = np.random.default_rng(9)
    data = Dataset(tuple(random_signal(grid, 1, rng) for _ in range(4)),
                   tuple(random_signal(grid, 1, rng) for _ in range(4)))
    _, model = tune_gamma(SeparableKernel(scaled_laplacian(), np.eye(1)),
                          data, rho=0.9)
    scattered = contraction_margin(model, passivity_supply(1))
    assert scattered.s is model
    probes = rng.normal(size=(6, grid.size, 1))
    want_h, want_r = model(probes), simulate_r(scattered, probes)
    for twin in (copy.deepcopy(scattered), pickle.loads(pickle.dumps(scattered))):
        assert type(twin.s) is rkhs.FittedOperator
        assert twin.s.rkhs_norm == model.rkhs_norm
        assert np.array_equal(twin.s(probes), want_h)
        assert np.array_equal(simulate_r(twin, probes), want_r)
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert np.array_equal(twin(probes), want_h)


def test_time_grid_compares_hashes_and_prints_by_value():
    grid = TimeGrid(20, 0.5)
    assert grid == TimeGrid(20, 0.5)
    assert hash(grid) == hash(TimeGrid(20, 0.5)) != hash(TimeGrid(21, 0.5))
    assert len({grid, TimeGrid(20, 0.5), TimeGrid(20, 0.25)}) == 2
    assert grid != TimeGrid(21, 0.5)
    assert grid != TimeGrid(20, 0.25)
    assert TimeGrid(3) == TimeGrid(3, 1.0)
    assert grid != (20, 0.5)
    assert repr(grid) == "TimeGrid(tau=20, dt=0.5)"
    with pytest.raises(errors.ShapeError,
                       match=r"^grids differ: TimeGrid\(tau=2, dt=1.0\) vs "
                             r"TimeGrid\(tau=3, dt=1.0\)$"):
        zeros(TimeGrid(2)) + zeros(TimeGrid(3))


def test_scalar_kernel_spec_compares_by_value():
    spec = gaussian(2.0)
    assert spec == ScalarKernelSpec("gaussian", sigma=2.0)
    assert hash(spec) == hash(ScalarKernelSpec("gaussian", 2.0))
    assert spec != gaussian(3.0)
    assert spec != laplacian(2.0)
    assert spec != ("gaussian", 2.0, None, None, None)
    assert repr(spec) == ("ScalarKernelSpec(kind='gaussian', sigma=2.0, "
                          "c=None, d=None, beta=None)")


def test_signal_compares_by_identity():
    grid = TimeGrid(2)
    u = Signal(grid, [1.0, 2.0, 3.0])
    twin = Signal(grid, [1.0, 2.0, 3.0])
    assert u == u
    assert u != twin
    assert len({u, twin, u}) == 2


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_identity_equality_is_kept(name):
    cls = type(RECORDS[name])
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


def test_no_generated_dataclass_but_causality_report():
    found = [name for module in (signals, kernels, rkhs, supply, inversion,
                                 hodgkin, cli, errors)
             for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and hasattr(obj, "__dataclass_fields__")]
    assert found == ["CausalityReport"]
