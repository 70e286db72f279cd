import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from iqcfit import hodgkin, kernels
from iqcfit.errors import ShapeError
from iqcfit.kernels import (
    PROVEN,
    UNKNOWN,
    CausalDiagonalKernel,
    ConjugatedKernel,
    OperatorKernel,
    ScalarKernelSpec,
    SeparableKernel,
    SumKernel,
    as_operator,
    bilinear,
    certify_bounded,
    certify_nonexpansive,
    eval_scalar,
    gaussian,
    inverse_power,
    is_causal,
    kernel_from_json,
    kernel_to_json,
    laplacian,
    nonexpansive_defect,
    nonexpansive_defects,
    polynomial,
    scaled_laplacian,
    stable_spline,
)
from iqcfit.signals import Signal, TimeGrid, norm, random_signal, truncate, zeros


def _sig(values, dt=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return Signal(TimeGrid(values.shape[0] - 1, dt), values)


def test_scalar_values():
    grid = TimeGrid(1)
    u = Signal(grid, [1.0, 0.0])
    v = Signal(grid, [0.0, 1.0])
    assert eval_scalar(gaussian(1.0), u, u) == 1.0
    assert eval_scalar(bilinear(), u, v) == 0.0
    # ||u - v||^2 = 2, adjust to 1 by scaling
    w = Signal(grid, [1.0 / np.sqrt(2.0), 1.0 - 1.0 / np.sqrt(2.0)])
    assert eval_scalar(gaussian(1.0), u, u + w - u) != 1.0
    a = _sig([0.0])
    b = _sig([1.0])
    assert eval_scalar(gaussian(1.0), a, b) == pytest.approx(
        0.36787944117144233, rel=1e-15
    )
    assert eval_scalar(polynomial(1.0, 2), u, v) == 1.0
    r = 2.0
    c = _sig([0.0])
    d = _sig([r])
    assert eval_scalar(scaled_laplacian(), c, d) == pytest.approx(
        0.4060058497098381, rel=1e-15
    )
    assert eval_scalar(inverse_power(2.0, 1.0), c, _sig([np.sqrt(3.0)])) == \
        pytest.approx(0.2, rel=1e-13)
    assert eval_scalar(stable_spline(1.0), _sig([0.5]), _sig([0.2])) == \
        pytest.approx(np.exp(-0.5), rel=1e-15)


def test_scalar_spec_validation():
    with pytest.raises(ValueError):
        gaussian(0.0)
    with pytest.raises(ValueError):
        polynomial(-1.0, 2)
    with pytest.raises(ValueError):
        polynomial(1.0, 0)
    with pytest.raises(ValueError):
        inverse_power(0.0, 1.0)
    with pytest.raises(ValueError):
        stable_spline(-1.0)
    with pytest.raises(ValueError):
        laplacian(-2.0)


def test_stable_spline_domain():
    spec = stable_spline(1.0)
    with pytest.raises(ValueError):
        eval_scalar(spec, _sig([0.1, 0.2]), _sig([0.0, 0.0]))
    with pytest.raises(ValueError):
        eval_scalar(spec, _sig([-0.1]), _sig([0.0]))


def test_separable_applies_scalar_times_matrix():
    rng = np.random.default_rng(21)
    grid = TimeGrid(3)
    R = np.array([[2.0, 1.0], [1.0, 2.0]])
    kernel = SeparableKernel(gaussian(2.0), R)
    u = random_signal(grid, 1, rng)
    v = random_signal(grid, 1, rng)
    y = random_signal(grid, 2, rng)
    k = eval_scalar(gaussian(2.0), u, v)
    ((w, M),) = kernel.row_terms(v.values[None], u.values[None])
    assert w.shape == (1, 1) and w[0, 0] == k and np.array_equal(M, R)
    got = kernel.block_matrix(u, v) @ y.values.reshape(-1)
    assert np.abs(got - (k * (y.values @ R.T)).reshape(-1)).max() <= 1e-14


def test_separable_validates_r():
    with pytest.raises(ValueError):
        SeparableKernel(bilinear(), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        SeparableKernel(bilinear(), np.array([[-1.0]]))


def test_sum_of_identical_children_matches_child():
    rng = np.random.default_rng(22)
    grid = TimeGrid(2)
    child = SeparableKernel(gaussian(2.0), np.eye(1))
    total = SumKernel((0.5, 0.5), (child, child))
    u = random_signal(grid, 1, rng)
    v = random_signal(grid, 1, rng)
    assert np.allclose(total.block_matrix(u, v), child.block_matrix(u, v),
                       atol=1e-15)
    with pytest.raises(ValueError):
        SumKernel((-0.1, 0.5), (child, child))


def test_conjugated_matrix():
    rng = np.random.default_rng(23)
    grid = TimeGrid(2)
    R = np.array([[0.5, 0.0], [0.25, 0.5]])
    kernel = ConjugatedKernel(gaussian(2.0), R)
    u = random_signal(grid, 1, rng)
    v = random_signal(grid, 1, rng)
    k = eval_scalar(gaussian(2.0), u, v)
    assert np.allclose(kernel.block_matrix(u, v),
                       np.kron(np.eye(grid.size), k * (R @ R.T)), atol=1e-15)


def test_conjugated_is_separable_with_r_r_transpose():
    R = np.array([[0.7, 0.0], [0.1, 0.4]])
    legacy = {"structure": "conjugated",
              "scalar": {"kind": "inverse_power", "c": 2.0, "d": 1.0},
              "R": R.tolist(), "p": 2}
    kernel = kernel_from_json(legacy)
    assert isinstance(kernel, SeparableKernel)
    assert kernel.scalar == inverse_power(2.0, 1.0)
    assert np.array_equal(kernel.R, R @ R.T)
    assert kernel_to_json(kernel)["structure"] == "separable"
    with pytest.raises(ShapeError):
        ConjugatedKernel(gaussian(2.0), np.ones((2, 3)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda p: arrays(float, (p, p), elements=st.floats(-1.0, 1.0))),
       st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 3.0)))
def test_conjugated_certificate_is_sigma_max(entries, sigma):
    top = np.linalg.svd(entries, compute_uv=False).max()
    R = entries * (sigma / top) if top > 1e-3 else sigma * np.eye(len(entries))
    sigma_max = np.linalg.svd(R, compute_uv=False).max()
    assert (sigma_max <= 1.0) == (sigma < 1.0)
    want = PROVEN if sigma_max <= 1.0 else UNKNOWN
    assert certify_nonexpansive(ConjugatedKernel(scaled_laplacian(), R)) == want


def _sample_weights(kernel, u, v):
    """The weight of each row term of K(u, v) at every sample, (terms, steps)."""
    return np.array([np.broadcast_to(w[0, 0], (u.grid.size,))
                     for w, _ in kernel.row_terms(v.values[None], u.values[None])])


def _truncation_gap(kernel, u, v, T):
    """How far samples 0..T of K(u, v) move when u is cut after T."""
    moved = _sample_weights(kernel, u, v) - _sample_weights(kernel, truncate(u, T), v)
    return np.abs(moved[:, :T + 1]).max()


def test_causal_diagonal_prefix_dependence():
    rng = np.random.default_rng(24)
    grid = TimeGrid(4)
    kernel = CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1)))
    u = random_signal(grid, 1, rng)
    v = random_signal(grid, 1, rng)
    full = _sample_weights(kernel, u, v)
    for t in range(5):
        pref = _sample_weights(kernel, truncate(u, t), truncate(v, t))
        assert np.allclose(full[:, :t + 1], pref[:, :t + 1], atol=1e-15)
    assert is_causal(kernel)
    assert not is_causal(SeparableKernel(gaussian(2.0), np.eye(1)))


def test_causal_check_values():
    rng = np.random.default_rng(25)
    grid = TimeGrid(5)
    u = random_signal(grid, 1, rng)
    causal = CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1)))
    # same prefix, different tail: causal kernel shows nothing before T
    for T in range(6):
        w = random_signal(grid, 1, rng)
        spliced = truncate(u, T) + (w - truncate(w, T))
        assert _truncation_gap(causal, u, spliced, T) <= 1e-12
    tail = Signal(grid, np.concatenate([np.zeros(3), rng.normal(size=3)]))
    v = u + tail
    assert _truncation_gap(causal, u, v, 2) <= 1e-12
    plain = SeparableKernel(gaussian(2.0), np.eye(1))
    assert _truncation_gap(plain, u, v, 2) > 1e-8
    # full window is trivially causal for any kernel
    assert _truncation_gap(plain, u, u, grid.tau) == 0.0


def test_certificates():
    assert certify_nonexpansive(gaussian(np.sqrt(2.0))) == PROVEN
    assert certify_nonexpansive(gaussian(2.0)) == PROVEN
    assert certify_nonexpansive(gaussian(1.0)) == UNKNOWN
    assert certify_nonexpansive(bilinear()) == PROVEN
    assert certify_nonexpansive(scaled_laplacian()) == PROVEN
    assert certify_nonexpansive(inverse_power(2.0, 1.0)) == PROVEN
    assert certify_nonexpansive(inverse_power(1.0, 1.0)) == UNKNOWN
    assert certify_nonexpansive(laplacian(1.0)) == UNKNOWN
    assert certify_nonexpansive(stable_spline(1.0)) == UNKNOWN
    assert certify_nonexpansive(polynomial(1.0, 2)) == UNKNOWN


def test_structure_certificates():
    base = SeparableKernel(gaussian(2.0), 0.5 * np.eye(2))
    assert certify_nonexpansive(base) == PROVEN
    big = SeparableKernel(gaussian(2.0), 2.0 * np.eye(2))
    assert certify_nonexpansive(big) == UNKNOWN
    assert certify_nonexpansive(SumKernel((0.5, 0.5), (base, base))) == PROVEN
    assert certify_nonexpansive(SumKernel((0.9, 0.9), (base, base))) == UNKNOWN
    conj = ConjugatedKernel(gaussian(2.0), 0.5 * np.eye(2))
    assert certify_nonexpansive(conj) == PROVEN
    # no structural rule shipped for the truncation-diagonal combinator
    causal = CausalDiagonalKernel(base)
    assert certify_nonexpansive(causal) == UNKNOWN


def _per_kind_rule(spec):
    """The per-kind certificate rules the slope rule replaced, as written."""
    if spec.kind in ("bilinear", "scaled_laplacian"):
        return True
    if spec.kind == "gaussian":
        return spec.sigma >= math.sqrt(2.0)
    if spec.kind == "inverse_power":
        return 2.0 * spec.d <= spec.c ** (spec.d + 1.0)
    return False


def _near(x, ulps=8):
    """The floats from ulps below x to ulps above it, in order."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


@settings(derandomize=True, max_examples=100, deadline=None)
@given(d=st.floats(1e-3, 100.0), x=st.floats(1e-3, 100.0))
def test_slope_rule_keeps_every_per_kind_boundary(d, x):
    # each spec within 8 ulps of the gaussian boundary sigma = sqrt(2) and
    # of the inverse power boundary c^(d+1) = 2d, c and d moved apart; then
    # every kind at parameters whose slope stays in float range
    specs = [gaussian(sigma) for sigma in _near(math.sqrt(2.0))]
    specs += [inverse_power(c, e)
              for c in _near((2.0 * d) ** (1.0 / (d + 1.0))) for e in _near(d)]
    specs += [bilinear(), polynomial(x, 3), laplacian(x), scaled_laplacian(),
              stable_spline(x), gaussian(x), inverse_power(x, x)]
    for spec in specs:
        assert (certify_nonexpansive(spec) == PROVEN) == _per_kind_rule(spec)


def test_slope_beyond_float_range_is_proven():
    # a bottom that overflows makes the slope far below 1/2; one that
    # underflows to 0 makes it far above
    assert certify_nonexpansive(gaussian(1e200)) == PROVEN
    assert certify_nonexpansive(inverse_power(10.0, 400.0)) == PROVEN
    assert certify_nonexpansive(inverse_power(0.5, 1e300)) == UNKNOWN


_RADIAL = st.one_of(
    st.floats(0.5, 5.0).map(gaussian), st.floats(0.5, 5.0).map(laplacian),
    st.just(scaled_laplacian()),
    st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)).map(
        lambda cd: inverse_power(*cd)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_RADIAL)
def test_radial_slopes_match_finite_differences(spec):
    grid = TimeGrid(0)

    def quotient(s):
        # (psi(0) - psi(s)) / s, at the squared distance the kernel sees
        v = Signal(grid, [math.sqrt(s)])
        gap = eval_scalar(spec, zeros(grid), zeros(grid)) \
            - eval_scalar(spec, zeros(grid), v)
        return gap / norm(v) ** 2

    top, bottom = kernels.RADIAL_SLOPES[spec.kind](spec)
    if bottom == 0.0:  # an infinite slope: the quotient grows as s -> 0
        assert quotient(1e-8) > 9.0 * quotient(1e-6)
    else:
        # psi(s) = psi(0) + psi'(0) s + O(s^(3/2)) at worst (the scaled
        # laplacian), so at s = 1e-6 the quotient is within 1e-3 of -psi'(0)
        assert quotient(1e-6) == pytest.approx(top / bottom, rel=1e-3)


def test_defect_examples():
    grid = TimeGrid(0)
    u = Signal(grid, [0.0])
    assert nonexpansive_defect(gaussian(1.0), u, u) == pytest.approx(0.0, abs=1e-15)
    v = Signal(grid, [np.sqrt(0.1)])
    # 2(1 - e^{-0.1}) - 0.1, the hand-derived violation
    assert nonexpansive_defect(gaussian(1.0), u, v) == pytest.approx(
        0.09032516392808096, rel=1e-12
    )
    a, b = Signal(grid, [0.1]), Signal(grid, [0.0])
    assert nonexpansive_defect(stable_spline(1.0), a, b) == pytest.approx(
        0.08516258196404049, rel=1e-12
    )


def test_proven_kernels_have_no_defect():
    rng = np.random.default_rng(26)
    kernels = [
        gaussian(np.sqrt(2.0)),
        scaled_laplacian(),
        inverse_power(2.0, 1.0),
        bilinear(),
        SeparableKernel(scaled_laplacian(), 0.7 * np.eye(2)),
        ConjugatedKernel(gaussian(2.0), 0.5 * np.eye(2)),
    ]
    for kernel in kernels:
        dim = as_operator(kernel).output_dim if not hasattr(kernel, "kind") else 1
        for _ in range(200):
            grid = TimeGrid(int(rng.integers(0, 6)))
            scale = float(rng.exponential(1.0)) + 0.01
            u = random_signal(grid, dim, rng, scale=scale)
            v = random_signal(grid, dim, rng, scale=scale)
            assert nonexpansive_defect(kernel, u, v) <= 1e-10


def test_sum_defect_inequality():
    rng = np.random.default_rng(27)
    grid = TimeGrid(3)
    k1 = SeparableKernel(gaussian(1.0), np.eye(1))
    k2 = SeparableKernel(laplacian(0.5), np.eye(1))
    weights = (0.6, 0.3)
    total = SumKernel(weights, (k1, k2))
    for _ in range(50):
        u = random_signal(grid, 1, rng)
        v = random_signal(grid, 1, rng)
        gap = norm(u - v) ** 2
        lhs = nonexpansive_defect(total, u, v)
        rhs = sum(
            w * (nonexpansive_defect(k, u, v) + gap)
            for w, k in zip(weights, (k1, k2))
        ) - gap
        assert lhs <= rhs + 1e-12


def test_symmetry_of_operator_kernels():
    rng = np.random.default_rng(28)
    grid = TimeGrid(4)
    R = np.array([[1.5, 0.4], [0.4, 1.0]])
    kernels = [
        SeparableKernel(gaussian(2.0), R),
        SumKernel((0.5, 0.25), (SeparableKernel(gaussian(2.0), R),
                                SeparableKernel(scaled_laplacian(), R))),
        ConjugatedKernel(scaled_laplacian(), np.array([[0.8, 0.1], [0.0, 0.6]])),
        CausalDiagonalKernel(SeparableKernel(gaussian(2.0), R)),
    ]
    for kernel in kernels:
        for _ in range(20):
            u = random_signal(grid, 1, rng)
            v = random_signal(grid, 1, rng)
            y = random_signal(grid, 2, rng).values.reshape(-1)
            z = random_signal(grid, 2, rng).values.reshape(-1)
            lhs = y @ kernel.block_matrix(u, v) @ z
            rhs = z @ kernel.block_matrix(v, u) @ y
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_bounded_examples():
    rng = np.random.default_rng(29)
    grid = TimeGrid(3)

    def bounded_defect(kernel, u):
        # ||K(u, u)||^(1/2) - ||u||
        size = np.abs(np.linalg.eigvalsh(kernel.block_matrix(u, u))).max()
        return math.sqrt(size) - norm(u)

    bilinear_kernel = SeparableKernel(bilinear(), np.eye(1))
    for _ in range(50):
        assert bounded_defect(bilinear_kernel, random_signal(grid, 1, rng)) <= 1e-10
    # a translation-invariant kernel cannot vanish at zero
    bad = bounded_defect(SeparableKernel(gaussian(1.0), np.eye(1)), zeros(grid))
    assert bad == pytest.approx(1.0, abs=1e-12)
    assert certify_bounded(SeparableKernel(bilinear(), 0.5 * np.eye(2))) == PROVEN
    assert certify_bounded(SeparableKernel(gaussian(1.0), np.eye(1))) == UNKNOWN
    assert certify_bounded(SeparableKernel(bilinear(), 2.0 * np.eye(1))) == UNKNOWN


def test_kernel_json_round_trip():
    rng = np.random.default_rng(31)
    grid = TimeGrid(2)
    R = np.array([[1.0, 0.2], [0.2, 0.5]])
    point = TimeGrid(0)
    kernels = [
        (SeparableKernel(gaussian(1.5), R), grid),
        (SeparableKernel(stable_spline(2.0), np.eye(1)), point),
        (SumKernel((0.4, 0.6), (SeparableKernel(bilinear(), R),
                                SeparableKernel(scaled_laplacian(), R))), grid),
        (ConjugatedKernel(inverse_power(2.0, 1.0),
                          np.array([[0.7, 0.0], [0.1, 0.4]])), grid),
        (CausalDiagonalKernel(SeparableKernel(gaussian(2.0), R)), grid),
    ]
    for kernel, g in kernels:
        back = kernel_from_json(kernel_to_json(kernel))
        u = Signal(g, np.abs(rng.normal(size=(g.size, 1))))
        v = Signal(g, np.abs(rng.normal(size=(g.size, 1))))
        assert np.allclose(back.block_matrix(u, v), kernel.block_matrix(u, v),
                           atol=1e-15)
    with pytest.raises(ValueError):
        kernel_from_json({"structure": "mystery"})


def _accepted(value, number: str) -> bool:
    """Whether a scalar kernel parameter of that kind may take value: a
    finite number, not a bool, in the kind's range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        finite = math.isfinite(float(value))
    except OverflowError:  # an int beyond float range
        return False
    return finite and (value > 0 if number == "positive" else value >= 0)


# each scalar kind's parameters, and the range each must lie in
_PARAMETERS = {
    "bilinear": {}, "scaled_laplacian": {},
    "polynomial": {"c": "nonnegative", "d": "positive"},  # d integral too
    "gaussian": {"sigma": "positive"}, "laplacian": {"sigma": "positive"},
    "inverse_power": {"c": "positive", "d": "positive"},
    "stable_spline": {"beta": "positive"},
}
_PARAMETER = st.one_of(
    st.floats(), st.integers(), st.sampled_from([10**400, -10**400, 2.0, 0]),
    st.booleans(), st.none(), st.text(max_size=2), st.lists(st.floats(),
                                                             max_size=1))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from([*_PARAMETERS, "bogus", ["gaussian"]]),
       values=st.fixed_dictionaries({name: _PARAMETER
                                     for name in ("sigma", "c", "d", "beta")}))
def test_scalar_spec_accepts_exactly_in_range_finite_numbers(kind, values):
    assert set(_PARAMETERS) == set(kernels.SCALAR_KINDS)
    params = _PARAMETERS.get(kind, {}) if isinstance(kind, str) else {}
    valid = (isinstance(kind, str) and kind in _PARAMETERS
             and all(_accepted(values[name], number)
                     for name, number in params.items()))
    if valid and kind == "polynomial":
        valid = float(values["d"]).is_integer()
    if not valid:
        with pytest.raises(ValueError):
            ScalarKernelSpec(kind, **values)
        return
    spec = ScalarKernelSpec(kind, **values)
    for name in ("sigma", "c", "d", "beta"):
        got = getattr(spec, name)
        if name in params:
            assert type(got) is float and got == float(values[name])
        else:
            assert got is None
    # the JSON text of an accepted spec gives it back, parameters as floats
    text = json.dumps(kernel_to_json(SeparableKernel(spec, np.eye(1))))
    back = kernel_from_json(json.loads(text)).scalar
    assert back == spec
    assert all(type(getattr(back, name)) is float for name in params)


# One kernel of each scalar kind, then radial kernels on both sides of the
# slope rule's boundary -psi'(0) = 1/2 (gaussian(sqrt 2) and
# inverse_power(1, 0.5) lie on it), and a channel matrix cut to p x p.
SPECS = [bilinear(), polynomial(1.0, 2), gaussian(1.5), laplacian(1.5),
         scaled_laplacian(), inverse_power(2.0, 1.0), stable_spline(0.7),
         gaussian(np.sqrt(2.0)), gaussian(1.4), inverse_power(1.0, 0.5),
         inverse_power(0.99, 0.5)]
BASE_R = np.array([[1.0, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.8]])


def _probe(spec, grid, m, rng, scale=1.0):
    # the stable spline acts on nonnegative one-sample scalars only
    values = rng.normal(scale=scale, size=(grid.size, m))
    return Signal(grid, np.abs(values) if spec.kind == "stable_spline" else values)


@settings(max_examples=80)
@given(spec=st.sampled_from(SPECS), p=st.integers(1, 3),
       size=st.sampled_from([0.5, 1.0, 2.0]), count=st.sampled_from([1, 7]),
       tau=st.integers(0, 3), m=st.integers(1, 2),
       scale=st.sampled_from([0.1, 1.0, 3.0]), seed=st.integers(0, 2**16),
       lane_budget=st.sampled_from([1, 500, kernels.LANE_BUDGET]),
       near=st.sampled_from([0.0, 1e-15, 1e-9, 1e-4]))
def test_batched_defects_match_oracle(spec, p, size, count, tau, m, scale,
                                      seed, lane_budget, near):
    R = size * BASE_R[:p, :p] / np.linalg.eigvalsh(BASE_R[:p, :p]).max()
    grid, m = (TimeGrid(0), 1) if spec.kind == "stable_spline" else (TimeGrid(tau), m)
    rng = np.random.default_rng(seed)
    pairs = [(_probe(spec, grid, m, rng, scale), _probe(spec, grid, m, rng, scale))
             for _ in range(count)]
    # and near pairs (u, u + delta), where a radial statistic cancels
    pairs += [(u, u + _probe(spec, grid, m, rng, near * scale))
              for u, _ in pairs]
    with pytest.MonkeyPatch.context() as mp:
        # small budgets spread the pairs over several chunks
        mp.setattr(kernels, "LANE_BUDGET", lane_budget)
        for kernel in oracle.structures(spec, R):
            got = nonexpansive_defects(kernel, pairs)
            assert got.shape == (len(pairs),)
            for defect, (u, v) in zip(got, pairs):
                magnitude = max(oracle.diag_operator_norm(kernel, u),
                                oracle.diag_operator_norm(kernel, v),
                                norm(u - v) ** 2)
                assert abs(defect - oracle.defect(kernel, u, v)) <= 1e-12 * magnitude
                if certify_nonexpansive(kernel) == PROVEN:
                    assert defect <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=st.sampled_from([s for s in SPECS
                             if s.kind in kernels.RADIAL_SLOPES]),
       values=arrays(float, (3, 2), elements=st.floats(-1e3, 1e3)))
def test_radial_kernels_are_constant_on_the_diagonal(spec, values):
    grid = TimeGrid(2)
    u = Signal(grid, values)
    assert eval_scalar(spec, u, u) == eval_scalar(spec, zeros(grid, 2),
                                                  zeros(grid, 2))


RADIAL_SPECS = [spec for spec in SPECS if spec.kind in kernels.RADIAL_SLOPES]


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(RADIAL_SPECS), steps=st.integers(1, 21),
       dim=st.integers(1, 2), exponent=st.floats(-3.0, 3.0),
       near=st.sampled_from([0.0, 1e-15, 1e-9, 1e-4, 1.0]),
       seed=st.integers(0, 2**16))
def test_radial_statistic_is_within_its_bound(spec, steps, dim, exponent,
                                               near, seed):
    # lanes u and near duplicates u + delta, against themselves and two
    # independent centers, at input scales from 1e-3 to 1e3
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    u = scale * rng.normal(size=(3, steps, dim))
    lanes = np.concatenate([u, u + near * scale * rng.normal(size=u.shape)])
    centers = np.concatenate([lanes, scale * rng.normal(size=(2, steps, dim))])
    stat = kernels._squared_distances(centers, lanes)
    exact = oracle.squared_distances(centers, lanes)
    # the docstring's bound, (2K + 3) u / RADIAL_GUARD for K samples
    bound = (2 * steps * dim + 3) * 2.0**-53 / kernels.RADIAL_GUARD
    assert np.all(np.abs(stat - exact) <= bound * exact)
    # psi of the statistic, within psi's range over the bound (widened by
    # the rounding of psi's own steps), and psi(0) exactly on equal lanes
    values = kernels._scalar_batch(spec, centers, lanes)
    at_zero = kernels._scalar_batch(spec, np.zeros((1, steps, dim)),
                                    np.zeros((1, steps, dim)))[0, 0]
    wide = bound + 2.0**-50
    for b, j in np.ndindex(values.shape):
        s = exact[b, j]
        spread = (oracle.radial(spec, s * (1 - wide))
                  - oracle.radial(spec, s * (1 + wide)))
        assert abs(values[b, j] - oracle.radial(spec, s)) <= \
            spread + 2.0**-49 * oracle.radial(spec, s) + 1e-300
        if lanes[b].tobytes() == centers[j].tobytes():
            assert values[b, j] == at_zero


def test_every_radial_kind_is_swept():
    assert set(kernels.RADIAL_SLOPES) <= set(kernels.SCALAR_KINDS)
    assert {s.kind for s in SPECS} >= set(kernels.RADIAL_SLOPES)


def test_batched_defects_are_each_pairs_own():
    # 100 pairs of 21 samples x 2 channels, as the wide check sweeps them in
    # chunks of 13: each pair's defect is bit for bit the one it has alone,
    # so the chunk size moves no report
    pairs = np.random.default_rng(34).normal(size=(100, 2, 21, 2))
    R = BASE_R[:2, :2]
    for kernel in (SeparableKernel(scaled_laplacian(), np.eye(2)),
                   SeparableKernel(gaussian(1.5), R),
                   SumKernel((0.5, 0.5), (SeparableKernel(bilinear(), R),
                                          SeparableKernel(gaussian(2.0), R))),
                   CausalDiagonalKernel(SeparableKernel(gaussian(2.0), R))):
        alone = [nonexpansive_defects(kernel, pair[None]) for pair in pairs]
        assert np.array_equal(nonexpansive_defects(kernel, pairs),
                              np.concatenate(alone))


def test_defect_sweep_of_no_pairs_is_empty():
    # as the iIQC and causality checks give their empty reports
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    for pairs in ([], np.zeros((0, 2, 5, 1))):
        defects = nonexpansive_defects(kernel, pairs)
        assert defects.shape == (0,) and defects.dtype == float


def test_defect_sweep_needs_one_grid_and_channel_count():
    rng = np.random.default_rng(32)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    u = random_signal(TimeGrid(3), 1, rng)
    for other in (random_signal(TimeGrid(4), 1, rng),
                  random_signal(TimeGrid(3, 0.5), 1, rng),
                  random_signal(TimeGrid(3), 2, rng)):
        with pytest.raises(ShapeError):
            nonexpansive_defects(kernel, [(u, other)])
        with pytest.raises(ShapeError):
            nonexpansive_defects(kernel, [(u, u), (other, other)])


def test_benchmark_trace_hooks_exist():
    # the benchmark's trace wrapper patches both of these by name
    assert callable(hodgkin._integrate_gating)
    assert "block_matrix" in vars(OperatorKernel)
    rng = np.random.default_rng(33)
    for p in (1, 2, 3):
        for spec in SPECS:
            spline = spec.kind == "stable_spline"
            grid, m = (TimeGrid(0), 1) if spline else (TimeGrid(3), 2)
            u, v = _probe(spec, grid, m, rng), _probe(spec, grid, m, rng)
            for kernel in oracle.structures(spec, BASE_R[:p, :p]):
                want = oracle.block_matrix(kernel, u, v)
                got = kernel.block_matrix(u, v)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _nested_sums(spec, R):
    """Sums of sums over the oracle's structures, causal and not."""
    sep, *_, causal, per_sample, mixed = oracle.structures(spec, R)
    causal_sum = SumKernel((0.5, 0.5), (causal, per_sample))
    uniform_sum = SumKernel((1.0,), (SumKernel((0.4, 0.6), (sep, sep)),))
    return [causal_sum, uniform_sum,
            SumKernel((0.3, 0.3, 0.4), (causal_sum, mixed, uniform_sum)),
            SumKernel((0.5, 0.5), (causal_sum, SumKernel((1.0,), (causal,)))),
            CausalDiagonalKernel(uniform_sum)]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stored_structure_matches_its_definition(p):
    # each constructor stores output_dim, is_causal, is_uniform and the
    # certificates once; they equal the recursive definitions and survive
    # JSON, copy and pickle
    R = BASE_R[:p, :p]
    for spec in (gaussian(1.5), stable_spline(0.7)):
        for kernel in oracle.structures(spec, R) + _nested_sums(spec, R):
            want = oracle.structure_flags(kernel)
            assert want[0] == p
            for twin in (kernel, kernel_from_json(kernel_to_json(kernel)),
                         copy.copy(kernel), copy.deepcopy(kernel),
                         pickle.loads(pickle.dumps(kernel))):
                assert type(twin) is type(kernel)
                assert (twin.output_dim, twin.is_causal,
                        twin.is_uniform) == want
                assert is_causal(twin) == want[1]
                assert ((twin.nonexpansive, twin.bounded)
                        == oracle.certificates(kernel))


# Structures drawn with radii and sum weights on both sides of 1: separable
# leaves of R = r diag(1, 1/2), whose radius is r, nested in sums and in
# causal diagonal kernels over one shared or several per-sample children.
_CERT_SEPARABLE = st.builds(
    lambda spec, r: SeparableKernel(spec, np.diag([r, 0.5 * r])),
    st.sampled_from([bilinear(), gaussian(1.0), gaussian(2.0),
                     scaled_laplacian(), laplacian(1.0),
                     inverse_power(2.0, 1.0)]),
    st.one_of(st.floats(0.05, 0.99), st.just(1.0), st.floats(1.01, 3.0)))


@st.composite
def _cert_structures(draw, depth=2, uniform=False):
    """A kernel nested at most depth levels; uniform ones only if asked,
    since a causal diagonal kernel's children must be uniform."""
    nested = ["sum"] if uniform else ["sum", "causal"]
    kinds = ["separable"] + nested * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "separable":
        return draw(_CERT_SEPARABLE)
    children = st.lists(_cert_structures(depth - 1, uniform or kind == "causal"),
                        min_size=1, max_size=3).map(tuple)
    if kind == "causal":
        shared = _cert_structures(depth - 1, True)
        return CausalDiagonalKernel(draw(st.one_of(shared, children)))
    members = draw(children)
    weights = draw(st.lists(st.floats(0.0, 0.9), min_size=len(members),
                            max_size=len(members)))
    return SumKernel(tuple(weights), members)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_cert_structures())
def test_constructor_certificates_match_recursive_rule(kernel):
    nonexpansive, bounded = oracle.certificates(kernel)
    assert (kernel.nonexpansive, kernel.bounded) == (nonexpansive, bounded)
    assert certify_nonexpansive(kernel) == (PROVEN if nonexpansive else UNKNOWN)
    assert certify_bounded(kernel) == (PROVEN if bounded else UNKNOWN)


def test_per_sample_children_must_cover_the_grid():
    # kernel_from_json refuses, naming the kernel, per-sample children that
    # a grid of steps samples would run past; row_terms refuses them too
    child = {"structure": "separable", "scalar": {"kind": "bilinear"}}
    obj = {"structure": "causal_diagonal", "children": [child] * 4}
    for steps in (None, 3, 4):
        kernel = kernel_from_json(obj, 1, steps)
        assert len(kernel.children) == 4
    with pytest.raises(ValueError, match="malformed kernel .*: 4 per-sample "
                                         "children for a grid of 5 samples"):
        kernel_from_json(obj, 1, 5)
    X = np.zeros((2, 5, 1))
    with pytest.raises(ShapeError, match="grid needs index 4"):
        kernel.row_terms(X, X)
