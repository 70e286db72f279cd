import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcfit import rkhs
from iqcfit.errors import (ContractionError, ConvergenceError, NumericalError,
                           ShapeError)
from iqcfit.inversion import (
    CausalityReport,
    PicardBatch,
    ScatteredModel,
    causality_check_r,
    contraction_margin,
    picard_solve,
    scattered_from_operator,
    simulate_r,
)
from iqcfit.kernels import (CausalDiagonalKernel, SeparableKernel, SumKernel,
                            gaussian, nonexpansive_defects, scaled_laplacian)
from iqcfit.rkhs import evaluate, fit, tune_gamma
from iqcfit.signals import (Dataset, Signal, TimeGrid, constant_signal, norm,
                            random_signal, stacked, truncate, zeros)
from iqcfit.supply import (SupplyRate, check_operator_iiqc, factor_phi,
                           gain_supply, passivity_supply, scatter_dataset)

ROOT2 = np.sqrt(2.0)


def _linear_s(ell, grid, supply=None):
    factors = factor_phi(supply or passivity_supply(1))
    return scattered_from_operator(lambda sig: ell * sig, abs(ell), factors, grid)


def _descattered(model, v_star):
    """The outputs y* = N21 v* + N22 S(v*) of a stack of fixed points v*."""
    f = model.supply
    return v_star @ f.n21.T + model.s(v_star) @ f.n22.T


def _dataset(rng, n=4, tau=4, scale=1.0):
    grid = TimeGrid(tau)
    return Dataset(
        tuple(random_signal(grid, 1, rng, scale=scale) for _ in range(n)),
        tuple(random_signal(grid, 1, rng, scale=scale) for _ in range(n)),
    )


def test_epsilon_for_passivity_equals_lipschitz():
    grid = TimeGrid(3)
    for ell in (0.0, 0.3, 0.9):
        model = _linear_s(ell, grid)
        assert model.epsilon == pytest.approx(ell, abs=1e-14)


def test_epsilon_for_gain_is_zero():
    grid = TimeGrid(3)
    model = _linear_s(0.9, grid, supply=gain_supply(1.0))
    assert model.epsilon == 0.0


def test_contraction_margin_requirements():
    rng = np.random.default_rng(60)
    data = _dataset(rng)
    factors = factor_phi(passivity_supply(1))
    proven = SeparableKernel(scaled_laplacian(), np.eye(1))
    model = fit(proven, data, gamma=1e-6)
    if model.rkhs_norm >= 1.0:
        with pytest.raises(ContractionError):
            contraction_margin(model, factors)
    _, tuned = tune_gamma(proven, data, rho=0.9)
    scattered = contraction_margin(tuned, factors)
    assert scattered.epsilon == pytest.approx(tuned.rkhs_norm, rel=1e-12)
    unknown = CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1)))
    _, umodel = tune_gamma(unknown, data, rho=0.9)
    with pytest.raises(ContractionError):
        contraction_margin(umodel, factors)
    # a NaN norm certifies nothing
    # (a fit's constructor never stores one, so set it on a copy)
    nan_norm = copy.copy(tuned)
    nan_norm._set(rkhs_norm=float("nan"))
    with pytest.raises(ContractionError, match="norm nan"):
        contraction_margin(nan_norm, factors)


def test_scattered_from_operator_validations():
    grid = TimeGrid(2)
    factors = factor_phi(passivity_supply(1))
    for lipschitz in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^lipschitz bound must be"):
            scattered_from_operator(lambda s: s, lipschitz, factors, grid)
    with pytest.raises(ContractionError):
        scattered_from_operator(lambda s: s, 1.0, factors, grid)


@pytest.mark.parametrize("lipschitz, supply, error, match", [
    (float("nan"), passivity_supply(1), ValueError, "^lipschitz bound must"),
    (-0.1, passivity_supply(1), ValueError, "^lipschitz bound must"),
    (float("inf"), passivity_supply(1), ValueError, "^lipschitz bound must"),
    (0.5, SupplyRate(np.diag([-1.0, 1.0]), 1, 1), ContractionError,
     "^leading inverse-factor block is singular$"),
    (1.0, passivity_supply(1), ContractionError,
     r"^contraction factor eps = 1\.000000 >= 1$"),
    (4.0, SupplyRate(np.array([[2.0, 0.6], [0.6, -1.0]]), 1, 1),
     ContractionError, r"^contraction factor eps = 1\.06\d+ >= 1$"),
    # m = 0 leaves N11 empty: the rate builds, and a model on it is refused
    # as one on a singular N11, not by numpy's error on an empty matrix
    (0.5, gain_supply(1.0, m=0, p=1), ContractionError,
     "^leading inverse-factor block is singular$"),
], ids=["nan", "negative", "inf", "singular", "eps-1", "eps-custom", "m=0"])
def test_scattered_model_refuses_what_does_not_contract(lipschitz, supply,
                                                         error, match):
    # the constructor itself checks, so no scattered model fails to contract
    with pytest.raises(error, match=match):
        ScatteredModel(lambda v: v, lipschitz, supply, TimeGrid(2))


def test_scattered_model_stores_its_contraction_factor():
    rate = SupplyRate(np.array([[2.0, 0.6], [0.6, -1.0]]), 1, 1)
    model = ScatteredModel(lambda v: v, 0.5, rate, TimeGrid(2))
    assert model.epsilon == 0.5 * rate.coupling_norm < 1.0
    assert np.array_equal(rate.coupling, rate.n11_inv @ rate.n12)
    with pytest.raises(TypeError, match="grid must be a TimeGrid"):
        ScatteredModel(lambda v: v, 0.5, rate, None)


def test_singular_leading_block_is_refused_only_when_inverted():
    # diag(-1, 1) is a valid supply whose factor swaps u and y, so N11 = 0:
    # the data scatter, and only the fixed-point setup refuses it
    grid = TimeGrid(3)
    rng = np.random.default_rng(8)
    supply = SupplyRate(np.diag([-1.0, 1.0]), 1, 1)
    assert np.array_equal(supply.n11, [[0.0]])
    assert supply.n11_inv is None and supply.coupling is None
    assert supply.coupling_norm == np.inf
    u, y = random_signal(grid, 1, rng), random_signal(grid, 1, rng)
    scattered = scatter_dataset(Dataset((u,), (y,)), factor_phi(supply))
    assert np.array_equal(scattered.inputs[0], y.values)
    with pytest.raises(ContractionError, match="inverse-factor block"):
        scattered_from_operator(lambda s: 0.5 * s, 0.5, supply, grid)


def test_picard_zero_s():
    rng = np.random.default_rng(61)
    grid = TimeGrid(4)
    u = random_signal(grid, 1, rng)
    model = _linear_s(0.0, grid)
    result = picard_solve(model, u)
    assert result.iterations == 1
    assert np.abs(result.v_star.values - ROOT2 * u.values).max() <= 1e-12
    assert norm(result.y_star - u) <= 1e-12


def test_picard_stops_at_an_iterate_past_float_range():
    # an input of 1e308 makes a first step whose norm overflows, as a
    # fitted S on an input of 1e160 overflows inside its kernel: the solve
    # raises naming that input at step 1, and numpy warns of nothing
    # (warnings are errors in this suite)
    rng = np.random.default_rng(63)
    grid = TimeGrid(4)
    fine = [random_signal(grid, 1, rng) for _ in range(2)]
    huge = constant_signal(grid, 1e308)
    model = _linear_s(0.5, grid)
    for inputs, lane in (([huge], 0), (fine + [huge], 2), ([huge] + fine, 0)):
        with pytest.raises(NumericalError, match=(
                f"^fixed-point iteration of input {lane} left the float "
                f"range at step 1$")):
            picard_solve(model, stacked(inputs))
    data = _dataset(rng, n=3, tau=4)
    _, tuned = tune_gamma(SeparableKernel(scaled_laplacian(), np.eye(1)),
                          data, rho=0.9)
    fitted = contraction_margin(tuned, passivity_supply(1))
    with pytest.raises(NumericalError, match="input 0 left the float range"):
        picard_solve(fitted, constant_signal(grid, 1e160))


def test_picard_linear_half():
    rng = np.random.default_rng(62)
    grid = TimeGrid(4)
    u = random_signal(grid, 1, rng)
    model = _linear_s(0.5, grid)
    result = picard_solve(model, u, tol=1e-12)
    want = (ROOT2 / 1.5) * u.values
    assert np.abs(result.v_star.values - want).max() <= 1e-10
    assert result.error_bound <= 1e-12
    y = simulate_r(model, u, tol=1e-12)
    assert norm(y - (1.0 / 3.0) * u) <= 1e-9


def test_gain_factors_give_direct_evaluation():
    rng = np.random.default_rng(63)
    grid = TimeGrid(3)
    u = random_signal(grid, 1, rng)
    model = _linear_s(0.9, grid, supply=gain_supply(1.0))
    y = simulate_r(model, u)
    assert norm(y - 0.9 * u) <= 1e-12


def test_picard_error_envelope():
    rng = np.random.default_rng(64)
    grid = TimeGrid(5)
    u = random_signal(grid, 1, rng)
    for ell in (0.3, 0.9):
        model = _linear_s(ell, grid)
        reference = picard_solve(model, u, tol=1e-13)
        result = picard_solve(model, u, tol=1e-11, record=True)
        v_star = reference.v_star.values
        base = np.linalg.norm(result.iterates[0].values - v_star)
        for k, it in enumerate(result.iterates):
            err = np.linalg.norm(it.values - v_star)
            assert err <= ell ** k * base * (1 + 1e-9) + 1e-13


def _supply(kind, m, p, rng):
    if kind == "passivity":
        return passivity_supply(m)
    if kind == "gain":
        return gain_supply(float(rng.uniform(0.1, 10.0)), m, p)
    M = np.eye(m + p) + 0.3 * rng.standard_normal((m + p, m + p))
    sigma = np.diag([1.0] * m + [-1.0] * p)
    return SupplyRate(M.T @ sigma @ M, m, p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), tau=st.integers(0, 5),
       dims=st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]),
       kind=st.sampled_from(["passivity", "gain", "random"]),
       ell=st.floats(0.0, 0.99, exclude_max=True),
       operator=st.sampled_from(["gaussian", "+identity", "-identity"]),
       lanes=st.lists(st.sampled_from([0.0, 0.1, 1.0, 5.0]), min_size=1,
                      max_size=4),
       tol=st.sampled_from([None, 1e-9]))
def test_picard_error_bound_holds(seed, tau, dims, kind, ell, operator, lanes,
                                  tol):
    # S(v) = ell A v with ||A|| = 1; every lane's error_bound bounds its
    # distance to the exact fixed point, solved one at a time and batched.
    # A = +-I makes some iterations contract by exactly eps, where the
    # bound is attained.
    m, p = (dims[0], dims[0]) if kind == "passivity" else dims
    rng = np.random.default_rng(seed)
    grid, steps = TimeGrid(tau), tau + 1
    factors = factor_phi(_supply(kind, m, p, rng))
    n11_inv, coupling = factors.n11_inv, factors.coupling
    # keeps eps = ell ||N11^-1 N12|| < 0.99
    ell = ell / max(1.0, factors.coupling_norm)
    if operator == "gaussian":
        A = rng.standard_normal((steps * p, steps * m))
        A /= np.linalg.norm(A, 2)
    else:
        A = float(operator[0] + "1") * np.eye(steps * p, steps * m)
    model = scattered_from_operator(
        lambda v: np.stack([ell * (A @ lane.ravel()).reshape(steps, p)
                            for lane in v]),
        ell, factors, grid)
    inputs = [random_signal(grid, m, rng, scale=scale) for scale in lanes]
    # (I + N11^-1 N12 ell A) v* = N11^-1 u, with N11^-1 N12 acting samplewise
    system = (np.eye(steps * m)
              + np.kron(np.eye(steps), coupling) @ (ell * A))
    batch = picard_solve(model, stacked(inputs), tol=tol)
    for i, u in enumerate(inputs):
        base = np.kron(np.eye(steps), n11_inv) @ u.values.ravel()
        v_star = np.linalg.solve(system, base)
        # Rounding in each step and in the reference solve, amplified by
        # at most 1 / (1 - eps), is not in the exact-arithmetic bound.
        allowance = (16 * np.finfo(float).eps / (1.0 - model.epsilon)
                     * (np.linalg.norm(base) + np.linalg.norm(v_star)))
        alone = picard_solve(model, u, tol=tol)
        for v, bound in ((alone.v_star.values, alone.error_bound),
                         (batch.v_star[i], batch.error_bounds[i])):
            assert np.linalg.norm(v.ravel() - v_star) <= bound + allowance


def test_picard_ends_on_zero_and_tiny_inputs():
    # S(0) != 0, so the fixed point is not 0 while the default tol is
    # 1e-8 ||u*|| = 0: only the rounding floor can end the iteration.
    grid = TimeGrid(20, 0.5)
    factors = factor_phi(passivity_supply(1))
    model = scattered_from_operator(
        lambda v: 0.99 * np.tanh(v + 0.3), 0.99, factors, grid)
    k = float(np.linalg.solve(factors.n11, factors.n12)[0, 0])
    # every sample solves x = -0.99 k tanh(x + 0.3); bisect to the last bit
    lo, hi = -2.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid + 0.99 * k * np.tanh(mid + 0.3) < 0 else (lo, mid)
    for u in (zeros(grid), constant_signal(grid, 1e-300)):
        result = picard_solve(model, u)
        gap = float(np.abs(result.v_star.values - lo).max())
        assert result.error_bound <= 1e-9
        assert gap <= result.error_bound + 1e-15


def test_picard_residual_scale():
    rng = np.random.default_rng(65)
    grid = TimeGrid(4)
    u = random_signal(grid, 1, rng)
    model = _linear_s(0.9, grid)
    result = picard_solve(model, u)
    assert result.residual <= 2e-8 * norm(u)


def test_picard_iteration_cap():
    rng = np.random.default_rng(66)
    grid = TimeGrid(3)
    u = random_signal(grid, 1, rng)
    model = _linear_s(0.9, grid)
    with pytest.raises(ConvergenceError):
        picard_solve(model, u, tol=1e-12, max_iter=3)


def test_picard_dim_mismatch():
    rng = np.random.default_rng(67)
    grid = TimeGrid(3)
    model = _linear_s(0.5, grid)
    with pytest.raises(ShapeError):
        picard_solve(model, random_signal(grid, 2, rng))


def test_descatter_matches_blocks():
    rng = np.random.default_rng(68)
    grid = TimeGrid(3)
    model = _linear_s(0.5, grid)
    result = picard_solve(model, random_signal(grid, 1, rng))
    v, f = result.v_star, model.supply
    want = v.values @ f.n21.T + (0.5 * v.values) @ f.n22.T
    assert np.abs(result.y_star.values - want).max() <= 1e-14


def test_identified_operator_is_monotone():
    rng = np.random.default_rng(69)
    data = _dataset(rng, n=5, tau=4)
    kernel = SeparableKernel(scaled_laplacian(), np.eye(1))
    _, model = tune_gamma(kernel, data, rho=0.9)
    factors = factor_phi(passivity_supply(1))
    scattered = contraction_margin(model, factors)
    pairs = [
        (random_signal(data.grid, 1, rng), random_signal(data.grid, 1, rng))
        for _ in range(100)
    ]
    report = check_operator_iiqc(
        lambda u: simulate_r(scattered, u), passivity_supply(1), pairs,
        tol=1e-8,
    )
    assert report.passed
    assert report.min_residual >= -1e-8


def test_gain_identified_operator_is_nonexpansive():
    rng = np.random.default_rng(70)
    data = _dataset(rng, n=5, tau=3)
    kernel = SeparableKernel(scaled_laplacian(), np.eye(1))
    _, model = tune_gamma(kernel, data, rho=1.0)
    factors = factor_phi(gain_supply(1.0))
    # N12 = 0 here, so R = S and the fit bound transfers directly
    scattered = contraction_margin(model, factors)
    assert scattered.epsilon == 0.0
    for _ in range(100):
        u = random_signal(data.grid, 1, rng)
        v = random_signal(data.grid, 1, rng)
        gap = norm(simulate_r(scattered, u) - simulate_r(scattered, v))
        assert gap <= norm(u - v) + 1e-9


def test_causality_check_r_on_causal_fit():
    rng = np.random.default_rng(71)
    data = _dataset(rng, n=4, tau=4)
    kernel = CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1)))
    _, model = tune_gamma(kernel, data, rho=0.9)
    factors = factor_phi(passivity_supply(1))
    # truncation keeps increments bounded, so the tuned norm is a valid
    # Lipschitz constant even without a structural certificate
    scattered = scattered_from_operator(
        lambda sig: evaluate(model, sig), model.rkhs_norm, factors, data.grid
    )
    probes = [
        (random_signal(data.grid, 1, rng), random_signal(data.grid, 1, rng))
        for _ in range(10)
    ]
    report = causality_check_r(scattered, probes, tol=1e-8)
    assert report.passed, report.max_violation


def test_causality_check_r_flags_noncausal_fit():
    rng = np.random.default_rng(72)
    data = _dataset(rng, n=4, tau=4)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    _, model = tune_gamma(kernel, data, rho=0.9)
    factors = factor_phi(passivity_supply(1))
    scattered = contraction_margin(model, factors)
    probes = [
        (random_signal(data.grid, 1, rng), random_signal(data.grid, 1, rng))
        for _ in range(10)
    ]
    report = causality_check_r(scattered, probes, tol=1e-8)
    assert not report.passed
    assert report.max_violation > 1e-8


def test_causality_check_r_without_pairs_passes():
    model = _linear_s(0.5, TimeGrid(3))
    report = causality_check_r(model, np.zeros((0, 2, 4, 1)), tol=1e-8)
    assert report == CausalityReport(0.0, -1, -1, 1e-8, True)


def _malformed_probes(kind):
    rng = np.random.default_rng(7)
    if kind == "three and one":
        u, v, w, x = (random_signal(TimeGrid(4), 1, rng) for _ in range(4))
        return [(u, v, w), (x,)]
    if kind == "values":
        u = random_signal(TimeGrid(4), 1, rng)
        return [(u, u.values)]
    return np.zeros(kind)


@pytest.mark.parametrize("check", ["causality", "iiqc", "defects"])
@pytest.mark.parametrize("kind", [(3, 5, 1), (3, 3, 5, 1), (3, 2, 5, 1, 1),
                                  "three and one", "values"], ids=str)
def test_probe_pairs_of_another_form_are_refused(check, kind):
    # every check reads its probes through pair_stack, which names the one
    # form it takes instead of splicing, re-pairing or failing inside numpy
    probes = _malformed_probes(kind)
    run = {
        "causality": lambda: causality_check_r(_linear_s(0.5, TimeGrid(4)),
                                               probes),
        "iiqc": lambda: check_operator_iiqc(lambda us: us,
                                            passivity_supply(1), probes),
        "defects": lambda: nonexpansive_defects(
            SeparableKernel(gaussian(2.0), np.eye(1)), probes),
    }[check]
    with pytest.raises(ShapeError, match=r"\(pairs, 2, steps, dim\) array"):
        run()


def test_causality_check_full_window_self_pair():
    rng = np.random.default_rng(73)
    grid = TimeGrid(3)
    u = random_signal(grid, 1, rng)
    model = _linear_s(0.5, grid)
    report = causality_check_r(model, [(u, u)], tol=0.0, picard_tol=1e-12)
    assert report.max_violation == 0.0


# ---------------------------------------------------------------------------
# batched solves


def _fitted_scattered(kernel, seed, m=1):
    """A tuned fit of the kernel wrapped as a contraction under passivity
    scattering, whose eps equals the Lipschitz bound ||S|| (see
    test_epsilon_for_passivity_equals_lipschitz); the tuned norm bounds
    increments for every structure here, proven or not."""
    rng = np.random.default_rng(seed)
    data = _dataset(rng, n=4, tau=5) if m == 1 else Dataset(
        tuple(random_signal(TimeGrid(5), m, rng) for _ in range(4)),
        tuple(random_signal(TimeGrid(5), m, rng) for _ in range(4)))
    _, model = tune_gamma(kernel, data, rho=0.9)
    factors = factor_phi(passivity_supply(m))
    return ScatteredModel(model, model.rkhs_norm, factors, model.grid)


def _batch_models():
    sep = SeparableKernel(scaled_laplacian(), np.eye(1))
    per_sample = tuple(SeparableKernel(gaussian(1.5 + 0.2 * t), np.eye(1))
                       for t in range(6))
    R2 = np.array([[0.8, 0.1], [0.1, 0.5]])
    fitted = {
        "separable": _fitted_scattered(sep, 80),
        "separable-2ch": _fitted_scattered(
            SeparableKernel(gaussian(2.0), R2), 81, m=2),
        "sum": _fitted_scattered(
            SumKernel((0.6, 0.4), (sep, SeparableKernel(gaussian(2.0),
                                                        np.eye(1)))), 82),
        "causal-shared": _fitted_scattered(
            CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1))), 83),
        "causal-per-sample": _fitted_scattered(
            CausalDiagonalKernel(per_sample), 84),
    }
    wrapped = fitted["causal-shared"].s
    passivity = factor_phi(passivity_supply(1))
    fitted["from-operator"] = scattered_from_operator(
        lambda sig: evaluate(wrapped, sig), wrapped.rkhs_norm, passivity,
        wrapped.grid)
    fitted["linear"] = _linear_s(0.9, wrapped.grid)
    # S(0) != 0: a zero lane ends only at the rounding floor
    fitted["tanh"] = scattered_from_operator(
        lambda v: 0.99 * np.tanh(v + 0.3), 0.99, passivity, wrapped.grid)
    return fitted


BATCH_MODELS = _batch_models()


def _lane(kind, grid, m, rng):
    if kind == "zero":
        return zeros(grid, m)
    if kind == "tiny":
        return constant_signal(grid, 1e-300, m)
    return random_signal(grid, m, rng, scale=float(rng.choice([0.1, 1.0, 5.0])))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(BATCH_MODELS)),
       kinds=st.lists(st.sampled_from(["random", "random", "zero", "tiny"]),
                      max_size=9),
       seed=st.integers(0, 2**16),
       tol=st.sampled_from([None, 1e-10]),
       budget=st.sampled_from([1, 200, 500, 2**15]),
       record=st.booleans())
def test_each_lane_of_a_stack_solves_as_its_signal(name, kinds, seed, tol,
                                                   budget, record):
    # every lane of a stack, none included, gives bit for bit what a solve
    # of the lane as one Signal gives, recorded iterates too
    model = BATCH_MODELS[name]
    rng = np.random.default_rng(seed)
    grid, m, p = TimeGrid(5), model.supply.m, model.supply.p
    stack = np.array([_lane(kind, grid, m, rng).values for kind in kinds])
    stack = stack.reshape(len(kinds), grid.size, m)
    with pytest.MonkeyPatch.context() as mp:
        # small budgets split the batch over several evaluator chunks
        mp.setattr(rkhs, "LANE_BUDGET", budget)
        batch = picard_solve(model, stack, tol=tol, record=record)
        outputs = simulate_r(model, stack, tol=tol)
    assert isinstance(batch, PicardBatch)
    assert isinstance(batch.iterations, int)
    assert batch.iterations == sum(batch.lane_iterations.tolist())
    assert outputs.shape == batch.y_star.shape == (len(kinds), grid.size, p)
    assert (batch.iterates is None) is not record
    for i, lane in enumerate(stack):
        want = picard_solve(model, Signal(grid, lane), tol=tol, record=record)
        assert np.array_equal(batch.v_star[i], want.v_star.values)
        assert np.array_equal(batch.y_star[i], want.y_star.values)
        assert np.array_equal(
            outputs[i], simulate_r(model, Signal(grid, lane), tol=tol).values)
        assert batch.lane_iterations[i] == want.iterations
        assert batch.residuals[i] == want.residual
        assert batch.error_bounds[i] == want.error_bound
        assert np.array_equal(want.y_star.values, _descattered(
            model, want.v_star.values[None])[0])
        if record:
            assert np.array_equal(batch.iterates[i],
                                  [x.values for x in want.iterates])


def test_each_lane_costs_iterations_plus_one_evaluations():
    model = BATCH_MODELS["separable"]
    seen = []

    def s(vals):
        seen.append(len(vals))
        return model.s(vals)

    counted = ScatteredModel(s, model.lipschitz, model.supply, model.grid)
    rng = np.random.default_rng(89)
    grid = TimeGrid(5)
    inputs = stacked([random_signal(grid, 1, rng) for _ in range(3)]
                     + [zeros(grid)])
    batch = picard_solve(counted, inputs)
    assert sum(seen) == batch.iterations + len(inputs)
    seen.clear()
    outputs = simulate_r(counted, inputs)
    # the output reuses the S(v*) the residual evaluated
    assert sum(seen) == batch.iterations + len(inputs)
    assert np.array_equal(outputs, _descattered(model, batch.v_star))


def test_operator_s_runs_once_a_step_on_the_active_stack():
    # scattered_from_operator keeps the caller's S: one call per Picard
    # step, on every lane still iterating, then one on all lanes for S(v*)
    grid, calls = TimeGrid(5), []

    def s(v):
        calls.append(v.shape)
        return 0.99 * np.tanh(v + 0.3)

    model = scattered_from_operator(s, 0.99, factor_phi(passivity_supply(1)),
                                    grid)
    rng = np.random.default_rng(90)
    inputs = stacked([random_signal(grid, 1, rng), zeros(grid),
                      random_signal(grid, 1, rng, scale=5.0)])
    batch = picard_solve(model, inputs)
    steps = batch.lane_iterations
    assert len(set(steps.tolist())) > 1  # lanes stop at different steps
    assert calls == [(int((steps >= k).sum()), grid.size, 1)
                     for k in range(1, steps.max() + 1)] + [inputs.shape]


@pytest.mark.parametrize("s, got", [
    (lambda v: Signal(TimeGrid(v.shape[1] - 1), v[0]), r"Signal"),
    (lambda v: list(v), r"list"),
    (lambda v: v[:, :-1], r"\(2, 3, 1\)"),
    (lambda v: v[:1], r"\(1, 4, 1\)"),
    (lambda v: np.concatenate([v, v], axis=2), r"\(2, 4, 2\)"),
])
def test_s_of_another_form_is_refused(s, got):
    model = scattered_from_operator(s, 0.5, factor_phi(passivity_supply(1)),
                                    TimeGrid(3))
    with pytest.raises(ShapeError, match=r"^S must map a \(B, steps, m\) stack "
                       r"to a \(B, steps, p\) stack, \(2, 4, 1\) here; it gave "
                       + got + "$"):
        picard_solve(model, np.ones((2, 4, 1)))


def test_other_input_kinds_are_a_type_error():
    # a Signal or a (B, steps, m) stack; the removed list of Signals, one
    # trajectory's (steps, m) values and anything else are refused by name
    rng = np.random.default_rng(91)
    data = _dataset(rng, n=3, tau=3)
    _, model = tune_gamma(SeparableKernel(gaussian(2.0), np.eye(1)), data,
                          rho=0.9)
    scattered = contraction_margin(model, factor_phi(passivity_supply(1)))
    u = random_signal(data.grid, 1, rng)
    for given, got in (([u, u], "list"), ((u,), "tuple"),
                       (u.values, r"\(4, 1\)"),
                       (u.values[None, None], r"\(1, 1, 4, 1\)"),
                       (None, "NoneType")):
        for run, target in ((picard_solve, scattered), (simulate_r, scattered),
                            (evaluate, model)):
            with pytest.raises(TypeError, match=r"^expected a Signal or a "
                               r"\(B, steps, m\) array, got " + got + "$"):
                run(target, given)


def test_evaluate_takes_one_signal_or_one_stack():
    rng = np.random.default_rng(92)
    data = _dataset(rng, n=3, tau=3)
    _, model = tune_gamma(SeparableKernel(gaussian(2.0), np.eye(1)), data,
                          rho=0.9)
    stack = stacked([random_signal(data.grid, 1, rng) for _ in range(3)])
    outputs = evaluate(model, stack)
    assert outputs.shape == (3, data.grid.size, 1)
    for lane, y in zip(stack, outputs):
        assert np.array_equal(y, evaluate(model, Signal(data.grid, lane)).values)
    for bad in (stack[:, :-1], np.ones((3, data.grid.size, 2))):
        with pytest.raises(ShapeError):
            evaluate(model, bad)


def test_batched_solve_records_each_lane():
    # the zero lane stops after one step while the others keep iterating,
    # and each lane records its own iterates
    rng = np.random.default_rng(85)
    grid = TimeGrid(5)
    model = _linear_s(0.9, grid)
    inputs = stacked([random_signal(grid, 1, rng), zeros(grid),
                      random_signal(grid, 1, rng, scale=10.0)])
    batch = picard_solve(model, inputs, tol=1e-11, record=True)
    assert ([len(lane) for lane in batch.iterates]
            == (batch.lane_iterations + 1).tolist())
    assert batch.lane_iterations[1] == 1 < batch.lane_iterations[0]


def test_batched_solve_raises_when_a_lane_stalls():
    rng = np.random.default_rng(86)
    grid = TimeGrid(3)
    model = _linear_s(0.9, grid)
    # the zero lane converges at once; the random one needs far more steps
    inputs = stacked([zeros(grid), random_signal(grid, 1, rng), zeros(grid)])
    with pytest.raises(ConvergenceError):
        picard_solve(model, inputs, tol=1e-12, max_iter=3)
    assert picard_solve(model, inputs, tol=1e-12).lane_iterations[1] > 3


def test_batched_solve_validations():
    rng = np.random.default_rng(87)
    model = _linear_s(0.5, TimeGrid(3))
    with pytest.raises(ShapeError):  # Signals on two grids make no stack
        stacked([random_signal(TimeGrid(3), 1, rng),
                 random_signal(TimeGrid(4), 1, rng)])
    with pytest.raises(ShapeError, match="off the grid"):
        picard_solve(model, stacked([random_signal(TimeGrid(4), 1, rng)]))
    with pytest.raises(ShapeError, match="input channels"):
        picard_solve(model, stacked([random_signal(TimeGrid(3), 2, rng)]))
    empty = picard_solve(model, np.zeros((0, 4, 1)))
    assert empty.iterations == 0 and empty.y_star.shape == (0, 4, 1)
    assert simulate_r(model, np.zeros((0, 4, 1))).shape == (0, 4, 1)


def test_signal_off_the_model_grid_is_refused():
    # as evaluate refuses it: a Signal of another length, or of the same
    # length on another dt, is a ShapeError before any step
    rng = np.random.default_rng(90)
    data = _dataset(rng, n=4, tau=5)
    _, tuned = tune_gamma(SeparableKernel(scaled_laplacian(), np.eye(1)),
                          data, rho=0.9)
    for model in (contraction_margin(tuned, passivity_supply(1)),
                  _linear_s(0.5, data.grid)):
        for grid in (TimeGrid(2), TimeGrid(11), TimeGrid(5, 0.5)):
            u = random_signal(grid, 1, rng)
            for solve in (picard_solve, simulate_r):
                with pytest.raises(ShapeError, match="grid"):
                    solve(model, u)
        assert simulate_r(model, random_signal(data.grid, 1, rng)).grid \
            == data.grid


def test_check_operator_iiqc_calls_op_once():
    rng = np.random.default_rng(88)
    grid = TimeGrid(4)
    model = _linear_s(0.5, grid)
    pairs = [(random_signal(grid, 1, rng), random_signal(grid, 1, rng))
             for _ in range(7)]
    calls = []

    def op(inputs):
        calls.append(inputs)
        return simulate_r(model, inputs)

    report = check_operator_iiqc(op, passivity_supply(1), pairs)
    assert len(calls) == 1
    assert np.array_equal(calls[0],
                          stacked([x for pair in pairs for x in pair]))
    one_by_one = check_operator_iiqc(
        lambda us: [simulate_r(model, Signal(grid, u)).values for u in us],
        passivity_supply(1), pairs)
    assert report.residuals == one_by_one.residuals
