"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  Every tolerance here is part of the package contract.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from iqcfit import cli
from iqcfit.inversion import (
    causality_check_r,
    contraction_margin,
    picard_solve,
    scattered_from_operator,
    simulate_r,
)
from iqcfit.kernels import (
    PROVEN,
    CausalDiagonalKernel,
    SeparableKernel,
    bilinear,
    certify_bounded,
    gaussian,
    inverse_power,
    nonexpansive_defect,
    polynomial,
    scaled_laplacian,
    stable_spline,
)
from iqcfit.hodgkin import (
    gating_trajectory,
    monotonicity_witness,
    steady_state_gating,
    time_constant,
)
from iqcfit.rkhs import build_gram, evaluate, fit, tune_gamma
from iqcfit.signals import (
    Dataset,
    Signal,
    TimeGrid,
    norm,
    random_signal,
    truncate,
)
from iqcfit.supply import factor_phi, passivity_supply


def _pairs(grid, dim, count, rng, scale=1.0):
    return [
        (random_signal(grid, dim, rng, scale=scale),
         random_signal(grid, dim, rng, scale=scale))
        for _ in range(count)
    ]


def _random_dataset(rng, n=4, tau=3, m=1, p=1, scale=1.0):
    grid = TimeGrid(tau)
    return Dataset(
        tuple(random_signal(grid, m, rng, scale=scale) for _ in range(n)),
        tuple(random_signal(grid, p, rng, scale=scale) for _ in range(n)),
    )


def test_criterion_01_monotonicity_counterexample():
    start = time.perf_counter()
    wit = monotonicity_witness(dt_ode=1e-3)
    elapsed = time.perf_counter() - start
    assert abs(wit.continuous - (-33.51)) <= 1.0
    assert elapsed < 5.0
    print(f"criterion 1: PASS - witness {wit.continuous:.4f} "
          f"within 1.0 of -33.51 ({elapsed:.2f}s)")


def test_criterion_02_steady_state_oracle():
    start = time.perf_counter()
    worst = 0.0
    for level in (-100.0, -50.0, 0.0):
        T = 10.0 * time_constant(level)
        # "after T": sampled at 2T, where the residual e^{-20} transient
        # sits far below the 1e-6 budget
        horizon = round(2.0 * T, 3)
        x = gating_trajectory(level, 1e-3, horizon=horizon)
        gap = abs(x.values[-1, 0] - steady_state_gating(level))
        worst = max(worst, gap)
        assert gap <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 2: PASS - steady-state gap {worst:.2e} <= 1e-6 "
          f"({elapsed:.2f}s)")


def test_criterion_03_kernel_certificate_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    grid = TimeGrid(3)
    pairs = _pairs(grid, 1, 1000, rng)
    proven = {
        "gaussian(sqrt2)": gaussian(np.sqrt(2.0)),
        "scaled_laplacian": scaled_laplacian(),
        "inverse_power(2,1)": inverse_power(2.0, 1),
        "bilinear": bilinear(),
    }
    worst = -np.inf
    for kernel in proven.values():
        for u, v in pairs:
            worst = max(worst, nonexpansive_defect(kernel, u, v))
    assert worst <= 1e-10
    point = TimeGrid(0)
    gauss_gap = nonexpansive_defect(
        gaussian(1.0), Signal(point, [0.0]), Signal(point, [np.sqrt(0.1)])
    )
    spline_gap = nonexpansive_defect(
        stable_spline(1.0), Signal(point, [0.1]), Signal(point, [0.0])
    )
    assert gauss_gap > 1e-10
    assert spline_gap > 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 3: PASS - proven defects <= {worst:.2e}, violations "
          f"{gauss_gap:.3f}/{spline_gap:.3f} found ({elapsed:.2f}s)")


def test_criterion_04_representer_correctness():
    rng = np.random.default_rng(101)
    kernels = [gaussian(np.sqrt(2.0)), scaled_laplacian(),
               inverse_power(2.0, 1), bilinear(), polynomial(0.5, 2)]
    gammas = [1e-3, 1.0, 10.0]
    worst_res, worst_norm = 0.0, 0.0
    for i in range(20):
        data = _random_dataset(rng, n=1 + i % 3, tau=1 + i % 4)
        kernel = kernels[i % len(kernels)]
        gamma = gammas[i % len(gammas)]
        model = fit(kernel, data, gamma, layout="dense")
        G = build_gram(kernel, data.inputs, layout="dense").dense
        c = model.coefficients.reshape(-1)
        y = data.outputs.reshape(-1)
        res = np.linalg.norm((G + gamma * np.eye(len(c))) @ c - y)
        worst_res = max(worst_res, res)
        assert res <= 1e-10

        def objective(vec):
            return float(np.sum((G @ vec - y) ** 2) + gamma * vec @ G @ vec)

        best = objective(c)
        for _ in range(100):
            assert best <= objective(c + 1e-2 * rng.standard_normal(len(c)))

        lam, Q = np.linalg.eigh(G)
        lam = np.clip(lam, 0.0, None)
        w = Q.T @ y
        norm_eig = np.linalg.norm(np.sqrt(lam) / (lam + gamma) * w)
        gap = abs(model.rkhs_norm - norm_eig)
        worst_norm = max(worst_norm, gap)
        assert gap <= 1e-10
    print(f"criterion 4: PASS - 20 instances, residual <= {worst_res:.2e}, "
          f"norm agreement <= {worst_norm:.2e}")


def test_criterion_05_kronecker_fast_path():
    rng = np.random.default_rng(102)
    scalars = [gaussian(np.sqrt(2.0)), scaled_laplacian(), bilinear()]
    worst = 0.0
    for i in range(10):
        p = 1 + i % 2
        A = rng.standard_normal((p, p))
        R = A @ A.T + 0.5 * np.eye(p)
        kernel = SeparableKernel(scalars[i % 3], R)
        data = _random_dataset(rng, n=2 + i % 2, tau=2 + i % 3, p=p)
        gamma = 10.0 ** (-(i % 3))
        dense = fit(kernel, data, gamma, layout="dense")
        kron = fit(kernel, data, gamma, layout="kronecker")
        worst = max(worst, float(np.abs(dense.coefficients
                                        - kron.coefficients).max()))
    assert worst <= 1e-10
    print(f"criterion 5: PASS - dense vs kronecker coefficients "
          f"agree to {worst:.2e}")


def test_criterion_06_nonexpansive_fits():
    rng = np.random.default_rng(103)
    data = _random_dataset(rng, n=5, tau=4)
    kernel = SeparableKernel(scaled_laplacian(), np.eye(1))
    _, model = tune_gamma(kernel, data, rho=1.0)
    assert model.rkhs_norm <= 1.0 + 1e-12
    worst = -np.inf
    for u, v in _pairs(data.grid, 1, 1000, rng):
        gap = norm(evaluate(model, u) - evaluate(model, v)) - norm(u - v)
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"criterion 6: PASS - 1000 pairs, expansion excess <= {worst:.2e}")


def test_criterion_07_picard_convergence():
    rng = np.random.default_rng(104)
    grid = TimeGrid(5)
    u_star = random_signal(grid, 1, rng)
    factors = factor_phi(passivity_supply(1))
    for ell in (0.3, 0.9):
        model = scattered_from_operator(lambda s, e=ell: e * s, ell,
                                        factors, grid)
        reference = picard_solve(model, u_star, tol=1e-13)
        run = picard_solve(model, u_star, tol=1e-11, record=True)
        base = np.linalg.norm(run.iterates[0].values
                              - reference.v_star.values)
        for k, it in enumerate(run.iterates):
            err = np.linalg.norm(it.values - reference.v_star.values)
            assert err <= ell ** k * base * (1 + 1e-9) + 1e-13
    half = scattered_from_operator(lambda s: 0.5 * s, 0.5, factors, grid)
    y = simulate_r(half, u_star, tol=1e-12)
    gap = norm(y - (1.0 / 3.0) * u_star)
    assert gap <= 1e-9
    print(f"criterion 7: PASS - error envelopes hold, "
          f"S=0.5I gives R=u*/3 to {gap:.2e}")


def test_criterion_08_end_to_end_pipeline(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "rep"
    rc = cli.main(["reproduce", "--out", str(out), "--quiet"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    norm_hat = report["fit"]["rkhs_norm"]
    assert 0.985 <= norm_hat < 1.0
    assert report["monotonicity"]["probes"] == 100
    assert report["monotonicity"]["min_residual"] >= -1e-8
    worst = max(row["rel_error_scale"] for row in report["reconstruction"])
    assert worst <= 0.15
    assert elapsed < 120.0
    print(f"criterion 8: PASS - norm {norm_hat:.4f}, monotone on 100 pairs, "
          f"worst relative error {worst:.4f} <= 0.15 ({elapsed:.1f}s)")


def test_criterion_09_causality():
    rng = np.random.default_rng(105)
    data = _random_dataset(rng, n=4, tau=4)
    kernel = CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1)))
    _, model = tune_gamma(kernel, data, rho=0.9)
    worst = 0.0
    for _ in range(50):
        u = random_signal(data.grid, 1, rng)
        full = evaluate(model, u)
        for T in range(data.grid.tau + 1):
            head = evaluate(model, truncate(u, T))
            gap = float(np.abs(truncate(full, T).values
                               - truncate(head, T).values).max())
            worst = max(worst, gap)
    assert worst <= 1e-12
    factors = factor_phi(passivity_supply(1))
    # the tuned norm bounds increments through truncation as well, so it
    # serves as the Lipschitz constant of the causal fit
    scattered = scattered_from_operator(
        lambda s: evaluate(model, s), model.rkhs_norm, factors, data.grid
    )
    assert scattered.epsilon < 1.0
    report = causality_check_r(scattered, _pairs(data.grid, 1, 10, rng),
                               tol=1e-8)
    assert report.passed
    print(f"criterion 9: PASS - prefix consistency {worst:.2e} <= 1e-12, "
          f"descattered violations {report.max_violation:.2e} <= 1e-8")


def test_criterion_10_bounded_kernel_route():
    rng = np.random.default_rng(106)
    kernel = SeparableKernel(bilinear(), 0.5 * np.eye(1))
    assert certify_bounded(kernel) == PROVEN
    data = _random_dataset(rng, n=4, tau=3)
    _, model = tune_gamma(kernel, data, rho=1.0)
    assert model.rkhs_norm <= 1.0 + 1e-12
    worst = -np.inf
    for _ in range(1000):
        u = random_signal(data.grid, 1, rng)
        gap = norm(evaluate(model, u)) - norm(u)
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"criterion 10: PASS - 1000 probes, output excess <= {worst:.2e}")
