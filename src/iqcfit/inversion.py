"""Recover input-output behavior from a contraction in scattering coordinates.

A fitted nonexpansive operator S lives in the transformed coordinates
(v, z) = M(u, y).  Evaluating the modeled operator R at an input u* means
solving the fixed-point equation v = N11^-1 u* - N11^-1 N12 S(v), which is a
contraction whenever eps = lipschitz(S) * ||N11^-1 N12|| < 1, and then
reading off y* = N21 v* + N22 S(v*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractionError, ConvergenceError, ShapeError
from .kernels import PROVEN, certify_nonexpansive
from .rkhs import FittedOperator, values_evaluator
from .signals import Signal, norm, truncate
from .supply import ScatteringFactors

DEFAULT_MAX_ITER = 10_000
# Rounding keeps Picard steps from shrinking below about machine epsilon
# times the size of the terms of base - S(v) N, more where terms inside S
# cancel (fitted expansions reach ~5e-13).  There a step stops contracting
# by eps, which exact arithmetic rules out.  Under the default tol such a
# step, if below this fraction of those terms, also ends the iteration, as
# it must on a zero input, where the default tol is 0.
STEP_FLOOR = 1e-11


@dataclass(frozen=True, eq=False)
class ScatteredModel:
    """Contraction S plus scattering factors, ready for fixed-point runs."""

    s: Callable[[np.ndarray], np.ndarray]
    factors: ScatteringFactors
    lipschitz: float
    epsilon: float
    fitted: FittedOperator | None = None


def _epsilon(lipschitz: float, factors: ScatteringFactors) -> float:
    n11 = factors.n11
    if np.linalg.cond(n11) > 1e12:
        raise ContractionError("leading inverse-factor block is singular")
    coupling = np.linalg.svd(np.linalg.solve(n11, factors.n12),
                             compute_uv=False)
    return float(lipschitz * (coupling.max() if coupling.size else 0.0))


def contraction_margin(model: FittedOperator,
                       factors: ScatteringFactors) -> ScatteredModel:
    """Certify the fixed-point setup for a fitted operator.

    Requires a structurally proven nonexpansive kernel, rkhs norm < 1, and
    contraction factor eps < 1; refuses otherwise.
    """
    if certify_nonexpansive(model.kernel) != PROVEN:
        raise ContractionError(
            "kernel has no nonexpansiveness certificate; "
            "cannot bound the fitted operator's increments"
        )
    ell = model.rkhs_norm
    if ell >= 1.0:
        raise ContractionError(f"fitted operator norm {ell:.6f} >= 1")
    if model.input_dim != factors.m or model.output_dim != factors.p:
        raise ShapeError("fitted dims do not match the scattering factors")
    eps = _epsilon(ell, factors)
    if eps >= 1.0:
        raise ContractionError(f"contraction factor eps = {eps:.6f} >= 1")
    return ScatteredModel(values_evaluator(model), factors, ell, eps, model)


def scattered_from_operator(s: Callable[[Signal], Signal], lipschitz: float,
                            factors: ScatteringFactors, grid) -> ScatteredModel:
    """Wrap an arbitrary operator with a caller-supplied increment bound.

    For operators outside the fitted family (closed-form contractions, fits
    whose kernel certificate is unknown but whose bound is known by other
    means).  The caller vouches for the Lipschitz constant.
    """
    if lipschitz < 0:
        raise ValueError("lipschitz bound must be nonnegative")
    eps = _epsilon(lipschitz, factors)
    if eps >= 1.0:
        raise ContractionError(f"contraction factor eps = {eps:.6f} >= 1")

    def s_values(vals: np.ndarray) -> np.ndarray:
        return s(Signal(grid, vals)).values

    return ScatteredModel(s_values, factors, float(lipschitz), eps, None)


@dataclass(frozen=True, eq=False)
class PicardResult:
    v_star: Signal
    iterations: int
    residual: float
    epsilon: float
    converged: bool
    error_bound: float
    iterates: tuple[Signal, ...] | None = None


def picard_solve(model: ScatteredModel, u_star: Signal,
                 tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 record: bool = False) -> PicardResult:
    """Iterate v <- N11^-1 u* - N11^-1 N12 S(v) to its unique fixed point.

    Stops when the step size guarantees ||v - v*|| <= tol via the
    contraction a-posteriori bound; tol defaults to 1e-8 times ||u*||, and
    then a step that stalls at the rounding floor (STEP_FLOOR) also stops
    it.  Either way the result's error_bound, eps / (1 - eps) times the
    last step, bounds ||v - v*||.
    """
    factors = model.factors
    if u_star.dim != factors.m:
        raise ShapeError(f"expected {factors.m} input channels, got {u_star.dim}")
    floor = STEP_FLOOR if tol is None else 0.0
    if tol is None:
        tol = 1e-8 * norm(u_star)
    eps = model.epsilon
    # Successive-step threshold that certifies the error bound tol.
    threshold = tol * (1.0 - eps) / eps if eps > 0 else np.inf
    n11_inv = np.linalg.inv(factors.n11)
    coupling = n11_inv @ factors.n12
    base = u_star.values @ n11_inv.T
    v = base.copy()
    history = [Signal(u_star.grid, v)] if record else None
    converged = False
    iterations = 0
    step = np.inf
    for iterations in range(1, max_iter + 1):
        feedback = model.s(v) @ coupling.T
        v_next = base - feedback
        step, prev = float(np.linalg.norm(v_next - v)), step
        v = v_next
        if record:
            history.append(Signal(u_star.grid, v))
        if step <= threshold or (floor and step > eps * prev and step <= floor * (
                np.linalg.norm(base) + np.linalg.norm(feedback))):
            converged = True
            break
    residual = float(np.linalg.norm(
        v @ factors.n11.T + model.s(v) @ factors.n12.T - u_star.values
    ))
    if not converged:
        raise ConvergenceError(
            f"fixed-point iteration hit {max_iter} steps "
            f"(eps={eps:.4f}, last residual {residual:.3e})"
        )
    return PicardResult(
        v_star=Signal(u_star.grid, v),
        iterations=iterations,
        residual=residual,
        epsilon=eps,
        converged=True,
        error_bound=eps / (1.0 - eps) * step,
        iterates=tuple(history) if record else None,
    )


def descatter_output(model: ScatteredModel, v_star: Signal) -> Signal:
    """Map a fixed point back to the output: y* = N21 v* + N22 S(v*)."""
    factors = model.factors
    vals = (v_star.values @ factors.n21.T
            + model.s(v_star.values) @ factors.n22.T)
    return Signal(v_star.grid, vals)


def simulate_r(model: ScatteredModel, u_star: Signal, tol: float | None = None,
               max_iter: int = DEFAULT_MAX_ITER) -> Signal:
    """Evaluate the modeled input-output operator R at u*."""
    result = picard_solve(model, u_star, tol=tol, max_iter=max_iter)
    return descatter_output(model, result.v_star)


@dataclass(frozen=True)
class CausalityReport:
    max_violation: float
    worst_pair: int
    worst_horizon: int
    tolerance: float
    passed: bool


def causality_check_r(model: ScatteredModel,
                      probes: list[tuple[Signal, Signal]],
                      horizons: list[int] | None = None,
                      tol: float = 1e-8,
                      picard_tol: float | None = None) -> CausalityReport:
    """Probe whether R(u) up to time T depends on u after time T.

    For each probe pair and horizon T the second input is spliced to agree
    with the first on [0, T]; any difference of the outputs on [0, T] is a
    causality violation.
    """
    worst, arg, arg_t = 0.0, -1, -1
    for idx, (u, w) in enumerate(probes):
        ts = range(u.grid.tau + 1) if horizons is None else horizons
        y_u = simulate_r(model, u, tol=picard_tol)
        for T in ts:
            spliced = truncate(u, T) + (w - truncate(w, T))
            y_s = simulate_r(model, spliced, tol=picard_tol)
            violation = norm(truncate(y_u - y_s, T))
            if violation > worst:
                worst, arg, arg_t = violation, idx, T
    return CausalityReport(float(worst), arg, arg_t, float(tol),
                           bool(worst <= tol))
