"""Recover input-output behavior from a contraction in scattering coordinates.

A fitted nonexpansive operator S lives in the transformed coordinates
(v, z) = M(u, y).  Evaluating the modeled operator R at an input u* means
solving the fixed-point equation v = N11^-1 u* - N11^-1 N12 S(v), which is a
contraction whenever eps = lipschitz(S) * ||N11^-1 N12|| < 1, and then
reading off y* = N21 v* + N22 S(v*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractionError, ConvergenceError, ShapeError
from .kernels import PROVEN, certify_nonexpansive
from .rkhs import FittedOperator
from .signals import Signal, checked, norm, truncate
from .supply import ScatteringFactors

DEFAULT_MAX_ITER = 10_000
# Rounding keeps Picard steps from shrinking below about machine epsilon
# times the size of the terms of base - S(v) N, more where terms inside S
# cancel (fitted expansions reach ~5e-13).  There a step stops contracting
# by eps, which exact arithmetic rules out.  Under the default tol such a
# step, if below this fraction of those terms, also ends the iteration, as
# it must on a zero input, where the default tol is 0.
STEP_FLOOR = 1e-11


class ScatteredModel(NamedTuple):
    """Contraction S plus scattering factors, ready for fixed-point runs.

    s maps stacked inputs (B, steps, m) to stacked outputs (B, steps, p),
    one lane per signal.
    """

    s: Callable[[np.ndarray], np.ndarray]
    factors: ScatteringFactors
    lipschitz: float
    epsilon: float
    fitted: FittedOperator | None = None


def _epsilon(lipschitz: float, factors: ScatteringFactors) -> float:
    """The contraction factor lipschitz * ||N11^-1 N12||, refused unless
    below 1."""
    n11 = factors.n11
    if np.linalg.cond(n11) > 1e12:
        raise ContractionError("leading inverse-factor block is singular")
    coupling = np.linalg.svd(np.linalg.solve(n11, factors.n12),
                             compute_uv=False)
    eps = float(lipschitz * (coupling.max() if coupling.size else 0.0))
    if not eps < 1.0:  # NaN fails too
        raise ContractionError(f"contraction factor eps = {eps:.6f} >= 1")
    return eps


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
    if not ell < 1.0:  # NaN fails too
        raise ContractionError(f"fitted operator norm {ell:.6f} >= 1")
    if model.input_dim != factors.m or model.output_dim != factors.p:
        raise ShapeError("fitted dims do not match the scattering factors")
    return ScatteredModel(model.evaluator, factors, ell,
                          _epsilon(ell, factors), model)


def scattered_from_operator(s: Callable[[Signal], Signal], lipschitz: float,
                            factors: ScatteringFactors, grid) -> ScatteredModel:
    """Wrap an arbitrary operator with a caller-supplied increment bound.

    For operators outside the fitted family (closed-form contractions, fits
    whose kernel certificate is unknown but whose bound is known by other
    means).  The caller vouches for the Lipschitz constant.
    """
    lipschitz = checked(lipschitz, "nonnegative", "lipschitz bound")
    eps = _epsilon(lipschitz, factors)

    def s_values(vals: np.ndarray) -> np.ndarray:
        return np.stack([s(Signal(grid, lane)).values for lane in vals])

    return ScatteredModel(s_values, factors, lipschitz, eps, None)


class PicardResult(NamedTuple):
    v_star: Signal
    # y* = N21 v* + N22 S(v*), from the S(v*) the residual evaluated.
    y_star: Signal
    iterations: int
    residual: float
    epsilon: float
    converged: bool
    error_bound: float
    iterates: tuple[Signal, ...] | None = None


class PicardBatch(NamedTuple):
    """Results of one batched solve, one PicardResult per input, in order."""

    lanes: tuple[PicardResult, ...]

    @property
    def iterations(self) -> int:
        """Picard steps summed over the lanes."""
        return sum(lane.iterations for lane in self.lanes)


def _lane_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every lane: the same dot of the flattened lane."""
    flat = x.reshape(len(x), 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def picard_solve(model: ScatteredModel, u_star: Signal | Sequence[Signal],
                 tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 record: bool = False) -> PicardResult | PicardBatch:
    """Iterate v <- N11^-1 u* - N11^-1 N12 S(v) to its unique fixed point.

    Stops when the step size guarantees ||v - v*|| <= tol via the
    contraction a-posteriori bound; tol defaults to 1e-8 times ||u*||, and
    then a step that stalls at the rounding floor (STEP_FLOOR) also stops
    it.  Either way the result's error_bound, eps / (1 - eps) times the
    last step, bounds ||v - v*||.

    Given a list of signals on one grid, iterates them together as lanes of
    one stack, each lane under its own stopping rule and frozen once it
    stops, and returns a PicardBatch holding what each lane would have
    returned alone.
    """
    if isinstance(u_star, Signal):
        return _solve_lanes(model, [u_star], tol, max_iter, record)[0]
    return PicardBatch(tuple(_solve_lanes(model, list(u_star), tol, max_iter,
                                          record)))


def _solve_lanes(model: ScatteredModel, inputs: list[Signal],
                 tol: float | None, max_iter: int,
                 record: bool) -> list[PicardResult]:
    factors = model.factors
    for u in inputs:
        if u.dim != factors.m:
            raise ShapeError(f"expected {factors.m} input channels, got {u.dim}")
    if not inputs:
        return []
    grid = inputs[0].grid
    if any(u.grid != grid for u in inputs):
        raise ShapeError("batched inputs must share one grid")
    lanes = len(inputs)
    floor = STEP_FLOOR if tol is None else 0.0
    if tol is None:
        tols = np.array([1e-8 * norm(u) for u in inputs])
    else:
        tols = np.full(lanes, tol, dtype=float)
    eps = model.epsilon
    # Successive-step threshold that certifies the error bound tol.
    threshold = tols * (1.0 - eps) / eps if eps > 0 else np.full(lanes, np.inf)
    n11_inv = np.linalg.inv(factors.n11)
    coupling = n11_inv @ factors.n12
    u_vals = np.stack([u.values for u in inputs])
    base = u_vals @ n11_inv.T
    v = base.copy()
    history = [[Signal(grid, lane)] for lane in v] if record else None
    iterations = np.zeros(lanes, dtype=int)
    step = np.full(lanes, np.inf)
    active = np.arange(lanes)
    for it in range(1, max_iter + 1):
        v_act = v[active]
        feedback = model.s(v_act) @ coupling.T
        v_next = base[active] - feedback
        prev, now = step[active], _lane_norms(v_next - v_act)
        v[active], step[active], iterations[active] = v_next, now, it
        if record:
            for i, lane in zip(active, v_next):
                history[i].append(Signal(grid, lane))
        done = now <= threshold[active]
        if floor:
            slow = np.flatnonzero(~done)
            slow = slow[now[slow] > eps * prev[slow]]
            if len(slow):
                done[slow] = now[slow] <= floor * (
                    _lane_norms(base[active[slow]])
                    + _lane_norms(feedback[slow]))
        active = active[~done]
        if not len(active):
            break
    s_star = model.s(v)
    residuals = _lane_norms(v @ factors.n11.T + s_star @ factors.n12.T - u_vals)
    outputs = _descatter(factors, v, s_star)
    if len(active):
        raise ConvergenceError(
            f"fixed-point iteration hit {max_iter} steps "
            f"(eps={eps:.4f}, last residual {residuals[active[0]]:.3e})"
        )
    return [
        PicardResult(
            v_star=Signal(grid, v[i]),
            y_star=Signal(grid, outputs[i]),
            iterations=int(iterations[i]),
            residual=float(residuals[i]),
            epsilon=eps,
            converged=True,
            error_bound=eps / (1.0 - eps) * float(step[i]),
            iterates=tuple(history[i]) if record else None,
        )
        for i in range(lanes)
    ]


def _descatter(factors: ScatteringFactors, v_vals: np.ndarray,
               s_vals: np.ndarray) -> np.ndarray:
    return v_vals @ factors.n21.T + s_vals @ factors.n22.T


def simulate_r(model: ScatteredModel, u_star: Signal | Sequence[Signal],
               tol: float | None = None,
               max_iter: int = DEFAULT_MAX_ITER) -> Signal | list[Signal]:
    """Evaluate the modeled input-output operator R at u*, or at every signal
    of a list of them with one batched solve."""
    result = picard_solve(model, u_star, tol=tol, max_iter=max_iter)
    if isinstance(result, PicardResult):
        return result.y_star
    return [lane.y_star for lane in result.lanes]


@dataclass(frozen=True)
class CausalityReport:
    max_violation: float
    worst_pair: int
    worst_horizon: int
    tolerance: float
    passed: bool


def causality_check_r(model: ScatteredModel,
                      probes: list[tuple[Signal, Signal]],
                      tol: float = 1e-8,
                      picard_tol: float | None = None) -> CausalityReport:
    """Probe whether R(u) up to time T depends on u after time T.

    For each probe pair and every horizon T the second input is spliced to
    agree with the first on [0, T]; any difference of the outputs on [0, T]
    is a causality violation.  Every probe and splice is solved in one batch.
    """
    inputs = []
    for u, w in probes:
        inputs.append(u)
        inputs += [truncate(u, T) + (w - truncate(w, T))
                   for T in range(u.grid.tau + 1)]
    outputs = iter(simulate_r(model, inputs, tol=picard_tol))
    worst, arg, arg_t = 0.0, -1, -1
    for idx, (u, _) in enumerate(probes):
        y_u = next(outputs)
        for T in range(u.grid.tau + 1):
            violation = norm(truncate(y_u - next(outputs), T))
            if violation > worst:
                worst, arg, arg_t = violation, idx, T
    return CausalityReport(float(worst), arg, arg_t, float(tol),
                           bool(worst <= tol))
