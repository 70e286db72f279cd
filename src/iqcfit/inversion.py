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

from .errors import (ContractionError, ConvergenceError, DivergenceError,
                     ShapeError)
from .kernels import PROVEN, certify_nonexpansive
from .rkhs import FittedOperator
from .signals import Signal, TimeGrid, checked, norms, pair_stack, stacked
from .supply import SupplyRate

DEFAULT_MAX_ITER = 10_000
# Rounding keeps Picard steps from shrinking below about machine epsilon
# times the size of the terms of base - S(v) N, more where terms inside S
# cancel (fitted expansions reach ~5e-13).  There a step stops contracting
# by eps, which exact arithmetic rules out.  Under the default tol such a
# step, if below this fraction of those terms, also ends the iteration, as
# it must on a zero input, where the default tol is 0.
STEP_FLOOR = 1e-11


class ScatteredModel(NamedTuple):
    """Contraction S plus the supply rate whose factors scatter it, ready
    for fixed-point runs.

    s maps stacked inputs (B, steps, m) to stacked outputs (B, steps, p),
    one lane per signal; grid is the grid S acts on, when known.
    """

    s: Callable[[np.ndarray], np.ndarray]
    supply: SupplyRate
    lipschitz: float
    epsilon: float
    fitted: FittedOperator | None = None
    grid: TimeGrid | None = None


def _epsilon(lipschitz: float, supply: SupplyRate) -> float:
    """The contraction factor lipschitz * ||N11^-1 N12||, refused unless
    below 1."""
    n11 = supply.n11
    if np.linalg.cond(n11) > 1e12:
        raise ContractionError("leading inverse-factor block is singular")
    coupling = np.linalg.svd(np.linalg.solve(n11, supply.n12),
                             compute_uv=False)
    eps = float(lipschitz * (coupling.max() if coupling.size else 0.0))
    if not eps < 1.0:  # NaN fails too
        raise ContractionError(f"contraction factor eps = {eps:.6f} >= 1")
    return eps


def contraction_margin(model: FittedOperator,
                       supply: SupplyRate) -> ScatteredModel:
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
    if model.input_dim != supply.m or model.output_dim != supply.p:
        raise ShapeError("fitted dims do not match the supply rate")
    return ScatteredModel(model.evaluator, supply, ell,
                          _epsilon(ell, supply), model, model.grid)


def scattered_from_operator(s: Callable[[Signal], Signal], lipschitz: float,
                            supply: SupplyRate, grid) -> ScatteredModel:
    """Wrap an arbitrary operator with a caller-supplied increment bound.

    For operators outside the fitted family (closed-form contractions, fits
    whose kernel certificate is unknown but whose bound is known by other
    means).  The caller vouches for the Lipschitz constant.
    """
    lipschitz = checked(lipschitz, "nonnegative", "lipschitz bound")
    eps = _epsilon(lipschitz, supply)

    def s_values(vals: np.ndarray) -> np.ndarray:
        return np.stack([s(Signal(grid, lane)).values for lane in vals])

    return ScatteredModel(s_values, supply, lipschitz, eps, None, grid)


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
    """One batched solve as stacks, lane i holding what input i gives alone:
    fixed points v_star (B, steps, m), outputs y_star (B, steps, p), one
    entry per lane in lane_iterations, residuals and error_bounds, and when
    recorded one (k + 1, steps, m) stack of iterates per lane."""

    grid: TimeGrid | None
    v_star: np.ndarray
    y_star: np.ndarray
    lane_iterations: np.ndarray
    residuals: np.ndarray
    error_bounds: np.ndarray
    epsilon: float
    iterates: tuple[np.ndarray, ...] | None = None

    @property
    def iterations(self) -> int:
        """Picard steps summed over the lanes."""
        return int(self.lane_iterations.sum())

    @property
    def lanes(self) -> tuple[PicardResult, ...]:
        """One PicardResult of Signals on grid per lane, in order."""
        g = self.grid
        return tuple(PicardResult(
            Signal(g, v), Signal(g, y), k, r, self.epsilon, True, e,
            None if self.iterates is None else
            tuple(Signal(g, x) for x in self.iterates[i]))
            for i, (v, y, k, r, e) in enumerate(zip(
                self.v_star, self.y_star, self.lane_iterations.tolist(),
                self.residuals.tolist(), self.error_bounds.tolist())))


def _lane_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every lane: the same dot of the flattened lane."""
    flat = x.reshape(len(x), 1, int(np.prod(x.shape[1:])))
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def picard_solve(model: ScatteredModel,
                 u_star: Signal | Sequence[Signal] | np.ndarray,
                 tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 record: bool = False) -> PicardResult | PicardBatch:
    """Iterate v <- N11^-1 u* - N11^-1 N12 S(v) to its unique fixed point.

    Stops when the step size guarantees ||v - v*|| <= tol via the
    contraction a-posteriori bound; tol defaults to 1e-8 times ||u*||, and
    then a step that stalls at the rounding floor (STEP_FLOOR) also stops
    it.  Either way the result's error_bound, eps / (1 - eps) times the
    last step, bounds ||v - v*||.  A step that leaves the float range (an
    input too large for S) raises DivergenceError, a NumericalError that
    names the input.

    Given a list of signals on one grid, or a (B, steps, m) stack of
    inputs on the model's grid, iterates them together as lanes of one
    stack, each lane under its own stopping rule and frozen once it stops,
    and returns a PicardBatch holding what each lane would have given alone.
    """
    grid = model.grid
    if isinstance(u_star, Signal):
        return _solve(model, u_star.grid, u_star.values[None], tol, max_iter,
                      record).lanes[0]
    if not isinstance(u_star, np.ndarray):  # Signals on one grid
        grid = u_star[0].grid if len(u_star) else grid
        u_star = (stacked(u_star) if len(u_star)
                  else np.zeros((0, 0, model.supply.m)))
    elif grid is not None and u_star.shape[1:2] != (grid.size,):
        raise ShapeError(f"inputs of shape {u_star.shape} are off the grid")
    return _solve(model, grid, u_star, tol, max_iter, record)


# An iterate beyond float range makes a step non-finite, which ends the
# iteration with a DivergenceError naming its input; numpy need not warn too.
@np.errstate(over="ignore", invalid="ignore")
def _solve(model: ScatteredModel, grid: TimeGrid | None, u_vals: np.ndarray,
           tol: float | None, max_iter: int, record: bool) -> PicardBatch:
    supply = model.supply
    lanes = len(u_vals)
    if u_vals.shape[2] != supply.m:
        raise ShapeError(f"expected {supply.m} input channels, "
                         f"got {u_vals.shape[2]}")
    floor = STEP_FLOOR if tol is None else 0.0
    if tol is None:
        tols = 1e-8 * norms(u_vals)
    else:
        tols = np.full(lanes, tol, dtype=float)
    eps = model.epsilon
    # Successive-step threshold that certifies the error bound tol.
    threshold = tols * (1.0 - eps) / eps if eps > 0 else np.full(lanes, np.inf)
    n11_inv = np.linalg.inv(supply.n11)
    coupling = n11_inv @ supply.n12
    base = u_vals @ n11_inv.T
    v = base.copy()
    history = [[lane] for lane in base] if record else None
    iterations = np.zeros(lanes, dtype=int)
    step = np.full(lanes, np.inf)
    active = np.arange(lanes)
    for it in range(1, max_iter + 1):
        if not len(active):
            break
        v_act = v[active]
        feedback = model.s(v_act) @ coupling.T
        v_next = base[active] - feedback
        prev, now = step[active], _lane_norms(v_next - v_act)
        if not np.isfinite(now).all():
            raise DivergenceError(
                int(active[np.flatnonzero(~np.isfinite(now))[0]]), it)
        v[active], step[active], iterations[active] = v_next, now, it
        if record:
            for i, lane in zip(active, v_next):
                history[i].append(lane)
        done = now <= threshold[active]
        if floor:
            slow = np.flatnonzero(~done)
            slow = slow[now[slow] > eps * prev[slow]]
            if len(slow):
                done[slow] = now[slow] <= floor * (
                    _lane_norms(base[active[slow]])
                    + _lane_norms(feedback[slow]))
        active = active[~done]
    # no lane, no evaluation of S
    s_star = model.s(v) if lanes else np.zeros(v.shape[:2] + (supply.p,))
    residuals = _lane_norms(v @ supply.n11.T + s_star @ supply.n12.T - u_vals)
    if len(active):
        raise ConvergenceError(
            f"fixed-point iteration hit {max_iter} steps "
            f"(eps={eps:.4f}, last residual {residuals[active[0]]:.3e})"
        )
    return PicardBatch(
        grid, v, v @ supply.n21.T + s_star @ supply.n22.T, iterations,
        residuals, eps / (1.0 - eps) * step, eps,
        tuple(np.stack(lane) for lane in history) if record else None)


def simulate_r(model: ScatteredModel,
               u_star: Signal | Sequence[Signal] | np.ndarray,
               tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER
               ) -> Signal | list[Signal] | np.ndarray:
    """Evaluate the modeled input-output operator R at u*, or at every input
    of a list or stack of them with one batched solve (see picard_solve),
    giving a list or stack of outputs."""
    result = picard_solve(model, u_star, tol=tol, max_iter=max_iter)
    if isinstance(result, PicardResult) or isinstance(u_star, np.ndarray):
        return result.y_star
    return [lane.y_star for lane in result.lanes]


@dataclass(frozen=True)
class CausalityReport:
    max_violation: float
    worst_pair: int
    worst_horizon: int
    tolerance: float
    passed: bool


def causality_check_r(model: ScatteredModel, probes, tol: float = 1e-8,
                      picard_tol: float | None = None) -> CausalityReport:
    """Probe whether R(u) up to time T depends on u after time T.

    probes is a (pairs, 2, steps, m) array, or (u, w) Signal pairs on one
    grid (see signals.pair_stack).  For each pair and every horizon T the
    second input is spliced to agree with the first on [0, T]; any
    difference of the outputs on [0, T] is a causality violation.  Every
    splice is solved in one batch; the one at T = tau is the first input.
    """
    probes = pair_stack(probes)
    pairs, _, steps, m = probes.shape
    if not pairs:
        return CausalityReport(0.0, -1, -1, float(tol), bool(0.0 <= tol))
    # lane T of a pair runs its second input with samples 0..T taken from
    # the first, u; so its last lane runs u itself
    inputs = np.repeat(probes[:, 1:], steps, axis=1)
    for T in range(steps):
        inputs[:, T, :T + 1] = probes[:, 0, :T + 1]
    outputs = simulate_r(model, inputs.reshape(-1, steps, m), tol=picard_tol)
    outputs = outputs.reshape(pairs, steps, steps, -1)
    gaps = outputs[:, -1:] - outputs
    for T in range(steps):  # the violation at horizon T is on [0, T]
        gaps[:, T, T + 1:] = 0.0
    violations = norms(gaps.reshape(pairs * steps, steps, -1))
    worst = float(violations.max())
    at = (divmod(int(np.flatnonzero(violations == worst)[0]), steps)
          if worst > 0.0 else (-1, -1))
    return CausalityReport(worst, *at, float(tol), bool(worst <= tol))
