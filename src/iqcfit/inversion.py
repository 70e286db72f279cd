"""Recover input-output behavior from a contraction in scattering coordinates.

A fitted nonexpansive operator S lives in the transformed coordinates
(v, z) = M(u, y).  Evaluating the modeled operator R at an input u* means
solving the fixed-point equation v = N11^-1 u* - N11^-1 N12 S(v), which is a
contraction whenever eps = lipschitz(S) * ||N11^-1 N12|| < 1, and then
reading off y* = N21 v* + N22 S(v*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ContractionError, ConvergenceError, DivergenceError,
                     ShapeError)
from .kernels import PROVEN, certify_nonexpansive
from .rkhs import FittedOperator
from .signals import Signal, TimeGrid, checked, norms, pair_stack
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
    one lane per signal: a fitted operator is such a map itself.  grid is
    the grid S acts on, when known.
    """

    s: Callable[[np.ndarray], np.ndarray]
    supply: SupplyRate
    lipschitz: float
    epsilon: float
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
    return ScatteredModel(model, supply, ell, _epsilon(ell, supply),
                          model.grid)


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

    return ScatteredModel(s_values, supply, lipschitz, eps, grid)


class PicardResult(NamedTuple):
    v_star: Signal
    # y* = N21 v* + N22 S(v*), from the S(v*) the residual evaluated.
    y_star: Signal
    iterations: int
    residual: float
    epsilon: float
    error_bound: float
    iterates: tuple[Signal, ...] | None = None


class PicardBatch(NamedTuple):
    """One batched solve as stacks, lane i holding what input i gives alone:
    fixed points v_star (B, steps, m), outputs y_star (B, steps, p), one
    entry per lane in lane_iterations, residuals and error_bounds, and when
    recorded one (k + 1, steps, m) stack of iterates per lane."""

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


def _lane_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every lane: the same dot of the flattened lane."""
    flat = x.reshape(len(x), 1, int(np.prod(x.shape[1:])))
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def picard_solve(model: ScatteredModel, u_star: Signal | np.ndarray,
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

    Given a (B, steps, m) stack of inputs on the model's grid, iterates
    them together as lanes of one stack, each lane under its own stopping
    rule and frozen once it stops, and returns a PicardBatch holding what
    each lane would have given alone.  Given one Signal on the model's
    grid, solves it as a one-lane stack and returns a PicardResult of
    Signals.
    """
    if not isinstance(u_star, Signal):
        return _solve(model, u_star, tol, max_iter, record)
    grid = u_star.grid
    if model.grid is not None and grid != model.grid:
        raise ShapeError("input grid differs from the model's grid")
    lane = _solve(model, u_star.values[None], tol, max_iter, record)
    return PicardResult(
        Signal(grid, lane.v_star[0]), Signal(grid, lane.y_star[0]),
        lane.iterations, float(lane.residuals[0]), lane.epsilon,
        float(lane.error_bounds[0]), None if lane.iterates is None else
        tuple(Signal(grid, x) for x in lane.iterates[0]))


# An iterate beyond float range makes a step non-finite, which ends the
# iteration with a DivergenceError naming its input; numpy need not warn too.
@np.errstate(over="ignore", invalid="ignore")
def _solve(model: ScatteredModel, u_vals: np.ndarray, tol: float | None,
           max_iter: int, record: bool) -> PicardBatch:
    supply, grid = model.supply, model.grid
    lanes = len(u_vals)
    if grid is not None and u_vals.shape[1:2] != (grid.size,):
        raise ShapeError(f"inputs of shape {u_vals.shape} are off the grid")
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
        v, v @ supply.n21.T + s_star @ supply.n22.T, iterations,
        residuals, eps / (1.0 - eps) * step, eps,
        tuple(np.stack(lane) for lane in history) if record else None)


def simulate_r(model: ScatteredModel, u_star: Signal | np.ndarray,
               tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER
               ) -> Signal | np.ndarray:
    """Evaluate the modeled input-output operator R at u*, a Signal, or at
    every input of a stack of them with one batched solve (see
    picard_solve), giving the stack of outputs."""
    return picard_solve(model, u_star, tol=tol, max_iter=max_iter).y_star


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
