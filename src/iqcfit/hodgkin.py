"""Potassium-channel benchmark system and its experiment pipeline.

The plant maps a membrane voltage trajectory u (mV) to the potassium current
y = g_max * x^4 * (u - u_rev) (uA/cm^2), where the gating state x follows
dx/dt = alpha(u) (1 - x) - beta(u) x from x(0) = 0.  Time is in ms.  The
system is a classic example of an operator that is incrementally positive
(monotone) despite a strongly nonlinear response surface, which makes it a
natural target for the constrained identification pipeline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import NumericalError, ShapeError
from .signals import (Dataset, Signal, TimeGrid, check_memory, checked,
                      csv_text)

# Voltage levels (mV) for the default step-response experiment.
DEFAULT_LEVELS = (-6.0, -10.0, -19.0, -26.0, -32.0, -38.0, -51.0, -63.0,
                  -76.0, -88.0, -100.0, -109.0)

# Normalization constants that bring the step data to O(1) amplitude
# before scattering; inputs divide by the first, outputs by the second.
INPUT_SCALE = 978.7
OUTPUT_SCALE = 2.539e4
G_MAX = 36.0   # peak conductance, mS/cm^2
U_REV = 12.0   # reversal potential, mV

# Float64 arrays alive at the traced peak, as multiples that the memory
# checks count.  An integration peaks near 8.5 half grids (2 n + 1 values)
# for a waveform: its samples, both rates with rate_alpha's temporaries,
# then the step maps sliced from them; the witness's first current adds
# 0.5.  A constant level peaks near 3 grids of n + 1 values: the steps, the
# iterates and one temporary of the closed form or of the current.  A step
# dataset peaks near 3.3 working grids per level (the output stack, the
# inputs and outputs copied into the Dataset) plus 2 for one level's
# closed form.
WAVEFORM_HALF_GRIDS, LEVEL_GRIDS = 10, 4
STEP_GRIDS_PER_LEVEL, STEP_GRIDS = 4, 4


def rate_alpha(u):
    """Opening rate (1/ms).  The formula 0.01 (u+10) / (exp((u+10)/10) - 1)
    has a removable singularity at u = -10, filled by its series there."""
    u = np.asarray(u, dtype=float)
    w = (u + 10.0) / 10.0
    small = np.abs(u + 10.0) < 1e-4
    wsafe = np.where(small, 1.0, w)
    direct = 0.1 * wsafe / np.expm1(wsafe)
    series = 0.1 * (1.0 - w / 2.0 + w * w / 12.0)
    out = np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out


def rate_beta(u):
    """Closing rate (1/ms)."""
    u = np.asarray(u, dtype=float)
    out = 0.125 * np.exp(u / 80.0)
    return float(out) if out.ndim == 0 else out


def steady_state_gating(u: float) -> float:
    """Asymptotic gating value alpha / (alpha + beta) for constant input."""
    a, b = rate_alpha(u), rate_beta(u)
    return a / (a + b)


InputLike = Union[float, Callable[[np.ndarray], np.ndarray]]


def _multiple(span: float, dt_ode: float, name: str) -> int:
    """The number of integration steps in span, which must be a positive
    multiple of dt_ode and fewer than 2**63 of them, numpy's index range."""
    ratio = span / dt_ode
    if not ratio < 2.0**63:  # an infinite ratio too
        raise ValueError(f"{name} {span} is 2**63 or more steps of dt_ode "
                         f"{dt_ode}")
    n = round(ratio)
    if n < 1 or abs(n * dt_ode - span) > 1e-9:
        raise ValueError(f"{name} {span} is not a multiple of dt_ode {dt_ode}")
    return n


def _input_on_half_grid(u: Callable[[np.ndarray], np.ndarray], dt_ode: float,
                        horizon: float) -> tuple[np.ndarray, int]:
    """Sample a waveform at every half step of the integration grid."""
    n = _multiple(horizon, dt_ode, "horizon")
    check_memory(WAVEFORM_HALF_GRIDS * (2 * n + 1), f"horizon {horizon} in "
                 f"RK4 half steps of dt_ode {dt_ode}")
    t_half = np.arange(2 * n + 1) * (dt_ode / 2.0)
    half = np.asarray(u(t_half), dtype=float)
    if half.shape != t_half.shape:
        raise ShapeError(f"a callable input must map an array of times to "
                         f"one value each, got shape {half.shape}")
    return half, n


def _integrate_gating(u: InputLike, dt_ode: float,
                      horizon: float) -> tuple[np.ndarray, np.ndarray | float]:
    """Classical fourth-order fixed-step integration of the gating equation,
    giving the iterates x_0, ..., x_n and the input at the nodes: a
    waveform's samples, or a constant level itself.

    The equation is linear in x, so every stage k_i = c_i + d_i x is affine
    in the state at the start of the step and the whole step is a map
    x <- A_k x + B_k.  A constant level gives the same map every step, and
    RK4's iterates from x(0) = 0 are then x_k = x_inf (1 - A^k) in closed
    form.  A waveform (a callable of time) gives one map per step: all of
    them come from one vectorized pass over the half-step rates, a doubling
    prefix scan composes them, and since x(0) = 0 the composed offsets are
    x_1, ..., x_n.  Rounding error grows with log n rather than n.
    """
    dt_ode = checked(dt_ode, "positive", "dt_ode")
    if callable(u):
        half, n = _input_on_half_grid(u, dt_ode, horizon)
        return _finite(_scan_gating(half, n, dt_ode)), half[::2]
    n = _multiple(horizon, dt_ode, "horizon")
    check_memory(LEVEL_GRIDS * (n + 1), f"horizon {horizon} in RK4 steps of "
                                        f"dt_ode {dt_ode}")
    level = float(u)
    return _finite(_constant_gating(level, np.arange(n + 1), dt_ode)), level


def _finite(xs: np.ndarray, what: str = "gating integration") -> np.ndarray:
    if not np.isfinite(xs).all():
        raise NumericalError(f"{what} produced non-finite values")
    return xs


def _constant_gating(level: float, ks: np.ndarray, h: float) -> np.ndarray:
    """RK4 iterates x_k at a constant level, in closed form, for the steps
    ks: ks[0] = 0, where x_0 = 0, then any steps k >= 1.

    With z = (alpha + beta) h each step multiplies the distance to
    x_inf = alpha / (alpha + beta) by A = T4(-z), the degree-4 Taylor
    polynomial of exp(-z).  An even-degree Taylor polynomial of exp has no
    real root, so A > 0 and log1p(A - 1) is always defined; A - 1 is kept
    apart from 1 so that its rounding stays relative to the step increment.
    An unstable step (A > 1), or a level whose rates leave float range,
    gives a non-finite value, which the caller reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = rate_alpha(level)
        rate = alpha + rate_beta(level)
        z = rate * h
        a_minus_1 = z * (-1.0 + z * (0.5 + z * (-1.0 / 6.0 + z / 24.0)))
        xs = -(alpha / rate) * np.expm1(ks[1:] * np.log1p(a_minus_1))
    return np.concatenate(([0.0], xs))


def _scan_gating(half: np.ndarray, n: int, h: float) -> np.ndarray:
    """RK4 iterates x_0, ..., x_n for the input sampled at every half step,
    by a prefix scan of the per-step affine maps."""
    alpha = rate_alpha(half)
    rate = alpha + rate_beta(half)
    # (node, midpoint, node) rates of each step
    a0, am, a1 = alpha[:-1:2], alpha[1::2], alpha[2::2]
    r0, rm, r1 = rate[:-1:2], rate[1::2], rate[2::2]
    c1, d1 = a0, -r0
    c2, d2 = am - rm * (0.5 * h) * c1, -rm * (1.0 + 0.5 * h * d1)
    c3, d3 = am - rm * (0.5 * h) * c2, -rm * (1.0 + 0.5 * h * d2)
    c4, d4 = a1 - r1 * h * c3, -r1 * (1.0 + h * d3)
    # A is held as A - 1: its rounding then stays relative to the small
    # step increment, not to 1, and does not build up along a trajectory.
    a = (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    b = (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    # Hillis-Steele scan: after the pass with shift s, entry k holds the
    # composition of the (up to) 2s maps ending at step k.
    s = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < n:
            b[s:] += a[s:] * b[:-s] + b[:-s]
            a[s:] += a[s:] * a[:-s] + a[:-s]
            s *= 2
    return np.concatenate(([0.0], b))


def gating_trajectory(u: InputLike, dt_ode: float, horizon: float) -> Signal:
    """Gating state x on the integration grid."""
    xs, _ = _integrate_gating(u, dt_ode, horizon)
    return Signal(TimeGrid(len(xs) - 1, dt_ode), xs)


def simulate_channel(u: InputLike, dt_ode: float, horizon: float) -> Signal:
    """Channel current response on the integration grid over [0, horizon].

    The input is a constant level (integrated in closed form) or a callable
    of time, evaluated at the integrator's half steps and taken through the
    prefix scan.
    """
    y = _current(u, dt_ode, horizon)
    return Signal(TimeGrid(len(y) - 1, dt_ode), y)


def _current(u: InputLike, dt_ode: float, horizon: float) -> np.ndarray:
    """The channel current at the nodes of the integration grid."""
    xs, u_nodes = _integrate_gating(u, dt_ode, horizon)
    return G_MAX * xs**4 * (u_nodes - U_REV)


def step_dataset(levels=DEFAULT_LEVELS, horizon: float = 10.0,
                 sample_dt: float = 0.5, dt_ode: float = 1e-3) -> Dataset:
    """Constant-voltage step responses on the working grid.

    Each level is a constant input, so its RK4 iterates have a closed form,
    evaluated only at the steps on the working grid: the data are bit for
    bit those of simulate_channel subsampled.  The last step n is evaluated
    too, though the grid may end before it: |x_k| grows with k, so x_n is
    finite whenever the unsampled iterates are.
    """
    dt_ode = checked(dt_ode, "positive", "dt_ode")
    levels = tuple(map(float, levels))
    n = _multiple(horizon, dt_ode, "horizon")
    stride = _multiple(sample_dt, dt_ode, "sample_dt")
    check_memory((n // stride + 1)
                 * (STEP_GRIDS_PER_LEVEL * len(levels) + STEP_GRIDS),
                 f"horizon {horizon} sampled every sample_dt {sample_dt} at "
                 f"{len(levels)} levels")
    ks = np.arange(0, n + 1, stride)
    grid = TimeGrid(len(ks) - 1, sample_dt)
    outputs = np.empty((len(levels), grid.size, 1))
    for out, level in zip(outputs, levels):
        xs = _finite(_constant_gating(level, np.append(ks, n), dt_ode),
                     f"levels: gating integration at {level:g} mV")[:-1]
        out[:, 0] = G_MAX * xs**4 * (level - U_REV)
    inputs = np.broadcast_to(np.array(levels)[:, None, None], outputs.shape)
    return Dataset(inputs, outputs, grid)


def witness_inputs() -> tuple[Callable, Callable]:
    """The two voltage trajectories used to expose non-monotone behavior."""
    u1 = lambda t: 25.0 * np.sin(12.0 * np.pi * t / 50.0)
    u2 = lambda t: 25.0 * np.cos(14.0 * np.pi * t / 75.0)
    return u1, u2


class WitnessResult(NamedTuple):
    continuous: float   # trapezoidal integral approximation of <du, dy>
    sampled: float      # plain sum over the subsampled working grid


def monotonicity_witness(dt_ode: float = 1e-3, sample_dt: float = 0.5,
                         horizon: float = 10.0) -> WitnessResult:
    """Inner product <u1 - u2, y1 - y2> for the witness pair.

    A negative value shows the raw channel operator is not incrementally
    positive on this horizon, in both the integral and the sampled reading.
    """
    dt_ode = checked(dt_ode, "positive", "dt_ode")
    u1, u2 = witness_inputs()
    dy = _current(u1, dt_ode, horizon) - _current(u2, dt_ode, horizon)
    t = np.arange(len(dy)) * dt_ode
    du, dy = (u1(t) - u2(t))[:, None], dy[:, None]
    # trapezoid weights: dt at every sample, halved at both ends (tau >= 1)
    w = np.full(len(du), dt_ode, dtype=float)
    w[[0, -1]] *= 0.5
    continuous = np.einsum("t,tc,tc->", w, du, dy)
    stride = _multiple(sample_dt, dt_ode, "sample_dt")
    du_s, dy_s = du[::stride], dy[::stride]
    sampled = np.einsum("t,tc,tc->", np.ones(len(du_s)), du_s, dy_s)
    return WitnessResult(float(continuous), float(sampled))


def scale_dataset(data: Dataset, a: float = INPUT_SCALE,
                  b: float = OUTPUT_SCALE) -> Dataset:
    """Divide inputs by a and outputs by b."""
    a, b = checked(a, "positive", "scale a"), checked(b, "positive", "scale b")
    with np.errstate(over="ignore", invalid="ignore"):
        inputs, outputs = data.inputs * (1.0 / a), data.outputs * (1.0 / b)
    for name, scale, values in (("a", a, inputs), ("b", b, outputs)):
        if not np.isfinite(values).all():
            raise ValueError(f"scale {name} {scale} takes the data past "
                             f"float range")
    return Dataset(inputs, outputs, data.grid)


class OrderingReport(NamedTuple):
    ordered: bool
    max_violation: float


def check_step_ordering(data: Dataset, tol: float = 1e-9) -> OrderingReport:
    """Report whether step responses stay pointwise ordered with their levels."""
    y = data.outputs[np.argsort(data.inputs[:, 0, 0].tolist())]
    worst = float(np.max(y[:-1] - y[1:], initial=0.0))
    return OrderingReport(bool(worst <= tol), worst)


def write_figure1(data: Dataset, path: str | Path):
    """Long-format CSV (t, level, y) of the step-response sweep."""
    table = np.column_stack([np.tile(data.grid.times(), data.n),
                             np.repeat(data.inputs[:, 0, 0], data.grid.size),
                             data.outputs[:, :, 0].ravel()])
    with Path(path).open("w", newline="") as fh:
        fh.write(csv_text(["t", "level", "y"], table, "\r\n"))


def time_constant(u: float) -> float:
    """Relaxation time 1 / (alpha + beta) for constant input (ms)."""
    return 1.0 / (rate_alpha(u) + rate_beta(u))
