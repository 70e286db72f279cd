"""Quadratic supply rates, their scattering factorizations, and IQC checks.

A supply rate is a symmetric nonsingular matrix Phi on R^(m+p) with exactly m
positive and p negative eigenvalues.  Such a matrix factors as
Phi = M' Sigma M with Sigma = diag(I_m, -I_p), and the induced change of
coordinates (v, z) = M(u, y) turns incremental dissipativity with respect to
Phi into plain nonexpansiveness of the transformed operator.
"""

from __future__ import annotations

import reprlib
from typing import Callable, NamedTuple

import numpy as np

from .errors import ShapeError, SignatureError
from .signals import (Dataset, Frozen, Signal, _frozen_matrix, _json_matrix,
                      checked, manifest_values, pair_stack)

# Relative eigenvalue floor below which Phi counts as singular.
SINGULAR_TOL = 1e-10


class SupplyRate(Frozen):
    """Symmetric nonsingular supply matrix with inertia (m, p), and its
    scattering factors.

    One eigendecomposition Phi = V diag(e) V' serves both.  The eigenvalues
    give the inertia, and Phi counts as singular when some |e| is within
    SINGULAR_TOL of the largest (SignatureError).  Sorted descending, with
    each eigenvector's first nonzero entry made positive so that equal
    matrices give identical factors, they give M = diag(sqrt|e|) V', for
    which M' Sigma M = Phi, and its inverse N.  The blocks m11 .. n22 of M
    and N are partitioned after the first m rows and columns.  So are the
    Picard solve's N11^-1, coupling N11^-1 N12 and its 2-norm: None, None
    and inf when N11 is empty or singular (condition number over 1e12).
    """

    __slots__ = ("phi", "m", "p", "M", "N",
                 "m11", "m12", "m21", "m22", "n11", "n12", "n21", "n22",
                 "n11_inv", "coupling", "coupling_norm")

    def __init__(self, phi: np.ndarray, m: int, p: int):
        phi = _frozen_matrix(phi, "supply matrix", symmetric=True)
        if phi.shape[0] != m + p:
            raise ShapeError(f"supply matrix is {phi.shape[0]}x{phi.shape[0]}, need {m + p}")
        eig, vec = np.linalg.eigh(phi)
        size = np.abs(eig)
        tol = SINGULAR_TOL * size.max()
        n_pos = int((eig > tol).sum())
        n_neg = int((eig < -tol).sum())
        if size.min() <= tol:
            raise SignatureError(
                f"supply matrix is singular within tolerance {tol:.3e} "
                f"(min |eigenvalue| {size.min():.3e})"
            )
        if (n_pos, n_neg) != (m, p):
            raise SignatureError(
                f"supply matrix has {n_pos} positive / {n_neg} negative eigenvalues, "
                f"need {m} / {p}"
            )
        order = np.argsort(eig)[::-1]
        vec = vec[:, order]
        for k in range(vec.shape[1]):
            col = vec[:, k]
            lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            if lead < 0:
                vec[:, k] = -col
        M = np.diag(np.sqrt(size[order])) @ vec.T
        sigma = np.diag(np.concatenate([np.ones(m), -np.ones(p)]))
        if np.abs(M.T @ sigma @ M - phi).max() > 1e-10 * max(1.0, np.abs(phi).max()):
            raise SignatureError("factorization failed to reproduce the supply matrix")
        N = np.linalg.inv(M)
        scale = max(1.0, np.abs(M).max() * np.abs(N).max())
        if np.abs(M @ N - np.eye(m + p)).max() > 1e-10 * scale:
            raise SignatureError("factorization failed to invert the factor")
        n11_inv, coupling, coupling_norm = None, None, np.inf
        if m and np.linalg.cond(N[:m, :m]) <= 1e12:
            n11_inv = np.linalg.inv(N[:m, :m])
            coupling = n11_inv @ N[:m, m:]
            coupling_norm = float(np.linalg.svd(
                coupling, compute_uv=False).max(initial=0.0))
        for arr in (M, N, n11_inv, coupling):
            if arr is not None:
                arr.setflags(write=False)
        halves = (slice(m), slice(m, None))
        self._set(phi=phi, m=m, p=p, M=M, N=N, n11_inv=n11_inv,
                  coupling=coupling, coupling_norm=coupling_norm, **{
            f"{name}{i}{j}": F[rows, cols] for name, F in (("m", M), ("n", N))
            for i, rows in enumerate(halves, 1)
            for j, cols in enumerate(halves, 1)})


def _passivity_phi(m: int) -> np.ndarray:
    zero, eye = np.zeros((m, m)), np.eye(m)
    return np.block([[zero, eye], [eye, zero]])


def passivity_supply(m: int = 1) -> SupplyRate:
    """Supply [[0, I], [I, 0]] whose rate is twice the input-output product."""
    return SupplyRate(_passivity_phi(m), m, m)


def gain_supply(delta: float, m: int = 1, p: int | None = None) -> SupplyRate:
    """Supply diag(delta*I, -I) encoding an incremental gain bound sqrt(delta)."""
    delta = checked(delta, "positive", "gain parameter")
    if p is None:
        p = m
    phi = np.diag(np.concatenate([np.full(m, delta), -np.ones(p)]))
    return SupplyRate(phi, m, p)


def factor_phi(supply: SupplyRate) -> SupplyRate:
    """The factorization Phi = M' Sigma M: the supply rate itself, which
    holds M and N."""
    return supply


def scatter_dataset(data: Dataset, supply: SupplyRate) -> Dataset:
    """Map trajectories (u, y) to scattering coordinates (v, z) = M(u, y)."""
    if data.input_dim != supply.m or data.output_dim != supply.p:
        raise ShapeError(
            f"dataset dims ({data.input_dim}, {data.output_dim}) do not match "
            f"supply dims ({supply.m}, {supply.p})"
        )
    u, y = data.inputs, data.outputs
    return Dataset(u @ supply.m11.T + y @ supply.m12.T,
                   u @ supply.m21.T + y @ supply.m22.T, data.grid)


def iiqc_residual(supply: SupplyRate, u: Signal, v: Signal, y: Signal, z: Signal,
                  horizon: int | None = None) -> float:
    """Accumulated supply of the increments (u - v, y - z) up to a horizon."""
    du, dy = u - v, y - z
    if du.dim != supply.m or dy.dim != supply.p:
        raise ShapeError(
            f"increment dims ({du.dim}, {dy.dim}) do not match supply "
            f"({supply.m}, {supply.p})"
        )
    last = du.grid.tau if horizon is None else horizon
    if not 0 <= last <= du.grid.tau:
        raise ValueError(f"horizon index {last} outside 0..{du.grid.tau}")
    x = np.hstack([du.values[: last + 1], dy.values[: last + 1]])
    return float(np.einsum("tj,jk,tk->", x, supply.phi, x))


class IiqcReport(NamedTuple):
    min_residual: float
    worst_pair: int
    worst_horizon: int
    tolerance: float
    passed: bool
    residuals: tuple[float, ...]


def check_operator_iiqc(op: Callable[[np.ndarray], np.ndarray],
                        supply: SupplyRate, probes, mode: str = "full",
                        tol: float | None = None) -> IiqcReport:
    """Evaluate op on probe pairs and report the worst accumulated supply.

    probes is a (pairs, 2, steps, m) array, or (u, v) Signal pairs on one
    grid (see signals.pair_stack).  op maps a stack of inputs
    (B, steps, m) to the stack of their outputs (B, steps, p); it is
    called once, on both inputs of every pair in probe order, and must keep
    the stack's lanes and steps (ShapeError otherwise).  mode "full"
    checks the complete horizon only; "all-horizons" also checks
    every truncation, which is the actual incremental dissipativity property.
    Passing means min residual >= -tol; by default tol scales with the largest
    per-pair sum of absolute supply terms.
    """
    if mode not in ("full", "all-horizons"):
        raise ValueError(f"unknown check mode {mode!r}")
    probes = pair_stack(probes)
    if not len(probes):
        tol = 0.0 if tol is None else tol
        return IiqcReport(0.0, -1, -1, float(tol), bool(0.0 >= -tol), ())
    u = probes.reshape(-1, *probes.shape[2:])
    y = np.asarray(op(u), dtype=float)
    if y.ndim != 3 or y.shape[:2] != u.shape[:2]:
        raise ShapeError("probe pairs and their outputs must share one grid")
    # increments (du, dy) of every pair, stacked as (pairs, steps, m + p)
    x = np.concatenate([u[0::2] - u[1::2], y[0::2] - y[1::2]], axis=2)
    terms = np.einsum("ptj,jk,ptk->pt", x, supply.phi, x)
    if tol is None:
        tol = 1e-8 * float(np.abs(terms).sum(axis=1).max())
    partial = np.cumsum(terms, axis=1)
    # each pair's residual at the horizon, or at its worst truncation
    ends = (np.full(len(probes), u.shape[1] - 1) if mode == "full"
            else np.argmin(partial, axis=1))
    residuals = partial[np.arange(len(probes)), ends]
    worst = int(np.argmin(residuals))
    min_residual = float(residuals[worst])
    return IiqcReport(
        min_residual=min_residual,
        worst_pair=worst,
        worst_horizon=int(ends[worst]),
        tolerance=float(tol),
        passed=bool(min_residual >= -tol),
        residuals=tuple(residuals.tolist()),
    )


def supply_to_json(supply: SupplyRate) -> dict:
    """JSON-friendly description; built-in kinds keep their parameters."""
    phi = supply.phi
    m, p = supply.m, supply.p
    if m == p and np.array_equal(phi, _passivity_phi(m)):
        return {"kind": "passivity", "m": m, "p": p}
    diag = np.diag(phi)
    if (np.count_nonzero(phi - np.diag(diag)) == 0
            and np.all(diag[m:] == -1.0) and np.all(diag[:m] == diag[0]) and diag[0] > 0):
        return {"kind": "gain", "delta": float(diag[0]), "m": m, "p": p}
    return {"kind": "custom", "phi": phi.tolist(), "m": m, "p": p}


def supply_from_json(obj: dict,
                     dims: tuple[int, int] | None = None) -> SupplyRate:
    """Inverse of supply_to_json.  Integer m, p (default 1, m unless custom)
    must equal dims if given, checked before any matrix is built; a
    passivity record needs p = m."""
    kind = obj.get("kind", "custom")
    if kind not in ("passivity", "gain", "custom"):
        raise ValueError(f"unknown supply kind {reprlib.repr(kind)}")
    defaults = {} if kind == "custom" else {"m": 1, "p": obj.get("m", 1)}
    m, p = manifest_values({**defaults, **obj}, m="count", p="count")
    if dims is not None and (m, p) != tuple(dims):
        raise ValueError(f"supply is for (m, p) = ({m}, {p}), not {dims}")
    if kind == "passivity":
        if p != m:
            raise ValueError(f"passivity supply needs p = m, got m={m}, p={p}")
        return passivity_supply(m)
    if kind == "gain":
        return gain_supply(*manifest_values(obj, delta="positive"), m, p)
    return SupplyRate(_json_matrix(obj["phi"], "phi"), m, p)
