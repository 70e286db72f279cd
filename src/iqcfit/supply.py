"""Quadratic supply rates, their scattering factorizations, and IQC checks.

A supply rate is a symmetric nonsingular matrix Phi on R^(m+p) with exactly m
positive and p negative eigenvalues.  Such a matrix factors as
Phi = M' Sigma M with Sigma = diag(I_m, -I_p), and the induced change of
coordinates (v, z) = M(u, y) turns incremental dissipativity with respect to
Phi into plain nonexpansiveness of the transformed operator.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ShapeError, SignatureError
from .signals import (Dataset, Frozen, Signal, checked, manifest_values,
                      read_json)

# Relative eigenvalue floor below which Phi counts as singular.
SINGULAR_TOL = 1e-10


class SignatureReport(NamedTuple):
    n_positive: int
    n_negative: int
    min_abs_eigenvalue: float
    tolerance: float


def verify_signature(phi: np.ndarray, m: int, p: int) -> SignatureReport:
    """Check that phi is symmetric, nonsingular, with inertia (m, p).

    Returns the eigenvalue counts on success; raises SignatureError when the
    counts disagree or an eigenvalue sits inside the singularity tolerance.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ShapeError(f"supply matrix must be square, got shape {phi.shape}")
    if phi.shape[0] != m + p:
        raise ShapeError(f"supply matrix is {phi.shape[0]}x{phi.shape[0]}, need {m + p}")
    if not np.allclose(phi, phi.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(phi).max())):
        raise ShapeError("supply matrix must be symmetric")
    eig = np.linalg.eigvalsh(phi)
    tol = SINGULAR_TOL * np.abs(eig).max()
    n_pos = int((eig > tol).sum())
    n_neg = int((eig < -tol).sum())
    report = SignatureReport(n_pos, n_neg, float(np.abs(eig).min()), float(tol))
    if np.abs(eig).min() <= tol:
        raise SignatureError(
            f"supply matrix is singular within tolerance {tol:.3e} "
            f"(min |eigenvalue| {report.min_abs_eigenvalue:.3e})"
        )
    if (n_pos, n_neg) != (m, p):
        raise SignatureError(
            f"supply matrix has {n_pos} positive / {n_neg} negative eigenvalues, "
            f"need {m} / {p}"
        )
    return report


class SupplyRate(Frozen):
    """Symmetric nonsingular supply matrix with inertia (m, p)."""

    __slots__ = ("phi", "m", "p")

    def __init__(self, phi: np.ndarray, m: int, p: int):
        phi = np.asarray(phi, dtype=float).copy()
        verify_signature(phi, m, p)
        phi.setflags(write=False)
        self._set(phi=phi, m=m, p=p)


def passivity_supply(m: int = 1) -> SupplyRate:
    """Supply [[0, I], [I, 0]] whose rate is twice the input-output product."""
    zero, eye = np.zeros((m, m)), np.eye(m)
    phi = np.block([[zero, eye], [eye, zero]])
    return SupplyRate(phi, m, m)


def gain_supply(delta: float, m: int = 1, p: int | None = None) -> SupplyRate:
    """Supply diag(delta*I, -I) encoding an incremental gain bound sqrt(delta)."""
    delta = checked(delta, "positive", "gain parameter")
    if p is None:
        p = m
    phi = np.diag(np.concatenate([np.full(m, delta), -np.ones(p)]))
    return SupplyRate(phi, m, p)


class ScatteringFactors(Frozen):
    """Invertible M with M' Sigma M = Phi, plus its inverse N, in blocks."""

    __slots__ = ("M", "N", "m", "p")

    def __init__(self, M: np.ndarray, N: np.ndarray, m: int, p: int):
        M = np.asarray(M, dtype=float).copy()
        N = np.asarray(N, dtype=float).copy()
        d = m + p
        if M.shape != (d, d) or N.shape != (d, d):
            raise ShapeError(f"factor matrices must be {d}x{d}")
        scale = max(1.0, np.abs(M).max() * np.abs(N).max())
        if np.abs(M @ N - np.eye(d)).max() > 1e-10 * scale:
            raise ShapeError("N is not the inverse of M within tolerance")
        for arr in (M, N):
            arr.setflags(write=False)
        self._set(M=M, N=N, m=m, p=p)

    # Block accessors, partitioned after the first m rows/columns.
    @property
    def m11(self) -> np.ndarray:
        return self.M[: self.m, : self.m]

    @property
    def m12(self) -> np.ndarray:
        return self.M[: self.m, self.m:]

    @property
    def m21(self) -> np.ndarray:
        return self.M[self.m:, : self.m]

    @property
    def m22(self) -> np.ndarray:
        return self.M[self.m:, self.m:]

    @property
    def n11(self) -> np.ndarray:
        return self.N[: self.m, : self.m]

    @property
    def n12(self) -> np.ndarray:
        return self.N[: self.m, self.m:]

    @property
    def n21(self) -> np.ndarray:
        return self.N[self.m:, : self.m]

    @property
    def n22(self) -> np.ndarray:
        return self.N[self.m:, self.m:]


def factors_from_matrix(M: np.ndarray, m: int, p: int) -> ScatteringFactors:
    return ScatteringFactors(M, np.linalg.inv(np.asarray(M, dtype=float)), m, p)


def factor_phi(supply: SupplyRate) -> ScatteringFactors:
    """Deterministic factorization Phi = M' Sigma M via eigendecomposition.

    Eigenvalues are sorted descending and each eigenvector's first nonzero
    entry is made positive, so repeated calls return identical factors.
    """
    eig, vec = np.linalg.eigh(supply.phi)
    order = np.argsort(eig)[::-1]
    eig, vec = eig[order], vec[:, order]
    for k in range(vec.shape[1]):
        col = vec[:, k]
        lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
        if lead < 0:
            vec[:, k] = -col
    M = np.diag(np.sqrt(np.abs(eig))) @ vec.T
    sigma = np.diag(np.concatenate([np.ones(supply.m), -np.ones(supply.p)]))
    recon = M.T @ sigma @ M
    if np.abs(recon - supply.phi).max() > 1e-10 * max(1.0, np.abs(supply.phi).max()):
        raise SignatureError("factorization failed to reproduce the supply matrix")
    return factors_from_matrix(M, supply.m, supply.p)


def scatter_dataset(data: Dataset, factors: ScatteringFactors) -> Dataset:
    """Map trajectories (u, y) to scattering coordinates (v, z) = M(u, y)."""
    if data.input_dim != factors.m or data.output_dim != factors.p:
        raise ShapeError(
            f"dataset dims ({data.input_dim}, {data.output_dim}) do not match "
            f"factor dims ({factors.m}, {factors.p})"
        )
    f = factors
    return Dataset(
        tuple(Signal(u.grid, u.values @ f.m11.T + y.values @ f.m12.T)
              for u, y in zip(data.inputs, data.outputs)),
        tuple(Signal(u.grid, u.values @ f.m21.T + y.values @ f.m22.T)
              for u, y in zip(data.inputs, data.outputs)))


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


def check_operator_iiqc(op: Callable[[list[Signal]], list[Signal]],
                        supply: SupplyRate,
                        probes: list[tuple[Signal, Signal]], mode: str = "full",
                        tol: float | None = None) -> IiqcReport:
    """Evaluate op on probe pairs and report the worst accumulated supply.

    op maps a list of input signals to the list of their outputs; it is
    called once, on both inputs of every pair in probe order.  mode "full"
    checks the complete horizon only; "all-horizons" also checks
    every truncation, which is the actual incremental dissipativity property.
    Passing means min residual >= -tol; by default tol scales with the largest
    per-pair sum of absolute supply terms.
    """
    if mode not in ("full", "all-horizons"):
        raise ValueError(f"unknown check mode {mode!r}")
    mins, scale = [], 0.0
    worst = (np.inf, -1, -1)
    outputs = op([x for pair in probes for x in pair])
    for idx, (u, v) in enumerate(probes):
        y, z = outputs[2 * idx], outputs[2 * idx + 1]
        du, dy = u - v, y - z
        x = np.hstack([du.values, dy.values])
        terms = np.einsum("tj,jk,tk->t", x, supply.phi, x)
        scale = max(scale, float(np.abs(terms).sum()))
        partial = np.cumsum(terms)
        if mode == "full":
            res = float(partial[-1])
            horizon = du.grid.tau
        else:
            t_min = int(np.argmin(partial))
            res = float(partial[t_min])
            horizon = t_min
        mins.append(res)
        if res < worst[0]:
            worst = (res, idx, horizon)
    if tol is None:
        tol = 1e-8 * scale
    min_residual = worst[0] if mins else 0.0
    return IiqcReport(
        min_residual=float(min_residual),
        worst_pair=worst[1],
        worst_horizon=worst[2],
        tolerance=float(tol),
        passed=bool(min_residual >= -tol),
        residuals=tuple(mins),
    )


def supply_to_json(supply: SupplyRate) -> dict:
    """JSON-friendly description; built-in kinds keep their parameters."""
    phi = supply.phi
    m, p = supply.m, supply.p
    if m == p and np.array_equal(phi, passivity_supply(m).phi):
        return {"kind": "passivity", "m": m, "p": p}
    diag = np.diag(phi)
    if (np.count_nonzero(phi - np.diag(diag)) == 0
            and np.all(diag[m:] == -1.0) and np.all(diag[:m] == diag[0]) and diag[0] > 0):
        return {"kind": "gain", "delta": float(diag[0]), "m": m, "p": p}
    return {"kind": "custom", "phi": phi.tolist(), "m": m, "p": p}


def supply_from_json(obj: dict | str | Path,
                     dims: tuple[int, int] | None = None) -> SupplyRate:
    """Inverse of supply_to_json.  Integer m, p (default 1, m unless custom)
    must equal dims if given, checked before any matrix is built; a
    passivity record needs p = m."""
    if not isinstance(obj, dict):
        obj = read_json(obj)
    kind = obj.get("kind", "custom")
    if kind not in ("passivity", "gain", "custom"):
        raise ValueError(f"unknown supply kind {kind!r}")
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
    return SupplyRate(np.array(obj["phi"], dtype=float), m, p)
