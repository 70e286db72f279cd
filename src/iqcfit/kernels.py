"""Operator-valued kernels on signal spaces, with structural certificates.

A kernel maps a pair of input trajectories to a linear map on the output
space.  Certificates for nonexpansiveness, boundedness, and causality are
granted by structural rules only; the numeric sweeps in this module can find
violations but never promote "unknown" to "proven".
"""

from __future__ import annotations

import math
import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ShapeError
from .signals import Signal, _require_compatible, norm, truncate

PROVEN = "proven"
UNKNOWN = "unknown"

SCALAR_KINDS = (
    "bilinear",
    "polynomial",
    "gaussian",
    "laplacian",
    "scaled_laplacian",
    "inverse_power",
    "stable_spline",
)


@dataclass(frozen=True)
class ScalarKernelSpec:
    """One scalar kernel from the catalog, identified by kind plus parameters."""

    kind: str
    sigma: float | None = None
    c: float | None = None
    d: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar kernel kind {self.kind!r}")
        if self.kind in ("gaussian", "laplacian"):
            if self.sigma is None or self.sigma <= 0:
                raise ValueError(f"{self.kind} kernel needs sigma > 0")
        if self.kind == "polynomial":
            if self.c is None or self.c < 0:
                raise ValueError("polynomial kernel needs offset c >= 0")
            if self.d is None or self.d != int(self.d) or self.d < 1:
                raise ValueError("polynomial kernel needs integer degree d >= 1")
        if self.kind == "inverse_power":
            # c = 0 would make k(u, u) singular
            if self.c is None or self.c <= 0:
                raise ValueError("inverse power kernel needs offset c > 0")
            if self.d is None or self.d <= 0:
                raise ValueError("inverse power kernel needs exponent d > 0")
        if self.kind == "stable_spline":
            if self.beta is None or self.beta <= 0:
                raise ValueError("stable spline kernel needs beta > 0")


def bilinear() -> ScalarKernelSpec:
    return ScalarKernelSpec("bilinear")


def polynomial(c: float, d: int) -> ScalarKernelSpec:
    return ScalarKernelSpec("polynomial", c=float(c), d=float(d))


def gaussian(sigma: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("gaussian", sigma=float(sigma))


def laplacian(sigma: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("laplacian", sigma=float(sigma))


def scaled_laplacian() -> ScalarKernelSpec:
    return ScalarKernelSpec("scaled_laplacian")


def inverse_power(c: float, d: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("inverse_power", c=float(c), d=float(d))


def stable_spline(beta: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("stable_spline", beta=float(beta))


def eval_scalar(spec: ScalarKernelSpec, u: Signal, v: Signal) -> float:
    """Evaluate one catalog kernel at a pair of signals."""
    _require_compatible(u, v)
    return float(_scalar_batch(spec, v.values[None], u.values[None])[0, 0])


def _scalar_batch(spec: ScalarKernelSpec, centers: np.ndarray,
                  uvals: np.ndarray, pasts: bool = False) -> np.ndarray:
    """Evaluate one scalar kernel for stacked inputs against stacked centers.

    centers is (n, steps, dim) and uvals (B, steps, dim), one lane per input.
    Each catalog kernel is a formula of one statistic of the pair: the inner
    product, the squared distance, or (stable spline) the larger point.  The
    statistic is a sum of per-sample terms, so with pasts set its prefix sums
    give k(P_t c_j, P_t u_b) for every t at once, shape (B, n, steps);
    otherwise the result is k(c_j, u_b), shape (B, n).
    """
    kind = spec.kind
    out = "bjt" if pasts else "bj"
    if kind == "stable_spline":
        if centers.shape[1:] != (1, 1) or uvals.shape[1:] != (1, 1):
            raise ShapeError(
                "stable spline kernel acts on scalar single-sample signals")
        if centers.min() < 0 or uvals.min() < 0:
            raise ValueError("stable spline kernel needs nonnegative arguments")
        # one sample, so the pasts are the signals themselves
        stat = np.maximum(centers[None, :, :, 0], uvals[:, None, :, 0])
        stat = stat if pasts else stat[..., 0]
    elif kind in ("bilinear", "polynomial"):
        stat = np.einsum(f"jtc,btc->{out}", centers, uvals)
    else:
        diff = centers - uvals[:, None]
        stat = np.einsum(f"bjtc,bjtc->{out}", diff, diff)
    if pasts:
        stat = np.cumsum(stat, axis=-1)
    if kind == "bilinear":
        return stat
    if kind == "polynomial":
        return (spec.c + stat) ** spec.d
    if kind == "stable_spline":
        return np.exp(-spec.beta * stat)
    if kind == "gaussian":
        return np.exp(-stat / spec.sigma**2)
    if kind == "laplacian":
        return np.exp(-np.sqrt(stat) / spec.sigma)
    if kind == "scaled_laplacian":
        r = np.sqrt(stat)
        return (1.0 + r) * np.exp(-r)
    assert kind == "inverse_power"
    return (spec.c + stat) ** (-spec.d)


def _scalar_nonexpansive(spec: ScalarKernelSpec) -> bool:
    """Structural rules granting the increment bound for scalar kernels."""
    if spec.kind == "bilinear":
        return True
    if spec.kind == "gaussian":
        return spec.sigma >= math.sqrt(2.0)
    if spec.kind == "scaled_laplacian":
        return True
    if spec.kind == "inverse_power":
        return 2.0 * spec.d <= spec.c ** (spec.d + 1.0)
    return False


def _spectral_norm_sym(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a)).max()) if a.size else 0.0


def _frozen_matrix(r, name: str) -> np.ndarray:
    arr = np.asarray(r, dtype=float).copy()
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square 2-d matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class OperatorKernel(ABC):
    """Common interface: per-sample matrices, certificates, Gram blocks."""

    @property
    @abstractmethod
    def output_dim(self) -> int: ...

    @property
    @abstractmethod
    def is_causal(self) -> bool: ...

    @property
    def is_uniform(self) -> bool:
        """True when K(u, v) acts by a single matrix on every sample."""
        return False

    @abstractmethod
    def matrix_at(self, t: int, u: Signal, v: Signal) -> np.ndarray:
        """Matrix acting on output sample t of K(u, v)."""

    @abstractmethod
    def row_terms(self, centers: np.ndarray, uvals: np.ndarray,
                  pasts: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
        """K(u_b, c_j) for stacked inputs (B, steps, dim) against stacked
        centers (n, steps, dim), all b and j at once.

        Returns terms (w, M): the matrix of K(u_b, c_j) at sample t is the
        sum over terms of w[b, j] * M, or w[b, j, t] * M when w has shape
        (B, n, steps).  With pasts set, a uniform kernel is evaluated on the
        pasts P_t u_b and P_t c_j instead, giving w of shape (B, n, steps).
        """

    def matrix(self, u: Signal, v: Signal) -> np.ndarray:
        if not self.is_uniform:
            raise ShapeError("kernel acts differently per sample; use matrix_at")
        return self.matrix_at(0, u, v)

    def apply(self, u: Signal, v: Signal, y: Signal) -> Signal:
        """Evaluate K(u, v) on an output-space signal y."""
        if y.dim != self.output_dim:
            raise ShapeError(f"expected {self.output_dim} channels, got {y.dim}")
        if self.is_uniform:
            return Signal(y.grid, y.values @ self.matrix(u, v).T)
        out = np.empty_like(y.values)
        for t in range(y.grid.size):
            out[t] = self.matrix_at(t, u, v) @ y.values[t]
        return Signal(y.grid, out)

    def block_matrix(self, u: Signal, v: Signal) -> np.ndarray:
        """Dense matrix of K(u, v) on the flattened output space."""
        steps, p = u.grid.size, self.output_dim
        if self.is_uniform:
            return np.kron(np.eye(steps), self.matrix(u, v))
        out = np.zeros((steps, p, steps, p))
        for t in range(steps):
            out[t, :, t, :] = self.matrix_at(t, u, v)
        return out.reshape(steps * p, steps * p)

    def second_difference_norm(self, u: Signal, v: Signal) -> float:
        """Operator norm of K(u,u) - K(u,v) - K(v,u) + K(v,v)."""
        def diff(t):
            return (self.matrix_at(t, u, u) - self.matrix_at(t, u, v)
                    - self.matrix_at(t, v, u) + self.matrix_at(t, v, v))
        if self.is_uniform:
            return _spectral_norm_sym(diff(0))
        return max(_spectral_norm_sym(diff(t)) for t in range(u.grid.size))

    def diag_operator_norm(self, u: Signal) -> float:
        """Operator norm of K(u, u)."""
        if self.is_uniform:
            return _spectral_norm_sym(self.matrix_at(0, u, u))
        return max(_spectral_norm_sym(self.matrix_at(t, u, u))
                   for t in range(u.grid.size))


@dataclass(frozen=True, eq=False)
class SeparableKernel(OperatorKernel):
    """Scalar kernel times a fixed symmetric positive semidefinite matrix."""

    scalar: ScalarKernelSpec
    R: np.ndarray

    def __post_init__(self):
        R = _frozen_matrix(self.R, "R")
        if np.abs(R - R.T).max() > 1e-12 * max(1.0, np.abs(R).max()):
            raise ShapeError("separable kernel matrix must be symmetric")
        eig = np.linalg.eigvalsh(R)
        if eig.min() < -1e-12 * max(1.0, np.abs(eig).max()):
            raise ValueError(f"separable kernel matrix has eigenvalue {eig.min():.3e} < 0")
        object.__setattr__(self, "R", R)

    @property
    def output_dim(self) -> int:
        return self.R.shape[0]

    @property
    def is_causal(self) -> bool:
        return False

    @property
    def is_uniform(self) -> bool:
        return True

    def matrix_at(self, t: int, u: Signal, v: Signal) -> np.ndarray:
        return eval_scalar(self.scalar, u, v) * self.R

    def row_terms(self, centers, uvals, pasts=False):
        return [(_scalar_batch(self.scalar, centers, uvals, pasts), self.R)]

    def second_difference_norm(self, u: Signal, v: Signal) -> float:
        # |k(u,u) - 2k(u,v) + k(v,v)| times the norm of R, computed exactly.
        duu = eval_scalar(self.scalar, u, u)
        duv = eval_scalar(self.scalar, u, v)
        dvv = eval_scalar(self.scalar, v, v)
        return abs(duu - 2.0 * duv + dvv) * _spectral_norm_sym(self.R)


@dataclass(frozen=True, eq=False)
class SumKernel(OperatorKernel):
    """Nonnegative combination sum_i alpha_i K_i of kernels with equal output dim."""

    weights: tuple[float, ...]
    children: tuple[OperatorKernel, ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        children = tuple(self.children)
        if len(weights) != len(children) or not children:
            raise ShapeError("need one weight per child kernel")
        if any(w < 0 for w in weights):
            raise ValueError("sum kernel weights must be nonnegative")
        dims = {child.output_dim for child in children}
        if len(dims) != 1:
            raise ShapeError(f"children disagree on output dim: {sorted(dims)}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "children", children)

    @property
    def output_dim(self) -> int:
        return self.children[0].output_dim

    @property
    def is_causal(self) -> bool:
        return all(child.is_causal for child in self.children)

    @property
    def is_uniform(self) -> bool:
        return all(child.is_uniform for child in self.children)

    def matrix_at(self, t: int, u: Signal, v: Signal) -> np.ndarray:
        return sum(w * child.matrix_at(t, u, v)
                   for w, child in zip(self.weights, self.children))

    def row_terms(self, centers, uvals, pasts=False):
        # Terms with equal matrices share one weight array.
        terms = []
        for weight, child in zip(self.weights, self.children):
            for w, M in child.row_terms(centers, uvals, pasts):
                w = weight * w
                for idx, (W, seen) in enumerate(terms):
                    if np.array_equal(seen, M):
                        if W.ndim != w.ndim:  # (B, n) joins (B, n, steps)
                            W, w = np.atleast_3d(W, w)
                        terms[idx] = (W + w, M)
                        break
                else:
                    terms.append((w, M))
        return terms


def ConjugatedKernel(scalar: ScalarKernelSpec, R) -> SeparableKernel:
    """Scalar kernel conjugated by a fixed matrix: K(u, v) = R L(u, v) R'.

    This is the separable kernel with matrix R R', whose certificate is the
    same since ||R R'|| = sigma_max(R)^2.
    """
    R = _frozen_matrix(R, "R")
    return SeparableKernel(scalar, R @ R.T)


@dataclass(frozen=True, eq=False)
class CausalDiagonalKernel(OperatorKernel):
    """Samplewise kernel acting on truncated pasts: sample t of K(u, v) y is
    K_t(u restricted to [0, t], v restricted to [0, t]) applied to y(t)."""

    children: Union[OperatorKernel, tuple[OperatorKernel, ...]]

    def __post_init__(self):
        shared = isinstance(self.children, OperatorKernel)
        per_time = (self.children,) if shared else tuple(self.children)
        if not per_time:
            raise ShapeError("need at least one per-sample child kernel")
        dims = {child.output_dim for child in per_time}
        if len(dims) != 1:
            raise ShapeError(f"children disagree on output dim: {sorted(dims)}")
        for child in per_time:
            if not child.is_uniform:
                raise ShapeError("per-sample children must act by a single matrix")
        object.__setattr__(self, "children", per_time[0] if shared else per_time)

    def _child(self, t: int) -> OperatorKernel:
        if isinstance(self.children, OperatorKernel):
            return self.children
        if t >= len(self.children):
            raise ShapeError(
                f"kernel has {len(self.children)} per-sample children, "
                f"grid needs index {t}"
            )
        return self.children[t]

    @property
    def output_dim(self) -> int:
        return self._child(0).output_dim

    @property
    def is_causal(self) -> bool:
        return True

    def matrix_at(self, t: int, u: Signal, v: Signal) -> np.ndarray:
        return self._child(t).matrix(truncate(u, t), truncate(v, t))

    def row_terms(self, centers, uvals, pasts=False):
        # Pasts of pasts are the pasts, so the flag changes nothing here.
        if isinstance(self.children, OperatorKernel):
            return self.children.row_terms(centers, uvals, pasts=True)
        # Column t is child t on the pasts P_t, i.e. on samples 0..t; the
        # children's terms with equal matrices share one weight array.
        steps = uvals.shape[1]
        terms = []
        for t in range(steps):
            child = self._child(t)
            for w, M in child.row_terms(centers[:, :t + 1], uvals[:, :t + 1]):
                shared = next((W for W, seen in terms
                               if np.array_equal(seen, M)), None)
                if shared is None:
                    shared = np.zeros(w.shape + (steps,))
                    terms.append((shared, M))
                shared[..., t] += w
        return terms


AnyKernel = Union[ScalarKernelSpec, OperatorKernel]


def as_operator(kernel: AnyKernel) -> OperatorKernel:
    """Wrap a scalar spec as a single-channel separable kernel."""
    if isinstance(kernel, ScalarKernelSpec):
        return SeparableKernel(kernel, np.eye(1))
    return kernel


def eval_operator(kernel: AnyKernel, u: Signal, v: Signal, y: Signal) -> Signal:
    return as_operator(kernel).apply(u, v, y)


def certify_nonexpansive(kernel: AnyKernel) -> str:
    """Structural nonexpansiveness certificate: "proven" or "unknown"."""
    k = as_operator(kernel)
    if isinstance(k, SeparableKernel):
        if _scalar_nonexpansive(k.scalar) and _spectral_norm_sym(k.R) <= 1.0:
            return PROVEN
        return UNKNOWN
    if isinstance(k, SumKernel):
        if (sum(k.weights) <= 1.0
                and all(certify_nonexpansive(c) == PROVEN for c in k.children)):
            return PROVEN
        return UNKNOWN
    # Samplewise-on-pasts composition: no structural rule shipped, so the
    # certificate stays unknown even when every child is proven.
    return UNKNOWN


def certify_bounded(kernel: AnyKernel) -> str:
    """Certificate that ||K(u, u)||^(1/2) <= ||u|| for all u."""
    k = as_operator(kernel)
    if (isinstance(k, SeparableKernel) and k.scalar.kind == "bilinear"
            and _spectral_norm_sym(k.R) <= 1.0):
        return PROVEN
    return UNKNOWN


def nonexpansive_defect(kernel: AnyKernel, u: Signal, v: Signal) -> float:
    """Positive values witness a violation of the kernel increment bound."""
    k = as_operator(kernel)
    return k.second_difference_norm(u, v) - norm(u - v) ** 2


@dataclass(frozen=True)
class BoundedReport:
    max_defect: float
    worst_probe: int
    passed: bool


def check_bounded(kernel: AnyKernel, probes: list[Signal],
                  tol: float = 1e-10) -> BoundedReport:
    """Numeric sweep of ||K(u, u)||^(1/2) - ||u|| over probe signals."""
    k = as_operator(kernel)
    worst, arg = -np.inf, -1
    for idx, u in enumerate(probes):
        defect = math.sqrt(max(k.diag_operator_norm(u), 0.0)) - norm(u)
        if defect > worst:
            worst, arg = defect, idx
    return BoundedReport(float(worst), arg, bool(worst <= tol))


def is_causal(kernel: AnyKernel) -> bool:
    return as_operator(kernel).is_causal


def causal_check(kernel: AnyKernel, u: Signal, v: Signal, y: Signal, T: int) -> float:
    """Size of P_T K(u, v) y - P_T K(P_T u, v) y; zero for causal kernels."""
    k = as_operator(kernel)
    full = truncate(k.apply(u, v, y), T)
    cut = truncate(k.apply(truncate(u, T), v, y), T)
    return norm(full - cut)


def _scalar_to_json(spec: ScalarKernelSpec) -> dict:
    out = {"kind": spec.kind}
    for field in ("sigma", "c", "d", "beta"):
        value = getattr(spec, field)
        if value is not None:
            out[field] = value
    return out


def _scalar_from_json(obj: dict) -> ScalarKernelSpec:
    return ScalarKernelSpec(
        obj["kind"],
        sigma=obj.get("sigma"),
        c=obj.get("c"),
        d=obj.get("d"),
        beta=obj.get("beta"),
    )


def _matrix_to_json(R: np.ndarray):
    if np.array_equal(R, np.eye(R.shape[0])):
        return "identity"
    return R.tolist()


def _matrix_from_json(obj, p: int | None) -> np.ndarray:
    if isinstance(obj, str):
        if obj != "identity":
            raise ValueError(f"unknown matrix shorthand {obj!r}")
        if p is None:
            raise ValueError("matrix shorthand 'identity' needs an explicit dim p")
        return np.eye(p)
    return np.array(obj, dtype=float)


def kernel_to_json(kernel: AnyKernel) -> dict:
    k = as_operator(kernel)
    if isinstance(k, SeparableKernel):
        return {"structure": "separable", "scalar": _scalar_to_json(k.scalar),
                "R": _matrix_to_json(k.R), "p": k.output_dim}
    if isinstance(k, SumKernel):
        return {"structure": "sum", "weights": list(k.weights),
                "children": [kernel_to_json(c) for c in k.children]}
    assert isinstance(k, CausalDiagonalKernel)
    if isinstance(k.children, OperatorKernel):
        return {"structure": "causal_diagonal", "child": kernel_to_json(k.children)}
    return {"structure": "causal_diagonal",
            "children": [kernel_to_json(c) for c in k.children]}


def kernel_from_json(obj: dict) -> OperatorKernel:
    """Rebuild a kernel from its JSON form; certificates are re-derived.

    A missing field or a value of the wrong type raises ValueError naming
    the kernel object that holds it.
    """
    try:
        structure = obj.get("structure", "separable")
        if structure in ("separable", "conjugated"):
            R = _matrix_from_json(obj.get("R", "identity"), obj.get("p", 1))
            build = SeparableKernel if structure == "separable" else ConjugatedKernel
            return build(_scalar_from_json(obj["scalar"]), R)
        if structure == "sum":
            return SumKernel(tuple(obj["weights"]),
                             tuple(kernel_from_json(c) for c in obj["children"]))
        if structure == "causal_diagonal":
            if "child" in obj:
                return CausalDiagonalKernel(kernel_from_json(obj["child"]))
            return CausalDiagonalKernel(tuple(kernel_from_json(c)
                                              for c in obj["children"]))
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed kernel {reprlib.repr(obj)}: "
                         f"{type(exc).__name__} {exc}") from None
    raise ValueError(f"unknown kernel structure {structure!r}")
