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
from typing import Union

import numpy as np

from .errors import KernelSpecError, ShapeError
from .signals import (Frozen, Signal, Value, _require_compatible,
                      manifest_values, norm)

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

# Batched kernel evaluations take lanes in chunks small enough that no
# temporary of the batched kernel core (lanes x centers x steps x channels)
# exceeds this many float64 values.
LANE_BUDGET = 2**15


class ScalarKernelSpec(Value):
    """One scalar kernel from the catalog, identified by kind plus parameters."""

    __slots__ = ("kind", "sigma", "c", "d", "beta")

    def __init__(self, kind: str, sigma: float | None = None,
                 c: float | None = None, d: float | None = None,
                 beta: float | None = None):
        if kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar kernel kind {kind!r}")
        if kind in ("gaussian", "laplacian"):
            if sigma is None or sigma <= 0:
                raise ValueError(f"{kind} kernel needs sigma > 0")
        if kind == "polynomial":
            if c is None or c < 0:
                raise ValueError("polynomial kernel needs offset c >= 0")
            if d is None or d != int(d) or d < 1:
                raise ValueError("polynomial kernel needs integer degree d >= 1")
        if kind == "inverse_power":
            # c = 0 would make k(u, u) singular
            if c is None or c <= 0:
                raise ValueError("inverse power kernel needs offset c > 0")
            if d is None or d <= 0:
                raise ValueError("inverse power kernel needs exponent d > 0")
        if kind == "stable_spline":
            if beta is None or beta <= 0:
                raise ValueError("stable spline kernel needs beta > 0")
        self._set(kind=kind, sigma=sigma, c=c, d=d, beta=beta)


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


class OperatorKernel(Frozen, ABC):
    """Common interface: batched evaluation through row_terms, structure
    flags.  Kernels are immutable."""

    __slots__ = ()

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
    def row_terms(self, centers: np.ndarray, uvals: np.ndarray,
                  pasts: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
        """K(u_b, c_j) for stacked inputs (B, steps, dim) against stacked
        centers (n, steps, dim), all b and j at once.

        Returns terms (w, M): the matrix of K(u_b, c_j) at sample t is the
        sum over terms of w[b, j] * M, or w[b, j, t] * M when w has shape
        (B, n, steps).  With pasts set, a uniform kernel is evaluated on the
        pasts P_t u_b and P_t c_j instead, giving w of shape (B, n, steps).
        """

    def block_matrix(self, u: Signal, v: Signal) -> np.ndarray:
        """Dense matrix of K(u, v) on the flattened output space."""
        # Kept only for the benchmark's trace wrapper (perfbench/traced.py).
        _require_compatible(u, v)
        steps, p = u.grid.size, self.output_dim
        blocks = sum(w.reshape(-1, 1, 1) * M
                     for w, M in self.row_terms(v.values[None], u.values[None]))
        out = np.zeros((steps, p, steps, p))
        out[range(steps), :, range(steps)] = np.broadcast_to(blocks, (steps, p, p))
        return out.reshape(steps * p, steps * p)


class SeparableKernel(OperatorKernel):
    """Scalar kernel times a fixed symmetric positive semidefinite matrix."""

    __slots__ = ("scalar", "R")

    def __init__(self, scalar: ScalarKernelSpec, R: np.ndarray):
        R = _frozen_matrix(R, "R")
        if np.abs(R - R.T).max() > 1e-12 * max(1.0, np.abs(R).max()):
            raise ShapeError("separable kernel matrix must be symmetric")
        eig = np.linalg.eigvalsh(R)
        if eig.min() < -1e-12 * max(1.0, np.abs(eig).max()):
            raise ValueError(f"separable kernel matrix has eigenvalue {eig.min():.3e} < 0")
        self._set(scalar=scalar, R=R)

    @property
    def output_dim(self) -> int:
        return self.R.shape[0]

    @property
    def is_causal(self) -> bool:
        return False

    @property
    def is_uniform(self) -> bool:
        return True

    def row_terms(self, centers, uvals, pasts=False):
        return [(_scalar_batch(self.scalar, centers, uvals, pasts), self.R)]


class SumKernel(OperatorKernel):
    """Nonnegative combination sum_i alpha_i K_i of kernels with equal output dim."""

    __slots__ = ("weights", "children")

    def __init__(self, weights: tuple[float, ...],
                 children: tuple[OperatorKernel, ...]):
        weights = tuple(float(w) for w in weights)
        children = tuple(children)
        if len(weights) != len(children) or not children:
            raise ShapeError("need one weight per child kernel")
        if any(w < 0 for w in weights):
            raise ValueError("sum kernel weights must be nonnegative")
        dims = {child.output_dim for child in children}
        if len(dims) != 1:
            raise ShapeError(f"children disagree on output dim: {sorted(dims)}")
        self._set(weights=weights, children=children)

    @property
    def output_dim(self) -> int:
        return self.children[0].output_dim

    @property
    def is_causal(self) -> bool:
        return all(child.is_causal for child in self.children)

    @property
    def is_uniform(self) -> bool:
        return all(child.is_uniform for child in self.children)

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


class CausalDiagonalKernel(OperatorKernel):
    """Samplewise kernel acting on truncated pasts: sample t of K(u, v) y is
    K_t(u restricted to [0, t], v restricted to [0, t]) applied to y(t)."""

    __slots__ = ("children",)

    def __init__(self, children: OperatorKernel | tuple[OperatorKernel, ...]):
        shared = isinstance(children, OperatorKernel)
        per_time = (children,) if shared else tuple(children)
        if not per_time:
            raise ShapeError("need at least one per-sample child kernel")
        dims = {child.output_dim for child in per_time}
        if len(dims) != 1:
            raise ShapeError(f"children disagree on output dim: {sorted(dims)}")
        for child in per_time:
            if not child.is_uniform:
                raise ShapeError("per-sample children must act by a single matrix")
        self._set(children=per_time[0] if shared else per_time)

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
    return float(nonexpansive_defects(kernel, [(u, v)])[0])


def nonexpansive_defects(kernel: AnyKernel,
                         pairs: list[tuple[Signal, Signal]]) -> np.ndarray:
    """nonexpansive_defect of every pair, in one batched sweep.

    The second difference K(u,u) - K(u,v) - K(v,u) + K(v,v) of a pair acts
    samplewise.  A chunk of c pairs is stacked as the lanes u_0..u_c-1,
    v_0..v_c-1 and evaluated against itself through row_terms; the
    diagonals of the four c x c quadrants of each term's weights give every
    pair's second difference at every sample, and one eigvalsh of the
    stacked p x p blocks its norm.  All signals must share one grid and one
    channel count.
    """
    k = as_operator(kernel)
    signals = [x for pair in pairs for x in pair]
    for x in signals:
        _require_compatible(x, signals[0])
    steps, dim = signals[0].grid.size, signals[0].dim
    X = np.stack([x.values for x in signals]).reshape(-1, 2, steps, dim)
    # 2c lanes against 2c centers stay within the lane budget
    width = LANE_BUDGET // (steps * max(dim, k.output_dim))
    chunk = max(1, math.isqrt(width) // 2)
    norms = []
    for lo in range(0, len(X), chunk):
        lanes = X[lo:lo + chunk].swapaxes(0, 1).reshape(-1, steps, dim)
        c = len(lanes) // 2
        iu, iv = np.arange(c), np.arange(c, 2 * c)
        second = sum(
            (w[iu, iu] - w[iu, iv] - w[iv, iu] + w[iv, iv]).reshape(c, -1, 1, 1) * M
            for w, M in k.row_terms(lanes, lanes))
        norms.append(np.abs(np.linalg.eigvalsh(second)).max(axis=(1, 2)))
    gaps = [norm(u - v) ** 2 for u, v in pairs]
    return np.concatenate(norms) - gaps


def is_causal(kernel: AnyKernel) -> bool:
    return as_operator(kernel).is_causal


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
        return np.eye(1 if p is None else p)
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


def _malformed(obj, why) -> KernelSpecError:
    return KernelSpecError(f"malformed kernel {reprlib.repr(obj)}: {why}")


def _json_dim(obj: dict, p: int | None) -> int | None:
    """A separable kernel's "p", by default p: an integer >= 1, and equal to
    p when the caller knows the output dim; None when neither gives one."""
    if "p" not in obj:
        return p
    (dim,) = manifest_values(obj, p="integer")
    if dim < 1 or p not in (None, dim):
        raise ValueError(f"p must be {'at least 1' if p is None else p}, "
                         f"got {dim}")
    return dim


def kernel_from_json(obj: dict, p: int | None = None) -> OperatorKernel:
    """Rebuild a kernel from its JSON form; certificates are re-derived.

    p is the output dim the caller expects, if it knows one; every
    separable part's "p" is checked against it before its matrix is built,
    and an explicit R against that dim.  A missing field, a value of the
    wrong type or size, or one the kernel refuses raises ValueError naming
    the innermost kernel object that holds it.
    """
    try:
        structure = obj.get("structure", "separable")
        if structure in ("separable", "conjugated"):
            dim = _json_dim(obj, p)
            R = _matrix_from_json(obj.get("R", "identity"), dim)
            if dim is not None and R.shape != (dim, dim):
                raise _malformed(obj, f"R must be {dim} x {dim}, "
                                      f"got shape {R.shape}")
            build = SeparableKernel if structure == "separable" else ConjugatedKernel
            return build(_scalar_from_json(obj["scalar"]), R)
        if structure == "sum":
            weights = obj["weights"]
            if not isinstance(weights, list) or any(
                    type(w) not in (int, float) for w in weights):
                raise _malformed(obj, "weights must be a list of numbers, "
                                      f"got {reprlib.repr(weights)}")
            return SumKernel(tuple(weights), tuple(kernel_from_json(c, p)
                                                   for c in obj["children"]))
        if structure == "causal_diagonal":
            if "child" in obj:
                return CausalDiagonalKernel(kernel_from_json(obj["child"], p))
            return CausalDiagonalKernel(tuple(kernel_from_json(c, p)
                                              for c in obj["children"]))
        raise ValueError(f"unknown kernel structure {structure!r}")
    except KernelSpecError:  # a child's fault, named already
        raise
    except ValueError as exc:  # a value the kernel's constructor refuses
        raise _malformed(obj, exc) from None
    except (TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise _malformed(obj, f"{type(exc).__name__} {exc}") from None
