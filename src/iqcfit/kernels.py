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
from .signals import (Frozen, Signal, Value, _frozen_matrix, _json_matrix,
                      _require_compatible, checked, norms, pair_stack)

PROVEN = "proven"
UNKNOWN = "unknown"

# Each scalar kind's parameters, with the kind of number each must be (see
# signals.checked); a polynomial's degree d must also be integral.
SCALAR_KINDS = {
    "bilinear": {},
    "polynomial": {"c": "nonnegative", "d": "positive"},
    "gaussian": {"sigma": "positive"},
    "laplacian": {"sigma": "positive"},
    "scaled_laplacian": {},
    # c = 0 would make k(u, u) singular
    "inverse_power": {"c": "positive", "d": "positive"},
    "stable_spline": {"beta": "positive"},
}

# The radial kinds, each psi(||u - v||^2) with psi completely monotone, and
# each one's slope -psi'(0) as a ratio (top, bottom) of its parameters.
RADIAL_SLOPES = {
    "gaussian": lambda spec: (1.0, spec.sigma**2),
    "laplacian": lambda spec: (1.0, 0.0),  # psi'(s) -> -inf as s -> 0
    "scaled_laplacian": lambda spec: (1.0, 2.0),
    "inverse_power": lambda spec: (spec.d, spec.c ** (spec.d + 1.0)),
}

# Batched kernel evaluations take lanes in chunks small enough that no
# temporary of the batched kernel core exceeds this many float64 values:
# lanes x centers x steps x channels on pasts, lanes x centers otherwise.
LANE_BUDGET = 2**15

# A radial statistic ||u - c||^2 is kept from its expansion
# ||u||^2 + ||c||^2 - 2 <u, c> only where it exceeds this fraction of
# ||u||^2 + ||c||^2; smaller ones are recomputed from u - c (see
# _squared_distances).
RADIAL_GUARD = 1.0 / 64.0


class ScalarKernelSpec(Value):
    """One scalar kernel from the catalog, identified by kind plus parameters."""

    __slots__ = ("kind", "sigma", "c", "d", "beta")

    def __init__(self, kind: str, sigma: float | None = None,
                 c: float | None = None, d: float | None = None,
                 beta: float | None = None):
        if not isinstance(kind, str) or kind not in SCALAR_KINDS:
            raise ValueError(f"unknown scalar kernel kind {kind!r}")
        given = {"sigma": sigma, "c": c, "d": d, "beta": beta}
        params = dict.fromkeys(given)  # a kind's other parameters stay None
        for name, number in SCALAR_KINDS[kind].items():
            params[name] = checked(given[name], number, f"{kind} kernel {name}")
        if kind == "polynomial" and not params["d"].is_integer():
            raise ValueError(f"polynomial kernel d must be integral, got {d!r}")
        self._set(kind=kind, **params)


def bilinear() -> ScalarKernelSpec:
    return ScalarKernelSpec("bilinear")


def polynomial(c: float, d: int) -> ScalarKernelSpec:
    return ScalarKernelSpec("polynomial", c=c, d=d)


def gaussian(sigma: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("gaussian", sigma=sigma)


def laplacian(sigma: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("laplacian", sigma=sigma)


def scaled_laplacian() -> ScalarKernelSpec:
    return ScalarKernelSpec("scaled_laplacian")


def inverse_power(c: float, d: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("inverse_power", c=c, d=d)


def stable_spline(beta: float) -> ScalarKernelSpec:
    return ScalarKernelSpec("stable_spline", beta=beta)


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
    otherwise the result is k(c_j, u_b), shape (B, n), and a squared
    distance comes from norms (see _squared_distances).
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
    elif kind in RADIAL_SLOPES and not pasts:
        stat = _squared_distances(centers, uvals)
    elif kind in RADIAL_SLOPES:
        diff = centers - uvals[:, None]
        stat = np.einsum("bjtc,bjtc->bjt", diff, diff)
    else:  # bilinear and polynomial
        stat = np.einsum(f"jtc,btc->{out}", centers, uvals)
    if pasts:
        stat = np.cumsum(stat, axis=-1)
    if kind == "bilinear":
        return stat
    if kind == "polynomial":
        return (spec.c + stat) ** spec.d
    if kind == "stable_spline":
        return np.exp(-spec.beta * stat)
    if kind == "gaussian":
        try:
            width = spec.sigma**2
        except OverflowError:  # sigma beyond 1.3e154: the limit k = 1
            width = math.inf
        return np.exp(-stat / width)
    if kind == "laplacian":
        return np.exp(-np.sqrt(stat) / spec.sigma)
    if kind == "scaled_laplacian":
        r = np.sqrt(stat)
        return (1.0 + r) * np.exp(-r)
    assert kind == "inverse_power"
    return (spec.c + stat) ** (-spec.d)


def _squared_distances(centers: np.ndarray, uvals: np.ndarray) -> np.ndarray:
    """||u_b - c_j||^2 for stacked inputs (B, steps, dim) against stacked
    centers (n, steps, dim), shape (B, n), with no temporary above B x n.

    Each entry is ||u_b||^2 + ||c_j||^2 - 2 <u_b, c_j>, the three sums over
    the K = steps x dim samples, unless it is not finite or not above
    RADIAL_GUARD (||u_b||^2 + ||c_j||^2): such entries, where the expansion
    cancels, are recomputed from the differences u_b - c_j, LANE_BUDGET
    values at a time.  Each sum is off by at most about K u of its size, for
    the unit roundoff u, so a kept entry is within (2K + 3) u / RADIAL_GUARD
    of the exact distance, relatively (about 6e-13 at K = 42); a recomputed
    one is a sum of K squares, exactly 0 for equal signals.  The cross term
    is one np.einsum, not a BLAS product, which would round an entry
    differently with the shape of the call: each lane evaluates bit for bit
    as it does alone.
    """
    k = math.prod(uvals.shape[1:])
    U, C = uvals.reshape(-1, k), centers.reshape(-1, k)
    # norms past float range leave inf or NaN entries, recomputed below
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.einsum("bk,bk->b", U, U)[:, None] + np.einsum("jk,jk->j", C, C)
        stat = size - 2.0 * np.einsum("bk,jk->bj", U, C)
        rows, cols = np.nonzero(~(stat > RADIAL_GUARD * size))
    step = max(1, LANE_BUDGET // k)
    for lo in range(0, len(rows), step):
        b, j = rows[lo:lo + step], cols[lo:lo + step]
        diff = C[j] - U[b]
        stat[b, j] = np.einsum("ek,ek->e", diff, diff)
    return stat


def _scalar_nonexpansive(spec: ScalarKernelSpec) -> bool:
    """The structural rule granting the increment bound for scalar kernels.

    The bound is k(u, u) - 2 k(u, v) + k(v, v) <= ||u - v||^2 for every
    pair, which the bilinear kernel meets with equality.  A radial kernel is
    psi(s) of s = ||u - v||^2, so the left side is 2 (psi(0) - psi(s)).  Its
    psi is completely monotone (Schoenberg), hence convex, so
    psi(s) >= psi(0) + psi'(0) s and 2 (psi(0) - psi(s)) <= 2 (-psi'(0)) s:
    the bound holds when the slope -psi'(0) is at most 1/2.  As s -> 0 the
    left side is 2 (-psi'(0)) s + o(s), so it fails for every larger slope.
    The slope is compared as its ratio, 2 top <= bottom, with no rounded
    quotient in between.  Every other kind is left unproven.
    """
    if spec.kind == "bilinear":
        return True
    if spec.kind not in RADIAL_SLOPES:
        return False
    try:
        top, bottom = RADIAL_SLOPES[spec.kind](spec)
    except OverflowError:  # a bottom beyond float range dwarfs every top
        return True
    return 2.0 * top <= bottom


class OperatorKernel(Frozen, ABC):
    """Common interface: batched evaluation through row_terms, and the
    structure each constructor works out once: output_dim, is_causal,
    is_uniform, true when K(u, v) acts by a single matrix on every sample,
    and the structural certificates nonexpansive (see certify_nonexpansive)
    and bounded (see certify_bounded).  Kernels are immutable."""

    __slots__ = ("output_dim", "is_causal", "is_uniform", "nonexpansive",
                 "bounded")

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
    """Scalar kernel times a fixed symmetric positive semidefinite matrix.

    radius is the spectral norm of R, the largest |eigenvalue|, from the
    eigenvalues that check R.
    """

    __slots__ = ("scalar", "R", "radius")

    def __init__(self, scalar: ScalarKernelSpec, R: np.ndarray):
        R = _frozen_matrix(R, "R", symmetric=True)
        eig = np.linalg.eigvalsh(R)
        if eig.min() < -1e-12 * max(1.0, np.abs(eig).max()):
            raise ValueError(f"separable kernel matrix has eigenvalue {eig.min():.3e} < 0")
        radius = float(np.abs(eig).max())
        self._set(scalar=scalar, R=R, radius=radius, output_dim=R.shape[0],
                  is_causal=False, is_uniform=True,
                  nonexpansive=_scalar_nonexpansive(scalar) and radius <= 1.0,
                  bounded=scalar.kind == "bilinear" and radius <= 1.0)

    def row_terms(self, centers, uvals, pasts=False):
        return [(_scalar_batch(self.scalar, centers, uvals, pasts), self.R)]


class SumKernel(OperatorKernel):
    """Nonnegative combination sum_i alpha_i K_i of kernels with equal output dim."""

    __slots__ = ("weights", "children")

    def __init__(self, weights: tuple[float, ...],
                 children: tuple[OperatorKernel, ...]):
        weights = tuple(checked(w, "nonnegative", "sum kernel weight")
                        for w in weights)
        children = tuple(children)
        if len(weights) != len(children) or not children:
            raise ShapeError("need one weight per child kernel")
        dims = {child.output_dim for child in children}
        if len(dims) != 1:
            raise ShapeError(f"children disagree on output dim: {sorted(dims)}")
        self._set(weights=weights, children=children, output_dim=dims.pop(),
                  is_causal=all(child.is_causal for child in children),
                  is_uniform=all(child.is_uniform for child in children),
                  nonexpansive=(sum(weights) <= 1.0 and all(
                      child.nonexpansive for child in children)),
                  bounded=False)

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
        # Samplewise-on-pasts composition: no structural rule shipped, so
        # the certificates stay unknown even when every child is proven.
        self._set(children=per_time[0] if shared else per_time,
                  output_dim=dims.pop(), is_causal=True, is_uniform=False,
                  nonexpansive=False, bounded=False)

    def row_terms(self, centers, uvals, pasts=False):
        # Pasts of pasts are the pasts, so the flag changes nothing here.
        if isinstance(self.children, OperatorKernel):
            return self.children.row_terms(centers, uvals, pasts=True)
        # Column t is child t on the pasts P_t, i.e. on samples 0..t; the
        # children's terms with equal matrices share one weight array.
        steps = uvals.shape[1]
        if steps > len(self.children):
            raise ShapeError(f"kernel has {len(self.children)} per-sample "
                             f"children, grid needs index {len(self.children)}")
        terms = []
        for t, child in enumerate(self.children[:steps]):
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
    """Structural nonexpansiveness certificate: "proven" or "unknown", as
    the kernel's constructor worked it out for its structure."""
    return PROVEN if as_operator(kernel).nonexpansive else UNKNOWN


def certify_bounded(kernel: AnyKernel) -> str:
    """Certificate that ||K(u, u)||^(1/2) <= ||u|| for all u."""
    return PROVEN if as_operator(kernel).bounded else UNKNOWN


def nonexpansive_defect(kernel: AnyKernel, u: Signal, v: Signal) -> float:
    """Positive values witness a violation of the kernel increment bound."""
    return float(nonexpansive_defects(kernel, [(u, v)])[0])


def nonexpansive_defects(kernel: AnyKernel, pairs) -> np.ndarray:
    """nonexpansive_defect of every pair, in one batched sweep.

    pairs is a (pairs, 2, steps, dim) array, or (u, v) Signal pairs on one
    grid (see signals.pair_stack).  The second difference
    K(u,u) - K(u,v) - K(v,u) + K(v,v) of a pair acts samplewise.  A chunk
    of c pairs is stacked as the lanes u_0..u_c-1, v_0..v_c-1 and evaluated
    against itself through row_terms; the diagonals of the four c x c
    quadrants of each term's weights give every pair's second difference at
    every sample, and one eigvalsh of the stacked p x p blocks its norm.
    """
    k = as_operator(kernel)
    X = pair_stack(pairs)
    _, _, steps, dim = X.shape
    # 2c lanes against 2c centers stay within the lane budget
    width = LANE_BUDGET // (steps * max(dim, k.output_dim))
    chunk = max(1, math.isqrt(width) // 2)
    sizes = []
    for lo in range(0, len(X), chunk):
        lanes = X[lo:lo + chunk].swapaxes(0, 1).reshape(-1, steps, dim)
        c = len(lanes) // 2
        iu, iv = np.arange(c), np.arange(c, 2 * c)
        second = sum(
            (w[iu, iu] - w[iu, iv] - w[iv, iu] + w[iv, iv]).reshape(c, -1, 1, 1) * M
            for w, M in k.row_terms(lanes, lanes))
        sizes.append(np.abs(np.linalg.eigvalsh(second)).max(axis=(1, 2)))
    return np.concatenate(sizes) - norms(X[:, 0] - X[:, 1]) ** 2


def is_causal(kernel: AnyKernel) -> bool:
    return as_operator(kernel).is_causal


def _scalar_to_json(spec: ScalarKernelSpec) -> dict:
    return {"kind": spec.kind, **{name: getattr(spec, name)
                                  for name in SCALAR_KINDS[spec.kind]}}


def _scalar_from_json(obj: dict) -> ScalarKernelSpec:
    return ScalarKernelSpec(obj["kind"], **{
        name: obj.get(name) for name in ScalarKernelSpec.__slots__[1:]})


def _matrix_to_json(R: np.ndarray):
    if np.array_equal(R, np.eye(R.shape[0])):
        return "identity"
    return R.tolist()


def _matrix_from_json(obj, p: int | None) -> np.ndarray:
    if isinstance(obj, str):
        if obj != "identity":
            raise ValueError(f"unknown matrix shorthand {obj!r}")
        return np.eye(1 if p is None else p)
    return _json_matrix(obj, "R")


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


# The deepest a kernel read from JSON may nest its structures.  Every
# recursive walk over a kernel (row_terms, kernel_to_json) takes a few
# frames per level, so this keeps them all far inside the interpreter's
# recursion limit.
KERNEL_DEPTH = 100


def kernel_from_json(obj: dict, p: int | None = None,
                     steps: int | None = None) -> OperatorKernel:
    """Rebuild a kernel from its JSON form; certificates are re-derived.

    p is the output dim the caller expects, if it knows one; every
    separable part's "p" is checked against it before its matrix is built,
    and an explicit R against that dim.  steps is the grid size it will
    run on, if known: per-sample children must cover every sample.  A
    missing field, a value of the wrong type or size, one the kernel
    refuses, or a structure nested more than KERNEL_DEPTH levels deep
    raises ValueError naming the innermost kernel object that holds it.
    """
    return _kernel_from_json(obj, p, steps, 0)


def _kernel_from_json(obj: dict, p: int | None, steps: int | None,
                      level: int) -> OperatorKernel:
    try:
        if level > KERNEL_DEPTH:
            raise ValueError(
                f"structures nest deeper than {KERNEL_DEPTH} levels")
        structure = obj.get("structure", "separable")
        if structure in ("separable", "conjugated"):
            dim = checked(obj["p"], "count", "p") if "p" in obj else p
            if p not in (None, dim):
                raise ValueError(f"p must be {p}, got {dim}")
            R = _matrix_from_json(obj.get("R", "identity"), dim)
            if dim is not None and R.shape != (dim, dim):
                raise _malformed(obj, f"R must be {dim} x {dim}, "
                                      f"got shape {R.shape}")
            build = SeparableKernel if structure == "separable" else ConjugatedKernel
            return build(_scalar_from_json(obj["scalar"]), R)
        if structure == "sum":
            weights = obj["weights"]
            if not isinstance(weights, list):
                raise _malformed(obj, "weights must be a list, "
                                      f"got {reprlib.repr(weights)}")
            return SumKernel(tuple(weights), tuple(
                _kernel_from_json(c, p, steps, level + 1)
                for c in obj["children"]))
        if structure == "causal_diagonal":
            if "child" in obj:
                return CausalDiagonalKernel(
                    _kernel_from_json(obj["child"], p, steps, level + 1))
            children = tuple(_kernel_from_json(c, p, steps, level + 1)
                             for c in obj["children"])
            if steps is not None and len(children) < steps:
                raise ValueError(f"{len(children)} per-sample children for "
                                 f"a grid of {steps} samples")
            return CausalDiagonalKernel(children)
        raise ValueError(f"unknown kernel structure {structure!r}")
    except KernelSpecError:  # a child's fault, named already
        raise
    except ValueError as exc:  # a value the kernel's constructor refuses
        raise _malformed(obj, exc) from None
    except (TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise _malformed(obj, f"{type(exc).__name__} {exc}") from None
