"""Per-pair reference evaluation of operator kernels, for the tests.

The library evaluates a kernel only through the batched row_terms of its
structure.  This module writes each structure out pair by pair, from its
definition, as the independent reference those batched paths are checked
against: the matrix of K(u, v) at sample t is

- separable: the scalar kernel k(u, v) times R;
- sum: the weighted sum of the children's matrices;
- causal diagonal: child t (or the shared child) on the pasts P_t u, P_t v.
"""

import math
from fractions import Fraction

import numpy as np

from iqcfit.kernels import (
    CausalDiagonalKernel,
    ConjugatedKernel,
    OperatorKernel,
    SeparableKernel,
    SumKernel,
    as_operator,
    eval_scalar,
    scaled_laplacian,
)
from iqcfit.signals import Signal, norm, truncate


def structures(spec, R):
    """Every kernel structure over one scalar kernel, for p = R.shape[0]."""
    sep = SeparableKernel(spec, R)
    per_sample = tuple(SeparableKernel(spec, (0.5 + 0.25 * t) * R)
                       for t in range(4))
    return [sep,
            SumKernel((0.7, 0.2), (sep, SeparableKernel(scaled_laplacian(), R))),
            ConjugatedKernel(spec, np.linalg.cholesky(R)),
            CausalDiagonalKernel(sep),
            CausalDiagonalKernel(per_sample),
            SumKernel((0.5, 0.5), (sep, CausalDiagonalKernel(per_sample)))]


def structure_flags(kernel) -> tuple[int, bool, bool]:
    """(output_dim, is_causal, is_uniform) of a kernel, from the definitions:
    a separable kernel acts by R on every sample and looks at whole signals;
    a sum has its children's dim and is causal or uniform when every child
    is; a causal diagonal kernel is causal and acts samplewise."""
    kernel = as_operator(kernel)
    if isinstance(kernel, SeparableKernel):
        return kernel.R.shape[0], False, True
    children = kernel.children
    if isinstance(children, OperatorKernel):
        children = (children,)
    flags = [structure_flags(child) for child in children]
    if isinstance(kernel, SumKernel):
        return (flags[0][0], all(f[1] for f in flags),
                all(f[2] for f in flags))
    assert isinstance(kernel, CausalDiagonalKernel)
    return flags[0][0], True, False


def matrix_at(kernel, t: int, u: Signal, v: Signal) -> np.ndarray:
    """Matrix acting on output sample t of K(u, v)."""
    kernel = as_operator(kernel)
    if isinstance(kernel, SeparableKernel):
        return eval_scalar(kernel.scalar, u, v) * kernel.R
    if isinstance(kernel, SumKernel):
        return sum(w * matrix_at(child, t, u, v)
                   for w, child in zip(kernel.weights, kernel.children))
    assert isinstance(kernel, CausalDiagonalKernel)
    child = (kernel.children if isinstance(kernel.children, OperatorKernel)
             else kernel.children[t])
    # the children act by one matrix on every sample
    return matrix_at(child, 0, truncate(u, t), truncate(v, t))


def apply(kernel, u: Signal, v: Signal, y: Signal) -> Signal:
    """K(u, v) applied to an output-space signal y."""
    return Signal(y.grid, np.stack([matrix_at(kernel, t, u, v) @ y.values[t]
                                    for t in range(y.grid.size)]))


def block_matrix(kernel, u: Signal, v: Signal) -> np.ndarray:
    """Dense matrix of K(u, v) on the flattened output space."""
    steps, p = u.grid.size, as_operator(kernel).output_dim
    out = np.zeros((steps, p, steps, p))
    for t in range(steps):
        out[t, :, t, :] = matrix_at(kernel, t, u, v)
    return out.reshape(steps * p, steps * p)


def _spectral_norm(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def second_difference_norm(kernel, u: Signal, v: Signal) -> float:
    """Operator norm of K(u,u) - K(u,v) - K(v,u) + K(v,v)."""
    return max(_spectral_norm(matrix_at(kernel, t, u, u) - matrix_at(kernel, t, u, v)
                              - matrix_at(kernel, t, v, u) + matrix_at(kernel, t, v, v))
               for t in range(u.grid.size))


def diag_operator_norm(kernel, u: Signal) -> float:
    """Operator norm of K(u, u)."""
    return max(_spectral_norm(matrix_at(kernel, t, u, u))
               for t in range(u.grid.size))


def defect(kernel, u: Signal, v: Signal) -> float:
    """The nonexpansiveness defect ||K(u,u) - K(u,v) - K(v,u) + K(v,v)||
    - ||u - v||^2 of one pair."""
    return second_difference_norm(kernel, u, v) - norm(u - v) ** 2


def squared_distances(centers: np.ndarray, uvals: np.ndarray) -> np.ndarray:
    """||u_b - c_j||^2 for stacked inputs (B, steps, dim) against stacked
    centers (n, steps, dim), shape (B, n): each the float nearest the exact
    value, the differences of the samples squared and summed as fractions."""
    return np.array([[float(sum((Fraction(a) - Fraction(c)) ** 2
                                for a, c in zip(u.ravel().tolist(),
                                                center.ravel().tolist())))
                      for center in centers] for u in uvals])


def radial(spec, s: float) -> float:
    """psi(s) of a radial scalar kernel at the squared distance s."""
    if spec.kind == "gaussian":
        return math.exp(-s / spec.sigma**2)
    if spec.kind == "laplacian":
        return math.exp(-math.sqrt(s) / spec.sigma)
    if spec.kind == "scaled_laplacian":
        return (1.0 + math.sqrt(s)) * math.exp(-math.sqrt(s))
    assert spec.kind == "inverse_power"
    return (spec.c + s) ** -spec.d
