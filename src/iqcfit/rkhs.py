"""Gram assembly and regularized least-squares fitting of operators.

The estimator is the minimizer of sum_i ||y_i - H(u_i)||^2 + gamma ||H||^2
over the space induced by an operator-valued kernel.  It is a kernel
expansion H(u) = sum_j K(u, u_j) c_j whose coefficients solve the block
linear system (G + gamma I) c = y, with G the Gram operator of the inputs.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalError, ShapeError
from .kernels import (LANE_BUDGET, OperatorKernel, as_operator,
                      kernel_from_json, kernel_to_json)
from .signals import (Dataset, Frozen, Signal, TimeGrid, as_lanes, checked,
                      located, manifest_values, norms, read_json)

# Gram blocks above this side length are refused: centers x channels in the
# dense form, centers alone in the factored one.
DENSE_CAP = 4096
# tune_gamma raises gamma at most this many times to bring the stored norm
# under rho.
NUDGE_LIMIT = 60
# tune_gamma's steps in each of its searches: growing gamma, halving it and
# bisecting.
SEARCH_LIMIT = 200


def _per_sample(B: np.ndarray, M: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """B[t] (x) M applied to sample t of coeff (n, steps, p), for a (k, N, N)
    stack B and an r x r matrix M.  A stack of one block serves every sample,
    which it takes as the columns of one matmul."""
    n, steps, p = coeff.shape
    k, N, r = len(B), len(B[0]), len(M)
    s, q = steps // k, p // r
    cols = coeff.reshape(n, k, s, q, r).transpose(1, 0, 3, 2, 4)
    out = (B @ cols.reshape(k, N, s * r)).reshape(k, n, q, s, r)
    out = out.transpose(1, 0, 3, 2, 4).reshape(n, steps * q, r) @ M.T
    return out.reshape(n, steps, p)


class GramOperator(Frozen):
    """Gram operator of a kernel over an (n, steps, m) stack of centers.

    Every kernel structure acts samplewise, so G is block diagonal over
    time, and its block at sample t is blocks[t] (x) M.  blocks is a
    (k, N, N) stack, one block serving every sample when the kernel is
    uniform in time, else k = steps; M is an r x r channel matrix and
    N = n p / r.  The kronecker layout is the factored case, r = p, taken
    when the kernel's row terms carry one channel matrix; the dense layout
    has r = 1 and M = [[1]].  At p = 1 the two coincide.  The constructor
    works out n, steps, p, the side dim = n steps p of G, and the layout.
    """

    __slots__ = ("kernel", "centers", "blocks", "M", "n", "steps", "p", "dim",
                 "layout")

    def __init__(self, kernel: OperatorKernel, centers: np.ndarray,
                 blocks: np.ndarray, M: np.ndarray):
        (n, steps), p = centers.shape[:2], kernel.output_dim
        self._set(kernel=kernel, centers=centers, blocks=blocks, M=M, n=n,
                  steps=steps, p=p, dim=n * steps * p,
                  layout="kronecker" if blocks.shape[1] == n else "dense")

    def apply(self, coeff: np.ndarray) -> np.ndarray:
        """Apply G to coefficients shaped (n, steps, p)."""
        return _per_sample(self.blocks, self.M, coeff)

    def quad(self, coeff: np.ndarray) -> float:
        return float(np.vdot(coeff, self.apply(coeff)))

    def trace(self) -> float:
        repeats = self.steps // len(self.blocks)
        return float(np.trace(self.blocks, axis1=1, axis2=2).sum() * repeats
                     * np.trace(self.M))

    @property
    def dense(self) -> np.ndarray:
        """The full (n*steps*p) square matrix, as a test reference."""
        n, p, t = self.n, self.p, np.arange(self.steps)
        kron = self.blocks[:, :, None, :, None] * self.M[:, None, :]
        full = np.zeros((n, self.steps, p) * 2)
        full[:, t, :, :, t, :] = kron.reshape(-1, n, p, n, p)
        return full.reshape(self.dim, self.dim)


def _lane_width(kernel: OperatorKernel, steps: int, m: int) -> int:
    """Values per lane and center of a batched evaluation's largest
    temporary: a kernel uniform in time needs none over steps."""
    return max(m, kernel.output_dim) * (1 if kernel.is_uniform else steps)


def build_gram(kernel: OperatorKernel, X: np.ndarray,
               layout: str = "auto") -> GramOperator:
    """Assemble the Gram operator of an (n, steps, m) stack of centers,
    factored when the kernel has one row term.

    Block t of G is the sum over the kernel's row terms (w, M) of
    w[:, :, t] (x) M.  With a single term the blocks hold w and the term's
    M is the channel matrix; else ("dense") the blocks hold the whole sum.
    """
    kernel = as_operator(kernel)
    if X.ndim != 3 or not len(X):
        raise ShapeError(f"centers must be a nonempty (n, steps, m) stack, "
                         f"got shape {X.shape}")
    if layout not in ("auto", "dense", "kronecker"):
        raise ValueError(f"unknown gram layout {layout!r}")
    n, steps, m = X.shape
    p = kernel.output_dim
    # rows lo:hi are evaluated against the n - lo centers from row lo on,
    # so the chunks of rows grow as lo does
    width = _lane_width(kernel, steps, m)
    bounds = [0]
    while bounds[-1] < n:
        lo = bounds[-1]
        bounds.append(min(n, lo + max(1, LANE_BUDGET // ((n - lo) * width))))
    # one errstate for the whole Gram: an overflow leaves an inf or NaN
    # entry, refused after assembly, not a warning per chunk
    with np.errstate(all="ignore"):
        terms = kernel.row_terms(X, X[:bounds[1]])
        factored = len(terms) == 1 and layout != "dense"
        if layout == "kronecker" and not factored:
            raise ShapeError(
                "kronecker layout needs a kernel with one channel matrix")
        M = terms[0][1] if factored else np.eye(1)
        q = p // len(M)
        if n * q > DENSE_CAP:
            raise NumericalError(
                f"Gram block side {n * q} exceeds cap {DENSE_CAP}")
        blocks = np.zeros((1 if kernel.is_uniform else steps, n, q, n, q))
        asymmetry = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            if lo:
                terms = kernel.row_terms(X[lo:], X[lo:hi])
            # a term uniform in time has one weight matrix for every block,
            # and the factored form keeps its one matrix out of the blocks
            for w, Mt in terms:
                w = w.reshape(len(w), n - lo, -1).transpose(2, 0, 1)
                blocks[:, lo:hi, :, lo:] += w[:, :, None, :, None] * (
                    1.0 if factored else Mt[:, None, :])
            # G is symmetric: the rows below the chunk take its columns, so
            # only the chunk's own diagonal block can fail the check
            blocks[:, hi:, :, lo:hi] = \
                blocks[:, lo:hi, :, hi:].transpose(0, 3, 4, 1, 2)
            own = blocks[:, lo:hi, :, lo:hi]
            # np.maximum keeps a NaN, which max(0.0, nan) would drop
            asymmetry = np.maximum(asymmetry, np.abs(
                own - own.transpose(0, 3, 4, 1, 2)).max())
        blocks = blocks.reshape(len(blocks), n * q, n * q)
        if not np.isfinite(blocks).all():
            raise NumericalError(
                f"the Gram of kernel {reprlib.repr(kernel_to_json(kernel))} "
                f"has a non-finite entry: its values overflow")
        if not asymmetry <= 1e-10 * max(1.0, blocks.max(), -blocks.min()):
            raise NumericalError("assembled Gram matrix is not symmetric")
    return GramOperator(kernel, X, blocks, M)


class Spectral:
    """One eigendecomposition of a Gram, serving fits at any gamma.

    In the eigenbasis of G both the solution of (G + gamma I) c = y and its
    norm sqrt(<c, G c>) are closed-form in gamma, so the targets are
    projected once.  One stacked eigh of the time blocks and one of M give
    it: the eigenvalues of G are their products (a block's repeated over
    every sample it serves).
    """

    def __init__(self, gram: GramOperator, targets: np.ndarray):
        self.gram = gram
        self.targets = targets
        lam, self._V = np.linalg.eigh(gram.blocks)
        mu, self._U = np.linalg.eigh(gram.M)
        lam = lam.reshape(len(lam), gram.n, -1, 1) * mu
        self._lam = lam.transpose(1, 0, 2, 3).reshape(gram.n, len(lam), -1)
        self._proj = _per_sample(self._V.swapaxes(1, 2), self._U.T, targets)
        # The norm curve treats rounding-level negative eigenvalues as zero.
        self._lam_pos = np.clip(self._lam, 0.0, None)
        self._weight = self._proj ** 2

    def solve(self, gamma: float) -> np.ndarray:
        """Coefficients c of (G + gamma I) c = targets, shaped like targets."""
        denom = self._lam + gamma
        if denom.min() <= 0:
            raise NumericalError(
                f"G + gamma I is not positive definite "
                f"(min Gram eigenvalue {float(self._lam.min()):.6e}, "
                f"gamma {gamma:.6e})"
            )
        return _per_sample(self._V, self._U, self._proj / denom)

    def norm(self, gamma: float) -> float:
        """RKHS norm of the fit at gamma."""
        lam = self._lam_pos
        # Past about 1e+-154, (lam + gamma)^2 leaves float range: a term
        # over an underflowed 0 is inf (no norm target meets it), one over
        # an overflowed inf is 0, and a zero numerator over 0 (NaN) is a
        # zero term.  The curve only steers tune_gamma, whose finish checks
        # the norm of the fit it returns.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            top = lam * self._weight
            terms = top / (lam + gamma) ** 2
        total = float(terms.sum())
        if total != total:
            total = float(np.where(top > 0, terms, 0.0).sum())
        return math.sqrt(total)


# Weights of a row term: (B, n) for kernels uniform in time, (B, n, steps) else.
_CONTRACT = {2: "lj,jtb->ltb", 3: "ljt,jtb->ltb"}


class FittedOperator(Frozen):
    """Kernel expansion H(u) = sum_j K(u, u_j) c_j from a regularized fit.

    The kernel and the centers u_j (n, steps, input_dim) are the Gram's;
    coefficients c_j and targets y (n, steps, output_dim) are stacks on
    grid, as bundles store them.  The constructor applies G once: it
    refuses (NumericalError) coefficients that do not solve
    (G + gamma I) c = y to 1e-10 relative, unless y = 0, and stores
    targets = G c + gamma c and rkhs_norm = sqrt(<c, G c>), the exact norm
    that every certificate rests on.  extra is the manifest's "extra"
    record (supply, scales, ...) of a loaded bundle.
    """

    __slots__ = ("kernel", "grid", "centers", "coefficients", "gamma",
                 "rkhs_norm", "targets", "extra", "input_dim", "output_dim")

    def __init__(self, gram: GramOperator, grid: TimeGrid,
                 coefficients: np.ndarray, gamma: float, targets: np.ndarray,
                 extra: dict | None = None):
        # a Gram far from a stored fit's may overflow these sums; the tests
        # below refuse an infinite or NaN result, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            gc = gram.apply(coefficients)
            solved = gc + gamma * coefficients
            size = np.linalg.norm(targets)
            rel = np.linalg.norm(solved - targets) / max(size, 1e-300)
            sq = max(float(np.vdot(coefficients, gc)), 0.0)
        if size > 0 and not rel <= 1e-10:  # NaN fails too
            raise NumericalError(f"fit residual {rel:.3e} exceeds 1e-10")
        coefficients.setflags(write=False)
        self._set(kernel=gram.kernel, grid=grid, centers=gram.centers,
                  coefficients=coefficients, gamma=float(gamma),
                  rkhs_norm=math.sqrt(sq), targets=solved,
                  extra={} if extra is None else extra,
                  input_dim=gram.centers.shape[2], output_dim=gram.p)

    def __call__(self, uvals: np.ndarray) -> np.ndarray:
        """H on stacked inputs, (B, steps, m) -> (B, steps, p).

        The lanes run in chunks that LANE_BUDGET sizes at each call, and
        each lane is evaluated exactly as it would be alone.
        """
        centers, coeff = self.centers, self.coefficients
        n, steps, m = centers.shape
        chunk = max(1, LANE_BUDGET // (n * _lane_width(self.kernel, steps, m)))
        out = np.empty(uvals.shape[:2] + coeff.shape[2:])
        for lo in range(0, len(uvals), chunk):
            # sum_j K(u, c_j) coeff_j, one term of the batched row at a time
            part = 0.0
            for w, M in self.kernel.row_terms(centers, uvals[lo:lo + chunk]):
                part = part + np.einsum(_CONTRACT[w.ndim], w, coeff) @ M.T
            out[lo:lo + chunk] = part
        return out

    @property
    def training_risk(self) -> float:
        """empirical_risk on the data the model was fit to, in closed form:
        the coefficients solve (G + gamma I) c = y, so the residual
        y - G c is gamma c and the risk is gamma^2 ||c||^2."""
        coeff = self.coefficients
        try:
            return self.gamma**2 * float(np.vdot(coeff, coeff))
        except OverflowError:
            # gamma^2 overflows, yet the risk ||y - G c||^2 = ||gamma c||^2
            # is finite
            scaled = self.gamma * coeff
            return float(np.vdot(scaled, scaled))


def fit(kernel: OperatorKernel, data: Dataset, gamma: float,
        layout: str = "auto") -> FittedOperator:
    """Regularized least-squares fit of an operator to the dataset.

    Parameters
    ----------
    kernel : operator kernel whose output dim matches the data outputs.
    data : paired trajectories on one grid.
    gamma : regularization weight, must be positive.
    layout : Gram layout, "auto" picks the factored path when available.
    """
    return fit_many(kernel, data, [gamma], layout)[0]


def fit_many(kernel: OperatorKernel, data: Dataset, gammas: Sequence[float],
             layout: str = "auto") -> list[FittedOperator]:
    """One fit per regularization weight, all from one Gram factorization."""
    gammas = [checked(gamma, "positive", "gamma") for gamma in gammas]
    spectral = _spectral(kernel, data, layout)
    return [FittedOperator(spectral.gram, data.grid, spectral.solve(gamma),
                           gamma, spectral.targets) for gamma in gammas]


def _spectral(kernel: OperatorKernel, data: Dataset, layout: str) -> Spectral:
    """The factored Gram of the data's inputs with its outputs as targets,
    once the kernel's output dim is checked against the data's."""
    kernel = as_operator(kernel)
    if kernel.output_dim != data.output_dim:
        raise ShapeError(
            f"kernel output dim {kernel.output_dim} != data {data.output_dim}"
        )
    return Spectral(build_gram(kernel, data.inputs, layout), data.outputs)


def evaluate(model: FittedOperator,
             u: Signal | np.ndarray) -> Signal | np.ndarray:
    """Evaluate the fitted operator at one input Signal, giving its output
    Signal, or at a (B, steps, m) stack of inputs, giving their stack."""
    out = model(as_lanes(u, model.grid, model.input_dim))
    return Signal(u.grid, out[0]) if isinstance(u, Signal) else out


def rkhs_norm(model: FittedOperator) -> float:
    """Recompute sqrt(<c, G c>) from scratch."""
    return FittedOperator(build_gram(model.kernel, model.centers), model.grid,
                          model.coefficients, model.gamma,
                          model.targets).rkhs_norm


def empirical_risk(model: FittedOperator, data: Dataset) -> float:
    """Sum of squared output misfits over the dataset."""
    if data.grid != model.grid:
        raise ShapeError("dataset grid differs from the training grid")
    return float(sum(norms(data.outputs - evaluate(model, data.inputs)) ** 2))


def tune_gamma(kernel: OperatorKernel, data: Dataset, rho: float,
               rel_tol: float = 1e-3) -> tuple[float, FittedOperator]:
    """Find the smallest gamma whose fit has rkhs norm at most rho.

    Bisection on log gamma against the monotone norm curve; the returned fit
    always satisfies norm <= rho, and sits within rel_tol of the crossing
    unless the target is reachable for every gamma, or the fit there fails
    its residual check (a numerically rank-deficient Gram) and gamma
    doubles until it passes, at most SEARCH_LIMIT times.  A Gram with no
    positive eigenvalue gives the norm 0 at every gamma, so no gamma is
    smallest, and nonzero targets are refused (ValueError).  Targets too
    large for any gamma the growing search reaches (2^SEARCH_LIMIT times
    the mean Gram diagonal) raise NumericalError.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"norm target rho must be in (0, 1], got {rho}")
    spectral = _spectral(kernel, data, "auto")

    def solved(gamma: float) -> tuple[float, FittedOperator]:
        # On a numerically rank-deficient Gram the rounding-level
        # eigenvalues may leave the solve at a small gamma short of the
        # fit's residual check; the norm only falls as gamma grows, so
        # gamma doubles until the fit passes.
        for _ in range(SEARCH_LIMIT):
            try:
                return gamma, FittedOperator(spectral.gram, data.grid,
                                             spectral.solve(gamma), gamma,
                                             spectral.targets)
            except NumericalError as exc:
                failure = exc
                gamma *= 2.0
        raise failure

    def finish(gamma: float) -> tuple[float, FittedOperator]:
        # The curve and the stored norm (from quad) round differently, so
        # the stored norm may exceed rho in its last bits: raise gamma by a
        # relative step that starts at 4 ulp and doubles, until it does not.
        step = 4 * np.finfo(float).eps
        for _ in range(NUDGE_LIMIT):
            gamma, model = solved(gamma)
            if model.rkhs_norm <= rho:
                return gamma, model
            gamma *= 1.0 + step
            step *= 2.0
        raise NumericalError(f"stored norm {model.rkhs_norm!r} stays above "
                             f"rho {rho!r} as gamma grows")

    gamma0 = max(spectral.gram.trace() / spectral.gram.dim, 1e-300)
    if np.linalg.norm(spectral.targets) == 0:
        return finish(gamma0)
    if not spectral._lam.max() > 0:
        raise ValueError("the Gram matrix has no positive eigenvalue, so "
                         "every gamma meets rho and none is smallest; fit "
                         "at a fixed --gamma instead")
    curve = spectral.norm

    if curve(gamma0) > rho:
        lo = hi = gamma0
        for _ in range(SEARCH_LIMIT):
            hi *= 2.0
            if curve(hi) <= rho:
                break
            lo = hi
        else:
            raise NumericalError(
                f"norm target not reached while growing gamma to {hi:.6g} "
                f"(rho {rho!r})")
    else:
        hi = gamma0
        lo = None
        prev = curve(gamma0)
        for _ in range(SEARCH_LIMIT):
            g = hi / 2.0
            value = curve(g)
            if value > rho:
                lo = g
                break
            # Plateau means the norm stays below rho down to gamma -> 0,
            # so every gamma meets the target; keep the smallest probed.
            if abs(value - prev) <= 1e-9 * rho:
                return finish(g)
            hi, prev = g, value
        if lo is None:
            return finish(hi)

    for _ in range(SEARCH_LIMIT):
        tight = (hi - lo) <= rel_tol * hi
        close = curve(hi) >= rho * (1.0 - rel_tol)
        if tight and close:
            break
        mid = math.sqrt(lo * hi)
        if curve(mid) > rho:
            lo = mid
        else:
            hi = mid
    return finish(hi)


# Bundle manifest tag.  Each (n, steps, d) stack of a bundle is one .npy
# file of little-endian float64 in C order.
BUNDLE_FORMAT = "iqcfit-model-3"
BUNDLE_FILES = ("centers.npy", "coefficients.npy", "targets.npy")
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def save_fitted(model: FittedOperator, directory: str | Path,
                extra: dict | None = None) -> Path:
    """Write the model as a JSON manifest plus three stacked .npy arrays."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": BUNDLE_FORMAT,
        "kernel": kernel_to_json(model.kernel),
        "gamma": model.gamma,
        "rkhs_norm": model.rkhs_norm,
        "tau": model.grid.tau,
        "dt": model.grid.dt,
        "m": model.input_dim,
        "p": model.output_dim,
        "n": len(model.centers),
        "extra": extra or {},
    }
    stacks = (model.centers, model.coefficients, model.targets)
    for name, stack in zip(BUNDLE_FILES, stacks):
        np.save(directory / name, np.ascontiguousarray(stack, dtype="<f8"),
                allow_pickle=False)
    path = directory / "model.json"
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def _read_stack(path: Path, shape: tuple[int, int, int],
                manifest: Path) -> np.ndarray:
    """The stack of one bundle .npy file, which must hold exactly shape.

    The header is checked (format version, dtype <f8, C order, shape) and
    the file's size against it before any data is read, so a forged header
    costs no allocation.  Every fault, a non-finite value too, raises a
    ValueError that starts with the path.
    """
    try:
        with path.open("rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise ValueError(f"unsupported .npy format version {version}")
            try:
                got, fortran, dtype = _NPY_HEADERS[version](fh)
            # numpy's parser of hostile header bytes raises more than
            # ValueError (TypeError, MemoryError, tokenize.TokenError, ...)
            except Exception as exc:
                raise ValueError(f"unreadable .npy header: "
                                 f"{type(exc).__name__} {exc}") from None
            if dtype != np.dtype("<f8") or fortran:
                raise ValueError(f"array must be little-endian float64 (<f8) "
                                 f"in C order, got {dtype.str} with "
                                 f"fortran_order {fortran}")
            if got != shape:
                raise ShapeError(
                    f"array of shape {got}, but {manifest} declares "
                    f"n={shape[0]} trajectories of {shape[1]} samples "
                    f"x {shape[2]} channels")
            size = 8 * math.prod(shape)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left != size:
                raise ValueError(f"{left} bytes of data, but its header "
                                 f"declares {size}")
            stack = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.isfinite(stack).all():
        raise ValueError(f"{path}: non-finite value")
    return stack


def load_fitted(location: str | Path) -> FittedOperator:
    """Load a model bundle, re-verifying the fit and its stored norm."""
    path = located(location, "model.json")
    base = path.parent
    meta = read_json(path)
    try:
        if meta.get("format") in ("iqcfit-model", "iqcfit-model-2"):
            raise ValueError(f"model bundle of the old format "
                             f"{meta['format']!r}; refit the model to write "
                             f"format {BUNDLE_FORMAT}")
        if meta.get("format") != BUNDLE_FORMAT:
            raise ValueError("not a model bundle")
        dt, n, tau, m, p, gamma, stored_norm = manifest_values(
            meta, dt="positive", n="count", tau="integer", m="count",
            p="count", gamma="positive", rkhs_norm="finite")
        grid = TimeGrid(tau, dt)
        kernel = kernel_from_json(meta["kernel"], p, grid.size)
        extra = meta.get("extra") or {}
        if not isinstance(extra, dict):
            raise ValueError("extra must be a JSON object")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed model manifest: "
                         f"{type(exc).__name__} {exc}") from None
    X, coeff, ybar = (_read_stack(base / name, (n, grid.size, dim), path)
                      for name, dim in zip(BUNDLE_FILES, (m, p, p)))
    try:  # an overflowing Gram or a broken fit: name the bundle
        model = FittedOperator(build_gram(kernel, X), grid, coeff, gamma,
                               ybar, extra)
    except NumericalError as exc:
        raise NumericalError(f"{path}: {exc}") from None
    nrm = model.rkhs_norm
    if not abs(nrm - stored_norm) <= 1e-6 * max(1.0, nrm):  # NaN fails too
        raise NumericalError(
            f"{path}: stored norm {meta['rkhs_norm']} != recomputed {nrm}"
        )
    return model
