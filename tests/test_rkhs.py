import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iqcfit import rkhs
from iqcfit.errors import NumericalError, ShapeError
from iqcfit.kernels import (
    SCALAR_KINDS,
    CausalDiagonalKernel,
    ConjugatedKernel,
    OperatorKernel,
    SeparableKernel,
    SumKernel,
    bilinear,
    gaussian,
    inverse_power,
    laplacian,
    polynomial,
    scaled_laplacian,
    stable_spline,
)
from iqcfit.rkhs import (
    GramOperator,
    Spectral,
    build_gram,
    empirical_risk,
    evaluate,
    fit,
    fit_many,
    load_fitted,
    rkhs_norm,
    save_fitted,
    tune_gamma,
)
from iqcfit.signals import (
    Dataset,
    Signal,
    TimeGrid,
    norm,
    random_signal,
    stacked,
    truncate,
    zeros,
)


def _random_dataset(rng, n=4, tau=3, m=1, p=1, scale=1.0):
    grid = TimeGrid(tau)
    return Dataset(
        tuple(random_signal(grid, m, rng, scale=scale) for _ in range(n)),
        tuple(random_signal(grid, p, rng, scale=scale) for _ in range(n)),
    )


def test_gram_single_center_is_kernel_value():
    rng = np.random.default_rng(40)
    grid = TimeGrid(2)
    u = random_signal(grid, 1, rng)
    kernel = SeparableKernel(gaussian(1.0), np.eye(1))
    gram = build_gram(kernel, stacked([u]))
    from iqcfit.kernels import eval_scalar

    k = eval_scalar(gaussian(1.0), u, u)
    assert np.allclose(gram.dense, k * np.eye(3), atol=1e-14)


def test_gram_bilinear_orthogonal_inputs():
    grid = TimeGrid(1)
    u1 = Signal(grid, [1.0, 0.0])
    u2 = Signal(grid, [0.0, 2.0])
    kernel = SeparableKernel(bilinear(), np.eye(1))
    gram = build_gram(kernel, stacked([u1, u2]))
    assert np.allclose(gram.blocks[0], np.diag([1.0, 4.0]), atol=1e-15)


def test_gram_layouts_agree():
    rng = np.random.default_rng(41)
    grid = TimeGrid(3)
    inputs = stacked([random_signal(grid, 2, rng) for _ in range(4)])
    R = np.array([[1.0, 0.3], [0.3, 0.7]])
    kernel = SeparableKernel(gaussian(2.0), R)
    dense = build_gram(kernel, inputs, layout="dense")
    kron = build_gram(kernel, inputs, layout="kronecker")
    c = rng.normal(size=(4, 4, 2))
    assert np.abs(dense.apply(c) - kron.apply(c)).max() <= 1e-12
    assert abs(dense.quad(c) - kron.quad(c)) <= 1e-12 * max(1.0, dense.quad(c))
    assert np.abs(dense.dense - kron.dense).max() <= 1e-12


def test_gram_dense_cap(monkeypatch):
    # the cap bounds the side of one time block, not the full side centers x
    # samples x channels: centers x channels in the dense form, centers in
    # the factored one
    rng = np.random.default_rng(42)
    grid = TimeGrid(99)
    inputs = stacked([random_signal(grid, 1, rng) for _ in range(5)])
    kernel = SeparableKernel(gaussian(2.0), np.eye(10))
    assert 5 * 100 * 10 > rkhs.DENSE_CAP
    monkeypatch.setattr(rkhs, "DENSE_CAP", 5 * 10)
    assert build_gram(kernel, inputs, layout="dense").blocks.shape == (1, 50, 50)
    monkeypatch.setattr(rkhs, "DENSE_CAP", 5 * 10 - 1)
    with pytest.raises(NumericalError, match="block side 50 exceeds cap 49"):
        build_gram(kernel, inputs, layout="dense")
    with pytest.raises(NumericalError, match="block side 50"):
        build_gram(CausalDiagonalKernel(kernel), inputs, layout="dense")
    # the factored form carries the same data in blocks of side n
    monkeypatch.setattr(rkhs, "DENSE_CAP", 5)
    causal = build_gram(CausalDiagonalKernel(kernel), inputs)
    assert causal.layout == "kronecker" and causal.blocks.shape == (100, 5, 5)
    assert build_gram(kernel, inputs, layout="kronecker").blocks.shape == (1, 5, 5)
    monkeypatch.setattr(rkhs, "DENSE_CAP", 4)
    with pytest.raises(NumericalError, match="block side 5 exceeds cap 4"):
        build_gram(CausalDiagonalKernel(kernel), inputs)


class _SkewedKernel(OperatorKernel):
    """K(u, c) = u(0) I: not symmetric in its arguments, for the Gram check."""

    output_dim = 2
    is_causal = False
    is_uniform = True

    def row_terms(self, centers, uvals, pasts=False):
        return [(np.repeat(uvals[:, :1, 0], len(centers), axis=1), np.eye(2))]


@pytest.mark.parametrize("layout", ["kronecker", "dense"])
@pytest.mark.parametrize("budget", [2**15, 16])
def test_asymmetric_gram_raises(monkeypatch, layout, budget):
    # rows of a chunk below its diagonal block are mirrored, so the
    # asymmetry must be found inside the diagonal blocks (2 x 2 centers
    # each under the small budget)
    monkeypatch.setattr(rkhs, "LANE_BUDGET", budget)
    inputs = stacked([Signal(TimeGrid(0), [float(x)]) for x in range(4)])
    with pytest.raises(NumericalError,
                       match="^assembled Gram matrix is not symmetric$"):
        build_gram(_SkewedKernel(), inputs, layout=layout)


_POWER_400 = SeparableKernel(polynomial(1.0, 400), np.eye(1))


@pytest.mark.parametrize("kernel, layout", [
    (_POWER_400, "kronecker"),
    (_POWER_400, "dense"),
    (SumKernel((0.0, 1.0), (_POWER_400, SeparableKernel(bilinear(),
                                                        np.eye(1)))), "dense"),
], ids=["inf-kronecker", "inf-dense", "nan-dense"])
def test_overflowing_gram_raises(kernel, layout):
    # (1 + 3600)^400 overflows to inf, and a zero sum weight makes it NaN:
    # the Gram is refused naming its kernel, and numpy warns of nothing
    # (every warning is an error in this suite)
    grid = TimeGrid(3)
    inputs = stacked([Signal(grid, np.full(4, 30.0)),
                      Signal(grid, np.full(4, -30.0))])
    with pytest.raises(NumericalError, match=r"^the Gram of kernel \{.*"
                       r"'polynomial'.*\} has a non-finite entry"):
        build_gram(kernel, inputs, layout=layout)


def _fixed_chunk_gram(kernel, inputs, chunk):
    """The Gram blocks and channel matrix assembled with one chunk of rows
    for every step, each against the centers from its first row on, the
    rows below each chunk mirrored from its columns."""
    X = inputs
    n, steps = X.shape[:2]
    terms = kernel.row_terms(X, X[:1])
    factored = len(terms) == 1
    M = terms[0][1] if factored else np.eye(1)
    q = kernel.output_dim // len(M)
    blocks = np.zeros((1 if kernel.is_uniform else steps, n, q, n, q))
    for lo in range(0, n, chunk):
        hi = lo + chunk
        for w, Mt in kernel.row_terms(X[lo:], X[lo:hi]):
            w = w.reshape(len(w), n - lo, -1).transpose(2, 0, 1)
            blocks[:, lo:hi, :, lo:] += w[:, :, None, :, None] * (
                1.0 if factored else Mt[:, None, :])
        blocks[:, hi:, :, lo:hi] = blocks[:, lo:hi, :, hi:].transpose(0, 3, 4, 1, 2)
    return blocks.reshape(len(blocks), n * q, n * q), M


@pytest.mark.parametrize("structure", ["separable", "sum", "causal-per-sample"])
@pytest.mark.parametrize("n", [1, 2, 12, 200])
def test_gram_chunks_match_fixed_chunk_oracle(monkeypatch, structure, n):
    # chunks sized by the centers they evaluate, n - lo, give the blocks of
    # a chunk fixed for the full center count, bit for bit
    rng = np.random.default_rng(63)
    tau, m, p = (20, 2, 2) if n == 200 else (5, 1, 2)
    data = _random_dataset(rng, n=n, tau=tau, m=m, p=p)
    kernel = _bundle_kernel(structure, p, tau + 1, rng)
    calls, row_terms = [], type(kernel).row_terms
    monkeypatch.setattr(type(kernel), "row_terms", lambda self, X, U, *a: (
        calls.append(len(U)) or row_terms(self, X, U, *a)))
    gram = build_gram(kernel, data.inputs)
    monkeypatch.undo()
    chunk = max(1, rkhs.LANE_BUDGET // (n * (tau + 1) * max(m, p)))
    blocks, M = _fixed_chunk_gram(kernel, data.inputs, chunk)
    assert gram.blocks.tobytes() == blocks.tobytes()
    assert np.array_equal(gram.M, M)
    # every row once, in fewer chunks than a fixed chunk takes, unless one
    # chunk holds every row
    assert sum(calls) == n
    assert len(calls) < -(-n // chunk) or len(calls) == 1


def test_fit_single_center_closed_form():
    grid = TimeGrid(0)
    u = Signal(grid, [3.0])
    y = Signal(grid, [1.0])
    kernel = SeparableKernel(gaussian(1.0), np.eye(1))  # k(u,u) = 1
    model = fit(kernel, Dataset((u,), (y,)), gamma=1.0)
    assert model.coefficients[0, 0, 0] == pytest.approx(0.5, rel=1e-14)
    assert model.rkhs_norm == pytest.approx(0.5, rel=1e-14)
    assert rkhs_norm(model) == pytest.approx(0.5, rel=1e-14)


def test_fit_large_gamma_washes_out():
    rng = np.random.default_rng(43)
    data = _random_dataset(rng)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    model = fit(kernel, data, gamma=1e9)
    assert model.rkhs_norm <= 1e-3
    total = sum(norm(Signal(data.grid, y)) ** 2 for y in data.outputs)
    assert empirical_risk(model, data) == pytest.approx(total, rel=1e-6)


def test_fit_interpolation_limit():
    rng = np.random.default_rng(44)
    grid = TimeGrid(2)
    # well separated centers keep the Gram well conditioned
    u1 = Signal(grid, [0.0, 0.0, 0.0])
    u2 = Signal(grid, [4.0, 4.0, 4.0])
    y1 = random_signal(grid, 1, rng)
    y2 = random_signal(grid, 1, rng)
    data = Dataset((u1, u2), (y1, y2))
    kernel = SeparableKernel(gaussian(np.sqrt(2.0)), np.eye(1))
    model = fit(kernel, data, gamma=1e-12)
    assert norm(evaluate(model, u1) - y1) <= 1e-6
    assert norm(evaluate(model, u2) - y2) <= 1e-6
    assert empirical_risk(model, data) <= 1e-10


def test_fit_zero_outputs_gives_zero_model():
    rng = np.random.default_rng(45)
    grid = TimeGrid(3)
    data = Dataset(
        tuple(random_signal(grid, 1, rng) for _ in range(3)),
        tuple(zeros(grid) for _ in range(3)),
    )
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    model = fit(kernel, data, gamma=0.1)
    assert model.rkhs_norm == 0.0
    probe = random_signal(grid, 1, rng)
    assert norm(evaluate(model, probe)) == 0.0


def test_fit_validations():
    rng = np.random.default_rng(46)
    data = _random_dataset(rng)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    with pytest.raises(ValueError):
        fit(kernel, data, gamma=0.0)
    with pytest.raises(ShapeError):
        fit(SeparableKernel(gaussian(2.0), np.eye(2)), data, gamma=0.1)
    model = fit(kernel, data, gamma=0.1)
    with pytest.raises(ShapeError):
        evaluate(model, random_signal(TimeGrid(9), 1, rng))


def test_causal_kernel_fit_is_causal():
    rng = np.random.default_rng(47)
    data = _random_dataset(rng, n=3, tau=4)
    kernel = CausalDiagonalKernel(SeparableKernel(gaussian(2.0), np.eye(1)))
    model = fit(kernel, data, gamma=0.1)
    for _ in range(10):
        u = random_signal(data.grid, 1, rng)
        w = random_signal(data.grid, 1, rng)
        for T in range(data.grid.tau + 1):
            spliced = truncate(u, T) + (w - truncate(w, T))
            gap = norm(truncate(evaluate(model, u) - evaluate(model, spliced), T))
            assert gap <= 1e-12


def test_norm_monotone_in_gamma():
    rng = np.random.default_rng(48)
    data = _random_dataset(rng, n=5)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    gammas = np.geomspace(1e-4, 10.0, 8)
    norms = [fit(kernel, data, float(g)).rkhs_norm for g in gammas]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_evaluator_matches_direct_sum():
    rng = np.random.default_rng(49)
    data = _random_dataset(rng, n=4, tau=3, p=2)
    R = np.array([[1.0, 0.2], [0.2, 0.8]])
    per_sample = tuple(SeparableKernel(scaled_laplacian(), (0.5 + 0.1 * t) * R)
                       for t in range(data.grid.size))
    for kernel in (SeparableKernel(gaussian(2.0), R),
                   ConjugatedKernel(gaussian(2.0), np.array([[0.7, 0.0], [0.2, 0.5]])),
                   CausalDiagonalKernel(SeparableKernel(gaussian(2.0), R)),
                   CausalDiagonalKernel(per_sample),
                   SumKernel((0.6, 0.3), (SeparableKernel(inverse_power(2.0, 1.0), R),
                                          CausalDiagonalKernel(per_sample)))):
        model = fit(kernel, data, gamma=0.05)
        u = random_signal(data.grid, 1, rng)
        direct = zeros(data.grid, 2)
        for uj, cj in zip(model.centers, model.coefficients):
            direct = direct + oracle.apply(kernel, u, Signal(data.grid, uj),
                                           Signal(data.grid, cj))
        gap = norm(evaluate(model, u) - direct)
        assert gap <= 1e-12
        assert gap <= 1e-12 * norm(direct)


@pytest.mark.parametrize("budget", [1, 100, 2**15])
def test_evaluator_lanes_match_single_inputs(monkeypatch, budget):
    # budgets of one lane, a few lanes and the default chunk the stack
    # differently; every lane must come out as it does alone
    monkeypatch.setattr(rkhs, "LANE_BUDGET", budget)
    rng = np.random.default_rng(62)
    data = _random_dataset(rng, n=4, tau=3, m=2, p=2)
    R = np.array([[1.0, 0.3], [0.3, 0.6]])
    for kernel in oracle.structures(gaussian(2.0), R):
        model = fit(kernel, data, gamma=0.05)
        stack = np.stack([random_signal(data.grid, 2, rng).values
                          for _ in range(7)])
        got = model(stack)
        assert got.shape == (7, data.grid.size, 2)
        for u, y in zip(stack, got):
            assert np.array_equal(y, evaluate(model, Signal(data.grid, u)).values)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gram_matches_per_pair_blocks(p):
    rng = np.random.default_rng(54)
    specs = [bilinear(), polynomial(1.0, 2), gaussian(1.5), laplacian(1.5),
             scaled_laplacian(), inverse_power(1.0, 2.0), stable_spline(0.7)]
    assert {spec.kind for spec in specs} == set(SCALAR_KINDS)
    R = np.array([[1.0, 0.3, 0.1], [0.3, 0.6, 0.2], [0.1, 0.2, 0.8]])[:p, :p]
    for spec in specs:
        kind = spec.kind
        # the stable spline acts on nonnegative one-sample scalars only
        grid, m = (TimeGrid(0), 1) if kind == "stable_spline" else (TimeGrid(3), 2)
        inputs = tuple(Signal(grid, np.abs(rng.normal(size=(grid.size, m))))
                       for _ in range(4))
        for kernel in oracle.structures(spec, R):
            side = grid.size * p
            want = np.zeros((4 * side, 4 * side))
            for i, ui in enumerate(inputs):
                for j, uj in enumerate(inputs):
                    want[i * side:(i + 1) * side, j * side:(j + 1) * side] = \
                        oracle.block_matrix(kernel, ui, uj)
            scale = np.abs(want).max()
            # the auto form is the factored one wherever the kernel allows
            for layout in ("dense", "auto"):
                gram = build_gram(kernel, stacked(inputs), layout=layout)
                assert np.abs(gram.dense - want).max() <= 1e-12 * scale, \
                    (kind, kernel, layout)


def test_sum_of_separables_fits_at_wide_size():
    # n=200, tau=20, p=2: the full side 8400 is over DENSE_CAP, while the
    # one block this uniform kernel shares over time has side 400
    rng = np.random.default_rng(66)
    data = _random_dataset(rng, n=200, tau=20, m=2, p=2)
    R = np.array([[1.0, 0.3], [0.3, 0.6]])
    children = (SeparableKernel(gaussian(2.0), R),
                SeparableKernel(scaled_laplacian(), np.eye(2)))
    kernel = SumKernel((0.6, 0.3), children)
    gram = build_gram(kernel, data.inputs)
    assert gram.layout == "dense" and gram.blocks.shape == (1, 400, 400)
    assert gram.dim > rkhs.DENSE_CAP
    want = sum(w * np.kron(build_gram(child, data.inputs).blocks[0], child.R)
               for w, child in zip(kernel.weights, children))
    assert np.abs(gram.blocks[0] - want).max() <= 1e-12 * np.abs(want).max()
    model = fit(kernel, data, gamma=0.1)
    assert abs(rkhs_norm(model) - model.rkhs_norm) <= 1e-12 * model.rkhs_norm


def _layout_kernel(layout, conjugated=False):
    """A p = 2 kernel whose Gram takes the given layout under "auto"; the
    dense one has two distinct channel matrices, R and I."""
    if conjugated:
        return ConjugatedKernel(gaussian(2.0), np.array([[0.7, 0.0], [0.2, 0.5]]))
    sep = SeparableKernel(gaussian(2.0), np.array([[1.0, 0.3], [0.3, 0.6]]))
    if layout == "dense":
        return CausalDiagonalKernel(SumKernel(
            (0.5, 0.5), (sep, SeparableKernel(gaussian(2.0), np.eye(2)))))
    return sep


@pytest.mark.parametrize("layout", ["dense", "kronecker", "causal"])
def test_one_factorization_per_gram(monkeypatch, layout):
    rng = np.random.default_rng(61)
    data = _random_dataset(rng, n=5, tau=3, p=2)
    kernel = (CausalDiagonalKernel(_layout_kernel("kronecker"))
              if layout == "causal" else _layout_kernel(layout))
    calls = {"eigh": [], "cholesky": []}
    for name in calls:
        def counted(a, *args, _real=getattr(np.linalg, name), _log=calls[name],
                    **kwargs):
            _log.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    # the stack of time blocks, then the channel matrix: dense, 4 blocks of
    # 5 centers x 2 channels and M = [[1]]; kronecker, the scalar Gram and
    # R; causal with a shared child, 4 blocks of 5 centers and R
    want = {"dense": [(4, 10, 10), (1, 1)], "kronecker": [(1, 5, 5), (2, 2)],
            "causal": [(4, 5, 5), (2, 2)]}[layout]
    tune_gamma(kernel, data, rho=0.5)
    assert calls["eigh"] == want
    calls["eigh"].clear()
    assert len(fit_many(kernel, data, np.geomspace(1e-3, 10.0, 5))) == 5
    assert calls["eigh"] == want
    assert calls["cholesky"] == []


@pytest.mark.parametrize("layout, conjugated",
                         [("dense", False), ("kronecker", False),
                          ("kronecker", True)])
def test_fit_many_matches_dense_solve(layout, conjugated):
    rng = np.random.default_rng(62)
    data = _random_dataset(rng, n=4, tau=3, p=2)
    kernel = _layout_kernel(layout, conjugated)
    assert build_gram(kernel, data.inputs).layout == layout
    G = build_gram(kernel, data.inputs, layout="dense").dense
    y = data.outputs.reshape(-1)
    lam, Q = np.linalg.eigh(G)
    lam = np.clip(lam, 0.0, None)
    w = Q.T @ y
    gammas = [1e-3, 1e-1, 10.0]
    for gamma, model in zip(gammas, fit_many(kernel, data, gammas)):
        want = np.linalg.solve(G + gamma * np.eye(len(y)), y)
        c = model.coefficients.reshape(-1)
        assert model.gamma == gamma
        assert np.abs(c - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        norm_eig = np.linalg.norm(np.sqrt(lam) / (lam + gamma) * w)
        assert abs(model.rkhs_norm - norm_eig) <= 1e-10


@pytest.mark.parametrize("layout", ["dense", "kronecker"])
def test_singular_gram_raises(layout):
    rng = np.random.default_rng(63)
    grid = TimeGrid(3)
    u = random_signal(grid, 1, rng)
    data = Dataset((u, u, random_signal(grid, 1, rng)),
                   tuple(random_signal(grid, 2, rng) for _ in range(3)))
    with pytest.raises(NumericalError):
        fit(_layout_kernel(layout), data, gamma=1e-300)
    # an indefinite matrix in the Gram's place: eigenvalues -1 and 3
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    kernel = SeparableKernel(gaussian(2.0), np.eye(2))
    centers = np.zeros((2, 1, 1))
    gram = (GramOperator(kernel, centers, np.kron(bad, kernel.R)[None],
                         np.eye(1))
            if layout == "dense" else
            GramOperator(kernel, centers, bad[None], kernel.R))
    assert gram.layout == layout
    spectral = Spectral(gram, np.ones((2, 1, 2)))
    with pytest.raises(NumericalError, match="min Gram eigenvalue -1"):
        spectral.solve(0.5)
    assert spectral.solve(1.5).shape == (2, 1, 2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kronecker_products_match_dense(p):
    rng = np.random.default_rng(64 + p)
    data = _random_dataset(rng, n=5, tau=3, m=2, p=p)
    A = rng.normal(size=(p, p))
    kernel = SeparableKernel(gaussian(2.0), A @ A.T + 0.1 * np.eye(p))
    gram = build_gram(kernel, data.inputs, layout="kronecker")
    D = gram.dense
    c = rng.normal(size=(5, 4, p))

    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel_err(gram.apply(c).reshape(-1), D @ c.reshape(-1)) <= 1e-12
    assert rel_err(gram.quad(c), c.reshape(-1) @ D @ c.reshape(-1)) <= 1e-12
    y = data.outputs
    spectral = Spectral(gram, y)
    for gamma in (1e-2, 1.0, 10.0):
        want = np.linalg.solve(D + gamma * np.eye(len(D)), y.reshape(-1))
        assert rel_err(spectral.solve(gamma).reshape(-1), want) <= 1e-12


def _factoring_kernel(structure, spec, rng, p, steps):
    """A kernel of the named structure over spec and random PSD channel
    matrices; "per-sample-distinct" alone has more than one of them."""
    A = rng.normal(size=(p, p))
    R = A @ A.T + 0.1 * np.eye(p)
    sep = SeparableKernel(spec, R)
    if structure == "separable":
        return sep
    if structure == "causal-shared":
        return CausalDiagonalKernel(sep)
    if structure == "per-sample-shared":
        specs = (spec, scaled_laplacian(), gaussian(1.0))
        return CausalDiagonalKernel(tuple(
            SeparableKernel(specs[t % 3], R) for t in range(steps)))
    if structure == "per-sample-distinct":
        return CausalDiagonalKernel(tuple(
            SeparableKernel(spec, (1.0 + t) * R) for t in range(steps)))
    assert structure == "sum-shared"
    return SumKernel((0.6, 0.3), (sep, SeparableKernel(scaled_laplacian(), R)))


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3),
       n=st.integers(1, 5), tau=st.integers(0, 4),
       spec=st.sampled_from([gaussian(1.5), scaled_laplacian(), bilinear(),
                             polynomial(1.0, 2)]),
       structure=st.sampled_from(["separable", "causal-shared",
                                  "per-sample-shared", "per-sample-distinct",
                                  "sum-shared"]),
       gamma=st.sampled_from([0.1, 1.0, 10.0]),
       lane_budget=st.sampled_from([1, rkhs.LANE_BUDGET]))
def test_factored_and_dense_forms_agree(seed, p, n, tau, spec, structure,
                                        gamma, lane_budget):
    rng = np.random.default_rng(seed)
    data = _random_dataset(rng, n=n, tau=tau, m=2, p=p)
    kernel = _factoring_kernel(structure, spec, rng, p, tau + 1)
    # a budget of 1 assembles the Gram one row of centers at a time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rkhs, "LANE_BUDGET", lane_budget)
        auto = build_gram(kernel, data.inputs)
        dense = build_gram(kernel, data.inputs, layout="dense")
    factors = structure != "per-sample-distinct" or tau == 0
    assert auto.M.shape == ((p, p) if factors else (1, 1)), structure
    assert dense.M.shape == (1, 1)

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(),
                                                       1e-300)

    c = rng.normal(size=(n, tau + 1, p))
    close(auto.apply(c), dense.apply(c))
    close(auto.quad(c), dense.quad(c))
    close(auto.trace(), dense.trace())
    close(auto.dense, dense.dense)
    y = data.outputs
    fast, slow = Spectral(auto, y), Spectral(dense, y)
    close(fast.solve(gamma), slow.solve(gamma))
    close(fast.norm(gamma), slow.norm(gamma))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 2),
       layout=st.sampled_from(["kronecker", "dense"]),
       rho=st.floats(min_value=1e-6, max_value=1.0),
       rel_tol=st.sampled_from([1e-3, 1e-9, 0.0]))
def test_tune_gamma_stored_norm_within_rho(seed, p, layout, rho, rel_tol):
    rng = np.random.default_rng(seed)
    data = _random_dataset(rng, n=3, tau=2, p=p, scale=float(rng.uniform(0.1, 5)))
    A = rng.normal(size=(p, p))
    kernel = SeparableKernel(gaussian(2.0), A @ A.T + 0.1 * np.eye(p))
    if layout == "dense":  # a second channel matrix: the Gram does not factor
        kernel = SumKernel((0.5, 0.5), (kernel, SeparableKernel(gaussian(2.0),
                                                                np.eye(p))))
    if p > 1:  # at p = 1 the two layouts coincide
        assert build_gram(kernel, data.inputs).layout == layout
    gamma, model = tune_gamma(kernel, data, rho, rel_tol=rel_tol)
    assert model.gamma == gamma
    assert model.rkhs_norm <= rho


def test_increment_bound_from_norm():
    rng = np.random.default_rng(50)
    data = _random_dataset(rng, n=4)
    kernel = SeparableKernel(scaled_laplacian(), np.eye(1))
    model = fit(kernel, data, gamma=0.01)
    for _ in range(50):
        u = random_signal(data.grid, 1, rng)
        v = random_signal(data.grid, 1, rng)
        lhs = norm(evaluate(model, u) - evaluate(model, v))
        bound = model.rkhs_norm * np.sqrt(
            max(oracle.second_difference_norm(kernel, u, v), 0.0)
        )
        assert lhs <= bound * (1 + 1e-9) + 1e-12


def test_tune_gamma_contract():
    rng = np.random.default_rng(51)
    data = _random_dataset(rng, n=5, scale=2.0)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    gamma, model = tune_gamma(kernel, data, rho=1.0)
    assert 1.0 - 2e-3 <= model.rkhs_norm <= 1.0
    gamma9, model9 = tune_gamma(kernel, data, rho=0.9)
    assert 0.9 * (1 - 2e-3) <= model9.rkhs_norm <= 0.9
    assert gamma9 > gamma


def test_tune_gamma_zero_targets():
    rng = np.random.default_rng(52)
    grid = TimeGrid(3)
    data = Dataset(
        tuple(random_signal(grid, 1, rng) for _ in range(3)),
        tuple(zeros(grid) for _ in range(3)),
    )
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    gamma, model = tune_gamma(kernel, data, rho=1.0)
    assert model.rkhs_norm == 0.0
    gram = build_gram(kernel, data.inputs)
    assert gamma == pytest.approx(gram.trace() / (3 * grid.size), rel=1e-12)


def test_tune_gamma_unreachable_target_saturates():
    # interpolation itself has norm < rho, so tuning hits the curve plateau
    rng = np.random.default_rng(53)
    grid = TimeGrid(2)
    u1 = Signal(grid, [0.0, 0.0, 0.0])
    u2 = Signal(grid, [5.0, 5.0, 5.0])
    small = 1e-3
    data = Dataset(
        (u1, u2),
        (small * random_signal(grid, 1, rng), small * random_signal(grid, 1, rng)),
    )
    kernel = SeparableKernel(gaussian(np.sqrt(2.0)), np.eye(1))
    gamma, model = tune_gamma(kernel, data, rho=1.0)
    assert model.rkhs_norm < 0.5
    assert gamma > 0


def test_tune_gamma_shrink_search_running_out(monkeypatch):
    # the norm at the mean Gram diagonal meets rho and keeps changing as
    # gamma halves, so with two halvings allowed tuning ends at a quarter
    # of it
    monkeypatch.setattr(rkhs, "SEARCH_LIMIT", 2)
    rng = np.random.default_rng(57)
    data = _random_dataset(rng, n=5, scale=0.01)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    gram = build_gram(kernel, data.inputs)
    gamma, model = tune_gamma(kernel, data, rho=1.0)
    assert gamma == gram.trace() / gram.dim / 4
    assert model.gamma == gamma
    assert model.rkhs_norm <= 1.0


def test_norm_curve_counts_zero_over_zero_as_zero():
    # a zero center gives the bilinear Gram an exact zero eigenvalue; at
    # gamma = 1e-170, (0 + gamma)^2 underflows to 0 and that term is 0 / 0
    grid = TimeGrid(2)
    rng = np.random.default_rng(58)
    data = Dataset((zeros(grid), random_signal(grid, 1, rng)),
                   (random_signal(grid, 1, rng), random_signal(grid, 1, rng)))
    gram = build_gram(SeparableKernel(bilinear(), np.eye(1)), data.inputs)
    spectral = Spectral(gram, data.outputs)
    assert (spectral._lam_pos == 0.0).any()
    with np.errstate(all="ignore"):
        assert np.isnan((spectral._lam_pos * spectral._weight
                         / (spectral._lam_pos + 1e-170) ** 2).sum())
    norm = spectral.norm(1e-170)
    assert 0.0 < norm == spectral.norm(1e-100)


def test_tune_gamma_validations():
    rng = np.random.default_rng(54)
    data = _random_dataset(rng)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    with pytest.raises(ValueError):
        tune_gamma(kernel, data, rho=0.0)
    with pytest.raises(ValueError):
        tune_gamma(kernel, data, rho=1.5)


@pytest.mark.parametrize("run", [
    lambda kernel, data: fit(kernel, data, gamma=0.1),
    lambda kernel, data: fit_many(kernel, data, [0.1, 1.0]),
    lambda kernel, data: tune_gamma(kernel, data, rho=0.5),
], ids=["fit", "fit_many", "tune_gamma"])
@pytest.mark.parametrize("kernel_p, data_p", [(2, 1), (1, 2)])
def test_kernel_output_dim_must_match_data(run, kernel_p, data_p):
    data = _random_dataset(np.random.default_rng(55), p=data_p)
    kernel = SeparableKernel(gaussian(2.0), np.eye(kernel_p))
    with pytest.raises(ShapeError,
                       match=f"kernel output dim {kernel_p} != data {data_p}"):
        run(kernel, data)


def test_objective_optimality():
    rng = np.random.default_rng(55)
    data = _random_dataset(rng, n=3, tau=2)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    gamma = 0.1
    model = fit(kernel, data, gamma)

    def objective(coeffs):
        gram = build_gram(kernel, data.inputs)
        pred = gram.apply(coeffs)
        resid = sum(
            np.sum((pred[j] - data.outputs[j]) ** 2)
            for j in range(data.n)
        )
        return resid + gamma * gram.quad(coeffs)

    base = np.array(model.coefficients)
    best = objective(base)
    for _ in range(10):
        trial = base + 1e-2 * rng.normal(size=base.shape)
        assert objective(trial) >= best - 1e-12


def test_risk_extremes():
    rng = np.random.default_rng(56)
    data = _random_dataset(rng, n=3)
    kernel = SeparableKernel(gaussian(np.sqrt(2.0)), np.eye(1))
    tight = fit(kernel, data, gamma=1e-10)
    assert empirical_risk(tight, data) <= 1e-8
    loose = fit(kernel, data, gamma=1e12)
    assert empirical_risk(loose, data) == pytest.approx(
        sum(norm(Signal(data.grid, y)) ** 2 for y in data.outputs), rel=1e-9
    )


def test_training_risk_past_gamma_squared_overflow():
    # gamma^2 overflows a float beyond 1.34e154; the risk ||gamma c||^2 stays
    # finite, and below that it is gamma^2 ||c||^2 to the last bit
    rng = np.random.default_rng(57)
    data = _random_dataset(rng, n=3)
    kernel = SeparableKernel(gaussian(np.sqrt(2.0)), np.eye(1))
    finite, huge = fit_many(kernel, data, [1e150, 1e300])
    coeff = finite.coefficients
    assert finite.training_risk == 1e150**2 * float(np.vdot(coeff, coeff))
    assert huge.training_risk == pytest.approx(
        sum(norm(Signal(data.grid, y)) ** 2 for y in data.outputs), rel=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_training_risk_matches_empirical_risk(p):
    rng = np.random.default_rng(67)
    data = _random_dataset(rng, n=4, tau=3, m=2, p=p)
    R = np.array([[1.0, 0.3], [0.3, 0.6]])[:p, :p]
    for kernel in oracle.structures(gaussian(2.0), R):
        models = fit_many(kernel, data, [1e-2, 1.0, 100.0])
        models.append(tune_gamma(kernel, data, rho=0.5)[1])
        for model in models:
            want = empirical_risk(model, data)
            assert abs(model.training_risk - want) <= 1e-12 * want, kernel


def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(57)
    data = _random_dataset(rng, n=4, tau=3)
    kernel = SeparableKernel(scaled_laplacian(), np.eye(1))
    model = fit(kernel, data, gamma=0.05)
    save_fitted(model, tmp_path / "bundle", extra={"note": 1})
    back = load_fitted(tmp_path / "bundle")
    assert back.gamma == model.gamma
    assert back.rkhs_norm == pytest.approx(model.rkhs_norm, rel=1e-12)
    assert np.array_equal(model.coefficients, back.coefficients)
    probe = random_signal(data.grid, 1, rng)
    assert norm(evaluate(model, probe) - evaluate(back, probe)) == 0.0


def test_bundle_detects_tampering(tmp_path):
    rng = np.random.default_rng(58)
    data = _random_dataset(rng, n=3, tau=2)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    model = fit(kernel, data, gamma=0.05)
    save_fitted(model, tmp_path / "bundle")
    coeff = tmp_path / "bundle" / "coefficients.npy"
    stack = np.load(coeff)
    stack[1, 1, 0] += 0.5
    np.save(coeff, stack)
    with pytest.raises(NumericalError):
        load_fitted(tmp_path / "bundle")


def test_bundle_header_is_checked_before_data(tmp_path):
    # a manifest and a header that agree on a huge shape: the size check
    # refuses the file before any of its data is read or allocated
    rng = np.random.default_rng(61)
    model = fit(SeparableKernel(gaussian(2.0), np.eye(1)),
                _random_dataset(rng, n=3, tau=2), gamma=0.05)
    bundle = tmp_path / "bundle"
    manifest = save_fitted(model, bundle)
    n = 10**12
    meta = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**meta, "n": n}))
    path = bundle / "centers.npy"
    with path.open("rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        data = fh.read()
    with path.open("wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (n, 3, 1)})
        fh.write(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                         f"{len(data)} bytes of data, but its "
                                         f"header declares {8 * n * 3}$"):
        load_fitted(bundle)


def test_bundle_of_no_trajectories_names_its_manifest(tmp_path):
    rng = np.random.default_rng(64)
    model = fit(SeparableKernel(gaussian(2.0), np.eye(1)),
                _random_dataset(rng, n=3, tau=2), gamma=0.05)
    manifest = save_fitted(model, tmp_path)
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "n": 0}))
    for name in ("centers.npy", "coefficients.npy", "targets.npy"):
        np.save(tmp_path / name, np.zeros((0, 3, 1)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: "
                                         "n must be an integer at least 1, got 0"):
        load_fitted(tmp_path)


def _bundle_kernel(structure, p, steps, rng):
    B = rng.standard_normal((p, p))
    R = B @ B.T / p + 0.1 * np.eye(p)
    sep = SeparableKernel(gaussian(2.0), R)
    per_sample = tuple(SeparableKernel(scaled_laplacian(), (0.5 + 0.1 * t) * R)
                       for t in range(steps))
    return {"separable": sep,
            "sum": SumKernel((0.6, 0.3), (sep, CausalDiagonalKernel(per_sample))),
            "causal-shared": CausalDiagonalKernel(sep),
            "causal-per-sample": CausalDiagonalKernel(per_sample)}[structure]


@settings(max_examples=40)
@given(structure=st.sampled_from(["separable", "sum", "causal-shared",
                                  "causal-per-sample"]),
       n=st.integers(1, 6), tau=st.integers(0, 4), m=st.integers(1, 2),
       p=st.integers(1, 3), gamma=st.sampled_from([1e-3, 0.05, 1.0]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bundle_round_trip_property(tmp_path_factory, structure, n, tau, m, p,
                                    gamma, seed, data):
    rng = np.random.default_rng(seed)
    train = _random_dataset(rng, n=n, tau=tau, m=m, p=p)
    model = fit(_bundle_kernel(structure, p, tau + 1, rng), train, gamma=gamma)
    bundle = tmp_path_factory.mktemp("bundle")
    save_fitted(model, bundle)
    assert sorted(f.name for f in bundle.iterdir()) == [
        "centers.npy", "coefficients.npy", "model.json", "targets.npy"]
    for name, stack in (("centers.npy", model.centers),
                        ("coefficients.npy", model.coefficients),
                        ("targets.npy", model.targets)):
        saved = np.load(bundle / name, allow_pickle=False)
        assert saved.dtype.str == "<f8" and saved.flags.c_contiguous
        assert saved.shape == (n, tau + 1, m if name == "centers.npy" else p)
        assert saved.tobytes() == stack.tobytes()
    back = load_fitted(bundle)
    for a, b in ((model.centers, back.centers),
                 (model.coefficients, back.coefficients)):
        assert a.tobytes() == b.tobytes()
    assert back.targets.tobytes() == model.targets.tobytes()
    probe = random_signal(train.grid, m, rng)
    assert evaluate(back, probe).values.tobytes() == \
        evaluate(model, probe).values.tobytes()
    # one element of a stacked coefficient or target file moved by 0.5
    path = bundle / data.draw(st.sampled_from(["coefficients.npy",
                                               "targets.npy"]))
    stack = np.load(path)
    stack[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, tau)),
          data.draw(st.integers(0, p - 1))] += 0.5
    np.save(path, stack)
    with pytest.raises(NumericalError):
        load_fitted(bundle)


def test_bundle_detects_norm_mismatch(tmp_path):
    rng = np.random.default_rng(59)
    data = _random_dataset(rng, n=3, tau=2)
    kernel = SeparableKernel(gaussian(2.0), np.eye(1))
    model = fit(kernel, data, gamma=0.05)
    save_fitted(model, tmp_path / "bundle")
    meta = tmp_path / "bundle" / "model.json"
    text = meta.read_text().replace(
        f'"rkhs_norm": {model.rkhs_norm}', '"rkhs_norm": 0.123'
    )
    assert text != meta.read_text()
    meta.write_text(text)
    with pytest.raises(NumericalError):
        load_fitted(tmp_path / "bundle")


def test_save_fitted_reuses_the_fit_targets(tmp_path, monkeypatch):
    rng = np.random.default_rng(60)
    data = _random_dataset(rng, n=4, tau=3)
    model = fit(SeparableKernel(gaussian(2.0), np.eye(1)), data, gamma=0.05)
    builds = []
    monkeypatch.setattr(rkhs, "build_gram",
                        lambda *a, **k: builds.append(a) or build_gram(*a, **k))
    save_fitted(model, tmp_path / "carried")
    assert builds == []
    # the stored targets are G c + gamma c of a Gram built afresh
    coeff = model.coefficients
    rebuilt = build_gram(model.kernel, model.centers).apply(coeff) \
        + model.gamma * coeff
    assert np.load(tmp_path / "carried" / "targets.npy").tobytes() == \
        rebuilt.tobytes()
