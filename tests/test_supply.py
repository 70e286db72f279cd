import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcfit import kernels
from iqcfit.errors import ShapeError, SignatureError
from iqcfit.signals import (Dataset, Signal, TimeGrid, constant_signal, norm,
                            random_signal, stacked)
from iqcfit.supply import (
    SupplyRate,
    check_operator_iiqc,
    factor_phi,
    gain_supply,
    iiqc_residual,
    passivity_supply,
    scatter_dataset,
    supply_from_json,
    supply_to_json,
)

ROOT2 = np.sqrt(2.0)


def test_signature_examples():
    SupplyRate(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1)
    SupplyRate(np.diag([4.0, -1.0]), 1, 1)
    with pytest.raises(SignatureError, match="2 positive / 0 negative"):
        SupplyRate(np.diag([1.0, 1.0]), 1, 1)
    with pytest.raises(SignatureError, match="singular within tolerance"):
        SupplyRate(np.diag([1.0, 0.0]), 1, 1)
    with pytest.raises(ShapeError):
        SupplyRate(np.array([[0.0, 1.0], [0.5, 0.0]]), 1, 1)
    with pytest.raises(ShapeError):
        SupplyRate(np.eye(3), 1, 1)


@settings(max_examples=150)
@given(m=st.integers(1, 3), data=st.data())
def test_one_decomposition_checks_and_factors(m, data):
    # Phi = Q diag(e) Q' of any inertia (m', p') with m' + p' = m + p: the
    # rate accepts exactly the requested inertia, and then M' Sigma M = Phi
    # and M N = I; an eigenvalue shrunk below the singularity floor is
    # refused whatever the inertia
    p = data.draw(st.integers(1, 4 - m), label="p")
    d = m + p
    positive = data.draw(st.integers(0, d), label="m'")
    size = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=d,
                                       max_size=d), label="|e|"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))[0]
    eig = size * np.repeat([1.0, -1.0], [positive, d - positive])

    def matrix(e):
        phi = (Q * e) @ Q.T
        return (phi + phi.T) / 2

    phi = matrix(eig)
    if positive != m:
        with pytest.raises(SignatureError, match="positive / "):
            SupplyRate(phi, m, p)
    else:
        f = factor_phi(SupplyRate(phi, m, p))
        sigma = np.diag(np.repeat([1.0, -1.0], [m, p]))
        assert np.abs(f.M.T @ sigma @ f.M - phi).max() <= 1e-10 * np.abs(phi).max()
        assert np.abs(f.M @ f.N - np.eye(d)).max() <= 1e-12
    k = data.draw(st.integers(0, d - 1), label="shrunk")
    eig[k] = np.copysign(1e-12 * size.max(), eig[k])
    with pytest.raises(SignatureError, match="singular within tolerance"):
        SupplyRate(matrix(eig), m, p)


def test_each_matrix_is_decomposed_once(monkeypatch):
    # building a supply takes one eigh, factoring it none, and a kernel
    # certificate reads the spectral radius its kernel kept
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    supply = SupplyRate(np.array([[2.0, 1.0], [1.0, -1.0]]), 1, 1)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    for _ in range(3):
        assert factor_phi(supply) is supply
    assert calls == {"eigh": 1, "eigvalsh": 0}
    kernel = kernels.SeparableKernel(kernels.bilinear(), np.diag([0.5, 1.0]))
    assert calls == {"eigh": 1, "eigvalsh": 1}
    assert kernel.radius == 1.0
    assert kernels.certify_nonexpansive(kernel) == kernels.PROVEN
    assert kernels.certify_bounded(kernel) == kernels.PROVEN
    assert calls == {"eigh": 1, "eigvalsh": 1}


def test_factor_passivity_is_canonical_scattering():
    f = factor_phi(passivity_supply(1))
    want = (ROOT2 / 2) * np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(f.M, want, atol=1e-14)
    assert np.allclose(f.N, want, atol=1e-14)


def test_factor_gain_is_diagonal():
    f = factor_phi(gain_supply(4.0))
    assert np.allclose(f.M, np.diag([2.0, 1.0]), atol=1e-14)
    assert np.allclose(f.N, np.diag([0.5, 1.0]), atol=1e-14)


def test_factor_identity_sweep():
    # random nonsingular A gives a valid two-sided-signature matrix A' Sigma A
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        d = m + p
        while True:
            A = rng.normal(size=(d, d))
            if abs(np.linalg.det(A)) > 1e-3:
                break
        sigma = np.diag(np.concatenate([np.ones(m), -np.ones(p)]))
        phi = A.T @ sigma @ A
        supply = SupplyRate(phi, m, p)
        f = factor_phi(supply)
        recon = f.M.T @ sigma @ f.M
        assert np.abs(recon - phi).max() <= 1e-10 * max(1.0, np.abs(phi).max())
        assert np.abs(f.M @ f.N - np.eye(d)).max() <= 1e-10


def test_scatter_identity_factor_keeps_dataset():
    rng = np.random.default_rng(12)
    grid = TimeGrid(4)
    data = Dataset(
        (random_signal(grid, 1, rng),), (random_signal(grid, 1, rng),)
    )
    f = SupplyRate(np.diag([1.0, -1.0]), 1, 1)  # Phi = Sigma factors as I
    assert np.array_equal(f.M, np.eye(2)) and np.array_equal(f.N, np.eye(2))
    out = scatter_dataset(data, f)
    assert np.array_equal(out.inputs[0], data.inputs[0])
    assert np.array_equal(out.outputs[0], data.outputs[0])


def test_scatter_constant_ones():
    grid = TimeGrid(3)
    data = Dataset(
        (constant_signal(grid, 1.0),), (constant_signal(grid, 1.0),)
    )
    f = factor_phi(passivity_supply(1))
    out = scatter_dataset(data, f)
    assert np.allclose(out.inputs[0], ROOT2, atol=1e-14)
    assert np.allclose(out.outputs[0], 0.0, atol=1e-14)


@given(m=st.integers(1, 3), p=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_scatter_round_trip(m, p, seed):
    # a supply of inertia (m, p): m positive and p negative eigenvalues
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(m + p, m + p)))[0]
    eig = rng.uniform(0.5, 2.0, m + p) * np.repeat([1.0, -1.0], [m, p])
    phi = (Q * eig) @ Q.T
    phi = (phi + phi.T) / 2
    f = factor_phi(SupplyRate(phi, m, p))
    sigma = np.diag(np.repeat([1.0, -1.0], [m, p]))
    assert np.abs(f.M.T @ sigma @ f.M - phi).max() <= 1e-12
    grid = TimeGrid(5)
    data = Dataset(
        tuple(random_signal(grid, m, rng) for _ in range(3)),
        tuple(random_signal(grid, p, rng) for _ in range(3)),
    )
    scattered = scatter_dataset(data, f)
    for u, y, v, z in zip(data.inputs, data.outputs,
                          scattered.inputs, scattered.outputs):
        # N = M^-1 maps (v, z) back to (u, y)
        back_u = v @ f.n11.T + z @ f.n12.T
        back_y = v @ f.n21.T + z @ f.n22.T
        assert np.abs(back_u - u).max() <= 1e-12 * max(1.0, np.abs(u).max())
        assert np.abs(back_y - y).max() <= 1e-12 * max(1.0, np.abs(y).max())


def test_iiqc_residual_zero_increment():
    rng = np.random.default_rng(14)
    grid = TimeGrid(4)
    u = random_signal(grid, 1, rng)
    y = random_signal(grid, 1, rng)
    assert iiqc_residual(passivity_supply(1), u, u, y, y) == 0.0


def test_iiqc_residual_linear_gain_case():
    rng = np.random.default_rng(15)
    grid = TimeGrid(6)
    u = random_signal(grid, 1, rng)
    v = random_signal(grid, 1, rng)
    got = iiqc_residual(gain_supply(1.0), u, v, 0.5 * u, 0.5 * v)
    assert got == pytest.approx(0.75 * norm(u - v) ** 2, rel=1e-12)
    assert got >= 0.0


def test_iiqc_residual_horizons():
    grid = TimeGrid(2)
    u = Signal(grid, [1.0, 1.0, 1.0])
    v = Signal(grid, [0.0, 0.0, 0.0])
    y = Signal(grid, [1.0, -1.0, 0.0])
    z = Signal(grid, [0.0, 0.0, 0.0])
    # partial sums of 2*(u-v)*(y-z): 2, 0, 0
    assert iiqc_residual(passivity_supply(1), u, v, y, z, horizon=0) == 2.0
    assert iiqc_residual(passivity_supply(1), u, v, y, z, horizon=1) == 0.0
    assert iiqc_residual(passivity_supply(1), u, v, y, z) == 0.0


def test_check_identity_passes_and_negation_fails():
    rng = np.random.default_rng(16)
    grid = TimeGrid(5)
    probes = [
        (random_signal(grid, 1, rng), random_signal(grid, 1, rng))
        for _ in range(20)
    ]
    ok = check_operator_iiqc(lambda u: u, passivity_supply(1), probes)
    assert ok.passed
    assert ok.min_residual >= 0.0
    bad = check_operator_iiqc(lambda us: [-1.0 * u for u in us],
                              passivity_supply(1), probes)
    assert not bad.passed
    assert bad.min_residual < 0.0


def test_check_all_horizons_mode():
    rng = np.random.default_rng(17)
    grid = TimeGrid(5)
    probes = [
        (random_signal(grid, 1, rng), random_signal(grid, 1, rng))
        for _ in range(10)
    ]
    rep = check_operator_iiqc(lambda u: u, passivity_supply(1), probes,
                              mode="all-horizons")
    assert rep.passed
    with pytest.raises(ValueError):
        check_operator_iiqc(lambda u: u, passivity_supply(1), probes,
                            mode="partial")


@pytest.mark.parametrize("mode", ["full", "all-horizons"])
def test_check_matches_pairwise_residuals(mode):
    # m = 2, p = 3 under a gain supply: every pair's residual is its
    # accumulated supply at the horizon (full) or at its worst truncation,
    # and the report names the first worst pair and where it ends
    rng = np.random.default_rng(21)
    grid = TimeGrid(6)
    gain = rng.standard_normal((3, 2))
    supply = gain_supply(0.7, m=2, p=3)
    op = lambda us: us @ gain.T
    probes = [(random_signal(grid, 2, rng), random_signal(grid, 2, rng))
              for _ in range(12)]
    rep = check_operator_iiqc(op, supply, probes, mode=mode)
    outs = [Signal(grid, y)
            for y in op(stacked([x for pair in probes for x in pair]))]
    horizons = [grid.tau] if mode == "full" else range(grid.size)
    expected = [min(iiqc_residual(supply, u, v, outs[2 * i], outs[2 * i + 1],
                                  horizon=h) for h in horizons)
                for i, (u, v) in enumerate(probes)]
    np.testing.assert_allclose(rep.residuals, expected, rtol=1e-12,
                               atol=1e-12)
    assert rep.worst_pair == int(np.argmin(rep.residuals))
    assert rep.min_residual == rep.residuals[rep.worst_pair]
    u, v = probes[rep.worst_pair]
    assert iiqc_residual(supply, u, v, outs[2 * rep.worst_pair],
                         outs[2 * rep.worst_pair + 1],
                         horizon=rep.worst_horizon) == \
        pytest.approx(rep.min_residual, rel=1e-12, abs=1e-12)
    assert rep.passed == (rep.min_residual >= -rep.tolerance)


def test_check_of_no_probes_and_of_two_grids():
    empty = check_operator_iiqc(lambda us: us, passivity_supply(1), [])
    assert empty == (0.0, -1, -1, 0.0, True, ())
    rng = np.random.default_rng(22)
    probes = [(random_signal(TimeGrid(4, dt), 1, rng),
               random_signal(TimeGrid(4, dt), 1, rng)) for dt in (1.0, 0.5)]
    with pytest.raises(ShapeError):
        check_operator_iiqc(lambda us: us, passivity_supply(1), probes)


def _closed_form_s(factors: SupplyRate, r: float) -> float:
    m11 = float(factors.m11[0, 0])
    m12 = float(factors.m12[0, 0])
    m21 = float(factors.m21[0, 0])
    m22 = float(factors.m22[0, 0])
    return (m21 + m22 * r) / (m11 + m12 * r)


def test_scattering_equivalence_for_linear_operators():
    # supply constraint on R = r*I holds exactly when the induced scattered
    # map S = s*I has |s| <= 1
    rng = np.random.default_rng(18)
    grid = TimeGrid(6)
    f = factor_phi(passivity_supply(1))
    probes = [
        (random_signal(grid, 1, rng), random_signal(grid, 1, rng))
        for _ in range(25)
    ]
    for r in (-0.5, 0.0, 0.3, 1.0, 2.0, 5.0, -2.0):
        rep = check_operator_iiqc(lambda us, r=r: [r * u for u in us],
                                  passivity_supply(1), probes, tol=1e-12)
        s = _closed_form_s(f, r)
        assert rep.passed == (abs(s) <= 1.0 + 1e-12), (r, s)


def test_scatter_of_linear_graph_is_linear_graph():
    # y = r u maps to z = s v with the closed-form scalar s
    rng = np.random.default_rng(19)
    grid = TimeGrid(4)
    f = factor_phi(passivity_supply(1))
    for r in (-0.25, 0.5, 3.0):
        u = random_signal(grid, 1, rng)
        data = Dataset((u,), (r * u,))
        sc = scatter_dataset(data, f)
        s = _closed_form_s(f, r)
        assert np.abs(sc.outputs[0] - s * sc.inputs[0]).max() \
            <= 1e-12


def test_causal_all_horizons_includes_full():
    rng = np.random.default_rng(20)
    grid = TimeGrid(4)
    probes = [
        (random_signal(grid, 1, rng), random_signal(grid, 1, rng))
        for _ in range(10)
    ]
    every = check_operator_iiqc(lambda u: u, passivity_supply(1), probes,
                                mode="all-horizons")
    full = check_operator_iiqc(lambda u: u, passivity_supply(1), probes,
                               mode="full")
    assert every.passed
    assert full.passed
    assert every.min_residual <= full.min_residual + 1e-15


def test_supply_json_round_trip():
    for supply in (passivity_supply(2), gain_supply(3.0, m=1, p=2),
                   SupplyRate(np.array([[2.0, 1.0], [1.0, -1.0]]), 1, 1)):
        back = supply_from_json(supply_to_json(supply))
        assert back.m == supply.m and back.p == supply.p
        assert np.allclose(back.phi, supply.phi, atol=1e-15)
        dims = (supply.m, supply.p)
        assert supply_from_json(supply_to_json(supply), dims).m == supply.m
        with pytest.raises(ValueError, match=r"supply is for \(m, p\)"):
            supply_from_json(supply_to_json(supply), (supply.m + 1, supply.p))
    assert supply_to_json(passivity_supply(1))["kind"] == "passivity"
    assert supply_to_json(gain_supply(2.5))["kind"] == "gain"


def test_passivity_record_needs_p_equal_m():
    with pytest.raises(ValueError, match="passivity supply needs p = m"):
        supply_from_json({"kind": "passivity", "m": 1, "p": 2}, (1, 2))
    assert supply_from_json({"kind": "passivity", "m": 2}, (2, 2)).p == 2


# passivity records ignore delta; a record without p means p = m
_SUPPLY_RECORDS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["passivity", "gain"]), "m": st.integers(1, 4),
     "delta": st.floats(0.01, 100.0)},
    optional={"p": st.integers(1, 4)})


@settings(max_examples=200)
@given(record=_SUPPLY_RECORDS, dims=st.tuples(st.integers(1, 4),
                                              st.integers(1, 4)))
def test_accepted_supply_records_keep_their_dims(record, dims):
    try:
        supply = supply_from_json(record, dims)
    except ValueError:  # passivity with p != m, or other dims
        return
    want = (record["m"], record.get("p", record["m"]))
    assert (supply.m, supply.p) == want == dims
    back = supply_from_json(supply_to_json(supply), dims)
    assert np.array_equal(back.phi, supply.phi)


_MATRIX_FAULTS = [
    ([[0, "1"], [1, 0]], r"\[0\]\[1\] must be a finite number, got '1'"),
    ([[0, True], [1, 0]], r"\[0\]\[1\] must be a finite number, got True"),
    ([[float("inf"), 0], [0, -1]],
     r"\[0\]\[0\] must be a finite number, got inf"),
    ([[0, 1], [1, float("nan")]], r"\[1\]\[1\] must be a finite number, got nan"),
    ([[0, 10**400], [1, 0]], r"\[0\]\[1\] must be a finite number"),
    ([[0, [1]], [1, 0]], r"\[0\]\[1\] must be a finite number, got \[1\]"),
    ([[0, 1], [1]], " must be a square list of lists"),
    ([[0, 1]], " must be a square list of lists"),
    ([], " must be a square list of lists"),
    ([0, 1], " must be a square list of lists"),
]


@pytest.mark.parametrize("matrix, says", _MATRIX_FAULTS)
def test_json_matrices_hold_only_finite_numbers(matrix, says):
    # a supply's phi and a kernel's R are read by one rule, which refuses
    # strings and booleans as every other number read from a file is
    # refused, and names the entry; numpy warns of nothing on the way
    with pytest.raises(ValueError, match="^phi" + says):
        supply_from_json({"kind": "custom", "phi": matrix, "m": 1, "p": 1})
    with pytest.raises(kernels.KernelSpecError, match=": R" + says):
        kernels.kernel_from_json({"scalar": {"kind": "bilinear"},
                                  "R": matrix})


def test_one_symmetry_and_finiteness_rule():
    # an infinite or NaN supply matrix is refused before any eigenvalue,
    # and supply and kernel matrices share the symmetry tolerance
    for bad in (np.diag([np.inf, -1.0]), np.array([[0.0, np.nan], [1.0, 0.0]])):
        with pytest.raises(ValueError, match="supply matrix has a non-finite"):
            SupplyRate(bad, 1, 1)
    for gap, symmetric in ((1e-13, True), (1e-11, False)):
        phi = np.array([[0.0, 1.0], [1.0 + gap, 0.0]])
        R = np.array([[1.0, 0.0], [gap, 1.0]])
        if symmetric:
            SupplyRate(phi, 1, 1)
            kernels.SeparableKernel(kernels.bilinear(), R)
        else:
            with pytest.raises(ShapeError, match="must be symmetric"):
                SupplyRate(phi, 1, 1)
            with pytest.raises(ShapeError, match="must be symmetric"):
                kernels.SeparableKernel(kernels.bilinear(), R)
    huge = np.array([[0.0, 1e308], [-1e308, 0.0]])  # the gap overflows
    with pytest.raises(ShapeError, match="must be symmetric"):
        SupplyRate(huge, 1, 1)
