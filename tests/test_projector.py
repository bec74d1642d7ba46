import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from calderon.csalg import CStarAlgebra
from calderon.dirac import (
    CollarGrid,
    ProductDiracModel,
    apply_dirac,
    build_double,
)
from calderon.errors import CertificationError, StructureError
from calderon import projector
from calderon.projector import (
    BoundaryData,
    aps_projection,
    boundary_trace,
    calderon_projector,
    calderon_vs_aps_index,
    exact_projector_block,
    orthogonalized_calderon,
    poisson,
    principal_symbol,
    spectral_projection_positive,
    symbol_limit_check,
)

from conftest import cylinder_fixture, hermitian, y_coupled_model
from ode_oracle import cauchy_space_oracle, graph_projection_least_squares


@pytest.fixture(scope="module")
def built():
    model, grid = cylinder_fixture()
    return model, grid, build_double(model, grid)


@pytest.fixture(scope="module")
def built_vy():
    """The y-coupled double: one channel whose coordinates are the boundary
    samples, so its gather and scatter are reshapes."""
    model = y_coupled_model()
    grid = CollarGrid(n_u=8, n_y=8, kind="uniform")
    return model, grid, build_double(model, grid)


# -- boundary data ------------------------------------------------------


def test_boundary_data_mode_roundtrip(built, built_vy, rng):
    for model, grid, sysd in (built, built_vy):
        g = BoundaryData.random_band_limited(model, grid.n_y, rng)
        coeffs = [
            (cs.channel, g.channel_coeff(cs.channel)) for cs in sysd.channels
        ]
        back = BoundaryData.from_channel_coeffs(model, grid.n_y, coeffs)
        assert np.abs(back.g0 - g.g0).max() < 1e-12
        assert np.abs(back.g1 - g.g1).max() < 1e-12


# -- Cauchy space oracle ------------------------------------------------


def test_cauchy_oracle_b_zero():
    alg = CStarAlgebra.matrix(1)
    model = ProductDiracModel("segment", alg, v=np.zeros((1, 1)))
    cs = cauchy_space_oracle(model, 0.0)
    assert np.allclose(cs.h1, np.vstack([np.eye(2), np.eye(2)]), atol=1e-11)
    assert np.allclose(cs.h2, np.vstack([np.eye(2), -np.eye(2)]), atol=1e-11)
    assert cs.orthogonality_defect < 1e-10


def test_cauchy_oracle_diagonal():
    alg = CStarAlgebra.matrix(1)
    model = ProductDiracModel(
        "segment", alg, v=np.array([[1.0]]), w=None
    )
    cs = cauchy_space_oracle(model, 0.0)
    # B = diag(1, -1): traces (a, e^{-B} a)
    expect = np.vstack([np.eye(2), np.diag([np.e**-1, np.e])])
    assert np.abs(cs.h1 - expect).max() < 1e-10


def test_cauchy_oracle_certificates(built):
    model, grid, _ = built
    for eta in (-3.0, 1.0, 4.0):
        cs = cauchy_space_oracle(model, eta)
        assert cs.orthogonality_defect < 1e-10
        assert cs.min_angle > 1e-6
        assert cs.dim_total == 2 * model.n_fiber


# -- the projector ------------------------------------------------------


def test_projector_matches_graph_oracle(built):
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    for ch, block in proj.channel_blocks:
        t = scipy.linalg.expm(-ch.b_mat)
        h1 = np.vstack([np.eye(t.shape[0]), t])
        oracle = graph_projection_least_squares(h1)
        assert np.linalg.norm(block - oracle, 2) < 1e-9
        assert np.linalg.norm(block - exact_projector_block(ch.b_mat), 2) < 1e-9


def test_projector_diagnostics(built, rng):
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    diag = proj.diagnostics()
    assert diag["idempotency_defect"] < 1e-9
    assert diag["self_adjointness_defect"] < 1e-9
    assert diag["a_membership_defect"] < 1e-10
    assert proj.a_linearity_defect(rng, trials=5) < 1e-10


def test_projector_range_kernel_vs_oracle(built):
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    for ch, block in proj.channel_blocks:
        cs = cauchy_space_oracle(model, ch.eta_eff)
        ang_range = scipy.linalg.subspace_angles(
            scipy.linalg.orth(block), cs.h1
        )
        ang_kernel = scipy.linalg.subspace_angles(
            scipy.linalg.null_space(block), cs.h2
        )
        assert ang_range.max() < 1e-8
        assert ang_kernel.max() < 1e-8


def test_projector_negated_b_complementary():
    """Negating B gives the complementary projector after flipping the
    sign of the far-end trace component."""
    rng = np.random.default_rng(31)
    b = hermitian(rng, 4)
    c_plus = exact_projector_block(b)
    c_minus = exact_projector_block(-b)
    n = b.shape[0]
    flip = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    assert (
        np.linalg.norm(
            flip @ c_minus @ flip - (np.eye(2 * n) - c_plus), 2
        )
        < 1e-12
    )


def test_holonomy_invariance():
    """With holonomy the channel block equals the untwisted block at the
    shifted frequency."""
    alg = CStarAlgebra.matrix(2)
    v = np.diag([0.8, -0.3]).astype(complex)
    twisted = ProductDiracModel(
        "cylinder", alg, v=v, holonomy=-np.eye(2, dtype=complex)
    )
    plain = ProductDiracModel("cylinder", alg, v=v)
    for ch in twisted.mode_channels(12):
        block = exact_projector_block(ch.b_mat)
        ref = exact_projector_block(plain.tangential_matrix(ch.eta_eff))
        assert np.linalg.norm(block - ref, 2) < 1e-12


def test_dense_projector_converges_to_oracle():
    model, _ = cylinder_fixture()
    errs = []
    idems = []
    for n_u in (16, 32, 64):
        grid = CollarGrid(n_u=n_u, n_y=12, kind="uniform")
        sysd = build_double(model, grid)
        proj = calderon_projector(sysd)
        worst = max(
            np.linalg.norm(
                block - exact_projector_block(ch.b_mat), 2
            )
            for ch, block in proj.channel_blocks
        )
        errs.append(worst)
        idems.append(proj.diagnostics()["idempotency_defect"])
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 3.5
    # the discrete transmission projector is idempotent by construction
    assert max(idems) < 1e-12


def test_y_coupled_projector_converges_to_exact_graph_projection():
    """With V(y) the one channel's exact-in-u projector is the graph
    projection of the y-coupled B; the FD4 collocation projector converges
    to it at 4th order."""
    model = y_coupled_model()
    errs = []
    for n_u in (16, 32, 64):
        sysd = build_double(model, CollarGrid(n_u=n_u, n_y=8, kind="uniform"))
        oracle = exact_projector_block(sysd.channels[0].channel.b_mat)
        exact = calderon_projector(sysd, method="exact").matrix()
        assert np.array_equal(exact, oracle)
        proj = calderon_projector(sysd).matrix()
        errs.append(np.linalg.norm(proj - oracle, 2))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 3.5


def test_y_coupled_chebyshev_projector_matches_exact_graph_projection():
    """V(y) on a Chebyshev grid: the collocation projector of the one
    y-coupled channel is spectrally close to its exact graph projection."""
    model = y_coupled_model()
    sysd = build_double(model, CollarGrid(n_u=24, n_y=12, kind="chebyshev"))
    assert not sysd.per_mode
    oracle = exact_projector_block(sysd.channels[0].channel.b_mat)
    proj = calderon_projector(sysd).matrix()
    assert np.linalg.norm(proj - oracle, 2) < 1e-9


# -- Poisson operator ---------------------------------------------------


def test_poisson_zero_data(built):
    model, grid, sysd = built
    g = BoundaryData.zero(model, grid.n_y)
    u_sol = poisson(sysd, g)
    assert np.abs(u_sol.values).max() == 0.0


def test_poisson_interior_solution_and_trace(built, built_vy, rng):
    for model, grid, sysd in (built, built_vy):
        g = BoundaryData.random_band_limited(model, grid.n_y, rng)
        u_sol = poisson(sysd, g)
        res = apply_dirac(model, u_sol, side=1)
        assert np.abs(res.values[1:-1]).max() < 1e-9
        proj = calderon_projector(sysd)
        cg = proj.apply(g)
        tr = boundary_trace(model, u_sol)
        assert np.abs(tr.g0 - cg.g0).max() < 1e-10
        assert np.abs(tr.g1 - cg.g1).max() < 1e-10


def test_poisson_reproduces_cauchy_data(built, rng):
    model, grid, sysd = built
    ch = sysd.channels[2].channel
    t = scipy.linalg.expm(-ch.b_mat)
    a = rng.standard_normal((ch.dim, model.m)) + 1j * rng.standard_normal(
        (ch.dim, model.m)
    )
    g = BoundaryData.from_channel_coeffs(
        model, grid.n_y, [(ch, np.vstack([a, t @ a]))]
    )
    tr = boundary_trace(model, poisson(sysd, g))
    assert np.abs(tr.g0 - g.g0).max() < 1e-10
    assert np.abs(tr.g1 - g.g1).max() < 1e-10


# -- principal symbol ---------------------------------------------------


def test_symbol_scalar_cases():
    assert np.abs(principal_symbol(np.array([[1.0 + 0j]])) - 1.0).max() < 1e-12
    q = principal_symbol(np.diag([1.0, -1.0]).astype(complex))
    assert np.abs(q - np.diag([1.0, 0.0])).max() < 1e-12


def test_symbol_model_interface(built):
    model, _, _ = built
    q = principal_symbol(model, eta=3.0)
    b = model.tangential_matrix(3.0)
    assert np.linalg.norm(q - spectral_projection_positive(b), 2) < 1e-10


def test_symbol_random_hermitian(rng):
    done = 0
    while done < 50:
        n = int(rng.integers(2, 7))
        b = hermitian(rng, n)
        if np.abs(np.linalg.eigvalsh(b)).min() <= 0.1:
            continue
        done += 1
        dev = np.linalg.norm(
            principal_symbol(b) - spectral_projection_positive(b), 2
        )
        assert dev < 1e-10


@pytest.mark.parametrize(
    "eigs", [[1e6, -1e6, 0.5], [1e-3, 1e3, -2.0]], ids=["wide", "graded"]
)
def test_symbol_wide_spectra(eigs, rng):
    # a half-disk contour quadrature of the resolvent does not converge here
    diag = np.diag(eigs).astype(complex)
    u = np.linalg.qr(hermitian(rng, len(eigs)))[0]
    for b in (diag, u @ diag @ u.conj().T):
        b = 0.5 * (b + b.conj().T)
        dev = np.linalg.norm(
            principal_symbol(b) - spectral_projection_positive(b), 2
        )
        assert dev < 1e-10


def test_symbol_zero_tol_fails_to_certify():
    with pytest.raises(CertificationError):
        principal_symbol(np.diag([1.0, -1.0]).astype(complex), tol=0.0)


def test_symbol_halving_reuses_nodes(monkeypatch):
    inverted = []
    inv = np.linalg.inv

    def counting_inv(a):
        inverted.append(a.shape[0])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    b = np.diag([2.0, -0.5]).astype(complex)
    _, nodes = projector._principal_symbol_nodes(b)
    # window [log 0.5 - 40, log 2 + 40], first panels of width h <= 1
    first = int(np.ceil(np.log(2.0) - np.log(0.5) + 80.0))
    final_grid = first * 2 ** (len(inverted) - 1) + 1
    assert len(inverted) >= 2
    assert sum(inverted) == nodes == final_grid


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    mags=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8),
    signs=st.lists(st.booleans(), min_size=8, max_size=8),
    c=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_symbol_scaled_hermitian_property(mags, signs, c, seed):
    eigs = np.array([m if s else -m for m, s in zip(mags, signs)])
    u = np.linalg.qr(hermitian(np.random.default_rng(seed), len(eigs)))[0]
    h = u @ np.diag(eigs) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    dev = np.linalg.norm(
        principal_symbol(c * h) - spectral_projection_positive(c * h), 2
    )
    assert dev < 1e-10


def test_symbol_pinched_contour():
    with pytest.raises(CertificationError):
        principal_symbol(np.diag([1.0, 1e-9]).astype(complex))


def test_symbol_rejects_non_hermitian():
    with pytest.raises(StructureError):
        principal_symbol(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symbol_limit_ladder(built):
    model, _, _ = built
    table = symbol_limit_check(model)
    assert table["monotone"]
    assert table["satisfies_bound"]
    # super-polynomial decay: three orders of magnitude per doubling
    deltas = table["deltas"]
    assert deltas[2] < 1e-3 * deltas[0]


def test_symbol_limit_v_zero_superpolynomial():
    alg = CStarAlgebra.matrix(2)
    model = ProductDiracModel("cylinder", alg, v=np.zeros((2, 2)))
    table = symbol_limit_check(model)
    deltas = table["deltas"]
    assert table["monotone"]
    assert deltas[-1] < 1e-10 * deltas[0]


# -- APS and the index --------------------------------------------------


def test_aps_conventions():
    assert np.allclose(
        spectral_projection_positive(np.diag([2.0, -1.0]).astype(complex)),
        np.diag([1.0, 0.0]),
    )
    assert np.allclose(
        spectral_projection_positive(np.zeros((3, 3), dtype=complex)),
        np.eye(3),
    )


def test_aps_matches_symbol_large_eta():
    alg = CStarAlgebra.matrix(2)
    model = ProductDiracModel("cylinder", alg, v=np.zeros((2, 2)))
    per_mode = aps_projection(model, eta=8.0)
    b = model.tangential_matrix(8.0)
    q = principal_symbol(b)
    n = b.shape[0]
    assert np.linalg.norm(per_mode[:n, :n] - q, 2) < 1e-10


def test_aps_assembled_projector(built, rng):
    model, grid, _ = built
    proj = aps_projection(model, n_y=grid.n_y)
    diag = proj.diagnostics()
    assert diag["idempotency_defect"] < 1e-12
    assert diag["self_adjointness_defect"] < 1e-12
    assert diag["a_membership_defect"] < 1e-10


@pytest.mark.parametrize("sign", [-1, 1], ids=["below-2pi", "above-0"])
def test_holonomy_within_rounding_of_identity_acts_as_none(sign):
    rng = np.random.default_rng(5)
    alg = CStarAlgebra.matrix(2)
    v = hermitian(rng, 2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    plain = ProductDiracModel("cylinder", alg, v=v)
    h = np.exp(sign * 2j * np.pi * 1e-14) * np.eye(2)
    twisted = ProductDiracModel("cylinder", alg, v=v, holonomy=h)
    assert all(0.0 <= s < 1.0 for s, _ in twisted.holonomy_channels())
    ref = sorted(ch.eta_eff for ch in plain.mode_channels(grid.n_y))
    got = sorted(ch.eta_eff for ch in twisted.mode_channels(grid.n_y))
    assert len(got) == len(ref)
    assert np.abs(np.array(got) - np.array(ref)).max() < 1e-12
    diag_ref = calderon_projector(build_double(plain, grid)).diagnostics()
    diag = calderon_projector(build_double(twisted, grid)).diagnostics()
    assert diag["dimension"] == diag_ref["dimension"]
    assert diag["mode_count"] == diag_ref["mode_count"]


def test_orthogonalized_calderon_fixed_point(built):
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    orth = orthogonalized_calderon(proj)
    # the graph projection of self-adjoint b is already orthogonal
    assert np.linalg.norm(orth.matrix() - proj.matrix(), 2) < 1e-10


def test_orthogonalized_y_coupled_projector(built_vy):
    model, grid, sysd = built_vy
    orth = orthogonalized_calderon(calderon_projector(sysd)).matrix()
    assert orth.shape == (2 * grid.n_y * model.n_fiber,) * 2
    assert np.linalg.norm(orth @ orth - orth, 2) < 1e-12
    assert np.linalg.norm(orth - orth.conj().T, 2) < 1e-12


def test_orthogonalized_skewed_idempotent(built, rng):
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    dim = proj.channel_blocks[0][1].shape[0]
    s = np.eye(dim) + 0.1 * (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    skewed_blocks = [
        (ch, s @ block @ np.linalg.inv(s)) for ch, block in proj.channel_blocks
    ]
    from calderon.projector import BoundaryProjector

    skewed = BoundaryProjector(
        model=model,
        n_y=grid.n_y,
        method="skewed",
        channel_blocks=skewed_blocks,
    )
    orth = orthogonalized_calderon(skewed)
    mat = orth.matrix()
    assert np.linalg.norm(mat @ mat - mat, 2) < 1e-10
    assert np.linalg.norm(mat - mat.conj().T, 2) < 1e-10
    for (_, orig), (_, fixed) in zip(skewed_blocks, orth.channel_blocks):
        ang = scipy.linalg.subspace_angles(
            scipy.linalg.orth(orig), scipy.linalg.orth(fixed)
        )
        assert ang.size == 0 or ang.max() < 1e-8


def test_index_zero_fixture():
    alg = CStarAlgebra.matrix(2)
    model = ProductDiracModel(
        "cylinder",
        alg,
        v=np.zeros((2, 2)),
        holonomy=-np.eye(2, dtype=complex),
    )
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    sysd = build_double(model, grid)
    assert calderon_vs_aps_index(sysd)["index"] == 0


def _mode_rank_oracle(model, n_y):
    """Sum over dealiased modes of dim ker B: the predicted relative index."""
    total = 0
    for ch in model.mode_channels(n_y):
        eigs = np.linalg.eigvalsh(ch.b_mat)
        total += int(np.sum(np.abs(eigs) < 1e-9))
    return total


def test_index_spectral_shift_k2():
    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    base = ProductDiracModel(
        "cylinder", alg, v=np.diag([1.0, 0.5]).astype(complex)
    )
    shifted = ProductDiracModel(
        "cylinder", alg, v=np.diag([1.0, 0.0]).astype(complex)
    )
    i0 = calderon_vs_aps_index(build_double(base, grid))["index"]
    i1 = calderon_vs_aps_index(build_double(shifted, grid))["index"]
    assert i0 == _mode_rank_oracle(base, 12) == 0
    assert i1 == _mode_rank_oracle(shifted, 12) == 2
    assert i1 - i0 == 2


def test_y_coupled_index_of_zero_potential_matches_per_mode():
    """V = 0 given as V(y) has the y-coupled channel; its index is the
    per-mode one, the kernel of B(0) = 0 on the full fiber."""
    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    zero = np.zeros((2, 2), dtype=complex)
    per_mode = ProductDiracModel("cylinder", alg, v=zero)
    coupled = ProductDiracModel("cylinder", alg, v=lambda y: zero)
    i_mode = calderon_vs_aps_index(build_double(per_mode, grid))["index"]
    i_coupled = calderon_vs_aps_index(build_double(coupled, grid))["index"]
    assert i_mode == _mode_rank_oracle(per_mode, grid.n_y) == 4
    assert i_coupled == i_mode


def test_index_blocks_match_assembled():
    from calderon.hilbmod import relative_index

    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    model = ProductDiracModel(
        "cylinder", alg, v=np.diag([1.0, 0.0]).astype(complex)
    )
    orth = orthogonalized_calderon(
        calderon_projector(build_double(model, grid), method="exact")
    )
    aps = aps_projection(model, n_y=grid.n_y)
    assembled = relative_index(
        aps.as_module_operator(), orth.as_module_operator()
    )
    assert relative_index(aps.blocks, orth.blocks) == assembled == 2


def test_index_self_comparison(built):
    from calderon.hilbmod import relative_index

    model, grid, sysd = built
    orth = orthogonalized_calderon(calderon_projector(sysd, method="exact"))
    op = orth.as_module_operator()
    assert relative_index(op, op) == 0
