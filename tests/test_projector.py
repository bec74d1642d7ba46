from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from calderon.csalg import CStarAlgebra, map_groups
from calderon import cli, dirac, hilbmod
from calderon.cli import builtin_fixtures, parse_config
from calderon.dirac import (
    CollarGrid,
    ProductDiracModel,
    _tangential_apply,
    _values_to_channels,
    apply_dirac,
    build_double,
    exact_channel,
    mode_radius,
)
from calderon.errors import CertificationError, StructureError
from calderon.hilbmod import (
    PROJECTION_TOL,
    orthogonalize_idempotent_matrix,
    projection_defects,
    relative_index,
)
from calderon import projector
from calderon.projector import (
    SYMBOL_LIMIT_ETAS,
    BoundaryData,
    BoundaryProjector,
    aps_projection,
    boundary_trace,
    calderon_projector,
    calderon_vs_aps_index,
    exact_projector_block,
    poisson,
    principal_symbol,
    spectral_projection_positive,
    symbol_limit_check,
)

from conftest import (
    cylinder_fixture,
    hermitian,
    twisted_model,
    y_coupled_model,
)
from channel_map import boundary_data_from_channel_coeffs
from ode_oracle import cauchy_space_oracle, graph_projection_least_squares
from test_decoupling import decoupling_models


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
        channels = [cs.channel for cs in sysd.channels]
        traces = np.stack([g.g0, g.g1])
        coeffs = [
            (ch, c.reshape(-1, model.m))
            for ch, c in zip(
                channels, _values_to_channels(traces, channels, grid.n_y)
            )
        ]
        back = boundary_data_from_channel_coeffs(model, grid.n_y, coeffs)
        assert np.abs(back.g0 - g.g0).max() < 1e-12
        assert np.abs(back.g1 - g.g1).max() < 1e-12


def _counting(monkeypatch, namespace, name):
    """Patch ``namespace.name`` to record each call; returns the record."""
    calls = []
    func = getattr(namespace, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(namespace, name, counting)
    return calls


def test_apply_matches_the_assembled_blocks(built_vy, rng):
    """The channel map of ``apply`` (gather into the y-slabs, scatter back)
    against the embedded blocks of ``matrix()``.  Per mode, on a twisted
    cylinder with two eigenphase channels per frequency: each kept
    y-Fourier slab of the result is its full-fiber block times the two
    traces' coefficients, and the other slabs vanish.  On the y-coupled
    double: the result is ``matrix()`` times the stacked samples."""
    model = twisted_model()
    grid = CollarGrid(n_u=16, n_y=8, kind="chebyshev")
    proj = calderon_projector(build_double(model, grid))
    assert len(proj.channel_blocks) == 2 * len(proj.blocks)
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    out = proj.apply(g)
    coeffs = np.fft.fft(np.stack([g.g0, g.g1]), axis=1) / grid.n_y
    got = np.fft.fft(np.stack([out.g0, out.g1]), axis=1) / grid.n_y
    cut = mode_radius(grid.n_y)
    kept = [eta % grid.n_y for eta in range(-cut, cut + 1)]
    for k, block in zip(kept, proj.blocks):
        ref = block @ coeffs[:, k].reshape(-1, model.m)
        assert np.abs(got[:, k].reshape(ref.shape) - ref).max() < 1e-13
    dropped = np.delete(got, kept, axis=1)
    assert np.abs(dropped).max() < 1e-13

    model, grid, sysd = built_vy
    proj = calderon_projector(sysd)
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    out = proj.apply(g)
    ref = proj.matrix() @ np.stack([g.g0, g.g1]).reshape(-1, model.m)
    got = np.stack([out.g0, out.g1]).reshape(ref.shape)
    assert np.abs(got - ref).max() < 1e-13


def test_per_mode_apply_takes_one_y_fft(built, rng, monkeypatch):
    """Both traces are gathered into every channel by one y-FFT."""
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    calls = _counting(monkeypatch, np.fft, "fft")
    proj.apply(g)
    assert len(sysd.channels) > 1
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["per-mode", "y-coupled"])
def test_apply_rejects_data_on_another_grid(path, built, built_vy, rng):
    model, grid, sysd = built if path == "per-mode" else built_vy
    g = BoundaryData.random_band_limited(model, 16, rng)
    assert grid.n_y != 16
    with pytest.raises(StructureError):
        calderon_projector(sysd).apply(g)


def test_poisson_rejects_data_on_another_grid(built, rng):
    model, grid, sysd = built
    g = BoundaryData.random_band_limited(model, 16, rng)
    assert grid.n_y != 16
    with pytest.raises(StructureError):
        poisson(sysd, g)


@pytest.mark.parametrize(
    "other, r",
    [(CStarAlgebra.cyclic(2), 1), (CStarAlgebra.matrix(4), 2)],
    ids=["Z2-data-same-m", "M4-data-same-fiber"],
)
def test_projector_and_poisson_reject_data_over_another_algebra(
    other, r, rng
):
    # C[Z/2] data has the m and fiber of an M2 model; M4 data has the fiber
    # of an M2 model at r = 2: neither is data over the model's algebra
    alg = CStarAlgebra.matrix(2)
    model = ProductDiracModel("cylinder", alg, r=r, v=hermitian(rng, 2 * r))
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    sysd = build_double(model, grid)
    foreign = ProductDiracModel("cylinder", other)
    assert foreign.n_fiber == model.n_fiber
    g = BoundaryData.random_band_limited(foreign, grid.n_y, rng)
    with pytest.raises(StructureError, match="model mismatch"):
        calderon_projector(sysd).apply(g)
    with pytest.raises(StructureError, match="model mismatch"):
        poisson(sysd, g)


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
        cs = cauchy_space_oracle(model, ch.eta + ch.shift)
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


def _tanh_sech_projection(b):
    """P(e^{-b}) = 1/2 [[I + tanh b, sech b], [sech b, I - tanh b]], from
    the eigenpairs of the Hermitian b."""
    w, u = np.linalg.eigh(b)

    def f(values):
        return (u * values) @ u.conj().T

    t, s = f(np.tanh(w)), f(1.0 / np.cosh(w))
    eye = np.eye(len(w))
    return 0.5 * np.block([[eye + t, s], [s, eye - t]])


def _rotated_spectrum(seed, *mags):
    """A Hermitian b with eigenvalues +-m for each m of ``mags`` in a
    random unitary basis."""
    n = 2 * len(mags)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(z)[0]
    w = np.outer(mags, [1.0, -1.0]).ravel()
    return (q * w) @ q.conj().T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("top", [5.0, 30.0, 40.0, 45.0])
def test_exact_oracle_matches_tanh_sech_form(top, seed):
    """The double's exact oracle against the same projection written with
    tanh b and sech b from the eigenpairs of b."""
    b = _rotated_spectrum(seed, top, 5.0, 0.3)
    block = exact_channel(b)[0]
    assert np.linalg.norm(block - _tanh_sech_projection(b), 2) < 1e-12


@pytest.mark.parametrize("top", [36.0, 40.0, 45.0])
def test_exact_oracle_keeps_small_eigenvalues_beside_large_ones(top):
    """On a rotated diag(+-top, +-5, +-0.3, +-1e-3), twice the off-diagonal
    block of P(e^{-b}), sech b, has 2-norm sech(1e-3) to 1e-12.  An oracle
    that forms e^{+-b} rounds at eps e^{||b||} and misses it: on this b the
    smallest singular value of e^b + e^{-b}, 2.000001, then reads 1.76 at
    ||b|| = 36 and 150 at 45."""
    b = _rotated_spectrum(0, top, 5.0, 0.3, 1e-3)
    n = len(b)
    sech = 2.0 * exact_channel(b)[0][:n, n:]
    assert abs(np.linalg.norm(sech, 2) - 1.0 / np.cosh(1e-3)) < 1e-12


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
        b = plain.tangential_matrix(ch.eta + ch.shift)
        ref = exact_projector_block(b)
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
    """With V(y) each y-coupled channel's exact-in-u projector block is the
    graph projection of its B; the FD4 collocation projector converges to
    the assembled exact one at 4th order."""
    model = y_coupled_model()
    errs = []
    for n_u in (16, 32, 64):
        sysd = build_double(model, CollarGrid(n_u=n_u, n_y=8, kind="uniform"))
        for cs in sysd.channels:
            assert np.array_equal(
                cs.exact_block, exact_projector_block(cs.channel.b_mat)
            )
        proj = calderon_projector(sysd).matrix()
        errs.append(np.linalg.norm(proj - _exact_matrix(sysd), 2))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 3.5


def test_y_coupled_chebyshev_projector_matches_exact_graph_projection():
    """V(y) on a Chebyshev grid: the collocation projector of the y-coupled
    channels is spectrally close to their assembled exact graph
    projection."""
    model = y_coupled_model()
    sysd = build_double(model, CollarGrid(n_u=24, n_y=12, kind="chebyshev"))
    assert not sysd.per_mode
    proj = calderon_projector(sysd).matrix()
    assert np.linalg.norm(proj - _exact_matrix(sysd), 2) < 1e-9


def _exact_matrix(sysd):
    """The assembled matrix of the exact graph projections of the double's
    channel blocks, each formed again from its b."""
    channel_blocks = [
        (cs.channel, exact_projector_block(cs.channel.b_mat))
        for cs in sysd.channels
    ]
    proj = BoundaryProjector(sysd.model, sysd.grid.n_y, channel_blocks)
    return proj.matrix()


def _exact_projector(sysd):
    """The exact graph projections that the double stores, one block per
    channel."""
    channel_blocks = [(cs.channel, cs.exact_block) for cs in sysd.channels]
    return BoundaryProjector(sysd.model, sysd.grid.n_y, channel_blocks)


def _orthogonalized(proj):
    """The orthogonal projection with the range of ``proj``, by the F-solve
    of each channel block, as calderon_vs_aps_index takes it."""
    channels = [ch for ch, _ in proj.channel_blocks]
    orth = map_groups(
        lambda b: orthogonalize_idempotent_matrix(b)[0],
        [b for _, b in proj.channel_blocks],
    )
    return BoundaryProjector(proj.model, proj.n_y, list(zip(channels, orth)))


def _unsplit_b(model, n_y):
    """B over all (y-point, fiber) coordinates: the tangential operator
    applied to the identity, with no commutant split."""
    n = n_y * model.n_fiber
    eye = np.eye(n, dtype=complex).reshape(1, n_y, model.n_fiber, n)
    return _tangential_apply(model, n_y, eye).reshape(n, n)


@pytest.mark.parametrize("twisted", [False, True])
def test_split_block_spectra_match_the_unsplit_b(twisted):
    """The y-coupled channels of a cosine V(y) (under a holonomy as well)
    are one per fiber eigenvalue cluster, and together they carry the
    spectrum of the unsplit B."""
    if twisted:
        v = np.diag([1.0, 0.5]).astype(complex)
        model = twisted_model(lambda y: v + 0.3 * np.cos(y) * np.eye(2))
    else:
        model = y_coupled_model()
    n_y = 12
    channels = model.mode_channels(n_y)
    assert [ch.dim for ch in channels] == [2 * n_y, 2 * n_y]
    assert all(ch.coupled for ch in channels)
    b = _unsplit_b(model, n_y)
    split = np.sort(
        np.concatenate([np.linalg.eigvalsh(ch.b_mat) for ch in channels])
    )
    scale = np.linalg.norm(b, 2)
    assert np.abs(split - np.linalg.eigvalsh(b)).max() < 1e-12 * scale


@pytest.mark.parametrize("rotated", [False, True])
def test_split_projector_equals_the_unsplit_one(monkeypatch, rotated):
    """On the cylinder-vy fixture, and with its diagonal base replaced by a
    random Hermitian one, the projectors of the split double (two
    channels) and of the one unsplit channel agree to rounding, the
    collocation and the exact ones."""
    model = y_coupled_model()
    if rotated:
        base = hermitian(np.random.default_rng(5), 2)
        model = ProductDiracModel(
            "cylinder", model.algebra,
            v=lambda y: base + 0.3 * np.cos(y) * np.eye(2),
        )
    grid = CollarGrid(n_u=24, n_y=12, kind="chebyshev")
    split = build_double(model, grid)
    # a split that no residual passes is dropped for the one cluster E = I
    monkeypatch.setattr(dirac, "SPLIT_TOL", -1.0)
    unsplit = build_double(model, grid)
    assert (len(split.channels), len(unsplit.channels)) == (2, 1)
    assert np.array_equal(
        unsplit.channels[0].channel.b_mat, _unsplit_b(model, grid.n_y)
    )
    for make in (calderon_projector, _exact_projector):
        p_split = make(split).matrix()
        p_unsplit = make(unsplit).matrix()
        assert np.abs(p_split - p_unsplit).max() < 1e-12


def test_y_coupled_cross_cluster_entries_are_exact_zeros():
    """V(y) = diag(0.9, -0.4) + 0.3 cos(y) splits by fiber coordinate: an
    entry of the projector between the two clusters is +0.0 in both parts,
    so the export writes it as a zero."""
    model = y_coupled_model()
    grid = CollarGrid(n_u=24, n_y=12, kind="chebyshev")
    sysd = build_double(model, grid)
    # the cluster of a (component, y, spinor, fiber) coordinate
    cluster = np.arange(2 * grid.n_y * model.n_fiber) % model.rm
    cross = cluster[:, None] != cluster[None, :]
    for make in (calderon_projector, _exact_projector):
        mat = make(sysd).matrix()
        bits = mat.view(np.uint64).reshape(mat.shape + (2,))
        assert not bits[cross].any()
        assert bits[~cross].any(axis=-1).all()


@pytest.mark.parametrize("commuting", [False, True])
def test_v_of_y_without_a_split_stays_one_channel(commuting):
    """A library V(y) whose samples do not commute has no certified split,
    and one whose samples commute with no clear eigenvalue gap has a
    single cluster: either double keeps the one y-coupled channel B, and
    says so."""
    alg = CStarAlgebra.matrix(2)
    base = np.diag([0.9, -0.4]).astype(complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if commuting:
        base, x = 0.5 * np.eye(2) + 1e-5 * x, np.eye(2)
    model = ProductDiracModel(
        "cylinder", alg, v=lambda y: base + 0.3 * np.cos(y) * x
    )
    grid = CollarGrid(n_u=24, n_y=12, kind="chebyshev")
    (ch,) = model.mode_channels(grid.n_y)
    assert ch.coupled
    assert np.array_equal(ch.embedding, np.eye(model.n_fiber))
    assert np.array_equal(ch.b_mat, _unsplit_b(model, grid.n_y))
    cert = build_double(model, grid).certificate()
    assert cert["commutant_clusters"] == 1
    assert cert["commutant_offblock_residual"] == 0.0
    assert cert["sigma_min_method"] == (
        "y-coupled decoupled full SVD of the complex half systems"
    )


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
    g = boundary_data_from_channel_coeffs(
        model, grid.n_y, [(ch, np.vstack([a, t @ a]))]
    )
    tr = boundary_trace(model, poisson(sysd, g))
    assert np.abs(tr.g0 - g.g0).max() < 1e-10
    assert np.abs(tr.g1 - g.g1).max() < 1e-10


# -- principal symbol ---------------------------------------------------


def test_symbol_scalar_cases():
    q = principal_symbol(np.array([[1.0 + 0j]]))[0]
    assert np.abs(q - 1.0).max() < 1e-12
    q = principal_symbol(np.diag([1.0, -1.0]).astype(complex))[0]
    assert np.abs(q - np.diag([1.0, 0.0])).max() < 1e-12


def test_symbol_model_interface(built):
    model, _, _ = built
    q = principal_symbol(model.tangential_matrix(3.0))[0]
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
            principal_symbol(b)[0] - spectral_projection_positive(b), 2
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
            principal_symbol(b)[0] - spectral_projection_positive(b), 2
        )
        assert dev < 1e-10


def test_symbol_zero_tol_fails_to_certify(monkeypatch):
    monkeypatch.setattr(projector, "SIGN_TOL", 0.0)
    with pytest.raises(CertificationError):
        principal_symbol(np.diag([1.0, -1.0]).astype(complex))


def _counting_inv(monkeypatch):
    """Patch np.linalg.inv to record the number of matrices of each call."""
    inverted = []
    inv = np.linalg.inv

    def counting_inv(a):
        inverted.append(int(np.prod(np.shape(a)[:-2])))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return inverted


def test_symbol_one_inverse_per_iteration(monkeypatch):
    inverted = _counting_inv(monkeypatch)
    b = np.diag([2.0, -0.5]).astype(complex)
    _, iterations, last_step = principal_symbol(b)
    assert iterations >= 2
    assert sum(inverted) == len(inverted) == iterations
    assert last_step < 1e-12


@pytest.mark.parametrize(
    "eigs",
    [[1e12, -1e-3], [1e6, -1e6, 0.5], [1e-3, 1e3, -2.0]],
    ids=["extreme", "wide", "graded"],
)
def test_symbol_inverse_budget(eigs, rng, monkeypatch):
    # the scaled Newton iteration needs at most 9 steps, plus one to see it
    diag = np.diag(eigs).astype(complex)
    u = np.linalg.qr(hermitian(rng, len(eigs)))[0]
    rotated = u @ diag @ u.conj().T
    fibers = [diag, 0.5 * (rotated + rotated.conj().T)]
    while len(fibers) < 22:
        b = hermitian(rng, 8)
        if np.abs(np.linalg.eigvalsh(b)).min() > 0.1:
            fibers.append(b)
    inverted = _counting_inv(monkeypatch)
    for b in fibers:
        inverted.clear()
        q = principal_symbol(b)[0]
        assert sum(inverted) <= 10
        assert np.linalg.norm(q - spectral_projection_positive(b), 2) < 1e-10


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
        principal_symbol(c * h)[0] - spectral_projection_positive(c * h), 2
    )
    assert dev < 1e-10


def test_symbol_pinched_contour():
    with pytest.raises(CertificationError):
        principal_symbol(np.diag([1.0, 1e-9]).astype(complex))


def test_symbol_rejects_non_hermitian():
    with pytest.raises(StructureError):
        principal_symbol(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _fiber_stack(seed, n, k):
    """k Hermitian n x n fibers with eigenvalues of magnitude in [0.1, 10]
    times a spread 10^e per member (e in [-3, 3]), so that members take
    different numbers of sign steps."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        eigs = rng.uniform(0.1, 10.0, n) * rng.choice([-1.0, 1.0], n)
        eigs *= 10.0 ** rng.uniform(-3.0, 3.0, n)
        u = np.linalg.qr(hermitian(rng, n))[0]
        h = u @ np.diag(eigs) @ u.conj().T
        out.append(0.5 * (h + h.conj().T))
    return np.stack(out)


def _assert_stack_matches_single_calls(stack):
    proj, steps, last = principal_symbol(stack)
    lead = stack.shape[:-2]
    assert proj.shape == stack.shape
    assert steps.shape == last.shape == lead
    for idx in np.ndindex(*lead):
        q, k, step = principal_symbol(stack[idx])
        assert np.array_equal(proj[idx], q)
        assert steps[idx] == k
        assert last[idx] == step


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_symbol_stack_matches_single_calls_property(n, k, seed):
    _assert_stack_matches_single_calls(_fiber_stack(seed, n, k))


def test_symbol_stack_members_stop_at_their_own_steps(monkeypatch):
    wide = np.diag([1e6, -1e-3, 0.5]).astype(complex)
    stack = np.stack([np.diag([1.0, -1.0, 1.0]).astype(complex), wide])
    stack = np.stack([stack, stack[::-1]])  # leading shape (2, 2)
    inverted = _counting_inv(monkeypatch)
    _, steps, _ = principal_symbol(stack)
    assert steps[0, 0] < steps[0, 1]
    # each step inverts the members that have not stopped, and only those
    assert len(inverted) == steps.max()
    assert sum(inverted) == steps.sum()
    _assert_stack_matches_single_calls(stack)


def test_symbol_stack_with_one_pinched_member():
    stack = _fiber_stack(5, 3, 4)
    stack[2] = np.diag([1.0, 1e-9, -2.0])
    with pytest.raises(CertificationError):
        principal_symbol(stack)


def test_symbol_stack_with_one_non_hermitian_member():
    stack = _fiber_stack(6, 2, 4)
    stack[1] = np.array([[1.0, 1.0], [0.0, -1.0]])
    with pytest.raises(StructureError):
        principal_symbol(stack)


def test_spectral_projection_positive_of_a_stack():
    stack = _fiber_stack(8, 4, 5).reshape(5, 1, 4, 4)
    projections = spectral_projection_positive(stack)
    assert projections.shape == stack.shape
    for i in range(5):
        assert np.array_equal(
            projections[i, 0], spectral_projection_positive(stack[i, 0])
        )


def test_symbol_limit_ladder(built):
    model, _, _ = built
    table = symbol_limit_check(model)
    assert table["monotone"]
    assert table["satisfies_bound"]
    # super-polynomial decay: three orders of magnitude per doubling
    deltas = table["deltas"]
    assert deltas[2] < 1e-3 * deltas[0]


def test_symbol_limit_takes_no_svd(built, monkeypatch):
    # the u=0 blocks come from one tanh_sech of the ladder's stack; the
    # kernel count of exact_channel (one SVD) is not taken, so the only SVD
    # is the one stacked 2-norm of the deltas
    model, _, _ = built
    calls, stacks = [], []
    svd, tanh_sech = np.linalg.svd, projector.tanh_sech
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k)
    )
    monkeypatch.setattr(
        projector,
        "tanh_sech",
        lambda b: stacks.append(b.shape[:-2]) or tanh_sech(b),
    )
    deltas = symbol_limit_check(model)["deltas"]
    assert len(calls) == 1
    assert stacks == [(len(SYMBOL_LIMIT_ETAS),)]
    # each delta reads the u=0 block of the exact graph projection
    b = model.tangential_matrix(SYMBOL_LIMIT_ETAS[1])
    block = exact_projector_block(b)
    assert np.array_equal(block, exact_channel(b)[0])
    n = len(b)
    top = block[:n, :n] - spectral_projection_positive(b)
    assert deltas[1] == float(np.linalg.norm(top, 2))


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
    sysd = build_double(model, CollarGrid(n_u=8, n_y=24, kind="chebyshev"))
    (per_mode,) = [
        block for ch, block in aps_projection(sysd).channel_blocks
        if ch.eta == 8.0
    ]
    b = model.tangential_matrix(8.0)
    q = principal_symbol(b)[0]
    n = b.shape[0]
    assert np.linalg.norm(per_mode[:n, :n] - q, 2) < 1e-10


def test_aps_assembled_projector(built, rng):
    model, grid, sysd = built
    proj = aps_projection(sysd)
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
    ref = sorted(c.eta + c.shift for c in plain.mode_channels(grid.n_y))
    got = sorted(c.eta + c.shift for c in twisted.mode_channels(grid.n_y))
    assert len(got) == len(ref)
    assert np.abs(np.array(got) - np.array(ref)).max() < 1e-12
    sys_ref = build_double(plain, grid)
    sysd = build_double(twisted, grid)
    diag_ref = calderon_projector(sys_ref).diagnostics()
    diag = calderon_projector(sysd).diagnostics()
    assert diag["dimension"] == diag_ref["dimension"]
    assert diag["mode_count"] == diag_ref["mode_count"]
    g = BoundaryData.random_band_limited(plain, grid.n_y, rng)
    ref = poisson(sys_ref, g).values
    assert np.abs(poisson(sysd, g).values - ref).max() < 1e-12 * np.abs(
        ref
    ).max()


def test_twisted_apply_is_idempotent_and_matches_poisson_traces(rng):
    """With a holonomy, boundary data is the periodic part of the section in
    both the projector blocks and the grid-level solve and operator: C is
    idempotent on it and equals the traces of the Poisson solution, which
    the twisted D+ annihilates in the interior."""
    model = twisted_model()
    grid = CollarGrid(n_u=24, n_y=12, kind="chebyshev")
    sysd = build_double(model, grid)
    proj = calderon_projector(sysd)
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    cg = proj.apply(g)
    assert (proj.apply(cg) - cg).norm() < 1e-12 * cg.norm()
    u_sol = poisson(sysd, g)
    assert (boundary_trace(model, u_sol) - cg).norm() < 1e-12 * cg.norm()
    res = apply_dirac(model, u_sol, side=1).values[1:-1]
    assert np.abs(res).max() < 1e-9 * np.abs(u_sol.values).max()


def test_twisted_y_coupled_b_matches_per_mode_blocks():
    """A constant V given as V(y) under a holonomy: each y-coupled B is
    Hermitian, together they have the spectrum of the per-mode twisted
    blocks sigma_1 (eta + shift) + sigma_3 V over all n_y frequencies, and
    the index is the per-mode one."""
    v = np.diag([1.0, 0.5]).astype(complex)
    per_mode = twisted_model(v)
    coupled = twisted_model(lambda y: v)
    grid = CollarGrid(n_u=24, n_y=12, kind="chebyshev")
    bs = [ch.b_mat for ch in coupled.mode_channels(grid.n_y)]
    scale = max(np.linalg.norm(b, 2) for b in bs)
    for b in bs:
        assert np.linalg.norm(b - b.conj().T, 2) < 1e-12 * scale
    ref = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(
                    per_mode.tangential_matrix(
                        eta + shift, basis.conj().T @ v @ basis
                    )
                )
                for shift, basis in per_mode.holonomy_channels()
                for eta in np.fft.fftfreq(grid.n_y, d=1.0 / grid.n_y)
            ]
        )
    )
    got = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in bs]))
    assert np.abs(got - ref).max() < 1e-12 * scale
    i_mode = calderon_vs_aps_index(build_double(per_mode, grid))["index"]
    i_coupled = calderon_vs_aps_index(build_double(coupled, grid))["index"]
    assert i_coupled == i_mode


def test_orthogonalized_calderon_fixed_point(built):
    model, grid, sysd = built
    proj = calderon_projector(sysd)
    orth = _orthogonalized(proj)
    # the graph projection of self-adjoint b is already orthogonal
    assert np.linalg.norm(orth.matrix() - proj.matrix(), 2) < 1e-10


def test_orthogonalized_y_coupled_projector(built_vy):
    model, grid, sysd = built_vy
    orth = _orthogonalized(calderon_projector(sysd)).matrix()
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
        model=model, n_y=grid.n_y, channel_blocks=skewed_blocks
    )
    orth = _orthogonalized(skewed)
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


def _permode_cheb(n_y, seed):
    """(model, grid) of the permode-cheb workload at the given n_y."""
    cfg = parse_config({
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "cylinder",
            "r": 1,
            "v": {"kind": "random-hermitian", "scale": 0.8},
        },
        "grid": {"n_u": 48, "n_y": n_y, "kind": "chebyshev"},
        "tasks": ["index"],
        "seed": seed,
    })
    return cfg["model"], cfg["grid"]


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("n_y", [48, 60, 96])
def test_index_counts_the_kernel_past_projection_tol(n_y, seed):
    """The permode-cheb model (M2, random-Hermitian V of scale 0.8,
    Chebyshev n_u = 48) at n_y = 48, 60 and 96 (|eta| up to 32): the stored
    exact blocks are orthogonal projections to PROJECTION_TOL, and the
    index, which does not read them, gives the mode kernel count."""
    model, grid = _permode_cheb(n_y, seed)
    sysd = build_double(model, grid)
    assert sysd.per_mode
    idem, asym = projection_defects([cs.exact_block for cs in sysd.channels])
    assert idem.max() <= PROJECTION_TOL and asym.max() <= PROJECTION_TOL
    index = calderon_vs_aps_index(sysd)["index"]
    assert index == _mode_rank_oracle(model, grid.n_y)


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


def test_index_reports_the_frequency_set_it_counts():
    """Per mode the index counts |eta| <= n_y // 3; the y-coupled channel
    counts all n_y frequencies, so its dimension is 2 n_y n_fiber."""
    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    v = np.diag([1.0, -0.5]).astype(complex)
    per_mode = ProductDiracModel("cylinder", alg, v=v)
    coupled = ProductDiracModel("cylinder", alg, v=lambda y: v)
    mode = calderon_vs_aps_index(build_double(per_mode, grid))
    assert mode["mode_radius"] == 4 and "y_frequencies" not in mode
    assert mode["dimension"] == 2 * (2 * 4 + 1) * per_mode.n_fiber
    full = calderon_vs_aps_index(build_double(coupled, grid))
    assert full["y_frequencies"] == 12 and "mode_radius" not in full
    assert full["dimension"] == 2 * 12 * coupled.n_fiber


def _index_cases():
    """(model, grid, expected index): V = diag(1, 0), whose kernel gives 2,
    V = 0, which gives 4, the twisted cylinder, every decoupling_models()
    case, every selfcheck fixture that runs the index task and the
    permode-cheb model at n_y = 96 (seed 11), where |eta| reaches 32; the
    expected index of the last three is the mode kernel count."""
    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    cases = [
        (ProductDiracModel("cylinder", alg, v=np.diag([1.0, 0.0])), grid, 2),
        (ProductDiracModel("cylinder", alg, v=np.zeros((2, 2))), grid, 4),
        (twisted_model(), grid, 0),
    ]
    models = [(m, g) for _, m, g in decoupling_models()]
    for raw in builtin_fixtures("fixtures"):
        if "index" in raw["tasks"]:
            cfg = parse_config(raw)
            models.append((cfg["model"], cfg["grid"]))
    models.append(_permode_cheb(96, 11))
    return cases + [(m, g, _mode_rank_oracle(m, g.n_y)) for m, g in models]


def test_index_blocks_match_assembled():
    """The index of the channel blocks, of the per-frequency blocks and of
    the assembled matrices agree, also with two holonomy eigenphases, where
    a frequency block sums two embedded channel blocks; the kernel count
    equals that dense reference, the stored exact blocks against the APS
    blocks."""
    for model, grid, expected in _index_cases():
        sysd = build_double(model, grid)
        exact = _exact_projector(sysd)
        aps = aps_projection(sysd)
        assembled = relative_index([aps.matrix()], [exact.matrix()])
        assert relative_index(aps.blocks, exact.blocks) == assembled
        assert assembled == expected
        assert calderon_vs_aps_index(sysd)["index"] == assembled


def test_index_takes_no_eigh(built, monkeypatch):
    """The APS blocks come from the eigenpairs the double already holds."""
    _, _, sysd = built
    calls = _counting(monkeypatch, np.linalg, "eigh")
    calderon_vs_aps_index(sysd)
    assert calls == []


@pytest.mark.parametrize("fixture", ["built", "built_vy"])
def test_index_task_takes_no_dense_linear_algebra(
    fixture, request, monkeypatch
):
    """The index task counts the kernel from the eigenvalues the double
    holds and gates it by one SVD of each b: no eigendecomposition, no SVD
    of a matrix larger than the largest b, and neither the F-solve nor the
    dense relative index."""
    _, _, sysd = request.getfixturevalue(fixture)
    largest = max(len(cs.channel.b_mat) for cs in sysd.channels)
    svd_sizes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svd_sizes.append(np.shape(a)[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    calls = [
        _counting(monkeypatch, np.linalg, name)
        for name in ("eig", "eigh", "eigvals", "eigvalsh")
    ]
    for name in ("orthogonalize_idempotent_matrix", "relative_index"):
        calls.append(_counting(monkeypatch, hilbmod, name))
        # in case the projector holds its own reference
        monkeypatch.setattr(
            projector, name, getattr(hilbmod, name), raising=False
        )
    run = SimpleNamespace(double=lambda: sysd)
    status, _ = cli._task_index(None, None, run)
    assert status == "pass"
    assert calls == [[]] * len(calls)
    assert svd_sizes and max(svd_sizes) <= largest


def test_index_self_comparison(built):
    model, grid, sysd = built
    orth = _orthogonalized(_exact_projector(sysd))
    assert relative_index([orth.matrix()], [orth.matrix()]) == 0
