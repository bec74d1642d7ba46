"""The double, solved in the eigenbasis of each channel's tangential block
(per mode, or the y-coupled channels of a V(y) model), against the
coupled channel system it replaces."""

import numpy as np
import pytest
import scipy.linalg

from calderon import dirac
from calderon.csalg import CStarAlgebra, adjoint_defect, opnorm
from calderon.dirac import (
    CollarFunction,
    CollarGrid,
    ProductDiracModel,
    _realify,
    _row_selection,
    _scalar_systems,
    build_double,
    ghost_solution_check,
    invert_double,
)
from calderon.hilbmod import membership_defect
from calderon.projector import (
    BoundaryData,
    _block_diag,
    aps_projection,
    calderon_projector,
    poisson,
    spectral_projection_positive,
)

from conftest import fixture_models, hermitian, twisted_model, y_coupled_model


def decoupling_models():
    """fixture_models() plus a segment with a sigma_1 term w, a cylinder
    with V(y), whose double has two y-coupled channels, on either u-grid, and
    a twisted cylinder whose eigenvalues are all distinct."""
    rng = np.random.default_rng(7)
    m2 = CStarAlgebra.matrix(2)
    segment_w = (
        "segment-M2-w",
        ProductDiracModel(
            "segment", m2, r=1, v=hermitian(rng, 2), w=hermitian(rng, 2, 0.5)
        ),
        CollarGrid(n_u=16, n_y=1, kind="chebyshev"),
    )
    cylinder_vy = (
        "cylinder-M2-vy",
        y_coupled_model(),
        CollarGrid(n_u=8, n_y=8, kind="uniform"),
    )
    cylinder_vy_cheb = (
        "cylinder-M2-vy-cheb",
        y_coupled_model(),
        CollarGrid(n_u=16, n_y=8, kind="chebyshev"),
    )
    cylinder_twisted = (
        "cylinder-M2-twisted",
        twisted_model(),
        CollarGrid(n_u=16, n_y=8, kind="chebyshev"),
    )
    return fixture_models() + [
        segment_w,
        cylinder_vy,
        cylinder_vy_cheb,
        cylinder_twisted,
    ]


CASES = decoupling_models()
IDS = [name for name, _, _ in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    name, model, grid = request.param
    return model, grid, build_double(model, grid)


@pytest.mark.parametrize("name, model, grid", CASES, ids=IDS)
def test_clifford_identities(name, model, grid):
    """G is unitary with G* = -G, and every tangential matrix B (on every
    channel frequency and V(y) sample) is Hermitian and anticommutes with
    G: the identities the construction guarantees for self-adjoint V and W,
    which the model therefore does not re-check when it is built."""
    g = model.g_rep
    assert opnorm(g @ g.conj().T - np.eye(model.n_fiber)) <= 1e-15
    assert np.array_equal(g.conj().T, -g)
    channels = model.mode_channels(grid.n_y)
    etas = sorted({1.5} | {ch.eta + ch.shift for ch in channels})
    for v in model.v_samples(grid.n_y):
        for eta in etas:
            b = model.tangential_matrix(eta, v)
            assert adjoint_defect(b) <= 1e-12 * max(1.0, opnorm(b))
            assert opnorm(g @ b + b @ g) <= 1e-15 * max(1.0, opnorm(b))


def _channel_matrix(grid, b_mat):
    """Coupled transmission system of one tangential block, the oracle for
    the decoupled scalar systems.

    Unknowns: (phi at nodes, tau at nodes) x fiber.  Equations: (d/du + B)
    phi = side-1 rhs at the selected nodes, (-d/du + B) tau = side-2 rhs,
    plus the gluing rows phi(0) - tau(0) = jump0, phi(1) + tau(1) = jump1.
    """
    n = grid.n_u
    q2 = b_mat.shape[0]
    d = grid.diff_matrix()
    eye_nodes = np.eye(n + 1)
    side1_rows, side2_rows = _row_selection(n)
    l_plus = np.kron(d, np.eye(q2)) + np.kron(eye_nodes, b_mat)
    l_minus = -np.kron(d, np.eye(q2)) + np.kron(eye_nodes, b_mat)

    dim_side = (n + 1) * q2
    total = 2 * dim_side
    mat = np.zeros((total, total), dtype=complex)
    row = 0
    for i in side1_rows:
        mat[row : row + q2, :dim_side] = l_plus[i * q2 : (i + 1) * q2]
        row += q2
    for i in side2_rows:
        mat[row : row + q2, dim_side:] = l_minus[i * q2 : (i + 1) * q2]
        row += q2
    # gluing rows
    mat[row : row + q2, 0:q2] = np.eye(q2)
    mat[row : row + q2, dim_side : dim_side + q2] = -np.eye(q2)
    row += q2
    mat[row : row + q2, dim_side - q2 : dim_side] = np.eye(q2)
    mat[row : row + q2, total - q2 : total] = np.eye(q2)
    return mat


def coupled_solver(grid):
    """Drop-in for ``_solve_channel``: one LU of the full channel matrix."""
    factors = {}

    def solve(cs, rhs):
        if id(cs) not in factors:
            mat = _channel_matrix(grid, cs.channel.b_mat)
            factors[id(cs)] = scipy.linalg.lu_factor(mat)
        flat = rhs.reshape(rhs.shape[0], -1)
        return scipy.linalg.lu_solve(factors[id(cs)], flat).reshape(rhs.shape)

    return solve


def rel_diff(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


def test_scalar_system_is_channel_matrix_of_one_eigenvalue():
    """The realified half system C(lambda) is the coupled system of the
    1 x 1 block lambda, bit for bit."""
    grid = CollarGrid(n_u=12, n_y=1, kind="chebyshev")
    c0, t = _scalar_systems(grid)
    for lam in (0.0, -1.7, 3.25):
        ref = _channel_matrix(grid, np.array([[lam]]))
        assert np.array_equal(_realify(c0 + lam * t), ref.real)
        assert not ref.imag.any()


@pytest.mark.parametrize("kind", ["chebyshev", "uniform"])
def test_diff_matrix_is_reflection_antisymmetric(kind):
    """J D J = -D bit for bit, J the node reversal: the identity that makes
    the real scalar system the realification of the half system."""
    for n_u in range(4, 130, 2):
        d = CollarGrid(n_u=n_u, n_y=1, kind=kind).diff_matrix()
        assert np.array_equal(d[::-1, ::-1], -d)


def test_sigma_min_matches_coupled_svd(case):
    model, grid, sysd = case
    for cs in sysd.channels:
        mat = _channel_matrix(grid, cs.channel.b_mat)
        ref = np.linalg.svd(mat, compute_uv=False)[-1]
        assert abs(cs.sigma_min - ref) <= 1e-12 * ref
        assert cs.matrix.shape == (mat.shape[0], 2 * grid.n_nodes)
    assert sysd.sigma_min == min(cs.sigma_min for cs in sysd.channels)


def test_certificate_records_method_and_residuals(case):
    model, grid, sysd = case
    cert = sysd.certificate()
    path = "per-mode" if sysd.per_mode else "y-coupled"
    assert sysd.per_mode != model.y_dependent
    assert cert["sigma_min_method"] == (
        path + " decoupled full SVD of the complex half systems"
    )
    assert cert["svd_max_dim"] == grid.n_nodes
    assert 0.0 <= cert["eig_residual"] < 1e-12
    assert 0.0 <= cert["eig_unitarity_defect"] < 1e-12
    lam = np.concatenate([cs.eigvals for cs in sysd.channels])
    assert cert["distinct_eigenvalues"] == len(np.unique(lam))
    assert cert["distinct_eigenvalues"] == len(sysd.systems)
    assert cert["scalar_systems"] == len(lam)


def test_ghost_sigma_matches_coupled_stack(case):
    model, grid, sysd = case
    n = grid.n_u
    d = grid.diff_matrix()
    ghost = ghost_solution_check(sysd)
    for cs, sigma in zip(sysd.channels, ghost["per_channel"]):
        b = cs.channel.b_mat
        q2 = b.shape[0]
        trace_rows = np.kron(np.eye(n + 1)[[0, n]], np.eye(q2))
        stack = np.vstack(
            [np.kron(d, np.eye(q2)) + np.kron(np.eye(n + 1), b), trace_rows]
        )
        ref = np.linalg.svd(stack, compute_uv=False)[-1]
        assert abs(sigma - ref) <= 1e-12 * ref


def test_collocation_blocks_match_coupled_solve(case):
    """Each channel block against the traces phi(0), phi(1) of one LU solve
    of the coupled channel matrix with the identity jump basis."""
    model, grid, sysd = case
    n = grid.n_u
    proj = calderon_projector(sysd)
    assert len(proj.channel_blocks) == len(sysd.channels)
    for cs, (ch, block) in zip(sysd.channels, proj.channel_blocks):
        assert ch is cs.channel
        q2 = ch.dim
        mat = _channel_matrix(grid, ch.b_mat)
        jumps = np.zeros((mat.shape[0], 2 * q2))
        jumps[2 * n * q2 :] = np.eye(2 * q2)  # the two gluing row blocks
        sol = scipy.linalg.lu_solve(scipy.linalg.lu_factor(mat), jumps)
        ref = np.vstack([sol[:q2], sol[n * q2 : (n + 1) * q2]])
        assert rel_diff(block, ref) < 1e-12


def test_invert_double_and_poisson_match_coupled_solve(case, monkeypatch):
    model, grid, sysd = case
    rng = np.random.default_rng(3)
    shape = (grid.n_nodes, grid.n_y, model.n_fiber, model.m)
    f1, f2 = (
        CollarFunction(
            grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        for _ in range(2)
    )
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    fast = invert_double(sysd, f1, f2) + poisson(sysd, g, with_side2=True)
    monkeypatch.setattr(dirac, "_solve_channel", coupled_solver(grid))
    ref = invert_double(sysd, f1, f2) + poisson(sysd, g, with_side2=True)
    for a, b in zip(fast, ref):
        assert rel_diff(a.values, b.values) < 1e-12


def test_aps_blocks_from_the_double_match_eigh_of_b(case):
    """diag(P+(b), P+(-b)) from the double's eigenpairs is the projection
    from a fresh eigendecomposition of each channel's b."""
    _, _, sysd = case
    for ch, block in aps_projection(sysd).channel_blocks:
        b = ch.b_mat
        ref = _block_diag(
            [spectral_projection_positive(b), spectral_projection_positive(-b)]
        )
        assert np.linalg.norm(block - ref, 2) < 1e-12


def test_blockwise_diagnostics_match_assembled_matrix(case):
    model, grid, sysd = case
    proj = calderon_projector(sysd)
    mat = proj.matrix()
    diag = proj.diagnostics()
    assert diag["a_membership_defect"] == float(
        membership_defect(model.algebra, mat)
    )
    assert diag["dimension"] == mat.shape[0]
    if sysd.per_mode:
        assert diag["mode_count"] == len(proj.blocks)
    ref_idem = np.linalg.norm(mat @ mat - mat, 2)
    ref_sa = np.linalg.norm(mat - mat.conj().T, 2)
    assert abs(diag["idempotency_defect"] - ref_idem) <= 1e-14
    assert abs(diag["self_adjointness_defect"] - ref_sa) <= 1e-14


# -- the per-eigenvalue store: exact, not approximate ---------------------


def count_matrices(monkeypatch, name, kind, size=None):
    """Count the matrices of dtype kind ``kind`` (and ``size`` columns, if
    given) passed to ``np.linalg.<name>``: the ghost stacks are real, the
    half systems complex of size n_u + 1 (odd), the exact oracles complex
    of even size."""
    counts = []
    func = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        if a.dtype.kind == kind and size in (None, a.shape[-1]):
            counts.append(int(np.prod(a.shape[:-2])))
        return func(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_store_is_exact_and_certified_once_per_eigenvalue(case, monkeypatch):
    """The store holds C(lambda) of each distinct eigenvalue bit for bit,
    each channel's matrix is their realification and its sigma_min equals
    the SVD of its own half systems; build_double makes one SVD per
    distinct eigenvalue."""
    model, grid, sysd = case
    c0, t = _scalar_systems(grid)
    lam = np.concatenate([cs.eigvals for cs in sysd.channels])
    assert np.array_equal(sysd.eigvals, np.unique(lam))
    assert np.array_equal(sysd.systems, c0 + sysd.eigvals[:, None, None] * t)
    for cs in sysd.channels:
        own = c0 + cs.eigvals[:, None, None] * t
        assert cs.systems is sysd.systems
        assert np.array_equal(sysd.eigvals[cs.rows], cs.eigvals)
        assert np.array_equal(
            cs.matrix, _realify(own).reshape(-1, 2 * grid.n_nodes)
        )
        assert cs.sigma_min == np.linalg.svd(own, compute_uv=False).min()
    svds = count_matrices(monkeypatch, "svd", "c", grid.n_nodes)
    real_svds = count_matrices(monkeypatch, "svd", "f")
    again = build_double(model, grid)
    assert svds == [len(sysd.eigvals)]
    assert real_svds == []
    assert again.sigma_min == sysd.sigma_min


def test_half_system_svd_is_the_real_svd_doubled(case):
    """Every singular value of the real scalar system A(lambda) is one of
    C(lambda), counted twice: the certificate against the full real SVD."""
    _, _, sysd = case
    half = np.linalg.svd(sysd.systems, compute_uv=False)
    real = np.linalg.svd(_realify(sysd.systems), compute_uv=False)
    doubled = np.repeat(half, 2, axis=-1)
    assert np.all(np.abs(doubled - real) <= 1e-12 * real)


def test_store_is_half_the_real_store(case):
    _, grid, sysd = case
    assert sysd.systems.shape[-2:] == (grid.n_nodes, grid.n_nodes)
    assert 2 * sysd.systems.nbytes == _realify(sysd.systems).nbytes


def ghost_stacks(grid, lam):
    """The real ghost stacks [D + lambda I; e_0^T; e_n^T], one per lambda."""
    n = grid.n_u
    eye_nodes = np.eye(n + 1)
    base = np.vstack([grid.diff_matrix(), eye_nodes[[0, n]]])
    select = np.vstack([eye_nodes, np.zeros((2, n + 1))])
    return base + np.asarray(lam)[:, None, None] * select


def test_ghost_sigma_is_the_per_channel_stack_svd(case, monkeypatch):
    """Each channel's ghost sigma is the smallest singular value of the
    stacks at the |lambda| of its eigenvalues, one SVD per distinct
    |lambda| of the double."""
    model, grid, sysd = case
    svds = count_matrices(monkeypatch, "svd", "f")
    ghost = ghost_solution_check(sysd)
    assert svds == [len(np.unique(np.abs(sysd.eigvals)))]
    monkeypatch.undo()
    for cs, sigma in zip(sysd.channels, ghost["per_channel"]):
        stack = ghost_stacks(grid, np.abs(cs.eigvals))
        assert sigma == np.linalg.svd(stack, compute_uv=False).min()


@pytest.mark.parametrize("kind", ["chebyshev", "uniform"])
def test_ghost_singular_values_agree_at_opposite_eigenvalues(kind):
    """J D J = -D makes the stack at -lambda a signed row and column
    permutation of the one at lambda: the singular values agree to
    rounding, each to 1e-13 of itself, which is what lets the ghost check
    take one SVD per |lambda|."""
    lam = np.array([0.0, 0.3, 1.7, 12.5, 250.0])
    for n_u in range(4, 66, 2):
        grid = CollarGrid(n_u=n_u, n_y=1, kind=kind)
        plus = np.linalg.svd(ghost_stacks(grid, lam), compute_uv=False)
        minus = np.linalg.svd(ghost_stacks(grid, -lam), compute_uv=False)
        assert np.all(np.abs(plus - minus) <= 1e-13 * plus), n_u


def test_collocation_blocks_are_the_per_channel_trace_maps(case, monkeypatch):
    """Each block equals the complex 1-column solve w = C(lambda)^-1 e_n of
    the channel's own half systems, p = [[Re w_0, -Im w_0], [Re w_n, -Im
    w_n]] (jump1 enters as i e_n), rotated back; the projector solves each
    distinct eigenvalue once."""
    model, grid, sysd = case
    c0, t = _scalar_systems(grid)
    n = grid.n_u
    e = np.zeros((1, n + 1, 1), dtype=complex)
    e[0, n, 0] = 1.0
    solves = count_matrices(monkeypatch, "solve", "c")
    proj = calderon_projector(sysd)
    assert solves == [len(sysd.eigvals)]
    monkeypatch.undo()
    for cs, (_, block) in zip(sysd.channels, proj.channel_blocks):
        own = c0 + cs.eigvals[:, None, None] * t
        w = np.linalg.solve(own, e)[:, [0, n], 0]
        p = np.stack([w.real, -w.imag], axis=-1)
        u = cs.eigvecs
        ref = np.block(
            [[(u * p[:, i, j]) @ u.conj().T for j in (0, 1)] for i in (0, 1)]
        )
        assert np.array_equal(block, ref)


@pytest.mark.parametrize(
    "name, distinct, total, pairs",
    [
        ("cylinder-M2", 20, 36, 4),
        ("cylinder-M2-antiperiodic", 10, 36, 4),
        ("cylinder-M2-twisted", 20, 20, 0),
    ],
)
def test_opposite_frequencies_share_their_rows(name, distinct, total, pairs):
    """B(-xi) = Sigma B(xi) Sigma with Sigma = sigma_3 x I: the channels of
    opposite frequency xi = eta + shift have the same spectrum, bit for
    bit, and so the same rows of the store.  With V = 0 the spectrum of
    B(xi) is +-xi, each twice, which leaves 10 of 36."""
    model, grid = next((m, g) for n, m, g in CASES if n == name)
    sysd = build_double(model, grid)
    assert len(sysd.systems) == distinct
    assert sum(len(cs.rows) for cs in sysd.channels) == total
    by_freq = {
        (cs.channel.shift, cs.channel.eta + cs.channel.shift): cs.rows
        for cs in sysd.channels
    }
    opposite = [
        (rows, by_freq[shift, -freq])
        for (shift, freq), rows in by_freq.items()
        if freq > 0 and (shift, -freq) in by_freq
    ]
    assert len(opposite) == pairs
    for rows, mirrored in opposite:
        assert np.array_equal(rows, mirrored)
