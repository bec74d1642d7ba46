"""The double, solved in the eigenbasis of each channel's tangential block
(per mode, or the y-coupled channels of a V(y) model), against the
coupled channel system it replaces."""

import os

import numpy as np
import pytest
import scipy.linalg

from calderon import dirac
from calderon.cli import builtin_fixtures, parse_config
from calderon.csalg import CStarAlgebra, adjoint_defect, herm, opnorm
from calderon.dirac import (
    CollarFunction,
    CollarGrid,
    ProductDiracModel,
    _realify,
    _scalar_systems,
    build_double,
    ghost_solution_check,
    invert_double,
)
from calderon.hilbmod import membership_defect, projection_defects
from calderon.projector import (
    BoundaryData,
    _block_diag,
    _collocation_blocks,
    aps_projection,
    calderon_projector,
    poisson,
    spectral_projection_positive,
)

from conftest import (
    fixture_models,
    hermitian,
    split_stacks,
    twisted_model,
    y_coupled_model,
)


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
    # side 1 drops the u=0 node, side 2 the u=1 node; the freed rows carry
    # the transmission conditions
    side1_rows, side2_rows = range(1, n + 1), range(0, n)
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
    """Drop-in for ``_solve_channel``: the gathered data laid out as the
    right-hand side of :func:`_channel_matrix` (side-1 rows, side-2 rows,
    the two gluing rows; omitted data is zero), one LU of that matrix."""
    factors = {}
    n = grid.n_u

    def solve(cs, f1, f2, jump0, jump1):
        if id(cs) not in factors:
            mat = _channel_matrix(grid, cs.channel.b_mat)
            factors[id(cs)] = scipy.linalg.lu_factor(mat)
        q2 = cs.channel.dim
        cols = next(a for a in (f1, f2, jump0, jump1) if a is not None)
        rhs = np.zeros((2 * n + 2, q2, cols.shape[-1]), dtype=complex)
        if f1 is not None:
            rhs[:n] = f1[1:]
        if f2 is not None:
            rhs[n : 2 * n] = f2[:n]
        if jump0 is not None:
            rhs[2 * n] = jump0
        if jump1 is not None:
            rhs[2 * n + 1] = jump1
        flat = rhs.reshape(len(rhs) * q2, -1)
        sol = scipy.linalg.lu_solve(factors[id(cs)], flat)
        return sol.reshape(2, n + 1, q2, -1)

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

    def solves():
        # f2 omitted: the zero side-2 data of the half-system columns
        return (
            invert_double(sysd, f1, f2)
            + invert_double(sysd, f1)
            + poisson(sysd, g, with_side2=True)
        )

    fast = solves()
    monkeypatch.setattr(dirac, "_solve_channel", coupled_solver(grid))
    ref = solves()
    assert len(fast) == len(ref) == 6
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


def rotated_holonomy_model():
    """twisted_model's eigenphases and V in a random unitary basis: the
    eigenphase bases come from ``eig`` of a non-diagonal holonomy, so they
    are orthonormal only to rounding (delta > 0)."""
    rng = np.random.default_rng(3)
    u = np.linalg.qr(hermitian(rng, 2))[0]
    phases = np.exp(2j * np.pi * np.array([0.25, 0.6]))
    holonomy = (u * phases) @ u.conj().T
    v = herm((u * [1.0, 0.5]) @ u.conj().T)
    return ProductDiracModel(
        "cylinder", CStarAlgebra.matrix(2), v=v, holonomy=holonomy
    )


def selfcheck_models():
    """The models and grids of the five selfcheck fixtures."""
    out = []
    for raw in builtin_fixtures("fixtures"):
        cfg = parse_config(raw)
        name = "selfcheck-" + os.path.basename(raw["output_dir"])
        out.append((name, cfg["model"], cfg["grid"]))
    return out


BOUND_CASES = CASES + selfcheck_models() + [(
    "cylinder-M2-rotated-holonomy",
    rotated_holonomy_model(),
    CollarGrid(n_u=16, n_y=8, kind="chebyshev"),
)]


@pytest.mark.parametrize(
    "name, model, grid", BOUND_CASES, ids=[c[0] for c in BOUND_CASES]
)
def test_channel_defects_bound_the_assembled_ones(name, model, grid):
    """diagnostics() reports the per-channel bounds, with delta the
    unitarity defect of the fiber basis the channels embed by, and they
    read the defects of the assembled matrix: within 1e-14, and below by
    at most 1e-12 relative.  With delta > 0 the assembled matrix carries
    the rounding of its own embedding products as well, so both bounds add
    n eps max x_c^2, n the largest full-fiber block size."""
    proj = calderon_projector(build_double(model, grid))
    diag = proj.diagnostics()
    delta = diag["embedding_unitarity_defect"]
    channels = [ch for ch, _ in proj.channel_blocks]
    if channels[0].coupled:
        assert delta == channels[0].split["commutant_unitarity_defect"]
    else:
        assert delta == model.holonomy_basis_defect()
    # delta is that of the embeddings of the channels of one frequency
    frame = np.concatenate(
        [ch.embedding for ch in channels if ch.eta == channels[0].eta], axis=1
    )
    eye = np.eye(len(frame))
    assert abs(delta - opnorm(frame.conj().T @ frame - eye)) <= 1e-15
    idem, asym = projection_defects([b for _, b in proj.channel_blocks])
    norm = 0.5 * (1.0 + asym + np.sqrt((1.0 + asym) ** 2 + 4.0 * idem))
    size = max(len(b) for b in proj.blocks)
    rounding = size * np.finfo(float).eps * (norm**2).max() if delta else 0.0
    assert diag["idempotency_defect"] == (1.0 + delta) * (
        idem.max() + delta * (norm**2).max()
    ) + rounding
    assert diag["self_adjointness_defect"] == (
        (1.0 + delta) * asym.max() + rounding
    )

    mat = proj.matrix()
    assembled = {
        "idempotency_defect": np.linalg.norm(mat @ mat - mat, 2),
        "self_adjointness_defect": np.linalg.norm(mat - mat.conj().T, 2),
    }
    for key, ref in assembled.items():
        assert abs(diag[key] - ref) <= 1e-14, key
        assert diag[key] >= ref * (1.0 - 1e-12), key
    if name == "cylinder-M2-rotated-holonomy":
        assert delta > 0.0


@pytest.mark.parametrize("seed", range(8))
def test_reported_defects_bound_the_exported_matrix_under_a_rotated_holonomy(
    seed,
):
    """A holonomy U diag(e^{2 pi i 0.25}, e^{2 pi i 0.6}) U* with U the
    unitary factor of a complex Gaussian has eigenphase bases orthonormal
    only to rounding (delta > 0): both reported defects are at least those
    of the float64 matrix that export_projector writes."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )[0]
    holonomy = (u * np.exp(2j * np.pi * np.array([0.25, 0.6]))) @ u.conj().T
    model = ProductDiracModel(
        "cylinder", CStarAlgebra.matrix(2), v=np.zeros((2, 2)),
        holonomy=holonomy,
    )
    grid = CollarGrid(n_u=16, n_y=8, kind="chebyshev")
    proj = calderon_projector(build_double(model, grid))
    diag = proj.diagnostics()
    assert diag["embedding_unitarity_defect"] > 0.0
    mat = proj.matrix()
    assert diag["idempotency_defect"] >= np.linalg.norm(mat @ mat - mat, 2)
    assert diag["self_adjointness_defect"] >= np.linalg.norm(
        mat - mat.conj().T, 2
    )


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


def record_members(monkeypatch, name, kind, size=None):
    """Record, one list per call, the matrices of dtype kind ``kind`` (and
    ``size`` columns, if given) passed to ``np.linalg.<name>``: the ghost
    stacks are real, the half systems complex of size n_u + 1 (odd), the
    exact oracles complex of even size.  Calls may come from the worker
    threads of ``csalg.map_members``."""
    calls = []
    func = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        a = np.asarray(a)
        if a.dtype.kind == kind and size in (None, a.shape[-1]):
            calls.append(list(a.reshape((-1,) + a.shape[-2:])))
        return func(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def split_modes(monkeypatch):
    """Run the body of a loop over this once inline and once with every
    stack split in two by ``csalg.map_members``; yields the patch context
    and the worker count."""
    for workers in (1, 2):
        with monkeypatch.context() as mp:
            split_stacks(mp, workers)
            yield mp, workers


def assert_each_member_once(calls, store, workers):
    """Over all the recorded calls, one per chunk, every member of
    ``store`` was decomposed exactly once: the member counts sum to its
    length and no member repeats (the store's members are distinct)."""
    assert len(calls) == min(workers, len(store))
    assert sum(len(call) for call in calls) == len(store)
    seen = sorted(m.tobytes() for call in calls for m in call)
    assert seen == sorted(m.tobytes() for m in store)


def test_store_is_exact_and_certified_once_per_eigenvalue(case, monkeypatch):
    """The store holds C(lambda) of each distinct eigenvalue bit for bit,
    each channel's matrix is their realification and its sigma_min equals
    the SVD of its own half systems; build_double decomposes each distinct
    eigenvalue's C(lambda) exactly once, whether the SVD stack is split
    over worker threads or not."""
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
    for mp, workers in split_modes(monkeypatch):
        svds = record_members(mp, "svd", "c", grid.n_nodes)
        real_svds = record_members(mp, "svd", "f")
        again = build_double(model, grid)
        assert_each_member_once(svds, sysd.systems, workers)
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
    stacks at the |lambda| of its eigenvalues; the stack of each distinct
    |lambda| of the double is decomposed exactly once, whether the SVD
    stack is split over worker threads or not."""
    model, grid, sysd = case
    for mp, workers in split_modes(monkeypatch):
        svds = record_members(mp, "svd", "f")
        ghost = ghost_solution_check(sysd)
        assert_each_member_once(
            svds,
            ghost_stacks(grid, np.unique(np.abs(sysd.eigvals))),
            workers,
        )
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
    distinct eigenvalue's C(lambda) exactly once, whether the solve is
    split over worker threads or not."""
    model, grid, sysd = case
    c0, t = _scalar_systems(grid)
    n = grid.n_u
    e = np.zeros((1, n + 1, 1), dtype=complex)
    e[0, n, 0] = 1.0
    for mp, workers in split_modes(monkeypatch):
        solves = record_members(mp, "solve", "c")
        proj = calderon_projector(sysd)
        assert_each_member_once(solves, sysd.systems, workers)
        for cs, (_, block) in zip(sysd.channels, proj.channel_blocks):
            own = c0 + cs.eigvals[:, None, None] * t
            w = np.linalg.solve(own, e)[:, [0, n], 0]
            p = np.stack([w.real, -w.imag], axis=-1)
            u = cs.eigvecs
            ref = np.block([
                [(u * p[:, i, j]) @ u.conj().T for j in (0, 1)]
                for i in (0, 1)
            ])
            assert np.array_equal(block, ref)


@pytest.mark.parametrize("name, model, grid", CASES, ids=IDS)
def test_split_store_passes_are_bit_identical(name, model, grid, monkeypatch):
    """Each channel's sigma_min, each channel's ghost sigma and the
    collocation blocks are bitwise the same whether csalg.map_members runs
    the three store passes inline or splits each over two workers."""
    runs = []
    for _ in split_modes(monkeypatch):
        sysd = build_double(model, grid)
        runs.append((
            [cs.sigma_min for cs in sysd.channels],
            ghost_solution_check(sysd)["per_channel"],
            _collocation_blocks(sysd),
        ))
    (sigmas, ghosts, blocks), (split_sigmas, split_ghosts, split_blocks) = runs
    assert sigmas == split_sigmas
    assert ghosts == split_ghosts
    assert len(blocks) == len(split_blocks)
    for block, split_block in zip(blocks, split_blocks):
        assert np.array_equal(block, split_block)


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
