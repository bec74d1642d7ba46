"""The double, solved in the eigenbasis of each channel's tangential block
(per mode, or the one y-coupled channel of a V(y) model), against the
coupled channel system it replaces."""

import numpy as np
import pytest
import scipy.linalg

from calderon import dirac
from calderon.csalg import CStarAlgebra
from calderon.dirac import (
    CollarFunction,
    CollarGrid,
    ProductDiracModel,
    _channel_matrix,
    _scalar_systems,
    build_double,
    ghost_solution_check,
    invert_double,
)
from calderon.errors import StructureError
from calderon.hilbmod import membership_defect
from calderon.projector import BoundaryData, calderon_projector, poisson

from conftest import fixture_models, hermitian, y_coupled_model


def decoupling_models():
    """fixture_models() plus a segment with a sigma_1 term w and a cylinder
    with V(y), whose double is one y-coupled channel, on either u-grid."""
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
    return fixture_models() + [segment_w, cylinder_vy, cylinder_vy_cheb]


CASES = decoupling_models()
IDS = [name for name, _, _ in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    name, model, grid = request.param
    return model, grid, build_double(model, grid)


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
    grid = CollarGrid(n_u=12, n_y=1, kind="chebyshev")
    a0, s = _scalar_systems(grid)
    for lam in (0.0, -1.7, 3.25):
        ref = _channel_matrix(grid, np.array([[lam]]))
        assert np.array_equal(a0 + lam * s, ref.real)
        assert not ref.imag.any()


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
    assert cert["sigma_min_method"] == path + " decoupled full SVD"
    assert cert["svd_max_dim"] == 2 * grid.n_nodes
    assert 0.0 <= cert["eig_residual"] < 1e-12
    assert 0.0 <= cert["eig_unitarity_defect"] < 1e-12


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


def test_collocation_blocks_match_coupled_solve(case, monkeypatch):
    model, grid, sysd = case
    fast = calderon_projector(sysd)
    monkeypatch.setattr(dirac, "_solve_channel", coupled_solver(grid))
    ref = calderon_projector(sysd)
    assert rel_diff(fast.matrix(), ref.matrix()) < 1e-12


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
    if model.h_rep is not None:
        # holonomy enters only through the per-mode projector blocks
        with pytest.raises(StructureError):
            invert_double(sysd, f1, f2)
        with pytest.raises(StructureError):
            poisson(sysd, g)
        return
    fast = invert_double(sysd, f1, f2) + poisson(sysd, g, with_side2=True)
    monkeypatch.setattr(dirac, "_solve_channel", coupled_solver(grid))
    ref = invert_double(sysd, f1, f2) + poisson(sysd, g, with_side2=True)
    for a, b in zip(fast, ref):
        assert rel_diff(a.values, b.values) < 1e-12


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
