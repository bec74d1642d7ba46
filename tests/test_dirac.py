import numpy as np
import pytest
import scipy.linalg

from calderon import dirac
from calderon.csalg import CStarAlgebra
from calderon.csalg import norm as alg_norm
from calderon.dirac import (
    SIGMA_1,
    CollarFunction,
    CollarGrid,
    ProductDiracModel,
    apply_dirac,
    build_double,
    chebyshev_nodes_diff,
    clenshaw_curtis_weights,
    commutant_split,
    exact_channel,
    fd4_diff,
    ghost_solution_check,
    green_residual,
    invert_double,
    simpson_weights,
)
from calderon.errors import CertificationError, StructureError
from calderon.projector import BoundaryData, poisson

from conftest import (
    cylinder_fixture,
    fixture_models,
    hermitian,
    twisted_model,
    y_coupled_model,
)


# -- discretization building blocks ------------------------------------


def test_chebyshev_nodes_ascending_and_exact():
    u, d = chebyshev_nodes_diff(16)
    assert u[0] == 0.0 and u[-1] == pytest.approx(1.0)
    assert np.all(np.diff(u) > 0)
    p = u**7 - 3 * u**2
    assert np.abs(d @ p - (7 * u**6 - 6 * u)).max() < 1e-10


def test_clenshaw_curtis_exactness():
    w = clenshaw_curtis_weights(16)
    u = chebyshev_nodes_diff(16)[0]
    assert w @ np.ones_like(u) == pytest.approx(1.0, abs=1e-14)
    assert w @ u**6 == pytest.approx(1.0 / 7.0, abs=1e-14)


def test_fd4_order():
    errs = []
    for n in (16, 32, 64):
        u = np.linspace(0.0, 1.0, n + 1)
        d = fd4_diff(n, 1.0 / n)
        f = np.exp(np.sin(2 * np.pi * u))
        df = 2 * np.pi * np.cos(2 * np.pi * u) * f
        errs.append(np.abs(d @ f - df).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.mean() > 3.5


def test_simpson_exactness():
    w = simpson_weights(16, 1.0 / 16)
    u = np.linspace(0, 1, 17)
    assert w @ u**3 == pytest.approx(0.25, abs=1e-14)


# -- model structure ----------------------------------------------------


def test_model_clifford_relations(rng):
    model, _ = cylinder_fixture()
    g = model.g_rep
    b = model.tangential_matrix(1.5)
    assert np.linalg.norm(g @ g.conj().T - np.eye(4), 2) < 1e-14
    assert np.linalg.norm(g + g.conj().T, 2) < 1e-14
    assert np.linalg.norm(g @ b + b @ g, 2) < 1e-12
    assert np.linalg.norm(b - b.conj().T, 2) < 1e-12


def test_model_validation(rng):
    alg = CStarAlgebra.matrix(2)
    with pytest.raises(StructureError):
        ProductDiracModel("plane", alg)
    with pytest.raises(StructureError):
        ProductDiracModel(
            "cylinder", alg, v=np.array([[0.0, 1.0], [0.0, 0.0]])
        )  # not self-adjoint
    with pytest.raises(StructureError):
        ProductDiracModel(
            "cylinder",
            alg,
            v=np.zeros((2, 2)),
            holonomy=np.diag([2.0, 1.0]),
        )  # not unitary
    with pytest.raises(StructureError):
        ProductDiracModel(
            "cylinder",
            alg,
            v=np.diag([1.0, 2.0]),
            holonomy=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )  # does not commute with v


def test_commutant_split_of_a_rotated_commuting_family(rng):
    """Five Hermitian matrices with joint eigenspaces of dimensions 1, 2
    and 3 in a random basis: the split finds the three, certified."""
    u = np.linalg.qr(hermitian(rng, 6) + 1j * np.eye(6))[0]
    groups = np.repeat([0, 1, 2], [1, 2, 3])
    lams = [rng.standard_normal(3)[groups] for _ in range(5)]
    mats = np.stack([(u * lam) @ u.conj().T for lam in lams])
    e, clusters, cert = commutant_split(mats)
    assert sorted(c.stop - c.start for c in clusters) == [1, 2, 3]
    assert cert["commutant_clusters"] == 3
    assert cert["commutant_unitarity_defect"] <= 1e-12
    assert cert["commutant_offblock_residual"] <= 1e-12
    # each cluster spans one joint eigenspace
    for c in clusters:
        g = groups[np.argmax(np.abs(u.conj().T @ e[:, c.start]))]
        p = u[:, groups == g] @ u[:, groups == g].conj().T
        assert np.linalg.norm(e[:, c] @ e[:, c].conj().T - p, 2) < 1e-12
    # a non-commuting pair has no certified split: one cluster, E = I
    e, clusters, cert = commutant_split([mats[0], hermitian(rng, 6)])
    assert np.array_equal(e, np.eye(6)) and clusters == [slice(0, 6)]
    assert cert["commutant_clusters"] == 1


def test_mode_channels_dealiased():
    model, _ = cylinder_fixture()
    chans = model.mode_channels(12)
    etas = sorted(ch.eta for ch in chans)
    assert etas == [float(k) for k in range(-4, 5)]


def test_holonomy_channels_shift_frequencies():
    alg = CStarAlgebra.cyclic(4)
    h = alg._group_basis[1].astype(complex)
    model = ProductDiracModel(
        "cylinder", alg, v=np.zeros((4, 4)), holonomy=h
    )
    shifts = sorted({round(c.shift, 9) for c in model.mode_channels(12)})
    assert shifts == [0.0, 0.25, 0.5, 0.75]


# -- applying the operator ---------------------------------------------


def test_apply_dirac_matches_symbol(rng):
    model, grid = cylinder_fixture()
    u = grid.u_nodes()
    y = 2 * np.pi * np.arange(grid.n_y) / grid.n_y
    eta = 3
    w = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    p = np.cos(np.pi * u / 2)
    dp = -np.pi / 2 * np.sin(np.pi * u / 2)
    phase = np.exp(1j * eta * y)
    s = CollarFunction(
        grid,
        p[:, None, None, None] * phase[None, :, None, None] * w[None, None],
    )
    b = model.tangential_matrix(eta)
    expect = np.einsum(
        "ij,uyjm->uyim",
        model.g_rep,
        (dp[:, None, None, None] * w[None, None]
         + p[:, None, None, None] * (b @ w)[None, None])
        * phase[None, :, None, None],
    )
    got = apply_dirac(model, s, side=1)
    assert np.abs(got.values - expect).max() < 1e-11


def test_interior_adjointness(rng):
    model, grid = cylinder_fixture()
    u = grid.u_nodes()
    y = 2 * np.pi * np.arange(grid.n_y) / grid.n_y
    prof = u**2 * (1 - u) ** 2
    c1 = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    c2 = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    mk = lambda c: CollarFunction(
        grid,
        prof[:, None, None, None]
        * np.exp(1j * y)[None, :, None, None]
        * c[None, None],
    )
    s1, s2 = mk(c1), mk(c2)
    from calderon.dirac import collar_inner_product

    lhs = collar_inner_product(apply_dirac(model, s1, 1), s2)
    rhs = collar_inner_product(s1, apply_dirac(model, s2, side=2))
    assert np.linalg.norm(lhs - rhs, 2) < 1e-12


def _exponential_pair(model, grid, rng, eta=2):
    """Side-1 kernel element and a generic exponential E^- section; with a
    holonomy, their periodic parts (B at eta + Theta)."""
    u = grid.u_nodes()
    y = (
        2 * np.pi * np.arange(grid.n_y) / grid.n_y
        if grid.n_y > 1
        else np.zeros(1)
    )
    b = model.tangential_matrix(eta if grid.n_y > 1 else 0.0)
    if grid.n_y > 1:
        theta = sum(
            s * e @ e.conj().T for s, e in model.holonomy_channels()
        )
        b = b + np.kron(SIGMA_1, theta)
    n_f, m = model.n_fiber, model.m
    a = rng.standard_normal((n_f, m)) + 1j * rng.standard_normal((n_f, m))
    c = rng.standard_normal((n_f, m)) + 1j * rng.standard_normal((n_f, m))
    phase = np.exp(1j * (eta if grid.n_y > 1 else 0) * y)
    e_minus = np.stack([scipy.linalg.expm(-uu * b) for uu in u])
    e_plus = np.stack([scipy.linalg.expm(uu * b) for uu in u])
    s1 = CollarFunction(
        grid,
        np.einsum("uij,jm->uim", e_minus, a)[:, None]
        * phase[None, :, None, None],
    )
    s2 = CollarFunction(
        grid,
        np.einsum("uij,jm->uim", e_plus, c)[:, None]
        * phase[None, :, None, None],
    )
    return s1, s2


def test_green_formula_exponential_solutions(rng):
    for name, model, grid in fixture_models():
        s1, s2 = _exponential_pair(model, grid, rng)
        res = alg_norm(green_residual(model, s1, s2))
        scale = max(1.0, s1.norm() * s2.norm())
        assert res < 1e-12 * scale, name


def test_green_formula_dense_convergence(rng):
    model, _ = cylinder_fixture()
    errs = []
    for n_u in (16, 32, 64):
        grid = CollarGrid(n_u=n_u, n_y=12, kind="uniform")
        s1, s2 = _exponential_pair(model, grid, np.random.default_rng(5))
        errs.append(alg_norm(green_residual(model, s1, s2)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 3.5


# -- the double ---------------------------------------------------------


def test_double_certificates():
    for name, model, grid in fixture_models():
        sysd = build_double(model, grid)
        assert sysd.sigma_min > 1e-10, name
        assert max(sysd.kernel_dims()) == 0, name
        ghost = ghost_solution_check(sysd)
        assert ghost["trivial_kernel"], name


def test_exact_kernel_dim_holds_for_large_tangential_blocks(rng):
    """The matching matrix 2 cosh B >= 2 has no kernel for Hermitian B,
    however large ||B||: the count must not grow with exp(||B||)."""

    def kernel_dim(b):
        return exact_channel(b)[1]

    for lam in (5.0, 25.0, 45.0):
        assert kernel_dim(np.diag([lam, -lam, 0.3]).astype(complex)) == 0
    b = hermitian(rng, 12)
    assert kernel_dim(35.0 * b / np.linalg.norm(b, 2)) == 0
    # a genuine kernel is still found: cosh(i pi / 2) = 0
    assert kernel_dim(0.5j * np.pi * np.eye(2)) == 2
    # per-mode blocks with |eta| up to 32, and the y-coupled B on 64 points
    per_mode = ProductDiracModel(
        "cylinder", CStarAlgebra.matrix(2), v=np.diag([1.0, 0.5])
    )
    for model, grid in (
        (per_mode, CollarGrid(n_u=16, n_y=96, kind="chebyshev")),
        (y_coupled_model(), CollarGrid(n_u=16, n_y=64, kind="uniform")),
    ):
        assert max(build_double(model, grid).kernel_dims()) == 0


def test_double_rejects_near_singular():
    # transmission with periodic (instead of antiperiodic) matching has the
    # constant section in its kernel; emulate by a zero-potential segment
    # whose exact matching matrix is still invertible -- so instead check
    # the error path via an absurd tolerance
    model, grid = cylinder_fixture()
    import calderon.dirac as dirac_mod

    old = dirac_mod.DOUBLE_CERT_TOL
    dirac_mod.DOUBLE_CERT_TOL = 1e3
    try:
        with pytest.raises(CertificationError):
            build_double(model, grid)
    finally:
        dirac_mod.DOUBLE_CERT_TOL = old


def test_invert_double_analytic_exact(rng):
    model, grid = cylinder_fixture()
    u = grid.u_nodes()
    y = 2 * np.pi * np.arange(grid.n_y) / grid.n_y
    eta = 1
    b = model.tangential_matrix(eta)
    w = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    p = np.cos(np.pi * u / 2)
    dp = -np.pi / 2 * np.sin(np.pi * u / 2)
    phase = np.exp(1j * eta * y)

    def field(prof):
        return prof[:, None, None, None] * phase[None, :, None, None] * w[None, None]

    phi_ex = field(p)
    f1 = CollarFunction(
        grid,
        np.einsum(
            "ij,uyjm->uyim",
            model.g_rep,
            field(dp) + np.einsum("ij,uyjm->uyim", b, phi_ex),
        ),
    )
    f2 = CollarFunction(
        grid, -field(dp) + np.einsum("ij,uyjm->uyim", b, phi_ex)
    )
    sysd = build_double(model, grid)
    phi, tau = invert_double(sysd, f1, f2)
    assert np.abs(phi.values - phi_ex).max() < 1e-12
    assert np.abs(tau.values - phi_ex).max() < 1e-12


@pytest.mark.parametrize(
    "other",
    [CollarGrid(20, 12, "chebyshev"), CollarGrid(16, 12, "uniform")],
    ids=["20x12-chebyshev", "16x12-uniform"],
)
def test_invert_double_rejects_rhs_on_another_grid(other, rng):
    model, _ = cylinder_fixture()
    sysd = build_double(model, CollarGrid(16, 12, "chebyshev"))
    shape = (other.n_nodes, other.n_y, model.n_fiber, model.m)
    f = CollarFunction(other, rng.standard_normal(shape) + 0j)
    with pytest.raises(StructureError):
        invert_double(sysd, f)


def test_solve_without_data_is_a_structure_error():
    """A solve with no data at all has no column count: StructureError,
    from the double's solve and from one channel's solve alike."""
    model, grid = cylinder_fixture()
    sysd = build_double(model, grid)
    with pytest.raises(StructureError, match="no data"):
        sysd.solve()
    with pytest.raises(StructureError, match="no data"):
        dirac._solve_channel(sysd.channels[0], None, None, None, None)


def test_invert_double_dense_y_dependent_order():
    alg = CStarAlgebra.matrix(2)
    base = np.diag([0.9, -0.4]).astype(complex)
    model = ProductDiracModel(
        "cylinder", alg, v=lambda y: base + 0.3 * np.cos(y) * np.eye(2)
    )
    w = (np.arange(8).reshape(4, 2) + 1.0).astype(complex)
    errs = []
    for n_u in (8, 16, 32):
        grid = CollarGrid(n_u=n_u, n_y=8, kind="uniform")
        u = grid.u_nodes()
        y = 2 * np.pi * np.arange(8) / 8
        p = np.cos(np.pi * u / 2)
        dp = -np.pi / 2 * np.sin(np.pi * u / 2)
        phase = np.exp(1j * y)
        phi_ex = (
            p[:, None, None, None] * phase[None, :, None, None] * w[None, None]
        )
        s = CollarFunction(grid, phi_ex)
        f1 = apply_dirac(model, s, side=1)
        dphi = (
            dp[:, None, None, None] * phase[None, :, None, None] * w[None, None]
        )
        f2_vals = f1.values.copy()
        # f2 = (-d/du + B) phi = f1 pulled back minus twice the derivative
        g_star = model.g_rep.conj().T
        f2_vals = np.einsum("ij,uyjm->uyim", g_star, f1.values) - 2 * dphi
        f2 = CollarFunction(grid, f2_vals)
        sysd = build_double(model, grid)
        phi, tau = invert_double(sysd, f1, f2)
        errs.append(
            max(
                np.abs(phi.values - phi_ex).max(),
                np.abs(tau.values - phi_ex).max(),
            )
        )
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 3.5


def test_sigma_min_stable_under_refinement():
    model, _ = cylinder_fixture()
    sig = []
    for n_u in (32, 64):
        grid = CollarGrid(n_u=n_u, n_y=12, kind="uniform")
        sig.append(build_double(model, grid).sigma_min)
    assert abs(sig[1] - sig[0]) / sig[0] < 0.20


@pytest.mark.parametrize("name", ["M2", "Z4"])
def test_per_mode_and_dense_solves_agree(name):
    """The one solve on both channel kinds: a constant V given as V(y) gives
    the y-coupled channel, which is block-diagonal in the y-modes, so
    band-limited data must give the per-mode solution."""
    rng = np.random.default_rng(11)
    alg = {"M2": CStarAlgebra.matrix(2), "Z4": CStarAlgebra.cyclic(4)}[name]
    a = alg.random_element(rng).mat
    v = 0.5 * (a + a.conj().T)
    model = ProductDiracModel("cylinder", alg, v=v)
    grid = CollarGrid(n_u=8, n_y=8, kind="uniform")
    per_mode = build_double(model, grid)
    dense = build_double(
        ProductDiracModel("cylinder", alg, v=lambda y: v), grid
    )
    assert per_mode.per_mode and not dense.per_mode

    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    y = 2 * np.pi * np.arange(grid.n_y) / grid.n_y
    shape = (grid.n_nodes, model.n_fiber, model.m)
    f1 = CollarFunction(
        grid,
        sum(
            np.exp(1j * eta * y)[None, :, None, None]
            * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[
                :, None
            ]
            for eta in range(-(grid.n_y // 3), grid.n_y // 3 + 1)
        ),
    )
    fast = poisson(per_mode, g, with_side2=True) + invert_double(per_mode, f1)
    ref = poisson(dense, g, with_side2=True) + invert_double(dense, f1)
    for a, b in zip(fast, ref):
        scale = np.abs(b.values).max()
        assert scale > 0
        assert np.abs(a.values - b.values).max() <= 1e-11 * scale


def test_v_of_y_must_be_self_adjoint_at_every_sample():
    """A V(y) that is Hermitian at y = 0 only is refused where its samples
    are made, before the double is assembled from a non-Hermitian b."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = ProductDiracModel(
        "cylinder",
        CStarAlgebra.matrix(2),
        v=lambda y: np.diag([1.0, -0.5]) + np.sin(y) * lower,
    )
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    with pytest.raises(StructureError, match="v must be self-adjoint"):
        build_double(model, grid)
    with pytest.raises(StructureError, match="v must be self-adjoint"):
        model.v_samples(grid.n_y)
    # refused at y = 0 when the model is built
    with pytest.raises(StructureError, match="v must be self-adjoint"):
        ProductDiracModel(
            "cylinder",
            CStarAlgebra.matrix(2),
            v=lambda y: np.diag([1.0, -0.5]) + lower,
        )


def test_v_of_y_is_sampled_and_checked_once_per_build(monkeypatch):
    """build_double evaluates a V(y) once per y-point and checks the
    samples once: the commutant split and B share them."""
    calls = []

    def v(y):
        calls.append(y)
        return np.diag([0.9, -0.4]) + 0.3 * np.cos(y) * np.eye(2)

    model = ProductDiracModel("cylinder", CStarAlgebra.matrix(2), v=v)
    checks = []
    check = dirac._check_self_adjoint

    def counted(a, name):
        checks.append(name)
        check(a, name)

    monkeypatch.setattr(dirac, "_check_self_adjoint", counted)
    grid = CollarGrid(n_u=8, n_y=8, kind="uniform")
    calls.clear()
    build_double(model, grid)
    assert len(calls) == grid.n_y
    assert checks == ["v"]


def test_holonomy_must_commute_with_v_of_y():
    """The one holonomy refusal: a V(y) that does not commute with the
    holonomy, caught at V(0) when the model is built and at the other
    y-samples when the double's samples are made."""
    off = np.array([[0.0, 0.3], [0.3, 0.0]])
    with pytest.raises(StructureError, match="holonomy must commute with v"):
        twisted_model(lambda y: np.diag([1.0, 0.5]) + off)
    model = twisted_model(lambda y: np.diag([1.0, 0.5]) + np.sin(y) * off)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    with pytest.raises(StructureError, match="holonomy must commute with v"):
        build_double(model, grid)


def test_holonomy_commutation_bound_is_relative_to_v():
    """A large V that commutes with H to rounding is accepted, constant or
    as a V(y) stack; one that does not commute, at the same scale, is not.
    ||HV - VH||_2 reads about 1.6e-9 here, above an absolute 1e-10."""
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
    alg = CStarAlgebra.matrix(2)
    phases = np.exp(2j * np.pi * np.array([0.25, 0.6]))
    h = u @ np.diag(phases) @ u.T
    v = u @ np.diag([1e7, -5e6]) @ u.T
    assert np.linalg.norm(h @ v - v @ h, 2) > 1e-10
    ProductDiracModel("cylinder", alg, v=v, holonomy=h)
    model = ProductDiracModel(
        "cylinder",
        alg,
        v=lambda y: u @ np.diag([1e7 * (1.0 + 0.3 * np.cos(y)), -5e6]) @ u.T,
        holonomy=h,
    )
    assert model.v_samples(12).shape == (12, 2, 2)
    far = 1e7 * np.array([[1.0, 0.3], [0.3, 0.5]])
    with pytest.raises(StructureError, match="holonomy must commute with v"):
        ProductDiracModel("cylinder", alg, v=far, holonomy=h)
