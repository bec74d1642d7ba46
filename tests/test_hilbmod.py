import numpy as np
import pytest

from calderon import cli, hilbmod
from calderon.csalg import AlgebraElement, CStarAlgebra, is_positive, star
from calderon.errors import CertificationError, StructureError
from calderon.hilbmod import (
    ModuleOperator,
    ModuleVector,
    adjoint,
    closed_range_gap,
    inner_product,
    membership_defect,
    mishchenko_decompose,
    orthogonalize_idempotent,
    orthogonalize_idempotent_matrix,
    rank_one,
    relative_index,
    vectors_from_columns,
)

from angles import principal_angles


def test_inner_product_axioms(algebra, rng):
    for _ in range(30):
        x = ModuleVector.random(algebra, 3, rng)
        y = ModuleVector.random(algebra, 3, rng)
        z = ModuleVector.random(algebra, 3, rng)
        a = algebra.random_element(rng)
        # additivity and right A-linearity in the second slot
        d1 = inner_product(x, y + z) - inner_product(x, y) - inner_product(x, z)
        d2 = inner_product(x, y.times(a)) - inner_product(x, y) * a
        # symmetry under the involution
        d3 = inner_product(x, y) - star(inner_product(y, x))
        for d in (d1, d2, d3):
            assert np.linalg.norm(d.mat, 2) < 1e-12 * max(
                1.0, x.norm() * (y.norm() + z.norm()) * (1 + np.linalg.norm(a.mat))
            )
        # positivity
        assert is_positive(inner_product(x, x))


def test_norm_definiteness(algebra, rng):
    x = ModuleVector.random(algebra, 2, rng)
    assert x.norm() > 0
    zero = ModuleVector(algebra, 2, np.zeros_like(x.stack))
    assert zero.norm() == 0.0


def test_theta_identities(algebra, rng):
    for _ in range(20):
        x = ModuleVector.random(algebra, 3, rng)
        y = ModuleVector.random(algebra, 2, rng)
        u = ModuleVector.random(algebra, 2, rng)
        v = ModuleVector.random(algebra, 4, rng)
        z = ModuleVector.random(algebra, 4, rng)
        th_xy = rank_one(x, y)
        assert (
            np.linalg.norm((adjoint(th_xy) - rank_one(y, x)).rep, 2) < 1e-12
        )
        # theta_{x,y} theta_{u,v} = theta_{x <y,u>, v}
        lhs = th_xy.compose(rank_one(u, v))
        rhs = rank_one(x.times(inner_product(y, u)), v)
        scale = max(1.0, lhs.norm())
        assert np.linalg.norm((lhs - rhs).rep, 2) < 1e-11 * scale
        # action on a vector
        dv = lhs.apply(z).stack - x.times(
            inner_product(y, u) * inner_product(v, z)
        ).stack
        assert np.linalg.norm(dv, 2) < 1e-10 * max(1.0, scale * z.norm())


def test_adjoint_identity(algebra, rng):
    for _ in range(20):
        t = ModuleOperator.random(algebra, 3, 2, rng)
        x = ModuleVector.random(algebra, 3, rng)
        y = ModuleVector.random(algebra, 2, rng)
        d = inner_product(t.apply(x), y) - inner_product(x, adjoint(t).apply(y))
        assert np.linalg.norm(d.mat, 2) < 1e-11 * max(
            1.0, t.norm() * x.norm() * y.norm()
        )


def test_operator_entries_in_algebra(algebra, rng):
    t = ModuleOperator.random(algebra, 2, 3, rng)
    assert membership_defect(algebra, t.rep) < 1e-10


def test_membership_defect_is_blockwise_maximum(algebra, rng):
    m = algebra.rep_dim
    rep = rng.standard_normal((3 * m, 2 * m)) + 1j * rng.standard_normal(
        (3 * m, 2 * m)
    )
    ref = max(
        algebra.membership_defect(rep[i * m : (i + 1) * m, j * m : (j + 1) * m])
        for i in range(3)
        for j in range(2)
    )
    assert membership_defect(algebra, rep) == ref


@pytest.mark.parametrize(
    "algebra", [CStarAlgebra.cyclic(4), CStarAlgebra.symmetric(3)], ids=["Z4", "S3"]
)
def test_membership_defect_finds_one_junk_block(algebra, rng):
    m = algebra.rep_dim
    rep = ModuleOperator.random(algebra, 2, 3, rng).rep.copy()
    junk = rng.standard_normal((m, m))
    rep[2 * m :, m : 2 * m] = junk
    expected = algebra.membership_defect(junk)
    assert expected > 1e-3
    assert membership_defect(algebra, rep) == expected


def test_vector_from_column_is_invariant(algebra, rng):
    """Generators built from complex columns stay inside invariant subspaces."""
    t = ModuleOperator.random(algebra, 3, 3, rng)
    u, s, vh = np.linalg.svd(t.rep)
    r = int(np.sum(s > 1e-9 * s[0]))
    gens = vectors_from_columns(algebra, 3, u[:, : min(2, r)])
    assert gens.stack.shape == (min(2, r), 3 * algebra.rep_dim, algebra.rep_dim)
    for stack in gens.stack:
        # each stack column must lie in the range of t.rep
        resid = stack - u[:, :r] @ (u[:, :r].conj().T @ stack)
        assert np.linalg.norm(resid, 2) < 1e-9 * max(
            1.0, np.linalg.norm(stack, 2)
        )


def _rank_deficient(algebra, rng, source=3, target=3, rank=2):
    diag = np.zeros((target, source))
    for i in range(rank):
        diag[i, i] = 1.0 + rng.random()
    mid = ModuleOperator.from_complex(algebra, diag)
    left = ModuleOperator.random(algebra, target, target, rng)
    right = ModuleOperator.random(algebra, source, source, rng)
    return left.compose(mid).compose(right)


def test_closed_range_gap(algebra, rng):
    t = _rank_deficient(algebra, rng)
    report = closed_range_gap(t)
    assert report.closed
    assert report.gap > 0
    assert report.gap_adjoint == pytest.approx(report.gap, rel=1e-8)
    zero = ModuleOperator(
        algebra, 2, 2, np.zeros((2 * algebra.rep_dim,) * 2)
    )
    assert closed_range_gap(zero).gap == 0.0


RESIDUALS = (
    "ker_vs_ran_adj",
    "ker_adj_vs_ran",
    "source_completeness",
    "target_completeness",
)


def _generators(dec):
    """Member counts of the kernel, range, adjoint kernel and adjoint range
    stacks."""
    return tuple(
        len(gens.stack)
        for gens in (
            dec.ker_basis,
            dec.ran_basis,
            dec.ker_adj_basis,
            dec.ran_adj_basis,
        )
    )


def test_mishchenko_decomposition(algebra, rng):
    for _ in range(10):
        t = _rank_deficient(algebra, rng)
        dec = mishchenko_decompose(t)
        m = algebra.rep_dim
        assert _generators(dec) == (m, 2 * m, m, 2 * m)
        for key in RESIDUALS:
            assert dec.residuals[key] < 1e-10


def test_mishchenko_zero_operator(algebra):
    """T = 0: empty range stacks, the kernels everything, residuals 0."""
    m = algebra.rep_dim
    zero = ModuleOperator(algebra, 3, 2, np.zeros((2 * m, 3 * m)))
    assert closed_range_gap(zero).closed
    dec = mishchenko_decompose(zero)
    assert _generators(dec) == (3 * m, 0, 2 * m, 0)
    assert dec.ran_basis.stack.shape == (0, 2 * m, m)
    assert dec.ran_adj_basis.stack.shape == (0, 3 * m, m)
    assert all(dec.residuals[key] == 0.0 for key in RESIDUALS)
    assert dec.residuals["gap"] == 0.0


def test_mishchenko_invertible_operator(algebra, rng):
    """An invertible T: empty kernel stacks, the ranges everything."""
    m = algebra.rep_dim
    t = ModuleOperator.random(algebra, 3, 3, rng)
    assert closed_range_gap(t).closed
    dec = mishchenko_decompose(t)
    assert _generators(dec) == (0, 3 * m, 0, 3 * m)
    assert dec.ker_basis.stack.shape == (0, 3 * m, m)
    assert dec.ker_adj_basis.stack.shape == (0, 3 * m, m)
    for key in RESIDUALS:
        assert dec.residuals[key] < 1e-10


def _random_projection(dim, rank, rng):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(mat)
    return q[:, :rank] @ q[:, :rank].conj().T


def _skewed_idempotent(algebra, rank, rng, cond_max=100.0):
    m = algebra.rep_dim
    dim = rank * m
    p = _random_projection(dim, dim // 2, rng)
    while True:
        s = np.eye(dim) + 0.4 * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ) / np.sqrt(dim)
        if np.linalg.cond(s) <= cond_max:
            break
    c = s @ p @ np.linalg.inv(s)
    return ModuleOperator(algebra, rank, rank, c), p


def test_orthogonalize_idempotent(algebra, rng):
    for _ in range(10):
        c, _ = _skewed_idempotent(algebra, 2, rng)
        orth = orthogonalize_idempotent(c)
        rep = orth.rep
        assert np.linalg.norm(rep @ rep - rep, 2) < 1e-10
        assert np.linalg.norm(rep - rep.conj().T, 2) < 1e-10
        angles = principal_angles(rep, c.rep)
        assert angles.size == 0 or angles.max() < 1e-8
        assert orthogonalize_idempotent_matrix(c.rep)[1] > 0
        # fixed point on orthogonal projections
        again = orthogonalize_idempotent(orth)
        assert np.linalg.norm(again.rep - rep, 2) < 1e-12


def test_orthogonalize_rejects_non_idempotent(algebra, rng):
    t = ModuleOperator.random(algebra, 2, 2, rng)
    with pytest.raises((StructureError, CertificationError)):
        orthogonalize_idempotent(t)


def test_relative_index(algebra, rng):
    m = algebra.rep_dim
    dim = 2 * m
    p = [_random_projection(dim, m, rng)]
    q = [_random_projection(dim, m + 1, rng)]
    assert relative_index(p, p) == 0
    assert relative_index(p, q) == -1
    assert relative_index(q, p) == 1


def test_module_shapes_rejected(algebra, rng):
    x = ModuleVector.random(algebra, 2, rng)
    y = ModuleVector.random(algebra, 3, rng)
    with pytest.raises(StructureError):
        inner_product(x, y)
    t = ModuleOperator.random(algebra, 3, 2, rng)
    with pytest.raises(StructureError):
        t.apply(x)


# -- stacks of vectors and operators --------------------------------------


def _module_objects(alg, mats):
    """x, y in A^3, a in A and T, S in M_3(A) from 25 drawn elements
    (..., 25, m, m): stacked objects for a stack, else single ones."""
    e = [AlgebraElement(alg, mats[..., i, :, :]) for i in range(25)]
    x = ModuleVector.from_entries(e[0:3])
    y = ModuleVector.from_entries(e[3:6])
    t = ModuleOperator.from_entries([e[7:10], e[10:13], e[13:16]])
    s = ModuleOperator.from_entries([e[16:19], e[19:22], e[22:25]])
    return x, y, e[6], t, s


def _module_results(x, y, a, t, s):
    return {
        "inner_product": inner_product(x, y).mat,
        "rank_one": rank_one(x, y).rep,
        "adjoint": adjoint(t).rep,
        "compose": t.compose(s).rep,
        "apply": t.apply(x).stack,
        "times": x.times(a).stack,
        "star": star(a).mat,
    }


def test_stacked_module_api_is_the_per_trial_api(algebra, rng):
    trials = 10
    mats = algebra.random_element(rng, size=(trials, 25)).mat
    stacked = _module_results(*_module_objects(algebra, mats))
    for k in range(trials):
        single = _module_results(*_module_objects(algebra, mats[k]))
        for name, value in single.items():
            assert value.ndim == 2
            assert np.array_equal(stacked[name][k], value), name


def test_stacked_module_norms_are_the_per_member_norms(algebra, rng):
    # over M2 a (2, 6, 2) vector stack and a (2, 6, 6) operator stack
    mats = algebra.random_element(rng, size=(2, 25)).mat
    x, _, _, t, _ = _module_objects(algebra, mats)
    for obj in (x, t):
        stacked = obj.norm()
        assert stacked.shape == (2,)
        for k in range(2):
            single = _module_objects(algebra, mats[k])[0 if obj is x else 3]
            assert type(single.norm()) is float
            assert stacked[k] == single.norm()


def test_stacked_module_shapes_rejected(algebra, rng):
    m = algebra.rep_dim
    with pytest.raises(StructureError):
        ModuleVector(algebra, 3, np.zeros((4, 2 * m, m)))
    with pytest.raises(StructureError):
        ModuleOperator(algebra, 2, 3, np.zeros((4, 2 * m, 3 * m)))
    x = ModuleVector(algebra, 2, np.zeros((4, 2 * m, m)))
    assert x.entry(1).mat.shape == (4, m, m)


def _module_check_per_trial(alg, seed, trials=200):
    """The module-check identity suite one trial at a time, on single
    vectors and operators, drawing from the stream in the same order."""
    rng = np.random.default_rng(seed)
    ip = inner_product
    worst = 0.0
    for _ in range(trials):
        x = ModuleVector.random(alg, 3, rng)
        y = ModuleVector.random(alg, 3, rng)
        z = ModuleVector.random(alg, 3, rng)
        a = alg.random_element(rng)
        t_op = ModuleOperator.random(alg, 3, 3, rng)
        th_xy, th_yx = rank_one(x, y), rank_one(y, x)
        devs = (
            (ip(x, y.times(a)) - ip(x, y) * a).mat,
            (ip(x, y) - star(ip(y, x))).mat,
            (adjoint(th_xy) - th_yx).rep,
            th_xy.compose(th_yx).apply(z).stack
            - x.times(ip(y, y) * ip(x, z)).stack,
            (ip(t_op.apply(x), y) - ip(x, adjoint(t_op).apply(y))).mat,
        )
        worst = max([worst] + [float(np.linalg.norm(d, 2)) for d in devs])
    return worst


@pytest.mark.parametrize("seed", [0, 34])
def test_module_check_task_matches_per_trial_loop(algebra, seed):
    cfg = {"algebra": algebra, "seed": seed}
    status, metrics = cli._task_module_check(cfg, None, None)
    assert status == "pass"
    assert metrics["trials"] == 200
    assert metrics["max_deviation"] == _module_check_per_trial(algebra, seed)
