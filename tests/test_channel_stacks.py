"""The per-channel passes run stacked, one call per group of equal-shaped
channels: every member of a stacked call equals the one-matrix call
bitwise, on stacks and on doubles whose channels differ in size."""

import numpy as np
import pytest

from calderon import cli, dirac
from calderon.csalg import (
    CStarAlgebra,
    dagger,
    map_groups,
    opnorm,
    shape_groups,
)
from calderon.dirac import (
    CollarGrid,
    ProductDiracModel,
    _scalar_systems,
    _values_to_channels,
    build_double,
    exact_channel,
    expm,
    graph_projection,
)
from calderon.errors import StructureError
from calderon.hilbmod import (
    orthogonalize_idempotent_matrix,
    projection_defects,
    relative_index,
)
from calderon.projector import (
    BoundaryData,
    _block_diag,
    _positive_part,
    aps_projection,
    calderon_projector,
    orthogonalized_calderon,
)

from conftest import hermitian


def test_shape_groups_keep_first_appearance_order():
    arrays = [np.zeros((2, 2)), np.ones((3, 3)), np.full((2, 2), 2.0)]
    groups = shape_groups(arrays)
    assert [idx for idx, _ in groups] == [[0, 2], [1]]
    assert np.array_equal(groups[0][1], np.stack([arrays[0], arrays[2]]))
    # one result per array, in their order; tuples per array for tuples
    sums = map_groups(lambda s: (s.sum(axis=(1, 2)), s[:, 0]), arrays)
    assert [float(total) for total, _ in sums] == [0.0, 9.0, 8.0]
    assert np.array_equal(sums[1][1], np.ones(3))


def test_expm_stack_mixes_scaling_exponents(rng):
    """1-norms from 0 (s = 0) to several hundred (s >= 6): each member
    keeps its own scaling exponent and squaring count."""
    n = 4
    mats = [np.zeros((n, n), dtype=complex)]
    for scale in (0.05, 1.0, 5.0, 40.0, 100.0):
        mats.append(scale * hermitian(rng, n))
        mats.append(scale * (rng.standard_normal((n, n)) + 0j))
    stack = np.stack(mats).reshape(11, n, n)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    assert norms.min() == 0.0 and norms.max() > 2**5 * dirac._THETA13
    out = expm(stack)
    for member, single in zip(out, stack):
        assert np.array_equal(member, expm(single))
    # any leading shape
    lead = expm(stack[1:].reshape(2, 5, n, n))
    assert np.array_equal(lead.reshape(10, n, n), out[1:])


def test_graph_projection_and_exact_channel_stack(rng):
    stack = np.stack([s * hermitian(rng, 4) for s in (0.1, 1.0, 3.0, 12.0)])
    block, m_mat = graph_projection(stack)
    blocks, kernel_dims = exact_channel(stack)
    assert kernel_dims.shape == (4,)
    for i, b in enumerate(stack):
        one_block, one_m = graph_projection(b)
        assert np.array_equal(block[i], one_block)
        assert np.array_equal(m_mat[i], one_m)
        one_exact, one_dim = exact_channel(b)
        assert np.array_equal(blocks[i], one_exact)
        assert isinstance(one_dim, int) and kernel_dims[i] == one_dim


def oblique_idempotent(rng, n, rank):
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s += 3 * n * np.eye(n)
    return s @ np.diag([1.0] * rank + [0.0] * (n - rank)) @ np.linalg.inv(s)


def test_orthogonalize_idempotent_stack(rng):
    stack = np.stack([oblique_idempotent(rng, 5, r) for r in (0, 1, 3, 5)])
    orth, f_min = orthogonalize_idempotent_matrix(stack)
    assert f_min.shape == (4,)
    for i, rep in enumerate(stack):
        one_orth, one_min = orthogonalize_idempotent_matrix(rep)
        assert np.array_equal(orth[i], one_orth)
        assert isinstance(one_min, float) and f_min[i] == one_min
    # each member is checked: one non-idempotent member fails the stack
    stack[2] = stack[2] + 0.1 * np.eye(5)
    with pytest.raises(StructureError):
        orthogonalize_idempotent_matrix(stack)


def test_projection_defects_and_relative_index_on_mixed_sizes(rng):
    """Blocks of sizes 2, 4, 3, 4, 2 (three groups): the defects are the
    maxima of the one-block calls, and the index is that of the assembled
    matrices."""
    sizes = (2, 4, 3, 4, 2)
    p_blocks, q_blocks = [], []
    for n in sizes:
        u = np.linalg.qr(rng.standard_normal((n, n)) + 0j)[0]
        keep = rng.permutation(n)
        p_blocks.append(u[:, keep[: n // 2]] @ dagger(u[:, keep[: n // 2]]))
        q_blocks.append(u[:, : (n + 1) // 2] @ dagger(u[:, : (n + 1) // 2]))
    assert len(shape_groups(p_blocks)) == 3
    idem, asym = projection_defects(p_blocks)
    singles = [projection_defects([b]) for b in p_blocks]
    assert idem == max(i for i, _ in singles)
    assert asym == max(a for _, a in singles)
    index = relative_index(p_blocks, q_blocks)
    assembled = relative_index(
        [_block_diag(p_blocks)], [_block_diag(q_blocks)]
    )
    assert index == assembled == sum(n // 2 - (n + 1) // 2 for n in sizes)


def unequal_channel_models():
    """Doubles whose channels differ in size: eigenphases of multiplicity
    2 and 1, and V(y) commutant clusters of sizes 2 and 1."""
    m3 = CStarAlgebra.matrix(3)
    holonomy = np.diag(np.exp(2j * np.pi * np.array([0.25, 0.25, 0.6])))
    v = np.diag([1.0, 0.5, -0.7]).astype(complex)
    v[0, 1] = v[1, 0] = 0.3
    base, eye3 = np.diag([0.9, 0.9, -0.4]).astype(complex), np.eye(3)
    return [
        (
            ProductDiracModel("cylinder", m3, v=v, holonomy=holonomy),
            CollarGrid(n_u=16, n_y=8, kind="chebyshev"),
        ),
        (
            ProductDiracModel(
                "cylinder", m3, v=lambda y: base + 0.3 * np.cos(y) * eye3
            ),
            CollarGrid(n_u=8, n_y=8, kind="chebyshev"),
        ),
    ]


@pytest.mark.parametrize("index", [0, 1], ids=["holonomy", "v-of-y"])
def test_unequal_channels_match_the_per_channel_reference(index):
    model, grid = unequal_channel_models()[index]
    sysd = build_double(model, grid)
    sizes = {cs.channel.dim for cs in sysd.channels}
    assert len(sizes) == 2
    c0, t = _scalar_systems(grid)
    n = grid.n_u
    e = np.zeros((1, n + 1, 1), dtype=complex)
    e[0, n, 0] = 1.0
    proj = calderon_projector(sysd)
    aps = aps_projection(sysd)
    orth = orthogonalized_calderon(proj)
    for k, cs in enumerate(sysd.channels):
        b = cs.channel.b_mat
        w, u = np.linalg.eigh(b)
        assert np.array_equal(cs.eigvals, w) and np.array_equal(cs.eigvecs, u)
        block, kernel_dim = exact_channel(b)
        assert np.array_equal(cs.exact_block, block)
        assert cs.kernel_dim == kernel_dim
        assert cs.eig_residual == float(opnorm(b @ u - u * w))
        assert cs.unitarity_defect == float(
            opnorm(u.conj().T @ u - np.eye(len(w)))
        )
        own = c0 + cs.eigvals[:, None, None] * t
        x = np.linalg.solve(own, e)[:, [0, n], 0]
        p = np.stack([x.real, -x.imag], axis=-1)
        ref = np.block(
            [[(u * p[:, i, j]) @ u.conj().T for j in (0, 1)] for i in (0, 1)]
        )
        assert np.array_equal(proj.channel_blocks[k][1], ref)
        aps_ref = _block_diag([_positive_part(w, u), _positive_part(-w, u)])
        assert np.array_equal(aps.channel_blocks[k][1], aps_ref)
        orth_ref = orthogonalize_idempotent_matrix(ref)[0]
        assert np.array_equal(orth.channel_blocks[k][1], orth_ref)
    assert cli._oracle_defect(proj, sysd) == max(
        float(opnorm(b - cs.exact_block))
        for (_, b), cs in zip(proj.channel_blocks, sysd.channels)
    )
    # apply: one product per group, each the one-channel product
    rng = np.random.default_rng(3)
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    channels = [ch for ch, _ in proj.channel_blocks]
    coeffs = _values_to_channels(np.stack([g.g0, g.g1]), channels, grid.n_y)
    ref = BoundaryData.from_channel_coeffs(model, grid.n_y, [
        (ch, block @ c.reshape(-1, model.m))
        for (ch, block), c in zip(proj.channel_blocks, coeffs)
    ])
    out = proj.apply(g)
    assert np.array_equal(out.g0, ref.g0) and np.array_equal(out.g1, ref.g1)


def test_random_band_limited_draws_the_per_frequency_stream():
    """One draw per trace gives the data, and leaves the generator in the
    state, of the per-frequency loop of real and imaginary parts."""
    model = ProductDiracModel(
        "cylinder", CStarAlgebra.matrix(2), v=np.eye(2, dtype=complex)
    )
    n_y = 12
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    g = BoundaryData.random_band_limited(model, n_y, rng)
    shape = (n_y, model.n_fiber, model.m)
    y = 2.0 * np.pi * np.arange(n_y) / n_y
    traces = []
    for _ in range(2):
        vals = np.zeros(shape, dtype=complex)
        for eta in range(-(n_y // 3), n_y // 3 + 1):
            coef = ref_rng.standard_normal(shape[1:])
            coef = coef + 1j * ref_rng.standard_normal(shape[1:])
            vals += np.exp(1j * eta * y)[:, None, None] * coef[None]
        traces.append(vals)
    assert np.array_equal(g.g0, traces[0]) and np.array_equal(g.g1, traces[1])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
