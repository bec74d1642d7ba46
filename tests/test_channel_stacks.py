"""The per-channel passes run stacked, one call per group of equal-shaped
channels: every member of a stacked call equals the one-matrix call
bitwise, on stacks and on doubles whose channels differ in size."""

import concurrent.futures
import sys
import threading
import time

import numpy as np
import pytest

from calderon import cli, csalg, dirac
from calderon.csalg import (
    CStarAlgebra,
    dagger,
    map_groups,
    map_members,
    opnorm,
    shape_groups,
)
from calderon.dirac import (
    CollarGrid,
    ProductDiracModel,
    _scalar_systems,
    _singular_values,
    _values_to_channels,
    build_double,
    exact_channel,
    graph_projection,
    tanh_sech,
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
)

from channel_map import boundary_data_from_channel_coeffs
from conftest import hermitian, split_stacks, twisted_model, y_coupled_model


def test_shape_groups_keep_first_appearance_order():
    arrays = [np.zeros((2, 2)), np.ones((3, 3)), np.full((2, 2), 2.0)]
    groups = shape_groups(arrays)
    assert [idx for idx, _ in groups] == [[0, 2], [1]]
    assert np.array_equal(groups[0][1], np.stack([arrays[0], arrays[2]]))
    # one result per array, in their order; tuples per array for tuples
    sums = map_groups(lambda s: (s.sum(axis=(1, 2)), s[:, 0]), arrays)
    assert [float(total) for total, _ in sums] == [0.0, 9.0, 8.0]
    assert np.array_equal(sums[1][1], np.ones(3))


@pytest.mark.parametrize(
    "workers, threshold, members, chunks",
    [
        (3, 0, 7, [3, 2, 2]),  # contiguous, the first chunks one longer
        (3, 7 * 5 * 5**2, 7, [3, 2, 2]),  # the work at the threshold splits
        (8, 0, 3, [1, 1, 1]),  # at most one chunk per member
        (1, 0, 7, [7]),  # one CPU
        (3, 0, 1, [1]),  # one member
        (3, 7 * 5 * 5**2 + 1, 7, [7]),  # the work below the threshold
    ],
)
def test_map_members_is_the_one_call_in_order(
    workers, threshold, members, chunks, rng, monkeypatch
):
    """map_members gives func(stack) bit for bit, from one contiguous
    chunk per CPU, the first run by the caller; inline, func sees the
    whole stack on the caller's thread."""
    stack = rng.standard_normal((members, 5, 5, 2)).view(complex)[..., 0]
    split_stacks(monkeypatch, workers, threshold)
    index = {m.tobytes(): k for k, m in enumerate(stack)}
    calls = []

    def func(part):
        start = index[part[0].tobytes()]
        calls.append((start, len(part), threading.get_ident()))
        return _singular_values(part)

    assert np.array_equal(map_members(func, stack), _singular_values(stack))
    calls.sort()
    assert [(start, size) for start, size, _ in calls] == list(
        zip(np.cumsum([0] + chunks[:-1]), chunks)
    )
    assert calls[0][2] == threading.get_ident()


@pytest.mark.parametrize("bad_chunk", [0, 1])
def test_map_members_raises_after_every_chunk(bad_chunk, monkeypatch):
    """A NaN member makes its chunk's SVD raise LinAlgError, which
    map_members raises only after the other, slower chunk has finished,
    whether the caller's or the pool's chunk fails."""
    stack = np.tile(np.eye(4), (4, 1, 1))
    stack[2 * bad_chunk, 1, 1] = np.nan
    split_stacks(monkeypatch, 2)
    finished = []

    def func(part):
        if np.isnan(part).any():
            return _singular_values(part)
        time.sleep(0.05)
        out = _singular_values(part)
        finished.append(len(part))
        return out

    with pytest.raises(np.linalg.LinAlgError):
        map_members(func, stack)
    assert finished == [2]


def test_map_members_raises_the_first_failing_chunk_in_order(monkeypatch):
    """When every chunk fails, the error is the first chunk's, though the
    second failed sooner."""
    split_stacks(monkeypatch, 2)

    def func(part):
        first = int(part[0, 0, 0])
        if first == 0:
            time.sleep(0.05)
        raise KeyError(first)

    with pytest.raises(KeyError) as info:
        map_members(func, np.arange(4.0).reshape(4, 1, 1))
    assert info.value.args == (0,)


def test_map_members_from_many_threads(rng, monkeypatch):
    """Eight callers at once, each splitting its stack over four workers
    (more than this box's CPUs, whatever it has) under a short switch
    interval: the pool is created once, and every caller gets its own
    stack's values in order."""
    monkeypatch.setattr(csalg, "_POOL", None)
    split_stacks(monkeypatch, 4)
    created = []
    executor = concurrent.futures.ThreadPoolExecutor

    def counted(*args, **kwargs):
        created.append(executor(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    stacks = [rng.standard_normal((9, 6, 6)) for _ in range(8)]
    results = [None] * len(stacks)

    def caller(k):
        results[k] = [map_members(_singular_values, stacks[k]) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=caller, args=(k,))
            for k in range(len(stacks))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for pool in created:
            pool.shutdown()
    assert len(created) == 1
    for stack, res in zip(stacks, results):
        ref = _singular_values(stack)
        assert len(res) == 20
        assert all(np.array_equal(r, ref) for r in res)


def test_tanh_sech_stack_mixes_scaling_exponents(rng):
    """1-norms from 0 (s = 0) to several hundred (s >= 8): each member
    keeps its own scaling exponent and doubling count, so it is
    bit-identical to its one-matrix call."""
    n = 4
    mats = [np.zeros((n, n), dtype=complex)]
    for scale in (0.05, 1.0, 5.0, 40.0, 100.0):
        mats += [hermitian(rng, n, scale), hermitian(rng, n, scale)]
    stack = np.stack(mats)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    assert norms.min() == 0.0
    assert norms.max() > 2**8 * dirac._TANH_SECH_START
    out = tanh_sech(stack)
    for i, single in enumerate(stack):
        for part, one in zip(out, tanh_sech(single)):
            assert np.array_equal(part[i], one)
    # any leading shape
    lead = tanh_sech(stack[1:].reshape(2, 5, n, n))
    for part, flat in zip(lead, out):
        assert np.array_equal(part.reshape(10, n, n), flat[1:])


def test_graph_projection_and_exact_channel_stack(rng):
    stack = np.stack([s * hermitian(rng, 4) for s in (0.1, 1.0, 3.0, 12.0)])
    block, sech = graph_projection(stack)
    blocks, kernel_dims = exact_channel(stack)
    assert kernel_dims.shape == (4,)
    for i, b in enumerate(stack):
        one_block, one_sech = graph_projection(b)
        assert np.array_equal(block[i], one_block)
        assert np.array_equal(sech[i], one_sech)
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
    """Blocks of sizes 2, 4, 3, 4, 2 (three groups): the defects of each
    block are those of its one-block call, and the index is that of the
    assembled matrices."""
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
    assert np.array_equal(idem, np.concatenate([i for i, _ in singles]))
    assert np.array_equal(asym, np.concatenate([a for _, a in singles]))
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
    assert cli._oracle_defect(proj, sysd) == max(
        float(opnorm(b - cs.exact_block))
        for (_, b), cs in zip(proj.channel_blocks, sysd.channels)
    )
    # apply: one product per group, each the one-channel product
    rng = np.random.default_rng(3)
    g = BoundaryData.random_band_limited(model, grid.n_y, rng)
    channels = [ch for ch, _ in proj.channel_blocks]
    coeffs = _values_to_channels(np.stack([g.g0, g.g1]), channels, grid.n_y)
    ref = boundary_data_from_channel_coeffs(model, grid.n_y, [
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


def stacked_pass_models():
    """A per-mode, a twisted per-mode and a y-coupled (two clusters) model,
    with their grids."""
    rng = np.random.default_rng(29)
    m2 = CStarAlgebra.matrix(2)
    return [
        (
            ProductDiracModel("cylinder", m2, v=hermitian(rng, 2)),
            CollarGrid(n_u=16, n_y=12, kind="chebyshev"),
        ),
        (twisted_model(), CollarGrid(n_u=16, n_y=8, kind="chebyshev")),
        (y_coupled_model(), CollarGrid(n_u=16, n_y=8, kind="chebyshev")),
    ]


STACKED_IDS = ["per-mode", "twisted", "y-coupled"]


def _trial_data(model, n_y, rng):
    """One trial of the A-linearity check, drawn as one trial at a time
    draws it: trace 0, trace 1 (per frequency, real then imaginary part),
    then the algebra element."""
    cut = n_y // 3
    y = 2.0 * np.pi * np.arange(n_y) / n_y
    shape = (n_y, model.n_fiber, model.m)
    traces = []
    for _ in range(2):
        g = rng.standard_normal((2 * cut + 1, 2) + shape[1:])
        vals = np.zeros(shape, dtype=complex)
        for eta, coef in zip(range(-cut, cut + 1), g[:, 0] + 1j * g[:, 1]):
            vals += np.exp(1j * eta * y)[:, None, None] * coef[None]
        traces.append(vals)
    a = model.algebra.random_element(rng)
    return BoundaryData(model, n_y, *traces), a


@pytest.mark.parametrize("index", range(3), ids=STACKED_IDS)
def test_a_linearity_defect_is_the_per_trial_loop(index):
    """The stacked A-linearity pass gives, bit for bit, the loop that
    applies the projector to one trial's g a and g at a time, and leaves
    the generator where that loop does."""
    model, grid = stacked_pass_models()[index]
    proj = calderon_projector(build_double(model, grid))
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    worst = 0.0
    for _ in range(6):
        g, a = _trial_data(model, grid.n_y, ref_rng)
        diff = proj.apply(g.times(a)) - proj.apply(g).times(a)
        worst = max(worst, diff.norm())
    assert proj.a_linearity_defect(rng, trials=6) == worst
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert proj.a_linearity_defect(rng, trials=0) == 0.0


@pytest.mark.parametrize("index", range(3), ids=STACKED_IDS)
def test_stacked_apply_equals_its_per_member_calls(index):
    """The array-level apply on a (3, 2, 2, n_y, n_fiber, m) stack of
    trace pairs: every member is the one-pair ``apply``, bit for bit."""
    model, grid = stacked_pass_models()[index]
    proj = calderon_projector(build_double(model, grid))
    rng = np.random.default_rng(5)
    shape = (3, 2, 2, grid.n_y, model.n_fiber, model.m)
    traces = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = proj._apply_traces(traces)
    assert out.shape == shape
    for i in np.ndindex(shape[:2]):
        one = proj.apply(BoundaryData(model, grid.n_y, *traces[i]))
        assert np.array_equal(out[i][0], one.g0)
        assert np.array_equal(out[i][1], one.g1)


def test_matrix_algebra_membership_takes_no_svd(monkeypatch):
    """On M_n the membership defect is zero without an SVD: diagnostics()
    of a per-mode projector takes two per channel shape group, for its
    idempotency and self-adjointness defects, and none on a zero matrix."""
    model, grid = stacked_pass_models()[0]
    proj = calderon_projector(build_double(model, grid))
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):  # opnorm looks svd up at call time
        calls.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    diag = proj.diagnostics()
    groups = shape_groups([b for _, b in proj.channel_blocks])
    assert len(calls) == 2 * len(groups)
    assert all(np.any(a) for a in calls)
    assert diag["a_membership_defect"] == 0.0
    alg = model.algebra
    assert alg.membership_defect(np.ones((2, 2))) == 0.0
    stack = np.ones((3, 4, 2, 2))
    assert np.array_equal(alg.membership_defect(stack), np.zeros((3, 4)))
    assert len(calls) == 2 * len(groups)
    with pytest.raises(StructureError):
        alg.membership_defect(stack[..., :1])


def test_group_algebra_membership_is_the_projection_distance():
    """On C[G] the membership defect is still the SVD of the distance from
    the projection, over the full-fiber m-blocks: the selfcheck
    ``cylinder-group`` fixture reads the value of that formula."""
    raw = cli.builtin_fixtures("unused")[1]
    assert raw["output_dir"].endswith("cylinder-group")
    cfg = cli.parse_config(raw)
    model, alg = cfg["model"], cfg["algebra"]
    proj = calderon_projector(build_double(model, cfg["grid"]))
    m = alg.rep_dim
    ref = 0.0
    for block in proj.blocks:
        k = len(block) // m
        mats = block.reshape(k, m, k, m).swapaxes(1, 2)
        dist = mats - alg.project_matrix(mats)
        ref = max(ref, float(np.linalg.svd(dist, compute_uv=False).max()))
    assert ref > 0.1
    assert proj.diagnostics()["a_membership_defect"] == ref
