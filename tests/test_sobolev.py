import numpy as np
import pytest

from calderon import sobolev
from calderon.errors import StructureError
from calderon.sobolev import (
    FourierMultiplier,
    GridFunction,
    GridSpec,
    boundary_norm,
    embed_adjoint,
    extend_adjoint,
    extend_reflect,
    lambda_pm,
    restrict,
    sobolev_norm,
    torus_inner,
    trace,
)


@pytest.fixture
def spec2():
    return GridSpec(n_u=32, n_y=16)


def test_grid_spec_validation():
    with pytest.raises(StructureError):
        GridSpec(n_u=7, n_y=16)
    with pytest.raises(StructureError):
        GridSpec(n_u=16, n_y=3)


def test_single_mode_norms(spec2):
    f = GridFunction.single_mode(spec2, k_u=2, k_y=3)
    assert f.l2_norm() == pytest.approx(1.0, abs=1e-13)
    xi2 = (np.pi * 2) ** 2 + 3**2
    for s in (-1.0, 0.5, 2.0):
        assert sobolev_norm(f, s) == pytest.approx(
            (1 + xi2) ** (s / 2), rel=1e-12
        )


def test_parseval(spec2, rng):
    f = GridFunction.random_band_limited(spec2, rng)
    assert sobolev_norm(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-12)


def test_lambda_adjoint_pair(spec2, rng):
    f = GridFunction.random_band_limited(spec2, rng)
    g = GridFunction.random_band_limited(spec2, rng)
    lhs = torus_inner(lambda_pm(f, +1), g)
    rhs = torus_inner(f, lambda_pm(g, -1))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, f.l2_norm() * g.l2_norm())


def test_lambda_product_is_one_plus_laplacian(spec2, rng):
    f = GridFunction.random_band_limited(spec2, rng)
    lap = FourierMultiplier(lambda xi, eta: 1.0 + xi**2 + eta**2)
    dev = (lambda_pm(lambda_pm(f, -1), +1) - lap.apply(f)).l2_norm()
    assert dev < 1e-12 * max(1.0, sobolev_norm(f, 2.0))


def test_lambda_shifts_sobolev_order(spec2, rng):
    f = GridFunction.random_band_limited(spec2, rng)
    assert sobolev_norm(lambda_pm(f, +1), 1.0) == pytest.approx(
        sobolev_norm(f, 2.0), rel=1e-10
    )


def test_embed_adjoint_symbol(spec2):
    f = GridFunction.single_mode(spec2, k_u=1, k_y=2)
    g = embed_adjoint(f)
    factor = 1.0 / (1.0 + np.pi**2 + 4.0)
    assert np.allclose(g.values, factor * f.values)


def test_restrict_extend_roundtrip(spec2, rng):
    f = GridFunction.random_band_limited(spec2, rng)
    half = restrict(f)
    back = restrict(extend_reflect(half))
    assert np.array_equal(back.values, half.values)


def test_odd_reflection_of_sine_is_exact(spec2):
    # sin(pi u) is its own odd reflection across u = 0 and u = 1
    u = spec2.u_nodes()
    vals = np.sin(np.pi * u)[:, None, None, None] * np.ones(
        (1, spec2.n_y, 1, 1)
    )
    f = GridFunction(spec2, vals)
    ext = extend_reflect(restrict(f))
    assert np.abs(ext.values - f.values).max() < 1e-12


def test_extend_adjoint_identity(spec2, rng):
    g = GridFunction.random_band_limited(spec2, rng)
    half_spec = spec2.as_half()
    h_vals = rng.standard_normal(
        (half_spec.n_u_points, spec2.n_y, 1, 1)
    ) + 1j * rng.standard_normal((half_spec.n_u_points, spec2.n_y, 1, 1))
    h = GridFunction(half_spec, h_vals)
    lhs = torus_inner(extend_reflect(h), g)
    rhs = torus_inner(h, extend_adjoint(g))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, g.l2_norm())


def test_trace_requires_grid_node(spec2, rng):
    f = GridFunction.random_band_limited(spec2, rng)
    with pytest.raises(StructureError):
        trace(f, 0.123456, 1.0)


def test_trace_ratio_stability_and_degradation(rng):
    coarse = GridSpec(n_u=32, n_y=16)
    fine = GridSpec(n_u=64, n_y=32)
    f_c = GridFunction.random_band_limited(coarse, rng, band_u=6, band_y=4)
    # re-sample the identical band-limited function on the fine grid
    coeffs = sobolev.fft(f_c)
    big = np.zeros((fine.n_u, fine.n_y, 1, 1), dtype=complex)
    ku = np.fft.fftfreq(coarse.n_u, 1.0 / coarse.n_u).astype(int)
    ky = np.fft.fftfreq(coarse.n_y, 1.0 / coarse.n_y).astype(int)
    for i, k_u in enumerate(ku):
        for j, k_y in enumerate(ky):
            big[k_u % fine.n_u, k_y % fine.n_y] = coeffs[i, j] * (
                fine.n_u * fine.n_y
            ) / (coarse.n_u * coarse.n_y)
    f_f = GridFunction(fine, np.fft.ifft2(big, axes=(0, 1)))
    ratios_c = [trace(f_c, 0.0, s) for s in (2.0, 1.0, 0.75, 0.6)]
    ratios_f = [trace(f_f, 0.0, s) for s in (2.0, 1.0, 0.75, 0.6)]
    for rc, rf in zip(ratios_c, ratios_f):
        assert rf == pytest.approx(rc, rel=0.10)
    # ratio grows monotonically as s decreases toward 1/2
    assert ratios_c[0] < ratios_c[1] < ratios_c[2] < ratios_c[3]


def test_boundary_norm_single_mode(spec2):
    f = GridFunction.single_mode(spec2, k_u=0, k_y=2)
    profile = f.values[0]
    assert boundary_norm(profile, 0.5) == pytest.approx(
        5.0**0.25, rel=1e-12
    )

