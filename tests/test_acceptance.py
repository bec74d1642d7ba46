"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail
line; run with ``pytest -v`` (or ``-s`` to see the lines inline).
"""

import json

import numpy as np
import pytest
import scipy.linalg

from calderon import sobolev
from calderon.cli import main as cli_main
from calderon.csalg import CStarAlgebra, is_positive, star
from calderon.csalg import norm as alg_norm
from calderon.dirac import (
    CollarGrid,
    ProductDiracModel,
    build_double,
    ghost_solution_check,
    green_residual,
)
from calderon.hilbmod import (
    ModuleOperator,
    ModuleVector,
    adjoint,
    inner_product,
    mishchenko_decompose,
    orthogonalize_idempotent,
    orthogonalize_idempotent_matrix,
    rank_one,
)
from calderon.projector import (
    calderon_projector,
    calderon_vs_aps_index,
    exact_projector_block,
    principal_symbol,
    spectral_projection_positive,
    symbol_limit_check,
)

from angles import principal_angles
from conftest import cylinder_fixture, fixture_models, hermitian
from ode_oracle import cauchy_space_oracle

ALGEBRAS = [
    CStarAlgebra.matrix(2),
    CStarAlgebra.matrix(3),
    CStarAlgebra.cyclic(4),
    CStarAlgebra.symmetric(3),
]


def _report(num, label, ok):
    print("criterion %2d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok


# -- criterion 1 --------------------------------------------------------


def test_criterion_01_module_identities():
    worst = 0.0
    for alg in ALGEBRAS:
        rng = np.random.default_rng(101)
        for _ in range(1000):
            x = ModuleVector.random(alg, 2, rng)
            y = ModuleVector.random(alg, 2, rng)
            z = ModuleVector.random(alg, 2, rng)
            a = alg.random_element(rng)
            scale = max(1.0, x.norm() * y.norm() * z.norm())
            ip = inner_product
            devs = [
                np.linalg.norm(
                    (ip(x, y + z) - ip(x, y) - ip(x, z)).mat, 2
                ),
                np.linalg.norm(
                    (ip(x, y.times(a)) - ip(x, y) * a).mat, 2
                )
                / max(1.0, np.linalg.norm(a.mat, 2)),
                np.linalg.norm((ip(x, y) - star(ip(y, x))).mat, 2),
                0.0 if is_positive(ip(x, x)) else 1.0,
                np.linalg.norm(
                    (adjoint(rank_one(x, y)) - rank_one(y, x)).rep, 2
                ),
                np.linalg.norm(
                    (
                        rank_one(x, y).compose(rank_one(y, z))
                        - rank_one(x.times(ip(y, y)), z)
                    ).rep,
                    2,
                )
                / max(1.0, y.norm() ** 2),
            ]
            t_op = ModuleOperator.random(alg, 2, 2, rng)
            devs.append(
                np.linalg.norm(
                    (
                        ip(t_op.apply(x), y)
                        - ip(x, adjoint(t_op).apply(y))
                    ).mat,
                    2,
                )
                / max(1.0, t_op.norm())
            )
            worst = max(worst, max(devs) / scale)
    _report(1, "Hilbert-module identities, max dev %.2e" % worst, worst < 1e-12)


# -- criterion 2 --------------------------------------------------------


def _closed_range_operator(alg, rng):
    diag = np.zeros((3, 3))
    for i in range(2):
        diag[i, i] = 1.0 + rng.random()
    mid = ModuleOperator(alg, 3, 3, np.kron(diag, np.eye(alg.rep_dim)))
    left = ModuleOperator.random(alg, 3, 3, rng)
    right = ModuleOperator.random(alg, 3, 3, rng)
    return left.compose(mid).compose(right)


def test_criterion_02_mishchenko():
    worst = 0.0
    dims_ok = True
    for alg in ALGEBRAS:
        rng = np.random.default_rng(202)
        m = alg.rep_dim
        for _ in range(200):
            dec = mishchenko_decompose(_closed_range_operator(alg, rng))
            dims_ok = dims_ok and (
                len(dec.ker_adj_basis.stack) + len(dec.ran_basis.stack)
                == 3 * m
                and len(dec.ker_basis.stack) + len(dec.ran_adj_basis.stack)
                == 3 * m
            )
            worst = max(
                worst,
                *[
                    dec.residuals[key]
                    for key in (
                        "ker_vs_ran_adj",
                        "ker_adj_vs_ran",
                        "source_completeness",
                        "target_completeness",
                    )
                ]
            )
    ok = dims_ok and worst < 1e-10
    _report(2, "Mishchenko splitting, max residual %.2e" % worst, ok)


# -- criterion 3 --------------------------------------------------------


def test_criterion_03_orthogonalization():
    ok = True
    for alg in ALGEBRAS[:2] + ALGEBRAS[2:]:
        rng = np.random.default_rng(303)
        m = alg.rep_dim
        dim = 2 * m
        for _ in range(50):
            q, _ = np.linalg.qr(
                rng.standard_normal((dim, dim))
                + 1j * rng.standard_normal((dim, dim))
            )
            p = q[:, : dim // 2] @ q[:, : dim // 2].conj().T
            while True:
                s = np.eye(dim) + 0.4 * (
                    rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim))
                ) / np.sqrt(dim)
                if np.linalg.cond(s) <= 100.0:
                    break
            c = ModuleOperator(alg, 2, 2, s @ p @ np.linalg.inv(s))
            orth = orthogonalize_idempotent(c)
            rep = orth.rep
            ok = ok and orthogonalize_idempotent_matrix(c.rep)[1] > 0
            ok = ok and np.linalg.norm(rep @ rep - rep, 2) < 1e-10
            ok = ok and np.linalg.norm(rep - rep.conj().T, 2) < 1e-10
            angles = principal_angles(rep, c.rep)
            ok = ok and (angles.size == 0 or angles.max() < 1e-8)
            twice = orthogonalize_idempotent(orth)
            ok = ok and np.linalg.norm(twice.rep - rep, 2) < 1e-12
    _report(3, "idempotent orthogonalization (200 instances)", ok)


# -- criterion 4 --------------------------------------------------------


def test_criterion_04_sobolev():
    rng = np.random.default_rng(404)
    spec = sobolev.GridSpec(n_u=32, n_y=16)
    f = sobolev.GridFunction.random_band_limited(spec, rng, band_u=6, band_y=4)
    g = sobolev.GridFunction.random_band_limited(spec, rng, band_u=6, band_y=4)
    adj = abs(
        sobolev.torus_inner(sobolev.lambda_pm(f, +1), g)
        - sobolev.torus_inner(f, sobolev.lambda_pm(g, -1))
    ) / max(1.0, f.l2_norm() * g.l2_norm())
    lap = sobolev.FourierMultiplier(lambda xi, eta: 1.0 + xi**2 + eta**2)
    prod = (
        sobolev.lambda_pm(sobolev.lambda_pm(f, -1), +1) - lap.apply(f)
    ).l2_norm() / max(1.0, sobolev.sobolev_norm(f, 2.0))
    half = sobolev.restrict(f)
    exact_roundtrip = np.array_equal(
        sobolev.restrict(sobolev.extend_reflect(half)).values, half.values
    )
    fine = sobolev.GridSpec(n_u=64, n_y=32)
    coeffs = sobolev.fft(f)
    big = np.zeros((fine.n_u, fine.n_y, 1, 1), dtype=complex)
    ku = np.fft.fftfreq(spec.n_u, 1.0 / spec.n_u).astype(int)
    ky = np.fft.fftfreq(spec.n_y, 1.0 / spec.n_y).astype(int)
    for i, k_u in enumerate(ku):
        for j, k_y in enumerate(ky):
            big[k_u % fine.n_u, k_y % fine.n_y] = (
                coeffs[i, j] * fine.n_u * fine.n_y / (spec.n_u * spec.n_y)
            )
    f_fine = sobolev.GridFunction(fine, np.fft.ifft2(big, axes=(0, 1)))
    s_ladder = (2.0, 1.0, 0.75, 0.6)
    r_c = [sobolev.trace(f, 0.0, s) for s in s_ladder]
    r_f = [sobolev.trace(f_fine, 0.0, s) for s in s_ladder]
    stable = all(abs(a - b) <= 0.10 * abs(a) for a, b in zip(r_c, r_f))
    degrading = r_c[0] < r_c[1] < r_c[2] < r_c[3]
    ok = adj < 1e-12 and prod < 1e-12 and exact_roundtrip and stable and degrading
    _report(4, "Sobolev multiplier/trace suite", ok)


# -- criterion 5 --------------------------------------------------------


def test_criterion_05_invertible_double():
    ok = True
    for _name, model, grid in fixture_models():
        sysd = build_double(model, grid)
        if sysd.per_mode:
            ok = ok and max(sysd.kernel_dims()) == 0
        ok = ok and ghost_solution_check(sysd)["sigma_min"] > 1e-8
    model, _ = cylinder_fixture()
    sig = [
        build_double(
            model, CollarGrid(n_u=n, n_y=12, kind="uniform")
        ).sigma_min
        for n in (32, 64)
    ]
    stable = abs(sig[1] - sig[0]) <= 0.20 * abs(sig[0])
    ok = ok and stable
    _report(
        5,
        "double invertibility, sigma_min drift %.1f%%"
        % (100 * abs(sig[1] - sig[0]) / abs(sig[0])),
        ok,
    )


# -- criterion 6 --------------------------------------------------------


def test_criterion_06_green_formula():
    from test_dirac import _exponential_pair

    worst = 0.0
    rng = np.random.default_rng(606)
    for _name, model, grid in fixture_models():
        s1, s2 = _exponential_pair(model, grid, rng)
        scale = max(1.0, s1.norm() * s2.norm())
        worst = max(worst, alg_norm(green_residual(model, s1, s2)) / scale)
    analytic_ok = worst < 1e-12

    from calderon.cli import _manufactured_pair

    model, _ = cylinder_fixture()
    errs = []
    for n_u in (16, 32, 64):
        grid = CollarGrid(n_u=n_u, n_y=12, kind="uniform")
        rng = np.random.default_rng(606)
        s1, s2 = _manufactured_pair(model, grid, rng)
        errs.append(alg_norm(green_residual(model, s1, s2)))
    order = float(
        -np.polyfit(np.arange(3), np.log2(np.asarray(errs)), 1)[0]
    )
    ok = analytic_ok and order >= 3.5
    _report(
        6,
        "Green formula, analytic dev %.1e, dense order %.2f" % (worst, order),
        ok,
    )


# -- criterion 7 --------------------------------------------------------


def test_criterion_07_calderon_projector():
    model, grid = cylinder_fixture()
    sysd = build_double(model, grid)
    proj = calderon_projector(sysd)
    diag = proj.diagnostics()
    ok = diag["idempotency_defect"] < 1e-9
    oracle_dev = 0.0
    angle_dev = 0.0
    for ch, block in proj.channel_blocks:
        oracle_dev = max(
            oracle_dev,
            float(
                np.linalg.norm(block - exact_projector_block(ch.b_mat), 2)
            ),
        )
        cs = cauchy_space_oracle(model, ch.eta + ch.shift)
        a_r = scipy.linalg.subspace_angles(scipy.linalg.orth(block), cs.h1)
        a_k = scipy.linalg.subspace_angles(
            scipy.linalg.null_space(block), cs.h2
        )
        angle_dev = max(angle_dev, a_r.max(), a_k.max())
    ok = ok and oracle_dev < 1e-9 and angle_dev < 1e-8
    lin = proj.a_linearity_defect(np.random.default_rng(707), trials=10)
    ok = ok and lin < 1e-10

    # uniform grid: oracle defect decays at 4th order; the discrete
    # transmission projector is idempotent by construction at every
    # resolution, so its defect must sit at rounding level throughout
    dense_errs = []
    for n_u in (16, 32, 64):
        g = CollarGrid(n_u=n_u, n_y=12, kind="uniform")
        p = calderon_projector(build_double(model, g))
        dense_errs.append(
            max(
                float(
                    np.linalg.norm(b - exact_projector_block(c.b_mat), 2)
                )
                for c, b in p.channel_blocks
            )
        )
        ok = ok and p.diagnostics()["idempotency_defect"] < 1e-12
    order = float(
        -np.polyfit(np.arange(3), np.log2(np.asarray(dense_errs)), 1)[0]
    )
    ok = ok and order >= 3.5
    _report(
        7,
        "Calderon projector, oracle dev %.1e, dense order %.2f"
        % (oracle_dev, order),
        ok,
    )


# -- criterion 8 --------------------------------------------------------


def test_criterion_08_principal_symbol():
    rng = np.random.default_rng(808)
    worst = 0.0
    count = 0
    while count < 500:
        n = int(rng.integers(2, 7))
        b = hermitian(rng, n)
        if np.abs(np.linalg.eigvalsh(b)).min() <= 0.1:
            continue
        count += 1
        worst = max(
            worst,
            float(
                np.linalg.norm(
                    principal_symbol(b)[0] - spectral_projection_positive(b), 2
                )
            ),
        )
    ok = worst < 1e-10

    model, _ = cylinder_fixture()
    table = symbol_limit_check(model)
    ok = ok and table["monotone"] and table["satisfies_bound"]

    free = ProductDiracModel(
        "cylinder", CStarAlgebra.matrix(2), v=np.zeros((2, 2))
    )
    t0 = symbol_limit_check(free)
    ok = ok and t0["monotone"] and t0["deltas"][-1] < 1e-10 * t0["deltas"][0]
    _report(
        8,
        "principal symbol, contour dev %.1e, ladder monotone" % worst,
        ok,
    )


# -- criterion 9 --------------------------------------------------------


def _mode_kernel_count(model, n_y):
    total = 0
    for ch in model.mode_channels(n_y):
        eigs = np.linalg.eigvalsh(ch.b_mat)
        total += int(np.sum(np.abs(eigs) < 1e-9))
    return total


def test_criterion_09_index_v0_and_k2():
    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    free = ProductDiracModel(
        "cylinder",
        alg,
        v=np.zeros((2, 2)),
        holonomy=-np.eye(2, dtype=complex),
    )
    idx_free = calderon_vs_aps_index(build_double(free, grid))["index"]
    base = ProductDiracModel(
        "cylinder", alg, v=np.diag([1.0, 0.5]).astype(complex)
    )
    shifted = ProductDiracModel(
        "cylinder", alg, v=np.diag([1.0, 0.0]).astype(complex)
    )
    i0 = calderon_vs_aps_index(build_double(base, grid))["index"]
    i1 = calderon_vs_aps_index(build_double(shifted, grid))["index"]
    oracle0 = _mode_kernel_count(base, 12)
    oracle1 = _mode_kernel_count(shifted, 12)
    ok = (
        idx_free == 0
        and i0 == oracle0
        and i1 == oracle1
        and i1 - i0 == 2
    )
    _report(9, "relative index, k = 2 spectral shift", ok)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a single crossing (k = 1) cannot occur in this operator family: "
        "the tangential matrix anticommutes with the Clifford normal, so "
        "its spectrum is symmetric and every kernel is even-dimensional; "
        "any eigenvalue crossing changes the mode-kernel count, and hence "
        "the relative index, in steps of 2"
    ),
)
def test_criterion_09_index_k1():
    alg = CStarAlgebra.matrix(2)
    grid = CollarGrid(n_u=16, n_y=12, kind="chebyshev")
    base = ProductDiracModel(
        "cylinder", alg, v=np.diag([1.0, 0.5]).astype(complex)
    )
    i0 = calderon_vs_aps_index(build_double(base, grid))["index"]
    found = False
    for v1 in (0.0, 0.5, 1.0):
        for v2 in (0.0, 0.5, 1.0):
            trial = ProductDiracModel(
                "cylinder", alg, v=np.diag([v1, v2]).astype(complex)
            )
            i_t = calderon_vs_aps_index(build_double(trial, grid))["index"]
            if abs(i_t - i0) == 1:
                found = True
    _report(9, "relative index, k = 1 spectral shift", found)


# -- criterion 10 -------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    ok = cli_main(["selfcheck", "--output-dir", str(tmp_path / "sc")]) == 0

    cfg = {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "segment",
            "v": {"kind": "diag", "values": [1.0, -0.5]},
        },
        "grid": {"n_u": 16, "n_y": 1, "kind": "uniform"},
        "tasks": ["convergence"],
        "seed": 1010,
        "output_dir": None,
    }
    tables = []
    orders = None
    for run in ("r1", "r2"):
        out = tmp_path / run
        cfg["output_dir"] = str(out)
        path = tmp_path / ("%s.json" % run)
        path.write_text(json.dumps(cfg))
        ok = ok and cli_main(["run", str(path)]) == 0
        tables.append((out / "convergence.csv").read_bytes())
        report = json.loads((out / "report.json").read_text())
        orders = report["tasks"][0]["metrics"]
    ok = ok and tables[0] == tables[1]
    for key in ("green_order", "oracle_order"):
        if key in orders and orders[key] != "floor":
            ok = ok and 3.5 <= orders[key] <= 4.5
    _report(
        10,
        "CLI determinism, green order %.2f" % orders["green_order"],
        ok,
    )
