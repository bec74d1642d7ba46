import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from calderon import cli, csalg, dirac, projector
from calderon.cli import ConfigError, main, parse_config
from calderon.csalg import CStarAlgebra
from calderon.dirac import ProductDiracModel
from calderon.errors import CertificationError

from conftest import split_stacks


def test_cli_import_leaves_out_scipy_integrate():
    """The ODE oracle is a test helper, so importing the package does not
    load scipy.integrate; the package uses numpy only, so no scipy module
    is loaded at all."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, calderon.cli; "
        "print('scipy.integrate' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    integrate_loaded, scipy_modules = out.stdout.split("\n")[:2]
    assert integrate_loaded == "False"
    assert scipy_modules == "[]"


def segment_config(output_dir, tasks=("double", "calderon")):
    return {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "segment",
            "r": 1,
            "v": {"kind": "diag", "values": [1.0, -0.5]},
        },
        "grid": {"n_u": 16, "n_y": 1, "kind": "chebyshev"},
        "tasks": list(tasks),
        "seed": 777,
        "output_dir": str(output_dir),
    }


def cylinder_config(output_dir, tasks=("double", "calderon", "index")):
    return {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "cylinder",
            "v": {"kind": "random-hermitian", "scale": 0.8},
        },
        "grid": {"n_u": 12, "n_y": 8, "kind": "chebyshev"},
        "tasks": list(tasks),
        "seed": 31,
        "output_dir": str(output_dir),
    }


def symmetric_config(output_dir):
    """cylinder_config over C[S_0], the group algebra of the trivial group."""
    raw = cylinder_config(output_dir)
    raw["algebra"] = {"kind": "group", "name": "symmetric", "n": 0}
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# -- strict schema ------------------------------------------------------


def test_parse_config_builds_no_u_discretization(tmp_path, monkeypatch):
    """Parsing builds the model and the grid, but no differentiation
    matrix and no half system: build_double makes those, so parsing a
    config costs no more than validating it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a u-discretization was built")

    for name in ("chebyshev_nodes_diff", "fd4_diff", "_scalar_systems"):
        monkeypatch.setattr(dirac, name, forbidden)
    for raw in cli.builtin_fixtures(str(tmp_path)):
        cfg = parse_config(raw)
        # the guard is live: the build goes through the patched names
        with pytest.raises(AssertionError):
            dirac.build_double(cfg["model"], cfg["grid"])


def test_unknown_top_level_key_rejected(tmp_path):
    raw = segment_config(tmp_path / "out")
    raw["extra"] = 1
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_unknown_nested_key_rejected(tmp_path):
    raw = segment_config(tmp_path / "out")
    raw["model"]["typo"] = True
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_unknown_task_rejected(tmp_path):
    raw = segment_config(tmp_path / "out", tasks=["frobnicate"])
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_base_grid_mismatch_rejected(tmp_path):
    raw = segment_config(tmp_path / "out")
    raw["grid"]["n_y"] = 8
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_bad_config_exits_2_without_outputs(tmp_path):
    out = tmp_path / "out"
    raw = segment_config(out)
    raw["surprise"] = {}
    code = main(["run", write_config(tmp_path, raw)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_output_dir_that_cannot_be_made_exits_2(tmp_path, capsys, where):
    """An output_dir that is a file, or lies under one, is one config
    error line, not a traceback."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "out"
    raw = segment_config(out, tasks=["double"])
    assert main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output_dir %s" % out)
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_malformed_json_exits_2(tmp_path, capsys):
    for text in (
        b"{not json",
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the recursion limit
    ):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        assert main(["run", str(path)]) == 2, text[:8]
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


def near_overflow_config(output_dir, scale):
    """M_2 on the cylinder, random-Hermitian V of ``scale``, Chebyshev 8 x 8,
    seed 1: at scale 1e308 the entries of V are finite, its 1-norm not."""
    raw = cylinder_config(output_dir)
    raw["model"]["v"]["scale"] = scale
    raw["grid"] = {"n_u": 8, "n_y": 8, "kind": "chebyshev"}
    raw["seed"] = 1
    return raw


#: config path -> malformed value, set in the segment config or in the
#: config a third entry makes; each must be a config error
MALFORMED_VALUES = {
    "schema-version-string": (("schema_version",), "abc"),
    "algebra-n-string": (("algebra", "n"), "two"),
    "scale-list": (("model", "v"), {"kind": "scaled-identity", "scale": [1]}),
    "algebra-n-fraction": (("algebra", "n"), 2.7),
    "n-u-string": (("grid", "n_u"), "x"),
    "seed-string": (("seed",), "s"),
    "seed-negative": (("seed",), -1),
    "output-dir-empty": (("output_dir",), ""),
    "tolerance-string": (("tolerances",), {"oracle": "x"}),
    "r-bool": (("model", "r"), True),
    "tolerance-infinite": (("tolerances",), {"oracle": float("inf")}),
    "values-string": (("model", "v"), {"kind": "diag", "values": ["1", 2]}),
    "matrix-ragged": (
        ("model", "holonomy"),
        {"kind": "matrix", "real": [[1], [0, 1]]},
    ),
    "task-list": (("tasks",), [["double"]]),
    "task-object": (("tasks",), [{"a": 1}]),
    "table-number": (("algebra",), {"kind": "group", "table": 5}),
    "table-flat": (("algebra",), {"kind": "group", "table": [1, 2]}),
    "table-deep": (("algebra",), {"kind": "group", "table": [[[0]]]}),
    "table-fraction": (("algebra",), {"kind": "group", "table": [[0.5]]}),
    "symmetric-negative": (("algebra", "n"), -3, symmetric_config),
    # finite entries whose defects overflow: ||H H* - I|| and ||V - V*||
    # read NaN, and V(0) = base + amplitude * I is infinite
    "holonomy-overflowing": (
        ("model", "holonomy"),
        {"kind": "matrix", "real": [[1e308, 0], [0, 1]]},
        cylinder_config,
    ),
    "v-huge-not-self-adjoint": (
        ("model", "v"),
        {"kind": "matrix", "real": [[0, 1e308], [-1e308, 0]]},
    ),
    "cosine-overflowing": (
        ("model", "v"),
        {
            "kind": "cosine",
            "base": {"kind": "diag", "values": [1e308, 1e308]},
            "amplitude": 1e308,
        },
        cylinder_config,
    ),
    # finite entries whose 1-norm overflows: that of V, and that of B(0),
    # whose column sums add those of V and W
    "v-norm-overflowing": (
        ("model", "v", "scale"),
        1e308,
        lambda out: near_overflow_config(out, 1.0),
    ),
    "w-norm-overflowing-with-v": (
        ("model", "w"),
        {"kind": "diag", "values": [1.5e308, 1.0]},
        lambda out: dict(
            segment_config(out),
            model={
                "base": "segment",
                "v": {"kind": "diag", "values": [1.5e308, 1.0]},
            },
        ),
    ),
}


@pytest.mark.parametrize("scale, code", [(1e308, 2), (8.7e307, 1)])
def test_v_near_overflow_runs_without_runtime_warnings(tmp_path, scale, code):
    """Under ``-W error::RuntimeWarning``, a V whose 1-norm overflows exits
    2 with no output directory, and one whose 1-norm is finite but past
    2^1023 (the scaling of tanh_sech then takes s = 1024) runs to fail
    entries: its double is not certifiably invertible."""
    out = tmp_path / "out"
    path = write_config(tmp_path, near_overflow_config(out, scale))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "calderon.cli",
         "run", path],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.exists() == (code == 1)


def test_tangential_blocks_of_an_accepted_v_have_finite_norms(tmp_path):
    """B(eta) adds eta to the off-diagonal of B(0): the channel blocks of
    the largest accepted V keep a finite 1-norm, and tanh_sech takes them
    past 2^1023 without overflow."""
    raw = near_overflow_config(tmp_path / "out", 8.7e307)
    model = parse_config(raw)["model"]
    blocks = np.stack([ch.b_mat for ch in model.mode_channels(8)])
    norms = np.abs(blocks).sum(axis=-2).max(axis=-1)
    assert np.isfinite(norms).all() and norms.min() > 2.0**1023
    with np.errstate(over="raise", invalid="raise"):
        tanh, sech = dirac.tanh_sech(blocks)
    assert np.isfinite(tanh).all() and np.isfinite(sech).all()


def test_integral_float_table_parses(tmp_path):
    """Table entries are read as integers, as ``algebra.n`` is: 1.0 is 1."""
    raw = segment_config(tmp_path / "out")
    raw["algebra"] = {"kind": "group", "table": [[0.0, 1.0], [1.0, 0.0]]}
    algebra = parse_config(raw)["algebra"]
    assert algebra == CStarAlgebra.cyclic(2)
    assert algebra.table == [[0, 1], [1, 0]]


def test_symmetric_group_of_order_zero_parses(tmp_path):
    """S_0 has one element; a negative n is refused (MALFORMED_VALUES)."""
    algebra = parse_config(symmetric_config(tmp_path / "out"))["algebra"]
    assert algebra == CStarAlgebra.cyclic(1)


@pytest.mark.parametrize("name, n", [("symmetric", 5), ("cyclic", 25)])
def test_oversized_named_group_exits_2_before_its_table(
    tmp_path, capsys, monkeypatch, name, n
):
    """A named group past the order cap is refused from its order alone:
    its Cayley table is never built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a Cayley table was built")

    for table in ("cyclic_table", "symmetric_table"):
        monkeypatch.setattr(csalg, table, forbidden)
    with pytest.raises(AssertionError):  # the guard is live
        getattr(CStarAlgebra, name)(2)
    out = tmp_path / "out"
    raw = segment_config(out)
    raw["algebra"] = {"kind": "group", "name": name, "n": n}
    assert main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "group order" in err
    assert not out.exists()


def test_matrix_potential_parses(tmp_path):
    raw = segment_config(tmp_path / "out")
    raw["model"]["v"] = {
        "kind": "matrix",
        "real": [[1.0, 0.2], [0.2, -0.5]],
        "imag": [[0.0, 0.1], [-0.1, 0.0]],
    }
    v = parse_config(raw)["model"].v_rep
    assert np.array_equal(v, [[1.0, 0.2 + 0.1j], [0.2 - 0.1j, -0.5]])


@pytest.mark.parametrize(
    "path, value, make",
    [
        entry + (segment_config,) * (3 - len(entry))
        for entry in MALFORMED_VALUES.values()
    ],
    ids=list(MALFORMED_VALUES),
)
def test_malformed_config_value_exits_2(tmp_path, capsys, path, value, make):
    out = tmp_path / "out"
    raw = make(out)
    obj = raw
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    code = main(["run", write_config(tmp_path, raw)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


# -- running scenarios --------------------------------------------------


def test_run_minimal_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", write_config(tmp_path, segment_config(out))])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["schema_version"] == cli.REPORT_SCHEMA_VERSION
    names = [t["name"] for t in report["tasks"]]
    assert names == ["double", "calderon"]
    for fname in (
        "calderon_projector.npy",
        "calderon_projector.csv",
        "calderon_projector_diagnostics.txt",
    ):
        assert (out / fname).exists()
    text = capsys.readouterr().out
    assert "overall: pass" in text


def _slot_texts(x):
    """The strings that ``cli._fmt_slots`` writes for the floats ``x``."""
    words = cli._fmt_slots(np.asarray(x, dtype=float))
    return words.tobytes().translate(None, b"\0").decode().split(",")[1:]


#: exact decimal ties: n / 32 for odd n in [3.2e14, 3.2e15] has 14 integer
#: digits and 5 decimals ending in 5, so its 19th digit is an exact 5 and
#: half-even rounding decides the 18th
TIES = np.arange(320_000_000_000_001, 3_200_000_000_000_000, 155_555_555_554)
TIES = TIES / 32.0


def test_fmt_slots_writes_the_bytes_of_fmt(monkeypatch):
    """The vectorized formatter writes ``_fmt``'s strings: on 2^20 random
    bit patterns (every exponent, NaNs and subnormals among them) and on
    the edges of its fast path; every exact tie reaches ``_fmt`` itself."""
    fmt = cli._fmt
    bits = np.random.default_rng(34).integers(0, 2**64, 2**20, np.uint64)
    rand = bits.view(np.float64)
    assert np.unique(bits >> np.uint64(52)).size == 4096  # sign, exponent
    # what reaches _fmt is _fmt's by construction: compare the rest, in
    # parts of 2^16 floats to bound the temporaries
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fmt", lambda v: "")
        texts = [
            t
            for k in range(0, rand.size, 2**16)
            for t in _slot_texts(rand[k:k + 2**16])
        ]
    fast = [(t, v) for t, v in zip(texts, rand.tolist()) if t]
    assert len(fast) > 2**20 // 4  # [1e-99, 1e99) holds 660 of 2048 exps
    assert [t for t, _ in fast] == [fmt(v) for _, v in fast]

    edges = [0.0, 5e-324, np.nan, np.inf, 0.9999999999999999]
    for v in (1e-100, 1e-99, 1e99, 1e100):
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    for k in range(-120, 121):
        v = float("1e%d" % k)
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    edges = np.concatenate([edges, TIES])
    edges = np.concatenate([edges, -edges])
    assert np.signbit(edges).sum() == edges.size // 2  # -0.0, -nan too
    assert _slot_texts(edges) == [fmt(v) for v in edges.tolist()]

    reached = []
    monkeypatch.setattr(cli, "_fmt", lambda v: reached.append(v) or fmt(v))
    assert _slot_texts(TIES) == [fmt(v) for v in TIES.tolist()]
    assert reached == TIES.tolist()
    assert len(reached) > 10000


def test_export_projector_matches_one_line_formatter(tmp_path, monkeypatch):
    """``export_projector`` writes the bytes of the one-line formatter: the
    all-zero tails shorten only +0.0 in both parts (-0.0 keeps its sign),
    the entries that ``_fmt_slots`` hands to ``_fmt`` (NaN, infinities,
    three-digit exponents, ties) land in their cells, and a dense block
    formatted in small chunks is whole across the chunk boundaries."""
    tiny = 5e-324  # the smallest subnormal
    edge = np.array(
        [
            [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0)],
            [complex(-0.0, -0.0), complex(tiny, 0.0), complex(0.0, -tiny)],
            [complex(-tiny, 2.5e-310), 1.0, complex(np.pi, -np.e)],
            [complex(-2.5, 3e-17), complex(0.0, 1e300), complex(0.0, 0.0)],
            [complex(np.nan, np.inf), complex(-np.inf, 1e-150), 1e150],
            [0.9999999999999999, complex(0.0, TIES[7]), -TIES[8]],
        ]
    )
    signs = [edge[0, 1].real, edge[0, 2].imag, edge[1, 0].imag]
    assert np.signbit(signs).all()
    rng = np.random.default_rng(40)
    dense = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    dense *= np.exp(rng.uniform(-40.0, 40.0, (40, 40)))
    monkeypatch.setattr(cli, "EXPORT_CHUNK", 7)

    class Proj:
        def __init__(self, mat):
            self.mat = mat

        def matrix(self):
            return self.mat

    for name, mat in (("edge", edge), ("dense", dense)):
        cli.export_projector(str(tmp_path), name, Proj(mat), {})
        ref = "row,col,real,imag\n" + "".join(
            "%d,%d,%.17e,%.17e\n" % (i, j, x.real, x.imag)
            for (i, j), x in np.ndenumerate(mat)
        )
        assert (tmp_path / (name + ".csv")).read_text() == ref
    ref = (tmp_path / "edge.csv").read_text()
    assert ref.count("-0.00000000000000000e+00") == 4
    assert "\n4,0,nan,inf\n4,1,-inf,1.00000000000000001e-150\n" in ref


def test_repeat_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        raw = segment_config(out, tasks=["calderon"])
        assert main(["run", write_config(tmp_path, raw)]) == 0
    csv1 = (out1 / "calderon_projector.csv").read_bytes()
    csv2 = (out2 / "calderon_projector.csv").read_bytes()
    assert csv1 == csv2
    diag1 = (out1 / "calderon_projector_diagnostics.txt").read_bytes()
    assert diag1 == (out2 / "calderon_projector_diagnostics.txt").read_bytes()


def test_convergence_repeat_runs_byte_identical(tmp_path):
    outs = [tmp_path / "c1", tmp_path / "c2"]
    for out in outs:
        raw = {
            "algebra": {"kind": "matrix", "n": 2},
            "model": {
                "base": "cylinder",
                "v": {"kind": "diag", "values": [1.0, 0.5]},
            },
            "grid": {"n_u": 8, "n_y": 8, "kind": "uniform"},
            "tasks": ["convergence"],
            "seed": 20240819,
            "output_dir": str(out),
        }
        assert main(["run", write_config(tmp_path, raw)]) == 0
    assert (outs[0] / "convergence.csv").read_bytes() == (
        outs[1] / "convergence.csv"
    ).read_bytes()


def test_report_json_excludes_timing_from_tables(tmp_path, monkeypatch):
    """report.json holds the wall time and the environment block (the
    map_members worker count, the numpy and Python versions, every
    *_NUM_THREADS variable); the CSV tables hold neither."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("CALDERON_TEST_NUM_THREADS", "3")
    out = tmp_path / "out"
    raw = segment_config(out, tasks=["calderon"])
    main(["run", write_config(tmp_path, raw)])
    report = json.loads((out / "report.json").read_text())
    assert "wall_time_s" in report
    env = report["environment"]
    assert env["map_members_workers"] == csalg.worker_count() >= 1
    assert env["numpy_version"] == np.__version__
    assert env["python_version"] == "%d.%d.%d" % sys.version_info[:3]
    assert env["thread_variables"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["thread_variables"]["CALDERON_TEST_NUM_THREADS"] == "3"
    assert all(k.endswith("_NUM_THREADS") for k in env["thread_variables"])
    csv_text = (out / "calderon_projector.csv").read_text()
    assert "time" not in csv_text
    assert "environment" not in csv_text and np.__version__ not in csv_text


def permode_cheb_config(output_dir):
    """A per-mode Chebyshev run of the size of the benchmark's
    permode-cheb workload: M2 cylinder, random-Hermitian V, 48x30, 21
    channels, whose store passes are above csalg.STACK_SPLIT_WORK."""
    return {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "cylinder",
            "r": 1,
            "v": {"kind": "random-hermitian", "scale": 0.8},
        },
        "grid": {"n_u": 48, "n_y": 30, "kind": "chebyshev"},
        "tasks": ["double", "calderon", "index"],
        "seed": 11,
        "output_dir": str(output_dir),
    }


def test_run_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    """The same run, once inline and once with every stack that
    csalg.map_members takes split over two workers, writes byte-identical
    CSV and NPY files."""
    outs = []
    for workers in (1, 2):
        out = tmp_path / ("workers-%d" % workers)
        with monkeypatch.context() as mp:
            split_stacks(mp, workers)
            path = write_config(
                tmp_path, permode_cheb_config(out), "w%d.json" % workers
            )
            assert main(["run", path]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    tables = [n for n in names if n.endswith((".csv", ".npy"))]
    assert any(n.endswith(".npy") for n in tables)
    assert any(n.endswith(".csv") for n in tables)
    for name in tables:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_convergence_rejects_spectral_grid(tmp_path):
    out = tmp_path / "out"
    raw = segment_config(out, tasks=["convergence"])
    code = main(["run", write_config(tmp_path, raw)])
    # structural failure inside the task is reported, not crashed
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["tasks"][0]["status"] == "fail"
    assert "uniform grid" in report["tasks"][0]["metrics"]["error"]


def test_convergence_levels_validation(tmp_path):
    raw = {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {"base": "cylinder", "v": {"kind": "zero"}},
        "grid": {"n_u": 8, "n_y": 8, "kind": "uniform"},
        "tasks": ["convergence"],
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, raw)
    assert main(["convergence", path, "--levels", "2"]) == 2


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def strict_report(out):
    text = (out / "report.json").read_text()
    return json.loads(text, parse_constant=_reject_constant)


def test_double_is_built_once_per_scenario(tmp_path, monkeypatch):
    calls = []
    build = cli.build_double

    def counting_build(model, grid):
        calls.append((model, grid))
        return build(model, grid)

    monkeypatch.setattr(cli, "build_double", counting_build)
    out = tmp_path / "out"
    cfg = parse_config(cylinder_config(out))
    report = cli.run_scenario(cfg)
    assert report["status"] == "pass"
    assert calls == [(cfg["model"], cfg["grid"])]
    # a second scenario builds its own double
    cli.run_scenario(cfg)
    assert len(calls) == 2


def test_exact_blocks_are_built_once_per_scenario(tmp_path, monkeypatch):
    # the double forms tanh b and sech b once per channel, for its kernel
    # check and its exact blocks; the calderon oracle gate reads those
    # blocks, and the index reads none (it counts the kernel of b).
    # tanh_sech takes stacks, so the count is of the matrices it takes: the
    # product of each call's leading axes
    calls = []
    tanh_sech = dirac.tanh_sech

    def counting_tanh_sech(a):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return tanh_sech(a)

    monkeypatch.setattr(dirac, "tanh_sech", counting_tanh_sech)
    # the projector holds its own reference, for the symbol ladder
    monkeypatch.setattr(projector, "tanh_sech", counting_tanh_sech)
    cfg = parse_config(cylinder_config(tmp_path / "out"))
    assert cfg["tasks"] == ["double", "calderon", "index"]
    report = cli.run_scenario(cfg)
    assert report["status"] == "pass"
    assert sum(calls) == len(cfg["model"].mode_channels(cfg["grid"].n_y))


def test_index_reports_both_kernel_counts(tmp_path):
    """The index is the kernel count of the double's eigenvalues, gated by
    the count of the singular values of each b, with both margins."""
    cfg = parse_config(cylinder_config(tmp_path / "out"))
    metrics = cli.run_scenario(cfg)["tasks"][-1]["metrics"]
    assert metrics["index"] == metrics["singular_value_count"] == 0
    assert metrics["kernel_tol"] == projector.ZERO_EIG_TOL
    margins = metrics["eigenvalue_margin"], metrics["singular_value_margin"]
    assert min(margins) > 0.05
    assert abs(margins[0] - margins[1]) < 1e-12


@pytest.mark.parametrize("count", ["index", "singular_value_count"])
def test_index_fails_when_the_counts_differ(tmp_path, monkeypatch, count):
    """Either count off by one fails the index task."""
    if count == "index":
        index = cli.calderon_vs_aps_index

        def off_by_one(sysd):
            out = index(sysd)
            return {**out, "index": out["index"] + 1}

        monkeypatch.setattr(cli, "calderon_vs_aps_index", off_by_one)
    else:
        kernel_count = cli.kernel_count

        def off_by_one(values):
            n, margin = kernel_count(values)
            return n + 1, margin

        monkeypatch.setattr(cli, "kernel_count", off_by_one)
    cfg = parse_config(cylinder_config(tmp_path / "out"))
    report = cli.run_scenario(cfg)
    status = {t["name"]: t["status"] for t in report["tasks"]}
    assert status == {"double": "pass", "calderon": "pass", "index": "fail"}


def test_one_channel_map_per_scenario(tmp_path, monkeypatch):
    # the double, the projector and the index all read the double's channels
    calls = []
    mode_channels = ProductDiracModel.mode_channels

    def counting_mode_channels(self, n_y):
        calls.append(n_y)
        return mode_channels(self, n_y)

    monkeypatch.setattr(
        ProductDiracModel, "mode_channels", counting_mode_channels
    )
    cfg = parse_config(cylinder_config(tmp_path / "out"))
    assert cfg["tasks"] == ["double", "calderon", "index"]
    assert cli.run_scenario(cfg)["status"] == "pass"
    assert calls == [cfg["grid"].n_y]


def test_failed_build_fails_every_task_that_needs_it(tmp_path, monkeypatch):
    calls = []

    def failing_build(model, grid):
        calls.append(1)
        raise CertificationError("double not certifiably invertible")

    monkeypatch.setattr(cli, "build_double", failing_build)
    out = tmp_path / "out"
    raw = cylinder_config(out, tasks=("double", "symbol", "calderon", "index"))
    assert main(["run", write_config(tmp_path, raw)]) == 1
    tasks = {t["name"]: t for t in strict_report(out)["tasks"]}
    assert len(calls) == 1
    assert tasks["symbol"]["status"] == "pass"
    for name in ("double", "calderon", "index"):
        assert tasks[name]["status"] == "fail"
        assert tasks[name]["metrics"] == {
            "error": "double not certifiably invertible"
        }


def test_double_reports_how_sigma_min_was_certified(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(cylinder_config(out, tasks=["double"]))
    metrics = cli.run_scenario(cfg)["tasks"][0]["metrics"]
    assert metrics["sigma_min_method"] == (
        "per-mode decoupled full SVD of the complex half systems"
    )
    assert metrics["svd_max_dim"] == 12 + 1
    assert metrics["eig_residual"] < 1e-12
    assert metrics["eig_unitarity_defect"] < 1e-12
    raw = cylinder_config(out, tasks=["double"])
    raw["model"]["v"] = {
        "kind": "cosine",
        "base": {"kind": "diag", "values": [1.0, -0.7]},
        "amplitude": 0.3,
    }
    raw["grid"] = {"n_u": 8, "n_y": 8, "kind": "uniform"}
    metrics = cli.run_scenario(parse_config(raw))["tasks"][0]["metrics"]
    assert metrics["sigma_min_method"] == (
        "y-coupled decoupled full SVD of the complex half systems"
    )
    assert metrics["svd_max_dim"] == 8 + 1
    assert metrics["eig_residual"] < 1e-12
    assert metrics["eig_unitarity_defect"] < 1e-12
    assert metrics["max_kernel_dim"] == 0


def test_double_reports_the_commutant_split(tmp_path, monkeypatch):
    # the cylinder-vy fixture: V(y) = diag(0.9, -0.4) + 0.3 cos(y) splits
    # into one y-coupled channel per fiber coordinate
    (raw,) = [
        raw for raw in cli.builtin_fixtures(str(tmp_path))
        if raw["output_dir"].endswith("cylinder-vy")
    ]
    raw["tasks"] = ["double"]
    (double,) = cli.run_scenario(parse_config(raw))["tasks"]
    assert double["status"] == "pass"
    metrics = double["metrics"]
    assert metrics["commutant_clusters"] == 2
    assert 0.0 <= metrics["commutant_offblock_residual"] <= 1e-12
    assert 0.0 <= metrics["commutant_unitarity_defect"] <= 1e-12
    assert metrics["sigma_min_method"] == (
        "y-coupled decoupled full SVD of the complex half systems"
    )
    # the task gates the residual of the split it reports
    split = dirac.commutant_split

    def loose_split(mats):
        e, clusters, cert = split(mats)
        return e, clusters, dict(cert, commutant_offblock_residual=2e-12)

    monkeypatch.setattr(dirac, "commutant_split", loose_split)
    (double,) = cli.run_scenario(parse_config(raw))["tasks"]
    assert double["status"] == "fail"


def test_memory_error_becomes_fail_entry(tmp_path, monkeypatch):
    def out_of_memory(model, grid):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_double", out_of_memory)
    out = tmp_path / "out"
    raw = cylinder_config(out, tasks=("double", "symbol", "calderon"))
    assert main(["run", write_config(tmp_path, raw)]) == 1
    report = strict_report(out)
    assert report["status"] == "fail"
    tasks = {t["name"]: t for t in report["tasks"]}
    assert tasks["symbol"]["status"] == "pass"
    for name in ("double", "calderon"):
        assert tasks[name] == {
            "name": name, "status": "fail", "metrics": {"error": "MemoryError"}
        }


def test_symbol_reports_how_it_was_computed(tmp_path):
    out = tmp_path / "out"
    raw = cylinder_config(out, tasks=["symbol"])
    assert main(["run", write_config(tmp_path, raw)]) == 0
    metrics = strict_report(out)["tasks"][0]["metrics"]
    method = "scaled Newton sign iteration (Byers-Xu)"
    assert metrics["symbol_method"] == method
    # one inverse per iteration; Byers-Xu needs at most 9, plus one to see it
    assert 2 <= metrics["symbol_max_iterations"] <= 10
    assert 0.0 <= metrics["symbol_max_last_step"] < 1e-12
    header = (out / "symbol_limit.csv").read_text().splitlines()[0]
    assert header == "eta,delta"


def test_linalg_error_becomes_fail_entry(tmp_path, monkeypatch):
    def singular(cfg, out_dir, run):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(cli._TASK_FUNCS, "double", singular)
    out = tmp_path / "out"
    code = main(["run", write_config(tmp_path, segment_config(out))])
    assert code == 1
    report = strict_report(out)
    assert report["status"] == "fail"
    double, calderon = report["tasks"]
    assert double["status"] == "fail"
    assert double["metrics"] == {"error": "Singular matrix"}
    assert calderon["status"] == "pass"


def test_nan_metric_fails_task_and_report_stays_strict(tmp_path, monkeypatch):
    def not_a_number(cfg, out_dir, run):
        return "pass", {
            "sigma_min": float("nan"),
            "orders": [1.0, float("inf")],
            "nested": {"defect": np.float64("nan")},
        }

    monkeypatch.setitem(cli._TASK_FUNCS, "double", not_a_number)
    out = tmp_path / "out"
    code = main(["run", write_config(tmp_path, segment_config(out))])
    assert code == 1
    double = strict_report(out)["tasks"][0]
    assert double["status"] == "fail"
    assert double["metrics"] == {
        "sigma_min": None,
        "orders": [1.0, None],
        "nested": {"defect": None},
        "nan_metrics": ["sigma_min", "nested.defect"],
    }


def test_y_coupled_chebyshev_calderon_gates_oracle_defect(tmp_path):
    """V(y) on a Chebyshev grid: the calderon task reports the distance to
    the exact graph projection and gates it at tolerances.oracle."""
    raw = {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "cylinder",
            "r": 1,
            "v": {
                "kind": "cosine",
                "base": {"kind": "diag", "values": [0.9, -0.4]},
                "amplitude": 0.3,
            },
        },
        "grid": {"n_u": 16, "n_y": 12, "kind": "chebyshev"},
        "tasks": ["calderon"],
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", write_config(tmp_path, raw)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"][0]["metrics"]["oracle_defect"] < 1e-9
    raw["tolerances"] = {"oracle": 1e-30}
    raw["output_dir"] = str(tmp_path / "strict")
    assert main(["run", write_config(tmp_path, raw, "strict.json")]) == 1


def twisted_config(output_dir, tasks, grid):
    """M2 cylinder, V = diag(1, 0.5), holonomy diag(e^{2 pi i/4},
    e^{2 pi i 0.6})."""
    h = np.exp(2j * np.pi * np.array([0.25, 0.6]))
    return {
        "algebra": {"kind": "matrix", "n": 2},
        "model": {
            "base": "cylinder",
            "v": {"kind": "diag", "values": [1.0, 0.5]},
            "holonomy": {
                "kind": "matrix",
                "real": np.diag(h.real).tolist(),
                "imag": np.diag(h.imag).tolist(),
            },
        },
        "grid": grid,
        "tasks": list(tasks),
        "seed": 11,
        "output_dir": str(output_dir),
    }


def test_calderon_gates_a_linearity_under_holonomy(tmp_path):
    grid = {"n_u": 24, "n_y": 12, "kind": "chebyshev"}
    raw = twisted_config(tmp_path / "out", ["calderon"], grid)
    assert main(["run", write_config(tmp_path, raw)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"][0]["metrics"]["a_linearity_defect"] < 1e-10


def test_convergence_passes_under_holonomy(tmp_path):
    grid = {"n_u": 8, "n_y": 8, "kind": "uniform"}
    raw = twisted_config(tmp_path / "out", ["convergence"], grid)
    assert main(["run", write_config(tmp_path, raw)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    metrics = report["tasks"][0]["metrics"]
    assert metrics["green_order"] >= 3.5 and metrics["oracle_order"] >= 3.5


def test_holonomy_not_commuting_with_v_exits_2(tmp_path, capsys):
    grid = {"n_u": 16, "n_y": 12, "kind": "chebyshev"}
    raw = twisted_config(tmp_path / "out", ["double"], grid)
    raw["model"]["v"] = {
        "kind": "cosine",
        "base": {"kind": "matrix", "real": [[1.0, 0.3], [0.3, 0.5]]},
        "amplitude": 0.3,
    }
    assert main(["run", write_config(tmp_path, raw)]) == 2
    assert "holonomy must commute with v" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_hermitian_cosine_base_exits_2(tmp_path, capsys):
    # V(0) is sampled when the model is built, so the bad base is refused
    # before any task runs or any output is written
    out = tmp_path / "out"
    raw = cylinder_config(out, tasks=["symbol"])
    raw["model"]["v"] = {
        "kind": "cosine",
        "base": {"kind": "matrix", "real": [[1.0, 0.3], [0.0, 0.5]]},
        "amplitude": 0.3,
    }
    assert main(["run", write_config(tmp_path, raw)]) == 2
    assert "v must be self-adjoint" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_w_is_reported_as_w(tmp_path, capsys):
    raw = segment_config(tmp_path / "out")
    raw["model"]["w"] = {"kind": "diag", "values": [1.0]}
    assert main(["run", write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert "model.w.values must have length" in err and "model.v" not in err


def test_whole_turns_of_angle_fraction_are_no_twist(tmp_path):
    """angle_fraction is read modulo 1: 1e308, a whole number of turns,
    writes the files of angle_fraction 0."""
    outs = []
    for frac in (0.0, 1e308):
        out = tmp_path / ("out-%r" % frac)
        raw = cylinder_config(out)
        raw["model"]["v"] = {"kind": "diag", "values": [1.0, 0.5]}
        raw["model"]["holonomy"] = {"kind": "phase", "angle_fraction": frac}
        path = write_config(tmp_path, raw, "%r.json" % frac)
        assert main(["run", path]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "calderon_projector.npy" in names
    for name in names:
        if name != "report.json":  # the report holds the config
            first, second = (out / name for out in outs)
            assert first.read_bytes() == second.read_bytes(), name
    tasks = [strict_report(out)["tasks"] for out in outs]
    assert tasks[0] == tasks[1]


def test_holonomy_on_segment_exits_2(tmp_path, capsys):
    # the segment has no y-periodicity for a holonomy to twist
    out = tmp_path / "out"
    raw = segment_config(out)
    raw["model"]["holonomy"] = {"kind": "phase", "angle_fraction": 0.25}
    assert main(["run", write_config(tmp_path, raw)]) == 2
    assert "holonomy needs the cylinder base" in capsys.readouterr().err
    assert not out.exists()


def _bypassing_svd_calls(monkeypatch):
    """Record the calls to the ``svd`` of numpy's linalg module that do not
    go through the public ``np.linalg.svd`` (numpy's 2-norm makes such
    calls), leaving the public attribute as it is."""
    try:
        module = importlib.import_module("numpy.linalg._linalg")
    except ImportError:  # numpy < 2
        module = importlib.import_module("numpy.linalg.linalg")
    assert np.linalg.svd is module.svd
    calls = []
    svd = module.svd
    monkeypatch.setattr(
        module, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k)
    )
    return calls


def group_config(output_dir, tasks=("module-check", "symbol")):
    raw = cylinder_config(output_dir, tasks)
    raw["algebra"] = {"kind": "group", "name": "cyclic", "n": 4}
    return raw


@pytest.mark.parametrize("make", [cylinder_config, group_config])
def test_every_svd_goes_through_np_linalg_svd(tmp_path, monkeypatch, make):
    # every 2-norm is csalg.opnorm, which calls np.linalg.svd, so a counter
    # on the public svd sees every SVD that a scenario takes
    calls = _bypassing_svd_calls(monkeypatch)
    report = cli.run_scenario(parse_config(make(tmp_path / "out")))
    assert report["status"] == "pass"
    assert calls == []


# -- selfcheck and plumbing ---------------------------------------------


def test_selfcheck_passes(tmp_path, capsys):
    code = main(["selfcheck", "--output-dir", str(tmp_path / "sc")])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("overall: pass") == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "calderon" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
