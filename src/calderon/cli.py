"""Batch front door: scenario runs, convergence studies, self-check.

Subcommands::

    calderon run <config.json>
    calderon convergence <config.json> --levels K
    calderon selfcheck [--output-dir DIR]

The config is strict JSON: unknown keys anywhere are rejected before any
computation starts (exit code 2).  Runs are deterministic: all randomness
derives from the recorded seed and CSV tables are byte-identical across
repeated runs.  Exit codes: 0 all tasks pass, 1 task failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .csalg import AlgebraElement, CStarAlgebra, herm, opnorm, star
from .csalg import map_groups, norm as alg_norm, shape_groups
from .csalg import singular_values, worker_count
from .errors import CalderonError, StructureError
from . import hilbmod
from . import sobolev
from .dirac import (
    SPLIT_TOL,
    CollarFunction,
    CollarGrid,
    ProductDiracModel,
    build_double,
    ghost_solution_check,
    green_residual,
    y_points,
)
from .projector import (
    calderon_projector,
    calderon_vs_aps_index,
    kernel_count,
    principal_symbol,
    spectral_projection_positive,
    symbol_limit_check,
)

REPORT_SCHEMA_VERSION = 2

class ConfigError(Exception):
    """Raised for any config that does not match the schema."""


#: errors that fail one task (and a build of the double, every task that
#: needs it) while the scenario goes on and its report is still written
TASK_ERRORS = (CalderonError, np.linalg.LinAlgError, MemoryError)


# -- strict config parsing ---------------------------------------------


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % where)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(
            "unknown key(s) %s in %s" % (sorted(unknown), where)
        )
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(
            "missing key(s) %s in %s" % (sorted(missing), where)
        )


def _read_real(value, where):
    """A finite JSON number, as a float; bools, strings, arrays, objects,
    NaN and infinities are rejected."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ConfigError("%s must be a finite number" % where)
    return float(value)


def _read_int(value, where):
    """An integral JSON number (such as 2 or 2.0), as an int."""
    if not _read_real(value, where).is_integer():
        raise ConfigError("%s must be an integer" % where)
    return int(value)


def _read_array(value, where):
    """A JSON array of finite numbers (nested for a matrix), as floats; a
    ragged array leaves lists among the entries and is rejected."""
    if not isinstance(value, list):
        raise ConfigError("%s must be an array" % where)
    entries = np.array(value, dtype=object)
    return np.array(
        [_read_real(x, where) for x in entries.flat], dtype=float
    ).reshape(entries.shape)


def _parse_algebra(desc):
    _require_keys(desc, ("kind",), ("n", "name", "table"), "algebra")
    if "n" in desc:
        desc = dict(desc, n=_read_int(desc["n"], "algebra.n"))
    if "table" in desc:
        table = desc["table"]
        if not isinstance(table, list) or not all(
            isinstance(row, list) for row in table
        ):
            raise ConfigError("algebra.table must be an array of arrays")
        table = [[_read_int(x, "algebra.table") for x in row] for row in table]
        desc = dict(desc, table=table)
    try:
        return CStarAlgebra.from_descriptor(desc)
    except (StructureError, KeyError) as exc:
        raise ConfigError("bad algebra descriptor: %s" % exc)


#: the kinds of each tagged config object: kind -> (required keys, optional
#: keys) besides ``kind``; a constant operator is one of CONSTANT_KINDS
CONSTANT_KINDS = {
    "zero": ((), ()),
    "diag": (("values",), ()),
    "scaled-identity": (("scale",), ()),
    "random-hermitian": ((), ("scale",)),
    "matrix": (("real",), ("imag",)),
}
V_KINDS = dict(CONSTANT_KINDS, cosine=(("base", "amplitude"), ()))
HOLONOMY_KINDS = {
    "phase": (("angle_fraction",), ()),
    "matrix": (("real",), ("imag",)),
}


def _read_kind(desc, kinds, where):
    """The ``kind`` of the tagged object ``desc`` read at ``where``, once
    its keys are those ``kinds`` lists for it."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError("%s.kind must be one of %s" % (where, sorted(kinds)))
    required, optional = kinds[kind]
    _require_keys(desc, ("kind",) + required, optional, where)
    return kind


def _parse_operator(desc, kinds, where, rm, seed):
    """The (rm, rm) operator, or the callable V(y) of a ``cosine``, that the
    tagged object ``desc`` at ``where`` describes; ``seed`` seeds a
    ``random-hermitian`` draw."""
    kind = _read_kind(desc, kinds, where)
    if kind == "zero":
        return np.zeros((rm, rm), dtype=complex)
    if kind == "diag":
        vals = _read_array(desc["values"], where + ".values")
        if vals.shape != (rm,):
            raise ConfigError("%s.values must have length r * rep_dim" % where)
        return np.diag(vals).astype(complex)
    if kind == "scaled-identity":
        return _read_real(desc["scale"], where + ".scale") * np.eye(
            rm, dtype=complex
        )
    if kind == "random-hermitian":
        rng = np.random.default_rng(seed)
        scale = _read_real(desc.get("scale", 1.0), where + ".scale")
        mat = rng.standard_normal((rm, rm)) + 1j * rng.standard_normal((rm, rm))
        return scale * herm(mat)
    if kind == "phase":
        # a whole number of turns is no twist: drop them before the
        # exponential, exactly, so a fraction in (-1, 1) is read as it is
        turns = _read_real(desc["angle_fraction"], where + ".angle_fraction")
        return np.exp(2j * np.pi * math.fmod(turns, 1.0)) * np.eye(rm)
    if kind == "matrix":
        mat = _read_array(desc["real"], where + ".real").astype(complex)
        if "imag" in desc:
            imag = _read_array(desc["imag"], where + ".imag")
            if imag.shape != mat.shape:
                raise ConfigError(
                    "%s.imag must have the shape of .real" % where
                )
            mat = mat + 1j * imag
        if mat.shape != (rm, rm):
            raise ConfigError("%s matrix must be %d x %d" % (where, rm, rm))
        return mat
    # cosine: y-dependent potential base + amplitude * cos(y) * identity
    base = _parse_operator(
        desc["base"], CONSTANT_KINDS, where + ".base", rm, seed
    )
    amp = _read_real(desc["amplitude"], where + ".amplitude")

    def v_of_y(y):
        return base + amp * np.cos(y) * np.eye(rm)

    return v_of_y


def parse_config(raw):
    """Parse and validate a scenario config dict (strict)."""
    _require_keys(
        raw,
        ("algebra", "model", "grid", "tasks"),
        ("schema_version", "seed", "tolerances", "output_dir"),
        "config",
    )
    if _read_int(raw.get("schema_version", 1), "schema_version") != 1:
        raise ConfigError("unsupported schema_version")
    algebra = _parse_algebra(raw["algebra"])

    model_desc = raw["model"]
    _require_keys(
        model_desc, ("base",), ("r", "v", "w", "holonomy"), "model"
    )
    r = _read_int(model_desc.get("r", 1), "model.r")
    if r < 1:
        raise ConfigError("model.r must be >= 1")
    seed = _read_int(raw.get("seed", 12345), "seed")
    if seed < 0:  # np.random.default_rng takes no negative seed
        raise ConfigError("seed must be a non-negative integer")
    rm = r * algebra.rep_dim
    ops = {}
    for name, kinds, op_seed in (
        ("v", V_KINDS, seed),
        ("w", CONSTANT_KINDS, seed + 1),
        ("holonomy", HOLONOMY_KINDS, None),
    ):
        if model_desc.get(name) is not None:
            ops[name] = _parse_operator(
                model_desc[name], kinds, "model." + name, rm, op_seed
            )
    try:
        model = ProductDiracModel(model_desc["base"], algebra, r=r, **ops)
    except StructureError as exc:
        raise ConfigError("bad model: %s" % exc)

    grid_desc = raw["grid"]
    _require_keys(grid_desc, ("n_u",), ("n_y", "kind"), "grid")
    try:
        grid = CollarGrid(
            n_u=_read_int(grid_desc["n_u"], "grid.n_u"),
            n_y=_read_int(grid_desc.get("n_y", 1), "grid.n_y"),
            kind=grid_desc.get("kind", "chebyshev"),
        )
    except StructureError as exc:
        raise ConfigError("bad grid: %s" % exc)
    if model.base == "segment" and grid.n_y != 1:
        raise ConfigError("segment base requires n_y = 1")
    if model.base == "cylinder" and grid.n_y == 1:
        raise ConfigError("cylinder base requires n_y >= 8")

    tasks = raw["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a non-empty list")
    for t in tasks:
        if not isinstance(t, str) or t not in _TASK_FUNCS:
            raise ConfigError(
                "unknown task %r (choose from %s)" % (t, list(_TASK_FUNCS))
            )

    tolerances = raw.get("tolerances", {})
    defaults = {"idempotency": 1e-9, "oracle": 1e-9, "sigma_min": 1e-10}
    _require_keys(tolerances, (), tuple(defaults), "tolerances")
    tol = {
        key: _read_real(tolerances.get(key, value), "tolerances." + key)
        for key, value in defaults.items()
    }
    output_dir = raw.get("output_dir", "calderon-out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a non-empty string")
    return {
        "algebra": algebra,
        "model": model,
        "grid": grid,
        "tasks": list(tasks),
        "seed": seed,
        "tolerances": tol,
        "output_dir": output_dir,
        "raw": raw,
    }


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (
        OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError
    ) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config(raw)


# -- deterministic table output ----------------------------------------


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    if isinstance(x, (float, np.floating)):
        return "%.17e" % float(x)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


#: nonzero entries after which :func:`export_projector` formats a block of
#: rows; a block holds fewer than EXPORT_CHUNK + n_cols of them.  Each
#: block costs about 60 numpy calls, and the export's tracemalloc peak
#: grows with the block: on the dense-vy projector it is 0.35 MB at 512
#: and 1.8 MB at 4096, with no clear gain in time past 512
EXPORT_CHUNK = 512

#: built on first use by :func:`_fmt_tables`
_FMT_TABLES = None


def _fmt_tables():
    """The tables of :func:`_fmt_slots`: 10^(17 - E) for the decimal
    exponents E in [-99, 98] as double-doubles hi + lo, each part rounded
    correctly from Python ints, and NUL-padded 4-byte words: ``a.bc`` and
    ``abc`` for abc in 000 to 999, ``e-99`` to ``e+98``, ``,`` and ``,-``."""
    global _FMT_TABLES
    if _FMT_TABLES is None:
        hi, lo = [], []
        for e in range(-99, 99):
            num, den = 10 ** max(17 - e, 0), 10 ** max(e - 17, 0)
            h = num / den  # int / int rounds correctly
            m, d = h.as_integer_ratio()
            hi.append(h)
            lo.append((num * d - m * den) / (den * d))
        abc = ["%03d" % k for k in range(1000)]
        _FMT_TABLES = (np.array(hi), np.array(lo)) + tuple(
            _words(texts).ravel()
            for texts in (
                [t[0] + "." + t[1:] for t in abc],
                abc,
                ["e%+03d" % e for e in range(-99, 99)],
                [",", ",-"],
            )
        )
    return _FMT_TABLES


def _words(texts, width=1):
    """ASCII ``texts``, each NUL-padded to ``width`` 4-byte words: a
    (len(texts), width) uint32 array."""
    data = b"".join(t.encode().ljust(4 * width, b"\0") for t in texts)
    return np.frombuffer(data, np.uint32).reshape(len(texts), width)


def _split(a):
    """Dekker's split a = hi + lo, each half with at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _fmt_slots(x):
    """``"," + _fmt(v)`` of each v of a 1-D float64 array, NUL-padded to 32
    bytes: an (n, 8) array of 4-byte words, by numpy passes.

    With E = floor(log10 |v|), ``%.17e`` writes the digits of the integer D
    nearest |v| 10^(17 - E).  The product of |v| and the double-double
    10^(17 - E) is split exactly (Dekker), which gives D to within 2^-44
    below 10^18.  D is rounded from that estimate and written in groups of
    three digits read from a table.  :func:`_fmt` formats each entry the
    estimate cannot decide: a fraction of D within 2^-20 of 1/2 (every
    exact decimal tie among them), D outside [10^17, 10^18) (E off by one,
    or a carry to 10^18), |v| outside [1e-99, 1e99) (three exponent
    digits, subnormals and zeros) and NaN or +-inf.
    """
    pow_hi, pow_lo, lead, group, exps, signs = _fmt_tables()
    a = np.where(np.isnan(x), 0.0, np.abs(x))
    ok = (a >= 1e-99) & (a < 1e99)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    e = np.minimum(np.maximum(e, -99), 98) + 99
    hi = pow_hi.take(e)
    prod = a * hi
    (ah, al), (hh, hl) = _split(a), _split(hi)
    err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl
    tail = err + a * pow_lo.take(e)  # D = prod + tail to within 2^-44
    whole = np.floor(tail)
    frac = tail - whole
    ok &= (prod >= 1e17) & (prod < 1e18) & (np.abs(frac - 0.5) >= 2.0**-20)
    d = np.where(ok, prod, 1e17).astype(np.int64) + whole.astype(np.int64)
    ok &= d >= 10**17  # before rounding: below it, E is one too large
    d += frac > 0.5
    ok &= d < 10**18
    d[~ok] = 10**17
    words = np.empty((x.size, 8), np.uint32)
    words[:, 0] = np.where(np.signbit(x), signs[1], signs[0])
    for k in range(6, 1, -1):  # the last five groups, from the right
        q = d // 1000
        words[:, k] = group.take(d - q * 1000)
        d = q
    words[:, 1] = lead.take(d)
    words[:, 7] = exps.take(e)
    if not ok.all():
        words[~ok] = _words(["," + _fmt(v) for v in x[~ok].tolist()], 8)
    return words


def export_projector(out_dir, name, proj, diag):
    mat = proj.matrix()
    np.save(os.path.join(out_dir, name + ".npy"), mat)
    # one entry per line, formatted as write_csv formats ints and floats:
    # a row is its head joined with the tails of its entries.  Only the
    # entries with a nonzero bit (not +0.0 in both parts) are formatted, in
    # blocks of rows that end once they hold EXPORT_CHUNK of them, as the
    # words ",j", ",re", ",im" and "\n" with their NULs dropped
    n_rows, n_cols = mat.shape
    zero = _fmt(0.0)
    tails = [",%d,%s,%s\n" % (j, zero, zero) for j in range(n_cols)]
    nonzero = mat.ravel().view(np.uint64).reshape(n_rows, n_cols, 2).any(2)
    counts = nonzero.sum(axis=1).tolist()
    width = len(str(n_cols)) // 4 + 1
    heads = _words([",%d" % j for j in range(n_cols)], width)

    def formatted():  # (cols, cells) of the nonzero entries of each row
        start = size = 0
        for stop, count in enumerate(counts, 1):
            size += count
            if size < EXPORT_CHUNK and stop < n_rows:
                continue
            block = nonzero[start:stop]
            cols = np.nonzero(block)[1]
            words = np.empty((cols.size, width + 17), np.uint32)
            words[:, :width] = heads[cols]
            floats = mat[start:stop][block].view(np.float64)
            words[:, width:-1] = _fmt_slots(floats).reshape(-1, 16)
            words[:, -1] = _words(["\n"])[0]
            text = words.tobytes().translate(None, b"\0").decode()
            cols, cells, at = cols.tolist(), text.splitlines(True), 0
            for count in counts[start:stop]:
                yield cols[at:at + count], cells[at:at + count]
                at += count
            start, size = stop, 0

    with open(os.path.join(out_dir, name + ".csv"), "w") as fh:
        fh.write("row,col,real,imag\n")
        for i, (cols, cells) in enumerate(formatted()):
            row = tails.copy()
            for j, cell in zip(cols, cells):
                row[j] = cell
            head = "%d" % i
            fh.write(head + head.join(row))
    with open(os.path.join(out_dir, name + "_diagnostics.txt"), "w") as fh:
        for key in sorted(diag):
            fh.write("%s = %s\n" % (key, _fmt(diag[key])))


# -- tasks --------------------------------------------------------------


#: trials of the module-check identity suite drawn and checked per stacked
#: pass; a pass holds 19 * 25 algebra elements and their products
MODULE_CHECK_BLOCK = 25


def _task_module_check(cfg, out_dir, run):
    """Hilbert-module identity suite on the configured algebra, checked on
    stacks of MODULE_CHECK_BLOCK trials at a time."""
    alg = cfg["algebra"]
    rng = np.random.default_rng(cfg["seed"])
    trials = 200
    worst = 0.0
    for _ in range(trials // MODULE_CHECK_BLOCK):
        # each trial draws x, y, z (3 entries each), a and then T row by
        # row: 19 elements, in the order of one-at-a-time draws
        drawn = alg.random_element(rng, size=(MODULE_CHECK_BLOCK, 19)).mat
        e = [AlgebraElement(alg, drawn[:, i]) for i in range(19)]
        x, y, z = (
            hilbmod.ModuleVector.from_entries(e[i : i + 3]) for i in (0, 3, 6)
        )
        a = e[9]
        t_op = hilbmod.ModuleOperator.from_entries(
            [e[10:13], e[13:16], e[16:19]]
        )
        ip = hilbmod.inner_product
        # sesquilinearity and right-linearity
        d1 = (ip(x, y.times(a)) - ip(x, y) * a).mat
        d2 = (ip(x, y) - star(ip(y, x))).mat
        # theta identities
        th_xy = hilbmod.rank_one(x, y)
        th_yx = hilbmod.rank_one(y, x)
        d3 = (hilbmod.adjoint(th_xy) - th_yx).rep
        d4 = (
            th_xy.compose(th_yx).apply(z).stack
            - x.times(ip(y, y) * ip(x, z)).stack
        )
        # adjoint identity for a random operator
        d5 = (ip(t_op.apply(x), y) - ip(x, hilbmod.adjoint(t_op).apply(y))).mat
        for d in (d1, d2, d3, d4, d5):
            worst = max(worst, float(opnorm(d).max()))
    status = "pass" if worst < 1e-10 else "fail"
    return status, {"max_deviation": worst, "trials": trials}


def _task_sobolev_check(cfg, out_dir, run):
    """Multiplier identities and the trace-ratio behaviour."""
    n_u = max(cfg["grid"].n_u, 16)
    n_y = cfg["grid"].n_y if cfg["grid"].n_y > 1 else 8
    spec = sobolev.GridSpec(n_u=n_u, n_y=n_y)
    rng = np.random.default_rng(cfg["seed"])
    f = sobolev.GridFunction.random_band_limited(spec, rng)
    g = sobolev.GridFunction.random_band_limited(spec, rng)
    adj = abs(
        sobolev.torus_inner(sobolev.lambda_pm(f, +1), g)
        - sobolev.torus_inner(f, sobolev.lambda_pm(g, -1))
    )
    lap = sobolev.FourierMultiplier(lambda xi, eta: 1.0 + xi**2 + eta**2)
    prod_dev = (
        sobolev.lambda_pm(sobolev.lambda_pm(f, -1), +1) - lap.apply(f)
    ).l2_norm()
    half = sobolev.restrict(f)
    round_dev = (
        sobolev.restrict(sobolev.extend_reflect(half)).values - half.values
    )
    round_dev = float(np.abs(round_dev).max())
    ratios = [sobolev.trace(f, 0.0, s) for s in (2.0, 1.0, 0.75, 0.6)]
    ok = (
        adj < 1e-12 * max(1.0, f.l2_norm() * g.l2_norm())
        and prod_dev < 1e-10
        and round_dev == 0.0
    )
    return ("pass" if ok else "fail"), {
        "lambda_adjoint_dev": float(adj),
        "lambda_product_dev": float(prod_dev),
        "restrict_extend_dev": round_dev,
        "trace_ratios": [float(r) for r in ratios],
    }


def _task_double(cfg, out_dir, run):
    sysd = run.double()
    ghost = ghost_solution_check(sysd)
    metrics = {
        "sigma_min": sysd.sigma_min,
        "bound_constant": sysd.bound_constant,
        "ghost_sigma_min": ghost["sigma_min"],
    }
    metrics.update(sysd.certificate())
    ok = sysd.sigma_min > cfg["tolerances"]["sigma_min"] and ghost[
        "trivial_kernel"
    ]
    # a y-coupled double's channels are only as exact as their split
    ok = ok and metrics.get("commutant_offblock_residual", 0.0) <= SPLIT_TOL
    dims = sysd.kernel_dims()
    metrics["max_kernel_dim"] = int(max(dims))
    ok = ok and max(dims) == 0
    return ("pass" if ok else "fail"), metrics


def _oracle_defect(proj, sysd):
    """Largest 2-norm distance of a channel block from its exact graph
    projection, which the double ``sysd`` stores for the same channel: one
    ``opnorm`` per group of equal-sized channels."""
    diffs = [
        block - cs.exact_block
        for (_, block), cs in zip(proj.channel_blocks, sysd.channels)
    ]
    return max(float(opnorm(d).max()) for _, d in shape_groups(diffs))


def _task_calderon(cfg, out_dir, run):
    sysd = run.double()
    proj = calderon_projector(sysd)
    diag = proj.diagnostics()
    rng = np.random.default_rng(cfg["seed"])
    metrics = dict(diag)
    ok = diag["idempotency_defect"] < cfg["tolerances"]["idempotency"]
    # the y-coupled FD4 projector is O(h^4) off the exact one: ungated there
    if sysd.per_mode or sysd.grid.kind == "chebyshev":
        metrics["oracle_defect"] = _oracle_defect(proj, sysd)
        ok = ok and metrics["oracle_defect"] < cfg["tolerances"]["oracle"]
    metrics["a_linearity_defect"] = proj.a_linearity_defect(rng, trials=5)
    ok = ok and metrics["a_linearity_defect"] < 1e-10
    export_projector(out_dir, "calderon_projector", proj, diag)
    return ("pass" if ok else "fail"), metrics


def _task_symbol(cfg, out_dir, run):
    """Principal symbol against the eigendecomposition projection on 100
    random fibers with a spectral gap, drawn one at a time (the gap test
    consumes the stream) and run as one stacked sign iteration."""
    rng = np.random.default_rng(cfg["seed"])
    n_f = cfg["model"].n_fiber
    samples = []
    while len(samples) < 100:
        b = rng.standard_normal((n_f, n_f)) + 1j * rng.standard_normal(
            (n_f, n_f)
        )
        b = herm(b)
        eigs = np.linalg.eigvalsh(b)
        if np.abs(eigs).min() <= 0.1:
            continue
        samples.append(b)
    fibers = np.stack(samples)
    symbols, iterations, last_steps = principal_symbol(fibers)
    devs = opnorm(symbols - spectral_projection_positive(fibers))
    metrics = {
        "contour_vs_eig": float(devs.max()),
        "samples": len(samples),
        "symbol_method": "scaled Newton sign iteration (Byers-Xu)",
        "symbol_max_iterations": int(iterations.max()),
        "symbol_max_last_step": float(last_steps.max()),
    }
    ok = metrics["contour_vs_eig"] < 1e-10
    if not cfg["model"].y_dependent and cfg["model"].base == "cylinder":
        table = symbol_limit_check(cfg["model"])
        metrics["symbol_limit"] = {
            k: table[k] for k in ("monotone", "k_bound", "k_fit")
        }
        write_csv(
            os.path.join(out_dir, "symbol_limit.csv"),
            ("eta", "delta"),
            list(zip(table["etas"], table["deltas"])),
        )
        ok = ok and table["monotone"] and table["satisfies_bound"]
    return ("pass" if ok else "fail"), metrics


def _task_index(cfg, out_dir, run):
    """The index, gated by the kernel count of the singular values of each
    channel's b: one SVD per group of equal-sized channels, no eigh."""
    sysd = run.double()
    result = calderon_vs_aps_index(sysd)
    b_mats = [cs.channel.b_mat for cs in sysd.channels]
    count, margin = kernel_count(map_groups(singular_values, b_mats))
    result.update(singular_value_count=count, singular_value_margin=margin)
    return ("pass" if count == result["index"] else "fail"), result


def _manufactured_pair(model, grid, rng):
    """Two smooth side-1 sections for residual studies."""
    u = grid.u_nodes()
    y = y_points(grid.n_y)
    out = []
    n_f, m = model.n_fiber, model.m
    band = range(-2, 3) if grid.n_y > 1 else [0]
    for _ in range(2):
        vals = np.zeros((grid.n_nodes, grid.n_y, n_f, m), dtype=complex)
        for k in band:
            coef = rng.standard_normal((n_f, m)) + 1j * rng.standard_normal(
                (n_f, m)
            )
            prof = np.cos(np.pi * u) + 0.5 * u**2 + 0.25 * k * u**3 * (1 - u)
            vals += (
                prof[:, None, None, None]
                * np.exp(1j * k * y)[None, :, None, None]
                * coef[None, None]
            )
        out.append(CollarFunction(grid, vals))
    return out


def _task_convergence(cfg, out_dir, run):
    """Uniform-grid refinement study with fitted convergence orders."""
    levels = run.levels
    grid0 = cfg["grid"]
    if grid0.kind != "uniform":
        raise StructureError("convergence study requires the uniform grid")
    if levels < 3:
        raise StructureError("need at least 3 refinement levels")
    model = cfg["model"]
    rows = []
    greens, idems, oracles = [], [], []
    for lev in range(levels):
        n_u = grid0.n_u * (2**lev)
        grid = CollarGrid(n_u=n_u, n_y=grid0.n_y, kind="uniform")
        rng = np.random.default_rng(cfg["seed"])  # same draw per level
        s1, s2 = _manufactured_pair(model, grid, rng)
        green = alg_norm(green_residual(model, s1, s2))
        sysd = build_double(model, grid)
        proj = calderon_projector(sysd)
        idem = proj.diagnostics()["idempotency_defect"]
        row = [n_u, green, idem]
        if sysd.per_mode:
            oracles.append(_oracle_defect(proj, sysd))
            row.append(oracles[-1])
        greens.append(green)
        idems.append(idem)
        rows.append(row)

    header = ["n_u", "green_residual", "idempotency_defect"]
    if oracles:
        header.append("oracle_defect")
    write_csv(os.path.join(out_dir, "convergence.csv"), header, rows)

    #: defects already at rounding level carry no order information
    floor = 1e-12

    def fit_order(errs):
        errs = np.asarray(errs, dtype=float)
        if np.max(errs) < floor:
            return None, True
        if np.any(errs <= 0):
            return float("inf"), True
        monotone = bool(np.all(np.diff(errs) < 0))
        levels_ax = np.arange(errs.size)
        slope = np.polyfit(levels_ax, np.log2(errs), 1)[0]
        return float(-slope), monotone

    metrics = {"levels": levels, "n_u_base": grid0.n_u}
    ok = True
    for name, errs in (
        ("green", greens),
        ("idempotency", idems),
        ("oracle", oracles),
    ):
        if not errs:
            continue
        order, monotone = fit_order(errs)
        if order is None:
            # at the floor on every level: nothing left to converge
            metrics["%s_order" % name] = "floor"
            continue
        metrics["%s_order" % name] = order
        metrics["%s_monotone" % name] = monotone
        if not monotone:
            ok = False
        elif np.isfinite(order) and order < 3.5:
            ok = False
    return ("pass" if ok else "fail"), metrics


_TASK_FUNCS = {
    "module-check": _task_module_check,
    "sobolev-check": _task_sobolev_check,
    "double": _task_double,
    "calderon": _task_calderon,
    "symbol": _task_symbol,
    "index": _task_index,
    "convergence": _task_convergence,
}


# -- scenario driver ----------------------------------------------------


class _ScenarioRun:
    """State the tasks of one :func:`run_scenario` call share.

    ``double()`` builds the double of the configured model and grid on
    first use and hands the same system to every later task; a build that
    raised re-raises the same error to every task that asks for it.  The
    ``calderon`` oracle gate reads the exact Calderon blocks the double
    carries, and the ``index`` task its eigenvalues of each channel's b.
    """

    def __init__(self, cfg, levels):
        self.cfg = cfg
        self.levels = levels
        self._double = None
        self._error = None

    def double(self):
        if self._error is not None:
            raise self._error
        if self._double is None:
            try:
                self._double = build_double(
                    self.cfg["model"], self.cfg["grid"]
                )
            except TASK_ERRORS as exc:
                self._error = exc
                raise
        return self._double


def _nan_keys(obj, prefix=""):
    """Dotted keys of the NaN values inside nested metrics."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        is_nan = isinstance(obj, (float, np.floating)) and np.isnan(obj)
        return [prefix] if is_nan else []
    return [
        key
        for k, v in items
        for key in _nan_keys(v, "%s.%s" % (prefix, k) if prefix else str(k))
    ]


def _strict_json(obj):
    """Copy of ``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def _environment():
    """What a run's last digits and timings may depend on: the threads
    ``csalg.map_members`` splits a stack over, the numpy and Python
    versions and the ``*_NUM_THREADS`` variables BLAS and OpenMP read
    (the outputs are bit-identical for any worker count; the BLAS thread
    count may move the last digits of a defect)."""
    return {
        "map_members_workers": worker_count(),
        "numpy_version": np.__version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        "thread_variables": {
            k: os.environ[k] for k in sorted(os.environ)
            if k.endswith("_NUM_THREADS")
        },
    }


def run_scenario(cfg, levels=3):
    """Execute the configured tasks in order and assemble the report.

    A task that raises one of TASK_ERRORS (a :class:`CalderonError`, a
    ``numpy.linalg.LinAlgError`` or a ``MemoryError``), or reports a NaN
    metric, fails; the report is written in any case, as strict JSON with
    non-finite values as ``null``.  An ``output_dir`` that cannot be
    created is a ``ConfigError``.
    """
    out_dir = cfg["output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output_dir %s: %s" % (out_dir, exc))
    t0 = time.monotonic()
    run = _ScenarioRun(cfg, levels)
    task_reports = []
    overall_ok = True
    for name in cfg["tasks"]:
        func = _TASK_FUNCS[name]
        try:
            status, metrics = func(cfg, out_dir, run)
        except TASK_ERRORS as exc:
            status, metrics = "fail", {"error": str(exc) or type(exc).__name__}
        nan_keys = _nan_keys(metrics)
        if nan_keys:
            status = "fail"
            metrics = dict(metrics, nan_metrics=nan_keys)
        task_reports.append(
            {"name": name, "status": status, "metrics": metrics}
        )
        if status != "pass":
            overall_ok = False
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "seed": cfg["seed"],
        "config": cfg["raw"],
        "tasks": task_reports,
        "status": "pass" if overall_ok else "fail",
        "wall_time_s": time.monotonic() - t0,
        "environment": _environment(),
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(
            _strict_json(report),
            fh,
            indent=2,
            sort_keys=True,
            default=float,
            allow_nan=False,
        )
        fh.write("\n")
    return report


# -- built-in fixtures for selfcheck -----------------------------------


def builtin_fixtures(output_dir):
    """Deterministic config dicts exercising every task."""
    return [
        {
            "algebra": {"kind": "matrix", "n": 2},
            "model": {"base": "segment", "r": 1, "v": {"kind": "diag", "values": [1.0, -0.5]}},
            "grid": {"n_u": 16, "n_y": 1, "kind": "chebyshev"},
            "tasks": ["module-check", "double", "calderon"],
            "seed": 20240817,
            "output_dir": os.path.join(output_dir, "segment"),
        },
        {
            "algebra": {"kind": "group", "name": "cyclic", "n": 4},
            "model": {
                "base": "cylinder",
                "r": 1,
                "v": {"kind": "random-hermitian", "scale": 0.8},
            },
            "grid": {"n_u": 20, "n_y": 12, "kind": "chebyshev"},
            "tasks": ["sobolev-check", "double", "calderon", "symbol", "index"],
            "seed": 20240818,
            "output_dir": os.path.join(output_dir, "cylinder-group"),
        },
        {
            "algebra": {"kind": "matrix", "n": 2},
            "model": {"base": "cylinder", "r": 1, "v": {"kind": "diag", "values": [1.0, 0.5]}},
            "grid": {"n_u": 8, "n_y": 8, "kind": "uniform"},
            "tasks": ["convergence"],
            "seed": 20240819,
            "output_dir": os.path.join(output_dir, "cylinder-dense"),
        },
        {
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
            "grid": {"n_u": 24, "n_y": 12, "kind": "chebyshev"},
            "tasks": ["double", "calderon", "index"],
            "seed": 20240820,
            "output_dir": os.path.join(output_dir, "cylinder-vy"),
        },
        {
            "algebra": {"kind": "matrix", "n": 2},
            "model": {
                "base": "cylinder",
                "r": 1,
                "v": {"kind": "diag", "values": [1.0, 0.5]},
                "holonomy": {"kind": "phase", "angle_fraction": 0.25},
            },
            "grid": {"n_u": 24, "n_y": 12, "kind": "chebyshev"},
            "tasks": ["double", "calderon", "index"],
            "seed": 20240821,
            "output_dir": os.path.join(output_dir, "cylinder-holonomy"),
        },
    ]


def selfcheck(output_dir):
    reports = []
    for raw in builtin_fixtures(output_dir):
        cfg = parse_config(raw)
        reports.append(run_scenario(cfg))
    return reports


# -- entry point --------------------------------------------------------


def _print_report(report):
    for task in report["tasks"]:
        sys.stdout.write(
            "task %-14s %s\n" % (task["name"], task["status"])
        )
    sys.stdout.write("overall: %s\n" % report["status"])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="calderon",
        description="Calderon projector toolkit: batch runs and checks.",
    )
    parser.add_argument(
        "--version", action="version", version="calderon " + __version__
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")

    p_conv = sub.add_parser(
        "convergence", help="convergence study on the uniform (FD4) grid"
    )
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", type=int, default=3)

    p_self = sub.add_parser("selfcheck", help="run the built-in fixtures")
    p_self.add_argument("--output-dir", default="calderon-selfcheck")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    try:
        if args.command == "run":
            cfg = load_config(args.config)
            report = run_scenario(cfg)
            _print_report(report)
            return 0 if report["status"] == "pass" else 1
        if args.command == "convergence":
            cfg = load_config(args.config)
            if args.levels < 3:
                print("error: --levels must be >= 3", file=sys.stderr)
                return 2
            cfg = dict(cfg)
            cfg["tasks"] = ["convergence"]
            report = run_scenario(cfg, levels=args.levels)
            _print_report(report)
            return 0 if report["status"] == "pass" else 1
        if args.command == "selfcheck":
            reports = selfcheck(args.output_dir)
            ok = True
            for report in reports:
                _print_report(report)
                ok = ok and report["status"] == "pass"
            return 0 if ok else 1
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
