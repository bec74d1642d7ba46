"""Layer spans and kernel counters, recorded from outside the package.

:class:`Tracer` replaces public functions of the ``calderon`` modules by
wrappers while it is installed, and restores them afterwards.  A wrapped
call opens a span named ``<module>.<function>``; spans are kept in memory
as ``(run_id, span_id, parent_id, name, start, end)`` tuples and written
out by the caller.  A layer's self time is its span's duration minus the
time covered by its child spans.

The linear-algebra kernels (``np.linalg.svd``/``inv``/``solve`` and
``scipy.linalg.lu_factor``/``lu_solve``/``expm``) are wrapped as counters,
not spans: each call is attributed to the innermost open layer span, with
flops and bytes *computed* from the array shapes (textbook operation
counts; complex arithmetic counts 4 times the real flops).  Counting adds
about 5 us per kernel call (2-vCPU Intel Xeon VM) to the traced self time
of the calling layer.
Counts repeat exactly from run to run; timings do not.

With ``record_spans=False`` the tracer only counts and never reads the
clock, so count metrics can be compared between traced and count-only
runs.
"""

import collections
import contextlib
import functools
import math
import os
import time

import numpy as np
import scipy.linalg

from calderon import cli, csalg, dirac, hilbmod, projector, sobolev

MODULES = {
    "cli": cli,
    "csalg": csalg,
    "dirac": dirac,
    "hilbmod": hilbmod,
    "projector": projector,
    "sobolev": sobolev,
}

#: (module, attribute path) of every public function wrapped as a span
LAYER_TARGETS = (
    ("cli", "parse_config"),
    ("cli", "run_scenario"),
    ("cli", "export_projector"),
    ("dirac", "build_double"),
    ("dirac", "ghost_solution_check"),
    ("projector", "calderon_projector"),
    ("projector", "BoundaryProjector.diagnostics"),
    ("projector", "BoundaryProjector.a_linearity_defect"),
    ("projector", "calderon_vs_aps_index"),
    ("projector", "exact_projector_block"),
    ("projector", "principal_symbol"),
    ("projector", "symbol_limit_check"),
    ("hilbmod", "membership_defect"),
    ("hilbmod", "orthogonalize_idempotent"),
    ("hilbmod", "relative_index"),
    ("hilbmod", "inner_product"),
    ("csalg", "CStarAlgebra.membership_defect"),
    ("sobolev", "trace"),
    ("sobolev", "lambda_pm"),
)

#: span names, in LAYER_TARGETS order
LAYER_NAMES = tuple(
    "%s.%s" % (mod, path.rsplit(".", 1)[-1]) for mod, path in LAYER_TARGETS
)


def _complex_factor(*arrays):
    return 4 if any(a.dtype.kind == "c" for a in arrays) else 1


def _nbytes(*objs):
    """Total bytes of the arrays among ``objs``, inside tuples too."""
    total = 0
    for obj in objs:
        if isinstance(obj, tuple):
            total += _nbytes(*obj)
        elif isinstance(obj, np.ndarray):
            total += obj.nbytes
    return total


# Each cost function returns (matrices, flops, input arrays) of one call.
# Operation counts follow Golub & Van Loan, Matrix Computations (4th ed.):
# LU 2n^3/3, inverse 2n^3, 2n^2 per right-hand side, SVD from Fig. 8.6.1.


def _svd_cost(args, kwargs):
    a = np.asarray(args[0])
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    m, n = a.shape[-2:]
    k, l = min(m, n), max(m, n)
    if compute_uv:
        flops = 4 * l * l * k + 8 * l * k * k + 9 * k**3
    else:
        flops = 4 * l * k * k - 4 * k**3 // 3
    batch = math.prod(a.shape[:-2])
    return batch, batch * flops * _complex_factor(a), (a,)


def _inv_cost(args, kwargs):
    a = np.asarray(args[0])
    n = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    return batch, batch * 2 * n**3 * _complex_factor(a), (a,)


def _solve_cost(args, kwargs):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    n = a.shape[-1]
    nrhs = b.shape[-1] if b.ndim == a.ndim else 1
    batch = math.prod(a.shape[:-2])
    flops = batch * (2 * n**3 // 3 + 2 * n * n * nrhs)
    return batch, flops * _complex_factor(a, b), (a, b)


def _lu_factor_cost(args, kwargs):
    a = np.asarray(args[0])
    m, n = a.shape
    k = min(m, n)
    flops = 2 * m * n * k - (m + n) * k * k + 2 * k**3 // 3
    return 1, flops * _complex_factor(a), (a,)


def _lu_solve_cost(args, kwargs):
    (lu, piv), b = args[0], np.asarray(args[1])
    n = lu.shape[0]
    nrhs = b.size // n
    return 1, 2 * n * n * nrhs * _complex_factor(lu, b), (lu, piv, b)


def _expm_cost(args, kwargs):
    # the scaling-and-squaring step count depends on the norm; no flop model
    a = np.asarray(args[0])
    return math.prod(a.shape[:-2]), 0, (a,)


#: short kernel name -> (namespace, attribute, cost function)
KERNEL_TARGETS = {
    "svd": (np.linalg, "svd", _svd_cost),
    "inv": (np.linalg, "inv", _inv_cost),
    "solve": (np.linalg, "solve", _solve_cost),
    "lu": (scipy.linalg, "lu_factor", _lu_factor_cost),
    "lu_solve": (scipy.linalg, "lu_solve", _lu_solve_cost),
    "expm": (scipy.linalg, "expm", _expm_cost),
}


def _system_bytes(sys):
    """Bytes held by the matrices and LU factors of a DoubleSystem."""
    if sys.per_mode:
        return sum(_nbytes(cs.matrix, cs.lu) for cs in sys.channels)
    return _nbytes(sys.dense_matrix, sys.dense_lu)


def _after_build_double(tracer, args, kwargs, sys):
    model, grid = args[:2]
    key = (id(model), id(grid))
    if key in tracer.build_keys:
        tracer.counts["dirac.build_double.repeats"] += 1
    tracer.build_keys.add(key)
    if sys.per_mode:
        dof = sum(cs.matrix.shape[0] for cs in sys.channels)
    else:
        dof = sys.dense_matrix.shape[0]
    tracer.counts["dirac.build_double.dof"] += dof
    key = "dirac.build_double.matrix_bytes"
    tracer.counts[key] = max(tracer.counts[key], _system_bytes(sys))


def _after_export_projector(tracer, args, kwargs, result):
    out_dir, name = args[0], args[1]
    size = sum(
        os.path.getsize(os.path.join(out_dir, name + ext))
        for ext in (".npy", ".csv", "_diagnostics.txt")
    )
    tracer.counts["cli.export_projector.bytes"] += size


AFTER_HOOKS = {
    "dirac.build_double": _after_build_double,
    "cli.export_projector": _after_export_projector,
}


class Tracer:
    """Span recorder and call counter for wrapped calderon functions."""

    def __init__(self, record_spans=True):
        self.record_spans = record_spans
        self.spans = []
        self.stack = []  # open (span_id, name)
        self.run_id = None
        self.counts = collections.Counter()
        self.kernels = {}  # (layer, kernel) -> [calls, matrices, flops, bytes]
        self.largest_matrix_bytes = 0
        self.build_keys = set()
        self._next_id = 0

    def begin_run(self, run_id):
        """Start a scenario repeat: counters restart, spans accumulate."""
        self.run_id = run_id
        self.counts = collections.Counter()
        self.kernels = {}
        self.largest_matrix_bytes = 0
        self.build_keys = set()

    def _open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((span_id, name))
        start = time.perf_counter() if self.record_spans else None
        return span_id, parent, start

    def _close(self, name, span_id, parent, start):
        self.stack.pop()
        if self.record_spans:
            end = time.perf_counter()
            self.spans.append((self.run_id, span_id, parent, name, start, end))

    def _layer_wrapper(self, name, func):
        module = name.split(".", 1)[0]
        after = AFTER_HOOKS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            except Exception:
                self.counts[module + ".errors"] += 1
                raise
            finally:
                self._close(name, *span)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _kernel_wrapper(self, kernel, func, cost):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            matrices, flops, inputs = cost(args, kwargs)
            layer = self.stack[-1][1] if self.stack else "outside"
            totals = self.kernels.get((layer, kernel))
            if totals is None:
                totals = self.kernels[layer, kernel] = [0, 0, 0, 0]
            totals[0] += 1
            totals[1] += matrices
            totals[2] += flops
            totals[3] += _nbytes(inputs, result)
            self.largest_matrix_bytes = max(
                self.largest_matrix_bytes, *(a.nbytes for a in inputs)
            )
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; always restore."""
        patches = []  # (namespace, attribute, original)
        try:
            for (mod, path), name in zip(LAYER_TARGETS, LAYER_NAMES):
                owner = MODULES[mod]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._layer_wrapper(name, original)
                # modules that imported the function by name hold their own
                # reference, so every such reference is replaced
                holders = [owner] + [
                    m
                    for m in MODULES.values()
                    if m is not owner and m.__dict__.get(attr) is original
                ]
                for holder in holders:
                    patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            for kernel, (namespace, attr, cost) in KERNEL_TARGETS.items():
                original = getattr(namespace, attr)
                patches.append((namespace, attr, original))
                setattr(namespace, attr, self._kernel_wrapper(kernel, original, cost))
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)


def count_metrics(tracer):
    """Count metrics of the current run, flat.

    Layer counters as recorded, ``dirac.build_double.repeat_ratio``, kernel
    counts per layer as ``<layer>.<kernel>_<kind>`` and their totals over
    all layers as ``kernels.<kernel>_<kind>``, ``kernels.flops`` and
    ``kernels.bytes``.
    """
    out = dict(tracer.counts)
    calls = out.get("dirac.build_double.calls", 0)
    repeats = out.get("dirac.build_double.repeats", 0)
    out["dirac.build_double.repeat_ratio"] = repeats / calls if calls else 0.0
    out["kernels.largest_matrix_bytes"] = tracer.largest_matrix_bytes
    for (layer, kernel), totals in sorted(tracer.kernels.items()):
        for kind, value in zip(("calls", "matrices", "flops", "bytes"), totals):
            out["%s.%s_%s" % (layer, kernel, kind)] = value
            total = "kernels.%s_%s" % (kernel, kind)
            out[total] = out.get(total, 0) + value
            if kind in ("flops", "bytes"):
                out["kernels." + kind] = out.get("kernels." + kind, 0) + value
    return out


def self_times(spans):
    """Self time per (run_id, span name), from closed span tuples."""
    child_time = collections.Counter()
    for run_id, span_id, parent, name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = collections.Counter()
    for run_id, span_id, parent, name, start, end in spans:
        out[run_id, name] += (end - start) - child_time[span_id]
    return out
