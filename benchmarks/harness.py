"""Timed, checked scenario repeats for one workload and seed.

Imported by ``run.py`` after the thread variables are pinned and ``src``
is on the path.  Every repeat generates the config, calls
``cli.parse_config`` and times ``cli.run_scenario``; the outputs of every
repeat are checked, and each task or check that does not pass counts as
failed.
"""

import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

from calderon import cli

from tracing import LAYER_NAMES, Tracer, count_metrics, self_times
from workloads import config_seeds, make_config

HERE = os.path.dirname(os.path.abspath(__file__))

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5

#: certificate values copied from the task reports into the output
CERTIFICATES = ("sigma_min", "idempotency_defect", "oracle_defect", "contour_vs_eig", "index")

# -- environment -------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache_bytes():
    """Size of the highest cache level of cpu0, from sysfs (0 if unknown)."""
    best_level, size = 0, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        value = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, size = level, value
    return size


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache_bytes": _last_level_cache_bytes(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


# -- set-up and scenario repeats ---------------------------------------


def measure_setup(workload, seed, src):
    """Median over fresh interpreters of import + config + parse_config."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, probe, src, workload, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


def _csv_digests(out_dir):
    digests = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def mode_kernel_count(model, n_y):
    """Index oracle: zero eigenvalues of the tangential block, mode by mode."""
    total = 0
    for ch in model.mode_channels(n_y):
        eigs = np.linalg.eigvalsh(ch.b_mat)
        total += int(np.sum(np.abs(eigs) < 1e-9))
    return total


class Run:
    """Scenario repeats of one workload, with the checks of their outputs."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.repeats = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.csv_reference = {}  # config seed -> CSV digests of its first repeat
        self.certificates = {}  # config seed -> certificate values

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append("repeat %d: %s" % (self.repeats, name))

    def once(self, config_seed):
        """One repeat: config, parse_config, timed run_scenario, checks.

        Returns the wall time of run_scenario, or None if it raised.
        """
        out_dir = os.path.join(self.work_dir, "seed%d" % config_seed)
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = cli.parse_config(make_config(self.workload, config_seed, out_dir))
        self.repeats += 1
        t0 = time.perf_counter()
        try:
            report = cli.run_scenario(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.check("run_scenario raised", False)
            return None
        elapsed = time.perf_counter() - t0
        self._check_outputs(config_seed, cfg, report, out_dir)
        return elapsed

    def _check_outputs(self, config_seed, cfg, report, out_dir):
        for task in report["tasks"]:
            self.check("task %s: %s" % (task["name"], task["status"]), task["status"] == "pass")
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)
            strict = True
        except ValueError:
            strict = False
        self.check("report.json is strict JSON", strict)
        metrics = {t["name"]: t["metrics"] for t in report["tasks"]}
        if "index" in metrics:
            oracle = mode_kernel_count(cfg["model"], cfg["grid"].n_y)
            self.check("index equals the mode kernel count", metrics["index"].get("index") == oracle)
        digests = _csv_digests(out_dir)
        reference = self.csv_reference.setdefault(config_seed, digests)
        if reference is not digests:
            self.check("CSV tables byte-identical across repeats", bool(digests) and digests == reference)
        self.certificates.setdefault(
            config_seed,
            {
                "%s.%s" % (task, key): value
                for task, values in metrics.items()
                for key, value in values.items()
                if key in CERTIFICATES
            },
        )


def _continue(t_start, t_last, seconds):
    """Whether one more cycle, as long as the last, ends nearer ``seconds``."""
    now = time.perf_counter()
    return now - t_start + (now - t_last) / 2 < seconds


def measure(workload, seed, seconds, trace, src, work_dir):
    """Run the workload for ``seconds``.

    Returns the outcome (``correct``, ``attempted``, ``failed``), the metric
    values by name, a detail record and the recorded spans.

    Untraced, cycles over the run's data sets repeat while another cycle
    ends nearer ``seconds``, at least twice so each data set's CSV tables
    can be compared; ``scenario_s`` is the mean over data sets of the median
    repeat time.  Traced, on the first data set only: a count-only repeat,
    then pairs of an untraced and a traced repeat, so the tracing overhead
    is measured under the same conditions.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    seeds = config_seeds(workload, seed)
    detail = {"workload": workload, "seed": seed, "config_seeds": seeds, "trace": trace}
    detail["environment"] = environment()
    run = Run(workload, work_dir)
    samples = {s: [] for s in (seeds[:1] if trace else seeds)}
    tracer = Tracer(record_spans=True)
    if trace:
        traced, count_sets = [], []
        t_pair = t_start = time.perf_counter()
        counter = Tracer(record_spans=False)
        counter.begin_run(0)
        with counter.installed():
            run.once(seeds[0])
        count_sets.append(count_metrics(counter))
        while not traced or _continue(t_start, t_pair, seconds):
            t_pair = time.perf_counter()
            samples[seeds[0]].append(run.once(seeds[0]))
            tracer.begin_run(len(traced))
            with tracer.installed():
                traced.append(run.once(seeds[0]))
            count_sets.append(count_metrics(tracer))
        detail["traced_scenario_s_samples"] = traced
    else:
        setup_s, detail["setup_s_samples"] = measure_setup(workload, seeds[0], src)
        cycles = 0
        t_cycle = t_start = time.perf_counter()
        while cycles < 2 or _continue(t_start, t_cycle, seconds):
            t_cycle = time.perf_counter()
            for s in seeds:
                samples[s].append(run.once(s))
            cycles += 1
    detail["scenario_s_samples"] = samples
    # a repeat that raised has no time to a certified result; it counts as failed
    timed = {s: [t for t in ts if t is not None] for s, ts in samples.items()}
    if trace:
        traced = [t for t in traced if t is not None]
    if not all(timed.values()) or (trace and not traced):
        raise RuntimeError("no repeat of a data set completed: %s" % run.failures)

    if trace:
        run.check(
            "count metrics identical in count-only and traced repeats",
            all(c == count_sets[0] for c in count_sets),
        )
        counts = count_sets[-1]
        values = _layer_metrics(tracer.spans, counts)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(timed[seeds[0]])
        detail["counts"] = counts
        detail["environment"]["largest_matrix_bytes"] = counts.get("kernels.largest_matrix_bytes", 0)
    else:
        values = {
            "scenario_s": statistics.fmean(statistics.median(ts) for ts in timed.values()),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail.update(
        repeats=run.repeats,
        certificates=run.certificates,
        task_fail_ratio=run.failed / run.attempted,
        failures=run.failures,
    )
    outcome = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed}
    return outcome, values, detail, tracer.spans


def _layer_metrics(spans, counts):
    """The counts, and each layer's median self time over traced repeats."""
    per_run = self_times(spans)
    runs = sorted({run_id for run_id, _ in per_run})
    values = dict(counts)
    for layer in LAYER_NAMES:
        values[layer + ".s"] = statistics.median(per_run.get((r, layer), 0.0) for r in runs)
    return values
