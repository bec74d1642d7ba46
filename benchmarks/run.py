"""Benchmark of the calderon toolkit: certified scenario runs, timed.

    python3 benchmarks/run.py --workload permode-cheb --seed 7 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` beside this directory, so the benchmark measures the code it
ships with.  It prints a detail record (environment, certificate values,
failed checks, samples) and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run writes its spans to ``.bench_work/<workload>/spans.json``.
The workloads are described in ``WORKLOADS.md``.
"""

import argparse
import json
import os
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: read by BLAS and OpenMP once, when numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _count(minimum):
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError("must be >= %d" % minimum)
        return value

    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_count(0))
    parser.add_argument("--seconds", required=True, type=_count(1))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "calderon", "__init__.py")):
        print("error: no calderon package in %s" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import harness  # first numpy import: after the thread pinning above

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    work_dir = os.path.join(WORK, args.workload)
    try:
        outcome, values, detail, spans = harness.measure(
            args.workload, args.seed, args.seconds, args.trace, SRC, work_dir
        )
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.trace:
        with open(os.path.join(work_dir, "spans.json"), "w") as fh:
            json.dump(
                {"fields": ["run_id", "span_id", "parent_id", "name", "start", "end"], "spans": spans},
                fh,
            )
    # a count that never moved was never recorded: it reads 0
    outcome["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
