"""Time one set-up in a fresh interpreter.

Set-up is the package import, config generation and ``cli.parse_config``.
Prints the seconds it took as its only line.

    python3 benchmarks/setup_probe.py <src dir> <workload> <seed>
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from calderon import cli
    from workloads import make_config

    cli.parse_config(make_config(workload, seed, "unused"))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
