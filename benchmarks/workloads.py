"""Scenario configs for the benchmark workloads, generated from a seed.

Each workload is one closed-loop scenario: ``cli.parse_config`` on the
generated config, then ``cli.run_scenario``; the next repeat starts only
after the previous one has finished.  The run seed gives the config seeds
(:func:`config_seeds`), and a config seed drives every random input: the
config ``seed`` (and through it the random-Hermitian V and the sampled
symbol matrices) and the cosine base diagonal.  This module imports
nothing from numpy, so config generation costs the same whether or not
numpy is loaded.

Why each workload exists is recorded in ``WORKLOADS.md``.
"""

import random

WORKLOADS = ("permode-cheb", "dense-vy", "symbol-group")

#: data sets per run.  The contour quadrature doubles its panel count until
#: it converges, so the work of ``symbol-group`` depends on the sampled
#: matrices (inverted resolvents vary by 10 % between config seeds); a run
#: averages over several.  The other workloads do the same work on any data.
DATA_SETS = {"permode-cheb": 1, "dense-vy": 1, "symbol-group": 3}


def config_seeds(workload, seed):
    """The config seeds of one run: distinct for distinct run seeds."""
    k = DATA_SETS[workload]
    return [k * seed + j for j in range(k)]


def make_config(workload, seed, output_dir):
    """Return the raw scenario config dict for ``workload`` and config seed."""
    if workload == "permode-cheb":
        # 21 channels of 2 * (48 + 1) * 4 = 392 unknowns; per-mode path only
        return {
            "algebra": {"kind": "matrix", "n": 2},
            "model": {
                "base": "cylinder",
                "r": 1,
                "v": {"kind": "random-hermitian", "scale": 0.8},
            },
            "grid": {"n_u": 48, "n_y": 30, "kind": "chebyshev"},
            "tasks": ["double", "calderon", "index"],
            "seed": seed,
            "output_dir": output_dir,
        }
    if workload == "dense-vy":
        # one y-coupled system of N = 2 * (16 + 1) * 12 * 4 = 1632 unknowns
        rng = random.Random(seed)
        diag = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(2)]
        return {
            "algebra": {"kind": "matrix", "n": 2},
            "model": {
                "base": "cylinder",
                "r": 1,
                "v": {
                    "kind": "cosine",
                    "base": {"kind": "diag", "values": diag},
                    "amplitude": 0.3,
                },
            },
            "grid": {"n_u": 16, "n_y": 12, "kind": "uniform"},
            "tasks": ["double", "calderon"],
            "seed": seed,
            "output_dir": output_dir,
        }
    if workload == "symbol-group":
        # C[Z/4]: 100 contour symbols, module identities, Sobolev checks
        return {
            "algebra": {"kind": "group", "name": "cyclic", "n": 4},
            "model": {
                "base": "cylinder",
                "r": 1,
                "v": {"kind": "random-hermitian", "scale": 0.8},
            },
            "grid": {"n_u": 16, "n_y": 12, "kind": "chebyshev"},
            "tasks": ["module-check", "sobolev-check", "symbol"],
            "seed": seed,
            "output_dir": output_dir,
        }
    raise ValueError("unknown workload %r" % (workload,))
