#!/usr/bin/env python3
"""signalprop benchmark: drives the CLI in-process the way a user sweeps.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one client, closed loop: each command is a
``signalprop.cli.main(argv)`` call that starts when the previous one has
returned, with its output captured in memory. BLAS threads are capped at
the number of usable cores before numpy is imported.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then whole cycles of the workload's commands (see
``workloads.py``) for at least ``--seconds`` seconds and at least 100
commands. ``--trace 1`` measures the per-layer metrics on a fixed number
of cycles: an untraced pass, a counting pass with a counting activation
(``counting.py``), and a traced pass that wraps the layer functions
(``spans.py``). Outputs are checked against an independent oracle after
the timed region (``checks.py``). The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` rows, ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "trajectory", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "signalprop" / "__init__.py").is_file():
        print(f"perfbench: no signalprop package under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported.
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    ctx = workloads.context(args.workload, args.seed)
    if args.trace:
        metrics, samples, checker = bench.per_layer(args.workload, args.seed, ctx)
        units = bench.PER_LAYER
    else:
        metrics, samples, checker = bench.end_to_end(
            args.workload, args.seed, args.seconds, ctx)
        units = bench.END_TO_END
    print(json.dumps(bench.report(metrics, samples, units, checker)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
